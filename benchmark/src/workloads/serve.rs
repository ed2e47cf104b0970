//! `serve-g50`: the `segrout serve` daemon in a closed loop with one client.
//! A run is a series of sessions. Each spawns a daemon on Germany50 (the
//! gravity matrix of seed 808, initial weights from a 3-pass HeurOSPF
//! descent), primes it with one `noop`, sends a seeded trace of
//! [`SESSION_EVENTS`] events over stdin, waiting for each reply before
//! sending the next, and shuts it down.
//!
//! The number of sessions follows from the budget alone, one per
//! [`SESSION_SECONDS`], not from how fast they run. A fresh daemon re-solves
//! often at first and settles as its escalations improve the weights, and
//! sessions differ in how many escalations they hold; a run that stopped
//! when its time was up would cover more of them on a fast host than on a
//! slow one, and a faster daemon would be compared on other events than its
//! parent.
//!
//! Every [`MATRIX_EVERY`]th event replaces the demand matrix: the daemon's
//! gravity matrix under fresh per-demand log-normal jitter (sigma 0.3). The
//! other events are 60% demand changes (one demand scaled by U[0.5, 2]),
//! 15% link flaps, 15% capacity changes (to U[0.5, 1.5] times the link's
//! nominal capacity) and 10% `noop`. A flap takes a link down, or brings
//! back the one that is down, so at most one link is down at a time; a
//! link whose loss would cut the network is skipped (the event becomes a
//! `noop`), so no event is refused. This mix is not taken from a measured
//! operator trace; no such figure is at hand.
//!
//! Flaps and capacity changes each visit the links in a seeded random
//! order, reshuffled after every round, rather than drawing a link
//! independently per event. Each link is still equally likely at every
//! event, but every run of the same length hits each link about equally
//! often. That matters because nearly all escalations (full re-solves,
//! about a thousand routine events' worth of time each) follow the loss of
//! one of a few loaded links: with independent draws, how often a run hit
//! those links moved its throughput by 20% from one seed to the next.
//!
//! The only workload dominated by writes to the evaluator and by the reopt
//! tail, and the only one through the `cli` front end.

use super::{ms_since, trace_ops, Checks, Ctx, EdgeRounds, Run};
use crate::host::HostSpeed;
use crate::spans::Spans;
use crate::stats::{mean, median};
use segrout_algos::{heur_ospf, HeurOspfConfig, ServeConfig, ServeEvent, ServeSession, ServeTier};
use segrout_core::rng::StdRng;
use segrout_core::{DemandList, EdgeId, Network, NodeId, WaypointSetting};
use segrout_obs::Json;
use segrout_topo::by_name;
use segrout_traffic::{gravity, TrafficConfig};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The daemon's traffic seed: every run serves the same network and base
/// matrix; the workload seed draws the event trace.
const DAEMON_SEED: u64 = 808;
const TAG_EVENTS: u64 = 10;
/// Events per session. The first session's replies make up the MLU and
/// churn figures.
const SESSION_EVENTS: usize = 4000;
/// Budget per session: a session's summed event latency (4.2 s) plus its
/// daemon's start-up (1.2 s) on a 2-core shared host, rounded down.
const SESSION_SECONDS: f64 = 5.0;
/// Every this many events, one replaces the demand matrix.
const MATRIX_EVERY: usize = 500;
/// HeurOSPF budget of the daemon's initial search and of its reopt tiers.
const PASSES: usize = 3;

/// A running `segrout serve` process, killed and reaped on drop.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    bytes: u64,
}

impl Daemon {
    fn spawn(ctx: &Ctx, topology: &str) -> Result<Self, String> {
        let bin: PathBuf = std::env::current_exe()
            .map_err(|e| format!("locating the benchmark binary: {e}"))?
            .with_file_name("segrout");
        let mut child = Command::new(&bin)
            .args(["serve", "--topology", topology, "--traffic", "gravity"])
            .args(["--seed", &DAEMON_SEED.to_string()])
            .args(["--passes", &PASSES.to_string(), "--restarts", "0"])
            .args(["--threads", &ctx.threads.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon pipes unavailable".into());
        };
        Ok(Self {
            child,
            stdin,
            stdout: BufReader::new(stdout),
            bytes: 0,
        })
    }

    /// Sends one line and waits for the one-line reply.
    fn send(&mut self, line: &str) -> Result<String, String> {
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line);
        msg.push('\n');
        self.stdin
            .write_all(msg.as_bytes())
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("writing to the daemon: {e}"))?;
        let mut reply = String::new();
        let n = self
            .stdout
            .read_line(&mut reply)
            .map_err(|e| format!("reading from the daemon: {e}"))?;
        if n == 0 {
            return Err("the daemon closed its output".into());
        }
        self.bytes += (msg.len() + n) as u64;
        Ok(reply)
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        super::peak_rss_mb(&self.child.id().to_string())
    }

    /// Sends `shutdown`, returns the event count the `bye` reports, and
    /// reaps the process.
    fn shutdown(mut self) -> Result<u64, String> {
        let bye =
            Json::parse(&self.send(r#"{"event":"shutdown"}"#)?).map_err(|e| format!("bye: {e}"))?;
        let events = match (bye.get("type").and_then(Json::as_str), bye.get("events")) {
            (Some("bye"), Some(n)) => n.as_i64().ok_or("bye: bad event count")?,
            _ => return Err(format!("expected a bye, got {}", bye.render())),
        };
        let status = self.child.wait().map_err(|e| format!("daemon: {e}"))?;
        if !status.success() {
            return Err(format!("the daemon exited with {status}"));
        }
        Ok(events as u64)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One parsed reply.
#[derive(Clone, Debug, PartialEq)]
struct Reply {
    tier: String,
    mlu: f64,
    churn: usize,
    evaluations: u64,
}

/// Parses a reply and checks the protocol: a `serve` record with the
/// expected sequence number, `churn` equal to the diff length, zero churn
/// on the probe tier, and no refusal.
fn parse_reply(text: &str, seq: u64) -> Result<Reply, String> {
    let r = Json::parse(text).map_err(|e| format!("reply is not JSON: {e}"))?;
    if r.get("type").and_then(Json::as_str) != Some("serve") {
        return Err(format!("not a serve reply: {}", text.trim()));
    }
    let got = r.get("seq").and_then(Json::as_i64);
    if got != Some(seq as i64) {
        return Err(format!("seq {got:?}, expected {seq}"));
    }
    let tier = r
        .get("tier")
        .and_then(Json::as_str)
        .ok_or("reply has no tier")?
        .to_string();
    let mlu = r
        .get("mlu")
        .and_then(Json::as_f64)
        .ok_or("reply has no MLU")?;
    let churn = r
        .get("churn")
        .and_then(Json::as_i64)
        .ok_or("reply has no churn")? as usize;
    let diffs = r
        .get("weight_diffs")
        .and_then(Json::as_arr)
        .ok_or("reply has no weight_diffs")?
        .len();
    let evaluations = r.get("evaluations").and_then(Json::as_i64).unwrap_or(0) as u64;
    if churn != diffs {
        return Err(format!("churn {churn} but {diffs} weight diffs"));
    }
    if tier == "none" && churn != 0 {
        return Err(format!("probe-tier reply with churn {churn}"));
    }
    if !matches!(tier.as_str(), "none" | "local" | "escalate") {
        return Err(format!("event refused: {}", text.trim()));
    }
    if !(mlu.is_finite() && mlu > 0.0) {
        return Err(format!("MLU {mlu}"));
    }
    Ok(Reply {
        tier,
        mlu,
        churn,
        evaluations,
    })
}

/// The seeded event trace, generated one event at a time.
struct EventGen<'n> {
    net: &'n Network,
    rng: StdRng,
    /// The daemon's matrix, which matrix events jitter.
    base: Vec<(NodeId, NodeId, f64)>,
    /// The link that is down, if any.
    down: Option<EdgeId>,
    /// The rounds over the links that flaps and capacity changes visit.
    flaps: EdgeRounds,
    capacity_changes: EdgeRounds,
    count: usize,
}

impl<'n> EventGen<'n> {
    fn new(net: &'n Network, base: &DemandList, seed: u64) -> Self {
        Self {
            net,
            rng: StdRng::seed_from_u64(seed),
            base: base.iter().map(|d| (d.src, d.dst, d.size)).collect(),
            down: None,
            flaps: EdgeRounds::new(net),
            capacity_changes: EdgeRounds::new(net),
            count: 0,
        }
    }

    /// `true` when every node reaches every other without edge `dead`.
    fn strongly_connected_without(&self, dead: EdgeId) -> bool {
        let g = self.net.graph();
        let n = g.node_count();
        let reaches_all = |forward: bool| {
            let mut seen = vec![false; n];
            let mut stack = vec![NodeId(0)];
            seen[0] = true;
            while let Some(v) = stack.pop() {
                let edges = if forward {
                    g.out_edges(v)
                } else {
                    g.in_edges(v)
                };
                for &e in edges {
                    let w = if forward { g.dst(e) } else { g.src(e) };
                    if e != dead && !seen[w.index()] {
                        seen[w.index()] = true;
                        stack.push(w);
                    }
                }
            }
            seen.iter().all(|&s| s)
        };
        reaches_all(true) && reaches_all(false)
    }

    fn next(&mut self) -> ServeEvent {
        self.count += 1;
        if self.count.is_multiple_of(MATRIX_EVERY) {
            let demands: Vec<(NodeId, NodeId, f64)> = self
                .base
                .iter()
                .map(|&(s, t, size)| {
                    // Log-normal jitter exp(0.3 N(0,1)), Box-Muller.
                    let u1 = self.rng.gen_f64().max(1e-12);
                    let u2 = self.rng.gen_f64();
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    (s, t, size * (0.3 * z).exp())
                })
                .collect();
            return ServeEvent::DemandMatrix { demands };
        }
        let roll = self.rng.gen_range(0u32..100);
        if roll < 60 {
            ServeEvent::DemandScale {
                index: self.rng.gen_range(0..self.base.len() as u64) as usize,
                factor: 0.5 + 1.5 * self.rng.gen_f64(),
            }
        } else if roll < 75 {
            if let Some(edge) = self.down.take() {
                return ServeEvent::LinkUp { edge };
            }
            let edge = self.flaps.next(&mut self.rng);
            if self.strongly_connected_without(edge) {
                self.down = Some(edge);
                ServeEvent::LinkDown { edge }
            } else {
                ServeEvent::Noop
            }
        } else if roll < 90 {
            let edge = self.capacity_changes.next(&mut self.rng);
            ServeEvent::Capacity {
                edge,
                capacity: self.net.capacity(edge) * (0.5 + self.rng.gen_f64()),
            }
        } else {
            ServeEvent::Noop
        }
    }
}

/// The protocol line of an event.
fn render(event: &ServeEvent) -> String {
    let j = match event {
        ServeEvent::Noop => Json::obj([("event", Json::from("noop"))]),
        ServeEvent::DemandScale { index, factor } => Json::obj([
            ("event", Json::from("demand")),
            ("index", Json::from(*index)),
            ("factor", Json::from(*factor)),
        ]),
        ServeEvent::DemandMatrix { demands } => Json::obj([
            ("event", Json::from("matrix")),
            (
                "demands",
                Json::arr(demands.iter().map(|&(s, t, size)| {
                    Json::arr([Json::from(s.0), Json::from(t.0), Json::from(size)])
                })),
            ),
        ]),
        ServeEvent::LinkDown { edge } => Json::obj([
            ("event", Json::from("link_down")),
            ("edge", Json::from(edge.0)),
        ]),
        ServeEvent::LinkUp { edge } => Json::obj([
            ("event", Json::from("link_up")),
            ("edge", Json::from(edge.0)),
        ]),
        ServeEvent::Capacity { edge, capacity } => Json::obj([
            ("event", Json::from("capacity")),
            ("edge", Json::from(edge.0)),
            ("capacity", Json::from(*capacity)),
        ]),
    };
    j.render()
}

/// The matrix `segrout serve --traffic gravity --seed 808` serves.
fn daemon_demands(net: &Network) -> Result<DemandList, String> {
    let traffic = TrafficConfig {
        seed: DAEMON_SEED,
        ..Default::default()
    };
    gravity(net, &traffic).map_err(|e| format!("demands: {e}"))
}

/// Spawns a daemon and waits for its reply to a priming `noop`.
fn start(ctx: &Ctx, topology: &str) -> Result<Daemon, String> {
    let mut d = Daemon::spawn(ctx, topology)?;
    let reply = d.send(r#"{"event":"noop"}"#)?;
    parse_reply(&reply, 1).map_err(|e| format!("priming noop: {e}"))?;
    Ok(d)
}

/// Sends one event through a primed daemon and waits for its reply;
/// returns the client-observed latency (ms) and the reply if it passed the
/// protocol checks.
fn roundtrip(
    daemon: &mut Daemon,
    event: &ServeEvent,
    seq: u64,
    checks: &mut Checks,
    spans: &mut Spans,
) -> Result<(f64, Option<Reply>), String> {
    let line = render(event);
    let s = spans.open("cli.roundtrip", seq);
    let t = Instant::now();
    let text = daemon.send(&line)?;
    let ms = ms_since(t);
    spans.close(s);
    let reply = parse_reply(&text, seq);
    checks.check(reply.is_ok(), || {
        format!(
            "event {seq}: {}",
            reply.as_ref().err().cloned().unwrap_or_default()
        )
    });
    Ok((ms, reply.ok()))
}

/// Shuts a daemon down after `sent` events (plus the priming noop).
fn finish(daemon: Daemon, sent: usize, checks: &mut Checks) -> Result<(), String> {
    let events = daemon.shutdown()?;
    checks.check(events == sent as u64 + 1, || {
        format!("bye reports {events} events, {} were sent", sent + 1)
    });
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let topology = if ctx.smoke { "Abilene" } else { "Germany50" };
    let session_events = if ctx.smoke { 200 } else { SESSION_EVENTS };
    let t = Instant::now();
    let net = by_name(topology).ok_or("embedded topology missing")?;
    // The daemon's own matrix: the base of the trace's matrix events.
    let demands = daemon_demands(&net)?;
    run.inputs_s = t.elapsed().as_secs_f64();
    run.inputs_peak_rss_mb = super::peak_rss_mb("self")?;

    // Each session's set-up (spawning a daemon until its reply to the
    // priming noop) is one set-up repetition.
    let count = (ctx.budget() / SESSION_SECONDS).round().max(1.0) as usize;
    let mut sessions: Vec<Vec<ServeEvent>> = Vec::new();
    let mut replies: Vec<Vec<Option<Reply>>> = Vec::new();
    let mut off = Spans::new(false);
    let mut speed = HostSpeed::new();
    for session in 0..count {
        let t = Instant::now();
        let mut gen = EventGen::new(&net, &demands, ctx.derive(TAG_EVENTS, session as u64));
        let events: Vec<ServeEvent> = (0..session_events).map(|_| gen.next()).collect();
        run.inputs_s += t.elapsed().as_secs_f64();

        let mut started = None;
        let (ms, _) = speed.time(|| {
            let t = Instant::now();
            started = Some(start(ctx, topology)?);
            Ok::<_, String>(ms_since(t))
        })?;
        run.setup_s.push(ms / 1e3);
        let mut daemon = started.expect("the daemon started");
        let mut answers = Vec::with_capacity(session_events);
        for (i, ev) in events.iter().enumerate() {
            let mut reply = None;
            let (ms, raw) = speed.time(|| {
                let (ms, r) = roundtrip(&mut daemon, ev, i as u64 + 2, &mut run.checks, &mut off)?;
                reply = r;
                Ok::<_, String>(ms)
            })?;
            run.op_ms.push(ms);
            run.raw_op_ms.push(raw);
            answers.push(reply);
        }
        run.peak_rss_mb = run.peak_rss_mb.max(daemon.peak_rss_mb()?);
        finish(daemon, session_events, &mut run.checks)?;
        sessions.push(events);
        replies.push(answers);
    }

    run.host_factors = speed.factors().to_vec();
    // Work: every event, plus every candidate its reoptimization evaluated.
    // Nearly all of a run's time goes to its 70 to 100 full re-solves, and
    // how many a trace holds varies from seed to seed by about as much as
    // a sample of that size does; per evaluation, the time varies far less
    // (4% across seeds, against 14% per event).
    let evaluations: u64 = replies
        .iter()
        .flatten()
        .flatten()
        .map(|r| r.evaluations)
        .sum();
    run.work = (run.op_ms.len() as u64 + evaluations) as f64;
    let first: Vec<&Reply> = replies[0].iter().flatten().collect();
    run.deterministic.push((
        "mean_mlu",
        mean(&first.iter().map(|r| r.mlu).collect::<Vec<_>>()),
    ));
    let churn: usize = first.iter().map(|r| r.churn).sum();
    run.deterministic
        .push(("churn_per_event", churn as f64 / session_events as f64));
    let tier_count = |tier: &str| {
        replies
            .iter()
            .flatten()
            .flatten()
            .filter(|r| r.tier == tier)
            .count()
    };
    run.details.push(("sessions", sessions.len() as f64));
    run.details
        .push(("local_reopts", tier_count("local") as f64));
    run.details
        .push(("escalations", tier_count("escalate") as f64));
    run.details.push(("evaluations", evaluations as f64));

    if ctx.trace {
        traced(ctx, &net, topology, &sessions, &replies, &mut run)?;
    }
    Ok(run)
}

/// An in-process session with the daemon's initial search and serving
/// configuration, primed like the daemon.
fn in_process(net: &Network) -> Result<ServeSession<'_>, String> {
    let demands = daemon_demands(net)?;
    let ospf = HeurOspfConfig {
        seed: DAEMON_SEED,
        restarts: 0,
        max_passes: PASSES,
        ..Default::default()
    };
    let weights = heur_ospf(net, &demands, &ospf);
    let mut cfg = ServeConfig::default();
    cfg.reopt.ospf = ospf;
    let count = demands.len();
    let mut session = ServeSession::new(net, &weights, demands, WaypointSetting::none(count), cfg)
        .map_err(|e| format!("session: {e}"))?;
    session.apply(&ServeEvent::Noop);
    Ok(session)
}

/// The traced run: every session's events again through a fresh daemon,
/// each round trip followed by the same event applied to a fresh in-process
/// `ServeSession` under the profiler. The daemon must answer as in the
/// untraced run, and the in-process answer must agree with it in tier, MLU
/// bits and churn. Daemons and in-process sessions are all started before
/// the profiler is switched on.
fn traced(
    ctx: &Ctx,
    net: &Network,
    topology: &str,
    sessions: &[Vec<ServeEvent>],
    replies: &[Vec<Option<Reply>>],
    run: &mut Run,
) -> Result<(), String> {
    let len = sessions[0].len();
    let n = run.op_ms.len();
    let mut in_proc = sessions
        .iter()
        .map(|_| in_process(net))
        .collect::<Result<Vec<_>, _>>()?;
    let mut daemons = sessions
        .iter()
        .map(|_| start(ctx, topology))
        .collect::<Result<Vec<_>, _>>()?;
    let bytes0: u64 = daemons.iter().map(|d| d.bytes).sum();
    let (mut client_ms, mut apply_ms) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut tiers, mut evaluations) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let checks = &mut run.checks;
    let mut tracing = trace_ops(ctx, &run.op_ms, |k, spans| {
        let (s, i) = (k / len, k % len);
        let (event, seq) = (&sessions[s][i], i as u64 + 2);
        let (ms, reply) = roundtrip(&mut daemons[s], event, seq, checks, spans)?;
        checks.check(reply.is_none() || reply == replies[s][i], || {
            format!("session {s}, event {seq}: the replayed daemon answered differently")
        });
        let sp = spans.open("algos.serve_apply", seq);
        let t = Instant::now();
        let r = in_proc[s].apply(event);
        apply_ms.push(ms_since(t));
        spans.close(sp);
        let same = replies[s][i].as_ref().is_some_and(|d| {
            d.tier == r.tier.as_str() && d.mlu.to_bits() == r.mlu.to_bits() && d.churn == r.churn
        });
        checks.check(same, || {
            format!("session {s}, event {seq}: in-process apply disagrees with the daemon")
        });
        client_ms.push(ms);
        tiers.push(r.tier);
        evaluations.push(r.evaluations as f64);
        Ok(ms)
    })?;
    let bytes = daemons.iter().map(|d| d.bytes).sum::<u64>() - bytes0;
    for daemon in daemons {
        finish(daemon, len, &mut run.checks)?;
    }

    let by_tier = |tier: ServeTier, xs: &[f64]| -> Vec<f64> {
        xs.iter()
            .zip(&tiers)
            .filter(|&(_, &t)| t == tier)
            .map(|(&x, _)| x)
            .collect()
    };
    let share = |tier: ServeTier| by_tier(tier, &apply_ms).len() as f64 / n as f64;
    let probe_us: Vec<f64> = by_tier(ServeTier::Probe, &apply_ms)
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let overhead_us: Vec<f64> = client_ms
        .iter()
        .zip(&apply_ms)
        .zip(&tiers)
        .filter(|&(_, &t)| t == ServeTier::Probe)
        .map(|((c, a), _)| (c - a) * 1e3)
        .collect();
    let local = by_tier(ServeTier::Local, &apply_ms);
    let escalate = by_tier(ServeTier::Escalate, &apply_ms);
    let reopt_ms: f64 = local.iter().chain(&escalate).sum();
    let reopt_evals: f64 = by_tier(ServeTier::Local, &evaluations)
        .iter()
        .chain(&by_tier(ServeTier::Escalate, &evaluations))
        .sum();

    let layers = &mut tracing.layers;
    if !probe_us.is_empty() {
        layers.set("algos.serve_apply_us.p50", median(&probe_us));
        layers.set("cli.overhead_us.p50", median(&overhead_us));
    }
    layers.set("algos.serve_local_ms.mean", mean(&local));
    layers.set("algos.serve_escalate_ms.mean", mean(&escalate));
    layers.set(
        "algos.serve_escalate_ms.max",
        escalate.iter().copied().fold(0.0, f64::max),
    );
    layers.set("algos.serve_tiers.probe", share(ServeTier::Probe));
    layers.set("algos.serve_tiers.local", share(ServeTier::Local));
    layers.set("algos.serve_tiers.escalate", share(ServeTier::Escalate));
    layers.set("algos.serve_tiers.error", share(ServeTier::Error));
    layers.set("algos.reopt_evals_per_ms", reopt_evals / reopt_ms);
    layers.set("cli.bytes_per_event", bytes as f64 / n as f64);
    run.tracing = Some(tracing);
    Ok(())
}
