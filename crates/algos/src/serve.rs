//! Online reoptimization sessions: the in-process engine behind
//! `segrout serve`.
//!
//! A [`ServeSession`] holds a topology, the currently deployed
//! weights/waypoints, and a live [`IncrementalEvaluator`], and absorbs a
//! stream of [`ServeEvent`]s — demand updates, demand-matrix replacement,
//! link up/down, capacity changes — mutating the evaluator **in place**
//! (never rebuilding the `|D|` shortest-path DAGs wholesale) and answering
//! each event through a tiered policy:
//!
//! 1. **Probe** — the event's impact stays within `reopt_ratio` of the best
//!    MLU seen, so the instant incremental readout is the answer; no
//!    reconfiguration, zero churn.
//! 2. **Local** — MLU drifted past the reopt threshold: run HeurOSPF's
//!    Fortz–Thorup descent once, online, from the live evaluator's weights
//!    ([`reoptimize_weights_on`]), changing at most
//!    `reopt.max_weight_changes` link weights.
//! 3. **Escalate** — MLU blew past `escalate_ratio` (e.g. a link failure
//!    severed a trunk): run the same warm-started descent with the change
//!    budget opened to every link. The evaluator still carries the
//!    failure mask and capacity overrides, so escalation optimizes the
//!    *actual* degraded network.
//!
//! Both tiers run the crate's one local search (see the `heur_ospf`
//! module) in its online mode: HeurOSPF's neighbourhood without the halve
//! and double moves, one candidate probed at a time up to the first
//! improvement, so an event pays for no probe past the move it accepts.
//! The change budget is the only other difference from the offline
//! search.
//!
//! Every response reports the minimal-churn weight diff (old/new pairs for
//! exactly the links that changed), the post-event MLU/Φ, and bookkeeping
//! for the `serve.*` metric catalog. Malformed or inapplicable events get
//! an error reply and leave the session state untouched — a serving daemon
//! must not die (or drift) on bad input.
//!
//! Everything observable is deterministic: responses carry no wall-clock
//! fields with protocol significance (latency is measured but excluded
//! from rendering/equality), and event application routes through the same
//! propagation kernels as a from-scratch build, so replaying an event log
//! yields bit-identical state at any thread count.
//!
//! The JSONL wire protocol lives here too: [`parse_event`] reads one input
//! line, and [`serve_stream`] feeds a whole stream through a session, one
//! response line per event line, with lines capped at [`MAX_EVENT_LINE`].

use crate::reopt::{reoptimize_weights_on, round_deployed, ReoptimizeConfig};
use segrout_core::{
    Demand, DemandList, EdgeId, IncrementalEvaluator, Network, NodeId, TeError, WaypointSetting,
    WeightSetting,
};
use segrout_obs::Json;
use std::io::{BufRead, Write};

/// One event on the serving input stream.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeEvent {
    /// No state change — a keep-alive; answers with the current readout.
    Noop,
    /// Scale demand `index` by `factor` (the classic "flow crossed its
    /// threshold" trigger).
    DemandScale {
        /// Index into the current demand list.
        index: usize,
        /// Multiplicative factor (finite, positive).
        factor: f64,
    },
    /// Replace the whole demand matrix (a fresh measurement epoch). Resets
    /// waypoints to none — the old assignment indexes the old matrix.
    DemandMatrix {
        /// The new demands as `(src, dst, size)` triples.
        demands: Vec<(NodeId, NodeId, f64)>,
    },
    /// Take a link down (failure or maintenance).
    LinkDown {
        /// The failing edge.
        edge: EdgeId,
    },
    /// Bring a previously downed link back up.
    LinkUp {
        /// The recovering edge.
        edge: EdgeId,
    },
    /// Change a link's capacity (e.g. a LAG member loss).
    Capacity {
        /// The affected edge.
        edge: EdgeId,
        /// New capacity (finite, positive).
        capacity: f64,
    },
}

/// Which tier of the serving policy answered an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeTier {
    /// Incremental readout only; no reconfiguration.
    Probe,
    /// Budgeted local search re-optimized within the churn budget.
    Local,
    /// Full-budget warm-started re-solve.
    Escalate,
    /// The event was rejected; state unchanged.
    Error,
}

impl ServeTier {
    /// Stable wire name (`none`/`local`/`escalate`/`error`).
    pub fn as_str(self) -> &'static str {
        match self {
            ServeTier::Probe => "none",
            ServeTier::Local => "local",
            ServeTier::Escalate => "escalate",
            ServeTier::Error => "error",
        }
    }
}

/// The answer to one [`ServeEvent`].
#[derive(Clone, Debug)]
pub struct ServeResponse {
    /// Monotone event sequence number (1-based; error replies consume one
    /// too, so responses and input lines stay zippable).
    pub seq: u64,
    /// Which policy tier produced the answer.
    pub tier: ServeTier,
    /// Post-event maximum link utilization.
    pub mlu: f64,
    /// Post-event Fortz–Thorup Φ.
    pub phi: f64,
    /// Minimal-churn weight diff: `(edge, old, new)` for exactly the links
    /// whose weight changed (bitwise) while answering this event.
    pub weight_diffs: Vec<(EdgeId, f64, f64)>,
    /// `weight_diffs.len()` — the reconfiguration churn of this event.
    pub churn: usize,
    /// Candidate evaluations spent (0 for probe/error tiers).
    pub evaluations: u64,
    /// Wall-clock time spent answering, in milliseconds. Bookkeeping only:
    /// excluded from the wire rendering so replays stay byte-identical.
    pub latency_ms: f64,
    /// Human-readable reason when `tier == Error`.
    pub error: Option<String>,
}

/// Serving-policy knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Budget/seed configuration for the local-search tiers.
    pub reopt: ReoptimizeConfig,
    /// Per-event latency SLO in milliseconds; answers slower than this are
    /// counted as violations (`<= 0` disables the bookkeeping).
    pub slo_ms: f64,
    /// Re-optimize when post-event MLU exceeds `best_mlu * reopt_ratio`.
    pub reopt_ratio: f64,
    /// Escalate to a full-budget re-solve when post-event MLU exceeds
    /// `best_mlu * escalate_ratio`.
    pub escalate_ratio: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            reopt: ReoptimizeConfig::default(),
            slo_ms: 50.0,
            reopt_ratio: 1.05,
            escalate_ratio: 1.5,
        }
    }
}

/// Session-local tallies mirroring the process-global `serve.*` counters
/// (tests read these — the obs registry is shared across a test binary's
/// threads and cannot be asserted on exactly).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Events consumed (including rejected ones).
    pub events: u64,
    /// Events rejected with an error reply.
    pub errors: u64,
    /// Events answered by the probe tier alone.
    pub probe_only: u64,
    /// Events that triggered the budgeted local search.
    pub local_reopts: u64,
    /// Events that escalated to the full-budget re-solve.
    pub escalations: u64,
    /// Events whose latency exceeded the SLO.
    pub slo_violations: u64,
    /// Total link-weight changes deployed across all events.
    pub weight_churn: u64,
}

/// Process-global `serve.*` metric handles, registered once.
struct ServeMetrics {
    events: std::sync::Arc<segrout_obs::Counter>,
    errors: std::sync::Arc<segrout_obs::Counter>,
    probe_only: std::sync::Arc<segrout_obs::Counter>,
    local_reopts: std::sync::Arc<segrout_obs::Counter>,
    escalations: std::sync::Arc<segrout_obs::Counter>,
    slo_violations: std::sync::Arc<segrout_obs::Counter>,
    weight_churn: std::sync::Arc<segrout_obs::Counter>,
    latency_ms: std::sync::Arc<segrout_obs::Histogram>,
    mlu: std::sync::Arc<segrout_obs::Gauge>,
}

fn metrics() -> &'static ServeMetrics {
    static METRICS: std::sync::OnceLock<ServeMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| ServeMetrics {
        events: segrout_obs::counter("serve.events"),
        errors: segrout_obs::counter("serve.errors"),
        probe_only: segrout_obs::counter("serve.probe_only"),
        local_reopts: segrout_obs::counter("serve.local_reopts"),
        escalations: segrout_obs::counter("serve.escalations"),
        slo_violations: segrout_obs::counter("serve.slo_violations"),
        weight_churn: segrout_obs::counter("serve.weight_churn"),
        latency_ms: segrout_obs::histogram("serve.latency_ms", segrout_obs::latency_bounds_ms()),
        mlu: segrout_obs::gauge("serve.mlu"),
    })
}

/// A long-running serving session over one topology.
pub struct ServeSession<'n> {
    net: &'n Network,
    cfg: ServeConfig,
    demands: DemandList,
    waypoints: WaypointSetting,
    ev: IncrementalEvaluator<'n>,
    /// Best MLU seen since the last reconfiguration — the anchor the tier
    /// thresholds compare against.
    anchor_mlu: f64,
    seq: u64,
    stats: ServeStats,
}

impl<'n> ServeSession<'n> {
    /// Opens a session on `net` with the deployed setting. Weights are
    /// rounded into the integer range `[1, cfg.reopt.ospf.max_weight]`
    /// (the deployed setting came from the same toolchain; fractional
    /// settings like inverse-capacity are snapped onto the reopt grid so
    /// every later probe compares like with like).
    ///
    /// # Errors
    /// Propagates evaluator construction errors (disconnected demands).
    pub fn new(
        net: &'n Network,
        deployed: &WeightSetting,
        demands: DemandList,
        waypoints: WaypointSetting,
        cfg: ServeConfig,
    ) -> Result<Self, TeError> {
        let rounded = round_deployed(net, deployed, cfg.reopt.ospf.max_weight);
        let ev = IncrementalEvaluator::new(net, &rounded, &demands, &waypoints)?;
        let anchor_mlu = ev.mlu();
        Ok(Self {
            net,
            cfg,
            demands,
            waypoints,
            ev,
            anchor_mlu,
            seq: 0,
            stats: ServeStats::default(),
        })
    }

    /// The topology this session serves.
    pub fn network(&self) -> &'n Network {
        self.net
    }

    /// The live evaluator (current weights, loads, failure mask, capacity
    /// overrides) — what differential tests compare against a scratch
    /// rebuild.
    pub fn evaluator(&self) -> &IncrementalEvaluator<'n> {
        &self.ev
    }

    /// The current demand list.
    pub fn demands(&self) -> &DemandList {
        &self.demands
    }

    /// The current waypoint assignment.
    pub fn waypoints(&self) -> &WaypointSetting {
        &self.waypoints
    }

    /// Session-local tallies.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Sequence number of the last response (0 before any event).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The serving-policy configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Rejects an input the caller could not even parse into a
    /// [`ServeEvent`] (malformed JSONL, unknown event type). Consumes a
    /// sequence number so responses stay zippable with input lines, and
    /// counts toward `serve.errors`; session state is untouched.
    pub fn reject(&mut self, reason: &str) -> ServeResponse {
        let m = metrics();
        self.seq += 1;
        self.stats.events += 1;
        self.stats.errors += 1;
        m.events.inc();
        m.errors.inc();
        ServeResponse {
            seq: self.seq,
            tier: ServeTier::Error,
            mlu: self.ev.mlu(),
            phi: self.ev.phi(),
            weight_diffs: Vec::new(),
            churn: 0,
            evaluations: 0,
            latency_ms: 0.0,
            error: Some(reason.to_string()),
        }
    }

    /// Applies one event and answers it through the tiered policy. Never
    /// fails: inapplicable events (bad index, disconnecting failure,
    /// invalid value) produce an [`ServeTier::Error`] response and leave
    /// the session state bit-for-bit untouched.
    pub fn apply(&mut self, event: &ServeEvent) -> ServeResponse {
        let _span = segrout_obs::span("serve.event");
        let m = metrics();
        let start = std::time::Instant::now();
        self.seq += 1;
        self.stats.events += 1;
        m.events.inc();

        let mut response = match self.apply_inner(event) {
            Err(e) => {
                self.stats.errors += 1;
                m.errors.inc();
                ServeResponse {
                    seq: self.seq,
                    tier: ServeTier::Error,
                    mlu: self.ev.mlu(),
                    phi: self.ev.phi(),
                    weight_diffs: Vec::new(),
                    churn: 0,
                    evaluations: 0,
                    latency_ms: 0.0,
                    error: Some(e.to_string()),
                }
            }
            Ok(()) => self.answer(),
        };

        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        response.latency_ms = latency_ms;
        m.latency_ms.observe(latency_ms);
        m.mlu.set(self.ev.mlu());
        if self.cfg.slo_ms > 0.0 && latency_ms > self.cfg.slo_ms {
            self.stats.slo_violations += 1;
            m.slo_violations.inc();
        }
        response
    }

    /// Mutates the evaluator (and session workload mirrors) in place.
    /// Every error path returns **before** any state change.
    fn apply_inner(&mut self, event: &ServeEvent) -> Result<(), TeError> {
        match event {
            ServeEvent::Noop => Ok(()),
            ServeEvent::DemandScale { index, factor } => {
                let Some(demand) = self.demands.as_slice().get(*index) else {
                    return Err(TeError::OutOfRange {
                        what: "demand",
                        index: *index,
                        count: self.demands.len(),
                    });
                };
                if !(factor.is_finite() && *factor > 0.0) {
                    return Err(TeError::InvalidDemand {
                        index: *index,
                        value: *factor,
                    });
                }
                // The evaluator rejects a size the list's setter would, with
                // the same error, before it changes anything.
                let size = demand.size * factor;
                self.ev.set_demand(*index, size)?;
                self.demands.set_size(*index, size)
            }
            ServeEvent::DemandMatrix { demands } => {
                let list: Vec<Demand> = demands
                    .iter()
                    .map(|&(src, dst, size)| Demand { src, dst, size })
                    .collect();
                let new_demands = DemandList::from_vec(list)?;
                let new_waypoints = WaypointSetting::none(new_demands.len());
                self.ev.set_workload(&new_demands, &new_waypoints)?;
                self.demands = new_demands;
                self.waypoints = new_waypoints;
                Ok(())
            }
            ServeEvent::LinkDown { edge } => {
                self.ev.set_link_state(*edge, false)?;
                Ok(())
            }
            ServeEvent::LinkUp { edge } => {
                self.ev.set_link_state(*edge, true)?;
                Ok(())
            }
            ServeEvent::Capacity { edge, capacity } => {
                self.ev.set_capacity(*edge, *capacity)?;
                Ok(())
            }
        }
    }

    /// Tier classification and (if warranted) re-optimization, after the
    /// event itself applied cleanly. Only a re-solve moves weights, so only
    /// it snapshots them for the diff.
    fn answer(&mut self) -> ServeResponse {
        let m = metrics();
        let mlu = self.ev.mlu();
        let mut weight_diffs = Vec::new();
        let (tier, evaluations) = if mlu <= self.anchor_mlu * self.cfg.reopt_ratio + 1e-12 {
            // Within tolerance of the best state seen: the probe readout is
            // the answer. Track improvements so the anchor follows genuine
            // load decreases (a demand scale-down must not leave a stale
            // high anchor that masks the next degradation).
            self.anchor_mlu = self.anchor_mlu.min(mlu);
            self.stats.probe_only += 1;
            m.probe_only.inc();
            (ServeTier::Probe, 0)
        } else {
            let escalate = mlu > self.anchor_mlu * self.cfg.escalate_ratio;
            let cfg = if escalate {
                // Escalation: same warm-started descent, budget opened to
                // every link. The evaluator keeps its failure mask and
                // capacity overrides, so this re-solves the degraded
                // network, not the nominal one.
                let mut full = self.cfg.reopt.clone();
                full.max_weight_changes = self.net.edge_count();
                full
            } else {
                self.cfg.reopt.clone()
            };
            let old_weights = self.ev.weights().to_vec();
            let searched = reoptimize_weights_on(&mut self.ev, &cfg);
            weight_diffs = old_weights
                .iter()
                .zip(self.ev.weights())
                .enumerate()
                .filter(|(_, (a, b))| a.to_bits() != b.to_bits())
                .map(|(e, (&a, &b))| (EdgeId(e as u32), a, b))
                .collect();
            match searched {
                Ok(r) => {
                    if escalate {
                        self.stats.escalations += 1;
                        m.escalations.inc();
                        (ServeTier::Escalate, r.evaluations)
                    } else {
                        self.stats.local_reopts += 1;
                        m.local_reopts.inc();
                        (ServeTier::Local, r.evaluations)
                    }
                }
                // The search only refuses weights off its integer range,
                // and the session's weights are rounded into it at
                // construction and only ever moved by the search; if it
                // somehow fails, serve the unoptimized readout.
                Err(_) => (ServeTier::Probe, 0),
            }
            // Reconfigured (or at least searched): re-anchor on the new
            // deployed state so the next event is judged against it.
        };
        if tier != ServeTier::Probe {
            self.anchor_mlu = self.ev.mlu();
        }
        let churn = weight_diffs.len();
        self.stats.weight_churn += churn as u64;
        m.weight_churn.add(churn as u64);

        ServeResponse {
            seq: self.seq,
            tier,
            mlu: self.ev.mlu(),
            phi: self.ev.phi(),
            weight_diffs,
            churn,
            evaluations,
            latency_ms: 0.0,
            error: None,
        }
    }
}

/// Longest event line [`serve_stream`] reads, newline excluded. The largest
/// line the daemon's own traffic models produce, a `matrix` event carrying
/// Ta2's default `mcf` demands, is about 1.3 MB.
pub const MAX_EVENT_LINE: usize = 16 << 20;

/// Reads the next line of `input` into `buf`, newline included; `Ok(false)`
/// at end of input. `buf` is reused across lines and grows to the longest
/// line read. A line longer than [`MAX_EVENT_LINE`] is discarded through
/// its newline and leaves `buf` empty, its memory released.
fn read_event_line<R: BufRead>(input: &mut R, buf: &mut Vec<u8>) -> std::io::Result<bool> {
    use std::io::Read;
    buf.clear();
    let cap = MAX_EVENT_LINE as u64 + 1;
    let n = input.by_ref().take(cap).read_until(b'\n', buf)?;
    if n as u64 == cap && buf.last() != Some(&b'\n') {
        *buf = Vec::new();
        input.skip_until(b'\n')?;
    }
    Ok(n > 0)
}

/// Feeds one JSONL event stream through the session, writing one response
/// line per input line. Returns `true` when a shutdown event arrived.
/// Blank lines are skipped; a line that is not UTF-8, is longer than
/// [`MAX_EVENT_LINE`] or is not a valid event gets an error reply.
///
/// # Errors
/// An I/O error on either stream.
pub fn serve_stream<R: BufRead, W: Write>(
    session: &mut ServeSession<'_>,
    mut input: R,
    out: &mut W,
) -> Result<bool, String> {
    let mut buf = Vec::new();
    while read_event_line(&mut input, &mut buf).map_err(|e| format!("event stream: {e}"))? {
        // Only a line past the cap leaves the buffer empty.
        let parsed = if buf.is_empty() {
            Err(format!("event line longer than {MAX_EVENT_LINE} bytes"))
        } else {
            match std::str::from_utf8(&buf).map(str::trim) {
                Ok("") => continue,
                Ok(line) => parse_event(line),
                Err(_) => Err("event line is not valid UTF-8".to_string()),
            }
        };
        let response = match parsed {
            Ok(None) => {
                // Shutdown is a control line, not an event: it gets an ack,
                // consumes no sequence number, and stops the daemon.
                let bye = Json::obj([
                    ("type", Json::from("bye")),
                    ("events", Json::from(session.stats().events)),
                ]);
                writeln!(out, "{}", bye.render()).map_err(|e| format!("response stream: {e}"))?;
                out.flush().map_err(|e| format!("response stream: {e}"))?;
                return Ok(true);
            }
            Ok(Some(event)) => session.apply(&event),
            Err(reason) => session.reject(&reason),
        };
        writeln!(out, "{}", render_response(&response))
            .map_err(|e| format!("response stream: {e}"))?;
        // The daemon is interactive: every answer must reach the peer now,
        // not at buffer-boundary time.
        out.flush().map_err(|e| format!("response stream: {e}"))?;
    }
    Ok(false)
}

/// Parses one JSONL input line into a [`ServeEvent`]. `Ok(None)` is the
/// shutdown control line; `Err` is a malformed line the session will
/// reject (with the reason echoed in the error reply).
///
/// # Errors
/// A line that is not JSON, names no or an unknown event type, or has a
/// missing or mistyped field.
pub fn parse_event(line: &str) -> Result<Option<ServeEvent>, String> {
    let rec = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let kind = rec["event"]
        .as_str()
        .ok_or("missing or non-string 'event' field")?;
    let uint_field = |name: &str| -> Result<u32, String> {
        rec[name]
            .as_i64()
            .and_then(|i| u32::try_from(i).ok())
            .ok_or_else(|| format!("'{name}' must be a non-negative integer"))
    };
    let float_field = |name: &str| -> Result<f64, String> {
        rec[name]
            .as_f64()
            .ok_or_else(|| format!("'{name}' must be a number"))
    };
    match kind {
        "noop" => Ok(Some(ServeEvent::Noop)),
        "shutdown" => Ok(None),
        "demand" => Ok(Some(ServeEvent::DemandScale {
            index: uint_field("index")? as usize,
            factor: float_field("factor")?,
        })),
        "matrix" => {
            let entries = rec["demands"]
                .as_arr()
                .ok_or("'demands' must be an array of [src, dst, size] triples")?;
            let mut demands = Vec::with_capacity(entries.len());
            for (i, entry) in entries.iter().enumerate() {
                let triple = entry
                    .as_arr()
                    .filter(|t| t.len() == 3)
                    .ok_or_else(|| format!("demands[{i}] must be [src, dst, size]"))?;
                let node = |j: usize| {
                    triple[j]
                        .as_i64()
                        .and_then(|x| u32::try_from(x).ok())
                        .ok_or_else(|| format!("demands[{i}][{j}] must be a node id"))
                };
                let size = triple[2]
                    .as_f64()
                    .ok_or_else(|| format!("demands[{i}][2] must be a number"))?;
                demands.push((NodeId(node(0)?), NodeId(node(1)?), size));
            }
            Ok(Some(ServeEvent::DemandMatrix { demands }))
        }
        "link_down" => Ok(Some(ServeEvent::LinkDown {
            edge: EdgeId(uint_field("edge")?),
        })),
        "link_up" => Ok(Some(ServeEvent::LinkUp {
            edge: EdgeId(uint_field("edge")?),
        })),
        "capacity" => Ok(Some(ServeEvent::Capacity {
            edge: EdgeId(uint_field("edge")?),
            capacity: float_field("capacity")?,
        })),
        other => Err(format!("unknown event type '{other}'")),
    }
}

/// Renders a [`ServeResponse`] as one protocol line. Latency is excluded:
/// it is the one nondeterministic field, and the protocol stream must be
/// byte-identical across replays of the same event log.
fn render_response(r: &ServeResponse) -> String {
    let diffs = Json::arr(
        r.weight_diffs
            .iter()
            .map(|&(e, old, new)| Json::arr([Json::from(e.0), Json::from(old), Json::from(new)])),
    );
    let mut fields = vec![
        ("type", Json::from("serve")),
        ("seq", Json::from(r.seq)),
        ("tier", Json::from(r.tier.as_str())),
        ("mlu", Json::from(r.mlu)),
        ("phi", Json::from(r.phi)),
        ("churn", Json::from(r.churn)),
        ("evaluations", Json::from(r.evaluations)),
        ("weight_diffs", diffs),
    ];
    if let Some(e) = &r.error {
        fields.push(("error", Json::from(e.as_str())));
    }
    Json::obj(fields).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shifted-hotspot scenario from `reopt.rs`: a 4-node bidirectional
    /// ring (capacity 10) plus a thin 0↔2 diagonal (capacity 2).
    fn ring_net() -> Network {
        let mut b = Network::builder(4);
        b.bilink(NodeId(0), NodeId(1), 10.0);
        b.bilink(NodeId(1), NodeId(2), 10.0);
        b.bilink(NodeId(2), NodeId(3), 10.0);
        b.bilink(NodeId(3), NodeId(0), 10.0);
        b.bilink(NodeId(0), NodeId(2), 2.0);
        b.build().expect("valid network")
    }

    fn unit_weights(net: &Network) -> WeightSetting {
        WeightSetting::new(net, vec![1.0; net.edge_count()]).expect("unit weights")
    }

    fn demands(entries: &[(u32, u32, f64)]) -> DemandList {
        DemandList::from_vec(
            entries
                .iter()
                .map(|&(s, t, size)| Demand {
                    src: NodeId(s),
                    dst: NodeId(t),
                    size,
                })
                .collect(),
        )
        .expect("valid demands")
    }

    fn session(net: &Network) -> ServeSession<'_> {
        let d = demands(&[(1, 3, 8.0), (0, 1, 1.0)]);
        let w = unit_weights(net);
        let n = d.len();
        ServeSession::new(net, &w, d, WaypointSetting::none(n), ServeConfig::default())
            .expect("session opens")
    }

    #[test]
    fn noop_is_probe_tier_with_zero_churn() {
        let net = ring_net();
        let mut s = session(&net);
        let r = s.apply(&ServeEvent::Noop);
        assert_eq!(r.seq, 1);
        assert_eq!(r.tier, ServeTier::Probe);
        assert_eq!(r.churn, 0);
        assert!(r.weight_diffs.is_empty());
        assert!(r.error.is_none());
        assert_eq!(s.stats().probe_only, 1);
        assert_eq!(s.stats().events, 1);
    }

    #[test]
    fn bad_events_reply_error_and_leave_state_untouched() {
        let net = ring_net();
        let mut s = session(&net);
        let before: Vec<u64> = s.evaluator().loads().iter().map(|x| x.to_bits()).collect();
        let mlu = s.evaluator().mlu().to_bits();
        let cases = [
            ServeEvent::DemandScale {
                index: 99,
                factor: 2.0,
            },
            ServeEvent::DemandScale {
                index: 0,
                factor: -1.0,
            },
            ServeEvent::LinkDown {
                edge: EdgeId(1_000),
            },
            ServeEvent::LinkUp {
                edge: EdgeId(1_000),
            },
            ServeEvent::Capacity {
                edge: EdgeId(1_000),
                capacity: 5.0,
            },
            ServeEvent::Capacity {
                edge: EdgeId(0),
                capacity: f64::NAN,
            },
            ServeEvent::DemandMatrix {
                demands: vec![(NodeId(0), NodeId(1), -3.0)],
            },
            ServeEvent::DemandMatrix {
                demands: vec![(NodeId(0), NodeId(1_000), 1.0)],
            },
        ];
        for (i, ev) in cases.iter().enumerate() {
            let r = s.apply(ev);
            assert_eq!(r.tier, ServeTier::Error, "case {i}");
            assert!(r.error.is_some(), "case {i}");
            assert_eq!(r.seq, i as u64 + 1, "seq stays monotone through errors");
        }
        let after: Vec<u64> = s.evaluator().loads().iter().map(|x| x.to_bits()).collect();
        assert_eq!(before, after);
        assert_eq!(mlu, s.evaluator().mlu().to_bits());
        assert_eq!(s.stats().errors, cases.len() as u64);
    }

    #[test]
    fn demand_spike_triggers_local_reopt_within_budget() {
        let net = ring_net();
        let mut s = session(&net);
        // Unit weights split 1→3 over both ring directions (MLU 0.4); a 2×
        // spike pushes it past the 5% threshold and the budgeted search
        // must react with at most the configured number of weight changes.
        let r = s.apply(&ServeEvent::DemandScale {
            index: 0,
            factor: 2.0,
        });
        assert!(
            r.tier == ServeTier::Local || r.tier == ServeTier::Escalate,
            "a 2x spike must trigger reoptimization, got {:?}",
            r.tier
        );
        if r.tier == ServeTier::Local {
            assert!(r.churn <= s.config().reopt.max_weight_changes);
        }
        assert!(r.evaluations > 0);
        // The diff must reconstruct the deployed weights.
        for &(e, _, new) in &r.weight_diffs {
            assert_eq!(s.evaluator().weights()[e.index()].to_bits(), new.to_bits());
        }
    }

    #[test]
    fn link_flap_round_trips_to_identical_state() {
        let net = ring_net();
        // Keep the workload light so the probe tier answers both events and
        // no reconfiguration interferes with the round-trip.
        let d = demands(&[(0, 1, 1.0)]);
        let w = unit_weights(&net);
        let mut s = ServeSession::new(&net, &w, d, WaypointSetting::none(1), {
            ServeConfig::default()
        })
        .expect("session opens");
        let before: Vec<u64> = s.evaluator().loads().iter().map(|x| x.to_bits()).collect();
        let down = s.apply(&ServeEvent::LinkDown { edge: EdgeId(0) });
        assert!(down.error.is_none());
        let up = s.apply(&ServeEvent::LinkUp { edge: EdgeId(0) });
        assert!(up.error.is_none());
        let after: Vec<u64> = s.evaluator().loads().iter().map(|x| x.to_bits()).collect();
        assert_eq!(before, after, "down+up must restore the exact state");
        assert!(!s.evaluator().disabled().iter().any(|&d| d));
    }

    #[test]
    fn capacity_cut_changes_mlu_only() {
        let net = ring_net();
        let mut s = session(&net);
        let loads: Vec<u64> = s.evaluator().loads().iter().map(|x| x.to_bits()).collect();
        let mlu0 = s.evaluator().mlu();
        let r = s.apply(&ServeEvent::Capacity {
            edge: EdgeId(2),
            capacity: 5.0,
        });
        assert!(r.error.is_none());
        // Routing is weight-driven: loads unchanged unless a reopt fired.
        if r.tier == ServeTier::Probe {
            let now: Vec<u64> = s.evaluator().loads().iter().map(|x| x.to_bits()).collect();
            assert_eq!(loads, now);
        }
        assert!(s.evaluator().mlu() >= mlu0);
    }

    #[test]
    fn matrix_replacement_resets_waypoints() {
        let net = ring_net();
        let mut s = session(&net);
        let r = s.apply(&ServeEvent::DemandMatrix {
            demands: vec![(NodeId(0), NodeId(2), 3.0), (NodeId(2), NodeId(0), 1.0)],
        });
        assert!(r.error.is_none());
        assert_eq!(s.demands().len(), 2);
        assert_eq!(s.waypoints().len(), 2);
        assert_eq!(s.waypoints().max_used(), 0);
    }

    #[test]
    fn reject_consumes_a_sequence_number() {
        let net = ring_net();
        let mut s = session(&net);
        let r1 = s.apply(&ServeEvent::Noop);
        let r2 = s.reject("parse error: not json");
        let r3 = s.apply(&ServeEvent::Noop);
        assert_eq!((r1.seq, r2.seq, r3.seq), (1, 2, 3));
        assert_eq!(r2.tier, ServeTier::Error);
        assert_eq!(s.stats().errors, 1);
        assert_eq!(s.stats().events, 3);
    }

    #[test]
    fn stats_tiers_partition_events() {
        let net = ring_net();
        let mut s = session(&net);
        let events = [
            ServeEvent::Noop,
            ServeEvent::DemandScale {
                index: 0,
                factor: 2.0,
            },
            ServeEvent::DemandScale {
                index: 99,
                factor: 1.0,
            },
            ServeEvent::Capacity {
                edge: EdgeId(0),
                capacity: 20.0,
            },
            ServeEvent::Noop,
        ];
        for ev in &events {
            let _ = s.apply(ev);
        }
        let st = *s.stats();
        assert_eq!(st.events, events.len() as u64);
        assert_eq!(
            st.probe_only + st.local_reopts + st.escalations + st.errors,
            st.events,
            "every event lands in exactly one tier"
        );
    }

    #[test]
    fn parse_event_reads_every_kind() {
        let cases = [
            (r#"{"event":"noop"}"#, Some(ServeEvent::Noop)),
            (r#"{"event":"shutdown"}"#, None),
            (
                r#"{"event":"demand","index":3,"factor":1.5}"#,
                Some(ServeEvent::DemandScale {
                    index: 3,
                    factor: 1.5,
                }),
            ),
            (
                r#"{"event":"matrix","demands":[[0,2,3.5],[2,0,1]]}"#,
                Some(ServeEvent::DemandMatrix {
                    demands: vec![(NodeId(0), NodeId(2), 3.5), (NodeId(2), NodeId(0), 1.0)],
                }),
            ),
            (
                r#"{"event":"link_down","edge":4}"#,
                Some(ServeEvent::LinkDown { edge: EdgeId(4) }),
            ),
            (
                r#"{"event":"link_up","edge":4}"#,
                Some(ServeEvent::LinkUp { edge: EdgeId(4) }),
            ),
            (
                r#"{"event":"capacity","edge":1,"capacity":4000}"#,
                Some(ServeEvent::Capacity {
                    edge: EdgeId(1),
                    capacity: 4000.0,
                }),
            ),
        ];
        for (line, want) in cases {
            assert_eq!(parse_event(line), Ok(want), "{line}");
        }
    }

    #[test]
    fn parse_event_names_the_malformed_field() {
        for (line, reason) in [
            ("not json", "invalid JSON"),
            (r#"{"index":3}"#, "missing or non-string 'event' field"),
            (r#"{"event":7}"#, "missing or non-string 'event' field"),
            (r#"{"event":"mystery"}"#, "unknown event type 'mystery'"),
            (
                r#"{"event":"demand","index":-1,"factor":2}"#,
                "'index' must be a non-negative integer",
            ),
            (
                r#"{"event":"demand","index":0,"factor":"x"}"#,
                "'factor' must be a number",
            ),
            (
                r#"{"event":"link_down","edge":1.5}"#,
                "'edge' must be a non-negative integer",
            ),
            (
                r#"{"event":"link_up"}"#,
                "'edge' must be a non-negative integer",
            ),
            (
                r#"{"event":"capacity","edge":1,"capacity":null}"#,
                "'capacity' must be a number",
            ),
            (
                r#"{"event":"matrix","demands":7}"#,
                "'demands' must be an array",
            ),
            (
                r#"{"event":"matrix","demands":[[0,1,2],[0,1]]}"#,
                "demands[1] must be [src, dst, size]",
            ),
            (
                r#"{"event":"matrix","demands":[[0,-1,2]]}"#,
                "demands[0][1] must be a node id",
            ),
            (
                r#"{"event":"matrix","demands":[[0,1,"big"]]}"#,
                "demands[0][2] must be a number",
            ),
        ] {
            match parse_event(line) {
                Err(e) => assert!(e.contains(reason), "{line}: {e:?} lacks {reason:?}"),
                Ok(ev) => panic!("{line} parsed as {ev:?}"),
            }
        }
    }

    #[test]
    fn render_response_reports_error_on_error_replies_only() {
        let net = ring_net();
        let mut s = session(&net);
        let served = Json::parse(&render_response(&s.apply(&ServeEvent::Noop))).unwrap();
        assert_eq!(served["type"], "serve");
        assert_eq!(served["seq"].as_i64(), Some(1));
        assert_eq!(served["tier"], "none");
        assert_eq!(served["error"], Json::Null);
        let rejected = Json::parse(&render_response(&s.reject("bad line"))).unwrap();
        assert_eq!(rejected["seq"].as_i64(), Some(2));
        assert_eq!(rejected["tier"], "error");
        assert_eq!(rejected["error"], "bad line");
    }

    /// Runs `input` through [`serve_stream`] on a fresh session; returns the
    /// shutdown flag, the parsed response lines and the session's `seq`.
    fn stream(input: &[u8]) -> (bool, Vec<Json>, u64) {
        let net = ring_net();
        let mut s = session(&net);
        let mut out = Vec::new();
        let shutdown = serve_stream(&mut s, input, &mut out).expect("in-memory streams");
        let text = String::from_utf8(out).expect("responses are UTF-8");
        let lines = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        (shutdown, lines, s.seq())
    }

    #[test]
    fn serve_stream_skips_blank_lines_and_acks_shutdown_without_a_seq() {
        let noop = r#"{"event":"noop"}"#;
        let input = format!("\n{noop}\n   \n{noop}\n{{\"event\":\"shutdown\"}}\n{noop}\n");
        let (shutdown, lines, seq) = stream(input.as_bytes());
        assert!(shutdown);
        assert_eq!(lines.len(), 3, "two replies and the ack; nothing after it");
        assert_eq!(lines[0]["seq"].as_i64(), Some(1));
        assert_eq!(lines[1]["seq"].as_i64(), Some(2));
        assert_eq!(lines[2]["type"], "bye");
        assert_eq!(lines[2]["events"].as_i64(), Some(2));
        assert_eq!(seq, 2);

        let (shutdown, lines, _) = stream(format!("{noop}\n").as_bytes());
        assert!(!shutdown, "end of input is not a shutdown");
        assert_eq!(lines.len(), 1);
    }

    #[test]
    fn serve_stream_answers_oversized_and_non_utf8_lines_and_goes_on() {
        let noop = "{\"event\":\"noop\"}\n";
        let oversized = [&b"x".repeat(MAX_EVENT_LINE + 1)[..], b"\n", noop.as_bytes()].concat();
        let not_utf8 = [noop.as_bytes(), b"\xff\xfe\n", noop.as_bytes()].concat();
        for (input, bad, reason) in [
            (oversized, 0, "event line longer than"),
            (not_utf8, 1, "event line is not valid UTF-8"),
        ] {
            let (shutdown, lines, seq) = stream(&input);
            assert!(!shutdown);
            assert_eq!(seq, lines.len() as u64, "every line uses one seq");
            for (i, rec) in lines.iter().enumerate() {
                assert_eq!(rec["seq"].as_i64(), Some(i as i64 + 1));
                if i == bad {
                    assert_eq!(rec["tier"], "error");
                    assert!(rec["error"].as_str().unwrap().contains(reason), "{rec:?}");
                } else {
                    assert_eq!(rec["tier"], "none", "line {i} is served");
                }
            }
        }
    }

    /// Lines up to the cap come back whole, a longer one is discarded
    /// through its newline, and the next line reads normally.
    #[test]
    fn event_lines_past_the_cap_are_discarded() {
        let fits = "x".repeat(MAX_EVENT_LINE);
        let input = format!("{fits}\n{fits}y\nnext\ntail");
        let mut input = std::io::BufReader::new(input.as_bytes());
        let mut buf = Vec::new();
        assert!(read_event_line(&mut input, &mut buf).unwrap());
        assert_eq!(buf.len(), MAX_EVENT_LINE + 1, "the line and its newline");
        assert!(read_event_line(&mut input, &mut buf).unwrap());
        assert!(buf.is_empty(), "an oversized line leaves no bytes");
        assert!(read_event_line(&mut input, &mut buf).unwrap());
        assert_eq!(buf, b"next\n");
        assert!(read_event_line(&mut input, &mut buf).unwrap());
        assert_eq!(buf, b"tail", "a last line without a newline still counts");
        assert!(!read_event_line(&mut input, &mut buf).unwrap());
    }
}
