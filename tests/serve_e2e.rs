//! End-to-end protocol tests: spawn the real `segrout serve` binary over
//! stdio JSONL and check the wire contract — well-formed responses,
//! monotone sequence numbers, error replies (not process death) for
//! malformed events, hostile nesting and oversized lines, a shutdown ack,
//! and byte-identical response streams when the same event log is
//! replayed. Over `--listen`, a peer that drops its connection must not
//! take the daemon down.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

/// Runs `segrout serve` with the given extra args, feeding `input` on
/// stdin; returns (stdout, stderr, success).
fn run_serve(input: &str, extra: &[&str]) -> (String, String, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_segrout"));
    cmd.arg("serve")
        .args(["--topology", "Abilene", "--restarts", "0", "--passes", "2"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("binary spawns");
    child
        .stdin
        .take()
        .expect("piped")
        .write_all(input.as_bytes())
        .expect("stdin accepts the event log");
    let out = child.wait_with_output().expect("binary exits");
    (
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
        out.status.success(),
    )
}

const EVENT_LOG: &str = r#"{"event":"noop"}
{"event":"demand","index":3,"factor":1.7}
{"event":"link_down","edge":4}
{"event":"capacity","edge":1,"capacity":4000}
not json at all
{"event":"demand","index":999999,"factor":2.0}
{"event":"mystery"}
{"event":"link_up","edge":4}
{"event":"matrix","demands":[[0,5,100.0],[5,0,50.0],[2,9,25.0]]}
{"event":"shutdown"}
"#;

#[test]
fn protocol_round_trip_is_well_formed() {
    let (stdout, stderr, ok) = run_serve(EVENT_LOG, &[]);
    assert!(ok, "serve must exit cleanly; stderr:\n{stderr}");

    let lines: Vec<&str> = stdout.lines().collect();
    // One response per input line: 9 events + the shutdown ack.
    assert_eq!(lines.len(), 10, "stdout:\n{stdout}");

    for (i, line) in lines.iter().take(9).enumerate() {
        let rec = segrout::obs::Json::parse(line)
            .unwrap_or_else(|e| panic!("line {i} is not JSON ({e}): {line}"));
        assert_eq!(rec["type"].as_str(), Some("serve"), "line {i}");
        assert_eq!(
            rec["seq"].as_i64(),
            Some(i as i64 + 1),
            "seq must be monotone through errors (line {i})"
        );
        let tier = rec["tier"].as_str().expect("tier present");
        assert!(
            ["none", "local", "escalate", "error"].contains(&tier),
            "line {i}: unknown tier {tier}"
        );
        let mlu = rec["mlu"].as_f64().expect("mlu present");
        assert!(mlu.is_finite() && mlu > 0.0, "line {i}: mlu {mlu}");
        assert!(rec["phi"].as_f64().is_some(), "line {i}: phi");
        let churn = rec["churn"].as_i64().expect("churn present");
        let diffs = rec["weight_diffs"].as_arr().expect("weight_diffs present");
        assert_eq!(churn as usize, diffs.len(), "line {i}: churn accounting");
        // Responses must not leak wall-clock times into the protocol.
        assert!(
            rec["latency_ms"].as_f64().is_none(),
            "line {i}: latency is bookkeeping, not protocol"
        );
    }

    // The three malformed lines (bad JSON, out-of-range index, unknown
    // event) get error replies in place.
    for (i, want) in [
        (4, "invalid JSON"),
        (5, "demand index"),
        (6, "unknown event type"),
    ] {
        let rec = segrout::obs::Json::parse(lines[i]).expect("parsed above");
        assert_eq!(rec["tier"].as_str(), Some("error"), "line {i}");
        let err = rec["error"].as_str().expect("error reason present");
        assert!(
            err.contains(want),
            "line {i}: reason {err:?} missing {want:?}"
        );
    }

    // Shutdown control line gets the ack, not a serve response.
    let bye = segrout::obs::Json::parse(lines[9]).expect("ack is JSON");
    assert_eq!(bye["type"].as_str(), Some("bye"));
    assert_eq!(bye["events"].as_i64(), Some(9));
}

#[test]
fn replaying_the_same_event_log_is_byte_identical() {
    let (first, _, ok1) = run_serve(EVENT_LOG, &[]);
    let (second, _, ok2) = run_serve(EVENT_LOG, &[]);
    assert!(ok1 && ok2);
    assert_eq!(first, second, "replay must be byte-identical");
    // And at 4 worker threads as well.
    let (threaded, _, ok3) = run_serve(EVENT_LOG, &["--threads", "4"]);
    assert!(ok3);
    assert_eq!(
        first, threaded,
        "replay must be byte-identical at any thread count"
    );
}

#[test]
fn event_file_replay_matches_stdin() {
    let dir = std::env::temp_dir().join(format!("segrout_serve_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("events.jsonl");
    std::fs::write(&path, EVENT_LOG).expect("event log written");
    let (stdin_out, _, ok1) = run_serve(EVENT_LOG, &[]);
    let (file_out, _, ok2) = run_serve("", &["--events", path.to_str().expect("utf-8 path")]);
    assert!(ok1 && ok2);
    assert_eq!(stdin_out, file_out, "--events must match the stdin stream");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Feeds `hostile` then a well-formed event and checks the daemon answers
/// both in order: an error reply naming `reason` at seq 1, then the event
/// at seq 2.
fn assert_rejected_then_served(hostile: &str, reason: &str) {
    let input = format!("{hostile}\n{{\"event\":\"demand\",\"index\":3,\"factor\":1.5}}\n");
    let (stdout, stderr, ok) = run_serve(&input, &[]);
    assert!(ok, "serve must exit cleanly; stderr:\n{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "stdout:\n{stdout}");
    let rec = |i: usize| segrout::obs::Json::parse(lines[i]).expect("reply is JSON");
    let (rejected, served) = (rec(0), rec(1));
    assert_eq!(rejected["tier"].as_str(), Some("error"));
    let err = rejected["error"].as_str().expect("error reason present");
    assert!(err.contains(reason), "reason {err:?} missing {reason:?}");
    assert_eq!(rejected["seq"].as_i64(), Some(1));
    assert_eq!(
        served["seq"].as_i64(),
        Some(2),
        "seq advances past the error"
    );
    assert_ne!(served["tier"].as_str(), Some("error"), "{}", lines[1]);
}

#[test]
fn deeply_nested_line_gets_an_error_reply() {
    assert_rejected_then_served(&"[".repeat(300_000), "nesting deeper than");
}

#[test]
fn oversized_line_gets_an_error_reply() {
    // 32 MiB before the newline: twice the daemon's line cap.
    assert_rejected_then_served(&"x".repeat(32 << 20), "event line longer than");
}

#[test]
fn eof_without_shutdown_exits_cleanly() {
    let (stdout, stderr, ok) = run_serve("{\"event\":\"noop\"}\n", &[]);
    assert!(ok, "EOF is a clean exit; stderr:\n{stderr}");
    assert_eq!(stdout.lines().count(), 1);
    assert!(
        stderr.contains("1 event(s)"),
        "summary goes to stderr:\n{stderr}"
    );
}

/// Kills the daemon if the test fails before it shuts down on its own.
struct KillOnDrop(std::process::Child);
impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn tcp_daemon_survives_a_peer_that_hangs_up() {
    let child = Command::new(env!("CARGO_BIN_EXE_segrout"))
        .arg("serve")
        .args(["--topology", "Abilene", "--restarts", "0", "--passes", "2"])
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut daemon = KillOnDrop(child);
    let mut stderr = BufReader::new(daemon.0.stderr.take().expect("piped"));
    let addr = loop {
        let mut line = String::new();
        let read = stderr.read_line(&mut line).expect("stderr readable");
        assert!(read > 0, "daemon exited before listening");
        if let Some(addr) = line.trim().strip_prefix("serve: listening on ") {
            break addr.to_string();
        }
    };
    // Drain the rest of stderr so the daemon never blocks on a full pipe.
    let log = std::thread::spawn(move || {
        let mut rest = String::new();
        stderr.read_to_string(&mut rest).expect("stderr readable");
        rest
    });

    // First peer: a burst of events, then it hangs up without reading a
    // single reply, so the daemon's writes meet a closed socket.
    const BURST: usize = 200;
    {
        let mut peer = TcpStream::connect(&addr).expect("first peer connects");
        let burst = "{\"event\":\"noop\"}\n".repeat(BURST);
        peer.write_all(burst.as_bytes()).expect("burst sent");
    }

    // Second peer: its replies continue the sequence of the events the
    // session applied, and shutdown is acknowledged with the total.
    let peer = TcpStream::connect(&addr).expect("daemon still accepts");
    peer.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout set");
    let mut writer = peer.try_clone().expect("socket clones");
    writer
        .write_all(b"{\"event\":\"noop\"}\n{\"event\":\"demand\",\"index\":3,\"factor\":1.5}\n{\"event\":\"shutdown\"}\n")
        .expect("events sent");
    let lines: Vec<String> = BufReader::new(peer)
        .lines()
        .collect::<Result<_, _>>()
        .expect("replies readable");
    assert_eq!(lines.len(), 3, "two replies and the ack: {lines:?}");
    let seq = |i: usize| {
        let rec = segrout::obs::Json::parse(&lines[i]).expect("reply is JSON");
        assert_eq!(rec["type"].as_str(), Some("serve"), "{}", lines[i]);
        rec["seq"].as_i64().expect("seq present")
    };
    let first = seq(0);
    assert!(
        (1..=BURST as i64 + 1).contains(&first),
        "seq {first} must follow the first peer's applied events"
    );
    assert_eq!(seq(1), first + 1, "seq must stay monotone");
    let bye = segrout::obs::Json::parse(&lines[2]).expect("ack is JSON");
    assert_eq!(bye["type"].as_str(), Some("bye"));
    assert_eq!(bye["events"].as_i64(), Some(first + 1));

    let status = daemon.0.wait().expect("daemon exits");
    let log = log.join().expect("stderr drained");
    assert!(status.success(), "daemon must exit cleanly:\n{log}");
    assert!(
        log.contains("serve: connection dropped"),
        "the hang-up must be logged, not fatal:\n{log}"
    );
}
