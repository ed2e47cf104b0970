#!/usr/bin/env bash
# Local CI gate: formatting, lints, rustdoc links, the full test suite
# under both a serial and a parallel thread count, the differential
# suites, the fuzz bands, bench smoke runs, and the benchmark's
# per-workload oracle checks.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate: an intra-doc link to a renamed, removed or private item,
# or an ambiguous one, fails the run instead of rotting silently.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The pool's determinism contract means the thread count must be
# invisible to every test: run the whole suite serially and again with
# the pool active.
echo "==> cargo test -q --workspace  (SEGROUT_THREADS=1)"
SEGROUT_THREADS=1 cargo test -q --workspace

echo "==> cargo test -q --workspace  (SEGROUT_THREADS=4)"
SEGROUT_THREADS=4 cargo test -q --workspace

# The bench binaries the smoke legs below run.
echo "==> cargo build --release -p segrout-bench"
cargo build --release -q -p segrout-bench

# The solver gates in isolation — part of the workspace runs above, but
# this leg keeps them named even if test filters change: the LP
# differential suite (the revised simplex against the dense tableau of
# segrout::check::lp_oracle), the LP and MILP crates' own tests, and the
# branch-and-bound pins (status, objective, bound and choices of WPO,
# Joint and LWO searches, bit for bit).
echo "==> solver gates (LP differential suite, lp and milp crates, B&B pins)"
cargo test -q --test lp_differential --test milp_pins
cargo test -q -p segrout-lp -p segrout-milp

# Bounded differential-fuzz smoke leg: every generated case runs the same
# differential kinds as the suites below (segrout::check::differential),
# the routing invariants first, each checked at 1 thread and rerun at the
# case's own thread count, then the MCF lower bound and, on tiny instances,
# the MILP oracle. A fixed seed keeps it deterministic. This band runs the
# MCF bound, which --fast skips in the two bands below. Any failure writes
# a shrunk reproducer that belongs in tests/corpus/. The summary line kept
# from the output reports the band's wall time and check count.
echo "==> segrout fuzz smoke (seed 42, 60 cases)"
cargo build --release -q
./target/release/segrout fuzz --seed 42 --cases 60 --corpus tests/corpus | grep 'cases in'

# Replay every shrunk reproducer in tests/corpus/ through the full
# differential check (also part of the workspace runs above; the named
# leg keeps the corpus gate visible even if test filters change).
echo "==> corpus replay"
cargo test -q --test corpus_replay

# Differential suites: the kinds of segrout::check::differential on the
# fixed case table of tests/differential/mod.rs. Incremental probes,
# edge-disable probes and sweeps, the serving session, the optimizers and
# the Dijkstra/DAG engines must all match the from-scratch oracle bit for
# bit, and reproduce the same bit trace at 1, 2, 4 and 8 threads (the
# suites set their own thread counts; also part of the workspace runs
# above, the named leg keeps the gate visible even if test filters
# change).
echo "==> differential suites"
cargo test -q --test incremental_differential --test hotloop_differential \
    --test failure_differential --test robust_differential \
    --test serve_differential --test parallel_determinism

# Robust multi-matrix and serving properties under both the serial and the
# parallel pool.
echo "==> robust and serve property suites (SEGROUT_THREADS=1 and =4)"
SEGROUT_THREADS=1 cargo test -q --test robust_properties --test serve_counters
SEGROUT_THREADS=4 cargo test -q --test robust_properties --test serve_counters

# Multi-matrix fuzz smoke: a different seed band from the leg above, so
# the `reductions` and `robust_joint` kinds and the robust MILP oracle see
# more traffic on every CI run. Each case pins its own thread count and
# reruns every kind at it, so the ambient SEGROUT_THREADS never reaches a
# case and one run covers both. --fast skips the MCF bound, which the
# seed-42 band runs.
echo "==> segrout fuzz smoke, multi-matrix band (seed 1042, 60 cases, --fast)"
./target/release/segrout fuzz --seed 1042 --cases 60 --fast \
    --corpus tests/corpus >/dev/null

# Price-of-robustness record (full numbers live in EXPERIMENTS.md; the
# smoke run checks the bench path and the robust-never-loses assertion).
echo "==> bench_robust (writes BENCH_robust_fast.json)"
SEGROUT_FAST=1 ./target/release/bench_robust

# Failure-sweep throughput record (full numbers live in EXPERIMENTS.md;
# the smoke run sweeps Abilene's single and double failures, so it checks
# the bench path, the disconnect classification, the multi-link repair and
# that the record and its run artifact land on disk, the artifact naming
# the seed the bench drew its demands from).
echo "==> bench_failsweep (writes BENCH_failsweep_fast.json)"
SEGROUT_FAST=1 ./target/release/bench_failsweep
test -s BENCH_failsweep_fast.json || { echo "BENCH_failsweep_fast.json missing"; exit 1; }
python3 - <<'EOF'
import json
rec = json.load(open("BENCH_failsweep_fast.json"))
assert rec["doubles"] and rec["patterns"] == 120, rec
art = json.load(open("BENCH_failsweep_fast.run.json"))
assert art["command"] == "BENCH_failsweep_fast", art["command"]
assert art["seed"] == 808, f"run artifact records seed {art['seed']}, not 808"
print(f"bench_failsweep OK: {rec['patterns']} patterns, seed {art['seed']}")
EOF

# Flight-recorder leg: a traced Germany50 optimization must produce a
# parseable convergence trace, a schema-1 run artifact, a collapsed-stack
# profile, and telemetry free of undocumented metric names; the artifact
# must compare clean against itself through `segrout report`. A sweep and
# a serve stream get the same catalog drift check.
echo "==> flight recorder (traced Germany50 run + report + catalog drift checks)"
FR_DIR=$(mktemp -d)
trap 'rm -rf "$FR_DIR"' EXIT
./target/release/segrout optimize --topology Germany50 --algorithm heurospf \
    --seed 42 --restarts 0 --passes 3 \
    --trace-out "$FR_DIR/trace.jsonl" \
    --profile-out "$FR_DIR/profile.txt" \
    --run-out "$FR_DIR/run.json" \
    --metrics-out "$FR_DIR/metrics.jsonl" >/dev/null
python3 - "$FR_DIR" <<'EOF'
import json, sys, os
d = sys.argv[1]
# Trace: valid JSONL, dense seq, monotone best MLU.
last, n = float("inf"), 0
for i, line in enumerate(open(os.path.join(d, "trace.jsonl"))):
    p = json.loads(line)
    assert p["type"] == "trace" and p["seq"] == i, f"trace line {i+1}: {p}"
    assert p["mlu"] <= last + 1e-12, f"best MLU regressed at line {i+1}"
    last, n = p["mlu"], n + 1
assert n >= 2, "trace too short"
# Run artifact: schema 1 with provenance and metrics.
art = json.load(open(os.path.join(d, "run.json")))
assert art["type"] == "run" and art["schema"] == 1, "bad run artifact header"
for key in ("command", "seed", "wall_ms", "provenance", "metrics", "trace"):
    assert key in art, f"run.json lacks {key}"
# It records what ran: the seed and the resolved names.
assert art["seed"] == 42, art["seed"]
assert art["topology"] == "Germany50" and art["algorithm"] == "heurospf", art
assert art["provenance"]["host_cpus"] >= 1
assert len(art["trace"]) == n, "artifact trace disagrees with trace.jsonl"
# Collapsed stacks: "path;frames <integer self weight>" per line.
stacks = open(os.path.join(d, "profile.txt")).read().strip().splitlines()
assert stacks, "empty collapsed-stack profile"
for line in stacks:
    path, weight = line.rsplit(" ", 1)
    assert path and int(weight) >= 0, f"bad stack line: {line}"
assert any("heurospf" in line for line in stacks), "heurospf frame missing"
print(f"flight recorder OK: {n} trace points, {len(stacks)} stack lines")
EOF
./target/release/segrout report "$FR_DIR/run.json" "$FR_DIR/run.json"
./target/release/segrout catalog --check "$FR_DIR/metrics.jsonl"
# The optimize run never emits the sweep.* and serve.* families: drift-check
# a single+double Abilene sweep and a serve stream (link down, demand, link
# up, capacity, a second link down and a heavy matrix that escalates,
# shutdown) too. The sweep's run artifact must record the default seed it
# ran with and the topology.
./target/release/segrout sweep --topology Abilene --doubles \
    --metrics-out "$FR_DIR/sweep-metrics.jsonl" \
    --run-out "$FR_DIR/sweep-run.json" >/dev/null
./target/release/segrout catalog --check "$FR_DIR/sweep-metrics.jsonl"
python3 - "$FR_DIR/sweep-run.json" <<'EOF'
import json, sys
art = json.load(open(sys.argv[1]))
assert art["command"] == "sweep", art["command"]
assert art["seed"] == 1 and art["topology"] == "Abilene", art
print("sweep run artifact OK")
EOF
printf '%s\n' '{"event":"link_down","edge":2}' \
    '{"event":"demand","index":0,"factor":1.5}' '{"event":"link_up","edge":2}' \
    '{"event":"capacity","edge":1,"capacity":5000}' '{"event":"link_down","edge":4}' \
    '{"event":"matrix","demands":[[0,5,9000],[5,0,4000],[2,9,2500]]}' \
    '{"event":"shutdown"}' >"$FR_DIR/events.jsonl"
./target/release/segrout serve --topology Abilene --events "$FR_DIR/events.jsonl" \
    --metrics-out "$FR_DIR/serve-metrics.jsonl" \
    --trace-out "$FR_DIR/serve-trace.jsonl" >"$FR_DIR/serve-replies.jsonl" 2>/dev/null
./target/release/segrout catalog --check "$FR_DIR/serve-metrics.jsonl"
# The re-solves keep their own trace names through the shared descent: each
# local or escalate reply is one reopt.start -> reopt.accept* -> reopt.done
# run whose iter (1 + probes made) rises to the reply's evaluations and
# whose MLU never rises (the default objective is MLU first).
python3 - "$FR_DIR" <<'EOF'
import json, sys, os
d = sys.argv[1]
points = [json.loads(l) for l in open(os.path.join(d, "serve-trace.jsonl"))]
runs, run = [], None
for p in (p for p in points if p["event"].startswith("reopt.")):
    kind = p["event"].split(".", 1)[1]
    if kind == "start":
        assert run is None, f"reopt.start inside a run: {p}"
        run = [p]
        continue
    assert run is not None, f"{p['event']} outside a run"
    last = run[-1]
    assert p["iter"] > last["iter"] or (kind == "done" and p["iter"] == last["iter"]), \
        f"iter does not rise: {last} -> {p}"
    assert p["mlu"] <= last["mlu"] * (1 + 1e-9) + 1e-9, f"MLU rose: {last} -> {p}"
    run.append(p)
    if kind == "done":
        runs.append(run)
        run = None
    else:
        assert kind == "accept", f"unknown reopt point {p['event']}"
assert run is None, "unterminated reopt run"
replies = [json.loads(l) for l in open(os.path.join(d, "serve-replies.jsonl"))]
solved = [r for r in replies if r.get("tier") in ("local", "escalate")]
assert {r["tier"] for r in solved} == {"local", "escalate"}, "both tiers must run"
assert len(runs) == len(solved), f"{len(runs)} reopt runs for {len(solved)} re-solves"
for run, r in zip(runs, solved):
    assert run[-1]["iter"] == r["evaluations"], f"seq {r['seq']}: {run[-1]} vs {r}"
print(f"serve trace OK: {len(runs)} reopt runs, {sum(len(r) - 2 for r in runs)} accepts")
EOF

# Wire-protocol gate: the real binary over stdio JSONL — well-formed
# responses, monotone sequence numbers, error replies for malformed,
# deeply nested and oversized events, and byte-identical double replay.
echo "==> serve e2e suite (real binary over stdio)"
cargo test -q --test serve_e2e

# Serve-event fuzz smoke: a third seed band, so the `serve` kind sees more
# random event streams (no-ops, link flaps, disconnecting failures,
# out-of-range scalings) on every run.
echo "==> segrout fuzz smoke, serve-event band (seed 2042, 60 cases, --fast)"
./target/release/segrout fuzz --seed 2042 --cases 60 --fast \
    --corpus tests/corpus >/dev/null

# Event-loop latency record (full numbers live in EXPERIMENTS.md; the
# smoke run checks the bench path, the tier-partition asserts, and a
# deliberately generous p99 bound as a catastrophic-regression tripwire).
echo "==> bench_serve (writes BENCH_serve_fast.json)"
SEGROUT_FAST=1 ./target/release/bench_serve
test -s BENCH_serve_fast.json || { echo "BENCH_serve_fast.json missing"; exit 1; }
python3 - <<'EOF'
import json
rec = json.load(open("BENCH_serve_fast.json"))
assert rec["events"] >= 60, rec["events"]
assert rec["probe_only"] + rec["local_reopts"] + rec["escalations"] + rec["errors"] == rec["events"]
# Generous: the fast trace's p99 sits well under 10 ms on one core.
assert rec["latency_p99_ms"] < 250.0, f"serve p99 regressed: {rec['latency_p99_ms']} ms"
print(f"bench_serve OK: p50 {rec['latency_p50_ms']:.3f} ms, p99 {rec['latency_p99_ms']:.3f} ms")
EOF

# Benchmark oracle gate: the benchmark's unit tests, then one smoke run of
# every workload (about half a second each). A smoke run exits 1 when any
# output fails its from-scratch `Router` check, so these oracles run on
# every CI pass, not only when someone measures.
echo "==> benchmark unit tests and per-workload oracle smoke runs"
cargo test -q --manifest-path benchmark/Cargo.toml
for w in offline-g50 serve-g50 sweep-g50 scale-geo400 exact-abilene; do
    bash benchmark/run.sh --workload "$w" --seed 1 --smoke | tail -n 2
done

echo "CI OK"
