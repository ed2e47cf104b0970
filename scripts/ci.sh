#!/usr/bin/env bash
# Local CI gate: formatting, lints, rustdoc links, the full test suite
# under both a serial and a parallel thread count, the differential
# harness, the fuzz legs, bench smoke runs, and the benchmark's
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

# The LP engine differential suite (revised simplex vs reference tableau)
# in isolation — it is part of the workspace runs above, but this leg
# keeps a named gate on solver agreement even if test filters change.
echo "==> LP differential suite (revised vs tableau)"
cargo test -q -p segrout-lp --test differential

# Smoke-run the B&B node-throughput record (full numbers live in
# EXPERIMENTS.md; the smoke run checks the bench path and that both
# engines still agree on the benchmark MILPs).
echo "==> bench_simplex (writes BENCH_simplex_fast.json)"
SEGROUT_FAST=1 ./target/release/bench_simplex

# Bounded differential-fuzz smoke leg: a fixed seed keeps it
# deterministic, --fast skips the MCF lower-bound check so the leg stays
# around half a minute. Any failure writes a shrunk reproducer that
# belongs in tests/corpus/.
echo "==> segrout fuzz smoke (seed 42, 60 cases, --fast)"
cargo build --release -q
./target/release/segrout fuzz --seed 42 --cases 60 --fast --corpus tests/corpus >/dev/null

# Replay every shrunk reproducer in tests/corpus/ through the full
# differential check (also part of the workspace runs above; the named
# leg keeps the corpus gate visible even if test filters change).
echo "==> corpus replay"
cargo test -q --test corpus_replay

# Differential harness (tests/differential/mod.rs, run by the six suites
# below): incremental probes, edge-disable probes and sweeps, the serving
# session, the optimizers and the Dijkstra/DAG engines must all match the
# from-scratch oracle bit for bit, and reproduce the same bit trace at 1,
# 2, 4 and 8 threads (the harness sets its own thread counts; also part of
# the workspace runs above, the named leg keeps the gate visible even if
# test filters change).
echo "==> differential harness"
cargo test -q --test incremental_differential --test hotloop_differential \
    --test failure_differential --test robust_differential \
    --test serve_differential --test parallel_determinism

# Robust multi-matrix and serving properties under both the serial and the
# parallel pool.
echo "==> robust and serve property suites (SEGROUT_THREADS=1 and =4)"
SEGROUT_THREADS=1 cargo test -q --test robust_properties --test serve_counters
SEGROUT_THREADS=4 cargo test -q --test robust_properties --test serve_counters

# Multi-matrix fuzz smoke: a different seed band from the single-matrix
# leg above, biased toward scenarios carrying 2-6 traffic matrices so the
# robust validator, the single-matrix-reduction differential and the
# robust MILP oracle all see traffic on every CI run.
echo "==> segrout fuzz smoke, multi-matrix band (seed 1042, 60 cases, --fast)"
SEGROUT_THREADS=1 ./target/release/segrout fuzz --seed 1042 --cases 60 --fast \
    --corpus tests/corpus >/dev/null
SEGROUT_THREADS=4 ./target/release/segrout fuzz --seed 1042 --cases 60 --fast \
    --corpus tests/corpus >/dev/null

# Price-of-robustness record (full numbers live in EXPERIMENTS.md; the
# smoke run checks the bench path and the robust-never-loses assertion).
echo "==> bench_robust (writes BENCH_robust_fast.json)"
SEGROUT_FAST=1 ./target/release/bench_robust

# Failure-sweep throughput record (full numbers live in EXPERIMENTS.md;
# the smoke run checks the bench path, the disconnect classification and
# that the record lands on disk).
echo "==> bench_failsweep (writes BENCH_failsweep_fast.json)"
SEGROUT_FAST=1 ./target/release/bench_failsweep
test -s BENCH_failsweep_fast.json || { echo "BENCH_failsweep_fast.json missing"; exit 1; }

# Flight-recorder leg: a traced Germany50 optimization must produce a
# parseable convergence trace, a schema-1 run artifact, a collapsed-stack
# profile, and telemetry free of undocumented metric names; the artifact
# must compare clean against itself through `segrout report`.
echo "==> flight recorder (traced Germany50 run + report + catalog drift check)"
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

# Wire-protocol gate: the real binary over stdio JSONL — well-formed
# responses, monotone sequence numbers, error replies for malformed,
# deeply nested and oversized events, and byte-identical double replay.
echo "==> serve e2e suite (real binary over stdio)"
cargo test -q --test serve_e2e

# Serve-event fuzz smoke: a seed band biased toward cases carrying random
# event streams (no-ops, link flaps, disconnecting failures, out-of-range
# scalings) so the online-serving differential sees traffic on every run.
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
