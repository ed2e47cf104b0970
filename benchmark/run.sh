#!/usr/bin/env bash
# Builds the benchmark and the `segrout` binary from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload serve-g50 --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; stdout carries only the benchmark's report,
# whose last line is the JSON result. `CARGO_TARGET_DIR` is honoured; both
# builds share it so the benchmark finds `segrout` next to itself.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml 1>&2
cargo build --release --quiet --offline --bin segrout 1>&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
