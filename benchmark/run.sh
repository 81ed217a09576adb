#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it from the repository
# root. With no arguments: `run` (the four workloads, every end-to-end
# metric). Otherwise the arguments go to the binary: `run`, `trace`,
# `compare A.json B.json`, `manifest`, or the one-run form BENCHMARK.json
# names (`--workload W --seed N --seconds S --trace 0|1`).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
[ $# -gt 0 ] || set -- run
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
