#!/usr/bin/env bash
# Builds the program under test and the benchmark from source, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload repro-predict --seed 1 --seconds 10 --trace 0
#
# Both builds share one target directory so the benchmark finds the
# `simulate` binary next to its own executable.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p cap-harness --bin simulate >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
