#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#   bash perfbench/run.sh --workload fleet-ingest --seed 1 --seconds 20 --trace 0
# Run from the root of the repository. The build goes to $CARGO_TARGET_DIR
# (default .bench_build); build output goes to stderr, so the last line of
# stdout is the result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
