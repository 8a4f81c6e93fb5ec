#!/usr/bin/env bash
# Builds the release `bestk` binary and the benchmark from source, then runs
# the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload serve_rw --seed 1 --seconds 40 --trace 0
#
# Run it from the root of a checkout. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); scratch files go under it too.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p bestk-cli --bin bestk >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --bestk "$CARGO_TARGET_DIR/release/bestk" \
    --tmp "$CARGO_TARGET_DIR/perfbench" \
    --rustc "$(rustc --version)" \
    "$@"
