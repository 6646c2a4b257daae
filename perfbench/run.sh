#!/usr/bin/env bash
# Builds the daemon and the benchmark from source, then runs one
# workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to $CARGO_TARGET_DIR (default .bench_build) and to
# stderr, so the result stays the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p echo-serve --bin echo_serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
