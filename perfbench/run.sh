#!/usr/bin/env bash
# Builds the `ftune` worker binary and the benchmark from this checkout,
# then runs one benchmark measurement, e.g.
#
#   bash perfbench/run.sh --workload paper-tune --seed 1 --seconds 20 --trace 0
#
# Build products go to $CARGO_TARGET_DIR (default `.bench_build`), and
# the daemon workload's temporary WAL directories live under it too.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin ftune >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --ftune "$CARGO_TARGET_DIR/release/ftune" \
    --work-dir "$CARGO_TARGET_DIR" \
    --refs perfbench/references.txt
