#!/usr/bin/env bash
# Builds the mmph daemon and the benchmark harness from source, then runs
# the harness. Run from the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh compare BASE_DIR CHANGE_DIR
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). Build
# logs go to stderr; standard output carries only the harness's report,
# whose last line is the run's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p mmph-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/mmph-perfbench"
if [ "${1:-}" = compare ]; then
  exec "$bin" "$@"
fi
exec "$bin" --mmph "$CARGO_TARGET_DIR/release/mmph" "$@"
