#!/usr/bin/env bash
# Builds `repro` and `perf` into one target directory (perf finds repro
# next to its own executable), then runs perf with the given arguments.
#
#   bash perf/run.sh [--seed S] [--reps N] [--seconds T] [--trace 0|1] [--workload NAME]...
#
# The target directory is $CARGO_TARGET_DIR, or target/ at the
# repository root. Build output goes to stderr; perf's report, ending
# in one JSON line, goes to stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --offline --release --quiet --manifest-path "$root/Cargo.toml" -p experiments --bin repro >&2
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perf" "$@"
