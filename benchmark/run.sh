#!/usr/bin/env bash
# The benchmark's one command: build the benchmark crate (offline, release,
# against the checkout's own crates and vendor/) and run it with the given
# arguments. See benchmark/README.md.
#
#   benchmark/run.sh [--seed N] [--workload W] [--seconds S] [--trace 0|1] [--quick] [--aa [N]]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# The driver sets CARGO_TARGET_DIR (relative to the checkout root); on a
# bare invocation build under benchmark/target.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

# Cargo's progress goes to stderr; stdout carries only the benchmark's own
# output, whose last line is the result object.
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/rss-benchmark" "$@"
