#!/usr/bin/env bash
# Compare two sets of run records, or print the spread of one:
#
#   benchmark/run.sh --record A.jsonl          # one set: every workload once
#   benchmark/run.sh --record B.jsonl          # ... on the other commit
#   benchmark/compare.sh A.jsonl B.jsonl       # per-metric delta against its bound
#   benchmark/compare.sh A.jsonl               # run-to-run spread against a third of the bound
#
# Exits 1 when a metric regressed beyond its bound (or a lone set's
# spread exceeds it).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/otae-benchmark" compare "$@"
