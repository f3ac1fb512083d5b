#!/usr/bin/env bash
# Repo quality gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> otae-lint (workspace invariants: determinism, hash, clock, panic-freedom, lock order)"
cargo run -q -p otae-lint

echo "==> cargo clippy --workspace (deny warnings; sole owner of the unbounded-channel and SipHash constructor bans in clippy.toml)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (deny warnings: a renamed or deleted item cannot leave a doc link dangling)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> cargo test --release -p otae-core -p otae-ml -p otae-store -p otae-device -p otae-cache (the golden fingerprints, the pinned fits, the sketch model, the CRC kernel and the full latency-bucket sweep, as the benchmark compiles them)"
cargo test --release -p otae-core -p otae-ml -p otae-store -p otae-device -p otae-cache -q

echo "==> results/ is current (otae-bench all in a temp dir; every CSV it writes must match results/, wall-clock columns aside)"
# Table::write_csv writes under the working directory, so the run lands in
# $tmp/results. The experiments run at their defaults: no OTAE_OBJECTS, no
# smoke mode.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
root="$PWD"
(cd "$tmp" && env -u OTAE_OBJECTS -u OTAE_BENCH_SMOKE cargo run --manifest-path "$root/Cargo.toml" --release -q -p otae-bench -- all > /dev/null)
cargo run --release -q -p otae-bench -- diff "$tmp/results" results

echo "==> benchmark smoke (all five workloads, tiny inputs; its output checks gate the run)"
# serve == pipeline fingerprint on every replay, conservation, clean FaultReport,
# store reconciliation: any failed check makes run.sh exit non-zero.
benchmark/run.sh --smoke > /dev/null

if [[ "${OTAE_HARNESS_SMOKE:-0}" == "1" ]]; then
  echo "==> harness smoke (differential oracle + 3 fault plans)"
  cargo run --release -q -p otae-harness -- --smoke
fi

if [[ "${OTAE_POLICY_SMOKE:-0}" == "1" ]]; then
  echo "==> policy smoke (admission zoo x eviction x capacity mini-grid)"
  OTAE_BENCH_SMOKE=1 OTAE_OBJECTS=3000 cargo run --release -q -p otae-bench -- policy_sweep
fi

echo "==> training bench smoke (daily_training, one pass: random columns and a generated trace's largest daily window)"
cargo bench -q -p otae-bench --bench training_time -- --test > /dev/null

if [[ "${OTAE_STORE_SMOKE:-0}" == "1" ]]; then
  echo "==> store smoke (segment-store criterion bench, one pass)"
  OTAE_BENCH_SMOKE=1 cargo bench -q -p otae-bench --bench store_ops -- --test
fi

echo "OK: fmt, otae-lint, clippy, rustdoc, tests, benchmark smoke and training bench smoke all clean"
