#!/usr/bin/env bash
# Repo quality gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Building the benchmark (below, and its smoke) may rewrite its frozen
# Cargo.lock; the committed one is put back on exit, pass or fail.
tmp="$(mktemp -d)"
cp benchmark/Cargo.lock "$tmp/benchmark-Cargo.lock"
trap 'cp "$tmp/benchmark-Cargo.lock" benchmark/Cargo.lock; rm -rf "$tmp"' EXIT

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> otae-lint (workspace invariants: determinism, hash, clock, panic-freedom, lock order)"
cargo run -q -p otae-lint

echo "==> cargo clippy --workspace (deny warnings; sole owner of the unbounded-channel and SipHash constructor bans in clippy.toml)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> benchmark build (the frozen benchmark names public API: a deletion it still needs fails here, not after the test run)"
# Same target and profile as benchmark/run.sh, so the smoke below reuses it.
cargo build --release --offline -q --manifest-path benchmark/Cargo.toml

echo "==> cargo doc --workspace --no-deps (deny warnings: a renamed or deleted item cannot leave a doc link dangling)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> cargo test --release -p otae-core -p otae-ml -p otae-store -p otae-device -p otae-cache -p otae-serve (the golden fingerprints, the pinned fits, the sketch model, the CRC kernel, the full latency-bucket sweep and the serve handoff's park and wake paths, as the benchmark compiles them)"
cargo test --release -p otae-core -p otae-ml -p otae-store -p otae-device -p otae-cache -p otae-serve -q

echo "==> results/ is current (otae-bench all in a temp dir; every CSV it writes must match results/, wall-clock columns aside)"
# Table::write_csv writes under the working directory, so the run lands in
# $tmp/results. The experiments run at their defaults: no OTAE_OBJECTS, no
# smoke mode.
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

echo "==> training bench smoke (daily_training, one pass: tree fits and binning alone, on random columns and a generated trace's largest daily window)"
cargo bench -q -p otae-bench --bench training_time -- --test > /dev/null

echo "==> trace bench smoke (trace_generation and criteria_inputs, one pass: the reaccess index, the criteria and the feature column of a 200 k-object trace)"
cargo bench -q -p otae-bench --bench trace_gen -- --test > /dev/null

if [[ "${OTAE_STORE_SMOKE:-0}" == "1" ]]; then
  echo "==> store smoke (segment-store criterion bench, one pass, with intake_handoff_1m: per-item push against 64-item push_block through one intake)"
  OTAE_BENCH_SMOKE=1 cargo bench -q -p otae-bench --bench store_ops -- --test
fi

echo "OK: fmt, otae-lint, clippy, benchmark build, rustdoc, tests, benchmark smoke, training and trace bench smokes all clean"
