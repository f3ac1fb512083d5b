#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]
#                    [--record FILE]
#   benchmark/run.sh --print-spec        # BENCHMARK.json, rendered from src/spec.rs
#
# Without --workload every workload runs in turn, each in a process of
# its own (peak_rss_mb is a per-process high-water mark). The last line
# of a run's stdout is its result object; the metric table goes to stderr.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo resolves a relative CARGO_TARGET_DIR against the caller's directory.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2
bin="$target/release/otae-benchmark"

case "${1:-}" in
  --print-spec | --list-workloads | --help | -h) exec "$bin" "$@" ;;
esac

# Stamp the commit only when this checkout is itself a git repository.
# Keep freed memory inside the process, in one arena (glibc malloc; ignored
# elsewhere). The in-memory store backend allocates 8 MiB segments, which
# glibc would otherwise mmap and unmap one by one: every serve_store call
# then faulted in over 1 GB of fresh pages and its replays ran anywhere from
# 42 k to 105 k req/s within one run - the VM's page-fault path, not the
# program. With these set the warm-up call grows the heap once and the timed
# calls reuse it (127-141 k req/s). One arena, because each call's store
# writer is a new thread that would otherwise land in another arena and
# could not reuse what the last call freed (peak RSS then jumped by up to
# 2x in one run out of four). Same settings for every workload and commit.
export MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=17179869184
export MALLOC_TOP_PAD_=67108864 MALLOC_ARENA_MAX=1

commit=unknown
if [[ -e "$here/../.git" ]]; then
  commit="$(git -C "$here/.." rev-parse HEAD 2>/dev/null || echo unknown)"
fi
stamp=(--out-dir "$here/out" --commit "$commit" --rustc "$(rustc -V 2>/dev/null || echo unknown)")

for arg in "$@"; do
  if [[ "$arg" == --workload ]]; then
    exec "$bin" "$@" "${stamp[@]}"
  fi
done
status=0
for workload in $("$bin" --list-workloads); do
  "$bin" --workload "$workload" "$@" "${stamp[@]}" || status=$?
done
exit "$status"
