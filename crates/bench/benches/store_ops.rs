//! Segment-store operation latency: append batches at queue depths
//! {1, 16, 64}, indexed reads against a populated store, a full
//! compaction pass over a churned device, the recovery scan of a reopened
//! device, and the record checksum per kernel — Criterion's statistical
//! view next to `benchmark/`'s `store.*` per-layer metrics.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use otae_store::{
    crc32_with, Backend, Crc32Kernel, MemBackend, NoStoreFaults, SegmentStore, StoreConfig,
};
use std::sync::Arc;

const APPENDS_PER_ITER: usize = 1_000;
const KEYS: u64 = 256;

fn open_mem(queue_depth: usize, compact: bool, group_records: usize) -> SegmentStore {
    let cfg = StoreConfig {
        segment_bytes: 1 << 20,
        queue_depth,
        compact_trigger: if compact { Some(0.5) } else { None },
        group_records,
        ..StoreConfig::default()
    };
    let (store, _) = SegmentStore::open(Arc::new(MemBackend::new()), cfg, Arc::new(NoStoreFaults))
        .expect("open");
    store
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Put `n` deterministic records and flush — the measured unit of the
/// append benchmarks. Payloads are written in place through `put_with`,
/// the call `otae-serve`'s shards make.
fn append_batch(store: &SegmentStore, n: usize) {
    let mut state = 0x5EEDu64;
    for _ in 0..n {
        let r = splitmix(&mut state);
        let key = r % KEYS;
        store.put_with(key, 64 + (r % 512) as usize, |dst| dst.fill(r as u8)).expect("put");
    }
    store.flush().expect("flush");
}

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_append_1k");
    group.sample_size(10);
    for qd in [1usize, 16, 64] {
        group.bench_function(BenchmarkId::new("queue_depth", qd), |b| {
            // The vendored criterion stub has no iter_batched: a fresh
            // store per iteration is built inside the measured closure
            // (open cost is constant across queue depths, so relative
            // numbers still isolate the queue).
            b.iter(|| {
                let store = open_mem(qd, false, 128);
                append_batch(&store, APPENDS_PER_ITER);
                black_box(store)
            })
        });
    }
    // Group-commit axis at the deepest queue: group of 1 reproduces the
    // per-record write path, larger groups amortize write + CRC cost.
    for group_records in [1usize, 16, 128] {
        group.bench_function(BenchmarkId::new("group_records", group_records), |b| {
            b.iter(|| {
                let store = open_mem(64, false, group_records);
                append_batch(&store, APPENDS_PER_ITER);
                black_box(store)
            })
        });
    }
    group.finish();
}

fn bench_read(c: &mut Criterion) {
    let store = open_mem(64, false, 128);
    append_batch(&store, 10_000);
    let mut state = 0xBEEFu64;
    c.bench_function("store_get", |b| {
        b.iter(|| {
            let key = splitmix(&mut state) % KEYS;
            black_box(store.get(black_box(key)).expect("get"))
        })
    });
    // Allocation-free variant: one caller buffer reused across reads.
    let mut val = Vec::new();
    c.bench_function("store_get_into", |b| {
        b.iter(|| {
            let key = splitmix(&mut state) % KEYS;
            black_box(store.get_into(black_box(key), &mut val).expect("get_into"))
        })
    });
}

fn bench_compact(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_compact_pass");
    group.sample_size(10);
    group.bench_function("churned_10k", |b| {
        b.iter(|| {
            // Overwrite churn: ~40 versions per key leave most sealed
            // bytes dead, so a pass has real relocation work. Setup runs
            // inside the measured closure (no iter_batched in the
            // vendored criterion stub).
            let store = open_mem(64, false, 128);
            append_batch(&store, 10_000);
            black_box(store.compact().expect("compact"));
            black_box(store)
        })
    });
    group.finish();
}

/// Bytes of records on the device [`bench_recover`] reopens.
const RECOVER_BYTES: usize = 40 << 20;

/// `store_recover/40MiB_20KiB_records`: `open` over a `MemBackend`
/// holding ≈ 40 MiB of 16–24 KiB records (one put per key, so every record
/// is live) in 8 MiB segments, all sealed once reopened. Each iteration is
/// the recovery scan — every header, then every whole record through
/// the full decode on the scan's threads — plus the writer thread's start
/// and stop; the empty segment each `open` creates is deleted again, so
/// every iteration scans the same device.
fn bench_recover(c: &mut Criterion) {
    let backend = MemBackend::new();
    let cfg = StoreConfig { compact_trigger: None, ..StoreConfig::default() };
    let open = || {
        SegmentStore::open(Arc::new(backend.clone()), cfg, Arc::new(NoStoreFaults)).expect("open")
    };
    let (store, _) = open();
    let mut state = 0x2EC0u64;
    let (mut key, mut bytes) = (0u64, 0usize);
    while bytes < RECOVER_BYTES {
        let r = splitmix(&mut state);
        let len = (16 << 10) + (r % (8 << 10)) as usize;
        store.put_with(key, len, |dst| dst.fill(r as u8)).expect("put");
        (key, bytes) = (key + 1, bytes + len);
    }
    drop(store);
    let mut group = c.benchmark_group("store_recover");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(backend.total_bytes()));
    group.bench_function("40MiB_20KiB_records", |b| {
        b.iter(|| {
            let (store, report) = open();
            drop(store);
            let created = *backend.list().expect("list").last().expect("the active segment");
            backend.delete(created).expect("delete");
            black_box(report)
        })
    });
    group.finish();
}

/// `crc32/{kernel}/{size}`: each CRC32 kernel this CPU has over a hot
/// buffer of 2 KiB (a photo-sized record), 32 KiB and 8 MiB (a segment,
/// out of cache), in bytes per second. A kernel the CPU lacks is named and
/// skipped.
fn bench_crc32(c: &mut Criterion) {
    let mut state = 0xC4C3u64;
    let data: Vec<u8> = (0..8 << 20).map(|_| splitmix(&mut state) as u8).collect();
    let mut group = c.benchmark_group("crc32");
    for kernel in Crc32Kernel::ALL {
        if kernel.on_this_host() != kernel {
            println!("crc32/{}: skipped, this CPU lacks its features", kernel.name());
            continue;
        }
        for (label, len) in [("2KiB", 2 << 10), ("32KiB", 32 << 10), ("8MiB", 8 << 20)] {
            group.throughput(Throughput::Bytes(len as u64));
            let input = &data[..len];
            group.bench_function(BenchmarkId::new(kernel.name(), label), |b| {
                b.iter(|| crc32_with(kernel, black_box(input)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_append, bench_read, bench_compact, bench_recover, bench_crc32);
criterion_main!(benches);
