//! Criterion microbenchmarks of the semantic index: insert throughput,
//! clustered range scans, and label skip-scans, for the in-memory index,
//! with the insert path also measured on the persistent tiered index.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use tasm_index::{MemoryIndex, SemanticIndex, TieredIndex};
use tasm_video::Rect;

fn populate(idx: &mut dyn SemanticIndex, frames: u32, boxes_per_frame: u32) {
    for f in 0..frames {
        for i in 0..boxes_per_frame {
            let label = if i % 2 == 0 { "car" } else { "person" };
            idx.add_metadata(0, label, f, Rect::new(10 * i, 20, 48, 32))
                .unwrap();
        }
    }
}

fn insert_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("index/insert");
    g.sample_size(10);
    g.throughput(Throughput::Elements(3000 * 4));
    g.bench_function("memory_12k_detections", |b| {
        b.iter_batched(
            MemoryIndex::in_memory,
            |mut idx| populate(&mut idx, 3000, 4),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("tiered_12k_detections", |b| {
        let dir = std::env::temp_dir().join(format!("tasm-bench-idx-{}", std::process::id()));
        b.iter_batched(
            || {
                std::fs::remove_dir_all(&dir).ok();
                TieredIndex::open(&dir).unwrap()
            },
            |mut idx| {
                populate(&mut idx, 3000, 4);
                idx.flush().unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn query_benches(c: &mut Criterion) {
    let mut idx = MemoryIndex::in_memory();
    populate(&mut idx, 10_000, 4);

    let mut g = c.benchmark_group("index/query");
    g.bench_function("range_100_frames", |b| {
        b.iter(|| idx.query(0, "car", 5000..5100).unwrap())
    });
    g.bench_function("range_all_frames", |b| {
        b.iter(|| idx.query(0, "car", 0..10_000).unwrap())
    });
    g.bench_function("labels_skip_scan", |b| b.iter(|| idx.labels(0).unwrap()));
    g.bench_function("query_all_labels_100_frames", |b| {
        b.iter(|| idx.query_all(0, 5000..5100).unwrap())
    });
    g.bench_function("processed_count", |b| {
        b.iter(|| idx.processed_count(0, 0..10_000).unwrap())
    });
    g.finish();
}

criterion_group!(benches, insert_benches, query_benches);
criterion_main!(benches);
