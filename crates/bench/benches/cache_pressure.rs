//! Cache-pressure bench: what bounded caches cost at K = 10 000.
//!
//! The eviction-equivalence suite proves bounded caches are
//! result-invariant; this bench prices them. One context evaluates
//! K = 10 000 pooled assignments (CFR's re-sampling shape) with
//! unbounded caches, an entry-capped cache (512), and an adversarially
//! tiny cache (64). Before timing, every path is asserted bit-equal to
//! the unbounded reference, and the peak-resident footprint of each is
//! printed — the number the cap exists to bound.
//!
//! `FT_BENCH_SMOKE=1` drops K to 500 so CI's cache-stress job can run
//! the same harness (same assertions) in seconds. Results are recorded
//! in `results/cache_pressure_bench.md`.

use bench::{bench_ctx, BENCH_X};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ft_compiler::CacheCapacity;
use ft_core::{evaluate_proposals_scored, Candidate, EvalContext, EvalMode, Proposal};
use ft_flags::rng::{derive_seed_idx, rng_for};
use ft_flags::{CvId, CvPool};
use ft_machine::Architecture;
use rand::Rng;

fn pressure_k() -> usize {
    match std::env::var("FT_BENCH_SMOKE") {
        Ok(v) if v != "0" => 500,
        _ => 10_000,
    }
}

fn assignments(ctx: &EvalContext, k: usize) -> (CvPool, Vec<Vec<CvId>>) {
    let pool = CvPool::new();
    let cvs = ctx
        .space()
        .sample_many(BENCH_X, &mut rng_for(51, "pressure-pool"));
    let ids = pool.intern_all(&cvs);
    let mut rng = rng_for(52, "pressure-assign");
    let batch: Vec<Vec<CvId>> = (0..k)
        .map(|_| {
            (0..ctx.modules())
                .map(|_| ids[rng.gen_range(0..ids.len())])
                .collect()
        })
        .collect();
    (pool, batch)
}

/// Evaluates the batch on the per-candidate route under the historical
/// assignment-batch seeds, `derive_seed_idx(noise_root ^ 0xA551, k)`.
fn evaluate(ctx: &EvalContext, pool: &CvPool, batch: &[Vec<CvId>]) -> Vec<f64> {
    let proposals: Vec<Proposal> = batch
        .iter()
        .enumerate()
        .map(|(k, ids)| {
            Proposal::new(
                Candidate::PerLoop(ids.clone()),
                derive_seed_idx(ctx.noise_root ^ 0xA551, k as u64),
            )
        })
        .collect();
    evaluate_proposals_scored(ctx, pool, &proposals, EvalMode::Scalar)
        .into_iter()
        .map(|s| s.time)
        .collect()
}

fn pressure_benches(c: &mut Criterion) {
    let arch = Architecture::broadwell();
    let k = pressure_k();

    let variants: &[(&str, CacheCapacity)] = &[
        ("unbounded", CacheCapacity::Unbounded),
        ("entries-512", CacheCapacity::Entries(512)),
        ("entries-64", CacheCapacity::Entries(64)),
    ];

    let reference_ctx = bench_ctx("CloverLeaf", &arch);
    let (pool, batch) = assignments(&reference_ctx, k);
    let reference = evaluate(&reference_ctx, &pool, &batch);

    let mut g = c.benchmark_group(format!("cache-pressure/K{k}"));
    g.throughput(Throughput::Elements(k as u64));
    g.sample_size(10);
    for (name, capacity) in variants {
        let ctx = bench_ctx("CloverLeaf", &arch).with_cache_capacity(*capacity);
        // Gate: eviction must be invisible in the measurements.
        assert_eq!(
            evaluate(&ctx, &pool, &batch),
            reference,
            "{name}: bounded caches changed results — bench is invalid"
        );
        let (obj_peak, link_peak) = ctx.cache_peaks();
        let stats = ctx.cache_stats();
        println!(
            "cache-pressure/K{k}/{name}: peak resident {obj_peak} objects + \
             {link_peak} links, {} object evictions, {} link evictions, \
             {} compiles",
            stats.object_evictions, stats.link_evictions, stats.object_computes,
        );
        g.bench_function(*name, |b| b.iter(|| evaluate(&ctx, &pool, &batch)));
    }
    g.finish();
}

criterion_group!(benches, pressure_benches);
criterion_main!(benches);
