//! FuncyTuner per-loop runtime collection (Figure 4).
//!
//! Step 1–2: the outlined program is instrumented with Caliper. Step 4:
//! all modules are compiled with the *same* k-th pre-sampled CV. Step
//! 5: each of the K code variants runs once, collecting per-loop times
//! `T[j][k]`. The non-loop time is *derived* by subtracting the hot
//! loops from the end-to-end time (§3.3) — it is never measured
//! directly.

use crate::breaker::Attempts;
use crate::ctx::EvalContext;
use crate::search::Candidate;
use ft_caliper::Caliper;
use ft_flags::rng::{derive_seed_idx, rng_for};
use ft_flags::{Cv, CvPool};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Per-loop collection data: `K` CVs, the matrix of per-module times,
/// and the end-to-end times.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectionData {
    /// The K pre-sampled CVs.
    pub cvs: Vec<Cv>,
    /// `per_module[j][k]`: time of module `j` under uniform CV `k`.
    /// The last row is the *derived* non-loop time.
    pub per_module: Vec<Vec<f64>>,
    /// `end_to_end[k]`: whole-run time under uniform CV `k`
    /// (instrumented).
    pub end_to_end: Vec<f64>,
}

impl CollectionData {
    /// Number of sampled CVs (K).
    pub fn k(&self) -> usize {
        self.cvs.len()
    }

    /// Number of modules (J + 1).
    pub fn modules(&self) -> usize {
        self.per_module.len()
    }

    /// Index of the fastest CV for module `j`.
    pub fn argmin(&self, j: usize) -> usize {
        let row = &self.per_module[j];
        row.iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
            .map(|(k, _)| k)
            .expect("non-empty collection")
    }

    /// Indices of the top-`x` fastest CVs for module `j`, best first.
    ///
    /// Selects the `x` smallest in O(K) and sorts only that prefix,
    /// instead of sorting all K entries. Ties order by index — the same
    /// total order the stable full sort produced, so rankings are
    /// unchanged.
    pub fn top_x(&self, j: usize, x: usize) -> Vec<usize> {
        let row = &self.per_module[j];
        let x = x.clamp(1, row.len());
        let mut idx: Vec<usize> = (0..row.len()).collect();
        let cmp = |a: &usize, b: &usize| {
            row[*a]
                .partial_cmp(&row[*b])
                .expect("finite times")
                .then(a.cmp(b))
        };
        if x < idx.len() {
            idx.select_nth_unstable_by(x, cmp);
            idx.truncate(x);
        }
        idx.sort_unstable_by(cmp);
        idx
    }

    /// Appends the collection to a canonical byte encoding (see
    /// [`crate::canonical`]): CVs by raw flag bytes, every time by bit
    /// pattern — including the `+inf` rows of faulted CVs, which JSON
    /// cannot represent.
    pub fn write_canonical(&self, out: &mut Vec<u8>) {
        use crate::canonical::{write_bytes, write_f64s, write_u64};
        write_u64(out, self.cvs.len() as u64);
        for cv in &self.cvs {
            write_bytes(out, cv.values());
        }
        write_u64(out, self.per_module.len() as u64);
        for row in &self.per_module {
            write_f64s(out, row);
        }
        write_f64s(out, &self.end_to_end);
    }

    /// Sum over modules of the per-module minimum — the hypothetical
    /// `G.Independent` time of §3.4.
    pub fn independent_sum(&self) -> f64 {
        (0..self.modules())
            .map(|j| self.per_module[j][self.argmin(j)])
            .sum()
    }
}

/// Runs the Figure 4 collection: samples `k` CVs and measures per-loop
/// times for each, in parallel.
pub fn collect(ctx: &EvalContext, k: usize, seed: u64) -> CollectionData {
    let cvs = ctx
        .space()
        .sample_many(k, &mut rng_for(seed, "collection-cvs"));
    collect_with_cvs(ctx, cvs, seed)
}

/// Collection over caller-provided CVs (used when an experiment needs
/// the same sample for several algorithms, as in Figure 5).
///
/// A thin wrapper over [`collect_candidates`] with every probe
/// uniform: interning a CV and probing it by handle runs the exact
/// same digests, compile calls and noise seeds as the pre-pool
/// implementation, so the returned `CollectionData` is byte-for-byte
/// identical (pinned by the `strategy_pinning` canonical digests).
pub fn collect_with_cvs(ctx: &EvalContext, cvs: Vec<Cv>, seed: u64) -> CollectionData {
    let pool = CvPool::new();
    let candidates: Vec<Candidate> = pool
        .intern_all(&cvs)
        .into_iter()
        .map(Candidate::Uniform)
        .collect();
    let mixed = collect_candidates(ctx, &pool, &candidates, seed);
    CollectionData {
        cvs,
        per_module: mixed.per_module,
        end_to_end: mixed.end_to_end,
    }
}

/// Per-loop collection for arbitrary (possibly mixed-assignment)
/// candidates: `per_module[j][k]` is module `j`'s time under candidate
/// `k`, with the non-loop row derived by subtraction exactly as in
/// [`collect_with_cvs`].
#[derive(Debug, Clone)]
pub struct MixedCollection {
    /// The probed candidates, in row order.
    pub candidates: Vec<Candidate>,
    /// `per_module[j][k]`; the last row is the derived non-loop time.
    /// A faulted candidate contributes an all-`+inf` column.
    pub per_module: Vec<Vec<f64>>,
    /// `end_to_end[k]`: whole-run (instrumented) time of candidate `k`.
    pub end_to_end: Vec<f64>,
}

impl MixedCollection {
    /// Number of probed candidates (K).
    pub fn k(&self) -> usize {
        self.candidates.len()
    }

    /// Number of modules (J + 1).
    pub fn modules(&self) -> usize {
        self.per_module.len()
    }

    /// Appends the collection to a canonical byte encoding — every
    /// time by bit pattern, like [`CollectionData::write_canonical`].
    pub fn write_canonical(&self, out: &mut Vec<u8>) {
        use crate::canonical::{write_f64s, write_u64};
        write_u64(out, self.candidates.len() as u64);
        write_u64(out, self.per_module.len() as u64);
        for row in &self.per_module {
            write_f64s(out, row);
        }
        write_f64s(out, &self.end_to_end);
    }
}

/// Runs the Figure-4 collection over arbitrary candidates: every probe
/// runs instrumented through the same per-candidate funnel, and so the
/// same `(module, CV digest)` fingerprint space, as the search
/// evaluations — so a probe sharing `J - 1` modules with an
/// already-measured assignment reuses those objects (and, for
/// duplicates, the whole link) from the caches. This is the
/// strategy-drivable collection service behind
/// [`crate::search::SearchStrategy::collect_request`].
pub fn collect_candidates(
    ctx: &EvalContext,
    pool: &CvPool,
    candidates: &[Candidate],
    seed: u64,
) -> MixedCollection {
    let j_total = ctx.modules();
    let hot: Vec<usize> = ctx.ir.hot_loop_ids();
    let rows: Vec<(Vec<f64>, f64, Attempts)> = candidates
        .par_iter()
        .enumerate()
        .map(|(kk, cand)| {
            let caliper = Caliper::real_time();
            let noise = derive_seed_idx(seed ^ 0x0C01_1EC7, kk as u64);
            // Through both caches. Under a nonzero fault model, a
            // candidate that ICEs, keeps crashing, or hangs yields
            // `+inf` — an all-`+inf` column that no per-loop ranking
            // can ever select.
            let (score, attempts) = ctx.evaluate(pool, cand, noise, Some(&caliper));
            let total = score.time;
            if !total.is_finite() {
                return (vec![f64::INFINITY; j_total], f64::INFINITY, attempts);
            }
            let snap = caliper.snapshot();
            // Measured hot-loop times; non-loop derived by subtraction.
            let mut per_module = vec![0.0; j_total];
            let mut hot_sum = 0.0;
            for &j in &hot {
                let t = snap.inclusive(&ctx.ir.modules[j].name);
                per_module[j] = t;
                hot_sum += t;
            }
            per_module[j_total - 1] = (total - hot_sum).max(0.0);
            (per_module, total, attempts)
        })
        .collect();
    // The breaker advances only here, in probe order.
    if let Some(b) = ctx.breaker() {
        for (_, _, attempts) in &rows {
            b.record_attempts(*attempts);
        }
    }

    let mut per_module = vec![vec![0.0; candidates.len()]; j_total];
    let mut end_to_end = Vec::with_capacity(candidates.len());
    for (kk, (row, total, _)) in rows.into_iter().enumerate() {
        for (j, t) in row.into_iter().enumerate() {
            per_module[j][kk] = t;
        }
        end_to_end.push(total);
    }
    MixedCollection {
        candidates: candidates.to_vec(),
        per_module,
        end_to_end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::testutil::ctx_for;

    fn small_collection() -> (EvalContext, CollectionData) {
        let ctx = ctx_for("swim", Some(5));
        let data = collect(&ctx, 40, 7);
        (ctx, data)
    }

    #[test]
    fn shapes_are_consistent() {
        let (ctx, data) = small_collection();
        assert_eq!(data.k(), 40);
        assert_eq!(data.modules(), ctx.modules());
        assert_eq!(data.end_to_end.len(), 40);
        for row in &data.per_module {
            assert_eq!(row.len(), 40);
            assert!(row.iter().all(|t| t.is_finite() && *t >= 0.0));
        }
    }

    #[test]
    fn non_loop_is_derived_by_subtraction() {
        let (ctx, data) = small_collection();
        let j_nl = ctx.modules() - 1;
        for k in 0..data.k() {
            let hot_sum: f64 = (0..j_nl).map(|j| data.per_module[j][k]).sum();
            assert!(
                (hot_sum + data.per_module[j_nl][k] - data.end_to_end[k]).abs() < 1e-9,
                "derivation broken at k={k}"
            );
        }
    }

    #[test]
    fn argmin_is_the_row_minimum() {
        let (_ctx, data) = small_collection();
        for j in 0..data.modules() {
            let k = data.argmin(j);
            assert!(data.per_module[j]
                .iter()
                .all(|t| *t >= data.per_module[j][k]));
        }
    }

    #[test]
    fn top_x_is_sorted_prefix_and_monotone() {
        let (_ctx, data) = small_collection();
        for j in 0..data.modules() {
            let t8 = data.top_x(j, 8);
            assert_eq!(t8.len(), 8);
            assert_eq!(t8[0], data.argmin(j));
            for w in t8.windows(2) {
                assert!(data.per_module[j][w[0]] <= data.per_module[j][w[1]]);
            }
            // Monotone: top-4 is a prefix of top-8.
            assert_eq!(&t8[..4], data.top_x(j, 4).as_slice());
        }
    }

    #[test]
    fn top_x_matches_full_stable_sort_ranking() {
        // Reference: the pre-selection implementation (stable full
        // sort, prefix). Ties are exercised explicitly — module 0 has
        // duplicate times — because only ties can expose an unstable
        // selection reordering the ranking.
        let data = CollectionData {
            cvs: Vec::new(),
            per_module: vec![
                vec![3.0, 1.0, 2.0, 1.0, 3.0, 1.0, 2.0, 0.5],
                vec![0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2],
            ],
            end_to_end: Vec::new(),
        };
        for j in 0..data.modules() {
            let row = &data.per_module[j];
            let reference = |x: usize| -> Vec<usize> {
                let mut idx: Vec<usize> = (0..row.len()).collect();
                idx.sort_by(|a, b| row[*a].partial_cmp(&row[*b]).unwrap());
                idx.truncate(x.max(1));
                idx
            };
            for x in [1, 2, 3, 5, 7, 8, 20] {
                assert_eq!(data.top_x(j, x), reference(x), "j={j} x={x}");
            }
        }
        // And on real collection data across every module.
        let (_ctx, data) = small_collection();
        for j in 0..data.modules() {
            let row = &data.per_module[j];
            let mut idx: Vec<usize> = (0..row.len()).collect();
            idx.sort_by(|a, b| row[*a].partial_cmp(&row[*b]).unwrap());
            for x in [1, 4, 8, 16, 40] {
                let mut expect = idx.clone();
                expect.truncate(x);
                assert_eq!(data.top_x(j, x), expect, "j={j} x={x}");
            }
        }
    }

    #[test]
    fn independent_sum_lower_than_any_end_to_end() {
        let (_ctx, data) = small_collection();
        let best_e2e = data
            .end_to_end
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(data.independent_sum() <= best_e2e + 1e-12);
    }

    #[test]
    fn collection_is_deterministic() {
        let ctx = ctx_for("swim", Some(5));
        let a = collect(&ctx, 10, 3);
        let b = collect(&ctx, 10, 3);
        assert_eq!(a.end_to_end, b.end_to_end);
        assert_eq!(a.cvs, b.cvs);
    }
}
