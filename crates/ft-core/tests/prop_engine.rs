//! Property tests for the batched evaluation engine: interning is a
//! lossless encoding, and evaluating through `CvId` handles is
//! observationally identical to the original `Cv`-based path.

use ft_compiler::{Compiler, FaultModel};
use ft_core::{
    evaluate_proposals_scored, Candidate, EvalContext, EvalMode, History, Observation, Proposal,
    SearchDriver, SearchStrategy, TuningResult,
};
use ft_flags::rng::{derive_seed_idx, rng_for};
use ft_flags::{Cv, CvId, CvPool};
use ft_machine::{execute, link, Architecture, ExecOptions};
use ft_outline::outline_with_defaults;
use ft_workloads::workload_by_name;
use proptest::prelude::*;
use rand::Rng;

fn mk_ctx() -> EvalContext {
    let arch = Architecture::broadwell();
    let compiler = Compiler::icc(arch.target);
    let w = workload_by_name("swim").expect("swim in suite");
    let input = w.tuning_input(arch.name);
    let ir = w.instantiate(input);
    let steps = 5;
    let (outlined, _) = outline_with_defaults(&ir, &compiler, &arch, steps, 11);
    EvalContext::new(outlined.ir, Compiler::icc(arch.target), arch, steps, 99)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interning any sampled sequence of CVs and materializing it back
    /// reproduces the sequence exactly, digests included.
    #[test]
    fn cv_pool_interning_round_trips(seed in any::<u64>(), n in 1usize..40) {
        let ctx = mk_ctx();
        let cvs = ctx.space().sample_many(n, &mut rng_for(seed, "prop-pool"));
        let pool = CvPool::new();
        let ids = pool.intern_all(&cvs);
        prop_assert_eq!(ids.len(), cvs.len());
        prop_assert_eq!(pool.materialize(&ids), cvs.clone());
        for (id, cv) in ids.iter().zip(&cvs) {
            prop_assert_eq!(pool.digest(*id), cv.digest());
            prop_assert_eq!((*pool.get(*id)).clone(), cv.clone());
        }
        // Idempotent: a second interning pass changes nothing.
        prop_assert_eq!(pool.intern_all(&cvs), ids);
    }

    /// Per-loop proposals through `evaluate_proposals_scored` return
    /// bit-identical times to the uncached compile → link → execute
    /// path on the materialized assignments, under the historical
    /// assignment-batch seeds — for any pool seed, pool size, and
    /// batch size, on a fresh context each (so neither path ever warms
    /// the caches for the other).
    #[test]
    fn id_batch_matches_cv_batch(seed in any::<u64>(), pool_n in 1usize..10, k in 1usize..12) {
        let cvs = {
            let ctx = mk_ctx();
            ctx.space().sample_many(pool_n, &mut rng_for(seed, "prop-cvs"))
        };
        let pool = CvPool::new();
        let ids = pool.intern_all(&cvs);
        let mut rng = rng_for(seed, "prop-assign");
        let ctx_ids = mk_ctx();
        let id_assignments: Vec<Vec<CvId>> = (0..k)
            .map(|_| {
                (0..ctx_ids.modules())
                    .map(|_| ids[rng.gen_range(0..ids.len())])
                    .collect()
            })
            .collect();
        let seed_of = |ctx: &EvalContext, k: usize| derive_seed_idx(ctx.noise_root ^ 0xA551, k as u64);
        let proposals: Vec<Proposal> = id_assignments
            .iter()
            .enumerate()
            .map(|(k, a)| Proposal::new(Candidate::PerLoop(a.clone()), seed_of(&ctx_ids, k)))
            .collect();
        let via_ids: Vec<f64> = evaluate_proposals_scored(&ctx_ids, &pool, &proposals, EvalMode::Scalar)
            .into_iter()
            .map(|s| s.time)
            .collect();

        let ctx_cvs = mk_ctx();
        let via_cvs: Vec<f64> = id_assignments
            .iter()
            .enumerate()
            .map(|(k, a)| {
                let objects = ctx_cvs.compiler.compile_mixed(&ctx_cvs.ir, &pool.materialize(a));
                let linked = link(objects, &ctx_cvs.ir, &ctx_cvs.arch);
                execute(&linked, &ctx_cvs.arch, &ExecOptions::new(ctx_cvs.steps, seed_of(&ctx_cvs, k)))
                    .total_s
            })
            .collect();

        prop_assert_eq!(via_ids.len(), via_cvs.len());
        for (a, b) in via_ids.iter().zip(&via_cvs) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// A one-shot strategy driven through [`SearchDriver`] observes
    /// bit-identical times to evaluating each CV directly, one
    /// sequential one-proposal batch at a time — clean and under the
    /// fault testbed,
    /// on a fresh context per path (so neither path warms the caches
    /// or the quarantine for the other).
    #[test]
    fn driver_uniform_matches_direct_resilient(
        seed in any::<u64>(),
        n in 1usize..10,
        faulted in any::<bool>(),
    ) {
        let faults = if faulted {
            FaultModel::testbed(0xFA17)
        } else {
            FaultModel::zero()
        };
        let cvs = {
            let ctx = mk_ctx();
            ctx.space().sample_many(n, &mut rng_for(seed, "prop-driver"))
        };

        let ctx_direct = mk_ctx().with_faults(faults);
        let direct_pool = CvPool::new();
        let direct: Vec<f64> = cvs
            .iter()
            .enumerate()
            .map(|(i, cv)| {
                let p = Proposal::new(
                    Candidate::Uniform(direct_pool.intern(cv)),
                    derive_seed_idx(seed, i as u64),
                );
                evaluate_proposals_scored(&ctx_direct, &direct_pool, &[p], EvalMode::Scalar)[0].time
            })
            .collect();

        struct OneShot {
            cvs: Vec<Cv>,
            seed: u64,
            done: bool,
            seen: Vec<f64>,
        }
        impl SearchStrategy for OneShot {
            fn name(&self) -> &str {
                "one-shot"
            }
            fn propose(&mut self, pool: &CvPool, _history: &History) -> Vec<Proposal> {
                if self.done {
                    return Vec::new();
                }
                self.done = true;
                pool.intern_all(&self.cvs)
                    .into_iter()
                    .enumerate()
                    .map(|(i, id)| {
                        Proposal::new(Candidate::Uniform(id), derive_seed_idx(self.seed, i as u64))
                    })
                    .collect()
            }
            fn observe(&mut self, _pool: &CvPool, results: &[Observation<'_>]) {
                self.seen.extend(results.iter().map(|o| o.time));
            }
            fn finish(
                &mut self,
                _ctx: &EvalContext,
                _pool: &CvPool,
                history: &History,
            ) -> TuningResult {
                // No winner selection: under the testbed every proposal
                // may legitimately fault, which the default finish
                // treats as a bug. This property is about the observed
                // times, not the winner.
                TuningResult {
                    algorithm: "one-shot".into(),
                    best_time: 0.0,
                    baseline_time: 0.0,
                    assignment: Vec::new(),
                    best_index: 0,
                    history: Vec::new(),
                    evaluations: history.len(),
                    objective: _ctx.objective(),
                    best_code_bytes: f64::INFINITY,
                    scores: Vec::new(),
                    front: Vec::new(),
                }
            }
        }

        let ctx_driver = mk_ctx().with_faults(faults);
        let mut probe = OneShot {
            cvs,
            seed,
            done: false,
            seen: Vec::new(),
        };
        let r = SearchDriver::new(&ctx_driver).run(&mut probe);
        prop_assert_eq!(r.evaluations, n);
        prop_assert_eq!(probe.seen.len(), direct.len());
        for (a, b) in probe.seen.iter().zip(&direct) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
