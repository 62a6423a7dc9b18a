//! Mixed-assignment collection equivalence and ledger invariants.
//!
//! The Figure-4 collection now runs through `collect_candidates` on
//! interned handles. This suite proves (1) the uniform path is
//! byte-for-byte the pre-pool implementation, probe by probe; (2) a
//! uniform probe and its degenerate per-loop probe are the same
//! measurement; and (3) under compile-failure, crash, and hang fault
//! models the `+inf` column discipline and the cost-ledger counters
//! behave, and the whole collection stays deterministic.

use ft_caliper::Caliper;
use ft_compiler::{Compiler, FaultModel};
use ft_core::{collect, collect_candidates, Candidate, EvalContext, MixedCollection, TuningCost};
use ft_flags::rng::{derive_seed_idx, rng_for};
use ft_flags::CvPool;
use ft_machine::{execute_profiled, link, Architecture, ExecOptions};
use ft_outline::outline_with_defaults;
use ft_workloads::workload_by_name;
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

fn canonical(m: &MixedCollection) -> Vec<u8> {
    let mut out = Vec::new();
    m.write_canonical(&mut out);
    out
}

/// Every faulted probe must be an all-`+inf` column, and every finite
/// probe must satisfy the §3.3 derivation: hot-loop sum plus the
/// derived non-loop row reproduces the end-to-end time.
fn assert_column_discipline(data: &MixedCollection) {
    let j_nl = data.modules() - 1;
    for k in 0..data.k() {
        if data.end_to_end[k].is_finite() {
            let hot_sum: f64 = (0..j_nl).map(|j| data.per_module[j][k]).sum();
            assert!(
                (hot_sum + data.per_module[j_nl][k] - data.end_to_end[k]).abs() < 1e-9,
                "derivation broken at finite column k={k}"
            );
        } else {
            for j in 0..data.modules() {
                assert!(
                    data.per_module[j][k].is_infinite(),
                    "faulted column k={k} leaked a finite row j={j}"
                );
            }
        }
    }
}

#[test]
fn uniform_collection_is_byte_identical_to_the_prepool_path() {
    let seed = 7u64;
    let k = 12;
    let cvs = {
        let ctx = mk_ctx();
        ctx.space()
            .sample_many(k, &mut rng_for(seed, "collection-cvs"))
    };

    // Reference: the pre-pool implementation, uncached — one Cv-based
    // compile → link → profiled execute per sampled CV, sequential,
    // same seed schedule.
    let ctx_ref = mk_ctx();
    let j_total = ctx_ref.modules();
    let hot: Vec<usize> = ctx_ref.ir.hot_loop_ids();
    let mut ref_per_module = vec![vec![0.0; k]; j_total];
    let mut ref_e2e = Vec::with_capacity(k);
    for (kk, cv) in cvs.iter().enumerate() {
        let caliper = Caliper::real_time();
        let noise = derive_seed_idx(seed ^ 0x0C01_1EC7, kk as u64);
        let linked = link(
            ctx_ref.compiler.compile_program(&ctx_ref.ir, cv),
            &ctx_ref.ir,
            &ctx_ref.arch,
        );
        let total = execute_profiled(
            &linked,
            &ctx_ref.arch,
            &ExecOptions::instrumented(ctx_ref.steps, noise),
            &caliper,
        )
        .total_s;
        let snap = caliper.snapshot();
        let mut hot_sum = 0.0;
        for &j in &hot {
            let t = snap.inclusive(&ctx_ref.ir.modules[j].name);
            ref_per_module[j][kk] = t;
            hot_sum += t;
        }
        ref_per_module[j_total - 1][kk] = (total - hot_sum).max(0.0);
        ref_e2e.push(total);
    }

    // Shipped: `collect` samples the same CVs and probes them through
    // `collect_candidates` on interned handles, in parallel.
    let ctx = mk_ctx();
    let data = collect(&ctx, k, seed);
    assert_eq!(data.cvs, cvs);
    for kk in 0..k {
        assert_eq!(
            data.end_to_end[kk].to_bits(),
            ref_e2e[kk].to_bits(),
            "end-to-end diverged at k={kk}"
        );
        for (j, row) in ref_per_module.iter().enumerate() {
            assert_eq!(
                data.per_module[j][kk].to_bits(),
                row[kk].to_bits(),
                "per-module time diverged at j={j} k={kk}"
            );
        }
    }
}

#[test]
fn a_uniform_probe_equals_its_degenerate_perloop_probe() {
    // A per-loop probe that assigns the same CV to every module is the
    // same executable as the uniform probe of that CV: identical
    // digests, fingerprint, and noise seed, so identical bytes.
    let cv = {
        let ctx = mk_ctx();
        ctx.space()
            .sample_many(1, &mut rng_for(3, "degenerate"))
            .remove(0)
    };
    let pool = CvPool::new();
    let id = pool.intern(&cv);

    let ctx_uni = mk_ctx();
    let uni = collect_candidates(&ctx_uni, &pool, &[Candidate::Uniform(id)], 5);

    let ctx_per = mk_ctx();
    let per = collect_candidates(
        &ctx_per,
        &pool,
        &[Candidate::PerLoop(vec![id; ctx_per.modules()])],
        5,
    );
    assert_eq!(canonical(&uni), canonical(&per));
    assert!(uni.end_to_end[0].is_finite());
}

/// Probes a mixed batch (10 uniform + 10 per-loop candidates) under
/// `model` and returns the ledger delta it charged plus the data.
fn faulted_collection(model: FaultModel) -> (TuningCost, MixedCollection) {
    let ctx = mk_ctx().with_faults(model);
    let pool = CvPool::new();
    let cvs = ctx
        .space()
        .sample_many(10, &mut rng_for(41, "fault-probes"));
    let ids = pool.intern_all(&cvs);
    let mut rng = rng_for(42, "fault-assign");
    let mut candidates: Vec<Candidate> = ids.iter().map(|id| Candidate::Uniform(*id)).collect();
    for _ in 0..10 {
        candidates.push(Candidate::PerLoop(
            (0..ctx.modules())
                .map(|_| ids[rng.gen_range(0..ids.len())])
                .collect(),
        ));
    }
    let before = ctx.cost();
    let data = collect_candidates(&ctx, &pool, &candidates, 77);
    (ctx.cost().since(&before), data)
}

#[test]
fn compile_fault_model_quarantines_columns_without_runtime_faults() {
    let model = FaultModel::with_rates(9, 0.15, 0.0, 0.0, 0.0);
    let (spent, data) = faulted_collection(model);
    assert_column_discipline(&data);
    // An ICE never reaches the machine: no crashes, no hangs, and the
    // faulted columns come from quarantined (module, CV) pairs.
    assert_eq!(spent.crashes, 0);
    assert_eq!(spent.timeouts, 0);
    assert!(spent.compile_failures > 0, "0.15 ICE rate never fired");
    assert!(
        data.end_to_end.iter().any(|t| t.is_infinite()),
        "no probe faulted under a 0.15 ICE rate"
    );
    assert!(
        data.end_to_end.iter().any(|t| t.is_finite()),
        "every probe faulted — the model is too hot to test ranking"
    );
    // Determinism: a fresh identical context reproduces every byte.
    let (_, again) = faulted_collection(model);
    assert_eq!(canonical(&data), canonical(&again));
}

#[test]
fn crash_fault_model_retries_then_gives_up() {
    let model = FaultModel::with_rates(9, 0.0, 0.6, 0.0, 0.0);
    let (spent, data) = faulted_collection(model);
    assert_column_discipline(&data);
    assert_eq!(spent.compile_failures, 0);
    assert_eq!(spent.timeouts, 0);
    assert!(spent.crashes > 0, "0.6 crash rate never fired");
    // Transient crashes are retried under fresh derived seeds, and
    // every crashed attempt is still a charged run.
    assert!(spent.retries > 0, "a transient crash was never retried");
    assert!(spent.runs > data.k() as u64, "retries did not charge runs");
    assert!(spent.crashes + spent.timeouts <= spent.runs);
    let (_, again) = faulted_collection(model);
    assert_eq!(canonical(&data), canonical(&again));
}

#[test]
fn hang_fault_model_charges_timeouts_deterministically() {
    let model = FaultModel::with_rates(9, 0.0, 0.0, 0.3, 0.0);
    let (spent, data) = faulted_collection(model);
    assert_column_discipline(&data);
    assert_eq!(spent.compile_failures, 0);
    assert_eq!(spent.crashes, 0);
    assert!(spent.timeouts > 0, "0.3 hang rate never fired");
    assert!(spent.crashes + spent.timeouts <= spent.runs);
    // Hangs are deterministic per fingerprint: the faulted columns are
    // exactly reproduced on a fresh context.
    let (spent_again, again) = faulted_collection(model);
    assert_eq!(canonical(&data), canonical(&again));
    assert_eq!(spent.timeouts, spent_again.timeouts);
}
