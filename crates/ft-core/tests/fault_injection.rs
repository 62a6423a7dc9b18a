//! Acceptance tests for the fault-injecting toolchain and the
//! resilient evaluation harness.
//!
//! Three properties, in rough order of importance:
//!
//! 1. **Completion** — under the testbed fault rates (2 % compile
//!    failures, 1 % crashes, 0.5 % hangs) every search phase finishes
//!    its full K budget and ships a finite winner.
//! 2. **Accounting** — the §4.3 ledger stays balanced: every charged
//!    run is either a successful measurement or a failed-and-charged
//!    one (crash partial time, hang timeout budget). Compile failures
//!    charge nothing.
//! 3. **Replay** — a fixed `(seed, fault model)` pair reproduces the
//!    same faults, the same retries, and the same winner, bit for bit;
//!    and a campaign killed at any phase boundary resumes into exactly
//!    the uninterrupted result.

use ft_compiler::{Compiler, FaultModel};
use ft_core::{
    evaluate_proposals_scored, Candidate, EvalContext, EvalMode, Phase, Proposal, Tuner, TuningRun,
};
use ft_flags::CvPool;
use ft_machine::Architecture;
use ft_outline::outline_with_defaults;
use ft_workloads::{workload_by_name, Workload};
use proptest::prelude::*;

fn digest_assignment(cvs: &[ft_flags::Cv]) -> u64 {
    let mut h = 0u64;
    for cv in cvs {
        h = ft_flags::rng::mix(h ^ cv.digest());
    }
    h
}

fn swim() -> Workload {
    workload_by_name("swim").expect("swim in suite")
}

fn tuner<'a>(w: &'a Workload, arch: &'a Architecture, faults: FaultModel) -> Tuner<'a> {
    Tuner::new(w, arch)
        .budget(60)
        .focus(8)
        .seed(42)
        .cap_steps(5)
        .faults(faults)
}

fn assert_same_run(a: &TuningRun, b: &TuningRun, label: &str) {
    for (phase, x, y) in [
        ("baseline", a.baseline_time, b.baseline_time),
        ("random", a.random.best_time, b.random.best_time),
        ("fr", a.fr.best_time, b.fr.best_time),
        (
            "greedy",
            a.greedy.realized.best_time,
            b.greedy.realized.best_time,
        ),
        ("cfr", a.cfr.best_time, b.cfr.best_time),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: {phase} best_time diverged ({x:?} vs {y:?})"
        );
    }
    assert_eq!(
        digest_assignment(&a.cfr.assignment),
        digest_assignment(&b.cfr.assignment),
        "{label}: CFR assignment diverged"
    );
    assert_eq!(
        digest_assignment(&a.random.assignment),
        digest_assignment(&b.random.assignment),
        "{label}: Random assignment diverged"
    );
}

#[test]
fn testbed_rates_complete_with_finite_winners_and_a_balanced_ledger() {
    let arch = Architecture::broadwell();
    let w = swim();
    let run = tuner(&w, &arch, FaultModel::testbed(0xFA17)).run();

    for (phase, t) in [
        ("baseline", run.baseline_time),
        ("random", run.random.best_time),
        ("fr", run.fr.best_time),
        ("greedy", run.greedy.realized.best_time),
        ("cfr", run.cfr.best_time),
    ] {
        assert!(t.is_finite(), "{phase} winner must be finite, got {t}");
        assert!(t > 0.0, "{phase} winner must be positive, got {t}");
    }
    // Full budgets despite the faults.
    assert_eq!(run.data.k(), 60);
    assert_eq!(run.random.evaluations, 60);
    assert_eq!(run.fr.evaluations, 60);

    // Something actually fired at these rates...
    let stats = run.ctx.fault_stats();
    let injected = stats.compile_failures + stats.crashes + stats.timeouts;
    assert!(injected > 0, "testbed rates fired nothing: {stats:?}");

    // ...and the ledger balances: charged runs = successful runs +
    // failed-and-charged runs. Compile failures never charge a run.
    let cost = run.ctx.cost();
    assert_eq!(
        cost.runs,
        stats.ok_runs + stats.crashes + stats.timeouts,
        "ledger out of balance: {cost:?} vs {stats:?}"
    );
    assert_eq!(cost.compile_failures, stats.compile_failures);
    assert_eq!(cost.crashes, stats.crashes);
    assert_eq!(cost.timeouts, stats.timeouts);
    assert_eq!(cost.retries, stats.retries);
    assert_eq!(cost.failed_charged_runs(), stats.crashes + stats.timeouts);
}

#[test]
fn faulted_campaign_replays_bit_identically() {
    let arch = Architecture::broadwell();
    let w = swim();
    let a = tuner(&w, &arch, FaultModel::testbed(0xFA17)).run();
    let b = tuner(&w, &arch, FaultModel::testbed(0xFA17)).run();
    assert_same_run(&a, &b, "same (seed, fault model) twice");
    // Times are deterministic; so is the *total* injected-fault work
    // (individual counter attribution may shift between quarantine
    // and fresh-roll under parallel schedules, the sum may not).
    let (sa, sb) = (a.ctx.fault_stats(), b.ctx.fault_stats());
    assert_eq!(sa.ok_runs, sb.ok_runs);
    assert_eq!(sa.crashes, sb.crashes);
    assert_eq!(sa.timeouts, sb.timeouts);
}

#[test]
fn different_fault_seed_changes_the_injected_faults() {
    let arch = Architecture::broadwell();
    let w = swim();
    let a = tuner(&w, &arch, FaultModel::testbed(0xFA17)).run();
    let b = tuner(&w, &arch, FaultModel::testbed(0x0BAD)).run();
    let (sa, sb) = (a.ctx.fault_stats(), b.ctx.fault_stats());
    assert_ne!(
        (sa.compile_failures, sa.crashes, sa.timeouts),
        (sb.compile_failures, sb.crashes, sb.timeouts),
        "independent fault seeds should inject different fault sets"
    );
}

#[test]
fn killed_clean_campaign_resumes_into_the_uninterrupted_result() {
    let arch = Architecture::broadwell();
    let w = swim();
    let straight = tuner(&w, &arch, FaultModel::zero()).run();
    for stop in [Phase::Baseline, Phase::Collect, Phase::Fr, Phase::Greedy] {
        let cp = tuner(&w, &arch, FaultModel::zero()).run_until(stop);
        // Round-trip through JSON: what a killed process would reload.
        let json = cp.to_json().unwrap();
        let cp = ft_core::CampaignCheckpoint::from_json(&json).unwrap();
        let resumed = tuner(&w, &arch, FaultModel::zero())
            .resume(cp)
            .expect("matching checkpoint");
        assert_same_run(&straight, &resumed, &format!("resumed after {stop:?}"));
    }
}

#[test]
fn killed_faulted_campaign_resumes_into_the_uninterrupted_result() {
    let arch = Architecture::broadwell();
    let w = swim();
    let faults = FaultModel::testbed(0xFA17);
    let straight = tuner(&w, &arch, faults).run();
    for stop in [Phase::Collect, Phase::Random, Phase::Fr] {
        let cp = tuner(&w, &arch, faults).run_until(stop);
        let json = cp.to_json().unwrap();
        let cp = ft_core::CampaignCheckpoint::from_json(&json).unwrap();
        assert_eq!(cp.faults, faults, "fault model survives the round trip");
        let resumed = tuner(&w, &arch, faults)
            .resume(cp)
            .expect("matching checkpoint");
        assert_same_run(
            &straight,
            &resumed,
            &format!("faulted resume after {stop:?}"),
        );
    }
}

fn expect_mismatch(r: Result<TuningRun, ft_core::CheckpointError>) -> ft_core::CheckpointError {
    match r {
        Err(e) => e,
        Ok(_) => panic!("checkpoint from a different campaign must be rejected"),
    }
}

#[test]
fn resume_refuses_checkpoints_from_a_different_campaign() {
    let arch = Architecture::broadwell();
    let w = swim();
    let cp = tuner(&w, &arch, FaultModel::zero()).run_until(Phase::Collect);

    // Different root seed.
    let err = expect_mismatch(
        tuner(&w, &arch, FaultModel::zero())
            .seed(43)
            .resume(cp.clone()),
    );
    assert!(
        matches!(err, ft_core::CheckpointError::Mismatch(_)),
        "{err}"
    );
    assert!(err.to_string().contains("seed"));

    // Different fault model: the quarantine lists and every retry
    // decision inside the checkpoint would be meaningless.
    let err = expect_mismatch(tuner(&w, &arch, FaultModel::testbed(1)).resume(cp.clone()));
    assert!(err.to_string().contains("fault model"), "{err}");

    // Different budget.
    let err = expect_mismatch(tuner(&w, &arch, FaultModel::zero()).budget(61).resume(cp));
    assert!(err.to_string().contains("budget"), "{err}");
}

#[test]
fn quarantine_survives_the_checkpoint_round_trip() {
    // Crank the compile-failure rate so the collection phase is
    // guaranteed to quarantine some (module, CV) pairs, then check the
    // resumed context starts with the same lists.
    let arch = Architecture::broadwell();
    let w = swim();
    let faults = FaultModel::with_rates(0xFA17, 0.10, 0.0, 0.0, 0.0);
    let cp = tuner(&w, &arch, faults).run_until(Phase::Collect);
    assert!(
        !cp.bad_compiles.is_empty(),
        "10% compile-failure collection must quarantine something"
    );
    let json = cp.to_json().unwrap();
    let reloaded = ft_core::CampaignCheckpoint::from_json(&json).unwrap();
    assert_eq!(reloaded.bad_compiles, cp.bad_compiles);
    assert_eq!(reloaded.bad_programs, cp.bad_programs);
}

fn ctx_with(faults: FaultModel) -> EvalContext {
    let arch = Architecture::broadwell();
    let compiler = Compiler::icc(arch.target);
    let w = swim();
    let input = w.tuning_input(arch.name);
    let ir = w.instantiate(input);
    let (outlined, _) = outline_with_defaults(&ir, &compiler, &arch, 5, 11);
    EvalContext::new(outlined.ir, Compiler::icc(arch.target), arch, 5, 99).with_faults(faults)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Replay identity at the single-evaluation level: one CV, one
    /// noise seed, one fault model → one bit pattern, in fresh
    /// contexts (no shared quarantine or cache state).
    #[test]
    fn fixed_seed_and_rates_replay_identically(
        fault_seed in 0u64..1000,
        noise in 0u64..1000,
        cv_seed in 0u64..1000,
        rate_step in 0u8..4,
    ) {
        let rate = f64::from(rate_step) * 0.02;
        let faults = FaultModel::with_rates(fault_seed, rate, rate, rate / 2.0, rate);
        let a_ctx = ctx_with(faults);
        let b_ctx = ctx_with(faults);
        let cv = a_ctx.space().sample(&mut ft_flags::rng::rng_for(cv_seed, "replay"));
        let eval = |ctx: &EvalContext| {
            let pool = CvPool::new();
            let p = Proposal::new(Candidate::Uniform(pool.intern(&cv)), noise);
            evaluate_proposals_scored(ctx, &pool, &[p], EvalMode::Scalar)[0].time
        };
        let a = eval(&a_ctx);
        let b = eval(&b_ctx);
        prop_assert_eq!(
            a.to_bits(), b.to_bits(),
            "same (fault seed, rates, CV, noise) must replay identically: {} vs {}", a, b
        );
        // And the fault accounting replays with it.
        prop_assert_eq!(a_ctx.fault_stats(), b_ctx.fault_stats());
    }
}
