//! Outside-in tracing. The phase spans are the ones `Tuner::run`
//! already records on its serial schedule (`TuningRun::schedule`); the
//! rest is timed from the benchmark's own files, around calls into each
//! layer's public functions. Every replay is fed from the untraced
//! campaign whose wall time the campaign metrics measure.

use crate::shape::{Campaign, WORKERS};
use funcytuner::caliper::Caliper;
use funcytuner::compiler::{CompiledModule, Compiler};
use funcytuner::flags::rng::{derive_seed, derive_seed_idx, rng_for};
use funcytuner::flags::{CvId, CvPool};
use funcytuner::machine::{
    execute_batch_total, execute_profiled, execute_total, link, BatchPlan, ExecOptions, ExecShape,
    LinkedProgram,
};
use funcytuner::outline::outline_with_defaults;
use funcytuner::tuning::pipeline::{Phase, ScheduleMode};
use funcytuner::tuning::remote::{
    decode_message, encode_message, HelloSpec, Message, ProcessTransport, WorkBatch, WorkItem,
};
use funcytuner::tuning::search::{evaluate_proposals_scored, Candidate, EvalMode, Proposal};
use funcytuner::tuning::{collect, CollectionData, EvalContext, TuningCost, TuningRun};
use rand::Rng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Wall seconds of one campaign's phases.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    pub outline: f64,
    pub baseline: f64,
    pub collect: f64,
    pub random: f64,
    pub fr: f64,
    pub greedy: f64,
    pub cfr: f64,
    pub digest: f64,
    /// Ledger runs charged by the collection phase.
    pub collect_runs: u64,
    /// The campaign's canonical digest, computed under the `digest` span.
    pub canonical: u64,
}

impl Phases {
    /// The spans that lie inside `Tuner::run`: everything but the
    /// digest, which is computed on the returned run.
    pub fn inside_run(&self) -> f64 {
        self.outline + self.baseline + self.collect + self.random + self.fr + self.greedy + self.cfr
    }

    /// Reads the phase spans `run` recorded and times the two calls it
    /// does not span: `outline_with_defaults` (replayed on the
    /// campaign's own inputs; its program must equal the campaign's)
    /// and `canonical_digest`.
    pub fn of(c: &Campaign, run: &TuningRun) -> Phases {
        assert_eq!(
            run.schedule.mode,
            ScheduleMode::Serial,
            "phase spans are read from a serial schedule"
        );
        let span = |p: Phase| {
            run.schedule
                .span(p)
                .unwrap_or_else(|| panic!("the campaign ran no {} phase", p.label()))
        };
        let wall = |p: Phase| span(p).wall_s();

        let mut input = c.workload.tuning_input(c.arch.name).clone();
        input.steps = run.ctx.steps;
        let raw_ir = c.workload.instantiate(&input);
        let compiler = Compiler::icc(c.arch.target);
        let t = Instant::now();
        let (outlined, _) = outline_with_defaults(
            &raw_ir,
            &compiler,
            &c.arch,
            input.steps,
            derive_seed(c.spec.seed, "outline"),
        );
        let outline = t.elapsed().as_secs_f64();
        if outlined.ir != run.outlined.ir {
            eprintln!("perfbench: the outline replay disagrees with the campaign's program");
            std::process::exit(3);
        }

        let t = Instant::now();
        let canonical = run.canonical_digest();
        let digest = t.elapsed().as_secs_f64();
        Phases {
            outline,
            baseline: wall(Phase::Baseline),
            collect: wall(Phase::Collect),
            random: wall(Phase::Random),
            fr: wall(Phase::Fr),
            greedy: wall(Phase::Greedy),
            cfr: wall(Phase::Cfr),
            digest,
            collect_runs: span(Phase::Collect).runs.expect("serial spans count runs"),
            canonical,
        }
    }
}

/// A fresh evaluation context with `ctx`'s program, architecture,
/// steps, noise root, fault model, retry policy and objective, and
/// empty caches, ledger and quarantine.
fn fresh_context(ctx: &EvalContext) -> EvalContext {
    EvalContext::new(
        ctx.ir.clone(),
        Compiler::icc(ctx.arch.target),
        ctx.arch.clone(),
        ctx.steps,
        ctx.noise_root,
    )
    .with_faults(*ctx.faults())
    .with_resilience(ctx.resilience())
    .with_objective(ctx.objective())
}

/// The hello a process worker needs to rebuild `run`'s context, read
/// from that context. The worker's HELLO acknowledgement checks it
/// rebuilt the same module count.
fn hello_of(run: &TuningRun) -> HelloSpec {
    let faults = run.ctx.faults();
    let resilience = run.ctx.resilience();
    HelloSpec {
        workload: run.workload.to_string(),
        arch: run.arch.to_string(),
        steps_cap: u64::from(run.ctx.steps),
        seed: run.seed,
        fault_seed: faults.seed,
        fault_compile: faults.compile_failure,
        fault_crash: faults.crash,
        fault_hang: faults.hang,
        fault_outlier: faults.outlier,
        max_retries: u64::from(resilience.max_retries),
        timeout_factor: resilience.timeout_factor,
        objective: run.ctx.objective(),
    }
}

/// Single-threaded leaf-layer replays at one campaign's ledger counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Leaves {
    pub compile_s: f64,
    pub link_s: f64,
    pub exec_scalar_s: f64,
    pub exec_batch_s: f64,
    pub exec_profiled_s: f64,
}

/// Distinct programs the link and execute replays cycle through.
const LEAF_SET: usize = 64;

/// Replays `cost.object_compiles` `Compiler::compile_module` calls,
/// `cost.links` `link` calls, `cost.runs` runs through `execute_total`
/// and through 64-lane `execute_batch_total`, and `collect_runs`
/// Caliper-profiled runs, each single-threaded, on the campaign's own
/// context (program, compiler, architecture, steps). Batch and scalar
/// times must agree bit for bit.
pub fn leaf_replay(ctx: &EvalContext, cost: &TuningCost, collect_runs: u64, seed: u64) -> Leaves {
    let mut out = Leaves::default();
    let j = ctx.modules();
    let compiles = cost.object_compiles as usize;
    let cvs = ctx.space().sample_many(
        compiles.div_ceil(j).max(LEAF_SET),
        &mut rng_for(seed, "perfbench-leaf"),
    );

    let t = Instant::now();
    for i in 0..compiles {
        black_box(
            ctx.compiler
                .compile_module(&ctx.ir.modules[i % j], &cvs[i / j]),
        );
    }
    out.compile_s = t.elapsed().as_secs_f64();

    let sets: Vec<Vec<CompiledModule>> = cvs[..LEAF_SET]
        .iter()
        .map(|cv| ctx.compiler.compile_program(&ctx.ir, cv))
        .collect();
    let mut remaining = cost.links as usize;
    while remaining > 0 {
        let n = remaining.min(LEAF_SET);
        let inputs: Vec<Vec<CompiledModule>> = sets[..n].to_vec();
        let t = Instant::now();
        for modules in inputs {
            black_box(link(modules, &ctx.ir, &ctx.arch));
        }
        out.link_s += t.elapsed().as_secs_f64();
        remaining -= n;
    }

    let linked: Vec<LinkedProgram> = sets
        .into_iter()
        .map(|modules| link(modules, &ctx.ir, &ctx.arch))
        .collect();
    let runs = cost.runs as usize;
    let noise = |i: usize| derive_seed_idx(seed, i as u64);
    let t = Instant::now();
    let scalar: Vec<f64> = (0..runs)
        .map(|i| {
            execute_total(
                &linked[i % LEAF_SET],
                &ctx.arch,
                &ExecOptions::new(ctx.steps, noise(i)),
            )
        })
        .collect();
    out.exec_scalar_s = t.elapsed().as_secs_f64();

    let plan = BatchPlan::new(
        &ctx.ir,
        &ctx.arch,
        ExecShape::of(&ExecOptions::new(ctx.steps, 0)),
    );
    let lanes: Vec<(&LinkedProgram, u64)> = (0..runs)
        .map(|i| (&linked[i % LEAF_SET], noise(i)))
        .collect();
    let t = Instant::now();
    let batch: Vec<f64> = lanes
        .chunks(64)
        .flat_map(|chunk| execute_batch_total(&plan, chunk))
        .collect();
    out.exec_batch_s = t.elapsed().as_secs_f64();
    let agree = scalar
        .iter()
        .zip(&batch)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    if !agree {
        eprintln!("perfbench: execute_batch_total disagrees with execute_total");
        std::process::exit(3);
    }

    let t = Instant::now();
    for i in 0..collect_runs as usize {
        let caliper = Caliper::real_time();
        black_box(execute_profiled(
            &linked[i % LEAF_SET],
            &ctx.arch,
            &ExecOptions::instrumented(ctx.steps, noise(i)),
            &caliper,
        ));
        black_box(caliper.snapshot());
    }
    out.exec_profiled_s = t.elapsed().as_secs_f64();
    out
}

/// The proposal batch of the campaign's CFR phase (Algorithm 1 lines
/// 12-21): `k` assignments drawn from each module's top-`x` collected
/// CVs, with CFR's noise-seed stream.
pub fn cfr_proposals(
    c: &Campaign,
    ctx: &EvalContext,
    data: &CollectionData,
    pool: &CvPool,
) -> Vec<Proposal> {
    let pruned: Vec<Vec<usize>> = (0..ctx.modules())
        .map(|j| data.top_x(j, c.spec.focus))
        .collect();
    let cv_ids = pool.intern_all(&data.cvs);
    let mut rng = rng_for(derive_seed(c.spec.seed, "cfr"), "cfr-resample");
    (0..c.spec.budget)
        .map(|kk| {
            let assignment: Vec<CvId> = pruned
                .iter()
                .map(|cands| cv_ids[cands[rng.gen_range(0..cands.len())]])
                .collect();
            Proposal::new(
                Candidate::PerLoop(assignment),
                derive_seed_idx(ctx.noise_root ^ 0xA551, kk as u64),
            )
        })
        .collect()
}

/// `evaluate_proposals_scored` on the CFR phase's proposals, once per
/// [`EvalMode`], each on a fresh copy of the campaign's context brought
/// to the state CFR starts from (baseline measured, collection done).
/// Returns `(batched_s, scalar_s)`; both score vectors must equal the
/// campaign's own CFR score timeline bit for bit.
pub fn eval_replay(c: &Campaign, run: &TuningRun) -> (f64, f64) {
    let mut times = [0.0; 2];
    let mut scores = Vec::new();
    for (slot, mode) in [EvalMode::Batched, EvalMode::Scalar]
        .into_iter()
        .enumerate()
    {
        let ctx = fresh_context(&run.ctx);
        ctx.baseline_time(10);
        black_box(collect(
            &ctx,
            c.spec.budget,
            derive_seed(c.spec.seed, "collect"),
        ));
        let pool = CvPool::new();
        let proposals = cfr_proposals(c, &ctx, &run.data, &pool);
        let t = Instant::now();
        let s = evaluate_proposals_scored(&ctx, &pool, &proposals, mode);
        times[slot] = t.elapsed().as_secs_f64();
        scores.push(s);
    }
    let agree = scores.iter().all(|s| {
        s.len() == run.cfr.scores.len()
            && s.iter()
                .zip(&run.cfr.scores)
                .all(|(a, b)| a.time.to_bits() == b.time.to_bits())
    });
    if !agree {
        eprintln!("perfbench: the CFR replay disagrees with the campaign's CFR scores");
        std::process::exit(3);
    }
    (times[0], times[1])
}

/// Wire codec timings on one WORK frame of the campaign's shape.
#[derive(Debug, Default, Clone, Copy)]
pub struct Codec {
    pub encode_us: f64,
    pub decode_us: f64,
    pub frame_bytes: f64,
}

const CODEC_REPEATS: usize = 20;

/// Encodes and decodes the WORK frame worker 0 receives for the CFR
/// batch: its `index % workers` shard as per-loop digest items, plus
/// every CV definition the shard uses (a fresh worker knows none).
pub fn codec_replay(c: &Campaign, run: &TuningRun) -> Codec {
    let pool = CvPool::new();
    let proposals = cfr_proposals(c, &run.ctx, &run.data, &pool);
    let mut defs: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut known = std::collections::HashSet::new();
    let items: Vec<WorkItem> = proposals
        .iter()
        .step_by(WORKERS)
        .map(|p| {
            let Candidate::PerLoop(ids) = &p.candidate else {
                unreachable!("CFR proposes per-loop candidates")
            };
            let digests = pool.digests(ids);
            for (id, d) in ids.iter().zip(&digests) {
                if known.insert(*d) {
                    defs.push((*d, pool.get(*id).values().to_vec()));
                }
            }
            WorkItem {
                uniform: false,
                digests,
                noise_seed: p.noise_seed,
            }
        })
        .collect();
    let msg = Message::Work(WorkBatch {
        seq: 0,
        timeout_ref_bits: run.ctx.timeout_reference_bits(),
        defs,
        items,
    });
    let t = Instant::now();
    let mut bytes = Vec::new();
    for _ in 0..CODEC_REPEATS {
        bytes = encode_message(black_box(&msg));
    }
    let encode = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..CODEC_REPEATS {
        let back = decode_message(black_box(&bytes)).expect("own WORK encoding decodes");
        black_box(back);
    }
    let decode = t.elapsed().as_secs_f64();
    Codec {
        encode_us: encode / CODEC_REPEATS as f64 * 1e6,
        decode_us: decode / CODEC_REPEATS as f64 * 1e6,
        frame_bytes: (bytes.len() + 8) as f64,
    }
}

/// One `ProcessTransport::spawn` (process start plus HELLO handshake)
/// of a worker for `run`; the worker is shut down and reaped after the
/// clock stops.
pub fn spawn_replay(run: &TuningRun, exe: &Path) -> f64 {
    let spec = hello_of(run);
    let t = Instant::now();
    let worker = ProcessTransport::spawn(exe, &spec, run.ctx.modules() as u64)
        .unwrap_or_else(|e| panic!("spawning {}: {e}", exe.display()));
    let s = t.elapsed().as_secs_f64();
    drop(worker);
    s
}
