//! Evaluation context: the compile → link → execute pipeline every
//! search algorithm measures through.

use crate::breaker::{Attempts, CircuitBreaker};
use crate::objective::{Objective, Score};
use crate::search::Candidate;
use crate::store::{self, ObjectStore};
use ft_caliper::Caliper;
use ft_compiler::lru::{CacheCapacity, CacheWeight};
use ft_compiler::{CompiledModule, Compiler, FaultModel, Module, ObjectCache, ProgramIr};
use ft_flags::rng::derive_seed_idx;
use ft_flags::{Cv, CvPool, FlagSpace};
use ft_machine::{
    execute, execute_batch_total, execute_profiled, execute_total, link, try_execute,
    try_execute_profiled, Architecture, BatchPlan, ExecOptions, ExecShape, FaultQuarantine,
    LinkCache, LinkedProgram, RunMeasurement, RunOutcome,
};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Salt separating retry noise seeds from first-attempt seeds, so a
/// retried measurement re-rolls both the machine noise and the
/// transient fault streams.
const SALT_RETRY: u64 = 0x08E7_81E5;

/// How the harness reacts to injected toolchain faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Extra attempts after a transient crash before scoring `+inf`.
    pub max_retries: u32,
    /// Timeout budget as a multiple of the reference (baseline) time;
    /// a hung run is charged this budget.
    pub timeout_factor: f64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            max_retries: 2,
            timeout_factor: 20.0,
        }
    }
}

/// Fault/recovery counters of one context (see §4.3 ledger notes in
/// DESIGN.md). Quarantine sizes count distinct entries; `quarantined`
/// counts evaluations short-circuited by the lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Candidate evaluations aborted by a compile-stage ICE.
    pub compile_failures: u64,
    /// Executions that crashed (each one charged its partial time).
    pub crashes: u64,
    /// Executions that hung and were killed at their budget.
    pub timeouts: u64,
    /// Re-executions after a transient crash.
    pub retries: u64,
    /// Evaluations skipped because a quarantine list already knew the
    /// CV (or program) was bad.
    pub quarantined: u64,
    /// Executions that completed and produced a finite measurement.
    pub ok_runs: u64,
}

impl FaultStats {
    /// Element-wise sum — merging per-phase ledgers at a DAG join.
    /// Every counter is a plain total, so merging commutes and the
    /// `runs == ok_runs + crashes + timeouts` invariant of the merged
    /// ledger follows from the per-phase invariants.
    pub fn merge(&self, other: &FaultStats) -> FaultStats {
        FaultStats {
            compile_failures: self.compile_failures + other.compile_failures,
            crashes: self.crashes + other.crashes,
            timeouts: self.timeouts + other.timeouts,
            retries: self.retries + other.retries,
            quarantined: self.quarantined + other.quarantined,
            ok_runs: self.ok_runs + other.ok_runs,
        }
    }

    /// Charged executions this ledger accounts for: successful runs
    /// plus failed-but-charged ones. Must equal the paired
    /// [`crate::cost::TuningCost::runs`] no matter how concurrent
    /// phases interleaved their increments.
    pub fn charged_runs(&self) -> u64 {
        self.ok_runs + self.crashes + self.timeouts
    }
}

/// Counters of the evaluation engine's two memoization layers:
/// per-module objects and whole-program links.
///
/// Ledger invariants (single-flight caching makes them exact):
/// `object_hits + object_misses == object_lookups`,
/// `object_computes == object_misses`, and likewise for links.
/// Eviction counters are per-context when the context owns its caches
/// and store-global when it borrows a shared [`ObjectStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Object-cache hits (modules reused instead of recompiled).
    pub object_hits: u64,
    /// Object-cache misses (modules actually compiled).
    pub object_misses: u64,
    /// Object-cache lookups (`hits + misses`).
    pub object_lookups: u64,
    /// Compile closures actually executed (`== object_misses`).
    pub object_computes: u64,
    /// Objects evicted to stay within capacity.
    pub object_evictions: u64,
    /// Link-cache hits (duplicate assignments that reused a
    /// `LinkedProgram`).
    pub link_hits: u64,
    /// Link-cache misses (links actually performed).
    pub link_misses: u64,
    /// Link-cache lookups (`hits + misses`).
    pub link_lookups: u64,
    /// Link closures actually executed (`== link_misses`).
    pub link_computes: u64,
    /// Linked programs evicted to stay within capacity.
    pub link_evictions: u64,
}

/// A context's attachment to a shared [`ObjectStore`]: the content
/// fingerprints that scope this context's keys, plus per-context
/// hit/miss attribution so each experiment row still balances its own
/// `links + link_reuses == runs` ledger even when the resident objects
/// are shared process-wide.
struct StoreBinding {
    store: Arc<ObjectStore>,
    compiler_fp: u64,
    /// Content fingerprint per module slot (`ir.modules` order).
    module_fps: Vec<u64>,
    link_fp: u64,
    object_hits: AtomicU64,
    object_misses: AtomicU64,
    link_hits: AtomicU64,
    link_misses: AtomicU64,
}

/// Everything needed to evaluate a compilation choice on one program,
/// one architecture, and one input.
pub struct EvalContext {
    /// The outlined program (J hot-loop modules + non-loop module).
    pub ir: ProgramIr,
    /// The compiler under tuning.
    pub compiler: Compiler,
    /// The platform.
    pub arch: Architecture,
    /// Time-steps per run (from the input config).
    pub steps: u32,
    /// Root seed for measurement noise; evaluation `k` uses
    /// `derive_seed_idx(noise_root, k)`.
    pub noise_root: u64,
    /// Object cache: each `(module, CV)` pair is compiled once, like
    /// the build-system object reuse of the paper's prototype.
    cache: ObjectCache,
    /// Link cache: each distinct assignment (by per-module CV digest
    /// fingerprint) is linked once; `link` is deterministic, so only
    /// the noise-seeded execution differs between duplicates.
    links: LinkCache,
    /// When set, the context borrows a process-wide [`ObjectStore`]
    /// instead of its own caches, de-duplicating compiles and links
    /// across contexts (fault quarantine stays per-context).
    store: Option<StoreBinding>,
    /// Memoized `-O3` baseline: `(repeats, mean time)` of the first
    /// measurement. Random, FR, and CFR all re-ask for the same
    /// 10-repeat baseline; measuring it once changes no value.
    baseline_memo: OnceLock<(u32, f64)>,
    /// Memoized [`BatchPlan`] for this context's `(program, arch,
    /// run-shape)` triple: every candidate of the zero-fault batched
    /// evaluation path shares it.
    batch_plan: OnceLock<BatchPlan>,
    /// Number of executions performed through this context.
    runs: AtomicU64,
    /// Simulated machine time spent in those executions, nanoseconds.
    machine_nanos: AtomicU64,
    /// Injected-fault model (all-zero by default: the infallible
    /// toolchain every golden value was locked against).
    faults: FaultModel,
    /// Retry/timeout policy of the resilient evaluation paths.
    resilience: ResilienceConfig,
    /// Optional fault-rate circuit breaker (see [`crate::breaker`]).
    /// `None` (the default) keeps the legacy behavior and ledger
    /// bit-for-bit; installing one degrades gracefully under systemic
    /// fault bursts without changing any measured value.
    breaker: Option<CircuitBreaker>,
    /// Reference time (f64 bits; 0 = unset) from which timeout budgets
    /// are derived. Set once from the `-O3` baseline so budgets do not
    /// depend on the completion order of parallel batches.
    timeout_ref_bits: AtomicU64,
    /// Shared quarantine of known-bad compile pairs and hanging
    /// programs, safe for concurrent phases (read-mostly `RwLock`s).
    quarantine: FaultQuarantine,
    /// Executions that completed with a finite measurement.
    ok_runs: AtomicU64,
    /// Evaluations aborted by a compile-stage ICE.
    compile_failures: AtomicU64,
    /// Executions that crashed.
    crashes: AtomicU64,
    /// Executions killed at their timeout budget.
    timeouts: AtomicU64,
    /// Re-executions after transient crashes.
    retries: AtomicU64,
    /// Evaluations short-circuited by a quarantine list.
    quarantine_skips: AtomicU64,
    /// When attached, [`crate::search::SearchDriver`] batches are
    /// sharded across this plane's workers instead of evaluated
    /// locally; the plane's merged worker ledger is folded into
    /// [`EvalContext::cost`] and [`EvalContext::fault_stats`].
    remote: Option<Arc<crate::remote::RemotePlane>>,
    /// What the searches driven through this context optimize. The
    /// default [`Objective::Time`] reproduces every pre-objective
    /// golden value bit-for-bit; measurement itself never depends on
    /// the objective — only winner selection and reporting do.
    objective: Objective,
}

impl EvalContext {
    /// Builds a context. The compiler's target must match the
    /// architecture.
    pub fn new(
        ir: ProgramIr,
        compiler: Compiler,
        arch: Architecture,
        steps: u32,
        noise_root: u64,
    ) -> Self {
        assert_eq!(
            compiler.target().max_vector_bits,
            arch.target.max_vector_bits,
            "compiler target does not match architecture"
        );
        EvalContext {
            ir,
            compiler,
            arch,
            steps,
            noise_root,
            cache: ObjectCache::new(),
            links: LinkCache::new(),
            store: None,
            baseline_memo: OnceLock::new(),
            batch_plan: OnceLock::new(),
            runs: AtomicU64::new(0),
            machine_nanos: AtomicU64::new(0),
            faults: FaultModel::zero(),
            resilience: ResilienceConfig::default(),
            breaker: None,
            timeout_ref_bits: AtomicU64::new(0),
            quarantine: FaultQuarantine::new(),
            ok_runs: AtomicU64::new(0),
            compile_failures: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            quarantine_skips: AtomicU64::new(0),
            remote: None,
            objective: Objective::Time,
        }
    }

    /// Sets the tuning objective. Measurement is objective-independent
    /// (every candidate is always scored on both time and code bytes);
    /// the objective decides comparisons, winner selection, and what
    /// [`crate::result::TuningResult`] reports.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// The tuning objective searches through this context optimize.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Installs a fault model. The flag space's `-O3` baseline CV is
    /// always exempted: the paper's testbed never saw its production
    /// compiler ICE on default flags, and the exemption keeps the
    /// baseline denominator of every speedup finite.
    pub fn with_faults(mut self, faults: FaultModel) -> Self {
        let mut faults = faults;
        faults.exempt_digest = Some(self.compiler.space().baseline().digest());
        self.faults = faults;
        self
    }

    /// Overrides the retry/timeout policy.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Installs a fault-rate circuit breaker. While tripped, the
    /// context disallows the batched fast path and widens its timeout
    /// budget by the breaker's scale — both value-safe degradations
    /// (the scalar path is bit-identical and hang outcomes are decided
    /// by the fault model, not the budget).
    pub fn with_breaker(mut self, config: crate::breaker::BreakerConfig) -> Self {
        self.breaker = Some(CircuitBreaker::new(config));
        self
    }

    /// The installed circuit breaker, if any.
    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.breaker.as_ref()
    }

    /// Whether the batched evaluation fast path is currently allowed
    /// (always, unless an installed breaker has tripped).
    pub fn batched_allowed(&self) -> bool {
        self.breaker
            .as_ref()
            .is_none_or(CircuitBreaker::allows_batched)
    }

    /// Bounds the context-owned caches: least-recently-used objects
    /// and linked programs are evicted past `capacity`. Compilation
    /// and linking are pure functions of their keys, so eviction only
    /// forces bit-identical recomputation — results never change, only
    /// the cost counters (proved by the `cache_equivalence` suite).
    /// Replaces the caches; call before any evaluation.
    pub fn with_cache_capacity(mut self, capacity: CacheCapacity) -> Self {
        self.cache = ObjectCache::with_capacity(capacity);
        self.links = LinkCache::with_capacity(capacity);
        self
    }

    /// Borrows a process-wide [`ObjectStore`] instead of the
    /// context-owned caches, de-duplicating compiles and links across
    /// every context bound to the same store. Keys are content
    /// fingerprints (compiler, module content, program + architecture),
    /// so contexts for different programs, inputs, or toolchains can
    /// never collide. The fault quarantine stays per-context.
    pub fn with_shared_store(mut self, store: Arc<ObjectStore>) -> Self {
        debug_assert!(
            self.ir.modules.iter().enumerate().all(|(i, m)| m.id == i),
            "module ids must be positional"
        );
        let compiler_fp = store::compiler_fingerprint(&self.compiler);
        let module_fps = self
            .ir
            .modules
            .iter()
            .map(store::module_fingerprint)
            .collect();
        let link_fp = store::link_fingerprint(&self.ir, &self.arch, compiler_fp);
        self.store = Some(StoreBinding {
            store,
            compiler_fp,
            module_fps,
            link_fp,
            object_hits: AtomicU64::new(0),
            object_misses: AtomicU64::new(0),
            link_hits: AtomicU64::new(0),
            link_misses: AtomicU64::new(0),
        });
        self
    }

    /// The shared store this context borrows, if any.
    pub fn shared_store(&self) -> Option<&Arc<ObjectStore>> {
        self.store.as_ref().map(|b| &b.store)
    }

    /// Attaches a distributed evaluation plane: search-driver batches
    /// are sharded across its workers, and the workers' merged ledger
    /// is folded into [`EvalContext::cost`] / [`EvalContext::fault_stats`].
    /// Baseline and collection probes stay local to this context.
    /// Like cache capacity, the plane is a topology choice, not
    /// checkpoint identity — every measured bit is worker-count
    /// invariant (the `topology_equivalence` suite).
    pub fn with_remote(mut self, plane: Arc<crate::remote::RemotePlane>) -> Self {
        self.remote = Some(plane);
        self
    }

    /// The attached distributed evaluation plane, if any.
    pub fn remote_plane(&self) -> Option<&Arc<crate::remote::RemotePlane>> {
        self.remote.as_ref()
    }

    /// The installed fault model.
    pub fn faults(&self) -> &FaultModel {
        &self.faults
    }

    /// The installed retry/timeout policy.
    pub fn resilience(&self) -> ResilienceConfig {
        self.resilience
    }

    /// Sets the reference time from which timeout budgets are derived
    /// (normally the `-O3` baseline, set once right after measuring
    /// it). Until set, a hung run falls back to charging
    /// [`ft_machine::DEFAULT_HANG_CHARGE_FACTOR`]× its own healthy
    /// time.
    pub fn set_timeout_reference(&self, seconds: f64) {
        self.timeout_ref_bits
            .store(seconds.to_bits(), Ordering::Relaxed);
    }

    /// The current timeout budget in seconds, if a reference is set.
    /// A tripped circuit breaker widens the budget by its scale — the
    /// budget only decides what a (fault-model-decided) hang is
    /// *charged*, so the widening changes the cost ledger, never a
    /// measured value.
    pub fn timeout_budget(&self) -> Option<f64> {
        let bits = self.timeout_ref_bits.load(Ordering::Relaxed);
        if bits == 0 {
            None
        } else {
            let scale = self
                .breaker
                .as_ref()
                .map_or(1.0, CircuitBreaker::timeout_scale);
            Some(f64::from_bits(bits) * self.resilience.timeout_factor * scale)
        }
    }

    /// Fault/recovery counters so far (local work plus, when a remote
    /// plane is attached, the merged worker deltas — the merge is the
    /// same commutative [`FaultStats::merge`] the phase DAG uses).
    pub fn fault_stats(&self) -> FaultStats {
        let local = FaultStats {
            compile_failures: self.compile_failures.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            quarantined: self.quarantine_skips.load(Ordering::Relaxed),
            ok_runs: self.ok_runs.load(Ordering::Relaxed),
        };
        match &self.remote {
            None => local,
            Some(plane) => {
                let d = plane.ledger_totals();
                local.merge(&FaultStats {
                    compile_failures: d.compile_failures,
                    crashes: d.crashes,
                    timeouts: d.timeouts,
                    retries: d.retries,
                    quarantined: d.quarantined,
                    ok_runs: d.ok_runs,
                })
            }
        }
    }

    /// The quarantine lists, sorted for deterministic serialization:
    /// known-bad `(module, CV digest)` pairs and known-hanging program
    /// fingerprints.
    pub fn quarantine_snapshot(&self) -> (Vec<(usize, u64)>, Vec<u64>) {
        self.quarantine.snapshot()
    }

    /// Re-seeds the quarantine lists (campaign resume).
    pub fn restore_quarantine(&self, compiles: &[(usize, u64)], programs: &[u64]) {
        self.quarantine.restore(compiles, programs);
    }

    /// Compiles one module through the caching layer this context is
    /// configured with: the shared [`ObjectStore`] when bound, the
    /// context-owned [`ObjectCache`] otherwise. All compile paths
    /// funnel through here, so hit/miss attribution is uniform.
    fn compile_module_shared(&self, module: &Module, cv: &Cv) -> Arc<CompiledModule> {
        match &self.store {
            Some(b) => {
                let (obj, hit) =
                    b.store
                        .object(b.compiler_fp, b.module_fps[module.id], cv.digest(), || {
                            self.compiler.compile_module(module, cv)
                        });
                if hit {
                    b.object_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    b.object_misses.fetch_add(1, Ordering::Relaxed);
                }
                obj
            }
            None => self.cache.compile_arc(&self.compiler, module, cv),
        }
    }

    /// Owned-value variant of [`EvalContext::compile_module_shared`]
    /// for the link step, which takes its objects by value.
    fn compile_module_owned(&self, module: &Module, cv: &Cv) -> CompiledModule {
        (*self.compile_module_shared(module, cv)).clone()
    }

    /// Links a digest-keyed assignment through the configured caching
    /// layer, compiling via `objects` only on a miss.
    fn link_digests(
        &self,
        digests: &[u64],
        objects: impl FnOnce() -> Vec<CompiledModule>,
    ) -> Arc<LinkedProgram> {
        match &self.store {
            Some(b) => {
                assert_eq!(
                    digests.len(),
                    self.ir.modules.len(),
                    "one digest per module"
                );
                let (linked, hit) = b.store.link(b.link_fp, digests, || {
                    let linked = link(objects(), &self.ir, &self.arch);
                    debug_assert!(
                        linked
                            .modules
                            .iter()
                            .map(|m| m.cv_digest)
                            .eq(digests.iter().copied()),
                        "objects() disagrees with the digest key"
                    );
                    linked
                });
                if hit {
                    b.link_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    b.link_misses.fetch_add(1, Ordering::Relaxed);
                }
                linked
            }
            None => self.links.link_with(digests, &self.ir, &self.arch, objects),
        }
    }

    /// Counters of the object and link caching layers. With a shared
    /// store, hits/misses are this context's own lookups (so per-row
    /// ledgers still balance) while evictions are store-global.
    pub fn cache_stats(&self) -> CacheStats {
        match &self.store {
            Some(b) => {
                let object_hits = b.object_hits.load(Ordering::Relaxed);
                let object_misses = b.object_misses.load(Ordering::Relaxed);
                let link_hits = b.link_hits.load(Ordering::Relaxed);
                let link_misses = b.link_misses.load(Ordering::Relaxed);
                CacheStats {
                    object_hits,
                    object_misses,
                    object_lookups: object_hits + object_misses,
                    object_computes: object_misses,
                    object_evictions: b.store.object_stats().evictions,
                    link_hits,
                    link_misses,
                    link_lookups: link_hits + link_misses,
                    link_computes: link_misses,
                    link_evictions: b.store.link_stats().evictions,
                }
            }
            None => {
                let o = self.cache.lru_stats();
                let l = self.links.lru_stats();
                CacheStats {
                    object_hits: o.hits,
                    object_misses: o.misses,
                    object_lookups: o.lookups,
                    object_computes: o.computes,
                    object_evictions: o.evictions,
                    link_hits: l.hits,
                    link_misses: l.misses,
                    link_lookups: l.lookups,
                    link_computes: l.computes,
                    link_evictions: l.evictions,
                }
            }
        }
    }

    /// High-water marks `(objects, links)` of resident entries in the
    /// caching layer this context evaluates through.
    pub fn cache_peaks(&self) -> (u64, u64) {
        match &self.store {
            Some(b) => b.store.peak_resident(),
            None => (self.cache.peak_resident(), self.links.peak_resident()),
        }
    }

    /// Links a per-module assignment through both caches.
    pub fn linked_assignment(&self, assignment: &[Cv]) -> Arc<LinkedProgram> {
        assert_eq!(assignment.len(), self.ir.len(), "one CV per module");
        let digests: Vec<u64> = assignment.iter().map(|cv| cv.digest()).collect();
        self.link_digests(&digests, || {
            self.ir
                .modules
                .iter()
                .zip(assignment)
                .map(|(m, cv)| self.compile_module_owned(m, cv))
                .collect()
        })
    }

    /// Per-module CV digests of an interned candidate: the link-cache
    /// key and the fault model's input.
    fn candidate_digests(&self, pool: &CvPool, candidate: &Candidate) -> Vec<u64> {
        match candidate {
            Candidate::Uniform(id) => vec![pool.digest(*id); self.ir.len()],
            Candidate::PerLoop(ids) => {
                assert_eq!(ids.len(), self.ir.len(), "one CV per module");
                pool.digests(ids)
            }
        }
    }

    /// Links an interned candidate under its precomputed `digests`,
    /// compiling (through the object cache) only on a link miss.
    fn link_candidate_digests(
        &self,
        pool: &CvPool,
        candidate: &Candidate,
        digests: &[u64],
    ) -> Arc<LinkedProgram> {
        self.link_digests(digests, || {
            self.ir
                .modules
                .iter()
                .enumerate()
                .map(|(j, m)| {
                    let id = match candidate {
                        Candidate::Uniform(id) => *id,
                        Candidate::PerLoop(ids) => ids[j],
                    };
                    self.compile_module_owned(m, &pool.get(id))
                })
                .collect()
        })
    }

    /// The compile-and-link half of [`EvalContext::evaluate`], split
    /// out so the batched arm of
    /// [`crate::search::evaluate_proposals_scored`] can execute many
    /// linked candidates at once.
    pub(crate) fn link_candidate(
        &self,
        pool: &CvPool,
        candidate: &Candidate,
    ) -> Arc<LinkedProgram> {
        let digests = self.candidate_digests(pool, candidate);
        self.link_candidate_digests(pool, candidate, &digests)
    }

    /// The lane-oriented execution plan for this context's `(program,
    /// architecture, run-shape)` triple, built once on first use. The
    /// shape matches `ExecOptions::new(self.steps, _)` — exactly what
    /// the zero-fault, non-caliper evaluation paths run under.
    pub fn batch_plan(&self) -> &BatchPlan {
        self.batch_plan.get_or_init(|| {
            let shape = ExecShape::of(&ExecOptions::new(self.steps, 0));
            BatchPlan::new(&self.ir, &self.arch, shape)
        })
    }

    /// Executes W already-linked candidates through the batch plan,
    /// each under its own noise seed, charging the ledger one run per
    /// lane. Per lane, the returned time is bit-identical to
    /// `execute_total` under `ExecOptions::new(self.steps, seed)`.
    pub(crate) fn execute_linked_batch(&self, lanes: &[(&LinkedProgram, u64)]) -> Vec<f64> {
        let totals = execute_batch_total(self.batch_plan(), lanes);
        for t in &totals {
            self.charge_run(*t);
        }
        totals
    }

    /// The flag space being searched.
    pub fn space(&self) -> &FlagSpace {
        self.compiler.space()
    }

    /// Number of modules (J + 1).
    pub fn modules(&self) -> usize {
        self.ir.len()
    }

    /// Evaluates one uniform CV (traditional compilation model).
    pub fn eval_uniform(&self, cv: &Cv, noise_seed: u64) -> RunMeasurement {
        self.eval_assignment(&vec![cv.clone(); self.ir.len()], noise_seed)
    }

    /// Evaluates a per-module assignment (one CV per module).
    pub fn eval_assignment(&self, assignment: &[Cv], noise_seed: u64) -> RunMeasurement {
        let linked = self.linked_assignment(assignment);
        let meas = execute(
            &linked,
            &self.arch,
            &ExecOptions::new(self.steps, noise_seed),
        );
        self.charge(&meas);
        meas
    }

    /// Accounts an externally executed successful run (e.g. the PGO
    /// baseline's instrumented profiling run) against the ledger.
    pub fn charge_run(&self, seconds: f64) {
        self.ok_runs.fetch_add(1, Ordering::Relaxed);
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.machine_nanos
            .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
    }

    /// Accounts one run against the tuning-overhead ledger (§4.3).
    fn charge(&self, meas: &RunMeasurement) {
        self.ok_runs.fetch_add(1, Ordering::Relaxed);
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.machine_nanos
            .fetch_add((meas.total_s * 1e9) as u64, Ordering::Relaxed);
    }

    /// Accounts a failed execution: a crashed or killed run still
    /// occupied the machine for `seconds`, but produced no
    /// measurement, so it is charged without counting as successful.
    fn charge_failed(&self, seconds: f64) {
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.machine_nanos
            .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
    }

    /// This context's accumulated machine time in integer nanoseconds
    /// — local executions only, never the attached plane's (it is the
    /// unit workers ship in their ledger deltas, so the coordinator
    /// can sum exactly and convert to seconds once).
    pub fn machine_nanos_total(&self) -> u64 {
        self.machine_nanos.load(Ordering::Relaxed)
    }

    /// The raw timeout-reference bits (0 = unset) — what the
    /// coordinator stamps into every work batch so worker hang charges
    /// match the serial run.
    pub fn timeout_reference_bits(&self) -> u64 {
        self.timeout_ref_bits.load(Ordering::Relaxed)
    }

    /// Tuning-overhead ledger so far (see [`crate::cost::TuningCost`]).
    /// With a remote plane attached, the workers' merged deltas are
    /// folded in: fault counters arrive through the already-merged
    /// [`EvalContext::fault_stats`], cache and run counters are added
    /// here, and machine time is summed in integer nanoseconds before
    /// the single conversion to seconds — so the merged total is
    /// bit-identical to a serial run's.
    pub fn cost(&self) -> crate::cost::TuningCost {
        let stats = self.cache_stats();
        let faults = self.fault_stats();
        let plane = self
            .remote
            .as_ref()
            .map(|p| p.ledger_totals())
            .unwrap_or_default();
        let nanos = self.machine_nanos.load(Ordering::Relaxed) + plane.machine_nanos;
        crate::cost::TuningCost {
            object_compiles: stats.object_misses + plane.object_compiles,
            object_reuses: stats.object_hits + plane.object_reuses,
            object_evictions: stats.object_evictions + plane.object_evictions,
            links: stats.link_misses + plane.links,
            link_reuses: stats.link_hits + plane.link_reuses,
            link_evictions: stats.link_evictions + plane.link_evictions,
            runs: self.runs.load(Ordering::Relaxed) + plane.runs,
            machine_seconds: nanos as f64 * 1e-9,
            compile_failures: faults.compile_failures,
            crashes: faults.crashes,
            timeouts: faults.timeouts,
            retries: faults.retries,
            quarantined: faults.quarantined,
            breaker_trips: self.breaker.as_ref().map_or(0, CircuitBreaker::trips),
        }
    }

    /// The `-O3` baseline end-to-end time (mean of `repeats` runs, as
    /// the paper averages 10 experiments).
    ///
    /// The first measurement is memoized: every search algorithm asks
    /// for the same baseline, and each run's time is a pure function
    /// of its derived noise seed, so re-measuring cannot change the
    /// answer. A call with a *different* repeat count bypasses the
    /// memo and measures (without replacing the stored value).
    pub fn baseline_time(&self, repeats: u32) -> f64 {
        if let Some((memo_repeats, t)) = self.baseline_memo.get() {
            if *memo_repeats == repeats {
                return *t;
            }
            return self.measure_baseline(repeats);
        }
        let t = self
            .baseline_memo
            .get_or_init(|| (repeats, self.measure_baseline(repeats)))
            .1;
        // The first memoized baseline doubles as the timeout
        // reference: every fault-aware path thereafter kills a hung
        // run at `timeout_factor` times the baseline. (Idempotent
        // under concurrent callers: the memo fixes `t`.)
        if self.timeout_ref_bits.load(Ordering::Relaxed) == 0 {
            self.set_timeout_reference(t);
        }
        t
    }

    /// Runs the baseline repeats in parallel. The per-repeat times are
    /// collected in index order and summed serially, so the f64 result
    /// is bit-identical to the sequential loop it replaces.
    fn measure_baseline(&self, repeats: u32) -> f64 {
        let base = self.space().baseline();
        let times: Vec<f64> = (0..repeats as usize)
            .into_par_iter()
            .map(|r| {
                self.eval_uniform(&base, derive_seed_idx(self.noise_root ^ 0xBA5E, r as u64))
                    .total_s
            })
            .collect();
        times.iter().sum::<f64>() / f64::from(repeats.max(1))
    }

    /// The per-candidate evaluation funnel: compile → link → execute
    /// one interned candidate under `noise_seed`. Every scalar search
    /// evaluation and every collection probe runs through here.
    ///
    /// A successful run pairs its end-to-end time with the linked
    /// executable's modeled size ([`LinkedProgram::weight_bytes`], a
    /// pure function of the digest assignment); an unusable candidate
    /// (ICE, persistent crash, hang) is [`Score::faulted`] (both
    /// coordinates `+inf`), so it loses under every objective.
    ///
    /// * Compile gate: a `(module, CV)` pair that ICEs produces no
    ///   object — nothing links, nothing runs, nothing is charged, and
    ///   the pair is quarantined so no later phase re-rolls it.
    /// * Hang gate: a program fingerprint that previously timed out is
    ///   skipped outright.
    /// * Execution: the first attempt uses exactly the caller's noise
    ///   seed (so the all-zero model reproduces today's measurements
    ///   bit-for-bit); a transient crash is charged its partial time
    ///   and retried up to `max_retries` times under fresh derived
    ///   seeds; a hang is charged its full timeout budget and
    ///   quarantines the fingerprint.
    ///
    /// With a caliper, successful attempts run instrumented and record
    /// per-module times into it (the Figure-4 collection path).
    ///
    /// The ledger and quarantine are updated here; the circuit breaker
    /// is not. The returned [`Attempts`] are the breaker-visible
    /// outcomes, which the batch caller records in proposal order once
    /// its parallel map is done.
    pub(crate) fn evaluate(
        &self,
        pool: &CvPool,
        candidate: &Candidate,
        noise_seed: u64,
        caliper: Option<&Caliper>,
    ) -> (Score, Attempts) {
        let digests = self.candidate_digests(pool, candidate);
        if self.faults.is_zero() {
            let linked = self.link_candidate_digests(pool, candidate, &digests);
            let total_s = match caliper {
                Some(c) => {
                    execute_profiled(
                        &linked,
                        &self.arch,
                        &ExecOptions::instrumented(self.steps, noise_seed),
                        c,
                    )
                    .total_s
                }
                // Only the end-to-end time is kept, so skip the
                // per-module vector allocation entirely (bit-identical
                // sum order).
                None => execute_total(
                    &linked,
                    &self.arch,
                    &ExecOptions::new(self.steps, noise_seed),
                ),
            };
            self.charge_run(total_s);
            return (
                Score::new(total_s, linked.weight_bytes()),
                Attempts::ended(0, false),
            );
        }
        for (module, digest) in digests.iter().enumerate() {
            if self.quarantine.compile_is_bad(module, *digest) {
                self.quarantine_skips.fetch_add(1, Ordering::Relaxed);
                return (Score::faulted(), Attempts::default());
            }
            if self.faults.compile_fails(module, *digest) {
                self.compile_failures.fetch_add(1, Ordering::Relaxed);
                self.quarantine.ban_compile(module, *digest);
                return (Score::faulted(), Attempts::default());
            }
        }
        let fp = FaultModel::program_fingerprint(&digests);
        if self.quarantine.program_is_bad(fp) {
            self.quarantine_skips.fetch_add(1, Ordering::Relaxed);
            return (Score::faulted(), Attempts::default());
        }
        let linked = self.link_candidate_digests(pool, candidate, &digests);
        let budget = self.timeout_budget();
        let mut crashes = 0;
        for attempt in 0..=self.resilience.max_retries {
            let seed = if attempt == 0 {
                noise_seed
            } else {
                derive_seed_idx(noise_seed ^ SALT_RETRY, u64::from(attempt))
            };
            let outcome = match caliper {
                Some(c) => try_execute_profiled(
                    &linked,
                    &self.arch,
                    &ExecOptions::instrumented(self.steps, seed),
                    &self.faults,
                    budget,
                    c,
                ),
                None => try_execute(
                    &linked,
                    &self.arch,
                    &ExecOptions::new(self.steps, seed),
                    &self.faults,
                    budget,
                ),
            };
            match outcome {
                RunOutcome::Ok(meas) => {
                    self.charge(&meas);
                    return (
                        Score::new(meas.total_s, linked.weight_bytes()),
                        Attempts::ended(crashes, false),
                    );
                }
                RunOutcome::Crash { elapsed_s } => {
                    self.crashes.fetch_add(1, Ordering::Relaxed);
                    self.charge_failed(elapsed_s);
                    crashes += 1;
                    if attempt < self.resilience.max_retries {
                        self.retries.fetch_add(1, Ordering::Relaxed);
                    }
                }
                RunOutcome::Timeout { budget_s } => {
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                    self.charge_failed(budget_s);
                    self.quarantine.ban_program(fp);
                    return (Score::faulted(), Attempts::ended(crashes, true));
                }
                RunOutcome::CompileError { .. } => {
                    unreachable!("compile faults are gated before linking")
                }
            }
        }
        (
            Score::faulted(),
            Attempts {
                crashes,
                last: None,
            },
        )
    }
}

/// Test fixture shared by this crate's unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use ft_outline::outline_with_defaults;
    use ft_workloads::workload_by_name;

    /// Builds a Broadwell evaluation context for one benchmark,
    /// optionally overriding the step count to keep tests fast.
    pub(crate) fn ctx_for(bench: &str, steps_override: Option<u32>) -> EvalContext {
        let arch = Architecture::broadwell();
        let compiler = Compiler::icc(arch.target);
        let w = workload_by_name(bench).unwrap();
        let input = w.tuning_input(arch.name).clone();
        let ir = w.instantiate(&input);
        let steps = steps_override.unwrap_or(input.steps);
        let (outlined, _) = outline_with_defaults(&ir, &compiler, &arch, steps, 11);
        EvalContext::new(outlined.ir, Compiler::icc(arch.target), arch, steps, 99)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::ctx_for;
    use super::*;
    use crate::search::{evaluate_proposals_scored, EvalMode, Proposal};
    use ft_flags::rng::rng_for;

    /// Evaluates uniform CVs through the batch entry point on the
    /// per-candidate route, candidate `k` under
    /// `derive_seed_idx(noise_root, k)`.
    fn uniform_batch(ctx: &EvalContext, cvs: &[Cv]) -> Vec<f64> {
        let pool = CvPool::new();
        let proposals: Vec<Proposal> = pool
            .intern_all(cvs)
            .into_iter()
            .enumerate()
            .map(|(k, id)| {
                Proposal::new(
                    Candidate::Uniform(id),
                    derive_seed_idx(ctx.noise_root, k as u64),
                )
            })
            .collect();
        evaluate_proposals_scored(ctx, &pool, &proposals, EvalMode::Scalar)
            .into_iter()
            .map(|s| s.time)
            .collect()
    }

    #[test]
    fn uniform_eval_is_deterministic() {
        let ctx = ctx_for("swim", Some(5));
        let cv = ctx.space().sample(&mut rng_for(1, "c"));
        assert_eq!(
            ctx.eval_uniform(&cv, 5).total_s,
            ctx.eval_uniform(&cv, 5).total_s
        );
    }

    #[test]
    fn batch_matches_individual() {
        let ctx = ctx_for("swim", Some(5));
        let cvs = ctx.space().sample_many(8, &mut rng_for(2, "b"));
        let batch = uniform_batch(&ctx, &cvs);
        for (k, cv) in cvs.iter().enumerate() {
            let single = ctx.eval_uniform(cv, derive_seed_idx(ctx.noise_root, k as u64));
            assert_eq!(batch[k], single.total_s);
        }
    }

    #[test]
    fn baseline_time_is_positive_and_stable() {
        let ctx = ctx_for("swim", Some(5));
        let t = ctx.baseline_time(5);
        assert!(t > 0.1 && t < 100.0, "t = {t}");
        // Averaging suppresses noise: two different averages are close.
        let t2 = ctx.baseline_time(10);
        assert!((t - t2).abs() / t < 0.01);
    }

    #[test]
    fn baseline_costs_exactly_one_compile_per_module() {
        // The 10 baseline repeats share one digest vector: single-flight
        // caching must link once and compile each module exactly once,
        // no matter how the rayon repeats race.
        let ctx = ctx_for("swim", Some(5));
        let _ = ctx.baseline_time(10);
        let cost = ctx.cost();
        assert_eq!(
            cost.object_compiles,
            ctx.modules() as u64,
            "baseline must compile each module exactly once: {cost:?}"
        );
        assert_eq!(cost.links, 1, "one baseline link: {cost:?}");
        assert_eq!(cost.link_reuses, 9, "nine memoized repeats: {cost:?}");
        assert_eq!(cost.runs, 10);
        // Re-asking for the memoized baseline does no cache work at all.
        let _ = ctx.baseline_time(10);
        assert_eq!(ctx.cost().object_compiles, cost.object_compiles);
        assert_eq!(ctx.cost().links + ctx.cost().link_reuses, 10);
    }

    #[test]
    fn cache_ledger_balances() {
        let ctx = ctx_for("swim", Some(5));
        let cvs = ctx.space().sample_many(12, &mut rng_for(3, "ledger"));
        let _ = uniform_batch(&ctx, &cvs);
        let s = ctx.cache_stats();
        assert_eq!(s.object_hits + s.object_misses, s.object_lookups);
        assert_eq!(s.object_computes, s.object_misses);
        assert_eq!(s.link_hits + s.link_misses, s.link_lookups);
        assert_eq!(s.link_computes, s.link_misses);
        assert_eq!(s.object_evictions, 0, "unbounded context never evicts");
    }

    #[test]
    fn bounded_context_evaluates_bit_identically() {
        let unbounded = ctx_for("swim", Some(5));
        let bounded = ctx_for("swim", Some(5)).with_cache_capacity(CacheCapacity::Entries(1));
        let cvs = unbounded.space().sample_many(16, &mut rng_for(4, "cap"));
        assert_eq!(
            uniform_batch(&unbounded, &cvs),
            uniform_batch(&bounded, &cvs),
            "eviction must never change a measurement"
        );
        let s = bounded.cache_stats();
        assert!(
            s.object_evictions > 0 || s.link_evictions > 0,
            "capacity-1 caches must evict: {s:?}"
        );
    }

    #[test]
    fn shared_store_contexts_measure_identically_and_dedup() {
        let owned = ctx_for("swim", Some(5));
        let store = Arc::new(ObjectStore::new());
        let a = ctx_for("swim", Some(5)).with_shared_store(store.clone());
        let b = ctx_for("swim", Some(5)).with_shared_store(store.clone());
        let cvs = owned.space().sample_many(10, &mut rng_for(5, "share"));
        let t_owned = uniform_batch(&owned, &cvs);
        let t_a = uniform_batch(&a, &cvs);
        let t_b = uniform_batch(&b, &cvs);
        assert_eq!(t_owned, t_a, "store borrow must not change results");
        assert_eq!(t_a, t_b);
        // The second context compiled and linked nothing: every link
        // lookup hit the programs the first context installed, so the
        // object layer was never even consulted.
        let sb = b.cache_stats();
        assert_eq!(sb.link_misses, 0, "{sb:?}");
        assert!(sb.link_hits > 0, "{sb:?}");
        assert_eq!(sb.object_lookups, 0, "{sb:?}");
        // Store-wide, each (module, CV) pair compiled exactly once.
        assert_eq!(store.object_stats().computes, a.cache_stats().object_misses);
    }

    #[test]
    #[should_panic(expected = "does not match architecture")]
    fn mismatched_target_rejected() {
        let ctx = ctx_for("swim", Some(5));
        let _ = EvalContext::new(
            ctx.ir.clone(),
            Compiler::icc(ft_compiler::Target::sse_128()),
            Architecture::broadwell(),
            5,
            0,
        );
    }
}
