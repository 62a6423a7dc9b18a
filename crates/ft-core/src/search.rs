//! The unified search substrate: every tuner — the paper's CFR family
//! and the baselines it is compared against — is a [`SearchStrategy`]
//! driven by one [`SearchDriver`].
//!
//! A strategy never touches the evaluation machinery directly. It
//! proposes [`Candidate`]s as interned [`CvId`] handles (uniform
//! whole-program CVs or per-loop assignments), each carrying the noise
//! seed its historical RNG stream dictates; the driver evaluates them
//! through [`evaluate_proposals_scored`] (sharded caches, fault
//! quarantine, the [`crate::cost::TuningCost`] ledger), records the
//! timeline uniformly, feeds observations back, and only materializes
//! the winning `Cv`s once, at the end. Collection is a driver service
//! too: a strategy may request per-loop timers for any candidate set
//! (see [`crate::collection::collect_candidates`]) — this is what lets
//! iterative CFR re-collect under a non-uniform incumbent.
//!
//! The port onto this trait is provably behavior-preserving: the
//! per-strategy RNG-stream pinning tests (`strategy_pinning.rs` in
//! ft-core and ft-baselines) hold every strategy to the exact
//! `(evaluations, timeline digest, winner digest, best_time bits)`
//! captured from the pre-trait implementations.

use crate::breaker::Attempts;
use crate::collection::{collect_candidates, MixedCollection};
use crate::ctx::EvalContext;
use crate::objective::{pareto_front, Objective, Score};
use crate::par::par_map;
use crate::result::{best_so_far, ParetoPoint, TuningResult};
use ft_compiler::lru::CacheWeight;
use ft_flags::{Cv, CvId, CvPool};
use ft_machine::LinkedProgram;
use std::sync::Arc;

/// One search point, in interned form. Losing candidates never leave
/// this representation; only the winner is materialized back to owned
/// [`Cv`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Candidate {
    /// Every module compiled with the same CV (per-program search).
    Uniform(CvId),
    /// One CV per module (per-loop search); length must equal the
    /// context's module count.
    PerLoop(Vec<CvId>),
}

/// A candidate plus the noise seed it must be executed under. Seeds
/// are chosen by the strategy, not the driver, because every ported
/// strategy carries its own historical seed formula (plain index,
/// `^ 0xA551`, `^ 0xADA`, CE's evaluation counter, ...) that the
/// pinning tests hold bit-exact.
#[derive(Debug, Clone)]
pub struct Proposal {
    pub candidate: Candidate,
    pub noise_seed: u64,
}

impl Proposal {
    pub fn new(candidate: Candidate, noise_seed: u64) -> Self {
        Proposal {
            candidate,
            noise_seed,
        }
    }
}

/// One evaluated proposal, handed back to the strategy in proposal
/// order.
#[derive(Debug)]
pub struct Observation<'a> {
    /// Global index into the driver timeline.
    pub index: usize,
    pub candidate: &'a Candidate,
    /// End-to-end seconds; `+inf` marks a candidate the resilient
    /// harness gave up on.
    pub time: f64,
    /// Modeled executable size of the linked candidate; `+inf` for a
    /// faulted one (it produced nothing to measure).
    pub code_bytes: f64,
}

impl Observation<'_> {
    /// The observation as a [`Score`] (what objective-aware strategies
    /// compare through).
    pub fn score(&self) -> Score {
        Score::new(self.time, self.code_bytes)
    }
}

/// A strategy's request for per-loop timers (the Figure-4 collection
/// as a driver service). Probes charge the context ledger like any
/// evaluation but do not enter the search timeline.
#[derive(Debug, Clone)]
pub struct CollectionRequest {
    pub candidates: Vec<Candidate>,
    pub seed: u64,
}

/// The driver-side record of everything evaluated so far.
#[derive(Debug, Default)]
pub struct History {
    candidates: Vec<Candidate>,
    times: Vec<f64>,
    scores: Vec<Score>,
}

impl History {
    pub fn len(&self) -> usize {
        self.times.len()
    }

    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Every observed end-to-end time, in evaluation order.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Every observed [`Score`], in evaluation order. Same length as
    /// [`History::times`]; `scores()[i].time == times()[i]` always.
    pub fn scores(&self) -> &[Score] {
        &self.scores
    }

    pub fn candidate(&self, index: usize) -> &Candidate {
        &self.candidates[index]
    }

    fn push(&mut self, candidate: Candidate, score: Score) {
        self.candidates.push(candidate);
        self.times.push(score.time);
        self.scores.push(score);
    }
}

/// A search method: proposes interned candidates, observes their
/// measured times, and (optionally) selects the winner itself.
///
/// The driver calls `propose` → evaluate → `observe` (then serves any
/// `collect_request`) until `propose` returns no candidates, then
/// calls `finish`. The default `finish` ships the first strict
/// [`argmin_finite`] of the timeline — what the CFR-family strategies
/// want; baselines with bespoke winner semantics (CE's final base,
/// OpenTuner's tracked best, COBAYN's fallback round) override it.
pub trait SearchStrategy {
    /// Algorithm label recorded in the [`TuningResult`].
    fn name(&self) -> &str;

    /// The next batch of candidates, or empty to stop. Strategies
    /// intern their CVs through `pool`; an empty first batch panics in
    /// the driver (a search must evaluate something).
    fn propose(&mut self, pool: &CvPool, history: &History) -> Vec<Proposal>;

    /// Measured times for the latest batch, in proposal order.
    fn observe(&mut self, _pool: &CvPool, _results: &[Observation<'_>]) {}

    /// Ask the driver to collect per-loop timers for a candidate set
    /// (served after `observe`, before the next `propose`).
    fn collect_request(&mut self, _pool: &CvPool) -> Option<CollectionRequest> {
        None
    }

    /// The collection the driver ran for [`SearchStrategy::collect_request`].
    fn observe_collection(&mut self, _data: &MixedCollection) {}

    /// Select the winner. The default is the first strict finite
    /// minimum of the timeline, materialized once.
    fn finish(&mut self, ctx: &EvalContext, pool: &CvPool, history: &History) -> TuningResult {
        default_finish(self.name(), ctx, pool, history)
    }
}

/// How the driver executes an evaluation batch.
///
/// Both modes produce bit-identical times (pinned by the
/// `batch_equivalence` suites and the unchanged golden digests); they
/// differ only in throughput. `Batched` is the default; set
/// `FT_EVAL_MODE=scalar` to force the historical per-candidate path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Lane-oriented batch execution: link every proposal, then run
    /// W-wide chunks through the context's precomputed
    /// [`ft_machine::BatchPlan`]. Used for zero-fault contexts; a
    /// fault-injecting context falls back to `Scalar` (retries and
    /// quarantine are inherently per-candidate).
    #[default]
    Batched,
    /// One resilient `execute_total` per candidate.
    Scalar,
}

impl EvalMode {
    /// The mode the `FT_EVAL_MODE` environment variable selects
    /// (`scalar` forces the per-candidate path; anything else, or an
    /// unset variable, keeps the batched default).
    pub fn from_env() -> Self {
        match std::env::var("FT_EVAL_MODE") {
            Ok(v) if v.eq_ignore_ascii_case("scalar") => EvalMode::Scalar,
            _ => EvalMode::Batched,
        }
    }
}

/// Lanes per `execute_batch_total` call: wide enough to amortize the
/// gather and keep the arithmetic pass vectorized, small enough that
/// chunks spread across the [`par_map`] threads.
const BATCH_CHUNK: usize = 64;

/// The single propose/evaluate/record loop behind every tuner.
pub struct SearchDriver<'a> {
    ctx: &'a EvalContext,
    pool: CvPool,
    eval_mode: EvalMode,
}

impl<'a> SearchDriver<'a> {
    pub fn new(ctx: &'a EvalContext) -> Self {
        SearchDriver {
            ctx,
            pool: CvPool::new(),
            eval_mode: EvalMode::from_env(),
        }
    }

    /// Overrides the evaluation mode (tests pin Batched ≡ Scalar with
    /// this; campaigns normally keep the env-selected default).
    pub fn with_eval_mode(mut self, mode: EvalMode) -> Self {
        self.eval_mode = mode;
        self
    }

    /// The driver's intern pool (shared with the strategy through
    /// `propose`).
    pub fn pool(&self) -> &CvPool {
        &self.pool
    }

    /// Runs the strategy to completion and returns its result.
    pub fn run<S: SearchStrategy + ?Sized>(&mut self, strategy: &mut S) -> TuningResult {
        let mut history = History::default();
        loop {
            let proposals = strategy.propose(&self.pool, &history);
            if proposals.is_empty() {
                break;
            }
            let start = history.len();
            let scores = self.evaluate_batch(&proposals);
            for (p, s) in proposals.into_iter().zip(&scores) {
                history.push(p.candidate, *s);
            }
            let observations: Vec<Observation<'_>> = scores
                .iter()
                .enumerate()
                .map(|(i, s)| Observation {
                    index: start + i,
                    candidate: history.candidate(start + i),
                    time: s.time,
                    code_bytes: s.code_bytes,
                })
                .collect();
            strategy.observe(&self.pool, &observations);
            if let Some(req) = strategy.collect_request(&self.pool) {
                let data = collect_candidates(self.ctx, &self.pool, &req.candidates, req.seed);
                strategy.observe_collection(&data);
            }
        }
        assert!(!history.is_empty(), "strategy proposed no candidates");
        strategy.finish(self.ctx, &self.pool, &history)
    }

    /// Evaluates one proposal batch, routing to the distributed plane
    /// when the context has one attached (`ftune tune --workers N`),
    /// and through [`evaluate_proposals_scored`] locally otherwise.
    /// Both routes are bit-identical: the plane's workers run the same
    /// [`evaluate_proposals_scored`] on the same (digests, noise seed)
    /// inputs, and candidates are pure functions of those inputs.
    fn evaluate_batch(&self, proposals: &[Proposal]) -> Vec<Score> {
        if let Some(plane) = self.ctx.remote_plane() {
            return plane.evaluate(&self.pool, proposals, self.ctx.timeout_reference_bits());
        }
        evaluate_proposals_scored(self.ctx, &self.pool, proposals, self.eval_mode)
    }
}

/// Evaluates a proposal batch against a context — the single
/// evaluation entry point, shared by the in-process driver and the
/// remote plane's workers (which is what makes a worker's bits
/// identical to a serial run by construction). Candidates are pure
/// functions of their (digests, noise seed) inputs and the ledger
/// counters are atomic, so both routes are observationally identical
/// to the sequential loop they replace — and bit-identical to each
/// other. Each candidate's `code_bytes` is its linked executable's
/// modeled size, a pure function of the digest assignment.
///
/// The batched route only serves infallible contexts: compile gates,
/// retries, and quarantine are per-candidate control flow that the
/// lane kernel deliberately excludes, so a fault-injecting context
/// stays on the scalar route through the context's per-candidate
/// funnel.
pub fn evaluate_proposals_scored(
    ctx: &EvalContext,
    pool: &CvPool,
    proposals: &[Proposal],
    mode: EvalMode,
) -> Vec<Score> {
    // A tripped circuit breaker also forces the scalar path: the
    // per-candidate route isolates, retries, and charges each
    // fault precisely, which is the breaker's whole point — and
    // the two paths are bit-identical, so degrading is value-safe.
    if mode == EvalMode::Scalar || !ctx.faults().is_zero() || !ctx.batched_allowed() {
        let evaluated: Vec<(Score, Attempts)> = par_map(proposals.len(), |i| {
            let p = &proposals[i];
            ctx.evaluate(pool, &p.candidate, p.noise_seed, None)
        });
        // The breaker advances only here, in proposal order.
        if let Some(b) = ctx.breaker() {
            for (_, attempts) in &evaluated {
                b.record_attempts(*attempts);
            }
        }
        return evaluated.into_iter().map(|(s, _)| s).collect();
    }
    // Link phase: compile + link every proposal through the caches
    // (deduplicated, single-flight), in parallel.
    let linked: Vec<Arc<LinkedProgram>> = par_map(proposals.len(), |i| {
        ctx.link_candidate(pool, &proposals[i].candidate)
    });
    let lanes: Vec<(&LinkedProgram, u64)> = linked
        .iter()
        .zip(proposals)
        .map(|(l, p)| (l.as_ref(), p.noise_seed))
        .collect();
    // Execute phase: W-wide lanes per chunk, chunks in parallel.
    let n_chunks = lanes.len().div_ceil(BATCH_CHUNK);
    let chunked: Vec<Vec<f64>> = par_map(n_chunks, |c| {
        let lo = c * BATCH_CHUNK;
        let hi = (lo + BATCH_CHUNK).min(lanes.len());
        ctx.execute_linked_batch(&lanes[lo..hi])
    });
    chunked
        .into_iter()
        .flatten()
        .zip(&linked)
        .map(|(t, l)| Score::new(t, l.weight_bytes()))
        .collect()
}

/// Materializes a candidate into the per-module `Vec<Cv>` a
/// [`TuningResult`] carries (a uniform winner repeats its CV across
/// all modules, as the pre-trait `finish_uniform` did).
pub fn materialize_candidate(ctx: &EvalContext, pool: &CvPool, c: &Candidate) -> Vec<Cv> {
    match c {
        Candidate::Uniform(id) => pool.materialize(&vec![*id; ctx.modules()]),
        Candidate::PerLoop(ids) => pool.materialize(ids),
    }
}

/// The Pareto front of a score timeline, materialized into the
/// reportable points a [`TuningResult`] carries. A pure function of
/// the (candidate, score) history — front membership cannot depend on
/// evaluation schedule, worker count, or resume boundaries.
pub fn pareto_points(ctx: &EvalContext, pool: &CvPool, history: &History) -> Vec<ParetoPoint> {
    pareto_front(history.scores())
        .into_iter()
        .map(|i| {
            let s = history.scores()[i];
            ParetoPoint {
                index: i,
                time: s.time,
                code_bytes: s.code_bytes,
                assignment: materialize_candidate(ctx, pool, history.candidate(i)),
            }
        })
        .collect()
}

/// The default winner selection shared by the CFR-family strategies:
/// the context objective's scalarized argmin over the score timeline
/// (under [`Objective::Time`] this is exactly the historical
/// [`argmin_finite`] over times), plus the dominance front when the
/// objective is [`Objective::Pareto`].
pub fn default_finish(
    name: &str,
    ctx: &EvalContext,
    pool: &CvPool,
    history: &History,
) -> TuningResult {
    let objective = ctx.objective();
    let (best_index, _key) = objective.select(history.scores());
    let best = history.scores()[best_index];
    let front = if objective == Objective::Pareto {
        pareto_points(ctx, pool, history)
    } else {
        Vec::new()
    };
    TuningResult {
        algorithm: name.into(),
        best_time: best.time,
        baseline_time: ctx.baseline_time(10),
        assignment: materialize_candidate(ctx, pool, history.candidate(best_index)),
        best_index,
        history: best_so_far(history.times()),
        evaluations: history.len(),
        objective,
        best_code_bytes: best.code_bytes,
        scores: history.scores().to_vec(),
        front,
    }
}

/// The total-order comparison every winner decision routes through:
/// `true` iff `t` is strictly faster than `incumbent`. A faulted
/// (`+inf`) time can never win — `inf < x` is false for every `x`,
/// including another `inf` — and a NaN is a bug, not a score, so it
/// panics instead of silently winning or losing the comparison.
pub fn strictly_better(t: f64, incumbent: f64) -> bool {
    assert!(
        !t.is_nan() && !incumbent.is_nan(),
        "NaN candidate time: a NaN would silently win or lose every comparison"
    );
    t < incumbent
}

/// Argmin over a fault-scored candidate list: `+inf` marks a candidate
/// the resilient harness gave up on and is skipped; a NaN is still a
/// bug; a list with no finite entry means every candidate faulted and
/// there is nothing to ship. Ties keep the first index.
pub fn argmin_finite(times: &[f64]) -> (usize, f64) {
    assert!(!times.is_empty(), "no candidates evaluated");
    let mut best: Option<(usize, f64)> = None;
    for (i, t) in times.iter().enumerate() {
        assert!(
            !t.is_nan(),
            "NaN candidate time at index {i}: \
             a NaN would silently win or lose every comparison"
        );
        if t.is_finite() && best.is_none_or(|(_, bt)| strictly_better(*t, bt)) {
            best = Some((i, *t));
        }
    }
    best.expect("every candidate faulted: no finite time to select")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strictly_better_rejects_inf_wins() {
        assert!(strictly_better(1.0, 2.0));
        assert!(!strictly_better(2.0, 1.0));
        assert!(!strictly_better(f64::INFINITY, f64::INFINITY));
        assert!(!strictly_better(f64::INFINITY, 1.0));
        assert!(strictly_better(1.0, f64::INFINITY));
        // Equal times are not an improvement (first winner is kept).
        assert!(!strictly_better(1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "NaN candidate time")]
    fn strictly_better_panics_on_nan() {
        let _ = strictly_better(f64::NAN, 1.0);
    }

    #[test]
    fn argmin_finite_skips_faulted_candidates() {
        assert_eq!(
            argmin_finite(&[f64::INFINITY, 2.0, 1.0, f64::INFINITY]),
            (2, 1.0)
        );
        // Ties keep the first index.
        assert_eq!(argmin_finite(&[3.0, 1.0, 1.0]), (1, 1.0));
    }

    #[test]
    #[should_panic(expected = "every candidate faulted")]
    fn argmin_finite_panics_when_nothing_survived() {
        let _ = argmin_finite(&[f64::INFINITY, f64::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "NaN candidate time")]
    fn argmin_finite_panics_on_nan() {
        let _ = argmin_finite(&[1.0, f64::NAN]);
    }
}
