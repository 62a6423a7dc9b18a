//! FuncyTuner: per-loop compiler-flag auto-tuning (the paper's core
//! contribution).
//!
//! The crate implements the four search algorithms of §2.2 over the
//! simulated toolchain:
//!
//! * **Random** — classical per-program random search: `K` uniform CVs
//!   applied to the whole program, keep the fastest
//!   ([`algorithms::random_search`]).
//! * **FR** — per-function random search: each candidate assigns every
//!   outlined module a CV drawn (with replacement) from the `K`
//!   pre-sampled CVs ([`algorithms::fr_search`]).
//! * **G** — greedy combination: pick each module's individually
//!   fastest CV from the per-loop collection data and link them;
//!   reported both as realized (actually measured) and as the
//!   hypothetical independent sum of per-loop minima (§3.4)
//!   ([`algorithms::greedy`]).
//! * **CFR** — Caliper-guided random search, Algorithm 1: prune each
//!   module's CV space to its top-X per-loop performers, then randomly
//!   re-sample complete assignments from the pruned spaces and keep the
//!   best *end-to-end measured* executable
//!   ([`algorithms::cfr`]).
//!
//! Shared infrastructure: [`ctx::EvalContext`] (compile → link →
//! execute of uniform and mixed assignments, rayon-parallel batch
//! evaluation), [`collection`] (the Figure 4 per-loop data-collection
//! pipeline over Caliper), [`stats`] (geometric means and speedups),
//! [`critical`] (the §4.4 critical-flag elimination used for the
//! CloverLeaf case study), and [`pipeline::Tuner`], a one-stop builder
//! used by the examples and the experiment harness.

pub mod algorithms;
pub mod breaker;
pub mod canonical;
pub mod checkpoint;
pub mod collection;
pub mod convergence;
pub mod cost;
pub mod critical;
pub mod ctx;
pub mod extensions;
pub mod framing;
pub mod importance;
pub mod journal;
pub mod objective;
pub mod pipeline;
pub mod remote;
pub mod result;
pub mod search;
pub mod server;
pub mod stability;
pub mod stats;
pub mod store;
pub mod supervisor;
pub mod variance;

pub use algorithms::{cfr, fr_search, greedy, random_search, GreedyOutcome};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use checkpoint::{CampaignCheckpoint, Checkpoint, CheckpointError, CHECKPOINT_VERSION};
pub use collection::{collect, collect_candidates, CollectionData, MixedCollection};
pub use convergence::Convergence;
pub use cost::TuningCost;
pub use critical::critical_flags;
pub use ctx::{CacheStats, EvalContext, FaultStats, ResilienceConfig};
pub use extensions::{cfr_adaptive, cfr_iterative, cfr_iterative_recollect};
pub use framing::{
    append_frame, crc32, decode_frame, decode_frames, encode_frame, FRAME_HEADER, MAX_FRAME_BYTES,
};
pub use importance::{flag_importance, FlagImportance};
pub use journal::{Journal, JournalError, Recovery, Tail};
pub use objective::{pareto_front, Objective, Score};
pub use pipeline::{
    PausedCampaign, Phase, PhaseSpan, ScheduleMode, ScheduleReport, Tuner, TuningRun,
};
pub use remote::{
    BatchReply, FrameError, HelloSpec, InProcessTransport, LedgerDelta, Message, ProcessTransport,
    RemoteError, RemotePlane, Transport, WireError, WorkBatch, WorkItem, Worker, WorkerFactory,
};
pub use result::{ParetoPoint, TuningResult};
pub use search::{
    argmin_finite, evaluate_proposals_scored, pareto_points, strictly_better, Candidate,
    CollectionRequest, EvalMode, History, Observation, Proposal, SearchDriver, SearchStrategy,
};
pub use server::{
    arch_by_name, AdmissionError, CampaignSpec, ProgressEvent, ServerConfig, ServerReport,
    TenantOutcome, TenantReport, TuningServer, SPEC_VERSION,
};
pub use stability::{measure_repeated, speedup_with_stats, MeasurementStats};
pub use store::ObjectStore;
pub use supervisor::{
    ChaosPolicy, Supervised, Supervisor, SupervisorConfig, SupervisorError, SupervisorReport,
};
pub use variance::{variance_study, SearchVariance};
