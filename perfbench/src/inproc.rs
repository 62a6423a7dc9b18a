//! `paper-tune` and `faulty-workers`: one client running `Tuner::run`
//! campaigns back to back (a closed loop), optionally sharded over
//! `ftune worker` processes.

use crate::refs::References;
use crate::replay::{codec_replay, eval_replay, leaf_replay, spawn_replay, Phases};
use crate::report::{
    beyond_p90, geomean, mean, median, peak_rss_mb, percentile, CountRepeat, Layers, Metrics,
};
use crate::shape::{Campaign, Kind, WORKERS};
use funcytuner::tuning::TuningRun;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// A run keeps adding whole cycles until it holds this many campaigns,
/// so at least ten samples lie beyond the per-cycle p90s together.
pub const MIN_SAMPLES: usize = 100;

/// No run measures longer than this, whatever `--seconds` says.
pub const HARD_CAP_S: f64 = 120.0;

/// What the timed loop saw, cycle by cycle. Latency and throughput are
/// computed per cycle (every cycle has the same campaign mix) and the
/// run reports the median over cycles, so a burst of host contention
/// that covers a minority of the cycles does not move the result.
#[derive(Default)]
pub struct Timed {
    /// Wall seconds of each finished campaign, one vector per cycle.
    pub cycles: Vec<Vec<f64>>,
    /// Wall seconds of each cycle, verification excluded.
    pub cycle_walls: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub speedups: Vec<f64>,
    pub machine_s: Vec<f64>,
    /// `VmHWM` after set-up and the first cycle: a fixed amount of work,
    /// so a run's length (which follows machine speed) cannot move it.
    pub peak_rss_mb: f64,
}

impl Timed {
    pub fn samples(&self) -> usize {
        self.cycles.iter().map(Vec::len).sum()
    }

    /// Samples beyond their cycle's nearest-rank p90, over the run.
    pub fn beyond_p90(&self) -> usize {
        self.cycles.iter().map(|c| beyond_p90(c.len())).sum()
    }

    /// Closes a cycle; the first one also fixes `peak_rss_mb`.
    pub fn end_cycle(&mut self, latencies: Vec<f64>, wall: f64) {
        self.cycles.push(latencies);
        self.cycle_walls.push(wall);
        if self.cycles.len() == 1 {
            self.peak_rss_mb = peak_rss_mb();
        }
    }

    pub fn put_end_to_end(&self, m: &mut Metrics, setup_s: f64) {
        let finished: Vec<(&Vec<f64>, f64)> = self
            .cycles
            .iter()
            .zip(&self.cycle_walls)
            .filter(|(c, _)| !c.is_empty())
            .map(|(c, w)| (c, *w))
            .collect();
        let over_cycles = |f: &dyn Fn(&[f64], f64) -> f64| {
            median(&finished.iter().map(|(c, w)| f(c, *w)).collect::<Vec<_>>())
        };
        m.put(
            "campaign_s.p50",
            over_cycles(&|c, _| percentile(c, 0.5)),
            "s",
        );
        m.put(
            "campaign_s.p90",
            over_cycles(&|c, _| percentile(c, 0.9)),
            "s",
        );
        m.put(
            "campaigns_per_s",
            over_cycles(&|c, w| c.len() as f64 / w),
            "1/s",
        );
        m.put("setup_s", setup_s, "s");
        m.put("peak_rss_mb", self.peak_rss_mb, "MiB");
        m.put("cfr_speedup", geomean(&self.speedups), "x");
        m.put("tuning_machine_s", mean(&self.machine_s), "s");
    }
}

/// Runs one campaign the way its workload does: serial `Tuner::run`,
/// with process workers on `faulty-workers`. A panic (worker or plane
/// failure) is a failed campaign, not a crashed benchmark.
pub fn run_campaign(kind: Kind, c: &Campaign, ftune: &Path) -> (f64, Option<TuningRun>) {
    let mut tuner = c.spec.build_tuner(&c.workload, &c.arch);
    if kind == Kind::FaultyWorkers {
        tuner = tuner.process_workers(WORKERS, ftune);
    }
    let t = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| tuner.run())).ok();
    (t.elapsed().as_secs_f64(), run)
}

/// The deterministic ledger counts of one finished campaign.
fn record_counts(counts: &mut CountRepeat, position: usize, run: &TuningRun) {
    let cost = run.ctx.cost();
    counts.record(position, "compile.count", cost.object_compiles);
    counts.record(position, "link.count", cost.links);
    counts.record(position, "exec.runs", cost.runs);
    counts.record(position, "fault.compile_failures", cost.compile_failures);
    counts.record(position, "fault.crashes", cost.crashes);
    counts.record(position, "fault.timeouts", cost.timeouts);
    counts.record(position, "fault.retries", cost.retries);
    counts.record(position, "fault.quarantined", cost.quarantined);
    if let Some(plane) = run.ctx.remote_plane() {
        counts.record(position, "plane.batches", plane.batches());
        counts.record(position, "plane.spawns", plane.spawns());
    }
}

/// The untraced measurement: whole cycles of campaigns until both
/// `seconds` and [`MIN_SAMPLES`] are reached.
pub fn timed(
    kind: Kind,
    cycle: &[Campaign],
    refs: &References,
    seconds: f64,
    ftune: &Path,
    counts: &mut CountRepeat,
) -> Timed {
    let mut out = Timed::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < HARD_CAP_S
        && (start.elapsed().as_secs_f64() < seconds || out.samples() < MIN_SAMPLES)
    {
        let (cycle_start, mut verify_s) = (Instant::now(), 0.0);
        let mut latencies = Vec::new();
        for (pos, c) in cycle.iter().enumerate() {
            out.attempted += 1;
            let (dt, run) = run_campaign(kind, c, ftune);
            let Some(run) = run else {
                out.failed += 1;
                continue;
            };
            let v = Instant::now();
            refs.check(c, run.canonical_digest(), kind.name());
            record_counts(counts, pos, &run);
            verify_s += v.elapsed().as_secs_f64();
            latencies.push(dt);
            out.speedups.push(run.cfr.speedup());
            out.machine_s.push(run.ctx.cost().machine_seconds);
        }
        out.end_cycle(latencies, cycle_start.elapsed().as_secs_f64() - verify_s);
    }
    out
}

/// The traced run: per campaign, the untraced `Tuner::run`, its phase
/// spans, then the leaf, evaluation, codec and spawn replays fed from
/// that same run. Campaign positions continue past one full cycle until
/// `seconds` have passed.
pub fn traced(
    kind: Kind,
    cycle: &[Campaign],
    refs: &References,
    seconds: f64,
    ftune: &Path,
    counts: &mut CountRepeat,
) -> (Layers, u64, u64) {
    let workers = (kind == Kind::FaultyWorkers).then_some(ftune);
    let start = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut walls = Vec::new();
    let mut phases = Vec::new();
    let mut leaves = Vec::new();
    let mut evals = Vec::new();
    let mut codecs = Vec::new();
    let mut spawns = Vec::new();
    let mut costs = Vec::new();
    let mut planes = Vec::new();
    let mut i = 0;
    while i < cycle.len()
        || (start.elapsed().as_secs_f64() < seconds.min(HARD_CAP_S) && i < 4 * cycle.len())
    {
        let pos = i % cycle.len();
        let c = &cycle[pos];
        i += 1;
        attempted += 1;
        let (dt, run) = run_campaign(kind, c, ftune);
        let Some(run) = run else {
            failed += 1;
            continue;
        };
        let ph = Phases::of(c, &run);
        refs.check(c, ph.canonical, kind.name());
        record_counts(counts, pos, &run);
        let cost = run.ctx.cost();
        leaves.push(leaf_replay(&run.ctx, &cost, ph.collect_runs, c.spec.seed));
        evals.push(eval_replay(c, &run));
        if let Some(exe) = workers {
            codecs.push(codec_replay(c, &run));
            spawns.push(spawn_replay(&run, exe));
            let plane = run.ctx.remote_plane().expect("faulty-workers runs a plane");
            planes.push((plane.batches() as f64, plane.spawns() as f64));
        }
        walls.push(dt);
        phases.push(ph);
        costs.push(cost);
    }

    if phases.is_empty() {
        return (Vec::new(), attempted, failed);
    }
    let avg = |f: &dyn Fn(usize) -> f64| mean(&(0..phases.len()).map(f).collect::<Vec<_>>());
    let m: Layers = vec![
        ("outline.s", avg(&|i| phases[i].outline)),
        ("baseline.s", avg(&|i| phases[i].baseline)),
        ("phase.collect_s", avg(&|i| phases[i].collect)),
        ("phase.random_s", avg(&|i| phases[i].random)),
        ("phase.fr_s", avg(&|i| phases[i].fr)),
        ("phase.greedy_s", avg(&|i| phases[i].greedy)),
        ("phase.cfr_s", avg(&|i| phases[i].cfr)),
        ("digest.s", avg(&|i| phases[i].digest)),
        ("coverage", avg(&|i| phases[i].inside_run()) / mean(&walls)),
        (
            "trace.overhead_s",
            median(
                &(0..walls.len())
                    .map(|i| walls[i] + phases[i].outline + phases[i].digest)
                    .collect::<Vec<_>>(),
            ) - median(&walls),
        ),
        ("compile.count", avg(&|i| costs[i].object_compiles as f64)),
        ("compile.reuse_ratio", avg(&|i| costs[i].reuse_rate())),
        ("compile.s", avg(&|i| leaves[i].compile_s)),
        ("link.count", avg(&|i| costs[i].links as f64)),
        ("link.reuse_ratio", avg(&|i| costs[i].link_reuse_rate())),
        ("link.s", avg(&|i| leaves[i].link_s)),
        ("exec.runs", avg(&|i| costs[i].runs as f64)),
        ("exec.scalar_s", avg(&|i| leaves[i].exec_scalar_s)),
        ("exec.batch_s", avg(&|i| leaves[i].exec_batch_s)),
        ("exec.profiled_s", avg(&|i| leaves[i].exec_profiled_s)),
        ("eval.batched_s", avg(&|i| evals[i].0)),
        ("eval.scalar_s", avg(&|i| evals[i].1)),
        ("fault.retries", avg(&|i| costs[i].retries as f64)),
        ("fault.crashes", avg(&|i| costs[i].crashes as f64)),
        ("fault.timeouts", avg(&|i| costs[i].timeouts as f64)),
        (
            "fault.compile_failures",
            avg(&|i| costs[i].compile_failures as f64),
        ),
        ("fault.quarantined", avg(&|i| costs[i].quarantined as f64)),
        (
            "exec.useful_ratio",
            avg(&|i| {
                ratio(
                    costs[i].runs - costs[i].failed_charged_runs(),
                    costs[i].runs,
                )
            }),
        ),
        (
            "codec.encode_us",
            mean(&codecs.iter().map(|c| c.encode_us).collect::<Vec<_>>()),
        ),
        (
            "codec.decode_us",
            mean(&codecs.iter().map(|c| c.decode_us).collect::<Vec<_>>()),
        ),
        (
            "codec.frame_bytes",
            mean(&codecs.iter().map(|c| c.frame_bytes).collect::<Vec<_>>()),
        ),
        (
            "plane.batches",
            mean(&planes.iter().map(|p| p.0).collect::<Vec<_>>()),
        ),
        (
            "plane.spawns",
            mean(&planes.iter().map(|p| p.1).collect::<Vec<_>>()),
        ),
        ("worker.spawn_s", mean(&spawns)),
    ];
    (m, attempted, failed)
}

pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
