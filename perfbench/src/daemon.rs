//! `daemon-16`: rounds of 16 tenants submitted at once to one
//! `TuningServer`. `TuningServer::run` takes every tenant before it
//! starts, so this workload is a closed loop of whole rounds (one
//! client, one population per round), not an open loop.

use crate::inproc::{ratio, Timed, HARD_CAP_S, MIN_SAMPLES};
use crate::refs::References;
use crate::report::{mean, CountRepeat, Layers};
use crate::shape::{Campaign, TENANTS, WORKERS};
use funcytuner::tuning::journal::Journal;
use funcytuner::tuning::server::ProgressEvent;
use funcytuner::tuning::supervisor::{default_segments, CampaignRecord};
use funcytuner::tuning::{ServerConfig, TenantOutcome, TuningServer};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one round did, beyond the end-to-end samples.
#[derive(Default)]
pub struct Round {
    /// Submit-to-`Done` seconds per tenant that finished.
    latencies: Vec<f64>,
    attempted: u64,
    failed: u64,
    wall: f64,
    speedups: Vec<f64>,
    machine_s: Vec<f64>,
    /// Last `Done` minus first `Done`.
    settle_spread: f64,
    wal_appends: u64,
    segments: u64,
    object_computes: u64,
    object_hits: u64,
    link_lookups: u64,
    link_hits: u64,
    peak_objects: u64,
    peak_links: u64,
}

/// Runs one round in a fresh WAL directory and checks every finished
/// tenant against its solo serial digest.
pub fn round(specs: &[Campaign], dir: &Path, refs: &References) -> Round {
    let _ = std::fs::remove_dir_all(dir);
    let done_at: Arc<Mutex<Vec<Instant>>> = Arc::default();
    let sink = done_at.clone();
    let start = Instant::now();
    let mut server = TuningServer::new(ServerConfig::new(dir).threads(WORKERS))
        .expect("creating the round's WAL directory")
        .on_event(Arc::new(move |_: &str, event: &ProgressEvent| {
            if matches!(event, ProgressEvent::Done { .. }) {
                sink.lock()
                    .expect("event sink poisoned")
                    .push(Instant::now());
            }
        }));
    let mut out = Round::default();
    let submitted = Instant::now();
    for copy in 0..TENANTS / specs.len() {
        for (i, c) in specs.iter().enumerate() {
            out.attempted += 1;
            if server
                .submit(format!("t{i}-{copy}"), c.spec.clone())
                .is_err()
            {
                out.failed += 1;
            }
        }
    }
    let store = server.store();
    let report = server.run();
    out.wall = start.elapsed().as_secs_f64();

    let done_at = done_at.lock().expect("event sink poisoned");
    let done: Vec<f64> = done_at
        .iter()
        .map(|t| t.duration_since(submitted).as_secs_f64())
        .collect();
    if let (Some(first), Some(last)) = (
        done.iter().copied().reduce(f64::min),
        done.iter().copied().reduce(f64::max),
    ) {
        out.settle_spread = last - first;
    }
    out.latencies = done;
    for tenant in &report.tenants {
        let spec_idx: usize = tenant.name[1..]
            .split('-')
            .next()
            .and_then(|i| i.parse().ok())
            .expect("tenant names are t<spec>-<copy>");
        let c = &specs[spec_idx];
        out.wal_appends += tenant
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    ProgressEvent::SegmentCommitted { .. } | ProgressEvent::Done { .. }
                )
            })
            .count() as u64;
        out.segments += tenant.segments_run as u64;
        match &tenant.outcome {
            TenantOutcome::Done { run, digest } => {
                refs.check(c, *digest, "daemon-16 tenant");
                out.speedups.push(run.cfr.speedup());
                out.machine_s.push(tenant.cost.machine_seconds);
            }
            _ => out.failed += 1,
        }
    }
    let (objects, links) = (store.object_stats(), store.link_stats());
    out.object_computes = objects.computes;
    out.object_hits = objects.hits;
    out.link_lookups = links.lookups;
    out.link_hits = links.hits;
    (out.peak_objects, out.peak_links) = store.peak_resident();
    drop(report);
    let _ = std::fs::remove_dir_all(dir);
    out
}

fn record_counts(counts: &mut CountRepeat, position: usize, r: &Round) {
    counts.record(position, "wal.appends", r.wal_appends);
    counts.record(position, "sched.segments", r.segments);
    counts.record(position, "store.object_computes", r.object_computes);
    counts.record(position, "store.object_hits", r.object_hits);
    counts.record(position, "store.link_hits", r.link_hits);
    counts.record(position, "store.peak_objects", r.peak_objects);
    counts.record(position, "store.peak_links", r.peak_links);
}

/// The untraced measurement: whole cycles of rounds until both
/// `seconds` and [`MIN_SAMPLES`] tenants are reached. A cycle is one
/// pass over the distinct rounds.
pub fn timed(
    rounds: &[Vec<Campaign>],
    refs: &References,
    seconds: f64,
    dir: &Path,
    counts: &mut CountRepeat,
) -> Timed {
    let mut out = Timed::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < HARD_CAP_S
        && (start.elapsed().as_secs_f64() < seconds || out.samples() < MIN_SAMPLES)
    {
        let (mut latencies, mut wall) = (Vec::new(), 0.0);
        for (pos, specs) in rounds.iter().enumerate() {
            let r = round(specs, dir, refs);
            record_counts(counts, pos, &r);
            out.attempted += r.attempted;
            out.failed += r.failed;
            wall += r.wall;
            latencies.extend(r.latencies);
            out.speedups.extend(r.speedups);
            out.machine_s.extend(r.machine_s);
        }
        out.end_cycle(latencies, wall);
    }
    out
}

/// A tenant's solo replay through the daemon's own segment plan: the
/// `CampaignRecord` bytes it journals, the objects it compiles with a
/// private store, and the time `CampaignRecord::to_bytes` takes.
struct SoloSegments {
    records: Vec<Vec<u8>>,
    compiles: u64,
    encode_s: f64,
}

fn solo_segments(c: &Campaign, refs: &References) -> SoloSegments {
    let mut out = SoloSegments {
        records: Vec::new(),
        compiles: 0,
        encode_s: 0.0,
    };
    let encode = |record: CampaignRecord, out: &mut SoloSegments| {
        let t = Instant::now();
        let bytes = record.to_bytes().expect("a checkpoint record encodes");
        out.encode_s += t.elapsed().as_secs_f64();
        out.records.push(bytes);
    };
    let mut checkpoint = None;
    for segment in default_segments() {
        let tuner = c.spec.build_tuner(&c.workload, &c.arch);
        let paused = match checkpoint.take() {
            None => tuner.run_until_phases_costed(&segment),
            Some(cp) => tuner
                .resume_until_phases_costed(cp, &segment)
                .expect("own checkpoint resumes"),
        };
        out.compiles += paused.cost.object_compiles;
        encode(
            CampaignRecord::checkpoint(paused.checkpoint.clone(), 1),
            &mut out,
        );
        checkpoint = Some(paused.checkpoint);
    }
    let cp = checkpoint.expect("the segment plan is not empty");
    let run = c
        .spec
        .build_tuner(&c.workload, &c.arch)
        .resume(cp.clone())
        .expect("own checkpoint resumes");
    out.compiles += run.ctx.cost().object_compiles;
    let digest = run.canonical_digest();
    refs.check(c, digest, "daemon-16 solo segment replay");
    encode(CampaignRecord::done(cp, digest, 1), &mut out);
    out
}

/// The traced run: after each round every distinct spec is replayed
/// solo through the segment plan to price its WAL records, checkpoint
/// encoding and private-store compile demand. Every span is taken after
/// the round ends, so the traced round is the untraced round and
/// `trace.overhead_s` is 0 by construction (reported as 0).
pub fn traced(
    rounds: &[Vec<Campaign>],
    refs: &References,
    seconds: f64,
    dir: &Path,
    counts: &mut CountRepeat,
) -> (Layers, u64, u64) {
    let start = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut traced_rounds: Vec<Round> = Vec::new();
    let (mut wal_bytes, mut append_s, mut appends, mut encode_s, mut dedup) =
        (Vec::new(), 0.0, 0u64, 0.0, Vec::new());
    let mut i = 0;
    while i < rounds.len()
        || (start.elapsed().as_secs_f64() < seconds.min(HARD_CAP_S) && i < 4 * rounds.len())
    {
        let pos = i % rounds.len();
        let specs = &rounds[pos];
        i += 1;
        let r = round(specs, dir, refs);
        record_counts(counts, pos, &r);
        attempted += r.attempted;
        failed += r.failed;
        if r.latencies.is_empty() {
            continue;
        }
        let copies = (TENANTS / specs.len()) as u64;
        let mut bytes = 0u64;
        let mut demand = 0u64;
        std::fs::create_dir_all(dir).expect("creating the replay WAL directory");
        let mut journal =
            Journal::create(&dir.join("replay.wal")).expect("creating the replay WAL");
        for c in specs {
            let solo = solo_segments(c, refs);
            demand += copies * solo.compiles;
            encode_s += solo.encode_s;
            for record in &solo.records {
                bytes += copies * (record.len() as u64 + 8);
                let t = Instant::now();
                journal.append(record).expect("appending to the replay WAL");
                append_s += t.elapsed().as_secs_f64();
                appends += 1;
            }
        }
        drop(journal);
        let _ = std::fs::remove_dir_all(dir);
        wal_bytes.push(bytes as f64);
        dedup.push(demand as f64 / r.object_computes.max(1) as f64);
        traced_rounds.push(r);
    }

    if traced_rounds.is_empty() {
        return (Vec::new(), attempted, failed);
    }
    let avg = |f: &dyn Fn(&Round) -> f64| mean(&traced_rounds.iter().map(f).collect::<Vec<_>>());
    let m: Layers = vec![
        ("wal.appends", avg(&|r| r.wal_appends as f64)),
        ("wal.bytes", mean(&wal_bytes)),
        ("wal.append_s", append_s / appends.max(1) as f64),
        ("checkpoint.encode_s", encode_s / appends.max(1) as f64),
        ("sched.segments", avg(&|r| r.segments as f64)),
        ("sched.settle_spread_s", avg(&|r| r.settle_spread)),
        ("store.object_dedup", mean(&dedup)),
        (
            "store.link_hit_ratio",
            avg(&|r| ratio(r.link_hits, r.link_lookups)),
        ),
        ("store.peak_objects", avg(&|r| r.peak_objects as f64)),
        ("store.peak_links", avg(&|r| r.peak_links as f64)),
    ];
    (m, attempted, failed)
}
