//! The campaign benchmark: end-to-end campaign latency, throughput,
//! set-up time, memory and tuning quality on three workloads, plus an
//! outside-in per-layer trace. See `NOTES.md` for the design and
//! `run.sh` for how it is built and invoked.
//!
//! ```text
//! perfbench --workload <paper-tune|faulty-workers|daemon-16> --seed N
//!           --seconds S --trace <0|1> --ftune PATH --work-dir DIR --refs FILE
//! perfbench pin --seeds A..=B --out FILE
//! perfbench setup <the measurement's arguments>
//! ```
//!
//! `setup` is the cold set-up a measurement times in child processes
//! of its own: it prints the set-up's wall time and exits.

mod daemon;
mod inproc;
mod refs;
mod replay;
mod report;
mod shape;

use refs::References;
use report::{median, peak_rss_mb, CountRepeat, Metrics};
use shape::{campaign_cycle, daemon_cycle, warmup, Kind};
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Cold set-ups per run, each in a fresh child process; `setup_s` is
/// their median.
const SETUP_REPS: usize = 9;

/// Every per-layer metric, in output order. A workload that does not
/// exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 45] = [
    ("outline.s", "s"),
    ("baseline.s", "s"),
    ("phase.collect_s", "s"),
    ("phase.random_s", "s"),
    ("phase.fr_s", "s"),
    ("phase.greedy_s", "s"),
    ("phase.cfr_s", "s"),
    ("digest.s", "s"),
    ("coverage", "ratio"),
    ("trace.overhead_s", "s"),
    ("compile.count", "count"),
    ("compile.reuse_ratio", "ratio"),
    ("compile.s", "s"),
    ("link.count", "count"),
    ("link.reuse_ratio", "ratio"),
    ("link.s", "s"),
    ("exec.runs", "count"),
    ("exec.scalar_s", "s"),
    ("exec.batch_s", "s"),
    ("exec.profiled_s", "s"),
    ("eval.batched_s", "s"),
    ("eval.scalar_s", "s"),
    ("fault.retries", "count"),
    ("fault.crashes", "count"),
    ("fault.timeouts", "count"),
    ("fault.compile_failures", "count"),
    ("fault.quarantined", "count"),
    ("exec.useful_ratio", "ratio"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("codec.frame_bytes", "bytes"),
    ("plane.batches", "count"),
    ("plane.spawns", "count"),
    ("worker.spawn_s", "s"),
    ("wal.appends", "count"),
    ("wal.bytes", "bytes"),
    ("wal.append_s", "s"),
    ("checkpoint.encode_s", "s"),
    ("sched.segments", "count"),
    ("sched.settle_spread_s", "s"),
    ("store.object_dedup", "x"),
    ("store.link_hit_ratio", "ratio"),
    ("store.peak_objects", "count"),
    ("store.peak_links", "count"),
    ("counts.nonrepeating", "count"),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    ftune: PathBuf,
    work_dir: PathBuf,
    refs: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let (mut ftune, mut work_dir, mut refs) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--ftune" => ftune = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            "--refs" => refs = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        ftune: ftune.ok_or("--ftune is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        refs: refs.ok_or("--refs is required")?,
    })
}

fn pin_command(argv: &[String]) -> Result<(), String> {
    let (mut seeds, mut out) = (None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seeds" => {
                let (a, b) = value.split_once("..=").ok_or("--seeds takes A..=B")?;
                let a: u64 = a.parse().map_err(|e| format!("--seeds: {e}"))?;
                let b: u64 = b.parse().map_err(|e| format!("--seeds: {e}"))?;
                seeds = Some(a..=b);
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    refs::pin(
        seeds.ok_or("--seeds is required")?,
        &out.ok_or("--out is required")?,
    )
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("pin") => pin_command(&argv[1..]),
        Some("setup") => parse_args(&argv[1..]).and_then(|args| cold_setup(&args, started)),
        _ => parse_args(&argv).and_then(|args| run(args, &argv)),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

/// The one-time work before a first timed campaign, as a fresh process
/// does it: load the references, resolve the workload's campaign
/// catalogue, and run its fixed, seed-independent warm-up unit (one
/// campaign of the workload's shape, spawning its workers on
/// `faulty-workers`, or one daemon round). Prints the seconds from
/// process start to the unit's result; the warm-up digest is checked
/// after the clock stops.
fn cold_setup(args: &Args, started: Instant) -> Result<(), String> {
    let kind = args.kind;
    let refs = References::load(&args.refs)?;
    let warm = warmup(kind);
    let run = match kind {
        Kind::Daemon16 => {
            std::hint::black_box(daemon_cycle(args.seed));
            daemon::round(&warm, &wal_dir(args), &refs);
            None
        }
        _ => {
            std::hint::black_box(campaign_cycle(kind, args.seed));
            let (_, run) = inproc::run_campaign(kind, &warm[0], &args.ftune);
            Some(run.ok_or("the warm-up campaign failed")?)
        }
    };
    let setup_s = started.elapsed().as_secs_f64();
    if let Some(run) = run {
        refs.check(&warm[0], run.canonical_digest(), "set-up");
    }
    println!("{setup_s:?}");
    Ok(())
}

/// Runs [`cold_setup`] [`SETUP_REPS`] times, one child process after
/// the other, and returns the median. A child that fails fails the run
/// with its exit code (3 for a digest mismatch).
fn setup_median(argv: &[String]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let out = Command::new(&exe)
            .arg("setup")
            .args(argv)
            .output()
            .map_err(|e| format!("starting a set-up process: {e}"))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if !out.status.success() {
            std::process::exit(out.status.code().unwrap_or(2));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let value = text
            .lines()
            .last()
            .and_then(|l| l.trim().parse::<f64>().ok());
        setups.push(value.ok_or_else(|| format!("a set-up process printed {text:?}"))?);
    }
    Ok(median(&setups))
}

/// The directory a process's daemon rounds keep their WALs in.
fn wal_dir(args: &Args) -> PathBuf {
    let name = args.kind.name();
    args.work_dir
        .join(format!("perfbench-{}-{}", name, std::process::id()))
}

fn run(args: Args, argv: &[String]) -> Result<(), String> {
    let kind = args.kind;
    let name = kind.name();
    if kind == Kind::FaultyWorkers && !args.ftune.is_file() {
        return Err(format!("no worker binary at {}", args.ftune.display()));
    }
    // The traced run reports no set-up time, so it spends none on it.
    let setup_s = if args.trace { 0.0 } else { setup_median(argv)? };
    let mut refs = References::load(&args.refs)?;
    let wal_dir = wal_dir(&args);

    // One untimed warm-up unit, so the timed cycles start warm.
    let warm = warmup(kind);
    match kind {
        Kind::Daemon16 => drop(daemon::round(&warm, &wal_dir, &refs)),
        _ => {
            let (_, run) = inproc::run_campaign(kind, &warm[0], &args.ftune);
            let run = run.ok_or("the warm-up campaign failed")?;
            refs.check(&warm[0], run.canonical_digest(), "warm-up");
        }
    }

    let (cycle, rounds) = match kind {
        Kind::Daemon16 => (Vec::new(), daemon_cycle(args.seed)),
        _ => (campaign_cycle(kind, args.seed), Vec::new()),
    };

    let mut counts = CountRepeat::default();
    let mut out = Metrics::default();
    let (attempted, failed) = if args.trace {
        let (mut layers, attempted, failed) = match kind {
            Kind::Daemon16 => daemon::traced(&rounds, &refs, args.seconds, &wal_dir, &mut counts),
            _ => inproc::traced(kind, &cycle, &refs, args.seconds, &args.ftune, &mut counts),
        };
        if layers.is_empty() {
            return Err("no traced campaign finished".to_string());
        }
        layers.push(("counts.nonrepeating", counts.non_repeating() as f64));
        println!(
            "{name}  traced {attempted} campaigns, {failed} failed, peak RSS {:.1} MiB",
            peak_rss_mb()
        );
        settle(&mut refs, name, args.seed);
        for (metric, _) in &layers {
            assert!(
                PER_LAYER.iter().any(|(m, _)| m == metric),
                "{metric} is missing from PER_LAYER"
            );
        }
        for (metric, unit) in PER_LAYER {
            let value = layers
                .iter()
                .find(|(m, _)| *m == metric)
                .map_or(0.0, |(_, v)| *v);
            out.put(metric, value, unit);
        }
        (attempted, failed)
    } else {
        let timed = match kind {
            Kind::Daemon16 => daemon::timed(&rounds, &refs, args.seconds, &wal_dir, &mut counts),
            _ => inproc::timed(kind, &cycle, &refs, args.seconds, &args.ftune, &mut counts),
        };
        if timed.samples() == 0 {
            return Err("no campaign finished".to_string());
        }
        timed.put_end_to_end(&mut out, setup_s);
        settle(&mut refs, name, args.seed);
        println!(
            "{name}  samples {} campaigns in {} cycles ({} beyond their cycle's p90), \
             {} attempted, {} failed, failed_ratio {:.6}, setup median of {SETUP_REPS} cold set-ups",
            timed.samples(),
            timed.cycles.len(),
            timed.beyond_p90(),
            timed.attempted,
            timed.failed,
            timed.failed as f64 / timed.attempted as f64,
        );
        (timed.attempted, timed.failed)
    };
    let _ = std::fs::remove_dir_all(&wal_dir);
    counts.print(name);
    out.print_lines(name);
    println!("{}", out.result_line(attempted, failed));
    Ok(())
}

/// Checks held-out digests against fresh solo serial runs (after every
/// measurement, before any result is printed).
fn settle(refs: &mut References, name: &str, seed: u64) {
    let t = Instant::now();
    let fresh = refs.settle();
    if fresh > 0 {
        println!(
            "{name}  seed {seed} is held out: {fresh} solo serial references computed and \
             matched in {:.1} s",
            t.elapsed().as_secs_f64()
        );
    }
}
