//! The three workloads: which campaigns each runs, in which order, and
//! how they are built. Every campaign is a [`CampaignSpec`], so the
//! solo serial reference of any campaign is `spec.build_tuner(..).run()`
//! — the exact tuner a tenant running that spec alone would build.

use funcytuner::compiler::FaultModel;
use funcytuner::flags::rng::{derive_seed, derive_seed_idx, splitmix64};
use funcytuner::machine::Architecture;
use funcytuner::tuning::server::arch_by_name;
use funcytuner::tuning::CampaignSpec;
use funcytuner::workloads::{workload_by_name, Workload};

/// The seven Table-1 programs.
pub const PROGRAMS: [&str; 7] = [
    "LULESH",
    "CloverLeaf",
    "AMG",
    "Optewe",
    "bwaves",
    "fma3d",
    "swim",
];

/// The three paper architectures (Table 2), by CLI alias.
pub const ARCHS: [&str; 3] = ["opteron", "sandybridge", "broadwell"];

/// Tenants per daemon round and distinct specs among them.
pub const TENANTS: usize = 16;
const DISTINCT_SPECS: usize = 8;

/// Distinct rounds a daemon cycle walks through before repeating.
pub const DAEMON_ROUNDS: usize = 4;

/// Process workers on `faulty-workers` (and executor threads on
/// `daemon-16`): the container's core count, never more.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperTune,
    FaultyWorkers,
    Daemon16,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "paper-tune" => Some(Kind::PaperTune),
            "faulty-workers" => Some(Kind::FaultyWorkers),
            "daemon-16" => Some(Kind::Daemon16),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperTune => "paper-tune",
            Kind::FaultyWorkers => "faulty-workers",
            Kind::Daemon16 => "daemon-16",
        }
    }
}

/// A campaign with its program and architecture resolved once.
pub struct Campaign {
    pub spec: CampaignSpec,
    pub workload: Workload,
    pub arch: Architecture,
}

impl Campaign {
    pub fn new(spec: CampaignSpec) -> Campaign {
        let workload = workload_by_name(&spec.workload).expect("catalogue names a Table-1 program");
        let arch = arch_by_name(&spec.arch).expect("catalogue names a paper architecture");
        Campaign {
            spec,
            workload,
            arch,
        }
    }

    /// The key a pinned reference digest is stored under: every spec
    /// field that can move the canonical bytes.
    pub fn key(&self) -> String {
        key_of(&self.spec)
    }

    /// The solo, serial, in-process, unsharded digest of this campaign.
    pub fn solo_digest(&self) -> u64 {
        self.spec
            .build_tuner(&self.workload, &self.arch)
            .run()
            .canonical_digest()
    }
}

pub fn key_of(s: &CampaignSpec) -> String {
    let cap = s.steps_cap.map_or("-".to_string(), |c| c.to_string());
    let faults = if s.fault_model().is_zero() {
        "-".to_string()
    } else {
        format!("testbed:{:016x}", s.fault_seed)
    };
    format!(
        "{} {} {} {} {} {:016x} {}",
        s.workload, s.arch, s.budget, s.focus, cap, s.seed, faults
    )
}

/// The paper protocol (K = 1000, X = 32, full steps, zero faults).
fn paper_spec(program: &str, arch: &str, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new(program, arch);
    spec.budget = 1000;
    spec.focus = 32;
    spec.seed = seed;
    spec
}

/// The daemon's small campaigns (K = 120, X = 8, 4 steps).
fn daemon_spec(program: &str, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new(program, "broadwell");
    spec.budget = 120;
    spec.focus = 8;
    spec.steps_cap = Some(4);
    spec.seed = seed;
    spec
}

/// One cycle of in-process campaigns: every (program, architecture)
/// pair exactly once, in a seeded order, each with a seeded campaign
/// seed. Stratifying the draw keeps the program mix — and with it the
/// latency percentiles — the same for every workload seed.
pub fn campaign_cycle(kind: Kind, seed: u64) -> Vec<Campaign> {
    let root = derive_seed(seed, kind.name());
    let mut pairs: Vec<(&str, &str)> = PROGRAMS
        .iter()
        .flat_map(|p| ARCHS.iter().map(move |a| (*p, *a)))
        .collect();
    let mut state = root;
    for i in (1..pairs.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        pairs.swap(i, j);
    }
    pairs
        .into_iter()
        .enumerate()
        .map(|(i, (program, arch))| {
            let campaign_seed = derive_seed_idx(root, i as u64);
            let spec = paper_spec(program, arch, campaign_seed);
            Campaign::new(match kind {
                Kind::FaultyWorkers => spec.with_fault_model(FaultModel::testbed(campaign_seed)),
                _ => spec,
            })
        })
        .collect()
}

/// One cycle of daemon rounds. Each round's population is 8 distinct
/// specs — the seven programs plus a second CloverLeaf — with seeded
/// campaign seeds; the round submits each spec twice so the shared
/// store has something to deduplicate.
pub fn daemon_cycle(seed: u64) -> Vec<Vec<Campaign>> {
    let root = derive_seed(seed, Kind::Daemon16.name());
    (0..DAEMON_ROUNDS)
        .map(|r| {
            PROGRAMS
                .iter()
                .chain(std::iter::once(&"CloverLeaf"))
                .enumerate()
                .map(|(i, program)| {
                    let idx = (r * DISTINCT_SPECS + i) as u64;
                    Campaign::new(daemon_spec(program, derive_seed_idx(root, idx)))
                })
                .collect()
        })
        .collect()
}

/// The fixed, seed-independent unit the set-up phase runs (and times)
/// before any campaign is measured: one campaign of the workload's
/// shape, or one daemon round.
pub fn warmup(kind: Kind) -> Vec<Campaign> {
    match kind {
        Kind::PaperTune => vec![Campaign::new(paper_spec("CloverLeaf", "broadwell", 42))],
        Kind::FaultyWorkers => vec![Campaign::new(
            paper_spec("CloverLeaf", "broadwell", 42).with_fault_model(FaultModel::testbed(42)),
        )],
        Kind::Daemon16 => PROGRAMS
            .iter()
            .chain(std::iter::once(&"CloverLeaf"))
            .enumerate()
            .map(|(i, p)| Campaign::new(daemon_spec(p, 42 + i as u64)))
            .collect(),
    }
}
