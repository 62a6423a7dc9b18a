//! The correctness gate: every campaign's canonical digest must equal
//! its solo serial reference. References for the pinned workload seeds
//! live in `references.txt` (written by `perfbench pin`) and are checked
//! as each campaign finishes. Any other seed is held out: its digests
//! are held back and checked against fresh solo serial runs once the
//! measurement ends (so the reference runs cannot touch the measured
//! time or memory), before any result is printed.

use crate::shape::{campaign_cycle, daemon_cycle, key_of, warmup, Campaign, Kind};
use funcytuner::tuning::CampaignSpec;
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;

/// Reference digests by campaign key.
pub struct References {
    digests: HashMap<String, u64>,
    /// Digests of held-out campaigns awaiting their fresh reference:
    /// `(spec, digest, route)`.
    pending: RefCell<Vec<(CampaignSpec, u64, &'static str)>>,
}

impl References {
    /// Parses `references.txt`: `<digest hex> <campaign key>` per line,
    /// `#` comments.
    pub fn load(path: &Path) -> Result<References, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let mut digests = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (digest, key) = line
                .split_once(' ')
                .ok_or_else(|| format!("{}:{}: no key", path.display(), n + 1))?;
            let digest = u64::from_str_radix(digest, 16)
                .map_err(|e| format!("{}:{}: bad digest: {e}", path.display(), n + 1))?;
            digests.insert(key.to_string(), digest);
        }
        Ok(References {
            digests,
            pending: RefCell::new(Vec::new()),
        })
    }

    /// Checks a pinned campaign now, or holds a held-out one for
    /// [`References::settle`].
    pub fn check(&self, c: &Campaign, digest: u64, route: &'static str) {
        let key = c.key();
        match self.digests.get(&key) {
            Some(&want) => verify(&key, digest, want, route),
            None => self
                .pending
                .borrow_mut()
                .push((c.spec.clone(), digest, route)),
        }
    }

    /// Runs the solo serial reference of every held-out campaign seen
    /// and checks the held digests against it. Returns how many
    /// references were computed.
    pub fn settle(&mut self) -> usize {
        let pending = std::mem::take(self.pending.get_mut());
        let mut fresh = 0;
        for (spec, digest, route) in pending {
            let key = key_of(&spec);
            let want = *self.digests.entry(key.clone()).or_insert_with(|| {
                fresh += 1;
                Campaign::new(spec).solo_digest()
            });
            verify(&key, digest, want, route);
        }
        fresh
    }
}

/// Aborts the benchmark on a digest mismatch: a wrong result is not a
/// failed campaign, it is a broken program.
fn verify(key: &str, digest: u64, want: u64, route: &str) {
    if digest != want {
        eprintln!(
            "perfbench: DIGEST MISMATCH on {route}: campaign [{key}] gave {digest:016x}, \
             solo serial reference is {want:016x}"
        );
        std::process::exit(3);
    }
}

/// Writes the reference table for workload seeds `seeds` of every
/// workload (plus the set-up campaigns) to `out`.
pub fn pin(seeds: std::ops::RangeInclusive<u64>, out: &Path) -> Result<(), String> {
    let mut lines: Vec<String> = Vec::new();
    let mut add = |c: &Campaign| {
        let line = format!("{:016x} {}", c.solo_digest(), key_of(&c.spec));
        eprintln!("{line}");
        lines.push(line);
    };
    for kind in [Kind::PaperTune, Kind::FaultyWorkers, Kind::Daemon16] {
        warmup(kind).iter().for_each(&mut add);
    }
    for seed in seeds.clone() {
        campaign_cycle(Kind::PaperTune, seed)
            .iter()
            .for_each(&mut add);
        campaign_cycle(Kind::FaultyWorkers, seed)
            .iter()
            .for_each(&mut add);
        daemon_cycle(seed).iter().flatten().for_each(&mut add);
    }
    lines.sort();
    lines.dedup();
    let header = format!(
        "# Solo serial canonical digests (`perfbench pin --seeds {}..={}`).\n\
         # <digest> <workload> <arch> <K> <X> <steps cap> <seed> <faults>\n",
        seeds.start(),
        seeds.end()
    );
    std::fs::write(out, header + &lines.join("\n") + "\n")
        .map_err(|e| format!("writing {}: {e}", out.display()))
}
