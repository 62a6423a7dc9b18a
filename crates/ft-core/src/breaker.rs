//! The fault-rate circuit breaker: graceful degradation when a
//! context's crash/timeout rate spikes.
//!
//! The resilient evaluation path already survives individual faults
//! (retries, quarantine, timeout charging). What it cannot express is
//! a *systemic* signal — a flaky machine, a toolchain build that
//! crashes half its candidates — where the right move is to change
//! gear, not to keep retrying at full speed. The breaker layers that
//! policy on top of the existing [`crate::ctx::FaultStats`] counters:
//!
//! * **Closed** (healthy): runs flow normally; the breaker counts
//!   faults over tumbling windows of [`BreakerConfig::window`] runs.
//! * **Open** (tripped): a window whose fault rate reached
//!   [`BreakerConfig::trip_threshold`] trips the breaker. While open,
//!   the context degrades: the batched evaluation fast path is
//!   disallowed (per-candidate resilient evaluation only, so each
//!   fault is isolated and charged precisely) and timeout budgets are
//!   widened by [`BreakerConfig::timeout_scale`] (a loaded machine
//!   produces spurious timeouts at tight budgets). After
//!   [`BreakerConfig::cooldown`] further runs the breaker half-opens.
//! * **HalfOpen** (probing): the next [`BreakerConfig::probe`] runs
//!   are a trial window at the degraded settings. A healthy probe
//!   closes the breaker back to full speed; a faulty one re-opens it
//!   for another cooldown.
//!
//! Everything the breaker changes is *value-safe*: the batched and
//! scalar paths are bit-identical (proved by `eval_mode_equivalence`),
//! and fault outcomes are decided by the seeded fault model — the
//! timeout budget only sets what a hang is charged, which
//! `canonical_bytes()` deliberately excludes. An active breaker can
//! therefore never change a campaign's canonical digest, only its
//! cost ledger — and the `runs == ok + crashes + timeouts` invariant
//! holds in every state because the breaker observes the ledger
//! without writing it.
//!
//! Ordering: the breaker never advances inside a parallel map. The
//! per-candidate funnel returns each evaluation's [`Attempts`], and the
//! batch caller ([`crate::search::evaluate_proposals_scored`] or
//! [`crate::collection::collect_candidates`]) records them in
//! proposal-index order once the map is done. The breaker state, and
//! with it the timeout budget, changes only between batches, so one
//! driver's batch sequence trips at the same runs on every thread
//! schedule. Concurrent phases of an overlapped schedule still
//! interleave their batches in completion order; making that
//! deterministic is out of scope here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Thresholds of the breaker state machine. The defaults are sized
/// for campaign-scale runs (thousands of evaluations): windows small
/// enough to react within a phase, cooldowns long enough to not
/// flap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Runs per decision window while closed. A window must complete
    /// before the rate is judged, so this is also the minimum sample
    /// count — a single early crash cannot trip the breaker.
    pub window: u64,
    /// Fault rate (crashes + timeouts over runs, in `[0, 1]`) at
    /// which a completed window trips the breaker.
    pub trip_threshold: f64,
    /// Runs the breaker stays open before half-opening a probe.
    pub cooldown: u64,
    /// Runs in the half-open probe window.
    pub probe: u64,
    /// Factor applied to the context's timeout budget while the
    /// breaker is open or half-open (≥ 1; 1 disables widening).
    pub timeout_scale: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 32,
            trip_threshold: 0.5,
            cooldown: 64,
            probe: 16,
            timeout_scale: 2.0,
        }
    }
}

/// The breaker's current gear, for diagnostics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: full speed (batched eval allowed, normal timeouts).
    Closed,
    /// Tripped: degraded for the rest of the cooldown.
    Open,
    /// Probing: degraded while a trial window decides.
    HalfOpen,
}

impl BreakerState {
    /// Short label for logs and reports.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Internal counters per state. Kept behind one mutex: transitions
/// must read and reset both counters atomically, and the per-run cost
/// of an uncontended lock is noise next to a simulated execution.
#[derive(Debug)]
enum State {
    Closed { runs: u64, faults: u64 },
    Open { remaining: u64 },
    HalfOpen { runs: u64, faults: u64 },
}

/// The breaker-visible outcomes of one candidate evaluation: `crashes`
/// faulty attempts, then the final attempt if one ended the
/// evaluation (`Some(false)` ok, `Some(true)` timeout). `None` means no
/// attempt ended it: a compile gate or quarantine skip (with no
/// crashes), or retries exhausted. Fixed-size and `Copy`, so a batch
/// holds one per proposal and records them without allocating.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Attempts {
    pub(crate) crashes: u32,
    pub(crate) last: Option<bool>,
}

impl Attempts {
    /// `crashes` crashed attempts, then a final ok (`fault == false`)
    /// or timeout (`fault == true`).
    pub(crate) fn ended(crashes: u32, fault: bool) -> Attempts {
        Attempts {
            crashes,
            last: Some(fault),
        }
    }
}

/// A fault-rate circuit breaker (see the module docs for the state
/// machine). Thread-safe: concurrent phases of an overlapped schedule
/// record through the same breaker.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: Mutex<State>,
    /// Times the breaker tripped (Closed→Open and HalfOpen→Open).
    trips: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        assert!(config.window > 0, "window must be positive");
        assert!(config.probe > 0, "probe must be positive");
        assert!(config.timeout_scale >= 1.0, "timeout_scale must be >= 1");
        CircuitBreaker {
            config,
            state: Mutex::new(State::Closed { runs: 0, faults: 0 }),
            trips: AtomicU64::new(0),
        }
    }

    /// The installed thresholds.
    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    /// Records one completed execution (`fault` = crash or timeout)
    /// and advances the state machine.
    pub fn record(&self, fault: bool) {
        let mut state = self.state.lock().unwrap();
        match &mut *state {
            State::Closed { runs, faults } => {
                *runs += 1;
                *faults += u64::from(fault);
                if *runs >= self.config.window {
                    let rate = *faults as f64 / *runs as f64;
                    if rate >= self.config.trip_threshold {
                        self.trips.fetch_add(1, Ordering::Relaxed);
                        *state = State::Open {
                            remaining: self.config.cooldown,
                        };
                    } else {
                        // Tumbling window: judge the next one afresh.
                        *state = State::Closed { runs: 0, faults: 0 };
                    }
                }
            }
            State::Open { remaining } => {
                *remaining = remaining.saturating_sub(1);
                if *remaining == 0 {
                    *state = State::HalfOpen { runs: 0, faults: 0 };
                }
            }
            State::HalfOpen { runs, faults } => {
                *runs += 1;
                *faults += u64::from(fault);
                if *runs >= self.config.probe {
                    let rate = *faults as f64 / *runs as f64;
                    if rate >= self.config.trip_threshold {
                        self.trips.fetch_add(1, Ordering::Relaxed);
                        *state = State::Open {
                            remaining: self.config.cooldown,
                        };
                    } else {
                        *state = State::Closed { runs: 0, faults: 0 };
                    }
                }
            }
        }
    }

    /// Records one evaluation's attempts in the order they ran.
    pub(crate) fn record_attempts(&self, attempts: Attempts) {
        for _ in 0..attempts.crashes {
            self.record(true);
        }
        if let Some(fault) = attempts.last {
            self.record(fault);
        }
    }

    /// The current gear.
    pub fn state(&self) -> BreakerState {
        match &*self.state.lock().unwrap() {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Whether the batched evaluation fast path is allowed (closed
    /// only — a degraded context evaluates per candidate so every
    /// fault is isolated, retried, and charged individually).
    pub fn allows_batched(&self) -> bool {
        self.state() == BreakerState::Closed
    }

    /// Factor the context applies to its timeout budget right now
    /// (1.0 while closed).
    pub fn timeout_scale(&self) -> f64 {
        if self.state() == BreakerState::Closed {
            1.0
        } else {
            self.config.timeout_scale
        }
    }

    /// Times the breaker has tripped so far.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            trip_threshold: 0.5,
            cooldown: 3,
            probe: 2,
            timeout_scale: 2.0,
        }
    }

    #[test]
    fn healthy_windows_never_trip() {
        let b = CircuitBreaker::new(small());
        for _ in 0..100 {
            b.record(false);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
        assert!(b.allows_batched());
        assert_eq!(b.timeout_scale(), 1.0);
    }

    #[test]
    fn a_faulty_window_trips_and_degrades() {
        let b = CircuitBreaker::new(small());
        // 2 faults in a window of 4 hits the 0.5 threshold.
        for fault in [true, false, true, false] {
            b.record(fault);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert!(!b.allows_batched());
        assert_eq!(b.timeout_scale(), 2.0);
    }

    #[test]
    fn one_early_fault_cannot_trip_before_the_window_completes() {
        let b = CircuitBreaker::new(small());
        b.record(true);
        assert_eq!(b.state(), BreakerState::Closed);
        // The rest of the window is healthy: rate 1/4 < 0.5.
        for _ in 0..3 {
            b.record(false);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn half_open_probe_closes_on_health_and_reopens_on_faults() {
        let b = CircuitBreaker::new(small());
        for _ in 0..4 {
            b.record(true);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown of 3 runs, still degraded throughout.
        for _ in 0..3 {
            assert!(!b.allows_batched());
            b.record(false);
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.timeout_scale(), 2.0, "probe runs stay widened");
        // A faulty probe re-opens...
        b.record(true);
        b.record(true);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        // ...another cooldown, then a healthy probe closes.
        for _ in 0..3 {
            b.record(false);
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(false);
        b.record(false);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows_batched());
        assert_eq!(b.timeout_scale(), 1.0);
        assert_eq!(b.trips(), 2);
    }
}
