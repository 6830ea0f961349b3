//! Deterministic fault injection for the collectives runtime.
//!
//! A [`FaultInjector`] carries a schedule of fault events keyed by
//! `(rank, op index)`, where the op index counts the collectives a rank
//! has *entered* (0-based, across all groups). Every collective consults
//! the injector on entry, so any AlltoAll, AllReduce, AllGather,
//! ReduceScatter, Broadcast or Barrier in the system can be attacked:
//!
//! * [`FaultAction::Kill`] — the rank is marked dead; its call (and all
//!   its later calls) return [`CommError::RankDown`], and peers waiting
//!   on it error out instead of hanging;
//! * [`FaultAction::Delay`] — the rank joins the collective late
//!   (straggler), exercising the deadline machinery;
//! * [`FaultAction::DropPayload`] — the rank's contribution is replaced
//!   with zeros, modelling lost/zero-filled traffic (the degradation
//!   mode `fsmoe::dist` accounts for as token drops).
//!
//! Beyond one-shot scheduled faults, a **brownout** ([`Brownout`],
//! [`FaultInjector::brownout`]) models a *gray failure*: a rank that is
//! alive and correct but persistently slow. From `from_op` onward every
//! collective the rank enters is delayed by a seeded, jittered slowdown
//! (plus an intermittent stutter), so the rank limps forever without
//! tripping any single generous timeout — the failure mode the health
//! scoring in `models::health` exists to catch.
//!
//! Schedules are either built explicitly ([`FaultInjector::kill`] etc.)
//! or drawn deterministically from a seed
//! ([`FaultInjector::single_fault_from_seed`]), so chaos tests
//! reproduce exactly.

use std::collections::BTreeMap;
use std::time::Duration;

use parking_lot::Mutex;

#[allow(unused_imports, reason = "doc links")]
use crate::CommError;

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The rank dies at this op: marked dead world-wide, call errors.
    Kill,
    /// The rank sleeps this long before joining the collective.
    Delay(Duration),
    /// The rank's payload is zero-filled before deposit.
    DropPayload,
}

/// A persistent per-rank slowdown: the gray-failure ("brownout") fault
/// mode. Unlike a one-shot [`FaultAction::Delay`], a brownout applies to
/// *every* collective the rank enters from `from_op` onward, with a
/// seeded jitter so consecutive ops do not straggle identically, plus an
/// occasional larger stutter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Brownout {
    /// Mean added latency per collective entry.
    pub mean_delay: Duration,
    /// Jitter as a percentage of `mean_delay`: each op's delay is drawn
    /// uniformly from `mean_delay * [1 - j/100, 1 + j/100]`. Clamped to
    /// at most 100.
    pub jitter_pct: u32,
    /// Every `stutter_every`-th browned-out op additionally sleeps
    /// `stutter_delay` (0 disables stutter).
    pub stutter_every: usize,
    /// Extra latency of the intermittent stutter.
    pub stutter_delay: Duration,
    /// First op index (per the rank's own op counter) the brownout
    /// affects; earlier ops run at full speed.
    pub from_op: usize,
}

impl Brownout {
    /// A steady slowdown with moderate jitter and no stutter, active
    /// from the rank's first collective.
    pub fn steady(mean_delay: Duration) -> Self {
        Brownout {
            mean_delay,
            jitter_pct: 20,
            stutter_every: 0,
            stutter_delay: Duration::ZERO,
            from_op: 0,
        }
    }

    /// The jittered delay this brownout imposes on the rank's
    /// `op_index`-th collective (`None` before `from_op`). Pure in its
    /// inputs, so the same `(seed, rank, op_index)` always produces the
    /// same delay — the determinism chaos soaks rely on.
    pub fn delay_for(&self, seed: u64, rank: usize, op_index: usize) -> Option<Duration> {
        if op_index < self.from_op {
            return None;
        }
        let mut state = seed ^ (rank as u64).rotate_left(32) ^ op_index as u64;
        let draw = splitmix64(&mut state);
        let jitter = self.jitter_pct.min(100) as u64;
        // Scale factor in [100 - j, 100 + j] percent.
        let pct = 100 - jitter + (draw % (2 * jitter + 1));
        let base_us = self.mean_delay.as_micros() as u64;
        #[expect(
            clippy::disallowed_methods,
            reason = "jittered fault magnitude, not an op budget"
        )]
        let mut delay = Duration::from_micros(base_us.saturating_mul(pct) / 100);
        if self.stutter_every > 0 && (op_index - self.from_op).is_multiple_of(self.stutter_every) {
            delay += self.stutter_delay;
        }
        Some(delay)
    }
}

/// A deterministic, seedable schedule of fault events.
///
/// Stored in `BTreeMap`s: the injector feeds chaos tests that must
/// replay identically from a seed, so even enumeration order is kept
/// deterministic (DESIGN.md §13).
#[derive(Debug, Default)]
pub struct FaultInjector {
    schedule: BTreeMap<(usize, usize), FaultAction>,
    /// Persistent per-rank slowdowns, keyed by rank, with their jitter
    /// seeds.
    brownouts: BTreeMap<usize, (Brownout, u64)>,
    /// Per-rank count of collectives entered so far.
    counters: Mutex<BTreeMap<usize, usize>>,
}

impl FaultInjector {
    /// An empty schedule (no faults).
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// Schedules `rank` to die when it enters its `at_op`-th collective.
    #[must_use]
    pub fn kill(mut self, rank: usize, at_op: usize) -> Self {
        self.schedule.insert((rank, at_op), FaultAction::Kill);
        self
    }

    /// Schedules `rank` to straggle by `delay` on its `at_op`-th
    /// collective.
    #[must_use]
    pub fn delay(mut self, rank: usize, at_op: usize, delay: Duration) -> Self {
        self.schedule
            .insert((rank, at_op), FaultAction::Delay(delay));
        self
    }

    /// Schedules `rank`'s payload to be zero-filled on its `at_op`-th
    /// collective.
    #[must_use]
    pub fn drop_payload(mut self, rank: usize, at_op: usize) -> Self {
        self.schedule
            .insert((rank, at_op), FaultAction::DropPayload);
        self
    }

    /// Puts `rank` into a persistent brownout: from `spec.from_op`
    /// onward, every collective it enters is delayed by a seeded,
    /// jittered slowdown. One-shot scheduled faults still take
    /// precedence on their exact op index.
    #[must_use]
    pub fn brownout(mut self, rank: usize, spec: Brownout, seed: u64) -> Self {
        self.brownouts.insert(rank, (spec, seed));
        self
    }

    /// The configured brownouts as `(rank, spec, seed)`, sorted by rank
    /// (the map iterates in key order).
    pub fn brownouts(&self) -> Vec<(usize, Brownout, u64)> {
        self.brownouts
            .iter()
            .map(|(&rank, &(spec, seed))| (rank, spec, seed))
            .collect()
    }

    /// A deterministic random *single-fault* schedule: one rank, one op
    /// index in `0..max_op`, one fault kind out of four — kill, delay,
    /// payload drop, or a persistent brownout starting at that op.
    /// Delays are drawn in `1..=max_delay_ms` milliseconds; brownout
    /// mean delays in `1..=max(max_delay_ms / 4, 1)` so limping stays
    /// well inside the per-op deadline (a brownout is a slowdown the
    /// deadline machinery must *not* catch). The same seed always yields
    /// the same schedule — the contract chaos tests rely on to
    /// reproduce.
    pub fn single_fault_from_seed(
        seed: u64,
        world_size: usize,
        max_op: usize,
        max_delay_ms: u64,
    ) -> Self {
        let mut state = seed;
        let mut next = move || splitmix64(&mut state);
        let rank = (next() % world_size.max(1) as u64) as usize;
        let at_op = (next() % max_op.max(1) as u64) as usize;
        let mut inj = FaultInjector::new();
        match next() % 4 {
            0 => {
                inj.schedule.insert((rank, at_op), FaultAction::Kill);
            }
            1 => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "injected fault magnitude, not an op budget"
                )]
                let delay = Duration::from_millis(1 + next() % max_delay_ms.max(1));
                inj.schedule
                    .insert((rank, at_op), FaultAction::Delay(delay));
            }
            2 => {
                inj.schedule.insert((rank, at_op), FaultAction::DropPayload);
            }
            _ => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "injected brownout magnitude, not an op budget"
                )]
                let mean = Duration::from_millis(1 + next() % (max_delay_ms / 4).max(1));
                let spec = Brownout {
                    mean_delay: mean,
                    jitter_pct: 25,
                    stutter_every: 4,
                    stutter_delay: mean,
                    from_op: at_op,
                };
                inj.brownouts.insert(rank, (spec, next()));
            }
        }
        inj
    }

    /// The scheduled events, in no particular order.
    pub fn events(&self) -> Vec<(usize, usize, FaultAction)> {
        self.schedule
            .iter()
            .map(|(&(rank, op), &action)| (rank, op, action))
            .collect()
    }

    /// Number of collectives `rank` has entered so far.
    pub fn ops_seen(&self, rank: usize) -> usize {
        self.counters.lock().get(&rank).copied().unwrap_or(0)
    }

    /// Called by the runtime when `rank` enters a collective: advances
    /// the rank's op counter and returns the fault (if any) scheduled
    /// for that op. An exact one-shot schedule hit wins over the rank's
    /// brownout; otherwise an active brownout supplies a jittered delay.
    pub(crate) fn on_collective(&self, rank: usize) -> Option<FaultAction> {
        let mut counters = self.counters.lock();
        let op = counters.entry(rank).or_insert(0);
        let current = *op;
        *op += 1;
        drop(counters);
        if let Some(action) = self.schedule.get(&(rank, current)).copied() {
            return Some(action);
        }
        self.brownouts
            .get(&rank)
            .and_then(|&(spec, seed)| spec.delay_for(seed, rank, current))
            .map(FaultAction::Delay)
    }
}

/// SplitMix64 — the same generator family the shims use, kept local so
/// the library crate needs no rand dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_schedule_fires_at_op_index() {
        let inj = FaultInjector::new()
            .kill(1, 2)
            .delay(0, 0, Duration::from_millis(5));
        assert_eq!(
            inj.on_collective(0),
            Some(FaultAction::Delay(Duration::from_millis(5)))
        );
        assert_eq!(inj.on_collective(0), None);
        assert_eq!(inj.on_collective(1), None); // op 0
        assert_eq!(inj.on_collective(1), None); // op 1
        assert_eq!(inj.on_collective(1), Some(FaultAction::Kill)); // op 2
        assert_eq!(inj.ops_seen(1), 3);
        assert_eq!(inj.ops_seen(7), 0);
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let a = FaultInjector::single_fault_from_seed(42, 8, 4, 100);
        let b = FaultInjector::single_fault_from_seed(42, 8, 4, 100);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.brownouts(), b.brownouts());
        assert_eq!(a.events().len() + a.brownouts().len(), 1);
        if let Some(&(rank, op, _)) = a.events().first() {
            assert!(rank < 8);
            assert!(op < 4);
        }
        if let Some(&(rank, spec, _)) = a.brownouts().first() {
            assert!(rank < 8);
            assert!(spec.from_op < 4);
        }
    }

    #[test]
    fn seeds_cover_all_action_kinds() {
        let mut kinds = [false; 4];
        for seed in 0..64 {
            let inj = FaultInjector::single_fault_from_seed(seed, 4, 3, 50);
            if let Some(&(_, spec, _)) = inj.brownouts().first() {
                assert!(spec.mean_delay >= Duration::from_millis(1));
                assert!(spec.mean_delay <= Duration::from_millis(12));
                kinds[3] = true;
                continue;
            }
            match inj.events()[0].2 {
                FaultAction::Kill => kinds[0] = true,
                FaultAction::Delay(d) => {
                    assert!(d >= Duration::from_millis(1));
                    assert!(d <= Duration::from_millis(50));
                    kinds[1] = true;
                }
                FaultAction::DropPayload => kinds[2] = true,
            }
        }
        assert!(kinds.iter().all(|&k| k), "kinds seen: {kinds:?}");
    }

    #[test]
    fn brownout_delays_every_op_from_start_with_bounded_jitter() {
        let spec = Brownout {
            mean_delay: Duration::from_millis(100),
            jitter_pct: 20,
            stutter_every: 0,
            stutter_delay: Duration::ZERO,
            from_op: 2,
        };
        assert_eq!(spec.delay_for(7, 1, 0), None);
        assert_eq!(spec.delay_for(7, 1, 1), None);
        let mut distinct = std::collections::BTreeSet::new();
        for op in 2..32 {
            let d = spec.delay_for(7, 1, op).expect("active from op 2");
            assert!(d >= Duration::from_millis(80), "jitter floor: {d:?}");
            assert!(d <= Duration::from_millis(120), "jitter ceiling: {d:?}");
            distinct.insert(d);
        }
        assert!(distinct.len() > 1, "jitter must vary across ops");
    }

    #[test]
    fn brownout_is_deterministic_and_stutters_periodically() {
        let spec = Brownout {
            mean_delay: Duration::from_millis(10),
            jitter_pct: 0,
            stutter_every: 3,
            stutter_delay: Duration::from_millis(40),
            from_op: 0,
        };
        for op in 0..12 {
            let a = spec.delay_for(9, 2, op);
            assert_eq!(a, spec.delay_for(9, 2, op), "same inputs, same delay");
            let d = a.expect("active from op 0");
            if op % 3 == 0 {
                assert_eq!(d, Duration::from_millis(50), "op {op} stutters");
            } else {
                assert_eq!(d, Duration::from_millis(10), "op {op} is steady");
            }
        }
    }

    #[test]
    fn injected_brownout_delays_collectives_but_exact_schedule_wins() {
        let inj = FaultInjector::new().kill(0, 1).brownout(
            0,
            Brownout::steady(Duration::from_millis(5)),
            3,
        );
        match inj.on_collective(0) {
            Some(FaultAction::Delay(d)) => assert!(d >= Duration::from_millis(4)),
            other => panic!("op 0 should limp, got {other:?}"),
        }
        assert_eq!(inj.on_collective(0), Some(FaultAction::Kill));
        assert_eq!(inj.on_collective(1), None, "other ranks run at speed");
    }
}
