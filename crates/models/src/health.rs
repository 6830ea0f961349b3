//! Per-rank health scoring and the gray-failure escalation ladder.
//!
//! A dead rank trips a deadline; a *limping* rank never does — it just
//! makes every step as slow as itself, forever. The [`HealthMonitor`]
//! closes that gap by detecting sustained hardware skew and
//! restructuring around it:
//!
//! * every step, each rank's *self time* (step wall time minus its
//!   blocked-rendezvous wait, [`collectives::Communicator::blocked_wait_us`])
//!   is all-reduced so the whole fleet sees one identical vector;
//! * the monitor window-averages those self times and scores each rank
//!   against the fleet median — a healthy rank scores ≈ 1.0, a rank
//!   running at half speed scores ≈ 2.0;
//! * a score that stays above threshold for `sustain` consecutive
//!   steps escalates the rank up the ladder: **log** (first offence) →
//!   **quarantine** (keeps its experts, loses migration-destination
//!   eligibility, hot experts drain off it) → **evict candidate**
//!   (handed to [`simnet::price_gray_failure`]'s crossover; the trainer
//!   evicts only when the arithmetic says eviction beats limping).
//!
//! Every input is identical on every rank (all-reduced self times, the
//! shared policy) and every rule breaks ties by lowest rank, so the
//! verdicts are SPMD-deterministic: all ranks walk the same ladder at
//! the same step — the property the quarantine drain and the
//! eviction vote both rely on.

use fsmoe::reshard::ExpertMap;

/// A concrete "move this expert" plan: the input to eviction-free
/// migration ([`fsmoe::layer::MoeLayer::migrate`]), emitted by
/// [`drain_decision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationDecision {
    /// Global expert id to move.
    pub expert: usize,
    /// EP position currently hosting it (the quarantined position).
    pub from: usize,
    /// EP position to move it to (the least-loaded healthy position).
    pub to: usize,
}

/// Knobs for [`HealthMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Sliding-window length (steps) for self-time averaging.
    pub window: usize,
    /// Score (self time over fleet median) above which a rank counts as
    /// degraded. Clamped to ≥ 1.0.
    pub threshold: f64,
    /// Consecutive degraded steps required before escalating.
    pub sustain: usize,
    /// Steps to stay quiet after each escalation (lets the fleet settle
    /// before re-evaluating).
    pub cooldown: usize,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            window: 4,
            threshold: 1.75,
            sustain: 3,
            cooldown: 2,
        }
    }
}

/// One rung of the escalation ladder, emitted by
/// [`HealthMonitor::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthAction {
    /// First offence: record it, change nothing.
    Log {
        /// The degraded rank.
        rank: usize,
        /// Its score at escalation time.
        score: f64,
    },
    /// Second offence: the rank keeps its experts but loses migration
    /// destination eligibility, and its hot experts should drain off it
    /// ([`drain_decision`]).
    Quarantine {
        /// The degraded rank.
        rank: usize,
        /// Its score at escalation time.
        score: f64,
    },
    /// Already quarantined and still degraded: hand the rank to the
    /// keep-limping-vs-evict pricing. The caller either evicts (and
    /// [`HealthMonitor::reset`]s) or [`HealthMonitor::defer`]s.
    EvictCandidate {
        /// The degraded rank.
        rank: usize,
        /// Its score at escalation time — the `slowdown` input to
        /// [`simnet::price_gray_failure`].
        score: f64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Healthy,
    Logged,
    Quarantined,
}

/// Sliding-window per-rank health scorer with sustained-degradation
/// escalation.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    policy: HealthPolicy,
    world: usize,
    /// Recent per-rank self-time vectors (µs), oldest first (≤ window).
    history: Vec<Vec<f64>>,
    /// Consecutive over-threshold steps, per rank.
    sustained: Vec<usize>,
    /// Each rank's ladder stage.
    stage: Vec<Stage>,
    /// Last computed per-rank scores.
    scores: Vec<f64>,
    /// Fleet-median window-averaged self time (µs) at the last
    /// observation — the trainer's healthy-step baseline.
    median_us: f64,
    /// Remaining quiet steps after the last escalation.
    quiet: usize,
}

impl HealthMonitor {
    /// A monitor over `world` ranks. `window` and `sustain` clamp to
    /// ≥ 1, `threshold` to ≥ 1.0.
    #[must_use]
    pub fn new(world: usize, policy: HealthPolicy) -> Self {
        let policy = HealthPolicy {
            window: policy.window.max(1),
            threshold: policy.threshold.max(1.0),
            sustain: policy.sustain.max(1),
            cooldown: policy.cooldown,
        };
        HealthMonitor {
            policy,
            world,
            history: Vec::new(),
            sustained: vec![0; world],
            stage: vec![Stage::Healthy; world],
            scores: vec![1.0; world],
            median_us: 0.0,
            quiet: 0,
        }
    }

    /// The active policy (post-clamping).
    pub fn policy(&self) -> HealthPolicy {
        self.policy
    }

    /// `rank`'s score at the last observation (1.0 = median-healthy).
    pub fn score(&self, rank: usize) -> f64 {
        self.scores.get(rank).copied().unwrap_or(1.0)
    }

    /// All per-rank scores at the last observation.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Ranks currently quarantined, ascending.
    pub fn quarantined(&self) -> Vec<usize> {
        self.stage
            .iter()
            .enumerate()
            .filter(|&(_, s)| *s == Stage::Quarantined)
            .map(|(r, _)| r)
            .collect()
    }

    /// Fleet-median window-averaged self time (µs) at the last
    /// observation — what a step costs when nobody limps.
    pub fn median_self_us(&self) -> f64 {
        self.median_us
    }

    /// Feeds one step of (all-reduced, hence fleet-identical) per-rank
    /// self times, µs. Returns the next escalation when some rank's
    /// degradation has been sustained long enough.
    pub fn observe(&mut self, self_times_us: &[f64]) -> Option<HealthAction> {
        if self_times_us.len() != self.world {
            return None; // world changed under us; caller should reset
        }
        self.history.push(self_times_us.to_vec());
        if self.history.len() > self.policy.window {
            self.history.remove(0);
        }

        // Window-averaged self time per rank, then score against the
        // fleet median: the median is robust to the one slow rank
        // dragging a mean.
        let steps = self.history.len() as f64;
        let avg: Vec<f64> = (0..self.world)
            .map(|r| self.history.iter().map(|h| h[r]).sum::<f64>() / steps)
            .collect();
        let mut sorted = avg.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[self.world / 2];
        self.median_us = median;
        self.scores = avg
            .iter()
            .map(|&a| if median > 0.0 { a / median } else { 1.0 })
            .collect();
        if obs::is_enabled() {
            for (r, &s) in self.scores.iter().enumerate() {
                obs::set_gauge(obs::names::health_score(r), s);
            }
            let worst = self.scores.iter().copied().fold(1.0f64, f64::max);
            obs::set_gauge(obs::names::HEALTH_WORST_SCORE, worst);
        }

        if self.quiet > 0 {
            self.quiet -= 1;
            self.sustained.iter_mut().for_each(|s| *s = 0);
            return None;
        }
        for (r, &score) in self.scores.iter().enumerate() {
            if score > self.policy.threshold {
                self.sustained[r] += 1;
            } else {
                self.sustained[r] = 0;
            }
        }

        // The escalation candidate: sustained long enough, worst score,
        // ties to the lowest rank — identical on every rank.
        let candidate = self
            .sustained
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s >= self.policy.sustain)
            .map(|(r, _)| r)
            .max_by(|&a, &b| self.scores[a].total_cmp(&self.scores[b]).then(b.cmp(&a)))?;
        let score = self.scores[candidate];
        self.sustained[candidate] = 0;
        self.quiet = self.policy.cooldown;
        match self.stage[candidate] {
            Stage::Healthy => {
                self.stage[candidate] = Stage::Logged;
                Some(HealthAction::Log {
                    rank: candidate,
                    score,
                })
            }
            Stage::Logged => {
                self.stage[candidate] = Stage::Quarantined;
                obs::counter_add(obs::names::HEALTH_QUARANTINES, 1);
                Some(HealthAction::Quarantine {
                    rank: candidate,
                    score,
                })
            }
            Stage::Quarantined => Some(HealthAction::EvictCandidate {
                rank: candidate,
                score,
            }),
        }
    }

    /// Records that pricing said keep limping: stay quiet for a
    /// cooldown, then re-evaluate (the candidate stays quarantined).
    pub fn defer(&mut self) {
        self.quiet = self.policy.cooldown.max(1);
    }

    /// Resets for a new (reconfigured) world of `world` ranks: history,
    /// stages and streaks all clear — old-world scores are meaningless
    /// after renumbering.
    pub fn reset(&mut self, world: usize) {
        self.world = world;
        self.history.clear();
        self.sustained = vec![0; world];
        self.stage = vec![Stage::Healthy; world];
        self.scores = vec![1.0; world];
        self.median_us = 0.0;
        self.quiet = 0;
    }
}

/// Plans the hot-expert drain a quarantine triggers: move the lowest
/// quarantined position's heaviest expert (tie → lowest id) to the
/// least-loaded *non-quarantined* position (tie → lowest index).
///
/// The move need not improve balance — the point is getting load *off
/// the slow rank*, and a position must merely keep ≥ 1 expert. Inputs
/// are all-reduced loads and the shared map, so the decision is
/// SPMD-deterministic.
#[must_use]
pub fn drain_decision(
    map: &ExpertMap,
    expert_loads: &[f64],
    quarantined: &[usize],
) -> Option<MigrationDecision> {
    let from = quarantined
        .iter()
        .copied()
        .filter(|&p| p < map.n_ep() && map.experts_on(p).len() >= 2)
        .min()?;
    let expert = map
        .experts_on(from)
        .iter()
        .copied()
        .max_by(|&a, &b| expert_loads[a].total_cmp(&expert_loads[b]).then(b.cmp(&a)))?;
    let per_position: Vec<f64> = (0..map.n_ep())
        .map(|p| map.experts_on(p).iter().map(|&e| expert_loads[e]).sum())
        .collect();
    let to = (0..map.n_ep())
        .filter(|p| !quarantined.contains(p))
        .min_by(|&a, &b| per_position[a].total_cmp(&per_position[b]).then(a.cmp(&b)))?;
    if to == from {
        return None;
    }
    Some(MigrationDecision { expert, from, to })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> HealthPolicy {
        HealthPolicy {
            window: 2,
            threshold: 1.5,
            sustain: 2,
            cooldown: 1,
        }
    }

    /// Per-rank self times with `slow` at `factor`× the healthy 100 µs.
    fn step(world: usize, slow: usize, factor: f64) -> Vec<f64> {
        (0..world)
            .map(|r| if r == slow { 100.0 * factor } else { 100.0 })
            .collect()
    }

    #[test]
    fn healthy_fleet_never_escalates() {
        let mut m = HealthMonitor::new(4, policy());
        for _ in 0..20 {
            assert_eq!(m.observe(&step(4, 0, 1.0)), None);
        }
        assert!(m.quarantined().is_empty());
        for r in 0..4 {
            assert!((m.score(r) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sustained_brownout_walks_the_full_ladder() {
        let mut m = HealthMonitor::new(4, policy());
        let mut actions = Vec::new();
        for _ in 0..30 {
            if let Some(a) = m.observe(&step(4, 2, 2.0)) {
                actions.push(a);
            }
            if matches!(actions.last(), Some(HealthAction::EvictCandidate { .. })) {
                break;
            }
        }
        assert!(
            matches!(actions[0], HealthAction::Log { rank: 2, .. }),
            "{actions:?}"
        );
        assert!(
            matches!(actions[1], HealthAction::Quarantine { rank: 2, .. }),
            "{actions:?}"
        );
        assert!(
            matches!(actions[2], HealthAction::EvictCandidate { rank: 2, .. }),
            "{actions:?}"
        );
        assert_eq!(m.quarantined(), vec![2]);
        assert!(m.score(2) > 1.9, "score {}", m.score(2));
    }

    #[test]
    fn transient_spike_resets_the_streak() {
        let mut m = HealthMonitor::new(4, policy());
        // A 2.0× spike scores 2.0 on its own step, but the following
        // healthy step pulls the window average back to the 1.5
        // threshold — the streak resets, so alternating spikes never
        // accumulate the sustain=2 needed to escalate.
        for i in 0..10 {
            let factor = if i % 2 == 0 { 2.0 } else { 1.0 };
            assert_eq!(m.observe(&step(4, 1, factor)), None, "step {i}");
        }
        assert!(m.quarantined().is_empty());
    }

    #[test]
    fn verdicts_are_spmd_identical_across_replicas() {
        // Two monitors fed the same vectors (as all ranks are) must
        // walk the identical ladder at the identical steps.
        let mut a = HealthMonitor::new(4, HealthPolicy::default());
        let mut b = HealthMonitor::new(4, HealthPolicy::default());
        for i in 0..40 {
            let factor = if i % 7 == 0 { 1.0 } else { 2.2 };
            let v = step(4, 3, factor);
            assert_eq!(a.observe(&v), b.observe(&v), "step {i}");
        }
        assert_eq!(a.quarantined(), b.quarantined());
        assert_eq!(a.scores(), b.scores());
    }

    #[test]
    fn defer_keeps_the_quarantine_but_delays_re_escalation() {
        let mut m = HealthMonitor::new(4, policy());
        let mut evict_seen = 0;
        for _ in 0..40 {
            if let Some(HealthAction::EvictCandidate { rank: 0, .. }) = m.observe(&step(4, 0, 2.0))
            {
                evict_seen += 1;
                m.defer();
                if evict_seen == 2 {
                    break;
                }
            }
        }
        assert_eq!(evict_seen, 2, "deferred candidate must re-fire");
        assert_eq!(m.quarantined(), vec![0]);
    }

    #[test]
    fn reset_clears_everything_for_the_new_world() {
        let mut m = HealthMonitor::new(4, policy());
        for _ in 0..20 {
            let _ = m.observe(&step(4, 2, 2.0));
        }
        assert!(!m.quarantined().is_empty());
        m.reset(3);
        assert!(m.quarantined().is_empty());
        assert_eq!(m.scores(), &[1.0, 1.0, 1.0]);
        assert_eq!(m.observe(&step(3, 0, 1.0)), None);
    }

    #[test]
    fn world_size_mismatch_is_ignored_not_fatal() {
        let mut m = HealthMonitor::new(4, policy());
        assert_eq!(m.observe(&[1.0, 2.0]), None);
    }

    #[test]
    fn drain_moves_the_heaviest_expert_to_a_healthy_position() {
        let map = ExpertMap::block(8, 4).unwrap();
        // Position 3 (experts 6, 7) is quarantined; expert 7 is hotter.
        let mut loads = vec![1.0; 8];
        loads[7] = 10.0;
        loads[0] = 5.0; // position 0 is busiest of the healthy ones
        let d = drain_decision(&map, &loads, &[3]).expect("drainable");
        assert_eq!(d.expert, 7);
        assert_eq!(d.from, 3);
        assert_eq!(d.to, 1, "least-loaded healthy position, tie → lowest");
    }

    #[test]
    fn drain_never_targets_a_quarantined_position() {
        let map = ExpertMap::block(8, 4).unwrap();
        let loads = vec![1.0; 8];
        let d = drain_decision(&map, &loads, &[0, 1]).expect("drainable");
        assert_eq!(d.from, 0, "lowest quarantined position drains first");
        assert!(d.to == 2 || d.to == 3, "destination must be healthy");
    }

    #[test]
    fn drain_refuses_to_empty_a_single_expert_position() {
        let map = ExpertMap::from_lists(vec![vec![0], vec![1, 2]]).unwrap();
        assert_eq!(drain_decision(&map, &[9.0, 1.0, 1.0], &[0]), None);
    }
}
