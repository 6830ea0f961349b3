//! Sustained-skew detection over the `moe.expert_load` signal.
//!
//! The [`ImbalanceDetector`] watches per-expert token loads (summed to
//! per-*position* loads through the live [`ExpertMap`]) across a
//! sliding window of steps. When the max/mean position-load ratio stays
//! above a threshold for a full window, it emits a
//! [`MigrationDecision`]: move one hot expert from the most loaded
//! position to the least loaded one — the input to eviction-free
//! migration ([`fsmoe::layer::MoeLayer::migrate`]).
//!
//! Every rule breaks ties by lowest index and consumes only data that
//! is identical on all ranks (all-reduced loads, the shared map), so in
//! an SPMD run every rank computes the *same* decision at the *same*
//! step — a requirement for the world-wide migration fence to line up.

use fsmoe::reshard::ExpertMap;

/// A concrete "move this expert" plan emitted on sustained skew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationDecision {
    /// Global expert id to move.
    pub expert: usize,
    /// EP position currently hosting it (the hot position).
    pub from: usize,
    /// EP position to move it to (the cold position).
    pub to: usize,
}

/// Sliding-window detector for sustained expert-load imbalance.
#[derive(Debug, Clone)]
pub struct ImbalanceDetector {
    /// Consecutive over-threshold steps required before deciding.
    window: usize,
    /// Max/mean position-load ratio that counts as skewed.
    threshold: f64,
    /// Steps to stay quiet after a decision (lets the moved load
    /// settle before re-evaluating).
    cooldown: usize,
    /// Recent per-expert load vectors, oldest first (≤ `window`).
    history: Vec<Vec<f64>>,
    /// Consecutive steps the ratio exceeded the threshold.
    sustained: usize,
    /// Remaining quiet steps after the last decision.
    quiet: usize,
}

impl ImbalanceDetector {
    /// A detector that fires after `window` consecutive steps above
    /// `threshold`, then holds off for `cooldown` steps. `window` and
    /// `threshold` are clamped to ≥ 1 / ≥ 1.0.
    #[must_use]
    pub fn new(window: usize, threshold: f64, cooldown: usize) -> Self {
        ImbalanceDetector {
            window: window.max(1),
            threshold: threshold.max(1.0),
            cooldown,
            history: Vec::new(),
            sustained: 0,
            quiet: 0,
        }
    }

    /// Max/mean ratio over per-position loads (1.0 = perfectly even).
    fn position_ratio(map: &ExpertMap, expert_loads: &[f64]) -> (Vec<f64>, f64) {
        let per_position: Vec<f64> = (0..map.n_ep())
            .map(|p| map.experts_on(p).iter().map(|&e| expert_loads[e]).sum())
            .collect();
        let total: f64 = per_position.iter().sum();
        let mean = total / per_position.len() as f64;
        let max = per_position.iter().copied().fold(0.0f64, f64::max);
        let ratio = if total > 0.0 { max / mean } else { 1.0 };
        (per_position, ratio)
    }

    /// Feeds one step of (all-reduced) per-expert loads. Returns a
    /// migration decision once skew has been sustained for a full
    /// window and a strictly-better placement exists.
    pub fn observe(&mut self, map: &ExpertMap, expert_loads: &[f64]) -> Option<MigrationDecision> {
        self.observe_excluding(map, expert_loads, &[])
    }

    /// Like [`observe`](Self::observe), but never targets a position in
    /// `banned` as the migration destination — the hook health
    /// quarantine uses to keep rebalancing from piling load back onto a
    /// slow rank (the banned list must be identical on all ranks).
    pub fn observe_excluding(
        &mut self,
        map: &ExpertMap,
        expert_loads: &[f64],
        banned: &[usize],
    ) -> Option<MigrationDecision> {
        let (_, ratio) = Self::position_ratio(map, expert_loads);
        obs::set_gauge(obs::names::MOE_IMBALANCE_RATIO, ratio);

        self.history.push(expert_loads.to_vec());
        if self.history.len() > self.window {
            self.history.remove(0);
        }
        if self.quiet > 0 {
            self.quiet -= 1;
            self.sustained = 0;
            return None;
        }
        if ratio > self.threshold {
            self.sustained += 1;
        } else {
            self.sustained = 0;
        }
        if self.sustained < self.window {
            return None;
        }

        // Window-averaged loads smooth out single-step spikes.
        let mut avg = vec![0.0f64; expert_loads.len()];
        for step in &self.history {
            for (a, &l) in avg.iter_mut().zip(step) {
                *a += l;
            }
        }
        let steps = self.history.len() as f64;
        for a in &mut avg {
            *a /= steps;
        }

        let decision = Self::plan(map, &avg, banned);
        if decision.is_some() {
            self.sustained = 0;
            self.quiet = self.cooldown;
        }
        decision
    }

    /// Picks (expert, from, to): hot position's heaviest movable expert
    /// whose move strictly lowers the projected max position load.
    /// Positions in `banned` are never chosen as the destination.
    /// Deterministic: every tie breaks to the lowest index.
    fn plan(map: &ExpertMap, avg_loads: &[f64], banned: &[usize]) -> Option<MigrationDecision> {
        let per_position: Vec<f64> = (0..map.n_ep())
            .map(|p| map.experts_on(p).iter().map(|&e| avg_loads[e]).sum())
            .collect();
        let hot = per_position
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))?
            .0;
        let cold = per_position
            .iter()
            .enumerate()
            .filter(|(p, _)| !banned.contains(p))
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))?
            .0;
        if hot == cold {
            return None;
        }
        // A position must keep ≥ 1 expert (migration never empties a
        // position), so a single-expert hot spot cannot be split.
        let residents = map.experts_on(hot);
        if residents.len() < 2 {
            return None;
        }
        let mut candidates: Vec<usize> = residents.to_vec();
        candidates.sort_by(|&a, &b| avg_loads[b].total_cmp(&avg_loads[a]).then(a.cmp(&b)));
        let current_max = per_position[hot];
        for expert in candidates {
            let moved = avg_loads[expert];
            let projected = per_position
                .iter()
                .enumerate()
                .map(|(p, &l)| {
                    if p == hot {
                        l - moved
                    } else if p == cold {
                        l + moved
                    } else {
                        l
                    }
                })
                .fold(0.0f64, f64::max);
            if projected < current_max {
                return Some(MigrationDecision {
                    expert,
                    from: hot,
                    to: cold,
                });
            }
        }
        None
    }

    /// Current max/mean position-load ratio for `expert_loads` under
    /// `map` (stateless helper for tests and reporting).
    #[must_use]
    pub fn ratio(map: &ExpertMap, expert_loads: &[f64]) -> f64 {
        Self::position_ratio(map, expert_loads).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(experts: usize, positions: usize) -> ExpertMap {
        ExpertMap::block(experts, positions).unwrap()
    }

    #[test]
    fn balanced_loads_never_fire() {
        let map = block(4, 2);
        let mut d = ImbalanceDetector::new(2, 1.5, 0);
        for _ in 0..10 {
            assert_eq!(d.observe(&map, &[10.0, 10.0, 10.0, 10.0]), None);
        }
    }

    #[test]
    fn sustained_skew_fires_after_the_window() {
        let map = block(4, 2);
        let mut d = ImbalanceDetector::new(3, 1.2, 0);
        let skewed = [40.0, 10.0, 5.0, 5.0];
        assert_eq!(d.observe(&map, &skewed), None);
        assert_eq!(d.observe(&map, &skewed), None);
        let got = d.observe(&map, &skewed).expect("third step should fire");
        // Position 0 holds {0, 1} at 50 vs position 1 at 10. Moving
        // expert 0 just relocates the hot spot (projected max 50), so
        // the planner falls through to expert 1: projected max 40 < 50.
        assert_eq!(
            got,
            MigrationDecision {
                expert: 1,
                from: 0,
                to: 1
            }
        );
    }

    #[test]
    fn transient_spikes_reset_the_streak() {
        let map = block(4, 2);
        let mut d = ImbalanceDetector::new(2, 1.2, 0);
        let skewed = [40.0, 10.0, 5.0, 5.0];
        let even = [10.0, 10.0, 10.0, 10.0];
        assert_eq!(d.observe(&map, &skewed), None);
        assert_eq!(d.observe(&map, &even), None);
        assert_eq!(d.observe(&map, &skewed), None, "streak restarted");
    }

    #[test]
    fn cooldown_suppresses_back_to_back_decisions() {
        let map = block(4, 2);
        let mut d = ImbalanceDetector::new(1, 1.2, 3);
        let skewed = [40.0, 10.0, 5.0, 5.0];
        assert!(d.observe(&map, &skewed).is_some());
        for _ in 0..3 {
            assert_eq!(d.observe(&map, &skewed), None, "cooldown");
        }
        assert!(d.observe(&map, &skewed).is_some());
    }

    #[test]
    fn single_expert_hot_position_cannot_split() {
        let map = ExpertMap::from_lists(vec![vec![0], vec![1, 2]]).unwrap();
        let mut d = ImbalanceDetector::new(1, 1.2, 0);
        // Position 0 = {0} at 90; moving its only expert would empty it.
        assert_eq!(d.observe(&map, &[90.0, 5.0, 5.0]), None);
    }

    #[test]
    fn decision_never_projects_a_worse_max() {
        // Hot position {0,1} with one enormous expert: moving either
        // would just relocate the hot spot, so refuse.
        let map = block(4, 2);
        let mut d = ImbalanceDetector::new(1, 1.1, 0);
        assert_eq!(d.observe(&map, &[100.0, 0.0, 1.0, 1.0]), None);
    }

    #[test]
    fn moves_lighter_expert_when_heaviest_cannot_improve() {
        // Position 0 = {0,1} at 100 + 30; position 1 = {2,3} at 1 + 1.
        // Moving expert 0 projects max 102 > 130? No: 100+2=102 < 130,
        // so the heaviest wins here — craft loads where it doesn't.
        let map = block(4, 2);
        let mut d = ImbalanceDetector::new(1, 1.1, 0);
        // {0,1} = 60+50=110, {2,3} = 0+0. Moving 0 → max(50, 60)=60;
        // that improves, heaviest is chosen.
        let got = d.observe(&map, &[60.0, 50.0, 0.0, 0.0]).unwrap();
        assert_eq!(got.expert, 0);
        // {0,1} = 90+20=110, {2,3}=0. Moving 0 → max(20, 90)=90 < 110 ✓
        // heaviest still wins. Now make heaviest not improve:
        // {0,1} = 90+20, {2,3} = 80. Moving 0 → cold becomes 170 ≥ 110;
        // moving 1 → hot 90, cold 100 < 110 ✓.
        let map2 = ExpertMap::from_lists(vec![vec![0, 1], vec![2]]).unwrap();
        let mut d2 = ImbalanceDetector::new(1, 1.1, 0);
        let got2 = d2.observe(&map2, &[90.0, 20.0, 80.0]).unwrap();
        assert_eq!(
            got2,
            MigrationDecision {
                expert: 1,
                from: 0,
                to: 1
            }
        );
    }

    #[test]
    fn excluded_positions_are_never_destinations() {
        // Two positions, cold one quarantined: no healthy destination
        // remains, so the planner refuses.
        let map = block(4, 2);
        let mut d = ImbalanceDetector::new(1, 1.2, 0);
        assert_eq!(
            d.observe_excluding(&map, &[40.0, 10.0, 5.0, 5.0], &[1]),
            None
        );
        // Three positions: the coldest (1) is banned, so the move
        // redirects to the next-coldest healthy position (2).
        let map3 = ExpertMap::from_lists(vec![vec![0, 1], vec![2], vec![3]]).unwrap();
        let mut d3 = ImbalanceDetector::new(1, 1.1, 0);
        let got = d3
            .observe_excluding(&map3, &[90.0, 20.0, 0.0, 5.0], &[1])
            .unwrap();
        assert_eq!(got.from, 0);
        assert_eq!(got.to, 2, "banned cold position must be skipped");
    }

    #[test]
    fn ratio_reports_one_for_balance_and_scales_with_skew() {
        let map = block(4, 2);
        let even = ImbalanceDetector::ratio(&map, &[1.0, 1.0, 1.0, 1.0]);
        assert!((even - 1.0).abs() < 1e-12);
        let skew = ImbalanceDetector::ratio(&map, &[3.0, 0.0, 0.0, 1.0]);
        assert!((skew - 1.5).abs() < 1e-12, "{skew}");
        assert!(ImbalanceDetector::ratio(&map, &[0.0; 4]) == 1.0);
    }

    #[test]
    fn non_uniform_maps_sum_loads_per_position() {
        let map = ExpertMap::from_lists(vec![vec![0], vec![1, 2, 3]]).unwrap();
        let r = ImbalanceDetector::ratio(&map, &[10.0, 10.0, 10.0, 10.0]);
        assert!((r - 1.5).abs() < 1e-12, "{r}");
    }
}
