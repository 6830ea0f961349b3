//! Expert placement maps and elastic re-sharding plans.
//!
//! The distributed layer normally places expert `e` at EP position
//! `e / (E/N_EP)` (the paper's block layout). When a rank is evicted,
//! the survivors must keep serving *all* `E` experts over `N_EP − 1`
//! positions — an [`ExpertMap`] describes any such placement, and a
//! [`ReshardPlan`] is either the deterministic round-robin
//! redistribution of an evicted position's experts across the
//! survivors or an eviction-free single-expert migration.
//!
//! Placement re-bases rows and never moves them twice: the layer lays
//! its order buffer out by [`ExpertMap::slot_of`]
//! ([`Routing::into_placed`](crate::routing::Routing::into_placed)), so
//! the buffer is born in the order the EP AlltoAll exchanges and
//! **any** placement of the same weights computes bit-identical outputs
//! (the property the elastic bit-identity test in `models` pins down).
//!
//! Placements need not be uniform. The dispatch AlltoAll still
//! exchanges equal-size chunks: every position owns
//! [`ExpertMap::slots_per_position`] slots (a wire block of `T + 1` rows
//! each), its experts in the leading ones. Trailing pad slots are rows
//! no assignment occupies: zeros that never reach an expert or a token.

use crate::{MoeError, Result};

/// A placement of `E` experts over `N_EP` expert-parallel positions.
/// Every position hosts at least one expert; positions may host
/// different numbers of experts (non-uniform layouts arise from
/// hot-expert migration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpertMap {
    /// `experts_on[p]` — global expert ids hosted at EP position `p`,
    /// in local order.
    experts_on: Vec<Vec<usize>>,
    /// `position_of[e]` — EP position hosting expert `e`.
    position_of: Vec<usize>,
}

impl ExpertMap {
    /// The default block placement: expert `e` at position
    /// `e / (E/N_EP)`.
    ///
    /// # Errors
    ///
    /// Returns an error when `num_experts` does not divide by `n_ep`.
    pub fn block(num_experts: usize, n_ep: usize) -> Result<Self> {
        if n_ep == 0 || !num_experts.is_multiple_of(n_ep) {
            return Err(MoeError::BadConfig {
                field: "num_experts",
                reason: format!("{num_experts} experts do not tile {n_ep} EP positions"),
            });
        }
        let per = num_experts / n_ep;
        Self::from_lists(
            (0..n_ep)
                .map(|p| (p * per..(p + 1) * per).collect())
                .collect(),
        )
    }

    /// Builds a map from explicit per-position expert lists. Lists may
    /// have different lengths, but every position must host at least
    /// one expert and the lists together must cover every expert id in
    /// `0..total` exactly once.
    ///
    /// # Errors
    ///
    /// Returns a typed [`MoeError::BadConfig`] when a position is
    /// empty, an expert id is out of range or placed twice, or an
    /// expert id is missing.
    pub fn from_lists(experts_on: Vec<Vec<usize>>) -> Result<Self> {
        let n_ep = experts_on.len();
        if n_ep == 0 {
            return Err(MoeError::BadConfig {
                field: "expert_map",
                reason: "placement must have at least one EP position".into(),
            });
        }
        let num_experts: usize = experts_on.iter().map(Vec::len).sum();
        let mut position_of = vec![usize::MAX; num_experts];
        for (p, list) in experts_on.iter().enumerate() {
            if list.is_empty() {
                return Err(MoeError::BadConfig {
                    field: "expert_map",
                    reason: format!("position {p} hosts no experts"),
                });
            }
            for &e in list {
                if e >= num_experts {
                    return Err(MoeError::BadConfig {
                        field: "expert_map",
                        reason: format!("expert {e} out of range for {num_experts} experts"),
                    });
                }
                if position_of[e] != usize::MAX {
                    return Err(MoeError::BadConfig {
                        field: "expert_map",
                        reason: format!("expert {e} placed twice"),
                    });
                }
                position_of[e] = p;
            }
        }
        // Exactly-once coverage: the totals match and nothing was
        // placed twice, so a MAX sentinel can only remain if some id
        // was skipped in favour of an out-of-range one — which the
        // range check already rejected. Defensive all the same.
        if let Some(missing) = position_of.iter().position(|&p| p == usize::MAX) {
            return Err(MoeError::BadConfig {
                field: "expert_map",
                reason: format!("expert {missing} is not placed anywhere"),
            });
        }
        Ok(ExpertMap {
            experts_on,
            position_of,
        })
    }

    /// Number of EP positions.
    pub fn n_ep(&self) -> usize {
        self.experts_on.len()
    }

    /// Total expert count.
    pub fn num_experts(&self) -> usize {
        self.position_of.len()
    }

    /// Dispatch slots per position: the largest per-position expert
    /// count. Positions hosting fewer experts pad their AlltoAll chunk
    /// with zero blocks up to this width.
    pub fn slots_per_position(&self) -> usize {
        self.experts_on.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Whether every position hosts the same number of experts.
    pub fn is_uniform(&self) -> bool {
        let per = self.experts_on[0].len();
        self.experts_on.iter().all(|list| list.len() == per)
    }

    /// The EP position hosting expert `e`.
    pub fn position_of(&self, e: usize) -> usize {
        self.position_of[e]
    }

    /// Global expert ids hosted at position `p`, in local order.
    pub fn experts_on(&self, p: usize) -> &[usize] {
        &self.experts_on[p]
    }

    /// The dispatch slot of expert `e`: positions own
    /// [`Self::slots_per_position`] consecutive slots each, and a
    /// position's experts occupy its leading slots in local order (pad
    /// slots trail and belong to nobody).
    pub fn slot_of(&self, e: usize) -> usize {
        let p = self.position_of[e];
        let local = self.experts_on[p].iter().take_while(|&&x| x != e).count();
        p * self.slots_per_position() + local
    }

    /// The placement after evicting position `evicted_pos`: survivors
    /// keep their experts (positions above the evicted one shift down
    /// by one), and the orphaned experts are dealt round-robin across
    /// the survivors in ascending expert order. An orphan count that
    /// does not divide evenly leaves the lowest survivors one expert
    /// heavier — the gray-failure path needs this, because a quarantine
    /// drain deliberately thins the slow position before the eviction
    /// lands.
    ///
    /// # Errors
    ///
    /// Returns an error when the eviction leaves no survivors or when
    /// `evicted_pos` is out of range.
    pub fn after_eviction(&self, evicted_pos: usize) -> Result<ExpertMap> {
        let n = self.n_ep();
        if evicted_pos >= n {
            return Err(MoeError::BadConfig {
                field: "evicted_pos",
                reason: format!("position {evicted_pos} out of range for {n} EP positions"),
            });
        }
        if n == 1 {
            return Err(MoeError::BadConfig {
                field: "evicted_pos",
                reason: "cannot evict the last EP position".into(),
            });
        }
        let survivors = n - 1;
        let mut orphans: Vec<usize> = self.experts_on[evicted_pos].clone();
        orphans.sort_unstable();
        let mut lists: Vec<Vec<usize>> = self
            .experts_on
            .iter()
            .enumerate()
            .filter(|&(p, _)| p != evicted_pos)
            .map(|(_, list)| list.clone())
            .collect();
        for (i, e) in orphans.into_iter().enumerate() {
            lists[i % survivors].push(e);
        }
        Self::from_lists(lists)
    }

    /// The placement after migrating `expert` to position `to`: the
    /// expert leaves its current position's list (local order of the
    /// remaining experts is preserved) and is appended to the end of
    /// `to`'s list. The world is not renumbered and no other expert
    /// moves.
    ///
    /// # Errors
    ///
    /// Returns a typed [`MoeError::BadConfig`] when `expert` or `to`
    /// is out of range, when `expert` already lives at `to`, or when
    /// the move would leave the source position empty.
    pub fn migrated(&self, expert: usize, to: usize) -> Result<ExpertMap> {
        if expert >= self.num_experts() {
            return Err(MoeError::BadConfig {
                field: "migrate",
                reason: format!(
                    "expert {expert} out of range for {} experts",
                    self.num_experts()
                ),
            });
        }
        if to >= self.n_ep() {
            return Err(MoeError::BadConfig {
                field: "migrate",
                reason: format!(
                    "position {to} out of range for {} EP positions",
                    self.n_ep()
                ),
            });
        }
        let from = self.position_of(expert);
        if from == to {
            return Err(MoeError::BadConfig {
                field: "migrate",
                reason: format!("expert {expert} already lives at position {to}"),
            });
        }
        if self.experts_on[from].len() == 1 {
            return Err(MoeError::BadConfig {
                field: "migrate",
                reason: format!("migrating expert {expert} would leave position {from} empty"),
            });
        }
        let mut lists = self.experts_on.clone();
        lists[from].retain(|&e| e != expert);
        lists[to].push(expert);
        Self::from_lists(lists)
    }
}

/// A re-sharding plan: the new placement survivors rebuild under after
/// an eviction, a deliberate re-placement, or an eviction-free
/// hot-expert migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReshardPlan {
    /// The placement to rebuild under.
    pub map: ExpertMap,
}

impl ReshardPlan {
    /// The deterministic round-robin plan for evicting `evicted_pos`
    /// from the placement `old`.
    ///
    /// # Errors
    ///
    /// Propagates [`ExpertMap::after_eviction`] failures.
    pub fn round_robin(old: &ExpertMap, evicted_pos: usize) -> Result<ReshardPlan> {
        Ok(ReshardPlan {
            map: old.after_eviction(evicted_pos)?,
        })
    }

    /// A plan that installs an explicit placement (same-world remaps,
    /// used by the placement-invariance tests).
    pub fn custom(map: ExpertMap) -> ReshardPlan {
        ReshardPlan { map }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `slot_of` for every expert, in expert order.
    fn slots(map: &ExpertMap) -> Vec<usize> {
        (0..map.num_experts()).map(|e| map.slot_of(e)).collect()
    }

    #[test]
    fn block_map_is_identity() {
        let map = ExpertMap::block(6, 3).unwrap();
        assert!(map.is_uniform());
        assert_eq!(map.slots_per_position(), 2);
        assert_eq!(slots(&map), [0, 1, 2, 3, 4, 5]);
        assert_eq!(map.experts_on(1), &[2, 3]);
        assert_eq!(map.position_of(5), 2);
        assert!(ExpertMap::block(5, 3).is_err());
    }

    #[test]
    fn from_lists_validates() {
        assert!(ExpertMap::from_lists(vec![]).is_err());
        assert!(ExpertMap::from_lists(vec![vec![0, 1], vec![]]).is_err());
        assert!(ExpertMap::from_lists(vec![vec![0, 1], vec![2, 2]]).is_err());
        assert!(ExpertMap::from_lists(vec![vec![0, 1], vec![2, 9]]).is_err());
        let map = ExpertMap::from_lists(vec![vec![1, 3], vec![0, 2]]).unwrap();
        assert_eq!(map.position_of(3), 0);
        assert_eq!(slots(&map), [2, 0, 3, 1]);
    }

    #[test]
    fn non_uniform_lists_pad_their_slots() {
        let map = ExpertMap::from_lists(vec![vec![0, 2, 4], vec![1], vec![3]]).unwrap();
        assert!(!map.is_uniform());
        assert_eq!(map.slots_per_position(), 3);
        assert_eq!(map.num_experts(), 5);
        // slots 4, 5, 7 and 8 are pads
        assert_eq!(slots(&map), [0, 3, 1, 6, 2]);
        assert_eq!(map.position_of(4), 0);
        assert_eq!(map.position_of(3), 2);
    }

    #[test]
    fn eviction_is_round_robin_and_deterministic() {
        // 3 positions × 2 experts; evicting position 1 orphans {2, 3},
        // dealt round-robin to survivors (old 0, old 2).
        let map = ExpertMap::block(6, 3).unwrap();
        let after = map.after_eviction(1).unwrap();
        assert_eq!(after.n_ep(), 2);
        assert_eq!(after.experts_on(0), &[0, 1, 2]);
        assert_eq!(after.experts_on(1), &[4, 5, 3]);
        assert_eq!(after.position_of(2), 0);
        assert_eq!(after.position_of(3), 1);
        // Deterministic: same input, same plan.
        assert_eq!(after, map.after_eviction(1).unwrap());
    }

    #[test]
    fn eviction_rejects_degenerate_worlds() {
        // A 1-position world has nobody left; out-of-range positions
        // are typed errors.
        let map = ExpertMap::block(2, 1).unwrap();
        let err = map.after_eviction(0).unwrap_err();
        assert!(matches!(err, MoeError::BadConfig { .. }), "{err:?}");
        assert!(map.after_eviction(7).is_err());
        assert!(ExpertMap::block(8, 4).unwrap().after_eviction(9).is_err());
    }

    #[test]
    fn uneven_eviction_deals_round_robin_with_low_positions_first() {
        // 4 positions × 2 experts: evicting position 2 orphans {4, 5}
        // over 3 survivors — one orphan each to the two lowest.
        let map = ExpertMap::block(8, 4).unwrap();
        let after = map.after_eviction(2).unwrap();
        assert_eq!(after.n_ep(), 3);
        assert_eq!(after.experts_on(0), &[0, 1, 4]);
        assert_eq!(after.experts_on(1), &[2, 3, 5]);
        assert_eq!(after.experts_on(2), &[6, 7]);
    }

    #[test]
    fn migration_moves_one_expert_and_nothing_else() {
        let map = ExpertMap::block(8, 4).unwrap();
        let after = map.migrated(1, 3).unwrap();
        assert_eq!(after.experts_on(0), &[0]);
        assert_eq!(after.experts_on(1), &[2, 3]);
        assert_eq!(after.experts_on(3), &[6, 7, 1]);
        assert_eq!(after.position_of(1), 3);
        assert!(!after.is_uniform());
        assert_eq!(after.slots_per_position(), 3);
        // Deterministic and composable: migrate it back.
        let back = after.migrated(1, 0).unwrap();
        assert_eq!(back.experts_on(0), &[0, 1]);
        assert_eq!(back.position_of(1), 0);
    }

    #[test]
    fn migration_rejects_bad_moves() {
        let map = ExpertMap::block(8, 4).unwrap();
        // Out-of-range expert and position.
        assert!(map.migrated(8, 0).is_err());
        assert!(map.migrated(0, 4).is_err());
        // No-op move.
        assert!(map.migrated(0, 0).is_err());
        // Emptied source: position 1 of the non-uniform map below
        // hosts only expert 1.
        let narrow = ExpertMap::from_lists(vec![vec![0, 2], vec![1]]).unwrap();
        assert!(narrow.migrated(1, 0).is_err());
    }
}
