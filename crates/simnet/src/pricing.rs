//! Priced events: what a membership change costs, in α–β terms.
//!
//! Every disruptive thing the elastic runtime does to a training run is
//! the same object to the simulator — a [`PricedEvent`]: named phases
//! that run strictly back to back, each priced from the same
//! α–β models as the rest of the simulator. Three events are priced
//! today:
//!
//! * a **reconfiguration** (DESIGN.md §6) — a rank died: *detect* (the
//!   collective deadline must expire before anyone blames the dead
//!   peer), *agree* (the survivors vote the victim out — an
//!   AllReduce of one vote word each), *reshard* (the orphaned expert
//!   weights move to their new owners via the AllGather-shaped global
//!   checkpoint) and *restore* (every survivor reloads the rolled-back
//!   snapshot);
//! * a **migration** (§10) — one hot expert moves, nobody leaves:
//!   *transfer* (the expert's weights over the world broadcast that is
//!   also the move's one rendezvous, on the AlltoAll model as the
//!   point-to-point stand-in) and *rebind* (local shard rebuild and
//!   placement install). No deadline to sit out and no snapshot to
//!   reload, which is why it prices far below a reconfiguration;
//! * the **gray-failure crossover** (§12) — a browned-out rank taxes
//!   every step. [`price_gray_failure`] prices both answers as events:
//!   *limp* (the horizon at the slow rank's pace) against *evict* (a
//!   reconfiguration whose detect phase is free — health scoring
//!   already named the rank — then the rolled-back steps replayed and
//!   the horizon resumed on one fewer rank). `ElasticTrainer` evicts a
//!   live-but-slow rank only once [`GrayFailureCost::eviction_wins`].
//!
//! Pricing is decision input, not reporting: every rank of an SPMD
//! program prices from fleet-identical inputs, so phase order and the
//! left-to-right sum in [`PricedEvent::total`] are part of the
//! contract.

use crate::OpCosts;

/// Named sequential phases, each with a cost in ms.
#[derive(Debug, Clone, PartialEq)]
pub struct PricedEvent {
    /// `(phase, ms)` in execution order.
    pub phases: Vec<(&'static str, f64)>,
}

impl PricedEvent {
    /// Total stall: the phases are strictly sequential, so the costs
    /// add, first phase first.
    pub fn total(&self) -> f64 {
        self.phases.iter().fold(0.0, |sum, &(_, ms)| sum + ms)
    }

    /// The cost of the phase called `name` (0 when the event has none).
    pub fn phase(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .find(|(phase, _)| *phase == name)
            .map_or(0.0, |&(_, ms)| ms)
    }
}

/// Prices evicting a dead rank.
///
/// * `world` — surviving rank count (the vote spans the survivors, one
///   8-byte word each).
/// * `deadline_ms` — the collective deadline; detection cannot be
///   faster than the deadline that declares the victim dead.
/// * `moved_bytes` — orphaned expert weights that change owner.
/// * `checkpoint_bytes` — full snapshot each survivor reloads.
pub fn price_reconfiguration(
    costs: &OpCosts,
    world: usize,
    deadline_ms: f64,
    moved_bytes: f64,
    checkpoint_bytes: f64,
) -> PricedEvent {
    let world = world.max(1) as f64;
    PricedEvent {
        phases: vec![
            ("detect", deadline_ms.max(0.0)),
            ("agree", costs.all_reduce.time(8.0 * world)),
            ("reshard", costs.all_gather.time(moved_bytes.max(0.0))),
            ("restore", costs.all_gather.time(checkpoint_bytes.max(0.0))),
        ],
    }
}

/// Prices one eviction-free expert migration.
///
/// * `expert_bytes` — the migrated expert's weight payload.
/// * `rebind_ms` — local rebuild time on the destination (measured or
///   modeled; clamped to ≥ 0).
pub fn price_migration(costs: &OpCosts, expert_bytes: f64, rebind_ms: f64) -> PricedEvent {
    PricedEvent {
        phases: vec![
            ("transfer", costs.a2a.time(expert_bytes.max(0.0))),
            ("rebind", rebind_ms.max(0.0)),
        ],
    }
}

/// The two answers to a browned-out rank, each a priced event.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayFailureCost {
    /// Doing nothing: the horizon run at the slow rank's pace.
    pub limp: PricedEvent,
    /// Evicting: the reconfiguration (detect free), the rolled-back
    /// steps replayed, and the horizon resumed on the shrunken world.
    pub evict: PricedEvent,
}

impl GrayFailureCost {
    /// Whether evicting the slow rank beats limping over the horizon.
    pub fn eviction_wins(&self) -> bool {
        self.evict.total() < self.limp.total()
    }
}

/// Prices the keep-limping-vs-evict crossover for one gray-failed rank.
///
/// * `world` — current rank count, slow rank included.
/// * `healthy_step_ms` — a step's cost when nobody limps.
/// * `slowdown` — the slow rank's health score (1.0 = healthy, 2.0 =
///   half speed); the whole fleet steps at this pace. Clamped to ≥ 1.
/// * `horizon_steps` — how far ahead the comparison looks. Short
///   horizons favour limping (the reconfiguration never amortizes);
///   long horizons favour eviction.
/// * `replay_steps` — steps the eviction's rollback discards and the
///   shrunken world must re-run.
/// * `moved_bytes` / `checkpoint_bytes` — as in
///   [`price_reconfiguration`]: orphaned weights and snapshot size.
///
/// Every input is identical on every rank of an SPMD program (scores
/// are all-reduced, sizes derive from the config), so every rank prices
/// the same crossover and the eviction decision is itself SPMD.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors price_reconfiguration's flat signature"
)]
pub fn price_gray_failure(
    costs: &OpCosts,
    world: usize,
    healthy_step_ms: f64,
    slowdown: f64,
    horizon_steps: usize,
    replay_steps: usize,
    moved_bytes: f64,
    checkpoint_bytes: f64,
) -> GrayFailureCost {
    let world = world.max(2) as f64;
    let healthy = healthy_step_ms.max(0.0);
    let horizon = horizon_steps as f64;
    // One fewer rank shoulders the same model: each step slows by the
    // lost rank's share.
    let shrunken_step = healthy * world / (world - 1.0);
    let mut evict = price_reconfiguration(
        costs,
        world as usize - 1,
        0.0,
        moved_bytes,
        checkpoint_bytes,
    );
    evict.phases.extend([
        ("replay", replay_steps as f64 * shrunken_step),
        ("resumed", horizon * shrunken_step),
    ]);
    GrayFailureCost {
        limp: PricedEvent {
            phases: vec![("limp", horizon * healthy * slowdown.max(1.0))],
        },
        evict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Testbed;

    const MOVED: f64 = 1e6;
    const CKPT: f64 = 4e6;

    #[test]
    fn reconfiguration_phases_follow_the_alpha_beta_models() {
        let costs = Testbed::a().costs;
        let c = price_reconfiguration(&costs, 4, 50.0, MOVED, CKPT);
        assert_eq!(c.phase("detect"), 50.0);
        assert_eq!(c.phase("agree"), costs.all_reduce.time(32.0));
        assert_eq!(c.phase("reshard"), costs.all_gather.time(MOVED));
        assert_eq!(c.phase("restore"), costs.all_gather.time(CKPT));
        // Bit-for-bit the left-to-right sum: the total is a decision input.
        assert_eq!(
            c.total(),
            c.phase("detect") + c.phase("agree") + c.phase("reshard") + c.phase("restore")
        );
        assert_eq!(c.phase("no such phase"), 0.0);
    }

    #[test]
    fn migration_phases_follow_the_alpha_beta_models() {
        let costs = Testbed::a().costs;
        let m = price_migration(&costs, 2e6, 3.0);
        assert_eq!(m.phase("transfer"), costs.a2a.time(2e6));
        assert_eq!(m.phase("rebind"), 3.0);
        assert_eq!(m.total(), m.phase("transfer") + m.phase("rebind"));
    }

    #[test]
    fn reconfiguration_cost_is_monotone_in_every_input() {
        let costs = Testbed::b().costs;
        let base = price_reconfiguration(&costs, 4, 50.0, 1e6, 4e6).total();
        assert!(price_reconfiguration(&costs, 8, 50.0, 1e6, 4e6).total() > base);
        assert!(price_reconfiguration(&costs, 4, 60.0, 1e6, 4e6).total() > base);
        assert!(price_reconfiguration(&costs, 4, 50.0, 2e6, 4e6).total() > base);
        assert!(price_reconfiguration(&costs, 4, 50.0, 1e6, 8e6).total() > base);
    }

    #[test]
    fn migration_cost_is_monotone_in_every_input() {
        let costs = Testbed::b().costs;
        let base = price_migration(&costs, 2e6, 3.0).total();
        assert!(price_migration(&costs, 4e6, 3.0).total() > base);
        assert!(price_migration(&costs, 2e6, 6.0).total() > base);
    }

    #[test]
    fn degenerate_reconfiguration_clamps_instead_of_poisoning() {
        let costs = Testbed::a().costs;
        let c = price_reconfiguration(&costs, 0, -1.0, -5.0, -5.0);
        assert_eq!(c.phase("detect"), 0.0);
        // Zero-byte collectives still pay their startup α.
        assert_eq!(c.phase("agree"), costs.all_reduce.time(8.0));
        assert_eq!(c.phase("reshard"), costs.all_gather.alpha);
        assert!(c.total().is_finite());
    }

    #[test]
    fn degenerate_migration_clamps_instead_of_poisoning() {
        let costs = Testbed::a().costs;
        let m = price_migration(&costs, -5.0, -2.0);
        assert_eq!(m.phase("transfer"), costs.a2a.alpha);
        assert_eq!(m.phase("rebind"), 0.0);
        assert!(m.total().is_finite());
    }

    #[test]
    fn degenerate_gray_failure_clamps_instead_of_poisoning() {
        let costs = Testbed::a().costs;
        // Sub-1.0 slowdown clamps to healthy pace; a 2-rank world is the
        // smallest that can lose a member.
        let g = price_gray_failure(&costs, 0, -5.0, 0.5, 10, 0, -1.0, -1.0);
        assert!(g.limp.total() >= 0.0);
        assert!(g.evict.total().is_finite());
        assert!(
            !g.eviction_wins(),
            "nothing to gain from evicting a healthy fleet: {g:?}"
        );
    }

    #[test]
    fn migration_prices_far_below_eviction_for_the_same_payload() {
        let costs = Testbed::a().costs;
        let migrate = price_migration(&costs, 2e6, 3.0);
        // The eviction moves the same orphan payload but also sits out
        // the detection deadline and reloads a full snapshot.
        let evict = price_reconfiguration(&costs, 4, 50.0, 2e6, 8e6);
        assert!(
            migrate.total() < evict.total(),
            "migration {} should undercut eviction {}",
            migrate.total(),
            evict.total()
        );
    }

    #[test]
    fn severe_slowdown_over_a_long_horizon_flips_to_eviction() {
        let costs = Testbed::a().costs;
        let c = price_gray_failure(&costs, 4, 10.0, 2.0, 1000, 2, MOVED, CKPT);
        // Limp: 1000 × 10 × 2.0 = 20 s; evict: reconfig + ~1002 × 13.3 ms.
        assert!(c.eviction_wins(), "2× slowdown for 1000 steps: {c:?}");
        // A slowdown under the shrunken world's 4/3 step tax never
        // amortizes, however long the horizon.
        let c = price_gray_failure(&costs, 4, 10.0, 1.05, 1000, 2, MOVED, CKPT);
        assert!(!c.eviction_wins(), "1.05× for 1000 steps: {c:?}");
    }

    #[test]
    fn mild_slowdown_over_a_short_horizon_keeps_limping() {
        let costs = Testbed::a().costs;
        let c = price_gray_failure(&costs, 4, 10.0, 1.1, 5, 2, MOVED, CKPT);
        // Limp: 5 × 11 = 55 ms; evict pays the reconfiguration alone
        // plus 7 steps at 4/3 weight — never amortized in 5 steps.
        assert!(!c.eviction_wins(), "1.1× for 5 steps: {c:?}");
    }

    #[test]
    fn breakeven_moves_with_the_horizon() {
        // The same slowdown that is not worth evicting over a short
        // horizon becomes worth it over a long one.
        let costs = Testbed::b().costs;
        let short = price_gray_failure(&costs, 4, 10.0, 1.6, 10, 2, MOVED, CKPT);
        let long = price_gray_failure(&costs, 4, 10.0, 1.6, 10_000, 2, MOVED, CKPT);
        assert!(!short.eviction_wins(), "{short:?}");
        assert!(long.eviction_wins(), "{long:?}");
    }

    #[test]
    fn eviction_branch_opens_with_the_protocol_minus_detection() {
        let costs = Testbed::a().costs;
        let c = price_gray_failure(&costs, 4, 10.0, 1.5, 100, 2, MOVED, CKPT);
        let reconfig = price_reconfiguration(&costs, 3, 0.0, MOVED, CKPT);
        assert_eq!(c.evict.phases[..4], reconfig.phases[..]);
        assert_eq!(
            c.evict.phase("detect"),
            0.0,
            "health scoring already detected; no deadline sit-out"
        );
    }

    #[test]
    fn eviction_branch_charges_the_shrunken_world_step_tax() {
        let costs = Testbed::a().costs;
        let c = price_gray_failure(&costs, 4, 12.0, 2.0, 100, 3, MOVED, CKPT);
        let shrunken = 12.0 * 4.0 / 3.0;
        assert!((c.evict.phase("resumed") - 100.0 * shrunken).abs() < 1e-9);
        assert!((c.evict.phase("replay") - 3.0 * shrunken).abs() < 1e-9);
        assert!((c.limp.total() - 100.0 * 24.0).abs() < 1e-9);
        // Bit-for-bit what the three-module model summed.
        let reconfig = price_reconfiguration(&costs, 3, 0.0, MOVED, CKPT);
        assert_eq!(
            c.evict.total(),
            reconfig.total() + c.evict.phase("replay") + c.evict.phase("resumed")
        );
    }

    #[test]
    fn monotone_in_slowdown_and_horizon() {
        let costs = Testbed::b().costs;
        let base = price_gray_failure(&costs, 4, 10.0, 1.5, 100, 2, MOVED, CKPT);
        let slower = price_gray_failure(&costs, 4, 10.0, 2.5, 100, 2, MOVED, CKPT);
        assert!(slower.limp.total() > base.limp.total());
        assert_eq!(slower.evict.total(), base.evict.total());
        let longer = price_gray_failure(&costs, 4, 10.0, 1.5, 200, 2, MOVED, CKPT);
        assert!(longer.limp.total() > base.limp.total());
        assert!(longer.evict.total() > base.evict.total());
    }
}
