//! Token-to-expert routing decisions with capacity enforcement, and
//! the row map that lays them out.
//!
//! Every gate family produces a [`Routing`]: a list of
//! `(token, expert, slot, weight)` assignments honouring the per-expert
//! capacity `T = k·f·B·L/E`. Overflowing tokens are *dropped* (their
//! assignment is discarded), matching GShard/Tutel semantics when
//! `f ≠ *`.
//!
//! A routing also lays its assignments out: each lives at row
//! `row_base[expert] + slot` ([`Routing::row_of`], the only place that
//! sum is taken) of a [`Routing::rows`]-row order buffer. Gates produce
//! the capacity-padded block form (`row_base[e] = e·T`);
//! [`Routing::into_placed`] / [`Routing::into_dense`] re-base it to an
//! [`ExpertMap`]'s wire blocks or to pad-free groups. Expert ids and the
//! `(expert, slot)` order of the assignments never change, so whatever
//! is accumulated over them is layout-independent.

// The MoE layer's wire path never panics: failures flow as `CommError`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::reshard::ExpertMap;

/// One token-to-expert assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// Source token index (row of the layer input).
    pub token: usize,
    /// Destination expert.
    pub expert: usize,
    /// Capacity slot occupied within the expert's buffer.
    pub slot: usize,
    /// Combine weight applied to the expert output for this token.
    pub weight: f32,
}

/// A complete routing decision for one batch of tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct Routing {
    num_experts: usize,
    capacity: usize,
    num_tokens: usize,
    assignments: Vec<Assignment>,
    dropped: Vec<(usize, usize)>,
    /// Buffer row of each expert's slot 0.
    row_base: Vec<usize>,
    /// Height of the order buffer.
    rows: usize,
}

impl Routing {
    /// Number of experts routed over.
    pub fn num_experts(&self) -> usize {
        self.num_experts
    }

    /// Per-expert slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of input tokens the routing covers.
    pub fn num_tokens(&self) -> usize {
        self.num_tokens
    }

    /// All surviving assignments, ordered by `(expert, slot)`.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// `(token, expert)` pairs that overflowed capacity and were dropped.
    pub fn dropped(&self) -> &[(usize, usize)] {
        &self.dropped
    }

    /// Height of the order buffer this routing lays its tokens out in.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The order-buffer row holding assignment `a`.
    pub fn row_of(&self, a: &Assignment) -> usize {
        self.row_base[a.expert] + a.slot
    }

    /// The `E + 1` row boundaries of the experts' groups in buffer order
    /// (the grouped GEMM's offsets); pad rows join the group before them.
    pub fn group_offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.num_experts + 1);
        offsets.extend_from_slice(&self.row_base);
        offsets.sort_unstable();
        offsets.push(self.rows);
        offsets
    }

    /// Re-bases the rows to `map`'s wire blocks. A block is `T + 1`
    /// rows — one header row, then the slot's `T` token rows — so expert
    /// `e` starts at row `map.slot_of(e)·(T + 1) + 1` and the order
    /// buffer is born in the layout the EP AlltoAll exchanges. Header
    /// rows and pad slots are rows nobody writes; the wire path puts
    /// each block's row count in its header (see [`crate::dist`]).
    ///
    /// # Panics
    ///
    /// Panics when `map` places a different number of experts.
    pub fn into_placed(mut self, map: &ExpertMap) -> Self {
        assert_eq!(map.num_experts(), self.num_experts, "map/routing experts");
        let block = self.capacity + 1;
        for (e, base) in self.row_base.iter_mut().enumerate() {
            *base = map.slot_of(e) * block + 1;
        }
        self.rows = map.n_ep() * map.slots_per_position() * block;
        self
    }

    /// Re-bases the rows to pad-free groups in `map`'s slot order (the
    /// MegaBlocks form): expert `e` starts where the loads of the experts
    /// before it end, and there is one row per surviving assignment.
    ///
    /// # Panics
    ///
    /// Panics when `map` places a different number of experts.
    pub fn into_dense(mut self, map: &ExpertMap) -> Self {
        assert_eq!(map.num_experts(), self.num_experts, "map/routing experts");
        let loads = self.expert_loads();
        self.rows = 0;
        for p in 0..map.n_ep() {
            for &e in map.experts_on(p) {
                self.row_base[e] = self.rows;
                self.rows += loads[e];
            }
        }
        self
    }

    /// Tokens occupying each expert (histogram over experts).
    pub fn expert_loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.num_experts];
        for a in &self.assignments {
            loads[a.expert] += 1;
        }
        loads
    }

    /// Fraction of attempted assignments that were dropped.
    pub fn drop_rate(&self) -> f64 {
        let total = self.assignments.len() + self.dropped.len();
        if total == 0 {
            0.0
        } else {
            self.dropped.len() as f64 / total as f64
        }
    }

    /// Coefficient of variation of expert loads — the load-balance metric
    /// gating papers report (0 = perfectly balanced).
    pub fn load_imbalance(&self) -> f64 {
        let loads = self.expert_loads();
        let n = loads.len() as f64;
        let mean = loads.iter().sum::<usize>() as f64 / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = loads
            .iter()
            .map(|&l| (l as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }
}

/// Incrementally builds a [`Routing`], allocating capacity slots in
/// arrival order and dropping overflow.
#[derive(Debug, Clone)]
pub struct RoutingBuilder {
    num_experts: usize,
    capacity: usize,
    num_tokens: usize,
    next_slot: Vec<usize>,
    assignments: Vec<Assignment>,
    dropped: Vec<(usize, usize)>,
}

impl RoutingBuilder {
    /// Starts a routing over `num_tokens` tokens, `num_experts` experts,
    /// `capacity` slots per expert.
    ///
    /// # Panics
    ///
    /// Panics when `num_experts` or `capacity` is zero.
    pub fn new(num_tokens: usize, num_experts: usize, capacity: usize) -> Self {
        assert!(num_experts > 0, "routing needs at least one expert");
        assert!(capacity > 0, "routing needs positive capacity");
        RoutingBuilder {
            num_experts,
            capacity,
            num_tokens,
            next_slot: vec![0; num_experts],
            assignments: Vec::new(),
            dropped: Vec::new(),
        }
    }

    /// Attempts to assign `token` to `expert` with `weight`. Returns
    /// `true` when a slot was available, `false` when the token was
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range token or expert indices.
    pub fn assign(&mut self, token: usize, expert: usize, weight: f32) -> bool {
        assert!(token < self.num_tokens, "token {token} out of range");
        assert!(expert < self.num_experts, "expert {expert} out of range");
        if self.next_slot[expert] >= self.capacity {
            self.dropped.push((token, expert));
            return false;
        }
        let slot = self.next_slot[expert];
        self.next_slot[expert] += 1;
        self.assignments.push(Assignment {
            token,
            expert,
            slot,
            weight,
        });
        true
    }

    /// Finishes the routing, ordering assignments by `(expert, slot)` so
    /// ordering functions can stream expert buffers sequentially: one
    /// bucket pass, an assignment going to its expert's start + its slot.
    pub fn finish(mut self) -> Routing {
        // a prefix sum turns each expert's load into its first place
        let mut start = 0;
        for next in &mut self.next_slot {
            (*next, start) = (start, start + *next);
        }
        let mut ordered = self.assignments.clone();
        for a in &self.assignments {
            ordered[self.next_slot[a.expert] + a.slot] = *a;
        }
        self.assignments = ordered;
        Routing {
            num_experts: self.num_experts,
            capacity: self.capacity,
            num_tokens: self.num_tokens,
            assignments: self.assignments,
            dropped: self.dropped,
            row_base: (0..self.num_experts).map(|e| e * self.capacity).collect(),
            rows: self.num_experts * self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_allocate_in_arrival_order() {
        let mut b = RoutingBuilder::new(4, 2, 2);
        assert!(b.assign(0, 0, 1.0));
        assert!(b.assign(1, 0, 0.5));
        assert!(b.assign(2, 1, 0.25));
        let r = b.finish();
        assert_eq!(r.assignments().len(), 3);
        assert_eq!(r.assignments()[0].slot, 0);
        assert_eq!(r.assignments()[1].slot, 1);
        assert_eq!(r.assignments()[2].expert, 1);
    }

    #[test]
    fn capacity_overflow_drops() {
        let mut b = RoutingBuilder::new(3, 1, 2);
        assert!(b.assign(0, 0, 1.0));
        assert!(b.assign(1, 0, 1.0));
        assert!(!b.assign(2, 0, 1.0));
        let r = b.finish();
        assert_eq!(r.dropped(), &[(2, 0)]);
        assert!((r.drop_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut b = RoutingBuilder::new(100, 4, 5);
        for t in 0..100 {
            b.assign(t, t % 4, 1.0);
        }
        let r = b.finish();
        for load in r.expert_loads() {
            assert!(load <= r.capacity());
        }
        assert_eq!(r.assignments().len(), 20);
        assert_eq!(r.dropped().len(), 80);
    }

    #[test]
    fn assignments_sorted_by_expert_slot() {
        let mut b = RoutingBuilder::new(6, 3, 2);
        // interleave experts
        for (t, e) in [(0, 2), (1, 0), (2, 1), (3, 2), (4, 0), (5, 1)] {
            b.assign(t, e, 1.0);
        }
        let r = b.finish();
        let keys: Vec<(usize, usize)> =
            r.assignments().iter().map(|a| (a.expert, a.slot)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn balance_metrics() {
        let mut b = RoutingBuilder::new(8, 2, 8);
        for t in 0..8 {
            b.assign(t, t % 2, 1.0);
        }
        let r = b.finish();
        assert_eq!(r.expert_loads(), vec![4, 4]);
        assert_eq!(r.load_imbalance(), 0.0);

        let mut b = RoutingBuilder::new(8, 2, 8);
        for t in 0..8 {
            b.assign(t, 0, 1.0);
        }
        let r = b.finish();
        assert!(r.load_imbalance() > 0.9);
    }

    #[test]
    fn empty_routing_is_sane() {
        let r = RoutingBuilder::new(0, 2, 1).finish();
        assert_eq!(r.drop_rate(), 0.0);
        assert_eq!(r.load_imbalance(), 0.0);
        assert_eq!(r.num_tokens(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_expert_panics() {
        let mut b = RoutingBuilder::new(1, 2, 1);
        b.assign(0, 5, 1.0);
    }
}
