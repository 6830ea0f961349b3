//! The schedule as data: a `Vec<Op>` in issue order, a training step as
//! a list of such [`Segment`]s, their one lowering to a `simnet` task
//! graph, and the makespan of that graph walked straight off the lists.
//!
//! A schedule occupies three exclusive streams, mirroring the hardware
//! the paper targets (§4): the GPU compute stream, the intra-node link
//! (NVLink/PCIe — carries ESP-AllGather and ESP-ReduceScatter), and the
//! inter-node link (IB NIC — carries AlltoAll and Gradient-AllReduce;
//! their contention on this one resource is exactly the §5 co-design
//! problem). Which stream an [`Op`] runs on and whose result it consumes
//! are properties of the op, so the *order of the list* is the whole
//! schedule: each stream executes its ops in list order, head of line.
//! An `Op` carries no duration and no executor handle — pricing is the
//! executor's ([`crate::MoePerfModel::op_ms`] for the simulator).

use std::fmt::Write;

use simnet::{ResourceId, TaskGraph, TaskId};

use crate::Phase;

/// One schedulable operation; the index is the pipeline chunk (or the
/// Gradient-AllReduce piece).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// AlltoAll dispatch of chunk `i`.
    Dispatch(u32),
    /// ESP-AllGather of chunk `i`.
    AllGather(u32),
    /// Expert computation on chunk `i`.
    Expert(u32),
    /// ESP-ReduceScatter of chunk `i`.
    ReduceScatter(u32),
    /// PipeMoE's fused AllGather → expert → ReduceScatter of chunk `i`:
    /// one computation block, the intra-node collectives serialised with
    /// the expert.
    Block(u32),
    /// AlltoAll combine of chunk `i`.
    Combine(u32),
    /// Gradient-AllReduce piece `j`: contends for the inter-node link,
    /// nothing data-depends on it.
    Gar(u32),
    /// The dense (attention) part next to the MoE layer.
    Attn,
}

/// One segment of a training step: ops a layer issues in one phase. An
/// op starts after its producer ([`Op::producers`]) or, without one,
/// after the previous segment's last op.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// The phase it runs in.
    pub phase: Phase,
    /// The layer, counted in its phase's execution order.
    pub layer: usize,
    /// The ops, in issue order.
    pub ops: Vec<Op>,
    /// The price of each Gradient-AllReduce piece, ms: `Gar(j)` takes
    /// `gar[j]`.
    pub gar: Vec<f64>,
}

/// The stream an [`Op`] occupies exclusively while it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stream {
    /// GPU compute stream.
    Compute,
    /// Intra-node communication link.
    Intra,
    /// Inter-node communication link.
    Inter,
}

impl Op {
    /// The stream this op is issued on.
    pub fn stream(self) -> Stream {
        match self {
            Op::Dispatch(_) | Op::Combine(_) | Op::Gar(_) => Stream::Inter,
            Op::AllGather(_) | Op::ReduceScatter(_) => Stream::Intra,
            Op::Expert(_) | Op::Block(_) | Op::Attn => Stream::Compute,
        }
    }

    /// The ops whose result this one consumes; it starts after whichever
    /// of them its schedule issued (a combine follows `RS_i` or the fused
    /// `Block_i`). All `None`: the op waits only for the segment's gate.
    pub fn producers(self) -> [Option<Op>; 2] {
        match self {
            Op::AllGather(i) | Op::Block(i) => [Some(Op::Dispatch(i)), None],
            Op::Expert(i) => [Some(Op::AllGather(i)), None],
            Op::ReduceScatter(i) => [Some(Op::Expert(i)), None],
            Op::Combine(i) => [Some(Op::ReduceScatter(i)), Some(Op::Block(i))],
            Op::Dispatch(_) | Op::Gar(_) | Op::Attn => [None, None],
        }
    }
}

impl std::fmt::Display for Op {
    // Two direct writes, not a nested `write!`: every lowered task is
    // named through this.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (tag, index) = match *self {
            Op::Dispatch(i) => ("D", i),
            Op::AllGather(i) => ("AG", i),
            Op::Expert(i) => ("E", i),
            Op::ReduceScatter(i) => ("RS", i),
            Op::Block(i) => ("B", i),
            Op::Combine(i) => ("C", i),
            Op::Gar(j) => ("GAR", j),
            Op::Attn => return f.write_str("attn"),
        };
        f.write_str(tag)?;
        std::fmt::Display::fmt(&index, f)
    }
}

impl Op {
    /// Number of distinct variants, the first half of [`Op::key`].
    const VARIANTS: usize = 8;

    /// `(variant, index)`: which kind of op this is and its chunk (or
    /// piece) index.
    fn key(self) -> (usize, u32) {
        match self {
            Op::Dispatch(i) => (0, i),
            Op::AllGather(i) => (1, i),
            Op::Expert(i) => (2, i),
            Op::ReduceScatter(i) => (3, i),
            Op::Block(i) => (4, i),
            Op::Combine(i) => (5, i),
            Op::Gar(j) => (6, j),
            Op::Attn => (7, 0),
        }
    }
}

/// What each op issued so far left for its consumers — the task it was
/// lowered to, or the time it ends — keyed by op, so resolving a
/// producer is two lookups instead of a search back along the list.
struct Issued<T> {
    /// One more than the largest index among the ops being issued.
    indices: usize,
    /// `(issue position, value)` of each op's latest issue, at
    /// `variant * indices + index`.
    latest: Vec<Option<(usize, T)>>,
    count: usize,
}

impl<T: Copy> Issued<T> {
    fn for_ops(ops: &[Op]) -> Self {
        let indices = ops
            .iter()
            .map(|op| op.key().1 as usize + 1)
            .max()
            .unwrap_or(0);
        Issued {
            indices,
            latest: vec![None; Op::VARIANTS * indices],
            count: 0,
        }
    }

    fn latest(&self, op: Op) -> Option<(usize, T)> {
        let (variant, index) = op.key();
        let index = index as usize;
        (index < self.indices)
            .then(|| self.latest[variant * self.indices + index])
            .flatten()
    }

    /// The value of `op`'s producer: the latest-issued of its
    /// [`Op::producers`], `None` when it has none.
    ///
    /// # Panics
    ///
    /// Panics, naming `op` as `name()`, when it has producers but none of
    /// them is issued yet.
    fn producer(&self, op: Op, name: impl FnOnce() -> String) -> Option<T> {
        let [first, second] = op.producers();
        // an op without producers waits only for the segment's gate
        first?;
        let issued = [first, second]
            .into_iter()
            .flatten()
            .filter_map(|p| self.latest(p));
        let (_, value) = issued
            .max_by_key(|&(at, _)| at)
            .unwrap_or_else(|| panic!("{} is issued before its producer", name()));
        Some(value)
    }

    /// Records the next op of the list as issued with `value`.
    fn issue(&mut self, op: Op, value: T) {
        let (variant, index) = op.key();
        self.latest[variant * self.indices + index as usize] = Some((self.count, value));
        self.count += 1;
    }
}

/// One MoE layer at pipeline degree `r` with `n_gar` Gradient-AllReduce
/// pieces riding the inter-node link behind the dispatches.
///
/// With `iio` (FSMoE, Figs. 3d/4) the intra-node collectives get their
/// own stream — inter: `D_1 … D_r, GAR…, C_1 … C_r`; intra: `AG_1, AG_2,
/// RS_1, AG_3, RS_2, …, RS_r` (each AllGather ahead of the previous
/// chunk's ReduceScatter so the expert pipeline never starves); compute:
/// `EXP_1 … EXP_r`. Without it (Tutel/PipeMoE's two-resource order, and
/// every baseline) — inter: `D_1 … D_r, GAR…, C_1 … C_r`; compute: the
/// fused `B_1 … B_r`. The layer ends with its last combine.
///
/// # Panics
///
/// Panics when `r == 0`.
pub fn moe_layer(iio: bool, r: u32, n_gar: usize) -> Vec<Op> {
    assert!(r >= 1, "pipeline degree must be at least 1");
    let gar = (0..n_gar as u32).map(Op::Gar);
    let mut ops = Vec::with_capacity(5 * r as usize + n_gar);
    if iio {
        ops.extend((0..r).map(Op::Dispatch).chain(gar));
        for i in 0..r {
            ops.extend([Op::AllGather(i), Op::Expert(i)]);
            if i >= 1 {
                ops.push(Op::ReduceScatter(i - 1));
            }
        }
        ops.push(Op::ReduceScatter(r - 1));
    } else {
        ops.extend(
            (0..r)
                .flat_map(|i| [Op::Dispatch(i), Op::Block(i)])
                .chain(gar),
        );
    }
    ops.extend((0..r).map(Op::Combine));
    ops
}

impl crate::MoePerfModel {
    /// The simulator's price list for one layer's ops at degree `r`, ms:
    /// each AlltoAll pays `a2a_extra` on top of `t_{a2a,r}`, a fused
    /// [`Op::Block`] is `t_ag + t_exp + t_rs`, and piece `j` of the
    /// Gradient-AllReduce takes `gar[j]`.
    ///
    /// # Panics
    ///
    /// The returned pricing panics on [`Op::Attn`] (not part of a MoE
    /// layer) and on a piece index outside `gar`.
    pub fn op_ms<'a>(&self, r: u32, a2a_extra: f64, gar: &'a [f64]) -> impl Fn(Op) -> f64 + 'a {
        let (t_a2a, t_ag, t_rs, t_exp) = (self.t_a2a(r), self.t_ag(r), self.t_rs(r), self.t_exp(r));
        let (t_a2a, block) = (t_a2a + a2a_extra, t_ag + t_exp + t_rs);
        move |op| match op {
            Op::Dispatch(_) | Op::Combine(_) => t_a2a,
            Op::AllGather(_) => t_ag,
            Op::Expert(_) => t_exp,
            Op::ReduceScatter(_) => t_rs,
            Op::Block(_) => block,
            Op::Gar(j) => gar[j as usize],
            Op::Attn => panic!("attention is not priced by the MoE layer model"),
        }
    }
}

/// The three per-GPU streams a schedule is lowered onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSet {
    /// GPU compute stream.
    pub compute: ResourceId,
    /// Intra-node communication link.
    pub intra: ResourceId,
    /// Inter-node communication link.
    pub inter: ResourceId,
}

impl StreamSet {
    /// Registers the three streams on a graph.
    pub fn add_to(graph: &mut TaskGraph) -> Self {
        StreamSet {
            compute: graph.add_resource("compute"),
            intra: graph.add_resource("intra"),
            inter: graph.add_resource("inter"),
        }
    }

    fn resource(&self, stream: Stream) -> ResourceId {
        match stream {
            Stream::Compute => self.compute,
            Stream::Intra => self.intra,
            Stream::Inter => self.inter,
        }
    }
}

/// Lowers `ops`, in order, to one task each: `{label}.{op}` on the op's
/// stream for `ms(op)` milliseconds, after its producer — or after `deps`
/// (the segment's gate: the previous segment's last task) when it has
/// none. Returns the task of each op, in `ops` order.
///
/// # Panics
///
/// Panics when an op's producer is not issued before it, and on
/// [`TaskGraph::add_task`]'s resource / duration / dependency checks.
pub fn lower(
    ops: &[Op],
    graph: &mut TaskGraph,
    streams: &StreamSet,
    ms: impl Fn(Op) -> f64,
    deps: &[TaskId],
    label: &str,
) -> Vec<TaskId> {
    let mut issued = Issued::for_ops(ops);
    let mut tasks: Vec<TaskId> = Vec::with_capacity(ops.len());
    for &op in ops {
        let producer = issued.producer(op, || format!("{label}.{op}"));
        let after = producer.as_ref().map_or(deps, std::slice::from_ref);
        let resource = streams.resource(op.stream());
        // `{label}.{op}`, pushed into a buffer sized up front
        let mut name = String::with_capacity(label.len() + 8);
        name.push_str(label);
        name.push('.');
        write!(name, "{op}").expect("writing to a String cannot fail");
        let task = graph.add_task(name, resource, ms(op), after);
        issued.issue(op, task);
        tasks.push(task);
    }
    tasks
}

/// A walk of a step, one segment at a time: the makespan that [`lower`]
/// (each segment gated on the previous one's last task) followed by
/// `simnet::Engine::simulate` would report, bit for bit, without the
/// graph. Each stream runs its ops in list order, head of line, so one
/// pass places every op: it starts once its stream is free and its
/// producer (without one, the previous segment's last op) has ended.
#[derive(Debug, Clone, Copy, Default)]
pub struct Walk {
    /// When each stream is next free, indexed by `Stream as usize`.
    free: [f64; 3],
    /// When the previous segment's last op ended.
    gate: f64,
    makespan: f64,
}

impl Walk {
    /// Places the next segment's `ops`, priced by `ms`; returns the
    /// makespan so far, ms.
    ///
    /// # Panics
    ///
    /// Panics when an op's producer is not issued before it, and on a
    /// negative or non-finite price (which [`lower`] rejects too).
    pub fn segment(&mut self, ops: &[Op], ms: impl Fn(Op) -> f64) -> f64 {
        let mut issued = Issued::for_ops(ops);
        let gate = self.gate;
        for &op in ops {
            let ready = issued.producer(op, || op.to_string()).unwrap_or(gate);
            let duration = ms(op);
            assert!(
                duration.is_finite() && duration >= 0.0,
                "{op} has invalid duration {duration}"
            );
            let stream = &mut self.free[op.stream() as usize];
            let end = stream.max(ready) + duration;
            *stream = end;
            issued.issue(op, end);
            self.makespan = self.makespan.max(end);
            self.gate = end;
        }
        self.makespan
    }
}

/// Makespan of `ops` run alone, ms: the one-segment [`Walk`], with its
/// panics.
pub fn makespan(ops: &[Op], ms: impl Fn(Op) -> f64) -> f64 {
    Walk::default().segment(ops, ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on(ops: &[Op], stream: Stream) -> String {
        let names: Vec<String> = ops
            .iter()
            .filter(|op| op.stream() == stream)
            .map(Op::to_string)
            .collect();
        names.join(" ")
    }

    #[test]
    fn issue_orders_are_the_papers() {
        let fsmoe = moe_layer(true, 4, 2);
        assert_eq!(
            on(&fsmoe, Stream::Inter),
            "D0 D1 D2 D3 GAR0 GAR1 C0 C1 C2 C3"
        );
        assert_eq!(on(&fsmoe, Stream::Intra), "AG0 AG1 RS0 AG2 RS1 AG3 RS2 RS3");
        assert_eq!(on(&fsmoe, Stream::Compute), "E0 E1 E2 E3");

        let pipemoe: Vec<String> = moe_layer(false, 2, 1).iter().map(Op::to_string).collect();
        assert_eq!(pipemoe.join(" "), "D0 B0 D1 B1 GAR0 C0 C1");
    }

    #[test]
    #[should_panic(expected = "moe.E0 is issued before its producer")]
    fn a_consumer_ahead_of_its_producer_is_rejected() {
        let mut g = TaskGraph::new();
        let s = StreamSet::add_to(&mut g);
        let _ = lower(
            &[Op::Dispatch(0), Op::Expert(0)],
            &mut g,
            &s,
            |_| 1.0,
            &[],
            "moe",
        );
    }
}
