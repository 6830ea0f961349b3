//! Dropless grouped expert GEMM (the MegaBlocks formulation).
//!
//! Instead of padding every expert to the capacity `T` and looping
//! expert by expert over `(T, M)` slices, a layer whose exchange is the
//! identity ([`crate::layer`]) gathers each expert's routed tokens into
//! one variable-size concatenated buffer — no token is dropped or padded
//! by the compute path — and runs each FFN projection of **all** experts
//! as a single [`Tensor::matmul_grouped`] pass (the wire path feeds the
//! same pass uniform capacity-padded groups). The grouped GEMM parallelises over
//! every output row across experts, so a skewed routing no longer
//! serialises on the heaviest expert, and empty experts cost nothing.
//!
//! Numerically this is exact: the grouped kernel computes each row with
//! the same ascending-`k` microkernel as the per-expert loop, gather is
//! a row copy, and the combine scatter accumulates contributions in
//! assignment order — the same order the padded reference combine uses.

use tensor::{buf, grad, Tensor};

use crate::expert::{for_each_expert, Expert, ExpertState, FfnWeights};
use crate::routing::Routing;
use crate::{MoeError, Result};

/// The gather/scatter plan derived from a [`Routing`]: one row per
/// surviving assignment, grouped contiguously by expert.
#[derive(Debug, Clone)]
pub struct TokenGroups {
    /// `E + 1` row offsets; expert `e` owns rows
    /// `offsets[e] .. offsets[e + 1]`.
    offsets: Vec<usize>,
    /// Source token of each gathered row, in `(expert, slot)` order.
    tokens: Vec<usize>,
    /// Combine weight of each gathered row.
    weights: Vec<f32>,
    num_tokens: usize,
}

impl TokenGroups {
    /// Builds the plan from a routing decision. Assignments are already
    /// sorted by `(expert, slot)`, so the gathered rows of one expert
    /// are contiguous and slot-ordered.
    pub fn from_routing(routing: &Routing) -> Self {
        let loads = routing.expert_loads();
        let mut offsets = Vec::with_capacity(loads.len() + 1);
        offsets.push(0usize);
        for load in &loads {
            offsets.push(offsets[offsets.len() - 1] + load);
        }
        let mut tokens = Vec::with_capacity(routing.assignments().len());
        let mut weights = Vec::with_capacity(routing.assignments().len());
        for a in routing.assignments() {
            tokens.push(a.token);
            weights.push(a.weight);
        }
        TokenGroups {
            offsets,
            tokens,
            weights,
            num_tokens: routing.num_tokens(),
        }
    }

    /// Per-expert row offsets (`E + 1` entries).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Total gathered rows (= surviving assignments).
    pub fn num_rows(&self) -> usize {
        self.tokens.len()
    }

    fn check_tokens(&self, t: &Tensor) -> Result<usize> {
        if t.rank() != 2 || t.dims()[0] != self.num_tokens {
            return Err(MoeError::BadInput {
                expected: format!("({}, M)", self.num_tokens),
                actual: t.dims().to_vec(),
            });
        }
        Ok(t.dims()[1])
    }

    fn check_rows(&self, t: &Tensor) -> Result<usize> {
        if t.rank() != 2 || t.dims()[0] != self.num_rows() {
            return Err(MoeError::BadInput {
                expected: format!("({}, M)", self.num_rows()),
                actual: t.dims().to_vec(),
            });
        }
        Ok(t.dims()[1])
    }

    /// Gathers token rows into the expert-grouped layout (unweighted —
    /// the dispatch path carries raw embeddings).
    ///
    /// # Errors
    ///
    /// Returns an error when `input` is not `(num_tokens, M)`.
    pub fn gather(&self, input: &Tensor) -> Result<Tensor> {
        let m = self.check_tokens(input)?;
        let mut out = buf::take(self.num_rows() * m);
        for (row, &t) in out.chunks_mut(m.max(1)).zip(&self.tokens) {
            row.copy_from_slice(&input.data()[t * m..(t + 1) * m]);
        }
        Ok(Tensor::from_vec(out, &[self.num_rows(), m])?)
    }

    /// Gathers output-gradient rows scaled by the combine weights — the
    /// adjoint of [`TokenGroups::scatter_combine`].
    ///
    /// # Errors
    ///
    /// Returns an error when `grad_output` is not `(num_tokens, M)`.
    pub fn gather_weighted(&self, grad_output: &Tensor) -> Result<Tensor> {
        let m = self.check_tokens(grad_output)?;
        let mut out = buf::take(self.num_rows() * m);
        let rows = out.chunks_mut(m.max(1));
        for (row, (&t, &w)) in rows.zip(self.tokens.iter().zip(&self.weights)) {
            let src = &grad_output.data()[t * m..(t + 1) * m];
            for (o, v) in row.iter_mut().zip(src) {
                *o = w * v;
            }
        }
        Ok(Tensor::from_vec(out, &[self.num_rows(), m])?)
    }

    /// Combines expert output rows back to token rows, scaling each
    /// contribution by its weight and summing over the `k` experts a
    /// token visited. Rows are accumulated in gathered (assignment)
    /// order — the same order the padded combine reference uses, so the
    /// two are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns an error when `rows` is not `(num_rows, M)`.
    pub fn scatter_combine(&self, rows: &Tensor) -> Result<Tensor> {
        let m = self.check_rows(rows)?;
        let mut out = Tensor::zeros(&[self.num_tokens, m]);
        for (r, (&t, &w)) in self.tokens.iter().zip(&self.weights).enumerate() {
            let src = &rows.data()[r * m..(r + 1) * m];
            let dst = &mut out.data_mut()[t * m..(t + 1) * m];
            for (o, &v) in dst.iter_mut().zip(src) {
                *o += w * v;
            }
        }
        Ok(out)
    }

    /// Scatter-adds input-gradient rows back to token rows (unweighted —
    /// the adjoint of [`TokenGroups::gather`]).
    ///
    /// # Errors
    ///
    /// Returns an error when `rows` is not `(num_rows, M)`.
    pub fn scatter_add(&self, rows: &Tensor) -> Result<Tensor> {
        let m = self.check_rows(rows)?;
        let mut out = Tensor::zeros(&[self.num_tokens, m]);
        for (r, &t) in self.tokens.iter().enumerate() {
            let src = &rows.data()[r * m..(r + 1) * m];
            let dst = &mut out.data_mut()[t * m..(t + 1) * m];
            for (o, &v) in dst.iter_mut().zip(src) {
                *o += v;
            }
        }
        Ok(out)
    }
}

/// Saved activations of a grouped FFN forward pass, concatenated over
/// all experts in group order.
#[derive(Debug, Clone)]
pub enum GroupedState {
    /// `h = x·w1`, `a = GeLU(h)`, `y = a·w2`.
    Gpt {
        /// Gathered input rows.
        x: Tensor,
        /// Pre-activation.
        h: Tensor,
        /// Post-activation.
        a: Tensor,
    },
    /// `g = x·w1`, `u = x·w3`, `a = SiLU(g) ⊙ u`, `y = a·w2`.
    Mixtral {
        /// Gathered input rows.
        x: Tensor,
        /// Gate pre-activation.
        g: Tensor,
        /// Up projection.
        u: Tensor,
        /// Combined activation.
        a: Tensor,
    },
}

/// The homogeneous weight views of an expert set, when groupable.
enum GroupedWeights<'a> {
    Gpt {
        w1: Vec<&'a Tensor>,
        w2: Vec<&'a Tensor>,
    },
    Mixtral {
        w1: Vec<&'a Tensor>,
        w3: Vec<&'a Tensor>,
        w2: Vec<&'a Tensor>,
    },
}

/// Collects the experts' FFN views when every expert exposes one and
/// all are the same architecture; `None` sends the caller to the
/// per-expert fallback loop.
fn collect_views(experts: &[Box<dyn Expert>]) -> Option<GroupedWeights<'_>> {
    let mut views = Vec::with_capacity(experts.len());
    for e in experts {
        views.push(e.ffn_weights()?);
    }
    match views.first()? {
        FfnWeights::Gpt { .. } => {
            let mut w1 = Vec::with_capacity(views.len());
            let mut w2 = Vec::with_capacity(views.len());
            for v in &views {
                let FfnWeights::Gpt { w1: a, w2: b } = v else {
                    return None;
                };
                w1.push(*a);
                w2.push(*b);
            }
            Some(GroupedWeights::Gpt { w1, w2 })
        }
        FfnWeights::Mixtral { .. } => {
            let mut w1 = Vec::with_capacity(views.len());
            let mut w3 = Vec::with_capacity(views.len());
            let mut w2 = Vec::with_capacity(views.len());
            for v in &views {
                let FfnWeights::Mixtral {
                    w1: a,
                    w3: c,
                    w2: b,
                } = v
                else {
                    return None;
                };
                w1.push(*a);
                w3.push(*c);
                w2.push(*b);
            }
            Some(GroupedWeights::Mixtral { w1, w3, w2 })
        }
    }
}

/// Runs the grouped FFN forward over the gathered rows `x` (groups per
/// [`TokenGroups::offsets`]-style `offsets`). Returns `Ok(None)` when
/// the expert set is not groupable (heterogeneous or custom experts) so
/// the caller can fall back to the per-expert loop.
///
/// # Errors
///
/// Propagates shape mismatches from the grouped GEMMs.
pub fn forward_ffn(
    experts: &[Box<dyn Expert>],
    x: &Tensor,
    offsets: &[usize],
    threads: usize,
) -> Result<Option<(Tensor, GroupedState)>> {
    collect_views(experts)
        .map(|views| forward_grouped(views, x.clone(), offsets, threads))
        .transpose()
}

/// The grouped forward proper; the saved state takes `x` by move.
fn forward_grouped(
    views: GroupedWeights<'_>,
    x: Tensor,
    offsets: &[usize],
    threads: usize,
) -> Result<(Tensor, GroupedState)> {
    match views {
        GroupedWeights::Gpt { w1, w2 } => {
            let h = x.matmul_grouped(&w1, offsets, threads)?;
            let a = h.gelu();
            let y = a.matmul_grouped(&w2, offsets, threads)?;
            Ok((y, GroupedState::Gpt { x, h, a }))
        }
        GroupedWeights::Mixtral { w1, w3, w2 } => {
            let g = x.matmul_grouped(&w1, offsets, threads)?;
            let u = x.matmul_grouped(&w3, offsets, threads)?;
            let a = g.silu().mul(&u)?;
            let y = a.matmul_grouped(&w2, offsets, threads)?;
            Ok((y, GroupedState::Mixtral { x, g, u, a }))
        }
    }
}

/// Backward of [`forward_ffn`]: input-gradient rows (same layout as the
/// gathered forward input) plus per-expert weight gradients in
/// [`Expert::weights`] order.
///
/// # Errors
///
/// Returns [`MoeError::NoForwardState`] when the experts no longer
/// expose the weight views the saved state was computed with (e.g. the
/// expert set was swapped between forward and backward), and propagates
/// GEMM shape mismatches.
pub fn backward_ffn(
    experts: &[Box<dyn Expert>],
    grad_y: &Tensor,
    state: &GroupedState,
    offsets: &[usize],
    threads: usize,
) -> Result<(Tensor, Vec<Vec<Tensor>>)> {
    let views = collect_views(experts).ok_or(MoeError::NoForwardState)?;
    match (views, state) {
        (GroupedWeights::Gpt { w1, w2 }, GroupedState::Gpt { x, h, a }) => {
            let grad_a = grad_y.matmul_grouped_nt(&w2, offsets, threads)?;
            let grad_w2 = a.matmul_grouped_tn(grad_y, offsets, threads)?;
            let grad_h = grad::gelu_backward(&grad_a, h)?;
            let grad_x = grad_h.matmul_grouped_nt(&w1, offsets, threads)?;
            let grad_w1 = x.matmul_grouped_tn(&grad_h, offsets, threads)?;
            let grads = grad_w1
                .into_iter()
                .zip(grad_w2)
                .map(|(g1, g2)| vec![g1, g2])
                .collect();
            Ok((grad_x, grads))
        }
        (GroupedWeights::Mixtral { w1, w3, w2 }, GroupedState::Mixtral { x, g, u, a }) => {
            let grad_a = grad_y.matmul_grouped_nt(&w2, offsets, threads)?;
            let grad_w2 = a.matmul_grouped_tn(grad_y, offsets, threads)?;
            // a = silu(g) ⊙ u
            let grad_u = grad_a.mul(&g.silu())?;
            let grad_g = grad::silu_backward(&grad_a.mul(u)?, g)?;
            let gx1 = grad_g.matmul_grouped_nt(&w1, offsets, threads)?;
            let gx3 = grad_u.matmul_grouped_nt(&w3, offsets, threads)?;
            let grad_x = gx1.add(&gx3)?;
            let grad_w1 = x.matmul_grouped_tn(&grad_g, offsets, threads)?;
            let grad_w3 = x.matmul_grouped_tn(&grad_u, offsets, threads)?;
            let grads = grad_w1
                .into_iter()
                .zip(grad_w3)
                .zip(grad_w2)
                .map(|((g1, g3), g2)| vec![g1, g3, g2])
                .collect();
            Ok((grad_x, grads))
        }
        _ => Err(MoeError::NoForwardState),
    }
}

/// How the expert compute of a forward pass ran; [`backward_experts`]
/// mirrors it.
#[derive(Debug)]
pub enum FfnState {
    /// One grouped GEMM pass over all experts.
    Grouped(GroupedState),
    /// Per-expert loop (custom or heterogeneous experts).
    PerExpert(Vec<ExpertState>),
}

/// Runs every expert over its group of `x`: the grouped pass of
/// [`forward_ffn`] when the set is groupable (`x` moves into the saved
/// state), else the per-expert loop over the same row slices, fanned
/// out over the tensor worker pool.
///
/// # Errors
///
/// Propagates expert and GEMM shape mismatches.
pub fn forward_experts(
    experts: &[Box<dyn Expert>],
    x: Tensor,
    offsets: &[usize],
    threads: usize,
) -> Result<(Tensor, FfnState)> {
    if let Some(views) = collect_views(experts) {
        let (y, state) = forward_grouped(views, x, offsets, threads)?;
        return Ok((y, FfnState::Grouped(state)));
    }
    let results = for_each_expert(experts.len(), threads, |e| {
        experts[e].forward(&x.slice_rows(offsets[e], offsets[e + 1])?)
    })?;
    let (ys, states): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    Ok((Tensor::cat(&ys)?, FfnState::PerExpert(states)))
}

/// Backward of [`forward_experts`]: input-gradient rows in the layout
/// of the forward input plus per-expert weight gradients.
///
/// # Errors
///
/// As [`backward_ffn`], plus per-expert shape mismatches.
pub fn backward_experts(
    experts: &[Box<dyn Expert>],
    grad_y: &Tensor,
    state: &FfnState,
    offsets: &[usize],
    threads: usize,
) -> Result<(Tensor, Vec<Vec<Tensor>>)> {
    let states = match state {
        FfnState::Grouped(st) => return backward_ffn(experts, grad_y, st, offsets, threads),
        FfnState::PerExpert(states) => states,
    };
    let results = for_each_expert(experts.len(), threads, |e| {
        experts[e].backward(&grad_y.slice_rows(offsets[e], offsets[e + 1])?, &states[e])
    })?;
    let (grad_x, grads): (Vec<_>, Vec<_>) =
        results.into_iter().map(|g| (g.input, g.weights)).unzip();
    Ok((Tensor::cat(&grad_x)?, grads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::{GptFfn, MixtralFfn};
    use crate::routing::RoutingBuilder;
    use tensor::TensorRng;

    fn uneven_routing() -> Routing {
        // expert 0: 3 tokens, expert 1: empty, expert 2: 1 token
        let mut b = RoutingBuilder::new(4, 3, 4);
        b.assign(0, 0, 0.6);
        b.assign(1, 0, 1.0);
        b.assign(2, 2, 0.4);
        b.assign(3, 0, 0.9);
        b.assign(0, 2, 0.4);
        b.finish()
    }

    #[test]
    fn token_groups_partition_assignments() {
        let r = uneven_routing();
        let g = TokenGroups::from_routing(&r);
        assert_eq!(g.offsets(), &[0, 3, 3, 5]);
        assert_eq!(g.num_rows(), 5);
    }

    #[test]
    fn gather_scatter_are_adjoint() {
        // <gather(x), r> == <x, scatter_add(r)> and
        // <scatter_combine(r), g> == <r, gather_weighted(g)>
        let routing = uneven_routing();
        let groups = TokenGroups::from_routing(&routing);
        let mut rng = TensorRng::seed_from(3);
        let x = rng.normal(&[4, 6], 0.0, 1.0);
        let r = rng.normal(&[5, 6], 0.0, 1.0);
        let lhs: f32 = groups.gather(&x).unwrap().mul(&r).unwrap().sum();
        let rhs: f32 = x.mul(&groups.scatter_add(&r).unwrap()).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-4);

        let g = rng.normal(&[4, 6], 0.0, 1.0);
        let lhs: f32 = groups.scatter_combine(&r).unwrap().mul(&g).unwrap().sum();
        let rhs: f32 = r.mul(&groups.gather_weighted(&g).unwrap()).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn grouped_forward_matches_per_expert_loop() {
        let mut rng = TensorRng::seed_from(7);
        for kind in ["gpt", "mixtral"] {
            let experts: Vec<Box<dyn Expert>> = (0..3)
                .map(|_| -> Box<dyn Expert> {
                    if kind == "gpt" {
                        Box::new(GptFfn::new(6, 10, &mut rng))
                    } else {
                        Box::new(MixtralFfn::new(6, 10, &mut rng))
                    }
                })
                .collect();
            let routing = uneven_routing();
            let groups = TokenGroups::from_routing(&routing);
            let input = rng.normal(&[4, 6], 0.0, 1.0);
            let x = groups.gather(&input).unwrap();
            let (y, _) = forward_ffn(&experts, &x, groups.offsets(), 2)
                .unwrap()
                .expect("homogeneous experts are groupable");
            // reference: per-expert loop over the same gathered slices
            for (e, expert) in experts.iter().enumerate() {
                let (lo, hi) = (groups.offsets()[e], groups.offsets()[e + 1]);
                let slice = x.slice_rows(lo, hi).unwrap();
                let (want, _) = expert.forward(&slice).unwrap();
                let got = y.slice_rows(lo, hi).unwrap();
                assert_eq!(got, want, "{kind} expert {e}");
            }
        }
    }

    #[test]
    fn grouped_backward_matches_per_expert_loop() {
        let mut rng = TensorRng::seed_from(8);
        let experts: Vec<Box<dyn Expert>> = (0..3)
            .map(|_| Box::new(GptFfn::new(5, 8, &mut rng)) as Box<dyn Expert>)
            .collect();
        let routing = uneven_routing();
        let groups = TokenGroups::from_routing(&routing);
        let input = rng.normal(&[4, 5], 0.0, 1.0);
        let x = groups.gather(&input).unwrap();
        let (_, state) = forward_ffn(&experts, &x, groups.offsets(), 1)
            .unwrap()
            .expect("groupable");
        let gy = rng.normal(&[5, 5], 0.0, 1.0);
        let (gx, gw) = backward_ffn(&experts, &gy, &state, groups.offsets(), 1).unwrap();
        for e in 0..3 {
            let (lo, hi) = (groups.offsets()[e], groups.offsets()[e + 1]);
            let slice = x.slice_rows(lo, hi).unwrap();
            let (_, st) = experts[e].forward(&slice).unwrap();
            let want = experts[e]
                .backward(&gy.slice_rows(lo, hi).unwrap(), &st)
                .unwrap();
            assert_eq!(gx.slice_rows(lo, hi).unwrap(), want.input, "expert {e}");
            for (got, want) in gw[e].iter().zip(&want.weights) {
                assert_eq!(got, want, "expert {e} weight grad");
            }
        }
    }

    #[test]
    fn heterogeneous_experts_fall_back() {
        let mut rng = TensorRng::seed_from(9);
        let experts: Vec<Box<dyn Expert>> = vec![
            Box::new(GptFfn::new(4, 8, &mut rng)),
            Box::new(MixtralFfn::new(4, 8, &mut rng)),
        ];
        let x = rng.normal(&[2, 4], 0.0, 1.0);
        assert!(forward_ffn(&experts, &x, &[0, 1, 2], 1).unwrap().is_none());
    }
}
