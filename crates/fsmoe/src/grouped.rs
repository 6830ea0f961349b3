//! Dropless grouped expert GEMM (the MegaBlocks formulation).
//!
//! Instead of looping expert by expert over `(T, M)` slices, the layer
//! hands every local expert's rows over as one concatenated buffer with
//! per-expert group offsets and runs each FFN projection of **all**
//! experts as a single [`Tensor::matmul_grouped`] pass. The groups are
//! whatever the exchange delivered, pad-free and uneven either way: the
//! order buffer itself on a one-rank layer
//! ([`Routing::into_dense`](crate::routing::Routing::into_dense)), the
//! counted rows of every wire block off the wire (rows past the last
//! offset are spare capacity) — the compute path neither drops nor pads
//! a token, and empty experts cost nothing.
//!
//! Numerically this is exact: the grouped kernel computes each row with
//! the same ascending-`k` microkernel as the per-expert loop.

use tensor::{grad, Tensor};

use crate::expert::{Expert, ExpertState, FfnWeights};
use crate::{MoeError, Result};

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

/// Runs the grouped FFN forward over the gathered rows `x` (expert `e`
/// owns rows `offsets[e] .. offsets[e + 1]`). Returns `Ok(None)` when
/// the expert set is not groupable (heterogeneous or custom experts) so
/// the caller can fall back to the per-expert loop. `threads` is
/// ignored (kept for existing callers).
///
/// # Errors
///
/// Propagates shape mismatches from the grouped GEMMs.
pub fn forward_ffn(
    experts: &[Box<dyn Expert>],
    x: &Tensor,
    offsets: &[usize],
    _threads: usize,
) -> Result<Option<(Tensor, GroupedState)>> {
    collect_views(experts)
        .map(|views| forward_grouped(views, x.clone(), offsets))
        .transpose()
}

/// The grouped forward proper; the saved state takes `x` by move.
fn forward_grouped(
    views: GroupedWeights<'_>,
    x: Tensor,
    offsets: &[usize],
) -> Result<(Tensor, GroupedState)> {
    match views {
        GroupedWeights::Gpt { w1, w2 } => {
            let h = x.matmul_grouped(&w1, offsets, 1)?;
            let a = h.gelu();
            let y = a.matmul_grouped(&w2, offsets, 1)?;
            Ok((y, GroupedState::Gpt { x, h, a }))
        }
        GroupedWeights::Mixtral { w1, w3, w2 } => {
            let g = x.matmul_grouped(&w1, offsets, 1)?;
            let u = x.matmul_grouped(&w3, offsets, 1)?;
            let a = g.silu().mul(&u)?;
            let y = a.matmul_grouped(&w2, offsets, 1)?;
            Ok((y, GroupedState::Mixtral { x, g, u, a }))
        }
    }
}

/// Backward of [`forward_ffn`]: input-gradient rows (same layout as the
/// gathered forward input) plus per-expert weight gradients in
/// [`Expert::weights`] order. `threads` is ignored (kept for existing
/// callers).
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
    _threads: usize,
) -> Result<(Tensor, Vec<Vec<Tensor>>)> {
    let views = collect_views(experts).ok_or(MoeError::NoForwardState)?;
    match (views, state) {
        (GroupedWeights::Gpt { w1, w2 }, GroupedState::Gpt { x, h, a }) => {
            let grad_a = grad_y.matmul_grouped_nt(&w2, offsets)?;
            let grad_w2 = a.matmul_grouped_tn(grad_y, offsets)?;
            let grad_h = grad::gelu_backward(&grad_a, h)?;
            let grad_x = grad_h.matmul_grouped_nt(&w1, offsets)?;
            let grad_w1 = x.matmul_grouped_tn(&grad_h, offsets)?;
            let grads = grad_w1
                .into_iter()
                .zip(grad_w2)
                .map(|(g1, g2)| vec![g1, g2])
                .collect();
            Ok((grad_x, grads))
        }
        (GroupedWeights::Mixtral { w1, w3, w2 }, GroupedState::Mixtral { x, g, u, a }) => {
            let grad_a = grad_y.matmul_grouped_nt(&w2, offsets)?;
            let grad_w2 = a.matmul_grouped_tn(grad_y, offsets)?;
            // a = silu(g) ⊙ u
            let grad_u = grad_a.mul(&g.silu())?;
            let grad_g = grad::silu_backward(&grad_a.mul(u)?, g)?;
            let gx1 = grad_g.matmul_grouped_nt(&w1, offsets)?;
            let gx3 = grad_u.matmul_grouped_nt(&w3, offsets)?;
            let grad_x = gx1.add(&gx3)?;
            let grad_w1 = x.matmul_grouped_tn(&grad_g, offsets)?;
            let grad_w3 = x.matmul_grouped_tn(&grad_u, offsets)?;
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
/// state), else the per-expert loop over the same row slices, in index
/// order on the calling thread.
///
/// # Errors
///
/// Propagates the first expert error (by index) and GEMM shape
/// mismatches.
pub fn forward_experts(
    experts: &[Box<dyn Expert>],
    x: Tensor,
    offsets: &[usize],
) -> Result<(Tensor, FfnState)> {
    if let Some(views) = collect_views(experts) {
        let (y, state) = forward_grouped(views, x, offsets)?;
        return Ok((y, FfnState::Grouped(state)));
    }
    let (ys, states): (Vec<_>, Vec<_>) = (0..experts.len())
        .map(|e| experts[e].forward(&x.slice_rows(offsets[e], offsets[e + 1])?))
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .unzip();
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
) -> Result<(Tensor, Vec<Vec<Tensor>>)> {
    let states = match state {
        FfnState::Grouped(st) => return backward_ffn(experts, grad_y, st, offsets, 1),
        FfnState::PerExpert(states) => states,
    };
    let (grad_x, grads): (Vec<_>, Vec<_>) = (0..experts.len())
        .map(|e| experts[e].backward(&grad_y.slice_rows(offsets[e], offsets[e + 1])?, &states[e]))
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .map(|g| (g.input, g.weights))
        .unzip();
    Ok((Tensor::cat(&grad_x)?, grads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::{GptFfn, MixtralFfn};
    use tensor::TensorRng;

    /// expert 0: 3 rows, expert 1: empty, expert 2: 2 rows
    const OFFSETS: [usize; 4] = [0, 3, 3, 5];

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
            let x = rng.normal(&[5, 6], 0.0, 1.0);
            let (y, _) = forward_ffn(&experts, &x, &OFFSETS, 2)
                .unwrap()
                .expect("homogeneous experts are groupable");
            // reference: per-expert loop over the same gathered slices
            for (e, expert) in experts.iter().enumerate() {
                let (lo, hi) = (OFFSETS[e], OFFSETS[e + 1]);
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
        let x = rng.normal(&[5, 5], 0.0, 1.0);
        let (_, state) = forward_ffn(&experts, &x, &OFFSETS, 1)
            .unwrap()
            .expect("groupable");
        let gy = rng.normal(&[5, 5], 0.0, 1.0);
        let (gx, gw) = backward_ffn(&experts, &gy, &state, &OFFSETS, 1).unwrap();
        for e in 0..3 {
            let (lo, hi) = (OFFSETS[e], OFFSETS[e + 1]);
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

    /// A mixed set runs the per-expert loop: each expert's own forward
    /// and backward on its row slice, and the first expert error returned.
    #[test]
    fn heterogeneous_experts_fall_back() {
        let mut rng = TensorRng::seed_from(9);
        let mut experts: Vec<Box<dyn Expert>> = vec![
            Box::new(GptFfn::new(4, 8, &mut rng)),
            Box::new(MixtralFfn::new(4, 8, &mut rng)),
            Box::new(MixtralFfn::new(4, 6, &mut rng)),
            Box::new(GptFfn::new(4, 6, &mut rng)),
        ];
        // expert 2 gets no rows
        let offsets = [0, 1, 3, 3, 5];
        let x = rng.normal(&[5, 4], 0.0, 1.0);
        assert!(forward_ffn(&experts, &x, &offsets, 1).unwrap().is_none());
        let (y, state) = forward_experts(&experts, x.clone(), &offsets).unwrap();
        let FfnState::PerExpert(states) = &state else {
            panic!("a mixed set must not group");
        };
        let gy = rng.normal(&[5, 4], 0.0, 1.0);
        let (gx, gw) = backward_experts(&experts, &gy, &state, &offsets).unwrap();
        for (e, expert) in experts.iter().enumerate() {
            let (lo, hi) = (offsets[e], offsets[e + 1]);
            let (want_y, st) = expert.forward(&x.slice_rows(lo, hi).unwrap()).unwrap();
            let want = expert
                .backward(&gy.slice_rows(lo, hi).unwrap(), &st)
                .unwrap();
            assert_eq!(y.slice_rows(lo, hi).unwrap(), want_y, "expert {e}");
            assert_eq!(gx.slice_rows(lo, hi).unwrap(), want.input, "expert {e}");
            assert_eq!(gw[e], want.weights, "expert {e} weight grads");
        }

        // expert 0 (GPT) handed expert 1's Mixtral state
        let mut swapped = states.clone();
        swapped.swap(0, 1);
        let err = backward_experts(&experts, &gy, &FfnState::PerExpert(swapped), &offsets);
        assert!(matches!(err, Err(MoeError::NoForwardState)), "{err:?}");
        // an expert of the wrong width fails the forward
        experts[1] = Box::new(MixtralFfn::new(3, 8, &mut rng));
        let err = forward_experts(&experts, x, &offsets);
        assert!(matches!(err, Err(MoeError::Tensor(_))), "{err:?}");
    }
}
