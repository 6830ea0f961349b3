//! Dropless grouped expert GEMM (the MegaBlocks formulation), in place.
//!
//! The layer hands every local expert's rows over as [`Segments`] of one
//! buffer — the `(base, rows)` runs each expert owns, uneven and pad-free:
//! contiguous groups of the order buffer on a one-rank layer
//! ([`Routing::into_dense`](crate::routing::Routing::into_dense)), every
//! wire block's counted rows off the wire — and runs each FFN projection
//! of **all** experts as one [`Tensor::matmul_segments`] pass. The GEMMs
//! read those rows where they lie and write the output at the same rows
//! of a buffer of the input's shape: no gather, no scatter, no padded row
//! computed. The activations in between hold each expert's rows packed
//! from row 0, at the input's height, so their size never follows the
//! routing. Each row is the per-expert loop's, bit for bit.

use tensor::{grad, Segments, Tensor};

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
    let (mut w1, mut w3, mut w2) = (vec![], vec![], vec![]);
    for expert in experts {
        let (a, c, b) = match expert.ffn_weights()? {
            FfnWeights::Gpt { w1, w2 } => (w1, None, w2),
            FfnWeights::Mixtral { w1, w3, w2 } => (w1, Some(w3), w2),
        };
        w1.push(a);
        w3.extend(c);
        w2.push(b);
    }
    match w3.len() {
        _ if w1.is_empty() => None,
        0 => Some(GroupedWeights::Gpt { w1, w2 }),
        n if n == w1.len() => Some(GroupedWeights::Mixtral { w1, w3, w2 }),
        _ => None,
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
    let rows = Segments::from_offsets(offsets);
    collect_views(experts)
        .map(|views| forward_grouped(views, x.clone(), &rows))
        .transpose()
}

/// The grouped forward proper; the saved state takes `x` by move. The
/// activations hold each expert's rows packed from row 0, in `x`'s
/// height (a step-invariant size whatever the routing); `y` lands at
/// `x`'s rows.
fn forward_grouped(
    views: GroupedWeights<'_>,
    x: Tensor,
    rows: &Segments,
) -> Result<(Tensor, GroupedState)> {
    let (packed, height) = (rows.packed(), x.dims()[0]);
    match views {
        GroupedWeights::Gpt { w1, w2 } => {
            let h = x.matmul_segments(&w1, rows, &packed, height)?;
            let a = h.gelu();
            let y = a.matmul_segments(&w2, &packed, rows, height)?;
            Ok((y, GroupedState::Gpt { x, h, a }))
        }
        GroupedWeights::Mixtral { w1, w3, w2 } => {
            let g = x.matmul_segments(&w1, rows, &packed, height)?;
            let u = x.matmul_segments(&w3, rows, &packed, height)?;
            let a = g.silu().mul(&u)?;
            let y = a.matmul_segments(&w2, &packed, rows, height)?;
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
    backward_grouped(experts, grad_y, state, &Segments::from_offsets(offsets))
}

/// [`backward_ffn`] over the rows of `rows`, which the forward ran on.
fn backward_grouped(
    experts: &[Box<dyn Expert>],
    grad_y: &Tensor,
    state: &GroupedState,
    rows: &Segments,
) -> Result<(Tensor, Vec<Vec<Tensor>>)> {
    let views = collect_views(experts).ok_or(MoeError::NoForwardState)?;
    let (packed, height) = (rows.packed(), grad_y.dims()[0]);
    match (views, state) {
        (GroupedWeights::Gpt { w1, w2 }, GroupedState::Gpt { x, h, a }) => {
            let grad_a = grad_y.matmul_segments_nt(&w2, rows, &packed, height)?;
            let grad_w2 = a.matmul_segments_tn(grad_y, &packed, rows)?;
            let grad_h = grad::gelu_backward(&grad_a, h)?;
            let grad_x = grad_h.matmul_segments_nt(&w1, &packed, rows, height)?;
            let grad_w1 = x.matmul_segments_tn(&grad_h, rows, &packed)?;
            let grads = grad_w1
                .into_iter()
                .zip(grad_w2)
                .map(|(g1, g2)| vec![g1, g2])
                .collect();
            Ok((grad_x, grads))
        }
        (GroupedWeights::Mixtral { w1, w3, w2 }, GroupedState::Mixtral { x, g, u, a }) => {
            let grad_a = grad_y.matmul_segments_nt(&w2, rows, &packed, height)?;
            let grad_w2 = a.matmul_segments_tn(grad_y, &packed, rows)?;
            // a = silu(g) ⊙ u
            let grad_u = grad_a.mul(&g.silu())?;
            let grad_g = grad::silu_backward(&grad_a.mul(u)?, g)?;
            let mut grad_x = grad_g.matmul_segments_nt(&w1, &packed, rows, height)?;
            grad_x.add_assign(&grad_u.matmul_segments_nt(&w3, &packed, rows, height)?)?;
            let grad_w1 = x.matmul_segments_tn(&grad_g, rows, &packed)?;
            let grad_w3 = x.matmul_segments_tn(&grad_u, rows, &packed)?;
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

/// The per-expert loop: `run(e, expert e's rows of t)` in index order
/// on the calling thread, stopping at the first error; each output lands
/// at its expert's rows of a zero tensor of `t`'s shape.
fn per_expert<S>(
    t: &Tensor,
    rows: &Segments,
    mut run: impl FnMut(usize, &Tensor) -> Result<(Tensor, S)>,
) -> Result<(Tensor, Vec<S>)> {
    let mut out = Tensor::zeros(t.dims());
    let saved = (0..rows.groups())
        .map(|e| {
            let mut parts = vec![t.slice_rows(0, 0)?];
            for &(base, n) in rows.group(e) {
                parts.push(t.slice_rows(base, base + n)?);
            }
            let (y, saved) = run(e, &Tensor::cat(&parts)?)?;
            let (m, mut src) = (t.dims()[1], y.data());
            for &(base, n) in rows.group(e) {
                let (head, rest) = src.split_at(n * m);
                out.data_mut()[base * m..(base + n) * m].copy_from_slice(head);
                src = rest;
            }
            Ok(saved)
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((out, saved))
}

/// Runs every expert over its rows of `x` (expert `e` owns
/// `rows.group(e)`), writing its output at the same rows of a tensor of
/// `x`'s shape whose other rows are zero: the grouped pass of
/// [`forward_ffn`] when the set is groupable (`x` moves into the saved
/// state), else the per-expert loop over the same rows, in index order
/// on the calling thread.
///
/// # Errors
///
/// Propagates the first expert error (by index) and GEMM shape
/// mismatches.
pub fn forward_experts(
    experts: &[Box<dyn Expert>],
    x: Tensor,
    rows: &Segments,
) -> Result<(Tensor, FfnState)> {
    if let Some(views) = collect_views(experts) {
        let (y, state) = forward_grouped(views, x, rows)?;
        return Ok((y, FfnState::Grouped(state)));
    }
    let (y, states) = per_expert(&x, rows, |e, x| experts[e].forward(x))?;
    Ok((y, FfnState::PerExpert(states)))
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
    rows: &Segments,
) -> Result<(Tensor, Vec<Vec<Tensor>>)> {
    let states = match state {
        FfnState::Grouped(st) => return backward_grouped(experts, grad_y, st, rows),
        FfnState::PerExpert(states) => states,
    };
    per_expert(grad_y, rows, |e, grad_y| {
        let grads = experts[e].backward(grad_y, &states[e])?;
        Ok((grads.input, grads.weights))
    })
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
        let rows = Segments::from_offsets(&offsets);
        let x = rng.normal(&[5, 4], 0.0, 1.0);
        assert!(forward_ffn(&experts, &x, &offsets, 1).unwrap().is_none());
        let (y, state) = forward_experts(&experts, x.clone(), &rows).unwrap();
        let FfnState::PerExpert(states) = &state else {
            panic!("a mixed set must not group");
        };
        let gy = rng.normal(&[5, 4], 0.0, 1.0);
        let (gx, gw) = backward_experts(&experts, &gy, &state, &rows).unwrap();
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
        let err = backward_experts(&experts, &gy, &FfnState::PerExpert(swapped), &rows);
        assert!(matches!(err, Err(MoeError::NoForwardState)), "{err:?}");
        // an expert of the wrong width fails the forward
        experts[1] = Box::new(MixtralFfn::new(3, 8, &mut rng));
        let err = forward_experts(&experts, x, &rows);
        assert!(matches!(err, Err(MoeError::Tensor(_))), "{err:?}");
    }
}
