//! Ordering and inverse-ordering functions (data-layout transforms).
//!
//! The *Order* sub-module moves the `(B·L, M)` token matrix into the
//! expert-major order buffer and *I-Order* restores it, applying the
//! gate's combine weights (paper §2.1/§3.1). Where a row lives is data
//! on the [`Routing`] — assignment `a` occupies row `routing.row_of(a)`
//! of `routing.rows()`, whether that is a gate's padded `(E·T, M)` block
//! form, a placement's wire slots or pad-free groups — so the four row
//! movements (order, i-order, their two adjoints) are written once,
//! here. Two implementations are provided, mirroring the paper:
//!
//! * [`GShardOrdering`] — builds an explicit dispatch mask and uses
//!   einsum-style matrix multiplication (how GShard's XLA code does it);
//! * [`TutelOrdering`] — SIMT-style sparse scatter/gather with direct
//!   indexing (how Tutel's fused kernels do it).
//!
//! Both must produce the same results; the tests enforce it. Rows no
//! assignment occupies stay `+0.0`, so padded capacity flows through the
//! experts as zero rows, exactly like the padded `(E, T, M)` tensors on
//! a GPU. Token-shaped results accumulate in assignment order, never row
//! order, which is what makes them bit-identical under every layout.

// The MoE layer's wire path never panics: failures flow as `CommError`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use tensor::{buf, Tensor};

use crate::routing::Routing;
use crate::{MoeError, Result};

/// An ordering function: token layout → expert-major order buffer.
pub trait OrderFn: std::fmt::Debug + Send {
    /// Short identifier used in logs.
    fn name(&self) -> &'static str;

    /// Scatters `(tokens, M)` rows into the `(routing.rows(), M)` order
    /// buffer (row `routing.row_of(a)` holds assignment `a`'s token).
    ///
    /// # Errors
    ///
    /// Returns an error when `input` is not `(routing.num_tokens(), M)`.
    fn order(&self, input: &Tensor, routing: &Routing) -> Result<Tensor>;

    /// Gathers `(routing.rows(), M)` expert outputs back to
    /// `(tokens, M)`, scaling each contribution by its combine weight and
    /// summing over the `k` experts a token visited.
    ///
    /// # Errors
    ///
    /// Returns an error when `expert_out` is not `(routing.rows(), M)`.
    fn inverse(&self, expert_out: &Tensor, routing: &Routing) -> Result<Tensor>;
}

/// Checks that `t` is `(rows, M)` and returns `M`.
fn check_rows(t: &Tensor, rows: usize) -> Result<usize> {
    if t.rank() != 2 || t.dims()[0] != rows {
        return Err(MoeError::BadInput {
            expected: format!("({rows}, M)"),
            actual: t.dims().to_vec(),
        });
    }
    Ok(t.dims()[1])
}

/// Token rows → buffer rows: `write(buffer_row, token_row, weight)` once
/// per assignment. Every buffer row is written at most once, and only
/// the rows no assignment occupies — a wire block's header, the rows
/// past its load, pad slots — are zero-filled.
fn scatter_rows(
    tokens: &Tensor,
    routing: &Routing,
    write: impl Fn(&mut [f32], &[f32], f32),
) -> Result<Tensor> {
    let m = check_rows(tokens, routing.num_tokens())?;
    let mut out = buf::take(routing.rows() * m);
    let mut occupied = vec![false; routing.rows()];
    for a in routing.assignments() {
        let row = routing.row_of(a);
        occupied[row] = true;
        let src = &tokens.data()[a.token * m..(a.token + 1) * m];
        write(&mut out[row * m..(row + 1) * m], src, a.weight);
    }
    for (row, _) in occupied.iter().enumerate().filter(|(_, &taken)| !taken) {
        out[row * m..(row + 1) * m].fill(0.0);
    }
    Ok(Tensor::from_vec(out, &[routing.rows(), m])?)
}

/// Buffer rows → token rows: `add(token_row, buffer_row, weight)` once
/// per assignment, in assignment order.
fn gather_rows(
    buffer: &Tensor,
    routing: &Routing,
    add: impl Fn(&mut [f32], &[f32], f32),
) -> Result<Tensor> {
    let m = check_rows(buffer, routing.rows())?;
    let mut out = buf::take_zeroed(routing.num_tokens() * m);
    for a in routing.assignments() {
        let row = routing.row_of(a);
        let src = &buffer.data()[row * m..(row + 1) * m];
        add(&mut out[a.token * m..(a.token + 1) * m], src, a.weight);
    }
    Ok(Tensor::from_vec(out, &[routing.num_tokens(), m])?)
}

/// GShard-style ordering: einsum via explicit dispatch-mask GEMMs.
#[derive(Debug, Clone, Copy, Default)]
pub struct GShardOrdering;

impl GShardOrdering {
    /// Creates the ordering.
    pub fn new() -> Self {
        GShardOrdering
    }

    /// The `(rows, tokens)` dispatch mask: 0/1, or the combine weights.
    fn dispatch_mask(routing: &Routing, weighted: bool) -> Tensor {
        let cols = routing.num_tokens();
        let mut mask = Tensor::zeros(&[routing.rows(), cols]);
        let cells = mask.data_mut();
        for a in routing.assignments() {
            cells[routing.row_of(a) * cols + a.token] = if weighted { a.weight } else { 1.0 };
        }
        mask
    }
}

impl OrderFn for GShardOrdering {
    fn name(&self) -> &'static str {
        "gshard_einsum"
    }

    fn order(&self, input: &Tensor, routing: &Routing) -> Result<Tensor> {
        check_rows(input, routing.num_tokens())?;
        let mask = Self::dispatch_mask(routing, false);
        Ok(mask.matmul(input)?)
    }

    fn inverse(&self, expert_out: &Tensor, routing: &Routing) -> Result<Tensor> {
        check_rows(expert_out, routing.rows())?;
        let mask = Self::dispatch_mask(routing, true);
        Ok(mask.transpose()?.matmul(expert_out)?)
    }
}

/// Tutel-style ordering: SIMT-efficient sparse scatter/gather.
#[derive(Debug, Clone, Copy, Default)]
pub struct TutelOrdering;

impl TutelOrdering {
    /// Creates the ordering.
    pub fn new() -> Self {
        TutelOrdering
    }
}

impl OrderFn for TutelOrdering {
    fn name(&self) -> &'static str {
        "tutel_sparse"
    }

    fn order(&self, input: &Tensor, routing: &Routing) -> Result<Tensor> {
        scatter_rows(input, routing, |dst, src, _| dst.copy_from_slice(src))
    }

    fn inverse(&self, expert_out: &Tensor, routing: &Routing) -> Result<Tensor> {
        gather_rows(expert_out, routing, |dst, src, w| {
            for (o, v) in dst.iter_mut().zip(src) {
                *o += w * v;
            }
        })
    }
}

/// Gradient of [`OrderFn::order`] with respect to the layer input:
/// gathers order-buffer gradients back to token rows (unweighted — the
/// dispatch path carries raw embeddings).
///
/// # Errors
///
/// Returns an error on a shape mismatch with the routing.
pub fn order_backward(grad_buffer: &Tensor, routing: &Routing) -> Result<Tensor> {
    gather_rows(grad_buffer, routing, |dst, src, _| {
        for (o, v) in dst.iter_mut().zip(src) {
            *o += v;
        }
    })
}

/// Gradient of [`OrderFn::inverse`] with respect to the expert outputs:
/// scatters output gradients into the order buffer, scaled by the
/// combine weights.
///
/// # Errors
///
/// Returns an error on a shape mismatch with the routing.
pub fn combine_backward(grad_output: &Tensor, routing: &Routing) -> Result<Tensor> {
    scatter_rows(grad_output, routing, |dst, src, w| {
        for (o, v) in dst.iter_mut().zip(src) {
            *o = w * v;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingBuilder;
    use tensor::TensorRng;

    fn sample_routing() -> Routing {
        let mut b = RoutingBuilder::new(5, 3, 2);
        b.assign(0, 1, 0.7);
        b.assign(0, 2, 0.3);
        b.assign(1, 0, 1.0);
        b.assign(2, 1, 0.5);
        b.assign(3, 0, 0.9);
        b.assign(4, 2, 0.2);
        b.finish()
    }

    #[test]
    fn both_orderings_agree() {
        let mut rng = TensorRng::seed_from(1);
        let routing = sample_routing();
        let input = rng.normal(&[5, 4], 0.0, 1.0);
        let g = GShardOrdering::new();
        let t = TutelOrdering::new();
        let bg = g.order(&input, &routing).unwrap();
        let bt = t.order(&input, &routing).unwrap();
        assert!(bg.allclose(&bt, 1e-6));

        let expert_out = rng.normal(&[6, 4], 0.0, 1.0);
        let og = g.inverse(&expert_out, &routing).unwrap();
        let ot = t.inverse(&expert_out, &routing).unwrap();
        assert!(og.allclose(&ot, 1e-5));
    }

    #[test]
    fn order_places_tokens_in_slots() {
        let routing = sample_routing();
        let input = Tensor::from_vec((0..20).map(|v| v as f32).collect(), &[5, 4]).unwrap();
        let buf = TutelOrdering::new().order(&input, &routing).unwrap();
        // token 1 → expert 0 slot 0 → row 0
        assert_eq!(&buf.data()[0..4], &input.data()[4..8]);
        // token 0 → expert 1 slot 0 → row 2 (capacity 2)
        assert_eq!(&buf.data()[8..12], &input.data()[0..4]);
    }

    #[test]
    fn unfilled_slots_are_zero() {
        let mut b = RoutingBuilder::new(2, 2, 3);
        b.assign(0, 0, 1.0);
        let routing = b.finish();
        let input = Tensor::ones(&[2, 2]);
        let buf = TutelOrdering::new().order(&input, &routing).unwrap();
        // rows 1..6 untouched
        assert_eq!(&buf.data()[2..], &[0.0; 10]);
    }

    #[test]
    fn inverse_applies_weights_and_sums_over_k() {
        let routing = sample_routing();
        // expert outputs all ones → output[token] = sum of its weights
        let expert_out = Tensor::ones(&[6, 1]);
        // need M=1 routing-compatible input check: num_tokens 5
        let out = TutelOrdering::new().inverse(&expert_out, &routing).unwrap();
        let expect = [1.0f32, 1.0, 0.5, 0.9, 0.2];
        for (o, e) in out.data().iter().zip(&expect) {
            assert!((o - e).abs() < 1e-6);
        }
    }

    #[test]
    fn order_then_inverse_with_unit_weights_is_identity_for_routed_tokens() {
        let mut b = RoutingBuilder::new(4, 2, 2);
        for t in 0..4 {
            b.assign(t, t % 2, 1.0);
        }
        let routing = b.finish();
        let mut rng = TensorRng::seed_from(2);
        let input = rng.normal(&[4, 3], 0.0, 1.0);
        for ord in [
            &GShardOrdering::new() as &dyn OrderFn,
            &TutelOrdering::new(),
        ] {
            let buf = ord.order(&input, &routing).unwrap();
            let back = ord.inverse(&buf, &routing).unwrap();
            assert!(back.allclose(&input, 1e-5), "{}", ord.name());
        }
    }

    #[test]
    fn dropped_tokens_get_zero_output() {
        let mut b = RoutingBuilder::new(2, 1, 1);
        b.assign(0, 0, 1.0);
        b.assign(1, 0, 1.0); // dropped (capacity 1)
        let routing = b.finish();
        let input = Tensor::ones(&[2, 2]);
        let ord = TutelOrdering::new();
        let buf = ord.order(&input, &routing).unwrap();
        let out = ord.inverse(&buf, &routing).unwrap();
        assert_eq!(&out.data()[0..2], &[1.0, 1.0]);
        assert_eq!(&out.data()[2..4], &[0.0, 0.0]);
    }

    #[test]
    fn backwards_match_finite_structure() {
        // order_backward is the adjoint of order: <order(x), g> = <x, order_backward(g)>
        let routing = sample_routing();
        let mut rng = TensorRng::seed_from(3);
        let x = rng.normal(&[5, 4], 0.0, 1.0);
        let g = rng.normal(&[6, 4], 0.0, 1.0);
        let ord = TutelOrdering::new();
        let fwd = ord.order(&x, &routing).unwrap();
        let bwd = order_backward(&g, &routing).unwrap();
        let lhs: f32 = fwd.mul(&g).unwrap().sum();
        let rhs: f32 = x.mul(&bwd).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-4);

        // combine_backward is the adjoint of inverse
        let eo = rng.normal(&[6, 4], 0.0, 1.0);
        let go = rng.normal(&[5, 4], 0.0, 1.0);
        let fwd = ord.inverse(&eo, &routing).unwrap();
        let bwd = combine_backward(&go, &routing).unwrap();
        let lhs: f32 = fwd.mul(&go).unwrap().sum();
        let rhs: f32 = eo.mul(&bwd).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn shape_validation() {
        let routing = sample_routing();
        let ord = TutelOrdering::new();
        assert!(ord.order(&Tensor::zeros(&[3, 4]), &routing).is_err());
        assert!(ord.inverse(&Tensor::zeros(&[5, 4]), &routing).is_err());
        assert!(order_backward(&Tensor::zeros(&[2, 2]), &routing).is_err());
        assert!(combine_backward(&Tensor::zeros(&[9, 2]), &routing).is_err());
    }
}
