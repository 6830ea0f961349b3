//! Non-invasive extension hooks (the paper's `CallbackBase`, §3.1).
//!
//! FSMoE exposes six hook points around the MoE layer so users can adapt
//! inputs, compress communication, or collect statistics *without*
//! modifying the layer. [`MoeLayer`](crate::layer::MoeLayer) invokes them
//! in this order, whatever world it runs over:
//!
//! 1. [`MoeHooks::before_moe_start`] — reformat inputs (e.g. multimodal);
//! 2. [`MoeHooks::before_dispatch`] — e.g. compress the dispatch buffer;
//! 3. [`MoeHooks::after_dispatch`] — e.g. decompress it;
//! 4. [`MoeHooks::before_combine`] — e.g. compress expert outputs;
//! 5. [`MoeHooks::after_combine`] — e.g. decompress them;
//! 6. [`MoeHooks::before_moe_end`] — final output adjustment.
//!
//! Hooks 2–5 bracket the two exchanges between tokens and experts.
//! Hooks 2 and 5 see the order buffer in the layout their `&Routing`
//! argument describes (assignment `a` at row `routing.row_of(a)` of
//! `routing.rows()`, zero header rows included); hooks 3 and 4 see the
//! buffer the local experts compute on in place — that same buffer on a
//! one-rank layer, whose exchange is the identity, and off the wire the
//! gathered `[esp][ep][slot]` blocks of a header (its first element the
//! block's row count; zero in hook 4) and `T` rows, the counted first.

use tensor::Tensor;

use crate::routing::Routing;
use crate::Result;

/// The six extension hooks. Every method defaults to a no-op; implement
/// only what you need.
pub trait MoeHooks: std::fmt::Debug + Send {
    /// Runs on the raw layer input before gating.
    ///
    /// # Errors
    ///
    /// Implementations may fail; the layer aborts the forward pass.
    fn before_moe_start(&mut self, input: &mut Tensor) -> Result<()> {
        let _ = input;
        Ok(())
    }

    /// Runs on the ordered dispatch buffer just before the dispatch
    /// exchange.
    ///
    /// # Errors
    ///
    /// Implementations may fail; the layer aborts the forward pass.
    fn before_dispatch(&mut self, buffer: &mut Tensor, routing: &Routing) -> Result<()> {
        let _ = (buffer, routing);
        Ok(())
    }

    /// Runs on the buffer the local experts are about to compute on, just
    /// after the dispatch exchange (on the wire path, the gathered wire
    /// layout; see the module docs).
    ///
    /// # Errors
    ///
    /// Implementations may fail; the layer aborts the forward pass.
    fn after_dispatch(&mut self, buffer: &mut Tensor, routing: &Routing) -> Result<()> {
        let _ = (buffer, routing);
        Ok(())
    }

    /// Runs on the local experts' output, in the layout of their input,
    /// before the combine exchange.
    ///
    /// # Errors
    ///
    /// Implementations may fail; the layer aborts the forward pass.
    fn before_combine(&mut self, buffer: &mut Tensor, routing: &Routing) -> Result<()> {
        let _ = (buffer, routing);
        Ok(())
    }

    /// Runs on the combined buffer after the combine exchange.
    ///
    /// # Errors
    ///
    /// Implementations may fail; the layer aborts the forward pass.
    fn after_combine(&mut self, buffer: &mut Tensor, routing: &Routing) -> Result<()> {
        let _ = (buffer, routing);
        Ok(())
    }

    /// Runs on the final layer output.
    ///
    /// # Errors
    ///
    /// Implementations may fail; the layer aborts the forward pass.
    fn before_moe_end(&mut self, output: &mut Tensor) -> Result<()> {
        let _ = output;
        Ok(())
    }

    /// Notification that the layer dropped `count` token assignments
    /// because a dispatch collective could not reach its peers (graceful
    /// degradation: the tokens fall back to their residual path, the
    /// paper's capacity-drop semantics). Statistics-only — it cannot
    /// veto the drop.
    fn on_tokens_dropped(&mut self, count: usize) {
        let _ = count;
    }
}

/// The default hook set: does nothing at every point.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopHooks;

impl MoeHooks for NoopHooks {}

/// A demonstration hook that emulates communication compression: it
/// quantises the dispatch buffer before the AlltoAll and tracks how many
/// elements were touched. Mirrors the paper's compression example for
/// `BeforeDispatchHook`/`AfterDispatchHook`.
#[derive(Debug, Clone, Default)]
pub struct QuantizeHooks {
    /// Quantisation step (0 disables).
    pub step: f32,
    /// Elements quantised so far.
    pub elements: usize,
}

impl QuantizeHooks {
    /// Creates a quantising hook with the given step.
    pub fn new(step: f32) -> Self {
        QuantizeHooks { step, elements: 0 }
    }
}

impl MoeHooks for QuantizeHooks {
    fn before_dispatch(&mut self, buffer: &mut Tensor, _routing: &Routing) -> Result<()> {
        if self.step > 0.0 {
            self.elements += buffer.num_elements();
            for v in buffer.data_mut() {
                *v = (*v / self.step).round() * self.step;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingBuilder;

    #[test]
    fn noop_hooks_do_nothing() {
        let mut h = NoopHooks;
        let mut t = Tensor::from_vec(vec![1.5, -2.5], &[2]).unwrap();
        let orig = t.clone();
        let routing = RoutingBuilder::new(1, 1, 1).finish();
        h.before_moe_start(&mut t).unwrap();
        h.before_dispatch(&mut t, &routing).unwrap();
        h.after_dispatch(&mut t, &routing).unwrap();
        h.before_combine(&mut t, &routing).unwrap();
        h.after_combine(&mut t, &routing).unwrap();
        h.before_moe_end(&mut t).unwrap();
        assert_eq!(t, orig);
    }

    #[test]
    fn quantize_hook_rounds_and_counts() {
        let mut h = QuantizeHooks::new(0.5);
        let mut t = Tensor::from_vec(vec![0.6, 1.3, -0.2], &[3]).unwrap();
        let routing = RoutingBuilder::new(1, 1, 1).finish();
        h.before_dispatch(&mut t, &routing).unwrap();
        assert_eq!(t.data(), &[0.5, 1.5, -0.0]);
        assert_eq!(h.elements, 3);
    }

    #[test]
    fn quantize_step_zero_is_noop() {
        let mut h = QuantizeHooks::new(0.0);
        let mut t = Tensor::from_vec(vec![0.6], &[1]).unwrap();
        let routing = RoutingBuilder::new(1, 1, 1).finish();
        h.before_dispatch(&mut t, &routing).unwrap();
        assert_eq!(t.data(), &[0.6]);
        assert_eq!(h.elements, 0);
    }
}
