//! Extending FSMoE without touching its internals (paper §3.1,
//! Listing 1): a custom routing function implementing the [`Gate`]
//! trait, plus a custom hook implementing [`MoeHooks`], plugged into the
//! standard layer.
//!
//! Run with `cargo run --release -p models --example custom_gate`.

use collectives::{Communicator, HybridTopology};
use fsmoe::config::MoeConfig;
use fsmoe::expert::build_expert;
use fsmoe::gate::Gate;
use fsmoe::hooks::MoeHooks;
use fsmoe::layer::MoeLayer;
use fsmoe::order::TutelOrdering;
use fsmoe::routing::{Routing, RoutingBuilder};
use tensor::{Tensor, TensorRng};

/// A deterministic hash router: token `t` goes to experts
/// `(t mod E)` and `(t·7+3 mod E)` with equal weight. No learned
/// parameters — handy as a load-balanced control group.
#[derive(Debug)]
struct HashGate {
    num_experts: usize,
}

impl Gate for HashGate {
    fn name(&self) -> &'static str {
        "hash"
    }

    fn num_experts(&self) -> usize {
        self.num_experts
    }

    fn route(
        &self,
        input: &Tensor,
        capacity: usize,
        _rng: &mut TensorRng,
    ) -> fsmoe::Result<Routing> {
        let tokens = input.dims()[0];
        let mut builder = RoutingBuilder::new(tokens, self.num_experts, capacity);
        for t in 0..tokens {
            builder.assign(t, t % self.num_experts, 0.5);
            builder.assign(t, (t * 7 + 3) % self.num_experts, 0.5);
        }
        Ok(builder.finish())
    }

    fn flops(&self, _tokens: usize) -> f64 {
        0.0 // no projection
    }
}

/// A statistics hook: counts bytes crossing the dispatch boundary —
/// the shape a communication-compression extension would take
/// (`BeforeDispatchHook` in the paper).
#[derive(Debug, Default)]
struct ByteCounter {
    dispatched: usize,
    combined: usize,
}

impl MoeHooks for ByteCounter {
    fn before_dispatch(&mut self, buffer: &mut Tensor, _routing: &Routing) -> fsmoe::Result<()> {
        self.dispatched += buffer.num_elements() * 4;
        Ok(())
    }

    fn after_combine(&mut self, buffer: &mut Tensor, _routing: &Routing) -> fsmoe::Result<()> {
        self.combined += buffer.num_elements() * 4;
        Ok(())
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = MoeConfig::builder()
        .batch_size(1)
        .seq_len(24)
        .embed_dim(32)
        .hidden_dim(64)
        .num_experts(6)
        .top_k(2)
        .no_drop()
        .build()?;

    let mut rng = TensorRng::seed_from(7);
    let experts = (0..config.num_experts)
        .map(|_| build_expert(config.ffn, config.embed_dim, config.hidden_dim, &mut rng))
        .collect();
    let mut layer = MoeLayer::with_modules(
        &config,
        Box::new(HashGate {
            num_experts: config.num_experts,
        }),
        Box::new(TutelOrdering::new()),
        experts,
        Box::new(ByteCounter::default()),
        &Communicator::solo(),
        &HybridTopology::flat(1)?,
    )?;

    let input = rng.normal(&[config.tokens(), config.embed_dim], 0.0, 1.0);
    let output = layer.forward(&input, &mut rng)?;
    let routing = layer.last_routing().expect("forward ran");

    println!("custom gate `hash` routed {} tokens:", config.tokens());
    println!("  expert loads     : {:?}", routing.expert_loads());
    println!(
        "  load imbalance   : {:.4} (hash routing balances well)",
        routing.load_imbalance()
    );
    println!("  output shape     : {:?}", output.dims());
    println!(
        "  output finite    : {}",
        output.data().iter().all(|v| v.is_finite())
    );
    Ok(())
}
