//! Baseline MoE training schedules.
//!
//! The paper evaluates FSMoE against five alternative schedules; each is
//! a pipeline-degree rule plus one of `scheduler::moe_layer`'s two issue
//! orders, lowered by the scheduler's one `lower`
//! ([`ScheduleKind::lower_layer`]), so the experiments compare
//! *schedules*, not implementations:
//!
//! | Schedule | pipeline degree | intra comm placement | Gradient-AllReduce |
//! |---|---|---|---|
//! | [`ScheduleKind::DsMoe`] (DeepSpeed-MoE) | 1 (sequential) | fused with experts | at the end of backward |
//! | [`ScheduleKind::Tutel`] (Tutel + PipeMoE) | adaptive (self-simulated scan) | fused with experts | at the end |
//! | [`ScheduleKind::TutelImproved`] | adaptive | fused with experts | overlapped with dense (non-MoE) parts |
//! | [`ScheduleKind::PipeMoeLina`] | adaptive | fused with experts | fixed 30 MB chunks behind dispatches |
//! | [`ScheduleKind::FsMoeNoIio`] | gar-aware self-simulated scan | fused with experts | §5 adaptive partition |
//! | [`ScheduleKind::FsMoe`] | Algorithm 1 | own intra-node stream | §5 adaptive partition |
//!
//! "Fused with experts" is PipeMoE's two-resource model — each chunk's
//! ESP-AllGather → expert → ESP-ReduceScatter runs as one computation
//! block overlapped only against the AlltoAlls. Unfusing the intra-node
//! collectives onto their own stream is exactly the inter/intra overlap
//! (IIO) FSMoE adds (§4); `FsMoeNoIio` isolates that contribution
//! (Table 5).

mod kind;
mod lower;

pub use kind::ScheduleKind;
pub use lower::simulate_layer;

/// Lina's fixed gradient-bucket size: 30 MB (paper §6.4).
pub const LINA_CHUNK_BYTES: f64 = 30.0 * 1024.0 * 1024.0;
