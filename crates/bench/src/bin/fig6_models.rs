//! Fig. 6: end-to-end speedups of the five schedules over DeepSpeed-MoE
//! on the real-world models — GPT2-XL-MoE and Mixtral-7B on both
//! testbeds, Mixtral-22B on Testbed A (B = 1, k = 2, f = 1.2; L = 1024
//! on A, 256 on B; Mixtral-7B runs 7 layers on B and Mixtral-22B 33
//! layers on A, per §6.4).
//!
//! Regenerate with `cargo run --release -p bench --bin fig6_models`.

use bench::{print_speedup_header, print_speedup_row};
use models::iteration::iteration_time;
use models::ModelPreset;
use simnet::{Testbed, TestbedKind};

fn presets_for(kind: TestbedKind) -> Vec<ModelPreset> {
    match kind {
        TestbedKind::A => vec![
            ModelPreset::gpt2_xl_moe()
                .with_seq_len(1024)
                .with_layers(12),
            ModelPreset::mixtral_7b().with_seq_len(1024).with_layers(32),
            ModelPreset::mixtral_22b()
                .with_seq_len(1024)
                .with_layers(33),
        ],
        TestbedKind::B => vec![
            ModelPreset::gpt2_xl_moe().with_seq_len(256).with_layers(12),
            ModelPreset::mixtral_7b().with_seq_len(256).with_layers(7),
        ],
    }
}

fn main() {
    println!("# Fig. 6 — speedups over DS-MoE on real-world MoE models\n");
    for testbed in [Testbed::a(), Testbed::b()] {
        println!("## {}", testbed.kind);
        print_speedup_header("model");
        for preset in presets_for(testbed.kind) {
            print_speedup_row(&preset.name, |kind| {
                iteration_time(kind, &testbed, &preset).expect("presets are valid")
            });
        }
        println!();
    }
    println!(
        "paper shape check: FSMoE 1.28x-3.01x over DS-MoE (avg 1.19x over\n\
         Tutel, 1.12x over Tutel-Improved, 1.14x over PipeMoE+Lina, 1.07x\n\
         over FSMoE-No-IIO); Tutel reaches only 1.16x-2.59x."
    );
}
