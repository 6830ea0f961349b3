//! Fig. 8: speedups over DS-MoE on Testbed A with pipeline parallelism
//! enabled (GPipe, N_PP = 2, 4 micro-batches).
//!
//! Regenerate with `cargo run --release -p bench --bin fig8_pp`.

use bench::{print_speedup_header, print_speedup_row};
use models::pipeline::gpipe_iteration_time;
use models::ModelPreset;
use simnet::Testbed;

fn main() {
    println!("# Fig. 8 — speedups over DS-MoE with GPipe (N_PP = 2) on Testbed A\n");
    let testbed = Testbed::a();
    let presets = [
        ModelPreset::gpt2_xl_moe()
            .with_seq_len(2048)
            .with_layers(12),
        ModelPreset::mixtral_7b().with_seq_len(2048).with_layers(8),
        ModelPreset::mixtral_22b()
            .with_seq_len(2048)
            .with_layers(32),
    ];
    print_speedup_header("model");
    for preset in presets {
        print_speedup_row(&preset.name, |kind| {
            gpipe_iteration_time(kind, &testbed, &preset, 2, 4).expect("presets are valid")
        });
    }
    println!(
        "\npaper shape check: FSMoE averages 2.46x over DS-MoE, 1.16x over\n\
         Tutel, 1.10x over Tutel-Improved, 1.12x over PipeMoE+Lina and\n\
         1.05x over FSMoE-No-IIO when PP is enabled."
    );
}
