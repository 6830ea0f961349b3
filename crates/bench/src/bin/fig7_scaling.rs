//! Fig. 7: speedups over DS-MoE on Testbed A with varied sequence
//! length (L ∈ {512, 1024, 2048} at P = 48) and varied cluster size
//! (P ∈ {16, 32, 48} at L = 1024), on a Mixtral-7B-style model.
//!
//! Regenerate with `cargo run --release -p bench --bin fig7_scaling`.

use bench::{print_speedup_header, print_speedup_row};
use models::iteration::iteration_time;
use models::ModelPreset;
use simnet::Testbed;

fn print_row(label: &str, testbed: &Testbed, preset: &ModelPreset) {
    print_speedup_row(label, |kind| {
        iteration_time(kind, testbed, preset).expect("valid preset")
    });
}

fn main() {
    println!("# Fig. 7 — scaling with L and P on Testbed A (Mixtral-7B, 8 layers)\n");
    print_speedup_header("config");

    let testbed = Testbed::a();
    for seq in [512usize, 1024, 2048] {
        let preset = ModelPreset::mixtral_7b().with_layers(8).with_seq_len(seq);
        print_row(&format!("L={seq},P=48"), &testbed, &preset);
    }
    println!();
    for nodes in [2usize, 4, 6] {
        let testbed_p = testbed.with_nodes(nodes);
        let preset = ModelPreset::mixtral_7b().with_layers(8).with_seq_len(1024);
        print_row(
            &format!("P={},L=1024", nodes * testbed.gpus_per_node),
            &testbed_p,
            &preset,
        );
    }
    println!(
        "\npaper shape check: FSMoE ~2.17x/2.72x/3.14x over DS-MoE as L grows\n\
         (1.17x-1.19x over Tutel); ~2.25x/2.27x/2.72x as P grows."
    );
}
