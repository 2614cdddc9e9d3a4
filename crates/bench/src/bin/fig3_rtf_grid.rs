//! Figure 3: average PSNR of RTF reconstructions over the (batch size
//! × attacked neurons) grid, per dataset, **without** defense — the
//! preliminary experiment the paper uses to pick the strongest attack
//! configuration for each batch size.

use oasis_bench::{attack_grid, banner, AttackSpec, Scale};

fn main() {
    let scale = Scale::from_args();
    banner("Figure 3", "RTF average PSNR grid (undefended)", scale);
    attack_grid(scale, AttackSpec::rtf(100), 101, 30_000, 256);
    println!("\nExpected shape (paper): PSNR decreases with batch size; for each");
    println!("batch size some mid/high neuron count maximizes the attack.");
}
