//! Figure 4: average PSNR of CAH reconstructions over the (batch size
//! × attacked neurons) grid, per dataset, without defense.

use oasis_bench::{attack_grid, banner, AttackSpec, Scale};

fn main() {
    let scale = Scale::from_args();
    banner("Figure 4", "CAH average PSNR grid (undefended)", scale);
    attack_grid(scale, AttackSpec::cah(100), 102, 40_000, 384);
    println!("\nExpected shape (paper): strong reconstruction at small batches,");
    println!("sharp decline as the batch grows (trap-neuron collisions).");
}
