//! Figure 5: PSNR of images reconstructed by the **RTF attack** under
//! each OASIS transformation, at the paper's strongest attack
//! configurations.
//!
//! Paper settings: ImageNet (B, n) = (8, 900) and (64, 800);
//! CIFAR100 (B, n) = (8, 500) and (64, 600). One boxplot per policy
//! {WO, MR, mR, SH, HFlip, VFlip}; the paper's green triangle is the
//! `mean` column here.

use oasis_bench::{banner, figure5_policies, transform_comparison, AttackSpec, Scale, Workload};

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 5",
        "RTF attack vs OASIS transformations (PSNR boxplots)",
        scale,
    );

    // (workload, batch, neurons) — from the paper's caption.
    let configs = [
        (Workload::ImageNette, 8usize, 900usize),
        (Workload::ImageNette, 64, 800),
        (Workload::Cifar100, 8, 500),
        (Workload::Cifar100, 64, 600),
    ];
    transform_comparison(
        scale,
        AttackSpec::rtf(900),
        &configs,
        &figure5_policies(),
        42,
        7_000,
        128,
        200,
    );
    println!("\nExpected shape (paper): WO ≈ perfect-reconstruction band;");
    println!("every transform collapses PSNR; MR lowest; flips slightly above MR.");
}
