//! Figure 6: PSNR of images reconstructed by the **CAH attack** under
//! shearing, major rotation, and their integration.
//!
//! Paper settings: ImageNet (B, n) = (8, 100) and (64, 700);
//! CIFAR100 (B, n) = (8, 300) and (64, 600). The paper's finding: at
//! B = 8, MR or SH alone leave many perfect reconstructions (high
//! outliers); the MR+SH integration collapses the PSNR.
//!
//! A large calibration set (384 images) keeps per-row quantile noise
//! small; noisy quantiles create under-activated rows that stay
//! singleton-prone even under MR+SH.

use oasis_bench::{banner, figure6_policies, transform_comparison, AttackSpec, Scale, Workload};

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 6",
        "CAH attack vs transformations incl. MR+SH integration",
        scale,
    );

    let configs = [
        (Workload::ImageNette, 8usize, 100usize),
        (Workload::ImageNette, 64, 700),
        (Workload::Cifar100, 8, 300),
        (Workload::Cifar100, 64, 600),
    ];
    transform_comparison(
        scale,
        AttackSpec::cah(100),
        &configs,
        &figure6_policies(),
        43,
        8_000,
        384,
        150,
    );
    println!("\nExpected shape (paper): WO high; at B=8 MR and SH alone keep high");
    println!("maxima (leaked samples); MR+SH collapses PSNR at both batch sizes.");
}
