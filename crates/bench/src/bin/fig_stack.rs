//! Defense-stacking grid: what the composable pipeline buys.
//!
//! The paper evaluates OASIS and DP-SGD one at a time; the stackable
//! `+` spec grammar lets one scenario run them **together**. This
//! binary prints, for RTF and CAH, the mean matched PSNR under the
//! four cells of the {OASIS, DP} stacking grid —
//! `none`, `oasis:MR`, `dp:1,S`, and `oasis:MR+dp:1,S` — plus leak
//! rates.
//!
//! Expected shape: stacking composes. At a utility-realistic noise
//! multiplier the `oasis+dp` cell sits at or below `min(oasis, dp)`
//! — OASIS removes the singleton activations the inversion needs
//! while DP's clipped-and-noised update degrades whatever gradient
//! signal remains, so the combined defense is no weaker than its
//! strongest layer.
//!
//! One composition subtlety the grid exposes: DP's noise std is
//! `σ·C/B`, and OASIS *expands* `B` (MR: 4×), so stacking dilutes
//! the noise by the expansion factor. With a large σ (deep in the
//! accuracy-destroying regime, e.g. `dp:1,0.01` here) DP alone can
//! therefore sit *below* the stack. The grid uses a mild σ where DP
//! keeps accuracy — the regime the paper's trade-off study argues is
//! the only deployable one.

use oasis_bench::{banner, AttackSpec, DefenseSpec, Scale, Scenario, Sweep, Workload};

fn main() {
    let scale = Scale::from_args();
    banner(
        "Stacking grid",
        "OASIS × DP-SGD composed defenses (the `+` spec grammar)",
        scale,
    );

    let defenses: Vec<(&str, DefenseSpec)> = vec![
        ("none", DefenseSpec::none()),
        ("oasis:MR", "oasis:MR".parse().expect("oasis spec")),
        ("dp:1,0.0003", "dp:1,0.0003".parse().expect("dp spec")),
        (
            "oasis:MR+dp:1,0.0003",
            "oasis:MR+dp:1,0.0003".parse().expect("stack spec"),
        ),
    ];
    let attacks = [("RTF", AttackSpec::rtf(128)), ("CAH", AttackSpec::cah(128))];
    let mut sweep = Sweep::default();

    for (attack_name, attack) in &attacks {
        println!(
            "\n--- {attack_name} on {} (B = 8) ---",
            Workload::Cifar100.label()
        );
        println!(
            "{:>20} {:>14} {:>13}",
            "defense", "mean PSNR(dB)", "leak rate(%)"
        );
        let mut means = Vec::new();
        for (label, defense) in &defenses {
            let cell = Scenario::builder()
                .workload(Workload::Cifar100)
                .attack(attack.clone())
                .defense(defense.clone())
                .batch_size(8)
                .scale(scale)
                .seed(31)
                .dataset_seed(3131)
                .build()
                .expect("stack scenario");
            let report = sweep.run(&cell).expect("stack scenario run");
            println!(
                "{:>20} {:>14.2} {:>13.1}",
                label,
                report.mean_psnr(),
                report.leak_rate * 100.0
            );
            means.push(report.mean_psnr());
        }
        let (oasis, dp, both) = (means[1], means[2], means[3]);
        println!(
            "  oasis+dp = {both:.2} dB vs min(oasis, dp) = {:.2} dB  ({})",
            oasis.min(dp),
            if both <= oasis.min(dp) + 1e-9 {
                "stack is no weaker than its strongest layer"
            } else {
                "WARNING: stack weaker than strongest layer"
            }
        );
    }
    println!("\nExpected shape: `none` sits in the verbatim band; each single");
    println!("defense pulls PSNR down; the stack sits at or below the stronger");
    println!("of the two — defenses compose instead of interfering.");
}
