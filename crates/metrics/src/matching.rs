//! Matching reconstructions to original training samples.
//!
//! The attacks emit a pool of candidate reconstructions (one per bin
//! or per trap neuron). To score an attack the way the paper and the
//! `breaching` framework do, each reconstruction is assigned to an
//! original image one-to-one by descending PSNR, and the matched
//! PSNRs are what the figures report.

use oasis_image::Image;
use oasis_tensor::simd::SQ_TILE;
use serde::{Deserialize, Serialize};

use crate::psnr;
use crate::psnr::psnr_tile;

/// One reconstruction↔original assignment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReconstructionMatch {
    /// Index into the reconstruction pool.
    pub recon_idx: usize,
    /// Index into the original batch `D`.
    pub original_idx: usize,
    /// PSNR of the pair, in dB.
    pub psnr: f64,
}

/// Greedy one-to-one matching by descending PSNR.
///
/// Returns `min(recons.len(), originals.len())` matches; both sides
/// are used at most once. Greedy matching on a descending-sorted pair
/// list is the standard evaluation choice (optimal assignment changes
/// numbers negligibly and costs O(n³)).
pub fn match_greedy(recons: &[Image], originals: &[Image]) -> Vec<ReconstructionMatch> {
    let mut pairs = Vec::with_capacity(recons.len() * originals.len());
    for_each_pair_psnr(recons, originals, |recon_idx, original_idx, psnr| {
        pairs.push(ReconstructionMatch {
            recon_idx,
            original_idx,
            psnr,
        });
    });
    pairs.sort_by(|a, b| b.psnr.total_cmp(&a.psnr));
    let mut recon_used = vec![false; recons.len()];
    let mut orig_used = vec![false; originals.len()];
    let mut out = Vec::new();
    for p in pairs {
        if !recon_used[p.recon_idx] && !orig_used[p.original_idx] {
            recon_used[p.recon_idx] = true;
            orig_used[p.original_idx] = true;
            out.push(p);
            if out.len() == recons.len().min(originals.len()) {
                break;
            }
        }
    }
    out
}

/// Two-stage greedy matching for large pools: pairs are *selected* on
/// box-downsampled copies (cheap), then the returned PSNR of each
/// selected pair is recomputed at full resolution.
///
/// With `coarse_side >=` the image side this is identical to
/// [`match_greedy`].
pub fn match_greedy_coarse(
    recons: &[Image],
    originals: &[Image],
    coarse_side: usize,
) -> Vec<ReconstructionMatch> {
    let shrink = |imgs: &[Image]| -> Vec<Image> {
        imgs.iter()
            .map(|i| i.downsample(coarse_side, coarse_side))
            .collect()
    };
    let small_r = shrink(recons);
    let small_o = shrink(originals);
    let coarse = match_greedy(&small_r, &small_o);
    coarse
        .into_iter()
        .map(|m| ReconstructionMatch {
            psnr: psnr(&recons[m.recon_idx], &originals[m.original_idx]),
            ..m
        })
        .collect()
}

/// For every original, the best PSNR any reconstruction achieves
/// against it — the per-sample "leakage" view used by the
/// Proposition 1 ablation. Empty reconstruction pools yield 0 dB.
pub fn best_psnr_per_original(recons: &[Image], originals: &[Image]) -> Vec<f64> {
    let mut best = vec![0.0f64; originals.len()];
    for_each_pair_psnr(recons, originals, |_, oi, psnr| {
        best[oi] = best[oi].max(psnr)
    });
    best
}

/// Calls `f(recon_idx, original_idx, psnr)` for every pair, in
/// (reconstruction, original) lexicographic order.
///
/// Each reconstruction is read once against the cache-resident
/// originals, [`SQ_TILE`] at a time ([`psnr_tile`]); the last
/// `originals.len() % SQ_TILE` take [`psnr`], which gives the same
/// bits.
fn for_each_pair_psnr(recons: &[Image], originals: &[Image], mut f: impl FnMut(usize, usize, f64)) {
    let tiled = originals.len() / SQ_TILE * SQ_TILE;
    for (ri, r) in recons.iter().enumerate() {
        let mut groups = originals.chunks_exact(SQ_TILE);
        for (g, group) in (&mut groups).enumerate() {
            let tile = psnr_tile(r, std::array::from_fn(|j| &group[j]));
            for (j, p) in tile.into_iter().enumerate() {
                f(ri, g * SQ_TILE + j, p);
            }
        }
        for (j, o) in groups.remainder().iter().enumerate() {
            f(ri, tiled + j, psnr(r, o));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(v: f32) -> Image {
        let mut i = Image::new(1, 2, 2);
        i.fill(v);
        i
    }

    #[test]
    fn exact_matches_pair_up() {
        let originals = vec![img(0.1), img(0.5), img(0.9)];
        let recons = vec![img(0.9), img(0.1)];
        let matches = match_greedy(&recons, &originals);
        assert_eq!(matches.len(), 2);
        for m in &matches {
            assert_eq!(m.psnr, crate::PSNR_CAP);
        }
        let pairs: Vec<(usize, usize)> = matches
            .iter()
            .map(|m| (m.recon_idx, m.original_idx))
            .collect();
        assert!(pairs.contains(&(0, 2)));
        assert!(pairs.contains(&(1, 0)));
    }

    #[test]
    fn one_to_one_constraint_holds() {
        let originals = vec![img(0.5), img(0.5)];
        let recons = vec![img(0.5), img(0.5), img(0.5)];
        let matches = match_greedy(&recons, &originals);
        assert_eq!(matches.len(), 2);
        let mut orig: Vec<usize> = matches.iter().map(|m| m.original_idx).collect();
        orig.sort_unstable();
        orig.dedup();
        assert_eq!(orig.len(), 2);
    }

    #[test]
    fn empty_pools_give_empty_matches() {
        assert!(match_greedy(&[], &[img(0.5)]).is_empty());
        assert!(match_greedy(&[img(0.5)], &[]).is_empty());
    }

    #[test]
    fn best_psnr_per_original_finds_leaks() {
        let originals = vec![img(0.2), img(0.8)];
        let recons = vec![img(0.8)];
        let best = best_psnr_per_original(&recons, &originals);
        assert!(best[1] > best[0]);
        assert_eq!(best[1], crate::PSNR_CAP);
    }

    #[test]
    fn nan_reconstructions_score_no_leak() {
        // Five originals: one full SQ_TILE group plus a remainder, so
        // both scoring paths see the NaN pool.
        let originals: Vec<Image> = (0..5).map(|i| img(i as f32 / 5.0)).collect();
        let recons = vec![img(f32::NAN)];
        assert_eq!(best_psnr_per_original(&recons, &originals), vec![0.0; 5]);
        let matches = match_greedy(&recons, &originals);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].psnr, 0.0);
    }

    #[test]
    fn best_psnr_with_no_recons_is_zero() {
        let originals = vec![img(0.2)];
        assert_eq!(best_psnr_per_original(&[], &originals), vec![0.0]);
    }

    /// The original-major fold `best_psnr_per_original` ran before it
    /// became recon-major, kept verbatim as the oracle.
    fn best_psnr_oracle(recons: &[Image], originals: &[Image]) -> Vec<f64> {
        originals
            .iter()
            .map(|o| recons.iter().map(|r| psnr(r, o)).fold(0.0f64, f64::max))
            .collect()
    }

    #[test]
    fn recon_major_best_psnr_matches_the_original_major_fold() {
        use oasis_tensor::simd::{self, Backend};
        // 3×5×7 = 105 values: thirteen 8-lane chunks plus a tail.
        // Originals 3.. repeat recons 3..6, so capped exact matches mix
        // with finite scores; 0–9 originals cover every tile remainder.
        let pic = |seed: usize| {
            let data = (0..105)
                .map(|i| ((i * 31 + seed * 17) % 23) as f32 / 22.0)
                .collect();
            Image::from_vec(3, 5, 7, data).unwrap()
        };
        let recons: Vec<Image> = (0..6).map(pic).collect();
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for count in 0..=9 {
            let originals: Vec<Image> = (3..3 + count).map(pic).collect();
            for pool in [&recons[..0], &recons[..]] {
                let want =
                    simd::with_backend(Backend::Scalar, || best_psnr_oracle(pool, &originals));
                for backend in [Backend::Scalar, Backend::detect()] {
                    let got =
                        simd::with_backend(backend, || best_psnr_per_original(pool, &originals));
                    assert_eq!(
                        bits(got),
                        bits(want.clone()),
                        "{backend:?} {count} originals"
                    );
                }
            }
        }
    }

    #[test]
    fn coarse_matching_agrees_with_exact_on_distinct_images() {
        let originals = vec![img(0.1), img(0.5), img(0.9)];
        let recons = vec![img(0.5), img(0.9)];
        let exact = match_greedy(&recons, &originals);
        let coarse = match_greedy_coarse(&recons, &originals, 2);
        let key = |ms: &[ReconstructionMatch]| {
            let mut v: Vec<(usize, usize)> =
                ms.iter().map(|m| (m.recon_idx, m.original_idx)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(key(&exact), key(&coarse));
    }
}
