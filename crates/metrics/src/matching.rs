//! Matching reconstructions to original training samples.
//!
//! The attacks emit a pool of candidate reconstructions (one per bin
//! or per trap neuron). To score an attack the way the paper and the
//! `breaching` framework do, each reconstruction is assigned to an
//! original image one-to-one by descending PSNR, and the matched
//! PSNRs are what the figures report.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use oasis_image::Image;
use oasis_tensor::simd::{self, SQ_TILE};
use serde::{Deserialize, Serialize};

use crate::psnr;
use crate::psnr::{check_tile, db_from_sq_err, psnr_tile, sq_err_bound};

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
///
/// Pairs are taken by PSNR descending under [`f64::total_cmp`]; equal
/// PSNRs go in (reconstruction, original) lexicographic order, the
/// order a stable sort of the pair list gives. Nothing is sorted:
/// each original keeps a heap of its pairs, and each step takes the
/// greatest top among the free originals, after popping tops whose
/// reconstruction is taken. That is the greatest free pair, the one
/// the sorted list would reach next.
pub fn match_greedy(recons: &[Image], originals: &[Image]) -> Vec<ReconstructionMatch> {
    let count = originals.len();
    let mut pairs: Vec<Vec<Candidate>> = (0..count)
        .map(|_| Vec::with_capacity(recons.len()))
        .collect();
    for_each_pair_psnr(recons, originals, |recon_idx, original_idx, psnr| {
        pairs[original_idx].push(Candidate {
            psnr,
            index: recon_idx * count + original_idx,
        })
    });
    let mut heaps: Vec<BinaryHeap<Candidate>> = pairs.into_iter().map(BinaryHeap::from).collect();
    let wanted = recons.len().min(count);
    let mut recon_used = vec![false; recons.len()];
    let mut orig_used = vec![false; count];
    let mut out = Vec::with_capacity(wanted);
    while out.len() < wanted {
        for (heap, _) in heaps.iter_mut().zip(&orig_used).filter(|(_, &used)| !used) {
            while heap.peek().is_some_and(|c| recon_used[c.index / count]) {
                heap.pop();
            }
        }
        let next = heaps
            .iter()
            .zip(&orig_used)
            .enumerate()
            .filter(|(_, (_, &used))| !used)
            .filter_map(|(o, (heap, _))| Some((o, heap.peek()?)))
            .max_by(|a, b| a.1.cmp(b.1));
        let Some((original_idx, _)) = next else { break };
        let c = heaps[original_idx].pop().expect("peeked above");
        let recon_idx = c.index / count;
        recon_used[recon_idx] = true;
        orig_used[original_idx] = true;
        out.push(ReconstructionMatch {
            recon_idx,
            original_idx,
            psnr: c.psnr,
        });
    }
    out
}

/// A scored pair in [`match_greedy`]'s heaps: `index` is its position
/// in (reconstruction, original) order. The greatest candidate has the
/// highest PSNR by [`f64::total_cmp`], then the lowest index.
struct Candidate {
    psnr: f64,
    index: usize,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.psnr
            .total_cmp(&other.psnr)
            .then_with(|| other.index.cmp(&self.index))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

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
///
/// Bit-identical to folding `f64::max` over every pair's [`psnr`]
/// from 0 dB, but a pair is priced only while it can still win
/// (early abandon, as in the UCR suite of Rakthanmanon et al.). Each
/// original carries the best PSNR found so far. Its squared-error
/// tile stops pricing a pair once the partial sum is strictly above
/// the sum that would score that PSNR, plus a 2⁻²⁰ relative margin
/// that outweighs every rounding between a sum and its dB. A partial
/// never exceeds the full sum ([`simd::sq_err_tile_bounded`] says
/// why), so an abandoned pair scores strictly below the running best,
/// or is NaN and scores 0 dB; dropping it changes no bit. A pair that
/// ties the best is never abandoned.
pub fn best_psnr_per_original(recons: &[Image], originals: &[Image]) -> Vec<f64> {
    best_psnr_per_original_seeded(recons, originals, &[])
}

/// [`best_psnr_per_original`], starting each original's bound from a
/// known pair instead of 0 dB, so that most pairs are abandoned early.
/// The seeds are typically [`match_greedy_coarse`]'s matches of the
/// same pools.
///
/// Returns the same bits as the unseeded call whenever every seed's
/// `psnr` is one that some reconstruction reaches against its
/// `original_idx` (any reconstruction, not necessarily `recon_idx`).
///
/// # Panics
///
/// Panics if image dimensions differ, if a seed's `original_idx` is
/// out of range, or if a seed overstates: its PSNR is above the best
/// any reconstruction reaches against its original (the bound it set
/// may then have hidden the true best).
pub fn best_psnr_per_original_seeded(
    recons: &[Image],
    originals: &[Image],
    seeds: &[ReconstructionMatch],
) -> Vec<f64> {
    let mut best = vec![0.0f64; originals.len()];
    let Some(len) = originals.first().map(Image::numel) else {
        return best;
    };
    // The PSNR a pair must reach to be priced in full, per original.
    let mut floor = vec![0.0f64; originals.len()];
    for s in seeds {
        floor[s.original_idx] = floor[s.original_idx].max(s.psnr);
    }
    let mut bound: Vec<f64> = floor.iter().map(|&db| sq_err_bound(db, len)).collect();
    let groups = originals.len().div_ceil(SQ_TILE);
    for r in recons {
        for g in 0..groups {
            let first = g * SQ_TILE;
            let group = &originals[first..originals.len().min(first + SQ_TILE)];
            // A short last group repeats its last original; the copies
            // get a bound of −∞, which stops them at the first check.
            let tile = std::array::from_fn(|j| &group[j.min(group.len() - 1)]);
            let bounds = std::array::from_fn(|j| {
                if j < group.len() {
                    bound[first + j]
                } else {
                    f64::NEG_INFINITY
                }
            });
            check_tile(r, tile);
            let sums = simd::sq_err_tile_bounded(r.data(), tile.map(Image::data), bounds);
            for (j, &sq) in sums.iter().enumerate().take(group.len()) {
                if sq > bounds[j] {
                    continue;
                }
                let o = first + j;
                let p = db_from_sq_err(sq, len);
                best[o] = best[o].max(p);
                if p > floor[o] {
                    floor[o] = p;
                    bound[o] = sq_err_bound(p, len);
                }
            }
        }
    }
    for s in seeds {
        assert!(
            best[s.original_idx] >= s.psnr,
            "seed for original {} overstates its best PSNR",
            s.original_idx
        );
    }
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

    /// A 3×12×12 pool around `originals`: each original copied
    /// exactly (the PSNR cap), each under graded noise, each under
    /// heavy noise as a decoy, one image far outside [0, 1] (MSE > 1,
    /// so negative dB that must still report 0) and one NaN image. 432
    /// values span three abandon checkpoints.
    fn structured_pool(originals: &[Image], seed: u64) -> Vec<Image> {
        let mut rng = Uniform(seed + 1);
        let mut noisy = |o: &Image, level: f32| {
            let data = o
                .data()
                .iter()
                .map(|&v| v + level * (2.0 * rng.next() - 1.0))
                .collect();
            Image::from_vec(3, 12, 12, data).unwrap()
        };
        let mut pool: Vec<Image> = originals.to_vec();
        for (i, o) in originals.iter().enumerate() {
            pool.push(noisy(o, 0.02 * (i + 1) as f32));
        }
        for o in originals {
            pool.push(noisy(o, 0.5));
        }
        pool.push(Image::from_vec(3, 12, 12, vec![4.0; 432]).unwrap());
        pool.push(Image::from_vec(3, 12, 12, vec![f32::NAN; 432]).unwrap());
        pool
    }

    /// A xorshift64 stream of uniforms in [0, 1).
    struct Uniform(u64);

    impl Uniform {
        fn next(&mut self) -> f32 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 40) as f32 / (1u64 << 24) as f32
        }
    }

    fn pictures(count: usize, seed: u64) -> Vec<Image> {
        let mut rng = Uniform(seed + 1);
        (0..count)
            .map(|_| {
                let data = (0..432).map(|_| rng.next()).collect();
                Image::from_vec(3, 12, 12, data).unwrap()
            })
            .collect()
    }

    /// For each original, the pair that scores it worst: a valid seed
    /// that bounds nothing away.
    fn worst_seeds(recons: &[Image], originals: &[Image]) -> Vec<ReconstructionMatch> {
        (0..originals.len())
            .filter_map(|o| {
                (0..recons.len())
                    .map(|r| ReconstructionMatch {
                        recon_idx: r,
                        original_idx: o,
                        psnr: psnr(&recons[r], &originals[o]),
                    })
                    .min_by(|a, b| a.psnr.total_cmp(&b.psnr))
            })
            .collect()
    }

    #[test]
    fn recon_major_best_psnr_matches_the_original_major_fold() {
        use oasis_tensor::simd::{self, Backend};
        // 3×5×7 = 105 values: thirteen 8-lane chunks plus a tail, no
        // abandon checkpoint. Originals 3.. repeat recons 3..6, so
        // capped exact matches mix with finite scores; 0–9 originals
        // cover every tile remainder.
        let pic = |seed: usize| {
            let data = (0..105)
                .map(|i| ((i * 31 + seed * 17) % 23) as f32 / 22.0)
                .collect();
            Image::from_vec(3, 5, 7, data).unwrap()
        };
        let small: Vec<Image> = (0..6).map(pic).collect();
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let mut capped = 0;
        for count in 0..=9 {
            let small_originals: Vec<Image> = (3..3 + count).map(pic).collect();
            // The structured pools span three checkpoints, in every
            // order: copies first, noise first, and the NaN and
            // MSE > 1 images first.
            let originals = pictures(count, count as u64);
            let pool = structured_pool(&originals, 40 + count as u64);
            let mut reversed = pool.clone();
            reversed.reverse();
            let cases = [
                (&small[..0], &small_originals),
                (&small[..], &small_originals),
                (&pool[..], &originals),
                (&reversed[..], &originals),
                (&pool[..0], &originals),
                (&pool[count..], &originals),
            ];
            for (recons, originals) in cases {
                let want =
                    simd::with_backend(Backend::Scalar, || best_psnr_oracle(recons, originals));
                capped += want.iter().filter(|&&p| p == crate::PSNR_CAP).count();
                let good = match_greedy_coarse(recons, originals, 4);
                let bad = worst_seeds(recons, originals);
                for seeds in [&[][..], &good[..], &bad[..]] {
                    for backend in [Backend::Scalar, Backend::detect()] {
                        let got = simd::with_backend(backend, || {
                            best_psnr_per_original_seeded(recons, originals, seeds)
                        });
                        assert_eq!(
                            bits(got),
                            bits(want.clone()),
                            "{backend:?} {count} originals, {} recons, {} seeds",
                            recons.len(),
                            seeds.len()
                        );
                    }
                }
            }
        }
        assert!(capped > 0, "no exact copy reached the cap");
        let originals = pictures(1, 1);
        let far = &structured_pool(&originals, 2)[3];
        assert!(psnr(far, &originals[0]) < 0.0, "no pair has MSE > 1");
    }

    #[test]
    #[should_panic(expected = "overstates")]
    fn an_overstated_seed_panics() {
        let originals = pictures(4, 5);
        let recons = pictures(6, 6);
        let seed = ReconstructionMatch {
            recon_idx: 0,
            original_idx: 2,
            psnr: crate::PSNR_CAP,
        };
        best_psnr_per_original_seeded(&recons, &originals, &[seed]);
    }

    /// The stable-sort greedy `match_greedy` ran before its heaps,
    /// kept verbatim as the oracle.
    fn match_greedy_oracle(recons: &[Image], originals: &[Image]) -> Vec<ReconstructionMatch> {
        let mut pairs = Vec::new();
        for (recon_idx, r) in recons.iter().enumerate() {
            for (original_idx, o) in originals.iter().enumerate() {
                pairs.push(ReconstructionMatch {
                    recon_idx,
                    original_idx,
                    psnr: psnr(r, o),
                });
            }
        }
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

    #[test]
    fn heap_greedy_matches_the_stable_sort_greedy_on_heavy_ties() {
        let key = |ms: Vec<ReconstructionMatch>| {
            ms.into_iter()
                .map(|m| (m.recon_idx, m.original_idx, m.psnr.to_bits()))
                .collect::<Vec<_>>()
        };
        // All-equal images: every pair ties at the cap.
        let same = vec![img(0.5); 7];
        assert_eq!(
            key(match_greedy(&same[..5], &same[..3])),
            key(match_greedy_oracle(&same[..5], &same[..3]))
        );
        // Distinct pairs one level apart tie exactly: levels are
        // multiples of 0.25, so every difference is exact.
        let recons = vec![img(0.0), img(0.5), img(1.0), img(0.25)];
        let originals = vec![img(0.25), img(0.75), img(0.5)];
        assert_eq!(
            key(match_greedy(&recons, &originals)),
            key(match_greedy_oracle(&recons, &originals))
        );
        // Random pools over five levels, per pixel and per image.
        let mut rng = Uniform(12);
        let mut level = || (rng.next() * 5.0).floor() / 4.0;
        for trial in 0..200 {
            let (nr, no) = (trial % 7, trial / 7 % 6);
            let mut pic = |flat: bool| {
                let v = level();
                let data = (0..4).map(|_| if flat { v } else { level() }).collect();
                Image::from_vec(1, 2, 2, data).unwrap()
            };
            let flat = trial % 2 == 0;
            let recons: Vec<Image> = (0..nr).map(|_| pic(flat)).collect();
            let originals: Vec<Image> = (0..no).map(|_| pic(flat)).collect();
            assert_eq!(
                key(match_greedy(&recons, &originals)),
                key(match_greedy_oracle(&recons, &originals)),
                "trial {trial}"
            );
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
