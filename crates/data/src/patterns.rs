//! Procedural class patterns.
//!
//! Each class gets a deterministic visual identity derived from the
//! dataset seed; each sample renders that identity with instance-level
//! jitter. Classes are separable (a classifier can learn them) and
//! samples are individually recognizable (an attacker reconstructing
//! one learns something).

use oasis_image::{Color, Image};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What primary shape a class draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShapeKind {
    Disc,
    Ring,
    Square,
    Bars,
    Cross,
    Checker,
}

const SHAPES: [ShapeKind; 6] = [
    ShapeKind::Disc,
    ShapeKind::Ring,
    ShapeKind::Square,
    ShapeKind::Bars,
    ShapeKind::Cross,
    ShapeKind::Checker,
];

/// A deterministic visual identity for one class.
#[derive(Debug, Clone)]
pub struct ClassSpec {
    shape: ShapeKind,
    background_angle: f32,
    bg_from: Color,
    bg_to: Color,
    fg: Color,
    texture_angle: f32,
    texture_on: bool,
}

impl ClassSpec {
    /// Derives the identity of class `class_id` under `dataset_seed`.
    pub fn derive(dataset_seed: u64, class_id: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(
            dataset_seed ^ (class_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let shape = SHAPES[class_id % SHAPES.len()];
        let hue = |rng: &mut StdRng| {
            Color(
                rng.gen_range(0.15..0.95),
                rng.gen_range(0.15..0.95),
                rng.gen_range(0.15..0.95),
            )
        };
        ClassSpec {
            shape,
            background_angle: rng.gen_range(0.0..180.0),
            bg_from: hue(&mut rng),
            bg_to: hue(&mut rng),
            fg: hue(&mut rng),
            texture_angle: rng.gen_range(0.0..180.0),
            texture_on: rng.gen_bool(0.5),
        }
    }

    /// Renders one sample of this class at `h`×`w` with instance
    /// jitter drawn from `rng`.
    pub fn render(&self, h: usize, w: usize, rng: &mut impl Rng) -> Image {
        let mut img = Image::new(3, h, w);
        img.linear_gradient(
            self.background_angle + rng.gen_range(-10.0..10.0),
            self.bg_from,
            self.bg_to,
        );
        if self.texture_on {
            let stripe = (w / 8).max(2);
            let faded = Color(self.fg.0 * 0.5, self.fg.1 * 0.5, self.fg.2 * 0.5);
            img.stripes(self.texture_angle, stripe, faded);
        }

        let cy = h as f32 / 2.0 + rng.gen_range(-0.12..0.12) * h as f32;
        let cx = w as f32 / 2.0 + rng.gen_range(-0.12..0.12) * w as f32;
        let scale = rng.gen_range(0.22..0.34) * h.min(w) as f32;
        match self.shape {
            ShapeKind::Disc => img.fill_circle(cy, cx, scale, self.fg),
            ShapeKind::Ring => img.fill_ring(cy, cx, scale * 0.55, scale, self.fg),
            ShapeKind::Square => {
                let r = scale as usize;
                let y0 = (cy as usize).saturating_sub(r);
                let x0 = (cx as usize).saturating_sub(r);
                img.fill_rect(y0, x0, cy as usize + r, cx as usize + r, self.fg);
            }
            ShapeKind::Bars => {
                // Orientation is sampled per instance so the *population*
                // stays approximately closed under rotation, like photo
                // datasets — a property the augmentation defense relies
                // on (augmented copies must look like ordinary data to
                // the attacker's calibrated neurons).
                let bar_w = (scale / 2.0).max(1.0) as usize;
                let vertical = rng.gen_bool(0.5);
                for k in 0..3 {
                    if k % 2 != 0 {
                        continue;
                    }
                    if vertical {
                        let x0 = (cx as usize).saturating_sub(bar_w * 3 / 2) + k * bar_w + k;
                        let y0 = (cy - scale) as usize;
                        img.fill_rect(y0, x0, (cy + scale) as usize, x0 + bar_w, self.fg);
                    } else {
                        let y0 = (cy as usize).saturating_sub(bar_w * 3 / 2) + k * bar_w + k;
                        let x0 = (cx - scale) as usize;
                        img.fill_rect(y0, x0, y0 + bar_w, (cx + scale) as usize, self.fg);
                    }
                }
            }
            ShapeKind::Cross => {
                let t = (scale / 2.2).max(1.5);
                img.draw_line(cy - scale, cx - scale, cy + scale, cx + scale, t, self.fg);
                img.draw_line(cy - scale, cx + scale, cy + scale, cx - scale, t, self.fg);
            }
            ShapeKind::Checker => {
                let cell = (scale as usize / 2).max(1);
                let mut patch = Image::new(3, h, w);
                patch.checkerboard(cell, self.fg);
                // Copy only the central region of the checker.
                let r = scale as usize;
                let (src, dst) = (patch.data(), img.data_mut());
                for c in 0..3 {
                    for y in (cy as usize).saturating_sub(r)..(cy as usize + r).min(h) {
                        for x in (cx as usize).saturating_sub(r)..(cx as usize + r).min(w) {
                            let i = (c * h + y) * w + x;
                            if src[i] > 0.0 {
                                dst[i] = src[i];
                            }
                        }
                    }
                }
            }
        }

        // Natural-image border statistics: content centered, borders
        // darker — keeps the pixel-mean measurement stable under small
        // rotations (like photographs with background at the edges).
        img.vignette(0.55);

        // Per-image brightness jitter spreads the RTF measurement
        // distribution so the attack's CDF bins are exercised.
        let gain = rng.gen_range(0.65..1.25);
        let mut img = img.map(|v| (v * gain).clamp(0.0, 1.0));
        img.add_noise(0.02, rng);
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic() {
        let a = ClassSpec::derive(7, 3);
        let b = ClassSpec::derive(7, 3);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn different_classes_differ() {
        let a = ClassSpec::derive(7, 0);
        let b = ClassSpec::derive(7, 1);
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn render_is_deterministic_per_rng_seed() {
        let spec = ClassSpec::derive(1, 2);
        let a = spec.render(16, 16, &mut StdRng::seed_from_u64(9));
        let b = spec.render(16, 16, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn render_jitters_between_samples() {
        let spec = ClassSpec::derive(1, 2);
        let mut rng = StdRng::seed_from_u64(9);
        let a = spec.render(16, 16, &mut rng);
        let b = spec.render(16, 16, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn rendered_values_are_unit_range() {
        let spec = ClassSpec::derive(3, 11);
        let img = spec.render(32, 32, &mut StdRng::seed_from_u64(0));
        assert!(img.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn rendered_images_have_structure() {
        // Not flat: per-image std must be well above the noise floor.
        let spec = ClassSpec::derive(5, 4);
        let img = spec.render(32, 32, &mut StdRng::seed_from_u64(1));
        let mean = img.mean();
        let var: f32 = img
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / img.numel() as f32;
        assert!(var.sqrt() > 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn brightness_jitter_spreads_measurements() {
        let spec = ClassSpec::derive(5, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let means: Vec<f32> = (0..50)
            .map(|_| spec.render(32, 32, &mut rng).mean())
            .collect();
        let lo = means.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = means.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!(hi - lo > 0.05, "measurement spread {}", hi - lo);
    }

    #[test]
    fn all_shape_kinds_render() {
        for class in 0..SHAPES.len() {
            let spec = ClassSpec::derive(0, class);
            let img = spec.render(16, 16, &mut StdRng::seed_from_u64(0));
            assert_eq!(img.dims(), (3, 16, 16));
        }
    }
}
