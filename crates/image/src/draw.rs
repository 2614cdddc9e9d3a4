//! Procedural drawing primitives.
//!
//! The synthetic datasets in `oasis-data` compose these primitives to
//! build structured, class-distinctive images (circles, bars, checker
//! patterns, gradients). Structure matters: PSNR-based reconstruction
//! quality is only meaningful when images have recognizable content.

use rand::Rng;

use crate::Image;

/// An RGB color with components in `[0, 1]`.
///
/// For single-channel images only the first component is used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Color(pub f32, pub f32, pub f32);

impl Color {
    /// Grey with the given intensity.
    pub fn grey(v: f32) -> Self {
        Color(v, v, v)
    }

    fn component(&self, c: usize) -> f32 {
        match c {
            0 => self.0,
            1 => self.1,
            _ => self.2,
        }
    }
}

impl Image {
    /// Fills the axis-aligned rectangle `[y0, y1) × [x0, x1)`, clipped
    /// to the frame.
    pub fn fill_rect(&mut self, y0: usize, x0: usize, y1: usize, x1: usize, color: Color) {
        let (c, h, w) = self.dims();
        let x1 = x1.min(w);
        let x0 = x0.min(x1);
        let data = self.data_mut();
        for ch in 0..c {
            let v = color.component(ch);
            for y in y0..y1.min(h) {
                let row = (ch * h + y) * w;
                data[row + x0..row + x1].fill(v);
            }
        }
    }

    /// Fills a disc of radius `r` centered at `(cy, cx)`, clipped.
    pub fn fill_circle(&mut self, cy: f32, cx: f32, r: f32, color: Color) {
        let r2 = r * r;
        self.paint_where(color, |y, x| {
            let dy = y as f32 - cy;
            let dx = x as f32 - cx;
            dy * dy + dx * dx <= r2
        });
    }

    /// Draws a ring (annulus) of inner radius `r0` / outer `r1`.
    pub fn fill_ring(&mut self, cy: f32, cx: f32, r0: f32, r1: f32, color: Color) {
        self.paint_where(color, |y, x| {
            let dy = y as f32 - cy;
            let dx = x as f32 - cx;
            let d2 = dy * dy + dx * dx;
            d2 >= r0 * r0 && d2 <= r1 * r1
        });
    }

    /// Draws a thick line segment from `(y0, x0)` to `(y1, x1)`.
    pub fn draw_line(&mut self, y0: f32, x0: f32, y1: f32, x1: f32, thickness: f32, color: Color) {
        let vy = y1 - y0;
        let vx = x1 - x0;
        let len2 = (vy * vy + vx * vx).max(1e-9);
        let half = thickness / 2.0;
        self.paint_where(color, |y, x| {
            let py = y as f32 - y0;
            let px = x as f32 - x0;
            let t = ((py * vy + px * vx) / len2).clamp(0.0, 1.0);
            let dy = py - t * vy;
            let dx = px - t * vx;
            (dy * dy + dx * dx).sqrt() <= half
        });
    }

    /// Overlays a checkerboard with cells of `cell` pixels, writing
    /// `color` into the "on" cells only.
    pub fn checkerboard(&mut self, cell: usize, color: Color) {
        let cell = cell.max(1);
        self.paint_where(color, |y, x| ((y / cell) + (x / cell)).is_multiple_of(2));
    }

    /// Fills with a linear gradient from `from` to `to` along an angle
    /// given in degrees (0° = left→right). The blend weight `t` is
    /// computed once per pixel and shared by the channels.
    pub fn linear_gradient(&mut self, angle_degrees: f32, from: Color, to: Color) {
        let (c, h, w) = self.dims();
        let theta = angle_degrees.to_radians();
        let (dy, dx) = (theta.sin(), theta.cos());
        let diag = ((h * h + w * w) as f32).sqrt();
        let data = self.data_mut();
        for y in 0..h {
            for x in 0..w {
                let proj = (y as f32 * dy + x as f32 * dx) / diag + 0.5;
                let t = proj.clamp(0.0, 1.0);
                for ch in 0..c {
                    let a = from.component(ch);
                    let b = to.component(ch);
                    data[(ch * h + y) * w + x] = a + (b - a) * t;
                }
            }
        }
    }

    /// Draws parallel stripes of width `stripe` at the given angle.
    pub fn stripes(&mut self, angle_degrees: f32, stripe: usize, color: Color) {
        let theta = angle_degrees.to_radians();
        let (dy, dx) = (theta.sin(), theta.cos());
        let stripe = stripe.max(1) as f32;
        self.paint_where(color, |y, x| {
            let proj = y as f32 * dy + x as f32 * dx;
            (proj / stripe).floor() as i64 % 2 == 0
        });
    }

    /// Adds i.i.d. Gaussian pixel noise with standard deviation `std`,
    /// then clamps to `[0, 1]`.
    ///
    /// Each pixel, in data order, draws its own Box–Muller pair
    /// (`u1 = 1 − U`, then `u2 = U`) and adds the cosine normal
    /// `√(−2 ln u1)·cos(2π·u2)`, evaluated in f64 and cast to f32. The
    /// draws go 128 at a time through the guarded cosine-only kernel of
    /// [`oasis_tensor::for_each_cos_normal`], whose output is
    /// bit-identical to the libm evaluation on every SIMD backend.
    pub fn add_noise(&mut self, std: f32, rng: &mut impl Rng) {
        oasis_tensor::for_each_cos_normal(self.data_mut(), rng, |v, z| {
            *v = (*v + z * std).clamp(0.0, 1.0);
        });
    }

    /// Darkens pixels towards the border (vignette), keeping the
    /// center intact. `strength` in `[0, 1]`. The darkening factor is
    /// computed once per pixel and shared by the channels.
    pub fn vignette(&mut self, strength: f32) {
        let (c, h, w) = self.dims();
        let cy = (h as f32 - 1.0) / 2.0;
        let cx = (w as f32 - 1.0) / 2.0;
        let rmax = (cy * cy + cx * cx).sqrt().max(1e-6);
        let data = self.data_mut();
        for y in 0..h {
            for x in 0..w {
                let dy = y as f32 - cy;
                let dx = x as f32 - cx;
                let r = (dy * dy + dx * dx).sqrt() / rmax;
                let factor = (1.0 - strength * r * r).max(0.0);
                for ch in 0..c {
                    data[(ch * h + y) * w + x] *= factor;
                }
            }
        }
    }

    /// Writes `color` into every pixel where `inside(y, x)` holds. The
    /// predicate runs once per pixel, not once per channel.
    fn paint_where(&mut self, color: Color, mut inside: impl FnMut(usize, usize) -> bool) {
        let (c, h, w) = self.dims();
        let data = self.data_mut();
        for y in 0..h {
            for x in 0..w {
                if inside(y, x) {
                    for ch in 0..c {
                        data[(ch * h + y) * w + x] = color.component(ch);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fill_rect_clips_to_frame() {
        let mut img = Image::new(1, 4, 4);
        img.fill_rect(2, 2, 10, 10, Color::grey(1.0));
        assert_eq!(img.get(0, 3, 3).unwrap(), 1.0);
        assert_eq!(img.get(0, 0, 0).unwrap(), 0.0);
    }

    #[test]
    fn circle_center_is_filled_corner_is_not() {
        let mut img = Image::new(1, 9, 9);
        img.fill_circle(4.0, 4.0, 2.0, Color::grey(1.0));
        assert_eq!(img.get(0, 4, 4).unwrap(), 1.0);
        assert_eq!(img.get(0, 0, 0).unwrap(), 0.0);
    }

    #[test]
    fn ring_excludes_center() {
        let mut img = Image::new(1, 11, 11);
        img.fill_ring(5.0, 5.0, 3.0, 5.0, Color::grey(1.0));
        assert_eq!(img.get(0, 5, 5).unwrap(), 0.0);
        assert_eq!(img.get(0, 5, 9).unwrap(), 1.0);
    }

    #[test]
    fn line_covers_endpoints() {
        let mut img = Image::new(1, 8, 8);
        img.draw_line(1.0, 1.0, 6.0, 6.0, 1.5, Color::grey(1.0));
        assert_eq!(img.get(0, 1, 1).unwrap(), 1.0);
        assert_eq!(img.get(0, 6, 6).unwrap(), 1.0);
        assert_eq!(img.get(0, 0, 7).unwrap(), 0.0);
    }

    #[test]
    fn checkerboard_alternates() {
        let mut img = Image::new(1, 4, 4);
        img.checkerboard(2, Color::grey(1.0));
        assert_eq!(img.get(0, 0, 0).unwrap(), 1.0);
        assert_eq!(img.get(0, 0, 2).unwrap(), 0.0);
        assert_eq!(img.get(0, 2, 2).unwrap(), 1.0);
    }

    #[test]
    fn gradient_monotone_along_axis() {
        let mut img = Image::new(1, 2, 16);
        img.linear_gradient(0.0, Color::grey(0.0), Color::grey(1.0));
        let left = img.get(0, 0, 0).unwrap();
        let right = img.get(0, 0, 15).unwrap();
        assert!(right > left);
    }

    /// The per-pixel libm loop `add_noise` ran before it was batched
    /// through the vector kernel, kept verbatim as its oracle.
    fn add_noise_oracle(img: &mut Image, std: f32, rng: &mut impl Rng) {
        for v in img.data_mut() {
            // Box–Muller using two uniforms.
            let u1: f64 = 1.0 - rng.gen::<f64>();
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            *v = (*v + z as f32 * std).clamp(0.0, 1.0);
        }
    }

    #[test]
    fn add_noise_matches_the_per_pixel_oracle_on_every_backend() {
        use oasis_tensor::simd::{with_backend, Backend};
        // Below, at and around one 128-pair batch, and a 3×32×32 image;
        // std 2.0 saturates the clamp at both ends.
        for len in [0, 1, 127, 128, 129, 3 * 32 * 32] {
            for std in [0.02f32, 2.0] {
                for backend in [Backend::Scalar, Backend::detect()] {
                    let pixels = (0..len).map(|i| (i % 97) as f32 / 96.0).collect();
                    let base = Image::from_vec(1, 1, len, pixels).expect("1×1×len");
                    let mut want = base.clone();
                    let mut rng_want = StdRng::seed_from_u64(len as u64 ^ 0xA5);
                    add_noise_oracle(&mut want, std, &mut rng_want);
                    let mut got = base.clone();
                    let mut rng_got = StdRng::seed_from_u64(len as u64 ^ 0xA5);
                    with_backend(backend, || got.add_noise(std, &mut rng_got));
                    let bits = |img: &Image| img.data().iter().map(|v| v.to_bits()).collect();
                    let (g, w): (Vec<u32>, Vec<u32>) = (bits(&got), bits(&want));
                    assert_eq!(g, w, "len {len} std {std} {}", backend.label());
                    assert_eq!(
                        rng_got.gen::<u64>(),
                        rng_want.gen::<u64>(),
                        "rng state, len {len} std {std} {}",
                        backend.label()
                    );
                }
            }
        }
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let mut a = Image::new(1, 8, 8);
        a.fill(0.5);
        let mut b = a.clone();
        a.add_noise(0.1, &mut StdRng::seed_from_u64(5));
        b.add_noise(0.1, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn noise_keeps_values_in_unit_range() {
        let mut img = Image::new(1, 16, 16);
        img.fill(0.5);
        img.add_noise(2.0, &mut StdRng::seed_from_u64(1));
        assert!(img.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn vignette_darkens_corners_not_center() {
        let mut img = Image::new(1, 9, 9);
        img.fill(1.0);
        img.vignette(0.8);
        assert!(img.get(0, 4, 4).unwrap() > 0.95);
        assert!(img.get(0, 0, 0).unwrap() < 0.5);
    }
}
