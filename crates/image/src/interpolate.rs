//! Affine warps with bilinear interpolation.
//!
//! Geometric transforms (rotation by arbitrary angles, shear) are
//! implemented by *inverse mapping*: for every output pixel we apply
//! the inverse affine map to find the source location and sample the
//! input bilinearly, using zero padding outside the frame — the same
//! convention as `torchvision.transforms.functional.affine` with
//! `fill=0`, which the paper uses.

use crate::Image;

/// A 2×3 affine map `(y, x) ↦ (a·y + b·x + ty, c·y + d·x + tx)` acting
/// on image coordinates relative to the image center.
///
/// The map is applied as the **inverse** transform during warping, so
/// to rotate an image *by* θ you construct the rotation by −θ … or
/// simply use [`AffineMap::rotation`], which already accounts for
/// this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineMap {
    /// Row-major 2×2 linear part.
    pub linear: [[f32; 2]; 2],
    /// Translation `(dy, dx)` applied after the linear part.
    pub translation: [f32; 2],
}

impl AffineMap {
    /// The identity map.
    pub fn identity() -> Self {
        AffineMap {
            linear: [[1.0, 0.0], [0.0, 1.0]],
            translation: [0.0, 0.0],
        }
    }

    /// Inverse map for a rotation *of the image* by `degrees`
    /// counter-clockwise (paper Eq. 2).
    pub fn rotation(degrees: f32) -> Self {
        // Inverse of rotation by θ is rotation by −θ; build it directly.
        let theta = degrees.to_radians();
        let (sin, cos) = (theta.sin(), theta.cos());
        // Coordinates are (y, x); a CCW rotation in (x, y) maps to this
        // form in (y, x).
        AffineMap {
            linear: [[cos, -sin], [sin, cos]],
            translation: [0.0, 0.0],
        }
    }

    /// Inverse map for a horizontal shear with factor `mu`
    /// (paper Eq. 5: `I'(i, j) = I(i + µj, j)`).
    pub fn shear_x(mu: f32) -> Self {
        AffineMap {
            linear: [[1.0, 0.0], [mu, 1.0]],
            translation: [0.0, 0.0],
        }
    }

    /// Applies the map to center-relative coordinates `(y, x)`.
    pub fn apply(&self, y: f32, x: f32) -> (f32, f32) {
        (
            self.linear[0][0] * y + self.linear[0][1] * x + self.translation[0],
            self.linear[1][0] * y + self.linear[1][1] * x + self.translation[1],
        )
    }
}

/// How out-of-frame samples are filled during a warp.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize, Hash,
)]
pub enum FillMode {
    /// Out-of-frame samples read as 0 (black) — `torchvision`'s
    /// `fill=0` default.
    #[default]
    Zero,
    /// Out-of-frame coordinates are mirrored back into the frame —
    /// `padding_mode="reflection"`. Keeps the warped image's pixel
    /// statistics close to the source's, which matters for the OASIS
    /// defense: statistical drift makes augmented copies behave unlike
    /// calibration data under the attacker's trap neurons.
    Reflect,
}

/// Samples channel `c` of `img` at continuous position `(y, x)` with
/// bilinear interpolation, filling outside the frame as `fill` says.
pub fn bilinear_sample_with(img: &Image, c: usize, y: f32, x: f32, fill: FillMode) -> f32 {
    let (y, x) = match fill {
        FillMode::Zero => (y, x),
        FillMode::Reflect => {
            let (_, h, w) = img.dims();
            (reflect_coord(y, h), reflect_coord(x, w))
        }
    };
    let y0 = y.floor();
    let x0 = x.floor();
    let dy = y - y0;
    let dx = x - x0;
    let (y0, x0) = (y0 as isize, x0 as isize);
    let v00 = img.get_or_zero(c, y0, x0);
    let v01 = img.get_or_zero(c, y0, x0 + 1);
    let v10 = img.get_or_zero(c, y0 + 1, x0);
    let v11 = img.get_or_zero(c, y0 + 1, x0 + 1);
    v00 * (1.0 - dy) * (1.0 - dx) + v01 * (1.0 - dy) * dx + v10 * dy * (1.0 - dx) + v11 * dy * dx
}

/// Mirrors a continuous coordinate into `[0, len-1]` (reflection
/// without edge repetition, period `2·(len−1)`).
fn reflect_coord(v: f32, len: usize) -> f32 {
    if len <= 1 {
        return 0.0;
    }
    let max = (len - 1) as f32;
    let period = 2.0 * max;
    let mut m = v.rem_euclid(period);
    if m > max {
        m = period - m;
    }
    m
}

impl Image {
    /// Warps the image through `map` (interpreted as the inverse
    /// transform around the image center) with bilinear sampling and
    /// the given out-of-frame fill.
    pub fn warp_affine_with(&self, map: &AffineMap, fill: FillMode) -> Image {
        let (c, h, w) = self.dims();
        let cy = (h as f32 - 1.0) / 2.0;
        let cx = (w as f32 - 1.0) / 2.0;
        let mut out = Image::new(c, h, w);
        let dst = out.data_mut();
        for ch in 0..c {
            for oy in 0..h {
                for ox in 0..w {
                    let (sy, sx) = map.apply(oy as f32 - cy, ox as f32 - cx);
                    dst[(ch * h + oy) * w + ox] =
                        bilinear_sample_with(self, ch, sy + cy, sx + cx, fill);
                }
            }
        }
        out
    }

    /// Exact 90°·`quarter_turns` counter-clockwise rotation by pixel
    /// permutation.
    ///
    /// Unlike [`Image::warp_affine_with`], this introduces **no**
    /// interpolation and therefore preserves the pixel-mean measurement
    /// *exactly* — the property that makes major rotation the strongest
    /// transform against the RTF attack (paper §IV-B).
    pub fn rotate90(&self, quarter_turns: u8) -> Image {
        let (c, h, w) = self.dims();
        let turns = quarter_turns % 4;
        if turns == 0 {
            return self.clone();
        }
        let (oh, ow) = if turns == 2 { (h, w) } else { (w, h) };
        let mut out = Image::new(c, oh, ow);
        let (src, dst) = (self.data(), out.data_mut());
        for ch in 0..c {
            for y in 0..h {
                for x in 0..w {
                    // Where source (y, x) lands in the oh×ow output.
                    let (ty, tx) = match turns {
                        1 => (w - 1 - x, y),
                        2 => (h - 1 - y, w - 1 - x),
                        _ => (x, h - 1 - y),
                    };
                    dst[(ch * oh + ty) * ow + tx] = src[(ch * h + y) * w + x];
                }
            }
        }
        out
    }

    /// Horizontal flip (reflection across the vertical axis,
    /// paper Eq. 3). Exact pixel permutation.
    pub fn flip_horizontal(&self) -> Image {
        let (c, h, w) = self.dims();
        let mut out = Image::new(c, h, w);
        let (src, dst) = (self.data(), out.data_mut());
        for ch in 0..c {
            for y in 0..h {
                for x in 0..w {
                    dst[(ch * h + y) * w + w - 1 - x] = src[(ch * h + y) * w + x];
                }
            }
        }
        out
    }

    /// Vertical flip (reflection across the horizontal axis,
    /// paper Eq. 4). Exact pixel permutation.
    pub fn flip_vertical(&self) -> Image {
        let (c, h, w) = self.dims();
        let mut out = Image::new(c, h, w);
        let (src, dst) = (self.data(), out.data_mut());
        for ch in 0..c {
            for y in 0..h {
                let (from, to) = ((ch * h + y) * w, (ch * h + h - 1 - y) * w);
                dst[to..to + w].copy_from_slice(&src[from..from + w]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_image() -> Image {
        let mut img = Image::new(1, 8, 8);
        for y in 0..8 {
            for x in 0..8 {
                img.set(0, y, x, (y * 8 + x) as f32 / 64.0).unwrap();
            }
        }
        img
    }

    #[test]
    fn identity_warp_is_identity() {
        let img = gradient_image();
        let out = img.warp_affine_with(&AffineMap::identity(), FillMode::Zero);
        for (a, b) in img.data().iter().zip(out.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rotate90_preserves_mean_exactly() {
        let img = gradient_image();
        for q in 0..4 {
            assert_eq!(img.rotate90(q).mean(), img.mean(), "quarter turn {q}");
        }
    }

    #[test]
    fn rotate90_four_times_is_identity() {
        let img = gradient_image();
        let r = img.rotate90(1).rotate90(1).rotate90(1).rotate90(1);
        assert_eq!(r, img);
    }

    #[test]
    fn rotate270_is_three_quarter_turns_on_a_non_square_image() {
        let data = (0..2 * 3 * 5).map(|i| i as f32).collect();
        let img = Image::from_vec(2, 3, 5, data).unwrap();
        let three = img.rotate90(1).rotate90(1).rotate90(1);
        assert_eq!(img.rotate90(3), three);
        assert_eq!(img.rotate90(3).rotate90(1), img);
    }

    #[test]
    fn rotate90_twice_equals_rotate180() {
        let img = gradient_image();
        assert_eq!(img.rotate90(1).rotate90(1), img.rotate90(2));
    }

    #[test]
    fn flips_preserve_mean_exactly() {
        let img = gradient_image();
        assert_eq!(img.flip_horizontal().mean(), img.mean());
        assert_eq!(img.flip_vertical().mean(), img.mean());
    }

    #[test]
    fn flips_are_involutions() {
        let img = gradient_image();
        assert_eq!(img.flip_horizontal().flip_horizontal(), img);
        assert_eq!(img.flip_vertical().flip_vertical(), img);
    }

    #[test]
    fn hflip_moves_left_pixel_right() {
        let mut img = Image::new(1, 1, 3);
        img.set(0, 0, 0, 1.0).unwrap();
        let f = img.flip_horizontal();
        assert_eq!(f.get(0, 0, 2).unwrap(), 1.0);
        assert_eq!(f.get(0, 0, 0).unwrap(), 0.0);
    }

    #[test]
    fn warp_rotation_180_close_to_exact() {
        let img = gradient_image();
        let warped = img.warp_affine_with(&AffineMap::rotation(180.0), FillMode::Zero);
        let exact = img.rotate90(2);
        for (a, b) in warped.data().iter().zip(exact.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn shear_zero_is_identity() {
        let img = gradient_image();
        let out = img.warp_affine_with(&AffineMap::shear_x(0.0), FillMode::Zero);
        for (a, b) in img.data().iter().zip(out.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn shear_moves_mass() {
        let img = gradient_image();
        let out = img.warp_affine_with(&AffineMap::shear_x(1.0), FillMode::Zero);
        assert_ne!(out, img);
    }

    #[test]
    fn bilinear_at_integer_coords_is_exact() {
        let img = gradient_image();
        assert_eq!(
            bilinear_sample_with(&img, 0, 3.0, 4.0, FillMode::Zero),
            img.get(0, 3, 4).unwrap()
        );
    }

    #[test]
    fn bilinear_midpoint_averages() {
        let mut img = Image::new(1, 1, 2);
        img.set(0, 0, 0, 0.0).unwrap();
        img.set(0, 0, 1, 1.0).unwrap();
        let v = bilinear_sample_with(&img, 0, 0.0, 0.5, FillMode::Zero);
        assert!((v - 0.5).abs() < 1e-6);
    }

    #[test]
    fn reflect_coord_mirrors() {
        assert_eq!(reflect_coord(-1.0, 8), 1.0);
        assert_eq!(reflect_coord(7.0, 8), 7.0);
        assert_eq!(reflect_coord(8.0, 8), 6.0);
        assert_eq!(reflect_coord(0.0, 8), 0.0);
        assert_eq!(reflect_coord(-0.5, 8), 0.5);
    }

    #[test]
    fn reflect_fill_never_reads_zero_padding() {
        let mut img = Image::new(1, 6, 6);
        img.fill(0.8);
        let rot = img.warp_affine_with(&AffineMap::rotation(30.0), FillMode::Reflect);
        // Every sample comes from inside the uniform image.
        for &v in rot.data() {
            assert!((v - 0.8).abs() < 1e-5, "value {v}");
        }
    }

    #[test]
    fn zero_fill_darkens_rotated_corners() {
        let mut img = Image::new(1, 8, 8);
        img.fill(1.0);
        let rot = img.warp_affine_with(&AffineMap::rotation(45.0), FillMode::Zero);
        assert!(rot.mean() < 0.95);
    }

    #[test]
    fn identity_warp_with_reflect_is_identity() {
        let img = gradient_image();
        let out = img.warp_affine_with(&AffineMap::identity(), FillMode::Reflect);
        for (a, b) in img.data().iter().zip(out.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn minor_rotation_changes_mean_only_slightly_for_centered_content() {
        // Content concentrated centrally (dark border) — rotation only
        // moves dark corners out, so the measurement shifts little.
        let mut img = Image::new(1, 16, 16);
        for y in 4..12 {
            for x in 4..12 {
                img.set(0, y, x, 0.8).unwrap();
            }
        }
        let rot = img.warp_affine_with(&AffineMap::rotation(30.0), FillMode::Zero);
        let delta = (rot.mean() - img.mean()).abs();
        assert!(delta < 0.02, "mean shift {delta}");
    }
}
