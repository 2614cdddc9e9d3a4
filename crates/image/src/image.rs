//! The CHW `f32` image container.

use oasis_tensor::{simd, Tensor, TensorError};
use std::fmt;

use crate::{ImageError, Result};

/// A dense `f32` image in CHW (channel-major) layout.
///
/// Pixel values are nominally in `[0, 1]`; transforms that produce
/// out-of-range values should call [`Image::clamp01`] before the image
/// is consumed by training or PSNR code.
///
/// An image is a [`Tensor`] of dims `[channels, height, width]`, so it
/// is one heap allocation and its clones share their pixels,
/// copy-on-write, as tensors do: `clone` bumps a reference count, and
/// the first write through a shared image ([`Image::set`],
/// [`Image::data_mut`] or anything built on them) copies the buffer
/// once, so the other clones never see it. A dataset, its client
/// partitions and the batches drawn from them therefore hold each
/// sample's pixels once. Each write call checks whether the buffer is
/// shared, so a loop that writes pixel by pixel takes one
/// `data_mut()` slice before the loop instead of calling `set` per
/// pixel. Equality compares pixel values, not buffers.
///
/// ```
/// use oasis_image::Image;
///
/// # fn main() -> Result<(), oasis_image::ImageError> {
/// let mut img = Image::new(1, 2, 2);
/// img.set(0, 1, 1, 0.75)?;
/// assert_eq!(img.get(0, 1, 1)?, 0.75);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Image {
    /// The pixels, dims `[channels, height, width]`.
    pixels: Tensor,
}

impl Image {
    /// Creates a black (all-zero) image.
    ///
    /// # Panics
    ///
    /// Panics if `channels * height * width` overflows `usize`.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        Image {
            pixels: Tensor::zeros(&[channels, height, width]),
        }
    }

    /// Creates an image from a CHW buffer, copying it once into the
    /// image's own.
    ///
    /// # Errors
    ///
    /// As [`Image::from_tensor`].
    pub fn from_vec(channels: usize, height: usize, width: usize, data: Vec<f32>) -> Result<Self> {
        Self::from_tensor(channels, height, width, Tensor::from_slice(&data))
    }

    /// The image of the given dims over `pixels`' values in CHW order,
    /// sharing its buffer: nothing is copied.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::TooLarge`] if `channels * height * width`
    /// overflows `usize`, and [`ImageError::LengthMismatch`] if
    /// `pixels` does not hold that many values.
    pub fn from_tensor(
        channels: usize,
        height: usize,
        width: usize,
        pixels: Tensor,
    ) -> Result<Self> {
        match pixels.reshape(&[channels, height, width]) {
            Ok(pixels) => Ok(Image { pixels }),
            Err(TensorError::LengthMismatch { len, expected }) => {
                Err(ImageError::LengthMismatch { len, expected })
            }
            // The only other error of a rank-3 reshape.
            Err(_) => Err(ImageError::TooLarge {
                dims: (channels, height, width),
            }),
        }
    }

    /// `(channels, height, width)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        let dims = self.pixels.dims();
        (dims[0], dims[1], dims[2])
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.dims().0
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.dims().1
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.dims().2
    }

    /// Total number of scalar elements.
    pub fn numel(&self) -> usize {
        self.pixels.numel()
    }

    /// The flat CHW buffer.
    pub fn data(&self) -> &[f32] {
        self.pixels.data()
    }

    /// Mutable access to the flat CHW buffer. Copies the buffer first
    /// if another clone shares it, so call it once outside a loop.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.pixels.data_mut()
    }

    /// Reads the pixel at `(channel, y, x)`.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::OutOfRange`] on out-of-bounds access.
    pub fn get(&self, channel: usize, y: usize, x: usize) -> Result<f32> {
        Ok(self.data()[self.offset(channel, y, x)?])
    }

    /// Writes the pixel at `(channel, y, x)`.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::OutOfRange`] on out-of-bounds access.
    pub fn set(&mut self, channel: usize, y: usize, x: usize, value: f32) -> Result<()> {
        let off = self.offset(channel, y, x)?;
        self.data_mut()[off] = value;
        Ok(())
    }

    /// Unchecked pixel read used by hot interpolation loops.
    ///
    /// Returns `0.0` outside the image bounds (zero padding), which is
    /// the fill convention for all geometric transforms (paper Eq. 2–5
    /// with the usual implementation fill).
    pub fn get_or_zero(&self, channel: usize, y: isize, x: isize) -> f32 {
        let (c, h, w) = self.dims();
        if channel >= c || y < 0 || x < 0 || y as usize >= h || x as usize >= w {
            return 0.0;
        }
        self.data()[(channel * h + y as usize) * w + x as usize]
    }

    fn offset(&self, channel: usize, y: usize, x: usize) -> Result<usize> {
        let (c, h, w) = self.dims();
        for (index, bound) in [(channel, c), (y, h), (x, w)] {
            if index >= bound {
                return Err(ImageError::OutOfRange { index, bound });
            }
        }
        Ok((channel * h + y) * w + x)
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f32) {
        self.data_mut().fill(value);
    }

    /// Mean over all channels and pixels — the scalar "measurement"
    /// the RTF attack bins on (paper §IV-B). Accumulated in f64 so the
    /// measurement is stable to well below an RTF bin width.
    pub fn mean(&self) -> f32 {
        let data = self.data();
        if data.is_empty() {
            return 0.0;
        }
        (data.iter().map(|&v| v as f64).sum::<f64>() / data.len() as f64) as f32
    }

    /// Applies `f` to every element, returning a new image built in
    /// one pass into its own buffer.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Image {
        Image {
            pixels: self.pixels.map(f),
        }
    }

    /// Clamps all values into `[0, 1]`.
    pub fn clamp01(&self) -> Image {
        self.map(|v| v.clamp(0.0, 1.0))
    }

    /// [`Image::clamp01`] without the copy.
    pub fn clamp01_in_place(&mut self) {
        self.data_mut()
            .iter_mut()
            .for_each(|v| *v = v.clamp(0.0, 1.0));
    }

    /// Pixel-wise average of several same-shape images — the "linear
    /// combination" visualization used in the paper's Figures 7–12.
    ///
    /// # Errors
    ///
    /// Returns an error if `images` is empty or shapes differ.
    pub fn blend(images: &[Image]) -> Result<Image> {
        let first = images
            .first()
            .ok_or(ImageError::Format("blend of zero images".into()))?;
        let (c, h, w) = first.dims();
        let mut out = Image::new(c, h, w);
        let acc = out.data_mut();
        for img in images {
            if img.dims() != first.dims() {
                return Err(ImageError::DimensionMismatch {
                    op: "blend",
                    lhs: first.dims(),
                    rhs: img.dims(),
                });
            }
            for (o, &v) in acc.iter_mut().zip(img.data()) {
                *o += v;
            }
        }
        let k = images.len() as f32;
        acc.iter_mut().for_each(|v| *v /= k);
        Ok(out)
    }

    /// Box-filter downsampling to `out_h × out_w` (used to cheapen
    /// large all-pairs PSNR matching; reconstruction scoring still
    /// happens at full resolution).
    ///
    /// Each output pixel is its box's sum, added in (y, x) order from
    /// 0.0, divided by the box's pixel count. When `out_w` is a
    /// multiple of 8 that divides `w`, every box is equally wide and
    /// eight boxes at a time run on [`simd::box_sums8`], which keeps
    /// that order bit for bit; other shapes run the per-box loop.
    ///
    /// # Panics
    ///
    /// Panics if either target dimension is zero.
    pub fn downsample(&self, out_h: usize, out_w: usize) -> Image {
        assert!(out_h > 0 && out_w > 0, "target dims must be positive");
        let (c, h, w) = self.dims();
        if out_h >= h && out_w >= w {
            return self.clone();
        }
        let mut out = Image::new(c, out_h, out_w);
        let data = self.data();
        if data.is_empty() {
            return out;
        }
        let dst_data = out.data_mut();
        let y_box = |oy: usize| {
            let y0 = oy * h / out_h;
            (y0, (((oy + 1) * h).div_ceil(out_h)).min(h).max(y0 + 1))
        };
        if out_w.is_multiple_of(8) && w.is_multiple_of(out_w) {
            // Equal-width boxes: eight at a time, every channel's
            // boxes of one output row in one call.
            let bw = w / out_w;
            let mut sums = vec![[0.0f32; 8]; c];
            for oy in 0..out_h {
                let (y0, y1) = y_box(oy);
                let count = ((y1 - y0) * bw) as f32;
                for g in 0..out_w / 8 {
                    let src = &data[y0 * w + g * 8 * bw..];
                    simd::box_sums8(src, h * w, w, y1 - y0, bw, &mut sums);
                    for (ch, boxes) in sums.iter().enumerate() {
                        let dst = &mut dst_data[(ch * out_h + oy) * out_w + g * 8..][..8];
                        for (o, &a) in dst.iter_mut().zip(boxes) {
                            *o = a / count;
                        }
                    }
                }
            }
            return out;
        }
        let x_boxes: Vec<(usize, usize)> = (0..out_w)
            .map(|ox| {
                let x0 = ox * w / out_w;
                (x0, (((ox + 1) * w).div_ceil(out_w)).min(w).max(x0 + 1))
            })
            .collect();
        let mut acc = vec![0.0f32; out_w];
        let mut out_rows = dst_data.chunks_exact_mut(out_w);
        for plane in data.chunks_exact(h * w) {
            for oy in 0..out_h {
                let (y0, y1) = y_box(oy);
                // One source row at a time across every box of this
                // output row: each box still sums in (y, x) order, and
                // the boxes' independent sums overlap.
                acc.fill(0.0);
                for row in plane[y0 * w..y1 * w].chunks_exact(w) {
                    for (a, &(x0, x1)) in acc.iter_mut().zip(&x_boxes) {
                        for &v in &row[x0..x1] {
                            *a += v;
                        }
                    }
                }
                let out_row = out_rows.next().expect("one output row per box row");
                for ((o, &a), &(x0, x1)) in out_row.iter_mut().zip(&acc).zip(&x_boxes) {
                    *o = a / ((y1 - y0) * (x1 - x0)) as f32;
                }
            }
        }
        out
    }

    /// Extracts a single channel as a new 1-channel image.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::OutOfRange`] if `channel` is out of bounds.
    pub fn channel(&self, channel: usize) -> Result<Image> {
        let (c, h, w) = self.dims();
        if channel >= c {
            return Err(ImageError::OutOfRange {
                index: channel,
                bound: c,
            });
        }
        let plane = Tensor::from_slice(&self.data()[channel * h * w..(channel + 1) * h * w]);
        Self::from_tensor(1, h, w, plane)
    }
}

impl fmt::Debug for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (c, h, w) = self.dims();
        write!(f, "Image({c}×{h}×{w}, mean={:.4})", self.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Image::from_vec(3, 2, 2, vec![0.0; 11]).is_err());
        assert!(Image::from_vec(3, 2, 2, vec![0.0; 12]).is_ok());
    }

    #[test]
    fn dimension_overflow_is_an_error_not_an_empty_image() {
        // c·h·w wraps to 0, which an unchecked product would accept
        // for an empty buffer.
        let half = 1usize << (usize::BITS / 2);
        assert!(matches!(
            Image::from_vec(half, half, 1, vec![]),
            Err(ImageError::TooLarge {
                dims: (h, w, 1)
            }) if h == half && w == half
        ));
        assert!(Image::from_vec(usize::MAX, 2, 1, vec![]).is_err());
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn new_panics_on_dimension_overflow() {
        let half = 1usize << (usize::BITS / 2);
        Image::new(half, half, 1);
    }

    #[test]
    fn clones_share_pixels_until_one_writes() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Image>();

        let mut img = Image::from_vec(1, 2, 2, vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let own = img.data().as_ptr();
        img.set(0, 0, 0, 0.5).unwrap();
        assert_eq!(img.data().as_ptr(), own, "an unshared write copies nothing");

        let mut copy = img.clone();
        assert_eq!(copy.data().as_ptr(), own);
        assert_eq!(copy, img);
        copy.data_mut()[3] = 0.9;
        assert_ne!(copy.data().as_ptr(), own);
        assert_eq!(img.data(), &[0.5, 0.2, 0.3, 0.4]);
        assert_eq!(copy.data(), &[0.5, 0.2, 0.3, 0.9]);

        // Equality compares values, not buffers.
        let twin = Image::from_vec(1, 2, 2, vec![0.5, 0.2, 0.3, 0.4]).unwrap();
        assert_eq!(twin, img);
        assert_ne!(twin.data().as_ptr(), img.data().as_ptr());
    }

    #[test]
    fn get_set_round_trip() {
        let mut img = Image::new(2, 3, 4);
        img.set(1, 2, 3, 0.5).unwrap();
        assert_eq!(img.get(1, 2, 3).unwrap(), 0.5);
        assert!(img.get(2, 0, 0).is_err());
        assert!(img.get(0, 3, 0).is_err());
        assert!(img.get(0, 0, 4).is_err());
    }

    #[test]
    fn get_or_zero_pads_outside() {
        let mut img = Image::new(1, 2, 2);
        img.fill(1.0);
        assert_eq!(img.get_or_zero(0, -1, 0), 0.0);
        assert_eq!(img.get_or_zero(0, 0, 2), 0.0);
        assert_eq!(img.get_or_zero(0, 1, 1), 1.0);
    }

    #[test]
    fn mean_is_arithmetic_mean() {
        let img = Image::from_vec(1, 1, 4, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        assert_eq!(img.mean(), 0.5);
    }

    #[test]
    fn blend_averages() {
        let a = Image::from_vec(1, 1, 2, vec![0.0, 1.0]).unwrap();
        let b = Image::from_vec(1, 1, 2, vec![1.0, 0.0]).unwrap();
        let m = Image::blend(&[a, b]).unwrap();
        assert_eq!(m.data(), &[0.5, 0.5]);
    }

    #[test]
    fn blend_rejects_mixed_dims() {
        let a = Image::new(1, 2, 2);
        let b = Image::new(1, 2, 3);
        assert!(Image::blend(&[a, b]).is_err());
    }

    #[test]
    fn clamp01_bounds() {
        let img = Image::from_vec(1, 1, 3, vec![-0.5, 0.5, 1.5]).unwrap();
        assert_eq!(img.clamp01().data(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn downsample_preserves_mean_of_uniform() {
        let mut img = Image::new(1, 8, 8);
        img.fill(0.4);
        let d = img.downsample(4, 4);
        assert_eq!(d.dims(), (1, 4, 4));
        assert!(d.data().iter().all(|&v| (v - 0.4).abs() < 1e-6));
    }

    #[test]
    fn downsample_box_averages() {
        let mut img = Image::new(1, 2, 2);
        img.set(0, 0, 0, 1.0).unwrap();
        let d = img.downsample(1, 1);
        assert!((d.get(0, 0, 0).unwrap() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn downsample_matches_the_per_pixel_box_sum_bit_for_bit() {
        // The reference reads one pixel at a time and sums each box in
        // (y, x) order; uneven boxes cover the overlap rules. Widths
        // with `ow` a multiple of 8 dividing `w` take the equal-width
        // kernel: box widths 4 and 8 (vector), 3 (its scalar
        // fallback), two groups of eight, one to five channels (a
        // full interleave of four plus one) and uneven box heights.
        use oasis_tensor::simd::{self, Backend};
        for (c, h, w, oh, ow) in [
            (3, 32, 32, 8, 8),
            (2, 13, 11, 4, 5),
            (1, 7, 9, 7, 2),
            (3, 64, 64, 8, 8),
            (5, 13, 24, 8, 8),
            (1, 10, 64, 3, 16),
            (4, 9, 32, 9, 8),
        ] {
            let data = (0..c * h * w).map(|i| (i as f32 * 0.37).sin()).collect();
            let img = Image::from_vec(c, h, w, data).unwrap();
            let d = img.downsample(oh, ow);
            for backend in [Backend::Scalar, Backend::detect()] {
                let again = simd::with_backend(backend, || img.downsample(oh, ow));
                let bits = |i: &Image| i.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&again),
                    bits(&d),
                    "{backend:?} {c}×{h}×{w} → {oh}×{ow}"
                );
            }
            for ch in 0..c {
                for oy in 0..oh {
                    let (y0, y1) = (
                        oy * h / oh,
                        ((oy + 1) * h).div_ceil(oh).min(h).max(oy * h / oh + 1),
                    );
                    for ox in 0..ow {
                        let (x0, x1) = (
                            ox * w / ow,
                            ((ox + 1) * w).div_ceil(ow).min(w).max(ox * w / ow + 1),
                        );
                        let mut acc = 0.0f32;
                        for y in y0..y1 {
                            for x in x0..x1 {
                                acc += img.get(ch, y, x).unwrap();
                            }
                        }
                        let want = acc / ((y1 - y0) * (x1 - x0)) as f32;
                        assert_eq!(d.get(ch, oy, ox).unwrap().to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn clamp01_in_place_matches_clamp01() {
        let mut img = Image::from_vec(1, 1, 5, vec![-0.5, 0.0, 0.5, 1.5, f32::NAN]).unwrap();
        let copy = img.clamp01();
        img.clamp01_in_place();
        let bits = |i: &Image| i.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&img), bits(&copy));
    }

    #[test]
    fn downsample_no_op_when_target_larger() {
        let img = Image::new(1, 4, 4);
        assert_eq!(img.downsample(8, 8), img);
    }

    #[test]
    fn channel_extraction() {
        let img = Image::from_vec(2, 1, 2, vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let c1 = img.channel(1).unwrap();
        assert_eq!(c1.data(), &[0.3, 0.4]);
        assert!(img.channel(2).is_err());
    }
}
