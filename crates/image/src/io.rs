//! Binary PPM (P6) writing and figure montages.
//!
//! The visual-reconstruction figures (paper Figures 7–12 and 14) are
//! emitted as PPM files, which every image viewer and converter
//! understands without pulling in an image-codec dependency.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::{Image, ImageError, Result};

/// Writes a 3-channel image as binary PPM (P6).
///
/// # Errors
///
/// Returns an error if the image is not 3-channel or on IO failure.
pub fn write_ppm(path: impl AsRef<Path>, img: &Image) -> Result<()> {
    if img.channels() != 3 {
        return Err(ImageError::ChannelMismatch {
            op: "write_ppm",
            expected: 3,
            actual: img.channels(),
        });
    }
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "P6")?;
    writeln!(w, "{} {}", img.width(), img.height())?;
    writeln!(w, "255")?;
    let mut buf = Vec::with_capacity(img.height() * img.width() * 3);
    for y in 0..img.height() {
        for x in 0..img.width() {
            for c in 0..3 {
                let v = img.get(c, y, x).expect("in bounds");
                buf.push(quantize(v));
            }
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

fn quantize(v: f32) -> u8 {
    (v.clamp(0.0, 1.0) * 255.0).round() as u8
}

/// Lays out images side by side in a grid with `cols` columns and
/// 2-pixel light-grey padding — used for the figure panels.
///
/// # Errors
///
/// Returns an error if `images` is empty or shapes differ.
pub fn montage(images: &[Image], cols: usize) -> Result<Image> {
    let first = images
        .first()
        .ok_or_else(|| ImageError::Format("montage of zero images".into()))?;
    let (c, h, w) = first.dims();
    for img in images {
        if img.dims() != (c, h, w) {
            return Err(ImageError::DimensionMismatch {
                op: "montage",
                lhs: (c, h, w),
                rhs: img.dims(),
            });
        }
    }
    const PAD: usize = 2;
    let cols = cols.max(1);
    let rows = images.len().div_ceil(cols);
    let out_h = rows * h + (rows + 1) * PAD;
    let out_w = cols * w + (cols + 1) * PAD;
    let mut out = Image::new(c, out_h, out_w);
    out.fill(0.85);
    let dst = out.data_mut();
    for (idx, img) in images.iter().enumerate() {
        let gy = idx / cols;
        let gx = idx % cols;
        let oy = PAD + gy * (h + PAD);
        let ox = PAD + gx * (w + PAD);
        let src = img.data();
        for ch in 0..c {
            for y in 0..h {
                let to = (ch * out_h + oy + y) * out_w + ox;
                let from = (ch * h + y) * w;
                for (o, &v) in dst[to..to + w].iter_mut().zip(&src[from..from + w]) {
                    *o = v.clamp(0.0, 1.0);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oasis_image_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn write_ppm_emits_header_then_quantized_rgb() {
        let mut img = Image::new(3, 2, 3);
        for y in 0..2 {
            for x in 0..3 {
                for c in 0..3 {
                    img.set(c, y, x, ((y * 3 + x + c) % 7) as f32 / 7.0)
                        .unwrap();
                }
            }
        }
        img.set(0, 0, 0, -0.5).unwrap();
        img.set(2, 1, 2, 1.5).unwrap();
        let p = temp_path("exact.ppm");
        write_ppm(&p, &img).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::remove_file(&p).ok();
        // Header, then interleaved RGB in row-major order, each value
        // clamped to [0, 1] and rounded to k/255.
        let mut expected = b"P6\n3 2\n255\n".to_vec();
        expected.extend_from_slice(&[
            0, 36, 73, 36, 73, 109, 73, 109, 146, //
            109, 146, 182, 146, 182, 219, 182, 219, 255,
        ]);
        assert_eq!(bytes, expected);
    }

    #[test]
    fn write_ppm_rejects_grayscale() {
        let img = Image::new(1, 2, 2);
        let p = temp_path("bad.ppm");
        assert!(write_ppm(&p, &img).is_err());
    }

    #[test]
    fn montage_dimensions() {
        let imgs = vec![Image::new(3, 8, 8); 5];
        let m = montage(&imgs, 3).unwrap();
        // 2 rows, 3 cols, pad 2: h = 2*8+3*2 = 22, w = 3*8+4*2 = 32.
        assert_eq!(m.dims(), (3, 22, 32));
    }

    #[test]
    fn montage_rejects_empty() {
        assert!(montage(&[], 2).is_err());
    }

    #[test]
    fn quantize_clamps() {
        assert_eq!(quantize(-1.0), 0);
        assert_eq!(quantize(2.0), 255);
        assert_eq!(quantize(0.5), 128);
    }
}
