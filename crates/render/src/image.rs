//! RGB image buffers, PSNR/MSE metrics, and PPM output.
//!
//! PSNR between a reference render and a compressed-model render is the
//! image-quality metric of the paper's Fig. 6(b) and Fig. 7.

use std::io::{self, Write};

use spnerf_voxel::digest::Fnv64;

use crate::vec3::Vec3;

/// A float RGB image (components nominally in `[0, 1]`).
///
/// # Examples
///
/// ```
/// use spnerf_render::image::ImageBuffer;
/// use spnerf_render::vec3::Vec3;
///
/// let a = ImageBuffer::filled(8, 8, Vec3::splat(0.5));
/// let b = ImageBuffer::filled(8, 8, Vec3::splat(0.5));
/// assert!(a.psnr(&b).is_infinite()); // identical images
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ImageBuffer {
    width: u32,
    height: u32,
    data: Vec<Vec3>,
}

impl ImageBuffer {
    /// A black image.
    pub fn new(width: u32, height: u32) -> Self {
        Self::filled(width, height, Vec3::ZERO)
    }

    /// An image filled with a constant color.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(width: u32, height: u32, color: Vec3) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        Self { width, height, data: vec![color; width as usize * height as usize] }
    }

    /// Builds an image by evaluating `f(x, y)` per pixel.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> Vec3) -> Self {
        let mut img = Self::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.set(x, y, f(x, y));
            }
        }
        img
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, x: u32, y: u32) -> Vec3 {
        assert!(x < self.width && y < self.height, "pixel ({x},{y}) out of bounds");
        self.data[(y * self.width + x) as usize]
    }

    /// Sets pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, x: u32, y: u32, c: Vec3) {
        assert!(x < self.width && y < self.height, "pixel ({x},{y}) out of bounds");
        self.data[(y * self.width + x) as usize] = c;
    }

    /// All pixels in row-major order.
    pub fn pixels(&self) -> &[Vec3] {
        &self.data
    }

    /// FNV-1a digest of the dimensions plus every pixel's exact bits, so
    /// equal digests mean bitwise-equal images (format it with [`hex`]).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u32(self.width);
        h.write_u32(self.height);
        for p in &self.data {
            h.write_f32(p.x);
            h.write_f32(p.y);
            h.write_f32(p.z);
        }
        h.finish()
    }

    /// Mean squared error against `other` over all channels.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn mse(&self, other: &ImageBuffer) -> f64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "image dimensions differ"
        );
        let mut acc = 0.0f64;
        for (a, b) in self.data.iter().zip(&other.data) {
            let d = *a - *b;
            acc += (d.x as f64).powi(2) + (d.y as f64).powi(2) + (d.z as f64).powi(2);
        }
        acc / (self.data.len() as f64 * 3.0)
    }

    /// Peak signal-to-noise ratio in dB against `other` (peak = 1.0).
    /// Identical images give `+∞`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn psnr(&self, other: &ImageBuffer) -> f64 {
        let mse = self.mse(other);
        if mse == 0.0 {
            f64::INFINITY
        } else {
            -10.0 * mse.log10()
        }
    }

    /// Writes the image as binary PPM (P6), clamping to `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_ppm<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(w, "P6\n{} {}\n255", self.width, self.height)?;
        let mut row = Vec::with_capacity(self.width as usize * 3);
        for y in 0..self.height {
            row.clear();
            for x in 0..self.width {
                let c = self.get(x, y);
                for ch in [c.x, c.y, c.z] {
                    row.push((ch.clamp(0.0, 1.0) * 255.0).round() as u8);
                }
            }
            w.write_all(&row)?;
        }
        Ok(())
    }
}

/// Formats a digest the way reports and golden files store it (`0x` + 16
/// lowercase hex digits).
pub fn hex(digest: u64) -> String {
    format!("{digest:#018x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip() {
        let mut img = ImageBuffer::new(4, 3);
        img.set(2, 1, Vec3::new(0.1, 0.2, 0.3));
        assert_eq!(img.get(2, 1), Vec3::new(0.1, 0.2, 0.3));
        assert_eq!(img.get(0, 0), Vec3::ZERO);
    }

    #[test]
    fn mse_of_known_difference() {
        let a = ImageBuffer::filled(2, 2, Vec3::ZERO);
        let b = ImageBuffer::filled(2, 2, Vec3::splat(0.5));
        assert!((a.mse(&b) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn psnr_of_known_difference() {
        let a = ImageBuffer::filled(2, 2, Vec3::ZERO);
        let b = ImageBuffer::filled(2, 2, Vec3::splat(0.1));
        // mse = 0.01 → psnr = 20 dB.
        assert!((a.psnr(&b) - 20.0).abs() < 1e-6);
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let a = ImageBuffer::filled(3, 3, Vec3::splat(0.7));
        assert!(a.psnr(&a.clone()).is_infinite());
    }

    #[test]
    fn psnr_decreases_with_error() {
        let a = ImageBuffer::filled(2, 2, Vec3::ZERO);
        let small = ImageBuffer::filled(2, 2, Vec3::splat(0.01));
        let big = ImageBuffer::filled(2, 2, Vec3::splat(0.2));
        assert!(a.psnr(&small) > a.psnr(&big));
    }

    #[test]
    fn ppm_header_and_size() {
        let img = ImageBuffer::filled(3, 2, Vec3::splat(1.0));
        let mut buf = Vec::new();
        img.write_ppm(&mut buf).unwrap();
        let header = b"P6\n3 2\n255\n";
        assert_eq!(&buf[..header.len()], header);
        assert_eq!(buf.len(), header.len() + 3 * 2 * 3);
        assert_eq!(*buf.last().unwrap(), 255);
    }

    #[test]
    fn from_fn_coordinates() {
        let img = ImageBuffer::from_fn(4, 4, |x, y| Vec3::new(x as f32, y as f32, 0.0));
        assert_eq!(img.get(3, 1), Vec3::new(3.0, 1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "dimensions differ")]
    fn mse_dimension_mismatch_panics() {
        let a = ImageBuffer::new(2, 2);
        let b = ImageBuffer::new(3, 2);
        let _ = a.mse(&b);
    }
}
