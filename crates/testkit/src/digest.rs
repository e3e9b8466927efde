//! Stable FNV-1a digests of every artifact the conformance suite snapshots.
//!
//! The hasher is [`Fnv64`], re-exported from `spnerf_voxel::digest`;
//! [`digest_image`] and [`hex`] are the render crate's
//! [`ImageBuffer::digest`] and `spnerf_render::image::hex`. They stay
//! reachable here so golden tests keep one import path.
//!
//! Golden files store one 64-bit digest per artifact instead of the raw
//! bytes: small enough to check in, exact enough that a single flipped
//! mantissa bit anywhere in an image, grid, or workload changes the value.
//! Floats are hashed by their IEEE-754 bit patterns, so a digest match is a
//! bitwise-equality statement, not a tolerance.

use spnerf_accel::frame::FrameWorkload;
use spnerf_render::image::ImageBuffer;
use spnerf_render::renderer::RenderStats;
use spnerf_voxel::bitmap::Bitmap;
use spnerf_voxel::grid::DenseGrid;
use spnerf_voxel::kmeans::Codebook;

pub use spnerf_render::image::hex;
pub use spnerf_voxel::digest::Fnv64;

/// Digest of a rendered image: dimensions plus every pixel's exact bits
/// ([`ImageBuffer::digest`]).
pub fn digest_image(img: &ImageBuffer) -> u64 {
    img.digest()
}

/// Digest of a dense grid: dimensions, densities, features.
pub fn digest_grid(grid: &DenseGrid) -> u64 {
    let mut h = Fnv64::new();
    let d = grid.dims();
    h.write_u32(d.nx);
    h.write_u32(d.ny);
    h.write_u32(d.nz);
    for v in grid.density_raw() {
        h.write_f32(*v);
    }
    for v in grid.features_raw() {
        h.write_f32(*v);
    }
    h.finish()
}

/// Digest of render statistics.
pub fn digest_stats(stats: &RenderStats) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(stats.rays);
    h.write_usize(stats.samples_marched);
    h.write_usize(stats.samples_shaded);
    h.write_usize(stats.rays_terminated_early);
    h.write_usize(stats.samples_skipped);
    h.write_usize(stats.pixels_shaded);
    h.write_usize(stats.rays_warped);
    h.write_usize(stats.rays_remarched);
    h.finish()
}

/// Digest of a frame workload (scene label included).
pub fn digest_workload(w: &FrameWorkload) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&w.scene);
    h.write_usize(w.rays);
    h.write_usize(w.samples_marched);
    h.write_usize(w.samples_shaded);
    h.write_usize(w.samples_skipped);
    h.write_usize(w.pixels_shaded);
    h.write_usize(w.rays_warped);
    h.write_usize(w.rays_remarched);
    h.write_usize(w.model_bytes);
    h.write_usize(w.format_bytes);
    h.finish()
}

/// Digest of an occupancy bitmap (dimensions plus the bit at every voxel,
/// read through the public accessor so the packing layout stays opaque).
pub fn digest_bitmap(bitmap: &Bitmap) -> u64 {
    let mut h = Fnv64::new();
    let d = bitmap.dims();
    h.write_u32(d.nx);
    h.write_u32(d.ny);
    h.write_u32(d.nz);
    let mut word = 0u64;
    let mut fill = 0u32;
    for c in d.iter() {
        word |= (bitmap.get(c) as u64) << fill;
        fill += 1;
        if fill == 64 {
            h.write_u64(word);
            word = 0;
            fill = 0;
        }
    }
    if fill > 0 {
        h.write_u64(word);
    }
    h.finish()
}

/// Digest of a trained codebook: entry count plus every centroid's bits.
pub fn digest_codebook(cb: &Codebook) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(cb.len());
    for i in 0..cb.len() {
        for v in cb.centroid(i) {
            h.write_f32(*v);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnerf_render::vec3::Vec3;
    use spnerf_voxel::coord::{GridCoord, GridDims};

    #[test]
    fn hex_format_is_stable() {
        assert_eq!(hex(0xaf63_dc4c_8601_ec8c), "0xaf63dc4c8601ec8c");
        assert_eq!(hex(5), "0x0000000000000005");
    }

    #[test]
    fn image_digest_sees_single_pixel_changes() {
        let a = ImageBuffer::filled(4, 4, Vec3::splat(0.5));
        let mut b = a.clone();
        assert_eq!(digest_image(&a), digest_image(&b));
        b.set(3, 2, Vec3::new(0.5, 0.5, 0.5000001));
        assert_ne!(digest_image(&a), digest_image(&b));
    }

    #[test]
    fn grid_digest_sees_density_and_feature_changes() {
        let mut g = DenseGrid::zeros(GridDims::cube(4));
        let base = digest_grid(&g);
        g.set_density(GridCoord::new(1, 2, 3), 0.25);
        let with_density = digest_grid(&g);
        assert_ne!(base, with_density);
        g.set_features(GridCoord::new(1, 2, 3), &[0.1; 12]);
        assert_ne!(with_density, digest_grid(&g));
    }

    #[test]
    fn bitmap_digest_distinguishes_positions() {
        let dims = GridDims::cube(8);
        let mut a = Bitmap::zeros(dims);
        let mut b = Bitmap::zeros(dims);
        a.set(GridCoord::new(0, 0, 0), true);
        b.set(GridCoord::new(7, 7, 7), true);
        assert_ne!(digest_bitmap(&a), digest_bitmap(&b));
        assert_eq!(digest_bitmap(&a), digest_bitmap(&a.clone()));
    }

    #[test]
    fn stats_and_workload_digests_cover_every_field() {
        let s =
            RenderStats { rays: 1, samples_marched: 2, samples_shaded: 3, ..Default::default() };
        let mut s2 = s;
        s2.rays_terminated_early = 1;
        assert_ne!(digest_stats(&s), digest_stats(&s2));
        let mut s3 = s;
        s3.samples_skipped = 9;
        assert_ne!(digest_stats(&s), digest_stats(&s3));
        let mut s4 = s;
        s4.pixels_shaded = 1;
        assert_ne!(digest_stats(&s), digest_stats(&s4));
        let mut s5 = s;
        s5.rays_warped = 4;
        assert_ne!(digest_stats(&s), digest_stats(&s5));
        let mut s6 = s;
        s6.rays_remarched = 4;
        assert_ne!(digest_stats(&s), digest_stats(&s6));

        let w = FrameWorkload {
            scene: "x".into(),
            rays: 10,
            samples_marched: 20,
            samples_shaded: 5,
            samples_skipped: 0,
            pixels_shaded: 0,
            rays_warped: 0,
            rays_remarched: 0,
            model_bytes: 1000,
            format_bytes: 0,
        };
        let mut w2 = w.clone();
        w2.scene = "y".into();
        assert_ne!(digest_workload(&w), digest_workload(&w2));
        let mut w3 = w.clone();
        w3.pixels_shaded = 7;
        assert_ne!(digest_workload(&w), digest_workload(&w3));
        let mut w4 = w.clone();
        w4.format_bytes = 64;
        assert_ne!(digest_workload(&w), digest_workload(&w4));
        let mut w5 = w.clone();
        w5.rays_warped = 8;
        assert_ne!(digest_workload(&w), digest_workload(&w5));
        let mut w6 = w.clone();
        w6.rays_remarched = 8;
        assert_ne!(digest_workload(&w), digest_workload(&w6));
    }
}
