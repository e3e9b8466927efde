//! Baked scene representation for deferred (SNeRG-style) rendering.
//!
//! A [`BakedGrid`] stores, per occupied voxel vertex, the *precomputed*
//! outputs of the color pipeline instead of the raw learned features:
//!
//! * the volume **density** (copied verbatim from the source grid, so the
//!   baked support, marching behaviour, and empty-space skipping are
//!   identical to the source's),
//! * a **diffuse RGB** color — the full color MLP evaluated once per voxel
//!   at a canonical view direction during the bake pass,
//! * a compact [`SPEC_DIM`]-channel **specular feature** vector that the
//!   renderer accumulates along each ray and feeds to a small
//!   view-dependence MLP *once per pixel* (deferred shading).
//!
//! The baked payload is packed into the existing [`FEATURE_DIM`]-channel
//! voxel layout (diffuse RGB in channels `0..3`, specular features in
//! channels `3..FEATURE_DIM`), so every downstream consumer — trilinear
//! interpolation, support bitmaps, occupancy pyramids — works on a baked
//! grid unchanged.
//!
//! Baking is a pure function of the source grid and the MLP; the
//! [`BakedGrid::digest`] fingerprint pins that determinism (bake twice ⇒
//! identical digest).

use crate::coord::{GridCoord, GridDims};
use crate::digest::Fnv64;
use crate::grid::{DenseGrid, FEATURE_DIM};

/// Number of channels in the diffuse RGB part of the baked payload.
pub const DIFFUSE_DIM: usize = 3;

/// Number of channels in the compact specular-feature vector accumulated
/// along each ray for the deferred view-dependence MLP.
pub const SPEC_DIM: usize = FEATURE_DIM - DIFFUSE_DIM;

/// A voxel grid holding baked diffuse color, density, and specular
/// features, produced by a deterministic bake pass over a voxel source and
/// a color MLP.
///
/// # Examples
///
/// ```
/// use spnerf_voxel::baked::{BakedGrid, SPEC_DIM};
/// use spnerf_voxel::coord::{GridCoord, GridDims};
///
/// let mut baked = BakedGrid::zeros(GridDims::cube(8));
/// baked.set_voxel(GridCoord::new(1, 2, 3), 0.5, [0.9, 0.1, 0.2], [0.25; SPEC_DIM]);
/// assert_eq!(baked.diffuse(GridCoord::new(1, 2, 3)), [0.9, 0.1, 0.2]);
/// assert_eq!(baked.occupied_count(), 1);
/// let before = baked.digest();
/// assert_eq!(before, baked.digest(), "digest is a pure function of contents");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BakedGrid {
    grid: DenseGrid,
}

impl BakedGrid {
    /// An all-empty baked grid of the given dimensions.
    pub fn zeros(dims: GridDims) -> Self {
        Self { grid: DenseGrid::zeros(dims) }
    }

    /// Grid dimensions.
    pub fn dims(&self) -> GridDims {
        self.grid.dims()
    }

    /// Writes one baked voxel: density, diffuse RGB, and specular features.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn set_voxel(
        &mut self,
        c: GridCoord,
        density: f32,
        diffuse: [f32; DIFFUSE_DIM],
        spec: [f32; SPEC_DIM],
    ) {
        self.grid.set_density(c, density);
        let mut packed = [0.0f32; FEATURE_DIM];
        packed[..DIFFUSE_DIM].copy_from_slice(&diffuse);
        packed[DIFFUSE_DIM..].copy_from_slice(&spec);
        self.grid.set_features(c, &packed);
    }

    /// Density at `c` (copied from the bake source).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn density(&self, c: GridCoord) -> f32 {
        self.grid.density(c)
    }

    /// Baked diffuse RGB at `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn diffuse(&self, c: GridCoord) -> [f32; DIFFUSE_DIM] {
        let f = self.grid.features(c);
        [f[0], f[1], f[2]]
    }

    /// Specular feature vector at `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn spec(&self, c: GridCoord) -> [f32; SPEC_DIM] {
        let mut out = [0.0f32; SPEC_DIM];
        out.copy_from_slice(&self.grid.features(c)[DIFFUSE_DIM..]);
        out
    }

    /// Number of occupied vertices (identical to the bake source's, since
    /// densities are copied verbatim).
    pub fn occupied_count(&self) -> usize {
        self.grid.occupied_count()
    }

    /// The packed channel view: a [`DenseGrid`] whose features hold
    /// `[diffuse RGB | specular]`. This is what the renderer interpolates.
    pub fn as_grid(&self) -> &DenseGrid {
        &self.grid
    }

    /// Bytes an in-memory copy of the baked payload occupies (density plane
    /// plus packed channels, `f32`).
    pub fn baked_bytes_f32(&self) -> usize {
        self.grid.restored_bytes_f32()
    }

    /// FNV-1a fingerprint of the full grid contents (dimensions, density
    /// bits, packed channel bits). Equal grids — e.g. two runs of the same
    /// bake pass — produce equal digests, bit for bit.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        let dims = self.grid.dims();
        for v in [dims.nx, dims.ny, dims.nz] {
            h.write_u64(v as u64);
        }
        for d in self.grid.density_raw() {
            h.write_u64(d.to_bits() as u64);
        }
        for f in self.grid.features_raw() {
            h.write_u64(f.to_bits() as u64);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BakedGrid {
        let mut b = BakedGrid::zeros(GridDims::cube(4));
        b.set_voxel(GridCoord::new(0, 0, 0), 1.0, [0.5, 0.25, 0.125], [0.1; SPEC_DIM]);
        b.set_voxel(GridCoord::new(1, 2, 3), 0.75, [0.0, 1.0, 0.0], [-0.2; SPEC_DIM]);
        b
    }

    #[test]
    fn payload_round_trips_through_the_packed_layout() {
        let b = sample();
        let c = GridCoord::new(1, 2, 3);
        assert_eq!(b.density(c), 0.75);
        assert_eq!(b.diffuse(c), [0.0, 1.0, 0.0]);
        assert_eq!(b.spec(c), [-0.2; SPEC_DIM]);
        // The packed view interleaves diffuse then specular.
        let packed = b.as_grid().features(c);
        assert_eq!(&packed[..DIFFUSE_DIM], &[0.0, 1.0, 0.0]);
        assert_eq!(&packed[DIFFUSE_DIM..], &[-0.2; SPEC_DIM]);
    }

    #[test]
    fn occupancy_counts_positive_density() {
        assert_eq!(sample().occupied_count(), 2);
        assert_eq!(BakedGrid::zeros(GridDims::cube(3)).occupied_count(), 0);
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let a = sample();
        let b = sample();
        assert_eq!(a.digest(), b.digest(), "equal grids must hash equal");
        let mut c = sample();
        c.set_voxel(GridCoord::new(3, 3, 3), 0.1, [0.0; 3], [0.0; SPEC_DIM]);
        assert_ne!(a.digest(), c.digest(), "content change must move the digest");
        let d = BakedGrid::zeros(GridDims::cube(5));
        let e = BakedGrid::zeros(GridDims::cube(6));
        assert_ne!(d.digest(), e.digest(), "dimensions are part of the digest");
    }

    #[test]
    fn spec_dim_fills_the_packed_layout() {
        assert_eq!(DIFFUSE_DIM + SPEC_DIM, FEATURE_DIM);
    }
}
