//! Packed 1-bit-per-voxel occupancy bitmap.
//!
//! The bitmap is the structure behind SpNeRF's *bitmap masking*: during
//! online decoding every hash-table hit is filtered through the bitmap so
//! that collisions landing on empty voxels are forced back to zero
//! (Section III-B of the paper). It is also what the accelerator's Bitmap
//! Lookup Unit (BLU) stores on chip.

use crate::coord::{GridCoord, GridDims};
use crate::grid::DenseGrid;

/// A packed occupancy bitmap with one bit per voxel vertex.
///
/// # Examples
///
/// ```
/// use spnerf_voxel::bitmap::Bitmap;
/// use spnerf_voxel::coord::{GridCoord, GridDims};
///
/// let mut b = Bitmap::zeros(GridDims::cube(16));
/// b.set(GridCoord::new(3, 4, 5), true);
/// assert!(b.get(GridCoord::new(3, 4, 5)));
/// assert_eq!(b.count_ones(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    dims: GridDims,
    words: Vec<u64>,
}

impl Bitmap {
    /// An all-zero bitmap for a grid of the given dimensions.
    pub fn zeros(dims: GridDims) -> Self {
        let nwords = dims.len().div_ceil(64);
        Self { dims, words: vec![0; nwords] }
    }

    /// Builds the occupancy bitmap of a dense grid (bit = density > 0).
    pub fn from_grid(grid: &DenseGrid) -> Self {
        let mut b = Self::zeros(grid.dims());
        for (i, d) in grid.density_raw().iter().enumerate() {
            if *d > 0.0 {
                b.set_index(i, true);
            }
        }
        b
    }

    /// Grid dimensions this bitmap covers.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Bit at coordinate `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn get(&self, c: GridCoord) -> bool {
        let i = self
            .dims
            .linear_index(c)
            .unwrap_or_else(|| panic!("coordinate {c} out of bounds for bitmap {}", self.dims));
        self.get_index(i)
    }

    /// Bit at coordinate `c`, or `false` when `c` is out of bounds.
    ///
    /// Out-of-grid vertices are by definition empty; the hardware BLU behaves
    /// the same way (addresses outside the subgrid bit mask read as zero).
    pub fn get_clamped(&self, c: GridCoord) -> bool {
        match self.dims.linear_index(c) {
            Some(i) => self.get_index(i),
            None => false,
        }
    }

    /// The 8 corner bits of the interpolation cell whose lower corner is
    /// `base`: bit `k` is the bit of corner `k` in
    /// [`GridCoord::cell_corners`] order, and corners outside the grid read
    /// as zero (like [`Bitmap::get_clamped`]).
    ///
    /// This is the Bitmap Lookup Unit's view of a cell — one read tells
    /// whether any of the 8 vertices can hold data. In-bounds cells index
    /// the packed words directly from the base's linear index.
    ///
    /// # Examples
    ///
    /// ```
    /// use spnerf_voxel::bitmap::Bitmap;
    /// use spnerf_voxel::coord::{GridCoord, GridDims};
    ///
    /// let mut b = Bitmap::zeros(GridDims::cube(4));
    /// b.set(GridCoord::new(2, 1, 1), true); // corner 1 of the cell at (1, 1, 1)
    /// assert_eq!(b.cell_mask(GridCoord::new(1, 1, 1)), 0b0000_0010);
    /// assert_eq!(b.cell_mask(GridCoord::new(0, 0, 0)), 0);
    /// ```
    pub fn cell_mask(&self, base: GridCoord) -> u8 {
        let dims = self.dims;
        if !dims.cell_in_bounds(base) {
            return base
                .cell_corners()
                .iter()
                .enumerate()
                .fold(0, |m, (k, c)| m | (u8::from(self.get_clamped(*c)) << k));
        }
        // x-major strides; +z is the adjacent bit.
        let sy = dims.nz as usize;
        let sx = dims.ny as usize * sy;
        let i = dims.linear_index_unchecked(base);
        let bit = |j: usize| ((self.words[j / 64] >> (j % 64)) & 1) as u8;
        bit(i)
            | bit(i + sx) << 1
            | bit(i + sy) << 2
            | bit(i + sx + sy) << 3
            | bit(i + 1) << 4
            | bit(i + sx + 1) << 5
            | bit(i + sy + 1) << 6
            | bit(i + sx + sy + 1) << 7
    }

    /// Sets the bit at coordinate `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn set(&mut self, c: GridCoord, v: bool) {
        let i = self
            .dims
            .linear_index(c)
            .unwrap_or_else(|| panic!("coordinate {c} out of bounds for bitmap {}", self.dims));
        self.set_index(i, v);
    }

    /// Bit at linear index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dims.len()`.
    pub fn get_index(&self, i: usize) -> bool {
        assert!(i < self.dims.len(), "bit index {i} out of bounds");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the bit at linear index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dims.len()`.
    pub fn set_index(&mut self, i: usize, v: bool) {
        assert!(i < self.dims.len(), "bit index {i} out of bounds");
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits (occupied voxels).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of bits (total voxels).
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// Whether the bitmap covers zero voxels (never true for constructed
    /// dims).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// On-chip/off-chip storage footprint: one bit per voxel, rounded up to
    /// whole 64-bit words — the memory-efficiency claim of Section III-B.
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Raw packed words (little-endian bit order within each word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_mask_matches_per_corner_reads() {
        let dims = GridDims::new(5, 4, 3);
        let mut b = Bitmap::zeros(dims);
        for (i, c) in dims.iter().enumerate() {
            if (i * 7 + i / 3) % 5 < 2 {
                b.set(c, true);
            }
        }
        // Every base, including the last layer on each axis, whose cells
        // reach outside the grid and must read those corners as zero.
        for base in dims.iter() {
            let expect = base
                .cell_corners()
                .iter()
                .enumerate()
                .fold(0u8, |m, (k, c)| m | (u8::from(b.get_clamped(*c)) << k));
            assert_eq!(b.cell_mask(base), expect, "cell at {base}");
        }
        let full = {
            let mut f = Bitmap::zeros(dims);
            dims.iter().for_each(|c| f.set(c, true));
            f
        };
        assert_eq!(full.cell_mask(GridCoord::new(1, 1, 1)), 0xFF);
        assert_eq!(full.cell_mask(GridCoord::new(4, 3, 2)), 0b0000_0001);
    }

    #[test]
    fn set_get_round_trip() {
        let mut b = Bitmap::zeros(GridDims::new(5, 7, 9));
        let c = GridCoord::new(4, 6, 8);
        assert!(!b.get(c));
        b.set(c, true);
        assert!(b.get(c));
        b.set(c, false);
        assert!(!b.get(c));
    }

    #[test]
    fn count_ones_tracks_sets() {
        let mut b = Bitmap::zeros(GridDims::cube(8));
        for i in 0..100 {
            b.set_index(i * 5 % b.len(), true);
        }
        let expect = (0..100).map(|i| i * 5 % 512).collect::<std::collections::HashSet<_>>();
        assert_eq!(b.count_ones(), expect.len());
    }

    #[test]
    fn from_grid_matches_occupancy() {
        let mut g = DenseGrid::zeros(GridDims::cube(6));
        g.set_density(GridCoord::new(1, 1, 1), 0.7);
        g.set_density(GridCoord::new(5, 5, 5), 0.1);
        g.set_density(GridCoord::new(2, 2, 2), -0.5); // empty
        let b = Bitmap::from_grid(&g);
        assert_eq!(b.count_ones(), 2);
        assert!(b.get(GridCoord::new(1, 1, 1)));
        assert!(!b.get(GridCoord::new(2, 2, 2)));
    }

    #[test]
    fn clamped_reads_false_outside() {
        let b = Bitmap::zeros(GridDims::cube(4));
        assert!(!b.get_clamped(GridCoord::new(100, 0, 0)));
    }

    #[test]
    fn storage_is_one_bit_per_voxel() {
        let b = Bitmap::zeros(GridDims::cube(160));
        // 160^3 bits = 512 KB exactly (the figure quoted for a 160-cube grid).
        assert_eq!(b.storage_bytes(), 160 * 160 * 160 / 8);
    }

    #[test]
    fn word_boundary_bits() {
        let mut b = Bitmap::zeros(GridDims::new(1, 1, 130));
        b.set_index(63, true);
        b.set_index(64, true);
        b.set_index(129, true);
        assert!(b.get_index(63) && b.get_index(64) && b.get_index(129));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_get_panics() {
        let b = Bitmap::zeros(GridDims::cube(2));
        let _ = b.get(GridCoord::new(2, 0, 0));
    }
}
