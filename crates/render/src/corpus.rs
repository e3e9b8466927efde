//! The procedural scenario corpus: deterministic voxel grids spanning the
//! sparsity/structure space.
//!
//! The eight Synthetic-NeRF stand-ins in [`crate::scene`] all share
//! one shape family (thin SDF surface shells at 2–6.5 % occupancy). SpNeRF's
//! sparsity-dependent paths — bitmap pruning, hash-table load, GID/HMU
//! behaviour, DRAM locality — need workloads *outside* that band too, so
//! this module synthesizes five archetypes:
//!
//! | archetype | structure | default occupancy |
//! |---|---|---|
//! | [`Archetype::DenseBlob`] | one solid ball (dense interior) | 20 % |
//! | [`Archetype::Clusters`] | several separated object blobs | 6 % |
//! | [`Archetype::ThinShell`] | a hollow spherical surface | 4 % |
//! | [`Archetype::EmptySpace`] | tiny specks in a mostly empty grid | 0.5 % |
//! | [`Archetype::NoiseField`] | spatially incoherent salt-and-pepper | 10 % |
//!
//! Every grid is a pure function of its [`CorpusSpec`] (archetype, side,
//! occupancy, seed): generation is hash-based, uses no RNG state, and the
//! occupancy target is met **exactly** (rank-based selection, like the
//! scene builder's quantile thresholding).

use spnerf_voxel::coord::GridDims;
use spnerf_voxel::grid::{DenseGrid, FEATURE_DIM};

use crate::scene::unit_hash3;
use crate::vec3::Vec3;

/// One of the five corpus scene shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Archetype {
    /// A single solid ball: the dense-interior extreme (worst case for
    /// bitmap pruning, best case for spatial locality).
    DenseBlob,
    /// Several separated blobs: multi-object scenes with cluster-local
    /// coherence.
    Clusters,
    /// A hollow spherical shell: surface-only occupancy like trained NeRF
    /// grids, but with a single closed surface.
    ThinShell,
    /// A handful of tiny specks in an otherwise empty grid: the
    /// empty-space-heavy extreme where masking removes almost everything.
    EmptySpace,
    /// Spatially incoherent noise: no structure for locality or pruning to
    /// exploit — the adversarial operating point.
    NoiseField,
}

impl Archetype {
    /// All five archetypes, in corpus order.
    pub const ALL: [Archetype; 5] = [
        Archetype::DenseBlob,
        Archetype::Clusters,
        Archetype::ThinShell,
        Archetype::EmptySpace,
        Archetype::NoiseField,
    ];

    /// Kebab-case name, used for golden-file names and labels.
    pub const fn name(self) -> &'static str {
        match self {
            Archetype::DenseBlob => "dense-blob",
            Archetype::Clusters => "clusters",
            Archetype::ThinShell => "thin-shell",
            Archetype::EmptySpace => "empty-space",
            Archetype::NoiseField => "noise-field",
        }
    }

    /// The occupancy the archetype is designed around (the corpus spans
    /// 0.5 % – 20 %, bracketing the paper's 2.01 % – 6.48 % band).
    pub const fn default_occupancy(self) -> f64 {
        match self {
            Archetype::DenseBlob => 0.20,
            Archetype::Clusters => 0.06,
            Archetype::ThinShell => 0.04,
            Archetype::EmptySpace => 0.005,
            Archetype::NoiseField => 0.10,
        }
    }
}

impl std::fmt::Display for Archetype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full parameterization of one corpus grid. [`generate`] is a pure
/// function of this value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusSpec {
    /// The scene shape.
    pub archetype: Archetype,
    /// Cubic grid side (≥ 4).
    pub side: u32,
    /// Exact fraction of occupied voxels in `(0, 1]`.
    pub occupancy: f64,
    /// Seed for all hash-derived placement, densities and features.
    pub seed: u64,
}

impl CorpusSpec {
    /// A spec with every knob explicit.
    pub fn new(archetype: Archetype, side: u32, occupancy: f64, seed: u64) -> Self {
        Self { archetype, side, occupancy, seed }
    }

    /// The archetype at its designed occupancy.
    pub fn archetype_default(archetype: Archetype, side: u32, seed: u64) -> Self {
        Self::new(archetype, side, archetype.default_occupancy(), seed)
    }

    /// A stable human-readable label (also the pipeline scene label).
    pub fn label(&self) -> String {
        format!("{}-s{}-o{:.4}-x{}", self.archetype.name(), self.side, self.occupancy, self.seed)
    }
}

/// Grid side the quick corpus uses (small enough for debug-mode CI, large
/// enough that every archetype has recognizable structure).
pub const QUICK_SIDE: u32 = 24;

/// Base seed of the default corpus (each archetype offsets it by its index).
pub const CORPUS_SEED: u64 = 0xC0FFEE;

/// An iterator over corpus specs, one per archetype.
///
/// # Examples
///
/// ```
/// use spnerf_render::corpus::{generate, Corpus};
/// for spec in Corpus::quick() {
///     let grid = generate(&spec);
///     assert!(grid.occupied_count() > 0, "{}", spec.label());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Corpus {
    specs: std::vec::IntoIter<CorpusSpec>,
}

impl Corpus {
    /// The default conformance corpus: all five archetypes at
    /// [`QUICK_SIDE`], designed occupancies, seeds `CORPUS_SEED + index`.
    /// This is what the golden suite and the CI `conformance` job run.
    pub fn quick() -> Self {
        Self::with_side(QUICK_SIDE)
    }

    /// The same five archetypes at an arbitrary grid side.
    pub fn with_side(side: u32) -> Self {
        let specs: Vec<CorpusSpec> = Archetype::ALL
            .iter()
            .enumerate()
            .map(|(i, a)| CorpusSpec::archetype_default(*a, side, CORPUS_SEED + i as u64))
            .collect();
        Self { specs: specs.into_iter() }
    }
}

impl Iterator for Corpus {
    type Item = CorpusSpec;

    fn next(&mut self) -> Option<CorpusSpec> {
        self.specs.next()
    }
}

/// Generates the grid a spec describes. Deterministic: equal specs give
/// equal grids, bit for bit, and exactly
/// `round(side³ · occupancy).clamp(1, side³)` voxels are occupied.
///
/// # Panics
///
/// Panics if `side < 4` or `occupancy` is outside `(0, 1]`.
pub fn generate(spec: &CorpusSpec) -> DenseGrid {
    assert!(spec.side >= 4, "corpus grid side must be at least 4");
    assert!(
        spec.occupancy > 0.0 && spec.occupancy <= 1.0,
        "occupancy must be in (0, 1], got {}",
        spec.occupancy
    );
    let dims = GridDims::cube(spec.side);
    let n = dims.len();

    // Per-voxel placement score (higher = occupied first). A tiny hash
    // jitter breaks the ties flat analytic fields would otherwise produce.
    let mut score = vec![0.0f32; n];
    for (i, c) in dims.iter().enumerate() {
        let p = voxel_world(c.x, c.y, c.z, spec.side);
        let s = archetype_score(spec.archetype, p, spec.seed);
        score[i] =
            s + 1e-4 * (unit_hash3(c.x.into(), c.y.into(), c.z.into(), spec.seed ^ 0x7e17) - 0.5);
    }

    // Rank-based selection: exactly k voxels, descending score, index
    // tiebreak (the same exactness trick as the scene builder).
    let k = (((n as f64) * spec.occupancy).round() as usize).clamp(1, n);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.select_nth_unstable_by(k - 1, |a, b| {
        score[*b as usize]
            .partial_cmp(&score[*a as usize])
            .expect("scores are finite")
            .then(a.cmp(b))
    });

    let mut grid = DenseGrid::zeros(dims);
    for &i in &order[..k] {
        let c = dims.coord_of(i as usize);
        let p = voxel_world(c.x, c.y, c.z, spec.side);
        let density =
            0.15 + 0.85 * unit_hash3(c.x.into(), c.y.into(), c.z.into(), spec.seed ^ 0xd5);
        grid.set_density(c, density);
        grid.set_features(c, &feature_vector(spec, c.x, c.y, c.z, p));
    }
    grid
}

/// Voxel center in the `[-1, 1]³` world frame (matches the scene builder's
/// vertex convention).
fn voxel_world(x: u32, y: u32, z: u32, side: u32) -> Vec3 {
    let s = (side - 1).max(1) as f32;
    Vec3::new(x as f32 / s * 2.0 - 1.0, y as f32 / s * 2.0 - 1.0, z as f32 / s * 2.0 - 1.0)
}

/// The placement field of each archetype (higher score = occupied first).
fn archetype_score(a: Archetype, p: Vec3, seed: u64) -> f32 {
    match a {
        // Solid ball around a seed-jittered center: nearest voxels win.
        Archetype::DenseBlob => {
            let c = seeded_point(seed, 0, 0.2);
            -(p - c).length()
        }
        // 3–5 blobs: distance to the nearest center, each with its own
        // radius so the clusters differ in size.
        Archetype::Clusters => {
            let count = 3 + (seed % 3) as usize;
            let mut best = f32::NEG_INFINITY;
            for i in 0..count {
                let c = seeded_point(seed, i as u64 + 1, 0.6);
                let r = 0.15 + 0.20 * unit_hash3(i as u64, 77, 13, seed);
                best = best.max(-(p - c).length() / r);
            }
            best
        }
        // Hollow shell: closeness to the radius-0.62 sphere surface.
        Archetype::ThinShell => {
            let c = seeded_point(seed, 0, 0.1);
            -((p - c).length() - 0.62).abs()
        }
        // Two distant specks; with a tiny occupancy target only their
        // immediate neighbourhoods survive selection.
        Archetype::EmptySpace => {
            let a0 = seeded_point(seed, 0, 0.7);
            let a1 = seeded_point(seed, 1, 0.7);
            (-(p - a0).length()).max(-(p - a1).length())
        }
        // Pure white noise over integer voxel coordinates — evaluated in
        // the caller via the jitter path would be too weak, so the score
        // itself is the hash (no spatial coherence at all).
        Archetype::NoiseField => {
            let q = (p + Vec3::ONE) * 512.0;
            unit_hash3(q.x as u32 as u64, q.y as u32 as u64, q.z as u32 as u64, seed)
        }
    }
}

/// A deterministic point in `[-extent, extent]³` derived from the seed.
fn seeded_point(seed: u64, salt: u64, extent: f32) -> Vec3 {
    let h = |axis: u32| (unit_hash3(axis.into(), salt, 0x5eed, seed) * 2.0 - 1.0) * extent;
    Vec3::new(h(1), h(2), h(3))
}

/// Twelve feature channels: smooth positional waves plus incompressible
/// per-voxel hash detail, so vector quantization sees both structure and a
/// realistic error floor (mirroring the scene builder's design).
fn feature_vector(spec: &CorpusSpec, x: u32, y: u32, z: u32, p: Vec3) -> [f32; FEATURE_DIM] {
    let mut f = [0.0f32; FEATURE_DIM];
    for (j, slot) in f.iter_mut().enumerate() {
        let a = 1.3 + j as f32 * 0.7;
        let b = 0.9 + j as f32 * 0.4;
        let c = 2.1 - j as f32 * 0.3;
        let smooth = 0.35 * (a * p.x + b * p.y + c * p.z).sin();
        let detail =
            0.9 * (unit_hash3(x.into(), y.into(), z.into(), spec.seed ^ (j as u64 * 0x9e37)) - 0.5);
        *slot = smooth + detail;
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnerf_voxel::coord::GridCoord;

    #[test]
    fn generation_is_deterministic() {
        for spec in Corpus::quick() {
            let a = generate(&spec);
            let b = generate(&spec);
            assert_eq!(a, b, "{} must be a pure function of its spec", spec.label());
        }
    }

    #[test]
    fn occupancy_is_exact() {
        for spec in Corpus::quick() {
            let g = generate(&spec);
            let n = g.dims().len() as f64;
            let expect = ((n * spec.occupancy).round() as usize).clamp(1, g.dims().len());
            assert_eq!(g.occupied_count(), expect, "{}", spec.label());
        }
    }

    #[test]
    fn occupancy_extremes_work() {
        for occ in [0.01, 0.5, 0.9] {
            let spec = CorpusSpec::new(Archetype::NoiseField, 10, occ, 3);
            let g = generate(&spec);
            let expect = ((1000.0 * occ).round() as usize).clamp(1, 1000);
            assert_eq!(g.occupied_count(), expect);
        }
    }

    #[test]
    fn seeds_change_the_grid() {
        let a = generate(&CorpusSpec::new(Archetype::Clusters, 16, 0.06, 1));
        let b = generate(&CorpusSpec::new(Archetype::Clusters, 16, 0.06, 2));
        assert_ne!(a, b, "different seeds must move the clusters");
    }

    #[test]
    fn archetypes_have_distinct_structure() {
        // Same side/occupancy/seed, different archetype ⇒ different support.
        let mk = |a| generate(&CorpusSpec::new(a, 20, 0.05, 9));
        let grids: Vec<DenseGrid> = Archetype::ALL.iter().map(|a| mk(*a)).collect();
        for i in 0..grids.len() {
            for j in i + 1..grids.len() {
                assert_ne!(
                    grids[i],
                    grids[j],
                    "{} and {} collapsed to the same grid",
                    Archetype::ALL[i],
                    Archetype::ALL[j]
                );
            }
        }
    }

    #[test]
    fn dense_blob_is_spatially_coherent_and_noise_is_not() {
        // Count occupied voxels with an occupied +x neighbour, normalized.
        let coherence = |g: &DenseGrid| {
            let dims = g.dims();
            let mut pairs = 0usize;
            let mut occ = 0usize;
            for c in dims.iter() {
                if !g.is_occupied(c) {
                    continue;
                }
                occ += 1;
                let nb = GridCoord::new(c.x + 1, c.y, c.z);
                if dims.contains(nb) && g.is_occupied(nb) {
                    pairs += 1;
                }
            }
            pairs as f64 / occ.max(1) as f64
        };
        let blob = generate(&CorpusSpec::new(Archetype::DenseBlob, 24, 0.10, 4));
        let noise = generate(&CorpusSpec::new(Archetype::NoiseField, 24, 0.10, 4));
        let cb = coherence(&blob);
        let cn = coherence(&noise);
        assert!(cb > 0.8, "blob coherence {cb:.2} too low");
        assert!(cn < 0.3, "noise coherence {cn:.2} too high");
    }

    #[test]
    fn labels_are_distinct_and_stable() {
        let labels: Vec<String> = Corpus::quick().map(|s| s.label()).collect();
        let set: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
        assert_eq!(labels[0], "dense-blob-s24-o0.2000-x12648430");
    }

    #[test]
    fn densities_and_features_are_finite_and_bounded() {
        for spec in Corpus::quick() {
            let g = generate(&spec);
            for p in g.extract_nonzero() {
                assert!(p.density > 0.0 && p.density <= 1.0);
                assert!(p.features.iter().all(|f| f.is_finite() && f.abs() <= 1.0));
            }
        }
    }

    #[test]
    #[should_panic(expected = "occupancy")]
    fn zero_occupancy_rejected() {
        let _ = generate(&CorpusSpec::new(Archetype::DenseBlob, 8, 0.0, 0));
    }
}
