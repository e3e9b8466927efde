//! Procedural Synthetic-NeRF-like scenes.
//!
//! The paper evaluates on the eight Synthetic-NeRF scenes (chair, drums,
//! ficus, hotdog, lego, materials, mic, ship). Trained VQRF checkpoints are
//! not available offline, so this module synthesizes voxel grids with the
//! same *statistical* properties instead:
//!
//! * geometry is a signed-distance composition per scene (seat+legs for
//!   chair, hull+masts+water for ship, …), so occupied voxels form thin
//!   surface shells with realistic spatial coherence;
//! * per-scene occupancy is **calibrated by quantile thresholding** to the
//!   paper's Fig. 2(b) sparsity band (2.01 % – 6.48 % non-zero);
//! * color features are smooth functions of position and surface normal, so
//!   vector quantization and hash-collision errors behave like they do on
//!   real data.
//!
//! See DESIGN.md §2 for the substitution argument.

use spnerf_voxel::coord::GridDims;
use spnerf_voxel::grid::{DenseGrid, FEATURE_DIM};

use crate::camera::{orbit_poses, PinholeCamera};
use crate::ray::Aabb;
use crate::vec3::Vec3;

/// The eight Synthetic-NeRF scene identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SceneId {
    /// A chair: seat, back rest and four legs.
    Chair,
    /// A drum kit: shells, cymbals and stands.
    Drums,
    /// A potted ficus: trunk and foliage blobs (the 2nd-sparsest scene).
    Ficus,
    /// A hotdog on a plate (dense: large plate surface).
    Hotdog,
    /// A lego bulldozer: blocky body, blade and tracks.
    Lego,
    /// An array of material test spheres.
    Materials,
    /// A studio microphone (the sparsest scene, 2.01 % non-zero).
    Mic,
    /// A sailing ship on water (the densest scene, 6.48 % non-zero).
    Ship,
}

impl SceneId {
    /// All eight scenes in the paper's order.
    pub const fn all() -> [SceneId; 8] {
        [
            SceneId::Chair,
            SceneId::Drums,
            SceneId::Ficus,
            SceneId::Hotdog,
            SceneId::Lego,
            SceneId::Materials,
            SceneId::Mic,
            SceneId::Ship,
        ]
    }

    /// Lower-case scene name as used in dataset directories.
    pub const fn name(self) -> &'static str {
        match self {
            SceneId::Chair => "chair",
            SceneId::Drums => "drums",
            SceneId::Ficus => "ficus",
            SceneId::Hotdog => "hotdog",
            SceneId::Lego => "lego",
            SceneId::Materials => "materials",
            SceneId::Mic => "mic",
            SceneId::Ship => "ship",
        }
    }

    /// Calibration spec for this scene.
    pub const fn spec(self) -> SceneSpec {
        match self {
            SceneId::Chair => SceneSpec::new(self, 144, 0.0320, [0.72, 0.52, 0.34], 11),
            SceneId::Drums => SceneSpec::new(self, 152, 0.0410, [0.75, 0.22, 0.24], 12),
            SceneId::Ficus => SceneSpec::new(self, 136, 0.0250, [0.28, 0.62, 0.30], 13),
            SceneId::Hotdog => SceneSpec::new(self, 156, 0.0530, [0.80, 0.56, 0.30], 14),
            SceneId::Lego => SceneSpec::new(self, 148, 0.0480, [0.90, 0.75, 0.20], 15),
            SceneId::Materials => SceneSpec::new(self, 144, 0.0360, [0.55, 0.58, 0.66], 16),
            SceneId::Mic => SceneSpec::new(self, 128, 0.0201, [0.70, 0.70, 0.72], 17),
            SceneId::Ship => SceneSpec::new(self, 160, 0.0648, [0.46, 0.36, 0.28], 18),
        }
    }
}

impl std::fmt::Display for SceneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-scene calibration parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneSpec {
    /// Scene identity.
    pub id: SceneId,
    /// Grid side length the figure harnesses use (paper-scale resolution).
    pub paper_grid_side: u32,
    /// Target fraction of occupied voxels (Fig. 2(b) band).
    pub target_occupancy: f64,
    /// Base albedo of the palette.
    pub base_color: [f32; 3],
    /// Deterministic noise seed.
    pub seed: u64,
}

impl SceneSpec {
    const fn new(
        id: SceneId,
        paper_grid_side: u32,
        target_occupancy: f64,
        base_color: [f32; 3],
        seed: u64,
    ) -> Self {
        Self { id, paper_grid_side, target_occupancy, base_color, seed }
    }
}

/// The world-space bounding box every scene occupies: `[-1, 1]³`.
pub fn scene_aabb() -> Aabb {
    Aabb::centered(1.0)
}

/// Builds the scene's voxel grid at the paper-scale resolution.
pub fn build_paper_grid(id: SceneId) -> DenseGrid {
    build_grid(id, id.spec().paper_grid_side)
}

/// Builds the scene's voxel grid at an arbitrary cubic resolution.
///
/// Occupancy is calibrated to the scene's target by quantile thresholding of
/// the |SDF| field, so even small test grids land near the paper's sparsity.
///
/// # Panics
///
/// Panics if `side < 8`.
pub fn build_grid(id: SceneId, side: u32) -> DenseGrid {
    assert!(side >= 8, "grid side must be at least 8");
    let spec = id.spec();
    let dims = GridDims::cube(side);
    let n = dims.len();

    // Evaluate the scene's |SDF| at every vertex.
    let mut field = vec![0.0f32; n];
    for (i, c) in dims.iter().enumerate() {
        let p = vertex_world(c.x, c.y, c.z, side);
        field[i] = scene_sdf(id, p).abs();
    }

    // Rank-based occupancy: exactly k vertices are occupied. A pure
    // threshold would over-count on flat primitives (box/plane SDFs produce
    // many tied distances); ranking with an index tiebreak is exact.
    let k = ((n as f64) * spec.target_occupancy).round().max(1.0) as usize;
    let k = k.min(n);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.select_nth_unstable_by(k - 1, |a, b| {
        field[*a as usize]
            .partial_cmp(&field[*b as usize])
            .expect("SDF values are finite")
            .then(a.cmp(b))
    });
    let tau = field[order[k - 1] as usize].max(1e-6);

    let mut grid = DenseGrid::zeros(dims);
    for &i in &order[..k] {
        let c = dims.coord_of(i as usize);
        let d = field[i as usize];
        let p = vertex_world(c.x, c.y, c.z, side);
        // Density peaks on the surface and fades towards the shell edge.
        let density = 0.05 + 0.95 * (1.0 - d / tau).max(0.0);
        grid.set_density(c, density);
        grid.set_features(c, &feature_vector(id, &spec, p, tau));
    }
    grid
}

/// A default orbit camera for rendering the scene.
pub fn default_camera(
    width: u32,
    height: u32,
    pose_index: usize,
    pose_count: usize,
) -> PinholeCamera {
    let poses = orbit_poses(pose_count.max(1), Vec3::ZERO, 2.8, 0.45);
    let pose = poses[pose_index % poses.len()];
    PinholeCamera {
        width,
        height,
        // ~50° horizontal FoV like the Synthetic-NeRF cameras.
        focal: width as f32 * 1.1,
        pose,
    }
}

fn vertex_world(x: u32, y: u32, z: u32, side: u32) -> Vec3 {
    let s = (side - 1) as f32;
    Vec3::new(x as f32 / s * 2.0 - 1.0, y as f32 / s * 2.0 - 1.0, z as f32 / s * 2.0 - 1.0)
}

fn feature_vector(id: SceneId, spec: &SceneSpec, p: Vec3, tau: f32) -> [f32; FEATURE_DIM] {
    // Numeric SDF gradient → pseudo surface normal.
    let h = 0.01;
    let g = Vec3::new(
        scene_sdf(id, p + Vec3::new(h, 0.0, 0.0)) - scene_sdf(id, p - Vec3::new(h, 0.0, 0.0)),
        scene_sdf(id, p + Vec3::new(0.0, h, 0.0)) - scene_sdf(id, p - Vec3::new(0.0, h, 0.0)),
        scene_sdf(id, p + Vec3::new(0.0, 0.0, h)) - scene_sdf(id, p - Vec3::new(0.0, 0.0, h)),
    );
    let len = g.length();
    let n = if len > 1e-6 { g / len } else { Vec3::new(0.0, 1.0, 0.0) };

    let mut f = [0.0f32; FEATURE_DIM];
    // Normal channels.
    f[0] = n.x * 0.5;
    f[1] = n.y * 0.5;
    f[2] = n.z * 0.5;
    // Albedo channels: base color modulated by position.
    let modx = 0.75 + 0.25 * (3.1 * p.x + 1.7 * p.z).sin();
    let mody = 0.75 + 0.25 * (2.3 * p.y - 1.1 * p.x).sin();
    f[3] = spec.base_color[0] * modx;
    f[4] = spec.base_color[1] * mody;
    f[5] = spec.base_color[2] * (0.75 + 0.25 * (2.9 * p.z).cos());
    // Spatial texture channels.
    f[6] = 0.3 * (4.0 * p.x).sin();
    f[7] = 0.3 * (4.0 * p.y).sin();
    f[8] = 0.3 * (4.0 * p.z).sin();
    // Shell depth, radial distance, deterministic noise.
    f[9] = (scene_sdf(id, p).abs() / tau).clamp(0.0, 1.0) - 0.5;
    f[10] = p.length() * 0.4;
    f[11] = hash_noise(p, spec.seed) * 0.3;
    // Per-voxel high-frequency detail: trained NeRF features carry content
    // no codebook can compress, which is what sets the realistic VQRF PSNR
    // floor (~30–36 dB). Without it the synthetic features are so smooth
    // that VQ becomes near-lossless and PSNR comparisons degenerate.
    let detail = hash_noise_vec(p, spec.seed ^ 0xdead_beef);
    for (slot, d) in f.iter_mut().zip(detail) {
        *slot += d * FEATURE_DETAIL_AMPLITUDE;
    }
    f
}

/// Amplitude of the incompressible per-voxel feature detail.
const FEATURE_DETAIL_AMPLITUDE: f32 = 0.9;

/// Spatial frequency of the feature detail: noise is constant within
/// blocks of ~1/48 world unit (a few voxels at paper-scale grids), so
/// trilinear interpolation cannot average it away while the number of
/// distinct blocks stays far above the codebook size — mirroring the
/// incompressible texture detail of trained grids.
const FEATURE_DETAIL_CELLS: f32 = 48.0;

/// Twelve deterministic noise values in `[-0.5, 0.5]` per noise block.
fn hash_noise_vec(p: Vec3, seed: u64) -> [f32; FEATURE_DIM] {
    let mut out = [0.0f32; FEATURE_DIM];
    for (k, chunk) in out.chunks_mut(4).enumerate() {
        let qx = (p.x * FEATURE_DETAIL_CELLS).floor() as i64 as u64;
        let qy = (p.y * FEATURE_DETAIL_CELLS).floor() as i64 as u64;
        let qz = (p.z * FEATURE_DETAIL_CELLS).floor() as i64 as u64;
        let mut h = seed ^ (k as u64).wrapping_mul(0xa076_1d64_78bd_642f);
        for v in [qx, qy, qz] {
            h ^= v.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = h.rotate_left(27).wrapping_mul(0x94d0_49bb_1331_11eb);
        }
        for (j, slot) in chunk.iter_mut().enumerate() {
            let bits = (h >> (j * 16)) & 0xffff;
            *slot = bits as f32 / 65536.0 - 0.5;
        }
    }
    out
}

/// Deterministic value noise in `[-0.5, 0.5]` from a position and seed.
fn hash_noise(p: Vec3, seed: u64) -> f32 {
    let q = |c: f32| (c * 512.0) as i64 as u64;
    unit_hash3(q(p.x), q(p.y), q(p.z), seed) - 0.5
}

/// SplitMix-style hash of three coordinates and a seed, mapped to `[0, 1)`
/// — the per-voxel detail noise of both procedural generators (this
/// module's scenes and the [`crate::corpus`] archetypes).
pub(crate) fn unit_hash3(x: u64, y: u64, z: u64, seed: u64) -> f32 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for v in [x, y, z] {
        h ^= v.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = h.rotate_left(27).wrapping_mul(0x94d0_49bb_1331_11eb);
    }
    (h >> 40) as f32 / (1u32 << 24) as f32
}

// ---------------------------------------------------------------------------
// Signed-distance primitives and per-scene compositions.
// ---------------------------------------------------------------------------

fn sd_sphere(p: Vec3, c: Vec3, r: f32) -> f32 {
    (p - c).length() - r
}

fn sd_ellipsoid(p: Vec3, c: Vec3, r: Vec3) -> f32 {
    // Standard bound-preserving approximation.
    let q = p - c;
    let k0 = Vec3::new(q.x / r.x, q.y / r.y, q.z / r.z).length();
    let k1 = Vec3::new(q.x / (r.x * r.x), q.y / (r.y * r.y), q.z / (r.z * r.z)).length();
    if k1 > 1e-9 {
        k0 * (k0 - 1.0) / k1
    } else {
        -r.min(r).max_component()
    }
}

fn sd_box(p: Vec3, c: Vec3, half: Vec3) -> f32 {
    let q = (p - c).abs() - half;
    let outside = q.max(Vec3::ZERO).length();
    let inside = q.max_component().min(0.0);
    outside + inside
}

fn sd_cylinder_y(p: Vec3, c: Vec3, r: f32, half_h: f32) -> f32 {
    let q = p - c;
    let d_radial = (q.x * q.x + q.z * q.z).sqrt() - r;
    let d_height = q.y.abs() - half_h;
    let outside = Vec3::new(d_radial.max(0.0), d_height.max(0.0), 0.0).length();
    outside + d_radial.max(d_height).min(0.0)
}

fn sd_capsule_x(p: Vec3, c: Vec3, half_len: f32, r: f32) -> f32 {
    let q = p - c;
    let x = q.x.clamp(-half_len, half_len);
    (q - Vec3::new(x, 0.0, 0.0)).length() - r
}

fn sd_torus_y(p: Vec3, c: Vec3, major: f32, minor: f32) -> f32 {
    let q = p - c;
    let ring = ((q.x * q.x + q.z * q.z).sqrt() - major).hypot(q.y);
    ring - minor
}

fn scene_sdf(id: SceneId, p: Vec3) -> f32 {
    match id {
        SceneId::Chair => {
            let seat = sd_box(p, Vec3::new(0.0, -0.1, 0.0), Vec3::new(0.45, 0.05, 0.45));
            let back = sd_box(p, Vec3::new(0.0, 0.35, -0.4), Vec3::new(0.45, 0.4, 0.05));
            let mut d = seat.min(back);
            for (sx, sz) in [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0f32)] {
                d = d.min(sd_cylinder_y(p, Vec3::new(0.38 * sx, -0.4, 0.38 * sz), 0.05, 0.3));
            }
            d
        }
        SceneId::Drums => {
            let kick = sd_cylinder_y(p, Vec3::new(0.0, -0.3, 0.0), 0.40, 0.25);
            let tom1 = sd_cylinder_y(p, Vec3::new(-0.45, -0.1, 0.2), 0.25, 0.18);
            let tom2 = sd_cylinder_y(p, Vec3::new(0.45, -0.1, 0.2), 0.25, 0.18);
            let cym1 = sd_cylinder_y(p, Vec3::new(-0.4, 0.4, -0.3), 0.30, 0.02);
            let cym2 = sd_cylinder_y(p, Vec3::new(0.4, 0.4, -0.3), 0.30, 0.02);
            let stand1 = sd_cylinder_y(p, Vec3::new(-0.4, 0.0, -0.3), 0.02, 0.42);
            let stand2 = sd_cylinder_y(p, Vec3::new(0.4, 0.0, -0.3), 0.02, 0.42);
            let hoop = sd_torus_y(p, Vec3::new(0.0, -0.05, 0.0), 0.42, 0.03);
            kick.min(tom1).min(tom2).min(cym1).min(cym2).min(stand1).min(stand2).min(hoop)
        }
        SceneId::Ficus => {
            let trunk = sd_cylinder_y(p, Vec3::new(0.0, -0.3, 0.0), 0.04, 0.35);
            let pot = sd_cylinder_y(p, Vec3::new(0.0, -0.62, 0.0), 0.18, 0.1);
            let mut d = trunk.min(pot);
            let blobs = [
                (0.0, 0.35, 0.0, 0.20),
                (0.22, 0.25, 0.10, 0.14),
                (-0.20, 0.30, -0.12, 0.15),
                (0.10, 0.50, -0.15, 0.13),
                (-0.15, 0.48, 0.15, 0.12),
                (0.25, 0.45, 0.18, 0.10),
                (-0.28, 0.18, 0.05, 0.11f32),
            ];
            for (x, y, z, r) in blobs {
                d = d.min(sd_sphere(p, Vec3::new(x, y, z), r));
            }
            d
        }
        SceneId::Hotdog => {
            let plate = sd_cylinder_y(p, Vec3::new(0.0, -0.42, 0.0), 0.72, 0.035);
            let bun1 = sd_capsule_x(p, Vec3::new(0.0, -0.28, 0.10), 0.42, 0.13);
            let bun2 = sd_capsule_x(p, Vec3::new(0.0, -0.28, -0.10), 0.42, 0.13);
            let sausage = sd_capsule_x(p, Vec3::new(0.0, -0.18, 0.0), 0.50, 0.08);
            plate.min(bun1).min(bun2).min(sausage)
        }
        SceneId::Lego => {
            let body = sd_box(p, Vec3::new(0.0, -0.05, 0.0), Vec3::new(0.35, 0.15, 0.25));
            let cabin = sd_box(p, Vec3::new(0.0, 0.22, -0.05), Vec3::new(0.18, 0.14, 0.18));
            let blade = sd_box(p, Vec3::new(0.0, -0.25, 0.48), Vec3::new(0.42, 0.13, 0.04));
            let track1 = sd_box(p, Vec3::new(-0.32, -0.28, 0.0), Vec3::new(0.08, 0.10, 0.36));
            let track2 = sd_box(p, Vec3::new(0.32, -0.28, 0.0), Vec3::new(0.08, 0.10, 0.36));
            let arm1 = sd_capsule_x(p, Vec3::new(0.0, -0.1, 0.35), 0.30, 0.035);
            body.min(cabin).min(blade).min(track1).min(track2).min(arm1)
        }
        SceneId::Materials => {
            let mut d = f32::INFINITY;
            for ix in -1..=1 {
                for iz in -1..=1 {
                    let c = Vec3::new(ix as f32 * 0.52, -0.3, iz as f32 * 0.52);
                    d = d.min(sd_sphere(p, c, 0.17));
                }
            }
            let tray = sd_box(p, Vec3::new(0.0, -0.52, 0.0), Vec3::new(0.8, 0.03, 0.8));
            d.min(tray)
        }
        SceneId::Mic => {
            let head = sd_sphere(p, Vec3::new(0.0, 0.45, 0.0), 0.18);
            let handle = sd_cylinder_y(p, Vec3::new(0.0, 0.1, 0.0), 0.05, 0.25);
            let stand = sd_cylinder_y(p, Vec3::new(0.0, -0.35, 0.0), 0.025, 0.30);
            let base = sd_cylinder_y(p, Vec3::new(0.0, -0.62, 0.0), 0.22, 0.03);
            head.min(handle).min(stand).min(base)
        }
        SceneId::Ship => {
            let hull = sd_ellipsoid(p, Vec3::new(0.0, -0.22, 0.0), Vec3::new(0.55, 0.16, 0.22));
            let deck = sd_box(p, Vec3::new(0.0, -0.10, 0.0), Vec3::new(0.45, 0.03, 0.16));
            let mast1 = sd_cylinder_y(p, Vec3::new(-0.18, 0.18, 0.0), 0.025, 0.40);
            let mast2 = sd_cylinder_y(p, Vec3::new(0.22, 0.12, 0.0), 0.025, 0.32);
            let sail1 = sd_box(p, Vec3::new(-0.18, 0.25, 0.0), Vec3::new(0.02, 0.22, 0.18));
            let sail2 = sd_box(p, Vec3::new(0.22, 0.18, 0.0), Vec3::new(0.02, 0.17, 0.14));
            let water = sd_box(p, Vec3::new(0.0, -0.48, 0.0), Vec3::new(0.85, 0.04, 0.85));
            hull.min(deck).min(mast1).min(mast2).min(sail1).min(sail2).min(water)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenes_distinct() {
        let names: std::collections::HashSet<_> = SceneId::all().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn occupancy_calibrated_to_target() {
        for id in SceneId::all() {
            let spec = id.spec();
            let g = build_grid(id, 48);
            let occ = g.occupancy();
            assert!(
                (occ - spec.target_occupancy).abs() < 0.005,
                "{id}: occupancy {occ:.4} vs target {:.4}",
                spec.target_occupancy
            );
        }
    }

    #[test]
    fn sparsity_band_matches_paper() {
        // Fig. 2(b): non-zero fraction between 2.01 % and 6.48 %.
        for id in SceneId::all() {
            let t = id.spec().target_occupancy;
            assert!((0.0201..=0.0648).contains(&t), "{id} target {t} out of band");
        }
        assert_eq!(SceneId::Mic.spec().target_occupancy, 0.0201);
        assert_eq!(SceneId::Ship.spec().target_occupancy, 0.0648);
    }

    #[test]
    fn build_is_deterministic() {
        let a = build_grid(SceneId::Chair, 32);
        let b = build_grid(SceneId::Chair, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn densities_positive_and_bounded() {
        let g = build_grid(SceneId::Lego, 40);
        for p in g.extract_nonzero() {
            assert!(p.density > 0.0 && p.density <= 1.0);
            assert!(p.features.iter().all(|f| f.is_finite()));
        }
    }

    #[test]
    fn features_vary_across_space() {
        let g = build_grid(SceneId::Ship, 40);
        let pts = g.extract_nonzero();
        assert!(pts.len() > 100);
        let first = pts[0].features;
        assert!(pts.iter().any(|p| p.features != first), "features must not be constant");
    }

    #[test]
    fn scene_geometry_differs() {
        let a = build_grid(SceneId::Mic, 40);
        let b = build_grid(SceneId::Ship, 40);
        assert_ne!(a.occupied_count(), b.occupied_count());
    }

    #[test]
    fn paper_grid_sides() {
        assert_eq!(SceneId::Ship.spec().paper_grid_side, 160);
        assert_eq!(SceneId::Mic.spec().paper_grid_side, 128);
    }

    #[test]
    fn camera_orbits_scene() {
        let cam = default_camera(32, 32, 0, 8);
        // Camera outside the AABB looking inward.
        assert!(!scene_aabb().contains(cam.pose.position));
        let ray = cam.ray_for_pixel(16, 16);
        assert!(scene_aabb().intersect(&ray).is_some());
    }

    #[test]
    fn sdf_primitives_sane() {
        // Sphere: negative inside, positive outside, zero on surface.
        assert!(sd_sphere(Vec3::ZERO, Vec3::ZERO, 1.0) < 0.0);
        assert!(sd_sphere(Vec3::new(2.0, 0.0, 0.0), Vec3::ZERO, 1.0) > 0.0);
        assert!(sd_sphere(Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO, 1.0).abs() < 1e-6);
        // Box.
        assert!(sd_box(Vec3::ZERO, Vec3::ZERO, Vec3::splat(0.5)) < 0.0);
        assert!(sd_box(Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO, Vec3::splat(0.5)) > 0.0);
        // Cylinder.
        assert!(sd_cylinder_y(Vec3::ZERO, Vec3::ZERO, 0.5, 0.5) < 0.0);
        assert!(sd_cylinder_y(Vec3::new(0.0, 2.0, 0.0), Vec3::ZERO, 0.5, 0.5) > 0.0);
        // Torus: center of the tube is on the ring.
        assert!(sd_torus_y(Vec3::new(0.5, 0.0, 0.0), Vec3::ZERO, 0.5, 0.1) < 0.0);
    }

    #[test]
    fn noise_deterministic_and_bounded() {
        let p = Vec3::new(0.3, -0.2, 0.7);
        let a = hash_noise(p, 42);
        assert_eq!(a, hash_noise(p, 42));
        assert_ne!(a, hash_noise(p, 43));
        assert!((-0.5..=0.5).contains(&a));
    }
}
