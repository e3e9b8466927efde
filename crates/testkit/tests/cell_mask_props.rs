//! Property satellite for the cell-level occupancy prefilter
//! (`VoxelSource::cell_mask`).
//!
//! `interpolate_cell` reads a cell's 8-bit mask before fetching and never
//! fetches a corner whose bit is clear, so the prefilter is exact only
//! under its contract: **a clear bit implies `fetch` is `None` at that
//! corner**. These properties check the contract over every cell of
//! random corpus scenes for every `VoxelSource` in the workspace — the
//! dense grid, the VQRF gold decode, the masked and unmasked SpNeRF views,
//! the baked grid, the occupancy wrapper, and `&T` — and check that
//! `interpolate` stays bitwise equal to the unfiltered scalar oracle
//! (`interpolate_cell_scalar`) at random positions, boundary-clamped
//! positions up to half a voxel outside the grid, and fully occupied
//! cells.

use proptest::prelude::*;

use spnerf_core::MaskMode;
use spnerf_render::bake::bake;
use spnerf_render::interp::{interpolate, interpolate_cell_scalar, trilinear_cell, InterpSample};
use spnerf_render::mlp::Mlp;
use spnerf_render::source::{support_bitmap, VoxelSource, WithOccupancy};
use spnerf_render::vec3::Vec3;
use spnerf_testkit::corpus::{generate, Archetype, CorpusSpec};
use spnerf_testkit::fixtures;

/// Checks the mask contract at every cell base of the grid (including the
/// last layer on each axis, whose cells reach outside it) and returns how
/// many cells the mask proves empty.
fn assert_mask_contract<S: VoxelSource + ?Sized>(source: &S, label: &str) -> usize {
    let mut empty_cells = 0;
    for base in source.dims().iter() {
        let mask = source.cell_mask(base);
        for (k, corner) in base.cell_corners().iter().enumerate() {
            if mask & (1 << k) == 0 {
                assert!(
                    source.fetch(*corner).is_none(),
                    "{label}: clear bit {k} of the cell at {base} hides data at {corner}"
                );
            }
        }
        empty_cells += usize::from(mask == 0);
    }
    empty_cells
}

/// Bitwise comparison of `interpolate` against the unfiltered scalar
/// oracle at each position.
fn assert_matches_oracle<S: VoxelSource + ?Sized>(source: &S, positions: &[Vec3], label: &str) {
    for &g in positions {
        let fast = interpolate(source, g);
        let oracle = trilinear_cell(source.dims(), g)
            .map_or(InterpSample::empty(), |cell| interpolate_cell_scalar(source, &cell));
        assert_eq!(fast.density.to_bits(), oracle.density.to_bits(), "{label}: density at {g:?}");
        for (ch, (a, b)) in fast.features.iter().zip(oracle.features).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: feature[{ch}] at {g:?}");
        }
        assert_eq!(fast.occupied_corners, oracle.occupied_corners, "{label}: corners at {g:?}");
    }
}

/// Probe positions over a `side³` grid: `n` pseudo-random positions
/// spanning half a voxel past every face (so boundary clamping is hit),
/// the 8 extreme clamped corners, positions just beyond the admitted
/// half-voxel margin, and the centres of fully occupied cells.
fn probe_positions<S: VoxelSource + ?Sized>(source: &S, seed: u64, n: usize) -> Vec<Vec3> {
    let side = source.dims().nx as f32;
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut unit = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    // Vertex coordinates run over [0, side − 1]; admitted positions over
    // [−0.5, side − 0.5].
    let span = |u: f32| -0.5 + u * side;
    let mut out: Vec<Vec3> =
        (0..n).map(|_| Vec3::new(span(unit()), span(unit()), span(unit()))).collect();
    let (lo, hi) = (-0.5, side - 0.5);
    for i in 0..8 {
        let pick = |bit: usize| if i & bit == 0 { lo } else { hi };
        out.push(Vec3::new(pick(1), pick(2), pick(4)));
    }
    out.extend([Vec3::new(-0.51, 1.0, 1.0), Vec3::new(1.0, side - 0.49, 1.0)]);
    let support = support_bitmap(source);
    out.extend(
        source
            .dims()
            .iter()
            .filter(|c| source.dims().cell_in_bounds(*c))
            .filter(|c| c.cell_corners().iter().all(|k| support.get(*k)))
            .take(16)
            .map(|c| Vec3::new(c.x as f32 + 0.5, c.y as f32 + 0.25, c.z as f32 + 0.75)),
    );
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn clear_mask_bits_never_hide_data_and_interpolation_matches_the_oracle(
        arch_idx in 0usize..5,
        side in 8u32..13,
        occupancy in 0.05f64..0.70,
        seed in 0u64..1_000,
        tiny_table in 0usize..2,
    ) {
        let spec = CorpusSpec::new(Archetype::ALL[arch_idx], side, occupancy, seed);
        // A tiny hash table forces collisions, so the unmasked view decodes
        // values where the bitmap is clear.
        let table = if tiny_table == 1 { 128 } else { 4096 };
        let (grid, vqrf, model) = fixtures::model_fixture(generate(&spec), 16, 2, table);
        let label = spec.label();
        let masked = model.view(MaskMode::Masked);
        let unmasked = model.view(MaskMode::Unmasked);
        let baked = bake(&grid, &Mlp::random(fixtures::MLP_SEED));
        let wrapped = WithOccupancy::build(masked);
        let probes = probe_positions(&grid, seed, 64);

        assert_mask_contract(&masked, &format!("{label} masked"));
        assert_mask_contract(&grid, &format!("{label} dense"));
        assert_mask_contract(&vqrf, &format!("{label} vqrf"));
        assert_mask_contract(&unmasked, &format!("{label} unmasked"));
        assert_mask_contract(&baked, &format!("{label} baked"));
        // The wrappers must forward the masked view's bitmap mask, not
        // fall back to the permissive default.
        for base in grid.dims().iter() {
            prop_assert_eq!(wrapped.cell_mask(base), masked.cell_mask(base), "{}", &label);
            let by_ref = VoxelSource::cell_mask(&&masked, base);
            prop_assert_eq!(by_ref, masked.cell_mask(base), "{}", &label);
        }
        assert_mask_contract(&wrapped, &format!("{label} occupancy-wrapped"));
        assert_mask_contract(&&masked, &format!("{label} by reference"));

        assert_matches_oracle(&masked, &probes, &format!("{label} masked"));
        assert_matches_oracle(&grid, &probes, &format!("{label} dense"));
        assert_matches_oracle(&vqrf, &probes, &format!("{label} vqrf"));
        assert_matches_oracle(&unmasked, &probes, &format!("{label} unmasked"));
        assert_matches_oracle(&baked, &probes, &format!("{label} baked"));
        assert_matches_oracle(&wrapped, &probes, &format!("{label} occupancy-wrapped"));
        assert_matches_oracle(&&masked, &probes, &format!("{label} by reference"));
    }
}

#[test]
fn masked_view_prefilters_a_sparse_scene() {
    // The contract checks above would pass vacuously if the masked view
    // never cleared a bit: on a sparse scene most cells must be provably
    // empty, and partially occupied cells must carry partial masks.
    let spec = CorpusSpec::new(Archetype::EmptySpace, 12, 0.02, 5);
    let (_, _, model) = fixtures::model_fixture(generate(&spec), 16, 2, 4096);
    let masked = model.view(MaskMode::Masked);
    let cells = model.dims().len();
    let empty = assert_mask_contract(&masked, "empty-space masked");
    assert!(empty * 2 > cells, "only {empty} of {cells} cells proven empty");
    let partial = model.dims().iter().filter(|c| !matches!(masked.cell_mask(*c), 0 | 0xFF)).count();
    assert!(partial > 0, "no partially occupied cell");
}

#[test]
fn probes_reach_fully_occupied_cells_and_the_clamped_boundary() {
    // Guard against the probe set silently losing its coverage: on a dense
    // blob there are fully occupied cells, and the extreme probes clamp.
    let spec = CorpusSpec::new(Archetype::DenseBlob, 10, 0.6, 3);
    let grid = generate(&spec);
    let probes = probe_positions(&grid, 3, 8);
    let support = support_bitmap(&grid);
    let full = probes
        .iter()
        .filter_map(|g| trilinear_cell(grid.dims(), *g))
        .filter(|cell| cell.base.cell_corners().iter().all(|c| support.get_clamped(*c)))
        .count();
    assert!(full > 0, "no probe lands in a fully occupied cell");
    assert!(probes.iter().any(|g| g.x < 0.0), "no probe below the grid");
    assert!(probes.iter().any(|g| trilinear_cell(grid.dims(), *g).is_none()), "no outside probe");
}
