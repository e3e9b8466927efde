//! Shared fixture builders for tests across the workspace.
//!
//! Before the testkit, every integration-test file hand-rolled the same
//! `build_grid → VqrfModel::build → SpNerfModel::build` ladder with subtly
//! copy-pasted configurations. These helpers are that ladder, written once:
//! the facade's `tests/`, `crates/render/tests/` and the testkit's own
//! suites all build their scenes and models here.

use spnerf::pipeline::PipelineBuilder;
use spnerf::Scene;
use spnerf_core::{SpNerfConfig, SpNerfModel};
use spnerf_render::renderer::RenderConfig;
use spnerf_render::scene::{build_grid, SceneId};
use spnerf_voxel::grid::DenseGrid;
use spnerf_voxel::vqrf::{VqrfConfig, VqrfModel};

use crate::corpus::{generate, CorpusSpec};

pub use spnerf::pipeline::MLP_SEED;

/// The test-fidelity VQRF configuration: `codebook` entries, 2 Lloyd
/// iterations, 2048-point training subsample.
pub fn test_vqrf_config(codebook: usize) -> VqrfConfig {
    VqrfConfig {
        codebook_size: codebook,
        kmeans_iters: 2,
        kmeans_subsample: 2048,
        ..Default::default()
    }
}

/// A SpNeRF operating point with the codebook split made explicit.
pub fn test_spnerf_config(subgrids: usize, table_size: usize, codebook: usize) -> SpNerfConfig {
    SpNerfConfig { subgrid_count: subgrids, table_size, codebook_size: codebook }
}

/// A render configuration at test fidelity (`samples` march steps,
/// everything else default).
pub fn test_render_config(samples: usize) -> RenderConfig {
    RenderConfig { samples_per_ray: samples, ..Default::default() }
}

/// The hand-wired three-stage fixture over a dataset scene:
/// `(grid, vqrf, model)` at test fidelity.
///
/// # Panics
///
/// Panics if the SpNeRF stage rejects the operating point.
pub fn dataset_fixture(
    id: SceneId,
    side: u32,
    codebook: usize,
    subgrids: usize,
    table_size: usize,
) -> (DenseGrid, VqrfModel, SpNerfModel) {
    model_fixture(build_grid(id, side), codebook, subgrids, table_size)
}

/// The hand-wired three-stage fixture over a corpus grid.
///
/// # Panics
///
/// Panics if the SpNeRF stage rejects the operating point.
pub fn corpus_fixture(
    spec: &CorpusSpec,
    codebook: usize,
    subgrids: usize,
    table_size: usize,
) -> (DenseGrid, VqrfModel, SpNerfModel) {
    model_fixture(generate(spec), codebook, subgrids, table_size)
}

/// Compresses and preprocesses an arbitrary grid at test fidelity.
///
/// # Panics
///
/// Panics if the SpNeRF stage rejects the operating point.
pub fn model_fixture(
    grid: DenseGrid,
    codebook: usize,
    subgrids: usize,
    table_size: usize,
) -> (DenseGrid, VqrfModel, SpNerfModel) {
    let vqrf = VqrfModel::build(&grid, &test_vqrf_config(codebook));
    let model = SpNerfModel::build(&vqrf, &test_spnerf_config(subgrids, table_size, codebook))
        .expect("test fixture builds");
    (grid, vqrf, model)
}

/// A pipeline [`Scene`] over a dataset at test fidelity ([`MLP_SEED`]).
///
/// # Panics
///
/// Panics if the pipeline rejects the configuration.
pub fn dataset_scene(
    id: SceneId,
    side: u32,
    codebook: usize,
    subgrids: usize,
    table_size: usize,
    samples: usize,
) -> Scene {
    PipelineBuilder::new(id)
        .grid_side(side)
        .vqrf_config(test_vqrf_config(codebook))
        .spnerf_config(test_spnerf_config(subgrids, table_size, codebook))
        .render_config(test_render_config(samples))
        .build()
        .expect("test pipeline builds")
}

/// A pipeline [`Scene`] over a corpus spec at test fidelity ([`MLP_SEED`]).
///
/// # Panics
///
/// Panics if the pipeline rejects the configuration.
pub fn corpus_scene(
    spec: &CorpusSpec,
    codebook: usize,
    subgrids: usize,
    table_size: usize,
    samples: usize,
) -> Scene {
    PipelineBuilder::from_grid(spec.label(), generate(spec))
        .vqrf_config(test_vqrf_config(codebook))
        .spnerf_config(test_spnerf_config(subgrids, table_size, codebook))
        .render_config(test_render_config(samples))
        .build()
        .expect("corpus pipeline builds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Archetype;

    #[test]
    fn dataset_fixture_is_consistent() {
        let (grid, vqrf, model) = dataset_fixture(SceneId::Mic, 20, 16, 4, 2048);
        assert_eq!(vqrf.nnz(), grid.occupied_count());
        assert_eq!(model.bitmap().count_ones(), vqrf.nnz());
        assert_eq!(model.config().codebook_size, 16);
    }

    #[test]
    fn corpus_scene_round_trips_the_label() {
        let spec = CorpusSpec::archetype_default(Archetype::ThinShell, 16, 5);
        let scene = corpus_scene(&spec, 16, 4, 2048, 16);
        assert_eq!(scene.label(), spec.label());
        assert_eq!(scene.id(), None);
        assert_eq!(scene.render_config().samples_per_ray, 16);
    }
}
