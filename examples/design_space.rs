//! Design-space exploration: how subgrid count and hash-table size trade
//! memory against quality and collisions (the Fig. 7 mechanism, exposed as
//! a library workflow).
//!
//! Each operating point respecializes only the SpNeRF stage
//! ([`spnerf::Scene::with_spnerf`]) — the grid, VQRF model, MLP and the
//! ground-truth render are built once and shared across the sweep.
//!
//! ```text
//! cargo run --release --example design_space [scene] [side]
//! ```

use spnerf::core::stats::alias_stats;
use spnerf::core::SpNerfConfig;
use spnerf::pipeline::{scene_by_name, PipelineBuilder, RenderRequest, RenderSource};
use spnerf::render::renderer::RenderConfig;
use spnerf::render::scene::{default_camera, SceneId};
use spnerf::voxel::memory::format_bytes;
use spnerf::voxel::vqrf::VqrfConfig;

fn main() -> Result<(), spnerf::Error> {
    let args: Vec<String> = std::env::args().collect();
    let scene_id = args.get(1).map(|s| scene_by_name(s)).transpose()?.unwrap_or(SceneId::Chair);
    let side: u32 = args.get(2).map(|s| s.parse()).transpose()?.unwrap_or(64);

    println!("design-space exploration on '{scene_id}' ({side}³)\n");
    let base = PipelineBuilder::new(scene_id)
        .grid_side(side)
        .vqrf_config(VqrfConfig { codebook_size: 256, kmeans_iters: 3, ..Default::default() })
        .spnerf_config(SpNerfConfig { subgrid_count: 1, table_size: 4096, codebook_size: 256 })
        .render_config(RenderConfig { samples_per_ray: 80, ..Default::default() })
        .build()?;

    let camera = default_camera(40, 40, 1, 8);
    let gt = base.session().render(&RenderRequest::single(RenderSource::GroundTruth, camera))?;

    println!(
        "{:>4}  {:>8}  {:>10}  {:>10}  {:>10}  {:>9}  {:>9}",
        "K", "T", "model", "collisions", "falsepos%", "PSNR", "load%"
    );
    for (k, t) in [
        (1usize, 4096usize),
        (4, 4096),
        (16, 4096),
        (64, 4096),
        (16, 512),
        (16, 2048),
        (16, 8192),
        (16, 32768),
    ] {
        let cfg = SpNerfConfig { subgrid_count: k, table_size: t, codebook_size: 256 };
        let point = base.with_spnerf(cfg)?;
        let resp = point.session().render(
            &RenderRequest::single(RenderSource::spnerf_masked(), camera)
                .with_reference_images(&gt.images),
        )?;
        let alias = alias_stats(point.model(), point.vqrf());
        println!(
            "{:>4}  {:>8}  {:>10}  {:>10}  {:>9.2}%  {:>6.2} dB  {:>8.2}%",
            k,
            t,
            format_bytes(point.model().footprint().total_bytes()),
            point.model().report().collisions,
            alias.false_positive_rate() * 100.0,
            resp.mean_psnr(),
            point.model().report().max_load_factor * 100.0,
        );
    }
    println!(
        "\nReading: more subgrids (K) or larger tables (T) cut collisions and lift\n\
         PSNR, at the cost of table memory — the paper picks K=64, T=32k where the\n\
         curve saturates."
    );
    Ok(())
}
