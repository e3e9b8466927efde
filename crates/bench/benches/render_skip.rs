//! Criterion benchmark for hierarchical empty-space skipping: the masked
//! SpNeRF render of each corpus archetype with `SkipMode::Off` vs
//! `SkipMode::mip()`.
//!
//! The interesting read-out is the spread across archetypes: the
//! empty-space archetype (0.5 % occupancy) skips ~97 % of its marched
//! samples and should render several times faster, dense-blob (20 %)
//! barely changes. Images are bitwise-identical in both modes (asserted by
//! the conformance suite, not re-measured here).
//!
//! ```text
//! cargo bench --bench render_skip
//! cargo bench --bench render_skip -- --test   # CI smoke: one pass each
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use spnerf::pipeline::RenderSource;
use spnerf::render::renderer::{render_view, RenderConfig, Shader, SkipMode};
use spnerf::render::scene::{default_camera, scene_aabb};
use spnerf::render::source::WithOccupancy;
use spnerf_testkit::conformance::{scene_for, ConformanceConfig};
use spnerf_testkit::corpus::Corpus;

const IMAGE_SIDE: u32 = 32;

fn bench_skip_modes(c: &mut Criterion) {
    let cfg = ConformanceConfig::default();
    let cam = default_camera(IMAGE_SIDE, IMAGE_SIDE, 1, 8);
    let mut g = c.benchmark_group("render_skip_masked");
    g.sample_size(10);
    g.throughput(Throughput::Elements(IMAGE_SIDE as u64 * IMAGE_SIDE as u64));
    for spec in Corpus::quick() {
        let scene = scene_for(&spec, &cfg);
        let render_cfg = RenderConfig { samples_per_ray: 64, ..scene.render_config() };
        let view = scene.model().masked();
        let shader = Shader::PerSample(scene.mlp());
        g.bench_function(&format!("{}_off", spec.archetype.name()), |b| {
            b.iter(|| render_view(black_box(&view), shader, &cam, &scene_aabb(), &render_cfg))
        });
        let mip = scene.occupancy_mip(RenderSource::spnerf_masked());
        let skippable = WithOccupancy::new(&view, mip);
        let skip_cfg = RenderConfig { skip_mode: SkipMode::mip(), ..render_cfg };
        g.bench_function(&format!("{}_mip", spec.archetype.name()), |b| {
            b.iter(|| render_view(black_box(&skippable), shader, &cam, &scene_aabb(), &skip_cfg))
        });
    }
    g.finish();
}

criterion_group!(render_skip, bench_skip_modes);
criterion_main!(render_skip);
