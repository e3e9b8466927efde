//! Criterion end-to-end benchmarks: model preprocessing (the hash-mapping
//! build), full-view rendering through each data path, the analytic frame
//! model, and the cycle-stepping simulator.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use spnerf_accel::frame::FrameWorkload;
use spnerf_accel::sim::pipeline::{simulate_frame, ArchConfig, CycleSimulator};
use spnerf_core::preprocess::build_tables;
use spnerf_core::{MaskMode, SpNerfConfig, SpNerfModel};
use spnerf_render::mlp::Mlp;
use spnerf_render::renderer::{render_view, RenderConfig, Shader};
use spnerf_render::scene::{build_grid, default_camera, scene_aabb, SceneId};
use spnerf_voxel::vqrf::{VqrfConfig, VqrfModel};

struct Fixture {
    vqrf: VqrfModel,
    model: SpNerfModel,
    cfg: SpNerfConfig,
}

fn fixture() -> Fixture {
    let grid = build_grid(SceneId::Lego, 48);
    let vqrf = VqrfModel::build(
        &grid,
        &VqrfConfig {
            codebook_size: 128,
            kmeans_iters: 2,
            kmeans_subsample: 2048,
            ..Default::default()
        },
    );
    let cfg = SpNerfConfig { subgrid_count: 16, table_size: 8192, codebook_size: 128 };
    let model = SpNerfModel::build(&vqrf, &cfg).unwrap();
    Fixture { vqrf, model, cfg }
}

fn bench_preprocess(c: &mut Criterion) {
    let f = fixture();
    c.bench_function("preprocess/build_hash_tables", |b| {
        b.iter(|| build_tables(black_box(&f.vqrf), black_box(&f.cfg)).unwrap())
    });
}

fn bench_render_paths(c: &mut Criterion) {
    let f = fixture();
    let mlp = Mlp::random(42);
    let shader = Shader::PerSample(&mlp);
    let cam = default_camera(16, 16, 0, 8);
    let cfg = RenderConfig { samples_per_ray: 48, ..Default::default() };
    let mut g = c.benchmark_group("render_16x16");
    g.sample_size(10);
    g.bench_function("vqrf_gold", |b| {
        b.iter(|| render_view(black_box(&f.vqrf), shader, &cam, &scene_aabb(), &cfg))
    });
    let masked = f.model.view(MaskMode::Masked);
    g.bench_function("spnerf_masked", |b| {
        b.iter(|| render_view(black_box(&masked), shader, &cam, &scene_aabb(), &cfg))
    });
    let unmasked = f.model.view(MaskMode::Unmasked);
    g.bench_function("spnerf_unmasked", |b| {
        b.iter(|| render_view(black_box(&unmasked), shader, &cam, &scene_aabb(), &cfg))
    });
    g.finish();
}

fn bench_frame_models(c: &mut Criterion) {
    let arch = ArchConfig::default();
    let w = FrameWorkload {
        scene: "lego".into(),
        rays: 640_000,
        samples_marched: 25_000_000,
        samples_shaded: 1_200_000,
        samples_skipped: 0,
        pixels_shaded: 0,
        rays_warped: 0,
        rays_remarched: 0,
        model_bytes: 7 << 20,
        format_bytes: 0,
    };
    c.bench_function("frame/analytic_model", |b| {
        b.iter(|| simulate_frame(black_box(&w), black_box(&arch)))
    });
    let sim = CycleSimulator::new(arch);
    c.bench_function("frame/cycle_stepped_1M", |b| {
        b.iter(|| sim.run(black_box(1_000_000), black_box(60_000)))
    });
}

criterion_group!(end_to_end, bench_preprocess, bench_render_paths, bench_frame_models);
criterion_main!(end_to_end);
