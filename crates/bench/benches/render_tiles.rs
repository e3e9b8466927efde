//! Criterion benchmark for the tile-parallel render engine: one full
//! 128×128 view of the Lego scene rendered at 1/2/4/8 worker threads.
//!
//! The interesting read-out is the thread-count scaling — on a multi-core
//! host the 4-thread row should show well over 1.5× the single-thread
//! throughput (rays/s), while every configuration produces bitwise-
//! identical images (asserted by the engine's tests, not re-measured here).
//!
//! ```text
//! cargo bench --bench render_tiles
//! cargo bench --bench render_tiles -- --test   # CI smoke: one pass each
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use spnerf_render::mlp::Mlp;
use spnerf_render::renderer::{render_view, RenderConfig, Shader};
use spnerf_render::scene::{build_grid, default_camera, scene_aabb, SceneId};

const IMAGE_SIDE: u32 = 128;

fn bench_thread_scaling(c: &mut Criterion) {
    let grid = build_grid(SceneId::Lego, 48);
    let mlp = Mlp::random(42);
    let shader = Shader::PerSample(&mlp);
    let cam = default_camera(IMAGE_SIDE, IMAGE_SIDE, 0, 8);
    let mut g = c.benchmark_group("render_tiles_128x128");
    g.sample_size(10);
    g.throughput(Throughput::Elements(IMAGE_SIDE as u64 * IMAGE_SIDE as u64));
    for threads in [1usize, 2, 4, 8] {
        let cfg = RenderConfig { samples_per_ray: 32, parallelism: threads, ..Default::default() };
        g.bench_function(&format!("threads_{threads}"), |b| {
            b.iter(|| render_view(black_box(&grid), shader, &cam, &scene_aabb(), &cfg))
        });
    }
    g.finish();
}

fn bench_tile_sizes(c: &mut Criterion) {
    let grid = build_grid(SceneId::Lego, 48);
    let mlp = Mlp::random(42);
    let shader = Shader::PerSample(&mlp);
    let cam = default_camera(IMAGE_SIDE, IMAGE_SIDE, 0, 8);
    let mut g = c.benchmark_group("render_tiles_tile_size");
    g.sample_size(10);
    g.throughput(Throughput::Elements(IMAGE_SIDE as u64 * IMAGE_SIDE as u64));
    for tile_size in [8u32, 32, 128] {
        let cfg =
            RenderConfig { samples_per_ray: 32, parallelism: 4, tile_size, ..Default::default() };
        g.bench_function(&format!("4_threads_tile_{tile_size}"), |b| {
            b.iter(|| render_view(black_box(&grid), shader, &cam, &scene_aabb(), &cfg))
        });
    }
    g.finish();
}

criterion_group!(render_tiles, bench_thread_scaling, bench_tile_sizes);
criterion_main!(render_tiles);
