//! Per-layer measurements shared by the traced runs of every workload.
//!
//! Three kinds of numbers end up here:
//!
//! * **build spans** — each offline stage called on its own through its
//!   public entry point (`build_grid`/corpus `generate`, `VqrfModel::build`,
//!   `SpNerfModel::build_with`, `OccupancyMip::build`, `Scene::baked_grid`,
//!   `PipelineBuilder::build`);
//! * **calibrated kernel costs** — ns per call of the decode, MLP,
//!   composite, warp-splat and disocclusion entry points, fed with inputs
//!   taken from the workload's own scene and camera;
//! * **stage shares** — each kernel cost times its exact per-frame count,
//!   over the measured frame time: the host analogue of the paper's Fig. 2
//!   time split, printed next to the cycle model's split.

use std::hint::black_box;
use std::time::{Duration, Instant};

use spnerf::accel::{simulate_frame, ArchConfig, FrameSimResult, FrameWorkload};
use spnerf::core::PreprocessOptions;
use spnerf::core::{MaskMode, SpNerfConfig, SpNerfModel};
use spnerf::render::camera::PinholeCamera;
use spnerf::render::composite::{alpha_from_density, RayAccumulator};
use spnerf::render::interp::interpolate;
use spnerf::render::mlp::{encode_direction, MlpScratch, DEFERRED_INPUT_DIM, MLP_INPUT_DIM};
use spnerf::render::ray::UniformSampler;
use spnerf::render::renderer::{RenderConfig, RenderFrame, RenderStats, Shader};
use spnerf::render::scene::scene_aabb;
use spnerf::render::source::VoxelSource;
use spnerf::render::temporal::{
    advance_frame, disocclusion_mask, warp_splat, ReuseMode, WarpConfig,
};
use spnerf::render::vec3::Vec3;
use spnerf::trajectory::TrajectorySpec;
use spnerf::voxel::grid::DenseGrid;
use spnerf::voxel::mip::OccupancyMip;
use spnerf::voxel::vqrf::{VqrfConfig, VqrfModel};
use spnerf::voxel::FEATURE_DIM;
use spnerf::{RenderSession, RenderSource, Scene};
use spnerf_serve::server::{run, Catalog, RunMeta, ServeConfig, ServeOutcome};

use crate::inputs::{serve_trace, Rng};
use crate::metrics::Metrics;
use crate::stats::{mean, median};
use crate::tracer::Tracer;

/// Minimum wall time each kernel calibration measures.
const KERNEL_BUDGET: Duration = Duration::from_millis(120);
/// Calibration batches; the reported cost is the median batch.
const KERNEL_BATCHES: usize = 5;
/// Decode positions sampled from the probe camera's rays.
const DECODE_POSITIONS: usize = 32_768;
/// MLP inputs gathered from positive-density decodes.
const MLP_INPUTS: usize = 512;

/// Milliseconds from a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Mean duration (ms) of every span named `name`; `None` without spans.
pub fn span_mean_ms(tracer: &Tracer, name: &str) -> Option<f64> {
    let d = tracer.durations_ns(name);
    (!d.is_empty()).then(|| mean(&d) / 1e6)
}

/// Median duration (ms) of every span named `name`; `None` without spans.
pub fn span_median_ms(tracer: &Tracer, name: &str) -> Option<f64> {
    let d = tracer.durations_ns(name);
    (!d.is_empty()).then(|| median(&d) / 1e6)
}

/// How to build one scene's offline artifacts stage by stage.
pub struct BuildRecipe<'a> {
    /// Stage one: the voxel grid.
    pub grid: Box<dyn Fn() -> DenseGrid + 'a>,
    /// Stage two: VQRF compression.
    pub vqrf: VqrfConfig,
    /// Stage three: the SpNeRF operating point.
    pub spnerf: SpNerfConfig,
}

/// Runs every offline stage of each recipe under its own span
/// (`voxel.grid_build`, `voxel.vqrf_build`, `core.spnerf_build`,
/// `voxel.mip_build`) and records the per-scene mean of each, plus the
/// k-means assignment work (`nnz × codebook` distance evaluations).
pub fn probe_builds(tracer: &Tracer, recipes: &[BuildRecipe<'_>], m: &mut Metrics) {
    let mut distance_evals = Vec::with_capacity(recipes.len());
    for r in recipes {
        let grid = tracer.span("voxel.grid_build", || (r.grid)());
        let vqrf = tracer.span("voxel.vqrf_build", || VqrfModel::build(&grid, &r.vqrf));
        distance_evals.push(vqrf.nnz() as f64 * vqrf.codebook_size() as f64);
        let model = tracer
            .span("core.spnerf_build", || {
                SpNerfModel::build_with(&vqrf, &r.spnerf, PreprocessOptions::default())
            })
            .expect("the benchmark's operating points are valid");
        let mip = tracer.span("voxel.mip_build", || {
            OccupancyMip::build(model.view(MaskMode::Masked).support_bitmap())
        });
        black_box(mip);
    }
    let get = |name| span_mean_ms(tracer, name).expect("every build stage ran");
    m.set("voxel.grid_build_ms", get("voxel.grid_build"));
    m.set("voxel.vqrf_build_ms", get("voxel.vqrf_build"));
    m.set("core.spnerf_build_ms", get("core.spnerf_build"));
    m.set("voxel.mip_build_ms", get("voxel.mip_build"));
    m.set("voxel.kmeans_distance_evals", mean(&distance_evals));
}

/// Host cost of one call of each hot-path kernel, calibrated on a
/// workload's own scene and camera.
#[derive(Debug, Clone, Copy)]
pub struct KernelCosts {
    /// `interpolate` through the masked SpNeRF view (hash decode + trilinear).
    pub decode_ns: f64,
    /// One per-sample color-MLP forward.
    pub mlp_ns: f64,
    /// One deferred per-pixel MLP forward.
    pub deferred_mlp_ns: f64,
    /// One `alpha_from_density` + `RayAccumulator::add_sample`.
    pub composite_ns: f64,
    /// One forward-warp splat of a whole frame.
    pub warp_splat_ns: f64,
    /// One disocclusion test of a whole frame.
    pub disocclusion_ns: f64,
}

/// ns per call of `f`, which makes `calls` calls: the median over
/// [`KERNEL_BATCHES`] batches, each repeating `f` until it has run for a
/// share of [`KERNEL_BUDGET`].
fn ns_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let batch_budget = KERNEL_BUDGET / KERNEL_BATCHES as u32;
    f();
    let mut rates = Vec::with_capacity(KERNEL_BATCHES);
    for _ in 0..KERNEL_BATCHES {
        let start = Instant::now();
        let mut iters = 0u64;
        while iters == 0 || start.elapsed() < batch_budget {
            f();
            iters += 1;
        }
        rates.push(start.elapsed().as_nanos() as f64 / (iters as f64 * calls as f64));
    }
    median(&rates)
}

/// Calibrates every kernel on `scene` along the rays of `cameras[0]`; the
/// warp kernels splat `cameras[0]`'s frame into `cameras[1]`. The span is
/// the benchmark's own (`perfbench` layer), so calibration time never
/// counts as render self time.
pub fn probe_kernels(
    tracer: &Tracer,
    scene: &Scene,
    cfg: &RenderConfig,
    cameras: &[PinholeCamera],
) -> KernelCosts {
    tracer.span("perfbench.kernel_probe", || kernel_costs(scene, cfg, cameras))
}

fn kernel_costs(scene: &Scene, cfg: &RenderConfig, cameras: &[PinholeCamera]) -> KernelCosts {
    let view = scene.masked_view();
    let aabb = scene_aabb();
    let frame = RenderFrame::new(view.dims(), &aabb, cfg);
    let camera = &cameras[0];

    // Sample positions exactly where the marcher puts them: uniform steps
    // along every pixel's ray inside the scene box, thinned by a constant
    // stride so the set covers the whole image.
    let mut samples = Vec::new();
    for py in 0..camera.height {
        for px in 0..camera.width {
            let ray = camera.ray_for_pixel(px, py);
            for (_, p) in UniformSampler::new(ray, &aabb, frame.step()) {
                samples.push((frame.grid().world_to_grid(p), ray.dir));
            }
        }
    }
    let stride = samples.len().div_ceil(DECODE_POSITIONS).max(1);
    let (positions, dirs): (Vec<Vec3>, Vec<Vec3>) = samples.into_iter().step_by(stride).unzip();
    let decode_ns = ns_per_call(positions.len(), || {
        let mut acc = 0.0f32;
        for g in &positions {
            acc += interpolate(&view, black_box(*g)).density;
        }
        black_box(acc);
    });

    // MLP and composite inputs come from the positive-density decodes.
    let mut inputs: Vec<[f32; MLP_INPUT_DIM]> = Vec::new();
    let mut densities = Vec::new();
    for (g, dir) in positions.iter().zip(&dirs) {
        let s = interpolate(&view, *g);
        if s.density > 0.0 && inputs.len() < MLP_INPUTS {
            let mut x = [0.0f32; MLP_INPUT_DIM];
            x[..FEATURE_DIM].copy_from_slice(&s.features);
            x[FEATURE_DIM..].copy_from_slice(&encode_direction(*dir));
            inputs.push(x);
            densities.push(s.density);
        }
    }
    assert!(!inputs.is_empty(), "the probe camera sees the scene");
    let mlp = scene.mlp();
    let mut scratch = MlpScratch::new();
    let mlp_ns = ns_per_call(inputs.len(), || {
        let mut acc = 0.0f32;
        for x in &inputs {
            acc += mlp.forward_with(black_box(x), &mut scratch)[0];
        }
        black_box(acc);
    });
    let deferred = scene.deferred();
    let deferred_inputs: Vec<[f32; DEFERRED_INPUT_DIM]> =
        inputs.iter().map(|x| std::array::from_fn(|k| x[k % MLP_INPUT_DIM])).collect();
    let deferred_mlp_ns = ns_per_call(deferred_inputs.len(), || {
        let mut acc = 0.0f32;
        for x in &deferred_inputs {
            acc += deferred.forward(black_box(x))[0];
        }
        black_box(acc);
    });
    let composite_ns = ns_per_call(densities.len(), || {
        let mut acc = RayAccumulator::new();
        for (i, d) in densities.iter().enumerate() {
            if i % 64 == 0 {
                black_box(acc.finalize(cfg.background));
                acc = RayAccumulator::new();
            }
            let alpha = alpha_from_density(black_box(*d) * cfg.density_scale, frame.step());
            acc.add_sample(alpha, Vec3::new(0.5, 0.25, 0.75));
        }
        black_box(acc.finalize(cfg.background));
    });

    // Warp kernels: frame 0 renders fully to produce a real buffered frame,
    // then the splat into frame 1 and its disocclusion test are timed.
    let wcfg = WarpConfig::default();
    let mut state = None;
    advance_frame(
        &view,
        Shader::PerSample(mlp),
        &cameras[0],
        &aabb,
        cfg,
        ReuseMode::warp(),
        0,
        &mut state,
    );
    let prev = state.expect("a warp-mode frame records reuse state");
    let next = &cameras[1];
    let warp_splat_ns = ns_per_call(1, || {
        black_box(warp_splat(black_box(&prev), next, &wcfg));
    });
    let (colors, depths) = warp_splat(&prev, next, &wcfg);
    let (w, h) = (next.width as usize, next.height as usize);
    let disocclusion_ns = ns_per_call(1, || {
        black_box(disocclusion_mask(black_box(&colors), &depths, w, h, &wcfg, 1));
    });
    KernelCosts { decode_ns, mlp_ns, deferred_mlp_ns, composite_ns, warp_splat_ns, disocclusion_ns }
}

/// Records the kernel costs and the measured per-frame stage split.
///
/// `frame_ms` is the measured wall time of one frame and `workers` the
/// render threads that shared it, so the shares divide kernel CPU time by
/// the frame's CPU budget; `other` is the remainder (march, skip, engine,
/// warp and idle workers).
pub fn record_kernels(
    costs: &KernelCosts,
    per_frame: &FrameCounts,
    frame_ms: f64,
    workers: usize,
    m: &mut Metrics,
) {
    m.set("core.decode_ns", costs.decode_ns);
    m.set("render.mlp_ns", costs.mlp_ns);
    m.set("render.deferred_mlp_ns", costs.deferred_mlp_ns);
    m.set("render.composite_ns", costs.composite_ns);
    m.set("temporal.warp_splat_us", costs.warp_splat_ns / 1e3);
    m.set("temporal.disocclusion_us", costs.disocclusion_ns / 1e3);
    let budget_ns = frame_ms * 1e6 * workers as f64;
    let decode = costs.decode_ns * per_frame.marched / budget_ns;
    let mlp = (costs.mlp_ns * per_frame.shaded_per_sample
        + costs.deferred_mlp_ns * per_frame.pixels)
        / budget_ns;
    let composite = costs.composite_ns * per_frame.shaded / budget_ns;
    m.set("render.stage_share.decode", decode);
    m.set("render.stage_share.mlp", mlp);
    m.set("render.stage_share.composite", composite);
    m.set("render.stage_share.other", 1.0 - decode - mlp - composite);
}

/// Mean per-frame work counts over a fixed, seed-determined frame set.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameCounts {
    /// Samples marched (decoded).
    pub marched: f64,
    /// Samples with positive density (composited).
    pub shaded: f64,
    /// Shaded samples that ran the per-sample color MLP (zero on baked
    /// frames, which defer view dependence to one per-pixel MLP).
    pub shaded_per_sample: f64,
    /// Samples the occupancy pyramid skipped.
    pub skipped: f64,
    /// Pixels that ran the deferred MLP.
    pub pixels: f64,
}

impl FrameCounts {
    /// Means over `frames` of `(stats, deferred)` pairs.
    pub fn of(frames: &[(RenderStats, bool)]) -> Self {
        let n = frames.len().max(1) as f64;
        let sum = |f: &dyn Fn(&RenderStats, bool) -> usize| {
            frames.iter().map(|(s, d)| f(s, *d) as f64).sum::<f64>() / n
        };
        Self {
            marched: sum(&|s, _| s.samples_marched),
            shaded: sum(&|s, _| s.samples_shaded),
            shaded_per_sample: sum(&|s, d| if d { 0 } else { s.samples_shaded }),
            skipped: sum(&|s, _| s.samples_skipped),
            pixels: sum(&|s, _| s.pixels_shaded),
        }
    }

    /// Records the exact count metrics and ratios.
    pub fn record(&self, m: &mut Metrics) {
        m.set("core.samples_marched", self.marched);
        m.set("render.samples_shaded", self.shaded);
        m.set("render.samples_skipped", self.skipped);
        m.set("render.pixels_shaded", self.pixels);
        m.set("render.shade_ratio", ratio(self.shaded, self.marched));
        m.set("render.skip_ratio", ratio(self.skipped, self.marched + self.skipped));
    }
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Simulates each workload at the paper's 800×800 resolution under a
/// `accel.simulate_frame` span.
pub fn simulate_all(tracer: &Tracer, workloads: &[FrameWorkload]) -> Vec<FrameSimResult> {
    let arch = ArchConfig::default();
    workloads
        .iter()
        .map(|w| {
            let paper = w.at_paper_resolution();
            tracer.span("accel.simulate_frame", || simulate_frame(&paper, &arch))
        })
        .collect()
}

/// Records the cycle model's per-frame means and its engine split.
pub fn record_accel(tracer: &Tracer, sims: &[FrameSimResult], m: &mut Metrics) {
    let n = sims.len().max(1) as f64;
    let sum = |f: &dyn Fn(&FrameSimResult) -> u64| sims.iter().map(|s| f(s) as f64).sum::<f64>();
    let (sgpu, mlp, dram) =
        (sum(&|s| s.sgpu_cycles), sum(&|s| s.mlp_cycles), sum(&|s| s.dram_cycles));
    let engines = sgpu + mlp + dram;
    m.set("accel.sgpu_cycle_share", ratio(sgpu, engines));
    m.set("accel.mlp_cycle_share", ratio(mlp, engines));
    m.set("accel.dram_cycle_share", ratio(dram, engines));
    m.set("accel.cycles_per_frame", sum(&|s| s.cycles) / n);
    m.set("accel.dram_bytes_per_frame", sum(&|s| s.activity.dram_bytes) / n);
    let us = span_median_ms(tracer, "accel.simulate_frame").expect("frames were simulated") * 1e3;
    m.set("accel.simulate_us", us);
}

/// Per-frame temporal-reuse observations, folded into the `temporal.*`
/// metrics.
#[derive(Debug, Default)]
pub struct TemporalTally {
    frame0_ms: Vec<f64>,
    reuse_ms: Vec<f64>,
    warped: usize,
    rays: usize,
    remarched: Vec<f64>,
    max_validation_error: f32,
}

impl TemporalTally {
    /// Adds one host-timed frame.
    pub fn time(&mut self, frame_idx: usize, frame_ms: f64) {
        if frame_idx == 0 {
            self.frame0_ms.push(frame_ms);
        } else {
            self.reuse_ms.push(frame_ms);
        }
    }

    /// Adds one frame's exact counts (only frames of the fixed exact set).
    pub fn count(&mut self, frame_idx: usize, stats: &RenderStats, validation_error: f32) {
        if frame_idx > 0 {
            self.warped += stats.rays_warped;
            self.rays += stats.rays;
            self.remarched.push(stats.rays_remarched as f64);
        }
        self.max_validation_error = self.max_validation_error.max(validation_error);
    }

    /// Records `temporal.frame0_ms`, `reuse_frame_ms`, `reuse_ratio`,
    /// `rays_remarched` (mean per reuse frame) and `max_validation_error`.
    pub fn record(&self, m: &mut Metrics) {
        m.set("temporal.frame0_ms", median(&self.frame0_ms));
        m.set("temporal.reuse_frame_ms", median(&self.reuse_ms));
        m.set("temporal.reuse_ratio", ratio(self.warped as f64, self.rays as f64));
        m.set("temporal.rays_remarched", mean(&self.remarched));
        m.set("temporal.max_validation_error", f64::from(self.max_validation_error));
    }
}

/// Renders `spec` as a warped stream on `session` under
/// `trajectory.advance` spans — the temporal probe of workloads whose own
/// loop renders no trajectory.
pub fn probe_temporal(
    tracer: &Tracer,
    session: &RenderSession<'_>,
    spec: &TrajectorySpec,
) -> TemporalTally {
    let mut tally = TemporalTally::default();
    let mut stream = session.trajectory_stream(RenderSource::spnerf_masked(), ReuseMode::warp());
    stream.reset();
    for (k, camera) in spec.cameras().iter().enumerate() {
        let start = Instant::now();
        let (frame, _) = tracer.span("trajectory.advance", || stream.advance(camera));
        tally.time(k, ms(start.elapsed()));
        tally.count(k, &frame.stats, frame.validation_error);
    }
    stream.reset();
    tally
}

/// Builds every catalog scene and bakes it, each under a
/// `serve.scene_build` span (with `pipeline.build` and `render.bake`
/// children): what one cache miss rebuilds.
pub fn build_catalog(tracer: &Tracer, cfg: &ServeConfig, scenes: usize) -> Vec<Scene> {
    let catalog = Catalog::corpus(scenes, cfg.catalog);
    (0..scenes)
        .map(|i| {
            tracer.span("serve.scene_build", || {
                let scene =
                    tracer.span("pipeline.build", || catalog.build(i, cfg.render.samples_per_ray));
                tracer.span("render.bake", || scene.baked_grid());
                scene
            })
        })
        .collect()
}

/// Runs one serve trace under a `serve.run` span.
pub fn serve_once(
    tracer: &Tracer,
    rng: &mut Rng,
    cfg: &ServeConfig,
) -> (spnerf_serve::traffic::Trace, ServeOutcome, Duration) {
    let (tcfg, trace) = serve_trace(rng);
    let meta = RunMeta {
        trace_source: "synthetic".into(),
        seed: tcfg.seed,
        zipf_s: tcfg.zipf_s,
        duration_ticks: tcfg.duration_ticks,
    };
    let start = Instant::now();
    let outcome = tracer.span("serve.run", || run(&trace, cfg, &meta));
    let elapsed = start.elapsed();
    (trace, outcome, elapsed)
}

/// Records the serve layer's books over a fixed set of traces:
/// `serve.run_s` (median `serve.run` span), `serve.scene_build_ms`
/// (mean catalog rebuild × mean misses per trace), hit ratio, misses,
/// evictions and peak resident bytes.
pub fn record_serve(tracer: &Tracer, outcomes: &[&ServeOutcome], m: &mut Metrics) {
    let n = outcomes.len().max(1) as f64;
    let hits: u64 = outcomes.iter().map(|o| o.report.cache.hits).sum();
    let misses: u64 = outcomes.iter().map(|o| o.report.cache.misses).sum();
    let evictions: u64 = outcomes.iter().map(|o| o.report.cache.evictions).sum();
    let peak = outcomes.iter().map(|o| o.report.cache.peak_resident_bytes).max().unwrap_or(0);
    let build_ms = span_mean_ms(tracer, "serve.scene_build").expect("the catalog was built");
    m.set("serve.run_s", span_median_ms(tracer, "serve.run").expect("a trace ran") / 1e3);
    m.set("serve.scene_build_ms", build_ms * misses as f64 / n);
    m.set("serve.cache_hit_ratio", ratio(hits as f64, (hits + misses) as f64));
    m.set("serve.misses", misses as f64 / n);
    m.set("serve.evictions", evictions as f64 / n);
    m.set("serve.peak_resident_bytes", peak as f64);
}

/// The serve probe of workloads whose own loop serves no trace: build the
/// catalog once, run one seeded trace, record the serve layer.
pub fn probe_serve(tracer: &Tracer, seed: u64, m: &mut Metrics) {
    let cfg = ServeConfig::standard();
    let scenes = build_catalog(tracer, &cfg, 5);
    black_box(scenes);
    let mut rng = Rng::new(seed, crate::inputs::stream::PROBE);
    let (_, outcome, _) = serve_once(tracer, &mut rng, &cfg);
    record_serve(tracer, &[&outcome], m);
}

/// Whether two images are equal bit for bit (NaN- and signed-zero-exact).
pub fn bitwise_eq(
    a: &spnerf::render::image::ImageBuffer,
    b: &spnerf::render::image::ImageBuffer,
) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && a.pixels().iter().zip(b.pixels()).all(|(p, q)| {
            p.x.to_bits() == q.x.to_bits()
                && p.y.to_bits() == q.y.to_bits()
                && p.z.to_bits() == q.z.to_bits()
        })
}

/// Whether every pixel channel is finite.
pub fn all_finite(img: &spnerf::render::image::ImageBuffer) -> bool {
    img.pixels().iter().all(|p| p.x.is_finite() && p.y.is_finite() && p.z.is_finite())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or lacks the
/// field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line =
        status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 =
        line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).ok_or("unparsable VmHWM")?;
    Ok(kb / 1024.0)
}
