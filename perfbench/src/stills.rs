//! `stills`: the paper's own dataflow, one still frame per operation.
//!
//! A closed loop with one client renders distinct 64×64 views of `lego`
//! (grid side 64, codebook 4096, K = 64, T = 32 k) through
//! `RenderSession::render` with the masked SpNeRF decode, the per-sample
//! color MLP, no empty-space skipping and 2 tile workers. Every camera is a
//! fresh draw on the orbit shell and the session memo is cleared after each
//! frame, so every sample is hash-decoded and no render is ever recalled.

use std::time::Instant;

use spnerf::core::SpNerfConfig;
use spnerf::render::renderer::{RenderConfig, SkipMode};
use spnerf::render::scene::SceneId;
use spnerf::voxel::vqrf::VqrfConfig;
use spnerf::{PipelineBuilder, RenderRequest, RenderSource, Scene};

use crate::inputs::{orbit_spec, shell_camera, stream, Rng};
use crate::layers::{self, ms, BuildRecipe, FrameCounts};
use crate::stats::median;
use crate::tracer::Tracer;
use crate::{Args, Outcome, RunClock};

/// Image side of every frame.
const PX: u32 = 64;
/// Render worker threads.
const WORKERS: usize = 2;
/// Timed scene builds per untraced run, spread over the loop.
const SETUPS: usize = 3;
/// Frames rendered before the measured loop, never timed.
const WARMUP: usize = 2;
/// Fewest measured frames: p90 keeps ten samples beyond it.
const MIN_FRAMES: usize = 100;
/// The first frames, whose exact metrics (PSNR, counts, cycles, ticks)
/// are reported and whose PSNR is checked — a fixed, seed-determined set.
const EXACT: usize = 32;
/// Of those, the frames also re-rendered with 1 worker and compared bit
/// for bit.
const SERIAL_CHECKED: usize = 8;
/// Lowest PSNR (dB) a masked frame may have against the ground truth.
const PSNR_FLOOR_DB: f64 = 30.0;

/// The paper's operating point over `lego` at grid side 64.
fn builder() -> PipelineBuilder {
    PipelineBuilder::new(SceneId::Lego)
        .grid_side(64)
        .vqrf_config(VqrfConfig { codebook_size: 4096, ..VqrfConfig::default() })
        .spnerf_config(SpNerfConfig {
            subgrid_count: 64,
            table_size: 32 * 1024,
            codebook_size: 4096,
        })
        .render_config(RenderConfig {
            parallelism: WORKERS,
            skip_mode: SkipMode::Off,
            ..RenderConfig::default()
        })
}

fn recipe() -> BuildRecipe<'static> {
    BuildRecipe {
        grid: Box::new(|| spnerf::render::scene::build_grid(SceneId::Lego, 64)),
        vqrf: VqrfConfig { codebook_size: 4096, ..VqrfConfig::default() },
        spnerf: SpNerfConfig { subgrid_count: 64, table_size: 32 * 1024, codebook_size: 4096 },
    }
}

fn build() -> Scene {
    builder().build().expect("stills scene builds")
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = RunClock::new(args, SETUPS);
    // The traced run builds each stage under its own span, then the
    // pipeline once; the untraced run times whole builds.
    let scene = if tracer.enabled() {
        layers::probe_builds(tracer, &[recipe()], &mut out.metrics);
        tracer.span("pipeline.build", build)
    } else {
        clock.set_up(build)
    };
    let session = scene.session();
    let masked = RenderSource::spnerf_masked();

    let mut warm = Rng::new(args.seed, stream::WARMUP);
    for _ in 0..WARMUP {
        let request = RenderRequest::single(masked, shell_camera(&mut warm, PX));
        session.render(&request).expect("warm-up render");
        session.clear_cache();
    }

    let traced = tracer.enabled();
    let mut rng = Rng::new(args.seed, stream::STILLS);
    let mut frames = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut kept = Vec::new();
    clock.start();
    while clock.keep_going(frames.len(), MIN_FRAMES, build) {
        let op = frames.len();
        tracer.set_op(op as u64 + 1);
        // The traced run alternates traced and untraced frames; the
        // difference of their medians is the tracing overhead.
        tracer.set_enabled(traced && op % 2 == 0);
        let camera = shell_camera(&mut rng, PX);
        let request = RenderRequest::single(masked, camera);
        let at = clock.now();
        let t0 = Instant::now();
        let response = tracer.span("pipeline.render", || session.render(&request));
        let elapsed = ms(t0.elapsed());
        session.clear_cache();
        frames.push((at, elapsed));
        if traced {
            if op % 2 == 0 { &mut traced_ms } else { &mut untraced_ms }.push(elapsed);
        }
        out.attempted += 1;
        let ok = match &response {
            Ok(r) => {
                r.images.len() == 1
                    && r.images[0].width() == PX
                    && r.images[0].height() == PX
                    && layers::all_finite(&r.images[0])
                    && r.stats.rays == (PX * PX) as usize
                    && r.stats.samples_shaded <= r.stats.samples_marched
            }
            Err(_) => false,
        };
        if !ok {
            out.fail(op, format!("frame {op}: malformed response {:?}", response.as_ref().err()));
            continue;
        }
        if kept.len() < EXACT {
            let r = response.expect("checked above");
            kept.push((op, camera, r.images[0].clone(), r.stats, r.workload));
        }
    }
    tracer.set_enabled(traced);
    tracer.set_op(0);

    // Output checks, outside the timed region: PSNR against the ground
    // truth, and bitwise equality with a 1-worker re-render.
    let serial = scene.session_with(RenderConfig { parallelism: 1, ..scene.render_config() });
    let mut psnr = Vec::new();
    for (i, (op, camera, image, _, _)) in kept.iter().enumerate() {
        let gt = session
            .render(&RenderRequest::single(RenderSource::GroundTruth, *camera))
            .expect("ground-truth render");
        let p = image.psnr(&gt.images[0]);
        psnr.push(p);
        if p.is_nan() || p < PSNR_FLOOR_DB {
            out.fail(*op, format!("frame {op}: PSNR {p:.2} dB below {PSNR_FLOOR_DB} dB"));
        }
        session.clear_cache();
        if i < SERIAL_CHECKED {
            let again =
                serial.render(&RenderRequest::single(masked, *camera)).expect("serial render");
            if !layers::bitwise_eq(image, &again.images[0]) {
                out.fail(
                    *op,
                    format!("frame {op}: 2-worker image differs from the 1-worker render"),
                );
            }
            serial.clear_cache();
        }
    }

    let stats: Vec<_> = kept.iter().map(|k| (k.3, false)).collect();
    let workloads: Vec<_> = kept.iter().map(|k| k.4.clone()).collect();
    let sims = layers::simulate_all(tracer, &workloads);
    let m = &mut out.metrics;
    if !traced {
        clock.record_setup(m);
        crate::record_frames(m, &frames, &clock);
        m.set("model_mb", crate::mib(scene.model().footprint().total_bytes()));
        m.set("psnr_db", crate::stats::mean(&psnr));
        m.set("sim_fps", crate::stats::mean(&sims.iter().map(|s| s.fps).collect::<Vec<_>>()));
        crate::record_service_ticks(m, &kept.iter().map(|k| k.3).collect::<Vec<_>>());
        m.set("serve.admitted_share", 1.0);
        return out;
    }

    // Per-layer numbers of the traced run.
    let counts = FrameCounts::of(&stats);
    counts.record(m);
    layers::record_accel(tracer, &sims, m);
    let spec = orbit_spec(&mut Rng::new(args.seed, stream::PROBE), 8, PX);
    let costs = layers::probe_kernels(tracer, &scene, &scene.render_config(), &spec.cameras());
    let frame_ms: Vec<f64> = frames.iter().map(|f| f.1).collect();
    layers::record_kernels(&costs, &counts, median(&frame_ms), WORKERS, m);
    layers::probe_temporal(tracer, &session, &spec).record(m);
    m.set("trace.overhead_ms", median(&traced_ms) - median(&untraced_ms));
    crate::record_pipeline(tracer, &scene, m);
    layers::probe_serve(tracer, args.seed, m);
    out
}
