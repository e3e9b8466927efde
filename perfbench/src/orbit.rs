//! `orbit-warp`: temporal reuse, one trajectory frame per operation.
//!
//! A closed loop with one client and 1 render worker streams 8-frame
//! orbits of `mic` (2 % occupancy, the sparsest scene; same build point as
//! `stills`) through `TrajectoryStream::advance` with forward-warp reuse
//! and mip skipping. Each orbit starts at a seeded azimuth. Frame 0 of
//! every orbit is a full render, so `frame_ms.p90` tracks full renders and
//! `frame_ms.p50` tracks warped frames, where only disoccluded, edge and
//! validation rays re-march.

use std::time::Instant;

use spnerf::accel::{simulate_path, ArchConfig};
use spnerf::core::SpNerfConfig;
use spnerf::render::renderer::{RenderConfig, SkipMode};
use spnerf::render::scene::SceneId;
use spnerf::render::temporal::WarpConfig;
use spnerf::trajectory::ReuseMode;
use spnerf::voxel::vqrf::VqrfConfig;
use spnerf::{PipelineBuilder, RenderRequest, RenderSource, Scene};

use crate::inputs::{orbit_spec, stream, Rng};
use crate::layers::{self, ms, BuildRecipe, FrameCounts, TemporalTally};
use crate::stats::{mean, median};
use crate::tracer::Tracer;
use crate::{Args, Outcome, RunClock};

/// Image side of every frame.
const PX: u32 = 64;
/// Frames per orbit.
const FRAMES: usize = 8;
/// Render worker threads.
const WORKERS: usize = 1;
/// Timed set-ups per untraced run, spread over the loop.
const SETUPS: usize = 5;
/// Orbits rendered before the measured loop, never timed.
const WARMUP_ORBITS: usize = 1;
/// The first orbits, whose exact metrics are reported and whose frames
/// are checked against still and ground-truth renders; also the fewest
/// orbits a run measures (16 × 8 = 128 frames keep ten beyond p90).
const EXACT_ORBITS: usize = 16;
/// Lowest PSNR (dB) a streamed frame may have against the ground truth.
const PSNR_FLOOR_DB: f64 = 25.0;

fn spnerf_config() -> SpNerfConfig {
    SpNerfConfig { subgrid_count: 64, table_size: 32 * 1024, codebook_size: 4096 }
}

/// The paper's operating point over `mic` at grid side 64, mip skipping on.
fn builder() -> PipelineBuilder {
    PipelineBuilder::new(SceneId::Mic)
        .grid_side(64)
        .vqrf_config(VqrfConfig { codebook_size: 4096, ..VqrfConfig::default() })
        .spnerf_config(spnerf_config())
        .render_config(RenderConfig {
            parallelism: WORKERS,
            skip_mode: SkipMode::mip(),
            ..RenderConfig::default()
        })
}

/// Set-up: the scene plus the occupancy pyramid its skipping needs.
fn set_up() -> Scene {
    let scene = builder().build().expect("orbit scene builds");
    scene.occupancy_mip(RenderSource::spnerf_masked());
    scene
}

/// One kept frame of the exact orbits.
struct Kept {
    op: usize,
    orbit: usize,
    index: usize,
    camera: spnerf::render::camera::PinholeCamera,
    frame: spnerf::render::temporal::TemporalFrame,
    workload: spnerf::accel::FrameWorkload,
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = RunClock::new(args, SETUPS);
    // The traced run builds each stage under its own span, then the
    // pipeline once; the untraced run times whole set-ups.
    let scene = if tracer.enabled() {
        let recipe = BuildRecipe {
            grid: Box::new(|| spnerf::render::scene::build_grid(SceneId::Mic, 64)),
            vqrf: VqrfConfig { codebook_size: 4096, ..VqrfConfig::default() },
            spnerf: spnerf_config(),
        };
        layers::probe_builds(tracer, &[recipe], &mut out.metrics);
        tracer.span("pipeline.build", set_up)
    } else {
        clock.set_up(set_up)
    };
    let session = scene.session();
    let masked = RenderSource::spnerf_masked();
    // The largest validation error a warped frame may show. The documented
    // tolerance is asserted only at the property tests' small scales; at
    // 64×64 edge pixels may exceed it (docs/temporal.md), so the benchmark
    // flags runaway drift at twice the tolerance.
    let max_error = 2.0 * WarpConfig::default().tolerance;

    let mut traj = session.trajectory_stream(masked, ReuseMode::warp());
    let mut warm = Rng::new(args.seed, stream::WARMUP);
    for _ in 0..WARMUP_ORBITS {
        traj.reset();
        for camera in orbit_spec(&mut warm, FRAMES, PX).cameras() {
            traj.advance(&camera);
        }
    }

    let traced = tracer.enabled();
    let mut rng = Rng::new(args.seed, stream::ORBITS);
    let mut frames = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut tally = TemporalTally::default();
    let mut kept: Vec<Kept> = Vec::new();
    let mut orbit = 0;
    clock.start();
    while clock.keep_going(orbit, EXACT_ORBITS, set_up) {
        // Whole orbits are traced or untraced, alternately, so the overhead
        // compares like with like (full and warped frames).
        tracer.set_enabled(traced && orbit % 2 == 0);
        traj.reset();
        for (index, camera) in orbit_spec(&mut rng, FRAMES, PX).cameras().into_iter().enumerate() {
            let op = frames.len();
            tracer.set_op(op as u64 + 1);
            let at = clock.now();
            let t0 = Instant::now();
            let (frame, workload) = tracer.span("trajectory.advance", || traj.advance(&camera));
            let elapsed = ms(t0.elapsed());
            frames.push((at, elapsed));
            tally.time(index, elapsed);
            if traced {
                if orbit % 2 == 0 { &mut traced_ms } else { &mut untraced_ms }.push(elapsed);
            }
            out.attempted += 1;
            let s = &frame.stats;
            let rays = (PX * PX) as usize;
            let books = if index == 0 {
                s.rays_remarched == rays && s.rays_warped == 0
            } else {
                s.rays_warped + s.rays_remarched == rays
            };
            if !(frame.image.width() == PX
                && frame.image.height() == PX
                && layers::all_finite(&frame.image)
                && s.rays == rays
                && books)
            {
                out.fail(op, format!("orbit {orbit} frame {index}: malformed frame"));
            }
            if frame.validation_error > max_error {
                out.fail(
                    op,
                    format!(
                        "orbit {orbit} frame {index}: validation error {} over {max_error}",
                        frame.validation_error
                    ),
                );
            }
            if orbit < EXACT_ORBITS {
                tally.count(index, s, frame.validation_error);
                kept.push(Kept { op, orbit, index, camera, frame, workload });
            }
        }
        orbit += 1;
    }
    traj.reset();
    tracer.set_enabled(traced);
    tracer.set_op(0);

    // Output checks, outside the timed region: frame 0 equals the still
    // render of its camera bit for bit, and every kept frame clears a PSNR
    // floor against the ground truth.
    let still = scene.session();
    let mut psnr = Vec::new();
    for k in &kept {
        if k.index == 0 {
            let r = still.render(&RenderRequest::single(masked, k.camera)).expect("still render");
            if !layers::bitwise_eq(&k.frame.image, &r.images[0]) {
                out.fail(k.op, format!("orbit {} frame 0 differs from the still render", k.orbit));
            }
        }
        let gt = still
            .render(&RenderRequest::single(RenderSource::GroundTruth, k.camera))
            .expect("ground-truth render");
        let p = k.frame.image.psnr(&gt.images[0]);
        psnr.push(p);
        if p.is_nan() || p < PSNR_FLOOR_DB {
            out.fail(k.op, format!("orbit {} frame {}: PSNR {p:.2} dB", k.orbit, k.index));
        }
        still.clear_cache();
    }

    let m = &mut out.metrics;
    if !traced {
        clock.record_setup(m);
        crate::record_frames(m, &frames, &clock);
        m.set("model_mb", crate::mib(scene.model().footprint().total_bytes()));
        m.set("psnr_db", mean(&psnr));
        let arch = ArchConfig::default();
        let fps: Vec<f64> = (0..EXACT_ORBITS)
            .map(|o| {
                let paper: Vec<_> = kept
                    .iter()
                    .filter(|k| k.orbit == o)
                    .map(|k| k.workload.at_paper_resolution())
                    .collect();
                simulate_path(&paper, &arch).path_fps(&arch)
            })
            .collect();
        m.set("sim_fps", mean(&fps));
        crate::record_service_ticks(m, &kept.iter().map(|k| k.frame.stats).collect::<Vec<_>>());
        m.set("serve.admitted_share", 1.0);
        return out;
    }

    // Per-layer numbers of the traced run.
    let counts = FrameCounts::of(&kept.iter().map(|k| (k.frame.stats, false)).collect::<Vec<_>>());
    counts.record(m);
    let workloads: Vec<_> = kept.iter().map(|k| k.workload.clone()).collect();
    layers::record_accel(tracer, &layers::simulate_all(tracer, &workloads), m);
    tally.record(m);
    let spec = orbit_spec(&mut Rng::new(args.seed, stream::PROBE), 2, PX);
    let costs = layers::probe_kernels(tracer, &scene, &scene.render_config(), &spec.cameras());
    let frame_ms: Vec<f64> = frames.iter().map(|f| f.1).collect();
    layers::record_kernels(&costs, &counts, median(&frame_ms), WORKERS, m);
    m.set("trace.overhead_ms", median(&traced_ms) - median(&untraced_ms));
    crate::record_pipeline(tracer, &scene, m);
    layers::probe_serve(tracer, args.seed, m);
    out
}
