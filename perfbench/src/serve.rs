//! `serve-churn`: the render service under cache churn, one trace per
//! operation.
//!
//! Each operation calls `serve::server::run` on a fresh trace synthesized
//! from the seed, with `ServeConfig::standard()`: a 4 MB scene cache that
//! is smaller than the 5-scene working set and starts empty on every trace.
//! Arrivals are an open loop in virtual time (Poisson, mean gap 24 ticks,
//! Zipf s = 1.1 over the scenes); even views render masked, odd views
//! baked, and every 5th request is a 4-frame warped orbit. Cache misses
//! rebuild scenes (VQRF, hash tables, bake) next to cached renders of
//! 16×16 images. Host time measures the simulator's speed; ticks are the
//! modeled service.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use spnerf::render::eval::percentile;
use spnerf::render::scene::default_camera;
use spnerf::{RenderRequest, RenderSource};
use spnerf_serve::report::validate_report_json;
use spnerf_serve::server::{responses_digest, trajectory_spec, ServeConfig, ServeOutcome};
use spnerf_serve::traffic::{RequestKind, Trace, TRAJECTORY_FRAMES};
use spnerf_testkit::corpus::{Archetype, CorpusSpec, CORPUS_SEED};
use spnerf_testkit::digest::digest_image;
use spnerf_testkit::fixtures::{test_spnerf_config, test_vqrf_config};

use crate::inputs::{stream, Rng};
use crate::layers::{self, ms, BuildRecipe, FrameCounts};
use crate::stats::{mean, median, quantile};
use crate::tracer::Tracer;
use crate::{Args, Outcome, RunClock};

/// Catalog scenes every trace draws from.
const SCENES: usize = 5;
/// The first traces, whose exact metrics are reported and whose still
/// responses are re-rendered and checked; also the fewest traces a run
/// measures.
const EXACT_TRACES: usize = 24;
/// Timed catalog set-ups per untraced run, spread over the loop.
const SETUPS: usize = 15;
/// Lowest PSNR (dB) a served masked view may have against the ground truth.
const MASKED_PSNR_FLOOR_DB: f64 = 20.0;
/// Lowest PSNR (dB) a served baked view may have against the ground truth.
const BAKED_PSNR_FLOOR_DB: f64 = 10.0;

/// Checks one outcome's books; returns what is wrong.
fn books(trace: &Trace, o: &ServeOutcome) -> Vec<String> {
    let r = &o.report;
    let mut wrong = Vec::new();
    if let Err(e) = validate_report_json(&r.to_json()) {
        wrong.push(format!("report fails validation: {}", e.join("; ")));
    }
    for (t, tenant) in r.tenants.iter().enumerate() {
        if tenant.arrived != tenant.served + tenant.shed {
            wrong.push(format!("tenant {t}: arrived {} != served + shed", tenant.arrived));
        }
    }
    if r.requests != trace.requests.len() as u64 || r.served != o.responses.len() as u64 {
        wrong.push("request or response count mismatch".into());
    }
    if responses_digest(&o.responses) != r.responses_digest {
        wrong.push("responses digest mismatch".into());
    }
    let latencies: Vec<f64> = o.responses.iter().map(|x| x.latency as f64).collect();
    if !latencies.is_empty() && percentile(&latencies, 50.0) != r.latency_ticks.p50 {
        wrong.push("latency p50 disagrees with the responses".into());
    }
    wrong
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let cfg = ServeConfig::standard();
    // Set-up: the catalog every check re-renders from, each scene built
    // and baked the way a cache miss rebuilds it (under spans when traced).
    let set_up = || layers::build_catalog(tracer, &cfg, SCENES);
    let mut clock = RunClock::new(args, SETUPS);
    let scenes = if tracer.enabled() { set_up() } else { clock.set_up(set_up) };

    let traced = tracer.enabled();
    let mut rng = Rng::new(args.seed, stream::TRACES);
    let mut request_ms = Vec::new();
    let mut trace_s = Vec::new();
    let mut requests = 0u64;
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut kept: Vec<(Trace, ServeOutcome)> = Vec::new();
    clock.start();
    while clock.keep_going(trace_s.len(), EXACT_TRACES, set_up) {
        let op = trace_s.len();
        tracer.set_op(op as u64 + 1);
        tracer.set_enabled(traced && op % 2 == 0);
        let at = clock.now();
        let (trace, outcome, elapsed) = layers::serve_once(tracer, &mut rng, &cfg);
        out.attempted += 1;
        trace_s.push((at, elapsed.as_secs_f64()));
        requests += trace.requests.len() as u64;
        let per_request = ms(elapsed) / outcome.responses.len().max(1) as f64;
        request_ms.push((at, per_request));
        if traced {
            if op % 2 == 0 { &mut traced_ms } else { &mut untraced_ms }.push(per_request);
        }
        for why in books(&trace, &outcome) {
            out.fail(op, format!("trace {op}: {why}"));
        }
        if kept.len() < EXACT_TRACES {
            kept.push((trace, outcome));
        }
    }
    tracer.set_enabled(traced);
    tracer.set_op(0);

    // Output checks, outside the timed region: every distinct still view
    // served in the exact traces is re-rendered from the catalog and must
    // match the served image digest; its PSNR against the ground truth must
    // clear the floor of its source.
    let mut views: BTreeMap<(usize, usize), BTreeSet<(u64, usize)>> = BTreeMap::new();
    for (op, (trace, outcome)) in kept.iter().enumerate() {
        for r in &outcome.responses {
            if trace.requests[r.seq as usize].kind == RequestKind::Still {
                views.entry((r.scene, r.view)).or_default().insert((r.image_digest, op));
            }
        }
    }
    let px = cfg.catalog.image_px;
    let mut psnr = Vec::new();
    let mut fps = Vec::new();
    let mut render_ms = Vec::new();
    let mut frames = Vec::new();
    for ((scene, view), served) in views {
        let session = scenes[scene].session_with(cfg.render);
        let camera = default_camera(px, px, view, 8);
        let (source, floor) = if view % 2 == 0 {
            (RenderSource::spnerf_masked(), MASKED_PSNR_FLOOR_DB)
        } else {
            (RenderSource::Baked, BAKED_PSNR_FLOOR_DB)
        };
        let t0 = Instant::now();
        let r = session.render(&RenderRequest::single(source, camera)).expect("check render");
        render_ms.push(ms(t0.elapsed()));
        let gt = session
            .render(&RenderRequest::single(RenderSource::GroundTruth, camera))
            .expect("ground-truth render");
        let rendered = digest_image(&r.images[0]);
        let p = r.images[0].psnr(&gt.images[0]);
        for &(digest, op) in &served {
            if digest != rendered {
                out.fail(
                    op,
                    format!("scene {scene} view {view}: served image differs from a re-render"),
                );
            }
            if p.is_nan() || p < floor {
                out.fail(op, format!("scene {scene} view {view}: PSNR {p:.2} dB below {floor} dB"));
            }
        }
        psnr.push(p);
        let sims = layers::simulate_all(tracer, std::slice::from_ref(&r.workload));
        fps.push(sims[0].fps);
        frames.push((r.stats, source == RenderSource::Baked, r.workload));
    }

    let m = &mut out.metrics;
    if !traced {
        clock.record_setup(m);
        let raw: Vec<f64> = request_ms.iter().map(|r| r.1).collect();
        clock.report_raw("frame_ms.p50", quantile(&raw, 0.5));
        clock.report_raw("frame_ms.p90", quantile(&raw, 0.9));
        let raw_s: f64 = trace_s.iter().map(|t| t.1).sum();
        clock.report_raw("serve.requests_per_s", requests as f64 / raw_s);
        let scaled = clock.scaled(&request_ms);
        m.set("frame_ms.p50", quantile(&scaled, 0.5));
        m.set("frame_ms.p90", quantile(&scaled, 0.9));
        let scaled_s: f64 = clock.scaled(&trace_s).iter().sum();
        m.set("serve.requests_per_s", requests as f64 / scaled_s);
        let bytes: usize = scenes.iter().map(|s| s.model().footprint().total_bytes()).sum();
        m.set("model_mb", crate::mib(bytes));
        m.set("psnr_db", mean(&psnr));
        m.set("sim_fps", mean(&fps));
        let latencies: Vec<f64> =
            kept.iter().flat_map(|(_, o)| o.responses.iter().map(|r| r.latency as f64)).collect();
        m.set("serve.latency_ticks.p50", percentile(&latencies, 50.0));
        m.set("serve.latency_ticks.p95", percentile(&latencies, 95.0));
        let arrived: u64 = kept.iter().map(|(t, _)| t.requests.len() as u64).sum();
        let served: u64 = kept.iter().map(|(_, o)| o.report.served).sum();
        m.set("serve.admitted_share", served as f64 / arrived.max(1) as f64);
        return out;
    }

    // Per-layer numbers of the traced run. The render core is profiled on
    // the check renders (the served views); the temporal probe renders one
    // served-size orbit on the first catalog scene.
    let recipes: Vec<BuildRecipe<'_>> = (0..SCENES)
        .map(|i| {
            let spec = CorpusSpec::archetype_default(
                Archetype::ALL[i % Archetype::ALL.len()],
                cfg.catalog.side,
                CORPUS_SEED + i as u64,
            );
            BuildRecipe {
                grid: Box::new(move || spnerf_testkit::corpus::generate(&spec)),
                vqrf: test_vqrf_config(cfg.catalog.codebook),
                spnerf: test_spnerf_config(
                    cfg.catalog.subgrids,
                    cfg.catalog.table_size,
                    cfg.catalog.codebook,
                ),
            }
        })
        .collect();
    layers::probe_builds(tracer, &recipes, m);
    let counts = FrameCounts::of(&frames.iter().map(|f| (f.0, f.1)).collect::<Vec<_>>());
    counts.record(m);
    let workloads: Vec<_> = frames.iter().map(|f| f.2.clone()).collect();
    layers::record_accel(tracer, &layers::simulate_all(tracer, &workloads), m);
    let spec = trajectory_spec(0, 8, TRAJECTORY_FRAMES, px);
    let session = scenes[0].session_with(cfg.render);
    let costs = layers::probe_kernels(tracer, &scenes[0], &cfg.render, &spec.cameras());
    let workers = cfg.render.parallelism.max(1);
    layers::record_kernels(&costs, &counts, mean(&render_ms), workers, m);
    layers::probe_temporal(tracer, &session, &spec).record(m);
    m.set("trace.overhead_ms", median(&traced_ms) - median(&untraced_ms));
    let build = layers::span_mean_ms(tracer, "pipeline.build").expect("catalog built");
    m.set("pipeline.build_ms", build);
    let resident: Vec<f64> = scenes.iter().map(|s| s.resident_bytes() as f64).collect();
    m.set("pipeline.resident_bytes", mean(&resident));
    m.set("render.bake_ms", layers::span_mean_ms(tracer, "render.bake").expect("catalog baked"));
    let outcomes: Vec<&ServeOutcome> = kept.iter().map(|(_, o)| o).collect();
    layers::record_serve(tracer, &outcomes, m);
    out
}
