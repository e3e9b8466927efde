//! `spnerf-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stills|orbit-warp|serve-churn> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload from seeded inputs for at least `--seconds`, checks
//! every output, and prints one JSON line: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Layers are timed from outside, by wrapping calls
//! to their public functions in spans (see [`tracer`]); the traced run
//! writes its spans to `.perfbench/`. See `perfbench/README.md`.

mod cli;
mod exact;
mod inputs;
mod layers;
mod metrics;
mod orbit;
mod serve;
mod speed;
mod stats;
mod stills;
mod tracer;

use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spnerf::render::eval::percentile;
use spnerf::render::renderer::RenderStats;
use spnerf::Scene;
use spnerf_serve::server::service_ticks;

pub use cli::{Args, Workload};
use metrics::{Metrics, END_TO_END, PER_LAYER};
use tracer::Tracer;

/// Where runs leave their span files and exact-metric records, relative to
/// the working directory.
const OUT_DIR: &str = ".perfbench";

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations run.
    pub attempted: u64,
    /// Operations whose output failed a check.
    failed_ops: BTreeSet<usize>,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Everything measured.
    pub metrics: Metrics,
}

impl Outcome {
    /// Marks operation `op` failed (once, however many of its checks fail).
    pub fn fail(&mut self, op: usize, why: String) {
        self.failed_ops.insert(op);
        self.problems.push(why);
    }

    /// Operations with at least one failed check.
    pub fn failed(&self) -> u64 {
        self.failed_ops.len() as u64
    }
}

/// Loop time between two samples of the speed reference.
const PROBE_EVERY: Duration = Duration::from_millis(250);

/// The measured loop's clock, the set-up it repeats, and the machine-speed
/// reference it samples.
///
/// Host speed on a shared machine drifts over seconds, so one set-up timed
/// before the loop would catch whatever burst the machine was in then.
/// Instead the untraced run sets up `repeats` times, spread evenly over the
/// loop (the first before it), and `setup_s` is the median. It also samples
/// the [`speed::SpeedProbe`] every [`PROBE_EVERY`] of loop time. Repeated
/// set-ups and probe samples run between operations; the loop clock pauses
/// while they run, so operations still get the whole run length.
#[derive(Debug)]
pub struct RunClock {
    run_for: Duration,
    repeats: usize,
    /// `(loop time, seconds)` of each timed set-up.
    setup_s: Vec<(Duration, f64)>,
    probe: Option<speed::SpeedProbe>,
    next_probe: Duration,
    start: Instant,
    paused: Duration,
}

impl RunClock {
    /// A clock for a loop of `args.seconds`, with `repeats` timed set-ups.
    /// The traced run, which builds layer by layer under spans and reports
    /// raw per-layer times, neither repeats set-ups nor samples the probe.
    pub fn new(args: &Args, repeats: usize) -> Self {
        Self {
            run_for: Duration::from_secs(args.seconds),
            repeats: if args.trace { 0 } else { repeats },
            setup_s: Vec::new(),
            probe: (!args.trace).then(speed::SpeedProbe::new),
            next_probe: Duration::ZERO,
            start: Instant::now(),
            paused: Duration::ZERO,
        }
    }

    /// Loop time: wall time since [`RunClock::start`] minus the pauses for
    /// repeated set-ups and probe samples.
    pub fn now(&self) -> Duration {
        self.start.elapsed() - self.paused
    }

    /// The machine's slowdown against the speed reference around loop time
    /// `at` (1 when the probe is off).
    fn slowdown_at(&self, at: Duration) -> f64 {
        self.probe.as_ref().map_or(1.0, |p| p.slowdown_at(at))
    }

    /// Runs and times one set-up.
    pub fn set_up<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let at = self.now();
        let t0 = Instant::now();
        let out = f();
        self.setup_s.push((at, t0.elapsed().as_secs_f64()));
        out
    }

    /// Starts the measured loop.
    pub fn start(&mut self) {
        self.start = Instant::now();
        self.paused = Duration::ZERO;
    }

    /// Whether the loop runs another operation: until it has run `ops ≥
    /// min_ops` operations and measured for the run length. Runs a repeated
    /// set-up and samples the speed probe first when they are due.
    pub fn keep_going<T>(
        &mut self,
        ops: usize,
        min_ops: usize,
        set_up: impl FnOnce() -> T,
    ) -> bool {
        let elapsed = self.now();
        let t0 = Instant::now();
        let done = self.setup_s.len();
        if done < self.repeats && elapsed >= self.run_for.mul_f64(done as f64 / self.repeats as f64)
        {
            drop(self.set_up(set_up));
        }
        if let Some(probe) = self.probe.as_mut().filter(|_| elapsed >= self.next_probe) {
            probe.sample(elapsed);
            self.next_probe = elapsed + PROBE_EVERY;
        }
        self.paused += t0.elapsed();
        ops < min_ops || elapsed < self.run_for
    }

    /// Host times `(loop time, value)` at the reference speed.
    pub fn scaled(&self, raw: &[(Duration, f64)]) -> Vec<f64> {
        raw.iter().map(|(at, v)| v / self.slowdown_at(*at)).collect()
    }

    /// Records `setup_s`, the median set-up time at the reference speed.
    pub fn record_setup(&self, m: &mut Metrics) {
        let raw: Vec<f64> = self.setup_s.iter().map(|(_, s)| *s).collect();
        self.report_raw("setup_s", stats::median(&raw));
        m.set("setup_s", stats::median(&self.scaled(&self.setup_s)));
    }

    /// Writes a raw host figure and the run's median slowdown to stderr.
    pub fn report_raw(&self, name: &str, raw: f64) {
        let slowdown = self.probe.as_ref().map_or(1.0, speed::SpeedProbe::overall);
        eprintln!("perfbench: {name} raw {raw} at slowdown {slowdown}");
    }
}

/// Bytes → MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// `frame_ms.p50`/`p90` over every measured frame (`(loop time, ms)`), and
/// frames per second of render time as `serve.requests_per_s` (one request
/// per frame for a single closed-loop client), all at the reference speed.
pub fn record_frames(m: &mut Metrics, frames: &[(Duration, f64)], clock: &RunClock) {
    assert!(stats::samples_beyond(frames.len(), 0.9) >= 10, "p90 needs ten samples beyond it");
    let raw: Vec<f64> = frames.iter().map(|(_, ms)| *ms).collect();
    clock.report_raw("frame_ms.p50", stats::quantile(&raw, 0.5));
    clock.report_raw("frame_ms.p90", stats::quantile(&raw, 0.9));
    clock.report_raw("serve.requests_per_s", raw.len() as f64 * 1e3 / raw.iter().sum::<f64>());
    let scaled = clock.scaled(frames);
    m.set("frame_ms.p50", stats::quantile(&scaled, 0.5));
    m.set("frame_ms.p90", stats::quantile(&scaled, 0.9));
    m.set("serve.requests_per_s", scaled.len() as f64 * 1e3 / scaled.iter().sum::<f64>());
}

/// `serve.latency_ticks.p50`/`p95` of frames outside the service: the serve
/// layer's own cost model (`service_ticks`, nothing paged in) charged per
/// frame, nearest-rank like the serve report.
pub fn record_service_ticks(m: &mut Metrics, frames: &[RenderStats]) {
    let ticks: Vec<f64> = frames.iter().map(|s| service_ticks(s, 0) as f64).collect();
    m.set("serve.latency_ticks.p50", percentile(&ticks, 50.0));
    m.set("serve.latency_ticks.p95", percentile(&ticks, 95.0));
}

/// `pipeline.build_ms` (the `pipeline.build` spans so far),
/// `pipeline.resident_bytes` of the built scene, then the bake of that
/// scene under a `render.bake` span and `render.bake_ms`.
pub fn record_pipeline(tracer: &Tracer, scene: &Scene, m: &mut Metrics) {
    let build = layers::span_mean_ms(tracer, "pipeline.build").expect("the scene was built");
    m.set("pipeline.build_ms", build);
    m.set("pipeline.resident_bytes", scene.resident_bytes() as f64);
    tracer.span("render.bake", || scene.baked_grid());
    m.set("render.bake_ms", layers::span_mean_ms(tracer, "render.bake").expect("baked"));
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut outcome = match args.workload {
        Workload::Stills => stills::run(&args, &tracer),
        Workload::OrbitWarp => orbit::run(&args, &tracer),
        Workload::ServeChurn => serve::run(&args, &tracer),
    };
    let failed = outcome.failed();
    let m = &mut outcome.metrics;
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| tracer.write_json(&path)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    } else {
        match layers::peak_rss_mb() {
            Ok(mb) => m.set("peak_rss_mb", mb),
            Err(e) => {
                eprintln!("perfbench: peak RSS unavailable: {e}");
                return ExitCode::FAILURE;
            }
        }
        m.set("ok_share", 1.0 - failed as f64 / outcome.attempted.max(1) as f64);
    }
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let selected = match m.select(catalog) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("perfbench: incomplete metric set: {e}");
            return ExitCode::FAILURE;
        }
    };
    match exact::check_repeat(Path::new(OUT_DIR), &args, &selected) {
        Ok(()) => {}
        Err(e) => outcome.problems.push(e),
    }
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = outcome.problems.is_empty();
    println!("{}", metrics::result_line(correct, outcome.attempted, failed, &selected));
    ExitCode::SUCCESS
}
