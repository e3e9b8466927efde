//! Runs the deterministic serve simulation and prints its report.
//!
//! ```text
//! cargo run --release -p spnerf-serve --bin spnerf_serve -- [--quick]
//!     [--seed N] [--duration-ticks N] [--cache-bytes N] [--zipf-s S]
//!     [--replay FILE] [--threads N] [--skip-mode off|mip|mip:N]
//! ```
//!
//! Stdout is **exactly one JSON document** (the schema-versioned report,
//! self-validated before printing); the human-readable summary goes to
//! stderr. Byte-diffing two stdout captures is the supported way to check
//! determinism — CI does exactly that across seeds and render worker
//! counts.
//!
//! `--replay FILE` serves a recorded trace (see
//! `spnerf_serve::traffic::Trace::to_replay`) instead of synthesizing
//! traffic; `--seed`/`--zipf-s`/`--duration-ticks` shape the synthetic
//! trace and are rejected-by-irrelevance only informally (they are echoed
//! into the report but do not alter a replay). `--duration-ticks` above
//! `spnerf_serve::traffic::MAX_DURATION_TICKS` exits 2 before synthesis.
//! Every flag not listed above — the figure binaries' `--corpus`,
//! `--source`, `--sparse-format`, `--trajectory` and `--reuse-mode`
//! included — exits 2 with usage.

use spnerf::cli::{self, ArgError, Flag, QUICK, SKIP_MODE, THREADS};
use spnerf::render::renderer::SkipMode;
use spnerf_serve::report::validate_report_json;
use spnerf_serve::server::{run, RunMeta, ServeConfig};
use spnerf_serve::traffic::{Trace, TrafficConfig, MAX_DURATION_TICKS};

const SEED: Flag = Flag {
    name: "--seed",
    value: Some("N"),
    help: "traffic-generator seed of the synthetic trace",
};
const DURATION_TICKS: Flag = Flag {
    name: "--duration-ticks",
    value: Some("N"),
    help: "virtual-clock horizon of the synthetic trace (1 to 1000000)",
};
const CACHE_BYTES: Flag =
    Flag { name: "--cache-bytes", value: Some("N"), help: "byte budget of the scene cache" };
const REPLAY: Flag = Flag {
    name: "--replay",
    value: Some("FILE"),
    help: "serve a recorded traffic trace instead of synthesizing one",
};
const ZIPF_S: Flag = Flag {
    name: "--zipf-s",
    value: Some("S"),
    help: "Zipf scene-popularity exponent of the synthetic trace, 0 = uniform",
};

/// The flags `spnerf_serve` reads.
const FLAGS: &[Flag] =
    &[QUICK, THREADS, SKIP_MODE, SEED, DURATION_TICKS, CACHE_BYTES, REPLAY, ZIPF_S];

/// A parsed `spnerf_serve` command line.
#[derive(Debug, Clone, PartialEq, Default)]
struct ServeArgs {
    quick: bool,
    threads: Option<usize>,
    skip_mode: SkipMode,
    seed: Option<u64>,
    duration_ticks: Option<u64>,
    cache_bytes: Option<usize>,
    replay: Option<String>,
    zipf_s: Option<f64>,
}

/// Parses the arguments after the program name (pure; `--threads` is
/// taken here without the environment fallback).
fn parse(args: &[String]) -> Result<ServeArgs, ArgError> {
    let bad = |flag: &'static str, v: &str| ArgError::BadValue { flag, value: v.to_string() };
    let mut args = args.to_vec();
    let mut out = ServeArgs { threads: cli::take_threads(&mut args, None)?, ..Default::default() };
    for (flag, v) in cli::split_flags(&args, FLAGS)? {
        match flag {
            "--quick" => out.quick = true,
            "--skip-mode" => out.skip_mode = cli::parse_skip_mode(v)?,
            "--seed" => out.seed = Some(v.parse().map_err(|_| bad(flag, v))?),
            "--duration-ticks" => {
                // A zero-tick run would emit a report over an empty sample
                // set; reject it at the surface instead of panicking in a
                // percentile.
                let ticks: u64 = v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| bad(flag, v))?;
                if ticks > MAX_DURATION_TICKS {
                    return Err(ArgError::TooLarge { flag, value: ticks, max: MAX_DURATION_TICKS });
                }
                out.duration_ticks = Some(ticks);
            }
            "--cache-bytes" => out.cache_bytes = Some(v.parse().map_err(|_| bad(flag, v))?),
            "--replay" if v.is_empty() => return Err(ArgError::MissingValue(flag)),
            "--replay" => out.replay = Some(v.to_string()),
            "--zipf-s" => {
                let s: f64 = v.parse().map_err(|_| bad(flag, v))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(flag, v));
                }
                out.zipf_s = Some(s);
            }
            _ => {} // `--help`
        }
    }
    Ok(out)
}

fn main() {
    let args = cli::parse_or_exit(FLAGS, |args, threads| Ok(ServeArgs { threads, ..parse(args)? }));

    let mut cfg = if args.quick { ServeConfig::quick() } else { ServeConfig::standard() };
    if let Some(threads) = args.threads {
        cfg.render.parallelism = threads;
    }
    cfg.render.skip_mode = args.skip_mode;
    if let Some(bytes) = args.cache_bytes {
        cfg.cache_bytes = bytes;
    }

    let defaults = TrafficConfig::default();
    let seed = args.seed.unwrap_or(defaults.seed);
    let zipf_s = args.zipf_s.unwrap_or(defaults.zipf_s);
    let duration =
        args.duration_ticks.unwrap_or(if args.quick { 2000 } else { defaults.duration_ticks });

    let (trace, meta) = match &args.replay {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("--replay {path}: {e}");
                std::process::exit(2);
            });
            let trace = Trace::parse_replay(&text).unwrap_or_else(|e| {
                eprintln!("--replay {path}: {e}");
                std::process::exit(2);
            });
            // The horizon of a replay is its last arrival; the seed and
            // Zipf knobs did not shape it, so the report echoes neutral
            // values rather than pretending.
            let duration = trace.requests.last().map_or(0, |r| r.tick);
            let meta = RunMeta {
                trace_source: "replay".to_string(),
                seed: 0,
                zipf_s: 0.0,
                duration_ticks: duration,
            };
            (trace, meta)
        }
        None => {
            let tc = TrafficConfig { seed, duration_ticks: duration, zipf_s, ..defaults };
            let meta = RunMeta {
                trace_source: "synthetic".to_string(),
                seed,
                zipf_s,
                duration_ticks: duration,
            };
            (Trace::synthesize(&tc), meta)
        }
    };

    eprintln!(
        "spnerf_serve: {} trace, {} requests, {} scenes, {} tenants, cache {} bytes",
        meta.trace_source,
        trace.requests.len(),
        trace.scenes,
        trace.tenants,
        cfg.cache_bytes,
    );

    let outcome = run(&trace, &cfg, &meta);
    let json = outcome.report.to_json();
    if let Err(errors) = validate_report_json(&json) {
        eprintln!("internal error: emitted report fails its own schema:");
        for e in &errors {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }

    let r = &outcome.report;
    eprintln!(
        "  served {} / shed {} over {} ticks ({:.1} per kilotick)",
        r.served, r.shed, r.final_tick, r.throughput_per_kilotick
    );
    eprintln!(
        "  latency ticks p50 {} p95 {} p99 {} (max {})",
        r.latency_ticks.p50, r.latency_ticks.p95, r.latency_ticks.p99, r.latency_ticks.max
    );
    eprintln!(
        "  cache: {} hits, {} misses, {} evictions, peak {} of {} bytes",
        r.cache.hits,
        r.cache.misses,
        r.cache.evictions,
        r.cache.peak_resident_bytes,
        r.cache.budget_bytes
    );
    print!("{json}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_toks(toks: &[&str]) -> Result<ServeArgs, ArgError> {
        parse(&toks.iter().map(|t| t.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flag_forms() {
        let all = parse_toks(&[
            "--quick",
            "--seed",
            "7",
            "--duration-ticks=4000",
            "--cache-bytes",
            "1500000",
            "--replay",
            "trace.txt",
            "--zipf-s=1.1",
            "--threads",
            "4",
            "--skip-mode=mip",
        ]);
        let expected = ServeArgs {
            quick: true,
            threads: Some(4),
            skip_mode: SkipMode::mip(),
            seed: Some(7),
            duration_ticks: Some(4000),
            cache_bytes: Some(1_500_000),
            replay: Some("trace.txt".to_string()),
            zipf_s: Some(1.1),
        };
        assert_eq!(all, Ok(expected));
        // Both token forms agree, like every other flag on the surface.
        assert_eq!(parse_toks(&["--seed=9"]).unwrap().seed, Some(9));
        assert_eq!(parse_toks(&["--cache-bytes=0"]).unwrap().cache_bytes, Some(0));
        assert_eq!(parse_toks(&["--replay=a/b.txt"]).unwrap().replay.as_deref(), Some("a/b.txt"));
        assert_eq!(parse_toks(&["--zipf-s", "0"]).unwrap().zipf_s, Some(0.0));
        let max = parse_toks(&["--duration-ticks", "1000000"]).unwrap();
        assert_eq!(max.duration_ticks, Some(MAX_DURATION_TICKS));
    }

    #[test]
    fn flags_reject_missing_and_malformed_values() {
        for flag in ["--seed", "--duration-ticks", "--cache-bytes", "--replay", "--zipf-s"] {
            assert_eq!(parse_toks(&[flag]), Err(ArgError::MissingValue(flag)), "{flag}");
        }
        assert_eq!(parse_toks(&["--replay="]), Err(ArgError::MissingValue("--replay")));
        for (flag, bad) in [
            ("--seed", "x"),
            ("--seed", "-1"),
            ("--duration-ticks", "0"),
            ("--duration-ticks", "soon"),
            ("--cache-bytes", "1MB"),
            ("--zipf-s", "-0.5"),
            ("--zipf-s", "inf"),
            ("--zipf-s", "NaN"),
        ] {
            let err = ArgError::BadValue { flag, value: bad.to_string() };
            assert_eq!(parse_toks(&[flag, bad]), Err(err), "`{flag} {bad}` must be rejected");
        }
        let too_large =
            ArgError::TooLarge { flag: "--duration-ticks", value: 1_000_001, max: 1_000_000 };
        assert_eq!(parse_toks(&["--duration-ticks", "1000001"]), Err(too_large));
    }

    #[test]
    fn figure_flags_are_unknown_here() {
        for line in [
            &["--corpus"][..],
            &["--source", "baked"],
            &["--sparse-format", "coo"],
            &["--trajectory", "orbit"],
            &["--reuse-mode", "off"],
        ] {
            assert_eq!(parse_toks(line), Err(ArgError::UnknownFlag(line[0].to_string())));
        }
        let usage = cli::usage("spnerf_serve", FLAGS);
        assert!(usage.contains("--replay FILE") && !usage.contains("--sparse-format"));
    }
}
