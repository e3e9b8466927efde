//! The figure/table binaries' flags, on the [`spnerf::cli`] grammar.
//!
//! Every binary in `src/bin/` declares the flags it reads — one of the
//! per-binary lists below, always including [`QUICK`] and [`THREADS`] so
//! one command line drives every figure — and every other flag is an
//! [`ArgError::UnknownFlag`] (exit 2 with usage), exactly like a typo. A
//! flag the binary would silently ignore makes a figure run at the wrong
//! settings while looking successful, which is strictly worse than failing
//! loudly. The lists are pinned by this module's tests: a flag belongs to a
//! binary only if it changes that binary's output or the work it runs.
//!
//! [`parse`] is the pure, testable core; [`parse_or_exit`] is the binary
//! entry point (usage on `--help`, exit 2 on errors, the `SPNERF_THREADS`
//! fallback) through [`spnerf::cli::parse_or_exit`].

use spnerf::cli::{split_flags, ArgError, Flag, QUICK, SKIP_MODE, THREADS};
use spnerf::render::renderer::SkipMode;
use spnerf::render::temporal::{ReuseMode, TrajectorySpec};
use spnerf::voxel::sparse::{FormatKind, FormatSelection};

/// Which primary data path a harness run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceMode {
    /// The SpNeRF masked decode through the per-sample color MLP (the
    /// paper's pipeline; default).
    #[default]
    SpNerf,
    /// The baked grid through the deferred per-pixel view-dependence MLP
    /// (the bake-and-defer path).
    Baked,
}

impl SourceMode {
    /// The token the CLI accepts for this mode.
    pub fn name(&self) -> &'static str {
        match self {
            SourceMode::SpNerf => "spnerf",
            SourceMode::Baked => "baked",
        }
    }
}

/// Which deterministic camera path `--trajectory` selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrajectoryKind {
    /// A fixed-step orbit around the scene center.
    Orbit,
    /// A straight dolly toward the scene center.
    Dolly,
    /// An orbit pose with seeded handheld jitter.
    Jitter,
}

impl TrajectoryKind {
    /// Every path kind, in CLI-token order.
    pub const ALL: [TrajectoryKind; 3] =
        [TrajectoryKind::Orbit, TrajectoryKind::Dolly, TrajectoryKind::Jitter];

    /// The token the CLI accepts for this path.
    pub fn name(&self) -> &'static str {
        match self {
            TrajectoryKind::Orbit => "orbit",
            TrajectoryKind::Dolly => "dolly",
            TrajectoryKind::Jitter => "jitter",
        }
    }

    /// The deterministic camera path this kind names, at the given frame
    /// count and square image size. The jitter seed is pinned so two runs
    /// of the same command line render the same frames.
    pub fn spec(&self, frames: usize, image: u32) -> TrajectorySpec {
        match self {
            TrajectoryKind::Orbit => TrajectorySpec::orbit(frames, image, image),
            TrajectoryKind::Dolly => TrajectorySpec::dolly(frames, image, image),
            TrajectoryKind::Jitter => TrajectorySpec::jitter(frames, image, image, 17),
        }
    }
}

/// `--corpus`: sweep the five procedural archetypes instead of the eight
/// scenes.
pub const CORPUS: Flag = Flag {
    name: "--corpus",
    value: None,
    help: "sweep the 5 procedural corpus archetypes instead of the 8 scenes",
};

/// `--source spnerf|baked`: the primary data path ([`SourceMode`]).
pub const SOURCE: Flag = Flag {
    name: "--source",
    value: Some("MODE"),
    help: "primary data path: spnerf (default) or baked — the bake-and-defer\n\
           path whose small view MLP runs once per pixel, not per sample",
};

/// `--sparse-format auto|bitmap|coo|csr|csc|rank|block`: the occupancy-index
/// encoding.
pub const SPARSE_FORMAT: Flag = Flag {
    name: "--sparse-format",
    value: Some("F"),
    help: "sparse occupancy-index encoding: auto (default), bitmap, coo,\n\
           csr, csc, rank, or block; images are identical in every format",
};

/// `--trajectory orbit|dolly|jitter`: one camera path ([`TrajectoryKind`]).
pub const TRAJECTORY: Flag = Flag {
    name: "--trajectory",
    value: Some("PATH"),
    help: "camera path to sweep: orbit, dolly, or jitter (default: all three)",
};

/// `--reuse-mode off|warp`: one frame-to-frame reuse policy.
pub const REUSE_MODE: Flag = Flag {
    name: "--reuse-mode",
    value: Some("MODE"),
    help: "frame-to-frame reuse: off or warp (default: both, plus the\n\
           amortization ratio)",
};

/// `table1_platforms` prints a static table.
pub const TABLE1_PLATFORMS: &[Flag] = &[QUICK, THREADS];
/// `fig2_profiling`: its workload columns move with skipping and the
/// source, its rows with the sweep.
pub const FIG2_PROFILING: &[Flag] = &[QUICK, THREADS, SKIP_MODE, CORPUS, SOURCE];
/// `fig6_memory_psnr` prints footprints and PSNRs only.
pub const FIG6_MEMORY_PSNR: &[Flag] = &[QUICK, THREADS, SKIP_MODE, CORPUS];
/// `fig7_sweeps` prints PSNRs of the dataset scenes only.
pub const FIG7_SWEEPS: &[Flag] = &[QUICK, THREADS, SKIP_MODE];
/// `fig8_speedup_energy` simulates the primary workload, format traffic
/// included.
pub const FIG8_SPEEDUP_ENERGY: &[Flag] = &[QUICK, THREADS, SKIP_MODE, SOURCE, SPARSE_FORMAT];
/// `fig8_formats` always replays the masked SpNeRF workload.
pub const FIG8_FORMATS: &[Flag] = &[QUICK, THREADS, SKIP_MODE, CORPUS, SPARSE_FORMAT];
/// `fig9_area_power` simulates the primary lego workload.
pub const FIG9_AREA_POWER: &[Flag] = &[QUICK, THREADS, SKIP_MODE, SOURCE, SPARSE_FORMAT];
/// `fig9_temporal`, the only binary that renders camera paths.
pub const FIG9_TEMPORAL: &[Flag] =
    &[QUICK, THREADS, SKIP_MODE, CORPUS, SOURCE, SPARSE_FORMAT, TRAJECTORY, REUSE_MODE];
/// `table2_comparison` simulates the primary workload of every scene.
pub const TABLE2_COMPARISON: &[Flag] = &[QUICK, THREADS, SKIP_MODE, SOURCE, SPARSE_FORMAT];
/// `ablation_preprocess` prints PSNRs and collision counts only.
pub const ABLATION_PREPROCESS: &[Flag] = &[QUICK, THREADS, SKIP_MODE];

/// Parsed harness arguments; a flag the binary does not declare never
/// gets here, so every field is at its default unless the binary reads it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HarnessArgs {
    /// `--quick`: reduced-fidelity preset.
    pub quick: bool,
    /// `--threads N` / `--threads=N`: render worker count (`0` = all cores).
    pub threads: Option<usize>,
    /// `--corpus`: sweep the five procedural archetypes instead of the
    /// eight Synthetic-NeRF scenes.
    pub corpus: bool,
    /// `--skip-mode off|mip|mip:N`: empty-space skipping policy. Images are
    /// bitwise-identical in every mode; `mip` drops marched samples (and
    /// the cycles derived from them) through the occupancy pyramid,
    /// `mip:N` caps the coarsest pyramid level consulted at `N`.
    pub skip_mode: SkipMode,
    /// `--source spnerf|baked`: the primary data path measurements flow
    /// from. `baked` renders the baked grid with the deferred per-pixel
    /// MLP, collapsing the workload's MLP column from samples to pixels.
    pub source: SourceMode,
    /// `--sparse-format auto|bitmap|coo|csr|csc|rank|block`: the sparse
    /// occupancy-index encoding (default `auto`, the occupancy-statistics
    /// selector). Images are bitwise-identical in every format; the choice
    /// moves per-lookup metadata traffic and resident bytes.
    pub sparse_format: FormatSelection,
    /// `--trajectory orbit|dolly|jitter`: restrict `fig9_temporal` to one
    /// deterministic camera path (default: sweep all three).
    pub trajectory: Option<TrajectoryKind>,
    /// `--reuse-mode off|warp`: restrict `fig9_temporal` to one
    /// frame-to-frame reuse policy (default: measure both and report the
    /// amortization ratio).
    pub reuse_mode: Option<ReuseMode>,
}

/// Parses harness arguments (without the leading program name) against
/// the `flags` a binary declares. Pure: never consults the environment or
/// exits; `--help` is accepted and ignored here ([`parse_or_exit`] acts on
/// it).
///
/// # Errors
///
/// Returns [`ArgError`] for undeclared flags, positionals, and missing or
/// malformed values.
pub fn parse(args: &[String], flags: &[Flag]) -> Result<HarnessArgs, ArgError> {
    let bad = |flag: &'static str, v: &str| ArgError::BadValue { flag, value: v.to_string() };
    let mut args = args.to_vec();
    let mut out =
        HarnessArgs { threads: spnerf::cli::take_threads(&mut args, None)?, ..Default::default() };
    for (flag, v) in split_flags(&args, flags)? {
        match flag {
            "--quick" => out.quick = true,
            "--corpus" => out.corpus = true,
            "--skip-mode" => out.skip_mode = spnerf::cli::parse_skip_mode(v)?,
            "--source" => {
                out.source = match v {
                    "spnerf" => SourceMode::SpNerf,
                    "baked" => SourceMode::Baked,
                    _ => return Err(bad(flag, v)),
                }
            }
            "--sparse-format" => {
                out.sparse_format = match v {
                    "auto" => FormatSelection::Auto,
                    _ => FormatKind::from_name(v)
                        .map(FormatSelection::Fixed)
                        .ok_or_else(|| bad(flag, v))?,
                }
            }
            "--trajectory" => {
                let kind = TrajectoryKind::ALL.into_iter().find(|k| k.name() == v);
                out.trajectory = Some(kind.ok_or_else(|| bad(flag, v))?);
            }
            "--reuse-mode" => {
                out.reuse_mode = Some(match v {
                    "off" => ReuseMode::Off,
                    "warp" => ReuseMode::warp(),
                    _ => return Err(bad(flag, v)),
                })
            }
            _ => {} // `--help`
        }
    }
    Ok(out)
}

/// Parses the process arguments of a binary that declares `flags`:
/// `--help` prints usage and exits 0, a parse error exits 2, and without a
/// `--threads` flag the `SPNERF_THREADS` environment variable applies.
pub fn parse_or_exit(flags: &[Flag]) -> HarnessArgs {
    spnerf::cli::parse_or_exit(flags, |args, threads| {
        Ok(HarnessArgs { threads, ..parse(args, flags)? })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag any figure binary reads.
    const ALL: &[Flag] = FIG9_TEMPORAL;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    /// [`parse`] over every figure flag.
    fn parse_all(s: &[&str]) -> Result<HarnessArgs, ArgError> {
        parse(&args(s), ALL)
    }

    /// Asserts `flag` parses each good value in both token forms and
    /// rejects each bad one as [`ArgError::BadValue`].
    fn check_values<T: PartialEq + std::fmt::Debug>(
        flag: &'static str,
        field: impl Fn(HarnessArgs) -> T,
        good: &[(&str, T)],
        bad: &[&str],
    ) {
        for (v, expected) in good {
            assert_eq!(parse_all(&[flag, v]).map(&field).as_ref(), Ok(expected), "{flag} {v}");
            let eq_form = format!("{flag}={v}");
            assert_eq!(parse_all(&[&eq_form]).map(&field).as_ref(), Ok(expected), "{eq_form}");
        }
        for v in bad {
            let err = ArgError::BadValue { flag, value: v.to_string() };
            assert_eq!(parse_all(&[flag, v]), Err(err), "`{flag} {v}` must be rejected");
        }
        assert_eq!(parse_all(&[flag]), Err(ArgError::MissingValue(flag)));
    }

    #[test]
    fn accepts_the_shared_surface() {
        assert_eq!(parse_all(&[]), Ok(HarnessArgs::default()));
        assert_eq!(
            parse_all(&["--corpus", "--quick", "--threads", "4"]),
            Ok(HarnessArgs { quick: true, corpus: true, threads: Some(4), ..Default::default() })
        );
        assert_eq!(parse_all(&["--threads=0"]).map(|a| a.threads), Ok(Some(0)));
        // `--help` is accepted everywhere; the entry point acts on it.
        for bin in [TABLE1_PLATFORMS, FIG7_SWEEPS] {
            assert_eq!(parse(&args(&["--quick", "-h", "--help"]), bin).map(|a| a.quick), Ok(true));
        }
    }

    #[test]
    fn each_binary_accepts_exactly_the_flags_it_reads() {
        let sample = |flag: &Flag| match flag.value {
            Some(_) => {
                let v = match flag.name {
                    "--skip-mode" => "mip",
                    "--source" => "baked",
                    "--sparse-format" => "coo",
                    "--trajectory" => "orbit",
                    "--reuse-mode" => "warp",
                    _ => "2",
                };
                args(&[flag.name, v])
            }
            None => args(&[flag.name]),
        };
        let bins = [
            TABLE1_PLATFORMS,
            FIG2_PROFILING,
            FIG6_MEMORY_PSNR,
            FIG7_SWEEPS,
            FIG8_SPEEDUP_ENERGY,
            FIG8_FORMATS,
            FIG9_AREA_POWER,
            FIG9_TEMPORAL,
            TABLE2_COMPARISON,
            ABLATION_PREPROCESS,
        ];
        for flags in bins {
            assert!(flags.starts_with(&[QUICK, THREADS]), "every binary takes the shared pair");
            for flag in ALL {
                let parsed = parse(&sample(flag), flags);
                if flags.contains(flag) {
                    assert!(parsed.is_ok(), "{flags:?} must accept {flag:?}: {parsed:?}");
                } else {
                    assert_eq!(parsed, Err(ArgError::UnknownFlag(flag.name.to_string())));
                }
            }
            // The serve surface belongs to `spnerf_serve` alone.
            for serve in ["--seed", "--duration-ticks", "--cache-bytes", "--replay", "--zipf-s"] {
                let err = ArgError::UnknownFlag(serve.to_string());
                assert_eq!(parse(&args(&[serve, "7"]), flags), Err(err));
            }
        }
        // The accepted-and-ignored combinations that used to exit 0: none
        // of these changes the binary's output.
        let reads = |flags: &[Flag], flag: Flag| flags.contains(&flag);
        for flag in [CORPUS, SKIP_MODE, TRAJECTORY] {
            assert!(!reads(TABLE1_PLATFORMS, flag));
        }
        for flags in [FIG6_MEMORY_PSNR, FIG7_SWEEPS, ABLATION_PREPROCESS] {
            assert!(!reads(flags, SOURCE) && !reads(flags, SPARSE_FORMAT));
        }
        assert!(!reads(FIG2_PROFILING, SPARSE_FORMAT) && !reads(FIG8_FORMATS, SOURCE));
        assert!(bins.iter().filter(|b| reads(b, TRAJECTORY) || reads(b, REUSE_MODE)).count() == 1);
    }

    #[test]
    fn skip_mode_flag_forms() {
        assert_eq!(parse_all(&[]).unwrap().skip_mode, SkipMode::Off);
        let good = [
            ("off", SkipMode::Off),
            ("mip", SkipMode::mip()),
            ("mip:2", SkipMode::Mip { levels: 2 }),
            ("mip:0", SkipMode::Mip { levels: 0 }),
        ];
        check_values("--skip-mode", |a| a.skip_mode, &good, &["mips", "on", "mip:", "mip:x", ""]);
    }

    #[test]
    fn source_flag_forms() {
        assert_eq!(parse_all(&[]).unwrap().source, SourceMode::SpNerf);
        let good = [("spnerf", SourceMode::SpNerf), ("baked", SourceMode::Baked)];
        check_values("--source", |a| a.source, &good, &["bake", "deferred", "BAKED", ""]);
        for (token, mode) in good {
            assert_eq!(mode.name(), token);
        }
    }

    #[test]
    fn sparse_format_flag_forms() {
        assert_eq!(parse_all(&[]).unwrap().sparse_format, FormatSelection::Auto);
        let mut good = vec![("auto", FormatSelection::Auto)];
        good.extend(FormatKind::ALL.map(|k| (k.name(), FormatSelection::Fixed(k))));
        let bad = ["dense", "COO", "rank-select", ""];
        check_values("--sparse-format", |a| a.sparse_format, &good, &bad);
    }

    #[test]
    fn trajectory_flag_forms() {
        assert_eq!(parse_all(&[]).unwrap().trajectory, None);
        let good = TrajectoryKind::ALL.map(|k| (k.name(), Some(k)));
        check_values("--trajectory", |a| a.trajectory, &good, &["spiral", "ORBIT", "orbit8", ""]);
        // Each kind names the matching deterministic camera path.
        for kind in TrajectoryKind::ALL {
            assert_eq!(kind.spec(3, 8).cameras().len(), 3, "{} frame count", kind.name());
        }
    }

    #[test]
    fn reuse_mode_flag_forms() {
        assert_eq!(parse_all(&[]).unwrap().reuse_mode, None);
        let good = [("off", Some(ReuseMode::Off)), ("warp", Some(ReuseMode::warp()))];
        check_values("--reuse-mode", |a| a.reuse_mode, &good, &["on", "WARP", "warp:2", ""]);
    }

    #[test]
    fn rejects_unknown_flags_and_positionals() {
        assert_eq!(parse_all(&["--quik"]), Err(ArgError::UnknownFlag("--quik".to_string())));
        assert_eq!(parse_all(&["--quick=yes"]), Err(ArgError::UnknownFlag("--quick=yes".into())));
        assert_eq!(parse_all(&["lego"]), Err(ArgError::UnexpectedPositional("lego".to_string())));
        assert_eq!(parse_all(&["--threads"]), Err(ArgError::MissingValue("--threads")));
        for bad in [&["--threads", "many"][..], &["--threads=many"]] {
            let err = ArgError::BadValue { flag: "--threads", value: "many".to_string() };
            assert_eq!(parse_all(bad), Err(err));
        }
    }

    #[test]
    fn errors_and_usage_render() {
        let u = spnerf::cli::usage("fig9_temporal", FIG9_TEMPORAL);
        for documented in ["--quick", "--threads", "SPNERF_THREADS", "--corpus", "mip:N", "baked"] {
            assert!(u.contains(documented), "usage must document {documented}");
        }
        for documented in ["--sparse-format", "rank", "--trajectory", "dolly", "--reuse-mode"] {
            assert!(u.contains(documented), "usage must document {documented}");
        }
        // Usage lists only what the binary accepts.
        let t = spnerf::cli::usage("table1_platforms", TABLE1_PLATFORMS);
        for absent in ["--corpus", "--skip-mode", "--source", "--trajectory", "--seed"] {
            assert!(!t.contains(absent), "table1 usage must not document {absent}");
        }
    }
}
