//! Strict command-line parsing.
//!
//! Every flag is required exactly once and every value is checked here,
//! before any work is sized from it: a bad invocation gets a typed
//! [`CliError`] and exit code 2, never a panic or a half-run.

use std::fmt;

/// Usage text printed with every CLI error.
pub const USAGE: &str = "usage: perfbench --workload <stills|orbit-warp|serve-churn> \
--seed <u64> --seconds <1..=600> --trace <0|1>";

/// Longest measured loop a run accepts, in seconds.
pub const MAX_SECONDS: u64 = 600;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 64×64 masked SpNeRF view of `lego` per operation, 2 render workers.
    Stills,
    /// 8-frame warped orbits of `mic` with mip skipping, one frame per
    /// operation, 1 render worker.
    OrbitWarp,
    /// One `serve::server::run` over a seeded Poisson/Zipf trace per
    /// operation.
    ServeChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Stills, Workload::OrbitWarp, Workload::ServeChurn];

    /// The name the CLI and `BENCHMARK.json` use.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::Stills => "stills",
            Workload::OrbitWarp => "orbit-warp",
            Workload::ServeChurn => "serve-churn",
        }
    }
}

/// A fully checked invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every generated input (cameras, orbits, traces) derives from.
    pub seed: u64,
    /// Minimum length of the measured loop.
    pub seconds: u64,
    /// Per-layer traced run (`true`) or end-to-end untraced run.
    pub trace: bool,
}

/// Why an invocation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A token that is not one of the four flags.
    UnknownFlag(String),
    /// A flag given twice.
    DuplicateFlag(&'static str),
    /// A flag with no value after it.
    MissingValue(&'static str),
    /// A required flag that never appeared.
    MissingFlag(&'static str),
    /// A workload name outside [`Workload::ALL`].
    UnknownWorkload(String),
    /// A seed that is not a base-10 `u64` (non-numeric, signed or
    /// overflowing).
    BadSeed(String),
    /// A run length that is not an integer in `1..=MAX_SECONDS`.
    BadSeconds(String),
    /// A trace switch other than `0` or `1`.
    BadTrace(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(t) => write!(f, "unknown argument `{t}`"),
            CliError::DuplicateFlag(flag) => write!(f, "`{flag}` given more than once"),
            CliError::MissingValue(flag) => write!(f, "`{flag}` needs a value"),
            CliError::MissingFlag(flag) => write!(f, "`{flag}` is required"),
            CliError::UnknownWorkload(w) => write!(
                f,
                "unknown workload `{w}` (expected one of: {})",
                Workload::ALL.map(Workload::name).join(", ")
            ),
            CliError::BadSeed(s) => write!(f, "seed `{s}` is not an unsigned 64-bit integer"),
            CliError::BadSeconds(s) => {
                write!(f, "seconds `{s}` is not an integer in 1..={MAX_SECONDS}")
            }
            CliError::BadTrace(s) => write!(f, "trace `{s}` must be 0 or 1"),
        }
    }
}

impl std::error::Error for CliError {}

fn parse_workload(v: &str) -> Result<Workload, CliError> {
    Workload::ALL
        .into_iter()
        .find(|w| w.name() == v)
        .ok_or_else(|| CliError::UnknownWorkload(v.to_string()))
}

fn parse_seed(v: &str) -> Result<u64, CliError> {
    // `u64::from_str` accepts a leading `+`; a seed is plain digits only.
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return Err(CliError::BadSeed(v.to_string()));
    }
    v.parse().map_err(|_| CliError::BadSeed(v.to_string()))
}

fn parse_seconds(v: &str) -> Result<u64, CliError> {
    let bad = || CliError::BadSeconds(v.to_string());
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad());
    }
    match v.parse::<u64>() {
        Ok(s) if (1..=MAX_SECONDS).contains(&s) => Ok(s),
        _ => Err(bad()),
    }
}

fn parse_trace(v: &str) -> Result<bool, CliError> {
    match v {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(CliError::BadTrace(v.to_string())),
    }
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns the first [`CliError`] found, scanning left to right.
pub fn parse<I, S>(args: I) -> Result<Args, CliError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(token) = it.next() {
        let token = token.as_ref();
        let flag: &'static str = match token {
            "--workload" => "--workload",
            "--seed" => "--seed",
            "--seconds" => "--seconds",
            "--trace" => "--trace",
            _ => return Err(CliError::UnknownFlag(token.to_string())),
        };
        let value = it.next().ok_or(CliError::MissingValue(flag))?;
        let value = value.as_ref();
        let duplicate = match flag {
            "--workload" => workload.replace(parse_workload(value)?).is_some(),
            "--seed" => seed.replace(parse_seed(value)?).is_some(),
            "--seconds" => seconds.replace(parse_seconds(value)?).is_some(),
            _ => trace.replace(parse_trace(value)?).is_some(),
        };
        if duplicate {
            return Err(CliError::DuplicateFlag(flag));
        }
    }
    Ok(Args {
        workload: workload.ok_or(CliError::MissingFlag("--workload"))?,
        seed: seed.ok_or(CliError::MissingFlag("--seed"))?,
        seconds: seconds.ok_or(CliError::MissingFlag("--seconds"))?,
        trace: trace.ok_or(CliError::MissingFlag("--trace"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, CliError> {
        parse(s.split_whitespace())
    }

    #[test]
    fn accepts_every_workload_in_any_flag_order() {
        for w in Workload::ALL {
            let a = args(&format!("--trace 1 --seconds 10 --seed 7 --workload {}", w.name()))
                .expect("valid invocation");
            assert_eq!(a, Args { workload: w, seed: 7, seconds: 10, trace: true });
        }
        let max = args("--workload stills --seed 18446744073709551615 --seconds 600 --trace 0");
        assert_eq!(max.expect("u64::MAX seed").seed, u64::MAX);
    }

    #[test]
    fn rejects_unknown_workloads() {
        assert_eq!(
            args("--workload lego --seed 1 --seconds 1 --trace 0"),
            Err(CliError::UnknownWorkload("lego".into()))
        );
        assert_eq!(
            args("--workload Stills --seed 1 --seconds 1 --trace 0"),
            Err(CliError::UnknownWorkload("Stills".into()))
        );
    }

    #[test]
    fn rejects_bad_seeds() {
        for bad in ["abc", "-1", "+1", "1.5", "18446744073709551616", "99999999999999999999999"] {
            assert_eq!(
                args(&format!("--workload stills --seed {bad} --seconds 1 --trace 0")),
                Err(CliError::BadSeed(bad.into())),
                "seed {bad}"
            );
        }
    }

    #[test]
    fn rejects_bad_seconds_and_trace_values() {
        for bad in ["0", "601", "-5", "ten", "1e3", "18446744073709551616"] {
            assert_eq!(
                args(&format!("--workload stills --seed 1 --seconds {bad} --trace 0")),
                Err(CliError::BadSeconds(bad.into())),
                "seconds {bad}"
            );
        }
        for bad in ["2", "true", "-1"] {
            assert_eq!(
                args(&format!("--workload stills --seed 1 --seconds 1 --trace {bad}")),
                Err(CliError::BadTrace(bad.into())),
                "trace {bad}"
            );
        }
    }

    #[test]
    fn rejects_malformed_flag_sets() {
        assert_eq!(
            args("--workload stills --seed 1 --seconds 1 --trace 0 --threads 2"),
            Err(CliError::UnknownFlag("--threads".into()))
        );
        assert_eq!(args("stills"), Err(CliError::UnknownFlag("stills".into())));
        assert_eq!(
            args("--workload stills --seed 1 --seconds 1 --trace"),
            Err(CliError::MissingValue("--trace"))
        );
        assert_eq!(
            args("--workload stills --seed 1 --seed 2 --seconds 1 --trace 0"),
            Err(CliError::DuplicateFlag("--seed"))
        );
        assert_eq!(
            args("--seed 1 --seconds 1 --trace 0"),
            Err(CliError::MissingFlag("--workload"))
        );
        assert_eq!(args(""), Err(CliError::MissingFlag("--workload")));
    }
}
