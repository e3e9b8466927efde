//! The one command-line grammar of every binary and example.
//!
//! Each binary declares the [`Flag`]s it reads; [`split_flags`] splits
//! `--flag value` and `--flag=value` once against that list, and **every
//! other flag is an [`ArgError::UnknownFlag`]** (exit 2 through
//! [`parse_or_exit`]). A flag that is accepted and then ignored makes a run
//! look successful at the wrong settings, which is strictly worse than
//! failing loudly. `--help` / `-h` is always accepted and prints
//! [`usage`], which lists exactly the declared flags.
//!
//! The flags several binaries share live here: [`QUICK`], [`THREADS`]
//! (owned by [`take_threads`], together with the [`THREADS_ENV_VAR`]
//! fallback) and [`SKIP_MODE`] ([`parse_skip_mode`]). Flags only one
//! binary family reads are declared next to it (`spnerf_bench::cli`, the
//! `spnerf_serve` binary).

use spnerf_render::renderer::SkipMode;

/// Environment variable that sets the render worker count when no
/// `--threads` flag is given.
pub const THREADS_ENV_VAR: &str = "SPNERF_THREADS";

/// A rejected command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `-`/`--` token the binary does not declare.
    UnknownFlag(String),
    /// A bare positional argument (the binaries take none).
    UnexpectedPositional(String),
    /// A valued flag without a value.
    MissingValue(&'static str),
    /// A flag value that failed to parse.
    BadValue {
        /// The flag (or environment variable) the value belonged to.
        flag: &'static str,
        /// The offending token.
        value: String,
    },
    /// A well-formed count above the limit its consumer can size work for.
    TooLarge {
        /// The flag the value belonged to.
        flag: &'static str,
        /// The offending value.
        value: u64,
        /// The largest accepted value.
        max: u64,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::UnknownFlag(a) => write!(f, "unrecognized flag `{a}`"),
            ArgError::UnexpectedPositional(a) => write!(f, "unexpected argument `{a}`"),
            ArgError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            ArgError::BadValue { flag, value } => {
                write!(f, "{flag}: invalid value `{value}`")
            }
            ArgError::TooLarge { flag, value, max } => {
                write!(f, "{flag}: {value} is above the limit of {max}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// One flag a binary declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The spelling, e.g. `--seed`.
    pub name: &'static str,
    /// The value placeholder shown in [`usage`] (`Some("N")`), or `None`
    /// for a switch.
    pub value: Option<&'static str>,
    /// The help text [`usage`] prints; `\n` continues on an indented line.
    pub help: &'static str,
}

/// `--quick`: run the reduced-fidelity preset.
pub const QUICK: Flag = Flag {
    name: "--quick",
    value: None,
    help: "run the reduced-fidelity preset (seconds instead of minutes)",
};

/// `--threads N`: render worker threads, owned by [`take_threads`].
pub const THREADS: Flag = Flag {
    name: "--threads",
    value: Some("N"),
    help: "render worker threads; 0 = all cores (also: the SPNERF_THREADS env var);\n\
           outputs are identical at every count",
};

/// `--skip-mode off|mip|mip:N`: empty-space skipping ([`parse_skip_mode`]).
pub const SKIP_MODE: Flag = Flag {
    name: "--skip-mode",
    value: Some("MODE"),
    help: "empty-space skipping: off (default), mip, or mip:N to cap the\n\
           coarsest pyramid level at N; images are identical in every mode",
};

const HELP: &str = "--help";

/// Removes every `--threads N` / `--threads=N` token from `args` and returns
/// the render worker count they set (`0` = all cores; the last flag wins,
/// like every flag on the surface). Without a flag, falls back to `env`,
/// the value of [`THREADS_ENV_VAR`] — passed in, so the grammar stays pure.
///
/// # Errors
///
/// [`ArgError::MissingValue`] for a trailing `--threads`, and
/// [`ArgError::BadValue`] naming the flag or the variable for a value that
/// is not a non-negative integer.
pub fn take_threads(args: &mut Vec<String>, env: Option<&str>) -> Result<Option<usize>, ArgError> {
    let count = |flag: &'static str, v: &str| {
        v.parse::<usize>().map_err(|_| ArgError::BadValue { flag, value: v.to_string() })
    };
    let mut threads = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == THREADS.name {
            let v = args.get(i + 1).ok_or(ArgError::MissingValue(THREADS.name))?;
            threads = Some(count(THREADS.name, v)?);
            args.drain(i..i + 2);
        } else if let Some(v) = args[i].strip_prefix("--threads=") {
            threads = Some(count(THREADS.name, v)?);
            args.remove(i);
        } else {
            i += 1;
        }
    }
    match (threads, env) {
        (None, Some(v)) => count(THREADS_ENV_VAR, v).map(Some),
        _ => Ok(threads),
    }
}

/// Splits `args` into `(flag, value)` pairs against the `accepted` flags.
/// A valued flag takes the rest of its token after `=`, or else the next
/// token; a switch's value is `""`. `-h` and `--help` are always accepted
/// and come back as `("--help", "")`. `--threads` tokens are expected to
/// be gone already ([`take_threads`]).
///
/// # Errors
///
/// [`ArgError::UnknownFlag`] for any flag outside `accepted` (a switch
/// given `=value` included), [`ArgError::UnexpectedPositional`] for a bare
/// token, and [`ArgError::MissingValue`] for a trailing valued flag.
pub fn split_flags<'a>(
    args: &'a [String],
    accepted: &[Flag],
) -> Result<Vec<(&'static str, &'a str)>, ArgError> {
    let mut out = Vec::new();
    let mut tokens = args.iter();
    while let Some(token) = tokens.next() {
        if token == "-h" || token == HELP {
            out.push((HELP, ""));
            continue;
        }
        if !token.starts_with('-') {
            return Err(ArgError::UnexpectedPositional(token.clone()));
        }
        let (name, inline) = match token.split_once('=') {
            Some((name, v)) => (name, Some(v)),
            None => (token.as_str(), None),
        };
        let unknown = || ArgError::UnknownFlag(token.clone());
        let flag = accepted.iter().find(|f| f.name == name).ok_or_else(unknown)?;
        let value = match (flag.value, inline) {
            (None, None) => "",
            (None, Some(_)) => return Err(unknown()),
            (Some(_), Some(v)) => v,
            (Some(_), None) => tokens.next().ok_or(ArgError::MissingValue(flag.name))?,
        };
        out.push((flag.name, value));
    }
    Ok(out)
}

/// Parses a `--skip-mode` value: `off`, `mip`, or `mip:N` (pyramid levels
/// capped at `N`).
///
/// # Errors
///
/// [`ArgError::BadValue`] for anything else.
pub fn parse_skip_mode(v: &str) -> Result<SkipMode, ArgError> {
    match v {
        "off" => Ok(SkipMode::Off),
        "mip" => Ok(SkipMode::mip()),
        _ => v
            .strip_prefix("mip:")
            .and_then(|n| n.parse::<usize>().ok())
            .map(|levels| SkipMode::Mip { levels })
            .ok_or(ArgError::BadValue { flag: SKIP_MODE.name, value: v.to_string() }),
    }
}

/// The usage text for a binary that declares `flags`: a synopsis plus one
/// help entry per flag, `--help` last.
pub fn usage(bin: &str, flags: &[Flag]) -> String {
    let spell = |f: &Flag| match f.value {
        Some(v) => format!("{} {v}", f.name),
        None => f.name.to_string(),
    };
    // The synopsis wraps before 80 columns, continuing under the first flag.
    let indent = format!("usage: {bin}").len();
    let mut out = format!("usage: {bin}");
    let mut column = indent;
    let words = flags.iter().map(|f| format!("[{}]", spell(f)));
    for word in words.chain(["[--help]".to_string()]) {
        if column + 1 + word.len() > 80 {
            out.push_str(&format!("\n{:indent$}", ""));
            column = indent;
        }
        out.push_str(&format!(" {word}"));
        column += 1 + word.len();
    }
    out.push_str("\n\noptions:\n");
    for f in flags {
        let mut lines = f.help.lines();
        out.push_str(&format!("  {:<19}{}\n", spell(f), lines.next().unwrap_or("")));
        for line in lines {
            out.push_str(&format!("  {:<19}{}\n", "", line.trim_start()));
        }
    }
    out.push_str(&format!("  {:<19}print this help", "-h, --help"));
    out
}

/// Parses the process arguments of a binary that declares `flags`.
///
/// Every `--threads` token is taken first (falling back to
/// [`THREADS_ENV_VAR`]); `parse` then gets the remaining arguments (without
/// the program name) and that worker count. `--help` prints [`usage`] and
/// exits 0; any [`ArgError`] — a malformed `SPNERF_THREADS` included —
/// prints the error plus usage to stderr and exits 2.
pub fn parse_or_exit<T>(
    flags: &[Flag],
    parse: impl FnOnce(&[String], Option<usize>) -> Result<T, ArgError>,
) -> T {
    let mut argv: Vec<String> = std::env::args().collect();
    let bin = argv
        .first()
        .map(|p| p.rsplit(['/', '\\']).next().unwrap_or(p).to_string())
        .unwrap_or_else(|| "spnerf".to_string());
    let env = std::env::var(THREADS_ENV_VAR).ok();
    let parsed = take_threads(&mut argv, env.as_deref()).and_then(|threads| {
        let args = argv.get(1..).unwrap_or_default();
        if split_flags(args, flags)?.iter().any(|(f, _)| *f == HELP) {
            return Ok(None);
        }
        parse(args, threads).map(Some)
    });
    match parsed {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{}", usage(&bin, flags));
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{bin}: {e}\n\n{}", usage(&bin, flags));
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    /// Runs [`take_threads`] on `toks`, returning the count and the
    /// tokens it left behind.
    fn take(toks: &[&str], env: Option<&str>) -> Result<(Option<usize>, Vec<String>), ArgError> {
        let mut a = args(toks);
        take_threads(&mut a, env).map(|threads| (threads, a))
    }

    #[test]
    fn take_threads_strips_flag_tokens() {
        // Both token forms, stripped wherever they appear; the last wins.
        assert_eq!(
            take(&["lego", "--threads", "4", "48", "--threads=7", "64"], None),
            Ok((Some(7), args(&["lego", "48", "64"])))
        );
        assert_eq!(take(&["--quick"], None), Ok((None, args(&["--quick"]))));
    }

    #[test]
    fn threads_flag_parsing() {
        assert_eq!(take(&["--quick", "--threads", "4"], None), Ok((Some(4), args(&["--quick"]))));
        assert_eq!(take(&["--threads=2"], None), Ok((Some(2), args(&[]))));
        // The environment fills in only when no flag is given.
        assert_eq!(take(&["lego"], Some("3")), Ok((Some(3), args(&["lego"]))));
        assert_eq!(take(&["--threads=0"], Some("3")), Ok((Some(0), args(&[]))));
        assert_eq!(take(&["--threads=2"], Some("x")), Ok((Some(2), args(&[]))));
        // `render_scene lego 16 8 --threads x` and `SPNERF_THREADS=x
        // render_scene ...` are typed errors (exit 2), never a panic.
        assert_eq!(
            take(&["lego", "16", "8", "--threads", "x"], None),
            Err(ArgError::BadValue { flag: "--threads", value: "x".to_string() })
        );
        assert_eq!(
            take(&["lego", "16", "8"], Some("x")),
            Err(ArgError::BadValue { flag: THREADS_ENV_VAR, value: "x".to_string() })
        );
        assert_eq!(take(&["lego", "--threads"], None), Err(ArgError::MissingValue("--threads")));
        assert_eq!(
            take(&["--threads=-1"], None),
            Err(ArgError::BadValue { flag: "--threads", value: "-1".to_string() })
        );
    }

    /// [`split_flags`] against `--quick` and `--skip-mode`, each pair
    /// rendered `flag=value`.
    fn split(toks: &[&str]) -> Result<Vec<String>, ArgError> {
        let toks = args(toks);
        let pairs = split_flags(&toks, &[QUICK, SKIP_MODE])?;
        Ok(pairs.iter().map(|(f, v)| format!("{f}={v}")).collect())
    }

    #[test]
    fn split_flags_reads_both_value_forms_once() {
        // `-h` is `--help`; an `=` form keeps everything after the first `=`.
        let toks = ["--skip-mode", "mip", "--quick", "--skip-mode=off", "-h", "--skip-mode=a=b"];
        let pairs =
            ["--skip-mode=mip", "--quick=", "--skip-mode=off", "--help=", "--skip-mode=a=b"];
        assert_eq!(split(&toks), Ok(args(&pairs)));
        assert_eq!(split(&["--skip-mode="]), Ok(args(&["--skip-mode="])));
        // Undeclared flags (a switch given a value included) are unknown.
        for bad in ["--seed", "--seed=7", "--quik", "--quick=1", "-q", "--"] {
            assert_eq!(split(&[bad]), Err(ArgError::UnknownFlag(bad.to_string())), "{bad}");
        }
        assert_eq!(split(&["lego"]), Err(ArgError::UnexpectedPositional("lego".to_string())));
        assert_eq!(split(&["--quick", "--skip-mode"]), Err(ArgError::MissingValue("--skip-mode")));
        let quick = ArgError::UnknownFlag("--quick".to_string());
        assert_eq!(split_flags(&args(&["--quick"]), &[SKIP_MODE]), Err(quick));
    }

    #[test]
    fn usage_lists_exactly_the_declared_flags() {
        let u = usage("demo", &[QUICK, SKIP_MODE]);
        assert!(u.starts_with("usage: demo [--quick] [--skip-mode MODE] [--help]"), "{u}");
        assert!(u.contains("mip:N") && u.contains("-h, --help"));
        assert!(!u.contains("--threads"), "an undeclared flag is not documented");
        let t = usage("demo", &[THREADS]);
        assert!(t.contains("--threads N") && t.contains(THREADS_ENV_VAR));
        assert!(ArgError::UnknownFlag("--x".into()).to_string().contains("--x"));
        assert!(ArgError::MissingValue("--threads").to_string().contains("--threads"));
        let too_large = ArgError::TooLarge { flag: "--duration-ticks", value: 9, max: 8 };
        assert_eq!(too_large.to_string(), "--duration-ticks: 9 is above the limit of 8");
    }
}
