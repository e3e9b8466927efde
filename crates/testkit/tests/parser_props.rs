//! Property satellite: every parser of external input returns — `Ok` or a
//! typed `Err` — and never panics, overflows its stack or hangs, on
//! mutated copies of real documents: the checked-in `BENCH_*.json`
//! snapshots, a `spnerf_serve --quick` report, and the serve smoke replay
//! trace. Mutations are random byte flips, truncations, integers far past
//! every range the validators bound, and deep container nesting.

use std::sync::OnceLock;

use proptest::prelude::*;

use spnerf::json::{parse_json, MAX_DEPTH};
use spnerf_bench::snapshot::validate_snapshot_json;
use spnerf_serve::report::validate_report_json;
use spnerf_serve::server::{run, RunMeta, ServeConfig};
use spnerf_serve::traffic::{Trace, TrafficConfig};

/// The unmutated inputs, loaded once: `(name, text)`.
fn documents() -> &'static [(String, String)] {
    static DOCS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut docs = Vec::new();
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                docs.push((name, std::fs::read_to_string(&path).unwrap()));
            }
        }
        assert!(docs.len() >= 3, "the checked-in snapshots must be found");
        docs.sort();
        // What `spnerf_serve --quick` prints with its default traffic.
        let tc = TrafficConfig { duration_ticks: 2000, ..TrafficConfig::default() };
        let meta = RunMeta {
            trace_source: "synthetic".to_string(),
            seed: tc.seed,
            zipf_s: tc.zipf_s,
            duration_ticks: tc.duration_ticks,
        };
        let report = run(&Trace::synthesize(&tc), &ServeConfig::quick(), &meta).report.to_json();
        docs.push(("serve-quick-report".to_string(), report));
        let trace = root.join("crates/serve/tests/data/smoke.trace");
        docs.push(("smoke.trace".to_string(), std::fs::read_to_string(trace).unwrap()));
        docs
    })
}

/// Numbers well past `u64`, `f64` and every count bound a validator knows.
const HUGE: [&str; 5] = [
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "1e400",
    "-1e400",
    "99999999999999999999999999999999999999999999999999",
];

/// Applies mutation `kind` at relative position `at` of `text`.
fn mutate(text: &str, kind: u8, at: f64, byte: u8, depth: usize) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let pos = ((bytes.len() as f64 * at) as usize).min(bytes.len().saturating_sub(1));
    match kind {
        // Flip one byte (possibly into invalid UTF-8, which the lossy
        // decode below turns into U+FFFD, as a reader of the file would).
        0 => bytes[pos] ^= byte.max(1),
        // Truncate anywhere.
        1 => bytes.truncate(pos),
        // Replace the number run at or after `pos` with a huge integer.
        2 => {
            let start = (pos..bytes.len()).find(|&i| bytes[i].is_ascii_digit()).unwrap_or(pos);
            let end = (start..bytes.len()).find(|&i| !bytes[i].is_ascii_digit()).unwrap_or(start);
            let huge = HUGE[byte as usize % HUGE.len()].as_bytes();
            bytes.splice(start..end, huge.iter().copied());
        }
        // Open `depth` containers at `pos` (and close them at the end).
        _ => {
            let open = if byte % 2 == 0 { "[" } else { "{\"k\":" };
            bytes.splice(pos..pos, open.repeat(depth).into_bytes());
            bytes.extend(if byte % 2 == 0 { "]" } else { "}" }.repeat(depth).into_bytes());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs every parser over `text`; a panic fails the test.
fn parse_everything(text: &str) {
    let _ = parse_json(text);
    let _ = validate_snapshot_json(text);
    let _ = validate_report_json(text);
    let _ = Trace::parse_replay(text);
}

#[test]
fn unmutated_documents_are_valid() {
    for (name, text) in documents() {
        match name.as_str() {
            "smoke.trace" => assert!(Trace::parse_replay(text).is_ok(), "{name}"),
            "serve-quick-report" => assert_eq!(validate_report_json(text), Ok(()), "{name}"),
            _ => assert_eq!(validate_snapshot_json(text), Ok(()), "{name}"),
        }
        parse_everything(text);
    }
}

#[test]
fn hostile_nesting_is_an_error_not_a_stack_overflow() {
    let deep = "[".repeat(200_000);
    assert!(parse_json(&deep).is_err());
    assert!(validate_snapshot_json(&deep).is_err());
    assert!(validate_report_json(&deep).is_err());
    let just_past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    assert!(validate_snapshot_json(&just_past).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mutated_documents_never_panic(
        kind in 0u8..4,
        at in 0.0f64..1.0,
        byte in 0u8..=255,
        depth in 1usize..4096,
    ) {
        for (_, text) in documents() {
            parse_everything(&mutate(text, kind, at, byte, depth));
        }
    }

    #[test]
    fn stacked_mutations_never_panic(
        kinds in (0u8..4, 0u8..4, 0u8..4),
        ats in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        byte in 0u8..=255,
    ) {
        for (_, text) in documents() {
            let once = mutate(text, kinds.0, ats.0, byte, 40);
            let twice = mutate(&once, kinds.1, ats.1, byte.wrapping_mul(31), 40);
            parse_everything(&mutate(&twice, kinds.2, ats.2, byte.wrapping_add(7), 40));
        }
    }
}
