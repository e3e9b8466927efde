//! Bit-for-bit repeat check of the exact metrics.
//!
//! Exact metrics (virtual ticks, simulated cycles, counts, PSNR, model
//! size) are pure functions of the seed and the program. Each run records
//! their bit patterns under a key of workload, seed, trace switch and a
//! fingerprint of the running executable; a later run with the same key
//! must reproduce every recorded value exactly, or the run is incorrect.
//! A rebuilt program gets a new fingerprint, so a deliberate change to an
//! exact metric starts a fresh record instead of failing.

use std::fs;
use std::path::Path;

use crate::cli::Args;
use crate::metrics::Spec;

/// FNV-1a over the running executable's bytes (`0` if it cannot be read,
/// which still keys records by workload, seed and trace switch).
fn executable_fingerprint() -> u64 {
    let bytes = std::env::current_exe().and_then(fs::read).unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The record text: one `name bits` line per exact metric.
fn render(selected: &[(&'static Spec, f64)]) -> String {
    selected
        .iter()
        .filter(|(spec, _)| spec.exact)
        .map(|(spec, v)| format!("{} {:016x}\n", spec.name, v.to_bits()))
        .collect()
}

/// Compares the exact metrics with an earlier run of the same key, or
/// records them if there is none.
///
/// # Errors
///
/// Names every exact metric whose bits differ from the earlier run. Failing
/// to read or write the record only warns: it is not an output error.
pub fn check_repeat(
    dir: &Path,
    args: &Args,
    selected: &[(&'static Spec, f64)],
) -> Result<(), String> {
    let key = format!(
        "exact-{}-seed{}-trace{}-{:016x}.txt",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        executable_fingerprint()
    );
    let path = dir.join(key);
    let now = render(selected);
    match fs::read_to_string(&path) {
        Ok(before) => compare(&before, &now),
        Err(_) => {
            if let Err(e) = fs::create_dir_all(dir).and_then(|()| fs::write(&path, &now)) {
                eprintln!("perfbench: cannot record exact metrics in {}: {e}", path.display());
            }
            Ok(())
        }
    }
}

fn compare(before: &str, now: &str) -> Result<(), String> {
    let diffs: Vec<String> = before
        .lines()
        .zip(now.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("`{a}` became `{b}`"))
        .collect();
    if diffs.is_empty() && before.lines().count() == now.lines().count() {
        Ok(())
    } else {
        Err(format!("exact metrics did not repeat for this seed: {}", diffs.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::spec;

    #[test]
    fn only_exact_metrics_are_recorded_bitwise() {
        let picked = [(spec("psnr_db").unwrap(), 41.5), (spec("setup_s").unwrap(), 0.8)];
        assert_eq!(render(&picked), format!("psnr_db {:016x}\n", 41.5f64.to_bits()));
    }

    #[test]
    fn any_bit_change_is_a_mismatch() {
        let a = render(&[(spec("sim_fps").unwrap(), 120.0)]);
        let b = render(&[(spec("sim_fps").unwrap(), f64::from_bits(120.0f64.to_bits() + 1))]);
        assert!(compare(&a, &a).is_ok());
        assert!(compare(&a, &b).is_err());
        assert!(compare(&a, "").is_err());
    }
}
