//! End-to-end exit codes of the strict figure-binary CLI: a flag the
//! binary does not read exits 2 with usage before any work runs.

use std::process::Command;

#[test]
fn other_binaries_flags_exit_2_on_table1() {
    // Every one of these used to be accepted and ignored (exit 0).
    let out = Command::new(env!("CARGO_BIN_EXE_table1_platforms"))
        .args(["--seed", "7", "--corpus", "--replay", "nope", "--trajectory", "orbit"])
        .output()
        .expect("table1_platforms runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty(), "no table may be printed");
    assert!(stderr.contains("unrecognized flag `--seed`"), "{stderr}");
    assert!(stderr.contains("usage: table1_platforms [--quick] [--threads N]"), "{stderr}");
}

#[test]
fn declared_flags_and_help_still_work_on_table1() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1_platforms"))
        .args(["--quick", "--threads=2"])
        .output()
        .expect("table1_platforms runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("Table I:"));
    let help = Command::new(env!("CARGO_BIN_EXE_table1_platforms"))
        .arg("--help")
        .output()
        .expect("table1_platforms runs");
    assert_eq!(help.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&help.stdout);
    assert!(usage.contains("--quick") && !usage.contains("--corpus"), "{usage}");
}
