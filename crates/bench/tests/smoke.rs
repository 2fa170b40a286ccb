//! Harness smoke tests: every experiment binary must run to completion at a
//! tiny scale and print its headline — guarding the reproduction surface
//! itself (a broken binary would silently invalidate EXPERIMENTS.md).

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> String {
    let exe = env!("CARGO_MANIFEST_DIR").to_string();
    let out = Command::new("cargo")
        .args(["run", "-q", "--release", "--bin", bin, "--"])
        .args(args)
        .current_dir(exe)
        .output()
        .expect("binary launches");
    assert!(out.status.success(), "{bin} failed:\n{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8_lossy(&out.stdout).into_owned()
}

const TINY: &[&str] = &["--scale", "0.02", "--seed", "7"];

#[test]
fn table5_emits_all_three_datasets() {
    let out = run("table5", TINY);
    for name in ["T10I4D100k", "Shop-14", "Twitter"] {
        assert!(out.contains(name), "missing {name}");
    }
    assert!(out.contains("minPS"));
}

#[test]
fn table6_reports_recovery() {
    let out = run("table6", TINY);
    assert!(out.contains("recovery: pattern recall"));
    assert!(out.contains("#uttarakhand"));
}

#[test]
fn table7_and_table8_run() {
    let out = run("table7", TINY);
    assert!(out.contains("runtime in seconds"));
    let out = run("table8", &["--scale", "0.02", "--seed", "7", "--limit", "5000"]);
    assert!(out.contains("recurring (RP-growth)"));
    assert!(out.contains("p-patterns"));
}

#[test]
fn ablations_run() {
    let out = run("ablation_pruning", TINY);
    assert!(out.contains("Erec (paper"));
    let out = run("memory_footprint", TINY);
    assert!(out.contains("ts compression"));
    let out = run("merge_analysis", TINY);
    assert!(out.contains("maximal runs"));
    let out = run("noise_sensitivity", &["--seed", "7"]);
    assert!(out.contains("drop_prob"));
}

#[test]
fn extension_binaries_run() {
    // The report goes to the target's scratch directory, never over a
    // tracked file.
    let report = format!("{}/BENCH_incremental_smoke.json", env!("CARGO_TARGET_TMPDIR"));
    let out = run("incremental_mining", &["--scale", "0.02", "--chunks", "2", "--out", &report]);
    assert!(out.contains("identical outputs"));
    let out = run("scalability", &["--seed", "7", "--steps", "2", "--max-scale", "0.04"]);
    assert!(out.contains("|TDB|"));
    let out = run("seed_variance", &["--scale", "0.02", "--seeds", "2"]);
    assert!(out.contains("cv%"));
    let out = run("model_zoo", TINY);
    assert!(out.contains("recurring (RP-growth"));
}
