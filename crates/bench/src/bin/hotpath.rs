//! Dependency-free timing harness for the mining hot path.
//!
//! The criterion micro-benches under `benches/` need a crates.io mirror, so
//! this binary is the perf tool that always works: plain
//! `std::time::Instant`, warm-up + median-of-N, a planted `rpm-datagen`
//! dataset, and a machine-readable `BENCH_hotpath.json` so the perf
//! trajectory is tracked PR over PR. Every thread count mines through a
//! `MiningSession` with the default no-op observer and unlimited control,
//! the path every caller takes.
//!
//! ```text
//! cargo run -p rpm-bench --release --bin hotpath -- \
//!     [--scale 0.25] [--seed 5] [--reps 5] [--warmup 1] \
//!     [--threads 1,2,4,8] [--baseline-ms 0] [--out BENCH_hotpath.json]
//! ```
//!
//! `--baseline-ms` embeds a previously recorded single-thread wall time so
//! the report carries the speedup over the pre-change baseline.

#![deny(deprecated)]

use std::time::Instant;

use rpm_bench::datasets::{load, Dataset};
use rpm_bench::{available_cores, median, HarnessArgs};
use rpm_core::{MiningResult, MiningSession, RpParams, Threshold};

struct Run {
    threads: usize,
    wall_ms: Vec<f64>,
    patterns: usize,
    tree_nodes: usize,
}

fn main() {
    let args = HarnessArgs::from_env();
    let scale = args.scale;
    let reps = args.get_usize("reps", 5).max(1);
    let warmup = args.get_usize("warmup", 1);
    let baseline_ms = args.get_f64("baseline-ms", 0.0);
    let out_path = args.get("out").unwrap_or("BENCH_hotpath.json");
    let threads: Vec<usize> = args
        .get("threads")
        .unwrap_or("1,2,4,8")
        .split(',')
        .map(|t| t.trim().parse().expect("--threads takes a comma-separated list"))
        .collect();

    let (db, _) = load(Dataset::Twitter, scale, args.seed);
    let params = RpParams::with_threshold(360, Threshold::pct(2.0), 1).resolve(db.len());
    // Multi-thread "speedups" measured with more workers than cores are
    // scheduling noise, not parallel scaling — record the machine so the
    // report is honest about which numbers are trustworthy.
    let cores = available_cores();
    println!(
        "# hotpath — Twitter sim scale={scale}, |TDB|={}, per=360 minPS=2% minRec=1, {cores} core(s) available",
        db.len()
    );

    let mut runs: Vec<Run> = Vec::new();
    for &t in &threads {
        let session =
            MiningSession::builder().resolved(params).threads(t).build().expect("valid params");
        let mut wall_ms = Vec::with_capacity(reps);
        let mut last: Option<MiningResult> = None;
        for rep in 0..warmup + reps {
            let t0 = Instant::now();
            let result = session.mine(&db).expect("non-empty db").into_result();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if rep >= warmup {
                wall_ms.push(ms);
            }
            last = Some(result);
        }
        let result = last.unwrap();
        let med = median(&mut wall_ms.clone());
        let note = if t > cores { "  [oversubscribed]" } else { "" };
        println!(
            "threads={t:<2} median={med:>9.2} ms  patterns={}  tree_nodes={}{note}",
            result.patterns.len(),
            result.stats.tree_nodes
        );
        runs.push(Run {
            threads: t,
            wall_ms,
            patterns: result.patterns.len(),
            tree_nodes: result.stats.tree_nodes,
        });
    }

    // Consistency across thread counts is asserted by the test suite; here
    // we only refuse to write a report from inconsistent runs.
    for w in runs.windows(2) {
        assert_eq!(w[0].patterns, w[1].patterns, "thread counts disagree on patterns");
    }

    let single = runs.iter().find(|r| r.threads == 1).map(|r| median(&mut r.wall_ms.clone()));
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"dataset\": {{\"name\": \"twitter-sim\", \"scale\": {scale}, \"seed\": {}, \"transactions\": {}}},\n",
        args.seed,
        db.len()
    ));
    json.push_str(&format!(
        "  \"params\": {{\"per\": 360, \"min_ps_pct\": 2.0, \"min_rec\": 1}},\n  \"reps\": {reps},\n  \"warmup\": {warmup},\n"
    ));
    json.push_str(&format!("  \"available_cores\": {cores},\n"));
    if baseline_ms > 0.0 {
        json.push_str(&format!("  \"baseline_single_thread_ms\": {baseline_ms:.3},\n"));
        if let Some(s) = single {
            json.push_str(&format!("  \"speedup_vs_baseline\": {:.3},\n", baseline_ms / s));
        }
    }
    json.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let med = median(&mut r.wall_ms.clone());
        let speedup = single.map_or(1.0, |s| s / med);
        json.push_str(&format!(
            "    {{\"threads\": {}, \"oversubscribed\": {}, \"wall_ms_median\": {:.3}, \"wall_ms\": {:?}, \"speedup_vs_single\": {:.3}, \"patterns\": {}, \"tree_nodes_peak\": {}}}{}\n",
            r.threads,
            r.threads > cores,
            med,
            r.wall_ms.iter().map(|v| (v * 1000.0).round() / 1000.0).collect::<Vec<_>>(),
            speedup,
            r.patterns,
            r.tree_nodes,
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).expect("write report");
    println!("\nwrote {out_path}");
}
