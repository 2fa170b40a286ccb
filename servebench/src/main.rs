//! `servebench`: the serving benchmark for `rpm serve`.
//!
//! Starts the release server as a child process, drives one of three
//! closed-loop workloads over loopback (`ingest`, `query`, `explore`),
//! checks every answer against in-process references, and prints one JSON
//! result line. With `--trace 1` it instead reports per-layer metrics from
//! client-side request timings, `/v1/metrics` deltas, and an in-process
//! replay of the same seeded inputs through the server's public functions.
//!
//! ```text
//! servebench --workload ingest|query|explore [--seed N] [--seconds S]
//!            [--trace 0|1] --rpm PATH [--out-dir DIR] [--tiny]
//! ```
//!
//! `run.sh` next to this crate builds both binaries and supplies `--rpm`
//! and `--out-dir`.

mod client;
mod inputs;
mod json;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use inputs::Scales;
use json::{num, Obj};
use workloads::{Ctx, Workload};

/// The seed a bare invocation uses.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of all tuning, for re-checking a claim on fresh inputs.
pub const HELD_OUT_SEED: u64 = 7919;
/// A run that is still going after this long stops its servers and fails.
const WATCHDOG_S: u64 = 170;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rpm: PathBuf,
    out_dir: PathBuf,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut rpm = None;
    let mut out_dir = PathBuf::from("target/servebench");
    let mut tiny = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(Workload::parse(&w).ok_or(format!("unknown workload {w:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--rpm" => rpm = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--tiny" => tiny = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        rpm: rpm.ok_or("--rpm is required")?,
        out_dir,
        tiny,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").map(|r| r.trim_start_matches([' ', '\t', ':'])))
        .unwrap_or("unknown")
        .to_string()
}

/// Per route class and phase: count, p50, max and summed latency (stderr).
fn summarize(run: &workloads::Run) {
    let mut groups: std::collections::BTreeMap<(&str, &str), Vec<f64>> = Default::default();
    for op in &run.ops {
        groups.entry((op.phase, op.class)).or_default().push(op.timing.total_ms);
    }
    eprintln!(
        "{:<8} {:<8} {:>6} {:>10} {:>10} {:>10}",
        "phase", "class", "n", "p50_ms", "max_ms", "sum_ms"
    );
    for ((phase, class), lat) in &groups {
        let max = lat.iter().copied().fold(0.0, f64::max);
        let sum: f64 = lat.iter().sum();
        eprintln!(
            "{phase:<8} {class:<8} {:>6} {:>10.2} {max:>10.2} {sum:>10.1}",
            lat.len(),
            stats::median(lat)
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(WATCHDOG_S));
        client::kill_all_children();
        eprintln!("servebench: watchdog fired after {WATCHDOG_S}s");
        std::process::exit(3);
    });
    let work = args.out_dir.join(format!("work-{}", std::process::id()));
    let ctx = Ctx {
        rpm: args.rpm.clone(),
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        scales: if args.tiny { Scales::TINY } else { Scales::DEFAULT },
        setup_reps: if args.trace { 1 } else { 3 },
        recover_cycles: if args.trace { 1 } else { 5 },
    };
    let started = Instant::now();
    let run = workloads::run(args.workload, &ctx);
    let (e2e, samples) = run.end_to_end();

    let mut correct = run.failed() == 0;
    let mut attempted = run.attempted();
    let mut failed = run.failed();
    let mut report = Obj::new();
    let mut sizes = Vec::new();
    let metrics: Vec<(String, f64, String)> = if args.trace {
        let traced = trace::traced(&ctx, &run);
        correct &= traced.faithful;
        attempted += traced.attempted;
        failed += traced.failed;
        report.push_raw("trace", traced.report);
        sizes = traced.sizes;
        traced.metrics
    } else {
        e2e.iter().map(|&(n, v, u)| (n.to_string(), v, u.to_string())).collect()
    };
    let _ = std::fs::remove_dir_all(&work);
    summarize(&run);

    let failures: Vec<String> = run
        .ops
        .iter()
        .filter_map(|o| o.why.as_ref())
        .take(10)
        .map(|w| format!("\"{}\"", json::escape(w)))
        .collect();
    for f in &failures {
        eprintln!("servebench: failed operation: {f}");
    }
    let scales = ctx.scales;
    let datasets: Vec<String> = run
        .uploads
        .iter()
        .map(|u| {
            Obj::new()
                .str("name", u.name)
                .num("transactions", u.db.len() as f64)
                .num("items", u.db.item_count() as f64)
                .str("hot", &inputs::hot_query(u.hot))
                .render()
        })
        .collect();
    let facts: Vec<String> =
        run.facts.iter().map(|(k, v)| format!("\"{}\":{}", json::escape(k), num(*v))).collect();
    let stamp = Obj::new()
        .str("workload", args.workload.name())
        .num("seed", args.seed as f64)
        .num("default_seed", DEFAULT_SEED as f64)
        .num("held_out_seed", HELD_OUT_SEED as f64)
        .num("seconds", args.seconds)
        .num("trace", f64::from(u8::from(args.trace)))
        .num("cores", std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)
        .str("cpu_model", &cpu_model())
        .raw(
            "scales",
            Obj::new()
                .num("twitter", scales.twitter)
                .num("explore_twitter", scales.explore_twitter)
                .num("shop", scales.shop)
                .num("quest", scales.quest)
                .render(),
        )
        .raw("datasets", format!("[{}]", datasets.join(",")))
        .raw("facts", format!("{{{}}}", facts.join(",")))
        .str("fsync", "always")
        .num("server_threads", 2.0)
        .num("client_connections", if args.workload == Workload::Ingest { 2.0 } else { 1.0 })
        .num("setup_reps", ctx.setup_reps as f64)
        .num("recover_cycles", ctx.recover_cycles as f64)
        .raw("samples", samples.render())
        .raw("end_to_end", valued(e2e.iter().map(|&(n, v, u)| (n, v, u))))
        .raw("sizes", valued(sizes.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str()))))
        .raw("failures", format!("[{}]", failures.join(",")))
        .num("run_wall_s", started.elapsed().as_secs_f64());
    report.push_raw("stamp", stamp.render());

    let _ = std::fs::create_dir_all(&args.out_dir);
    let report_path = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(&report_path, report.render());
    println!("{}", Obj::new().raw("servebench", stamp.render()).render());
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        valued(metrics.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str())))
    );
}

/// `{"name":{"value":v,"unit":"u"},...}`. A failed operation's latency is
/// unbounded; it prints as a (huge) number so the line stays valid JSON.
fn valued<'a>(items: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let rendered: Vec<String> = items
        .map(|(n, v, u)| {
            let v = if v.is_finite() { v } else { 1e12 };
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", json::escape(n), num(v), u)
        })
        .collect();
    format!("{{{}}}", rendered.join(","))
}
