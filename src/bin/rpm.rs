//! `rpm` — command-line recurring-pattern miner.
//!
//! ```text
//! rpm stats    <db.tsv>
//! rpm mine     <db.tsv> --per 360 --min-ps 2% --min-rec 2
//!              [--relaxed <k>] [--fault-gap <g>] [--closed] [--maximal]
//!              [--top <k>] [--rules <min-conf>] [--threads <n>]
//!              [--timeout <t>] [--progress] [--metrics-json [<file>]]
//! rpm pf       <db.tsv> --max-per 1440 --min-sup 0.1%
//! rpm ppattern <db.tsv> --period 1440 --min-sup 0.1% [--window 1]
//! rpm generate <quest|shop|twitter> --out <db.tsv> [--scale 0.25] [--seed 1]
//! ```
//!
//! Databases are the timestamped text format of `rpm_timeseries::io`:
//! one transaction per line, `ts<TAB>item item item`.

use std::process::ExitCode;

use recurring_patterns::baselines::{
    autocorrelation_periods, chi_squared_periods, consensus_periods, mine_periodic_first,
    PPatternParams, PfGrowth, PfParams,
};
use recurring_patterns::core::engine::{
    MetricsCollector, MiningSession, Observer, Phase, ProgressReporter, RunControl,
};
use recurring_patterns::core::{
    closed_patterns, generate_rules, maximal_patterns, mine_durations, mine_relaxed,
    recurrence_spectrum, top_k, write_patterns_json, write_patterns_tsv, write_rules_json,
    DurationParams, MiningStats, NoiseParams, RankBy, RpParams, Threshold,
};
use recurring_patterns::datagen::{
    generate_clickstream, generate_quest, generate_twitter, QuestConfig, ShopConfig, TwitterConfig,
};
use recurring_patterns::timeseries::{io, DbStats, TransactionDb};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `rpm help` for usage");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("missing command".into());
    };
    let rest = &args[1..];
    match command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{}", USAGE);
            Ok(())
        }
        "stats" => stats(rest),
        "mine" => mine(rest),
        "spectrum" => spectrum(rest),
        "detect" => detect(rest),
        "convert" => convert(rest),
        "pf" => pf(rest),
        "ppattern" => ppattern(rest),
        "generate" => generate(rest),
        "serve" => serve(rest),
        other => Err(format!("unknown command {other:?}")),
    }
}

const USAGE: &str = "rpm — recurring pattern mining (EDBT 2015 reproduction)

  rpm stats    <db.tsv>
  rpm mine     <db.tsv> --per N --min-ps N|X% --min-rec N
               [--min-dur D] [--relaxed K --fault-gap G] [--closed] [--maximal]
               [--top K] [--rules CONF] [--threads N]
               [--timeout T(ms|s|m|h)] [--progress] [--metrics-json [FILE]]
  rpm spectrum <db.tsv> --items 'a b c' --min-ps N|X%
  rpm detect   <db.tsv> --items 'a b c' --max-period N [--method chi|auto|consensus]
  rpm pf       <db.tsv> --max-per N --min-sup N|X%
  rpm ppattern <db.tsv> --period N --min-sup N|X% [--window N]
  rpm generate quest|shop|twitter --out <db.tsv> [--scale F] [--seed N]
  rpm convert  <in> <out>            (between .tsv text and .rpmb binary)
  rpm serve    [--addr HOST:PORT] [--threads N] [--cache-mb M] [--queue N]
               [--io-timeout T] [--load NAME=PATH]...
               [--per N --min-ps N --min-rec N]   (hot params for --load)
               [--data-dir DIR] [--fsync always|interval|never]
               [--snapshot-every N]               (durability; see TUTORIAL)
               [--repl-addr HOST:PORT]            (stream the WAL to replicas)
               [--replica-of HOST:PORT]           (follow a primary read-only)
               [--max-lag N]                      (readyz seq-lag threshold)

Databases are text (`ts<TAB>item item…`) or, with a .rpmb extension, the
compact binary format of rpm_timeseries::binio.

Run control (standard and --threads mining): --timeout bounds the run's
wall-clock time and prints the sound partial result mined so far;
--progress reports fraction-complete on stderr; --metrics-json emits
per-phase wall time, peak scratch bytes and the abort reason (to FILE, or
stderr when no FILE is given).";

/// Tiny flag parser: positional args first, then `--key value` pairs.
struct Flags {
    positional: Vec<String>,
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut pairs = Vec::new();
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().unwrap().clone(),
                    _ => "true".to_string(),
                };
                pairs.push((key.to_string(), value));
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Self { positional, pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing required flag --{key}"))
    }

    fn flag(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Every value given for a repeatable flag, e.g. `--load a=x --load b=y`.
    fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs.iter().filter(|(k, _)| k == key).map(|(_, v)| v.as_str()).collect()
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad --{key} {v:?}: {e}")),
        }
    }
}

fn load_db(flags: &Flags) -> Result<TransactionDb, String> {
    let path = flags.positional.first().ok_or_else(|| "missing database path".to_string())?;
    load_db_path(path)
}

fn load_db_path(path: &str) -> Result<TransactionDb, String> {
    let result = if path.ends_with(".rpmb") {
        recurring_patterns::timeseries::load_binary(path)
    } else {
        io::load_timestamped(path)
    };
    result.map_err(|e| format!("cannot read {path}: {e}"))
}

fn stats(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let db = load_db(&flags)?;
    println!("{}", DbStats::compute(&db));
    Ok(())
}

/// `--timeout` / `--io-timeout` values: `500ms`, `30s`, `5m`, `2h`, or a
/// bare number of seconds. Shared with the server's `timeout=` query
/// parameter; overflow and negatives are rejected, never wrapped.
fn parse_timeout(text: &str) -> Result<std::time::Duration, String> {
    recurring_patterns::server::parse_duration(text)
}

/// Fans engine callbacks out to several observers (progress + metrics).
struct MultiObserver(Vec<std::sync::Arc<dyn Observer>>);

impl Observer for MultiObserver {
    fn on_phase(&self, phase: Phase) {
        self.0.iter().for_each(|o| o.on_phase(phase));
    }
    fn on_suffix_done(&self, done: usize, total: usize) {
        self.0.iter().for_each(|o| o.on_suffix_done(done, total));
    }
    fn on_candidate_batch(&self, candidates: usize) {
        self.0.iter().for_each(|o| o.on_candidate_batch(candidates));
    }
    fn on_complete(
        &self,
        stats: &MiningStats,
        abort: Option<recurring_patterns::core::AbortReason>,
    ) {
        self.0.iter().for_each(|o| o.on_complete(stats, abort));
    }
}

fn mine(args: &[String]) -> Result<(), String> {
    use std::sync::Arc;

    let flags = Flags::parse(args)?;
    let db = load_db(&flags)?;
    let per: i64 = flags.require("per")?.parse().map_err(|e| format!("bad --per: {e}"))?;
    let min_ps = flags.require("min-ps")?.parse::<Threshold>()?;
    let min_rec: usize = flags.parse_num("min-rec", 1)?;
    let params = RpParams::try_with_threshold(per, min_ps, min_rec).map_err(|e| e.to_string())?;
    let resolved = params.try_resolve(db.len()).map_err(|e| e.to_string())?;

    let mut control = RunControl::new();
    if let Some(t) = flags.get("timeout") {
        control = control.with_timeout(parse_timeout(t)?);
    }
    let metrics = flags.get("metrics-json").map(|path| (Arc::new(MetricsCollector::new()), path));
    let mut observers: Vec<Arc<dyn Observer>> = Vec::new();
    if flags.flag("progress") {
        observers.push(Arc::new(ProgressReporter::default()));
    }
    if let Some((collector, _)) = &metrics {
        observers.push(collector.clone());
    }

    let mut patterns = if let Some(dur) = flags.get("min-dur") {
        // Duration-based (LPP-style) variant: intervals must LAST minDur.
        let min_dur: i64 = dur.parse().map_err(|e| format!("bad --min-dur: {e}"))?;
        mine_durations(&db, &DurationParams::new(resolved.per, min_dur, resolved.min_rec)).0
    } else if let Some(k) = flags.get("relaxed") {
        let budget: usize = k.parse().map_err(|e| format!("bad --relaxed: {e}"))?;
        let gap: i64 = flags.parse_num("fault-gap", resolved.per * 4)?;
        mine_relaxed(&db, &NoiseParams::new(resolved, budget, gap)).0
    } else {
        let threads: usize = flags.parse_num("threads", 1)?;
        let mut builder = MiningSession::builder().params(params).threads(threads).control(control);
        match observers.len() {
            0 => {}
            1 => builder = builder.observer(observers.pop().unwrap()),
            _ => builder = builder.observer(Arc::new(MultiObserver(observers))),
        }
        let session = builder.build().map_err(|e| e.to_string())?;
        let outcome = session.mine(&db).map_err(|e| e.to_string())?;
        if let Some(reason) = outcome.abort_reason() {
            eprintln!(
                "mining aborted ({reason}); {} patterns mined before the limit",
                outcome.patterns().len()
            );
        }
        outcome.into_result().patterns
    };

    if flags.flag("closed") {
        patterns = closed_patterns(&patterns);
    }
    if flags.flag("maximal") {
        patterns = maximal_patterns(&patterns);
    }
    if let Some(k) = flags.get("top") {
        let k: usize = k.parse().map_err(|e| format!("bad --top: {e}"))?;
        patterns = top_k(&patterns, k, RankBy::PeriodicCoverage);
    }
    eprintln!("{} patterns ({resolved:?})", patterns.len());
    let format = flags.get("format").unwrap_or("text");
    let mut stdout = std::io::stdout().lock();
    match format {
        "json" => write_patterns_json(&mut stdout, db.items(), &patterns)
            .map_err(|e| format!("write failed: {e}"))?,
        "tsv" => write_patterns_tsv(&mut stdout, db.items(), &patterns)
            .map_err(|e| format!("write failed: {e}"))?,
        "text" => {
            use std::io::Write;
            for p in &patterns {
                writeln!(stdout, "{}", p.display(db.items()))
                    .map_err(|e| format!("write failed: {e}"))?;
            }
        }
        other => return Err(format!("unknown --format {other:?} (text|json|tsv)")),
    }
    if let Some(conf) = flags.get("rules") {
        let conf: f64 = conf.parse().map_err(|e| format!("bad --rules: {e}"))?;
        let (rules, skipped) = generate_rules(&db, &patterns, conf);
        eprintln!(
            "{} rules at confidence >= {conf} ({skipped} oversize patterns skipped)",
            rules.len()
        );
        match format {
            "json" => write_rules_json(&mut stdout, db.items(), &rules)
                .map_err(|e| format!("write failed: {e}"))?,
            _ => {
                use std::io::Write;
                for r in &rules {
                    writeln!(stdout, "{}", r.display(db.items()))
                        .map_err(|e| format!("write failed: {e}"))?;
                }
            }
        }
    }
    if let Some((collector, path)) = &metrics {
        let json = collector.snapshot().to_json();
        if *path == "true" {
            // Bare `--metrics-json`: report on stderr, keeping stdout for
            // the patterns themselves.
            eprintln!("{json}");
        } else {
            std::fs::write(path, json + "\n")
                .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
            eprintln!("engine metrics written to {path}");
        }
    }
    Ok(())
}

/// `rpm spectrum`: how a pattern's recurrence reacts to the per threshold.
fn spectrum(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let db = load_db(&flags)?;
    let labels: Vec<&str> = flags.require("items")?.split_whitespace().collect();
    if labels.is_empty() {
        return Err("--items needs at least one label".into());
    }
    let ids = db.pattern_ids(&labels).ok_or_else(|| format!("unknown item among {labels:?}"))?;
    let min_ps = flags.require("min-ps")?.parse::<Threshold>()?.resolve(db.len());
    let ts = db.timestamps_of(&ids);
    if ts.is_empty() {
        return Err("pattern never occurs".into());
    }
    eprintln!("{} occurrences, minPS={min_ps}", ts.len());
    println!("per	runs	rec");
    for step in recurrence_spectrum(&ts, min_ps) {
        println!("{}	{}	{}", step.per, step.runs, step.interesting);
    }
    Ok(())
}

/// `rpm detect`: unknown-period detection for a pattern's point sequence.
fn detect(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let db = load_db(&flags)?;
    let labels: Vec<&str> = flags.require("items")?.split_whitespace().collect();
    let ids = db.pattern_ids(&labels).ok_or_else(|| format!("unknown item among {labels:?}"))?;
    let max_period: i64 = flags.parse_num("max-period", 1440)?;
    let ts = db.timestamps_of(&ids);
    if ts.len() < 3 {
        return Err("pattern occurs fewer than 3 times".into());
    }
    let method = flags.get("method").unwrap_or("consensus");
    let detected = match method {
        "chi" => chi_squared_periods(&ts, max_period, 3.84),
        "auto" => autocorrelation_periods(&ts, max_period, 2.0),
        "consensus" => consensus_periods(&ts, max_period),
        other => return Err(format!("unknown --method {other:?} (chi|auto|consensus)")),
    };
    eprintln!("{} occurrences; {} candidate periods ({method})", ts.len(), detected.len());
    println!("period\tscore\toccurrences");
    for d in detected.iter().take(flags.parse_num("top", 20)?) {
        println!("{}\t{:.2}\t{}", d.period, d.score, d.occurrences);
    }
    Ok(())
}

fn pf(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let db = load_db(&flags)?;
    let max_per: i64 =
        flags.require("max-per")?.parse().map_err(|e| format!("bad --max-per: {e}"))?;
    let min_sup = flags.require("min-sup")?.parse::<Threshold>()?;
    let (patterns, stats) = PfGrowth::new(PfParams::new(max_per, min_sup)).mine(&db);
    eprintln!(
        "{} periodic-frequent patterns ({} candidates checked)",
        patterns.len(),
        stats.candidates_checked
    );
    for p in &patterns {
        println!("{} sup={} per={}", db.items().pattern_string(&p.items), p.support, p.periodicity);
    }
    Ok(())
}

fn ppattern(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let db = load_db(&flags)?;
    let period: i64 = flags.require("period")?.parse().map_err(|e| format!("bad --period: {e}"))?;
    let min_sup = flags.require("min-sup")?.parse::<Threshold>()?;
    let window: i64 = flags.parse_num("window", 1)?;
    let params = PPatternParams::new(period, min_sup, window);
    let (patterns, stats) = mine_periodic_first(&db, &params, Some(1_000_000));
    eprintln!(
        "{} p-patterns{}",
        patterns.len(),
        if stats.truncated { " (capped at 1,000,000)" } else { "" }
    );
    for p in &patterns {
        println!(
            "{} sup={} psup={}",
            db.items().pattern_string(&p.items),
            p.support,
            p.periodic_support
        );
    }
    Ok(())
}

/// `rpm convert`: re-encode a database between text and binary formats.
fn convert(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let db = load_db(&flags)?;
    let out = flags.positional.get(1).ok_or_else(|| "missing output path".to_string())?;
    let result = if out.ends_with(".rpmb") {
        recurring_patterns::timeseries::save_binary(&db, out)
    } else {
        io::save_timestamped(&db, out)
    };
    result.map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("wrote {} transactions to {out}", db.len());
    Ok(())
}

fn generate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let kind = flags
        .positional
        .first()
        .ok_or_else(|| "missing generator name (quest|shop|twitter)".to_string())?;
    let out = flags.require("out")?;
    let scale: f64 = flags.parse_num("scale", 0.25)?;
    let seed: u64 = flags.parse_num("seed", 1)?;
    let db = match kind.as_str() {
        "quest" => generate_quest(&QuestConfig { seed, ..QuestConfig::default() }.scaled(scale)),
        "shop" => generate_clickstream(&ShopConfig { scale, seed, ..ShopConfig::default() }).db,
        "twitter" => {
            generate_twitter(&TwitterConfig { scale, seed, ..TwitterConfig::default() }).db
        }
        other => return Err(format!("unknown generator {other:?}")),
    };
    let write_result = if out.ends_with(".rpmb") {
        recurring_patterns::timeseries::save_binary(&db, out)
    } else {
        io::save_timestamped(&db, out)
    };
    write_result.map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("wrote {} transactions, {} items to {out}", db.len(), db.item_count());
    Ok(())
}

/// `rpm serve`: the HTTP serving layer over the mining engine.
fn serve(args: &[String]) -> Result<(), String> {
    use recurring_patterns::core::ResolvedParams;
    use recurring_patterns::server::{PersistConfig, Server, ServerConfig};

    let flags = Flags::parse(args)?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:8726").to_string();
    let threads: usize = flags.parse_num("threads", 4)?;
    let cache_mb: usize = flags.parse_num("cache-mb", 64)?;
    let queue_depth: usize = flags.parse_num("queue", 64)?;
    let io_timeout = match flags.get("io-timeout") {
        Some(t) => parse_timeout(t)?,
        None => std::time::Duration::from_secs(30),
    };
    // Durability: --data-dir switches the registry to WAL + snapshot mode;
    // --fsync and --snapshot-every tune it.
    let persist = match flags.get("data-dir") {
        Some(dir) => {
            let mut persist = PersistConfig::new(dir);
            if let Some(policy) = flags.get("fsync") {
                persist.fsync = policy.parse()?;
            }
            persist.snapshot_every = flags.parse_num("snapshot-every", persist.snapshot_every)?;
            if persist.snapshot_every == 0 {
                return Err("--snapshot-every must be at least 1".to_string());
            }
            Some(persist)
        }
        None => {
            if flags.get("fsync").is_some() || flags.get("snapshot-every").is_some() {
                return Err("--fsync/--snapshot-every need --data-dir".to_string());
            }
            None
        }
    };
    // Replication: --repl-addr makes this node a primary that streams its
    // WAL; --replica-of makes it a follower of one. Both need the journal,
    // hence --data-dir.
    let repl_addr = flags.get("repl-addr").map(str::to_string);
    let replica_of = flags.get("replica-of").map(str::to_string);
    if (repl_addr.is_some() || replica_of.is_some() || flags.get("max-lag").is_some())
        && persist.is_none()
    {
        return Err("--repl-addr/--replica-of/--max-lag need --data-dir".to_string());
    }
    let repl_max_lag: u64 =
        flags.parse_num("max-lag", recurring_patterns::server::REPL_MAX_LAG_SEQS)?;
    let config = ServerConfig {
        addr,
        threads,
        cache_bytes: cache_mb.saturating_mul(1 << 20),
        queue_depth,
        io_timeout,
        persist,
        repl_addr,
        replica_of,
        repl_max_lag,
    };
    let handle = Server::bind(config).map_err(|e| format!("cannot bind: {e}"))?;
    if let Some(recovery) = handle.recovery() {
        for name in &recovery.recovered {
            eprintln!("recovered dataset {name:?} from the data directory");
        }
        for name in &recovery.skipped {
            eprintln!("warning: on-disk state for {name:?} was unrecoverable, skipped");
        }
    }

    // Preload datasets; the per/min-ps/min-rec flags become their hot
    // parameters (min-ps as an absolute count — the incremental scanners
    // cannot track a percentage of a growing stream). Names recovered from
    // the data directory win: preloading over one is refused rather than
    // silently clobbering recovered state.
    let preload = flags.get_all("load");
    if !preload.is_empty() {
        let hot = ResolvedParams::new(
            flags.parse_num("per", 1)?,
            flags.parse_num("min-ps", 2)?,
            flags.parse_num("min-rec", 2)?,
        );
        for spec in preload {
            let (name, path) = spec
                .split_once('=')
                .ok_or_else(|| format!("bad --load {spec:?}: expected NAME=PATH"))?;
            let db = load_db_path(path)?;
            match handle.registry().register(name, db, hot, false) {
                Ok(fingerprint) => eprintln!(
                    "loaded dataset {name:?} from {path} (fingerprint {fingerprint:016x})"
                ),
                Err(recurring_patterns::server::RegisterError::Exists) => {
                    // Restarting with the same --load flags: the recovered
                    // dataset (which may hold appends) wins.
                    eprintln!("dataset {name:?} already present (recovered), skipping {path}");
                }
                Err(e) => return Err(format!("cannot load {name:?}: {e}")),
            }
        }
    }

    eprintln!("rpm-server listening on {} ({threads} workers)", handle.addr());
    handle.join();
    eprintln!("rpm-server stopped");
    Ok(())
}
