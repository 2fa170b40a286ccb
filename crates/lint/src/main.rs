//! The `rpm-lint` binary: lints the workspace, prints human or `--json`
//! output, exits non-zero on violations.

use std::path::PathBuf;
use std::process::ExitCode;

use rpm_lint::{baseline, lint_workspace};

const USAGE: &str = "\
usage: rpm-lint [--json] [--root DIR] [--list-rules]
                [--baseline FILE] [--write-baseline [FILE]]

Repo-specific static analysis (see DESIGN.md §7). Exits 0 when clean,
1 on violations, 2 on usage or I/O errors. Without --root, the workspace
is found by walking up from the current directory.

With --baseline, the gate compares findings against the committed
baseline and fails only on findings not covered by it (stale entries are
printed as notes). --write-baseline regenerates the file from the
current findings (defaults to lint-baseline.json under the root).";

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<Option<PathBuf>> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--baseline needs a file\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--write-baseline" => {
                // Optional operand: consume the next arg only if it is
                // not itself a flag.
                let next = args.peek().filter(|a| !a.starts_with("--")).cloned();
                if next.is_some() {
                    args.next();
                }
                write_baseline = Some(next.map(PathBuf::from));
            }
            "--list-rules" => {
                for rule in rpm_lint::RULES {
                    println!("{rule}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("cannot find a workspace root (no Cargo.toml with [workspace] above cwd)");
        return ExitCode::from(2);
    };
    let report = match lint_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("rpm-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if let Some(path) = write_baseline {
        let path = path.unwrap_or_else(|| root.join("lint-baseline.json"));
        let text = baseline::render(&report.violations);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("rpm-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("rpm-lint: wrote baseline to {}", path.display());
        return ExitCode::SUCCESS;
    }
    if let Some(path) = baseline_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("rpm-lint: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let base = match baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("rpm-lint: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let d = baseline::diff(&report.violations, &base);
        for finding in &d.new {
            let (rule, file, _) = &finding.key;
            let lines: Vec<String> = finding.lines.iter().map(|l| l.to_string()).collect();
            eprintln!(
                "rpm-lint: NEW [{rule}] {file} (+{}, lines {}): {}",
                finding.excess,
                lines.join(", "),
                finding.message
            );
        }
        for ((rule, file, message), unused) in &d.stale {
            eprintln!(
                "rpm-lint: note: stale baseline entry [{rule}] {file} (-{unused}): {message} \
                 (regenerate with --write-baseline to tighten)"
            );
        }
        return if d.is_clean() {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "rpm-lint: {} finding group(s) not in baseline {}",
                d.new.len(),
                path.display()
            );
            ExitCode::FAILURE
        };
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
