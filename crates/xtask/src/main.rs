//! `cargo xtask` — workspace automation entry point.
//!
//! ```text
//! cargo xtask lint                    # fail on any diagnostic
//! cargo xtask lint --json <path|->    # also write the JSON report (`-`: stdout)
//! cargo xtask lint --sarif <path|->   # also write SARIF 2.1.0 (`-`: stdout)
//! cargo xtask lint --check-report <p> # schema-validate a JSON or SARIF report
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::{baseline, lints, report};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint_command(&args[1..]),
        Some(other) => {
            eprintln!("unknown xtask command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: cargo xtask lint [--json <path|->] [--sarif <path|->] \
[--check-report <path>]";

fn lint_command(args: &[String]) -> ExitCode {
    let mut json_target: Option<String> = None;
    let mut sarif_target: Option<String> = None;
    let mut check_report: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let slot = match arg.as_str() {
            "--json" => &mut json_target,
            "--sarif" => &mut sarif_target,
            "--check-report" => &mut check_report,
            other => {
                eprintln!("unknown lint flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        };
        match it.next() {
            Some(value) => *slot = Some(value.clone()),
            None => {
                eprintln!("{arg} needs a path\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    // Two documents back to back on one stdout parse as neither.
    if json_target.as_deref() == Some("-") && sarif_target.as_deref() == Some("-") {
        eprintln!("--json - and --sarif - cannot share stdout; send one to a file\n{USAGE}");
        return ExitCode::from(2);
    }

    if let Some(path) = check_report {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        // Auto-detect the dialect: a SARIF document has a `runs` array at
        // the root, the native report does not.
        let is_sarif = xtask::json::parse(&text)
            .ok()
            .and_then(|doc| doc.as_object().map(|o| o.get("runs").is_some()))
            .unwrap_or(false);
        let (problems, dialect) = if is_sarif {
            (xtask::sarif::validate(&text), "SARIF 2.1.0".to_string())
        } else {
            (
                report::validate(&text),
                format!("{} report", report::REPORT_SCHEMA),
            )
        };
        if problems.is_empty() {
            println!("{path}: schema-valid {dialect}");
            return ExitCode::SUCCESS;
        }
        for p in &problems {
            eprintln!("error: {path}: {p}");
        }
        return ExitCode::FAILURE;
    }

    let root = workspace_root();
    let scan = match xtask::scan_tree(&root) {
        Ok(scan) => scan,
        Err(e) => {
            eprintln!("error: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let pin = match baseline::load(&root) {
        Ok(pin) => pin,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Workspace-level check: the checkpoint codec fingerprint against the
    // pin in `xtask/lint-baseline.toml`.
    let mut violations = scan.violations;
    violations.extend(lints::checkpoint_drift(&scan.index, pin));

    // Compose and self-check every requested document before writing any:
    // never emit a document the schema gate would reject.
    let mut outputs: Vec<(String, String)> = Vec::new();
    if let Some(target) = json_target {
        let doc = report::to_json(scan.files_scanned, &violations);
        if fails_own_schema("JSON report", &report::validate(&doc)) {
            return ExitCode::from(2);
        }
        outputs.push((target, doc));
    }
    if let Some(target) = sarif_target {
        let doc = xtask::sarif::to_sarif(&violations);
        if fails_own_schema("SARIF document", &xtask::sarif::validate(&doc)) {
            return ExitCode::from(2);
        }
        outputs.push((target, doc));
    }
    let mut human_to_stderr = false;
    for (target, doc) in &outputs {
        if target == "-" {
            // With a document on stdout, human output moves to stderr so
            // the document stays parseable. write_all instead of print! so
            // a closed pipe (`... --json - | head`) is a silent truncation,
            // not a panic.
            human_to_stderr = true;
            let _ = std::io::stdout().write_all(doc.as_bytes());
        } else if let Err(e) = std::fs::write(target, doc) {
            eprintln!("error: cannot write {target}: {e}");
            return ExitCode::from(2);
        }
    }

    let mut human = String::new();
    for v in &violations {
        let _ = writeln!(human, "error: {v}");
    }
    let _ = writeln!(
        human,
        "lint: {} file(s), {} violation(s)",
        scan.files_scanned,
        violations.len()
    );
    if human_to_stderr {
        eprint!("{human}");
    } else {
        print!("{human}");
    }

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the problems of a composed document; true when there are any.
fn fails_own_schema(what: &str, problems: &[String]) -> bool {
    for p in problems {
        eprintln!("error: composed {what} fails its own schema: {p}");
    }
    !problems.is_empty()
}

/// The workspace root: two levels above this crate's manifest directory.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives at <root>/crates/xtask")
        .to_path_buf()
}
