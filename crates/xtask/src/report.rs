//! Machine-readable JSON report of a lint run (SARIF-lite).
//!
//! The document is schema-versioned so CI consumers can reject drift, and
//! it is validated through the in-tree JSON parser ([`crate::json`]) both
//! by the emitter (before writing) and by `cargo xtask lint
//! --check-report` (after, in CI).

use std::fmt::Write as _;

use crate::lints::{LintId, Violation};

/// Schema identifier of the report format. Bump the `/N` suffix on any
/// field change.
pub const REPORT_SCHEMA: &str = "finrad-lint-report/4";

/// Serializes a lint run as a JSON document; the run passes exactly when
/// `violations` is empty.
///
/// Schema (`finrad-lint-report/4` — `/4` removed the per-file budget
/// fields along with the budgets):
///
/// ```json
/// {
///   "schema": "finrad-lint-report/4",
///   "files_scanned": 42,
///   "pass": false,
///   "counts": {"unit-safety": 0, "rng-determinism": 1, ...},
///   "diagnostics": [
///     {"lint": "rng-determinism", "level": "error", "file": "...",
///      "line": 1, "col": 5, "message": "..."}
///   ]
/// }
/// ```
///
/// `counts` has one member per lint family (all fourteen, zero included);
/// every diagnostic is `"level": "error"`, in the order given.
pub fn to_json(files_scanned: usize, violations: &[Violation]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": {},", json_string(REPORT_SCHEMA));
    let _ = writeln!(out, "  \"files_scanned\": {files_scanned},");
    let _ = writeln!(out, "  \"pass\": {},", violations.is_empty());

    out.push_str("  \"counts\": {");
    for (i, lint) in LintId::ALL.iter().enumerate() {
        let n = violations.iter().filter(|v| v.lint == *lint).count();
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{lint}\": {n}");
    }
    out.push_str("},\n");

    out.push_str("  \"diagnostics\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"lint\": {}, \"level\": \"error\", \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}}}",
            json_string(v.lint.as_str()),
            json_string(&v.file.display().to_string()),
            v.line,
            v.col,
            json_string(&v.message),
        );
    }
    if !violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Validates `text` against the `finrad-lint-report/4` schema using the
/// in-tree JSON parser. Returns the list of problems (empty = valid).
pub fn validate(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let doc = match crate::json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![e.to_string()],
    };
    let Some(obj) = doc.as_object() else {
        return vec!["report root is not an object".to_string()];
    };

    match obj.get("schema").and_then(|v| v.as_str()) {
        Some(REPORT_SCHEMA) => {}
        Some(other) => problems.push(format!(
            "schema mismatch: expected `{REPORT_SCHEMA}`, found `{other}`"
        )),
        None => problems.push("missing string member `schema`".to_string()),
    }
    if obj.get("files_scanned").and_then(|v| v.as_u64()).is_none() {
        problems.push("missing non-negative integer `files_scanned`".to_string());
    }
    if !matches!(obj.get("pass"), Some(crate::json::Value::Bool(_))) {
        problems.push("missing boolean `pass`".to_string());
    }

    match obj.get("counts").and_then(|v| v.as_object()) {
        None => problems.push("missing object `counts`".to_string()),
        Some(counts) => {
            for lint in LintId::ALL {
                if counts.get(lint.as_str()).and_then(|v| v.as_u64()).is_none() {
                    problems.push(format!("counts is missing integer `{lint}`"));
                }
            }
            for key in counts.keys() {
                if !LintId::ALL.iter().any(|l| l.as_str() == key) {
                    problems.push(format!("counts has unknown lint `{key}`"));
                }
            }
        }
    }

    match obj.get("diagnostics").and_then(|v| v.as_array()) {
        None => problems.push("missing array `diagnostics`".to_string()),
        Some(diags) => {
            for (i, d) in diags.iter().enumerate() {
                let ok = d
                    .get("lint")
                    .and_then(|v| v.as_str())
                    .is_some_and(|id| LintId::ALL.iter().any(|l| l.as_str() == id))
                    && d.get("level")
                        .and_then(|v| v.as_str())
                        .is_some_and(|l| l == "error")
                    && d.get("file").and_then(|v| v.as_str()).is_some()
                    && d.get("line")
                        .and_then(|v| v.as_u64())
                        .is_some_and(|n| n >= 1)
                    && d.get("col")
                        .and_then(|v| v.as_u64())
                        .is_some_and(|n| n >= 1)
                    && d.get("message").and_then(|v| v.as_str()).is_some();
                if !ok {
                    problems.push(format!("diagnostics[{i}] is malformed"));
                }
            }
        }
    }

    problems
}

/// Escapes `s` as a JSON string literal (shared with [`crate::sarif`]).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sample() -> Vec<Violation> {
        vec![
            Violation {
                lint: LintId::PanicFreedom,
                file: PathBuf::from("a.rs"),
                line: 3,
                col: 7,
                message: "say \"no\" to panics".to_string(),
            },
            Violation {
                lint: LintId::FloatDiscipline,
                file: PathBuf::from("c.rs"),
                line: 9,
                col: 2,
                message: "tolerances".to_string(),
            },
        ]
    }

    #[test]
    fn report_round_trips_through_own_parser_and_validates() {
        let json = to_json(7, &sample());
        let doc = crate::json::parse(&json).expect("self-emitted report must parse");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(REPORT_SCHEMA)
        );
        assert_eq!(doc.get("files_scanned").and_then(|v| v.as_u64()), Some(7));
        assert!(matches!(
            doc.get("pass"),
            Some(crate::json::Value::Bool(false))
        ));
        let diags = doc.get("diagnostics").and_then(|v| v.as_array()).unwrap();
        assert_eq!(diags.len(), 2);
        for d in diags {
            assert_eq!(d.get("level").and_then(|v| v.as_str()), Some("error"));
        }
        assert_eq!(diags[0].get("col").and_then(|v| v.as_u64()), Some(7));
        assert!(validate(&json).is_empty(), "{:?}", validate(&json));
    }

    #[test]
    fn clean_run_passes_and_counts_cover_all_families() {
        let json = to_json(1, &[]);
        let doc = crate::json::parse(&json).unwrap();
        assert!(matches!(
            doc.get("pass"),
            Some(crate::json::Value::Bool(true))
        ));
        let counts = doc.get("counts").and_then(|v| v.as_object()).unwrap();
        assert_eq!(counts.len(), LintId::ALL.len());
        assert!(validate(&json).is_empty(), "{:?}", validate(&json));
    }

    #[test]
    fn validate_rejects_drifted_documents() {
        assert!(!validate("{}").is_empty());
        assert!(!validate("not json").is_empty());
        let wrong_schema = to_json(1, &[]).replace(REPORT_SCHEMA, "finrad-lint-report/3");
        assert!(validate(&wrong_schema)
            .iter()
            .any(|p| p.contains("schema mismatch")));
        let bad_diag = to_json(1, &sample()).replace("\"col\": 7", "\"col\": 0");
        assert!(validate(&bad_diag)
            .iter()
            .any(|p| p.contains("diagnostics[0]")));
        let note = to_json(1, &sample()).replacen("\"level\": \"error\"", "\"level\": \"note\"", 1);
        assert!(validate(&note).iter().any(|p| p.contains("diagnostics[0]")));
    }
}
