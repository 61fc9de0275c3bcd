//! SARIF 2.1.0 emission for lint runs (`cargo xtask lint --sarif <path|->`).
//!
//! The Static Analysis Results Interchange Format is what code-scanning
//! UIs (GitHub, VS Code SARIF viewers) ingest. This emitter produces the
//! minimal conforming subset: one run, one tool driver with a rule per
//! lint family, and one result per diagnostic. Every result is
//! `"level": "error"`, as in the native report ([`crate::report`]): any
//! diagnostic fails the gate.
//!
//! Like the native format, documents are validated through the in-tree
//! JSON parser ([`validate`]) before CI archives them.

use std::fmt::Write as _;

use crate::lints::{LintId, Violation};
use crate::report::json_string;

/// The SARIF spec version emitted in every document.
pub const SARIF_VERSION: &str = "2.1.0";

/// Tool name advertised in `runs[0].tool.driver.name`.
pub const TOOL_NAME: &str = "finrad-lint";

/// Serializes the outcome of a lint run as a SARIF 2.1.0 document.
pub fn to_sarif(violations: &[Violation]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"version\": {},", json_string(SARIF_VERSION));
    let _ = writeln!(
        out,
        "  \"$schema\": {},",
        json_string("https://json.schemastore.org/sarif-2.1.0.json")
    );
    out.push_str("  \"runs\": [\n    {\n");

    // Tool driver with one reportingDescriptor per family.
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    let _ = writeln!(out, "          \"name\": {},", json_string(TOOL_NAME));
    out.push_str("          \"rules\": [");
    for (i, lint) in LintId::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n            {{\"id\": {}, \"name\": {}}}",
            json_string(lint.as_str()),
            json_string(&rule_name(*lint)),
        );
    }
    out.push_str("\n          ]\n        }\n      },\n");

    out.push_str("      \"results\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n        {{\"ruleId\": {}, \"level\": \"error\", \"message\": {{\"text\": {}}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}]}}",
            json_string(v.lint.as_str()),
            json_string(&v.message),
            json_string(&v.file.display().to_string()),
            v.line,
            v.col,
        );
    }
    if !violations.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

/// SARIF rule names are PascalCase by convention; derive one from the
/// kebab-case lint id (`lock-order-audit` → `LockOrderAudit`).
fn rule_name(lint: LintId) -> String {
    lint.as_str()
        .split('-')
        .map(|w| {
            let mut cs = w.chars();
            match cs.next() {
                Some(c) => c.to_uppercase().chain(cs).collect::<String>(),
                None => String::new(),
            }
        })
        .collect()
}

/// Validates `text` as one of our SARIF documents using the in-tree JSON
/// parser. Returns the list of problems (empty = valid).
pub fn validate(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let doc = match crate::json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![e.to_string()],
    };
    let Some(obj) = doc.as_object() else {
        return vec!["SARIF root is not an object".to_string()];
    };

    match obj.get("version").and_then(|v| v.as_str()) {
        Some(SARIF_VERSION) => {}
        Some(other) => problems.push(format!(
            "version mismatch: expected `{SARIF_VERSION}`, found `{other}`"
        )),
        None => problems.push("missing string member `version`".to_string()),
    }

    let Some(runs) = obj.get("runs").and_then(|v| v.as_array()) else {
        problems.push("missing array `runs`".to_string());
        return problems;
    };
    if runs.len() != 1 {
        problems.push(format!("expected exactly one run, found {}", runs.len()));
        return problems;
    }
    let run = &runs[0];

    match run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("name"))
        .and_then(|n| n.as_str())
    {
        Some(TOOL_NAME) => {}
        Some(other) => problems.push(format!(
            "tool.driver.name mismatch: expected `{TOOL_NAME}`, found `{other}`"
        )),
        None => problems.push("missing tool.driver.name".to_string()),
    }

    match run.get("results").and_then(|v| v.as_array()) {
        None => problems.push("missing array `results`".to_string()),
        Some(results) => {
            for (i, r) in results.iter().enumerate() {
                let rule_ok = r
                    .get("ruleId")
                    .and_then(|v| v.as_str())
                    .is_some_and(|id| LintId::ALL.iter().any(|l| l.as_str() == id));
                let level_ok = r
                    .get("level")
                    .and_then(|v| v.as_str())
                    .is_some_and(|l| l == "error");
                let message_ok = r
                    .get("message")
                    .and_then(|m| m.get("text"))
                    .and_then(|t| t.as_str())
                    .is_some();
                let location_ok = r
                    .get("locations")
                    .and_then(|v| v.as_array())
                    .and_then(|locs| locs.first())
                    .and_then(|l| l.get("physicalLocation"))
                    .is_some_and(|pl| {
                        pl.get("artifactLocation")
                            .and_then(|a| a.get("uri"))
                            .and_then(|u| u.as_str())
                            .is_some()
                            && pl
                                .get("region")
                                .and_then(|reg| reg.get("startLine"))
                                .and_then(|n| n.as_u64())
                                .is_some_and(|n| n >= 1)
                    });
                if !(rule_ok && level_ok && message_ok && location_ok) {
                    problems.push(format!("results[{i}] is malformed"));
                }
            }
        }
    }

    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::Violation;
    use std::path::PathBuf;

    fn sample() -> Vec<Violation> {
        vec![
            Violation {
                lint: LintId::LockOrderAudit,
                file: PathBuf::from("crates/core/src/service.rs"),
                line: 12,
                col: 9,
                message: "lock-order cycle `a -> b -> a`".to_string(),
            },
            Violation {
                lint: LintId::FloatDiscipline,
                file: PathBuf::from("crates/spice/src/solver.rs"),
                line: 40,
                col: 1,
                message: "float \"equality\"".to_string(),
            },
        ]
    }

    #[test]
    fn sarif_round_trips_through_own_parser_and_validates() {
        let sarif = to_sarif(&sample());
        let doc = crate::json::parse(&sarif).expect("self-emitted SARIF must parse");
        assert_eq!(
            doc.get("version").and_then(|v| v.as_str()),
            Some(SARIF_VERSION)
        );
        let runs = doc.get("runs").and_then(|v| v.as_array()).unwrap();
        let results = runs[0].get("results").and_then(|v| v.as_array()).unwrap();
        assert_eq!(results.len(), 2);
        for r in results {
            assert_eq!(r.get("level").and_then(|v| v.as_str()), Some("error"));
        }
        let rules = runs[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(|r| r.as_array())
            .unwrap();
        assert_eq!(rules.len(), LintId::ALL.len());
        assert!(validate(&sarif).is_empty(), "{:?}", validate(&sarif));
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(!validate("{}").is_empty());
        assert!(!validate("not json").is_empty());
        let bad = to_sarif(&sample()).replace("\"2.1.0\"", "\"9.9\"");
        assert!(validate(&bad)
            .iter()
            .any(|p| p.contains("version mismatch")));
        let bad_rule = to_sarif(&sample())
            .replace("\"ruleId\": \"lock-order-audit\"", "\"ruleId\": \"bogus\"");
        assert!(validate(&bad_rule).iter().any(|p| p.contains("results[0]")));
        let note = to_sarif(&sample()).replacen("\"level\": \"error\"", "\"level\": \"note\"", 1);
        assert!(validate(&note).iter().any(|p| p.contains("results[0]")));
    }

    #[test]
    fn rule_names_are_pascal_case() {
        assert_eq!(rule_name(LintId::LockOrderAudit), "LockOrderAudit");
        assert_eq!(rule_name(LintId::UnitSafety), "UnitSafety");
    }
}
