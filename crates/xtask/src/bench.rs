//! `cargo xtask bench` — machine-readable benchmark trajectory files.
//!
//! Runs the dependency-free micro-benchmark harness (`crates/bench`) with
//! `FINRAD_BENCH_JSON=1`, runs the instrumented smoke pipeline
//! (`pipeline_metrics`), and composes both into one schema-versioned
//! `BENCH_<n>.json` snapshot: per-bench ns/iter, solver counters, MC
//! throughput and host parallelism. Checking a sequence of such files into
//! the repo over time gives the project a performance trajectory that a
//! human (or CI) can diff. `--check <path>` validates an existing file
//! against the schema; see `docs/observability.md` for the field
//! catalogue.

use crate::json::{self, Value};

/// Version stamped into (and required of) every trajectory file.
pub const SCHEMA_VERSION: u64 = 1;

/// One `BENCHJSON` line from the harness.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Benchmark name as registered with the harness.
    pub name: String,
    /// Nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations measured.
    pub iters: u64,
}

/// Scrapes `BENCHJSON {...}` lines out of harness stdout. Malformed lines
/// are returned as errors rather than skipped — a truncated write must not
/// silently shrink the trajectory.
///
/// # Errors
///
/// A description of the first malformed `BENCHJSON` line.
pub fn parse_bench_lines(stdout: &str) -> Result<Vec<BenchEntry>, String> {
    let mut out = Vec::new();
    for line in stdout.lines() {
        let Some(body) = line.strip_prefix("BENCHJSON ") else {
            continue;
        };
        let v = json::parse(body).map_err(|e| format!("bad BENCHJSON line: {e}: {body}"))?;
        let entry = (|| {
            Some(BenchEntry {
                name: v.get("name")?.as_str()?.to_owned(),
                ns_per_iter: v.get("ns_per_iter")?.as_f64()?,
                iters: v.get("iters")?.as_u64()?,
            })
        })()
        .ok_or_else(|| format!("BENCHJSON line missing name/ns_per_iter/iters: {body}"))?;
        out.push(entry);
    }
    Ok(out)
}

/// Scrapes the `METRICSJSON {...}` line out of `pipeline_metrics` stdout,
/// returning the raw JSON text (validated to parse as an object).
///
/// # Errors
///
/// When no line is present or the payload is not a JSON object.
pub fn extract_metrics(stdout: &str) -> Result<String, String> {
    let body = stdout
        .lines()
        .find_map(|l| l.strip_prefix("METRICSJSON "))
        .ok_or("pipeline_metrics printed no METRICSJSON line")?;
    let v = json::parse(body).map_err(|e| format!("bad METRICSJSON payload: {e}"))?;
    if v.as_object().is_none() {
        return Err("METRICSJSON payload is not a JSON object".into());
    }
    Ok(body.to_owned())
}

/// Composes the `BENCH_<n>.json` document.
///
/// `pipeline_json` must be the (already validated) `METRICSJSON` payload;
/// it is embedded verbatim.
pub fn compose(
    bench_ms: u64,
    smoke: bool,
    available_parallelism: u64,
    benches: &[BenchEntry],
    pipeline_json: &str,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"bench_ms\": {bench_ms},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!(
        "  \"host\": {{\"available_parallelism\": {available_parallelism}}},\n"
    ));
    out.push_str("  \"benches\": [\n");
    for (i, b) in benches.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"ns_per_iter\": {}, \"iters\": {}}}{}\n",
            escape(&b.name),
            format_number(b.ns_per_iter),
            b.iters,
            if i + 1 < benches.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"pipeline\": {pipeline_json}\n"));
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn format_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

/// The index for the next `BENCH_<n>.json` given the names already in the
/// target directory. Numbering starts at 3 (the PR that introduced the
/// trajectory); later snapshots continue from the highest existing index.
pub fn next_index<'a>(existing_names: impl Iterator<Item = &'a str>) -> u32 {
    existing_names
        .filter_map(|name| {
            let rest = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            rest.parse::<u32>().ok()
        })
        .max()
        .map(|max| max + 1)
        .unwrap_or(3)
}

/// Validates a trajectory document against the `schema_version` 1 schema.
/// Returns every violation found (empty means valid).
pub fn validate(text: &str) -> Vec<String> {
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![e.to_string()],
    };
    let mut errors = Vec::new();
    let mut need = |cond: bool, msg: &str| {
        if !cond {
            errors.push(msg.to_owned());
        }
    };

    need(doc.as_object().is_some(), "top level must be an object");
    need(
        doc.get("schema_version").and_then(Value::as_u64) == Some(SCHEMA_VERSION),
        "schema_version must be the number 1",
    );
    need(
        doc.get("bench_ms")
            .and_then(Value::as_u64)
            .is_some_and(|ms| ms >= 1),
        "bench_ms must be an integer >= 1",
    );
    need(
        matches!(doc.get("smoke"), Some(Value::Bool(_))),
        "smoke must be a boolean",
    );
    need(
        doc.get("host")
            .and_then(|h| h.get("available_parallelism"))
            .and_then(Value::as_u64)
            .is_some_and(|n| n >= 1),
        "host.available_parallelism must be an integer >= 1",
    );

    match doc.get("benches").and_then(Value::as_array) {
        None => errors.push("benches must be an array".into()),
        Some(benches) => {
            for (i, b) in benches.iter().enumerate() {
                let ok = b.get("name").and_then(Value::as_str).is_some()
                    && b.get("ns_per_iter")
                        .and_then(Value::as_f64)
                        .is_some_and(|v| v.is_finite() && v >= 0.0)
                    && b.get("iters").and_then(Value::as_u64).is_some();
                if !ok {
                    errors.push(format!(
                        "benches[{i}] needs string `name`, non-negative `ns_per_iter` \
                         and integer `iters`"
                    ));
                }
            }
        }
    }

    let counters = doc.get("pipeline").and_then(|p| p.get("counters"));
    match counters.and_then(Value::as_object) {
        None => errors.push("pipeline.counters must be an object".into()),
        Some(counters) => {
            for (k, v) in counters {
                if v.as_u64().is_none() {
                    errors.push(format!("pipeline.counters[{k:?}] must be an integer"));
                }
            }
        }
    }
    let histograms = doc.get("pipeline").and_then(|p| p.get("histograms"));
    match histograms.and_then(Value::as_object) {
        None => errors.push("pipeline.histograms must be an object".into()),
        Some(histograms) => {
            for (k, h) in histograms {
                let ok = h.get("count").and_then(Value::as_u64).is_some()
                    && ["sum", "min", "max"]
                        .iter()
                        .all(|f| h.get(f).and_then(Value::as_f64).is_some());
                if !ok {
                    errors.push(format!(
                        "pipeline.histograms[{k:?}] needs integer `count` and numeric \
                         `sum`/`min`/`max`"
                    ));
                }
            }
        }
    }
    errors
}

/// Checks that a trajectory document carries each required pipeline
/// counter with a non-zero value. Returns one message per missing or zero
/// counter (empty means all present). Used by `cargo xtask bench --check
/// --require-counter <key>` so CI can gate on the instrumented smoke run
/// actually exercising a code path (e.g. the warm-start counters) instead
/// of merely validating the file's shape.
pub fn require_counters(text: &str, required: &[String]) -> Vec<String> {
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![e.to_string()],
    };
    let counters = doc.get("pipeline").and_then(|p| p.get("counters"));
    required
        .iter()
        .filter_map(|key| match counters.and_then(|c| c.get(key)) {
            None => Some(format!("required pipeline counter {key:?} is missing")),
            Some(v) if v.as_u64() == Some(0) => {
                Some(format!("required pipeline counter {key:?} is zero"))
            }
            Some(_) => None,
        })
        .collect()
}

/// Benches whose `ns_per_iter` is gated by `--diff-base`: the macro
/// kernels the performance trajectory tracks round over round. Sub-µs
/// micro-benches are deliberately excluded — at that scale run-to-run
/// jitter on a shared CI host routinely exceeds the regression budget,
/// so gating them would only produce flaky failures.
pub const PINNED_BENCHES: &[&str] = &[
    "sram_strike_transient",
    "sram_hold_transient_100steps",
    "characterization/critical_charge_bisection",
];

/// Allowed fractional `ns_per_iter` growth for a pinned bench before the
/// differential check fails (0.15 = +15%).
pub const DIFF_MAX_REGRESSION: f64 = 0.15;

/// Name → ns/iter pairs of a trajectory document's bench array.
fn bench_times(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let benches = doc
        .get("benches")
        .and_then(Value::as_array)
        .ok_or("benches must be an array")?;
    benches
        .iter()
        .map(|b| {
            Some((
                b.get("name")?.as_str()?.to_owned(),
                b.get("ns_per_iter")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "bench entry missing name/ns_per_iter".to_owned())
}

/// Differential mode (`cargo xtask bench --diff-base`): compares
/// `current` against a baseline trajectory document and returns one
/// message per [`PINNED_BENCHES`] entry that regressed beyond
/// [`DIFF_MAX_REGRESSION`] (empty means no regressions). A pinned bench
/// present in the base but dropped from the current document is also an
/// error — deleting a bench must not silently pass the gate; a pinned
/// bench absent from the base is a fresh gate and is skipped.
pub fn diff_regressions(current: &str, base: &str) -> Vec<String> {
    let cur = match bench_times(current) {
        Ok(v) => v,
        Err(e) => return vec![format!("current document: {e}")],
    };
    let bas = match bench_times(base) {
        Ok(v) => v,
        Err(e) => return vec![format!("base document: {e}")],
    };
    let mut out = Vec::new();
    for &name in PINNED_BENCHES {
        let Some(b) = bas.iter().find(|(n, _)| n == name).map(|&(_, v)| v) else {
            continue;
        };
        match cur.iter().find(|(n, _)| n == name).map(|&(_, v)| v) {
            None => out.push(format!(
                "pinned bench {name:?} present in base but missing from current document"
            )),
            Some(c) if b > 0.0 && c > b * (1.0 + DIFF_MAX_REGRESSION) => out.push(format!(
                "pinned bench {name:?} regressed {:+.1}%: {b} -> {c} ns/iter (budget +{:.0}%)",
                (c / b - 1.0) * 100.0,
                DIFF_MAX_REGRESSION * 100.0
            )),
            Some(_) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRICS: &str = r#"{"counters":{"spice.newton.iterations":42},"histograms":{"core.strike.estimate_seconds":{"count":5,"sum":0.5,"min":0.01,"max":0.3}}}"#;

    fn entries() -> Vec<BenchEntry> {
        vec![
            BenchEntry {
                name: "ray_trace_9x9".into(),
                ns_per_iter: 1234.0,
                iters: 1000,
            },
            BenchEntry {
                name: "strike \"quoted\"".into(),
                ns_per_iter: 0.5,
                iters: 2,
            },
        ]
    }

    #[test]
    fn bench_lines_round_trip() {
        let stdout = "noise\nBENCHJSON {\"name\":\"a b\",\"ns_per_iter\":12,\"iters\":3}\nmore";
        let got = parse_bench_lines(stdout).unwrap();
        assert_eq!(
            got,
            vec![BenchEntry {
                name: "a b".into(),
                ns_per_iter: 12.0,
                iters: 3
            }]
        );
        assert!(parse_bench_lines("BENCHJSON {oops").is_err());
        assert!(parse_bench_lines("BENCHJSON {\"name\":\"x\"}").is_err());
    }

    #[test]
    fn metrics_extraction_requires_object_payload() {
        assert!(extract_metrics(&format!("x\nMETRICSJSON {METRICS}\n")).is_ok());
        assert!(extract_metrics("no line here").is_err());
        assert!(extract_metrics("METRICSJSON [1,2]").is_err());
    }

    #[test]
    fn composed_document_validates() {
        let doc = compose(25, true, 8, &entries(), METRICS);
        assert_eq!(validate(&doc), Vec::<String>::new());
        // And the embedded data survives a parse round-trip.
        let parsed = json::parse(&doc).unwrap();
        let benches = parsed.get("benches").unwrap().as_array().unwrap();
        assert_eq!(
            benches[1].get("name").unwrap().as_str(),
            Some("strike \"quoted\"")
        );
        assert_eq!(
            parsed
                .get("pipeline")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("spice.newton.iterations")
                .unwrap()
                .as_u64(),
            Some(42)
        );
    }

    #[test]
    fn validation_catches_schema_breaks() {
        assert!(!validate("{}").is_empty());
        assert!(!validate("not json").is_empty());
        let doc = compose(25, false, 8, &entries(), METRICS);
        let broken = doc.replace("\"schema_version\": 1", "\"schema_version\": 2");
        assert!(validate(&broken)
            .iter()
            .any(|e| e.contains("schema_version")));
        let broken = doc.replace("\"ns_per_iter\": 1234", "\"ns_per_iter\": -1");
        assert!(validate(&broken).iter().any(|e| e.contains("benches[0]")));
    }

    #[test]
    fn required_counters_must_be_present_and_non_zero() {
        let doc = compose(25, true, 8, &entries(), METRICS);
        let req = |keys: &[&str]| -> Vec<String> {
            require_counters(
                &doc,
                &keys.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(req(&["spice.newton.iterations"]), Vec::<String>::new());
        let missing = req(&["spice.newton.warm_starts"]);
        assert_eq!(missing.len(), 1);
        assert!(missing[0].contains("missing"), "{missing:?}");
        let zeroed = doc.replace(
            "\"spice.newton.iterations\":42",
            "\"spice.newton.iterations\":0",
        );
        let zero = require_counters(&zeroed, &["spice.newton.iterations".to_string()]);
        assert_eq!(zero.len(), 1);
        assert!(zero[0].contains("zero"), "{zero:?}");
    }

    fn doc_with(pairs: &[(&str, f64)]) -> String {
        let benches: Vec<BenchEntry> = pairs
            .iter()
            .map(|&(name, ns)| BenchEntry {
                name: name.into(),
                ns_per_iter: ns,
                iters: 100,
            })
            .collect();
        compose(25, true, 8, &benches, METRICS)
    }

    #[test]
    fn diff_passes_within_budget_and_ignores_unpinned() {
        let base = doc_with(&[
            ("sram_strike_transient", 1000.0),
            ("finfet_model_eval", 10.0),
        ]);
        // +14% on a pinned bench is inside the 15% budget; the unpinned
        // micro-bench tripling must not trip the gate.
        let cur = doc_with(&[
            ("sram_strike_transient", 1140.0),
            ("finfet_model_eval", 30.0),
        ]);
        assert_eq!(diff_regressions(&cur, &base), Vec::<String>::new());
    }

    #[test]
    fn diff_fails_on_pinned_regression() {
        let base = doc_with(&[("characterization/critical_charge_bisection", 1000.0)]);
        let cur = doc_with(&[("characterization/critical_charge_bisection", 1200.0)]);
        let errs = diff_regressions(&cur, &base);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("critical_charge_bisection"), "{errs:?}");
        assert!(errs[0].contains("+20.0%"), "{errs:?}");
    }

    #[test]
    fn diff_flags_dropped_pinned_bench_but_skips_fresh_gates() {
        // Base tracks a pinned bench that current silently dropped: error.
        let base = doc_with(&[("sram_hold_transient_100steps", 500.0)]);
        let cur = doc_with(&[("finfet_model_eval", 10.0)]);
        let errs = diff_regressions(&cur, &base);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("missing"), "{errs:?}");
        // Pinned bench new in current (absent from base): fresh gate, ok.
        assert_eq!(diff_regressions(&base, &cur), Vec::<String>::new());
    }

    #[test]
    fn diff_reports_unparseable_documents() {
        let ok = doc_with(&[("sram_strike_transient", 1.0)]);
        assert!(diff_regressions("not json", &ok)[0].contains("current document"));
        assert!(diff_regressions(&ok, "not json")[0].contains("base document"));
    }

    #[test]
    fn index_numbering_starts_at_three_and_continues() {
        assert_eq!(next_index([].into_iter()), 3);
        assert_eq!(next_index(["BENCH_0003.json"].into_iter()), 4);
        assert_eq!(
            next_index(["BENCH_0003.json", "BENCH_0010.json", "other.json"].into_iter()),
            11
        );
    }
}
