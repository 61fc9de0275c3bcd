//! End-to-end tests of the lint engine over the seeded fixtures: each lint
//! family fires with the right ID at the right (line, col) span, allow()
//! suppresses (and unused allows are flagged), and clean code stays clean.

use std::path::{Path, PathBuf};

use xtask::flow::FileUnit;
use xtask::index::{self, WorkspaceIndex};
use xtask::lints::{self, LintId, Violation};

fn read_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read fixture {name}: {e}"))
}

fn lint_fixture(name: &str) -> Vec<Violation> {
    xtask::lint_file_source(Path::new(name), &read_fixture(name), true)
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

/// Lints a fixture against the *real* workspace index, so the declared
/// metric-key set comes from `crates/observe/src/keys.rs`.
fn lint_fixture_indexed(name: &str) -> (Vec<Violation>, WorkspaceIndex) {
    let index = index::build(workspace_root()).expect("index build");
    let v = xtask::lint_file_source_with_index(Path::new(name), &read_fixture(name), true, &index);
    (v, index)
}

/// Runs the flow-sensitive (phase-3) families over one fixture, through
/// the same suppression pass `scan_tree` applies — so `allow(...)`
/// directives in flow fixtures behave exactly as they do in real code.
fn flow_fixture(name: &str) -> Vec<Violation> {
    let text = read_fixture(name);
    let unit = FileUnit {
        path: PathBuf::from("crates/core/src").join(name),
        lexed: xtask::lexer::lex(&text),
    };
    let scrubbed = xtask::source::scrub(&text);
    let raw = xtask::flow::analyze(std::slice::from_ref(&unit));
    lints::apply_suppressions(&unit.path, &scrubbed, raw)
}

#[test]
fn unit_safety_fixture() {
    let v = lint_fixture("unit_safety.rs");
    // Only the parameter-side check remains; the return site on line 11 is
    // the type system's (and raw-escape-audit's) problem now.
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::UnitSafety);
    // `pub fn set_supply(vdd: f64)` — param violation on line 4.
    assert_eq!(v[0].line, 4);
    assert!(v[0].message.contains("vdd: f64"));
}

#[test]
fn raw_escape_fixture() {
    let v = lint_fixture("raw_escape.rs");
    assert_eq!(v.len(), 2, "{v:#?}");
    assert!(v.iter().all(|v| v.lint == LintId::RawEscapeAudit));
    // `energy.si_value()` on line 6, `Charge::from_si(..)` on line 11.
    assert_eq!((v[0].line, v[0].col), (6, 12));
    assert!(v[0].message.contains("si_value"));
    assert_eq!((v[1].line, v[1].col), (11, 13));
    assert!(v[1].message.contains("from_si"));
}

#[test]
fn rng_determinism_fixture() {
    let v = lint_fixture("rng_determinism.rs");
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::RngDeterminism);
    assert_eq!(v[0].line, 4);
    assert!(v[0].message.contains("thread_rng"));
}

#[test]
fn panic_freedom_fixture() {
    let v = lint_fixture("panic_freedom.rs");
    assert_eq!(v.len(), 2, "{v:#?}");
    assert!(v.iter().all(|v| v.lint == LintId::PanicFreedom));
    assert_eq!(v[0].line, 4);
    assert!(v[0].message.contains("unwrap"));
    assert_eq!(v[1].line, 9);
    assert!(v[1].message.contains("pair_lut"));
}

#[test]
fn float_discipline_fixture() {
    let v = lint_fixture("float_discipline.rs");
    // f32 fires on both the return type (line 4) and the cast (line 5);
    // float == on line 9; partial_cmp().unwrap() + .unwrap() on line 13.
    assert!(v.len() >= 4, "{v:#?}");
    assert!(
        v.iter()
            .filter(|v| v.lint == LintId::FloatDiscipline)
            .count()
            >= 4
    );
    assert!(v.iter().any(|v| v.line == 4 && v.message.contains("f32")));
    assert!(v.iter().any(|v| v.line == 9 && v.message.contains("`==`")));
    assert!(v
        .iter()
        .any(|v| v.line == 13 && v.message.contains("total_cmp")));
}

#[test]
fn allow_directives_suppress_everything() {
    let v = lint_fixture("allow_suppression.rs");
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn clean_fixture_stays_clean() {
    let v = lint_fixture("clean.rs");
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn metrics_key_registry_fixture() {
    let (v, index) = lint_fixture_indexed("metric_keys.rs");
    // The index must resolve the declared key set from the real registry.
    assert!(index.metric_keys.contains("core.strike.iterations"));
    assert!(index
        .metric_key_prefixes
        .iter()
        .any(|p| p == "spice.recovery.rung."));
    // The round-2 hot-path keys are part of the real registry, so the
    // fixture's uses of them must not fire.
    assert!(index.metric_keys.contains("spice.newton.jacobian_reuses"));
    assert!(index.metric_keys.contains("spice.newton.refactorizations"));
    assert!(index
        .metric_keys
        .contains("spice.transient.lte_step_growths"));
    assert!(index.metric_keys.contains("finfet.model.batched_evals"));
    // The transport LUT-build keys are registered too.
    assert!(index.metric_keys.contains("transport.lut.builds"));
    assert!(index.metric_keys.contains("transport.lut.build_seconds"));
    // Declared key (line 5), prefix-composed key (line 9), the round-2
    // keys (lines 17-20) and the LUT-build keys (lines 24-25) pass; only
    // the typo'd key fires, with the span on the string literal.
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::MetricsKeyRegistry);
    assert_eq!((v[0].line, v[0].col), (13, 33));
    assert!(v[0].message.contains("core.strike.iterationz"));
    assert!(
        v[0].message
            .contains("did you mean `core.strike.iterations`"),
        "{}",
        v[0].message
    );
}

#[test]
fn service_keys_fixture() {
    let (v, index) = lint_fixture_indexed("service_keys.rs");
    // The campaign-service namespace is part of the real registry.
    assert!(index.metric_keys.contains("core.service.cache_hits"));
    assert!(index.metric_keys.contains("core.service.bins_quarantined"));
    // The registered key (line 6) passes; only the unregistered one fires.
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::MetricsKeyRegistry);
    assert_eq!((v[0].line, v[0].col), (10, 33));
    assert!(v[0].message.contains("core.service.cache_evictions"));
}

#[test]
fn seed_discipline_fixture() {
    let (v, _) = lint_fixture_indexed("seed_discipline.rs");
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::SeedDiscipline);
    // The ad-hoc derivation on line 15; span on the `seed_from_u64` call.
    assert_eq!((v[0].line, v[0].col), (15, 19));
}

#[test]
fn shared_state_fixture() {
    let (v, _) = lint_fixture_indexed("shared_state.rs");
    assert_eq!(v.len(), 3, "{v:#?}");
    assert!(v.iter().all(|v| v.lint == LintId::SharedStateAudit));
    assert_eq!((v[0].line, v[0].col), (6, 5));
    assert!(v[0].message.contains("static mut"));
    assert_eq!((v[1].line, v[1].col), (9, 36));
    assert!(v[1].message.contains("Relaxed"));
    assert_eq!((v[2].line, v[2].col), (12, 1));
    assert!(v[2].message.contains("thread_local"));
}

#[test]
fn unused_suppression_fixture() {
    let (v, _) = lint_fixture_indexed("unused_suppression.rs");
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::UnusedSuppression);
    // The stale standalone directive on line 9, span on the directive text.
    assert_eq!((v[0].line, v[0].col), (9, 4));
    assert!(v[0].message.contains("panic-freedom"));
}

#[test]
fn lock_order_fixture() {
    let v = flow_fixture("lock_order.rs");
    // Exactly the seeded alpha/beta cycle; the consistent alpha->gamma pair
    // must not fire, and no other family may piggy-back on this fixture.
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::LockOrderAudit);
    assert!(v[0].message.contains("alpha"), "{}", v[0].message);
    assert!(v[0].message.contains("beta"), "{}", v[0].message);
    assert!(v[0].message.contains("deadlock"), "{}", v[0].message);
    assert!(!v[0].message.contains("gamma"), "{}", v[0].message);
}

#[test]
fn guard_lifetime_fixture() {
    let v = flow_fixture("guard_lifetime.rs");
    // Only `held_across_sleep` fires; drop-first, inner-scope, and
    // guard-consuming condvar wait are the sanctioned shapes.
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::GuardLifetimeAudit);
    assert_eq!(v[0].line, 14);
    assert!(v[0].message.contains("`g`"), "{}", v[0].message);
    assert!(v[0].message.contains("`state`"), "{}", v[0].message);
    assert!(v[0].message.contains("sleep"), "{}", v[0].message);
}

#[test]
fn cancellation_fixture() {
    let v = flow_fixture("cancellation.rs");
    // Only the unpolled `pump` loop fires; the polled twin and the
    // never-spawned `standalone` loop stay clean.
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::CancellationResponsiveness);
    assert_eq!(v[0].line, 12);
    assert!(v[0].message.contains("pump"), "{}", v[0].message);
    assert!(v[0].message.contains("step_blocking"), "{}", v[0].message);
}

#[test]
fn result_discard_fixture() {
    let v = flow_fixture("result_discard.rs");
    // `let _ = produce()` (line 10) and the unused `outcome` binding
    // (line 11); the `?`, `_`-prefixed, read, and macro shapes are clean.
    assert_eq!(v.len(), 2, "{v:#?}");
    assert!(v.iter().all(|v| v.lint == LintId::ResultDiscardAudit));
    assert_eq!(v[0].line, 10);
    assert!(v[0].message.contains("let _ ="), "{}", v[0].message);
    assert_eq!(v[1].line, 11);
    assert!(v[1].message.contains("`outcome`"), "{}", v[1].message);
}

#[test]
fn allow_directive_suppresses_flow_families() {
    // The inline poison-recovery idiom, wrapped in a standalone allow —
    // the suppression pass must absorb the flow-family violation just as
    // it does per-file ones.
    let src = "impl S {\n    fn recover(&self) {\n        // finrad-lint: allow(lock-order-audit)\n        let g = self.m.lock().unwrap_or_else(|p| p.into_inner());\n        drop(g);\n    }\n}\n";
    let unit = FileUnit {
        path: PathBuf::from("crates/core/src/inline_allow.rs"),
        lexed: xtask::lexer::lex(src),
    };
    let scrubbed = xtask::source::scrub(src);
    let raw = xtask::flow::analyze(std::slice::from_ref(&unit));
    assert_eq!(raw.len(), 1, "{raw:#?}");
    let v = lints::apply_suppressions(&unit.path, &scrubbed, raw);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn lexer_edges_fixture_stays_clean() {
    // Raw strings, escapes, and nested block comments: clean through both
    // the per-file families and the flow families.
    let v = lint_fixture("lexer_edges.rs");
    assert!(v.is_empty(), "{v:#?}");
    let v = flow_fixture("lexer_edges.rs");
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn checkpoint_drift_fires_on_unbumped_serializer_edit() {
    let keys = read_fixture("../../../observe/src/keys.rs");
    let v1 = "pub const CHECKPOINT_VERSION: u32 = 1;\n\
              pub fn to_text(x: u64) -> u64 { x.wrapping_mul(3) }\n";
    let v1_edited = "pub const CHECKPOINT_VERSION: u32 = 1;\n\
              pub fn to_text(x: u64) -> u64 { x.wrapping_mul(5) }\n";
    let v2_edited = "pub const CHECKPOINT_VERSION: u32 = 2;\n\
              pub fn to_text(x: u64) -> u64 { x.wrapping_mul(5) }\n";

    let schema_of = |src: &str| {
        index::from_sources(&keys, "", Some(src))
            .checkpoint
            .clone()
            .expect("fixture declares CHECKPOINT_VERSION")
    };
    let recorded = schema_of(v1);
    let pin = Some((recorded.fingerprint, recorded.version));

    // Unchanged codec: quiet.
    assert!(lints::checkpoint_drift(&index::from_sources(&keys, "", Some(v1)), pin).is_empty());

    // Serializer edited, version NOT bumped: the drift lint fails with a
    // span on the version constant.
    let drifted = lints::checkpoint_drift(&index::from_sources(&keys, "", Some(v1_edited)), pin);
    assert_eq!(drifted.len(), 1, "{drifted:#?}");
    assert_eq!(drifted[0].lint, LintId::CheckpointSchemaDrift);
    assert!(drifted[0]
        .message
        .contains("without a CHECKPOINT_VERSION bump"));
    assert_eq!((drifted[0].line, drifted[0].col), (1, 37));

    // Serializer edited WITH a version bump: the lint asks for a pin
    // refresh (`--fix-allowlist`) instead of rejecting the edit.
    let bumped = lints::checkpoint_drift(&index::from_sources(&keys, "", Some(v2_edited)), pin);
    assert_eq!(bumped.len(), 1, "{bumped:#?}");
    assert!(bumped[0].message.contains("refresh the recorded schema"));
    // And refreshing the pin silences it.
    let refreshed = schema_of(v2_edited);
    assert!(lints::checkpoint_drift(
        &index::from_sources(&keys, "", Some(v2_edited)),
        Some((refreshed.fingerprint, refreshed.version)),
    )
    .is_empty());
}

#[test]
fn scan_tree_skips_xtask_and_reports_relative_paths() {
    let scan = xtask::scan_tree(workspace_root()).expect("scan");
    assert!(scan.files_scanned > 20, "only {} files", scan.files_scanned);
    assert!(scan
        .violations
        .iter()
        .all(|v| !v.file.starts_with("crates/xtask")));
    assert!(scan.violations.iter().all(|v| v.file.is_relative()));
    // The index phase resolved real symbols.
    assert!(!scan.index.metric_keys.is_empty());
    assert!(!scan.index.seed_sanctioned.is_empty());
    assert!(scan.index.checkpoint.is_some());
    // The repo-wide policy: these classes are fully fixed and must stay so.
    for extinct in [
        LintId::RngDeterminism,
        LintId::MetricsKeyRegistry,
        LintId::SeedDiscipline,
        LintId::SharedStateAudit,
        LintId::UnusedSuppression,
        // The flow families: in particular, the real lock-acquisition graph
        // (campaign service included) must be cycle-free, and every
        // supervised loop must poll cancellation.
        LintId::LockOrderAudit,
        LintId::GuardLifetimeAudit,
        LintId::CancellationResponsiveness,
        LintId::ResultDiscardAudit,
    ] {
        let hits: Vec<_> = scan
            .violations
            .iter()
            .filter(|v| v.lint == extinct)
            .collect();
        assert!(hits.is_empty(), "[{extinct}] resurfaced: {hits:#?}");
    }
}

#[test]
fn real_scan_report_round_trips_and_validates() {
    let root = workspace_root();
    let scan = xtask::scan_tree(root).expect("scan");
    let base = xtask::baseline::Baseline::load(root).expect("baseline");
    let mut all = scan.violations.clone();
    all.extend(lints::checkpoint_drift(
        &scan.index,
        base.checkpoint_schema(),
    ));
    let check = xtask::baseline::check(&all, &base);
    let json = xtask::report::to_json(scan.files_scanned, true, &check);
    let problems = xtask::report::validate(&json);
    assert!(problems.is_empty(), "{problems:#?}");
    let doc = xtask::json::parse(&json).expect("report parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some(xtask::report::REPORT_SCHEMA)
    );

    // The same run as SARIF: validates, advertises every family as a rule,
    // and carries one result per diagnostic.
    let sarif = xtask::sarif::to_sarif(&check);
    let problems = xtask::sarif::validate(&sarif);
    assert!(problems.is_empty(), "{problems:#?}");
    let doc = xtask::json::parse(&sarif).expect("SARIF parses");
    let runs = doc.get("runs").and_then(|v| v.as_array()).expect("runs");
    let results = runs[0]
        .get("results")
        .and_then(|v| v.as_array())
        .expect("results");
    assert_eq!(
        results.len(),
        check.new_violations.len() + check.budgeted.len()
    );

    // Differential mode against the report we just emitted: an unchanged
    // tree produces zero fresh diagnostics.
    let current: Vec<Violation> = check
        .new_violations
        .iter()
        .chain(&check.budgeted)
        .cloned()
        .collect();
    let (fresh, absorbed) =
        xtask::report::diff_new(&current, &json).expect("self-report is a valid base");
    assert!(fresh.is_empty(), "{fresh:#?}");
    assert_eq!(absorbed.len(), current.len());
}
