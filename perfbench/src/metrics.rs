//! Metric definitions, the `BENCHMARK.json` manifest built from them,
//! and the per-layer metrics of one traced pass.

use crate::flow::layer;
use crate::stats::{coverage, median};
use crate::trace::{self, SpanRecord};
use crate::workloads::{PassOutput, Workload};
use finrad_core::pipeline::PipelineConfig;
use finrad_observe::{keys, MetricsSnapshot};
use finrad_sram::Variation;
use std::fmt::Write as _;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name in the result object.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn per_layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, measured with tracing off.
///
/// On the shared 2-vCPU host the benchmark was tuned on, wall and CPU
/// time drift by 10–15% over minutes, and `campaign_resume`, which runs
/// on both vCPUs at once, by more whenever the second is lent elsewhere
/// (see README.md). So `run_s`, `cpu_s` and `setup_s` get the largest
/// allowed bound. `fit_rel_err` is deterministic per seed; its bound
/// covers the spread across seeds.
pub const END_TO_END: &[Metric] = &[
    e2e("run_s", "s", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("cpu_s", "s", 0.25),
    e2e("peak_rss_mb", "MiB", 0.2),
    e2e("fit_rel_err", "ratio", 0.15),
];

use Better::{Higher, Lower};

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[Metric] = &[
    per_layer("sram.table_s", "s", Lower),
    per_layer("sram.searches", "count", Lower),
    per_layer("sram.probes_per_search", "count", Lower),
    per_layer("sram.dcop_hit_ratio", "ratio", Higher),
    per_layer("spice.newton_iters", "count", Lower),
    per_layer("spice.refactor_ratio", "ratio", Lower),
    per_layer("spice.dense_fallbacks", "count", Lower),
    per_layer("spice.recovery_retries", "count", Lower),
    per_layer("core.strike_s", "s", Lower),
    per_layer("core.strike_iters", "count", Lower),
    per_layer("core.strike_ns_per_iter", "ns", Lower),
    per_layer("core.strike_quarantined", "count", Lower),
    per_layer("transport.lut_s", "s", Lower),
    per_layer("transport.lut_builds", "count", Lower),
    per_layer("transport.lut_traversals", "count", Lower),
    per_layer("core.campaign.run_s", "s", Lower),
    per_layer("core.campaign.resume_s", "s", Lower),
    per_layer("core.checkpoint.bytes", "bytes", Lower),
    per_layer("core.checkpoint.load_s", "s", Lower),
    per_layer("core.service.job_s_p50", "s", Lower),
    per_layer("core.service.cache_hit_s", "s", Lower),
    per_layer("core.service.cache_hits", "count", Higher),
    per_layer("core.service.steals", "count", Lower),
    per_layer("core.service.bin_retries", "count", Lower),
    per_layer("environment.bins_s", "s", Lower),
    per_layer("core.array_s", "s", Lower),
    per_layer("core.fit_s", "s", Lower),
    per_layer("trace.coverage", "ratio", Higher),
    per_layer("trace.overhead", "ratio", Lower),
];

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// The `BENCHMARK.json` manifest naming the command, workloads and
/// metrics.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    let n = Workload::ALL.len();
    for (i, w) in Workload::ALL.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name(),
            w.why(),
            if i + 1 < n { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            better_str(m.better),
            m.bound.unwrap_or(0.0),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            better_str(m.better),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Counter and histogram-sum differences between two snapshots.
pub struct CounterDelta<'a> {
    /// Snapshot before the pass.
    pub before: &'a MetricsSnapshot,
    /// Snapshot after the pass.
    pub after: &'a MetricsSnapshot,
}

impl CounterDelta<'_> {
    fn counter(&self, key: &str) -> f64 {
        (self.after.counter(key) - self.before.counter(key)) as f64
    }

    fn histogram_sum(&self, key: &str) -> f64 {
        let sum = |s: &MetricsSnapshot| s.histogram(key).map_or(0.0, |h| h.sum);
        sum(self.after) - sum(self.before)
    }

    fn prefix_sum(&self, prefix: &str, skip: &str) -> f64 {
        self.after
            .counters
            .keys()
            .filter(|k| k.starts_with(prefix) && !k[prefix.len()..].starts_with(skip))
            .map(|k| self.counter(k))
            .fold(0.0, |a, b| a + b)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of one traced pass, every [`PER_LAYER`] entry but
/// `trace.overhead`, which compares passes.
pub fn layer_metrics(
    pass: &PassOutput,
    spans: &[SpanRecord],
    counters: &CounterDelta<'_>,
    wall_seconds: f64,
    cfg: &PipelineConfig,
) -> Vec<(&'static str, f64)> {
    let secs = |name| trace::total_seconds(spans, name);
    let strike_iters = counters.counter(keys::STRIKE_ITERATIONS);
    // Each characterized combo runs one critical-charge search per
    // variation sample.
    let samples = match cfg.variation {
        Variation::Nominal => 1,
        Variation::MonteCarlo { samples } => samples,
    };
    let searches = counters.counter(keys::SRAM_COMBOS) * samples as f64;
    let dcop_hits = counters.counter(keys::SRAM_DCOP_CACHE_HITS);
    let dcop_all = dcop_hits + counters.counter(keys::SRAM_DCOP_CACHE_MISSES);
    let refactors = counters.counter(keys::SPICE_NEWTON_REFACTORIZATIONS);
    let chord_iters = refactors + counters.counter(keys::SPICE_NEWTON_JACOBIAN_REUSES);
    let lut_builds = trace::durations(spans, layer::TRANSPORT_LUT).len() as f64;
    let pos = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    vec![
        ("sram.table_s", secs(layer::SRAM)),
        ("sram.searches", searches),
        (
            "sram.probes_per_search",
            ratio(counters.counter(keys::SRAM_BISECTION_STEPS), searches),
        ),
        ("sram.dcop_hit_ratio", ratio(dcop_hits, dcop_all)),
        (
            "spice.newton_iters",
            counters.counter(keys::SPICE_NEWTON_ITERATIONS),
        ),
        ("spice.refactor_ratio", ratio(refactors, chord_iters)),
        (
            "spice.dense_fallbacks",
            counters.counter(keys::SPICE_LU_DENSE_FALLBACKS),
        ),
        (
            "spice.recovery_retries",
            counters.prefix_sum(keys::SPICE_RECOVERY_RUNG_PREFIX, "direct."),
        ),
        ("core.strike_s", secs(layer::STRIKE)),
        ("core.strike_iters", strike_iters),
        (
            "core.strike_ns_per_iter",
            1e9 * ratio(
                counters.histogram_sum(keys::STRIKE_ESTIMATE_SECONDS),
                strike_iters,
            ),
        ),
        (
            "core.strike_quarantined",
            counters.counter(keys::STRIKE_QUARANTINED),
        ),
        ("transport.lut_s", secs(layer::TRANSPORT_LUT)),
        ("transport.lut_builds", lut_builds),
        (
            "transport.lut_traversals",
            lut_builds * cfg.lut_energy_points as f64 * cfg.lut_samples as f64,
        ),
        ("core.campaign.run_s", secs(layer::CAMPAIGN_RUN)),
        ("core.campaign.resume_s", secs(layer::CAMPAIGN_RESUME)),
        ("core.checkpoint.bytes", pass.checkpoint_bytes as f64),
        ("core.checkpoint.load_s", secs(layer::CHECKPOINT_LOAD)),
        ("core.service.job_s_p50", pos(&pass.job_seconds)),
        ("core.service.cache_hit_s", pos(&pass.cache_hit_seconds)),
        (
            "core.service.cache_hits",
            counters.counter(keys::SERVICE_CACHE_HITS),
        ),
        (
            "core.service.steals",
            counters.counter(keys::SERVICE_QUEUE_STEALS),
        ),
        (
            "core.service.bin_retries",
            counters.counter(keys::SERVICE_BIN_RETRIES),
        ),
        ("environment.bins_s", secs(layer::ENVIRONMENT)),
        ("core.array_s", secs(layer::ARRAY)),
        ("core.fit_s", secs(layer::FIT)),
        (
            "trace.coverage",
            coverage(
                &spans.iter().map(|s| s.seconds).collect::<Vec<_>>(),
                wall_seconds,
            ),
        ),
    ]
}
