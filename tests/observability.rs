//! Integration test for the observability layer: a smoke-scale pipeline
//! run with the in-memory recorder installed must populate the solver and
//! Monte-Carlo metrics end-to-end (device LUT → SPICE characterization →
//! array strike MC). See `docs/observability.md` for the key catalogue.

use finrad_core::pipeline::{PipelineConfig, SerPipeline};
use finrad_core::strike::{DepositMode, FlipModel};
use finrad_core::sweep::VddSweep;
use finrad_finfet::Technology;
use finrad_observe::{keys, InMemoryRecorder, MetricsSnapshot};
use finrad_sram::{CellCharacterizer, CharacterizeOptions, StrikeCombo, StrikeTarget, Variation};
use finrad_units::{Particle, Voltage};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The process-wide recorder (one per process), plus a lock that runs the
/// tests of this binary one at a time so each sees only its own metrics.
fn recorder() -> (&'static InMemoryRecorder, MutexGuard<'static, ()>) {
    static RECORDER: OnceLock<&'static InMemoryRecorder> = OnceLock::new();
    static SERIAL: Mutex<()> = Mutex::new(());
    let guard = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let recorder =
        RECORDER.get_or_init(|| finrad_observe::install_in_memory().expect("first install"));
    (recorder, guard)
}

/// What the recorder gained since `before`: counter deltas and histogram
/// observation-count and sum deltas.
struct Delta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Delta {
    fn counter(&self, key: &str) -> u64 {
        self.after.counter(key) - self.before.counter(key)
    }

    fn histogram_count(&self, key: &str) -> u64 {
        let count = |s: &MetricsSnapshot| s.histogram(key).map_or(0, |h| h.count);
        count(&self.after) - count(&self.before)
    }

    fn histogram_sum(&self, key: &str) -> f64 {
        let sum = |s: &MetricsSnapshot| s.histogram(key).map_or(0.0, |h| h.sum);
        sum(&self.after) - sum(&self.before)
    }
}

#[test]
fn smoke_pipeline_populates_solver_and_mc_metrics() {
    let (recorder, _serial) = recorder();
    let before = recorder.snapshot();

    let pipeline = SerPipeline::new(PipelineConfig::smoke_test());
    let report = pipeline
        .run(Particle::Alpha, Voltage::from_volts(0.8))
        .expect("smoke run succeeds");
    assert!(report.fit_total.is_finite());

    let snap = Delta {
        before,
        after: recorder.snapshot(),
    };

    // Circuit layer: the characterization bisections drive Newton solves.
    let newton = snap.counter(keys::SPICE_NEWTON_ITERATIONS);
    assert!(newton > 0, "expected Newton iterations, got {newton}");
    assert!(snap.counter(keys::SPICE_NEWTON_SOLVES) > 0);
    assert!(snap.counter(keys::SRAM_BISECTION_STEPS) > 0);
    assert_eq!(
        snap.counter(keys::SRAM_COMBOS),
        7,
        "all seven strike combos"
    );

    // Hot-path counters: each mechanism fires on the smoke pipeline. A
    // zero means the cached DC operating point, the structured LU, the
    // chord Jacobian reuse or the LTE step growth stopped running.
    for key in [
        keys::SRAM_DCOP_CACHE_HITS,
        keys::SPICE_LU_STRUCTURED,
        keys::SPICE_NEWTON_JACOBIAN_REUSES,
        keys::SPICE_TRANSIENT_LTE_STEP_GROWTHS,
    ] {
        assert!(snap.counter(key) > 0, "expected {key} > 0");
    }

    // Array layer: every requested MC iteration is accounted for.
    let cfg = PipelineConfig::smoke_test();
    assert_eq!(
        snap.counter(keys::STRIKE_ITERATIONS),
        cfg.iterations_per_energy * cfg.energy_bins as u64
    );
    assert_eq!(snap.counter(keys::STRIKE_QUARANTINED), 0);

    // Throughput histogram: one observation per energy bin, positive mean.
    assert_eq!(
        snap.histogram_count(keys::STRIKE_ITERS_PER_SEC),
        cfg.energy_bins as u64
    );
    let throughput = snap.histogram_sum(keys::STRIKE_ITERS_PER_SEC);
    assert!(
        throughput > 0.0,
        "MC throughput must be non-zero, got sum {throughput}"
    );

    // Wall-time histograms exist and are non-negative.
    assert_eq!(snap.histogram_count(keys::SRAM_COMBO_SECONDS), 7);
    assert!(snap.histogram_sum(keys::SRAM_COMBO_SECONDS) >= 0.0);
}

#[test]
fn monte_carlo_search_starts_at_the_nominal_bracket() {
    let (recorder, _serial) = recorder();
    let ch = CellCharacterizer::new(
        Technology::soi_finfet_14nm(),
        CharacterizeOptions {
            settle: 5.0e-12,
            ..CharacterizeOptions::default()
        },
    );
    let samples = 32;
    let before = recorder.snapshot();
    ch.characterize_combo(
        Voltage::from_volts(0.8),
        StrikeCombo::single(StrikeTarget::I1),
        Variation::MonteCarlo { samples },
        3,
    )
    .expect("characterization runs");
    let snap = Delta {
        before,
        after: recorder.snapshot(),
    };
    // Probes per sample, the one seeding nominal search (~16 probes)
    // included. A scan up from the floor spends ~10 probes before the
    // first flip alone.
    let probes = snap.counter(keys::SRAM_BISECTION_STEPS) as f64 / samples as f64;
    assert!(probes < 8.0, "{probes} probes per sample");
    // Only variation samples warm-start their DC solves from the nominal
    // operating point.
    let warm = snap.counter(keys::SPICE_NEWTON_WARM_STARTS);
    assert!(warm > 0, "expected warm-started DC solves, got {warm}");
}

#[test]
fn vdd_sweep_builds_one_transport_lut_per_particle() {
    let (recorder, _serial) = recorder();
    let vdds = [0.7, 0.9, 1.1].map(Voltage::from_volts);
    let lut_mode = PipelineConfig {
        deposit: DepositMode::LutMean,
        flip_model: FlipModel::Sampled,
        energy_bins: 2,
        iterations_per_energy: 200,
        lut_energy_points: 5,
        lut_samples: 200,
        ..PipelineConfig::smoke_test()
    };
    let chord_exact = PipelineConfig {
        energy_bins: 2,
        iterations_per_energy: 200,
        ..PipelineConfig::smoke_test()
    };
    for (cfg, builds) in [(lut_mode, 2), (chord_exact, 0)] {
        let deposit = cfg.deposit;
        let before = recorder.snapshot();
        let sweep = VddSweep::run(&SerPipeline::new(cfg), &vdds).expect("sweep runs");
        assert_eq!(sweep.points().len(), 3);
        let snap = Delta {
            before,
            after: recorder.snapshot(),
        };
        // The LUT does not depend on V_dd: one build per particle per
        // sweep, not one per (V_dd, particle) report.
        assert_eq!(
            snap.counter(keys::TRANSPORT_LUT_BUILDS),
            builds,
            "{deposit:?}"
        );
        assert_eq!(
            snap.histogram_count(keys::TRANSPORT_LUT_BUILD_SECONDS),
            builds,
            "{deposit:?}"
        );
    }
}
