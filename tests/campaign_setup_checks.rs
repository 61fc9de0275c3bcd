//! Configuration checks that must refuse a campaign up front.
//!
//! A campaign that pauses must be able to finish: `max_bins_per_run` of 0
//! would pause before computing anything, and a pause without a
//! checkpoint path would forget its progress, so in both cases every
//! `resume` would pause again at the same place. The runner refuses both
//! as invalid configuration instead. A checkpoint the campaign cannot
//! resume from is refused before the cell is characterized, by the
//! service as by the runner. A pipeline configuration some layer cannot
//! run is a typed `InvalidConfig` from every driver, not a panic inside
//! that layer.

use finrad::core::campaign::{CampaignConfig, CampaignError, CampaignRunner, CampaignStatus};
use finrad::core::checkpoint::config_fingerprint;
use finrad::core::sweep::VddSweep;
use finrad::prelude::*;
use finrad_observe::keys;
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

fn pipeline() -> PipelineConfig {
    let mut c = PipelineConfig::smoke_test();
    c.iterations_per_energy = 50;
    c
}

fn vdd() -> Voltage {
    Voltage::from_volts(0.8)
}

fn temp_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("finrad-setup-{}-{name}", std::process::id()));
    let _ = fs::remove_file(&p);
    p
}

/// The SPICE solve counter is process-wide: serialize the tests of this
/// binary so one test's characterization cannot move another's delta.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn pause_that_cannot_progress_is_refused() {
    let _serial = serial();
    let path = temp_path("pause");
    let campaign = |max, checkpoint_path| {
        let mut cfg = CampaignConfig::new(pipeline(), Particle::Alpha, vdd());
        cfg.max_bins_per_run = Some(max);
        cfg.checkpoint_path = checkpoint_path;
        CampaignRunner::new(cfg)
    };

    for runner in [campaign(0, Some(path.clone())), campaign(2, None)] {
        for result in [runner.run(), runner.resume()] {
            match result {
                Err(CampaignError::Pipeline(CoreError::InvalidConfig(_))) => {}
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }
    assert!(!path.exists(), "a refused campaign writes no checkpoint");

    // One bin per call with a checkpoint path still runs to completion.
    let runner = campaign(1, Some(path.clone()));
    let mut pauses = 0;
    loop {
        match runner.resume().expect("resume") {
            CampaignStatus::Paused { completed, .. } => {
                pauses += 1;
                assert_eq!(completed, pauses);
            }
            CampaignStatus::Complete(report) => {
                assert!(report.coverage.is_complete());
                break;
            }
        }
    }
    assert_eq!(pauses, 4);
    let _ = fs::remove_file(&path);
}

#[test]
fn service_refuses_a_mismatched_checkpoint_before_any_spice_solve() {
    let _serial = serial();
    let recorder = finrad_observe::install_in_memory().expect("first install");
    let path = temp_path("mismatch");
    // A valid checkpoint, but from a run with another seed.
    let mut other = pipeline();
    other.seed ^= 1;
    Checkpoint {
        fingerprint: config_fingerprint(&other, Particle::Alpha, vdd()),
        particle: Particle::Alpha,
        vdd_bits: vdd().volts().to_bits(),
        total_bins: 5,
        bins: Vec::new(),
    }
    .save(&path)
    .expect("save checkpoint");

    let mut cfg = CampaignConfig::new(pipeline(), Particle::Alpha, vdd());
    cfg.checkpoint_path = Some(path.clone());
    let service = CampaignService::start(ServiceConfig::default());
    let solves_before = recorder.snapshot().counter(keys::SPICE_NEWTON_SOLVES);
    match service.wait(service.submit(cfg)) {
        Err(JobError::Setup(msg)) => assert!(msg.contains("mismatch"), "message: {msg}"),
        other => panic!("expected a setup error, got {other:?}"),
    }
    assert_eq!(
        recorder.snapshot().counter(keys::SPICE_NEWTON_SOLVES),
        solves_before,
        "the checkpoint is checked before the cell is characterized"
    );
    let _ = fs::remove_file(&path);
}

/// Asserts that the pipeline, the V_dd sweep, the campaign runner (run and
/// resume) and the service all refuse `config` as invalid configuration.
fn refused_by_every_driver(config: PipelineConfig) {
    let _serial = serial();
    let pipeline = SerPipeline::new(config.clone());
    match pipeline.run(Particle::Alpha, vdd()) {
        Err(CoreError::InvalidConfig(_)) => {}
        other => panic!("pipeline: expected InvalidConfig, got {other:?}"),
    }
    match VddSweep::run(&pipeline, &[vdd()]) {
        Err(CoreError::InvalidConfig(_)) => {}
        other => panic!("sweep: expected InvalidConfig, got {other:?}"),
    }
    let runner = CampaignRunner::new(CampaignConfig::new(config.clone(), Particle::Alpha, vdd()));
    for result in [runner.run(), runner.resume()] {
        match result {
            Err(CampaignError::Pipeline(CoreError::InvalidConfig(_))) => {}
            other => panic!("runner: expected InvalidConfig, got {other:?}"),
        }
    }
    let service = CampaignService::start(ServiceConfig::default());
    let job = service.submit(CampaignConfig::new(config, Particle::Alpha, vdd()));
    match service.wait(job) {
        Err(JobError::Setup(msg)) => {
            assert!(msg.contains("invalid configuration"), "message: {msg}");
        }
        other => panic!("service: expected a setup error, got {other:?}"),
    }
}

/// LUT-mean deposits with sampled flips, the combination the LUT checks
/// apply to.
fn lut_mean() -> PipelineConfig {
    let mut c = pipeline();
    c.deposit = DepositMode::LutMean;
    c.flip_model = FlipModel::Sampled;
    c
}

#[test]
fn zero_variation_samples_are_refused() {
    let mut c = pipeline();
    c.variation = Variation::MonteCarlo { samples: 0 };
    refused_by_every_driver(c);
}

#[test]
fn lut_mean_without_lut_samples_is_refused() {
    let mut c = lut_mean();
    c.lut_samples = 0;
    refused_by_every_driver(c);
}

#[test]
fn lut_mean_with_one_lut_energy_point_is_refused() {
    let mut c = lut_mean();
    c.lut_energy_points = 1;
    refused_by_every_driver(c);
}

#[test]
fn lut_mean_with_expected_flips_is_refused() {
    let mut c = lut_mean();
    c.flip_model = FlipModel::Expected;
    refused_by_every_driver(c);
}
