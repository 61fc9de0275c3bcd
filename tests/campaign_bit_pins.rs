//! Same-seed per-bin bit pins for every driver of the Eq. 8 bin fold.
//!
//! `SerPipeline::run`, a `CampaignRunner` paused every 2 bins and resumed,
//! and a 2-worker `CampaignService` all run the same per-bin Monte Carlo
//! (same bins, same per-bin seeds, same strike settings) and integrate it
//! in bin order, so each must reproduce the per-bin POF bits, quarantine
//! counts and FIT bits recorded below, in both deposit modes. `VddSweep`
//! (one transport LUT per particle, reused at every V_dd) and the Fig. 8
//! `pof_vs_energy` sweep are pinned the same way.

use finrad::core::campaign::{CampaignConfig, CampaignReport, CampaignRunner, CampaignStatus};
use finrad::core::sweep::VddSweep;
use finrad::prelude::*;
use std::fs;
use std::path::PathBuf;

/// The recorded per-bin POF bits (`pof_total`, `pof_seu`, `pof_mbu`) and
/// FIT bits (total, SEU, MBU) of one (deposit mode, particle, V_dd) run.
struct Golden {
    pof: [[u64; 3]; 5],
    fit: [u64; 3],
}

/// `(lut_mean, particle, golden)` at 0.8 V.
const CASES: [(bool, Particle, Golden); 4] = [
    (
        false,
        Particle::Alpha,
        Golden {
            pof: [
                [0x3f772c45ea82d8b6, 0x3f771c67b6855584, 0x3eefbc67fb066e0d],
                [0x3f9605c3e9cfec9f, 0x3f95f5579968cabf, 0x3f106c506721de81],
                [0x3f9f125bd0d30675, 0x3f9eee916ec32463, 0x3f21e53107f10e9b],
                [0x3fa04ec3194dd829, 0x3fa03bd193bb72e9, 0x3f22f185926542a8],
                [0x3f84c16e6d72b58f, 0x3f84be3d46eab108, 0x3ed9893440244bb7],
            ],
            fit: [0x3f04a2274b17a09f, 0x3f049378250e8c1e, 0x3e7d5e4c12290874],
        },
    ),
    (
        false,
        Particle::Proton,
        Golden {
            pof: [
                [0x3f4bb422d9077e80, 0x3f4bb422d9077e86, 0x3c34dc43a38eeeed],
                [0x3f19eabb577970bc, 0x3f19eabb57797082, 0x3c3823ccceeeeeec],
                [0x3f16de1bae096148, 0x3f16de1bae096163, 0x3c38c2e034dd036a],
                [0x3f11bd6a0a387791, 0x3f11bd69ab157c2d, 0x3db7c8bee852fa6f],
                [0x3f12033f0e23527a, 0x3f12033f0e2352ab, 0x3c2f22bb9999999a],
            ],
            fit: [0x3f09aa134949dd0c, 0x3f09aa132b23f9d2, 0x3d8e25e387ef8d64],
        },
    ),
    (
        true,
        Particle::Alpha,
        Golden {
            pof: [
                [0x0, 0x0, 0x0],
                [0x3f7b4e81b4e81b49, 0x3f7b4e81b4e81b49, 0x0],
                [0x3f6b4e81b4e81b49, 0x3f6b4e81b4e81b49, 0x0],
                [0x0, 0x0, 0x0],
                [0x3f6b4e81b4e81b4b, 0x3f6b4e81b4e81b4b, 0x0],
            ],
            fit: [0x3eda45ce107a1ae2, 0x3eda45ce107a1ae2, 0x0],
        },
    ),
    (
        true,
        Particle::Proton,
        Golden {
            pof: [
                [0x0, 0x0, 0x0],
                [0x0, 0x0, 0x0],
                [0x0, 0x0, 0x0],
                [0x0, 0x0, 0x0],
                [0x0, 0x0, 0x0],
            ],
            fit: [0x0, 0x0, 0x0],
        },
    ),
];

/// `(lut_mean, vdd, particle, golden)` of a 0.7 V / 1.0 V sweep.
const SWEEP: [(bool, f64, Particle, Golden); 8] = [
    (
        false,
        0.7,
        Particle::Alpha,
        Golden {
            pof: [
                [0x3f83c83bf537c7a9, 0x3f83b036e6a51b98, 0x3f08050e92ac1136],
                [0x3fa0b03f3d42f029, 0x3fa095dc944382b2, 0x3f2a62a8ff6d7ad7],
                [0x3fa59a92883562d8, 0x3fa56e4c71951675, 0x3f36230b502634a9],
                [0x3fa73ea3cb3d0a1e, 0x3fa705d36135bf28, 0x3f3c683503a577c5],
                [0x3f90db60f31c300e, 0x3f90d56d3eec3be8, 0x3ef7ced0bfd0ae5f],
            ],
            fit: [0x3f0f2fb320d848fe, 0x3f0f03ae4dee6e46, 0x3e96026974ed5d74],
        },
    ),
    (
        false,
        0.7,
        Particle::Proton,
        Golden {
            pof: [
                [0x3f604dab8303c026, 0x3f604dab8303c025, 0x3c30936306222223],
                [0x3f306b57e7a79f8c, 0x3f306b57e7a79f90, 0x3c34c714eeeeeeef],
                [0x3f2ad811dc0475e4, 0x3f2ad811dc0475e0, 0x3c323b6ead238f09],
                [0x3f24dea3b3b135f5, 0x3f24dea0b32e03af, 0x3df804199413d91c],
                [0x3f2551f78d68e9b8, 0x3f2551f78d68e9b5, 0x3c35c497c962fc97],
            ],
            fit: [0x3f1e81a2c41c2384, 0x3f1e81a1d09326f4, 0x3dce711f971f90eb],
        },
    ),
    (
        false,
        1.0,
        Particle::Alpha,
        Golden {
            pof: [
                [0x3f650b842073f4a5, 0x3f6504db123269fa, 0x3ecaa439062abc00],
                [0x3f8777a9521ba706, 0x3f87718a0aeca9c7, 0x3ee87d1cbbf51072],
                [0x3f92b9338faccdec, 0x3f92b19e56d36cd7, 0x3efe54e36584588c],
                [0x3f930e06bd6ffcca, 0x3f9306ba671ff794, 0x3efd31594014eb38],
                [0x3f73f754af7666fb, 0x3f73f67b4cc8043f, 0x3eab2c55cc570729],
            ],
            fit: [0x3ef643c79e95ff46, 0x3ef63e35da62a7f6, 0x3e564710cd5d4379],
        },
    ),
    (
        false,
        1.0,
        Particle::Proton,
        Golden {
            pof: [
                [0x3f2ddced669df6fe, 0x3f2ddced669df6ef, 0x3c40f8acb07c41cc],
                [0x3efd918fd7c31d72, 0x3efd918fd7c31c93, 0x3c3d75e6949eb85c],
                [0x3efd391c9702a9d5, 0x3efd391c9702aa3d, 0x3c3381ca5a1feb18],
                [0x3ef4cca8a6e08fc6, 0x3ef4cca89f483669, 0x3d5e6167fdb79e21],
                [0x3ef3d4b1feff91ed, 0x3ef3d4b1feff925f, 0x3c3398661c222229],
            ],
            fit: [0x3eedc7f0545f552a, 0x3eedc7f051f72f60, 0x3d334136c690b5a5],
        },
    ),
    (
        true,
        0.7,
        Particle::Alpha,
        Golden {
            pof: [
                [0x0, 0x0, 0x0],
                [0x3f7b4e81b4e81b49, 0x3f7b4e81b4e81b49, 0x0],
                [0x3fc5c28f5c28f5c4, 0x3fc4e81b4e81b4e5, 0x3f7b4e81b4e81b4b],
                [0x3fc5555555555553, 0x3fc3a06d3a06d3a4, 0x3f8b4e81b4e81b4f],
                [0x3f6b4e81b4e81b4b, 0x3f6b4e81b4e81b4b, 0x0],
            ],
            fit: [0x3f1f2c03f45a1e7b, 0x3f1d022eca70593d, 0x3ee14ea94f4e2a22],
        },
    ),
    (
        true,
        0.7,
        Particle::Proton,
        Golden {
            pof: [
                [0x0, 0x0, 0x0],
                [0x0, 0x0, 0x0],
                [0x0, 0x0, 0x0],
                [0x0, 0x0, 0x0],
                [0x0, 0x0, 0x0],
            ],
            fit: [0x0, 0x0, 0x0],
        },
    ),
    (
        true,
        1.0,
        Particle::Alpha,
        Golden {
            pof: [
                [0x0, 0x0, 0x0],
                [0x3f7b4e81b4e81b49, 0x3f7b4e81b4e81b49, 0x0],
                [0x3f6b4e81b4e81b49, 0x3f6b4e81b4e81b49, 0x0],
                [0x0, 0x0, 0x0],
                [0x3f6b4e81b4e81b4b, 0x3f6b4e81b4e81b4b, 0x0],
            ],
            fit: [0x3eda45ce107a1ae2, 0x3eda45ce107a1ae2, 0x0],
        },
    ),
    (
        true,
        1.0,
        Particle::Proton,
        Golden {
            pof: [
                [0x0, 0x0, 0x0],
                [0x0, 0x0, 0x0],
                [0x0, 0x0, 0x0],
                [0x0, 0x0, 0x0],
                [0x0, 0x0, 0x0],
            ],
            fit: [0x0, 0x0, 0x0],
        },
    ),
];

/// `(lut_mean, particle, MeV, [total, seu, mbu] mean bits)` of Fig. 8 at 0.8 V.
const FIG8: [(bool, Particle, f64, [u64; 3]); 8] = [
    (
        false,
        Particle::Alpha,
        1.0,
        [0x3f9c74ed7ba5c24b, 0x3f9c749cee96de30, 0x3eb42343b9084bb3],
    ),
    (
        false,
        Particle::Alpha,
        5.0,
        [0x3f7b044c74e744ad, 0x3f7b004530043bbb, 0x3ed01d138c23d172],
    ),
    (
        false,
        Particle::Proton,
        1.0,
        [0x3f332666b35c182a, 0x3f332666b35c1838, 0x3c3201e055555557],
    ),
    (
        false,
        Particle::Proton,
        5.0,
        [0x3f150b2e045ad051, 0x3f150b2e045ad083, 0x3c31fca74e81b4e6],
    ),
    (true, Particle::Alpha, 1.0, [0x0, 0x0, 0x0]),
    (true, Particle::Alpha, 5.0, [0x0, 0x0, 0x0]),
    (true, Particle::Proton, 1.0, [0x0, 0x0, 0x0]),
    (true, Particle::Proton, 5.0, [0x0, 0x0, 0x0]),
];

/// The smoke configuration with 300 iterations per bin: chord-exact
/// deposits with expected flips, or LUT-mean deposits with sampled flips.
fn config(lut_mean: bool) -> PipelineConfig {
    let mut c = PipelineConfig::smoke_test();
    c.iterations_per_energy = 300;
    if lut_mean {
        c.deposit = DepositMode::LutMean;
        c.flip_model = FlipModel::Sampled;
        c.lut_samples = 2000;
        c.lut_energy_points = 9;
    }
    c
}

fn vdd() -> Voltage {
    Voltage::from_volts(0.8)
}

fn assert_bins(name: &str, golden: &Golden, bins: &[PofBin], fit: [f64; 3]) {
    let got: Vec<[u64; 3]> = bins
        .iter()
        .map(|b| {
            [
                b.pof_total.to_bits(),
                b.pof_seu.to_bits(),
                b.pof_mbu.to_bits(),
            ]
        })
        .collect();
    assert_eq!(got, golden.pof, "{name}: per-bin POF bits");
    assert_eq!(
        fit.map(f64::to_bits),
        golden.fit,
        "{name}: FIT bits {fit:?}"
    );
}

fn assert_campaign(name: &str, golden: &Golden, report: &CampaignReport) {
    let mut bins = Vec::new();
    let mut quarantined = Vec::new();
    for outcome in &report.outcomes {
        match outcome {
            BinOutcome::Ok {
                bin,
                quarantined: q,
            } => {
                bins.push(*bin);
                quarantined.push(*q);
            }
            BinOutcome::Failed { error } => panic!("{name}: bin failed: {error}"),
        }
    }
    assert_eq!(quarantined, [0; 5], "{name}: quarantine counts");
    assert!(report.coverage.is_complete(), "{name}: coverage");
    let fit = [report.fit.total, report.fit.seu, report.fit.mbu];
    assert_bins(name, golden, &bins, fit);
}

/// A per-test checkpoint path, removed on drop.
struct TempCkpt(PathBuf);

impl TempCkpt {
    fn new(name: &str) -> Self {
        let p = std::env::temp_dir().join(format!("finrad-binpins-{}-{name}", std::process::id()));
        let _ = fs::remove_file(&p);
        TempCkpt(p)
    }
}

impl Drop for TempCkpt {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

#[test]
fn pipeline_matches_recorded_bin_bits() {
    for (lut_mean, particle, golden) in &CASES {
        let report = SerPipeline::new(config(*lut_mean))
            .run(*particle, vdd())
            .expect("pipeline run");
        let fit = [report.fit_total, report.fit_seu, report.fit_mbu];
        let name = format!("pipeline lut_mean={lut_mean} {particle:?}");
        assert_bins(&name, golden, &report.bins, fit);
    }
}

#[test]
fn paused_and_resumed_runner_matches_recorded_bin_bits() {
    for (lut_mean, particle, golden) in &CASES {
        let ckpt = TempCkpt::new(&format!("{lut_mean}-{particle:?}"));
        let mut cfg = CampaignConfig::new(config(*lut_mean), *particle, vdd());
        cfg.checkpoint_path = Some(ckpt.0.clone());
        cfg.max_bins_per_run = Some(2);
        let runner = CampaignRunner::new(cfg);
        let mut pauses = Vec::new();
        let report = loop {
            match runner.resume().expect("resume") {
                CampaignStatus::Paused { completed, total } => pauses.push((completed, total)),
                CampaignStatus::Complete(report) => break report,
            }
        };
        assert_eq!(pauses, vec![(2, 5), (4, 5)]);
        let name = format!("runner lut_mean={lut_mean} {particle:?}");
        assert_campaign(&name, golden, &report);
    }
}

#[test]
fn two_worker_service_matches_recorded_bin_bits() {
    let service = CampaignService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    for (lut_mean, particle, golden) in &CASES {
        let job = service.submit(CampaignConfig::new(config(*lut_mean), *particle, vdd()));
        let report = service.wait(job).expect("service job");
        let name = format!("service lut_mean={lut_mean} {particle:?}");
        assert_campaign(&name, golden, &report);
    }
    assert!(service.dead_letters().is_empty());
}

#[test]
fn vdd_sweep_matches_recorded_bin_bits() {
    for lut_mean in [false, true] {
        let sweep = VddSweep::run(
            &SerPipeline::new(config(lut_mean)),
            &[Voltage::from_volts(0.7), Voltage::from_volts(1.0)],
        )
        .expect("sweep");
        for (mode, v, particle, golden) in &SWEEP {
            if *mode != lut_mean {
                continue;
            }
            let point = sweep
                .points()
                .iter()
                .find(|p| p.vdd.volts() == *v)
                .expect("sweep point");
            let report = match particle {
                Particle::Alpha => &point.alpha,
                Particle::Proton => &point.proton,
            };
            let fit = [report.fit_total, report.fit_seu, report.fit_mbu];
            let name = format!("sweep lut_mean={lut_mean} {v} V {particle:?}");
            assert_bins(&name, golden, &report.bins, fit);
        }
    }
}

#[test]
fn pof_vs_energy_matches_recorded_bits() {
    let energies = [Energy::from_mev(1.0), Energy::from_mev(5.0)];
    for lut_mean in [false, true] {
        let pipeline = SerPipeline::new(config(lut_mean));
        for particle in [Particle::Alpha, Particle::Proton] {
            let got = pipeline
                .pof_vs_energy(particle, vdd(), &energies)
                .expect("Fig. 8 sweep");
            for (e, est) in got {
                let want = FIG8
                    .iter()
                    .find(|(m, p, mev, _)| *m == lut_mean && *p == particle && *mev == e.mev())
                    .map(|f| f.3)
                    .expect("recorded energy");
                let bits = [est.total.mean(), est.seu.mean(), est.mbu.mean()].map(f64::to_bits);
                assert_eq!(
                    bits,
                    want,
                    "Fig. 8 lut_mean={lut_mean} {particle:?} {} MeV",
                    e.mev()
                );
            }
        }
    }
}
