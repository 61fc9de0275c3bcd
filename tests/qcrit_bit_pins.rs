//! Same-seed bit pin for the variation Monte Carlo of the cell
//! characterization (the paper's Section 4 ΔVth sampling).
//!
//! Each ΔVth sample runs its own critical-charge search, warm-started
//! from the nominal pre-strike operating point. The bits below were
//! recorded with 33 samples, one more than a 32-sample block, so any
//! future blocking or batching of the samples must reproduce them.
//! The tight bisection tolerance makes every sample's Q_crit depend on
//! the exact margins, and so on the exact pre-strike operating point.

use finrad::prelude::*;

const QCRIT_BITS: [u64; 33] = [
    0x3ca01af861c91bfd,
    0x3ca025a4a01503db,
    0x3ca03e77353e94b2,
    0x3ca05d8ab0db5603,
    0x3ca082aa565ba9fe,
    0x3ca0a0d33b4be5cb,
    0x3ca0acaecc4199be,
    0x3ca0e3cdba47b12e,
    0x3ca0eb253e442042,
    0x3ca12eff6d505ace,
    0x3ca13f3ba3343549,
    0x3ca14fa8d8da6b8b,
    0x3ca183c6d4c8eb22,
    0x3ca1b8b6eb0e192c,
    0x3ca2456b2f330f48,
    0x3ca276bafef68eb3,
    0x3ca2784795d3254a,
    0x3ca27995faa7b607,
    0x3ca2804cd19d1cb0,
    0x3ca2844b890c2d08,
    0x3ca28e0c06994072,
    0x3ca2984e5aede048,
    0x3ca2a2a2da9bd324,
    0x3ca2d2dc496eb178,
    0x3ca2ea7dfba66585,
    0x3ca30d67f4edd741,
    0x3ca314b103849288,
    0x3ca31df3e1dcc082,
    0x3ca33d2552348ca9,
    0x3ca3a03f46407e48,
    0x3ca3bd20fe1c2b41,
    0x3ca3c4525e9d937d,
    0x3ca3def8e5a185f9,
];

#[test]
fn monte_carlo_qcrit_matches_recorded_bits() {
    let ch = CellCharacterizer::new(
        Technology::soi_finfet_14nm(),
        CharacterizeOptions {
            settle: 5.0e-12,
            bisect_rel_tol: 1.0e-6,
            ..CharacterizeOptions::default()
        },
    );
    let curve = ch
        .characterize_combo(
            Voltage::from_volts(0.8),
            StrikeCombo::single(StrikeTarget::I3),
            Variation::MonteCarlo { samples: 33 },
            7,
        )
        .expect("characterization");
    // `qcrit_samples` is sorted ascending, so the pin does not depend on
    // how the samples were split across worker threads.
    let got: Vec<u64> = curve.qcrit_samples().iter().map(|q| q.to_bits()).collect();
    assert_eq!(
        got,
        QCRIT_BITS,
        "Q_crit samples (C): {:?}",
        curve.qcrit_samples()
    );
}
