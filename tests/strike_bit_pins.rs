//! Same-seed bit pins for the array-level Monte Carlo.
//!
//! The strike and neutron simulators trace every ray through a binned
//! fin layout (`finrad_geometry::trace::BoxGrid`). The contract is that
//! the grid returns exactly the crossings of the linear reference scan
//! (`trace_boxes`), in the same order and with the same bits, so every
//! estimate below must reproduce the bit patterns recorded with the
//! linear scan.

use finrad::core::array::{DataPattern, MemoryArray};
use finrad::core::neutron::{NeutronSimulator, NeutronVolume};
use finrad::core::strike::{
    ArrayPofEstimate, DepositMode, DirectionLaw, FlipModel, StrikeSimulator,
};
use finrad::prelude::*;
use finrad::transport::lut::EhpLut;
use finrad::transport::neutron::NeutronInteraction;
use finrad_numerics::rng::Xoshiro256pp;

fn quick_table() -> PofTable {
    CellCharacterizer::new(
        Technology::soi_finfet_14nm(),
        CharacterizeOptions {
            settle: 5.0e-12,
            bisect_rel_tol: 0.1,
            ..CharacterizeOptions::default()
        },
    )
    .build_table(Voltage::from_volts(0.8), Variation::Nominal, 3)
    .expect("characterization")
}

fn bits(est: &ArrayPofEstimate) -> [u64; 4] {
    [
        est.total.mean().to_bits(),
        est.seu.mean().to_bits(),
        est.mbu.mean().to_bits(),
        est.total.sample_variance().to_bits(),
    ]
}

fn assert_pinned(name: &str, got: [u64; 4], want: [u64; 4]) {
    assert_eq!(
        got,
        want,
        "{name}: got {:?} (means {:e}/{:e}/{:e})",
        got,
        f64::from_bits(got[0]),
        f64::from_bits(got[1]),
        f64::from_bits(got[2])
    );
}

#[test]
fn strike_estimates_match_linear_scan_bits() {
    let tech = Technology::soi_finfet_14nm();
    let array = MemoryArray::build(&tech, 9, 9, DataPattern::Checkerboard);
    let table = quick_table();
    let traversal = FinTraversal::paper_default();
    let lut = EhpLut::build(
        &traversal,
        Particle::Alpha,
        Energy::from_mev(0.1),
        Energy::from_mev(10.0),
        5,
        200,
        &mut Xoshiro256pp::seed_from_u64(21),
    );
    let sim = |direction, deposit, flip_model, lut| {
        StrikeSimulator::new(
            &array,
            traversal.clone(),
            &table,
            direction,
            deposit,
            flip_model,
            lut,
        )
    };
    let iters = 2 * finrad::core::strike::MC_CHUNK_ITERATIONS + 321;

    let cosine = sim(
        DirectionLaw::CosineDown,
        DepositMode::ChordExact,
        FlipModel::Expected,
        None,
    );
    assert_pinned(
        "cosine/chord-exact/alpha",
        bits(&cosine.estimate(Particle::Alpha, Energy::from_mev(2.0), iters, 41)),
        PIN_COSINE_ALPHA,
    );

    let isotropic = sim(
        DirectionLaw::IsotropicDown,
        DepositMode::ChordExact,
        FlipModel::Expected,
        None,
    );
    assert_pinned(
        "isotropic/chord-exact/proton",
        bits(&isotropic.estimate(Particle::Proton, Energy::from_mev(1.0), iters, 42)),
        PIN_ISOTROPIC_PROTON,
    );
    assert_pinned(
        "isotropic/chord-exact/alpha",
        bits(&isotropic.estimate(Particle::Alpha, Energy::from_mev(4.0), iters, 43)),
        PIN_ISOTROPIC_ALPHA,
    );

    let lut_mean = sim(
        DirectionLaw::IsotropicDown,
        DepositMode::LutMean,
        FlipModel::Sampled,
        Some(&lut),
    );
    assert_pinned(
        "isotropic/lut-mean/alpha",
        bits(&lut_mean.estimate(Particle::Alpha, Energy::from_mev(1.5), iters, 44)),
        PIN_LUT_ALPHA,
    );

    let pmf = isotropic.estimate_multiplicity(Particle::Alpha, Energy::from_mev(2.0), 3000, 4, 45);
    let pmf_bits: Vec<u64> = pmf.iter().map(|p| p.to_bits()).collect();
    assert_eq!(pmf_bits, PIN_MULTIPLICITY, "multiplicity {pmf:?}");
}

#[test]
fn neutron_estimates_match_linear_scan_bits() {
    let tech = Technology::soi_finfet_14nm();
    let table = quick_table();
    for (n, want) in [(3, PIN_NEUTRON_3X3), (9, PIN_NEUTRON_9X9)] {
        let array = MemoryArray::build(&tech, n, n, DataPattern::Checkerboard);
        let sim = NeutronSimulator::new(
            &array,
            NeutronInteraction::silicon(),
            &table,
            NeutronVolume::default(),
        );
        let est = sim.estimate(Energy::from_mev(100.0), 12_000, 46);
        assert_pinned(&format!("neutron {n}x{n}"), bits(&est), want);
    }
}

const PIN_COSINE_ALPHA: [u64; 4] = [
    4582026233477046635,
    4582008508802693566,
    4544165941023842857,
    4578252022463410118,
];
const PIN_ISOTROPIC_PROTON: [u64; 4] = [
    4555698256681279713,
    4555695300296503552,
    4505150703764788388,
    4526535170574413943,
];
const PIN_ISOTROPIC_ALPHA: [u64; 4] = [
    4582112585046771940,
    4581919629619979953,
    4559313796928915046,
    4575669780092048560,
];
const PIN_LUT_ALPHA: [u64; 4] = [
    4573150695502811174,
    4572473542028943655,
    4558556451062511651,
    4573114801277316702,
];
const PIN_MULTIPLICITY: &[u64] = &[
    4606822621494264667,
    4585631856598173561,
    4565950551822052433,
    4550790678641852488,
    4514291869379993276,
];
const PIN_NEUTRON_3X3: [u64; 4] = [
    4467229113618982390,
    4467229113618982390,
    0,
    4388108440776231108,
];
const PIN_NEUTRON_9X9: [u64; 4] = [
    4484218985955238800,
    4484218985955238800,
    0,
    4404808098729655083,
];
