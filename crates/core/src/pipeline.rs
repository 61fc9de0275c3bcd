//! The end-to-end cross-layer SER pipeline (the paper's Fig. 6).
//!
//! [`SerPipeline`] glues the three levels together: it characterizes the
//! cell into POF tables (once per supply voltage), discretizes the
//! particle's ground-level spectrum into energy bins, runs the array-level
//! strike Monte Carlo at each bin's representative energy, and integrates
//! the FIT rate with Eq. 8.

use crate::array::{DataPattern, MemoryArray};
use crate::fit::{fit_rate, PofBin};
use crate::strike::{ArrayPofEstimate, DepositMode, DirectionLaw, FlipModel, StrikeSimulator};
use crate::CoreError;
use finrad_environment::{AlphaSpectrum, ProtonSpectrum, Spectrum, SpectrumBin};
use finrad_finfet::Technology;
use finrad_numerics::rng::Xoshiro256pp;
use finrad_sram::{CellCharacterizer, CharacterizeOptions, PofTable, Variation};
use finrad_transport::fin::{FinGeometry, FinTraversal};
use finrad_transport::lut::EhpLut;
use finrad_transport::stopping::StoppingModel;
use finrad_transport::straggling::StragglingModel;
use finrad_units::{Area, Energy, Particle, Voltage};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Technology node.
    pub tech: Technology,
    /// Array rows (paper: 9).
    pub rows: usize,
    /// Array columns (paper: 9).
    pub cols: usize,
    /// Stored data pattern.
    pub pattern: DataPattern,
    /// Process-variation treatment in the cell characterization.
    pub variation: Variation,
    /// Circuit-level characterization knobs.
    pub characterize: CharacterizeOptions,
    /// Arrival-direction law for atmospheric protons (cosine-weighted by
    /// default: flux through a horizontal die surface).
    pub proton_direction: DirectionLaw,
    /// Arrival-direction law for package alphas (isotropic by default:
    /// emission from material surrounding the die on all sides).
    pub alpha_direction: DirectionLaw,
    /// Pair-deposition mode of the strike MC.
    pub deposit: DepositMode,
    /// Straggling treatment of the per-cell flip probability.
    pub flip_model: FlipModel,
    /// Straggling model of the transport layer.
    pub straggling: StragglingModel,
    /// Strike-MC iterations per energy bin (paper: 10⁷ total).
    pub iterations_per_energy: u64,
    /// Number of energy bins the spectrum is discretized into.
    pub energy_bins: usize,
    /// Energy grid points of the device-level e-h pair LUT (used when
    /// `deposit` is [`DepositMode::LutMean`]).
    pub lut_energy_points: usize,
    /// Monte-Carlo traversals per LUT energy point.
    pub lut_samples: u64,
    /// Master RNG seed (results are deterministic given the seed).
    pub seed: u64,
}

impl PipelineConfig {
    /// The paper's baseline: 14 nm SOI FinFET, 9×9 checkerboard array,
    /// variation Monte Carlo, chord-exact transport with automatic
    /// straggling. Iteration counts are sized for minutes-scale runs;
    /// scale them up for publication-grade statistics.
    pub fn paper_baseline() -> Self {
        Self {
            tech: Technology::soi_finfet_14nm(),
            rows: 9,
            cols: 9,
            pattern: DataPattern::Checkerboard,
            variation: Variation::MonteCarlo { samples: 200 },
            characterize: CharacterizeOptions::default(),
            proton_direction: DirectionLaw::CosineDown,
            alpha_direction: DirectionLaw::IsotropicDown,
            deposit: DepositMode::ChordExact,
            flip_model: FlipModel::Expected,
            straggling: StragglingModel::Auto,
            iterations_per_energy: 20_000,
            energy_bins: 12,
            lut_energy_points: 17,
            lut_samples: 20_000,
            seed: 0xF1A7_5EED,
        }
    }

    /// A heavily reduced configuration for tests and smoke runs.
    pub fn smoke_test() -> Self {
        Self {
            rows: 3,
            cols: 3,
            variation: Variation::Nominal,
            characterize: CharacterizeOptions {
                settle: 5.0e-12,
                bisect_rel_tol: 0.1,
                ..CharacterizeOptions::default()
            },
            iterations_per_energy: 500,
            energy_bins: 5,
            ..Self::paper_baseline()
        }
    }

    /// Refuses a configuration some layer cannot run. Every driver calls
    /// this before its first layer call, so such a configuration is a
    /// typed error rather than a panic in characterization, the transport
    /// LUT build or the strike simulator.
    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(CoreError::InvalidConfig(
                "array dimensions must be non-zero".into(),
            ));
        }
        if self.iterations_per_energy == 0 {
            return Err(CoreError::InvalidConfig(
                "need at least one iteration per energy".into(),
            ));
        }
        if self.energy_bins == 0 {
            return Err(CoreError::InvalidConfig(
                "need at least one energy bin".into(),
            ));
        }
        if matches!(self.variation, Variation::MonteCarlo { samples: 0 }) {
            return Err(CoreError::InvalidConfig(
                "variation Monte Carlo needs at least one sample".into(),
            ));
        }
        if self.deposit == DepositMode::LutMean {
            if self.lut_samples == 0 {
                return Err(CoreError::InvalidConfig(
                    "LUT-mean deposits need at least one LUT sample per energy point".into(),
                ));
            }
            if self.lut_energy_points < 2 {
                return Err(CoreError::InvalidConfig(
                    "LUT-mean deposits need at least two LUT energy points".into(),
                ));
            }
            if self.flip_model == FlipModel::Expected {
                return Err(CoreError::InvalidConfig(
                    "the Expected flip model requires chord-exact deposits".into(),
                ));
            }
        }
        Ok(())
    }
}

/// The SER report for one (particle, V_dd) point.
#[derive(Debug, Clone)]
pub struct SerReport {
    /// Particle species.
    pub particle: Particle,
    /// Supply voltage.
    pub vdd: Voltage,
    /// Total FIT rate (the paper's Fig. 9 quantity).
    pub fit_total: f64,
    /// SEU-only FIT rate.
    pub fit_seu: f64,
    /// MBU-only FIT rate.
    pub fit_mbu: f64,
    /// Per-bin detail.
    pub bins: Vec<PofBin>,
}

impl SerReport {
    /// MBU/SEU ratio in percent (Fig. 10). An MBU-only spectrum reports
    /// `f64::INFINITY`, not 0 (see [`crate::fit::mbu_to_seu_ratio`]).
    pub fn mbu_to_seu_percent(&self) -> f64 {
        100.0 * crate::fit::mbu_to_seu_ratio(self.fit_mbu, self.fit_seu)
    }
}

/// The end-to-end pipeline.
pub struct SerPipeline {
    config: PipelineConfig,
}

impl SerPipeline {
    /// Creates a pipeline.
    pub fn new(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Builds the circuit-level POF table at `vdd` (the expensive step —
    /// cache and reuse it across energies and particles).
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    pub fn build_pof_table(&self, vdd: Voltage) -> Result<PofTable, CoreError> {
        self.config.validate()?;
        let ch = CellCharacterizer::new(self.config.tech.clone(), self.config.characterize.clone());
        Ok(ch.build_table(vdd, self.config.variation, self.config.seed)?)
    }

    /// The memory array for the configured geometry.
    pub fn build_array(&self) -> MemoryArray {
        MemoryArray::build(
            &self.config.tech,
            self.config.rows,
            self.config.cols,
            self.config.pattern,
        )
    }

    pub(crate) fn traversal(&self) -> FinTraversal {
        let g = FinGeometry {
            width: self.config.tech.w_fin,
            length: self.config.tech.l_gate,
            height: self.config.tech.h_fin,
        };
        FinTraversal::new(g, StoppingModel::silicon(), self.config.straggling)
    }

    /// The arrival-direction law used for `particle`.
    pub fn direction_for(&self, particle: Particle) -> DirectionLaw {
        match particle {
            Particle::Proton => self.config.proton_direction,
            Particle::Alpha => self.config.alpha_direction,
        }
    }

    /// Builds the device-level electron-hole pair LUT for `particle`
    /// (needed by [`DepositMode::LutMean`]; built over 0.1-10^3 MeV).
    pub fn build_ehp_lut(&self, particle: Particle) -> EhpLut {
        let _timer = finrad_observe::span(finrad_observe::keys::TRANSPORT_LUT_BUILD_SECONDS);
        finrad_observe::counter_add(finrad_observe::keys::TRANSPORT_LUT_BUILDS, 1);
        // The 0x1A7 tag decorrelates the LUT-build stream from the MC
        // streams; it predates `salted_stream` and its draws are pinned by
        // golden tests, so the inline derivation stays.
        // finrad-lint: allow(seed-discipline)
        let mut rng = Xoshiro256pp::seed_from_u64(self.config.seed ^ 0x1A7 ^ particle as u64);
        EhpLut::build(
            &self.traversal(),
            particle,
            Energy::from_mev(0.1),
            Energy::from_mev(1.0e3),
            self.config.lut_energy_points,
            self.config.lut_samples,
            &mut rng,
        )
    }

    /// The ground-level spectrum for `particle`.
    pub fn spectrum(&self, particle: Particle) -> Box<dyn Spectrum> {
        match particle {
            Particle::Proton => Box::new(ProtonSpectrum::sea_level()),
            Particle::Alpha => Box::new(AlphaSpectrum::paper_default()),
        }
    }

    /// Energy bins for the FIT integral: the alpha spectrum's full 10 MeV
    /// range, or the proton spectrum clipped to the direct-ionization band
    /// (0.1–10³ MeV; above it the stopping power — and hence POF — is
    /// negligible while the flux keeps falling).
    pub fn energy_bins(&self, particle: Particle) -> Vec<SpectrumBin> {
        let spectrum = self.spectrum(particle);
        match particle {
            Particle::Alpha => spectrum.discretize(self.config.energy_bins),
            Particle::Proton => {
                let bins =
                    finrad_numerics::quadrature::log_bins(0.1, 1.0e3, self.config.energy_bins);
                bins.into_iter()
                    .map(|b| SpectrumBin {
                        energy: Energy::from_mev(b.representative),
                        lo: Energy::from_mev(b.lo),
                        hi: Energy::from_mev(b.hi),
                        integral_flux: spectrum
                            .integral_flux(Energy::from_mev(b.lo), Energy::from_mev(b.hi)),
                    })
                    .collect()
            }
        }
    }

    /// Measures the array POF at each of `energies` under forced hits —
    /// the paper's Fig. 8 experiment.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    pub fn pof_vs_energy(
        &self,
        particle: Particle,
        vdd: Voltage,
        energies: &[Energy],
    ) -> Result<Vec<(Energy, ArrayPofEstimate)>, CoreError> {
        let table = self.build_pof_table(vdd)?;
        Ok(self.pof_vs_energy_with_table(particle, &table, energies))
    }

    /// Fig. 8 sweep reusing a prebuilt POF table.
    pub fn pof_vs_energy_with_table(
        &self,
        particle: Particle,
        table: &PofTable,
        energies: &[Energy],
    ) -> Vec<(Energy, ArrayPofEstimate)> {
        let plan = BinPlan::new(self, particle);
        let sim = plan.simulator(table);
        energies
            .iter()
            .enumerate()
            .map(|(k, &e)| {
                let seed = self.config.seed.wrapping_add(k as u64 * 7919);
                (e, sim.estimate(particle, e, plan.iterations, seed))
            })
            .collect()
    }

    /// Runs the full pipeline for one (particle, V_dd): characterize, bin
    /// the spectrum, Monte-Carlo each bin, and integrate the FIT rate.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures and configuration errors.
    pub fn run(&self, particle: Particle, vdd: Voltage) -> Result<SerReport, CoreError> {
        let table = self.build_pof_table(vdd)?;
        Ok(self.run_with_table(particle, vdd, &table))
    }

    /// Full pipeline reusing a prebuilt POF table (`vdd` must match the
    /// table's characterization voltage).
    pub fn run_with_table(&self, particle: Particle, vdd: Voltage, table: &PofTable) -> SerReport {
        BinPlan::new(self, particle).report(vdd, table)
    }
}

/// One particle's Eq. 8 fold minus the POF table: the spectrum bins, the
/// array, the strike settings, the deposit-mode LUT, the iteration budget
/// and the seed. Every driver runs its bins through a plan (the pipeline,
/// [`crate::sweep::VddSweep`] at every V_dd, the campaign runner and the
/// service), so bin `k` gets the same energy, seed and simulator wherever
/// it runs, which is what makes a resumed or sharded campaign
/// bit-identical to an uninterrupted pipeline run.
pub(crate) struct BinPlan {
    particle: Particle,
    bins: Vec<SpectrumBin>,
    array: MemoryArray,
    traversal: FinTraversal,
    direction: DirectionLaw,
    deposit: DepositMode,
    flip_model: FlipModel,
    /// Built here, and only in [`DepositMode::LutMean`].
    lut: Option<EhpLut>,
    iterations: u64,
    seed: u64,
}

impl BinPlan {
    pub(crate) fn new(pipeline: &SerPipeline, particle: Particle) -> Self {
        let config = &pipeline.config;
        Self {
            particle,
            bins: pipeline.energy_bins(particle),
            array: pipeline.build_array(),
            traversal: pipeline.traversal(),
            direction: pipeline.direction_for(particle),
            deposit: config.deposit,
            flip_model: config.flip_model,
            lut: (config.deposit == DepositMode::LutMean).then(|| pipeline.build_ehp_lut(particle)),
            iterations: config.iterations_per_energy,
            seed: config.seed,
        }
    }

    pub(crate) fn particle(&self) -> Particle {
        self.particle
    }

    pub(crate) fn bins(&self) -> &[SpectrumBin] {
        &self.bins
    }

    pub(crate) fn footprint(&self) -> Area {
        self.array.footprint()
    }

    /// The strike simulator over `table` (one V_dd).
    pub(crate) fn simulator<'a>(&'a self, table: &'a PofTable) -> StrikeSimulator<'a> {
        StrikeSimulator::new(
            &self.array,
            self.traversal.clone(),
            table,
            self.direction,
            self.deposit,
            self.flip_model,
            self.lut.as_ref(),
        )
    }

    /// Bin `k`'s strike Monte Carlo at its own seed, [`bin_seed`].
    pub(crate) fn estimate(&self, sim: &StrikeSimulator<'_>, k: usize) -> ArrayPofEstimate {
        let seed = bin_seed(self.seed, k);
        sim.estimate(self.particle, self.bins[k].energy, self.iterations, seed)
    }

    /// Bin `k`'s Eq. 8 term from its estimate.
    pub(crate) fn pof_bin(&self, k: usize, est: &ArrayPofEstimate) -> PofBin {
        PofBin {
            spectrum: self.bins[k],
            pof_total: est.total.mean(),
            pof_seu: est.seu.mean(),
            pof_mbu: est.mbu.mean(),
        }
    }

    /// Every bin, unsupervised, integrated with Eq. 8.
    pub(crate) fn report(&self, vdd: Voltage, table: &PofTable) -> SerReport {
        let sim = self.simulator(table);
        let bins: Vec<PofBin> = (0..self.bins.len())
            .map(|k| self.pof_bin(k, &self.estimate(&sim, k)))
            .collect();
        let fit = fit_rate(&bins, self.footprint());
        SerReport {
            particle: self.particle,
            vdd,
            fit_total: fit.total,
            fit_seu: fit.seu,
            fit_mbu: fit.mbu,
            bins,
        }
    }
}

/// The strike Monte-Carlo seed of energy bin `k`.
fn bin_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add(0xB10C + k as u64 * 6271)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let mut c = PipelineConfig::smoke_test();
        c.rows = 0;
        assert!(matches!(
            SerPipeline::new(c).build_pof_table(Voltage::from_volts(0.8)),
            Err(CoreError::InvalidConfig(_))
        ));
        let mut c2 = PipelineConfig::smoke_test();
        c2.energy_bins = 0;
        assert!(c2.validate().is_err());
        assert!(PipelineConfig::paper_baseline().validate().is_ok());
    }

    #[test]
    fn energy_bins_cover_expected_ranges() {
        let p = SerPipeline::new(PipelineConfig::smoke_test());
        let alpha_bins = p.energy_bins(Particle::Alpha);
        assert_eq!(alpha_bins.len(), 5);
        assert!(alpha_bins.last().unwrap().hi.mev() <= 10.0 + 1e-6);
        let proton_bins = p.energy_bins(Particle::Proton);
        assert!(proton_bins.last().unwrap().hi.mev() <= 1.0e3 + 1.0);
        // All bins carry non-negative flux.
        for b in alpha_bins.iter().chain(&proton_bins) {
            assert!(b.integral_flux.per_m2_second() >= 0.0);
        }
    }

    #[test]
    fn smoke_run_produces_finite_report() {
        let p = SerPipeline::new(PipelineConfig::smoke_test());
        let report = p.run(Particle::Alpha, Voltage::from_volts(0.8)).unwrap();
        assert!(report.fit_total.is_finite() && report.fit_total >= 0.0);
        assert!(report.fit_seu <= report.fit_total + 1e-9);
        assert!(
            (report.fit_seu + report.fit_mbu - report.fit_total).abs()
                <= 1e-6 * report.fit_total.max(1.0)
        );
        assert_eq!(report.bins.len(), 5);
        assert!(report.mbu_to_seu_percent() >= 0.0);
    }

    #[test]
    fn mbu_only_report_has_infinite_ratio() {
        let report = SerReport {
            particle: Particle::Alpha,
            vdd: Voltage::from_volts(0.8),
            fit_total: 3.0,
            fit_seu: 0.0,
            fit_mbu: 3.0,
            bins: Vec::new(),
        };
        assert_eq!(report.mbu_to_seu_percent(), f64::INFINITY);
        let empty = SerReport {
            fit_total: 0.0,
            fit_mbu: 0.0,
            bins: Vec::new(),
            ..report
        };
        assert_eq!(empty.mbu_to_seu_percent(), 0.0);
    }

    #[test]
    fn fig8_trend_alpha_pof_decreases_with_energy() {
        let mut cfg = PipelineConfig::smoke_test();
        cfg.iterations_per_energy = 3000;
        let p = SerPipeline::new(cfg);
        let energies = [Energy::from_mev(1.0), Energy::from_mev(50.0)];
        let res = p
            .pof_vs_energy(Particle::Alpha, Voltage::from_volts(0.8), &energies)
            .unwrap();
        let low = res[0].1.total.mean();
        let high = res[1].1.total.mean();
        assert!(low > high, "POF should fall with energy: {low} vs {high}");
    }

    #[test]
    fn ser_rises_at_lower_vdd() {
        // The paper's headline Fig. 9 trend, checked on the smoke config.
        let mut cfg = PipelineConfig::smoke_test();
        cfg.iterations_per_energy = 3000;
        let p = SerPipeline::new(cfg);
        let low = p.run(Particle::Alpha, Voltage::from_volts(0.7)).unwrap();
        let high = p.run(Particle::Alpha, Voltage::from_volts(1.1)).unwrap();
        assert!(
            low.fit_total > high.fit_total,
            "FIT(0.7V) = {} should exceed FIT(1.1V) = {}",
            low.fit_total,
            high.fit_total
        );
    }
}
