//! One (particle, V_dd) FIT report with its counting error, built from
//! the public layer calls that `SerPipeline::run_with_table` makes
//! internally, each wrapped in a [`Tracer`] span.

use crate::stats::fit_sigma;
use crate::trace::Tracer;
use finrad_core::campaign::{BinOutcome, CampaignReport};
use finrad_core::fit::{fit_rate, FitRate, PofBin};
use finrad_core::pipeline::{PipelineConfig, SerPipeline, SerReport};
use finrad_core::strike::{DepositMode, StrikeSimulator};
use finrad_sram::PofTable;
use finrad_transport::fin::{FinGeometry, FinTraversal};
use finrad_transport::stopping::StoppingModel;
use finrad_units::{Particle, Voltage};

/// Span keys of the layers the flow calls into.
pub mod layer {
    /// `SerPipeline::build_pof_table` (cell characterization over SPICE).
    pub const SRAM: &str = "sram";
    /// `SerPipeline::build_ehp_lut`.
    pub const TRANSPORT_LUT: &str = "transport.lut";
    /// `SerPipeline::energy_bins`.
    pub const ENVIRONMENT: &str = "environment";
    /// `SerPipeline::build_array`.
    pub const ARRAY: &str = "core.array";
    /// `StrikeSimulator::new` and `StrikeSimulator::estimate`.
    pub const STRIKE: &str = "core.strike";
    /// `fit_rate` (Eq. 8) and its error fold.
    pub const FIT: &str = "core.fit";
    /// `CampaignRunner::run` up to the pause.
    pub const CAMPAIGN_RUN: &str = "core.campaign.run";
    /// `CampaignRunner::resume` to completion.
    pub const CAMPAIGN_RESUME: &str = "core.campaign.resume";
    /// `Checkpoint::load` of the paused campaign.
    pub const CHECKPOINT_LOAD: &str = "core.checkpoint.load";
    /// Service phase: submit every job, then wait for every job.
    pub const SERVICE: &str = "core.service";
    /// Service phase answered from the fingerprint cache.
    pub const SERVICE_CACHE: &str = "core.service.cache";
}

/// A FIT report with its Monte-Carlo standard deviation.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Particle species.
    pub particle: Particle,
    /// Supply voltage.
    pub vdd: Voltage,
    /// Eq. 8 FIT rates.
    pub fit: FitRate,
    /// Per-bin POF means.
    pub bins: Vec<PofBin>,
    /// Standard deviation of `fit` from strike-MC counting error.
    pub sigma: FitRate,
    /// Strike iterations quarantined as non-finite.
    pub quarantined: u64,
}

/// The fin traversal the pipeline builds for `cfg` (the pipeline's own
/// helper is crate-private).
fn traversal(cfg: &PipelineConfig) -> FinTraversal {
    let g = FinGeometry {
        width: cfg.tech.w_fin,
        length: cfg.tech.l_gate,
        height: cfg.tech.h_fin,
    };
    FinTraversal::new(g, StoppingModel::silicon(), cfg.straggling)
}

/// `run_with_table` decomposed into traced layer calls, keeping each
/// bin's standard errors.
pub fn report(
    pipeline: &SerPipeline,
    particle: Particle,
    vdd: Voltage,
    table: &PofTable,
    tracer: &Tracer,
) -> Report {
    let cfg = pipeline.config();
    let spectrum = tracer.span(layer::ENVIRONMENT, || pipeline.energy_bins(particle));
    let array = tracer.span(layer::ARRAY, || pipeline.build_array());
    let lut = (cfg.deposit == DepositMode::LutMean)
        .then(|| tracer.span(layer::TRANSPORT_LUT, || pipeline.build_ehp_lut(particle)));
    let sim = tracer.span(layer::STRIKE, || {
        StrikeSimulator::new(
            &array,
            traversal(cfg),
            table,
            pipeline.direction_for(particle),
            cfg.deposit,
            cfg.flip_model,
            lut.as_ref(),
        )
    });
    let mut bins = Vec::with_capacity(spectrum.len());
    let mut errors = Vec::with_capacity(spectrum.len());
    let mut quarantined = 0;
    for (k, sb) in spectrum.iter().enumerate() {
        // The per-bin seed SerPipeline::run_with_table derives.
        let seed = cfg.seed.wrapping_add(0xB10C + k as u64 * 6271);
        let est = tracer.span(layer::STRIKE, || {
            sim.estimate(particle, sb.energy, cfg.iterations_per_energy, seed)
        });
        quarantined += est.quarantined;
        bins.push(PofBin {
            spectrum: *sb,
            pof_total: est.total.mean(),
            pof_seu: est.seu.mean(),
            pof_mbu: est.mbu.mean(),
        });
        errors.push(PofBin {
            spectrum: *sb,
            pof_total: est.total.standard_error(),
            pof_seu: est.seu.standard_error(),
            pof_mbu: est.mbu.standard_error(),
        });
    }
    let (fit, sigma) = tracer.span(layer::FIT, || {
        let footprint = array.footprint();
        (fit_rate(&bins, footprint), fit_sigma(&errors, footprint))
    });
    Report {
        particle,
        vdd,
        fit,
        bins,
        sigma,
        quarantined,
    }
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn same_fit(a: &FitRate, b: &FitRate) -> bool {
    same_bits(a.total, b.total) && same_bits(a.seu, b.seu) && same_bits(a.mbu, b.mbu)
}

fn same_bin(a: &PofBin, b: &PofBin) -> bool {
    same_bits(a.pof_total, b.pof_total)
        && same_bits(a.pof_seu, b.pof_seu)
        && same_bits(a.pof_mbu, b.pof_mbu)
        && same_bits(a.spectrum.energy.mev(), b.spectrum.energy.mev())
        && same_bits(
            a.spectrum.integral_flux.per_m2_second(),
            b.spectrum.integral_flux.per_m2_second(),
        )
}

fn same_bins(a: &[PofBin], b: &[PofBin]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_bin(x, y))
}

/// Whether two reports of the program agree bit for bit.
pub fn same_report(a: &SerReport, b: &SerReport) -> bool {
    a.particle == b.particle
        && same_bits(a.vdd.volts(), b.vdd.volts())
        && same_bits(a.fit_total, b.fit_total)
        && same_bits(a.fit_seu, b.fit_seu)
        && same_bits(a.fit_mbu, b.fit_mbu)
        && same_bins(&a.bins, &b.bins)
}

impl Report {
    /// Whether two reports agree bit for bit, errors included.
    pub fn identical(&self, other: &Report) -> bool {
        self.particle == other.particle
            && same_bits(self.vdd.volts(), other.vdd.volts())
            && same_fit(&self.fit, &other.fit)
            && same_fit(&self.sigma, &other.sigma)
            && self.quarantined == other.quarantined
            && same_bins(&self.bins, &other.bins)
    }

    /// Whether the pipeline's own report carries the same bits.
    pub fn matches_pipeline(&self, r: &SerReport) -> bool {
        self.particle == r.particle
            && same_bits(self.vdd.volts(), r.vdd.volts())
            && same_fit(
                &self.fit,
                &FitRate {
                    total: r.fit_total,
                    seu: r.fit_seu,
                    mbu: r.fit_mbu,
                },
            )
            && same_bins(&self.bins, &r.bins)
    }

    /// Whether a campaign report carries the same bits: every bin
    /// completed with the same POFs, the same quarantine count, and the
    /// same FIT.
    pub fn matches_campaign(&self, c: &CampaignReport) -> bool {
        let Some(bins) = campaign_bins(c) else {
            return false;
        };
        let pofs: Vec<PofBin> = bins.iter().map(|&(b, _)| b).collect();
        self.particle == c.particle
            && same_bits(self.vdd.volts(), c.vdd.volts())
            && same_fit(&self.fit, &c.fit)
            && bins.iter().map(|&(_, q)| q).sum::<u64>() == self.quarantined
            && same_bins(&self.bins, &pofs)
    }

    /// Relative standard error of the total FIT.
    pub fn relative_error(&self) -> f64 {
        crate::stats::relative_error(self.fit.total, self.sigma.total)
    }
}

/// The bins of a campaign report with their quarantine counts, or
/// `None` when any bin failed.
fn campaign_bins(c: &CampaignReport) -> Option<Vec<(PofBin, u64)>> {
    c.outcomes
        .iter()
        .map(|o| match o {
            BinOutcome::Ok { bin, quarantined } => Some((*bin, *quarantined)),
            BinOutcome::Failed { .. } => None,
        })
        .collect()
}

/// Whether two complete campaign reports agree bit for bit.
pub fn same_campaign(a: &CampaignReport, b: &CampaignReport) -> bool {
    match (campaign_bins(a), campaign_bins(b)) {
        (Some(x), Some(y)) => {
            a.particle == b.particle
                && same_bits(a.vdd.volts(), b.vdd.volts())
                && same_fit(&a.fit, &b.fit)
                && x.len() == y.len()
                && x.iter()
                    .zip(&y)
                    .all(|((p, q), (r, s))| q == s && same_bin(p, r))
        }
        _ => false,
    }
}
