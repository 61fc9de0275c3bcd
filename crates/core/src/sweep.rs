//! Supply-voltage sweeps — the programmatic form of the paper's
//! Figs. 9–11.
//!
//! [`VddSweep`] runs the full pipeline over a list of supply voltages for
//! both particle species, reusing one POF characterization per voltage
//! (the expensive step) and one bin plan (bins, array, transport LUT) per
//! particle, and returns the FIT/MBU series the figures plot.

use crate::pipeline::{BinPlan, SerPipeline, SerReport};
use crate::CoreError;
use finrad_units::{Particle, Voltage};

/// One voltage point of a sweep: the per-species reports.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The supply voltage.
    pub vdd: Voltage,
    /// Proton-induced SER report.
    pub proton: SerReport,
    /// Alpha-induced SER report.
    pub alpha: SerReport,
}

impl SweepPoint {
    /// Combined (proton + alpha) FIT rate.
    pub fn fit_combined(&self) -> f64 {
        self.proton.fit_total + self.alpha.fit_total
    }
}

/// Results of a supply sweep.
#[derive(Debug, Clone)]
pub struct VddSweep {
    points: Vec<SweepPoint>,
}

impl VddSweep {
    /// Runs the pipeline at every voltage in `vdds`.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    ///
    /// # Panics
    ///
    /// Panics if `vdds` is empty.
    pub fn run(pipeline: &SerPipeline, vdds: &[Voltage]) -> Result<Self, CoreError> {
        assert!(!vdds.is_empty(), "sweep needs at least one voltage");
        // Before the plans: building the array panics on a zero size.
        pipeline.config().validate()?;
        // Bins, array and transport LUT do not depend on V_dd: one plan
        // per particle.
        let proton = BinPlan::new(pipeline, Particle::Proton);
        let alpha = BinPlan::new(pipeline, Particle::Alpha);
        let mut points = Vec::with_capacity(vdds.len());
        for &vdd in vdds {
            let table = pipeline.build_pof_table(vdd)?;
            points.push(SweepPoint {
                vdd,
                proton: proton.report(vdd, &table),
                alpha: alpha.report(vdd, &table),
            });
        }
        Ok(Self { points })
    }

    /// The sweep points, in input order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// The Fig. 9 series for `particle`: `(vdd, FIT)` pairs.
    pub fn fit_series(&self, particle: Particle) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| {
                let fit = match particle {
                    Particle::Proton => p.proton.fit_total,
                    Particle::Alpha => p.alpha.fit_total,
                };
                (p.vdd.volts(), fit)
            })
            .collect()
    }

    /// The Fig. 10 series for `particle`: `(vdd, MBU/SEU %)` pairs.
    pub fn mbu_seu_series(&self, particle: Particle) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| {
                let r = match particle {
                    Particle::Proton => p.proton.mbu_to_seu_percent(),
                    Particle::Alpha => p.alpha.mbu_to_seu_percent(),
                };
                (p.vdd.volts(), r)
            })
            .collect()
    }

    /// Ratio of the steepness of the two species' FIT fall-off between the
    /// sweep's first and last voltage — the paper's "proton-induced SER
    /// decreases with an extremely higher rate" quantified. Values > 1
    /// mean the proton curve falls faster.
    pub fn proton_to_alpha_steepness(&self) -> f64 {
        let first = &self.points[0];
        let last = &self.points[self.points.len() - 1];
        let proton_fall = first.proton.fit_total / last.proton.fit_total.max(f64::MIN_POSITIVE);
        let alpha_fall = first.alpha.fit_total / last.alpha.fit_total.max(f64::MIN_POSITIVE);
        proton_fall / alpha_fall.max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;

    fn smoke_sweep() -> VddSweep {
        let mut cfg = PipelineConfig::smoke_test();
        cfg.iterations_per_energy = 2_000;
        let pipeline = SerPipeline::new(cfg);
        VddSweep::run(
            &pipeline,
            &[Voltage::from_volts(0.7), Voltage::from_volts(1.1)],
        )
        .expect("sweep")
    }

    #[test]
    fn sweep_produces_ordered_points() {
        let sweep = smoke_sweep();
        assert_eq!(sweep.points().len(), 2);
        assert_eq!(sweep.points()[0].vdd.volts(), 0.7);
        assert!(sweep.points()[0].fit_combined() > 0.0);
    }

    #[test]
    fn series_extraction() {
        let sweep = smoke_sweep();
        let fit = sweep.fit_series(Particle::Alpha);
        assert_eq!(fit.len(), 2);
        // Fig. 9: falls with Vdd.
        assert!(fit[0].1 > fit[1].1);
        let mbu = sweep.mbu_seu_series(Particle::Alpha);
        assert!(mbu.iter().all(|&(_, r)| r >= 0.0));
    }

    #[test]
    fn proton_steeper_than_alpha() {
        let sweep = smoke_sweep();
        assert!(
            sweep.proton_to_alpha_steepness() > 1.0,
            "steepness {}",
            sweep.proton_to_alpha_steepness()
        );
    }

    #[test]
    #[should_panic(expected = "at least one voltage")]
    fn empty_sweep_rejected() {
        let cfg = PipelineConfig::smoke_test();
        let _ = VddSweep::run(&SerPipeline::new(cfg), &[]);
    }
}
