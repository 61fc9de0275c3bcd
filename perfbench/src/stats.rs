//! The benchmark's own arithmetic: sample summaries, the strike-MC
//! counting error carried through Eq. 8, and the trace ratios.

use finrad_core::fit::{fit_rate, FitRate, PofBin};
use finrad_units::Area;

/// Median of `values` (mean of the two middle values for an even count);
/// NaN when `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First, second and third quartile by the "exclusive" method, the
/// default of Python's `statistics.quantiles(values, n=4)`. `None` for
/// fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    if v.len() < 2 {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let mut q = [0.0; 3];
    for (i, slot) in q.iter_mut().enumerate() {
        // Position (i+1)·m/4 in 1-based order statistics, interpolated in
        // quarters; clamped to the sample range like Python does.
        let j = ((i + 1) * m / 4).clamp(1, v.len() - 1);
        let delta = ((i + 1) * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(q)
}

/// Standard deviation of the Eq. 8 FIT rates implied by per-bin Monte
/// Carlo standard errors. `standard_errors` mirrors the report's bins,
/// with each POF field holding that POF's standard error.
///
/// Eq. 8 is linear in every bin's POF and each bin draws an independent
/// Monte-Carlo stream, so the variance is the sum over bins of the
/// squared FIT contribution of one standard error — which is exactly
/// [`fit_rate`] applied to that bin alone.
pub fn fit_sigma(standard_errors: &[PofBin], footprint: Area) -> FitRate {
    let mut var = FitRate::default();
    for bin in standard_errors {
        let one = fit_rate(std::slice::from_ref(bin), footprint);
        var.total += one.total * one.total;
        var.seu += one.seu * one.seu;
        var.mbu += one.mbu * one.mbu;
    }
    FitRate {
        total: var.total.sqrt(),
        seu: var.seu.sqrt(),
        mbu: var.mbu.sqrt(),
    }
}

/// Relative standard error `σ / FIT` of a total FIT rate. A zero FIT
/// with zero spread has no relative error; a zero FIT with spread is
/// infinitely imprecise.
pub fn relative_error(fit: f64, sigma: f64) -> f64 {
    if fit > 0.0 {
        sigma / fit
    } else if sigma > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Share of the traced wall time covered by layer spans:
/// `Σ layer seconds / wall seconds`.
pub fn coverage(layer_seconds: &[f64], wall_seconds: f64) -> f64 {
    layer_seconds.iter().fold(0.0, |a, b| a + b) / wall_seconds
}

/// Tracing overhead `traced / untraced − 1` of two run times.
pub fn overhead(traced_seconds: f64, untraced_seconds: f64) -> f64 {
    traced_seconds / untraced_seconds - 1.0
}
