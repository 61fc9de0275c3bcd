//! The benchmark's own arithmetic: sample summaries, the counting error
//! carried through Eq. 8, the trace ratios and the manifest.

use finrad_core::fit::{fit_rate, PofBin};
use finrad_environment::SpectrumBin;
use finrad_perfbench::host::{cpu_list_len, stat_cpu_seconds};
use finrad_perfbench::metrics::manifest_json;
use finrad_perfbench::stats::{coverage, fit_sigma, median, overhead, quartiles, relative_error};
use finrad_perfbench::trace::{self, Tracer};
use finrad_units::{constants, Area, Energy, Flux};

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs())
}

#[test]
fn median_of_odd_even_and_empty_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.5]), 7.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Values printed by Python's `statistics.quantiles(data, n=4)`.
    let cases: [(&[f64], [f64; 3]); 4] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.75, 5.5, 8.25],
        ),
        (&[1.0, 2.0, 3.0, 4.0, 5.0], [1.5, 3.0, 4.5]),
        (&[1.0, 3.1], [0.475, 2.05, 3.625]),
        (&[5.0, 1.0, 4.0, 2.0], [1.25, 3.0, 4.75]),
    ];
    for (data, expected) in cases {
        let q = quartiles(data).expect("two or more values");
        for (got, want) in q.iter().zip(expected) {
            assert!(close(*got, want, 1e-12), "{data:?}: {q:?} vs {expected:?}");
        }
    }
    assert_eq!(quartiles(&[1.0]), None);
    // The second quartile is the median.
    let data = [9.0, 2.0, 7.0, 4.0, 5.0, 1.0];
    assert_eq!(quartiles(&data).map(|q| q[1]), Some(median(&data)));
}

fn bin(energy_mev: f64, flux_per_cm2_hour: f64, pofs: [f64; 3]) -> PofBin {
    PofBin {
        spectrum: SpectrumBin {
            energy: Energy::from_mev(energy_mev),
            lo: Energy::from_mev(0.5 * energy_mev),
            hi: Energy::from_mev(2.0 * energy_mev),
            integral_flux: Flux::from_per_cm2_hour(flux_per_cm2_hour),
        },
        pof_total: pofs[0],
        pof_seu: pofs[1],
        pof_mbu: pofs[2],
    }
}

#[test]
fn fit_sigma_adds_per_bin_fit_rate_contributions_in_quadrature() {
    let area = Area::from_square_cm(2.0e-8);
    let errors = [
        bin(1.0, 3.0e-3, [1.0e-3, 8.0e-4, 3.0e-4]),
        bin(4.0, 1.0e-3, [2.0e-3, 1.9e-3, 1.0e-4]),
        bin(9.0, 5.0e-4, [0.0, 0.0, 0.0]),
    ];
    let sigma = fit_sigma(&errors, area);
    // Each bin's contribution is `fit_rate` of that bin alone.
    let per_bin: Vec<_> = errors
        .iter()
        .map(|b| fit_rate(std::slice::from_ref(b), area))
        .collect();
    let quad = |f: fn(&finrad_core::fit::FitRate) -> f64| {
        per_bin.iter().map(|r| f(r) * f(r)).sum::<f64>().sqrt()
    };
    assert!(close(sigma.total, quad(|r| r.total), 1e-12));
    assert!(close(sigma.seu, quad(|r| r.seu), 1e-12));
    assert!(close(sigma.mbu, quad(|r| r.mbu), 1e-12));
    // Eq. 8 written out: particles/h through the footprint × 1e9 h.
    let weight = |b: &PofBin| {
        b.spectrum.integral_flux.per_m2_second()
            * area.square_meters()
            * 3600.0
            * constants::FIT_HOURS
    };
    let by_hand = errors
        .iter()
        .map(|b| (b.pof_total * weight(b)).powi(2))
        .sum::<f64>()
        .sqrt();
    assert!(close(sigma.total, by_hand, 1e-12));
    // A single bin's sigma is its own fit_rate.
    let one = fit_sigma(&errors[..1], area);
    assert!(close(one.total, per_bin[0].total, 1e-15));
}

#[test]
fn fit_rate_is_the_sum_of_its_bins() {
    // The linearity fit_sigma relies on.
    let area = Area::from_square_cm(1.0e-8);
    let bins = [
        bin(1.0, 2.0e-3, [0.4, 0.3, 0.1]),
        bin(3.0, 7.0e-4, [0.2, 0.19, 0.01]),
    ];
    let whole = fit_rate(&bins, area);
    let parts: f64 = bins
        .iter()
        .map(|b| fit_rate(std::slice::from_ref(b), area).total)
        .sum();
    assert!(close(whole.total, parts, 1e-12));
}

#[test]
fn relative_error_handles_zero_fit() {
    assert!(close(relative_error(2.0e-4, 4.0e-6), 0.02, 1e-12));
    assert_eq!(relative_error(0.0, 0.0), 0.0);
    assert_eq!(relative_error(0.0, 1.0e-9), f64::INFINITY);
}

#[test]
fn coverage_and_overhead_ratios() {
    assert!(close(coverage(&[1.5, 2.0, 0.5], 4.0), 1.0, 1e-12));
    assert!(close(coverage(&[1.0, 2.0], 4.0), 0.75, 1e-12));
    assert_eq!(coverage(&[], 4.0), 0.0);
    assert!(close(overhead(11.0, 10.0), 0.1, 1e-12));
    assert!(close(overhead(9.0, 10.0), -0.1, 1e-12));
}

#[test]
fn tracer_records_spans_and_sums_by_layer() {
    let off = Tracer::off();
    assert_eq!(off.span("a", || 7), 7);
    assert!(off.take().is_empty());

    let on = Tracer::on();
    let v = on.span("inner", || std::hint::black_box(1)) + on.span("inner", || 2);
    assert_eq!(v, 3);
    on.span("other", || ());
    let spans = on.take();
    assert_eq!(spans.len(), 3);
    assert_eq!(trace::durations(&spans, "inner").len(), 2);
    let inner = trace::total_seconds(&spans, "inner");
    assert!(close(inner, spans[0].seconds + spans[1].seconds, 1e-12));
    assert!(spans.iter().all(|s| s.seconds >= 0.0));
    assert!(on.take().is_empty());
}

#[test]
fn cpu_lists_count_ranges_and_singles() {
    assert_eq!(cpu_list_len("0-1"), 2);
    assert_eq!(cpu_list_len("0-3,6,8-9"), 7);
    assert_eq!(cpu_list_len("5"), 1);
    assert_eq!(cpu_list_len(""), 0);
}

#[test]
fn cpu_seconds_come_from_stat_fields_14_and_15() {
    // utime 250 and stime 75 ticks; the command name holds a space and
    // a parenthesis.
    let stat = "4242 (perf bench)) R 1 4242 4242 0 -1 4194304 900 0 0 0 250 75 0 0 20 0 3 0";
    assert_eq!(stat_cpu_seconds(stat), Some(3.25));
    assert_eq!(stat_cpu_seconds("4242 (x) R 1"), None);
    let own = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    assert!(stat_cpu_seconds(&own).is_some_and(|s| s >= 0.0));
}

#[test]
fn committed_manifest_matches_the_metric_definitions() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        manifest_json(),
        "regenerate with `cargo run --manifest-path perfbench/Cargo.toml -- --manifest`"
    );
}
