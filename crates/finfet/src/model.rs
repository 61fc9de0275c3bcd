//! EKV-style FinFET compact model.
//!
//! The drain current is the difference of a forward and a reverse
//! interpolation function,
//!
//! ```text
//! I_d = I_spec · [F(x_s) − F(x_d)],   F(x) = ln²(1 + e^{x/2})
//! x_s = v_p/φt,  x_d = (v_p − v_ds)/φt,  v_p = (v_gs − V_th,eff)/n
//! V_th,eff = V_th0 + δV_th − η·v_ds          (DIBL)
//! I_spec = 2·n·µ·C_ox·(W_eff/L)·φt²
//! ```
//!
//! which is smooth from deep subthreshold (`F → e^x`, giving the exponential
//! leakage with slope `n·φt·ln 10`) to strong inversion (`F → (x/2)²`,
//! giving square-law saturation), and is infinitely differentiable — the
//! property the Newton solver in `finrad-spice` relies on. Source/drain
//! symmetry is handled by terminal swap; PMOS by voltage mirroring.

use crate::technology::Technology;
use finrad_units::Voltage;

/// Channel polarity of a FinFET instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// N-channel (pull-down and pass-gate devices in the 6T cell).
    Nmos,
    /// P-channel (pull-up devices).
    Pmos,
}

/// Operating-point evaluation of a device: drain current and its partial
/// derivatives with respect to the three terminal voltages.
///
/// `id` is the conventional current flowing *into* the drain terminal.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SmallSignal {
    /// Drain current, amperes.
    pub id: f64,
    /// ∂I_d/∂V_g, siemens.
    pub did_dvg: f64,
    /// ∂I_d/∂V_d, siemens.
    pub did_dvd: f64,
    /// ∂I_d/∂V_s, siemens.
    pub did_dvs: f64,
}

/// A sized FinFET instance bound to a [`Technology`].
///
/// # Examples
///
/// ```
/// use finrad_finfet::{FinFet, Polarity, Technology};
///
/// let tech = Technology::soi_finfet_14nm();
/// let nfet = FinFet::new(&tech, Polarity::Nmos, 1);
/// let on = nfet.evaluate(0.8, 0.8, 0.0);
/// let off = nfet.evaluate(0.0, 0.8, 0.0);
/// assert!(on.id > 1e3 * off.id); // strong ON/OFF ratio
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FinFet {
    polarity: Polarity,
    n_fins: u32,
    /// Zero-bias threshold magnitude, volts.
    vth0: f64,
    /// Per-instance threshold shift (process variation), volts.
    delta_vth: f64,
    /// Subthreshold slope factor.
    n_slope: f64,
    /// DIBL coefficient.
    eta: f64,
    /// Specific current I_spec, amperes.
    i_spec: f64,
    /// Thermal voltage, volts.
    phi_t: f64,
    /// Gate capacitance (total, all fins), farads.
    c_gate: f64,
    /// Junction capacitance at drain and at source (each), farads.
    c_junction: f64,
}

/// Numerically safe softplus: `ln(1 + e^x)`.
fn softplus(x: f64) -> f64 {
    if x > 40.0 {
        x
    } else if x < -40.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Logistic sigmoid, the derivative of softplus.
fn sigmoid(x: f64) -> f64 {
    if x > 40.0 {
        1.0
    } else if x < -40.0 {
        x.exp()
    } else {
        1.0 / (1.0 + (-x).exp())
    }
}

/// The EKV interpolation function `F(x) = ln²(1 + e^{x/2})`.
fn ekv_f(x: f64) -> f64 {
    let s = softplus(0.5 * x);
    s * s
}

/// `F(x)` and its derivative `F'(x) = ln(1 + e^{x/2}) · σ(x/2)`, sharing
/// one softplus.
fn ekv_f_and_prime(x: f64) -> (f64, f64) {
    let s = softplus(0.5 * x);
    (s * s, s * sigmoid(0.5 * x))
}

impl FinFet {
    /// Creates a device with `n_fins` parallel fins in `tech`.
    ///
    /// # Panics
    ///
    /// Panics if `n_fins == 0`.
    pub fn new(tech: &Technology, polarity: Polarity, n_fins: u32) -> Self {
        assert!(n_fins > 0, "device needs at least one fin");
        let (vth0, mu_cm2) = match polarity {
            Polarity::Nmos => (tech.vth_n.volts(), tech.mu_n_cm2),
            Polarity::Pmos => (tech.vth_p.volts(), tech.mu_p_cm2),
        };
        let phi_t = tech.thermal_voltage().volts();
        let w_over_l = tech.w_eff_per_fin().meters() * n_fins as f64 / tech.l_gate.meters();
        let mu_m2 = mu_cm2 * 1.0e-4;
        let i_spec = 2.0 * tech.slope_factor * mu_m2 * tech.cox_f_per_m2 * w_over_l * phi_t * phi_t;
        Self {
            polarity,
            n_fins,
            vth0,
            delta_vth: 0.0,
            n_slope: tech.slope_factor,
            eta: tech.dibl,
            i_spec,
            phi_t,
            c_gate: tech.gate_cap_per_fin_f() * n_fins as f64,
            c_junction: tech.junction_cap_per_fin_f * n_fins as f64,
        }
    }

    /// Returns a copy with an added threshold-voltage shift (used by the
    /// process-variation Monte Carlo; positive `delta` weakens an NMOS and
    /// strengthens nothing — the sign convention is "added to |Vth|").
    pub fn with_delta_vth(&self, delta: Voltage) -> Self {
        let mut d = self.clone();
        d.delta_vth = delta.volts();
        d
    }

    /// Channel polarity.
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// Number of parallel fins.
    pub fn n_fins(&self) -> u32 {
        self.n_fins
    }

    /// Total gate capacitance, farads.
    pub fn gate_cap_f(&self) -> f64 {
        self.c_gate
    }

    /// Junction capacitance at each of drain and source, farads.
    pub fn junction_cap_f(&self) -> f64 {
        self.c_junction
    }

    /// The applied threshold shift, volts.
    pub fn delta_vth_v(&self) -> f64 {
        self.delta_vth
    }

    /// Evaluates drain current and derivatives at terminal voltages
    /// `(v_gate, v_drain, v_source)` in volts (ground-referenced).
    pub fn evaluate(&self, v_gate: f64, v_drain: f64, v_source: f64) -> SmallSignal {
        match self.polarity {
            Polarity::Nmos => self.evaluate_nmos(v_gate, v_drain, v_source),
            Polarity::Pmos => {
                // Mirror: a PMOS at (vg, vd, vs) behaves as an NMOS at the
                // negated voltages with the current direction flipped.
                let m = self.evaluate_nmos(-v_gate, -v_drain, -v_source);
                SmallSignal {
                    id: -m.id,
                    did_dvg: m.did_dvg,
                    did_dvd: m.did_dvd,
                    did_dvs: m.did_dvs,
                }
            }
        }
    }

    fn evaluate_nmos(&self, vg: f64, vd: f64, vs: f64) -> SmallSignal {
        if vd >= vs {
            self.evaluate_nmos_forward(vg, vd, vs)
        } else {
            // Source/drain symmetry: swap terminals, flip the current.
            let sw = self.evaluate_nmos_forward(vg, vs, vd);
            SmallSignal {
                id: -sw.id,
                did_dvg: -sw.did_dvg,
                // Swapped: derivative wrt our vd is theirs wrt vs.
                did_dvd: -sw.did_dvs,
                did_dvs: -sw.did_dvd,
            }
        }
    }

    /// Normalized source and drain arguments `(x_s, x_d)` with `vd >= vs`.
    fn normalized_terminals(&self, vg: f64, vd: f64, vs: f64) -> (f64, f64) {
        let vgs = vg - vs;
        let vds = vd - vs;
        let vth_eff = self.vth0 + self.delta_vth - self.eta * vds;
        let vp = (vgs - vth_eff) / self.n_slope;
        (vp / self.phi_t, (vp - vds) / self.phi_t)
    }

    /// Core evaluation with `vd >= vs` guaranteed.
    fn evaluate_nmos_forward(&self, vg: f64, vd: f64, vs: f64) -> SmallSignal {
        let (n, eta, phi_t) = (self.n_slope, self.eta, self.phi_t);
        let (xs, xd) = self.normalized_terminals(vg, vd, vs);
        let (f_s, fp_s) = ekv_f_and_prime(xs);
        let (f_d, fp_d) = ekv_f_and_prime(xd);

        let id = self.i_spec * (f_s - f_d);

        // Chain rule: dvp/dvg = 1/n, dvp/dvd = eta/n, dvp/dvs = -(1+eta)/n;
        // dvds/dvd = 1, dvds/dvs = -1, dvds/dvg = 0.
        let dvp = [1.0 / n, eta / n, -(1.0 + eta) / n];
        let dvds = [0.0, 1.0, -1.0];
        let mut deriv = [0.0f64; 3];
        for k in 0..3 {
            let dxs = dvp[k] / phi_t;
            let dxd = (dvp[k] - dvds[k]) / phi_t;
            deriv[k] = self.i_spec * (fp_s * dxs - fp_d * dxd);
        }
        SmallSignal {
            id,
            did_dvg: deriv[0],
            did_dvd: deriv[1],
            did_dvs: deriv[2],
        }
    }

    /// Drain current alone at terminal voltages `(v_gate, v_drain,
    /// v_source)`: bit-identical to `evaluate(..).id` (same mirroring,
    /// swap and floating-point operations) without the derivatives. The
    /// chord residual of `finrad-spice` needs only this.
    pub fn drain_current(&self, v_gate: f64, v_drain: f64, v_source: f64) -> f64 {
        match self.polarity {
            Polarity::Nmos => self.drain_current_nmos(v_gate, v_drain, v_source),
            Polarity::Pmos => -self.drain_current_nmos(-v_gate, -v_drain, -v_source),
        }
    }

    fn drain_current_nmos(&self, vg: f64, vd: f64, vs: f64) -> f64 {
        if vd >= vs {
            self.drain_current_nmos_forward(vg, vd, vs)
        } else {
            -self.drain_current_nmos_forward(vg, vs, vd)
        }
    }

    fn drain_current_nmos_forward(&self, vg: f64, vd: f64, vs: f64) -> f64 {
        let (xs, xd) = self.normalized_terminals(vg, vd, vs);
        self.i_spec * (ekv_f(xs) - ekv_f(xd))
    }

    /// ON-state drain current at `vdd` (gate and drain at `vdd`, source at
    /// ground for NMOS; mirrored for PMOS).
    pub fn on_current(&self, vdd: Voltage) -> f64 {
        let v = vdd.volts();
        match self.polarity {
            Polarity::Nmos => self.drain_current(v, v, 0.0),
            Polarity::Pmos => -self.drain_current(0.0, 0.0, v),
        }
    }

    /// OFF-state leakage magnitude at `vdd` (gate at the source potential).
    pub fn off_current(&self, vdd: Voltage) -> f64 {
        let v = vdd.volts();
        match self.polarity {
            Polarity::Nmos => self.drain_current(0.0, v, 0.0),
            Polarity::Pmos => -self.drain_current(v, 0.0, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::soi_finfet_14nm()
    }

    fn nfet() -> FinFet {
        FinFet::new(&tech(), Polarity::Nmos, 1)
    }

    fn pfet() -> FinFet {
        FinFet::new(&tech(), Polarity::Pmos, 1)
    }

    #[test]
    fn on_current_is_14nm_class() {
        // Per-fin drive current should be tens of µA.
        let ion = nfet().on_current(Voltage::from_volts(0.8)) * 1.0e6;
        assert!((10.0..300.0).contains(&ion), "I_on = {ion} uA");
    }

    #[test]
    fn on_off_ratio_large() {
        let d = nfet();
        let vdd = Voltage::from_volts(0.8);
        let ratio = d.on_current(vdd) / d.off_current(vdd);
        assert!(ratio > 1.0e4, "ON/OFF ratio {ratio}");
    }

    #[test]
    fn subthreshold_slope_near_ideal() {
        // Current should fall ~1 decade per n·φt·ln10 ≈ 65 mV of Vgs.
        let d = nfet();
        let i1 = d.evaluate(0.15, 0.8, 0.0).id;
        let i2 = d.evaluate(0.15 - 0.0655, 0.8, 0.0).id;
        let decade = (i1 / i2).log10();
        assert!((decade - 1.0).abs() < 0.15, "decades per 65.5mV: {decade}");
    }

    #[test]
    fn dibl_raises_leakage_with_vds() {
        let d = nfet();
        let low = d.evaluate(0.0, 0.4, 0.0).id;
        let high = d.evaluate(0.0, 0.8, 0.0).id;
        assert!(high > 1.5 * low, "DIBL: {high} vs {low}");
    }

    #[test]
    fn saturation_region_flat() {
        // Beyond vdsat, current grows only weakly with vd (DIBL only).
        let d = nfet();
        let a = d.evaluate(0.8, 0.5, 0.0).id;
        let b = d.evaluate(0.8, 0.8, 0.0).id;
        assert!(b > a); // monotone
        assert!(b < 1.3 * a, "should be nearly saturated: {a} vs {b}");
    }

    #[test]
    fn zero_vds_zero_current() {
        let d = nfet();
        let s = d.evaluate(0.8, 0.3, 0.3);
        assert!(s.id.abs() < 1e-12);
    }

    #[test]
    fn symmetry_swap_antisymmetric() {
        let d = nfet();
        let fwd = d.evaluate(0.6, 0.5, 0.1);
        let rev = d.evaluate(0.6, 0.1, 0.5);
        assert!((fwd.id + rev.id).abs() < 1e-15 + 1e-9 * fwd.id.abs());
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let p = pfet();
        // PMOS ON: gate low, source at vdd, drain low => current out of drain.
        let on = p.evaluate(0.0, 0.0, 0.8);
        assert!(
            on.id < 0.0,
            "PMOS pulls current out of its drain (id={})",
            on.id
        );
        assert!(p.on_current(Voltage::from_volts(0.8)) > 1e-6);
        // OFF: gate high.
        let off = p.evaluate(0.8, 0.0, 0.8);
        assert!(off.id.abs() < on.id.abs() / 1e4);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let d = nfet();
        let p = pfet();
        let h = 1e-7;
        for dev in [&d, &p] {
            for (vg, vd, vs) in [
                (0.8, 0.8, 0.0),
                (0.4, 0.2, 0.0),
                (0.1, 0.8, 0.0),
                (0.6, 0.1, 0.5),
                (0.0, 0.0, 0.8),
                (0.3, 0.7, 0.7),
            ] {
                let s = dev.evaluate(vg, vd, vs);
                let num_g =
                    (dev.evaluate(vg + h, vd, vs).id - dev.evaluate(vg - h, vd, vs).id) / (2.0 * h);
                let num_d =
                    (dev.evaluate(vg, vd + h, vs).id - dev.evaluate(vg, vd - h, vs).id) / (2.0 * h);
                let num_s =
                    (dev.evaluate(vg, vd, vs + h).id - dev.evaluate(vg, vd, vs - h).id) / (2.0 * h);
                let scale = s.did_dvg.abs() + s.did_dvd.abs() + s.did_dvs.abs() + 1e-12;
                assert!(
                    (s.did_dvg - num_g).abs() / scale < 1e-4,
                    "gm mismatch at ({vg},{vd},{vs}): {} vs {num_g}",
                    s.did_dvg
                );
                assert!(
                    (s.did_dvd - num_d).abs() / scale < 1e-4,
                    "gds mismatch at ({vg},{vd},{vs}): {} vs {num_d}",
                    s.did_dvd
                );
                assert!(
                    (s.did_dvs - num_s).abs() / scale < 1e-4,
                    "gms mismatch at ({vg},{vd},{vs}): {} vs {num_s}",
                    s.did_dvs
                );
            }
        }
    }

    #[test]
    fn common_mode_shift_invariance() {
        let d = nfet();
        let a = d.evaluate(0.5, 0.4, 0.1);
        let b = d.evaluate(0.8, 0.7, 0.4);
        assert!((a.id - b.id).abs() < 1e-12 + 1e-9 * a.id.abs());
    }

    #[test]
    fn delta_vth_weakens_device() {
        let d = nfet();
        let weak = d.with_delta_vth(Voltage::from_mv(50.0));
        let strong = d.with_delta_vth(Voltage::from_mv(-50.0));
        let vdd = Voltage::from_volts(0.8);
        assert!(weak.on_current(vdd) < d.on_current(vdd));
        assert!(strong.on_current(vdd) > d.on_current(vdd));
        assert_eq!(weak.delta_vth_v(), 0.05);
    }

    #[test]
    fn fins_scale_current_and_caps() {
        let t = tech();
        let d1 = FinFet::new(&t, Polarity::Nmos, 1);
        let d2 = FinFet::new(&t, Polarity::Nmos, 2);
        let vdd = Voltage::from_volts(0.8);
        let r = d2.on_current(vdd) / d1.on_current(vdd);
        assert!((r - 2.0).abs() < 1e-9);
        assert!((d2.gate_cap_f() / d1.gate_cap_f() - 2.0).abs() < 1e-9);
        assert!((d2.junction_cap_f() / d1.junction_cap_f() - 2.0).abs() < 1e-9);
        assert_eq!(d2.n_fins(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one fin")]
    fn rejects_zero_fins() {
        let _ = FinFet::new(&tech(), Polarity::Nmos, 0);
    }

    #[test]
    fn ekv_f_limits() {
        // Subthreshold: F(x) ~ e^x for very negative x.
        let x = -20.0;
        assert!((ekv_f(x) / x.exp() - 1.0).abs() < 0.01);
        // Strong inversion: F(x) ~ (x/2)^2 for large x.
        let y = 60.0;
        assert!((ekv_f(y) / (y / 2.0 + 1.0e-9).powi(2) - 1.0).abs() < 0.05);
        // No overflow at extreme drive.
        assert!(ekv_f(4000.0).is_finite());
        let (f, fp) = ekv_f_and_prime(4000.0);
        assert!(f.is_finite() && fp.is_finite());
        assert!(ekv_f(-4000.0) >= 0.0);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use finrad_numerics::rng::{Rng, Xoshiro256pp};

    /// Seeded `(device, vg, vd, vs)` grid over both polarities, with and
    /// without a threshold shift, spanning ±3.5 V so that `|x/2|` crosses
    /// the ±40 softplus/sigmoid cutoffs at both terminals. Asserts that it
    /// does, and that both drain orientations occur.
    fn bitwise_grid() -> Vec<(FinFet, f64, f64, f64)> {
        let tech = Technology::soi_finfet_14nm();
        let mut rng = Xoshiro256pp::seed_from_u64(0xB175);
        let mut devices = Vec::new();
        for polarity in [Polarity::Nmos, Polarity::Pmos] {
            let d = FinFet::new(&tech, polarity, 2);
            devices.push(d.with_delta_vth(Voltage::from_mv(37.5)));
            devices.push(d.with_delta_vth(Voltage::from_mv(-22.0)));
            devices.push(d);
        }
        let mut grid = Vec::new();
        for d in &devices {
            for _ in 0..400 {
                let vg = rng.gen_range(-3.5..3.5);
                let vd = rng.gen_range(-3.5..3.5);
                let vs = rng.gen_range(-3.5..3.5);
                grid.push((d.clone(), vg, vd, vs));
            }
        }
        // Replay the mirror and swap in the NMOS frame to see which
        // branches and cutoffs the grid reaches.
        let (mut above, mut below, mut swapped) = (0, 0, 0);
        for (d, vg, vd, vs) in &grid {
            let (vg, vd, vs) = match d.polarity {
                Polarity::Nmos => (*vg, *vd, *vs),
                Polarity::Pmos => (-vg, -vd, -vs),
            };
            swapped += usize::from(vd < vs);
            let (vd, vs) = if vd >= vs { (vd, vs) } else { (vs, vd) };
            let (xs, xd) = d.normalized_terminals(vg, vd, vs);
            for x in [xs, xd] {
                above += usize::from(0.5 * x > 40.0);
                below += usize::from(0.5 * x < -40.0);
            }
        }
        assert!(
            above > 0 && below > 0,
            "cutoffs unreached: {above} above, {below} below"
        );
        assert!(swapped > 0, "the source/drain swap branch is unreached");
        grid
    }

    /// The device evaluation as it stood before the softplus was shared:
    /// `F` and `F'` each compute their own `softplus(x/2)`.
    mod retired {
        use super::super::{sigmoid, softplus, FinFet, Polarity, SmallSignal};

        fn ekv_f(x: f64) -> f64 {
            let s = softplus(0.5 * x);
            s * s
        }

        fn ekv_f_prime(x: f64) -> f64 {
            softplus(0.5 * x) * sigmoid(0.5 * x)
        }

        pub(super) fn evaluate(
            d: &FinFet,
            v_gate: f64,
            v_drain: f64,
            v_source: f64,
        ) -> SmallSignal {
            match d.polarity {
                Polarity::Nmos => evaluate_nmos(d, v_gate, v_drain, v_source),
                Polarity::Pmos => {
                    let m = evaluate_nmos(d, -v_gate, -v_drain, -v_source);
                    SmallSignal {
                        id: -m.id,
                        did_dvg: m.did_dvg,
                        did_dvd: m.did_dvd,
                        did_dvs: m.did_dvs,
                    }
                }
            }
        }

        fn evaluate_nmos(d: &FinFet, vg: f64, vd: f64, vs: f64) -> SmallSignal {
            if vd >= vs {
                evaluate_nmos_forward(d, vg, vd, vs)
            } else {
                let sw = evaluate_nmos_forward(d, vg, vs, vd);
                SmallSignal {
                    id: -sw.id,
                    did_dvg: -sw.did_dvg,
                    did_dvd: -sw.did_dvs,
                    did_dvs: -sw.did_dvd,
                }
            }
        }

        fn evaluate_nmos_forward(d: &FinFet, vg: f64, vd: f64, vs: f64) -> SmallSignal {
            let (n, eta, phi_t) = (d.n_slope, d.eta, d.phi_t);
            let vgs = vg - vs;
            let vds = vd - vs;
            let vth_eff = d.vth0 + d.delta_vth - eta * vds;
            let vp = (vgs - vth_eff) / n;
            let xs = vp / phi_t;
            let xd = (vp - vds) / phi_t;

            let f_s = ekv_f(xs);
            let f_d = ekv_f(xd);
            let fp_s = ekv_f_prime(xs);
            let fp_d = ekv_f_prime(xd);

            let id = d.i_spec * (f_s - f_d);

            let dvp = [1.0 / n, eta / n, -(1.0 + eta) / n];
            let dvds = [0.0, 1.0, -1.0];
            let mut deriv = [0.0f64; 3];
            for k in 0..3 {
                let dxs = dvp[k] / phi_t;
                let dxd = (dvp[k] - dvds[k]) / phi_t;
                deriv[k] = d.i_spec * (fp_s * dxs - fp_d * dxd);
            }
            SmallSignal {
                id,
                did_dvg: deriv[0],
                did_dvd: deriv[1],
                did_dvs: deriv[2],
            }
        }
    }

    #[test]
    fn drain_current_matches_evaluate_bitwise() {
        for (d, vg, vd, vs) in bitwise_grid() {
            let id = d.drain_current(vg, vd, vs);
            let ss = d.evaluate(vg, vd, vs);
            assert_eq!(
                id.to_bits(),
                ss.id.to_bits(),
                "{:?} at ({vg}, {vd}, {vs}): {id} vs {}",
                d.polarity,
                ss.id
            );
        }
    }

    #[test]
    fn fused_evaluate_matches_retired_formula_bitwise() {
        for (d, vg, vd, vs) in bitwise_grid() {
            let new = d.evaluate(vg, vd, vs);
            let old = retired::evaluate(&d, vg, vd, vs);
            let bits = |s: SmallSignal| [s.id, s.did_dvg, s.did_dvd, s.did_dvs].map(f64::to_bits);
            assert_eq!(
                bits(new),
                bits(old),
                "{:?} at ({vg}, {vd}, {vs})",
                d.polarity
            );
        }
    }

    #[test]
    fn current_finite_and_sign_consistent() {
        let d = FinFet::new(&Technology::soi_finfet_14nm(), Polarity::Nmos, 1);
        let mut rng = Xoshiro256pp::seed_from_u64(0xF1);
        for _ in 0..500 {
            let vg = rng.gen_range(-1.5..1.5);
            let vd = rng.gen_range(-1.5..1.5);
            let vs = rng.gen_range(-1.5..1.5);
            let s = d.evaluate(vg, vd, vs);
            assert!(s.id.is_finite());
            if vd > vs {
                assert!(s.id >= -1e-18);
            } else if vd < vs {
                assert!(s.id <= 1e-18);
            }
        }
    }

    #[test]
    fn gm_nonnegative() {
        let d = FinFet::new(&Technology::soi_finfet_14nm(), Polarity::Nmos, 1);
        let mut rng = Xoshiro256pp::seed_from_u64(0x9E);
        for _ in 0..500 {
            let vg = rng.gen_range(-1.0..1.0);
            let vd = rng.gen_range(0.0..1.0);
            let s = d.evaluate(vg, vd, 0.0);
            assert!(s.did_dvg >= -1e-18);
        }
    }

    #[test]
    fn monotone_in_vgs() {
        let d = FinFet::new(&Technology::soi_finfet_14nm(), Polarity::Nmos, 1);
        let mut rng = Xoshiro256pp::seed_from_u64(0x360);
        for _ in 0..500 {
            let vd = rng.gen_range(0.1..1.0);
            let v1 = rng.gen_range(-0.5..1.0);
            let v2 = rng.gen_range(-0.5..1.0);
            let (lo, hi) = if v1 < v2 { (v1, v2) } else { (v2, v1) };
            let i_lo = d.evaluate(lo, vd, 0.0).id;
            let i_hi = d.evaluate(hi, vd, 0.0).id;
            assert!(i_hi >= i_lo - 1e-18);
        }
    }
}
