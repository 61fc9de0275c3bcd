//! Fixture: metrics-key-registry — declared keys and prefix-composed keys
//! pass; a typo'd key fails with a span on the string literal.

pub fn good() {
    finrad_observe::counter_add("core.strike.iterations", 1);
}

pub fn prefixed() {
    finrad_observe::record("spice.recovery.rung.gmin-stepping.ok", 1.0);
}

pub fn typo() {
    finrad_observe::counter_add("core.strike.iterationz", 1);
}

pub fn round_two_hot_path_keys() {
    finrad_observe::counter_add("spice.newton.jacobian_reuses", 1);
    finrad_observe::counter_add("spice.newton.refactorizations", 1);
    finrad_observe::counter_add("spice.transient.lte_step_growths", 1);
    finrad_observe::counter_add("finfet.model.batched_evals", 1);
}

pub fn transport_lut_keys() {
    finrad_observe::counter_add("transport.lut.builds", 1);
    finrad_observe::record("transport.lut.build_seconds", 1.0);
}
