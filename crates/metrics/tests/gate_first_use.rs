//! `telemetry_enabled()` must resolve the `SSSJ_TELEMETRY` gate itself:
//! a caller that asks before the first `Registry::global()` gets the
//! gated answer. One test, alone in its binary, because the gate is
//! process-global and resolved once.

#[test]
fn telemetry_enabled_resolves_the_gate_before_any_registry_use() {
    std::env::set_var("SSSJ_TELEMETRY", "off");
    assert!(!sssj_metrics::telemetry_enabled());
}
