// Fixture: span names that violate the `span-name` rule — an
// unregistered prefix and a computed (non-literal) name. Never
// compiled; linted under a synthetic library path.

fn replay(names: &[&'static str]) {
    let _bad = sim_core::span::enter("mystery_phase");
    let _dynamic = sim_core::span::enter(names[0]);
    sim_core::span::scope(
        None,
        sim_core::span::ScopeKind::Cell,
        "warmup",
        "fig1",
        String::new,
        || {},
    );
}
