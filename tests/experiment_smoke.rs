//! End-to-end smoke tests: every experiment driver runs at a reduced
//! scale and must show the paper's qualitative orderings.

const EVENTS: usize = 25_000;

#[test]
fn fig1_accuracy_is_high_on_dm_configs() {
    let fig = experiments::fig1::run(EVENTS);
    // The direct-mapped configs are the paper's headline: both classes
    // well above 75% accuracy.
    for idx in [0usize, 2] {
        let avg = &fig.configs[idx].average;
        assert!(
            avg.conflict.value() > 0.75,
            "{} conflict {}",
            fig.configs[idx].name,
            avg.conflict.value()
        );
        assert!(
            avg.capacity.value() > 0.75,
            "{} capacity {}",
            fig.configs[idx].name,
            avg.capacity.value()
        );
    }
}

#[test]
fn fig2_capacity_accuracy_is_monotone_in_tag_bits() {
    let fig = experiments::fig2::run(EVENTS);
    let caps: Vec<f64> = fig
        .points
        .iter()
        .map(|p| p.report.capacity.value())
        .collect();
    for pair in caps.windows(2) {
        assert!(
            pair[1] >= pair[0] - 0.01,
            "capacity accuracy dipped: {caps:?}"
        );
    }
    // And the 1-bit point keeps conflict accuracy near the top.
    let conf1 = fig.points[0].report.conflict.value();
    let conf_full = fig.points.last().unwrap().report.conflict.value();
    assert!(conf1 >= conf_full - 0.02);
}

#[test]
fn fig3_filters_cut_traffic_and_win_on_average() {
    let fig = experiments::fig3::run(EVENTS);
    let trad = &fig.policies[0];
    let both = &fig.policies[3];
    assert!(both.stats.swap_rate() < trad.stats.swap_rate() * 0.3);
    assert!(both.stats.fill_rate() < trad.stats.fill_rate() * 0.6);
    assert!(
        both.mean_speedup >= trad.mean_speedup,
        "filter both {} vs traditional {}",
        both.mean_speedup,
        trad.mean_speedup
    );
}

#[test]
fn fig4_or_filter_has_best_accuracy() {
    let fig = experiments::fig4::run(EVENTS);
    let unfiltered = fig.strategies[0].stats.accuracy();
    let or_acc = fig.strategies[4].stats.accuracy();
    assert!(
        or_acc > unfiltered,
        "or-conflict {or_acc} vs unfiltered {unfiltered}"
    );
    // Coverage must not collapse.
    assert!(fig.strategies[4].stats.coverage() > fig.strategies[0].stats.coverage() - 0.1);
}

#[test]
fn fig5_capacity_filter_leads() {
    let fig = experiments::fig5::run(EVENTS);
    let get = |p| {
        fig.policies
            .iter()
            .find(|r| r.policy == p)
            .map(|r| (r.stats.total_hit_rate(), r.mean_speedup))
            .expect("policy present")
    };
    let (cap_hr, cap_spd) = get(exclusion::ExclusionPolicy::Capacity);
    let (mat_hr, mat_spd) = get(exclusion::ExclusionPolicy::Mat);
    let (conf_hr, _) = get(exclusion::ExclusionPolicy::Conflict);
    assert!(
        cap_hr >= mat_hr - 0.01,
        "capacity HR {cap_hr} vs MAT {mat_hr}"
    );
    assert!(
        cap_spd >= mat_spd - 0.01,
        "capacity spd {cap_spd} vs MAT {mat_spd}"
    );
    assert!(
        cap_hr > conf_hr,
        "capacity HR {cap_hr} vs conflict {conf_hr}"
    );
}

#[test]
fn sec54_pseudo_tracks_two_way() {
    let r = experiments::sec54::run(EVENTS);
    let (base, modified, two_way) = r.avg_miss;
    // Pseudo-associativity removes most DM conflicts: both variants
    // sit close to the true 2-way miss rate (paper: within ~1%).
    assert!(
        (base - two_way).abs() < 0.03,
        "base {base} vs 2-way {two_way}"
    );
    assert!(
        (modified - two_way).abs() < 0.03,
        "modified {modified} vs 2-way {two_way}"
    );
    // And the modified policy does not hurt.
    assert!(modified < base + 0.005);
}

#[test]
fn fig6_combined_policies_beat_singles() {
    let fig = experiments::fig6::run(EVENTS);
    let spd = |p, e| fig.result(p, e).unwrap().mean_speedup;
    use amb::AmbPolicy::*;
    let best_single = spd(Vict, 8).max(spd(Pref, 8)).max(spd(Excl, 8));
    let best_combo = spd(VictPref, 8)
        .max(spd(PrefExcl, 8))
        .max(spd(VicPreExc, 8));
    assert!(
        best_combo > best_single,
        "combined {best_combo} must beat best single {best_single}"
    );
    // Figure 7 components: the combined policy covers several classes.
    let combo = fig.result(VicPreExc, 8).unwrap();
    assert!(combo.stats.prefetch_hits > 0);
    assert!(combo.stats.exclusion_hits > 0);
    assert!(combo.stats.total_hit_rate() > fig.baseline_hit_rate);
}

#[test]
fn displays_render_without_panicking() {
    // Rendering exercises all the formatting paths (the CLI's output).
    let _ = experiments::fig1::run(2_000).to_string();
    let _ = experiments::fig2::run(2_000).to_string();
    let _ = experiments::fig3::run(2_000).to_string();
    let _ = experiments::fig4::run(2_000).to_string();
    let _ = experiments::fig5::run(2_000).to_string();
    let _ = experiments::sec54::run(2_000).to_string();
    let _ = experiments::fig6::run(2_000).to_string();
}
