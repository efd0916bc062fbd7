//! The engine's behaviour under each study's configuration, and pins
//! on what tells the families apart.

use mct::ConflictFilter;
use sim_core::probe::FilterUnit;

use crate::config::{Fill, Hit, PromotePort};
use crate::{AmbPolicy, AssistConfig, ExclusionPolicy, VictimPolicy};

mod amb;
mod exclusion;
mod next_line;
mod victim;

/// `amb:pref` and `prefetch:out` run the same prefetcher. A promoted
/// prefetch holds one read port in the next-line prefetcher and a
/// read and a write port in the AMB, which costs `apsi` 27 % more
/// cycles (EXPERIMENTS.md, "One assist-buffer engine").
#[test]
fn amb_pref_differs_from_prefetch_out_in_its_promotion_port_and_probes() {
    let amb = AssistConfig::new(AmbPolicy::Pref);
    let next_line = AssistConfig::filtered(ConflictFilter::OutConflict);
    assert_eq!(amb.promote_port, PromotePort::Swap);
    assert_eq!(next_line.promote_port, PromotePort::LineRead);
    assert_eq!(amb.probes.prefetch, Some(FilterUnit::AmbPrefetch));
    assert_eq!(next_line.probes.prefetch, Some(FilterUnit::Prefetch));
    let renamed = AssistConfig {
        policy: next_line.policy,
        promote_port: next_line.promote_port,
        probes: next_line.probes,
        ..amb
    };
    assert_eq!(renamed, next_line);
}

/// `amb:excl` and an 8-entry `exclusion:capacity` bypass the same
/// misses. The AMB classifies a miss before probing the buffer, so
/// its buffer hits emit a `Classify` probe event; the bypass buffer's
/// do not.
#[test]
fn amb_excl_differs_from_exclusion_capacity_in_its_classify_order_and_probes() {
    let amb = AssistConfig::new(AmbPolicy::Excl);
    let bypass = AssistConfig::new(ExclusionPolicy::Capacity).with_entries(8);
    assert!(amb.classify_first && !bypass.classify_first);
    assert_eq!(amb.probes.exclude, Some(FilterUnit::AmbExclude));
    assert_eq!(bypass.probes.exclude, Some(FilterUnit::Exclude));
    let renamed = AssistConfig {
        policy: bypass.policy,
        classify_first: bypass.classify_first,
        probes: bypass.probes,
        ..amb
    };
    assert_eq!(renamed, bypass);
}

/// `victim:both` filters with or-conflict (the evicted or buffered
/// line's bit counts), the AMB with out-conflict (the miss's class
/// alone). A victim-cache hit that does not stay swaps, returning the
/// displaced L1 line to the buffer; an AMB promotion keeps that line
/// only when its fill rule does.
#[test]
fn victim_both_differs_from_amb_vict_in_its_filters_and_swaps() {
    let victim = AssistConfig::new(VictimPolicy::FilterBoth);
    let amb = AssistConfig::new(AmbPolicy::Vict);
    let (or, out) = (ConflictFilter::OrConflict, ConflictFilter::OutConflict);
    assert_eq!(
        (victim.victim_hit, amb.victim_hit),
        (Hit::StayIf(or), Hit::StayIf(out))
    );
    assert_eq!((victim.fill, amb.fill), (Fill::If(or), Fill::If(out)));
    assert!(victim.swap_returns_displaced && !amb.swap_returns_displaced);
    let renamed = AssistConfig {
        policy: victim.policy,
        victim_hit: victim.victim_hit,
        fill: victim.fill,
        swap_returns_displaced: true,
        probes: victim.probes,
        ..amb
    };
    assert_eq!(renamed, victim);
}
