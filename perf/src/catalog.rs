//! What the benchmark runs and what it reports: the five `repro`
//! workloads with their golden output digests, the input traces each
//! one prepares, and the end-to-end and per-layer metric definitions
//! that `BENCHMARK.json` mirrors.

use workloads::Workload;

/// Which family of input traces a workload (or a ladder layer) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Inputs {
    /// fig1 + fig2: the full SPEC95-analog suite.
    Accuracy,
    /// fig3–fig6, sec54, sec56: the §5 suite plus the sec56 jobs, and
    /// the sec56 partner traces generated at `seed + 1`.
    Timing,
    /// `--mrc`: the full suite plus the kernel-taxonomy patterns.
    Mrc,
}

impl Inputs {
    /// The `(workload, seed)` pairs `repro` generates a trace for.
    pub(crate) fn traces(self, seed: u64) -> Vec<(Workload, u64)> {
        match self {
            Inputs::Accuracy => workloads::full_suite()
                .into_iter()
                .map(|w| (w, seed))
                .collect(),
            Inputs::Timing => {
                let jobs = experiments::sec56::jobs();
                let mut traces: Vec<(Workload, u64)> =
                    workloads::suite().into_iter().map(|w| (w, seed)).collect();
                for job in &jobs {
                    if !traces.iter().any(|(w, _)| w == job) {
                        traces.push((*job, seed));
                    }
                }
                traces.extend(jobs.into_iter().map(|w| (w, seed + 1)));
                traces
            }
            Inputs::Mrc => experiments::mrc::workload_suite()
                .into_iter()
                .map(|w| (w, seed))
                .collect(),
        }
    }
}

/// A file `repro` writes besides stdout, named by the flag that sets
/// its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Artifact {
    /// `--probe-out`: `obs-repro/1` JSONL.
    Probe,
    /// `--mrc-out`: `mrc-repro/1` JSONL.
    Mrc,
}

impl Artifact {
    pub(crate) const fn flag(self) -> &'static str {
        match self {
            Artifact::Probe => "--probe-out",
            Artifact::Mrc => "--mrc-out",
        }
    }
}

/// One benchmark workload: a `repro` invocation plus the digests its
/// outputs must reproduce.
#[derive(Debug)]
pub(crate) struct BenchWorkload {
    pub name: &'static str,
    /// `--events` per simulated workload.
    pub events: usize,
    /// Mode flags and targets, after the flags `perf` always passes
    /// (`--threads`, `--events`, `--bench-json`, the artifact path).
    pub args: &'static [&'static str],
    pub inputs: Inputs,
    /// 64-bit FNV-1a digest of stdout.
    pub stdout_digest: u64,
    /// The artifact the workload writes, with the 64-bit FNV-1a digest
    /// of its file.
    pub artifact: Option<(Artifact, u64)>,
}

/// The workloads, in the order a full invocation runs them. The
/// digests were recorded from the `repro` these workloads were defined
/// against; stdout and both artifacts are byte-identical at any thread
/// count, so one digest serves every `--threads`.
pub(crate) const WORKLOADS: [BenchWorkload; 5] = [
    BenchWorkload {
        name: "accuracy",
        events: 600_000,
        args: &["fig1", "fig2"],
        inputs: Inputs::Accuracy,
        stdout_digest: 0xbbac_ffe0_94fc_7249,
        artifact: None,
    },
    BenchWorkload {
        name: "accuracy_stream",
        events: 600_000,
        args: &["--stream", "fig1", "fig2"],
        inputs: Inputs::Accuracy,
        stdout_digest: 0xbbac_ffe0_94fc_7249,
        artifact: None,
    },
    BenchWorkload {
        name: "timing",
        events: 300_000,
        args: &["fig3", "fig4", "fig5", "sec54", "sec56", "fig6"],
        inputs: Inputs::Timing,
        stdout_digest: 0x2a67_292b_5e6d_1399,
        artifact: None,
    },
    BenchWorkload {
        name: "observed",
        events: 300_000,
        args: &["--probe", "epoch:500", "fig1", "fig2"],
        inputs: Inputs::Accuracy,
        stdout_digest: 0xd3d9_8aea_1dc6_d670,
        artifact: Some((Artifact::Probe, 0xff68_05da_fbc7_ab8d)),
    },
    BenchWorkload {
        name: "mrc",
        events: 1_000_000,
        args: &["--stream", "--mrc"],
        inputs: Inputs::Mrc,
        stdout_digest: 0xc87c_91c5_f2bc_a239,
        artifact: Some((Artifact::Mrc, 0x110b_eb71_a120_b297)),
    },
];

/// The workload named `name`.
pub(crate) fn workload(name: &str) -> Option<&'static BenchWorkload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Whether a larger or a smaller value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Better {
    Higher,
    Lower,
}

impl Better {
    pub(crate) const fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug)]
pub(crate) struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, reported per workload from the untraced runs.
pub(crate) const END_TO_END: [MetricDef; 3] = [
    e2e("events_per_s", "events/s", Better::Higher, 0.24),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.05),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Per-layer metrics, reported by the traced run. All but the last
/// three come from the ladder; `probe.out_mib` and `arena.*` come from
/// the traced run's `repro` child.
pub(crate) const PER_LAYER: [MetricDef; 29] = [
    layer("workloads.gen_ns_per_event", "ns/event", Better::Lower),
    layer("trace.decompose_ns_per_event", "ns/event", Better::Lower),
    layer("cache.ns_per_event", "ns/event", Better::Lower),
    layer("cache.miss_ratio", "ratio", Better::Lower),
    layer("mct.self_ns_per_event", "ns/event", Better::Lower),
    layer("mct.conflict_frac", "ratio", Better::Lower),
    layer("oracle.ns_per_event", "ns/event", Better::Lower),
    layer("oracle.conflict_frac", "ratio", Better::Lower),
    layer("accuracy.ns_per_event", "ns/event", Better::Lower),
    layer("accuracy.glue_ns_per_event", "ns/event", Better::Lower),
    layer("accuracy.per_event_ns_per_event", "ns/event", Better::Lower),
    layer("probe.armed_ns_per_event", "ns/event", Better::Lower),
    layer("probe.overhead_ratio", "ratio", Better::Lower),
    layer("cpu.ns_per_event", "ns/event", Better::Lower),
    layer("cpu.ipc", "instr/cycle", Better::Higher),
    layer("baseline.self_ns_per_event", "ns/event", Better::Lower),
    layer("victim.self_ns_per_event", "ns/event", Better::Lower),
    layer("prefetch.self_ns_per_event", "ns/event", Better::Lower),
    layer("exclusion.self_ns_per_event", "ns/event", Better::Lower),
    layer("pseudo.self_ns_per_event", "ns/event", Better::Lower),
    layer("amb.self_ns_per_event", "ns/event", Better::Lower),
    layer("mrc.exact_ns_per_event", "ns/event", Better::Lower),
    layer("mrc.exact_distinct_lines", "lines", Better::Lower),
    layer("mrc.miss_ratio_256", "ratio", Better::Lower),
    layer("mrc.sampled_ns_per_event", "ns/event", Better::Lower),
    layer("mrc.sampled_admit_ratio", "ratio", Better::Lower),
    layer("probe.out_mib", "MiB", Better::Lower),
    layer("arena.resident_events", "events", Better::Lower),
    layer("arena.reuse_ratio", "ratio", Better::Higher),
];

/// The per-layer metrics the ladder itself produces (the rest come
/// from a `repro` child).
#[cfg(test)]
pub(crate) fn ladder_metrics() -> &'static [MetricDef] {
    &PER_LAYER[..PER_LAYER.len() - 3]
}

/// The definition of metric `name`, end-to-end or per-layer.
pub(crate) fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::jsonl::{self, Value};

    /// `BENCHMARK.json` at the repository root, one level above this
    /// package.
    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        jsonl::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        doc.get(key).and_then(Value::as_array).unwrap_or_default()
    }

    fn valid_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn assert_metrics_match(listed: &[Value], defs: &[MetricDef]) {
        assert_eq!(listed.len(), defs.len());
        for (entry, def) in listed.iter().zip(defs) {
            assert_eq!(entry.str_field("name"), Some(def.name));
            assert_eq!(entry.str_field("unit"), Some(def.unit), "{}", def.name);
            assert_eq!(
                entry.str_field("better"),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn benchmark_json_lists_what_perf_runs_and_emits() {
        let doc = benchmark_json();
        let workloads: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .filter_map(|w| w.str_field("name"))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        assert_metrics_match(entries(&doc, "end_to_end"), &END_TO_END);
        assert_metrics_match(entries(&doc, "per_layer"), &PER_LAYER);
    }

    #[test]
    fn names_and_counts_stay_within_the_benchmark_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
            assert_eq!(names.iter().filter(|n| *n == name).count(), 1, "{name}");
        }
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = metric("setup_s").and_then(|m| m.bound);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup));
    }

    #[test]
    fn timing_inputs_cover_the_sec56_partners() {
        let traces = Inputs::Timing.traces(5);
        let jobs = experiments::sec56::jobs();
        for job in &jobs {
            assert!(traces.contains(&(*job, 5)), "{}", job.name());
            assert!(traces.contains(&(*job, 6)), "{}", job.name());
        }
        for w in workloads::suite() {
            assert!(traces.contains(&(w, 5)), "{}", w.name());
        }
    }
}
