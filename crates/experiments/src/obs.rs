//! Summarization of `obs-repro/1` probe files — the logic behind the
//! `obs` binary, kept in the library so it is testable.

use std::collections::BTreeMap;

use crate::jsonl::{self, Value};
use crate::Table;

/// Options for [`summarize`].
#[derive(Debug, Clone)]
pub struct SummarizeOptions {
    /// When set, also render the full epoch table for every cell whose
    /// `target/cell` name contains this substring.
    pub cell_filter: Option<String>,
    /// How many rows the hottest-sets section shows.
    pub top: usize,
}

impl Default for SummarizeOptions {
    fn default() -> Self {
        SummarizeOptions {
            cell_filter: None,
            top: 10,
        }
    }
}

#[derive(Debug, Default, Clone)]
struct CellSummary {
    epochs: u64,
    counters: BTreeMap<String, u64>,
    hot_sets: Vec<(u64, u64)>,
    epoch_rows: Vec<EpochRow>,
    raw_events: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct EpochRow {
    epoch: u64,
    accesses: u64,
    hits: u64,
    conflict: u64,
    capacity: u64,
    alias: u64,
    oracle_agree: u64,
    oracle_total: u64,
}

fn pct(num: u64, den: u64) -> String {
    if den == 0 {
        "n/a".to_owned()
    } else {
        format!("{:.1}", num as f64 / den as f64 * 100.0)
    }
}

fn counters_of(v: &Value) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    if let Some(Value::Object(map)) = v.get("counters") {
        for (k, val) in map {
            if let Some(n) = val.as_u64() {
                out.insert(k.clone(), n);
            }
        }
    }
    out
}

fn hot_sets_of(v: &Value) -> Vec<(u64, u64)> {
    v.get("hot_sets")
        .and_then(Value::as_array)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|p| {
                    let p = p.as_array()?;
                    Some((p.first()?.as_u64()?, p.get(1)?.as_u64()?))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Renders a human-readable summary of an `obs-repro/1` JSONL
/// document.
///
/// Tolerance matches the fault-repro checkpoint loader: a torn final
/// line (a crash mid-write) and record lines from a foreign schema
/// are skipped with a warning in the report rather than failing the
/// whole summary. Damage anywhere *else* — an unparseable interior
/// line, a wrong or missing header — is still an error.
///
/// # Errors
///
/// Returns a message when the input is empty, has a non-`obs-repro/1`
/// header, or contains an unparseable non-final line.
pub fn summarize(text: &str, opts: &SummarizeOptions) -> Result<String, String> {
    let mut warnings: Vec<String> = Vec::new();
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut values = Vec::with_capacity(lines.len());
    for (pos, &(lineno, line)) in lines.iter().enumerate() {
        match jsonl::parse(line) {
            Ok(v) => values.push(v),
            Err(e) if pos + 1 == lines.len() => {
                warnings.push(format!("skipped torn final line {}: {e}", lineno + 1));
            }
            Err(e) => return Err(format!("line {}: {e}", lineno + 1)),
        }
    }
    let header = values.first().ok_or("empty probe file")?;
    let schema = header.str_field("schema").unwrap_or("<missing>");
    if schema != sim_core::registry::SCHEMA_OBS {
        return Err(format!(
            "expected schema {}, found {schema}",
            sim_core::registry::SCHEMA_OBS
        ));
    }
    let mode = header.str_field("mode").unwrap_or("?").to_owned();

    // Fold the record lines per (target, cell); BTreeMap keeps report
    // order deterministic and grouped by target.
    let mut cells: BTreeMap<(String, String), CellSummary> = BTreeMap::new();
    let mut total_cells = 0u64;
    let mut foreign = 0u64;
    for v in &values[1..] {
        let key = || {
            (
                v.str_field("target").unwrap_or("?").to_owned(),
                v.str_field("cell").unwrap_or("?").to_owned(),
            )
        };
        match v.str_field("type") {
            Some("cell") => {
                let entry = cells.entry(key()).or_default();
                entry.epochs = v.u64_field("epochs").unwrap_or(0);
                entry.counters = counters_of(v);
                entry.hot_sets = hot_sets_of(v);
            }
            Some("epoch") => {
                cells.entry(key()).or_default().epoch_rows.push(EpochRow {
                    epoch: v.u64_field("epoch").unwrap_or(0),
                    accesses: v.u64_field("accesses").unwrap_or(0),
                    hits: v.u64_field("hits").unwrap_or(0),
                    conflict: v.u64_field("conflict").unwrap_or(0),
                    capacity: v.u64_field("capacity").unwrap_or(0),
                    alias: v.u64_field("alias").unwrap_or(0),
                    oracle_agree: v.u64_field("oracle_agree").unwrap_or(0),
                    oracle_total: v.u64_field("oracle_total").unwrap_or(0),
                });
            }
            Some("event") => cells.entry(key()).or_default().raw_events += 1,
            Some("totals") => total_cells = v.u64_field("cells").unwrap_or(0),
            // A record from another schema (or an unknown type): skip
            // it, like the checkpoint loader discards foreign lines.
            _ => foreign += 1,
        }
    }
    if foreign > 0 {
        warnings.push(format!(
            "skipped {foreign} foreign/unrecognized record line(s)"
        ));
    }

    let mut out = String::new();
    out.push_str(&format!(
        "{}  mode={mode}{}  events/workload={}  cells={}\n",
        sim_core::registry::SCHEMA_OBS,
        header
            .u64_field("epoch_len")
            .map(|n| format!(" epoch_len={n}"))
            .unwrap_or_default(),
        header.u64_field("events_per_workload").unwrap_or(0),
        if total_cells > 0 {
            total_cells
        } else {
            cells.len() as u64
        },
    ));
    if let Some(targets) = header.get("targets").and_then(Value::as_array) {
        let names: Vec<&str> = targets.iter().filter_map(Value::as_str).collect();
        out.push_str(&format!("targets: {}\n", names.join(" ")));
    }
    for w in &warnings {
        out.push_str(&format!("warning: {w}\n"));
    }
    out.push('\n');

    if mode == "raw" {
        let mut table = Table::new(vec!["target".into(), "cell".into(), "events".into()]);
        for ((target, cell), s) in &cells {
            table.row(vec![target.clone(), cell.clone(), s.raw_events.to_string()]);
        }
        out.push_str(&table.to_string());
        return Ok(out);
    }

    let mut table = Table::new(
        [
            "target",
            "cell",
            "epochs",
            "accesses",
            "miss%",
            "conf%",
            "alias",
            "acc%",
            "acc drift",
        ]
        .map(String::from)
        .to_vec(),
    );
    for ((target, cell), s) in &cells {
        let access = s.counters.get("access").copied().unwrap_or(0);
        let hits = s.counters.get("access.hit").copied().unwrap_or(0);
        let conflict = s.counters.get("classify.conflict").copied().unwrap_or(0);
        let capacity = s.counters.get("classify.capacity").copied().unwrap_or(0);
        let alias = s.counters.get("mct.alias").copied().unwrap_or(0);
        let agree = s.counters.get("oracle.agree").copied().unwrap_or(0);
        let oracle = s.counters.get("oracle.total").copied().unwrap_or(0);
        // Classifier-accuracy drift over the run: first vs last epoch
        // with oracle coverage.
        let with_oracle: Vec<&EpochRow> =
            s.epoch_rows.iter().filter(|e| e.oracle_total > 0).collect();
        let drift = match (with_oracle.first(), with_oracle.last()) {
            (Some(first), Some(last)) if with_oracle.len() > 1 => format!(
                "{}->{}",
                pct(first.oracle_agree, first.oracle_total),
                pct(last.oracle_agree, last.oracle_total)
            ),
            _ => "-".to_owned(),
        };
        table.row(vec![
            target.clone(),
            cell.clone(),
            s.epochs.to_string(),
            access.to_string(),
            pct(access - hits, access),
            pct(conflict, conflict + capacity),
            alias.to_string(),
            pct(agree, oracle),
            drift,
        ]);
    }
    out.push_str(&table.to_string());

    // Hottest sets across all cells (set indices are per-cell cache
    // geometry, so each row keeps its cell attribution).
    let mut hottest: Vec<(String, u64, u64)> = cells
        .iter()
        .flat_map(|((target, cell), s)| {
            s.hot_sets
                .iter()
                .map(move |&(set, count)| (format!("{target}/{cell}"), set, count))
        })
        .collect();
    hottest.sort_by(|a, b| {
        b.2.cmp(&a.2)
            .then_with(|| a.0.cmp(&b.0))
            .then_with(|| a.1.cmp(&b.1))
    });
    hottest.truncate(opts.top);
    if !hottest.is_empty() {
        out.push_str("\nhottest conflict sets\n");
        let mut table = Table::new(["cell", "set", "conflicts"].map(String::from).to_vec());
        for (cell, set, count) in hottest {
            table.row(vec![cell, set.to_string(), count.to_string()]);
        }
        out.push_str(&table.to_string());
    }

    if let Some(filter) = &opts.cell_filter {
        for ((target, cell), s) in &cells {
            let name = format!("{target}/{cell}");
            if !name.contains(filter.as_str()) {
                continue;
            }
            out.push_str(&format!("\nepochs of {name}\n"));
            let mut table = Table::new(
                ["epoch", "accesses", "miss%", "conf", "cap", "alias", "acc%"]
                    .map(String::from)
                    .to_vec(),
            );
            for e in &s.epoch_rows {
                table.row(vec![
                    e.epoch.to_string(),
                    e.accesses.to_string(),
                    pct(e.accesses - e.hits, e.accesses),
                    e.conflict.to_string(),
                    e.capacity.to_string(),
                    e.alias.to_string(),
                    pct(e.oracle_agree, e.oracle_total),
                ]);
            }
            out.push_str(&table.to_string());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{write_jsonl, CellRecord, ProbeMode, RunHeader};
    use sim_core::probe::{EpochSnapshot, Registry};

    fn sample_jsonl() -> String {
        let mut totals = Registry::new();
        totals.bump("access", 20);
        totals.bump("access.hit", 15);
        totals.bump("classify.conflict", 4);
        totals.bump("classify.capacity", 1);
        totals.bump("mct.alias", 1);
        totals.bump("oracle.agree", 4);
        totals.bump("oracle.total", 5);
        let epochs = vec![
            EpochSnapshot {
                epoch: 0,
                accesses: 10,
                hits: 8,
                conflict: 3,
                capacity: 0,
                alias: 1,
                oracle_agree: 1,
                oracle_total: 2,
                hot_sets: vec![(7, 3)],
            },
            EpochSnapshot {
                epoch: 1,
                accesses: 10,
                hits: 7,
                conflict: 1,
                capacity: 1,
                alias: 0,
                oracle_agree: 3,
                oracle_total: 3,
                hot_sets: vec![(2, 1)],
            },
        ];
        let rec = CellRecord {
            target: "fig1",
            cell: "dm16/swim".to_owned(),
            epochs,
            totals,
            hot_sets: vec![(7, 3), (2, 1)],
            raw: None,
        };
        let mut buf = Vec::new();
        write_jsonl(
            &[rec],
            &RunHeader {
                mode: ProbeMode::Epoch(10),
                events_per_workload: 20,
                targets: vec!["fig1"],
            },
            &mut buf,
        )
        .unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn summarizes_an_epoch_file() {
        let text = sample_jsonl();
        let out = summarize(&text, &SummarizeOptions::default()).unwrap();
        assert!(out.contains("mode=epoch epoch_len=10"), "{out}");
        assert!(out.contains("dm16/swim"), "{out}");
        // 5 misses / 20 accesses, 4/5 conflict share, 4/5 oracle.
        assert!(out.contains("25.0"), "{out}");
        assert!(out.contains("80.0"), "{out}");
        // Drift from 1/2 to 3/3.
        assert!(out.contains("50.0->100.0"), "{out}");
        assert!(out.contains("hottest conflict sets"), "{out}");
    }

    #[test]
    fn cell_filter_renders_epoch_table() {
        let text = sample_jsonl();
        let out = summarize(
            &text,
            &SummarizeOptions {
                cell_filter: Some("swim".to_owned()),
                top: 10,
            },
        )
        .unwrap();
        assert!(out.contains("epochs of fig1/dm16/swim"), "{out}");
        assert!(
            out.lines().any(|l| l.trim_start().starts_with('1')),
            "{out}"
        );
    }

    #[test]
    fn rejects_wrong_schema() {
        let err = summarize(
            "{\"schema\":\"bench-repro/1\"}\n",
            &SummarizeOptions::default(),
        )
        .unwrap_err();
        assert!(err.contains("obs-repro/1"), "{err}");
        assert!(summarize("", &SummarizeOptions::default()).is_err());
        assert!(summarize("not json\n", &SummarizeOptions::default()).is_err());
    }

    #[test]
    fn rejects_empty_probe_file() {
        let err = summarize("", &SummarizeOptions::default()).unwrap_err();
        assert!(err.contains("empty probe file"), "{err}");
        // Whitespace-only input is the same as empty.
        let err = summarize("\n  \n", &SummarizeOptions::default()).unwrap_err();
        assert!(err.contains("empty probe file"), "{err}");
    }

    #[test]
    fn tolerates_torn_final_line() {
        let mut text = sample_jsonl();
        // Simulate a crash mid-write: the last line is truncated JSON.
        text.push_str("{\"type\":\"cell\",\"target\":\"fig1\",\"ce");
        let out = summarize(&text, &SummarizeOptions::default()).unwrap();
        assert!(out.contains("warning: skipped torn final line"), "{out}");
        // The intact records still summarize normally.
        assert!(out.contains("dm16/swim"), "{out}");
        // A torn line in the *middle* of the file is still an error.
        let torn_middle = "{\"schema\":\"obs-repro/1\",\"mode\":\"raw\",\"events_per_workload\":1}\n{\"type\nonsense\n{\"type\":\"totals\",\"cells\":0}\n";
        assert!(summarize(torn_middle, &SummarizeOptions::default()).is_err());
    }

    #[test]
    fn skips_foreign_schema_records_with_warning() {
        let mut text = sample_jsonl();
        // Splice a record from another schema before the final line.
        let insert = "{\"type\":\"span\",\"scope\":\"cell\",\"name\":\"replay_block\"}\n";
        let tail = text.rfind("{\"type\":\"totals\"").unwrap();
        text.insert_str(tail, insert);
        let out = summarize(&text, &SummarizeOptions::default()).unwrap();
        assert!(
            out.contains("warning: skipped 1 foreign/unrecognized record line(s)"),
            "{out}"
        );
        assert!(out.contains("dm16/swim"), "{out}");
    }
}
