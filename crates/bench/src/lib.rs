//! # `bench` — experiment harness shared utilities
//!
//! Each experiment from DESIGN.md §4 is a binary in `src/bin/exp_*.rs`;
//! this library holds the shared plumbing: aligned table printing, summary
//! statistics, machine-readable JSON mirrors of the text reports, the
//! map over seeds that drives the wide sweeps, the environment overrides
//! of the experiment sizes, and the chain and fault plans the fault sweeps
//! share.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Parallel-array indexing is idiomatic throughout this numeric code.
#![allow(clippy::needless_range_loop)]

use minijson::Value;
use protocol::{FaultKind, FaultPlan, Scenario};
use workloads::{FaultCase, FaultCaseKind};

/// A plain-text table printer with right-aligned columns.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with per-column widths.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Rows (stringified cells, insertion order).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// JSON mirror of the table: an array of objects keyed by header, with
    /// cells that parse as finite numbers emitted as JSON numbers and
    /// everything else as strings.
    pub fn to_json_value(&self) -> Value {
        Value::Array(
            self.rows
                .iter()
                .map(|row| {
                    Value::Object(
                        self.headers
                            .iter()
                            .zip(row)
                            .map(|(h, cell)| (h.clone(), cell_value(cell)))
                            .collect(),
                    )
                })
                .collect(),
        )
    }
}

fn cell_value(cell: &str) -> Value {
    match cell.parse::<f64>() {
        Ok(x) if x.is_finite() => Value::Number(x),
        _ => Value::String(cell.to_string()),
    }
}

/// A machine-readable mirror of one experiment's text report, written as a
/// single JSON document next to the `results/*.txt` file. The schema is
/// documented in `results/README.md`: a top-level object with
/// `experiment`, `schema_version`, and experiment-chosen keys whose table
/// values come from [`Table::to_json_value`].
#[derive(Debug)]
pub struct JsonReport {
    entries: Vec<(String, Value)>,
}

impl JsonReport {
    /// Start a report for the named experiment (schema version 1).
    pub fn new(experiment: &str) -> Self {
        Self {
            entries: vec![
                ("experiment".into(), Value::String(experiment.into())),
                ("schema_version".into(), Value::Number(1.0)),
            ],
        }
    }

    /// Attach a numeric scalar.
    pub fn scalar(&mut self, key: &str, value: f64) -> &mut Self {
        self.entries.push((key.into(), Value::Number(value)));
        self
    }

    /// Attach a string.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.entries.push((key.into(), Value::String(value.into())));
        self
    }

    /// Attach a table (as an array of row objects).
    pub fn table(&mut self, key: &str, table: &Table) -> &mut Self {
        self.entries.push((key.into(), table.to_json_value()));
        self
    }

    /// Attach an arbitrary pre-built JSON value.
    pub fn value(&mut self, key: &str, value: Value) -> &mut Self {
        self.entries.push((key.into(), value));
        self
    }

    /// Serialize the report document.
    pub fn to_json(&self) -> String {
        Value::Object(self.entries.clone()).to_json()
    }

    /// Write the document to `path`, creating parent directories.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        if let Some(parent) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }
}

/// Summary statistics over a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Sample size.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
}

impl Stats {
    /// Compute statistics; panics on an empty sample.
    pub fn of(sample: &[f64]) -> Self {
        assert!(!sample.is_empty());
        let n = sample.len();
        let mean = sample.iter().sum::<f64>() / n as f64;
        let var = sample.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        Self {
            n,
            min: sample.iter().copied().fold(f64::INFINITY, f64::min),
            max: sample.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mean,
            std: var.sqrt(),
        }
    }
}

/// `f` of each seed, in seed order — the sweep driver of the wide
/// experiments. It runs on the calling thread, so traced sweeps record
/// their events in a fixed order.
pub fn sweep<T>(seeds: std::ops::Range<u64>, f: impl Fn(u64) -> T) -> Vec<T> {
    seeds.map(f).collect()
}

/// The environment variable `name` parsed as a `T`, or `default` when it
/// is unset or does not parse: the experiments' size and seed overrides.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The E20 heterogeneous chain with `m` strategic processors, so the
/// fault sweeps (E20, E22) and the observability workload (E21) stress
/// the same chains.
pub fn fault_chain(m: usize) -> Scenario {
    let true_rates: Vec<f64> = (0..m).map(|j| 0.6 + 0.8 * ((j * 5 % 4) as f64)).collect();
    let link_rates: Vec<f64> = (0..m).map(|j| 0.1 + 0.12 * ((j * 3 % 3) as f64)).collect();
    Scenario::honest(1.0, true_rates, link_rates)
}

/// The fault plan that injects every case of `cases`, in order.
pub fn fault_plan(cases: &[FaultCase]) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for case in cases {
        let kind = match case.kind {
            FaultCaseKind::Crash => FaultKind::Crash {
                phase: case.phase,
                progress: case.progress,
            },
            FaultCaseKind::Stall => FaultKind::Stall {
                progress: case.progress,
            },
            FaultCaseKind::DropMessage => FaultKind::DropMessage { phase: case.phase },
            FaultCaseKind::DelayMessage => FaultKind::DelayMessage {
                phase: case.phase,
                delay: case.delay,
            },
            FaultCaseKind::CorruptMessage => FaultKind::CorruptMessage { phase: case.phase },
        };
        plan = plan.with_event(case.node, kind);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1.0".into()]);
        t.row(vec!["long-name".into(), "2.25".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_row() {
        Table::new(&["a", "b"]).row(vec!["x".into()]);
    }

    #[test]
    fn stats_basics() {
        let s = Stats::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn table_json_mirror_types_cells() {
        let mut t = Table::new(&["k", "v"]);
        t.row(vec!["alpha".into(), "1.5".into()]);
        t.row(vec!["beta".into(), "n/a".into()]);
        let v = t.to_json_value();
        let rows = v.as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("k").unwrap().as_str(), Some("alpha"));
        assert_eq!(rows[0].get("v").unwrap().as_f64(), Some(1.5));
        assert_eq!(rows[1].get("v").unwrap().as_str(), Some("n/a"));
    }

    #[test]
    fn json_report_round_trips_through_minijson() {
        let mut t = Table::new(&["seed", "makespan"]);
        t.row(vec!["0".into(), "0.75".into()]);
        let mut r = JsonReport::new("exp_test");
        r.scalar("runs", 1.0).text("note", "ok").table("sweep", &t);
        let doc = Value::parse(&r.to_json()).unwrap();
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("exp_test"));
        assert_eq!(doc.get("schema_version").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("runs").unwrap().as_f64(), Some(1.0));
        let rows = doc.get("sweep").unwrap().as_array().unwrap();
        assert_eq!(rows[0].get("makespan").unwrap().as_f64(), Some(0.75));
    }
}
