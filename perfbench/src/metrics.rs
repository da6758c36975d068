//! The metric definitions and the result line.
//!
//! `BENCHMARK.json` names every metric with its unit and which direction
//! is better; `metric_map.json` adds, keyed by name, the layer each one
//! belongs to, what it means on each workload, and the end-to-end metric
//! and workload a change to that layer should move. A run must report
//! exactly the end-to-end metrics (untraced) or the per-layer metrics
//! (traced); anything else is a benchmark bug.

use std::collections::BTreeMap;

use serde::Content;

use crate::json;

pub const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
const MAP: &str = include_str!("../metric_map.json");

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub layer: String,
}

#[derive(Debug)]
pub struct MetricMap {
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl MetricMap {
    pub fn load() -> Self {
        Self::parse(BENCHMARK, MAP).expect("BENCHMARK.json and metric_map.json agree")
    }

    /// The metrics `benchmark` lists, in its order, each with the layer
    /// `map` records for it. Every metric must have a map entry, and
    /// every map entry must name a listed metric.
    pub fn parse(benchmark: &str, map: &str) -> Result<Self, String> {
        let bench = json::parse(benchmark)?;
        let map = json::parse(map)?;
        let list = |key: &str| -> Result<Vec<MetricDef>, String> {
            let entries = json::get(&map, key)
                .and_then(Content::as_map)
                .ok_or(format!("metric_map.json has no `{key}` object"))?;
            let defs = json::get(&bench, key)
                .and_then(Content::as_seq)
                .ok_or(format!("BENCHMARK.json has no `{key}` list"))?
                .iter()
                .map(|entry| {
                    let field = |f: &str| {
                        json::str_field(entry, f)
                            .map(str::to_string)
                            .ok_or(format!("a `{key}` entry lacks `{f}`"))
                    };
                    let name = field("name")?;
                    let layer = json::get(&map, key)
                        .and_then(|m| json::get(m, &name))
                        .and_then(|m| json::str_field(m, "layer"))
                        .ok_or(format!("metric_map.json has no layer for `{name}`"))?;
                    Ok(MetricDef {
                        unit: field("unit")?,
                        better: field("better")?,
                        layer: layer.to_string(),
                        name,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            for (name, _) in entries {
                if !defs.iter().any(|d| &d.name == name) {
                    return Err(format!("metric_map.json maps unlisted `{name}`"));
                }
            }
            Ok(defs)
        };
        Ok(Self {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    pub fn for_mode(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result line.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.report.push(line.into());
    }

    /// The last stdout line: `correct`, `attempted`, `failed`, and every
    /// metric of the mode with its unit. Panics if the run measured a
    /// different set of metrics than BENCHMARK.json lists.
    pub fn result_line(&self, map: &MetricMap, traced: bool) -> String {
        let defs = map.for_mode(traced);
        let mut want: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        want.sort_unstable();
        let got: Vec<&str> = self.values.keys().map(String::as_str).collect();
        assert_eq!(got, want, "measured metrics differ from BENCHMARK.json");
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let value = self.values[&d.name];
                assert!(value.is_finite(), "{} is not finite", d.name);
                format!(
                    r#"{}: {{"value": {value}, "unit": {}}}"#,
                    json::quote(&d.name),
                    json::quote(&d.unit)
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_is_valid(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    /// Every metric BENCHMARK.json names matches `[A-Za-z0-9_.-]+`, is
    /// used once, and has a layer in the metric map.
    #[test]
    fn benchmark_json_metric_names_are_valid_unique_and_mapped() {
        let map = MetricMap::load();
        let mut names: Vec<&str> = map
            .end_to_end
            .iter()
            .chain(&map.per_layer)
            .map(|d| d.name.as_str())
            .collect();
        for name in &names {
            assert!(name_is_valid(name), "bad metric name `{name}`");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are unique");
        assert!(map
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for def in map.end_to_end.iter().chain(&map.per_layer) {
            assert!(
                ["lower", "higher"].contains(&def.better.as_str()),
                "{}",
                def.name
            );
            assert!(!def.layer.is_empty(), "{}", def.name);
        }
    }

    #[test]
    fn a_metric_missing_from_either_file_is_an_error() {
        let bench = r#"{"end_to_end": [{"name": "a", "unit": "s", "better": "lower"}],
                        "per_layer": [{"name": "b", "unit": "ms", "better": "lower"}]}"#;
        let map = |extra: &str| {
            format!(
                r#"{{"end_to_end": {{"a": {{"layer": "x"}}}}, "per_layer": {{"b": {{"layer": "y"}}{extra}}}}}"#
            )
        };
        let ok = MetricMap::parse(bench, &map("")).unwrap();
        assert_eq!(ok.per_layer[0].layer, "y");
        assert_eq!(ok.per_layer[0].unit, "ms");
        assert!(MetricMap::parse(bench, &map(r#", "c": {"layer": "z"}"#)).is_err());
        assert!(MetricMap::parse(bench, r#"{"end_to_end": {}, "per_layer": {}}"#).is_err());
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let map = MetricMap::load();
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (i, def) in map.end_to_end.iter().enumerate() {
            outcome.set(&def.name, 1.5 + i as f64);
        }
        let line = outcome.result_line(&map, false);
        let doc = json::parse(&line).unwrap();
        assert_eq!(json::get(&doc, "correct"), Some(&Content::Bool(true)));
        let metrics = json::get(&doc, "metrics")
            .and_then(Content::as_map)
            .unwrap();
        assert_eq!(metrics.len(), map.end_to_end.len());
        assert_eq!(json::str_field(&metrics[0].1, "unit"), Some("s"));
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
