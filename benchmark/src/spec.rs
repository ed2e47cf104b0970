//! `BENCHMARK.json`: the declared workloads and metrics, with the bound by
//! which each end-to-end metric may worsen before a change counts as a
//! regression. The file is the only catalog of metric names, units and
//! directions: runs print what it declares and `compare` judges by its
//! bounds.

use segrout_obs::Json;

/// The spec the benchmark was built with.
const BUILTIN: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Allowed worsening as a share of the base median (end-to-end only).
    pub bound: Option<f64>,
}

impl Metric {
    pub fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }
}

/// The parsed `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    let list = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: '{key}' must be an array"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry lacks '{f}'"))
            };
            Ok(Metric {
                name: field("name")?,
                unit: field("unit")?,
                better: field("better")?,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

fn parse(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: 'workloads' must be an array")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "BENCHMARK.json: workload lacks 'name'".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        workloads,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}

/// The `BENCHMARK.json` of the commit the benchmark was built from.
pub fn builtin() -> Result<Spec, String> {
    parse(BUILTIN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn spec_declares_valid_metrics_for_the_workloads_that_run() {
        let spec = builtin().expect("BENCHMARK.json parses");
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names, "workload list");
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));

        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        for m in &spec.per_layer {
            assert!(
                m.bound.is_none(),
                "{}: per-layer metrics have no bound",
                m.name
            );
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        assert!(
            spec.end_to_end.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );

        let mut all: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        all.extend(spec.end_to_end.iter().map(|m| m.name.as_str()));
        all.extend(spec.per_layer.iter().map(|m| m.name.as_str()));
        for name in &all {
            assert!(valid_name(name), "bad name {name:?}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "names are used once");
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(valid_unit(&m.unit), "bad unit {:?}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
        }
    }

    #[test]
    fn spec_keys_and_limits_are_within_the_format() {
        let doc = Json::parse(BUILTIN).unwrap();
        let Json::Obj(pairs) = &doc else {
            panic!("BENCHMARK.json is an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let secs = doc["run_seconds"].as_i64().unwrap();
        assert!((1..=60).contains(&secs));
        let command = doc["command"].as_arr().unwrap();
        assert!(!command.is_empty() && command.len() <= 32);
        let paths = doc["paths"].as_arr().unwrap();
        assert!((1..=16).contains(&paths.len()));
        for p in paths {
            let p = p.as_str().unwrap();
            assert!(!p.starts_with('/') && !p.contains(".."));
        }
        for w in doc["workloads"].as_arr().unwrap() {
            let Json::Obj(f) = w else { panic!() };
            assert_eq!(f.len(), 2);
            let why = w["why"].as_str().unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }
}
