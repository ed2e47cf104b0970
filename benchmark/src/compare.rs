//! `benchmark compare`: judges a head commit against a base commit from the
//! JSONL records of interleaved runs (`--out`), by the bounds in the
//! `BENCHMARK.json` the benchmark was built with.
//!
//! Per (workload, end-to-end metric) it prints both medians with quartiles,
//! the share of run pairs the head won (ties count for neither), and a
//! verdict:
//!
//! * `unresolved` — the base runs spread wider than the bound, unless every
//!   head run reads better than every base run (then `improved`);
//! * `worse` — the head median is worse than the base median by more than
//!   the bound;
//! * `improved` — the head won at least nine tenths of the pairs and the
//!   medians differ by more than the base runs' quartile spread;
//! * `no-worse` — otherwise.
//!
//! Failures are compared as a share of attempted operations. Deterministic
//! outputs (MLU, churn, node counts) must repeat bit for bit at each seed;
//! every seed where they do not is listed.

use crate::spec::{self, Metric};
use crate::stats::{median, quartiles};
use segrout_obs::Json;
use std::collections::BTreeMap;

/// The verdict of one comparison row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no-worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared (workload, metric) row.
pub struct Row {
    pub base_median: f64,
    pub base_q: (f64, f64),
    pub head_median: f64,
    pub head_q: (f64, f64),
    /// Share of pairs (base run i, head run i) the head won.
    pub head_wins: f64,
    pub verdict: Verdict,
}

/// Compares two samples of one metric. `base` and `head` are in run order;
/// run `i` of each side forms a pair.
///
/// # Panics
/// Panics when either side is empty.
pub fn judge(metric: &Metric, base: &[f64], head: &[f64]) -> Row {
    let higher = metric.higher_is_better();
    let better = |a: f64, b: f64| if higher { a > b } else { a < b };
    let bound = metric.bound.unwrap_or(0.0);
    let (mb, mh) = (median(base), median(head));
    let (bq, hq) = (quartiles(base), quartiles(head));
    let pairs = base.len().min(head.len());
    let wins = base
        .iter()
        .zip(head)
        .filter(|&(&b, &h)| better(h, b))
        .count();
    let head_wins = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let scale = mb.abs().max(f64::MIN_POSITIVE);
    let spread = (bq.1 - bq.0) / scale;
    let worsening = if higher { mb - mh } else { mh - mb } / scale;
    let all_better = head.iter().all(|&h| base.iter().all(|&b| better(h, b)));

    let verdict = if spread > bound {
        if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound {
        Verdict::Worse
    } else if head_wins >= 0.9 && better(mh, mb) && (mh - mb).abs() > bq.1 - bq.0 {
        Verdict::Improved
    } else {
        Verdict::NoWorse
    };
    Row {
        base_median: mb,
        base_q: bq,
        head_median: mh,
        head_q: hq,
        head_wins,
        verdict,
    }
}

/// Untraced, full-size records of a JSONL file, by workload, in file order.
fn load_records(path: &str) -> Result<BTreeMap<String, Vec<Json>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let traced = rec.get("trace") == Some(&Json::Bool(true));
        let smoke = rec.get("smoke") == Some(&Json::Bool(true));
        if traced || smoke {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: record has no workload", i + 1))?
            .to_string();
        out.entry(workload).or_default().push(rec);
    }
    Ok(out)
}

fn metric_values(recs: &[Json], name: &str) -> Vec<f64> {
    recs.iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.as_f64())
        .collect()
}

/// Seeds at which the records disagree on some deterministic output, with
/// the outputs that differ; compared bit for bit across both sides.
fn deterministic_changes(base: &[Json], head: &[Json]) -> Vec<(i64, Vec<String>)> {
    let mut by_seed: BTreeMap<i64, Vec<&Json>> = BTreeMap::new();
    for r in base.iter().chain(head) {
        if let (Some(seed), Some(d)) =
            (r.get("seed").and_then(Json::as_i64), r.get("deterministic"))
        {
            by_seed.entry(seed).or_default().push(d);
        }
    }
    by_seed
        .into_iter()
        .filter_map(|(seed, outs)| {
            let Json::Obj(first) = outs[0] else {
                return None;
            };
            let differing: Vec<String> = first
                .iter()
                .filter(|(k, v)| {
                    outs.iter().any(|o| {
                        o.get(k).and_then(Json::as_f64).map(f64::to_bits)
                            != v.as_f64().map(f64::to_bits)
                    })
                })
                .map(|(k, _)| k.clone())
                .collect();
            (!differing.is_empty()).then_some((seed, differing))
        })
        .collect()
}

fn failed_share(recs: &[Json]) -> f64 {
    let sum = |k: &str| -> f64 { recs.iter().filter_map(|r| r.get(k)?.as_f64()).sum() };
    let attempted = sum("attempted");
    if attempted > 0.0 {
        sum("failed") / attempted
    } else {
        0.0
    }
}

/// The `compare` subcommand. `Ok(false)` when some row is `worse`.
pub fn main(args: &[String]) -> Result<bool, String> {
    let flags = crate::Flags::parse(args, &[])?;
    flags.check_known(&["base", "head"])?;
    let base_path = flags.value("base").ok_or("compare needs --base")?;
    let head_path = flags.value("head").ok_or("compare needs --head")?;
    let spec = spec::builtin()?;
    let base = load_records(base_path)?;
    let head = load_records(head_path)?;

    println!(
        "{:<14} {:<20} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins"
    );
    let mut any_worse = false;
    for workload in &spec.workloads {
        let (Some(b), Some(h)) = (base.get(workload), head.get(workload)) else {
            println!("{workload:<14} (no runs on one side)");
            continue;
        };
        for metric in &spec.end_to_end {
            let (bv, hv) = (
                metric_values(b, &metric.name),
                metric_values(h, &metric.name),
            );
            let label = format!("{} ({})", metric.name, metric.unit);
            if bv.is_empty() || hv.is_empty() {
                println!("{workload:<14} {label:<20} (missing)");
                continue;
            }
            let row = judge(metric, &bv, &hv);
            any_worse |= row.verdict == Verdict::Worse;
            println!(
                "{workload:<14} {label:<20} {:>12.6} [{:.6}, {:.6}] {:>12.6} [{:.6}, {:.6}] {:>5.0}%  {}",
                row.base_median,
                row.base_q.0,
                row.base_q.1,
                row.head_median,
                row.head_q.0,
                row.head_q.1,
                100.0 * row.head_wins,
                row.verdict.as_str()
            );
        }
        let (fb, fh) = (failed_share(b), failed_share(h));
        let verdict = if fh > fb {
            any_worse = true;
            Verdict::Worse
        } else if fh < fb {
            Verdict::Improved
        } else {
            Verdict::NoWorse
        };
        println!(
            "{workload:<14} {:<20} {fb:>30.6} {fh:>30.6} {:>6}  {}",
            "failed_frac",
            "",
            verdict.as_str()
        );
        for (seed, outputs) in deterministic_changes(b, h) {
            println!(
                "{workload:<14} outputs at seed {seed} changed: {}",
                outputs.join(", ")
            );
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: &str, bound: f64) -> Metric {
        Metric {
            name: "m".into(),
            unit: "ms".into(),
            better: better.into(),
            bound: Some(bound),
        }
    }

    #[test]
    fn identical_samples_are_no_worse() {
        let xs = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0];
        let row = judge(&metric("lower", 0.05), &xs, &xs);
        assert_eq!(row.verdict, Verdict::NoWorse);
        assert_eq!(row.head_wins, 0.0, "ties count for neither side");
    }

    #[test]
    fn a_clear_slowdown_is_worse() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0];
        let head: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        let row = judge(&metric("lower", 0.05), &base, &head);
        assert_eq!(row.verdict, Verdict::Worse);
        // For a higher-is-better metric the same numbers are a gain.
        let row = judge(&metric("higher", 0.05), &base, &head);
        assert_eq!(row.verdict, Verdict::Improved);
        assert_eq!(row.head_wins, 1.0);
    }

    #[test]
    fn a_small_consistent_gain_is_improved_only_beyond_the_spread() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0];
        // 3% faster on every pair: beyond the base quartile spread (~2%).
        let head: Vec<f64> = base.iter().map(|x| x * 0.97).collect();
        assert_eq!(
            judge(&metric("lower", 0.05), &base, &head).verdict,
            Verdict::Improved
        );
        // 0.5% faster: wins every pair but within the spread.
        let head: Vec<f64> = base.iter().map(|x| x * 0.995).collect();
        assert_eq!(
            judge(&metric("lower", 0.05), &base, &head).verdict,
            Verdict::NoWorse
        );
    }

    #[test]
    fn deterministic_outputs_are_compared_per_seed() {
        let rec = |seed: i64, mlu: f64| {
            Json::obj([
                ("seed", Json::from(seed)),
                ("deterministic", Json::obj([("mlu", Json::from(mlu))])),
            ])
        };
        let base = [rec(1, 1.5), rec(2, 2.0), rec(1, 1.5)];
        assert!(deterministic_changes(&base, &[rec(1, 1.5), rec(2, 2.0)]).is_empty());
        // One unit in the last place apart.
        let head = [rec(1, 1.5), rec(2, f64::from_bits(2.0f64.to_bits() + 1))];
        assert_eq!(
            deterministic_changes(&base, &head),
            vec![(2, vec!["mlu".to_string()])]
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let base = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 7.0];
        let head = [6.0, 14.0, 9.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 8.0];
        assert_eq!(
            judge(&metric("lower", 0.05), &base, &head).verdict,
            Verdict::Unresolved
        );
        // ...unless every head run beats every base run.
        let head = [1.0, 1.5, 2.0, 1.2, 1.1, 1.4, 1.3, 1.6, 1.7, 1.8];
        assert_eq!(
            judge(&metric("lower", 0.05), &base, &head).verdict,
            Verdict::Improved
        );
    }
}
