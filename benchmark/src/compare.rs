//! `clp-hostbench compare A.json B.json`: applies the `BENCHMARK.json`
//! bounds to two result sets, one row per metric × workload.
//!
//! A set is what `--set FILE` accumulates (`{"runs": [...]}`); a single
//! result file counts as a set of one run. Each side is reduced to its
//! median over runs. A bounded metric is `worse` when B's median is
//! worse than A's by more than the bound, and `unresolved` when either
//! side's own run-to-run spread (quartile distance over median) is wider
//! than the bound — unless every run of B beats, or loses to, every run
//! of A, which settles it. An exact metric is `worse` on any difference.

use crate::book::{median, quartiles};
use crate::manifest::{self, MetricDef};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The runs of a result-set document, or the document itself when it
/// is a single run's result.
pub fn runs_of(text: &str) -> Result<Vec<Value>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e:?}"))?;
    match doc["runs"].as_array() {
        Some(runs) => Ok(runs.clone()),
        None if doc["metrics"].as_object().is_some() => Ok(vec![doc]),
        None => Err("neither a result set nor a result".to_string()),
    }
}

/// workload → metric → one value per run.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn samples_of(path: &Path) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut samples = Samples::new();
    for run in runs_of(&text).map_err(|e| format!("{}: {e}", path.display()))? {
        let workload = run["workload"]
            .as_str()
            .ok_or_else(|| format!("{}: a run names no workload", path.display()))?;
        let of_workload = samples.entry(workload.to_string()).or_default();
        for (name, m) in run["metrics"].as_object().into_iter().flatten() {
            if let Some(v) = m["value"].as_f64() {
                of_workload.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(samples)
}

/// Quartile distance over median; 0 for a single run.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// How much worse B's median is than A's, as a share of A's.
fn worse_by(def: &MetricDef, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let delta = if def.better == "lower" {
        mb - ma
    } else {
        ma - mb
    };
    delta / ma.abs()
}

pub fn verdict(def: &MetricDef, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    if def.exact {
        let same = a.iter().chain(b).all(|v| *v == a[0]);
        return if same { Verdict::Same } else { Verdict::Worse };
    }
    let lower = def.better == "lower";
    // Whether every run of `x` reads better than every run of `y`.
    let beats = |x: &[f64], y: &[f64]| {
        x.iter()
            .all(|xv| y.iter().all(|yv| if lower { xv < yv } else { xv > yv }))
    };
    let worse = worse_by(def, a, b) > bound;
    if spread(a).max(spread(b)) > bound {
        if beats(b, a) {
            Verdict::Same
        } else if worse && beats(a, b) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// Prints the comparison; `Ok(false)` when any row is `worse`.
pub fn compare_files(root: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let manifest_path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let bounds = manifest::load(&text)?.bounds;
    let (sa, sb) = (samples_of(a)?, samples_of(b)?);
    println!(
        "{:<13} {:<26} {:>14} {:>14} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "worse %", "bound %", "spread %"
    );
    let (mut rows, mut worse, mut unresolved) = (0u32, 0u32, 0u32);
    for workload in manifest::WORKLOADS {
        for def in manifest::END_TO_END.iter().chain(manifest::PER_LAYER) {
            let bound = bounds.get(def.name).copied();
            if bound.is_none() && !def.exact {
                continue;
            }
            let side = |s: &Samples| s.get(workload).and_then(|m| m.get(def.name)).cloned();
            let (Some(va), Some(vb)) = (side(&sa), side(&sb)) else {
                continue;
            };
            // A metric the workload does not exercise reads 0 everywhere.
            if va.iter().chain(&vb).all(|v| *v == 0.0) {
                continue;
            }
            let bound = if def.exact { 0.0 } else { bound.unwrap_or(0.0) };
            let v = verdict(def, bound, &va, &vb);
            rows += 1;
            worse += u32::from(v == Verdict::Worse);
            unresolved += u32::from(v == Verdict::Unresolved);
            println!(
                "{:<13} {:<26} {:>14.6} {:>14.6} {:>8.2} {:>7.2} {:>8.2}  {}",
                workload,
                def.name,
                median(&va),
                median(&vb),
                worse_by(def, &va, &vb) * 100.0,
                bound * 100.0,
                spread(&va).max(spread(&vb)) * 100.0,
                v.label()
            );
        }
    }
    if rows == 0 {
        return Err("the two sets share no workload and metric".to_string());
    }
    println!(
        "{} same, {worse} worse, {unresolved} unresolved",
        rows - worse - unresolved
    );
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass() -> &'static MetricDef {
        manifest::find("pass_s").expect("listed")
    }

    #[test]
    fn within_the_bound_is_same_and_beyond_it_is_worse() {
        let a = [1.000, 1.004, 0.998, 1.002];
        assert_eq!(
            verdict(pass(), 0.05, &a, &[1.03, 1.04, 1.035, 1.03]),
            Verdict::Same
        );
        assert_eq!(
            verdict(pass(), 0.05, &a, &[1.08, 1.09, 1.085, 1.08]),
            Verdict::Worse
        );
        // Faster is never worse.
        assert_eq!(
            verdict(pass(), 0.05, &a, &[0.5, 0.5, 0.5, 0.5]),
            Verdict::Same
        );
    }

    #[test]
    fn direction_follows_the_metric() {
        let rate = manifest::find("jobs_per_s").expect("listed");
        assert_eq!(verdict(rate, 0.05, &[100.0], &[90.0]), Verdict::Worse);
        assert_eq!(verdict(rate, 0.05, &[100.0], &[110.0]), Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_runs_separate() {
        let noisy = [1.0, 1.2, 0.9, 1.3, 1.1];
        assert_eq!(
            verdict(pass(), 0.05, &noisy, &[1.05, 1.25, 0.95, 1.2, 1.1]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(pass(), 0.05, &noisy, &[0.8, 0.7, 0.85]),
            Verdict::Same
        );
        assert_eq!(
            verdict(pass(), 0.05, &noisy, &[1.5, 1.6, 1.7]),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_metrics_allow_no_difference() {
        let cycles = manifest::find("sim_cycles").expect("listed");
        assert_eq!(verdict(cycles, 0.0, &[7.0, 7.0], &[7.0]), Verdict::Same);
        assert_eq!(verdict(cycles, 0.0, &[7.0, 7.0], &[6.0]), Verdict::Worse);
        assert_eq!(verdict(cycles, 0.0, &[7.0, 8.0], &[7.0]), Verdict::Worse);
    }

    #[test]
    fn a_single_result_is_a_set_of_one() {
        let one = r#"{"workload":"analysis","metrics":{"pass_s":{"value":1.5,"unit":"s"}}}"#;
        assert_eq!(runs_of(one).expect("parses").len(), 1);
        let set = format!(r#"{{"runs":[{one},{one}]}}"#);
        assert_eq!(runs_of(&set).expect("parses").len(), 2);
        assert!(runs_of("[1]").is_err());
    }
}
