//! `benchmark compare A.json B.json`: judge B against A with the bounds
//! `BENCHMARK.json` fixes, one row per workload × bounded metric.
//!
//! The rule is the one later changes are held to (choosing-metrics §6):
//! a median worse by more than the bound is a regression; where the
//! run-to-run spread is wider than the bound the row is *unresolved*, not
//! unchanged — unless every run of B reads better than every run of A.

use voxolap_json::Value;

use crate::report::Better;
use crate::stats::{exclusive_median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One judged row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// Relative change of the median in the *worse* direction (negative
    /// when B is better).
    pub worse_by: f64,
    /// The wider of the two sides' interquartile spreads, as a share of
    /// the median; `None` when neither side has two runs.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// Judge the runs `b` against the runs `a` of one metric on one workload.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Row {
    let (median_a, median_b) = (exclusive_median(a), exclusive_median(b));
    let delta = (median_b - median_a) / median_a.abs().max(f64::MIN_POSITIVE);
    let worse_by = if better == Better::Lower { delta } else { -delta };
    let spread = match (spread(a), spread(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let reads_better = |x: f64, y: f64| if better == Better::Lower { x < y } else { x > y };
    let every_b_beats_every_a = b.iter().all(|&y| a.iter().all(|&x| reads_better(y, x)));
    let verdict = if spread.is_some_and(|s| s > bound) {
        if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    Row { median_a, median_b, worse_by, spread, verdict }
}

/// A bounded metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

/// The `end_to_end` list of a parsed `BENCHMARK.json`.
pub fn bounds_of(benchmark: &Value) -> Result<Vec<Bound>, String> {
    let list = benchmark["end_to_end"].as_array().ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m["name"].as_str().ok_or("end_to_end entry without a name")?.to_string();
            let better = match m["better"].as_str() {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            let bound = m["bound"].as_f64().ok_or(format!("{name}: no bound"))?;
            Ok(Bound { name, better, bound })
        })
        .collect()
}

/// Values of `metric` over the untraced runs of `workload` in a result
/// file written by `benchmark run`.
fn values_of(result: &Value, workload: &str, metric: &str) -> Vec<f64> {
    result["runs"]
        .as_array()
        .unwrap_or(&[])
        .iter()
        .filter(|r| r["workload"].as_str() == Some(workload) && r["trace"].as_u64() == Some(0))
        .filter_map(|r| r["metrics"][metric]["value"].as_f64())
        .collect()
}

/// Workload names of a result file, in first-seen order.
fn workloads_of(result: &Value) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for r in result["runs"].as_array().unwrap_or(&[]) {
        if let Some(w) = r["workload"].as_str() {
            if !names.iter().any(|n| n == w) {
                names.push(w.to_string());
            }
        }
    }
    names
}

/// Print the comparison; returns the process exit code: 1 if any row is
/// worse, else 2 if any is unresolved (or has no data), else 0.
pub fn compare(a: &Value, b: &Value, bounds: &[Bound]) -> i32 {
    println!(
        "{:<15} {:<20} {:>12} {:>12} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    let (mut worse, mut unresolved) = (0usize, 0usize);
    for workload in workloads_of(a) {
        for bound in bounds {
            let (va, vb) =
                (values_of(a, &workload, &bound.name), values_of(b, &workload, &bound.name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<15} {:<20} missing on one side  unresolved", bound.name);
                unresolved += 1;
                continue;
            }
            let row = judge(&va, &vb, bound.better, bound.bound);
            match row.verdict {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                _ => {}
            }
            println!(
                "{workload:<15} {:<20} {:>12.4} {:>12.4} {:>+8.1}% {:>8} {:>5.0}%  {} (n={}/{})",
                bound.name,
                row.median_a,
                row.median_b,
                row.worse_by * 100.0,
                row.spread.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0)),
                bound.bound * 100.0,
                row.verdict.label(),
                va.len(),
                vb.len(),
            );
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    match (worse, unresolved) {
        (0, 0) => 0,
        (0, _) => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_inside_the_bound_are_within_bound() {
        let a = [100.0, 102.0, 98.0, 101.0, 99.0];
        let b = [104.0, 103.0, 105.0, 102.0, 106.0];
        let row = judge(&a, &b, Better::Lower, 0.10);
        assert_eq!(row.verdict, Verdict::WithinBound);
        assert!((row.worse_by - 0.04).abs() < 1e-12, "{row:?}");
        // The same numbers read the other way for a higher-is-better metric.
        assert!((judge(&a, &b, Better::Higher, 0.10).worse_by + 0.04).abs() < 1e-12);
    }

    #[test]
    fn a_median_past_the_bound_is_worse_or_better_by_direction() {
        let a = [100.0, 101.0, 99.0, 100.0];
        let b = [120.0, 121.0, 119.0, 120.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.10).verdict, Verdict::Worse);
        assert_eq!(judge(&a, &b, Better::Higher, 0.10).verdict, Verdict::Better);
        assert_eq!(judge(&b, &a, Better::Lower, 0.10).verdict, Verdict::Better);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        // A's runs scatter by far more than the 10% bound.
        let a = [80.0, 100.0, 120.0, 140.0, 90.0];
        let overlapping = [85.0, 95.0, 125.0, 100.0, 110.0];
        let row = judge(&a, &overlapping, Better::Lower, 0.10);
        assert!(row.spread.unwrap() > 0.10);
        assert_eq!(row.verdict, Verdict::Unresolved, "{row:?}");
        // Every run of B below every run of A: better, however wide A is.
        let clear = [50.0, 55.0, 60.0, 52.0, 58.0];
        assert_eq!(judge(&a, &clear, Better::Lower, 0.10).verdict, Verdict::Better);
        // … but not "worse": a noisy regression stays unresolved.
        let slow = [150.0, 160.0, 170.0, 155.0, 165.0];
        assert_eq!(judge(&a, &slow, Better::Lower, 0.10).verdict, Verdict::Unresolved);
    }

    #[test]
    fn single_runs_compare_without_a_spread() {
        let row = judge(&[100.0], &[105.0], Better::Lower, 0.10);
        assert_eq!((row.spread, row.verdict), (None, Verdict::WithinBound));
    }

    #[test]
    fn result_files_are_read_per_workload_and_untraced_only() {
        let run = |w: &str, trace: u64, v: f64| {
            Value::obj([
                ("workload", w.into()),
                ("trace", trace.into()),
                ("metrics", Value::obj([("ttfs_ms_p50", Value::obj([("value", v.into())]))])),
            ])
        };
        let file = Value::obj([(
            "runs",
            Value::Array(vec![
                run("cold", 0, 1.0),
                run("warm", 0, 2.0),
                run("cold", 1, 9.0),
                run("cold", 0, 3.0),
            ]),
        )]);
        assert_eq!(workloads_of(&file), ["cold", "warm"]);
        assert_eq!(values_of(&file, "cold", "ttfs_ms_p50"), [1.0, 3.0]);
        let bounds = bounds_of(
            &Value::parse(r#"{"end_to_end":[{"name":"ttfs_ms_p50","unit":"ms","better":"lower","bound":0.2}]}"#)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(
            bounds,
            [Bound { name: "ttfs_ms_p50".into(), better: Better::Lower, bound: 0.2 }]
        );
        assert_eq!(compare(&file, &file, &bounds), 2, "a 1-vs-3 spread is wider than the bound");
    }
}
