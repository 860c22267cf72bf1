//! `perfbench check A.json B.json`: is report B (the change) worse than
//! report A (the baseline) by more than the benchmark's own bounds?
//!
//! One row per workload x metric. End-to-end rows are `ok`, `worse`, or
//! `unresolved` when the run-to-run spread recorded with the medians is
//! wider than the bound (then nothing can be said either way). Per-layer
//! rows carry no bound: they are `same` or `moved`, for reading next to the
//! end-to-end row they are meant to explain.

use crate::json::{self, Json};
use crate::stats::Summary;
use std::process::ExitCode;

struct Row<'a> {
    workload: &'a str,
    kind: &'a str,
    metric: &'a str,
    value: f64,
    unit: &'a str,
    higher_is_better: bool,
    bound: Option<f64>,
    /// Inter-quartile range over the median, where the report recorded
    /// quartiles.
    spread: Option<f64>,
}

fn rows(report: &Json) -> Result<Vec<Row<'_>>, String> {
    let rows = report
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("report has no rows")?;
    rows.iter()
        .map(|r| {
            let s = |k: &str| {
                r.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("row without {k}"))
            };
            let n = |k: &str| r.get(k).and_then(Json::as_f64);
            let value = n("value").ok_or("row without value")?;
            let spread = match (n("q1"), n("q3"), n("n")) {
                (Some(q1), Some(q3), Some(n)) => Some(
                    Summary {
                        median: value,
                        q1,
                        q3,
                        n: n as usize,
                    }
                    .spread(),
                ),
                _ => None,
            };
            Ok(Row {
                workload: s("workload")?,
                kind: s("kind")?,
                metric: s("metric")?,
                value,
                unit: s("unit")?,
                higher_is_better: s("better")? == "higher",
                bound: n("bound"),
                spread,
            })
        })
        .collect()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The verdict on one pair of rows.
fn verdict(a: &Row<'_>, b: &Row<'_>) -> &'static str {
    let Some(bound) = a.bound else {
        return if a.value == b.value { "same" } else { "moved" };
    };
    let spread = a.spread.unwrap_or(0.0).max(b.spread.unwrap_or(0.0));
    let worse_by = if a.higher_is_better {
        a.value - b.value
    } else {
        b.value - a.value
    };
    if spread > bound && bound > 0.0 {
        "unresolved"
    } else if worse_by > bound * a.value.abs() {
        "worse"
    } else {
        "ok"
    }
}

pub fn run(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (ja, jb) = (load(path_a)?, load(path_b)?);
    let (ra, rb) = (rows(&ja)?, rows(&jb)?);
    for key in ["seed", "seconds"] {
        if ja.get(key) != jb.get(key) {
            println!("# note: the reports differ in {key}");
        }
    }
    println!(
        "{:<14} {:<40} {:>16} {:>16} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut worse = 0;
    for a in &ra {
        let Some(b) = rb
            .iter()
            .find(|b| (b.workload, b.kind, b.metric) == (a.workload, a.kind, a.metric))
        else {
            println!("{:<14} {:<40} missing in B", a.workload, a.metric);
            worse += 1;
            continue;
        };
        let v = verdict(a, b);
        worse += usize::from(v == "worse");
        let ratio = if a.value == 0.0 {
            1.0
        } else {
            b.value / a.value
        };
        let bound = a.bound.map_or("-".to_string(), |x| format!("{x}"));
        println!(
            "{:<14} {:<40} {:>16.6} {:>16.6} {ratio:>8.3} {bound:>7}  {v}  [{}]",
            a.workload, a.metric, a.value, b.value, a.unit
        );
    }
    println!("# {worse} worse");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(value: f64, higher: bool, bound: Option<f64>, spread: Option<f64>) -> Row<'static> {
        Row {
            workload: "w",
            kind: "end_to_end",
            metric: "m",
            value,
            unit: "u",
            higher_is_better: higher,
            bound,
            spread,
        }
    }

    #[test]
    fn verdicts() {
        let base = row(100.0, true, Some(0.1), Some(0.02));
        assert_eq!(
            verdict(&base, &row(95.0, true, Some(0.1), Some(0.02))),
            "ok"
        );
        assert_eq!(
            verdict(&base, &row(85.0, true, Some(0.1), Some(0.02))),
            "worse"
        );
        assert_eq!(
            verdict(&base, &row(85.0, true, Some(0.1), Some(0.3))),
            "unresolved"
        );
        let lat = row(100.0, false, Some(0.1), None);
        assert_eq!(verdict(&lat, &row(120.0, false, Some(0.1), None)), "worse");
        assert_eq!(verdict(&lat, &row(80.0, false, Some(0.1), None)), "ok");
        // Bound 0 (failures): any increase is worse.
        let fails = row(0.0, false, Some(0.0), None);
        assert_eq!(verdict(&fails, &row(0.0, false, Some(0.0), None)), "ok");
        assert_eq!(verdict(&fails, &row(0.01, false, Some(0.0), None)), "worse");
        let layer = row(3.0, true, None, None);
        assert_eq!(verdict(&layer, &row(3.0, true, None, None)), "same");
        assert_eq!(verdict(&layer, &row(4.0, true, None, None)), "moved");
    }
}
