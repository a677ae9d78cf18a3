//! `compare A.json B.json`: one row per (metric, workload), each judged
//! against the metric's bound, every ratio shown with its base.

use crate::json::Value;
use crate::spec::{self, Better, MetricSpec};

/// How `new` reads against `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The medians differ by more than the bound, but each side's own
    /// samples spread wider than the bound and their ranges overlap.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a value with the extremes of its samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Side {
    fn from_json(metric: &Value) -> Option<Side> {
        let value = metric.get("value")?.as_f64()?;
        let field = |k: &str| metric.get(k).and_then(Value::as_f64).unwrap_or(value);
        Some(Side {
            value,
            min: field("min"),
            max: field("max"),
        })
    }

    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.value.abs()
        }
    }
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when it is better), in the metric's own direction.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return match better {
            _ if new == 0.0 => 0.0,
            Better::Lower => f64::INFINITY * new.signum(),
            Better::Higher => f64::NEG_INFINITY * new.signum(),
        };
    }
    let change = (new - base) / base.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Judges one metric on one workload against `bound`.
pub fn judge(base: Side, new: Side, better: Better, bound: f64) -> Verdict {
    let w = worsening(base.value, new.value, better);
    if w.abs() <= bound {
        return Verdict::Same;
    }
    let noisy = base.spread() > bound || new.spread() > bound;
    let overlap = base.min <= new.max && new.min <= base.max;
    if noisy && overlap {
        Verdict::Unresolved
    } else if w > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: &'static str,
    pub base: f64,
    pub new: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn side(doc: &Value, workload: &str, block: &str, metric: &str) -> Option<Side> {
    Side::from_json(doc.path(&["workloads", workload, block, "metrics", metric])?)
}

fn failed_ratio(doc: &Value, workload: &str) -> Option<f64> {
    doc.path(&["workloads", workload, "end_to_end", "failed_ratio"])?
        .as_f64()
}

/// Every (metric, workload) row of two result files: the end-to-end
/// metrics with their bounds, `failed_ratio` with bound 0, and — where
/// both files hold a traced run — every exact count, which must repeat.
pub fn rows(base: &Value, new: &Value) -> Vec<Row> {
    let mut out = Vec::new();
    let mut push = |workload: &str, m: &MetricSpec, block: &str, bound: f64| {
        if let (Some(a), Some(b)) = (
            side(base, workload, block, m.name),
            side(new, workload, block, m.name),
        ) {
            out.push(Row {
                workload: workload.to_string(),
                metric: m.name.to_string(),
                unit: m.unit,
                base: a.value,
                new: b.value,
                bound,
                verdict: judge(a, b, m.better, bound),
            });
        }
    };
    for (workload, _) in spec::WORKLOADS {
        for m in spec::END_TO_END {
            push(workload, m, "end_to_end", m.bound.unwrap_or(0.0));
        }
        for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
            push(workload, m, "per_layer", 0.0);
        }
    }
    for (workload, _) in spec::WORKLOADS {
        if let (Some(a), Some(b)) = (failed_ratio(base, workload), failed_ratio(new, workload)) {
            let flat = |v| Side {
                value: v,
                min: v,
                max: v,
            };
            out.push(Row {
                workload: workload.to_string(),
                metric: "failed_ratio".to_string(),
                unit: "ratio",
                base: a,
                new: b,
                bound: 0.0,
                verdict: judge(flat(a), flat(b), Better::Lower, 0.0),
            });
        }
    }
    out
}

/// Prints the rows as a table; returns how many are not `same`/`better`
/// (`strict`: how many are not `same`).
pub fn print(rows: &[Row], strict: bool) -> usize {
    println!(
        "{:<15} {:<32} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    let mut bad = 0;
    for r in rows {
        let ratio = if r.base == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4}", r.new / r.base)
        };
        println!(
            "{:<15} {:<32} {:>14} {:>14} {:>9} {:>6}  {}",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            format!("{:.6}", r.base),
            format!("{:.6}", r.new),
            ratio,
            r.bound,
            r.verdict.as_str()
        );
        let fine = match r.verdict {
            Verdict::Same => true,
            Verdict::Better => !strict,
            Verdict::Worse | Verdict::Unresolved => false,
        };
        bad += usize::from(!fine);
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: f64) -> Side {
        Side {
            value: v,
            min: v,
            max: v,
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(2.0, 2.2, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(2.0, 2.2, Better::Higher) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 0.25, Better::Lower), f64::INFINITY);
    }

    #[test]
    fn verdicts_apply_the_bound() {
        let b = Better::Lower;
        assert_eq!(judge(flat(1.0), flat(1.04), b, 0.05), Verdict::Same);
        assert_eq!(judge(flat(1.0), flat(1.06), b, 0.05), Verdict::Worse);
        assert_eq!(judge(flat(1.0), flat(0.90), b, 0.05), Verdict::Better);
        assert_eq!(
            judge(flat(10.0), flat(11.5), Better::Higher, 0.10),
            Verdict::Better
        );
        // failed_ratio: bound 0, any rise is a regression.
        assert_eq!(judge(flat(0.0), flat(0.0), b, 0.0), Verdict::Same);
        assert_eq!(judge(flat(0.0), flat(1.0 / 12.0), b, 0.0), Verdict::Worse);
    }

    #[test]
    fn wide_overlapping_samples_are_unresolved_not_worse() {
        let base = Side {
            value: 1.0,
            min: 0.8,
            max: 1.3,
        };
        let new = Side {
            value: 1.2,
            min: 0.9,
            max: 1.5,
        };
        assert_eq!(judge(base, new, Better::Lower, 0.05), Verdict::Unresolved);
        // Disjoint ranges resolve however wide they are.
        let far = Side {
            value: 2.0,
            min: 1.6,
            max: 2.4,
        };
        assert_eq!(judge(base, far, Better::Lower, 0.05), Verdict::Worse);
    }

    fn result(wall: f64, matvecs: f64, failed_ratio: f64) -> Value {
        let metric = |v: f64| Value::obj().with("value", v).with("min", v).with("max", v);
        let e2e = Value::obj().with("failed_ratio", failed_ratio).with(
            "metrics",
            Value::obj()
                .with("wall_s", metric(wall))
                .with("setup_s", metric(1.0)),
        );
        let layers = Value::obj().with(
            "metrics",
            Value::obj().with("core.solver.matvecs", metric(matvecs)),
        );
        Value::obj().with(
            "workloads",
            Value::obj().with(
                "sweep_n1000",
                Value::obj()
                    .with("end_to_end", e2e)
                    .with("per_layer", layers),
            ),
        )
    }

    #[test]
    fn rows_cover_bounds_counts_and_failures() {
        let rows = rows(&result(3.0, 8372.0, 0.0), &result(3.6, 8373.0, 0.25));
        let verdict = |name: &str| {
            rows.iter()
                .find(|r| r.metric == name)
                .map(|r| r.verdict)
                .unwrap_or_else(|| panic!("no row for {name}"))
        };
        assert_eq!(verdict("wall_s"), Verdict::Worse);
        assert_eq!(verdict("setup_s"), Verdict::Same);
        assert_eq!(verdict("core.solver.matvecs"), Verdict::Worse);
        assert_eq!(verdict("failed_ratio"), Verdict::Worse);
        assert!(rows.iter().all(|r| r.workload == "sweep_n1000"));
        assert_eq!(print(&rows, false), 3);
        let same = super::rows(&result(3.0, 8372.0, 0.0), &result(3.0, 8372.0, 0.0));
        assert_eq!(print(&same, true), 0);
    }
}
