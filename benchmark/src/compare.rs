//! `benchmark compare <setA> <setB>`: the two repeatability
//! criteria, checked the way the driver checks them.
//!
//! A set file holds one record per run, as `--append` writes them. For
//! every workload × end-to-end metric the tool prints each side's
//! median and quartiles (Python's `statistics.quantiles(v, n=4)`), how
//! much worse B's median is than A's as a share of A's, the metric's
//! bound, and a verdict: `regressed` when the gap exceeds the bound,
//! `unresolved` when either side's own quartile distance does (the
//! spread is wider than what the bound could resolve; `setup_s` is
//! exempt, as in the driver), `ok` otherwise.

use crate::hist::quartiles;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::Res;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// `workload → metric → values`, untraced records only.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Res<Set> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse_set(&text, path)
}

/// Read the `key=value` records `--append` writes (`result::record`).
fn parse_set(text: &str, path: &str) -> Res<Set> {
    let mut set = Set::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = format!("{path}:{}", n + 1);
        let fields: HashMap<&str, &str> =
            line.split_whitespace().filter_map(|f| f.split_once('=')).collect();
        let workload = *fields.get("workload").ok_or(format!("{at}: record has no workload"))?;
        if fields.get("trace") != Some(&"0") {
            continue;
        }
        if fields.get("correct") != Some(&"true") {
            return Err(format!("{at}: an incorrect run cannot be compared"));
        }
        for m in &END_TO_END {
            let value = fields
                .get(m.name)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or(format!("{at}: record has no {}", m.name))?;
            set.entry(workload.to_string())
                .or_default()
                .entry(m.name.to_string())
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// `(q1, median, q3)`; a single value is its own quartiles.
fn spread(values: &[f64]) -> (f64, f64, f64) {
    if values.len() < 2 {
        return (values[0], values[0], values[0]);
    }
    quartiles(values)
}

/// Compare two set files. Returns the report and whether anything
/// regressed.
pub fn compare(path_a: &str, path_b: &str) -> Res<(String, bool)> {
    Ok(report(&load(path_a)?, &load(path_b)?))
}

fn report(a: &Set, b: &Set) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<14} {:<12} {:>3} {:>12} {:>7} {:>3} {:>12} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "nA", "median A", "iqr A", "nB", "median B", "iqr B", "gap", "bound"
    );
    for w in &WORKLOADS {
        let (Some(wa), Some(wb)) = (a.get(w.name), b.get(w.name)) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (wa.get(m.name), wb.get(m.name)) else {
                continue;
            };
            let (a1, a2, a3) = spread(va);
            let (b1, b2, b3) = spread(vb);
            let (iqr_a, iqr_b) = ((a3 - a1) / a2, (b3 - b1) / b2);
            let gap = match m.better {
                Better::Lower => (b2 - a2) / a2,
                Better::Higher => (a2 - b2) / a2,
            };
            let verdict = if gap > m.bound {
                regressed = true;
                "regressed"
            } else if m.name != "setup_s" && (iqr_a > m.bound || iqr_b > m.bound) {
                "unresolved"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{:<14} {:<12} {:>3} {:>12.3} {:>6.1}% {:>3} {:>12.3} {:>6.1}% {:>+7.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                va.len(),
                a2,
                iqr_a * 100.0,
                vb.len(),
                b2,
                iqr_b * 100.0,
                gap * 100.0,
                m.bound * 100.0,
                verdict
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, ops: f64, p50: f64) -> String {
        format!(
            "workload={workload} seed=1 trace=0 correct=true attempted=10 failed=0 setup_s=1.5 \
             ops_per_s={ops} p50_us={p50} tail_us=90 peak_rss_mb=30\n"
        )
    }

    fn set(rows: &[(f64, f64)]) -> Set {
        let text: String = rows.iter().map(|&(o, p)| record("kv_mem", o, p)).collect();
        parse_set(&text, "test").expect("parses")
    }

    #[test]
    fn verdicts_follow_gap_and_spread() {
        let steady = [(1000.0, 50.0), (1010.0, 50.5), (990.0, 49.5), (1005.0, 50.2), (995.0, 49.8)];
        let slower: Vec<_> = steady.iter().map(|&(o, p)| (o * 0.5, p)).collect();
        let noisy = [(1000.0, 30.0), (1010.0, 50.0), (990.0, 80.0), (1005.0, 45.0), (995.0, 60.0)];
        let a = set(&steady);
        let (text, bad) = report(&a, &set(&steady));
        assert!(!bad && text.matches(" ok").count() == 5, "{text}");
        let (text, bad) = report(&a, &set(&slower));
        assert!(bad && text.contains("regressed"), "{text}");
        let (text, bad) = report(&a, &set(&noisy));
        assert!(!bad && text.contains("unresolved"), "{text}");
    }

    #[test]
    fn traced_and_incorrect_records() {
        let traced = record("kv_mem", 1.0, 1.0).replace("trace=0", "trace=1");
        assert!(parse_set(&traced, "t").expect("parses").is_empty());
        let wrong = record("kv_mem", 1.0, 1.0).replace("correct=true", "correct=false");
        assert!(parse_set(&wrong, "t").is_err());
    }
}
