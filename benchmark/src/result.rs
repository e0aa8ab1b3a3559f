//! What a run hands on: the result line the driver reads, and the
//! one-line record `--append` adds to a set file for `compare`.

use crate::run::{Opts, Outcome};
use crate::spec::MetricDef;
use crate::Res;
use std::collections::HashMap;
use std::fmt::Write as _;

/// `defs` paired with the values `outcome` measured for them; an error
/// if one is missing or not a finite number.
fn values<'a>(outcome: &Outcome, defs: &'a [MetricDef]) -> Res<Vec<(&'a MetricDef, f64)>> {
    let by_name: HashMap<&str, f64> = outcome.metrics.iter().copied().collect();
    defs.iter()
        .map(|def| match by_name.get(def.name) {
            None => Err(format!("the run did not measure {}", def.name)),
            Some(v) if !v.is_finite() => Err(format!("{} came out as {v}", def.name)),
            Some(&v) => Ok((def, v)),
        })
        .collect()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// and in `metrics` exactly the metrics of `defs`, in their order.
pub fn render(outcome: &Outcome, defs: &[MetricDef]) -> Res<String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (def, value)) in values(outcome, defs)?.into_iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// The value of metric `name` in a result line written by [`render`].
pub fn value_of(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// The run as one line of `key=value` fields separated by spaces: what
/// `--append` writes and `compare` reads.
pub fn record(opts: &Opts, outcome: &Outcome, defs: &[MetricDef]) -> Res<String> {
    let mut out = format!(
        "workload={} seed={} trace={} correct={} attempted={} failed={}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        outcome.correct,
        outcome.attempted,
        outcome.failed
    );
    for (def, value) in values(outcome, defs)? {
        let _ = write!(out, " {}={value}", def.name);
    }
    out.push('\n');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    fn outcome(metrics: Vec<(&'static str, f64)>) -> Outcome {
        Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
            counts: Vec::new(),
            digest: None,
            notes: Vec::new(),
        }
    }

    #[test]
    fn the_result_line_has_every_metric_and_reads_back() {
        let o = outcome(
            END_TO_END.iter().enumerate().map(|(i, m)| (m.name, i as f64 + 0.25)).collect(),
        );
        let line = render(&o, &END_TO_END).expect("renders");
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.ends_with("}}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        for (i, m) in END_TO_END.iter().enumerate() {
            assert_eq!(value_of(&line, m.name), Some(i as f64 + 0.25));
        }
        assert_eq!(value_of(&line, "nope"), None);
    }

    #[test]
    fn a_missing_or_infinite_metric_is_an_error() {
        assert!(render(&outcome(vec![("setup_s", 1.0)]), &END_TO_END).is_err());
        let mut all: Vec<_> = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        all[2].1 = f64::INFINITY;
        assert!(render(&outcome(all), &END_TO_END).is_err());
    }
}
