//! Every workload at smoke scale through the real binary: one valid
//! result line, the five end-to-end metrics finite and positive, no
//! failed operation, the pinning map reported. One traced run checks
//! that every per-layer metric comes out.

use rfh_benchmark::result::value_of;
use rfh_benchmark::spec::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::Command;

/// Run the binary with a work directory that already holds a file of
/// someone else's; return its standard output.
fn benchmark(args: &[&str]) -> String {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(args.join("_").replace('-', ""));
    let _ = std::fs::remove_dir_all(&work); // what an earlier failed test left
    std::fs::create_dir_all(&work).expect("work dir");
    let sentinel = work.join("not-the-benchmarks.txt");
    std::fs::write(&sentinel, "keep me").expect("sentinel");
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .args(["--work-dir", work.to_str().expect("utf-8 path")])
        .output()
        .expect("the binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} exited {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let left: Vec<_> = std::fs::read_dir(&work)
        .expect("work dir survives")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(left, [sentinel], "the run must remove what it wrote and nothing else");
    stdout
}

/// Check the result line's shape and return the values of `defs`.
fn result_metrics(stdout: &str, defs: &[MetricDef]) -> Vec<f64> {
    let line = stdout.lines().last().expect("some output");
    let rest = line
        .strip_prefix("{\"correct\": true, \"attempted\": ")
        .unwrap_or_else(|| panic!("not a correct result line: {line}"));
    let (attempted, rest) =
        rest.split_once(", \"failed\": 0, \"metrics\": {").expect("failed == 0");
    assert!(attempted.parse::<u64>().expect("attempted is a whole number") >= 1);
    assert!(rest.ends_with("}}"), "{line}");
    assert_eq!(
        rest.matches("\"unit\"").count(),
        defs.len(),
        "the metric set differs from the spec"
    );
    defs.iter()
        .map(|m| {
            assert!(rest.contains(&format!("\"unit\": \"{}\"", m.unit)));
            value_of(line, m.name).unwrap_or_else(|| panic!("no numeric {} in {line}", m.name))
        })
        .collect()
}

#[test]
fn every_workload_ends_with_a_valid_result_line() {
    for w in &WORKLOADS {
        let stdout =
            benchmark(&["--workload", w.name, "--scale", "smoke", "--seed", "5", "--trace", "0"]);
        for (m, value) in END_TO_END.iter().zip(result_metrics(&stdout, &END_TO_END)) {
            assert!(value.is_finite() && value > 0.0, "{}: {} = {value}", w.name, m.name);
        }
        assert!(
            stdout.lines().any(|l| l.starts_with("note pinned=") && l.contains("driver=")),
            "{}: no pinning map in\n{stdout}",
            w.name
        );
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    let stdout = benchmark(&[
        "--workload",
        "sim_hot_chaos",
        "--scale",
        "smoke",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    let values = result_metrics(&stdout, &PER_LAYER);
    assert!(values.iter().all(|v| v.is_finite()));
    let listed = stdout.lines().filter(|l| l.starts_with("metric ")).count();
    assert_eq!(listed, PER_LAYER.len(), "one `metric` line per per-layer metric");
}

#[test]
fn list_and_bad_arguments() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark")).arg("--list").output().expect("runs");
    let text = String::from_utf8(out.stdout).expect("utf-8");
    assert!(out.status.success());
    assert_eq!(text.lines().filter(|l| l.starts_with("workload ")).count(), WORKLOADS.len());
    assert_eq!(text.lines().filter(|l| l.starts_with("end_to_end ")).count(), END_TO_END.len());
    assert_eq!(text.lines().filter(|l| l.starts_with("per_layer ")).count(), PER_LAYER.len());
    for bad in [&["--workload", "nope"][..], &["--wat"][..], &[][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark")).args(bad).output().expect("runs");
        assert!(!out.status.success(), "{bad:?} should be refused");
        assert!(out.stdout.is_empty(), "{bad:?} printed a result");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("benchmark: "));
    }
}
