//! `benchmark`: run one workload once and print its metrics, or one of
//! the maintenance commands. See `README.md` in this directory.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale full|smoke] [--work-dir <dir>] [--keep] [--append <set>]
//! benchmark --list [--json]
//! benchmark --selfcheck
//! benchmark compare <setA> <setB>
//! ```

use rfh_benchmark::run::{self, Opts, Scale};
use rfh_benchmark::spec::{
    self, MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, SIM_COUNTS, WORKLOADS,
};
use rfh_benchmark::{compare, host, result, Res};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where a run writes when `--work-dir` is not given.
const DEFAULT_WORK_DIR: &str = ".bench_work";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Res<ExitCode> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("usage: benchmark compare <setA> <setB>".into());
            };
            let (report, regressed) = compare::compare(a, b)?;
            print!("{report}");
            Ok(if regressed { ExitCode::from(1) } else { ExitCode::SUCCESS })
        }
        Some("--list") => {
            match &args[1..] {
                [] => print!("{}", list()),
                [json] if json == "--json" => print!("{}", spec::benchmark_json()),
                _ => return Err("usage: benchmark --list [--json]".into()),
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("--selfcheck") => {
            selfcheck()?;
            println!("selfcheck: ok");
            Ok(ExitCode::SUCCESS)
        }
        _ => run_once(args),
    }
}

/// The value following `name`, if the flag is present.
fn flag<'a>(args: &'a [String], name: &str) -> Res<Option<&'a str>> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => {
            args.get(i + 1).map(|v| Some(v.as_str())).ok_or_else(|| format!("{name} needs a value"))
        }
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Res<Option<T>> {
    flag(args, name)?
        .map(|v| v.parse::<T>().map_err(|_| format!("{name}: cannot read {v:?}")))
        .transpose()
}

fn run_once(args: &[String]) -> Res<ExitCode> {
    const KNOWN: [&str; 7] =
        ["--workload", "--seed", "--seconds", "--trace", "--scale", "--work-dir", "--append"];
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--keep" => i += 1,
            f if KNOWN.contains(&f) => i += 2,
            other => return Err(format!("unknown argument {other:?}; see the README")),
        }
    }
    let workload = flag(args, "--workload")?.ok_or("--workload is required; see --list")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload:?}; see --list"));
    }
    let scale = match flag(args, "--scale")? {
        None | Some("full") => Scale::Full,
        Some("smoke") => Scale::Smoke,
        Some(other) => return Err(format!("--scale: {other:?} is neither full nor smoke")),
    };
    let trace = match flag(args, "--trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
    };
    let seconds: f64 = parsed(args, "--seconds")?.unwrap_or(if scale == Scale::Full {
        f64::from(RUN_SECONDS)
    } else {
        2.0
    });
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds: {seconds} is outside (0, 600]"));
    }
    // Every byte the run writes goes into a directory of its own under
    // `--work-dir`, made here and so safe to remove afterwards whatever
    // else the caller keeps there.
    let base = PathBuf::from(flag(args, "--work-dir")?.unwrap_or(DEFAULT_WORK_DIR));
    let work_dir = base.join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&base).map_err(|e| format!("create {}: {e}", base.display()))?;
    std::fs::create_dir(&work_dir).map_err(|e| format!("create {}: {e}", work_dir.display()))?;
    let opts = Opts {
        workload: workload.to_string(),
        seed: parsed(args, "--seed")?.unwrap_or(1),
        seconds,
        trace,
        scale,
        work_dir: work_dir.clone(),
    };
    let outcome = run::run(&opts)?;
    let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    let result = result::render(&outcome, defs)?;
    if let Some(path) = flag(args, "--append")? {
        append(Path::new(path), &result::record(&opts, &outcome, defs)?)?;
    }
    for note in &outcome.notes {
        println!("note {note}");
    }
    if let Some(digest) = outcome.digest {
        println!("digest {digest:016x}");
    }
    for (name, value) in &outcome.counts {
        println!("count {name} {value}");
    }
    let values = run::by_name(&outcome.metrics);
    for def in defs {
        println!("metric {} {} {}", def.name, values[def.name], def.unit);
    }
    // Success removes what the run wrote, unless asked to keep it (the
    // spans of a traced run are the reason to ask).
    if args.iter().any(|a| a == "--keep") {
        println!("note kept {}", work_dir.display());
    } else {
        let _ = std::fs::remove_dir_all(&work_dir);
        remove_default_base_if_empty(&base);
    }
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}

/// The default work directory is the benchmark's own: remove it once
/// the last run under it has gone. A directory the caller named stays.
fn remove_default_base_if_empty(base: &Path) {
    if base == Path::new(DEFAULT_WORK_DIR) {
        let _ = std::fs::remove_dir(base);
    }
}

/// Append one record to a set file for `benchmark compare`.
fn append(path: &Path, record: &str) -> Res<()> {
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(record.as_bytes()))
        .map_err(|e| format!("append to {}: {e}", path.display()))
}

/// Workloads with their reasons, and every metric with unit and bound.
fn list() -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        let _ = writeln!(out, "workload {} — {}", w.name, w.why);
    }
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "end_to_end {} [{}] better={} bound={}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    for m in &PER_LAYER {
        let _ = writeln!(out, "per_layer {} [{}] better={}", m.name, m.unit, m.better.as_str());
    }
    out
}

/// `BENCHMARK.json`, here or one level up (the repo root, from inside
/// `benchmark/`), must be exactly what `--list --json` prints.
fn check_benchmark_json() -> Res<()> {
    let path = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .map(PathBuf::from)
        .find(|p| p.exists())
        .ok_or("BENCHMARK.json not found here or one level up")?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if text != spec::benchmark_json() {
        return Err(format!(
            "{} is not what `benchmark --list --json` prints; regenerate it",
            path.display()
        ));
    }
    println!("selfcheck: {} matches the binary", path.display());
    Ok(())
}

/// Every workload at smoke scale, twice with one seed: correct both
/// times, and on the sim workloads the same digest, the same
/// `attempted` and the same counts; before that, `BENCHMARK.json`
/// against the binary.
fn selfcheck() -> Res<()> {
    check_benchmark_json()?;
    let cpus = host::allowed_cpus();
    let base = Path::new(DEFAULT_WORK_DIR);
    let work_dir = base.join(format!("selfcheck-{}", std::process::id()));
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for trace in [false, false, true] {
            let opts = Opts {
                workload: w.name.to_string(),
                seed: 7,
                seconds: 2.0,
                trace,
                scale: Scale::Smoke,
                work_dir: work_dir.clone(),
            };
            // A run pins its thread: give each a fresh one with the
            // process's own CPU set.
            let outcome = std::thread::scope(|s| {
                s.spawn(|| {
                    host::pin_current(&cpus);
                    run::run(&opts)
                })
                .join()
                .map_err(|_| format!("{}: the run panicked", w.name))
            })??;
            if !outcome.correct || outcome.failed != 0 {
                return Err(format!(
                    "{} (trace {}): correct={} failed={} {:?}",
                    w.name,
                    u8::from(trace),
                    outcome.correct,
                    outcome.failed,
                    outcome.notes
                ));
            }
            result::render(&outcome, if trace { &PER_LAYER } else { &END_TO_END })?;
            runs.push(outcome);
        }
        let (a, b, traced) = (&runs[0], &runs[1], &runs[2]);
        if a.digest.is_some() {
            if a.digest != b.digest || a.attempted != b.attempted {
                return Err(format!(
                    "{}: two runs of one seed differ in digest or attempted",
                    w.name
                ));
            }
            if a.counts != b.counts {
                return Err(format!("{}: counts differ: {:?} vs {:?}", w.name, a.counts, b.counts));
            }
            let traced_values = run::by_name(&traced.metrics);
            for (name, value) in a.counts.iter().filter(|(n, _)| SIM_COUNTS.contains(n)) {
                if traced_values.get(name) != Some(value) {
                    return Err(format!("{}: {name} differs between traced and untraced", w.name));
                }
            }
        }
        println!("selfcheck: {} ok", w.name);
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    remove_default_base_if_empty(base);
    Ok(())
}
