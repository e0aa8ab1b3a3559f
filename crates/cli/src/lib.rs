//! # rfh-cli
//!
//! The `rfh` command-line tool: run simulations, compare the four
//! algorithms, regenerate the paper's figures, and inspect the world —
//! without writing a line of Rust.
//!
//! ```text
//! rfh table1                                  print Table I
//! rfh experiments <name> [--seed N]           a paper figure (fig3..fig10, all:
//!                                             every figure + CSVs under results/)
//!                                             or an extension experiment
//! rfh topology [--seed N]                     inspect the 10-DC world and its routes
//! rfh run [--policy rfh] [--scenario flash]   one simulation, summary + optional CSV
//!         [--epochs N] [--seed N] [--csv FILE]
//!         [--partitions N] [--skew S]          scale knobs (1M-partition runs)
//!         [--engine dense|sparse]              epoch engine (bit-identical)
//!         [--link-budget BYTES]                bandwidth-budgeted transfer planner
//!         [--trace OUT.jsonl] [--profile]      decision trace + phase timing
//!         [--faults PLAN.toml] [--fault-seed N] chaos schedule (see DESIGN.md)
//! rfh compare [--scenario random] [--epochs N] four-way comparison table
//!             [--seed N] [--csv-dir DIR]
//!             [--trace OUT.jsonl] [--profile]
//!             [--faults PLAN.toml] [--fault-seed N]
//! rfh trace [--epochs N] [--seed N]           dump a workload trace as CSV
//!           [--scenario S] [--out FILE]
//! rfh serve [--config C.toml] [--faults P.toml] live loopback cluster under the
//!           [--duration-secs N] [--addr-file F]  online RFH control loop
//!           [--persist-dir DIR]                   durable WAL + crash recovery
//!           [--telemetry-addrs F] [--timeline F]  /metrics endpoints + tick ring
//! rfh loadgen [--connect F | --cluster-config C] drive a cluster, measure
//!             [--config L.toml] [--ops N]        latency, verify acked writes
//!             [--report OUT.json]
//!             [--sample N] [--spans OUT.jsonl]   trace every n-th op end to end
//! rfh watch [--file F | --connect ADDR |        render the cluster timeline
//!            --telemetry-addrs F]                as a terminal dashboard
//!           [--interval-ms N] [--duration-secs N]
//! rfh help                                    this text
//! ```
//!
//! Argument parsing is hand-rolled ([`args`]) to stay within the
//! workspace's approved dependency set.

#![warn(missing_docs)]

pub mod args;
pub mod commands;

use rfh_types::RfhError;

/// Run the CLI against the given argument list (without the program
/// name). Returns the text to print, or an error whose message is shown
/// to the user with exit code 1.
pub fn run(argv: &[String]) -> Result<String, RfhError> {
    let (command, word, opts) = args::parse(argv)?;
    match command.as_str() {
        "table1" => commands::table1(&opts),
        "experiments" => commands::experiments(word.as_deref(), &opts),
        "topology" => commands::topology(&opts),
        "run" => commands::run_one(&opts),
        "compare" => commands::compare(&opts),
        "trace" => commands::trace(&opts),
        "replay" => commands::replay(&opts),
        "serve" => commands::serve(&opts),
        "loadgen" => commands::loadgen(&opts),
        "watch" => commands::watch(&opts),
        "help" | "" => Ok(HELP.to_string()),
        other => Err(RfhError::InvalidConfig {
            parameter: "command",
            reason: format!("unknown command {other:?}; try `rfh help`"),
        }),
    }
}

/// The help text.
pub const HELP: &str = "\
rfh — the RFH replication simulator (ICPP 2012 reproduction)

USAGE:
    rfh <command> [options]

COMMANDS:
    table1        print Table I (environment and parameter setting)
    experiments   regenerate a paper figure or run an extension experiment
                  (rfh experiments <name> [--seed N]; names below)
    topology      inspect the paper's 10-datacenter world and WAN routes
    run           run one policy and print its steady-state summary
    compare       run all four policies over an identical workload
    trace         generate a workload trace and dump it as CSV
    replay        run a policy against a recorded trace (--trace FILE)
    serve         run a live loopback cluster (TCP nodes + online RFH loop)
    loadgen       drive a cluster with load; report latency, verify acked writes
    watch         render a cluster timeline (live /timeline or a JSONL dump)
    help          show this text

COMMON OPTIONS:
    --policy    rfh | spread | random | owner | request  (default rfh);
                spread is RFH with targets ranked by rack/room/DC spread
    --scenario  random | flash | popularity           (default random)
    --epochs N                                        (default 250)
    --seed N                                          (default 42)
    --partitions N    override the partition count (default 64); partition
                      ids are u32, larger values are rejected up front
    --skew S          override the workload's Zipf skew exponent (default 0.8)
    --engine E        dense | sparse epoch engine (default sparse); both are
                      bit-identical — dense exists for differential testing
    --csv FILE        write the run's full metrics as CSV (run)
    --csv-dir DIR     write per-metric comparison CSVs (compare)
    --out FILE        trace output file (trace; default stdout)
    --trace FILE      recorded workload trace to replay (replay), or the
                      decision-event JSONL to write (run, compare)
    --profile         print the per-phase epoch timing table and counters
                      (run, compare)
    --faults FILE     fault-plan TOML: correlated outages, WAN link faults,
                      partitions, gray failures, background churn (run, compare)
    --fault-seed N    override the plan file's chaos seed (replay the same
                      schedule under different churn)
    --link-budget B   per-WAN-link byte budget per epoch, enforced by the
                      transfer planner: moves over budget defer to the next
                      epoch with carried credit, under-replicated partitions
                      admitted first; without it every move executes (run)

SERVING OPTIONS:
    --config FILE         cluster TOML (serve) / loadgen TOML (loadgen)
    --duration-secs N     how long `serve` stays up             (default 10)
    --addr-file FILE      `serve` writes node addresses here for clients; if the
                          file already exists, every node rebinds its old address
                          (kill + relaunch keeps clients' files valid)
    --persist-dir DIR     `serve` keeps a per-node WAL + checkpoints under DIR;
                          a relaunch replays the logs, truncates torn tails, and
                          reconciles before serving (acked writes survive SIGKILL)
    --connect FILE        `loadgen` targets the cluster behind this addr file;
                          without it, loadgen self-hosts a cluster
    --cluster-config FILE cluster TOML for the self-hosted loadgen cluster
    --ops N               override the loadgen operation count
    --pipeline N          loadgen closed-loop pipeline depth: each worker keeps
                          up to N frames in flight per connection (default 1)
    --report FILE         write the loadgen report as JSON

TELEMETRY OPTIONS:
    --telemetry-addrs FILE  `serve` writes the /metrics endpoint addresses here
                            (controller first); `watch` reads the controller line
    --timeline FILE         `serve` dumps the controller's tick ring as JSONL
    --sample N              `loadgen` traces every n-th op with a wire op-ID
    --spans FILE            `loadgen` writes the sampled ops' span chains (JSONL)
    --file FILE             `watch` renders this timeline JSONL dump once
    --connect ADDR          `watch` polls this controller's /timeline endpoint
    --interval-ms N         `watch` poll interval                    (default 500)

EXPERIMENTS (rfh experiments <name> [--seed N]; figures write CSVs under results/):
    all           Table I, Figs. 3-10 with their shape checks, and the claim summary
    fig3..fig10   one figure: its charts and shape checks
    ablations     RFH design-choice ablations (alpha, gamma, suicide, migration, eq. 18)
    sla           300 ms SLA attainment per policy
    availability  data loss under recurring failure waves
    chaos         correlated vs uncorrelated vs gray faults
    domains       failure-domain placement and the link-budget ladder
    scalability   10 -> 72 datacenters: cost per epoch and quality
    sweep         the ordering claims over 12 seeds (--seed is the first; default 1000)
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn help_paths() {
        assert_eq!(run(&[]).unwrap(), HELP);
        assert_eq!(run(&argv("help")).unwrap(), HELP);
        for name in rfh_experiments::NAMES.iter().filter(|n| !n.starts_with("fig")) {
            assert!(HELP.contains(&format!("\n    {name} ")), "help omits experiment {name}");
        }
    }

    #[test]
    fn experiments_reject_a_malformed_seed() {
        let err = run(&argv("experiments fig10 --seed notaseed")).unwrap_err().to_string();
        assert!(err.contains("\"notaseed\" is not a non-negative integer"), "{err}");
        let err = run(&argv("experiments sweep --seed x")).unwrap_err().to_string();
        assert!(err.contains("\"x\""), "{err}");
    }

    #[test]
    fn unknown_experiment_lists_the_names() {
        for line in ["experiments nosuch", "experiments"] {
            let err = run(&argv(line)).unwrap_err().to_string();
            for name in rfh_experiments::NAMES {
                assert!(err.contains(name), "{line:?}: {err}");
            }
        }
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run(&argv("frobnicate")).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn dispatch_reaches_commands() {
        let out = run(&argv("table1")).unwrap();
        assert!(out.contains("TABLE I"));
    }
}
