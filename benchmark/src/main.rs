//! The repo benchmark: seven workloads over the simulator's layers.
//!
//! Every number names its clock. `sim_*` metrics are simulated time or
//! exact counts and repeat bit-for-bit for a fixed seed; `host_*` metrics
//! and `setup_s` are wall time of this process and are noisy.
//!
//! ```text
//! multimap-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! multimap-benchmark [run] [--sets <n>] [--seed <n>] [--seconds <s>]
//! multimap-benchmark repeat [--sets <n>] …
//! multimap-benchmark compare <a.json> <b.json>
//! multimap-benchmark schema
//! ```
//!
//! With `--workload` the last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. See `README.md` beside this package.

#![forbid(unsafe_code)]

mod compare;
mod harness;
mod host;
mod json;
mod layers;
mod schema;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Outcome, RunArgs, Scale};
use json::Value;

/// Exit code for a malformed command line or an unknown workload.
const USAGE: u8 = 2;

struct Cli {
    command: String,
    workload: Option<String>,
    sets: usize,
    files: Vec<String>,
    run: RunArgs,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: "run".into(),
        workload: None,
        sets: 0,
        files: Vec::new(),
        run: RunArgs {
            seed: 1,
            seconds: schema::RUN_SECONDS,
            trace: false,
            scale: Scale::Full,
            out_dir: PathBuf::from("benchmark/out"),
        },
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            cli.command = it.next().expect("peeked").clone();
        }
    }
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            cli.files.push(arg.clone());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        let bad = || format!("bad value {value:?} for {arg}");
        match arg.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => cli.run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.run.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.run.seconds > 0.0 && cli.run.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                cli.run.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad()),
                }
            }
            "--sets" => {
                cli.sets = value.parse().map_err(|_| bad())?;
                if cli.sets == 0 {
                    return Err(bad());
                }
            }
            "--out" => cli.run.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown option {arg}")),
        }
    }
    Ok(cli)
}

fn metrics_value(metrics: &[(&'static str, f64)], table: &[schema::MetricSpec]) -> Value {
    Value::obj(metrics.iter().map(|&(name, v)| {
        let unit = table.iter().find(|m| m.name == name).map_or("", |m| m.unit);
        (
            name,
            Value::obj([("value", Value::Num(v)), ("unit", Value::str(unit))]),
        )
    }))
}

/// Print the human-readable report and, last, the contract's result line.
fn report(name: &str, args: &RunArgs, out: &Outcome) {
    println!(
        "workload {name}  seed {}  scale {:?}  nproc {}  sim_digest {:016x}",
        args.seed,
        args.scale,
        host::nproc(),
        out.sim_digest
    );
    for (table, metrics) in [
        (&schema::END_TO_END[..], &out.end_to_end),
        (&schema::PER_LAYER[..], &out.per_layer),
    ] {
        for &(metric, v) in metrics {
            let unit = table
                .iter()
                .find(|m| m.name == metric)
                .map_or("", |m| m.unit);
            println!("  {metric:<40} {v:>18.6} {unit}");
        }
    }
    for p in &out.problems {
        println!("  FAILED: {p}");
    }
    let (metrics, table) = if args.trace {
        (&out.per_layer, &schema::PER_LAYER[..])
    } else {
        (&out.end_to_end, &schema::END_TO_END[..])
    };
    let line = Value::obj([
        ("correct", Value::Bool(out.correct)),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", metrics_value(metrics, table)),
    ]);
    println!("{}", line.render());
}

/// The contents of `BENCHMARK.json`, from the schema tables.
fn benchmark_json() -> Value {
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(*s)).collect());
    let metric = |m: &schema::MetricSpec, bounded: bool| {
        let mut members = vec![
            ("name", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            ("better", Value::str(m.better.word())),
        ];
        if bounded {
            members.push(("bound", Value::Num(m.bound)));
        }
        Value::obj(members)
    };
    Value::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::Num(schema::RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                schema::WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(schema::END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Value::Arr(schema::PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("multimap-benchmark: {e}");
            return ExitCode::from(USAGE);
        }
    };
    match (cli.command.as_str(), &cli.workload) {
        ("run", Some(name)) => match workloads::run(name, &cli.run) {
            Some(out) => {
                report(name, &cli.run, &out);
                ExitCode::from(u8::from(!out.correct))
            }
            None => {
                let known: Vec<&str> = schema::WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "multimap-benchmark: unknown workload {name:?}; known: {}",
                    known.join(", ")
                );
                ExitCode::from(USAGE)
            }
        },
        ("run", None) => compare::run_sets(&cli.run, cli.sets.max(1), false),
        ("repeat", None) => compare::run_sets(&cli.run, cli.sets.max(2), true),
        ("schema", None) => {
            print!("{}", benchmark_json().render_pretty());
            ExitCode::SUCCESS
        }
        ("compare", None) if cli.files.len() == 2 => {
            compare::compare_files(&cli.files[0], &cli.files[1])
        }
        _ => {
            eprintln!("usage: multimap-benchmark [run|repeat] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke] [--sets N] [--out DIR]");
            eprintln!("       multimap-benchmark compare A.json B.json");
            ExitCode::from(USAGE)
        }
    }
}
