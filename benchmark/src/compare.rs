//! Running every workload as a set, holding two sets of the same code
//! to the benchmark's own bounds (`repeat`), and comparing two result
//! files (`compare`).
//!
//! A set runs each workload twice — untraced for the end-to-end metrics,
//! traced for the per-layer ones — each in its own child process, one at
//! a time, so `host_peak_rss_mib` is that workload's alone.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::harness::{RunArgs, Scale};
use crate::host;
use crate::json::{self, Value};
use crate::schema::{self, Better};
use crate::stats::quantile;

/// `setup_s` agrees between two sets of the same code when within its
/// bound or within this many seconds, whichever is looser: a
/// microsecond set-up has no meaningful percentage.
const SETUP_SLACK_S: f64 = 0.05;

fn scale_word(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Smoke => "smoke",
    }
}

/// Run one workload in a child process; its report goes through to our
/// standard output and its result line comes back parsed.
fn run_child(name: &str, args: &RunArgs, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            name,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--scale",
            scale_word(args.scale),
        ])
        .arg("--out")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, line) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{report}");
    let result = json::parse(line).map_err(|e| format!("{name} printed no result line: {e}"))?;
    if !out.status.success() && result.get("correct") != Some(&Value::Bool(false)) {
        return Err(format!("{name} exited with {}", out.status));
    }
    Ok(result)
}

fn run_set(args: &RunArgs) -> Result<Value, String> {
    let mut workloads = Vec::new();
    for w in &schema::WORKLOADS {
        let untraced = run_child(w.name, args, false)?;
        let traced = run_child(w.name, args, true)?;
        let both = |key: &str| {
            [&untraced, &traced]
                .iter()
                .map(|r| r.get(key).cloned().unwrap_or(Value::Null))
                .collect::<Vec<_>>()
        };
        let correct = both("correct").iter().all(|v| *v == Value::Bool(true));
        let total = |key: &str| both(key).iter().filter_map(Value::as_f64).sum::<f64>();
        workloads.push(Value::obj([
            ("name", Value::str(w.name)),
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(total("attempted"))),
            ("failed", Value::Num(total("failed"))),
            (
                "end_to_end",
                untraced.get("metrics").cloned().unwrap_or(Value::Null),
            ),
            (
                "per_layer",
                traced.get("metrics").cloned().unwrap_or(Value::Null),
            ),
        ]));
    }
    Ok(Value::obj([("workloads", Value::Arr(workloads))]))
}

/// Run `sets` whole sets, write them to one result file and, with
/// `check`, require every later set to agree with the first.
pub fn run_sets(args: &RunArgs, sets: usize, check: bool) -> ExitCode {
    let mut done = Vec::new();
    for s in 0..sets {
        println!("== set {} of {sets} ==", s + 1);
        match run_set(args) {
            Ok(set) => done.push(set),
            Err(e) => {
                eprintln!("multimap-benchmark: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let doc = Value::obj([
        ("seed", Value::Num(args.seed as f64)),
        ("scale", Value::str(scale_word(args.scale))),
        ("seconds", Value::Num(args.seconds)),
        ("nproc", Value::Num(host::nproc() as f64)),
        ("sets", Value::Arr(done)),
    ]);
    let path = args.out_dir.join(format!("results-seed{}.json", args.seed));
    if let Err(e) = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, doc.render() + "\n"))
    {
        eprintln!("multimap-benchmark: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("results written to {}", path.display());

    let side = Side::of(&doc);
    let mut ok = side.all_correct;
    if !ok {
        println!("a workload reported an incorrect run");
    }
    if check {
        ok &= sets_agree(&side);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One result file, flattened: values per (workload, metric), one per set.
struct Side {
    seed: f64,
    all_correct: bool,
    /// `(workload, metric, unit, values across sets)`.
    rows: Vec<(String, String, String, Vec<f64>)>,
}

impl Side {
    fn of(doc: &Value) -> Side {
        let mut side = Side {
            seed: doc.get("seed").and_then(Value::as_f64).unwrap_or(f64::NAN),
            all_correct: true,
            rows: Vec::new(),
        };
        for set in doc.get("sets").and_then(Value::as_arr).unwrap_or(&[]) {
            for w in set.get("workloads").and_then(Value::as_arr).unwrap_or(&[]) {
                let name = w.get("name").and_then(Value::as_str).unwrap_or("?");
                side.all_correct &= w.get("correct") == Some(&Value::Bool(true));
                let metrics = ["end_to_end", "per_layer"]
                    .iter()
                    .filter_map(|k| w.get(k).and_then(Value::as_obj))
                    .flatten()
                    // The digest is the one per-layer value held to a bound.
                    .filter(|(m, _)| schema::bound_of(m).is_some() || m == "bench.sim_digest48");
                for (metric, v) in metrics {
                    let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                    let unit = v.get("unit").and_then(Value::as_str).unwrap_or("");
                    match side.rows.iter_mut().find(|r| r.0 == name && r.1 == *metric) {
                        Some(row) => row.3.push(value),
                        None => {
                            side.rows
                                .push((name.into(), metric.clone(), unit.into(), vec![value]))
                        }
                    }
                }
            }
        }
        side
    }
}

fn is_exact(metric: &str) -> bool {
    schema::is_exact(metric) || metric == "bench.sim_digest48"
}

/// `repeat`: every later set against the first, same code and seed.
fn sets_agree(side: &Side) -> bool {
    let mut ok = true;
    println!(
        "{:<15} {:<22} {:>18} {:>18} {:>9}  verdict",
        "workload", "metric", "set 1", "set n", "bound"
    );
    for (workload, metric, _, values) in &side.rows {
        let first = values[0];
        for &v in &values[1..] {
            let (bound, agrees) = if is_exact(metric) {
                (0.0, v.to_bits() == first.to_bits())
            } else {
                let bound = schema::bound_of(metric).unwrap_or(0.0);
                let within = (v - first).abs() <= bound * first.abs();
                (
                    bound,
                    within || (metric == "setup_s" && (v - first).abs() <= SETUP_SLACK_S),
                )
            };
            ok &= agrees;
            println!(
                "{workload:<15} {metric:<22} {first:>18.6} {v:>18.6} {bound:>9.2}  {}",
                if agrees { "agrees" } else { "DIFFERS" }
            );
        }
    }
    ok
}

fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (lo, hi) = (quantile(values, 0.25), quantile(values, 0.75));
    (hi - lo) / quantile(values, 0.5).abs()
}

fn load(path: &str) -> Result<Side, String> {
    let text =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(Side::of(
        &json::parse(&text).map_err(|e| format!("{path}: {e}"))?,
    ))
}

/// `compare A.json B.json`: one row per workload × metric.
pub fn compare_files(a: &str, b: &str) -> ExitCode {
    let (base, new) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("multimap-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // With one seed on both sides the simulation must repeat exactly.
    let same_seed = base.seed.to_bits() == new.seed.to_bits();
    let mut worse = 0;
    println!(
        "{:<15} {:<22} {:>16} {:>16} {:>6} {:>20} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "unit", "B/A (base A)", "bound"
    );
    for (workload, metric, unit, a_values) in &base.rows {
        let Some((_, _, _, b_values)) =
            new.rows.iter().find(|r| r.0 == *workload && r.1 == *metric)
        else {
            println!("{workload:<15} {metric:<22} missing from B");
            worse += 1;
            continue;
        };
        let (ma, mb) = (quantile(a_values, 0.5), quantile(b_values, 0.5));
        let bound = if same_seed && is_exact(metric) {
            0.0
        } else {
            schema::bound_of(metric).unwrap_or(0.0)
        };
        let lower_is_better = schema::better_of(metric) != Some(Better::Higher);
        let worse_by = if lower_is_better {
            (mb - ma) / ma.abs()
        } else {
            (ma - mb) / ma.abs()
        };
        let b_beats_all_a = a_values.iter().all(|&x| {
            b_values
                .iter()
                .all(|&y| if lower_is_better { y < x } else { y > x })
        });
        let verdict = if metric == "bench.sim_digest48" {
            match (same_seed, ma.to_bits() == mb.to_bits()) {
                (true, true) => "same",
                (true, false) => "worse",
                (false, _) => "other seed",
            }
        } else if spread(a_values).max(spread(b_values)) > bound && bound > 0.0 {
            if b_beats_all_a {
                "better"
            } else {
                "unresolved"
            }
        } else if worse_by > bound {
            "worse"
        } else if worse_by < -bound {
            "better"
        } else {
            "same"
        };
        worse += usize::from(verdict == "worse");
        println!(
            "{workload:<15} {metric:<22} {ma:>16.6} {mb:>16.6} {unit:>6} {:>9.4} ({ma:>9.4}) {bound:>7.2}  {verdict}",
            mb / ma
        );
    }
    if !base.all_correct || !new.all_correct {
        println!("a workload reported an incorrect run");
        return ExitCode::FAILURE;
    }
    ExitCode::from(u8::from(worse > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(seed: f64, sets: &[&[(&str, f64)]]) -> Value {
        Value::obj([
            ("seed", Value::Num(seed)),
            (
                "sets",
                Value::Arr(
                    sets.iter()
                        .map(|metrics| {
                            let members = metrics.iter().map(|&(m, v)| {
                                (
                                    m,
                                    Value::obj([
                                        ("value", Value::Num(v)),
                                        ("unit", Value::str("x")),
                                    ]),
                                )
                            });
                            Value::obj([(
                                "workloads",
                                Value::Arr(vec![Value::obj([
                                    ("name", Value::str("beam_sweep")),
                                    ("correct", Value::Bool(true)),
                                    ("end_to_end", Value::obj(members)),
                                ])]),
                            )])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn sets_of_the_same_code_agree_within_bounds_and_exactly_on_sim() {
        let agree = doc(
            1.0,
            &[
                &[
                    ("host_ops_per_s", 1000.0),
                    ("sim_io_ms_per_cell", 1.5),
                    ("setup_s", 0.001),
                ],
                &[
                    ("host_ops_per_s", 1050.0),
                    ("sim_io_ms_per_cell", 1.5),
                    ("setup_s", 0.004),
                ],
            ],
        );
        assert!(sets_agree(&Side::of(&agree)));
        let host_off = doc(
            1.0,
            &[
                &[("host_ops_per_s", 1000.0)],
                &[(
                    "host_ops_per_s",
                    1000.0 * (1.0 + 2.0 * schema::bound_of("host_ops_per_s").unwrap()),
                )],
            ],
        );
        assert!(!sets_agree(&Side::of(&host_off)));
        let sim_off = doc(
            1.0,
            &[
                &[("sim_io_ms_per_cell", 1.5)],
                &[("sim_io_ms_per_cell", 1.5000001)],
            ],
        );
        assert!(!sets_agree(&Side::of(&sim_off)));
    }

    #[test]
    fn flattening_keeps_one_value_per_set_and_drops_unbounded_layer_metrics() {
        let d = doc(
            3.0,
            &[
                &[("host_ops_per_s", 1.0), ("disksim.locate_ns", 9.0)],
                &[("host_ops_per_s", 2.0)],
            ],
        );
        let side = Side::of(&d);
        assert_eq!(side.rows.len(), 1);
        assert_eq!(side.rows[0].3, vec![1.0, 2.0]);
        assert!((spread(&[1.0, 2.0, 3.0, 4.0]) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
