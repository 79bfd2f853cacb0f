//! End-to-end checks of the benchmark binary at `--scale smoke`: the
//! result line's shape, bit-exact repeatability of everything simulated,
//! seed sensitivity, the trace file, exit codes, and agreement between
//! the schema and `BENCHMARK.json`.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;
#[allow(dead_code)]
#[path = "../src/schema.rs"]
mod schema;

use std::path::PathBuf;
use std::process::{Command, Output};

use json::Value;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_multimap-benchmark"))
}

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

struct Run {
    result: Value,
    digest: String,
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let out: Output = bench()
        .args([
            "--workload",
            workload,
            "--scale",
            "smoke",
            "--seconds",
            "0.2",
        ])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .arg("--out")
        .arg(out_dir(workload))
        .output()
        .expect("the benchmark binary starts");
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{text}"
    );
    let line = text.trim_end().lines().last().expect("a result line");
    let digest = text
        .split("sim_digest ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("the report names the digest")
        .to_string();
    Run {
        result: json::parse(line).expect("the last line is JSON"),
        digest,
    }
}

fn metrics(run: &Run) -> Vec<(String, f64, String)> {
    run.result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("a metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{name} has no numeric value"));
            (
                name.clone(),
                value,
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("a unit")
                    .to_string(),
            )
        })
        .collect()
}

/// The four smoke runs every workload must pass.
fn check_workload(workload: &str) {
    let a = run(workload, 7, 0);
    let b = run(workload, 7, 0);
    let other_seed = run(workload, 8, 0);
    let traced = run(workload, 7, 1);

    for r in [&a, &b, &other_seed, &traced] {
        let keys: Vec<&str> = r
            .result
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(r.result.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(r.result.get("failed").and_then(Value::as_f64), Some(0.0));
        assert!(
            r.result
                .get("attempted")
                .and_then(Value::as_f64)
                .expect("attempted")
                >= 1.0
        );
    }

    // Untraced: exactly the end-to-end metrics, none zero, schema units.
    let (ma, mb, mc) = (metrics(&a), metrics(&b), metrics(&other_seed));
    let names: Vec<&str> = ma.iter().map(|m| m.0.as_str()).collect();
    assert_eq!(
        names,
        schema::END_TO_END
            .iter()
            .map(|m| m.name)
            .collect::<Vec<_>>()
    );
    for ((name, value, unit), spec) in ma.iter().zip(&schema::END_TO_END) {
        assert_eq!(unit, spec.unit, "{name}");
        assert!(
            *value > 0.0 && value.is_finite(),
            "{workload}: {name} = {value}"
        );
    }

    // Same seed: the simulation repeats bit for bit. Another seed: other
    // inputs, same schema.
    assert_eq!(a.digest, b.digest);
    assert_eq!(
        a.digest, traced.digest,
        "the traced run simulates the same thing"
    );
    assert_ne!(
        a.digest, other_seed.digest,
        "{workload}: the seed does not reach the inputs"
    );
    for ((name, va, _), (_, vb, _)) in ma.iter().zip(&mb) {
        if schema::is_exact(name) {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{workload}: {name} differs between two runs of one seed"
            );
        }
    }
    assert_eq!(names, mc.iter().map(|m| m.0.as_str()).collect::<Vec<_>>());

    // Traced: exactly the per-layer metrics, and a span file whose
    // children point at spans of the same op.
    let mt = metrics(&traced);
    assert_eq!(
        mt.iter().map(|m| m.0.as_str()).collect::<Vec<_>>(),
        schema::PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    let value_of = |name: &str| mt.iter().find(|m| m.0 == name).expect("in the schema").1;
    assert!(value_of("bench.nproc") >= 1.0);
    assert!(value_of("bench.sim_lat_samples") >= 1.0);
    assert_eq!(
        value_of("bench.sim_digest48"),
        (u64::from_str_radix(&a.digest, 16).unwrap() & ((1 << 48) - 1)) as f64
    );
    let trace = std::fs::read_to_string(out_dir(workload).join(format!("trace-{workload}.jsonl")))
        .expect("a trace file");
    let spans: Vec<Value> = trace
        .lines()
        .map(|l| json::parse(l).expect("a JSON span"))
        .collect();
    assert!(!spans.is_empty());
    for s in &spans {
        let num = |k: &str| {
            s.get(k)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("span without {k}"))
        };
        assert!(num("end_ns") >= num("start_ns"));
        assert!(
            s.get("name").and_then(Value::as_str).is_some()
                && s.get("layer").and_then(Value::as_str).is_some()
        );
        if let Some(parent) = s.get("parent").and_then(Value::as_f64) {
            let p = &spans[parent as usize - 1];
            assert_eq!(
                p.get("op_id"),
                s.get("op_id"),
                "a child belongs to its parent's op"
            );
            assert!(parent < num("id"));
        }
    }
}

#[test]
fn smoke_beam_sweep() {
    check_workload("beam_sweep");
}

#[test]
fn smoke_range_scan() {
    check_workload("range_scan");
}

#[test]
fn smoke_sptf_stream() {
    check_workload("sptf_stream");
}

#[test]
fn smoke_cache_stream() {
    check_workload("cache_stream");
}

#[test]
fn smoke_update_mix() {
    check_workload("update_mix");
}

#[test]
fn smoke_serve_steady() {
    check_workload("serve_steady");
}

#[test]
fn smoke_serve_overload() {
    check_workload("serve_overload");
}

#[test]
fn unknown_workload_and_bad_options_exit_2() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--workload", "beam_sweep", "--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate", "1"],
        &["compare", "only-one.json"],
    ] {
        let out = bench()
            .args(args)
            .output()
            .expect("the benchmark binary starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn compare_flags_a_regression_and_accepts_a_rerun() {
    let dir = out_dir("compare");
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str, ops: f64, io: f64| {
        let metric =
            |v: f64, u: &str| Value::obj([("value", Value::Num(v)), ("unit", Value::str(u))]);
        let doc = Value::obj([
            ("seed", Value::Num(1.0)),
            (
                "sets",
                Value::Arr(vec![Value::obj([(
                    "workloads",
                    Value::Arr(vec![Value::obj([
                        ("name", Value::str("beam_sweep")),
                        ("correct", Value::Bool(true)),
                        (
                            "end_to_end",
                            Value::obj([
                                ("host_ops_per_s", metric(ops, "1/s")),
                                ("sim_io_ms_per_cell", metric(io, "ms")),
                            ]),
                        ),
                    ])]),
                )])]),
            ),
        ]);
        let path = dir.join(name);
        std::fs::write(&path, doc.render()).unwrap();
        path
    };
    let base = file("a.json", 1000.0, 1.5);
    let rerun = file("b.json", 1030.0, 1.5);
    let slower = file("c.json", 700.0, 1.5);
    let changed = file("d.json", 1000.0, 1.6);
    let verdicts = |b: &PathBuf| {
        let out = bench().arg("compare").arg(&base).arg(b).output().unwrap();
        (out.status.code(), String::from_utf8(out.stdout).unwrap())
    };
    let (code, text) = verdicts(&rerun);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("same") && !text.contains("worse"));
    let (code, text) = verdicts(&slower);
    assert_eq!(code, Some(1), "{text}");
    assert!(text
        .lines()
        .any(|l| l.contains("host_ops_per_s") && l.ends_with("worse")));
    // One seed on both sides: a simulated metric may not move at all.
    let (code, text) = verdicts(&changed);
    assert_eq!(code, Some(1), "{text}");
    assert!(text
        .lines()
        .any(|l| l.contains("sim_io_ms_per_cell") && l.ends_with("worse")));
}

#[test]
fn benchmark_json_carries_the_schema() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(
        &std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"),
    )
    .expect("valid JSON");
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("paths"),
        Some(&Value::Arr(vec![Value::str("benchmark")]))
    );
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let list = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().to_vec();
    let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
    let workloads: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    assert_eq!(
        workloads,
        schema::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect::<Vec<_>>()
    );
    let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                m.get("bound").and_then(Value::as_f64).unwrap(),
            )
        })
        .collect();
    assert_eq!(
        e2e,
        schema::END_TO_END
            .iter()
            .map(|m| (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.word().to_string(),
                m.bound
            ))
            .collect::<Vec<_>>()
    );
    let layers: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    assert_eq!(
        layers,
        schema::PER_LAYER
            .iter()
            .map(|m| (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.word().to_string()
            ))
            .collect::<Vec<_>>()
    );
    for m in list("per_layer") {
        assert_eq!(
            m.as_obj().unwrap().len(),
            3,
            "per-layer metrics carry no bound"
        );
    }
}
