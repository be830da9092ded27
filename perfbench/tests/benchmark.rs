//! The benchmark against its `BENCHMARK.json`, and a smoke run of every
//! workload, untraced and traced, on a reduced matrix and fuzz batch.

use perfbench::stats::valid_metric_name;
use perfbench::workload::{Options, Workload, CYCLES_BASELINE};
use perfbench::{run, PER_LAYER};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use subword_bench::json::Json;

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry in one list of `BENCHMARK.json`.
fn entries(doc: &Json, list: &str) -> Vec<(String, Option<String>)> {
    doc.field(list)
        .and_then(Json::as_arr)
        .expect("list present")
        .iter()
        .map(|e| {
            let name = e.field("name").and_then(Json::as_str).expect("name").to_string();
            let unit = e.get("unit").map(|u| u.as_str().expect("unit is a string").to_string());
            (name, unit)
        })
        .collect()
}

#[test]
fn benchmark_json_names_follow_the_rule_and_match_the_code() {
    let doc = benchmark_json();
    let mut seen = BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for (name, _) in entries(&doc, list) {
            assert!(valid_metric_name(&name), "{list}: bad name {name:?}");
            assert!(seen.insert(name.clone()), "{list}: {name} used twice");
        }
    }
    let workloads: Vec<String> = entries(&doc, "workloads").into_iter().map(|e| e.0).collect();
    let ours: Vec<&str> = Workload::DECLARED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let per_layer: Vec<(String, Option<String>)> =
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), Some(u.to_string()))).collect();
    assert_eq!(entries(&doc, "per_layer"), per_layer);
    let e2e = entries(&doc, "end_to_end");
    assert!(e2e.contains(&("setup_s".into(), Some("s".into()))));
}

fn smoke(workload: Workload, traced: bool) {
    let opts = Options {
        seed: 7,
        smoke: true,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{traced}", workload.name())),
        baseline: repo_root().join(CYCLES_BASELINE),
    };
    let result = run(workload, opts, 0.001, traced);
    assert!(result.correct(), "{}", result.lines.join("\n"));
    assert!(result.attempted > 0);

    let list = if traced { "per_layer" } else { "end_to_end" };
    let expected = entries(&benchmark_json(), list);
    let printed: Vec<(String, Option<String>)> =
        result.metrics.iter().map(|m| (m.name.to_string(), Some(m.unit.to_string()))).collect();
    assert_eq!(printed, expected, "{} prints exactly the {list} metrics", workload.name());
    let text = result.lines.join("\n");
    for (name, _) in &expected {
        assert!(text.contains(name.as_str()), "{name} missing from the report");
    }

    // The last line of the command's output is the result object.
    let json = Json::parse(&result.to_json()).expect("result line parses");
    assert_eq!(json.field("correct").and_then(Json::as_bool), Ok(true));
    let metrics = json.field("metrics").expect("metrics");
    for (name, unit) in &expected {
        let m = metrics.field(name).expect("metric in the result line");
        assert!(m.field("value").and_then(Json::as_f64).is_ok(), "{name} has a number");
        assert_eq!(m.field("unit").and_then(Json::as_str).ok(), unit.as_deref());
    }
}

#[test]
fn smoke_sweep_cold() {
    smoke(Workload::SweepCold, false);
    smoke(Workload::SweepCold, true);
}

#[test]
fn smoke_sweep_warm() {
    smoke(Workload::SweepWarm, false);
    smoke(Workload::SweepWarm, true);
}

#[test]
fn smoke_sweep_ooo() {
    smoke(Workload::SweepOoo, false);
    smoke(Workload::SweepOoo, true);
}

#[test]
fn smoke_fuzz() {
    smoke(Workload::Fuzz, false);
    smoke(Workload::Fuzz, true);
}
