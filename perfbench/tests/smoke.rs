//! Smoke test of the benchmark at `Scale::Test`-sized inputs: every
//! metric `BENCHMARK.json` names is emitted with its unit, and the
//! residual gate fails a wrong answer.

use std::collections::BTreeMap;

use matgen::{MatrixKind, Scale};
use pdslin::{Pdslin, PdslinConfig, PdslinError, SolveOutcome};
use pdslin_service::json::Json;
use perfbench::gate::Ops;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{Size, Workload};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one metric list of `BENCHMARK.json`.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
    catalogue
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let doc = benchmark_json();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let expected: BTreeMap<String, String> = listed(&doc, key).into_iter().collect();
        for w in Workload::ALL {
            let rep = perfbench::run(w, Size::Smoke, 7, 0.5, trace)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
            let line = Json::parse(&rep.result_line().unwrap()).unwrap();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{}", w.name());
            assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
            assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("metrics is an object");
            };
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).unwrap().into(),
                    )
                })
                .collect();
            assert_eq!(got, expected, "{} trace={trace}", w.name());
        }
    }
}

#[test]
fn residual_gate_fails_a_perturbed_solution() {
    let a = matgen::generate(MatrixKind::G3Circuit, Scale::Test);
    let mut solver = Pdslin::setup(&a, PdslinConfig::default()).unwrap();
    let b: Vec<f64> = (0..a.nrows()).map(|i| (i % 7) as f64 - 3.0).collect();
    let out: SolveOutcome = solver.solve(&b).unwrap();
    let mut ops = Ops::default();
    assert!(ops.record_solve(&a, &b, &Ok(out.clone())));

    let mut wrong = out.clone();
    wrong.x[a.nrows() / 2] += 1e-3;
    assert!(!ops.record_solve(&a, &b, &Ok(wrong)));

    let mut unconverged = out;
    unconverged.converged = false;
    assert!(!ops.record_solve(&a, &b, &Ok(unconverged)));

    let err: Result<SolveOutcome, PdslinError> = Err(PdslinError::InvalidInput {
        message: "test".to_string(),
    });
    assert!(!ops.record_solve(&a, &b, &err));
    assert_eq!(
        ops,
        Ops {
            attempted: 4,
            failed: 3
        }
    );
}
