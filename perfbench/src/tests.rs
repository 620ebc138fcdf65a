//! Reduced-size self-test: every workload runs end to end at a small
//! scale, traced and untraced; the result names every metric of
//! `BENCHMARK.json` with its unit; and a verdict corrupted inside the
//! test is reported as a failure.

use crate::report::{Run, Scale, END_TO_END, PER_LAYER};
use crate::{execute, WORKLOADS};

fn reduced(workload: &str, trace: bool) -> Run {
    Run::new(workload, 7, 0.6, trace, Scale::REDUCED)
}

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn benchmark_json_metrics(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{list}\""))
        .expect("metric list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("field present");
                let rest = &entry[at + key.len() + 2..];
                let rest = &rest[rest.find('"').expect("value") + 1..];
                rest[..rest.find('"').expect("value ends")].to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The metric names and units of a result line, in order.
fn printed_metrics(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("{\"value\": ")
        .skip(1)
        .zip(metrics.split(": {\"value\"").map(|s| {
            let at = s.rfind('"').expect("name closes");
            let from = s[..at].rfind('"').expect("name opens");
            s[from + 1..at].to_owned()
        }))
        .map(|(rest, name)| {
            let unit = rest.split("\"unit\": \"").nth(1).expect("unit");
            (name, unit[..unit.find('"').expect("unit ends")].to_owned())
        })
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let names = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(benchmark_json_metrics("end_to_end"), names(END_TO_END));
    assert_eq!(benchmark_json_metrics("per_layer"), names(PER_LAYER));
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let mut run = reduced(workload, trace);
            let line = execute(&mut run);
            assert!(
                line.starts_with("{\"correct\": true"),
                "{workload} trace={trace}: {line}"
            );
            let expect = if trace { PER_LAYER } else { END_TO_END };
            let printed = printed_metrics(&line);
            let expect: Vec<(String, String)> = expect
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(printed, expect, "{workload} trace={trace}");
            if !trace {
                for (name, _) in END_TO_END {
                    let v = run.get(name).expect("measured");
                    assert!(v > 0.0, "{workload}: {name} = {v}");
                }
            }
        }
    }
}

#[test]
fn a_corrupted_verdict_is_reported_as_a_failure() {
    for workload in WORKLOADS {
        let mut run = reduced(workload, false);
        run.tamper = true;
        let line = execute(&mut run);
        assert!(
            line.starts_with("{\"correct\": false"),
            "{workload}: {line}"
        );
        assert!(run.failed() >= 1, "{workload}");
        assert!(run.get("ok_pct").expect("ok_pct") < 100.0, "{workload}");
    }
}
