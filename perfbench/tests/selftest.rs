//! The benchmark's small-size self-test: every workload, end-to-end and
//! traced, emits exactly the metrics `BENCHMARK.json` names and passes its
//! own output checks.

use perfbench::{Opts, Scale, END_TO_END, PER_LAYER, WORKLOADS};

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("{list} missing from BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("string ends")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn catalog(c: &[(&str, &str)]) -> Vec<(String, String)> {
    c.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    assert_eq!(declared("end_to_end"), catalog(&END_TO_END));
    assert_eq!(declared("per_layer"), catalog(&PER_LAYER));
}

fn run(workload: &str, trace: bool) -> String {
    let opts = Opts {
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::Small,
    };
    let mut out = perfbench::run(workload, opts).expect("known workload");
    assert_eq!(out.failed, 0, "{workload}: {:?}", out.notes);
    out.result_line(trace)
}

#[test]
fn every_workload_emits_every_metric_and_checks_pass() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let line = run(w, trace);
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{w} trace={trace}: {line}"
            );
            let names = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            for (name, unit) in names {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                assert!(line[at..].contains(&format!("\"unit\": \"{unit}\"")));
            }
            if !trace {
                // End-to-end metrics are never 0.
                assert!(!line.contains("\"value\": 0,"), "{w}: {line}");
            }
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    let opts = Opts {
        seed: 1,
        seconds: 0.1,
        trace: false,
        scale: Scale::Small,
    };
    assert!(perfbench::run("nope", opts).is_none());
}
