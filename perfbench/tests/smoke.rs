//! The benchmark's own smoke test: every workload at a tiny size (K = 2,
//! a handful of ops), traced and untraced. No op may fail, the
//! determinism guard must hold (a mismatch makes `run` return an error),
//! and every metric the benchmark emits must be declared, with its unit, in
//! `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};

use perfbench::spans::Spans;
use perfbench::{render_json, run, Config, END_TO_END, PER_LAYER, WORKLOADS};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// `(name, unit)` of each entry of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let open = start + text[start..].find('[').expect("list opens");
    let close = open + text[open..].find(']').expect("list closes");
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
    };
    text[open + 1..close]
        .split('}')
        .filter(|e| e.contains("\"name\""))
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let as_owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), as_owned(END_TO_END));
    assert_eq!(declared("per_layer"), as_owned(PER_LAYER));
}

#[test]
fn every_workload_runs_clean_at_smoke_size() {
    // The verify workload reads the repository's sources from the
    // working directory, as the benchmark command runs it.
    std::env::set_current_dir(repo_root()).expect("enter the repository root");
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        for trace in [false, true] {
            let cfg = Config {
                workload: workload.to_string(),
                seed: 7,
                seconds: 0.0,
                trace,
                smoke: true,
            };
            let out = run(&cfg, &mut Spans::new())
                .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"));
            assert!(out.attempted > 0, "{workload}: no ops");
            assert_eq!(
                out.failed, 0,
                "{workload}: fail_share must be 0: {:?}",
                out.notes
            );
            assert!(out.correct, "{workload}: {:?}", out.notes);
            let (emitted, table) = if trace {
                (&out.per_layer, &per_layer)
            } else {
                (&out.end_to_end, &end_to_end)
            };
            assert_eq!(
                emitted.len(),
                table.len(),
                "{workload}: one value per declared metric"
            );
            for (name, value) in emitted.iter() {
                assert!(
                    table.iter().any(|(n, _)| n == name),
                    "{workload}: `{name}` not declared"
                );
                assert!(value.is_finite(), "{workload}: `{name}` = {value}");
            }
            let line = render_json(&out, trace);
            assert!(line.starts_with("{\"correct\": true"), "{line}");
            if !trace {
                for (name, value) in emitted.iter() {
                    assert!(*value > 0.0, "{workload}: end-to-end `{name}` reads 0");
                }
            }
        }
    }
}
