//! Every workload, timed and traced, on a tiny corpus under two seeds:
//! no operation may fail, and each run reports its full metric set.

use perfbench::{run, Config, Scale, Workload};

/// Every `"name": "…"` value in the repository's `BENCHMARK.json`:
/// workloads, end-to-end metrics and per-layer metrics.
fn benchmark_names() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    text.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

fn cfg(workload: Workload, seed: u64, trace: bool) -> Config {
    Config { workload, seed, seconds: 0.3, trace, scale: Scale::Tiny }
}

#[test]
fn all_workloads_run_clean_under_two_seeds() {
    let listed = benchmark_names();
    for workload in [Workload::HybridPaper, Workload::XoratorPaper, Workload::WireRw] {
        for seed in [1, 2] {
            let timed = run(&cfg(workload, seed, false)).unwrap();
            assert_eq!(timed.tally.failed, 0, "{workload:?} seed {seed}: {:?}", timed.tally.errors);
            assert!(timed.tally.attempted > 0);
            let traced = run(&cfg(workload, seed, true)).unwrap();
            assert_eq!(traced.tally.failed, 0, "{workload:?} traced: {:?}", traced.tally.errors);

            // Both runs report exactly the metrics BENCHMARK.json lists,
            // and every end-to-end metric is positive.
            assert!(listed.iter().any(|l| l == workload.name()));
            let mut names: Vec<&str> = Vec::new();
            for (name, value, _) in &timed.metrics {
                assert!(*value > 0.0, "{workload:?} seed {seed}: {name} = {value}");
                names.push(name);
            }
            names.extend(traced.metrics.iter().map(|m| m.0.as_str()));
            for name in &names {
                assert!(listed.iter().any(|l| l == name), "{name} is not in BENCHMARK.json");
            }
            let workloads = 3;
            assert_eq!(names.len(), listed.len() - workloads, "BENCHMARK.json lists others");
            assert!(traced.get("trace.overhead").unwrap() > 0.0);
            let writes = traced.get("wal.fsyncs_per_commit").unwrap() > 0.0;
            assert_eq!(writes, workload == Workload::WireRw);
        }
    }
}

#[test]
fn the_layer_map_holds_on_the_paper_workloads() {
    let hybrid = run(&cfg(Workload::HybridPaper, 3, true)).unwrap();
    let xorator = run(&cfg(Workload::XoratorPaper, 3, true)).unwrap();
    for f in ["getElm", "findKeyInElm", "getElmIndex", "xtext"] {
        assert_eq!(hybrid.get(&format!("udf.{f}.calls")), Some(0.0));
    }
    assert!(hybrid.get("exec.hash_join.self_ms").unwrap() > 0.0);
    assert!(xorator.get("udf.getElm.calls").unwrap() > 0.0);
    assert!(xorator.get("xadt.get_elm_us_per_kb").unwrap() > 0.0);
    for r in [&hybrid, &xorator] {
        assert_eq!(r.get("wal.bytes_per_commit"), Some(0.0));
        assert_eq!(r.get("net.bytes_per_read"), Some(0.0));
    }
}
