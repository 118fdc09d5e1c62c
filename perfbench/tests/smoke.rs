//! Tiny-size runs of every workload: each must pass its correctness
//! gates, traced and untraced, and emit exactly the metric names that
//! `BENCHMARK.json` lists.

use perfbench::stats::valid_name;
use perfbench::{run, Outcome, Scale, Sizes, Workload};
use std::collections::BTreeSet;
use std::path::Path;

fn tiny() -> Sizes {
    Sizes {
        main: Scale {
            records: 60,
            pairs: 12,
            min_joins: 2,
            cycles: 2,
            inserts_per_cycle: 16,
            recoveries_per_cycle: 2,
        },
        side: Scale {
            records: 40,
            pairs: 8,
            min_joins: 2,
            cycles: 2,
            inserts_per_cycle: 8,
            recoveries_per_cycle: 2,
        },
        setups: 2,
        brute_rows: 6,
        min_searches: 40,
        topk_checks: 3,
        battery: 16,
    }
}

fn smoke(workload: Workload, traced: bool) -> Outcome {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    let out = run(workload, 7, 0.0, traced, &tiny(), &root);
    assert_eq!(out.failure, None, "{} traced={traced}", workload.name());
    assert!(out.attempted > 0);
    out
}

/// `"name"` values of the entries of one top-level list of BENCHMARK.json.
fn listed(section: &str) -> BTreeSet<String> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

fn emitted(out: &Outcome) -> BTreeSet<String> {
    out.metrics
        .names()
        .map(str::to_string)
        .chain(out.metrics.missing.iter().cloned())
        .collect()
}

#[test]
fn every_workload_passes_its_gates_and_emits_the_listed_metrics() {
    let (e2e, per_layer) = (listed("end_to_end"), listed("per_layer"));
    assert!(e2e.is_disjoint(&per_layer));
    for w in Workload::ALL {
        let plain = smoke(w, false);
        let traced = smoke(w, true);
        assert!(traced
            .tracer
            .spans()
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.request > 0));
        assert!(plain.tracer.spans().is_empty());
        // The untraced run computes the end-to-end metrics only; the
        // traced one computes both sets.
        assert_eq!(emitted(&plain), e2e, "{}", w.name());
        let both: BTreeSet<String> = e2e.union(&per_layer).cloned().collect();
        assert_eq!(emitted(&traced), both, "{}", w.name());
        for name in &both {
            assert!(valid_name(name), "{name}");
        }
    }
    let names: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
    assert_eq!(listed("workloads"), names);
}

#[test]
fn same_seed_gives_same_counts() {
    let a = smoke(Workload::JoinMed, true);
    let b = smoke(Workload::JoinMed, true);
    for name in [
        "core.candidates",
        "core.processed_pairs",
        "core.tier.enum_rejects",
        "serve.wal.frames",
    ] {
        assert_eq!(a.metrics.get(name), b.metrics.get(name), "{name}");
    }
}
