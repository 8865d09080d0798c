//! The benchmark checked against itself, at the 300-peer `--quick`
//! scale: replay determinism, the metric contract and failure accounting.

use std::collections::BTreeSet;

use ace_benchmark::replay::run_pass;
use ace_benchmark::run::{run, warm_up, Options, PASSES};
use ace_benchmark::spec::{field, Contract, DEFAULT_SECONDS, END_TO_END, PER_LAYER, WORKLOADS};
use ace_benchmark::trace::Tracer;
use ace_benchmark::world::{setup, Churn, Step};

fn contract() -> Contract {
    Contract::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

#[test]
fn two_passes_end_in_equal_digests_for_every_workload() {
    for w in WORKLOADS {
        let w = w.quick();
        let world = setup(&w, w.default_seed);
        let snap = warm_up(&world);
        let a = run_pass(&world, &snap, &world.script, &mut Tracer::off());
        let b = run_pass(&world, &snap, &world.script, &mut Tracer::on());
        assert_eq!(a.digest, b.digest, "{}: passes diverged", w.name);
        assert_eq!(
            (a.failed, b.failed),
            (0, 0),
            "{}: operations failed",
            w.name
        );
        assert_eq!(a.unit_ns.len(), world.script.len());
        assert_eq!(a.attempted, b.attempted);
    }
}

#[test]
fn seed_rederives_world_script_and_queries() {
    let w = WORKLOADS[1].quick();
    let (a, b, c) = (setup(&w, 5), setup(&w, 5), setup(&w, 6));
    assert_eq!(a.script, b.script);
    assert_eq!(a.specs, b.specs);
    assert_ne!(a.script, c.script);
    assert_ne!(a.specs, c.specs);
    let edges = |o: &ace_overlay::Overlay| -> Vec<_> {
        o.peers().map(|p| o.neighbors(p).to_vec()).collect()
    };
    assert_eq!(edges(&a.overlay0), edges(&b.overlay0));
    assert_ne!(edges(&a.overlay0), edges(&c.overlay0));
}

#[test]
fn emitted_metrics_are_exactly_those_benchmark_json_declares() {
    let contract = contract();
    let names = |defs: &[ace_benchmark::spec::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    let declared_e2e: Vec<(String, String)> = contract
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    let declared_layers: Vec<(String, String)> = contract
        .per_layer
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone().expect("per-layer unit")))
        .collect();
    assert_eq!(declared_e2e, names(&END_TO_END));
    assert_eq!(declared_layers, names(&PER_LAYER));
    let declared_workloads: Vec<&str> =
        contract.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(declared_workloads, WORKLOADS.map(|w| w.name));
    assert_eq!(contract.run_seconds, DEFAULT_SECONDS);

    // Names are used once.
    let all: BTreeSet<&String> = declared_e2e
        .iter()
        .chain(&declared_layers)
        .map(|(n, _)| n)
        .collect();
    assert_eq!(all.len(), declared_e2e.len() + declared_layers.len());
    for m in &contract.end_to_end {
        assert!(m.bound > 0.0, "{}: bound {}", m.name, m.bound);
        assert!(m.better == "lower" || m.better == "higher");
    }

    // Every workload emits every metric of the run's kind, under those
    // names, and writes its span file when traced.
    for w in WORKLOADS {
        let w = w.quick();
        for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let opts = Options {
                seed: w.default_seed,
                trace,
            };
            let report = run(&w, &opts).unwrap_or_else(|e| panic!("{e}"));
            assert!(report.correct, "{}: {:?}", w.name, report.problems);
            assert_eq!(report.failed, 0);
            assert!(report.attempted >= 1);
            let emitted: Vec<_> = report.metrics.iter().map(|m| m.def).collect();
            assert_eq!(emitted, defs, "{} trace={trace}", w.name);
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                assert_eq!(report.passes, PASSES);
                assert!(
                    report.metrics.iter().all(|m| m.value > 0.0),
                    "{}: an end-to-end metric read 0",
                    w.name
                );
            }
        }
        let path = format!("out/trace-{}.json", w.name);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let file: serde::Value = serde_json::from_str(&text).expect("span file is JSON");
        let spans = field(&file, "spans")
            .and_then(|v| v.as_array())
            .expect("span file has spans");
        assert!(spans.len() > w.single_queries);
    }
}

#[test]
fn seconds_scale_the_units_per_pass_and_nothing_else() {
    for w in WORKLOADS {
        // `run_seconds` is the script as written.
        let same = w.for_seconds(DEFAULT_SECONDS);
        assert_eq!(
            (same.head_rounds, same.serve_batches, same.single_queries),
            (w.head_rounds, w.serve_batches, w.single_queries)
        );
        assert_eq!(
            (same.churn_blocks, same.async_units),
            (w.churn_blocks, w.async_units)
        );
        let double = w.for_seconds(2 * DEFAULT_SECONDS);
        assert_eq!(double.head_rounds, 2 * w.head_rounds);
        assert_eq!(double.async_units, 2 * w.async_units);
        assert_eq!((double.peers, double.warm_rounds), (w.peers, w.warm_rounds));
        // However short, the p90 metrics keep their 100 samples.
        let short = w.for_seconds(1);
        assert!(short.single_queries >= 100);
        assert!(short.churn_blocks * short.events_per_block >= 100);
        assert!(short.serve_batches >= 1 && short.async_units >= 1);
    }
}

#[test]
fn failed_operations_are_counted_not_panicked_on() {
    let w = WORKLOADS[0].quick();
    let world = setup(&w, w.default_seed);
    let snap = warm_up(&world);
    let source = world.specs[0].source;
    let bystander = world
        .overlay0
        .peers()
        .find(|&p| p != source)
        .expect("more than one peer");
    let script = vec![
        // Joining a peer that is online is an `Err` from `Overlay::join`.
        Step::Event(bystander, Churn::Join),
        // The query's source leaves, then the query runs.
        Step::Event(source, Churn::Leave),
        Step::Query(0),
        // Leaving twice is an `Err` from `Overlay::leave`.
        Step::Event(source, Churn::Crash),
        Step::Round,
    ];
    let pass = run_pass(&world, &snap, &script, &mut Tracer::off());
    assert_eq!(pass.attempted, 5);
    assert_eq!(pass.failed, 3);
    assert_eq!(pass.unit_ns.len(), script.len());

    // A batch whose source died is skipped by `serve_batch` and counted.
    let script = vec![Step::Event(source, Churn::Leave), Step::BatchAce(0..1)];
    let pass = run_pass(&world, &snap, &script, &mut Tracer::off());
    assert_eq!((pass.attempted, pass.failed), (2, 1));
    assert_eq!(pass.counters.skipped, 1);
}
