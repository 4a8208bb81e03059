//! The benchmark's own checks: the traced replay reproduces the untraced
//! op bit for bit, ops are deterministic at a seed, the seed argument
//! reaches the generated inputs, and `BENCHMARK.json` declares exactly the
//! metrics the binary prints.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use croxmap_gen::calibrated::{generate, NetworkSpec};
use croxmap_perfbench::metrics::{END_TO_END, PER_LAYER};
use croxmap_perfbench::op::{assess, run_op, Outcome};
use croxmap_perfbench::replay::{replay_op, Layers};
use croxmap_perfbench::trace::Tracer;
use croxmap_perfbench::workload::{network_seed, pixel_seed, setup, Instance, Workload, WORKLOADS};

/// The first instance of `workload` at benchmark seed `seed`.
fn first_instance(workload: &Workload, seed: u64) -> Instance {
    setup(workload, seed)
        .expect("set-up succeeds")
        .into_iter()
        .next()
        .expect("at least one instance")
}

/// Everything about an op that must repeat exactly (all but wall time).
fn deterministic_part(o: &Outcome) -> String {
    format!(
        "{:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
        o.keys,
        o.det_s.to_bits(),
        o.area.to_bits(),
        o.area_gap.map(f64::to_bits),
        o.global_routes.map(f64::to_bits),
        o.routes_gap.map(f64::to_bits),
        o.packets,
        o.pgo_gap.map(f64::to_bits),
        o.failures
    )
}

#[test]
fn traced_replay_reproduces_untraced_op() {
    for workload in &WORKLOADS {
        let instance = first_instance(workload, 0);
        let untraced = run_op(workload, &instance);
        let mut tracer = Tracer::new();
        let mut layers = Layers::new();
        let raw = replay_op(&mut tracer, &mut layers, workload, &instance);
        let replayed = assess(workload, &instance, &raw, 0.0);
        assert_eq!(
            deterministic_part(&untraced),
            deterministic_part(&replayed),
            "{}: replay differs from the entry point",
            workload.name
        );
        assert!(
            layers.phases_exact,
            "{}: PhaseBreakdown ticks do not sum to the solve's det ticks",
            workload.name
        );
        assert!(
            !tracer.spans().is_empty(),
            "{}: no spans recorded",
            workload.name
        );
        for span in tracer.spans() {
            assert!(
                span.end >= span.start,
                "{}: span {} ends before it starts",
                workload.name,
                span.name
            );
            if let Some(parent) = span.parent {
                let p = &tracer.spans()[parent];
                assert!(
                    p.start <= span.start && span.end <= p.end,
                    "child {} outside parent {}",
                    span.name,
                    p.name
                );
            }
        }
    }
}

#[test]
fn ops_repeat_exactly_at_one_seed() {
    for workload in &WORKLOADS {
        let instance = first_instance(workload, 3);
        let a = run_op(workload, &instance);
        let b = run_op(workload, &first_instance(workload, 3));
        assert_eq!(
            deterministic_part(&a),
            deterministic_part(&b),
            "{}: two runs at one seed differ",
            workload.name
        );
    }
}

#[test]
fn seed_argument_changes_the_generated_network() {
    for workload in &WORKLOADS {
        let a = setup(workload, 0).expect("seed 0 sets up");
        let b = setup(workload, 1).expect("seed 1 sets up");
        assert_ne!(a[0].network, b[0].network, "{}", workload.name);
        assert_eq!(a[0].network, setup(workload, 0).expect("repeat")[0].network);
    }
}

#[test]
fn default_seed_reproduces_the_examples_inputs() {
    assert_eq!(network_seed(0, 0), 0xA);
    assert_eq!(pixel_seed(0, 0), 7);
    let area_het = Workload::by_name("area_het").expect("area_het exists");
    let instance = first_instance(&area_het, 0);
    assert_eq!(instance.network, generate(&NetworkSpec::scaled_a(16)));
}

/// Metric names listed in one top-level array of `BENCHMARK.json`.
fn declared(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let rest = &json[start..];
    let end = rest.find(']').expect("array closes");
    rest[..end]
        .split("\"name\"")
        .skip(1)
        .map(|chunk| chunk.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(declared(&json, "end_to_end"), END_TO_END);
    assert_eq!(declared(&json, "per_layer"), PER_LAYER);
    let workloads = declared(&json, "workloads");
    for name in &workloads {
        assert!(Workload::by_name(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn run_length_sets_a_whole_number_of_passes() {
    for workload in &WORKLOADS {
        for (share, passes) in [(0.0, 1), (0.4, 1), (3.0, 3)] {
            let seconds = share * workload.pass_s;
            assert_eq!(workload.passes(seconds), passes, "{}", workload.name);
        }
    }
}
