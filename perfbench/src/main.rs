//! The benchmark binary; run it through `perfbench/run.py`, which
//! builds it first:
//!
//! ```text
//! croxmap-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! Prints a human-readable report, then one JSON result line.

#![forbid(unsafe_code)]

use croxmap_perfbench::clock::Stopwatch;
use croxmap_perfbench::metrics::{self, Metric, END_TO_END, PER_LAYER};
use croxmap_perfbench::op::{assess, run_op, Outcome, Reason};
use croxmap_perfbench::replay::{replay_op, Layers};
use croxmap_perfbench::trace::Tracer;
use croxmap_perfbench::workload::{setup, Instance, Workload};
use std::process::ExitCode;

/// Instances a traced run of a multi-threaded workload also runs at
/// threads = 1, for `parallel.t1_wall_s` and `parallel.speedup`.
const T1_REPLAYS: usize = 2;

/// Set-ups timed before the first op. One more is timed after every op,
/// so that `setup_s`, their median, samples the whole run rather than one
/// moment of it.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut trace_out) = (0u64, 10.0, false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--trace-out" => trace_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
    })
}

fn same_result(a: &Outcome, b: &Outcome) -> bool {
    a.keys == b.keys
        && a.area.to_bits() == b.area.to_bits()
        && a.packets == b.packets
        && a.failures == b.failures
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = &args.workload;
    let mut setup_s = Vec::new();
    let mut instances: Vec<Instance> = Vec::new();
    for _ in 0..SETUP_REPS {
        let watch = Stopwatch::start();
        let fresh = setup(w, args.seed)?;
        setup_s.push(watch.seconds());
        instances = fresh;
    }
    println!(
        "perfbench workload={} seed={} trace={} flow={:?} scale=1/{} pool={:?} threads={} budget={} det-s instances={}",
        w.name,
        args.seed,
        u8::from(args.trace),
        w.flow,
        w.scale,
        w.pool,
        w.threads,
        w.budget,
        instances.len()
    );

    // The traced run replays each instance once; the untraced run makes
    // whole passes over them, as many as `--seconds` holds at the
    // workload's nominal pass time. The count never depends on the clock,
    // so `attempted` and `failed` repeat exactly for a seed.
    let passes = if args.trace {
        1
    } else {
        w.passes(args.seconds)
    };
    let mut ops: Vec<Outcome> = Vec::new();
    let mut layers = Layers::new();
    let mut tracer = Tracer::new();
    let mut overhead = Vec::new();
    let mut t1_walls = Vec::new();
    let mut mismatches = 0usize;
    for instance in std::iter::repeat_n(&instances, passes).flatten() {
        let mut outcome = run_op(w, instance);
        if args.trace {
            tracer.set_op(ops.len());
            let replay_watch = Stopwatch::start();
            // One root span per op: its self time is the replay's glue
            // between the public calls.
            let raw = tracer.span("op", |t| replay_op(t, &mut layers, w, instance));
            let replay_wall = replay_watch.seconds();
            let replayed = assess(w, instance, &raw, replay_wall);
            overhead.push(replay_wall - outcome.wall_s);
            if !same_result(&outcome, &replayed) {
                mismatches += 1;
                outcome.failures.push(Reason::ReplayMismatch);
            }
            if w.threads > 1 && t1_walls.len() < T1_REPLAYS {
                let t1 = Workload {
                    threads: 1,
                    ..w.clone()
                };
                t1_walls.push((run_op(&t1, instance).wall_s, outcome.wall_s));
            }
        }
        ops.push(outcome);
        let setup_watch = Stopwatch::start();
        let _fresh = setup(w, args.seed)?;
        setup_s.push(setup_watch.seconds());
    }
    let rss = metrics::peak_rss_mb()?;
    let e2e = metrics::end_to_end(&setup_s, &ops, instances.len(), rss);
    let failed = ops.iter().filter(|o| !o.ok()).count();
    let correct = !ops
        .iter()
        .flat_map(|o| &o.failures)
        .any(|r| r.is_wrong_output());

    println!("ops (instance, wall s, det-s, ns/tick, failures):");
    for (k, o) in ops.iter().enumerate() {
        let reasons: Vec<&str> = o.failures.iter().map(|r| r.name()).collect();
        println!(
            "  {k:>3} {:>3} {:>9.4} {:>8.4} {:>7.2} {}",
            k % instances.len(),
            o.wall_s,
            o.det_s,
            if o.det_s > 0.0 {
                o.wall_s / o.det_s
            } else {
                0.0
            },
            reasons.join(",")
        );
    }
    println!(
        "end-to-end ({} ops, {passes} pass(es), closed loop, 1 client):",
        ops.len()
    );
    print!("{}", metrics::render(&e2e));
    let by_reason = metrics::failures_by_reason(&ops);
    if !by_reason.is_empty() {
        let list: Vec<String> = by_reason
            .iter()
            .map(|(r, n)| format!("{}={n}", r.name()))
            .collect();
        println!("failed ops by reason: {}", list.join(" "));
    }
    let line = if args.trace {
        metrics::add_span_totals(&mut layers, &tracer);
        let n = ops.len() as f64;
        let mut extra = vec![
            Metric {
                name: "trace.overhead_s".into(),
                value: overhead.iter().sum::<f64>() / n,
                unit: "s",
                note: "traced minus untraced wall, per op".into(),
            },
            Metric {
                name: "trace.spans".into(),
                value: tracer.spans().len() as f64 / n,
                unit: "count",
                note: "per op".into(),
            },
            Metric {
                name: "trace.replay_mismatches".into(),
                value: mismatches as f64,
                unit: "count",
                note: "ops whose replay differed from the untraced op".into(),
            },
            Metric {
                name: "check.phase_sum_mismatches".into(),
                value: f64::from(u8::from(!layers.phases_exact)),
                unit: "count",
                note: "1 if any solve's phase ticks did not sum to its det ticks".into(),
            },
            Metric {
                name: "check.failed_ops".into(),
                value: failed as f64,
                unit: "count",
                note: format!("of {} ops", ops.len()),
            },
        ];
        if !t1_walls.is_empty() {
            let t1: f64 = t1_walls.iter().map(|w| w.0).sum();
            let tn: f64 = t1_walls.iter().map(|w| w.1).sum();
            extra.push(Metric {
                name: "parallel.t1_wall_s".into(),
                value: t1 / t1_walls.len() as f64,
                unit: "s",
                note: format!(
                    "the first {} ops rerun at threads = 1, per op",
                    t1_walls.len()
                ),
            });
            extra.push(Metric {
                name: "parallel.speedup".into(),
                value: t1 / tn,
                unit: "x",
                note: format!("t1 wall / t{} wall over the same ops", w.threads),
            });
        }
        let layer_metrics = metrics::per_layer(&layers, &extra);
        println!("per layer (traced replay of {} ops):", ops.len());
        print!("{}", metrics::render(&layer_metrics));
        print!("{}", metrics::calibration_table(&layers));
        println!("self time by span (s, summed over ops):");
        for (name, (count, secs)) in tracer.self_times() {
            println!("  {name:<26} {secs:>10.4} s  spans {count}");
        }
        if let Some(path) = &args.trace_out {
            std::fs::write(path, tracer.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
            println!("spans written to {path}");
        }
        let correct = correct && mismatches == 0 && layers.phases_exact;
        metrics::result_line(correct, ops.len(), failed, &layer_metrics, &PER_LAYER)?
    } else {
        metrics::result_line(correct, ops.len(), failed, &e2e, &END_TO_END)?
    };
    println!("{line}");
    Ok(())
}
