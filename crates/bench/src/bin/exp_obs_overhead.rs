//! E21 — observability overhead: instrumentation must be free when
//! disabled and must never perturb results.
//!
//! Runs the same protocol workload (fault-free runs plus a 6-node
//! fault-injection sweep) under three recorder configurations — disabled,
//! `NoopSink`, `MemorySink` — and asserts every report is bit-identical:
//! instrumentation only *reads* protocol state, so the sink choice cannot
//! change a single output. Wall-clock medians over interleaved batches
//! check that the disabled fast path (one relaxed atomic load per site) is
//! not measurably slower than the fully-enabled paths that do strictly
//! more work. Finally streams the fault sweep through a `JsonlSink` to
//! `results/exp_obs_overhead.trace.jsonl` (summarize it with `dls-trace`)
//! and renders one recovery timeline to `results/obs_timeline.svg`.
//!
//! This binary deliberately does **not** honor `DLS_TRACE`
//! (`obs::init_from_env`): it manages sinks itself, and an ambient sink
//! would corrupt the disabled-path baseline.
//!
//! ```sh
//! cargo run --release -p bench --bin exp_obs_overhead
//! ```

use bench::{fault_chain, JsonReport, Table};
use obs::{JsonlSink, MemorySink, NoopSink};
use protocol::{run, run_with_faults, FaultKind, FaultPlan, FtRunReport, RunReport};
use std::sync::Arc;
use std::time::Instant;

/// Crash plans covering every node and phase of the 6-node chain, plus a
/// stall, a drop, a delay and a corruption — the fault side of the
/// workload and the sweep streamed to the JSONL trace.
fn fault_plans(m: usize) -> Vec<FaultPlan> {
    let mut plans = Vec::new();
    for node in 1..=m {
        for phase in 1..=4u8 {
            let progress = if phase == 3 { 0.5 } else { 0.0 };
            plans.push(FaultPlan::crash(node, phase, progress));
        }
    }
    plans.push(FaultPlan::none().with_event(2, FaultKind::Stall { progress: 0.5 }));
    plans.push(FaultPlan::none().with_event(3, FaultKind::DropMessage { phase: 2 }));
    plans.push(FaultPlan::none().with_event(
        1,
        FaultKind::DelayMessage {
            phase: 3,
            delay: 0.05,
        },
    ));
    plans.push(FaultPlan::none().with_event(m, FaultKind::CorruptMessage { phase: 4 }));
    plans
}

/// The fixed workload every recorder configuration executes.
fn workload() -> (Vec<RunReport>, Vec<FtRunReport>) {
    let plain: Vec<RunReport> = (2..=5).map(|m| run(&fault_chain(m))).collect();
    let s = fault_chain(5); // 6-node chain: root + 5 strategic processors
    let faulty: Vec<FtRunReport> = fault_plans(5)
        .iter()
        .map(|plan| run_with_faults(&s, plan).expect("valid plan"))
        .collect();
    (plain, faulty)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    println!("E21: observability overhead — disabled-path cost and report identity");
    println!();
    obs::uninstall(); // defensive: the baseline must run with no sink

    // ---- Bit-identical reports across recorder configurations ----
    let baseline = workload();

    obs::install(Arc::new(NoopSink));
    let under_noop = workload();
    obs::uninstall();

    let memory = Arc::new(MemorySink::new());
    obs::install(memory.clone());
    let under_memory = workload();
    obs::uninstall();

    assert_eq!(baseline, under_noop, "NoopSink perturbed a report");
    assert_eq!(baseline, under_memory, "MemorySink perturbed a report");
    assert_eq!(
        format!("{baseline:?}"),
        format!("{under_memory:?}"),
        "reports differ at the representation level"
    );
    // Prove the instrumentation actually fired while enabled.
    assert!(memory.counter_total("protocol.messages") > 0.0);
    assert!(memory.counter_total("protocol.ft.detection_timeouts") > 0.0);
    assert!(!memory.histogram("protocol.makespan").is_empty());
    println!(
        "reports bit-identical across disabled / NoopSink / MemorySink \
         ({} fault-free + {} fault runs; MemorySink captured {} records)",
        baseline.0.len(),
        baseline.1.len(),
        memory.len(),
    );
    println!();

    // ---- Disabled-path overhead: interleaved batch medians ----
    const BATCHES: usize = 5;
    workload(); // warm-up, untimed
    let mut disabled_times = Vec::with_capacity(BATCHES);
    let mut noop_times = Vec::with_capacity(BATCHES);
    let mut memory_times = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        workload();
        disabled_times.push(t.elapsed().as_secs_f64());

        obs::install(Arc::new(NoopSink));
        let t = Instant::now();
        workload();
        noop_times.push(t.elapsed().as_secs_f64());
        obs::uninstall();

        obs::install(Arc::new(MemorySink::new()));
        let t = Instant::now();
        workload();
        memory_times.push(t.elapsed().as_secs_f64());
        obs::uninstall();
    }
    let disabled_med = median(&mut disabled_times);
    let noop_med = median(&mut noop_times);
    let memory_med = median(&mut memory_times);
    println!("workload wall time, median of {BATCHES} interleaved batches:");
    let mut t = Table::new(&["recorder", "median (ms)", "vs disabled"]);
    for (name, med) in [
        ("disabled", disabled_med),
        ("NoopSink", noop_med),
        ("MemorySink", memory_med),
    ] {
        t.row(vec![
            name.to_string(),
            format!("{:.2}", 1e3 * med),
            format!("{:+.1}%", 100.0 * (med / disabled_med - 1.0)),
        ]);
    }
    t.print();
    // The disabled path does strictly less work than the enabled paths; a
    // generous noise margin keeps this robust on loaded CI machines.
    assert!(
        disabled_med <= noop_med * 1.5,
        "disabled path measurably slower than NoopSink: {disabled_med}s vs {noop_med}s"
    );
    println!("disabled-path overhead unmeasurable (within noise of the enabled paths)");
    println!();

    // ---- Stream the 6-node fault sweep to a JSONL trace ----
    std::fs::create_dir_all("results").expect("create results/");
    let trace_path = "results/exp_obs_overhead.trace.jsonl";
    let sink = JsonlSink::create(trace_path).expect("create trace file");
    obs::install(Arc::new(sink));
    let s = fault_chain(5);
    let mut sweep_runs = 0usize;
    for plan in fault_plans(5) {
        run_with_faults(&s, &plan).expect("valid plan");
        sweep_runs += 1;
    }
    obs::uninstall(); // flushes the JSONL writer
    let trace_text = std::fs::read_to_string(trace_path).expect("read trace back");
    let mut trace_records = 0usize;
    for (i, line) in trace_text.lines().enumerate() {
        minijson::Value::parse(line)
            .unwrap_or_else(|e| panic!("trace line {} is not valid JSON: {e}", i + 1));
        trace_records += 1;
    }
    assert!(trace_records > 0, "trace is empty");
    println!(
        "JSONL trace: {sweep_runs} fault runs on the 6-node chain -> {trace_records} records \
         in {trace_path}"
    );
    println!("  summarize with: cargo run --release -p bench --bin dls-trace -- {trace_path}");

    // ---- Render one recovery timeline ----
    let ft = run_with_faults(&s, &FaultPlan::crash(3, 3, 0.5)).expect("valid plan");
    let svg = sim::render_timeline_svg(&ft.timeline);
    assert!(svg.contains("<svg"), "timeline SVG missing root element");
    let svg_path = "results/obs_timeline.svg";
    std::fs::write(svg_path, &svg).expect("write timeline SVG");
    println!(
        "timeline SVG: mid-computation crash of P3 (makespan {:.4}) -> {svg_path}",
        ft.timeline.makespan
    );
    println!();

    // ---- JSON mirror ----
    let mut report = JsonReport::new("exp_obs_overhead");
    report
        .scalar("fault_free_runs", baseline.0.len() as f64)
        .scalar("fault_runs", baseline.1.len() as f64)
        .scalar("memory_sink_records", memory.len() as f64)
        .scalar("trace_records", trace_records as f64)
        .scalar("disabled_median_s", disabled_med)
        .scalar("noop_median_s", noop_med)
        .scalar("memory_median_s", memory_med)
        .text("trace_path", trace_path)
        .text("timeline_svg", svg_path);
    report
        .write("results/exp_obs_overhead.json")
        .expect("write JSON mirror");
    println!("JSON mirror: results/exp_obs_overhead.json");
    println!();
    println!("PASS: E21 observability is free when disabled and never perturbs reports");
}
