//! `perfbench`: the co-scheduler benchmark's measuring binary.
//!
//! ```text
//! perfbench measure --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! perfbench gate    --workload <name> --seed <n>
//! ```
//!
//! `measure` runs the workload through the layered pipeline with the
//! `vb-par` worker count pinned to 1, repeating it (at least twice) while
//! another run still fits in `--seconds`. With `--trace 0` it reports the
//! end-to-end metrics of the untraced runs, at the reference host speed of
//! `speed.rs`; with `--trace 1` it alternates untraced and traced runs
//! and reports the per-layer metrics of the traced ones, writing the last
//! traced run's Chrome trace to `--trace-out`. `gate` runs the public
//! end-to-end API at 2 workers and prints its summary digest, which must
//! equal the layered run's. Both print human-readable lines, then one
//! JSON object as the last line. `perfbench/run.py` drives the two.

mod check;
mod layers;
mod speed;
mod stats;
mod timed;
mod workload;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use vb_telemetry::Json;
use workload::{Iteration, Workload};

/// `vb-par` workers of the measured runs.
const WORKERS: usize = 1;
/// `vb-par` workers of the gate's public-API run.
const GATE_WORKERS: usize = 2;
/// Untraced runs a measurement makes at least, so every group's median
/// set-up and run time are taken over two samples or more.
const MIN_RUNS: usize = 2;

struct Args {
    cmd: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().ok_or("missing subcommand (measure | gate)")?;
    if cmd != "measure" && cmd != "gate" {
        return Err(format!("unknown subcommand {cmd:?}"));
    }
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).map(String::as_str);
    let workload = get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")
        .unwrap_or("10")
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        cmd,
        workload,
        seed,
        seconds,
        trace,
        trace_out: get("--trace-out").map(str::to_string),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = if args.cmd == "gate" {
        gate(&args)
    } else {
        measure(&args)
    };
    println!("{}", out.emit());
}

/// One named metric with its unit.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(n, v, u)| {
                    let m = vec![
                        ("value".to_string(), Json::Num(*v)),
                        ("unit".to_string(), Json::from(*u)),
                    ];
                    (n.clone(), Json::Obj(m))
                })
                .collect(),
        )
    }

    fn print(&self, heading: &str) {
        println!("{heading}");
        for (n, v, u) in &self.0 {
            println!("  {n:<32} {v:>16.6} {u}");
        }
    }
}

fn gate(args: &Args) -> Json {
    let t0 = Instant::now();
    let summaries = vb_par::with_threads(GATE_WORKERS, || {
        workload::reference(args.workload, args.seed)
    });
    println!(
        "gate: {} public-API summaries at {GATE_WORKERS} workers in {:.2}s",
        summaries.len(),
        t0.elapsed().as_secs_f64()
    );
    Json::Obj(vec![
        ("workload".into(), args.workload.name().into()),
        ("seed".into(), args.seed.into()),
        ("workers".into(), GATE_WORKERS.into()),
        ("summaries".into(), summaries.len().into()),
        ("digest".into(), check::digest(&summaries).into()),
    ])
}

/// A traced run's observations.
struct Traced {
    it: Iteration,
    snap: vb_telemetry::Snapshot,
    self_times: layers::RunSelfTimes,
    drops: u64,
}

fn measure(args: &Args) -> Json {
    let w = args.workload;
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    let (runs, traced, events) = vb_par::with_threads(WORKERS, || {
        vb_telemetry::set_trace_enabled(false);
        let start = Instant::now();
        let mut runs: Vec<Iteration> = Vec::new();
        let mut traced: Vec<Traced> = Vec::new();
        let mut events = Vec::new();
        loop {
            let iter_start = Instant::now();
            vb_telemetry::reset();
            runs.push(workload::run_layered(w, args.seed, false));
            if args.trace {
                vb_telemetry::reset();
                vb_telemetry::set_trace_enabled(true);
                let it = workload::run_layered(w, args.seed, true);
                vb_telemetry::set_trace_enabled(false);
                let snap = vb_telemetry::snapshot();
                events = vb_telemetry::trace_events();
                traced.push(Traced {
                    it,
                    snap,
                    self_times: layers::run_self_times(&layers::spans_of(&events)),
                    drops: vb_telemetry::trace_drops(),
                });
            }
            // Stop before an iteration that would end past the budget, so
            // a measurement takes --seconds, not up to one iteration more.
            let enough = if args.trace { 1 } else { MIN_RUNS };
            if runs.len() >= enough && start.elapsed() + iter_start.elapsed() > budget {
                break;
            }
        }
        (runs, traced, events)
    });

    // The correctness gate's in-process half: invariants, determinism
    // across repeated runs, and traced == untraced.
    let digest = check::digest(&runs[0].summaries);
    let mut problems: Vec<String> = runs[0].violations.clone();
    for (i, r) in runs.iter().enumerate().skip(1) {
        if check::digest(&r.summaries) != digest {
            problems.push(format!("untraced run {i} differs from run 0"));
        }
    }
    for (i, t) in traced.iter().enumerate() {
        if check::digest(&t.it.summaries) != digest {
            problems.push(format!("traced run {i} differs from the untraced runs"));
        }
        if t.drops != 0 {
            problems.push(format!("traced run {i} dropped {} trace events", t.drops));
        }
    }
    let first = &runs[0];
    if first.bad_plans != 0 {
        problems.push(format!(
            "{} plans did not assign each new app exactly once",
            first.bad_plans
        ));
    }
    for p in &problems {
        println!("gate: FAIL {p}");
    }

    println!(
        "{} seed {}: {} untraced + {} traced runs at {WORKERS} worker(s); digest {digest}",
        w.name(),
        args.seed,
        runs.len(),
        traced.len()
    );
    let list = |f: fn(&Iteration) -> f64| {
        runs.iter()
            .map(|r| format!("{:.4}", f(r)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  per-run wall setup_s:   {}", list(Iteration::setup_s));
    println!("  per-run wall run_s:     {}", list(Iteration::run_s));
    println!(
        "  per-run host slowdown:  {}",
        list(Iteration::median_slowdown)
    );
    let metrics = if args.trace {
        let probe = vb_par::with_threads(WORKERS, || workload::probe_trace(w, args.seed));
        if let Some(path) = &args.trace_out {
            write_trace(path, &events);
        }
        per_layer(&runs, &traced, &probe)
    } else {
        end_to_end(&runs)
    };
    metrics.print(if args.trace {
        "per-layer metrics:"
    } else {
        "end-to-end metrics:"
    });

    Json::Obj(vec![
        ("workload".into(), w.name().into()),
        ("seed".into(), args.seed.into()),
        ("trace".into(), args.trace.into()),
        ("runs".into(), runs.len().into()),
        ("digest".into(), digest.into()),
        ("correct".into(), problems.is_empty().into()),
        ("attempted".into(), first.plan_calls().into()),
        ("failed".into(), first.failed().into()),
        ("metrics".into(), metrics.json()),
    ])
}

fn write_trace(path: &str, events: &[vb_telemetry::TraceEvent]) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, vb_telemetry::chrome_trace_json(events)) {
        Ok(()) => println!("trace: {} events -> {path}", events.len()),
        Err(e) => println!("trace: could not write {path}: {e}"),
    }
}

fn med(runs: &[Iteration], f: impl Fn(&Iteration) -> f64) -> f64 {
    stats::median(&runs.iter().map(f).collect::<Vec<_>>())
}

/// A percentile under the reporting rule; a workload too small for it
/// is a benchmark defect, so it aborts the measurement.
fn pct(label: &str, samples: &[f64], q: f64) -> f64 {
    match stats::percentile(samples, q) {
        Some(p) => {
            println!(
                "  {label} p{:.0}: {:.4} ms over {} samples ({} beyond)",
                q * 100.0,
                p.value,
                p.samples,
                p.beyond
            );
            p.value
        }
        None => {
            eprintln!(
                "perfbench: {label}: {} samples cannot carry a p{:.0}",
                samples.len(),
                q * 100.0
            );
            std::process::exit(3);
        }
    }
}

fn end_to_end(runs: &[Iteration]) -> Metrics {
    let first = &runs[0];
    // Every timing is at the reference host speed (`speed.rs`): the
    // wall-clock of each catalog, `GroupSim::new` and `GroupSim::run`
    // divided by the host slowdown the probe read around it, raised to
    // that segment kind's exponent. `setup_s`
    // and `run_s` sum, part by part, the median over the runs; the epoch
    // percentiles pool every run's epochs.
    let ref_rows = |f: fn(&Iteration) -> &[speed::Timing]| -> Vec<Vec<f64>> {
        runs.iter()
            .map(|r| f(r).iter().map(speed::Timing::ref_s).collect())
            .collect()
    };
    let setup_s = stats::column_sum(&ref_rows(|r| &r.catalog), stats::median)
        + stats::column_sum(&ref_rows(|r| &r.group_new), stats::median);
    let run_s = stats::column_sum(&ref_rows(|r| &r.group_run), stats::median);
    let epoch_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| {
            r.group_run
                .iter()
                .zip(&r.epoch_ms)
                .flat_map(|(t, ms)| ms.iter().map(move |x| x / t.slowdown))
        })
        .collect();
    let pooled_gb: Vec<f64> = first
        .summaries
        .iter()
        .flat_map(|s| s.per_step_gb.iter().copied())
        .collect();
    let sum = |f: fn(&vb_sched::PolicySummary) -> f64| first.summaries.iter().map(f).sum::<f64>();
    let mut m = Metrics(Vec::new());
    m.put("setup_s", setup_s, "s");
    m.put("run_s", run_s, "s");
    m.put(
        "site_days_per_s",
        first.site_days as f64 / (setup_s + run_s),
        "site-days/s",
    );
    m.put("epoch_ms_p50", pct("epoch_ms", &epoch_ms, 0.5), "ms");
    m.put("epoch_ms_p90", pct("epoch_ms", &epoch_ms, 0.9), "ms");
    m.put("peak_rss_mb", workload::proc_status_mb("VmHWM:"), "MB");
    m.put("total_gb", sum(|s| s.total_gb), "GB");
    m.put("p99_gb", vb_stats::Summary::of(&pooled_gb).p99, "GB");
    m.put(
        "unavailable_app_steps",
        sum(|s| s.unavailable_app_steps as f64),
        "app-steps",
    );
    m.put("dropped_apps", sum(|s| s.dropped_apps as f64), "count");
    m.put(
        "failed_epoch_rate",
        first.failed() as f64 / first.plan_calls().max(1) as f64,
        "ratio",
    );
    m
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(runs: &[Iteration], traced: &[Traced], probe: &workload::TraceProbe) -> Metrics {
    // Timings are medians over the traced runs; counts repeat exactly.
    let tmed =
        |f: &dyn Fn(&Traced) -> f64| stats::median(&traced.iter().map(f).collect::<Vec<_>>());
    let t = &traced[0];
    let c = |name: &str| t.snap.counter(name).unwrap_or(0) as f64;
    let span_s =
        |t: &Traced, name: &str| t.snap.span(name).map_or(0.0, |s| s.total_ns as f64 * 1e-9);
    let untraced_run_s = med(runs, Iteration::run_s);
    let run_s = tmed(&|t| t.it.run_s());
    let plan_s = tmed(&|t| t.it.plan_s);
    let rehost_s = tmed(&|t| t.it.rehost_s);
    let sim_new_s = tmed(&|t| t.it.sim_new_s());
    let mip_solve_s = tmed(&|t| span_s(t, "solver.mip_solve"));
    let core_s = tmed(&|t| t.it.run_s() - t.it.plan_s - t.it.rehost_s);
    let steps = t.it.steps as f64;
    let wakeups = c("sched.event_wakeups");
    let stale = c("sched.stale_events");
    let mip_solves = c("solver.mip_solves");
    let lp_solves = c("solver.lp_solves");
    let pivots = c("solver.pivots");
    let node_hits = c("solver.warm_start_hits");
    let node_tries = node_hits + c("solver.warm_start_misses");
    let epoch_hits = t.it.epoch_warm_hits as f64;
    let epoch_tries = epoch_hits + t.it.epoch_warm_misses as f64;
    println!(
        "  ratio bases: stale/wakeups {stale}/{wakeups}, lps/mip {lp_solves}/{mip_solves}, pivots/lp {pivots}/{lp_solves}, \
         node warm {node_hits}/{node_tries}, epoch warm {epoch_hits}/{epoch_tries}, trace overhead base run_s {untraced_run_s:.4}"
    );

    let mut m = Metrics(Vec::new());
    m.put("trace.catalog_s", tmed(&|t| t.it.catalog_s()), "s");
    m.put("trace.synth_s", probe.synth_s, "s");
    m.put("trace.forecast_s", probe.forecast_s, "s");
    m.put("trace.samples", probe.samples as f64, "count");
    m.put("sched.setup_s", sim_new_s, "s");
    m.put(
        "sched.precompute_s",
        sim_new_s - probe.synth_s - probe.forecast_s,
        "s",
    );
    m.put("sched.setup_rss_mb", t.it.setup_rss_mb, "MB");

    m.put("sched.core_s", core_s, "s");
    m.put("sched.steps", steps, "count");
    m.put("sched.core_ns_per_step", core_s * 1e9 / steps, "ns");
    m.put(
        "sched.vm_decisions",
        t.it.summaries.iter().map(|s| s.vm_decisions as f64).sum(),
        "count",
    );
    m.put("sched.transfers", c("sched.transfers"), "count");
    m.put("sched.rehost_calls", t.it.rehost_calls as f64, "count");
    m.put("sched.rehost_s", rehost_s, "s");
    m.put("sched.event_wakeups", wakeups, "count");
    m.put("sched.stale_events", stale, "count");
    m.put("sched.stale_event_ratio", ratio(stale, wakeups), "ratio");
    let quality = |f: fn(&vb_sched::PolicySummary) -> usize| {
        t.it.summaries.iter().map(f).sum::<usize>() as f64
    };
    m.put(
        "sched.unavailable_app_steps",
        quality(|s| s.unavailable_app_steps as usize),
        "app-steps",
    );
    m.put("sched.dropped_apps", quality(|s| s.dropped_apps), "count");

    let plan_ms: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.it.plan_ms.iter().copied())
        .collect();
    m.put("sched.plan_calls", t.it.plan_calls() as f64, "count");
    m.put("sched.plan_s", plan_s, "s");
    m.put("sched.plan_ms_p50", pct("plan_ms", &plan_ms, 0.5), "ms");
    m.put("sched.plan_ms_p90", pct("plan_ms", &plan_ms, 0.9), "ms");
    m.put("sched.plan_new_apps", t.it.new_apps as f64, "count");
    m.put("sched.model_build_s", plan_s - mip_solve_s, "s");
    m.put(
        "sched.epoch_warm_hit_ratio",
        ratio(epoch_hits, epoch_tries),
        "ratio",
    );
    m.put(
        "sched.fallback_epochs",
        t.it.fallback_epochs as f64,
        "count",
    );

    m.put("solver.mip_solve_s", mip_solve_s, "s");
    m.put(
        "solver.lp_solve_s",
        tmed(&|t| span_s(t, "solver.lp_solve")),
        "s",
    );
    m.put("solver.mip_solves", mip_solves, "count");
    m.put("solver.lp_solves", lp_solves, "count");
    m.put("solver.lps_per_mip", ratio(lp_solves, mip_solves), "ratio");
    m.put("solver.pivots", pivots, "count");
    m.put("solver.pivots_per_lp", ratio(pivots, lp_solves), "ratio");
    for name in [
        "solver.mip_nodes_expanded",
        "solver.mip_nodes_pruned",
        "solver.refactorizations",
        "solver.eta_updates",
        "solver.ftran_nnz",
        "solver.btran_nnz",
        "solver.degenerate_pivots",
    ] {
        m.put(name, c(name), "count");
    }
    m.put(
        "solver.node_warm_hit_ratio",
        ratio(node_hits, node_tries),
        "ratio",
    );
    m.put(
        "solver.presolve_vars_fixed",
        c("solver.presolve_vars_fixed"),
        "count",
    );
    m.put(
        "solver.presolve_rows_removed",
        c("solver.presolve_rows_removed"),
        "count",
    );

    m.put("par.workers", WORKERS as f64, "count");
    m.put("par.tasks", c("par.tasks"), "count");
    m.put("telemetry.trace_overhead_s", run_s - untraced_run_s, "s");
    m.put(
        "telemetry.trace_drops",
        traced.iter().map(|t| t.drops).max().unwrap_or(0) as f64,
        "count",
    );

    for layer in ["bench", "sched_core", "sched_plan", "solver", "par"] {
        m.put(
            &format!("self.{layer}_s"),
            tmed(&|t| t.self_times.get(layer)),
            "s",
        );
    }
    m.put(
        "self.run_coverage",
        tmed(&|t| t.self_times.coverage()),
        "ratio",
    );
    m
}
