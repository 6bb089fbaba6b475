//! Self time per layer inside the `bench.run` spans of a traced run.
//!
//! The trace holds the benchmark's own spans (`bench.*`) and the library's
//! (`sched.*`, `solver.*`, `par.*`). Spans are exported with
//! [`vb_telemetry::chrome_trace_json`], read back with
//! [`vb_telemetry::parse_chrome_trace`] (which computes each span's self
//! time), restricted to the subtrees under `bench.run`, and summed per
//! phase by [`vb_telemetry::phase_breakdown`]. Every microsecond of a
//! `bench.run` span is some span's self time, so the layer self times
//! add up to the traced run's wall-clock.

use std::collections::BTreeMap;
use vb_telemetry::{TraceEvent, TraceSpan};

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "bench.run" | "bench.plan" => "bench",
        "sched.group_run" | "sched.sim_epoch" => "sched_core",
        "sched.greedy_plan" | "sched.mip_plan" => "sched_plan",
        _ if name.starts_with("solver.") => "solver",
        _ if name.starts_with("par.") => "par",
        _ => "other",
    }
}

/// Layer self times of the run subtrees.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSelfTimes {
    /// Self seconds per layer (see [`layer_of`]).
    pub by_layer: BTreeMap<&'static str, f64>,
    /// Σ wall-clock of the `bench.run` spans, seconds.
    pub run_s: f64,
}

impl RunSelfTimes {
    /// Self seconds of one layer (0 when it recorded nothing).
    pub fn get(&self, layer: &str) -> f64 {
        self.by_layer.get(layer).copied().unwrap_or(0.0)
    }

    /// Σ layer self time ÷ Σ run wall-clock (1 when the layers account
    /// for the whole run).
    pub fn coverage(&self) -> f64 {
        self.by_layer.values().sum::<f64>() / self.run_s
    }
}

/// Parse recorded events into spans with self times.
pub fn spans_of(events: &[TraceEvent]) -> Vec<TraceSpan> {
    vb_telemetry::parse_chrome_trace(&vb_telemetry::chrome_trace_json(events))
        .expect("the exporter writes a valid Chrome trace")
}

/// Self time per layer over every span under a `bench.run` span.
pub fn run_self_times(spans: &[TraceSpan]) -> RunSelfTimes {
    let by_id: BTreeMap<u64, &TraceSpan> = spans.iter().map(|s| (s.id, s)).collect();
    let under_run = |s: &TraceSpan| {
        let mut cur = Some(s);
        while let Some(span) = cur {
            if span.name == "bench.run" {
                return true;
            }
            cur = by_id.get(&span.parent).copied();
        }
        false
    };
    let picked: Vec<TraceSpan> = spans.iter().filter(|s| under_run(s)).cloned().collect();
    let mut out = RunSelfTimes::default();
    for phase in vb_telemetry::phase_breakdown(&picked) {
        *out.by_layer.entry(layer_of(&phase.name)).or_insert(0.0) += phase.self_us * 1e-6;
        if phase.name == "bench.run" {
            out.run_s += phase.total_us * 1e-6;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vb_telemetry::TracePhase::{Begin, End};

    fn ev(
        phase: vb_telemetry::TracePhase,
        id: u64,
        parent: u64,
        us: u64,
        name: &'static str,
    ) -> TraceEvent {
        TraceEvent {
            phase,
            id,
            parent,
            tid: 1,
            ts_ns: us * 1000,
            name,
        }
    }

    /// One setup span (excluded) then one run: core 0–100 µs with a plan
    /// of 30 µs whose MIP solve (26 µs) holds one LP of 7 µs.
    fn events() -> Vec<TraceEvent> {
        const SPANS: [(u64, u64, u64, u64, &str); 9] = [
            (1, 0, 0, 500, "bench.setup"),
            (2, 1, 10, 400, "par.busy"),
            (3, 0, 1000, 1100, "bench.run"),
            (4, 3, 1001, 1099, "sched.group_run"),
            (5, 4, 1002, 1050, "sched.sim_epoch"),
            (6, 5, 1010, 1040, "bench.plan"),
            (7, 6, 1011, 1039, "sched.mip_plan"),
            (8, 7, 1012, 1038, "solver.mip_solve"),
            (9, 8, 1013, 1020, "solver.lp_solve"),
        ];
        // Time-ordered begin/end records; at a tie the end goes first.
        let mut marks: Vec<(u64, bool, usize)> = SPANS
            .iter()
            .enumerate()
            .flat_map(|(i, s)| [(s.2, true, i), (s.3, false, i)])
            .collect();
        marks.sort_by_key(|&(t, begin, _)| (t, begin));
        marks
            .into_iter()
            .map(|(t, begin, i)| {
                let (id, parent, _, _, name) = SPANS[i];
                ev(if begin { Begin } else { End }, id, parent, t, name)
            })
            .collect()
    }

    #[test]
    fn layer_self_times_add_up_to_the_run() {
        let st = run_self_times(&spans_of(&events()));
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(st.run_s, 100e-6));
        // bench.run 100 − 98 child; bench.plan 30 − 28.
        assert!(close(st.get("bench"), 2e-6 + 2e-6));
        // group_run 98 − 48; sim_epoch 48 − 30.
        assert!(close(st.get("sched_core"), 50e-6 + 18e-6));
        // mip_plan 28 − 26 (the model build).
        assert!(close(st.get("sched_plan"), 2e-6));
        // mip_solve 26 − 7 plus the LP's 7.
        assert!(close(st.get("solver"), 26e-6));
        assert_eq!(st.get("par"), 0.0, "setup spans are outside the run");
        assert!(close(st.coverage(), 1.0));
    }

    #[test]
    fn names_map_to_layers() {
        assert_eq!(layer_of("solver.lp_solve"), "solver");
        assert_eq!(layer_of("par.busy"), "par");
        assert_eq!(layer_of("sched.sim_epoch"), "sched_core");
        assert_eq!(layer_of("sched.greedy_plan"), "sched_plan");
        assert_eq!(layer_of("bench.plan"), "bench");
        assert_eq!(layer_of("core.fleet_run"), "other");
    }
}
