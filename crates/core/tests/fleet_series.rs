//! Fleet time series stay per shard at any thread count.
//!
//! `run_fleet` runs one policy on every shard concurrently. The series
//! store keys rows by `(name, instance)`, so each shard must record under
//! its own instance (`policy@site+site+...`): under a shared one, the
//! shards' rows would interleave in thread-completion order. This binary
//! holds a single test, because it resets the process-global telemetry
//! store between runs.
#![cfg(feature = "telemetry")]

use vb_core::fleet::{run_fleet, FleetConfig, FleetPolicy};
use vb_sched::GroupSimConfig;
use vb_telemetry::SeriesData;
use vb_trace::Catalog;

/// The per-group series of a 2-shard MIP fleet run on `threads` workers.
fn fleet_series(threads: usize) -> Vec<SeriesData> {
    let catalog = Catalog::fleet(42, 6);
    let cfg = FleetConfig {
        shard_size: 3,
        sim: GroupSimConfig {
            days: 2,
            seed: 42,
            ..GroupSimConfig::default()
        },
    };
    vb_par::with_threads(threads, || {
        vb_telemetry::reset();
        let run = run_fleet(&catalog, FleetPolicy::Mip, &cfg).expect("fleet runs");
        assert_eq!(run.shards.len(), 2);
        vb_telemetry::series_snapshot()
            .into_iter()
            .filter(|s| s.name == "sched.step_series" || s.name == "sched.mip_epoch")
            .collect()
    })
}

#[test]
fn two_shard_fleet_series_match_across_thread_counts() {
    let sequential = fleet_series(1);
    let parallel = fleet_series(2);
    assert_eq!(
        parallel, sequential,
        "series diverged between 1 and 2 threads"
    );

    for name in ["sched.step_series", "sched.mip_epoch"] {
        let instances: Vec<&str> = sequential
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.instance.as_str())
            .collect();
        assert_eq!(
            instances.len(),
            2,
            "{name}: one instance per shard, got {instances:?}"
        );
        for instance in instances {
            assert!(instance.starts_with("MIP@"), "{name}: instance {instance}");
        }
    }
    for s in &sequential {
        assert!(
            !s.epochs.is_empty(),
            "{}/{}: empty series",
            s.name,
            s.instance
        );
        assert!(
            s.epochs.windows(2).all(|w| w[0] < w[1]),
            "{}/{}: epochs must strictly increase",
            s.name,
            s.instance
        );
    }
}
