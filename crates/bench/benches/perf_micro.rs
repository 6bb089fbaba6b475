//! Criterion microbenchmarks of the workspace's hot paths: cold trace
//! generation, the simplex/MIP solver, k-clique enumeration, and the
//! cluster-simulator step loop.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use vb_cluster::{Cluster, ClusterConfig, Workload, WorkloadConfig};
use vb_net::{k_cliques, SiteGraph};
use vb_solver::{Model, Sense, VarId};
use vb_trace::{Catalog, Horizon, Site, WeatherField};

fn bench_trace_generation(c: &mut Criterion) {
    // Every iteration synthesizes from a fresh (cold) weather field: a
    // reused field would serve all iterations after the first from its
    // warm anchor cache and time a lookup instead of synthesis.
    let solar = Site::solar("s", 50.8, 4.4);
    let wind = Site::wind("w", 50.8, 4.4);
    c.bench_function("trace/solar_week", |b| {
        b.iter_batched(
            || WeatherField::new(1),
            |field| vb_trace::generate_in(&solar, 120, 7, &field),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("trace/wind_week", |b| {
        b.iter_batched(
            || WeatherField::new(1),
            |field| vb_trace::generate_in(&wind, 120, 7, &field),
            BatchSize::SmallInput,
        )
    });
    // A fleet simulation's whole trace layer: one cold catalog, every
    // site's 84-day trace and its three forecast horizons.
    c.bench_function("trace/fleet_150_sites_84d", |b| {
        b.iter_batched(
            || Catalog::fleet(1, 150),
            |catalog| {
                let field = catalog.field();
                for site in catalog.sites() {
                    let actual = vb_trace::generate_in(site, 120, 84, field);
                    for h in Horizon::all() {
                        black_box(vb_trace::forecast_for(&actual, site, h, field));
                    }
                }
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_solver(c: &mut Criterion) {
    // A placement-shaped MIP: 8 apps × 4 sites with capacity rows.
    let build = || {
        let mut m = Model::new(Sense::Minimize);
        let x: Vec<Vec<VarId>> = (0..8)
            .map(|a| (0..4).map(|s| m.bin_var(&format!("x{a}{s}"))).collect())
            .collect();
        for row in &x {
            let terms: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
            let e = m.expr(&terms);
            m.add_eq(e, 1.0);
        }
        let mut obj = vb_solver::LinExpr::zero();
        for s in 0..4 {
            let d = m.var(&format!("d{s}"), 0.0, f64::INFINITY);
            let mut lhs = vb_solver::LinExpr::term(d, 1.0);
            for (a, row) in x.iter().enumerate() {
                lhs = lhs.add_term(row[s], -(10.0 + a as f64));
            }
            m.add_ge(lhs, -30.0);
            obj = obj.add_term(d, 4.0);
        }
        m.set_objective(obj);
        m
    };
    c.bench_function("solver/placement_mip", |b| {
        b.iter_batched(build, |m| m.solve().unwrap(), BatchSize::SmallInput)
    });
    c.bench_function("solver/placement_mip_cold_nodes", |b| {
        b.iter_batched(
            build,
            |m| vb_solver::branch::solve_mip_bounded_with(&m, 10_000, false).unwrap(),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("solver/placement_mip_warm_nodes", |b| {
        b.iter_batched(
            build,
            |m| vb_solver::branch::solve_mip_bounded_with(&m, 10_000, true).unwrap(),
            BatchSize::SmallInput,
        )
    });

    // The production path: a Table-1-shaped epoch through the epoch
    // entry point (presolve, the factorized engine, devex, parallel
    // B&B) under Table 1's node budget, cold (no cross-epoch cache).
    let epoch = vb_bench::fixtures::placement_epoch(48, 4, 0);
    c.bench_function("solver/table1_epoch_production", |b| {
        b.iter(|| vb_solver::solve_mip_epoch(black_box(&epoch), 400, None).unwrap())
    });

    let lp = || {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..50)
            .map(|i| m.var(&format!("v{i}"), 0.0, 10.0))
            .collect();
        for k in 0..25 {
            let terms: Vec<(VarId, f64)> = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, ((i + k) % 7) as f64 + 1.0))
                .collect();
            let e = m.expr(&terms);
            m.add_le(e, 100.0);
        }
        let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        let e = m.expr(&terms);
        m.set_objective(e);
        m
    };
    c.bench_function("solver/lp_50x25", |b| {
        b.iter_batched(lp, |m| m.solve().unwrap(), BatchSize::SmallInput)
    });
}

fn bench_cliques(c: &mut Criterion) {
    let catalog = Catalog::europe(1);
    let graph = SiteGraph::with_default_threshold(catalog.sites().to_vec());
    c.bench_function("net/k_cliques_k3_25sites", |b| {
        b.iter(|| k_cliques(&graph, 3))
    });
    c.bench_function("net/k_cliques_k5_25sites", |b| {
        b.iter(|| k_cliques(&graph, 5))
    });
}

fn bench_cluster_step(c: &mut Criterion) {
    let cfg = ClusterConfig::default();
    let wl = WorkloadConfig::for_cluster(cfg.total_cores(), cfg.target_util);
    c.bench_function("cluster/step_700_servers", |b| {
        b.iter_batched(
            || {
                let mut cluster = Cluster::new(cfg.clone());
                let mut workload = Workload::new(wl.clone(), 3);
                for (req, residual) in workload.steady_state_population() {
                    cluster.place_migrated(req, residual as u64);
                }
                (cluster, workload)
            },
            |(mut cluster, mut workload)| {
                for step in 0..8 {
                    let arrivals = workload.step();
                    let power = if step % 2 == 0 { 0.8 } else { 0.4 };
                    cluster.step(power, &arrivals);
                }
            },
            BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_trace_generation, bench_solver, bench_cliques, bench_cluster_step
}
criterion_main!(benches);
