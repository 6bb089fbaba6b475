//! The branch-and-bound root refactorization, end to end through the
//! production kernel ([`vb_solver::solve_mip_epoch`], 400-node budget).
//!
//! A fractional factorized root is refactorized once before the dive
//! and the nodes share it; an integral root is left alone, because the
//! search ends there. These tests pin the integral case to the values
//! the solver produced before the root policy existed, and check that
//! the refactorized search stays bit-identical across thread counts.
//!
//! Kept in its own binary: the tests read process-global telemetry
//! counters, and [`LOCK`] runs them one at a time.

use std::sync::Mutex;
use vb_bench::fixtures::placement_epoch;
use vb_solver::{solve_mip_epoch, EpochCache, Model, Sense, Solution, VarId};

/// Serialises the tests: each reads counter deltas.
static LOCK: Mutex<()> = Mutex::new(());

/// `MipConfig::mip().max_nodes`, the Table 1 node budget.
const MAX_NODES: usize = 400;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bits: u64) -> u64 {
    for b in bits.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a solution's objective, value count and values.
fn fold(h: u64, sol: &Solution) -> u64 {
    let h = fnv(fnv(h, sol.objective.to_bits()), sol.values().len() as u64);
    sol.values().iter().fold(h, |h, v| fnv(h, v.to_bits()))
}

fn counter(name: &str) -> u64 {
    vb_telemetry::snapshot().counter(name).unwrap_or(0)
}

/// SplitMix64 → integer in `0..n`.
fn draw(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % n
}

/// A transportation MIP: `apps` unit-demand apps each placed on one of
/// `sites` sites with integer capacities and integer costs. Its
/// constraint matrix is totally unimodular, so the root relaxation's
/// optimal vertex is integral and the search ends at the root. The
/// root solve runs past the scheduled refactorization interval, so the
/// refactorization count is not trivially zero.
fn transport(apps: usize, sites: usize, seed: u64) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let x: Vec<Vec<VarId>> = (0..apps)
        .map(|a| {
            (0..sites)
                .map(|s| m.bin_var(&format!("a{a}s{s}")))
                .collect()
        })
        .collect();
    for row in &x {
        let terms: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
        let e = m.expr(&terms);
        m.add_eq(e, 1.0);
    }
    for s in 0..sites {
        let terms: Vec<(VarId, f64)> = x.iter().map(|row| (row[s], 1.0)).collect();
        let e = m.expr(&terms);
        let cap = (apps / sites) as u64 + draw(seed * 31 + s as u64, 8);
        m.add_le(e, cap as f64);
    }
    let mut objective = Vec::new();
    for (a, row) in x.iter().enumerate() {
        for (s, &v) in row.iter().enumerate() {
            let c = 1 + draw(seed * 1_000_003 + (a * sites + s) as u64, 20);
            objective.push((v, c as f64));
        }
    }
    let e = m.expr(&objective);
    m.set_objective(e);
    m
}

/// Digest of the six transportation solves and the work they did,
/// computed before roots were refactorized; integral roots must keep
/// both exactly.
const INTEGRAL_DIGEST: u64 = 0xe41f_442d_22a5_17f7;
const INTEGRAL_REFACTORIZATIONS: u64 = 18;
const INTEGRAL_PIVOTS: u64 = 2622;

#[test]
fn integral_roots_keep_their_refactorizations_and_solution_bits() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let names = [
        "solver.refactorizations",
        "solver.root_refactorizations",
        "solver.pivots",
        "solver.lp_solves",
    ];
    let before = names.map(counter);
    let digest = vb_par::with_threads(1, || {
        (0..6u64).fold(FNV_OFFSET, |h, seed| {
            let model = transport(150, 5, seed);
            let (sol, _, _) = solve_mip_epoch(&model, MAX_NODES, None).expect("feasible");
            assert!(
                sol.values().iter().all(|v| v.fract() == 0.0),
                "seed {seed}: transportation optimum not integral"
            );
            fold(h, &sol)
        })
    });
    assert_eq!(digest, INTEGRAL_DIGEST, "digest moved: {digest:#018x}");
    if cfg!(feature = "telemetry") {
        let delta: Vec<u64> = names
            .iter()
            .zip(before)
            .map(|(n, b)| counter(n) - b)
            .collect();
        assert_eq!(
            delta[0], INTEGRAL_REFACTORIZATIONS,
            "refactorizations moved"
        );
        assert_eq!(delta[1], 0, "an integral root was refactorized");
        assert_eq!(delta[2], INTEGRAL_PIVOTS, "pivots moved");
        assert_eq!(delta[3], 6, "the search went below an integral root");
    }
}

/// Twelve chained 48×4 placement epochs (fractional roots) under the
/// 400-node budget.
fn placement_digest() -> u64 {
    let mut h = FNV_OFFSET;
    let mut cache: Option<EpochCache> = None;
    for e in 0..12 {
        let model = placement_epoch(48, 4, e);
        let (sol, next, _) = solve_mip_epoch(&model, MAX_NODES, cache.as_ref()).expect("feasible");
        cache = Some(next);
        h = fold(h, &sol);
    }
    h
}

#[test]
fn refactorized_roots_search_bit_identically_at_1_and_8_threads() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let before = counter("solver.root_refactorizations");
    let one = vb_par::with_threads(1, placement_digest);
    let refactorized = counter("solver.root_refactorizations") - before;
    let eight = vb_par::with_threads(8, placement_digest);
    assert_eq!(one, eight, "1 vs 8 threads: {one:#018x} vs {eight:#018x}");
    if cfg!(feature = "telemetry") {
        assert!(refactorized > 0, "no root was refactorized");
        assert_eq!(
            counter("solver.root_refactorizations") - before,
            2 * refactorized,
            "the root policy depends on the thread count"
        );
    }
}
