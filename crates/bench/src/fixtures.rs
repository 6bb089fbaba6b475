//! Shared solver fixtures: the Table-1-shaped placement epoch MIP that
//! the determinism tests, the golden solver digest and the `perf_micro`
//! solver row all drive through [`vb_solver::solve_mip_epoch`].

use vb_solver::{Model, Sense, VarId};

/// SplitMix64 → uniform in [0, 1); keeps the instances arbitrary but
/// reproducible without pulling in a PRNG crate.
fn mix(seed: u64) -> f64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as f64 / u64::MAX as f64
}

/// Epoch `e` of the 12-app × 3-site [`placement_epoch`].
pub fn epoch_mip(e: usize) -> Model {
    placement_epoch(12, 3, e)
}

/// Epoch `e` of a placement MIP over `apps` apps and `sites` sites:
/// one-site-per-app rows, tight per-site capacity with a priced deficit
/// — near-tied fractional costs so the root relaxation is fractional
/// and the search genuinely branches. The capacities and the cost
/// parity drift with `e`; the structure does not, so consecutive epochs
/// share a skeleton.
pub fn placement_epoch(apps: usize, sites: usize, e: usize) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let x: Vec<Vec<VarId>> = (0..apps)
        .map(|a| {
            (0..sites)
                .map(|s| m.bin_var(&format!("a{a}s{s}")))
                .collect()
        })
        .collect();
    let cores: Vec<f64> = (0..apps)
        .map(|a| (2.0 + (mix((a as u64) << 3) * 4.0).floor()) * 10.0)
        .collect();
    for row in &x {
        let terms: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
        let expr = m.expr(&terms);
        m.add_eq(expr, 1.0);
    }
    let total: f64 = cores.iter().sum();
    let mut objective = Vec::new();
    for s in 0..sites {
        let d = m.var(&format!("d{s}"), 0.0, f64::INFINITY);
        // Tight, epoch-drifting capacity: roughly an even split less
        // a deficit that rotates with the epoch.
        let capacity = (total / sites as f64) * (0.82 + 0.04 * ((s + e) % 3) as f64);
        let mut lhs = vec![(d, 1.0)];
        for (a, row) in x.iter().enumerate() {
            lhs.push((row[s], -cores[a]));
        }
        let expr = m.expr(&lhs);
        m.add_ge(expr, -capacity.round());
        objective.push((d, 6.0));
    }
    for (a, row) in x.iter().enumerate() {
        for (s, &v) in row.iter().enumerate() {
            let c = 1.0
                + (mix(((a * sites + s) as u64) << 7) * 8.0).round()
                + 0.25 * ((a + s + e) % 2) as f64;
            objective.push((v, c));
        }
    }
    let expr = m.expr(&objective);
    m.set_objective(expr);
    m
}
