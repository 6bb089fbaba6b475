//! Golden solver digest over a fixed sequence of epoch MIPs.
//!
//! Twelve consecutive Table-1-shaped placement epochs
//! ([`vb_bench::fixtures::epoch_mip`]) go through
//! [`vb_solver::solve_mip_epoch`] — the production kernel, chaining
//! each epoch's cache into the next, under Table 1's node budget — on
//! one worker. The test pins an FNV-1a hash of every solution's
//! objective and value bit patterns, and the exact work the solver did:
//! pivots, eta updates, refactorizations, LP solves and the FTRAN/BTRAN
//! result nonzeros.
//!
//! Unlike the 1-vs-8-thread comparison in `determinism.rs`, which runs
//! one build twice, this catches arithmetic that drifts on every thread
//! count alike: a refactor or optimisation of the LU/eta kernels, the
//! pricing or the search must leave it passing unchanged. This binary
//! holds a single test, so the process-global counters see no other
//! solver traffic. The pinned values were computed before the eta file
//! was flattened and its LU factors shared, and held unchanged after;
//! they held again when the LU factorization moved onto reusable
//! working storage.
//!
//! They were re-pinned once, on purpose, when branch and bound began
//! refactorizing a fractional root before the dive and the nodes share
//! it. The root's basic values are then recomputed from the model data
//! instead of carried through its eta file, so every warm start below
//! the root sees slightly different low-order bits, and some searches
//! take other (equally valid) paths under the node budget:
//!
//! | value | before | after |
//! |---|---|---|
//! | `DIGEST` | `0xc7ee9e820c8b55d4` | `0x90e4de07c555955a` |
//! | `solver.pivots` | 4,822 | 4,656 |
//! | `solver.eta_updates` | 4,822 | 4,656 |
//! | `solver.refactorizations` | 25 | 25 |
//! | `solver.lp_solves` | 1,288 | 1,350 |
//! | `solver.ftran_nnz` | 20,524 | 19,906 |
//! | `solver.btran_nnz` | 148,437 | 152,342 |

use vb_bench::fixtures::placement_epoch;
use vb_solver::{solve_mip_epoch, EpochCache};

/// `(apps, sites)` of each epoch sequence.
const SHAPES: [(usize, usize); 2] = [(12, 3), (48, 4)];
const EPOCHS: usize = 12;
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

/// FNV-1a over every epoch's objective, value count and values.
const DIGEST: u64 = 0x90e4_de07_c555_955a;

/// Counters whose deltas over the run are pinned, and their values.
const COUNTERS: [&str; 6] = [
    "solver.pivots",
    "solver.eta_updates",
    "solver.refactorizations",
    "solver.lp_solves",
    "solver.ftran_nnz",
    "solver.btran_nnz",
];

const WORK: [u64; 6] = [4656, 4656, 25, 1350, 19906, 152342];

fn counters() -> [u64; 6] {
    let snap = vb_telemetry::snapshot();
    COUNTERS.map(|name| snap.counter(name).unwrap_or(0))
}

#[test]
fn epoch_mips_match_the_golden_digest_and_work_counts() {
    let before = counters();
    let digest = vb_par::with_threads(1, || {
        let mut h = FNV_OFFSET;
        for (apps, sites) in SHAPES {
            let mut cache: Option<EpochCache> = None;
            for e in 0..EPOCHS {
                let model = placement_epoch(apps, sites, e);
                let (sol, next, _hit) =
                    solve_mip_epoch(&model, MAX_NODES, cache.as_ref()).expect("epoch MIP solves");
                cache = Some(next);
                h = fnv(h, sol.objective.to_bits());
                h = fnv(h, sol.values().len() as u64);
                for v in sol.values() {
                    h = fnv(h, v.to_bits());
                }
            }
        }
        h
    });
    assert_eq!(digest, DIGEST, "epoch MIP digest moved: {digest:#018x}");
    if cfg!(feature = "telemetry") {
        let after = counters();
        for ((name, pinned), (a, b)) in COUNTERS.iter().zip(WORK).zip(after.iter().zip(before)) {
            assert_eq!(a - b, pinned, "{name} moved");
        }
    }
}
