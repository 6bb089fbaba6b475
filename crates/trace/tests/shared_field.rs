//! Concurrent readers of one weather field.
//!
//! A catalog's sites share its field's anchor cache, and `GroupSim::new`
//! builds them through `vb_par`. Whatever the worker count, and whichever
//! thread happens to fill a cold block first, every trace and forecast
//! must come out bit-identical.

use vb_stats::TimeSeries;
use vb_trace::{forecast_for, generate_in, Catalog, Horizon};

/// Every site's actual trace and 3-horizon forecasts, built through
/// `vb_par` at `threads` workers from a freshly built (cold) catalog.
fn build(threads: usize) -> Vec<Vec<TimeSeries>> {
    let catalog = Catalog::fleet(11, 24);
    let field = catalog.field();
    vb_par::with_threads(threads, || {
        vb_par::par_map(catalog.len(), |i| {
            let site = &catalog.sites()[i];
            let actual = generate_in(site, 200, 10, field);
            let mut out: Vec<TimeSeries> = Horizon::all()
                .into_iter()
                .map(|h| forecast_for(&actual, site, h, field))
                .collect();
            out.push(actual);
            out
        })
    })
}

fn bits(sites: &[Vec<TimeSeries>]) -> Vec<u64> {
    sites
        .iter()
        .flatten()
        .flat_map(|s| s.values.iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn one_cold_field_gives_identical_traces_at_1_and_4_workers() {
    let one = bits(&build(1));
    let four = bits(&build(4));
    assert_eq!(one.len(), 24 * 4 * 10 * 96);
    assert!(one == four, "traces differ between 1 and 4 workers");
}
