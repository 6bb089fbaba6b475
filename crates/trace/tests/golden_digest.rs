//! Golden digest over the synthetic traces and their forecasts.
//!
//! Pins an FNV-1a hash of the exact bit patterns of every
//! `generate_in` output and its three `forecast_for` horizons, for a
//! small Europe window and a longer fleet window. Any change to the
//! weather field, the generators or the forecast simulator that moves a
//! single ulp anywhere fails this test; a refactor or optimisation of
//! those layers must leave it passing unchanged.

use vb_trace::{forecast_for, generate_in, Catalog, Horizon};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Digest every site's actual trace and its 3-horizon forecasts, in
/// catalog order, over `[start_day, start_day + days)`.
fn digest(catalog: &Catalog, start_day: u32, days: u32) -> u64 {
    let field = catalog.field();
    let mut h = FNV_OFFSET;
    for site in catalog.sites() {
        let actual = generate_in(site, start_day, days, field);
        let mut series = vec![actual.clone()];
        for horizon in Horizon::all() {
            series.push(forecast_for(&actual, site, horizon, field));
        }
        for s in &series {
            h = fnv(h, &s.start_secs.to_le_bytes());
            h = fnv(h, &(s.values.len() as u64).to_le_bytes());
            for v in &s.values {
                h = fnv(h, &v.to_bits().to_le_bytes());
            }
        }
    }
    h
}

#[test]
fn europe_week_digest_is_pinned() {
    let got = digest(&Catalog::europe(42), 120, 7);
    assert_eq!(
        got, 0xd768_341b_c8d0_2308,
        "europe(42) digest moved: {got:#018x}"
    );
}

#[test]
fn fleet_84_day_digest_is_pinned() {
    let got = digest(&Catalog::fleet(42, 30), 120, 84);
    assert_eq!(
        got, 0x471e_7a7d_eece_e22e,
        "fleet(42, 30) digest moved: {got:#018x}"
    );
}
