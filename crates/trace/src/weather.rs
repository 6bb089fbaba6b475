//! Spatially correlated stochastic weather drivers.
//!
//! §2.3 of the paper rests on one empirical fact: renewable production at
//! different sites is "often independent and/or complimentary", because
//! of (a) different sources, (b) micro-climates/weather and (c) time of
//! day. To reproduce that with synthetic traces, all sites draw their
//! randomness from one shared [`WeatherField`]:
//!
//! * The field owns a grid of *anchor* processes covering Europe. A
//!   site's driver is a distance-weighted blend of AR(1)-smoothed anchor
//!   processes plus an idiosyncratic local component, so correlation
//!   decays smoothly with distance (micro-climate effect).
//! * Anchor processes are read with a longitude-dependent time lag,
//!   mimicking weather systems advected west → east across the continent.
//!   Distant sites therefore see the same front at different times — the
//!   complementary UK-wind / PT-wind pattern of Figure 3a. The lag is
//!   applied to the *smoothed* anchor processes, so nearby sites (whose
//!   lags differ by minutes) stay strongly correlated.
//! * Underlying innovations are generated *counter-based* (hash of
//!   `(seed, channel, anchor, sample index)` → normal deviate), so any
//!   time window of any site can be produced independently and
//!   reproducibly.
//!
//! **Anchor cache.** An anchor's deviates depend only on `(seed,
//! channel, anchor, sample index)` — not on the site, the persistence
//! or the window — yet every site of a catalog blends the same anchors.
//! The field therefore memoises them: fixed blocks of 1,024 deviates
//! keyed by `(channel, anchor, block index)`, computed on first use and
//! shared by every later reader, across sites, horizons and threads.
//! The cache stores only the hashed white noise. The AR(1) recursion and
//! the anchor blend still run per call, from the same warm-up start, in
//! the same operation and anchor order, so every output is bit-identical
//! to recomputing the noise from scratch. (Four anchors are filtered
//! side by side, but each output sample still receives their terms one
//! at a time, in anchor order.) Per-site local streams are not cached:
//! no other site reads them. The cache lives as long as the field (a
//! [`Catalog`](crate::Catalog) owns one; clones share it), and grows
//! with anchors × channels × time span read, never with the number of
//! sites.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::site::{haversine_km, Site};

/// Independent driver channels. Using distinct channels guarantees, e.g.,
/// that cloud cover and wind speed are uncorrelated even at one location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// Cloud transmittance driver (solar sites).
    Cloud,
    /// Slow synoptic wind regime driver.
    WindRegime,
    /// Fast wind turbulence driver.
    WindGust,
}

impl Channel {
    fn id(self) -> u64 {
        match self {
            Channel::Cloud => 1,
            Channel::WindRegime => 2,
            Channel::WindGust => 3,
        }
    }

    /// Spatial correlation length in kilometres. Synoptic systems span
    /// more of the map than individual cloud fields or gusts.
    fn correlation_km(self) -> f64 {
        match self {
            Channel::Cloud => 300.0,
            Channel::WindRegime => 600.0,
            Channel::WindGust => 150.0,
        }
    }

    /// Is this channel advected with the prevailing westerlies?
    fn advected(self) -> bool {
        matches!(self, Channel::WindRegime | Channel::Cloud)
    }
}

/// Shared, seeded source of spatially correlated noise.
///
/// Cloning is cheap and shares the anchor cache (see the module docs).
#[derive(Debug, Clone)]
pub struct WeatherField {
    seed: u64,
    anchors: Vec<(f64, f64)>, // (lat, lon)
    cache: Arc<AnchorCache>,
}

/// Eastward speed of weather systems, in degrees of longitude per day.
/// ~8°/day corresponds to a synoptic system crossing Europe in 4–5 days.
const ADVECTION_DEG_PER_DAY: f64 = 8.0;

/// Fraction of a site's driver variance that is purely local
/// (micro-climate), never shared with any other site.
const LOCAL_VARIANCE: f64 = 0.30;

/// Anchor weights below this are skipped entirely.
const MIN_WEIGHT: f64 = 1e-3;

/// Anchor streams filtered side by side (see [`ar1_accumulate`]).
const LANES: usize = 4;

/// Anchor deviates per cache block. Fixed-size, aligned blocks serve
/// windows at any offset — including the forecasts' far-apart time axes
/// — without merging overlapping ranges.
const BLOCK: i64 = 1024;

/// `(channel id, anchor index, block index)`: block `b` holds the
/// deviates of sample indices `[b·BLOCK, (b+1)·BLOCK)`.
type BlockKey = (u64, usize, i64);

/// Memoised anchor deviates, shared by every clone of one field.
#[derive(Default)]
struct AnchorCache {
    blocks: Mutex<BTreeMap<BlockKey, Arc<[f64]>>>,
}

impl std::fmt::Debug for AnchorCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnchorCache")
            .field("blocks", &self.lock().len())
            .finish()
    }
}

impl AnchorCache {
    /// The map is only ever extended by whole, immutable blocks, so a
    /// panic elsewhere cannot leave it inconsistent: recover from poison.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<BlockKey, Arc<[f64]>>> {
        self.blocks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block `b` of one anchor stream, computed on first use. The
    /// deviates are computed outside the lock, so concurrent readers
    /// never serialize on a miss; two threads racing on the same cold
    /// block compute identical values and the first insert wins.
    fn block(&self, seed: u64, channel: u64, anchor: usize, b: i64) -> Arc<[f64]> {
        let key = (channel, anchor, b);
        if let Some(hit) = self.lock().get(&key) {
            return Arc::clone(hit);
        }
        let fresh: Arc<[f64]> = (b * BLOCK..(b + 1) * BLOCK)
            .map(|t| normal(seed, channel, anchor as u64, t))
            .collect();
        Arc::clone(self.lock().entry(key).or_insert(fresh))
    }
}

impl WeatherField {
    /// Build a field over the European anchor grid.
    pub fn new(seed: u64) -> WeatherField {
        let mut anchors = Vec::new();
        let mut lat = 36.0;
        while lat <= 66.0 {
            let mut lon = -10.0;
            while lon <= 26.0 {
                anchors.push((lat, lon));
                lon += 6.0;
            }
            lat += 6.0;
        }
        WeatherField {
            seed,
            anchors,
            cache: Arc::default(),
        }
    }

    /// The seed this field was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// AR(1)-smoothed, spatially correlated driver series for `site`:
    /// per-sample persistence `rho`, unit marginal variance, covering
    /// absolute sample indices `[t0, t0 + n)` (15-minute samples from the
    /// trace epoch).
    ///
    /// Identical arguments always return identical values; nearby sites
    /// on the same channel are strongly correlated, distant sites nearly
    /// independent, and (on advected channels) eastern sites lag western
    /// ones. Windows are consistent: overlapping windows agree on the
    /// overlap.
    pub fn ar1(&self, channel: Channel, site: &Site, rho: f64, t0: i64, n: usize) -> Vec<f64> {
        assert!((0.0..1.0).contains(&rho), "rho must be in [0, 1)");
        let warmup = warmup(rho);
        let len = warmup + n;
        let mut out = vec![0.0; n];
        let mut noise: [Vec<f64>; LANES] = std::array::from_fn(|_| Vec::with_capacity(len));
        let (picks, shared_scale) = self.picks(channel, site);
        // Anchors in order: whole groups of LANES side by side, then the
        // remainder one at a time.
        let mut groups = picks.chunks_exact(LANES);
        for group in &mut groups {
            for (buf, &(idx, _, lag)) in noise.iter_mut().zip(group) {
                self.anchor_noise(channel, idx, t0 - lag - warmup as i64, len, buf);
            }
            let lanes = std::array::from_fn(|j| (&noise[j][..], shared_scale * group[j].1));
            ar1_accumulate::<LANES>(&mut out, lanes, rho);
        }
        for &(idx, w, lag) in groups.remainder() {
            self.anchor_noise(channel, idx, t0 - lag - warmup as i64, len, &mut noise[0]);
            ar1_accumulate(&mut out, [(&noise[0][..], shared_scale * w)], rho);
        }
        // Idiosyncratic local component keyed by the site identity.
        let local = &mut noise[0];
        local.clear();
        let (local_channel, stream) = (channel.id() ^ 0xdead_beef, site.stream_id());
        local.extend(
            (t0 - warmup as i64..t0 + n as i64)
                .map(|t| normal(self.seed, local_channel, stream, t)),
        );
        ar1_accumulate(&mut out, [(&local[..], LOCAL_VARIANCE.sqrt())], rho);
        out
    }

    /// The anchors contributing to `site` on `channel` as `(index,
    /// weight, lag)` in anchor order, and the scale that gives their
    /// blend variance `1 − LOCAL_VARIANCE`.
    fn picks(&self, channel: Channel, site: &Site) -> (Vec<(usize, f64, i64)>, f64) {
        let corr_km = channel.correlation_km();
        let samples_per_degree = if channel.advected() {
            crate::STEPS_PER_DAY as f64 / ADVECTION_DEG_PER_DAY
        } else {
            0.0
        };
        let mut picks: Vec<(usize, f64, i64)> = Vec::new();
        for (idx, &(alat, alon)) in self.anchors.iter().enumerate() {
            let d = haversine_km(site.lat, site.lon, alat, alon);
            let w = (-d / corr_km).exp();
            if w >= MIN_WEIGHT {
                let lag = ((site.lon - alon) * samples_per_degree).round() as i64;
                picks.push((idx, w, lag));
            }
        }
        let w2: f64 = picks.iter().map(|&(_, w, _)| w * w).sum();
        let shared_scale = if w2 > 0.0 {
            ((1.0 - LOCAL_VARIANCE) / w2).sqrt()
        } else {
            0.0
        };
        (picks, shared_scale)
    }

    /// Fill `out` with anchor `idx`'s deviates for sample indices
    /// `[start, start + len)`, read from the shared cache.
    fn anchor_noise(
        &self,
        channel: Channel,
        idx: usize,
        start: i64,
        len: usize,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let end = start + len as i64;
        let mut t = start;
        while t < end {
            let b = t.div_euclid(BLOCK);
            let block = self.cache.block(self.seed, channel.id(), idx, b);
            let lo = (t - b * BLOCK) as usize;
            let hi = (end.min((b + 1) * BLOCK) - b * BLOCK) as usize;
            out.extend_from_slice(&block[lo..hi]);
            t = (b + 1) * BLOCK;
        }
    }

    /// Blocks currently held by the anchor cache.
    #[cfg(test)]
    pub(crate) fn cached_blocks(&self) -> usize {
        self.cache.lock().len()
    }

    /// Uncached reference for [`WeatherField::ar1`]: every anchor stream
    /// recomputed from its counter-based deviates.
    #[cfg(test)]
    pub(crate) fn ar1_uncached(
        &self,
        channel: Channel,
        site: &Site,
        rho: f64,
        t0: i64,
        n: usize,
    ) -> Vec<f64> {
        let (picks, shared_scale) = self.picks(channel, site);
        let mut out = vec![0.0; n];
        for &(idx, w, lag) in &picks {
            let series = ar1_stream(self.seed, channel.id(), idx as u64, rho, t0 - lag, n);
            for (o, s) in out.iter_mut().zip(&series) {
                *o += shared_scale * w * s;
            }
        }
        let local = ar1_stream(
            self.seed,
            channel.id() ^ 0xdead_beef,
            site.stream_id(),
            rho,
            t0,
            n,
        );
        for (o, l) in out.iter_mut().zip(&local) {
            *o += LOCAL_VARIANCE.sqrt() * l;
        }
        out
    }
}

/// AR(1) warm-up length: long enough for `rho^warmup < 1e-13`, which
/// makes the filtered value at any instant independent of the window
/// start.
fn warmup(rho: f64) -> usize {
    if rho > 0.0 {
        ((30.0 / (1.0 - rho)).ceil() as usize).min(60_000)
    } else {
        0
    }
}

/// AR(1)-filter up to [`LANES`] independent noise streams (warm-up
/// samples first, then one per output sample) to unit variance, and add
/// each stream's `scale ×` filtered tail to `out`, in lane order.
///
/// The lanes' recursions are independent, so running them side by side
/// hides each one's multiply-add latency; per output sample the
/// additions still happen in lane order, so the result is bit-identical
/// to filtering and adding the streams one at a time.
fn ar1_accumulate<const N: usize>(out: &mut [f64], lanes: [(&[f64], f64); N], rho: f64) {
    let len = lanes[0].0.len();
    assert!(lanes.iter().all(|(noise, _)| noise.len() == len) && len >= out.len());
    let warmup = len - out.len();
    let innov = (1.0 - rho * rho).sqrt();
    let mut y = [0.0; N];
    for k in 0..warmup {
        for j in 0..N {
            y[j] = rho * y[j] + innov * lanes[j].0[k];
        }
    }
    for (i, o) in out.iter_mut().enumerate() {
        let k = warmup + i;
        let mut acc = *o;
        for j in 0..N {
            y[j] = rho * y[j] + innov * lanes[j].0[k];
            acc += lanes[j].1 * y[j];
        }
        *o = acc;
    }
}

/// AR(1)-filter the counter-based white noise of one stream, producing
/// unit-variance output over `[t0, t0 + n)`: the uncached oracle.
#[cfg(test)]
fn ar1_stream(seed: u64, channel: u64, stream: u64, rho: f64, t0: i64, n: usize) -> Vec<f64> {
    let warmup = warmup(rho);
    let innov = (1.0 - rho * rho).sqrt();
    let mut y = 0.0;
    let mut out = Vec::with_capacity(n);
    for k in 0..(warmup + n) {
        let t = t0 - warmup as i64 + k as i64;
        y = rho * y + innov * normal(seed, channel, stream, t);
        if k >= warmup {
            out.push(y);
        }
    }
    out
}

/// Counter-based standard normal deviate: hash the coordinates into two
/// uniforms and apply Box–Muller. Pure function — random access in time.
fn normal(seed: u64, channel: u64, stream: u64, t: i64) -> f64 {
    let u1 = uniform(mix4(
        seed,
        channel,
        stream,
        t as u64 ^ 0x9e37_79b9_7f4a_7c15,
    ));
    let u2 = uniform(mix4(
        seed,
        channel,
        stream,
        (t as u64).wrapping_add(0x5851_f42d_4c95_7f2d),
    ));
    // Guard the log: u1 in (0,1].
    let r = (-2.0 * (1.0 - u1).max(1e-12).ln()).sqrt();
    r * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Map a 64-bit hash to a uniform in [0, 1).
fn uniform(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// SplitMix64-style mixing of four words.
fn mix4(a: u64, b: u64, c: u64, d: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.rotate_left(17))
        .wrapping_add(c.rotate_left(31))
        .wrapping_add(d.rotate_left(47));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vb_stats::{mean, std_dev};

    fn corr(a: &[f64], b: &[f64]) -> f64 {
        let (ma, mb) = (mean(a), mean(b));
        let num: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let da: f64 = a.iter().map(|x| (x - ma).powi(2)).sum::<f64>().sqrt();
        let db: f64 = b.iter().map(|y| (y - mb).powi(2)).sum::<f64>().sqrt();
        num / (da * db)
    }

    #[test]
    fn ar1_is_deterministic() {
        let f = WeatherField::new(3);
        let s = Site::solar("a", 50.0, 5.0);
        let x = f.ar1(Channel::Cloud, &s, 0.5, 17, 50);
        let y = f.ar1(Channel::Cloud, &s, 0.5, 17, 50);
        assert_eq!(x, y);
    }

    #[test]
    fn ar1_is_roughly_standard_normal() {
        let f = WeatherField::new(11);
        let s = Site::solar("a", 50.0, 5.0);
        let xs = f.ar1(Channel::Cloud, &s, 0.3, 0, 4_000);
        assert!(mean(&xs).abs() < 0.15, "mean {}", mean(&xs));
        let sd = std_dev(&xs);
        assert!((sd - 1.0).abs() < 0.15, "std {sd}");
    }

    #[test]
    fn correlation_decays_with_distance() {
        let f = WeatherField::new(5);
        let a = Site::solar("a", 50.0, 5.0);
        let near = Site::solar("b", 50.3, 5.3);
        let far = Site::solar("c", 38.0, -9.0);
        // Probe the slow synoptic scale: advection lags differ by a few
        // samples between nearby sites, which decorrelates fast noise but
        // must preserve slow-driver correlation.
        let xa = f.ar1(Channel::Cloud, &a, 0.95, 0, 3_000);
        let c_near = corr(&xa, &f.ar1(Channel::Cloud, &near, 0.95, 0, 3_000));
        let c_far = corr(&xa, &f.ar1(Channel::Cloud, &far, 0.95, 0, 3_000));
        assert!(c_near > 0.4, "near correlation {c_near}");
        assert!(c_far < 0.3, "far correlation {c_far}");
        assert!(c_near > c_far + 0.2);
    }

    #[test]
    fn channels_are_independent() {
        let f = WeatherField::new(7);
        let s = Site::wind("w", 52.0, 0.0);
        let a = f.ar1(Channel::Cloud, &s, 0.5, 0, 3_000);
        let b = f.ar1(Channel::WindRegime, &s, 0.5, 0, 3_000);
        assert!(corr(&a, &b).abs() < 0.12);
    }

    #[test]
    fn ar1_is_serially_correlated() {
        let f = WeatherField::new(9);
        let s = Site::wind("w", 52.0, 0.0);
        let xs = f.ar1(Channel::WindGust, &s, 0.9, 0, 4_000);
        let lag1 = corr(&xs[..xs.len() - 1], &xs[1..]);
        assert!((lag1 - 0.9).abs() < 0.08, "lag-1 autocorr {lag1}");
    }

    #[test]
    fn ar1_windows_are_consistent() {
        // The same absolute instant must get the same value no matter
        // which window it is generated in.
        let f = WeatherField::new(13);
        let s = Site::wind("w", 52.0, 0.0);
        let long = f.ar1(Channel::WindRegime, &s, 0.8, 0, 300);
        let shifted = f.ar1(Channel::WindRegime, &s, 0.8, 100, 200);
        for i in 0..200 {
            assert!(
                (long[100 + i] - shifted[i]).abs() < 1e-9,
                "mismatch at {i}: {} vs {}",
                long[100 + i],
                shifted[i]
            );
        }
    }

    #[test]
    fn advection_lags_eastern_sites() {
        // A site further east should correlate best with a *delayed* copy
        // of a western site's driver.
        let f = WeatherField::new(21);
        let west = Site::wind("w-west", 52.0, -4.0);
        let east = Site::wind("w-east", 52.0, 4.0);
        let n = 4_000;
        let xw = f.ar1(Channel::WindRegime, &west, 0.95, 0, n);
        let xe = f.ar1(Channel::WindRegime, &east, 0.95, 0, n);
        // Expected lag: 8 degrees * 12 samples/degree = 96 samples.
        let at = |lag: usize| corr(&xw[..n - 96], &xe[lag..n - 96 + lag]);
        assert!(
            at(96) > at(0),
            "delayed correlation {} should beat instant {}",
            at(96),
            at(0)
        );
    }

    const CHANNELS: [Channel; 3] = [Channel::Cloud, Channel::WindRegime, Channel::WindGust];
    /// Every persistence the generators and forecasts use, plus the
    /// no-warm-up edge at 0.
    const RHOS: [f64; 8] = [0.0, 0.3, 0.55, 0.9, 0.97, 0.99, 0.995, 0.997];
    /// Window origins: the trace epoch, before it, and the forecasts'
    /// per-horizon time offsets (`lead × 1_000_003`).
    const ORIGINS: [i64; 5] = [0, -40_000, 12 * 1_000_003, 96 * 1_000_003, 672 * 1_000_003];

    fn assert_bits_eq(cached: &[f64], oracle: &[f64], what: &str) {
        assert_eq!(cached.len(), oracle.len(), "{what}: length");
        for (i, (a, b)) in cached.iter().zip(oracle).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: sample {i}: {a} vs {b}");
        }
    }

    #[test]
    fn cached_ar1_bit_matches_the_oracle_on_every_channel_and_rho() {
        let f = WeatherField::new(17);
        let sites = [
            Site::wind("west", 53.0, -9.5),
            Site::solar("mid", 47.0, 6.0),
            Site::wind("east", 40.0, 24.0),
        ];
        for channel in CHANNELS {
            for rho in RHOS {
                for (k, site) in sites.iter().enumerate() {
                    let t0 = ORIGINS[k % ORIGINS.len()] - 37;
                    let got = f.ar1(channel, site, rho, t0, 700);
                    let want = f.ar1_uncached(channel, site, rho, t0, 700);
                    assert_bits_eq(&got, &want, &format!("{channel:?} rho {rho} {}", site.name));
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn cached_ar1_is_bit_identical_in_any_request_order(
            seed in 0u64..1_000,
            requests in proptest::collection::vec(
                (
                    (0usize..3, 0usize..8),
                    (0usize..5, -3_000i64..3_000, 0usize..1_500),
                    (36.0..66.0f64, -10.0..26.0f64),
                ),
                2..7,
            )
        ) {
            // One warm field serves every request: windows overlap (same
            // origin, nearby offsets), are disjoint (other origins), and
            // arrive in random order; the first is replayed at the end.
            let f = WeatherField::new(seed);
            let replay = requests[0];
            for ((ch, r), (origin, offset, n), (lat, lon)) in
                requests.into_iter().chain(std::iter::once(replay))
            {
                let site = Site::wind("p", lat, lon);
                let (channel, rho, t0) = (CHANNELS[ch], RHOS[r], ORIGINS[origin] + offset);
                let got = f.ar1(channel, &site, rho, t0, n);
                let want = f.ar1_uncached(channel, &site, rho, t0, n);
                assert_bits_eq(&got, &want, &format!("{channel:?} rho {rho} t0 {t0} n {n}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "rho must be in [0, 1)")]
    fn ar1_rejects_bad_rho() {
        let f = WeatherField::new(1);
        let s = Site::wind("w", 52.0, 0.0);
        f.ar1(Channel::WindGust, &s, 1.0, 0, 10);
    }
}
