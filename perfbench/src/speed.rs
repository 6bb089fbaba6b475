//! The host-speed probe: end-to-end timings at a reference host speed.
//!
//! On a shared host, other tenants slow this process by up to about 1.7×
//! for seconds to minutes at a time. The process keeps its CPU (steal time
//! stays near 0); what it loses is its share of the core's caches and
//! execution units. Taking the fastest of repeated runs does not filter
//! that out when a slow phase outlasts a whole measurement.
//!
//! The probe times three small fixed kernels — a dense LU elimination, a
//! `BTreeMap` build with a heap value per key, and an integer sort — and
//! reads the host's slowdown as the mean of their times over
//! [`REFERENCE_MS`]: about 1 on a quiet host. [`SpeedClock`] reads the
//! probe at every boundary between timed segments. A segment whose
//! wall-clock follows the slowdown `s` as `s^e` ([`RUN_EXPONENT`],
//! [`SETUP_EXPONENT`]) takes, at reference speed, its wall-clock divided by
//! `s^e`, with `s` the mean of the readings at the segment's two ends. The
//! kernels are the benchmark's own code, so a change to the program moves
//! the timings and leaves the probe alone.
//!
//! Measured on a 2-vCPU Xeon VM over twelve `table1` invocations whose
//! median slowdown ranged 1.17–1.71: a log-log fit of wall-clock on
//! slowdown gave `e` = 0.93 for `GroupSim::run` (seed by seed) and 0.67 for
//! set-up, and cut the residual spread of their logs from 0.082 to 0.029
//! and from 0.072 to 0.028. Set-up is mostly arithmetic trace synthesis,
//! which a busy neighbour slows less than the planner's memory-bound work.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Each kernel's time on a 2-vCPU Xeon VM (2.1 GHz), ms, in the order LU,
/// map, sort: the tenth percentile of 3,000 back-to-back readings, so a
/// reference-speed second is about a quiet wall-clock second there. On
/// other hardware every timing scales by one common factor.
pub const REFERENCE_MS: [f64; 3] = [0.28, 0.64, 0.37];

/// How `GroupSim::run` wall-clock follows the slowdown.
pub const RUN_EXPONENT: f64 = 1.0;
/// How set-up wall-clock (catalogs and `GroupSim::new`) follows it.
pub const SETUP_EXPONENT: f64 = 0.67;

/// Order of the dense elimination kernel.
const LU_N: usize = 60;
/// Eliminations per reading.
const LU_REPS: usize = 4;
/// Keys the map kernel inserts.
const MAP_KEYS: u64 = 4_000;
/// Integers the sort kernel sorts.
const SORT_LEN: usize = 20_000;

/// xorshift64: the kernels' fixed pseudo-random input.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn lu_kernel() -> f64 {
    let n = LU_N;
    let mut acc = 0.0;
    for _ in 0..LU_REPS {
        let mut a: Vec<f64> = (0..n * n)
            .map(|k| {
                if k % (n + 1) == 0 {
                    100.0
                } else {
                    ((k * 7919) % 97) as f64 / 97.0
                }
            })
            .collect();
        for k in 0..n {
            let pivot = a[k * n + k];
            for i in k + 1..n {
                let f = a[i * n + k] / pivot;
                for j in k..n {
                    a[i * n + j] -= f * a[k * n + j];
                }
            }
        }
        acc += black_box(&a)[n * n - 1];
    }
    acc
}

fn map_kernel() -> usize {
    let mut x = 0x9e37_79b9_7f4a_7c15;
    let mut m = BTreeMap::new();
    for _ in 0..MAP_KEYS {
        m.insert(xorshift(&mut x) % 100_000, vec![1u8; 24]);
    }
    black_box(&m).len()
}

fn sort_kernel() -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1d;
    let mut v: Vec<u64> = (0..SORT_LEN).map(|_| xorshift(&mut x)).collect();
    v.sort_unstable();
    black_box(&v)[SORT_LEN / 2]
}

fn ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64() * 1e3
}

/// One probe reading: the mean over the kernels of time ÷ reference time.
pub fn read() -> f64 {
    let times = [ms(lu_kernel), ms(map_kernel), ms(sort_kernel)];
    times
        .iter()
        .zip(REFERENCE_MS)
        .map(|(t, r)| t / r)
        .sum::<f64>()
        / times.len() as f64
}

/// A segment's wall-clock and how much the host slowed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub wall_s: f64,
    /// The segment's wall-clock ÷ its time at reference speed.
    pub slowdown: f64,
}

impl Timing {
    /// The segment's time at the reference host speed.
    pub fn ref_s(&self) -> f64 {
        self.wall_s / self.slowdown
    }
}

/// Times consecutive segments, reading the probe at each boundary; a
/// boundary reading serves the segments on both sides of it.
pub struct SpeedClock {
    last: f64,
}

impl SpeedClock {
    /// Warm the kernels up, then take the first reading.
    pub fn start() -> SpeedClock {
        read();
        SpeedClock { last: read() }
    }

    /// Run `f` as one timed segment whose wall-clock follows the host
    /// slowdown with `exponent`.
    pub fn time<T>(&mut self, exponent: f64, f: impl FnOnce() -> T) -> (T, Timing) {
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        let next = read();
        let slowdown = (0.5 * (self.last + next)).powf(exponent);
        self.last = next;
        (out, Timing { wall_s, slowdown })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_compute_fixed_results() {
        assert_eq!(lu_kernel(), lu_kernel());
        assert_eq!(map_kernel(), map_kernel());
        assert_eq!(sort_kernel(), sort_kernel());
        assert!(lu_kernel().is_finite());
        assert!(read() > 0.0);
    }

    #[test]
    fn segments_are_scaled_by_the_readings_at_both_ends() {
        let t = Timing {
            wall_s: 3.0,
            slowdown: 1.5,
        };
        assert_eq!(t.ref_s(), 2.0);
        let mut clock = SpeedClock { last: 1.0 };
        let (v, t) = clock.time(1.0, || 7);
        assert_eq!(v, 7);
        assert_eq!(t.slowdown, 0.5 * (1.0 + clock.last));
        let before = clock.last;
        let (_, t) = clock.time(0.5, || ());
        assert_eq!(t.slowdown, (0.5 * (before + clock.last)).sqrt());
    }
}
