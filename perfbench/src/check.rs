//! The correctness gate's building blocks: a bit-level digest of policy
//! summaries (so the layered run can be compared with the public API
//! across processes) and the summary invariants.

use vb_sched::PolicySummary;

/// FNV-1a over every field of every summary, floats by bit pattern, so
/// two digests are equal only when the summaries are bit-identical.
pub fn digest(summaries: &[PolicySummary]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for s in summaries {
        eat(s.policy.as_bytes());
        eat(&[0xff]);
        for x in [s.total_gb, s.p99_gb, s.peak_gb, s.std_gb, s.zero_fraction] {
            eat(&x.to_bits().to_le_bytes());
        }
        eat(&(s.per_step_gb.len() as u64).to_le_bytes());
        for x in &s.per_step_gb {
            eat(&x.to_bits().to_le_bytes());
        }
        for n in [
            s.unavailable_app_steps,
            s.preemptive_moves as u64,
            s.dropped_apps as u64,
            s.vm_decisions,
        ] {
            eat(&n.to_le_bytes());
        }
    }
    format!("{h:016x}")
}

/// Invariant violations of one policy run, as human-readable lines
/// (empty when it is sound). `arrivals` is Σ new apps the policy saw.
pub fn violations(s: &PolicySummary, arrivals: u64) -> Vec<String> {
    let mut out = Vec::new();
    let sum: f64 = s.per_step_gb.iter().sum();
    if sum.to_bits() != s.total_gb.to_bits() {
        out.push(format!(
            "{}: sum of per_step_gb {sum} != total_gb {}",
            s.policy, s.total_gb
        ));
    }
    let volumes = s
        .per_step_gb
        .iter()
        .chain([&s.total_gb, &s.p99_gb, &s.peak_gb]);
    if let Some(bad) = volumes.copied().find(|v| !v.is_finite() || *v < 0.0) {
        out.push(format!("{}: volume {bad} is not finite and >= 0", s.policy));
    }
    if s.dropped_apps as u64 > arrivals {
        out.push(format!(
            "{}: {} dropped apps > {arrivals} arrivals",
            s.policy, s.dropped_apps
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(per_step: Vec<f64>) -> PolicySummary {
        PolicySummary {
            policy: "P".into(),
            total_gb: per_step.iter().sum(),
            p99_gb: 1.0,
            peak_gb: 2.0,
            std_gb: 0.5,
            zero_fraction: 0.25,
            per_step_gb: per_step,
            unavailable_app_steps: 3,
            preemptive_moves: 0,
            dropped_apps: 1,
            vm_decisions: 9,
        }
    }

    #[test]
    fn digest_sees_every_bit() {
        let one = |s: &PolicySummary| digest(std::slice::from_ref(s));
        let a = summary(vec![0.0, 1.5, 2.0]);
        let mut b = a.clone();
        assert_eq!(one(&a), one(&b));
        b.per_step_gb[1] = f64::from_bits(1.5f64.to_bits() + 1);
        assert_ne!(one(&a), one(&b));
        let mut c = a.clone();
        c.vm_decisions += 1;
        assert_ne!(one(&a), one(&c));
        // Order matters: shard i must match shard i.
        let d = summary(vec![4.0]);
        assert_ne!(digest(&[a.clone(), d.clone()]), digest(&[d, a]));
    }

    #[test]
    fn invariants_flag_each_defect() {
        assert!(violations(&summary(vec![0.0, 1.5, 2.0]), 5).is_empty());
        let mut bad_total = summary(vec![1.0, 2.0]);
        bad_total.total_gb = 3.5;
        assert_eq!(violations(&bad_total, 5).len(), 1);
        let negative = summary(vec![1.0, -2.0]);
        assert_eq!(violations(&negative, 5).len(), 1);
        assert_eq!(violations(&summary(vec![f64::NAN]), 5).len(), 1);
        assert_eq!(
            violations(&summary(vec![1.0]), 0).len(),
            1,
            "1 dropped > 0 arrivals"
        );
    }
}
