//! The pass-through [`Policy`] wrapper that times the planner from
//! outside the library.
//!
//! [`TimedPolicy`] forwards every call to the wrapped policy unchanged
//! and records, per `plan` call, its entry instant and duration, plus the
//! plan's new-app bookkeeping. `choose_rehost` is counted always and
//! timed only in traced mode: `fleet-greedy` makes over a million of
//! those calls, so untraced runs keep two clock reads per call out of the
//! end-to-end run. In traced mode each `plan` call also opens a
//! `bench.plan` span, so the library's own `solver.*` spans nest under it.

use std::time::Instant;
use vb_sched::mip::MipStats;
use vb_sched::policy::SiteSnapshot;
use vb_sched::{Assignment, PlanContext, Policy};

/// What the wrapper observed over one policy run.
#[derive(Debug, Default, Clone)]
pub struct PlanLog {
    /// Entry instant of every `plan` call, in call order.
    pub entries: Vec<Instant>,
    /// Duration of every `plan` call, seconds, parallel to `entries`.
    pub plan_secs: Vec<f64>,
    /// Σ `ctx.new_apps.len()` over all plans (the run's arrivals).
    pub new_apps: u64,
    /// Plans that left a new app unassigned or assigned it twice.
    pub bad_plans: u64,
    /// `choose_rehost` calls.
    pub rehost_calls: u64,
    /// Σ `choose_rehost` wall-clock, seconds (0 unless timed).
    pub rehost_secs: f64,
}

/// A [`Policy`] that forwards to `inner` and logs what it sees.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn Policy,
    traced: bool,
    once: OnceCheck,
    /// The observations so far.
    pub log: PlanLog,
}

impl<'a> TimedPolicy<'a> {
    /// Wrap `inner`. `traced` opens a `bench.plan` span per plan and
    /// times every `choose_rehost`.
    pub fn new(inner: &'a mut dyn Policy, traced: bool) -> TimedPolicy<'a> {
        TimedPolicy {
            inner,
            traced,
            once: OnceCheck::default(),
            log: PlanLog::default(),
        }
    }
}

/// Checks that a plan assigns every new app exactly once, in time
/// linear in the plan: per-app stamps (indexed by `AppId`) are reused
/// across plans instead of being cleared, so the check stays a small
/// fraction of even the cheapest Greedy plan.
#[derive(Debug, Default)]
pub struct OnceCheck {
    plan_no: u32,
    /// Per app: the last plan that assigned it, and how often it did.
    seen: Vec<(u32, u32)>,
}

impl OnceCheck {
    /// True when every new app of `ctx` appears exactly once in `plan`.
    pub fn holds(&mut self, ctx: &PlanContext, plan: &[Assignment]) -> bool {
        self.plan_no += 1;
        let stamp = self.plan_no;
        for a in plan {
            if a.app.0 >= self.seen.len() {
                self.seen.resize(a.app.0 + 1, (0, 0));
            }
            let slot = &mut self.seen[a.app.0];
            if slot.0 != stamp {
                *slot = (stamp, 0);
            }
            slot.1 += 1;
        }
        ctx.new_apps
            .iter()
            .all(|n| self.seen.get(n.id.0) == Some(&(stamp, 1)))
    }
}

impl Policy for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan(&mut self, ctx: &PlanContext) -> Vec<Assignment> {
        let t0 = Instant::now();
        let plan = {
            let _span = self.traced.then(|| vb_telemetry::span!("bench.plan"));
            self.inner.plan(ctx)
        };
        self.log.plan_secs.push(t0.elapsed().as_secs_f64());
        self.log.entries.push(t0);
        self.log.new_apps += ctx.new_apps.len() as u64;
        if !self.once.holds(ctx, &plan) {
            self.log.bad_plans += 1;
        }
        plan
    }

    fn preemptive_drain(&self) -> bool {
        self.inner.preemptive_drain()
    }

    fn choose_rehost(&mut self, sites: &[SiteSnapshot], cores: u32) -> Option<usize> {
        self.log.rehost_calls += 1;
        if !self.traced {
            return self.inner.choose_rehost(sites, cores);
        }
        let t0 = Instant::now();
        let pick = self.inner.choose_rehost(sites, cores);
        self.log.rehost_secs += t0.elapsed().as_secs_f64();
        pick
    }

    fn mip_stats(&self) -> Option<MipStats> {
        self.inner.mip_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vb_core::fleet::FleetPolicy;
    use vb_sched::{GroupSim, GroupSimConfig};
    use vb_trace::Catalog;

    /// A short Table-1-shaped run: long enough for evictions, rehosts
    /// and preemptive drains, short enough for a unit test.
    fn summary(policy: FleetPolicy, wrap: Option<bool>) -> (vb_sched::PolicySummary, u64) {
        let catalog = Catalog::europe(11);
        let cfg = GroupSimConfig {
            days: 2,
            seed: 11,
            ..GroupSimConfig::default()
        };
        let sim = GroupSim::new(&catalog, &["NO-solar", "UK-wind", "PT-wind"], cfg)
            .expect("Table 1 sites exist");
        let mut inner = policy.build();
        match wrap {
            None => (sim.run(inner.as_mut()), 0),
            Some(traced) => {
                let mut timed = TimedPolicy::new(inner.as_mut(), traced);
                let s = sim.run(&mut timed);
                (s, timed.log.entries.len() as u64)
            }
        }
    }

    #[test]
    fn wrapper_leaves_every_plan_unchanged() {
        for policy in [
            FleetPolicy::Greedy,
            FleetPolicy::Mip24h,
            FleetPolicy::Mip,
            FleetPolicy::MipPeak,
        ] {
            let (bare, _) = summary(policy, None);
            for mode in [false, true] {
                let (wrapped, plans) = summary(policy, Some(mode));
                assert!(plans > 0, "{}: the wrapper saw no plans", policy.name());
                assert_eq!(
                    crate::check::digest(std::slice::from_ref(&bare)),
                    crate::check::digest(std::slice::from_ref(&wrapped)),
                    "{} traced={mode}: wrapped summary is not bit-identical",
                    policy.name()
                );
                assert_eq!(bare, wrapped);
            }
        }
    }

    #[test]
    fn exactly_once_check_flags_missing_and_duplicate_apps() {
        use vb_sched::policy::{AppId, NewApp};
        use vb_sched::AppSpec;
        let spec = AppSpec {
            n_vms: 1,
            cores_per_vm: 2,
            mem_per_vm_gb: 4.0,
            kind: vb_cluster::VmKind::Stable,
            lifetime_steps: 4,
        };
        let ctx = PlanContext {
            now: 0,
            bucket_steps: 12,
            sites: vec![],
            new_apps: vec![NewApp { id: AppId(0), spec }, NewApp { id: AppId(1), spec }],
            movable: vec![],
        };
        let a = |app, site| Assignment {
            app: AppId(app),
            site,
        };
        let mut once = OnceCheck::default();
        assert!(once.holds(&ctx, &[a(0, 0), a(1, 1), a(7, 0)]));
        assert!(!once.holds(&ctx, &[a(0, 0)]), "app 1 unassigned");
        assert!(
            !once.holds(&ctx, &[a(0, 0), a(1, 0), a(1, 1)]),
            "app 1 twice"
        );
        assert!(
            !once.holds(&ctx, &[]),
            "stamps from earlier plans do not count"
        );
        assert!(once.holds(&ctx, &[a(1, 0), a(0, 1)]));
    }
}
