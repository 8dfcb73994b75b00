//! Cost accounting: serverless per-invocation billing vs serverful
//! whole-VM reservation, following §VIII-A exactly.

use std::time::Duration;

use crate::platform::{FunctionKind, InvocationRecord};
use crate::pricing::Cluster;

/// A cost breakdown in USD.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostBreakdown {
    /// Learner + parameter function cost (GPU side).
    pub learner_usd: f64,
    /// Actor cost (CPU side).
    pub actor_usd: f64,
    /// Share of the bill spent on failed attempts (injected faults,
    /// crashes, deadline overruns): you pay for the work a dead function
    /// did. Already included in `learner_usd`/`actor_usd` — this is the
    /// Fig.-14-style "failure cost" slice, not an extra charge.
    pub wasted_usd: f64,
}

impl CostBreakdown {
    /// Total cost (`wasted_usd` is a sub-slice, not an addend).
    pub fn total(&self) -> f64 {
        self.learner_usd + self.actor_usd
    }
}

/// Publishes a bill as gauges (`stellaris_serverless_cost_<mode>_*_usd`) and
/// a `serverless.cost` instant event, keyed by billing mode so the three
/// deployment models of §VIII-A stay distinguishable in one exposition.
fn publish_cost(mode: &'static str, bill: &CostBreakdown) {
    let reg = stellaris_telemetry::global();
    reg.gauge(&format!("stellaris_serverless_cost_{mode}_learner_usd"))
        .set(bill.learner_usd);
    reg.gauge(&format!("stellaris_serverless_cost_{mode}_actor_usd"))
        .set(bill.actor_usd);
    reg.gauge(&format!("stellaris_serverless_cost_{mode}_wasted_usd"))
        .set(bill.wasted_usd);
    stellaris_telemetry::instant(
        "serverless.cost",
        vec![
            ("mode", mode.into()),
            ("learner_usd", bill.learner_usd.into()),
            ("actor_usd", bill.actor_usd.into()),
            ("wasted_usd", bill.wasted_usd.into()),
        ],
    );
}

/// Bills a set of serverless invocation records against a cluster's
/// per-function-second prices. Startup (pre-warm/keep-alive) time is *not*
/// billed, "similar to existing serverless platforms" (§VIII-A).
pub fn bill_serverless(cluster: &Cluster, records: &[InvocationRecord]) -> CostBreakdown {
    let mut out = CostBreakdown::default();
    for r in records {
        let secs = r.exec.as_secs_f64();
        let usd = match r.kind {
            FunctionKind::Learner => {
                let usd = secs * cluster.learner_fn_price();
                out.learner_usd += usd;
                usd
            }
            FunctionKind::Actor => {
                let usd = secs * cluster.actor_fn_price();
                out.actor_usd += usd;
                usd
            }
        };
        if r.failed {
            out.wasted_usd += usd;
        }
    }
    publish_cost("serverless", &out);
    out
}

/// Bills a serverful deployment: every VM in the cluster is reserved for the
/// whole wall-clock duration regardless of utilisation.
pub fn bill_serverful(cluster: &Cluster, wall: Duration) -> CostBreakdown {
    let secs = wall.as_secs_f64();
    let out = CostBreakdown {
        learner_usd: cluster.gpu_vms.itype.per_second() * cluster.gpu_vms.count as f64 * secs,
        actor_usd: cluster.cpu_vms.itype.per_second() * cluster.cpu_vms.count as f64 * secs,
        // Reserved VMs charge the same whether attempts fail or not.
        wasted_usd: 0.0,
    };
    publish_cost("serverful", &out);
    out
}

/// Bills a hybrid deployment (e.g. MinionsRL: serverless actors, serverful
/// learner VMs).
pub fn bill_hybrid(
    cluster: &Cluster,
    wall: Duration,
    actor_records: &[InvocationRecord],
) -> CostBreakdown {
    let serverful = bill_serverful(cluster, wall);
    let serverless = bill_serverless(cluster, actor_records);
    let out = CostBreakdown {
        learner_usd: serverful.learner_usd,
        actor_usd: serverless.actor_usd,
        wasted_usd: serverless.wasted_usd,
    };
    publish_cost("hybrid", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: FunctionKind, exec_secs: f64) -> InvocationRecord {
        InvocationRecord {
            kind,
            start: Duration::ZERO,
            exec: Duration::from_secs_f64(exec_secs),
            wall: Duration::from_secs_f64(exec_secs),
            startup: Duration::from_secs(99), // must not be billed
            cold: true,
            failed: false,
        }
    }

    #[test]
    fn serverless_bill_matches_hand_calculation() {
        let c = Cluster::regular();
        let records = vec![
            rec(FunctionKind::Learner, 10.0),
            rec(FunctionKind::Learner, 5.0),
            rec(FunctionKind::Actor, 100.0),
        ];
        let bill = bill_serverless(&c, &records);
        let want_learner = 15.0 * (3.06 / 3600.0 / 4.0);
        let want_actor = 100.0 * (4.896 / 3600.0 / 128.0);
        assert!((bill.learner_usd - want_learner).abs() < 1e-12);
        assert!((bill.actor_usd - want_actor).abs() < 1e-12);
        assert!((bill.total() - want_learner - want_actor).abs() < 1e-12);
    }

    #[test]
    fn startup_time_not_billed() {
        let c = Cluster::regular();
        let with_startup = bill_serverless(&c, &[rec(FunctionKind::Learner, 1.0)]);
        let mut r = rec(FunctionKind::Learner, 1.0);
        r.startup = Duration::ZERO;
        let without = bill_serverless(&c, &[r]);
        assert_eq!(with_startup, without);
    }

    #[test]
    fn failed_attempts_are_billed_and_separated_as_waste() {
        let c = Cluster::regular();
        let mut failed = rec(FunctionKind::Learner, 2.0);
        failed.failed = true;
        let records = vec![rec(FunctionKind::Learner, 10.0), failed];
        let bill = bill_serverless(&c, &records);
        let price = 3.06 / 3600.0 / 4.0;
        assert!(
            (bill.learner_usd - 12.0 * price).abs() < 1e-12,
            "failed attempts are still billed"
        );
        assert!(
            (bill.wasted_usd - 2.0 * price).abs() < 1e-12,
            "the failed share is reported as waste"
        );
        assert!(
            (bill.total() - 12.0 * price).abs() < 1e-12,
            "waste is a slice, not an addend"
        );
    }

    #[test]
    fn serverful_bill_charges_idle_time() {
        let c = Cluster::regular();
        let bill = bill_serverful(&c, Duration::from_secs(3600));
        assert!((bill.total() - (2.0 * 3.06 + 4.896)).abs() < 1e-9);
    }

    #[test]
    fn serverless_cheaper_than_serverful_when_underutilised() {
        // 1 hour wall clock but only 60 learner-seconds of actual work:
        // the core economic claim behind Fig. 2(b) and Fig. 8.
        let c = Cluster::regular();
        let records: Vec<_> = (0..60).map(|_| rec(FunctionKind::Learner, 1.0)).collect();
        let sl = bill_serverless(&c, &records);
        let sf = bill_serverful(&c, Duration::from_secs(3600));
        assert!(
            sl.total() < sf.total() * 0.05,
            "{} vs {}",
            sl.total(),
            sf.total()
        );
    }

    #[test]
    fn hybrid_mixes_models() {
        let c = Cluster::regular();
        let actor_records = vec![rec(FunctionKind::Actor, 10.0)];
        let bill = bill_hybrid(&c, Duration::from_secs(100), &actor_records);
        assert!((bill.learner_usd - 100.0 * 2.0 * 3.06 / 3600.0).abs() < 1e-9);
        assert!((bill.actor_usd - 10.0 * 4.896 / 3600.0 / 128.0).abs() < 1e-12);
    }
}
