//! Accounting invariants for capped open-loop runs and the service
//! loop: no offered query may vanish from a report — every one is
//! completed, failed, rejected, or in flight.

use cordoba_engine::{
    run_once, run_once_capped, run_open_loop_collecting, run_service, ArrivalSchedule, Disposition,
    EngineConfig, ExecError, ParallelConfig, Policy, QuerySpec, ServiceConfig, ServiceReport,
};
use cordoba_storage::tpch::{generate, TpchConfig};
use cordoba_storage::Catalog;
use cordoba_workload::arrivals::{bursty, chaos, poisson_mix, ramp};
use cordoba_workload::{q1, q6, CostProfile};

fn catalog() -> Catalog {
    generate(&TpchConfig {
        scale_factor: 0.002,
        seed: 11,
        ..TpchConfig::default()
    })
}

fn pool() -> Vec<QuerySpec> {
    let costs = CostProfile::paper();
    vec![q6(&costs), q1(&costs)]
}

fn engine_cfg(policy: Policy) -> EngineConfig {
    EngineConfig {
        contexts: 2,
        policy,
        // Pinned: EngineConfig::default() consults CORDOBA_WORKERS.
        parallel: ParallelConfig::with_workers(1),
        ..EngineConfig::default()
    }
}

/// An always-share open system that never refuses an arrival.
fn open_loop(cat: &Catalog, schedule: ArrivalSchedule, time_cap: u64) -> ServiceReport {
    let cfg = ServiceConfig {
        engine: engine_cfg(Policy::AlwaysShare),
        admission_capacity: usize::MAX,
        time_cap: Some(time_cap),
    };
    run_service(cat, schedule, &cfg)
}

/// `offered == completed + failures + in_flight`, with nothing
/// rejected: the open loop admits every arrival.
fn assert_open_books_balance(report: &ServiceReport, context: &str) {
    assert_eq!(report.rejected, 0, "{context}: {report:?}");
    assert_eq!(
        report.offered,
        report.completed + report.failures.len() + report.in_flight,
        "{context}: {report:?}"
    );
}

/// `offered == completed + failures + in_flight` over a sweep of tiny
/// time caps that cut the run at every phase: before any arrival,
/// mid-arrivals, mid-execution, and after the drain.
#[test]
fn capped_open_loop_accounting_balances() {
    let cat = catalog();
    let schedule = poisson_mix(std::slice::from_ref(&pool()[0]), 20, 3_000, 7);
    for cap in [1, 1_000, 10_000, 100_000, 1_000_000, u64::MAX / 4] {
        let report = open_loop(&cat, schedule.clone(), cap);
        // The constructor asserts the invariant; re-check it here so a
        // future refactor of the constructor cannot silently drop it.
        assert_open_books_balance(&report, &format!("cap {cap}"));
        assert_eq!(report.dispositions.len(), 20);
        let completed = report
            .dispositions
            .iter()
            .filter(|d| matches!(d, Disposition::Completed { .. }))
            .count();
        assert_eq!(completed, report.completed, "cap {cap}");
    }
}

/// The invariant holds for bursty schedules whose arrivals cluster
/// around the cap boundary.
#[test]
fn capped_bursty_schedule_accounts_for_every_query() {
    let cat = catalog();
    let schedule = bursty(&pool(), 4, 6, 10, 200_000, 21);
    let total = schedule.len();
    for cap in [50_000, 400_000, 900_000] {
        let report = open_loop(&cat, schedule.clone(), cap);
        assert_eq!(report.offered, total);
        assert_open_books_balance(&report, &format!("cap {cap}"));
    }
}

/// Injected faults land in `failures` (as `ExecError::Injected`), and
/// the books still balance under a cap.
#[test]
fn capped_run_with_injected_failures_balances() {
    let cat = catalog();
    let schedule = chaos(poisson_mix(&pool(), 24, 2_000, 3), 0.4, 5);
    let injected = schedule.iter().filter(|(_, s)| s.chaos.is_some()).count();
    assert!(injected > 0, "campaign must mark something");
    let report = open_loop(&cat, schedule, u64::MAX / 4);
    assert_open_books_balance(&report, "chaos");
    assert_eq!(report.in_flight, 0, "uncapped run drains");
    assert_eq!(report.failures.len(), injected);
    assert!(report
        .failures
        .iter()
        .all(|(_, e)| matches!(e, ExecError::Injected { .. })));
    assert_eq!(report.completed, 24 - injected);
    // Chaos queries fail at the sink; their healthy group peers are
    // unaffected.
    assert!(report.completed > 0);
}

/// A wedged/capped batch fails its unfinished queries with a typed
/// `Stalled` error instead of killing the harness.
#[test]
fn run_once_capped_fails_stalled_queries_typed() {
    let cat = catalog();
    let specs: Vec<QuerySpec> = (0..6).map(|_| pool()[0].clone()).collect();
    let out = run_once_capped(&cat, &specs, &engine_cfg(Policy::NeverShare), Some(10));
    assert_eq!(out.failures.len(), 6, "nothing can finish in 10 units");
    assert!(out.failures.iter().all(|(_, e)| matches!(
        e,
        ExecError::Stalled {
            reason: "time cap",
            ..
        }
    )));
    // Uncapped, the same batch completes with no failures.
    let out = run_once(&cat, &specs, &engine_cfg(Policy::NeverShare));
    assert!(out.failures.is_empty());
    assert_eq!(out.results.len(), 6);
}

/// Service backpressure: a capacity-1 admission queue under a tight
/// burst rejects most of the burst, and `offered == completed + failed
/// + rejected + in_flight`.
#[test]
fn service_rejects_when_admission_queue_is_full() {
    let cat = catalog();
    let schedule: ArrivalSchedule = (0..10).map(|_| (1_000, pool()[0].clone())).collect();
    let cfg = ServiceConfig {
        engine: engine_cfg(Policy::NeverShare),
        admission_capacity: 1,
        time_cap: None,
    };
    let report = run_service(&cat, schedule, &cfg);
    assert_eq!(report.offered, 10);
    assert!(report.rejected > 0, "{report:?}");
    assert_eq!(report.completed + report.rejected, 10);
    assert_eq!(report.in_flight, 0);
    assert_eq!(
        report
            .dispositions
            .iter()
            .filter(|d| **d == Disposition::Rejected)
            .count(),
        report.rejected
    );
    assert!(report.rejection_rate() > 0.0);
}

/// With ample capacity the service completes the whole schedule and the
/// latency histogram covers every completion.
#[test]
fn service_completes_all_under_ample_capacity() {
    let cat = catalog();
    let schedule = poisson_mix(&pool(), 16, 4_000, 9);
    let cfg = ServiceConfig {
        engine: engine_cfg(Policy::AlwaysShare),
        admission_capacity: 64,
        time_cap: None,
    };
    let report = run_service(&cat, schedule, &cfg);
    assert_eq!(report.completed, 16, "{report:?}");
    assert_eq!(report.rejected + report.in_flight, 0);
    assert_eq!(report.latency().len(), 16);
    assert!(report.latency().summary().unwrap().p99 >= report.latency().summary().unwrap().p50);
    assert!(report.mean_response().unwrap() > 0.0);
    assert!(report.throughput() > 0.0);
}

/// A time-capped saturation ramp exercises all four dispositions at
/// once — completed, rejected, in flight (and the books still balance).
#[test]
fn capped_service_ramp_accounts_for_every_disposition() {
    let cat = catalog();
    let schedule = ramp(&pool(), 40, 20_000, 10, 13);
    let cap = schedule[25].0;
    let cfg = ServiceConfig {
        engine: engine_cfg(Policy::AlwaysShare),
        admission_capacity: 4,
        time_cap: Some(cap),
    };
    let report = run_service(&cat, schedule, &cfg);
    assert_eq!(report.offered, 40);
    assert_eq!(
        report.offered,
        report.completed + report.failures.len() + report.rejected + report.in_flight,
        "{report:?}"
    );
    assert!(report.in_flight > 0, "cap strands queries: {report:?}");
    assert!(report.makespan <= cap);
}

/// Chaos queries fail inside the service while their healthy peers
/// complete. Through both open-system entry points, `failures` lists
/// exactly the marked queries by schedule position, strictly ascending,
/// and matches the `Disposition::Failed` entries.
#[test]
fn service_chaos_failures_are_isolated_and_indexed() {
    let cat = catalog();
    let schedule = chaos(poisson_mix(&pool(), 20, 3_000, 31), 0.3, 37);
    let marked: Vec<usize> = schedule
        .iter()
        .enumerate()
        .filter(|(_, (_, s))| s.chaos.is_some())
        .map(|(i, _)| i)
        .collect();
    assert!(!marked.is_empty());
    let cfg = ServiceConfig {
        engine: engine_cfg(Policy::AlwaysShare),
        admission_capacity: 64,
        time_cap: None,
    };
    let served = run_service(&cat, schedule.clone(), &cfg);
    let (collected, rows) = run_open_loop_collecting(&cat, schedule, &cfg.engine, u64::MAX / 4);
    assert_eq!(rows.len(), 20);
    for report in [&served, &collected] {
        let failed: Vec<usize> = report.failures.iter().map(|(i, _)| *i).collect();
        assert_eq!(failed, marked, "exactly the marked queries fail, in order");
        let dispositions: Vec<(usize, ExecError)> = report
            .dispositions
            .iter()
            .enumerate()
            .filter_map(|(i, d)| match d {
                Disposition::Failed(err) => Some((i, err.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(report.failures, dispositions);
        assert_eq!(report.completed, 20 - marked.len());
        assert_eq!(report.rejected + report.in_flight, 0);
    }
}
