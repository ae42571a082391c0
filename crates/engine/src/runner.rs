//! Closed-system measurement harness and one-shot batch runs.
//!
//! [`ClosedLoop`] and [`measure_throughput`] are the paper's
//! measurement rig: `m` clients each keep one query in flight (a
//! completed query is immediately replaced — Little's Law, Section
//! 1.2); throughput is completions per unit of virtual time over a
//! measurement window on an `n`-context simulated CMP. [`run_once`]
//! runs a batch submitted at t=0 to completion and returns its result
//! rows. Open systems, where queries arrive on a schedule, are
//! [`crate::service`]'s.

use crate::dispatcher::{DispatcherTask, EngineCore};
use crate::policy::Policy;
use crate::query::QuerySpec;
use cordoba_exec::wiring::WiringConfig;
use cordoba_exec::{ExecError, MemoryConfig, OpCost, ParallelConfig};
use cordoba_sim::{RunOutcome, SimStats, Simulator, StopReason, VTime};
use cordoba_storage::{Catalog, Value};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Engine/run configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Simulated hardware contexts (the paper sweeps 1, 2, 8, 32).
    pub contexts: usize,
    /// Inter-operator channel capacity in pages.
    pub queue_capacity: usize,
    /// Sharing policy.
    pub policy: Policy,
    /// Group-formation window (virtual time): arrivals within the
    /// window of a compatible open group may merge with it. Stands in
    /// for stage-queue residence in the paper's packet engine.
    pub window: VTime,
    /// Maximum members per sharing group.
    pub max_group: usize,
    /// Cost charged by the client-side sink per result tuple.
    pub sink_cost: OpCost,
    /// Per-query memory policy: budget, spill directory, and the
    /// hash-join repartitioning limits. The default is unbounded (no
    /// operator ever spills), matching the engine's historic behavior.
    pub memory: MemoryConfig,
    /// Intra-query parallelism: morsel workers per parallelizable plan
    /// fragment. The single-worker default keeps the classic
    /// one-task-per-operator wiring; more workers split scan chains
    /// and aggregates across simulated contexts.
    pub parallel: ParallelConfig,
    /// Capacity of the fragment cache (completed shared-fragment
    /// outputs replayed for late subsumed arrivals). `0` disables the
    /// cache entirely — the historic behavior, and the default.
    pub fragment_cache: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            contexts: 1,
            queue_capacity: 16,
            policy: Policy::NeverShare,
            window: 2_000,
            max_group: 64,
            sink_cost: OpCost::per_tuple(0.1),
            memory: MemoryConfig::default(),
            // Consults CORDOBA_WORKERS (default 1) — see
            // `ParallelConfig::from_env`.
            parallel: ParallelConfig::from_env(),
            fragment_cache: 0,
        }
    }
}

/// Counters for semantic (fingerprint/subsumption) sharing activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingCounters {
    /// Fragment-cache lookups that found a servable subsuming fragment.
    pub fingerprint_hits: u64,
    /// Fragment-cache lookups that found none.
    pub fingerprint_misses: u64,
    /// Fragment-cache entries displaced by inserts past capacity.
    pub fingerprint_evictions: u64,
    /// Group admissions where the member's pivot differed from the
    /// group pivot (joined via subsumption + residual, not equality).
    pub subsume_joins: u64,
    /// Times an arrival's wider pivot replaced an open group's pivot.
    pub pivot_widenings: u64,
}

impl SharingCounters {
    pub(crate) fn from_core(core: &EngineCore) -> Self {
        let (hits, misses, evictions) = core
            .fragment_cache
            .as_ref()
            .map_or((0, 0, 0), |c| (c.hits, c.misses, c.evictions));
        Self {
            fingerprint_hits: hits,
            fingerprint_misses: misses,
            fingerprint_evictions: evictions,
            subsume_joins: core.subsume_joins,
            pivot_widenings: core.pivot_widenings,
        }
    }
}

/// Sets up one simulated run: a fresh engine core with `initial`
/// submitted at t=0 and the dispatcher task spawned. `resubmit` makes
/// the system closed (every completion is resubmitted); `collect`
/// keeps every query's result pages for [`collected_rows`].
pub(crate) fn start(
    catalog: &Catalog,
    cfg: &EngineConfig,
    initial: &[QuerySpec],
    resubmit: bool,
    collect: bool,
) -> (Simulator, Rc<RefCell<EngineCore>>) {
    let core = Rc::new(RefCell::new(EngineCore {
        catalog: Rc::new(catalog.clone()),
        wiring: WiringConfig {
            queue_capacity: cfg.queue_capacity,
            memory: cfg.memory.clone(),
            parallel: cfg.parallel,
        },
        policy: cfg.policy.clone(),
        contexts: cfg.contexts,
        window: cfg.window,
        resubmit,
        max_group: cfg.max_group,
        sink_cost: cfg.sink_cost,
        arrivals: VecDeque::new(),
        pending: Vec::new(),
        dispatcher: None,
        completions: Vec::new(),
        failures: Vec::new(),
        arrival_times: Vec::new(),
        completion_records: Vec::new(),
        group_sizes: Vec::new(),
        next_submission: 0,
        external_arrivals_pending: 0,
        live_queries: 0,
        group_seq: 0,
        collect: collect.then(Vec::new),
        fragment_cache: (cfg.fragment_cache > 0)
            .then(|| crate::fragment_cache::FragmentCache::new(cfg.fragment_cache)),
        subsume_joins: 0,
        pivot_widenings: 0,
    }));
    for spec in initial {
        core.borrow_mut().submit(spec.clone());
    }
    let mut sim = Simulator::new(cfg.contexts);
    let dispatcher = sim.spawn(
        "dispatcher",
        Box::new(DispatcherTask { core: core.clone() }),
    );
    core.borrow_mut().dispatcher = Some(dispatcher);
    (sim, core)
}

/// Result rows per submission, in submission order; empty when the run
/// was started without collection.
pub(crate) fn collected_rows(core: &EngineCore) -> Vec<Vec<Vec<Value>>> {
    core.collect.as_ref().map_or_else(Vec::new, |buffers| {
        buffers
            .iter()
            .map(|buf| {
                buf.borrow()
                    .iter()
                    .flat_map(|p| p.tuples().map(|t| t.to_values()).collect::<Vec<_>>())
                    .collect()
            })
            .collect()
    })
}

/// An incrementally-runnable closed-loop system, for adaptive
/// measurements (run until N completions rather than a fixed horizon —
/// shared and unshared modes can differ in throughput by an order of
/// magnitude, so fixed horizons under-sample one of them).
pub struct ClosedLoop {
    sim: Simulator,
    core: Rc<RefCell<EngineCore>>,
}

impl ClosedLoop {
    /// Builds the closed system (clients submitted, dispatcher spawned)
    /// without running it.
    pub fn new(catalog: &Catalog, clients: &[QuerySpec], cfg: &EngineConfig) -> Self {
        let (sim, core) = start(catalog, cfg, clients, true, false);
        Self { sim, core }
    }

    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.sim.now()
    }

    /// Completions so far.
    pub fn completions(&self) -> usize {
        self.core.borrow().completions.len()
    }

    /// Runs until at least `target` total completions or the virtual
    /// `time_cap`; returns whether the target was reached. Stops early,
    /// returning `false`, once the system can make no more progress:
    /// failed queries are not resubmitted, so clients that all failed
    /// leave nothing to run.
    ///
    /// Chunks grow geometrically from a small initial slice so the
    /// overshoot past `target` stays bounded (a fixed large chunk could
    /// collect thousands of surplus completions on fast workloads).
    pub fn run_until_completions(&mut self, target: usize, time_cap: VTime) -> bool {
        let mut chunk: VTime = 10_000;
        while self.completions() < target && self.sim.now() < time_cap {
            let next = self.sim.now().saturating_add(chunk).min(time_cap);
            if self.sim.run(Some(next)).reason != StopReason::TimeLimit {
                break;
            }
            chunk = chunk.saturating_mul(2);
        }
        self.completions() >= target
    }

    /// Completions with `t > since`.
    pub fn completions_since(&self, since: VTime) -> usize {
        self.core
            .borrow()
            .completions
            .iter()
            .filter(|(t, _)| *t > since)
            .count()
    }

    /// Per-name completions with `t > since`.
    pub fn completions_of_since(&self, name: &str, since: VTime) -> usize {
        self.core
            .borrow()
            .completions
            .iter()
            .filter(|(t, n)| *t > since && n == name)
            .count()
    }

    /// Mean size of dispatched sharing groups so far.
    pub fn mean_group_size(&self) -> f64 {
        let core = self.core.borrow();
        if core.group_sizes.is_empty() {
            return 0.0;
        }
        core.group_sizes.iter().sum::<usize>() as f64 / core.group_sizes.len() as f64
    }

    /// Machine statistics so far.
    pub fn stats(&self) -> SimStats {
        self.sim.stats()
    }

    /// Fingerprint-cache and subsumption counters so far.
    pub fn sharing(&self) -> SharingCounters {
        SharingCounters::from_core(&self.core.borrow())
    }
}

/// Measured steady-state throughput of a closed system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Queries per unit of virtual time over the measurement window.
    pub per_time: f64,
    /// Completions counted in the window.
    pub completions: usize,
    /// Window length (virtual time).
    pub window: VTime,
}

/// Measures steady-state throughput adaptively: warms up until every
/// client has completed ~once (`warm_target = clients`), then measures
/// until `measure_target` further completions. `time_cap` bounds the
/// warm-up; the measurement phase may run on to `4 × time_cap`
/// (absolute virtual time). If a cap is hit, or the clients stop making
/// progress, the throughput over the partial window is returned (0 if
/// nothing completed).
pub fn measure_throughput(
    catalog: &Catalog,
    clients: &[QuerySpec],
    cfg: &EngineConfig,
    measure_target: usize,
    time_cap: VTime,
) -> Throughput {
    let mut cl = ClosedLoop::new(catalog, clients, cfg);
    cl.run_until_completions(clients.len(), time_cap);
    let t0 = cl.now();
    let c0 = cl.completions();
    cl.run_until_completions(c0 + measure_target, time_cap.saturating_mul(4));
    let window = cl.now().saturating_sub(t0);
    let completions = cl.completions() - c0;
    Throughput {
        per_time: if window == 0 {
            0.0
        } else {
            completions as f64 / window as f64
        },
        completions,
        window,
    }
}

/// Result of a one-shot (no resubmission) run.
#[derive(Debug, Clone)]
pub struct OnceOutcome {
    /// Result rows per submitted query, in submission order. Failed
    /// queries have empty (or partial, for runtime faults) rows — check
    /// `failures`.
    pub results: Vec<Vec<Vec<Value>>>,
    /// Per-task `(label, stats)` for profiling.
    pub task_stats: Vec<(String, cordoba_sim::TaskStats)>,
    /// Virtual completion time of the whole batch.
    pub makespan: VTime,
    /// Sizes of the dispatched sharing groups.
    pub group_sizes: Vec<usize>,
    /// `(submission id, error)` for queries that failed: plans rejected
    /// at instantiation or runtime faults (unsorted merge inputs,
    /// mismatched page schemas, spill I/O errors, exhausted budgets).
    pub failures: Vec<(usize, ExecError)>,
    /// Fingerprint-cache and subsumption activity.
    pub sharing: SharingCounters,
}

/// Records an [`ExecError::Stalled`] failure for every submission that
/// neither completed nor failed — a wedged (deadlocked) or time-capped
/// batch fails its unfinished queries instead of killing the process.
fn fail_stalled_submissions(core: &mut EngineCore, outcome: &RunOutcome) {
    let reason = match outcome.reason {
        StopReason::TimeLimit => "time cap",
        StopReason::Deadlock => "deadlock",
        // `Idle` means every task finished; nothing can be stalled.
        StopReason::Idle => return,
    };
    let mut finished = vec![false; core.next_submission];
    for &(submission, _) in &core.completion_records {
        finished[submission] = true;
    }
    for &(submission, _) in &core.failures {
        finished[submission] = true;
    }
    for (submission, done) in finished.into_iter().enumerate() {
        if !done {
            core.failures.push((
                submission,
                ExecError::Stalled {
                    reason,
                    live_tasks: outcome.live_tasks,
                },
            ));
            core.live_queries = core.live_queries.saturating_sub(1);
        }
    }
}

/// Runs a batch of queries once (closed system disabled) to completion,
/// collecting results and per-operator statistics. Used for correctness
/// tests (shared results must equal unshared results) and for the
/// Section 3.1 profiling procedure.
///
/// A batch that cannot finish (a wedged operator graph) fails its
/// unfinished queries with [`ExecError::Stalled`] rather than
/// panicking; check `failures` when the batch's health matters.
pub fn run_once(catalog: &Catalog, specs: &[QuerySpec], cfg: &EngineConfig) -> OnceOutcome {
    run_once_capped(catalog, specs, cfg, None)
}

/// Like [`run_once`] but with an optional virtual-time cap. Queries
/// unfinished at the cap (or on deadlock) are failed with
/// [`ExecError::Stalled`] — the query set fails, not the harness.
pub fn run_once_capped(
    catalog: &Catalog,
    specs: &[QuerySpec],
    cfg: &EngineConfig,
    time_cap: Option<VTime>,
) -> OnceOutcome {
    let (mut sim, core) = start(catalog, cfg, specs, false, true);
    let outcome = sim.run(time_cap);
    if !outcome.completed_all() {
        fail_stalled_submissions(&mut core.borrow_mut(), &outcome);
    }
    let task_stats = sim
        .all_task_stats()
        .map(|(_, name, stats)| (name.to_string(), *stats))
        .collect();
    let core = core.borrow();
    OnceOutcome {
        results: collected_rows(&core),
        task_stats,
        makespan: sim.now(),
        group_sizes: core.group_sizes.clone(),
        failures: core.failures.clone(),
        sharing: SharingCounters::from_core(&core),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{run_service, ArrivalSchedule, Disposition, ServiceConfig, ServiceReport};
    use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
    use cordoba_exec::{reference, PhysicalPlan};
    use cordoba_storage::{DataType, Field, Schema, TableBuilder};

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ]);
        let mut b = TableBuilder::new("t", schema);
        for i in 0..512 {
            b.push_row(&[Value::Int(i), Value::Float((i % 7) as f64)]);
        }
        let mut c = Catalog::new();
        c.register(b.finish());
        c
    }

    fn scan() -> PhysicalPlan {
        PhysicalPlan::Scan {
            table: "t".into(),
            cost: OpCost::new(4.0, 2.0),
        }
    }

    /// sum(v) over k < 256, shareable at the scan.
    fn query() -> QuerySpec {
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan()),
                predicate: Predicate::col_cmp(0, CmpOp::Lt, 256i64),
                cost: OpCost::per_tuple(0.5),
            }),
            group_by: vec![],
            aggs: vec![("s".into(), Agg::Sum(ScalarExpr::col(1)))],
            cost: OpCost::per_tuple(0.5),
        };
        QuerySpec::shared_at("q", plan, scan())
    }

    /// Projects column 9 of the two-column table: fails with a typed
    /// `PlanType` error.
    fn bad() -> QuerySpec {
        QuerySpec::unshared(
            "bad",
            PhysicalPlan::Project {
                input: Box::new(scan()),
                exprs: vec![("e".into(), ScalarExpr::col(9))],
                cost: OpCost::default(),
            },
        )
    }

    fn expected_rows(catalog: &Catalog) -> Vec<Vec<Value>> {
        reference::execute(catalog, &query().plan)
    }

    #[test]
    fn run_once_unshared_matches_reference() {
        let cat = catalog();
        let cfg = EngineConfig {
            contexts: 2,
            policy: Policy::NeverShare,
            ..Default::default()
        };
        let out = run_once(&cat, &[query(), query()], &cfg);
        assert_eq!(out.results.len(), 2);
        for r in &out.results {
            assert_eq!(r, &expected_rows(&cat));
        }
        // Never-share: all groups are singletons.
        assert_eq!(out.group_sizes, vec![1, 1]);
    }

    #[test]
    fn run_once_shared_matches_reference_and_merges() {
        let cat = catalog();
        let cfg = EngineConfig {
            contexts: 2,
            policy: Policy::AlwaysShare,
            ..Default::default()
        };
        let out = run_once(&cat, &[query(), query(), query()], &cfg);
        assert_eq!(out.group_sizes, vec![3], "all three queries must merge");
        for r in &out.results {
            assert_eq!(r, &expected_rows(&cat));
        }
    }

    #[test]
    fn shared_scan_runs_once_saving_work() {
        let cat = catalog();
        let never = EngineConfig {
            contexts: 1,
            policy: Policy::NeverShare,
            ..Default::default()
        };
        let always = EngineConfig {
            contexts: 1,
            policy: Policy::AlwaysShare,
            ..Default::default()
        };
        let out_n = run_once(&cat, &[query(), query(), query(), query()], &never);
        let out_s = run_once(&cat, &[query(), query(), query(), query()], &always);
        // On one context the shared batch must finish faster (the scan's
        // private work happens once instead of four times).
        assert!(
            out_s.makespan < out_n.makespan,
            "shared {} vs unshared {}",
            out_s.makespan,
            out_n.makespan
        );
        // Exactly one shared scan task vs four private ones.
        let scans = |o: &OnceOutcome| {
            o.task_stats
                .iter()
                .filter(|(n, _)| n.contains("scan(t)"))
                .count()
        };
        assert_eq!(scans(&out_s), 1);
        assert_eq!(scans(&out_n), 4);
    }

    #[test]
    fn parallel_engine_matches_reference_and_spawns_morsel_workers() {
        let cat = catalog();
        let cfg = EngineConfig {
            contexts: 4,
            policy: Policy::NeverShare,
            parallel: ParallelConfig::with_workers(4),
            ..Default::default()
        };
        let out = run_once(&cat, &[query(), query()], &cfg);
        assert!(out.failures.is_empty(), "failures: {:?}", out.failures);
        for r in &out.results {
            assert_eq!(r, &expected_rows(&cat));
        }
        let morsel_tasks = out
            .task_stats
            .iter()
            .filter(|(n, _)| n.contains(":par_"))
            .count();
        assert!(
            morsel_tasks > 0,
            "workers=4 should wire morsel-parallel task groups"
        );
    }

    #[test]
    fn intra_query_parallelism_shortens_makespan_on_multiple_contexts() {
        // One query, four contexts: the serial wiring leaves three
        // contexts idle, the morsel wiring spreads scan+filter work
        // across all four — virtual makespan must drop. The table needs
        // enough pages for the dispenser to hand each worker several
        // morsels.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ]);
        let mut b = TableBuilder::with_page_size("t", schema, 32);
        for i in 0..512 {
            b.push_row(&[Value::Int(i), Value::Float((i % 7) as f64)]);
        }
        let mut cat = Catalog::new();
        cat.register(b.finish());
        let serial = EngineConfig {
            contexts: 4,
            policy: Policy::NeverShare,
            // Pinned (Default consults CORDOBA_WORKERS): this arm must
            // stay serial for the comparison to mean anything.
            parallel: ParallelConfig::with_workers(1),
            ..Default::default()
        };
        let par = EngineConfig {
            contexts: 4,
            policy: Policy::NeverShare,
            parallel: ParallelConfig {
                workers: 4,
                morsel_pages: 1,
            },
            ..Default::default()
        };
        let out_serial = run_once(&cat, &[query()], &serial);
        let out_par = run_once(&cat, &[query()], &par);
        assert_eq!(out_serial.results, out_par.results);
        assert!(
            out_par.makespan < out_serial.makespan,
            "parallel {} vs serial {}",
            out_par.makespan,
            out_serial.makespan
        );
    }

    #[test]
    fn malformed_query_fails_without_killing_the_batch() {
        // One malformed query among healthy ones: the bad submission
        // is recorded as a failure, everything else completes normally.
        let cat = catalog();
        let cfg = EngineConfig {
            contexts: 2,
            policy: Policy::NeverShare,
            ..Default::default()
        };
        let out = run_once(&cat, &[query(), bad(), query()], &cfg);
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        assert_eq!(out.failures[0].0, 1, "submission id of the bad query");
        assert!(
            matches!(out.failures[0].1, ExecError::PlanType(_)),
            "{:?}",
            out.failures[0].1
        );
        assert_eq!(out.results[0], expected_rows(&cat));
        assert!(out.results[1].is_empty(), "failed query has no rows");
        assert_eq!(out.results[2], expected_rows(&cat));
    }

    #[test]
    fn closed_loop_reports_throughput() {
        let cat = catalog();
        let cfg = EngineConfig {
            contexts: 2,
            policy: Policy::NeverShare,
            ..Default::default()
        };
        let clients = [query(), query()];
        let tp = measure_throughput(&cat, &clients, &cfg, 8, 2_000_000);
        assert!(tp.completions >= 8, "{tp:?}");
        assert!(tp.per_time > 0.0 && tp.window > 0, "{tp:?}");
        let mut cl = ClosedLoop::new(&cat, &clients, &cfg);
        assert!(!cl.run_until_completions(usize::MAX, 2_000_000));
        assert_eq!(cl.now(), 2_000_000, "a live closed loop runs to its cap");
        assert!((cl.mean_group_size() - 1.0).abs() < 1e-9);
        // Two clients on two contexts keep the machine mostly busy.
        assert!(cl.stats().utilization() > 0.5);
    }

    #[test]
    fn closed_loop_always_share_forms_groups_repeatedly() {
        let cat = catalog();
        let cfg = EngineConfig {
            contexts: 2,
            policy: Policy::AlwaysShare,
            ..Default::default()
        };
        let mut cl = ClosedLoop::new(&cat, &[query(), query(), query(), query()], &cfg);
        cl.run_until_completions(usize::MAX, 2_000_000);
        // A group holds at most the four live clients, so more than
        // eight completions means groups kept re-forming as the closed
        // loop resubmitted.
        assert!(cl.completions() > 8, "{}", cl.completions());
        assert!(cl.mean_group_size() > 1.5, "{}", cl.mean_group_size());
    }

    #[test]
    fn completions_are_timestamped_within_duration() {
        let cat = catalog();
        let cfg = EngineConfig {
            contexts: 1,
            policy: Policy::NeverShare,
            ..Default::default()
        };
        let mut cl = ClosedLoop::new(&cat, &[query()], &cfg);
        cl.run_until_completions(usize::MAX, 500_000);
        assert!(cl.completions() > 0);
        assert_eq!(cl.completions_since(500_000), 0, "nothing past the cap");
        assert_eq!(cl.completions_of_since("q", 0), cl.completions());
    }

    #[test]
    fn throughput_of_clients_that_never_complete_is_zero() {
        // Failed queries are not resubmitted, so a closed loop whose
        // only client fails has nothing left to run. The measurement
        // must stop there instead of spinning on a frozen clock; the
        // watchdog turns a hang into a failure.
        let (tx, rx) = std::sync::mpsc::channel();
        let measuring = std::thread::spawn(move || {
            let cfg = EngineConfig {
                contexts: 1,
                ..Default::default()
            };
            tx.send(measure_throughput(
                &catalog(),
                &[bad()],
                &cfg,
                10,
                1_000_000,
            ))
        });
        let tp = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("measure_throughput must return when no client can complete");
        measuring
            .join()
            .expect("measuring thread panicked")
            .expect("receiver alive");
        assert_eq!(tp.completions, 0, "{tp:?}");
        assert_eq!(tp.per_time, 0.0);
    }

    /// An open system that never refuses an arrival.
    fn open(
        cat: &Catalog,
        schedule: ArrivalSchedule,
        engine: EngineConfig,
        time_cap: Option<VTime>,
    ) -> ServiceReport {
        let cfg = ServiceConfig {
            engine,
            admission_capacity: usize::MAX,
            time_cap,
        };
        run_service(cat, schedule, &cfg)
    }

    #[test]
    fn open_loop_completes_all_scheduled_arrivals() {
        let cat = catalog();
        // Irregular gaps of about 5,000 time units.
        let schedule: ArrivalSchedule = (0..12u64)
            .map(|i| (i * 5_000 + (i * i * 1_237) % 4_000, query()))
            .collect();
        let cfg = EngineConfig {
            contexts: 4,
            policy: Policy::AlwaysShare,
            ..Default::default()
        };
        let report = open(&cat, schedule, cfg, Some(1_000_000_000));
        assert_eq!(report.completed, 12, "{report:?}");
        assert_eq!(report.response_times.len(), 12);
        assert!(report.response_times.iter().all(|&t| t > 0));
        assert!(report.mean_response().unwrap() > 0.0);
        assert!(report.throughput() > 0.0);
        assert_eq!(
            report.in_flight, 0,
            "drained schedule has nothing in flight"
        );
        assert!(report
            .dispositions
            .iter()
            .all(|d| matches!(d, Disposition::Completed { .. })));
        let p_max = report.latency().quantile(1.0).unwrap();
        assert_eq!(p_max, *report.response_times.iter().max().unwrap());
    }

    #[test]
    fn open_loop_staggered_arrivals_share_less_than_batch() {
        // Arrivals far apart never co-reside in the formation window,
        // so even always-share dispatches singletons; a burst merges.
        let cat = catalog();
        let cfg = EngineConfig {
            contexts: 2,
            policy: Policy::AlwaysShare,
            ..Default::default()
        };
        let sparse: ArrivalSchedule = (0..6).map(|i| (i * 50_000_000, query())).collect();
        let sparse_report = open(&cat, sparse, cfg.clone(), None);
        assert!(
            sparse_report.group_sizes.iter().all(|&g| g == 1),
            "{:?}",
            sparse_report.group_sizes
        );
        let burst: ArrivalSchedule = (0..6).map(|_| (1000, query())).collect();
        let burst_report = open(&cat, burst, cfg, None);
        assert_eq!(burst_report.group_sizes, vec![6]);
        // Sharing the burst lowers mean response vs the per-query cost
        // of redundant scans... at least, every query still finishes.
        assert_eq!(burst_report.completed, 6);
    }

    #[test]
    fn open_loop_respects_time_cap() {
        let cat = catalog();
        let cfg = EngineConfig {
            contexts: 1,
            ..Default::default()
        };
        let schedule: ArrivalSchedule = (0..50).map(|_| (0, query())).collect();
        let report = open(&cat, schedule, cfg, Some(50_000));
        assert!(report.completed < 50, "cap must cut the run short");
        assert!(report.makespan <= 50_000);
        // The cut-off queries are accounted, not dropped: the report
        // constructor asserts offered == completed + failed + rejected
        // + in_flight.
        assert_eq!(report.rejected, 0);
        assert_eq!(
            report.in_flight,
            50 - report.completed - report.failures.len()
        );
        assert!(report.in_flight > 0);
        let in_flight = report
            .dispositions
            .iter()
            .filter(|d| **d == Disposition::InFlight)
            .count();
        assert_eq!(in_flight, report.in_flight);
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        // A one-spec Poisson schedule is `poisson_mix` over a pool of one.
        use cordoba_workload::arrivals::poisson_mix;
        let spec = cordoba_workload::q6(&cordoba_workload::CostProfile::paper());
        let one = std::slice::from_ref(&spec);
        let times = |s: &[(VTime, _)]| s.iter().map(|(t, _)| *t).collect::<Vec<_>>();
        let a = poisson_mix(one, 20, 1_000, 42);
        let b = poisson_mix(one, 20, 1_000, 42);
        assert_eq!(a, b);
        let c = poisson_mix(one, 20, 1_000, 43);
        assert_ne!(times(&a), times(&c));
    }
}
