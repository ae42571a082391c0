//! Open-system query **service**: queries arrive on a schedule, pass a
//! bounded admission queue, and every offered query gets an explicit
//! disposition.
//!
//! This is the open-system regime of paper Section 5.1: queries arrive
//! independently of response times, the engine either admits them or —
//! when the bounded admission queue is full — refuses them with a typed
//! [`Disposition::Rejected`] outcome (backpressure by load-shedding, not
//! by blocking the client), and the books always balance:
//!
//! ```text
//! offered == completed + failures + rejected + in_flight
//! ```
//!
//! [`run_service`] reports the dispositions and latencies;
//! [`run_open_loop_collecting`] runs the same loop with an unbounded
//! queue and also returns every query's result rows, the correctness
//! harness for time-staggered sharing.
//!
//! ## Sharing as an admission/merge controller
//!
//! Admission happens in two stages. The *service* stage bounds the
//! multiprogramming level: an arrival is refused outright when
//! [`ServiceConfig::admission_capacity`] queries are already live
//! (queued, forming, or executing). An admitted arrival then wakes the
//! dispatcher, which consults [`crate::Policy::admit_overlap`] **per
//! arrival against the live group table** — each open
//! formation-window group whose fingerprint matches is offered the
//! newcomer, and the model decides (under the current fair-share
//! `n_eff`) whether merging is a net win. The sharing policy thus acts
//! as the merge half of the admission controller: capacity decides
//! *whether* a query enters, the model decides *where*.
//!
//! Arrival schedules (Poisson mixes, bursty on/off, load ramps, chaos
//! campaigns) are generated by `cordoba-workload`'s `arrivals` module
//! and are ordinary [`ArrivalSchedule`]s — the service is agnostic to
//! how the schedule was drawn.

use crate::dispatcher::EngineCore;
use crate::query::QuerySpec;
use crate::runner::{collected_rows, start, EngineConfig, SharingCounters};
use cordoba_exec::ExecError;
use cordoba_sim::{Histogram, SimStats, Step, Task, TaskCtx, VTime};
use cordoba_storage::{Catalog, Value};
use std::cell::RefCell;
use std::rc::Rc;

/// An arrival schedule for an open system: `(arrival time, query)`
/// pairs sorted by time.
pub type ArrivalSchedule = Vec<(VTime, QuerySpec)>;

/// What became of one offered query.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// Completed normally.
    Completed {
        /// Virtual completion time.
        at: VTime,
        /// Response time (completion − arrival).
        response: VTime,
    },
    /// Failed (rejected plan or runtime fault) — never completed.
    Failed(ExecError),
    /// Refused at admission (bounded service queue full) — never
    /// entered the engine.
    Rejected,
    /// Still unfinished when the run stopped at its time cap: either
    /// in the engine (queued, forming, or executing) or a scheduled
    /// arrival the cap cut off before it was submitted.
    InFlight,
}

/// Configuration of one service run.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The engine under the service loop.
    pub engine: EngineConfig,
    /// Bounded admission queue: the maximum number of live queries
    /// (queued, forming, or executing). An arrival finding the system
    /// at capacity is refused with [`Disposition::Rejected`].
    pub admission_capacity: usize,
    /// Optional virtual-time cap; queries unfinished at the cap are
    /// reported as in flight, never dropped.
    pub time_cap: Option<VTime>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            admission_capacity: 64,
            time_cap: None,
        }
    }
}

/// Where one offered query stands from the service's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Scheduled but not yet arrived (a time cap may strand it here).
    Pending,
    /// Refused at admission: the system was at capacity.
    Rejected,
    /// Admitted, with its engine submission id.
    Submitted(usize),
}

/// The arrival/admission task: sleeps between scheduled arrivals, and on
/// each arrival either refuses it (system at capacity) or submits it and
/// wakes the dispatcher so the merge controller sees it immediately.
struct ServiceTask {
    core: Rc<RefCell<EngineCore>>,
    schedule: std::vec::IntoIter<(VTime, QuerySpec)>,
    pending: Option<(VTime, QuerySpec)>,
    slots: Rc<RefCell<Vec<Slot>>>,
    capacity: usize,
    next_index: usize,
}

impl Task for ServiceTask {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        let now = ctx.now();
        loop {
            let (at, spec) = match self.pending.take().or_else(|| self.schedule.next()) {
                Some(x) => x,
                None => return Step::done(0),
            };
            if at > now {
                let delay = at - now;
                self.pending = Some((at, spec));
                return Step::sleep(0, delay);
            }
            let index = self.next_index;
            self.next_index += 1;
            let mut core = self.core.borrow_mut();
            core.external_arrivals_pending = core.external_arrivals_pending.saturating_sub(1);
            if core.live_queries >= self.capacity {
                self.slots.borrow_mut()[index] = Slot::Rejected;
                continue;
            }
            let submission = core.submit_at(spec, now);
            self.slots.borrow_mut()[index] = Slot::Submitted(submission);
            let dispatcher = core.dispatcher;
            drop(core);
            if let Some(d) = dispatcher {
                ctx.wake(d);
            }
        }
    }
}

/// Outcome of a service run: per-query dispositions over the *offered*
/// schedule, with rejections and in-flight queries first-class.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Queries offered (the whole schedule).
    pub offered: usize,
    /// Queries admitted into the engine.
    pub submitted: usize,
    /// Queries that completed.
    pub completed: usize,
    /// Queries refused at admission (system at capacity).
    pub rejected: usize,
    /// Queries unfinished when the run stopped: engine-resident, or
    /// scheduled arrivals a time cap cut off.
    pub in_flight: usize,
    /// Virtual end time.
    pub makespan: VTime,
    /// Response times (completion − arrival) of completed queries, in
    /// completion order.
    pub response_times: Vec<VTime>,
    /// Disposition per offered query, indexed by schedule position.
    pub dispositions: Vec<Disposition>,
    /// `(schedule position, error)` for queries that failed in the
    /// engine (rejected plans, runtime faults, injected chaos).
    pub failures: Vec<(usize, ExecError)>,
    /// Sizes of the dispatched sharing groups.
    pub group_sizes: Vec<usize>,
    /// Fingerprint-cache and subsumption activity.
    pub sharing: SharingCounters,
    /// Machine statistics (utilization etc.).
    pub stats: SimStats,
}

impl ServiceReport {
    fn new(core: &EngineCore, slots: &[Slot], makespan: VTime, stats: SimStats) -> Self {
        let response =
            |submission: usize, done: VTime| done.saturating_sub(core.arrival_times[submission]);
        let mut engine_dispositions = vec![Disposition::InFlight; core.next_submission];
        for &(submission, done) in &core.completion_records {
            engine_dispositions[submission] = Disposition::Completed {
                at: done,
                response: response(submission, done),
            };
        }
        for (submission, err) in &core.failures {
            engine_dispositions[*submission] = Disposition::Failed(err.clone());
        }
        let offered = slots.len();
        let mut dispositions = vec![Disposition::InFlight; offered];
        let mut failures = Vec::new();
        let mut submitted = 0;
        let mut rejected = 0;
        for (index, slot) in slots.iter().enumerate() {
            match slot {
                Slot::Pending => {}
                Slot::Rejected => {
                    rejected += 1;
                    dispositions[index] = Disposition::Rejected;
                }
                Slot::Submitted(submission) => {
                    submitted += 1;
                    dispositions[index] = engine_dispositions[*submission].clone();
                    if let Disposition::Failed(err) = &dispositions[index] {
                        failures.push((index, err.clone()));
                    }
                }
            }
        }
        let completed = core.completion_records.len();
        let in_flight = dispositions
            .iter()
            .filter(|d| **d == Disposition::InFlight)
            .count();
        let response_times = core
            .completion_records
            .iter()
            .map(|&(submission, done)| response(submission, done))
            .collect();
        let report = Self {
            offered,
            submitted,
            completed,
            rejected,
            in_flight,
            makespan,
            response_times,
            dispositions,
            failures,
            group_sizes: core.group_sizes.clone(),
            sharing: SharingCounters::from_core(core),
            stats,
        };
        assert_eq!(
            report.offered,
            report.completed + report.failures.len() + report.rejected + report.in_flight,
            "service accounting must balance: {} offered vs {} completed + {} failed + {} rejected + {} in flight",
            report.offered,
            report.completed,
            report.failures.len(),
            report.rejected,
            report.in_flight,
        );
        assert_eq!(report.dispositions.len(), report.offered);
        report
    }

    /// Response-time distribution of the completed queries (exact
    /// nearest-rank p50/p99/p999 via [`Histogram::summary`]).
    pub fn latency(&self) -> Histogram {
        Histogram::from_samples(self.response_times.clone())
    }

    /// Mean response time over completed queries, or `None` when
    /// nothing completed.
    pub fn mean_response(&self) -> Option<f64> {
        if self.response_times.is_empty() {
            return None;
        }
        Some(
            self.response_times.iter().map(|&t| t as f64).sum::<f64>()
                / self.response_times.len() as f64,
        )
    }

    /// Completions per unit of virtual time over the whole run.
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.completed as f64 / self.makespan as f64
    }

    /// Fraction of offered queries refused at admission.
    pub fn rejection_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.rejected as f64 / self.offered as f64
    }
}

/// Runs the service: queries arrive per `schedule`, pass the bounded
/// admission queue, and execute under the engine's sharing policy. The
/// run lasts until the schedule drains and the engine empties, or until
/// `cfg.time_cap`.
pub fn run_service(
    catalog: &Catalog,
    schedule: ArrivalSchedule,
    cfg: &ServiceConfig,
) -> ServiceReport {
    serve(catalog, schedule, cfg, false).0
}

/// Like [`run_service`] with an unbounded admission queue, but also
/// collects every query's result rows (indexed by schedule position).
/// This is the correctness harness for *time-staggered* sharing:
/// fragment-cache replay serves arrivals that come in after a fragment
/// completed, which [`crate::run_once`]'s everything-at-t=0 batch can
/// never exercise.
#[allow(clippy::type_complexity)]
pub fn run_open_loop_collecting(
    catalog: &Catalog,
    schedule: ArrivalSchedule,
    cfg: &EngineConfig,
    time_cap: VTime,
) -> (ServiceReport, Vec<Vec<Vec<Value>>>) {
    let cfg = ServiceConfig {
        engine: cfg.clone(),
        admission_capacity: usize::MAX,
        time_cap: Some(time_cap),
    };
    serve(catalog, schedule, &cfg, true)
}

/// The one open-system loop behind [`run_service`] and
/// [`run_open_loop_collecting`]. Rows are collected only when `collect`
/// is set.
fn serve(
    catalog: &Catalog,
    schedule: ArrivalSchedule,
    cfg: &ServiceConfig,
    collect: bool,
) -> (ServiceReport, Vec<Vec<Vec<Value>>>) {
    let (mut sim, core) = start(catalog, &cfg.engine, &[], false, collect);
    core.borrow_mut().external_arrivals_pending = schedule.len();
    let slots = Rc::new(RefCell::new(vec![Slot::Pending; schedule.len()]));
    sim.spawn(
        "service",
        Box::new(ServiceTask {
            core: core.clone(),
            schedule: schedule.into_iter(),
            pending: None,
            slots: slots.clone(),
            capacity: cfg.admission_capacity.max(1),
            next_index: 0,
        }),
    );
    sim.run(cfg.time_cap);
    let core = core.borrow();
    let report = ServiceReport::new(&core, &slots.borrow(), sim.now(), sim.stats());
    (report, collected_rows(&core))
}
