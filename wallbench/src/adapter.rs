//! Every call from the benchmark into the Cordoba crates.
//!
//! Workload set-up, the timed calls, their correctness checks and the
//! traced per-layer walks reach the program through this file only, so
//! re-pointing the benchmark at a renamed or merged entry point is a
//! change to this one file.

use crate::measure::{self, Tracer};
use cordoba_engine::profiling::profile_query;
use cordoba_engine::sharing::split_at_pivot;
use cordoba_engine::thread_exec::{self, ThreadReport};
use cordoba_engine::{
    run_once, run_open_loop_collecting, run_service, ArrivalSchedule, CachedFragment, EngineConfig,
    ExecError, FragmentCache, OnceOutcome, OverlapInfo, ParallelConfig, Policy, QuerySpec,
    ServiceConfig, ServiceReport,
};
use cordoba_exec::parallel::{self, StageSpec};
use cordoba_exec::wiring::{self, WiringConfig};
use cordoba_exec::{
    reference, subsume, Agg, CompiledPredicate, ExprScratch, MemoryBroker, MemoryConfig, OpCost,
    PhysicalPlan,
};
use cordoba_sim::{Simulator, VTime};
use cordoba_storage::tpch::{generate, TpchConfig};
use cordoba_storage::{Catalog, Page, Schema, SpillWriter, Table, TableBuilder, Value};
use cordoba_workload::arrivals::bursty;
use cordoba_workload::{family_specs, q13, q4, q6, CostProfile, FamilyConfig};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// TPC-H scale: `lineitem` is about 7.7 MB, larger than a 2 MB
/// per-core L2, so every scan streams from memory.
const SCALE_FACTOR: f64 = 0.02;
/// Queries per thread-workload call (`m`).
const CONSUMERS: usize = 8;
/// Simulated hardware contexts of the simulator workloads.
const CONTEXTS: usize = 2;
/// Queries `run_unshared_parallel` runs at once.
const QUERY_THREADS: usize = 1;
/// Morsel workers per query in `threads_join_private`.
const MORSEL_WORKERS: usize = 2;
/// Fragment-cache capacity of `sim_family_service`.
const FRAGMENT_CACHE: usize = 8;
/// Family workload shape: 2 families of 4 nested windows, drawn from
/// the family generator's default seed. The query mix is fixed so that
/// its cost does not swing with `--seed` (window selectivity alone moves
/// a call's work by ±25% between family draws); `--seed` drives the
/// data and the arrival schedule.
const FAMILIES: usize = 2;
const PER_FAMILY: usize = 4;
/// Bursty schedule: 5 bursts of 8 back-to-back arrivals. The mean idle
/// gap is ~200× a burst's drain time, so bursts practically never
/// overlap and later bursts replay the fragments earlier ones cached.
const BURSTS: usize = 5;
const BURST_SIZE: usize = 8;
const WITHIN_GAP: VTime = 500;
const IDLE_GAP: VTime = 1_000_000_000;
/// The spill workload's budget is this fraction of the largest
/// in-memory operator state among its queries.
const BUDGET_DIVISOR: usize = 4;
/// Table name the shared path registers the received pivot output under.
const SHARED_SRC: &str = "__shared_src";
/// `lineitem` columns the walks read (see `tpch::lineitem_schema`).
const L_ORDERKEY: usize = 0;
const L_SHIPDATE: usize = 7;
const L_COMMITDATE: usize = 8;
const L_RECEIPTDATE: usize = 9;
/// `orders` columns the walks read.
const O_ORDERKEY: usize = 0;
const O_ORDERDATE: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `thread_exec::run_shared(Q6, m = 8)`.
    ScanShared,
    /// `thread_exec::run_unshared_parallel(Q4, m = 8, threads 1, workers 2)`.
    JoinPrivate,
    /// `run_service` over a bursty family schedule, model-guided.
    FamilyService,
    /// `run_once([Q4, Q13, sort])` under a quarter-state memory budget.
    JoinSpill,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ScanShared,
        Workload::JoinPrivate,
        Workload::FamilyService,
        Workload::JoinSpill,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanShared => "threads_scan_shared",
            Workload::JoinPrivate => "threads_join_private",
            Workload::FamilyService => "sim_family_service",
            Workload::JoinSpill => "sim_join_spill",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Generates the TPC-H catalog for `seed`.
pub fn catalog(seed: u64) -> Catalog {
    generate(&TpchConfig {
        scale_factor: SCALE_FACTOR,
        seed,
        ..TpchConfig::default()
    })
}

/// Deterministic outcome of one simulator replay; two replays with the
/// same inputs must produce equal digests.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    /// p99 virtual response time.
    pub vt_latency_p99: f64,
    /// Virtual time from the last arrival until the engine drained
    /// (the makespan for batches submitted at t = 0).
    pub vt_makespan: f64,
    /// Fragment-cache hits per lookup (0 without lookups).
    pub hit_ratio: f64,
    /// Mean dispatched sharing-group size.
    pub mean_group_size: f64,
    /// Simulator steps per query, each query alone on a fresh simulator.
    pub steps_per_query: f64,
}

/// What a timed call returned, checked after the clock stopped.
pub enum Output {
    /// A thread-workload report.
    Threads(Result<ThreadReport, ExecError>),
    /// A service run.
    Service(ServiceReport),
    /// A one-shot simulator batch.
    Once(OnceOutcome),
}

/// Queries one call attempted and how many of them failed, were
/// refused, or returned wrong rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checked {
    /// Queries attempted.
    pub queries: u64,
    /// Queries failed, refused, stranded or wrong.
    pub failed: u64,
}

/// A workload's inputs, reference results and engine configuration,
/// built once per set-up.
pub struct Prepared {
    workload: Workload,
    catalog: Catalog,
    /// Distinct query specs of the workload (the family pool for the
    /// service workload).
    specs: Vec<QuerySpec>,
    /// Reference rows per spec, canonicalized where the check is a
    /// multiset comparison.
    oracle: Vec<Expected>,
    engine: EngineConfig,
    schedule: ArrivalSchedule,
    spill_dir: PathBuf,
    digest: Digest,
    /// Whether the set-up checks (determinism guard, collected service
    /// rows, clean spill directory) passed.
    setup_ok: bool,
    /// Wall milliseconds of each `profile_query` call (family only).
    pub profile_ms: Vec<f64>,
}

/// Reference result of one spec.
enum Expected {
    /// Rows that must match exactly, in order.
    Exact(Vec<Vec<Value>>),
    /// Rows compared as a multiset via `reference::canonicalize`.
    Canonical(Vec<Vec<Value>>),
    /// A large sorted output: non-decreasing on the key column, and the
    /// same multiset of rows (compared by an order-independent digest,
    /// since canonicalizing 10^5 rows per call would dwarf the call).
    Sorted {
        key: usize,
        rows: usize,
        digest: (u64, u64),
    },
}

impl Expected {
    fn matches(&self, rows: &[Vec<Value>]) -> bool {
        match self {
            Expected::Exact(want) => rows == want.as_slice(),
            Expected::Canonical(want) => reference::canonicalize(rows.to_vec()) == *want,
            Expected::Sorted {
                key,
                rows: n,
                digest,
            } => {
                rows.len() == *n
                    && rows.windows(2).all(|w| value_le(&w[0][*key], &w[1][*key]))
                    && multiset_digest(rows) == *digest
            }
        }
    }
}

fn value_le(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x <= y,
        (Value::Float(x), Value::Float(y)) => x <= y,
        (Value::Date(x), Value::Date(y)) => x <= y,
        (Value::Str(x), Value::Str(y)) => x <= y,
        _ => false,
    }
}

/// Order-independent digest of a row multiset: the wrapping sum and the
/// xor of per-row hashes.
fn multiset_digest(rows: &[Vec<Value>]) -> (u64, u64) {
    rows.iter().fold((0u64, 0u64), |(sum, xor), row| {
        let mut h = DefaultHasher::new();
        for v in row {
            match v {
                Value::Int(i) => (0u8, *i).hash(&mut h),
                Value::Float(f) => (1u8, f.to_bits()).hash(&mut h),
                Value::Date(d) => (2u8, d.0).hash(&mut h),
                Value::Str(s) => (3u8, s.as_str()).hash(&mut h),
            }
        }
        let x = h.finish();
        (sum.wrapping_add(x), xor ^ x)
    })
}

fn engine_config(policy: Policy, fragment_cache: usize, memory: MemoryConfig) -> EngineConfig {
    EngineConfig {
        contexts: CONTEXTS,
        policy,
        // Pinned so the environment cannot change the simulated wiring.
        parallel: ParallelConfig::with_workers(1),
        fragment_cache,
        memory,
        ..EngineConfig::default()
    }
}

fn sort_by_shipdate(costs: &CostProfile) -> QuerySpec {
    QuerySpec::unshared(
        "sort_shipdate",
        PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::Scan {
                table: "lineitem".into(),
                cost: costs.scan,
            }),
            keys: vec![L_SHIPDATE],
            cost: costs.sort,
        },
    )
}

/// One query run alone on a fresh simulator.
struct SimQuery {
    rows: usize,
    steps: u64,
    peak: usize,
}

fn sim_query(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    memory: &MemoryConfig,
) -> Result<SimQuery, String> {
    let cfg = WiringConfig {
        memory: memory.clone(),
        parallel: ParallelConfig::with_workers(1),
        ..WiringConfig::default()
    };
    let mut sim = Simulator::new(CONTEXTS);
    let (rx, _ops, res) = wiring::instantiate(&mut sim, catalog, plan, "wallbench", &cfg)
        .map_err(|e| e.to_string())?;
    let rows = wiring::run_and_collect(&mut sim, rx, OpCost::default(), &res.fault)
        .map_err(|e| e.to_string())?;
    Ok(SimQuery {
        rows: rows.len(),
        steps: sim.all_task_stats().map(|(_, _, s)| s.steps).sum(),
        peak: res.broker.peak(),
    })
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn dir_is_empty(dir: &Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|mut d| d.next().is_none())
}

impl Prepared {
    /// Builds `workload`'s inputs on `catalog`: query specs, reference
    /// results, profiled models and schedule (family), memory budget
    /// (spill), and the virtual-time digest, replayed twice.
    pub fn setup(
        workload: Workload,
        catalog: Catalog,
        seed: u64,
        spill_dir: &Path,
    ) -> Result<Self, String> {
        let costs = CostProfile::paper();
        let memory = MemoryConfig {
            spill_dir: Some(spill_dir.to_path_buf()),
            ..MemoryConfig::default()
        };
        let mut profile_ms = Vec::new();
        let mut schedule = ArrivalSchedule::new();
        let (specs, engine) = match workload {
            Workload::ScanShared => (
                vec![q6(&costs)],
                engine_config(Policy::AlwaysShare, 0, memory),
            ),
            Workload::JoinPrivate => (
                vec![q4(&costs)],
                engine_config(Policy::NeverShare, 0, memory),
            ),
            Workload::FamilyService => {
                let pool = family_specs(
                    &costs,
                    &FamilyConfig {
                        families: FAMILIES,
                        per_family: PER_FAMILY,
                        ..FamilyConfig::default()
                    },
                );
                let base = engine_config(Policy::NeverShare, 0, memory.clone());
                let mut models = HashMap::new();
                for spec in &pool {
                    let start = Instant::now();
                    let (info, _) = profile_query(&catalog, spec, &base)
                        .map_err(|e| format!("profiling {}: {e}", spec.name))?;
                    profile_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    models.insert(spec.name.clone(), info);
                }
                schedule = bursty(&pool, BURSTS, BURST_SIZE, WITHIN_GAP, IDLE_GAP, seed);
                (
                    pool,
                    engine_config(Policy::model_guided(models), FRAGMENT_CACHE, memory),
                )
            }
            Workload::JoinSpill => {
                let specs = vec![q4(&costs), q13(&costs), sort_by_shipdate(&costs)];
                let mut largest = 0;
                for spec in &specs {
                    largest = largest.max(sim_query(&catalog, &spec.plan, &memory)?.peak);
                }
                let memory = MemoryConfig {
                    query_budget: Some((largest / BUDGET_DIVISOR).max(1)),
                    ..memory
                };
                (specs, engine_config(Policy::NeverShare, 0, memory))
            }
        };
        let oracle = specs
            .iter()
            .map(|spec| {
                let rows = reference::execute(&catalog, &spec.plan);
                match (workload, &spec.plan) {
                    (_, PhysicalPlan::Sort { keys, .. }) => Expected::Sorted {
                        key: keys[0],
                        rows: rows.len(),
                        digest: multiset_digest(&rows),
                    },
                    (Workload::ScanShared | Workload::FamilyService, _) => Expected::Exact(rows),
                    _ => Expected::Canonical(reference::canonicalize(rows)),
                }
            })
            .collect();
        let mut prepared = Prepared {
            workload,
            catalog,
            specs,
            oracle,
            engine,
            schedule,
            spill_dir: spill_dir.to_path_buf(),
            digest: Digest {
                vt_latency_p99: 0.0,
                vt_makespan: 0.0,
                hit_ratio: 0.0,
                mean_group_size: 0.0,
                steps_per_query: 0.0,
            },
            setup_ok: true,
            profile_ms,
        };
        // Determinism guard: two untimed replays must agree.
        let first = prepared.replay()?;
        let second = prepared.replay()?;
        if first != second {
            eprintln!("wallbench: replays disagree: {first:?} vs {second:?}");
            prepared.setup_ok = false;
        }
        prepared.digest = first;
        if workload == Workload::FamilyService {
            prepared.setup_ok &= prepared.service_rows_match();
        }
        prepared.setup_ok &= dir_is_empty(&prepared.spill_dir);
        Ok(prepared)
    }

    /// Virtual-time digest of the workload's batch in the simulator.
    fn replay(&self) -> Result<Digest, String> {
        let steps: u64 = self
            .specs
            .iter()
            .map(|spec| sim_query(&self.catalog, &spec.plan, &self.engine.memory).map(|q| q.steps))
            .sum::<Result<u64, String>>()?;
        let steps_per_query = steps as f64 / self.specs.len() as f64;
        match self.workload {
            Workload::ScanShared | Workload::JoinPrivate => {
                let batch = vec![self.specs[0].clone(); CONSUMERS];
                Ok(once_digest(
                    &run_once(&self.catalog, &batch, &self.engine),
                    steps_per_query,
                ))
            }
            Workload::JoinSpill => Ok(once_digest(
                &run_once(&self.catalog, &self.specs, &self.engine),
                steps_per_query,
            )),
            Workload::FamilyService => {
                let report =
                    run_service(&self.catalog, self.schedule.clone(), &self.service_config());
                Ok(service_digest(&report, &self.schedule, steps_per_query))
            }
        }
    }

    fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            engine: self.engine.clone(),
            admission_capacity: self.schedule.len().max(1),
            time_cap: None,
        }
    }

    /// `run_service` returns no rows, so its schedule runs once through
    /// the collecting open loop and every query's rows are compared
    /// with the reference.
    fn service_rows_match(&self) -> bool {
        let (report, rows) = run_open_loop_collecting(
            &self.catalog,
            self.schedule.clone(),
            &self.engine,
            VTime::MAX,
        );
        report.completed == self.schedule.len()
            && rows.len() == self.schedule.len()
            && self.schedule.iter().zip(rows).all(|((_, spec), rows)| {
                self.specs
                    .iter()
                    .position(|s| s.plan == spec.plan)
                    .is_some_and(|i| self.oracle[i].matches(&rows))
            })
    }

    /// The virtual-time digest the determinism guard settled on.
    pub fn digest(&self) -> &Digest {
        &self.digest
    }

    /// Whether every set-up check passed.
    pub fn setup_ok(&self) -> bool {
        self.setup_ok
    }

    /// The timed call.
    pub fn call(&self) -> Output {
        match self.workload {
            Workload::ScanShared => Output::Threads(Ok(thread_exec::run_shared(
                &self.catalog,
                &self.specs[0],
                CONSUMERS,
            ))),
            Workload::JoinPrivate => Output::Threads(thread_exec::run_unshared_parallel(
                &self.catalog,
                &self.specs[0],
                CONSUMERS,
                QUERY_THREADS,
                &ParallelConfig::with_workers(MORSEL_WORKERS),
            )),
            Workload::FamilyService => Output::Service(run_service(
                &self.catalog,
                self.schedule.clone(),
                &self.service_config(),
            )),
            Workload::JoinSpill => Output::Once(run_once(&self.catalog, &self.specs, &self.engine)),
        }
    }

    /// Checks a call's output against the reference rows and the
    /// set-up digest.
    pub fn check(&self, output: Output) -> Checked {
        match output {
            Output::Threads(Err(e)) => {
                eprintln!("wallbench: {} failed: {e}", self.workload.name());
                Checked {
                    queries: CONSUMERS as u64,
                    failed: CONSUMERS as u64,
                }
            }
            Output::Threads(Ok(report)) => {
                let good = report
                    .results
                    .into_iter()
                    .take(CONSUMERS)
                    .filter(|rows| self.oracle[0].matches(rows))
                    .count();
                Checked {
                    queries: CONSUMERS as u64,
                    failed: (CONSUMERS - good) as u64,
                }
            }
            Output::Service(report) => {
                let offered = self.schedule.len() as u64;
                let steps = self.digest.steps_per_query;
                if service_digest(&report, &self.schedule, steps) != self.digest {
                    return Checked {
                        queries: offered,
                        failed: offered,
                    };
                }
                Checked {
                    queries: offered,
                    failed: offered - report.completed.min(self.schedule.len()) as u64,
                }
            }
            Output::Once(outcome) => {
                let queries = self.specs.len() as u64;
                let same = once_digest(&outcome, self.digest.steps_per_query) == self.digest;
                if !same || !dir_is_empty(&self.spill_dir) {
                    return Checked {
                        queries,
                        failed: queries,
                    };
                }
                let failed: Vec<usize> = outcome.failures.iter().map(|(i, _)| *i).collect();
                let good = outcome
                    .results
                    .into_iter()
                    .enumerate()
                    .filter(|(i, rows)| !failed.contains(i) && self.oracle[*i].matches(rows))
                    .count();
                Checked {
                    queries,
                    failed: queries - good as u64,
                }
            }
        }
    }
}

fn once_digest(outcome: &OnceOutcome, steps_per_query: f64) -> Digest {
    // Every query was submitted at t = 0, so a sink's completion time
    // is its query's response time.
    let mut done: Vec<f64> = outcome
        .task_stats
        .iter()
        .filter(|(label, _)| label.ends_with("/sink"))
        .filter_map(|(_, s)| s.completed_at.map(|t| t as f64))
        .collect();
    Digest {
        vt_latency_p99: measure::quantile(&mut done, 0.99).unwrap_or(0.0),
        vt_makespan: outcome.makespan as f64,
        hit_ratio: hit_ratio(
            outcome.sharing.fingerprint_hits,
            outcome.sharing.fingerprint_misses,
        ),
        mean_group_size: mean(outcome.group_sizes.iter().map(|&g| g as f64)),
        steps_per_query,
    }
}

fn service_digest(
    report: &ServiceReport,
    schedule: &ArrivalSchedule,
    steps_per_query: f64,
) -> Digest {
    let mut response: Vec<f64> = report.response_times.iter().map(|&t| t as f64).collect();
    let last_arrival = schedule.last().map_or(0, |(at, _)| *at);
    Digest {
        vt_latency_p99: measure::quantile(&mut response, 0.99).unwrap_or(0.0),
        vt_makespan: report.makespan.saturating_sub(last_arrival) as f64,
        hit_ratio: hit_ratio(
            report.sharing.fingerprint_hits,
            report.sharing.fingerprint_misses,
        ),
        mean_group_size: mean(report.group_sizes.iter().map(|&g| g as f64)),
        steps_per_query,
    }
}

/// Process CPU milliseconds; a `/proc` read failure reads as 0, which
/// only blurs the traced per-layer figures.
fn cpu_now() -> f64 {
    measure::cpu_ms().unwrap_or(0.0)
}

/// CPU spent by one walk: in the re-enacted layers, and (for the shared
/// scan) in one real call made just before.
#[derive(Debug, Clone, Copy)]
pub struct WalkCpu {
    /// CPU ms of the re-enactment.
    pub walk_ms: f64,
    /// CPU ms of the real call, when the walk made one.
    pub call_ms: Option<f64>,
}

/// Replaces every `Source` leaf of a fragment with a scan of `table`,
/// as the shared path does before running a consumer's fragment.
fn substitute_source(plan: &PhysicalPlan, table: &str) -> PhysicalPlan {
    let sub = |p: &PhysicalPlan| Box::new(substitute_source(p, table));
    match plan {
        PhysicalPlan::Source { .. } => PhysicalPlan::Scan {
            table: table.to_string(),
            cost: OpCost::default(),
        },
        PhysicalPlan::Scan { .. } => plan.clone(),
        PhysicalPlan::Filter {
            input,
            predicate,
            cost,
        } => PhysicalPlan::Filter {
            input: sub(input),
            predicate: predicate.clone(),
            cost: *cost,
        },
        PhysicalPlan::Project { input, exprs, cost } => PhysicalPlan::Project {
            input: sub(input),
            exprs: exprs.clone(),
            cost: *cost,
        },
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            cost,
        } => PhysicalPlan::Aggregate {
            input: sub(input),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
            cost: *cost,
        },
        PhysicalPlan::Sort { input, keys, cost } => PhysicalPlan::Sort {
            input: sub(input),
            keys: keys.clone(),
            cost: *cost,
        },
        // Joins only occur below a pivot in this benchmark's queries.
        other => other.clone(),
    }
}

/// A `{filter}* → scan` chain lowered for the morsel kernels.
fn filter_chain<'a>(
    catalog: &'a Catalog,
    plan: &PhysicalPlan,
) -> Result<(&'a Arc<Table>, Vec<StageSpec>), String> {
    match plan {
        PhysicalPlan::Scan { table, .. } => catalog
            .get(table)
            .map(|t| (t, Vec::new()))
            .ok_or_else(|| format!("no table {table}")),
        PhysicalPlan::Filter {
            input, predicate, ..
        } => {
            let (table, mut stages) = filter_chain(catalog, input)?;
            stages.push(StageSpec::Filter(predicate.clone()));
            Ok((table, stages))
        }
        _ => Err("expected a filter chain over a scan".into()),
    }
}

fn pages_rows(pages: &[Arc<Page>]) -> f64 {
    pages.iter().map(|p| p.rows()).sum::<usize>() as f64
}

impl Prepared {
    /// Re-enacts one call layer by layer, recording a span per layer
    /// call and the work each did.
    pub fn walk(&self, t: &mut Tracer, call: u64) -> Result<WalkCpu, String> {
        match self.workload {
            Workload::ScanShared => self.walk_scan_shared(t, call),
            Workload::JoinPrivate => self.walk_join_private(t, call),
            Workload::FamilyService => self.walk_family(t, call),
            Workload::JoinSpill => self.walk_spill(t, call),
        }
    }

    fn walk_scan_shared(&self, t: &mut Tracer, call: u64) -> Result<WalkCpu, String> {
        let spec = &self.specs[0];
        let pivot = spec.pivot.as_ref().ok_or("Q6 has no pivot")?;
        let cpu0 = cpu_now();
        let out = t.span("call.threads_scan_shared", call, |_| self.call());
        let call_ms = cpu_now() - cpu0;
        if self.check(out).failed > 0 {
            return Err("shared scan returned wrong rows during the walk".into());
        }
        let cpu0 = cpu_now();
        t.span(
            "walk.threads_scan_shared",
            call,
            |t| -> Result<(), String> {
                let fragment = t
                    .span("engine.sharing.split_at_pivot", call, |_| {
                        split_at_pivot(&spec.plan, pivot, &self.catalog)
                    })
                    .map_err(|e| e.to_string())?
                    .map(|f| substitute_source(&f, SHARED_SRC));
                let table = t.span("exec.reference.pivot", call, |_| {
                    reference::execute_table(&self.catalog, pivot)
                });
                for _ in 0..CONSUMERS {
                    // Page by page, as a consumer receives them: decode the
                    // page's rows, then append them to the received table.
                    let mut builder = TableBuilder::new(SHARED_SRC, table.schema().clone());
                    for page in table.pages() {
                        let rows: Vec<Vec<Value>> = t.span("storage.page.decode", call, |_| {
                            page.tuples().map(|r| r.to_values()).collect()
                        });
                        t.span("storage.table.materialize", call, |_| {
                            for row in &rows {
                                builder.push_row(row);
                            }
                        });
                        t.count("storage.page.decode.rows", rows.len() as f64);
                    }
                    let received = t.span("storage.table.materialize", call, |_| builder.finish());
                    if let Some(frag) = &fragment {
                        let got = t.span("exec.reference.fragment", call, |_| {
                            let mut local = self.catalog.clone();
                            local.register(received);
                            reference::execute(&local, frag)
                        });
                        t.count("exec.reference.fragment.calls", 1.0);
                        std::hint::black_box(got);
                    }
                }
                t.count("exec.reference.pivot.calls", 1.0);
                Ok(())
            },
        )?;
        let walk_ms = cpu_now() - cpu0;
        // The floor: the whole query once on the morsel executor.
        let floor = t.span("exec.parallel.query", call, |_| {
            parallel::execute_plan(&self.catalog, &spec.plan, &ParallelConfig::with_workers(1))
        });
        floor.map_err(|e| e.to_string())?;
        t.count("exec.parallel.query.calls", 1.0);
        Ok(WalkCpu {
            walk_ms,
            call_ms: Some(call_ms),
        })
    }

    fn walk_join_private(&self, t: &mut Tracer, call: u64) -> Result<WalkCpu, String> {
        let spec = &self.specs[0];
        let PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } = &spec.plan
        else {
            return Err("Q4 is not an aggregate over a join".into());
        };
        let PhysicalPlan::HashJoin {
            build,
            probe,
            build_key,
            probe_key,
            kind,
            ..
        } = input.as_ref()
        else {
            return Err("Q4 is not an aggregate over a hash join".into());
        };
        let (btable, bstages) = filter_chain(&self.catalog, build)?;
        let (ptable, pstages) = filter_chain(&self.catalog, probe)?;
        let join_schema = input
            .try_output_schema(&self.catalog)
            .map_err(|e| e.to_string())?;
        let agg_schema = spec
            .plan
            .try_output_schema(&self.catalog)
            .map_err(|e| e.to_string())?;
        let build_schema = parallel::stages_out_schema(btable.schema(), &bstages);
        let agg_fns: Vec<Agg> = aggs.iter().map(|(_, a)| a.clone()).collect();
        let cfg = ParallelConfig::with_workers(MORSEL_WORKERS);
        let broker = MemoryBroker::unbounded();
        let cpu0 = cpu_now();
        t.span(
            "walk.threads_join_private",
            call,
            |t| -> Result<(), String> {
                for _ in 0..CONSUMERS {
                    let (table, granted) = t
                        .span("exec.parallel.build", call, |_| {
                            parallel::par_build(
                                btable.pages(),
                                btable.schema(),
                                &bstages,
                                *build_key,
                                &cfg,
                                &broker,
                            )
                        })
                        .map_err(|e| e.to_string())?;
                    t.count("exec.parallel.build.rows", pages_rows(btable.pages()));
                    let joined = t.span("exec.parallel.probe", call, |_| {
                        parallel::par_probe(
                            &table,
                            ptable.pages(),
                            ptable.schema(),
                            &pstages,
                            *probe_key,
                            *kind,
                            &build_schema,
                            &join_schema,
                            &cfg,
                        )
                    });
                    broker.release(granted);
                    let joined = joined.map_err(|e| e.to_string())?;
                    t.count("exec.parallel.probe.rows", pages_rows(ptable.pages()));
                    let out = t
                        .span("exec.parallel.aggregate", call, |_| {
                            parallel::par_aggregate(
                                &joined,
                                &join_schema,
                                &[],
                                group_by,
                                &agg_fns,
                                &agg_schema,
                                &cfg,
                            )
                        })
                        .map_err(|e| e.to_string())?;
                    t.count("exec.parallel.aggregate.rows", pages_rows(&joined).max(1.0));
                    std::hint::black_box(out);
                }
                Ok(())
            },
        )?;
        let walk_ms = cpu_now() - cpu0;
        // Sub-layers the kernels above fuse: column gathers and
        // compiled predicates over the same inputs.
        t.span("storage.page.gather", call, |t| {
            let (mut ints, mut dates) = (Vec::new(), Vec::new());
            let mut values = 0usize;
            for page in btable.pages() {
                page.gather_i64(L_ORDERKEY, &mut ints);
                page.gather_date(L_COMMITDATE, &mut dates);
                page.gather_date(L_RECEIPTDATE, &mut dates);
                values += 3 * page.rows();
            }
            for page in ptable.pages() {
                page.gather_i64(O_ORDERKEY, &mut ints);
                page.gather_date(O_ORDERDATE, &mut dates);
                values += 2 * page.rows();
            }
            std::hint::black_box((ints, dates));
            t.count("storage.page.gather.values", values as f64);
        });
        for (table, stages) in [(btable, &bstages), (ptable, &pstages)] {
            for stage in stages.iter() {
                let StageSpec::Filter(pred) = stage else {
                    continue;
                };
                let compiled =
                    CompiledPredicate::compile(pred, table.schema()).map_err(|e| e.to_string())?;
                t.span("exec.vexpr.select", call, |t| {
                    let (mut scratch, mut sel) = (ExprScratch::default(), Vec::new());
                    for page in table.pages() {
                        compiled.select(page, &mut scratch, &mut sel);
                    }
                    t.count("exec.vexpr.select.rows", pages_rows(table.pages()));
                });
            }
        }
        for (name, workers) in [
            ("exec.parallel.query_workers1", 1),
            ("exec.parallel.query_workers2", 2),
        ] {
            t.span(name, call, |_| {
                parallel::execute_plan(
                    &self.catalog,
                    &spec.plan,
                    &ParallelConfig::with_workers(workers),
                )
            })
            .map_err(|e| e.to_string())?;
        }
        Ok(WalkCpu {
            walk_ms,
            call_ms: None,
        })
    }

    fn walk_family(&self, t: &mut Tracer, call: u64) -> Result<WalkCpu, String> {
        let pivots: Vec<&PhysicalPlan> = self
            .schedule
            .iter()
            .map(|(_, s)| s.pivot.as_ref().ok_or("family query without a pivot"))
            .collect::<Result<_, _>>()?;
        let pool: Vec<&PhysicalPlan> = self.specs.iter().filter_map(|s| s.pivot.as_ref()).collect();
        let cpu0 = cpu_now();
        t.span("walk.sim_family_service", call, |t| -> Result<(), String> {
            let fps: Vec<u64> = t.span("exec.subsume.fingerprint", call, |_| {
                pivots.iter().map(|p| subsume::fingerprint(p)).collect()
            });
            t.count("exec.subsume.fingerprint.calls", pivots.len() as f64);
            let pool_fps: Vec<u64> = pool.iter().map(|p| subsume::fingerprint(p)).collect();
            // Each arrival is tested against every pool pivot of its
            // bucket, as the dispatcher tests each open group.
            let mut tests = 0usize;
            let wides: Vec<Option<&PhysicalPlan>> = t.span("exec.subsume.residual", call, |_| {
                pivots
                    .iter()
                    .zip(&fps)
                    .map(|(p, fp)| {
                        let mut widest = None;
                        for (w, wfp) in pool.iter().zip(&pool_fps) {
                            if wfp == fp {
                                tests += 1;
                                if subsume::subsume_residual(w, p).is_some() && widest.is_none() {
                                    widest = Some(*w);
                                }
                            }
                        }
                        widest
                    })
                    .collect()
            });
            t.count("exec.subsume.residual.calls", tests as f64);
            // Admission of each arrival into a group led by the widest
            // pool pivot subsuming it, alongside that pivot's query.
            let infos: Vec<(OverlapInfo<'_>, OverlapInfo<'_>)> = self
                .schedule
                .iter()
                .zip(&pivots)
                .zip(&wides)
                .filter_map(|(((_, spec), p), w)| {
                    let wide = (*w)?;
                    let leader = self.specs.iter().find(|s| s.pivot.as_ref() == Some(wide))?;
                    Some((
                        OverlapInfo {
                            name: &leader.name,
                            coverage: 1.0,
                        },
                        OverlapInfo {
                            name: &spec.name,
                            coverage: subsume::coverage_estimate(wide, p),
                        },
                    ))
                })
                .collect();
            let admitted = t.span("engine.policy.admit", call, |_| {
                infos
                    .iter()
                    .filter(|(leader, cand)| {
                        self.engine.policy.admit_overlap(
                            std::slice::from_ref(leader),
                            *cand,
                            CONTEXTS as f64,
                        )
                    })
                    .count()
            });
            std::hint::black_box(admitted);
            t.count("engine.policy.admit.calls", infos.len() as f64);
            let mut cache = FragmentCache::new(FRAGMENT_CACHE);
            for (p, fp) in pool.iter().zip(&pool_fps) {
                let entry = CachedFragment::in_flight(*fp, (*p).clone());
                entry.ready.set(true);
                cache.insert(entry);
            }
            let hits = t.span("engine.fragment_cache.lookup", call, |_| {
                pivots
                    .iter()
                    .zip(&fps)
                    .filter(|(p, fp)| cache.lookup(**fp, p).is_some())
                    .count()
            });
            std::hint::black_box(hits);
            t.count("engine.fragment_cache.lookup.calls", pivots.len() as f64);
            self.sim_queries(t, call, &self.engine.memory, "exec.wiring.sim_query", true)
        })?;
        Ok(WalkCpu {
            walk_ms: cpu_now() - cpu0,
            call_ms: None,
        })
    }

    /// Each distinct spec alone on a fresh simulator, one span each.
    /// The `primary` pass also counts steps and the memory peak.
    fn sim_queries(
        &self,
        t: &mut Tracer,
        call: u64,
        memory: &MemoryConfig,
        span: &'static str,
        primary: bool,
    ) -> Result<(), String> {
        for spec in &self.specs {
            let q = t.span(span, call, |_| sim_query(&self.catalog, &spec.plan, memory))?;
            t.count(span, 1.0);
            if primary {
                t.count("sim.steps", q.steps as f64);
                if let Some(budget) = memory.query_budget {
                    t.count_max(
                        "exec.memory.peak_over_budget",
                        q.peak as f64 / budget as f64,
                    );
                }
            }
            std::hint::black_box(q.rows);
        }
        Ok(())
    }

    fn walk_spill(&self, t: &mut Tracer, call: u64) -> Result<WalkCpu, String> {
        let cpu0 = cpu_now();
        t.span("walk.sim_join_spill", call, |t| {
            self.sim_queries(t, call, &self.engine.memory, "exec.wiring.sim_query", true)
        })?;
        let walk_ms = cpu_now() - cpu0;
        let unbudgeted = MemoryConfig {
            query_budget: None,
            ..self.engine.memory.clone()
        };
        t.span("exec.spill.unbudgeted", call, |t| {
            self.sim_queries(
                t,
                call,
                &unbudgeted,
                "exec.wiring.sim_query_unbudgeted",
                false,
            )
        })?;
        // Raw spill-file throughput over the largest input.
        let lineitem = self.catalog.get("lineitem").ok_or("no lineitem table")?;
        let schema: Arc<Schema> = lineitem.schema().clone();
        let file = t
            .span("storage.spill.write", call, |_| -> std::io::Result<_> {
                let mut w = SpillWriter::create(&self.spill_dir, schema)?;
                for page in lineitem.pages() {
                    w.write_page(page)?;
                }
                w.finish()
            })
            .map_err(|e| e.to_string())?;
        let bytes = file.bytes() as f64;
        t.count("storage.spill.write.bytes", bytes);
        let read = t
            .span("storage.spill.read", call, |_| -> std::io::Result<usize> {
                let mut r = file.into_reader()?;
                let mut rows = 0;
                while let Some(page) = r.next_page()? {
                    rows += page.rows();
                }
                Ok(rows)
            })
            .map_err(|e| e.to_string())?;
        t.count("storage.spill.read.bytes", bytes);
        if read != lineitem.row_count() || !dir_is_empty(&self.spill_dir) {
            return Err("spill round trip lost rows or left a file behind".into());
        }
        Ok(WalkCpu {
            walk_ms,
            call_ms: None,
        })
    }
}
