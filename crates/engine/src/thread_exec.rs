//! Real-thread executor: the engine's share-or-not choice on OS threads.
//!
//! The simulator is the measurement substrate (deterministic, scales to
//! 32 contexts on any host); this module runs the same choice on real
//! hardware, with the vectorized morsel kernels of
//! [`cordoba_exec::parallel`] on both sides:
//!
//! * **unshared** — [`run_unshared_parallel`] runs every query's whole
//!   plan privately, each on its own morsel workers;
//! * **shared** — [`run_shared`] evaluates the pivot sub-plan once and
//!   a producer hands its pages to every consumer over bounded
//!   channels, one consumer after another — the real (wall-clock)
//!   per-consumer cost the model calls `s`. The unit of hand-off is a
//!   shared slice of [`HANDOFF_PAGES`] `Arc<Page>`s, so the fan-out
//!   copies pointers, never rows. Each consumer registers the pages it
//!   received as a table and runs its private fragment over them on
//!   one morsel worker, which folds pages in order and so stays
//!   bit-exact with the reference executor.

use crate::query::QuerySpec;
use crate::sharing::split_at_pivot;
use cordoba_exec::{parallel, ExecError, MemoryBroker, ParallelConfig, PhysicalPlan};
use cordoba_storage::{Catalog, Page, Schema, Table, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Pivot pages per hand-off. Each hand-off costs one channel send, and
/// often one consumer wake-up, per consumer. Measured with wallbench's
/// `threads_scan_shared` (Q6 over a ~1,900-page `lineitem`, 8
/// consumers) on 2 vCPUs, 5 s per run, 2–3 runs per size, in queries
/// per second: 1 page 116–125, 4 pages 293–327, 16 pages 393–417,
/// 32 pages 427–491, 64 pages 453–484, 256 pages 488–517. The gain
/// flattens at 64, which still splits Q6's pivot into ~30 hand-offs.
pub const HANDOFF_PAGES: usize = 64;

/// Hand-offs buffered per consumer channel before the producer blocks
/// (at 64-page hand-offs, 4 and 16 measured alike and 1 was ~7% slower).
const CHANNEL_HANDOFFS: usize = 16;

/// Name the received pivot pages are registered under in a consumer's
/// catalog.
const SHARED_SRC: &str = "__shared_src";

/// One hand-off: consecutive pivot pages, shared by every consumer.
type Handoff = Arc<[Arc<Page>]>;

/// Outcome of a threaded run.
#[derive(Debug)]
pub struct ThreadReport {
    /// Result rows per query, in submission order; empty for a failed
    /// query.
    pub results: Vec<Vec<Vec<Value>>>,
    /// Failed queries: submission index and the typed error.
    pub failures: Vec<(usize, ExecError)>,
    /// Wall-clock duration of the batch.
    pub elapsed: Duration,
}

/// Executes `m` copies of `spec` without sharing, each query running
/// the morsel-parallel executor with `parallel.workers` threads of its
/// own. `threads` bounds how many *queries* run concurrently, so total
/// thread pressure is `threads × workers`.
///
/// This is the unshared baseline both the contention re-fit and the
/// shared-vs-unshared comparison measure.
pub fn run_unshared_parallel(
    catalog: &Catalog,
    spec: &QuerySpec,
    m: usize,
    threads: usize,
    parallel: &ParallelConfig,
) -> Result<ThreadReport, ExecError> {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<Vec<Vec<Value>>>> = vec![None; m];
    let mut slots: Vec<_> = results.iter_mut().collect();
    let mut first_err: Option<ExecError> = None;
    thread::scope(|scope| {
        type Done = (usize, Result<Vec<Vec<Value>>, ExecError>);
        let (done_tx, done_rx) = mpsc::sync_channel::<Done>(m.max(1));
        for _ in 0..threads.max(1).min(m.max(1)) {
            let done_tx = done_tx.clone();
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= m {
                    break;
                }
                let rows = parallel::execute_plan(catalog, &spec.plan, parallel);
                // lint: allow(receiver drains inside this scope, so the channel cannot sever)
                done_tx.send((i, rows)).expect("collector alive");
            });
        }
        drop(done_tx);
        for (i, rows) in done_rx {
            match rows {
                Ok(rows) => *slots[i] = Some(rows),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    Ok(ThreadReport {
        results: results
            .into_iter()
            // lint: allow(fetch_add hands indexes 0..m to workers exactly once, filling every slot)
            .map(|r| r.expect("all queries ran"))
            .collect(),
        failures: Vec::new(),
        elapsed: start.elapsed(),
    })
}

/// Measures unshared throughput (queries per wall-clock second) of the
/// morsel-parallel executor at each worker count, running one query at
/// a time so the samples isolate *intra*-query scaling.
///
/// Feed the samples to [`cordoba_core::contention::estimate_k`]-style
/// fitting to recover the scaling exponent `κ` of `e(k) = k^κ` for this
/// host — the paper's aggregate-bandwidth contention form, re-fitted
/// against real threads instead of simulated contexts.
pub fn worker_scaling_samples(
    catalog: &Catalog,
    spec: &QuerySpec,
    repeats: usize,
    worker_counts: &[u32],
) -> Result<Vec<(u32, f64)>, ExecError> {
    let mut samples = Vec::with_capacity(worker_counts.len());
    for &k in worker_counts {
        let cfg = ParallelConfig::with_workers(k.max(1) as usize);
        let report = run_unshared_parallel(catalog, spec, repeats.max(1), 1, &cfg)?;
        let secs = report.elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        samples.push((k.max(1), repeats.max(1) as f64 / secs));
    }
    Ok(samples)
}

/// Executes `m` copies of `spec` with the pivot sub-plan shared: the
/// pivot is evaluated once, and its pages are fanned out to `m`
/// consumer threads, each of which runs the private fragment above the
/// pivot.
///
/// Failures are typed and per query. A missing pivot, a pivot that does
/// not split `spec.plan`, or a pivot that fails to execute fails all
/// `m` queries; a consumer whose fragment fails fails only its own.
pub fn run_shared(catalog: &Catalog, spec: &QuerySpec, m: usize) -> ThreadReport {
    let start = Instant::now();
    let outcomes = match share_pivot(catalog, spec) {
        Ok((fragment, pivot)) => fan_out(catalog, fragment.as_ref(), &pivot, m),
        Err(e) => vec![Err(e); m],
    };
    let mut report = ThreadReport {
        results: Vec::with_capacity(m),
        failures: Vec::new(),
        elapsed: Duration::ZERO,
    };
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(rows) => report.results.push(rows),
            Err(e) => {
                report.results.push(Vec::new());
                report.failures.push((i, e));
            }
        }
    }
    report.elapsed = start.elapsed();
    report
}

/// The producer side of a shared run: the consumers' fragment (reading
/// [`SHARED_SRC`] where the pivot was; `None` when the whole plan is
/// shared) and the pivot's output, evaluated once.
fn share_pivot(
    catalog: &Catalog,
    spec: &QuerySpec,
) -> Result<(Option<PhysicalPlan>, Arc<Table>), ExecError> {
    let pivot = spec
        .pivot
        .as_ref()
        .ok_or_else(|| ExecError::plan("shared run needs a pivot"))?;
    let fragment = split_at_pivot(&spec.plan, pivot, catalog)?;
    let table = parallel::execute_table(
        catalog,
        pivot,
        &ParallelConfig::default(),
        &MemoryBroker::unbounded(),
    )?;
    Ok((fragment.map(|f| substitute_source(&f, SHARED_SRC)), table))
}

/// Spawns `m` consumers and, on the calling thread, delivers every
/// hand-off of `pivot` to each of them in turn — the pivot's `M·s`
/// serialization. Returns each consumer's outcome in consumer order.
fn fan_out(
    catalog: &Catalog,
    fragment: Option<&PhysicalPlan>,
    pivot: &Table,
    m: usize,
) -> Vec<Result<Vec<Vec<Value>>, ExecError>> {
    thread::scope(|scope| {
        let mut txs = Vec::with_capacity(m);
        let consumers: Vec<_> = (0..m)
            .map(|_| {
                let (tx, rx) = mpsc::sync_channel::<Handoff>(CHANNEL_HANDOFFS);
                txs.push(tx);
                let schema = pivot.schema().clone();
                scope.spawn(move || consume(catalog, fragment, schema, rx))
            })
            .collect();
        for pages in pivot.pages().chunks(HANDOFF_PAGES) {
            let handoff: Handoff = pages.into();
            // A closed channel means its consumer is gone; stop feeding it.
            txs.retain(|tx| tx.send(handoff.clone()).is_ok());
        }
        drop(txs);
        consumers
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// One consumer: collects the hand-offs until the producer hangs up,
/// registers the pages as [`SHARED_SRC`] and runs `fragment` over them.
fn consume(
    catalog: &Catalog,
    fragment: Option<&PhysicalPlan>,
    schema: Arc<Schema>,
    rx: mpsc::Receiver<Handoff>,
) -> Result<Vec<Vec<Value>>, ExecError> {
    let mut pages = Vec::new();
    for handoff in rx {
        pages.extend(handoff.iter().cloned());
    }
    let received = Table::from_pages(SHARED_SRC, schema, pages);
    let Some(fragment) = fragment else {
        return Ok(received.scan_values().collect());
    };
    let mut local = catalog.clone();
    local.register(received);
    let out = parallel::execute_table(
        &local,
        fragment,
        &ParallelConfig::default(),
        &MemoryBroker::unbounded(),
    )?;
    Ok(out.scan_values().collect())
}

/// Replaces every [`PhysicalPlan::Source`] leaf with a scan of `table`.
fn substitute_source(plan: &PhysicalPlan, table: &str) -> PhysicalPlan {
    let mut clone = plan.clone();
    match &mut clone {
        PhysicalPlan::Source { .. } => {
            return PhysicalPlan::Scan {
                table: table.to_string(),
                cost: cordoba_exec::OpCost::default(),
            }
        }
        PhysicalPlan::Scan { .. } => {}
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Aggregate { input, .. }
        | PhysicalPlan::Sort { input, .. } => {
            **input = substitute_source(input, table);
        }
        PhysicalPlan::HashJoin { build, probe, .. } => {
            **build = substitute_source(build, table);
            **probe = substitute_source(probe, table);
        }
        PhysicalPlan::NestedLoopJoin { outer, inner, .. } => {
            **outer = substitute_source(outer, table);
            **inner = substitute_source(inner, table);
        }
        PhysicalPlan::MergeJoin { left, right, .. } => {
            **left = substitute_source(left, table);
            **right = substitute_source(right, table);
        }
    }
    clone
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_exec::expr::{Agg, CmpOp, Predicate, ScalarExpr};
    use cordoba_exec::{reference, OpCost};
    use cordoba_storage::{DataType, Field, TableBuilder};

    /// Small pages, so the pivot spans several hand-offs and ends in a
    /// partial one.
    const PAGE_BYTES: usize = 256;

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("g", DataType::Int),
            Field::new("x", DataType::Float),
        ]);
        let mut b = TableBuilder::with_page_size("t", schema, PAGE_BYTES);
        for i in 0..2000 {
            // `x` is inexact: a sum in any other order changes its bits.
            let x = ((i * 7919) % 1000) as f64 * 0.01 + 0.003;
            b.push_row(&[
                Value::Int(i),
                Value::Float((i % 13) as f64),
                Value::Int(i % 5),
                Value::Float(x),
            ]);
        }
        let mut c = Catalog::new();
        c.register(b.finish());
        c
    }

    fn scan() -> PhysicalPlan {
        PhysicalPlan::Scan {
            table: "t".into(),
            cost: OpCost::default(),
        }
    }

    fn filter(input: PhysicalPlan, predicate: Predicate) -> PhysicalPlan {
        PhysicalPlan::Filter {
            input: Box::new(input),
            predicate,
            cost: OpCost::default(),
        }
    }

    fn aggregate(input: PhysicalPlan, group_by: Vec<usize>, aggs: Vec<Agg>) -> PhysicalPlan {
        PhysicalPlan::Aggregate {
            input: Box::new(input),
            group_by,
            aggs: aggs
                .into_iter()
                .enumerate()
                .map(|(i, a)| (format!("a{i}"), a))
                .collect(),
            cost: OpCost::default(),
        }
    }

    fn sum(col: usize) -> Agg {
        Agg::Sum(ScalarExpr::col(col))
    }

    fn query() -> QuerySpec {
        let plan = aggregate(
            filter(scan(), Predicate::col_cmp(0, CmpOp::Lt, 1000i64)),
            vec![],
            vec![sum(1)],
        );
        QuerySpec::shared_at("tq", plan, scan())
    }

    /// Rows with every float replaced by its bit pattern, so `==` is
    /// bit-exact.
    fn float_bits(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|row| {
                row.iter()
                    .map(|v| match v {
                        Value::Float(f) => Value::Int(f.to_bits() as i64),
                        v => v.clone(),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn unshared_threads_match_reference() {
        let cat = catalog();
        let expected = reference::execute(&cat, &query().plan);
        let report =
            run_unshared_parallel(&cat, &query(), 4, 2, &ParallelConfig::default()).unwrap();
        assert_eq!(report.results.len(), 4);
        assert!(report.failures.is_empty());
        for r in &report.results {
            assert_eq!(r, &expected);
        }
    }

    #[test]
    fn shared_threads_match_reference() {
        let cat = catalog();
        let pages = cat.expect("t").pages().len();
        assert!(
            pages > HANDOFF_PAGES && !pages.is_multiple_of(HANDOFF_PAGES),
            "fixture must end in a partial hand-off: {pages} pages"
        );
        let empty = filter(scan(), Predicate::col_cmp(0, CmpOp::Lt, 0i64));
        // A family-style pivot: the whole selection window is shared.
        let window = filter(
            scan(),
            Predicate::And(vec![
                Predicate::col_cmp(0, CmpOp::Ge, 100i64),
                Predicate::col_cmp(0, CmpOp::Lt, 1700i64),
                Predicate::col_cmp(3, CmpOp::Ge, 1.0),
                Predicate::col_cmp(3, CmpOp::Le, 8.0),
            ]),
        );
        let revenue = Agg::Sum(ScalarExpr::Mul(
            Box::new(ScalarExpr::col(3)),
            Box::new(ScalarExpr::FloatLit(0.07)),
        ));
        // Q1-style: grouped float sums over a filtered scan.
        let q1 = aggregate(
            filter(scan(), Predicate::col_cmp(0, CmpOp::Lt, 1800i64)),
            vec![2],
            vec![
                Agg::Count,
                sum(3),
                revenue.clone(),
                Agg::Avg(ScalarExpr::col(3)),
            ],
        );
        let q = query();
        let cases = [
            ("scan pivot, partial last hand-off", q.clone()),
            (
                "empty pivot",
                QuerySpec::shared_at("e", aggregate(empty.clone(), vec![], vec![sum(1)]), empty),
            ),
            (
                "filter-chain pivot",
                QuerySpec::shared_at(
                    "f",
                    aggregate(window.clone(), vec![], vec![revenue]),
                    window,
                ),
            ),
            ("grouped float sums", QuerySpec::shared_at("q1", q1, scan())),
        ];
        for (case, spec) in &cases {
            let expected = float_bits(&reference::execute(&cat, &spec.plan));
            for m in [1, 8] {
                let report = run_shared(&cat, spec, m);
                assert!(
                    report.failures.is_empty(),
                    "{case}, m={m}: {:?}",
                    report.failures
                );
                assert_eq!(report.results.len(), m, "{case}, m={m}");
                for r in &report.results {
                    assert_eq!(float_bits(r), expected, "{case}, m={m}");
                }
            }
        }
    }

    #[test]
    fn whole_plan_sharing_over_threads() {
        let cat = catalog();
        let q = query();
        let whole = QuerySpec::shared_at("whole", q.plan.clone(), q.plan.clone());
        let expected = float_bits(&reference::execute(&cat, &q.plan));
        for m in [1, 3, 8] {
            let report = run_shared(&cat, &whole, m);
            assert!(report.failures.is_empty(), "m={m}: {:?}", report.failures);
            assert_eq!(report.results.len(), m, "m={m}");
            for r in &report.results {
                assert_eq!(float_bits(r), expected, "m={m}");
            }
        }
    }

    #[test]
    fn shared_failures_are_typed_per_query() {
        let q = query();
        let bad_column = aggregate(scan(), vec![], vec![Agg::Sum(ScalarExpr::col(9))]);
        let specs = [
            QuerySpec::unshared("no pivot", q.plan.clone()),
            QuerySpec {
                pivot: Some(filter(scan(), Predicate::col_cmp(0, CmpOp::Gt, 7i64))),
                ..QuerySpec::unshared("pivot not in plan", q.plan.clone())
            },
            QuerySpec::shared_at("fragment does not compile", bad_column, scan()),
        ];
        for spec in specs {
            for m in [1, 8] {
                let (tx, rx) = mpsc::channel();
                let name = &spec.name;
                let owned = spec.clone();
                let runner = thread::spawn(move || tx.send(run_shared(&catalog(), &owned, m)));
                let report = rx
                    .recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|e| panic!("{name}, m={m}: no report ({e})"));
                runner.join().unwrap().unwrap();
                assert_eq!(report.results, vec![Vec::<Vec<Value>>::new(); m], "{name}");
                let failed: Vec<usize> = report.failures.iter().map(|(i, _)| *i).collect();
                assert_eq!(failed, (0..m).collect::<Vec<_>>(), "{name}, m={m}");
                for (_, e) in &report.failures {
                    assert!(matches!(e, ExecError::PlanType(_)), "{name}: {e:?}");
                }
            }
        }
    }

    #[test]
    fn parallel_unshared_matches_reference_at_each_worker_count() {
        let cat = catalog();
        let expected = reference::execute(&cat, &query().plan);
        for workers in [1usize, 4] {
            let cfg = ParallelConfig::with_workers(workers);
            let report = run_unshared_parallel(&cat, &query(), 3, 2, &cfg).unwrap();
            assert_eq!(report.results.len(), 3);
            for r in &report.results {
                assert_eq!(r, &expected, "workers={workers}");
            }
        }
    }

    #[test]
    fn worker_scaling_samples_cover_requested_counts() {
        let cat = catalog();
        let samples = worker_scaling_samples(&cat, &query(), 2, &[1, 2]).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].0, 1);
        assert_eq!(samples[1].0, 2);
        for (k, x) in samples {
            assert!(x > 0.0, "throughput at k={k} must be positive, got {x}");
        }
    }
}
