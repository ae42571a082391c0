//! The wall-clock benchmark of the Cordoba engine.
//!
//! ```text
//! wallbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One workload per process. A closed loop (one caller thread, one call
//! outstanding) drives the workload's entry point for `--seconds`, every
//! output is checked against the `reference` oracle, and the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones; `--trace 1` instead times each layer from outside
//! (see `adapter.rs`) and reports the per-layer ones, writing its spans
//! to `.wallbench/trace-<workload>-seed<n>.jsonl`.

mod adapter;
mod measure;

use adapter::{Prepared, Workload};
use measure::{Better, Metric, MetricSpec, Stamp, Tracer};
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, as `BENCHMARK.json` declares them.
const END_TO_END: [MetricSpec; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("qps", "1/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p90_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_query", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("ok_frac", "frac", Higher, 0.01),
    e2e("vt_latency_p99", "vt", Lower, 0.1),
    e2e("vt_makespan", "vt", Lower, 0.1),
];

/// Per-layer metrics of the traced run, as `BENCHMARK.json` declares them.
const PER_LAYER: [MetricSpec; 29] = [
    layer("storage.tpch.generate_ms", "ms", Lower),
    layer("engine.profiling.profile_ms", "ms", Lower),
    layer("storage.page.decode_ns_per_row", "ns/row", Lower),
    layer("storage.table.materialize_ns_per_row", "ns/row", Lower),
    layer("exec.reference.pivot_ms", "ms", Lower),
    layer("exec.reference.fragment_ms", "ms", Lower),
    layer("exec.parallel.query_ms", "ms", Lower),
    layer("engine.thread_exec.overhead_cpu_ms", "ms", Lower),
    layer("storage.page.gather_ns_per_value", "ns/value", Lower),
    layer("exec.vexpr.select_ns_per_row", "ns/row", Lower),
    layer("exec.parallel.build_ns_per_row", "ns/row", Lower),
    layer("exec.parallel.probe_ns_per_row", "ns/row", Lower),
    layer("exec.parallel.aggregate_ns_per_row", "ns/row", Lower),
    layer("exec.parallel.worker_speedup", "x", Higher),
    layer("exec.subsume.fingerprint_ns", "ns", Lower),
    layer("exec.subsume.residual_ns", "ns", Lower),
    layer("engine.policy.admit_ns", "ns", Lower),
    layer("engine.fragment_cache.lookup_ns", "ns", Lower),
    layer("engine.fragment_cache.hit_ratio", "frac", Higher),
    layer("engine.dispatcher.mean_group_size", "queries", Higher),
    layer("exec.wiring.sim_query_ms", "ms", Lower),
    layer("sim.steps_per_query", "count", Lower),
    layer("sim.ns_per_step", "ns", Lower),
    layer("exec.spill.slowdown", "x", Lower),
    layer("exec.memory.peak_over_budget", "x", Lower),
    layer("storage.spill.write_mb_per_s", "MB/s", Higher),
    layer("storage.spill.read_mb_per_s", "MB/s", Higher),
    layer("trace.coverage", "frac", Higher),
    layer("trace.overhead_frac", "frac", Lower),
];

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Quantile of the tail latency metric.
const TAIL: f64 = 0.9;
/// The timed window stretches past `--seconds` (up to this factor)
/// until the tail quantile has enough samples beyond it.
const MAX_STRETCH: f64 = 3.0;
/// Where spill files and traces go, under the working directory.
const RUN_DIR: &str = ".wallbench";

const USAGE: &str =
    "usage: wallbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 20.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let process_start = Stamp::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wallbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spill_dir = Path::new(RUN_DIR).join(format!("spill-{}", std::process::id()));
    let result = fs::create_dir_all(&spill_dir)
        .map_err(|e| format!("creating {}: {e}", spill_dir.display()))
        .and_then(|()| {
            if args.trace {
                traced_run(&args, &spill_dir)
            } else {
                let start = process_start.map_err(|e| e.to_string())?;
                timed_run(&args, &spill_dir, start)
            }
        });
    // Spill hygiene is checked after every call; this only removes the
    // directory itself.
    let _ = fs::remove_dir_all(&spill_dir);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wallbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one closed-loop window measured.
#[derive(Default)]
struct Window {
    /// Wall milliseconds per call, net of hypervisor steal.
    latencies_ms: Vec<f64>,
    /// Net wall seconds spent inside calls (checking is excluded).
    busy_s: f64,
    /// Process CPU milliseconds spent inside calls.
    cpu_ms: f64,
    /// Raw wall and steal inside calls, for the log line.
    raw_wall_s: f64,
    steal_ms: f64,
    attempted: u64,
    failed: u64,
}

impl Window {
    fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    fn qps(&self) -> f64 {
        self.ok() as f64 / self.busy_s.max(f64::MIN_POSITIVE)
    }

    fn cpu_ms_per_call(&self) -> f64 {
        self.cpu_ms / self.latencies_ms.len().max(1) as f64
    }
}

/// Runs calls back to back for `seconds`, and on until `min_calls`
/// were made (at most `MAX_STRETCH × seconds`). Each call is timed, net
/// of hypervisor steal, and its CPU sampled; its output is checked
/// after the clocks stop.
fn closed_loop(
    p: &Prepared,
    seconds: f64,
    min_calls: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Window, String> {
    let mut w = Window::default();
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && w.latencies_ms.len() >= min_calls)
            || elapsed >= seconds * MAX_STRETCH
        {
            break;
        }
        let call_id = w.latencies_ms.len() as u64;
        let t0 = Stamp::now().map_err(|e| e.to_string())?;
        let output = match tracer.as_deref_mut() {
            Some(t) => t.span("call", call_id, |_| p.call()),
            None => p.call(),
        };
        let dt = t0.elapsed().map_err(|e| e.to_string())?;
        let checked = p.check(output);
        w.latencies_ms.push(dt.net_wall_s() * 1e3);
        w.busy_s += dt.net_wall_s();
        w.cpu_ms += dt.cpu_ms;
        w.raw_wall_s += dt.wall_s;
        w.steal_ms += dt.steal_ms;
        w.attempted += checked.queries;
        w.failed += checked.failed;
    }
    if w.latencies_ms.len() < min_calls {
        return Err(format!(
            "only {} calls in {:.0} s; the tail quantile needs {min_calls}",
            w.latencies_ms.len(),
            seconds * MAX_STRETCH
        ));
    }
    Ok(w)
}

/// Smallest sample count whose `q` quantile is reportable.
fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| measure::eligible(n, q))
        .unwrap_or(usize::MAX)
}

fn metric(spec: &MetricSpec, value: f64) -> Metric {
    Metric {
        name: spec.name,
        unit: spec.unit,
        value,
    }
}

/// Formats and self-checks the result line.
fn finish(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[MetricSpec],
    values: &[(&str, f64)],
) -> Result<String, String> {
    let metrics: Vec<Metric> = specs
        .iter()
        .map(|spec| {
            values
                .iter()
                .find(|(name, _)| *name == spec.name)
                .map(|(_, v)| metric(spec, *v))
                .ok_or_else(|| format!("metric {} was not measured", spec.name))
        })
        .collect::<Result<_, _>>()?;
    let line = measure::result_line(correct, attempted.max(1), failed, &metrics);
    measure::check_line(&line, specs)?;
    Ok(line)
}

/// The end-to-end run: `SETUPS` set-ups (the first timed from process
/// start), then one closed-loop window with tracing off.
fn timed_run(args: &Args, spill_dir: &Path, process_start: Stamp) -> Result<String, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    let mut setup_ok = true;
    for i in 0..SETUPS {
        // Free the previous set-up first, so peak RSS reflects one.
        drop(prepared.take());
        let start = if i == 0 {
            process_start
        } else {
            Stamp::now().map_err(|e| e.to_string())?
        };
        let p = Prepared::setup(
            args.workload,
            adapter::catalog(args.seed),
            args.seed,
            spill_dir,
        )?;
        let warm = p.check(p.call());
        setup_s.push(start.elapsed().map_err(|e| e.to_string())?.net_wall_s());
        setup_ok &= p.setup_ok() && warm.failed == 0;
        prepared = Some(p);
    }
    let p = prepared.ok_or("no set-up ran")?;
    let mut w = closed_loop(&p, args.seconds, min_samples(TAIL), None)?;
    let digest = p.digest().clone();
    let values = [
        ("setup_s", measure::median(&setup_s).unwrap_or(0.0)),
        ("qps", w.qps()),
        (
            "latency_p50_ms",
            measure::quantile(&mut w.latencies_ms, 0.5).unwrap_or(0.0),
        ),
        (
            "latency_p90_ms",
            measure::quantile(&mut w.latencies_ms, TAIL).unwrap_or(0.0),
        ),
        ("cpu_ms_per_query", w.cpu_ms / w.ok().max(1) as f64),
        (
            "peak_rss_mb",
            measure::peak_rss_mb().map_err(|e| e.to_string())?,
        ),
        ("ok_frac", w.ok() as f64 / w.attempted.max(1) as f64),
        ("vt_latency_p99", digest.vt_latency_p99),
        ("vt_makespan", digest.vt_makespan),
    ];
    eprintln!(
        "wallbench: {} seed {}: {} calls, {} queries, {} failed; {:.2} s in calls, {:.0} ms stolen",
        args.workload.name(),
        args.seed,
        w.latencies_ms.len(),
        w.attempted,
        w.failed,
        w.raw_wall_s,
        w.steal_ms
    );
    finish(
        setup_ok && w.failed == 0,
        w.attempted,
        w.failed,
        &END_TO_END,
        &values,
    )
}

/// `a / b`, or 0 when nothing was measured.
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Generations timed in the traced run; the median is reported.
const GENERATIONS: usize = 3;

/// The traced run: every workload is set up on one catalog; the chosen
/// workload runs a third of `--seconds` untraced and a third traced (one
/// span per call), and the last third walks every workload's layers.
fn traced_run(args: &Args, spill_dir: &Path) -> Result<String, String> {
    let mut generate_ms = Vec::with_capacity(GENERATIONS);
    let mut catalog = None;
    for _ in 0..GENERATIONS {
        drop(catalog.take());
        let start = Instant::now();
        catalog = Some(adapter::catalog(args.seed));
        generate_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let catalog = catalog.ok_or("no catalog generated")?;
    let all: Vec<Prepared> = Workload::ALL
        .iter()
        .map(|&w| Prepared::setup(w, catalog.clone(), args.seed, spill_dir))
        .collect::<Result<_, _>>()?;
    let target = Workload::ALL
        .iter()
        .position(|&w| w == args.workload)
        .ok_or("workload not set up")?;
    let third = args.seconds / 3.0;
    let untraced = closed_loop(&all[target], third, 1, None)?;
    let mut tracer = Tracer::new();
    let traced = closed_loop(&all[target], third, 1, Some(&mut tracer))?;

    let mut walk_ms = [0.0; Workload::ALL.len()];
    let mut call_ms = [0.0; Workload::ALL.len()];
    let mut rounds = 0u64;
    let start = Instant::now();
    while rounds == 0 || start.elapsed().as_secs_f64() < third {
        for (i, p) in all.iter().enumerate() {
            let cpu = p.walk(&mut tracer, rounds)?;
            walk_ms[i] += cpu.walk_ms;
            call_ms[i] += cpu.call_ms.unwrap_or(0.0);
        }
        rounds += 1;
    }
    let n = rounds as f64;
    let trace_path = Path::new(RUN_DIR).join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    let t = &tracer;
    let ns = |name: &str| t.total_ns(name) as f64;
    let self_ns = |name: &str| t.self_total_ns(name) as f64;
    let count = |name: &str| t.counted(name);
    let family = &all[Workload::ALL
        .iter()
        .position(|&w| w == Workload::FamilyService)
        .ok_or("family workload not set up")?];
    let profile_ms = family.profile_ms.iter().sum::<f64>() / family.profile_ms.len().max(1) as f64;
    let scan = Workload::ALL
        .iter()
        .position(|&w| w == Workload::ScanShared)
        .ok_or("scan workload not set up")?;
    let values = [
        (
            "storage.tpch.generate_ms",
            measure::median(&generate_ms).unwrap_or(0.0),
        ),
        ("engine.profiling.profile_ms", profile_ms),
        (
            "storage.page.decode_ns_per_row",
            per(
                self_ns("storage.page.decode"),
                count("storage.page.decode.rows"),
            ),
        ),
        (
            "storage.table.materialize_ns_per_row",
            per(
                self_ns("storage.table.materialize"),
                count("storage.page.decode.rows"),
            ),
        ),
        (
            "exec.reference.pivot_ms",
            per(
                ns("exec.reference.pivot"),
                count("exec.reference.pivot.calls"),
            ) / 1e6,
        ),
        (
            "exec.reference.fragment_ms",
            per(
                ns("exec.reference.fragment"),
                count("exec.reference.fragment.calls"),
            ) / 1e6,
        ),
        (
            "exec.parallel.query_ms",
            per(
                ns("exec.parallel.query"),
                count("exec.parallel.query.calls"),
            ) / 1e6,
        ),
        (
            "engine.thread_exec.overhead_cpu_ms",
            (call_ms[scan] - walk_ms[scan]) / n,
        ),
        (
            "storage.page.gather_ns_per_value",
            per(
                ns("storage.page.gather"),
                count("storage.page.gather.values"),
            ),
        ),
        (
            "exec.vexpr.select_ns_per_row",
            per(ns("exec.vexpr.select"), count("exec.vexpr.select.rows")),
        ),
        (
            "exec.parallel.build_ns_per_row",
            per(ns("exec.parallel.build"), count("exec.parallel.build.rows")),
        ),
        (
            "exec.parallel.probe_ns_per_row",
            per(ns("exec.parallel.probe"), count("exec.parallel.probe.rows")),
        ),
        (
            "exec.parallel.aggregate_ns_per_row",
            per(
                ns("exec.parallel.aggregate"),
                count("exec.parallel.aggregate.rows"),
            ),
        ),
        (
            "exec.parallel.worker_speedup",
            per(
                ns("exec.parallel.query_workers1"),
                ns("exec.parallel.query_workers2"),
            ),
        ),
        (
            "exec.subsume.fingerprint_ns",
            per(
                ns("exec.subsume.fingerprint"),
                count("exec.subsume.fingerprint.calls"),
            ),
        ),
        (
            "exec.subsume.residual_ns",
            per(
                ns("exec.subsume.residual"),
                count("exec.subsume.residual.calls"),
            ),
        ),
        (
            "engine.policy.admit_ns",
            per(
                ns("engine.policy.admit"),
                count("engine.policy.admit.calls"),
            ),
        ),
        (
            "engine.fragment_cache.lookup_ns",
            per(
                ns("engine.fragment_cache.lookup"),
                count("engine.fragment_cache.lookup.calls"),
            ),
        ),
        ("engine.fragment_cache.hit_ratio", family.digest().hit_ratio),
        (
            "engine.dispatcher.mean_group_size",
            family.digest().mean_group_size,
        ),
        (
            "exec.wiring.sim_query_ms",
            per(ns("exec.wiring.sim_query"), count("exec.wiring.sim_query")) / 1e6,
        ),
        (
            "sim.steps_per_query",
            per(count("sim.steps"), count("exec.wiring.sim_query")),
        ),
        (
            "sim.ns_per_step",
            per(ns("exec.wiring.sim_query"), count("sim.steps")),
        ),
        (
            "exec.spill.slowdown",
            per(ns("walk.sim_join_spill"), ns("exec.spill.unbudgeted")),
        ),
        (
            "exec.memory.peak_over_budget",
            count("exec.memory.peak_over_budget"),
        ),
        (
            "storage.spill.write_mb_per_s",
            per(
                count("storage.spill.write.bytes") / 1e6,
                ns("storage.spill.write") / 1e9,
            ),
        ),
        (
            "storage.spill.read_mb_per_s",
            per(
                count("storage.spill.read.bytes") / 1e6,
                ns("storage.spill.read") / 1e9,
            ),
        ),
        (
            "trace.coverage",
            per(walk_ms[target] / n, untraced.cpu_ms_per_call()),
        ),
        (
            "trace.overhead_frac",
            1.0 - per(traced.qps(), untraced.qps()),
        ),
    ];
    let setup_ok = all.iter().all(Prepared::setup_ok);
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    finish(
        setup_ok && failed == 0,
        attempted,
        failed,
        &PER_LAYER,
        &values,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this binary reports,
    /// with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let json = include_str!("../../BENCHMARK.json");
        for spec in END_TO_END.iter().chain(&PER_LAYER) {
            let mut entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                spec.name,
                spec.unit,
                spec.better.as_str()
            );
            if let Some(bound) = spec.bound {
                entry.push_str(&format!(", \"bound\": {bound}}}"));
            } else {
                entry.push('}');
            }
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\": ").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
        }
        assert_eq!(json.matches("\"why\": ").count(), Workload::ALL.len());
    }

    #[test]
    fn tail_needs_a_hundred_calls() {
        assert_eq!(min_samples(0.9), 100);
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload sim_join_spill --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::JoinSpill);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(parse("--seed 7").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload sim_join_spill --trace 2").is_err());
        assert!(parse("--workload sim_join_spill --seconds 0").is_err());
        assert!(parse("--workload sim_join_spill --seed").is_err());
    }
}
