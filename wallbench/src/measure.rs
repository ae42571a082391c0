//! The benchmark's own arithmetic: nearest-rank quantiles, spans and
//! their self time, the `/proc` sampler, and the result line.
//!
//! Nothing here calls into the engine; it is tested on its own
//! (`cargo test --manifest-path wallbench/Cargo.toml`).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Samples a reported percentile must leave strictly beyond its rank
/// before it is reported at all.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest-rank index of quantile `q` among `n` samples:
/// `ceil(q · n)`, clamped to `1..=n`.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank quantile `q` of `samples` (sorted in place), or `None`
/// when there are none.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(samples[nearest_rank(samples.len(), q) - 1])
}

/// Whether quantile `q` of `n` samples has at least [`MIN_BEYOND`]
/// samples strictly beyond its rank.
pub fn eligible(n: usize, q: f64) -> bool {
    n > 0 && n - nearest_rank(n, q) >= MIN_BEYOND
}

/// The median of `values` (nearest rank), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(&mut values.to_vec(), 0.5)
}

/// One timed interval of the traced run: a call into one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `storage.page.decode`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    /// Nanoseconds since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one call or walk.
    pub call: u64,
}

/// In-memory span recorder: spans and counts are kept until
/// [`Tracer::write_jsonl`] writes them out at exit.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(&'static str, f64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f`
    /// become its children.
    pub fn span<T>(&mut self, name: &'static str, call: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            call,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Adds `n` to the counter `name` (work done at a layer boundary).
    pub fn count(&mut self, name: &'static str, n: f64) {
        match self.counts.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n,
            None => self.counts.push((name, n)),
        }
    }

    /// Raises the counter `name` to `v` if `v` is larger.
    pub fn count_max(&mut self, name: &'static str, v: f64) {
        let current = self.counted(name);
        if v > current {
            self.count(name, v - current);
        }
    }

    /// The counter `name`, 0 when never counted.
    pub fn counted(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Sum of the durations of every span named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Sum of the self times of every span named `name`, in ns.
    pub fn self_total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Every span's duration minus the part of it its children cover,
    /// indexed like the spans (one pass over the spans, not one per span).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| (s.end - s.start) - covered(s.start, s.end, c))
            .collect()
    }

    /// Writes spans (then counters) as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"call\":{}}}",
                s.name,
                s.start,
                s.end,
                self_ns,
                s.call
            );
        }
        for (name, v) in &self.counts {
            let _ = writeln!(out, "{{\"count\":\"{name}\",\"value\":{v}}}");
        }
        fs::write(path, out)
    }
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Kernel clock ticks per second of the `/proc` CPU counters (`USER_HZ`,
/// fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process (all threads, live and
/// exited) in milliseconds, from `/proc/self/stat`.
pub fn cpu_ms() -> io::Result<f64> {
    let stat = fs::read_to_string("/proc/self/stat")?;
    parse_cpu_ms(&stat).ok_or_else(|| io::Error::other("malformed /proc/self/stat"))
}

fn parse_cpu_ms(stat: &str) -> Option<f64> {
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / USER_HZ)
}

/// Hypervisor steal time of the whole machine in milliseconds, from the
/// `cpu` line of `/proc/stat`: time its virtual CPUs were ready to run
/// while the host ran something else.
pub fn steal_ms() -> io::Result<f64> {
    let stat = fs::read_to_string("/proc/stat")?;
    parse_steal_ms(&stat).ok_or_else(|| io::Error::other("malformed /proc/stat"))
}

fn parse_steal_ms(stat: &str) -> Option<f64> {
    // cpu user nice system idle iowait irq softirq steal ...
    let fields: Vec<&str> = stat.lines().next()?.split_whitespace().collect();
    if fields.first() != Some(&"cpu") {
        return None;
    }
    let steal: u64 = fields.get(8)?.parse().ok()?;
    Some(steal as f64 * 1000.0 / USER_HZ)
}

/// `wall` seconds net of the hypervisor steal that delayed them. The
/// busy virtual CPUs wanted `cpu + steal` ms and got `cpu`, so at the
/// same parallelism the work would have taken `wall · cpu / (cpu +
/// steal)`. Without steal (or without CPU to scale) it is `wall`.
pub fn net_wall(wall: f64, cpu: f64, steal: f64) -> f64 {
    if cpu > 0.0 && steal > 0.0 {
        wall * cpu / (cpu + steal)
    } else {
        wall
    }
}

/// A reading of the wall clock, this process's CPU time and the
/// machine's steal time.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    at: Instant,
    cpu_ms: f64,
    steal_ms: f64,
}

/// What passed between two [`Stamp`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interval {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU milliseconds.
    pub cpu_ms: f64,
    /// Machine steal milliseconds.
    pub steal_ms: f64,
}

impl Stamp {
    /// Reads the clocks.
    pub fn now() -> io::Result<Self> {
        Ok(Self {
            at: Instant::now(),
            cpu_ms: cpu_ms()?,
            steal_ms: steal_ms()?,
        })
    }

    /// The interval from `self` until now.
    pub fn elapsed(&self) -> io::Result<Interval> {
        let now = Stamp::now()?;
        Ok(Interval {
            wall_s: now.at.duration_since(self.at).as_secs_f64(),
            cpu_ms: now.cpu_ms - self.cpu_ms,
            steal_ms: now.steal_ms - self.steal_ms,
        })
    }
}

impl Interval {
    /// Wall seconds net of hypervisor steal (see [`net_wall`]).
    pub fn net_wall_s(&self) -> f64 {
        net_wall(self.wall_s, self.cpu_ms, self.steal_ms)
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    parse_hwm_mb(&status).ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

fn parse_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

// The declared direction and bound are only read by the test that
// compares the metric tables with `BENCHMARK.json`.
#[cfg_attr(not(test), allow(dead_code))]
impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Formats the result line: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line =
        format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(
            line,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");
    line
}

/// Checks that `line` is a result line carrying exactly the metrics of
/// `specs`, each with its unit and a finite value.
pub fn check_line(line: &str, specs: &[MetricSpec]) -> Result<(), String> {
    for key in [
        "\"correct\": ",
        "\"attempted\": ",
        "\"failed\": ",
        "\"metrics\": {",
    ] {
        if !line.contains(key) {
            return Err(format!("result line lacks {key}"));
        }
    }
    if !line.starts_with('{') || !line.ends_with("}}") || line.contains('\n') {
        return Err("result line is not one JSON object on one line".into());
    }
    for spec in specs {
        let head = format!("\"{}\": {{\"value\": ", spec.name);
        let Some(at) = line.find(&head) else {
            return Err(format!("metric {} missing", spec.name));
        };
        let rest = &line[at + head.len()..];
        let Some(comma) = rest.find(", \"unit\": \"") else {
            return Err(format!("metric {} has no unit", spec.name));
        };
        let value: f64 = rest[..comma].parse().map_err(|_| {
            format!(
                "metric {} value {:?} is not a number",
                spec.name,
                &rest[..comma]
            )
        })?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite", spec.name));
        }
        let unit_rest = &rest[comma + ", \"unit\": \"".len()..];
        if !unit_rest.starts_with(&format!("{}\"}}", spec.unit)) {
            return Err(format!(
                "metric {} does not carry unit {}",
                spec.name, spec.unit
            ));
        }
    }
    let found = line.matches("{\"value\": ").count();
    if found != specs.len() {
        return Err(format!(
            "{found} metrics reported, {} declared",
            specs.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(5.0));
        assert_eq!(quantile(&mut v, 0.9), Some(9.0));
        assert_eq!(quantile(&mut v, 0.91), Some(10.0));
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut v, 1.0), Some(10.0));
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(quantile(&mut [7.0], 0.99), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // rank(0.9, 100) = 90 leaves exactly 10 beyond.
        assert!(eligible(100, 0.9));
        // rank(0.9, 99) = ceil(89.1) = 90 leaves 9.
        assert!(!eligible(99, 0.9));
        assert!(!eligible(10, 0.9));
        assert!(!eligible(0, 0.9));
        assert!(eligible(20, 0.5));
        assert!(!eligible(19, 0.5));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span {
                name: "root",
                start: 0,
                end: 100,
                parent: None,
                call: 0,
            },
            Span {
                name: "a",
                start: 10,
                end: 30,
                parent: Some(0),
                call: 0,
            },
            // Overlaps `a`: the union, not the sum, is subtracted.
            Span {
                name: "b",
                start: 20,
                end: 40,
                parent: Some(0),
                call: 0,
            },
            // Sticks out past the parent: only the inside part counts.
            Span {
                name: "c",
                start: 90,
                end: 120,
                parent: Some(0),
                call: 0,
            },
            // A grandchild is covered by its parent `a` already.
            Span {
                name: "d",
                start: 12,
                end: 14,
                parent: Some(1),
                call: 0,
            },
        ];
        let self_times = t.self_times();
        assert_eq!(self_times[0], 100 - 30 - 10);
        assert_eq!(self_times[1], 20 - 2);
        assert_eq!(self_times[4], 2);
        assert_eq!(t.total_ns("a"), 20);
        assert_eq!(t.self_total_ns("a"), 18);
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut t = Tracer::new();
        t.span("outer", 7, |t| {
            t.span("inner", 7, |t| t.count("rows", 3.0));
            t.count("rows", 2.0);
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(t.counted("rows"), 5.0);
        t.count_max("peak", 1.5);
        t.count_max("peak", 0.5);
        assert_eq!(t.counted("peak"), 1.5);
        assert!(t.self_times()[0] <= t.total_ns("outer"));
    }

    #[test]
    fn proc_parsers_read_the_kernel_formats() {
        let stat = "4242 (wall bench) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(parse_cpu_ms(stat), Some(3000.0));
        assert_eq!(parse_cpu_ms("garbage"), None);
        let status = "Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_hwm_mb(status), Some(2.0));
        assert!(cpu_ms().is_ok() && peak_rss_mb().unwrap() > 0.0);
        let proc_stat = "cpu  100 0 20 900 5 0 3 40 0 0\ncpu0 50 0 10 450 2 0 1 20 0 0\n";
        assert_eq!(parse_steal_ms(proc_stat), Some(400.0));
        assert_eq!(parse_steal_ms("cpu0 1 2 3 4 5 6 7 8"), None);
        assert!(steal_ms().is_ok());
    }

    #[test]
    fn net_wall_removes_stolen_time_at_the_observed_parallelism() {
        // No steal, or no CPU to scale by: the wall time stands.
        assert_eq!(net_wall(1.5, 300.0, 0.0), 1.5);
        assert_eq!(net_wall(1.5, 0.0, 50.0), 1.5);
        // One busy CPU lost half its time: the call took twice as long.
        assert_eq!(net_wall(2.0, 1000.0, 1000.0), 1.0);
        // Two busy CPUs (2000 ms CPU in 1.25 s) lost 500 ms between them.
        assert_eq!(net_wall(1.25, 2000.0, 500.0), 1.0);
    }

    const SPECS: [MetricSpec; 2] = [
        MetricSpec {
            name: "qps",
            unit: "1/s",
            better: Better::Higher,
            bound: Some(0.1),
        },
        MetricSpec {
            name: "setup_s",
            unit: "s",
            better: Better::Lower,
            bound: Some(0.25),
        },
    ];

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let qps = Metric {
            name: "qps",
            unit: "1/s",
            value: 12.5,
        };
        let setup = Metric {
            name: "setup_s",
            unit: "s",
            value: 0.8127,
        };
        let line = result_line(true, 10, 0, &[qps, setup]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert_eq!(check_line(&line, &SPECS), Ok(()));
        // A missing metric, a wrong unit, a non-finite value and an
        // undeclared extra metric are all refused.
        assert!(check_line(&result_line(true, 1, 0, &[qps]), &SPECS).is_err());
        let wrong_unit = Metric {
            unit: "ms",
            ..setup
        };
        assert!(check_line(&result_line(true, 1, 0, &[qps, wrong_unit]), &SPECS).is_err());
        let nan = Metric {
            value: f64::NAN,
            ..setup
        };
        assert!(check_line(&result_line(true, 1, 0, &[qps, nan]), &SPECS).is_err());
        let extra = Metric {
            name: "extra",
            unit: "s",
            value: 1.0,
        };
        assert!(check_line(&result_line(true, 1, 0, &[qps, setup, extra]), &SPECS).is_err());
    }
}
