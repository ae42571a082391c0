//! Criterion benchmarks for the engine's sharing machinery: wall-clock
//! cost of a simulated shared vs unshared Q6 batch, and of the real
//! thread executor.

use cordoba_engine::{run_once, thread_exec, EngineConfig, Policy};
use cordoba_exec::ParallelConfig;
use cordoba_storage::tpch::{generate, TpchConfig};
use cordoba_storage::Catalog;
use cordoba_workload::{q6, CostProfile};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn catalog() -> Catalog {
    generate(&TpchConfig {
        scale_factor: 0.002,
        seed: 2,
        ..TpchConfig::default()
    })
}

fn simulated_batch(c: &mut Criterion) {
    let cat = catalog();
    let spec = q6(&CostProfile::paper());
    let mut g = c.benchmark_group("sim_q6_batch_of_4");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for (label, policy) in [
        ("shared", Policy::AlwaysShare),
        ("unshared", Policy::NeverShare),
    ] {
        let cfg = EngineConfig {
            contexts: 8,
            policy,
            ..EngineConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(label), &cfg, |b, cfg| {
            b.iter(|| run_once(&cat, &vec![spec.clone(); 4], cfg).makespan)
        });
    }
    g.finish();
}

fn threaded_batch(c: &mut Criterion) {
    let cat = catalog();
    let spec = q6(&CostProfile::paper());
    let mut g = c.benchmark_group("threads_q6_batch_of_4");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("shared", |b| {
        b.iter(|| thread_exec::run_shared(&cat, &spec, 4).results.len())
    });
    g.bench_function("unshared", |b| {
        b.iter(|| {
            thread_exec::run_unshared_parallel(&cat, &spec, 4, 2, &ParallelConfig::default())
                .map(|r| r.results.len())
        })
    });
    g.finish();
}

criterion_group!(benches, simulated_batch, threaded_batch);
criterion_main!(benches);
