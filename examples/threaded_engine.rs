//! Real-thread shared scan: the engine's sharing machinery on OS
//! threads with wall-clock timing (the simulator is the measurement
//! substrate for the paper's figures; this shows the design also runs
//! on real hardware). Both sides run the vectorized morsel kernels, so
//! the comparison isolates sharing itself.
//!
//! Run with: `cargo run --release --example threaded_engine`

use cordoba::engine::thread_exec::{run_shared, run_unshared_parallel};
use cordoba::exec::ParallelConfig;
use cordoba::storage::tpch::{generate, TpchConfig};
use cordoba::workload::{q6, CostProfile};

fn main() {
    let catalog = generate(&TpchConfig::scale(0.01));
    let spec = q6(&CostProfile::paper());
    let m = 6;
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);

    println!("running {m} copies of Q6 over {host_threads} host threads...\n");
    let unshared =
        run_unshared_parallel(&catalog, &spec, m, host_threads, &ParallelConfig::default())
            .expect("Q6 runs unshared");
    let shared = run_shared(&catalog, &spec, m);

    assert_eq!(
        shared.results, unshared.results,
        "shared results must match"
    );
    println!(
        "unshared: {:>10.2?}  ({} queries, each scanning privately)",
        unshared.elapsed, m
    );
    println!(
        "shared:   {:>10.2?}  (one scan fanned out to {} consumers)",
        shared.elapsed, m
    );
    let ratio = unshared.elapsed.as_secs_f64() / shared.elapsed.as_secs_f64().max(1e-9);
    println!("\nwall-clock speedup of sharing: {ratio:.2}x on this host");
    println!("(on a machine with >= {m} idle cores, expect sharing to win less or lose —");
    println!(" the exact trade-off the analytical model predicts)");
}
