//! # cordoba-engine — the staged, work-sharing query engine
//!
//! Reproduction of the paper's prototype ("Cordoba", Section 3.2): a
//! staged engine where concurrent queries' overlapping sub-plans are
//! detected at submission time and **merged** — the shared sub-plan (its
//! root is the *pivot* operator φ) executes once and multiplexes its
//! output pages to every consumer, paying the per-consumer cost `s` that
//! creates the work-sharing/parallelism trade-off. Detection is
//! semantic, not just structural: fingerprints and the predicate
//! subsumption lattice of [`cordoba_exec::subsume`] let a wide
//! `σ[a ≤ x < b]` fragment serve narrower consumers through residual
//! filters, and [`fragment_cache`] replays recently completed fragments
//! for late arrivals.
//!
//! Pieces:
//!
//! * [`QuerySpec`] — a physical plan plus its designated shareable
//!   sub-plan.
//! * [`sharing`] — sub-plan splitting: member plans are grafted onto a
//!   shared pivot's output channels via [`cordoba_exec::PhysicalPlan::Source`].
//! * [`Policy`] — `AlwaysShare`, `NeverShare`, and `ModelGuided`
//!   (paper Section 8): the model-guided policy admits a query into a
//!   sharing group only if the analytical model predicts a net win for
//!   the expanded group.
//! * [`runner`] — the simulator set-up every run shares, the
//!   closed-system client harness (every completed query is immediately
//!   resubmitted — the Little's Law regime of Section 1.2) measuring
//!   throughput on the simulated CMP, and one-shot t=0 batches
//!   ([`run_once`] → [`OnceOutcome`]).
//! * [`service`] — the open-system loop (Section 5.1): queries arrive
//!   on an [`ArrivalSchedule`] and pass an admission queue, bounded
//!   (typed rejection when full) or unbounded; the sharing policy acts
//!   as a per-arrival merge controller, and every offered query gets an
//!   explicit disposition (completed / failed / rejected / in flight)
//!   in one [`ServiceReport`], so tail-latency accounting always
//!   balances.
//! * [`profiling`] — the paper's Section 3.1 parameter estimation:
//!   profile a query with and without sharing, solve for each
//!   operator's `p` and the pivot's `(w, s)`, and emit a
//!   [`cordoba_core::PlanSpec`] the policy can evaluate.
//! * [`thread_exec`] — a real-thread executor demonstrating the same
//!   shared-scan machinery on OS threads (wall-clock, host-bound).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dispatcher;
pub mod fragment_cache;
pub mod policy;
pub mod profiling;
pub mod query;
pub mod runner;
pub mod service;
pub mod sharing;
pub mod thread_exec;

pub use cordoba_exec::{ExecError, MemoryConfig, ParallelConfig};
pub use fragment_cache::{CachedFragment, FragmentCache};
pub use policy::{OverlapInfo, Policy, QueryModelInfo};
pub use query::QuerySpec;
pub use runner::{
    measure_throughput, run_once, run_once_capped, ClosedLoop, EngineConfig, OnceOutcome,
    SharingCounters, Throughput,
};
pub use service::{
    run_open_loop_collecting, run_service, ArrivalSchedule, Disposition, ServiceConfig,
    ServiceReport,
};
