//! Seeded arrival-schedule generators for the open-system service loop.
//!
//! [`cordoba_engine::service`] consumes plain
//! [`ArrivalSchedule`]s — `(arrival time, query)` pairs sorted by time —
//! so arrival processes are just generator functions. This module
//! provides the processes the service and its tail-latency harness
//! drive:
//!
//! * [`poisson_mix`] — Poisson arrivals drawing uniformly from a pool
//!   of query specs (heterogeneous clients, one arrival process); a
//!   one-spec pool (`std::slice::from_ref(&spec)`) is the fixed-query
//!   Poisson process.
//! * [`bursty`] — an on/off source: tight bursts of back-to-back
//!   arrivals separated by long idle gaps, the worst case for a
//!   formation window (whole bursts co-reside; nothing else does).
//! * [`ramp`] — a saturation ramp: inter-arrival gaps shrink linearly
//!   from `gap_start` to `gap_end`, walking the system from underload
//!   into overload within one run.
//! * [`chaos`] — decorates any schedule with injected faults: each
//!   query independently fails with probability `fault_rate` via
//!   [`QuerySpec::with_chaos`], exercising the failure-accounting path
//!   under load.
//!
//! All generators are deterministic per seed (they draw from
//! [`SmallRng`]), so service benchmarks built on them are reproducible
//! across hosts.

use cordoba_engine::{ArrivalSchedule, QuerySpec};
use cordoba_exec::ExecError;
use cordoba_sim::VTime;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Draws the next exponential gap with the given mean (rounded to
/// virtual-time units).
fn exp_gap(rng: &mut SmallRng, mean: VTime) -> VTime {
    let u: f64 = rng.gen_range(1e-9..1.0);
    (-u.ln() * mean as f64).round() as VTime
}

/// Poisson arrivals over a heterogeneous query pool: `count` arrivals
/// with exponential inter-arrival gaps of mean `mean_gap`, each drawing
/// its spec uniformly from `pool`. Panics if `pool` is empty.
pub fn poisson_mix(
    pool: &[QuerySpec],
    count: usize,
    mean_gap: VTime,
    seed: u64,
) -> ArrivalSchedule {
    assert!(!pool.is_empty(), "poisson_mix needs a non-empty query pool");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t: VTime = 0;
    (0..count)
        .map(|_| {
            t += exp_gap(&mut rng, mean_gap);
            let spec = pool[rng.gen_range(0..pool.len())].clone();
            (t, spec)
        })
        .collect()
}

/// An on/off (bursty) source: arrivals come in bursts of
/// `burst_size` queries spaced `within_gap` apart, with bursts
/// separated by exponential idle gaps of mean `idle_gap`. Specs cycle
/// round-robin through `pool`, so a burst mixes query shapes the way
/// coincident clients would. Generates `bursts × burst_size` arrivals.
/// Panics if `pool` is empty or `burst_size` is 0.
pub fn bursty(
    pool: &[QuerySpec],
    bursts: usize,
    burst_size: usize,
    within_gap: VTime,
    idle_gap: VTime,
    seed: u64,
) -> ArrivalSchedule {
    assert!(!pool.is_empty(), "bursty needs a non-empty query pool");
    assert!(burst_size > 0, "bursty needs a positive burst size");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut schedule = Vec::with_capacity(bursts * burst_size);
    let mut t: VTime = 0;
    let mut next_spec = 0usize;
    for _ in 0..bursts {
        t += exp_gap(&mut rng, idle_gap);
        let mut at = t;
        for _ in 0..burst_size {
            schedule.push((at, pool[next_spec % pool.len()].clone()));
            next_spec += 1;
            at += within_gap;
        }
        // The next idle gap opens after the burst finished arriving.
        t = at;
    }
    schedule
}

/// A load ramp: `count` arrivals whose exponential mean gap shrinks
/// linearly from `gap_start` (first arrival) to `gap_end` (last) —
/// offered load grows until the system saturates. Specs cycle
/// round-robin through `pool`. Panics if `pool` is empty.
pub fn ramp(
    pool: &[QuerySpec],
    count: usize,
    gap_start: VTime,
    gap_end: VTime,
    seed: u64,
) -> ArrivalSchedule {
    assert!(!pool.is_empty(), "ramp needs a non-empty query pool");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t: VTime = 0;
    (0..count)
        .map(|i| {
            let frac = if count > 1 {
                i as f64 / (count - 1) as f64
            } else {
                0.0
            };
            let mean = gap_start as f64 + (gap_end as f64 - gap_start as f64) * frac;
            t += exp_gap(&mut rng, mean.round().max(1.0) as VTime);
            (t, pool[i % pool.len()].clone())
        })
        .collect()
}

/// Chaos campaign: each query in `schedule` independently gets an
/// injected fault with probability `fault_rate` (its sink observes
/// [`ExecError::Injected`] and the query fails instead of completing).
/// Arrival times are untouched; only dispositions change.
pub fn chaos(schedule: ArrivalSchedule, fault_rate: f64, seed: u64) -> ArrivalSchedule {
    let mut rng = SmallRng::seed_from_u64(seed);
    schedule
        .into_iter()
        .enumerate()
        .map(|(i, (t, spec))| {
            if rng.gen_bool(fault_rate.clamp(0.0, 1.0)) {
                let err = ExecError::Injected {
                    detail: format!("chaos campaign: arrival {i}"),
                };
                (t, spec.with_chaos(err))
            } else {
                (t, spec)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::CostProfile;
    use crate::queries::{q1, q6};

    fn pool() -> Vec<QuerySpec> {
        let costs = CostProfile::paper();
        vec![q6(&costs), q1(&costs)]
    }

    fn times(s: &ArrivalSchedule) -> Vec<VTime> {
        s.iter().map(|(t, _)| *t).collect()
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let p = pool();
        assert_eq!(poisson_mix(&p, 30, 1_000, 7), poisson_mix(&p, 30, 1_000, 7));
        assert_ne!(
            times(&poisson_mix(&p, 30, 1_000, 7)),
            times(&poisson_mix(&p, 30, 1_000, 8))
        );
        assert_eq!(
            bursty(&p, 4, 5, 10, 50_000, 7),
            bursty(&p, 4, 5, 10, 50_000, 7)
        );
        assert_eq!(ramp(&p, 30, 10_000, 100, 7), ramp(&p, 30, 10_000, 100, 7));
        let base = poisson_mix(&p, 30, 1_000, 7);
        assert_eq!(chaos(base.clone(), 0.3, 9), chaos(base, 0.3, 9));
    }

    #[test]
    fn schedules_are_sorted_and_sized() {
        let p = pool();
        for s in [
            poisson_mix(&p, 40, 2_000, 1),
            bursty(&p, 5, 8, 10, 100_000, 2),
            ramp(&p, 40, 50_000, 500, 3),
        ] {
            assert!(s.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by time");
        }
        assert_eq!(poisson_mix(&p, 40, 2_000, 1).len(), 40);
        assert_eq!(bursty(&p, 5, 8, 10, 100_000, 2).len(), 40);
        assert_eq!(ramp(&p, 40, 50_000, 500, 3).len(), 40);
    }

    #[test]
    fn bursty_clusters_and_spreads() {
        let p = pool();
        let s = bursty(&p, 3, 4, 10, 1_000_000, 5);
        // Within a burst: consecutive gaps are exactly `within_gap`.
        for b in 0..3 {
            let burst = &s[b * 4..(b + 1) * 4];
            for w in burst.windows(2) {
                assert_eq!(w[1].0 - w[0].0, 10);
            }
        }
        // Across bursts the idle gap dominates the within gap.
        assert!(s[4].0 - s[3].0 > 10);
    }

    #[test]
    fn ramp_gaps_shrink_on_average() {
        let p = pool();
        let s = ramp(&p, 200, 100_000, 100, 11);
        let t = times(&s);
        let first_half: VTime = t[100] - t[0];
        let second_half: VTime = t[199] - t[100];
        assert!(
            first_half > second_half,
            "early gaps must dominate: {first_half} vs {second_half}"
        );
    }

    #[test]
    fn chaos_marks_the_expected_fraction() {
        let p = pool();
        let base = poisson_mix(&p, 200, 1_000, 13);
        let marked = chaos(base.clone(), 0.25, 17);
        let faulty = marked.iter().filter(|(_, s)| s.chaos.is_some()).count();
        assert!(
            (20..=80).contains(&faulty),
            "~25% of 200 should be marked, got {faulty}"
        );
        // Times unchanged; rate 0 and 1 are exact.
        assert_eq!(times(&base), times(&marked));
        assert!(chaos(base.clone(), 0.0, 1)
            .iter()
            .all(|(_, s)| s.chaos.is_none()));
        assert!(chaos(base, 1.0, 1).iter().all(|(_, s)| s.chaos.is_some()));
    }
}
