//! Drifting clocks and periodic resynchronization.
//!
//! The Lundelius–Lynch bound isolates delay uncertainty; real clocks also
//! *drift* (rates in `[1−ρ, 1+ρ]`), which is what Lamport's PODC'83 problem
//! and the Dolev–Halpern–Strong work \[44\] are about. This module adds rate
//! drift to the model and measures the steady-state skew of
//! resynchronize-every-`R` schedules: between rounds the skew grows by up
//! to `2ρR`, and each resynchronization resets it to (at best) the
//! `u·(1−1/n)` floor — so the long-run envelope is
//! `u·(1−1/n) + 2ρR`, measured here against its two parameters.

use crate::model::{averaging_adjustments, ClockParams};
use impossible_det::DetRng;

/// A drifting hardware clock: `H(t) = offset + rate·t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftingClock {
    /// Value at real time 0.
    pub offset: f64,
    /// Rate (1.0 = perfect; within `[1−ρ, 1+ρ]`).
    pub rate: f64,
}

impl DriftingClock {
    /// Clock reading at real time `t`.
    pub fn read(&self, t: f64) -> f64 {
        self.offset + self.rate * t
    }
}

/// Parameters of a long-run drift simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftParams {
    /// Number of processes.
    pub n: usize,
    /// Maximum rate deviation ρ.
    pub rho: f64,
    /// Message delay band `[lo, hi]`.
    pub lo: f64,
    /// Upper end of the delay band.
    pub hi: f64,
    /// Resynchronization period `R` (real time between rounds).
    pub period: f64,
}

/// Result of a drift run.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRun {
    /// Skew measured immediately after each resynchronization.
    post_sync_skews: Vec<f64>,
    /// Skew measured immediately before each resynchronization (the
    /// envelope's worst points).
    pub pre_sync_skews: Vec<f64>,
    /// The steady-state envelope `u·(1−1/n) + 2ρR`.
    pub envelope: f64,
}

/// Simulate `rounds` resynchronization periods with random rates/offsets.
///
/// Each round: clocks drift for `period` real-time units, then one
/// Lundelius–Lynch exchange (with fresh random delays) computes adjustments
/// applied as offset corrections.
pub fn run_drift(params: &DriftParams, rounds: usize, seed: u64) -> DriftRun {
    let mut rng = DetRng::seed_from_u64(seed);
    let u = params.hi - params.lo;
    let n = params.n;
    let mut clocks: Vec<DriftingClock> = (0..n)
        .map(|_| DriftingClock {
            offset: rng.gen_range(-1.0..1.0),
            rate: 1.0 + rng.gen_range(-params.rho..=params.rho),
        })
        .collect();

    let mut pre = Vec::new();
    let mut post = Vec::new();
    let mut now = 0.0f64;
    for _ in 0..rounds {
        now += params.period;
        pre.push(skew_at(&clocks, now));

        // One exchange at (roughly) time `now`: every process reads its
        // clock and sends; delays random in [lo, hi]. We reuse the static
        // model by snapshotting each clock's current value as its offset —
        // rates are slow relative to one exchange.
        let snapshot = ClockParams {
            offsets: clocks.iter().map(|c| c.read(now)).collect(),
            lo: params.lo,
            hi: params.hi,
        };
        let delays: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| rng.gen_range(params.lo..=params.hi))
                    .collect()
            })
            .collect();
        let (obs, _) = crate::model::exchange(&snapshot, &delays);
        let adjustments = averaging_adjustments(&snapshot, &obs);
        for (c, adj) in clocks.iter_mut().zip(&adjustments) {
            c.offset += adj;
        }
        post.push(skew_at(&clocks, now));
    }

    DriftRun {
        pre_sync_skews: pre,
        post_sync_skews: post,
        envelope: u * (1.0 - 1.0 / n as f64) + 2.0 * params.rho * params.period,
    }
}

fn skew_at(clocks: &[DriftingClock], t: f64) -> f64 {
    let readings: Vec<f64> = clocks.iter().map(|c| c.read(t)).collect();
    let lo = readings.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = readings.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> DriftParams {
        DriftParams {
            n: 4,
            rho: 0.001,
            lo: 1.0,
            hi: 1.5,
            period: 100.0,
        }
    }

    #[test]
    fn skew_stays_within_the_envelope() {
        let run = run_drift(&base(), 30, 7);
        // After the initial convergence, pre-sync skew is bounded by the
        // envelope (post-sync offsets within the LL floor, plus 2ρR drift).
        for (i, s) in run.pre_sync_skews.iter().enumerate().skip(2) {
            assert!(
                *s <= run.envelope + 1e-6,
                "round {i}: skew {s} > envelope {}",
                run.envelope
            );
        }
    }

    #[test]
    fn post_sync_skew_respects_the_ll_floor() {
        // Right after every exchange the adjusted clocks sit within the
        // Lundelius–Lynch bound of each other — drift only matters between
        // exchanges.
        let params = base();
        let run = run_drift(&params, 20, 3);
        let floor = (params.hi - params.lo) * (1.0 - 1.0 / params.n as f64);
        for (i, s) in run.post_sync_skews.iter().enumerate() {
            assert!(*s <= floor + 1e-9, "round {i}: post-sync {s} > floor {floor}");
        }
    }

    #[test]
    fn envelope_grows_with_period_and_rho() {
        let short = run_drift(&DriftParams { period: 10.0, ..base() }, 5, 1).envelope;
        let long = run_drift(&DriftParams { period: 1000.0, ..base() }, 5, 1).envelope;
        assert!(long > short);
        let calm = run_drift(&DriftParams { rho: 0.0001, ..base() }, 5, 1).envelope;
        let wild = run_drift(&DriftParams { rho: 0.01, ..base() }, 5, 1).envelope;
        assert!(wild > calm);
    }

    #[test]
    fn zero_drift_converges_to_the_ll_floor() {
        let params = DriftParams { rho: 0.0, ..base() };
        let run = run_drift(&params, 10, 5);
        let floor = (params.hi - params.lo) * (1.0 - 1.0 / params.n as f64);
        for s in run.post_sync_skews.iter().skip(2) {
            assert!(*s <= floor + 1e-9, "skew {s} above LL floor {floor}");
        }
    }

    #[test]
    fn drifting_clock_reads_linearly() {
        let c = DriftingClock { offset: 5.0, rate: 1.01 };
        assert!((c.read(100.0) - 106.0).abs() < 1e-9);
    }
}
