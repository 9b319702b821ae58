//! Hardware clocks, the clock-exchange round, and midpoint averaging.
//!
//! Hardware clock of process `i`: `H_i(t) = t + offset_i` (unit rates — the
//! Lundelius–Lynch bound isolates the *delay uncertainty*, not drift). Every
//! process sends one timestamped message to every other; the receiver
//! estimates the sender's clock by adding the midpoint delay; the adjusted
//! clock is the hardware clock plus the average of the estimated differences
//! (self included as zero). Achieved skew is provably ≤ `u·(1 − 1/n)`.

use impossible_msgpass::stretch::Diagram;
use impossible_det::DetRng;

/// Parameters of a synchronization instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockParams {
    /// Hardware clock offsets (the unknowns the algorithm fights).
    pub offsets: Vec<f64>,
    /// Minimum message delay.
    pub lo: f64,
    /// Maximum message delay.
    pub hi: f64,
}

impl ClockParams {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.offsets.len()
    }

    /// The delay uncertainty `u = hi − lo`.
    pub fn uncertainty(&self) -> f64 {
        self.hi - self.lo
    }

    /// Random offsets in `[-spread, spread]` with delays `[lo, hi]`.
    pub fn random(n: usize, lo: f64, hi: f64, spread: f64, seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        ClockParams {
            offsets: (0..n).map(|_| rng.gen_range(-spread..=spread)).collect(),
            lo,
            hi,
        }
    }
}

/// What one process observes during the exchange: `(sender, timestamp in
/// the message, own clock value at receipt)` triples. This is the *entire*
/// knowledge an algorithm may use — the shifting argument works because
/// observations are invariant under timeline shifts.
pub type Observations = Vec<(usize, f64, f64)>;

/// Result of one synchronization round.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncOutcome {
    /// Per-process adjustments chosen by the algorithm.
    pub adjustments: Vec<f64>,
    /// Worst pairwise adjusted-clock skew `max |A_i − A_j|`.
    pub skew: f64,
    /// The theoretical tight bound `u·(1 − 1/n)`.
    pub bound: f64,
    /// The execution diagram (for the shifting engine).
    pub diagram: Diagram,
    /// Raw observations (for indistinguishability checks).
    observations: Vec<Observations>,
}

/// Per-message delays: `delays[i][j]` is the delay of the message `i → j`.
pub type DelayMatrix = Vec<Vec<f64>>;

/// Uniform-random delay matrix within the band.
pub fn random_delays(params: &ClockParams, seed: u64) -> DelayMatrix {
    let n = params.n();
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (0..n)
                .map(|_| {
                    if (params.hi - params.lo).abs() < f64::EPSILON {
                        params.lo
                    } else {
                        rng.gen_range(params.lo..=params.hi)
                    }
                })
                .collect()
        })
        .collect()
}

/// All delays at the midpoint of the band.
pub fn midpoint_delays(params: &ClockParams) -> DelayMatrix {
    let mid = (params.lo + params.hi) / 2.0;
    vec![vec![mid; params.n()]; params.n()]
}

/// Execute the exchange: every process sends its clock reading `0` (i.e. at
/// the moment its hardware clock shows zero) to every other; compute each
/// process's observations and the timing diagram.
pub fn exchange(params: &ClockParams, delays: &DelayMatrix) -> (Vec<Observations>, Diagram) {
    let n = params.n();
    let mut obs: Vec<Observations> = vec![Vec::new(); n];
    let mut diagram = Diagram::new(n, params.lo, params.hi);
    for (i, row) in delays.iter().enumerate().take(n) {
        // Sender i transmits when H_i = 0, i.e. at real time -offset_i.
        let t_send = -params.offsets[i];
        for j in 0..n {
            if i == j {
                continue;
            }
            let t_recv = t_send + row[j];
            let local_recv = t_recv + params.offsets[j];
            obs[j].push((i, 0.0, local_recv));
            diagram.record(i, j, t_send, t_recv);
        }
    }
    for o in &mut obs {
        o.sort_by_key(|a| a.0);
    }
    (obs, diagram)
}

/// The Lundelius–Lynch style averaging rule: estimate each peer's clock
/// difference via the midpoint delay, adjust by the mean estimate.
pub fn averaging_adjustments(params: &ClockParams, obs: &[Observations]) -> Vec<f64> {
    let n = obs.len();
    let mid = (params.lo + params.hi) / 2.0;
    obs.iter()
        .map(|o| {
            // Estimated (H_sender − H_me) for each sender; self contributes 0.
            let sum: f64 = o
                .iter()
                .map(|(_, stamp, local_recv)| stamp + mid - local_recv)
                .sum();
            sum / n as f64
        })
        .collect()
}

/// Worst pairwise skew of the adjusted clocks `A_i = H_i + adj_i`.
pub fn skew(params: &ClockParams, adjustments: &[f64]) -> f64 {
    let adjusted: Vec<f64> = params
        .offsets
        .iter()
        .zip(adjustments)
        .map(|(o, a)| o + a)
        .collect();
    let mut worst: f64 = 0.0;
    for i in 0..adjusted.len() {
        for j in 0..adjusted.len() {
            worst = worst.max((adjusted[i] - adjusted[j]).abs());
        }
    }
    worst
}

/// Run the full round: exchange, average, measure.
pub fn run_exchange(params: &ClockParams, delays: &DelayMatrix) -> SyncOutcome {
    let (observations, diagram) = exchange(params, delays);
    let adjustments = averaging_adjustments(params, &observations);
    let s = skew(params, &adjustments);
    let n = params.n() as f64;
    SyncOutcome {
        skew: s,
        bound: params.uncertainty() * (1.0 - 1.0 / n),
        adjustments,
        diagram,
        observations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_uncertainty_synchronizes_perfectly() {
        let params = ClockParams {
            offsets: vec![3.0, -1.0, 7.5],
            lo: 1.0,
            hi: 1.0,
        };
        let out = run_exchange(&params, &midpoint_delays(&params));
        assert!(out.skew < 1e-9, "skew {}", out.skew);
        assert_eq!(out.bound, 0.0);
    }

    #[test]
    fn skew_never_exceeds_the_lundelius_lynch_bound() {
        // The upper-bound half of the theorem, across many random worlds.
        for seed in 0..40 {
            let params = ClockParams::random(4, 1.0, 3.0, 10.0, seed);
            let delays = random_delays(&params, seed * 7 + 1);
            let out = run_exchange(&params, &delays);
            assert!(
                out.skew <= out.bound + 1e-9,
                "seed {seed}: skew {} > bound {}",
                out.skew,
                out.bound
            );
        }
    }

    #[test]
    fn midpoint_delays_give_exact_synchronization() {
        // With all delays at the midpoint, every estimate is exact.
        let params = ClockParams::random(5, 0.5, 2.5, 100.0, 3);
        let out = run_exchange(&params, &midpoint_delays(&params));
        assert!(out.skew < 1e-9);
    }

    #[test]
    fn diagram_is_admissible_and_views_match_observations() {
        let params = ClockParams::random(3, 1.0, 2.0, 5.0, 9);
        let delays = random_delays(&params, 11);
        let (obs, diagram) = exchange(&params, &delays);
        assert!(diagram.is_admissible());
        assert_eq!(obs.len(), 3);
        // Each process hears from every other exactly once.
        for o in &obs {
            assert_eq!(o.len(), 2);
        }
    }

    #[test]
    fn bound_curve_improves_with_n() {
        let b = |n: usize| {
            let params = ClockParams {
                offsets: vec![0.0; n],
                lo: 0.0,
                hi: 1.0,
            };
            run_exchange(&params, &midpoint_delays(&params)).bound
        };
        assert!(b(2) < b(3));
        assert!(b(3) < b(10));
        assert!((b(2) - 0.5).abs() < 1e-12);
    }
}
