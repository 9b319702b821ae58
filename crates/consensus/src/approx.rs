//! Synchronous approximate agreement with Byzantine faults \[36\].
//!
//! Processes hold real values and must converge: after `k` rounds the ratio
//! (range of honest outputs) / (range of honest inputs) should be small.
//! Dolev–Lynch–Pinter–Stark–Weihl proved no k-round algorithm beats
//! `(t/(n·k))^k`, while the simple round-by-round trimmed-averaging
//! algorithm achieves ≈ `(t/n)^k` — the gap Fekete's counterexample
//! algorithms \[50, 51\] later narrowed by exploiting fault detection.
//!
//! [`run_approx`] runs trimmed averaging against a two-faced Byzantine
//! adversary and reports the measured ratio next to both curves.

use impossible_core::pigeonhole::bounds;
use impossible_det::DetRng;

/// Result of an approximate-agreement run.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxRun {
    /// Honest values after each round (row per round, including round 0).
    trajectory: Vec<Vec<f64>>,
    /// (range after k rounds) / (range at start).
    pub ratio: f64,
    /// The round-by-round achievable curve `(t/n)^k`.
    pub round_by_round_curve: f64,
    /// The universal lower-bound curve `(t/(n·k))^k`.
    pub lower_bound_curve: f64,
}

fn range(values: &[f64]) -> f64 {
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}

/// Trimmed-mean approximate agreement: each round every process collects all
/// values (its own plus `n−1` received, with `t` of the senders Byzantine),
/// discards the `t` lowest and `t` highest, and averages the rest.
///
/// The Byzantine processes are two-faced: to each destination they send an
/// independent extreme value (alternating far-low / far-high, seeded).
///
/// # Panics
///
/// Panics unless `n > 3t` and `k ≥ 1`.
pub fn run_approx(honest_inputs: &[f64], t: usize, k: u32, seed: u64) -> ApproxRun {
    let h = honest_inputs.len();
    let n = h + t;
    assert!(n > 3 * t, "approximate agreement needs n > 3t");
    assert!(k >= 1);
    let mut rng = DetRng::seed_from_u64(seed);

    let initial_range = range(honest_inputs).max(f64::MIN_POSITIVE);
    let mut values: Vec<f64> = honest_inputs.to_vec();
    let mut trajectory = vec![values.clone()];

    for _round in 0..k {
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let spread = (hi - lo).max(1.0);
        let mut next = Vec::with_capacity(h);
        for i in 0..h {
            // Collect everyone's value as seen by process i.
            let mut seen: Vec<f64> = values.clone();
            for byz in 0..t {
                // Two-faced: pull even-indexed destinations low and odd
                // ones high (the classic split that maximizes divergence),
                // with a jittered magnitude.
                let magnitude = spread * rng.gen_range(1.0..10.0);
                let fake = if (i + byz) % 2 == 0 {
                    lo - magnitude
                } else {
                    hi + magnitude
                };
                seen.push(fake);
            }
            seen.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let trimmed = &seen[t..seen.len() - t];
            next.push(trimmed.iter().sum::<f64>() / trimmed.len() as f64);
        }
        values = next;
        trajectory.push(values.clone());
    }

    let ratio = range(&values) / initial_range;
    ApproxRun {
        trajectory,
        ratio,
        round_by_round_curve: bounds::approx_agreement_round_by_round(t as f64, n as f64, k),
        lower_bound_curve: bounds::approx_agreement_lower(t as f64, n as f64, k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_monotonically() {
        let run = run_approx(&[0.0, 10.0, 4.0, 7.0], 1, 5, 3);
        let ranges: Vec<f64> = run.trajectory.iter().map(|vs| range(vs)).collect();
        for w in ranges.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "range grew: {ranges:?}");
        }
        assert!(run.ratio < 1.0);
    }

    #[test]
    fn validity_honest_values_stay_in_initial_range() {
        // Trimming t extremes with n > 3t keeps honest values inside the
        // honest envelope despite Byzantine extremes.
        let inputs = [1.0, 2.0, 8.0, 9.0, 5.0, 3.0];
        let run = run_approx(&inputs, 2, 4, 11);
        let (lo, hi) = (1.0 - 1e-9, 9.0 + 1e-9);
        for row in &run.trajectory {
            for v in row {
                assert!(*v >= lo && *v <= hi, "escaped: {v}");
            }
        }
    }

    #[test]
    fn convergence_is_geometric_in_rounds() {
        let r2 = run_approx(&[0.0, 10.0, 4.0, 7.0], 1, 2, 5).ratio;
        let r6 = run_approx(&[0.0, 10.0, 4.0, 7.0], 1, 6, 5).ratio;
        assert!(r2 > 0.0, "two-faced split must keep honest values apart");
        assert!(r6 < r2 * 0.5, "r2={r2} r6={r6}");
    }

    #[test]
    fn split_adversary_slows_convergence_but_never_stops_it() {
        // Per-round contraction exists: each extra round shrinks the ratio.
        let ratios: Vec<f64> = (1..=5)
            .map(|k| run_approx(&[0.0, 10.0, 3.0, 6.0, 8.0], 1, k, 7).ratio)
            .collect();
        for w in ratios.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "{ratios:?}");
        }
        assert!(ratios[4] > 0.0);
    }

    #[test]
    fn curves_are_ordered() {
        let run = run_approx(&[0.0, 1.0, 2.0, 3.0], 1, 3, 1);
        assert!(run.lower_bound_curve < run.round_by_round_curve);
    }

    #[test]
    #[should_panic(expected = "n > 3t")]
    fn rejects_too_many_faults() {
        let _ = run_approx(&[0.0, 1.0], 1, 1, 0);
    }
}
