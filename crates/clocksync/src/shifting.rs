//! The executable shifting lower bound.
//!
//! The Lundelius–Lynch lower-bound construction is a *chain of n
//! indistinguishable worlds*: order the processes and set every "forward"
//! delay (`i → j` with `i < j`) to the maximum and every "backward" delay to
//! the minimum. Then for each `k`, shifting the timelines of processes
//! `0..k` by the full uncertainty `u` keeps all delays inside the band —
//! producing worlds `E_0, ..., E_{n−1}` with **identical observations**
//! everywhere (verified mechanically here) whose true offsets differ.
//! Any algorithm outputs the same adjustments in all of them, and a
//! telescoping argument forces skew at least `u·(1 − 1/n)` in the worst
//! world. For the averaging algorithm the demonstration is *exactly* tight.

use crate::model::{exchange, skew, ClockParams, DelayMatrix, Observations};
use impossible_msgpass::stretch::Diagram;

/// The chain of indistinguishable worlds and the measured skews.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerBoundDemo {
    /// Skew of the (single, forced) output in each world `E_k`.
    skews: Vec<f64>,
    /// The theoretical tight bound `u·(1 − 1/n)`.
    pub bound: f64,
    /// True iff all worlds produced identical observations and every
    /// adjacent pair validated through the generic shifting engine.
    pub indistinguishable: bool,
    /// The shift magnitude between adjacent worlds (the uncertainty `u`).
    pub shift: f64,
}

impl LowerBoundDemo {
    /// The lower bound actually demonstrated: the worst world's skew.
    pub fn demonstrated_skew(&self) -> f64 {
        self.skews.iter().cloned().fold(0.0, f64::max)
    }
}

/// The chain's base delay matrix: forward (`i < j`) at `hi`, backward at
/// `lo` — the unique pattern that leaves headroom for every prefix shift.
fn chain_delays(params: &ClockParams) -> DelayMatrix {
    let n = params.n();
    let mut d = vec![vec![0.0; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        for (j, delay) in row.iter_mut().enumerate() {
            *delay = if i < j { params.hi } else { params.lo };
        }
    }
    d
}

/// World `E_k`: processes `0..k` shifted by `+u` (their offsets drop by
/// `u`), with delays adjusted accordingly.
fn world(params: &ClockParams, k: usize) -> (ClockParams, DelayMatrix) {
    let n = params.n();
    let u = params.uncertainty();
    let mut p = params.clone();
    for j in 0..k {
        p.offsets[j] -= u;
    }
    let base = chain_delays(params);
    let mut d = base.clone();
    for i in 0..n {
        for j in 0..n {
            // delay' = delay + S_j − S_i where S_x = u for x < k.
            let s_i = if i < k { u } else { 0.0 };
            let s_j = if j < k { u } else { 0.0 };
            d[i][j] = base[i][j] + s_j - s_i;
        }
    }
    (p, d)
}

/// Run an observation-driven algorithm across the whole chain.
///
/// `algorithm` maps each process's observations to its adjustment; it sees
/// nothing else — which is exactly why it cannot tell the worlds apart.
pub fn demonstrate_lower_bound<F>(params: &ClockParams, algorithm: F) -> LowerBoundDemo
where
    F: Fn(&ClockParams, &[Observations]) -> Vec<f64>,
{
    let n = params.n();
    let u = params.uncertainty();

    let mut all_obs: Vec<Vec<Observations>> = Vec::new();
    let mut diagrams: Vec<Diagram> = Vec::new();
    let mut worlds: Vec<ClockParams> = Vec::new();
    for k in 0..n {
        let (p, d) = world(params, k);
        let (obs, diagram) = exchange(&p, &d);
        all_obs.push(obs);
        diagrams.push(diagram);
        worlds.push(p);
    }

    // Mechanical indistinguishability: identical observations everywhere,
    // and each adjacent pair is a valid single-process... prefix shift.
    let mut indistinguishable = all_obs.iter().all(|o| obs_eq(o, &all_obs[0]));
    for k in 0..n {
        let mut shifts = vec![0.0; n];
        for (j, s) in shifts.iter_mut().enumerate() {
            if j < k {
                *s = u;
            }
        }
        match diagrams[0].shift(&shifts) {
            Ok(shifted) => {
                if shifted.views() != diagrams[k].views() {
                    indistinguishable = false;
                }
            }
            Err(_) => indistinguishable = false,
        }
    }

    // The forced single output.
    let adj = algorithm(params, &all_obs[0]);
    let skews = worlds.iter().map(|w| skew(w, &adj)).collect();

    LowerBoundDemo {
        skews,
        bound: u * (1.0 - 1.0 / n as f64),
        indistinguishable,
        shift: u,
    }
}

fn obs_eq(a: &[Observations], b: &[Observations]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(x, y)| {
        x.len() == y.len()
            && x.iter().zip(y).all(|((s1, t1, r1), (s2, t2, r2))| {
                s1 == s2 && (t1 - t2).abs() < 1e-9 && (r1 - r2).abs() < 1e-9
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::averaging_adjustments;

    fn base_params(n: usize) -> ClockParams {
        ClockParams {
            offsets: vec![0.0; n],
            lo: 1.0,
            hi: 3.0, // uncertainty u = 2
        }
    }

    #[test]
    fn worlds_are_mechanically_indistinguishable() {
        let demo = demonstrate_lower_bound(&base_params(3), averaging_adjustments);
        assert!(demo.indistinguishable);
        assert!((demo.shift - 2.0).abs() < 1e-12);
        assert_eq!(demo.skews.len(), 3);
    }

    #[test]
    fn averaging_algorithm_hits_the_tight_bound() {
        // Lundelius–Lynch is tight: the chain forces exactly u·(1 − 1/n)
        // on the averaging algorithm, which also never exceeds it.
        for n in [2usize, 3, 4, 6] {
            let demo = demonstrate_lower_bound(&base_params(n), averaging_adjustments);
            assert!(demo.indistinguishable, "n={n}");
            assert!(
                demo.demonstrated_skew() >= demo.bound - 1e-9,
                "n={n}: demonstrated {} < bound {}",
                demo.demonstrated_skew(),
                demo.bound
            );
            for s in &demo.skews {
                assert!(*s <= demo.bound + 1e-9, "n={n}: upper bound violated");
            }
        }
    }

    #[test]
    fn any_other_algorithm_also_loses_one_world() {
        // "Do nothing": adjustments all zero. The chain still forces skew
        // ≥ bound in some world — the argument quantifies over algorithms.
        let do_nothing =
            |params: &ClockParams, obs: &[Observations]| vec![0.0; obs.len().max(params.n())];
        let demo = demonstrate_lower_bound(&base_params(3), do_nothing);
        assert!(demo.indistinguishable);
        assert!(demo.demonstrated_skew() >= demo.bound - 1e-9);
    }

    #[test]
    fn a_biased_algorithm_is_no_better() {
        // Estimate using the *minimum* delay instead of the midpoint.
        let biased = |params: &ClockParams, obs: &[Observations]| {
            let n = obs.len();
            obs.iter()
                .map(|o| {
                    let sum: f64 = o
                        .iter()
                        .map(|(_, stamp, recv)| stamp + params.lo - recv)
                        .sum();
                    sum / n as f64
                })
                .collect()
        };
        let demo = demonstrate_lower_bound(&base_params(4), biased);
        assert!(demo.demonstrated_skew() >= demo.bound - 1e-9);
    }

    #[test]
    fn bound_scales_as_one_minus_one_over_n() {
        let d2 = demonstrate_lower_bound(&base_params(2), averaging_adjustments);
        let d8 = demonstrate_lower_bound(&base_params(8), averaging_adjustments);
        assert!((d2.bound - 1.0).abs() < 1e-12); // 2 · (1 − 1/2)
        assert!((d8.bound - 1.75).abs() < 1e-12); // 2 · (1 − 1/8)
        assert!(d8.demonstrated_skew() > d2.demonstrated_skew());
    }
}
