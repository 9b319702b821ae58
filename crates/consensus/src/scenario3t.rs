//! The `n ≤ 3t` refuter — Figure 1 applied to concrete candidates.
//!
//! "Suppose that p, q, and r comprise a 3-process solution that can tolerate
//! 1 fault. Consider a system composed of two copies each of p, q and r
//! joined into a ring..." — [`refute_3t`] performs exactly that composition
//! for **any** [`RoundProtocol`] and returns the violated obligation with
//! the ring's decisions, a [`ScenarioContradiction`]. The headline test
//! feeds the genuine EIG algorithm, instantiated at `n = 3, t = 1`, to its
//! own impossibility proof.

use impossible_core::scenario::{
    RoundProtocol, ScenarioContradiction, ScenarioRing, ScenarioVerdict,
};

/// Run the Fischer–Lynch–Merritt composition against `candidate` (claiming
/// to tolerate `t` Byzantine faults with its `n ≤ 3t` processes).
///
/// Returns the contradiction, or `None` in the impossible case that every
/// obligation held (meaning the candidate is not a protocol for the claimed
/// task at all, or `n > 3t` and the claim is actually true).
pub fn refute_3t<P: RoundProtocol>(candidate: &P, t: usize) -> Option<ScenarioContradiction> {
    match ScenarioRing::classic(candidate, t).check() {
        ScenarioVerdict::Contradiction(c) => Some(c),
        ScenarioVerdict::ObligationsHold => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::Eig;
    use impossible_core::scenario::Obligation;

    /// `c.obligation` evaluated over the ring's inputs and decisions alone:
    /// true when the run breaks it.
    fn broken(c: &ScenarioContradiction) -> bool {
        let decided = |w: &[usize]| w.iter().map(|&i| c.decisions[i]).collect::<Vec<_>>();
        match &c.obligation {
            Obligation::Termination { window } => decided(window).contains(&None),
            Obligation::Validity { window, value } => {
                window.iter().all(|&i| c.nodes[i].input == *value)
                    && decided(window).iter().any(|&d| d != Some(*value))
            }
            Obligation::Agreement { window } => decided(window).windows(2).any(|p| p[0] != p[1]),
        }
    }

    #[test]
    fn eig_at_n3_t1_is_refuted_by_its_own_proof() {
        // The genuine PSL algorithm, instantiated below the 3t+1 threshold,
        // composed into the hexagon: copy 1's input-1 window decides 0.
        let c = refute_3t(&Eig::new(3, 1), 1).expect("n = 3t must contradict");
        assert_eq!(
            c.obligation,
            Obligation::Validity {
                window: vec![3, 4],
                value: 1
            }
        );
        assert!(broken(&c));
    }

    #[test]
    fn eig_at_n6_t2_is_refuted() {
        let c = refute_3t(&Eig::new(6, 2), 2).expect("n = 3t must contradict");
        assert_eq!(
            c.obligation,
            Obligation::Validity {
                window: vec![0, 1, 2, 3],
                value: 0
            }
        );
        assert_eq!(c.decisions.len(), 12);
        assert!(broken(&c));
    }
}
