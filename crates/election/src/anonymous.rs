//! Deterministic anonymous election — refuted by symmetry (Angluin \[7\]).
//!
//! "Anything that one process can do, the others symmetric to it might do
//! also." Any deterministic protocol in a ring of identical processes
//! keeps the configuration rotation-periodic forever, so leadership (a
//! state exactly one process is in) is unreachable. The engine is
//! [`impossible_core::symmetry::LockstepRing`]; this module supplies
//! concrete doomed candidates and runs them on the uniform ring.

use impossible_core::symmetry::{AnonymousRingProtocol, LockstepRing, SymmetryVerdict};

/// A natural doomed candidate: flood a "max" of hash-mixed neighbour
/// observations, claim leadership after `n` rounds of never being beaten.
/// Deterministic + anonymous ⇒ on a uniform ring everyone claims at once.
#[derive(Debug, Clone)]
pub struct HashChain;

/// State: (running digest, round, claims leadership).
pub type HashChainState = (u64, u32, bool);

impl AnonymousRingProtocol for HashChain {
    type State = HashChainState;
    type Msg = u64;

    fn init(&self, ring_size: usize, input: u64) -> HashChainState {
        // All the process can season its state with: the common ring size
        // and its (common) input label.
        (mix(ring_size as u64 ^ input), 0, false)
    }

    fn send(&self, state: &HashChainState) -> (Option<u64>, Option<u64>) {
        (Some(state.0), Some(mix(state.0)))
    }

    fn recv(
        &self,
        state: HashChainState,
        from_left: Option<u64>,
        from_right: Option<u64>,
    ) -> HashChainState {
        let l = from_left.unwrap_or(0);
        let r = from_right.unwrap_or(0);
        let digest = mix(state.0 ^ l.rotate_left(17) ^ r.rotate_left(31));
        let round = state.1 + 1;
        // "Surely by now my digest is unique": the doomed leap.
        let claims = round >= 8 && digest.is_multiple_of(4);
        (digest, round, state.2 || claims)
    }

    fn is_leader(&self, state: &HashChainState) -> bool {
        state.2
    }
}

fn mix(x: u64) -> u64 {
    // SplitMix64 finalizer: deterministic, identical at every process.
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Refute a deterministic anonymous candidate on the uniform ring of size
/// `n`: run it in lockstep for up to `rounds` rounds. The verdict
/// [`SymmetryVerdict::SymmetricForever`] is the refutation — symmetry never
/// breaks, so the protocol elects nobody or `leaders`, a multiple of `n`,
/// at once; [`SymmetryVerdict::SymmetryBroken`] means the candidate is not
/// deterministic and anonymous after all.
pub fn refute_deterministic<P: AnonymousRingProtocol>(
    protocol: &P,
    n: usize,
    rounds: usize,
) -> SymmetryVerdict {
    LockstepRing::new(protocol, vec![0; n]).run(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_chain_stays_symmetric_on_uniform_rings() {
        for n in [2usize, 3, 5, 8] {
            match refute_deterministic(&HashChain, n, 200) {
                SymmetryVerdict::SymmetricForever {
                    period, leaders, ..
                } => {
                    assert_eq!(period, 1, "n={n}");
                    assert!(leaders == 0 || leaders == n, "n={n}: {leaders} leaders");
                }
                v => panic!("n={n}: {v:?}"),
            }
        }
    }

    #[test]
    fn claims_are_all_or_none() {
        let verdict = refute_deterministic(&HashChain, 6, 100);
        let SymmetryVerdict::SymmetricForever { leaders, .. } = verdict else {
            panic!("{verdict:?}");
        };
        assert!(
            leaders == 0 || leaders == 6,
            "exactly-one is impossible; got {leaders}"
        );
    }

    #[test]
    fn hash_chain_does_eventually_claim() {
        // The candidate is not vacuous: it does claim leadership — just at
        // every position at once somewhere along the run.
        let found = (2..=16).any(|n| {
            matches!(
                refute_deterministic(&HashChain, n, 64),
                SymmetryVerdict::SymmetricForever { leaders, .. } if leaders > 0
            )
        });
        assert!(found, "candidate never claims anywhere — too timid to be interesting");
    }
}
