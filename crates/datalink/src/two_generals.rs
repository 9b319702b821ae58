//! The Two Generals impossibility \[61\], as an executable chain argument.
//!
//! Two generals coordinate an attack through messengers who may be
//! captured. Model: the generals exchange up to `2r` alternating messages;
//! execution `e_k` is the one in which exactly the first `k` messenger
//! trips succeed. A *rule* decides, from how many messages a general
//! received, whether it attacks. The requirements:
//!
//! * **coordination** — in every execution, both attack or neither does;
//! * **liveness** — with full delivery, they attack;
//! * **safety** — a general that heard nothing never attacks alone... but
//!   coordination + the chain `e_{2r} ~ e_{2r−1} ~ ... ~ e_0` (each
//!   adjacent pair indistinguishable to the general who missed the last
//!   message) forces the attack decision all the way down to `e_0`.
//!
//! [`refute`] runs the chain for any rule and returns it with the
//! [`AttackHorn`] the rule falls on.

use impossible_core::chain::{Chain, ChainCertificate, ChainError};
use impossible_core::ids::ProcessId;

/// A deterministic attack rule: general `me` (0 or 1) decides from the
/// number of messages it received (out of a possible `r` each way).
pub trait AttackRule {
    /// Does this general attack?
    fn attacks(&self, me: usize, received: usize) -> bool;
}

/// "Attack if I heard at least `threshold` messages."
#[derive(Debug, Clone)]
pub struct Threshold(pub usize);

impl AttackRule for Threshold {
    fn attacks(&self, _me: usize, received: usize) -> bool {
        received >= self.0
    }
}

/// One execution: how many messages each general received when the first
/// `k` of `2r` alternating messenger trips succeed. General 0 sends trips
/// 1, 3, 5, ... (received by general 1); general 1 sends trips 2, 4, ....
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneralsExec {
    /// Successful messenger trips (a prefix of the schedule).
    pub k: usize,
    /// Messages received by general 0 and general 1.
    pub received: [usize; 2],
    /// Attack decisions under the rule being examined.
    attacks: [bool; 2],
}

/// Build execution `e_k` for a rule with `r` round trips.
pub fn execution<Rule: AttackRule>(rule: &Rule, k: usize) -> GeneralsExec {
    // Of the first k trips, general 1 receives ceil(k/2) (trips 1,3,...),
    // general 0 receives floor(k/2) (trips 2,4,...).
    let received = [k / 2, k.div_ceil(2)];
    GeneralsExec {
        k,
        received,
        attacks: [rule.attacks(0, received[0]), rule.attacks(1, received[1])],
    }
}

/// What general `p` observes of an execution: how many messages it got.
fn view(e: &GeneralsExec, p: ProcessId) -> usize {
    e.received[p.index()]
}

/// Which requirement an attack rule loses on the chain `e_{2r} ~ … ~ e_0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackHorn {
    /// Liveness: with every message delivered (`e_{2r}`, the chain's first
    /// execution), the generals do not both attack.
    Liveness,
    /// Coordination: in `e_k` one general attacks alone.
    Coordination(usize),
    /// Coordination and liveness hold, so the chain carries the attack all
    /// the way to `e_0`, where no message was ever delivered: attacking on
    /// zero information.
    AttackOnNothing(ChainCertificate),
    /// The chain failed to carry the attack — a rule whose decision is not
    /// a function of the general's received count.
    Broken(ChainError),
}

/// Refute `rule` as a solution to the coordinated-attack problem with `r`
/// round trips: the horn it falls on, and the chain of `e_{2r}, …, e_0`
/// that shows it. Every rule falls on one.
pub fn refute<Rule: AttackRule>(rule: &Rule, r: usize) -> (AttackHorn, Chain<GeneralsExec>) {
    let total = 2 * r;
    // Witness of link (e_k, e_{k-1}): the general that did NOT receive
    // trip k — general 1 receives the odd trips, so its view changes there.
    let chain = Chain::from_parts(
        (0..=total).rev().map(|k| execution(rule, k)).collect(),
        (1..=total).rev().map(|k| ProcessId(1 - k % 2)).collect(),
    );
    let execs = chain.executions();
    let horn = if execs[0].attacks != [true, true] {
        AttackHorn::Liveness
    } else if let Some(e) = execs.iter().find(|e| e.attacks[0] != e.attacks[1]) {
        AttackHorn::Coordination(e.k)
    } else {
        let decision = |e: &GeneralsExec, p: ProcessId| Some(e.attacks[p.index()] as u64);
        let agree =
            |e: &GeneralsExec| (e.attacks[0] == e.attacks[1]).then_some(e.attacks[0] as u64);
        match chain.transport(view, decision, agree) {
            Ok(cert) => AttackHorn::AttackOnNothing(cert),
            Err(err) => AttackHorn::Broken(err),
        }
    };
    (horn, chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use impossible_det::{det_assert, det_assert_eq, det_prop, prop};

    /// `horn` re-checked on the chain's executions alone, without the rule.
    fn rechecks(horn: &AttackHorn, chain: &Chain<GeneralsExec>) -> bool {
        let execs = chain.executions();
        let (full, none) = (&execs[0], &execs[execs.len() - 1]);
        match horn {
            AttackHorn::Liveness => full.k == chain.len() && full.attacks != [true, true],
            AttackHorn::Coordination(k) => execs
                .iter()
                .any(|e| e.k == *k && e.attacks[0] != e.attacks[1]),
            AttackHorn::AttackOnNothing(cert) => {
                none.received == [0, 0]
                    && none.attacks == [true, true]
                    && (cert.head_value, cert.tail_value, cert.links) == (1, 1, chain.len())
            }
            // The link's witness saw the same count on both sides of it yet
            // decided differently.
            AttackHorn::Broken(ChainError::Distinguishable { link, witness }) => {
                let (a, b) = (&execs[*link], &execs[link + 1]);
                view(a, *witness) == view(b, *witness)
                    && a.attacks[witness.index()] != b.attacks[witness.index()]
            }
            AttackHorn::Broken(_) => false,
        }
    }

    #[test]
    fn every_threshold_rule_is_refuted() {
        // θ = 0 attacks on nothing (the chain reaches e_0 consistently —
        // which IS the contradiction); θ past r fails liveness; the middle
        // θ break coordination.
        let r = 5;
        for theta in 0..=2 * r + 1 {
            let (horn, chain) = refute(&Threshold(theta), r);
            assert!(rechecks(&horn, &chain), "θ={theta}: {horn:?}");
            match theta {
                0 => assert!(matches!(horn, AttackHorn::AttackOnNothing(_)), "{horn:?}"),
                1..=5 => assert!(
                    matches!(horn, AttackHorn::Coordination(_)),
                    "θ={theta}: {horn:?}"
                ),
                _ => assert_eq!(horn, AttackHorn::Liveness, "θ={theta}"),
            }
        }
    }

    #[test]
    fn middle_thresholds_break_coordination() {
        // Threshold 3 of 5 trips each way: e_5 gives general 1 its third
        // message (trips 1, 3, 5) and general 0 only two.
        let (horn, chain) = refute(&Threshold(3), 5);
        assert_eq!(horn, AttackHorn::Coordination(5));
        assert!(rechecks(&horn, &chain));
    }

    #[test]
    fn zero_threshold_attacks_on_nothing() {
        // θ=0 satisfies coordination and liveness — so the chain drags it
        // to the absurd endpoint.
        let (horn, chain) = refute(&Threshold(0), 4);
        assert!(matches!(horn, AttackHorn::AttackOnNothing(_)), "{horn:?}");
        assert!(rechecks(&horn, &chain));
        assert_eq!(chain.verify(view), Ok(()));
    }

    #[test]
    fn executions_count_deliveries_correctly() {
        let e = execution(&Threshold(1), 5);
        assert_eq!(e.received, [2, 3]); // trips 1,3,5 to general 1; 2,4 to 0
        let e0 = execution(&Threshold(1), 0);
        assert_eq!(e0.received, [0, 0]);
    }

    #[test]
    fn asymmetric_rules_also_fall() {
        struct OnlyGeneralZero;
        impl AttackRule for OnlyGeneralZero {
            fn attacks(&self, me: usize, received: usize) -> bool {
                me == 0 && received > 0
            }
        }
        let (horn, chain) = refute(&OnlyGeneralZero, 3);
        assert_eq!(horn, AttackHorn::Liveness);
        assert!(rechecks(&horn, &chain));
    }

    #[test]
    fn a_rule_that_is_no_function_of_its_view_breaks_the_chain() {
        // Attacks on every call but the two that build the chain's
        // execution `quiet`: every execution is internally coordinated and
        // e_{2r} attacks, so only the transport catches the witness of the
        // link into `quiet` changing its decision on an unchanged count.
        struct Clocked {
            calls: std::cell::Cell<usize>,
            quiet: usize,
        }
        impl AttackRule for Clocked {
            fn attacks(&self, _me: usize, _received: usize) -> bool {
                self.calls.set(self.calls.get() + 1);
                (self.calls.get() + 1) / 2 != self.quiet + 1
            }
        }
        let rule = Clocked {
            calls: std::cell::Cell::new(0),
            quiet: 4,
        };
        let (horn, chain) = refute(&rule, 3);
        // Link 3 joins e_3 and e_2; general 0 did not receive trip 3.
        assert_eq!(
            horn,
            AttackHorn::Broken(ChainError::Distinguishable {
                link: 3,
                witness: ProcessId(0),
            })
        );
        assert!(rechecks(&horn, &chain));
        assert_eq!(chain.verify(view), Ok(()));
    }

    /// An arbitrary rule: `table[me * (r + 1) + received]`.
    struct Table(Vec<bool>);
    impl AttackRule for Table {
        fn attacks(&self, me: usize, received: usize) -> bool {
            self.0[me * self.0.len() / 2 + received]
        }
    }

    det_prop! {
        fn every_generated_rule_falls_on_a_horn_its_chain_shows(
            cases = 256,
            r in 1usize..=5,
            bits in prop::vec(0u8..2, 12..13)
        ) {
            let rule = Table(bits[..2 * (r + 1)].iter().map(|&b| b == 1).collect());
            let (horn, chain) = refute(&rule, r);
            det_assert!(!matches!(horn, AttackHorn::Broken(_)), "{horn:?}");
            det_assert!(rechecks(&horn, &chain), "{horn:?}");
            det_assert_eq!(chain.verify(view), Ok(()));
        }
    }
}
