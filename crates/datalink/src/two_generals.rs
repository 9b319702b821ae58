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
//! [`refute`] runs the chain for any rule and produces the certificate.

use impossible_core::cert::{Certificate, Technique};
use impossible_core::chain::Chain;
use impossible_core::ids::ProcessId;

/// A deterministic attack rule: general `me` (0 or 1) decides from the
/// number of messages it received (out of a possible `r` each way).
pub trait AttackRule {
    /// Does this general attack?
    fn attacks(&self, me: usize, received: usize) -> bool;
    /// Display name.
    fn name(&self) -> &'static str;
}

/// "Attack if I heard at least `threshold` messages."
#[derive(Debug, Clone)]
pub struct Threshold(pub usize);

impl AttackRule for Threshold {
    fn attacks(&self, _me: usize, received: usize) -> bool {
        received >= self.0
    }
    fn name(&self) -> &'static str {
        "threshold"
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

/// Refute `rule` as a solution to the coordinated-attack problem with `r`
/// round trips. Always produces a certificate: either a coordination
/// failure in some `e_k`, a liveness failure at `e_{2r}`, or the chain
/// transporting the attack to `e_0` (attacking on zero information).
pub fn refute<Rule: AttackRule>(rule: &Rule, r: usize) -> Certificate {
    let total = 2 * r;
    let claim = format!(
        "rule '{}' coordinates an attack over an unreliable channel ({r} round trips)",
        rule.name()
    );

    let execs: Vec<GeneralsExec> = (0..=total).rev().map(|k| execution(rule, k)).collect();

    // Liveness at full delivery.
    if !execs[0].attacks[0] || !execs[0].attacks[1] {
        return Certificate::new(
            Technique::Chain,
            claim,
            format!(
                "liveness fails: with all {total} messages delivered the generals \
                 still do not both attack ({:?})",
                execs[0].attacks
            ),
        );
    }
    // Coordination in every execution.
    for e in &execs {
        if e.attacks[0] != e.attacks[1] {
            return Certificate::new(
                Technique::Chain,
                claim,
                format!(
                    "coordination fails at e_{}: deliveries {:?} make general 0 \
                     decide {} and general 1 decide {} — one attacks alone",
                    e.k, e.received, e.attacks[0], e.attacks[1]
                ),
            );
        }
    }
    // All coordinated and e_total attacks: run the chain to e_0. Witness of
    // link (e_k, e_{k-1}): the general that did NOT receive trip k.
    let witnesses: Vec<ProcessId> = (1..=total)
        .rev()
        .map(|k| {
            // Trip k is received by general (k % 2 == 1) ? 1 : 0; the OTHER
            // general's view is unchanged.
            ProcessId(if k % 2 == 1 { 0 } else { 1 })
        })
        .collect();
    let chain = Chain::from_parts(execs, witnesses);
    let view = |e: &GeneralsExec, p: ProcessId| e.received[p.index()];
    let decision = |e: &GeneralsExec, p: ProcessId| Some(e.attacks[p.index()] as u64);
    let agree = |e: &GeneralsExec| {
        (e.attacks[0] == e.attacks[1]).then_some(e.attacks[0] as u64)
    };
    match chain.transport(view, decision, agree) {
        Ok(cert) => {
            debug_assert_eq!(cert.head_value, 1, "full delivery attacks");
            debug_assert_eq!(cert.tail_value, 1, "transported to e_0");
            Certificate::new(
                Technique::Chain,
                claim,
                format!(
                    "the chain e_{total} ~ ... ~ e_0 ({cert}) forces both generals to \
                     attack in e_0, where NO message was ever delivered — attacking on \
                     zero information, indistinguishable from the enemy-holds-the-pass \
                     world. No rule escapes: coordination + liveness ⇒ attack-on-nothing."
                ),
            )
        }
        Err(err) => Certificate::new(
            Technique::Chain,
            claim,
            format!("chain exposed an inconsistency: {err}"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_threshold_rule_is_refuted() {
        let r = 5;
        for theta in 0..=2 * r + 1 {
            let cert = refute(&Threshold(theta), r);
            assert_eq!(cert.technique, Technique::Chain, "θ={theta}");
            // θ = 0 attacks on nothing (caught by the chain reaching e_0
            // consistently — which IS the contradiction: the certificate
            // narrates it); large θ fails liveness; middle θ breaks
            // coordination.
            if theta > r {
                assert!(cert.witness.contains("liveness"), "θ={theta}: {}", cert.witness);
            }
        }
    }

    #[test]
    fn middle_thresholds_break_coordination() {
        let cert = refute(&Threshold(3), 5);
        assert!(
            cert.witness.contains("coordination") || cert.witness.contains("zero information"),
            "{}",
            cert.witness
        );
    }

    #[test]
    fn zero_threshold_attacks_on_nothing() {
        // θ=0 satisfies coordination and liveness — so the chain drags it
        // to the absurd endpoint.
        let cert = refute(&Threshold(0), 4);
        assert!(cert.witness.contains("zero information"), "{}", cert.witness);
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
            fn name(&self) -> &'static str {
                "only-general-zero"
            }
        }
        let cert = refute(&OnlyGeneralZero, 3);
        assert!(cert.witness.contains("coordination") || cert.witness.contains("liveness"));
    }
}
