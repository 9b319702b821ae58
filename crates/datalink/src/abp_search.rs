//! Exhaustive model-checking of the alternating-bit protocol.
//!
//! [`crate::abp`] runs ABP against *scripted* adversaries; this module
//! compiles a bounded instance — `m` messages, lossy FIFO channels of
//! capacity `cap` — into a [`System`] and lets the search engine play
//! **every** loss/duplication/delivery schedule. Two facts fall out
//! mechanically, the two sides of the §2.5 story:
//!
//! * with the one-bit header, no schedule ever makes the receiver accept a
//!   duplicate or skip a message ([`find_overdelivery`] returns `None`);
//! * strip the header ([`AbpSearchSystem::headerless`]) and the checker
//!   exhibits a concrete loss schedule that turns a retransmission into a
//!   duplicate delivery — the reason *some* header is necessary before the
//!   \[78\] bound says a *bounded* one is still not enough.

use impossible_core::cert::verified_bad_state;
use impossible_core::exec::Execution;
use impossible_core::system::System;
use impossible_explore::Search;

/// Global configuration of the bounded ABP instance.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AbpState {
    /// Sender's current header bit.
    sbit: u8,
    /// Messages fully acknowledged so far.
    acked: u8,
    /// Receiver's expected bit.
    rbit: u8,
    /// Messages the receiver has delivered to its client.
    pub delivered: u8,
    /// In-flight data packets (header bits), FIFO order.
    data: Vec<u8>,
    /// In-flight acknowledgements (header bits), FIFO order.
    pub acks: Vec<u8>,
}

impossible_explore::impl_encode_struct!(AbpState { sbit, acked, rbit, delivered, data, acks });

/// Scheduler/adversary choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbpAction {
    /// Sender (re)transmits its current packet.
    Send,
    /// Channel delivers the head data packet to the receiver.
    DeliverData,
    /// Channel delivers the head acknowledgement to the sender.
    DeliverAck,
    /// Channel loses the head data packet.
    DropData,
    /// Channel loses the head acknowledgement.
    DropAck,
}

/// A bounded ABP instance under a lossy FIFO channel adversary.
#[derive(Debug, Clone, Copy)]
pub struct AbpSearchSystem {
    /// Number of messages the sender must deliver.
    pub messages: u8,
    /// Capacity of each channel direction (bounds the state space).
    pub cap: usize,
    /// Model the *broken* headerless protocol: the receiver accepts every
    /// packet and the sender trusts every ack.
    headerless: bool,
}

impl AbpSearchSystem {
    /// The standard one-bit-header instance.
    pub fn new(messages: u8, cap: usize) -> Self {
        AbpSearchSystem {
            messages,
            cap,
            headerless: false,
        }
    }

    /// The headerless straw man the checker refutes.
    // LINT-ALLOW: dead-pub -- data link [78]: without a header bit loss forces a duplicate; test headerless_protocol_duplicates_under_loss
    pub fn headerless(messages: u8, cap: usize) -> Self {
        AbpSearchSystem {
            messages,
            cap,
            headerless: true,
        }
    }
}

impl System for AbpSearchSystem {
    type State = AbpState;
    type Action = AbpAction;

    fn initial_states(&self) -> Vec<AbpState> {
        vec![AbpState {
            sbit: 0,
            acked: 0,
            rbit: 0,
            delivered: 0,
            data: Vec::new(),
            acks: Vec::new(),
        }]
    }

    fn enabled(&self, s: &AbpState) -> Vec<AbpAction> {
        let mut acts = Vec::new();
        if s.acked < self.messages && s.data.len() < self.cap {
            acts.push(AbpAction::Send);
        }
        if !s.data.is_empty() {
            acts.push(AbpAction::DeliverData);
            acts.push(AbpAction::DropData);
        }
        if !s.acks.is_empty() {
            acts.push(AbpAction::DeliverAck);
            acts.push(AbpAction::DropAck);
        }
        acts
    }

    fn step(&self, s: &AbpState, a: &AbpAction) -> AbpState {
        let mut t = s.clone();
        match a {
            AbpAction::Send => t.data.push(t.sbit),
            AbpAction::DeliverData => {
                let bit = t.data.remove(0);
                if t.acks.len() < self.cap {
                    if self.headerless || bit == t.rbit {
                        t.delivered = t.delivered.saturating_add(1);
                        t.rbit ^= 1;
                        t.acks.push(bit);
                    } else {
                        t.acks.push(bit); // re-ack a duplicate
                    }
                }
            }
            AbpAction::DeliverAck => {
                let bit = t.acks.remove(0);
                if (self.headerless || bit == t.sbit) && t.acked < self.messages {
                    t.acked += 1;
                    t.sbit ^= 1;
                }
            }
            AbpAction::DropData => {
                t.data.remove(0);
            }
            AbpAction::DropAck => {
                t.acks.remove(0);
            }
        }
        t
    }
}

/// Search for an *over-delivery*: the receiver handing its client more
/// messages than the sender has even finished sending — the duplicate the
/// alternating bit exists to prevent. `None` means exactly-once delivery
/// holds on the whole bounded space. A witness is re-checked by
/// `verified_bad_state` against the over-delivery before it is returned (a
/// rejection panics, naming the clause).
// LINT-ALLOW: dead-pub -- data link [78]: one header bit gives exactly-once delivery, none duplicates; tests one_bit_header_gives_exactly_once_delivery, headerless_protocol_duplicates_under_loss
pub fn find_overdelivery(
    sys: &AbpSearchSystem,
    max_states: usize,
) -> Option<Execution<AbpState, AbpAction>> {
    let over = |s: &AbpState| s.delivered > s.acked + 1 || s.delivered > sys.messages;
    let report = Search::new(sys).max_states(max_states).search(over);
    Some(verified_bad_state(sys, &over, report.witness?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_bit_header_gives_exactly_once_delivery() {
        let sys = AbpSearchSystem::new(2, 2);
        assert!(find_overdelivery(&sys, 200_000).is_none());
    }

    #[test]
    fn headerless_protocol_duplicates_under_loss() {
        let sys = AbpSearchSystem::headerless(2, 2);
        let w = find_overdelivery(&sys, 200_000).expect("loss must duplicate");
        // The shortest refutation really replays: send, send (retransmit),
        // deliver both — the receiver cannot tell them apart.
        assert!(w.len() >= 3);
    }

    #[test]
    fn a_witness_with_a_step_swapped_is_rejected() {
        // The engine's witness passes `verify` against the claim restated
        // here. Its first step is a send, which no drop can replace: with
        // nothing in flight, dropping is not enabled, so `verify` names the
        // step (`StemStep(0)`).
        use impossible_core::cert::{verify, Counterexample, Goal, Spec, WitnessError};
        let sys = AbpSearchSystem::headerless(2, 2);
        let w = find_overdelivery(&sys, 200_000).expect("loss must duplicate");
        let over = |s: &AbpState| s.delivered > s.acked + 1 || s.delivered > sys.messages;
        let spec = Spec::new(Goal::Never(&over));
        assert_eq!(verify(&sys, &spec, &Counterexample::BadState(w.clone())), Ok(()));
        let mut actions = w.actions().to_vec();
        actions[0] = AbpAction::DropData;
        let swapped = Execution::from_parts(w.states().to_vec(), actions);
        let rejected = verify(&sys, &spec, &Counterexample::BadState(swapped));
        assert_eq!(rejected, Err(WitnessError::StemStep(0)));
    }

    #[test]
    fn completed_runs_are_terminal_and_clean() {
        let sys = AbpSearchSystem::new(1, 1);
        let r = Search::new(&sys).explore();
        assert!(!r.truncated());
        for t in &r.terminal_states {
            assert_eq!(t.acked, 1); // only full success stalls the schedule
            assert!(t.data.is_empty() && t.acks.is_empty());
        }
    }
}
