//! Sequence transmission with unbounded headers — the escape hatch from the
//! bounded-header impossibility, and its price.
//!
//! The survey's open question 5: "in the data link work of \[78\], how fast
//! must the number of packets grow with time?" (Wang–Zuck \[99\] pinned the
//! bound). This module shows the two halves we can execute:
//!
//! * [`UnboundedReceiver`] with exact sequence numbers survives the very
//!   steal-and-replay adversary that breaks every mod-K protocol
//!   ([`crate::stealing`]) — a stale packet's sequence number can never
//!   wrap back into acceptance;
//! * the price is *growth*: [`header_bits_after`] measures the header size
//!   as messages accumulate — headers grow without bound, ~log₂(m) bits
//!   after `m` messages, which is exactly the resource the impossibility
//!   says cannot stay finite.

/// Receiver with exact (unbounded) sequence numbers.
#[derive(Debug, Clone, Default)]
pub struct UnboundedReceiver {
    expected: u64,
    /// Delivered payloads, in order.
    pub delivered: Vec<u64>,
}

impl UnboundedReceiver {
    /// A fresh receiver.
    pub fn new() -> Self {
        UnboundedReceiver::default()
    }

    /// Handle packet `(seq, payload)`; returns the cumulative ack.
    pub fn on_packet(&mut self, seq: u64, payload: u64) -> u64 {
        if seq == self.expected {
            self.delivered.push(payload);
            self.expected += 1;
        }
        self.expected
    }
}

/// Run the steal-and-replay attack from [`crate::stealing`] against the
/// unbounded receiver: deliver `lead` genuine messages, then replay the
/// stolen copy of message 0. Returns `(delivered_before, delivered_after)`
/// — equal iff the attack failed.
pub fn steal_replay_attack(lead: u64) -> (usize, usize) {
    let mut r = UnboundedReceiver::new();
    let stolen = (0u64, 1000u64);
    for m in 0..lead {
        r.on_packet(m, 1000 + m);
    }
    let before = r.delivered.len();
    r.on_packet(stolen.0, stolen.1);
    (before, r.delivered.len())
}

/// Header size in bits after `messages` deliveries (the unbounded-growth
/// curve the open question is about).
pub fn header_bits_after(messages: u64) -> u32 {
    64 - messages.leading_zeros().min(63)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stealing::refute_bounded_header;

    #[test]
    fn unbounded_sequence_numbers_defeat_the_replay() {
        for lead in [2u64, 16, 1024] {
            let (before, after) = steal_replay_attack(lead);
            assert_eq!(before, after, "lead {lead}: replay must be rejected");
        }
    }

    #[test]
    fn the_same_attack_kills_every_bounded_modulus() {
        // The contrast, side by side: finite wraps, infinite doesn't.
        for k in [2u64, 16, 1024] {
            let (before, after) = refute_bounded_header(k);
            assert_eq!(
                after,
                [&before[..], &[1000]].concat(),
                "k={k}: message 0 twice"
            );
        }
        let (b, a) = steal_replay_attack(1024);
        assert_eq!(b, a);
    }

    #[test]
    fn headers_grow_logarithmically() {
        assert_eq!(header_bits_after(1), 1);
        assert_eq!(header_bits_after(2), 2);
        assert_eq!(header_bits_after(1024), 11);
        assert!(header_bits_after(1 << 40) > header_bits_after(1 << 20));
    }

    #[test]
    fn in_order_delivery_is_preserved() {
        let mut r = UnboundedReceiver::new();
        // Out-of-order arrivals: only the expected one advances.
        r.on_packet(1, 101);
        assert!(r.delivered.is_empty());
        r.on_packet(0, 100);
        r.on_packet(1, 101);
        r.on_packet(2, 102);
        assert_eq!(r.delivered, vec![100, 101, 102]);
    }

    #[test]
    fn cumulative_ack_reports_progress() {
        let mut r = UnboundedReceiver::new();
        assert_eq!(r.on_packet(0, 9), 1);
        assert_eq!(r.on_packet(5, 9), 1); // ignored
        assert_eq!(r.on_packet(1, 9), 2);
    }
}
