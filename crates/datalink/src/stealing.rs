//! The message-stealing refutation of bounded-header data-link protocols
//! (Lynch–Mansour–Fekete \[78\]).
//!
//! "The basic idea of the proofs is that the physical channel can *steal*
//! some packets while it accomplishes the delivery of messages ... then the
//! stolen packets can be used to fool the receiver process into thinking
//! another message is to be delivered."
//!
//! [`refute_bounded_header`] makes this concrete for the whole family of
//! stop-and-wait protocols with sequence numbers modulo `K` (ABP is
//! `K = 2`): the adversary steals a packet carrying sequence `s`, lets the
//! protocol make progress through `K` more messages (the sequence space
//! wraps), then replays the stale packet — which the receiver accepts as
//! fresh, corrupting the delivered stream. The construction works for
//! **every** `K`, which is the theorem: finite headers cannot survive a
//! channel that may withhold packets (without a best-case packet-count
//! bound, Attiya–Fischer–Wang–Zuck's counterexample algorithm escapes —
//! the open question the survey lists).

/// A stop-and-wait data-link protocol with sequence numbers mod `K`.
#[derive(Debug, Clone)]
pub struct ModKProtocol {
    /// The header modulus.
    pub k: u64,
}

/// Receiver of the mod-K protocol.
#[derive(Debug, Clone)]
pub struct ModKReceiver {
    k: u64,
    expected: u64,
    /// Delivered payloads, in order.
    pub delivered: Vec<u64>,
}

impl ModKReceiver {
    /// A fresh receiver.
    pub fn new(k: u64) -> Self {
        ModKReceiver {
            k,
            expected: 0,
            delivered: Vec::new(),
        }
    }

    /// Handle packet `(seq, payload)`; returns the ack (the seq).
    pub fn on_packet(&mut self, seq: u64, payload: u64) -> u64 {
        if seq == self.expected {
            self.delivered.push(payload);
            self.expected = (self.expected + 1) % self.k;
        }
        seq
    }
}

/// The steal-and-replay run: the adversary lets `K` messages through while
/// withholding one copy of the packet for message 0, then replays it.
///
/// Returns the receiver's delivered stream before and after the replay.
/// The refutation is that `after` is `before` with message 0's payload
/// delivered a second time, although the sender never sent a `(K+1)`-th
/// message — and it holds for every modulus: finitely many headers always
/// wrap.
pub fn refute_bounded_header(k: u64) -> (Vec<u64>, Vec<u64>) {
    assert!(k >= 1);
    let mut receiver = ModKReceiver::new(k);
    // Messages 0..K delivered normally, payload 1000 + m under sequence
    // number m mod K; the channel duplicates message 0's packet and
    // withholds ("steals") the copy.
    for m in 0..k {
        receiver.on_packet(m % k, 1000 + m);
    }
    // After K messages the receiver expects seq 0 again: replay the stolen
    // packet.
    let before = receiver.delivered.clone();
    receiver.on_packet(0, 1000);
    (before, receiver.delivered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abp_header_space_is_broken_by_stealing() {
        // ABP = mod 2: the classic failure under non-FIFO replay.
        let (before, after) = refute_bounded_header(2);
        assert_eq!(before, [1000, 1001]);
        assert_eq!(after, [1000, 1001, 1000], "message 0 delivered twice");
    }

    #[test]
    fn every_modulus_is_broken() {
        for k in 1..=16 {
            let (before, after) = refute_bounded_header(k);
            assert_eq!(before, (1000..1000 + k).collect::<Vec<_>>(), "k={k}");
            assert_eq!(after, [&before[..], &[1000]].concat(), "k={k}");
        }
    }

    #[test]
    fn receiver_behaves_correctly_without_the_adversary() {
        let mut r = ModKReceiver::new(4);
        for m in 0..8u64 {
            r.on_packet(m % 4, 100 + m);
        }
        assert_eq!(r.delivered, (0..8).map(|m| 100 + m).collect::<Vec<_>>());
    }

    #[test]
    fn stale_packet_with_wrong_seq_is_harmless() {
        // The attack needs the wrap: a stale packet arriving *before* the
        // space wraps is rejected.
        let mut r = ModKReceiver::new(4);
        r.on_packet(0, 100);
        r.on_packet(1, 101);
        let before = r.delivered.clone();
        r.on_packet(0, 100); // replayed too early: expected is 2
        assert_eq!(r.delivered, before);
    }
}
