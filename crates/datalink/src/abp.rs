//! The alternating-bit protocol — reliable delivery over a lossy FIFO
//! channel with a **one-bit** header.
//!
//! Sender stamps each message with an alternating bit and retransmits until
//! the matching acknowledgement arrives; the receiver delivers exactly the
//! packets whose bit it expects. Over a lossy, duplicating, FIFO channel
//! this gives exactly-once in-order delivery — the possibility contrast to
//! the bounded-header impossibility in [`crate::stealing`] (whose adversary
//! needs the extra power of withholding/reordering).

use crate::channel::LossyChannel;

/// A data packet: `(bit, payload)`.
pub type Packet = (u8, u64);

/// An acknowledgement: the bit being acked.
pub type Ack = u8;

/// The ABP sender.
#[derive(Debug, Clone)]
pub struct Sender {
    bit: u8,
    pending: Vec<u64>,
    cursor: usize,
    /// Packets transmitted (including retransmissions).
    transmissions: usize,
}

impl Sender {
    /// A sender with a queue of messages to deliver.
    pub fn new(messages: Vec<u64>) -> Self {
        Sender {
            bit: 0,
            pending: messages,
            cursor: 0,
            transmissions: 0,
        }
    }

    /// All messages acknowledged?
    pub fn done(&self) -> bool {
        self.cursor >= self.pending.len()
    }

    /// (Re)transmit the current packet.
    fn transmit(&mut self) -> Option<Packet> {
        if self.done() {
            return None;
        }
        self.transmissions += 1;
        Some((self.bit, self.pending[self.cursor]))
    }

    /// Process an acknowledgement.
    fn on_ack(&mut self, ack: Ack) {
        if !self.done() && ack == self.bit {
            self.cursor += 1;
            self.bit ^= 1;
        }
    }
}

/// The ABP receiver.
#[derive(Debug, Clone, Default)]
pub struct Receiver {
    expected: u8,
    /// Messages delivered to the client, in order.
    pub delivered: Vec<u64>,
}

impl Receiver {
    /// A fresh receiver.
    pub fn new() -> Self {
        Receiver::default()
    }

    /// Process a packet; returns the ack to send.
    pub fn on_packet(&mut self, (bit, payload): Packet) -> Ack {
        if bit == self.expected {
            self.delivered.push(payload);
            self.expected ^= 1;
        }
        bit
    }
}

/// Run ABP over lossy, duplicating FIFO channels until all messages are
/// delivered (or the step budget runs out). Loss and duplication rates are
/// per-mille (`drop_pm = 400` loses 40% of packets). Returns the
/// receiver's delivered sequence and the total packet transmissions.
pub fn run_abp(
    messages: &[u64],
    seed: u64,
    drop_pm: u32,
    dup_pm: u32,
    max_steps: usize,
) -> (Vec<u64>, usize) {
    let mut sender = Sender::new(messages.to_vec());
    let mut receiver = Receiver::new();
    let mut data_ch: LossyChannel<Packet> = LossyChannel::lossy(seed, drop_pm, dup_pm);
    let mut ack_ch: LossyChannel<Ack> = LossyChannel::lossy(seed ^ 0xABCD, drop_pm, dup_pm);

    for step in 0..max_steps {
        if sender.done() {
            break;
        }
        // Retransmit periodically (every step when nothing is in flight,
        // every 4th step otherwise — a crude timeout).
        if data_ch.in_flight() == 0 || step % 4 == 0 {
            if let Some(p) = sender.transmit() {
                data_ch.send(p);
            }
        }
        if let Some(p) = data_ch.recv() {
            let ack = receiver.on_packet(p);
            ack_ch.send(ack);
        }
        if let Some(a) = ack_ch.recv() {
            sender.on_ack(a);
        }
    }
    (receiver.delivered, sender.transmissions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_exactly_once_in_order_over_reliable_channel() {
        let msgs = vec![10, 20, 30, 40];
        let (delivered, _) = run_abp(&msgs, 1, 0, 0, 10_000);
        assert_eq!(delivered, msgs);
    }

    #[test]
    fn survives_heavy_loss() {
        let msgs: Vec<u64> = (0..20).collect();
        for seed in 0..10 {
            let (delivered, tx) = run_abp(&msgs, seed, 400, 0, 200_000);
            assert_eq!(delivered, msgs, "seed {seed}");
            // Loss costs retransmissions — the protocol pays in packets.
            assert!(tx > msgs.len(), "seed {seed}: tx {tx}");
        }
    }

    #[test]
    fn survives_duplication() {
        let msgs: Vec<u64> = (0..20).collect();
        for seed in 0..10 {
            let (delivered, _) = run_abp(&msgs, seed, 0, 500, 200_000);
            assert_eq!(delivered, msgs, "seed {seed}");
        }
    }

    #[test]
    fn survives_loss_and_duplication_together() {
        let msgs: Vec<u64> = (0..15).collect();
        for seed in 0..10 {
            let (delivered, _) = run_abp(&msgs, seed, 300, 300, 400_000);
            assert_eq!(delivered, msgs, "seed {seed}");
        }
    }

    #[test]
    fn transmission_cost_grows_with_loss() {
        let msgs: Vec<u64> = (0..30).collect();
        let (_, clean) = run_abp(&msgs, 5, 0, 0, 400_000);
        let (_, lossy) = run_abp(&msgs, 5, 500, 0, 400_000);
        assert!(lossy > clean, "clean {clean} lossy {lossy}");
    }

    #[test]
    fn duplicate_packets_never_deliver_twice() {
        let msgs = vec![7, 7, 7]; // identical payloads: duplicates would show
        let (delivered, _) = run_abp(&msgs, 3, 200, 600, 200_000);
        assert_eq!(delivered, msgs); // exactly three, not more
    }
}
