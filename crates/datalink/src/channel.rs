//! The physical layer: an unreliable packet channel.
//!
//! The channel is the adversary. It may **drop** packets and **duplicate**
//! them, each with a seeded per-mille probability, and delivers the rest in
//! order. Message stealing — withhold a packet now, replay it much later,
//! the move that breaks every bounded-header protocol — is
//! [`crate::stealing`]'s.

use impossible_det::DetRng;
use std::collections::VecDeque;

/// A unidirectional packet channel.
#[derive(Debug, Clone)]
pub struct LossyChannel<M> {
    queue: VecDeque<M>,
    rng: DetRng,
    /// Per-mille probability (0..=1000) a sent packet is silently lost.
    /// Integer per-mille instead of `f64` keeps the adversary's coin exact
    /// and the channel state totally ordered (see `docs/LINTS.md`,
    /// `det-float`).
    pub drop_pm: u32,
    /// Per-mille probability (0..=1000) a sent packet is duplicated.
    pub dup_pm: u32,
}

impl<M: Clone> LossyChannel<M> {
    /// A reliable FIFO channel (no loss, no duplication).
    fn reliable(seed: u64) -> Self {
        LossyChannel {
            queue: VecDeque::new(),
            rng: DetRng::seed_from_u64(seed),
            drop_pm: 0,
            dup_pm: 0,
        }
    }

    /// A lossy, duplicating FIFO channel. Probabilities are per-mille
    /// (`drop_pm = 500` drops half the packets).
    pub fn lossy(seed: u64, drop_pm: u32, dup_pm: u32) -> Self {
        LossyChannel {
            drop_pm,
            dup_pm,
            ..LossyChannel::reliable(seed)
        }
    }

    /// Send a packet (the channel applies loss/duplication).
    pub fn send(&mut self, m: M) {
        if self.drop_pm > 0 && self.rng.gen_ratio(self.drop_pm, 1000) {
            return; // lost
        }
        if self.dup_pm > 0 && self.rng.gen_ratio(self.dup_pm, 1000) {
            self.queue.push_back(m.clone());
        }
        self.queue.push_back(m);
    }

    /// Receive the oldest packet in flight.
    pub fn recv(&mut self) -> Option<M> {
        self.queue.pop_front()
    }

    /// Packets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Peek at the in-flight packets (adversary planning).
    pub fn peek(&self) -> impl Iterator<Item = &M> {
        self.queue.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_fifo_preserves_order() {
        let mut ch = LossyChannel::reliable(1);
        for i in 0..5 {
            ch.send(i);
        }
        let got: Vec<i32> = std::iter::from_fn(|| ch.recv()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn lossy_channel_drops_some() {
        let mut ch = LossyChannel::lossy(3, 500, 0);
        for i in 0..100 {
            ch.send(i);
        }
        let n = ch.in_flight();
        assert!(n < 80 && n > 20, "in flight {n}");
    }

    #[test]
    fn duplicating_channel_duplicates_some() {
        let mut ch = LossyChannel::lossy(3, 0, 500);
        for i in 0..100 {
            ch.send(i);
        }
        assert!(ch.in_flight() > 110);
    }
}
