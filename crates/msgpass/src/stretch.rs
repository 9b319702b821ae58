//! Communication diagrams and the stretching/shifting transformation.
//!
//! "An execution can be represented by a diagram with time lines for
//! processes and connecting edges for messages ... Such a diagram can be
//! stretched without violating the dependencies, and processes will not be
//! able to tell the difference" \[8\]. Lundelius–Lynch \[77\] sharpen this into
//! *shifting*: move each process's real-time axis by `s_i`; every message
//! `(i → j)` then has its delay changed by `s_j − s_i`. As long as the new
//! delays stay inside the admissible band `[lo, hi]`, the shifted diagram is
//! a legal execution **indistinguishable** from the original — which is why
//! no algorithm can synchronize clocks more tightly than the delay
//! uncertainty allows.
//!
//! [`Diagram::shift`] performs the transformation and validates the band.

use std::fmt;

/// A message in a timed execution diagram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageRecord {
    /// Sender.
    pub from: usize,
    /// Receiver.
    pub to: usize,
    /// Real time of sending.
    send_time: f64,
    /// Real time of receipt.
    recv_time: f64,
}

impl MessageRecord {
    /// The message's delay.
    pub fn delay(&self) -> f64 {
        self.recv_time - self.send_time
    }
}

/// A timed execution diagram: processes, message records and the admissible
/// delay band.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagram {
    /// Number of processes.
    pub n: usize,
    /// All messages of the execution.
    pub messages: Vec<MessageRecord>,
    /// Admissible delay band `[lo, hi]` (the "uncertainty" is `hi − lo`).
    pub delay_bounds: (f64, f64),
}

/// Why a shift is not admissible.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftError {
    /// Index of the offending message.
    pub message: usize,
    /// Its delay after the shift.
    new_delay: f64,
}

impl fmt::Display for ShiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shift pushes message {} to delay {:.4}, outside the admissible band",
            self.message, self.new_delay
        )
    }
}

impl std::error::Error for ShiftError {}

impl Diagram {
    /// A diagram over `n` processes with delay band `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= lo <= hi`.
    pub fn new(n: usize, lo: f64, hi: f64) -> Self {
        assert!(0.0 <= lo && lo <= hi, "need 0 <= lo <= hi");
        Diagram {
            n,
            messages: Vec::new(),
            delay_bounds: (lo, hi),
        }
    }

    /// Record a message.
    ///
    /// # Panics
    ///
    /// Panics if endpoints are out of range or the delay is outside the
    /// band (the original diagram must itself be admissible).
    pub fn record(&mut self, from: usize, to: usize, send_time: f64, recv_time: f64) {
        assert!(from < self.n && to < self.n);
        let m = MessageRecord {
            from,
            to,
            send_time,
            recv_time,
        };
        let (lo, hi) = self.delay_bounds;
        assert!(
            m.delay() >= lo - 1e-9 && m.delay() <= hi + 1e-9,
            "recorded delay {} outside [{lo}, {hi}]",
            m.delay()
        );
        self.messages.push(m);
    }

    /// True if every recorded delay is inside the band.
    pub fn is_admissible(&self) -> bool {
        let (lo, hi) = self.delay_bounds;
        self.messages
            .iter()
            .all(|m| m.delay() >= lo - 1e-9 && m.delay() <= hi + 1e-9)
    }

    /// Shift process `i`'s timeline by `shifts[i]`: all its events move by
    /// that amount; message delays change by `shifts[to] − shifts[from]`.
    ///
    /// # Errors
    ///
    /// [`ShiftError`] naming the first message whose new delay leaves the
    /// band — in which case the shifted diagram would be a *detectably*
    /// different execution, and the indistinguishability argument fails.
    pub fn shift(&self, shifts: &[f64]) -> Result<Diagram, ShiftError> {
        assert_eq!(shifts.len(), self.n);
        let (lo, hi) = self.delay_bounds;
        let mut out = self.clone();
        for (idx, m) in out.messages.iter_mut().enumerate() {
            m.send_time += shifts[m.from];
            m.recv_time += shifts[m.to];
            let d = m.delay();
            if d < lo - 1e-9 || d > hi + 1e-9 {
                return Err(ShiftError {
                    message: idx,
                    new_delay: d,
                });
            }
        }
        Ok(out)
    }

    /// The per-process *views* of the diagram: for each process, the
    /// sequence of its send/receive events with only **logical** content
    /// (peer, direction, order) — what the process can actually observe.
    /// Shifting never changes views; this extractor lets tests verify it.
    pub fn views(&self) -> Vec<Vec<(bool, usize)>> {
        // (is_send, peer) per process, ordered by that process's local time.
        let mut per: Vec<Vec<(f64, bool, usize)>> = vec![Vec::new(); self.n];
        for m in &self.messages {
            per[m.from].push((m.send_time, true, m.to));
            per[m.to].push((m.recv_time, false, m.from));
        }
        per.into_iter()
            .map(|mut v| {
                v.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
                v.into_iter().map(|(_, s, p)| (s, p)).collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_diagram() -> Diagram {
        // Two processes exchanging one message each way; delays at the
        // midpoint of [1, 2].
        let mut d = Diagram::new(2, 1.0, 2.0);
        d.record(0, 1, 0.0, 1.5);
        d.record(1, 0, 2.0, 3.5);
        d
    }

    #[test]
    fn shift_within_band_succeeds_and_preserves_views() {
        let d = simple_diagram();
        let shifted = d.shift(&[0.0, 0.5]).expect("0.5 fits in the headroom");
        assert!(shifted.is_admissible());
        assert_eq!(d.views(), shifted.views());
        // Delays moved oppositely on the two directions.
        assert!((shifted.messages[0].delay() - 2.0).abs() < 1e-9);
        assert!((shifted.messages[1].delay() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shift_outside_band_is_rejected() {
        let d = simple_diagram();
        let err = d.shift(&[0.0, 0.6]).unwrap_err();
        assert_eq!(err.message, 0);
        assert!(err.new_delay > 2.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn recording_inadmissible_delay_panics() {
        let mut d = Diagram::new(2, 1.0, 2.0);
        d.record(0, 1, 0.0, 5.0);
    }

    #[test]
    fn views_capture_order_and_peers() {
        let d = simple_diagram();
        let v = d.views();
        assert_eq!(v[0], vec![(true, 1), (false, 1)]);
        assert_eq!(v[1], vec![(false, 0), (true, 0)]);
    }
}
