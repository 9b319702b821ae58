//! The in-run control: a fixed memory-bound kernel timed beside every
//! operation, so a reported time can be corrected for how fast the machine
//! was at that moment.
//!
//! This box is a 2-vCPU guest on a shared host. For minutes at a time the
//! same operation runs 15–50 % slower, and the fastest operation of a 26 s
//! run moves with it (8–29 % between runs) — no statistic of one run's
//! wall times is steady. A register-only or L2-resident loop barely feels
//! those stretches; a loop that misses to the last-level cache and to DRAM
//! feels them as the checkers do. So the control is that loop: random
//! read-modify-writes over an 8 MB and a 128 MB table, the harness's own
//! code and never the engines', frozen here. An operation's corrected time
//! is `wall × REFERENCE_S ÷ control`, with `control` the mean of the control
//! runs just before and just after it. A change to the engines moves `wall`
//! and cannot move `control`, so a gain or a regression shows in full; the
//! neighbours' load moves both and mostly cancels (per-run medians spread
//! 14–42 % uncorrected and 4–11 % corrected over the same runs; LEDGER.md
//! has the tables).

use std::time::Instant;

/// The control's duration on this box when it is quiet. It only fixes the
/// scale, so that corrected seconds read as the wall seconds of a quiet run.
pub const REFERENCE_S: f64 = 0.0600;

const SMALL_WORDS: usize = 1 << 20; // 8 MB: misses L2, sits in a quiet LLC
const LARGE_WORDS: usize = 1 << 24; // 128 MB: misses to DRAM
const SMALL_TOUCHES: usize = 11_000_000;
const LARGE_TOUCHES: usize = 2_200_000;

/// The control kernel and its tables.
pub struct Control {
    rng: u64,
    small: Vec<u64>,
    large: Vec<u64>,
}

impl Default for Control {
    fn default() -> Self {
        Self::new()
    }
}

impl Control {
    /// Allocate and touch the tables (about 136 MB; a run reads its peak
    /// memory before this is called).
    pub fn new() -> Self {
        Control {
            rng: 0x9E37_79B9_7F4A_7C15,
            small: vec![1; SMALL_WORDS],
            large: vec![1; LARGE_WORDS],
        }
    }

    /// Run the kernel once; seconds it took.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let a = touch(&mut self.small, SMALL_TOUCHES, &mut self.rng);
        let b = touch(&mut self.large, LARGE_TOUCHES, &mut self.rng);
        std::hint::black_box(a ^ b);
        t.elapsed().as_secs_f64()
    }

    /// `seconds` measured between control runs `before` and `after`,
    /// corrected to the reference speed.
    pub fn correct(seconds: f64, before: f64, after: f64) -> f64 {
        seconds * REFERENCE_S / ((before + after) / 2.0)
    }
}

/// `touches` random read-modify-writes over `table` (a power of two long).
fn touch(table: &mut [u64], touches: usize, rng: &mut u64) -> u64 {
    let mask = table.len() - 1;
    let mut acc = 0u64;
    for _ in 0..touches {
        // xorshift64
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        let i = (*rng as usize) & mask;
        acc = acc.wrapping_add(table[i]);
        table[i] = acc;
    }
    acc
}
