//! The §2.1 bound formulas.
//!
//! The earliest impossibility proofs in the survey (Cremers–Hibbard \[35\],
//! Burns–Fischer–Jackson–Lynch–Peterson \[26\]) are pigeonhole arguments on the
//! values of shared memory: run the algorithm into many situations, observe
//! that the shared variable takes fewer values than there are situations, and
//! exhibit two "incompatible" situations that look identical to some process.
//! The refuters run those arguments as searches; this module holds the
//! closed-form bound functions of §2.1 that the experiments plot.

/// Bound formulas from §2.1 of the paper, for the experiment harness.
pub mod bounds {
    /// Burns et al. \[26\]: n-process mutual exclusion with *bounded waiting*
    /// on one test-and-set variable needs at least `n + 1` values.
    pub fn bounded_waiting_values(n: u64) -> u64 {
        n + 1
    }

    /// Fischer–Lynch–Burns–Borodin \[57, 53\]: strong simulation of a shared
    /// FIFO queue needs Ω(n²) shared-memory values. Returns the curve `n²`.
    pub fn fifo_queue_values(n: u64) -> u64 {
        n * n
    }

    /// Rabin \[92\]: choice coordination with test-and-set variables needs
    /// Ω(n^(1/3)) values. Returns the curve `⌈n^(1/3)⌉`, computed with an
    /// exact integer cube root (binary search; `f64::cbrt` rounds).
    pub fn choice_coordination_values(n: u64) -> u64 {
        // Largest r with r³ ≤ n; 2_642_245³ is the biggest cube in u64.
        let (mut lo, mut hi) = (0u64, 2_642_246);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if mid.checked_pow(3).is_some_and(|c| c <= n) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo + u64::from(lo.pow(3) < n)
    }

    /// Pease–Shostak–Lamport \[89, 73\]: Byzantine agreement requires
    /// `n ≥ 3t + 1` processes.
    pub fn byzantine_min_processes(t: u64) -> u64 {
        3 * t + 1
    }

    /// Dolev \[39\]: tolerating `t` Byzantine faults requires network
    /// connectivity `≥ 2t + 1`.
    pub fn byzantine_min_connectivity(t: u64) -> u64 {
        2 * t + 1
    }

    /// Fischer–Lynch \[56\] and successors: consensus requires `t + 1` rounds.
    pub fn consensus_min_rounds(t: u64) -> u64 {
        t + 1
    }

    /// Dwork–Skeen \[48\]: nonblocking commit requires `2n − 2` messages in
    /// every failure-free execution that commits.
    pub fn commit_min_messages(n: u64) -> u64 {
        2 * n - 2
    }

    /// Lundelius–Lynch \[77\]: clocks on a complete graph with message-delay
    /// uncertainty `eps` cannot be synchronized closer than `eps * (1 - 1/n)`.
    // LINT-ALLOW: det-float -- §2.1 real-valued bound curve, never engine state
    pub fn clock_sync_skew(eps: f64, n: u64) -> f64 {
        eps * (1.0 - 1.0 / n as f64) // LINT-ALLOW: det-float -- real-valued curve
    }

    /// Burns \[25\], Frederickson–Lynch \[58\]: leader election in rings needs
    /// Ω(n log n) messages. Returns the curve `n·⌈log2 n⌉`.
    pub fn ring_election_messages(n: u64) -> u64 {
        if n <= 1 {
            return 0;
        }
        n * (64 - (n - 1).leading_zeros() as u64)
    }

    /// Dolev–Lynch–Pinter–Stark–Weihl \[36\]: k-round approximate agreement
    /// cannot converge faster than `(t / (n·k))^k`; the simple round-by-round
    /// averaging algorithm achieves ≈ `(t/n)^k`.
    // LINT-ALLOW: det-float -- §2.1 real-valued bound curve, never engine state
    pub fn approx_agreement_lower(t: f64, n: f64, k: u32) -> f64 {
        (t / (n * k as f64)).powi(k as i32) // LINT-ALLOW: det-float -- curve
    }

    /// Round-by-round averaging convergence `(t/n)^k` (see
    /// [`approx_agreement_lower`]).
    // LINT-ALLOW: det-float -- §2.1 real-valued bound curve, never engine state
    pub fn approx_agreement_round_by_round(t: f64, n: f64, k: u32) -> f64 {
        (t / n).powi(k as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::bounds::*;

    #[test]
    fn bound_formulas() {
        assert_eq!(bounded_waiting_values(5), 6);
        assert_eq!(fifo_queue_values(4), 16);
        assert_eq!(choice_coordination_values(27), 3);
        assert_eq!(byzantine_min_processes(1), 4);
        assert_eq!(byzantine_min_connectivity(2), 5);
        assert_eq!(consensus_min_rounds(3), 4);
        assert_eq!(commit_min_messages(5), 8);
        assert!((clock_sync_skew(1.0, 2) - 0.5).abs() < 1e-12);
        assert_eq!(ring_election_messages(8), 24);
        assert_eq!(ring_election_messages(1), 0);
    }

    #[test]
    fn approx_agreement_curves_ordered() {
        // The lower bound is smaller (faster convergence allowed) than what
        // round-by-round algorithms achieve.
        let lb = approx_agreement_lower(1.0, 4.0, 3);
        let rr = approx_agreement_round_by_round(1.0, 4.0, 3);
        assert!(lb < rr);
    }
}
