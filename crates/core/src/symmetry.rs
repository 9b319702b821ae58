//! Symmetry arguments — Figure 4 of the paper and the Angluin folk theorem.
//!
//! Two flavours of symmetry drive the network lower bounds the paper surveys:
//!
//! 1. **Anonymous symmetry** (Angluin \[7\]): in a ring of indistinguishable
//!    deterministic processes, "anything that one process can do, the others
//!    symmetric to it might do also" — so no leader can ever be elected.
//!    [`LockstepRing`] runs an anonymous deterministic protocol in lockstep
//!    and certifies that all processes stay in identical states forever
//!    (up to the period of the ring's input labelling).
//!
//! 2. **Comparison symmetry** (Frederickson–Lynch \[58\], Attiya–Snir–Warmuth
//!    \[14\]): even with distinct IDs, a *comparison-based* algorithm behaves
//!    identically at positions whose ID neighbourhoods are order-equivalent.
//!    The ring `0,4,2,6,1,5,3,7` (Figure 4, the bit-reversal ring) maximizes
//!    such symmetry: adjacent segments of length `2^k` are order-equivalent,
//!    forcing Ω(n log n) messages. [`bit_reversal_ring`] constructs the ring,
//!    [`order_equivalent`] decides order-equivalence, and
//!    [`comparison_symmetry_classes`] computes the orbit structure the lower
//!    bound counts with.

use std::cmp::Ordering;
use std::collections::BTreeSet;

/// The bit-reversal ring of size `n = 2^k`: position `i` holds the ID whose
/// binary representation is `i` reversed in `k` bits. For `k = 3` this is the
/// paper's Figure 4 ring `0,4,2,6,1,5,3,7`.
///
/// # Panics
///
/// Panics if `n` is not a power of two or `n == 0`.
///
/// # Examples
///
/// ```
/// use impossible_core::symmetry::bit_reversal_ring;
/// assert_eq!(bit_reversal_ring(8), vec![0, 4, 2, 6, 1, 5, 3, 7]);
/// ```
pub fn bit_reversal_ring(n: usize) -> Vec<u64> {
    assert!(n.is_power_of_two() && n > 0, "n must be a power of two");
    let k = n.trailing_zeros();
    (0..n)
        .map(|i| {
            let mut r = 0usize;
            for b in 0..k {
                if i & (1 << b) != 0 {
                    r |= 1 << (k - 1 - b);
                }
            }
            r as u64
        })
        .collect()
}

/// Are two sequences of **distinct** values order-equivalent (same pattern of
/// `<` / `>` comparisons at every index pair)?
///
/// Comparison-based algorithms cannot distinguish order-equivalent
/// neighbourhoods — the engine of the Ω(n log n) bounds.
///
/// # Examples
///
/// ```
/// use impossible_core::symmetry::order_equivalent;
/// assert!(order_equivalent(&[1, 9, 4], &[10, 70, 23]));
/// assert!(!order_equivalent(&[1, 9, 4], &[9, 1, 4]));
/// ```
pub fn order_equivalent(a: &[u64], b: &[u64]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    for i in 0..a.len() {
        for j in (i + 1)..a.len() {
            if (a[i] < a[j]) != (b[i] < b[j]) || (a[i] > a[j]) != (b[i] > b[j]) {
                return false;
            }
        }
    }
    true
}

/// The radius-`k` neighbourhood of ring position `i`: the IDs at positions
/// `i-k ..= i+k`, in ring order. A radius past the ring size wraps around
/// it as often as it takes.
fn neighborhood(ring: &[u64], i: usize, k: usize) -> Vec<u64> {
    let n = ring.len();
    // `i - k ≡ i + (n - k mod n)`: no subtraction that can underflow.
    let back = n - k % n;
    (0..=2 * k).map(|d| ring[(i + back + d) % n]).collect()
}

/// Partition ring positions into classes whose radius-`k` neighbourhoods are
/// pairwise order-equivalent. A comparison-based synchronous algorithm must
/// treat all members of a class identically for the first `k` rounds — so if
/// one sends a message, **all** do. Large classes at large `k` are what make
/// the Figure 4 ring expensive.
///
/// Returns the classes as position lists, largest first.
pub fn comparison_symmetry_classes(ring: &[u64], k: usize) -> Vec<Vec<usize>> {
    let n = ring.len();
    let hoods: Vec<Vec<u64>> = (0..n).map(|i| neighborhood(ring, i, k)).collect();
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        match classes
            .iter_mut()
            .find(|c| order_equivalent(&hoods[c[0]], &hoods[i]))
        {
            Some(c) => c.push(i),
            None => classes.push(vec![i]),
        }
    }
    classes.sort_by_key(|c| std::cmp::Reverse(c.len()));
    classes
}

/// The size of the smallest radius-`k` order-equivalence class — `1` means
/// some position is already uniquely distinguishable with radius-`k`
/// knowledge (an asymmetric ring); `≥ 2` everywhere is what the Figure 4
/// construction guarantees at every scale below `n/2`.
pub fn min_symmetry_class(ring: &[u64], k: usize) -> usize {
    comparison_symmetry_classes(ring, k)
        .iter()
        .map(|c| c.len())
        .min()
        .unwrap_or(0)
}

/// A symmetry canonicalisation hook: how a quotient search maps a state to
/// its orbit's representative (the contract — idempotent, orbit-respecting
/// — is `impossible_explore::canon`'s). `impossible_explore::Search`
/// installs one and [`cert::Spec::canon`](crate::cert::Spec::canon)
/// carries it, so a witness is checked under the very hook the search ran.
///
/// A hook is a plain function pointer, in one of two forms:
///
/// * [`Canon::InPlace`] rewrites the state it is given and returns `true`
///   exactly when it changed it — no allocation, and the flag is the
///   search's `canon_hits` count;
/// * [`Canon::Owned`] returns the representative as a new state; the
///   adapter in [`Canon::apply`] compares it with the input to get the
///   flag, and drops the input.
///
/// Both go through [`Canon::apply`], the one dispatch every route shares.
pub enum Canon<S> {
    /// Canonicalise in place; `true` exactly when the state changed.
    InPlace(fn(&mut S) -> bool),
    /// Return the representative as a new state.
    Owned(fn(&S) -> S),
}

impl<S> Clone for Canon<S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for Canon<S> {}

impl<S: PartialEq> Canon<S> {
    /// Replace `s` by its representative; `true` exactly when that changed
    /// `s`.
    pub fn apply(&self, s: &mut S) -> bool {
        match *self {
            Canon::InPlace(f) => f(s),
            Canon::Owned(f) => {
                let c = f(s);
                let moved = c != *s;
                *s = c;
                moved
            }
        }
    }
}

/// Rotate `xs` to its lexicographically least rotation — the canonical
/// representative of its rotation orbit — and return whether it moved.
///
/// Two ring configurations are indistinguishable to anonymous processes iff
/// they are rotations of each other, so quotienting a ring system's state
/// space by this rotation (e.g. in an `impossible-explore` [`Canon`] hook)
/// explores each rotation orbit once — the search-side counterpart of the
/// Angluin symmetry argument [`LockstepRing`] replays.
///
/// **Cost:** `O(n)` comparisons, then one `rotate_left`, no allocation.
/// The start of the least rotation is found by the two-pointer
/// minimal-representation scan — two candidate starts `i`, `j` and a
/// matched length `k`; a mismatch at offset `k` rules out all `k + 1`
/// starts `i..=i+k` (or `j..=j+k`) at once, so `i + j + k` only grows and
/// the scan ends within `3n` steps. The scan returns the *first* least
/// start, so `xs` moved exactly when that start is not `0` (a periodic
/// word whose rotation by it equals `xs` would have `0` as a least start
/// too). The enumerate-all-rotations definition
/// (`impossible_explore::canon::min_under_permutations` over `rotations(n)`)
/// is the oracle this function is tested against; what either costs on a
/// quotient search, and when [`canonicalize_binary_rotation`] takes over,
/// is stated once in `docs/EXPLORE.md`, "What a hook costs".
///
/// ```
/// use impossible_core::symmetry::canonicalize_rotation;
/// let mut xs = [2, 0, 1];
/// assert!(canonicalize_rotation(&mut xs));
/// assert_eq!(xs, [0, 1, 2]);
/// let mut periodic = [0, 1, 0, 1];
/// assert!(!canonicalize_rotation(&mut periodic));
/// assert!(!canonicalize_rotation::<u8>(&mut []));
/// ```
pub fn canonicalize_rotation<T: Ord>(xs: &mut [T]) -> bool {
    let n = xs.len();
    // Invariant: every start below `max(i, j)` other than `i` and `j` begins
    // a rotation strictly greater than some other one. On exit `min(i, j)`
    // is therefore the first start of a least rotation.
    let (mut i, mut j, mut k) = (0usize, 1usize, 0usize);
    while i < n && j < n && k < n {
        // `i, j, k < n`, so one conditional subtract wraps the index.
        let (mut a, mut b) = (i + k, j + k);
        if a >= n {
            a -= n;
        }
        if b >= n {
            b -= n;
        }
        match xs[a].cmp(&xs[b]) {
            Ordering::Equal => k += 1,
            Ordering::Greater => {
                i += k + 1;
                if i == j {
                    i += 1;
                }
                k = 0;
            }
            Ordering::Less => {
                j += k + 1;
                if j == i {
                    j += 1;
                }
                k = 0;
            }
        }
    }
    let start = i.min(j);
    xs.rotate_left(start);
    start != 0
}

/// [`canonicalize_rotation`] of a binary necklace, in one machine word:
/// `Some(moved)` with `xs` rotated exactly as `canonicalize_rotation`
/// rotates it when `xs` is a 0/1 word of 1 to 64 beads, `None` with `xs`
/// untouched otherwise (an empty word, a byte above 1, or more than 64
/// beads) — the caller falls back to the generic scan there.
///
/// The word is packed MSB-first into a `u64`, where numeric order is
/// lexicographic order, so the least rotation is the minimum of the `n`
/// masked word rotations. Nothing in it is a serial chain: eight beads
/// are packed per byte-gathering multiply, each rotation is computed from
/// the word itself (not from the previous rotation) and folded into one of
/// two `min` accumulators. The word moved exactly when that minimum
/// differs from it; only then is it unpacked back into `xs`, eight beads
/// per byte-spreading multiply — no allocation, and no branch on the data
/// but that one. Where this pays is stated in `docs/EXPLORE.md`, "What a
/// hook costs".
///
/// ```
/// use impossible_core::symmetry::canonicalize_binary_rotation;
/// let mut xs = [1, 0, 1, 0];
/// assert_eq!(canonicalize_binary_rotation(&mut xs), Some(true));
/// assert_eq!(xs, [0, 1, 0, 1]);
/// assert_eq!(canonicalize_binary_rotation(&mut xs), Some(false));
/// assert_eq!(canonicalize_binary_rotation(&mut [2, 0, 1]), None);
/// assert_eq!(canonicalize_binary_rotation(&mut []), None);
/// ```
pub fn canonicalize_binary_rotation(xs: &mut [u8]) -> Option<bool> {
    /// One set bit per byte: the `0/1` bead each byte of a chunk holds.
    const BEADS: u64 = 0x0101_0101_0101_0101;
    /// `Σ 2^(9i)`, `i < 8`. Times a chunk of beads (bead `i` at bit `8i`),
    /// it moves bead `i` to bit `63 − i` and nothing else to bits 56–63;
    /// times a byte (bead `i` at bit `7 − i`), it moves bead `i` to bit
    /// `8i + 7`. No two partial products share a bit, so nothing carries.
    const SPREAD: u64 = 0x8040_2010_0804_0201;
    let n = xs.len();
    if n == 0 || n > 64 {
        return None;
    }
    let (mut word, mut above_one) = (0u64, 0u64);
    let mut chunks = xs.chunks_exact(8);
    for chunk in &mut chunks {
        let beads = u64::from_le_bytes(chunk.try_into().expect("chunks of 8"));
        above_one |= beads & !BEADS;
        word = word << 8 | beads.wrapping_mul(SPREAD) >> 56;
    }
    for &x in chunks.remainder() {
        above_one |= u64::from(x & !1);
        word = word << 1 | u64::from(x & 1);
    }
    if above_one != 0 {
        return None;
    }
    // The low `n` bits; `n = 64` keeps all of them. Rotation `r` moves `r`
    // beads from the front to the back: `xs.rotate_left(r)`.
    let mask = u64::MAX >> (64 - n);
    let rotation = |r: usize| (word << r | word >> (n - r)) & mask;
    let (mut even, mut odd) = (word, word);
    let mut r = 1;
    while r + 1 < n {
        odd = odd.min(rotation(r));
        even = even.min(rotation(r + 1));
        r += 2;
    }
    if r < n {
        odd = odd.min(rotation(r));
    }
    let best = even.min(odd);
    if best == word {
        return Some(false);
    }
    let mut chunks = xs.chunks_exact_mut(8);
    for (c, chunk) in (&mut chunks).enumerate() {
        let byte = best >> (n - 8 * (c + 1)) & 0xFF;
        chunk.copy_from_slice(&(byte.wrapping_mul(SPREAD) >> 7 & BEADS).to_le_bytes());
    }
    let tail = chunks.into_remainder();
    let len = tail.len();
    for (i, bead) in tail.iter_mut().enumerate() {
        *bead = (best >> (len - 1 - i)) as u8 & 1;
    }
    Some(true)
}

/// Outcome of running an anonymous deterministic ring protocol in lockstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymmetryVerdict {
    /// After `rounds` synchronous rounds all processes remain in states that
    /// are equal orbit-wise; no process can have been distinguished as a
    /// leader. The Angluin certificate.
    SymmetricForever {
        /// The orbit period `d` (states repeat with period `d` around the
        /// ring, `d` divides `n`).
        period: usize,
        /// Rounds simulated before the global configuration repeated (the
        /// round budget, if it never did).
        rounds_to_repeat: usize,
        /// The most processes claiming leadership in one configuration:
        /// `0` or a multiple of `n / period`, so never exactly `1` when
        /// `period < n` (e.g. the uniform ring).
        leaders: usize,
    },
    /// Symmetry was broken — only possible if the protocol is not actually
    /// anonymous/deterministic (a bug in the candidate).
    SymmetryBroken {
        /// Round at which two same-orbit processes diverged.
        round: usize,
    },
}

/// An anonymous deterministic synchronous ring protocol: every process runs
/// the same code, knows only (maybe) the ring size, and exchanges messages
/// with its two neighbours each round.
pub trait AnonymousRingProtocol {
    /// Per-process state.
    type State: Clone + Eq + Ord + std::hash::Hash + std::fmt::Debug;
    /// Message payload (sent left and right each round).
    type Msg: Clone + Eq + std::fmt::Debug;

    /// Initial state given the ring size and the process's input label.
    fn init(&self, ring_size: usize, input: u64) -> Self::State;

    /// Message to send this round: `(to_left, to_right)`. `None` = silence.
    fn send(&self, state: &Self::State) -> (Option<Self::Msg>, Option<Self::Msg>);

    /// State transition on receiving `(from_left, from_right)`.
    fn recv(
        &self,
        state: Self::State,
        from_left: Option<Self::Msg>,
        from_right: Option<Self::Msg>,
    ) -> Self::State;

    /// Whether this process has declared itself leader.
    fn is_leader(&self, state: &Self::State) -> bool;
}

/// Lockstep simulator proving the Angluin folk theorem on concrete
/// candidates: on an input labelling of period `d`, the configuration stays
/// `d`-periodic forever, so either **no** process declares leadership or at
/// least `n/d ≥ 2` processes do simultaneously.
pub struct LockstepRing<'a, P: AnonymousRingProtocol> {
    protocol: &'a P,
    inputs: Vec<u64>,
}

impl<'a, P: AnonymousRingProtocol> LockstepRing<'a, P> {
    /// Simulator over a ring with the given input labels.
    pub fn new(protocol: &'a P, inputs: Vec<u64>) -> Self {
        assert!(!inputs.is_empty());
        LockstepRing { protocol, inputs }
    }

    /// The smallest period of the input labelling (divides `n`).
    fn input_period(&self) -> usize {
        let n = self.inputs.len();
        (1..=n)
            .filter(|d| n.is_multiple_of(*d))
            .find(|&d| (0..n).all(|i| self.inputs[i] == self.inputs[(i + d) % n]))
            .expect("n is always a period")
    }

    /// Run until the global configuration repeats (or `max_rounds`),
    /// checking the periodicity invariant on every configuration the
    /// verdict covers — rounds `0..=rounds_to_repeat` — and counting the
    /// largest number of processes that claim leadership in one of them.
    /// A repeated configuration closes the run's cycle, so that count is
    /// the whole infinite run's.
    ///
    /// For a uniform ring (`period == 1` with `n ≥ 2`), a verdict of
    /// [`SymmetryVerdict::SymmetricForever`] is precisely the impossibility
    /// certificate: leadership would require one process to enter a state no
    /// other is in, which the invariant forbids.
    pub fn run(&self, max_rounds: usize) -> SymmetryVerdict {
        let n = self.inputs.len();
        let d = self.input_period();
        let mut states: Vec<P::State> = self
            .inputs
            .iter()
            .map(|&inp| self.protocol.init(n, inp))
            .collect();
        let mut seen: BTreeSet<Vec<P::State>> = BTreeSet::new();
        let mut leaders = 0;
        let mut round = 0;
        loop {
            if (0..n).any(|i| states[i] != states[(i + d) % n]) {
                return SymmetryVerdict::SymmetryBroken { round };
            }
            let claims = states.iter().filter(|s| self.protocol.is_leader(s)).count();
            leaders = leaders.max(claims);
            // No repeat within the budget still certifies: the invariant
            // held on every configuration (the state space may be large).
            if round == max_rounds || !seen.insert(states.clone()) {
                return SymmetryVerdict::SymmetricForever {
                    period: d,
                    rounds_to_repeat: round,
                    leaders,
                };
            }
            // Synchronous exchange: from_left = right-bound message of the
            // left neighbour; from_right = left-bound message of the right
            // neighbour.
            let sends: Vec<_> = states.iter().map(|s| self.protocol.send(s)).collect();
            states = (0..n)
                .map(|i| {
                    let from_left = sends[(i + n - 1) % n].1.clone();
                    let from_right = sends[(i + 1) % n].0.clone();
                    self.protocol.recv(states[i].clone(), from_left, from_right)
                })
                .collect();
            round += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impossible_det::{det_assert_eq, det_prop, prop};
    use impossible_explore::canon::{min_under_permutations, rotations};

    /// The definition, kept as the reference the linear scan is tested
    /// against: try every start, compare whole rotations, keep the first
    /// least one.
    fn canonical_rotation_naive<T: Ord + Clone>(xs: &[T]) -> Vec<T> {
        let n = xs.len();
        if n == 0 {
            return Vec::new();
        }
        let mut best = 0usize;
        for cand in 1..n {
            for k in 0..n {
                match xs[(cand + k) % n].cmp(&xs[(best + k) % n]) {
                    Ordering::Less => {
                        best = cand;
                        break;
                    }
                    Ordering::Greater => break,
                    Ordering::Equal => {}
                }
            }
        }
        (0..n).map(|k| xs[(best + k) % n].clone()).collect()
    }

    /// The contract, executable: `Ord`-minimum over the rotation group.
    fn canonical_rotation_by_orbit(xs: &Vec<u8>) -> Vec<u8> {
        min_under_permutations(xs, &rotations(xs.len()), |s: &Vec<u8>, p: &[usize]| {
            let mut t = s.clone();
            for (i, &x) in s.iter().enumerate() {
                t[p[i]] = x;
            }
            t
        })
    }

    /// A copy of `xs` put through `canonicalize_rotation`, and its flag.
    fn canonical<T: Ord + Clone>(xs: &[T]) -> (Vec<T>, bool) {
        let mut out = xs.to_vec();
        let moved = canonicalize_rotation(&mut out);
        (out, moved)
    }

    /// `canonicalize_rotation` against both references, its flag against
    /// the input, plus the two hook laws.
    fn check_canonical_rotation(xs: &Vec<u8>) -> Result<(), String> {
        let (canon, moved) = canonical(xs);
        det_assert_eq!(canon, canonical_rotation_naive(xs));
        det_assert_eq!(canon, canonical_rotation_by_orbit(xs));
        det_assert_eq!(moved, canon != *xs);
        det_assert_eq!(canonical(&canon), (canon.clone(), false));
        for r in 0..xs.len() {
            let mut rot = xs.clone();
            rot.rotate_left(r);
            det_assert_eq!(canonical(&rot).0, canon);
        }
        Ok(())
    }

    det_prop! {
        /// Lengths 0..=24 over alphabets of size 1 (constant), 2, 3 and
        /// `len`; `xs[i] = raw[i % period]`, so every `period` dividing
        /// `len` gives a genuinely periodic word (several least rotations,
        /// the `k == n` exit) and `period >= len` a free one.
        fn canonical_rotation_matches_its_definitions(
            cases = 2048,
            len in 0usize..=24,
            alphabet in 0usize..4,
            period in 1usize..=24,
            raw in prop::vec(0u8..=255, 24..25)
        ) {
            let size = [1, 2, 3, len.max(1)][alphabet];
            let xs: Vec<u8> = (0..len).map(|i| raw[i % period] % size as u8).collect();
            check_canonical_rotation(&xs)?;
        }
    }

    #[test]
    fn canonical_rotation_matches_its_definitions_on_every_short_binary_word() {
        // Exhaustive where the quotient search lives: token-ring states are
        // binary words, and this covers all 8190 of length 0..=12.
        for n in 0..=12usize {
            for bits in 0u32..1 << n {
                let xs: Vec<u8> = (0..n).map(|i| (bits >> i & 1) as u8).collect();
                check_canonical_rotation(&xs).unwrap_or_else(|e| panic!("{xs:?}: {e}"));
            }
        }
    }

    /// The word kernel's contract: the generic scan's rotation and flag on
    /// a 0/1 word of 1..=64 beads, `None` and `xs` untouched on anything
    /// else.
    fn check_binary_rotation(xs: &[u8]) -> Result<(), String> {
        let word = !xs.is_empty() && xs.len() <= 64 && xs.iter().all(|&x| x <= 1);
        let want = match canonical(xs) {
            (canon, moved) if word => (canon, Some(moved)),
            _ => (xs.to_vec(), None),
        };
        let mut got = xs.to_vec();
        let moved = canonicalize_binary_rotation(&mut got);
        det_assert_eq!((got, moved), want);
        Ok(())
    }

    #[test]
    fn binary_rotation_matches_the_scan_on_every_word_to_sixteen_beads() {
        for n in 0..=16usize {
            for bits in 0u32..1 << n {
                let xs: Vec<u8> = (0..n).map(|i| (bits >> i & 1) as u8).collect();
                check_binary_rotation(&xs).unwrap_or_else(|e| panic!("{xs:?}: {e}"));
            }
        }
    }

    #[test]
    fn binary_rotation_pins_both_sides_of_the_word_width() {
        // n = 0 and n = 65 take the fallback; n = 1, 63 and 64 the word
        // (64: the all-ones mask). A lone 1, a lone 0, a periodic word and
        // an aperiodic one at each length.
        for n in [0usize, 1, 63, 64, 65] {
            let words: [Vec<u8>; 4] = [
                (0..n).map(|i| u8::from(i == n / 3)).collect(),
                (0..n).map(|i| u8::from(i != n / 2)).collect(),
                (0..n).map(|i| (i % 2) as u8).collect(),
                (0..n).map(|i| u8::from(i * i % 7 < 3)).collect(),
            ];
            for xs in &words {
                check_binary_rotation(xs).unwrap_or_else(|e| panic!("n={n} {xs:?}: {e}"));
            }
        }
        let mut xs = [1, 0, 0, 1, 1, 0];
        assert_eq!(canonicalize_binary_rotation(&mut xs), Some(true));
        assert_eq!(xs, [0, 0, 1, 1, 0, 1]);
    }

    det_prop! {
        /// Every length 0..=72 of one drawn 0/1 word, and of the same word
        /// with a byte above 1 planted at a drawn position: the word path
        /// at 1..=64 beads (every chunk count and tail length), `None` on
        /// the empty word, past 64 beads, and wherever the planted byte is
        /// in the prefix.
        fn binary_rotation_matches_the_scan(
            cases = 1024,
            raw in prop::vec(0u8..=255, 72..73),
            at in 0usize..72,
            wide in 2u8..=255
        ) {
            let word: Vec<u8> = raw.iter().map(|&b| b & 1).collect();
            let mut planted = word.clone();
            planted[at] = wide;
            for len in 0..=72 {
                check_binary_rotation(&word[..len])?;
                check_binary_rotation(&planted[..len])?;
            }
        }
    }

    #[test]
    fn canon_apply_flags_exactly_the_calls_that_move_the_state() {
        // The owned adapter derives the flag by comparison; the in-place
        // form passes its own through.
        fn least(xs: &[u8; 3]) -> [u8; 3] {
            let mut c = *xs;
            canonicalize_rotation(&mut c);
            c
        }
        fn in_place(xs: &mut [u8; 3]) -> bool {
            canonicalize_rotation(xs)
        }
        for canon in [Canon::Owned(least), Canon::InPlace(in_place)] {
            let mut xs = [1, 0, 0];
            assert!(canon.apply(&mut xs));
            assert_eq!(xs, [0, 0, 1]);
            assert!(!canon.apply(&mut xs));
            assert_eq!(xs, [0, 0, 1]);
        }
    }

    #[test]
    fn neighborhood_wraps_a_radius_past_the_ring() {
        // Radius 4 on a 3-ring: positions -4..=4 around 0. It used to
        // underflow `i + n + d - k` (a panic in debug, a wrap in release).
        assert_eq!(
            neighborhood(&[10, 20, 30], 0, 4),
            vec![30, 10, 20, 30, 10, 20, 30, 10, 20]
        );
    }

    det_prop! {
        /// Every position and radius, against the signed definition.
        fn neighborhood_matches_its_definition(
            cases = 512,
            ring in prop::vec(0u64..=1000, 1..9),
            i in 0usize..=8,
            k in 0usize..=20
        ) {
            let n = ring.len();
            let i = i % n;
            let want: Vec<u64> = (-(k as i64)..=k as i64)
                .map(|d| ring[(i as i64 + d).rem_euclid(n as i64) as usize])
                .collect();
            det_assert_eq!(neighborhood(&ring, i, k), want);
        }
    }

    #[test]
    fn canonical_rotation_is_minimal_and_invariant() {
        let orbit = [vec![2u64, 0, 1], vec![0, 1, 2], vec![1, 2, 0]];
        for xs in &orbit {
            assert_eq!(canonical(xs).0, vec![0, 1, 2]);
        }
        // Minimality: no rotation is lexicographically smaller.
        let xs = [3u64, 1, 4, 1, 5];
        let (canon, _) = canonical(&xs);
        for r in 0..xs.len() {
            let rot: Vec<u64> = (0..xs.len()).map(|k| xs[(r + k) % xs.len()]).collect();
            assert!(canon <= rot);
        }
        // Periodic inputs keep their period.
        assert_eq!(canonical(&[1u64, 0, 1, 0]), (vec![0, 1, 0, 1], true));
    }

    #[test]
    fn figure_4_ring() {
        assert_eq!(bit_reversal_ring(8), vec![0, 4, 2, 6, 1, 5, 3, 7]);
        assert_eq!(bit_reversal_ring(4), vec![0, 2, 1, 3]);
        assert_eq!(bit_reversal_ring(1), vec![0]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bit_reversal_rejects_non_power() {
        bit_reversal_ring(6);
    }

    #[test]
    fn order_equivalence_basic() {
        assert!(order_equivalent(&[3, 1, 2], &[30, 10, 20]));
        assert!(!order_equivalent(&[3, 1, 2], &[1, 3, 2]));
        assert!(!order_equivalent(&[1, 2], &[1, 2, 3]));
        assert!(order_equivalent(&[], &[]));
    }

    #[test]
    fn figure_4_ring_is_highly_symmetric() {
        // In the 8-ring, no position is uniquely distinguishable by its
        // radius-1 neighbourhood: every order-equivalence class has ≥ 2
        // members (positions i and i+4 mirror each other).
        let ring = bit_reversal_ring(8);
        let classes = comparison_symmetry_classes(&ring, 1);
        assert!(
            classes.iter().all(|c| c.len() >= 2),
            "figure-4 ring must have no singleton radius-1 class: {classes:?}"
        );
        assert_eq!(min_symmetry_class(&ring, 1), 2);
    }

    #[test]
    fn sorted_ring_is_less_symmetric_than_figure4() {
        let sym = bit_reversal_ring(8);
        // A monotone ring: the wrap-around positions are uniquely
        // identifiable — singleton classes appear.
        let sorted: Vec<u64> = (0..8).collect();
        assert_eq!(min_symmetry_class(&sorted, 1), 1);
        assert!(min_symmetry_class(&sym, 1) > min_symmetry_class(&sorted, 1));
    }

    #[test]
    fn neighborhood_wraps() {
        let ring = vec![10, 20, 30, 40];
        assert_eq!(neighborhood(&ring, 0, 1), vec![40, 10, 20]);
        assert_eq!(neighborhood(&ring, 3, 1), vec![30, 40, 10]);
    }

    /// Candidate anonymous "max-finding" protocol: everyone starts with the
    /// same label (uniform ring) and floods its value; claims leadership if
    /// it only ever sees its own value. Classic doomed candidate.
    struct FloodMax;
    impl AnonymousRingProtocol for FloodMax {
        type State = (u64, bool, u32); // (max seen, claims_leader, round counter)
        type Msg = u64;
        fn init(&self, _n: usize, input: u64) -> Self::State {
            (input, false, 0)
        }
        fn send(&self, s: &Self::State) -> (Option<u64>, Option<u64>) {
            (Some(s.0), Some(s.0))
        }
        fn recv(&self, s: Self::State, l: Option<u64>, r: Option<u64>) -> Self::State {
            let m = s.0.max(l.unwrap_or(0)).max(r.unwrap_or(0));
            let beaten = l.is_some_and(|v| v > s.0) || r.is_some_and(|v| v > s.0);
            (m, !beaten && s.2 >= 3, s.2 + 1)
        }
        fn is_leader(&self, s: &Self::State) -> bool {
            s.1
        }
    }

    #[test]
    fn uniform_ring_stays_symmetric_and_elects_all_or_none() {
        let sim = LockstepRing::new(&FloodMax, vec![7; 6]);
        assert_eq!(sim.input_period(), 1);
        match sim.run(100) {
            // Everyone claims leadership simultaneously — the "election"
            // is void.
            SymmetryVerdict::SymmetricForever {
                period, leaders, ..
            } => {
                assert_eq!(period, 1);
                assert_eq!(leaders, 6, "by symmetry all 6 claim leadership at once");
            }
            v => panic!("uniform ring must stay symmetric, got {v:?}"),
        }
    }

    /// Not anonymous: a shared counter hands every process a distinct
    /// label once `at` rounds have passed.
    struct LabelsAt {
        at: u32,
        next: std::cell::Cell<u32>,
    }
    impl AnonymousRingProtocol for LabelsAt {
        type State = (u32, u32); // (round, label)
        type Msg = ();
        fn init(&self, _n: usize, _input: u64) -> Self::State {
            (0, 0)
        }
        fn send(&self, _s: &Self::State) -> (Option<()>, Option<()>) {
            (None, None)
        }
        fn recv(&self, s: Self::State, _l: Option<()>, _r: Option<()>) -> Self::State {
            let round = s.0 + 1;
            if round < self.at {
                return (round, 0);
            }
            self.next.set(self.next.get() + 1);
            (round, self.next.get())
        }
        fn is_leader(&self, s: &Self::State) -> bool {
            s.1 == 1
        }
    }

    #[test]
    fn the_last_configuration_of_the_budget_is_checked_too() {
        let labels = LabelsAt {
            at: 5,
            next: std::cell::Cell::new(0),
        };
        let verdict = LockstepRing::new(&labels, vec![0; 4]).run(5);
        assert_eq!(verdict, SymmetryVerdict::SymmetryBroken { round: 5 });
        let labels = LabelsAt {
            at: 6,
            next: std::cell::Cell::new(0),
        };
        assert_eq!(
            LockstepRing::new(&labels, vec![0; 4]).run(5),
            SymmetryVerdict::SymmetricForever {
                period: 1,
                rounds_to_repeat: 5,
                leaders: 0
            }
        );
    }

    #[test]
    fn period_2_labelling_keeps_period_2() {
        let sim = LockstepRing::new(&FloodMax, vec![1, 2, 1, 2, 1, 2]);
        assert_eq!(sim.input_period(), 2);
        match sim.run(50) {
            SymmetryVerdict::SymmetricForever { period, .. } => assert_eq!(period, 2),
            v => panic!("{v:?}"),
        }
    }
}
