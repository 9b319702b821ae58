//! Seeded 64-bit state fingerprints.
//!
//! The legacy `core::explore::Explorer` dedups by storing full cloned states
//! in a `BTreeMap` — every membership test walks a tree comparing whole
//! states, and every insert clones one. This module replaces that with a
//! *fingerprint visited-set*: each state is reduced to a 64-bit hash of a
//! canonical byte/word encoding, and the visited set stores only the hashes.
//!
//! Three deliberate design points:
//!
//! * **Derive-free, compiler-audited.** [`Fingerprint`] has a blanket impl
//!   for every [`Encode`] type, and `Encode` is a tiny visitor over the
//!   state's structure — no `Ord`/`Hash` bounds, no derive machinery, no
//!   dependence on `std::hash`'s unstable-by-design hasher selection. The
//!   impls for primitives and collections are written here; a state type
//!   lists its fields or variants through [`crate::impl_encode_struct!`] or
//!   [`crate::impl_encode_enum!`], whose exhaustive expansions make a
//!   skipped one a build error, and nothing else may `impl Encode` by hand
//!   (the `encode-coverage` lint, `docs/LINTS.md`).
//! * **Seeded.** The hash is keyed by an explicit `seed` (mixed through
//!   [`impossible_det::rng::splitmix64`]), so a collision is not a fixed property
//!   of a state pair: re-running under a different seed (or under
//!   `DET_SEED`) re-randomizes the fingerprint function. Same seed → same
//!   fingerprints, bit for bit, on every platform.
//! * **Checked where it matters.** Fingerprint equality is *assumed* to
//!   mean state equality in the search's visited set (a 64-bit hash over ≤
//!   a few million states has collision probability ≈ `n²/2⁶⁵`). The exact
//!   graph builder ([`crate::graph`]) does not fingerprint at all: it keys
//!   its index by the state's `std::hash::Hash`, which nothing observable
//!   depends on, and confirms every match by full equality. Over the states
//!   that builder reaches, `tests/explore_equivalence.rs` fingerprints
//!   every one, on a real system for every state type that goes through
//!   either macro, under two seeds, asserting them pairwise distinct beside
//!   a pinned checksum. Which hash is observable and which is not — the
//!   two-hash policy — and the collision policy are stated once, in
//!   `docs/EXPLORE.md` ("Fingerprint dedup and the collision policy").
//!
//! Encodings must be *prefix-unambiguous*: variable-length collections
//! write their length first, enums write a variant tag first. That makes
//! the map from state to word stream injective, so two distinct states
//! collide only if the hash itself collides.

use impossible_det::rng::splitmix64;

/// Streaming word hasher behind [`Fingerprint`].
///
/// Each absorbed word is mixed into the running state with one
/// `splitmix64` round; `finish` applies a final round so short encodings
/// are still well avalanched.
#[derive(Debug, Clone)]
pub struct FpHasher {
    h: u64,
}

impl FpHasher {
    /// A hasher keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
        FpHasher {
            h: splitmix64(&mut s),
        }
    }

    /// Absorb one 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        let mut s = self.h ^ word;
        self.h = splitmix64(&mut s);
    }

    /// Absorb a usize (as u64 — encodings are width-independent).
    #[inline]
    pub fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// Absorb raw bytes, 8 per word, length included.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    /// The 64-bit fingerprint of everything absorbed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        let mut s = self.h;
        splitmix64(&mut s)
    }
}

/// A canonical, prefix-unambiguous word encoding of a value.
///
/// This is the only thing a state type must provide to participate in
/// fingerprint dedup. Implementations must be **total and injective** on the
/// type's reachable values: equal values produce equal streams, distinct
/// values produce distinct streams (given the length/tag prefixing rules in
/// the module docs). All primitive scalars, tuples, `Option`, `Vec`, slices,
/// arrays, `core::row::Row` and the ordered collections are covered here;
/// model crates list their own state types through
/// [`crate::impl_encode_struct!`] (named and tuple structs) and
/// [`crate::impl_encode_enum!`] (C-like and field-carrying enums).
pub trait Encode {
    /// Feed this value's canonical encoding to `h`.
    fn encode(&self, h: &mut FpHasher);
}

/// Seeded 64-bit fingerprints — blanket-implemented for every [`Encode`]
/// type, never derived.
pub trait Fingerprint {
    /// The fingerprint of `self` under `seed`.
    fn fingerprint(&self, seed: u64) -> u64;
}

impl<T: Encode + ?Sized> Fingerprint for T {
    fn fingerprint(&self, seed: u64) -> u64 {
        let mut h = FpHasher::new(seed);
        self.encode(&mut h);
        h.finish()
    }
}

/// Batched encode→fingerprint pipeline: the seeded hasher initialization is
/// hoisted out of the per-state loop and a whole batch of successors is
/// fingerprinted back-to-back into one reused output buffer.
///
/// The search engine's hot loops collect a level's candidate successors
/// first and then run them through [`BatchScratch::fingerprints`] in a
/// tight loop — no per-state seed re-derivation, no per-state output
/// allocation, and a monomorphized loop body the compiler can keep in
/// registers. The contract is strict equivalence: every fingerprint
/// produced here is bit-identical to [`Fingerprint::fingerprint`]`(seed)`
/// on the same value (pinned by this module's tests, the determinism suites
/// and, on every model crate's real states, `tests/explore_equivalence.rs`),
/// so batching is purely a throughput change — never an observable one.
#[derive(Debug)]
pub struct BatchScratch {
    /// Hasher state after absorbing the seed, cloned per item — the
    /// `FpHasher::new(seed)` work done once per batch owner instead of once
    /// per state.
    h0: FpHasher,
    seed: u64,
    fps: Vec<u64>,
}

impl BatchScratch {
    /// A batch pipeline keyed by `seed` (allocation-free until first use).
    pub fn new(seed: u64) -> Self {
        BatchScratch {
            h0: FpHasher::new(seed),
            seed,
            fps: Vec::new(),
        }
    }

    /// The seed this pipeline was keyed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fingerprint every item of `items` in iteration order, returning the
    /// fingerprints as a slice valid until the next call on this scratch.
    ///
    /// Each element is bit-identical to `item.fingerprint(self.seed())` —
    /// cloning the seed-initialized hasher is exactly `FpHasher::new(seed)`
    /// by construction.
    pub fn fingerprints<'a, T, I>(&mut self, items: I) -> &[u64]
    where
        T: Encode + ?Sized + 'a,
        I: IntoIterator<Item = &'a T>,
    {
        self.fps.clear();
        for item in items {
            let mut h = self.h0.clone();
            item.encode(&mut h);
            self.fps.push(h.finish());
        }
        &self.fps
    }

    /// Fingerprint a single value through the batch pipeline (same
    /// equivalence contract as [`BatchScratch::fingerprints`]).
    pub fn fingerprint_one<T: Encode + ?Sized>(&mut self, item: &T) -> u64 {
        let mut h = self.h0.clone();
        item.encode(&mut h);
        h.finish()
    }
}

macro_rules! encode_scalar {
    ($($ty:ty),+ $(,)?) => {$(
        impl Encode for $ty {
            #[inline]
            fn encode(&self, h: &mut FpHasher) {
                h.write_u64(*self as u64);
            }
        }
    )+};
}

encode_scalar!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, char);

impl Encode for () {
    #[inline]
    fn encode(&self, _h: &mut FpHasher) {}
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, h: &mut FpHasher) {
        match self {
            None => h.write_u64(0),
            Some(x) => {
                h.write_u64(1);
                x.encode(h);
            }
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, h: &mut FpHasher) {
        h.write_usize(self.len());
        for x in self {
            x.encode(h);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, h: &mut FpHasher) {
        self.as_slice().encode(h);
    }
}

impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode(&self, h: &mut FpHasher) {
        self.as_slice().encode(h);
    }
}

/// The slice's words, so a `Row` fingerprints as the `Vec` of its values.
impl<T: Encode, const N: usize> Encode for impossible_core::row::Row<T, N> {
    fn encode(&self, h: &mut FpHasher) {
        (**self).encode(h);
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, h: &mut FpHasher) {
        (*self).encode(h);
    }
}

impl Encode for str {
    fn encode(&self, h: &mut FpHasher) {
        h.write_bytes(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, h: &mut FpHasher) {
        h.write_bytes(self.as_bytes());
    }
}

macro_rules! encode_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, h: &mut FpHasher) {
                $(self.$idx.encode(h);)+
            }
        }
    };
}

encode_tuple!(A: 0);
encode_tuple!(A: 0, B: 1);
encode_tuple!(A: 0, B: 1, C: 2);
encode_tuple!(A: 0, B: 1, C: 2, D: 3);
encode_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

impl<K: Encode, V: Encode> Encode for std::collections::BTreeMap<K, V> {
    fn encode(&self, h: &mut FpHasher) {
        h.write_usize(self.len());
        for (k, v) in self {
            k.encode(h);
            v.encode(h);
        }
    }
}

impl<T: Encode> Encode for std::collections::BTreeSet<T> {
    fn encode(&self, h: &mut FpHasher) {
        h.write_usize(self.len());
        for x in self {
            x.encode(h);
        }
    }
}

impl Encode for impossible_core::ids::ProcessId {
    #[inline]
    fn encode(&self, h: &mut FpHasher) {
        h.write_usize(self.0);
    }
}

/// Implement [`Encode`] for an enum by listing every variant with an
/// explicit tag. Handles unit, struct and tuple variants; fields encode in
/// the listed order, after the tag. Tags need not be dense, only distinct.
///
/// ```
/// use impossible_explore::{impl_encode_enum, Fingerprint};
///
/// #[derive(Clone)]
/// enum Phase {
///     Idle,
///     Waiting { round: usize },
///     Done(u64),
/// }
/// impl_encode_enum!(Phase {
///     0: Idle,
///     1: Waiting { round },
///     2: Done(v),
/// });
///
/// assert_ne!(
///     Phase::Waiting { round: 3 }.fingerprint(7),
///     Phase::Done(3).fingerprint(7),
/// );
/// ```
///
/// The listing is audited by the compiler, not by a lint: it expands to
/// exhaustive `match`es with no rest pattern and no wildcard arm, so an
/// encoder that would merge two distinct values does not build. A variant
/// left out is a non-exhaustive `match`:
///
/// ```compile_fail,E0004
/// use impossible_explore::impl_encode_enum;
/// enum Phase { Idle, Waiting { round: usize }, Done(u64) }
/// impl_encode_enum!(Phase { 0: Idle, 1: Waiting { round } });
/// ```
///
/// a struct variant listed without one of its fields is a pattern that
/// does not mention it ("pattern requires `..`", an error rustc gives no
/// code):
///
/// ```compile_fail
/// use impossible_explore::impl_encode_enum;
/// enum Phase { Idle, Waiting { round: usize, since: u64 } }
/// impl_encode_enum!(Phase { 0: Idle, 1: Waiting { round } });
/// ```
///
/// (a tuple variant at the wrong arity is E0023, as for
/// [`crate::impl_encode_struct!`]) and a reused tag — the tag is all that
/// separates two variants' streams — is a repeated discriminant:
///
/// ```compile_fail,E0081
/// use impossible_explore::impl_encode_enum;
/// enum Phase { Idle, Done(u64) }
/// impl_encode_enum!(Phase { 0: Idle, 0: Done(v) });
/// ```
#[macro_export]
macro_rules! impl_encode_enum {
    ($ty:ty { $(
        $tag:literal : $v:ident
            $({ $($sf:ident),+ $(,)? })?
            $(( $($tf:ident),+ $(,)? ))?
    ),+ $(,)? }) => {
        // The tags as discriminants: the compiler wants those distinct.
        const _: () = {
            #[allow(dead_code)]
            #[repr(u64)]
            enum Tags { $($v = $tag),+ }
        };
        impl $crate::Encode for $ty {
            #[inline]
            fn encode(&self, h: &mut $crate::FpHasher) {
                #[allow(unused_variables)]
                let tag: u64 = match self {
                    $(Self::$v $({ $($sf),+ })? $(( $($tf),+ ))? => $tag,)+
                };
                h.write_u64(tag);
                match self {
                    $(Self::$v $({ $($sf),+ })? $(( $($tf),+ ))? => {
                        $($($crate::Encode::encode($sf, h);)+)?
                        $($($crate::Encode::encode($tf, h);)+)?
                    })+
                }
            }
        }
    };
}

/// Implement [`Encode`] for a struct by listing every field (named) or
/// binding every position (tuple); fields encode in the listed order. Type
/// parameters, if any, are listed after the name and each gets an
/// `Encode` bound.
///
/// ```
/// use impossible_explore::{impl_encode_struct, Fingerprint};
///
/// struct Config<L> {
///     locals: Vec<L>,
///     clock: u64,
/// }
/// impl_encode_struct!(Config<L> { locals, clock });
///
/// struct Pair(u8, u8);
/// impl_encode_struct!(Pair(a, b));
///
/// let at = |clock| Config { locals: vec![1u8, 2], clock };
/// assert_ne!(at(0).fingerprint(7), at(1).fingerprint(7));
/// assert_ne!(Pair(0, 1).fingerprint(7), Pair(1, 0).fingerprint(7));
/// ```
///
/// Like [`impl_encode_enum!`] it expands to an irrefutable pattern with no
/// rest pattern, so the compiler rejects a listing that drops a field —
///
/// ```compile_fail
/// use impossible_explore::impl_encode_struct;
/// struct Config { locals: Vec<u8>, clock: u64 }
/// impl_encode_struct!(Config { locals });
/// ```
///
/// — or binds a tuple struct at the wrong arity:
///
/// ```compile_fail,E0023
/// use impossible_explore::impl_encode_struct;
/// struct Pair(u8, u8);
/// impl_encode_struct!(Pair(a));
/// ```
#[macro_export]
macro_rules! impl_encode_struct {
    ($ty:ident $(<$($g:ident),+>)? { $($f:ident),+ $(,)? }) => {
        impl$(<$($g: $crate::Encode),+>)? $crate::Encode for $ty$(<$($g),+>)? {
            #[inline]
            fn encode(&self, h: &mut $crate::FpHasher) {
                let Self { $($f),+ } = self;
                $($crate::Encode::encode($f, h);)+
            }
        }
    };
    ($ty:ident $(<$($g:ident),+>)? ( $($f:ident),+ $(,)? )) => {
        impl$(<$($g: $crate::Encode),+>)? $crate::Encode for $ty$(<$($g),+>)? {
            #[inline]
            fn encode(&self, h: &mut $crate::FpHasher) {
                let Self($($f),+) = self;
                $($crate::Encode::encode($f, h);)+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_value_same_seed_same_fingerprint() {
        let a = vec![1u8, 2, 3];
        assert_eq!(a.fingerprint(42), vec![1u8, 2, 3].fingerprint(42));
    }

    #[test]
    fn seed_changes_fingerprint() {
        let a = vec![1u8, 2, 3];
        assert_ne!(a.fingerprint(1), a.fingerprint(2));
    }

    #[test]
    fn length_prefix_disambiguates_adjacent_collections() {
        // Without length prefixes these would absorb identical streams.
        let a = (vec![1u64], vec![2u64, 3]);
        let b = (vec![1u64, 2], vec![3u64]);
        assert_ne!(a.fingerprint(0), b.fingerprint(0));
        let c: (Vec<u64>, Vec<u64>) = (vec![], vec![1]);
        let d: (Vec<u64>, Vec<u64>) = (vec![1], vec![]);
        assert_ne!(c.fingerprint(0), d.fingerprint(0));
    }

    #[test]
    fn option_tags_disambiguate() {
        assert_ne!(Some(0u64).fingerprint(9), None::<u64>.fingerprint(9));
        // Some(0) must differ from a bare 0 absorbed after a 1-tag of
        // something else — spot-check nested shapes.
        assert_ne!(
            (Some(0u64), 1u64).fingerprint(9),
            (None::<u64>, 1u64).fingerprint(9)
        );
    }

    #[test]
    fn byte_strings_roundtrip_length() {
        assert_ne!("ab".fingerprint(3), "ab\0".fingerprint(3));
        assert_ne!("".fingerprint(3), "\0".fingerprint(3));
    }

    #[test]
    fn no_collisions_over_a_dense_small_space() {
        // 4^6 = 4096 distinct states: a birthday bound of ~2^-41 per pair
        // means any collision here is a bug, not bad luck.
        let mut seen = std::collections::BTreeSet::new();
        for x in 0u64..4096 {
            let state: Vec<u64> = (0..6).map(|k| (x >> (2 * k)) & 3).collect();
            assert!(seen.insert(state.fingerprint(0xDEAD_BEEF)));
        }
    }

    #[derive(Clone)]
    enum Demo {
        A,
        B { x: usize, y: u64 },
        C(u8),
    }
    impl_encode_enum!(Demo {
        0: A,
        1: B { x, y },
        2: C(b),
    });

    struct Rec<T> {
        xs: Vec<T>,
        n: u64,
    }
    impl_encode_struct!(Rec<T> { xs, n });
    struct Tup(u8, Option<u8>);
    impl_encode_struct!(Tup(a, b));

    #[test]
    fn struct_macro_encodes_every_field_in_listed_order() {
        // The expansion is the hand-written impl it replaces: one
        // `encode` per field, in the order listed.
        let mut want = FpHasher::new(5);
        vec![1u8, 2].encode(&mut want);
        9u64.encode(&mut want);
        let rec = Rec { xs: vec![1u8, 2], n: 9 };
        assert_eq!(rec.fingerprint(5), want.finish());
        assert_ne!(rec.fingerprint(5), Rec { xs: vec![1u8], n: 9 }.fingerprint(5));
        assert_eq!(Tup(3, None).fingerprint(5), (3u8, None::<u8>).fingerprint(5));
        assert_ne!(Tup(3, None).fingerprint(5), Tup(3, Some(0)).fingerprint(5));
    }

    #[test]
    fn enum_macro_writes_the_tag_then_the_fields() {
        let mut want = FpHasher::new(5);
        want.write_u64(1);
        4usize.encode(&mut want);
        6u64.encode(&mut want);
        assert_eq!(Demo::B { x: 4, y: 6 }.fingerprint(5), want.finish());
        assert_eq!(Demo::A.fingerprint(5), 0u64.fingerprint(5));
    }

    #[test]
    fn batched_fingerprints_equal_the_scalar_path() {
        // The batch pipeline's strict-equivalence contract, across seeds.
        for seed in [0u64, 7, 0xdead_beef] {
            let mut batch = BatchScratch::new(seed);
            assert_eq!(batch.seed(), seed);

            let words: Vec<Vec<u8>> = (0..25u8).map(|n| (0..n).collect()).collect();
            let scalar: Vec<u64> = words.iter().map(|v| v.fingerprint(seed)).collect();
            assert_eq!(batch.fingerprints(words.iter()), &scalar[..], "seed={seed}");

            // Single-value convenience agrees too.
            assert_eq!(batch.fingerprint_one(&words[3]), scalar[3]);
        }
    }

    #[test]
    fn batch_buffers_are_reused_across_calls() {
        let mut batch = BatchScratch::new(3);
        let big: Vec<Vec<u16>> = (0..64).map(|_| (0..512).collect()).collect();
        let _ = batch.fingerprints(big.iter());
        for n in 0..100u16 {
            let small = [(0..n).collect::<Vec<u16>>()];
            let _ = batch.fingerprints(small.iter());
        }
        assert!(batch.fps.capacity() >= 64, "output buffer capacity survives");
    }

    #[test]
    fn empty_batch_yields_empty_slice() {
        let mut batch = BatchScratch::new(9);
        let none: [u64; 0] = [];
        assert_eq!(batch.fingerprints(none.iter()), &[] as &[u64]);
    }

    #[test]
    fn enum_macro_covers_all_variant_shapes() {
        let fps = [
            Demo::A.fingerprint(5),
            Demo::B { x: 0, y: 0 }.fingerprint(5),
            Demo::C(0).fingerprint(5),
            Demo::B { x: 1, y: 0 }.fingerprint(5),
            Demo::B { x: 0, y: 1 }.fingerprint(5),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j]);
            }
        }
    }
}
