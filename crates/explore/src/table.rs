//! The open-addressing fingerprint tables behind the visited set.
//!
//! Fingerprints come out of [`crate::fingerprint::FpHasher`] already mixed,
//! so the tables index them directly — home slot from the key's high bits
//! (the low bits select the shard), linear probing, growth at 50% load.
//! Lookups touch one or two cache lines where a `BTreeMap<u64, _>` chases
//! five nodes — on dedup-bound exploration this is most of the engine's
//! speed over the legacy explorer (the ledger's `table.probe_s` /
//! `table.insert_s` on `grid_w1` price it).
//!
//! Three table shapes live here:
//!
//! * [`FpMap`] — a single open-addressing table, the building block below.
//!   Its slots hold only a key and a 4-byte entry index; the values live
//!   densely in insertion order, so an empty slot costs 12 bytes, not the
//!   width of a value. A zero-sized value (`FpMap<()>`, the key set
//!   `Search::explore` keeps) needs no entry index: its slots are the key
//!   alone, 8 bytes.
//! * [`ShardedFpMap`] — a fixed number of independent `FpMap` shards, where
//!   fingerprint `fp` lives in shard `fp % shards`. The shard function is
//!   the *same* fixed partition function the search engine uses to split
//!   BFS frontiers, so a child bound for shard `k` is deduped against
//!   shard `k` alone and partition `k`'s next frontier *is* shard `k`'s
//!   newly-inserted list (see `docs/EXPLORE.md`, "Sharding &
//!   determinism").
//! * `InternIndex` (crate-private) — the exact graph builder's
//!   key → node-index map: the same sharding, probing and growth, with key
//!   and value packed into one 8-byte word, and every match confirmed by
//!   the caller's state equality instead of trusted. Its keys are not
//!   fingerprints but `IndexHasher` keys of the state's `Hash`: no output
//!   depends on them (`docs/EXPLORE.md`, "Fingerprint dedup and the
//!   collision policy", states the two-hash policy).
//!
//! Determinism: the tables are only ever *probed* (by fingerprint) on hot
//! paths — nothing hot iterates them — so neither probe order nor growth
//! timing can influence a report. The canonical order below
//! ([`FpMap::iter_ordered`], [`FpMap::take_ordered`]) is walked once per
//! shard when a run pauses or spills, and is defined as ascending key
//! order — pinned against a sorted oracle by a `det_prop!` sweep in
//! `tests/determinism.rs`. A page in that order goes back into a table
//! through [`FpMap::from_ascending`].
//!
//! The unoccupied sentinel is fingerprint `0`; real zero fingerprints are
//! folded onto key `1`. That conflates a zero-fingerprint state with a
//! one-fingerprint state at the same 2⁻⁶⁴-ish odds as any other fingerprint
//! collision, which the collision policy ([`crate::fingerprint`]) already
//! covers.

use impossible_det::rng::splitmix64;
use std::hash::{Hash, Hasher};

/// Capacity policy for [`FpMap::try_insert_with`]: either no bound, or an
/// explicit entry cap. Replaces the old `usize::MAX`-as-sentinel
/// convention so "unbounded" is a named case, not a magic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cap {
    /// Inserts never refuse for capacity reasons.
    Unbounded,
    /// At most this many entries; further inserts return
    /// [`TryInsert::Full`].
    At(usize),
}

impl Cap {
    /// Would a table currently holding `len` entries admit one more?
    #[inline]
    fn admits(self, len: usize) -> bool {
        match self {
            Cap::Unbounded => true,
            Cap::At(cap) => len < cap,
        }
    }
}

/// A `u64 → V` map keyed by (pre-mixed) fingerprints.
///
/// Three arrays: `keys`, the probed slot array; `at`, slot → entry index;
/// and `vals`, the entries in insertion order. A slot costs `8 + 4` bytes
/// whether or not it is occupied, a value only `size_of::<V>()` once
/// inserted — at ≤ 50 % load most slots are empty, so the values stay out
/// of the slot arrays. A `Present` hit reads `keys` alone.
///
/// A zero-sized `V` has nothing to index: every value is the same, `vals`
/// allocates nothing and only counts, and `at` is never allocated, so a
/// slot costs 8 bytes (`KEYS_ONLY`).
#[derive(Debug, Clone)]
pub struct FpMap<V> {
    keys: Vec<u64>,
    at: Vec<u32>,
    vals: Vec<V>,
}

/// Outcome of [`FpMap::try_insert_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryInsert {
    /// The fingerprint was already present; nothing inserted.
    Present,
    /// The map was at its cap; nothing inserted.
    Full,
    /// Inserted.
    Inserted,
}

const EMPTY: u64 = 0;

#[inline]
pub(crate) fn key_of(fp: u64) -> u64 {
    if fp == EMPTY {
        1
    } else {
        fp
    }
}

/// The shard/partition owning fingerprint `fp` out of `shards` — the one
/// routing function shared by [`ShardedFpMap`] and the search engine's
/// frontier partitioner (why they must agree: `docs/EXPLORE.md`,
/// "Sharding & determinism").
///
/// Routing happens on the *stored key* (fingerprint `0` folds onto `1`,
/// matching the table's sentinel fold): the flat and sharded tables must
/// conflate the same fingerprints, or their aggregate contents could
/// differ on the `0`/`1` edge case.
#[inline]
pub fn shard_index(fp: u64, shards: usize) -> usize {
    // Same mapping either way; the mask branch just spares the hot paths a
    // hardware divide for power-of-two counts (the default is 64), and
    // predicts perfectly since `shards` is fixed per search.
    let key = key_of(fp);
    if shards.is_power_of_two() {
        (key as usize) & (shards - 1)
    } else {
        (key % shards as u64) as usize
    }
}

/// The entry index the `len`-th insert into one [`FpMap`] gets.
///
/// # Panics
///
/// Past `u32::MAX`: a slot stores its entry index in 4 bytes, so one table
/// (one shard of a [`ShardedFpMap`]) holds at most `u32::MAX + 1` entries.
/// Growth at 50 % load gives each entry at least two 12-byte slots, plus
/// its value: at least 25 bytes an entry for any value that has a width,
/// over 100 GB in one shard (over 170 GB with the search's 16-byte
/// `Link<usize>` values), far beyond any resident search. A table of
/// zero-sized values stores no index and never calls this.
#[inline]
fn entry_index(len: usize) -> u32 {
    u32::try_from(len).expect("FpMap entry index past u32::MAX: one table holds at most 2^32 entries")
}

/// The shallow bytes of an [`FpMap<W>`] with `slots` slots and `entries`
/// entries: 8 per slot for the key, 4 more for the entry index unless `W`
/// is zero-sized, and `size_of::<W>()` per entry.
fn footprint<W>(slots: usize, entries: usize) -> usize {
    let index = if std::mem::size_of::<W>() == 0 { 0 } else { 4 };
    slots * (8 + index) + entries * std::mem::size_of::<W>()
}

impl<V> FpMap<V> {
    /// Zero-sized values: no entry index is stored, `at` stays empty.
    const KEYS_ONLY: bool = std::mem::size_of::<V>() == 0;

    /// The slot → entry-index array for `slots` slots: none at all when
    /// the values are zero-sized.
    fn index_array(slots: usize) -> Vec<u32> {
        if Self::KEYS_ONLY {
            Vec::new()
        } else {
            vec![0; slots]
        }
    }

    /// The entry the occupied slot `i` holds. Any entry will do for a
    /// zero-sized value, and there is one: the slot is occupied.
    #[inline]
    fn entry(&self, i: usize) -> usize {
        if Self::KEYS_ONLY {
            0
        } else {
            self.at[i] as usize
        }
    }

    /// An empty table.
    pub fn new() -> Self {
        FpMap {
            keys: vec![EMPTY; 64],
            at: Self::index_array(64),
            vals: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Shallow byte footprint: `capacity × (8 + 4) + len × size_of::<V>()`
    /// — the key and entry-index slot arrays plus the dense values; a
    /// zero-sized `V` stores no index, so `capacity × 8`. A pure function
    /// of the entry set (capacity doubles at fixed load thresholds), so the
    /// same search samples the same number on every run — deliberately
    /// *not* an RSS syscall.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes_as::<V>()
    }

    /// What [`FpMap::approx_bytes`] would be if this table's entries held
    /// `W` values instead: the same capacity (growth depends on the entry
    /// count alone), priced at `W`'s slot and value widths.
    /// `SearchStats::peak_bytes` prices every route's table as the
    /// link-carrying one through this.
    pub(crate) fn approx_bytes_as<W>(&self) -> usize {
        footprint::<W>(self.keys.len(), self.vals.len())
    }

    /// Drop every entry and shrink back to the empty table's 64-slot
    /// footprint, releasing the grown arrays. The spill path calls this
    /// after paging a shard to disk; `approx_bytes` drops with it.
    pub fn clear(&mut self) {
        *self = FpMap::new();
    }

    #[inline]
    fn slot(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        // Home slot from the HIGH bits of the (pre-mixed) key. The low bits
        // are spoken for: [`shard_index`] routes on `key % shards`, so
        // inside one shard every key agrees on its low bits — indexing by
        // them would fold the whole shard onto 1/shards of its slots and
        // linear probing would degenerate into one long chain. The high
        // bits are untouched by any small modulus.
        let shift = 64 - self.keys.len().trailing_zeros();
        let mut i = (key >> shift) as usize & mask;
        loop {
            let k = self.keys[i];
            if k == EMPTY || k == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the slot arrays, rehashing each key with its entry index (the
    /// key alone for zero-sized values); the values stay where they are.
    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_at = std::mem::replace(&mut self.at, Self::index_array(new_cap));
        for (j, k) in old_keys.into_iter().enumerate() {
            if k != EMPTY {
                let i = self.slot(k);
                self.keys[i] = k;
                if !Self::KEYS_ONLY {
                    self.at[i] = old_at[j];
                }
            }
        }
    }

    /// Fill the empty slot `i` that [`Self::slot`] found for `key` with
    /// `make()`, doubling first (and re-probing) at the 50 % load threshold.
    #[inline]
    fn occupy(&mut self, mut i: usize, key: u64, make: impl FnOnce() -> V) {
        if (self.vals.len() + 1) * 2 > self.keys.len() {
            self.grow();
            i = self.slot(key);
        }
        if !Self::KEYS_ONLY {
            self.at[i] = entry_index(self.vals.len());
        }
        self.keys[i] = key;
        self.vals.push(make());
    }

    /// Is `fp` present?
    pub fn contains(&self, fp: u64) -> bool {
        let key = key_of(fp);
        self.keys[self.slot(key)] == key
    }

    /// The value stored for `fp`, if any.
    pub fn get(&self, fp: u64) -> Option<&V> {
        let key = key_of(fp);
        let i = self.slot(key);
        if self.keys[i] == key {
            Some(&self.vals[self.entry(i)])
        } else {
            None
        }
    }

    /// Insert `make()` under `fp` unless present or already at `cap`.
    /// Growth happens only on the insert path: `Present` and `Full` leave
    /// the table's capacity untouched, so a capped search cannot be made to
    /// double its dedup table by hammering it with duplicates or over-cap
    /// insertions.
    pub fn try_insert_with(&mut self, fp: u64, cap: Cap, make: impl FnOnce() -> V) -> TryInsert {
        let key = key_of(fp);
        let i = self.slot(key);
        if self.keys[i] == key {
            return TryInsert::Present;
        }
        if !cap.admits(self.vals.len()) {
            return TryInsert::Full;
        }
        self.occupy(i, key, make);
        TryInsert::Inserted
    }

    /// Current slot count (not entries — see [`FpMap::len`]). Exposed so
    /// tests can assert that non-inserting operations never grow the table.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// The occupied slots in ascending stored-key order — the one definition
    /// of the canonical order, in one pass over the slot array. The home
    /// slot is the key's high bits and probing only moves forward, so every
    /// entry of a probe cluster (a maximal run of occupied slots) has its
    /// home inside that cluster: clusters in slot order are disjoint
    /// ascending key ranges, and only the entries inside one (a handful at
    /// ≤ 50 % load) need sorting. The exception is a cluster that runs off
    /// the last slot and continues at slot 0: the entries that wrapped sit
    /// below their home slot, are the largest keys of the table, and are
    /// ordered with the last cluster instead of the first.
    fn ordered_slots(&self) -> Vec<usize> {
        let shift = 64 - self.keys.len().trailing_zeros();
        let mut idx = Vec::with_capacity(self.vals.len());
        let mut wrapped = Vec::new();
        let mut cluster = 0;
        for (i, &k) in self.keys.iter().enumerate() {
            if k == EMPTY {
                idx[cluster..].sort_unstable_by_key(|&j| self.keys[j]);
                cluster = idx.len();
            } else if (k >> shift) as usize > i {
                wrapped.push(i);
            } else {
                idx.push(i);
            }
        }
        idx.append(&mut wrapped);
        idx[cluster..].sort_unstable_by_key(|&j| self.keys[j]);
        idx
    }

    /// Entries in ascending key order (the stored key: fingerprint `0`
    /// folds onto `1`). Linear, once per shard, never a per-state path.
    /// This is the canonical iteration order.
    pub fn iter_ordered(&self) -> impl Iterator<Item = (u64, &V)> {
        self.ordered_slots()
            .into_iter()
            .map(|i| (self.keys[i], &self.vals[self.entry(i)]))
    }

    /// Move every entry out, in [`FpMap::iter_ordered`]'s order, leaving
    /// the 64-slot empty table [`FpMap::clear`] leaves. It is what
    /// `Search::suspend` and the spill path's visited flush page shards out
    /// with: both are done with the table, so nothing is cloned.
    ///
    /// The values move into the returned vector in insertion order, each
    /// gets its key from its slot, and the vector is then permuted into key
    /// order in place, cycle by cycle — the ordered slot list, turned into
    /// entry indices, is the only transient buffer. Zero-sized values are
    /// all alike, so they pair with the ordered keys as they come.
    pub fn take_ordered(&mut self) -> Vec<(u64, V)> {
        self.take_ordered_as(|v| v)
    }

    /// [`FpMap::take_ordered`], each value turned into `f(value)` in the
    /// same pass that moves it out: a search's visited shard pages out its
    /// links as checkpoint and run-page parents without a second copy.
    pub(crate) fn take_ordered_as<W>(&mut self, mut f: impl FnMut(V) -> W) -> Vec<(u64, W)> {
        let mut order = self.ordered_slots();
        if Self::KEYS_ONLY {
            let vals = std::mem::take(&mut self.vals);
            let entries: Vec<(u64, W)> = order
                .iter()
                .zip(vals)
                .map(|(&s, v)| (self.keys[s], f(v)))
                .collect();
            self.clear();
            return entries;
        }
        let mut entries: Vec<(u64, W)> = std::mem::take(&mut self.vals)
            .into_iter()
            .map(|v| (EMPTY, f(v)))
            .collect();
        for s in order.iter_mut() {
            let e = self.at[*s] as usize;
            entries[e].0 = self.keys[*s];
            *s = e;
        }
        self.clear();
        // Position p takes entry order[p]: each cycle is walked once, and a
        // filled position is marked `DONE`. The walk stops at the first
        // marked position, so it ends within n steps on any input.
        const DONE: usize = usize::MAX;
        for start in 0..order.len() {
            let mut p = start;
            while order[p] != DONE {
                let q = order[p];
                order[p] = DONE;
                if order[q] == DONE {
                    break;
                }
                entries.swap(p, q);
                p = q;
            }
        }
        entries
    }

    /// The table holding `entries`, which must be in strictly ascending
    /// order of non-zero stored keys — a checkpoint page, i.e. what
    /// [`FpMap::take_ordered`] returned. The slot arrays are allocated once
    /// at the capacity inserting the entries one by one would have doubled
    /// up to (the smallest power of two ≥ max(64, 2·len): growth happens at
    /// 50 % load), so [`FpMap::approx_bytes`] cannot tell the two tables
    /// apart. Ascending keys have non-decreasing home slots, so each entry
    /// lands on the first free slot at or after its home with everything in
    /// between occupied — findable by the forward probe — and only the last
    /// few can run off the end and wrap. The values keep the page's order.
    /// Any exact-size iterator will do, so a page can be converted entry by
    /// entry as it is placed.
    ///
    /// # Panics
    ///
    /// If a key is zero or not greater than its predecessor.
    pub fn from_ascending<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, V)>,
        I::IntoIter: ExactSizeIterator,
    {
        let entries = entries.into_iter();
        let cap = (entries.len() * 2).max(64).next_power_of_two();
        let (shift, mask) = (64 - cap.trailing_zeros(), cap - 1);
        let mut map = FpMap {
            keys: vec![EMPTY; cap],
            at: Self::index_array(cap),
            vals: Vec::with_capacity(entries.len()),
        };
        let (mut prev, mut free) = (EMPTY, 0);
        for (key, v) in entries {
            assert!(key > prev, "page keys must be non-zero and strictly ascending");
            prev = key;
            let mut i = free.max((key >> shift) as usize) & mask;
            while map.keys[i] != EMPTY {
                i = (i + 1) & mask;
            }
            map.keys[i] = key;
            if !Self::KEYS_ONLY {
                map.at[i] = entry_index(map.vals.len());
            }
            map.vals.push(v);
            free = i + 1;
        }
        map
    }
}

impl<V> Default for FpMap<V> {
    fn default() -> Self {
        FpMap::new()
    }
}

/// A visited set split into a fixed number of independent [`FpMap`] shards:
/// fingerprint `fp` lives in shard `fp % shards`.
///
/// The shard function is a pure function of the fingerprint, so shard `k`
/// holds exactly the keys frontier partition `k` can produce, and whole
/// shards ([`Self::shards_mut`]) page out, checkpoint and restore as units.
/// Each shard grows independently, so a hot shard doubling never rehashes
/// the others.
#[derive(Debug, Clone)]
pub struct ShardedFpMap<V> {
    shards: Vec<FpMap<V>>,
    len: usize,
}

impl<V> ShardedFpMap<V> {
    /// An empty map with `shards` shards (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedFpMap {
            shards: (0..shards).map(|_| FpMap::new()).collect(),
            len: 0,
        }
    }

    /// Number of shards (fixed for the map's lifetime).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `fp` — [`shard_index`], the same partition
    /// function the search engine uses to split frontiers.
    #[inline]
    fn shard_of(&self, fp: u64) -> usize {
        shard_index(fp, self.shards.len())
    }

    /// Total entries across all shards.
    ///
    /// After direct mutation through [`Self::shards_mut`] the cached total
    /// is stale until [`Self::refresh_len`] runs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is `fp` present?
    pub fn contains(&self, fp: u64) -> bool {
        self.shards[self.shard_of(fp)].contains(fp)
    }

    /// The value stored for `fp`, if any.
    pub fn get(&self, fp: u64) -> Option<&V> {
        self.shards[self.shard_of(fp)].get(fp)
    }

    /// Sequential insert with a *global* cap across all shards. Same
    /// semantics as [`FpMap::try_insert_with`], with the dedup check taking
    /// precedence over the cap, in a single probe (this is the hot path of
    /// every resident search).
    pub fn try_insert_with(&mut self, fp: u64, cap: Cap, make: impl FnOnce() -> V) -> TryInsert {
        // One key fold serves both the shard routing and the probe.
        let key = key_of(fp);
        let n = self.shards.len();
        let si = if n.is_power_of_two() {
            (key as usize) & (n - 1)
        } else {
            (key % n as u64) as usize
        };
        let shard = &mut self.shards[si];
        let i = shard.slot(key);
        // Dedup before cap, mirroring the flat table: a present fingerprint
        // is never reported Full.
        if shard.keys[i] == key {
            return TryInsert::Present;
        }
        if !cap.admits(self.len) {
            return TryInsert::Full;
        }
        shard.occupy(i, key, make);
        self.len += 1;
        TryInsert::Inserted
    }

    /// Read-only view of the shard array, in shard order.
    pub fn shards(&self) -> &[FpMap<V>] {
        &self.shards
    }

    /// Exclusive access to the shard array, for paging whole shards (level
    /// bodies insert through [`Self::try_insert_with`]). Pausing and
    /// spilling page shard `k` out through it with
    /// [`FpMap::take_ordered`], and a resume assigns
    /// [`FpMap::from_ascending`] of that page back to slot `k`.
    /// Call [`Self::refresh_len`] afterwards.
    pub fn shards_mut(&mut self) -> &mut [FpMap<V>] {
        &mut self.shards
    }

    /// Recompute the cached total after direct shard mutation.
    pub fn refresh_len(&mut self) {
        self.len = self.shards.iter().map(FpMap::len).sum();
    }

    /// Shallow byte footprint: the sum of every shard's
    /// [`FpMap::approx_bytes`]. Worker-count-invariant because shard
    /// growth is driven by the (schedule-independent) entry sets.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes_as::<V>()
    }

    /// The sum of every shard's [`FpMap::approx_bytes_as`]: this map's
    /// footprint had its entries held `W` values.
    pub(crate) fn approx_bytes_as<W>(&self) -> usize {
        self.shards.iter().map(FpMap::approx_bytes_as::<W>).sum()
    }
}

/// The exact graph builder's index key: a seeded word hasher fed through
/// the state's `std::hash::Hash`, never its [`crate::fingerprint::Encode`].
///
/// Each word is absorbed with one rotate-xor-multiply, a bijection of the
/// running state for any fixed word, so two word streams of one length
/// that differ anywhere leave different states; `write` folds its bytes 8
/// to a word (a `Vec<u8>` is its length and ⌈len / 8⌉ words, where
/// [`crate::fingerprint::FpHasher`] spends a `splitmix64` round per byte),
/// and `finish` is one `splitmix64` round, so both the tag (high 32 bits)
/// and the shard (low bits) of the key are avalanched. The seed is
/// `Search::seed`'s. Nothing observable depends on this key — every tag
/// match is confirmed by state equality — which is what lets it differ
/// from the fingerprint and skip its per-word cost (the two-hash policy:
/// `docs/EXPLORE.md`, "Fingerprint dedup and the collision policy").
#[derive(Debug, Clone, Copy)]
pub(crate) struct IndexHasher {
    h: u64,
}

impl IndexHasher {
    /// A hasher keyed by `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        let mut s = seed;
        IndexHasher {
            h: splitmix64(&mut s),
        }
    }

    /// The index key of `value` under this hasher's seed.
    #[inline]
    pub(crate) fn key<T: Hash + ?Sized>(self, value: &T) -> u64 {
        let mut h = self;
        value.hash(&mut h);
        h.finish()
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.h = (self.h.rotate_left(26) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for IndexHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.word(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.word(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.word(n as u64);
        self.word((n >> 64) as u64);
    }

    /// As a `u64`, so a key does not depend on the platform's width.
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut s = self.h;
        splitmix64(&mut s)
    }
}

/// The high half of an [`InternIndex`] word: the key's top 32 bits.
const TAG: u64 = !0 << 32;

/// The index word for node `index` under `key`: the key's tag over
/// `index + 1`, so no entry is the empty word `0`. `None` past the last
/// internable index, `u32::MAX − 1`.
fn intern_word(key: u64, index: usize) -> Option<u64> {
    let low = u32::try_from(index).ok()?.checked_add(1)?;
    Some(key & TAG | u64::from(low))
}

/// The node index an occupied word stands for.
fn word_index(word: u64) -> usize {
    (word as u32 - 1) as usize
}

/// The exact graph builder's intern index: key → node index, where a key
/// (an [`IndexHasher`] key of the state) only *proposes* a node and the
/// caller's state equality decides.
///
/// Each entry is one `u64`, `tag << 32 | (index + 1)`, with `tag` the
/// key's high 32 bits and `0` the empty word: one probe line per
/// lookup, where a [`ShardedFpMap`] of indices reads a key array and then a
/// value array (12 B per slot). Shards are routed by [`shard_index`], as
/// the visited set's are, and each is an open-addressing table probed
/// linearly from the tag's high bits and doubled at 50 % load, so growth
/// rehashes every entry from its word alone. The shards stay for memory,
/// not routing: each doubles on its own, so growth never holds two copies
/// of the whole index at once (ROADMAP, "Measured and lost").
///
/// [`Self::find`] confirms every word whose tag matches with `eq`. A tag
/// shared by different keys, or a key shared by different states, costs
/// one more comparison and the probe goes on: there is no collision chain,
/// and no collision can merge two states.
#[derive(Debug)]
pub(crate) struct InternIndex {
    shards: Vec<InternShard>,
}

/// One shard of an [`InternIndex`]: a power-of-two word array (≥ 64).
#[derive(Debug)]
struct InternShard {
    words: Vec<u64>,
    len: usize,
}

/// Where [`InternIndex::find`] stopped on a miss: the empty slot an insert
/// of that key takes, unless the shard grows first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Vacant {
    shard: usize,
    slot: usize,
}

impl InternShard {
    /// The home slot of a tag (a key or a word: only the high 32 bits
    /// count): its top bits, as [`FpMap`] homes a key — the low bits are
    /// the shard's.
    #[inline]
    fn home(&self, key_or_word: u64) -> usize {
        let shift = 64 - self.words.len().trailing_zeros();
        ((key_or_word & TAG) >> shift) as usize
    }

    /// The first empty slot at or after `word`'s home.
    fn free_slot(&self, word: u64) -> usize {
        let mask = self.words.len() - 1;
        let mut i = self.home(word);
        while self.words[i] != 0 {
            i = (i + 1) & mask;
        }
        i
    }

    fn grow(&mut self) {
        let doubled = vec![0; self.words.len() * 2];
        let old = std::mem::replace(&mut self.words, doubled);
        for w in old.into_iter().filter(|&w| w != 0) {
            let i = self.free_slot(w);
            self.words[i] = w;
        }
    }
}

impl InternIndex {
    /// An empty index of `shards` shards (clamped to ≥ 1), 64 slots each.
    pub(crate) fn new(shards: usize) -> Self {
        InternIndex {
            shards: (0..shards.max(1))
                .map(|_| InternShard {
                    words: vec![0; 64],
                    len: 0,
                })
                .collect(),
        }
    }

    /// The node interned under `key` for which `eq(index)` holds, or where
    /// to insert one. `eq` is asked about every node whose word carries
    /// `key`'s tag, in probe order, until it says yes.
    #[inline]
    pub(crate) fn find(&self, key: u64, mut eq: impl FnMut(usize) -> bool) -> Result<usize, Vacant> {
        let (shard_no, mut i) = self.home_slot(key);
        let shard = &self.shards[shard_no];
        let mask = shard.words.len() - 1;
        let tag = key & TAG;
        loop {
            let w = shard.words[i];
            if w == 0 {
                return Err(Vacant {
                    shard: shard_no,
                    slot: i,
                });
            }
            if w & TAG == tag && eq(word_index(w)) {
                return Ok(word_index(w));
            }
            i = (i + 1) & mask;
        }
    }

    /// The word in `key`'s home slot, whatever it holds: one plain read,
    /// so that a caller can pull the words of a block of keys into cache
    /// before it probes any of them (the graph builder's read-ahead).
    #[inline]
    pub(crate) fn home_word(&self, key: u64) -> u64 {
        let (shard_no, i) = self.home_slot(key);
        self.shards[shard_no].words[i]
    }

    /// `key`'s shard and the slot its probe starts at.
    #[inline]
    fn home_slot(&self, key: u64) -> (usize, usize) {
        let shard_no = shard_index(key, self.shards.len());
        (shard_no, self.shards[shard_no].home(key))
    }

    /// Intern node `index` under `key`, at the slot `find(key, ..)` returned
    /// (re-probed if the shard doubles). `false`, with nothing inserted,
    /// for an index past `u32::MAX − 1`: its word would alias another.
    pub(crate) fn insert(&mut self, vacant: Vacant, key: u64, index: usize) -> bool {
        let Some(word) = intern_word(key, index) else {
            return false;
        };
        let shard = &mut self.shards[vacant.shard];
        let slot = if (shard.len + 1) * 2 > shard.words.len() {
            shard.grow();
            shard.free_slot(word)
        } else {
            vacant.slot
        };
        shard.words[slot] = word;
        shard.len += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impossible_det::{det_assert_eq, det_prop, prop};
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn the_last_internable_index_is_one_short_of_the_u32_range() {
        // Words hold `index + 1`, so `u32::MAX` itself has none: the graph
        // builder reports `Truncation::Index` there instead of wrapping to
        // the empty word's low half.
        let last = u32::MAX as usize - 1;
        for fp in [0, 1, u64::MAX, 0xDEAD_BEEF_0000_0000] {
            for j in [0, 1, 335_022, last] {
                let w = intern_word(fp, j).expect("internable");
                assert_ne!(w, 0, "an entry is never the empty word");
                assert_eq!((word_index(w), w & TAG), (j, fp & TAG));
            }
            assert_eq!(intern_word(fp, last + 1), None);
            assert_eq!(intern_word(fp, usize::MAX), None);
        }
        // And the index refuses it, inserting nothing.
        let mut ix = InternIndex::new(4);
        let Err(vacant) = ix.find(7, |_| true) else {
            panic!("empty index")
        };
        assert!(!ix.insert(vacant, 7, last + 1));
        assert!(ix.find(7, |_| true).is_err());
        assert!(ix.insert(vacant, 7, last));
        assert_eq!(ix.find(7, |_| true), Ok(last));
    }

    #[test]
    fn index_keys_are_seeded_and_spread() {
        // Every byte string of length ≤ 3 over 16 letters — partial words
        // through `write`'s tail — gets its own key under two seeds, the
        // seed moves every key, and the low bits (the shard) and the tag
        // are both spread.
        let strings: Vec<Vec<u8>> = (0..=3u32)
            .flat_map(|len| {
                (0..16u32.pow(len)).map(move |m| (0..len).map(|i| (m >> (4 * i)) as u8 & 15).collect())
            })
            .collect();
        let keys = |seed: u64| -> Vec<u64> {
            let h = IndexHasher::new(seed);
            strings.iter().map(|v| h.key(v)).collect()
        };
        let (a, b) = (keys(1), keys(2));
        for ks in [&a, &b] {
            assert_eq!(ks.iter().collect::<BTreeSet<_>>().len(), strings.len());
            let shards: BTreeSet<u64> = ks.iter().map(|k| k & 63).collect();
            let tags: BTreeSet<u64> = ks.iter().map(|k| k >> 32).collect();
            assert_eq!(shards.len(), 64);
            assert!(tags.len() + 8 >= strings.len(), "{} tags", tags.len());
        }
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    det_prop! {
        /// The index against a `BTreeMap<state, index>` oracle, under a
        /// deliberately weak fingerprint of the state `v`: tag a bijection
        /// of `v >> shift` (an odd multiplier, so homes spread over the
        /// slots), low half `v & low`. A `low` below `2^shift - 1` gives
        /// distinct states equal fingerprints; a `low` above it gives
        /// distinct fingerprints equal tags; `low = 0` routes everything to
        /// one shard, which then doubles several times.
        fn intern_index_matches_a_btreemap(
            cases = 96,
            shift in 0u32..=6,
            low_choice in 0usize..5,
            shards in 1usize..=8,
            ops in prop::vec(0u32..=600, 0..1500)
        ) {
            let low = [0u64, 1, 7, 63, 0xFFFF][low_choice];
            let tag = |v: u32| u64::from((v >> shift).wrapping_mul(0x9E37_79B9));
            let fp = |v: u32| tag(v) << 32 | (u64::from(v) & low);
            let mut ix = InternIndex::new(shards);
            let mut order: Vec<u32> = Vec::new();
            let mut oracle: BTreeMap<u32, usize> = BTreeMap::new();
            for &v in &ops {
                match ix.find(fp(v), |j| order[j] == v) {
                    Ok(j) => det_assert_eq!(oracle.get(&v), Some(&j)),
                    Err(vacant) => {
                        det_assert_eq!(oracle.get(&v), None);
                        let j = order.len();
                        det_assert_eq!(ix.insert(vacant, fp(v), j), true);
                        order.push(v);
                        oracle.insert(v, j);
                    }
                }
            }
            for (&v, &j) in &oracle {
                det_assert_eq!(ix.find(fp(v), |k| order[k] == v).ok(), Some(j));
            }
        }
    }

    det_prop! {
        /// `FpMap<Vec<u8>>` (a value neither `Copy` nor slot-sized) against
        /// a `BTreeMap` oracle. Op `v` is fingerprint `0` or `1` (the folded
        /// zero key: both are stored as `1`), `u64::MAX − v` for `v < 40`
        /// (home slot the last one, so they wrap to slot 0), and a spread
        /// key otherwise; up to ~1600 distinct keys double the table five
        /// times. Every verdict, `len`, `get`, `iter_ordered`, the
        /// accounting, `take_ordered` → `from_ascending` → `get`, and
        /// inserts into the reloaded table that make it double again.
        fn fp_map_of_vectors_matches_a_btreemap(
            cases = 64,
            cap_choice in 0usize..4,
            ops in prop::vec(0u64..1600, 0..2500)
        ) {
            let cap = [Cap::Unbounded, Cap::At(7), Cap::At(150), Cap::At(1000)][cap_choice];
            let fp = |v: u64| match v {
                0 | 1 => v,
                2..=39 => u64::MAX - v,
                _ => v.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            };
            let value = |v: u64, step: usize| format!("{v}@{step}").into_bytes();
            let mut m: FpMap<Vec<u8>> = FpMap::new();
            let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            for (step, &v) in ops.iter().enumerate() {
                let key = key_of(fp(v));
                let want = if oracle.contains_key(&key) {
                    TryInsert::Present
                } else if !cap.admits(oracle.len()) {
                    TryInsert::Full
                } else {
                    oracle.insert(key, value(v, step));
                    TryInsert::Inserted
                };
                det_assert_eq!(m.try_insert_with(fp(v), cap, || value(v, step)), want);
                det_assert_eq!(m.len(), oracle.len());
            }
            let bytes = |m: &FpMap<Vec<u8>>| m.capacity() * 12 + m.len() * std::mem::size_of::<Vec<u8>>();
            det_assert_eq!(m.approx_bytes(), bytes(&m));
            for v in 0..1600 {
                det_assert_eq!(m.get(fp(v)), oracle.get(&key_of(fp(v))));
            }
            let sorted: Vec<(u64, Vec<u8>)> = oracle.into_iter().collect();
            let walked: Vec<(u64, Vec<u8>)> = m.iter_ordered().map(|(k, v)| (k, v.clone())).collect();
            det_assert_eq!(walked, sorted);
            let taken = m.take_ordered();
            det_assert_eq!(taken, sorted);
            det_assert_eq!((m.len(), m.capacity(), m.approx_bytes()), (0, 64, 64 * 12));

            let mut back = FpMap::from_ascending(taken);
            det_assert_eq!(back.approx_bytes(), bytes(&back));
            for (k, v) in &sorted {
                det_assert_eq!(back.get(*k), Some(v));
            }
            let grown_from = back.capacity();
            let fresh = |j: u64| (j + 2000).wrapping_mul(0x2545_F491_4F6C_DD1D);
            let mut j = 0;
            while back.capacity() == grown_from {
                det_assert_eq!(back.try_insert_with(fresh(j), Cap::Unbounded, || vec![j as u8]), TryInsert::Inserted);
                j += 1;
            }
            for (k, v) in &sorted {
                det_assert_eq!(back.get(*k), Some(v));
            }
            for i in 0..j {
                det_assert_eq!(back.get(fresh(i)), Some(&vec![i as u8]));
            }
        }
    }

    det_prop! {
        /// `FpMap<()>` against `FpMap<u32>` under one generated key stream
        /// (the folded zero key, keys that wrap past the last slot, and up
        /// to ~1600 distinct spread keys, so both tables double five
        /// times): the same verdict on every insert, the same `len` and
        /// `capacity` after it, the same `contains` for every key, the same
        /// canonical order and the same table back from a page. The key-only
        /// table never allocates an entry index — a memory regression no
        /// report shows — and prices as the indexed one through
        /// `approx_bytes_as`. A zero-sized `grow` that does not re-home its
        /// keys fails the `contains` sweep.
        fn a_key_only_table_is_the_indexed_one_without_its_index(
            cases = 64,
            cap_choice in 0usize..3,
            ops in prop::vec(0u64..1600, 0..2500)
        ) {
            let cap = [Cap::Unbounded, Cap::At(150), Cap::At(1000)][cap_choice];
            let fp = |v: u64| match v {
                0 | 1 => v,
                2..=39 => u64::MAX - v,
                _ => v.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            };
            let mut keys: FpMap<()> = FpMap::new();
            let mut indexed: FpMap<u32> = FpMap::new();
            for (step, &v) in ops.iter().enumerate() {
                det_assert_eq!(
                    keys.try_insert_with(fp(v), cap, || ()),
                    indexed.try_insert_with(fp(v), cap, || step as u32)
                );
                det_assert_eq!((keys.len(), keys.capacity()), (indexed.len(), indexed.capacity()));
            }
            for v in 0..1600 {
                det_assert_eq!(keys.contains(fp(v)), indexed.contains(fp(v)));
                det_assert_eq!(keys.get(fp(v)).is_some(), indexed.contains(fp(v)));
            }
            det_assert_eq!(keys.at.capacity(), 0);
            det_assert_eq!(keys.approx_bytes(), keys.capacity() * 8);
            det_assert_eq!(keys.approx_bytes_as::<u32>(), indexed.approx_bytes());

            let order: Vec<u64> = indexed.iter_ordered().map(|(k, _)| k).collect();
            det_assert_eq!(keys.iter_ordered().map(|(k, _)| k).collect::<Vec<_>>(), order.clone());
            let taken = keys.take_ordered();
            det_assert_eq!(taken.iter().map(|&(k, ())| k).collect::<Vec<_>>(), order);
            det_assert_eq!((keys.len(), keys.capacity(), keys.at.capacity()), (0, 64, 0));
            let back = FpMap::from_ascending(taken);
            det_assert_eq!((back.capacity(), back.at.capacity()), (indexed.capacity(), 0));
            for v in 0..1600 {
                det_assert_eq!(back.contains(fp(v)), indexed.contains(fp(v)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "entry index past u32::MAX")]
    fn entry_indices_end_at_u32_max() {
        assert_eq!(entry_index(0), 0);
        assert_eq!(entry_index(u32::MAX as usize), u32::MAX);
        entry_index(u32::MAX as usize + 1);
    }

    #[test]
    fn insert_lookup_and_dedup() {
        let mut m: FpMap<usize> = FpMap::new();
        for fp in 1..=500u64 {
            assert_eq!(
                m.try_insert_with(fp * 0x9E37_79B9, Cap::Unbounded, || fp as usize),
                TryInsert::Inserted
            );
        }
        assert_eq!(m.len(), 500);
        for fp in 1..=500u64 {
            assert!(m.contains(fp * 0x9E37_79B9));
            assert_eq!(m.get(fp * 0x9E37_79B9), Some(&(fp as usize)));
            assert_eq!(
                m.try_insert_with(fp * 0x9E37_79B9, Cap::Unbounded, || 0),
                TryInsert::Present
            );
        }
        assert!(!m.contains(12345));
        assert_eq!(m.get(12345), None);
    }

    #[test]
    fn cap_refuses_new_entries_but_admits_lookups() {
        let mut m: FpMap<()> = FpMap::new();
        assert_eq!(m.try_insert_with(7, Cap::At(1), || ()), TryInsert::Inserted);
        assert_eq!(m.try_insert_with(8, Cap::At(1), || ()), TryInsert::Full);
        assert_eq!(m.try_insert_with(7, Cap::At(1), || ()), TryInsert::Present);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn zero_fingerprint_folds_onto_key_one() {
        let mut m: FpMap<u8> = FpMap::new();
        assert_eq!(m.try_insert_with(0, Cap::At(10), || 1), TryInsert::Inserted);
        assert_eq!(m.try_insert_with(1, Cap::At(10), || 2), TryInsert::Present);
        assert!(m.contains(0) && m.contains(1));
    }

    #[test]
    fn present_and_full_never_grow_the_table() {
        let mut m: FpMap<u64> = FpMap::new();
        // Fill to the 50%-load growth threshold exactly: with 64 slots the
        // next *actual* insert (the 33rd) is the one that must double.
        for fp in 1..=32u64 {
            assert_eq!(m.try_insert_with(fp, Cap::Unbounded, || fp), TryInsert::Inserted);
        }
        assert_eq!(m.capacity(), 64);

        // Regression: these non-inserting operations used to grow the
        // table before probing, doubling capacity on every duplicate or
        // over-cap hit at the threshold.
        assert_eq!(m.try_insert_with(7, Cap::Unbounded, || 0), TryInsert::Present);
        assert_eq!(m.capacity(), 64, "Present must not grow");
        assert_eq!(m.try_insert_with(1000, Cap::At(32), || 0), TryInsert::Full);
        assert_eq!(m.capacity(), 64, "Full must not grow");
        assert_eq!(m.get(7), Some(&7), "Present must not overwrite the entry");

        // The insert that actually lands is the one that doubles.
        assert_eq!(m.try_insert_with(33, Cap::Unbounded, || 33), TryInsert::Inserted);
        assert_eq!(m.capacity(), 128);
        assert_eq!(m.len(), 33);
        for fp in 1..=33u64 {
            assert_eq!(m.get(fp), Some(&fp), "entry {fp} survived the resize");
        }
    }

    #[test]
    fn full_at_threshold_stays_probeable() {
        // A capped map parked at the growth threshold keeps serving
        // lookups and Present/Full verdicts without ever resizing.
        let mut m: FpMap<()> = FpMap::new();
        for fp in 1..=32u64 {
            assert_eq!(m.try_insert_with(fp, Cap::At(32), || ()), TryInsert::Inserted);
        }
        for round in 0..3 {
            for fp in 1..=32u64 {
                assert_eq!(m.try_insert_with(fp, Cap::At(32), || ()), TryInsert::Present);
            }
            assert_eq!(m.try_insert_with(100 + round, Cap::At(32), || ()), TryInsert::Full);
            assert_eq!(m.capacity(), 64);
        }
        assert_eq!(m.len(), 32);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut m: FpMap<u64> = FpMap::new();
        for fp in 0..10_000u64 {
            let k = fp.wrapping_mul(0x2545_F491_4F6C_DD1D);
            assert_eq!(m.try_insert_with(k, Cap::Unbounded, || fp), TryInsert::Inserted);
        }
        for fp in 0..10_000u64 {
            let k = fp.wrapping_mul(0x2545_F491_4F6C_DD1D);
            assert_eq!(m.get(k), Some(&fp), "lost {fp}");
        }
    }

    #[test]
    fn cap_admits_boundary() {
        assert!(Cap::Unbounded.admits(usize::MAX - 1));
        assert!(Cap::At(3).admits(2));
        assert!(!Cap::At(3).admits(3));
        assert!(!Cap::At(0).admits(0));
    }

    #[test]
    fn sharded_routes_by_modulus_and_counts_globally() {
        let mut m: ShardedFpMap<u64> = ShardedFpMap::new(8);
        for fp in 1..=100u64 {
            let k = fp.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            assert_eq!(m.try_insert_with(k, Cap::Unbounded, || fp), TryInsert::Inserted);
            assert_eq!(m.try_insert_with(k, Cap::Unbounded, || 0), TryInsert::Present);
        }
        assert_eq!(m.len(), 100);
        for fp in 1..=100u64 {
            let k = fp.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            assert!(m.contains(k));
            assert_eq!(m.get(k), Some(&fp));
            assert_eq!(m.shard_of(k), (k % 8) as usize);
        }
        // Entries really live in their owning shard and nowhere else.
        for fp in 1..=100u64 {
            let k = fp.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let own = m.shard_of(k);
            for (i, shard) in m.shards_mut().iter().enumerate() {
                assert_eq!(shard.contains(k), i == own, "fp {k:#x} shard {i}");
            }
        }
    }

    #[test]
    fn sharded_global_cap_spans_shards() {
        let mut m: ShardedFpMap<()> = ShardedFpMap::new(4);
        for fp in 1..=5u64 {
            assert_eq!(m.try_insert_with(fp, Cap::At(5), || ()), TryInsert::Inserted);
        }
        // The 6th insert refuses even though its own shard holds only one
        // or two entries: the cap is global.
        assert_eq!(m.try_insert_with(6, Cap::At(5), || ()), TryInsert::Full);
        // Dedup still beats the cap.
        assert_eq!(m.try_insert_with(3, Cap::At(5), || ()), TryInsert::Present);
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn shards_mut_plus_refresh_len_round_trips() {
        let mut m: ShardedFpMap<u8> = ShardedFpMap::new(4);
        let n = m.shard_count() as u64;
        for fp in 1..=10u64 {
            let shard = (fp % n) as usize;
            m.shards_mut()[shard].try_insert_with(fp, Cap::Unbounded, || 0);
        }
        m.refresh_len();
        assert_eq!(m.len(), 10);
        for fp in 1..=10u64 {
            assert!(m.contains(fp));
        }
    }

    #[test]
    fn approx_bytes_tracks_growth_and_clear_releases_it() {
        // capacity × (8-byte key + 4-byte entry index) + len × size_of::<V>().
        let mut m: FpMap<u64> = FpMap::new();
        assert_eq!(m.approx_bytes(), 64 * 12);
        // Push past the 50% load threshold a few times; the footprint is a
        // pure function of the entry count, not of insertion history.
        for fp in 1..=200u64 {
            m.try_insert_with(fp, Cap::Unbounded, || fp);
        }
        assert_eq!(m.capacity(), 512);
        assert_eq!(m.approx_bytes(), 512 * 12 + 200 * 8);
        m.clear();
        assert_eq!(m.len(), 0);
        assert_eq!(m.approx_bytes(), 64 * 12);
        assert!(!m.contains(7));
        // Cleared tables accept fresh inserts from a clean slate.
        m.try_insert_with(7, Cap::Unbounded, || 7);
        assert_eq!(m.get(7), Some(&7));
        assert_eq!(m.approx_bytes(), 64 * 12 + 8);

        // A parent link's width: the values are counted per entry, not per slot.
        let mut wide: FpMap<(u64, u64, u64)> = FpMap::new();
        for fp in 1..=100u64 {
            wide.try_insert_with(fp, Cap::Unbounded, || (fp, fp, fp));
        }
        assert_eq!(wide.approx_bytes(), 256 * 12 + 100 * 24);

        let mut sharded: ShardedFpMap<u64> = ShardedFpMap::new(4);
        assert_eq!(sharded.approx_bytes(), 4 * 64 * 12);
        for fp in 1..=500u64 {
            sharded.try_insert_with(fp, Cap::Unbounded, || fp);
        }
        // 125 entries per shard, 256 slots each.
        assert_eq!(sharded.approx_bytes(), 4 * (256 * 12 + 125 * 8));
    }
}
