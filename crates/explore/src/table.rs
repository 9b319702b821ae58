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
//! Two table shapes live here:
//!
//! * [`FpMap`] — a single open-addressing table, the building block below.
//! * [`ShardedFpMap`] — a fixed number of independent `FpMap` shards, where
//!   fingerprint `fp` lives in shard `fp % shards`. The shard function is
//!   the *same* fixed partition function the search engine uses to split
//!   BFS frontiers, so whichever worker claims partition `k` off the shared
//!   claim counter gets shard `k` with it — dedup and insert run
//!   worker-locally with no locks, and the sequential merge degrades to
//!   stitching per-shard outputs in shard order (see `docs/EXPLORE.md`,
//!   "Sharding & determinism").
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
    pub fn admits(self, len: usize) -> bool {
        match self {
            Cap::Unbounded => true,
            Cap::At(cap) => len < cap,
        }
    }
}

/// A `u64 → V` map keyed by (pre-mixed) fingerprints.
#[derive(Debug, Clone)]
pub struct FpMap<V> {
    keys: Vec<u64>,
    vals: Vec<Option<V>>,
    len: usize,
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
/// frontier partitioner, so whichever worker claims partition `k` holds
/// visited shard `k` exclusively for that pass.
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

impl<V> FpMap<V> {
    /// An empty table.
    pub fn new() -> Self {
        FpMap {
            keys: vec![EMPTY; 64],
            vals: (0..64).map(|_| None).collect(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shallow byte footprint of the slot arrays: `capacity × (8 + value
    /// slot width)`. A pure function of the entry set (capacity doubles at
    /// fixed load thresholds), so the same search samples the same number
    /// on every run — the deterministic memory accounting behind
    /// `SearchStats::peak_bytes`, deliberately *not* an RSS syscall.
    pub fn approx_bytes(&self) -> usize {
        self.keys.len() * (8 + std::mem::size_of::<Option<V>>())
    }

    /// Drop every entry and shrink back to the empty table's 64-slot
    /// footprint, releasing the grown slot arrays. The spill path calls
    /// this after paging a shard to disk; `approx_bytes` drops with it.
    pub fn clear(&mut self) {
        self.keys = vec![EMPTY; 64];
        self.vals = (0..64).map(|_| None).collect();
        self.len = 0;
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

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_vals = std::mem::replace(
            &mut self.vals,
            (0..new_cap).map(|_| None).collect(),
        );
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                let i = self.slot(k);
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
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
            self.vals[i].as_ref()
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
        let mut i = self.slot(key);
        if self.keys[i] == key {
            return TryInsert::Present;
        }
        if !cap.admits(self.len) {
            return TryInsert::Full;
        }
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
            i = self.slot(key);
        }
        self.keys[i] = key;
        self.vals[i] = Some(make());
        self.len += 1;
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
        let mut idx = Vec::with_capacity(self.len);
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
            .map(|i| (self.keys[i], self.vals[i].as_ref().expect("occupied")))
    }

    /// Move every entry out, in [`FpMap::iter_ordered`]'s order, leaving
    /// the 64-slot empty table [`FpMap::clear`] leaves. It is what
    /// `Search::suspend` and the spill path's visited flush page shards out
    /// with: both are done with the table, so nothing is cloned.
    pub fn take_ordered(&mut self) -> Vec<(u64, V)> {
        let entries = self
            .ordered_slots()
            .into_iter()
            .map(|i| (self.keys[i], self.vals[i].take().expect("occupied")))
            .collect();
        self.clear();
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
    /// few can run off the end and wrap.
    ///
    /// # Panics
    ///
    /// If a key is zero or not greater than its predecessor.
    pub fn from_ascending(entries: Vec<(u64, V)>) -> Self {
        let cap = (entries.len() * 2).max(64).next_power_of_two();
        let (shift, mask) = (64 - cap.trailing_zeros(), cap - 1);
        let mut map = FpMap {
            keys: vec![EMPTY; cap],
            vals: (0..cap).map(|_| None).collect(),
            len: entries.len(),
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
            map.vals[i] = Some(v);
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
    pub fn shard_of(&self, fp: u64) -> usize {
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
        let mut i = shard.slot(key);
        // Dedup before cap, mirroring the flat table: a present fingerprint
        // is never reported Full.
        if shard.keys[i] == key {
            return TryInsert::Present;
        }
        if !cap.admits(self.len) {
            return TryInsert::Full;
        }
        if (shard.len + 1) * 2 > shard.keys.len() {
            shard.grow();
            i = shard.slot(key);
        }
        shard.keys[i] = key;
        shard.vals[i] = Some(make());
        shard.len += 1;
        self.len += 1;
        TryInsert::Inserted
    }

    /// Read-only view of the shard array, in shard order.
    pub fn shards(&self) -> &[FpMap<V>] {
        &self.shards
    }

    /// Exclusive access to the shard array, for the worker pool: each shard
    /// is claimed by exactly one worker per pass (whole shards off the
    /// atomic claim counter), so the borrows are disjoint by construction.
    /// Pausing and spilling page shard `k` out through it with
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
        self.shards.iter().map(FpMap::approx_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let slot = 8 + std::mem::size_of::<Option<u64>>();
        let mut m: FpMap<u64> = FpMap::new();
        assert_eq!(m.approx_bytes(), 64 * slot);
        // Push past the 50% load threshold a few times; the footprint is a
        // pure function of the entry count, not of insertion history.
        for fp in 1..=200u64 {
            m.try_insert_with(fp, Cap::Unbounded, || fp);
        }
        assert_eq!(m.approx_bytes(), 512 * slot);
        m.clear();
        assert_eq!(m.len(), 0);
        assert_eq!(m.approx_bytes(), 64 * slot);
        assert!(!m.contains(7));
        // Cleared tables accept fresh inserts from a clean slate.
        m.try_insert_with(7, Cap::Unbounded, || 7);
        assert_eq!(m.get(7), Some(&7));

        let mut sharded: ShardedFpMap<u64> = ShardedFpMap::new(4);
        assert_eq!(sharded.approx_bytes(), 4 * 64 * slot);
        for fp in 1..=500u64 {
            sharded.try_insert_with(fp, Cap::Unbounded, || fp);
        }
        let grown: usize = sharded.shards().iter().map(FpMap::approx_bytes).sum();
        assert_eq!(sharded.approx_bytes(), grown);
        assert!(sharded.approx_bytes() > 4 * 64 * slot);
    }
}
