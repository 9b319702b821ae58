//! The versioned on-disk snapshot of a paused search.
//!
//! Layout (all integers little-endian via [`Persist`]):
//!
//! ```text
//! magic            8 bytes   b"IMPCKPT1"
//! format version   u32       FORMAT_VERSION
//! model fp         u64       canonical model fingerprint (see cache::model_fp)
//! seed             u64       fingerprint seed of the run
//! partitions       u64       shard/partition count (the semantic quantity;
//!                            the transient pool size is deliberately absent)
//! depth            u64       completed levels
//! transitions      u64
//! truncated_by     u8        0 = none, 1 = states, 2 = depth, 3 = index
//! counters         7 × u64   levels, expansions, dedup_hits, canon_hits,
//!                            peak_frontier, cap_fallbacks, peak_bytes
//! visited pages    vec of run page bytes       one delta+varint run page
//!                                              per shard, ascending key
//!                                              (the extmem spill format)
//! frontier pages   vec of frontier page bytes  one varint page per
//!                                              partition, traversal order
//! terminal         vec of state                merge order
//! checksum         u64       FpHasher over every preceding byte
//! ```
//!
//! Version 2 (the spill-to-disk PR) re-encoded the visited and frontier
//! sections as the [`impossible_explore::page`] formats the external-memory
//! engine spills, so a snapshot's pages and a spill run's pages are the
//! same bytes for the same shard — one codec, one set of corruption
//! guards, and the delta compression the run files get for free. It also
//! added `peak_bytes` as the seventh counter.
//!
//! Version 3 changed no section: it changed what `peak_bytes` counts. The
//! visited table's accounting (`FpMap::approx_bytes`, stated once in
//! `docs/EXPLORE.md`, "The visited table") dropped the value width from
//! every slot, so a v2 file carries a high-water mark the resumed run
//! would mix with smaller samples; it is refused rather than resumed into
//! a `peak_bytes` neither formula produces.
//!
//! Version 4 changed no section either. The visited table holds its parent
//! links narrower than the `Parent` pages encode them (16 bytes for a
//! `usize` action, 24 before), and `approx_bytes` counts the values at that
//! width, so a v3 file's `peak_bytes` is a high-water mark of the wider
//! table. It is refused for the same reason. The pages are byte-identical.
//!
//! Because every section is either a counter or a canonically-ordered page
//! of a worker-count-invariant structure, the byte stream is a pure
//! function of `(system, bounds, seed, canon, partitions, budget)`: any
//! worker count on either side of the pause produces the identical file.
//! This mirrors the obs crate's canonical-JSONL discipline — an artifact is
//! evidence only if re-producing it reproduces its bytes.
//!
//! [`Snapshot::save`] never holds the file image. The layout is written
//! once (`write_body`): [`Snapshot::to_bytes`] runs it into a `Vec`, and
//! `save` runs it through a `BufWriter` into the temp file, one page
//! encoded at a time. The checksum absorbs the body's length before its
//! bytes, and the length is known only once the body is written, so
//! `save` then reads the temp file back in 8-byte-aligned chunks to
//! compute it, appends it and renames the file into place. The temp name's
//! tag is a digest of the fixed header, a pure function of the snapshot.
//! Both routes give the same bytes (`tests/snapshot_roundtrip.rs`).
//!
//! Corruption surfaces as typed [`CkptError`]s: a flipped bit fails the
//! trailing checksum (or, in the length prefixes, a `Malformed` decode), a
//! bumped format version fails before any payload decoding, and a snapshot
//! of a different model is refused by fingerprint before the engine ever
//! sees its states.

use impossible_core::explore::Truncation;
use impossible_explore::page::{decode_frontier_page, decode_run_page, encode_frontier_page, encode_run_page};
use impossible_explore::persist::{read_blob, take, Persist, PersistError};
use impossible_explore::search::{Parent, SearchCheckpoint};
use impossible_explore::table::shard_index;
use impossible_explore::FpHasher;
use std::io::{BufWriter, Read, Seek, Write};

/// The 8-byte file magic.
const MAGIC: [u8; 8] = *b"IMPCKPT1";

/// Current snapshot format version. v2: page-encoded visited/frontier
/// sections shared with the extmem spill format, `peak_bytes` counter.
/// v3: the same layout, `peak_bytes` under the dense-value table's
/// accounting. v4: the same layout, `peak_bytes` counting the table's
/// values at the width of the search's parent links.
pub const FORMAT_VERSION: u32 = 4;

/// Seed for the trailing integrity checksum (fixed: the checksum is part of
/// the format, not of any run's fingerprint universe).
const CHECKSUM_SEED: u64 = 0xC4EC_50FF_1CE5_EED5;

/// Typed snapshot failure. Everything a hostile or stale file can do wrong
/// maps onto one of these; decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Shorter than the fixed header + checksum can be.
    TooShort,
    /// The first 8 bytes are not the magic `IMPCKPT1`.
    BadMagic,
    /// Written by a different format version than this build reads.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The trailing checksum does not match the preceding bytes.
    ChecksumMismatch,
    /// The snapshot's model fingerprint differs from the expected model.
    ModelMismatch {
        /// Fingerprint found in the file.
        found: u64,
        /// Fingerprint of the model being resumed.
        expected: u64,
    },
    /// A section failed to decode (truncation, bad tag, hostile length), or
    /// decoded to pages a resume could not use (wrong page count, a zero
    /// key, a key in another shard's page).
    Malformed(&'static str),
    /// Bytes left over after a complete decode.
    TrailingBytes,
    /// Filesystem failure, with the `std::io` error rendered.
    Io(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::TooShort => write!(f, "snapshot too short for header + checksum"),
            CkptError::BadMagic => write!(f, "not a snapshot: bad magic"),
            CkptError::VersionMismatch { found, expected } => {
                write!(f, "snapshot format v{found}, this build reads v{expected}")
            }
            CkptError::ChecksumMismatch => write!(f, "snapshot checksum mismatch (corrupt)"),
            CkptError::ModelMismatch { found, expected } => write!(
                f,
                "snapshot is of model {found:#018x}, expected {expected:#018x}"
            ),
            CkptError::Malformed(what) => write!(f, "malformed snapshot section: {what}"),
            CkptError::TrailingBytes => write!(f, "trailing bytes after snapshot payload"),
            CkptError::Io(e) => write!(f, "snapshot io: {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Codec-layer failures surface as [`CkptError::Malformed`] — the decoders
/// in `impossible_explore::persist`/`page` compose with `?` in snapshot
/// code unchanged. (The `Persist` impls for `Truncation` and `Parent`
/// moved there with the codec; the byte tags are identical.)
impl From<PersistError> for CkptError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Malformed(what) => CkptError::Malformed(what),
        }
    }
}

/// A serializable paused search: the engine's [`SearchCheckpoint`] plus the
/// canonical fingerprint of the model it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot<S, A> {
    /// Canonical model fingerprint ([`crate::cache::model_fp`]); resuming a
    /// different model is refused with [`CkptError::ModelMismatch`].
    pub model_fp: u64,
    /// The suspended engine state.
    pub ckpt: SearchCheckpoint<S, A>,
}

impl<S: Persist, A: Persist> Snapshot<S, A> {
    /// Wrap a paused run for persistence.
    pub fn new(model_fp: u64, ckpt: SearchCheckpoint<S, A>) -> Self {
        Snapshot { model_fp, ckpt }
    }

    /// The canonical byte encoding (format above), checksum included.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_body(&mut out).expect("writing to a Vec cannot fail");
        checksum(&out).write(&mut out);
        out
    }

    /// The fixed-width header: magic through the seven counters.
    fn header(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        FORMAT_VERSION.write(&mut out);
        self.model_fp.write(&mut out);
        self.ckpt.seed.write(&mut out);
        self.ckpt.partitions.write(&mut out);
        self.ckpt.depth.write(&mut out);
        self.ckpt.transitions.write(&mut out);
        match self.ckpt.truncated_by {
            None => out.push(0),
            Some(t) => t.write(&mut out),
        }
        self.ckpt.levels.write(&mut out);
        self.ckpt.expansions.write(&mut out);
        self.ckpt.dedup_hits.write(&mut out);
        self.ckpt.canon_hits.write(&mut out);
        self.ckpt.peak_frontier.write(&mut out);
        self.ckpt.cap_fallbacks.write(&mut out);
        self.ckpt.peak_bytes.write(&mut out);
        out
    }

    /// Everything but the checksum, written once for both [`Snapshot::to_bytes`]
    /// (into a `Vec`) and [`Snapshot::save`] (into the file): the header,
    /// then one page at a time, so no more than a page is encoded ahead of
    /// `w`.
    fn write_body(&self, w: &mut impl Write) -> std::io::Result<()> {
        w.write_all(&self.header())?;
        // Visited shards and frontier partitions travel as the extmem page
        // formats (one length-prefixed page per shard/partition): the same
        // bytes `SpillPolicy` writes to run files, delta compression
        // included.
        write_persisted(w, &self.ckpt.visited.len())?;
        for shard in &self.ckpt.visited {
            write_page(w, &encode_run_page(shard))?;
        }
        write_persisted(w, &self.ckpt.frontier.len())?;
        for part in &self.ckpt.frontier {
            write_page(w, &encode_frontier_page(part))?;
        }
        write_persisted(w, &self.ckpt.terminal)
    }

    /// Decode and validate (magic, version, checksum, exact length). Model
    /// identity is checked separately by [`Snapshot::expect_model`] so a
    /// caller can still *inspect* a snapshot it does not intend to resume.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CkptError> {
        // Header + checksum floor: magic + version + 5×u64 + tag + 6×u64 + checksum.
        if buf.len() < MAGIC.len() + 4 + 8 {
            return Err(CkptError::TooShort);
        }
        if buf[..MAGIC.len()] != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let mut pos = MAGIC.len();
        let version = u32::read(buf, &mut pos)?;
        if version != FORMAT_VERSION {
            return Err(CkptError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        // Verify integrity before decoding the payload: a flipped bit in a
        // length prefix must be reported as corruption, not as whatever
        // Malformed shape it happens to decode into.
        let body_len = buf.len() - 8;
        let mut tail = body_len;
        let stored = u64::read(buf, &mut tail)?;
        if checksum(&buf[..body_len]) != stored {
            return Err(CkptError::ChecksumMismatch);
        }

        let model_fp = u64::read(buf, &mut pos)?;
        let seed = u64::read(buf, &mut pos)?;
        let partitions = usize::read(buf, &mut pos)?;
        let depth = usize::read(buf, &mut pos)?;
        let transitions = usize::read(buf, &mut pos)?;
        let truncated_by = match take(buf, &mut pos, 1, "truncation tag")?[0] {
            0 => None,
            1 => Some(Truncation::States),
            2 => Some(Truncation::Depth),
            3 => Some(Truncation::Index),
            _ => return Err(CkptError::Malformed("truncation tag")),
        };
        let levels = usize::read(buf, &mut pos)?;
        let expansions = usize::read(buf, &mut pos)?;
        let dedup_hits = usize::read(buf, &mut pos)?;
        let canon_hits = usize::read(buf, &mut pos)?;
        let peak_frontier = usize::read(buf, &mut pos)?;
        let cap_fallbacks = usize::read(buf, &mut pos)?;
        let peak_bytes = usize::read(buf, &mut pos)?;
        let visited = read_pages(
            buf,
            &mut pos,
            partitions,
            decode_run_page::<Parent<A>>,
            ["visited page", "visited page count", "visited key in the wrong shard"],
        )?;
        // `0` is the table's empty-slot sentinel, never a stored key; pages
        // ascend, so only a first key can be it.
        if visited.iter().any(|page| page.first().is_some_and(|e| e.0 == 0)) {
            return Err(CkptError::Malformed("visited key zero"));
        }
        let frontier = read_pages(
            buf,
            &mut pos,
            partitions,
            decode_frontier_page::<S>,
            ["frontier page", "frontier page count", "frontier key in the wrong shard"],
        )?;
        let terminal = Vec::<S>::read(buf, &mut pos)?;
        if pos != body_len {
            return Err(CkptError::TrailingBytes);
        }
        Ok(Snapshot {
            model_fp,
            ckpt: SearchCheckpoint {
                seed,
                partitions,
                depth,
                transitions,
                truncated_by,
                visited,
                frontier,
                terminal,
                levels,
                expansions,
                dedup_hits,
                canon_hits,
                peak_frontier,
                cap_fallbacks,
                peak_bytes,
            },
        })
    }

    /// Refuse to hand this snapshot to a different model.
    pub fn expect_model(&self, expected: u64) -> Result<(), CkptError> {
        if self.model_fp != expected {
            return Err(CkptError::ModelMismatch {
                found: self.model_fp,
                expected,
            });
        }
        Ok(())
    }

    /// Write the canonical bytes to `path`, atomically, so a crash
    /// mid-write never leaves a truncated hybrid that [`Snapshot::load`]
    /// would refuse as corrupt. The body streams into the temp file a page
    /// at a time (the file image is never held), the checksum is computed
    /// by reading the body back, and the temp name carries a digest of the
    /// header.
    pub fn save(&self, path: &str) -> Result<(), CkptError> {
        crate::write_atomically(path, checksum(&self.header()), |file| {
            let mut w = BufWriter::new(&mut *file);
            self.write_body(&mut w)?;
            w.flush()?;
            drop(w);
            let body_len = file.stream_position()?;
            file.rewind()?;
            // The read-back leaves the file at the body's end, where the
            // checksum goes.
            let sum = checksum_of(body_len, &mut *file)?;
            file.write_all(&sum.to_le_bytes())
        })
    }

    /// Read, decode and validate a snapshot file.
    pub fn load(path: &str) -> Result<Self, CkptError> {
        let bytes = std::fs::read(path).map_err(|e| CkptError::Io(e.to_string()))?;
        Self::from_bytes(&bytes)
    }
}

/// One page section: a count, then that many length-prefixed pages, each
/// decoded straight from its slice of the file buffer. What
/// `Search::resume` would otherwise assert — or, for a key filed under the
/// wrong shard, silently never find again — is checked here, where a file
/// can still be refused with a typed error: one page per partition, every
/// key in the page [`shard_index`] routes it to. `names` are the
/// [`CkptError::Malformed`] sections for a bad page length, a bad count
/// and a misrouted key.
fn read_pages<T>(
    buf: &[u8],
    pos: &mut usize,
    partitions: usize,
    decode: impl Fn(&[u8]) -> Result<Vec<(u64, T)>, PersistError>,
    names: [&'static str; 3],
) -> Result<Vec<Vec<(u64, T)>>, CkptError> {
    let [blob, count, routing] = names;
    let n = usize::read(buf, pos)?;
    // Before any allocation: `partitions` came out of the same file, and
    // every page costs at least its length prefix.
    if n != partitions || n > buf.len().saturating_sub(*pos) {
        return Err(CkptError::Malformed(count));
    }
    let mut pages = Vec::with_capacity(n);
    for k in 0..n {
        let page = decode(read_blob(buf, pos, blob)?)?;
        if page.iter().any(|&(key, _)| shard_index(key, partitions) != k) {
            return Err(CkptError::Malformed(routing));
        }
        pages.push(page);
    }
    Ok(pages)
}

/// `v`'s [`Persist`] encoding, written to `w`.
fn write_persisted<T: Persist>(w: &mut impl Write, v: &T) -> std::io::Result<()> {
    let mut out = Vec::new();
    v.write(&mut out);
    w.write_all(&out)
}

/// One page as [`read_blob`] reads it back (its length, then its bytes),
/// written to `w` without copying the page.
fn write_page(w: &mut impl Write, page: &[u8]) -> std::io::Result<()> {
    write_persisted(w, &page.len())?;
    w.write_all(page)
}

/// The bytes [`checksum_of`] reads at a time: a multiple of 8, so every
/// chunk but the last is whole words.
const READ_CHUNK: usize = 1 << 16;

/// The trailing integrity checksum of the `len` bytes `body` yields, read
/// [`READ_CHUNK`] bytes at a time: [`FpHasher::write_bytes`] over them
/// (the length, then 8-byte little-endian words, only the last one
/// zero-padded). The one definition: [`checksum`] runs it over a slice,
/// [`Snapshot::save`] over the file it just wrote, before the length was
/// known.
fn checksum_of(len: u64, mut body: impl Read) -> std::io::Result<u64> {
    let mut h = FpHasher::new(CHECKSUM_SEED);
    h.write_u64(len);
    let mut buf = vec![0u8; READ_CHUNK.min(len as usize)];
    let mut left = len as usize;
    while left > 0 {
        let chunk = &mut buf[..left.min(READ_CHUNK)];
        body.read_exact(chunk)?;
        for word in chunk.chunks(8) {
            let mut w = [0u8; 8];
            w[..word.len()].copy_from_slice(word);
            h.write_u64(u64::from_le_bytes(w));
        }
        left -= chunk.len();
    }
    Ok(h.finish())
}

/// The trailing integrity checksum of `bytes` ([`checksum_of`]).
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    checksum_of(bytes.len() as u64, bytes).expect("a slice yields its own length")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot<u64, u8> {
        Snapshot::new(
            0xABCD,
            SearchCheckpoint {
                seed: 7,
                partitions: 2,
                depth: 3,
                transitions: 40,
                truncated_by: Some(Truncation::States),
                visited: vec![
                    vec![(2, Parent::Root(0)), (8, Parent::Child { parent: 2, action: 1 })],
                    vec![(3, Parent::Child { parent: 2, action: 0 })],
                ],
                frontier: vec![vec![(8, 800u64)], vec![]],
                terminal: vec![4, 5],
                levels: 3,
                expansions: 11,
                dedup_hits: 6,
                canon_hits: 0,
                peak_frontier: 5,
                cap_fallbacks: 1,
                peak_bytes: 4096,
            },
        )
    }

    /// Recompute the trailing checksum over an edited body.
    fn reseal(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let sum = super::checksum(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    }

    /// A reader that hands out at most `step` bytes per `read`, as a file
    /// may.
    struct Trickle<'b> {
        bytes: &'b [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = out.len().min(self.step).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    impossible_det::det_prop! {
        /// The streaming checksum is the format's: `FpHasher::write_bytes`
        /// over the body, at every length around the read chunk (chunk − 9
        /// … chunk + 9) and whatever the reads return at a time. Kills a
        /// `checksum_of` that absorbs each read as it comes, zero-padding
        /// every short read rather than the last word only, and a
        /// `READ_CHUNK` that is not a multiple of 8.
        fn the_streaming_checksum_is_write_bytes_over_the_body(
            cases = 48,
            extra in 0usize..19,
            step in 1usize..100,
            fill in 0u64..u64::MAX
        ) {
            let len = READ_CHUNK - 9 + extra;
            let mut s = fill;
            let bytes: Vec<u8> =
                (0..len).map(|_| impossible_det::rng::splitmix64(&mut s) as u8).collect();
            let mut reference = FpHasher::new(CHECKSUM_SEED);
            reference.write_bytes(&bytes);
            impossible_det::det_assert_eq!(checksum(&bytes), reference.finish());
            let trickled = checksum_of(len as u64, Trickle { bytes: &bytes, step });
            impossible_det::det_assert_eq!(trickled.ok(), Some(reference.finish()));
            // A body shorter than its stated length is an error, not a sum.
            impossible_det::det_assert!(checksum_of(len as u64 + 1, &bytes[..]).is_err());
        }
    }

    #[test]
    fn bytes_round_trip_exactly() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = Snapshot::<u64, u8>::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, snap);
        assert_eq!(back.to_bytes(), bytes, "re-encoding reproduces the bytes");
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                let r = Snapshot::<u64, u8>::from_bytes(&bad);
                assert!(
                    r.is_err(),
                    "flip of byte {i} bit {bit} must be rejected, got {r:?}"
                );
            }
        }
    }

    #[test]
    fn version_bump_is_a_typed_mismatch() {
        // Version field sits right after the magic; the checksum guards it
        // too, so rewrite both.
        let vpos = MAGIC.len();
        // The next version, v3 and v2 files (older `peak_bytes` accounting)
        // and a v1 file (pre-page sections) are all refused up front.
        for found in [FORMAT_VERSION + 1, 3, 2, 1] {
            let mut bytes = sample().to_bytes();
            bytes[vpos..vpos + 4].copy_from_slice(&found.to_le_bytes());
            reseal(&mut bytes);
            assert_eq!(
                Snapshot::<u64, u8>::from_bytes(&bytes),
                Err(CkptError::VersionMismatch {
                    found,
                    expected: FORMAT_VERSION
                })
            );
        }
    }

    /// `sample()` with its checkpoint edited, sealed by `to_bytes`: a file
    /// whose checksum holds, so only a check made while decoding can refuse
    /// it.
    fn sealed(edit: impl FnOnce(&mut SearchCheckpoint<u64, u8>)) -> Vec<u8> {
        let mut snap = sample();
        edit(&mut snap.ckpt);
        snap.to_bytes()
    }

    #[test]
    fn what_resume_would_assert_is_a_typed_error_of_the_file() {
        type Edit = fn(&mut SearchCheckpoint<u64, u8>);
        let cases: [(&str, Edit); 8] = [
            ("visited page count", |c| drop(c.visited.pop())),
            ("visited page count", |c| c.visited.push(vec![])),
            ("visited page count", |c| c.partitions = 3),
            ("frontier page count", |c| drop(c.frontier.pop())),
            // Page 1 is where the fold routes key 0, so only the zero check
            // can object — to `[0, 1]` as much as to `[0, 3]`.
            ("visited key zero", |c| c.visited[1] = vec![(0, Parent::Root(0)), (1, Parent::Root(1))]),
            ("visited key zero", |c| c.visited[1].insert(0, (0, Parent::Root(0)))),
            // A key the resumed table would hold but never find again.
            ("visited key in the wrong shard", |c| c.visited.swap(0, 1)),
            ("frontier key in the wrong shard", |c| c.frontier[1].push((8, 800))),
        ];
        for (what, edit) in cases {
            assert_eq!(
                Snapshot::<u64, u8>::from_bytes(&sealed(edit)),
                Err(CkptError::Malformed(what))
            );
        }
        // The edits are what is refused, not the sealing.
        assert_eq!(Snapshot::<u64, u8>::from_bytes(&sealed(|_| {})), Ok(sample()));
    }

    #[test]
    fn a_hostile_page_count_is_refused_before_it_sizes_anything() {
        // `partitions` and the visited count agree on 2⁶² pages: the count
        // check cannot object, the bytes-remaining guard must.
        let mut bytes = sample().to_bytes();
        let partitions_at = MAGIC.len() + 4 + 2 * 8;
        let visited_count_at = partitions_at + 3 * 8 + 1 + 7 * 8;
        for at in [partitions_at, visited_count_at] {
            assert_eq!(bytes[at..at + 8], 2u64.to_le_bytes(), "layout drifted");
            bytes[at..at + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        }
        reseal(&mut bytes);
        assert_eq!(
            Snapshot::<u64, u8>::from_bytes(&bytes),
            Err(CkptError::Malformed("visited page count"))
        );
    }

    #[test]
    fn model_mismatch_is_typed() {
        let snap = sample();
        assert_eq!(snap.expect_model(0xABCD), Ok(()));
        assert_eq!(
            snap.expect_model(0xEEEE),
            Err(CkptError::ModelMismatch {
                found: 0xABCD,
                expected: 0xEEEE
            })
        );
    }

    #[test]
    fn wrong_magic_and_short_files_are_typed() {
        assert_eq!(
            Snapshot::<u64, u8>::from_bytes(b"NOTACKPT"),
            Err(CkptError::TooShort)
        );
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            Snapshot::<u64, u8>::from_bytes(&bytes),
            Err(CkptError::BadMagic)
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        // Appending bytes breaks the checksum (it is positional); to reach
        // the TrailingBytes check we must re-seal, which proves the decode
        // length accounting is exact either way.
        let mut bytes = sample().to_bytes();
        let sum_at = bytes.len() - 8;
        bytes.truncate(sum_at);
        bytes.push(0);
        let sum = super::checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Snapshot::<u64, u8>::from_bytes(&bytes),
            Err(CkptError::TrailingBytes)
        );
    }
}
