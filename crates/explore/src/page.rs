//! Delta+varint-compressed pages for spilled search state.
//!
//! External-memory BFS ([`crate::extmem`]) writes visited-set shards and
//! frontier partitions to disk and streams them back per level. The page
//! formats here are the durable half of that bargain, built on the
//! reversible [`Persist`] codec so checkpoint
//! snapshots and spill runs share one encoding:
//!
//! * **run pages** — a key block plus a value block (each value via
//!   `Persist`, in key order). The key block is the shard's strictly
//!   ascending 64-bit stored keys as `count · first · deltas`, all LEB128
//!   varints: `FpMap::take_ordered` already yields them ascending, so
//!   deltas are small and a key costs a few bytes instead of 8. The block
//!   is self-delimiting, so the per-level membership filter decodes *only*
//!   the keys and never pays for parent records it does not need;
//! * **frontier pages** — `(fingerprint, state)` records in traversal
//!   order. Frontier fingerprints are unsorted (traversal order is part of
//!   the determinism contract), so keys are plain varints, not deltas —
//!   delta-coding unsorted data would *grow* the page.
//!
//! Every decoder tolerates hostile input: truncation, overflowing or
//! overlong varints, non-ascending keys and lying length prefixes all
//! surface as [`PersistError::Malformed`], never a panic or an OOM-sized
//! pre-allocation.

use crate::persist::{Persist, PersistError};

/// Append `v` as an LEB128 varint (7 bits per byte, low group first,
/// high bit = continuation): 1 byte for values < 128, at most 10 bytes.
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode one LEB128 varint, advancing `*pos` past it.
fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, PersistError> {
    let mut v: u64 = 0;
    for i in 0..10 {
        let Some(&byte) = buf.get(*pos) else {
            return Err(PersistError::Malformed("varint truncated"));
        };
        *pos += 1;
        let group = u64::from(byte & 0x7F);
        // The 10th byte may only carry the top bit of a u64.
        if i == 9 && group > 1 {
            return Err(PersistError::Malformed("varint overflow"));
        }
        v |= group << (7 * i);
        if byte & 0x80 == 0 {
            // A last group of zero is an overlong spelling of a shorter
            // varint: refused, so that every value has one encoding.
            if byte == 0 && i > 0 {
                return Err(PersistError::Malformed("varint overlong"));
            }
            return Ok(v);
        }
    }
    Err(PersistError::Malformed("varint overflow"))
}

/// Append a key block (`count · first · deltas`) to an open page.
///
/// The keys **must** be strictly ascending — the decoder treats a zero
/// delta as corruption (debug builds assert; release builds produce a page
/// the decoder rejects, never a silently wrong one).
fn write_key_block(out: &mut Vec<u8>, keys: &[u64]) {
    write_varint(out, keys.len() as u64);
    let mut prev = None;
    for &k in keys {
        match prev {
            None => write_varint(out, k),
            Some(p) => {
                debug_assert!(k > p, "key blocks require strictly ascending keys");
                write_varint(out, k.wrapping_sub(p));
            }
        }
        prev = Some(k);
    }
}

/// Decode a key block, checking strict ascent and accumulator overflow.
fn read_key_block(buf: &[u8], pos: &mut usize) -> Result<Vec<u64>, PersistError> {
    let n = read_varint(buf, pos)?;
    // Hostile-length guard: every key costs at least one byte on disk.
    if n > (buf.len().saturating_sub(*pos) as u64) {
        return Err(PersistError::Malformed("key page count"));
    }
    let n = n as usize;
    let mut keys = Vec::with_capacity(n);
    let mut prev: Option<u64> = None;
    for _ in 0..n {
        let raw = read_varint(buf, pos)?;
        let k = match prev {
            None => raw,
            Some(p) => {
                if raw == 0 {
                    return Err(PersistError::Malformed("key page zero delta"));
                }
                p.checked_add(raw)
                    .ok_or(PersistError::Malformed("key page delta overflow"))?
            }
        };
        keys.push(k);
        prev = Some(k);
    }
    Ok(keys)
}

/// Encode a visited run page: ascending `(key, value)` entries as a key
/// block followed by the values in key order.
pub fn encode_run_page<V: Persist>(entries: &[(u64, V)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * 3 + 10);
    let keys: Vec<u64> = entries.iter().map(|&(k, _)| k).collect();
    write_key_block(&mut out, &keys);
    for (_, v) in entries {
        v.write(&mut out);
    }
    out
}

/// Decode only a run page's key block — the per-level membership filter's
/// path, which never touches the value bytes (so it cannot see trailing
/// ones either: [`decode_run_page`] rejects those).
pub fn run_page_keys(buf: &[u8]) -> Result<Vec<u64>, PersistError> {
    let mut pos = 0;
    read_key_block(buf, &mut pos)
}

/// Decode a full run page back to its `(key, value)` entries.
pub fn decode_run_page<V: Persist>(buf: &[u8]) -> Result<Vec<(u64, V)>, PersistError> {
    let mut pos = 0;
    let keys = read_key_block(buf, &mut pos)?;
    let mut entries = Vec::with_capacity(keys.len());
    for k in keys {
        entries.push((k, V::read(buf, &mut pos)?));
    }
    if pos != buf.len() {
        return Err(PersistError::Malformed("run page trailing bytes"));
    }
    Ok(entries)
}

/// Encode a frontier page: `(fingerprint, state)` records in traversal
/// order (order is preserved exactly — it is part of the report bytes).
pub fn encode_frontier_page<S: Persist>(items: &[(u64, S)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(items.len() * 4 + 10);
    write_varint(&mut out, items.len() as u64);
    for (fp, s) in items {
        write_varint(&mut out, *fp);
        s.write(&mut out);
    }
    out
}

/// Decode a frontier page back to its records, in encoded order.
pub fn decode_frontier_page<S: Persist>(buf: &[u8]) -> Result<Vec<(u64, S)>, PersistError> {
    let mut pos = 0;
    let n = read_varint(buf, &mut pos)?;
    if n > (buf.len().saturating_sub(pos) as u64) {
        return Err(PersistError::Malformed("frontier page count"));
    }
    let mut items = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let fp = read_varint(buf, &mut pos)?;
        items.push((fp, S::read(buf, &mut pos)?));
    }
    if pos != buf.len() {
        return Err(PersistError::Malformed("frontier page trailing bytes"));
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::Parent;

    #[test]
    fn varints_round_trip_and_are_compact() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
        let mut out = Vec::new();
        write_varint(&mut out, 5);
        assert_eq!(out.len(), 1);
        let mut out = Vec::new();
        write_varint(&mut out, u64::MAX);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn varint_overflow_and_truncation_are_malformed() {
        // 11 continuation bytes can never be a u64.
        let buf = [0xFFu8; 11];
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos).is_err());
        // A 10th byte carrying more than the top bit overflows too.
        let mut buf = [0x80u8; 10];
        buf[9] = 0x02;
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos).is_err());
        let mut pos = 0;
        assert!(read_varint(&[0x80], &mut pos).is_err());
        // An overlong spelling — 5 as `0x85 0x00`, 0 as `0x80 0x00` — is
        // refused; only the one-byte forms read.
        for overlong in [[0x85u8, 0x00], [0x80, 0x00]] {
            let mut pos = 0;
            assert!(read_varint(&overlong, &mut pos).is_err());
        }
        let mut pos = 0;
        assert_eq!(read_varint(&[0x00], &mut pos), Ok(0));
    }

    #[test]
    fn key_blocks_round_trip_identity() {
        for keys in [
            vec![],
            vec![0u64],
            vec![u64::MAX],
            vec![1, 2, 3, 4, 5],
            vec![7, 1000, 1001, 1 << 40, u64::MAX],
        ] {
            let entries: Vec<(u64, u8)> = keys.iter().map(|&k| (k, k as u8)).collect();
            let page = encode_run_page(&entries);
            assert_eq!(run_page_keys(&page).unwrap(), keys, "{keys:?}");
            assert_eq!(decode_run_page::<u8>(&page).unwrap(), entries, "{keys:?}");
        }
    }

    #[test]
    fn dense_key_blocks_compress_far_below_raw_width() {
        // Shard-ordered fingerprints stride by the shard count; the delta
        // coding should beat 8 bytes/key by a wide margin.
        let entries: Vec<(u64, u8)> = (0..10_000u64).map(|i| (1_000_000 + i * 64, 0)).collect();
        let page = encode_run_page(&entries);
        // One byte per `u8` value; the rest is the key block.
        let key_block = page.len() - entries.len();
        assert!(
            key_block < entries.len() * 2 + 16,
            "key block is {key_block} bytes for {} keys",
            entries.len()
        );
    }

    #[test]
    fn corrupt_key_blocks_are_rejected_by_both_run_page_decoders() {
        // `read_key_block`'s validation, through both of its callers.
        let page = encode_run_page(&[(10u64, 1u8), (20, 2), (30, 3)]);
        let mut key_block = 0;
        read_key_block(&page, &mut key_block).unwrap();
        assert!(key_block < page.len(), "values follow the key block");
        for cut in 0..page.len() {
            assert!(decode_run_page::<u8>(&page[..cut]).is_err(), "cut at {cut}");
            // The keys-only path never reads past the key block.
            assert_eq!(
                run_page_keys(&page[..cut]).is_err(),
                cut < key_block,
                "cut at {cut}"
            );
        }
        let mut trailing = page.clone();
        trailing.push(0);
        assert!(decode_run_page::<u8>(&trailing).is_err());
        // Hand-built key blocks (`count · first · deltas`, as varints).
        let block = |words: &[u64]| {
            let mut out = Vec::new();
            words.iter().for_each(|&w| write_varint(&mut out, w));
            out
        };
        let mut overlong = block(&[1]);
        overlong.extend([0xFF; 11]);
        for (bad, why) in [
            // Zero delta (a duplicate key) is corruption, not a quiet merge.
            (block(&[2, 10, 0]), "key page zero delta"),
            // A descending key is a delta that wraps the accumulator.
            (
                block(&[2, 20, 10u64.wrapping_sub(20)]),
                "key page delta overflow",
            ),
            (block(&[2, u64::MAX, 1]), "key page delta overflow"),
            (overlong, "varint overflow"),
            // A count larger than the page can hold is rejected before any
            // allocation of that size.
            (block(&[u64::MAX - 1]), "key page count"),
        ] {
            assert_eq!(run_page_keys(&bad), Err(PersistError::Malformed(why)));
            assert_eq!(
                decode_run_page::<u8>(&bad),
                Err(PersistError::Malformed(why))
            );
        }
    }

    #[test]
    fn run_pages_round_trip_and_expose_keys_cheaply() {
        let entries: Vec<(u64, Parent<u8>)> = vec![
            (3, Parent::Root(0)),
            (90, Parent::Child { parent: 3, action: 2 }),
            (4000, Parent::Child { parent: 90, action: 9 }),
        ];
        let page = encode_run_page(&entries);
        assert_eq!(decode_run_page::<Parent<u8>>(&page).unwrap(), entries);
        assert_eq!(run_page_keys(&page).unwrap(), vec![3, 90, 4000]);
        for cut in 0..page.len() {
            assert!(decode_run_page::<Parent<u8>>(&page[..cut]).is_err());
        }
        let empty = encode_run_page::<Parent<u8>>(&[]);
        assert!(decode_run_page::<Parent<u8>>(&empty).unwrap().is_empty());
    }

    #[test]
    fn frontier_pages_preserve_traversal_order_exactly() {
        // Deliberately unsorted fingerprints: order must survive untouched.
        let items: Vec<(u64, Vec<u8>)> = vec![
            (900, vec![1, 2]),
            (3, vec![]),
            (u64::MAX, vec![0; 5]),
            (3, vec![9]), // duplicate fp is legal in a frontier page
        ];
        let page = encode_frontier_page(&items);
        assert_eq!(decode_frontier_page::<Vec<u8>>(&page).unwrap(), items);
        for cut in 0..page.len() {
            assert!(decode_frontier_page::<Vec<u8>>(&page[..cut]).is_err());
        }
        let mut trailing = page.clone();
        trailing.push(7);
        assert!(decode_frontier_page::<Vec<u8>>(&trailing).is_err());
    }
}
