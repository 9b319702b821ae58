//! One mutation sweep over the decoders that read what a file holds: a
//! spilled run page (`decode_run_page::<Parent<usize>>`), a frontier page
//! (`decode_frontier_page::<Vec<u8>>`), the same two pages over a §2.1
//! model's states and actions (`MutexState<DijkstraLocal>` — its `Row`s and
//! its local's tags — and `Parent<MutexAction>`), a snapshot
//! ([`Snapshot::from_bytes`]), the verdict cache's text
//! (`VerdictCache::from_text`) and a trace line (`Event::parse_jsonl`).
//!
//! Each case encodes a drawn value, then mutates the bytes four ways —
//! truncate them, extend them by a byte, flip one bit at byte *k*, and
//! forge the leading count — and decodes every mutant. The contract: a
//! typed error, or an `Ok` whose value re-encodes to exactly the mutated
//! bytes (so a decoder never reads two encodings as one value), and never
//! a panic. A snapshot's mutants are decoded twice: as mutated (the
//! checksum must catch them), and with the checksum recomputed over the
//! mutated body, so the structural checks behind it are reached too. A
//! trace line's forged count is its `seq`, respelled as a number the
//! encoder never writes (a leading zero, `-0`, one past a type's range).
//! The one designed exception is the cache's: a retired header is a cold
//! start, an empty cache, whatever follows it.

use crate::cache::{Verdict, VerdictCache, RETIRED};
use crate::snapshot::{checksum, Snapshot};
use impossible_det::{det_assert, det_assert_eq, det_prop, prop};
use impossible_explore::page::{
    decode_frontier_page, decode_run_page, encode_frontier_page, encode_run_page,
};
use impossible_explore::{Grid, Parent, PauseBudget, Resumable, Search};
use impossible_obs::{Event, Value};
use impossible_sharedmem::algorithms::dijkstra::{Dijkstra, DijkstraLocal};
use impossible_sharedmem::mutex::{MutexAction, MutexState};
use impossible_sharedmem::MutexSystem;

/// The four mutants of `bytes`, the last with the bytes in `count` (the
/// leading count) replaced by `forged`.
fn mutants(
    bytes: &[u8],
    [cut, at, bit, extra]: [usize; 4],
    count: std::ops::Range<usize>,
    forged: Vec<u8>,
) -> [Vec<u8>; 4] {
    let truncated = bytes[..cut % bytes.len().max(1)].to_vec();
    let extended = [bytes, &[extra as u8]].concat();
    let mut flipped = bytes.to_vec();
    if !flipped.is_empty() {
        flipped[at % bytes.len()] ^= 1 << (bit % 8);
    }
    let forged = [&bytes[..count.start], &forged[..], &bytes[count.end..]].concat();
    [truncated, extended, flipped, forged]
}

/// LEB128, as the page formats write their counts.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// The byte length of the varint at the start of `bytes`.
fn varint_len(bytes: &[u8]) -> usize {
    bytes.iter().position(|b| b & 0x80 == 0).map_or(bytes.len(), |i| i + 1)
}

/// The decoder's contract on one mutant.
fn holds<T, E>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> bool {
    decode(bytes).map_or(true, |v| encode(&v) == bytes)
}

/// `body` with its checksum recomputed and appended.
fn sealed(body: &[u8]) -> Vec<u8> {
    [body, &checksum(body).to_le_bytes()].concat()
}

/// A real paused run of a small grid: 64 pages of each kind, most empty.
fn snapshot(n: usize, levels: usize) -> Snapshot<Vec<u8>, usize> {
    let sys = Grid { n, max: 3 };
    match Search::new(&sys).run_resumable(PauseBudget::levels(levels)) {
        Resumable::Paused(ckpt) => Snapshot::new(0xC0FFEE, ckpt),
        Resumable::Done(_) => panic!("the grid outlasts {levels} levels"),
    }
}

/// Where a snapshot's first page count (the visited page count) sits:
/// after the magic (8 bytes), the version (4), five header words, the
/// truncation tag (1) and seven counters (8 bytes each).
const VISITED_COUNT: std::ops::Range<usize> = 109..117;

det_prop! {
    fn every_decoder_mutant_is_an_error_or_its_own_encoding(
        cases = 512,
        keys in prop::vec(1u64..1 << 40, 0..12),
        values in prop::vec(0u8..=255, 0..40),
        cut in 0usize..4096,
        at in 0usize..4096,
        bit in 0usize..8,
        extra in 0usize..256,
        forged in 0u64..40,
        grid in 1usize..=3
    ) {
        let knobs = [cut, at, bit, extra];
        // A forged count near the truth, or far past it.
        let forge = |n: usize| match forged {
            0..=31 => (n as u64 + forged).saturating_sub(16),
            _ => u64::MAX >> (forged % 8),
        };

        // Run page: strictly ascending keys, each with a parent record.
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let entries: Vec<(u64, Parent<usize>)> = sorted
            .iter()
            .zip(values.iter().cycle().chain(std::iter::repeat(&0)))
            .map(|(&k, &v)| {
                let parent = if v % 2 == 0 {
                    Parent::Root(usize::from(v))
                } else {
                    Parent::Child { parent: k / 3, action: usize::from(v) }
                };
                (k, parent)
            })
            .collect();
        let bytes = encode_run_page(&entries);
        let count = 0..varint_len(&bytes);
        for m in mutants(&bytes, knobs, count, varint(forge(entries.len()))) {
            det_assert!(holds(&m, decode_run_page::<Parent<usize>>, |v| encode_run_page(v)));
        }

        // Frontier page: unsorted fingerprints, byte-string states.
        let items: Vec<(u64, Vec<u8>)> = keys
            .iter()
            .enumerate()
            .map(|(i, &fp)| (fp, values.iter().skip(i).take(i % 4).copied().collect()))
            .collect();
        let bytes = encode_frontier_page(&items);
        let count = 0..varint_len(&bytes);
        for m in mutants(&bytes, knobs, count, varint(forge(items.len()))) {
            det_assert!(holds(&m, decode_frontier_page::<Vec<u8>>, |v| encode_frontier_page(v)));
        }

        // The same two pages over Dijkstra's states (reachable ones of one
        // or two processes, so rows of several lengths) and actions.
        let alg = Dijkstra::new(1 + grid % 2);
        let states = Search::new(&MutexSystem::new(&alg)).reachable_states();
        let items: Vec<(u64, MutexState<DijkstraLocal>)> = keys
            .iter()
            .zip(values.iter().cycle())
            .map(|(&fp, &v)| (fp, states[usize::from(v) % states.len()].clone()))
            .collect();
        let bytes = encode_frontier_page(&items);
        let count = 0..varint_len(&bytes);
        for m in mutants(&bytes, knobs, count, varint(forge(items.len()))) {
            let decode = decode_frontier_page::<MutexState<DijkstraLocal>>;
            det_assert!(holds(&m, decode, |v| encode_frontier_page(v)));
        }
        let entries: Vec<(u64, Parent<MutexAction>)> = entries
            .iter()
            .map(|(k, parent)| {
                let parent = match *parent {
                    Parent::Root(i) => Parent::Root(i),
                    Parent::Child { parent, action: v } => {
                        let p = v as u32 / 3;
                        let actions =
                            [MutexAction::Try(p), MutexAction::Step(p), MutexAction::Exit(p)];
                        Parent::Child { parent, action: actions[v % 3] }
                    }
                };
                (*k, parent)
            })
            .collect();
        let bytes = encode_run_page(&entries);
        let count = 0..varint_len(&bytes);
        for m in mutants(&bytes, knobs, count, varint(forge(entries.len()))) {
            let decode = decode_run_page::<Parent<MutexAction>>;
            det_assert!(holds(&m, decode, |v| encode_run_page(v)));
        }

        // Snapshot: as mutated, then resealed.
        let snap = snapshot(grid + 1, grid);
        let bytes = snap.to_bytes();
        let body = &bytes[..bytes.len() - 8];
        let pages = snap.ckpt.visited.len();
        det_assert_eq!(bytes[VISITED_COUNT], (pages as u64).to_le_bytes()[..]);
        let forged_count = forge(pages).to_le_bytes().to_vec();
        let decode = Snapshot::<Vec<u8>, usize>::from_bytes;
        for m in mutants(&bytes, knobs, VISITED_COUNT, forged_count.clone()) {
            det_assert!(holds(&m, decode, Snapshot::to_bytes));
        }
        for m in mutants(body, knobs, VISITED_COUNT, forged_count) {
            det_assert!(holds(&sealed(&m), decode, Snapshot::to_bytes));
        }

        // Verdict cache: labels with spaces, the `count` trailer forged.
        let mut cache = VerdictCache::new();
        for (i, &k) in keys.iter().enumerate() {
            let v = values.get(i).copied().unwrap_or(0);
            let verdict = Verdict {
                holds: v % 2 == 1,
                states: usize::from(v) * 7,
                edges: k as usize % 1000,
            };
            cache.insert(k, &format!("job {i} {v}"), verdict);
        }
        let text = cache.to_text();
        let count = text.rfind("count ").map_or(0..0, |s| s + 6..text.len() - 1);
        let forged_count = forge(cache.len()).to_string().into_bytes();
        for m in mutants(text.as_bytes(), knobs, count, forged_count) {
            // A non-UTF-8 file never reaches `from_text`: `load` reports
            // the read as `CkptError::Io`.
            let Ok(m) = std::str::from_utf8(&m) else { continue };
            let retired = RETIRED.contains(&m.lines().next().unwrap_or(""));
            det_assert!(match VerdictCache::from_text(m) {
                Ok(c) if retired => c.is_empty(),
                Ok(c) => c.to_text() == m,
                Err(_) => true,
            });
        }

        // Trace line: every value shape, strings over the whole Latin-1
        // range (quotes, backslashes, control characters, two-byte UTF-8),
        // signed fields down to `i64::MIN`.
        let fields = keys
            .iter()
            .zip(values.iter().cycle())
            .enumerate()
            .map(|(i, (&k, &v))| {
                let value = match v % 5 {
                    0 => Value::U64(k),
                    1 => Value::I64(-(k as i64)),
                    2 => Value::I64(i64::MIN),
                    3 => Value::Bool(k % 2 == 1),
                    _ => Value::Str(
                        values.iter().skip(i).take(6).map(|&b| char::from(b)).collect(),
                    ),
                };
                (format!("f{i}"), value)
            })
            .collect();
        let event = Event {
            seq: keys.len() as u64 * 7,
            scope: "sweep".into(),
            kind: "case".into(),
            fields,
        };
        let line = event.to_jsonl();
        let seq = 7..7 + event.seq.to_string().len();
        let respelled = [
            "007",
            "-0",
            "-9223372036854775808",
            "-18446744073709551615",
            "18446744073709551616",
        ];
        let forged_seq = respelled
            .get(forged as usize % 8)
            .map_or(forge(0).to_string(), |s| s.to_string());
        for m in mutants(line.as_bytes(), knobs, seq, forged_seq.into_bytes()) {
            // A non-UTF-8 file never reaches the decoder: `trace diff`
            // fails reading it.
            let Ok(m) = std::str::from_utf8(&m) else { continue };
            det_assert!(Event::parse_jsonl(m).is_none_or(|e| e.to_jsonl() == m), "{m:?}");
        }
    }
}
