//! The verdict cache: check results keyed by canonical model fingerprint.
//!
//! The checking *service* the roadmap aims at absorbs streams of
//! near-duplicate requests — the same model × property pair arrives over
//! and over with only occasional edits in between. A verdict is a pure
//! function of `(model, property)`, so it is cacheable exactly as long as
//! the key captures everything the verdict depends on. The key here is an
//! [`FpHasher`] fingerprint over the model's registry name, its full
//! parameter vector, and the property name ([`model_fp`] + [`job_key`]):
//! edit any parameter and the key moves, so stale verdicts are unreachable
//! rather than invalidated — the same content-addressing discipline the
//! snapshot format uses for its model field.
//!
//! The on-disk format is a sorted, line-oriented text file (header line
//! `impossible-ckpt-cache v3`, one `key holds states edges label` line per
//! entry in ascending key order, and a `count N` trailer). Sorted text
//! keeps the file deterministic — saving the same cache twice produces the
//! same bytes — and reviewable in a diff, mirroring the canonical-JSONL
//! discipline.
//!
//! The trailer (since v2) and the atomic [`VerdictCache::save`] are
//! durability fixes: v1 had no end-of-file marker, so a file truncated
//! mid-write (a crash during the old bare `std::fs::write`) parsed as a
//! *shorter valid cache* — silently forgetting verdicts, the one failure
//! mode a cache must turn into a loud error rather than absorb. A file
//! whose line count disagrees with its trailer is typed corruption.
//!
//! v3 changed no byte of the layout. It retires every v2 entry: before
//! it, `check manifest` cached a "holds" that a state cap had cut (a
//! verdict only about the explored prefix), and a cache hit never re-runs
//! its job, so such an entry would have outlived the fix. A v1- or
//! v2-headered file is therefore a cold start (verdicts are
//! content-addressed and recomputable, so discarding a retired format is
//! always sound).

use crate::snapshot::CkptError;
use impossible_explore::FpHasher;
use std::collections::BTreeMap;
use std::io::Write;

/// Seed for model/job fingerprints. Fixed and independent of any search
/// seed: cache keys are part of the service contract, not of a run.
const KEY_SEED: u64 = 0x1DEA_CAC4_E5EE_D000;

/// Header line of the cache file format.
const HEADER: &str = "impossible-ckpt-cache v3";

/// Headers of the retired formats: v1 (no trailer; cannot detect
/// truncation) and v2 (may hold a cut "holds"). Loading one is a cold
/// start, not an error.
pub(crate) const RETIRED: [&str; 2] = ["impossible-ckpt-cache v1", "impossible-ckpt-cache v2"];

/// The canonical fingerprint of a model instance: registry name plus full
/// parameter vector. Everything a workload's construction depends on must
/// be in `params` — a parameter the fingerprint skips is an edit the cache
/// will wrongly survive.
pub fn model_fp(name: &str, params: &[u64]) -> u64 {
    let mut h = FpHasher::new(KEY_SEED);
    h.write_bytes(name.as_bytes());
    h.write_usize(params.len());
    for &p in params {
        h.write_u64(p);
    }
    h.finish()
}

/// Cache key of one check job: the model fingerprint plus the property
/// name checked against it.
pub fn job_key(model: u64, property: &str) -> u64 {
    let mut h = FpHasher::new(KEY_SEED);
    h.write_u64(model);
    h.write_bytes(property.as_bytes());
    h.finish()
}

/// A cached check outcome: the boolean verdict plus the region it was
/// established over (enough to cross-check a recomputation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Did the property hold?
    pub holds: bool,
    /// States in the checked region.
    pub states: usize,
    /// Edges in the checked region.
    pub edges: usize,
}

/// An ordered `job_key → (label, verdict)` store with a deterministic
/// text-file round trip. The label is advisory (it makes the file and the
/// reports readable); identity is the key alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerdictCache {
    entries: BTreeMap<u64, (String, Verdict)>,
}

impl VerdictCache {
    /// An empty cache.
    pub fn new() -> Self {
        VerdictCache::default()
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached verdict under `key`, if any.
    pub fn get(&self, key: u64) -> Option<Verdict> {
        self.entries.get(&key).map(|(_, v)| *v)
    }

    /// Store (or overwrite) a verdict.
    pub fn insert(&mut self, key: u64, label: &str, verdict: Verdict) {
        self.entries.insert(key, (label.to_string(), verdict));
    }

    /// Forget the verdict under `key`, if any: a verdict that is no
    /// evidence (a "holds" over a cut graph) must not be served again.
    pub fn remove(&mut self, key: u64) {
        self.entries.remove(&key);
    }

    /// Render the canonical file bytes (header + ascending-key lines +
    /// count trailer).
    pub(crate) fn to_text(&self) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for (key, (label, v)) in &self.entries {
            out.push_str(&format!(
                "{:016x} {} {} {} {}\n",
                key,
                u8::from(v.holds),
                v.states,
                v.edges,
                label
            ));
        }
        out.push_str(&format!("count {}\n", self.entries.len()));
        out
    }

    /// Parse [`VerdictCache::to_text`] output. A file cut short anywhere —
    /// mid-line or between lines — fails the `count` trailer check and
    /// surfaces as [`CkptError::Malformed`], never as a silently smaller
    /// cache; so does any text `to_text` would not have written.
    pub(crate) fn from_text(text: &str) -> Result<Self, CkptError> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h == HEADER => {}
            Some(h) if RETIRED.contains(&h) => return Ok(Self::new()),
            _ => return Err(CkptError::Malformed("cache header")),
        }
        let mut entries = BTreeMap::new();
        let mut sealed: Option<usize> = None;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if sealed.is_some() {
                return Err(CkptError::Malformed("cache lines after count trailer"));
            }
            if let Some(n) = line.strip_prefix("count ") {
                sealed = Some(
                    n.parse()
                        .map_err(|_| CkptError::Malformed("cache count trailer"))?,
                );
                continue;
            }
            let mut parts = line.splitn(5, ' ');
            let key = parts
                .next()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or(CkptError::Malformed("cache key"))?;
            let holds = match parts.next() {
                Some("0") => false,
                Some("1") => true,
                _ => return Err(CkptError::Malformed("cache verdict")),
            };
            let states = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(CkptError::Malformed("cache states"))?;
            let edges = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(CkptError::Malformed("cache edges"))?;
            let label = parts.next().unwrap_or("").to_string();
            entries.insert(
                key,
                (
                    label,
                    Verdict {
                        holds,
                        states,
                        edges,
                    },
                ),
            );
        }
        let cache = match sealed {
            Some(n) if n == entries.len() => VerdictCache { entries },
            Some(_) => return Err(CkptError::Malformed("cache count mismatch")),
            None => return Err(CkptError::Malformed("cache count trailer missing")),
        };
        // Only `to_text`'s own bytes load: a key in upper case or short of
        // 16 digits, a `+5` or `05`, a blank or `\r`-ended line, a missing
        // label separator or final newline — each parses above, and each
        // would be one more text for the same cache.
        if cache.to_text() != text {
            return Err(CkptError::Malformed("cache text not canonical"));
        }
        Ok(cache)
    }

    /// Load from `path`; a missing file is an empty cache (cold start), any
    /// other failure is typed.
    pub fn load(path: &str) -> Result<Self, CkptError> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::from_text(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::new()),
            Err(e) => Err(CkptError::Io(e.to_string())),
        }
    }

    /// Write the canonical text to `path`, atomically: a bare
    /// `std::fs::write` truncates the destination *before* writing, and a
    /// crash in that window left a short file that (pre-v2) parsed as a
    /// valid empty-ish cache. The temp name carries the text's
    /// fingerprint.
    pub fn save(&self, path: &str) -> Result<(), CkptError> {
        let text = self.to_text();
        let mut h = FpHasher::new(KEY_SEED);
        h.write_bytes(text.as_bytes());
        crate::write_atomically(path, h.finish(), |file| file.write_all(text.as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_separate_models_params_and_properties() {
        let ring4 = model_fp("ring", &[4]);
        let ring5 = model_fp("ring", &[5]);
        let grid4 = model_fp("grid", &[4]);
        assert_ne!(ring4, ring5, "a parameter edit must move the key");
        assert_ne!(ring4, grid4, "a model rename must move the key");
        assert_ne!(
            job_key(ring4, "elects"),
            job_key(ring4, "agreement"),
            "the property is part of the key"
        );
        assert_eq!(model_fp("ring", &[4]), ring4, "keys are stable");
    }

    #[test]
    fn text_round_trip_is_exact_and_sorted() {
        let mut c = VerdictCache::new();
        c.insert(
            job_key(model_fp("ring", &[4]), "elects"),
            "ring 4 elects",
            Verdict {
                holds: true,
                states: 13,
                edges: 29,
            },
        );
        c.insert(
            job_key(model_fp("quorum", &[3]), "agreement"),
            "quorum 3 agreement",
            Verdict {
                holds: false,
                states: 700,
                edges: 2100,
            },
        );
        let text = c.to_text();
        assert!(text.starts_with("impossible-ckpt-cache v3\n"));
        assert!(text.ends_with("count 2\n"), "trailer seals the file");
        let back = VerdictCache::from_text(&text).expect("round trip");
        assert_eq!(back, c);
        assert_eq!(back.to_text(), text, "saving twice produces the same bytes");
    }

    #[test]
    fn truncated_files_are_typed_errors_not_smaller_caches() {
        // Regression: v1 had no trailer, so a file cut short by a crashed
        // write parsed as a valid cache with fewer (or zero) entries —
        // silent data loss. Every proper prefix of a current file must now
        // be refused.
        let mut c = VerdictCache::new();
        for i in 0..4u64 {
            c.insert(
                i * 1000 + 7,
                "entry",
                Verdict {
                    holds: i % 2 == 0,
                    states: 10 + i as usize,
                    edges: 20,
                },
            );
        }
        let text = c.to_text();
        // Every data-losing prefix (the final cut only strips the trailing
        // newline of an otherwise-complete file, which is still readable).
        for cut in 0..text.len() - 1 {
            let r = VerdictCache::from_text(&text[..cut]);
            assert!(
                matches!(r, Err(CkptError::Malformed(_))),
                "prefix of {cut} bytes must be typed corruption, got {r:?}"
            );
        }
        // Appending junk after the trailer is equally corrupt.
        let mut trailing = text.clone();
        trailing.push_str("0000000000000001 1 1 1 late\n");
        assert!(VerdictCache::from_text(&trailing).is_err());
    }

    #[test]
    fn retired_files_are_a_cold_start_not_an_error() {
        // v1 cannot prove it is complete, and v2 may hold a "holds" a
        // state cap cut; verdicts are recomputable, so the service
        // restarts cold instead of trusting or rejecting either.
        let v1 = "impossible-ckpt-cache v1\n00000000000000aa 1 2 3 old\n";
        let v2 = "impossible-ckpt-cache v2\n00000000000000aa 1 2 3 cut\ncount 1\n";
        for retired in [v1, v2] {
            let c = VerdictCache::from_text(retired).expect("cold start");
            assert!(c.is_empty());
        }
    }

    #[test]
    fn removed_verdicts_are_gone_from_the_file() {
        let mut c = VerdictCache::new();
        let v = Verdict {
            holds: true,
            states: 1,
            edges: 0,
        };
        c.insert(7, "kept", v);
        c.insert(9, "cut", v);
        c.remove(9);
        c.remove(11);
        assert_eq!(c.get(9), None);
        assert_eq!(c.len(), 1);
        assert!(!c.to_text().contains("cut"));
    }

    #[test]
    fn labels_with_spaces_survive() {
        let mut c = VerdictCache::new();
        c.insert(
            7,
            "a label with several spaces",
            Verdict {
                holds: true,
                states: 1,
                edges: 0,
            },
        );
        let back = VerdictCache::from_text(&c.to_text()).expect("round trip");
        assert_eq!(back, c);
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        for bad in [
            "wrong header\n",
            "impossible-ckpt-cache v3\nnothex 1 2 3 x\ncount 1\n",
            "impossible-ckpt-cache v3\n00000000000000aa 7 2 3 x\ncount 1\n",
            "impossible-ckpt-cache v3\n00000000000000aa 1 no 3 x\ncount 1\n",
            "impossible-ckpt-cache v3\n00000000000000aa 1 2 3 x\ncount 2\n",
            "impossible-ckpt-cache v3\n00000000000000aa 1 2 3 x\ncount nan\n",
            "impossible-ckpt-cache v3\n00000000000000aa 1 2 3 x\n",
        ] {
            assert!(VerdictCache::from_text(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn missing_file_is_a_cold_start() {
        let c = VerdictCache::load("/nonexistent/impossible-ckpt-cache-test").expect("cold");
        assert!(c.is_empty());
    }
}
