//! # impossible-ckpt
//!
//! Checkpoint/restore and incremental checking over the explore stack —
//! the storage and caching layer of the roadmap's checking *service*.
//! Lynch's survey treats impossibility work as re-running the same
//! adversarial arguments against small protocol variations; this crate
//! makes that workload cheap by making search state a first-class,
//! versioned, content-addressed artifact:
//!
//! * [`snapshot`] — the versioned binary [`Snapshot`] format for paused
//!   [`Search::run_resumable`](impossible_explore::Search::run_resumable)
//!   runs: magic, format version, model fingerprint, canonical per-shard
//!   visited pages + frontier, trailing checksum. Byte-identical for any
//!   worker count; corruption and version drift surface as typed
//!   [`CkptError`]s;
//! * [`incr`] — incremental re-exploration after a model edit:
//!   [`ActionEdit`] expresses the edit, [`reexplore_incremental`] re-pays
//!   `enabled`/`step` only on the dirty frontier and splices the old
//!   graph's successor lists everywhere else, provably equal to a full
//!   rebuild;
//! * [`cache`] — the [`VerdictCache`]: check outcomes keyed by
//!   [`model_fp`]/[`job_key`] fingerprints with a deterministic sorted
//!   text-file round trip;
//! * [`manifest`] — [`run_manifest`], the batch scheduler behind
//!   `src/bin/check`: hits served from the cache, misses computed on the
//!   [`WorkerPool`](impossible_explore::WorkerPool), outcomes reported in
//!   manifest order with `scope:"ckpt"` trace events through
//!   [`run_manifest_traced`].
//!
//! The determinism contract everywhere is the repo's usual one: every
//! artifact (snapshot bytes, cache file, manifest report JSON, trace) is a
//! pure function of its declared inputs — worker counts, pause points and
//! process boundaries never change a byte. See `docs/CKPT.md`.

pub mod cache;
pub mod incr;
pub mod manifest;
pub mod snapshot;

#[cfg(test)]
mod mutation_sweep;

pub use cache::{job_key, model_fp, Verdict, VerdictCache};
pub use impossible_explore::Persist;
pub use incr::{crash_process, reexplore_incremental, ActionEdit, IncrStats};
pub use manifest::{run_manifest, run_manifest_traced, CheckJob, JobOutcome, ManifestReport};
pub use snapshot::{CkptError, Snapshot, FORMAT_VERSION};

/// Write a file at `path` atomically: `fill` writes it into the
/// same-directory temp file `{path}.{tag:016x}.tmp`, which is then renamed
/// into place, so a crash mid-write leaves the old file or the new one,
/// never a truncated hybrid. The temp file is opened read + write, so
/// `fill` may read back what it wrote. `tag` is a digest of what is saved
/// (no ambient pid or clock), so the temp name is a pure function of it.
/// Any failure removes the temp file.
fn write_atomically(
    path: &str,
    tag: u64,
    fill: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> Result<(), CkptError> {
    let tmp = format!("{path}.{tag:016x}.tmp");
    std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .and_then(|mut file| fill(&mut file))
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            CkptError::Io(e.to_string())
        })
}
