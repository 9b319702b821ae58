//! The snapshot acceptance contract, end to end: pause a search, seal it
//! into canonical snapshot bytes, decode them back, resume — and land on a
//! report identical to the uninterrupted run. Plus the refusal side:
//! flipped bits and version drift must surface as typed errors, never as a
//! silently different search. And the file side: `save`, which streams the
//! body and checksums it by reading it back, writes exactly `to_bytes()`,
//! and a save that fails is an `Io` error that leaves no temp file and
//! every snapshot on disk as it was.

use impossible_ckpt::{model_fp, CkptError, Snapshot, FORMAT_VERSION};
use impossible_det::{det_assert, det_assert_eq, det_prop};
use impossible_det::prop;
use impossible_explore::search::{Parent, SearchCheckpoint};
use impossible_explore::table::shard_index;
use impossible_explore::{Grid, PauseBudget, Resumable, Search, SearchReport};
use std::path::{Path, PathBuf};

const GRID: Grid = Grid { n: 4, max: 3 };

fn grid_fp() -> u64 {
    model_fp("grid", &[GRID.n as u64, GRID.max as u64])
}

/// Run until `pause_at` states, seal → bytes → decode, resume to
/// completion.
fn through_snapshot(seed: u64, pause_at: usize) -> SearchReport<Vec<u8>, usize> {
    let run = Search::new(&GRID)
        .seed(seed)
        .run_resumable(PauseBudget::states(pause_at));
    match run {
        Resumable::Done(r) => r,
        Resumable::Paused(ckpt) => {
            let snap = Snapshot::new(grid_fp(), ckpt);
            let bytes = snap.to_bytes();
            let back = Snapshot::<Vec<u8>, usize>::from_bytes(&bytes).expect("decode");
            back.expect_model(grid_fp()).expect("same model");
            assert_eq!(back, snap, "decode inverts encode exactly");
            let resumed = Search::new(&GRID)
                .seed(seed)
                .resume(back.ckpt, PauseBudget::never());
            resumed.done().expect("unbounded resume finishes")
        }
    }
}

det_prop! {
    fn save_load_continue_is_byte_identical(
        cases = 10,
        seed in 0u64..1_000_000,
        pause_at in 10usize..250
    ) {
        let expected = Search::new(&GRID).seed(seed).explore();
        let got = through_snapshot(seed, pause_at);
        det_assert_eq!(expected, got);
        det_assert!(got.num_states > 0, "report must render");
    }
}

/// A fresh, empty directory under the test target dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch dir");
    dir
}

/// The names in `dir` that end in `.tmp`: a save's temp files left behind.
fn temp_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list the scratch dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    names.sort();
    names
}

/// `save` writes exactly `to_bytes()`, leaves no temp file beside the
/// target, and the file loads back to `snap`.
fn assert_saved_as_bytes(snap: &Snapshot<Vec<u8>, usize>, dir: &Path) {
    let path = dir.join("saved.ckpt");
    let path = path.to_str().expect("a UTF-8 path");
    snap.save(path).expect("save");
    let bytes = snap.to_bytes();
    assert_eq!(std::fs::read(path).expect("read back"), bytes, "save wrote other bytes");
    assert_eq!(temp_files(dir), Vec::<String>::new());
    assert_eq!(Snapshot::<Vec<u8>, usize>::load(path).as_ref(), Ok(snap));
}

#[test]
fn file_round_trip_preserves_the_bytes() {
    let dir = scratch_dir("save-grid-probe");
    let ckpt = Search::new(&GRID)
        .run_resumable(PauseBudget::states(60))
        .paused()
        .expect("must pause");
    let snap = Snapshot::new(grid_fp(), ckpt);
    assert_saved_as_bytes(&snap, &dir);
    // Saving over an existing snapshot replaces it with the new bytes.
    let mut later = snap.clone();
    later.ckpt.terminal.push(vec![1, 2, 3]);
    assert_saved_as_bytes(&later, &dir);
}

det_prop! {
    /// `save` == `to_bytes` on generated checkpoints: empty pages, pages
    /// with no frontier at all, and (through a last terminal state of
    /// `pad` bytes) bodies of every length mod 8, so the read-back
    /// checksum's last word is every width from 0 to 7 bytes. Kills a save
    /// whose read-back pads or drops the body's tail, or that writes the
    /// checksum before the last page is flushed.
    fn save_writes_exactly_the_bytes_of_generated_checkpoints(
        cases = 24,
        partitions in 1usize..5,
        keys in prop::vec(1u64..u64::MAX, 0..40),
        frontier in prop::vec(0u64..1 << 20, 0..12),
        state_len in 0usize..6
    ) {
        let dir = scratch_dir("save-generated");
        let mut visited: Vec<Vec<(u64, Parent<usize>)>> = vec![Vec::new(); partitions];
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        for (i, &k) in sorted.iter().enumerate() {
            let parent = match i % 2 {
                0 => Parent::Root(i),
                _ => Parent::Child { parent: sorted[i / 2], action: i },
            };
            visited[shard_index(k, partitions)].push((k, parent));
        }
        let mut pages: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); partitions];
        for &fp in &frontier {
            pages[shard_index(fp, partitions)].push((fp, vec![fp as u8; state_len]));
        }
        let mut residues = std::collections::BTreeSet::new();
        for pad in 0..8 {
            let snap = Snapshot::new(
                grid_fp(),
                SearchCheckpoint {
                    seed: 3,
                    partitions,
                    depth: sorted.len(),
                    transitions: keys.len(),
                    truncated_by: None,
                    visited: visited.clone(),
                    frontier: pages.clone(),
                    terminal: vec![vec![7; state_len], vec![9; pad]],
                    levels: 2,
                    expansions: frontier.len(),
                    dedup_hits: 0,
                    canon_hits: 0,
                    peak_frontier: frontier.len(),
                    cap_fallbacks: 0,
                    peak_bytes: 1 << 12,
                },
            );
            assert_saved_as_bytes(&snap, &dir);
            residues.insert((snap.to_bytes().len() - 8) % 8);
        }
        det_assert!(residues.len() == 8, "the pads reach every body length mod 8");
    }
}

/// A failed save is `CkptError::Io`, leaves no temp file, and leaves every
/// snapshot already on disk byte-identical. Two failures: the target's
/// parent is a snapshot file (the temp file cannot be created), and the
/// target is a directory (the temp file is written in full, then the
/// rename fails, so the temp file must be removed).
#[test]
fn a_failed_save_is_an_io_error_and_leaves_no_trace() {
    let dir = scratch_dir("save-failures");
    let ckpt = Search::new(&GRID)
        .run_resumable(PauseBudget::states(60))
        .paused()
        .expect("must pause");
    let snap = Snapshot::new(grid_fp(), ckpt);
    let bytes = snap.to_bytes();

    let existing = dir.join("existing.ckpt");
    snap.save(existing.to_str().expect("a UTF-8 path")).expect("save");
    let under_a_file = existing.join("inner.ckpt");
    let r = snap.save(under_a_file.to_str().expect("a UTF-8 path"));
    assert!(matches!(r, Err(CkptError::Io(_))), "got {r:?}");
    assert_eq!(std::fs::read(&existing).expect("still there"), bytes);
    assert_eq!(temp_files(&dir), Vec::<String>::new());

    let target = dir.join("target.ckpt");
    std::fs::create_dir(&target).expect("make the directory target");
    let kept = target.join("kept.ckpt");
    snap.save(kept.to_str().expect("a UTF-8 path")).expect("save");
    let r = snap.save(target.to_str().expect("a UTF-8 path"));
    assert!(matches!(r, Err(CkptError::Io(_))), "got {r:?}");
    assert!(target.is_dir(), "the directory target must stay a directory");
    assert_eq!(std::fs::read(&kept).expect("still there"), bytes);
    assert_eq!(std::fs::read(&existing).expect("still there"), bytes);
    assert_eq!(temp_files(&dir), Vec::<String>::new());
    assert_eq!(temp_files(&target), Vec::<String>::new());
}

#[test]
fn corrupted_files_are_rejected_not_resumed() {
    let ckpt = Search::new(&GRID)
        .run_resumable(PauseBudget::states(60))
        .paused()
        .expect("must pause");
    let bytes = Snapshot::new(grid_fp(), ckpt).to_bytes();
    // Flip one bit somewhere in the payload (past magic and version).
    let mut bad = bytes.clone();
    let mid = bytes.len() / 2;
    bad[mid] ^= 0x10;
    match Snapshot::<Vec<u8>, usize>::from_bytes(&bad) {
        Err(CkptError::ChecksumMismatch) => {}
        other => panic!("payload corruption must be a checksum error, got {other:?}"),
    }
}

#[test]
fn version_drift_is_rejected_by_name() {
    let ckpt = Search::new(&GRID)
        .run_resumable(PauseBudget::states(60))
        .paused()
        .expect("must pause");
    let mut bytes = Snapshot::new(grid_fp(), ckpt).to_bytes();
    // The u32 version sits right after the 8-byte magic, little-endian.
    let next = FORMAT_VERSION + 1;
    bytes[8..12].copy_from_slice(&next.to_le_bytes());
    match Snapshot::<Vec<u8>, usize>::from_bytes(&bytes) {
        Err(CkptError::VersionMismatch { found, expected }) => {
            assert_eq!(found, next);
            assert_eq!(expected, FORMAT_VERSION);
        }
        other => panic!("version drift must be typed, got {other:?}"),
    }
}

/// A paused grid run's snapshot, relabelled as format `version` (no
/// reseal: the version check comes before the checksum's).
fn relabelled_as(version: u32) -> Result<Snapshot<Vec<u8>, usize>, CkptError> {
    let ckpt = Search::new(&GRID)
        .run_resumable(PauseBudget::states(60))
        .paused()
        .expect("must pause");
    let mut bytes = Snapshot::new(grid_fp(), ckpt).to_bytes();
    bytes[8..12].copy_from_slice(&version.to_le_bytes());
    Snapshot::<Vec<u8>, usize>::from_bytes(&bytes)
}

#[test]
fn a_version_2_snapshot_is_refused() {
    // v2 files carry a `peak_bytes` high-water mark under the old table
    // accounting (a value slot per table slot); resuming one would mix it
    // with samples of the dense layout.
    assert_eq!(
        relabelled_as(2),
        Err(CkptError::VersionMismatch { found: 2, expected: 4 })
    );
}

#[test]
fn a_version_3_snapshot_is_refused() {
    // v3 files count the visited table's values at `Parent`'s width (24
    // bytes for a `usize` action) where the table now holds 16-byte links,
    // so their `peak_bytes` is a high-water mark of the wider table.
    assert_eq!(
        relabelled_as(3),
        Err(CkptError::VersionMismatch { found: 3, expected: 4 })
    );
}

#[test]
fn foreign_models_are_refused() {
    let ckpt = Search::new(&GRID)
        .run_resumable(PauseBudget::states(60))
        .paused()
        .expect("must pause");
    let snap = Snapshot::new(grid_fp(), ckpt);
    let other = model_fp("grid", &[5, 3]);
    match snap.expect_model(other) {
        Err(CkptError::ModelMismatch { found, expected }) => {
            assert_eq!(found, grid_fp());
            assert_eq!(expected, other);
        }
        ok => panic!("a different model must be refused, got {ok:?}"),
    }
}
