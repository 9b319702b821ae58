//! The snapshot acceptance contract, end to end: pause a search, seal it
//! into canonical snapshot bytes, decode them back, resume — and land on a
//! report identical to the uninterrupted run. Plus the refusal side:
//! flipped bits and version drift must surface as typed errors, never as a
//! silently different search.

use impossible_ckpt::{model_fp, CkptError, Snapshot, FORMAT_VERSION};
use impossible_det::{det_assert, det_assert_eq, det_prop};
use impossible_explore::{Grid, PauseBudget, Resumable, Search, SearchReport};

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

#[test]
fn file_round_trip_preserves_the_bytes() {
    let ckpt = Search::new(&GRID)
        .run_resumable(PauseBudget::states(60))
        .paused()
        .expect("must pause");
    let snap = Snapshot::new(grid_fp(), ckpt);
    let path = format!("{}/roundtrip.ckpt", env!("CARGO_TARGET_TMPDIR"));
    snap.save(&path).expect("save");
    let back = Snapshot::<Vec<u8>, usize>::load(&path).expect("load");
    assert_eq!(back, snap);
    assert_eq!(back.to_bytes(), snap.to_bytes());
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
