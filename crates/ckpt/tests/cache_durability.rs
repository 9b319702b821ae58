//! Durability of the on-disk verdict cache: atomic saves, typed rejection
//! of truncated files, and cold-start behavior for retired formats.
//!
//! The regression being pinned: `VerdictCache::save` used to be a bare
//! `std::fs::write` (truncate-then-write), and `from_text` accepted any
//! prefix of a valid file — so a crash mid-save could silently shrink the
//! cache to a shorter "valid" one. Now the write is temp-file + rename and
//! the format carries a `count` trailer.

use impossible_ckpt::cache::{job_key, model_fp, Verdict, VerdictCache};
use impossible_ckpt::snapshot::CkptError;
use std::path::PathBuf;

fn tmp(name: &str) -> String {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(name)
        .to_string_lossy()
        .into_owned()
}

fn sample() -> VerdictCache {
    let mut c = VerdictCache::new();
    c.insert(
        job_key(model_fp("ring", &[5]), "elects"),
        "ring 5 elects",
        Verdict {
            holds: true,
            states: 11,
            edges: 22,
        },
    );
    c.insert(
        job_key(model_fp("grid", &[3, 4]), "saturates"),
        "grid 3x4 saturates",
        Verdict {
            holds: false,
            states: 625,
            edges: 2000,
        },
    );
    c
}

#[test]
fn save_load_round_trips_and_leaves_no_temp_files() {
    let path = tmp("cache-roundtrip.txt");
    let c = sample();
    c.save(&path).expect("save");
    // Saving again over the existing file must also succeed (rename
    // replaces atomically).
    c.save(&path).expect("re-save");
    let back = VerdictCache::load(&path).expect("load");
    assert_eq!(back, c);
    // The temp file was renamed away, not left beside the cache.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let stray: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("cache-roundtrip.txt.") && n.ends_with(".tmp"))
        .collect();
    assert!(stray.is_empty(), "leftover temp files: {stray:?}");
}

#[test]
fn truncated_file_on_disk_is_rejected_not_parsed_as_smaller_cache() {
    let path = tmp("cache-truncated.txt");
    let c = sample();
    c.save(&path).expect("save");
    let full = std::fs::read_to_string(&path).expect("read back");

    // Simulate the crash window of the old truncate-then-write save: the
    // destination holds only a prefix of the intended bytes.
    for frac in [0, full.len() / 3, full.len() / 2, full.len() - 2] {
        std::fs::write(&path, &full[..frac]).expect("plant truncated file");
        let r = VerdictCache::load(&path);
        assert!(
            matches!(r, Err(CkptError::Malformed(_))),
            "prefix of {frac} bytes must fail typed, got {r:?}"
        );
    }

    // An intact file still loads, proving the rejection is about the
    // truncation and not the path.
    std::fs::write(&path, &full).expect("restore");
    assert_eq!(VerdictCache::load(&path).expect("intact"), c);
}

#[test]
fn retired_v1_file_is_a_cold_start() {
    let path = tmp("cache-v1.txt");
    std::fs::write(
        &path,
        "impossible-ckpt-cache v1\n00000000000000aa 1 2 3 stale\n",
    )
    .expect("plant v1 file");
    let c = VerdictCache::load(&path).expect("v1 is cold start, not error");
    assert!(c.is_empty());
}
