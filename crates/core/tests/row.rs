//! `core::row::Row` against the `Vec` it stands in for: on every length up
//! to the capacity, `==`, `cmp`, `Debug`, `Hash` and the `Encode`
//! fingerprint are the `Vec`'s, the `Persist` bytes are canonical, and the
//! spare capacity never shows.
//!
//! An integration test rather than a unit test: `Row`'s `Encode` and
//! `Persist` impls live in `impossible-explore`, which links this crate's
//! library, not its `cfg(test)` copy.

use impossible_core::row::Row;
use impossible_det::{det_assert, det_assert_eq, det_prop, prop};
use impossible_explore::{Fingerprint, Persist, PersistError};
use std::hash::{DefaultHasher, Hash, Hasher};

/// `xs` in a row whose spare capacity holds `spare`.
fn row_of(xs: &[u16], spare: u16) -> Row<u16, 8> {
    let mut row = Row::filled(spare, xs.len());
    row.copy_from_slice(xs);
    row
}

fn std_hash<T: Hash + ?Sized>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

det_prop! {
    fn a_row_is_the_vec_of_its_values(
        cases = 1024,
        xs in prop::vec(0u16..4, 0..9),
        ys in prop::vec(0u16..4, 0..9),
        spare in 0u16..6
    ) {
        let (rx, ry) = (row_of(&xs, spare), row_of(&ys, 0));
        det_assert!(rx == xs);
        det_assert_eq!(rx == ry, xs == ys);
        det_assert_eq!(rx.cmp(&ry), xs.cmp(&ys));
        det_assert_eq!(rx.partial_cmp(&ry), xs.partial_cmp(&ys));
        det_assert_eq!(format!("{rx:?}"), format!("{xs:?}"));
        det_assert_eq!(format!("{rx:#?}"), format!("{xs:#?}"));
        det_assert_eq!(std_hash(&rx), std_hash(&xs));
        for seed in [0, 7] {
            det_assert_eq!(rx.fingerprint(seed), xs.fingerprint(seed));
            // Nested, as in a state's fields: the length prefixes line up.
            det_assert_eq!((rx, ry).fingerprint(seed), (&xs, &ys).fingerprint(seed));
        }
        // The spare capacity is invisible to every comparison.
        let other = row_of(&xs, spare + 1);
        det_assert!(rx == other && rx.cmp(&other).is_eq());
        det_assert_eq!(std_hash(&rx), std_hash(&other));
        det_assert_eq!(rx.fingerprint(0), other.fingerprint(0));
    }
}

/// `x`'s `Persist` bytes.
fn bytes<T: Persist>(x: &T) -> Vec<u8> {
    let mut out = Vec::new();
    x.write(&mut out);
    out
}

det_prop! {
    fn a_row_persists_as_its_length_byte_and_values(
        cases = 512,
        xs in prop::vec(0u16..4, 0..9),
        ys in prop::vec(0u16..4, 0..9),
        spare in 0u16..6
    ) {
        let (rx, ry) = (row_of(&xs, spare), row_of(&ys, 0));
        let encoded = bytes(&rx);
        // One length byte, then each value's own encoding.
        let expected: Vec<u8> = std::iter::once(xs.len() as u8)
            .chain(xs.iter().flat_map(|x| x.to_le_bytes()))
            .collect();
        det_assert_eq!(&encoded, &expected);
        let mut pos = 0;
        det_assert_eq!(Row::<u16, 8>::read(&encoded, &mut pos), Ok(rx));
        det_assert_eq!(pos, encoded.len());
        // Canonical: the spare capacity never reaches the bytes, and
        // distinct rows never share them.
        det_assert_eq!(bytes(&row_of(&xs, spare + 1)), encoded);
        det_assert_eq!(bytes(&ry) == encoded, xs == ys);
        // A cut encoding is malformed, never a panic.
        for cut in 0..encoded.len() {
            det_assert!(Row::<u16, 8>::read(&encoded[..cut], &mut 0).is_err());
        }
    }
}

#[test]
fn a_persisted_length_past_the_capacity_is_malformed() {
    let mut encoded = bytes(&Row::<u8, 8>::filled(1, 8));
    assert_eq!(Row::<u8, 8>::read(&encoded, &mut 0), Ok(Row::filled(1, 8)));
    encoded[0] = 9;
    encoded.push(1);
    assert_eq!(
        Row::<u8, 8>::read(&encoded, &mut 0),
        Err(PersistError::Malformed("row length"))
    );
}

#[test]
#[should_panic(expected = "a Row holds at most 8 items, not 9")]
fn filling_past_the_capacity_panics_naming_it() {
    Row::<u16, 8>::filled(0, 9);
}

#[test]
fn rows_keep_their_pinned_layouts() {
    use std::mem::size_of;
    // `sharedmem::MutexState`'s register rows: `u8` for every bounded
    // algorithm, `u32` for Bakery, and the `u64` row they both were.
    assert_eq!(size_of::<Row<u8, 12>>(), 13);
    assert_eq!(size_of::<Row<u32, 12>>(), 52);
    assert_eq!(size_of::<Row<u64, 12>>(), 104);
}
