//! Fixed-capacity rows — a short sequence of `Copy` values stored inline.
//!
//! A model state such as `sharedmem`'s `MutexState` is a handful of small
//! per-process or per-variable values. Stored as a `Vec` each such field is
//! a 24-byte header plus a heap block, so every interned state, frontier
//! state and successor chases a pointer per field. [`Row<T, N>`] stores up
//! to `N` values in an array next to a `u8` length: no heap block, `Copy`
//! when `T` is, and a fixed size. `MutexState`'s registers are a
//! `Row<R, 12>` at the width `R` its algorithm declares: for every bounded
//! algorithm a `Row<u8, 12>`, 13 bytes, and for Bakery's unbounded tickets
//! a `Row<u32, 12>`, 52 bytes (a `Vec` of 12 `u64`s is a 24-byte header, a
//! 96-byte block and the allocator's header); its `MutexAlgorithm` trait
//! still reads and writes `u64`, and `MutexSystem` narrows each stored
//! value in one checked step.
//!
//! It is a slice to every reader: [`Deref`] / [`DerefMut`] to `[T]` (so
//! `row[i]`, `row.iter()`, `row.sort_unstable()` work unchanged), and `==`,
//! `Ord`, `Hash` and `Debug` are the slice's, so a `Row` compares, hashes
//! and prints exactly as the `Vec` holding the same values. Its length is
//! fixed at construction; the spare capacity is never observable.
//!
//! ```
//! use impossible_core::row::Row;
//!
//! let mut row = Row::<u64, 4>::filled(1, 3);
//! row[2] = 7;
//! assert_eq!(row, vec![1, 1, 7]);
//! assert_eq!(format!("{row:?}"), "[1, 1, 7]");
//! assert!(row < Row::filled(2, 1));
//! ```

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// At most `N` values of `T`, stored inline: `[T; N]` plus a `u8` length.
/// Reads and writes go through the `[T]` it derefs to.
#[derive(Clone, Copy)]
pub struct Row<T, const N: usize> {
    items: [T; N],
    len: u8,
}

impl<T: Copy, const N: usize> Row<T, N> {
    /// `len` copies of `value` — `vec![value; len]` without the heap block.
    ///
    /// # Panics
    /// If `len` exceeds the capacity `N`; the message names `N`.
    pub fn filled(value: T, len: usize) -> Self {
        const { assert!(N <= u8::MAX as usize, "a Row's length is a u8") };
        assert!(len <= N, "a Row holds at most {N} items, not {len}");
        Row {
            items: [value; N],
            len: len as u8,
        }
    }
}

impl<T, const N: usize> Deref for Row<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        &self.items[..usize::from(self.len)]
    }
}

impl<T, const N: usize> DerefMut for Row<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..usize::from(self.len)]
    }
}

impl<T: PartialEq, const N: usize> PartialEq for Row<T, N> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for Row<T, N> {}

impl<T: PartialEq, const N: usize> PartialEq<Vec<T>> for Row<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

impl<T: PartialOrd, const N: usize> PartialOrd for Row<T, N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        (**self).partial_cmp(&**other)
    }
}

impl<T: Ord, const N: usize> Ord for Row<T, N> {
    fn cmp(&self, other: &Self) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl<T: Hash, const N: usize> Hash for Row<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

/// Exactly what the `Vec` of the same values prints, in `{:?}` and `{:#?}`.
impl<T: fmt::Debug, const N: usize> fmt::Debug for Row<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}
