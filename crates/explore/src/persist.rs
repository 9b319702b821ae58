//! The reversible little-endian byte codec shared by snapshots and spill.
//!
//! Deliberately *not* the [`crate::Encode`] trait: `Encode` feeds a one-way
//! hasher (its contract is injectivity, and the exhaustive expansions of
//! `impl_encode_struct!` / `impl_encode_enum!` make the compiler audit
//! completeness against that contract), while [`Persist`] is a
//! reversible byte codec whose contract is `read(write(x)) == x`.
//! Conflating the two would let a state type's fingerprint encoding
//! silently double as its wire format — the fields a fingerprint may fold
//! (because equality already identifies them) are exactly the fields a
//! durable encoding must not lose.
//!
//! The trait lived in `impossible-ckpt` first (PR 8's snapshot format);
//! it moved here when external-memory search grew a second consumer —
//! spilled visited/frontier pages (see [`crate::page`]) — that the
//! checkpoint crate's own pages now reuse, so "snapshot and spill share
//! one format" is a fact about the code, not a convention. The checkpoint
//! crate imports the codec from here (re-exporting only the [`Persist`]
//! trait at its root) and converts [`PersistError`] into its richer
//! `CkptError`.
//!
//! Everything is little-endian and length-prefixed: the byte stream for a
//! value is a pure function of the value, independent of platform, worker
//! count, or allocation history — the property the byte-identity contracts
//! (snapshot round trips, spilled-vs-resident report equality) bottom
//! out in.

use crate::search::Parent;
use impossible_core::explore::Truncation;
use impossible_core::row::Row;

/// Decoding failed: the input is truncated or contains invalid bytes.
///
/// Carries the static name of the section that failed, so hostile input
/// yields a diagnosable error instead of a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistError {
    /// Truncated input or an invalid byte in the named section.
    Malformed(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Malformed(what) => write!(f, "malformed encoding: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// A reversible little-endian byte codec: `read(write(x)) == x`, and every
/// encoding is self-delimiting (fixed width or length-prefixed), so codecs
/// compose by concatenation.
pub trait Persist: Sized {
    /// Append this value's canonical byte encoding to `out`.
    fn write(&self, out: &mut Vec<u8>);

    /// Decode a value from `buf` starting at `*pos`, advancing `*pos` past
    /// it. Errors with [`PersistError::Malformed`] on truncation or invalid
    /// bytes; never panics on hostile input.
    fn read(buf: &[u8], pos: &mut usize) -> Result<Self, PersistError>;
}

/// Pull `n` bytes out of `buf` at `*pos`, or report what was missing.
pub fn take<'b>(
    buf: &'b [u8],
    pos: &mut usize,
    n: usize,
    what: &'static str,
) -> Result<&'b [u8], PersistError> {
    let end = pos.checked_add(n).ok_or(PersistError::Malformed(what))?;
    if end > buf.len() {
        return Err(PersistError::Malformed(what));
    }
    let bytes = &buf[*pos..end];
    *pos = end;
    Ok(bytes)
}

impl Persist for u8 {
    fn write(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn read(buf: &[u8], pos: &mut usize) -> Result<Self, PersistError> {
        Ok(take(buf, pos, 1, "u8")?[0])
    }
}

impl Persist for u16 {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn read(buf: &[u8], pos: &mut usize) -> Result<Self, PersistError> {
        let b = take(buf, pos, 2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
}

impl Persist for u32 {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn read(buf: &[u8], pos: &mut usize) -> Result<Self, PersistError> {
        let b = take(buf, pos, 4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

impl Persist for u64 {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn read(buf: &[u8], pos: &mut usize) -> Result<Self, PersistError> {
        let b = take(buf, pos, 8, "u64")?;
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        Ok(u64::from_le_bytes(w))
    }
}

/// `usize` travels as `u64` — encodings must be readable across platforms
/// with different pointer widths (a count too large for the reading
/// platform is malformed, not truncated).
impl Persist for usize {
    fn write(&self, out: &mut Vec<u8>) {
        (*self as u64).write(out);
    }

    fn read(buf: &[u8], pos: &mut usize) -> Result<Self, PersistError> {
        let n = u64::read(buf, pos)?;
        usize::try_from(n).map_err(|_| PersistError::Malformed("usize overflow"))
    }
}

impl Persist for bool {
    fn write(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn read(buf: &[u8], pos: &mut usize) -> Result<Self, PersistError> {
        match u8::read(buf, pos)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::Malformed("bool tag")),
        }
    }
}

/// Append `bytes` as one length-prefixed blob: a `u64` length, then the
/// bytes in one copy. Byte-identical to `Vec<u8>`'s [`Persist`] encoding,
/// which pushes them one at a time: how a string travels inside a larger
/// encoding, and how a snapshot lays out each page.
fn write_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    bytes.len().write(out);
    out.extend_from_slice(bytes);
}

/// Borrow a length-prefixed blob (as `write_blob` writes it), advancing
/// `*pos` past it. Nothing is allocated, and [`take`] bounds the length by
/// the bytes that remain, so a hostile prefix is `Malformed(what)` before
/// it can size anything.
pub fn read_blob<'b>(
    buf: &'b [u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<&'b [u8], PersistError> {
    let n = usize::read(buf, pos)?;
    take(buf, pos, n, what)
}

impl Persist for String {
    fn write(&self, out: &mut Vec<u8>) {
        write_blob(out, self.as_bytes());
    }

    fn read(buf: &[u8], pos: &mut usize) -> Result<Self, PersistError> {
        let bytes = read_blob(buf, pos, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::Malformed("string utf-8"))
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn write(&self, out: &mut Vec<u8>) {
        self.len().write(out);
        for item in self {
            item.write(out);
        }
    }

    fn read(buf: &[u8], pos: &mut usize) -> Result<Self, PersistError> {
        let n = usize::read(buf, pos)?;
        // Guard the pre-allocation: a hostile length prefix must not OOM
        // before the (inevitable) truncation error surfaces. One byte per
        // element is the floor every `Persist` encoding meets.
        if n > buf.len().saturating_sub(*pos) {
            return Err(PersistError::Malformed("vec length"));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::read(buf, pos)?);
        }
        Ok(v)
    }
}

impl<T: Persist> Persist for Option<T> {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(x) => {
                out.push(1);
                x.write(out);
            }
        }
    }

    fn read(buf: &[u8], pos: &mut usize) -> Result<Self, PersistError> {
        match u8::read(buf, pos)? {
            0 => Ok(None),
            1 => Ok(Some(T::read(buf, pos)?)),
            _ => Err(PersistError::Malformed("option tag")),
        }
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
        self.1.write(out);
    }

    fn read(buf: &[u8], pos: &mut usize) -> Result<Self, PersistError> {
        Ok((A::read(buf, pos)?, B::read(buf, pos)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
        self.1.write(out);
        self.2.write(out);
    }

    fn read(buf: &[u8], pos: &mut usize) -> Result<Self, PersistError> {
        Ok((A::read(buf, pos)?, B::read(buf, pos)?, C::read(buf, pos)?))
    }
}

/// One length byte, then the items: the `Vec` encoding with its count
/// narrowed to the `u8` a row stores, so the spare capacity never reaches
/// the bytes and two equal rows write the same ones. A length past `N` is
/// malformed. `Default` fills the spare capacity of a decoded row.
impl<T: Persist + Copy + Default, const N: usize> Persist for Row<T, N> {
    fn write(&self, out: &mut Vec<u8>) {
        // `Row::filled` caps `N` at `u8::MAX`, so the length fits.
        out.push(self.len() as u8);
        for item in self.iter() {
            item.write(out);
        }
    }

    fn read(buf: &[u8], pos: &mut usize) -> Result<Self, PersistError> {
        let len = usize::from(u8::read(buf, pos)?);
        if len > N {
            return Err(PersistError::Malformed("row length"));
        }
        let mut row = Row::filled(T::default(), len);
        for item in row.iter_mut() {
            *item = T::read(buf, pos)?;
        }
        Ok(row)
    }
}

/// Tagged encoding (1 = `States`, 2 = `Depth`, 3 = `Index`). Tag 0 is
/// reserved: `Option<Truncation>` in the snapshot header writes it for
/// `None`, so the bare encoding must never produce it.
impl Persist for Truncation {
    fn write(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Truncation::States => 1,
            Truncation::Depth => 2,
            Truncation::Index => 3,
        });
    }

    fn read(buf: &[u8], pos: &mut usize) -> Result<Self, PersistError> {
        match u8::read(buf, pos)? {
            1 => Ok(Truncation::States),
            2 => Ok(Truncation::Depth),
            3 => Ok(Truncation::Index),
            _ => Err(PersistError::Malformed("truncation tag")),
        }
    }
}

/// Tagged encoding: 0 = `Root(initial index)`, 1 = `Child{parent, action}`.
impl<A: Persist> Persist for Parent<A> {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Parent::Root(i) => {
                out.push(0);
                i.write(out);
            }
            Parent::Child { parent, action } => {
                out.push(1);
                parent.write(out);
                action.write(out);
            }
        }
    }

    fn read(buf: &[u8], pos: &mut usize) -> Result<Self, PersistError> {
        match u8::read(buf, pos)? {
            0 => Ok(Parent::Root(usize::read(buf, pos)?)),
            1 => Ok(Parent::Child {
                parent: u64::read(buf, pos)?,
                action: A::read(buf, pos)?,
            }),
            _ => Err(PersistError::Malformed("parent tag")),
        }
    }
}

/// Implement [`Persist`] for a struct with named fields by listing every
/// field: the fields, concatenated in the listed order. The twin of
/// [`crate::impl_encode_struct!`] — the same listing and the same
/// irrefutable pattern with no rest pattern, so the compiler rejects a
/// listing that drops a field — kept a separate macro for the reason this
/// module's header gives. Type parameters get a `Persist` bound; a
/// trailing `where` adds what the fields' own impls need.
///
/// ```
/// use impossible_core::row::Row;
/// use impossible_explore::{impl_persist_struct, Persist};
///
/// #[derive(Debug, PartialEq)]
/// struct Config<L> {
///     locals: Row<L, 4>,
///     clock: u64,
/// }
/// impl_persist_struct!(Config<L> { locals, clock } where L: Copy + Default);
///
/// let c = Config { locals: Row::filled(7u8, 2), clock: 9 };
/// let mut bytes = Vec::new();
/// c.write(&mut bytes);
/// assert_eq!(bytes, [2, 7, 7, 9, 0, 0, 0, 0, 0, 0, 0]);
/// assert_eq!(Config::read(&bytes, &mut 0), Ok(c));
/// ```
///
/// A listing that leaves a field out does not build:
///
/// ```compile_fail
/// use impossible_explore::impl_persist_struct;
/// struct Config { locals: Vec<u8>, clock: u64 }
/// impl_persist_struct!(Config { locals });
/// ```
#[macro_export]
macro_rules! impl_persist_struct {
    ($ty:ident $(<$($g:ident),+>)? { $($f:ident),+ $(,)? } $(where $($w:tt)+)?) => {
        impl$(<$($g: $crate::Persist),+>)? $crate::Persist for $ty$(<$($g),+>)?
        $(where $($w)+)?
        {
            fn write(&self, out: &mut Vec<u8>) {
                let Self { $($f),+ } = self;
                $($crate::Persist::write($f, out);)+
            }

            fn read(buf: &[u8], pos: &mut usize) -> Result<Self, $crate::PersistError> {
                $(let $f = $crate::Persist::read(buf, pos)?;)+
                Ok(Self { $($f),+ })
            }
        }
    };
}

/// Implement [`Persist`] for an enum by listing every variant with an
/// explicit one-byte tag: the tag, then the variant's fields in the listed
/// order. A tag no variant lists is malformed. The twin of
/// [`crate::impl_encode_enum!`], with its listing and its audits: a variant
/// left out is a non-exhaustive `match`, and a reused tag a repeated
/// discriminant.
///
/// ```
/// use impossible_explore::{impl_persist_enum, Persist, PersistError};
///
/// #[derive(Debug, PartialEq)]
/// enum Phase {
///     Idle,
///     Waiting { round: u8 },
///     Done(u64),
/// }
/// impl_persist_enum!(Phase {
///     0: Idle,
///     1: Waiting { round },
///     2: Done(v),
/// });
///
/// let mut bytes = Vec::new();
/// Phase::Waiting { round: 3 }.write(&mut bytes);
/// assert_eq!(bytes, [1, 3]);
/// assert_eq!(Phase::read(&bytes, &mut 0), Ok(Phase::Waiting { round: 3 }));
/// assert_eq!(Phase::read(&[3], &mut 0), Err(PersistError::Malformed("enum tag")));
/// ```
///
/// ```compile_fail,E0004
/// use impossible_explore::impl_persist_enum;
/// enum Phase { Idle, Waiting { round: u8 }, Done(u64) }
/// impl_persist_enum!(Phase { 0: Idle, 1: Waiting { round } });
/// ```
///
/// ```compile_fail,E0081
/// use impossible_explore::impl_persist_enum;
/// enum Phase { Idle, Done(u64) }
/// impl_persist_enum!(Phase { 0: Idle, 0: Done(v) });
/// ```
#[macro_export]
macro_rules! impl_persist_enum {
    ($ty:ty { $(
        $tag:literal : $v:ident
            $({ $($sf:ident),+ $(,)? })?
            $(( $($tf:ident),+ $(,)? ))?
    ),+ $(,)? }) => {
        // The tags as discriminants: the compiler wants those distinct.
        const _: () = {
            #[allow(dead_code)]
            #[repr(u8)]
            enum Tags { $($v = $tag),+ }
        };
        impl $crate::Persist for $ty {
            fn write(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$v $({ $($sf),+ })? $(( $($tf),+ ))? => {
                        out.push($tag);
                        $($($crate::Persist::write($sf, out);)+)?
                        $($($crate::Persist::write($tf, out);)+)?
                    })+
                }
            }

            fn read(buf: &[u8], pos: &mut usize) -> Result<Self, $crate::PersistError> {
                match <u8 as $crate::Persist>::read(buf, pos)? {
                    $($tag => {
                        $($(let $sf = $crate::Persist::read(buf, pos)?;)+)?
                        $($(let $tf = $crate::Persist::read(buf, pos)?;)+)?
                        Ok(Self::$v $({ $($sf),+ })? $(( $($tf),+ ))?)
                    })+
                    _ => Err($crate::PersistError::Malformed("enum tag")),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(x: T) {
        let mut out = Vec::new();
        x.write(&mut out);
        let mut pos = 0;
        let back = T::read(&out, &mut pos).expect("round trip");
        assert_eq!(back, x);
        assert_eq!(pos, out.len(), "decoder consumed exactly the encoding");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
    }

    #[test]
    fn compounds_round_trip() {
        round_trip(String::from("quorum π ≥"));
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(vec![(1u64, 2u8), (3, 4)]));
        round_trip(None::<u64>);
        round_trip((7u64, String::from("x"), vec![false, true]));
    }

    #[test]
    fn engine_enums_round_trip() {
        round_trip(Truncation::States);
        round_trip(Truncation::Depth);
        round_trip(Truncation::Index);
        round_trip(Parent::<u8>::Root(3));
        round_trip(Parent::Child {
            parent: 0xFEED_u64,
            action: 7u8,
        });
        let mut pos = 0;
        assert!(matches!(
            Truncation::read(&[0], &mut pos),
            Err(PersistError::Malformed("truncation tag"))
        ));
        let mut pos = 0;
        assert!(matches!(
            Parent::<u8>::read(&[9], &mut pos),
            Err(PersistError::Malformed("parent tag"))
        ));
    }

    #[test]
    fn truncation_is_malformed_not_panic() {
        let mut out = Vec::new();
        vec![1u64, 2, 3].write(&mut out);
        for cut in 0..out.len() {
            let mut pos = 0;
            let r = Vec::<u64>::read(&out[..cut], &mut pos);
            assert!(r.is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected_early() {
        let mut out = Vec::new();
        (u64::MAX - 3).write(&mut out);
        let mut pos = 0;
        assert!(matches!(
            Vec::<u64>::read(&out, &mut pos),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn bad_tags_are_malformed() {
        let mut pos = 0;
        assert!(matches!(
            bool::read(&[9], &mut pos),
            Err(PersistError::Malformed("bool tag"))
        ));
        let mut pos = 0;
        assert!(matches!(
            Option::<u8>::read(&[2, 0], &mut pos),
            Err(PersistError::Malformed("option tag"))
        ));
    }

    #[test]
    fn encodings_are_little_endian_and_stable() {
        // The format doc in docs/CKPT.md quotes these exact bytes.
        let mut out = Vec::new();
        0x0102_0304u32.write(&mut out);
        assert_eq!(out, [0x04, 0x03, 0x02, 0x01]);
        let mut out = Vec::new();
        String::from("ok").write(&mut out);
        assert_eq!(out, [2, 0, 0, 0, 0, 0, 0, 0, b'o', b'k']);
    }
}
