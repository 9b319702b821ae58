#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DerivesBoth(u8);
#[derive(Clone, Hash)]
pub struct DerivesHash(u8);
impl PartialEq for DerivesHash {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
#[derive(Clone, core::cmp::PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum DerivesEq {
    A,
    B,
}
impl<T> std::hash::Hash for self::DerivesEq where for<'a> &'a T: Copy {
    fn hash<H: std::hash::Hasher>(&self, _: &mut H) {}
}
pub struct Manual(u8);
impl PartialEq for Manual {
    fn eq(&self, o: &Self) -> bool {
        self.0 == o.0
    }
}
impl std::hash::Hash for Manual {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.0.hash(h)
    }
}
impl PartialEq<u8> for DerivesHash {
    fn eq(&self, o: &u8) -> bool {
        self.0 == *o
    }
}
#[derive(PartialEq, Eq)]
pub struct Waived(u8);
// LINT-ALLOW: hash-eq -- fixture: a blind hash agrees with any equality
impl core::hash::Hash for Waived {
    fn hash<H: core::hash::Hasher>(&self, _: &mut H) {}
}
pub fn prose() -> impl Iterator<Item = u8> {
    // impl PartialEq for DerivesHash is prose, not code
    let _ = "impl Hash for DerivesEq is data, not code";
    for x in 0..1 {}
    std::iter::empty()
}
