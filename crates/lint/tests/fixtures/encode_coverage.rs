pub struct Pair {
    a: u32,
    b: u32,
}
impl Encode for Pair {
    fn encode(&self, h: &mut FpHasher) {
        self.a.encode(h);
        debug_assert!(self.b < 10);
    }
}
impl<L: Encode> impossible_explore::Encode for super::Wrapper<L> {
    fn encode(&self, _h: &mut FpHasher) {}
}
// LINT-ALLOW: encode-coverage -- fixture: deliberately blind, waived
impl Encode for Waived {
    fn encode(&self, _h: &mut FpHasher) {}
}
impl_encode_struct!(Listed { a, b });
impl_encode_enum!(Tag {
    0: A,
    1: B { x },
});
pub fn prose() -> &'static str {
    // impl Encode for Comment is prose, not code
    "impl Encode for Str is data, not code"
}
