pub fn total() -> u32 {
    alpha::USED_BY_LEDGER
}
