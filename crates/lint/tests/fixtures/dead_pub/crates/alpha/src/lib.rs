//! Planted `dead-pub` cases, pinned by `lint_rules.rs`.

pub fn unused_anywhere() {}

pub const fn only_reexported() {}

pub static ONLY_IN_PROSE: u8 = 0;

pub fn used_by_a_test() {}

pub const USED_BY_LEDGER: u32 = 1;

pub struct Config {
    pub unread_field: u32,
    pub read_field: u32,
}

// LINT-ALLOW: dead-pub -- fixture: the claim's only witness is this file's test
pub fn waived() {}

pub(crate) fn crate_visible() {}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
