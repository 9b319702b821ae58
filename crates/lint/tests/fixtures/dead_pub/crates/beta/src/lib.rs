pub use alpha::{only_reexported, Config};

/// Mentions ONLY_IN_PROSE in a doc comment.
fn prose() -> &'static str {
    // ONLY_IN_PROSE in a comment, and below in a string literal.
    "ONLY_IN_PROSE"
}

fn reads(c: &Config) -> u32 {
    c.read_field
}
