//! Multi-pass fixture: `panic_chain_support.rs` after an unrelated edit
//! that routes `parse_window` through a new `trim_window` helper. The
//! unwrap in `decode_bounds` is unchanged, but its reach chain from
//! `serve_window` is one hop longer.

pub fn parse_window(raw: &str) -> u32 {
    trim_window(raw)
}

fn trim_window(raw: &str) -> u32 {
    decode_bounds(raw.trim())
}

fn decode_bounds(raw: &str) -> u32 {
    raw.parse().unwrap()
}
