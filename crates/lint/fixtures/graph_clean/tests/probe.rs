//! Test code sharing a name with a serve-path helper: calls resolve by
//! name, but no program path runs a test file, so this unwrap is never
//! reached.

pub fn safe_value() -> u32 {
    let v: Option<u32> = None;
    v.unwrap()
}
