//! Helpers on the serve path with reasoned panic pins (or none needed).

pub fn safe_value() -> u32 {
    let v: Option<u32> = Some(3);
    // lint: allow(panic) the constant above is always Some
    v.unwrap()
}

/// No annotation here: the single call site in serve carries it.
pub fn vetted() -> u32 {
    let v: Option<u32> = Some(7);
    v.unwrap()
}

/// A free fn sharing its name with `Width::table`: no serve path calls
/// it, so its unwrap is never reached.
pub fn table() -> u32 {
    let v: Option<u32> = None;
    v.unwrap()
}
