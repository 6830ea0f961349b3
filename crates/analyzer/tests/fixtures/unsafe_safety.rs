//! Fixture: `unsafe-needs-safety` — argued and unargued `unsafe`.

struct View(*const f32);

unsafe impl Send for View {}

// SAFETY: a `View` is only read while its owner is parked.
unsafe impl Sync for View {}

fn read(v: &View) -> f32 {
    unsafe { *v.0 }
}

fn read_argued(v: &View) -> f32 {
    // SAFETY: the caller holds a claim, so the owner has not returned.
    unsafe { *v.0 }
}

fn argued_above_the_statement(v: &View) -> f32 {
    // SAFETY: as `read_argued`.
    let first = Some(v)
        .map(|v| unsafe { *v.0 })
        .unwrap_or(0.0);
    let second = Some(v)
        .map(|v| unsafe { *v.0 });
    first + second.unwrap_or(0.0)
}

unsafe fn deref(p: *const f32) -> f32 {
    *p
}

/// Reads `p`.
///
/// # Safety
///
/// `p` points at a live `f32`.
unsafe fn deref_documented(p: *const f32) -> f32 {
    // no comment needed: the block discharges nothing, the contract above
    // passes the obligation to the caller
    unsafe { *p }
}

/// Eight lanes.
///
/// # Safety
///
/// Every method requires the CPU feature the implementor is written for.
trait Lanes {
    unsafe fn splat(v: f32) -> Self;
}

impl Lanes for f32 {
    unsafe fn splat(v: f32) -> Self {
        v
    }
}

unsafe fn double<V: Lanes>(v: f32) -> V {
    V::splat(v + v)
}

trait Plain {
    unsafe fn undocumented(&self);
}

fn takes_pointer(f: unsafe fn(f32) -> f32) -> f32 {
    // SAFETY: fixture.
    unsafe { f(1.0) }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_not_exempt() {
        let x = 1.0f32;
        assert_eq!(unsafe { *std::ptr::addr_of!(x) }, 1.0);
    }
}
