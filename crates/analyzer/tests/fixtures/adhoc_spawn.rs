//! Fixture: `no-adhoc-spawn` — threads started in the compute crates.
use std::thread;
use std::thread::{sleep, spawn};

fn fan_out(items: &mut [u32]) {
    std::thread::scope(|scope| {
        for item in items.iter_mut() {
            scope.spawn(move || *item += 1);
        }
    });
    let detached = thread::spawn(|| 1);
    let named = thread::Builder::new().name("w".into()).spawn(|| 2);
    // lint: allow(adhoc-spawn) — a watchdog, not compute
    let allowed = std::thread::spawn(|| 3);
    // thread::spawn in a comment, "thread::scope" in a string: fine
    thread::yield_now();
    let _ = (detached, named, allowed, thread::current());
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_start_threads() {
        std::thread::scope(|s| {
            s.spawn(|| ());
        });
    }
}
