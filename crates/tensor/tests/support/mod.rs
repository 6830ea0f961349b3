//! Shared by the unit and integration tests of `tensor`.

use std::sync::Barrier;

/// `f(i)` on `callers` scoped threads `i` released together, results in
/// thread order: rank threads share the kernel, while their pack
/// buffers and `tensor::buf` lists are their own, so each must get the
/// bits a lone call gets. Callers that multiply different operands
/// expose shared scratch that identical products would write alike.
pub fn at_once<T: Send>(callers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let start = Barrier::new(callers);
    let (start, f) = (&start, &f);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..callers)
            .map(|i| {
                scope.spawn(move || {
                    start.wait();
                    f(i)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("caller thread"))
            .collect()
    })
}
