//! Worker-count policy. The tensor crate starts no threads: a GEMM runs
//! on the thread that calls it, and the runtime's parallelism is one
//! thread per rank.

/// The hardware-reported parallelism (1 when unknown).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// [`hardware_threads`], under the name older callers use.
pub fn num_threads() -> usize {
    hardware_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
        assert!(hardware_threads() >= 1);
    }
}
