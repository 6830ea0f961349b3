//! The buffer recycler: one per-thread, capacity-classed free list of
//! `Vec<f32>` behind every [`Tensor`](crate::Tensor) and every GEMM
//! packing buffer.
//!
//! A training step allocates the same few dozen tensor-sized buffers
//! every iteration. Handed to the system allocator, each one is mapped,
//! page-faulted in, and unmapped or trimmed again a few hundred
//! microseconds later; under several rank threads in one address space
//! that fault traffic cost more than the collectives it sat between.
//! Here a dropped buffer goes onto its thread's list instead, and the
//! next request of that size class takes it back, so step *n + 1* runs
//! in step *n*'s memory.
//!
//! # Ownership rules
//!
//! * **Who may [`take`].** Any code that is about to produce `len`
//!   values. The result is an ordinary `Vec<f32>`: it may be moved into
//!   a `Tensor` ([`Tensor::from_vec`](crate::Tensor::from_vec), whose
//!   `Drop` returns it), sent to another thread, or handed back with
//!   [`give`]. Dropping it instead is never wrong — the memory is freed
//!   and the next `take` allocates.
//! * **What "unspecified contents" obliges.** [`take`] returns `len`
//!   initialised elements holding whatever their last owner left there.
//!   The caller must **write every element before reading any**; a
//!   producer that accumulates (`+=`) wants [`take_zeroed`]. Debug
//!   builds fill the buffer with NaN, so a read-before-write poisons
//!   the result and every bit-identity or equivalence test downstream
//!   fails loudly; release builds skip the fill.
//! * **Where a buffer lands.** [`give`] files the buffer on the list of
//!   the thread that calls it, whichever thread allocated it. A buffer
//!   given during thread teardown, after the list is gone, is freed.
//!
//! # Bounds
//!
//! Buffers shorter than [`MIN_LEN`] bypass the recycler both ways: the
//! allocator's small bins serve them without touching the page tables.
//! Each size class retains at most [`CLASS_BYTES`] and each thread at
//! most [`THREAD_BYTES`]; a buffer that would exceed either is freed, so
//! a one-off checkpoint or reshard tensor is not pinned for the life of
//! the thread, and one larger than a class budget is never kept at all.
//!
//! # Size classes
//!
//! Four classes per power of two (`4, 5, 6, 7 × 2^k` elements), so a
//! fresh buffer is at most 25 % larger than asked for. A request looks
//! in the smallest class whose capacity covers it; a returned buffer is
//! filed under the largest class its capacity covers, so every buffer
//! on a list can serve every request routed to that list.

use std::cell::RefCell;

/// Shortest buffer the recycler handles, in elements (one 4 KiB page).
const MIN_LEN: usize = 1 << MIN_LOG2;
const MIN_LOG2: u32 = 10;
/// Most bytes one size class of one thread retains.
const CLASS_BYTES: usize = 64 << 20;
/// Most bytes one thread retains over all classes.
const THREAD_BYTES: usize = 256 << 20;

const ELEM: usize = std::mem::size_of::<f32>();

/// The free buffers of one size class: each has a capacity of at least
/// [`class_capacity`] of this class and below that of the next.
#[derive(Default)]
struct Class {
    bufs: Vec<Vec<f32>>,
    /// Capacity bytes of `bufs`.
    bytes: usize,
}

struct FreeLists {
    classes: Vec<Class>,
    /// Capacity bytes held over all classes.
    bytes: usize,
}

thread_local! {
    static FREE: RefCell<FreeLists> = const {
        RefCell::new(FreeLists {
            classes: Vec::new(),
            bytes: 0,
        })
    };
}

/// The largest class whose capacity is at most `cap` (`cap ≥ MIN_LEN`).
fn class_floor(cap: usize) -> usize {
    let log2 = cap.ilog2();
    let quarter = (cap >> (log2 - 2)) - 4;
    ((log2 - MIN_LOG2) as usize) * 4 + quarter
}

/// Elements every buffer of class `class` can hold.
fn class_capacity(class: usize) -> usize {
    (4 + class % 4) << (class / 4 + MIN_LOG2 as usize - 2)
}

/// The smallest class whose capacity is at least `len` (`len ≥ MIN_LEN`).
fn class_ceil(len: usize) -> usize {
    let floor = class_floor(len);
    floor + usize::from(class_capacity(floor) < len)
}

/// A buffer of `len` elements with **unspecified contents**: the caller
/// writes every element before reading any (see the module docs).
pub fn take(len: usize) -> Vec<f32> {
    let mut buf = if len < MIN_LEN {
        Vec::with_capacity(len)
    } else {
        let class = class_ceil(len);
        FREE.try_with(|free| {
            let mut free = free.borrow_mut();
            let list = free.classes.get_mut(class)?;
            let buf = list.bufs.pop()?;
            list.bytes -= buf.capacity() * ELEM;
            free.bytes -= buf.capacity() * ELEM;
            Some(buf)
        })
        .ok()
        .flatten()
        .unwrap_or_else(|| Vec::with_capacity(class_capacity(class)))
    };
    // A recycled buffer keeps its old length, so this writes only the
    // elements beyond it, and nothing at all once the sizes repeat.
    buf.resize(len, 0.0);
    if cfg!(debug_assertions) {
        buf.fill(f32::NAN);
    }
    buf
}

/// A buffer of `len` zeros, for producers that accumulate into it.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut buf = take(len);
    buf.fill(0.0);
    buf
}

/// A recycled copy of `src`.
pub(crate) fn copy_of(src: &[f32]) -> Vec<f32> {
    let mut buf = take(src.len());
    buf.copy_from_slice(src);
    buf
}

/// Returns a buffer to the calling thread's free list (or frees it: too
/// small, over a retention bound, or the thread is shutting down).
pub fn give(buf: Vec<f32>) {
    let bytes = buf.capacity() * ELEM;
    if buf.capacity() < MIN_LEN || bytes > CLASS_BYTES {
        return;
    }
    let class = class_floor(buf.capacity());
    // `try_with`: a tensor dropped by another thread-local's destructor
    // may outlive this one.
    let _ = FREE.try_with(|free| {
        let mut free = free.borrow_mut();
        if free.classes.len() <= class {
            free.classes.resize_with(class + 1, Class::default);
        }
        if free.classes[class].bytes + bytes <= CLASS_BYTES && free.bytes + bytes <= THREAD_BYTES {
            free.bytes += bytes;
            free.classes[class].bytes += bytes;
            free.classes[class].bufs.push(buf);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn retained_bytes() -> usize {
        FREE.with(|free| free.borrow().bytes)
    }

    /// Runs `f` on a fresh thread, so the test owns its free lists.
    fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| s.spawn(f).join().expect("test thread"))
    }

    #[test]
    fn classes_round_requests_up_and_returns_down() {
        assert_eq!(class_capacity(0), MIN_LEN);
        for class in 0..60 {
            let cap = class_capacity(class);
            assert!(cap < class_capacity(class + 1), "class {class}");
            assert!(class_capacity(class + 1) * 4 <= cap * 5, "≤ 25 % apart");
            assert_eq!((class_floor(cap), class_ceil(cap)), (class, class));
            assert_eq!(class_floor(cap + 1), class);
            assert_eq!(class_ceil(cap + 1), class + 1);
            assert_eq!(class_floor(class_capacity(class + 1) - 1), class);
        }
        on_fresh_thread(|| {
            // a fresh buffer is cut to its class, so it comes back to it
            let buf = take(5000);
            assert_eq!((buf.len(), buf.capacity()), (5000, 5120));
            let ptr = buf.as_ptr();
            give(buf);
            assert_eq!(retained_bytes(), 5120 * ELEM);
            let again = take(4097);
            assert_eq!((again.as_ptr(), again.len()), (ptr, 4097));
            assert_eq!(retained_bytes(), 0);
            // a foreign buffer serves the class its capacity covers
            give(Vec::with_capacity(6000));
            assert_eq!(take(5121).capacity(), 6144, "6000 cannot hold 5121..=6144");
            assert_eq!(take(5120).capacity(), 6000);
        });
    }

    #[test]
    fn small_buffers_bypass_the_lists() {
        on_fresh_thread(|| {
            let buf = take(MIN_LEN - 1);
            assert_eq!(buf.len(), MIN_LEN - 1);
            give(buf);
            give(Vec::new());
            assert_eq!(retained_bytes(), 0);
        });
    }

    #[test]
    fn take_zeroed_is_zero_and_debug_take_is_nan() {
        on_fresh_thread(|| {
            give(vec![7.0; 2048]);
            let buf = take(2048);
            if cfg!(debug_assertions) {
                assert!(buf.iter().all(|v| v.is_nan()));
            }
            give(buf);
            assert!(take_zeroed(2048).iter().all(|&v| v == 0.0));
            // growing a recycled buffer initialises the new tail
            give(vec![7.0; 1500]);
            assert_eq!(take_zeroed(1024).len(), 1024);
        });
    }

    #[test]
    fn retention_is_bounded_per_class_and_per_thread() {
        on_fresh_thread(|| {
            // untouched capacity: address space, not memory
            let third = CLASS_BYTES / ELEM / 3 + 1;
            for _ in 0..5 {
                give(Vec::with_capacity(third));
            }
            assert_eq!(retained_bytes(), 2 * third * ELEM, "class budget");
            give(Vec::with_capacity(CLASS_BYTES / ELEM + 1));
            assert_eq!(
                retained_bytes(),
                2 * third * ELEM,
                "over-budget buffer freed"
            );
            // fill other classes until the thread budget stops them
            let mut cap = MIN_LEN * 64;
            while cap * ELEM <= CLASS_BYTES {
                for _ in 0..CLASS_BYTES / (cap * ELEM) {
                    give(Vec::with_capacity(cap));
                }
                cap = cap * 5 / 4;
            }
            assert!(retained_bytes() <= THREAD_BYTES);
            assert!(retained_bytes() > THREAD_BYTES - CLASS_BYTES);
        });
    }

    #[test]
    fn a_buffer_dropped_on_another_thread_lands_there_and_stays_bounded() {
        on_fresh_thread(|| {
            let (tx, rx) = std::sync::mpsc::channel::<Tensor>();
            let n = 1 << 18;
            let consumer = std::thread::spawn(move || {
                let mut peak = 0;
                for t in rx {
                    drop(t);
                    peak = peak.max(retained_bytes());
                }
                peak
            });
            for _ in 0..80 {
                tx.send(Tensor::zeros(&[n])).expect("consumer alive");
            }
            drop(tx);
            let peak = consumer.join().expect("consumer");
            assert!(peak >= n * ELEM, "the dropping thread keeps the buffer");
            assert!(
                peak <= CLASS_BYTES,
                "80 × 1 MiB stay under the class budget"
            );
            assert_eq!(retained_bytes(), 0, "the allocating thread got none back");
        });
    }

    thread_local! {
        static HOLD: RefCell<Option<Tensor>> = const { RefCell::new(None) };
    }

    #[test]
    fn a_tensor_dropped_during_thread_teardown_is_freed() {
        // Thread-local destructors run in an unspecified order: whichever
        // of `HOLD` and the free lists is torn down first, the tensor's
        // drop must neither panic nor touch a dead list.
        for lists_first in [false, true] {
            on_fresh_thread(move || {
                if lists_first {
                    give(take(4096));
                }
                HOLD.with(|h| *h.borrow_mut() = Some(Tensor::zeros(&[4096])));
                if !lists_first {
                    give(take(4096));
                }
            });
        }
    }
}
