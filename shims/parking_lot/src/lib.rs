//! Pure-std stand-in for the subset of `parking_lot` this workspace uses.
//!
//! The build environment has no access to the crates.io registry, so this
//! crate adapts `std::sync::{Mutex, Condvar}` to parking_lot's
//! poison-free API: `lock()` returns the guard directly and
//! `Condvar::wait` takes the guard by `&mut`. Like real parking_lot,
//! locks do **not** poison: a panic while holding the guard leaves the
//! data accessible to other threads (callers that need panic detection
//! layer their own flag on top, as the collectives crate does with its
//! group poisoning).
//!
//! Because every lock in the workspace flows through this crate, it also
//! hosts the [`lock_doctor`]: an off-by-default lock-order deadlock
//! detector (enable with `LOCK_DOCTOR=1`) whose disabled fast path is a
//! single relaxed atomic load per acquisition.

#![allow(
    clippy::disallowed_types,
    reason = "the shim is the one place std locks live: it wraps them for the lock doctor, \
              whose lock-order graph is rank-independent diagnostics held in hash maps"
)]

pub mod lock_doctor;

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::time::Duration;

/// A mutex whose `lock` returns the guard directly (no poison `Result`).
pub struct Mutex<T: ?Sized> {
    /// Creation site, captured for [`lock_doctor`] attribution. Sits
    /// before `inner` because `T` may be unsized.
    site: &'static Location<'static>,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex. The caller's location becomes the lock's
    /// [`lock_doctor`] site id when the doctor is enabled.
    #[track_caller]
    pub fn new(value: T) -> Self {
        lock_doctor::init_from_env();
        Mutex {
            site: Location::caller(),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available. Poison-free:
    /// if a previous holder panicked, the data is handed over as-is,
    /// matching parking_lot semantics.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        // Record the attempt *before* blocking so an ordering that
        // deadlocks this very run is still captured in the report.
        let doctor_addr = if lock_doctor::is_enabled() {
            lock_doctor::on_lock(
                self.site,
                std::ptr::addr_of!(self.inner) as *const () as usize,
            )
        } else {
            None
        };
        MutexGuard {
            doctor_addr,
            inner: Some(
                self.inner
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            ),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: Default> Default for Mutex<T> {
    #[track_caller]
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// Guard for [`Mutex`]. The inner `Option` exists only so
/// [`Condvar::wait`] can move the std guard out and back.
pub struct MutexGuard<'a, T: ?Sized> {
    /// `Some(instance address)` when the acquisition was doctor-tracked;
    /// release bookkeeping keys on it.
    doctor_addr: Option<usize>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(addr) = self.doctor_addr {
            lock_doctor::on_unlock(addr);
        }
    }
}

/// A condition variable compatible with [`Mutex`].
#[derive(Debug)]
pub struct Condvar {
    /// Creation site, for [`lock_doctor`] hazard attribution.
    site: &'static Location<'static>,
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable. The caller's location becomes
    /// the condvar's [`lock_doctor`] site id when the doctor is enabled.
    #[track_caller]
    pub fn new() -> Self {
        lock_doctor::init_from_env();
        Condvar {
            site: Location::caller(),
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases the guard's mutex and blocks until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        if lock_doctor::is_enabled() {
            lock_doctor::on_condvar_wait(self.site, guard.doctor_addr, false);
        }
        let inner = guard.inner.take().expect("guard present");
        guard.inner = Some(
            self.inner
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
    }

    /// Atomically releases the guard's mutex and blocks until notified or
    /// `timeout` elapses. Returns `true` when the wait timed out (mirrors
    /// parking_lot's `WaitTimeoutResult::timed_out`).
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> bool {
        if lock_doctor::is_enabled() {
            lock_doctor::on_condvar_wait(self.site, guard.doctor_addr, true);
        }
        let inner = guard.inner.take().expect("guard present");
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.inner = Some(inner);
        result.timed_out()
    }

    /// Wakes one blocked waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all blocked waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    #[track_caller]
    fn default() -> Self {
        Condvar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn wait_for_times_out_without_notify() {
        let m = Mutex::new(0usize);
        let cv = Condvar::new();
        let mut g = m.lock();
        let timed_out = cv.wait_for(&mut g, Duration::from_millis(20));
        assert!(timed_out);
        assert_eq!(*g, 0);
    }

    #[test]
    fn wait_for_wakes_on_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            // generous timeout: the helper thread signals promptly
            cv.wait_for(&mut done, Duration::from_secs(5));
        }
        drop(done);
        t.join().unwrap();
    }

    #[test]
    fn lock_survives_holder_panic() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("die while holding");
        });
        assert!(t.join().is_err());
        // parking_lot semantics: no poisoning, the data stays reachable
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_rendezvous() {
        let pair = Arc::new((Mutex::new(0usize), Condvar::new()));
        let n = 4;
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let pair = Arc::clone(&pair);
                std::thread::spawn(move || {
                    let (m, cv) = &*pair;
                    let mut count = m.lock();
                    *count += 1;
                    if *count == n {
                        cv.notify_all();
                    } else {
                        while *count < n {
                            cv.wait(&mut count);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*pair.0.lock(), n);
    }
}
