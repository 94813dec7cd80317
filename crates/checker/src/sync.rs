//! The synchronization substrate of the parallel engine.
//!
//! Every lock and atomic the checker uses goes through this module — it is
//! the **only** file in the workspace allowed to name `std::sync` primitives directly
//! (the `remix-analyze` concurrency lint enforces this; `// sync-exempt:` marks the
//! leaf exceptions in `remix-spec`, which sits below this crate).  Centralizing
//! the substrate buys two things:
//!
//! 1. **One poisoning policy.**  [`lock_or_recover`] (and its RwLock siblings) treat a
//!    poisoned lock as recoverable, because every engine-side critical section leaves
//!    shared state consistent at every await-free point and worker panics are
//!    separately caught and re-raised by the kernel once the level's scope has joined.
//!    Every acquisition of the crate's `Mutex` and `RwLock` wrappers routes through it.
//! 2. **Schedule perturbation.**  [`perturb::install`] arms a seeded PRNG that
//!    injects `yield_now`/short-sleep calls at every sync point ([`perturb_point`]):
//!    each acquisition and each release of a wrapper, and the explicit points of
//!    `StopCell`.  The determinism oracle shakes out schedule-dependent results with
//!    a replayable seed.
//!
//! When the fuzzer is disarmed, a sync point is **one relaxed atomic load and a
//! predictable branch** on top of the raw `std::sync` operation.  The library reads
//! no environment variable: nothing here changes with how a process was started.
//!
//! The wrappers carry no lock order.  Two locks nest, a store stripe and the store's
//! intern pool, and their order is a fact of the store's types: the pool is reachable
//! only through a held stripe (see [`mod@crate::store`], "Locks").  Every other lock
//! — the coverage stripes, POR's footprint table — is a leaf.

// The one sanctioned raw-sync import site (see the module docs above).
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync as raw;
use std::sync::{PoisonError, TryLockError};
use std::time::Duration;

// Re-exported under their std names so engine files write `sync::AtomicU64` etc.;
// importing atomics through this module keeps the raw-sync lint rule simple and total.
pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// The single poisoning policy: recover the guard from a poisoned mutex.
///
/// A poisoned lock means some thread panicked while holding it.  Engine critical
/// sections keep their shared structures consistent at every unwind edge, and the
/// kernel separately catches, records and re-raises worker panics — so
/// continuing with the recovered guard is sound and keeps a single panic from
/// cascading into every other thread.  Every wrapper acquisition routes through
/// this helper (or its RwLock siblings below); nothing else in the workspace may
/// match on `PoisonError`.
pub fn lock_or_recover<T: ?Sized>(m: &raw::Mutex<T>) -> raw::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_or_recover`] for `RwLock` read guards — same policy, same rationale.
pub fn read_or_recover<T: ?Sized>(l: &raw::RwLock<T>) -> raw::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_or_recover`] for `RwLock` write guards — same policy, same rationale.
pub fn write_or_recover<T: ?Sized>(l: &raw::RwLock<T>) -> raw::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Schedule perturbation: a seeded PRNG injecting yields/sleeps at sync points.
// ---------------------------------------------------------------------------

/// Seeded schedule perturbation for the determinism oracle.
pub mod perturb {
    use super::*;

    static SEED: AtomicU64 = AtomicU64::new(0);
    static EPOCH: AtomicU64 = AtomicU64::new(0);
    static THREAD_SALT: AtomicU64 = AtomicU64::new(0);
    static INSTALL_LOCK: raw::Mutex<()> = raw::Mutex::new(());

    thread_local! {
        /// (epoch, splitmix64 state); reseeded when the installed epoch moves.
        static RNG: RefCell<(u64, u64)> = const { RefCell::new((0, 0)) };
        static SALT: RefCell<Option<u64>> = const { RefCell::new(None) };
    }

    /// Arms schedule perturbation with `seed` for the lifetime of the returned
    /// guard.  Guards serialize on an internal mutex so overlapping fuzz runs
    /// cannot smear each other's seeds; a zero seed is treated as 1 (zero means
    /// "off" internally).
    pub fn install(seed: u64) -> PerturbGuard {
        let guard = lock_or_recover(&INSTALL_LOCK);
        // ordering: Relaxed — perturbation is timing-only; threads may observe the
        // new seed a beat late without affecting any engine result.
        EPOCH.fetch_add(1, Ordering::Relaxed);
        SEED.store(seed.max(1), Ordering::Relaxed); // ordering: Relaxed — as above.
        PerturbGuard { _serial: guard }
    }

    /// RAII handle of [`install`]; dropping it disarms perturbation.
    pub struct PerturbGuard {
        _serial: raw::MutexGuard<'static, ()>,
    }

    impl Drop for PerturbGuard {
        fn drop(&mut self) {
            SEED.store(0, Ordering::Relaxed); // ordering: Relaxed — timing-only.
            EPOCH.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — timing-only.
        }
    }

    #[inline]
    pub(super) fn armed() -> bool {
        // ordering: Relaxed — a stale read only delays/extends perturbation.
        SEED.load(Ordering::Relaxed) != 0
    }

    #[cold]
    pub(super) fn hit() {
        let seed = SEED.load(Ordering::Relaxed); // ordering: Relaxed — timing-only.
        if seed == 0 {
            return;
        }
        let epoch = EPOCH.load(Ordering::Relaxed); // ordering: Relaxed — timing-only.
        let salt = SALT.with(|s| {
            *s.borrow_mut().get_or_insert_with(|| {
                // ordering: Relaxed — the counter only needs uniqueness, which the
                // atomic RMW guarantees regardless of ordering.
                THREAD_SALT.fetch_add(1, Ordering::Relaxed)
            })
        });
        let draw = RNG.with(|rng| {
            let mut rng = rng.borrow_mut();
            if rng.0 != epoch {
                *rng = (epoch, splitmix64_seed(seed, salt));
            }
            let (next, draw) = splitmix64(rng.1);
            rng.1 = next;
            draw
        });
        // Mostly cheap yields, occasionally a real (short) sleep: enough to move
        // park/steal/merge interleavings around without stalling the suite.
        match draw % 64 {
            0 => std::thread::sleep(Duration::from_micros(200)),
            1..=31 => std::thread::yield_now(),
            _ => {}
        }
    }

    fn splitmix64_seed(seed: u64, salt: u64) -> u64 {
        seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn splitmix64(state: u64) -> (u64, u64) {
        let next = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = next;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (next, z ^ (z >> 31))
    }
}

/// A schedule-perturbation point: when a fuzz seed is installed, maybe yield or
/// sleep here.  Every instrumented lock operation calls this; engine code
/// may add explicit points at logically interesting races (e.g. stop-flag
/// publication).  One relaxed load when disarmed.
#[inline]
pub fn perturb_point() {
    if perturb::armed() {
        perturb::hit();
    }
}

// ---------------------------------------------------------------------------
// The wrappers: a perturbation point on each side of every critical section.
// ---------------------------------------------------------------------------

/// A mutex whose acquisitions recover from poisoning ([`lock_or_recover`]) and are
/// perturbation points, as are its guards' releases.
pub(crate) struct Mutex<T>(raw::Mutex<T>);

impl<T> Mutex<T> {
    pub(crate) fn new(value: T) -> Self {
        Mutex(raw::Mutex::new(value))
    }

    /// Acquires the lock, poison-recovering.
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        perturb_point();
        MutexGuard(lock_or_recover(&self.0))
    }

    /// The contention-counting acquisition: try first; on `WouldBlock` bump
    /// `contended` (observability only) and block.  Used by the store shards and
    /// the coverage stripes so `CheckStats::shard_contention` keeps its meaning.
    pub(crate) fn lock_counting(&self, contended: &AtomicU64) -> MutexGuard<'_, T> {
        perturb_point();
        MutexGuard(match self.0.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                // ordering: Relaxed — a statistics counter; nothing reads it for
                // control flow, and the final report reads it after joins.
                contended.fetch_add(1, Ordering::Relaxed);
                lock_or_recover(&self.0)
            }
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        })
    }
}

/// Guard of a [`Mutex`]; its release is a perturbation point.
pub(crate) struct MutexGuard<'a, T>(raw::MutexGuard<'a, T>);

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        perturb_point();
    }
}

/// An rwlock whose acquisitions, read and write, recover from poisoning and are
/// perturbation points, as are its guards' releases.
pub(crate) struct RwLock<T>(raw::RwLock<T>);

impl<T> RwLock<T> {
    pub(crate) fn new(value: T) -> Self {
        RwLock(raw::RwLock::new(value))
    }

    /// Acquires a shared read guard, poison-recovering.
    pub(crate) fn read(&self) -> ReadGuard<'_, T> {
        perturb_point();
        ReadGuard(read_or_recover(&self.0))
    }

    /// Acquires the exclusive write guard, poison-recovering.
    pub(crate) fn write(&self) -> WriteGuard<'_, T> {
        perturb_point();
        WriteGuard(write_or_recover(&self.0))
    }
}

/// Read guard of an [`RwLock`]; its release is a perturbation point.
pub(crate) struct ReadGuard<'a, T>(raw::RwLockReadGuard<'a, T>);

impl<T> Deref for ReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> Drop for ReadGuard<'_, T> {
    fn drop(&mut self) {
        perturb_point();
    }
}

/// Write guard of an [`RwLock`]; its release is a perturbation point.
pub(crate) struct WriteGuard<'a, T>(raw::RwLockWriteGuard<'a, T>);

impl<T> Deref for WriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T> Drop for WriteGuard<'_, T> {
    fn drop(&mut self) {
        perturb_point();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturbation_is_seed_deterministic_per_thread() {
        // Two installs of the same seed step the same thread-local stream; the
        // test only asserts it runs and disarms — timing effects are the point,
        // determinism of *results* is the oracle's job.
        {
            let _g = perturb::install(42);
            for _ in 0..256 {
                perturb_point();
            }
        }
        assert!(!perturb::armed());
    }

    #[test]
    fn counting_lock_counts_contention_not_correctness() {
        let m: std::sync::Arc<Mutex<u64>> = std::sync::Arc::new(Mutex::new(0));
        let contended = std::sync::Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                let c = std::sync::Arc::clone(&contended);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        *m.lock_counting(&c) += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker");
        }
        assert_eq!(*m.lock(), 2000);
    }
}
