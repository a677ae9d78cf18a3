//! Operator scratch behind a mutex that is never waited on.
//!
//! The structured operators own per-apply workspaces sized at
//! construction. [`crate::CLinearOp`] requires `Sync`, so that storage
//! sits in a `std::sync::Mutex`, taken with `try_lock`: each solver worker
//! builds its own operator, so in every in-tree driver the lock is free
//! and an apply pays one uncontended acquire and release.
//!
//! If two threads ever apply the *same* operator at once, the loser does
//! not block: it builds a temporary workspace from the fallback closure
//! and proceeds, and the [`contention_total`] counter records the event so
//! tests can pin the fast path (`crates/core/tests/exec_steady_state.rs`
//! asserts zero contended applies across a full batch workload).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, TryLockError};

/// Process-wide count of contended scratch acquisitions (fallback
/// allocations). Zero in every supported driver topology.
static CONTENDED: AtomicU64 = AtomicU64::new(0);

/// Total number of contended operator-scratch acquisitions in this
/// process.
///
/// A contended acquisition means two threads applied the *same* operator
/// concurrently; the hot-path contract expects this to stay `0`.
pub fn contention_total() -> u64 {
    CONTENDED.load(Ordering::Relaxed)
}

/// Runs `f` with exclusive access to the workspace in `scratch`.
///
/// Fast path: an uncontended `try_lock`, zero allocations. If another
/// thread holds the lock, `fallback` builds a temporary workspace
/// (allocating — the cold path the contention counter tracks). A lock
/// poisoned by a panicking apply is recovered: no apply reads what an
/// earlier one left in the scratch, so the next apply overwrites it.
pub(crate) fn with_scratch<T, R>(
    scratch: &Mutex<T>,
    fallback: impl FnOnce() -> T,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    match scratch.try_lock() {
        Ok(mut guard) => f(&mut guard),
        Err(TryLockError::Poisoned(poisoned)) => f(&mut poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => {
            CONTENDED.fetch_add(1, Ordering::Relaxed);
            f(&mut fallback())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_reuses_the_owned_workspace() {
        let scratch = Mutex::new(vec![0u8; 8]);
        let ptr1 = with_scratch(&scratch, Vec::new, |v| v.as_ptr() as usize);
        let ptr2 = with_scratch(&scratch, Vec::new, |v| v.as_ptr() as usize);
        assert_eq!(ptr1, ptr2, "sequential applies must reuse storage");
    }

    #[test]
    fn contended_acquisition_falls_back_without_blocking() {
        let scratch = Mutex::new(1u32);
        let before = contention_total();
        with_scratch(
            &scratch,
            || unreachable!("uncontended"),
            |outer| {
                // Re-entrant use while held: must take the fallback.
                let inner = with_scratch(&scratch, || 42u32, |v| *v);
                assert_eq!(inner, 42);
                *outer += 1;
            },
        );
        assert_eq!(contention_total(), before + 1);
        // The owned slot is intact and available again.
        assert_eq!(with_scratch(&scratch, || 0, |v| *v), 2);
    }

    #[test]
    fn poisoned_scratch_is_recovered_without_fallback() {
        let scratch = std::sync::Arc::new(Mutex::new(5u32));
        let s2 = scratch.clone();
        let result = std::thread::spawn(move || {
            with_scratch(&s2, || 0, |_| panic!("poisoned apply"));
        })
        .join();
        assert!(result.is_err());
        assert!(scratch.is_poisoned());
        // The owned workspace is still used, not the fallback.
        assert_eq!(with_scratch(&scratch, || 0, |v| *v), 5);
    }
}
