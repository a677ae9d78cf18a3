//! The persistent execution layer (Sec. IV.C's "one pool of long-lived
//! workers pulling shifts", lifted to every parallel layer of the
//! workspace). There is **one** persistent executor per configured width:
//!
//! * **Workers are spawned once.** [`Executor::pool`] caches one executor
//!   per worker count for the lifetime of the process; repeated batches,
//!   sweeps, and enforcement iterations reuse the same OS threads
//!   ([`threads_spawned_total`] is pinned flat in steady state by
//!   `crates/core/tests/exec_steady_state.rs`).
//! * **Workers own the solver scratch.** The executor keeps a checkout
//!   pool of [`SolverWorkspace`]s; every job executes against one, so the
//!   workspace-reuse contract ("whoever loops owns the scratch") has a
//!   single owner: the execution layer.
//! * **A job is a closure.** A cohort member is a [`Job`], a shared
//!   `Fn(&mut SolverWorkspace)` borrowed for the cohort's lifetime: a
//!   batch's job loop, a sweep's shift loop, or a test's counter. All
//!   layers schedule on the same queue, so an idle worker takes whatever
//!   is queued. (One asymmetry remains: a sweep member that finds the
//!   shift queue momentarily empty parks on the sweep's own condvar
//!   rather than returning to the pool, so it is unavailable to other
//!   cohorts until its sweep completes.)
//! * **One queue, one lock.** Each pool holds a single
//!   `Mutex<VecDeque<_>>` of entries and one condvar that idle workers and
//!   waiting cohort owners share. Load balancing happens per *item*
//!   (below), so the queue only ever hands each cohort member one entry;
//!   entries are single machine words and the queue's capacity is reserved
//!   at construction, so steady-state submission and execution allocate
//!   nothing per job.
//!
//! # Cohorts
//!
//! The submission unit is a *cohort* ([`Executor::run_cohort`]): `extra`
//! entries for one job are pushed to the pool while the calling thread
//! runs the same job inline as the cohort's first member, then waits for
//! the queued members — **helping** with any queued work while it waits,
//! which is what makes nested cohorts (a batch job whose sweep fans out on
//! the same pool) deadlock-free by construction: every cohort's owner
//! participates, so progress never depends on a pool worker being free.
//!
//! Cohort jobs are pull loops over shared state (an atomic job counter, a
//! locked [`Scheduler`](crate::scheduler::Scheduler)), so a queue entry is
//! a whole pull loop while load balancing happens at the item level —
//! stragglers cannot serialize a batch, and a cohort with more members
//! than free workers degrades gracefully (queued members find the shared
//! state drained and return immediately).

use crate::solver::SolverWorkspace;
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Queue capacity reserved at construction. A burst beyond it grows the
/// queue once (and the capacity is kept), so this is a steady-state size,
/// not a correctness limit.
const QUEUE_RESERVE: usize = 256;

/// Workspace checkout-pool capacity reserved at construction.
const WORKSPACE_RESERVE: usize = 64;

/// Total executor worker threads spawned by this process (monotonic).
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Number of executor worker threads this process has ever spawned.
///
/// Steady-state pin: after warm-up, repeated batches/sweeps must leave
/// this flat — the whole point of the persistent pool.
pub fn threads_spawned_total() -> usize {
    SPAWNED.load(Ordering::Relaxed)
}

/// One cohort membership: joins the cohort's pull loop over its shared
/// state until that state is drained, against the solver scratch of
/// whichever thread runs it. Workspace contents never influence results
/// (pinned by `reused_workspace_gives_identical_results`), so any member
/// can run against any workspace.
pub type Job<'env> = dyn Fn(&mut SolverWorkspace) + Sync + 'env;

/// Aggregate executor telemetry (monotonic counters since pool creation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Pool width (worker threads; the cohort owner adds one more).
    pub workers: usize,
    /// Cohort memberships run, inline ones included.
    pub tasks_executed: u64,
    /// Always 0 since the pool has a single shared queue; kept while
    /// `benchmark/` reads it as `core.exec.steals`.
    pub steals: u64,
}

/// One erased cohort entry: the address of a stack-pinned `GroupRecord`.
type Entry = usize;

/// The stack-pinned record behind every queued member of a cohort.
///
/// # Safety contract
///
/// The record lives in [`Executor::run_cohort`]'s stack frame, which
/// does not return (and therefore does not unwind past the record) until
/// `remaining` reads zero under the pool's queue lock. Exactly
/// `remaining` entries pointing at the record are pushed, each entry is
/// popped exactly once (under that lock), and a consumer's decrement of
/// `remaining` under the lock is its last touch of the record — so no
/// entry can outlive the frame it points into.
struct GroupRecord<'env> {
    job: &'env Job<'env>,
    /// Members still queued or running. Changed and read only under the
    /// pool's queue lock, which orders every access; the atomic is just
    /// the `Sync` interior mutability.
    remaining: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct PoolShared {
    workers: usize,
    /// Queued cohort entries. Its lock also guards every
    /// [`GroupRecord::remaining`], so completion and waiting share one
    /// critical section and a wakeup cannot be lost.
    queue: Mutex<VecDeque<Entry>>,
    /// Signalled when entries are queued and when a cohort's last member
    /// completes; idle workers and waiting cohort owners both sleep here.
    wake: Condvar,
    workspaces: Mutex<Vec<SolverWorkspace>>,
    /// Memberships run ([`ExecutorStats::tasks_executed`]).
    executed: AtomicU64,
}

thread_local! {
    /// The pool this thread currently schedules on: set for pool workers,
    /// and for the duration of a cohort for its owner.
    static CURRENT: RefCell<Option<Arc<PoolShared>>> = const { RefCell::new(None) };
}

/// Restores the previous thread-local pool binding on drop.
struct CurrentGuard {
    prev: Option<Arc<PoolShared>>,
    active: bool,
}

impl CurrentGuard {
    fn enter(shared: &Arc<PoolShared>) -> CurrentGuard {
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            match cur.as_ref() {
                // Already bound to this pool (a worker thread, or a nested
                // cohort): keep the binding untouched.
                Some(p) if Arc::ptr_eq(p, shared) => CurrentGuard {
                    prev: None,
                    active: false,
                },
                _ => {
                    let prev = cur.replace(Arc::clone(shared));
                    CurrentGuard { prev, active: true }
                }
            }
        })
    }
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        if self.active {
            let prev = self.prev.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

impl PoolShared {
    /// Queues `copies` entries, then wakes sleepers.
    fn submit(&self, entry: Entry, copies: usize) {
        self.queue.lock().extend(std::iter::repeat_n(entry, copies));
        if copies == 1 {
            self.wake.notify_one();
        } else {
            self.wake.notify_all();
        }
    }

    /// Runs one membership of `group` against `ws`, counted, keeping the
    /// cohort's first panic payload.
    fn run_member(&self, group: &GroupRecord<'_>, ws: &mut SolverWorkspace) {
        self.executed.fetch_add(1, Ordering::Relaxed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (group.job)(ws))) {
            group.panic.lock().get_or_insert(payload);
        }
    }

    /// Executes one popped entry against `ws`, storing any panic in the
    /// cohort record, then counts the member complete under the queue
    /// lock (see [`GroupRecord`]'s safety contract).
    fn execute(&self, entry: Entry, ws: &mut SolverWorkspace) {
        // SAFETY: `entry` is the exposed provenance of a `GroupRecord`
        // pinned in a `run_cohort` frame that cannot return before the
        // record's `remaining` reads zero under the queue lock. This entry
        // was popped exactly once, and the decrement under the lock below
        // is this consumer's last touch of the record.
        let group: &GroupRecord<'_> =
            unsafe { &*std::ptr::with_exposed_provenance::<GroupRecord<'_>>(entry) };
        self.run_member(group, ws);
        let _queue = self.queue.lock();
        if group.remaining.fetch_sub(1, Ordering::Relaxed) == 1 {
            // The owner may be asleep on `wake`, beside idle workers.
            self.wake.notify_all();
        }
    }

    /// Runs `f` against a workspace checked out from the pool and returned
    /// after it, so scratch persists across memberships and calls. Every
    /// `f` here runs memberships, which contain their own panics, so
    /// nothing unwinds past the checkout.
    fn with_workspace<R>(&self, f: impl FnOnce(&mut SolverWorkspace) -> R) -> R {
        // `SolverWorkspace::default` is an empty Vec — creating one when
        // the checkout pool is momentarily dry allocates nothing.
        let mut ws = self.workspaces.lock().pop().unwrap_or_default();
        let result = f(&mut ws);
        self.workspaces.lock().push(ws);
        result
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&shared)));
    loop {
        let entry = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(entry) = queue.pop_front() {
                    break entry;
                }
                shared.wake.wait(&mut queue);
            }
        };
        shared.with_workspace(|ws| shared.execute(entry, ws));
    }
}

/// Process-wide executor registry: one persistent pool per width.
static POOLS: Mutex<Vec<(usize, Executor)>> = Mutex::new(Vec::new());

/// Handle to a persistent worker pool. Cloning is cheap
/// (reference-counted); the pool itself lives for the whole process.
#[derive(Clone)]
pub struct Executor {
    shared: Arc<PoolShared>,
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers())
            .finish()
    }
}

impl Executor {
    /// Spawns a fresh, uncached pool. Prefer [`Executor::pool`]; this
    /// exists for tests that need an isolated instance.
    fn spawn_pool(workers: usize) -> Executor {
        let shared = Arc::new(PoolShared {
            workers,
            queue: Mutex::new(VecDeque::with_capacity(QUEUE_RESERVE)),
            wake: Condvar::new(),
            workspaces: Mutex::new(Vec::with_capacity(WORKSPACE_RESERVE)),
            executed: AtomicU64::new(0),
        });
        for index in 0..workers {
            let shared = Arc::clone(&shared);
            SPAWNED.fetch_add(1, Ordering::Relaxed);
            // PANIC-SAFE: worker-thread spawn fails only on OS resource
            // exhaustion, and a pool constructor has no error channel —
            // a process that cannot spawn its workers cannot run.
            #[allow(clippy::expect_used)]
            std::thread::Builder::new()
                .name(format!("pheig-exec-{index}"))
                .spawn(move || worker_loop(shared))
                .expect("spawn executor worker thread");
        }
        Executor { shared }
    }

    /// The process-wide persistent pool with `workers` worker threads
    /// (the calling thread always participates as one more cohort member,
    /// so total parallelism is `workers + 1`).
    ///
    /// Pools are created on first request and cached for the lifetime of
    /// the process — workers are spawned **once**, never per call. One
    /// pool exists per *distinct* width and never shuts down, so callers
    /// are expected to use few widths (production flows use one; the
    /// bench harness uses two). Idle workers sleep on the pool's condvar
    /// until work is queued, costing no CPU; they hold no workspace while
    /// asleep.
    pub fn pool(workers: usize) -> Executor {
        let mut pools = POOLS.lock();
        if let Some((_, exec)) = pools.iter().find(|(w, _)| *w == workers) {
            return exec.clone();
        }
        let exec = Executor::spawn_pool(workers);
        pools.push((workers, exec.clone()));
        exec
    }

    /// The pool the current thread is already scheduling on, if any: set
    /// for pool workers and, for the duration of a cohort, for the cohort
    /// owner — so nested layers land on the same pool instead of nesting
    /// new ones.
    pub fn current() -> Option<Executor> {
        CURRENT.with(|c| {
            c.borrow().as_ref().map(|shared| Executor {
                shared: Arc::clone(shared),
            })
        })
    }

    /// [`Executor::current`] when inside a pool (never oversubscribe from
    /// a nested layer), else the cached [`Executor::pool`] of the
    /// requested width.
    pub fn current_or_pool(workers: usize) -> Executor {
        Executor::current().unwrap_or_else(|| Executor::pool(workers))
    }

    /// Pool width (worker threads, excluding cohort owners).
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            workers: self.workers(),
            tasks_executed: self.shared.executed.load(Ordering::Relaxed),
            steals: 0,
        }
    }

    /// Runs `f` against a workspace checked out from the executor's pool
    /// (a batch's inline membership), so scratch persists across calls
    /// instead of being rebuilt per invocation. `f` must not unwind: pass
    /// it a [`Executor::run_cohort`], which contains panics.
    pub(crate) fn with_workspace<R>(&self, f: impl FnOnce(&mut SolverWorkspace) -> R) -> R {
        self.shared.with_workspace(f)
    }

    /// Runs a cohort of `extra + 1` memberships of `job`: `extra` on the
    /// pool, plus one inline on the calling thread (the cohort owner)
    /// against the caller's `ws`. Returns when **all** memberships have
    /// finished; the owner helps execute queued work — from this or any
    /// other cohort, against `ws` — while it waits, which keeps nested
    /// cohorts deadlock-free on any pool width (including zero workers).
    ///
    /// Helping is deliberately indiscriminate (the rayon `join`
    /// trade-off): an owner may claim another cohort's pull loop and run
    /// it to drain, extending its own return by that foreign workload.
    /// Within this workspace cohorts come from one tool flow, so the
    /// helped work is always work the process wants done; callers mixing
    /// independent latency-sensitive batches on one pool should use
    /// separate pools.
    ///
    /// # Errors
    ///
    /// Panics are *contained*, never propagated: the whole cohort still
    /// runs to completion (a panicked member counts as
    /// completed-with-error, so no member is lost and no waiter
    /// deadlocks), and an observed panic payload is returned as `Err`.
    /// This is the boundary the solver layers use to convert unwinds into
    /// typed [`SolverError::TaskPanicked`](crate::error::SolverError::TaskPanicked)
    /// values.
    pub fn run_cohort(
        &self,
        extra: usize,
        ws: &mut SolverWorkspace,
        job: &Job<'_>,
    ) -> Result<(), Box<dyn Any + Send>> {
        let shared = &self.shared;
        let _bind = CurrentGuard::enter(shared);
        let group = GroupRecord {
            job,
            remaining: AtomicUsize::new(extra),
            panic: Mutex::new(None),
        };
        if extra > 0 {
            // Expose the record's provenance so consumers can soundly
            // rebuild a reference from the word-sized entry (`execute`'s
            // `with_exposed_provenance` counterpart).
            let entry = std::ptr::from_ref(&group).expose_provenance();
            shared.submit(entry, extra);
        }
        shared.run_member(&group, ws);
        // Completion barrier: every pushed entry must be consumed before
        // `group` leaves scope (see the GroupRecord safety contract). The
        // count is read under the same lock the last member decrements it
        // under before notifying, so the owner cannot sleep through it.
        let mut queue = shared.queue.lock();
        while group.remaining.load(Ordering::Relaxed) > 0 {
            match queue.pop_front() {
                Some(queued) => {
                    drop(queue);
                    shared.execute(queued, ws);
                    queue = shared.queue.lock();
                }
                None => shared.wake.wait(&mut queue),
            }
        }
        drop(queue);
        match group.panic.into_inner() {
            Some(payload) => Err(payload),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a cohort of a counting job, the owner's workspace checked out
    /// from the pool, and returns how many memberships ran.
    fn counted_cohort(exec: &Executor, extra: usize) -> usize {
        let hits = AtomicUsize::new(0);
        exec.with_workspace(|ws| {
            exec.run_cohort(extra, ws, &|_| {
                hits.fetch_add(1, Ordering::SeqCst);
            })
        })
        .expect("a counting cohort does not panic");
        hits.into_inner()
    }

    /// Runs a cohort whose every membership counts itself, then panics.
    fn panicking_cohort(
        exec: &Executor,
        extra: usize,
        hits: &AtomicUsize,
    ) -> Result<(), Box<dyn Any + Send>> {
        exec.with_workspace(|ws| {
            exec.run_cohort(extra, ws, &|_| {
                hits.fetch_add(1, Ordering::SeqCst);
                panic!("membership failed by design");
            })
        })
    }

    #[test]
    fn cohort_runs_exactly_extra_plus_one_times() {
        let exec = Executor::spawn_pool(2);
        for extra in [0usize, 1, 2, 7] {
            assert_eq!(counted_cohort(&exec, extra), extra + 1, "extra = {extra}");
        }
    }

    #[test]
    fn zero_worker_pool_still_completes_cohorts() {
        // All pool copies are executed by the helping owner.
        let exec = Executor::spawn_pool(0);
        assert_eq!(counted_cohort(&exec, 5), 6);
        assert_eq!(exec.stats().tasks_executed, 6);
    }

    #[test]
    fn cohort_larger_than_the_reserved_queue_completes() {
        // The queue grows past its reserve instead of refusing entries.
        let exec = Executor::spawn_pool(0);
        let copies = QUEUE_RESERVE + 257;
        assert_eq!(counted_cohort(&exec, copies), copies + 1);
    }

    #[test]
    fn repeated_oversubscribed_cohorts_complete() {
        // More cohort members than pool workers, over and over: queued
        // copies must always be consumed (by workers or the helping
        // owner), never lost or double-run.
        let exec = Executor::spawn_pool(1);
        for round in 1..=20usize {
            assert_eq!(counted_cohort(&exec, 6), 7, "round {round}");
        }
        assert_eq!(exec.stats().tasks_executed, 20 * 7);
    }

    #[test]
    fn back_to_back_cohorts_share_one_workspace() {
        // The enforcement-loop shape: many cohorts in a row against one
        // caller-owned workspace, same pool throughout. (Genuine *nested*
        // cohorts — a job that opens a cohort — are exercised end-to-end
        // by the batch-with-parallel-sweeps pipeline test.)
        let exec = Executor::spawn_pool(1);
        let a = AtomicUsize::new(0);
        let b = AtomicUsize::new(0);
        let count = |hits: &AtomicUsize| {
            hits.fetch_add(1, Ordering::SeqCst);
        };
        let mut ws = SolverWorkspace::new();
        assert!(exec.run_cohort(2, &mut ws, &|_| count(&a)).is_ok());
        assert!(exec.run_cohort(3, &mut ws, &|_| count(&b)).is_ok());
        assert_eq!(a.into_inner(), 3);
        assert_eq!(b.into_inner(), 4);
    }

    #[test]
    fn pool_registry_caches_by_width() {
        let a = Executor::pool(2);
        let b = Executor::pool(2);
        assert!(Arc::ptr_eq(&a.shared, &b.shared));
        let c = Executor::pool(3);
        assert!(!Arc::ptr_eq(&a.shared, &c.shared));
        assert_eq!(c.workers(), 3);
    }

    #[test]
    fn stats_count_memberships() {
        let exec = Executor::spawn_pool(1);
        let before = exec.stats();
        assert_eq!(before.tasks_executed, 0);
        assert_eq!(counted_cohort(&exec, 4), 5);
        let after = exec.stats();
        assert_eq!(after.tasks_executed, 5);
        assert_eq!(after.workers, 1);
        assert_eq!(after.steals, 0);
    }

    #[test]
    fn current_binding_is_cleared_after_a_cohort() {
        assert!(Executor::current().is_none());
        let exec = Executor::spawn_pool(1);
        assert_eq!(counted_cohort(&exec, 1), 2);
        // The cohort owner's pool binding must not leak past run_cohort.
        assert!(Executor::current().is_none());
    }

    #[test]
    fn panicking_cohort_surfaces_its_payload_and_the_pool_survives() {
        // Every membership of this cohort panics (worker-side and inline
        // alike); run_cohort must still complete the whole cohort, then
        // return the payload, and the pool must stay usable afterwards.
        let exec = Executor::spawn_pool(1);
        let hits = AtomicUsize::new(0);
        let payload =
            panicking_cohort(&exec, 2, &hits).expect_err("panic payload must surface as Err");
        let msg = payload
            .downcast_ref::<&str>()
            .expect("the job panics with a &str");
        assert!(msg.contains("by design"));
        assert_eq!(hits.into_inner(), 3, "all memberships ran before returning");
        assert_eq!(
            counted_cohort(&exec, 2),
            3,
            "pool survives contained panics"
        );
    }

    #[test]
    fn panicking_cohort_does_not_leak_workspace_checkouts() {
        // Zero workers: every membership (and its workspace checkout)
        // executes on the owner thread, so the checkout-pool length is
        // deterministic at every observation point.
        let exec = Executor::spawn_pool(0);
        assert_eq!(counted_cohort(&exec, 3), 4); // prime the checkout pool
        let before = exec.shared.workspaces.lock().len();
        let hits = AtomicUsize::new(0);
        assert!(panicking_cohort(&exec, 3, &hits).is_err());
        assert_eq!(
            hits.into_inner(),
            4,
            "every panicked member was counted complete"
        );
        assert_eq!(
            exec.shared.workspaces.lock().len(),
            before,
            "every checkout must be returned despite the unwinds"
        );
        assert_eq!(counted_cohort(&exec, 2), 3, "pool stays usable");
    }
}
