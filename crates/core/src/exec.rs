//! The persistent execution layer (Sec. IV.C's "one pool of long-lived
//! workers pulling shifts", lifted to every parallel layer of the
//! workspace).
//!
//! Before this module existed, each parallel layer spawned its own
//! `std::thread::scope` pool per call: [`crate::pipeline::run_batch`] per
//! batch, the sweep driver in [`crate::solver`] per sweep, and the
//! enforcement loop per re-characterization — so nested layers
//! oversubscribed cores and rebuilt workers (and their Krylov scratch) on
//! every invocation. This module replaces all of that with **one**
//! persistent executor per configured width:
//!
//! * **Workers are spawned once.** [`Executor::pool`] caches one executor
//!   per worker count for the lifetime of the process; repeated batches,
//!   sweeps, and enforcement iterations reuse the same OS threads
//!   ([`threads_spawned_total`] is pinned flat in steady state by
//!   `crates/core/tests/exec_steady_state.rs`).
//! * **Workers own the solver scratch.** The executor keeps a checkout
//!   pool of [`SolverWorkspace`]s; every task executes against one, so the
//!   workspace-reuse contract ("whoever loops owns the scratch") has a
//!   single owner: the execution layer.
//! * **One task taxonomy.** [`Task`] is the unified currency: batch
//!   pipeline jobs, multi-shift sweep membership (characterization *and*
//!   enforcement re-sweeps, distinguished by [`SweepOrigin`]), and a
//!   telemetry probe. All layers schedule on the same queue, so an idle
//!   worker takes whatever is queued — batch jobs or sweep memberships
//!   alike. (One asymmetry remains: a sweep member that finds the shift
//!   queue momentarily empty parks on the sweep's own condvar rather
//!   than returning to the pool, so it is unavailable to other cohorts
//!   until its sweep completes — the same behavior the pre-executor
//!   dedicated sweep threads had.)
//! * **One queue, one lock.** Each pool holds a single
//!   `Mutex<VecDeque<_>>` of entries and one condvar that idle workers and
//!   waiting cohort owners share. Load balancing happens per *item*
//!   (below), so the queue only ever hands each cohort member one entry;
//!   entries are single machine words and the queue's capacity is reserved
//!   at construction, so steady-state submission and execution allocate
//!   nothing per task.
//!
//! # Cohorts
//!
//! The submission unit is a *cohort* ([`Executor::run_cohort`]): `extra`
//! copies of one [`Task`] are pushed to the pool while the calling thread
//! runs the same task inline as the cohort's first member, then waits for
//! the copies — **helping** with any queued work while it waits, which is
//! what makes nested cohorts (a batch job whose sweep fans out on the same
//! pool) deadlock-free by construction: every cohort's owner participates,
//! so progress never depends on a pool worker being free.
//!
//! Cohort tasks are pull loops over shared state (an atomic job counter, a
//! locked [`Scheduler`](crate::scheduler::Scheduler)), so a queue entry is
//! a whole pull loop while load balancing happens at the item level —
//! stragglers cannot serialize a batch, and a cohort with more members
//! than free workers degrades gracefully (queued members find the shared
//! state drained and return immediately).

use crate::pipeline::BatchShare;
use crate::solver::{SolverWorkspace, SweepShare};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
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

/// Which layer a [`Task::ShiftSweep`] serves: the pipeline's one-shot
/// characterization sweep, or one of the enforcement loop's
/// re-characterization sweeps. Purely telemetry — both schedule
/// identically — but it makes [`ExecutorStats`] show where sweep work
/// actually comes from (enforcement typically dominates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepOrigin {
    /// A passivity-characterization sweep (pipeline stage 2, or a direct
    /// `find_imaginary_eigenvalues` call).
    Characterization,
    /// An enforcement-loop re-characterization sweep (line-search trials
    /// and verification sweeps).
    Enforcement,
}

/// Shared state of a telemetry probe cohort: counts executions and
/// nothing else. Used by the steady-state tests (and available to
/// monitoring) to measure the executor's own overhead — a probe cohort
/// exercises the full submit/execute/complete machinery with a no-op
/// payload.
#[derive(Debug, Default)]
pub struct ProbeShare {
    hits: AtomicUsize,
}

impl ProbeShare {
    /// A fresh probe with zero hits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of times the probe task has executed (inline run included).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::SeqCst)
    }

    pub(crate) fn run(&self) {
        self.hits.fetch_add(1, Ordering::SeqCst);
    }
}

/// The unified task taxonomy: everything the workspace schedules in
/// parallel is one of these, so all layers share one pool instead of
/// nesting scoped thread pools.
///
/// Each variant borrows the *shared state* of one cohort; running a task
/// means joining that cohort's pull loop (jobs from an atomic counter,
/// shifts from the locked scheduler) until the shared state is drained.
#[derive(Clone, Copy)]
pub enum Task<'env> {
    /// Pull-and-run pipeline jobs from a batch
    /// ([`crate::pipeline::run_batch`]).
    BatchJob(&'env BatchShare<'env>),
    /// Pull [`Scheduler::next_shift`](crate::scheduler::Scheduler::next_shift)
    /// tasks for one multi-shift sweep; covers both characterization
    /// sweeps and enforcement re-sweeps (see [`SweepOrigin`]).
    ShiftSweep(&'env SweepShare<'env>),
    /// Telemetry probe measuring executor overhead (see [`ProbeShare`]).
    Probe(&'env ProbeShare),
    /// Test-only probe whose run panics, exercising the worker-side
    /// unwind path.
    #[cfg(test)]
    PanicProbe(&'env ProbeShare),
}

impl fmt::Debug for Task<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Task::BatchJob(_) => f.write_str("Task::BatchJob"),
            Task::ShiftSweep(s) => write!(f, "Task::ShiftSweep({:?})", s.origin),
            Task::Probe(_) => f.write_str("Task::Probe"),
            #[cfg(test)]
            Task::PanicProbe(_) => f.write_str("Task::PanicProbe"),
        }
    }
}

impl Task<'_> {
    /// Runs one cohort membership to completion.
    fn run(&self, ctx: &mut TaskContext<'_>) {
        match self {
            Task::BatchJob(share) => share.run(ctx),
            Task::ShiftSweep(share) => share.run(ctx),
            Task::Probe(share) => share.run(),
            #[cfg(test)]
            Task::PanicProbe(share) => {
                share.run();
                panic!("PanicProbe membership failed by design");
            }
        }
    }
}

/// Execution context handed to every running task: the worker's
/// checked-out solver scratch. Workspace contents never influence results
/// (pinned by `reused_workspace_gives_identical_results`), so any task can
/// run against any workspace.
pub struct TaskContext<'a> {
    pub(crate) workspace: &'a mut SolverWorkspace,
}

impl<'a> TaskContext<'a> {
    /// Wraps caller-owned scratch as an execution context (the cohort
    /// owner's inline membership uses its own workspace, preserving the
    /// caller-owned-scratch contract of `find_imaginary_eigenvalues_with`).
    pub fn new(workspace: &'a mut SolverWorkspace) -> Self {
        TaskContext { workspace }
    }

    /// The solver scratch this task executes against.
    pub fn workspace(&mut self) -> &mut SolverWorkspace {
        self.workspace
    }
}

/// Aggregate executor telemetry (monotonic counters since pool creation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Pool width (worker threads; the cohort owner adds one more).
    pub workers: usize,
    /// Task executions, inline cohort memberships included.
    pub tasks_executed: u64,
    /// Executions that were batch pipeline jobs.
    pub batch_jobs: u64,
    /// Executions that were characterization sweep memberships.
    pub characterization_sweeps: u64,
    /// Executions that were enforcement re-sweep memberships.
    pub enforcement_sweeps: u64,
    /// Executions that were telemetry probes.
    pub probes: u64,
    /// Always 0 since the pool has a single shared queue; kept while
    /// `benchmark/` reads it as `core.exec.steals`.
    pub steals: u64,
}

#[derive(Default)]
struct Counters {
    executed: AtomicU64,
    batch_jobs: AtomicU64,
    characterization_sweeps: AtomicU64,
    enforcement_sweeps: AtomicU64,
    probes: AtomicU64,
}

/// One erased cohort entry: the address of a stack-pinned `GroupRecord`.
type Entry = usize;

/// The stack-pinned record behind every pool copy of a cohort task.
///
/// # Safety contract
///
/// The record lives in [`Executor::run_cohort_caught`]'s stack frame,
/// which does not return (and therefore does not unwind past the record)
/// until `remaining` reads zero under the pool's queue lock. Exactly
/// `remaining` entries pointing at the record are pushed, each entry is
/// popped exactly once (under that lock), and a consumer's decrement of
/// `remaining` under the lock is its last touch of the record — so no
/// entry can outlive the frame it points into.
struct GroupRecord<'env> {
    task: Task<'env>,
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
    counters: Counters,
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

    fn record(&self, task: &Task<'_>) {
        self.counters.executed.fetch_add(1, Ordering::Relaxed);
        let per_kind = match task {
            Task::BatchJob(_) => &self.counters.batch_jobs,
            Task::ShiftSweep(share) => match share.origin {
                SweepOrigin::Characterization => &self.counters.characterization_sweeps,
                SweepOrigin::Enforcement => &self.counters.enforcement_sweeps,
            },
            Task::Probe(_) => &self.counters.probes,
            #[cfg(test)]
            Task::PanicProbe(_) => &self.counters.probes,
        };
        per_kind.fetch_add(1, Ordering::Relaxed);
    }

    /// Executes one popped entry against `ctx`, storing any panic in the
    /// cohort record, then counts the member complete under the queue
    /// lock (see [`GroupRecord`]'s safety contract).
    fn execute(&self, entry: Entry, ctx: &mut TaskContext<'_>) {
        // SAFETY: `entry` is the exposed provenance of a `GroupRecord`
        // pinned in a `run_cohort_caught` frame that cannot return before
        // the record's `remaining` reads zero under the queue lock. This
        // entry was popped exactly once, and the decrement under the lock
        // below is this consumer's last touch of the record.
        let group: &GroupRecord<'_> =
            unsafe { &*std::ptr::with_exposed_provenance::<GroupRecord<'_>>(entry) };
        let task = group.task;
        self.record(&task);
        let result = catch_unwind(AssertUnwindSafe(|| task.run(ctx)));
        if let Err(payload) = result {
            *group.panic.lock() = Some(payload);
        }
        let _queue = self.queue.lock();
        if group.remaining.fetch_sub(1, Ordering::Relaxed) == 1 {
            // The owner may be asleep on `wake`, beside idle workers.
            self.wake.notify_all();
        }
    }

    /// Executes an entry against a checked-out pool workspace.
    fn execute_pooled(&self, entry: Entry) {
        // `SolverWorkspace::default` is an empty Vec — creating one when
        // the checkout pool is momentarily dry allocates nothing.
        let mut ws = self.workspaces.lock().pop().unwrap_or_default();
        self.execute(entry, &mut TaskContext::new(&mut ws));
        self.workspaces.lock().push(ws);
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
        shared.execute_pooled(entry);
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
            counters: Counters::default(),
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
        let c = &self.shared.counters;
        ExecutorStats {
            workers: self.workers(),
            tasks_executed: c.executed.load(Ordering::Relaxed),
            batch_jobs: c.batch_jobs.load(Ordering::Relaxed),
            characterization_sweeps: c.characterization_sweeps.load(Ordering::Relaxed),
            enforcement_sweeps: c.enforcement_sweeps.load(Ordering::Relaxed),
            probes: c.probes.load(Ordering::Relaxed),
            steals: 0,
        }
    }

    /// Runs `f` against a workspace checked out from the executor's pool,
    /// so scratch persists across calls (batches, enforcement sweeps)
    /// instead of being rebuilt per invocation. The checkout is returned
    /// even when `f` unwinds — a contained panic must not leak the slot.
    pub(crate) fn with_workspace<R>(&self, f: impl FnOnce(&mut SolverWorkspace) -> R) -> R {
        let mut ws = self.shared.workspaces.lock().pop().unwrap_or_default();
        let result = catch_unwind(AssertUnwindSafe(|| f(&mut ws)));
        self.shared.workspaces.lock().push(ws);
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// [`Executor::run_cohort`] with the caller's workspace checked out
    /// from the executor pool.
    pub fn run(&self, task: Task<'_>, extra: usize) {
        self.with_workspace(|ws| self.run_cohort(task, extra, &mut TaskContext::new(ws)));
    }

    /// [`Executor::run_cohort_caught`] with the caller's workspace checked
    /// out from the executor pool: a panicking cohort surfaces as an `Err`
    /// payload here, with the workspace already returned to the pool.
    pub fn run_caught(&self, task: Task<'_>, extra: usize) -> Result<(), Box<dyn Any + Send>> {
        self.with_workspace(|ws| self.run_cohort_caught(task, extra, &mut TaskContext::new(ws)))
    }

    /// Runs a cohort of `extra + 1` copies of `task`: `extra` copies on
    /// the pool, plus one inline on the calling thread (the cohort
    /// owner). Returns when **all** copies have finished; the owner helps
    /// execute queued work — from this or any other cohort — while it
    /// waits, which keeps nested cohorts deadlock-free on any pool width
    /// (including zero workers).
    ///
    /// Helping is deliberately indiscriminate (the rayon `join`
    /// trade-off): an owner may claim another cohort's pull loop and run
    /// it to drain, extending its own return by that foreign workload.
    /// Within this workspace cohorts come from one tool flow, so the
    /// helped work is always work the process wants done; callers mixing
    /// independent latency-sensitive batches on one pool should use
    /// separate pools.
    ///
    /// # Panics
    ///
    /// Re-raises a panic observed in a cohort member after the whole
    /// cohort has completed.
    pub fn run_cohort(&self, task: Task<'_>, extra: usize, ctx: &mut TaskContext<'_>) {
        if let Err(payload) = self.run_cohort_caught(task, extra, ctx) {
            resume_unwind(payload);
        }
    }

    /// [`Executor::run_cohort`] with panic *containment* instead of
    /// propagation: the whole cohort still runs to completion (a panicked
    /// member counts as completed-with-error, so no member is lost and no
    /// waiter deadlocks), but the observed panic payload is returned as
    /// `Err` rather than re-raised. This is the boundary the solver layers
    /// use to convert unwinds into typed
    /// [`SolverError::TaskPanicked`](crate::error::SolverError::TaskPanicked)
    /// values.
    pub fn run_cohort_caught(
        &self,
        task: Task<'_>,
        extra: usize,
        ctx: &mut TaskContext<'_>,
    ) -> Result<(), Box<dyn Any + Send>> {
        let shared = &self.shared;
        let _bind = CurrentGuard::enter(shared);
        if extra == 0 {
            // Degenerate cohort: just the owner. Still bound to the pool
            // so nested layers reuse it — and still caught, so a panicking
            // solo membership is contained like any other.
            shared.record(&task);
            return catch_unwind(AssertUnwindSafe(|| task.run(ctx)));
        }
        let group = GroupRecord {
            task,
            remaining: AtomicUsize::new(extra),
            panic: Mutex::new(None),
        };
        // Expose the record's provenance so consumers can soundly rebuild
        // a reference from the word-sized entry (`execute`'s
        // `with_exposed_provenance` counterpart).
        let entry = std::ptr::from_ref(&group).expose_provenance();
        shared.submit(entry, extra);
        shared.record(&task);
        let inline_result = catch_unwind(AssertUnwindSafe(|| task.run(ctx)));
        // Completion barrier: every pushed entry must be consumed before
        // `group` leaves scope (see the GroupRecord safety contract). The
        // count is read under the same lock the last member decrements it
        // under before notifying, so the owner cannot sleep through it.
        let mut queue = shared.queue.lock();
        while group.remaining.load(Ordering::Relaxed) > 0 {
            match queue.pop_front() {
                Some(queued) => {
                    drop(queue);
                    shared.execute(queued, ctx);
                    queue = shared.queue.lock();
                }
                None => shared.wake.wait(&mut queue),
            }
        }
        drop(queue);
        if let Some(payload) = group.panic.lock().take() {
            return Err(payload);
        }
        inline_result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_cohort(exec: &Executor, extra: usize) -> usize {
        let probe = ProbeShare::new();
        exec.run(Task::Probe(&probe), extra);
        probe.hits()
    }

    #[test]
    fn cohort_runs_exactly_extra_plus_one_times() {
        let exec = Executor::spawn_pool(2);
        for extra in [0usize, 1, 2, 7] {
            assert_eq!(probe_cohort(&exec, extra), extra + 1, "extra = {extra}");
        }
    }

    #[test]
    fn zero_worker_pool_still_completes_cohorts() {
        // All pool copies are executed by the helping owner.
        let exec = Executor::spawn_pool(0);
        assert_eq!(probe_cohort(&exec, 5), 6);
        assert_eq!(exec.stats().probes, 6);
    }

    #[test]
    fn cohort_larger_than_the_reserved_queue_completes() {
        // The queue grows past its reserve instead of refusing entries.
        let exec = Executor::spawn_pool(0);
        let copies = QUEUE_RESERVE + 257;
        assert_eq!(probe_cohort(&exec, copies), copies + 1);
    }

    #[test]
    fn repeated_oversubscribed_cohorts_complete() {
        // More cohort members than pool workers, over and over: queued
        // copies must always be consumed (by workers or the helping
        // owner), never lost or double-run.
        let exec = Executor::spawn_pool(1);
        for round in 1..=20usize {
            assert_eq!(probe_cohort(&exec, 6), 7, "round {round}");
        }
        assert_eq!(exec.stats().probes, 20 * 7);
    }

    #[test]
    fn back_to_back_cohorts_share_one_context() {
        // The enforcement-loop shape: many cohorts in a row against one
        // caller-owned workspace, same pool throughout. (Genuine *nested*
        // cohorts — a task that opens a cohort — are exercised end-to-end
        // by the batch-with-parallel-sweeps pipeline test.)
        let exec = Executor::spawn_pool(1);
        let a = ProbeShare::new();
        let b = ProbeShare::new();
        exec.with_workspace(|ws| {
            let mut ctx = TaskContext::new(ws);
            exec.run_cohort(Task::Probe(&a), 2, &mut ctx);
            exec.run_cohort(Task::Probe(&b), 3, &mut ctx);
        });
        assert_eq!(a.hits(), 3);
        assert_eq!(b.hits(), 4);
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
    fn stats_count_probe_executions() {
        let exec = Executor::spawn_pool(1);
        let before = exec.stats();
        assert_eq!(before.tasks_executed, 0);
        assert_eq!(probe_cohort(&exec, 4), 5);
        let after = exec.stats();
        assert_eq!(after.probes, 5);
        assert_eq!(after.tasks_executed, 5);
        assert_eq!(after.workers, 1);
        assert_eq!(after.steals, 0);
    }

    #[test]
    fn current_binding_is_cleared_after_a_cohort() {
        assert!(Executor::current().is_none());
        let exec = Executor::spawn_pool(1);
        assert_eq!(probe_cohort(&exec, 1), 2);
        // The cohort owner's pool binding must not leak past run_cohort.
        assert!(Executor::current().is_none());
    }

    #[test]
    fn caught_cohort_surfaces_the_payload_without_unwinding() {
        let exec = Executor::spawn_pool(1);
        let probe = ProbeShare::new();
        let result = exec.run_caught(Task::PanicProbe(&probe), 2);
        let payload = result.expect_err("panic payload must surface as Err");
        let msg = payload
            .downcast_ref::<&str>()
            .expect("PanicProbe panics with a &str");
        assert!(msg.contains("by design"));
        assert_eq!(probe.hits(), 3, "all memberships ran before returning");
        assert_eq!(probe_cohort(&exec, 2), 3, "pool survives caught panics");
    }

    #[test]
    fn panicking_cohort_does_not_leak_workspace_checkouts() {
        // Zero workers: every membership (and its workspace checkout)
        // executes on the owner thread, so the checkout-pool length is
        // deterministic at every observation point.
        let exec = Executor::spawn_pool(0);
        assert_eq!(probe_cohort(&exec, 3), 4); // prime the checkout pool
        let before = exec.shared.workspaces.lock().len();
        let probe = ProbeShare::new();
        assert!(exec.run_caught(Task::PanicProbe(&probe), 3).is_err());
        assert_eq!(
            probe.hits(),
            4,
            "every panicked member was counted complete"
        );
        assert_eq!(
            exec.shared.workspaces.lock().len(),
            before,
            "every checkout must be returned despite the unwinds"
        );
        assert_eq!(probe_cohort(&exec, 2), 3, "pool stays usable");
    }

    #[test]
    fn cohort_member_panic_is_propagated_and_the_pool_survives() {
        // Every membership of this cohort panics (worker-side and inline
        // alike); run_cohort must still complete the whole cohort, then
        // re-raise, and the pool must stay usable afterwards.
        let exec = Executor::spawn_pool(1);
        let probe = ProbeShare::new();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec.run(Task::PanicProbe(&probe), 2);
        }));
        assert!(result.is_err(), "panic must propagate to the cohort owner");
        assert_eq!(probe.hits(), 3, "all memberships ran before re-raising");
        assert_eq!(probe_cohort(&exec, 2), 3, "pool survives task panics");
    }
}
