//! Cooperative sweep control: cancellation, work budgets, and
//! deterministic fault injection.
//!
//! The multi-shift drivers upstream (pheig-core) need three things from
//! the iteration layer that all share one shape — a cheap check at the
//! restart-loop boundary:
//!
//! * **Cancellation** ([`CancelToken`]): a user- or service-level "stop
//!   now" that ends the sweep with whatever is already certified;
//! * **Budgets** ([`FaultPlan::budget_matvecs`],
//!   [`FaultPlan::budget_restarts`]): per-sweep caps on operator
//!   applications and restarts, shared by every shift of the sweep, whose
//!   exhaustion degrades to a partial result instead of an error;
//! * **Fault injection** (the other [`FaultPlan`] fields): one-shot
//!   countdowns that corrupt an operator apply, force a near-singular
//!   factorization, stall a decision point, or panic a sweep member at its
//!   pull boundary — exactly once, at a reproducible position in the work
//!   stream.
//!
//! [`FaultPlan::activate`] arms a plan and a token into the one
//! [`SweepControl`] a sweep shares, carried by
//! [`crate::SingleShiftOptions`]. The default control is inert: every hook
//! is a single `Option` discriminant test, and the iteration's arithmetic,
//! RNG draws, and matvec counts are byte-identical to a build without this
//! module (pinned by the solver benches' matvec-count gate).

use pheig_linalg::C64;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A cooperative cancellation flag shared between a sweep and its owner.
///
/// Cloning shares the flag. Cancellation is a one-way latch: once set it
/// stays set for the lifetime of the token.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Latches the token; every holder observes cancellation from now on.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once [`Self::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

/// A declarative, deterministic fault-injection plan.
///
/// Every fault field is an *occurrence index*: `Some(k)` arms the fault to
/// fire exactly once, on the `(k+1)`-th opportunity, counted across all of
/// a sweep's shifts. `None` leaves the fault disarmed. The default plan is
/// empty — activating it arms nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Corrupt the k-th operator apply result with NaN.
    pub nan_apply: Option<u64>,
    /// Corrupt the k-th operator apply result with Inf (ignored when
    /// `nan_apply` is armed).
    pub inf_apply: Option<u64>,
    /// Report the k-th shift-invert factorization as near-singular.
    pub singular_shift: Option<u64>,
    /// Panic the k-th sweep-task membership on the executor.
    pub panic_task: Option<u64>,
    /// Stall the k-th restart decision point for the given duration.
    pub stall: Option<(u64, Duration)>,
    /// Per-sweep matvec budget (a degradation knob, not a fault: on
    /// exhaustion the sweep stops cleanly with partial results).
    pub budget_matvecs: Option<u64>,
    /// Per-sweep restart budget (same semantics as `budget_matvecs`).
    pub budget_restarts: Option<u64>,
}

impl FaultPlan {
    /// A pseudo-randomly armed plan derived from `seed`: scatters one
    /// apply corruption, one singular shift, and one task panic across
    /// small occurrence indices. Deterministic per seed — the chaos
    /// matrix replays a failure by replaying its seed.
    pub fn seeded(seed: u64) -> Self {
        // SplitMix64: three decorrelated draws from one seed.
        let mut s = seed;
        let mut draw = move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let corrupt = draw();
        FaultPlan {
            nan_apply: (corrupt % 2 == 0).then_some(corrupt % 97),
            inf_apply: (corrupt % 2 == 1).then_some(corrupt % 97),
            singular_shift: Some(draw() % 5),
            panic_task: Some(draw() % 7),
            ..FaultPlan::default()
        }
    }

    /// Arms the plan beside `cancel` into one [`SweepControl`]; an empty
    /// plan arms nothing. Clones of the control share its countdowns and
    /// budgets, which count from zero — one activation per sweep.
    pub fn activate(&self, cancel: Option<CancelToken>) -> SweepControl {
        let armed = (*self != FaultPlan::default()).then(|| {
            let (corrupt_at, corrupt_value) = match self.nan_apply {
                Some(k) => (Some(k), f64::NAN),
                None => (self.inf_apply, f64::INFINITY),
            };
            Arc::new(Armed {
                corrupt: Countdown::new(corrupt_at),
                corrupt_value,
                singular: Countdown::new(self.singular_shift),
                panic_task: Countdown::new(self.panic_task),
                stall: Countdown::new(self.stall.map(|(k, _)| k)),
                pause: self.stall.map_or(Duration::ZERO, |(_, pause)| pause),
                matvecs_left: AtomicI64::new(saturate(self.budget_matvecs.unwrap_or(u64::MAX))),
                restarts_left: AtomicI64::new(saturate(self.budget_restarts.unwrap_or(u64::MAX))),
            })
        });
        SweepControl { cancel, armed }
    }
}

fn saturate(k: u64) -> i64 {
    k.min(i64::MAX as u64) as i64
}

/// A one-shot trigger: armed with `Some(k)`, it fires on the `(k+1)`-th
/// [`Self::check`] and never again; `None` never fires.
#[derive(Debug)]
struct Countdown(Option<AtomicI64>);

impl Countdown {
    fn new(k: Option<u64>) -> Self {
        Countdown(k.map(|k| AtomicI64::new(saturate(k))))
    }

    /// Counts one check; `true` exactly when the countdown crosses zero.
    fn check(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|left| left.fetch_sub(1, Ordering::AcqRel) == 0)
    }

    fn fired(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|left| left.load(Ordering::Acquire) < 0)
    }
}

/// The countdowns and budget meters of one activated [`FaultPlan`].
#[derive(Debug)]
struct Armed {
    corrupt: Countdown,
    corrupt_value: f64,
    singular: Countdown,
    panic_task: Countdown,
    stall: Countdown,
    pause: Duration,
    /// Remaining operator applications and restarts; either at or below
    /// zero means the budget is exhausted.
    matvecs_left: AtomicI64,
    restarts_left: AtomicI64,
}

impl Armed {
    fn exhausted(&self) -> bool {
        self.matvecs_left.load(Ordering::Acquire) <= 0
            || self.restarts_left.load(Ordering::Acquire) <= 0
    }
}

/// Control plane of one sweep: cancellation, budget, and fault triggers,
/// built by [`FaultPlan::activate`].
///
/// The default value is inert: every hook reduces to one `Option` check
/// and the iteration behaves exactly as if the control did not exist.
/// Equality is identity-based (same token, same armed plan), since two
/// controls with distinct tokens steer distinct sweeps even when
/// configured identically.
#[derive(Debug, Clone, Default)]
pub struct SweepControl {
    cancel: Option<CancelToken>,
    armed: Option<Arc<Armed>>,
}

impl SweepControl {
    /// `true` when the sweep should stop building (cancelled or out of
    /// budget). Checked alongside `ShiftCore::building`.
    pub fn should_stop(&self) -> bool {
        self.is_cancelled() || self.armed.as_ref().is_some_and(|a| a.exhausted())
    }

    /// `true` when the stop was a cancellation specifically.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Charges operator applications against the budget, if any.
    pub fn charge_matvecs(&self, n: usize) {
        if let Some(a) = &self.armed {
            if n > 0 {
                a.matvecs_left
                    .fetch_sub(n.min(i64::MAX as usize) as i64, Ordering::AcqRel);
            }
        }
    }

    /// Charges one restart against the budget, if any.
    pub fn charge_restart(&self) {
        if let Some(a) = &self.armed {
            a.restarts_left.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Fault hook: corrupts `y` (an operator-apply output) when the
    /// corruption countdown fires.
    pub fn corrupt(&self, y: &mut [C64]) {
        if let Some(a) = &self.armed {
            if a.corrupt.check() {
                y.fill(C64::new(a.corrupt_value, a.corrupt_value));
            }
        }
    }

    /// Fault hook: `true` when an operator construction should report a
    /// near-singular shifted block instead of building.
    pub fn fire_singular(&self) -> bool {
        self.armed.as_ref().is_some_and(|a| a.singular.check())
    }

    /// Fault hook: `true` exactly once, on the armed task-panic occurrence
    /// (checked by the sweep driver at each pull).
    pub fn fire_panic_task(&self) -> bool {
        self.armed.as_ref().is_some_and(|a| a.panic_task.check())
    }

    /// Fault hook: sleeps at a decision point when the stall fires.
    pub fn maybe_stall(&self) {
        if let Some(a) = &self.armed {
            if a.stall.check() {
                std::thread::sleep(a.pause);
            }
        }
    }

    /// Total faults this control has injected so far.
    pub fn faults_injected(&self) -> usize {
        self.armed.as_ref().map_or(0, |a| {
            [&a.corrupt, &a.singular, &a.panic_task, &a.stall]
                .into_iter()
                .filter(|c| c.fired())
                .count()
        })
    }
}

impl PartialEq for SweepControl {
    fn eq(&self, other: &Self) -> bool {
        self.cancel == other.cancel
            && match (&self.armed, &other.armed) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_control_and_empty_plan_are_inert() {
        for c in [SweepControl::default(), FaultPlan::default().activate(None)] {
            assert!(c.armed.is_none());
            assert!(!c.should_stop());
            assert!(!c.fire_singular());
            assert!(!c.fire_panic_task());
            assert_eq!(c.faults_injected(), 0);
            let mut y = vec![C64::from_real(1.0)];
            c.corrupt(&mut y);
            assert_eq!(y[0], C64::from_real(1.0));
        }
    }

    #[test]
    fn cancel_token_latches_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
        assert_eq!(t, u);
        assert_ne!(t, CancelToken::new());
        let c = FaultPlan::default().activate(Some(t));
        assert!(c.should_stop() && c.is_cancelled());
    }

    #[test]
    fn budget_exhausts_on_either_dimension_across_clones() {
        let b = FaultPlan {
            budget_matvecs: Some(10),
            ..FaultPlan::default()
        }
        .activate(None);
        let clone = b.clone();
        assert_eq!(b, clone);
        clone.charge_matvecs(9);
        assert!(!b.should_stop());
        clone.charge_matvecs(1);
        assert!(b.should_stop());
        assert!(!b.is_cancelled());
        let r = FaultPlan {
            budget_restarts: Some(2),
            ..FaultPlan::default()
        }
        .activate(None);
        r.charge_restart();
        assert!(!r.should_stop());
        r.charge_restart();
        assert!(r.should_stop());
    }

    #[test]
    fn countdown_fires_exactly_once_at_position() {
        let plan = FaultPlan {
            panic_task: Some(2),
            ..FaultPlan::default()
        };
        let c = plan.activate(None);
        assert!(!c.fire_panic_task());
        assert!(!c.fire_panic_task());
        assert!(c.fire_panic_task(), "third check crosses the countdown");
        assert!(!c.fire_panic_task());
        assert_eq!(c.faults_injected(), 1);
        assert_ne!(c, plan.activate(None), "each activation is its own plan");
    }

    #[test]
    fn corruption_poisons_the_fired_apply_only() {
        let c = FaultPlan {
            nan_apply: Some(1),
            inf_apply: Some(0),
            ..FaultPlan::default()
        }
        .activate(None);
        let mut y = vec![C64::from_real(2.0); 3];
        c.corrupt(&mut y);
        assert!(
            y[0].re.is_finite(),
            "first apply untouched: NaN wins over Inf"
        );
        c.corrupt(&mut y);
        assert!(y.iter().all(|z| z.re.is_nan()), "second apply corrupted");
        assert_eq!(c.faults_injected(), 1);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_armed() {
        let a = FaultPlan::seeded(42);
        assert_eq!(a, FaultPlan::seeded(42));
        assert!(a.nan_apply.is_some() || a.inf_apply.is_some());
        assert!(a.singular_shift.is_some());
        assert!(a.panic_task.is_some());
        assert_ne!(FaultPlan::seeded(1), FaultPlan::seeded(2));
    }
}
