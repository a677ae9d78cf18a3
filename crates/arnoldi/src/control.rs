//! Cooperative sweep control: cancellation, work budgets, and
//! deterministic fault fire-points.
//!
//! The multi-shift drivers upstream (pheig-core) need three things from
//! the iteration layer that all share one shape — a cheap check at the
//! restart-loop boundary:
//!
//! * **Cancellation** ([`CancelToken`]): a user- or service-level "stop
//!   now" that ends the sweep with whatever is already certified;
//! * **Budgets** ([`SweepBudget`]): per-sweep caps on operator
//!   applications and restarts, shared by every shift of the sweep, whose
//!   exhaustion degrades to a partial result instead of an error;
//! * **Fault injection** ([`FirePoint`]): deterministic countdown
//!   triggers the fault plan uses to corrupt an operator apply, force a
//!   near-singular factorization, stall a decision point, or panic a
//!   sweep member at its pull boundary — exactly once, at a reproducible
//!   position in the work stream.
//!
//! Everything is bundled into a [`SweepControl`] carried by
//! [`crate::SingleShiftOptions`]. The default control is inert: every
//! field is `None`, every check is a single `Option` discriminant test,
//! and the iteration's arithmetic, RNG draws, and matvec counts are
//! byte-identical to a build without this module (pinned by the solver
//! benches' matvec-count gate).

use pheig_linalg::C64;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
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

/// Shared per-sweep work budget: remaining operator applications and
/// restarts. Negative remainders mean "exhausted"; `None`-like unlimited
/// budgets are expressed by not attaching a budget at all (see
/// [`SweepControl::budget`]).
#[derive(Debug)]
pub struct SweepBudget {
    matvecs_left: AtomicI64,
    restarts_left: AtomicI64,
}

impl SweepBudget {
    /// A budget with the given caps; `i64::MAX` disables a dimension.
    pub fn new(matvecs: u64, restarts: u64) -> Self {
        SweepBudget {
            matvecs_left: AtomicI64::new(matvecs.min(i64::MAX as u64) as i64),
            restarts_left: AtomicI64::new(restarts.min(i64::MAX as u64) as i64),
        }
    }

    /// Charges `n` operator applications against the budget.
    pub fn charge_matvecs(&self, n: usize) {
        if n > 0 {
            self.matvecs_left
                .fetch_sub(n.min(i64::MAX as usize) as i64, Ordering::AcqRel);
        }
    }

    /// Charges one restart against the budget.
    pub fn charge_restart(&self) {
        self.restarts_left.fetch_sub(1, Ordering::AcqRel);
    }

    /// `true` once either dimension has run out.
    pub fn exhausted(&self) -> bool {
        self.matvecs_left.load(Ordering::Acquire) <= 0
            || self.restarts_left.load(Ordering::Acquire) <= 0
    }
}

/// A deterministic countdown trigger: fires exactly once, on the
/// `(k+1)`-th [`Self::check`] after construction with `after(k)`.
#[derive(Debug)]
pub struct FirePoint {
    countdown: AtomicI64,
    fired: AtomicUsize,
}

impl FirePoint {
    /// A fire-point that triggers after `k` un-fired checks.
    pub fn after(k: u64) -> Arc<Self> {
        Arc::new(FirePoint {
            countdown: AtomicI64::new(k.min(i64::MAX as u64) as i64),
            fired: AtomicUsize::new(0),
        })
    }

    /// Counts one check; `true` exactly when the countdown crosses zero.
    pub fn check(&self) -> bool {
        let prev = self.countdown.fetch_sub(1, Ordering::AcqRel);
        if prev == 0 {
            self.fired.fetch_add(1, Ordering::AcqRel);
            true
        } else {
            false
        }
    }

    /// How many times this point has fired (0 or 1).
    pub fn times_fired(&self) -> usize {
        self.fired.load(Ordering::Acquire)
    }
}

/// The value written into an operator-apply output by a corruption fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// Overwrite with `NaN`.
    Nan,
    /// Overwrite with `+Inf`.
    Inf,
}

impl CorruptKind {
    fn value(self) -> f64 {
        match self {
            CorruptKind::Nan => f64::NAN,
            CorruptKind::Inf => f64::INFINITY,
        }
    }
}

/// Control plane of one sweep: cancellation, budget, and fault triggers.
///
/// The default value is inert (all `None`): every hook reduces to one
/// `Option` check and the iteration behaves exactly as if the control
/// did not exist. Equality is identity-based (same shared flags), since
/// two controls with distinct tokens steer distinct sweeps even when
/// configured identically.
#[derive(Debug, Clone, Default)]
pub struct SweepControl {
    /// Cooperative cancellation; checked at restart-loop boundaries.
    pub cancel: Option<CancelToken>,
    /// Shared matvec/restart budget; exhaustion stops building and the
    /// shift finishes with whatever is already locked.
    pub budget: Option<Arc<SweepBudget>>,
    /// Corrupt the output of one operator application with NaN/Inf.
    pub corrupt_apply: Option<(Arc<FirePoint>, CorruptKind)>,
    /// Force one shift-invert construction to report a near-singular
    /// shifted block (the factorization-failure fault).
    pub singular_shift: Option<Arc<FirePoint>>,
    /// Sleep this long at one restart-decision point (stall fault).
    pub stall: Option<(Arc<FirePoint>, Duration)>,
    /// Panic one sweep member at its pull boundary (the task-panic
    /// fault). Read by the sweep driver, never by the iteration.
    pub panic_task: Option<Arc<FirePoint>>,
}

impl SweepControl {
    /// An inert control: no cancellation, no budget, no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when every hook is absent (the zero-overhead fast path).
    pub fn is_inert(&self) -> bool {
        self.cancel.is_none()
            && self.budget.is_none()
            && self.corrupt_apply.is_none()
            && self.singular_shift.is_none()
            && self.stall.is_none()
            && self.panic_task.is_none()
    }

    /// `true` when the sweep should stop building (cancelled or out of
    /// budget). Checked alongside `ShiftCore::building`.
    pub fn should_stop(&self) -> bool {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return true;
            }
        }
        if let Some(budget) = &self.budget {
            if budget.exhausted() {
                return true;
            }
        }
        false
    }

    /// `true` when the stop was a budget exhaustion specifically.
    pub fn budget_exhausted(&self) -> bool {
        self.budget.as_ref().is_some_and(|b| b.exhausted())
    }

    /// `true` when the stop was a cancellation specifically.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Charges operator applications against the budget, if any.
    pub fn charge_matvecs(&self, n: usize) {
        if let Some(budget) = &self.budget {
            budget.charge_matvecs(n);
        }
    }

    /// Charges one restart against the budget, if any.
    pub fn charge_restart(&self) {
        if let Some(budget) = &self.budget {
            budget.charge_restart();
        }
    }

    /// Fault hook: corrupts `y` (an operator-apply output) when the
    /// corruption fire-point triggers.
    pub fn corrupt(&self, y: &mut [C64]) {
        if let Some((point, kind)) = &self.corrupt_apply {
            if point.check() {
                let v = kind.value();
                for x in y.iter_mut() {
                    *x = C64::new(v, v);
                }
            }
        }
    }

    /// Fault hook: `true` when an operator construction should report a
    /// near-singular shifted block instead of building.
    pub fn fire_singular(&self) -> bool {
        self.singular_shift.as_ref().is_some_and(|p| p.check())
    }

    /// Fault hook: `true` exactly once, on the armed task-panic occurrence
    /// (checked by the sweep driver at each pull).
    pub fn fire_panic_task(&self) -> bool {
        self.panic_task.as_ref().is_some_and(|p| p.check())
    }

    /// Fault hook: sleeps at a decision point when the stall fires.
    pub fn maybe_stall(&self) {
        if let Some((point, pause)) = &self.stall {
            if point.check() {
                std::thread::sleep(*pause);
            }
        }
    }

    /// Total faults this control has injected so far.
    pub fn faults_injected(&self) -> usize {
        let mut total = 0;
        if let Some((point, _)) = &self.corrupt_apply {
            total += point.times_fired();
        }
        if let Some(point) = &self.singular_shift {
            total += point.times_fired();
        }
        if let Some((point, _)) = &self.stall {
            total += point.times_fired();
        }
        if let Some(point) = &self.panic_task {
            total += point.times_fired();
        }
        total
    }
}

impl PartialEq for SweepControl {
    fn eq(&self, other: &Self) -> bool {
        fn arc_eq<T>(a: &Option<Arc<T>>, b: &Option<Arc<T>>) -> bool {
            match (a, b) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
        }
        self.cancel == other.cancel
            && arc_eq(&self.budget, &other.budget)
            && match (&self.corrupt_apply, &other.corrupt_apply) {
                (None, None) => true,
                (Some((a, ka)), Some((b, kb))) => Arc::ptr_eq(a, b) && ka == kb,
                _ => false,
            }
            && arc_eq(&self.singular_shift, &other.singular_shift)
            && match (&self.stall, &other.stall) {
                (None, None) => true,
                (Some((a, da)), Some((b, db))) => Arc::ptr_eq(a, b) && da == db,
                _ => false,
            }
            && arc_eq(&self.panic_task, &other.panic_task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_control_is_inert_and_never_stops() {
        let c = SweepControl::none();
        assert!(c.is_inert());
        assert!(!c.should_stop());
        assert!(!c.fire_singular());
        assert_eq!(c.faults_injected(), 0);
        let mut y = vec![C64::from_real(1.0)];
        c.corrupt(&mut y);
        assert_eq!(y[0], C64::from_real(1.0));
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
    }

    #[test]
    fn budget_exhausts_on_either_dimension() {
        let b = SweepBudget::new(10, 100);
        assert!(!b.exhausted());
        b.charge_matvecs(9);
        assert!(!b.exhausted());
        b.charge_matvecs(1);
        assert!(b.exhausted());
        let r = SweepBudget::new(1000, 2);
        r.charge_restart();
        r.charge_restart();
        assert!(r.exhausted());
    }

    #[test]
    fn fire_point_triggers_exactly_once_at_position() {
        let p = FirePoint::after(2);
        assert!(!p.check());
        assert!(!p.check());
        assert!(p.check(), "third check crosses the countdown");
        assert!(!p.check());
        assert_eq!(p.times_fired(), 1);
    }

    #[test]
    fn corruption_poisons_the_fired_apply_only() {
        let c = SweepControl {
            corrupt_apply: Some((FirePoint::after(1), CorruptKind::Nan)),
            ..SweepControl::none()
        };
        let mut y = vec![C64::from_real(2.0); 3];
        c.corrupt(&mut y);
        assert!(y[0].re.is_finite(), "first apply untouched");
        c.corrupt(&mut y);
        assert!(y.iter().all(|z| z.re.is_nan()), "second apply corrupted");
        assert_eq!(c.faults_injected(), 1);
    }
}
