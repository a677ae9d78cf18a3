//! Seeded fault-injection plans for chaos-testing the solver stack.
//!
//! A [`FaultPlan`] describes *which* faults to arm — NaN/Inf corruption of
//! operator applies, a near-singular shift factorization, a panicking
//! sweep task, artificial stalls at restart decision points — and *when*
//! they fire (a deterministic occurrence index per fault). Plans are inert data; arming one via
//! [`FaultPlan::activate`] compiles it into the fire-points of one
//! arnoldi-layer [`SweepControl`], whose task-panic trigger
//! [`crate::solver`] checks at each shift-task pull.
//!
//! Activation is explicit and per-sweep: a solver run with no plan carries
//! an inert [`SweepControl`] (a handful of `Option::is_some` checks on the
//! hot path — see `control`'s zero-overhead contract), and the
//! `PHEIG_FAULT_PLAN` environment hook is parsed once per process and
//! cached, so production runs pay nothing for the machinery.
//!
//! The plan grammar (used by both `PHEIG_FAULT_PLAN` and tests) is a
//! comma-separated `key=value` list:
//!
//! ```text
//! nan_apply=K       corrupt the K-th operator apply with NaN
//! inf_apply=K       corrupt the K-th operator apply with Inf
//! singular_shift=K  fail the K-th shift factorization as near-singular
//! panic_task=K      panic the K-th sweep-task membership
//! stall=K:MS        sleep MS milliseconds at the K-th restart decision
//! matvecs=N         arm a per-sweep matvec budget of N
//! restarts=N        arm a per-sweep restart budget of N
//! ```
//!
//! Indices `K` are zero-based occurrence counts ("fire on the (K+1)-th
//! event"). Example: `PHEIG_FAULT_PLAN=nan_apply=7,panic_task=0`.

use crate::error::SolverError;
use pheig_arnoldi::{CorruptKind, FirePoint, SweepBudget, SweepControl};
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Duration;

/// Default stall length when `stall=K` is given without `:MS`.
const DEFAULT_STALL_MS: u64 = 20;

/// A declarative, deterministic fault-injection plan.
///
/// Every field is an *occurrence index*: `Some(k)` arms the fault to fire
/// exactly once, on the `(k+1)`-th opportunity (the counting is done by
/// the armed [`FirePoint`]s, shared across a sweep's shifts). `None`
/// leaves the fault disarmed. The default plan is empty — activating it
/// yields a fully inert control plane.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Corrupt the k-th operator apply result with NaN.
    pub nan_apply: Option<u64>,
    /// Corrupt the k-th operator apply result with Inf.
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
    /// An empty (fully disarmed) plan.
    pub fn new() -> Self {
        Self::default()
    }

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

    /// `true` when no fault and no budget is armed (activation would be
    /// pointless).
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Parses the `key=value` comma list described in the module docs.
    ///
    /// # Errors
    ///
    /// [`SolverError::InvalidFaultPlan`] naming the offending clause.
    pub fn parse(spec: &str) -> Result<FaultPlan, SolverError> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause.split_once('=').ok_or_else(|| {
                SolverError::InvalidFaultPlan(format!("clause `{clause}` is not key=value"))
            })?;
            let int = |v: &str| -> Result<u64, SolverError> {
                v.parse::<u64>().map_err(|_| {
                    SolverError::InvalidFaultPlan(format!(
                        "clause `{clause}`: `{v}` is not a non-negative integer"
                    ))
                })
            };
            match key.trim() {
                "nan_apply" => plan.nan_apply = Some(int(value)?),
                "inf_apply" => plan.inf_apply = Some(int(value)?),
                "singular_shift" => plan.singular_shift = Some(int(value)?),
                "panic_task" => plan.panic_task = Some(int(value)?),
                "stall" => {
                    let (k, ms) = match value.split_once(':') {
                        Some((k, ms)) => (int(k)?, int(ms)?),
                        None => (int(value)?, DEFAULT_STALL_MS),
                    };
                    plan.stall = Some((k, Duration::from_millis(ms)));
                }
                "matvecs" => plan.budget_matvecs = Some(int(value)?),
                "restarts" => plan.budget_restarts = Some(int(value)?),
                other => {
                    return Err(SolverError::InvalidFaultPlan(format!(
                        "unknown fault key `{other}`"
                    )));
                }
            }
        }
        Ok(plan)
    }

    /// Arms the plan: allocates the shared fire-points and packages them
    /// as one [`SweepControl`] (corruption, singular shift, stall, budgets
    /// and the pull-boundary task panic). Clones share the fire-points.
    /// Each activation counts occurrences from zero — one activation per
    /// sweep.
    pub fn activate(&self) -> SweepControl {
        let mut control = SweepControl::none();
        match (self.nan_apply, self.inf_apply) {
            (Some(k), _) => control.corrupt_apply = Some((FirePoint::after(k), CorruptKind::Nan)),
            (None, Some(k)) => {
                control.corrupt_apply = Some((FirePoint::after(k), CorruptKind::Inf));
            }
            (None, None) => {}
        }
        if let Some(k) = self.singular_shift {
            control.singular_shift = Some(FirePoint::after(k));
        }
        if let Some((k, len)) = self.stall {
            control.stall = Some((FirePoint::after(k), len));
        }
        if self.budget_matvecs.is_some() || self.budget_restarts.is_some() {
            control.budget = Some(Arc::new(SweepBudget::new(
                self.budget_matvecs.unwrap_or(u64::MAX),
                self.budget_restarts.unwrap_or(u64::MAX),
            )));
        }
        control.panic_task = self.panic_task.map(FirePoint::after);
        control
    }
}

/// The process-wide `PHEIG_FAULT_PLAN` plan, parsed once and cached.
/// `Ok(None)` when the variable is unset or empty; a malformed value is a
/// persistent typed error (every sweep that consults the hook sees it).
pub fn plan_from_env() -> Result<Option<FaultPlan>, SolverError> {
    static CACHE: OnceLock<Result<Option<FaultPlan>, SolverError>> = OnceLock::new();
    CACHE
        .get_or_init(|| match std::env::var("PHEIG_FAULT_PLAN") {
            Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec).map(Some),
            _ => Ok(None),
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_activates_to_an_inert_control() {
        let active = FaultPlan::new().activate();
        assert!(active.is_inert());
        assert!(!active.fire_panic_task());
        assert_eq!(active.faults_injected(), 0);
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn parse_round_trips_every_key() {
        let plan =
            FaultPlan::parse("nan_apply=3, inf_apply=4,singular_shift=0,panic_task=2,stall=1:50,matvecs=100,restarts=8")
                .unwrap();
        assert_eq!(plan.nan_apply, Some(3));
        assert_eq!(plan.inf_apply, Some(4));
        assert_eq!(plan.singular_shift, Some(0));
        assert_eq!(plan.panic_task, Some(2));
        assert_eq!(plan.stall, Some((1, Duration::from_millis(50))));
        assert_eq!(plan.budget_matvecs, Some(100));
        assert_eq!(plan.budget_restarts, Some(8));
        assert!(!plan.is_empty());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in ["nan_apply", "nan_apply=x", "bogus_key=1", "stall=1:zz"] {
            match FaultPlan::parse(bad) {
                Err(SolverError::InvalidFaultPlan(_)) => {}
                other => panic!("spec `{bad}`: expected InvalidFaultPlan, got {other:?}"),
            }
        }
        // A retired key is as unknown as a misspelt one.
        match FaultPlan::parse("injector_full=1") {
            Err(SolverError::InvalidFaultPlan(msg)) => {
                assert!(msg.contains("unknown fault key `injector_full`"), "{msg}");
            }
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
        // Empty clauses and surrounding whitespace are tolerated.
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ,").unwrap().is_empty());
    }

    #[test]
    fn activation_arms_the_requested_fire_points() {
        let plan = FaultPlan::parse("panic_task=1,matvecs=10").unwrap();
        let active = plan.activate();
        assert!(!active.is_inert(), "budget makes control live");
        assert!(!active.fire_panic_task(), "occurrence 0 does not fire");
        assert!(active.fire_panic_task(), "occurrence 1 fires");
        assert!(!active.fire_panic_task(), "fires exactly once");
        assert_eq!(active.faults_injected(), 1);
        // The shared budget exhausts across clones.
        let clone = active.clone();
        clone.charge_matvecs(11);
        assert!(active.budget_exhausted());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_armed() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        assert_eq!(a, b);
        assert!(a.nan_apply.is_some() || a.inf_apply.is_some());
        assert!(a.singular_shift.is_some());
        assert!(a.panic_task.is_some());
        assert_ne!(FaultPlan::seeded(1), FaultPlan::seeded(2));
    }
}
