//! The dynamic multi-shift scheduling state machine (paper Sec. IV).
//!
//! The search band `[omega_min, omega_max]` is split into `N = kappa T`
//! adjacent intervals, each holding one *tentative* shift (interval 1 at the
//! left edge, interval N at the right edge, midpoints elsewhere — paper
//! Sec. IV.A). Idle workers pick tentative shifts — the two band edges
//! first, then left to right (Fig. 3) — and run single-shift iterations.
//! On completion the certified disk is subtracted from an explicit
//! **uncovered set**; tentative shifts whose interval became fully covered
//! are deleted (Eq. (24), the source of the paper's superlinear speedups),
//! partially covered intervals are re-seeded, and the processed interval's
//! uncovered remainder spawns the paper's child intervals (Eqs. (25)–(28)).
//!
//! The uncovered set makes the paper's termination condition
//! (`tentative empty` and `nothing in flight`) *imply* band coverage — see
//! DESIGN.md ("Scheduler refinement") for why this departs from a literal
//! reading of Eq. (24).
//!
//! This type is pure state (no threads, no numerics): the sweep driver (at
//! any thread count) and the virtual-time simulator share it, which is what makes the simulated Table I / Fig. 6 reproductions
//! faithful to the real implementation.

use std::collections::HashMap;

/// A shift handed to a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftTask {
    /// Unique task id.
    pub id: usize,
    /// Shift frequency `omega` (the shift is `theta = j omega`).
    pub omega: f64,
    /// Initial disk radius guess `rho_0` (paper Eq. (23)).
    pub rho0: f64,
    /// The tentative interval this shift owns.
    pub interval: (f64, f64),
}

/// Scheduling statistics (the paper's superlinear-speedup telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Single-shift iterations completed.
    pub processed: usize,
    /// Tentative shifts deleted because another disk covered their whole
    /// interval before they were processed (Eq. (24)).
    pub deleted_tentative: usize,
    /// Tentative shifts re-seeded because their interval was partially
    /// covered by another disk.
    pub trimmed_tentative: usize,
    /// Child intervals spawned from uncovered remainders (Eqs. (25)–(28)).
    pub splits: usize,
    /// Always 0: a shift, once pulled, runs to its end. Eq. (24) deletes
    /// queued tentatives only. The counter stays so reports that read it
    /// keep their schema.
    pub cancelled_in_flight: usize,
    /// Shifts the degradation ladder gave up on: their interval's
    /// uncovered remainder was recorded as a named coverage gap instead of
    /// being re-seeded (see [`Scheduler::quarantine`]).
    pub quarantined: usize,
}

/// Reach of a shift's recycle-pool gather in units of its `rho0`, shared
/// by the sweep driver's gather and [`Scheduler::may_gather`].
pub const GATHER_FACTOR: f64 = 1.25;

/// An open interval and the shift placed in it (queued or in flight).
#[derive(Debug, Clone)]
struct Tentative {
    omega: f64,
    interval: (f64, f64),
}

/// The scheduler state machine. See the module docs.
#[derive(Debug, Clone)]
pub struct Scheduler {
    band: (f64, f64),
    alpha: f64,
    min_piece: f64,
    uncovered: Vec<(f64, f64)>,
    tentative: Vec<Tentative>,
    in_flight: HashMap<usize, Tentative>,
    picks: usize,
    next_id: usize,
    dropped_length: f64,
    delete_covered: bool,
    /// Disjoint intervals given up on by [`Scheduler::quarantine`]: out of
    /// the uncovered set (so the sweep terminates) but *named*, never
    /// silently claimed covered. Later certified disks that land on a gap
    /// shrink it — only genuinely unexplored frequencies stay reported.
    gaps: Vec<(f64, f64)>,
    stats: SchedulerStats,
}

/// Subtracts `cut` from a sorted, disjoint interval list in place.
fn subtract(intervals: &mut Vec<(f64, f64)>, cut: (f64, f64)) {
    if cut.1 <= cut.0 {
        return;
    }
    let mut out = Vec::with_capacity(intervals.len() + 1);
    for &(lo, hi) in intervals.iter() {
        if cut.1 <= lo || cut.0 >= hi {
            out.push((lo, hi));
            continue;
        }
        if cut.0 > lo {
            out.push((lo, cut.0));
        }
        if cut.1 < hi {
            out.push((cut.1, hi));
        }
    }
    *intervals = out;
}

/// Intersection of one interval with a sorted, disjoint list.
fn intersect(piece: (f64, f64), intervals: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for &(lo, hi) in intervals {
        let a = lo.max(piece.0);
        let b = hi.min(piece.1);
        if b > a {
            out.push((a, b));
        }
    }
    out
}

impl Scheduler {
    /// Creates the scheduler for a band with `n_intervals >= 2` initial
    /// intervals and overlap factor `alpha >= 1` (paper Eq. (23)).
    ///
    /// # Panics
    ///
    /// Panics if the band is empty or `n_intervals < 2`.
    pub fn new(band: (f64, f64), n_intervals: usize, alpha: f64) -> Self {
        assert!(band.1 > band.0, "empty search band");
        assert!(n_intervals >= 2, "need at least two initial intervals");
        let len = band.1 - band.0;
        let mut tentative = Vec::with_capacity(n_intervals);
        for k in 0..n_intervals {
            let lo = band.0 + len * k as f64 / n_intervals as f64;
            let hi = band.0 + len * (k + 1) as f64 / n_intervals as f64;
            let omega = if k == 0 {
                lo
            } else if k == n_intervals - 1 {
                hi
            } else {
                0.5 * (lo + hi)
            };
            tentative.push(Tentative {
                omega,
                interval: (lo, hi),
            });
        }
        Scheduler {
            band,
            alpha: alpha.max(1.0),
            min_piece: len * 1e-9,
            uncovered: vec![band],
            tentative,
            in_flight: HashMap::new(),
            picks: 0,
            next_id: 0,
            dropped_length: 0.0,
            delete_covered: true,
            gaps: Vec::new(),
            stats: SchedulerStats::default(),
        }
    }

    /// Disables the dynamic deletion of covered tentative shifts
    /// (Eq. (24)). This reproduces the *static pre-distributed grid*
    /// strawman the paper dismisses in Sec. IV ("the work performed on some
    /// preallocated shifts will be useless") and is used by the ablation
    /// benchmark.
    pub fn set_delete_covered(&mut self, delete_covered: bool) {
        self.delete_covered = delete_covered;
    }

    /// The search band.
    pub fn band(&self) -> (f64, f64) {
        self.band
    }

    /// Scheduling statistics so far.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Total length of sub-resolution pieces that were dropped rather than
    /// re-seeded (bounded by `~1e-9` of the band per completion; the
    /// paper's `alpha > 1` overlap plays the same role).
    pub fn dropped_length(&self) -> f64 {
        self.dropped_length
    }

    /// Total uncovered length remaining (0 at termination up to drops).
    pub fn uncovered_length(&self) -> f64 {
        self.uncovered.iter().map(|(lo, hi)| hi - lo).sum()
    }

    /// Number of tentative shifts waiting.
    pub fn tentative_count(&self) -> usize {
        self.tentative.len()
    }

    /// Number of shifts being processed.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// `true` when no tentative shifts remain and nothing is in flight
    /// (the paper's Sec. IV.E condition, which with the uncovered-set
    /// bookkeeping implies the band is covered).
    pub fn is_done(&self) -> bool {
        self.tentative.is_empty() && self.in_flight.is_empty()
    }

    /// Picks the next shift for an idle worker, or `None` if none is
    /// available right now (the worker should wait or terminate depending
    /// on [`Scheduler::is_done`]).
    ///
    /// Selection order matches the paper's startup (Fig. 3): the left band
    /// edge first, then the right edge, then left-to-right.
    pub fn next_shift(&mut self) -> Option<ShiftTask> {
        if self.tentative.is_empty() {
            return None;
        }
        let idx = if self.picks == 1 {
            // Second pick: right-most (the upper band edge).
            self.tentative
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.omega.total_cmp(&b.1.omega))
                .map(|(i, _)| i)?
        } else {
            self.tentative
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.omega.total_cmp(&b.1.omega))
                .map(|(i, _)| i)?
        };
        let t = self.tentative.swap_remove(idx);
        let id = self.next_id;
        self.next_id += 1;
        self.picks += 1;
        let task = ShiftTask {
            id,
            omega: t.omega,
            rho0: self.rho0(&t),
            interval: t.interval,
        };
        self.in_flight.insert(id, t);
        Some(task)
    }

    /// Initial radius guess of the shift placed in `t` (paper Eq. (23)):
    /// `alpha` times the distance to the far edge of its interval.
    fn rho0(&self, t: &Tentative) -> f64 {
        let reach = (t.omega - t.interval.0).max(t.interval.1 - t.omega);
        (self.alpha * reach).max(self.min_piece)
    }

    /// `true` when the recycle-pool gather of some shift — queued, in
    /// flight, or yet to be seeded — may read a donor disk `[lo, hi]`;
    /// `false` promises that none ever will, so the donor can be dropped.
    ///
    /// A shift in interval `I` gathers within `omega ± f rho0` (`f` =
    /// [`GATHER_FACTOR`]), which contains `I` padded by `(f alpha - 1)|I|/2`
    /// because `rho0` reaches `alpha` times past the *far* edge of `I`.
    /// Every later shift is the midpoint of a piece of an open `I`, so its
    /// window lies in that padded `I`, or in `I ± f min_piece` when the
    /// `rho0` floor binds: the open shifts' own windows, widened by
    /// `f min_piece`, bound every gather still to come (DESIGN.md, "What a
    /// sweep holds", has the proof).
    pub fn may_gather(&self, lo: f64, hi: f64) -> bool {
        self.tentative
            .iter()
            .chain(self.in_flight.values())
            .any(|t| {
                let reach = GATHER_FACTOR * (self.rho0(t) + self.min_piece);
                lo <= t.omega + reach && t.omega - reach <= hi
            })
    }

    /// Records the completion of `task` with a certified disk of radius
    /// `radius > 0` centered at `center` (normally `task.omega`; the worker
    /// may have nudged the shift to escape an eigenvalue collision or a
    /// symmetry degeneracy), updating the uncovered set and the tentative
    /// queue.
    ///
    /// # Panics
    ///
    /// Panics if the task id is unknown (double completion) or the radius
    /// is not positive.
    pub fn complete(&mut self, task: &ShiftTask, center: f64, radius: f64) {
        assert!(radius > 0.0, "certified radius must be positive");
        // PANIC-SAFE: a missing id is a double-completion bug in the
        // driver; the documented panic (see `# Panics`) is the guard.
        #[allow(clippy::expect_used)]
        let interval = self
            .in_flight
            .remove(&task.id)
            .expect("completion of unknown or already-completed task")
            .interval;
        self.stats.processed += 1;
        subtract(&mut self.uncovered, (center - radius, center + radius));
        // A certified disk landing on a quarantined gap shrinks the gap:
        // those frequencies *were* explored after all.
        subtract(&mut self.gaps, (center - radius, center + radius));

        // Re-seed tentative shifts whose interval lost coverage (skipped in
        // static-grid ablation mode, where pre-allocated shifts are always
        // processed even when their interval is already covered).
        let old = if self.delete_covered {
            std::mem::take(&mut self.tentative)
        } else {
            Vec::new()
        };
        for t in old {
            let pieces = intersect(t.interval, &self.uncovered);
            let total: f64 = pieces.iter().map(|(a, b)| b - a).sum();
            let orig = t.interval.1 - t.interval.0;
            if pieces.len() == 1 && (total - orig).abs() <= 1e-12 * orig.max(1.0) {
                // Untouched.
                self.tentative.push(t);
                continue;
            }
            if total <= self.min_piece {
                // Fully covered by the new disk: the paper's Eq. (24). Any
                // sub-resolution residue is accepted by fiat and removed
                // from the uncovered set (tracked in `dropped_length`).
                self.stats.deleted_tentative += 1;
                for &piece in &pieces {
                    self.dropped_length += piece.1 - piece.0;
                    subtract(&mut self.uncovered, piece);
                }
                continue;
            }
            self.stats.trimmed_tentative += 1;
            self.seed_pieces(&pieces);
        }

        // The processed interval's own uncovered remainder spawns children
        // (paper Eqs. (25)–(28); empty when the disk covered the interval).
        let remainder = intersect(interval, &self.uncovered);
        if !remainder.is_empty() {
            self.stats.splits += 1;
            self.seed_pieces(&remainder);
        }
    }

    /// Creates a tentative mid-point shift for every sufficiently long
    /// piece; sub-resolution pieces are accepted by fiat (removed from the
    /// uncovered set and tracked in `dropped_length`).
    fn seed_pieces(&mut self, pieces: &[(f64, f64)]) {
        for &(lo, hi) in pieces {
            if hi - lo < self.min_piece {
                self.dropped_length += hi - lo;
                subtract(&mut self.uncovered, (lo, hi));
                continue;
            }
            self.tentative.push(Tentative {
                omega: 0.5 * (lo + hi),
                interval: (lo, hi),
            });
        }
    }

    /// Gives up on an in-flight shift the degradation ladder could not
    /// rescue: its interval's uncovered remainder is removed from the
    /// uncovered set (so the sweep can terminate) and recorded as a
    /// *named* coverage gap — honest partial coverage, never a silent
    /// claim. Nothing is re-seeded: the whole point is to stop retrying a
    /// breaking-down frequency.
    ///
    /// # Panics
    ///
    /// Panics if the task id is unknown (double completion/quarantine).
    pub fn quarantine(&mut self, task: &ShiftTask) {
        // PANIC-SAFE: a missing id is a double-quarantine bug in the
        // driver; the documented panic (see `# Panics`) is the guard.
        #[allow(clippy::expect_used)]
        let interval = self
            .in_flight
            .remove(&task.id)
            .expect("quarantine of unknown or already-completed task")
            .interval;
        self.stats.quarantined += 1;
        let pieces = intersect(interval, &self.uncovered);
        for &piece in &pieces {
            self.gaps.push(piece);
            subtract(&mut self.uncovered, piece);
        }
    }

    /// The named coverage gaps left by quarantined shifts, sorted and
    /// merged, net of any later certified disks. Empty on a fully covered
    /// sweep.
    pub fn coverage_gaps(&self) -> Vec<(f64, f64)> {
        let mut gaps: Vec<(f64, f64)> = self
            .gaps
            .iter()
            .copied()
            .filter(|(lo, hi)| hi - lo > 0.0)
            .collect();
        gaps.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(gaps.len());
        for (lo, hi) in gaps {
            match merged.last_mut() {
                Some(last) if lo <= last.1 + self.min_piece => last.1 = last.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        merged
    }

    /// Debug/verification helper: `true` when every uncovered point lies in
    /// a tentative or in-flight interval (the coverage invariant).
    pub fn coverage_invariant_holds(&self) -> bool {
        let mut owned: Vec<(f64, f64)> = self
            .tentative
            .iter()
            .map(|t| t.interval)
            .chain(self.in_flight.values().map(|t| t.interval))
            .collect();
        owned.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut remaining = self.uncovered.clone();
        for iv in owned {
            subtract(&mut remaining, iv);
        }
        remaining.iter().map(|(a, b)| b - a).sum::<f64>() <= self.min_piece * 16.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_len(v: &[(f64, f64)]) -> f64 {
        v.iter().map(|(a, b)| b - a).sum()
    }

    #[test]
    fn subtract_cases() {
        let mut v = vec![(0.0, 10.0)];
        subtract(&mut v, (2.0, 3.0));
        assert_eq!(v, vec![(0.0, 2.0), (3.0, 10.0)]);
        subtract(&mut v, (-1.0, 0.5));
        assert_eq!(v, vec![(0.5, 2.0), (3.0, 10.0)]);
        subtract(&mut v, (1.5, 4.0));
        assert_eq!(v, vec![(0.5, 1.5), (4.0, 10.0)]);
        subtract(&mut v, (0.0, 20.0));
        assert!(v.is_empty());
        subtract(&mut v, (0.0, 1.0)); // no-op on empty
        assert!(v.is_empty());
    }

    #[test]
    fn intersect_cases() {
        let list = vec![(0.0, 2.0), (5.0, 8.0)];
        assert_eq!(intersect((1.0, 6.0), &list), vec![(1.0, 2.0), (5.0, 6.0)]);
        assert!(intersect((3.0, 4.0), &list).is_empty());
        assert_eq!(intersect((-1.0, 9.0), &list), list);
    }

    #[test]
    fn startup_order_matches_fig3() {
        // T = 3, N = 6 (kappa = 2): picks must be the band edges first,
        // then left-to-right (paper Fig. 3 with its Eq. (13)-(15)).
        let mut s = Scheduler::new((0.0, 6.0), 6, 1.05);
        let t1 = s.next_shift().unwrap();
        let t2 = s.next_shift().unwrap();
        let t3 = s.next_shift().unwrap();
        assert_eq!(t1.omega, 0.0); // left edge shift of interval 1
        assert_eq!(t2.omega, 6.0); // right edge shift of interval N
        assert_eq!(t3.omega, 1.5); // midpoint of interval 2
        assert_eq!(s.in_flight_count(), 3);
        assert!(s.coverage_invariant_holds());
    }

    #[test]
    fn disk_covering_interval_retires_it() {
        let mut s = Scheduler::new((0.0, 4.0), 4, 1.0);
        let t = s.next_shift().unwrap(); // omega = 0, interval (0, 1)
                                         // Disk radius 1.2 covers (0,1) fully and eats into (1,2).
        s.complete(&t, t.omega, 1.2);
        assert_eq!(s.stats().processed, 1);
        assert!((s.uncovered_length() - 2.8).abs() < 1e-12);
        assert!(s.coverage_invariant_holds());
    }

    #[test]
    fn covered_tentative_shift_is_deleted() {
        // A big disk from interval 1 swallows interval 2 entirely:
        // its tentative shift must be deleted (Eq. (24)).
        let mut s = Scheduler::new((0.0, 4.0), 4, 1.0);
        let t = s.next_shift().unwrap(); // omega = 0
        s.complete(&t, t.omega, 2.0); // covers (0,2): intervals 1 and 2
        assert_eq!(s.stats().deleted_tentative, 1);
        assert!((s.uncovered_length() - 2.0).abs() < 1e-12);
        assert!(s.coverage_invariant_holds());
    }

    #[test]
    fn small_disk_splits_interval_like_fig5() {
        // A disk strictly inside its interval leaves two child pieces with
        // mid-point shifts (paper Fig. 5 / Eqs. (25)-(28)).
        let mut s = Scheduler::new((0.0, 8.0), 2, 1.0);
        let left = s.next_shift().unwrap(); // omega = 0, interval (0, 4)
        let right = s.next_shift().unwrap(); // omega = 8, interval (4, 8)
        s.complete(&right, right.omega, 0.5); // covers (7.5, 8): remainder (4, 7.5)
        assert_eq!(s.stats().splits, 1);
        // The remainder child has a midpoint shift.
        let child = s.next_shift().unwrap();
        assert!((child.omega - 5.75).abs() < 1e-12);
        assert_eq!(child.interval, (4.0, 7.5));
        s.complete(&left, left.omega, 4.0); // covers (0,4) fully (one-sided from 0)
        s.complete(&child, child.omega, 2.0); // covers (3.75, 7.75): remainder (7.75 ... wait 7.5)
        assert!(s.is_done() || s.tentative_count() > 0);
        assert!(s.coverage_invariant_holds());
    }

    #[test]
    fn mid_interval_disk_spawns_two_children() {
        let mut s = Scheduler::new((0.0, 2.0), 2, 1.0);
        let a = s.next_shift().unwrap(); // omega = 0, (0,1)
        let b = s.next_shift().unwrap(); // omega = 2, (1,2)
                                         // Complete b first with a huge radius clearing its interval.
        s.complete(&b, b.omega, 1.0);
        // Now a small disk in the middle of (0,1): radius such that
        // [omega - r, omega + r] = [-0.2, 0.2] -> remainder (0.2, 1).
        s.complete(&a, a.omega, 0.2);
        assert_eq!(s.tentative_count(), 1);
        let child = s.next_shift().unwrap();
        assert!((child.omega - 0.6).abs() < 1e-12);
        s.complete(&child, child.omega, 0.45); // covers (0.15, 1.05): done
        assert!(s.is_done());
        assert!(s.uncovered_length() < 1e-9);
    }

    #[test]
    fn termination_implies_coverage() {
        // Drive to completion with deterministic pseudo-random radii; at
        // the end the uncovered set must be (numerically) empty.
        let mut s = Scheduler::new((0.0, 10.0), 8, 1.05);
        let mut pending: Vec<ShiftTask> = Vec::new();
        let mut state = 0x12345u64;
        let mut steps = 0;
        loop {
            while pending.len() < 3 {
                match s.next_shift() {
                    Some(t) => pending.push(t),
                    None => break,
                }
            }
            if pending.is_empty() {
                break;
            }
            // Pseudo-random completion order and radii.
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize % pending.len();
            let t = pending.swap_remove(pick);
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let frac = ((state >> 40) as f64) / ((1u64 << 24) as f64);
            let radius = t.rho0 * (0.3 + 0.9 * frac);
            s.complete(&t, t.omega, radius);
            assert!(
                s.coverage_invariant_holds(),
                "invariant broken at step {steps}"
            );
            steps += 1;
            assert!(steps < 10_000, "scheduler failed to make progress");
        }
        assert!(s.is_done());
        assert!(s.uncovered_length() <= s.dropped_length() + 1e-9);
        assert!(s.stats().processed == steps);
    }

    #[test]
    fn rho0_reaches_interval_edges() {
        let mut s = Scheduler::new((0.0, 4.0), 4, 1.5);
        let t = s.next_shift().unwrap(); // edge shift at 0, interval (0,1)
                                         // Reach = 1 (distance to the far edge), times alpha.
        assert!((t.rho0 - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_rejected() {
        let mut s = Scheduler::new((0.0, 1.0), 2, 1.0);
        let t = s.next_shift().unwrap();
        s.complete(&t, t.omega, 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown or already-completed")]
    fn double_completion_rejected() {
        let mut s = Scheduler::new((0.0, 1.0), 2, 1.0);
        let t = s.next_shift().unwrap();
        s.complete(&t, t.omega, 0.6);
        s.complete(&t, t.omega, 0.6);
    }

    #[test]
    fn may_gather_follows_the_open_shifts_windows() {
        // Intervals (0,1),(1,2),(2,3),(3,4), alpha = 1: the edge shift at 0
        // reaches 1.25 * 1, the midpoint shifts 1.25 * 0.5 around 1.5, 2.5,
        // the edge shift at 4 reaches down to 2.75.
        let mut s = Scheduler::new((0.0, 4.0), 4, 1.0);
        assert!(s.may_gather(-9.0, -1.2), "left edge shift reaches -1.25");
        assert!(!s.may_gather(-9.0, -1.3));
        assert!(s.may_gather(5.2, 9.0), "right edge shift reaches 5.25");
        assert!(!s.may_gather(5.3, 9.0));
        let a = s.next_shift().unwrap(); // omega 0, in flight: still counted
        assert!(s.may_gather(-9.0, -1.2));
        s.complete(&a, a.omega, 1.0); // (0,1) done, nothing re-seeded
        assert!(s.may_gather(-9.0, 0.9), "midpoint 1.5 reaches 0.875");
        assert!(!s.may_gather(-9.0, 0.8));
        while let Some(t) = s.next_shift() {
            s.complete(&t, t.omega, t.rho0);
        }
        assert!(s.is_done());
        assert!(!s.may_gather(f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    fn quarantine_names_the_gap_and_lets_the_sweep_terminate() {
        let mut s = Scheduler::new((0.0, 4.0), 4, 1.0);
        let a = s.next_shift().unwrap(); // omega 0, interval (0,1)
        let b = s.next_shift().unwrap(); // omega 4, interval (3,4)
        s.quarantine(&b);
        assert_eq!(s.stats().quarantined, 1);
        assert_eq!(s.coverage_gaps(), vec![(3.0, 4.0)]);
        // The gap left the uncovered set (else the sweep could never end)…
        assert!((s.uncovered_length() - 3.0).abs() < 1e-12);
        // …and the rest of the sweep proceeds normally.
        s.complete(&a, a.omega, 1.0);
        while let Some(t) = s.next_shift() {
            s.complete(&t, t.omega, t.rho0);
        }
        assert!(s.is_done());
        assert_eq!(s.coverage_gaps(), vec![(3.0, 4.0)], "gap stays named");
    }

    #[test]
    fn later_disks_shrink_reported_gaps() {
        let mut s = Scheduler::new((0.0, 4.0), 4, 1.0);
        let a = s.next_shift().unwrap(); // omega 0, interval (0,1)
        let b = s.next_shift().unwrap(); // omega 4, interval (3,4)
        s.quarantine(&b);
        assert_eq!(s.coverage_gaps(), vec![(3.0, 4.0)]);
        // A huge disk from the other side covers most of the gap too.
        s.complete(&a, a.omega, 3.5);
        assert_eq!(s.coverage_gaps(), vec![(3.5, 4.0)]);
    }

    #[test]
    fn adjacent_quarantine_gaps_merge() {
        let mut s = Scheduler::new((0.0, 4.0), 4, 1.0);
        let _a = s.next_shift().unwrap(); // (0,1)
        let b = s.next_shift().unwrap(); // (3,4)
        let c = s.next_shift().unwrap(); // (1,2)
        let d = s.next_shift().unwrap(); // (2,3)
        s.quarantine(&d);
        s.quarantine(&b);
        s.quarantine(&c);
        assert_eq!(s.stats().quarantined, 3);
        assert_eq!(s.coverage_gaps(), vec![(1.0, 4.0)]);
    }

    #[test]
    #[should_panic(expected = "unknown or already-completed")]
    fn double_quarantine_rejected() {
        let mut s = Scheduler::new((0.0, 1.0), 2, 1.0);
        let t = s.next_shift().unwrap();
        s.quarantine(&t);
        s.quarantine(&t);
    }

    #[test]
    fn sequential_serial_run_terminates() {
        // T = 1 style: always exactly one shift in flight.
        let mut s = Scheduler::new((0.0, 5.0), 4, 1.05);
        let mut count = 0;
        while let Some(t) = s.next_shift() {
            s.complete(&t, t.omega, t.rho0 * 0.8);
            count += 1;
            assert!(count < 1000);
        }
        assert!(s.is_done());
        assert!(s.uncovered_length() <= s.dropped_length() + 1e-9);
        assert!(total_len(&s.uncovered) < 1e-6);
    }
}
