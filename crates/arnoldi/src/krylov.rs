//! The Arnoldi factorization with deflation.
//!
//! Builds `Op V_m = V_{m+1} H_{m+1,m}` where the columns of `V` are an
//! orthonormal Krylov basis. Converged ("locked") vectors from earlier
//! restarts are projected out of the start vector and of every new Krylov
//! direction, which realizes the paper's *incremental deflation*: the
//! effective operator is `(I - Q Q^H) Op (I - Q Q^H)`.
//!
//! Orthogonalization is **blocked CGS2** (classical Gram-Schmidt with one
//! unconditional re-orthogonalization): each step runs two batched
//! project-against-basis passes over the basis, which is stored once, as
//! contiguous split-complex planes ([`pheig_linalg::kernels::SplitBasis`]),
//! so the working vector streams from memory a constant number of times
//! per step instead of the `2j` dependent sweeps of element-wise modified
//! Gram-Schmidt. Only the operator speaks interleaved complex: one in/out
//! vector pair per factorization is that boundary
//! ([`ArnoldiFactorization::io_mut`]).
//! CGS2 carries the same orthogonality guarantee as MGS with
//! re-orthogonalization ("twice is enough": the basis is orthonormal to a
//! small multiple of machine epsilon even for clustered spectra — pinned
//! by `basis_is_orthonormal` here and the clustered-spectrum stress test
//! in `tests/cgs2_orthogonality.rs`).

use pheig_hamiltonian::CLinearOp;
use pheig_linalg::kernels::{self, SplitBasis};
use pheig_linalg::{Matrix, C64};

/// An Arnoldi factorization of length `m`.
///
/// The storage (basis planes and the Hessenberg matrix) is reusable: a
/// factorization built by [`arnoldi_into`] retains its allocations across
/// rebuilds, so restart loops run without steady-state heap traffic. `h`
/// may be larger than `(steps+1) x steps`; only that leading block is
/// meaningful.
#[derive(Debug, Clone)]
pub struct ArnoldiFactorization {
    /// The upper-Hessenberg projection (leading `(steps+1) x steps` block).
    pub h: Matrix<C64>,
    /// Locked-set projection coefficients (`locked.len() x steps` leading
    /// block): column `j` holds the components of `Op v_j` removed by
    /// deflation, summed over the CGS2 passes. Together with `h` they make
    /// the build an exact decomposition,
    /// `Op V_m = V_m H_m + beta v_m e_m^T + L HL_m`,
    /// so consumers can reconstruct operator images of Ritz vectors
    /// without re-applying the operator.
    pub hl: Matrix<C64>,
    /// Achieved factorization length (may be shorter than requested on
    /// happy breakdown).
    pub steps: usize,
    /// `true` when the Krylov space became invariant (happy breakdown).
    pub breakdown: bool,
    /// Orthonormal basis vectors `v_0 .. v_m` (`m + 1` of them; `m` after a
    /// breakdown), split-complex: row `j` is `v_j`.
    split: SplitBasis,
    /// The operator boundary, interleaved — the layout `apply_into`
    /// expects: `x` holds the current `v_j`, `w` receives `Op v_j`.
    x: Vec<C64>,
    w: Vec<C64>,
    /// The deflation set, split-complex: filled by [`Self::set_locked`] or
    /// grown row by row through [`Self::push_locked`].
    locked_split: SplitBasis,
    /// Working-vector planes.
    wr: Vec<f64>,
    wi: Vec<f64>,
    /// Batched projection coefficients.
    coeff: Vec<C64>,
    /// Incremental-build cursor (step index), valid between
    /// [`Self::begin_build`] and the final [`Self::absorb`].
    build_j: usize,
    /// Incremental-build step cap.
    build_max: usize,
}

impl Default for ArnoldiFactorization {
    fn default() -> Self {
        Self::empty()
    }
}

impl ArnoldiFactorization {
    /// An empty factorization whose storage [`arnoldi_into`] will grow and
    /// then reuse.
    pub fn empty() -> Self {
        ArnoldiFactorization {
            h: Matrix::zeros(1, 0),
            hl: Matrix::zeros(1, 0),
            steps: 0,
            breakdown: false,
            split: SplitBasis::new(),
            x: Vec::new(),
            w: Vec::new(),
            locked_split: SplitBasis::new(),
            wr: Vec::new(),
            wi: Vec::new(),
            coeff: Vec::new(),
            build_j: 0,
            build_max: 0,
        }
    }

    /// The square `m x m` projected matrix `H_m`.
    pub fn projected(&self) -> Matrix<C64> {
        Matrix::from_fn(self.steps, self.steps, |i, j| self.h[(i, j)])
    }

    /// The sub-diagonal residual entry `h_{m+1, m}`.
    pub fn residual_entry(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.h[(self.steps, self.steps - 1)].abs()
        }
    }

    /// Lifts a projected vector `y` (length `steps`) into the original
    /// space: `V_m y`, normalized. A thin allocating wrapper over the
    /// combine kernel ([`SplitBasis::combine_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.steps` or the factorization is empty.
    pub fn lift(&self, y: &[C64]) -> Vec<C64> {
        assert_eq!(y.len(), self.steps, "lift coefficient length mismatch");
        assert!(!self.split.is_empty(), "lift on an empty factorization");
        let n = self.split.row_len();
        let (mut vr, mut vi) = (vec![0.0; n], vec![0.0; n]);
        self.split.combine_into(self.steps, y, &mut vr, &mut vi);
        kernels::normalize_seq(&mut vr, &mut vi);
        let mut v = vec![C64::zero(); n];
        kernels::merge(&vr, &vi, &mut v);
        v
    }

    /// The basis, in split-complex planes (row `j` is `v_j`).
    pub fn basis_split(&self) -> &SplitBasis {
        &self.split
    }

    /// The deflation set the next build projects out (row `q` pairs with
    /// row `q` of `hl`).
    pub fn locked(&self) -> &SplitBasis {
        &self.locked_split
    }

    /// Replaces the deflation set with `locked` (vectors of length `n`).
    ///
    /// # Panics
    ///
    /// Panics if any locked vector has length `!= n`.
    pub fn set_locked(&mut self, n: usize, locked: &[Vec<C64>]) {
        self.locked_split.reset(n);
        for q in locked {
            self.locked_split.push_interleaved(q);
        }
    }

    /// Appends one vector (split planes) to the deflation set. The caller
    /// keeps the set orthonormal; the rows already there are untouched, so
    /// a set that only grows is never re-split.
    pub fn push_locked(&mut self, xr: &[f64], xi: &[f64]) {
        self.locked_split.push_split(xr, xi);
    }

    /// Starts an incremental (caller-driven) rebuild of the factorization.
    ///
    /// Performs everything [`arnoldi_into`] does up to the first operator
    /// application: storage setup, deflation of `start` against the locked
    /// set ([`Self::set_locked`] / [`Self::push_locked`]), and
    /// normalization of `v_0`. Returns `false` when no operator
    /// applications are needed (degenerate start inside the locked span,
    /// or `max_steps == 0`) — the factorization is then already final.
    /// Otherwise the caller alternates [`Self::io_mut`] (apply the
    /// operator into the returned target) and [`Self::absorb`] until
    /// `absorb` returns `false`.
    ///
    /// This split exists so a driver can own the operator application — a
    /// *block* driver steps several independent factorizations round-robin,
    /// one apply per lane per pass; the math per factorization is identical
    /// to [`arnoldi_into`] (which is itself written on top of this API).
    ///
    /// # Panics
    ///
    /// Panics if `start.len() != n` or the locked set holds vectors of
    /// another length.
    pub fn begin_build(&mut self, n: usize, start: &[C64], max_steps: usize) -> bool {
        assert_eq!(start.len(), n, "start vector length mismatch");
        let locked = self.locked_split.rows();
        assert!(
            locked == 0 || self.locked_split.row_len() == n,
            "locked vector length mismatch"
        );
        self.h.reset_zeros(max_steps + 1, max_steps);
        self.hl.reset_zeros(locked.max(1), max_steps);
        // Plane scratch, the basis planes and the operator boundary (reused
        // storage; grows only to the high-water mark, then allocation-free
        // across rebuilds).
        self.wr.clear();
        self.wr.resize(n, 0.0);
        self.wi.clear();
        self.wi.resize(n, 0.0);
        self.coeff.clear();
        self.coeff.resize(locked.max(max_steps + 1), C64::zero());
        self.split.reset(n);
        self.boundary_mut(n);
        // v0 = start with the locked span batch-projected out; the second
        // pass is the CGS2 insurance for a start nearly inside that span.
        kernels::split(start, &mut self.wr, &mut self.wi);
        self.locked_split
            .project_out(&mut self.wr, &mut self.wi, &mut self.coeff);
        self.locked_split
            .project_out(&mut self.wr, &mut self.wi, &mut self.coeff);
        let n0 = kernels::nrm2(&self.wr, &self.wi);
        if n0 == 0.0 {
            self.steps = 0;
            self.breakdown = true;
            return false;
        }
        kernels::scal_real(1.0 / n0, &mut self.wr, &mut self.wi);
        kernels::merge(&self.wr, &self.wi, &mut self.x);
        self.split.push_split(&self.wr, &self.wi);
        self.steps = 0;
        self.breakdown = false;
        self.build_j = 0;
        self.build_max = max_steps;
        max_steps > 0
    }

    /// The operator boundary of the current incremental step: the source
    /// basis vector `v_j` and the target for `w = Op v_j`. Call only
    /// between a `true` return from [`Self::begin_build`]/[`Self::absorb`]
    /// and the matching [`Self::absorb`].
    pub fn io_mut(&mut self) -> (&[C64], &mut [C64]) {
        (&self.x, &mut self.w)
    }

    /// The same pair sized for vectors of length `n`, both sides writable:
    /// between builds a caller may put a vector of its own through the
    /// operator here (warm validation does). The next
    /// [`Self::begin_build`] overwrites it.
    pub(crate) fn boundary_mut(&mut self, n: usize) -> (&mut [C64], &mut [C64]) {
        self.x.resize(n, C64::zero());
        self.w.resize(n, C64::zero());
        (&mut self.x, &mut self.w)
    }

    /// Orthogonalizes the operator output written via [`Self::io_mut`]
    /// into the next basis vector (deflation + blocked CGS2), advancing
    /// the factorization by one step. Returns `false` when the build is
    /// finished (happy breakdown or the step cap was reached); the
    /// factorization is then final.
    pub fn absorb(&mut self) -> bool {
        let j = self.build_j;
        kernels::split(&self.w, &mut self.wr, &mut self.wi);
        // Deflation: keep the recursion inside the complement of `locked`.
        self.locked_split
            .project_out(&mut self.wr, &mut self.wi, &mut self.coeff);
        for q in 0..self.locked_split.rows() {
            self.hl[(q, j)] += self.coeff[q];
        }
        let before = kernels::nrm2(&self.wr, &self.wi);
        // Blocked CGS2: one batched classical Gram-Schmidt projection
        // against the whole basis, then an unconditional second pass
        // (re-projecting the locked set as well). Each pass streams the
        // working vector once per block of four basis rows.
        for pass in 0..2 {
            if pass == 1 {
                self.locked_split
                    .project_out(&mut self.wr, &mut self.wi, &mut self.coeff);
                for q in 0..self.locked_split.rows() {
                    self.hl[(q, j)] += self.coeff[q];
                }
            }
            self.split
                .project_out(&mut self.wr, &mut self.wi, &mut self.coeff);
            for i in 0..=j {
                self.h[(i, j)] += self.coeff[i];
            }
        }
        let beta = kernels::nrm2(&self.wr, &self.wi);
        self.steps = j + 1;
        self.h[(j + 1, j)] = C64::from_real(beta);
        if beta <= 1e-14 * before.max(1.0) {
            // The basis ends at `v_j`: the residual is not a direction.
            self.breakdown = true;
            return false;
        }
        kernels::scal_real(1.0 / beta, &mut self.wr, &mut self.wi);
        self.split.push_split(&self.wr, &self.wi);
        if j + 1 == self.build_max {
            return false;
        }
        kernels::merge(&self.wr, &self.wi, &mut self.x);
        self.build_j = j + 1;
        true
    }
}

/// Rebuilds `fact` as an Arnoldi factorization of `op` from `start`,
/// deflating the `locked` orthonormal set.
///
/// `start` does not need to be normalized; it is orthogonalized against
/// `locked` first. The result has `steps <= max_steps` (shorter on
/// breakdown). `fact`'s basis and Hessenberg storage are reused: after the
/// first call at a given size, rebuilding performs no heap allocations
/// (beyond whatever `op.apply_into` does).
///
/// # Panics
///
/// Panics if `start.len() != op.dim()` or any locked vector has the wrong
/// length.
pub fn arnoldi_into(
    op: &dyn CLinearOp,
    start: &[C64],
    locked: &[Vec<C64>],
    max_steps: usize,
    fact: &mut ArnoldiFactorization,
) {
    fact.set_locked(op.dim(), locked);
    if !fact.begin_build(op.dim(), start, max_steps) {
        return;
    }
    loop {
        let (v, w) = fact.io_mut();
        op.apply_into(v, w);
        if !fact.absorb() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pheig_linalg::vector::{axpy, dot, nrm2};

    fn diag_op(d: &[C64]) -> Matrix<C64> {
        Matrix::from_diag(d)
    }

    /// Basis vector `v_r`, interleaved.
    fn row(fact: &ArnoldiFactorization, r: usize) -> Vec<C64> {
        let (re, im) = fact.basis_split().row(r);
        re.iter().zip(im).map(|(&a, &b)| C64::new(a, b)).collect()
    }

    fn rand_start(n: usize, seed: u64) -> Vec<C64> {
        (0..n)
            .map(|i| {
                let t = (i as f64 + 1.0) * (seed as f64 + 1.3);
                C64::new((t * 0.7).sin(), (t * 1.3).cos())
            })
            .collect()
    }

    #[test]
    fn arnoldi_relation_holds() {
        // Op * V_m == V_{m+1} * H.
        let n = 12;
        let d: Vec<C64> = (0..n)
            .map(|i| C64::new(i as f64 + 1.0, (i % 3) as f64))
            .collect();
        let op = diag_op(&d);
        let mut fact = ArnoldiFactorization::empty();
        arnoldi_into(&op, &rand_start(n, 1), &[], 6, &mut fact);
        assert_eq!(fact.steps, 6);
        for j in 0..fact.steps {
            let av = op.matvec(&row(&fact, j));
            let mut rhs = vec![C64::zero(); n];
            for i in 0..=fact.steps.min(j + 1) {
                axpy(fact.h[(i, j)], &row(&fact, i), &mut rhs);
            }
            for k in 0..n {
                assert!((av[k] - rhs[k]).abs() < 1e-10, "column {j}");
            }
        }
    }

    #[test]
    fn basis_is_orthonormal() {
        let n = 20;
        let d: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64).sin() * 3.0, i as f64 * 0.2))
            .collect();
        let op = diag_op(&d);
        let mut fact = ArnoldiFactorization::empty();
        arnoldi_into(&op, &rand_start(n, 2), &[], 10, &mut fact);
        let rows = fact.basis_split().rows();
        assert_eq!(rows, 11);
        for i in 0..rows {
            for j in 0..rows {
                let g = dot(&row(&fact, i), &row(&fact, j));
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (g - C64::from_real(want)).abs() < 1e-10,
                    "gram({i},{j}) = {g}"
                );
            }
        }
    }

    #[test]
    fn happy_breakdown_on_invariant_subspace() {
        // Start vector = eigenvector: breakdown after 1 step.
        let d = [C64::from_real(2.0), C64::from_real(3.0)];
        let op = diag_op(&d);
        let start = vec![C64::one(), C64::zero()];
        let mut fact = ArnoldiFactorization::empty();
        arnoldi_into(&op, &start, &[], 2, &mut fact);
        assert!(fact.breakdown);
        assert_eq!(fact.steps, 1);
        assert!((fact.projected()[(0, 0)] - C64::from_real(2.0)).abs() < 1e-12);
    }

    #[test]
    fn deflation_excludes_locked_directions() {
        // Lock the dominant eigenvector of a diagonal operator; the
        // projected spectrum must not contain its eigenvalue.
        let n = 8;
        let d: Vec<C64> = (0..n).map(|i| C64::from_real(10.0 - i as f64)).collect();
        let op = diag_op(&d);
        let mut e0 = vec![C64::zero(); n];
        e0[0] = C64::one();
        let mut fact = ArnoldiFactorization::empty();
        arnoldi_into(&op, &rand_start(n, 3), &[e0], n - 1, &mut fact);
        let hm = fact.projected();
        let eigs = pheig_linalg::eig::eig_complex(&hm).unwrap();
        for z in eigs {
            assert!(
                (z - C64::from_real(10.0)).abs() > 0.5,
                "locked eigenvalue leaked: {z}"
            );
        }
    }

    #[test]
    fn zero_start_after_deflation() {
        // Start inside the locked span -> degenerate factorization signal.
        let op = diag_op(&[C64::from_real(1.0), C64::from_real(2.0)]);
        let q = vec![C64::one(), C64::zero()];
        let mut fact = ArnoldiFactorization::empty();
        arnoldi_into(&op, &[C64::one(), C64::zero()], &[q], 2, &mut fact);
        assert!(fact.breakdown);
        assert_eq!(fact.steps, 0);
    }

    #[test]
    fn lift_produces_unit_vectors() {
        let n = 10;
        let d: Vec<C64> = (0..n).map(|i| C64::new(i as f64, 1.0)).collect();
        let op = diag_op(&d);
        let mut fact = ArnoldiFactorization::empty();
        arnoldi_into(&op, &rand_start(n, 5), &[], 4, &mut fact);
        let y = vec![C64::new(0.5, 0.1); fact.steps];
        let v = fact.lift(&y);
        assert!((nrm2(&v) - 1.0).abs() < 1e-12);
    }
}
