//! Primal-dual interior-point SDP solver (HKM direction, Mehrotra
//! predictor-corrector).
//!
//! Solves the standard-form pair
//!
//! ```text
//! (P) min ⟨C, X⟩   s.t. ⟨Aᵢ, X⟩ = bᵢ, X ⪰ 0
//! (D) max bᵀy      s.t. Z = C − Σᵢ yᵢAᵢ ⪰ 0
//! ```
//!
//! following the classical infeasible-start path-following scheme used by
//! CSDP/SDPA: at each iteration the Schur complement
//! `M_kl = ⟨A_k, (X·A_l·Z⁻¹ + Z⁻¹·A_l·X)/2⟩` is formed (exploiting the
//! sparsity of the `Aᵢ`), a predictor step (σ = 0) estimates the
//! centering parameter, and a corrector step with the Mehrotra second-order
//! term produces the final direction.
//!
//! Because Gleipnir's error bounds must be *sound*, [`SdpSolution`] exposes
//! [`SdpSolution::certified_dual_bound`]: a rigorous lower bound on the
//! primal minimum derived from weak duality plus an explicit correction for
//! the residual dual infeasibility (`bᵀy − R·max(0, −λ_min(C − Aᵀy))` for
//! any trace bound `R` on the feasible set).

use crate::{BlockMat, SdpProblem, SparseSym};
use gleipnir_linalg::{axpy_slice, RMat};
use std::fmt;
use std::time::Instant;

/// Options for [`SdpProblem::solve`].
#[derive(Clone, Copy, Debug)]
pub struct SolverOptions {
    /// Iteration cap (default 100).
    pub max_iterations: usize,
    /// Relative tolerance on duality gap and feasibility (default 1e-8).
    pub tolerance: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iterations: 100,
            tolerance: 1e-8,
        }
    }
}

/// Termination status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SdpStatus {
    /// Converged to the requested tolerance.
    Optimal,
    /// Stopped at the iteration cap; the iterate (and in particular the
    /// certified dual bound) is still usable, just less tight.
    MaxIterations,
}

/// Errors from the solver.
#[derive(Clone, Debug, PartialEq)]
pub enum SdpError {
    /// A linear-algebra step failed beyond recovery (singular Schur
    /// complement or loss of positive definiteness).
    Numerical(String),
}

impl fmt::Display for SdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdpError::Numerical(msg) => write!(f, "SDP numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for SdpError {}

/// Cumulative time and allocation accounting for one interior-point solve,
/// broken down by phase.
///
/// Every phase of [`SdpProblem::solve`] is timed, so the phase fields sum to
/// approximately [`SolverProfile::total_ms`] (the difference is timer
/// overhead). Profiles are additive: reports and benchmark passes aggregate
/// the per-solve profiles of hundreds of SDPs with [`SolverProfile::add`].
/// A single solve runs on one thread, so its profile is wall time; an
/// aggregate over solves that ran on several pool workers at once is CPU
/// time summed across those workers and can exceed the wall time of the
/// analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolverProfile {
    /// Pre-loop work: dense `C`, norms, the starting iterate, the
    /// constraint index, and workspace allocation.
    pub setup_ms: f64,
    /// Per-iteration residuals, objectives, and convergence metrics.
    pub residual_ms: f64,
    /// Schur-complement formation `M_kl = ⟨A_k, sym(X·A_l·Z⁻¹)⟩` via the
    /// constraint-indexed sandwich kernel.
    pub schur_ms: f64,
    /// Factorizations: blockwise `Z⁻¹` and the Cholesky of the Schur
    /// complement (including regularization retries).
    pub factor_ms: f64,
    /// Predictor/corrector direction solves (right-hand sides, triangular
    /// solves, `sym(X·R·Z⁻¹)` triples, Mehrotra corrector assembly).
    pub direction_ms: f64,
    /// Eigenvalue-based line searches (`max_step`) and iterate updates.
    pub step_ms: f64,
    /// Post-loop certificate work: final residuals and the exact
    /// dual-slack minimum eigenvalue.
    pub cert_ms: f64,
    /// Total time of the solve (summed over solves in an aggregate).
    pub total_ms: f64,
    /// Heap allocations the iteration loop itself still performs after the
    /// workspace refactor (e.g. Schur regularization retries). Internal
    /// allocations of the eigenvalue line search are not counted.
    pub loop_allocs: u64,
}

impl SolverProfile {
    /// Sum of the per-phase times (everything except `total_ms`); should
    /// track `total_ms` to within timer overhead.
    pub fn phase_ms(&self) -> f64 {
        self.setup_ms
            + self.residual_ms
            + self.schur_ms
            + self.factor_ms
            + self.direction_ms
            + self.step_ms
            + self.cert_ms
    }

    /// The seven phases as `(name, ms)` pairs, in execution order.
    /// This is the bridge the telemetry layer uses to re-emit a solve's
    /// phases as child spans *after* the solve returns — the solver hot
    /// path itself records nothing.
    pub fn phases(&self) -> [(&'static str, f64); 7] {
        [
            ("setup", self.setup_ms),
            ("residual", self.residual_ms),
            ("schur", self.schur_ms),
            ("factor", self.factor_ms),
            ("direction", self.direction_ms),
            ("step", self.step_ms),
            ("cert", self.cert_ms),
        ]
    }

    /// Accumulates another profile into this one (all fields are summed).
    pub fn add(&mut self, other: &SolverProfile) {
        self.setup_ms += other.setup_ms;
        self.residual_ms += other.residual_ms;
        self.schur_ms += other.schur_ms;
        self.factor_ms += other.factor_ms;
        self.direction_ms += other.direction_ms;
        self.step_ms += other.step_ms;
        self.cert_ms += other.cert_ms;
        self.total_ms += other.total_ms;
        self.loop_allocs += other.loop_allocs;
    }
}

/// The solver's output: primal/dual iterates and quality metrics.
#[derive(Clone, Debug)]
pub struct SdpSolution {
    /// Primal variable.
    pub x: BlockMat,
    /// Dual multipliers.
    pub y: Vec<f64>,
    /// Dual slack `Z ≈ C − Aᵀ(y)`.
    pub z: BlockMat,
    /// `⟨C, X⟩`.
    pub primal_objective: f64,
    /// `bᵀy`.
    pub dual_objective: f64,
    /// `|pobj − dobj| / (1 + |pobj| + |dobj|)`.
    pub relative_gap: f64,
    /// `‖b − A(X)‖₂ / (1 + ‖b‖₂)`.
    pub primal_infeasibility: f64,
    /// `‖C − Z − Aᵀ(y)‖_F / (1 + ‖C‖_F)`.
    pub dual_infeasibility: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Termination status.
    pub status: SdpStatus,
    /// `λ_min(C − Aᵀ(y))` of the *exact* dual slack (not the iterate `Z`),
    /// used by the certificate.
    pub exact_dual_slack_min_eig: f64,
    /// Per-phase wall-time breakdown of this solve.
    pub profile: SolverProfile,
}

impl SdpSolution {
    /// A rigorous lower bound on the primal optimal value, valid for every
    /// primal-feasible `X` with `tr(X) ≤ trace_bound`:
    ///
    /// `⟨C, X⟩ = bᵀy + ⟨C − Aᵀ(y), X⟩ ≥ bᵀy − max(0, −λ_min)·tr(X)`.
    pub fn certified_dual_bound(&self, trace_bound: f64) -> f64 {
        self.dual_objective - (-self.exact_dual_slack_min_eig).max(0.0) * trace_bound
    }
}

impl SdpProblem {
    /// Re-derives the weak-duality certificate for an **externally
    /// supplied** dual vector `y` — no interior-point iterations, just one
    /// exact dual-slack eigenvalue computation. This is what makes SDP
    /// certificates *cheap to re-check* after being expensive to produce:
    /// a persisted `(problem, y)` pair can be re-certified on load in a
    /// fraction of a solve, and the resulting bound is sound for *any* `y`
    /// (a garbage vector just yields a uselessly weak bound, never an
    /// unsound one).
    ///
    /// Computes exactly what [`SdpSolution::certified_dual_bound`] would
    /// report for this `y`: `bᵀy − max(0, −λ_min(C − Aᵀ(y)))·trace_bound`,
    /// with `λ_min` taken from the exact dual slack (the same code path the
    /// solver uses), so re-checking a stored solution reproduces its bound
    /// bit for bit.
    ///
    /// # Examples
    ///
    /// ```
    /// use gleipnir_sdp::{SdpProblem, SparseSym};
    ///
    /// // minimize ⟨diag(−2, −1), X⟩ s.t. tr X = 1, X ⪰ 0 — the optimum is
    /// // −2 (all weight on the first coordinate).
    /// let mut c = SparseSym::new();
    /// c.push(0, 0, 0, -2.0).push(0, 1, 1, -1.0);
    /// let mut tr = SparseSym::new();
    /// tr.push(0, 0, 0, 1.0).push(0, 1, 1, 1.0);
    /// let p = SdpProblem::new(vec![2], c, vec![tr], vec![1.0]);
    ///
    /// // y = [−2] proves the optimum exactly: the dual slack
    /// // C − Aᵀy = diag(0, 1) is PSD, so the bound is bᵀy = −2.
    /// assert_eq!(p.certified_dual_bound_for(&[-2.0], 1.0)?, -2.0);
    /// // Any finite dual yields a *sound* (possibly weaker) lower bound.
    /// assert!(p.certified_dual_bound_for(&[-3.0], 1.0)? <= -2.0);
    /// # Ok::<(), gleipnir_sdp::SdpError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`SdpError::Numerical`] if `y` has the wrong length for this
    /// problem or contains non-finite entries.
    pub fn certified_dual_bound_for(&self, y: &[f64], trace_bound: f64) -> Result<f64, SdpError> {
        if y.len() != self.n_constraints() {
            return Err(SdpError::Numerical(format!(
                "dual vector has {} entries but the problem has {} constraints",
                y.len(),
                self.n_constraints()
            )));
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(SdpError::Numerical(
                "dual vector contains non-finite entries".into(),
            ));
        }
        let dobj: f64 = self.rhs().iter().zip(y).map(|(b, y)| b * y).sum();
        let min_eig = self.dual_slack(y).min_eigenvalue();
        Ok(dobj - (-min_eig).max(0.0) * trace_bound)
    }
}

impl SdpProblem {
    /// Solves the SDP from the standard cold start.
    ///
    /// # Errors
    ///
    /// [`SdpError::Numerical`] if the Schur complement stays singular after
    /// regularization or the iterates lose positive definiteness.
    pub fn solve(&self, opts: &SolverOptions) -> Result<SdpSolution, SdpError> {
        let t_total = Instant::now();
        let mut profile = SolverProfile::default();

        let dims = self.block_dims();
        let m = self.n_constraints();
        let n_tot: usize = dims.iter().sum();
        let b = self.rhs();
        let c_dense = self.dense_c();

        let b_norm = norm2(b);
        let b_max = b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        let c_frob = c_dense.frobenius_norm();
        let c_max = c_dense.max_abs();

        let xi_p = 10.0f64.max((n_tot as f64).sqrt() * (1.0 + b_max));
        let xi_d = 10.0f64.max((n_tot as f64).sqrt() * (1.0 + c_max));
        let mut x = BlockMat::scaled_identity(dims, xi_p);
        let mut z = BlockMat::scaled_identity(dims, xi_d);
        let mut y = vec![0.0; m];

        // The constraint index and the per-solve workspaces: everything the
        // iteration loop needs is allocated once, here.
        let index = ConstraintIndex::build(self.constraints(), dims);
        let mut ax = vec![0.0; m];
        let mut rp = vec![0.0; m];
        let mut rd = BlockMat::zeros(dims);
        let mut atbuf = BlockMat::zeros(dims);
        let mut zinv = BlockMat::zeros(dims);
        let mut zl = BlockMat::zeros(dims);
        let mut zlinv = BlockMat::zeros(dims);
        let mut vwork = BlockMat::zeros(dims);
        let mut sw = BlockMat::zeros(dims);
        let mut sw_dirty = vec![false; dims.len()];
        let mut mmat = RMat::zeros(m, m);
        let mut mchol = RMat::zeros(m, m);
        let mut base_g = BlockMat::zeros(dims);
        let mut gcorr = BlockMat::zeros(dims);
        let mut corr = BlockMat::zeros(dims);
        let mut tri_tmp = BlockMat::zeros(dims);
        let mut tri_out = BlockMat::zeros(dims);
        let mut ag = vec![0.0; m];
        let mut rhs = vec![0.0; m];
        let mut dy_a = vec![0.0; m];
        let mut dx_a = BlockMat::zeros(dims);
        let mut dz_a = BlockMat::zeros(dims);
        let mut dy = vec![0.0; m];
        let mut dx = BlockMat::zeros(dims);
        let mut dz = BlockMat::zeros(dims);

        let mut status = SdpStatus::MaxIterations;
        let mut iterations = opts.max_iterations;
        profile.setup_ms = ms_since(t_total);

        for iter in 0..opts.max_iterations {
            // Residuals and convergence metrics.
            let t_r = Instant::now();
            index.apply_a_into(&x, &mut ax);
            for ((r, bi), ai) in rp.iter_mut().zip(b).zip(&ax) {
                *r = bi - ai;
            }
            rd.copy_from(&c_dense);
            rd.axpy(-1.0, &z);
            self.apply_at_into(&y, &mut atbuf);
            rd.axpy(-1.0, &atbuf);

            let pobj = c_dense.dot(&x);
            let dobj: f64 = b.iter().zip(&y).map(|(a, b)| a * b).sum();
            let gap = (pobj - dobj).abs() / (1.0 + pobj.abs() + dobj.abs());
            let pinf = norm2(&rp) / (1.0 + b_norm);
            let dinf = rd.frobenius_norm() / (1.0 + c_frob);

            if gap < opts.tolerance && pinf < opts.tolerance && dinf < opts.tolerance {
                profile.residual_ms += ms_since(t_r);
                status = SdpStatus::Optimal;
                iterations = iter;
                break;
            }

            let mu = x.dot(&z) / n_tot as f64;
            profile.residual_ms += ms_since(t_r);
            if mu <= 0.0 || !mu.is_finite() {
                iterations = iter;
                break;
            }
            // Near-degenerate constraints (e.g. a (ρ̂, 0) diamond norm with a
            // pure ρ̂) can push the iterates onto the boundary before the
            // tolerance is met. The dual certificate from the current
            // iterate is still sound, so factorization failure terminates
            // the iteration rather than erroring out.
            let t_f = Instant::now();
            let z_ok = z.inverse_spd_into(&mut zl, &mut zlinv, &mut zinv);
            profile.factor_ms += ms_since(t_f);
            if !z_ok {
                iterations = iter;
                break;
            }

            // Schur complement M_kl = ⟨A_k, sym(X·A_l·Z⁻¹)⟩.
            let t_s = Instant::now();
            for l in 0..m {
                sym_sandwich_into(
                    &x,
                    &index.groups[l],
                    &zinv,
                    &mut vwork,
                    &mut sw,
                    &mut sw_dirty,
                );
                // `sw` is exactly +0.0 on every block outside constraint
                // l's support (fresh zeros or lazily re-zeroed), so a
                // block-disjoint pair's inner product is +0.0 whether
                // computed (±0.0 terms cannot move a +0.0 accumulator) or
                // skipped — writing the constant is bit-identical.
                let ml = index.masks[l];
                for k in 0..m {
                    let v = if index.masks[k] & ml == 0 {
                        0.0
                    } else {
                        index.dot(k, &sw)
                    };
                    mmat.set(k, l, v);
                }
            }
            mmat.symmetrize_in_place();
            profile.schur_ms += ms_since(t_s);

            let t_f = Instant::now();
            let m_ok =
                cholesky_with_regularization_into(&mmat, &mut mchol, &mut profile.loop_allocs);
            profile.factor_ms += ms_since(t_f);
            if !m_ok {
                iterations = iter;
                break;
            }

            // Predictor (σ = 0), from the shared base direction
            // g = −X − sym(X·Rd·Z⁻¹).
            let t_d = Instant::now();
            sym_triple_into(&x, &rd, &zinv, &mut tri_tmp, &mut base_g);
            base_g.scale(-1.0);
            base_g.axpy(-1.0, &x);
            solve_direction_into(
                self,
                &index,
                &mchol,
                &rp,
                &rd,
                &x,
                &zinv,
                &base_g,
                &mut ag,
                &mut rhs,
                &mut atbuf,
                &mut tri_tmp,
                &mut tri_out,
                &mut dy_a,
                &mut dx_a,
                &mut dz_a,
            );
            profile.direction_ms += ms_since(t_d);

            let t_st = Instant::now();
            let ap_a = x.max_step(&dx_a, 1.0).unwrap_or(0.0);
            let ad_a = z.max_step(&dz_a, 1.0).unwrap_or(0.0);
            profile.step_ms += ms_since(t_st);

            let t_d = Instant::now();
            let mu_aff = {
                let xz = x.dot(&z);
                let xdz = x.dot(&dz_a);
                let dxz = dx_a.dot(&z);
                let dxdz = dx_a.dot(&dz_a);
                (xz + ad_a * xdz + ap_a * dxz + ap_a * ad_a * dxdz) / n_tot as f64
            };
            let sigma = ((mu_aff / mu).powi(3)).clamp(0.0, 1.0);

            // Corrector with the Mehrotra second-order term
            // − sym(dXa·dZa·Z⁻¹).
            gcorr.copy_from(&base_g);
            gcorr.axpy(sigma * mu, &zinv);
            sym_triple_into(&dx_a, &dz_a, &zinv, &mut tri_tmp, &mut corr);
            corr.scale(-1.0);
            gcorr.axpy(1.0, &corr);
            solve_direction_into(
                self,
                &index,
                &mchol,
                &rp,
                &rd,
                &x,
                &zinv,
                &gcorr,
                &mut ag,
                &mut rhs,
                &mut atbuf,
                &mut tri_tmp,
                &mut tri_out,
                &mut dy,
                &mut dx,
                &mut dz,
            );
            profile.direction_ms += ms_since(t_d);

            let t_st = Instant::now();
            let gamma = if iter < 2 { 0.9 } else { 0.98 };
            let ap = x.max_step(&dx, gamma).unwrap_or(0.0);
            let ad = z.max_step(&dz, gamma).unwrap_or(0.0);
            if ap <= 1e-14 && ad <= 1e-14 {
                // No progress possible; return the current iterate.
                profile.step_ms += ms_since(t_st);
                iterations = iter;
                break;
            }

            x.axpy(ap, &dx);
            x.symmetrize();
            z.axpy(ad, &dz);
            z.symmetrize();
            for (yi, dyi) in y.iter_mut().zip(&dy) {
                *yi += ad * dyi;
            }
            profile.step_ms += ms_since(t_st);
        }

        let t_c = Instant::now();
        let pobj = c_dense.dot(&x);
        let dobj: f64 = b.iter().zip(&y).map(|(a, b)| a * b).sum();
        let ax = self.apply_a(&x);
        let rp: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        let mut rd = c_dense.clone();
        rd.axpy(-1.0, &z);
        rd.axpy(-1.0, &self.apply_at(&y));
        let exact_slack = self.dual_slack(&y);
        let exact_dual_slack_min_eig = exact_slack.min_eigenvalue();
        profile.cert_ms = ms_since(t_c);
        profile.total_ms = ms_since(t_total);

        Ok(SdpSolution {
            primal_objective: pobj,
            dual_objective: dobj,
            relative_gap: (pobj - dobj).abs() / (1.0 + pobj.abs() + dobj.abs()),
            primal_infeasibility: norm2(&rp) / (1.0 + b_norm),
            dual_infeasibility: rd.frobenius_norm() / (1.0 + c_frob),
            exact_dual_slack_min_eig,
            x,
            y,
            z,
            iterations,
            status,
            profile,
        })
    }
}

/// One constraint's sparse entries restricted to a single block, with the
/// set of touched row/column indices.
struct BlockGroup {
    /// Block index.
    block: usize,
    /// `(row, col ≥ row, value)` in original entry order.
    entries: Vec<(usize, usize, f64)>,
    /// Sorted, deduplicated row/column indices the entries touch — the only
    /// rows of the intermediate product that can be nonzero.
    rows: Vec<usize>,
}

/// Per-solve index of the constraint matrices: each constraint's sparse
/// entries grouped by block **once**, replacing the historical
/// per-constraint × per-block × per-iteration re-filtering (with a fresh
/// `Vec` each time) inside the Schur-complement sandwich.
struct ConstraintIndex {
    /// `groups[l]` holds constraint `l`'s non-empty block groups, in
    /// ascending block order (matching the old filter loop).
    groups: Vec<Vec<BlockGroup>>,
    /// `masks[l]` is a bitmask of the blocks constraint `l` touches
    /// (saturated to "all" past 64 blocks), for skipping Schur pairs whose
    /// supports are block-disjoint.
    masks: Vec<u64>,
    /// `dots[l]` is constraint `l`'s flattened inner-product program: runs
    /// of consecutive same-block entries, each entry a `(row-major offset,
    /// weight)` pair in original entry order, with the off-diagonal mirror
    /// factor pre-folded into the weight (`2.0 * v`, the exact product
    /// [`SparseSym::dot`] forms). Grouping into runs hoists the block
    /// lookup out of the per-entry loop without reordering a single term,
    /// so replaying the program is bit-identical to `SparseSym::dot` at a
    /// fraction of the per-entry overhead — this inner product runs m²
    /// times per interior-point iteration.
    dots: Vec<Vec<DotRun>>,
}

/// One maximal run of same-block terms inside a constraint's inner-product
/// program (a consecutive segment of the original entry list).
struct DotRun {
    /// Block every term in the run addresses.
    block: u32,
    /// `(row-major offset, weight)` per term, in original entry order.
    terms: Vec<(u32, f64)>,
}

impl ConstraintIndex {
    fn build(constraints: &[SparseSym], dims: &[usize]) -> Self {
        let n_blocks = dims.len();
        let groups: Vec<Vec<BlockGroup>> = constraints
            .iter()
            .map(|a| {
                let mut per_block: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); n_blocks];
                for &(b, r, c, v) in a.entries() {
                    per_block[b].push((r, c, v));
                }
                per_block
                    .into_iter()
                    .enumerate()
                    .filter(|(_, entries)| !entries.is_empty())
                    .map(|(block, entries)| {
                        let mut rows: Vec<usize> =
                            entries.iter().flat_map(|&(r, c, _)| [r, c]).collect();
                        rows.sort_unstable();
                        rows.dedup();
                        BlockGroup {
                            block,
                            entries,
                            rows,
                        }
                    })
                    .collect()
            })
            .collect();
        let masks = groups
            .iter()
            .map(|gs| {
                gs.iter().fold(
                    0u64,
                    |m, g| {
                        if g.block < 64 {
                            m | (1 << g.block)
                        } else {
                            !0
                        }
                    },
                )
            })
            .collect();
        let dots = constraints
            .iter()
            .map(|a| {
                let mut runs: Vec<DotRun> = Vec::new();
                for &(b, r, c, v) in a.entries() {
                    let off = (r * dims[b] + c) as u32;
                    let w = if r == c { v } else { 2.0 * v };
                    match runs.last_mut() {
                        Some(run) if run.block as usize == b => run.terms.push((off, w)),
                        _ => runs.push(DotRun {
                            block: b as u32,
                            terms: vec![(off, w)],
                        }),
                    }
                }
                runs
            })
            .collect();
        ConstraintIndex {
            groups,
            masks,
            dots,
        }
    }

    /// `⟨A_l, X⟩` via the flattened program — bit-identical to
    /// `constraints[l].dot(x)` (same products, same order).
    fn dot(&self, l: usize, x: &BlockMat) -> f64 {
        let mut acc = 0.0;
        for run in &self.dots[l] {
            let xb = x.block(run.block as usize).as_slice();
            for &(off, w) in &run.terms {
                acc += w * xb[off as usize];
            }
        }
        acc
    }

    /// `A(X)` via the flattened programs — bit-identical to
    /// [`SdpProblem::apply_a_into`].
    fn apply_a_into(&self, x: &BlockMat, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.dots.len()).map(|l| self.dot(l, x)));
    }
}

/// `sym(X·A·Z⁻¹)` for one indexed constraint, written into `out`.
///
/// Bit-exactness argument (the fixture-pinned hot kernel):
/// * `X` is bit-symmetric (every update is `axpy` + `symmetrize`), so the
///   historical strided column walk `xb.at(i, r)` reads the same bits as
///   the contiguous row slice `xb.row(r)[i]`; IEEE multiplication is
///   commutative, so `v·x == x·v` bitwise. We accumulate `V = (X·A)ᵀ`
///   row-wise, entry for entry in the old order.
/// * The old dense `U·Z⁻¹` product skipped `U[(i,k)] == 0.0` terms; rows of
///   `V` outside `group.rows` are exactly `+0.0`, so iterating only the
///   touched rows (ascending, like the old `k` loop) adds the same terms
///   in the same order to every output element.
/// * `±0.0` terms cannot change an accumulator that starts at `+0.0`
///   (`+0.0 + -0.0 == +0.0`), so the remaining zero-skips are free choices.
///
/// `out` blocks not touched by this constraint but dirtied by a previous
/// call are re-zeroed via `dirty`, so `out` always equals the full sandwich.
fn sym_sandwich_into(
    x: &BlockMat,
    groups: &[BlockGroup],
    zinv: &BlockMat,
    vwork: &mut BlockMat,
    out: &mut BlockMat,
    dirty: &mut [bool],
) {
    for (bl, d) in dirty.iter_mut().enumerate() {
        if *d && !groups.iter().any(|g| g.block == bl) {
            out.block_mut(bl).as_mut_slice().fill(0.0);
            *d = false;
        }
    }
    for g in groups {
        let bl = g.block;
        dirty[bl] = true;
        let xb = x.block(bl);
        let zb = zinv.block(bl);
        // V = (X·A)ᵀ: entry A[r][c] = v sends row r of X into row c of V
        // (and mirrors), touching only `g.rows`.
        let v = vwork.block_mut(bl);
        for &r in &g.rows {
            v.row_mut(r).fill(0.0);
        }
        for &(r, c, val) in &g.entries {
            axpy_slice(v.row_mut(c), val, xb.row(r));
            if r != c {
                axpy_slice(v.row_mut(r), val, xb.row(c));
            }
        }
        // T = Vᵀ·Z⁻¹ over the touched rows only, then symmetrize in place.
        // The k loop is outermost (was innermost) so V is read by
        // contiguous rows; each element T[(i,j)] still accumulates its
        // terms over ascending `k` with the same zero-skip, so the
        // per-element IEEE chain — and therefore every bit — is unchanged.
        let v = &*v;
        let t = out.block_mut(bl);
        t.as_mut_slice().fill(0.0);
        for &k in &g.rows {
            let vrow = v.row(k);
            let zrow = zb.row(k);
            for (i, &w) in vrow.iter().enumerate() {
                if w == 0.0 {
                    continue;
                }
                axpy_slice(t.row_mut(i), w, zrow);
            }
        }
        t.symmetrize_in_place();
    }
}

/// `sym(X·R·Z⁻¹)` for dense block matrices, using `tmp` for the
/// intermediate product and writing the result into `out`.
fn sym_triple_into(
    x: &BlockMat,
    r: &BlockMat,
    zinv: &BlockMat,
    tmp: &mut BlockMat,
    out: &mut BlockMat,
) {
    for bl in 0..x.n_blocks() {
        x.block(bl).mul_mat_into(r.block(bl), tmp.block_mut(bl));
        tmp.block(bl)
            .mul_mat_into(zinv.block(bl), out.block_mut(bl));
        out.block_mut(bl).symmetrize_in_place();
    }
}

/// One HKM direction solve into preallocated buffers: given the factored
/// Schur complement and a right-hand-side matrix `g`, computes
/// `(dy, dx, dz)` exactly as the historical closure did (the adjoint
/// `Aᵀ(dy)` is computed once and reused — it was computed twice before,
/// with identical bits).
#[allow(clippy::too_many_arguments)]
fn solve_direction_into(
    prob: &SdpProblem,
    index: &ConstraintIndex,
    mchol: &RMat,
    rp: &[f64],
    rd: &BlockMat,
    x: &BlockMat,
    zinv: &BlockMat,
    g: &BlockMat,
    ag: &mut Vec<f64>,
    rhs: &mut Vec<f64>,
    atbuf: &mut BlockMat,
    tri_tmp: &mut BlockMat,
    tri_out: &mut BlockMat,
    dy: &mut Vec<f64>,
    dx: &mut BlockMat,
    dz: &mut BlockMat,
) {
    index.apply_a_into(g, ag);
    rhs.clear();
    rhs.extend(rp.iter().zip(ag.iter()).map(|(r, a)| r - a));
    dy.clear();
    dy.extend_from_slice(rhs);
    mchol.solve_lower_in_place(dy);
    mchol.solve_lower_transpose_in_place(dy);
    dz.copy_from(rd);
    prob.apply_at_into(dy, atbuf);
    dz.axpy(-1.0, atbuf);
    dz.symmetrize();
    dx.copy_from(g);
    sym_triple_into(x, atbuf, zinv, tri_tmp, tri_out);
    dx.axpy(1.0, tri_out);
    dx.symmetrize();
}

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Cholesky with escalating diagonal regularization, written into a
/// reusable factor buffer. The happy path allocates nothing; each
/// regularization retry clones the Schur complement and bumps `allocs`.
fn cholesky_with_regularization_into(m: &RMat, out: &mut RMat, allocs: &mut u64) -> bool {
    if m.cholesky_into(out) {
        return true;
    }
    let scale = m.max_abs().max(1.0);
    let mut reg = 1e-12 * scale;
    for _ in 0..8 {
        *allocs += 1;
        let mut mm = m.clone();
        for i in 0..mm.rows() {
            mm[(i, i)] += reg;
        }
        if mm.cholesky_into(out) {
            return true;
        }
        reg *= 100.0;
    }
    false
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Convenience: build and solve the "max ⟨C, X⟩ s.t. tr X = 1, X ⪰ 0"
/// problem, whose optimum is the largest eigenvalue of `C`. Used as a
/// self-test and in benchmarks.
pub fn largest_eigenvalue_sdp(c: &RMat, opts: &SolverOptions) -> Result<f64, SdpError> {
    let n = c.rows();
    let mut cs = SparseSym::new();
    for i in 0..n {
        for j in i..n {
            // minimize ⟨−C, X⟩
            let v = -0.5 * (c.at(i, j) + c.at(j, i));
            if v != 0.0 {
                cs.push(0, i, j, v);
            }
        }
    }
    let mut tr = SparseSym::new();
    for i in 0..n {
        tr.push(0, i, i, 1.0);
    }
    let p = SdpProblem::new(vec![n], cs, vec![tr], vec![1.0]);
    let sol = p.solve(opts)?;
    Ok(-sol.primal_objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gleipnir_linalg::sym_eigvals;

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    #[test]
    fn doc_example_off_diagonal() {
        // min x₁₁ + x₂₂ s.t. x₁₂ = 1, X ⪰ 0  → 2.
        let mut c = SparseSym::new();
        c.push(0, 0, 0, 1.0).push(0, 1, 1, 1.0);
        let mut a = SparseSym::new();
        a.push(0, 0, 1, 0.5);
        let p = SdpProblem::new(vec![2], c, vec![a], vec![1.0]);
        let sol = p.solve(&opts()).unwrap();
        assert_eq!(sol.status, SdpStatus::Optimal);
        assert!(
            (sol.primal_objective - 2.0).abs() < 1e-6,
            "{}",
            sol.primal_objective
        );
        assert!((sol.dual_objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn largest_eigenvalue_matches_eigensolver() {
        let c = RMat::from_rows(&[
            vec![2.0, -1.0, 0.5],
            vec![-1.0, 1.0, 0.25],
            vec![0.5, 0.25, -3.0],
        ]);
        let lam_sdp = largest_eigenvalue_sdp(&c, &opts()).unwrap();
        let lam_eig = *sym_eigvals(&c).unwrap().last().unwrap();
        assert!((lam_sdp - lam_eig).abs() < 1e-6, "{lam_sdp} vs {lam_eig}");
    }

    #[test]
    fn linear_program_as_diagonal_blocks() {
        // min x₁ + 2x₂ s.t. x₁ + x₂ = 1, x ≥ 0 → 1 at (1, 0).
        let mut c = SparseSym::new();
        c.push(0, 0, 0, 1.0).push(1, 0, 0, 2.0);
        let mut a = SparseSym::new();
        a.push(0, 0, 0, 1.0).push(1, 0, 0, 1.0);
        let p = SdpProblem::new(vec![1, 1], c, vec![a], vec![1.0]);
        let sol = p.solve(&opts()).unwrap();
        assert!((sol.primal_objective - 1.0).abs() < 1e-6);
        assert!((sol.x.block(0).at(0, 0) - 1.0).abs() < 1e-5);
        assert!(sol.x.block(1).at(0, 0).abs() < 1e-5);
    }

    #[test]
    fn multi_block_problem() {
        // Two independent eigenvalue problems share one trace budget:
        // min ⟨−C₁,X₁⟩ + ⟨−C₂,X₂⟩ s.t. tr X₁ + tr X₂ = 1 →
        // −max(λmax(C₁), λmax(C₂)).
        let mut c = SparseSym::new();
        c.push(0, 0, 0, -1.0); // C1 = diag(1, …) λmax 1
        c.push(1, 0, 0, -3.0); // C2 has λmax 3
        c.push(1, 1, 1, -0.5);
        let mut tr = SparseSym::new();
        for b in 0..2 {
            for i in 0..2 {
                tr.push(b, i, i, 1.0);
            }
        }
        let p = SdpProblem::new(vec![2, 2], c, vec![tr], vec![1.0]);
        let sol = p.solve(&opts()).unwrap();
        assert!((sol.primal_objective + 3.0).abs() < 1e-6);
    }

    /// A small strictly feasible SDP.
    fn small_problem() -> SdpProblem {
        let mut c = SparseSym::new();
        c.push(0, 0, 0, 1.0).push(0, 1, 1, -1.0).push(0, 0, 2, 0.3);
        let mut a1 = SparseSym::new();
        a1.push(0, 0, 0, 1.0).push(0, 1, 1, 1.0).push(0, 2, 2, 1.0);
        let mut a2 = SparseSym::new();
        a2.push(0, 0, 1, 1.0);
        SdpProblem::new(vec![3], c, vec![a1, a2], vec![2.0, 0.25])
    }

    #[test]
    fn solution_is_feasible_and_gap_closed() {
        let sol = small_problem().solve(&opts()).unwrap();
        assert_eq!(sol.status, SdpStatus::Optimal);
        assert!(sol.primal_infeasibility < 1e-7);
        assert!(sol.dual_infeasibility < 1e-7);
        assert!(sol.relative_gap < 1e-7);
        // X ⪰ 0.
        assert!(sol.x.min_eigenvalue() > -1e-9);
        // Weak duality.
        assert!(sol.dual_objective <= sol.primal_objective + 1e-6);
    }

    #[test]
    fn certified_bound_is_sound() {
        // For the eigenvalue SDP the certificate must lower-bound the
        // optimum regardless of solver slop.
        let c = RMat::from_rows(&[vec![1.0, 2.0], vec![2.0, -1.0]]);
        let n = 2;
        let mut cs = SparseSym::new();
        for i in 0..n {
            for j in i..n {
                let v = -c.at(i, j);
                if v != 0.0 {
                    cs.push(0, i, j, v);
                }
            }
        }
        let mut tr = SparseSym::new();
        tr.push(0, 0, 0, 1.0).push(0, 1, 1, 1.0);
        let p = SdpProblem::new(vec![n], cs, vec![tr], vec![1.0]);
        let sol = p.solve(&opts()).unwrap();
        // Feasible set has tr(X) = 1.
        let lower = sol.certified_dual_bound(1.0);
        let lam_max = *sym_eigvals(&c).unwrap().last().unwrap();
        // primal min = −λmax; the certificate must not exceed it.
        assert!(lower <= -lam_max + 1e-9, "{lower} vs {}", -lam_max);
        assert!((lower + lam_max).abs() < 1e-5, "certificate far off");
    }

    #[test]
    fn near_degenerate_constraint() {
        // Force x₁₁ ≈ 0 on the boundary: min x₂₂ s.t. x₁₁ = 0? Slater fails
        // for x₁₁ = 0 exactly; use a tiny positive value as the caller
        // (gleipnir-core) does for δ = 0.
        let mut c = SparseSym::new();
        c.push(0, 1, 1, 1.0);
        let mut a1 = SparseSym::new();
        a1.push(0, 0, 0, 1.0);
        let mut a2 = SparseSym::new();
        a2.push(0, 0, 0, 1.0).push(0, 1, 1, 1.0);
        let p = SdpProblem::new(vec![2], c, vec![a1, a2], vec![1e-6, 1.0]);
        let sol = p.solve(&opts()).unwrap();
        assert!((sol.primal_objective - (1.0 - 1e-6)).abs() < 1e-5);
    }

    #[test]
    fn random_feasible_problems_close_gap() {
        let mut seed = 42u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        };
        for trial in 0..5 {
            let n = 4;
            // Random X0 ≻ 0 defines a feasible b.
            let g = RMat::from_fn(n, n, |_, _| rnd());
            let mut x0 = g.transpose().mul_mat(&g);
            for i in 0..n {
                x0[(i, i)] += 1.0;
            }
            let mut constraints = Vec::new();
            let mut b = Vec::new();
            // Random sparse constraints + trace pinning for boundedness.
            for k in 0..3 {
                let mut a = SparseSym::new();
                a.push(0, k % n, (k + 1) % n, rnd() + 0.5);
                a.push(0, k % n, k % n, rnd());
                b.push(a.dot(&{
                    let mut bm = BlockMat::zeros(&[n]);
                    *bm.block_mut(0) = x0.clone();
                    bm
                }));
                constraints.push(a);
            }
            let mut tr = SparseSym::new();
            for i in 0..n {
                tr.push(0, i, i, 1.0);
            }
            b.push(x0.trace());
            constraints.push(tr);
            let mut c = SparseSym::new();
            for i in 0..n {
                for j in i..n {
                    let v = rnd();
                    if v != 0.0 {
                        c.push(0, i, j, v);
                    }
                }
            }
            let p = SdpProblem::new(vec![n], c, constraints, b);
            let sol = p.solve(&opts()).unwrap();
            assert!(
                sol.relative_gap < 1e-6 && sol.primal_infeasibility < 1e-6,
                "trial {trial}: gap {} pinf {}",
                sol.relative_gap,
                sol.primal_infeasibility
            );
        }
    }

    /// Scalar reimplementation of the historical (pre-index) sandwich:
    /// per block, accumulate `U = X·A` entry-by-entry in original entry
    /// order (strided column writes, as the old kernel did), then the
    /// dense `U·Z⁻¹` product over **all** `k` with the old `U[(i,k)] == 0`
    /// skip, then symmetrize. `sym_sandwich_into` must match it bitwise.
    fn reference_sandwich(x: &BlockMat, a: &SparseSym, zinv: &BlockMat) -> BlockMat {
        let dims = x.dims().to_vec();
        let mut out = BlockMat::zeros(&dims);
        for (bl, &dim) in dims.iter().enumerate() {
            let entries: Vec<(usize, usize, f64)> = a
                .entries()
                .iter()
                .filter(|&&(b, _, _, _)| b == bl)
                .map(|&(_, r, c, v)| (r, c, v))
                .collect();
            if entries.is_empty() {
                continue;
            }
            let xb = x.block(bl);
            let zb = zinv.block(bl);
            let mut u = RMat::zeros(dim, dim);
            for &(r, c, v) in &entries {
                for i in 0..dim {
                    let w = u.at(i, c) + v * xb.at(i, r);
                    u.set(i, c, w);
                }
                if r != c {
                    for i in 0..dim {
                        let w = u.at(i, r) + v * xb.at(i, c);
                        u.set(i, r, w);
                    }
                }
            }
            let mut t = RMat::zeros(dim, dim);
            for i in 0..dim {
                for k in 0..dim {
                    let w = u.at(i, k);
                    if w == 0.0 {
                        continue;
                    }
                    for j in 0..dim {
                        let s = t.at(i, j) + w * zb.at(k, j);
                        t.set(i, j, s);
                    }
                }
            }
            *out.block_mut(bl) = t.symmetrize();
        }
        out
    }

    #[test]
    fn indexed_sandwich_matches_historical_kernel_bitwise() {
        let mut seed = 7u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        };
        let dims = [3usize, 2, 1];
        // X must be bit-symmetric — as it is in the solver, where every X
        // update ends in `symmetrize` — for the row/column read swap to be
        // a bit-level no-op.
        let mut x = BlockMat::zeros(&dims);
        let mut zinv = BlockMat::zeros(&dims);
        for (bl, &dim) in dims.iter().enumerate() {
            *x.block_mut(bl) = RMat::from_fn(dim, dim, |_, _| rnd()).symmetrize();
            *zinv.block_mut(bl) = RMat::from_fn(dim, dim, |_, _| rnd()).symmetrize();
        }
        // Constraints with deliberately unsorted entries, diagonal and
        // off-diagonal, some blocks untouched (exercises the dirty-block
        // re-zeroing between consecutive sandwiches).
        let mut a1 = SparseSym::new();
        a1.push(0, 1, 2, 0.7).push(0, 0, 0, -1.3).push(2, 0, 0, 0.4);
        let mut a2 = SparseSym::new();
        a2.push(1, 0, 1, 2.0).push(1, 1, 1, -0.9);
        let mut a3 = SparseSym::new();
        a3.push(0, 2, 2, 1.1).push(1, 0, 0, 0.6).push(2, 0, 0, -2.2);
        let constraints = [a1, a2, a3];

        let index = ConstraintIndex::build(&constraints, &dims);
        let mut vwork = BlockMat::zeros(&dims);
        let mut swork = BlockMat::zeros(&dims);
        let mut dirty = vec![false; dims.len()];
        for (l, a) in constraints.iter().enumerate() {
            sym_sandwich_into(
                &x,
                &index.groups[l],
                &zinv,
                &mut vwork,
                &mut swork,
                &mut dirty,
            );
            let want = reference_sandwich(&x, a, &zinv);
            for bl in 0..dims.len() {
                let got = swork.block(bl);
                let exp = want.block(bl);
                for (g, w) in got.as_slice().iter().zip(exp.as_slice()) {
                    assert!(
                        g.to_bits() == w.to_bits(),
                        "constraint {l} block {bl}: {g:e} vs {w:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn solver_profile_phases_sum_to_total() {
        let sol = small_problem().solve(&opts()).unwrap();
        let p = sol.profile;
        assert!(sol.iterations > 0, "toy problem should iterate");
        assert!(p.total_ms > 0.0, "total wall must be measured");
        assert!(p.phase_ms() > 0.0, "phase walls must be measured");
        // The phases are disjoint sub-spans of the solve, so their sum is
        // bounded by the total (the slack is timer overhead between spans).
        assert!(
            p.phase_ms() <= p.total_ms,
            "phases {} ms exceed total {} ms",
            p.phase_ms(),
            p.total_ms
        );
        // Most of the solve must be accounted for, not lost between timers.
        assert!(
            p.phase_ms() >= 0.5 * p.total_ms,
            "phases {} ms cover too little of total {} ms",
            p.phase_ms(),
            p.total_ms
        );
        for (name, v) in [
            ("setup", p.setup_ms),
            ("residual", p.residual_ms),
            ("schur", p.schur_ms),
            ("factor", p.factor_ms),
            ("direction", p.direction_ms),
            ("step", p.step_ms),
            ("cert", p.cert_ms),
        ] {
            assert!(v >= 0.0, "{name} negative: {v}");
        }
        assert_eq!(p.loop_allocs, 0, "well-conditioned solve must not retry");
    }

    #[test]
    fn solver_profile_add_accumulates_every_field() {
        let mut a = SolverProfile {
            setup_ms: 1.0,
            residual_ms: 2.0,
            schur_ms: 3.0,
            factor_ms: 4.0,
            direction_ms: 5.0,
            step_ms: 6.0,
            cert_ms: 7.0,
            total_ms: 28.0,
            loop_allocs: 2,
        };
        let b = a;
        a.add(&b);
        assert_eq!(a.schur_ms, 6.0);
        assert_eq!(a.total_ms, 56.0);
        assert_eq!(a.loop_allocs, 4);
        assert_eq!(a.phase_ms(), 2.0 * b.phase_ms());
    }
}
