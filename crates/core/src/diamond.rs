//! Diamond-norm computations (paper §6).
//!
//! All three metrics reduce to the same semidefinite program (Watrous'
//! formulation, extended with one linear constraint):
//!
//! ```text
//! maximize   tr(J(Φ)·W)
//! subject to I ⊗ σ ⪰ W ⪰ 0, σ ⪰ 0, tr σ = 1,
//!            [tr(Q·σ) ≥ q₀]                    (optional)
//! ```
//!
//! * **unconstrained** diamond norm — no optional constraint;
//! * **(Q, λ)**-diamond norm (LQR [24]) — `tr(Qσ) ≥ λ`;
//! * **(ρ̂, δ)**-diamond norm (Theorem 6.1) — `Q = ρ′` (the local density
//!   matrix of ρ̂ on the gate's qubits) and `q₀ = ‖ρ′‖_F(‖ρ′‖_F − δ)`.
//!
//! The value reported is `½‖Φ‖` (the paper's convention: a bit-flip gate
//! with flip probability `p` has error exactly `p`).
//!
//! ## Input-state transpose
//!
//! In the Choi-based SDP, the variable `σ` is the *transpose* of the
//! reduced input state of the maximizing input (for `|ψ⟩ = (I⊗B)|Ω⟩` the
//! input's reduced density is `(B†B)ᵀ = σᵀ`). A constraint on the physical
//! input state `tr(Q_phys·ρ_in) ≥ q₀` therefore enters the SDP as
//! `tr(Q_physᵀ·σ) ≥ q₀`. The paper elides this detail; getting it wrong is
//! unsound for states with complex off-diagonal structure, and the
//! test-suite pins it down with Y-rotated states.
//!
//! ## Soundness
//!
//! The reported bound is the weak-duality certificate
//! [`gleipnir_sdp::SdpSolution::certified_dual_bound`], valid even with
//! residual dual infeasibility — not the primal estimate.

use gleipnir_linalg::{herm_to_real_sym, CMat};
use gleipnir_noise::{choi_of_unitary, Channel};
use gleipnir_sdp::{SdpError, SdpProblem, SdpStatus, SolverOptions, SolverProfile, SparseSym};
use std::fmt;

/// The outcome of a diamond-norm SDP.
#[derive(Clone, Debug)]
pub struct DiamondResult {
    /// The sound upper bound on `½‖Φ‖` (dual certificate).
    pub bound: f64,
    /// The primal estimate (a lower bound on the true value up to primal
    /// infeasibility); `bound − estimate` gauges solver quality.
    pub estimate: f64,
    /// Iterations the interior-point solver used.
    pub iterations: usize,
    /// Whether the solver reached its tolerance.
    pub converged: bool,
    /// The dual vector `y` behind `bound` — the portable half of the
    /// weak-duality certificate. Together with the (reconstructible) SDP it
    /// lets `bound` be re-verified later without re-solving
    /// ([`gleipnir_sdp::SdpProblem::certified_dual_bound_for`]); the
    /// persistent certificate store re-checks exactly this on load.
    pub dual: Vec<f64>,
    /// Per-phase wall-time profile of the interior-point solve behind this
    /// result (zeroed for closed-form answers).
    pub profile: SolverProfile,
}

impl fmt::Display for DiamondResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.6e} (primal {:.6e}, {} iters)",
            self.bound, self.estimate, self.iterations
        )
    }
}

/// Errors from diamond-norm computations.
#[derive(Clone, Debug, PartialEq)]
pub enum DiamondError {
    /// The ideal unitary and the noisy channel act on different dimensions.
    DimensionMismatch {
        /// Ideal dimension.
        ideal: usize,
        /// Noisy-channel dimension.
        noisy: usize,
    },
    /// The SDP solver failed.
    Solver(SdpError),
}

impl fmt::Display for DiamondError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiamondError::DimensionMismatch { ideal, noisy } => {
                write!(f, "ideal dim {ideal} != noisy dim {noisy}")
            }
            DiamondError::Solver(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DiamondError {}

impl From<SdpError> for DiamondError {
    fn from(e: SdpError) -> Self {
        DiamondError::Solver(e)
    }
}

/// An optional linear constraint `tr(Q_phys · ρ_in) ≥ q₀` on the input
/// state of the maximization.
#[derive(Clone, Debug)]
enum InputConstraint {
    None,
    InnerProduct { q_phys: CMat, q0: f64 },
}

/// `½‖U − E‖⋄` — the unconstrained (worst-case) diamond norm distance
/// between an ideal unitary and a noisy channel.
///
/// # Errors
///
/// [`DiamondError`] on dimension mismatch or solver failure.
///
/// # Examples
///
/// ```
/// use gleipnir_circuit::Gate;
/// use gleipnir_core::unconstrained_diamond;
/// use gleipnir_noise::{Channel, NoiseModel};
/// use gleipnir_sdp::SolverOptions;
///
/// // The paper's baseline derivation: a bit-flipped gate is exactly p away.
/// let p = 1e-3;
/// let noisy = Channel::bit_flip(p).after_unitary(&Gate::H.matrix());
/// let r = unconstrained_diamond(&Gate::H.matrix(), &noisy, &SolverOptions::default())?;
/// assert!((r.bound - p).abs() < 1e-6);
/// # Ok::<(), gleipnir_core::DiamondError>(())
/// ```
pub fn unconstrained_diamond(
    ideal: &CMat,
    noisy: &Channel,
    opts: &SolverOptions,
) -> Result<DiamondResult, DiamondError> {
    solve_diamond(ideal, noisy, InputConstraint::None, opts)
}

/// The `(Q, λ)`-diamond norm of LQR \[24\]: the maximization is restricted to
/// input states with `tr(Q·ρ_in) ≥ λ`.
///
/// # Errors
///
/// [`DiamondError`] on dimension mismatch or solver failure.
pub fn q_lambda_diamond(
    ideal: &CMat,
    noisy: &Channel,
    q: &CMat,
    lambda: f64,
    opts: &SolverOptions,
) -> Result<DiamondResult, DiamondError> {
    solve_diamond(
        ideal,
        noisy,
        InputConstraint::InnerProduct {
            q_phys: q.clone(),
            q0: lambda,
        },
        opts,
    )
}

/// The `(ρ̂, δ)`-diamond norm (Theorem 6.1): inputs are constrained to lie
/// within full trace-norm distance `δ` of a state whose local density on
/// the gate's qubits is `rho_prime`.
///
/// `δ = 0` is handled by a tiny interior relaxation (`δ_eff = 1e-9`), which
/// only loosens the constraint and therefore keeps the bound sound while
/// restoring Slater's condition for the interior-point solver.
///
/// # Errors
///
/// [`DiamondError`] on dimension mismatch or solver failure.
pub fn rho_delta_diamond(
    ideal: &CMat,
    noisy: &Channel,
    rho_prime: &CMat,
    delta: f64,
    opts: &SolverOptions,
) -> Result<DiamondResult, DiamondError> {
    let (problem, trace_bound) = rho_delta_problem(ideal, noisy, rho_prime, delta)?;
    solve_problem(&problem, trace_bound, opts)
}

/// Builds the `(ρ̂, δ)`-diamond SDP without solving it — the
/// deterministic problem construction shared by [`rho_delta_diamond`] and
/// the persistent certificate store's load-time re-verification (which
/// rebuilds the *identical* problem from a cache key and re-checks a
/// stored dual vector against it). Returns the problem plus the trace
/// bound the certificate is valid under.
pub(crate) fn rho_delta_problem(
    ideal: &CMat,
    noisy: &Channel,
    rho_prime: &CMat,
    delta: f64,
) -> Result<(SdpProblem, f64), DiamondError> {
    let frob = rho_prime.frobenius_norm();
    let delta_eff = delta.max(1e-9);
    let q0 = frob * (frob - delta_eff);
    if q0 <= 1e-12 {
        // Vacuous constraint (δ ≥ ‖ρ′‖_F): recover the unconstrained norm.
        return unconstrained_problem(ideal, noisy);
    }
    diamond_problem(
        ideal,
        noisy,
        InputConstraint::InnerProduct {
            q_phys: rho_prime.clone(),
            q0,
        },
    )
}

/// Builds the unconstrained diamond SDP without solving it (see
/// [`rho_delta_problem`]).
pub(crate) fn unconstrained_problem(
    ideal: &CMat,
    noisy: &Channel,
) -> Result<(SdpProblem, f64), DiamondError> {
    diamond_problem(ideal, noisy, InputConstraint::None)
}

/// Pushes the upper triangle of the real embedding `E(Q)` of a complex
/// (Hermitian) matrix into a sparse constraint block, scaled by `scale`.
fn push_embedding(sparse: &mut SparseSym, block: usize, q: &CMat, scale: f64) {
    let d = q.rows();
    for i in 0..d {
        for j in i..d {
            let re = scale * q.at(i, j).re;
            if re != 0.0 {
                sparse.push(block, i, j, re);
                sparse.push(block, d + i, d + j, re);
            }
        }
    }
    for i in 0..d {
        for j in 0..d {
            let im = q.at(i, j).im;
            if im != 0.0 {
                // E(Q) upper-right block is −Im(Q); position (i, d+j) is
                // always in the upper triangle.
                sparse.push(block, i, d + j, -scale * im);
            }
        }
    }
}

fn solve_diamond(
    ideal: &CMat,
    noisy: &Channel,
    constraint: InputConstraint,
    opts: &SolverOptions,
) -> Result<DiamondResult, DiamondError> {
    let (problem, trace_bound) = diamond_problem(ideal, noisy, constraint)?;
    solve_problem(&problem, trace_bound, opts)
}

/// Poses the (optionally input-constrained) diamond-norm SDP. Problem
/// construction is separated from solving so that load-time certificate
/// re-verification can rebuild the exact problem a stored dual vector was
/// solved against.
fn diamond_problem(
    ideal: &CMat,
    noisy: &Channel,
    constraint: InputConstraint,
) -> Result<(SdpProblem, f64), DiamondError> {
    let d = ideal.rows();
    if noisy.dim() != d {
        return Err(DiamondError::DimensionMismatch {
            ideal: d,
            noisy: noisy.dim(),
        });
    }
    // J(Φ) = J(noisy) − J(ideal), Hermitian.
    let j = (&noisy.choi() - &choi_of_unitary(ideal)).hermitize();
    let dd = d * d; // complex dimension of W
    let has_ineq = matches!(constraint, InputConstraint::InnerProduct { .. });

    // Blocks: W_r (2dd), S_r (2dd), σ_r (2d), [u (1)].
    let mut dims = vec![2 * dd, 2 * dd, 2 * d];
    if has_ineq {
        dims.push(1);
    }

    // Objective: minimize ⟨−½E(J), W_r⟩ = −tr(J·W).
    let mut c = SparseSym::new();
    push_embedding(&mut c, 0, &j, -0.5);

    let mut constraints: Vec<SparseSym> = Vec::new();
    let mut b: Vec<f64> = Vec::new();

    // Hermitian-basis equalities: tr(B_k W) + tr(B_k S) − tr(Tr_out(B_k) σ) = 0.
    // Index p = (o, i) with output-major packing (o = p / d, i = p % d).
    // Diagonal basis elements B = E_pp.
    for p in 0..dd {
        let i = p % d;
        let mut a = SparseSym::new();
        for block in [0usize, 1] {
            a.push(block, p, p, 1.0);
            a.push(block, dd + p, dd + p, 1.0);
        }
        // Tr_out(E_pp) = E_ii.
        a.push(2, i, i, -1.0);
        a.push(2, d + i, d + i, -1.0);
        constraints.push(a);
        b.push(0.0);
    }
    // Off-diagonal basis elements, real and imaginary parts.
    for p in 0..dd {
        for q in p + 1..dd {
            let (op, ip) = (p / d, p % d);
            let (oq, iq) = (q / d, q % d);
            let same_out = op == oq;
            // Real part: B = E_pq + E_qp.
            let mut a = SparseSym::new();
            for block in [0usize, 1] {
                a.push(block, p, q, 1.0);
                a.push(block, dd + p, dd + q, 1.0);
            }
            if same_out {
                // Tr_out(B) = E_{ip,iq} + E_{iq,ip} (ip ≠ iq here since p ≠ q).
                a.push(2, ip, iq, -1.0);
                a.push(2, d + ip, d + iq, -1.0);
            }
            constraints.push(a);
            b.push(0.0);
            // Imaginary part: B = i(E_pq − E_qp) → E(B) has −Im(B) = −(E_pq − E_qp)
            // in the upper-right block.
            let mut a = SparseSym::new();
            for block in [0usize, 1] {
                a.push(block, p, dd + q, -1.0);
                a.push(block, q, dd + p, 1.0);
            }
            if same_out {
                a.push(2, ip, d + iq, 1.0);
                a.push(2, iq, d + ip, -1.0);
            }
            constraints.push(a);
            b.push(0.0);
        }
    }

    // tr σ = 1 (real embedding doubles the trace).
    let mut tr = SparseSym::new();
    for i in 0..2 * d {
        tr.push(2, i, i, 1.0);
    }
    constraints.push(tr);
    b.push(2.0);

    // Optional inner-product constraint. The SDP variable σ is the
    // transpose of the physical input state, so the physical Q enters
    // transposed (= conjugated, for Hermitian Q).
    if let InputConstraint::InnerProduct { q_phys, q0 } = &constraint {
        assert_eq!(q_phys.rows(), d, "constraint matrix dimension mismatch");
        let q_sdp = q_phys.transpose();
        let mut a = SparseSym::new();
        push_embedding(&mut a, 2, &q_sdp, 1.0);
        a.push(3, 0, 0, -2.0);
        constraints.push(a);
        b.push(2.0 * q0);
    }

    let problem = SdpProblem::new(dims, c, constraints, b);
    // Trace bound over the feasible set (real embedding doubles traces):
    // tr(W_r) ≤ 2d, tr(S_r) ≤ 2d, tr(σ_r) = 2, u ≤ ‖Q‖_F + |q₀| ≤ 2.
    let trace_bound = 4.0 * d as f64 + 4.0;
    Ok((problem, trace_bound))
}

/// Solves a posed diamond SDP and converts the weak-duality certificate
/// into a sound diamond-norm upper bound, carrying the dual vector along
/// so the certificate stays re-checkable.
fn solve_problem(
    problem: &SdpProblem,
    trace_bound: f64,
    opts: &SolverOptions,
) -> Result<DiamondResult, DiamondError> {
    let sol = problem.solve(opts)?;
    let bound = (-sol.certified_dual_bound(trace_bound)).max(0.0);
    let estimate = (-sol.primal_objective).max(0.0);
    Ok(DiamondResult {
        bound,
        estimate,
        iterations: sol.iterations,
        converged: sol.status == SdpStatus::Optimal,
        dual: sol.y,
        profile: sol.profile,
    })
}

/// Sanity helper used by tests and benches: a brute-force **lower** bound on
/// `½‖U − E‖⋄` obtained by sampling pure inputs `(I⊗B)|Ω⟩` on the doubled
/// space and taking the best trace distance. The SDP bound must dominate
/// every sample.
pub fn sampled_diamond_lower_bound(
    ideal: &CMat,
    noisy: &Channel,
    samples: usize,
    seed: u64,
) -> f64 {
    use gleipnir_linalg::{c64, trace_distance, C64};
    let d = ideal.rows();
    let mut best = 0.0f64;
    let mut s = seed.max(1);
    let mut rnd = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
    };
    for _ in 0..samples {
        // Random B (input correlation with the reference system).
        let bmat = CMat::from_fn(d, d, |_, _| c64(rnd(), rnd()));
        // |ψ⟩ = (I⊗B)|Ω⟩ has amplitudes ψ[(i,j)] = B[j][i] (output-major).
        let mut psi = vec![C64::ZERO; d * d];
        for i in 0..d {
            for jj in 0..d {
                psi[i * d + jj] = bmat.at(jj, i);
            }
        }
        let norm: f64 = psi.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if norm < 1e-12 {
            continue;
        }
        for z in &mut psi {
            *z = z.scale(1.0 / norm);
        }
        let rho = CMat::from_fn(d * d, d * d, |r, c| psi[r].mul_conj(psi[c]));
        // Apply (Φ ⊗ I) to the first factor for both channels.
        let ideal_out = apply_on_first_factor(&|e| ideal.mul_mat(e).mul_adjoint(ideal), &rho, d);
        let noisy_out = apply_on_first_factor(&|e| noisy.apply(e), &rho, d);
        if let Ok(t) = trace_distance(&noisy_out, &ideal_out) {
            best = best.max(t);
        }
    }
    best
}

/// Applies a map on the first tensor factor of a `d·d`-dimensional state.
fn apply_on_first_factor(map: &dyn Fn(&CMat) -> CMat, rho: &CMat, d: usize) -> CMat {
    // rho indexed by (a, x; b, y) with first factor a,b. Write
    // rho = Σ_{x,y} M_{xy} ⊗ E_xy… easier: for each reference pair (x, y),
    // extract the d×d block, apply the map, and reassemble.
    let mut out = CMat::zeros(d * d, d * d);
    for x in 0..d {
        for y in 0..d {
            let block = CMat::from_fn(d, d, |a, bb| rho.at(a * d + x, bb * d + y));
            let mapped = map(&block);
            for a in 0..d {
                for bb in 0..d {
                    out.set(a * d + x, bb * d + y, mapped.at(a, bb));
                }
            }
        }
    }
    out
}

/// Convenience re-export target: the real-symmetric embedding used when
/// assembling objectives (exposed for the ablation benches).
pub fn embed_choi(j: &CMat) -> gleipnir_linalg::RMat {
    herm_to_real_sym(j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gleipnir_circuit::Gate;
    use gleipnir_linalg::{c64, C64};

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    fn ket_rho(k: usize, d: usize) -> CMat {
        let mut m = CMat::zeros(d, d);
        m.set(k, k, C64::ONE);
        m
    }

    #[test]
    fn bit_flip_unconstrained_is_p() {
        for p in [1e-4, 1e-2, 0.3] {
            let noisy = Channel::bit_flip(p).after_unitary(&CMat::identity(2));
            let r = unconstrained_diamond(&CMat::identity(2), &noisy, &opts()).unwrap();
            assert!((r.bound - p).abs() < 1e-5 * (1.0 + p), "p = {p}: {r}");
            assert!(r.converged);
        }
    }

    #[test]
    fn depolarizing_unconstrained_is_p() {
        // Pauli channel: ½‖Φ − I‖⋄ = Σ_{σ≠I} p_σ = p.
        let p = 0.12;
        let noisy = Channel::depolarizing(p).after_unitary(&CMat::identity(2));
        let r = unconstrained_diamond(&CMat::identity(2), &noisy, &opts()).unwrap();
        assert!((r.bound - p).abs() < 1e-5, "{r}");
    }

    #[test]
    fn noise_after_unitary_is_unitarily_invariant() {
        // ‖Φ∘U − U‖⋄ = ‖Φ − I‖⋄.
        let p = 0.05;
        let noisy = Channel::bit_flip(p).after_unitary(&Gate::H.matrix());
        let r = unconstrained_diamond(&Gate::H.matrix(), &noisy, &opts()).unwrap();
        assert!((r.bound - p).abs() < 1e-5, "{r}");
    }

    #[test]
    fn two_qubit_bit_flip_first_is_p() {
        let p = 1e-3;
        let noisy = Channel::bit_flip_first_of_two(p).after_unitary(&Gate::Cnot.matrix());
        let r = unconstrained_diamond(&Gate::Cnot.matrix(), &noisy, &opts()).unwrap();
        assert!((r.bound - p).abs() < 1e-5, "{r}");
    }

    #[test]
    fn plus_state_kills_bit_flip_error() {
        // The paper's headline effect: with the input pinned to |+⟩⟨+|, the
        // bit-flip noise after the gate is invisible.
        let p = 1e-2;
        let plus = CMat::from_fn(2, 2, |_, _| c64(0.5, 0.0));
        let noisy = Channel::bit_flip(p).after_unitary(&CMat::identity(2));
        let r = rho_delta_diamond(&CMat::identity(2), &noisy, &plus, 0.0, &opts()).unwrap();
        assert!(r.bound < 1e-4, "expected ≈ 0, got {r}");
    }

    #[test]
    fn maximally_mixed_constraint_is_vacuous() {
        // ρ′ = I/2 satisfies tr(ρ′ρ) = ½ ≥ ‖ρ′‖_F² = ½ for every ρ, so the
        // constrained norm equals the unconstrained one.
        let p = 2e-2;
        let mixed = CMat::identity(2).scaled(c64(0.5, 0.0));
        let noisy = Channel::bit_flip(p).after_unitary(&CMat::identity(2));
        let r = rho_delta_diamond(&CMat::identity(2), &noisy, &mixed, 0.0, &opts()).unwrap();
        assert!((r.bound - p).abs() < 1e-4, "{r}");
    }

    #[test]
    fn zero_state_sees_full_bit_flip() {
        // |0⟩⟨0| is maximally sensitive to X noise.
        let p = 1e-2;
        let noisy = Channel::bit_flip(p).after_unitary(&CMat::identity(2));
        let r =
            rho_delta_diamond(&CMat::identity(2), &noisy, &ket_rho(0, 2), 0.0, &opts()).unwrap();
        assert!((r.bound - p).abs() < 1e-4, "{r}");
    }

    #[test]
    fn monotone_in_delta() {
        let p = 1e-2;
        let plus = CMat::from_fn(2, 2, |_, _| c64(0.5, 0.0));
        let noisy = Channel::bit_flip(p).after_unitary(&CMat::identity(2));
        let mut last = 0.0;
        for delta in [0.0, 0.05, 0.2, 0.8, 2.0] {
            let r = rho_delta_diamond(&CMat::identity(2), &noisy, &plus, delta, &opts()).unwrap();
            assert!(r.bound >= last - 1e-6, "not monotone at δ = {delta}");
            last = r.bound;
        }
        // Fully relaxed recovers the unconstrained value.
        assert!((last - p).abs() < 1e-4);
    }

    #[test]
    fn constrained_never_exceeds_unconstrained() {
        let noisy = Channel::amplitude_damping(0.2).after_unitary(&Gate::H.matrix());
        let un = unconstrained_diamond(&Gate::H.matrix(), &noisy, &opts()).unwrap();
        for rho in [
            ket_rho(0, 2),
            ket_rho(1, 2),
            CMat::identity(2).scaled(c64(0.5, 0.0)),
        ] {
            let c = rho_delta_diamond(&Gate::H.matrix(), &noisy, &rho, 0.1, &opts()).unwrap();
            assert!(c.bound <= un.bound + 1e-5, "{} > {}", c.bound, un.bound);
        }
    }

    #[test]
    fn sdp_dominates_sampled_inputs() {
        // The SDP upper bound must dominate every sampled feasible input of
        // the unconstrained problem.
        for (gate, ch) in [
            (Gate::H.matrix(), Channel::amplitude_damping(0.25)),
            (Gate::S.matrix(), Channel::phase_flip(0.15)),
            (Gate::Ry(0.7).matrix(), Channel::bit_flip(0.2)),
        ] {
            let noisy = ch.after_unitary(&gate);
            let r = unconstrained_diamond(&gate, &noisy, &opts()).unwrap();
            let sampled = sampled_diamond_lower_bound(&gate, &noisy, 60, 7);
            assert!(
                r.bound >= sampled - 1e-7,
                "SDP {} below sample {}",
                r.bound,
                sampled
            );
            // And it should not be wildly loose for these small channels.
            assert!(
                r.bound <= 1.2 * sampled + 0.05,
                "SDP {} ≫ sample {}",
                r.bound,
                sampled
            );
        }
    }

    #[test]
    fn transpose_correction_is_sound_for_complex_states() {
        // A state with complex off-diagonals: ρ′ from Ry·S applied to |0⟩.
        let u = Gate::S.matrix().mul_mat(&Gate::Ry(1.1).matrix());
        let psi_rho = u.mul_mat(&ket_rho(0, 2)).mul_adjoint(&u);
        let p = 0.15;
        let noisy = Channel::bit_flip(p).after_unitary(&CMat::identity(2));
        let r = rho_delta_diamond(&CMat::identity(2), &noisy, &psi_rho, 0.0, &opts()).unwrap();
        // Brute-force: the only physical input with local density exactly
        // ψ (pure!) is ψ ⊗ anything, so the true value is the trace
        // distance on ψ itself.
        let out_ideal = psi_rho.clone();
        let out_noisy = Channel::bit_flip(p).apply(&psi_rho);
        let truth = gleipnir_linalg::trace_distance(&out_noisy, &out_ideal).unwrap();
        assert!(r.bound >= truth - 1e-6, "unsound: {} < {truth}", r.bound);
        assert!(r.bound <= truth + 1e-3, "too loose: {} vs {truth}", r.bound);
    }

    #[test]
    fn q_lambda_interface_matches_rho_delta() {
        // (ρ̂, δ) reduces to (Q, λ) with Q = ρ′, λ = ‖ρ′‖_F(‖ρ′‖_F − δ).
        let plus = CMat::from_fn(2, 2, |_, _| c64(0.5, 0.0));
        let delta = 0.1;
        let frob = plus.frobenius_norm();
        let noisy = Channel::bit_flip(0.05).after_unitary(&CMat::identity(2));
        let a = rho_delta_diamond(&CMat::identity(2), &noisy, &plus, delta, &opts()).unwrap();
        let b = q_lambda_diamond(
            &CMat::identity(2),
            &noisy,
            &plus,
            frob * (frob - delta),
            &opts(),
        )
        .unwrap();
        assert!((a.bound - b.bound).abs() < 1e-6);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let noisy = Channel::bit_flip(0.1);
        let err = unconstrained_diamond(&CMat::identity(4), &noisy, &opts()).unwrap_err();
        assert!(matches!(
            err,
            DiamondError::DimensionMismatch { ideal: 4, noisy: 2 }
        ));
    }
}
