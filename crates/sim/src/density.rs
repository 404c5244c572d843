//! Dense density-matrix simulation with exact measurement semantics.
//!
//! This simulator implements the paper's denotational semantics (Fig. 3)
//! directly: gates act as `ρ ↦ UρU†` and measurement statements map the
//! state to the classical mixture of both collapsed branches. It also
//! applies Kraus channels, which makes it the exact noisy-execution oracle
//! used by the LQR-with-full-simulation baseline (Table 2) and the
//! "measured error" substitute of the qubit-mapping study (Table 3).

use crate::{BasisState, StateVector};
use gleipnir_circuit::{Gate, Program, Qubit, Stmt};
use gleipnir_linalg::{c64, ptrace_keep, trace_distance, CMat, EigError};

/// A dense `2ⁿ × 2ⁿ` mixed quantum state.
///
/// # Examples
///
/// ```
/// use gleipnir_circuit::ProgramBuilder;
/// use gleipnir_sim::DensityMatrix;
///
/// let mut b = ProgramBuilder::new(2);
/// b.h(0).cnot(0, 1);
/// let mut rho = DensityMatrix::zero_state(2);
/// rho.run(&b.build());
/// assert!((rho.probabilities()[0] - 0.5).abs() < 1e-12);
/// assert!((rho.purity() - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DensityMatrix {
    n_qubits: usize,
    mat: CMat,
}

impl DensityMatrix {
    /// The pure all-zeros state `|0…0⟩⟨0…0|`.
    pub fn zero_state(n_qubits: usize) -> Self {
        Self::from_basis(&BasisState::zeros(n_qubits))
    }

    /// A computational basis state.
    pub fn from_basis(basis: &BasisState) -> Self {
        let dim = 1usize << basis.n_qubits();
        let mut mat = CMat::zeros(dim, dim);
        mat.set(basis.index(), basis.index(), gleipnir_linalg::C64::ONE);
        DensityMatrix {
            n_qubits: basis.n_qubits(),
            mat,
        }
    }

    /// The maximally mixed state `I/2ⁿ`.
    pub fn maximally_mixed(n_qubits: usize) -> Self {
        let dim = 1usize << n_qubits;
        DensityMatrix {
            n_qubits,
            mat: CMat::identity(dim).scaled(c64(1.0 / dim as f64, 0.0)),
        }
    }

    /// Builds from a pure state.
    pub fn from_pure(sv: &StateVector) -> Self {
        DensityMatrix {
            n_qubits: sv.n_qubits(),
            mat: sv.to_density_matrix(),
        }
    }

    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &CMat {
        &self.mat
    }

    /// `tr ρ` (1 for normalized states; may be < 1 for unnormalized
    /// branch contributions).
    pub fn trace(&self) -> f64 {
        self.mat.trace().re
    }

    /// `tr ρ²`.
    pub fn purity(&self) -> f64 {
        gleipnir_linalg::purity(&self.mat)
    }

    /// Basis-state probabilities (the real diagonal).
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.mat.rows()).map(|i| self.mat.at(i, i).re).collect()
    }

    /// Applies `ρ ← M ρ M†` for an arbitrary `2^k` local matrix `M` on the
    /// given qubits (gates, Kraus operators, projectors).
    ///
    /// # Panics
    ///
    /// Panics on operand/shape mismatches.
    pub fn apply_matrix(&mut self, m: &CMat, qubits: &[Qubit]) {
        let k = qubits.len();
        assert_eq!(m.rows(), 1 << k, "matrix dimension mismatch");
        for q in qubits {
            assert!(q.0 < self.n_qubits, "qubit {q} out of range");
        }
        let n = self.n_qubits;
        let dim = 1usize << n;
        let kd = 1usize << k;
        let shifts: Vec<usize> = qubits.iter().map(|q| n - 1 - q.0).collect();
        let mask: usize = shifts.iter().map(|s| 1usize << s).sum();
        let spread = |l: usize| -> usize {
            let mut idx = 0usize;
            for (pos, &sh) in shifts.iter().enumerate() {
                idx |= ((l >> (k - 1 - pos)) & 1) << sh;
            }
            idx
        };

        // ρ ← (M ⊗ I) ρ : transform the row index, one column at a time.
        let mut local = vec![gleipnir_linalg::C64::ZERO; kd];
        for col in 0..dim {
            let mut base = 0usize;
            loop {
                for (l, slot) in local.iter_mut().enumerate() {
                    *slot = self.mat.at(base | spread(l), col);
                }
                for r in 0..kd {
                    let mut acc = gleipnir_linalg::C64::ZERO;
                    for (l, &al) in local.iter().enumerate() {
                        acc = acc.add_prod(m.at(r, l), al);
                    }
                    self.mat.set(base | spread(r), col, acc);
                }
                base = (base | mask).wrapping_add(1) & !mask;
                if base == 0 || base >= dim {
                    break;
                }
            }
        }
        // ρ ← ρ (M† ⊗ I) : transform the column index, one row at a time.
        for row in 0..dim {
            let mut base = 0usize;
            loop {
                for (l, slot) in local.iter_mut().enumerate() {
                    *slot = self.mat.at(row, base | spread(l));
                }
                for r in 0..kd {
                    let mut acc = gleipnir_linalg::C64::ZERO;
                    for (l, &al) in local.iter().enumerate() {
                        // (ρM†)[row][r] = Σ_l ρ[row][l]·conj(M[r][l])
                        acc = acc.add_prod(al, m.at(r, l).conj());
                    }
                    self.mat.set(row, base | spread(r), acc);
                }
                base = (base | mask).wrapping_add(1) & !mask;
                if base == 0 || base >= dim {
                    break;
                }
            }
        }
    }

    /// Applies a unitary gate.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[Qubit]) {
        self.apply_matrix(&gate.matrix(), qubits);
    }

    /// Applies a Kraus channel `ρ ← Σᵢ Kᵢ ρ Kᵢ†` on the given qubits.
    ///
    /// # Panics
    ///
    /// Panics if the Kraus list is empty or shapes mismatch.
    pub fn apply_kraus(&mut self, kraus: &[CMat], qubits: &[Qubit]) {
        assert!(!kraus.is_empty(), "empty Kraus list");
        let mut acc: Option<DensityMatrix> = None;
        for k in kraus {
            let mut term = self.clone();
            term.apply_matrix(k, qubits);
            acc = Some(match acc {
                None => term,
                Some(mut a) => {
                    a.mat = &a.mat + &term.mat;
                    a
                }
            });
        }
        *self = acc.expect("non-empty Kraus list");
    }

    /// Unnormalized projection of qubit `q` onto `outcome`
    /// (`ρ ← M_b ρ M_b†`); the trace of the result is the outcome
    /// probability.
    pub fn project(&self, q: Qubit, outcome: bool) -> DensityMatrix {
        let sh = self.n_qubits - 1 - q.0;
        let want = usize::from(outcome);
        let dim = self.mat.rows();
        let mut out = CMat::zeros(dim, dim);
        for r in 0..dim {
            if (r >> sh) & 1 != want {
                continue;
            }
            for c in 0..dim {
                if (c >> sh) & 1 != want {
                    continue;
                }
                out.set(r, c, self.mat.at(r, c));
            }
        }
        DensityMatrix {
            n_qubits: self.n_qubits,
            mat: out,
        }
    }

    /// Runs a program under the exact (noiseless) semantics of Fig. 3,
    /// including measurement statements (the state becomes the mixture of
    /// both branches).
    ///
    /// # Panics
    ///
    /// Panics on register-width mismatch.
    pub fn run(&mut self, program: &Program) {
        assert_eq!(
            program.n_qubits(),
            self.n_qubits,
            "program register width mismatch"
        );
        self.run_stmt(program.body());
    }

    fn run_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Skip => {}
            Stmt::Seq(ss) => {
                for s in ss {
                    self.run_stmt(s);
                }
            }
            Stmt::Gate(g) => self.apply_gate(&g.gate, &g.qubits),
            Stmt::IfMeasure { qubit, zero, one } => {
                let mut rho0 = self.project(*qubit, false);
                rho0.run_stmt(zero);
                let mut rho1 = self.project(*qubit, true);
                rho1.run_stmt(one);
                self.mat = &rho0.mat + &rho1.mat;
            }
        }
    }

    /// Runs a program where each gate is immediately followed by a noise
    /// channel chosen by `noise_for` (Kraus operators on the gate's qubits),
    /// implementing the noisy semantics `[[P]]_ω` of §2.3.
    ///
    /// Measurements remain exact, matching the paper's noisy semantics
    /// (only gates are noisy under the gate-level noise model).
    pub fn run_noisy(
        &mut self,
        program: &Program,
        noise_for: &dyn Fn(&Gate, &[Qubit]) -> Option<Vec<CMat>>,
    ) {
        assert_eq!(
            program.n_qubits(),
            self.n_qubits,
            "program register width mismatch"
        );
        self.run_stmt_noisy(program.body(), noise_for);
    }

    fn run_stmt_noisy(
        &mut self,
        s: &Stmt,
        noise_for: &dyn Fn(&Gate, &[Qubit]) -> Option<Vec<CMat>>,
    ) {
        match s {
            Stmt::Skip => {}
            Stmt::Seq(ss) => {
                for s in ss {
                    self.run_stmt_noisy(s, noise_for);
                }
            }
            Stmt::Gate(g) => {
                self.apply_gate(&g.gate, &g.qubits);
                if let Some(kraus) = noise_for(&g.gate, &g.qubits) {
                    self.apply_kraus(&kraus, &g.qubits);
                }
            }
            Stmt::IfMeasure { qubit, zero, one } => {
                let mut rho0 = self.project(*qubit, false);
                rho0.run_stmt_noisy(zero, noise_for);
                let mut rho1 = self.project(*qubit, true);
                rho1.run_stmt_noisy(one, noise_for);
                self.mat = &rho0.mat + &rho1.mat;
            }
        }
    }

    /// The reduced density matrix over `keep` (strictly ascending qubits).
    pub fn local_density(&self, keep: &[usize]) -> CMat {
        ptrace_keep(&self.mat, self.n_qubits, keep)
    }

    /// Trace distance to another state.
    ///
    /// # Errors
    ///
    /// Propagates eigendecomposition failures.
    pub fn trace_distance_to(&self, other: &DensityMatrix) -> Result<f64, EigError> {
        trace_distance(&self.mat, &other.mat)
    }
}

/// Total-variation (statistical) distance `½ Σ|pᵢ − qᵢ|` between two
/// probability vectors (paper §7.2's "measured error" metric).
///
/// # Panics
///
/// Panics on length mismatch.
pub fn statistical_distance(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gleipnir_circuit::ProgramBuilder;
    use gleipnir_linalg::C64;

    #[test]
    fn pure_run_matches_statevector() {
        let mut b = ProgramBuilder::new(3);
        b.h(0).cnot(0, 1).rx(2, 0.9).rzz(0, 2, 0.4);
        let p = b.build();
        let mut sv = StateVector::zero_state(3);
        sv.run(&p).unwrap();
        let mut rho = DensityMatrix::zero_state(3);
        rho.run(&p);
        assert!(rho.matrix().approx_eq(&sv.to_density_matrix(), 1e-12));
    }

    #[test]
    fn measurement_mixes_branches() {
        // H then measure: ρ = (|0⟩⟨0| + |1⟩⟨1|)/2 with X/Z marking branches.
        let mut b = ProgramBuilder::new(2);
        b.h(0).if_measure(
            0,
            |z| {
                z.x(1);
            },
            |o| {
                o.skip();
            },
        );
        let mut rho = DensityMatrix::zero_state(2);
        rho.run(&b.build());
        // Outcome 0 → |01⟩ (x applied to q1); outcome 1 → |10⟩.
        let p = rho.probabilities();
        assert!((p[1] - 0.5).abs() < 1e-12, "{p:?}");
        assert!((p[2] - 0.5).abs() < 1e-12, "{p:?}");
        assert!((rho.purity() - 0.5).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bit_flip_kraus_channel() {
        // Φ(ρ) = (1−p)ρ + p XρX on |0⟩.
        let p = 0.2f64;
        let k0 = CMat::identity(2).scaled(c64((1.0 - p).sqrt(), 0.0));
        let k1 = Gate::X.matrix().scaled(c64(p.sqrt(), 0.0));
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_kraus(&[k0, k1], &[Qubit(0)]);
        assert!((rho.probabilities()[0] - 0.8).abs() < 1e-12);
        assert!((rho.probabilities()[1] - 0.2).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_run_applies_noise_after_each_gate() {
        let p = 0.5f64;
        let k0 = CMat::identity(2).scaled(c64((1.0 - p).sqrt(), 0.0));
        let k1 = Gate::X.matrix().scaled(c64(p.sqrt(), 0.0));
        let mut b = ProgramBuilder::new(1);
        b.x(0);
        let mut rho = DensityMatrix::zero_state(1);
        rho.run_noisy(&b.build(), &|gate, qs| {
            assert_eq!(gate, &Gate::X);
            assert_eq!(qs.len(), 1);
            Some(vec![k0.clone(), k1.clone()])
        });
        // X then 50% flip: half |1⟩, half |0⟩.
        assert!((rho.probabilities()[0] - 0.5).abs() < 1e-12);
        assert!((rho.probabilities()[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn project_probabilities() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::H, &[Qubit(0)]);
        let p0 = rho.project(Qubit(0), false).trace();
        let p1 = rho.project(Qubit(0), true).trace();
        assert!((p0 - 0.5).abs() < 1e-12);
        assert!((p1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn local_density_of_ghz() {
        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(0, 1);
        let mut rho = DensityMatrix::zero_state(2);
        rho.run(&b.build());
        let local = rho.local_density(&[0]);
        assert!((local.at(0, 0).re - 0.5).abs() < 1e-12);
        assert!((local.at(1, 1).re - 0.5).abs() < 1e-12);
        assert!(local.at(0, 1).abs() < 1e-12);
    }

    #[test]
    fn maximally_mixed_properties() {
        let rho = DensityMatrix::maximally_mixed(2);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn trace_distance_between_runs() {
        let mut a = DensityMatrix::zero_state(1);
        let mut b_ = DensityMatrix::zero_state(1);
        let mut prog_x = ProgramBuilder::new(1);
        prog_x.x(0);
        b_.run(&prog_x.build());
        assert!((a.trace_distance_to(&b_).unwrap() - 1.0).abs() < 1e-10);
        let mut prog_id = ProgramBuilder::new(1);
        prog_id.skip();
        a.run(&prog_id.build());
        assert!(a.trace_distance_to(&a.clone()).unwrap() < 1e-12);
    }

    #[test]
    fn statistical_distance_basics() {
        assert!((statistical_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-15);
        assert_eq!(statistical_distance(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        assert!((statistical_distance(&[0.7, 0.3], &[0.5, 0.5]) - 0.2).abs() < 1e-15);
    }

    #[test]
    fn apply_matrix_nonunitary_projector() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::H, &[Qubit(0)]);
        // Projector onto |0⟩.
        let mut p0 = CMat::zeros(2, 2);
        p0.set(0, 0, C64::ONE);
        rho.apply_matrix(&p0, &[Qubit(0)]);
        assert!((rho.trace() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_pure_round_trip() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_gate(&Gate::H, &[Qubit(0)]);
        sv.apply_gate(&Gate::Cnot, &[Qubit(0), Qubit(1)]);
        let rho = DensityMatrix::from_pure(&sv);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }
}
