//! Dense pure-state (state-vector) simulation.

use crate::BasisState;
use gleipnir_circuit::{Gate, Program, Qubit, Stmt};
use gleipnir_linalg::{c64, CMat, CVec, C64};
use rand::Rng;
use std::fmt;

/// Errors from state-vector simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A pure-state run hit a measurement statement; density-matrix
    /// simulation (or `run_sampled`) is required for branching programs.
    MeasurementInPureRun,
    /// The register widths of the state and program disagree.
    WidthMismatch {
        /// State width.
        state: usize,
        /// Program width.
        program: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MeasurementInPureRun => {
                write!(
                    f,
                    "measurement in pure-state run; use DensityMatrix::run or run_sampled"
                )
            }
            SimError::WidthMismatch { state, program } => {
                write!(f, "state has {state} qubits but program has {program}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A dense `2ⁿ`-amplitude pure quantum state.
///
/// Qubit 0 is the most significant bit of the amplitude index (the
/// workspace-wide convention).
///
/// # Examples
///
/// ```
/// use gleipnir_circuit::ProgramBuilder;
/// use gleipnir_sim::StateVector;
///
/// let mut b = ProgramBuilder::new(2);
/// b.h(0).cnot(0, 1);
/// let mut sv = StateVector::zero_state(2);
/// sv.run(&b.build())?;
/// let p = sv.probabilities();
/// assert!((p[0] - 0.5).abs() < 1e-12 && (p[3] - 0.5).abs() < 1e-12);
/// # Ok::<(), gleipnir_sim::SimError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: CVec,
}

impl StateVector {
    /// The all-zeros state `|0…0⟩`.
    pub fn zero_state(n_qubits: usize) -> Self {
        StateVector {
            n_qubits,
            amps: CVec::basis(1 << n_qubits, 0),
        }
    }

    /// A computational basis state.
    pub fn from_basis(basis: &BasisState) -> Self {
        StateVector {
            n_qubits: basis.n_qubits(),
            amps: CVec::basis(1 << basis.n_qubits(), basis.index()),
        }
    }

    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The amplitude vector.
    pub fn amplitudes(&self) -> &CVec {
        &self.amps
    }

    /// `⟨self|other⟩`.
    pub fn inner(&self, other: &StateVector) -> C64 {
        self.amps.dot(&other.amps)
    }

    /// Basis-state probabilities (the squared amplitude moduli).
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Applies a gate to the listed qubits (first operand = local MSB).
    ///
    /// # Panics
    ///
    /// Panics if operands are out of range or repeated.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[Qubit]) {
        self.apply_matrix(&gate.matrix(), qubits);
    }

    /// Applies an arbitrary `2^k × 2^k` matrix to `k` qubits.
    ///
    /// The matrix need not be unitary (projectors are allowed; callers
    /// handle renormalization).
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimension does not match the operand count, or
    /// operands are out of range / repeated.
    pub fn apply_matrix(&mut self, m: &CMat, qubits: &[Qubit]) {
        let k = qubits.len();
        assert_eq!(m.rows(), 1 << k, "matrix dimension mismatch");
        assert_eq!(m.cols(), 1 << k, "matrix dimension mismatch");
        for q in qubits {
            assert!(q.0 < self.n_qubits, "qubit {q} out of range");
        }
        if k == 2 {
            assert_ne!(qubits[0], qubits[1], "repeated operand");
        }
        let n = self.n_qubits;
        let shifts: Vec<usize> = qubits.iter().map(|q| n - 1 - q.0).collect();
        let mask: usize = shifts.iter().map(|s| 1usize << s).sum();
        let dim = 1usize << n;
        let kd = 1usize << k;
        let amps = self.amps.as_mut_slice();
        let mut local = vec![C64::ZERO; kd];
        // Iterate over all indices with zeros in the operand positions.
        let mut base = 0usize;
        loop {
            // Gather.
            for (l, slot) in local.iter_mut().enumerate() {
                let mut idx = base;
                for (pos, &sh) in shifts.iter().enumerate() {
                    idx |= ((l >> (k - 1 - pos)) & 1) << sh;
                }
                *slot = amps[idx];
            }
            // Multiply and scatter.
            for r in 0..kd {
                let mut acc = C64::ZERO;
                for (l, &al) in local.iter().enumerate() {
                    acc = acc.add_prod(m.at(r, l), al);
                }
                let mut idx = base;
                for (pos, &sh) in shifts.iter().enumerate() {
                    idx |= ((r >> (k - 1 - pos)) & 1) << sh;
                }
                amps[idx] = acc;
            }
            // Next base index skipping operand bits (standard bit trick).
            base = (base | mask).wrapping_add(1) & !mask;
            if base == 0 || base >= dim {
                break;
            }
        }
    }

    /// Runs a measurement-free program.
    ///
    /// # Errors
    ///
    /// [`SimError::MeasurementInPureRun`] if the program branches;
    /// [`SimError::WidthMismatch`] on register disagreement.
    pub fn run(&mut self, program: &Program) -> Result<(), SimError> {
        if program.n_qubits() != self.n_qubits {
            return Err(SimError::WidthMismatch {
                state: self.n_qubits,
                program: program.n_qubits(),
            });
        }
        let gates = program
            .straight_line_gates()
            .ok_or(SimError::MeasurementInPureRun)?;
        for g in gates {
            self.apply_gate(&g.gate, &g.qubits);
        }
        Ok(())
    }

    /// Runs a program, sampling measurement outcomes with `rng` and
    /// collapsing the state. Returns the outcomes in program order.
    ///
    /// # Errors
    ///
    /// [`SimError::WidthMismatch`] on register disagreement.
    pub fn run_sampled<R: Rng>(
        &mut self,
        program: &Program,
        rng: &mut R,
    ) -> Result<Vec<(Qubit, bool)>, SimError> {
        if program.n_qubits() != self.n_qubits {
            return Err(SimError::WidthMismatch {
                state: self.n_qubits,
                program: program.n_qubits(),
            });
        }
        let mut outcomes = Vec::new();
        self.run_stmt_sampled(program.body(), rng, &mut outcomes);
        Ok(outcomes)
    }

    fn run_stmt_sampled<R: Rng>(
        &mut self,
        s: &Stmt,
        rng: &mut R,
        outcomes: &mut Vec<(Qubit, bool)>,
    ) {
        match s {
            Stmt::Skip => {}
            Stmt::Seq(ss) => {
                for s in ss {
                    self.run_stmt_sampled(s, rng, outcomes);
                }
            }
            Stmt::Gate(g) => self.apply_gate(&g.gate, &g.qubits),
            Stmt::IfMeasure { qubit, zero, one } => {
                let p1 = self.prob_one(*qubit);
                let got_one = rng.gen::<f64>() < p1;
                self.collapse(*qubit, got_one);
                outcomes.push((*qubit, got_one));
                if got_one {
                    self.run_stmt_sampled(one, rng, outcomes);
                } else {
                    self.run_stmt_sampled(zero, rng, outcomes);
                }
            }
        }
    }

    /// Probability of measuring `|1⟩` on the given qubit.
    pub fn prob_one(&self, q: Qubit) -> f64 {
        let sh = self.n_qubits - 1 - q.0;
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| (i >> sh) & 1 == 1)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Projects qubit `q` onto `outcome` and renormalizes.
    ///
    /// # Panics
    ///
    /// Panics if the outcome has (near-)zero probability.
    pub fn collapse(&mut self, q: Qubit, outcome: bool) {
        let sh = self.n_qubits - 1 - q.0;
        let want = usize::from(outcome);
        let mut norm_sqr = 0.0;
        for (i, a) in self.amps.as_mut_slice().iter_mut().enumerate() {
            if (i >> sh) & 1 != want {
                *a = C64::ZERO;
            } else {
                norm_sqr += a.norm_sqr();
            }
        }
        assert!(norm_sqr > 1e-300, "collapse onto zero-probability outcome");
        let scale = c64(1.0 / norm_sqr.sqrt(), 0.0);
        self.amps.scale_mut(scale);
    }

    /// Samples a full computational-basis measurement.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let x: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, a) in self.amps.iter().enumerate() {
            acc += a.norm_sqr();
            if x < acc {
                return i;
            }
        }
        self.amps.len() - 1
    }

    /// The density matrix `|ψ⟩⟨ψ|`.
    pub fn to_density_matrix(&self) -> CMat {
        CMat::outer(&self.amps, &self.amps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gleipnir_circuit::ProgramBuilder;
    use gleipnir_linalg::c64;

    #[test]
    fn hadamard_makes_plus() {
        let mut sv = StateVector::zero_state(1);
        sv.apply_gate(&Gate::H, &[Qubit(0)]);
        let s = 1.0 / 2f64.sqrt();
        assert!(sv.amplitudes()[0].approx_eq(c64(s, 0.0), 1e-12));
        assert!(sv.amplitudes()[1].approx_eq(c64(s, 0.0), 1e-12));
    }

    #[test]
    fn x_on_msb_qubit() {
        let mut sv = StateVector::zero_state(3);
        sv.apply_gate(&Gate::X, &[Qubit(0)]);
        // |000⟩ → |100⟩ = index 4.
        assert!(sv.amplitudes()[4].approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn ghz_three_qubits() {
        let mut b = ProgramBuilder::new(3);
        b.h(0).cnot(0, 1).cnot(1, 2);
        let mut sv = StateVector::zero_state(3);
        sv.run(&b.build()).unwrap();
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[7] - 0.5).abs() < 1e-12);
        assert!(p[1..7].iter().all(|&x| x < 1e-12));
    }

    #[test]
    fn cnot_with_reversed_operands() {
        // Control on q1, target q0: |01⟩ → |11⟩.
        let mut sv = StateVector::from_basis(&BasisState::from_bits(&[false, true]));
        sv.apply_gate(&Gate::Cnot, &[Qubit(1), Qubit(0)]);
        assert!(sv.amplitudes()[3].approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn matches_program_unitary() {
        let mut b = ProgramBuilder::new(3);
        b.h(0)
            .rx(1, 0.7)
            .cnot(0, 2)
            .rzz(1, 2, 1.3)
            .cz(0, 1)
            .swap(1, 2);
        let p = b.build();
        let u = p.unitary().unwrap();
        let mut sv = StateVector::zero_state(3);
        sv.run(&p).unwrap();
        // U|000⟩ = column 0 of U.
        for i in 0..8 {
            assert!(sv.amplitudes()[i].approx_eq(u.at(i, 0), 1e-12));
        }
    }

    #[test]
    fn norm_is_preserved() {
        let mut b = ProgramBuilder::new(4);
        for q in 0..4 {
            b.h(q);
        }
        b.cnot(0, 1).cnot(2, 3).rzz(1, 2, 0.4).t(0).s(3);
        let mut sv = StateVector::zero_state(4);
        sv.run(&b.build()).unwrap();
        assert!((sv.amplitudes().norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prob_one_and_collapse() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_gate(&Gate::H, &[Qubit(0)]);
        assert!((sv.prob_one(Qubit(0)) - 0.5).abs() < 1e-12);
        sv.collapse(Qubit(0), true);
        assert!((sv.prob_one(Qubit(0)) - 1.0).abs() < 1e-12);
        assert!((sv.amplitudes().norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_run_deterministic_branch() {
        // After X, the measurement always yields 1, so the `one` branch runs.
        let mut b = ProgramBuilder::new(2);
        b.x(0).if_measure(
            0,
            |z| {
                z.skip();
            },
            |o| {
                o.x(1);
            },
        );
        let mut rng = rand::thread_rng();
        let mut sv = StateVector::zero_state(2);
        let outcomes = sv.run_sampled(&b.build(), &mut rng).unwrap();
        assert_eq!(outcomes, vec![(Qubit(0), true)]);
        // State is |11⟩.
        assert!(sv.amplitudes()[3].approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn pure_run_rejects_measurement() {
        let mut b = ProgramBuilder::new(1);
        b.if_measure(0, |_| {}, |_| {});
        let mut sv = StateVector::zero_state(1);
        assert_eq!(
            sv.run(&b.build()).unwrap_err(),
            SimError::MeasurementInPureRun
        );
    }

    #[test]
    fn width_mismatch_detected() {
        let mut b = ProgramBuilder::new(3);
        b.h(0);
        let mut sv = StateVector::zero_state(2);
        assert!(matches!(
            sv.run(&b.build()).unwrap_err(),
            SimError::WidthMismatch {
                state: 2,
                program: 3
            }
        ));
    }

    #[test]
    fn sample_respects_distribution() {
        let mut sv = StateVector::zero_state(1);
        sv.apply_gate(&Gate::X, &[Qubit(0)]);
        let mut rng = rand::thread_rng();
        for _ in 0..10 {
            assert_eq!(sv.sample(&mut rng), 1);
        }
    }
}
