//! Pauli-string observables and expectation values.
//!
//! QAOA cost functions, Ising energies, and error-mitigation diagnostics
//! are all expectations of Pauli strings; this module provides the
//! observable type and `⟨ψ|O|ψ⟩` / `tr(Oρ)` evaluation against both
//! simulators without materializing the `2ⁿ × 2ⁿ` operator.

use crate::{DensityMatrix, StateVector};
use gleipnir_linalg::C64;
use std::fmt;

/// A single-qubit Pauli factor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
}

impl Pauli {
    /// Action on a basis bit: returns `(new_bit, amplitude)` such that
    /// `P|b⟩ = amplitude·|new_bit⟩`.
    #[inline]
    fn apply(self, bit: bool) -> (bool, C64) {
        match self {
            Pauli::I => (bit, C64::ONE),
            Pauli::X => (!bit, C64::ONE),
            Pauli::Y => (!bit, if bit { -C64::I } else { C64::I }),
            Pauli::Z => (bit, if bit { -C64::ONE } else { C64::ONE }),
        }
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        };
        write!(f, "{c}")
    }
}

/// A weighted sum of Pauli strings over `n` qubits — a Hermitian
/// observable.
///
/// # Examples
///
/// ```
/// use gleipnir_sim::{Observable, StateVector};
/// use gleipnir_circuit::{Gate, Qubit};
///
/// // ⟨Z₀⟩ on |+⟩ is 0; ⟨X₀⟩ is 1.
/// let mut sv = StateVector::zero_state(1);
/// sv.apply_gate(&Gate::H, &[Qubit(0)]);
/// let z = Observable::z(1, 0);
/// let x = Observable::single(1, 0, gleipnir_sim::Pauli::X);
/// assert!(z.expectation_state(&sv).abs() < 1e-12);
/// assert!((x.expectation_state(&sv) - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Observable {
    n_qubits: usize,
    terms: Vec<(f64, Vec<(usize, Pauli)>)>,
}

impl Observable {
    /// The zero observable over `n` qubits.
    pub fn zero(n_qubits: usize) -> Self {
        Observable {
            n_qubits,
            terms: Vec::new(),
        }
    }

    /// A single-qubit Pauli observable.
    ///
    /// # Panics
    ///
    /// Panics if `q ≥ n_qubits`.
    pub fn single(n_qubits: usize, q: usize, p: Pauli) -> Self {
        let mut o = Self::zero(n_qubits);
        o.add_term(1.0, &[(q, p)]);
        o
    }

    /// `Z_q`.
    pub fn z(n_qubits: usize, q: usize) -> Self {
        Self::single(n_qubits, q, Pauli::Z)
    }

    /// `Z_a·Z_b` — the Ising/max-cut coupling term.
    pub fn zz(n_qubits: usize, a: usize, b: usize) -> Self {
        let mut o = Self::zero(n_qubits);
        o.add_term(1.0, &[(a, Pauli::Z), (b, Pauli::Z)]);
        o
    }

    /// The max-cut cost observable `Σ_(a,b)∈E (1 − Z_a Z_b)/2`, whose
    /// expectation is the expected cut value.
    pub fn max_cut(n_qubits: usize, edges: &[(usize, usize)]) -> Self {
        let mut o = Self::zero(n_qubits);
        for &(a, b) in edges {
            o.add_term(0.5, &[]);
            o.add_term(-0.5, &[(a, Pauli::Z), (b, Pauli::Z)]);
        }
        o
    }

    /// The transverse-field Ising Hamiltonian
    /// `−J Σ Z_i Z_{i+1} − h Σ X_i` on a chain.
    pub fn ising_chain(n_qubits: usize, j: f64, h: f64) -> Self {
        let mut o = Self::zero(n_qubits);
        for q in 0..n_qubits.saturating_sub(1) {
            o.add_term(-j, &[(q, Pauli::Z), (q + 1, Pauli::Z)]);
        }
        for q in 0..n_qubits {
            o.add_term(-h, &[(q, Pauli::X)]);
        }
        o
    }

    /// Adds a weighted Pauli-string term (qubits must be distinct and in
    /// range; an empty string is the identity).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or repeated qubits.
    pub fn add_term(&mut self, weight: f64, factors: &[(usize, Pauli)]) -> &mut Self {
        let mut seen = Vec::new();
        for &(q, _) in factors {
            assert!(q < self.n_qubits, "qubit {q} out of range");
            assert!(!seen.contains(&q), "repeated qubit {q} in Pauli string");
            seen.push(q);
        }
        let mut fs: Vec<(usize, Pauli)> = factors
            .iter()
            .filter(|(_, p)| *p != Pauli::I)
            .copied()
            .collect();
        fs.sort_by_key(|&(q, _)| q);
        self.terms.push((weight, fs));
        self
    }

    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// `⟨ψ|O|ψ⟩` against a pure state.
    ///
    /// # Panics
    ///
    /// Panics on register-width mismatch.
    pub fn expectation_state(&self, sv: &StateVector) -> f64 {
        assert_eq!(sv.n_qubits(), self.n_qubits, "register width mismatch");
        let n = self.n_qubits;
        let amps = sv.amplitudes();
        let mut total = 0.0;
        for (w, factors) in &self.terms {
            // ⟨ψ|P|ψ⟩ = Σ_b conj(ψ[P(b)_idx])·amp·ψ[b].
            let mut acc = C64::ZERO;
            for (idx, &a) in amps.iter().enumerate() {
                if a == C64::ZERO {
                    continue;
                }
                let mut out_idx = idx;
                let mut coeff = C64::ONE;
                for &(q, p) in factors {
                    let sh = n - 1 - q;
                    let bit = (idx >> sh) & 1 == 1;
                    let (nb, c) = p.apply(bit);
                    if nb != bit {
                        out_idx ^= 1 << sh;
                    }
                    coeff *= c;
                }
                acc = acc.add_prod(amps[out_idx].conj(), coeff * a);
            }
            total += w * acc.re;
        }
        total
    }

    /// `tr(O·ρ)` against a density matrix.
    ///
    /// # Panics
    ///
    /// Panics on register-width mismatch.
    pub fn expectation_density(&self, rho: &DensityMatrix) -> f64 {
        assert_eq!(rho.n_qubits(), self.n_qubits, "register width mismatch");
        let n = self.n_qubits;
        let m = rho.matrix();
        let mut total = 0.0;
        for (w, factors) in &self.terms {
            // tr(Pρ) = Σ_b ⟨b|Pρ|b⟩ = Σ_b coeff(b)·ρ[P(b), b].
            let mut acc = C64::ZERO;
            for idx in 0..(1usize << n) {
                let mut out_idx = idx;
                let mut coeff = C64::ONE;
                for &(q, p) in factors {
                    let sh = n - 1 - q;
                    let bit = (idx >> sh) & 1 == 1;
                    let (nb, c) = p.apply(bit);
                    if nb != bit {
                        out_idx ^= 1 << sh;
                    }
                    coeff *= c;
                }
                // ⟨idx|P = (P†|idx⟩)† …for Pauli strings P|idx⟩ = coeff|out⟩,
                // so ⟨idx|Pρ|idx⟩ = coeff·ρ[out_idx][idx]… careful with
                // conjugation: P is Hermitian, ⟨idx|P = (coeff·|out⟩)† gives
                // conj(coeff)·⟨out|.
                acc = acc.add_prod(coeff.conj(), m.at(out_idx, idx));
            }
            total += w * acc.re;
        }
        total
    }
}

impl fmt::Display for Observable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, (w, factors)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{w}·")?;
            if factors.is_empty() {
                write!(f, "I")?;
            }
            for (q, p) in factors {
                write!(f, "{p}{q}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gleipnir_circuit::{Gate, ProgramBuilder, Qubit};

    #[test]
    fn z_expectation_on_basis_states() {
        let sv0 = StateVector::zero_state(2);
        assert!((Observable::z(2, 0).expectation_state(&sv0) - 1.0).abs() < 1e-12);
        let mut sv1 = StateVector::zero_state(2);
        sv1.apply_gate(&Gate::X, &[Qubit(1)]);
        assert!((Observable::z(2, 1).expectation_state(&sv1) + 1.0).abs() < 1e-12);
        assert!((Observable::z(2, 0).expectation_state(&sv1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn y_expectation_on_circular_state() {
        // |i⟩ = S·H|0⟩ has ⟨Y⟩ = 1.
        let mut sv = StateVector::zero_state(1);
        sv.apply_gate(&Gate::H, &[Qubit(0)]);
        sv.apply_gate(&Gate::S, &[Qubit(0)]);
        let y = Observable::single(1, 0, Pauli::Y);
        assert!((y.expectation_state(&sv) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zz_on_ghz_is_one() {
        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(0, 1);
        let mut sv = StateVector::zero_state(2);
        sv.run(&b.build()).unwrap();
        assert!((Observable::zz(2, 0, 1).expectation_state(&sv) - 1.0).abs() < 1e-12);
        // Single-qubit Z vanishes on GHZ.
        assert!(Observable::z(2, 0).expectation_state(&sv).abs() < 1e-12);
    }

    #[test]
    fn state_and_density_expectations_agree() {
        let mut b = ProgramBuilder::new(3);
        b.h(0).cnot(0, 1).rx(2, 0.7).rzz(1, 2, 0.9).t(0);
        let p = b.build();
        let mut sv = StateVector::zero_state(3);
        sv.run(&p).unwrap();
        let mut rho = DensityMatrix::zero_state(3);
        rho.run(&p);
        let mut o = Observable::zero(3);
        o.add_term(0.5, &[(0, Pauli::X), (2, Pauli::Z)]);
        o.add_term(-1.25, &[(1, Pauli::Y)]);
        o.add_term(2.0, &[]);
        let es = o.expectation_state(&sv);
        let ed = o.expectation_density(&rho);
        assert!((es - ed).abs() < 1e-10, "{es} vs {ed}");
    }

    #[test]
    fn max_cut_matches_brute_force_on_diagonal_states() {
        // On a basis state, the max-cut expectation is the exact cut value.
        let edges = [(0usize, 1usize), (1, 2), (0, 2)];
        let o = Observable::max_cut(3, &edges);
        for idx in 0..8usize {
            let sv = StateVector::from_basis(&crate::BasisState::from_index(3, idx));
            let cut = edges
                .iter()
                .filter(|&&(a, b)| ((idx >> (2 - a)) ^ (idx >> (2 - b))) & 1 == 1)
                .count() as f64;
            assert!(
                (o.expectation_state(&sv) - cut).abs() < 1e-12,
                "idx {idx}: {} vs {cut}",
                o.expectation_state(&sv)
            );
        }
    }

    #[test]
    fn ising_ground_state_energy_sign() {
        // For J, h > 0 the all-up state has energy −J(n−1) from the ZZ part
        // and 0 from X.
        let n = 4;
        let o = Observable::ising_chain(n, 1.0, 0.5);
        let sv = StateVector::zero_state(n);
        assert!((o.expectation_state(&sv) + 3.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_state_expectation() {
        let rho = DensityMatrix::maximally_mixed(2);
        // All traceless observables vanish on I/4.
        for o in [
            Observable::z(2, 0),
            Observable::zz(2, 0, 1),
            Observable::single(2, 1, Pauli::X),
        ] {
            assert!(o.expectation_density(&rho).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "repeated qubit")]
    fn repeated_qubit_rejected() {
        let mut o = Observable::zero(2);
        o.add_term(1.0, &[(0, Pauli::X), (0, Pauli::Z)]);
    }
}
