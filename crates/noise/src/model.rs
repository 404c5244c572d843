//! Gate-level noise models: which noise channel follows each gate.

use crate::{Channel, DeviceModel};
use gleipnir_circuit::{Gate, Qubit};

/// A noise model `ω`: assigns each gate application its trailing noise
/// channel, defining the noisy program `P̃_ω` of §2.3.
///
/// # Examples
///
/// ```
/// use gleipnir_circuit::{Gate, Qubit};
/// use gleipnir_noise::NoiseModel;
///
/// // The paper's §7.1 model: every gate suffers a bit flip with p = 1e-4.
/// let nm = NoiseModel::uniform_bit_flip(1e-4);
/// let ch = nm.channel_for(&Gate::H, &[Qubit(0)]).expect("noisy");
/// assert_eq!(ch.arity(), 1);
/// ```
#[derive(Clone, Debug)]
pub enum NoiseModel {
    /// No noise: `P̃_ω = P`.
    Noiseless,
    /// The paper's §7.1 evaluation model: every 1-qubit gate is followed by
    /// a bit flip with probability `p`; every 2-qubit gate by a bit flip on
    /// its **first** operand qubit.
    UniformBitFlip {
        /// The flip probability.
        p: f64,
    },
    /// Uniform depolarizing noise with separate 1- and 2-qubit rates.
    UniformDepolarizing {
        /// 1-qubit gate error rate.
        p1: f64,
        /// 2-qubit gate error rate.
        p2: f64,
    },
    /// Uniform amplitude damping: every gate is followed by decay with
    /// probability `γ` on its (first) operand qubit. Unlike the bit-flip
    /// and depolarizing models this channel is **not** a Pauli mixture —
    /// it is the stock model that exercises the cold interior-point solve
    /// rather than the closed form.
    UniformAmplitudeDamping {
        /// The decay probability.
        gamma: f64,
    },
    /// Device-calibrated noise (per-qubit / per-edge rates).
    Device(DeviceModel),
}

impl NoiseModel {
    /// The paper's §7.1 model with flip probability `p`.
    pub fn uniform_bit_flip(p: f64) -> Self {
        NoiseModel::UniformBitFlip { p }
    }

    /// Uniform depolarizing noise.
    pub fn uniform_depolarizing(p1: f64, p2: f64) -> Self {
        NoiseModel::UniformDepolarizing { p1, p2 }
    }

    /// Uniform amplitude damping with decay probability `gamma`.
    pub fn uniform_amplitude_damping(gamma: f64) -> Self {
        NoiseModel::UniformAmplitudeDamping { gamma }
    }

    /// The noise channel following the given gate application, on the
    /// gate's own qubits. `None` means the gate is noiseless.
    pub fn channel_for(&self, gate: &Gate, qubits: &[Qubit]) -> Option<Channel> {
        match self {
            NoiseModel::Noiseless => None,
            NoiseModel::UniformBitFlip { p } => Some(match gate.arity() {
                1 => Channel::bit_flip(*p),
                _ => Channel::bit_flip_first_of_two(*p),
            }),
            NoiseModel::UniformDepolarizing { p1, p2 } => Some(match gate.arity() {
                1 => Channel::depolarizing(*p1),
                _ => Channel::depolarizing2(*p2),
            }),
            NoiseModel::UniformAmplitudeDamping { gamma } => Some(match gate.arity() {
                1 => Channel::amplitude_damping(*gamma),
                _ => Channel::amplitude_damping_first_of_two(*gamma),
            }),
            NoiseModel::Device(dev) => dev.channel_for(gate, qubits),
        }
    }

    /// The full noisy gate `Ũ_ω = Φ ∘ U` as a channel on the gate's qubits.
    pub fn noisy_gate(&self, gate: &Gate, qubits: &[Qubit]) -> Channel {
        let u = gate.matrix();
        match self.channel_for(gate, qubits) {
            None => Channel::from_kraus(format!("{gate}"), vec![u]),
            Some(ch) => ch.after_unitary(&u),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gleipnir_linalg::CMat;

    #[test]
    fn noiseless_has_no_channel() {
        assert!(NoiseModel::Noiseless
            .channel_for(&Gate::H, &[Qubit(0)])
            .is_none());
    }

    #[test]
    fn bit_flip_model_matches_paper() {
        let nm = NoiseModel::uniform_bit_flip(1e-4);
        let one = nm.channel_for(&Gate::H, &[Qubit(3)]).unwrap();
        assert_eq!(one.arity(), 1);
        let two = nm.channel_for(&Gate::Cnot, &[Qubit(0), Qubit(1)]).unwrap();
        assert_eq!(two.arity(), 2);
        // The 2q channel flips the first (MSB) qubit.
        let mut rho = CMat::zeros(4, 4);
        rho.set(0, 0, gleipnir_linalg::C64::ONE); // |00⟩
        let out = two.apply(&rho);
        assert!((out.at(0, 0).re - (1.0 - 1e-4)).abs() < 1e-12);
        assert!((out.at(2, 2).re - 1e-4).abs() < 1e-12); // |10⟩
    }

    #[test]
    fn noisy_gate_is_cptp() {
        let nm = NoiseModel::uniform_depolarizing(1e-3, 1e-2);
        for (g, qs) in [
            (Gate::H, vec![Qubit(0)]),
            (Gate::Cnot, vec![Qubit(0), Qubit(1)]),
        ] {
            let ch = nm.noisy_gate(&g, &qs);
            let mut sum = CMat::zeros(ch.dim(), ch.dim());
            for k in ch.kraus() {
                sum = &sum + &k.adjoint_mul(k);
            }
            assert!(sum.approx_eq(&CMat::identity(ch.dim()), 1e-9));
        }
    }

    #[test]
    fn noiseless_noisy_gate_is_the_unitary() {
        let ch = NoiseModel::Noiseless.noisy_gate(&Gate::X, &[Qubit(0)]);
        assert_eq!(ch.kraus().len(), 1);
        assert!(ch.kraus()[0].approx_eq(&Gate::X.matrix(), 0.0));
    }
}
