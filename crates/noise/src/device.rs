//! Device models: coupling maps plus per-qubit / per-edge calibration.
//!
//! The paper's §7.2 experiments ran on the IBM Boeblingen 20-qubit machine
//! (coupling map in Fig. 15) with a noise model constructed from IBM's
//! public calibration data. Real calibration feeds are not available here,
//! so the presets below pair the **published coupling maps** with
//! **synthetic calibration tables** in the realistic range for devices of
//! that generation (1q gate error ≈ 4×10⁻⁴–7×10⁻⁴, 2q ≈ 0.9–2.6×10⁻²,
//! readout ≈ 1.7–3.5×10⁻²), deliberately non-uniform across qubits. The
//! experiment's claims are relational (bounds dominate and rank-order the
//! measured errors), and both sides of the comparison consume this same
//! model.

use crate::Channel;
use gleipnir_circuit::{CouplingMap, Gate, Qubit};
use std::collections::BTreeMap;

/// A quantum device: coupling map + calibration.
///
/// # Examples
///
/// ```
/// use gleipnir_noise::DeviceModel;
///
/// let dev = DeviceModel::boeblingen20();
/// assert_eq!(dev.coupling().n_qubits(), 20);
/// assert!(dev.coupling().are_adjacent(0, 1));
/// assert!(dev.q2_error(0, 1).unwrap() > dev.q2_error(2, 3).unwrap());
/// ```
#[derive(Clone, Debug)]
pub struct DeviceModel {
    name: String,
    coupling: CouplingMap,
    q1_error: Vec<f64>,
    q2_error: BTreeMap<(usize, usize), f64>,
    readout_error: Vec<f64>,
}

impl DeviceModel {
    /// Builds a device model.
    ///
    /// # Panics
    ///
    /// Panics if the calibration vectors don't match the coupling map size,
    /// or an error entry references a non-edge.
    pub fn new(
        name: impl Into<String>,
        coupling: CouplingMap,
        q1_error: Vec<f64>,
        q2_error: Vec<((usize, usize), f64)>,
        readout_error: Vec<f64>,
    ) -> Self {
        let n = coupling.n_qubits();
        assert_eq!(q1_error.len(), n, "q1 calibration size mismatch");
        assert_eq!(readout_error.len(), n, "readout calibration size mismatch");
        let mut map = BTreeMap::new();
        for ((a, b), e) in q2_error {
            assert!(
                coupling.are_adjacent(a, b),
                "calibrated pair ({a},{b}) is not an edge"
            );
            map.insert((a.min(b), a.max(b)), e);
        }
        for (a, b) in coupling.edges() {
            assert!(
                map.contains_key(&(a, b)),
                "edge ({a},{b}) missing 2q calibration"
            );
        }
        DeviceModel {
            name: name.into(),
            coupling,
            q1_error,
            q2_error: map,
            readout_error,
        }
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The coupling map.
    pub fn coupling(&self) -> &CouplingMap {
        &self.coupling
    }

    /// 1-qubit gate error rate of physical qubit `q`.
    pub fn q1_error(&self, q: usize) -> f64 {
        self.q1_error[q]
    }

    /// 2-qubit gate error rate of the edge `{a, b}`, if coupled.
    pub fn q2_error(&self, a: usize, b: usize) -> Option<f64> {
        self.q2_error.get(&(a.min(b), a.max(b))).copied()
    }

    /// Readout (measurement bit-flip) error of physical qubit `q`.
    pub fn readout_error(&self, q: usize) -> f64 {
        self.readout_error[q]
    }

    /// The noise channel following a gate on the given **physical** qubits:
    /// depolarizing with the calibrated rate.
    ///
    /// # Panics
    ///
    /// Panics if a 2-qubit gate is applied across a non-edge (programs must
    /// be routed first; see [`gleipnir_circuit::route`]).
    pub fn channel_for(&self, gate: &Gate, qubits: &[Qubit]) -> Option<Channel> {
        match gate.arity() {
            1 => Some(Channel::depolarizing(self.q1_error[qubits[0].0])),
            _ => {
                let (a, b) = (qubits[0].0, qubits[1].0);
                let e = self.q2_error(a, b).unwrap_or_else(|| {
                    panic!("2-qubit gate on uncoupled pair ({a},{b}); route the program first")
                });
                Some(Channel::depolarizing2(e))
            }
        }
    }

    /// Applies per-qubit readout confusion to a measured distribution over
    /// the listed qubits (`probs.len() == 2^qubits.len()`, MSB-first).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn apply_readout(&self, probs: &[f64], qubits: &[usize]) -> Vec<f64> {
        let k = qubits.len();
        assert_eq!(probs.len(), 1 << k, "distribution length mismatch");
        let mut p = probs.to_vec();
        for (pos, &q) in qubits.iter().enumerate() {
            let r = self.readout_error[q];
            let sh = k - 1 - pos;
            let mut next = vec![0.0; p.len()];
            for (idx, &val) in p.iter().enumerate() {
                let flipped = idx ^ (1 << sh);
                next[idx] += val * (1.0 - r);
                next[flipped] += val * r;
            }
            p = next;
        }
        p
    }

    /// A sound upper bound on the statistical distance added by readout
    /// confusion on the listed qubits: `Σ_q r_q` (union bound).
    pub fn readout_error_bound(&self, qubits: &[usize]) -> f64 {
        qubits.iter().map(|&q| self.readout_error[q]).sum()
    }

    /// The IBM Boeblingen 20-qubit device (paper Fig. 15, left) with
    /// synthetic calibration (see module docs).
    pub fn boeblingen20() -> Self {
        let edges = [
            (0usize, 1usize),
            (1, 2),
            (2, 3),
            (3, 4),
            (1, 6),
            (3, 8),
            (5, 6),
            (6, 7),
            (7, 8),
            (8, 9),
            (5, 10),
            (7, 12),
            (9, 14),
            (10, 11),
            (11, 12),
            (12, 13),
            (13, 14),
            (11, 16),
            (13, 18),
            (15, 16),
            (16, 17),
            (17, 18),
            (18, 19),
        ];
        let coupling = CouplingMap::from_edges(20, &edges);
        let q1 = vec![
            4.2e-4, 5.1e-4, 3.8e-4, 4.9e-4, 6.0e-4, 5.5e-4, 4.4e-4, 3.9e-4, 5.8e-4, 7.2e-4, 4.1e-4,
            5.3e-4, 4.7e-4, 3.6e-4, 6.4e-4, 5.0e-4, 4.3e-4, 5.6e-4, 4.8e-4, 6.8e-4,
        ];
        let q2 = vec![
            ((0, 1), 2.6e-2),
            ((1, 2), 1.4e-2),
            ((2, 3), 0.9e-2),
            ((3, 4), 1.9e-2),
            ((1, 6), 1.6e-2),
            ((3, 8), 1.2e-2),
            ((5, 6), 1.1e-2),
            ((6, 7), 1.3e-2),
            ((7, 8), 1.0e-2),
            ((8, 9), 1.7e-2),
            ((5, 10), 1.5e-2),
            ((7, 12), 1.2e-2),
            ((9, 14), 2.1e-2),
            ((10, 11), 1.0e-2),
            ((11, 12), 0.9e-2),
            ((12, 13), 1.1e-2),
            ((13, 14), 1.6e-2),
            ((11, 16), 1.4e-2),
            ((13, 18), 1.3e-2),
            ((15, 16), 1.2e-2),
            ((16, 17), 1.0e-2),
            ((17, 18), 1.5e-2),
            ((18, 19), 1.8e-2),
        ];
        let readout = vec![
            3.2e-2, 2.1e-2, 1.8e-2, 2.4e-2, 2.9e-2, 2.6e-2, 2.2e-2, 1.9e-2, 2.7e-2, 3.5e-2, 2.0e-2,
            2.3e-2, 2.1e-2, 1.7e-2, 3.0e-2, 2.4e-2, 2.0e-2, 2.6e-2, 2.2e-2, 3.3e-2,
        ];
        Self::new(
            "ibm-boeblingen (synthetic calibration)",
            coupling,
            q1,
            q2,
            readout,
        )
    }

    /// The IBM Lima 5-qubit device (paper Fig. 15, right — T topology) with
    /// synthetic calibration.
    pub fn lima5() -> Self {
        let coupling = CouplingMap::from_edges(5, &[(0, 1), (1, 2), (1, 3), (3, 4)]);
        let q1 = vec![3.1e-4, 2.8e-4, 4.0e-4, 3.5e-4, 5.2e-4];
        let q2 = vec![
            ((0, 1), 0.9e-2),
            ((1, 2), 1.3e-2),
            ((1, 3), 1.1e-2),
            ((3, 4), 1.6e-2),
        ];
        let readout = vec![2.0e-2, 1.5e-2, 2.8e-2, 2.2e-2, 3.1e-2];
        Self::new(
            "ibm-lima (synthetic calibration)",
            coupling,
            q1,
            q2,
            readout,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boeblingen_topology_matches_figure() {
        let dev = DeviceModel::boeblingen20();
        let c = dev.coupling();
        assert_eq!(c.n_qubits(), 20);
        assert_eq!(c.edges().len(), 23);
        // Spot checks from Fig. 15.
        assert!(c.are_adjacent(0, 1));
        assert!(c.are_adjacent(1, 6));
        assert!(c.are_adjacent(9, 14));
        assert!(!c.are_adjacent(0, 5));
        assert!(!c.are_adjacent(4, 9));
        assert!(c.is_connected());
    }

    #[test]
    fn lima_topology_is_t_shaped() {
        let dev = DeviceModel::lima5();
        let c = dev.coupling();
        assert_eq!(c.edges().len(), 4);
        assert!(c.are_adjacent(1, 3));
        assert!(!c.are_adjacent(2, 3));
        assert!(c.is_connected());
    }

    #[test]
    fn calibration_lookup() {
        let dev = DeviceModel::boeblingen20();
        assert!(dev.q2_error(1, 0).is_some()); // order-insensitive
        assert!(dev.q2_error(0, 2).is_none());
        assert!(dev.q1_error(0) > 0.0);
        assert!(dev.readout_error(19) > 0.0);
    }

    #[test]
    fn channel_for_uses_calibration() {
        let dev = DeviceModel::lima5();
        let ch = dev.channel_for(&Gate::Cnot, &[Qubit(3), Qubit(4)]).unwrap();
        assert_eq!(ch.arity(), 2);
    }

    #[test]
    #[should_panic(expected = "uncoupled")]
    fn channel_for_rejects_uncoupled_pair() {
        let dev = DeviceModel::lima5();
        let _ = dev.channel_for(&Gate::Cnot, &[Qubit(0), Qubit(4)]);
    }

    #[test]
    fn readout_confusion_preserves_normalization() {
        let dev = DeviceModel::lima5();
        let probs = vec![0.5, 0.0, 0.0, 0.5];
        let out = dev.apply_readout(&probs, &[0, 1]);
        let total: f64 = out.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Mass leaked off the ideal support.
        assert!(out[1] > 0.0 && out[2] > 0.0);
    }

    #[test]
    fn readout_bound_dominates_observed_shift() {
        let dev = DeviceModel::lima5();
        let probs = vec![1.0, 0.0, 0.0, 0.0];
        let out = dev.apply_readout(&probs, &[0, 1]);
        let tv: f64 = 0.5
            * probs
                .iter()
                .zip(&out)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>();
        assert!(tv <= dev.readout_error_bound(&[0, 1]) + 1e-12);
    }

    #[test]
    #[should_panic(expected = "missing 2q calibration")]
    fn constructor_requires_full_edge_calibration() {
        let coupling = CouplingMap::from_edges(2, &[(0, 1)]);
        let _ = DeviceModel::new("bad", coupling, vec![1e-4; 2], vec![], vec![1e-2; 2]);
    }
}
