//! # gleipnir-bench
//!
//! The evaluation harness: everything needed to regenerate the paper's
//! Table 2, Figure 14, and Table 3, shared by the `table2`, `figure14`, and
//! `table3` binaries.
//!
//! Every experiment runner takes the caller's [`Engine`] so whole tables
//! and sweeps share one SDP-certificate cache, the way a long-running
//! analysis service would.

#![warn(missing_docs)]

use gleipnir_circuit::{compact_program, route_with_final, CouplingMap, Mapping, Program};
use gleipnir_core::{AnalysisError, AnalysisRequest, Engine, Method};
use gleipnir_noise::{DeviceModel, NoiseModel};
use gleipnir_sim::{statistical_distance, DensityMatrix};
use gleipnir_workloads::ghz;
use std::time::{Duration, Instant};

/// One evaluated Table 2 row.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Register width.
    pub qubits: usize,
    /// Generated gate count.
    pub gates: usize,
    /// The paper's reported gate count.
    pub paper_gates: usize,
    /// Gleipnir's certified bound.
    pub gleipnir_bound: f64,
    /// Analysis wall-clock time.
    pub gleipnir_time: Duration,
    /// The LQR-with-full-simulation bound (None = "timed out" per paper's
    /// protocol for ≥ 20 qubits).
    pub lqr_bound: Option<f64>,
    /// LQR runtime, when attempted.
    pub lqr_time: Option<Duration>,
    /// The unconstrained worst-case bound.
    pub worst_case: f64,
}

/// Evaluates one Table 2 benchmark at the given MPS width on the caller's
/// engine.
///
/// `attempt_lqr` controls the full-simulation column; the paper's protocol
/// (and the exponential cost) limits it to ≤ 10 qubits.
///
/// # Errors
///
/// Propagates analysis failures.
pub fn run_table2_row(
    engine: &Engine,
    name: &str,
    program: &Program,
    paper_gates: usize,
    width: usize,
    attempt_lqr: bool,
) -> Result<Table2Row, AnalysisError> {
    let noise = NoiseModel::uniform_bit_flip(1e-4);
    let request = |method: Method| {
        AnalysisRequest::builder(program.clone())
            .noise(noise.clone())
            .method(method)
            .build()
    };

    let t0 = Instant::now();
    let report = engine.analyze(&request(Method::StateAware { mps_width: width })?)?;
    let gleipnir_time = t0.elapsed();

    let worst = engine.analyze(&request(Method::WorstCase)?)?;

    let (lqr_bound, lqr_time) = if attempt_lqr && program.n_qubits() <= 10 {
        let t1 = Instant::now();
        match engine.analyze(&request(Method::LqrFullSim)?) {
            Ok(r) => (Some(r.error_bound()), Some(t1.elapsed())),
            Err(_) => (None, None),
        }
    } else {
        (None, None)
    };

    Ok(Table2Row {
        name: name.to_string(),
        qubits: program.n_qubits(),
        gates: program.gate_count(),
        paper_gates,
        gleipnir_bound: report.error_bound(),
        gleipnir_time,
        lqr_bound,
        lqr_time,
        worst_case: worst.error_bound(),
    })
}

/// Formats Table 2 rows like the paper (bounds in units of 1e-4).
pub fn format_table2(rows: &[Table2Row], width: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 2 — Gleipnir (w = {width}) vs LQR-full-sim vs worst case (bounds ×1e-4)\n"
    ));
    out.push_str(&format!(
        "{:<14} {:>6} {:>6} {:>7} {:>16} {:>10} {:>14} {:>10} {:>12}\n",
        "Benchmark",
        "qubits",
        "gates",
        "(paper)",
        "Gleipnir(×1e-4)",
        "time(s)",
        "LQR(×1e-4)",
        "time(s)",
        "worst(×1e-4)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>6} {:>6} {:>7} {:>16.2} {:>10.2} {:>14} {:>10} {:>12.1}\n",
            r.name,
            r.qubits,
            r.gates,
            r.paper_gates,
            r.gleipnir_bound * 1e4,
            r.gleipnir_time.as_secs_f64(),
            r.lqr_bound
                .map_or("timed out".to_string(), |b| format!("{:.2}", b * 1e4)),
            r.lqr_time
                .map_or("-".to_string(), |t| format!("{:.2}", t.as_secs_f64())),
            r.worst_case * 1e4,
        ));
    }
    out
}

/// One evaluated Table 3 row: a GHZ circuit under a specific mapping.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Circuit name (GHZ-3 / GHZ-5).
    pub circuit: String,
    /// The mapping, paper notation (physical qubits in logical order).
    pub mapping: String,
    /// Gleipnir's bound (gate errors + readout-error term).
    pub gleipnir_bound: f64,
    /// The measured error: statistical distance of the simulated noisy
    /// device distribution from the ideal GHZ distribution. Exact noisy
    /// simulation on the device model stands in for the IBM hardware the
    /// paper ran on.
    pub measured: f64,
    /// Number of 2-qubit gates after routing (swap overhead indicator).
    pub routed_2q_gates: usize,
}

/// Runs one mapping experiment of the §7.2 study on a device model.
///
/// The logical circuit is routed onto the device under `placement`; the
/// bound side analyzes the routed noisy circuit with Gleipnir and adds the
/// sound readout-error term `Σ r_q`; the measured side simulates the noisy
/// circuit exactly (density matrix on the compacted register), applies
/// readout confusion, and reports the statistical distance from the ideal
/// GHZ distribution.
///
/// # Errors
///
/// Propagates routing and analysis failures.
///
/// # Panics
///
/// Panics if the compacted register exceeds 12 qubits (not the case for the
/// paper's GHZ-3/GHZ-5 mappings).
pub fn run_mapping_experiment(
    engine: &Engine,
    device: &DeviceModel,
    ghz_n: usize,
    placement: &[usize],
) -> Result<Table3Row, Box<dyn std::error::Error>> {
    let logical = ghz(ghz_n);
    let mapping = Mapping::new(placement.to_vec());
    let (routed, final_placement) = route_with_final(&logical, device.coupling(), &mapping)?;

    // Compact to the touched physical qubits for tractable dense simulation.
    let (compact, originals) = compact_program(&routed);
    assert!(compact.n_qubits() <= 12, "compacted register too large");

    // A device view over the compact register (same calibration, renumbered).
    let compact_device = compact_device_view(device, &originals);
    let noise = NoiseModel::Device(compact_device.clone());

    // ---- Bound side -------------------------------------------------
    let request = AnalysisRequest::builder(compact.clone())
        .noise(noise.clone())
        .method(Method::StateAware { mps_width: 32 })
        .build()?;
    let report = engine.analyze(&request)?;
    // Physical qubits measured: where the logical GHZ qubits ended up.
    let measured_phys: Vec<usize> = (0..ghz_n).map(|l| final_placement.physical(l)).collect();
    let readout_term = device.readout_error_bound(&measured_phys);
    let bound = report.error_bound() + readout_term;

    // ---- Measured side ----------------------------------------------
    let mut rho = DensityMatrix::zero_state(compact.n_qubits());
    rho.run_noisy(&compact, &|gate, qubits| {
        noise
            .channel_for(gate, qubits)
            .map(|ch| ch.kraus().to_vec())
    });
    // Distribution over the measured (compact) qubits, MSB-first in logical
    // order.
    let measured_compact: Vec<usize> = measured_phys
        .iter()
        .map(|p| {
            originals
                .iter()
                .position(|&o| o == *p)
                .expect("measured qubit touched")
        })
        .collect();
    let probs = marginal_distribution(&rho, &measured_compact);
    let noisy_probs = compact_device.apply_readout(&probs, &measured_compact);
    // Ideal GHZ distribution: half |0…0⟩, half |1…1⟩.
    let mut ideal = vec![0.0; 1 << ghz_n];
    ideal[0] = 0.5;
    ideal[(1 << ghz_n) - 1] = 0.5;
    let measured = statistical_distance(&noisy_probs, &ideal);

    Ok(Table3Row {
        circuit: format!("GHZ-{ghz_n}"),
        mapping: placement
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join("-"),
        gleipnir_bound: bound,
        measured,
        routed_2q_gates: routed.two_qubit_gate_count(),
    })
}

/// Builds a compact-register device view with calibration copied from the
/// original device via `originals[compact] = physical`.
fn compact_device_view(device: &DeviceModel, originals: &[usize]) -> DeviceModel {
    let n = originals.len();
    let mut edges = Vec::new();
    let mut q2 = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            if let Some(e) = device.q2_error(originals[a], originals[b]) {
                edges.push((a, b));
                q2.push(((a, b), e));
            }
        }
    }
    DeviceModel::new(
        format!("{} (compact view)", device.name()),
        CouplingMap::from_edges(n, &edges),
        originals.iter().map(|&p| device.q1_error(p)).collect(),
        q2,
        originals.iter().map(|&p| device.readout_error(p)).collect(),
    )
}

/// Marginal distribution of the listed qubits (MSB-first in the given
/// order) from a density matrix.
fn marginal_distribution(rho: &DensityMatrix, qubits: &[usize]) -> Vec<f64> {
    let full = rho.probabilities();
    let n = rho.n_qubits();
    let k = qubits.len();
    let mut out = vec![0.0; 1 << k];
    for (idx, p) in full.iter().enumerate() {
        let mut m = 0usize;
        for (pos, &q) in qubits.iter().enumerate() {
            let bit = (idx >> (n - 1 - q)) & 1;
            m |= bit << (k - 1 - pos);
        }
        out[m] += p;
    }
    out
}

/// Formats Table 3 rows like the paper.
pub fn format_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 3 — qubit-mapping study on the Boeblingen device model\n");
    out.push_str(&format!(
        "{:<8} {:<12} {:>15} {:>15} {:>10}\n",
        "Circuit", "Mapping", "Gleipnir bound", "Measured error", "2q gates"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<12} {:>15.3} {:>15.3} {:>10}\n",
            r.circuit, r.mapping, r.gleipnir_bound, r.measured, r.routed_2q_gates
        ));
    }
    out
}

/// One point of the Figure 14 sweep.
#[derive(Clone, Debug)]
pub struct Figure14Point {
    /// MPS width.
    pub width: usize,
    /// Gleipnir's bound at this width.
    pub bound: f64,
    /// Analysis runtime.
    pub time: Duration,
    /// Total MPS truncation error δ at this width.
    pub tn_delta: f64,
}

/// Runs the Figure 14 sweep (error bound and runtime vs MPS width) for a
/// program under the paper's bit-flip noise, on the caller's engine — so
/// wider widths reuse the narrower widths' certificates.
///
/// # Errors
///
/// Propagates analysis failures.
pub fn run_figure14(
    engine: &Engine,
    program: &Program,
    widths: &[usize],
) -> Result<Vec<Figure14Point>, AnalysisError> {
    let noise = NoiseModel::uniform_bit_flip(1e-4);
    let mut points = Vec::new();
    for &w in widths {
        let request = AnalysisRequest::builder(program.clone())
            .noise(noise.clone())
            .method(Method::StateAware { mps_width: w })
            .build()?;
        let t0 = Instant::now();
        let report = engine.analyze(&request)?;
        points.push(Figure14Point {
            width: w,
            bound: report.error_bound(),
            time: t0.elapsed(),
            tn_delta: report.tn_delta().unwrap_or(0.0),
        });
    }
    Ok(points)
}

/// Formats the Figure 14 series.
pub fn format_figure14(points: &[Figure14Point], program_name: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 14 — error bound and runtime vs MPS size ({program_name})\n"
    ));
    out.push_str(&format!(
        "{:>6} {:>18} {:>12} {:>12}\n",
        "w", "bound(×1e-4)", "runtime(s)", "TN δ"
    ));
    for p in points {
        out.push_str(&format!(
            "{:>6} {:>18.2} {:>12.2} {:>12.4}\n",
            p.width,
            p.bound * 1e4,
            p.time.as_secs_f64(),
            p.tn_delta
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marginal_distribution_of_bell_pair() {
        let mut b = gleipnir_circuit::ProgramBuilder::new(3);
        b.h(0).cnot(0, 2);
        let mut rho = DensityMatrix::zero_state(3);
        rho.run(&b.build());
        let m = marginal_distribution(&rho, &[0, 2]);
        assert!((m[0] - 0.5).abs() < 1e-12);
        assert!((m[3] - 0.5).abs() < 1e-12);
        let m = marginal_distribution(&rho, &[2, 0]);
        assert!((m[0] - 0.5).abs() < 1e-12);
        assert!((m[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn compact_device_preserves_calibration() {
        let dev = DeviceModel::boeblingen20();
        let view = compact_device_view(&dev, &[1, 2, 3]);
        assert_eq!(view.q1_error(0), dev.q1_error(1));
        assert_eq!(view.q2_error(0, 1), dev.q2_error(1, 2));
        assert_eq!(view.readout_error(2), dev.readout_error(3));
    }

    #[test]
    fn mapping_experiment_bound_dominates_measurement() {
        let dev = DeviceModel::boeblingen20();
        let row = run_mapping_experiment(&Engine::new(), &dev, 3, &[1, 2, 3]).unwrap();
        assert!(
            row.gleipnir_bound >= row.measured,
            "bound {} below measured {}",
            row.gleipnir_bound,
            row.measured
        );
        assert!(row.measured > 0.0);
    }
}
