//! Circuit generators for the paper's workload classes (§7.1): QAOA
//! max-cut, the transverse-field Ising model, and GHZ states.

use crate::Graph;
use gleipnir_circuit::{decompose_to_cnot_basis, Program, ProgramBuilder};

/// QAOA max-cut circuit for a graph (Farhi et al. \[12\]).
///
/// Structure: a Hadamard on every qubit, then for each layer `ℓ` the cost
/// evolution `Π_(u,v)∈E RZZ(2γ_ℓ)` followed by the mixer `Π_q RX(2β_ℓ)`.
///
/// # Panics
///
/// Panics if `gammas` and `betas` have different lengths or are empty.
///
/// # Examples
///
/// ```
/// use gleipnir_workloads::{qaoa_maxcut, Graph};
///
/// let p = qaoa_maxcut(&Graph::line(4), &[0.4], &[0.7]);
/// // 4 H + 3 RZZ + 4 RX.
/// assert_eq!(p.gate_count(), 11);
/// ```
pub fn qaoa_maxcut(graph: &Graph, gammas: &[f64], betas: &[f64]) -> Program {
    assert_eq!(gammas.len(), betas.len(), "γ/β layer count mismatch");
    assert!(!gammas.is_empty(), "QAOA needs at least one layer");
    let n = graph.n_vertices();
    let mut b = ProgramBuilder::new(n);
    for q in 0..n {
        b.h(q);
    }
    for (&gamma, &beta) in gammas.iter().zip(betas) {
        for &(u, v) in graph.edges() {
            b.rzz(u, v, 2.0 * gamma);
        }
        for q in 0..n {
            b.rx(q, 2.0 * beta);
        }
    }
    b.build()
}

/// First-order Trotterized transverse-field Ising evolution on a chain:
///
/// `H = −J Σ Z_i Z_{i+1} − h Σ X_i`, time step `dt`, `layers` steps, with an
/// initial Hadamard layer preparing `|+⟩ⁿ` (a standard quench protocol).
///
/// Per layer: `n−1` RZZ(−2·J·dt) + `n` RX(−2·h·dt); total gate count is
/// `n + layers·(2n − 1)`.
///
/// # Panics
///
/// Panics for `n < 2` or `layers == 0`.
pub fn ising_chain(n: usize, layers: usize, j: f64, h: f64, dt: f64) -> Program {
    assert!(n >= 2, "Ising chain needs at least 2 sites");
    assert!(layers > 0, "Ising evolution needs at least one layer");
    let mut b = ProgramBuilder::new(n);
    for q in 0..n {
        b.h(q);
    }
    for _ in 0..layers {
        for q in 0..n - 1 {
            b.rzz(q, q + 1, -2.0 * j * dt);
        }
        for q in 0..n {
            b.rx(q, -2.0 * h * dt);
        }
    }
    b.build()
}

/// The GHZ-`n` circuit (paper Fig. 16): `H(q0)` then a CNOT chain.
///
/// # Panics
///
/// Panics for `n < 2`.
pub fn ghz(n: usize) -> Program {
    assert!(n >= 2, "GHZ needs at least 2 qubits");
    let mut b = ProgramBuilder::new(n);
    b.h(0);
    for q in 1..n {
        b.cnot(q - 1, q);
    }
    b.build()
}

/// The pipeline-determinism suite: small circuits covering every
/// statement shape the analysis walk handles (straight-line gates,
/// repeated structure with cache-identical judgments, genuine MPS
/// truncation, measurement branching with a continuation, and
/// non-adjacent operands that force routing swaps).
///
/// Returns `(name, program, mps_width)` triples. The widths are chosen so
/// some circuits are exact (δ = 0) and some truncate (δ buckets vary),
/// exercising both cache paths. Used by the fixture generator and the
/// plan/solve/assemble determinism test (`tests/pipeline_determinism.rs`),
/// which require bit-for-bit stability — change this suite only together
/// with the committed oracle fixture.
pub fn determinism_suite() -> Vec<(String, Program, usize)> {
    let mut meas = ProgramBuilder::new(2);
    meas.h(0)
        .if_measure(
            0,
            |z| {
                z.x(1);
            },
            |o| {
                o.z(1);
            },
        )
        .h(1);
    let mut nonadj = ProgramBuilder::new(4);
    nonadj.h(0).cnot(0, 3).rzz(0, 2, 0.5).rx(1, 0.3);
    vec![
        ("ghz4".into(), ghz(4), 4),
        (
            "ising6x4_w2".into(),
            ising_chain(6, 4, 1.0, 1.0, 0.1),
            2, // narrow on purpose: truncation spreads judgments over δ buckets
        ),
        (
            "qaoa_cycle6_w8".into(),
            qaoa_maxcut(&Graph::cycle(6), &[0.35], &[0.62]),
            8,
        ),
        ("measure2".into(), meas.build(), 4),
        ("nonadjacent4".into(), nonadj.build(), 8),
    ]
}

/// A named benchmark: one row of the paper's Table 2.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// The paper's benchmark name.
    pub name: &'static str,
    /// Register width.
    pub n_qubits: usize,
    /// The paper's reported gate count (for comparison).
    pub paper_gate_count: usize,
    /// The generated program.
    pub program: Program,
}

/// The nine benchmarks of Table 2, regenerated.
///
/// Exact graph instances for the random benchmarks are unpublished, so
/// seeded graphs with matching size are used; layer counts and (where the
/// paper's counts imply it) RZZ decomposition into `CNOT·RZ·CNOT` are
/// chosen so the gate counts match the table where the stated construction
/// allows. Each row keeps the table's count in
/// [`Benchmark::paper_gate_count`], so a mismatch shows next to the
/// generated program's own count.
pub fn paper_benchmarks() -> Vec<Benchmark> {
    let angles = (0.35, 0.62); // representative (γ, β); the bound shape is angle-robust
    let (g, b) = angles;
    vec![
        Benchmark {
            name: "QAOA_line_10",
            n_qubits: 10,
            paper_gate_count: 27,
            program: qaoa_maxcut(&Graph::line(10), &[g], &[b]),
        },
        Benchmark {
            name: "Isingmodel10",
            n_qubits: 10,
            paper_gate_count: 480,
            program: ising_chain(10, 25, 1.0, 1.0, 0.1),
        },
        Benchmark {
            name: "QAOARandom20",
            n_qubits: 20,
            paper_gate_count: 160,
            program: decompose_to_cnot_basis(&qaoa_maxcut(
                &Graph::erdos_renyi_m(20, 40, 2021),
                &[g],
                &[b],
            )),
        },
        Benchmark {
            name: "QAOA4reg_20",
            n_qubits: 20,
            paper_gate_count: 160,
            program: decompose_to_cnot_basis(&qaoa_maxcut(
                &Graph::random_regular(20, 4, 2021).expect("4-regular(20)"),
                &[g],
                &[b],
            )),
        },
        Benchmark {
            name: "QAOA4reg_30",
            n_qubits: 30,
            paper_gate_count: 240,
            program: decompose_to_cnot_basis(&qaoa_maxcut(
                &Graph::random_regular(30, 4, 2021).expect("4-regular(30)"),
                &[g],
                &[b],
            )),
        },
        Benchmark {
            name: "Isingmodel45",
            n_qubits: 45,
            paper_gate_count: 2265,
            program: ising_chain(45, 25, 1.0, 1.0, 0.1),
        },
        Benchmark {
            name: "QAOA50",
            n_qubits: 50,
            paper_gate_count: 399,
            program: qaoa_maxcut(&Graph::erdos_renyi_m(50, 299, 2021), &[g], &[b]),
        },
        Benchmark {
            name: "QAOA75",
            n_qubits: 75,
            paper_gate_count: 597,
            program: qaoa_maxcut(&Graph::erdos_renyi_m(75, 447, 2021), &[g], &[b]),
        },
        Benchmark {
            name: "QAOA100",
            n_qubits: 100,
            paper_gate_count: 677,
            program: qaoa_maxcut(&Graph::erdos_renyi_m(100, 477, 2021), &[g], &[b]),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qaoa_gate_counts() {
        let g = Graph::line(10);
        let p = qaoa_maxcut(&g, &[0.4], &[0.7]);
        assert_eq!(p.gate_count(), 10 + 9 + 10);
        let p2 = qaoa_maxcut(&g, &[0.4, 0.1], &[0.7, 0.2]);
        assert_eq!(p2.gate_count(), 10 + 2 * (9 + 10));
    }

    #[test]
    fn ising_gate_counts() {
        let p = ising_chain(10, 25, 1.0, 1.0, 0.1);
        assert_eq!(p.gate_count(), 10 + 25 * 19);
        assert_eq!(p.n_qubits(), 10);
    }

    #[test]
    fn ghz_structure() {
        let p = ghz(5);
        assert_eq!(p.gate_count(), 5);
        assert_eq!(p.two_qubit_gate_count(), 4);
        assert_eq!(p.depth(), 5);
    }

    #[test]
    fn paper_benchmarks_match_reported_counts() {
        for bench in paper_benchmarks() {
            assert_eq!(bench.program.n_qubits(), bench.n_qubits, "{}", bench.name);
            let actual = bench.program.gate_count();
            let paper = bench.paper_gate_count;
            let slack = (paper as f64 * 0.05).ceil() as usize + 5;
            assert!(
                actual.abs_diff(paper) <= slack,
                "{}: generated {actual} vs paper {paper}",
                bench.name
            );
        }
    }

    #[test]
    fn exact_count_benchmarks() {
        // Rows where the paper's count is hit exactly.
        let map: std::collections::HashMap<&str, usize> = paper_benchmarks()
            .into_iter()
            .map(|b| (b.name, b.program.gate_count()))
            .collect();
        assert_eq!(map["QAOARandom20"], 160);
        assert_eq!(map["QAOA4reg_20"], 160);
        assert_eq!(map["QAOA4reg_30"], 240);
        assert_eq!(map["QAOA50"], 399);
        assert_eq!(map["QAOA75"], 597);
        assert_eq!(map["QAOA100"], 677);
    }

    #[test]
    fn benchmarks_are_straight_line() {
        for bench in paper_benchmarks() {
            assert!(bench.program.is_straight_line(), "{}", bench.name);
        }
    }
}
