//! Regenerates the paper's **Table 3**: the qubit-mapping case study —
//! Gleipnir bounds vs measured errors for GHZ-3 and GHZ-5 under different
//! physical placements on the Boeblingen device model.
//!
//! The "measured" column substitutes exact noisy density-matrix simulation
//! (plus readout confusion) for the real IBM hardware: both columns read
//! the same synthetic device model (`gleipnir_noise::DeviceModel`).
//!
//! Usage:
//!
//! ```text
//! cargo run -p gleipnir-bench --release --bin table3
//! ```

use gleipnir_bench::{format_table3, run_mapping_experiment};
use gleipnir_core::Engine;
use gleipnir_noise::DeviceModel;

fn main() {
    let device = DeviceModel::boeblingen20();
    // The paper's five mappings (§7.2).
    let experiments: Vec<(usize, Vec<usize>)> = vec![
        (3, vec![0, 1, 2]),
        (3, vec![1, 2, 3]),
        (3, vec![2, 3, 4]),
        (5, vec![0, 1, 2, 3, 4]),
        (5, vec![2, 1, 0, 3, 4]),
    ];

    let engine = Engine::new();
    let mut rows = Vec::new();
    for (n, placement) in experiments {
        eprintln!("running GHZ-{n} with mapping {placement:?}…");
        match run_mapping_experiment(&engine, &device, n, &placement) {
            Ok(row) => {
                eprintln!(
                    "  bound {:.3}, measured {:.3} ({} routed 2q gates)",
                    row.gleipnir_bound, row.measured, row.routed_2q_gates
                );
                rows.push(row);
            }
            Err(e) => eprintln!("  FAILED: {e}"),
        }
    }
    println!("{}", format_table3(&rows));

    // Consistency check the paper highlights: the bound ranking must match
    // the measured ranking within each circuit class.
    for circuit in ["GHZ-3", "GHZ-5"] {
        let mut class: Vec<_> = rows.iter().filter(|r| r.circuit == circuit).collect();
        class.sort_by(|a, b| a.gleipnir_bound.partial_cmp(&b.gleipnir_bound).unwrap());
        let by_bound: Vec<&str> = class.iter().map(|r| r.mapping.as_str()).collect();
        class.sort_by(|a, b| a.measured.partial_cmp(&b.measured).unwrap());
        let by_measured: Vec<&str> = class.iter().map(|r| r.mapping.as_str()).collect();
        println!(
            "{circuit}: ranking by bound {:?} {} ranking by measured {:?}",
            by_bound,
            if by_bound == by_measured { "==" } else { "!=" },
            by_measured
        );
    }
}
