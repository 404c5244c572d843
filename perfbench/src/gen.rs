//! Seeded input generation. Every program, request mix and edit chain the
//! benchmark sends is a pure function of the `--seed` argument, so a seed
//! reproduces byte-identical GLQ sources and edit chains.

use gleipnir_circuit::pretty;
use gleipnir_workloads::{ising_chain, qaoa_maxcut, Graph};

/// SplitMix64: tiny, well mixed, and fully specified here, so inputs do not
/// depend on any other crate's generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One program the benchmark analyzes, with the parameters every surface
/// (engine request or HTTP body) needs.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    pub name: String,
    pub source: String,
    pub width: usize,
    pub noise: &'static str,
}

/// Noise specs, spelled as `gleipnir analyze --noise` and the server take them.
pub const BITFLIP: &str = "bitflip:1e-4";
pub const AMPDAMP: &str = "ampdamp:1e-4";

/// The 288-gate Ising chain (`ising_chain(12, 12, …)`) the ε pins refer to.
pub fn ising288() -> String {
    pretty(&ising_chain(12, 12, 1.0, 1.0, 0.1))
}

/// `cold_suite`: Ising-288 under bit flip and under amplitude damping, plus
/// one seeded Erdős–Rényi QAOA. The QAOA keeps one shape (18 qubits, 27
/// edges) so every seed costs about the same; the seed draws its edges and
/// angles.
pub fn cold_suite(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed ^ 0xC01D);
    let n = 18;
    let graph = Graph::erdos_renyi_m(n, n + n / 2, rng.next_u64());
    let gamma = rng.uniform(0.2, 0.6);
    let beta = rng.uniform(0.2, 0.6);
    vec![
        Job {
            name: "ising288-bitflip".into(),
            source: ising288(),
            width: 8,
            noise: BITFLIP,
        },
        Job {
            name: "ising288-ampdamp".into(),
            source: ising288(),
            width: 8,
            noise: AMPDAMP,
        },
        Job {
            name: format!("qaoa-er{n}"),
            source: pretty(&qaoa_maxcut(&graph, &[gamma], &[beta])),
            width: 8,
            noise: AMPDAMP,
        },
    ]
}

/// `warm_serve`: the program set the server is primed with. The shapes
/// are fixed (6–20 qubits, 18–98 gates, widths 8–16) so every seed costs
/// about the same to serve; the seed draws angles, time steps, and the
/// edges of the two small random graphs.
pub fn warm_set(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed ^ 0x5E7);
    let qaoa = |rng: &mut Rng, graph: Graph, width: usize| {
        let (n, m) = (graph.n_vertices(), graph.n_edges());
        let gamma = rng.uniform(0.1, 0.9);
        let beta = rng.uniform(0.1, 0.9);
        Job {
            name: format!("qaoa{n}x{m}"),
            source: pretty(&qaoa_maxcut(&graph, &[gamma], &[beta])),
            width,
            noise: BITFLIP,
        }
    };
    let ising = |rng: &mut Rng, n: usize, layers: usize, width: usize| Job {
        name: format!("ising{n}x{layers}"),
        source: pretty(&ising_chain(n, layers, 1.0, 1.0, rng.uniform(0.05, 0.15))),
        width,
        noise: BITFLIP,
    };
    let er6 = Graph::erdos_renyi_m(6, 6, rng.next_u64());
    let er8 = Graph::erdos_renyi_m(8, 10, rng.next_u64());
    vec![
        qaoa(&mut rng, er6, 8),
        qaoa(&mut rng, er8, 16),
        qaoa(&mut rng, Graph::cycle(12), 16),
        qaoa(&mut rng, Graph::cycle(16), 8),
        ising(&mut rng, 6, 3, 8),
        ising(&mut rng, 10, 3, 8),
        ising(&mut rng, 20, 2, 16),
    ]
}

/// The order `warm_serve` clients send requests in: blocks that each hold
/// every program once, shuffled by the seed, so the traffic mix is the
/// same for every seed and only the order varies.
pub fn request_order(seed: u64, programs: usize, count: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x0DE5);
    let mut order = Vec::with_capacity(count + programs);
    while order.len() < count {
        let mut block: Vec<usize> = (0..programs).collect();
        rng.shuffle(&mut block);
        order.extend(block);
    }
    order.truncate(count);
    order
}

/// One step of an edit session: which gate's angle changed, and the full
/// program text after the edit.
#[derive(Clone, Debug, PartialEq)]
pub struct Edit {
    pub gate: usize,
    pub source: String,
}

/// Size of every angle edit (radians); the seed picks its sign.
const STEP: f64 = 0.25;

/// A chain of `count` one-rotation angle edits to `base`, each applied to
/// the previous version. Edits land in the last 40 % of the program: the
/// window is cut into `count` equal strata and the gate at the middle of
/// each stratum is edited once. Even chain positions take the even strata
/// and odd positions the odd ones (an edit session sends even positions by
/// `/diff` and odd ones anytime, so each stratum always takes the same
/// path). The seed draws the order within each half and the sign of every
/// angle change: a chain's cost is the same for every seed while its
/// inputs differ.
pub fn edit_chain(base: &str, seed: u64, count: usize) -> Vec<Edit> {
    let mut rng = Rng::new(seed ^ 0xED17);
    let mut lines: Vec<String> = base.lines().map(str::to_string).collect();
    // Line 0 is the `qubits N;` header; gate k sits on line k + 1.
    let gates = lines.len() - 1;
    let start = gates * 3 / 5;
    let window = gates - start;
    let mut even: Vec<usize> = (0..count).step_by(2).collect();
    let mut odd: Vec<usize> = (1..count).step_by(2).collect();
    rng.shuffle(&mut even);
    rng.shuffle(&mut odd);
    let strata = (0..count).map(|k| if k % 2 == 0 { even[k / 2] } else { odd[k / 2] });
    strata
        .map(|s| {
            let gate = start + (2 * s + 1) * window / (2 * count);
            let line = &mut lines[gate + 1];
            let (open, close) = match (line.find('('), line.find(')')) {
                (Some(o), Some(c)) => (o, c),
                _ => panic!("gate {gate} (`{line}`) has no rotation angle"),
            };
            let old: f64 = line[open + 1..close].parse().expect("numeric angle");
            let step = if rng.below(2) == 0 { -STEP } else { STEP };
            *line = format!("{}{}{}", &line[..=open], old + step, &line[close..]);
            Edit {
                gate,
                source: lines.join("\n") + "\n",
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_reproduces_its_inputs_byte_for_byte() {
        for seed in [0, 1, 42] {
            assert_eq!(cold_suite(seed), cold_suite(seed));
            assert_eq!(warm_set(seed), warm_set(seed));
            assert_eq!(request_order(seed, 7, 100), request_order(seed, 7, 100));
            assert_eq!(
                edit_chain(&ising288(), seed, 8),
                edit_chain(&ising288(), seed, 8)
            );
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(cold_suite(1)[2], cold_suite(2)[2]);
        assert_ne!(warm_set(1), warm_set(2));
        assert_ne!(request_order(1, 7, 100), request_order(2, 7, 100));
        assert_ne!(edit_chain(&ising288(), 1, 8), edit_chain(&ising288(), 2, 8));
    }

    #[test]
    fn ising_pins_use_the_seed_independent_program() {
        assert_eq!(cold_suite(1)[0].source, cold_suite(2)[0].source);
        assert_eq!(ising288().lines().count(), 289);
    }

    #[test]
    fn edits_are_one_angle_each_in_the_last_forty_percent() {
        let base = ising288();
        let chain = edit_chain(&base, 7, 8);
        let mut prev = base;
        let mut strata = Vec::new();
        for edit in &chain {
            assert!(edit.gate >= 288 * 3 / 5 && edit.gate < 288);
            let changed: Vec<usize> = prev
                .lines()
                .zip(edit.source.lines())
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(changed, vec![edit.gate + 1]);
            gleipnir_circuit::parse(&edit.source).expect("edited program parses");
            let stratum = (0..8)
                .find(|s| edit.gate < 172 + (s + 1) * 116 / 8)
                .unwrap();
            assert_eq!(
                stratum % 2,
                strata.len() % 2,
                "stratum parity follows position"
            );
            strata.push(stratum);
            prev = edit.source.clone();
        }
        strata.sort_unstable();
        assert_eq!(strata, (0..8).collect::<Vec<_>>(), "one edit per stratum");
    }

    #[test]
    fn request_blocks_hold_every_program_once() {
        let order = request_order(3, 7, 70);
        for block in order.chunks(7) {
            let mut b = block.to_vec();
            b.sort_unstable();
            assert_eq!(b, (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn warm_set_shapes_stay_in_range() {
        for job in warm_set(5) {
            let p = gleipnir_circuit::parse(&job.source).unwrap();
            assert!((6..=20).contains(&p.n_qubits()), "{}", job.name);
            assert!((18..=124).contains(&p.gate_count()), "{}", job.name);
            assert!(job.noise == BITFLIP);
            assert!((8..=16).contains(&job.width));
        }
    }
}
