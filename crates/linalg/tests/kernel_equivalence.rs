//! Bit-exactness harness for the structure-exploiting `RMat` kernels.
//!
//! The solver's determinism contract (the pipeline fixture, warm/cold ε
//! equality, the content-addressed certificate cache) requires that the
//! unrolled/sliced kernels produce **bit-identical** results to the
//! straightforward scalar loops they replaced — not merely close ones.
//! Every test here compares raw `f64` slices with `==` (no tolerance):
//! the kernels are only allowed to reassociate across *independent* output
//! lanes, never within one accumulation chain, so each output element must
//! come out of the exact same sequence of IEEE-754 operations as the
//! textbook loop.
//!
//! Shapes are drawn from a deterministic LCG and include 1×1, long-thin,
//! short-wide, and the solver's real block sizes (8, 32). The suite runs
//! unchanged under `GLEIPNIR_THREADS=1` and the default thread count (the
//! kernels are single-threaded; CI exercises both settings).

use gleipnir_linalg::lanes::{sym_sandwich_block_on, DotPrograms, DotTerm, LaneIsa};
use gleipnir_linalg::{
    axpy_slice, dot_slice, sym_eig, sym_eigvals, sym_tridiag_in_place, LaneMat, RMat,
};

/// Deterministic 64-bit LCG (Knuth MMIX constants) — no dev-dependency on
/// an RNG crate, and the stream is identical on every platform.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in [-1, 1), with an exact zero injected ~1/8 of the time so
    /// the zero-skip-removal paths (satellite of the kernel rewrite) see
    /// genuine zeros.
    fn coeff(&mut self) -> f64 {
        let r = self.next_u64();
        if r & 7 == 0 {
            return 0.0;
        }
        (r >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn size(&mut self, max: usize) -> usize {
        (self.next_u64() as usize % max) + 1
    }
}

fn random_mat(rng: &mut Lcg, rows: usize, cols: usize) -> RMat {
    RMat::from_fn(rows, cols, |_, _| rng.coeff())
}

/// A symmetric positive-definite matrix with bitwise-mirrored off-diagonal
/// entries (the form every matrix entering `cholesky` has in the solver).
fn random_spd(rng: &mut Lcg, n: usize) -> RMat {
    let b = random_mat(rng, n, n);
    let mut a = RMat::zeros(n, n);
    // aᵢⱼ = Σₖ bᵢₖbⱼₖ accumulated in one fixed order: exactly symmetric
    // bitwise, and diagonally dominant after the +n·I shift.
    for i in 0..n {
        for j in 0..n {
            let mut s = 0.0;
            for k in 0..n {
                s += b.at(i, k) * b.at(j, k);
            }
            a.set(i, j, s + if i == j { n as f64 } else { 0.0 });
        }
    }
    a
}

fn assert_bits_eq(got: &RMat, want: &RMat, what: &str) {
    assert_eq!(got.rows(), want.rows(), "{what}: row count");
    assert_eq!(got.cols(), want.cols(), "{what}: col count");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: element {i} differs: {g:e} vs {w:e} \
             (bits {:#018x} vs {:#018x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Reference matmul: the pre-optimization loop nest (row i, then k, then a
/// scalar sweep over j), accumulators initialized to +0.0. The optimized
/// kernel may only differ by skipping/keeping zero `aik` terms and by
/// unrolling over independent j lanes — both bit-neutral.
fn naive_mul_mat(a: &RMat, b: &RMat) -> RMat {
    let mut out = RMat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let aik = a.at(i, k);
            for j in 0..b.cols() {
                let v = out.at(i, j) + aik * b.at(k, j);
                out.set(i, j, v);
            }
        }
    }
    out
}

fn naive_mul_vec(a: &RMat, v: &[f64]) -> Vec<f64> {
    (0..a.rows())
        .map(|i| {
            let mut s = 0.0;
            for k in 0..a.cols() {
                s += a.at(i, k) * v[k];
            }
            s
        })
        .collect()
}

fn naive_trace_mul(a: &RMat, b: &RMat) -> f64 {
    let mut s = 0.0;
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            s += a.at(i, k) * b.at(k, i);
        }
    }
    s
}

fn naive_dot(a: &[f64], b: &[f64]) -> f64 {
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        s += x * y;
    }
    s
}

fn naive_axpy(y: &mut [f64], s: f64, x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += s * xi;
    }
}

/// Reference Cholesky: the textbook forward loop with one sequential
/// subtraction chain per element (the order `cholesky_into` preserves).
fn naive_cholesky(a: &RMat) -> Option<RMat> {
    let n = a.rows();
    let mut l = RMat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a.at(i, j);
            for p in 0..j {
                s -= l.at(i, p) * l.at(j, p);
            }
            if i == j {
                if s <= 0.0 || !s.is_finite() {
                    return None;
                }
                l.set(i, j, s.sqrt());
            } else {
                l.set(i, j, s / l.at(j, j));
            }
        }
    }
    Some(l)
}

fn naive_solve_lower(l: &RMat, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    let mut x = b.to_vec();
    for i in 0..n {
        let mut s = x[i];
        for j in 0..i {
            s -= l.at(i, j) * x[j];
        }
        x[i] = s / l.at(i, i);
    }
    x
}

fn naive_solve_lower_transpose(l: &RMat, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    let mut x = b.to_vec();
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in i + 1..n {
            s -= l.at(j, i) * x[j];
        }
        x[i] = s / l.at(i, i);
    }
    x
}

fn naive_symmetrize(a: &RMat) -> RMat {
    let n = a.rows();
    let mut out = RMat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            if i == j {
                out.set(i, j, 0.5 * (a.at(i, i) + a.at(i, i)));
            } else {
                out.set(i, j, 0.5 * (a.at(i, j) + a.at(j, i)));
            }
        }
    }
    out
}

/// Shapes covering the kernels' dispatch boundaries: 1×1, the ≤8 fast
/// path, 9 (first general-path width), the solver's block sizes, odd
/// non-square shapes, and LCG-drawn ones.
fn shapes(rng: &mut Lcg) -> Vec<(usize, usize, usize)> {
    let mut s = vec![
        (1, 1, 1),
        (1, 7, 1),
        (5, 1, 8),
        (2, 3, 4),
        (8, 8, 8),
        (8, 8, 9),
        (3, 9, 17),
        (32, 32, 32),
        (33, 5, 12),
        (4, 31, 1),
    ];
    for _ in 0..6 {
        s.push((rng.size(40), rng.size(40), rng.size(40)));
    }
    s
}

#[test]
fn mul_mat_matches_naive_reference_bitwise() {
    let mut rng = Lcg::new(0x9e3779b97f4a7c15);
    for (m, k, n) in shapes(&mut rng) {
        let a = random_mat(&mut rng, m, k);
        let b = random_mat(&mut rng, k, n);
        assert_bits_eq(&a.mul_mat(&b), &naive_mul_mat(&a, &b), "mul_mat");
        let mut out = RMat::zeros(m, n);
        a.mul_mat_into(&b, &mut out);
        assert_bits_eq(&out, &naive_mul_mat(&a, &b), "mul_mat_into");
    }
}

#[test]
fn mul_vec_matches_naive_reference_bitwise() {
    let mut rng = Lcg::new(0xdeadbeefcafef00d);
    for (m, k, _) in shapes(&mut rng) {
        let a = random_mat(&mut rng, m, k);
        let v: Vec<f64> = (0..k).map(|_| rng.coeff()).collect();
        let got = a.mul_vec(&v);
        let want = naive_mul_vec(&a, &v);
        for (g, w) in got.iter().zip(&want) {
            assert!(g.to_bits() == w.to_bits(), "mul_vec: {g:e} vs {w:e}");
        }
    }
}

#[test]
fn trace_mul_matches_naive_reference_bitwise() {
    let mut rng = Lcg::new(0x0123456789abcdef);
    for (m, k, _) in shapes(&mut rng) {
        let a = random_mat(&mut rng, m, k);
        let b = random_mat(&mut rng, k, m);
        let got = a.trace_mul(&b);
        let want = naive_trace_mul(&a, &b);
        assert!(
            got.to_bits() == want.to_bits(),
            "trace_mul: {got:e} vs {want:e}"
        );
    }
}

#[test]
fn dot_and_axpy_slices_match_naive_reference_bitwise() {
    let mut rng = Lcg::new(0x5555aaaa5555aaaa);
    for len in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 255] {
        let a: Vec<f64> = (0..len).map(|_| rng.coeff()).collect();
        let b: Vec<f64> = (0..len).map(|_| rng.coeff()).collect();
        let got = dot_slice(&a, &b);
        let want = naive_dot(&a, &b);
        assert!(got.to_bits() == want.to_bits(), "dot_slice len {len}");

        let s = rng.coeff();
        let mut y1 = a.clone();
        let mut y2 = a.clone();
        axpy_slice(&mut y1, s, &b);
        naive_axpy(&mut y2, s, &b);
        for (g, w) in y1.iter().zip(&y2) {
            assert!(g.to_bits() == w.to_bits(), "axpy_slice len {len}");
        }
    }
}

#[test]
fn cholesky_and_triangular_solves_match_naive_reference_bitwise() {
    let mut rng = Lcg::new(0x1357924680135792);
    for n in [1usize, 2, 3, 4, 7, 8, 9, 13, 32] {
        let a = random_spd(&mut rng, n);
        let l = a.cholesky().expect("SPD input factors");
        let l_ref = naive_cholesky(&a).expect("SPD input factors (naive)");
        assert_bits_eq(&l, &l_ref, "cholesky");

        let b: Vec<f64> = (0..n).map(|_| rng.coeff()).collect();
        let fwd = l.solve_lower(&b);
        let fwd_ref = naive_solve_lower(&l, &b);
        for (g, w) in fwd.iter().zip(&fwd_ref) {
            assert!(g.to_bits() == w.to_bits(), "solve_lower n {n}");
        }
        let bwd = l.solve_lower_transpose(&b);
        let bwd_ref = naive_solve_lower_transpose(&l, &b);
        for (g, w) in bwd.iter().zip(&bwd_ref) {
            assert!(g.to_bits() == w.to_bits(), "solve_lower_transpose n {n}");
        }
    }
}

#[test]
fn symmetrize_matches_naive_reference_bitwise() {
    let mut rng = Lcg::new(0xfeedface12345678);
    for n in [1usize, 2, 3, 8, 9, 31, 32] {
        let a = random_mat(&mut rng, n, n);
        assert_bits_eq(&a.symmetrize(), &naive_symmetrize(&a), "symmetrize");
        let mut in_place = a.clone();
        in_place.symmetrize_in_place();
        assert_bits_eq(&in_place, &naive_symmetrize(&a), "symmetrize_in_place");
    }
}

#[test]
fn transpose_mul_self_matches_composed_reference_bitwise() {
    let mut rng = Lcg::new(0xabcdef0987654321);
    for (m, k, _) in shapes(&mut rng) {
        let a = random_mat(&mut rng, m, k);
        let mut got = RMat::zeros(k, k);
        a.transpose_mul_self_into(&mut got);
        // The historical spelling this kernel replaced in `inverse_spd`.
        let want = a.transpose().mul_mat(&a);
        assert_bits_eq(&got, &want, "transpose_mul_self_into");
    }
}

#[test]
fn zero_heavy_inputs_are_bit_stable_without_the_skip() {
    // The dense `mul_mat` path no longer skips `aik == 0.0` terms. An
    // accumulator that starts at +0.0 is unchanged bitwise by adding
    // ±0.0 products, so a zero-heavy matrix must produce the same bits
    // with and without the skip — including the signs of zero outputs.
    let mut rng = Lcg::new(0x2468ace02468ace0);
    for (m, k, n) in [(4, 4, 4), (8, 3, 8), (5, 9, 2)] {
        let mut a = random_mat(&mut rng, m, k);
        // Zero out most of A, keeping a mix of ±0.0.
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        let b = random_mat(&mut rng, k, n);
        assert_bits_eq(&a.mul_mat(&b), &naive_mul_mat(&a, &b), "zero-heavy mul_mat");
    }
}

#[test]
fn eigvals_only_path_matches_full_decomposition_bitwise() {
    // `sym_eigvals` runs the eigenvalue-only Householder reduction
    // (`tred1`: no Q accumulation); `sym_eig` runs the full `tred2`. The
    // tridiagonal `d`/`e` they feed to the QL iteration must be the same
    // bits, so the sorted eigenvalues must agree exactly — including on
    // matrices with zero rows that exercise the `scale == 0` branch.
    let mut rng = Lcg::new(0x13579bdf02468ace);
    for n in [1usize, 2, 3, 5, 8, 17, 32] {
        let a = random_spd(&mut rng, n);
        let vals_only = sym_eigvals(&a).expect("eigvals");
        let (vals_full, _q) = sym_eig(&a).expect("eig");
        assert_eq!(vals_only.len(), vals_full.len());
        for (k, (&lo, &lf)) in vals_only.iter().zip(&vals_full).enumerate() {
            assert!(
                lo.to_bits() == lf.to_bits(),
                "eigenvalue {k} of {n}x{n}: {lo:e} vs {lf:e}"
            );
        }
        // A symmetric indefinite matrix with an exactly-zero row/column.
        let mut b = random_mat(&mut rng, n, n).symmetrize();
        if n > 2 {
            for k in 0..n {
                b.set(1, k, 0.0);
                b.set(k, 1, 0.0);
            }
        }
        let vals_only = sym_eigvals(&b).expect("eigvals");
        let (vals_full, _q) = sym_eig(&b).expect("eig");
        for (&lo, &lf) in vals_only.iter().zip(&vals_full) {
            assert!(lo.to_bits() == lf.to_bits(), "indefinite {n}x{n}");
        }
    }
}

// ---------------------------------------------------------------------
// Lane kernels: K same-shape problems interleaved element by element.
// Every lane must come out bit-identical to the scalar kernel run on that
// lane's data alone, on every instruction-set path: each kernel is called
// through its ISA-explicit entry point, once on the baseline path (SSE2
// at K = 4 on x86-64, per-lane loops otherwise) and once on the AVX path
// when the host has AVX (four lanes per instruction at K = 4).
// ---------------------------------------------------------------------

/// The lane paths this host can run. Without AVX the AVX half cannot run;
/// say so rather than pass silently.
fn isas() -> Vec<LaneIsa> {
    let mut out = vec![LaneIsa::Baseline];
    if LaneIsa::Avx.available() {
        out.push(LaneIsa::Avx);
    } else {
        eprintln!("SKIPPED: this host has no AVX; only the baseline lane path was checked");
    }
    out
}

fn pack<const K: usize>(mats: &[RMat]) -> LaneMat<K> {
    let mut out = LaneMat::<K>::zeros(mats[0].rows(), mats[0].cols());
    for (lane, m) in mats.iter().enumerate() {
        out.set_lane(lane, m);
    }
    out
}

fn lane_of<const K: usize>(m: &LaneMat<K>, lane: usize) -> RMat {
    let mut out = RMat::zeros(m.rows(), m.cols());
    m.get_lane(lane, &mut out);
    out
}

/// Lane Cholesky, both triangular solves and symmetrize on path `isa`
/// against the scalar kernels, with lane `bad` holding an indefinite
/// matrix.
fn check_lane_factor_kernels<const K: usize>(isa: LaneIsa, rng: &mut Lcg, bad: usize) {
    for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 13, 32, 33] {
        let mats: Vec<RMat> = (0..K)
            .map(|lane| {
                let mut a = random_spd(rng, n);
                if lane == bad {
                    let last = n - 1;
                    a.set(last, last, -1.0);
                }
                a
            })
            .collect();
        let lanes = pack::<K>(&mats);
        let mut chol = LaneMat::<K>::zeros(n, n);
        let ok = lanes.cholesky_into_on(isa, &mut chol);
        let mut scalar = RMat::zeros(n, n);
        for (lane, a) in mats.iter().enumerate() {
            let want_ok = a.cholesky_into(&mut scalar);
            assert_eq!(
                ok[lane], want_ok,
                "{isa:?} K {K} n {n} lane {lane}: definiteness"
            );
            if want_ok {
                assert_bits_eq(
                    &lane_of(&chol, lane),
                    &scalar,
                    &format!("{isa:?} lane cholesky"),
                );
            }
        }

        // Triangular solves against each lane's own (valid) factor.
        let factors: Vec<RMat> = (0..K)
            .map(|_| random_spd(rng, n).cholesky().unwrap())
            .collect();
        let l = pack::<K>(&factors);
        let rhs: Vec<Vec<f64>> = (0..K)
            .map(|_| (0..n).map(|_| rng.coeff()).collect())
            .collect();
        let mut fwd: Vec<[f64; K]> = (0..n).map(|i| std::array::from_fn(|k| rhs[k][i])).collect();
        let mut bwd = fwd.clone();
        l.solve_lower_in_place_on(isa, &mut fwd);
        l.solve_lower_transpose_in_place_on(isa, &mut bwd);
        for (lane, f) in factors.iter().enumerate() {
            let mut want_f = rhs[lane].clone();
            f.solve_lower_in_place(&mut want_f);
            let mut want_b = rhs[lane].clone();
            f.solve_lower_transpose_in_place(&mut want_b);
            for i in 0..n {
                assert_eq!(
                    fwd[i][lane].to_bits(),
                    want_f[i].to_bits(),
                    "{isa:?} solve_lower K {K} n {n}"
                );
                assert_eq!(
                    bwd[i][lane].to_bits(),
                    want_b[i].to_bits(),
                    "{isa:?} solve_lower_transpose K {K} n {n}"
                );
            }
        }

        let raw: Vec<RMat> = (0..K).map(|_| random_mat(rng, n, n)).collect();
        let mut sym = pack::<K>(&raw);
        sym.symmetrize_in_place_on(isa);
        for (lane, a) in raw.iter().enumerate() {
            let mut want = a.clone();
            want.symmetrize_in_place();
            assert_bits_eq(
                &lane_of(&sym, lane),
                &want,
                &format!("{isa:?} lane symmetrize"),
            );
        }
    }
}

#[test]
fn lane_cholesky_solves_and_symmetrize_match_scalar_bitwise() {
    for isa in isas() {
        let mut rng = Lcg::new(0x0bad_c0de_1234_5678);
        check_lane_factor_kernels::<4>(isa, &mut rng, 2);
        check_lane_factor_kernels::<3>(isa, &mut rng, 0);
        check_lane_factor_kernels::<1>(isa, &mut rng, usize::MAX);
    }
}

/// The historical scalar sandwich `sym(X·A·Z⁻¹)` on one block: `U = X·A`
/// by strided column updates in entry order, then `U·Z⁻¹` skipping zero
/// `U` entries, then symmetrize.
fn reference_sandwich(x: &RMat, entries: &[(usize, usize, f64)], zinv: &RMat) -> RMat {
    let n = x.rows();
    let mut u = RMat::zeros(n, n);
    for &(r, c, v) in entries {
        for i in 0..n {
            let w = u.at(i, c) + v * x.at(i, r);
            u.set(i, c, w);
        }
        if r != c {
            for i in 0..n {
                let w = u.at(i, r) + v * x.at(i, c);
                u.set(i, r, w);
            }
        }
    }
    let mut t = RMat::zeros(n, n);
    for i in 0..n {
        for k in 0..n {
            let w = u.at(i, k);
            if w == 0.0 {
                continue;
            }
            for j in 0..n {
                let s = t.at(i, j) + w * zinv.at(k, j);
                t.set(i, j, s);
            }
        }
    }
    naive_symmetrize(&t)
}

fn check_lane_sandwich<const K: usize>(isa: LaneIsa, rng: &mut Lcg) {
    for n in [1usize, 3, 8, 17, 32] {
        // X is bit-symmetric in the solver (every update ends in a
        // symmetrize); zero rows in some lanes make V zero there, so the
        // per-lane select is exercised next to live lanes.
        let xs: Vec<RMat> = (0..K)
            .map(|lane| {
                let mut x = random_mat(rng, n, n).symmetrize();
                if lane % 2 == 1 && n > 2 {
                    for k in 0..n {
                        x.set(1, k, 0.0);
                        x.set(k, 1, 0.0);
                    }
                }
                x
            })
            .collect();
        let mut zs: Vec<RMat> = (0..K).map(|_| random_mat(rng, n, n).symmetrize()).collect();
        // Index 1 appears only as the diagonal entry (1, 1), so row 1 of
        // V is exactly zero in the lanes whose X has a zero row 1.
        let mut entries: Vec<(usize, usize, f64)> = Vec::new();
        if n > 2 {
            entries.push((1, 1, 1.5));
        }
        for _ in 0..rng.size(4) {
            let (a, b) = (rng.size(n) - 1, rng.size(n) - 1);
            let (r, c) = (a.min(b), a.max(b));
            let touches_one = n > 2 && (r == 1 || c == 1);
            if !touches_one && !entries.iter().any(|&(rr, cc, _)| (rr, cc) == (r, c)) {
                entries.push((r, c, rng.coeff() + 2.0));
            }
        }
        let mut rows: Vec<usize> = entries.iter().flat_map(|&(r, c, _)| [r, c]).collect();
        rows.sort_unstable();
        rows.dedup();
        // A non-finite Z⁻¹ entry in a row whose V entries are zero in that
        // lane: the scalar kernel skips the product, so the lane must too.
        if n > 2 && K > 1 {
            zs[1].set(1, 0, f64::INFINITY);
        }
        let x = pack::<K>(&xs);
        let z = pack::<K>(&zs);
        let mut v = LaneMat::<K>::zeros(n, n);
        let mut out = LaneMat::<K>::zeros(n, n);
        sym_sandwich_block_on(isa, &x, &entries, &rows, &z, &mut v, &mut out);
        for lane in 0..K {
            let want = reference_sandwich(&xs[lane], &entries, &zs[lane]);
            let got = lane_of(&out, lane);
            for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "{isa:?} sandwich K {K} n {n} lane {lane} element {i}: {g:e} vs {w:e}"
                );
            }
        }
    }
}

/// The Schur row kernel: ragged programs (1–9 terms) over three blocks,
/// a program count that is often not a multiple of 4, and programs whose
/// support is disjoint from the caller's — they read a block holding
/// non-finite values and must still come out `+0.0`.
fn check_dot_row<const K: usize>(isa: LaneIsa, rng: &mut Lcg) {
    let dims = [1 + rng.size(6), 1 + rng.size(3), 2];
    let mut x: Vec<LaneMat<K>> = dims.iter().map(|&d| LaneMat::zeros(d, d)).collect();
    for (bl, m) in x.iter_mut().enumerate() {
        for v in m.as_mut_slice() {
            *v = std::array::from_fn(|lane| match (bl, lane % 2) {
                (2, 0) => f64::NAN,
                (2, _) => f64::INFINITY,
                _ => rng.coeff(),
            });
        }
    }
    // Blocks 0 and 1 are the support; block 2 lies outside it.
    let support = 0b011;
    let mut programs = DotPrograms::new();
    let mut want: Vec<[f64; K]> = Vec::new();
    for _ in 0..rng.size(11) {
        let outside = rng.next_u64().is_multiple_of(4);
        let terms: Vec<DotTerm> = (0..rng.size(9))
            .map(|_| {
                let block = if outside {
                    2
                } else {
                    (rng.next_u64() % 2) as usize
                };
                let d = dims[block];
                DotTerm {
                    block: block as u32,
                    off: (rng.size(d * d) - 1) as u32,
                    w: rng.coeff(),
                }
            })
            .collect();
        want.push(std::array::from_fn(|lane| {
            let mut acc = 0.0;
            if !outside {
                for t in &terms {
                    acc += t.w * x[t.block as usize].as_slice()[t.off as usize][lane];
                }
            }
            acc
        }));
        programs.push(terms);
    }
    let mut got = vec![[f64::NAN; K]; programs.len()];
    programs.row_on(isa, support, &x, &mut got);
    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
        for lane in 0..K {
            assert_eq!(
                g[lane].to_bits(),
                w[lane].to_bits(),
                "{isa:?} dot row K {K} program {k} of {} lane {lane}",
                programs.len()
            );
        }
    }
}

#[test]
fn lane_sandwich_and_dots_match_scalar_bitwise() {
    for isa in isas() {
        let mut rng = Lcg::new(0x5eed_1a4e_5a4d_0001);
        for _ in 0..4 {
            check_lane_sandwich::<4>(isa, &mut rng);
            check_lane_sandwich::<3>(isa, &mut rng);
            check_lane_sandwich::<1>(isa, &mut rng);
        }
        for _ in 0..64 {
            check_dot_row::<4>(isa, &mut rng);
            check_dot_row::<3>(isa, &mut rng);
            check_dot_row::<1>(isa, &mut rng);
        }
    }
}

/// Raw bits equal, or both NaN (a NaN's payload may depend on which operand
/// the compiler put first).
fn same_bits(got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

fn assert_lane_bits<const K: usize>(got: &LaneMat<K>, want: &[RMat], what: &str) {
    for (lane, w) in want.iter().enumerate() {
        let g = lane_of(got, lane);
        for (i, (a, b)) in g.as_slice().iter().zip(w.as_slice()).enumerate() {
            assert!(
                same_bits(*a, *b),
                "{what} lane {lane} element {i}: {a:e} vs {b:e}"
            );
        }
    }
}

/// The row-paired lane Cholesky at odd and even `n`: lane 1 fails at an
/// even row and lane 3 at the odd row after it (the two rows of one pair),
/// the others factor; and a batch where every lane fails stops early with
/// every flag down.
fn check_lane_cholesky_failing_partway<const K: usize>(isa: LaneIsa, rng: &mut Lcg) {
    for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 16, 17, 31, 32, 33] {
        let mid = (n / 2) & !1;
        let mats: Vec<RMat> = (0..K)
            .map(|lane| {
                let mut a = random_spd(rng, n);
                match lane {
                    1 => a.set(mid, mid, -1.0),
                    3 if mid + 1 < n => a.set(mid + 1, mid + 1, -1.0),
                    _ => {}
                }
                a
            })
            .collect();
        let mut chol = LaneMat::<K>::zeros(n, n);
        let ok = pack::<K>(&mats).cholesky_into_on(isa, &mut chol);
        let mut scalar = RMat::zeros(n, n);
        for (lane, a) in mats.iter().enumerate() {
            let want_ok = a.cholesky_into(&mut scalar);
            assert_eq!(
                ok[lane], want_ok,
                "{isa:?} K {K} n {n} lane {lane}: definiteness"
            );
            if want_ok {
                assert_bits_eq(
                    &lane_of(&chol, lane),
                    &scalar,
                    &format!("{isa:?} K {K} n {n} lane {lane}"),
                );
            }
        }

        let all_bad: Vec<RMat> = (0..K)
            .map(|_| {
                let mut a = random_spd(rng, n);
                a.set(0, 0, -1.0);
                a
            })
            .collect();
        let ok = pack::<K>(&all_bad).cholesky_into_on(isa, &mut chol);
        assert_eq!(ok, [false; K], "{isa:?} K {K} n {n}: every lane fails");
    }
}

/// A lower-triangular factor whose lanes have exact zeros in different
/// places, so a zero multiplier is skipped in some lanes and not others.
fn random_lower_with_zeros(rng: &mut Lcg, n: usize) -> RMat {
    RMat::from_fn(n, n, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Less => 0.0,
        std::cmp::Ordering::Equal => 1.0 + rng.coeff().abs(),
        std::cmp::Ordering::Greater => rng.coeff(),
    })
}

/// The matrix-RHS forward substitution, the triangular inverse built on
/// it and the Gram product `LᵀL`, against the scalar kernels. Right-hand
/// sides carry `−0.0` and `∞`, which a skipped zero multiplier must leave
/// as they are.
fn check_lane_triangular_mat_kernels<const K: usize>(isa: LaneIsa, rng: &mut Lcg) {
    for (n, c) in [
        (1usize, 1usize),
        (2, 3),
        (3, 1),
        (5, 5),
        (8, 8),
        (9, 4),
        (32, 32),
        (33, 7),
    ] {
        let ls: Vec<RMat> = (0..K).map(|_| random_lower_with_zeros(rng, n)).collect();
        let bs: Vec<RMat> = (0..K)
            .map(|lane| {
                let mut b = random_mat(rng, n, c);
                if n > 1 && lane % 2 == 1 {
                    b.set(0, 0, f64::INFINITY);
                    b.set(1, 0, -0.0);
                }
                b
            })
            .collect();
        let l = pack::<K>(&ls);
        let mut x = pack::<K>(&bs);
        l.solve_lower_mat_in_place_on(isa, &mut x);
        let want: Vec<RMat> = ls
            .iter()
            .zip(&bs)
            .map(|(l, b)| l.solve_lower_mat(b))
            .collect();
        assert_lane_bits(
            &x,
            &want,
            &format!("{isa:?} solve_lower_mat K {K} n {n} c {c}"),
        );

        let mut inv = LaneMat::<K>::zeros(n, n);
        l.invert_lower_into(&mut inv);
        let want: Vec<RMat> = ls.iter().map(RMat::invert_lower).collect();
        assert_lane_bits(&inv, &want, &format!("{isa:?} invert_lower K {K} n {n}"));

        let mut gram = LaneMat::<K>::zeros(n, n);
        l.transpose_mul_self_into_on(isa, &mut gram);
        let want: Vec<RMat> = ls
            .iter()
            .map(|l| {
                let mut out = RMat::zeros(n, n);
                l.transpose_mul_self_into(&mut out);
                out
            })
            .collect();
        assert_lane_bits(
            &gram,
            &want,
            &format!("{isa:?} transpose_mul_self K {K} n {n}"),
        );
    }
}

/// The lane tridiagonalization against the scalar reduction, in `d` and
/// `e`: lane 1 has a row whose off-diagonal part is all zero (the scalar
/// `scale == 0.0` branch), lane 2 a NaN, the others are dense.
fn check_lane_tridiag<const K: usize>(isa: LaneIsa, rng: &mut Lcg) {
    for n in [1usize, 2, 3, 4, 7, 8, 16, 32, 33] {
        let mats: Vec<RMat> = (0..K)
            .map(|lane| {
                let mut a = random_mat(rng, n, n).symmetrize();
                if lane == 1 && n > 2 {
                    for k in 0..n {
                        if k != n - 2 {
                            a.set(n - 2, k, 0.0);
                            a.set(k, n - 2, 0.0);
                        }
                    }
                    for k in 0..n - 1 {
                        a.set(n - 1, k, -0.0);
                        a.set(k, n - 1, -0.0);
                    }
                }
                if lane == 2 && n > 1 {
                    a.set(n - 1, 0, f64::NAN);
                    a.set(0, n - 1, f64::NAN);
                }
                a
            })
            .collect();
        let mut z = pack::<K>(&mats);
        let mut d = vec![[f64::NAN; K]; n];
        let mut e = vec![[f64::NAN; K]; n];
        z.sym_tridiag_in_place_on(isa, &mut d, &mut e);
        for (lane, a) in mats.iter().enumerate() {
            let mut a = a.clone();
            let mut wd = vec![0.0; n];
            let mut we = vec![0.0; n];
            sym_tridiag_in_place(&mut a, &mut wd, &mut we);
            for i in 0..n {
                assert!(
                    same_bits(d[i][lane], wd[i]) && same_bits(e[i][lane], we[i]),
                    "{isa:?} tridiag K {K} n {n} lane {lane} row {i}: ({:e}, {:e}) vs ({:e}, {:e})",
                    d[i][lane],
                    e[i][lane],
                    wd[i],
                    we[i]
                );
            }
        }
    }
}

fn check_lane_mul_mat<const K: usize>(isa: LaneIsa, rng: &mut Lcg) {
    for (m, k, n) in [
        (1usize, 1usize, 1usize),
        (3, 2, 5),
        (8, 8, 8),
        (4, 9, 9),
        (17, 3, 16),
        (32, 32, 32),
        (5, 7, 33),
    ] {
        let a: Vec<RMat> = (0..K).map(|_| random_mat(rng, m, k)).collect();
        let b: Vec<RMat> = (0..K).map(|_| random_mat(rng, k, n)).collect();
        let mut out = LaneMat::<K>::zeros(m, n);
        pack::<K>(&a).mul_mat_into_on(isa, &pack::<K>(&b), &mut out);
        let want: Vec<RMat> = a.iter().zip(&b).map(|(a, b)| a.mul_mat(b)).collect();
        assert_lane_bits(&out, &want, &format!("{isa:?} mul_mat K {K} {m}x{k}x{n}"));
    }
}

#[test]
fn lane_line_search_and_inverse_kernels_match_scalar_bitwise() {
    for isa in isas() {
        let mut rng = Lcg::new(0x11e5_ea2c_4000_0004);
        check_lane_cholesky_failing_partway::<4>(isa, &mut rng);
        check_lane_cholesky_failing_partway::<1>(isa, &mut rng);
        check_lane_triangular_mat_kernels::<4>(isa, &mut rng);
        check_lane_triangular_mat_kernels::<1>(isa, &mut rng);
        for _ in 0..4 {
            check_lane_tridiag::<4>(isa, &mut rng);
            check_lane_tridiag::<1>(isa, &mut rng);
        }
        check_lane_mul_mat::<4>(isa, &mut rng);
        check_lane_mul_mat::<1>(isa, &mut rng);
    }
}
