//! Property-based tests for the linear-algebra substrate.

mod jacobi;

use gleipnir_linalg::{
    c64, eigh, eigh_vals, herm_to_real_sym, lq_thin, ptrace_keep, qr_thin, real_sym_to_herm,
    svd_gram, sym_eig, trace_distance, CMat, RMat, C64,
};
use jacobi::svd_jacobi;
use proptest::prelude::*;

fn arb_c64() -> impl Strategy<Value = C64> {
    (-2.0..2.0f64, -2.0..2.0f64).prop_map(|(re, im)| c64(re, im))
}

fn arb_cmat(rows: usize, cols: usize) -> impl Strategy<Value = CMat> {
    proptest::collection::vec(arb_c64(), rows * cols)
        .prop_map(move |data| CMat::from_flat(rows, cols, data))
}

fn arb_hermitian(n: usize) -> impl Strategy<Value = CMat> {
    arb_cmat(n, n).prop_map(|m| (&m + &m.adjoint()).scaled(c64(0.5, 0.0)))
}

fn arb_density(n_qubits: usize) -> impl Strategy<Value = CMat> {
    let d = 1usize << n_qubits;
    arb_cmat(d, d).prop_map(move |m| {
        // ρ = M·M†/tr is a valid density matrix for any nonzero M.
        let p = m.mul_adjoint(&m);
        let t = p.trace().re.max(1e-9);
        p.scaled(c64(1.0 / t, 0.0))
    })
}

/// Solves `a·x = b` for SPD `a` through its Cholesky factor.
fn solve_spd(a: &RMat, b: &[f64]) -> Option<Vec<f64>> {
    let l = a.cholesky()?;
    let mut x = b.to_vec();
    l.solve_lower_in_place(&mut x);
    l.solve_lower_transpose_in_place(&mut x);
    Some(x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_is_associative(a in arb_cmat(3, 4), b in arb_cmat(4, 2), c in arb_cmat(2, 5)) {
        let lhs = a.mul_mat(&b).mul_mat(&c);
        let rhs = a.mul_mat(&b.mul_mat(&c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-10));
    }

    #[test]
    fn adjoint_reverses_products(a in arb_cmat(3, 4), b in arb_cmat(4, 3)) {
        let lhs = a.mul_mat(&b).adjoint();
        let rhs = b.adjoint().mul_mat(&a.adjoint());
        prop_assert!(lhs.approx_eq(&rhs, 1e-10));
    }

    #[test]
    fn kron_mixed_product(a in arb_cmat(2, 2), b in arb_cmat(2, 2), c in arb_cmat(2, 2), d in arb_cmat(2, 2)) {
        let lhs = a.kron(&b).mul_mat(&c.kron(&d));
        let rhs = a.mul_mat(&c).kron(&b.mul_mat(&d));
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn eigh_reconstructs(h in arb_hermitian(5)) {
        let (vals, v) = eigh(&h).unwrap();
        prop_assert!(v.is_unitary(1e-9));
        let recon = v.mul_mat(&CMat::diag_real(&vals)).mul_adjoint(&v);
        prop_assert!(recon.approx_eq(&h, 1e-8));
    }

    #[test]
    fn eigh_trace_invariant(h in arb_hermitian(6)) {
        let vals = eigh_vals(&h).unwrap();
        let sum: f64 = vals.iter().sum();
        prop_assert!((sum - h.trace().re).abs() < 1e-8);
    }

    #[test]
    fn qr_reconstructs(a in arb_cmat(5, 3)) {
        let (q, r) = qr_thin(&a);
        prop_assert!(q.adjoint_mul(&q).approx_eq(&CMat::identity(3), 1e-9));
        prop_assert!(q.mul_mat(&r).approx_eq(&a, 1e-9));
    }

    #[test]
    fn lq_reconstructs(a in arb_cmat(3, 5)) {
        let (l, q) = lq_thin(&a);
        prop_assert!(q.mul_adjoint(&q).approx_eq(&CMat::identity(3), 1e-9));
        prop_assert!(l.mul_mat(&q).approx_eq(&a, 1e-9));
    }

    #[test]
    fn svd_gram_reconstructs(a in arb_cmat(4, 4)) {
        let svd = svd_gram(&a).unwrap();
        // Residual is bounded by the discarded mass (usually ~0 here).
        let resid = (&svd.reconstruct() - &a).frobenius_norm();
        prop_assert!(resid <= svd.discarded_sqr.sqrt() + 1e-7);
    }

    #[test]
    fn svd_routes_agree(a in arb_cmat(5, 3)) {
        let g = svd_gram(&a).unwrap();
        let j = svd_jacobi(&a);
        // Compare singular values on the common prefix.
        for (x, y) in g.sigma.iter().zip(&j.sigma) {
            prop_assert!((x - y).abs() < 1e-6 * (1.0 + y));
        }
    }

    #[test]
    fn jacobi_svd_random(a in arb_cmat(5, 4)) {
        let svd = svd_jacobi(&a);
        let r = svd.rank();
        prop_assert!(svd.u.adjoint_mul(&svd.u).approx_eq(&CMat::identity(r), 1e-10));
        prop_assert!(svd.v.adjoint_mul(&svd.v).approx_eq(&CMat::identity(r), 1e-10));
        prop_assert!(svd.sigma.windows(2).all(|w| w[0] >= w[1] - 1e-14));
        prop_assert!(svd.reconstruct().approx_eq(&a, 1e-9));
    }

    #[test]
    fn gram_and_jacobi_agree_on_singular_values(a in arb_cmat(7, 5)) {
        let g = svd_gram(&a).unwrap();
        let j = svd_jacobi(&a);
        prop_assert_eq!(g.rank(), j.rank());
        for (x, y) in g.sigma.iter().zip(&j.sigma) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn trace_distance_is_a_metric(a in arb_density(2), b in arb_density(2), c in arb_density(2)) {
        let dab = trace_distance(&a, &b).unwrap();
        let dba = trace_distance(&b, &a).unwrap();
        let dac = trace_distance(&a, &c).unwrap();
        let dcb = trace_distance(&c, &b).unwrap();
        prop_assert!((dab - dba).abs() < 1e-10);           // symmetry
        prop_assert!(dab <= dac + dcb + 1e-10);            // triangle
        prop_assert!(dab >= -1e-12 && dab <= 1.0 + 1e-10); // range
        prop_assert!(trace_distance(&a, &a).unwrap() < 1e-10);
    }

    #[test]
    fn ptrace_is_trace_preserving(rho in arb_density(3)) {
        for keep in [&[0usize][..], &[1], &[2], &[0, 1], &[0, 2], &[1, 2]] {
            let r = ptrace_keep(&rho, 3, keep);
            prop_assert!((r.trace().re - 1.0).abs() < 1e-9);
            prop_assert!(r.is_hermitian(1e-9));
        }
    }

    #[test]
    fn ptrace_contracts_trace_distance(a in arb_density(2), b in arb_density(2)) {
        // The paper's Theorem 6.1 proof relies on this contraction.
        let full = trace_distance(&a, &b).unwrap();
        let local = trace_distance(
            &ptrace_keep(&a, 2, &[0]),
            &ptrace_keep(&b, 2, &[0]),
        ).unwrap();
        prop_assert!(local <= full + 1e-9);
    }

    #[test]
    fn embedding_round_trip(h in arb_hermitian(3)) {
        let e = herm_to_real_sym(&h);
        prop_assert!(e.approx_eq(&e.transpose(), 1e-12));
        prop_assert!(real_sym_to_herm(&e).approx_eq(&h, 1e-12));
    }

    #[test]
    fn embedding_preserves_psd(m in arb_cmat(3, 3)) {
        // M·M† is PSD; its embedding must be PSD too.
        let psd = m.mul_adjoint(&m);
        let e = herm_to_real_sym(&psd);
        let (vals, _) = sym_eig(&e).unwrap();
        prop_assert!(vals[0] > -1e-9);
    }

    #[test]
    fn cholesky_solve_is_inverse(m in arb_cmat(4, 4)) {
        // Build a real SPD matrix from the embedding of M·M† + I.
        let mut psd = m.mul_adjoint(&m);
        for i in 0..4 {
            let v = psd.at(i, i) + C64::ONE;
            psd.set(i, i, v);
        }
        let a = herm_to_real_sym(&psd);
        let b: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let x = solve_spd(&a, &b).unwrap();
        let r = a.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-7);
        }
    }
}

#[test]
fn rmat_identity_solve() {
    let a = RMat::identity(4);
    let b = vec![1.0, 2.0, 3.0, 4.0];
    assert_eq!(solve_spd(&a, &b).unwrap(), b);
}
