//! Singular value decomposition for complex matrices.
//!
//! [`svd_gram`] is the route the MPS truncation hot path uses. It
//! eigendecomposes the Gram matrix (`M†M` or `MM†`, whichever is smaller)
//! and reconstructs the other singular-vector set by applying `M`.
//! Singular values below `rank_tol · σ_max` get no vectors; for the MPS use
//! case (and the paper's truncation rule) only the retained directions ever
//! need vectors, while the *discarded weight* `‖M‖²_F − Σ_kept σ²` is exact
//! by construction. The property tests (`tests/proptests.rs`) check it
//! against a one-sided Jacobi SVD, which keeps small singular values to
//! full relative precision.

use crate::eigh::{eigh, EigError};
use crate::CMat;

/// Relative rank cutoff used by [`svd_gram`]: singular values below
/// `RANK_TOL · σ_max` are dropped (their mass goes to `discarded_sqr`).
///
/// The Gram route squares the condition number, so singular values below
/// `≈ √ε · σ_max ≈ 1e-8 · σ_max` carry no reliable information; the cutoff
/// sits safely above that floor. The discarded mass these directions
/// represent (`≤ n · (1e-7·σ_max)²`) is negligible for the MPS truncation
/// bounds this routine feeds.
pub const RANK_TOL: f64 = 1e-7;

/// A (possibly rank-truncated) singular value decomposition `A ≈ U·Σ·V†`.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, shape `m × r`.
    pub u: CMat,
    /// Singular values for the `r` retained directions, descending.
    pub sigma: Vec<f64>,
    /// Right singular vectors, shape `n × r` (so `A ≈ U·diag(σ)·V†`).
    pub v: CMat,
    /// Squared Frobenius mass not captured by the retained directions
    /// (`‖A‖²_F − Σ σᵢ²`, clamped to zero).
    pub discarded_sqr: f64,
}

impl Svd {
    /// Number of retained singular directions.
    pub fn rank(&self) -> usize {
        self.sigma.len()
    }

    /// Reconstructs `U·diag(σ)·V†`.
    pub fn reconstruct(&self) -> CMat {
        let mut us = self.u.clone();
        for j in 0..self.sigma.len() {
            for i in 0..us.rows() {
                let v = us.at(i, j).scale(self.sigma[j]);
                us.set(i, j, v);
            }
        }
        us.mul_adjoint(&self.v)
    }
}

/// Gram-matrix SVD.
///
/// Retains every singular direction with `σ > RANK_TOL · σ_max` (all of them
/// for well-conditioned inputs). The sum of retained `σ²` plus
/// `discarded_sqr` equals `‖A‖²_F` to machine precision.
///
/// # Errors
///
/// Propagates [`EigError`] from the Hermitian eigendecomposition.
///
/// # Examples
///
/// ```
/// use gleipnir_linalg::{c64, svd_gram, CMat};
///
/// let a = CMat::from_fn(3, 2, |i, j| c64((i + j) as f64, i as f64 - j as f64));
/// let svd = svd_gram(&a)?;
/// assert!(svd.reconstruct().approx_eq(&a, 1e-10));
/// # Ok::<(), gleipnir_linalg::EigError>(())
/// ```
pub fn svd_gram(a: &CMat) -> Result<Svd, EigError> {
    let m = a.rows();
    let n = a.cols();
    let frob_sqr: f64 = a.as_slice().iter().map(|z| z.norm_sqr()).sum();
    if m == 0 || n == 0 || frob_sqr == 0.0 {
        return Ok(Svd {
            u: CMat::zeros(m, 0),
            sigma: Vec::new(),
            v: CMat::zeros(n, 0),
            discarded_sqr: frob_sqr,
        });
    }

    // Eigendecompose the smaller Gram matrix.
    let use_right = n <= m; // G = A†A (n×n) when n ≤ m, else G = AA† (m×m)
    let g = if use_right {
        a.adjoint_mul(a)
    } else {
        a.mul_adjoint(a)
    }
    .hermitize();
    let (vals, vecs) = eigh(&g)?;
    let dim = vals.len();

    // Descending order with clamped eigenvalues.
    let mut order: Vec<usize> = (0..dim).collect();
    order.sort_by(|&i, &j| vals[j].partial_cmp(&vals[i]).expect("non-NaN"));
    let sigma_max = vals[order[0]].max(0.0).sqrt();
    let cutoff = RANK_TOL * sigma_max;

    let mut sigma = Vec::new();
    let mut kept_cols = Vec::new();
    for &idx in &order {
        let s = vals[idx].max(0.0).sqrt();
        if s > cutoff {
            sigma.push(s);
            kept_cols.push(idx);
        }
    }
    let r = sigma.len();

    // Known-side singular vectors.
    let known = CMat::from_fn(dim, r, |i, j| vecs.at(i, kept_cols[j]));
    // Other side: columns (A·vᵢ)/σᵢ (or (A†·uᵢ)/σᵢ).
    let (u, v) = if use_right {
        let av = a.mul_mat(&known);
        let mut u = av;
        for j in 0..r {
            let inv = 1.0 / sigma[j];
            for i in 0..m {
                let x = u.at(i, j).scale(inv);
                u.set(i, j, x);
            }
        }
        (u, known)
    } else {
        let atu = a.adjoint_mul(&known);
        let mut v = atu;
        for j in 0..r {
            let inv = 1.0 / sigma[j];
            for i in 0..n {
                let x = v.at(i, j).scale(inv);
                v.set(i, j, x);
            }
        }
        (known, v)
    };

    let kept_sqr: f64 = sigma.iter().map(|s| s * s).sum();
    let discarded_sqr = (frob_sqr - kept_sqr).max(0.0);
    Ok(Svd {
        u,
        sigma,
        v,
        discarded_sqr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    fn pseudo_random(m: usize, n: usize, seed: u64) -> CMat {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        };
        CMat::from_fn(m, n, |_, _| c64(next(), next()))
    }

    fn check_svd(a: &CMat, svd: &Svd, tol: f64) {
        let r = svd.rank();
        assert!(
            svd.u.adjoint_mul(&svd.u).approx_eq(&CMat::identity(r), tol),
            "U not orthonormal"
        );
        assert!(
            svd.v.adjoint_mul(&svd.v).approx_eq(&CMat::identity(r), tol),
            "V not orthonormal"
        );
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-14, "sigma not descending");
        }
        assert!(
            svd.reconstruct().approx_eq(a, tol * 10.0),
            "reconstruction failed"
        );
    }

    #[test]
    fn gram_svd_random_tall() {
        let a = pseudo_random(6, 3, 10);
        let svd = svd_gram(&a).unwrap();
        check_svd(&a, &svd, 1e-9);
        assert!(svd.discarded_sqr < 1e-12);
    }

    #[test]
    fn gram_svd_random_wide() {
        let a = pseudo_random(3, 8, 11);
        let svd = svd_gram(&a).unwrap();
        check_svd(&a, &svd, 1e-9);
    }

    #[test]
    fn rank_deficient_matrix() {
        // Outer product has rank 1.
        let u = pseudo_random(5, 1, 14);
        let v = pseudo_random(1, 4, 15);
        let a = u.mul_mat(&v);
        let svd = svd_gram(&a).unwrap();
        assert_eq!(svd.rank(), 1);
        check_svd(&a, &svd, 1e-9);
    }

    #[test]
    fn zero_matrix() {
        let a = CMat::zeros(3, 3);
        let svd = svd_gram(&a).unwrap();
        assert_eq!(svd.rank(), 0);
        assert_eq!(svd.discarded_sqr, 0.0);
    }

    #[test]
    fn singular_values_of_unitary_are_ones() {
        // Hadamard-like unitary.
        let s = 1.0 / 2f64.sqrt();
        let h = CMat::from_rows(&[
            vec![c64(s, 0.0), c64(s, 0.0)],
            vec![c64(s, 0.0), c64(-s, 0.0)],
        ]);
        let svd = svd_gram(&h).unwrap();
        for sv in &svd.sigma {
            assert!((sv - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn frobenius_mass_is_conserved() {
        let a = pseudo_random(6, 6, 16);
        let svd = svd_gram(&a).unwrap();
        let frob_sqr: f64 = a.as_slice().iter().map(|z| z.norm_sqr()).sum();
        let kept: f64 = svd.sigma.iter().map(|s| s * s).sum();
        assert!((frob_sqr - kept - svd.discarded_sqr).abs() < 1e-10);
    }
}
