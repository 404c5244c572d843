//! The SVD oracle of the property tests: a one-sided Jacobi SVD, slower
//! than the library's Gram route but accurate for small singular values.

use gleipnir_linalg::{c64, CMat, Svd};

/// Relative rank cutoff for [`svd_jacobi`], which computes small singular
/// values to full relative precision.
const JACOBI_RANK_TOL: f64 = 1e-12;

/// One-sided Jacobi SVD.
///
/// Iteratively rotates column pairs until all pairs are numerically
/// orthogonal, then reads off `σⱼ = ‖colⱼ‖` and `U = col/σ`. Accurate for
/// small singular values.
///
/// For `m < n` inputs the routine runs on `A†` and swaps the factors.
pub fn svd_jacobi(a: &CMat) -> Svd {
    let m = a.rows();
    let n = a.cols();
    if m < n {
        let s = svd_jacobi(&a.adjoint());
        return Svd {
            u: s.v,
            sigma: s.sigma,
            v: s.u,
            discarded_sqr: s.discarded_sqr,
        };
    }
    let frob_sqr: f64 = a.as_slice().iter().map(|z| z.norm_sqr()).sum();
    let mut work = a.clone();
    let mut v = CMat::identity(n);
    let tol = 1e-14;
    let max_sweeps = 60;

    for _sweep in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in p + 1..n {
                // 2×2 Gram block of columns p, q.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = c64(0.0, 0.0);
                for i in 0..m {
                    let cp = work.at(i, p);
                    let cq = work.at(i, q);
                    app += cp.norm_sqr();
                    aqq += cq.norm_sqr();
                    apq = apq.add_prod(cp.conj(), cq);
                }
                let denom = (app * aqq).sqrt();
                if denom == 0.0 || apq.abs() <= tol * denom {
                    continue;
                }
                off = off.max(apq.abs() / denom);
                // Complex Jacobi rotation R = diag(e^{iφ}, 1)·J(θ) zeroing
                // the off-diagonal Gram entry, where φ = arg(apq) and J is
                // the real symmetric Jacobi rotation for
                // [[app, |apq|], [|apq|, aqq]].
                let phi = apq.arg();
                let abs_apq = apq.abs();
                let tau = (aqq - app) / (2.0 * abs_apq);
                let t = {
                    let s = if tau >= 0.0 { 1.0 } else { -1.0 };
                    s / (tau.abs() + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // col_p ← c·e^{iφ}·col_p − s·col_q
                // col_q ← s·e^{iφ}·col_p + c·col_q
                let eip = c64(phi.cos(), phi.sin());
                for i in 0..m {
                    let cp = eip * work.at(i, p);
                    let cq = work.at(i, q);
                    work.set(i, p, cp.scale(c) - cq.scale(s));
                    work.set(i, q, cp.scale(s) + cq.scale(c));
                }
                for i in 0..n {
                    let vp = eip * v.at(i, p);
                    let vq = v.at(i, q);
                    v.set(i, p, vp.scale(c) - vq.scale(s));
                    v.set(i, q, vp.scale(s) + vq.scale(c));
                }
            }
        }
        if off < tol {
            break;
        }
    }

    // Extract singular values and left vectors.
    let mut pairs: Vec<(f64, usize)> = (0..n)
        .map(|j| {
            let s: f64 = (0..m).map(|i| work.at(i, j).norm_sqr()).sum();
            (s.sqrt(), j)
        })
        .collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("non-NaN"));

    let sigma_max = pairs.first().map_or(0.0, |p| p.0);
    let cutoff = JACOBI_RANK_TOL * sigma_max;
    let kept: Vec<(f64, usize)> = pairs.into_iter().filter(|p| p.0 > cutoff).collect();
    let r = kept.len();
    let sigma: Vec<f64> = kept.iter().map(|p| p.0).collect();
    let u = CMat::from_fn(m, r, |i, j| work.at(i, kept[j].1).scale(1.0 / sigma[j]));
    let vkept = CMat::from_fn(n, r, |i, j| v.at(i, kept[j].1));
    let kept_sqr: f64 = sigma.iter().map(|s| s * s).sum();
    Svd {
        u,
        sigma,
        v: vkept,
        discarded_sqr: (frob_sqr - kept_sqr).max(0.0),
    }
}
