//! Hermitian and real-symmetric eigendecomposition.
//!
//! The implementation follows the classical EISPACK route:
//!
//! 1. Householder reduction to tridiagonal form (`tred2` for real symmetric
//!    matrices; a complex-Householder variant for Hermitian matrices whose
//!    complex subdiagonal is then made real-nonnegative by a diagonal phase
//!    similarity), and
//! 2. the implicit-QL algorithm with Wilkinson shifts (`tql2`), applying the
//!    Givens rotations to the accumulated transformation so its columns end
//!    up being the eigenvectors.
//!
//! This is the workhorse behind trace norms, SVD (via Gram matrices), and
//! every PSD check in the SDP solver.

use crate::{c64, CMat, RMat, C64};

/// Receives the Givens column rotations produced by the QL iteration.
///
/// `tql2` is written once against this trait so the same core serves the
/// real-symmetric path (rotating `RMat` columns), the Hermitian path
/// (rotating `CMat` columns), and the eigenvalue-only path (no-op).
trait ColRotate {
    /// Applies the rotation `(colᵢ, colⱼ) ← (c·colᵢ − s·colⱼ, s·colᵢ + c·colⱼ)`.
    fn col_rotate(&mut self, i: usize, j: usize, c: f64, s: f64);
}

struct NoRotate;

impl ColRotate for NoRotate {
    #[inline(always)]
    fn col_rotate(&mut self, _i: usize, _j: usize, _c: f64, _s: f64) {}
}

impl ColRotate for RMat {
    #[inline]
    fn col_rotate(&mut self, i: usize, j: usize, c: f64, s: f64) {
        let cols = self.cols();
        for row in self.as_mut_slice().chunks_exact_mut(cols) {
            let f = row[j];
            let g = row[i];
            row[j] = s * g + c * f;
            row[i] = c * g - s * f;
        }
    }
}

impl ColRotate for CMat {
    #[inline]
    fn col_rotate(&mut self, i: usize, j: usize, c: f64, s: f64) {
        for k in 0..self.rows() {
            let f = self.at(k, j);
            let g = self.at(k, i);
            self.set(k, j, g.scale(s) + f.scale(c));
            self.set(k, i, g.scale(c) - f.scale(s));
        }
    }
}

/// `|a|` with the sign of `b` (the Fortran `SIGN` intrinsic).
#[inline(always)]
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Errors from the eigendecomposition routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EigError {
    /// The QL iteration failed to converge within the iteration budget.
    NoConvergence,
    /// The input matrix was not square.
    NotSquare,
    /// The computed spectrum contains a NaN (the input was not finite).
    NotFinite,
}

impl std::fmt::Display for EigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EigError::NoConvergence => write!(f, "QL iteration did not converge"),
            EigError::NotSquare => write!(f, "eigendecomposition requires a square matrix"),
            EigError::NotFinite => write!(f, "eigenvalues are not finite"),
        }
    }
}

impl std::error::Error for EigError {}

/// Implicit QL with Wilkinson shifts on a symmetric tridiagonal matrix.
///
/// On entry `d` holds the diagonal and `e[1..]` the subdiagonal (`e[0]` is
/// ignored). On successful exit `d` holds the (unsorted) eigenvalues and all
/// applied rotations have been forwarded to `z`.
fn tql2(d: &mut [f64], e: &mut [f64], z: &mut impl ColRotate) -> Result<(), EigError> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    let eps = f64::EPSILON;
    for l in 0..n {
        let mut iter = 0usize;
        loop {
            let mut m = l;
            while m < n - 1 {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= eps * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(EigError::NoConvergence);
            }
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + sign(r, g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            let mut i = m; // will walk i = m-1 down to l
            while i > l {
                i -= 1;
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                z.col_rotate(i, i + 1, c, s);
            }
            if underflow && i > l {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Householder reduction of a real symmetric matrix to tridiagonal form,
/// accumulating the orthogonal transformation (classic `tred2`).
///
/// On exit `z` holds the accumulated orthogonal matrix `Q` with
/// `Qᵀ·A·Q = tridiag(d, e)`.
fn tred2(z: &mut RMat, d: &mut [f64], e: &mut [f64]) {
    householder_tridiag::<true>(z, d, e);
}

/// Eigenvalue-only Householder reduction of the real symmetric `z` to
/// tridiagonal form (classic `tred1`): identical arithmetic to `tred2`
/// minus the orthogonal-transform accumulation. `d` receives the diagonal
/// and `e[1..]` the subdiagonal (`e[0] = 0`); `z` is overwritten.
///
/// The reduction's `d`/`e` outputs are produced entirely by the forward
/// Householder sweep, whose reads all live in the lower triangle; the
/// upper-triangle stores and the O(n³) back-accumulation in `tred2` exist
/// only to build `Q`. Skipping them leaves `d` and `e` bit-identical, which
/// is what keeps `sym_eigvals` on the solver's line-search hot path without
/// perturbing the pinned interior-point trajectories.
///
/// # Panics
///
/// Panics if `d` or `e` is shorter than `z`'s dimension.
pub fn sym_tridiag_in_place(z: &mut RMat, d: &mut [f64], e: &mut [f64]) {
    householder_tridiag::<false>(z, d, e);
}

fn householder_tridiag<const ACCUMULATE: bool>(z: &mut RMat, d: &mut [f64], e: &mut [f64]) {
    let n = z.rows();
    let cols = z.cols();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let mut scale = 0.0;
            for v in &z.row(i)[..i] {
                scale += v.abs();
            }
            if scale == 0.0 {
                e[i] = z.at(i, l);
            } else {
                for v in &mut z.row_mut(i)[..i] {
                    *v /= scale;
                    h += *v * *v;
                }
                let f = z.at(i, l);
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z.set(i, l, f - g);
                // Split at row i: the sweep reads row i (the Householder
                // vector) while updating the leading i×i block, so the two
                // borrows are disjoint.
                let (lo, hi) = z.as_mut_slice().split_at_mut(i * cols);
                let ri = &hi[..i];
                let mut f_acc = 0.0;
                for j in 0..i {
                    if ACCUMULATE {
                        lo[j * cols + i] = ri[j] / h;
                    }
                    let mut g_acc = 0.0;
                    for (zv, uv) in lo[j * cols..j * cols + j + 1].iter().zip(ri) {
                        g_acc += zv * uv;
                    }
                    for (k, uv) in ri.iter().enumerate().skip(j + 1) {
                        g_acc += lo[k * cols + j] * uv;
                    }
                    e[j] = g_acc / h;
                    f_acc += e[j] * ri[j];
                }
                let hh = f_acc / (h + h);
                for j in 0..i {
                    let f = ri[j];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for (k, v) in lo[j * cols..j * cols + j + 1].iter_mut().enumerate() {
                        *v -= f * e[k] + g * ri[k];
                    }
                }
            }
        } else {
            e[i] = z.at(i, l);
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    if ACCUMULATE {
        for i in 0..n {
            if d[i] != 0.0 {
                for j in 0..i {
                    let mut g = 0.0;
                    for k in 0..i {
                        g += z.at(i, k) * z.at(k, j);
                    }
                    for k in 0..i {
                        let v = z.at(k, j) - g * z.at(k, i);
                        z.set(k, j, v);
                    }
                }
            }
            d[i] = z.at(i, i);
            z.set(i, i, 1.0);
            for j in 0..i {
                z.set(j, i, 0.0);
                z.set(i, j, 0.0);
            }
        }
    } else {
        // The diagonal of the reduced matrix never sees the accumulation
        // pass, so it can be read off directly.
        for i in 0..n {
            d[i] = z.at(i, i);
        }
    }
}

/// Sorted eigendecomposition of a real symmetric matrix.
///
/// Returns `(eigenvalues, Q)` with eigenvalues ascending and the `j`-th
/// column of `Q` the eigenvector of the `j`-th eigenvalue, so that
/// `A = Q·diag(λ)·Qᵀ`.
///
/// Only the lower triangle of `a` is referenced semantically; the matrix is
/// assumed symmetric.
///
/// # Errors
///
/// Returns [`EigError`] if the matrix is not square or QL fails to converge.
///
/// # Examples
///
/// ```
/// use gleipnir_linalg::{sym_eig, RMat};
///
/// let a = RMat::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
/// let (vals, _q) = sym_eig(&a)?;
/// assert!((vals[0] - 1.0).abs() < 1e-12 && (vals[1] - 3.0).abs() < 1e-12);
/// # Ok::<(), gleipnir_linalg::EigError>(())
/// ```
pub fn sym_eig(a: &RMat) -> Result<(Vec<f64>, RMat), EigError> {
    if !a.is_square() {
        return Err(EigError::NotSquare);
    }
    let n = a.rows();
    let mut z = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    if n > 0 {
        tred2(&mut z, &mut d, &mut e);
        tql2(&mut d, &mut e, &mut z)?;
    }
    let (d, z) = sort_real_pairs(d, z);
    Ok((d, z))
}

/// Eigenvalues only (ascending) of a real symmetric matrix.
///
/// # Errors
///
/// Returns [`EigError`] if the matrix is not square or QL fails to converge.
pub fn sym_eigvals(a: &RMat) -> Result<Vec<f64>, EigError> {
    let mut d = Vec::new();
    sym_eigvals_in_place(&mut a.clone(), &mut d, &mut Vec::new())?;
    Ok(d)
}

/// [`sym_eigvals`] on reusable buffers: `a` is overwritten (it holds the
/// reduction), `vals` receives the ascending eigenvalues and `scratch`
/// the off-diagonal. Bit-identical to [`sym_eigvals`].
///
/// # Errors
///
/// Returns [`EigError`] if the matrix is not square, QL fails to
/// converge, or an eigenvalue comes out NaN.
pub fn sym_eigvals_in_place(
    a: &mut RMat,
    vals: &mut Vec<f64>,
    scratch: &mut Vec<f64>,
) -> Result<(), EigError> {
    if !a.is_square() {
        return Err(EigError::NotSquare);
    }
    let n = a.rows();
    vals.clear();
    vals.resize(n, 0.0);
    scratch.clear();
    scratch.resize(n, 0.0);
    if n > 0 {
        sym_tridiag_in_place(a, vals, scratch);
    }
    tridiag_eigvals_in_place(vals, scratch)
}

/// The ascending eigenvalues of the symmetric tridiagonal matrix with
/// diagonal `d` and subdiagonal `e[1..]` (the form [`sym_tridiag_in_place`]
/// leaves), written into `d` by implicit QL; `e` is scratch.
///
/// # Errors
///
/// Returns [`EigError`] if QL fails to converge or an eigenvalue comes out
/// NaN.
///
/// # Panics
///
/// Panics if `e` is shorter than `d`.
pub fn tridiag_eigvals_in_place(d: &mut [f64], e: &mut [f64]) -> Result<(), EigError> {
    tql2(d, e, &mut NoRotate)?;
    if d.iter().any(|v| v.is_nan()) {
        return Err(EigError::NotFinite);
    }
    d.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN eigenvalues"));
    Ok(())
}

fn sort_real_pairs(d: Vec<f64>, z: RMat) -> (Vec<f64>, RMat) {
    let n = d.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).expect("non-NaN eigenvalues"));
    let sorted: Vec<f64> = idx.iter().map(|&i| d[i]).collect();
    let zs = RMat::from_fn(n, n, |r, c| z.at(r, idx[c]));
    (sorted, zs)
}

fn sort_complex_pairs(d: Vec<f64>, z: CMat) -> (Vec<f64>, CMat) {
    let n = d.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).expect("non-NaN eigenvalues"));
    let sorted: Vec<f64> = idx.iter().map(|&i| d[i]).collect();
    let zs = CMat::from_fn(n, n, |r, c| z.at(r, idx[c]));
    (sorted, zs)
}

/// Reduces a Hermitian matrix to real symmetric tridiagonal form via complex
/// Householder reflections followed by a diagonal phase similarity.
///
/// Returns `(d, e, Q)` with `Q` unitary and `Q†·A·Q = tridiag(d, e)`;
/// `e[0] = 0` and `e[i]` couples sites `i−1, i`.
fn hermitian_tridiag(a: &CMat) -> (Vec<f64>, Vec<f64>, CMat) {
    let n = a.rows();
    let mut b = a.clone();
    // Superdiagonal entries T[i−1][i] (complex before phase absorption).
    let mut sup = vec![C64::ZERO; n];
    // Householder vectors (acting on coordinates 0..u.len()) and their H values,
    // pushed in creation order i = n−1, n−2, …
    let mut reflections: Vec<Option<(Vec<C64>, f64)>> = Vec::new();

    for i in (1..n).rev() {
        // Column above the diagonal in column i: c_k = b[k][i], k < i.
        let c: Vec<C64> = (0..i).map(|k| b.at(k, i)).collect();
        let tail_scale: f64 = c[..i - 1].iter().map(|z| z.re.abs() + z.im.abs()).sum();
        if tail_scale == 0.0 {
            // Already tridiagonal at this column.
            sup[i] = c[i - 1];
            reflections.push(None);
            continue;
        }
        let norm_c = c.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        let last = c[i - 1];
        let alpha = if last.abs() > 0.0 {
            last.scale(norm_c / last.abs())
        } else {
            c64(norm_c, 0.0)
        };
        let mut u = c;
        u[i - 1] += alpha;
        // H = u†c = ‖c‖² + |c_{i−1}|·‖c‖ (real, strictly positive here).
        let h = norm_c * norm_c + last.abs() * norm_c;

        // p = B·u / H over the leading i×i block.
        let mut p = vec![C64::ZERO; i];
        for (r, pr) in p.iter_mut().enumerate() {
            let mut acc = C64::ZERO;
            for (j, &uj) in u.iter().enumerate() {
                acc = acc.add_prod(b.at(r, j), uj);
            }
            *pr = acc.scale(1.0 / h);
        }
        // K = (u†p)/(2H); u†p is real because B is Hermitian and H real.
        let upd: f64 = u
            .iter()
            .zip(&p)
            .map(|(uk, pk)| uk.conj().mul_conj(pk.conj()).re)
            .sum();
        let k_scalar = upd / (2.0 * h);
        // q = p − K·u;  B ← B − u·q† − q·u†.
        let q: Vec<C64> = p
            .iter()
            .zip(&u)
            .map(|(pk, uk)| *pk - uk.scale(k_scalar))
            .collect();
        for r in 0..i {
            for cc in 0..i {
                let delta = u[r].mul_conj(q[cc]) + q[r].mul_conj(u[cc]);
                let v = b.at(r, cc) - delta;
                b.set(r, cc, v);
            }
        }
        // Column/row i become (0,…,0,−α) and its conjugate.
        for k in 0..i - 1 {
            b.set(k, i, C64::ZERO);
            b.set(i, k, C64::ZERO);
        }
        b.set(i - 1, i, -alpha);
        b.set(i, i - 1, (-alpha).conj());
        sup[i] = -alpha;
        reflections.push(Some((u, h)));
    }

    // Accumulate Q = P̃_{n−1}·P̃_{n−2}⋯ by left-applying reflections in
    // reverse creation order (ascending i).
    let mut qmat = CMat::identity(n);
    for refl in reflections.iter().rev().flatten() {
        let (u, h) = refl;
        let m = u.len();
        // t_j = (u† M)_j / H for each column j, then rank-1 update.
        let mut t = vec![C64::ZERO; n];
        for (k, &uk) in u.iter().enumerate() {
            let conj_uk = uk.conj();
            let row = qmat.row(k);
            for (tj, &mkj) in t.iter_mut().zip(row) {
                *tj = tj.add_prod(conj_uk, mkj);
            }
        }
        let inv_h = 1.0 / *h;
        for tj in &mut t {
            *tj = tj.scale(inv_h);
        }
        for (k, &uk) in u.iter().enumerate().take(m) {
            let row = qmat.row_mut(k);
            for (mkj, &tj) in row.iter_mut().zip(&t) {
                *mkj = *mkj - uk * tj;
            }
        }
    }

    // Phase absorption: make the subdiagonal real non-negative.
    // Subdiagonal T[i][i−1] = conj(sup[i]).
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    for (k, dk) in d.iter_mut().enumerate() {
        *dk = b.at(k, k).re;
    }
    let mut phase = vec![C64::ONE; n];
    for i in 1..n {
        let sub = sup[i].conj();
        let m = sub.abs();
        e[i] = m;
        phase[i] = if m > 0.0 {
            phase[i - 1] * sub.scale(1.0 / m)
        } else {
            phase[i - 1]
        };
    }
    // Q ← Q·D (scale column k by phase[k]).
    for r in 0..n {
        for k in 0..n {
            let v = qmat.at(r, k) * phase[k];
            qmat.set(r, k, v);
        }
    }
    (d, e, qmat)
}

/// Sorted eigendecomposition of a complex Hermitian matrix.
///
/// Returns `(eigenvalues, V)` with eigenvalues ascending and the `j`-th
/// column of the unitary `V` the eigenvector of the `j`-th eigenvalue, so
/// that `A = V·diag(λ)·V†`.
///
/// The input is assumed Hermitian; round-off asymmetry should be scrubbed
/// with [`CMat::hermitize`] first when the matrix is Hermitian only by
/// construction.
///
/// # Errors
///
/// Returns [`EigError`] if the matrix is not square or QL fails to converge.
///
/// # Examples
///
/// ```
/// use gleipnir_linalg::{c64, eigh, CMat, C64};
///
/// // Pauli Y has eigenvalues ±1.
/// let y = CMat::from_rows(&[
///     vec![C64::ZERO, -C64::I],
///     vec![C64::I, C64::ZERO],
/// ]);
/// let (vals, v) = eigh(&y)?;
/// assert!((vals[0] + 1.0).abs() < 1e-12 && (vals[1] - 1.0).abs() < 1e-12);
/// assert!(v.is_unitary(1e-12));
/// # Ok::<(), gleipnir_linalg::EigError>(())
/// ```
pub fn eigh(a: &CMat) -> Result<(Vec<f64>, CMat), EigError> {
    if !a.is_square() {
        return Err(EigError::NotSquare);
    }
    let n = a.rows();
    if n == 0 {
        return Ok((Vec::new(), CMat::zeros(0, 0)));
    }
    let (mut d, mut e, mut q) = hermitian_tridiag(a);
    tql2(&mut d, &mut e, &mut q)?;
    let (d, q) = sort_complex_pairs(d, q);
    Ok((d, q))
}

/// Eigenvalues only (ascending) of a complex Hermitian matrix.
///
/// # Errors
///
/// Returns [`EigError`] if the matrix is not square or QL fails to converge.
pub fn eigh_vals(a: &CMat) -> Result<Vec<f64>, EigError> {
    if !a.is_square() {
        return Err(EigError::NotSquare);
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    let (mut d, mut e, _q) = hermitian_tridiag(a);
    tql2(&mut d, &mut e, &mut NoRotate)?;
    d.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN eigenvalues"));
    Ok(d)
}

/// Hermitian matrix function: applies `f` to the eigenvalues.
///
/// Computes `V·diag(f(λ))·V†`. Used for matrix square roots
/// (`f = |λ|^{1/2}` with clamping) and PSD projections.
///
/// # Errors
///
/// Propagates [`EigError`] from [`eigh`].
pub fn herm_fn(a: &CMat, mut f: impl FnMut(f64) -> f64) -> Result<CMat, EigError> {
    let (vals, v) = eigh(a)?;
    let n = vals.len();
    let mut scaled = v.clone();
    for j in 0..n {
        let fj = c64(f(vals[j]), 0.0);
        for i in 0..n {
            let x = scaled.at(i, j) * fj;
            scaled.set(i, j, x);
        }
    }
    Ok(scaled.mul_adjoint(&v))
}

/// Principal square root of a positive semidefinite Hermitian matrix.
///
/// Small negative eigenvalues from round-off are clamped to zero.
///
/// # Errors
///
/// Propagates [`EigError`] from [`eigh`].
pub fn herm_sqrt(a: &CMat) -> Result<CMat, EigError> {
    herm_fn(a, |x| x.max(0.0).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    fn check_eig(a: &CMat, tol: f64) {
        let (vals, v) = eigh(a).expect("eigh");
        assert!(v.is_unitary(tol), "eigenvector matrix not unitary");
        // A·V = V·Λ
        let av = a.mul_mat(&v);
        let vl = v.mul_mat(&CMat::diag_real(&vals));
        assert!(av.approx_eq(&vl, tol * 10.0), "A·V != V·Λ");
        // ascending
        for w in vals.windows(2) {
            assert!(w[0] <= w[1] + 1e-14);
        }
    }

    #[test]
    fn pauli_eigenvalues() {
        let x = CMat::from_rows(&[vec![C64::ZERO, C64::ONE], vec![C64::ONE, C64::ZERO]]);
        let y = CMat::from_rows(&[vec![C64::ZERO, -C64::I], vec![C64::I, C64::ZERO]]);
        let z = CMat::from_rows(&[vec![C64::ONE, C64::ZERO], vec![C64::ZERO, -C64::ONE]]);
        for p in [&x, &y, &z] {
            let vals = eigh_vals(p).unwrap();
            assert!((vals[0] + 1.0).abs() < 1e-12);
            assert!((vals[1] - 1.0).abs() < 1e-12);
            check_eig(p, 1e-10);
        }
    }

    #[test]
    fn identity_eigendecomposition() {
        let id = CMat::identity(5);
        let (vals, v) = eigh(&id).unwrap();
        for lam in vals {
            assert!((lam - 1.0).abs() < 1e-13);
        }
        assert!(v.is_unitary(1e-12));
    }

    #[test]
    fn degenerate_spectrum() {
        // X ⊗ I has eigenvalues ±1, each twice.
        let x = CMat::from_rows(&[vec![C64::ZERO, C64::ONE], vec![C64::ONE, C64::ZERO]]);
        let xi = x.kron(&CMat::identity(2));
        let vals = eigh_vals(&xi).unwrap();
        assert!((vals[0] + 1.0).abs() < 1e-12);
        assert!((vals[1] + 1.0).abs() < 1e-12);
        assert!((vals[2] - 1.0).abs() < 1e-12);
        assert!((vals[3] - 1.0).abs() < 1e-12);
        check_eig(&xi, 1e-10);
    }

    #[test]
    fn random_hermitian_reconstruction() {
        // Deterministic pseudo-random Hermitian matrix.
        let n = 12;
        let mut seed = 0x12345678u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        };
        let m = CMat::from_fn(n, n, |_, _| c64(rng(), rng()));
        let h = (&m + &m.adjoint()).scaled(c64(0.5, 0.0));
        check_eig(&h, 1e-9);
        // Reconstruct.
        let (vals, v) = eigh(&h).unwrap();
        let recon = v.mul_mat(&CMat::diag_real(&vals)).mul_adjoint(&v);
        assert!(recon.approx_eq(&h, 1e-9));
    }

    #[test]
    fn trace_matches_eigenvalue_sum() {
        let n = 8;
        let mut k = 0.0f64;
        let m = CMat::from_fn(n, n, |i, j| {
            k += 0.37;
            c64((i + j) as f64 * 0.1 + k.sin(), (i as f64 - j as f64) * 0.2)
        });
        let h = (&m + &m.adjoint()).scaled(c64(0.5, 0.0));
        let vals = eigh_vals(&h).unwrap();
        let sum: f64 = vals.iter().sum();
        assert!((sum - h.trace().re).abs() < 1e-9);
    }

    #[test]
    fn real_symmetric_eig() {
        let a = RMat::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let (vals, q) = sym_eig(&a).unwrap();
        // QᵀQ = I
        assert!(q
            .transpose()
            .mul_mat(&q)
            .approx_eq(&RMat::identity(3), 1e-12));
        // A = QΛQᵀ
        let recon = q.mul_mat(&RMat::diag(&vals)).mul_mat(&q.transpose());
        assert!(recon.approx_eq(&a, 1e-11));
        // Sum/product invariants.
        assert!((vals.iter().sum::<f64>() - 9.0).abs() < 1e-11);
        let eigvals_only = sym_eigvals(&a).unwrap();
        for (a, b) in vals.iter().zip(&eigvals_only) {
            assert!((a - b).abs() < 1e-11);
        }
    }

    #[test]
    fn already_tridiagonal_input() {
        // Exercises the tail_scale == 0 skip path.
        let a = CMat::from_rows(&[
            vec![c64(1.0, 0.0), c64(0.0, 2.0), C64::ZERO],
            vec![c64(0.0, -2.0), c64(3.0, 0.0), c64(1.0, 0.0)],
            vec![C64::ZERO, c64(1.0, 0.0), c64(-1.0, 0.0)],
        ]);
        check_eig(&a, 1e-11);
    }

    #[test]
    fn herm_sqrt_squares_back() {
        let m = CMat::from_fn(4, 4, |i, j| {
            c64((i * 4 + j) as f64 * 0.1, (i as f64) - (j as f64))
        });
        let psd = m.mul_adjoint(&m); // M·M† is PSD
        let s = herm_sqrt(&psd).unwrap();
        assert!(s.mul_mat(&s).approx_eq(&psd, 1e-9));
    }

    #[test]
    fn one_by_one_matrix() {
        let a = CMat::from_rows(&[vec![c64(5.0, 0.0)]]);
        let (vals, v) = eigh(&a).unwrap();
        assert!((vals[0] - 5.0).abs() < 1e-15);
        assert!((v.at(0, 0).abs() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn not_square_errors() {
        let a = CMat::zeros(2, 3);
        assert_eq!(eigh(&a).unwrap_err(), EigError::NotSquare);
        assert_eq!(
            sym_eig(&RMat::zeros(2, 3)).unwrap_err(),
            EigError::NotSquare
        );
    }
}
