//! Dense real matrices (row-major), used primarily by the SDP solver.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// Sequential dot product of two equal-length slices.
///
/// Accumulates strictly left-to-right (`((0 + a₀b₀) + a₁b₁) + …`), unrolled
/// into fixed-width chunks of *sequential* adds so the compiler can drop
/// bounds checks without reassociating the sum. Bit-identical to the naive
/// `for k { s += a[k] * b[k] }` loop.
#[inline(always)]
pub fn dot_slice(a: &[f64], b: &[f64]) -> f64 {
    dot_seq(a, b)
}

/// `y += s·x` over contiguous lanes (exported unrolled kernel).
///
/// Each output element receives exactly one fused `+ s·xᵢ`, so unrolling
/// across the independent lanes cannot change bits relative to the naive
/// `for i { y[i] += s * x[i] }` loop.
///
/// # Panics
///
/// Debug-asserts equal lengths; in release the shorter length wins.
#[inline(always)]
pub fn axpy_slice(y: &mut [f64], s: f64, x: &[f64]) {
    axpy_row(y, s, x)
}

#[inline(always)]
fn dot_seq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0;
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        s += ca[0] * cb[0];
        s += ca[1] * cb[1];
        s += ca[2] * cb[2];
        s += ca[3] * cb[3];
    }
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        s += x * y;
    }
    s
}

/// Two independent `sᵢ - Σ aₖ·bᵢₖ` running differences advanced in lock
/// step. Each accumulator keeps the exact subtraction order of
/// [`sub_dot_seq`] — interleaving separate chains reorders nothing within
/// either — but the two chains overlap in the FP pipeline instead of
/// serializing on one accumulator's add latency.
#[inline(always)]
fn sub_dot_seq2(mut s1: f64, mut s2: f64, a: &[f64], b1: &[f64], b2: &[f64]) -> (f64, f64) {
    debug_assert_eq!(a.len(), b1.len());
    debug_assert_eq!(a.len(), b2.len());
    let mut ac = a.chunks_exact(4);
    let mut b1c = b1.chunks_exact(4);
    let mut b2c = b2.chunks_exact(4);
    for ((ca, cb1), cb2) in (&mut ac).zip(&mut b1c).zip(&mut b2c) {
        s1 -= ca[0] * cb1[0];
        s2 -= ca[0] * cb2[0];
        s1 -= ca[1] * cb1[1];
        s2 -= ca[1] * cb2[1];
        s1 -= ca[2] * cb1[2];
        s2 -= ca[2] * cb2[2];
        s1 -= ca[3] * cb1[3];
        s2 -= ca[3] * cb2[3];
    }
    for ((x, y1), y2) in ac
        .remainder()
        .iter()
        .zip(b1c.remainder())
        .zip(b2c.remainder())
    {
        s1 -= x * y1;
        s2 -= x * y2;
    }
    (s1, s2)
}

/// Sequential `s - Σ aₖ·bₖ` with the same subtraction order as the naive
/// `for k { s -= a[k] * b[k] }` loop (used by Cholesky and the triangular
/// solves, where the order of the running difference is load-bearing for
/// bit-exact reproducibility).
#[inline(always)]
fn sub_dot_seq(mut s: f64, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        s -= ca[0] * cb[0];
        s -= ca[1] * cb[1];
        s -= ca[2] * cb[2];
        s -= ca[3] * cb[3];
    }
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        s -= x * y;
    }
    s
}

/// `y += s·x` over contiguous lanes. Each output element receives exactly
/// one fused `+ s·xᵢ`, so unrolling across the independent lanes cannot
/// change bits.
#[inline(always)]
fn axpy_row(y: &mut [f64], s: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    let mut yc = y.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    for (cy, cx) in (&mut yc).zip(&mut xc) {
        cy[0] += s * cx[0];
        cy[1] += s * cx[1];
        cy[2] += s * cx[2];
        cy[3] += s * cx[3];
    }
    for (a, b) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *a += s * b;
    }
}

/// A dense real matrix in row-major order.
///
/// The semidefinite-programming solver works over real symmetric blocks
/// (complex Hermitian data is embedded via
/// [`crate::embed::herm_to_real_sym`]), so this type carries the real-only
/// factorizations: Cholesky, triangular solves, and symmetric
/// eigendecomposition (see [`crate::eigh::sym_eig`]).
///
/// # Examples
///
/// ```
/// use gleipnir_linalg::RMat;
///
/// let a = RMat::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
/// let l = a.cholesky().expect("SPD");
/// assert!(l.mul_mat(&l.transpose()).approx_eq(&a, 1e-12));
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct RMat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl RMat {
    /// A `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        RMat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in RMat::from_rows");
            data.extend_from_slice(row);
        }
        RMat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix whose entries come from `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        RMat { rows, cols, data }
    }

    /// Builds a diagonal matrix.
    pub fn diag(d: &[f64]) -> Self {
        let n = d.len();
        let mut m = Self::zeros(n, n);
        for (i, &v) in d.iter().enumerate() {
            m.data[i * n + i] = v;
        }
        m
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of row `i`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor for hot loops.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn mul_mat(&self, rhs: &RMat) -> RMat {
        let mut out = RMat::zeros(self.rows, rhs.cols);
        self.mul_mat_into(rhs, &mut out);
        out
    }

    /// Matrix product `self · rhs`, written into `out` (fully overwritten).
    ///
    /// The inner loops are branchless and run over contiguous row slices,
    /// with a fully unrolled fast path for right-hand sides of ≤ 8 columns
    /// (the per-gate diamond-SDP blocks). Each output element accumulates
    /// its `k` terms in ascending order exactly like the naive triple loop,
    /// so results are bit-identical to [`RMat::mul_mat`].
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn mul_mat_into(&self, rhs: &RMat, out: &mut RMat) {
        assert_eq!(self.cols, rhs.rows, "matmul inner dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, rhs.cols),
            "matmul output shape mismatch"
        );
        match rhs.cols {
            1 => self.mul_mat_small::<1>(rhs, out),
            2 => self.mul_mat_small::<2>(rhs, out),
            3 => self.mul_mat_small::<3>(rhs, out),
            4 => self.mul_mat_small::<4>(rhs, out),
            5 => self.mul_mat_small::<5>(rhs, out),
            6 => self.mul_mat_small::<6>(rhs, out),
            7 => self.mul_mat_small::<7>(rhs, out),
            8 => self.mul_mat_small::<8>(rhs, out),
            _ => {
                for i in 0..self.rows {
                    let arow = &self.data[i * self.cols..(i + 1) * self.cols];
                    let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                    orow.fill(0.0);
                    for (k, &aik) in arow.iter().enumerate() {
                        axpy_row(orow, aik, &rhs.data[k * rhs.cols..(k + 1) * rhs.cols]);
                    }
                }
            }
        }
    }

    /// Small-dimension product kernel: the whole output row lives in a
    /// const-sized register accumulator, so the `j` loop unrolls completely.
    fn mul_mat_small<const N: usize>(&self, rhs: &RMat, out: &mut RMat) {
        debug_assert_eq!(rhs.cols, N);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = [0.0f64; N];
            for (k, &aik) in arow.iter().enumerate() {
                let brow: &[f64; N] = rhs.data[k * N..k * N + N].try_into().unwrap();
                for j in 0..N {
                    acc[j] += aik * brow[j];
                }
            }
            out.row_mut(i).copy_from_slice(&acc);
        }
    }

    /// Matrix–vector product.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        (0..self.rows).map(|i| dot_seq(self.row(i), v)).collect()
    }

    /// `selfᵀ · self`, written into `out` (fully overwritten).
    ///
    /// Matches the bit-level accumulation of
    /// `self.transpose().mul_mat(&self)` — the historical call pattern in
    /// the SPD inverse — without materializing the transpose. The per-`k`
    /// zero skip is kept deliberately: the main caller passes a lower
    /// triangle, where the skip removes half the work.
    ///
    /// # Panics
    ///
    /// Panics on output-shape mismatch.
    pub fn transpose_mul_self_into(&self, out: &mut RMat) {
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, self.cols),
            "gram output shape mismatch"
        );
        let n = self.cols;
        for i in 0..n {
            let orow = &mut out.data[i * n..(i + 1) * n];
            orow.fill(0.0);
            for k in 0..self.rows {
                let a = self.data[k * n + i];
                if a == 0.0 {
                    continue;
                }
                axpy_row(orow, a, &self.data[k * n..(k + 1) * n]);
            }
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> RMat {
        let mut out = RMat::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose written into a reusable buffer (fully overwritten).
    ///
    /// # Panics
    ///
    /// Panics unless `out` is `cols × rows`.
    pub fn transpose_into(&self, out: &mut RMat) {
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, self.rows),
            "transpose_into shape mismatch"
        );
        for (i, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
    }

    /// Trace.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self.at(i, i)).sum()
    }

    /// `tr(self · rhs)` without forming the product.
    pub fn trace_mul(&self, rhs: &RMat) -> f64 {
        assert_eq!(self.cols, rhs.rows, "trace_mul dimension mismatch");
        assert_eq!(self.rows, rhs.cols, "trace_mul dimension mismatch");
        let mut acc = 0.0;
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            for (k, &aik) in arow.iter().enumerate() {
                acc += aik * rhs.data[k * rhs.cols + i];
            }
        }
        acc
    }

    /// Scales every entry, returning a new matrix.
    pub fn scaled(&self, s: f64) -> RMat {
        RMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// In-place `self += s·other`.
    pub fn axpy(&mut self, s: f64, other: &RMat) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "axpy shape mismatch"
        );
        axpy_row(&mut self.data, s, &other.data);
    }

    /// Copies every entry from `other` into `self` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, other: &RMat) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "copy_from shape mismatch"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        dot_seq(&self.data, &self.data).sqrt()
    }

    /// Largest entry magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).fold(0.0, f64::max)
    }

    /// Symmetrization `(self + selfᵀ)/2`.
    pub fn symmetrize(&self) -> RMat {
        let mut out = self.clone();
        out.symmetrize_in_place();
        out
    }

    /// In-place symmetrization `(self + selfᵀ)/2`.
    ///
    /// Bit-identical to [`RMat::symmetrize`]: each mirror pair is read
    /// before either side is written, IEEE addition is commutative on
    /// non-NaN inputs so both mirrors get the same bits, and the diagonal
    /// keeps the historical `0.5·(d + d)` evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize_in_place(&mut self) {
        assert!(self.is_square(), "symmetrize of non-square matrix");
        let n = self.rows;
        for i in 0..n {
            let d = self.data[i * n + i];
            self.data[i * n + i] = 0.5 * (d + d);
            for j in i + 1..n {
                let a = self.data[i * n + j];
                let b = self.data[j * n + i];
                let v = 0.5 * (a + b);
                self.data[i * n + j] = v;
                self.data[j * n + i] = v;
            }
        }
    }

    /// Whether all entries match `other` within `tol`.
    pub fn approx_eq(&self, other: &RMat, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Cholesky factorization of a symmetric positive-definite matrix.
    ///
    /// Returns the lower-triangular `L` with `L·Lᵀ = self`, or `None` when a
    /// non-positive pivot is encountered (the matrix is not numerically
    /// positive definite).
    pub fn cholesky(&self) -> Option<RMat> {
        let mut l = RMat::zeros(self.rows, self.cols);
        if self.cholesky_into(&mut l) {
            Some(l)
        } else {
            None
        }
    }

    /// Cholesky factorization written into a reusable buffer.
    ///
    /// On success every entry of `out` is overwritten (the strict upper
    /// triangle with zeros) and `true` is returned; on a non-positive pivot
    /// `out` holds partial garbage and `false` is returned. The running
    /// difference per entry subtracts `k = 0, 1, …` terms in the same order
    /// as the textbook loop, so factors are bit-identical to
    /// [`RMat::cholesky`].
    ///
    /// # Panics
    ///
    /// Panics if `self` is non-square or `out` has a different shape.
    pub fn cholesky_into(&self, out: &mut RMat) -> bool {
        assert!(self.is_square(), "cholesky of non-square matrix");
        let n = self.rows;
        assert_eq!(
            (out.rows, out.cols),
            (n, n),
            "cholesky output shape mismatch"
        );
        for i in 0..n {
            let (head, tail) = out.data.split_at_mut(i * n);
            let li = &mut tail[..n];
            // Columns are paired so two running differences share the FP
            // pipeline. The second column's chain subtracts its `p = j`
            // term (which needs the just-computed `L[i][j]`) after the
            // shared `p < j` prefix — exactly where the textbook loop
            // subtracts it, so every chain keeps its sequential order.
            let mut j = 0;
            while j + 1 < i {
                let lj = &head[j * n..j * n + j + 1];
                let lj1 = &head[(j + 1) * n..(j + 1) * n + j + 2];
                let (s1, mut s2) = sub_dot_seq2(
                    self.at(i, j),
                    self.at(i, j + 1),
                    &li[..j],
                    &lj[..j],
                    &lj1[..j],
                );
                let v = s1 / lj[j];
                li[j] = v;
                s2 -= v * lj1[j];
                li[j + 1] = s2 / lj1[j + 1];
                j += 2;
            }
            if j < i {
                let lj = &head[j * n..(j + 1) * n];
                let s = sub_dot_seq(self.at(i, j), &li[..j], &lj[..j]);
                li[j] = s / lj[j];
            }
            let s = sub_dot_seq(self.at(i, i), &li[..i], &li[..i]);
            if s <= 0.0 || !s.is_finite() {
                return false;
            }
            li[i] = s.sqrt();
            li[i + 1..].fill(0.0);
        }
        true
    }

    /// Forward substitution `L·x = b` performed in place on `x`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn solve_lower_in_place(&self, x: &mut [f64]) {
        assert!(self.is_square() && self.rows == x.len());
        let n = self.rows;
        for i in 0..n {
            let lrow = &self.data[i * n..(i + 1) * n];
            let s = sub_dot_seq(x[i], &lrow[..i], &x[..i]);
            x[i] = s / lrow[i];
        }
    }

    /// Back substitution `Lᵀ·x = b` performed in place on `x`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn solve_lower_transpose_in_place(&self, x: &mut [f64]) {
        assert!(self.is_square() && self.rows == x.len());
        let n = self.rows;
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in i + 1..n {
                s -= self.data[k * n + i] * x[k];
            }
            x[i] = s / self.data[i * n + i];
        }
    }

    /// Forward substitution `L·X = B` performed in place on `x`.
    ///
    /// The zero skip on `L` entries is kept: callers routinely pass factors
    /// with structural zeros (and the identity, via
    /// [`RMat::invert_lower_into`]), where it removes real work.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn solve_lower_mat_in_place(&self, x: &mut RMat) {
        assert!(self.is_square() && self.rows == x.rows);
        let n = self.rows;
        for i in 0..n {
            let (head, tail) = x.data.split_at_mut(i * x.cols);
            let xi = &mut tail[..x.cols];
            let lrow = &self.data[i * n..(i + 1) * n];
            for (k, &lik) in lrow[..i].iter().enumerate() {
                if lik == 0.0 {
                    continue;
                }
                let xk = &head[k * x.cols..(k + 1) * x.cols];
                for (a, b) in xi.iter_mut().zip(xk) {
                    *a -= lik * b;
                }
            }
            let d = lrow[i];
            for v in xi {
                *v /= d;
            }
        }
    }

    /// Inverse of a lower-triangular matrix, written into a reusable buffer
    /// (fully overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `self` is non-square or `out` has a different shape.
    pub fn invert_lower_into(&self, out: &mut RMat) {
        assert!(self.is_square(), "invert_lower of non-square matrix");
        let n = self.rows;
        assert_eq!(
            (out.rows, out.cols),
            (n, n),
            "invert_lower output shape mismatch"
        );
        out.data.fill(0.0);
        for i in 0..n {
            out.data[i * n + i] = 1.0;
        }
        self.solve_lower_mat_in_place(out);
    }
}

impl fmt::Debug for RMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RMat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(10) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(10) {
                write!(f, "{:>12.5}", self.at(i, j))?;
            }
            if self.cols > 10 {
                write!(f, " …")?;
            }
            writeln!(f)?;
        }
        if self.rows > 10 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Index<(usize, usize)> for RMat {
    type Output = f64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for RMat {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &RMat {
    type Output = RMat;
    fn add(self, rhs: &RMat) -> RMat {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        RMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &RMat {
    type Output = RMat;
    fn sub(self, rhs: &RMat) -> RMat {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub shape mismatch"
        );
        RMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Neg for &RMat {
    type Output = RMat;
    fn neg(self) -> RMat {
        RMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| -x).collect(),
        }
    }
}

impl Mul for &RMat {
    type Output = RMat;
    fn mul(self, rhs: &RMat) -> RMat {
        self.mul_mat(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_example() -> RMat {
        // A = Bᵀ·B + I is SPD for any B.
        let b = RMat::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![-1.0, 0.0, 3.0],
            vec![0.25, -2.0, 1.0],
        ]);
        let mut a = b.transpose().mul_mat(&b);
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd_example();
        let l = a.cholesky().expect("SPD");
        assert!(l.mul_mat(&l.transpose()).approx_eq(&a, 1e-12));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = RMat::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(a.cholesky().is_none());
    }

    #[test]
    fn solve_spd_residual() {
        let a = spd_example();
        let b = vec![1.0, -2.0, 0.5];
        let l = a.cholesky().expect("SPD");
        let mut x = b.clone();
        l.solve_lower_in_place(&mut x);
        l.solve_lower_transpose_in_place(&mut x);
        let r = a.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn triangular_matrix_solves() {
        let a = spd_example();
        let l = a.cholesky().unwrap();
        let eye = RMat::identity(3);
        let mut linv = eye.clone();
        l.solve_lower_mat_in_place(&mut linv);
        assert!(l.mul_mat(&linv).approx_eq(&eye, 1e-12));
        let mut inv = RMat::zeros(3, 3);
        l.invert_lower_into(&mut inv);
        assert!(inv.approx_eq(&linv, 1e-15));
    }

    #[test]
    fn trace_mul_matches() {
        let a = RMat::from_fn(3, 3, |i, j| (i + 2 * j) as f64);
        let b = RMat::from_fn(3, 3, |i, j| (2 * i) as f64 - j as f64);
        assert!((a.trace_mul(&b) - a.mul_mat(&b).trace()).abs() < 1e-12);
    }

    #[test]
    fn transpose_mul_self_is_gram() {
        let a = RMat::from_fn(4, 2, |i, j| (i * 2 + j) as f64);
        let mut g = RMat::zeros(2, 2);
        a.transpose_mul_self_into(&mut g);
        assert!(g.approx_eq(&a.transpose().mul_mat(&a), 1e-12));
    }

    #[test]
    fn symmetrize_produces_symmetric() {
        let a = RMat::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let s = a.symmetrize();
        assert!(s.approx_eq(&s.transpose(), 0.0));
    }
}
