//! Lane-interleaved kernels: `K` independent same-shape problems stored
//! element by element as `[f64; K]` and advanced in lock step.
//!
//! The never-reassociate rule forbids vectorizing *within* an accumulation
//! chain, so these kernels vectorize *across* problems instead. Lane `k`
//! of every kernel performs exactly the IEEE-754 operation sequence of the
//! scalar kernel it mirrors, on lane `k`'s data alone:
//!
//! * [`LaneMat::cholesky_into`] ≡ [`RMat::cholesky_into`] per lane;
//! * [`LaneMat::solve_lower_in_place`] ≡ [`RMat::solve_lower_in_place`];
//! * [`LaneMat::solve_lower_transpose_in_place`] ≡
//!   [`RMat::solve_lower_transpose_in_place`];
//! * [`LaneMat::symmetrize_in_place`] ≡ [`RMat::symmetrize_in_place`];
//! * [`sym_sandwich_block`] ≡ the SDP solver's scalar Schur sandwich;
//! * [`dot_terms`] ≡ a sequential `acc += w·x[off]` program.
//!
//! No kernel uses `mul_add`, FMA or a target feature beyond the platform
//! baseline (SSE2 on x86-64, where the 4-lane forms are spelled with its
//! two-lane instructions), and Rust never contracts `a*b + c` into an FMA
//! by itself, so each lane's bits are those of the scalar code on any
//! target.

use crate::RMat;

/// One element of a lane-interleaved matrix: lane `k` holds problem `k`'s
/// value.
pub type Lanes<const K: usize> = [f64; K];

/// A dense row-major matrix of [`Lanes`]: `K` same-shape real matrices
/// interleaved element by element.
#[derive(Clone, Debug, PartialEq)]
pub struct LaneMat<const K: usize> {
    rows: usize,
    cols: usize,
    data: Vec<Lanes<K>>,
}

#[inline(always)]
fn splat<const K: usize>(v: f64) -> Lanes<K> {
    [v; K]
}

// Lane arithmetic. Each helper applies one IEEE operation per lane, in the
// order its name spells. On x86-64 the 4-lane forms are written with the
// baseline SSE2 instructions (two lanes per instruction, still one
// rounding per lane operation): left to itself, the loop vectorizer
// vectorizes these kernels across matrix elements with stride-K
// shuffles instead of across lanes, which costs most of the lanes' gain.

/// `s − a·b` per lane.
#[inline(always)]
fn sub_mul<const K: usize>(mut s: Lanes<K>, a: &Lanes<K>, b: &Lanes<K>) -> Lanes<K> {
    #[cfg(target_arch = "x86_64")]
    if K == 4 {
        return x4::sub_mul(&s, a, b);
    }
    for l in 0..K {
        s[l] -= a[l] * b[l];
    }
    s
}

/// `t + w·z` per lane.
#[inline(always)]
fn add_mul<const K: usize>(mut t: Lanes<K>, w: &Lanes<K>, z: &Lanes<K>) -> Lanes<K> {
    #[cfg(target_arch = "x86_64")]
    if K == 4 {
        return x4::add_mul(&t, w, z);
    }
    for l in 0..K {
        t[l] += w[l] * z[l];
    }
    t
}

/// `t + w·z` per lane, for a `w` shared by every lane.
#[inline(always)]
fn add_mul_shared<const K: usize>(mut t: Lanes<K>, w: f64, z: &Lanes<K>) -> Lanes<K> {
    #[cfg(target_arch = "x86_64")]
    if K == 4 {
        return x4::add_mul(&t, &[w; K], z);
    }
    for l in 0..K {
        t[l] += w * z[l];
    }
    t
}

/// `s / d` per lane.
#[inline(always)]
fn div<const K: usize>(mut s: Lanes<K>, d: &Lanes<K>) -> Lanes<K> {
    #[cfg(target_arch = "x86_64")]
    if K == 4 {
        return x4::div(&s, d);
    }
    for l in 0..K {
        s[l] /= d[l];
    }
    s
}

/// `0.5·(a + b)` per lane.
#[inline(always)]
fn half_sum<const K: usize>(a: &Lanes<K>, b: &Lanes<K>) -> Lanes<K> {
    #[cfg(target_arch = "x86_64")]
    if K == 4 {
        return x4::half_sum(a, b);
    }
    std::array::from_fn(|l| 0.5 * (a[l] + b[l]))
}

/// The 4-lane SSE2 forms. Callers guarantee `K == 4`; SSE2 is part of the x86-64 baseline, so
/// the instructions exist on every x86-64 target.
#[cfg(target_arch = "x86_64")]
mod x4 {
    use super::Lanes;
    use std::arch::x86_64::{__m128d, _mm_add_pd, _mm_div_pd, _mm_mul_pd, _mm_set1_pd, _mm_sub_pd};

    // Loads and stores go through plain array indexing rather than raw
    // pointers, which keeps them free of the debug-build pointer checks
    // (the test profile runs with debug assertions on).

    /// Lanes 0–1 and 2–3.
    #[inline(always)]
    fn ld<const K: usize>(x: &Lanes<K>) -> [__m128d; 2] {
        // SAFETY: `[f64; 2]` and `__m128d` have the same size and layout.
        unsafe { std::mem::transmute([[x[0], x[1]], [x[2], x[3]]]) }
    }

    #[inline(always)]
    fn st<const K: usize>(v: [__m128d; 2]) -> Lanes<K> {
        // SAFETY: `__m128d` and `[f64; 2]` have the same size and layout.
        let [lo, hi]: [[f64; 2]; 2] = unsafe { std::mem::transmute(v) };
        let mut out = [0.0; K];
        out[0] = lo[0];
        out[1] = lo[1];
        out[2] = hi[0];
        out[3] = hi[1];
        out
    }

    #[inline(always)]
    pub(super) fn sub_mul<const K: usize>(s: &Lanes<K>, a: &Lanes<K>, b: &Lanes<K>) -> Lanes<K> {
        let (s, a, b) = (ld(s), ld(a), ld(b));
        // SAFETY: baseline SSE2 arithmetic.
        unsafe {
            st([
                _mm_sub_pd(s[0], _mm_mul_pd(a[0], b[0])),
                _mm_sub_pd(s[1], _mm_mul_pd(a[1], b[1])),
            ])
        }
    }

    #[inline(always)]
    pub(super) fn add_mul<const K: usize>(t: &Lanes<K>, w: &Lanes<K>, z: &Lanes<K>) -> Lanes<K> {
        let (t, w, z) = (ld(t), ld(w), ld(z));
        // SAFETY: baseline SSE2 arithmetic.
        unsafe {
            st([
                _mm_add_pd(t[0], _mm_mul_pd(w[0], z[0])),
                _mm_add_pd(t[1], _mm_mul_pd(w[1], z[1])),
            ])
        }
    }

    #[inline(always)]
    pub(super) fn div<const K: usize>(s: &Lanes<K>, d: &Lanes<K>) -> Lanes<K> {
        let (s, d) = (ld(s), ld(d));
        // SAFETY: baseline SSE2 arithmetic.
        unsafe { st([_mm_div_pd(s[0], d[0]), _mm_div_pd(s[1], d[1])]) }
    }

    #[inline(always)]
    pub(super) fn half_sum<const K: usize>(a: &Lanes<K>, b: &Lanes<K>) -> Lanes<K> {
        let (a, b) = (ld(a), ld(b));
        // SAFETY: baseline SSE2 arithmetic.
        unsafe {
            let h = _mm_set1_pd(0.5);
            st([
                _mm_mul_pd(h, _mm_add_pd(a[0], b[0])),
                _mm_mul_pd(h, _mm_add_pd(a[1], b[1])),
            ])
        }
    }
}

impl<const K: usize> LaneMat<K> {
    /// A `rows × cols` matrix of zeros in every lane.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        LaneMat {
            rows,
            cols,
            data: vec![splat(0.0); rows * cols],
        }
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

    /// Row-major storage.
    #[inline(always)]
    pub fn as_slice(&self) -> &[Lanes<K>] {
        &self.data
    }

    /// Mutable row-major storage.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [Lanes<K>] {
        &mut self.data
    }

    /// Row `i`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[Lanes<K>] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [Lanes<K>] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Writes `src` into lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or `lane >= K`.
    pub fn set_lane(&mut self, lane: usize, src: &RMat) {
        assert_eq!(
            (src.rows(), src.cols()),
            (self.rows, self.cols),
            "lane shape"
        );
        for (d, s) in self.data.iter_mut().zip(src.as_slice()) {
            d[lane] = *s;
        }
    }

    /// Reads lane `lane` into `out`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or `lane >= K`.
    pub fn get_lane(&self, lane: usize, out: &mut RMat) {
        assert_eq!(
            (out.rows(), out.cols()),
            (self.rows, self.cols),
            "lane shape"
        );
        for (d, s) in out.as_mut_slice().iter_mut().zip(&self.data) {
            *d = s[lane];
        }
    }

    /// In-place `(A + Aᵀ)/2` per lane, bit-identical to
    /// [`RMat::symmetrize_in_place`] on every lane.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize_in_place(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize of non-square matrix");
        let n = self.rows;
        for i in 0..n {
            let d = self.data[i * n + i];
            self.data[i * n + i] = half_sum(&d, &d);
            for j in i + 1..n {
                let v = half_sum(&self.data[i * n + j], &self.data[j * n + i]);
                self.data[i * n + j] = v;
                self.data[j * n + i] = v;
            }
        }
    }

    /// Lane-wise Cholesky factorization into `out`.
    ///
    /// Returns, per lane, whether that lane's matrix was numerically
    /// positive definite. A passing lane's factor is bit-identical to
    /// [`RMat::cholesky_into`] on that lane (strict upper triangle zeroed);
    /// a failing lane holds garbage, and never disturbs the other lanes.
    ///
    /// Columns advance four at a time: each row's four running
    /// differences share the loads of its prefix, and each chain
    /// subtracts its `p = 0, 1, …` terms in the textbook order — the
    /// in-block terms (which need the just-computed entries) last, exactly
    /// where the textbook loop subtracts them.
    ///
    /// # Panics
    ///
    /// Panics if `self` is non-square or `out` has a different shape.
    pub fn cholesky_into(&self, out: &mut LaneMat<K>) -> [bool; K] {
        assert_eq!(self.rows, self.cols, "cholesky of non-square matrix");
        let n = self.rows;
        assert_eq!((out.rows, out.cols), (n, n), "cholesky output shape");
        let mut ok = [true; K];
        for i in 0..n {
            let (head, tail) = out.data.split_at_mut(i * n);
            let li = &mut tail[..n];
            let a = &self.data[i * n..(i + 1) * n];
            let mut j = 0;
            while j + 4 <= i {
                let r0 = &head[j * n..j * n + j + 1];
                let r1 = &head[(j + 1) * n..(j + 1) * n + j + 2];
                let r2 = &head[(j + 2) * n..(j + 2) * n + j + 3];
                let r3 = &head[(j + 3) * n..(j + 3) * n + j + 4];
                let (mut s0, mut s1, mut s2, mut s3) = (a[j], a[j + 1], a[j + 2], a[j + 3]);
                let prefix = li[..j].iter().zip(&r0[..j]).zip(&r1[..j]);
                for (((x, y0), y1), (y2, y3)) in prefix.zip(r2[..j].iter().zip(&r3[..j])) {
                    s0 = sub_mul(s0, x, y0);
                    s1 = sub_mul(s1, x, y1);
                    s2 = sub_mul(s2, x, y2);
                    s3 = sub_mul(s3, x, y3);
                }
                let v0 = div(s0, &r0[j]);
                s1 = sub_mul(s1, &v0, &r1[j]);
                let v1 = div(s1, &r1[j + 1]);
                s2 = sub_mul(s2, &v0, &r2[j]);
                s2 = sub_mul(s2, &v1, &r2[j + 1]);
                let v2 = div(s2, &r2[j + 2]);
                s3 = sub_mul(s3, &v0, &r3[j]);
                s3 = sub_mul(s3, &v1, &r3[j + 1]);
                s3 = sub_mul(s3, &v2, &r3[j + 2]);
                let v3 = div(s3, &r3[j + 3]);
                li[j] = v0;
                li[j + 1] = v1;
                li[j + 2] = v2;
                li[j + 3] = v3;
                j += 4;
            }
            while j < i {
                let rj = &head[j * n..j * n + j + 1];
                let mut s = a[j];
                for (x, y) in li[..j].iter().zip(rj) {
                    s = sub_mul(s, x, y);
                }
                li[j] = div(s, &rj[j]);
                j += 1;
            }
            let mut s = a[i];
            for x in &li[..i] {
                s = sub_mul(s, x, x);
            }
            let mut d = s;
            for l in 0..K {
                if s[l] <= 0.0 || !s[l].is_finite() {
                    ok[l] = false;
                }
                d[l] = s[l].sqrt();
            }
            if !ok.iter().any(|&o| o) {
                return ok;
            }
            li[i] = d;
            li[i + 1..].fill(splat(0.0));
        }
        ok
    }

    /// Forward substitution `L·x = b` in place, per lane — bit-identical to
    /// [`RMat::solve_lower_in_place`] on every lane.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn solve_lower_in_place(&self, x: &mut [Lanes<K>]) {
        assert!(self.rows == self.cols && self.rows == x.len());
        let n = self.rows;
        for i in 0..n {
            let lrow = &self.data[i * n..(i + 1) * n];
            let (done, rest) = x.split_at_mut(i);
            let mut s = rest[0];
            for (a, b) in lrow[..i].iter().zip(done.iter()) {
                s = sub_mul(s, a, b);
            }
            rest[0] = div(s, &lrow[i]);
        }
    }

    /// Back substitution `Lᵀ·x = b` in place, per lane — bit-identical to
    /// [`RMat::solve_lower_transpose_in_place`] on every lane.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn solve_lower_transpose_in_place(&self, x: &mut [Lanes<K>]) {
        assert!(self.rows == self.cols && self.rows == x.len());
        let n = self.rows;
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in i + 1..n {
                s = sub_mul(s, &self.data[k * n + i], &x[k]);
            }
            x[i] = div(s, &self.data[i * n + i]);
        }
    }
}

/// `y += s·x` per lane with a scalar `s` shared by every lane.
#[inline(always)]
fn axpy_shared<const K: usize>(y: &mut [Lanes<K>], s: f64, x: &[Lanes<K>]) {
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv = add_mul_shared(*yv, s, xv);
    }
}

/// One block of the SDP solver's Schur sandwich `sym(X·A·Z⁻¹)`, lane-wise,
/// for a constraint whose sparsity and values are shared by every lane.
///
/// `entries` are the constraint's `(row, col ≥ row, value)` triples in this
/// block, `rows` the sorted distinct indices they touch. `v` is scratch of
/// `x`'s shape; `out` receives the symmetrized sandwich (fully
/// overwritten).
///
/// Per lane this is the scalar kernel's exact chain: `V = (X·A)ᵀ` is
/// accumulated row-wise entry by entry in entry order, then
/// `T[i][j] = Σ_k V[k][i]·Z⁻¹[k][j]` over the touched rows `k` in ascending
/// order, then `(T + Tᵀ)/2`. The scalar kernel skips `V[k][i] == 0` terms;
/// here a term is skipped when its `V[k][i]` is zero in every lane, and a
/// lane whose `V[k][i]` alone is zero skips it by a per-lane select (the
/// skipped product could be a NaN where `Z⁻¹` is not finite).
///
/// # Panics
///
/// Panics if an index in `entries` or `rows` is out of range.
pub fn sym_sandwich_block<const K: usize>(
    x: &LaneMat<K>,
    entries: &[(usize, usize, f64)],
    rows: &[usize],
    zinv: &LaneMat<K>,
    v: &mut LaneMat<K>,
    out: &mut LaneMat<K>,
) {
    for &r in rows {
        v.row_mut(r).fill(splat(0.0));
    }
    for &(r, c, val) in entries {
        axpy_shared(v.row_mut(c), val, x.row(r));
        if r != c {
            axpy_shared(v.row_mut(r), val, x.row(c));
        }
    }
    // Row i of T accumulates Σ_k V[k][i]·Z⁻¹[k] over the touched rows k
    // with a live V[k][i], ascending — fused, up to four terms per pass,
    // so each element is stored once per pass instead of once per term.
    let n = out.cols;
    for i in 0..n {
        let trow = &mut out.data[i * n..(i + 1) * n];
        let mut live = rows
            .iter()
            .copied()
            .filter(|&k| v.data[k * n + i].iter().any(|&w| w != 0.0));
        let mut first = true;
        loop {
            let mut ks = [0usize; 4];
            let mut q = 0;
            for k in live.by_ref().take(4) {
                ks[q] = k;
                q += 1;
            }
            if q == 0 {
                if first {
                    trow.fill(splat(0.0));
                }
                break;
            }
            let w: [Lanes<K>; 4] = std::array::from_fn(|p| v.data[ks[p] * n + i]);
            let z: [&[Lanes<K>]; 4] = std::array::from_fn(|p| zinv.row(ks[p]));
            if w[..q].iter().all(|wv| wv.iter().all(|&x| x != 0.0)) {
                match q {
                    1 => row_terms::<K, 1>(trow, first, &w, &z),
                    2 => row_terms::<K, 2>(trow, first, &w, &z),
                    3 => row_terms::<K, 3>(trow, first, &w, &z),
                    _ => row_terms::<K, 4>(trow, first, &w, &z),
                }
            } else {
                row_terms_masked(trow, first, &w[..q], &z[..q]);
            }
            first = false;
        }
    }
    out.symmetrize_in_place();
}

/// `t[j] (+0.0 when `first`) + w[0]·z[0][j] + … + w[Q−1]·z[Q−1][j]` per
/// lane, left to right, for every `j`.
#[inline(always)]
fn row_terms<const K: usize, const Q: usize>(
    trow: &mut [Lanes<K>],
    first: bool,
    w: &[Lanes<K>; 4],
    z: &[&[Lanes<K>]; 4],
) {
    let n = trow.len();
    let z: [&[Lanes<K>]; Q] = std::array::from_fn(|p| &z[p][..n]);
    for (j, t) in trow.iter_mut().enumerate() {
        let mut acc = if first { splat(0.0) } else { *t };
        for p in 0..Q {
            acc = add_mul(acc, &w[p], &z[p][j]);
        }
        *t = acc;
    }
}

/// [`row_terms`] where some lane's `w` is zero: that lane skips the term,
/// exactly as the scalar kernel does (the skipped product could be a NaN
/// if `z` is not finite).
fn row_terms_masked<const K: usize>(
    trow: &mut [Lanes<K>],
    first: bool,
    w: &[Lanes<K>],
    z: &[&[Lanes<K>]],
) {
    for (j, t) in trow.iter_mut().enumerate() {
        let mut acc = if first { splat(0.0) } else { *t };
        for (wv, zr) in w.iter().zip(z) {
            for l in 0..K {
                if wv[l] != 0.0 {
                    acc[l] += wv[l] * zr[j][l];
                }
            }
        }
        *t = acc;
    }
}

/// `acc + Σ w·x[off]` per lane, one term at a time in `terms` order — the
/// lane form of the SDP solver's flattened constraint inner product.
///
/// # Panics
///
/// Panics if an offset is out of range.
#[inline]
pub fn dot_terms<const K: usize>(
    mut acc: Lanes<K>,
    terms: &[(u32, f64)],
    x: &[Lanes<K>],
) -> Lanes<K> {
    for &(off, w) in terms {
        acc = add_mul_shared(acc, w, &x[off as usize]);
    }
    acc
}
