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
//! * [`DotPrograms::row`] ≡ one sequential `acc += w·x[block][off]`
//!   program per output, from `+0.0`.
//!
//! No kernel uses `mul_add` or FMA, and Rust never contracts `a*b + c`
//! into an FMA by itself. On x86-64 the 4-lane forms are spelled with
//! vector instructions that round once per lane, exactly like the scalar
//! `mulsd`/`addsd`/`subsd`/`divsd`: the baseline SSE2 (two lanes per
//! instruction) everywhere, and 256-bit AVX (four lanes per instruction,
//! no FMA) on hosts that report it. The AVX path is chosen at run time by
//! `is_x86_feature_detected!`, once per kernel call, and no compile-time
//! target flag is involved. So each lane's bits are those of the scalar
//! code on any host and any target.

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

/// The instruction set a lane kernel runs on. The public kernels pick
/// [`LaneIsa::detect`]; the `_on` entry points take it explicitly, so
/// tests can run both paths on one host.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneIsa {
    /// The target's baseline: SSE2 for `K = 4` on x86-64, per-lane loops
    /// otherwise.
    Baseline,
    /// 256-bit AVX without FMA for `K = 4` (per-lane loops otherwise);
    /// x86-64 hosts that report AVX only.
    Avx,
}

impl LaneIsa {
    /// The path the public kernels take for `K` lanes on this host.
    #[inline]
    pub fn detect<const K: usize>() -> Self {
        if K == 4 && LaneIsa::Avx.available() {
            LaneIsa::Avx
        } else {
            LaneIsa::Baseline
        }
    }

    /// Whether this host can run the path.
    #[inline]
    pub fn available(self) -> bool {
        match self {
            LaneIsa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            LaneIsa::Avx => std::arch::is_x86_feature_detected!("avx"),
            #[cfg(not(target_arch = "x86_64"))]
            LaneIsa::Avx => false,
        }
    }
}

/// Runs the generic kernel body `$body::<I, K>(args…)` with the lane
/// arithmetic of `$isa`. The AVX body runs inside [`with_avx`], so it
/// is compiled for AVX as a whole; the choice is made once per call.
macro_rules! on_isa {
    ($isa:expr, $body:ident::<$k:tt>($($arg:expr),* $(,)?)) => {{
        let isa: LaneIsa = $isa;
        assert!(isa.available(), "lane path {isa:?} is not available on this host");
        match isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the host reports AVX (asserted above).
            LaneIsa::Avx => unsafe { with_avx(|| $body::<Avx, $k>($($arg),*)) },
            _ => $body::<Base, $k>($($arg),*),
        }
    }};
}

/// Calls `f` from a function compiled with AVX enabled, so the
/// `#[inline(always)]` kernel body and lane arithmetic inlined into it
/// become 256-bit instructions. (FMA stays disabled.)
///
/// # Safety
///
/// The host must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn with_avx<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Lane arithmetic on one instruction set. Each operation applies one
/// IEEE operation per lane, in the order its name spells.
trait Arith {
    /// `s − a·b` per lane.
    fn sub_mul<const K: usize>(s: Lanes<K>, a: &Lanes<K>, b: &Lanes<K>) -> Lanes<K>;
    /// `t + w·z` per lane.
    fn add_mul<const K: usize>(t: Lanes<K>, w: &Lanes<K>, z: &Lanes<K>) -> Lanes<K>;
    /// `t + w·z` per lane, for a `w` shared by every lane.
    fn add_mul_shared<const K: usize>(t: Lanes<K>, w: f64, z: &Lanes<K>) -> Lanes<K>;
    /// `s / d` per lane.
    fn div<const K: usize>(s: Lanes<K>, d: &Lanes<K>) -> Lanes<K>;
    /// `0.5·(a + b)` per lane.
    fn half_sum<const K: usize>(a: &Lanes<K>, b: &Lanes<K>) -> Lanes<K>;
}

/// Plain per-lane loops: every `K` on targets without a vector form, and
/// `K ≠ 4` everywhere.
mod scalar {
    use super::Lanes;

    #[inline(always)]
    pub(super) fn sub_mul<const K: usize>(mut s: Lanes<K>, a: &Lanes<K>, b: &Lanes<K>) -> Lanes<K> {
        for l in 0..K {
            s[l] -= a[l] * b[l];
        }
        s
    }

    #[inline(always)]
    pub(super) fn add_mul<const K: usize>(mut t: Lanes<K>, w: &Lanes<K>, z: &Lanes<K>) -> Lanes<K> {
        for l in 0..K {
            t[l] += w[l] * z[l];
        }
        t
    }

    #[inline(always)]
    pub(super) fn add_mul_shared<const K: usize>(
        mut t: Lanes<K>,
        w: f64,
        z: &Lanes<K>,
    ) -> Lanes<K> {
        for l in 0..K {
            t[l] += w * z[l];
        }
        t
    }

    #[inline(always)]
    pub(super) fn div<const K: usize>(mut s: Lanes<K>, d: &Lanes<K>) -> Lanes<K> {
        for l in 0..K {
            s[l] /= d[l];
        }
        s
    }

    #[inline(always)]
    pub(super) fn half_sum<const K: usize>(a: &Lanes<K>, b: &Lanes<K>) -> Lanes<K> {
        std::array::from_fn(|l| 0.5 * (a[l] + b[l]))
    }
}

/// The baseline path. On x86-64 the 4-lane forms are written with SSE2
/// instructions (two lanes per instruction): left to itself, the loop
/// vectorizer vectorizes these kernels across matrix elements with
/// stride-K shuffles instead of across lanes, which costs most of the
/// lanes' gain.
struct Base;

impl Arith for Base {
    #[inline(always)]
    fn sub_mul<const K: usize>(s: Lanes<K>, a: &Lanes<K>, b: &Lanes<K>) -> Lanes<K> {
        #[cfg(target_arch = "x86_64")]
        if K == 4 {
            return sse2::sub_mul(&s, a, b);
        }
        scalar::sub_mul(s, a, b)
    }

    #[inline(always)]
    fn add_mul<const K: usize>(t: Lanes<K>, w: &Lanes<K>, z: &Lanes<K>) -> Lanes<K> {
        #[cfg(target_arch = "x86_64")]
        if K == 4 {
            return sse2::add_mul(&t, w, z);
        }
        scalar::add_mul(t, w, z)
    }

    #[inline(always)]
    fn add_mul_shared<const K: usize>(t: Lanes<K>, w: f64, z: &Lanes<K>) -> Lanes<K> {
        #[cfg(target_arch = "x86_64")]
        if K == 4 {
            return sse2::add_mul(&t, &[w; K], z);
        }
        scalar::add_mul_shared(t, w, z)
    }

    #[inline(always)]
    fn div<const K: usize>(s: Lanes<K>, d: &Lanes<K>) -> Lanes<K> {
        #[cfg(target_arch = "x86_64")]
        if K == 4 {
            return sse2::div(&s, d);
        }
        scalar::div(s, d)
    }

    #[inline(always)]
    fn half_sum<const K: usize>(a: &Lanes<K>, b: &Lanes<K>) -> Lanes<K> {
        #[cfg(target_arch = "x86_64")]
        if K == 4 {
            return sse2::half_sum(a, b);
        }
        scalar::half_sum(a, b)
    }
}

/// The 4-lane SSE2 forms. Callers guarantee `K == 4`; SSE2 is part of the
/// x86-64 baseline, so the instructions exist on every x86-64 target.
#[cfg(target_arch = "x86_64")]
mod sse2 {
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

/// The AVX path: one 256-bit instruction per 4-lane operation. Only ever
/// inlined into [`with_avx`], which the dispatcher calls on AVX hosts.
#[cfg(target_arch = "x86_64")]
struct Avx;

#[cfg(target_arch = "x86_64")]
impl Arith for Avx {
    #[inline(always)]
    fn sub_mul<const K: usize>(s: Lanes<K>, a: &Lanes<K>, b: &Lanes<K>) -> Lanes<K> {
        if K == 4 {
            return avx::sub_mul(&s, a, b);
        }
        scalar::sub_mul(s, a, b)
    }

    #[inline(always)]
    fn add_mul<const K: usize>(t: Lanes<K>, w: &Lanes<K>, z: &Lanes<K>) -> Lanes<K> {
        if K == 4 {
            return avx::add_mul(&t, w, z);
        }
        scalar::add_mul(t, w, z)
    }

    #[inline(always)]
    fn add_mul_shared<const K: usize>(t: Lanes<K>, w: f64, z: &Lanes<K>) -> Lanes<K> {
        if K == 4 {
            return avx::add_mul(&t, &[w; K], z);
        }
        scalar::add_mul_shared(t, w, z)
    }

    #[inline(always)]
    fn div<const K: usize>(s: Lanes<K>, d: &Lanes<K>) -> Lanes<K> {
        if K == 4 {
            return avx::div(&s, d);
        }
        scalar::div(s, d)
    }

    #[inline(always)]
    fn half_sum<const K: usize>(a: &Lanes<K>, b: &Lanes<K>) -> Lanes<K> {
        if K == 4 {
            return avx::half_sum(a, b);
        }
        scalar::half_sum(a, b)
    }
}

/// The 4-lane AVX forms (`_mm256_{add,sub,mul,div}_pd`, never FMA).
/// Callers guarantee `K == 4` and an AVX host.
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::Lanes;
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_div_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_sub_pd,
    };

    #[inline(always)]
    fn ld<const K: usize>(x: &Lanes<K>) -> __m256d {
        // SAFETY: `[f64; 4]` and `__m256d` have the same size and layout.
        unsafe { std::mem::transmute([x[0], x[1], x[2], x[3]]) }
    }

    #[inline(always)]
    fn st<const K: usize>(v: __m256d) -> Lanes<K> {
        // SAFETY: `__m256d` and `[f64; 4]` have the same size and layout.
        let v: [f64; 4] = unsafe { std::mem::transmute(v) };
        let mut out = [0.0; K];
        out[0] = v[0];
        out[1] = v[1];
        out[2] = v[2];
        out[3] = v[3];
        out
    }

    #[inline(always)]
    pub(super) fn sub_mul<const K: usize>(s: &Lanes<K>, a: &Lanes<K>, b: &Lanes<K>) -> Lanes<K> {
        // SAFETY: AVX arithmetic on an AVX host (the caller's contract).
        unsafe { st(_mm256_sub_pd(ld(s), _mm256_mul_pd(ld(a), ld(b)))) }
    }

    #[inline(always)]
    pub(super) fn add_mul<const K: usize>(t: &Lanes<K>, w: &Lanes<K>, z: &Lanes<K>) -> Lanes<K> {
        // SAFETY: AVX arithmetic on an AVX host (the caller's contract).
        unsafe { st(_mm256_add_pd(ld(t), _mm256_mul_pd(ld(w), ld(z)))) }
    }

    #[inline(always)]
    pub(super) fn div<const K: usize>(s: &Lanes<K>, d: &Lanes<K>) -> Lanes<K> {
        // SAFETY: AVX arithmetic on an AVX host (the caller's contract).
        unsafe { st(_mm256_div_pd(ld(s), ld(d))) }
    }

    #[inline(always)]
    pub(super) fn half_sum<const K: usize>(a: &Lanes<K>, b: &Lanes<K>) -> Lanes<K> {
        // SAFETY: AVX arithmetic on an AVX host (the caller's contract).
        unsafe {
            st(_mm256_mul_pd(
                _mm256_set1_pd(0.5),
                _mm256_add_pd(ld(a), ld(b)),
            ))
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
        self.symmetrize_in_place_on(LaneIsa::detect::<K>());
    }

    /// [`LaneMat::symmetrize_in_place`] on an explicit path.
    ///
    /// # Panics
    ///
    /// Panics as the public kernel does, or if `isa` is unavailable.
    #[doc(hidden)]
    pub fn symmetrize_in_place_on(&mut self, isa: LaneIsa) {
        on_isa!(isa, symmetrize_body::<K>(self))
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
        self.cholesky_into_on(LaneIsa::detect::<K>(), out)
    }

    /// [`LaneMat::cholesky_into`] on an explicit path.
    ///
    /// # Panics
    ///
    /// Panics as the public kernel does, or if `isa` is unavailable.
    #[doc(hidden)]
    pub fn cholesky_into_on(&self, isa: LaneIsa, out: &mut LaneMat<K>) -> [bool; K] {
        on_isa!(isa, cholesky_body::<K>(self, out))
    }

    /// Forward substitution `L·x = b` in place, per lane — bit-identical to
    /// [`RMat::solve_lower_in_place`] on every lane.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn solve_lower_in_place(&self, x: &mut [Lanes<K>]) {
        self.solve_lower_in_place_on(LaneIsa::detect::<K>(), x);
    }

    /// [`LaneMat::solve_lower_in_place`] on an explicit path.
    ///
    /// # Panics
    ///
    /// Panics as the public kernel does, or if `isa` is unavailable.
    #[doc(hidden)]
    pub fn solve_lower_in_place_on(&self, isa: LaneIsa, x: &mut [Lanes<K>]) {
        on_isa!(isa, solve_lower_body::<K>(self, x))
    }

    /// Back substitution `Lᵀ·x = b` in place, per lane — bit-identical to
    /// [`RMat::solve_lower_transpose_in_place`] on every lane.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn solve_lower_transpose_in_place(&self, x: &mut [Lanes<K>]) {
        self.solve_lower_transpose_in_place_on(LaneIsa::detect::<K>(), x);
    }

    /// [`LaneMat::solve_lower_transpose_in_place`] on an explicit path.
    ///
    /// # Panics
    ///
    /// Panics as the public kernel does, or if `isa` is unavailable.
    #[doc(hidden)]
    pub fn solve_lower_transpose_in_place_on(&self, isa: LaneIsa, x: &mut [Lanes<K>]) {
        on_isa!(isa, solve_lower_transpose_body::<K>(self, x))
    }
}

#[inline(always)]
fn symmetrize_body<I: Arith, const K: usize>(a: &mut LaneMat<K>) {
    assert_eq!(a.rows, a.cols, "symmetrize of non-square matrix");
    let n = a.rows;
    for i in 0..n {
        let d = a.data[i * n + i];
        a.data[i * n + i] = I::half_sum(&d, &d);
        for j in i + 1..n {
            let v = I::half_sum(&a.data[i * n + j], &a.data[j * n + i]);
            a.data[i * n + j] = v;
            a.data[j * n + i] = v;
        }
    }
}

#[inline(always)]
fn cholesky_body<I: Arith, const K: usize>(a: &LaneMat<K>, out: &mut LaneMat<K>) -> [bool; K] {
    assert_eq!(a.rows, a.cols, "cholesky of non-square matrix");
    let n = a.rows;
    assert_eq!((out.rows, out.cols), (n, n), "cholesky output shape");
    let mut ok = [true; K];
    for i in 0..n {
        let (head, tail) = out.data.split_at_mut(i * n);
        let li = &mut tail[..n];
        let ai = &a.data[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 4 <= i {
            let r0 = &head[j * n..j * n + j + 1];
            let r1 = &head[(j + 1) * n..(j + 1) * n + j + 2];
            let r2 = &head[(j + 2) * n..(j + 2) * n + j + 3];
            let r3 = &head[(j + 3) * n..(j + 3) * n + j + 4];
            let (mut s0, mut s1, mut s2, mut s3) = (ai[j], ai[j + 1], ai[j + 2], ai[j + 3]);
            let prefix = li[..j].iter().zip(&r0[..j]).zip(&r1[..j]);
            for (((x, y0), y1), (y2, y3)) in prefix.zip(r2[..j].iter().zip(&r3[..j])) {
                s0 = I::sub_mul(s0, x, y0);
                s1 = I::sub_mul(s1, x, y1);
                s2 = I::sub_mul(s2, x, y2);
                s3 = I::sub_mul(s3, x, y3);
            }
            let v0 = I::div(s0, &r0[j]);
            s1 = I::sub_mul(s1, &v0, &r1[j]);
            let v1 = I::div(s1, &r1[j + 1]);
            s2 = I::sub_mul(s2, &v0, &r2[j]);
            s2 = I::sub_mul(s2, &v1, &r2[j + 1]);
            let v2 = I::div(s2, &r2[j + 2]);
            s3 = I::sub_mul(s3, &v0, &r3[j]);
            s3 = I::sub_mul(s3, &v1, &r3[j + 1]);
            s3 = I::sub_mul(s3, &v2, &r3[j + 2]);
            let v3 = I::div(s3, &r3[j + 3]);
            li[j] = v0;
            li[j + 1] = v1;
            li[j + 2] = v2;
            li[j + 3] = v3;
            j += 4;
        }
        while j < i {
            let rj = &head[j * n..j * n + j + 1];
            let mut s = ai[j];
            for (x, y) in li[..j].iter().zip(rj) {
                s = I::sub_mul(s, x, y);
            }
            li[j] = I::div(s, &rj[j]);
            j += 1;
        }
        let mut s = ai[i];
        for x in &li[..i] {
            s = I::sub_mul(s, x, x);
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

#[inline(always)]
fn solve_lower_body<I: Arith, const K: usize>(l: &LaneMat<K>, x: &mut [Lanes<K>]) {
    assert!(l.rows == l.cols && l.rows == x.len());
    let n = l.rows;
    for i in 0..n {
        let lrow = &l.data[i * n..(i + 1) * n];
        let (done, rest) = x.split_at_mut(i);
        let mut s = rest[0];
        for (a, b) in lrow[..i].iter().zip(done.iter()) {
            s = I::sub_mul(s, a, b);
        }
        rest[0] = I::div(s, &lrow[i]);
    }
}

#[inline(always)]
fn solve_lower_transpose_body<I: Arith, const K: usize>(l: &LaneMat<K>, x: &mut [Lanes<K>]) {
    assert!(l.rows == l.cols && l.rows == x.len());
    let n = l.rows;
    for i in (0..n).rev() {
        let mut s = x[i];
        for k in i + 1..n {
            s = I::sub_mul(s, &l.data[k * n + i], &x[k]);
        }
        x[i] = I::div(s, &l.data[i * n + i]);
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
    sym_sandwich_block_on(LaneIsa::detect::<K>(), x, entries, rows, zinv, v, out);
}

/// [`sym_sandwich_block`] on an explicit path.
///
/// # Panics
///
/// Panics as the public kernel does, or if `isa` is unavailable.
#[doc(hidden)]
pub fn sym_sandwich_block_on<const K: usize>(
    isa: LaneIsa,
    x: &LaneMat<K>,
    entries: &[(usize, usize, f64)],
    rows: &[usize],
    zinv: &LaneMat<K>,
    v: &mut LaneMat<K>,
    out: &mut LaneMat<K>,
) {
    on_isa!(isa, sandwich_body::<K>(x, entries, rows, zinv, v, out))
}

#[inline(always)]
fn sandwich_body<I: Arith, const K: usize>(
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
        axpy_shared::<I, K>(v.row_mut(c), val, x.row(r));
        if r != c {
            axpy_shared::<I, K>(v.row_mut(r), val, x.row(c));
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
                    1 => row_terms::<I, K, 1>(trow, first, &w, &z),
                    2 => row_terms::<I, K, 2>(trow, first, &w, &z),
                    3 => row_terms::<I, K, 3>(trow, first, &w, &z),
                    _ => row_terms::<I, K, 4>(trow, first, &w, &z),
                }
            } else {
                row_terms_masked(trow, first, &w[..q], &z[..q]);
            }
            first = false;
        }
    }
    symmetrize_body::<I, K>(out);
}

/// `y += s·x` per lane with a scalar `s` shared by every lane.
#[inline(always)]
fn axpy_shared<I: Arith, const K: usize>(y: &mut [Lanes<K>], s: f64, x: &[Lanes<K>]) {
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv = I::add_mul_shared(*yv, s, xv);
    }
}

/// `t[j] (+0.0 when `first`) + w[0]·z[0][j] + … + w[Q−1]·z[Q−1][j]` per
/// lane, left to right, for every `j`.
#[inline(always)]
fn row_terms<I: Arith, const K: usize, const Q: usize>(
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
            acc = I::add_mul(acc, &w[p], &z[p][j]);
        }
        *t = acc;
    }
}

/// [`row_terms`] where some lane's `w` is zero: that lane skips the term,
/// exactly as the scalar kernel does (the skipped product could be a NaN
/// if `z` is not finite).
#[inline(always)]
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

/// One term `w·x[block][off]` of a sparse inner-product program.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DotTerm {
    /// Block the term reads.
    pub block: u32,
    /// Row-major offset inside the block.
    pub off: u32,
    /// Weight.
    pub w: f64,
}

/// Sparse inner-product programs over a block matrix, stored flat.
///
/// Program `k` evaluates `Σ w·x[block][off]` over its terms, adding them
/// one at a time in push order to an accumulator that starts at `+0.0`.
/// Each program also carries the bitmask of the blocks it reads (every
/// bit set past block 63), so a caller can skip programs whose support
/// is disjoint from the data's.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DotPrograms {
    terms: Vec<DotTerm>,
    /// Program `k` is `terms[ends[k − 1]..ends[k]]` (from 0 for `k = 0`).
    ends: Vec<usize>,
    masks: Vec<u64>,
}

impl DotPrograms {
    /// No programs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a program.
    pub fn push(&mut self, program: impl IntoIterator<Item = DotTerm>) {
        let start = self.terms.len();
        self.terms.extend(program);
        let mask = self.terms[start..].iter().fold(0u64, |m, t| {
            if t.block < 64 {
                m | (1 << t.block)
            } else {
                !0
            }
        });
        self.ends.push(self.terms.len());
        self.masks.push(mask);
    }

    /// Number of programs.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no programs.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Program `k`'s terms, in evaluation order.
    #[inline(always)]
    pub fn program(&self, k: usize) -> &[DotTerm] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.terms[start..self.ends[k]]
    }

    /// The blocks program `k` reads, as a bitmask.
    #[inline(always)]
    pub fn mask(&self, k: usize) -> u64 {
        self.masks[k]
    }

    /// Every program on every lane of `x`, into `out[k]`.
    ///
    /// A program whose mask is disjoint from `support` is not run: it gets
    /// `+0.0`, which is what it computes when `x` is `+0.0` outside
    /// `support` (`±0.0` terms cannot move a `+0.0` accumulator). The
    /// others run four at a time in lock step, each chain on its own
    /// accumulator in its own term order, so each output's bits are those
    /// of the program run alone.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have one entry per program, or a term
    /// addresses outside `x`.
    pub fn row<const K: usize>(&self, support: u64, x: &[LaneMat<K>], out: &mut [Lanes<K>]) {
        self.row_on(LaneIsa::detect::<K>(), support, x, out);
    }

    /// [`DotPrograms::row`] on an explicit path.
    ///
    /// # Panics
    ///
    /// Panics as the public kernel does, or if `isa` is unavailable.
    #[doc(hidden)]
    pub fn row_on<const K: usize>(
        &self,
        isa: LaneIsa,
        support: u64,
        x: &[LaneMat<K>],
        out: &mut [Lanes<K>],
    ) {
        on_isa!(isa, dot_row_body::<K>(self, support, x, out))
    }
}

#[inline(always)]
fn dot_row_body<I: Arith, const K: usize>(
    p: &DotPrograms,
    support: u64,
    x: &[LaneMat<K>],
    out: &mut [Lanes<K>],
) {
    assert_eq!(out.len(), p.len(), "one output per program");
    let mut quad = [0usize; 4];
    let mut q = 0;
    for k in 0..out.len() {
        if p.masks[k] & support == 0 {
            out[k] = splat(0.0);
            continue;
        }
        quad[q] = k;
        q += 1;
        if q == 4 {
            dot4::<I, K>(p, quad, x, out);
            q = 0;
        }
    }
    for &k in &quad[..q] {
        out[k] = dot_chain::<I, K>(splat(0.0), p.program(k), x);
    }
}

/// Programs `ks` in lock step for their common length, then each one's
/// remaining terms alone.
#[inline(always)]
fn dot4<I: Arith, const K: usize>(
    p: &DotPrograms,
    ks: [usize; 4],
    x: &[LaneMat<K>],
    out: &mut [Lanes<K>],
) {
    let progs: [&[DotTerm]; 4] = std::array::from_fn(|c| p.program(ks[c]));
    let n = progs.iter().map(|t| t.len()).min().unwrap_or(0);
    let mut acc = [splat(0.0); 4];
    let quads = progs[0].iter().zip(progs[1]).zip(progs[2]).zip(progs[3]);
    for (((t0, t1), t2), t3) in quads {
        for (a, t) in acc.iter_mut().zip([t0, t1, t2, t3]) {
            *a = I::add_mul_shared(*a, t.w, &x[t.block as usize].data[t.off as usize]);
        }
    }
    for c in 0..4 {
        out[ks[c]] = dot_chain::<I, K>(acc[c], &progs[c][n..], x);
    }
}

/// `acc + Σ w·x[block][off]` over `terms`, one term at a time.
#[inline(always)]
fn dot_chain<I: Arith, const K: usize>(
    mut acc: Lanes<K>,
    terms: &[DotTerm],
    x: &[LaneMat<K>],
) -> Lanes<K> {
    for t in terms {
        acc = I::add_mul_shared(acc, t.w, &x[t.block as usize].data[t.off as usize]);
    }
    acc
}
