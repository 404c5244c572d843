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
//! * [`LaneMat::solve_lower_mat_in_place`] ≡
//!   [`RMat::solve_lower_mat_in_place`], and
//!   [`LaneMat::invert_lower_into`] ≡ [`RMat::invert_lower_into`];
//! * [`LaneMat::transpose_mul_self_into`] ≡
//!   [`RMat::transpose_mul_self_into`];
//! * [`LaneMat::mul_mat_into`] ≡ [`RMat::mul_mat_into`];
//! * [`LaneMat::symmetrize_in_place`] ≡ [`RMat::symmetrize_in_place`];
//! * [`LaneMat::sym_tridiag_in_place`] ≡ [`crate::sym_tridiag_in_place`]
//!   (the eigenvalue-only Householder reduction);
//! * [`sym_sandwich_block`] ≡ the SDP solver's scalar Schur sandwich;
//! * [`DotPrograms::row`] ≡ one sequential `acc += w·x[block][off]`
//!   program per output, from `+0.0`.
//!
//! Where a scalar kernel skips a zero multiplier or branches on a value,
//! each lane takes its own branch: the skip or the branch's store is a
//! per-lane select.
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

/// Defines, per kernel, `fn $name::<K>(isa, args…)`: it runs the generic
/// body `$body::<I, K>(args…)` with the lane arithmetic of `isa`, chosen
/// once per call. The AVX body is inlined into a function of its own
/// compiled with AVX enabled (FMA stays disabled), so the body and the
/// lane arithmetic inlined into it become 256-bit instructions whatever
/// the build's inlining thresholds.
macro_rules! dispatch {
    ($(fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:ident;)*) => {$(
        #[inline]
        fn $name<const K: usize>(isa: LaneIsa, $($arg: $ty),*) $(-> $ret)? {
            assert!(isa.available(), "lane path {isa:?} is not available on this host");
            match isa {
                #[cfg(target_arch = "x86_64")]
                LaneIsa::Avx => {
                    /// # Safety
                    ///
                    /// The host must support AVX.
                    #[target_feature(enable = "avx")]
                    unsafe fn avx<const K: usize>($($arg: $ty),*) $(-> $ret)? {
                        $body::<Avx, K>($($arg),*)
                    }
                    // SAFETY: the host reports AVX (asserted above).
                    unsafe { avx::<K>($($arg),*) }
                }
                _ => $body::<Base, K>($($arg),*),
            }
        }
    )*};
}

dispatch! {
    fn symmetrize_on(a: &mut LaneMat<K>) = symmetrize_body;
    fn cholesky_on(a: &LaneMat<K>, out: &mut LaneMat<K>) -> [bool; K] = cholesky_body;
    fn solve_lower_on(l: &LaneMat<K>, x: &mut [Lanes<K>]) = solve_lower_body;
    fn solve_lower_transpose_on(l: &LaneMat<K>, x: &mut [Lanes<K>]) = solve_lower_transpose_body;
    fn solve_lower_mat_on(l: &LaneMat<K>, x: &mut LaneMat<K>) = solve_lower_mat_body;
    fn gram_on(a: &LaneMat<K>, out: &mut LaneMat<K>) = gram_body;
    fn mul_mat_on(a: &LaneMat<K>, b: &LaneMat<K>, out: &mut LaneMat<K>) = mul_mat_body;
    fn tridiag_on(z: &mut LaneMat<K>, d: &mut [Lanes<K>], e: &mut [Lanes<K>]) = tridiag_body;
    fn sandwich_on(
        x: &LaneMat<K>,
        entries: &[(usize, usize, f64)],
        rows: &[usize],
        zinv: &LaneMat<K>,
        v: &mut LaneMat<K>,
        out: &mut LaneMat<K>,
    ) = sandwich_body;
    fn dot_row_on(p: &DotPrograms, support: u64, x: &[LaneMat<K>], out: &mut [Lanes<K>]) = dot_row_body;
}

/// One IEEE-754 binary operation.
#[derive(Clone, Copy)]
enum Op {
    Add,
    Sub,
    Mul,
    Div,
}

impl Op {
    #[inline(always)]
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            Op::Add => a + b,
            Op::Sub => a - b,
            Op::Mul => a * b,
            Op::Div => a / b,
        }
    }
}

/// Lane arithmetic on one instruction set: [`Arith::zip`] applies one IEEE
/// operation per lane, and every other operation is spelled with it, one
/// rounding per operation in the order its name spells.
trait Arith {
    /// `a op b` per lane.
    fn zip<const K: usize>(op: Op, a: Lanes<K>, b: Lanes<K>) -> Lanes<K>;

    /// Whether the Cholesky factors two rows per pass. It pays only where
    /// `K` lanes fill one register, so the pass's eight running
    /// differences and two row entries stay in registers; with two
    /// registers per lane group they spill, and per-lane loops are bound
    /// by the arithmetic, not by the loads a pair shares.
    #[inline(always)]
    fn pairs_rows<const K: usize>() -> bool {
        false
    }

    /// `s − a·b` per lane.
    #[inline(always)]
    fn sub_mul<const K: usize>(s: Lanes<K>, a: &Lanes<K>, b: &Lanes<K>) -> Lanes<K> {
        Self::zip(Op::Sub, s, Self::zip(Op::Mul, *a, *b))
    }

    /// `t + w·z` per lane.
    #[inline(always)]
    fn add_mul<const K: usize>(t: Lanes<K>, w: &Lanes<K>, z: &Lanes<K>) -> Lanes<K> {
        Self::zip(Op::Add, t, Self::zip(Op::Mul, *w, *z))
    }

    /// `t + w·z` per lane, for a `w` shared by every lane.
    #[inline(always)]
    fn add_mul_shared<const K: usize>(t: Lanes<K>, w: f64, z: &Lanes<K>) -> Lanes<K> {
        Self::add_mul(t, &splat(w), z)
    }

    /// `v − (f·e + g·u)` per lane.
    #[inline(always)]
    fn sub_mul2<const K: usize>(
        v: Lanes<K>,
        f: &Lanes<K>,
        e: &Lanes<K>,
        g: &Lanes<K>,
        u: &Lanes<K>,
    ) -> Lanes<K> {
        Self::zip(Op::Sub, v, Self::add_mul(Self::zip(Op::Mul, *f, *e), g, u))
    }

    /// `s / d` per lane.
    #[inline(always)]
    fn div<const K: usize>(s: Lanes<K>, d: &Lanes<K>) -> Lanes<K> {
        Self::zip(Op::Div, s, *d)
    }

    /// `0.5·(a + b)` per lane.
    #[inline(always)]
    fn half_sum<const K: usize>(a: &Lanes<K>, b: &Lanes<K>) -> Lanes<K> {
        Self::zip(Op::Mul, splat(0.5), Self::zip(Op::Add, *a, *b))
    }
}

/// Plain per-lane loops: every `K` on targets without a vector form, and
/// `K ≠ 4` everywhere.
#[inline(always)]
fn zip_scalar<const K: usize>(op: Op, mut a: Lanes<K>, b: Lanes<K>) -> Lanes<K> {
    for (x, y) in a.iter_mut().zip(b) {
        *x = op.apply(*x, y);
    }
    a
}

/// The baseline path. On x86-64 the 4-lane forms are written with SSE2
/// instructions (two lanes per instruction): left to itself, the loop
/// vectorizer vectorizes these kernels across matrix elements with
/// stride-K shuffles instead of across lanes, which costs most of the
/// lanes' gain.
struct Base;

impl Arith for Base {
    #[inline(always)]
    fn zip<const K: usize>(op: Op, a: Lanes<K>, b: Lanes<K>) -> Lanes<K> {
        #[cfg(target_arch = "x86_64")]
        if K == 4 {
            return sse2::zip(op, a, b);
        }
        zip_scalar(op, a, b)
    }
}

/// The 4-lane SSE2 form. Callers guarantee `K == 4`; SSE2 is part of the
/// x86-64 baseline, so the instructions exist on every x86-64 target.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::{Lanes, Op};
    use std::arch::x86_64::{__m128d, _mm_add_pd, _mm_div_pd, _mm_mul_pd, _mm_sub_pd};

    // Loads and stores go through plain array indexing rather than raw
    // pointers, which keeps them free of the debug-build pointer checks
    // (the test profile runs with debug assertions on).

    /// Lanes 0–1 and 2–3.
    #[inline(always)]
    fn ld<const K: usize>(x: Lanes<K>) -> [__m128d; 2] {
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
    pub(super) fn zip<const K: usize>(op: Op, a: Lanes<K>, b: Lanes<K>) -> Lanes<K> {
        let (a, b) = (ld(a), ld(b));
        // SAFETY: baseline SSE2 arithmetic.
        let f = |x, y| unsafe {
            match op {
                Op::Add => _mm_add_pd(x, y),
                Op::Sub => _mm_sub_pd(x, y),
                Op::Mul => _mm_mul_pd(x, y),
                Op::Div => _mm_div_pd(x, y),
            }
        };
        st([f(a[0], b[0]), f(a[1], b[1])])
    }
}

/// The AVX path: one 256-bit instruction per 4-lane operation
/// (`_mm256_{add,sub,mul,div}_pd`, never FMA). Only ever inlined into a
/// kernel's AVX-enabled function, which the dispatcher calls on AVX
/// hosts.
#[cfg(target_arch = "x86_64")]
struct Avx;

#[cfg(target_arch = "x86_64")]
impl Arith for Avx {
    #[inline(always)]
    fn zip<const K: usize>(op: Op, a: Lanes<K>, b: Lanes<K>) -> Lanes<K> {
        if K == 4 {
            return avx::zip(op, a, b);
        }
        zip_scalar(op, a, b)
    }

    #[inline(always)]
    fn pairs_rows<const K: usize>() -> bool {
        K == 4
    }
}

/// The 4-lane AVX form. Callers guarantee `K == 4` and an AVX host.
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{Lanes, Op};
    use std::arch::x86_64::{__m256d, _mm256_add_pd, _mm256_div_pd, _mm256_mul_pd, _mm256_sub_pd};

    #[inline(always)]
    fn ld<const K: usize>(x: Lanes<K>) -> __m256d {
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
    pub(super) fn zip<const K: usize>(op: Op, a: Lanes<K>, b: Lanes<K>) -> Lanes<K> {
        let (a, b) = (ld(a), ld(b));
        // SAFETY: AVX arithmetic on an AVX host (the caller's contract).
        st(unsafe {
            match op {
                Op::Add => _mm256_add_pd(a, b),
                Op::Sub => _mm256_sub_pd(a, b),
                Op::Mul => _mm256_mul_pd(a, b),
                Op::Div => _mm256_div_pd(a, b),
            }
        })
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
        symmetrize_on(isa, self)
    }

    /// Lane-wise Cholesky factorization into `out`.
    ///
    /// Returns, per lane, whether that lane's matrix was numerically
    /// positive definite. A passing lane's factor is bit-identical to
    /// [`RMat::cholesky_into`] on that lane (strict upper triangle zeroed);
    /// a failing lane holds garbage, and never disturbs the other lanes.
    /// The factorization stops early once every lane has failed.
    ///
    /// Columns advance four at a time, and on the AVX path at `K = 4`
    /// rows advance in pairs: rows `i` and `i + 1` run all their columns
    /// `j < i` together, so each load of an earlier row's prefix feeds
    /// eight running differences; then row `i` finishes and row `i + 1`
    /// takes its column `i` and its diagonal. Each difference subtracts
    /// its `p = 0, 1, …` terms in the textbook order — the in-block terms
    /// (which need the just-computed entries) last, exactly where the
    /// textbook loop subtracts them.
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
        cholesky_on(isa, self, out)
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
        solve_lower_on(isa, self, x)
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
        solve_lower_transpose_on(isa, self, x)
    }

    /// Copies every entry from `other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, other: &LaneMat<K>) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "lane shape"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// The transpose, written into `out` (fully overwritten).
    ///
    /// # Panics
    ///
    /// Panics unless `out` is `cols × rows`.
    pub fn transpose_into(&self, out: &mut LaneMat<K>) {
        assert_eq!((out.rows, out.cols), (self.cols, self.rows), "lane shape");
        for (i, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (j, v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = *v;
            }
        }
    }

    /// Forward substitution `L·X = B` in place on `x`, per lane —
    /// bit-identical to [`RMat::solve_lower_mat_in_place`] on every lane,
    /// whose skip of zero `L` entries a lane keeps on its own (the skipped
    /// update could turn a `−0.0` into `+0.0`, or an infinity into NaN).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn solve_lower_mat_in_place(&self, x: &mut LaneMat<K>) {
        self.solve_lower_mat_in_place_on(LaneIsa::detect::<K>(), x);
    }

    /// [`LaneMat::solve_lower_mat_in_place`] on an explicit path.
    ///
    /// # Panics
    ///
    /// Panics as the public kernel does, or if `isa` is unavailable.
    #[doc(hidden)]
    pub fn solve_lower_mat_in_place_on(&self, isa: LaneIsa, x: &mut LaneMat<K>) {
        solve_lower_mat_on(isa, self, x)
    }

    /// The inverse of a lower-triangular matrix, per lane, into `out`
    /// (fully overwritten) — bit-identical to [`RMat::invert_lower_into`],
    /// which is [`LaneMat::solve_lower_mat_in_place`] on the identity.
    ///
    /// # Panics
    ///
    /// Panics if `self` is non-square or `out` has a different shape.
    pub fn invert_lower_into(&self, out: &mut LaneMat<K>) {
        assert_eq!((out.rows, out.cols), (self.rows, self.rows), "lane shape");
        out.data.fill(splat(0.0));
        for i in 0..out.rows {
            out.data[i * out.cols + i] = splat(1.0);
        }
        self.solve_lower_mat_in_place(out);
    }

    /// `selfᵀ·self` per lane, into `out` (fully overwritten) —
    /// bit-identical to [`RMat::transpose_mul_self_into`] on every lane,
    /// including its per-lane skip of zero multipliers.
    ///
    /// # Panics
    ///
    /// Panics on output-shape mismatch.
    pub fn transpose_mul_self_into(&self, out: &mut LaneMat<K>) {
        self.transpose_mul_self_into_on(LaneIsa::detect::<K>(), out);
    }

    /// [`LaneMat::transpose_mul_self_into`] on an explicit path.
    ///
    /// # Panics
    ///
    /// Panics as the public kernel does, or if `isa` is unavailable.
    #[doc(hidden)]
    pub fn transpose_mul_self_into_on(&self, isa: LaneIsa, out: &mut LaneMat<K>) {
        gram_on(isa, self, out)
    }

    /// The product `self · rhs` per lane, into `out` (fully overwritten) —
    /// bit-identical to [`RMat::mul_mat_into`] on every lane: each output
    /// accumulates its terms in ascending order from `+0.0`, eight outputs
    /// of a row at a time.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn mul_mat_into(&self, rhs: &LaneMat<K>, out: &mut LaneMat<K>) {
        self.mul_mat_into_on(LaneIsa::detect::<K>(), rhs, out);
    }

    /// [`LaneMat::mul_mat_into`] on an explicit path.
    ///
    /// # Panics
    ///
    /// Panics as the public kernel does, or if `isa` is unavailable.
    #[doc(hidden)]
    pub fn mul_mat_into_on(&self, isa: LaneIsa, rhs: &LaneMat<K>, out: &mut LaneMat<K>) {
        mul_mat_on(isa, self, rhs, out)
    }

    /// The eigenvalue-only Householder reduction of a symmetric matrix to
    /// tridiagonal form, per lane — bit-identical in `d` (the diagonal) and
    /// `e` (the subdiagonal in `e[1..]`, `e[0] = 0`) to
    /// [`crate::sym_tridiag_in_place`] on every lane. The matrix is
    /// overwritten.
    ///
    /// The scalar reduction leaves a row alone whose off-diagonal part
    /// sums to `|·| = 0`; a lane with such a row computes the row's update
    /// on but does not store it.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `d`, `e` are shorter than it.
    pub fn sym_tridiag_in_place(&mut self, d: &mut [Lanes<K>], e: &mut [Lanes<K>]) {
        self.sym_tridiag_in_place_on(LaneIsa::detect::<K>(), d, e);
    }

    /// [`LaneMat::sym_tridiag_in_place`] on an explicit path.
    ///
    /// # Panics
    ///
    /// Panics as the public kernel does, or if `isa` is unavailable.
    #[doc(hidden)]
    pub fn sym_tridiag_in_place_on(
        &mut self,
        isa: LaneIsa,
        d: &mut [Lanes<K>],
        e: &mut [Lanes<K>],
    ) {
        tridiag_on(isa, self, d, e)
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
    let mut i = 0;
    while i < n {
        let (head, tail) = out.data.split_at_mut(i * n);
        let ai = a.row(i);
        if i + 1 == n || !I::pairs_rows::<K>() {
            let li = &mut tail[..n];
            factor_columns::<I, K, 1>(head, n, i, [li], [ai]);
            if !pivot::<I, K>(&mut ok, li, ai[i], i) {
                return ok;
            }
            i += 1;
            continue;
        }
        let (li, rest) = tail.split_at_mut(n);
        let li1 = &mut rest[..n];
        let ai1 = a.row(i + 1);
        factor_columns::<I, K, 2>(head, n, i, [&mut *li, &mut *li1], [ai, ai1]);
        if !pivot::<I, K>(&mut ok, li, ai[i], i) {
            return ok;
        }
        let mut s = ai1[i];
        for (x, y) in li1[..i].iter().zip(&li[..i]) {
            s = I::sub_mul(s, x, y);
        }
        li1[i] = I::div(s, &li[i]);
        if !pivot::<I, K>(&mut ok, li1, ai1[i + 1], i + 1) {
            return ok;
        }
        i += 2;
    }
    ok
}

/// Columns `j < i` of the factor's rows `i .. i + R` (`l`, from the
/// matrix rows `a`), given the finished rows above them in `head`. Four
/// columns advance at a time, so each load of an earlier row's prefix
/// feeds `4·R` running differences; each difference subtracts its
/// `p = 0, 1, …` terms in the textbook order — the in-block terms (which
/// need the just-computed entries) last, exactly where the textbook loop
/// subtracts them.
#[inline(always)]
fn factor_columns<I: Arith, const K: usize, const R: usize>(
    head: &[Lanes<K>],
    n: usize,
    i: usize,
    mut l: [&mut [Lanes<K>]; R],
    a: [&[Lanes<K>]; R],
) {
    let mut j = 0;
    while j + 4 <= i {
        let r: [&[Lanes<K>]; 4] =
            std::array::from_fn(|q| &head[(j + q) * n..(j + q) * n + j + q + 1]);
        let mut s: [[Lanes<K>; 4]; R] =
            std::array::from_fn(|t| std::array::from_fn(|q| a[t][j + q]));
        let x: [&[Lanes<K>]; R] = std::array::from_fn(|t| &l[t][..j]);
        let prefix = r[0][..j]
            .iter()
            .zip(&r[1][..j])
            .zip(r[2][..j].iter().zip(&r[3][..j]));
        for (p, ((y0, y1), (y2, y3))) in prefix.enumerate() {
            for t in 0..R {
                let xp = &x[t][p];
                let st = &mut s[t];
                st[0] = I::sub_mul(st[0], xp, y0);
                st[1] = I::sub_mul(st[1], xp, y1);
                st[2] = I::sub_mul(st[2], xp, y2);
                st[3] = I::sub_mul(st[3], xp, y3);
            }
        }
        for (st, lt) in s.iter().zip(&mut l) {
            for (q, rq) in r.iter().enumerate() {
                let mut sq = st[q];
                for p in 0..q {
                    sq = I::sub_mul(sq, &lt[j + p], &rq[j + p]);
                }
                lt[j + q] = I::div(sq, &rq[j + q]);
            }
        }
        j += 4;
    }
    while j < i {
        let rj = &head[j * n..j * n + j + 1];
        let mut s: [Lanes<K>; R] = std::array::from_fn(|t| a[t][j]);
        for (p, y) in rj[..j].iter().enumerate() {
            for (st, lt) in s.iter_mut().zip(&l) {
                *st = I::sub_mul(*st, &lt[p], y);
            }
        }
        for (st, lt) in s.iter().zip(&mut l) {
            lt[j] = I::div(*st, &rj[j]);
        }
        j += 1;
    }
}

/// The diagonal of row `i` (`li`, its columns `j < i` done): `a_ii` less
/// the row's squares, checked and rooted per lane, with the strict upper
/// triangle zeroed. A lane whose pivot is not positive and finite is marked
/// failed (and computes on, harmlessly); returns whether any lane is left,
/// without writing the row when none is.
#[inline(always)]
fn pivot<I: Arith, const K: usize>(
    ok: &mut [bool; K],
    li: &mut [Lanes<K>],
    aii: Lanes<K>,
    i: usize,
) -> bool {
    let mut s = aii;
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
        return false;
    }
    li[i] = d;
    li[i + 1..].fill(splat(0.0));
    true
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

/// `y − w·x` (`SUB`) or `y + w·x` per lane over a row, where a lane
/// whose `w` is zero keeps its `y`, as the scalar kernels skip zero
/// multipliers.
#[inline(always)]
fn axpy_skip<I: Arith, const K: usize, const SUB: bool>(
    y: &mut [Lanes<K>],
    w: &Lanes<K>,
    x: &[Lanes<K>],
) {
    let live: [bool; K] = std::array::from_fn(|l| w[l] != 0.0);
    if !live.contains(&true) {
        return;
    }
    let f = |a: Lanes<K>, b: &Lanes<K>| {
        if SUB {
            I::sub_mul(a, w, b)
        } else {
            I::add_mul(a, w, b)
        }
    };
    if live.contains(&false) {
        for (a, b) in y.iter_mut().zip(x) {
            let t = f(*a, b);
            *a = std::array::from_fn(|l| if live[l] { t[l] } else { a[l] });
        }
    } else {
        for (a, b) in y.iter_mut().zip(x) {
            *a = f(*a, b);
        }
    }
}

#[inline(always)]
fn solve_lower_mat_body<I: Arith, const K: usize>(l: &LaneMat<K>, x: &mut LaneMat<K>) {
    assert!(l.rows == l.cols && l.rows == x.rows);
    let (n, c) = (l.rows, x.cols);
    for i in 0..n {
        let (head, tail) = x.data.split_at_mut(i * c);
        let xi = &mut tail[..c];
        let lrow = l.row(i);
        for (k, lik) in lrow[..i].iter().enumerate() {
            axpy_skip::<I, K, true>(xi, lik, &head[k * c..(k + 1) * c]);
        }
        let d = lrow[i];
        for v in xi {
            *v = I::div(*v, &d);
        }
    }
}

#[inline(always)]
fn gram_body<I: Arith, const K: usize>(a: &LaneMat<K>, out: &mut LaneMat<K>) {
    let n = a.cols;
    assert_eq!((out.rows, out.cols), (n, n), "gram output shape");
    for i in 0..n {
        let orow = &mut out.data[i * n..(i + 1) * n];
        orow.fill(splat(0.0));
        for k in 0..a.rows {
            let row = a.row(k);
            axpy_skip::<I, K, false>(orow, &row[i], row);
        }
    }
}

#[inline(always)]
fn mul_mat_body<I: Arith, const K: usize>(a: &LaneMat<K>, b: &LaneMat<K>, out: &mut LaneMat<K>) {
    assert_eq!(a.cols, b.rows, "matmul inner dimension mismatch");
    assert_eq!(
        (out.rows, out.cols),
        (a.rows, b.cols),
        "matmul output shape"
    );
    let n = b.cols;
    for i in 0..a.rows {
        let arow = a.row(i);
        let orow = &mut out.data[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 8 <= n {
            mul_row_block::<I, K, 8>(arow, &b.data, n, j, &mut orow[j..j + 8]);
            j += 8;
        }
        for j in j..n {
            mul_row_block::<I, K, 1>(arow, &b.data, n, j, &mut orow[j..j + 1]);
        }
    }
}

/// Outputs `j .. j + Q` of one product row: `Σ_k a[k]·b[k][j + q]` in
/// ascending `k` from `+0.0`, each output its own chain.
#[inline(always)]
fn mul_row_block<I: Arith, const K: usize, const Q: usize>(
    arow: &[Lanes<K>],
    b: &[Lanes<K>],
    n: usize,
    j: usize,
    out: &mut [Lanes<K>],
) {
    let mut acc = [splat::<K>(0.0); Q];
    for (brow, aik) in b.chunks_exact(n).zip(arow) {
        let brow = &brow[j..j + Q];
        for q in 0..Q {
            acc[q] = I::add_mul(acc[q], aik, &brow[q]);
        }
    }
    out.copy_from_slice(&acc);
}

/// The lane form of `eigh`'s eigenvalue-only Householder reduction: the
/// same loops, with the per-row scalars (the sign choice, `h`, `hh`) taken
/// lane by lane. A lane whose row `i` has `scale == 0` takes the scalar
/// kernel's other branch: its `e[i]` is the untouched `z[i][i − 1]`, and
/// its share of the row's update is computed but not stored. (The row's
/// own scaled entries are never read again, and the `e[j < i]` the update
/// uses as scratch are rewritten by the rows that own them.)
#[inline(always)]
fn tridiag_body<I: Arith, const K: usize>(
    z: &mut LaneMat<K>,
    d: &mut [Lanes<K>],
    e: &mut [Lanes<K>],
) {
    assert_eq!(z.rows, z.cols, "tridiagonalization of non-square matrix");
    let n = z.rows;
    for i in (1..n).rev() {
        let l = i - 1;
        let (lo, hi) = z.data.split_at_mut(i * n);
        let ri = &mut hi[..i];
        if l == 0 {
            e[i] = ri[l];
            continue;
        }
        let mut scale = splat(0.0);
        for v in ri.iter() {
            scale = I::zip(Op::Add, scale, v.map(f64::abs));
        }
        let live: [bool; K] = std::array::from_fn(|k| scale[k] != 0.0);
        let untouched = ri[l];
        let mut h = splat(0.0);
        for v in ri.iter_mut() {
            *v = I::div(*v, &scale);
            h = I::add_mul(h, v, v);
        }
        let f = ri[l];
        let g: Lanes<K> = std::array::from_fn(|k| {
            if f[k] >= 0.0 {
                -h[k].sqrt()
            } else {
                h[k].sqrt()
            }
        });
        let scaled = I::zip(Op::Mul, scale, g);
        e[i] = std::array::from_fn(|k| if live[k] { scaled[k] } else { untouched[k] });
        h = I::sub_mul(h, &f, &g);
        ri[l] = I::zip(Op::Sub, f, g);
        // e[j] = (A·u)[j] / h over the lower triangle, four chains at a
        // time (each in ascending k), then f = Σ e[j]·u[j] in j order.
        let mut j = 0;
        while j + 4 <= i {
            sym_mul_vec::<I, K, 4>(lo, n, ri, j, &h, e);
            j += 4;
        }
        while j < i {
            sym_mul_vec::<I, K, 1>(lo, n, ri, j, &h, e);
            j += 1;
        }
        let mut f_acc = splat(0.0);
        for (ej, uj) in e[..i].iter().zip(ri.iter()) {
            f_acc = I::add_mul(f_acc, ej, uj);
        }
        let hh = I::div(f_acc, &I::zip(Op::Add, h, h));
        let all_live = !live.contains(&false);
        for j in 0..i {
            let f = ri[j];
            let g = I::sub_mul(e[j], &hh, &f);
            e[j] = g;
            let row = &mut lo[j * n..j * n + j + 1];
            for (k, v) in row.iter_mut().enumerate() {
                let t = I::sub_mul2(*v, &f, &e[k], &g, &ri[k]);
                *v = if all_live {
                    t
                } else {
                    std::array::from_fn(|q| if live[q] { t[q] } else { v[q] })
                };
            }
        }
    }
    if n > 0 {
        e[0] = splat(0.0);
    }
    for (i, di) in d[..n].iter_mut().enumerate() {
        *di = z.data[i * n + i];
    }
}

/// `e[j + q] = (Σ_k A[j + q][k]·u[k]) / h` for `q < Q`, where `A` is the
/// symmetric matrix whose lower triangle `lo` holds (row stride `n`) and
/// `u` has length `i`: each sum runs over `k = 0, 1, …` in order, reading
/// `A[j + q][k]` from row `j + q` while `k ≤ j + q` and from column
/// `j + q` after.
#[inline(always)]
fn sym_mul_vec<I: Arith, const K: usize, const Q: usize>(
    lo: &[Lanes<K>],
    n: usize,
    u: &[Lanes<K>],
    j: usize,
    h: &Lanes<K>,
    e: &mut [Lanes<K>],
) {
    let mut acc = [splat::<K>(0.0); Q];
    let rows: [&[Lanes<K>]; Q] = std::array::from_fn(|q| &lo[(j + q) * n..(j + q) * n + j + 1]);
    for (k, uk) in u[..=j].iter().enumerate() {
        for q in 0..Q {
            acc[q] = I::add_mul(acc[q], &rows[q][k], uk);
        }
    }
    for k in j + 1..(j + Q).min(u.len()) {
        for q in 0..Q {
            let a = if k <= j + q {
                lo[(j + q) * n + k]
            } else {
                lo[k * n + j + q]
            };
            acc[q] = I::add_mul(acc[q], &a, &u[k]);
        }
    }
    for (k, uk) in u.iter().enumerate().skip(j + Q) {
        let col = &lo[k * n + j..k * n + j + Q];
        for q in 0..Q {
            acc[q] = I::add_mul(acc[q], &col[q], uk);
        }
    }
    for q in 0..Q {
        e[j + q] = I::div(acc[q], h);
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
    sandwich_on(isa, x, entries, rows, zinv, v, out)
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
        dot_row_on(isa, self, support, x, out)
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
