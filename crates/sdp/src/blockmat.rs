//! Block-diagonal symmetric matrices — the variable type of the SDP solver.

use gleipnir_linalg::{sym_eigvals, tridiag_eigvals_in_place, EigError, LaneMat, Lanes, RMat};

/// A symmetric block-diagonal real matrix.
///
/// Semidefinite variables (`X`, `Z`) and their search directions are block
/// diagonal; all solver arithmetic stays within the blocks.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockMat {
    blocks: Vec<RMat>,
    dims: Vec<usize>,
}

impl BlockMat {
    fn with_blocks(blocks: Vec<RMat>) -> Self {
        let dims = blocks.iter().map(RMat::rows).collect();
        BlockMat { blocks, dims }
    }

    /// A zero matrix with the given block dimensions.
    pub fn zeros(dims: &[usize]) -> Self {
        BlockMat {
            blocks: dims.iter().map(|&d| RMat::zeros(d, d)).collect(),
            dims: dims.to_vec(),
        }
    }

    /// `s · I` with the given block dimensions.
    pub fn scaled_identity(dims: &[usize], s: f64) -> Self {
        BlockMat {
            blocks: dims.iter().map(|&d| RMat::identity(d).scaled(s)).collect(),
            dims: dims.to_vec(),
        }
    }

    /// Builds from explicit blocks.
    pub fn from_blocks(blocks: Vec<RMat>) -> Self {
        for b in &blocks {
            assert!(b.is_square(), "blocks must be square");
        }
        Self::with_blocks(blocks)
    }

    /// Block dimensions, cached at construction (no allocation per call).
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total dimension (sum of block sizes).
    pub fn total_dim(&self) -> usize {
        self.blocks.iter().map(RMat::rows).sum()
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Immutable block accessor.
    pub fn block(&self, i: usize) -> &RMat {
        &self.blocks[i]
    }

    /// Mutable block accessor.
    ///
    /// Callers must not change a block's dimensions through this handle:
    /// the block dims are cached at construction (see [`BlockMat::dims`]).
    pub fn block_mut(&mut self, i: usize) -> &mut RMat {
        &mut self.blocks[i]
    }

    /// Copies every entry from `other` into `self` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics on block-shape mismatch.
    pub fn copy_from(&mut self, other: &BlockMat) {
        assert_eq!(self.dims, other.dims, "copy_from block shape mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            a.copy_from(b);
        }
    }

    /// Frobenius inner product `⟨self, other⟩ = Σ_b tr(self_b · other_b)`.
    ///
    /// Accumulates in flat row-major order per block — the same order as
    /// the historical `at(i, j)` double loop, so results are bit-stable.
    pub fn dot(&self, other: &BlockMat) -> f64 {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| {
                let mut acc = 0.0;
                for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                    acc += x * y;
                }
                acc
            })
            .sum()
    }

    /// `self + s·other`, in place.
    pub fn axpy(&mut self, s: f64, other: &BlockMat) {
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            a.axpy(s, b);
        }
    }

    /// Blockwise product `self · other`.
    pub fn mul(&self, other: &BlockMat) -> BlockMat {
        Self::with_blocks(
            self.blocks
                .iter()
                .zip(&other.blocks)
                .map(|(a, b)| a.mul_mat(b))
                .collect(),
        )
    }

    /// Blockwise symmetrization `(self + selfᵀ)/2`, in place.
    pub fn symmetrize(&mut self) {
        for b in &mut self.blocks {
            b.symmetrize_in_place();
        }
    }

    /// Scales all entries, in place.
    pub fn scale(&mut self, s: f64) {
        for b in &mut self.blocks {
            for v in b.as_mut_slice() {
                *v *= s;
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.blocks
            .iter()
            .map(|b| {
                let f = b.frobenius_norm();
                f * f
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Largest entry magnitude.
    pub fn max_abs(&self) -> f64 {
        self.blocks.iter().map(RMat::max_abs).fold(0.0, f64::max)
    }

    /// Blockwise Cholesky; `None` if any block is not positive definite.
    pub fn cholesky(&self) -> Option<BlockMat> {
        let mut l = Self::zeros(&self.dims);
        self.blocks
            .iter()
            .zip(&mut l.blocks)
            .all(|(b, l)| b.cholesky_into(l))
            .then_some(l)
    }

    /// Blockwise inverse from a Cholesky factor of `self`
    /// (`self⁻¹ = L⁻ᵀ·L⁻¹`).
    ///
    /// Returns `None` if the factorization fails.
    pub fn inverse_spd(&self) -> Option<BlockMat> {
        let mut lwork = Self::zeros(&self.dims);
        let mut linv = Self::zeros(&self.dims);
        let mut out = Self::zeros(&self.dims);
        if self.inverse_spd_into(&mut lwork, &mut linv, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    /// Blockwise SPD inverse written into a reusable buffer.
    ///
    /// `lwork` and `linvwork` are scratch space for the per-block Cholesky
    /// factor and its triangular inverse; `out` receives `self⁻¹`. Returns
    /// `false` (leaving the buffers partially written) when a block is not
    /// numerically positive definite. Bit-identical to the allocating
    /// [`BlockMat::inverse_spd`].
    ///
    /// # Panics
    ///
    /// Panics on block-shape mismatch between `self` and any buffer.
    pub fn inverse_spd_into(
        &self,
        lwork: &mut BlockMat,
        linvwork: &mut BlockMat,
        out: &mut BlockMat,
    ) -> bool {
        assert_eq!(self.dims, lwork.dims, "inverse_spd_into shape mismatch");
        assert_eq!(self.dims, linvwork.dims, "inverse_spd_into shape mismatch");
        assert_eq!(self.dims, out.dims, "inverse_spd_into shape mismatch");
        for (((b, l), linv), o) in self
            .blocks
            .iter()
            .zip(&mut lwork.blocks)
            .zip(&mut linvwork.blocks)
            .zip(&mut out.blocks)
        {
            if !b.cholesky_into(l) {
                return false;
            }
            l.invert_lower_into(linv);
            linv.transpose_mul_self_into(o);
        }
        true
    }

    /// Largest step `α ∈ (0, 1]` such that `self + α·dir ⪰ (1−relax)…`,
    /// i.e. `min(1, γ·α_max)` with `α_max = sup{α : self + α·dir ⪰ 0}`.
    ///
    /// Computed from `λ_min(L⁻¹·dir·L⁻ᵀ)` per block.
    ///
    /// Returns `None` if `self` is not positive definite.
    pub fn max_step(&self, dir: &BlockMat, gamma: f64) -> Option<f64> {
        let l = self.cholesky()?;
        l.max_step_factored(dir, gamma, &mut StepWork::new(&self.dims))
    }

    /// [`BlockMat::max_step`] of the matrix whose blockwise Cholesky
    /// factor is `self` — the solver's lane line search on one lane.
    ///
    /// Returns `None` if an eigensolve fails.
    ///
    /// # Panics
    ///
    /// Panics on block-shape mismatch.
    pub(crate) fn max_step_factored(
        &self,
        dir: &BlockMat,
        gamma: f64,
        work: &mut StepWork<1>,
    ) -> Option<f64> {
        assert_eq!(self.dims, dir.dims, "max_step shape mismatch");
        let one_lane = |m: &BlockMat| -> Vec<LaneMat<1>> {
            m.blocks
                .iter()
                .map(|b| {
                    let mut l = LaneMat::zeros(b.rows(), b.cols());
                    l.set_lane(0, b);
                    l
                })
                .collect()
        };
        let [alpha] = max_step_lanes(&one_lane(self), &one_lane(dir), [gamma], [true], work);
        alpha
    }

    /// Minimum eigenvalue across blocks (symmetrizing first); `0.0` when
    /// every block is empty.
    ///
    /// # Errors
    ///
    /// [`EigError`] if any block's eigensolve fails or its spectrum is
    /// not finite: a failed block is never skipped.
    pub fn min_eigenvalue(&self) -> Result<f64, EigError> {
        let mut m = f64::INFINITY;
        for vals in self.spectra() {
            m = m.min(vals?[0]);
        }
        Ok(if m == f64::INFINITY { 0.0 } else { m })
    }

    /// Spectral norm (max |eigenvalue|) across blocks.
    ///
    /// # Errors
    ///
    /// [`EigError`] if any block's eigensolve fails or its spectrum is
    /// not finite.
    pub fn spectral_norm(&self) -> Result<f64, EigError> {
        let mut m = 0.0f64;
        for vals in self.spectra() {
            let vals = vals?;
            m = m.max(vals[0].abs()).max(vals[vals.len() - 1].abs());
        }
        Ok(m)
    }

    /// Each non-empty block's ascending spectrum (symmetrized first),
    /// with a non-finite eigenvalue reported as an error.
    fn spectra(&self) -> impl Iterator<Item = Result<Vec<f64>, EigError>> + '_ {
        self.blocks.iter().filter(|b| b.rows() > 0).map(|b| {
            let vals = sym_eigvals(&b.symmetrize())?;
            if vals.iter().all(|v| v.is_finite()) {
                Ok(vals)
            } else {
                Err(EigError::NotFinite)
            }
        })
    }
}

/// [`BlockMat::max_step`] lane by lane: lane `s` of the result is the
/// step along lane `s` of `dir` (blockwise) for the matrix whose blockwise
/// Cholesky factor is lane `s` of `l`, with lane `s`'s `gamma` — `None`
/// where an eigensolve fails or `on[s]` is not set.
///
/// Per block, `K = L⁻¹·D·L⁻ᵀ = (L⁻¹·(L⁻¹·D)ᵀ)ᵀ`, symmetrized, and its
/// Householder tridiagonalization run in lanes; the final transpose is
/// skipped, because symmetrizing `Kᵀ` gives `K`'s bits (IEEE addition
/// commutes). Each lane then runs the QL iteration, the sort and the `α`
/// update on its own tridiagonal. Lane `s` computes exactly what the
/// scalar kernels compute on its data.
///
/// # Panics
///
/// Panics on block-shape mismatch between `l`, `dir` and `work`.
pub(crate) fn max_step_lanes<const K: usize>(
    l: &[LaneMat<K>],
    dir: &[LaneMat<K>],
    gamma: [f64; K],
    on: [bool; K],
    work: &mut StepWork<K>,
) -> [Option<f64>; K] {
    assert_eq!(l.len(), dir.len(), "max_step shape mismatch");
    // γ·α starts at 1.
    let mut alpha: [Option<f64>; K] = std::array::from_fn(|s| on[s].then(|| 1.0 / gamma[s]));
    for ((lb, db), (t, k)) in l.iter().zip(dir).zip(work.t.iter_mut().zip(&mut work.k)) {
        let n = lb.rows();
        if n == 0 || alpha.iter().all(Option::is_none) {
            continue;
        }
        t.copy_from(db);
        lb.solve_lower_mat_in_place(t);
        t.transpose_into(k);
        lb.solve_lower_mat_in_place(k);
        k.symmetrize_in_place();
        k.sym_tridiag_in_place(&mut work.d[..n], &mut work.e[..n]);
        for (s, a) in alpha.iter_mut().enumerate() {
            let Some(prev) = *a else { continue };
            work.vals.clear();
            work.vals.extend(work.d[..n].iter().map(|v| v[s]));
            work.off.clear();
            work.off.extend(work.e[..n].iter().map(|v| v[s]));
            *a = tridiag_eigvals_in_place(&mut work.vals, &mut work.off)
                .ok()
                .map(|()| {
                    let lam_min = work.vals[0];
                    if lam_min < 0.0 {
                        prev.min(-1.0 / lam_min)
                    } else {
                        prev
                    }
                });
        }
    }
    std::array::from_fn(|s| alpha[s].map(|a| (gamma[s] * a).min(1.0)))
}

/// Reusable scratch for [`max_step_lanes`].
pub(crate) struct StepWork<const K: usize> {
    t: Vec<LaneMat<K>>,
    k: Vec<LaneMat<K>>,
    d: Vec<Lanes<K>>,
    e: Vec<Lanes<K>>,
    vals: Vec<f64>,
    off: Vec<f64>,
}

impl<const K: usize> StepWork<K> {
    /// Scratch for block matrices of shape `dims`.
    pub(crate) fn new(dims: &[usize]) -> Self {
        let n = dims.iter().copied().max().unwrap_or(0);
        let blocks = || dims.iter().map(|&d| LaneMat::zeros(d, d)).collect();
        StepWork {
            t: blocks(),
            k: blocks(),
            d: vec![[0.0; K]; n],
            e: vec![[0.0; K]; n],
            vals: Vec::with_capacity(n),
            off: Vec::with_capacity(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_block(n: usize, seed: f64) -> RMat {
        let b = RMat::from_fn(n, n, |i, j| ((i * n + j) as f64 * seed).sin());
        let mut a = b.transpose().mul_mat(&b);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn dot_matches_blockwise_trace() {
        let a = BlockMat::from_blocks(vec![spd_block(3, 0.7), spd_block(2, 1.3)]);
        let b = BlockMat::from_blocks(vec![spd_block(3, 0.4), spd_block(2, 2.1)]);
        let direct: f64 = (0..2).map(|k| a.block(k).trace_mul(b.block(k))).sum();
        assert!((a.dot(&b) - direct).abs() < 1e-10);
    }

    #[test]
    fn inverse_spd_works() {
        let a = BlockMat::from_blocks(vec![spd_block(4, 0.9)]);
        let inv = a.inverse_spd().unwrap();
        let prod = a.mul(&inv);
        assert!(prod.block(0).approx_eq(&RMat::identity(4), 1e-10));
    }

    #[test]
    fn max_step_blocks_negative_directions() {
        let x = BlockMat::scaled_identity(&[2], 1.0);
        let mut d = BlockMat::zeros(&[2]);
        d.block_mut(0).set(0, 0, -2.0);
        // X + α·D ⪰ 0 needs α ≤ 0.5; with γ = 1 we get exactly 0.5.
        let alpha = x.max_step(&d, 1.0).unwrap();
        assert!((alpha - 0.5).abs() < 1e-9);
        // A PSD direction allows the full step.
        let up = BlockMat::scaled_identity(&[2], 1.0);
        assert!(x.max_step(&up, 0.95).unwrap() > 1.0 - 1e-12);
    }

    #[test]
    fn min_eigenvalue_detects_indefiniteness() {
        let mut a = BlockMat::scaled_identity(&[3], 2.0);
        a.block_mut(0).set(2, 2, -1.0);
        assert!((a.min_eigenvalue().unwrap() + 1.0).abs() < 1e-10);
    }

    #[test]
    fn max_step_on_shared_factor_and_scratch_matches_fresh_calls() {
        let x = BlockMat::from_blocks(vec![
            spd_block(5, 0.3),
            spd_block(3, 1.1),
            spd_block(1, 0.5),
        ]);
        let l = x.cholesky().unwrap();
        let mut work = StepWork::new(x.dims());
        for (k, gamma) in [(0.2, 1.0), (1.7, 0.9), (-0.6, 0.98)] {
            let dir = BlockMat::from_blocks(
                x.dims()
                    .iter()
                    .map(|&n| {
                        RMat::from_fn(n, n, |i, j| ((i + 2 * j) as f64 * k).cos() - 0.4)
                            .symmetrize()
                    })
                    .collect(),
            );
            let fresh = x.max_step(&dir, gamma).unwrap();
            let shared = l.max_step_factored(&dir, gamma, &mut work).unwrap();
            assert_eq!(fresh.to_bits(), shared.to_bits(), "k {k} gamma {gamma}");
        }
    }

    #[test]
    fn failed_or_non_finite_spectra_are_errors_not_skipped_blocks() {
        let mut nan = RMat::identity(2);
        nan.set(0, 1, f64::NAN);
        nan.set(1, 0, f64::NAN);
        let with_nan = BlockMat::from_blocks(vec![RMat::identity(2), nan]);
        assert!(with_nan.min_eigenvalue().is_err());
        assert!(with_nan.spectral_norm().is_err());

        let mut inf = RMat::identity(2);
        inf.set(1, 1, f64::INFINITY);
        let with_inf = BlockMat::from_blocks(vec![RMat::identity(3), inf]);
        assert!(with_inf.min_eigenvalue().is_err());
        assert!(with_inf.spectral_norm().is_err());

        // Empty blocks have no spectrum to fail.
        let empty = BlockMat::zeros(&[0, 0]);
        assert_eq!(empty.min_eigenvalue(), Ok(0.0));
        assert_eq!(empty.spectral_norm(), Ok(0.0));
    }

    #[test]
    fn spectral_norm_of_identity() {
        let a = BlockMat::scaled_identity(&[3, 2], -2.5);
        assert!((a.spectral_norm().unwrap() - 2.5).abs() < 1e-12);
    }
}
