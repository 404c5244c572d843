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
        let dims = blocks.iter().map(RMat::rows).collect();
        BlockMat { blocks, dims }
    }

    /// Block dimensions, cached at construction (no allocation per call).
    pub fn dims(&self) -> &[usize] {
        &self.dims
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

    /// Minimum eigenvalue across blocks (symmetrizing first); `0.0` when
    /// every block is empty.
    ///
    /// # Errors
    ///
    /// [`EigError`] if any block's eigensolve fails or its spectrum is
    /// not finite: a failed block is never skipped.
    pub fn min_eigenvalue(&self) -> Result<f64, EigError> {
        let mut m = f64::INFINITY;
        for b in self.blocks.iter().filter(|b| b.rows() > 0) {
            let vals = sym_eigvals(&b.symmetrize())?;
            if !vals.iter().all(|v| v.is_finite()) {
                return Err(EigError::NotFinite);
            }
            m = m.min(vals[0]);
        }
        Ok(if m == f64::INFINITY { 0.0 } else { m })
    }
}

/// The interior-point line search, lane by lane. Lane `s` of the result
/// is the largest step `α ∈ (0, 1]` along `D` (lane `s` of `dir`) for the
/// matrix `X` whose blockwise Cholesky factor is lane `s` of `l`:
/// `min(1, γ·α_max)` with `α_max = sup{α : X + α·D ⪰ 0}` and `γ =
/// gamma[s]`, computed from `λ_min(L⁻¹·D·L⁻ᵀ)` per block. It is `None`
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

    /// A symmetric, generally indefinite direction.
    fn dir_block(n: usize, k: f64) -> RMat {
        RMat::from_fn(n, n, |i, j| ((i + 2 * j) as f64 * k).cos() - 0.4).symmetrize()
    }

    /// Packs lane `s` of every block from `lanes[s]`.
    fn pack<const K: usize>(lanes: &[Vec<RMat>; K]) -> Vec<LaneMat<K>> {
        (0..lanes[0].len())
            .map(|b| {
                let n = lanes[0][b].rows();
                let mut m = LaneMat::zeros(n, n);
                for (s, blocks) in lanes.iter().enumerate() {
                    m.set_lane(s, &blocks[b]);
                }
                m
            })
            .collect()
    }

    /// The packed blockwise Cholesky factors of `x`.
    fn factor<const K: usize>(x: &[Vec<RMat>; K]) -> Vec<LaneMat<K>> {
        pack(x)
            .iter()
            .map(|b| {
                let mut l = LaneMat::zeros(b.rows(), b.cols());
                assert_eq!(b.cholesky_into(&mut l), [true; K], "SPD input");
                l
            })
            .collect()
    }

    /// One one-lane line search, on fresh scratch.
    fn max_step(x: &[RMat], dir: &[RMat], gamma: f64) -> Option<f64> {
        let dims: Vec<usize> = x.iter().map(RMat::rows).collect();
        let (l, d) = (factor(&[x.to_vec()]), pack(&[dir.to_vec()]));
        let [alpha] = max_step_lanes(&l, &d, [gamma], [true], &mut StepWork::new(&dims));
        alpha
    }

    #[test]
    fn dot_matches_blockwise_trace() {
        let a = BlockMat::from_blocks(vec![spd_block(3, 0.7), spd_block(2, 1.3)]);
        let b = BlockMat::from_blocks(vec![spd_block(3, 0.4), spd_block(2, 2.1)]);
        let direct: f64 = (0..2).map(|k| a.block(k).trace_mul(b.block(k))).sum();
        assert!((a.dot(&b) - direct).abs() < 1e-10);
    }

    #[test]
    fn max_step_blocks_negative_directions() {
        let x = [RMat::identity(2)];
        let mut d = RMat::zeros(2, 2);
        d.set(0, 0, -2.0);
        // X + α·D ⪰ 0 needs α ≤ 0.5; with γ = 1 we get exactly 0.5.
        let alpha = max_step(&x, &[d], 1.0).unwrap();
        assert!((alpha - 0.5).abs() < 1e-9);
        // A PSD direction allows the full step.
        assert!(max_step(&x, &[RMat::identity(2)], 0.95).unwrap() > 1.0 - 1e-12);
    }

    #[test]
    fn min_eigenvalue_detects_indefiniteness() {
        let mut a = BlockMat::scaled_identity(&[3], 2.0);
        a.block_mut(0).set(2, 2, -1.0);
        assert!((a.min_eigenvalue().unwrap() + 1.0).abs() < 1e-10);
    }

    #[test]
    fn max_step_on_shared_factor_and_scratch_matches_fresh_calls() {
        let x = vec![spd_block(5, 0.3), spd_block(3, 1.1), spd_block(1, 0.5)];
        let dims: Vec<usize> = x.iter().map(RMat::rows).collect();
        let l = factor(std::array::from_ref(&x));
        let mut work = StepWork::new(&dims);
        for (k, gamma) in [(0.2, 1.0), (1.7, 0.9), (-0.6, 0.98)] {
            let dir: Vec<RMat> = dims.iter().map(|&n| dir_block(n, k)).collect();
            let fresh = max_step(&x, &dir, gamma).unwrap();
            let [shared] = max_step_lanes(&l, &pack(&[dir]), [gamma], [true], &mut work);
            assert_eq!(
                fresh.to_bits(),
                shared.unwrap().to_bits(),
                "k {k} gamma {gamma}"
            );
        }
    }

    #[test]
    fn max_step_lanes_at_four_lanes_matches_four_one_lane_calls() {
        let dims = [5, 0, 3, 1];
        let x: [Vec<RMat>; 4] = std::array::from_fn(|s| {
            dims.iter()
                .map(|&n| spd_block(n, 0.3 + 0.4 * s as f64))
                .collect()
        });
        let mut dir: [Vec<RMat>; 4] = std::array::from_fn(|s| {
            dims.iter()
                .map(|&n| dir_block(n, 0.2 + 0.7 * s as f64).scaled(20.0))
                .collect()
        });
        // Lane 1 moves along a PSD direction; lane 2's direction is NaN.
        dir[1] = dims.iter().map(|&n| spd_block(n, 0.9)).collect();
        dir[2][2].set(1, 1, f64::NAN);
        let gamma = [1.0, 0.9, 0.98, 0.95];

        let (l, d) = (factor(&x), pack(&dir));
        let one: [_; 4] =
            std::array::from_fn(|s| (factor(&[x[s].clone()]), pack(&[dir[s].clone()])));
        let mut work = StepWork::<4>::new(&dims);
        let mut work1 = StepWork::<1>::new(&dims);
        let masks = [
            [true; 4],
            [true, false, true, true],
            [false, true, false, true],
            [false; 4],
        ];
        for on in masks {
            let wide = max_step_lanes(&l, &d, gamma, on, &mut work);
            for s in 0..4 {
                let [want] = max_step_lanes(&one[s].0, &one[s].1, [gamma[s]], [on[s]], &mut work1);
                assert_eq!(
                    wide[s].map(f64::to_bits),
                    want.map(f64::to_bits),
                    "lane {s} {on:?}"
                );
                if !on[s] {
                    assert_eq!(wide[s], None, "lane {s} is off");
                }
            }
            if on[1] {
                assert_eq!(wide[1], Some((gamma[1] * (1.0 / gamma[1])).min(1.0)));
            }
            if on[2] {
                assert_eq!(wide[2], None, "a NaN direction has no step");
            }
            if on[0] {
                assert!(wide[0].unwrap() < 1.0, "lane 0 is blocked");
            }
        }
    }

    #[test]
    fn failed_or_non_finite_spectra_are_errors_not_skipped_blocks() {
        let mut nan = RMat::identity(2);
        nan.set(0, 1, f64::NAN);
        nan.set(1, 0, f64::NAN);
        let with_nan = BlockMat::from_blocks(vec![RMat::identity(2), nan]);
        assert!(with_nan.min_eigenvalue().is_err());

        let mut inf = RMat::identity(2);
        inf.set(1, 1, f64::INFINITY);
        let with_inf = BlockMat::from_blocks(vec![RMat::identity(3), inf]);
        assert!(with_inf.min_eigenvalue().is_err());

        // Empty blocks have no spectrum to fail.
        let empty = BlockMat::zeros(&[0, 0]);
        assert_eq!(empty.min_eigenvalue(), Ok(0.0));
    }
}
