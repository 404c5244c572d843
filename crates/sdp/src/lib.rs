//! # gleipnir-sdp
//!
//! A small, dense, block-diagonal semidefinite-programming solver written
//! from scratch for the Gleipnir workspace (no external optimization
//! dependencies, per the reproduction's calibration).
//!
//! The diamond-norm computations of the paper's §6 reduce to constant-size
//! SDPs (the largest blocks are 32×32 real after embedding 2-qubit Choi
//! matrices); this crate solves them with a primal-dual interior-point
//! method (HKM direction, Mehrotra predictor-corrector) and — because the
//! bounds must be *sound* — exposes a weak-duality certificate
//! ([`SdpSolution::certified_dual_bound`]) that remains valid under
//! residual dual infeasibility.
//!
//! ## Example
//!
//! ```
//! use gleipnir_sdp::{SdpProblem, SolverOptions, SparseSym};
//!
//! // maximize x₁₂ over 2×2 PSD matrices with unit diagonal (→ 1):
//! // minimize ⟨−E₁₂/2·2, X⟩ s.t. x₁₁ = 1, x₂₂ = 1.
//! let mut c = SparseSym::new();
//! c.push(0, 0, 1, -0.5);
//! let mut a1 = SparseSym::new();
//! a1.push(0, 0, 0, 1.0);
//! let mut a2 = SparseSym::new();
//! a2.push(0, 1, 1, 1.0);
//! let p = SdpProblem::new(vec![2], c, vec![a1, a2], vec![1.0, 1.0]);
//! let sol = p.solve(&SolverOptions::default())?;
//! assert!((sol.primal_objective + 1.0).abs() < 1e-6);
//! # Ok::<(), gleipnir_sdp::SdpError>(())
//! ```

#![warn(missing_docs)]

mod blockmat;
mod problem;
mod solver;

pub use blockmat::BlockMat;
pub use problem::{SdpProblem, SparseSym};
pub use solver::{SdpBatch, SdpError, SdpSolution, SdpStatus, SolverOptions, SolverProfile, LANES};
