//! # gleipnir-linalg
//!
//! Hand-rolled dense linear algebra for the Gleipnir workspace.
//!
//! Everything downstream — the circuit IR, the simulators, the MPS tensor
//! network engine, the SDP solver, and the diamond-norm machinery — is built
//! on this crate. It provides:
//!
//! * [`C64`] — a double-precision complex scalar;
//! * [`CVec`] / [`CMat`] — dense complex vectors and row-major matrices with
//!   the full product/adjoint/Kronecker toolkit;
//! * [`RMat`] — dense real matrices with Cholesky and triangular solves
//!   (used by the SDP solver);
//! * [`LaneMat`] and the [`lanes`] kernels — `K` same-shape matrices
//!   interleaved element by element, so the SDP solver can advance `K`
//!   independent solves in lock step at each one's scalar bits;
//! * [`eigh()`] / [`sym_eig`] — Hermitian and real-symmetric
//!   eigendecomposition (Householder tridiagonalization + implicit QL);
//! * [`svd_gram`] / [`svd_jacobi`] — singular value decompositions;
//! * [`qr_thin`] / [`lq_thin`] — Householder QR/LQ (MPS gauge fixing);
//! * [`ptrace_keep`], [`trace_distance`], [`fidelity`] — the quantum
//!   information utilities the paper's metrics are made of;
//! * [`herm_to_real_sym`] — the Hermitian → real-symmetric embedding used to
//!   pose complex SDPs over real blocks.
//!
//! The crate is dependency-free (tests use `rand`/`proptest`).

#![warn(missing_docs)]

mod cmat;
mod complex;
mod cvec;
pub mod eigh;
mod embed;
pub mod lanes;
mod qr;
mod quantum;
mod rmat;
mod svd;

pub use cmat::CMat;
pub use complex::{c64, C64};
pub use cvec::CVec;
pub use eigh::{
    eigh, eigh_vals, herm_fn, herm_sqrt, sym_eig, sym_eigvals, sym_eigvals_in_place,
    sym_tridiag_in_place, tridiag_eigvals_in_place, EigError,
};
pub use embed::{herm_to_real_sym, real_sym_to_herm};
pub use lanes::{LaneMat, Lanes};
pub use qr::{lq_thin, qr_thin};
pub use quantum::{
    fidelity, is_density_matrix, ptrace_keep, purity, trace_distance, trace_norm_hermitian,
};
pub use rmat::{axpy_slice, dot_slice, RMat};
pub use svd::{svd_gram, svd_jacobi, Svd, JACOBI_RANK_TOL, RANK_TOL};
