//! # gleipnir-core
//!
//! The paper's primary contribution: the **`(ρ̂, δ)`-diamond norm** (§6) and
//! the **lightweight quantum error logic** (§4), assembled into the Fig. 4
//! pipeline behind one long-lived entry point, [`Engine`]:
//!
//! 1. the MPS approximator computes `TN(ρ₀, P) = (ρ̂, δ)` adaptively
//!    (`gleipnir-mps`),
//! 2. each noisy gate's error is certified by a constant-size SDP for
//!    `‖Ũ_ω − U‖_(ρ̂,δ)` ([`rho_delta_diamond`], solved by `gleipnir-sdp`
//!    with a weak-duality soundness certificate),
//! 3. the error logic combines the per-gate bounds through the
//!    Skip/Gate/Seq/Weaken/Meas rules into a whole-program judgment
//!    `(ρ̂, δ) ⊢ P̃_ω ≤ ε`, materialized as a replayable [`Derivation`].
//!
//! An [`Engine`] serves any number of [`AnalysisRequest`]s — state-aware at
//! a fixed MPS width, adaptive over widths, the worst-case and
//! LQR-full-sim baselines of the paper's evaluation (selected by
//! [`Method`]), or whole batches fanned out across threads
//! ([`Engine::analyze_batch`]) — and every per-gate SDP certificate it pays
//! for lands in one shared, content-addressed cache that later requests,
//! widths, and batch siblings reuse.
//!
//! ## Example
//!
//! ```
//! use gleipnir_circuit::ProgramBuilder;
//! use gleipnir_core::{AnalysisRequest, Engine, Method};
//! use gleipnir_noise::NoiseModel;
//!
//! // A layer of Hadamards: every output is |+⟩, invisible to bit flips.
//! let mut b = ProgramBuilder::new(3);
//! b.h(0).h(1).h(2);
//! let program = b.build();
//! let noise = NoiseModel::uniform_bit_flip(1e-4);
//!
//! let engine = Engine::new();
//! let report = engine.analyze(
//!     &AnalysisRequest::builder(program.clone())
//!         .noise(noise.clone())
//!         .method(Method::StateAware { mps_width: 8 })
//!         .build()?,
//! )?;
//! let worst = engine.analyze(
//!     &AnalysisRequest::builder(program)
//!         .noise(noise)
//!         .method(Method::WorstCase)
//!         .build()?,
//! )?;
//!
//! // State-aware analysis beats the worst case by orders of magnitude here.
//! assert!(report.error_bound() < 0.1 * worst.error_bound());
//! # Ok::<(), gleipnir_core::AnalysisError>(())
//! ```

#![warn(missing_docs)]

mod adaptive;
mod assemble;
mod baseline;
mod diamond;
mod diff;
mod engine;
mod error;
pub mod jsonfmt;
mod logic;
mod persist;
mod plan;
mod pool;
mod refine;
mod report;
mod request;
mod solve;
pub mod testkit;
mod tiers;

pub use adaptive::{AdaptiveConfig, AdaptiveReport, AdaptiveStep};
pub use baseline::{LqrReport, WorstCaseReport};
pub use diamond::{
    embed_choi, q_lambda_diamond, rho_delta_diamond, sampled_diamond_lower_bound,
    unconstrained_diamond, DiamondError, DiamondResult,
};
pub use diff::{ChangeReason, DiffReport, GateChange};
pub use engine::{BatchOutcome, CacheStats, Engine, EngineOptions};
pub use error::{AnalysisError, ReplayError};
pub use logic::{Derivation, StageTimings, StateAwareReport};
pub use persist::{import_sync, CertStore, LoadStats, SyncStats};
pub use pool::{PriorityClass, SchedulerDepths};
pub use refine::{
    AnytimeAnswer, AnytimeSources, QuotaPermit, RefineStats, RefineStatus, RefineToken,
    TenantQuotas,
};
pub use report::Report;
pub use request::{AnalysisRequest, AnalysisRequestBuilder, InputState, Method};
pub use tiers::{BoundTier, TierCounts, TierPolicy, TierStats};
