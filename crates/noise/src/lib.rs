//! # gleipnir-noise
//!
//! Quantum noise for the Gleipnir workspace: Kraus [`Channel`]s, gate-level
//! [`NoiseModel`]s (including the paper's §7.1 uniform bit-flip model), and
//! calibrated [`DeviceModel`]s with the coupling maps of the paper's Fig. 15
//! (IBM Boeblingen and Lima). Their calibration tables are synthetic, in
//! the realistic range for devices of that generation, since no real
//! calibration feed is available offline.
//!
//! The [`choi_from_apply`] / [`choi_of_unitary`] helpers provide the
//! Choi–Jamiołkowski representations the diamond-norm SDPs are built from,
//! and the [`classify`](mod@classify) module detects analytic channel
//! structure (Pauli /
//! depolarizing / dephasing / unital) with certified closed-form diamond
//! bounds for the Pauli-type classes — the Tier 0 of `gleipnir-core`'s
//! tiered bound engine.
//!
//! ## Example
//!
//! ```
//! use gleipnir_circuit::{Gate, Qubit};
//! use gleipnir_noise::{Channel, NoiseModel};
//!
//! let nm = NoiseModel::uniform_bit_flip(1e-4);
//! let noisy_h = nm.noisy_gate(&Gate::H, &[Qubit(0)]);
//! // The noisy gate is a 2-Kraus channel: √(1−p)·H and √p·X·H.
//! assert_eq!(noisy_h.kraus().len(), 2);
//! ```

#![warn(missing_docs)]

mod channel;
pub mod classify;
mod device;
mod model;

pub use channel::{choi_from_apply, choi_of_unitary, Channel};
pub use classify::{classify, classify_kraus, classify_residual, ChannelClass, PauliProfile};
pub use device::DeviceModel;
pub use model::NoiseModel;
