//! Analysis requests: one validated value unifying program, input state,
//! noise model, method, and solver knobs.
//!
//! [`AnalysisRequest::builder`] is the only way to construct a request, and
//! [`AnalysisRequestBuilder::build`] validates the whole combination up
//! front (width agreement, method configuration, input normalizability), so
//! an [`crate::Engine`] never has to re-discover configuration mistakes
//! mid-analysis — bad configs fail fast with
//! [`AnalysisError::InvalidConfig`] instead of panicking.

use crate::{AdaptiveConfig, AnalysisError, TierPolicy};
use gleipnir_circuit::Program;
use gleipnir_linalg::{c64, CMat, C64};
use gleipnir_mps::{Mps, MpsConfig};
use gleipnir_noise::NoiseModel;
use gleipnir_sdp::SolverOptions;
use gleipnir_sim::BasisState;

/// The input state of an analysis, generalizing the old `BasisState`-only
/// entry point.
#[derive(Clone, Debug)]
pub enum InputState {
    /// A computational basis state.
    Basis(BasisState),
    /// A product of single-qubit pure states, one `[α, β]` amplitude pair
    /// (for `α|0⟩ + β|1⟩`) per qubit. Pairs are normalized at use; a pair
    /// with (near-)zero norm fails request validation.
    Product(Vec<[C64; 2]>),
    /// An explicit MPS — e.g. the output of a previous circuit, carried
    /// over with its accumulated truncation error `δ` as input slack.
    Mps(Box<Mps>),
}

impl InputState {
    /// The all-zeros basis state on `n` qubits (the default input).
    pub fn zeros(n: usize) -> Self {
        InputState::Basis(BasisState::zeros(n))
    }

    /// A basis state from MSB-first bits.
    pub fn from_bits(bits: &[bool]) -> Self {
        InputState::Basis(BasisState::from_bits(bits))
    }

    /// A product state from per-qubit `[α, β]` amplitude pairs.
    pub fn product(qubit_states: Vec<[C64; 2]>) -> Self {
        InputState::Product(qubit_states)
    }

    /// The uniform-superposition product state `|+⟩^⊗n`.
    pub fn plus(n: usize) -> Self {
        let a = c64(std::f64::consts::FRAC_1_SQRT_2, 0.0);
        InputState::Product(vec![[a, a]; n])
    }

    /// An explicit MPS input.
    pub fn mps(state: Mps) -> Self {
        InputState::Mps(Box::new(state))
    }

    /// Register width.
    pub fn n_qubits(&self) -> usize {
        match self {
            InputState::Basis(b) => b.n_qubits(),
            InputState::Product(qs) => qs.len(),
            InputState::Mps(m) => m.n_qubits(),
        }
    }

    /// The basis state, if this input is one.
    pub(crate) fn as_basis(&self) -> Option<&BasisState> {
        match self {
            InputState::Basis(b) => Some(b),
            _ => None,
        }
    }

    /// Validation shared by every method: the state must be constructible.
    pub(crate) fn validate(&self) -> Result<(), AnalysisError> {
        if self.n_qubits() == 0 {
            return Err(AnalysisError::InvalidConfig(
                "input state must have at least one qubit".into(),
            ));
        }
        if let InputState::Product(qs) = self {
            for (q, [a, b]) in qs.iter().enumerate() {
                let norm2 = a.norm_sqr() + b.norm_sqr();
                if !norm2.is_finite() || norm2 < 1e-24 {
                    return Err(AnalysisError::InvalidConfig(format!(
                        "product input for qubit {q} is not normalizable (|α|²+|β|² = {norm2:e})"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Materializes the input as an MPS with the given bond-dimension
    /// budget.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::InvalidConfig`] if the state fails validation.
    pub(crate) fn build_mps(&self, width: usize) -> Result<Mps, AnalysisError> {
        self.validate()?;
        let config = MpsConfig::with_width(width);
        Ok(match self {
            InputState::Basis(b) => Mps::basis_state(b.bits(), config),
            InputState::Product(qs) => {
                let mut mps = Mps::zero_state(qs.len(), config);
                for (q, [a, b]) in qs.iter().enumerate() {
                    let norm = (a.norm_sqr() + b.norm_sqr()).sqrt();
                    let (a, b) = (a.scale(1.0 / norm), b.scale(1.0 / norm));
                    // The unitary sending |0⟩ ↦ α|0⟩ + β|1⟩ (columns are
                    // orthonormal because (α, β) is normalized).
                    let u = CMat::from_rows(&[vec![a, -b.conj()], vec![b, a.conj()]]);
                    mps.apply_matrix(&u, &[q]);
                }
                mps
            }
            InputState::Mps(m) => m.as_ref().clone().with_max_bond(width),
        })
    }
}

impl From<BasisState> for InputState {
    fn from(b: BasisState) -> Self {
        InputState::Basis(b)
    }
}

impl From<&BasisState> for InputState {
    fn from(b: &BasisState) -> Self {
        InputState::Basis(b.clone())
    }
}

impl From<Mps> for InputState {
    fn from(m: Mps) -> Self {
        InputState::mps(m)
    }
}

/// The analysis method a request selects.
#[derive(Clone, Debug)]
pub enum Method {
    /// Gleipnir's state-aware `(ρ̂, δ)`-diamond analysis at a fixed MPS
    /// width (the paper's Fig. 4 pipeline).
    StateAware {
        /// MPS bond-dimension budget `w` (Fig. 14's knob).
        mps_width: usize,
    },
    /// The adaptive width search: doubles `w` until the bound stops
    /// improving (§1's adjustable-precision promise).
    Adaptive(AdaptiveConfig),
    /// The unconstrained worst case: diamond norms summed over all gates,
    /// ignoring the input state (§2.3).
    WorstCase,
    /// LQR \[24\] with full-simulation predicates — exact but exponential
    /// in qubits (Table 2's "timed out" baseline).
    LqrFullSim,
}

impl Method {
    /// A stable machine-readable method name (used by CLI JSON output).
    pub fn name(&self) -> &'static str {
        match self {
            Method::StateAware { .. } => "state_aware",
            Method::Adaptive(_) => "adaptive",
            Method::WorstCase => "worst_case",
            Method::LqrFullSim => "lqr_full_sim",
        }
    }

    fn validate(&self) -> Result<(), AnalysisError> {
        match self {
            Method::StateAware { mps_width } if *mps_width == 0 => Err(
                AnalysisError::InvalidConfig("MPS width must be positive".into()),
            ),
            Method::Adaptive(cfg) => cfg.validate(),
            _ => Ok(()),
        }
    }
}

impl Default for Method {
    /// The paper's §7.1 configuration: state-aware at `w = 128`.
    fn default() -> Self {
        Method::StateAware { mps_width: 128 }
    }
}

/// A validated analysis request: program + input + noise + method + solver
/// knobs, ready for [`crate::Engine::analyze`].
#[derive(Clone, Debug)]
pub struct AnalysisRequest {
    program: Program,
    input: InputState,
    noise: NoiseModel,
    method: Method,
    solver_options: Option<SolverOptions>,
    cache: bool,
    delta_quantum: f64,
    tiers: TierPolicy,
}

impl AnalysisRequest {
    /// Starts building a request for the given program. Defaults: all-zeros
    /// basis input, [`NoiseModel::Noiseless`], [`Method::default`], the
    /// engine's solver options, caching on, δ bucket `1e-6`, and the exact
    /// tier policy (cold SDP solves only).
    pub fn builder(program: Program) -> AnalysisRequestBuilder {
        AnalysisRequestBuilder {
            input: None,
            noise: NoiseModel::Noiseless,
            method: Method::default(),
            solver_options: None,
            cache: true,
            delta_quantum: 1e-6,
            tiers: TierPolicy::Exact,
            program,
        }
    }

    /// The program under analysis.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The input state.
    pub fn input(&self) -> &InputState {
        &self.input
    }

    /// The noise model `ω`.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// The selected analysis method.
    pub fn method(&self) -> &Method {
        &self.method
    }

    /// Per-request solver options (None = use the engine's).
    pub fn solver_options(&self) -> Option<SolverOptions> {
        self.solver_options
    }

    /// Whether this request participates in the engine's shared SDP cache.
    pub fn cache_enabled(&self) -> bool {
        self.cache
    }

    /// δ bucket width for sound cache reuse: lookups round δ *up* to the
    /// next bucket edge, so a cached ε certifies the exact judgment by the
    /// Weaken rule.
    pub fn delta_quantum(&self) -> f64 {
        self.delta_quantum
    }

    /// Which tiers of the bound engine this request may use (default
    /// [`TierPolicy::Exact`] — cold solves only, bit-identical to the
    /// pre-tiering engine).
    pub fn tier_policy(&self) -> TierPolicy {
        self.tiers
    }

    /// This request with its tier policy forced to [`TierPolicy::Exact`] —
    /// what an anytime refinement runs, so the refined ε is bit-identical
    /// to a cold exact-policy analysis of the same request regardless of
    /// the tiering the caller asked for.
    pub(crate) fn exact_clone(&self) -> AnalysisRequest {
        let mut exact = self.clone();
        exact.tiers = TierPolicy::Exact;
        exact
    }
}

/// Builder for [`AnalysisRequest`]; see [`AnalysisRequest::builder`].
#[derive(Clone, Debug)]
pub struct AnalysisRequestBuilder {
    program: Program,
    input: Option<InputState>,
    noise: NoiseModel,
    method: Method,
    solver_options: Option<SolverOptions>,
    cache: bool,
    delta_quantum: f64,
    tiers: TierPolicy,
}

impl AnalysisRequestBuilder {
    /// Sets the input state (anything `Into<InputState>`, e.g. a
    /// [`BasisState`] or [`Mps`]). Default: all-zeros basis state.
    pub fn input(mut self, input: impl Into<InputState>) -> Self {
        self.input = Some(input.into());
        self
    }

    /// Sets the noise model. Default: noiseless.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the analysis method. Default: state-aware at `w = 128`.
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Overrides the engine's solver options for this request.
    pub fn solver_options(mut self, opts: SolverOptions) -> Self {
        self.solver_options = Some(opts);
        self
    }

    /// Enables or disables participation in the engine's shared SDP cache
    /// (on by default; disabling solves every judgment at its exact δ).
    pub fn cache(mut self, enabled: bool) -> Self {
        self.cache = enabled;
        self
    }

    /// Sets the δ bucket width used for sound cache reuse (default `1e-6`).
    pub fn delta_quantum(mut self, q: f64) -> Self {
        self.delta_quantum = q;
        self
    }

    /// Selects the bound-engine tiers this request may use (default
    /// [`TierPolicy::Exact`]). [`TierPolicy::Fast`] answers Pauli-type
    /// channels with the certified closed form and solves the rest cold;
    /// the closed form stays a sound certified upper bound, but the
    /// produced ε may differ at the bit level from an exact-policy run.
    pub fn tiering(mut self, tiers: TierPolicy) -> Self {
        self.tiers = tiers;
        self
    }

    /// Validates the combination and produces the request.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::WidthMismatch`] if the input and program widths
    /// disagree; [`AnalysisError::InvalidConfig`] for a zero MPS width, an
    /// inverted adaptive width range, a non-positive δ bucket, a
    /// non-normalizable product input, or a non-basis input to the
    /// LQR-full-sim baseline.
    pub fn build(self) -> Result<AnalysisRequest, AnalysisError> {
        let input = self
            .input
            .unwrap_or_else(|| InputState::zeros(self.program.n_qubits()));
        if input.n_qubits() != self.program.n_qubits() {
            return Err(AnalysisError::WidthMismatch {
                input: input.n_qubits(),
                program: self.program.n_qubits(),
            });
        }
        input.validate()?;
        self.method.validate()?;
        if !self.delta_quantum.is_finite() || self.delta_quantum <= 0.0 {
            return Err(AnalysisError::InvalidConfig(format!(
                "delta quantum must be a positive finite number, got {}",
                self.delta_quantum
            )));
        }
        if matches!(self.method, Method::LqrFullSim) && input.as_basis().is_none() {
            return Err(AnalysisError::InvalidConfig(
                "the LQR-full-sim baseline requires a basis input state".into(),
            ));
        }
        Ok(AnalysisRequest {
            program: self.program,
            input,
            noise: self.noise,
            method: self.method,
            solver_options: self.solver_options,
            cache: self.cache,
            delta_quantum: self.delta_quantum,
            tiers: self.tiers,
        })
    }
}
