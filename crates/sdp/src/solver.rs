//! Primal-dual interior-point SDP solver (HKM direction, Mehrotra
//! predictor-corrector).
//!
//! Solves the standard-form pair
//!
//! ```text
//! (P) min ⟨C, X⟩   s.t. ⟨Aᵢ, X⟩ = bᵢ, X ⪰ 0
//! (D) max bᵀy      s.t. Z = C − Σᵢ yᵢAᵢ ⪰ 0
//! ```
//!
//! following the classical infeasible-start path-following scheme used by
//! CSDP/SDPA: at each iteration the Schur complement
//! `M_kl = ⟨A_k, (X·A_l·Z⁻¹ + Z⁻¹·A_l·X)/2⟩` is formed (exploiting the
//! sparsity of the `Aᵢ`), a predictor step (σ = 0) estimates the
//! centering parameter, and a corrector step with the Mehrotra second-order
//! term produces the final direction.
//!
//! Because Gleipnir's error bounds must be *sound*, [`SdpSolution`] exposes
//! [`SdpSolution::certified_dual_bound`]: a rigorous lower bound on the
//! primal minimum derived from weak duality plus an explicit correction for
//! the residual dual infeasibility (`bᵀy − R·max(0, −λ_min(C − Aᵀy))` for
//! any trace bound `R` on the feasible set).

use crate::blockmat::{max_step_lanes, StepWork};
use crate::{BlockMat, SdpProblem, SparseSym};
use gleipnir_linalg::lanes::{sym_sandwich_block, DotPrograms, DotTerm};
use gleipnir_linalg::{LaneMat, Lanes, RMat};
use std::cell::RefCell;
use std::fmt;
use std::time::Instant;

/// Options for [`SdpProblem::solve`].
#[derive(Clone, Copy, Debug)]
pub struct SolverOptions {
    /// Iteration cap (default 100).
    pub max_iterations: usize,
    /// Relative tolerance on duality gap and feasibility (default 1e-8).
    pub tolerance: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iterations: 100,
            tolerance: 1e-8,
        }
    }
}

/// Termination status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SdpStatus {
    /// Converged to the requested tolerance.
    Optimal,
    /// Stopped at the iteration cap; the iterate (and in particular the
    /// certified dual bound) is still usable, just less tight.
    MaxIterations,
}

/// Errors from the solver.
#[derive(Clone, Debug, PartialEq)]
pub enum SdpError {
    /// A linear-algebra step failed beyond recovery (singular Schur
    /// complement or loss of positive definiteness).
    Numerical(String),
}

impl fmt::Display for SdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdpError::Numerical(msg) => write!(f, "SDP numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for SdpError {}

/// Cumulative time and allocation accounting for one interior-point solve,
/// broken down by phase.
///
/// Every phase of an [`SdpBatch`] iteration is timed once for all its lanes
/// and charged to each lane that ran it in equal shares, so a lane's phase
/// fields sum to approximately [`SolverProfile::total_ms`] (the difference
/// is the lane's share of timer overhead) and a profile is the lane's
/// share of CPU time — its wall time only for a lone solve. Profiles are
/// additive: reports and benchmark passes aggregate the per-solve profiles
/// of hundreds of SDPs with [`SolverProfile::add`]; an aggregate over
/// solves that ran on several pool workers at once is CPU time summed
/// across those workers and can exceed the wall time of the analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolverProfile {
    /// Pre-loop work: dense `C`, norms, the starting iterate, the
    /// constraint index, and workspace allocation.
    pub setup_ms: f64,
    /// Per-iteration residuals, objectives, and convergence metrics.
    pub residual_ms: f64,
    /// Schur-complement formation `M_kl = ⟨A_k, sym(X·A_l·Z⁻¹)⟩` via the
    /// constraint-indexed sandwich kernel.
    pub schur_ms: f64,
    /// Factorizations: blockwise `Z⁻¹` and the Cholesky of the Schur
    /// complement (including regularization retries).
    pub factor_ms: f64,
    /// Predictor/corrector direction solves (right-hand sides, triangular
    /// solves, `sym(X·R·Z⁻¹)` triples, Mehrotra corrector assembly).
    pub direction_ms: f64,
    /// Eigenvalue-based line searches (`max_step_lanes`) and iterate
    /// updates.
    pub step_ms: f64,
    /// Post-loop certificate work: final residuals and the exact
    /// dual-slack minimum eigenvalue.
    pub cert_ms: f64,
    /// Total time of the solve (summed over solves in an aggregate).
    pub total_ms: f64,
    /// Heap allocations the iteration loop itself still performs after the
    /// workspace refactor (e.g. Schur regularization retries).
    pub loop_allocs: u64,
}

impl SolverProfile {
    /// Sum of the per-phase times (everything except `total_ms`); should
    /// track `total_ms` to within timer overhead.
    pub fn phase_ms(&self) -> f64 {
        self.setup_ms
            + self.residual_ms
            + self.schur_ms
            + self.factor_ms
            + self.direction_ms
            + self.step_ms
            + self.cert_ms
    }

    /// The seven phases as `(name, ms)` pairs, in execution order.
    /// This is the bridge the telemetry layer uses to re-emit a solve's
    /// phases as child spans *after* the solve returns — the solver hot
    /// path itself records nothing.
    pub fn phases(&self) -> [(&'static str, f64); 7] {
        [
            ("setup", self.setup_ms),
            ("residual", self.residual_ms),
            ("schur", self.schur_ms),
            ("factor", self.factor_ms),
            ("direction", self.direction_ms),
            ("step", self.step_ms),
            ("cert", self.cert_ms),
        ]
    }

    /// Accumulates another profile into this one (all fields are summed).
    pub fn add(&mut self, other: &SolverProfile) {
        self.setup_ms += other.setup_ms;
        self.residual_ms += other.residual_ms;
        self.schur_ms += other.schur_ms;
        self.factor_ms += other.factor_ms;
        self.direction_ms += other.direction_ms;
        self.step_ms += other.step_ms;
        self.cert_ms += other.cert_ms;
        self.total_ms += other.total_ms;
        self.loop_allocs += other.loop_allocs;
    }
}

/// The solver's output: primal/dual iterates and quality metrics.
#[derive(Clone, Debug)]
pub struct SdpSolution {
    /// Primal variable.
    pub x: BlockMat,
    /// Dual multipliers.
    pub y: Vec<f64>,
    /// Dual slack `Z ≈ C − Aᵀ(y)`.
    pub z: BlockMat,
    /// `⟨C, X⟩`.
    pub primal_objective: f64,
    /// `bᵀy`.
    pub dual_objective: f64,
    /// `|pobj − dobj| / (1 + |pobj| + |dobj|)`.
    pub relative_gap: f64,
    /// `‖b − A(X)‖₂ / (1 + ‖b‖₂)`.
    pub primal_infeasibility: f64,
    /// `‖C − Z − Aᵀ(y)‖_F / (1 + ‖C‖_F)`.
    pub dual_infeasibility: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Termination status.
    pub status: SdpStatus,
    /// `λ_min(C − Aᵀ(y))` of the *exact* dual slack (not the iterate `Z`),
    /// used by the certificate.
    pub exact_dual_slack_min_eig: f64,
    /// Per-phase wall-time breakdown of this solve.
    pub profile: SolverProfile,
}

impl SdpSolution {
    /// A rigorous lower bound on the primal optimal value, valid for every
    /// primal-feasible `X` with `tr(X) ≤ trace_bound`:
    ///
    /// `⟨C, X⟩ = bᵀy + ⟨C − Aᵀ(y), X⟩ ≥ bᵀy − max(0, −λ_min)·tr(X)`.
    pub fn certified_dual_bound(&self, trace_bound: f64) -> f64 {
        self.dual_objective - (-self.exact_dual_slack_min_eig).max(0.0) * trace_bound
    }
}

impl SdpProblem {
    /// Re-derives the weak-duality certificate for an **externally
    /// supplied** dual vector `y` — no interior-point iterations, just one
    /// exact dual-slack eigenvalue computation. This is what makes SDP
    /// certificates *cheap to re-check* after being expensive to produce:
    /// a persisted `(problem, y)` pair can be re-certified on load in a
    /// fraction of a solve, and the resulting bound is sound for *any* `y`
    /// (a garbage vector just yields a uselessly weak bound, never an
    /// unsound one).
    ///
    /// Computes exactly what [`SdpSolution::certified_dual_bound`] would
    /// report for this `y`: `bᵀy − max(0, −λ_min(C − Aᵀ(y)))·trace_bound`,
    /// with `λ_min` taken from the exact dual slack (the same code path the
    /// solver uses), so re-checking a stored solution reproduces its bound
    /// bit for bit.
    ///
    /// # Examples
    ///
    /// ```
    /// use gleipnir_sdp::{SdpProblem, SparseSym};
    ///
    /// // minimize ⟨diag(−2, −1), X⟩ s.t. tr X = 1, X ⪰ 0 — the optimum is
    /// // −2 (all weight on the first coordinate).
    /// let mut c = SparseSym::new();
    /// c.push(0, 0, 0, -2.0).push(0, 1, 1, -1.0);
    /// let mut tr = SparseSym::new();
    /// tr.push(0, 0, 0, 1.0).push(0, 1, 1, 1.0);
    /// let p = SdpProblem::new(vec![2], c, vec![tr], vec![1.0]);
    ///
    /// // y = [−2] proves the optimum exactly: the dual slack
    /// // C − Aᵀy = diag(0, 1) is PSD, so the bound is bᵀy = −2.
    /// assert_eq!(p.certified_dual_bound_for(&[-2.0], 1.0)?, -2.0);
    /// // Any finite dual yields a *sound* (possibly weaker) lower bound.
    /// assert!(p.certified_dual_bound_for(&[-3.0], 1.0)? <= -2.0);
    /// # Ok::<(), gleipnir_sdp::SdpError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`SdpError::Numerical`] if `y` has the wrong length for this
    /// problem or contains non-finite entries, if an eigensolve of the
    /// dual slack fails or yields a non-finite spectrum, or if the bound
    /// itself is not finite: a failed certificate never yields a bound.
    pub fn certified_dual_bound_for(&self, y: &[f64], trace_bound: f64) -> Result<f64, SdpError> {
        if y.len() != self.n_constraints() {
            return Err(SdpError::Numerical(format!(
                "dual vector has {} entries but the problem has {} constraints",
                y.len(),
                self.n_constraints()
            )));
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(SdpError::Numerical(
                "dual vector contains non-finite entries".into(),
            ));
        }
        let dobj: f64 = self.rhs().iter().zip(y).map(|(b, y)| b * y).sum();
        let min_eig = dual_slack_min_eig(self, y)?;
        let bound = dobj - (-min_eig).max(0.0) * trace_bound;
        if !bound.is_finite() {
            return Err(SdpError::Numerical(format!(
                "certified bound is not finite ({bound:e})"
            )));
        }
        Ok(bound)
    }
}

/// `λ_min(C − Aᵀ(y))`, the certificate's eigenvalue.
fn dual_slack_min_eig(p: &SdpProblem, y: &[f64]) -> Result<f64, SdpError> {
    p.dual_slack(y)
        .min_eigenvalue()
        .map_err(|e| SdpError::Numerical(format!("dual-slack eigenvalues: {e}")))
}

/// The lane width of [`SdpBatch`]: how many solves one lock-step batch
/// advances together.
pub const LANES: usize = 4;

impl SdpProblem {
    /// Solves the SDP from the standard cold start: a batch of one
    /// through [`SdpBatch`], so a lone solve and a batched lane run the
    /// same code and produce the same bits.
    ///
    /// # Errors
    ///
    /// [`SdpError::Numerical`] if the Schur complement stays singular after
    /// regularization or the iterates lose positive definiteness.
    pub fn solve(&self, opts: &SolverOptions) -> Result<SdpSolution, SdpError> {
        let mut batch = SdpBatch::new(*opts);
        batch.push(self.clone(), ());
        let mut out = None;
        while out.is_none() {
            batch.step(|(), r| out = Some(r));
        }
        out.expect("a batch of one finishes its lane")
    }
}

/// Up to [`LANES`] same-shape SDPs advanced in lock step, one
/// interior-point iteration per [`SdpBatch::step`].
///
/// Lane `k` runs solve `k`'s operations in exactly the order a lone solve
/// runs them, so every lane's result is bit-identical to
/// [`SdpProblem::solve`] on its problem, whichever problems share the
/// batch and whenever each joined. The dense work of an iteration runs on
/// lane-interleaved storage (`[f64; K]` per element, see
/// [`gleipnir_linalg::lanes`]): `Z⁻¹`, the Schur complement, its Cholesky
/// factor and triangular solves, the `sym(X·R·Z⁻¹)` direction products,
/// `X`'s factor and the line searches' `L⁻¹·D·L⁻ᵀ` and tridiagonal
/// reduction. Everything whose control flow can differ per lane —
/// convergence and factorization exits, the step-length schedule,
/// regularization retries, the QL iteration of each line search — runs on
/// each lane's own scalar path.
///
/// Problems share a batch when they have the same block shape and the
/// same constraints except the last, which (like `C` and `b`) may differ
/// per lane: the per-gate diamond SDPs differ only in the ρ′ constraint.
/// A lane that finishes frees its slot at once, so a caller can refill it
/// with [`SdpBatch::push`] between steps.
///
/// # Examples
///
/// ```
/// use gleipnir_sdp::{SdpBatch, SdpProblem, SparseSym};
///
/// // minimize ⟨diag(c, 1), X⟩ s.t. tr X = 1 → min(c, 1), for two c's.
/// let problem = |c0: f64| {
///     let mut c = SparseSym::new();
///     c.push(0, 0, 0, c0).push(0, 1, 1, 1.0);
///     let mut tr = SparseSym::new();
///     tr.push(0, 0, 0, 1.0).push(0, 1, 1, 1.0);
///     SdpProblem::new(vec![2], c, vec![tr], vec![1.0])
/// };
/// let mut batch = SdpBatch::new(Default::default());
/// batch.push(problem(-2.0), "a");
/// assert!(batch.accepts(&problem(0.5)));
/// batch.push(problem(0.5), "b");
/// let mut done = Vec::new();
/// while !batch.is_empty() {
///     batch.step(|tag, sol| done.push((tag, sol)));
/// }
/// for (tag, sol) in done {
///     let lone = problem(if tag == "a" { -2.0 } else { 0.5 }).solve(&Default::default())?;
///     assert_eq!(sol?.y, lone.y);
/// }
/// # Ok::<(), gleipnir_sdp::SdpError>(())
/// ```
pub struct SdpBatch<T> {
    opts: SolverOptions,
    template: Option<Template>,
    lanes: Vec<Lane<T>>,
    /// Set with the template's shape.
    ws: Option<Workspaces>,
}

impl<T> SdpBatch<T> {
    /// An empty batch.
    pub fn new(opts: SolverOptions) -> Self {
        SdpBatch {
            opts,
            template: None,
            lanes: Vec::with_capacity(LANES),
            ws: None,
        }
    }

    /// Solves in flight.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether no solve is in flight.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Whether every lane is taken.
    pub fn is_full(&self) -> bool {
        self.lanes.len() == LANES
    }

    /// Whether `problem` can join now: a lane is free and, unless the
    /// batch is empty, the problem has the batch's shape (block dims,
    /// constraint count, and every constraint but the last).
    pub fn accepts(&self, problem: &SdpProblem) -> bool {
        !self.is_full()
            && (self.is_empty() || self.template.as_ref().is_some_and(|t| t.matches(problem)))
    }

    /// Starts solving `problem` in a free lane; `tag` comes back with its
    /// result from [`SdpBatch::step`].
    ///
    /// # Panics
    ///
    /// Panics unless [`SdpBatch::accepts`] holds for `problem`.
    pub fn push(&mut self, problem: SdpProblem, tag: T) {
        assert!(self.accepts(&problem), "problem does not fit this batch");
        let t_setup = Instant::now();
        if !self.template.as_ref().is_some_and(|t| t.matches(&problem)) {
            let tpl = Template::new(&problem);
            if !self.ws.as_ref().is_some_and(|w| w.fits(&tpl)) {
                if let Some(old) = self.ws.take() {
                    old.give_back();
                }
                self.ws = Some(Workspaces::take(&tpl));
            }
            self.template = Some(tpl);
        }
        let n_shared = self.template.as_ref().expect("template set").shared.len();
        let mut lane = Lane::new(problem, n_shared, tag);
        lane.profile.setup_ms = ms_since(t_setup);
        lane.profile.total_ms = lane.profile.setup_ms;
        self.lanes.push(lane);
    }

    /// Advances every lane by one interior-point iteration and hands each
    /// lane that finished (converged, stalled, hit the iteration cap, or
    /// lost positive definiteness) to `done`, freeing its slot.
    ///
    /// Each lane's [`SolverProfile`] is charged every phase's wall time
    /// divided by the lanes that ran the phase, so profiles summed over
    /// lanes are CPU time.
    pub fn step(&mut self, mut done: impl FnMut(T, Result<SdpSolution, SdpError>)) {
        if self.lanes.is_empty() {
            return;
        }
        let t_step = Instant::now();
        let opts = self.opts;
        let tpl = self
            .template
            .as_ref()
            .expect("a non-empty batch has a template");
        let ws = self.ws.as_mut().expect("a non-empty batch has workspaces");
        let lanes = &mut self.lanes;
        let mut phases_ms = 0.0;

        let mut live = Live::default();
        for (i, lane) in lanes.iter_mut().enumerate() {
            if lane.iter < opts.max_iterations {
                live.push(i);
            } else {
                lane.exit = Some((opts.max_iterations, SdpStatus::MaxIterations));
            }
        }

        // Residuals and convergence metrics.
        let t = Instant::now();
        let ran = live;
        live.retain(|i| lanes[i].residuals(&tpl.index, opts.tolerance));
        phases_ms += charge(lanes, ran, Phase::Residual, t);

        if live.n == 1 {
            let w = ws.narrow.get_or_insert_with(|| Wide::new(&tpl.dims, tpl.m));
            phases_ms += iterate(w, tpl, lanes, live, &mut ws.retry);
        } else if live.n > 1 {
            let w = ws.wide.get_or_insert_with(|| Wide::new(&tpl.dims, tpl.m));
            phases_ms += iterate(w, tpl, lanes, live, &mut ws.retry);
        }

        // Timer gaps and packing between phases, split evenly.
        let overhead = (ms_since(t_step) - phases_ms).max(0.0) / lanes.len() as f64;
        for lane in lanes.iter_mut() {
            lane.profile.total_ms += overhead;
        }
        let mut i = 0;
        while i < lanes.len() {
            if lanes[i].exit.is_some() {
                let lane = lanes.swap_remove(i);
                let (tag, sol) = lane.finish();
                done(tag, sol);
            } else {
                i += 1;
            }
        }
    }
}

impl<T> Drop for SdpBatch<T> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            ws.give_back();
        }
    }
}

/// A batch's workspaces for one problem shape, each allocated on first
/// use.
///
/// The 4-lane workspace holds every lane's Schur complement and factor —
/// megabytes at the 2-qubit diamond shape — and fresh memory page-faults
/// on first touch, at a cost that follows the host's memory state rather
/// than the solve. So a thread keeps a finished batch's workspaces
/// ([`SPARES_KEPT`] shapes at most) and its next batch of the same shape
/// takes them back. Reuse cannot change a bit: an iteration writes every
/// workspace entry before it reads it, except the sandwich blocks, whose
/// dirty flags travel with them.
struct Workspaces {
    dims: Vec<usize>,
    m: usize,
    narrow: Option<Wide<1>>,
    wide: Option<Wide<LANES>>,
    /// Scratch for regularization retries: the failing lane's Schur
    /// complement and its factor (allocated on the first retry).
    retry: Option<(RMat, RMat)>,
}

/// How many shapes' workspaces a thread keeps between batches.
const SPARES_KEPT: usize = 4;

thread_local! {
    static SPARES: RefCell<Vec<Workspaces>> = const { RefCell::new(Vec::new()) };
}

impl Workspaces {
    /// The thread's spare workspaces for `tpl`'s shape, or empty ones.
    fn take(tpl: &Template) -> Self {
        SPARES
            .try_with(|spares| {
                let mut spares = spares.borrow_mut();
                let i = spares.iter().position(|w| w.fits(tpl))?;
                Some(spares.remove(i))
            })
            .ok()
            .flatten()
            .unwrap_or_else(|| Workspaces {
                dims: tpl.dims.clone(),
                m: tpl.m,
                narrow: None,
                wide: None,
                retry: None,
            })
    }

    /// Keeps these workspaces for the thread's next batch, dropping the
    /// oldest spares beyond [`SPARES_KEPT`].
    fn give_back(self) {
        // Fails only while the thread exits; the workspaces are then freed.
        let _ = SPARES.try_with(|spares| {
            let mut spares = spares.borrow_mut();
            if spares.len() == SPARES_KEPT {
                spares.remove(0);
            }
            spares.push(self);
        });
    }

    fn fits(&self, tpl: &Template) -> bool {
        self.dims == tpl.dims && self.m == tpl.m
    }
}

/// What every lane of a batch shares: the block shape, the constraints
/// before the last, and their index.
struct Template {
    dims: Vec<usize>,
    m: usize,
    shared: Vec<SparseSym>,
    index: ConstraintIndex,
}

impl Template {
    fn new(p: &SdpProblem) -> Self {
        let m = p.n_constraints();
        let shared = p.constraints()[..m.saturating_sub(1)].to_vec();
        Template {
            dims: p.block_dims().to_vec(),
            m,
            index: ConstraintIndex::build(&shared, p.block_dims()),
            shared,
        }
    }

    fn matches(&self, p: &SdpProblem) -> bool {
        p.block_dims() == self.dims.as_slice()
            && p.n_constraints() == self.m
            && p.constraints()[..self.shared.len()] == self.shared[..]
    }
}

/// Indices of the lanes still in an iteration, in slot order.
#[derive(Clone, Copy, Default)]
struct Live {
    idx: [usize; LANES],
    n: usize,
}

impl Live {
    fn push(&mut self, i: usize) {
        self.idx[self.n] = i;
        self.n += 1;
    }

    fn iter(self) -> impl Iterator<Item = usize> {
        self.idx.into_iter().take(self.n)
    }

    fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut n = 0;
        for s in 0..self.n {
            let i = self.idx[s];
            if keep(i) {
                self.idx[n] = i;
                n += 1;
            }
        }
        self.n = n;
    }
}

/// The timed phases of an iteration (see [`SolverProfile`]).
#[derive(Clone, Copy)]
enum Phase {
    Residual,
    Schur,
    Factor,
    Direction,
    Step,
}

/// Charges the wall time since `t` to the lanes in `ran`, split evenly;
/// returns the time.
fn charge<T>(lanes: &mut [Lane<T>], ran: Live, phase: Phase, t: Instant) -> f64 {
    let ms = ms_since(t);
    if ran.n == 0 {
        return ms;
    }
    let share = ms / ran.n as f64;
    for i in ran.iter() {
        let p = &mut lanes[i].profile;
        *match phase {
            Phase::Residual => &mut p.residual_ms,
            Phase::Schur => &mut p.schur_ms,
            Phase::Factor => &mut p.factor_ms,
            Phase::Direction => &mut p.direction_ms,
            Phase::Step => &mut p.step_ms,
        } += share;
        p.total_ms += share;
    }
    ms
}

/// The lane-interleaved workspaces of a `K`-wide iteration.
struct Wide<const K: usize> {
    x: Vec<LaneMat<K>>,
    z: Vec<LaneMat<K>>,
    zinv: Vec<LaneMat<K>>,
    /// The blockwise Cholesky factors of `X` and `Z`, which every line
    /// search of the iteration reuses.
    xl: Vec<LaneMat<K>>,
    zl: Vec<LaneMat<K>>,
    /// Packed operands of the direction products and line searches.
    a: Vec<LaneMat<K>>,
    b: Vec<LaneMat<K>>,
    /// A direction product's intermediate (`L⁻¹` while inverting `Z`) and
    /// result.
    tmp: Vec<LaneMat<K>>,
    out: Vec<LaneMat<K>>,
    step: StepWork<K>,
    v: Vec<LaneMat<K>>,
    sw: Vec<LaneMat<K>>,
    sw_dirty: Vec<bool>,
    /// The Schur complement, stored transposed (row `l` holds
    /// `M_kl` for every `k`) so each sandwich's inner products are
    /// written contiguously; symmetrizing the transpose gives the same
    /// bits because IEEE addition commutes.
    m: LaneMat<K>,
    chol: LaneMat<K>,
    rhs: Vec<Lanes<K>>,
}

impl<const K: usize> Wide<K> {
    fn new(dims: &[usize], m: usize) -> Self {
        let blocks = || dims.iter().map(|&d| LaneMat::zeros(d, d)).collect();
        Wide {
            x: blocks(),
            z: blocks(),
            zinv: blocks(),
            xl: blocks(),
            zl: blocks(),
            a: blocks(),
            b: blocks(),
            tmp: blocks(),
            out: blocks(),
            step: StepWork::new(dims),
            v: blocks(),
            sw: blocks(),
            sw_dirty: vec![false; dims.len()],
            m: LaneMat::zeros(m, m),
            chol: LaneMat::zeros(m, m),
            rhs: vec![[0.0; K]; m],
        }
    }

    /// `Z⁻¹ = L⁻ᵀ·L⁻¹` blockwise from the Cholesky factor `L` of the
    /// packed `Z`, which stays in `zl`; per lane, the scalar
    /// `cholesky_into`, `invert_lower_into` and `transpose_mul_self_into`
    /// in that order. Returns which lanes' `Z` factored.
    fn invert_z(&mut self) -> [bool; K] {
        let mut ok = [true; K];
        let blocks = self.z.iter().zip(&mut self.zl);
        for ((z, l), (linv, zinv)) in blocks.zip(self.tmp.iter_mut().zip(&mut self.zinv)) {
            let factored = z.cholesky_into(l);
            ok = std::array::from_fn(|s| ok[s] && factored[s]);
            l.invert_lower_into(linv);
            linv.transpose_mul_self_into(zinv);
        }
        ok
    }

    /// `X`'s blockwise Cholesky factor into `xl`; returns which lanes' `X`
    /// factored.
    fn factor_x(&mut self) -> [bool; K] {
        let mut ok = [true; K];
        for (x, l) in self.x.iter().zip(&mut self.xl) {
            let factored = x.cholesky_into(l);
            ok = std::array::from_fn(|s| ok[s] && factored[s]);
        }
        ok
    }
}

/// Packs `part` of slot `s`'s lane into lane `s` of `dst`, for every slot.
fn pack<T, const K: usize>(
    dst: &mut [LaneMat<K>],
    lanes: &[Lane<T>],
    slot: &[usize; K],
    part: impl Fn(&Lane<T>) -> &BlockMat,
) {
    for (s, &i) in slot.iter().enumerate() {
        let m = part(&lanes[i]);
        for (bl, d) in dst.iter_mut().enumerate() {
            d.set_lane(s, m.block(bl));
        }
    }
}

/// Unpacks lane `s` of `src` into `part` of slot `s`'s lane, for every
/// active slot.
fn unpack<T, const K: usize>(
    src: &[LaneMat<K>],
    lanes: &mut [Lane<T>],
    slot: &[usize; K],
    on: [bool; K],
    part: impl Fn(&mut Lane<T>) -> &mut BlockMat,
) {
    for s in (0..K).filter(|&s| on[s]) {
        let m = part(&mut lanes[slot[s]]);
        for (bl, b) in src.iter().enumerate() {
            b.get_lane(s, m.block_mut(bl));
        }
    }
}

/// The rest of one iteration for the `live` lanes (at most `K`), after
/// the residuals: `Z⁻¹`, the Schur complement, its factorization, the
/// predictor and corrector directions, and the steps. Returns the wall
/// time charged to phases.
fn iterate<T, const K: usize>(
    w: &mut Wide<K>,
    tpl: &Template,
    lanes: &mut [Lane<T>],
    mut live: Live,
    retry: &mut Option<(RMat, RMat)>,
) -> f64 {
    debug_assert!(live.n >= 1 && live.n <= K);
    // Slot s carries lane `slot[s]`; spare slots repeat the first lane so
    // every lane of the kernels computes on real data.
    let slot: [usize; K] = std::array::from_fn(|s| live.idx[if s < live.n { s } else { 0 }]);
    let slot_of = |i: usize| {
        slot.iter()
            .position(|&j| j == i)
            .expect("live lane has a slot")
    };
    let n_live = live.n;
    let active = |live: Live| -> [bool; K] {
        std::array::from_fn(|s| s < n_live && live.iter().any(|i| i == slot[s]))
    };
    let n_shared = tpl.shared.len();
    let mut phases_ms = 0.0;

    // Near-degenerate constraints (e.g. a (ρ̂, 0) diamond norm with a pure
    // ρ̂) can push the iterates onto the boundary before the tolerance is
    // met. The dual certificate from the current iterate is still sound,
    // so a `Z` that does not factor ends the lane's iteration rather than
    // erroring out.
    let t = Instant::now();
    pack(&mut w.z, lanes, &slot, |l| &l.z);
    let ok = w.invert_z();
    let ran = live;
    live.retain(|i| {
        let lane = &mut lanes[i];
        let factored = ok[slot_of(i)];
        if !factored {
            lane.exit = Some((lane.iter, SdpStatus::MaxIterations));
        }
        factored
    });
    unpack(&w.zinv, lanes, &slot, active(live), |l| &mut l.w.zinv);
    phases_ms += charge(lanes, ran, Phase::Factor, t);
    if live.n == 0 {
        return phases_ms;
    }

    // Schur complement M_kl = ⟨A_k, sym(X·A_l·Z⁻¹)⟩.
    let t = Instant::now();
    pack(&mut w.x, lanes, &slot, |l| &l.x);
    for l in 0..n_shared {
        tpl.index
            .sandwich_lanes(l, &w.x, &w.zinv, &mut w.v, &mut w.sw, &mut w.sw_dirty);
        // `sw` is exactly +0.0 on every block outside constraint l's
        // support, so a block-disjoint pair's inner product is +0.0
        // whether computed (±0.0 terms cannot move a +0.0 accumulator) or
        // skipped — writing the constant is bit-identical.
        let ml = tpl.index.dots.mask(l);
        let row = w.m.row_mut(l);
        tpl.index.dots.row(ml, &w.sw, &mut row[..n_shared]);
        for (s, &i) in slot.iter().enumerate() {
            let own = &lanes[i].own;
            for (k, out) in row[n_shared..].iter_mut().enumerate() {
                out[s] = if own.dots.mask(k) & ml == 0 {
                    0.0
                } else {
                    own.dot_lane(k, &w.sw, s)
                };
            }
        }
    }
    // The last constraint's sparsity is the lane's own: slot s's sandwich
    // runs with lane s's entries (on every lane of the kernel, of which
    // only lane s is read back).
    for (s, &i) in slot.iter().enumerate() {
        let own = &lanes[i].own;
        for l in n_shared..tpl.m {
            own.sandwich_lanes(
                l - n_shared,
                &w.x,
                &w.zinv,
                &mut w.v,
                &mut w.sw,
                &mut w.sw_dirty,
            );
            let ml = own.dots.mask(l - n_shared);
            for (k, out) in w.m.row_mut(l).iter_mut().enumerate() {
                let (index, k) = if k < n_shared {
                    (&tpl.index, k)
                } else {
                    (own, k - n_shared)
                };
                out[s] = if index.dots.mask(k) & ml == 0 {
                    0.0
                } else {
                    index.dot_lane(k, &w.sw, s)
                };
            }
        }
    }
    w.m.symmetrize_in_place();
    phases_ms += charge(lanes, live, Phase::Schur, t);

    let t = Instant::now();
    let ok = w.m.cholesky_into(&mut w.chol);
    let ran = live;
    live.retain(|i| {
        let s = slot_of(i);
        ok[s] || regularized_cholesky(&w.m, s, &mut w.chol, retry, &mut lanes[i])
    });
    phases_ms += charge(lanes, ran, Phase::Factor, t);
    if live.n == 0 {
        return phases_ms;
    }
    let on = active(live);

    // Predictor (σ = 0), from the shared base direction
    // g = −X − sym(X·Rd·Z⁻¹).
    let t = Instant::now();
    pack(&mut w.a, lanes, &slot, |l| &l.w.rd);
    sym_triple_lanes(&w.x, &w.a, &w.zinv, &mut w.tmp, &mut w.out);
    unpack(&w.out, lanes, &slot, on, |l| &mut l.w.base_g);
    for i in live.iter() {
        lanes[i].predictor_rhs(&tpl.index);
    }
    solve_lanes(w, lanes, &slot, on, false);
    finish_directions(w, lanes, &slot, on, false);
    phases_ms += charge(lanes, live, Phase::Direction, t);

    // The predictor's step lengths (γ = 1). `X` is factored once for both
    // of this iteration's line searches along `dX`; `Z`'s factor is
    // `invert_z`'s. A lane whose `X` does not factor gets step 0.
    let t = Instant::now();
    let x_ok = w.factor_x();
    let on_x: [bool; K] = std::array::from_fn(|s| on[s] && x_ok[s]);
    pack(&mut w.a, lanes, &slot, |l| &l.w.dx_a);
    pack(&mut w.b, lanes, &slot, |l| &l.w.dz_a);
    let ap = max_step_lanes(&w.xl, &w.a, [1.0; K], on_x, &mut w.step);
    let ad = max_step_lanes(&w.zl, &w.b, [1.0; K], on, &mut w.step);
    for s in (0..K).filter(|&s| on[s]) {
        let lane = &mut lanes[slot[s]];
        lane.ap_a = ap[s].unwrap_or(0.0);
        lane.ad_a = ad[s].unwrap_or(0.0);
    }
    phases_ms += charge(lanes, live, Phase::Step, t);

    // Corrector with the Mehrotra second-order term − sym(dXa·dZa·Z⁻¹)
    // (`dXa` and `dZa` are still packed).
    let t = Instant::now();
    sym_triple_lanes(&w.a, &w.b, &w.zinv, &mut w.tmp, &mut w.out);
    unpack(&w.out, lanes, &slot, on, |l| &mut l.w.corr);
    for i in live.iter() {
        lanes[i].corrector_rhs(&tpl.index);
    }
    solve_lanes(w, lanes, &slot, on, true);
    finish_directions(w, lanes, &slot, on, true);
    phases_ms += charge(lanes, live, Phase::Direction, t);

    // The damped step along the corrector direction.
    let t = Instant::now();
    let gamma = std::array::from_fn(|s| if lanes[slot[s]].iter < 2 { 0.9 } else { 0.98 });
    pack(&mut w.a, lanes, &slot, |l| &l.w.dx);
    pack(&mut w.b, lanes, &slot, |l| &l.w.dz);
    let ap = max_step_lanes(&w.xl, &w.a, gamma, on_x, &mut w.step);
    let ad = max_step_lanes(&w.zl, &w.b, gamma, on, &mut w.step);
    for s in (0..K).filter(|&s| on[s]) {
        lanes[slot[s]].take_step(ap[s].unwrap_or(0.0), ad[s].unwrap_or(0.0));
    }
    phases_ms += charge(lanes, live, Phase::Step, t);
    phases_ms
}

/// Completes every active slot's HKM direction from its `dy` (`dy_a` for
/// the predictor): `dZ = sym(Rd − Aᵀdy)`, then
/// `dX = sym(g + sym(X·Aᵀdy·Z⁻¹))` with the product in lanes.
fn finish_directions<T, const K: usize>(
    w: &mut Wide<K>,
    lanes: &mut [Lane<T>],
    slot: &[usize; K],
    on: [bool; K],
    corrector: bool,
) {
    for s in (0..K).filter(|&s| on[s]) {
        lanes[slot[s]].dual_direction(corrector);
    }
    pack(&mut w.a, lanes, slot, |l| &l.w.atbuf);
    sym_triple_lanes(&w.x, &w.a, &w.zinv, &mut w.tmp, &mut w.out);
    unpack(&w.out, lanes, slot, on, |l| &mut l.w.tri_out);
    for s in (0..K).filter(|&s| on[s]) {
        lanes[slot[s]].primal_direction(corrector);
    }
}

/// Solves `M·dy = rhs` for every active slot from the lane-interleaved
/// factor: packs each lane's right-hand side, runs both triangular solves
/// once for all lanes, and unpacks `dy` (`dy_a` for the predictor).
fn solve_lanes<T, const K: usize>(
    w: &mut Wide<K>,
    lanes: &mut [Lane<T>],
    slot: &[usize; K],
    on: [bool; K],
    corrector: bool,
) {
    let first = (0..K).find(|&s| on[s]).expect("an active slot");
    for s in 0..K {
        let rhs = &lanes[slot[if on[s] { s } else { first }]].w.rhs;
        for (v, r) in w.rhs.iter_mut().zip(rhs) {
            v[s] = *r;
        }
    }
    w.chol.solve_lower_in_place(&mut w.rhs);
    w.chol.solve_lower_transpose_in_place(&mut w.rhs);
    for s in (0..K).filter(|&s| on[s]) {
        let lw = &mut lanes[slot[s]].w;
        let dy = if corrector { &mut lw.dy } else { &mut lw.dy_a };
        dy.clear();
        dy.extend(w.rhs.iter().map(|v| v[s]));
    }
}

/// Cholesky with escalating diagonal regularization for slot `s`, whose
/// plain factorization already failed in the lane kernel; the factor is
/// written back into the slot. Each retry clones the lane's Schur
/// complement and bumps the lane's `loop_allocs`, as the scalar retry
/// always has. Returns `false` (ending the lane) if every retry fails.
fn regularized_cholesky<T, const K: usize>(
    m: &LaneMat<K>,
    s: usize,
    chol: &mut LaneMat<K>,
    retry: &mut Option<(RMat, RMat)>,
    lane: &mut Lane<T>,
) -> bool {
    let n = m.rows();
    let (mlane, out) = retry.get_or_insert_with(|| (RMat::zeros(n, n), RMat::zeros(n, n)));
    m.get_lane(s, mlane);
    let scale = mlane.max_abs().max(1.0);
    let mut reg = 1e-12 * scale;
    for _ in 0..8 {
        lane.profile.loop_allocs += 1;
        let mut mm = mlane.clone();
        for i in 0..n {
            mm[(i, i)] += reg;
        }
        if mm.cholesky_into(out) {
            chol.set_lane(s, out);
            return true;
        }
        reg *= 100.0;
    }
    lane.exit = Some((lane.iter, SdpStatus::MaxIterations));
    false
}

/// One lane's solve: its problem, iterate, per-lane constraint index, the
/// scalar workspaces of its per-lane phases, and its accounting.
struct Lane<T> {
    tag: T,
    p: SdpProblem,
    /// Index of this lane's own constraints (those after the shared ones).
    own: ConstraintIndex,
    c_dense: BlockMat,
    b_norm: f64,
    c_frob: f64,
    n_tot: usize,
    x: BlockMat,
    z: BlockMat,
    y: Vec<f64>,
    /// Iterations completed.
    iter: usize,
    /// `(iterations, status)` once the lane has stopped.
    exit: Option<(usize, SdpStatus)>,
    mu: f64,
    ap_a: f64,
    ad_a: f64,
    w: LaneWork,
    profile: SolverProfile,
}

/// Per-lane scalar workspaces, allocated once per solve.
struct LaneWork {
    ax: Vec<f64>,
    rp: Vec<f64>,
    rd: BlockMat,
    atbuf: BlockMat,
    zinv: BlockMat,
    base_g: BlockMat,
    gcorr: BlockMat,
    corr: BlockMat,
    tri_out: BlockMat,
    ag: Vec<f64>,
    rhs: Vec<f64>,
    dy_a: Vec<f64>,
    dx_a: BlockMat,
    dz_a: BlockMat,
    dy: Vec<f64>,
    dx: BlockMat,
    dz: BlockMat,
}

impl<T> Lane<T> {
    fn new(p: SdpProblem, n_shared: usize, tag: T) -> Self {
        let dims = p.block_dims().to_vec();
        let m = p.n_constraints();
        let n_tot: usize = dims.iter().sum();
        let c_dense = p.dense_c();
        let b = p.rhs();
        let b_norm = norm2(b);
        let b_max = b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        let c_frob = c_dense.frobenius_norm();
        let c_max = c_dense.max_abs();
        let xi_p = 10.0f64.max((n_tot as f64).sqrt() * (1.0 + b_max));
        let xi_d = 10.0f64.max((n_tot as f64).sqrt() * (1.0 + c_max));
        let zeros = || BlockMat::zeros(&dims);
        let w = LaneWork {
            ax: vec![0.0; m],
            rp: vec![0.0; m],
            rd: zeros(),
            atbuf: zeros(),
            zinv: zeros(),
            base_g: zeros(),
            gcorr: zeros(),
            corr: zeros(),
            tri_out: zeros(),
            ag: vec![0.0; m],
            rhs: vec![0.0; m],
            dy_a: vec![0.0; m],
            dx_a: zeros(),
            dz_a: zeros(),
            dy: vec![0.0; m],
            dx: zeros(),
            dz: zeros(),
        };
        Lane {
            own: ConstraintIndex::build(&p.constraints()[n_shared..], &dims),
            x: BlockMat::scaled_identity(&dims, xi_p),
            z: BlockMat::scaled_identity(&dims, xi_d),
            y: vec![0.0; m],
            c_dense,
            b_norm,
            c_frob,
            n_tot,
            iter: 0,
            exit: None,
            mu: 0.0,
            ap_a: 0.0,
            ad_a: 0.0,
            w,
            profile: SolverProfile::default(),
            tag,
            p,
        }
    }

    /// Residuals, objectives and convergence metrics. Returns `false`
    /// (recording the exit) if the lane converged or `μ` degenerated.
    fn residuals(&mut self, shared: &ConstraintIndex, tolerance: f64) -> bool {
        let w = &mut self.w;
        apply_a_into(shared, &self.own, &self.x, &mut w.ax);
        let b = self.p.rhs();
        for ((r, bi), ai) in w.rp.iter_mut().zip(b).zip(&w.ax) {
            *r = bi - ai;
        }
        w.rd.copy_from(&self.c_dense);
        w.rd.axpy(-1.0, &self.z);
        self.p.apply_at_into(&self.y, &mut w.atbuf);
        w.rd.axpy(-1.0, &w.atbuf);

        let pobj = self.c_dense.dot(&self.x);
        let dobj: f64 = b.iter().zip(&self.y).map(|(a, b)| a * b).sum();
        let gap = (pobj - dobj).abs() / (1.0 + pobj.abs() + dobj.abs());
        let pinf = norm2(&w.rp) / (1.0 + self.b_norm);
        let dinf = w.rd.frobenius_norm() / (1.0 + self.c_frob);

        if gap < tolerance && pinf < tolerance && dinf < tolerance {
            self.exit = Some((self.iter, SdpStatus::Optimal));
            return false;
        }
        self.mu = self.x.dot(&self.z) / self.n_tot as f64;
        if self.mu <= 0.0 || !self.mu.is_finite() {
            self.exit = Some((self.iter, SdpStatus::MaxIterations));
            return false;
        }
        true
    }

    /// The predictor's base direction `g = −X − sym(X·Rd·Z⁻¹)`, from the
    /// product in `base_g`, and its Schur right-hand side `rp − A(g)`.
    fn predictor_rhs(&mut self, shared: &ConstraintIndex) {
        let w = &mut self.w;
        w.base_g.scale(-1.0);
        w.base_g.axpy(-1.0, &self.x);
        apply_a_into(shared, &self.own, &w.base_g, &mut w.ag);
        self.schur_rhs();
    }

    /// `rhs = rp − A(g)`.
    fn schur_rhs(&mut self) {
        let w = &mut self.w;
        w.rhs.clear();
        w.rhs
            .extend(w.rp.iter().zip(w.ag.iter()).map(|(r, a)| r - a));
    }

    /// The centering parameter and the corrector's right-hand side
    /// `g = base_g + σμ·Z⁻¹ − sym(dXa·dZa·Z⁻¹)`, from the product in `corr`.
    fn corrector_rhs(&mut self, shared: &ConstraintIndex) {
        let (ap_a, ad_a) = (self.ap_a, self.ad_a);
        let w = &mut self.w;
        let mu_aff = {
            let xz = self.x.dot(&self.z);
            let xdz = self.x.dot(&w.dz_a);
            let dxz = w.dx_a.dot(&self.z);
            let dxdz = w.dx_a.dot(&w.dz_a);
            (xz + ad_a * xdz + ap_a * dxz + ap_a * ad_a * dxdz) / self.n_tot as f64
        };
        let sigma = ((mu_aff / self.mu).powi(3)).clamp(0.0, 1.0);
        w.gcorr.copy_from(&w.base_g);
        w.gcorr.axpy(sigma * self.mu, &w.zinv);
        w.corr.scale(-1.0);
        w.gcorr.axpy(1.0, &w.corr);
        apply_a_into(shared, &self.own, &w.gcorr, &mut w.ag);
        self.schur_rhs();
    }

    /// Given `dy` (`dy_a` for the predictor), `dZ = sym(Rd − Aᵀdy)`, with
    /// the adjoint left in `atbuf`.
    fn dual_direction(&mut self, corrector: bool) {
        let w = &mut self.w;
        let (dy, dz) = if corrector {
            (&w.dy, &mut w.dz)
        } else {
            (&w.dy_a, &mut w.dz_a)
        };
        dz.copy_from(&w.rd);
        self.p.apply_at_into(dy, &mut w.atbuf);
        dz.axpy(-1.0, &w.atbuf);
        dz.symmetrize();
    }

    /// `dX = sym(g + sym(X·Aᵀdy·Z⁻¹))`, from the product in `tri_out`.
    fn primal_direction(&mut self, corrector: bool) {
        let w = &mut self.w;
        let (g, dx) = if corrector {
            (&w.gcorr, &mut w.dx)
        } else {
            (&w.base_g, &mut w.dx_a)
        };
        dx.copy_from(g);
        dx.axpy(1.0, &w.tri_out);
        dx.symmetrize();
    }

    /// The step of lengths `ap` (primal) and `ad` (dual) along the
    /// corrector direction; records a no-progress exit instead when
    /// neither iterate can move.
    fn take_step(&mut self, ap: f64, ad: f64) {
        let w = &self.w;
        if ap <= 1e-14 && ad <= 1e-14 {
            // No progress possible; return the current iterate.
            self.exit = Some((self.iter, SdpStatus::MaxIterations));
            return;
        }
        self.x.axpy(ap, &w.dx);
        self.x.symmetrize();
        self.z.axpy(ad, &w.dz);
        self.z.symmetrize();
        for (yi, dyi) in self.y.iter_mut().zip(&w.dy) {
            *yi += ad * dyi;
        }
        self.iter += 1;
    }

    /// Post-loop certificate work: final residuals and the exact
    /// dual-slack minimum eigenvalue; an error if that eigensolve fails.
    fn finish(self) -> (T, Result<SdpSolution, SdpError>) {
        let t_c = Instant::now();
        let (iterations, status) = self.exit.expect("finished lane has an exit");
        let p = &self.p;
        let b = p.rhs();
        let pobj = self.c_dense.dot(&self.x);
        let dobj: f64 = b.iter().zip(&self.y).map(|(a, b)| a * b).sum();
        let ax = p.apply_a(&self.x);
        let rp: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        let mut rd = self.c_dense.clone();
        rd.axpy(-1.0, &self.z);
        rd.axpy(-1.0, &p.apply_at(&self.y));
        let exact_dual_slack_min_eig = match dual_slack_min_eig(p, &self.y) {
            Ok(v) => v,
            Err(e) => return (self.tag, Err(e)),
        };
        let mut profile = self.profile;
        profile.cert_ms = ms_since(t_c);
        profile.total_ms += profile.cert_ms;
        // The total is never less than its parts (the overhead share is
        // non-negative; this guards the last ulp of the summation order).
        profile.total_ms = profile.total_ms.max(profile.phase_ms());
        let sol = SdpSolution {
            primal_objective: pobj,
            dual_objective: dobj,
            relative_gap: (pobj - dobj).abs() / (1.0 + pobj.abs() + dobj.abs()),
            primal_infeasibility: norm2(&rp) / (1.0 + self.b_norm),
            dual_infeasibility: rd.frobenius_norm() / (1.0 + self.c_frob),
            exact_dual_slack_min_eig,
            x: self.x,
            y: self.y,
            z: self.z,
            iterations,
            status,
            profile,
        };
        (self.tag, Ok(sol))
    }
}

/// `A(X)` through a batch's shared index followed by a lane's own —
/// the same products in the same order as the problem's
/// [`SdpProblem::apply_a_into`].
fn apply_a_into(shared: &ConstraintIndex, own: &ConstraintIndex, x: &BlockMat, out: &mut Vec<f64>) {
    out.clear();
    out.extend((0..shared.len()).map(|l| shared.dot(l, x)));
    out.extend((0..own.len()).map(|l| own.dot(l, x)));
}

/// One constraint's sparse entries restricted to a single block, with the
/// set of touched row/column indices.
struct BlockGroup {
    /// Block index.
    block: usize,
    /// `(row, col ≥ row, value)` in original entry order.
    entries: Vec<(usize, usize, f64)>,
    /// Sorted, deduplicated row/column indices the entries touch — the only
    /// rows of the intermediate product that can be nonzero.
    rows: Vec<usize>,
}

/// Per-solve index of the constraint matrices: each constraint's sparse
/// entries grouped by block **once**, replacing the historical
/// per-constraint × per-block × per-iteration re-filtering (with a fresh
/// `Vec` each time) inside the Schur-complement sandwich.
struct ConstraintIndex {
    /// `groups[l]` holds constraint `l`'s non-empty block groups, in
    /// ascending block order (matching the old filter loop).
    groups: Vec<Vec<BlockGroup>>,
    /// Program `l` is constraint `l`'s flattened inner product: one
    /// `(block, row-major offset, weight)` term per entry, in original
    /// entry order, with the off-diagonal mirror factor pre-folded into
    /// the weight (`2.0 * v`, the exact product [`SparseSym::dot`] forms).
    /// Replaying it is bit-identical to `SparseSym::dot` at a fraction of
    /// the per-entry overhead — this inner product runs m² times per
    /// interior-point iteration. Its block mask (saturated to "all" past
    /// 64 blocks) lets the Schur loop skip pairs whose supports are
    /// block-disjoint.
    dots: DotPrograms,
}

impl ConstraintIndex {
    fn build(constraints: &[SparseSym], dims: &[usize]) -> Self {
        let n_blocks = dims.len();
        let groups: Vec<Vec<BlockGroup>> = constraints
            .iter()
            .map(|a| {
                let mut per_block: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); n_blocks];
                for &(b, r, c, v) in a.entries() {
                    per_block[b].push((r, c, v));
                }
                per_block
                    .into_iter()
                    .enumerate()
                    .filter(|(_, entries)| !entries.is_empty())
                    .map(|(block, entries)| {
                        let mut rows: Vec<usize> =
                            entries.iter().flat_map(|&(r, c, _)| [r, c]).collect();
                        rows.sort_unstable();
                        rows.dedup();
                        BlockGroup {
                            block,
                            entries,
                            rows,
                        }
                    })
                    .collect()
            })
            .collect();
        let mut dots = DotPrograms::new();
        for a in constraints {
            dots.push(a.entries().iter().map(|&(b, r, c, v)| DotTerm {
                block: b as u32,
                off: (r * dims[b] + c) as u32,
                w: if r == c { v } else { 2.0 * v },
            }));
        }
        ConstraintIndex { groups, dots }
    }

    /// `⟨A_l, X⟩` via the flattened program — bit-identical to
    /// `constraints[l].dot(x)` (same products, same order).
    fn dot(&self, l: usize, x: &BlockMat) -> f64 {
        let mut acc = 0.0;
        for t in self.dots.program(l) {
            acc += t.w * x.block(t.block as usize).as_slice()[t.off as usize];
        }
        acc
    }

    /// Number of indexed constraints.
    fn len(&self) -> usize {
        self.dots.len()
    }

    /// [`ConstraintIndex::dot`] on lane `s` of a lane-interleaved block
    /// matrix.
    fn dot_lane<const K: usize>(&self, l: usize, x: &[LaneMat<K>], s: usize) -> f64 {
        let mut acc = 0.0;
        for t in self.dots.program(l) {
            acc += t.w * x[t.block as usize].as_slice()[t.off as usize][s];
        }
        acc
    }

    /// `sym(X·A_l·Z⁻¹)` for constraint `l` on every lane at once, written
    /// into `out`.
    ///
    /// Bit-exactness argument (the fixture-pinned hot kernel):
    /// * `X` is bit-symmetric (every update is `axpy` + `symmetrize`), so
    ///   the historical strided column walk `xb.at(i, r)` reads the same
    ///   bits as the contiguous row `xb.row(r)[i]`; IEEE multiplication is
    ///   commutative, so `v·x == x·v` bitwise. `V = (X·A)ᵀ` accumulates
    ///   row-wise, entry for entry in the old order.
    /// * The old dense `U·Z⁻¹` product skipped `U[(i,k)] == 0.0` terms;
    ///   rows of `V` outside a group's `rows` are exactly `+0.0`, so
    ///   iterating only the touched rows (ascending, like the old `k`
    ///   loop) adds the same terms in the same order to every output
    ///   element (see [`sym_sandwich_block`] for the per-lane skip).
    ///
    /// `out` blocks not touched by this constraint but dirtied by a
    /// previous call are re-zeroed via `dirty`, so `out` always equals the
    /// full sandwich.
    fn sandwich_lanes<const K: usize>(
        &self,
        l: usize,
        x: &[LaneMat<K>],
        zinv: &[LaneMat<K>],
        vwork: &mut [LaneMat<K>],
        out: &mut [LaneMat<K>],
        dirty: &mut [bool],
    ) {
        let groups = &self.groups[l];
        for (bl, d) in dirty.iter_mut().enumerate() {
            if *d && !groups.iter().any(|g| g.block == bl) {
                out[bl].as_mut_slice().fill([0.0; K]);
                *d = false;
            }
        }
        for g in groups {
            let bl = g.block;
            dirty[bl] = true;
            sym_sandwich_block(
                &x[bl],
                &g.entries,
                &g.rows,
                &zinv[bl],
                &mut vwork[bl],
                &mut out[bl],
            );
        }
    }
}

/// `sym(P·R·Z⁻¹)` blockwise on every lane, with `tmp` for the
/// intermediate product — per lane the operations of
/// [`RMat::mul_mat_into`] twice and [`RMat::symmetrize_in_place`].
fn sym_triple_lanes<const K: usize>(
    p: &[LaneMat<K>],
    r: &[LaneMat<K>],
    zinv: &[LaneMat<K>],
    tmp: &mut [LaneMat<K>],
    out: &mut [LaneMat<K>],
) {
    let operands = p.iter().zip(r).zip(zinv);
    for (((p, r), zinv), (tmp, out)) in operands.zip(tmp.iter_mut().zip(out)) {
        p.mul_mat_into(r, tmp);
        tmp.mul_mat_into(zinv, out);
        out.symmetrize_in_place();
    }
}

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use gleipnir_linalg::sym_eigvals;

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    #[test]
    fn doc_example_off_diagonal() {
        // min x₁₁ + x₂₂ s.t. x₁₂ = 1, X ⪰ 0  → 2.
        let mut c = SparseSym::new();
        c.push(0, 0, 0, 1.0).push(0, 1, 1, 1.0);
        let mut a = SparseSym::new();
        a.push(0, 0, 1, 0.5);
        let p = SdpProblem::new(vec![2], c, vec![a], vec![1.0]);
        let sol = p.solve(&opts()).unwrap();
        assert_eq!(sol.status, SdpStatus::Optimal);
        assert!(
            (sol.primal_objective - 2.0).abs() < 1e-6,
            "{}",
            sol.primal_objective
        );
        assert!((sol.dual_objective - 2.0).abs() < 1e-6);
    }

    /// Builds and solves the "max ⟨C, X⟩ s.t. tr X = 1, X ⪰ 0" problem,
    /// whose optimum is the largest eigenvalue of `C`.
    fn largest_eigenvalue_sdp(c: &RMat, opts: &SolverOptions) -> Result<f64, SdpError> {
        let n = c.rows();
        let mut cs = SparseSym::new();
        for i in 0..n {
            for j in i..n {
                // minimize ⟨−C, X⟩
                let v = -0.5 * (c.at(i, j) + c.at(j, i));
                if v != 0.0 {
                    cs.push(0, i, j, v);
                }
            }
        }
        let mut tr = SparseSym::new();
        for i in 0..n {
            tr.push(0, i, i, 1.0);
        }
        let p = SdpProblem::new(vec![n], cs, vec![tr], vec![1.0]);
        let sol = p.solve(opts)?;
        Ok(-sol.primal_objective)
    }

    #[test]
    fn largest_eigenvalue_matches_eigensolver() {
        let c = RMat::from_rows(&[
            vec![2.0, -1.0, 0.5],
            vec![-1.0, 1.0, 0.25],
            vec![0.5, 0.25, -3.0],
        ]);
        let lam_sdp = largest_eigenvalue_sdp(&c, &opts()).unwrap();
        let lam_eig = *sym_eigvals(&c).unwrap().last().unwrap();
        assert!((lam_sdp - lam_eig).abs() < 1e-6, "{lam_sdp} vs {lam_eig}");
    }

    #[test]
    fn invert_z_inverts_every_factored_lane() {
        let dims = [4, 1];
        let spd = |n: usize, seed: f64| {
            let b = RMat::from_fn(n, n, |i, j| ((i * n + j) as f64 * seed).sin());
            let mut a = b.transpose().mul_mat(&b);
            for i in 0..n {
                a[(i, i)] += n as f64;
            }
            a
        };
        let mut w = Wide::<4>::new(&dims, 1);
        let mut z: Vec<Vec<RMat>> = (0..4)
            .map(|s| dims.iter().map(|&n| spd(n, 0.9 + 0.3 * s as f64)).collect())
            .collect();
        // Lane 2's second block is indefinite.
        z[2][1].set(0, 0, -1.0);
        for (s, lane) in z.iter().enumerate() {
            for (b, m) in lane.iter().enumerate() {
                w.z[b].set_lane(s, m);
            }
        }
        assert_eq!(w.invert_z(), [true, true, false, true]);
        for s in [0, 1, 3] {
            for (b, &n) in dims.iter().enumerate() {
                let mut inv = RMat::zeros(n, n);
                w.zinv[b].get_lane(s, &mut inv);
                let prod = z[s][b].mul_mat(&inv);
                assert!(
                    prod.approx_eq(&RMat::identity(n), 1e-10),
                    "lane {s} block {b}"
                );
            }
        }
    }

    #[test]
    fn linear_program_as_diagonal_blocks() {
        // min x₁ + 2x₂ s.t. x₁ + x₂ = 1, x ≥ 0 → 1 at (1, 0).
        let mut c = SparseSym::new();
        c.push(0, 0, 0, 1.0).push(1, 0, 0, 2.0);
        let mut a = SparseSym::new();
        a.push(0, 0, 0, 1.0).push(1, 0, 0, 1.0);
        let p = SdpProblem::new(vec![1, 1], c, vec![a], vec![1.0]);
        let sol = p.solve(&opts()).unwrap();
        assert!((sol.primal_objective - 1.0).abs() < 1e-6);
        assert!((sol.x.block(0).at(0, 0) - 1.0).abs() < 1e-5);
        assert!(sol.x.block(1).at(0, 0).abs() < 1e-5);
    }

    #[test]
    fn multi_block_problem() {
        // Two independent eigenvalue problems share one trace budget:
        // min ⟨−C₁,X₁⟩ + ⟨−C₂,X₂⟩ s.t. tr X₁ + tr X₂ = 1 →
        // −max(λmax(C₁), λmax(C₂)).
        let mut c = SparseSym::new();
        c.push(0, 0, 0, -1.0); // C1 = diag(1, …) λmax 1
        c.push(1, 0, 0, -3.0); // C2 has λmax 3
        c.push(1, 1, 1, -0.5);
        let mut tr = SparseSym::new();
        for b in 0..2 {
            for i in 0..2 {
                tr.push(b, i, i, 1.0);
            }
        }
        let p = SdpProblem::new(vec![2, 2], c, vec![tr], vec![1.0]);
        let sol = p.solve(&opts()).unwrap();
        assert!((sol.primal_objective + 3.0).abs() < 1e-6);
    }

    /// A small strictly feasible SDP.
    fn small_problem() -> SdpProblem {
        let mut c = SparseSym::new();
        c.push(0, 0, 0, 1.0).push(0, 1, 1, -1.0).push(0, 0, 2, 0.3);
        let mut a1 = SparseSym::new();
        a1.push(0, 0, 0, 1.0).push(0, 1, 1, 1.0).push(0, 2, 2, 1.0);
        let mut a2 = SparseSym::new();
        a2.push(0, 0, 1, 1.0);
        SdpProblem::new(vec![3], c, vec![a1, a2], vec![2.0, 0.25])
    }

    #[test]
    fn solution_is_feasible_and_gap_closed() {
        let sol = small_problem().solve(&opts()).unwrap();
        assert_eq!(sol.status, SdpStatus::Optimal);
        assert!(sol.primal_infeasibility < 1e-7);
        assert!(sol.dual_infeasibility < 1e-7);
        assert!(sol.relative_gap < 1e-7);
        // X ⪰ 0.
        assert!(sol.x.min_eigenvalue().unwrap() > -1e-9);
        // Weak duality.
        assert!(sol.dual_objective <= sol.primal_objective + 1e-6);
    }

    #[test]
    fn certified_bound_is_sound() {
        // For the eigenvalue SDP the certificate must lower-bound the
        // optimum regardless of solver slop.
        let c = RMat::from_rows(&[vec![1.0, 2.0], vec![2.0, -1.0]]);
        let n = 2;
        let mut cs = SparseSym::new();
        for i in 0..n {
            for j in i..n {
                let v = -c.at(i, j);
                if v != 0.0 {
                    cs.push(0, i, j, v);
                }
            }
        }
        let mut tr = SparseSym::new();
        tr.push(0, 0, 0, 1.0).push(0, 1, 1, 1.0);
        let p = SdpProblem::new(vec![n], cs, vec![tr], vec![1.0]);
        let sol = p.solve(&opts()).unwrap();
        // Feasible set has tr(X) = 1.
        let lower = sol.certified_dual_bound(1.0);
        let lam_max = *sym_eigvals(&c).unwrap().last().unwrap();
        // primal min = −λmax; the certificate must not exceed it.
        assert!(lower <= -lam_max + 1e-9, "{lower} vs {}", -lam_max);
        assert!((lower + lam_max).abs() < 1e-5, "certificate far off");
    }

    #[test]
    fn a_failed_dual_slack_eigensolve_never_certifies() {
        // minimize ⟨diag(−2, −1, 0), X⟩ s.t. tr X = 1, X₁₂ = 0 and
        // X₁₂ + X₂₂ − X₁₁ = 0: the optimum is −2, at X = e₀e₀ᵀ.
        let mut c = SparseSym::new();
        c.push(0, 0, 0, -2.0).push(0, 1, 1, -1.0);
        let mut tr = SparseSym::new();
        tr.push(0, 0, 0, 1.0).push(0, 1, 1, 1.0).push(0, 2, 2, 1.0);
        let mut a2 = SparseSym::new();
        a2.push(0, 1, 2, 0.5);
        let mut a3 = SparseSym::new();
        a3.push(0, 1, 2, 0.5).push(0, 2, 2, 1.0).push(0, 1, 1, -1.0);
        let p = SdpProblem::new(vec![3], c, vec![tr, a2, a3], vec![1.0, 0.0, 0.0]);
        assert_eq!(p.certified_dual_bound_for(&[-2.0, 0.0, 0.0], 1.0), Ok(-2.0));
        // Finite multipliers whose dual slack overflows to −∞ at (1, 2):
        // its eigensolve fails, and that must not read as λ_min = 0 (a
        // "bound" of bᵀy = −0.5 above the optimum).
        let r = p.certified_dual_bound_for(&[-0.5, 1.7e308, 1.7e308], 1.0);
        assert!(matches!(r, Err(SdpError::Numerical(_))), "{r:?}");
    }

    #[test]
    fn near_degenerate_constraint() {
        // Force x₁₁ ≈ 0 on the boundary: min x₂₂ s.t. x₁₁ = 0? Slater fails
        // for x₁₁ = 0 exactly; use a tiny positive value as the caller
        // (gleipnir-core) does for δ = 0.
        let mut c = SparseSym::new();
        c.push(0, 1, 1, 1.0);
        let mut a1 = SparseSym::new();
        a1.push(0, 0, 0, 1.0);
        let mut a2 = SparseSym::new();
        a2.push(0, 0, 0, 1.0).push(0, 1, 1, 1.0);
        let p = SdpProblem::new(vec![2], c, vec![a1, a2], vec![1e-6, 1.0]);
        let sol = p.solve(&opts()).unwrap();
        assert!((sol.primal_objective - (1.0 - 1e-6)).abs() < 1e-5);
    }

    #[test]
    fn random_feasible_problems_close_gap() {
        let mut seed = 42u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        };
        for trial in 0..5 {
            let n = 4;
            // Random X0 ≻ 0 defines a feasible b.
            let g = RMat::from_fn(n, n, |_, _| rnd());
            let mut x0 = g.transpose().mul_mat(&g);
            for i in 0..n {
                x0[(i, i)] += 1.0;
            }
            let mut constraints = Vec::new();
            let mut b = Vec::new();
            // Random sparse constraints + trace pinning for boundedness.
            for k in 0..3 {
                let mut a = SparseSym::new();
                a.push(0, k % n, (k + 1) % n, rnd() + 0.5);
                a.push(0, k % n, k % n, rnd());
                b.push(a.dot(&{
                    let mut bm = BlockMat::zeros(&[n]);
                    *bm.block_mut(0) = x0.clone();
                    bm
                }));
                constraints.push(a);
            }
            let mut tr = SparseSym::new();
            for i in 0..n {
                tr.push(0, i, i, 1.0);
            }
            b.push(x0.trace());
            constraints.push(tr);
            let mut c = SparseSym::new();
            for i in 0..n {
                for j in i..n {
                    let v = rnd();
                    if v != 0.0 {
                        c.push(0, i, j, v);
                    }
                }
            }
            let p = SdpProblem::new(vec![n], c, constraints, b);
            let sol = p.solve(&opts()).unwrap();
            assert!(
                sol.relative_gap < 1e-6 && sol.primal_infeasibility < 1e-6,
                "trial {trial}: gap {} pinf {}",
                sol.relative_gap,
                sol.primal_infeasibility
            );
        }
    }

    /// Scalar reimplementation of the historical (pre-index) sandwich:
    /// per block, accumulate `U = X·A` entry-by-entry in original entry
    /// order (strided column writes, as the old kernel did), then the
    /// dense `U·Z⁻¹` product over **all** `k` with the old `U[(i,k)] == 0`
    /// skip, then symmetrize. `ConstraintIndex::sandwich_lanes` must match
    /// it bitwise on every lane.
    fn reference_sandwich(x: &BlockMat, a: &SparseSym, zinv: &BlockMat) -> BlockMat {
        let dims = x.dims().to_vec();
        let mut out = BlockMat::zeros(&dims);
        for (bl, &dim) in dims.iter().enumerate() {
            let entries: Vec<(usize, usize, f64)> = a
                .entries()
                .iter()
                .filter(|&&(b, _, _, _)| b == bl)
                .map(|&(_, r, c, v)| (r, c, v))
                .collect();
            if entries.is_empty() {
                continue;
            }
            let xb = x.block(bl);
            let zb = zinv.block(bl);
            let mut u = RMat::zeros(dim, dim);
            for &(r, c, v) in &entries {
                for i in 0..dim {
                    let w = u.at(i, c) + v * xb.at(i, r);
                    u.set(i, c, w);
                }
                if r != c {
                    for i in 0..dim {
                        let w = u.at(i, r) + v * xb.at(i, c);
                        u.set(i, r, w);
                    }
                }
            }
            let mut t = RMat::zeros(dim, dim);
            for i in 0..dim {
                for k in 0..dim {
                    let w = u.at(i, k);
                    if w == 0.0 {
                        continue;
                    }
                    for j in 0..dim {
                        let s = t.at(i, j) + w * zb.at(k, j);
                        t.set(i, j, s);
                    }
                }
            }
            *out.block_mut(bl) = t.symmetrize();
        }
        out
    }

    #[test]
    fn indexed_sandwich_matches_historical_kernel_bitwise() {
        let mut seed = 7u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        };
        let dims = [3usize, 2, 1];
        // X must be bit-symmetric — as it is in the solver, where every X
        // update ends in `symmetrize` — for the row/column read swap to be
        // a bit-level no-op. Each of the four lanes gets its own X and Z⁻¹.
        let lanes: Vec<(BlockMat, BlockMat)> = (0..LANES)
            .map(|_| {
                let mut x = BlockMat::zeros(&dims);
                let mut zinv = BlockMat::zeros(&dims);
                for (bl, &dim) in dims.iter().enumerate() {
                    *x.block_mut(bl) = RMat::from_fn(dim, dim, |_, _| rnd()).symmetrize();
                    *zinv.block_mut(bl) = RMat::from_fn(dim, dim, |_, _| rnd()).symmetrize();
                }
                (x, zinv)
            })
            .collect();
        // Constraints with deliberately unsorted entries, diagonal and
        // off-diagonal, some blocks untouched (exercises the dirty-block
        // re-zeroing between consecutive sandwiches).
        let mut a1 = SparseSym::new();
        a1.push(0, 1, 2, 0.7).push(0, 0, 0, -1.3).push(2, 0, 0, 0.4);
        let mut a2 = SparseSym::new();
        a2.push(1, 0, 1, 2.0).push(1, 1, 1, -0.9);
        let mut a3 = SparseSym::new();
        a3.push(0, 2, 2, 1.1).push(1, 0, 0, 0.6).push(2, 0, 0, -2.2);
        let constraints = [a1, a2, a3];

        let index = ConstraintIndex::build(&constraints, &dims);
        let pack = |lane_of: &dyn Fn(&(BlockMat, BlockMat)) -> &BlockMat| -> Vec<LaneMat<LANES>> {
            (0..dims.len())
                .map(|bl| {
                    let mut m = LaneMat::zeros(dims[bl], dims[bl]);
                    for (s, lane) in lanes.iter().enumerate() {
                        m.set_lane(s, lane_of(lane).block(bl));
                    }
                    m
                })
                .collect()
        };
        let x = pack(&|l| &l.0);
        let zinv = pack(&|l| &l.1);
        let blocks =
            || -> Vec<LaneMat<LANES>> { dims.iter().map(|&d| LaneMat::zeros(d, d)).collect() };
        let (mut vwork, mut swork) = (blocks(), blocks());
        let mut dirty = vec![false; dims.len()];
        for (l, a) in constraints.iter().enumerate() {
            index.sandwich_lanes(l, &x, &zinv, &mut vwork, &mut swork, &mut dirty);
            for (s, (xs, zs)) in lanes.iter().enumerate() {
                let want = reference_sandwich(xs, a, zs);
                for (bl, &dim) in dims.iter().enumerate() {
                    let mut got = RMat::zeros(dim, dim);
                    swork[bl].get_lane(s, &mut got);
                    let exp = want.block(bl);
                    for (g, w) in got.as_slice().iter().zip(exp.as_slice()) {
                        assert!(
                            g.to_bits() == w.to_bits(),
                            "constraint {l} lane {s} block {bl}: {g:e} vs {w:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn solver_profile_phases_sum_to_total() {
        let sol = small_problem().solve(&opts()).unwrap();
        let p = sol.profile;
        assert!(sol.iterations > 0, "toy problem should iterate");
        assert!(p.total_ms > 0.0, "total wall must be measured");
        assert!(p.phase_ms() > 0.0, "phase walls must be measured");
        // The phases are disjoint sub-spans of the solve, so their sum is
        // bounded by the total (the slack is timer overhead between spans).
        assert!(
            p.phase_ms() <= p.total_ms,
            "phases {} ms exceed total {} ms",
            p.phase_ms(),
            p.total_ms
        );
        // Most of the solve must be accounted for, not lost between timers.
        assert!(
            p.phase_ms() >= 0.5 * p.total_ms,
            "phases {} ms cover too little of total {} ms",
            p.phase_ms(),
            p.total_ms
        );
        for (name, v) in [
            ("setup", p.setup_ms),
            ("residual", p.residual_ms),
            ("schur", p.schur_ms),
            ("factor", p.factor_ms),
            ("direction", p.direction_ms),
            ("step", p.step_ms),
            ("cert", p.cert_ms),
        ] {
            assert!(v >= 0.0, "{name} negative: {v}");
        }
        assert_eq!(p.loop_allocs, 0, "well-conditioned solve must not retry");
    }

    #[test]
    fn solver_profile_add_accumulates_every_field() {
        let mut a = SolverProfile {
            setup_ms: 1.0,
            residual_ms: 2.0,
            schur_ms: 3.0,
            factor_ms: 4.0,
            direction_ms: 5.0,
            step_ms: 6.0,
            cert_ms: 7.0,
            total_ms: 28.0,
            loop_allocs: 2,
        };
        let b = a;
        a.add(&b);
        assert_eq!(a.schur_ms, 6.0);
        assert_eq!(a.total_ms, 56.0);
        assert_eq!(a.loop_allocs, 4);
        assert_eq!(a.phase_ms(), 2.0 * b.phase_ms());
    }
}
