//! Per-thread lock-free span rings.
//!
//! Each thread that records spans owns one fixed-size [`SpanRing`]: an
//! array of seqlock slots written only by the owning thread and snapshotted
//! by whoever collects a finished trace. Recording is a handful of relaxed
//! atomic stores — no locks, no allocation — so it is safe on the solver
//! worker hot path. Collection walks every registered ring's compact
//! index of trace ids and reads only the slots whose id matches; a torn
//! read (writer lapped the reader mid-slot) is detected by the slot's
//! sequence stamp and skipped, which can only ever lose a span from a
//! *trace*, never perturb an analysis. A ring holds the last
//! [`RING_SLOTS`] spans its thread recorded; a trace whose spans on one
//! thread outnumber that loses its oldest ones.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What a span measures. The `detail`/`value`/`value2` fields of a
/// [`SpanRecord`] are interpreted per name (see [`detail`]):
///
/// * `Request` — one HTTP request end to end; `detail` = endpoint code.
/// * `HttpParse` — the reactor parse that produced the request.
/// * `QueueWait` — job queue residence (reactor push → worker pop).
/// * `Handler` — the worker's route/handler call.
/// * `RefineWait` — a `/refine/<token>?wait_ms=` long poll parked on its
///   refinement.
/// * `Mps` / `Plan` / `Solve` / `Assemble` — pipeline stages.
/// * `Obligation` — one proof-obligation unit on a pool worker; `detail`
///   = outcome code, `value` = pool queue-wait ns, `value2` = IP
///   iterations.
/// * `Phase*` — the seven `SolverProfile` phases, re-emitted as children
///   of their obligation span after the solve returns (the solver itself
///   records nothing).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum SpanName {
    /// One HTTP request, reactor parse to response framing.
    Request = 1,
    /// HTTP request parsing in the reactor.
    HttpParse = 2,
    /// Job-queue wait between reactor and worker.
    QueueWait = 3,
    /// The worker-side handler (routing + endpoint logic).
    Handler = 4,
    /// MPS tensor-network approximation of the program state.
    Mps = 5,
    /// The plan stage (obligation skeleton construction).
    Plan = 6,
    /// The solve stage (parallel SDP certification).
    Solve = 7,
    /// The assemble stage (derivation + report construction).
    Assemble = 8,
    /// One proof-obligation unit executed on a pool worker.
    Obligation = 9,
    /// Interior-point phase: problem setup.
    PhaseSetup = 10,
    /// Interior-point phase: residual evaluation.
    PhaseResidual = 11,
    /// Interior-point phase: Schur complement formation.
    PhaseSchur = 12,
    /// Interior-point phase: factorization.
    PhaseFactor = 13,
    /// Interior-point phase: search-direction solve.
    PhaseDirection = 14,
    /// Interior-point phase: step-length line search.
    PhaseStep = 15,
    /// Interior-point phase: soundness certificate extraction.
    PhaseCert = 16,
    /// A refinement long poll waiting for its result.
    RefineWait = 17,
}

impl SpanName {
    /// The stable wire spelling used in trace JSON and CLI trees.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Request => "request",
            SpanName::HttpParse => "http_parse",
            SpanName::QueueWait => "queue_wait",
            SpanName::Handler => "handler",
            SpanName::Mps => "mps",
            SpanName::Plan => "plan",
            SpanName::Solve => "solve",
            SpanName::Assemble => "assemble",
            SpanName::Obligation => "obligation",
            SpanName::PhaseSetup => "phase_setup",
            SpanName::PhaseResidual => "phase_residual",
            SpanName::PhaseSchur => "phase_schur",
            SpanName::PhaseFactor => "phase_factor",
            SpanName::PhaseDirection => "phase_direction",
            SpanName::PhaseStep => "phase_step",
            SpanName::PhaseCert => "phase_cert",
            SpanName::RefineWait => "refine_wait",
        }
    }

    /// The span name for `SolverProfile` phase `index` (0..7, in the
    /// solver's phase order: setup, residual, schur, factor, direction,
    /// step, cert).
    pub fn phase(index: usize) -> SpanName {
        match index {
            0 => SpanName::PhaseSetup,
            1 => SpanName::PhaseResidual,
            2 => SpanName::PhaseSchur,
            3 => SpanName::PhaseFactor,
            4 => SpanName::PhaseDirection,
            5 => SpanName::PhaseStep,
            _ => SpanName::PhaseCert,
        }
    }

    fn from_u16(v: u16) -> Option<SpanName> {
        Some(match v {
            1 => SpanName::Request,
            2 => SpanName::HttpParse,
            3 => SpanName::QueueWait,
            4 => SpanName::Handler,
            5 => SpanName::Mps,
            6 => SpanName::Plan,
            7 => SpanName::Solve,
            8 => SpanName::Assemble,
            9 => SpanName::Obligation,
            10 => SpanName::PhaseSetup,
            11 => SpanName::PhaseResidual,
            12 => SpanName::PhaseSchur,
            13 => SpanName::PhaseFactor,
            14 => SpanName::PhaseDirection,
            15 => SpanName::PhaseStep,
            16 => SpanName::PhaseCert,
            17 => SpanName::RefineWait,
            _ => return None,
        })
    }
}

/// `detail` codes, interpreted per [`SpanName`].
pub mod detail {
    /// `Request` span: `POST /analyze`.
    pub const ENDPOINT_ANALYZE: u32 = 1;
    /// `Request` span: `POST /batch`.
    pub const ENDPOINT_BATCH: u32 = 2;
    /// `Request` span: `POST /diff`.
    pub const ENDPOINT_DIFF: u32 = 3;
    /// `Request` span: `GET /healthz`.
    pub const ENDPOINT_HEALTHZ: u32 = 4;
    /// `Request` span: `GET /metrics`.
    pub const ENDPOINT_METRICS: u32 = 5;
    /// `Request` span: `GET /certs/since/<seq>`.
    pub const ENDPOINT_CERTS: u32 = 6;
    /// `Request` span: `GET /trace/<id>`.
    pub const ENDPOINT_TRACE: u32 = 7;
    /// `Request` span: `GET /refine/<token>`.
    pub const ENDPOINT_REFINE: u32 = 8;
    /// `Request` span: anything else (404/405 surface).
    pub const ENDPOINT_OTHER: u32 = 0;

    /// `Obligation` span: answered by the closed-form Tier-0 bound.
    pub const OBLIGATION_CLOSED_FORM: u32 = 1;
    /// `Obligation` span: answered analytically (no SDP key).
    pub const OBLIGATION_ANALYTIC: u32 = 2;
    /// `Obligation` span: SDP cache hit.
    pub const OBLIGATION_CACHE_HIT: u32 = 3;
    /// `Obligation` span: joined another request's in-flight solve.
    pub const OBLIGATION_JOINED: u32 = 4;
    /// `Obligation` span: lead solve, cold start.
    pub const OBLIGATION_LEAD_COLD: u32 = 6;
    /// `Obligation` span: exact (unconstrained) diamond-norm unit.
    pub const OBLIGATION_EXACT: u32 = 8;

    /// The stable wire spelling of a detail code under a given name.
    pub fn as_str(name: super::SpanName, detail: u32) -> Option<&'static str> {
        use super::SpanName;
        match name {
            SpanName::Request => Some(match detail {
                ENDPOINT_ANALYZE => "analyze",
                ENDPOINT_BATCH => "batch",
                ENDPOINT_DIFF => "diff",
                ENDPOINT_HEALTHZ => "healthz",
                ENDPOINT_METRICS => "metrics",
                ENDPOINT_CERTS => "certs",
                ENDPOINT_TRACE => "trace",
                ENDPOINT_REFINE => "refine",
                _ => "other",
            }),
            SpanName::Obligation => Some(match detail {
                OBLIGATION_CLOSED_FORM => "closed_form",
                OBLIGATION_ANALYTIC => "analytic",
                OBLIGATION_CACHE_HIT => "cache_hit",
                OBLIGATION_JOINED => "inflight_join",
                OBLIGATION_LEAD_COLD => "lead_cold",
                OBLIGATION_EXACT => "exact",
                _ => "unknown",
            }),
            _ => None,
        }
    }
}

/// One completed span, decoded.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (process-unique, from [`crate::next_span_id`]).
    pub id: u32,
    /// The parent span's id (0 = a trace root).
    pub parent: u32,
    /// What the span measures.
    pub name: SpanName,
    /// Name-specific detail code (see [`detail`]).
    pub detail: u32,
    /// Name-specific value (e.g. pool queue-wait ns for obligations).
    pub value: u64,
    /// Name-specific secondary value (e.g. IP iterations).
    pub value2: u64,
    /// Start, ns since the telemetry epoch ([`crate::now_ns`]).
    pub start_ns: u64,
    /// End, ns since the telemetry epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span wall time in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

const WORDS: usize = 7;
/// Per-thread ring capacity (slots). Must be a power of two. A one-thread
/// analysis of the 288-gate Ising chain records 1 597 spans on one
/// thread, so 4096 slots keep more than twice that. A slot is 64 bytes
/// and its index entry 8, so a recording thread holds 288 KiB.
const RING_SLOTS: usize = 4096;

struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A single-writer, multi-reader span ring (one per recording thread).
pub(crate) struct SpanRing {
    slots: Box<[Slot]>,
    /// `ids[k]` is the trace id slot `k` holds (or is being written with):
    /// a dense index, so collection scans eight ids per cache line instead
    /// of one slot, and reads only the slots that match. It is a hint and
    /// publishes nothing (`Relaxed`): the slot's own seqlock stamp orders
    /// the record, and its own id decides.
    ids: Box<[AtomicU64]>,
    head: AtomicU64,
}

impl SpanRing {
    fn new() -> SpanRing {
        SpanRing {
            slots: (0..RING_SLOTS).map(|_| Slot::new()).collect(),
            ids: (0..RING_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn encode(rec: &SpanRecord) -> [u64; WORDS] {
        [
            rec.trace_id,
            (u64::from(rec.id) << 32) | u64::from(rec.parent),
            (u64::from(rec.name as u16) << 32) | u64::from(rec.detail),
            rec.value,
            rec.value2,
            rec.start_ns,
            rec.end_ns,
        ]
    }

    fn decode(words: &[u64; WORDS]) -> Option<SpanRecord> {
        let name = SpanName::from_u16((words[2] >> 32) as u16)?;
        Some(SpanRecord {
            trace_id: words[0],
            id: (words[1] >> 32) as u32,
            parent: words[1] as u32,
            name,
            detail: words[2] as u32,
            value: words[3],
            value2: words[4],
            start_ns: words[5],
            end_ns: words[6],
        })
    }

    /// Writes one record. Only the owning thread calls this (the ring is
    /// reached through a thread-local), which makes the slot a
    /// single-writer seqlock: odd stamp while writing, even when stable.
    fn push(&self, rec: &SpanRecord) {
        let head = self.head.load(Ordering::Relaxed);
        let k = (head as usize) & (RING_SLOTS - 1);
        let slot = &self.slots[k];
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(Self::encode(rec)) {
            w.store(v, Ordering::Relaxed);
        }
        self.ids[k].store(rec.trace_id, Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(2), Ordering::Release);
        self.head.store(head.wrapping_add(1), Ordering::Relaxed);
    }

    /// Snapshots every stable slot whose trace id matches, skipping slots
    /// the writer is mid-update on (odd stamp, or stamp moved during the
    /// read). The id index only preselects: the slot's own id decides.
    fn collect_into(&self, trace_id: u64, out: &mut Vec<SpanRecord>) {
        for (slot, id) in self.slots.iter().zip(self.ids.iter()) {
            if id.load(Ordering::Relaxed) != trace_id {
                continue;
            }
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue;
            }
            let mut words = [0u64; WORDS];
            for (dst, src) in words.iter_mut().zip(slot.words.iter()) {
                *dst = src.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue;
            }
            if words[0] != trace_id {
                continue;
            }
            if let Some(rec) = Self::decode(&words) {
                out.push(rec);
            }
        }
    }
}

fn registry() -> &'static Mutex<Vec<Arc<SpanRing>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<SpanRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: std::cell::OnceCell<Arc<SpanRing>> = const { std::cell::OnceCell::new() };
}

/// Records a span into this thread's ring (registering the ring on first
/// use; that one-time registration is the only lock this path can take).
pub(crate) fn record(rec: &SpanRecord) {
    LOCAL.with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(SpanRing::new());
            registry()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&ring));
            ring
        });
        ring.push(rec);
    });
}

/// Collects every span recorded for `trace_id` across all thread rings,
/// sorted by start time (parents before children on ties).
pub(crate) fn collect(trace_id: u64) -> Vec<SpanRecord> {
    let rings: Vec<Arc<SpanRing>> = registry().lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut out = Vec::new();
    for ring in &rings {
        ring.collect_into(trace_id, &mut out);
    }
    out.sort_by_key(|r| (r.start_ns, r.id));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace_id: u64, id: u32, start_ns: u64) -> SpanRecord {
        SpanRecord {
            trace_id,
            id,
            parent: 0,
            name: SpanName::Plan,
            detail: 0,
            value: 0,
            value2: 0,
            start_ns,
            end_ns: start_ns + 10,
        }
    }

    #[test]
    fn ring_keeps_only_matching_traces() {
        let ring = SpanRing::new();
        ring.push(&rec(1, 10, 100));
        ring.push(&rec(2, 11, 200));
        ring.push(&rec(1, 12, 300));
        let mut out = Vec::new();
        ring.collect_into(1, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.trace_id == 1));
    }

    #[test]
    fn ring_wraps_and_overwrites_oldest() {
        let ring = SpanRing::new();
        for i in 0..(RING_SLOTS as u32 + 8) {
            ring.push(&rec(9, i, u64::from(i)));
        }
        let mut out = Vec::new();
        ring.collect_into(9, &mut out);
        assert_eq!(out.len(), RING_SLOTS);
        // The first 8 records were overwritten by the wrap.
        assert!(out.iter().all(|r| r.id >= 8));
    }

    #[test]
    fn encode_decode_round_trips() {
        let r = SpanRecord {
            trace_id: 0xDEAD_BEEF_0123,
            id: 42,
            parent: 7,
            name: SpanName::Obligation,
            detail: detail::OBLIGATION_LEAD_COLD,
            value: 12345,
            value2: 678,
            start_ns: 1_000_000,
            end_ns: 2_500_000,
        };
        assert_eq!(SpanRing::decode(&SpanRing::encode(&r)), Some(r));
        assert!((r.wall_ms() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn collect_is_sorted_by_start() {
        let t = crate::next_trace_id();
        record(&rec(t, 2, 500));
        record(&rec(t, 1, 100));
        let got = collect(t);
        assert_eq!(got.len(), 2);
        assert!(got[0].start_ns <= got[1].start_ns);
    }
}
