//! Deterministic test support for the scheduler and anytime paths.
//!
//! The interleaving tests in `tests/anytime_soundness.rs` must pin
//! concurrency orderings *exactly* — "token polled mid-solve" is only a
//! meaningful test if the poll provably happens while the refinement is
//! between computing its result and publishing it. Sleeps can't prove
//! that; a rendezvous can. [`ScriptedGate`] is that rendezvous: one side
//! arrives and blocks until released, the other waits for the arrival,
//! performs its observations, then releases. No timing assumptions, no
//! flakes.

use std::sync::{Condvar, Mutex, PoisonError};

/// A two-phase rendezvous between a test thread and a scheduled job.
///
/// Protocol: the job calls [`arrive`](ScriptedGate::arrive) then
/// [`wait_released`](ScriptedGate::wait_released); the test calls
/// [`wait_for_arrival`](ScriptedGate::wait_for_arrival), observes
/// whatever state the pause exposes, then
/// [`release`](ScriptedGate::release)s the job. Both waits are
/// unbounded — deadlock (surfaced by the test timeout) is the failure
/// mode, never a silently-passed race.
#[derive(Debug, Default)]
pub struct ScriptedGate {
    state: Mutex<GateState>,
    cond: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    arrived: bool,
    released: bool,
}

impl ScriptedGate {
    /// A fresh gate (not arrived, not released).
    pub fn new() -> ScriptedGate {
        ScriptedGate::default()
    }

    /// Job side: signals arrival at the gate.
    pub fn arrive(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.arrived = true;
        self.cond.notify_all();
    }

    /// Test side: blocks until the job has arrived at the gate.
    pub fn wait_for_arrival(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while !state.arrived {
            state = self
                .cond
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Test side: releases the job to continue past the gate.
    pub fn release(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.released = true;
        self.cond.notify_all();
    }

    /// Job side: blocks until the test has released the gate.
    pub fn wait_released(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while !state.released {
            state = self
                .cond
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Runs `f` under a fresh trace and returns its result plus every span
/// the trace collected.
#[cfg(test)]
pub(crate) fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<gleipnir_telemetry::SpanRecord>) {
    use gleipnir_telemetry as telemetry;
    let trace_id = telemetry::next_trace_id();
    let ctx = telemetry::TraceCtx {
        trace_id,
        parent: telemetry::next_span_id(),
    };
    let out = telemetry::with_ctx(ctx, f);
    telemetry::global().finish_trace(trace_id);
    let trace = telemetry::global().trace(trace_id).expect("trace stored");
    (out, trace.spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn gate_rendezvous_orders_both_sides() {
        let gate = Arc::new(ScriptedGate::new());
        let job_gate = Arc::clone(&gate);
        let job = std::thread::spawn(move || {
            job_gate.arrive();
            job_gate.wait_released();
            42
        });
        gate.wait_for_arrival();
        // The job is now provably parked between arrive and release.
        gate.release();
        assert_eq!(job.join().expect("job thread"), 42);
    }
}
