//! The event-driven transport: one non-blocking reactor thread owning
//! every connection, feeding parsed requests to the worker pool.
//!
//! ## Dataflow
//!
//! ```text
//!            poll(2) readiness
//!                  │
//!   accept ──► Conn {read buf ── parse ──► JobQueue ──► workers}
//!                  ▲                                      │
//!                  └── write buf ◄── Completion ◄── Waker ┘
//! ```
//!
//! The reactor never blocks on a socket: reads, writes, and accepts are
//! all non-blocking, and the loop sleeps in `poll(2)` until something is
//! ready or the nearest deadline expires. A slow or malicious client
//! therefore costs one connection slot and some buffer space — never a
//! thread. Workers never touch sockets: they pop a fully parsed request,
//! run the handler, and hand the fully framed response bytes back through
//! the completion bin (plus a waker nudge so the reactor picks them up
//! immediately).
//!
//! ## Connection state machine
//!
//! * **reading** — accumulate bytes; a whole-request deadline (armed at
//!   accept for the first request, re-armed when the next pipelined
//!   request starts) maps a stall to `408`. Oversized heads/bodies map to
//!   `413`, unparseable bytes to `400`.
//! * **inflight** — exactly one request per connection is ever dispatched
//!   at a time (pipelined successors wait in the buffer, preserving
//!   response order by construction — responses can never interleave, so
//!   none is ever torn).
//! * **flushing** — response bytes drain through the write buffer as the
//!   socket accepts them.
//! * **draining** — after a close-worthy response is flushed, the read
//!   side is consumed (bounded by a grace period) before the socket
//!   drops, so the response is never RST'd out of the client's receive
//!   buffer by unread request bytes.
//!
//! Load shedding happens at accept: past the configured serving capacity
//! (`workers + queue_capacity`) a new connection gets a pre-framed `429`
//! and is never read from; past [`MAX_SHED_CONNS`] concurrent sheds it is
//! dropped outright (hard shed — bounded, honest backpressure).

use crate::http::{self, HttpRequest, Parse, ParseError};
use crate::metrics::Counter;
use crate::poll::{self, Interest};
use crate::server::Shared;
use crate::wire;
use gleipnir_core::{PriorityClass, QuotaPermit, SchedulerDepths};
use gleipnir_telemetry as telemetry;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Concurrent `429` responders kept alive at once; beyond this, overflow
/// connections are dropped without a response (a hard shed). Bounds both
/// fd count and memory under an accept storm.
const MAX_SHED_CONNS: usize = 64;

/// Cap on a connection's unparsed request backlog while one of its
/// requests is in flight. A pipelining client past this stops being read
/// (TCP backpressure) until responses drain the buffer — bounded memory
/// per connection. With nothing in flight the buffer holds the front
/// request, which the parser bounds instead (`MAX_HEADER_BYTES` plus
/// `max_body_bytes`, else `413`), so a legal body larger than this cap
/// still arrives.
const PIPELINE_BUF_CAP: usize = 256 * 1024;

/// Per-read scratch size.
const READ_CHUNK: usize = 16 * 1024;

/// How long a closed connection's unread input is drained before the
/// socket drops (prevents the response being RST'd away).
const DRAIN_GRACE: Duration = Duration::from_millis(500);

/// Hard cap on the graceful-shutdown drain (in-flight analyses may run
/// long; this only bounds the *socket* tail once workers are done).
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

/// Longest the reactor sleeps in `poll(2)` with nothing to do.
const POLL_MAX_MS: u64 = 50;

/// A parsed request waiting for (or being served by) a worker.
pub(crate) struct Job {
    /// Which connection the response belongs to.
    pub conn: u64,
    /// The parsed request.
    pub request: HttpRequest,
    /// The scheduling class this request is queued under (`/batch` is
    /// batch traffic; everything else is interactive).
    pub class: PriorityClass,
    /// The tenant's quota slot for this request; never read — held so
    /// that dropping the job (after the response is framed) releases it.
    #[allow(dead_code)]
    pub permit: Option<QuotaPermit>,
    /// Whether the response should keep the connection open.
    pub keep_alive: bool,
    /// Trace id minted at parse time (echoed as `X-Trace-Id`).
    pub trace_id: u64,
    /// The root request-span id; the parse span is already recorded under
    /// it, the worker adds queue-wait and handler children.
    pub root_span: u32,
    /// When the reactor started parsing this request — the root span's
    /// start ([`gleipnir_telemetry::now_ns`] timebase).
    pub parse_start_ns: u64,
    /// When the job entered the queue (queue-wait span start).
    pub enqueued_ns: u64,
}

/// The reactor → workers request queue: one FIFO per priority class,
/// indexed and drained in [`PriorityClass::ALL`] order — a saturating
/// batch tenant queues behind *every* waiting interactive request, not in
/// front of it. The reactor queues requests as interactive or batch only:
/// refinements run on the engine's own refinement runner, so the
/// refinement FIFO here stays empty.
/// Unbounded as a data structure — admission control happens at accept
/// (connection cap) plus per-tenant quotas, and each connection
/// contributes at most one in-flight job, so the queue is bounded by the
/// connection cap by construction.
pub(crate) struct JobQueue {
    inner: Mutex<[VecDeque<Job>; 3]>,
    ready: Condvar,
}

impl JobQueue {
    pub(crate) fn new() -> Self {
        JobQueue {
            inner: Mutex::new([VecDeque::new(), VecDeque::new(), VecDeque::new()]),
            ready: Condvar::new(),
        }
    }

    pub(crate) fn push(&self, job: Job) {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        q[job.class.index()].push_back(job);
        drop(q);
        self.ready.notify_one();
    }

    /// Current total depth (for `/metrics` and `/healthz`).
    pub(crate) fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(VecDeque::len)
            .sum()
    }

    /// Current per-class depths (the `queue_depth{class=…}` gauges).
    pub(crate) fn depths(&self) -> SchedulerDepths {
        let q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        SchedulerDepths {
            interactive: q[0].len(),
            refinement: q[1].len(),
            batch: q[2].len(),
        }
    }

    /// Pops the highest-priority waiting job; `None` once shutdown is
    /// requested **and** the queue is drained (already-parsed requests
    /// still get served).
    pub(crate) fn pop(&self, shutdown: &std::sync::atomic::AtomicBool) -> Option<Job> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = q.iter_mut().find_map(VecDeque::pop_front) {
                return Some(job);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            q = guard;
        }
    }

    pub(crate) fn notify_all(&self) {
        self.ready.notify_all();
    }
}

/// A worker's finished response, headed back to the reactor.
pub(crate) struct Completion {
    /// Destination connection.
    pub conn: u64,
    /// Fully framed response bytes.
    pub bytes: Vec<u8>,
    /// Close after flushing (the request asked for it, or shutdown).
    pub close: bool,
}

/// Wakes the reactor out of `poll(2)`: a loopback socket pair acting as a
/// self-pipe (std has no portable pipe). Non-blocking on both ends — a
/// full wake buffer just means wakeups are already pending.
pub(crate) struct Waker {
    tx: TcpStream,
}

impl Waker {
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

/// Builds the waker pair: the send half for workers/handles, the receive
/// half for the reactor's poll set.
pub(crate) fn waker_pair() -> io::Result<(Waker, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, rx))
}

/// One connection's reactor-side state.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes.
    buf: Vec<u8>,
    /// Pending response bytes (`out_pos` already written).
    out: Vec<u8>,
    out_pos: usize,
    /// A request from this connection sits in the job queue or a worker.
    inflight: bool,
    /// Responses completed on this connection (keep-alive reuse count).
    served: usize,
    /// Whole-request read deadline → `408`.
    deadline: Option<Instant>,
    /// Keep-alive idle deadline → silent close (only after ≥ 1 response).
    idle_deadline: Option<Instant>,
    /// Post-close input drain deadline.
    draining_until: Option<Instant>,
    /// No more requests will be parsed (error answered, shed, or closing).
    reading_dead: bool,
    /// Close the socket once the write buffer flushes.
    close_after_flush: bool,
    /// The peer half-closed its send side.
    eof: bool,
    /// This connection was shed with a `429` at accept.
    shed: bool,
    /// Remove at end of tick.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            inflight: false,
            served: 0,
            deadline: None,
            idle_deadline: None,
            draining_until: None,
            reading_dead: false,
            close_after_flush: false,
            eof: false,
            shed: false,
            dead: false,
        }
    }

    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    /// Whether the poll set should watch this socket for readability.
    fn wants_read(&self) -> bool {
        if self.dead || self.eof {
            return false;
        }
        if self.draining_until.is_some() {
            return true;
        }
        !self.reading_dead && (!self.inflight || self.buf.len() < PIPELINE_BUF_CAP)
    }

    /// Queues a terminal JSON response: answer, then close (with drain).
    fn enqueue_close_response(&mut self, status: u16, message: &str) {
        self.out.extend_from_slice(&http::json_response(
            status,
            &wire::error_json(message),
            false,
        ));
        self.reading_dead = true;
        self.close_after_flush = true;
        self.deadline = None;
        self.idle_deadline = None;
        self.buf.clear();
    }
}

/// The reactor: runs on its own thread until shutdown completes.
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    listener: TcpListener,
    wake_rx: TcpStream,
    conns: HashMap<u64, Conn>,
    next_id: u64,
}

/// What a poll-set slot refers to.
enum Slot {
    Listener,
    Waker,
    Conn(u64),
}

impl Reactor {
    pub(crate) fn new(shared: Arc<Shared>, listener: TcpListener, wake_rx: TcpStream) -> Reactor {
        let _ = listener.set_nonblocking(true);
        Reactor {
            shared,
            listener,
            wake_rx,
            conns: HashMap::new(),
            next_id: 0,
        }
    }

    /// The event loop. Returns once shutdown was requested and every
    /// connection has drained (or the shutdown grace period expired).
    pub(crate) fn run(mut self) {
        let mut shutdown_grace: Option<Instant> = None;
        loop {
            let shutting_down = self.shared.shutdown.load(Ordering::SeqCst);
            if shutting_down && shutdown_grace.is_none() {
                shutdown_grace = Some(Instant::now() + SHUTDOWN_GRACE);
            }
            if shutting_down
                && (self.conns.is_empty() || shutdown_grace.is_some_and(|t| Instant::now() >= t))
            {
                return;
            }
            self.tick(shutting_down);
        }
    }

    fn tick(&mut self, shutting_down: bool) {
        self.apply_completions();
        if shutting_down {
            // Idle connections (nothing in flight, nothing to flush) are
            // closed; in-flight analyses finish and flush first.
            for conn in self.conns.values_mut() {
                if !conn.inflight && conn.flushed() {
                    conn.dead = true;
                }
            }
        }
        self.reap();

        // Build the poll set.
        let mut fds: Vec<poll::Token> = Vec::with_capacity(self.conns.len() + 2);
        let mut interests: Vec<Interest> = Vec::with_capacity(self.conns.len() + 2);
        let mut slots: Vec<Slot> = Vec::with_capacity(self.conns.len() + 2);
        if !shutting_down {
            fds.push(poll::listener_token(&self.listener));
            interests.push(Interest::read());
            slots.push(Slot::Listener);
        }
        fds.push(poll::stream_token(&self.wake_rx));
        interests.push(Interest::read());
        slots.push(Slot::Waker);
        for (&id, conn) in &self.conns {
            let interest = Interest {
                read: conn.wants_read(),
                write: !conn.flushed(),
                ..Interest::default()
            };
            if interest.read || interest.write {
                fds.push(poll::stream_token(&conn.stream));
                interests.push(interest);
                slots.push(Slot::Conn(id));
            }
        }

        poll::wait(&fds, &mut interests, self.poll_timeout());

        for (slot, interest) in slots.into_iter().zip(interests.iter()) {
            match slot {
                Slot::Listener if interest.readable => self.accept_ready(),
                Slot::Waker if interest.readable => self.drain_waker(),
                Slot::Conn(id) => {
                    if interest.readable {
                        self.handle_read(id);
                    }
                    if interest.writable {
                        self.handle_write(id);
                    }
                }
                _ => {}
            }
        }

        self.check_deadlines();
        self.reap();
    }

    /// Nearest deadline across all connections, bounded to
    /// [`POLL_MAX_MS`] so shutdown and completions are always noticed.
    fn poll_timeout(&self) -> u64 {
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        let mut fold = |t: Option<Instant>| {
            if let Some(t) = t {
                next = Some(match next {
                    Some(n) => n.min(t),
                    None => t,
                });
            }
        };
        for conn in self.conns.values() {
            fold(conn.deadline);
            fold(conn.idle_deadline);
            fold(conn.draining_until);
        }
        match next {
            Some(t) => (t.saturating_duration_since(now).as_millis() as u64).min(POLL_MAX_MS),
            None => POLL_MAX_MS,
        }
    }

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 256];
        loop {
            match self.wake_rx.read(&mut sink) {
                Ok(0) => return, // waker hung up (only during teardown)
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.shared.metrics.inc(Counter::ConnectionsTotal);
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let serving = self.conns.values().filter(|c| !c.shed && !c.dead).count();
                    if serving >= self.shared.max_serving_conns() {
                        self.shared.metrics.inc(Counter::ShedTotal);
                        let shed = self.conns.values().filter(|c| c.shed && !c.dead).count();
                        if shed >= MAX_SHED_CONNS {
                            // Hard shed: drop without a response. Under this
                            // much pressure a closed socket is still bounded,
                            // honest backpressure.
                            continue;
                        }
                        // Unified accounting: the 429 is a response the
                        // server generated, so it counts as a request and
                        // an error — overload is visible in dashboard
                        // rates, not just in `shed_total`. (Hard sheds
                        // above produce no response and count in
                        // `shed_total` only.)
                        self.shared.metrics.inc(Counter::RequestsTotal);
                        self.shared.metrics.inc(Counter::HttpErr);
                        let mut conn = Conn::new(stream);
                        conn.shed = true;
                        conn.enqueue_close_response(
                            429,
                            "server overloaded: accept queue full, retry later",
                        );
                        let id = self.insert(conn);
                        self.handle_write(id);
                    } else {
                        let mut conn = Conn::new(stream);
                        // The whole-request deadline for the first request
                        // starts at accept — a client that connects and
                        // stalls (or trickles) is cut off at exactly
                        // `read_timeout`, same as a mid-request stall.
                        conn.deadline = Some(Instant::now() + self.shared.config.read_timeout);
                        self.insert(conn);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failure (EMFILE, …): stop for this tick
                // instead of spinning; poll will offer the listener again.
                Err(_) => return,
            }
        }
    }

    fn insert(&mut self, conn: Conn) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.conns.insert(id, conn);
        id
    }

    fn apply_completions(&mut self) {
        let completions: Vec<Completion> = {
            let mut bin = self
                .shared
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *bin)
        };
        for completion in completions {
            let Some(conn) = self.conns.get_mut(&completion.conn) else {
                continue; // connection died while the worker ran
            };
            conn.out.extend_from_slice(&completion.bytes);
            conn.inflight = false;
            conn.served += 1;
            conn.deadline = None;
            if completion.close {
                conn.reading_dead = true;
                conn.close_after_flush = true;
            }
            let id = completion.conn;
            if !completion.close {
                // Pipelining: the next request may already be buffered.
                self.advance(id);
            }
            self.handle_write(id);
        }
    }

    fn handle_read(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    if conn.reading_dead || conn.draining_until.is_some() {
                        // Draining: consume and discard (bounded by the
                        // drain deadline).
                        continue;
                    }
                    conn.buf.extend_from_slice(&chunk[..n]);
                    if conn.buf.len() >= PIPELINE_BUF_CAP {
                        // Parse before reading on; while a request is in
                        // flight this is backpressure until drained.
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    self.shared.metrics.inc(Counter::HttpErr);
                    return;
                }
            }
        }
        if conn.draining_until.is_some() && conn.eof {
            conn.dead = true;
            return;
        }
        self.advance(id);
    }

    /// Parses and dispatches whatever complete requests sit at the front
    /// of the buffer (one in flight at a time; successors wait).
    fn advance(&mut self, id: u64) {
        let shutting_down = self.shared.shutdown.load(Ordering::SeqCst);
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.dead || conn.reading_dead {
            return;
        }
        while !conn.inflight {
            if conn.buf.is_empty() {
                if conn.eof {
                    // Clean end of a connection (possibly after its last
                    // response is still flushing).
                    if conn.flushed() {
                        conn.dead = true;
                    } else {
                        conn.close_after_flush = true;
                    }
                } else if conn.served > 0 && conn.idle_deadline.is_none() {
                    // Keep-alive idle: close silently if unused too long.
                    conn.idle_deadline =
                        Some(Instant::now() + self.shared.config.keepalive_timeout);
                }
                return;
            }
            conn.idle_deadline = None;
            let parse_t0 = telemetry::now_ns();
            match http::parse_request(&conn.buf, self.shared.config.max_body_bytes) {
                Parse::Incomplete => {
                    if conn.deadline.is_none() {
                        conn.deadline = Some(Instant::now() + self.shared.config.read_timeout);
                    }
                    if conn.eof {
                        // Mid-request disconnect: nobody left to answer.
                        self.shared.metrics.inc(Counter::HttpErr);
                        conn.dead = true;
                    }
                    return;
                }
                Parse::Request {
                    request,
                    consumed,
                    keep_alive,
                } => {
                    conn.buf.drain(..consumed);
                    conn.deadline = None;
                    // Batch bodies are the heavy, deprioritizable traffic;
                    // everything else (analyze, refine polls, metrics)
                    // rides the interactive class.
                    let class = if request.path.starts_with("/batch") {
                        PriorityClass::Batch
                    } else {
                        PriorityClass::Interactive
                    };
                    // Per-tenant admission: a tenant past its quota for
                    // this class gets an immediate 429 (keep-alive
                    // preserved — `framed` adds `Retry-After`) and the
                    // connection moves on to its next pipelined request.
                    let tenant = request.tenant.clone().unwrap_or_default();
                    let permit = match self.shared.quotas.try_admit(&tenant, class) {
                        Some(permit) => permit,
                        None => {
                            self.shared.metrics.inc(Counter::RequestsTotal);
                            self.shared.metrics.inc(Counter::HttpErr);
                            self.shared.metrics.inc(Counter::QuotaRejections);
                            conn.out.extend_from_slice(&http::json_response(
                                429,
                                &wire::error_json(&format!(
                                    "tenant `{tenant}` is over its {} queue quota, retry later",
                                    class.name()
                                )),
                                keep_alive && !shutting_down,
                            ));
                            if !(keep_alive && !shutting_down) {
                                conn.reading_dead = true;
                                conn.close_after_flush = true;
                                return;
                            }
                            continue;
                        }
                    };
                    conn.inflight = true;
                    self.shared.metrics.inc(Counter::RequestsTotal);
                    // Every request gets a trace: the root span opens at
                    // parse start, the parse itself is its first child,
                    // and the worker closes the root at response framing.
                    let trace_id = telemetry::next_trace_id();
                    let root_span = telemetry::next_span_id();
                    let enqueued_ns = telemetry::now_ns();
                    telemetry::record_span(
                        telemetry::TraceCtx {
                            trace_id,
                            parent: root_span,
                        },
                        telemetry::SpanName::HttpParse,
                        telemetry::next_span_id(),
                        parse_t0,
                        enqueued_ns,
                        0,
                        0,
                        0,
                    );
                    self.shared.jobs.push(Job {
                        conn: id,
                        request,
                        class,
                        permit: Some(permit),
                        keep_alive: keep_alive && !shutting_down,
                        trace_id,
                        root_span,
                        parse_start_ns: parse_t0,
                        enqueued_ns,
                    });
                }
                Parse::Error(e) => {
                    let (status, msg) = match e {
                        ParseError::TooLarge => (413, "request too large".to_string()),
                        ParseError::Malformed(m) => (400, format!("malformed request: {m}")),
                    };
                    // Unified accounting: every response the server
                    // generates counts in `requests_total`, so dashboard
                    // rates don't undercount under protocol abuse.
                    self.shared.metrics.inc(Counter::RequestsTotal);
                    self.shared.metrics.inc(Counter::HttpErr);
                    conn.enqueue_close_response(status, &msg);
                    let id = id;
                    self.handle_write(id);
                    return;
                }
            }
        }
    }

    fn handle_write(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        while !conn.flushed() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Client went away mid-response: not a server problem,
                    // but the connection is done.
                    conn.dead = true;
                    return;
                }
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        if conn.close_after_flush && conn.draining_until.is_none() {
            let _ = conn.stream.shutdown(Shutdown::Write);
            if conn.eof {
                conn.dead = true;
            } else {
                // Drain unread input before dropping the socket so the
                // response cannot be RST'd out of the client's receive
                // buffer.
                conn.reading_dead = true;
                conn.buf.clear();
                conn.draining_until = Some(Instant::now() + DRAIN_GRACE);
            }
        }
    }

    fn check_deadlines(&mut self) {
        let now = Instant::now();
        let mut timed_out: Vec<u64> = Vec::new();
        for (&id, conn) in self.conns.iter_mut() {
            if conn.dead {
                continue;
            }
            if let Some(t) = conn.draining_until {
                if now >= t {
                    conn.dead = true;
                }
                continue;
            }
            if let Some(t) = conn.idle_deadline {
                if now >= t && !conn.inflight && conn.flushed() && conn.buf.is_empty() {
                    conn.dead = true; // silent keep-alive close
                    continue;
                }
            }
            if let Some(t) = conn.deadline {
                if now >= t && !conn.inflight && !conn.reading_dead {
                    // Unified accounting: a 408 is a generated response,
                    // so it counts in `requests_total` too.
                    self.shared.metrics.inc(Counter::RequestsTotal);
                    self.shared.metrics.inc(Counter::HttpErr);
                    conn.enqueue_close_response(408, "request read timed out");
                    timed_out.push(id);
                }
            }
        }
        for id in timed_out {
            self.handle_write(id);
        }
    }

    fn reap(&mut self) {
        self.conns.retain(|_, conn| !conn.dead);
    }
}
