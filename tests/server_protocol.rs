//! Deterministic protocol rig for the reactor transport: hostile and
//! degenerate client behaviors driven over real loopback sockets.
//!
//! Each test pins one transport-level contract:
//!
//! * a byte-at-a-time **trickle** of a valid request is still served;
//! * a **stalled** request (partial bytes, then silence) gets `408` at
//!   the whole-request deadline — same for a fresh connection that never
//!   sends anything;
//! * a **mid-request disconnect** is contained: no crash, next
//!   connection unaffected;
//! * a **pipelined burst** (many requests in one write) is answered
//!   one response per request, in order;
//! * **oversized** headers and declared bodies get `413`, unparseable
//!   bytes get `400`, and so does ambiguous framing (`Transfer-Encoding`,
//!   conflicting `Content-Length`s), with nothing after it parsed;
//! * shed connections receive their **complete `429`** even with unread
//!   request bytes in flight (drain-before-close: no response is ever
//!   torn or RST'd away).

use gleipnir::core::jsonfmt::json_str;
use gleipnir::server::{json, spawn, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A loopback server with a short read deadline and a small body cap, so
/// deadline and size tests run in milliseconds.
fn protocol_server() -> ServerHandle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 8,
        read_timeout: Duration::from_millis(400),
        max_body_bytes: 1024,
        threads: 1,
        ..ServerConfig::default()
    })
    .expect("spawn server")
}

/// Reads one response (headers + `Content-Length` body) off a persistent
/// connection. `carry` holds bytes already read past a previous response
/// (pipelined responses arrive back-to-back in one read).
fn read_one_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String, String) {
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed mid-response");
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(carry[..header_end].to_vec()).expect("UTF-8 head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().expect("numeric Content-Length"))
        })
        .expect("Content-Length header");
    let body_start = header_end + 4;
    while carry.len() < body_start + content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let body = carry[body_start..body_start + content_length].to_vec();
    carry.drain(..body_start + content_length);
    (status, head, String::from_utf8(body).expect("UTF-8 body"))
}

/// Reads to EOF and asserts the stream held exactly one *complete*
/// response (the declared `Content-Length` fully delivered — never torn,
/// never RST'd away).
fn read_final_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut carry = Vec::new();
    let (status, head, body) = read_one_response(stream, &mut carry);
    let mut rest = Vec::new();
    stream
        .read_to_end(&mut rest)
        .expect("clean EOF after the final response, not a reset");
    assert!(
        carry.is_empty() && rest.is_empty(),
        "no bytes may follow a Connection: close response"
    );
    (status, head, body)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

#[test]
fn trickled_request_is_served_like_any_other() {
    let server = protocol_server();
    let mut stream = connect(server.addr());
    // One byte per write: dozens of partial-parse steps, all within the
    // whole-request deadline.
    for byte in b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n" {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
    }
    let (status, _, body) = read_final_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\":true"), "{body}");
    server.join();
}

#[test]
fn stalled_mid_request_gets_408_at_the_deadline() {
    let server = protocol_server();
    let mut stream = connect(server.addr());
    // Half a request line, then silence: the whole-request deadline (not
    // any per-read timeout) must cut this off with a response.
    stream.write_all(b"POST /analyze HT").unwrap();
    let start = std::time::Instant::now();
    let (status, head, body) = read_final_response(&mut stream);
    assert_eq!(status, 408, "{body}");
    assert!(head.contains("Connection: close"), "{head}");
    assert!(body.contains("timed out"), "{body}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "408 must arrive at the deadline, not hang"
    );
    server.join();
}

#[test]
fn idle_fresh_connection_gets_408_not_a_leak() {
    let server = protocol_server();
    let mut stream = connect(server.addr());
    // Connect and send nothing at all: the deadline starts at accept.
    let (status, _, body) = read_final_response(&mut stream);
    assert_eq!(status, 408, "{body}");
    server.join();
}

#[test]
fn mid_request_disconnect_is_contained() {
    let server = protocol_server();
    let addr = server.addr();
    // A few clients vanish mid-request — different truncation points,
    // including mid-body.
    for partial in [
        &b"GET"[..],
        &b"POST /analyze HTTP/1.1\r\nContent-Le"[..],
        &b"POST /analyze HTTP/1.1\r\nContent-Length: 500\r\n\r\npartial body"[..],
    ] {
        let mut stream = connect(addr);
        stream.write_all(partial).unwrap();
        drop(stream);
    }
    // The server neither crashed nor wedged: a normal request still works.
    let mut stream = connect(addr);
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_final_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    server.join();
}

#[test]
fn pipelined_burst_answers_in_order() {
    let server = protocol_server();
    let mut stream = connect(server.addr());
    // Alternate two distinguishable endpoints so ordering is observable,
    // all in a single write.
    let mut burst = String::new();
    for i in 0..6 {
        let path = if i % 2 == 0 { "/healthz" } else { "/metrics" };
        burst.push_str(&format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"));
    }
    stream.write_all(burst.as_bytes()).unwrap();
    let mut carry = Vec::new();
    for i in 0..6 {
        let (status, _, body) = read_one_response(&mut stream, &mut carry);
        assert_eq!(status, 200, "response {i}: {body}");
        if i % 2 == 0 {
            assert!(body.contains("\"status\":\"ok\""), "response {i}: {body}");
        } else {
            assert!(body.contains("uptime_ms"), "response {i}: {body}");
        }
    }
    drop(stream);
    server.join();
}

#[test]
fn oversized_declared_body_gets_413_before_the_body_arrives() {
    let server = protocol_server();
    let mut stream = connect(server.addr());
    // Declares far more than max_body_bytes (1024); the server must
    // reject from the headers alone.
    stream
        .write_all(b"POST /analyze HTTP/1.1\r\nContent-Length: 100000\r\n\r\n")
        .unwrap();
    let (status, head, body) = read_final_response(&mut stream);
    assert_eq!(status, 413, "{body}");
    assert!(head.contains("Connection: close"), "{head}");
    assert!(body.contains("too large"), "{body}");
    server.join();
}

#[test]
fn oversized_headers_get_413() {
    let server = protocol_server();
    let mut stream = connect(server.addr());
    let mut raw = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    raw.extend(std::iter::repeat(b'a').take(80 * 1024)); // > 64 KiB head cap
    stream.write_all(&raw).unwrap();
    let (status, _, body) = read_final_response(&mut stream);
    assert_eq!(status, 413, "{body}");
    server.join();
}

#[test]
fn unparseable_bytes_get_400() {
    let server = protocol_server();
    let mut stream = connect(server.addr());
    stream
        .write_all(b"THIS IS NOT HTTP AT ALL\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_final_response(&mut stream);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("malformed"), "{body}");
    server.join();
}

/// Framing the server cannot trust (a `Transfer-Encoding`, or two
/// different `Content-Length`s) gets one `400` and a close: the bytes
/// after the head, and the valid request pipelined behind them, are never
/// parsed as requests.
#[test]
fn ambiguous_framing_gets_one_400_and_routes_nothing_after_it() {
    let server = protocol_server();
    let addr = server.addr();
    let next = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    for head in [
        "POST /analyze HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n\
         19\r\nGET /metrics HTTP/1.1\r\n\r\n\r\n0\r\n\r\n",
        "POST /analyze HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nContent-Length: 27\r\n\r\n\
         {}GET /metrics HTTP/1.1\r\n\r\n",
    ] {
        let mut stream = connect(addr);
        stream
            .write_all(format!("{head}{next}").as_bytes())
            .unwrap();
        let (status, head, body) = read_final_response(&mut stream);
        assert_eq!(status, 400, "{body}");
        assert!(head.contains("Connection: close"), "{head}");
        assert!(body.contains("malformed"), "{body}");
    }

    // Nothing was routed: the two 400s and this fetch are every request.
    let mut stream = connect(addr);
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_final_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    let requests = json::parse(&body).unwrap();
    let requests = requests.get("requests").expect("requests section");
    assert_eq!(
        requests.get("requests_total").unwrap().as_usize(),
        Some(3),
        "{body}"
    );
    assert_eq!(
        requests.get("http_err").unwrap().as_usize(),
        Some(2),
        "{body}"
    );
    server.join();
}

/// A field line with whitespace before its colon, or with no colon at all,
/// is malformed (RFC 9112 §5.1): one `400` and a close, never a field name
/// trimmed into a framing header.
#[test]
fn malformed_header_lines_get_400_and_close() {
    let server = protocol_server();
    for raw in [
        "GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length : 0\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nHost: t\r\nno colon here\r\n\r\n",
    ] {
        let mut stream = connect(server.addr());
        stream.write_all(raw.as_bytes()).unwrap();
        let (status, head, body) = read_final_response(&mut stream);
        assert_eq!(status, 400, "{raw:?}: {body}");
        assert!(head.contains("Connection: close"), "{head}");
        assert!(body.contains("malformed"), "{body}");
    }
    server.join();
}

/// Accounting contract: `requests_total` counts every response the server
/// generates — including protocol-level `400`s and `408`s that never
/// reach a worker — and each of those also lands in `http_err`.
#[test]
fn protocol_errors_count_in_requests_total() {
    let server = protocol_server();
    let addr = server.addr();

    // 1) Unparseable bytes → 400 (generated by the reactor, not a worker).
    let mut stream = connect(addr);
    stream.write_all(b"NOT HTTP\r\n\r\n").unwrap();
    let (status, _, _) = read_final_response(&mut stream);
    assert_eq!(status, 400);

    // 2) Idle connection → 408 at the whole-request deadline.
    let mut stream = connect(addr);
    let (status, _, _) = read_final_response(&mut stream);
    assert_eq!(status, 408);

    // 3) The metrics fetch itself is request #3 (counted at parse time,
    //    before the handler renders the document).
    let mut stream = connect(addr);
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_final_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    let m = json::parse(&body).unwrap();
    let requests = m.get("requests").expect("requests section");
    assert_eq!(
        requests.get("requests_total").unwrap().as_usize(),
        Some(3),
        "400 + 408 + this /metrics fetch: {body}"
    );
    assert_eq!(
        requests.get("http_err").unwrap().as_usize(),
        Some(2),
        "the 400 and the 408: {body}"
    );
    server.join();
}

/// Accounting contract for shed connections: a soft-shed `429` is a
/// generated response, so it counts in `requests_total` and `http_err`
/// alongside `shed_total` — overload shows up in dashboard request/error
/// rates, not just in its own counter.
#[test]
fn shed_429_counts_as_request_and_error() {
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(5),
        threads: 1,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = server.addr();

    // Occupy the serving capacity (1 worker + 1 queue slot) with stalled
    // requests, then get shed.
    let mut pin = connect(addr);
    pin.write_all(b"POST /analyze HTTP/1.1\r\n").unwrap();
    let mut filler = connect(addr);
    filler.write_all(b"POST /analyze HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let mut shed = connect(addr);
    shed.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (status, _, _) = read_final_response(&mut shed);
    assert_eq!(status, 429);

    // Complete the stalled requests (empty /analyze bodies → 400 from the
    // handler, counted under analyze_err, not http_err) so capacity frees
    // up without mid-request disconnects muddying the error counters.
    for conn in [&mut pin, &mut filler] {
        conn.write_all(b"Connection: close\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        let (status, _, _) = read_final_response(conn);
        assert_eq!(status, 400);
    }
    // Close our ends so the server's drain-before-close finishes and the
    // connection slots actually free up.
    drop(pin);
    drop(filler);

    // The freed slots are observed asynchronously; a too-quick fetch may
    // still be shed. Each extra shed is itself a counted request+error,
    // so track them and fold them into the expected totals.
    let mut extra_sheds = 0;
    let body = loop {
        let mut stream = connect(addr);
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let (status, _, body) = read_final_response(&mut stream);
        if status == 200 {
            break body;
        }
        assert_eq!(status, 429, "{body}");
        extra_sheds += 1;
        assert!(extra_sheds < 100, "server never freed its capacity");
        std::thread::sleep(Duration::from_millis(50));
    };
    let m = json::parse(&body).unwrap();
    let requests = m.get("requests").expect("requests section");
    assert_eq!(
        requests.get("requests_total").unwrap().as_usize(),
        Some(4 + extra_sheds),
        "429s + two completed analyzes + this /metrics fetch: {body}"
    );
    assert_eq!(
        requests.get("http_err").unwrap().as_usize(),
        Some(1 + extra_sheds),
        "only the 429s are protocol-level errors: {body}"
    );
    assert_eq!(
        m.get("queue")
            .unwrap()
            .get("shed_total")
            .unwrap()
            .as_usize(),
        Some(1 + extra_sheds),
        "{body}"
    );
    server.join();
}

// ---- anytime refinement-token lifecycle ------------------------------

const GHZ_SRC: &str = "qubits 2;\nh q0;\ncnot q0, q1;\n";

fn anytime_body() -> String {
    format!(
        "{{\"source\":{},\"name\":\"ghz2\",\"width\":8,\"noise\":\"bitflip:1e-4\",\"anytime\":true}}",
        json_str(GHZ_SRC)
    )
}

fn post_frame(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Pulls `"token":"…"` out of a 202 anytime acceptance body.
fn token_of(body: &str) -> String {
    json::parse(body)
        .expect("anytime body is JSON")
        .get("token")
        .and_then(json::Json::as_str)
        .unwrap_or_else(|| panic!("token in {body}"))
        .to_string()
}

#[test]
fn unknown_refine_tokens_404() {
    let server = protocol_server();
    let addr = server.addr();
    // Well-formed but never issued; tokens are never 0; not hex at all.
    for path in [
        "/refine/deadbeefdeadbeef",
        "/refine/0",
        "/refine/not-a-token",
    ] {
        let mut stream = connect(addr);
        stream
            .write_all(
                format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
            )
            .unwrap();
        let (status, _, body) = read_final_response(&mut stream);
        assert_eq!(status, 404, "{path}: {body}");
        assert!(body.contains("refinement token"), "{path}: {body}");
    }
    server.join();
}

/// The whole token lifecycle on ONE keep-alive connection, with the
/// refinement under the deterministic scripted driver (no sleeps):
/// `202` accept → pipelined pending polls → `204` on `wait_ms` expiry →
/// run the refinement → `200` served repeatedly.
#[test]
fn refine_token_lifecycle_survives_keep_alive_pipelining() {
    let server = protocol_server();
    // Scripted: the refinement job queues and runs only when this test
    // says so — every poll below has a deterministic answer.
    server.engine().set_scripted_refinements(true);
    let addr = server.addr();
    let mut stream = connect(addr);
    let mut carry = Vec::new();

    stream
        .write_all(post_frame("/analyze", &anytime_body()).as_bytes())
        .unwrap();
    let (status, _, body) = read_one_response(&mut stream, &mut carry);
    assert_eq!(status, 202, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("anytime").and_then(json::Json::as_bool), Some(true));
    let first = v
        .get("first")
        .and_then(|f| f.get("error_bound"))
        .and_then(json::Json::as_f64)
        .expect("first.error_bound");
    assert!(first.is_finite() && first > 0.0, "{body}");
    let token = token_of(&body);

    // Two pipelined polls in one write: both answered, in order, both
    // pending — the token survives request pipelining.
    let poll = format!("GET /refine/{token} HTTP/1.1\r\nHost: t\r\n\r\n");
    stream
        .write_all(format!("{poll}{poll}").as_bytes())
        .unwrap();
    for i in 0..2 {
        let (status, _, body) = read_one_response(&mut stream, &mut carry);
        assert_eq!(status, 202, "pipelined poll {i}: {body}");
        let v = json::parse(&body).unwrap();
        assert_eq!(v.get("done").and_then(json::Json::as_bool), Some(false));
        assert_eq!(token_of(&body), token, "poll {i} echoes the token");
    }

    // Long poll with the refinement still parked: deterministic 204 with
    // an empty body at wait_ms expiry.
    stream
        .write_all(format!("GET /refine/{token}?wait_ms=25 HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let (status, head, body) = read_one_response(&mut stream, &mut carry);
    assert_eq!(status, 204, "{body}");
    assert!(head.contains("Content-Length: 0"), "{head}");
    assert!(body.is_empty(), "204 must have no body: {body}");

    // Run the refinement; the completed token is then served repeatedly,
    // still on the same connection.
    assert!(server.engine().run_next_refinement());
    let mut bounds = Vec::new();
    for i in 0..3 {
        stream
            .write_all(format!("GET /refine/{token} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
        let (status, _, body) = read_one_response(&mut stream, &mut carry);
        assert_eq!(status, 200, "completed poll {i}: {body}");
        let v = json::parse(&body).unwrap();
        assert_eq!(v.get("done").and_then(json::Json::as_bool), Some(true));
        let eps = v
            .get("report")
            .and_then(|r| r.get("error_bound"))
            .and_then(json::Json::as_f64)
            .expect("refined report.error_bound");
        bounds.push(eps.to_bits());
        assert!(
            first >= eps,
            "intermediate {first:.6e} must dominate {eps:.6e}"
        );
    }
    assert!(
        bounds.windows(2).all(|w| w[0] == w[1]),
        "repeated serves must be bit-identical"
    );
    drop(stream);
    server.join();
}

/// A long poll parked on a pending refinement returns as soon as the
/// refinement publishes — far before `wait_ms` elapses.
#[test]
fn long_poll_returns_early_on_completion() {
    let server = protocol_server();
    server.engine().set_scripted_refinements(true);
    let addr = server.addr();

    let mut stream = connect(addr);
    stream
        .write_all(post_frame("/analyze", &anytime_body()).as_bytes())
        .unwrap();
    let mut carry = Vec::new();
    let (status, _, body) = read_one_response(&mut stream, &mut carry);
    assert_eq!(status, 202, "{body}");
    let token = token_of(&body);

    let start = std::time::Instant::now();
    let poller = std::thread::spawn(move || {
        let mut stream = connect(addr);
        stream
            .write_all(
                format!(
                    "GET /refine/{token}?wait_ms=30000 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
                )
                .as_bytes(),
            )
            .unwrap();
        read_final_response(&mut stream)
    });
    assert!(server.engine().run_next_refinement());
    let (status, _, body) = poller.join().expect("poller thread");
    assert_eq!(status, 200, "{body}");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "completion must release the long poll early, not at wait_ms"
    );
    drop(stream);
    server.join();
}

#[test]
fn shed_429_arrives_complete_despite_unread_input() {
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(3),
        threads: 1,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = server.addr();

    // Occupy the serving capacity (workers + queue slots) with stalled
    // requests.
    let mut pin = connect(addr);
    pin.write_all(b"POST /analyze HTTP/1.1\r\n").unwrap();
    let mut filler = connect(addr);
    filler.write_all(b"POST /analyze HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // The shed connection sends a pile of bytes the server never reads
    // as a request. The complete 429 must still arrive — closing with
    // unread input would RST it out of our receive buffer.
    let mut shed = connect(addr);
    let payload = vec![b'x'; 32 * 1024];
    // The peer may legitimately stop reading us; don't die on EPIPE.
    let _ = shed.write_all(b"POST /analyze HTTP/1.1\r\nContent-Length: 32768\r\n\r\n");
    let _ = shed.write_all(&payload);
    let (status, head, body) = read_final_response(&mut shed);
    assert_eq!(status, 429, "{body}");
    assert!(head.contains("Retry-After"), "{head}");
    assert!(body.contains("overloaded"), "{body}");

    drop(pin);
    drop(filler);
    server.join();
}
