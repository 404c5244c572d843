//! Just enough HTTP/1.1 for the analysis endpoints, as a **pure,
//! incremental parser** the reactor can call on whatever bytes have
//! arrived so far.
//!
//! The parser never does I/O: the reactor accumulates bytes per
//! connection and asks [`parse_request`] whether a complete request is
//! sitting at the front of the buffer. This is what makes keep-alive and
//! pipelining natural — leftover bytes after one request are simply the
//! start of the next — and what makes the deadline story honest: wall
//! clock is owned by the event loop (a trickling client is cut off by the
//! *whole-request* deadline, not a per-read timeout), while this module
//! only ever decides `Incomplete` / `Request` / `Error`.
//!
//! Explicit `Content-Length` bodies only — no chunked encoding, no TLS.
//! Header and body sizes are capped ([`ParseError::TooLarge`] → `413`);
//! anything unparseable is [`ParseError::Malformed`] → `400`.

/// A parsed request: method, path, tenant, body. Headers beyond
/// `Content-Length`, `Connection`, and `X-Tenant` are intentionally
/// dropped — no endpoint needs them.
#[derive(Debug)]
pub struct HttpRequest {
    /// `GET`, `POST`, …
    pub method: String,
    /// Request target, query string included — the router splits on `?`
    /// (only `/metrics?format=…` interprets one).
    pub path: String,
    /// The `X-Tenant` header, when present — the identity per-tenant
    /// queue quotas meter on (absent = the anonymous tenant).
    pub tenant: Option<String>,
    /// The raw request body.
    pub body: Vec<u8>,
}

/// Why the bytes at the front of the buffer can never become a request.
#[derive(Debug)]
pub enum ParseError {
    /// The headers (or the declared body) exceed the configured cap → `413`.
    TooLarge,
    /// The bytes are not a parseable HTTP/1.1 request → `400`.
    Malformed(String),
}

/// One [`parse_request`] step over a connection's receive buffer.
#[derive(Debug)]
pub enum Parse {
    /// No complete request yet — keep reading (the reactor's deadline
    /// decides when patience runs out).
    Incomplete,
    /// A complete request occupied `buf[..consumed]`.
    Request {
        /// The parsed request.
        request: HttpRequest,
        /// Bytes to drain off the front of the buffer.
        consumed: usize,
        /// Whether the client asked to keep the connection open
        /// (HTTP/1.1 default, overridable by `Connection:`).
        keep_alive: bool,
    },
    /// The buffer can never become a request; answer and close.
    Error(ParseError),
}

/// Longest the head (request line + headers) may grow before `413`.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Tries to parse one complete request off the front of `buf`.
pub fn parse_request(buf: &[u8], max_body: usize) -> Parse {
    let Some(header_end) = find_blank_line(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Parse::Error(ParseError::TooLarge);
        }
        return Parse::Incomplete;
    };
    if header_end > MAX_HEADER_BYTES {
        return Parse::Error(ParseError::TooLarge);
    }
    let head = match std::str::from_utf8(&buf[..header_end]) {
        Ok(head) => head,
        Err(_) => return Parse::Error(ParseError::Malformed("non-UTF-8 headers".into())),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let Some(method) = parts.next() else {
        return Parse::Error(ParseError::Malformed("missing method".into()));
    };
    let Some(path) = parts.next() else {
        return Parse::Error(ParseError::Malformed("missing path".into()));
    };
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Parse::Error(ParseError::Malformed(format!("bad version `{version}`")));
    }
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length: Option<usize> = None;
    let mut tenant: Option<String> = None;
    for line in lines {
        // RFC 9112 §5.1: a field line is `name ":" value` with no
        // whitespace in or around the name; anything else is rejected, not
        // skipped or trimmed into a framing header.
        let Some((name, value)) = line
            .split_once(':')
            .filter(|(name, _)| !name.is_empty() && !name.contains(|c: char| c.is_whitespace()))
        else {
            return Parse::Error(ParseError::Malformed(format!("bad header line `{line}`")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let Ok(n) = value.parse() else {
                return Parse::Error(ParseError::Malformed("bad Content-Length".into()));
            };
            // RFC 9112 §6.3: differing lengths leave the framing
            // ambiguous, so no length can be trusted.
            if content_length.is_some_and(|m| m != n) {
                return Parse::Error(ParseError::Malformed("conflicting Content-Length".into()));
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Only Content-Length framing is implemented. Reading a
            // chunked body as empty would parse its chunks as the next
            // pipelined request (RFC 9112 §6.1), so refuse and close.
            return Parse::Error(ParseError::Malformed(
                "Transfer-Encoding is not supported".into(),
            ));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("x-tenant") && !value.is_empty() {
            tenant = Some(value.to_string());
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Parse::Error(ParseError::TooLarge);
    }
    let body_start = header_end + 4;
    let consumed = body_start + content_length;
    if buf.len() < consumed {
        return Parse::Incomplete;
    }
    Parse::Request {
        request: HttpRequest {
            method: method.to_string(),
            path: path.to_string(),
            tenant,
            body: buf[body_start..consumed].to_vec(),
        },
        consumed,
        keep_alive,
    }
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Serializes one complete response. The reactor owns delivery (and the
/// no-torn-response guarantee: a response either leaves the write buffer
/// whole or the connection is visibly dead); this function only frames.
pub fn response_bytes(status: u16, content_type: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    framed(status, content_type, body, keep_alive, None)
}

/// [`response_bytes`] plus an `X-Trace-Id` header, so a client can fetch
/// `GET /trace/<id>` for the request that produced this response.
pub fn response_bytes_traced(
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    trace_id: u64,
) -> Vec<u8> {
    framed(status, content_type, body, keep_alive, Some(trace_id))
}

fn framed(
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    trace_id: Option<u64>,
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason(status),
        body.len(),
    );
    if status == 429 {
        head.push_str("Retry-After: 1\r\n");
    }
    if let Some(id) = trace_id {
        head.push_str(&format!(
            "X-Trace-Id: {}\r\n",
            gleipnir_telemetry::format_trace_id(id)
        ));
    }
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// [`response_bytes`] for the common JSON case.
pub fn json_response(status: u16, body: &str, keep_alive: bool) -> Vec<u8> {
    response_bytes(status, "application/json", body.as_bytes(), keep_alive)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(raw: &[u8]) -> (HttpRequest, usize, bool) {
        match parse_request(raw, 1024) {
            Parse::Request {
                request,
                consumed,
                keep_alive,
            } => (request, consumed, keep_alive),
            other => panic!("expected a complete request, got {other:?}"),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /analyze HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let (req, consumed, keep_alive) = full(raw);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/analyze");
        assert_eq!(req.body, b"hello");
        assert_eq!(consumed, raw.len());
        assert!(keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_get_without_body() {
        let (req, _, _) = full(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn x_tenant_header_is_retained() {
        let (req, _, _) = full(b"GET /analyze HTTP/1.1\r\nX-Tenant: acme\r\n\r\n");
        assert_eq!(req.tenant.as_deref(), Some("acme"));
        let (req, _, _) = full(b"GET /analyze HTTP/1.1\r\nx-tenant:  bob \r\n\r\n");
        assert_eq!(req.tenant.as_deref(), Some("bob"), "case + whitespace");
        let (req, _, _) = full(b"GET /analyze HTTP/1.1\r\nX-Tenant:\r\n\r\n");
        assert_eq!(req.tenant, None, "empty value = anonymous");
        let (req, _, _) = full(b"GET /analyze HTTP/1.1\r\n\r\n");
        assert_eq!(req.tenant, None);
    }

    #[test]
    fn anytime_statuses_have_reason_phrases() {
        let text = String::from_utf8(response_bytes(202, "application/json", b"{}", true)).unwrap();
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"));
        let text = String::from_utf8(response_bytes(204, "application/json", b"", true)).unwrap();
        assert!(text.starts_with("HTTP/1.1 204 No Content\r\n"));
        assert!(text.contains("Content-Length: 0\r\n"));
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (_, _, keep_alive) = full(raw);
        assert!(!keep_alive);
        let (_, _, keep_alive) = full(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!keep_alive);
        let (_, _, keep_alive) = full(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(keep_alive);
    }

    #[test]
    fn pipelined_requests_consume_one_at_a_time() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (req, consumed, _) = full(raw);
        assert_eq!(req.path, "/a");
        let (req, consumed2, _) = full(&raw[consumed..]);
        assert_eq!(req.path, "/b");
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn partial_requests_are_incomplete_not_errors() {
        for cut in [0, 5, 20, 30] {
            let raw = &b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel"[..];
            let cut = cut.min(raw.len());
            assert!(
                matches!(parse_request(&raw[..cut], 1024), Parse::Incomplete),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_body_is_rejected() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        assert!(matches!(
            parse_request(raw, 1024),
            Parse::Error(ParseError::TooLarge)
        ));
    }

    #[test]
    fn oversized_headers_are_rejected_even_unterminated() {
        let mut raw = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.extend(std::iter::repeat(b'a').take(MAX_HEADER_BYTES + 2));
        assert!(matches!(
            parse_request(&raw, 1024),
            Parse::Error(ParseError::TooLarge)
        ));
    }

    #[test]
    fn garbage_is_malformed() {
        assert!(matches!(
            parse_request(b"NOT A REQUEST\r\n\r\n", 1024),
            Parse::Error(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn transfer_encoding_is_malformed() {
        for raw in [
            &b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"[..],
            b"POST /x HTTP/1.1\r\nContent-Length: 3\r\ntransfer-encoding: gzip, chunked\r\n\r\nabc",
        ] {
            assert!(matches!(
                parse_request(raw, 1024),
                Parse::Error(ParseError::Malformed(_))
            ));
        }
    }

    #[test]
    fn malformed_header_lines_are_rejected_not_trimmed() {
        for raw in [
            &b"POST /x HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello"[..],
            b"POST /x HTTP/1.1\r\n Content-Length: 5\r\n\r\nhello",
            b"POST /x HTTP/1.1\r\nContent-Length 5\r\n\r\nhello",
            b"GET /x HTTP/1.1\r\n: empty name\r\n\r\n",
        ] {
            assert!(
                matches!(
                    parse_request(raw, 1024),
                    Parse::Error(ParseError::Malformed(_))
                ),
                "{}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn conflicting_content_lengths_are_malformed() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nhello";
        assert!(matches!(
            parse_request(raw, 1024),
            Parse::Error(ParseError::Malformed(_))
        ));
        // A repeated identical length frames the body unambiguously.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        let (req, consumed, _) = full(raw);
        assert_eq!(req.body, b"hello");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn response_framing_is_exact() {
        let bytes = response_bytes(200, "application/json", b"{}", true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let bytes = json_response(429, "{\"ok\":false}", false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn traced_responses_carry_the_trace_id_header() {
        let bytes = response_bytes_traced(200, "application/json", b"{}", true, 0xabc);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("X-Trace-Id: 0000000000000abc\r\n"));
        let bytes = response_bytes(200, "application/json", b"{}", true);
        assert!(!String::from_utf8(bytes).unwrap().contains("X-Trace-Id"));
    }
}
