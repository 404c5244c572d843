//! Fleet certificate gossip: pull `/certs/since/<cursor>` from each
//! configured peer on an interval and import whatever verifies.
//!
//! The loop is deliberately dumb on the network side and strict on the
//! proof side: the transport is a plain short-lived HTTP/1.1 GET with
//! socket timeouts, and **every** received record is re-certified by
//! [`gleipnir_core::import_sync`] (the SDP rebuilt from its content
//! address, the stored dual re-proving the stored ε) before it can touch
//! the cache. A malicious, stale, or corrupt peer therefore costs cache
//! misses and a `peer_records_rejected` tick — never an unsound bound.
//!
//! Cursors advance only on a fully decoded body (`import_sync` on a torn
//! body is an `Err`), so a flaky transfer is retried from the same
//! sequence number. Because verified duplicates count as
//! `already_present`, re-pulling from zero — e.g. after this process
//! restarts and its cursor map is empty — is idempotent.

use crate::metrics::Counter;
use crate::server::{persist_now, Shared};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Socket-level timeout for one peer pull (connect, read, write each).
const PEER_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Largest sync body accepted from a peer (matches the order of the
/// store's own record cap; a runaway peer must not balloon memory).
const MAX_SYNC_BODY: usize = 64 << 20;

/// Runs until shutdown: one pull per peer per interval.
pub(crate) fn gossip_loop(shared: &Shared) {
    let mut cursors: HashMap<String, u64> = HashMap::new();
    loop {
        for peer in &shared.config.peers {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let cursor = cursors.get(peer).copied().unwrap_or(0);
            match pull(peer, cursor) {
                Ok(body) => match gleipnir_core::import_sync(&body, &shared.engine) {
                    Ok(stats) => {
                        let m = &shared.metrics;
                        m.inc(Counter::PeerPullOk);
                        m.add(Counter::PeerRecordsReceived, stats.received);
                        m.add(Counter::PeerRecordsAdded, stats.added);
                        m.add(Counter::PeerRecordsRejected, stats.rejected);
                        cursors.insert(peer.clone(), stats.next_seq);
                        if stats.added > 0 {
                            // Route the imports through the one persist
                            // path: they land in the local sequence log
                            // (so sync is transitive) and on disk when
                            // the store is disk-backed.
                            persist_now(shared);
                        }
                    }
                    Err(_reason) => {
                        // Unusable body (bad magic/version, torn framing):
                        // keep the cursor, count the failure, retry next
                        // interval.
                        shared.metrics.inc(Counter::PeerPullErr);
                    }
                },
                Err(_) => {
                    shared.metrics.inc(Counter::PeerPullErr);
                }
            }
        }
        // Interval sleep in small slices so shutdown stays prompt.
        let deadline = Instant::now() + shared.config.peer_interval;
        while Instant::now() < deadline {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

/// One `GET /certs/since/<cursor>` against a peer, returning the raw
/// body. Short-lived connection (`Connection: close`), bounded by socket
/// timeouts and [`MAX_SYNC_BODY`].
fn pull(peer: &str, cursor: u64) -> io::Result<Vec<u8>> {
    let addr = peer
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "peer resolved to no address"))?;
    let mut stream = TcpStream::connect_timeout(&addr, PEER_IO_TIMEOUT)?;
    stream.set_read_timeout(Some(PEER_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(PEER_IO_TIMEOUT))?;
    let request =
        format!("GET /certs/since/{cursor} HTTP/1.1\r\nHost: {peer}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;

    // Read the whole response (the peer closes after it), then split and
    // validate the head.
    let mut raw = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&chunk[..n]);
                if raw.len() > MAX_SYNC_BODY {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "peer response exceeds the sync body cap",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header terminator"))?;
    let head = std::str::from_utf8(&raw[..header_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let status_line = head.lines().next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    if status != 200 {
        return Err(io::Error::new(
            io::ErrorKind::Other,
            format!("peer answered {status}"),
        ));
    }
    let body = raw[header_end + 4..].to_vec();
    // Cross-check Content-Length when present: a short read must not
    // masquerade as a (torn) body — import_sync would reject it anyway,
    // but failing here keeps transport and verification errors distinct.
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let declared: usize = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
                if declared != body.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "short read of peer sync body",
                    ));
                }
            }
        }
    }
    Ok(body)
}
