//! The persistent SDP-certificate store: warm restarts for an [`Engine`].
//!
//! Certificates are expensive to produce (one interior-point SDP solve per
//! gate judgment) but **cheap to re-check**: a stored `(key, ε, y)` record
//! carries the weak-duality dual vector `y`, and the content-address `key`
//! contains the *entire* SDP input (gate matrix, Kraus operators, quantized
//! ρ′, effective δ) as raw bits — so the loader can rebuild the exact
//! problem and re-certify ε from `y` with one eigenvalue computation
//! ([`gleipnir_sdp::SdpProblem::certified_dual_bound_for`]), no
//! interior-point iterations. An entry is imported **only** if its own
//! certificate proves it:
//!
//! ```text
//! ε accepted  ⇔  ε is finite  ∧  ε ≥ max(0, −(bᵀy − max(0, −λ_min(C − Aᵀy))·T))
//! ```
//!
//! which is sound for *any* `y` — a corrupted or adversarial record either
//! fails the structural/checksum layer, fails re-certification, or proves a
//! (possibly weaker) bound that is still a true bound. A bad file therefore
//! degrades to cache misses, never to an unsound ε.
//!
//! ## On-disk format (version 2)
//!
//! One file, `certificates.v2.bin`, designed to be **append-friendly**: a
//! fixed header followed by self-delimiting records, so a crash mid-append
//! loses at most the torn tail (which the next
//! [`CertStore::persist_new`] truncates away before appending).
//!
//! ```text
//! header:  "GLPNCERT" (8 bytes) | version u32 LE | reserved u32 LE
//! record:  payload_len u32 LE | payload | fnv1a64(payload) u64 LE
//! payload: dim u32 | n_kraus u32 | key_len u32 | dual_len u32 |
//!          tier u32 | eps f64 | key: key_len × u64 |
//!          dual: dual_len × f64                                  (all LE)
//! ```
//!
//! `tier` is always `0` (a cold interior-point solve) and any other value
//! is rejected. Older binaries could stamp `1` on warm-started ε bits; such
//! a record fails verification like any corrupt one, so its key degrades
//! to a cache miss and is re-solved cold.
//!
//! When one key appears more than once the **last** record wins (append =
//! supersede). A version bump makes old files *stale*: the loader rejects
//! the header wholesale and the next persist rewrites the store.
//!
//! ## Fleet sync
//!
//! Every store (disk-backed or [`CertStore::ephemeral`]) also maintains an
//! in-memory **sequence log**: each verified certificate the store has ever
//! seen (loaded, appended, or imported) occupies one monotonically
//! increasing slot. [`CertStore::encode_since`] serializes the suffix of
//! that log after a cursor into a self-delimiting wire body (the same
//! framed-record codec as the file), and [`import_sync`] on the receiving
//! side re-runs the **full certificate verification** — the SDP is rebuilt
//! from each record's content address and the stored dual must re-prove the
//! stored ε via [`gleipnir_sdp::SdpProblem::certified_dual_bound_for`] —
//! before anything touches the engine cache. A malicious, stale, or corrupt
//! peer can therefore cause cache misses, never an unsound bound: the trust
//! boundary is the certificate check, not the transport.

use crate::diamond::{rho_delta_problem, unconstrained_problem};
use crate::engine::{Certificate, KEY_RHO_DELTA, KEY_SEP, KEY_UNCONSTRAINED};
use crate::Engine;
use gleipnir_linalg::{c64, CMat};
use gleipnir_noise::Channel;
use std::collections::{HashMap, HashSet};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"GLPNCERT";
/// Fleet-sync wire header magic ([`CertStore::encode_since`]).
const SYNC_MAGIC: &[u8; 8] = b"GLPNSYNC";
const VERSION: u32 = 2;
const HEADER_LEN: u64 = 16;
/// Hard cap on a single record's payload (a corrupt length field must not
/// allocate gigabytes).
const MAX_PAYLOAD: u32 = 16 << 20;
const FILE_NAME: &str = "certificates.v2.bin";

/// What a [`CertStore::load_into`] pass found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Entries imported into the engine's cache (each re-certified from its
    /// stored dual vector).
    pub loaded: usize,
    /// Records that failed structural, checksum, or certificate
    /// re-verification and were treated as misses.
    pub rejected: usize,
    /// Entries skipped because the engine already held the key.
    pub already_present: usize,
    /// Whether the scan stopped early at a torn or corrupt tail (the next
    /// persist truncates it away).
    pub truncated: bool,
}

/// A handle on one on-disk certificate store directory.
///
/// Typical lifecycle: [`CertStore::open`] → [`CertStore::load_into`] (warm
/// the engine) → analyses → [`CertStore::persist_new`] (append only the
/// certificates not yet on disk, possibly repeatedly).
#[derive(Debug)]
pub struct CertStore {
    /// `None` for an [`CertStore::ephemeral`] store: the sequence log and
    /// persisted-set still work, nothing ever touches disk.
    path: Option<PathBuf>,
    /// Keys known to be represented by a *valid* record on disk (loaded or
    /// appended by us). Rejected records are deliberately absent so a fresh
    /// solve of the same judgment is re-persisted, superseding them.
    persisted: HashSet<Vec<u64>>,
    /// Byte offset just past the last structurally valid record, once
    /// known. Appends truncate to this first, healing torn tails.
    valid_len: Option<u64>,
    /// The engine cache's insert counter as of the last `persist_new`.
    /// When unchanged, nothing new can need writing, so the whole-cache
    /// export is skipped — keeps per-request persistence O(1) on the
    /// (common) warm path instead of O(entries).
    last_insert_count: Option<usize>,
    /// The fleet-sync sequence log: every certificate-verified record this
    /// store knows, in the order it learned of them. Slot `i` is sequence
    /// number `i`; [`CertStore::next_seq`] is the log length. Keys are
    /// deduplicated (a key's certificate never changes once verified, so
    /// re-learning it is a no-op).
    log: Vec<(Vec<u64>, Certificate)>,
    /// Keys already present in `log` (dedup guard).
    logged: HashSet<Vec<u64>>,
}

impl CertStore {
    /// Opens (creating if needed) the store directory. The file itself is
    /// not read until [`CertStore::load_into`] / [`CertStore::persist_new`].
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<CertStore> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        Ok(CertStore {
            path: Some(dir.join(FILE_NAME)),
            persisted: HashSet::new(),
            valid_len: None,
            last_insert_count: None,
            log: Vec::new(),
            logged: HashSet::new(),
        })
    }

    /// An in-memory store: the sequence log (and therefore fleet sync)
    /// works exactly as for a disk-backed store, but nothing is ever
    /// written to or read from disk. This is what a server without a
    /// `--cache-dir` uses so its certificates are still shareable.
    pub fn ephemeral() -> CertStore {
        CertStore {
            path: None,
            persisted: HashSet::new(),
            valid_len: Some(0),
            last_insert_count: None,
            log: Vec::new(),
            logged: HashSet::new(),
        }
    }

    /// The store file path (inside the directory passed to `open`); `None`
    /// for an [`CertStore::ephemeral`] store.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Appends a verified certificate to the sequence log (idempotent per
    /// key).
    fn log_record(&mut self, key: &[u64], cert: &Certificate) {
        if self.logged.insert(key.to_vec()) {
            self.log.push((key.to_vec(), cert.clone()));
        }
    }

    /// The sequence number the *next* learned certificate will get — i.e.
    /// the cursor a fully caught-up peer holds. `encode_since(next_seq())`
    /// is an empty delta.
    pub fn next_seq(&self) -> u64 {
        self.log.len() as u64
    }

    /// Serializes every logged certificate with sequence number ≥ `seq`
    /// into the fleet-sync wire format:
    ///
    /// ```text
    /// "GLPNSYNC" (8 bytes) | version u32 LE | next_seq u64 LE | count u32 LE
    /// record*:  payload_len u32 LE | payload | fnv1a64(payload) u64 LE
    /// ```
    ///
    /// (the per-record framing is byte-identical to the on-disk codec).
    /// A cursor past the end of the log yields a valid empty delta.
    pub fn encode_since(&self, seq: u64) -> Vec<u8> {
        let start = (seq.min(self.next_seq())) as usize;
        let tail = &self.log[start..];
        let mut out = Vec::with_capacity(24 + tail.len() * 256);
        out.extend_from_slice(SYNC_MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.next_seq().to_le_bytes());
        out.extend_from_slice(&(tail.len() as u32).to_le_bytes());
        for (key, cert) in tail {
            encode_record(&mut out, key, cert);
        }
        out
    }

    /// Loads the store into the engine's shared cache. Every record is
    /// structurally validated (framing + checksum), then **re-certified**:
    /// the SDP is rebuilt from the record's content address and the stored
    /// dual vector must re-prove the stored ε. Anything that fails is
    /// counted in [`LoadStats::rejected`] and skipped — a corrupted or
    /// stale file degrades to cache misses, never to an unsound bound.
    ///
    /// # Errors
    ///
    /// Only on I/O failure reading an *existing* file; a missing file is an
    /// empty store.
    pub fn load_into(&mut self, engine: &Engine) -> io::Result<LoadStats> {
        let scan = match self.scan()? {
            Some(scan) => scan,
            None => return Ok(LoadStats::default()),
        };
        let mut stats = LoadStats {
            truncated: scan.truncated,
            ..LoadStats::default()
        };
        // Last record per key wins; superseded duplicates are not errors.
        let mut by_key: HashMap<Vec<u64>, Record> = HashMap::new();
        for record in scan.records {
            by_key.insert(record.key.clone(), record);
        }
        let cache = engine.sdp_cache();
        for (key, record) in by_key {
            // Certificate-verify BEFORE marking the key persisted: an
            // unverifiable record must not block `persist_new` from later
            // appending a fresh, valid certificate that supersedes it —
            // even when the engine already holds the key in memory.
            match verify_record(&record) {
                Ok(cert) => {
                    self.persisted.insert(key.clone());
                    self.log_record(&key, &cert);
                    if cache.contains(&key) {
                        stats.already_present += 1;
                    } else {
                        cache.insert(key, cert);
                        stats.loaded += 1;
                    }
                }
                Err(_reason) => stats.rejected += 1,
            }
        }
        Ok(stats)
    }

    /// Appends every certificate the engine holds that this store has not
    /// yet persisted, returning how many records were written. Truncates a
    /// torn/corrupt tail (and rewrites a missing or stale header) first, so
    /// repeated calls are cheap and the file stays loadable.
    ///
    /// # Errors
    ///
    /// Any I/O error while scanning, truncating, or appending.
    pub fn persist_new(&mut self, engine: &Engine) -> io::Result<usize> {
        // Cheap change detection: if the cache has seen no insert since
        // the last persist, there is nothing new by construction — skip
        // the O(entries) export entirely (the per-request warm path).
        let insert_snapshot = engine.sdp_cache().insert_count();
        if self.last_insert_count == Some(insert_snapshot) {
            return Ok(0);
        }
        if self.valid_len.is_none() {
            // First touch: learn which keys are already on disk so appends
            // stay incremental across process restarts. Only
            // certificate-verified records count — a checksummed-but-
            // unverifiable record must be superseded by the fresh solve,
            // not shadow it forever.
            if let Some(scan) = self.scan()? {
                let mut by_key: HashMap<Vec<u64>, Record> = HashMap::new();
                for record in scan.records {
                    by_key.insert(record.key.clone(), record);
                }
                for (key, record) in by_key {
                    if let Ok(cert) = verify_record(&record) {
                        self.log_record(&key, &cert);
                        self.persisted.insert(key);
                    }
                }
            }
        }
        let fresh: Vec<(Vec<u64>, Certificate)> = engine
            .sdp_cache()
            .export()
            .into_iter()
            // A certificate without a weak-duality dual vector could never
            // re-certify on load (re-verification needs `y`), so it must
            // not be written.
            .filter(|(key, cert)| !cert.dual.is_empty() && !self.persisted.contains(key))
            .collect();
        if fresh.is_empty() {
            self.last_insert_count = Some(insert_snapshot);
            return Ok(0);
        }
        let mut buf = Vec::new();
        let mut written = 0usize;
        for (key, cert) in fresh {
            encode_record(&mut buf, &key, &cert);
            self.log_record(&key, &cert);
            self.persisted.insert(key);
            written += 1;
        }
        if let Some(path) = &self.path {
            let mut file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .open(path)?;
            let valid_len = self.valid_len.unwrap_or(0);
            if valid_len < HEADER_LEN {
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                let mut header = Vec::with_capacity(HEADER_LEN as usize);
                header.extend_from_slice(MAGIC);
                header.extend_from_slice(&VERSION.to_le_bytes());
                header.extend_from_slice(&0u32.to_le_bytes());
                file.write_all(&header)?;
                self.valid_len = Some(HEADER_LEN);
            } else {
                // Heal a torn tail before appending after it.
                file.set_len(valid_len)?;
                file.seek(SeekFrom::Start(valid_len))?;
            }
            file.write_all(&buf)?;
            file.flush()?;
            self.valid_len = Some(self.valid_len.unwrap_or(HEADER_LEN) + buf.len() as u64);
        }
        self.last_insert_count = Some(insert_snapshot);
        Ok(written)
    }

    /// Structurally scans the file: header, then records until EOF or the
    /// first invalid frame. `None` means the file does not exist.
    fn scan(&mut self) -> io::Result<Option<ScanOutcome>> {
        let Some(path) = &self.path else {
            self.valid_len = Some(0);
            return Ok(None);
        };
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.valid_len = Some(0);
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        if bytes.len() < HEADER_LEN as usize
            || &bytes[..8] != MAGIC
            || u32::from_le_bytes(bytes[8..12].try_into().unwrap()) != VERSION
        {
            // Stale or foreign file: everything it holds is a miss, and the
            // next persist rewrites it from scratch.
            self.valid_len = Some(0);
            return Ok(Some(ScanOutcome {
                records: Vec::new(),
                truncated: true,
            }));
        }
        let mut records = Vec::new();
        let mut offset = HEADER_LEN as usize;
        let mut truncated = false;
        while offset < bytes.len() {
            match decode_record(&bytes[offset..]) {
                Some((record, consumed)) => {
                    records.push(record);
                    offset += consumed;
                }
                None => {
                    truncated = true;
                    break;
                }
            }
        }
        self.valid_len = Some(offset as u64);
        Ok(Some(ScanOutcome { records, truncated }))
    }
}

/// What one [`import_sync`] pass over a peer's wire delta found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Structurally valid records decoded from the wire body.
    pub received: usize,
    /// Records that passed full certificate re-verification and were
    /// inserted into the engine's cache.
    pub added: usize,
    /// Verified records whose key the engine already held (idempotent
    /// re-sync).
    pub already_present: usize,
    /// Records that failed certificate re-verification (malicious, stale,
    /// or corrupt peers land here — as cache misses, never as bounds).
    pub rejected: usize,
    /// The peer's log cursor after this delta: pass it back as the next
    /// `/certs/since/<seq>` request.
    pub next_seq: u64,
}

/// Imports a fleet-sync wire body (produced by [`CertStore::encode_since`])
/// into an engine's certificate cache. Every record is **re-certified**
/// exactly like a disk load — the SDP is rebuilt from the content address
/// and the stored dual vector must re-prove the stored ε via
/// [`gleipnir_sdp::SdpProblem::certified_dual_bound_for`] — before it is
/// inserted; anything that fails counts as [`SyncStats::rejected`]. Nothing
/// is persisted here: the imported certificates land in the cache, and the
/// next [`CertStore::persist_new`] appends them to the local store (and
/// sequence log) through the one existing write path.
///
/// # Errors
///
/// A human-readable reason when the body itself is unusable (bad magic,
/// stale version, or torn framing). Per-record verification failures are
/// *not* errors — they are the expected containment path for bad peers.
pub fn import_sync(bytes: &[u8], engine: &Engine) -> Result<SyncStats, String> {
    if bytes.len() < 24 {
        return Err("sync body shorter than its header".into());
    }
    if &bytes[..8] != SYNC_MAGIC {
        return Err("bad sync magic".into());
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(format!("unsupported sync version {version}"));
    }
    let next_seq = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let count = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
    let mut stats = SyncStats {
        next_seq,
        ..SyncStats::default()
    };
    let cache = engine.sdp_cache();
    let mut offset = 24usize;
    for _ in 0..count {
        let Some((record, consumed)) = decode_record(&bytes[offset..]) else {
            return Err(format!(
                "torn sync body: record {} of {count} undecodable",
                stats.received + 1
            ));
        };
        offset += consumed;
        stats.received += 1;
        match verify_record(&record) {
            Ok(cert) => {
                if cache.contains(&record.key) {
                    stats.already_present += 1;
                } else {
                    cache.insert(record.key.clone(), cert);
                    stats.added += 1;
                }
            }
            Err(_reason) => stats.rejected += 1,
        }
    }
    if offset != bytes.len() {
        return Err("trailing bytes after the declared sync records".into());
    }
    Ok(stats)
}

struct ScanOutcome {
    records: Vec<Record>,
    truncated: bool,
}

/// A structurally valid (framed + checksummed) raw record, not yet
/// certificate-verified.
struct Record {
    dim: u32,
    n_kraus: u32,
    tier: u32,
    eps: f64,
    key: Vec<u64>,
    dual: Vec<f64>,
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn encode_record(out: &mut Vec<u8>, key: &[u64], cert: &Certificate) {
    // Every cached certificate comes from a cold solve (tier 0).
    let tier: u32 = 0;
    let mut payload = Vec::with_capacity(28 + key.len() * 8 + cert.dual.len() * 8);
    payload.extend_from_slice(&cert.dim.to_le_bytes());
    payload.extend_from_slice(&cert.n_kraus.to_le_bytes());
    payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
    payload.extend_from_slice(&(cert.dual.len() as u32).to_le_bytes());
    payload.extend_from_slice(&tier.to_le_bytes());
    payload.extend_from_slice(&cert.eps.to_le_bytes());
    for w in key {
        payload.extend_from_slice(&w.to_le_bytes());
    }
    for v in cert.dual.iter() {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
}

/// Decodes one record from the front of `bytes`; `None` on any framing or
/// checksum violation (the scan stops there — everything after an
/// undecodable frame is unreachable).
fn decode_record(bytes: &[u8]) -> Option<(Record, usize)> {
    if bytes.len() < 4 {
        return None;
    }
    let payload_len = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    if payload_len > MAX_PAYLOAD {
        return None;
    }
    let payload_len = payload_len as usize;
    let total = 4 + payload_len + 8;
    if bytes.len() < total || payload_len < 28 {
        return None;
    }
    let payload = &bytes[4..4 + payload_len];
    let stored_sum = u64::from_le_bytes(bytes[4 + payload_len..total].try_into().unwrap());
    if fnv1a64(payload) != stored_sum {
        return None;
    }
    let dim = u32::from_le_bytes(payload[0..4].try_into().unwrap());
    let n_kraus = u32::from_le_bytes(payload[4..8].try_into().unwrap());
    let key_len = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
    let dual_len = u32::from_le_bytes(payload[12..16].try_into().unwrap()) as usize;
    if payload_len != 28 + key_len * 8 + dual_len * 8 {
        return None;
    }
    let tier = u32::from_le_bytes(payload[16..20].try_into().unwrap());
    let eps = f64::from_le_bytes(payload[20..28].try_into().unwrap());
    let mut key = Vec::with_capacity(key_len);
    let mut off = 28;
    for _ in 0..key_len {
        key.push(u64::from_le_bytes(
            payload[off..off + 8].try_into().unwrap(),
        ));
        off += 8;
    }
    let mut dual = Vec::with_capacity(dual_len);
    for _ in 0..dual_len {
        dual.push(f64::from_le_bytes(
            payload[off..off + 8].try_into().unwrap(),
        ));
        off += 8;
    }
    Some((
        Record {
            dim,
            n_kraus,
            tier,
            eps,
            key,
            dual,
        },
        total,
    ))
}

/// Parses a complex matrix from `2·d·d` key words (the layout
/// `engine::push_mat` wrote: row-major, re/im bit pairs). Rejects
/// non-finite entries — they cannot have come from a real solve.
fn parse_mat(words: &[u64], d: usize) -> Option<CMat> {
    debug_assert_eq!(words.len(), 2 * d * d);
    let mut ok = true;
    let m = CMat::from_fn(d, d, |i, j| {
        let re = f64::from_bits(words[2 * (i * d + j)]);
        let im = f64::from_bits(words[2 * (i * d + j) + 1]);
        ok &= re.is_finite() && im.is_finite();
        c64(re, im)
    });
    ok.then_some(m)
}

/// Validates Kraus operators *without* panicking (unlike
/// [`Channel::from_kraus`], which asserts): dimensions consistent and
/// `Σ K†K = I` to the channel constructor's own tolerance.
fn channel_from_kraus_checked(kraus: Vec<CMat>, d: usize) -> Option<Channel> {
    if kraus.is_empty() || (d != 2 && d != 4) {
        return None;
    }
    let mut sum = CMat::zeros(d, d);
    for k in &kraus {
        if k.rows() != d || k.cols() != d {
            return None;
        }
        sum = &sum + &k.adjoint_mul(k);
    }
    if !sum.approx_eq(&CMat::identity(d), 1e-9) {
        return None;
    }
    Some(Channel::from_kraus("persisted", kraus))
}

/// Certificate-verifies a raw record: rebuilds the exact SDP the content
/// address describes and requires the stored dual vector to re-prove the
/// stored ε. Returns the importable [`Certificate`] or a rejection reason.
fn verify_record(record: &Record) -> Result<Certificate, String> {
    if !record.eps.is_finite() || record.eps < 0.0 {
        return Err("non-finite or negative ε".into());
    }
    if record.tier != 0 {
        return Err(format!("unknown tier {}", record.tier));
    }
    let d = record.dim as usize;
    let n_kraus = record.n_kraus as usize;
    if !(d == 2 || d == 4) || n_kraus == 0 || n_kraus > 64 {
        return Err("implausible dimensions".into());
    }
    let dd2 = 2 * d * d; // words per matrix
    let key = &record.key;
    let (problem, trace_bound) = match key.first() {
        Some(&KEY_RHO_DELTA) => {
            // [tag][gate][SEP][kraus…][SEP][ρ_q][bucket][quantum][iters][tol]
            let expect = 1 + dd2 + 1 + n_kraus * dd2 + 1 + dd2 + 2 + 2;
            if key.len() != expect
                || key[1 + dd2] != KEY_SEP
                || key[2 + dd2 + n_kraus * dd2] != KEY_SEP
            {
                return Err("key layout mismatch".into());
            }
            let gate = parse_mat(&key[1..1 + dd2], d).ok_or("non-finite gate matrix")?;
            let mut kraus = Vec::with_capacity(n_kraus);
            let mut off = 2 + dd2;
            for _ in 0..n_kraus {
                kraus.push(parse_mat(&key[off..off + dd2], d).ok_or("non-finite Kraus")?);
                off += dd2;
            }
            off += 1; // second separator
            let rho_q = parse_mat(&key[off..off + dd2], d).ok_or("non-finite ρ′")?;
            off += dd2;
            let bucket = key[off];
            let quantum = f64::from_bits(key[off + 1]);
            if bucket == 0 || !quantum.is_finite() || quantum <= 0.0 {
                return Err("invalid δ bucket".into());
            }
            let delta_eff = bucket as f64 * quantum;
            if !delta_eff.is_finite() {
                return Err("δ_eff overflows".into());
            }
            let noisy = channel_from_kraus_checked(kraus, d).ok_or("invalid Kraus set")?;
            rho_delta_problem(&gate, &noisy, &rho_q, delta_eff).map_err(|e| e.to_string())?
        }
        Some(&KEY_UNCONSTRAINED) => {
            // [tag][gate][SEP][kraus…][iters][tol]
            let expect = 1 + dd2 + 1 + n_kraus * dd2 + 2;
            if key.len() != expect || key[1 + dd2] != KEY_SEP {
                return Err("key layout mismatch".into());
            }
            let gate = parse_mat(&key[1..1 + dd2], d).ok_or("non-finite gate matrix")?;
            let mut kraus = Vec::with_capacity(n_kraus);
            let mut off = 2 + dd2;
            for _ in 0..n_kraus {
                kraus.push(parse_mat(&key[off..off + dd2], d).ok_or("non-finite Kraus")?);
                off += dd2;
            }
            let noisy = channel_from_kraus_checked(kraus, d).ok_or("invalid Kraus set")?;
            unconstrained_problem(&gate, &noisy).map_err(|e| e.to_string())?
        }
        _ => return Err("unknown key tag".into()),
    };
    let lower = problem
        .certified_dual_bound_for(&record.dual, trace_bound)
        .map_err(|e| e.to_string())?;
    let recertified = (-lower).max(0.0);
    if !recertified.is_finite() {
        return Err("re-certification produced a non-finite bound".into());
    }
    // ε is sound iff it dominates what its own certificate proves. A solve
    // stored ε == re-certified bound bit for bit; anything *below* the
    // certified value cannot be trusted.
    if record.eps < recertified {
        return Err(format!(
            "stored ε {:e} below its re-certified bound {:e}",
            record.eps, recertified
        ));
    }
    Ok(Certificate {
        eps: record.eps,
        dim: record.dim,
        n_kraus: record.n_kraus,
        dual: Arc::new(record.dual.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisRequest, Method};
    use gleipnir_circuit::ProgramBuilder;
    use gleipnir_noise::NoiseModel;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gleipnir-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn populating_request() -> AnalysisRequest {
        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(0, 1).x(1).cnot(0, 1);
        AnalysisRequest::builder(b.build())
            .noise(NoiseModel::uniform_bit_flip(1e-4))
            .method(Method::StateAware { mps_width: 4 })
            .build()
            .unwrap()
    }

    fn populated_engine() -> Engine {
        let engine = Engine::new();
        engine.analyze(&populating_request()).unwrap();
        assert!(engine.cache_stats().entries > 0);
        engine
    }

    #[test]
    fn round_trip_restores_every_certificate() {
        let dir = tmpdir("roundtrip");
        let engine = populated_engine();
        let entries = engine.cache_stats().entries;
        let mut store = CertStore::open(&dir).unwrap();
        assert_eq!(store.persist_new(&engine).unwrap(), entries);
        // Idempotent: nothing new to write.
        assert_eq!(store.persist_new(&engine).unwrap(), 0);

        let fresh = Engine::new();
        let mut store2 = CertStore::open(&dir).unwrap();
        let stats = store2.load_into(&fresh).unwrap();
        assert_eq!(stats.loaded, entries, "{stats:?}");
        assert_eq!(stats.rejected, 0);
        assert!(!stats.truncated);
        assert_eq!(fresh.cache_stats().entries, entries);
        // The restored certificates carry the exact ε bits.
        let mut original = engine.sdp_cache().export();
        let mut restored = fresh.sdp_cache().export();
        original.sort_by(|a, b| a.0.cmp(&b.0));
        restored.sort_by(|a, b| a.0.cmp(&b.0));
        for ((ka, ca), (kb, cb)) in original.iter().zip(restored.iter()) {
            assert_eq!(ka, kb);
            assert_eq!(ca.eps.to_bits(), cb.eps.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_degrades_to_misses() {
        let dir = tmpdir("truncate");
        let engine = populated_engine();
        let mut store = CertStore::open(&dir).unwrap();
        let written = store.persist_new(&engine).unwrap();
        assert!(written >= 2, "need ≥ 2 records to truncate mid-stream");
        let path = store.path().unwrap().to_path_buf();
        let bytes = std::fs::read(&path).unwrap();
        // Cut into the middle of the last record.
        std::fs::write(&path, &bytes[..bytes.len() - 11]).unwrap();

        let fresh = Engine::new();
        let stats = CertStore::open(&dir).unwrap().load_into(&fresh).unwrap();
        assert!(stats.truncated, "torn tail must be reported");
        assert_eq!(stats.loaded, written - 1, "only the torn record is lost");
        assert_eq!(stats.rejected, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_rejects_the_record() {
        let dir = tmpdir("bitflip");
        let engine = populated_engine();
        let mut store = CertStore::open(&dir).unwrap();
        let written = store.persist_new(&engine).unwrap();
        let path = store.path().unwrap().to_path_buf();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside the *first* record's payload (after the
        // header and the 4-byte length). The checksum must catch it; the
        // scan then stops (the frame is untrusted), so everything from the
        // flipped record on reads as missing — misses, not bad bounds.
        let target = HEADER_LEN as usize + 4 + 9;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let fresh = Engine::new();
        let stats = CertStore::open(&dir).unwrap().load_into(&fresh).unwrap();
        assert!(stats.truncated);
        assert_eq!(stats.loaded, 0);
        assert_eq!(fresh.cache_stats().entries, 0);
        assert!(written > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Maliciously *lowers* the first record's ε (claiming a tighter bound
    /// than was ever certified) and recomputes the checksum so the
    /// structural layer passes — only certificate re-verification can
    /// catch this.
    fn tamper_first_eps(path: &Path) {
        let mut bytes = std::fs::read(path).unwrap();
        let rec_start = HEADER_LEN as usize;
        let payload_len =
            u32::from_le_bytes(bytes[rec_start..rec_start + 4].try_into().unwrap()) as usize;
        let payload_start = rec_start + 4;
        let eps_off = payload_start + 20;
        let eps = f64::from_le_bytes(bytes[eps_off..eps_off + 8].try_into().unwrap());
        let lowered = eps * 0.5;
        bytes[eps_off..eps_off + 8].copy_from_slice(&lowered.to_le_bytes());
        let sum = fnv1a64(&bytes[payload_start..payload_start + payload_len]);
        let sum_off = payload_start + payload_len;
        bytes[sum_off..sum_off + 8].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn tampered_eps_with_fixed_checksum_fails_recertification() {
        let dir = tmpdir("tamper");
        let engine = populated_engine();
        let mut store = CertStore::open(&dir).unwrap();
        let written = store.persist_new(&engine).unwrap();
        let path = store.path().unwrap().to_path_buf();
        tamper_first_eps(&path);

        let fresh = Engine::new();
        let stats = CertStore::open(&dir).unwrap().load_into(&fresh).unwrap();
        assert_eq!(stats.rejected, 1, "{stats:?}");
        assert_eq!(stats.loaded, written - 1);
        assert!(!stats.truncated, "structurally the file is intact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rewrites the tier field of the record framed at `rec_start` and
    /// fixes its checksum so the structural layer still passes.
    fn retag_tier(bytes: &mut [u8], rec_start: usize, tier: u32) {
        let payload_len =
            u32::from_le_bytes(bytes[rec_start..rec_start + 4].try_into().unwrap()) as usize;
        let payload_start = rec_start + 4;
        let tier_off = payload_start + 16;
        bytes[tier_off..tier_off + 4].copy_from_slice(&tier.to_le_bytes());
        let sum = fnv1a64(&bytes[payload_start..payload_start + payload_len]);
        let sum_off = payload_start + payload_len;
        bytes[sum_off..sum_off + 8].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn tier_field_round_trips_and_unknown_tiers_are_rejected() {
        let dir = tmpdir("tier");
        let engine = populated_engine();
        let entries = engine.cache_stats().entries;
        let mut store = CertStore::open(&dir).unwrap();
        store.persist_new(&engine).unwrap();
        let path = store.path().unwrap().to_path_buf();
        let pristine = std::fs::read(&path).unwrap();
        let (first, _) = decode_record(&pristine[HEADER_LEN as usize..]).unwrap();
        assert_eq!(first.tier, 0, "every record is written cold");

        // Tier 1 (stamped on warm-started ε bits by older binaries) and an
        // unknown value alike are rejections, not guesses.
        for tier in [1, 7] {
            let mut bytes = pristine.clone();
            retag_tier(&mut bytes, HEADER_LEN as usize, tier);
            std::fs::write(&path, &bytes).unwrap();
            let fresh = Engine::new();
            let stats = CertStore::open(&dir).unwrap().load_into(&fresh).unwrap();
            assert_eq!(stats.rejected, 1, "tier {tier}: {stats:?}");
            assert_eq!(stats.loaded, entries - 1);
            assert!(!fresh.sdp_cache().contains(&first.key));

            // The rejected key is a plain miss: the next analysis re-solves
            // it cold, reproducing the original ε bits.
            let report = fresh.analyze(&populating_request()).unwrap();
            assert_eq!(report.sdp_solves(), 1, "tier {tier}");
            let resolved = fresh
                .sdp_cache()
                .export()
                .into_iter()
                .find(|(k, _)| *k == first.key)
                .expect("re-solved key is cached")
                .1;
            assert_eq!(resolved.eps.to_bits(), first.eps.to_bits(), "tier {tier}");
        }

        // The same record arriving from a peer is rejected by fleet sync.
        // Records follow the 24-byte sync header.
        let mut sync = store.encode_since(0);
        retag_tier(&mut sync, 24, 1);
        let stats = import_sync(&sync, &Engine::new()).unwrap();
        assert_eq!(stats.rejected, 1, "{stats:?}");
        assert_eq!(stats.added, entries - 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_without_load_supersedes_unverifiable_records() {
        // A fresh process may call open() + persist_new() without ever
        // loading. An on-disk record that would fail certificate
        // re-verification must NOT count as persisted, or the engine's
        // valid certificate for that key could never supersede it.
        let dir = tmpdir("supersede");
        let engine = populated_engine();
        let entries = engine.cache_stats().entries;
        CertStore::open(&dir).unwrap().persist_new(&engine).unwrap();
        let path = CertStore::open(&dir).unwrap().path().unwrap().to_path_buf();
        tamper_first_eps(&path);

        // New store handle, no load_into: the tampered key must be
        // re-appended from the engine's good certificate.
        let mut store = CertStore::open(&dir).unwrap();
        assert_eq!(store.persist_new(&engine).unwrap(), 1);

        // The appended (last-wins) record heals the store completely.
        let fresh = Engine::new();
        let stats = CertStore::open(&dir).unwrap().load_into(&fresh).unwrap();
        assert_eq!(stats.loaded, entries, "{stats:?}");
        assert_eq!(stats.rejected, 0, "superseded record no longer consulted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_version_is_rejected_wholesale_then_rewritten() {
        let dir = tmpdir("stale");
        let engine = populated_engine();
        let mut store = CertStore::open(&dir).unwrap();
        store.persist_new(&engine).unwrap();
        let path = store.path().unwrap().to_path_buf();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 99; // version → 99
        std::fs::write(&path, &bytes).unwrap();

        let fresh = Engine::new();
        let mut store2 = CertStore::open(&dir).unwrap();
        let stats = store2.load_into(&fresh).unwrap();
        assert_eq!(stats.loaded, 0);
        assert_eq!(fresh.cache_stats().entries, 0);
        // A persist against the stale file rewrites it from scratch…
        let rewritten = store2.persist_new(&engine).unwrap();
        assert_eq!(rewritten, engine.cache_stats().entries);
        // …and the rewritten store loads cleanly.
        let reloaded = Engine::new();
        let stats = CertStore::open(&dir).unwrap().load_into(&reloaded).unwrap();
        assert_eq!(stats.loaded, rewritten);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_delta_round_trips_into_a_fresh_engine() {
        let engine = populated_engine();
        let entries = engine.cache_stats().entries;
        let mut store = CertStore::ephemeral();
        assert_eq!(store.persist_new(&engine).unwrap(), entries);
        assert_eq!(store.next_seq(), entries as u64);

        // Full delta into a fresh engine: everything verifies and imports.
        let fresh = Engine::new();
        let stats = import_sync(&store.encode_since(0), &fresh).unwrap();
        assert_eq!(stats.received, entries);
        assert_eq!(stats.added, entries, "{stats:?}");
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.next_seq, store.next_seq());
        assert_eq!(fresh.cache_stats().entries, entries);

        // Idempotent: a second import of the same delta adds nothing.
        let again = import_sync(&store.encode_since(0), &fresh).unwrap();
        assert_eq!(again.added, 0);
        assert_eq!(again.already_present, entries);

        // A caught-up cursor yields a valid, empty delta.
        let empty = import_sync(&store.encode_since(store.next_seq()), &fresh).unwrap();
        assert_eq!(empty.received, 0);
        assert_eq!(empty.next_seq, store.next_seq());

        // Imported bits are exact.
        let mut original = engine.sdp_cache().export();
        let mut imported = fresh.sdp_cache().export();
        original.sort_by(|a, b| a.0.cmp(&b.0));
        imported.sort_by(|a, b| a.0.cmp(&b.0));
        for ((ka, ca), (kb, cb)) in original.iter().zip(imported.iter()) {
            assert_eq!(ka, kb);
            assert_eq!(ca.eps.to_bits(), cb.eps.to_bits());
        }
    }

    #[test]
    fn sync_record_with_lowered_eps_and_fixed_checksum_is_rejected() {
        let engine = populated_engine();
        let entries = engine.cache_stats().entries;
        let mut store = CertStore::ephemeral();
        store.persist_new(&engine).unwrap();
        let mut bytes = store.encode_since(0);

        // Maliciously halve the first record's ε and re-checksum it so the
        // structural layer passes — only re-certification can catch this.
        let rec_start = 24usize; // sync header
        let payload_len =
            u32::from_le_bytes(bytes[rec_start..rec_start + 4].try_into().unwrap()) as usize;
        let payload_start = rec_start + 4;
        let eps_off = payload_start + 20;
        let eps = f64::from_le_bytes(bytes[eps_off..eps_off + 8].try_into().unwrap());
        bytes[eps_off..eps_off + 8].copy_from_slice(&(eps * 0.5).to_le_bytes());
        let sum = fnv1a64(&bytes[payload_start..payload_start + payload_len]);
        let sum_off = payload_start + payload_len;
        bytes[sum_off..sum_off + 8].copy_from_slice(&sum.to_le_bytes());

        let fresh = Engine::new();
        let stats = import_sync(&bytes, &fresh).unwrap();
        assert_eq!(stats.rejected, 1, "{stats:?}");
        assert_eq!(stats.added, entries - 1);
        assert_eq!(fresh.cache_stats().entries, entries - 1);

        // A torn body is an error (the cursor must not advance), not a
        // partial import.
        let torn = &store.encode_since(0)[..bytes.len() - 5];
        assert!(import_sync(torn, &fresh).is_err());
    }

    #[test]
    fn disk_load_rebuilds_the_sequence_log() {
        let dir = tmpdir("seqlog");
        let engine = populated_engine();
        let entries = engine.cache_stats().entries;
        let mut store = CertStore::open(&dir).unwrap();
        store.persist_new(&engine).unwrap();
        assert_eq!(store.next_seq(), entries as u64);

        // A restart that only loads sees the same log length, and its
        // delta re-imports idempotently.
        let fresh = Engine::new();
        let mut store2 = CertStore::open(&dir).unwrap();
        store2.load_into(&fresh).unwrap();
        assert_eq!(store2.next_seq(), entries as u64);
        let stats = import_sync(&store2.encode_since(0), &fresh).unwrap();
        assert_eq!(stats.added, 0);
        assert_eq!(stats.already_present, entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_after_torn_tail_heals_the_file() {
        let dir = tmpdir("heal");
        let engine = populated_engine();
        let mut store = CertStore::open(&dir).unwrap();
        let first = store.persist_new(&engine).unwrap();
        let path = store.path().unwrap().to_path_buf();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap(); // torn tail

        // A new process appends more certificates after healing the tail.
        let engine2 = populated_engine();
        let mut b = ProgramBuilder::new(2);
        b.rz(0, 0.123).cnot(0, 1);
        let request = AnalysisRequest::builder(b.build())
            .noise(NoiseModel::uniform_bit_flip(2e-4))
            .method(Method::StateAware { mps_width: 4 })
            .build()
            .unwrap();
        engine2.analyze(&request).unwrap();
        let mut store2 = CertStore::open(&dir).unwrap();
        let appended = store2.persist_new(&engine2).unwrap();
        assert!(appended > 0);

        let fresh = Engine::new();
        let stats = CertStore::open(&dir).unwrap().load_into(&fresh).unwrap();
        assert!(!stats.truncated, "persist must have healed the tail");
        // The torn record's key was re-persisted by engine2 (same
        // certificates), so nothing is lost.
        assert_eq!(stats.loaded + stats.already_present, first - 1 + appended);
        assert_eq!(stats.rejected, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
