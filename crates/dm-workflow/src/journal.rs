//! Event-sourced run journal for durable enactment.
//!
//! The paper's §3 framework promises fault-tolerant distributed
//! execution; an in-memory enactment loses the whole run when the
//! orchestrating process dies. This module supplies the persistence
//! half of the fix: an **append-only log of run events** (run started,
//! task started / completed / failed / shed, run finished) from which a
//! fresh orchestrator reconstructs the remaining-work frontier —
//! completed tasks are restored, not re-executed
//! (see [`crate::durable`]).
//!
//! Records are written with a version envelope and a checksum, so a
//! journal cut mid-record by a crash (a *torn tail*) is detected and
//! dropped rather than trusted: decoding stops at the first record
//! whose envelope or checksum fails to verify, and everything from that
//! point on is discarded (record boundaries after a bad record cannot
//! be trusted). Task outputs above an inline threshold are persisted as
//! content-addressed references into an
//! [`AttachmentStore`](dm_wsrf::dataplane::AttachmentStore) — the PR 2
//! data plane's store — keeping the journal small while large datasets
//! and models travel by handle, exactly as they do on the wire.
//!
//! ## Record format
//!
//! ```text
//! FJ2 <payload-len> <checksum-32-hex>\n
//! <payload bytes>\n
//! ```
//!
//! `FJ2` is the version envelope (Faehim Journal, version 2); the
//! checksum is the payload's 128-bit
//! [`hash_bytes`](dm_wsrf::dataplane::hash_bytes) digest. Version 2
//! changed only that digest (to the word-at-a-time `Hasher128`), so a
//! version-1 record is rejected by its envelope, not by a checksum
//! that would look corrupt, and is dropped like a torn tail. Payloads
//! are a compact field encoding with length-prefixed strings, so task
//! names, failure messages, and inline tokens may contain any byte
//! sequence.

use crate::graph::{TaskId, Token};
use dm_wsrf::dataplane::{content_ref, hash_bytes, AttachmentStore, Payload};
use dm_wsrf::soap::RefKind;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The journal format version written into every record's envelope.
pub const JOURNAL_VERSION: u32 = 2;

/// Magic prefix of every record header (`FJ` + version).
const MAGIC: &str = "FJ2";

/// Default inline threshold: Text/Bytes outputs at or above this many
/// bytes are persisted into the attachment store and journaled as
/// content-addressed references.
pub const DEFAULT_INLINE_LIMIT: usize = 1024;

/// Deepest list nesting the decoder accepts. A record nested deeper is
/// rejected as malformed (and dropped like a torn tail) instead of
/// recursing until the stack overflows.
const MAX_TOKEN_DEPTH: usize = 64;

/// One event in the enactment's history.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// Enactment began. Stamped with the graph's structural
    /// fingerprint ([`crate::graph::TaskGraph::structure_fingerprint`])
    /// so a resume against a different workflow is rejected.
    RunStarted {
        /// Number of tasks in the graph.
        tasks: usize,
        /// Structural fingerprint of the graph.
        fingerprint: u128,
    },
    /// A task was dispatched to the worker pool. A started record with
    /// no matching completion marks work that was in flight when the
    /// orchestrator died — it is re-executed on resume.
    TaskStarted {
        /// Task id within the graph.
        task: TaskId,
        /// Task display name.
        name: String,
    },
    /// A task's tool absorbed `ServerBusy` sheds while executing.
    TaskShed {
        /// Task id within the graph.
        task: TaskId,
        /// Task display name.
        name: String,
        /// Sheds absorbed across the task's attempts.
        sheds: u64,
    },
    /// A task completed; its outputs are durable from this point on.
    TaskCompleted {
        /// Task id within the graph.
        task: TaskId,
        /// Task display name.
        name: String,
        /// Execution attempts used (0 = memo cache hit).
        attempts: usize,
        /// Simulated-time duration of the successful attempt, in
        /// nanoseconds.
        virtual_nanos: u64,
        /// `true` when the outputs came from the memo cache.
        cached: bool,
        /// `ServerBusy` sheds absorbed across attempts.
        sheds: u64,
        /// Output tokens, one per output port.
        outputs: Vec<Token>,
    },
    /// A task failed terminally (retries exhausted). Its downstream
    /// cone is blocked on resume; independent branches continue.
    TaskFailed {
        /// Task id within the graph.
        task: TaskId,
        /// Task display name.
        name: String,
        /// The failure message.
        message: String,
    },
    /// Enactment reached quiescence: no runnable work remained.
    RunFinished {
        /// Task runs recorded (completed + failed).
        tasks: usize,
        /// Total enactment time on the simulated clock, in nanoseconds.
        virtual_nanos: u64,
    },
}

/// Counters describing a journal's life so far, in the flattened form
/// the metrics registry ingests
/// ([`dm_wsrf::metrics::MetricsRegistry::ingest_recovery`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended through this handle.
    pub appends: u64,
    /// Well-formed records currently decodable.
    pub records: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// Completed tasks restored from the journal instead of
    /// re-executing.
    pub replay_hits: u64,
    /// Claimed tasks redelivered after a worker death.
    pub redeliveries: u64,
    /// Torn-tail bytes dropped by verification during decode.
    pub torn_bytes: u64,
    /// Completed-task records whose stored output payload was no longer
    /// in the attachment store (the task is re-executed instead).
    pub missing_payloads: u64,
}

/// A completed task restored from the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedTask {
    /// Task display name.
    pub name: String,
    /// Attempts recorded at completion time (0 = memo hit).
    pub attempts: usize,
    /// Simulated duration of the completing attempt, nanoseconds.
    pub virtual_nanos: u64,
    /// Whether the completion was served from the memo cache.
    pub cached: bool,
    /// Sheds absorbed.
    pub sheds: u64,
    /// Output tokens, one per output port.
    pub outputs: Vec<Token>,
}

/// The aggregate state reconstructed by replaying a journal.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// `(tasks, fingerprint)` from the run-started record, if present.
    pub started: Option<(usize, u128)>,
    /// Tasks with durable completions, keyed by task id.
    pub completed: HashMap<TaskId, ReplayedTask>,
    /// Terminally failed tasks: id → (name, message).
    pub failed: HashMap<TaskId, (String, String)>,
    /// `true` when a run-finished record is present.
    pub finished: bool,
    /// Well-formed events replayed.
    pub events: usize,
    /// Torn-tail bytes dropped by verification.
    pub torn_bytes: u64,
}

/// The append-only, checksummed run-event log.
///
/// Thread-safe: the orchestrator appends while workers run. A journal
/// round-trips through [`RunJournal::bytes`] /
/// [`RunJournal::from_bytes`], which is how tests (and the E16 bench)
/// simulate a process boundary: the dying orchestrator's journal bytes
/// are all that survives, and a fresh [`RunJournal`] — and a fresh
/// `Executor` — resume from them.
pub struct RunJournal {
    buf: Mutex<Vec<u8>>,
    store: Option<Arc<AttachmentStore>>,
    inline_limit: usize,
    appends: AtomicU64,
    replay_hits: AtomicU64,
    redeliveries: AtomicU64,
    torn_bytes: AtomicU64,
    torn_dropped: AtomicU64,
    missing_payloads: AtomicU64,
}

impl std::fmt::Debug for RunJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunJournal")
            .field("bytes", &self.buf.lock().len())
            .field("appends", &self.appends.load(Ordering::Relaxed))
            .field("store", &self.store.is_some())
            .finish()
    }
}

impl Default for RunJournal {
    fn default() -> RunJournal {
        RunJournal::new()
    }
}

impl RunJournal {
    /// An empty journal that inlines every output token.
    pub fn new() -> RunJournal {
        RunJournal {
            buf: Mutex::new(Vec::new()),
            store: None,
            inline_limit: DEFAULT_INLINE_LIMIT,
            appends: AtomicU64::new(0),
            replay_hits: AtomicU64::new(0),
            redeliveries: AtomicU64::new(0),
            torn_bytes: AtomicU64::new(0),
            torn_dropped: AtomicU64::new(0),
            missing_payloads: AtomicU64::new(0),
        }
    }

    /// An empty journal persisting large Text/Bytes outputs into
    /// `store` as content-addressed references. Outputs shorter than
    /// `inline_limit` bytes stay inline.
    pub fn with_store(store: Arc<AttachmentStore>, inline_limit: usize) -> RunJournal {
        RunJournal {
            store: Some(store),
            inline_limit,
            ..RunJournal::new()
        }
    }

    /// Rebuild a journal from encoded bytes (e.g. what survived a
    /// crash). A torn or corrupt tail is cut off here — never trusted —
    /// so records appended after recovery extend the verified prefix
    /// rather than hiding behind damage; the dropped byte count stays
    /// visible in [`RunJournal::stats`]. The result has no attachment
    /// store; chain [`RunJournal::attach_store`] to materialise stored
    /// references.
    pub fn from_bytes(bytes: &[u8]) -> RunJournal {
        let journal = RunJournal::new();
        let valid = journal.valid_prefix_len(bytes);
        journal
            .torn_dropped
            .store((bytes.len() - valid) as u64, Ordering::Relaxed);
        *journal.buf.lock() = bytes[..valid].to_vec();
        journal
    }

    /// Length of the longest decodable record prefix of `bytes`
    /// (records with missing store payloads are structurally sound and
    /// count; the first torn or corrupt record ends the prefix).
    fn valid_prefix_len(&self, bytes: &[u8]) -> usize {
        let mut pos = 0usize;
        while pos < bytes.len() {
            match self.decode_record(bytes, pos, Stored::Check) {
                Some((next, _)) => pos = next,
                None => break,
            }
        }
        pos
    }

    /// Builder: attach the content-addressed store holding (and
    /// receiving) large output payloads.
    pub fn attach_store(mut self, store: Arc<AttachmentStore>, inline_limit: usize) -> RunJournal {
        self.store = Some(store);
        self.inline_limit = inline_limit;
        self
    }

    /// Append one event as a checksummed, version-enveloped record.
    pub fn append(&self, event: &RunEvent) {
        let mut payload = Vec::new();
        self.encode_event(&mut payload, event);
        let checksum = hash_bytes(&payload);
        let mut buf = self.buf.lock();
        buf.extend_from_slice(format!("{MAGIC} {} {:032x}\n", payload.len(), checksum).as_bytes());
        buf.extend_from_slice(&payload);
        buf.push(b'\n');
        self.appends.fetch_add(1, Ordering::Relaxed);
    }

    /// The encoded journal. This is the durable artifact: everything a
    /// resume needs (modulo payloads held by the attachment store).
    pub fn bytes(&self) -> Vec<u8> {
        self.buf.lock().clone()
    }

    /// Decode every verifiable record, stopping at the first torn or
    /// corrupt one. Never fails: a damaged tail yields fewer events.
    pub fn events(&self) -> Vec<RunEvent> {
        let buf = self.buf.lock().clone();
        let mut events = Vec::new();
        self.decode_all(&buf, Stored::Fetch, |event| events.push(event));
        events
    }

    /// Decode the records of `buf` in order, handing each event to
    /// `each`, up to the first torn or corrupt record; a well-formed
    /// record whose stored payload is gone is skipped. Sets both damage
    /// gauges (`missing_payloads`, `torn_bytes`) to what this pass saw.
    fn decode_all(&self, buf: &[u8], stored: Stored, mut each: impl FnMut(RunEvent)) {
        let mut pos = 0usize;
        self.missing_payloads.store(0, Ordering::Relaxed);
        while pos < buf.len() {
            match self.decode_record(buf, pos, stored) {
                Some((next, event)) => {
                    if let Some(event) = event {
                        each(event);
                    }
                    pos = next;
                }
                None => {
                    // Torn or corrupt: drop everything from here on.
                    self.torn_bytes
                        .store((buf.len() - pos) as u64, Ordering::Relaxed);
                    return;
                }
            }
        }
        self.torn_bytes.store(0, Ordering::Relaxed);
    }

    /// Replay the journal into aggregate run state: the completed-task
    /// map (with materialised outputs), the failed set, and whether the
    /// run already finished.
    pub fn replay(&self) -> Replay {
        let mut replay = Replay::default();
        for event in self.events() {
            replay.events += 1;
            match event {
                RunEvent::RunStarted { tasks, fingerprint } => {
                    replay.started = Some((tasks, fingerprint));
                }
                RunEvent::TaskStarted { .. } | RunEvent::TaskShed { .. } => {}
                RunEvent::TaskCompleted {
                    task,
                    name,
                    attempts,
                    virtual_nanos,
                    cached,
                    sheds,
                    outputs,
                } => {
                    replay.completed.insert(
                        task,
                        ReplayedTask {
                            name,
                            attempts,
                            virtual_nanos,
                            cached,
                            sheds,
                            outputs,
                        },
                    );
                }
                RunEvent::TaskFailed {
                    task,
                    name,
                    message,
                } => {
                    replay.failed.insert(task, (name, message));
                }
                RunEvent::RunFinished { .. } => replay.finished = true,
            }
        }
        replay.torn_bytes =
            self.torn_bytes.load(Ordering::Relaxed) + self.torn_dropped.load(Ordering::Relaxed);
        replay
    }

    /// Record that `n` completed tasks were restored from the log
    /// instead of re-executing (called by the durable orchestrator).
    pub fn note_replay_hits(&self, n: u64) {
        self.replay_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one claim redelivery after a worker death.
    pub fn note_redelivery(&self) {
        self.redeliveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime counters, for the metrics registry and for pinning
    /// recovery behaviour in tests. `records` counts what [`Self::events`]
    /// would return, in the same verifying, parsing pass over a copy of
    /// the journal (appends wait only for the copy), but a stored output
    /// is only checked for with [`AttachmentStore::contains`]: no payload
    /// is materialised, and reading the stats leaves the store's hit
    /// counts and eviction order as they were.
    pub fn stats(&self) -> JournalStats {
        let buf = self.buf.lock().clone();
        let mut records = 0;
        self.decode_all(&buf, Stored::Check, |_| records += 1);
        JournalStats {
            appends: self.appends.load(Ordering::Relaxed),
            records,
            bytes: buf.len() as u64,
            replay_hits: self.replay_hits.load(Ordering::Relaxed),
            redeliveries: self.redeliveries.load(Ordering::Relaxed),
            torn_bytes: self.torn_bytes.load(Ordering::Relaxed)
                + self.torn_dropped.load(Ordering::Relaxed),
            missing_payloads: self.missing_payloads.load(Ordering::Relaxed),
        }
    }

    /// `true` when nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }

    // ---- encoding ----------------------------------------------------

    fn encode_event(&self, out: &mut Vec<u8>, event: &RunEvent) {
        match event {
            RunEvent::RunStarted { tasks, fingerprint } => {
                out.extend_from_slice(format!("run-started {tasks} {fingerprint:032x}").as_bytes());
            }
            RunEvent::TaskStarted { task, name } => {
                out.extend_from_slice(format!("task-started {task} ").as_bytes());
                encode_str(out, name);
            }
            RunEvent::TaskShed { task, name, sheds } => {
                out.extend_from_slice(format!("task-shed {task} {sheds} ").as_bytes());
                encode_str(out, name);
            }
            RunEvent::TaskCompleted {
                task,
                name,
                attempts,
                virtual_nanos,
                cached,
                sheds,
                outputs,
            } => {
                out.extend_from_slice(
                    format!(
                        "task-completed {task} {attempts} {virtual_nanos} {} {sheds} ",
                        u8::from(*cached)
                    )
                    .as_bytes(),
                );
                encode_str(out, name);
                out.extend_from_slice(format!(" {}", outputs.len()).as_bytes());
                for token in outputs {
                    out.push(b' ');
                    self.encode_token(out, token);
                }
            }
            RunEvent::TaskFailed {
                task,
                name,
                message,
            } => {
                out.extend_from_slice(format!("task-failed {task} ").as_bytes());
                encode_str(out, name);
                out.push(b' ');
                encode_str(out, message);
            }
            RunEvent::RunFinished {
                tasks,
                virtual_nanos,
            } => {
                out.extend_from_slice(format!("run-finished {tasks} {virtual_nanos}").as_bytes());
            }
        }
    }

    fn encode_token(&self, out: &mut Vec<u8>, token: &Token) {
        // Large Text/Bytes payloads go to the content-addressed store;
        // the journal keeps only the `hash:len:kind` handle.
        if let Some(store) = &self.store {
            let big = match token {
                Token::Text(s) => s.len() >= self.inline_limit,
                Token::Bytes(b) => b.len() >= self.inline_limit,
                _ => false,
            };
            if big {
                let r = content_ref(token).expect("Text/Bytes have content refs");
                if let Some(payload) = Payload::from_value(token) {
                    store.insert(r.hash, payload);
                }
                out.extend_from_slice(
                    format!("s{:032x}:{}:{}", r.hash, r.len, kind_char(r.kind)).as_bytes(),
                );
                return;
            }
        }
        match token {
            Token::Null => out.push(b'n'),
            Token::Bool(b) => out.extend_from_slice(if *b { b"b1" } else { b"b0" }),
            Token::Int(i) => out.extend_from_slice(format!("i{i}").as_bytes()),
            Token::Double(d) => {
                out.extend_from_slice(format!("d{:016x}", d.to_bits()).as_bytes());
            }
            Token::Text(s) => {
                out.push(b't');
                encode_str(out, s);
            }
            Token::Bytes(b) => {
                out.extend_from_slice(format!("y{}:", b.len()).as_bytes());
                out.extend_from_slice(b);
            }
            Token::List(items) => {
                out.extend_from_slice(format!("l{}", items.len()).as_bytes());
                for item in items {
                    out.push(b' ');
                    self.encode_token(out, item);
                }
            }
            Token::DataRef { hash, len, kind } => {
                out.extend_from_slice(
                    format!("r{hash:032x}:{len}:{}", kind_char(*kind)).as_bytes(),
                );
            }
        }
    }

    // ---- decoding ----------------------------------------------------

    /// Decode the record starting at `pos`. Returns `None` when the
    /// record is torn or corrupt; `Some((next_pos, None))` when it is
    /// intact but references a payload the store no longer holds.
    fn decode_record(
        &self,
        buf: &[u8],
        pos: usize,
        stored: Stored,
    ) -> Option<(usize, Option<RunEvent>)> {
        let header_end = buf[pos..].iter().position(|&b| b == b'\n')? + pos;
        let header = std::str::from_utf8(&buf[pos..header_end]).ok()?;
        let mut fields = header.split(' ');
        if fields.next()? != MAGIC {
            return None;
        }
        let len: usize = fields.next()?.parse().ok()?;
        let checksum = u128::from_str_radix(fields.next()?, 16).ok()?;
        if fields.next().is_some() {
            return None;
        }
        let payload_start = header_end + 1;
        let payload_end = payload_start.checked_add(len)?;
        if payload_end > buf.len() || buf.get(payload_end) != Some(&b'\n') {
            return None;
        }
        let payload = &buf[payload_start..payload_end];
        if hash_bytes(payload) != checksum {
            return None;
        }
        let next = payload_end + 1;
        match self.decode_event(payload, stored) {
            Ok(event) => Some((next, Some(event))),
            Err(DecodeError::MissingPayload) => {
                self.missing_payloads.fetch_add(1, Ordering::Relaxed);
                Some((next, None))
            }
            // A payload that checksums correctly but does not parse is
            // a version we do not understand: drop it and the rest.
            Err(DecodeError::Malformed) => None,
        }
    }

    fn decode_event(&self, payload: &[u8], stored: Stored) -> Result<RunEvent, DecodeError> {
        let mut cur = Cursor::new(payload);
        let kind = cur.word()?;
        let event = match kind.as_str() {
            "run-started" => RunEvent::RunStarted {
                tasks: cur.word()?.parse().map_err(|_| DecodeError::Malformed)?,
                fingerprint: u128::from_str_radix(&cur.word()?, 16)
                    .map_err(|_| DecodeError::Malformed)?,
            },
            "task-started" => RunEvent::TaskStarted {
                task: cur.word()?.parse().map_err(|_| DecodeError::Malformed)?,
                name: cur.string()?,
            },
            "task-shed" => RunEvent::TaskShed {
                task: cur.word()?.parse().map_err(|_| DecodeError::Malformed)?,
                sheds: cur.word()?.parse().map_err(|_| DecodeError::Malformed)?,
                name: cur.string()?,
            },
            "task-completed" => {
                let task = cur.word()?.parse().map_err(|_| DecodeError::Malformed)?;
                let attempts = cur.word()?.parse().map_err(|_| DecodeError::Malformed)?;
                let virtual_nanos = cur.word()?.parse().map_err(|_| DecodeError::Malformed)?;
                let cached = cur.word()? == "1";
                let sheds = cur.word()?.parse().map_err(|_| DecodeError::Malformed)?;
                let name = cur.string()?;
                let count: usize = cur.word()?.parse().map_err(|_| DecodeError::Malformed)?;
                let mut outputs = Vec::with_capacity(count.min(cur.remaining()));
                for _ in 0..count {
                    outputs.push(self.decode_token(&mut cur, 0, stored)?);
                }
                RunEvent::TaskCompleted {
                    task,
                    name,
                    attempts,
                    virtual_nanos,
                    cached,
                    sheds,
                    outputs,
                }
            }
            "task-failed" => {
                let task = cur.word()?.parse().map_err(|_| DecodeError::Malformed)?;
                let name = cur.string()?;
                let message = cur.string()?;
                RunEvent::TaskFailed {
                    task,
                    name,
                    message,
                }
            }
            "run-finished" => RunEvent::RunFinished {
                tasks: cur.word()?.parse().map_err(|_| DecodeError::Malformed)?,
                virtual_nanos: cur.word()?.parse().map_err(|_| DecodeError::Malformed)?,
            },
            _ => return Err(DecodeError::Malformed),
        };
        Ok(event)
    }

    /// Decode one token nested `depth` lists deep.
    fn decode_token(
        &self,
        cur: &mut Cursor<'_>,
        depth: usize,
        stored: Stored,
    ) -> Result<Token, DecodeError> {
        let tag = cur.byte()?;
        Ok(match tag {
            b'n' => {
                cur.sep();
                Token::Null
            }
            b'b' => {
                let value = cur.byte()? == b'1';
                cur.sep();
                Token::Bool(value)
            }
            b'i' => Token::Int(cur.word()?.parse().map_err(|_| DecodeError::Malformed)?),
            b'd' => Token::Double(f64::from_bits(
                u64::from_str_radix(&cur.word()?, 16).map_err(|_| DecodeError::Malformed)?,
            )),
            b't' => Token::Text(cur.string()?),
            b'y' => Token::Bytes(cur.raw()?),
            b'l' => {
                if depth >= MAX_TOKEN_DEPTH {
                    return Err(DecodeError::Malformed);
                }
                let count: usize = cur.word()?.parse().map_err(|_| DecodeError::Malformed)?;
                let mut items = Vec::with_capacity(count.min(cur.remaining()));
                for _ in 0..count {
                    items.push(self.decode_token(cur, depth + 1, stored)?);
                }
                Token::List(items)
            }
            b'r' | b's' => {
                let (hash, len, kind) = cur.ref_triple()?;
                let store = self.store.as_ref();
                match (tag, stored) {
                    (b'r', _) => Token::DataRef { hash, len, kind },
                    // Stored payload: materialise from the store.
                    (_, Stored::Fetch) => store
                        .and_then(|s| s.get(hash))
                        .ok_or(DecodeError::MissingPayload)?
                        .to_value(),
                    (_, Stored::Check) if store.is_some_and(|s| s.contains(hash)) => Token::Null,
                    (_, Stored::Check) => return Err(DecodeError::MissingPayload),
                }
            }
            _ => return Err(DecodeError::Malformed),
        })
    }
}

/// Encode one token in the journal's inline grammar, never spilling to
/// a store — a canonical, store-independent byte form. Two tokens are
/// structurally equal iff their canonical bytes are equal; used by
/// [`crate::engine::ExecutionReport::canonical_bytes`] to compare an
/// uninterrupted enactment against a crash-then-resume one.
pub fn canonical_token_bytes(out: &mut Vec<u8>, token: &Token) {
    match token {
        Token::Null => out.push(b'n'),
        Token::Bool(b) => out.extend_from_slice(if *b { b"b1" } else { b"b0" }),
        Token::Int(i) => out.extend_from_slice(format!("i{i}").as_bytes()),
        Token::Double(d) => {
            out.extend_from_slice(format!("d{:016x}", d.to_bits()).as_bytes());
        }
        Token::Text(s) => {
            out.push(b't');
            encode_str(out, s);
        }
        Token::Bytes(b) => {
            out.extend_from_slice(format!("y{}:", b.len()).as_bytes());
            out.extend_from_slice(b);
        }
        Token::List(items) => {
            out.extend_from_slice(format!("l{}", items.len()).as_bytes());
            for item in items {
                out.push(b' ');
                canonical_token_bytes(out, item);
            }
        }
        Token::DataRef { hash, len, kind } => {
            out.extend_from_slice(format!("r{hash:032x}:{len}:{}", kind_char(*kind)).as_bytes());
        }
    }
}

fn kind_char(kind: RefKind) -> char {
    match kind {
        RefKind::Text => 'T',
        RefKind::Bytes => 'B',
    }
}

fn encode_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(format!("{}:", s.len()).as_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// What a decode pass does with a stored (`s`) output reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stored {
    /// Materialise it through [`AttachmentStore::get`], which counts a
    /// hit or miss and refreshes the payload's recency.
    Fetch,
    /// Only check that the store holds it ([`AttachmentStore::contains`]
    /// counts nothing and touches no recency); the token reads as
    /// [`Token::Null`].
    Check,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecodeError {
    /// The payload does not parse under this version's grammar.
    Malformed,
    /// A stored output reference points at a payload the attachment
    /// store no longer holds.
    MissingPayload,
}

/// A byte cursor over one record payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Payload bytes not yet consumed: an upper bound on how many
    /// tokens the rest of the record can hold, since each takes at least
    /// one byte.
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::Malformed)?;
        self.pos += 1;
        Ok(b)
    }

    /// Consume one separator space, if present. Every field reader is
    /// self-delimiting: it swallows its own trailing separator, so
    /// consecutive fields parse without lookahead.
    fn sep(&mut self) {
        if self.buf.get(self.pos) == Some(&b' ') {
            self.pos += 1;
        }
    }

    /// Read up to the next space (or end of input), consuming the
    /// separator.
    fn word(&mut self) -> Result<String, DecodeError> {
        let start = self.pos;
        while self.pos < self.buf.len() && self.buf[self.pos] != b' ' {
            self.pos += 1;
        }
        let word = std::str::from_utf8(&self.buf[start..self.pos])
            .map_err(|_| DecodeError::Malformed)?
            .to_string();
        self.sep();
        if word.is_empty() {
            return Err(DecodeError::Malformed);
        }
        Ok(word)
    }

    /// `<len>:<raw bytes>`, UTF-8 validated, separator consumed.
    fn string(&mut self) -> Result<String, DecodeError> {
        let bytes = self.raw()?;
        String::from_utf8(bytes).map_err(|_| DecodeError::Malformed)
    }

    /// `<len>:<raw bytes>`, separator consumed.
    fn raw(&mut self) -> Result<Vec<u8>, DecodeError> {
        let start = self.pos;
        while self.pos < self.buf.len() && self.buf[self.pos] != b':' {
            self.pos += 1;
        }
        let len: usize = std::str::from_utf8(&self.buf[start..self.pos])
            .map_err(|_| DecodeError::Malformed)?
            .parse()
            .map_err(|_| DecodeError::Malformed)?;
        self.pos += 1; // ':'
        let end = self.pos.checked_add(len).ok_or(DecodeError::Malformed)?;
        if end > self.buf.len() {
            return Err(DecodeError::Malformed);
        }
        let bytes = self.buf[self.pos..end].to_vec();
        self.pos = end;
        self.sep();
        Ok(bytes)
    }

    /// `<hash-32-hex>:<len>:<T|B>`.
    fn ref_triple(&mut self) -> Result<(u128, u64, RefKind), DecodeError> {
        let word = self.word()?;
        let mut parts = word.split(':');
        let hash = u128::from_str_radix(parts.next().ok_or(DecodeError::Malformed)?, 16)
            .map_err(|_| DecodeError::Malformed)?;
        let len: u64 = parts
            .next()
            .ok_or(DecodeError::Malformed)?
            .parse()
            .map_err(|_| DecodeError::Malformed)?;
        let kind = match parts.next() {
            Some("T") => RefKind::Text,
            Some("B") => RefKind::Bytes,
            _ => return Err(DecodeError::Malformed),
        };
        Ok((hash, len, kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<RunEvent> {
        vec![
            RunEvent::RunStarted {
                tasks: 3,
                fingerprint: 0xDEAD_BEEF,
            },
            RunEvent::TaskStarted {
                task: 0,
                name: "read url".into(),
            },
            RunEvent::TaskShed {
                task: 0,
                name: "read url".into(),
                sheds: 2,
            },
            RunEvent::TaskCompleted {
                task: 0,
                name: "read url".into(),
                attempts: 2,
                virtual_nanos: 1_500_000,
                cached: false,
                sheds: 2,
                outputs: vec![
                    Token::Null,
                    Token::Bool(true),
                    Token::Int(-42),
                    Token::Double(1.25),
                    Token::Text("hello\nworld with spaces".into()),
                    Token::Bytes(vec![0, 1, 2, 255, b'\n', b' ']),
                    Token::List(vec![Token::Int(1), Token::Text("x y".into())]),
                    Token::DataRef {
                        hash: 0xABCD,
                        len: 99,
                        kind: RefKind::Bytes,
                    },
                ],
            },
            RunEvent::TaskFailed {
                task: 1,
                name: "classify".into(),
                message: "host down:\nno replicas left".into(),
            },
            RunEvent::RunFinished {
                tasks: 2,
                virtual_nanos: 9_000,
            },
        ]
    }

    #[test]
    fn events_roundtrip_through_encode_decode() {
        let journal = RunJournal::new();
        let events = sample_events();
        for e in &events {
            journal.append(e);
        }
        assert_eq!(journal.events(), events);
        // A process boundary: only the bytes survive.
        let revived = RunJournal::from_bytes(&journal.bytes());
        assert_eq!(revived.events(), events);
        let stats = journal.stats();
        assert_eq!(stats.appends, 6);
        assert_eq!(stats.records, 6);
        assert_eq!(stats.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_is_dropped_not_trusted() {
        let journal = RunJournal::new();
        for e in sample_events() {
            journal.append(&e);
        }
        let full = journal.bytes();
        // Cut mid-way through the final record.
        let torn = RunJournal::from_bytes(&full[..full.len() - 7]);
        let events = torn.events();
        assert_eq!(events.len(), 5, "only intact records decode");
        assert!(torn.stats().torn_bytes > 0);
        // Cut mid-way through the first record: nothing decodes, and
        // nothing panics.
        let torn = RunJournal::from_bytes(&full[..10]);
        assert!(torn.events().is_empty());
    }

    #[test]
    fn corrupt_record_stops_decoding_conservatively() {
        let journal = RunJournal::new();
        for e in sample_events() {
            journal.append(&e);
        }
        let mut bytes = journal.bytes();
        // Flip a payload byte in the middle of the log: that record's
        // checksum fails, and record boundaries after it are untrusted.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let corrupt = RunJournal::from_bytes(&bytes);
        let events = corrupt.events();
        assert!(events.len() < sample_events().len());
        assert!(corrupt.stats().torn_bytes > 0);
        // The prefix before the corruption still replays.
        let replay = corrupt.replay();
        assert_eq!(replay.events, events.len());
    }

    #[test]
    fn replay_aggregates_run_state() {
        let journal = RunJournal::new();
        for e in sample_events() {
            journal.append(&e);
        }
        let replay = journal.replay();
        assert_eq!(replay.started, Some((3, 0xDEAD_BEEF)));
        assert!(replay.finished);
        assert_eq!(replay.completed.len(), 1);
        let task0 = &replay.completed[&0];
        assert_eq!(task0.name, "read url");
        assert_eq!(task0.attempts, 2);
        assert_eq!(task0.outputs.len(), 8);
        assert_eq!(
            replay.failed[&1],
            ("classify".into(), "host down:\nno replicas left".into())
        );
    }

    #[test]
    fn large_outputs_are_stored_as_refs_and_materialised() {
        let store = Arc::new(AttachmentStore::new(1 << 20));
        let journal = RunJournal::with_store(Arc::clone(&store), 64);
        let big = "x".repeat(10_000);
        let event = RunEvent::TaskCompleted {
            task: 0,
            name: "produce".into(),
            attempts: 1,
            virtual_nanos: 0,
            cached: false,
            sheds: 0,
            outputs: vec![Token::Text(big.clone()), Token::Text("small".into())],
        };
        journal.append(&event);
        // The journal stays small: the 10 kB payload lives in the store.
        assert!(
            journal.bytes().len() < 300,
            "journal is {} bytes",
            journal.bytes().len()
        );
        assert_eq!(store.len(), 1);
        // Replay materialises the payload back into a full token.
        let replay = journal.replay();
        assert_eq!(replay.completed[&0].outputs[0], Token::Text(big));
        assert_eq!(replay.completed[&0].outputs[1], Token::Text("small".into()));
        // A revived journal without the store cannot materialise: the
        // completion is skipped (the task will re-execute), gracefully.
        let revived = RunJournal::from_bytes(&journal.bytes());
        assert!(revived.replay().completed.is_empty());
        assert_eq!(revived.stats().missing_payloads, 1);
        // With the store re-attached it materialises again.
        let revived = RunJournal::from_bytes(&journal.bytes()).attach_store(store, 64);
        assert_eq!(revived.replay().completed.len(), 1);
    }

    /// Reading the stats counts the records `events()` returns but only
    /// checks that stored outputs are held: the store counts no lookup
    /// and refreshes no recency, so its counters and its eviction order
    /// are what they were before.
    #[test]
    fn stats_leave_the_store_counters_and_eviction_order_unchanged() {
        let store = Arc::new(AttachmentStore::new(25_000));
        let journal = RunJournal::with_store(Arc::clone(&store), 64);
        let output = Token::Text("o".repeat(10_000));
        journal.append(&RunEvent::TaskCompleted {
            task: 0,
            name: "produce".into(),
            attempts: 1,
            virtual_nanos: 0,
            cached: false,
            sheds: 0,
            outputs: vec![output.clone()],
        });
        journal.append(&RunEvent::RunFinished {
            tasks: 1,
            virtual_nanos: 0,
        });
        let stored = content_ref(&output).expect("text has a content ref").hash;
        // A payload stored after the output, so the output is the least
        // recently used entry.
        store.insert(1, Payload::Text("l".repeat(10_000).into()));
        let before = store.stats();
        for _ in 0..3 {
            let stats = journal.stats();
            assert_eq!(stats.records, 2);
            assert_eq!(stats.missing_payloads, 0);
            assert_eq!(stats.torn_bytes, 0);
        }
        assert_eq!(store.stats(), before);
        // One more payload overflows the store: the output, still the
        // least recently used, is the one evicted.
        store.insert(2, Payload::Text("n".repeat(10_000).into()));
        assert!(!store.contains(stored), "the stats refreshed the output");
        assert!(store.contains(1) && store.contains(2));
        // With the output gone, the completion no longer counts, as in
        // `events()`, and the gauge says why.
        let stats = journal.stats();
        assert_eq!((stats.records, stats.missing_payloads), (1, 1));
        assert_eq!(journal.events().len(), 1);
    }

    /// Frame `payload` as one record with a valid envelope and checksum.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut record =
            format!("{MAGIC} {} {:032x}\n", payload.len(), hash_bytes(payload)).into_bytes();
        record.extend_from_slice(payload);
        record.push(b'\n');
        record
    }

    #[test]
    fn version_one_records_are_dropped_as_torn() {
        assert_eq!(MAGIC, format!("FJ{JOURNAL_VERSION}"));
        // A well-formed record under the version-1 envelope, even with
        // a checksum that verifies under this build's digest, is not
        // trusted: it and everything after it drop like a torn tail.
        let payload = b"task-started 0 4:read";
        let mut record = framed(payload);
        record[..3].copy_from_slice(b"FJ1");
        let journal = RunJournal::from_bytes(&record);
        assert!(journal.events().is_empty());
        assert_eq!(journal.stats().torn_bytes, record.len() as u64);
        // The recovered journal extends its verified (empty) prefix.
        let event = RunEvent::TaskStarted {
            task: 1,
            name: "classify".into(),
        };
        journal.append(&event);
        assert_eq!(journal.events(), vec![event.clone()]);
        assert_eq!(
            RunJournal::from_bytes(&journal.bytes()).events(),
            vec![event]
        );
        // The same payload under this version's envelope decodes.
        assert_eq!(RunJournal::from_bytes(&framed(payload)).events().len(), 1);
    }

    #[test]
    fn oversized_counts_are_dropped_not_allocated() {
        // Checksummed records whose output or list count claims 2^60 - 1
        // tokens: a buffer sized by the claim would overflow capacity and
        // panic, so the record must drop like a torn tail.
        for payload in [
            "task-completed 0 1 0 0 0 1:x 1152921504606846975",
            "task-completed 0 1 0 0 0 1:x 1 l1152921504606846975",
        ] {
            let record = framed(payload.as_bytes());
            let journal = RunJournal::from_bytes(&record);
            assert!(journal.events().is_empty(), "{payload}");
            assert_eq!(journal.stats().torn_bytes, record.len() as u64, "{payload}");
        }
    }

    #[test]
    fn deeply_nested_lists_are_dropped_not_recursed() {
        // 200,000 nested one-item lists: unbounded recursion would
        // overflow the stack and abort the process.
        let mut payload = b"task-completed 0 1 0 0 0 1:x 1 ".to_vec();
        for _ in 0..200_000 {
            payload.extend_from_slice(b"l1 ");
        }
        payload.push(b'n');
        let record = framed(&payload);
        let journal = RunJournal::from_bytes(&record);
        assert!(journal.events().is_empty());
        assert_eq!(journal.stats().torn_bytes, record.len() as u64);
    }

    #[test]
    fn lists_nested_to_the_depth_limit_still_decode() {
        let mut token = Token::Null;
        for _ in 0..MAX_TOKEN_DEPTH {
            token = Token::List(vec![token]);
        }
        let event = RunEvent::TaskCompleted {
            task: 0,
            name: "deep".into(),
            attempts: 1,
            virtual_nanos: 0,
            cached: false,
            sheds: 0,
            outputs: vec![token],
        };
        let journal = RunJournal::new();
        journal.append(&event);
        assert_eq!(
            RunJournal::from_bytes(&journal.bytes()).events(),
            vec![event]
        );
    }

    #[test]
    fn truncate_to_simulates_torn_tails_at_any_offset() {
        let journal = RunJournal::new();
        for e in sample_events() {
            journal.append(&e);
        }
        let full_len = journal.bytes().len();
        let full_events = journal.events().len();
        // Every possible cut point decodes some prefix without panic,
        // and decoded counts are monotone in the cut length.
        let mut last = 0;
        for cut in 0..=full_len {
            let j = RunJournal::from_bytes(&journal.bytes()[..cut]);
            let n = j.events().len();
            assert!(n >= last, "decoded count regressed at cut {cut}");
            last = n;
        }
        assert_eq!(last, full_events);
    }
}
