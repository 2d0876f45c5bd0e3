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
//! whose envelope or checksum fails to verify, or whose payload does
//! not parse, and everything from that point on is discarded (record
//! boundaries after a bad record cannot be trusted). Task outputs above
//! an inline threshold are persisted as content-addressed references
//! into an [`AttachmentStore`], the data plane's store, keeping the
//! journal small while large datasets and models travel by handle,
//! exactly as they do on the wire.
//!
//! ## Cost
//!
//! An append costs one pass over the record it writes: the record is
//! encoded in place into a buffer the journal reuses, digits and hex
//! written by hand, and a stored output is hashed once (its payload is
//! copied into the store only when the store does not hold it yet).
//! The durable orchestrator journals the names and outputs it already
//! holds without copying them. Each append also counts its record in a
//! small index, with the hashes of the outputs it stored, so
//! [`RunJournal::stats`] costs one store lookup per stored output: it
//! neither copies, checksums nor parses the log, and its cost does not
//! grow with the bytes journaled.
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
//! [`hash_bytes`] digest. Version 2
//! changed only that digest (to the word-at-a-time `Hasher128`), so a
//! version-1 record is rejected by its envelope, not by a checksum
//! that would look corrupt, and is dropped like a torn tail. Payloads
//! are a compact field encoding with length-prefixed strings, so task
//! names, failure messages, and inline tokens may contain any byte
//! sequence.

use crate::error::WorkflowError;
use crate::graph::{TaskId, Token};
use dm_wsrf::dataplane::{content_ref, hash_bytes, AttachmentStore, Payload};
use dm_wsrf::soap::RefKind;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::Range;
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
/// recursing until the stack overflows, so an append refuses to write
/// one.
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

/// A [`RunEvent`] that borrows its names, message and outputs: what the
/// encoder reads. [`RunJournal::append`] encodes an event through it,
/// and the durable orchestrator journals the names and tokens it
/// already holds with [`RunJournal::write`], copying none of them.
#[derive(Clone, Copy)]
pub(crate) enum Record<'a> {
    RunStarted {
        tasks: usize,
        fingerprint: u128,
    },
    TaskStarted {
        task: TaskId,
        name: &'a str,
    },
    TaskShed {
        task: TaskId,
        name: &'a str,
        sheds: u64,
    },
    TaskCompleted {
        task: TaskId,
        name: &'a str,
        attempts: usize,
        virtual_nanos: u64,
        cached: bool,
        sheds: u64,
        outputs: &'a [Token],
    },
    TaskFailed {
        task: TaskId,
        name: &'a str,
        message: &'a str,
    },
    RunFinished {
        tasks: usize,
        virtual_nanos: u64,
    },
}

impl<'a> From<&'a RunEvent> for Record<'a> {
    fn from(event: &'a RunEvent) -> Record<'a> {
        match *event {
            RunEvent::RunStarted { tasks, fingerprint } => {
                Record::RunStarted { tasks, fingerprint }
            }
            RunEvent::TaskStarted { task, ref name } => Record::TaskStarted { task, name },
            RunEvent::TaskShed {
                task,
                ref name,
                sheds,
            } => Record::TaskShed { task, name, sheds },
            RunEvent::TaskCompleted {
                task,
                ref name,
                attempts,
                virtual_nanos,
                cached,
                sheds,
                ref outputs,
            } => Record::TaskCompleted {
                task,
                name,
                attempts,
                virtual_nanos,
                cached,
                sheds,
                outputs,
            },
            RunEvent::TaskFailed {
                task,
                ref name,
                ref message,
            } => Record::TaskFailed {
                task,
                name,
                message,
            },
            RunEvent::RunFinished {
                tasks,
                virtual_nanos,
            } => Record::RunFinished {
                tasks,
                virtual_nanos,
            },
        }
    }
}

/// Counters describing a journal's life so far, which the toolkit's
/// metrics scrape exports as the `faehim_journal_*`,
/// `faehim_replay_hits_total` and `faehim_redeliveries_total` series.
/// Reading them ([`RunJournal::stats`]) costs one store lookup per
/// stored output, whatever the journal's length.
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
    log: Mutex<Log>,
    /// Taken after `log` by an append, and alone by [`Self::stats`].
    index: Mutex<Index>,
    store: Option<Arc<AttachmentStore>>,
    inline_limit: usize,
    appends: AtomicU64,
    replay_hits: AtomicU64,
    redeliveries: AtomicU64,
    /// Bytes [`Self::from_bytes`] cut off as a torn or corrupt tail.
    torn_dropped: u64,
}

/// The encoded records, and the buffers an append encodes one record
/// into, kept between appends.
#[derive(Default)]
struct Log {
    bytes: Vec<u8>,
    payload: Vec<u8>,
    stored: Vec<u128>,
}

/// What [`RunJournal::stats`] reads instead of decoding the log, kept
/// by every append and by [`RunJournal::from_bytes`].
#[derive(Default)]
struct Index {
    /// Bytes of the records indexed so far.
    bytes: u64,
    /// Records indexed so far.
    records: u64,
    /// Each record that stored outputs, in log order: the range of
    /// [`Index::hashes`] holding their hashes, in payload order. The
    /// decoder fetches them from the store and skips the record when
    /// one is missing.
    marks: Vec<Range<usize>>,
    /// Stored outputs' hashes.
    hashes: Vec<u128>,
}

impl Index {
    /// Count a record, which ends at `end` and stored the outputs
    /// hashed `stored`.
    fn push(&mut self, stored: &[u128], end: usize) {
        if !stored.is_empty() {
            let from = self.hashes.len();
            self.hashes.extend_from_slice(stored);
            self.marks.push(from..self.hashes.len());
        }
        self.records += 1;
        self.bytes = end as u64;
    }
}

impl std::fmt::Debug for RunJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunJournal")
            .field("bytes", &self.log.lock().bytes.len())
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
            log: Mutex::default(),
            index: Mutex::default(),
            store: None,
            inline_limit: DEFAULT_INLINE_LIMIT,
            appends: AtomicU64::new(0),
            replay_hits: AtomicU64::new(0),
            redeliveries: AtomicU64::new(0),
            torn_dropped: 0,
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
    /// visible in [`RunJournal::stats`]. The verified prefix is the
    /// records that verify and parse in full, stored references read as
    /// handles, so whichever store is attached later, no record in it
    /// decodes as damage. The result has no attachment store; chain
    /// [`RunJournal::attach_store`] to materialise stored references.
    pub fn from_bytes(bytes: &[u8]) -> RunJournal {
        let mut index = Index::default();
        let mut stored = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            stored.clear();
            match decode_record(bytes, pos, &mut Stored::Collect(&mut stored)) {
                Some((next, _)) => {
                    index.push(&stored, next);
                    pos = next;
                }
                None => break,
            }
        }
        RunJournal {
            log: Mutex::new(Log {
                bytes: bytes[..pos].to_vec(),
                ..Log::default()
            }),
            index: Mutex::new(index),
            torn_dropped: (bytes.len() - pos) as u64,
            ..RunJournal::new()
        }
    }

    /// Builder: attach the content-addressed store holding (and
    /// receiving) large output payloads.
    pub fn attach_store(mut self, store: Arc<AttachmentStore>, inline_limit: usize) -> RunJournal {
        self.store = Some(store);
        self.inline_limit = inline_limit;
        self
    }

    /// Append one event as a checksummed, version-enveloped record.
    /// An event the decoder could not read back, a completion whose
    /// outputs nest lists deeper than [`MAX_TOKEN_DEPTH`], is refused
    /// with [`WorkflowError::JournalRefused`] and nothing is written
    /// (a stored output before the deep list may already be in the
    /// store, which holds content, not records).
    pub fn append(&self, event: &RunEvent) -> crate::Result<()> {
        self.write(Record::from(event))
    }

    /// Append `record` as [`Self::append`] appends the event it
    /// borrows from: encoded in place into the journal's own buffers,
    /// under its lock, and counted in the index.
    pub(crate) fn write(&self, record: Record<'_>) -> crate::Result<()> {
        let mut log = self.log.lock();
        let Log {
            bytes,
            payload,
            stored,
        } = &mut *log;
        payload.clear();
        stored.clear();
        let mut spill = Spill {
            store: self.store.as_deref(),
            inline_limit: self.inline_limit,
            stored,
            rejected: false,
        };
        write_record(payload, record, &mut spill);
        if spill.rejected {
            let task = match record {
                Record::TaskCompleted { name, .. } => name,
                _ => unreachable!("only completions carry tokens"),
            };
            return Err(WorkflowError::JournalRefused {
                task: task.to_string(),
                reason: format!("an output nests lists deeper than {MAX_TOKEN_DEPTH}"),
            });
        }
        bytes.extend_from_slice(MAGIC.as_bytes());
        bytes.push(b' ');
        push_decimal(bytes, payload.len() as u64);
        bytes.push(b' ');
        push_hex(bytes, hash_bytes(payload), 32);
        bytes.push(b'\n');
        bytes.extend_from_slice(payload);
        bytes.push(b'\n');
        self.index.lock().push(stored, bytes.len());
        self.appends.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The encoded journal. This is the durable artifact: everything a
    /// resume needs (modulo payloads held by the attachment store).
    pub fn bytes(&self) -> Vec<u8> {
        self.log.lock().bytes.clone()
    }

    /// Decode every verifiable record, stopping at the first torn or
    /// corrupt one. Never fails: a damaged tail yields fewer events.
    pub fn events(&self) -> Vec<RunEvent> {
        self.decode().0
    }

    /// The events [`Self::events`] returns, and the bytes of the torn
    /// or corrupt tail its pass stopped at.
    fn decode(&self) -> (Vec<RunEvent>, u64) {
        let buf = self.bytes();
        let mut events = Vec::new();
        let damage = decode_all(&buf, &mut Stored::Fetch(self.store.as_deref()), |event| {
            events.push(event);
        });
        (events, damage.torn)
    }

    /// Replay the journal into aggregate run state: the completed-task
    /// map (with materialised outputs), the failed set, and whether the
    /// run already finished.
    pub fn replay(&self) -> Replay {
        let mut replay = Replay::default();
        let (events, torn) = self.decode();
        for event in events {
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
        replay.torn_bytes = torn + self.torn_dropped;
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
    /// recovery behaviour in tests. `records`, `missing_payloads` and
    /// `torn_bytes` are what a decoding pass ([`Self::events`]) would
    /// find now, read from the index every append keeps: the call costs
    /// one store lookup per stored output, with
    /// [`AttachmentStore::contains`], and neither copies, checksums nor
    /// parses the log. It takes only the index's lock (an append waits
    /// for it only to count its record), and it leaves the store's hit
    /// counts and eviction order as they were.
    pub fn stats(&self) -> JournalStats {
        let index = self.index.lock();
        let held = |hash| self.store.as_ref().is_some_and(|s| s.contains(hash));
        let missing = index
            .marks
            .iter()
            .filter(|&mark| !index.hashes[mark.clone()].iter().all(|&h| held(h)))
            .count() as u64;
        JournalStats {
            appends: self.appends.load(Ordering::Relaxed),
            records: index.records - missing,
            bytes: index.bytes,
            replay_hits: self.replay_hits.load(Ordering::Relaxed),
            redeliveries: self.redeliveries.load(Ordering::Relaxed),
            torn_bytes: self.torn_dropped,
            missing_payloads: missing,
        }
    }

    /// `true` when nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.log.lock().bytes.is_empty()
    }
}

// ---- encoding --------------------------------------------------------

/// Where a record's large outputs go, and what the index learns of
/// them.
struct Spill<'a> {
    /// Text/Bytes tokens of `inline_limit` bytes or more go here; with
    /// no store every token stays inline.
    store: Option<&'a AttachmentStore>,
    inline_limit: usize,
    /// The stored outputs' hashes, in payload order.
    stored: &'a mut Vec<u128>,
    /// The payload nests a list deeper than the decoder accepts.
    rejected: bool,
}

fn write_record(out: &mut Vec<u8>, record: Record<'_>, spill: &mut Spill<'_>) {
    match record {
        Record::RunStarted { tasks, fingerprint } => {
            out.extend_from_slice(b"run-started ");
            push_decimal(out, tasks as u64);
            out.push(b' ');
            push_hex(out, fingerprint, 32);
        }
        Record::TaskStarted { task, name } => {
            out.extend_from_slice(b"task-started ");
            push_decimal(out, task as u64);
            out.push(b' ');
            push_str(out, name);
        }
        Record::TaskShed { task, name, sheds } => {
            out.extend_from_slice(b"task-shed ");
            push_decimal(out, task as u64);
            out.push(b' ');
            push_decimal(out, sheds);
            out.push(b' ');
            push_str(out, name);
        }
        Record::TaskCompleted {
            task,
            name,
            attempts,
            virtual_nanos,
            cached,
            sheds,
            outputs,
        } => {
            out.extend_from_slice(b"task-completed ");
            for field in [
                task as u64,
                attempts as u64,
                virtual_nanos,
                u64::from(cached),
                sheds,
            ] {
                push_decimal(out, field);
                out.push(b' ');
            }
            push_str(out, name);
            out.push(b' ');
            push_decimal(out, outputs.len() as u64);
            for token in outputs {
                out.push(b' ');
                write_token(out, token, 0, spill);
            }
        }
        Record::TaskFailed {
            task,
            name,
            message,
        } => {
            out.extend_from_slice(b"task-failed ");
            push_decimal(out, task as u64);
            out.push(b' ');
            push_str(out, name);
            out.push(b' ');
            push_str(out, message);
        }
        Record::RunFinished {
            tasks,
            virtual_nanos,
        } => {
            out.extend_from_slice(b"run-finished ");
            push_decimal(out, tasks as u64);
            out.push(b' ');
            push_decimal(out, virtual_nanos);
        }
    }
}

/// Write `token`, nested `depth` lists deep, in the journal's token
/// grammar. With a store, a Text/Bytes token of `inline_limit` bytes or
/// more is stored there (its payload copied only when the store does not
/// hold it yet) and written as its `s<hash>:<len>:<kind>` handle.
fn write_token(out: &mut Vec<u8>, token: &Token, depth: usize, spill: &mut Spill<'_>) {
    if let Some(store) = spill.store {
        let big = match token {
            Token::Text(s) => s.len() >= spill.inline_limit,
            Token::Bytes(b) => b.len() >= spill.inline_limit,
            _ => false,
        };
        if big {
            let r = content_ref(token).expect("Text/Bytes have content refs");
            if !store.touch(r.hash) {
                if let Some(payload) = Payload::from_value(token) {
                    store.insert(r.hash, payload);
                }
            }
            spill.stored.push(r.hash);
            out.push(b's');
            push_handle(out, r.hash, r.len, r.kind);
            return;
        }
    }
    match token {
        Token::Null => out.push(b'n'),
        Token::Bool(b) => out.extend_from_slice(if *b { b"b1" } else { b"b0" }),
        Token::Int(i) => {
            out.push(b'i');
            if *i < 0 {
                out.push(b'-');
            }
            push_decimal(out, i.unsigned_abs());
        }
        Token::Double(d) => {
            out.push(b'd');
            push_hex(out, u128::from(d.to_bits()), 16);
        }
        Token::Text(s) => {
            out.push(b't');
            push_str(out, s);
        }
        Token::Bytes(b) => {
            out.push(b'y');
            push_decimal(out, b.len() as u64);
            out.push(b':');
            out.extend_from_slice(b);
        }
        Token::List(items) => {
            spill.rejected |= depth >= MAX_TOKEN_DEPTH;
            out.push(b'l');
            push_decimal(out, items.len() as u64);
            for item in items {
                out.push(b' ');
                write_token(out, item, depth + 1, spill);
            }
        }
        Token::DataRef { hash, len, kind } => {
            out.push(b'r');
            push_handle(out, *hash, *len, *kind);
        }
    }
}

/// Encode one token in the journal's inline grammar, never spilling to
/// a store — a canonical, store-independent byte form. Two tokens are
/// structurally equal iff their canonical bytes are equal; used by
/// [`crate::engine::ExecutionReport::canonical_bytes`] to compare an
/// uninterrupted enactment against a crash-then-resume one.
pub fn canonical_token_bytes(out: &mut Vec<u8>, token: &Token) {
    let mut inline = Spill {
        store: None,
        inline_limit: 0,
        stored: &mut Vec::new(),
        rejected: false,
    };
    write_token(out, token, 0, &mut inline);
}

/// `<hash-32-hex>:<len>:<T|B>`.
fn push_handle(out: &mut Vec<u8>, hash: u128, len: u64, kind: RefKind) {
    push_hex(out, hash, 32);
    out.push(b':');
    push_decimal(out, len);
    out.push(b':');
    out.push(match kind {
        RefKind::Text => b'T',
        RefKind::Bytes => b'B',
    });
}

/// `<len>:<bytes>`.
fn push_str(out: &mut Vec<u8>, s: &str) {
    push_decimal(out, s.len() as u64);
    out.push(b':');
    out.extend_from_slice(s.as_bytes());
}

/// `n` in decimal, as `{n}` formats it.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// The low `width` hex digits of `value`, zero-padded and lower case,
/// as `{value:0width$x}` formats a value that fits them.
fn push_hex(out: &mut Vec<u8>, value: u128, width: usize) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut digits = [0u8; 32];
    for (i, digit) in digits[..width].iter_mut().rev().enumerate() {
        *digit = HEX[(value >> (4 * i)) as usize & 0xf];
    }
    out.extend_from_slice(&digits[..width]);
}

// ---- decoding --------------------------------------------------------

/// What one decoding pass found wrong with a log.
#[derive(Default)]
struct Damage {
    /// Well-formed records skipped because a stored output was gone.
    missing: u64,
    /// Bytes of the torn or corrupt tail the pass stopped at.
    torn: u64,
}

/// Decode the records of `buf` in order, handing each event to `each`,
/// up to the first torn or corrupt record; a well-formed record whose
/// stored payload is gone is skipped.
fn decode_all(buf: &[u8], stored: &mut Stored<'_>, mut each: impl FnMut(RunEvent)) -> Damage {
    let mut damage = Damage::default();
    let mut pos = 0usize;
    while pos < buf.len() {
        match decode_record(buf, pos, stored) {
            Some((next, event)) => {
                match event {
                    Some(event) => each(event),
                    None => damage.missing += 1,
                }
                pos = next;
            }
            None => {
                // Torn or corrupt: drop everything from here on.
                damage.torn = (buf.len() - pos) as u64;
                break;
            }
        }
    }
    damage
}

/// Decode the record starting at `pos`. Returns `None` when the record
/// is torn or corrupt; `Some((next_pos, None))` when it is intact but
/// references a payload the store no longer holds.
fn decode_record(
    buf: &[u8],
    pos: usize,
    stored: &mut Stored<'_>,
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
    match decode_event(payload, stored) {
        Ok(event) => Some((next, Some(event))),
        Err(DecodeError::MissingPayload) => Some((next, None)),
        // A payload that checksums correctly but does not parse is
        // a version we do not understand: drop it and the rest.
        Err(DecodeError::Malformed) => None,
    }
}

fn decode_event(payload: &[u8], stored: &mut Stored<'_>) -> Result<RunEvent, DecodeError> {
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
                outputs.push(decode_token(&mut cur, 0, stored)?);
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
    cur: &mut Cursor<'_>,
    depth: usize,
    stored: &mut Stored<'_>,
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
                items.push(decode_token(cur, depth + 1, stored)?);
            }
            Token::List(items)
        }
        b'r' => {
            let (hash, len, kind) = cur.ref_triple()?;
            Token::DataRef { hash, len, kind }
        }
        b's' => {
            let (hash, _, _) = cur.ref_triple()?;
            match stored {
                // Stored payload: materialise from the store.
                Stored::Fetch(store) => store
                    .and_then(|s| s.get(hash))
                    .ok_or(DecodeError::MissingPayload)?
                    .to_value(),
                Stored::Collect(hashes) => {
                    hashes.push(hash);
                    Token::Null
                }
                #[cfg(test)]
                Stored::Check(store) if store.is_some_and(|s| s.contains(hash)) => Token::Null,
                #[cfg(test)]
                Stored::Check(_) => return Err(DecodeError::MissingPayload),
            }
        }
        _ => return Err(DecodeError::Malformed),
    })
}

/// What a decode pass does with a stored (`s`) output reference.
enum Stored<'a> {
    /// Materialise it through [`AttachmentStore::get`], which counts a
    /// hit or miss and refreshes the payload's recency.
    Fetch(Option<&'a AttachmentStore>),
    /// Note its hash, in payload order, and read the token as
    /// [`Token::Null`]: [`RunJournal::from_bytes`]' pass, which parses
    /// every record in full and needs no store.
    Collect(&'a mut Vec<u128>),
    /// Only check that the store holds it ([`AttachmentStore::contains`]
    /// counts nothing and touches no recency); the token reads as
    /// [`Token::Null`]. The decoding `stats()` of the test oracle.
    #[cfg(test)]
    Check(Option<&'a AttachmentStore>),
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

/// The journal's writer and stats as they were before records were
/// encoded in place and counted at append time: every field formatted
/// with `format!`, and `stats()` decoding a copy of the whole log. The
/// tests hold the journal to both.
#[cfg(test)]
mod oracle {
    use super::*;

    impl RunJournal {
        /// The record `append` writes for `event`, header included,
        /// storing large outputs as `append` does.
        pub(super) fn oracle_record(&self, event: &RunEvent) -> Vec<u8> {
            let mut payload = Vec::new();
            self.oracle_event(&mut payload, event);
            let checksum = hash_bytes(&payload);
            let mut record = format!("{MAGIC} {} {:032x}\n", payload.len(), checksum).into_bytes();
            record.extend_from_slice(&payload);
            record.push(b'\n');
            record
        }

        /// The counters `stats()` returns, from a verifying, parsing
        /// pass over a copy of the log that only checks stored outputs
        /// with [`AttachmentStore::contains`].
        pub(super) fn oracle_stats(&self) -> JournalStats {
            let buf = self.bytes();
            let mut records = 0;
            let damage = decode_all(&buf, &mut Stored::Check(self.store.as_deref()), |_| {
                records += 1;
            });
            JournalStats {
                appends: self.appends.load(Ordering::Relaxed),
                records,
                bytes: buf.len() as u64,
                replay_hits: self.replay_hits.load(Ordering::Relaxed),
                redeliveries: self.redeliveries.load(Ordering::Relaxed),
                torn_bytes: damage.torn + self.torn_dropped,
                missing_payloads: damage.missing,
            }
        }

        fn oracle_event(&self, out: &mut Vec<u8>, event: &RunEvent) {
            match event {
                RunEvent::RunStarted { tasks, fingerprint } => {
                    out.extend_from_slice(
                        format!("run-started {tasks} {fingerprint:032x}").as_bytes(),
                    );
                }
                RunEvent::TaskStarted { task, name } => {
                    out.extend_from_slice(format!("task-started {task} ").as_bytes());
                    oracle_str(out, name);
                }
                RunEvent::TaskShed { task, name, sheds } => {
                    out.extend_from_slice(format!("task-shed {task} {sheds} ").as_bytes());
                    oracle_str(out, name);
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
                    oracle_str(out, name);
                    out.extend_from_slice(format!(" {}", outputs.len()).as_bytes());
                    for token in outputs {
                        out.push(b' ');
                        self.oracle_token(out, token);
                    }
                }
                RunEvent::TaskFailed {
                    task,
                    name,
                    message,
                } => {
                    out.extend_from_slice(format!("task-failed {task} ").as_bytes());
                    oracle_str(out, name);
                    out.push(b' ');
                    oracle_str(out, message);
                }
                RunEvent::RunFinished {
                    tasks,
                    virtual_nanos,
                } => {
                    out.extend_from_slice(
                        format!("run-finished {tasks} {virtual_nanos}").as_bytes(),
                    );
                }
            }
        }

        fn oracle_token(&self, out: &mut Vec<u8>, token: &Token) {
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
                    oracle_str(out, s);
                }
                Token::Bytes(b) => {
                    out.extend_from_slice(format!("y{}:", b.len()).as_bytes());
                    out.extend_from_slice(b);
                }
                Token::List(items) => {
                    out.extend_from_slice(format!("l{}", items.len()).as_bytes());
                    for item in items {
                        out.push(b' ');
                        self.oracle_token(out, item);
                    }
                }
                Token::DataRef { hash, len, kind } => {
                    out.extend_from_slice(
                        format!("r{hash:032x}:{len}:{}", kind_char(*kind)).as_bytes(),
                    );
                }
            }
        }
    }

    fn kind_char(kind: RefKind) -> char {
        match kind {
            RefKind::Text => 'T',
            RefKind::Bytes => 'B',
        }
    }

    fn oracle_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(format!("{}:", s.len()).as_bytes());
        out.extend_from_slice(s.as_bytes());
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
            journal.append(e).unwrap();
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
            journal.append(&e).unwrap();
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
            journal.append(&e).unwrap();
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
            journal.append(&e).unwrap();
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
        journal.append(&event).unwrap();
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
        journal
            .append(&RunEvent::TaskCompleted {
                task: 0,
                name: "produce".into(),
                attempts: 1,
                virtual_nanos: 0,
                cached: false,
                sheds: 0,
                outputs: vec![output.clone()],
            })
            .unwrap();
        journal
            .append(&RunEvent::RunFinished {
                tasks: 1,
                virtual_nanos: 0,
            })
            .unwrap();
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
        journal.append(&event).unwrap();
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
        journal.append(&event).unwrap();
        assert_eq!(
            RunJournal::from_bytes(&journal.bytes()).events(),
            vec![event]
        );
    }

    #[test]
    fn truncate_to_simulates_torn_tails_at_any_offset() {
        let journal = RunJournal::new();
        for e in sample_events() {
            journal.append(&e).unwrap();
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

    /// The next draw of a counter-based splitmix64 stream.
    fn draw(rng: &mut u64) -> u64 {
        *rng = rng.wrapping_add(1);
        dm_wsrf::fleet::splitmix64(*rng)
    }

    /// A name of 0–3 pieces with spaces, `:`, newlines and multi-byte
    /// characters.
    fn name(rng: &mut u64) -> String {
        const PIECES: [&str; 8] = ["read url", "a:b", "x\ny", "中文", "é", "J48", "🦀 ", ":"];
        (0..draw(rng) % 4)
            .map(|_| PIECES[(draw(rng) % 8) as usize])
            .collect()
    }

    /// Text or bytes of about `limit` bytes, on either side of it.
    fn near(rng: &mut u64, limit: usize) -> usize {
        (limit + (draw(rng) % 5) as usize).saturating_sub(2)
    }

    /// A token of any kind, lists nested at most to the decoder's cap.
    fn token(rng: &mut u64, depth: usize, limit: usize) -> Token {
        match draw(rng) % 10 {
            0 => Token::Null,
            1 => Token::Bool(draw(rng) % 2 == 0),
            2 => Token::Int(
                [i64::MIN, i64::MAX, -1, 0, -(draw(rng) as i64 >> 3)][(draw(rng) % 5) as usize],
            ),
            3 => Token::Double(
                [
                    f64::NAN,
                    -0.0,
                    0.0,
                    f64::NEG_INFINITY,
                    f64::from_bits(draw(rng)),
                ][(draw(rng) % 5) as usize],
            ),
            4 => {
                // A multi-byte character in front, so the length in
                // bytes straddles the limit unevenly.
                let mut text = if draw(rng) % 2 == 0 { "é" } else { "" }.to_string();
                text.push_str(&name(rng));
                let len = near(rng, limit);
                while text.len() < len {
                    text.push((b'a' + (draw(rng) % 26) as u8) as char);
                }
                Token::Text(text)
            }
            5 => Token::Bytes((0..near(rng, limit)).map(|_| draw(rng) as u8).collect()),
            6 if depth < MAX_TOKEN_DEPTH => Token::List(
                (0..draw(rng) % 4)
                    .map(|_| token(rng, depth + 1, limit))
                    .collect(),
            ),
            7 => {
                // Nested exactly to the decoder's cap.
                let mut deep = Token::Int(7);
                for _ in depth..MAX_TOKEN_DEPTH {
                    deep = Token::List(vec![deep]);
                }
                deep
            }
            8 => Token::DataRef {
                hash: u128::from(draw(rng)) << 64 | u128::from(draw(rng)),
                len: [u64::MAX, 0, draw(rng)][(draw(rng) % 3) as usize],
                kind: if draw(rng) % 2 == 0 {
                    RefKind::Text
                } else {
                    RefKind::Bytes
                },
            },
            _ => Token::Text(name(rng)),
        }
    }

    /// An event of any kind, with edge values in its numeric fields.
    fn event(rng: &mut u64, limit: usize) -> RunEvent {
        let big = |rng: &mut u64| [u64::MAX, 0, draw(rng)][(draw(rng) % 3) as usize];
        let task = [usize::MAX, 0, draw(rng) as usize % 16][(draw(rng) % 3) as usize];
        match draw(rng) % 6 {
            0 => RunEvent::RunStarted {
                tasks: task,
                fingerprint: u128::from(big(rng)) << 64 | u128::from(big(rng)),
            },
            1 => RunEvent::TaskStarted {
                task,
                name: name(rng),
            },
            2 => RunEvent::TaskShed {
                task,
                name: name(rng),
                sheds: big(rng),
            },
            3 => RunEvent::TaskCompleted {
                task,
                name: name(rng),
                attempts: big(rng) as usize,
                virtual_nanos: big(rng),
                cached: draw(rng) % 2 == 0,
                sheds: big(rng),
                outputs: (0..draw(rng) % 5).map(|_| token(rng, 0, limit)).collect(),
            },
            4 => RunEvent::TaskFailed {
                task,
                name: name(rng),
                message: name(rng),
            },
            _ => RunEvent::RunFinished {
                tasks: task,
                virtual_nanos: big(rng),
            },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// `append` writes, byte for byte, the record the `format!`
        /// encoder wrote, inline and spilled outputs alike, and its
        /// stats are the decoding pass's.
        #[test]
        fn append_writes_the_oracle_bytes(seed in proptest::prelude::any::<u64>()) {
            let mut rng = seed;
            let limit = 8 + (draw(&mut rng) % 64) as usize;
            let events: Vec<RunEvent> = (0..1 + draw(&mut rng) % 8)
                .map(|_| event(&mut rng, limit))
                .collect();
            for spills in [false, true] {
                let journal = |store: &Arc<AttachmentStore>| {
                    if spills {
                        RunJournal::with_store(Arc::clone(store), limit)
                    } else {
                        RunJournal::new()
                    }
                };
                let store = Arc::new(AttachmentStore::new(1 << 20));
                let oracle_store = Arc::new(AttachmentStore::new(1 << 20));
                let (written, oracle) = (journal(&store), journal(&oracle_store));
                let mut expected = Vec::new();
                for e in &events {
                    written.append(e).unwrap();
                    expected.extend_from_slice(&oracle.oracle_record(e));
                }
                proptest::prop_assert!(
                    written.bytes() == expected,
                    "seed {seed}, spills {spills}: {events:?}"
                );
                proptest::prop_assert_eq!(store.len(), oracle_store.len());
                proptest::prop_assert_eq!(written.stats(), written.oracle_stats());
                proptest::prop_assert_eq!(written.events().len(), events.len());
            }
        }
    }

    #[test]
    fn hand_written_digits_match_format() {
        for n in [
            0,
            1,
            9,
            10,
            99,
            100,
            12_345,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            push_decimal(&mut out, n);
            assert_eq!(out, n.to_string().into_bytes());
        }
        for v in [
            0,
            1,
            0xf,
            0x10,
            0xDEAD_BEEF,
            u128::from(u64::MAX),
            u128::MAX,
        ] {
            let mut out = Vec::new();
            push_hex(&mut out, v, 32);
            assert_eq!(out, format!("{v:032x}").into_bytes());
            if v <= u128::from(u64::MAX) {
                out.clear();
                push_hex(&mut out, v, 16);
                assert_eq!(out, format!("{v:016x}").into_bytes());
            }
        }
    }

    /// `stats()`, the oracle's decoding stats, and the torn count a
    /// replay reads, for `journal` as it is now.
    fn assert_stats_match_the_oracle(journal: &RunJournal, what: &str) -> JournalStats {
        let stats = journal.stats();
        assert_eq!(stats, journal.oracle_stats(), "{what}");
        assert_eq!(journal.replay().torn_bytes, stats.torn_bytes, "{what}");
        assert_eq!(journal.events().len() as u64, stats.records, "{what}");
        stats
    }

    /// A completion whose one output is `text` (stored when it reaches
    /// the journal's inline limit).
    fn completion(task: TaskId, text: String) -> RunEvent {
        RunEvent::TaskCompleted {
            task,
            name: format!("produce {task}"),
            attempts: 1,
            virtual_nanos: 0,
            cached: false,
            sheds: 0,
            outputs: vec![Token::Text("inline".into()), Token::Text(text)],
        }
    }

    #[test]
    fn stats_equal_the_decoding_pass() {
        let store = Arc::new(AttachmentStore::new(1 << 20));
        let journal = RunJournal::with_store(Arc::clone(&store), 64);
        for e in sample_events() {
            journal.append(&e).unwrap();
        }
        for task in 0..3 {
            journal
                .append(&completion(task, format!("{task}").repeat(100)))
                .unwrap();
        }
        let appended = assert_stats_match_the_oracle(&journal, "appended");
        assert_eq!((appended.records, appended.missing_payloads), (9, 0));
        let full = journal.bytes();

        // Torn tails at every cut, without and with the store.
        for cut in 0..full.len() {
            let torn = RunJournal::from_bytes(&full[..cut]);
            let stats = assert_stats_match_the_oracle(&torn, &format!("cut {cut}"));
            assert_eq!(stats.bytes + stats.torn_bytes, cut as u64, "cut {cut}");
            let torn = torn.attach_store(Arc::clone(&store), 64);
            assert_stats_match_the_oracle(&torn, &format!("cut {cut}, store attached"));
        }

        // Without its store the three stored outputs are missing; with it
        // attached they are found again.
        let revived = RunJournal::from_bytes(&full);
        let stats = assert_stats_match_the_oracle(&revived, "from bytes");
        assert_eq!((stats.records, stats.missing_payloads), (6, 3));
        let revived = revived.attach_store(Arc::clone(&store), 64);
        let stats = assert_stats_match_the_oracle(&revived, "store attached");
        assert_eq!((stats.records, stats.missing_payloads), (9, 0));

        // Appends after recovery extend the verified prefix.
        let torn =
            RunJournal::from_bytes(&full[..full.len() - 5]).attach_store(Arc::clone(&store), 64);
        torn.append(&completion(7, "7".repeat(100))).unwrap();
        torn.append(&RunEvent::RunFinished {
            tasks: 1,
            virtual_nanos: 5,
        })
        .unwrap();
        let stats = assert_stats_match_the_oracle(&torn, "appended after recovery");
        assert_eq!((stats.records, stats.appends), (10, 2));
        assert!(stats.torn_bytes > 0);
    }

    #[test]
    fn stats_follow_a_store_that_holds_one_payload() {
        // Room for one stored output: each spill evicts the one before.
        let store = Arc::new(AttachmentStore::new(150));
        let journal = RunJournal::with_store(Arc::clone(&store), 64);
        for task in 0..4 {
            journal
                .append(&completion(task, format!("{task}").repeat(100)))
                .unwrap();
            let stats = assert_stats_match_the_oracle(&journal, &format!("after spill {task}"));
            assert_eq!((stats.records, stats.missing_payloads), (1, task as u64));
        }
        assert_eq!(store.len(), 1);
        let revived = RunJournal::from_bytes(&journal.bytes()).attach_store(Arc::clone(&store), 64);
        assert_stats_match_the_oracle(&revived, "revived");
        store.set_capacity(0);
        assert_stats_match_the_oracle(&revived, "store emptied");
    }

    #[test]
    fn a_record_nested_past_the_cap_is_refused() {
        // A completion whose lists nest one deeper than the decoder
        // accepts would drop itself and every later record like a torn
        // tail: the append refuses it, names the task, and writes
        // nothing, so the records after it count.
        let store = Arc::new(AttachmentStore::new(1 << 20));
        let journal = RunJournal::with_store(Arc::clone(&store), 64);
        journal.append(&sample_events()[0]).unwrap();
        let before = (journal.bytes(), journal.stats());
        let mut deep = Token::Null;
        for _ in 0..=MAX_TOKEN_DEPTH {
            deep = Token::List(vec![deep]);
        }
        let refused = journal.append(&RunEvent::TaskCompleted {
            task: 0,
            name: "deep".into(),
            attempts: 1,
            virtual_nanos: 0,
            cached: false,
            sheds: 0,
            outputs: vec![
                Token::Text("s".repeat(100)),
                deep,
                Token::Text("t".repeat(100)),
            ],
        });
        match refused {
            Err(WorkflowError::JournalRefused { task, .. }) => assert_eq!(task, "deep"),
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!((journal.bytes(), journal.stats()), before);
        journal.append(&sample_events()[1]).unwrap();
        journal.append(&completion(1, "u".repeat(100))).unwrap();
        let stats = assert_stats_match_the_oracle(&journal, "after the refusal");
        assert_eq!((stats.records, stats.appends, stats.torn_bytes), (3, 3, 0));
        assert_eq!(journal.events().len(), 3);
    }

    #[test]
    fn stats_read_the_index_not_the_log() {
        let store = Arc::new(AttachmentStore::new(1 << 20));
        let journal = RunJournal::with_store(Arc::clone(&store), 64);
        for e in sample_events() {
            journal.append(&e).unwrap();
        }
        journal.append(&completion(0, "x".repeat(100))).unwrap();
        let before = journal.stats();
        // Garble every byte of the log: a pass that copied, checksummed
        // or parsed it would now find nothing.
        journal.log.lock().bytes.fill(b'#');
        assert!(journal.events().is_empty());
        assert_eq!(journal.stats(), before);
    }

    /// A record that verifies but parses only up to a stored output is
    /// cut off by `from_bytes`, whether or not a store holds the output,
    /// so no later record, appended after recovery or not, hides behind
    /// it.
    #[test]
    fn from_bytes_cuts_a_record_that_parses_only_up_to_a_stored_output() {
        let store = Arc::new(AttachmentStore::new(1 << 20));
        let journal = RunJournal::with_store(Arc::clone(&store), 64);
        journal.append(&sample_events()[0]).unwrap();
        let prefix = journal.bytes();
        journal.append(&completion(0, "x".repeat(100))).unwrap();
        // The completion, re-sealed with a third output that does not
        // parse after its stored one, then an intact record.
        let record = &journal.bytes()[prefix.len()..];
        let header_end = record.iter().position(|&b| b == b'\n').unwrap();
        let payload = std::str::from_utf8(&record[header_end + 1..record.len() - 1]).unwrap();
        assert_eq!(payload.matches(" 2 t").count(), 1, "{payload}");
        let mut forged = prefix.clone();
        forged.extend_from_slice(&framed(
            (payload.replacen(" 2 t", " 3 t", 1) + " ?").as_bytes(),
        ));
        let intact = RunJournal::new();
        intact.append(&sample_events()[1]).unwrap();
        forged.extend_from_slice(&intact.bytes());
        for attached in [false, true] {
            let mut revived = RunJournal::from_bytes(&forged);
            if attached {
                revived = revived.attach_store(Arc::clone(&store), 64);
            }
            let stats = assert_stats_match_the_oracle(&revived, &format!("attached {attached}"));
            assert_eq!(stats.bytes, prefix.len() as u64, "attached {attached}");
            assert_eq!(stats.torn_bytes, (forged.len() - prefix.len()) as u64);
            revived.append(&sample_events()[5]).unwrap();
            assert_eq!(revived.events().len(), 2, "attached {attached}");
        }
    }

    /// Spilling an output the store already holds copies nothing into
    /// it, but refreshes the payload's recency as the insert it skips
    /// would have: the store evicts what it evicted before.
    #[test]
    fn spilling_a_held_output_refreshes_it_without_a_copy() {
        // Room for two stored outputs.
        let store = Arc::new(AttachmentStore::new(250));
        let journal = RunJournal::with_store(Arc::clone(&store), 64);
        let first = completion(0, "a".repeat(100));
        journal.append(&first).unwrap();
        store.insert(1, Payload::Text("b".repeat(100).into()));
        let insertions = store.stats().insertions;
        journal.append(&first).unwrap();
        assert_eq!(
            store.stats().insertions,
            insertions,
            "the payload was copied"
        );
        // The first output is now the most recently used: the next
        // payload evicts the other one.
        store.insert(2, Payload::Text("c".repeat(100).into()));
        assert!(!store.contains(1));
        assert_eq!(journal.stats().missing_payloads, 0);
    }
}
