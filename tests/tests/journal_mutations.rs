//! Mutation battery for the run journal (`FJ2`).
//!
//! The base journal is one durable enactment of the case-study graph,
//! followed by two records whose outputs cover every token kind: lists
//! nested to the decoder's depth cap, `r` references, `s` references
//! (text and bytes spilled to the attachment store), inline bytes and
//! the scalars. Every mutant goes to `RunJournal::from_bytes`,
//! `events()`, `stats()` (whose record count must be the number of
//! events, whose byte count must be the verified prefix's, and whose
//! torn count must be the bytes `from_bytes` cut off), `replay()` and
//! `run_durable` on the case-study graph.
//! Each must come back as a typed error or a shorter replay, never a
//! panic, and what it decodes must be bounded by its own byte count.
//!
//! The mutations are every truncation of the whole journal and of each
//! record's payload, every decimal field of each payload set to
//! `u64::MAX`, to the payload length + 1 and to 2^40, each record
//! header's length field set to the same three values, and seeded byte
//! flips, in payloads and in the raw bytes. A mutated payload is
//! re-sealed with its new length and a correct checksum, so the hostile
//! bytes reach the decoder itself instead of failing the checksum.
//!
//! `run_durable` sees only the verified prefix that `from_bytes` keeps,
//! so mutants that keep the same prefix are enacted once.

#![forbid(unsafe_code)]

use dm_workflow::engine::ExecutionReport;
use dm_workflow::error::WorkflowError;
use dm_workflow::graph::{TaskGraph, TaskId, Token};
use dm_workflow::journal::{RunEvent, RunJournal, JOURNAL_VERSION};
use dm_wsrf::dataplane::{hash_bytes, AttachmentStore};
use dm_wsrf::soap::RefKind;
use faehim::casestudy::build_case_study;
use faehim::Toolkit;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Deepest list nesting the journal decoder accepts.
const MAX_TOKEN_DEPTH: usize = 64;

/// Outputs at or above this many bytes are spilled to the store.
const INLINE_LIMIT: usize = 1024;

/// Bytes of the case-study journal (3.528320 KiB).
const PINNED_LEN: usize = 3613;

/// `hash_bytes` digest of the case-study journal.
const PINNED_DIGEST: &str = "6bc57d7fc4e0d13e5edc52f7bac6922c";

/// Outputs the case-study journal stores: the dataset and the SVG.
const PINNED_STORED: usize = 2;

/// SplitMix64, seeding the byte flips.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The payloads of a well-formed journal's records.
fn payloads(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let header_end = pos + bytes[pos..].iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&bytes[pos..header_end]).unwrap();
        let len: usize = header.split(' ').nth(1).unwrap().parse().unwrap();
        let start = header_end + 1;
        out.push(bytes[start..start + len].to_vec());
        pos = start + len + 1;
    }
    out
}

/// Frame `payload` as one record whose header claims `len` bytes, with
/// a correct checksum.
fn frame(out: &mut Vec<u8>, len: u64, payload: &[u8]) {
    let header = format!("FJ{JOURNAL_VERSION} {len} {:032x}\n", hash_bytes(payload));
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload);
    out.push(b'\n');
}

/// The journal with record `at`'s payload replaced by `payload`, every
/// record sealed with its true length and checksum.
fn with_payload(payloads: &[Vec<u8>], at: usize, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, other) in payloads.iter().enumerate() {
        let p = if i == at { payload } else { other };
        frame(&mut out, p.len() as u64, p);
    }
    out
}

/// The byte ranges of every maximal run of ASCII digits in `payload`.
fn digit_runs(payload: &[u8]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < payload.len() {
        if payload[i].is_ascii_digit() {
            let start = i;
            while i < payload.len() && payload[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}

/// Heap bytes a decoded token holds: its own slot, plus its text, bytes
/// or items.
fn token_footprint(token: &Token) -> usize {
    std::mem::size_of::<Token>()
        + match token {
            Token::Text(s) => s.capacity(),
            Token::Bytes(b) => b.capacity(),
            Token::List(items) => {
                items.capacity().saturating_sub(items.len()) * std::mem::size_of::<Token>()
                    + items.iter().map(token_footprint).sum::<usize>()
            }
            _ => 0,
        }
}

/// Heap bytes a decoded event holds.
fn footprint(event: &RunEvent) -> usize {
    match event {
        RunEvent::RunStarted { .. } | RunEvent::RunFinished { .. } => 0,
        RunEvent::TaskStarted { name, .. } | RunEvent::TaskShed { name, .. } => name.capacity(),
        RunEvent::TaskFailed { name, message, .. } => name.capacity() + message.capacity(),
        RunEvent::TaskCompleted { name, outputs, .. } => {
            name.capacity()
                + outputs.capacity().saturating_sub(outputs.len()) * std::mem::size_of::<Token>()
                + outputs.iter().map(token_footprint).sum::<usize>()
        }
    }
}

/// The case study, its store, and the journal of one durable enactment
/// of it.
struct Enacted {
    toolkit: Toolkit,
    graph: TaskGraph,
    bindings: HashMap<(TaskId, usize), Token>,
    store: Arc<AttachmentStore>,
    journal: Arc<RunJournal>,
}

/// Enact the case study durably on one worker, so that the journal's
/// virtual times are the same on every run.
fn case_study_journal() -> Enacted {
    let mut toolkit = Toolkit::new().unwrap();
    let (graph, _, bindings) = build_case_study(&toolkit).unwrap();
    toolkit.enable_durable_enactment(1);
    let store = Arc::new(AttachmentStore::new(64 << 20));
    let journal = Arc::new(RunJournal::with_store(Arc::clone(&store), INLINE_LIMIT));
    toolkit.adopt_journal(Arc::clone(&journal));
    let report = toolkit.run_durable(&graph, &bindings).unwrap();
    assert!(report.runs.iter().all(|r| r.error.is_none()));
    Enacted {
        toolkit,
        graph,
        bindings,
        store,
        journal,
    }
}

/// The case study, its store, and the base journal.
struct Battery {
    toolkit: Toolkit,
    graph: TaskGraph,
    bindings: HashMap<(TaskId, usize), Token>,
    store: Arc<AttachmentStore>,
    base: Vec<u8>,
    base_events: usize,
    enacted: HashSet<u128>,
    mutants: usize,
}

impl Battery {
    fn new() -> Battery {
        // The mutants are the same on every run, and are enacted at
        // width 2.
        let Enacted {
            mut toolkit,
            graph,
            bindings,
            store,
            journal,
        } = case_study_journal();
        toolkit.enable_durable_enactment(2);

        // Two more completions of sink tasks, covering every token kind.
        let sinks: Vec<TaskId> = (0..graph.num_tasks())
            .filter(|&t| graph.tasks()[t].tool.output_ports().len() == 1)
            .filter(|&t| graph.cables().iter().all(|c| c.from_task != t))
            .collect();
        assert!(sinks.len() >= 2, "the case study has {} sinks", sinks.len());
        let mut nested = Token::Int(7);
        for _ in 0..MAX_TOKEN_DEPTH {
            nested = Token::List(vec![nested]);
        }
        let every_kind = Token::List(vec![
            Token::Null,
            Token::Bool(true),
            Token::Bool(false),
            Token::Int(-42),
            Token::Double(1.25),
            Token::Text("two words".into()),
            Token::Bytes(vec![0, b' ', b':', b'\n', 255]),
            Token::Text("spilled ".repeat(INLINE_LIMIT / 4)),
            Token::Bytes(vec![0xA5; INLINE_LIMIT + 1]),
            Token::DataRef {
                hash: 0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF,
                len: 99,
                kind: RefKind::Bytes,
            },
            Token::List(Vec::new()),
        ]);
        for (task, token) in sinks.iter().zip([nested, every_kind]) {
            journal.append(&RunEvent::TaskCompleted {
                task: *task,
                name: graph.tasks()[*task].name.clone(),
                attempts: 1,
                virtual_nanos: 12_345,
                cached: false,
                sheds: 0,
                outputs: vec![token],
            });
        }
        let base = journal.bytes();
        let text = String::from_utf8_lossy(&base);
        for tag in [" s", " r", " y", " l"] {
            assert!(text.contains(tag), "the base journal has no {tag:?} token");
        }
        let base_events = journal.events().len();
        assert_eq!(
            base_events,
            payloads(&base).len(),
            "the base journal decodes"
        );
        assert_eq!(journal.stats().missing_payloads, 0);
        Battery {
            toolkit,
            graph,
            bindings,
            store,
            base,
            base_events,
            enacted: HashSet::new(),
            mutants: 0,
        }
    }

    /// Feed one mutant through every reader, failing the test on a
    /// panic, on a replay longer than the base journal's, and on a
    /// decode that holds more than the mutant's bytes account for.
    fn check(&mut self, what: &str, mutant: &[u8]) {
        self.mutants += 1;
        let base_events = self.base_events;
        let guarded = |step: &str, f: &mut dyn FnMut()| {
            catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("{what}: {step} panicked"));
        };

        // Without the store, every decoded byte comes from the mutant.
        let mut prefix = Vec::new();
        guarded("decoding without the store", &mut || {
            let journal = RunJournal::from_bytes(mutant);
            let events = journal.events();
            assert!(
                events.len() <= base_events,
                "{what}: more events than the base"
            );
            check_stats(what, &journal, mutant, events.len());
            let held: usize = events.iter().map(footprint).sum();
            let bound = mutant.len() * (1 + std::mem::size_of::<Token>());
            assert!(
                held <= bound,
                "{what}: decoded {held} bytes from {}",
                mutant.len()
            );
            prefix = journal.bytes();
        });

        // With the store, `s` references materialise.
        let store = Arc::clone(&self.store);
        let journal = RunJournal::from_bytes(mutant).attach_store(store, INLINE_LIMIT);
        guarded("decoding with the store", &mut || {
            let events = journal.events().len();
            assert!(events <= base_events, "{what}: longer events");
            check_stats(what, &journal, mutant, events);
            assert!(
                journal.replay().events <= base_events,
                "{what}: longer replay"
            );
        });

        if !self.enacted.insert(hash_bytes(&prefix)) {
            return;
        }
        self.toolkit.adopt_journal(Arc::new(journal));
        let (toolkit, graph, bindings) = (&self.toolkit, &self.graph, &self.bindings);
        let mut outcome: Option<Result<ExecutionReport, WorkflowError>> = None;
        guarded("run_durable", &mut || {
            outcome = Some(toolkit.run_durable(graph, bindings));
        });
        if let Some(Ok(report)) = outcome {
            assert!(
                report.runs.len() <= graph.num_tasks(),
                "{what}: {} task runs",
                report.runs.len()
            );
        }
    }
}

/// `journal`, rebuilt from `mutant`, counts the `events` its decoding
/// pass returned, holds the verified prefix's bytes, and counts every
/// byte `from_bytes` cut off as torn, and no more.
fn check_stats(what: &str, journal: &RunJournal, mutant: &[u8], events: usize) {
    let stats = journal.stats();
    let kept = journal.bytes().len();
    assert_eq!(
        stats.records, events as u64,
        "{what}: stats count other records than events() returns"
    );
    assert_eq!(stats.bytes, kept as u64, "{what}: stats count other bytes");
    assert_eq!(
        stats.torn_bytes,
        (mutant.len() - kept) as u64,
        "{what}: stats count other torn bytes than from_bytes cut off"
    );
}

/// The journal of one durable case-study enactment is pinned byte for
/// byte: its length and digest are those the `format!` encoder wrote.
#[test]
fn case_study_journal_bytes_are_pinned() {
    let Enacted { store, journal, .. } = case_study_journal();
    let bytes = journal.bytes();
    let digest = format!("{:032x}", hash_bytes(&bytes));
    assert_eq!((bytes.len(), digest.as_str()), (PINNED_LEN, PINNED_DIGEST));
    assert_eq!(store.len(), PINNED_STORED);
}

#[test]
fn mutated_journals_are_errors_or_shorter_replays_never_panics() {
    let mut battery = Battery::new();
    let base = battery.base.clone();
    let records = payloads(&base);

    // The unmutated journal replays every task and executes none.
    battery.check("the base journal", &base);
    let report = battery
        .toolkit
        .run_durable(&battery.graph, &battery.bindings)
        .unwrap();
    assert_eq!(report.replay_hits(), battery.graph.num_tasks());

    // Torn tails: every truncation of the whole journal.
    for cut in 0..base.len() {
        battery.check(&format!("truncated to {cut} bytes"), &base[..cut]);
    }

    // Every truncation of each payload, re-sealed.
    for (i, payload) in records.iter().enumerate() {
        for cut in 0..payload.len() {
            let mutant = with_payload(&records, i, &payload[..cut]);
            battery.check(&format!("record {i} payload cut to {cut} bytes"), &mutant);
        }
    }

    // Every decimal field of each payload (lengths, counts, ids, and
    // any digits inside text) set to a hostile value, re-sealed; and
    // each header's length field, not re-sealed.
    for (i, payload) in records.iter().enumerate() {
        let len = payload.len() as u64;
        for value in [u64::MAX, len + 1, 1 << 40] {
            for (start, end) in digit_runs(payload) {
                let mut mutated = payload[..start].to_vec();
                mutated.extend_from_slice(value.to_string().as_bytes());
                mutated.extend_from_slice(&payload[end..]);
                let mutant = with_payload(&records, i, &mutated);
                battery.check(
                    &format!("record {i} bytes {start}..{end} = {value}"),
                    &mutant,
                );
            }
            let mut mutant = Vec::new();
            for (j, other) in records.iter().enumerate() {
                let claimed = if j == i { value } else { other.len() as u64 };
                frame(&mut mutant, claimed, other);
            }
            battery.check(&format!("record {i} header length = {value}"), &mutant);
        }
    }

    // Seeded flips of 1–4 payload bytes, re-sealed, and of raw bytes.
    let mut rng = SplitMix(0xF1A2);
    for copy in 0..2048 {
        let i = rng.below(records.len());
        let mut payload = records[i].clone();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(payload.len());
            payload[at] ^= 1 + rng.below(255) as u8;
        }
        let mutant = with_payload(&records, i, &payload);
        battery.check(&format!("payload flip copy {copy} in record {i}"), &mutant);
    }
    for copy in 0..256 {
        let mut mutant = base.clone();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(mutant.len());
            mutant[at] ^= 1 + rng.below(255) as u8;
        }
        battery.check(&format!("raw flip copy {copy}"), &mutant);
    }

    eprintln!(
        "{} records, {} bytes: {} mutants, {} distinct prefixes enacted",
        records.len(),
        base.len(),
        battery.mutants,
        battery.enacted.len(),
    );
    assert!(battery.mutants > 10_000, "{} mutants", battery.mutants);
}
