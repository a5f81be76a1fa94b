//! Text format for trace logs (the RAPID `.std` standard format).
//!
//! The Rapid artifact analyses traces logged by RoadRunner in a line-based
//! format; we implement the same shape:
//!
//! ```text
//! <thread>|<op>|<loc>
//! ```
//!
//! where `<op>` is one of `r(x)`, `w(x)`, `acq(l)`, `rel(l)`, `fork(t)`,
//! `join(t)`, `begin`, `end` (operand names are arbitrary identifiers) and
//! `<loc>` is an optional program-location token that the analyses ignore.
//! Blank lines and lines starting with `#` are skipped.
//!
//! # Examples
//!
//! ```
//! let src = "t1|begin|0\nt1|w(x)|1\nt2|r(x)|2\nt1|end|3\n";
//! let trace = tracelog::parse_trace(src)?;
//! assert_eq!(trace.len(), 4);
//! assert_eq!(tracelog::write_trace(&trace), src);
//! # Ok::<(), tracelog::ParseTraceError>(())
//! ```

use std::fmt;

use crate::ids::{Interner, LockId, ThreadId, VarId};
use crate::stream::{copy_events, EventSource as _, SourceError, StdReader};
use crate::trace::{Event, Op, Trace};

/// The longest line, in bytes without its `\n`, that the parser accepts
/// — the same 1 MiB as the frame cap of `serve::protocol`. It bounds
/// the memory a newline-free input can make the reader hold.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// An error while parsing the `.std` trace format.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseTraceError {
    /// One-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The category of a [`ParseTraceError`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseErrorKind {
    /// The line does not have the `<thread>|<op>[|<loc>]` shape.
    MalformedLine,
    /// The thread field is empty.
    EmptyThread,
    /// The operation field is not one of the known operations.
    UnknownOp(String),
    /// The operation is missing its `(operand)` or it is empty.
    MissingOperand(String),
    /// The line is not valid UTF-8.
    InvalidUtf8,
    /// The line is longer than [`MAX_LINE_BYTES`].
    LineTooLong,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseErrorKind::MalformedLine => {
                write!(f, "line {}: expected `<thread>|<op>[|<loc>]`", self.line)
            }
            ParseErrorKind::EmptyThread => write!(f, "line {}: empty thread name", self.line),
            ParseErrorKind::UnknownOp(op) => {
                write!(f, "line {}: unknown operation `{op}`", self.line)
            }
            ParseErrorKind::MissingOperand(op) => {
                write!(f, "line {}: operation `{op}` is missing its operand", self.line)
            }
            ParseErrorKind::InvalidUtf8 => write!(f, "line {}: not valid UTF-8", self.line),
            ParseErrorKind::LineTooLong => {
                write!(f, "line {}: longer than {MAX_LINE_BYTES} bytes", self.line)
            }
        }
    }
}

impl std::error::Error for ParseTraceError {}

/// The `.std` grammar — the one place it is implemented — together with
/// the name tables it interns into. Each line is parsed as bytes where
/// the reader found it; names go through a [`NameMemo`] before the
/// tables.
#[derive(Debug)]
pub(crate) struct LineParser {
    pub(crate) threads: Interner,
    pub(crate) locks: Interner,
    pub(crate) vars: Interner,
    memo: NameMemo,
}

/// Which name table a name belongs to (part of the memo key).
#[derive(Clone, Copy)]
enum Table {
    Thread = 1,
    Lock = 2,
    Var = 3,
}

impl LineParser {
    pub(crate) fn new() -> Self {
        Self {
            threads: Interner::new(),
            locks: Interner::new(),
            vars: Interner::new(),
            memo: NameMemo::new(),
        }
    }

    /// Forgets every name, keeping the tables' capacity.
    pub(crate) fn clear(&mut self) {
        self.threads.clear();
        self.locks.clear();
        self.vars.clear();
        self.memo.clear();
    }

    /// Parses one line, given without its `\n`: `Ok(None)` for a blank
    /// or comment line. Whitespace is Unicode White_Space, trimmed from
    /// the line and from each field exactly as `str::trim` does.
    pub(crate) fn parse_line(
        &mut self,
        raw: &[u8],
        line: usize,
    ) -> Result<Option<Event>, ParseTraceError> {
        let error = |kind| ParseTraceError { line, kind };
        if raw.len() > MAX_LINE_BYTES {
            return Err(error(ParseErrorKind::LineTooLong));
        }
        let text = trim(std::str::from_utf8(raw).map_err(|_| error(ParseErrorKind::InvalidUtf8))?);
        if text.is_empty() || text.as_bytes()[0] == b'#' {
            return Ok(None);
        }
        let Some(bar) = find(text, b'|') else {
            return Err(error(ParseErrorKind::MalformedLine));
        };
        let thread = trim(&text[..bar]);
        let rest = &text[bar + 1..];
        let op = trim(find(rest, b'|').map_or(rest, |bar| &rest[..bar]));
        if thread.is_empty() {
            return Err(error(ParseErrorKind::EmptyThread));
        }
        let t = ThreadId::from_index(self.memo.intern(&mut self.threads, Table::Thread, thread));
        let (head, body) = find(op, b'(').map_or((op, ""), |paren| op.split_at(paren));
        let op = match head.as_bytes() {
            b"r" => Op::Read(VarId::from_index(self.operand(Table::Var, head, body, line)?)),
            b"w" => Op::Write(VarId::from_index(self.operand(Table::Var, head, body, line)?)),
            b"acq" => {
                Op::Acquire(LockId::from_index(self.operand(Table::Lock, head, body, line)?))
            }
            b"rel" => {
                Op::Release(LockId::from_index(self.operand(Table::Lock, head, body, line)?))
            }
            b"fork" => {
                Op::Fork(ThreadId::from_index(self.operand(Table::Thread, head, body, line)?))
            }
            b"join" => {
                Op::Join(ThreadId::from_index(self.operand(Table::Thread, head, body, line)?))
            }
            b"begin" if body.is_empty() => Op::Begin,
            b"end" if body.is_empty() => Op::End,
            _ => return Err(error(ParseErrorKind::UnknownOp(head.to_owned()))),
        };
        Ok(Some(Event::new(t, op)))
    }

    /// Interns the name inside `body` = `(name)`, trimmed and non-empty.
    fn operand(
        &mut self,
        table: Table,
        head: &str,
        body: &str,
        line: usize,
    ) -> Result<usize, ParseTraceError> {
        let name = match body.as_bytes() {
            [b'(', .., b')'] => trim(&body[1..body.len() - 1]),
            _ => "",
        };
        if name.is_empty() {
            return Err(ParseTraceError {
                line,
                kind: ParseErrorKind::MissingOperand(head.to_owned()),
            });
        }
        let names = match table {
            Table::Thread => &mut self.threads,
            Table::Lock => &mut self.locks,
            Table::Var => &mut self.vars,
        };
        Ok(self.memo.intern(names, table, name))
    }
}

/// Byte offset of the first `byte` (an ASCII delimiter) in `s`.
#[inline]
fn find(s: &str, byte: u8) -> Option<usize> {
    s.bytes().position(|b| b == byte)
}

/// `str::trim`, answered without decoding a character when both end
/// bytes are visible ASCII — the usual case, where there is nothing to
/// trim.
#[inline]
fn trim(s: &str) -> &str {
    match s.as_bytes() {
        [first, .., last] if first.is_ascii_graphic() && last.is_ascii_graphic() => s,
        [only] if only.is_ascii_graphic() => s,
        _ => s.trim(),
    }
}

/// Number of slots in a [`NameMemo`].
const MEMO_SLOTS: usize = 1024;
/// Longest name, in bytes, a [`NameMemo`] slot holds; longer names go
/// straight to the [`Interner`].
const MEMO_NAME_BYTES: usize = 16;

/// A direct-mapped memo of recent name lookups in front of the
/// [`Interner`]s: a slot holds a name's table, bytes and index. A hit
/// compares the whole key, so the memo only answers for a name it holds,
/// and a miss falls through to the interner. Its hash is fixed and
/// unkeyed — input built to collide can only cause misses; the
/// interner's own keyed hash is what keeps lookups cheap under hostile
/// names.
#[derive(Debug)]
struct NameMemo {
    slots: Box<[MemoSlot]>,
}

#[derive(Clone, Copy, Default, Debug)]
struct MemoSlot {
    /// The default key, of no table, marks an empty slot.
    key: MemoKey,
    index: u32,
}

impl NameMemo {
    fn new() -> Self {
        Self { slots: vec![MemoSlot::default(); MEMO_SLOTS].into_boxed_slice() }
    }

    fn clear(&mut self) {
        self.slots.fill(MemoSlot::default());
    }

    /// `names.intern(name)`, memoised.
    #[inline]
    fn intern(&mut self, names: &mut Interner, table: Table, name: &str) -> usize {
        let Some(key) = MemoKey::new(table, name) else {
            return names.intern(name);
        };
        let slot = &mut self.slots[key.slot()];
        if slot.key == key {
            return slot.index as usize;
        }
        let index = names.intern(name);
        if let Ok(stored) = u32::try_from(index) {
            *slot = MemoSlot { key, index: stored };
        }
        index
    }
}

/// A name as a [`NameMemo`] stores it.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct MemoKey {
    /// The name's bytes, zero-padded.
    name: [u64; 2],
    /// `table << 8 | len`.
    meta: u32,
}

impl MemoKey {
    /// The key of `name` in `table`; `None` if it is too long to memoise.
    #[inline]
    fn new(table: Table, name: &str) -> Option<Self> {
        let bytes = name.as_bytes();
        if bytes.len() > MEMO_NAME_BYTES {
            return None;
        }
        let mut padded = [0u64; 2];
        for (i, &b) in bytes.iter().enumerate() {
            padded[i / 8] |= u64::from(b) << (8 * (i % 8));
        }
        Some(Self { name: padded, meta: (table as u32) << 8 | bytes.len() as u32 })
    }

    /// The slot this key maps to.
    #[inline]
    fn slot(&self) -> usize {
        let hash = (self.name[0] ^ self.name[1].rotate_left(29) ^ u64::from(self.meta))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hash >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }
}

/// The grammar as it stood before the byte parser: `&str` lines read one
/// at a time, trimmed and split with `str` methods. Kept only as the
/// reference the byte grammar is tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{ParseErrorKind, ParseTraceError};
    use crate::ids::{Interner, LockId, ThreadId, VarId};
    use crate::trace::{Event, Op};

    fn operand<'a>(body: &'a str, head: &str, line: usize) -> Result<&'a str, ParseTraceError> {
        let inner = body
            .strip_prefix('(')
            .and_then(|s| s.strip_suffix(')'))
            .map(str::trim)
            .filter(|s| !s.is_empty());
        inner.ok_or_else(|| ParseTraceError {
            line,
            kind: ParseErrorKind::MissingOperand(head.to_owned()),
        })
    }

    /// Parses one pre-trimmed, non-blank, non-comment event line.
    pub(crate) fn parse_event_line(
        line: &str,
        line_no: usize,
        threads: &mut Interner,
        locks: &mut Interner,
        vars: &mut Interner,
    ) -> Result<Event, ParseTraceError> {
        let mut fields = line.splitn(3, '|');
        let thread = fields.next().unwrap_or("").trim();
        let op = fields
            .next()
            .ok_or(ParseTraceError { line: line_no, kind: ParseErrorKind::MalformedLine })?
            .trim();
        if thread.is_empty() {
            return Err(ParseTraceError { line: line_no, kind: ParseErrorKind::EmptyThread });
        }
        let t = ThreadId::from_index(threads.intern(thread));
        let (head, body) = match op.find('(') {
            Some(p) => op.split_at(p),
            None => (op, ""),
        };
        let op = match head {
            "r" => Op::Read(VarId::from_index(vars.intern(operand(body, head, line_no)?))),
            "w" => Op::Write(VarId::from_index(vars.intern(operand(body, head, line_no)?))),
            "acq" => Op::Acquire(LockId::from_index(locks.intern(operand(body, head, line_no)?))),
            "rel" => Op::Release(LockId::from_index(locks.intern(operand(body, head, line_no)?))),
            "fork" => Op::Fork(ThreadId::from_index(threads.intern(operand(body, head, line_no)?))),
            "join" => Op::Join(ThreadId::from_index(threads.intern(operand(body, head, line_no)?))),
            "begin" if body.is_empty() => Op::Begin,
            "end" if body.is_empty() => Op::End,
            other => {
                return Err(ParseTraceError {
                    line: line_no,
                    kind: ParseErrorKind::UnknownOp(other.to_owned()),
                })
            }
        };
        Ok(Event::new(t, op))
    }

    /// Everything the reference makes of a text.
    #[derive(Debug, Default)]
    pub(crate) struct Run {
        /// Each event with its 1-based line.
        pub(crate) events: Vec<(Event, usize)>,
        pub(crate) threads: Interner,
        pub(crate) locks: Interner,
        pub(crate) vars: Interner,
        /// The first error, which ends the run.
        pub(crate) error: Option<ParseTraceError>,
        /// The last line read.
        pub(crate) line: usize,
    }

    /// Reads `text` the way the former `read_line` loop did.
    pub(crate) fn run(text: &str) -> Run {
        let mut run = Run::default();
        for raw in text.split_inclusive('\n') {
            run.line += 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match parse_event_line(line, run.line, &mut run.threads, &mut run.locks, &mut run.vars)
            {
                Ok(event) => run.events.push((event, run.line)),
                Err(e) => {
                    run.error = Some(e);
                    break;
                }
            }
        }
        run
    }
}

/// Parses a trace in the `.std` text format.
///
/// Implemented as a collect over the streaming
/// [`StdReader`], so the incremental and batch
/// paths cannot diverge.
///
/// # Errors
///
/// Returns a [`ParseTraceError`] identifying the first malformed line.
pub fn parse_trace(src: &str) -> Result<Trace, ParseTraceError> {
    let mut reader = StdReader::new(src.as_bytes());
    let mut events = Vec::new();
    loop {
        match reader.next_event() {
            Ok(Some(event)) => events.push(event),
            Ok(None) => break,
            Err(SourceError::Parse(e)) => return Err(e),
            Err(SourceError::Io(_) | SourceError::Malformed(_) | SourceError::Binary(_)) => {
                unreachable!("in-memory reads cannot fail and StdReader does not validate")
            }
        }
    }
    let (threads, locks, vars) = reader.into_names();
    Ok(Trace::from_parts(events, threads, locks, vars))
}

/// Serialises a trace to the `.std` text format, one event per line, with
/// the event's trace offset as the `<loc>` field.
///
/// A thin wrapper over the streaming
/// [`copy_events`]. Round-trips with
/// [`parse_trace`]: parsing the output reproduces an event-identical
/// trace (name tables may be re-ordered only if the trace was built with
/// interning order different from first-occurrence order, which
/// [`crate::TraceBuilder`] never does for events it has seen).
#[must_use]
pub fn write_trace(trace: &Trace) -> String {
    let mut out = Vec::with_capacity(trace.len() * 16);
    copy_events(&mut trace.stream(), &mut out).expect("in-memory serialisation cannot fail");
    String::from_utf8(out).expect("the .std format is ASCII-clean over valid UTF-8 names")
}

#[cfg(test)]
mod tests {
    use std::io::BufReader;

    use proptest::prelude::*;

    use super::*;
    use crate::stream::EventBatch;
    use crate::trace::{EventId, TraceBuilder};

    #[test]
    fn parses_all_operations() {
        let src = "\
main|fork(w)|0
main|begin|1
main|acq(mu)|2
main|w(x)|3
main|r(x)|4
main|rel(mu)|5
main|end|6
w|begin|7
w|end|8
main|join(w)|9
";
        let tr = parse_trace(src).unwrap();
        assert_eq!(tr.len(), 10);
        assert_eq!(tr.num_threads(), 2);
        assert_eq!(tr.num_locks(), 1);
        assert_eq!(tr.num_vars(), 1);
        assert!(matches!(tr[0].op, Op::Fork(_)));
        assert!(matches!(tr[9].op, Op::Join(_)));
    }

    #[test]
    fn skips_blank_lines_and_comments() {
        let src = "# a comment\n\n t1 | begin | 0 \n\nt1|end\n";
        let tr = parse_trace(src).unwrap();
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn loc_field_is_optional() {
        let tr = parse_trace("t1|w(x)").unwrap();
        assert_eq!(tr.len(), 1);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert_eq!(parse_trace("justonefield").unwrap_err().kind, ParseErrorKind::MalformedLine);
        assert_eq!(parse_trace("|begin|0").unwrap_err().kind, ParseErrorKind::EmptyThread);
        assert!(matches!(
            parse_trace("t1|frobnicate(x)|0").unwrap_err().kind,
            ParseErrorKind::UnknownOp(_)
        ));
        assert!(matches!(
            parse_trace("t1|r()|0").unwrap_err().kind,
            ParseErrorKind::MissingOperand(_)
        ));
        assert!(matches!(
            parse_trace("t1|r|0").unwrap_err().kind,
            ParseErrorKind::MissingOperand(_)
        ));
    }

    #[test]
    fn error_reports_line_number() {
        let err = parse_trace("t1|begin|0\nt1|bogus|1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn roundtrip_preserves_events() {
        let mut tb = TraceBuilder::new();
        let (t1, t2) = (tb.thread("t1"), tb.thread("t2"));
        let l = tb.lock("m");
        let x = tb.var("x");
        tb.fork(t1, t2)
            .begin(t1)
            .acquire(t1, l)
            .write(t1, x)
            .release(t1, l)
            .end(t1)
            .begin(t2)
            .read(t2, x)
            .end(t2)
            .join(t1, t2);
        let tr = tb.finish();
        let text = write_trace(&tr);
        let back = parse_trace(&text).unwrap();
        assert_eq!(back.events(), tr.events());
        assert_eq!(back.num_threads(), tr.num_threads());
    }

    /// Whitespace of every class `str::trim` strips, including U+000B,
    /// which `u8::is_ascii_whitespace` does not.
    const SPACE: [&str; 8] = ["", " ", "\t", "\r", "\u{0B}", "\u{0C}", "\u{A0}", "\u{2003}"];
    const NAMES: [&str; 8] =
        ["t1", "t2", "x", "mu", "a_name_longer_than_sixteen", "é", "a b", "(x)"];
    const OPS: [&str; 8] = ["r", "w", "acq", "rel", "fork", "join", "begin", "end"];
    const LOCS: [&str; 6] = ["", "|7", "|a|b", "| é |", "|", "||"];
    /// One line for each of the grammar's four error kinds.
    const BAD: [&str; 6] =
        ["justonefield", "|begin|0", "t1|frobnicate(x)|0", "t1|r()|0", "t1|r|0", "t1|begin(x)|0"];

    /// A line of the generated texts, chosen by the bits of `seed`:
    /// mostly event lines with whitespace around and inside every field,
    /// then comments, blank lines and (rarely) a malformed line.
    fn generated_line(seed: u64) -> String {
        let mut bits = seed;
        let mut pick = |n: usize| {
            let v = (bits % n as u64) as usize;
            bits /= n as u64;
            v
        };
        let content = match pick(40) {
            0 => BAD[pick(BAD.len())].to_owned(),
            1..=3 => format!("#{}", NAMES[pick(NAMES.len())]),
            4..=5 => String::new(),
            _ => {
                let op = OPS[pick(OPS.len())];
                let op = if matches!(op, "begin" | "end") {
                    op.to_owned()
                } else {
                    let name = NAMES[pick(NAMES.len())];
                    format!("{op}({}{name}{})", SPACE[pick(8)], SPACE[pick(8)])
                };
                format!(
                    "{}{}|{}{op}{}{}",
                    NAMES[pick(NAMES.len())],
                    SPACE[pick(8)],
                    SPACE[pick(8)],
                    SPACE[pick(8)],
                    LOCS[pick(LOCS.len())]
                )
            }
        };
        let ending = if pick(4) == 0 { "\r\n" } else { "\n" };
        format!("{}{content}{}{ending}", SPACE[pick(8)], SPACE[pick(8)])
    }

    /// Everything a [`StdReader`] makes of `text` when its buffer hands
    /// out at most `step` bytes per refill, in the shape of
    /// [`reference::Run`]. `target` selects batches of that size, `None`
    /// per-event iteration.
    fn byte_run(text: &str, step: usize, target: Option<usize>) -> reference::Run {
        let mut reader = StdReader::new(BufReader::with_capacity(step, text.as_bytes()));
        let mut run = reference::Run::default();
        let mut batch = EventBatch::with_target(target.unwrap_or(1));
        loop {
            let first = run.events.len() as u64;
            let pulled = match target {
                Some(_) => reader.next_batch(&mut batch).map(|n| n > 0),
                None => {
                    batch.clear();
                    reader.next_event().map(|e| {
                        batch.extend_from_slice(e.as_slice());
                        e.is_some()
                    })
                }
            };
            for (i, &event) in batch.events().iter().enumerate() {
                let line = reader.line_of(EventId(first + i as u64)).expect("in the window");
                run.events.push((event, line));
            }
            match pulled {
                Ok(true) => {}
                Ok(false) => break,
                Err(SourceError::Parse(e)) => {
                    run.error = Some(e);
                    break;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        run.line = reader.line();
        (run.threads, run.locks, run.vars) = reader.into_names();
        run
    }

    fn assert_same_run(text: &str, expected: &reference::Run, step: usize, target: Option<usize>) {
        let got = byte_run(text, step, target);
        let context = format!("step {step}, target {target:?}, text {text:?}");
        assert_eq!(got.events, expected.events, "{context}");
        assert_eq!(got.error, expected.error, "{context}");
        assert_eq!(got.line, expected.line, "{context}");
        assert_eq!(got.threads, expected.threads, "{context}");
        assert_eq!(got.locks, expected.locks, "{context}");
        assert_eq!(got.vars, expected.vars, "{context}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The byte grammar against the `&str` reference on generated
        /// lines, read through buffers of 1–7 bytes per refill, per event
        /// and in batches: identical events, lines, name tables and
        /// errors.
        #[test]
        fn byte_grammar_equals_reference(
            lines in prop::collection::vec(0u64..u64::MAX, 0..40),
            unterminated in any::<bool>(),
            step in 1usize..8,
            target in 1usize..6,
        ) {
            let mut text: String = lines.iter().map(|&seed| generated_line(seed)).collect();
            if unterminated && text.ends_with('\n') {
                text.pop();
            }
            let expected = reference::run(&text);
            assert_same_run(&text, &expected, step, None);
            assert_same_run(&text, &expected, step, Some(target));
            assert_same_run(&text, &expected, 1 << 13, Some(target));
        }
    }

    #[test]
    fn every_error_kind_and_whitespace_class_matches_the_reference() {
        for bad in BAD {
            for space in SPACE {
                let text = format!("t1|begin|0\n{space}{bad}{space}\nt1|end|2\n");
                let expected = reference::run(&text);
                assert!(expected.error.is_some(), "{text:?}");
                for step in 1..8 {
                    assert_same_run(&text, &expected, step, None);
                    assert_same_run(&text, &expected, step, Some(2));
                }
            }
        }
    }

    #[test]
    fn memo_answers_match_the_interner_past_its_capacity() {
        // More names than memo slots, revisited in an order that makes
        // slots change hands: short names, names that differ only after
        // their first 8 bytes, one name in two tables, and names too
        // long to be memoised.
        let mut text = String::new();
        for round in 0..3 {
            for i in 0..(3 * MEMO_SLOTS) {
                let i = (i * 7 + round) % (3 * MEMO_SLOTS);
                text.push_str(&format!("t{}|w(v{i})|0\nt1|r(prefix8_{i})|0\n", i % 5));
                text.push_str(&format!("t1|acq(v{i})|0\nt1|r(a_long_variable_name_{i})|0\n"));
            }
        }
        let expected = reference::run(&text);
        assert_eq!(expected.vars.len(), 9 * MEMO_SLOTS);
        assert_eq!(expected.locks.len(), 3 * MEMO_SLOTS);
        assert_same_run(&text, &expected, 1 << 13, Some(4096));
    }

    #[test]
    fn a_memo_slot_answers_only_for_its_exact_key() {
        // Plant, in the slot `x` maps to as a variable, entries whose
        // name words equal those of `x` but whose table or length
        // differ (a trailing NUL leaves the zero-padded words unchanged).
        let mut memo = NameMemo::new();
        let mut vars = Interner::new();
        vars.intern("pad");
        let key = MemoKey::new(Table::Var, "x").expect("short");
        for (table, name) in [(Table::Lock, "x"), (Table::Thread, "x"), (Table::Var, "x\0")] {
            let twin = MemoKey::new(table, name).expect("short");
            assert_eq!(twin.name, key.name);
            memo.slots[key.slot()] = MemoSlot { key: twin, index: 7 };
            assert_eq!(memo.intern(&mut vars, Table::Var, "x"), 1);
        }
        assert_eq!(memo.intern(&mut vars, Table::Var, "x"), 1, "a hit");
        assert_eq!(memo.slots[key.slot()].index, 1);
    }

    #[test]
    fn trims_unicode_white_space_like_str_trim() {
        for space in SPACE {
            for s in ["", "x", "x y", "é", "\u{0B}"] {
                let padded = format!("{space}{s}{space}");
                assert_eq!(trim(&padded), padded.trim(), "{padded:?}");
            }
        }
    }
}
