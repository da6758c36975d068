//! Structured request tracing: deterministic trace ids, a levelled
//! line-oriented log with a pluggable sink, and a bounded ring of the
//! slowest requests.
//!
//! Trace ids carry no ambient randomness — they are derived from a
//! worker id plus per-connection and per-request counters, so
//! `mvq_lint`'s determinism rule holds and a trace can be replayed
//! against a log by id alone.

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// How much the trace log emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Nothing (the default).
    Off = 0,
    /// One structured line per request.
    Info = 1,
    /// Info plus verbose internal events.
    Debug = 2,
}

impl LogLevel {
    /// Parses `off` / `info` / `debug` (case-insensitive).
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(LogLevel::Off),
            "info" | "1" => Some(LogLevel::Info),
            "debug" | "2" => Some(LogLevel::Debug),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> LogLevel {
        match v {
            0 => LogLevel::Off,
            1 => LogLevel::Info,
            _ => LogLevel::Debug,
        }
    }
}

/// Deterministic per-request identifier: worker id, connection serial,
/// request serial within the connection. Displays as `w3-c12-r1`.
/// Worker 0 is reserved for the acceptor thread (overload sheds are
/// written before a worker is involved).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceId {
    /// Worker index (0 = acceptor).
    pub worker: u32,
    /// Connection serial, assigned at accept time.
    pub conn: u64,
    /// Request serial within the connection (keep-alive), from 1.
    pub req: u64,
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}-c{}-r{}", self.worker, self.conn, self.req)
    }
}

/// A levelled, line-oriented structured log. The level check is a single
/// relaxed atomic load, so a disabled log costs nothing on the request
/// path; emission locks the sink (default: stderr).
pub struct TraceLog {
    level: AtomicU8,
    sink: Mutex<Box<dyn Write + Send>>,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceLog {
    /// A log at [`LogLevel::Off`] writing to stderr.
    pub fn new() -> Self {
        Self {
            level: AtomicU8::new(LogLevel::Off as u8),
            sink: Mutex::new(Box::new(std::io::stderr())),
        }
    }

    /// Current level.
    pub fn level(&self) -> LogLevel {
        LogLevel::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Changes the level.
    pub fn set_level(&self, level: LogLevel) {
        self.level.store(level as u8, Ordering::Relaxed);
    }

    /// Whether a line at `level` would be emitted.
    #[inline]
    pub fn enabled(&self, level: LogLevel) -> bool {
        level as u8 <= self.level.load(Ordering::Relaxed) && level != LogLevel::Off
    }

    /// Replaces the output sink (tests install an in-memory buffer).
    pub fn set_sink(&self, sink: Box<dyn Write + Send>) {
        *self.sink.lock().expect("trace sink poisoned") = sink;
    }

    /// Writes `line` (a complete JSON object, no trailing newline) if
    /// `level` is enabled. Write errors are swallowed: tracing must
    /// never take a request down.
    pub fn emit(&self, level: LogLevel, line: &str) {
        if !self.enabled(level) {
            return;
        }
        // lint: allow(panic) sink lock holders only call write_all, which cannot panic
        let mut sink = self.sink.lock().expect("trace sink poisoned");
        let _ = sink.write_all(line.as_bytes());
        let _ = sink.write_all(b"\n");
        let _ = sink.flush();
    }
}

/// One retained slow-request record.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// Total request latency in microseconds.
    pub total_us: u64,
    /// The request's full trace line (JSON object).
    pub line: String,
}

/// Bounded collection of the N slowest requests seen so far, kept
/// sorted slowest-first. Served at `GET /debug/slow`.
pub struct SlowRing {
    cap: usize,
    entries: Mutex<Vec<SlowEntry>>,
}

impl SlowRing {
    /// A ring retaining at most `cap` entries.
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            entries: Mutex::new(Vec::with_capacity(cap)),
        }
    }

    /// Offers one request; retained only if it ranks among the slowest.
    pub fn record(&self, total_us: u64, line: &str) {
        if self.cap == 0 {
            return;
        }
        // lint: allow(panic) ring lock holders only do Vec ops on pre-checked indices
        let mut entries = self.entries.lock().expect("slow ring poisoned");
        if entries.len() == self.cap && entries.last().is_some_and(|e| e.total_us >= total_us) {
            return;
        }
        let at = entries.partition_point(|e| e.total_us >= total_us);
        entries.insert(
            at,
            SlowEntry {
                total_us,
                line: line.to_string(),
            },
        );
        entries.truncate(self.cap);
    }

    /// The retained entries, slowest first.
    pub fn snapshot(&self) -> Vec<SlowEntry> {
        // lint: allow(panic) ring lock holders only do Vec ops on pre-checked indices
        self.entries.lock().expect("slow ring poisoned").clone()
    }
}
