//! Request-scoped spans: the causality layer on top of the counter and
//! latency telemetry.
//!
//! A [`RequestId`] is minted once per client command — at NBD decode in
//! the serving plane, or at `SharedVolume` entry for direct callers —
//! and carried through every hop the request touches: scheduler
//! dispatch, read-plane single-flight, wlog append, batch seal, PUT,
//! frontier advance. Each hop records a [`Span`] (parent id, stage,
//! start/end on the ring's real clock plus the request-count virtual
//! clock) into a lock-sharded [`SpanRing`], so hot paths on different
//! threads never contend on one mutex.
//!
//! Spans with `req != 0` belong to a client request; spans with
//! `req == 0` are pipeline-scoped (seal / PUT / frontier advance, which
//! amortize many requests into one backend object). The two are joined
//! by data, not by parent pointers: a wlog-append span records the cache
//! sequence it appended (`arg_a`), and a seal span records the object
//! sequence (`arg_a`) plus the last cache sequence it covers (`arg_b`),
//! so `wlog.arg_a <= seal.arg_b` finds the object that made a write
//! durable.
//!
//! [`SpanRing::to_chrome_trace`] renders the ring as Chrome
//! `trace_event` JSON (`ph: "X"` complete events) loadable in
//! `about:tracing` or Perfetto: request spans share `pid 1` with
//! `tid = req` (one connected track per request), pipeline spans share
//! `pid 2` with `tid = object seq`.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The pipeline hop a [`Span`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// NBD command decode (header + payload off the socket).
    /// `arg_a` = NBD command code, `arg_b` = payload/range length.
    Decode,
    /// Scheduler dispatch: dequeue from a lane through volume completion.
    /// `arg_a` = lane (0 ordered, 1 concurrent), `arg_b` = connection id.
    Dispatch,
    /// A read served by the read plane. `arg_a` = first LBA,
    /// `arg_b` = bytes.
    Read,
    /// Single-flight miss fetch, leader side. `arg_a` = object seq.
    FetchLead,
    /// Single-flight miss fetch, waiter side. `arg_a` = object seq,
    /// `arg_b` = the leader's span id (which fetch this waiter joined).
    FetchJoin,
    /// Write-log append. `arg_a` = cache sequence appended,
    /// `arg_b` = bytes.
    WlogAppend,
    /// Client flush (write-log commit barrier).
    Flush,
    /// Client trim. `arg_a` = first LBA, `arg_b` = sectors.
    Trim,
    /// Batch seal into an immutable object image. `arg_a` = object seq,
    /// `arg_b` = last cache sequence covered.
    BatchSeal,
    /// Backend PUT lifetime (submit through terminal completion).
    /// `arg_a` = object seq, `arg_b` = retries.
    Put,
    /// Durable frontier advance past an object. `arg_a` = object seq.
    FrontierAdvance,
}

impl Stage {
    /// Stable lower-case name used in exports and the blackbox format.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Dispatch => "dispatch",
            Stage::Read => "read",
            Stage::FetchLead => "fetch_lead",
            Stage::FetchJoin => "fetch_join",
            Stage::WlogAppend => "wlog_append",
            Stage::Flush => "flush",
            Stage::Trim => "trim",
            Stage::BatchSeal => "batch_seal",
            Stage::Put => "put",
            Stage::FrontierAdvance => "frontier_advance",
        }
    }

    /// Parses the name emitted by [`Stage::name`].
    pub fn parse(s: &str) -> Option<Stage> {
        Some(match s {
            "decode" => Stage::Decode,
            "dispatch" => Stage::Dispatch,
            "read" => Stage::Read,
            "fetch_lead" => Stage::FetchLead,
            "fetch_join" => Stage::FetchJoin,
            "wlog_append" => Stage::WlogAppend,
            "flush" => Stage::Flush,
            "trim" => Stage::Trim,
            "batch_seal" => Stage::BatchSeal,
            "put" => Stage::Put,
            "frontier_advance" => Stage::FrontierAdvance,
            _ => return None,
        })
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded hop of one request (or of one pipeline object when
/// `req == 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Ring-unique span id (never 0).
    pub id: u64,
    /// Parent span id within the same request, or 0 for a root span.
    pub parent: u64,
    /// The request this span serves, or 0 for pipeline-scoped spans.
    pub req: u64,
    /// Which hop this is.
    pub stage: Stage,
    /// Microseconds since the ring was created, at span start.
    pub t_start_us: u64,
    /// Microseconds since the ring was created, at span end.
    pub t_end_us: u64,
    /// Virtual clock (requests minted so far) when the span *began* —
    /// begin-time, so the clock is monotone along a parent/child chain
    /// (a parent ends after its children; it never begins after them).
    pub virt: u64,
    /// Stage-specific argument (see [`Stage`] docs).
    pub arg_a: u64,
    /// Stage-specific argument (see [`Stage`] docs).
    pub arg_b: u64,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "span#{:06} req={:<5} parent={:<6} {:>16} [{:>10}us..{:>10}us] v={:<6} a={} b={}",
            self.id,
            self.req,
            self.parent,
            self.stage.name(),
            self.t_start_us,
            self.t_end_us,
            self.virt,
            self.arg_a,
            self.arg_b,
        )
    }
}

/// An open span: the start-side half captured by [`SpanRing::begin`],
/// finished (and recorded) by [`SpanRing::finish`]. `Copy`, so it can be
/// stashed in maps across threads (e.g. PUT submit → completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenSpan {
    /// The span id the finished record will carry.
    pub id: u64,
    /// Parent span id.
    pub parent: u64,
    /// Owning request id (0 = pipeline-scoped).
    pub req: u64,
    /// Which hop this is.
    pub stage: Stage,
    /// Microseconds since the ring was created, at [`SpanRing::begin`].
    pub t_start_us: u64,
    /// Virtual clock at [`SpanRing::begin`].
    pub virt: u64,
}

/// Lock-sharded fixed-capacity span ring.
///
/// `record` takes exactly one shard mutex (chosen by span id), so
/// concurrent NBD workers, the dispatcher, and writeback completions
/// never serialize on the ring. When a shard is full its oldest span is
/// dropped and counted; [`SpanRing::dropped`] makes the loss visible.
pub struct SpanRing {
    shards: Vec<Mutex<VecDeque<Span>>>,
    shard_cap: usize,
    start: Instant,
    next_id: AtomicU64,
    next_req: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
    enabled: AtomicBool,
}

impl fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanRing")
            .field("shards", &self.shards.len())
            .field("shard_cap", &self.shard_cap)
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl SpanRing {
    /// Creates a ring of `shards` shards holding at most `capacity`
    /// spans in total (each shard gets `capacity / shards`, minimum 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let shard_cap = (capacity / shards).max(1);
        SpanRing {
            shards: (0..shards)
                .map(|_| Mutex::new(VecDeque::with_capacity(shard_cap)))
                .collect(),
            shard_cap,
            start: Instant::now(),
            next_id: AtomicU64::new(1),
            next_req: AtomicU64::new(1),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            // Off by default: tracing is opt-in (CLI flags, tests,
            // benches), and a disabled ring costs one relaxed load per
            // instrumentation site.
            enabled: AtomicBool::new(false),
        }
    }

    /// Whether spans are being recorded. Checked (one relaxed load) at
    /// the top of every instrumentation site, so disabling tracing
    /// reduces it to a branch.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Already-buffered spans are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Mints a fresh [`RequestId`]-style id (never 0) and advances the
    /// virtual clock. Returns 0 when tracing is disabled, which every
    /// downstream site treats as "don't record".
    pub fn mint_request(&self) -> u64 {
        if !self.enabled() {
            return 0;
        }
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    /// Current virtual clock: requests minted so far.
    pub fn virt(&self) -> u64 {
        self.next_req.load(Ordering::Relaxed).saturating_sub(1)
    }

    /// Microseconds of wall-clock time since the ring was created.
    pub fn now_us(&self) -> u64 {
        self.us_at(Instant::now())
    }

    /// Microseconds from the ring's creation to `at`.
    fn us_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.start)
            .as_micros()
            .min(u128::from(u64::MAX)) as u64
    }

    /// Opens a span at the current clock. Returns `None` when tracing is
    /// disabled or the hop serves no request (`req == 0` for a
    /// request-scoped stage is the caller's "not traced" sentinel —
    /// pipeline stages pass `req = 0` deliberately and always record).
    pub fn begin(&self, req: u64, parent: u64, stage: Stage) -> Option<OpenSpan> {
        if !self.enabled() {
            return None;
        }
        self.begin_at(req, parent, stage, Instant::now())
    }

    /// [`SpanRing::begin`] at `at`, a clock reading the caller already
    /// holds (e.g. the start of a latency measurement): a clock read is
    /// most of a span's cost, so adjacent hops should share one.
    pub fn begin_at(&self, req: u64, parent: u64, stage: Stage, at: Instant) -> Option<OpenSpan> {
        if !self.enabled() {
            return None;
        }
        Some(OpenSpan {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            req,
            stage,
            t_start_us: self.us_at(at),
            virt: self.virt(),
        })
    }

    /// Closes `open` at the current clock and records it. Returns the
    /// span id (usable as a parent for child hops).
    pub fn finish(&self, open: OpenSpan, arg_a: u64, arg_b: u64) -> u64 {
        self.finish_at(open, Instant::now(), arg_a, arg_b)
    }

    /// [`SpanRing::finish`] at `at`, a clock reading the caller already
    /// holds (see [`SpanRing::begin_at`]).
    pub fn finish_at(&self, open: OpenSpan, at: Instant, arg_a: u64, arg_b: u64) -> u64 {
        let span = Span {
            id: open.id,
            parent: open.parent,
            req: open.req,
            stage: open.stage,
            t_start_us: open.t_start_us,
            t_end_us: self.us_at(at),
            virt: open.virt,
            arg_a,
            arg_b,
        };
        self.record(span);
        open.id
    }

    /// Records an instantaneous span (start == end == now).
    pub fn instant(&self, req: u64, parent: u64, stage: Stage, arg_a: u64, arg_b: u64) -> u64 {
        match self.begin(req, parent, stage) {
            Some(open) => self.finish(open, arg_a, arg_b),
            None => 0,
        }
    }

    /// Records a fully-built span into its shard.
    pub fn record(&self, span: Span) {
        let shard = &self.shards[(span.id as usize) % self.shards.len()];
        let mut buf = shard.lock().unwrap();
        if buf.len() == self.shard_cap {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(span);
        drop(buf);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// All buffered spans, merged across shards, ordered by start time
    /// (ties broken by id). Does not consume the ring.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().unwrap().iter().copied());
        }
        out.sort_by_key(|s| (s.t_start_us, s.id));
        out
    }

    /// Removes and returns all buffered spans, ordered as
    /// [`SpanRing::snapshot`].
    pub fn drain(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().unwrap().drain(..));
        }
        out.sort_by_key(|s| (s.t_start_us, s.id));
        out
    }

    /// Total spans ever recorded (buffered + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total ring capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shard_cap * self.shards.len()
    }

    /// Renders the newest `limit` spans (0 = all buffered) as Chrome
    /// `trace_event` JSON: one `ph: "X"` complete event per span, request
    /// tracks on pid 1 (`tid = req`), pipeline tracks on pid 2
    /// (`tid = object seq`). Loadable in `about:tracing` and Perfetto.
    pub fn to_chrome_trace(&self, limit: usize) -> String {
        let mut spans = self.snapshot();
        if limit > 0 && spans.len() > limit {
            let cut = spans.len() - limit;
            spans.drain(..cut);
        }
        let mut out = String::with_capacity(256 + spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
             \"args\":{\"name\":\"requests\"}},",
        );
        out.push_str(
            "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\
             \"args\":{\"name\":\"writeback pipeline\"}}",
        );
        for s in &spans {
            let (pid, tid) = if s.req != 0 { (1, s.req) } else { (2, s.arg_a) };
            // Perfetto rejects zero-duration complete events from some
            // importers; clamp to 1us so instants stay visible.
            let dur = (s.t_end_us - s.t_start_us).max(1);
            use std::fmt::Write as _;
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"lsvd\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"req\":{},\
                 \"virt\":{},\"a\":{},\"b\":{}}}}}",
                s.stage.name(),
                s.t_start_us,
                dur,
                pid,
                tid,
                s.id,
                s.parent,
                s.req,
                s.virt,
                s.arg_a,
                s.arg_b,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn begin_finish_records_ordered_spans() {
        let ring = SpanRing::new(64, 4);
        ring.set_enabled(true);
        let req = ring.mint_request();
        assert_ne!(req, 0);
        let root = ring.begin(req, 0, Stage::Decode).unwrap();
        let root_id = ring.finish(root, 1, 4096);
        let child = ring.begin(req, root_id, Stage::Dispatch).unwrap();
        ring.finish(child, 0, 7);
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, Stage::Decode);
        assert_eq!(spans[1].parent, root_id);
        assert!(spans.iter().all(|s| s.t_end_us >= s.t_start_us));
        assert_eq!(ring.recorded(), 2);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn shared_clock_readings_stamp_adjacent_spans() {
        let ring = SpanRing::new(64, 4);
        ring.set_enabled(true);
        let req = ring.mint_request();
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_micros(250);
        let t2 = t1 + std::time::Duration::from_micros(40);
        let a = ring.begin_at(req, 0, Stage::Decode, t0).unwrap();
        let a_id = ring.finish_at(a, t1, 0, 0);
        let b = ring.begin_at(req, a_id, Stage::Dispatch, t1).unwrap();
        ring.finish_at(b, t2, 0, 0);
        let spans = ring.snapshot();
        assert_eq!(
            spans[0].t_end_us, spans[1].t_start_us,
            "one reading, two stamps"
        );
        assert_eq!(spans[0].t_end_us - spans[0].t_start_us, 250);
        assert_eq!(spans[1].t_end_us - spans[1].t_start_us, 40);
        ring.set_enabled(false);
        assert!(ring.begin_at(req, 0, Stage::Read, t2).is_none());
    }

    #[test]
    fn disabled_ring_records_nothing_and_mints_zero() {
        let ring = SpanRing::new(64, 4);
        assert!(!ring.enabled(), "rings start disabled");
        assert_eq!(ring.mint_request(), 0);
        assert!(ring.begin(1, 0, Stage::Read).is_none());
        assert_eq!(ring.instant(0, 0, Stage::FrontierAdvance, 1, 0), 0);
        assert!(ring.snapshot().is_empty());
        ring.set_enabled(true);
        assert_ne!(ring.mint_request(), 0);
    }

    #[test]
    fn full_shards_drop_oldest_and_count() {
        let ring = SpanRing::new(8, 2); // 4 per shard
        ring.set_enabled(true);
        for _ in 0..20 {
            ring.instant(0, 0, Stage::Put, 1, 0);
        }
        assert_eq!(ring.snapshot().len(), 8);
        assert_eq!(ring.dropped(), 12);
        assert_eq!(ring.recorded(), 20);
        assert_eq!(ring.capacity(), 8);
    }

    #[test]
    fn concurrent_recorders_do_not_lose_spans_under_capacity() {
        let ring = Arc::new(SpanRing::new(4096, 8));
        ring.set_enabled(true);
        let mut joins = Vec::new();
        for _ in 0..8 {
            let r = ring.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..64 {
                    let req = r.mint_request();
                    let open = r.begin(req, 0, Stage::Read).unwrap();
                    r.finish(open, 0, 4096);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(ring.recorded(), 8 * 64);
        assert_eq!(ring.dropped(), 0);
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 8 * 64);
        // Ids are unique even under contention.
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8 * 64);
    }

    #[test]
    fn chrome_trace_is_well_formed_and_respects_limit() {
        let ring = SpanRing::new(64, 4);
        ring.set_enabled(true);
        let req = ring.mint_request();
        let open = ring.begin(req, 0, Stage::Decode).unwrap();
        let id = ring.finish(open, 1, 512);
        ring.instant(req, id, Stage::WlogAppend, 7, 512);
        ring.instant(0, 0, Stage::BatchSeal, 3, 7);
        let json = crate::json::Json::parse(&ring.to_chrome_trace(0)).expect("parse");
        let events = json.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        // 2 metadata + 3 spans.
        assert_eq!(events.len(), 5);
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 3);
        for e in &xs {
            assert!(e.get("ts").is_some() && e.get("dur").is_some());
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
        }
        // Pipeline span rides pid 2 with tid = object seq.
        let seal = xs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("batch_seal"))
            .unwrap();
        assert_eq!(seal.get("pid").and_then(|p| p.as_u64()), Some(2));
        assert_eq!(seal.get("tid").and_then(|t| t.as_u64()), Some(3));

        let limited = ring.to_chrome_trace(1);
        let json = crate::json::Json::parse(&limited).expect("parse");
        let events = json.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 3, "2 metadata + 1 span");
    }

    #[test]
    fn stage_names_round_trip() {
        for stage in [
            Stage::Decode,
            Stage::Dispatch,
            Stage::Read,
            Stage::FetchLead,
            Stage::FetchJoin,
            Stage::WlogAppend,
            Stage::Flush,
            Stage::Trim,
            Stage::BatchSeal,
            Stage::Put,
            Stage::FrontierAdvance,
        ] {
            assert_eq!(Stage::parse(stage.name()), Some(stage));
        }
        assert_eq!(Stage::parse("nope"), None);
    }
}
