//! The event-driven serving reactor: one thread multiplexing every
//! client connection over `epoll(7)`.
//!
//! The previous serving plane spent three threads per connection
//! (reader, writer, and a share of the dispatcher); at fleet scale —
//! hundreds of volumes, a thousand connections — that is thousands of
//! stacks and a scheduler fight. The reactor replaces all of it with:
//!
//! - **one reactor thread** owning every socket (nonblocking), the
//!   accept loop, the handshake state machines, request framing, and
//!   reply serialization. Sockets sit in a persistent, level-triggered
//!   epoll interest set; a connection's registration changes only when
//!   its read/write interest does, so an idle connection costs nothing
//!   per round;
//! - **inline cache hits**: a READ whose every byte is local (write-back
//!   log, read cache, or never written) is served on the reactor thread
//!   itself, after the same QoS/DRR admission a queued read pays — one
//!   local read and no thread hop. Anything else (a backend GET, a
//!   contended read-plane lock, a throttled tenant, a read above
//!   `INLINE_MAX_BYTES`) falls back to the worker pool with nothing
//!   counted or debited;
//! - **a small worker pool** (see `server.rs`) pulling decoded jobs from
//!   the [`FleetScheduler`](crate::sched::FleetScheduler) and posting
//!   [`Completion`]s back;
//! - **a self-pipe waker** (`UnixStream::pair`): workers and the export
//!   registry nudge the reactor out of `epoll_wait` when completions land
//!   or exports are detached. Workers write it only when they find the
//!   completion list empty, so one wake carries a batch.
//!
//! Replies leave with vectored writes: the headers and payloads queued on
//! a connection go out in one `writev`.
//!
//! Each connection is a little state machine
//! (`Flags → Options → Transmission → Draining`). Negotiation routes
//! `NBD_OPT_GO` names through the shared
//! [`ExportRegistry`](lsvd::fleet::ExportRegistry) (empty name = sole
//! export), answers `NBD_OPT_LIST` from the same registry, and rejects
//! unknown names with `NBD_REP_ERR_UNKNOWN` while keeping the
//! negotiation alive. Backpressure is by not reading: a connection at its
//! in-flight window, or with `IN_CAP` bytes of replies not yet taken by
//! its client, loses read interest until replies drain, so a pipelining
//! client is throttled and no queue can grow without bound. Detached
//! (fenced) exports get their connections moved to `Draining`:
//! already-accepted jobs finish and their replies flush, then the socket
//! closes, which is exactly the detach contract (every acknowledged
//! write completes).

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::c_int;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use lsvd::fleet::{Export, ExportRegistry};
use telemetry::{FlightRecorder, OpenSpan, SpanRing, Stage, TraceEvent};

use crate::proto::*;
use crate::sched::{FleetScheduler, Job};
use crate::server::{self, MAX_IO_BYTES};

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

/// The kernel's `struct epoll_event`, which it packs on x86-64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

/// Token of the waker's read end in the interest set.
const WAKER: u64 = u64::MAX;
/// Token of the listener; every other token is a connection id.
const LISTENER: u64 = u64::MAX - 1;

/// A persistent, level-triggered epoll interest set plus the buffer
/// `epoll_wait` fills.
struct Poller {
    ep: OwnedFd,
    ready: Vec<EpollEvent>,
}

impl Poller {
    fn new() -> io::Result<Poller> {
        // SAFETY: a plain syscall with no pointer arguments.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just created and nothing else owns it.
        let ep = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Poller {
            ep,
            ready: vec![EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    /// Moves `fd`'s registration from `from` to `to` interest under
    /// `token`; 0 means not registered (a socket with nothing to wait for
    /// is left out, or epoll's always-on `EPOLLHUP` would spin it).
    fn set(&self, fd: RawFd, token: u64, from: u32, to: u32) -> io::Result<()> {
        let op = match (from, to) {
            _ if from == to => return Ok(()),
            (0, _) => EPOLL_CTL_ADD,
            (_, 0) => EPOLL_CTL_DEL,
            _ => EPOLL_CTL_MOD,
        };
        let mut ev = EpollEvent {
            events: to,
            data: token,
        };
        // SAFETY: `ev` is a live, correctly laid out `epoll_event` for the
        // duration of the call; a bad `fd` is reported as an error.
        if unsafe { epoll_ctl(self.ep.as_raw_fd(), op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Waits up to `timeout_ms` for readiness; returns how many entries
    /// of the ready list [`Poller::event`] may read.
    fn wait(&mut self, timeout_ms: i32) -> usize {
        // SAFETY: `ready` is an initialized buffer of `ready.len()`
        // events, which the kernel writes into and never past.
        let n = unsafe {
            epoll_wait(
                self.ep.as_raw_fd(),
                self.ready.as_mut_ptr(),
                self.ready.len() as c_int,
                timeout_ms,
            )
        };
        // EINTR (or any failure) is an empty round; the loop re-waits.
        n.max(0) as usize
    }

    /// The `k`th ready `(token, events)` of the last wait.
    fn event(&self, k: usize) -> (u64, u32) {
        let e = self.ready[k];
        (e.data, e.events)
    }
}

/// Ceiling on buffered unparsed input per connection: the largest legal
/// frame (header + one max WRITE payload) plus slack. A WRITE declaring
/// more than this cannot be framed and aborts the connection. It also
/// bounds the reply bytes a connection may have queued before it stops
/// being read.
pub(crate) const IN_CAP: usize = REQUEST_LEN + 2 * MAX_IO_BYTES as usize;

/// Largest READ the reactor serves itself: every other socket waits
/// while it zero-fills and reads the buffer. On a 2-vCPU VM reading a
/// page-cache-resident cache file that is ~15 µs at 128 KiB but ~21 ms
/// at `MAX_IO_BYTES`, so larger reads go to the workers. 128 KiB is the
/// Linux block layer's default read-ahead window: ordinary reads and
/// read-ahead stay inline.
const INLINE_MAX_BYTES: u32 = 128 << 10;

/// Output chunks handed to one `writev`.
const MAX_IOV: usize = 64;

/// A finished job's reply, posted by a worker, routed by the reactor.
pub(crate) struct Completion {
    pub conn: u64,
    pub cookie: u64,
    pub error: u32,
    /// READ payload (empty otherwise), handed to the socket as-is.
    pub data: Bytes,
}

/// State shared between the reactor thread, the workers, and the
/// registry notify hook.
pub(crate) struct ReactorShared {
    completions: Mutex<Vec<Completion>>,
    waker_tx: UnixStream,
    pub(crate) stop: AtomicBool,
    /// Registry changed (attach/detach): re-examine conns for fenced
    /// exports.
    pub(crate) sweep: AtomicBool,
}

impl ReactorShared {
    pub(crate) fn new(waker_tx: UnixStream) -> ReactorShared {
        ReactorShared {
            completions: Mutex::new(Vec::new()),
            waker_tx,
            stop: AtomicBool::new(false),
            sweep: AtomicBool::new(false),
        }
    }

    /// Nudges the reactor out of `poll`.
    pub(crate) fn wake(&self) {
        let _ = (&self.waker_tx).write(&[1u8]);
    }

    /// Posts a finished job's reply. Only the post that finds the list
    /// empty wakes the reactor: every later one lands in the same batch,
    /// which the reactor takes whole after draining the waker.
    pub(crate) fn complete(&self, c: Completion) {
        let first = {
            let mut list = self.completions.lock().unwrap();
            list.push(c);
            list.len() == 1
        };
        if first {
            self.wake();
        }
    }

    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.wake();
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

enum Phase {
    /// Hello sent; awaiting the 4-byte client flags.
    Flags,
    /// Option haggling (`GO` / `LIST` / `ABORT` / unknown).
    Options,
    /// Transmission: framing requests, routing replies.
    Transmission,
    /// No more reads; close once in-flight jobs and output drain.
    Draining,
}

struct Conn {
    stream: TcpStream,
    id: u64,
    phase: Phase,
    /// Unparsed input; `inpos` is the consumed prefix (compacted lazily).
    inbuf: Vec<u8>,
    inpos: usize,
    /// Serialized output chunks; `outpos` is the sent prefix of the front.
    out: VecDeque<Bytes>,
    outpos: usize,
    /// Unsent bytes in `out`.
    out_bytes: usize,
    /// Parsing stopped because `out` held `IN_CAP` bytes.
    out_blocked: bool,
    /// The epoll interest registered for this socket (0 = none).
    interest: u32,
    /// Set at a successful `GO`; `None` while negotiating.
    export: Option<Arc<Export>>,
    spans: Option<Arc<SpanRing>>,
    /// Jobs handed to the scheduler whose completions have not routed
    /// back yet — the in-flight window.
    inflight: usize,
    /// Request id + open decode span for a WRITE whose payload is still
    /// arriving across polls (the decode span covers payload intake).
    pending_decode: Option<(u64, Option<OpenSpan>)>,
    /// Peer closed its write side; parse what is buffered, then drain.
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream, id: u64) -> Conn {
        Conn {
            stream,
            id,
            phase: Phase::Flags,
            inbuf: Vec::new(),
            inpos: 0,
            out: VecDeque::new(),
            outpos: 0,
            out_bytes: 0,
            out_blocked: false,
            interest: 0,
            export: None,
            spans: None,
            inflight: 0,
            pending_decode: None,
            eof: false,
        }
    }

    fn avail(&self) -> usize {
        self.inbuf.len() - self.inpos
    }

    fn peek(&self, n: usize) -> &[u8] {
        &self.inbuf[self.inpos..self.inpos + n]
    }

    fn consume(&mut self, n: usize) {
        self.inpos += n;
        // Compact once the dead prefix dominates, so the buffer cannot
        // grow without bound across a long-lived connection.
        if self.inpos == self.inbuf.len() {
            self.inbuf.clear();
            self.inpos = 0;
        } else if self.inpos > 1 << 20 {
            self.inbuf.drain(..self.inpos);
            self.inpos = 0;
        }
    }

    fn take_vec(&mut self, n: usize) -> Vec<u8> {
        let v = self.peek(n).to_vec();
        self.consume(n);
        v
    }

    fn push_out(&mut self, bytes: impl Into<Bytes>) {
        let bytes = bytes.into();
        if !bytes.is_empty() {
            self.out_bytes += bytes.len();
            self.out.push_back(bytes);
        }
    }

    /// Retires the first `n` unsent bytes of `out`.
    fn consume_out(&mut self, mut n: usize) {
        self.out_bytes -= n;
        while n > 0 {
            let rest = self.out[0].len() - self.outpos;
            if n < rest {
                self.outpos += n;
                return;
            }
            n -= rest;
            self.out.pop_front();
            self.outpos = 0;
        }
    }

    /// Enough replies await the client that parsing more would only grow
    /// the backlog.
    fn out_full(&self) -> bool {
        self.out_bytes >= IN_CAP
    }

    fn push_reply(&mut self, cookie: u64, error: u32, data: Bytes) {
        let hdr = encode_simple_reply(&SimpleReply { error, cookie });
        self.push_out(Bytes::copy_from_slice(&hdr));
        self.push_out(data);
    }

    fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    fn wants_read(&self, window: usize) -> bool {
        if self.eof {
            return false;
        }
        match self.phase {
            Phase::Flags | Phase::Options => {
                self.avail() < OPTION_HDR_LEN + MAX_OPTION_LEN as usize + 64
            }
            Phase::Transmission => {
                self.inflight < window && self.avail() < IN_CAP && !self.out_full()
            }
            Phase::Draining => false,
        }
    }

    /// The epoll interest this connection needs now.
    fn wanted_interest(&self, window: usize, stopping: bool) -> u32 {
        let mut ev = 0;
        if !stopping && self.wants_read(window) {
            ev |= EPOLLIN;
        }
        if self.has_output() {
            ev |= EPOLLOUT;
        }
        ev
    }

    /// Whether the connection has nothing left to do and should close.
    fn drained(&self) -> bool {
        let draining = self.eof || matches!(self.phase, Phase::Draining);
        draining && self.inflight == 0 && !self.has_output()
    }
}

/// The reactor: owns the listener, the waker, and every connection.
pub(crate) struct Reactor {
    listener: TcpListener,
    waker_rx: UnixStream,
    poller: Poller,
    /// The listener is in the interest set.
    listening: bool,
    /// Socket read buffer, allocated once rather than zeroed per read.
    rbuf: Box<[u8]>,
    shared: Arc<ReactorShared>,
    registry: Arc<ExportRegistry>,
    sched: Arc<FleetScheduler>,
    recorder: Option<Arc<FlightRecorder>>,
    window: usize,
    oneshot: bool,
    accepted: bool,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
}

impl Reactor {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        listener: TcpListener,
        waker_rx: UnixStream,
        shared: Arc<ReactorShared>,
        registry: Arc<ExportRegistry>,
        sched: Arc<FleetScheduler>,
        recorder: Option<Arc<FlightRecorder>>,
        window: usize,
        oneshot: bool,
    ) -> io::Result<Reactor> {
        let poller = Poller::new()?;
        poller.set(waker_rx.as_raw_fd(), WAKER, 0, EPOLLIN)?;
        Ok(Reactor {
            listener,
            waker_rx,
            poller,
            listening: false,
            rbuf: vec![0u8; 64 << 10].into_boxed_slice(),
            shared,
            registry,
            sched,
            recorder,
            window,
            oneshot,
            accepted: false,
            conns: HashMap::new(),
            next_conn: 1,
        })
    }

    /// The reactor loop; returns once stopped and every connection has
    /// drained (or the stop deadline expires). The scheduler is stopped
    /// on the way out so workers exit after draining their queues.
    pub(crate) fn run(mut self) {
        let mut stop_seen: Option<Instant> = None;
        loop {
            if self.shared.sweep.swap(false, Ordering::AcqRel) {
                self.sweep_fenced();
            }
            let stopping = self.shared.stopping();
            if stopping {
                stop_seen.get_or_insert_with(Instant::now);
                self.close_for_stop();
                if self.conns.is_empty() || stop_seen.unwrap().elapsed() > Duration::from_secs(30) {
                    break;
                }
            } else if self.oneshot && self.accepted && self.conns.is_empty() {
                // Oneshot: the one connection came and went.
                self.shared.stop.store(true, Ordering::Release);
                continue;
            }

            let accepting = !(stopping || (self.oneshot && self.accepted));
            if accepting != self.listening {
                let (from, to) = if accepting {
                    (0, EPOLLIN)
                } else {
                    (EPOLLIN, 0)
                };
                if self
                    .poller
                    .set(self.listener.as_raw_fd(), LISTENER, from, to)
                    .is_ok()
                {
                    self.listening = accepting;
                }
            }
            let ready = self.poller.wait(100);
            for k in 0..ready {
                match self.poller.event(k) {
                    (WAKER, _) => {
                        let mut sink = [0u8; 256];
                        while matches!((&self.waker_rx).read(&mut sink), Ok(n) if n > 0) {}
                    }
                    (LISTENER, _) => {
                        if self.listening {
                            self.accept_ready();
                        }
                    }
                    // Errors and hangups read as readable so the read
                    // (or, with no read interest, the write) surfaces them.
                    (id, ev) => self.service_conn(id, ev & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0),
                }
            }
            self.route_completions();
        }
        // Close leftovers first (their ConnClose notes land in the
        // queues), then release the workers to drain everything.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(c) = self.conns.remove(&id) {
                self.close_conn(c);
            }
        }
        self.sched.set_stop();
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accepted = true;
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let id = self.next_conn;
                    self.next_conn += 1;
                    let mut c = Conn::new(stream, id);
                    let mut hello = Vec::with_capacity(18);
                    hello.extend_from_slice(&MAGIC_NBD.to_be_bytes());
                    hello.extend_from_slice(&MAGIC_IHAVEOPT.to_be_bytes());
                    hello.extend_from_slice(&(FLAG_FIXED_NEWSTYLE | FLAG_NO_ZEROES).to_be_bytes());
                    c.push_out(hello);
                    if self.flush_out(&mut c).is_ok() && self.sync_interest(&mut c).is_ok() {
                        self.conns.insert(id, c);
                    } else {
                        self.close_conn(c);
                    }
                    if self.oneshot {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Moves every connection of a fenced (detaching) export to
    /// `Draining`: in-flight jobs finish and their replies flush, then
    /// the socket closes.
    fn sweep_fenced(&mut self) {
        let mut fenced = Vec::new();
        for (id, c) in &mut self.conns {
            if c.export.as_ref().is_some_and(|e| e.is_fenced())
                && !matches!(c.phase, Phase::Draining)
            {
                c.phase = Phase::Draining;
                fenced.push(*id);
            }
        }
        for id in fenced {
            // Drops read interest, or closes the connection if drained.
            self.service_conn(id, false);
        }
    }

    /// On stop: close handshake connections immediately, and negotiated
    /// ones once their in-flight jobs and output have drained.
    fn close_for_stop(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let Some(mut c) = self.conns.remove(&id) else {
                continue;
            };
            let done = match c.phase {
                Phase::Flags | Phase::Options => true,
                _ => c.inflight == 0 && !c.has_output(),
            };
            // Stopping drops read interest; the rest only flush.
            if done || self.sync_interest(&mut c).is_err() {
                self.close_conn(c);
            } else {
                self.conns.insert(id, c);
            }
        }
    }

    fn route_completions(&mut self) {
        let comps: Vec<Completion> = {
            let mut guard = self.shared.completions.lock().unwrap();
            std::mem::take(&mut *guard)
        };
        if comps.is_empty() {
            return;
        }
        let mut touched = BTreeSet::new();
        for comp in comps {
            // A completion for a closed connection is dropped: the worker
            // already balanced the export's job accounting.
            if let Some(c) = self.conns.get_mut(&comp.conn) {
                c.inflight -= 1;
                c.push_reply(comp.cookie, comp.error, comp.data);
                touched.insert(comp.conn);
            }
        }
        for id in touched {
            // A freed window slot may unblock parsing; flush the reply.
            self.service_conn(id, false);
        }
    }

    /// Drives one connection: read if `readable`, parse, flush. Removes
    /// and closes it when it dies or drains.
    fn service_conn(&mut self, id: u64, readable: bool) {
        let Some(mut c) = self.conns.remove(&id) else {
            return;
        };
        let alive = self.drive(&mut c, readable);
        if alive && !c.drained() && self.sync_interest(&mut c).is_ok() {
            self.conns.insert(id, c);
        } else {
            self.close_conn(c);
        }
    }

    /// Brings the socket's epoll registration in line with what the
    /// connection now waits for (a syscall only when that changed).
    fn sync_interest(&self, c: &mut Conn) -> io::Result<()> {
        let want = c.wanted_interest(self.window, self.shared.stopping());
        self.poller
            .set(c.stream.as_raw_fd(), c.id, c.interest, want)?;
        c.interest = want;
        Ok(())
    }

    fn drive(&mut self, c: &mut Conn, readable: bool) -> bool {
        if readable && !c.eof {
            match self.fill_in(c) {
                Ok(eof) => c.eof = eof,
                Err(_) => {
                    // Socket error outside server stop: evidence worth a
                    // black-box snapshot, like the old reader thread's
                    // non-EOF error path.
                    self.dump("conn-abort");
                    return false;
                }
            }
        }
        loop {
            if !self.advance(c) {
                return false;
            }
            if c.eof && matches!(c.phase, Phase::Transmission) {
                // EOF mid-frame is an abrupt kill with a torn request.
                // Whole requests still buffered behind the window or the
                // output bound are parsed once those drain.
                let partial = c.avail() > 0 && c.avail() < REQUEST_LEN;
                if partial || c.pending_decode.is_some() {
                    self.dump("conn-abort");
                    return false;
                }
            }
            if self.flush_out(c).is_err() {
                return false;
            }
            // Parsing stopped at the output bound and the flush made room:
            // resume now, since buffered requests raise no socket event.
            if !std::mem::take(&mut c.out_blocked) || c.out_full() {
                return true;
            }
        }
    }

    fn fill_in(&mut self, c: &mut Conn) -> io::Result<bool> {
        loop {
            if !c.wants_read(self.window) {
                return Ok(false);
            }
            match (&c.stream).read(&mut self.rbuf) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    c.inbuf.extend_from_slice(&self.rbuf[..n]);
                    if n < self.rbuf.len() {
                        // The socket is drained for now; the interest set
                        // is level-triggered, so later bytes (or EOF)
                        // raise a fresh event — no probing read needed.
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Runs the connection state machine over the buffered input.
    /// Returns `false` on a protocol violation (close immediately).
    fn advance(&mut self, c: &mut Conn) -> bool {
        loop {
            match c.phase {
                Phase::Flags => {
                    if c.avail() < 4 {
                        return true;
                    }
                    let flags = u32::from_be_bytes(c.peek(4).try_into().unwrap());
                    c.consume(4);
                    if flags & CLIENT_FIXED_NEWSTYLE == 0 {
                        // Old-style client: close silently, like the
                        // thread-per-conn handshake did.
                        return false;
                    }
                    c.phase = Phase::Options;
                }
                Phase::Options => {
                    if c.avail() < OPTION_HDR_LEN {
                        return true;
                    }
                    let hdr: [u8; OPTION_HDR_LEN] = c.peek(OPTION_HDR_LEN).try_into().unwrap();
                    let Some((option, len)) = decode_option_header(&hdr) else {
                        return false;
                    };
                    if len > MAX_OPTION_LEN {
                        return false;
                    }
                    if c.avail() < OPTION_HDR_LEN + len as usize {
                        return true;
                    }
                    c.consume(OPTION_HDR_LEN);
                    let payload = c.take_vec(len as usize);
                    if !self.handle_option(c, option, &payload) {
                        return false;
                    }
                }
                Phase::Transmission => {
                    if self.shared.stopping() {
                        return true;
                    }
                    if c.inflight >= self.window {
                        return true;
                    }
                    if c.out_full() {
                        c.out_blocked = true;
                        return true;
                    }
                    if c.avail() < REQUEST_LEN {
                        return true;
                    }
                    let hdr: [u8; REQUEST_LEN] = c.peek(REQUEST_LEN).try_into().unwrap();
                    let Some(req) = decode_request(&hdr) else {
                        if let Some(e) = &c.export {
                            e.recorders().count_error();
                        }
                        self.dump("conn-abort");
                        return false;
                    };
                    let spans = c.spans.clone().expect("transmission without spans");
                    if req.cmd == CMD_WRITE {
                        if req.length as usize > IN_CAP - REQUEST_LEN {
                            // Cannot frame a payload this size; the
                            // stream is unrecoverable.
                            if let Some(e) = &c.export {
                                e.recorders().count_error();
                            }
                            self.dump("conn-abort");
                            return false;
                        }
                        if c.avail() < REQUEST_LEN + req.length as usize {
                            // Begin the decode span now: it covers
                            // payload intake across polls.
                            if c.pending_decode.is_none() {
                                let req_id = spans.mint_request();
                                let open = if req_id != 0 {
                                    spans.begin(req_id, 0, Stage::Decode)
                                } else {
                                    None
                                };
                                c.pending_decode = Some((req_id, open));
                            }
                            return true;
                        }
                    }
                    c.consume(REQUEST_LEN);
                    let data = if req.cmd == CMD_WRITE {
                        c.take_vec(req.length as usize)
                    } else {
                        Vec::new()
                    };
                    // One clock reading ends the decode span (and begins
                    // it, when the whole frame was already buffered) and
                    // starts the job's queue wait, or its inline service.
                    let decoded = Instant::now();
                    let (req_id, open) = c.pending_decode.take().unwrap_or_else(|| {
                        let req_id = spans.mint_request();
                        let open = if req_id != 0 {
                            spans.begin_at(req_id, 0, Stage::Decode, decoded)
                        } else {
                            None
                        };
                        (req_id, open)
                    });
                    let decode_id = open.map_or(0, |o| {
                        spans.finish_at(o, decoded, u64::from(req.cmd), u64::from(req.length))
                    });
                    if req.cmd == CMD_DISC {
                        c.phase = Phase::Draining;
                        continue;
                    }
                    let export = c.export.clone().expect("transmission without export");
                    if !export.job_begin() {
                        // Fenced mid-flight: fail the request without
                        // touching the (detaching) volume.
                        export.recorders().count_error();
                        c.push_reply(req.cookie, EIO, Bytes::new());
                        continue;
                    }
                    let job = Job::new(c.id, req, data, export, spans, req_id, decode_id, decoded);
                    if req.cmd == CMD_READ && self.serve_inline(c, &job) {
                        continue;
                    }
                    c.inflight += 1;
                    self.sched.push(job);
                }
                Phase::Draining => return true,
            }
        }
    }

    /// Serves a READ on the reactor thread when every byte is local and
    /// the scheduler admits it (QoS and DRR, as for a queued read).
    /// Returns `false`, having debited and counted nothing, when the read
    /// must go to the workers instead.
    fn serve_inline(&self, c: &mut Conn, job: &Job) -> bool {
        if job.req.length > INLINE_MAX_BYTES {
            return false;
        }
        let served = server::dispatch(job, job.enqueued, self.recorder.as_ref(), |parent| {
            server::read_arm(job, |offset, len| {
                job.export
                    .volume()
                    .try_read_local(offset, len, job.req_id, parent, || {
                        self.sched.try_admit_inline(&job.export, job.cost())
                    })
            })
        });
        match served {
            Some((error, data)) => {
                c.push_reply(job.req.cookie, error, data);
                true
            }
            None => false,
        }
    }

    /// Handles one negotiation option. Returns `false` to close.
    fn handle_option(&self, c: &mut Conn, option: u32, payload: &[u8]) -> bool {
        match option {
            OPT_GO => {
                let export = decode_go_payload(payload).and_then(|name| self.resolve(&name));
                match export {
                    Some(export) => {
                        let tflags =
                            TFLAG_HAS_FLAGS | TFLAG_SEND_FLUSH | TFLAG_SEND_FUA | TFLAG_SEND_TRIM;
                        let info = encode_info_export(export.volume().size_bytes(), tflags);
                        c.push_out(encode_option_reply(OPT_GO, REP_INFO, &info));
                        c.push_out(encode_option_reply(OPT_GO, REP_ACK, b"".as_slice()));
                        export.recorders().conn_opened();
                        // Noting the event takes the volume mutex, which
                        // could stall every tenant if done here; a worker
                        // does it via the ordered lane (so it still lands
                        // before the connection's first request).
                        self.sched.push(Job::conn_event(
                            c.id,
                            export.clone(),
                            export.volume().span_ring(),
                            TraceEvent::ConnOpen { conn: c.id },
                        ));
                        c.spans = Some(export.volume().span_ring());
                        c.export = Some(export);
                        c.phase = Phase::Transmission;
                    }
                    None => {
                        c.push_out(encode_option_reply(OPT_GO, REP_ERR_UNKNOWN, b"".as_slice()));
                    }
                }
                true
            }
            OPT_LIST => {
                for e in self.registry.exports() {
                    c.push_out(encode_option_reply(
                        OPT_LIST,
                        REP_SERVER,
                        &encode_server_entry(e.name()),
                    ));
                }
                c.push_out(encode_option_reply(OPT_LIST, REP_ACK, b"".as_slice()));
                true
            }
            OPT_ABORT => {
                c.push_out(encode_option_reply(OPT_ABORT, REP_ACK, b"".as_slice()));
                c.phase = Phase::Draining;
                true
            }
            _ => {
                c.push_out(encode_option_reply(option, REP_ERR_UNSUP, b"".as_slice()));
                true
            }
        }
    }

    /// Export lookup for `GO`: empty name selects the sole export (the
    /// NBD "default export" convention); fenced exports are not offered.
    fn resolve(&self, name: &str) -> Option<Arc<Export>> {
        let e = if name.is_empty() {
            self.registry.sole_export()
        } else {
            self.registry.get(name)
        }?;
        if e.is_fenced() {
            None
        } else {
            Some(e)
        }
    }

    /// Sends as much queued output as the socket takes, many replies per
    /// `writev`; a short write means the socket buffer is full.
    fn flush_out(&self, c: &mut Conn) -> io::Result<()> {
        let t0 = Instant::now();
        let mut wrote = false;
        while c.has_output() {
            let mut iov = [IoSlice::new(&[]); MAX_IOV];
            let mut n_iov = 0;
            let mut offered = 0;
            for (slot, chunk) in iov.iter_mut().zip(&c.out) {
                let part = if n_iov == 0 {
                    &chunk[c.outpos..]
                } else {
                    &chunk[..]
                };
                *slot = IoSlice::new(part);
                offered += part.len();
                n_iov += 1;
            }
            match (&c.stream).write_vectored(&iov[..n_iov]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    wrote = true;
                    c.consume_out(n);
                    if n < offered {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if wrote {
            if let Some(e) = &c.export {
                e.recorders()
                    .socket_wait
                    .record_ns(t0.elapsed().as_nanos() as u64);
            }
        }
        Ok(())
    }

    fn close_conn(&self, mut c: Conn) {
        let _ = self.poller.set(c.stream.as_raw_fd(), c.id, c.interest, 0);
        // Best-effort final flush (an ABORT ack, a last reply).
        let _ = self.flush_out(&mut c);
        let _ = c.stream.shutdown(Shutdown::Both);
        if let Some(e) = &c.export {
            e.recorders().conn_closed();
            // Volume-mutex work belongs on a worker, not the reactor; the
            // ordered lane keeps this after the connection's own requests
            // and after its `ConnOpen`.
            self.sched.push(Job::conn_event(
                c.id,
                e.clone(),
                e.volume().span_ring(),
                TraceEvent::ConnClose { conn: c.id },
            ));
        }
    }

    /// Dumps the flight recorder unless the server is stopping (stop
    /// tears down sockets on purpose; that is not evidence).
    fn dump(&self, reason: &str) {
        if self.shared.stopping() {
            return;
        }
        if let Some(rec) = &self.recorder {
            let _ = rec.dump(reason);
        }
    }
}
