//! The closed-loop NBD load: one connection per client thread, each
//! carrying [`STREAMS_PER_CONN`] streams with one op outstanding per
//! stream. Requests are raw `nbd::proto` frames; every write is stamped
//! and every read verified against the [`Oracle`] as its reply arrives.

use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use nbd::proto::{
    decode_simple_reply, encode_request, Request, CMD_DISC, CMD_FLUSH, CMD_READ, CMD_WRITE,
    REQUEST_LEN, SIMPLE_REPLY_LEN,
};
use telemetry::{Span, SpanRing};

use crate::gen::{Gen, Op, Spec, CONNS, STREAMS_PER_CONN};
use crate::oracle::{self, Oracle, BLOCK};

/// State every client thread shares.
pub struct Shared {
    pub oracle: Mutex<Oracle>,
    pub epoch: Instant,
    pub seed: u64,
    /// Client bytes acknowledged as written, for the mid-window split.
    pub write_bytes: AtomicU64,
}

impl Shared {
    pub fn new(spec: &Spec, seed: u64, epoch: Instant) -> Shared {
        let prefilled = spec.prefill.bytes() / BLOCK as u64;
        Shared {
            oracle: Mutex::new(Oracle::new(spec.blocks(), prefilled)),
            epoch,
            seed,
            write_bytes: AtomicU64::new(0),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn oracle(&self) -> std::sync::MutexGuard<'_, Oracle> {
        self.oracle.lock().expect("oracle poisoned")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    Read = 0,
    Write = 1,
    Flush = 2,
}

/// One completed op.
#[derive(Debug, Clone, Copy)]
pub struct OpRec {
    pub cmd: Cmd,
    pub conn: usize,
    /// Position of the request in its connection's send order.
    pub send_idx: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub bytes: u64,
    /// The server answered with an error code.
    pub failed: bool,
    /// A read returned data the oracle rejects.
    pub mismatch: bool,
}

impl OpRec {
    pub fn ok(&self) -> bool {
        !self.failed && !self.mismatch
    }
}

/// Latency samples and counts of one phase. Latencies are kept as `u32`
/// nanoseconds (saturating at ~4.3 s) so the benchmark's own memory does
/// not grow with the program's throughput.
#[derive(Default)]
pub struct Tally {
    /// Per [`Cmd`]: latency of every op, [`FAILED_NS`] for a failed or
    /// mis-read one.
    pub lat: [Vec<u32>; 3],
    /// Per [`Cmd`]: ops completed without error by the phase deadline,
    /// and their bytes.
    pub done: [u64; 3],
    pub done_bytes: [u64; 3],
    pub failed: u64,
}

/// The latency sample standing for a failed or mis-read op.
pub const FAILED_NS: u32 = u32::MAX;

impl Tally {
    fn add(&mut self, r: &OpRec, deadline_ns: u64) {
        let i = r.cmd as usize;
        if r.ok() {
            let ns = (r.done_ns - r.sent_ns).min(u64::from(FAILED_NS - 1));
            self.lat[i].push(ns as u32);
            if r.done_ns <= deadline_ns {
                self.done[i] += 1;
                self.done_bytes[i] += r.bytes;
            }
        } else {
            self.lat[i].push(FAILED_NS);
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, o: Tally) {
        for i in 0..3 {
            self.lat[i].extend(o.lat[i].iter());
            self.done[i] += o.done[i];
            self.done_bytes[i] += o.done_bytes[i];
        }
        self.failed += o.failed;
    }

    pub fn attempted(&self) -> u64 {
        self.lat.iter().map(|v| v.len() as u64).sum()
    }
}

/// What one connection produced in one phase.
#[derive(Default)]
pub struct PhaseOut {
    pub tally: Tally,
    /// Every op, kept only while tracing (the span join needs them).
    pub recs: Vec<OpRec>,
    /// Program spans drained from the volume's ring while tracing.
    pub ring_spans: Vec<Span>,
}

struct Pending {
    op: Op,
    sent_ns: u64,
    send_idx: u64,
    versions: Vec<u64>,
}

struct Stream {
    gen: Box<dyn Gen>,
    pending: Option<Pending>,
    /// Blocks acknowledged since this stream last sent a FLUSH.
    unflushed: Vec<u64>,
    /// Blocks the stream's outstanding FLUSH covers.
    in_flush: Vec<u64>,
}

struct Conn {
    idx: usize,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    streams: Vec<Stream>,
    sends: u64,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    /// Blocks covered by a completed FLUSH of their own stream.
    durable: Vec<u64>,
}

/// Drain the program's span ring after this many completions per
/// connection while tracing, well before its 8192 slots wrap.
const DRAIN_EVERY: u64 = 64;

/// Cookie layout: stream index in the top 16 bits.
fn cookie(stream: usize, seq: u64) -> u64 {
    ((stream as u64) << 48) | (seq & ((1 << 48) - 1))
}

fn bad(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

impl Conn {
    fn issue(&mut self, s: usize, shared: &Shared) -> io::Result<()> {
        let op = self.streams[s].gen.next();
        let (cmd, off, len) = match op {
            Op::Read { off, len } => (CMD_READ, off, len),
            Op::Write { off, len } => (CMD_WRITE, off, len),
            Op::Flush => (CMD_FLUSH, 0, 0),
        };
        let send_idx = self.sends;
        self.sends += 1;
        self.wbuf.clear();
        self.wbuf.extend_from_slice(&encode_request(&Request {
            flags: 0,
            cmd,
            cookie: cookie(s, send_idx),
            offset: off,
            length: len,
        }));
        let mut versions = Vec::new();
        match op {
            Op::Write { off, len } => {
                let first = off / BLOCK as u64;
                let n = len as usize / BLOCK;
                // Versions are claimed before the send, so the oracle's
                // submit time never trails the server's view.
                let submit_ns = shared.now_ns();
                {
                    let mut o = shared.oracle();
                    versions.extend((0..n as u64).map(|i| o.submit(first + i, submit_ns)));
                }
                self.wbuf.resize(REQUEST_LEN + n * BLOCK, 0);
                for (i, chunk) in self.wbuf[REQUEST_LEN..].chunks_exact_mut(BLOCK).enumerate() {
                    let at = (first + i as u64) * BLOCK as u64;
                    oracle::stamp(chunk, at, versions[i], shared.seed);
                }
            }
            Op::Flush => {
                let st = &mut self.streams[s];
                st.in_flush = std::mem::take(&mut st.unflushed);
            }
            Op::Read { .. } => {}
        }
        // Latency runs from here, the request frame's send.
        let sent_ns = shared.now_ns();
        self.writer.write_all(&self.wbuf)?;
        self.streams[s].pending = Some(Pending {
            op,
            sent_ns,
            send_idx,
            versions,
        });
        Ok(())
    }

    /// Reads one reply and settles its op.
    fn complete(&mut self, shared: &Shared) -> io::Result<(usize, OpRec)> {
        let mut hdr = [0u8; SIMPLE_REPLY_LEN];
        self.reader.read_exact(&mut hdr)?;
        let reply = decode_simple_reply(&hdr).ok_or_else(|| bad("bad reply magic".into()))?;
        let s = (reply.cookie >> 48) as usize;
        let p = self
            .streams
            .get_mut(s)
            .and_then(|st| st.pending.take())
            .ok_or_else(|| bad(format!("unexpected cookie {:#x}", reply.cookie)))?;
        let failed = reply.error != 0;
        let mut mismatch = false;
        let (cmd, bytes) = match p.op {
            Op::Read { off, len } => {
                if !failed {
                    self.rbuf.resize(len as usize, 0);
                    self.reader.read_exact(&mut self.rbuf)?;
                }
                let done = shared.now_ns();
                if !failed {
                    let seed = shared.seed;
                    let o = shared.oracle();
                    for (i, chunk) in self.rbuf.chunks_exact(BLOCK).enumerate() {
                        let at = off + (i * BLOCK) as u64;
                        let got = oracle::parse(chunk, at, seed);
                        if !o.read_ok(at / BLOCK as u64, got, p.sent_ns) {
                            mismatch = true;
                        }
                    }
                }
                return Ok((
                    s,
                    self.rec(Cmd::Read, &p, done, u64::from(len), failed, mismatch),
                ));
            }
            Op::Write { off, len } => {
                let done = shared.now_ns();
                if !failed {
                    let first = off / BLOCK as u64;
                    let mut o = shared.oracle();
                    for (i, &v) in p.versions.iter().enumerate() {
                        o.ack(first + i as u64, v, done);
                    }
                    drop(o);
                    let st = &mut self.streams[s];
                    st.unflushed.extend(first..first + p.versions.len() as u64);
                    shared.write_bytes.fetch_add(u64::from(len), Relaxed);
                }
                (Cmd::Write, u64::from(len))
            }
            Op::Flush => {
                if !failed {
                    let covered = std::mem::take(&mut self.streams[s].in_flush);
                    self.durable.extend(covered);
                }
                (Cmd::Flush, 0)
            }
        };
        let done = shared.now_ns();
        Ok((s, self.rec(cmd, &p, done, bytes, failed, mismatch)))
    }

    fn rec(&self, cmd: Cmd, p: &Pending, done: u64, bytes: u64, failed: bool, mm: bool) -> OpRec {
        OpRec {
            cmd,
            conn: self.idx,
            send_idx: p.send_idx,
            sent_ns: p.sent_ns,
            done_ns: done,
            bytes,
            failed,
            mismatch: mm,
        }
    }

    /// Runs every stream closed-loop until `deadline_ns`, then lets the
    /// outstanding ops finish.
    fn run(
        &mut self,
        shared: &Shared,
        deadline_ns: u64,
        ring: Option<&SpanRing>,
    ) -> io::Result<PhaseOut> {
        let mut out = PhaseOut::default();
        for s in 0..self.streams.len() {
            self.issue(s, shared)?;
        }
        let mut outstanding = self.streams.len();
        let mut completions = 0u64;
        while outstanding > 0 {
            let (s, rec) = self.complete(shared)?;
            out.tally.add(&rec, deadline_ns);
            outstanding -= 1;
            completions += 1;
            if let Some(ring) = ring {
                out.recs.push(rec);
                if completions.is_multiple_of(DRAIN_EVERY) {
                    out.ring_spans.extend(ring.drain());
                }
            }
            if rec.done_ns < deadline_ns {
                self.issue(s, shared)?;
                outstanding += 1;
            }
        }
        if let Some(ring) = ring {
            out.ring_spans.extend(ring.drain());
        }
        Ok(out)
    }
}

/// The benchmark's clients: [`CONNS`] connections, each driven by its own
/// thread while a phase runs.
pub struct Load {
    conns: Vec<Conn>,
}

impl Load {
    /// Opens the connections one after another (so the server numbers
    /// them in this order) with fresh generators for `phase`.
    pub fn connect(
        addr: SocketAddr,
        export: &str,
        spec: &Spec,
        seed: u64,
        phase: u64,
    ) -> io::Result<Load> {
        let mut conns = Vec::with_capacity(CONNS);
        for c in 0..CONNS {
            let sock = nbd::Client::connect(addr, export)?.into_raw();
            sock.set_nodelay(true)?;
            let streams = (0..STREAMS_PER_CONN)
                .map(|i| Stream {
                    gen: spec.stream(seed, phase, i * CONNS + c),
                    pending: None,
                    unflushed: Vec::new(),
                    in_flush: Vec::new(),
                })
                .collect();
            conns.push(Conn {
                idx: c,
                reader: BufReader::with_capacity(256 << 10, sock.try_clone()?),
                writer: sock,
                streams,
                sends: 0,
                wbuf: Vec::with_capacity(REQUEST_LEN + (1 << 20)),
                rbuf: Vec::new(),
                durable: Vec::new(),
            });
        }
        Ok(Load { conns })
    }

    /// Runs one phase of `secs` seconds on every connection. `mid` runs on
    /// the calling thread halfway through.
    pub fn run(
        &mut self,
        shared: &Shared,
        secs: f64,
        ring: Option<&SpanRing>,
        mid: impl FnOnce(),
    ) -> io::Result<Vec<PhaseOut>> {
        let start = shared.now_ns();
        let deadline = start + (secs * 1e9) as u64;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|c| scope.spawn(move || c.run(shared, deadline, ring)))
                .collect();
            let half = start + (secs * 0.5e9) as u64;
            let now = shared.now_ns();
            if now < half {
                std::thread::sleep(Duration::from_nanos(half - now));
            }
            mid();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }

    /// Blocks covered by a completed FLUSH of the stream that wrote them.
    pub fn take_durable(&mut self) -> Vec<u64> {
        self.conns
            .iter_mut()
            .flat_map(|c| std::mem::take(&mut c.durable))
            .collect()
    }

    /// Sends an orderly disconnect on every connection and waits for the
    /// server to close it.
    pub fn close(self) -> io::Result<()> {
        for mut c in self.conns {
            let disc = Request {
                flags: 0,
                cmd: CMD_DISC,
                cookie: 0,
                offset: 0,
                length: 0,
            };
            c.writer.write_all(&encode_request(&disc))?;
            c.writer.set_read_timeout(Some(Duration::from_secs(5)))?;
            let mut sink = [0u8; 64];
            while c.reader.read(&mut sink)? > 0 {}
        }
        Ok(())
    }
}

/// Median round trip (µs) of a bare loopback TCP exchange shaped like a
/// 4 KiB NBD read: a request header out, a reply header plus 4 KiB back.
pub fn loopback_floor_us(rounds: usize) -> io::Result<f64> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> io::Result<()> {
            let (mut s, _) = listener.accept()?;
            s.set_nodelay(true)?;
            let mut req = [0u8; REQUEST_LEN];
            let reply = vec![0u8; SIMPLE_REPLY_LEN + BLOCK];
            for _ in 0..rounds {
                s.read_exact(&mut req)?;
                s.write_all(&reply)?;
            }
            Ok(())
        });
        let mut c = TcpStream::connect(addr)?;
        c.set_nodelay(true)?;
        let req = [0u8; REQUEST_LEN];
        let mut reply = vec![0u8; SIMPLE_REPLY_LEN + BLOCK];
        let mut lat = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t0 = Instant::now();
            c.write_all(&req)?;
            c.read_exact(&mut reply)?;
            lat.push(t0.elapsed().as_nanos() as u64);
        }
        echo.join().expect("echo thread panicked")?;
        lat.sort_unstable();
        Ok(lat[lat.len() / 2] as f64 / 1e3)
    })
}
