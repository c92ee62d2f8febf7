//! The NBD server: a shared epoll-based reactor fronting a worker pool,
//! serving every export in an [`ExportRegistry`].
//!
//! ## Threading model
//!
//! One **reactor** thread ([`crate::reactor`]) owns the listener, every
//! connection socket (nonblocking), the fixed-newstyle handshake state
//! machines, request framing, and reply serialization — a thousand
//! connections cost a thousand small buffers, not three thousand
//! threads. Decoded requests become jobs on the
//! [`FleetScheduler`](crate::sched): per-export two-lane queues (ordered
//! mutations / concurrent reads) drained by a small **worker** pool
//! under deficit-round-robin fairness and per-export QoS token buckets.
//! Workers execute against the export's
//! [`SharedVolume`](lsvd::shared::SharedVolume) and post completions
//! back to the reactor through a self-pipe waker. A READ whose bytes are
//! all local skips the hop: the reactor serves it itself, through the
//! same admission and the same serving routine (`dispatch`) a worker
//! would use.
//!
//! Ordering: each export's mutations are dispatched one at a time in
//! arrival order (the `ordered_active` latch), so per-export
//! acknowledgement order equals cache-log order — the exported disk
//! stays prefix-consistent through a crash. Reads overlap freely with
//! each other and with the ordered stream via the volume's lock-split
//! read plane. Backpressure is the per-connection in-flight window and
//! reply backlog, enforced by the reactor simply not reading a connection
//! at either limit.
//!
//! [`serve`] keeps the classic single-volume API (it builds a one-entry
//! registry); [`serve_fleet`] serves a whole registry, with named-export
//! negotiation (`NBD_OPT_GO` with a name, `NBD_OPT_LIST`) routing each
//! connection to its tenant.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::Bytes;
use lsvd::fleet::{ExportRegistry, QosLimits};
use lsvd::shared::SharedVolume;
use lsvd::LsvdError;
use telemetry::{FlightRecorder, ServingRecorders, Stage};

use crate::proto::*;
use crate::reactor::{Completion, Reactor, ReactorShared};
use crate::sched::{FleetScheduler, Job};

/// Largest READ/WRITE/TRIM a single request may carry (32 MiB, matching
/// common client defaults). Larger requests are answered with `EINVAL`.
pub const MAX_IO_BYTES: u32 = 32 << 20;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads servicing scheduled jobs (reads run concurrently
    /// across all of them; one more is always added so a long ordered
    /// stream cannot starve reads).
    pub read_workers: usize,
    /// Per-connection in-flight request window.
    pub window: usize,
    /// Serve exactly one connection, then stop (CI smoke / tests).
    pub oneshot: bool,
    /// Flight recorder to dump on terminal I/O errors and connection
    /// aborts (the serving plane's black-box triggers). `None` disables.
    pub recorder: Option<Arc<FlightRecorder>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_workers: 4,
            window: 32,
            oneshot: false,
            recorder: None,
        }
    }
}

/// A running NBD server. Dropping the handle does *not* stop it; call
/// [`ServerHandle::stop`] (or let `join` return after a oneshot run).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ReactorShared>,
    registry: Arc<ExportRegistry>,
    sched: Arc<FleetScheduler>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The export registry this server routes connections through.
    pub fn registry(&self) -> &Arc<ExportRegistry> {
        &self.registry
    }

    /// The sole export's serving recorders (single-volume servers); a
    /// fresh unrecorded set when the fleet has zero or many exports —
    /// per-tenant counters live on each export then.
    pub fn recorders(&self) -> ServingRecorders {
        self.registry
            .sole_export()
            .map(|e| e.recorders().clone())
            .unwrap_or_default()
    }

    /// Blocks until the server stops on its own (oneshot mode) and joins
    /// every thread. For long-running servers, call [`ServerHandle::stop`]
    /// from another thread instead.
    pub fn join(mut self) {
        self.finish();
    }

    /// Stops the server: no new connections, live connections drained
    /// (in-flight jobs finish and their replies flush), all threads
    /// joined. Volumes stay attached — the registry owner detaches them.
    pub fn stop(mut self) {
        self.shared.request_stop();
        self.finish();
    }

    fn finish(&mut self) {
        if let Some(r) = self.reactor.take() {
            let _ = r.join();
        }
        // The reactor's epilogue already stopped the scheduler; repeat
        // defensively so workers can never outlive a torn reactor.
        self.sched.set_stop();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A leaked handle must not leave detached threads wedged on a
        // scheduler that will never stop.
        if self.reactor.is_some() {
            self.shared.request_stop();
            self.finish();
        }
    }
}

/// Binds `addr` and starts serving `volume` as the sole export `export`
/// (single-volume compatibility wrapper over [`serve_fleet`]).
///
/// The export's recorders (via [`ServerHandle::recorders`]) are attached
/// to the volume, so `Volume::telemetry()` exports the serving section
/// while the server runs.
pub fn serve(
    addr: &str,
    export: &str,
    volume: SharedVolume,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let registry = Arc::new(ExportRegistry::new(None));
    registry
        .attach(export, volume, QosLimits::default())
        .map_err(|e| io::Error::other(e.to_string()))?;
    serve_fleet(addr, registry, cfg)
}

/// Binds `addr` and serves every export in `registry`, now and as the
/// registry changes: exports attached later become routable on the next
/// `NBD_OPT_GO`, and detaching an export drains and closes its
/// connections.
pub fn serve_fleet(
    addr: &str,
    registry: Arc<ExportRegistry>,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let (waker_tx, waker_rx) = UnixStream::pair()?;
    waker_tx.set_nonblocking(true)?;
    waker_rx.set_nonblocking(true)?;
    let shared = Arc::new(ReactorShared::new(waker_tx));
    let sched = Arc::new(FleetScheduler::new());
    {
        // Registry changes nudge the reactor so fenced exports' conns
        // drain promptly.
        let sh = shared.clone();
        registry.set_notify(Box::new(move || {
            sh.sweep.store(true, std::sync::atomic::Ordering::Release);
            sh.wake();
        }));
    }

    let reactor = Reactor::new(
        listener,
        waker_rx,
        shared.clone(),
        registry.clone(),
        sched.clone(),
        cfg.recorder.clone(),
        cfg.window.max(1),
        cfg.oneshot,
    )?;
    let mut workers = Vec::new();
    // +1: even with read_workers == 1 there are two workers, so one
    // export's slow ordered job cannot stall every other tenant.
    for i in 0..cfg.read_workers.max(1) + 1 {
        let sched = sched.clone();
        let shared = shared.clone();
        let recorder = cfg.recorder.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("nbd-worker-{i}"))
                .spawn(move || worker_loop(&sched, &shared, recorder))?,
        );
    }
    let reactor = std::thread::Builder::new()
        .name("nbd-reactor".into())
        .spawn(move || reactor.run())?;
    Ok(ServerHandle {
        addr: bound,
        shared,
        registry,
        sched,
        reactor: Some(reactor),
        workers,
    })
}

fn worker_loop(
    sched: &Arc<FleetScheduler>,
    shared: &Arc<ReactorShared>,
    recorder: Option<Arc<FlightRecorder>>,
) {
    while let Some(picked) = sched.pop() {
        let export = picked.job.export.clone();
        execute(picked.job, shared, recorder.as_ref());
        if picked.ordered {
            sched.ordered_done(export.name());
        }
    }
}

fn errno_of(e: &LsvdError) -> u32 {
    match e {
        LsvdError::InvalidAccess { .. } => EINVAL,
        LsvdError::CacheFull | LsvdError::Backpressure { .. } => ENOSPC,
        _ => EIO,
    }
}

/// Serves one request job and records its serving telemetry — the one
/// routine behind both the workers and the reactor's inline reads.
///
/// `body` runs the command, given the id of the `Dispatch` span (the
/// parent of every volume-side hop). When it declines (`None`: an inline
/// read that cannot be served in place) nothing is recorded and the job
/// is untouched, so the caller can queue it. Otherwise this records the
/// wait from `job.enqueued` to `start` as the queue wait (0 inline,
/// where `start` is the decode's own clock reading), the service time
/// from `start` and any error, finishes the span, dumps the black box on
/// `EIO`, and calls the `job_done` that pairs with the `job_begin` the
/// reactor took at decode.
pub(crate) fn dispatch(
    job: &Job,
    start: Instant,
    recorder: Option<&Arc<FlightRecorder>>,
    body: impl FnOnce(u64) -> Option<(u32, Bytes)>,
) -> Option<(u32, Bytes)> {
    let req = job.req_id;
    let open = if req != 0 {
        job.spans
            .begin_at(req, job.parent_span, Stage::Dispatch, start)
    } else {
        None
    };
    let (error, data) = body(open.map_or(0, |o| o.id))?;
    let end = Instant::now();
    let rec = job.export.recorders();
    let queued = start.saturating_duration_since(job.enqueued);
    rec.queue_wait.record_ns(queued.as_nanos() as u64);
    rec.service.record_ns((end - start).as_nanos() as u64);
    if let Some(open) = open {
        job.spans.finish_at(open, end, u64::from(error), job.conn);
    }
    if error != 0 {
        rec.count_error();
    }
    if error == EIO {
        // EIO is the serving plane's "terminal volume error" mapping
        // (backend gave up, state torn): dump the black box.
        if let Some(rec) = recorder {
            let _ = rec.dump("terminal-error");
        }
    }
    job.export.job_done();
    Some((error, data))
}

/// The READ command for [`dispatch`]: `read(offset, len)` produces the
/// payload — the blocking read on a worker, the non-blocking local read
/// on the reactor — or declines with `None` before anything is counted.
pub(crate) fn read_arm(
    job: &Job,
    read: impl FnOnce(u64, usize) -> Option<lsvd::Result<Bytes>>,
) -> Option<(u32, Bytes)> {
    let rec = job.export.recorders();
    if job.req.length > MAX_IO_BYTES {
        rec.count_read();
        return Some((EINVAL, Bytes::new()));
    }
    let res = read(job.req.offset, job.req.length as usize)?;
    rec.count_read();
    Some(match res {
        Ok(data) => {
            rec.add_bytes_read(data.len() as u64);
            (0, data)
        }
        Err(e) => (errno_of(&e), Bytes::new()),
    })
}

/// Services one job against its export's volume and posts the completion
/// back to the reactor.
fn execute(job: Job, shared: &Arc<ReactorShared>, recorder: Option<&Arc<FlightRecorder>>) {
    let volume = job.export.volume();
    if let Some(event) = job.note {
        // Connection-lifecycle note: may block on the volume mutex, which
        // is why it runs here and not on the reactor thread. No reply, no
        // per-request accounting (it never took `job_begin`); a shut-down
        // volume just drops it.
        let _ = volume.with_volume(|v| v.note_serving_event(event));
        return;
    }
    let (error, data) = dispatch(&job, Instant::now(), recorder, |parent| {
        let req = job.req_id;
        if job.req.cmd == CMD_READ {
            // Cache hits run under the read plane's shared lock,
            // concurrently across workers; misses fetch lock-free. The
            // payload reaches the socket as-is.
            return read_arm(&job, |offset, len| {
                Some(volume.read_bytes_traced(offset, len, req, parent))
            });
        }
        Some((mutate(&job, volume, parent), Bytes::new()))
    })
    .expect("worker commands never decline");
    shared.complete(Completion {
        conn: job.conn,
        cookie: job.req.cookie,
        error,
        data,
    });
}

/// The WRITE / FLUSH / TRIM (and unknown-command) arms of [`execute`]:
/// returns the reply error.
fn mutate(job: &Job, volume: &SharedVolume, parent: u64) -> u32 {
    let rec = job.export.recorders();
    let req = job.req_id;
    let fua = job.req.flags & CMD_FLAG_FUA != 0;
    let too_big = || LsvdError::InvalidAccess {
        offset: job.req.offset,
        len: u64::from(job.req.length),
        reason: "request exceeds MAX_IO_BYTES",
    };
    let then_fua = |res: lsvd::Result<()>| {
        res.and_then(|()| {
            if fua {
                rec.count_flush();
                volume.flush_traced(req, parent)
            } else {
                Ok(())
            }
        })
    };
    let res = match job.req.cmd {
        CMD_WRITE => {
            rec.count_write();
            let res = if job.req.length > MAX_IO_BYTES {
                Err(too_big())
            } else {
                then_fua(volume.write_traced(job.req.offset, &job.data, req, parent))
            };
            if res.is_ok() {
                rec.add_bytes_written(job.data.len() as u64);
            }
            res
        }
        CMD_FLUSH => {
            rec.count_flush();
            volume.flush_traced(req, parent)
        }
        CMD_TRIM => {
            rec.count_trim();
            if job.req.length > MAX_IO_BYTES {
                Err(too_big())
            } else {
                then_fua(volume.discard_traced(
                    job.req.offset,
                    u64::from(job.req.length),
                    req,
                    parent,
                ))
            }
        }
        _ => {
            rec.count_error();
            return EINVAL;
        }
    };
    res.err().map(|e| errno_of(&e)).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::reactor::IN_CAP;
    use blkdev::RamDisk;
    use lsvd::config::VolumeConfig;
    use lsvd::volume::Volume;
    use objstore::MemStore;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn shared_volume(size_mb: u64) -> SharedVolume {
        volume_with(size_mb, 16, VolumeConfig::small_for_tests())
    }

    fn volume_with(size_mb: u64, cache_mb: u64, cfg: VolumeConfig) -> SharedVolume {
        let store = Arc::new(MemStore::new());
        let dev = Arc::new(RamDisk::new(cache_mb << 20));
        SharedVolume::new(Volume::create(store, dev, "vol", size_mb << 20, cfg).unwrap())
    }

    /// Deterministic test bytes for `len` bytes at volume offset `off`.
    fn pattern(off: u64, len: usize) -> Vec<u8> {
        (off..off + len as u64)
            .map(|x| (x ^ (x >> 9) ^ (x >> 17)) as u8)
            .collect()
    }

    fn send_read(stream: &mut TcpStream, cookie: u64, offset: u64, length: u32) {
        let req = Request {
            flags: 0,
            cmd: CMD_READ,
            cookie,
            offset,
            length,
        };
        stream.write_all(&encode_request(&req)).unwrap();
    }

    fn recv_reply(stream: &mut TcpStream) -> SimpleReply {
        let mut hdr = [0u8; SIMPLE_REPLY_LEN];
        stream.read_exact(&mut hdr).unwrap();
        decode_simple_reply(&hdr).expect("reply magic")
    }

    #[test]
    fn loopback_negotiate_and_full_command_set() {
        let sv = shared_volume(32);
        let handle = serve("127.0.0.1:0", "vol", sv.clone(), ServerConfig::default()).unwrap();
        let addr = handle.addr();

        let mut c = Client::connect(addr, "vol").unwrap();
        assert_eq!(c.size(), 32 << 20);
        assert_ne!(c.transmission_flags() & TFLAG_SEND_TRIM, 0);

        c.write(4096, &[7u8; 8192]).unwrap();
        c.flush().unwrap();
        let mut buf = [0u8; 8192];
        c.read(4096, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 8192]);

        c.trim(4096, 4096).unwrap();
        c.read(4096, &mut buf).unwrap();
        assert!(
            buf[..4096].iter().all(|&b| b == 0),
            "trimmed half reads zero"
        );
        assert!(buf[4096..].iter().all(|&b| b == 7), "other half intact");

        c.write_fua(0, &[3u8; 4096]).unwrap();
        // Unaligned and out-of-bounds requests error without killing the
        // connection.
        assert!(c.write(100, &[0u8; 512]).is_err());
        assert!(c.read((32 << 20) - 512, &mut [0u8; 4096]).is_err());
        let mut ok = [0u8; 4096];
        c.read(0, &mut ok).unwrap();
        assert_eq!(ok, [3u8; 4096]);

        c.disconnect().unwrap();
        handle.stop();
        // Server stop leaves the volume attached and consistent.
        let mut back = [0u8; 4096];
        sv.read(0, &mut back).unwrap();
        assert_eq!(back, [3u8; 4096]);
        sv.shutdown().unwrap();
    }

    #[test]
    fn oneshot_serves_one_connection_then_stops() {
        let sv = shared_volume(16);
        let cfg = ServerConfig {
            oneshot: true,
            ..ServerConfig::default()
        };
        let handle = serve("127.0.0.1:0", "vol", sv.clone(), cfg).unwrap();
        let addr = handle.addr();
        let mut c = Client::connect(addr, "").unwrap(); // empty name = default export
        c.write(0, &[1u8; 4096]).unwrap();
        c.disconnect().unwrap();
        handle.join();
        sv.shutdown().unwrap();
    }

    #[test]
    fn unknown_export_is_rejected() {
        let sv = shared_volume(16);
        let handle = serve("127.0.0.1:0", "vol", sv, ServerConfig::default()).unwrap();
        let addr = handle.addr();
        assert!(Client::connect(addr, "nope").is_err());
        // The connection stays in negotiation; a correct retry succeeds.
        let c = Client::connect(addr, "vol").unwrap();
        c.disconnect().unwrap();
        handle.stop();
    }

    #[test]
    fn fleet_routes_by_export_name_and_lists() {
        let registry = Arc::new(ExportRegistry::new(None));
        registry
            .attach("alpha", shared_volume(16), QosLimits::default())
            .unwrap();
        registry
            .attach("beta", shared_volume(32), QosLimits::default())
            .unwrap();
        let handle = serve_fleet("127.0.0.1:0", registry.clone(), ServerConfig::default()).unwrap();
        let addr = handle.addr();

        assert_eq!(
            Client::list_exports(addr).unwrap(),
            vec!["alpha".to_string(), "beta".to_string()]
        );

        let mut a = Client::connect(addr, "alpha").unwrap();
        let mut b = Client::connect(addr, "beta").unwrap();
        assert_eq!(a.size(), 16 << 20);
        assert_eq!(b.size(), 32 << 20);
        // Tenant isolation: each export sees only its own bytes.
        a.write(0, &[0xA5; 4096]).unwrap();
        b.write(0, &[0x5B; 4096]).unwrap();
        let mut buf = [0u8; 4096];
        a.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0xA5; 4096]);
        b.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0x5B; 4096]);

        // With two exports there is no default: empty-name GO fails but a
        // named retry on the same connection still works server-side.
        assert!(Client::connect(addr, "").is_err());
        assert!(Client::connect(addr, "gamma").is_err());

        // Per-tenant counters landed on each export's recorders.
        let alpha = registry.get("alpha").unwrap();
        let snap = alpha.recorders().snapshot();
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.bytes_written, 4096);
        assert_eq!(snap.bytes_read, 4096);

        a.disconnect().unwrap();
        b.disconnect().unwrap();
        handle.stop();
        for name in registry.list() {
            registry.detach(&name).unwrap();
        }
    }

    #[test]
    fn detach_drains_connected_clients() {
        let registry = Arc::new(ExportRegistry::new(None));
        registry
            .attach("going", shared_volume(16), QosLimits::default())
            .unwrap();
        registry
            .attach("staying", shared_volume(16), QosLimits::default())
            .unwrap();
        let handle = serve_fleet("127.0.0.1:0", registry.clone(), ServerConfig::default()).unwrap();
        let addr = handle.addr();

        let mut going = Client::connect(addr, "going").unwrap();
        let mut staying = Client::connect(addr, "staying").unwrap();
        // An acknowledged write must survive the detach (drained, then
        // flushed + checkpointed by shutdown inside detach).
        going.write(0, &[9u8; 4096]).unwrap();
        registry.detach("going").unwrap();
        // The reactor closed the connection; the next request fails.
        let mut buf = [0u8; 4096];
        assert!(going.read(0, &mut buf).is_err());
        // Other tenants are untouched.
        staying.write(0, &[4u8; 4096]).unwrap();
        staying.read(0, &mut buf).unwrap();
        assert_eq!(buf, [4u8; 4096]);
        // A re-connect to the detached name is now unknown.
        assert!(Client::connect(addr, "going").is_err());

        staying.disconnect().unwrap();
        handle.stop();
        registry.detach("staying").unwrap();
    }

    #[test]
    fn deep_pipeline_against_window_round_trips() {
        // A client that pipelines far past the server window exercises
        // the reactor's read-gating backpressure rather than any queue.
        let sv = shared_volume(32);
        let cfg = ServerConfig {
            window: 4,
            ..ServerConfig::default()
        };
        let handle = serve("127.0.0.1:0", "vol", sv.clone(), cfg).unwrap();
        let c = Client::connect(handle.addr(), "vol").unwrap();
        let n = 64usize;
        let mut raw = c.into_raw();
        // Fire n writes back-to-back without reading replies.
        crate::client::pipeline_writes(&mut raw, 0, 4096, n).unwrap();
        // Then collect all n replies and verify the data landed.
        crate::client::collect_replies(&mut raw, n).unwrap();
        for i in 0..n {
            let mut buf = [0u8; 4096];
            let off = (i as u64) * 4096;
            sv.read(off, &mut buf).unwrap();
            assert_eq!(buf, [i as u8; 4096], "block {i}");
        }
        drop(raw);
        handle.stop();
        sv.shutdown().unwrap();
    }

    /// A writer thread pipelines `sent` reads of `len` bytes over 4 MiB
    /// and never reads a reply: the server must stop parsing once
    /// `IN_CAP` bytes of replies wait, then deliver all of them once the
    /// client drains.
    fn reply_backlog_case(len: u64, sent: u64) {
        const MIB: u64 = 1 << 20;
        let sv = volume_with(32, 64, VolumeConfig::default());
        for i in 0..4 {
            sv.write(i * MIB, &pattern(i * MIB, MIB as usize)).unwrap();
        }
        let cfg = ServerConfig {
            window: 4,
            ..ServerConfig::default()
        };
        let handle = serve("127.0.0.1:0", "vol", sv.clone(), cfg).unwrap();
        let mut reader = Client::connect(handle.addr(), "vol").unwrap().into_raw();
        let mut w = reader.try_clone().unwrap();
        let at = move |i: u64| (i * len) % (4 * MIB);
        let writer = std::thread::spawn(move || {
            for i in 0..sent {
                send_read(&mut w, i, at(i), len as u32);
            }
        });
        // The server may parse until IN_CAP bytes of replies wait for
        // the client, plus what its window has in flight and what the
        // socket buffers took (16 MiB): then it must stop reading.
        let bound = (IN_CAP as u64).div_ceil(len) + 4 + (16 * MIB).div_ceil(len);
        assert!(sent > bound, "the client must overrun the bound");
        let served = || handle.recorders().snapshot().reads;
        let (mut last, mut since) = (u64::MAX, Instant::now());
        while since.elapsed() < Duration::from_millis(500) {
            std::thread::sleep(Duration::from_millis(20));
            let now = served();
            assert!(
                now <= bound,
                "{now} replies queued for a client that reads none (bound {bound})"
            );
            if now != last {
                (last, since) = (now, Instant::now());
            }
        }
        // The client drains: every reply arrives once, byte-exact. (Reads
        // served on the workers may finish out of order; NBD matches
        // replies by cookie.)
        let mut buf = vec![0u8; len as usize];
        let mut seen = vec![false; sent as usize];
        for _ in 0..sent {
            let reply = recv_reply(&mut reader);
            let i = reply.cookie;
            assert_eq!(reply.error, 0, "reply {i}");
            assert!(
                !std::mem::replace(&mut seen[i as usize], true),
                "reply {i} twice"
            );
            reader.read_exact(&mut buf).unwrap();
            assert!(buf == pattern(at(i), len as usize), "reply {i}");
        }
        writer.join().unwrap();
        drop(reader);
        handle.stop();
        sv.shutdown().unwrap();
    }

    #[test]
    fn reply_backlog_stops_reading_a_client_that_never_drains() {
        // 1 MiB reads run on the workers.
        reply_backlog_case(1 << 20, 128);
    }

    #[test]
    fn reply_backlog_bounds_inline_hits_too() {
        // 128 KiB hits are served on the reactor and never hold a window
        // slot: only the reply bound stops them.
        reply_backlog_case(128 << 10, 1536);
    }

    /// A host-file cache device whose every flush takes 20 ms, like a
    /// slow SSD's cache flush.
    struct SlowSyncDisk(blkdev::FileDisk);

    impl blkdev::BlockDevice for SlowSyncDisk {
        fn capacity(&self) -> u64 {
            self.0.capacity()
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> blkdev::Result<()> {
            self.0.read_at(offset, buf)
        }
        fn write_at(&self, offset: u64, data: &[u8]) -> blkdev::Result<()> {
            self.0.write_at(offset, data)
        }
        fn flush(&self) -> blkdev::Result<()> {
            std::thread::sleep(Duration::from_millis(20));
            self.0.flush()
        }
    }

    #[test]
    fn inline_hits_do_not_wait_for_another_tenants_fsync() {
        // Both tenants' caches are host files, as under `lsvdctl serve`.
        let dir = std::env::temp_dir().join(format!("nbd-fsync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let registry = Arc::new(ExportRegistry::new(None));
        for name in ["a", "b"] {
            let dev = blkdev::FileDisk::create(dir.join(name), 32 << 20).unwrap();
            let vol = Volume::create(
                Arc::new(MemStore::new()),
                Arc::new(SlowSyncDisk(dev)),
                name,
                16 << 20,
                VolumeConfig::small_for_tests(),
            )
            .unwrap();
            registry
                .attach(name, SharedVolume::new(vol), QosLimits::default())
                .unwrap();
        }
        let handle = serve_fleet("127.0.0.1:0", registry.clone(), ServerConfig::default()).unwrap();
        let addr = handle.addr();
        let mut b = Client::connect(addr, "b").unwrap();
        b.write(0, &[0xB0; 65536]).unwrap();

        // Tenant A: one connection writes and FLUSHes (an fdatasync of
        // A's cache file) back to back; another reads A's blocks, which
        // the reactor serves from that same file.
        let stop = Arc::new(AtomicBool::new(false));
        let flusher = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut a = Client::connect(addr, "a").unwrap();
                let data = vec![0xA0u8; 1 << 20];
                let mut flushes = Vec::new();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    a.write((i % 8) * (1 << 20), &data).unwrap();
                    let t = Instant::now();
                    a.flush().unwrap();
                    flushes.push(t.elapsed());
                    i += 1;
                }
                a.disconnect().unwrap();
                flushes
            })
        };
        let reader = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut a = Client::connect(addr, "a").unwrap();
                let mut buf = [0u8; 4096];
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    a.read((i % 2048) * 4096, &mut buf).unwrap();
                    i += 1;
                }
                a.disconnect().unwrap();
            })
        };

        // Tenant B: 4 KiB read hits, timed.
        let mut lat = Vec::new();
        let mut buf = [0u8; 4096];
        let t0 = Instant::now();
        let mut i = 0u64;
        while t0.elapsed() < Duration::from_secs(1) {
            let t = Instant::now();
            b.read((i % 16) * 4096, &mut buf).unwrap();
            lat.push(t.elapsed());
            assert_eq!(buf, [0xB0; 4096]);
            i += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let flushes = flusher.join().unwrap();
        reader.join().unwrap();
        // Were the reactor to wait on A's device while it flushes, about
        // one B read per flush would take most of a flush.
        assert!(flushes.len() >= 10 && flushes.iter().all(|f| f.as_millis() >= 20));
        let stalls = lat.iter().filter(|l| l.as_millis() >= 10).count();
        assert!(
            stalls * 4 < flushes.len(),
            "{stalls} b reads of 10 ms or more beside {} flushes",
            flushes.len()
        );

        b.disconnect().unwrap();
        handle.stop();
        for name in registry.list() {
            registry.detach(&name).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn qos_limits_inline_cache_hits() {
        let registry = Arc::new(ExportRegistry::new(None));
        let export = registry
            .attach("q", shared_volume(16), QosLimits::default())
            .unwrap();
        let handle = serve_fleet("127.0.0.1:0", registry.clone(), ServerConfig::default()).unwrap();
        let mut c = Client::connect(handle.addr(), "q").unwrap();
        c.write(0, &[6u8; 65536]).unwrap();
        export.set_qos(QosLimits {
            iops: 200,
            bytes_per_sec: 0,
        });
        let t0 = Instant::now();
        let mut n = 0u64;
        let mut buf = [0u8; 4096];
        while t0.elapsed() < Duration::from_secs(1) {
            c.read((n % 16) * 4096, &mut buf).unwrap();
            assert_eq!(buf, [6u8; 4096]);
            n += 1;
        }
        let limit = 200.0 * t0.elapsed().as_secs_f64() + 200.0 + 1.0;
        assert!(
            n as f64 <= limit,
            "{n} hits served against a limit of {limit:.0}"
        );
        assert!(export.recorders().snapshot().throttle_waits > 0);
        c.disconnect().unwrap();
        handle.stop();
        registry.detach("q").unwrap();
    }

    #[test]
    fn reads_on_fenced_or_shut_down_exports_fail_with_eio() {
        let registry = Arc::new(ExportRegistry::new(None));
        let fenced = registry
            .attach("fenced", shared_volume(16), QosLimits::default())
            .unwrap();
        let closed = registry
            .attach("closed", shared_volume(16), QosLimits::default())
            .unwrap();
        let handle = serve_fleet("127.0.0.1:0", registry.clone(), ServerConfig::default()).unwrap();
        let mut f = Client::connect(handle.addr(), "fenced").unwrap();
        let mut c = Client::connect(handle.addr(), "closed").unwrap();
        let mut buf = [0u8; 4096];
        for cl in [&mut f, &mut c] {
            cl.write(0, &[1u8; 4096]).unwrap();
            cl.read(0, &mut buf).unwrap();
        }
        let eio = format!("nbd error {EIO} ");

        // Shut down under a live export: the local read declines, the
        // worker's read fails.
        closed.volume().shutdown().unwrap();
        let err = c.read(0, &mut buf).unwrap_err();
        assert!(err.to_string().starts_with(&eio), "{err}");

        // Fenced: with the registry's nudge muted the reactor does not
        // drain the connection, so the read meets the fence itself.
        registry.set_notify(Box::new(|| {}));
        registry.detach("fenced").unwrap();
        let err = f.read(0, &mut buf).unwrap_err();
        assert!(err.to_string().starts_with(&eio), "{err}");

        for e in [&fenced, &closed] {
            assert_eq!(e.inflight(), 0, "{}: job_begin/job_done balanced", e.name());
            assert_eq!(e.recorders().snapshot().errors, 1, "{}", e.name());
        }
        handle.stop();
        registry.detach("closed").unwrap();
    }

    #[test]
    fn write_acked_on_one_connection_is_read_on_another() {
        let sv = shared_volume(16);
        let handle = serve("127.0.0.1:0", "vol", sv.clone(), ServerConfig::default()).unwrap();
        let mut a = Client::connect(handle.addr(), "vol").unwrap();
        let mut b = Client::connect(handle.addr(), "vol").unwrap();
        let mut buf = [0u8; 4096];
        for round in 1..=3u8 {
            for i in 0..32u64 {
                let v = round.wrapping_mul(37).wrapping_add(i as u8);
                a.write(i * 4096, &[v; 4096]).unwrap();
                b.read(i * 4096, &mut buf).unwrap();
                assert_eq!(buf, [v; 4096], "round {round} block {i}");
            }
        }
        a.disconnect().unwrap();
        b.disconnect().unwrap();
        handle.stop();
        sv.shutdown().unwrap();
    }

    #[test]
    fn max_size_read_reaches_a_slow_reader_byte_exact() {
        const LEN: usize = MAX_IO_BYTES as usize;
        let sv = volume_with(64, 128, VolumeConfig::default());
        for off in (0..LEN as u64).step_by(1 << 20) {
            sv.write(off, &pattern(off, 1 << 20)).unwrap();
        }
        let handle = serve("127.0.0.1:0", "vol", sv.clone(), ServerConfig::default()).unwrap();
        let mut s = Client::connect(handle.addr(), "vol").unwrap().into_raw();
        // Two maximal replies with a small one between them, so partial
        // writes cut inside and across queued replies.
        let reads = [(1u64, 0u64, LEN), (2, 4096, 8192), (3, 0, LEN)];
        for &(cookie, off, len) in &reads {
            send_read(&mut s, cookie, off, len as u32);
        }
        let mut seen = Vec::new();
        for _ in 0..reads.len() {
            let reply = recv_reply(&mut s);
            assert_eq!(reply.error, 0);
            let &(_, off, len) = reads.iter().find(|r| r.0 == reply.cookie).unwrap();
            // Take the payload in small, slow bites.
            let mut got = vec![0u8; len];
            for (k, chunk) in got.chunks_mut(256 << 10).enumerate() {
                s.read_exact(chunk).unwrap();
                if k % 16 == 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            assert!(got == pattern(off, len), "reply {} differs", reply.cookie);
            seen.push(reply.cookie);
        }
        seen.sort_unstable();
        assert_eq!(seen, [1, 2, 3]);
        drop(s);
        handle.stop();
        sv.shutdown().unwrap();
    }
}
