//! End-to-end benchmark of an LSVD fleet node over NBD.
//!
//! ```text
//! cargo run --release --manifest-path nbdbench/Cargo.toml -- \
//!     --workload <varmail|randread-hot|mixed-cold> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each run builds the node `lsvdctl serve` deploys — `nbd::serve_fleet`
//! on loopback with one export of a `VolumeConfig::default()` volume over a
//! 128 MiB `FileDisk` cache and a `DirStore` behind a `LatencyStore` (10 ms
//! PUT, 6 ms GET) — in a temporary directory under the working directory,
//! drives it with 16 closed-loop streams over two connections, checks
//! every read and, after a clean restart, a sample of the flushed blocks,
//! and prints the metrics as the last line of standard output (JSON). The
//! workload rationale and the layer-to-metric predictions are in
//! `README.md`.

mod gen;
mod layers;
mod load;
mod oracle;
mod stages;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use blkdev::FileDisk;
use lsvd::config::VolumeConfig;
use lsvd::fleet::{ExportRegistry, QosLimits};
use lsvd::shared::SharedVolume;
use lsvd::volume::Volume;
use nbd::{ServerConfig, ServerHandle};
use objstore::{DirStore, LatencyStore};
use telemetry::{LatencySnapshot, TelemetrySnapshot};

use gen::{derive, Prefill, Rng, Spec, Warmup, CONNS, MIB, STREAMS_PER_CONN};
use layers::{OpSnap, TimedDisk, TimedStore, Tracer};
use load::{Cmd, Load, OpRec, PhaseOut, Shared, Tally, FAILED_NS};
use oracle::BLOCK;
use stats::{percentile, FAILED};

const EXPORT: &str = "disk0";
const CACHE_DEV_BYTES: u64 = 128 * MIB;
const PUT_DELAY: Duration = Duration::from_millis(10);
const GET_DELAY: Duration = Duration::from_millis(6);
/// `Volume::open` is timed this many times after the window (a clean
/// shutdown between opens); `reopen_s` is the median.
const REOPENS: usize = 9;
/// The restart check reads back a sample of the flushed blocks: each
/// backend GET reads its whole 8 MiB object file (`DirStore`), so a full
/// re-read of a run's flushed set costs several seconds per run.
const CHECK_RUNS: usize = 192;
/// Prefilled blocks re-read after the restart, besides the flushed ones.
const PREFILL_SAMPLE: usize = 256;
const WARM_SLICE_S: f64 = 0.5;
const LOOPBACK_ROUNDS: usize = 2000;
/// Candidates for the highest percentile a latency sample supports.
const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Phase tags: each phase draws fresh generators.
const PHASE_WARM: u64 = 1;
const PHASE_WINDOW: u64 = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One node: its devices, volume and NBD server.
struct Node {
    dir: PathBuf,
    tracer: Arc<Tracer>,
    disk: Arc<TimedDisk>,
    store: Arc<TimedStore>,
    vol: SharedVolume,
    registry: Arc<ExportRegistry>,
    server: Option<ServerHandle>,
}

impl Node {
    fn serve(&mut self) -> Result<(), String> {
        if let Some(s) = self.server.take() {
            s.stop();
        }
        // A fresh registry gives the export fresh serving recorders, so
        // the window's queue/service sketches hold only window requests.
        let registry = Arc::new(ExportRegistry::new(None));
        registry
            .attach(EXPORT, self.vol.clone(), QosLimits::default())
            .map_err(|e| format!("attach: {e}"))?;
        self.server = Some(
            nbd::serve_fleet("127.0.0.1:0", registry.clone(), ServerConfig::default())
                .map_err(|e| format!("serve: {e}"))?,
        );
        self.registry = registry;
        Ok(())
    }

    fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("node is serving").addr()
    }

    /// Stops serving and shuts the volume down cleanly.
    fn stop(&mut self) -> Result<(), String> {
        if let Some(s) = self.server.take() {
            s.stop();
        }
        self.registry
            .detach(EXPORT)
            .map_err(|e| format!("detach: {e}"))
    }

    fn open(&self) -> Result<Volume, String> {
        open_volume(&self.store, &self.disk)
    }
}

/// Opens the image on the node's devices and points the device wrapper
/// at the read-cache region.
fn open_volume(store: &Arc<TimedStore>, disk: &Arc<TimedDisk>) -> Result<Volume, String> {
    let vol = Volume::open(store.clone(), disk.clone(), EXPORT, VolumeConfig::default())
        .map_err(|e| format!("open: {e}"))?;
    disk.set_rcache_region(vol.read_cache_region());
    Ok(vol)
}

fn tmp_root() -> PathBuf {
    PathBuf::from(".nbdbench-tmp").join(std::process::id().to_string())
}

fn now_s(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Writes the initial image straight into the volume and flushes it.
fn prefill(vol: &mut Volume, spec: &Spec, seed: u64) -> Result<(), String> {
    let err = |e: lsvd::LsvdError| format!("prefill: {e}");
    match spec.prefill {
        Prefill::Sequential { bytes } => {
            let mut buf = vec![0u8; MIB as usize];
            for off in (0..bytes).step_by(MIB as usize) {
                for (i, chunk) in buf.chunks_exact_mut(BLOCK).enumerate() {
                    oracle::stamp(chunk, off + (i * BLOCK) as u64, 0, seed);
                }
                vol.write(off, &buf).map_err(err)?;
            }
        }
        Prefill::Scattered { bytes } => {
            let n = bytes / BLOCK as u64;
            let mut order: Vec<u32> = (0..n as u32).collect();
            Rng::new(derive(seed, 0, 0)).shuffle(&mut order);
            let mut buf = vec![0u8; BLOCK];
            for b in order {
                let off = u64::from(b) * BLOCK as u64;
                oracle::stamp(&mut buf, off, 0, seed);
                vol.write(off, &buf).map_err(err)?;
            }
        }
    }
    vol.flush().map_err(err)
}

/// Read hit ratio between two snapshots (1.0 when nothing was read).
fn hit_ratio(a: &TelemetrySnapshot, b: &TelemetrySnapshot) -> f64 {
    let reads = b.read_plane.reads - a.read_plane.reads;
    if reads == 0 {
        1.0
    } else {
        (b.read_plane.hit_reads - a.read_plane.hit_reads) as f64 / reads as f64
    }
}

fn telemetry(vol: &SharedVolume) -> Result<TelemetrySnapshot, String> {
    vol.telemetry().map_err(|e| format!("telemetry: {e}"))
}

/// Ops and flushed blocks produced outside the timed window.
#[derive(Default)]
struct Ledger {
    failed: u64,
    durable: Vec<u64>,
}

impl Ledger {
    fn absorb(&mut self, outs: Vec<PhaseOut>) {
        self.failed += outs.iter().map(|o| o.tally.failed).sum::<u64>();
    }
}

fn io_err(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

/// Builds a node for `spec`: creates and prefills the image, shuts it
/// down, opens and serves it the way a node does, warms it with the
/// workload itself, and restarts the listener so the window starts with
/// fresh serving recorders.
fn setup(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    tracer: &Arc<Tracer>,
    shared: &Shared,
    ledger: &mut Ledger,
) -> Result<Node, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let file = FileDisk::create(dir.join("cache.img"), CACHE_DEV_BYTES)
        .map_err(|e| format!("cache device: {e}"))?;
    let disk = Arc::new(TimedDisk::new(Arc::new(file), tracer.clone()));
    let backend = DirStore::open(dir.join("bucket")).map_err(|e| format!("bucket: {e}"))?;
    let store = Arc::new(TimedStore::new(
        Arc::new(LatencyStore::new(backend, PUT_DELAY, GET_DELAY)),
        tracer.clone(),
    ));
    let mut vol = Volume::create(
        store.clone(),
        disk.clone(),
        EXPORT,
        spec.volume_bytes,
        VolumeConfig::default(),
    )
    .map_err(|e| format!("create: {e}"))?;
    disk.set_rcache_region(vol.read_cache_region());
    prefill(&mut vol, spec, seed)?;
    vol.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    let vol = open_volume(&store, &disk)?;
    let mut node = Node {
        dir: dir.to_path_buf(),
        tracer: tracer.clone(),
        disk,
        store,
        vol: SharedVolume::new(vol),
        registry: Arc::new(ExportRegistry::new(None)),
        server: None,
    };
    window_pass(&node.vol, spec, seed)?;
    node.serve()?;
    warm(&node, spec, seed, shared, ledger)?;
    node.serve()?;
    Ok(node)
}

/// Reads one 4 KiB block per prefetch window of the first
/// `spec.window_pass_bytes`, in a seeded shuffled order, on a few threads.
fn window_pass(vol: &SharedVolume, spec: &Spec, seed: u64) -> Result<(), String> {
    let window = VolumeConfig::default().prefetch_bytes;
    let mut offs: Vec<u64> = (0..spec.window_pass_bytes / window)
        .map(|i| i * window)
        .collect();
    Rng::new(derive(seed, 8, 8)).shuffle(&mut offs);
    let threads = 8;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let offs = &offs;
                scope.spawn(move || {
                    for &off in offs.iter().skip(t).step_by(threads) {
                        vol.read_bytes(off, BLOCK)
                            .map_err(|e| format!("window pass: {e}"))?;
                    }
                    Ok::<(), String>(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("window pass thread panicked"))
    })
}

fn warm(
    node: &Node,
    spec: &Spec,
    seed: u64,
    shared: &Shared,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let mut load = Load::connect(node.addr(), EXPORT, spec, seed, PHASE_WARM)
        .map_err(io_err("warm-up connect"))?;
    let mut prev: Option<f64> = None;
    for slice in 1.. {
        let before = telemetry(&node.vol)?;
        let outs = load
            .run(shared, WARM_SLICE_S, None, || {})
            .map_err(io_err("warm-up"))?;
        ledger.absorb(outs);
        let after = telemetry(&node.vol)?;
        let done = match spec.warmup {
            Warmup::Slices(n) => slice >= n,
            Warmup::HitRatio {
                min,
                tol,
                max_slices,
            } => {
                let h = hit_ratio(&before, &after);
                let steady = h >= min && prev.is_some_and(|p| (h - p).abs() < tol);
                prev = Some(h);
                steady || slice >= max_slices
            }
        };
        if done {
            break;
        }
    }
    ledger.durable.extend(load.take_durable());
    load.close().map_err(io_err("warm-up close"))
}

/// Counter snapshot of both wrapped layers.
#[derive(Debug, Clone, Copy, Default)]
struct Layers {
    wlog_write: OpSnap,
    rcache_write: OpSnap,
    sb_write: OpSnap,
    wlog_read: OpSnap,
    rcache_read: OpSnap,
    sb_read: OpSnap,
    flush: OpSnap,
    put: OpSnap,
    ckpt: OpSnap,
    get: OpSnap,
    meta: OpSnap,
    delete: OpSnap,
    store_failed: u64,
}

impl Layers {
    fn of(node: &Node) -> Layers {
        let d = &node.disk.stats;
        let s = &node.store.stats;
        Layers {
            wlog_write: d.wlog_write.snap(),
            rcache_write: d.rcache_write.snap(),
            sb_write: d.sb_write.snap(),
            wlog_read: d.wlog_read.snap(),
            rcache_read: d.rcache_read.snap(),
            sb_read: d.sb_read.snap(),
            flush: d.flush.snap(),
            put: s.put.snap(),
            ckpt: s.put_ckpt.snap(),
            get: s.get.snap(),
            meta: s.meta.snap(),
            delete: s.delete.snap(),
            store_failed: s.failed.load(Relaxed),
        }
    }

    fn reset_peaks(node: &Node) {
        let d = &node.disk.stats;
        let s = &node.store.stats;
        for st in [
            &d.wlog_write,
            &d.rcache_write,
            &d.sb_write,
            &d.wlog_read,
            &d.rcache_read,
            &d.sb_read,
            &d.flush,
            &s.put,
            &s.put_ckpt,
            &s.get,
            &s.meta,
            &s.delete,
        ] {
            st.reset_peak();
        }
    }

    fn since(&self, a: &Layers) -> Layers {
        Layers {
            wlog_write: self.wlog_write.since(&a.wlog_write),
            rcache_write: self.rcache_write.since(&a.rcache_write),
            sb_write: self.sb_write.since(&a.sb_write),
            wlog_read: self.wlog_read.since(&a.wlog_read),
            rcache_read: self.rcache_read.since(&a.rcache_read),
            sb_read: self.sb_read.since(&a.sb_read),
            flush: self.flush.since(&a.flush),
            put: self.put.since(&a.put),
            ckpt: self.ckpt.since(&a.ckpt),
            get: self.get.since(&a.get),
            meta: self.meta.since(&a.meta),
            delete: self.delete.since(&a.delete),
            store_failed: self.store_failed - a.store_failed,
        }
    }

    /// Every byte the backend was sent: data, GC and checkpoint PUTs.
    fn put_bytes(&self) -> u64 {
        self.put.bytes + self.ckpt.bytes
    }

    fn store_ops(&self) -> u64 {
        self.put.ops + self.ckpt.ops + self.get.ops + self.meta.ops + self.delete.ops
    }
}

/// Program and layer state at one edge of the timed window.
struct Capture {
    tel: TelemetrySnapshot,
    extents: usize,
    layers: Layers,
    written: u64,
}

fn capture(node: &Node, shared: &Shared) -> Result<Capture, String> {
    Ok(Capture {
        tel: telemetry(&node.vol)?,
        extents: node
            .vol
            .with_volume(|v| v.map_extent_count())
            .map_err(|e| format!("extent count: {e}"))?,
        layers: Layers::of(node),
        written: shared.write_bytes.load(Relaxed),
    })
}

/// Everything the timed window produced.
struct Window {
    start: Capture,
    end: Capture,
    mid_layers: Layers,
    mid_written: u64,
    tally: Tally,
    traced: Option<Traced>,
}

struct Traced {
    recs: Vec<OpRec>,
    ring: Vec<telemetry::Span>,
    offset_ns: i64,
    layer_spans: Vec<layers::LayerSpan>,
    spans_dropped: u64,
}

/// Runs the timed window of `secs` seconds on fresh connections. With
/// `trace` the volume's span ring and the layer wrappers record it; the
/// connections are the first on a fresh server, so the traced requests
/// can be matched to the server's request ids.
fn run_window(
    node: &Node,
    spec: &Spec,
    seed: u64,
    secs: f64,
    trace: bool,
    shared: &Shared,
    ledger: &mut Ledger,
) -> Result<Window, String> {
    let mut load =
        Load::connect(node.addr(), EXPORT, spec, seed, PHASE_WINDOW).map_err(io_err("connect"))?;
    let ring = node.vol.span_ring();
    Layers::reset_peaks(node);
    let start = capture(node, shared)?;
    let dropped0 = ring.dropped();
    let mut offset_ns = 0;
    if trace {
        ring.drain();
        offset_ns = shared.now_ns() as i64 - ring.now_us() as i64 * 1000;
        ring.set_enabled(true);
        node.tracer.set_enabled(true);
    }
    let mid = Mutex::new(None);
    let res = load.run(shared, secs, trace.then_some(&*ring), || {
        *mid.lock().expect("mid lock") = Some((Layers::of(node), shared.write_bytes.load(Relaxed)));
    });
    ring.set_enabled(false);
    node.tracer.set_enabled(false);
    let outs = res.map_err(io_err("window"))?;
    ledger.durable.extend(load.take_durable());
    load.close().map_err(io_err("close"))?;
    let (mut tally, mut recs, mut spans) = (Tally::default(), Vec::new(), Vec::new());
    for o in outs {
        tally.merge(o.tally);
        recs.extend(o.recs);
        spans.extend(o.ring_spans);
    }
    let traced = trace.then(|| {
        spans.extend(ring.drain());
        Traced {
            recs,
            ring: spans,
            offset_ns,
            layer_spans: node.tracer.take(),
            spans_dropped: ring.dropped() - dropped0,
        }
    });
    let (mid_layers, mid_written) = mid
        .into_inner()
        .expect("mid lock")
        .expect("the window takes its mid-point snapshot");
    let end = capture(node, shared)?;
    Ok(Window {
        start,
        end,
        mid_layers,
        mid_written,
        tally,
        traced,
    })
}

/// Read runs `(first block, blocks)` for the restart check: the blocks a
/// completed FLUSH of their own stream covered, coalesced into runs of up
/// to 64 blocks, of which a seeded sample of at most [`CHECK_RUNS`] is
/// kept, plus [`PREFILL_SAMPLE`] single prefilled blocks.
fn check_runs(spec: &Spec, seed: u64, durable: &[u64]) -> Vec<(u64, u64)> {
    let mut blocks: Vec<u64> = durable.to_vec();
    blocks.sort_unstable();
    blocks.dedup();
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for b in blocks {
        match runs.last_mut() {
            Some((s, n)) if *s + *n == b && *n < 64 => *n += 1,
            _ => runs.push((b, 1)),
        }
    }
    let mut rng = Rng::new(derive(seed, 9, 9));
    rng.shuffle(&mut runs);
    runs.truncate(CHECK_RUNS);
    let prefilled = spec.prefill.bytes() / BLOCK as u64;
    if prefilled > 0 {
        runs.extend((0..PREFILL_SAMPLE).map(|_| (rng.below(prefilled), 1)));
    }
    runs.sort_unstable();
    runs
}

/// Reads `runs` back through `vol` on a few threads and counts the blocks
/// the oracle rejects. Returns `(checked, bad)`.
fn verify(vol: &SharedVolume, runs: &[(u64, u64)], shared: &Shared) -> (u64, u64) {
    let bad = AtomicU64::new(0);
    let threads = 4;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (runs, bad) = (&runs, &bad);
            scope.spawn(move || {
                for &(first, n) in runs.iter().skip(t).step_by(threads) {
                    let off = first * BLOCK as u64;
                    let sent = shared.now_ns();
                    match vol.read_bytes(off, n as usize * BLOCK) {
                        Ok(data) => {
                            let o = shared.oracle.lock().expect("oracle poisoned");
                            for (i, chunk) in data.chunks_exact(BLOCK).enumerate() {
                                let at = off + (i * BLOCK) as u64;
                                let got = oracle::parse(chunk, at, shared.seed);
                                if !o.read_ok(at / BLOCK as u64, got, sent) {
                                    bad.fetch_add(1, Relaxed);
                                }
                            }
                        }
                        Err(_) => {
                            bad.fetch_add(n, Relaxed);
                        }
                    }
                }
            });
        }
    });
    (runs.iter().map(|r| r.1).sum(), bad.into_inner())
}

/// Bytes held by the backend: every object file in the bucket.
fn bucket_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir.join("bucket"))
        .map(|rd| {
            rd.flatten()
                .filter(|e| !e.file_name().to_string_lossy().starts_with(".tmp."))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type holding `path`, from the longest matching mount.
fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The checkout's git revision, or `unknown` outside a git work tree.
fn revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or_else(|_| "unknown".into(), |rev| rev.trim().to_string()),
        None if head.len() >= 40 => head.to_string(),
        None => "unknown".into(),
    }
}

/// Named metrics in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // A ratio with nothing to divide reads as 0.
        let v = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), v, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Latencies (ns) of `cmd` ops (every op for `None`) across `tallies`,
/// ascending; failed or mis-read ops sort last as [`FAILED`].
fn latencies<'a>(tallies: impl Iterator<Item = &'a Tally>, cmd: Option<Cmd>) -> Vec<u64> {
    let mut v: Vec<u64> = tallies
        .flat_map(|t| {
            t.lat
                .iter()
                .enumerate()
                .filter(move |(i, _)| cmd.is_none_or(|c| c as usize == *i))
                .flat_map(|(_, l)| l.iter())
        })
        .map(|&ns| {
            if ns == FAILED_NS {
                FAILED
            } else {
                u64::from(ns)
            }
        })
        .collect();
    v.sort_unstable();
    v
}

/// Percentile `p` in µs, or 0 when the sample does not support it.
fn pct_us(sorted: &[u64], p: f64) -> f64 {
    percentile(sorted, p).map_or(0.0, stats::us)
}

/// A program sketch's p99 in µs, when at least 10 samples lie beyond it.
fn sketch_p99_us(s: &LatencySnapshot) -> f64 {
    if stats::beyond(s.count as usize, 99.0) >= stats::MIN_BEYOND {
        s.p99_ns / 1e3
    } else {
        0.0
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nbdbench: {e}");
            eprintln!("usage: nbdbench --workload <varmail|randread-hot|mixed-cold> --seed N --seconds S --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::by_name(&args.workload) else {
        eprintln!("nbdbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let result = run(&args, &spec, started);
    let _ = std::fs::remove_dir_all(tmp_root());
    let _ = std::fs::remove_dir(".nbdbench-tmp");
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("nbdbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// One node built and measured: set-up, the timed window, a clean
/// restart and the check of what survived.
struct Measured {
    setup_s: f64,
    reopen_s: Vec<f64>,
    floor_us: f64,
    w: Window,
    held_bytes: u64,
    user_bytes: u64,
    checked: u64,
    bad_blocks: u64,
    warm_failed: u64,
    /// Wall time of the window (its deadline and the ops still
    /// outstanding at it), the restart and the read-back check.
    phases_s: [f64; 3],
}

/// Builds a node in `name` under the run's temporary directory and
/// measures it. Set-up is timed from `t0`.
fn measure(
    args: &Args,
    spec: &Spec,
    name: &str,
    t0: Instant,
    trace: bool,
    tracer: &Arc<Tracer>,
) -> Result<Measured, String> {
    let seed = derive(args.seed, 100, 0);
    let shared = Shared::new(spec, seed, t0);
    let mut ledger = Ledger::default();
    let dir = tmp_root().join(name);
    let mut node = setup(spec, seed, &dir, tracer, &shared, &mut ledger)?;
    let floor_us = load::loopback_floor_us(LOOPBACK_ROUNDS).map_err(io_err("loopback"))?;
    let setup_s = now_s(t0);

    let secs = args.seconds as f64;
    let t = Instant::now();
    let w = run_window(&node, spec, seed, secs, trace, &shared, &mut ledger)?;
    let window_s = now_s(t);
    let held_bytes = bucket_bytes(&node.dir);

    // Clean shutdown, then time reopening on the same store and cache.
    let t = Instant::now();
    node.stop()?;
    let mut reopen_s = Vec::new();
    let vol = loop {
        let t = Instant::now();
        let v = node.open()?;
        reopen_s.push(now_s(t));
        if reopen_s.len() == REOPENS {
            break SharedVolume::new(v);
        }
        v.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    };
    let restart_s = now_s(t);
    let t = Instant::now();
    let runs = check_runs(spec, seed, &ledger.durable);
    let (checked, bad_blocks) = verify(&vol, &runs, &shared);
    vol.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let check_s = now_s(t);
    drop(node);
    std::fs::remove_dir_all(&dir).map_err(io_err("remove node dir"))?;

    let o = shared.oracle.lock().expect("oracle poisoned");
    let user_bytes =
        (0..spec.blocks()).filter(|&b| o.ever_written(b)).count() as u64 * BLOCK as u64;
    Ok(Measured {
        setup_s,
        reopen_s,
        floor_us,
        w,
        held_bytes,
        user_bytes,
        checked,
        bad_blocks,
        warm_failed: ledger.failed,
        phases_s: [window_s, restart_s, check_s],
    })
}

/// Deltas over one timed window.
struct Delta<'a> {
    a: &'a TelemetrySnapshot,
    b: &'a TelemetrySnapshot,
    l: Layers,
    first: Layers,
    second: Layers,
    written: u64,
    first_written: u64,
}

impl<'a> Delta<'a> {
    fn of(w: &'a Window) -> Delta<'a> {
        Delta {
            a: &w.start.tel,
            b: &w.end.tel,
            l: w.end.layers.since(&w.start.layers),
            first: w.mid_layers.since(&w.start.layers),
            second: w.end.layers.since(&w.mid_layers),
            written: w.end.written - w.start.written,
            first_written: w.mid_written - w.start.written,
        }
    }

    /// Bytes the cleaner relocated in the window.
    fn relocated(&self) -> u64 {
        self.b.space.gc_relocated_bytes - self.a.space.gc_relocated_bytes
    }

    fn gc_passes(&self) -> u64 {
        self.b.space.gc_passes - self.a.space.gc_passes
    }

    /// The self-checks that make a window valid for its workload.
    fn check(&self, spec: &Spec, secs: f64) -> Vec<String> {
        let (l, mut bad) = (&self.l, Vec::new());
        match spec.kind {
            gen::Kind::Varmail => {
                // The window must reach the map checkpoint and the
                // cleaning pass it starts: varmail is the steady
                // overwrite case, and its cost shows only with them.
                if l.ckpt.ops == 0 {
                    bad.push("no map checkpoint in the window (need 1)".into());
                }
                if self.relocated() == 0 && self.gc_passes() == 0 {
                    bad.push("no cleaning in the window (need a pass under way)".into());
                }
            }
            gen::Kind::RandreadHot => {
                if l.store_ops() != 0 {
                    bad.push(format!("{} object-store ops (need 0)", l.store_ops()));
                }
                if l.flush.ops != 0 {
                    bad.push(format!("{} cache-device flushes (need 0)", l.flush.ops));
                }
                let hit = hit_ratio(self.a, self.b);
                if hit < 0.99 {
                    bad.push(format!("read hit ratio {hit:.4} (need 0.99)"));
                }
            }
            gen::Kind::MixedCold => {
                if (l.get.ops as f64) < secs {
                    bad.push(format!("{} GETs in {secs} s (need 1/s)", l.get.ops));
                }
            }
        }
        bad
    }
}

/// Ops completed by the window's deadline, per second.
fn ops_per_s(t: &Tally, secs: f64) -> f64 {
    t.done.iter().sum::<u64>() as f64 / secs
}

/// Runs the benchmark and prints its result. `Ok(false)` is a run that
/// completed but is invalid (a mis-read, a failed op or a failed
/// self-check).
fn run(args: &Args, spec: &Spec, started: Instant) -> Result<bool, String> {
    let tracer = Arc::new(Tracer::new(started));
    let secs = args.seconds as f64;
    // The metrics come from an untraced node. With `--trace 1` a second
    // node, set up from the same seed, runs the same window traced: it
    // gives the per-stage times and, against the first, the tracing
    // overhead.
    let main = measure(args, spec, "node", started, false, &tracer)?;
    let traced = if args.trace {
        Some(measure(
            args,
            spec,
            "traced",
            Instant::now(),
            true,
            &tracer,
        )?)
    } else {
        None
    };
    let nodes: Vec<&Measured> = std::iter::once(&main).chain(traced.as_ref()).collect();
    let d = Delta::of(&main.w);

    // ---- Correctness and self-checks -----------------------------------
    let window_failed: u64 = nodes.iter().map(|m| m.w.tally.failed).sum();
    let warm_failed: u64 = nodes.iter().map(|m| m.warm_failed).sum();
    let checked: u64 = nodes.iter().map(|m| m.checked).sum();
    let bad_blocks: u64 = nodes.iter().map(|m| m.bad_blocks).sum();
    let attempted = nodes.iter().map(|m| m.w.tally.attempted()).sum::<u64>() + checked;
    let failed = window_failed + warm_failed + bad_blocks;
    let mut invalid = Vec::new();
    for m in &nodes {
        let what = if m.w.traced.is_some() {
            "traced window"
        } else {
            "window"
        };
        for msg in Delta::of(&m.w).check(spec, secs) {
            invalid.push(format!("{} {what}: {msg}", spec.name));
        }
    }
    let wa_first = ratio(d.first.put_bytes() as f64, d.first_written as f64);
    let wa_second = ratio(
        d.second.put_bytes() as f64,
        (d.written - d.first_written) as f64,
    );

    // ---- Metadata ----------------------------------------------------------
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "nbdbench workload={} seed={} seconds={} trace={} nproc={nproc} rev={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        revision()
    );
    println!(
        "  node: cache_dev={} MiB span={} MiB hot={} MiB volume={} MiB conns={CONNS} streams/conn={STREAMS_PER_CONN} qd/conn={STREAMS_PER_CONN}",
        CACHE_DEV_BYTES / MIB,
        spec.span_bytes / MIB,
        spec.hot_bytes / MIB,
        spec.volume_bytes / MIB
    );
    println!(
        "  backend: put_delay_ms={} get_delay_ms={} flush_policy=\"VolumeConfig::default (serial writeback, {} MiB batches, checkpoint every {} objects, GC on)\" tmp_fs={} loopback_floor_p50_us={:.2}",
        PUT_DELAY.as_millis(),
        GET_DELAY.as_millis(),
        VolumeConfig::default().batch_bytes / MIB,
        VolumeConfig::default().checkpoint_interval,
        filesystem_of(Path::new(".")),
        main.floor_us,
    );
    println!(
        "  correctness: attempted={attempted} failed={failed} (window {window_failed}, warm-up {warm_failed}, reopen check {bad_blocks} of {checked} blocks)"
    );
    for msg in &invalid {
        println!("  INVALID: {msg}");
    }

    // ---- End to end (untraced) ---------------------------------------------
    let t = &main.w.tally;
    let ops_s = ops_per_s(t, secs);
    let rbytes = t.done_bytes[Cmd::Read as usize];
    let wbytes = t.done_bytes[Cmd::Write as usize];
    let all = latencies(std::iter::once(t), None);
    let rd = latencies(std::iter::once(t), Some(Cmd::Read));
    let wr = latencies(std::iter::once(t), Some(Cmd::Write));
    let fl = latencies(std::iter::once(t), Some(Cmd::Flush));
    for (name, v) in [("op", &all), ("read", &rd), ("write", &wr), ("flush", &fl)] {
        if !v.is_empty() {
            let tail = stats::highest_supported(v.len(), &TAIL_PERCENTILES)
                .map_or("n/a".into(), |p| format!("p{p}={:.1}us", pct_us(v, p)));
            println!(
                "  {name:<5} n={:<8} p50={:.1}us {tail}",
                v.len(),
                pct_us(v, 50.0)
            );
        }
    }
    println!(
        "  setup_s={:.3} window+drain_s={:.3} restart_s={:.3} check_s={:.3} reopen_s={:.4?}",
        main.setup_s, main.phases_s[0], main.phases_s[1], main.phases_s[2], main.reopen_s
    );
    let mut m = Metrics::default();
    m.put("ops_per_s", ops_s, "ops/s");
    m.put("read_mib_s", rbytes as f64 / MIB as f64 / secs, "MiB/s");
    m.put("read_p50_us", pct_us(&rd, 50.0), "us");
    m.put("reopen_s", median(main.reopen_s.clone()), "s");
    m.put("setup_s", main.setup_s, "s");

    // ---- Per layer (the untraced window) ---------------------------------
    let l = &d.l;
    let client_flushes = t.lat[Cmd::Flush as usize]
        .iter()
        .filter(|&&ns| ns != FAILED_NS)
        .count();
    let written = d.written as f64;
    let ms = |ns: u64| ns as f64 / 1e6;

    let mut p = Metrics::default();
    p.put("op_p50_us", pct_us(&all, 50.0), "us");
    p.put("op_p99_us", pct_us(&all, 99.0), "us");
    p.put("read_p99_us", pct_us(&rd, 99.0), "us");
    p.put("peak_rss_mib", peak_rss_mib(), "MiB");
    p.put("write_mib_s", wbytes as f64 / MIB as f64 / secs, "MiB/s");
    p.put("write_p50_us", pct_us(&wr, 50.0), "us");
    p.put("write_p99_us", pct_us(&wr, 99.0), "us");
    p.put("flush_p50_us", pct_us(&fl, 50.0), "us");
    p.put("flush_p99_us", pct_us(&fl, 99.0), "us");
    p.put(
        "failed_frac",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );
    p.put(
        "backend_write_amp",
        ratio(l.put_bytes() as f64, written),
        "ratio",
    );
    p.put(
        "space_amp",
        ratio(main.held_bytes as f64, main.user_bytes as f64),
        "ratio",
    );

    let serving = &d.b.serving;
    p.put("nbd.loopback_floor_p50_us", main.floor_us, "us");
    p.put(
        "nbd.socket_wait_p50_us",
        serving.socket_wait.p50_ns / 1e3,
        "us",
    );
    p.put(
        "nbd.queue_wait_p50_us",
        serving.queue_wait.p50_ns / 1e3,
        "us",
    );
    p.put(
        "nbd.queue_wait_p99_us",
        sketch_p99_us(&serving.queue_wait),
        "us",
    );
    p.put("nbd.service_p50_us", serving.service.p50_ns / 1e3, "us");
    p.put("nbd.service_p99_us", sketch_p99_us(&serving.service), "us");

    let dev_write_bytes = l.wlog_write.bytes + l.rcache_write.bytes + l.sb_write.bytes;
    p.put("blkdev.wlog_write_ops", l.wlog_write.ops as f64, "count");
    p.put(
        "blkdev.wlog_write_bytes",
        l.wlog_write.bytes as f64,
        "bytes",
    );
    p.put("blkdev.wlog_write_busy_ms", ms(l.wlog_write.busy_ns), "ms");
    p.put(
        "blkdev.rcache_write_bytes",
        l.rcache_write.bytes as f64,
        "bytes",
    );
    p.put("blkdev.rcache_read_ops", l.rcache_read.ops as f64, "count");
    p.put(
        "blkdev.read_busy_ms",
        ms(l.wlog_read.busy_ns + l.rcache_read.busy_ns + l.sb_read.busy_ns),
        "ms",
    );
    p.put("blkdev.flush_ops", l.flush.ops as f64, "count");
    p.put("blkdev.flush_busy_ms", ms(l.flush.busy_ns), "ms");
    p.put(
        "blkdev.flushes_per_client_flush",
        ratio(l.flush.ops as f64, client_flushes as f64),
        "ratio",
    );
    p.put(
        "blkdev.write_bytes_per_user_byte",
        ratio(dev_write_bytes as f64, written),
        "ratio",
    );

    let miss_bytes = (d.b.cache.rcache_miss_sectors - d.a.cache.rcache_miss_sectors) as f64 * 512.0;
    p.put("objstore.put_ops", (l.put.ops + l.ckpt.ops) as f64, "count");
    p.put("objstore.put_bytes", l.put_bytes() as f64, "bytes");
    p.put(
        "objstore.put_busy_ms",
        ms(l.put.busy_ns + l.ckpt.busy_ns),
        "ms",
    );
    p.put(
        "objstore.put_max_inflight",
        l.put.max_inflight.max(l.ckpt.max_inflight) as f64,
        "count",
    );
    p.put("objstore.get_ops", l.get.ops as f64, "count");
    p.put("objstore.get_bytes", l.get.bytes as f64, "bytes");
    p.put("objstore.get_busy_ms", ms(l.get.busy_ns), "ms");
    p.put(
        "objstore.get_max_inflight",
        l.get.max_inflight as f64,
        "count",
    );
    p.put(
        "objstore.get_bytes_per_miss_byte",
        ratio(l.get.bytes as f64, miss_bytes),
        "ratio",
    );
    p.put("objstore.meta_ops", l.meta.ops as f64, "count");
    p.put("objstore.delete_ops", l.delete.ops as f64, "count");
    p.put("objstore.failed_ops", l.store_failed as f64, "count");
    p.put(
        "writeback.put_queue_wait_p99_us",
        sketch_p99_us(&d.b.writeback.put_queue_wait),
        "us",
    );
    p.put(
        "writeback.put_service_p50_us",
        d.b.writeback.put_service.p50_ns / 1e3,
        "us",
    );

    let (rp_a, rp_b) = (&d.a.read_plane, &d.b.read_plane);
    p.put("read_plane.hit_ratio", hit_ratio(d.a, d.b), "ratio");
    p.put(
        "read_plane.miss_reads",
        (rp_b.miss_reads - rp_a.miss_reads) as f64,
        "count",
    );
    p.put(
        "read_plane.singleflight_shared",
        (rp_b.singleflight_shared - rp_a.singleflight_shared) as f64,
        "count",
    );
    p.put(
        "read_plane.bypassed_sectors",
        (rp_b.bypassed_sectors - rp_a.bypassed_sectors) as f64,
        "count",
    );
    p.put(
        "read_plane.shared_lock_wait_p99_us",
        sketch_p99_us(&rp_b.shared_lock_wait),
        "us",
    );
    p.put(
        "read_plane.excl_lock_wait_p99_us",
        sketch_p99_us(&rp_b.excl_lock_wait),
        "us",
    );

    let relocated = d.relocated() as f64;
    p.put("gc.passes", d.gc_passes() as f64, "count");
    p.put("gc.relocated_bytes", relocated, "bytes");
    p.put(
        "gc.cleaning_write_amp",
        ratio(
            relocated,
            (d.b.space.gc_freed_bytes - d.a.space.gc_freed_bytes) as f64,
        ),
        "ratio",
    );
    p.put(
        "gc.deferred_deletes",
        d.b.space.deferred_deletes as f64,
        "count",
    );
    p.put("checkpoint.put_ops", l.ckpt.ops as f64, "count");
    p.put("checkpoint.put_bytes", l.ckpt.bytes as f64, "bytes");
    p.put("extent_map.entries", main.w.end.extents as f64, "count");
    p.put("volume.backend_write_amp_first_half", wa_first, "ratio");
    p.put("volume.backend_write_amp_second_half", wa_second, "ratio");

    if let Some(tn) = &traced {
        let tr = tn.w.traced.as_ref().expect("traced window");
        let bd = stages::join(&tr.recs, &tr.ring, tr.offset_ns);
        p.put(
            "telemetry.tracing_overhead",
            ratio(ops_s, ops_per_s(&tn.w.tally, secs)),
            "ratio",
        );
        p.put("telemetry.spans_dropped", tr.spans_dropped as f64, "count");
        for st in stages::REPORTED {
            let v = bd.self_ns.get(&st).map_or(&[][..], |v| &v[..]);
            p.put(format!("stage.{st:?}.self_p50_us"), pct_us(v, 50.0), "us");
            p.put(format!("stage.{st:?}.self_p99_us"), pct_us(v, 99.0), "us");
        }
        p.put(
            "stage.unexplained_p50_us",
            pct_us(&bd.unexplained_ns, 50.0),
            "us",
        );
        p.put(
            "stage.unexplained_p99_us",
            pct_us(&bd.unexplained_ns, 99.0),
            "us",
        );
        p.put(
            "stage.joined_frac",
            ratio(bd.joined as f64, bd.traced as f64),
            "ratio",
        );
        println!(
            "  traced node: ops_per_s={:.1}; {} ops, {} joined to program spans, {} program spans, {} layer spans, {} dropped",
            ops_per_s(&tn.w.tally, secs),
            bd.traced,
            bd.joined,
            tr.ring.len(),
            tr.layer_spans.len(),
            tr.spans_dropped,
        );
        println!("  mean self time per request (us), by command:");
        for (cmd, (n, lat, st, unexplained)) in &bd.per_cmd {
            let n = *n as f64;
            let parts: Vec<String> = st
                .iter()
                .map(|(s, ns)| format!("{s:?}={:.1}", *ns as f64 / n / 1e3))
                .collect();
            println!(
                "    {cmd:<5} n={n:<7} latency={:.1} {} unexplained={:.1}",
                *lat as f64 / n / 1e3,
                parts.join(" "),
                *unexplained as f64 / n / 1e3
            );
        }
        let mut by_op: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for s in &tr.layer_spans {
            let e = by_op.entry(format!("{:?}", s.op)).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += s.bytes;
        }
        println!("  layer calls in the traced window (benchmark spans):");
        for (op, (n, ns, bytes)) in by_op {
            println!(
                "    {op:<8} n={n:<7} mean={:.1}us bytes={:.1}MiB",
                ns as f64 / n as f64 / 1e3,
                bytes as f64 / MIB as f64
            );
        }
    }

    for (n, v, u) in &p.0 {
        println!("    {n} = {v} {u}");
    }
    let valid = invalid.is_empty() && failed == 0;
    let metrics = match (valid, args.trace) {
        (false, _) => Metrics::default(),
        (true, true) => p,
        (true, false) => m,
    };
    println!(
        "{{\"correct\": {valid}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.to_json()
    );
    Ok(valid)
}
