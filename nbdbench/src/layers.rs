//! Timing wrappers the benchmark hands to `Volume::create`/`open` for the
//! two boundaries below the volume: the cache device (`BlockDevice`) and
//! the backend (`ObjectStore`). They count ops, bytes, busy time and peak
//! concurrency with atomics; while a [`Tracer`] is enabled they also
//! record one span per call.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use blkdev::BlockDevice;
use bytes::Bytes;
use objstore::ObjectStore;

/// The cache superblock occupies the first 4 KiB of the cache device.
pub const CACHE_SB_BYTES: u64 = 4096;

/// Counters for one kind of call.
#[derive(Default)]
pub struct OpStat {
    ops: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
    inflight: AtomicU64,
    max_inflight: AtomicU64,
}

/// A point-in-time copy of an [`OpStat`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OpSnap {
    pub ops: u64,
    pub bytes: u64,
    pub busy_ns: u64,
    pub max_inflight: u64,
}

impl OpSnap {
    /// Counter growth since `start` (peak concurrency is a gauge over
    /// the interval and is taken as is).
    pub fn since(&self, start: &OpSnap) -> OpSnap {
        OpSnap {
            ops: self.ops - start.ops,
            bytes: self.bytes - start.bytes,
            busy_ns: self.busy_ns - start.busy_ns,
            max_inflight: self.max_inflight,
        }
    }
}

impl OpStat {
    fn enter(&self) -> Instant {
        let now = self.inflight.fetch_add(1, Relaxed) + 1;
        self.max_inflight.fetch_max(now, Relaxed);
        Instant::now()
    }

    fn leave(&self, t0: Instant, bytes: u64) -> u64 {
        let ns = t0.elapsed().as_nanos() as u64;
        self.inflight.fetch_sub(1, Relaxed);
        self.ops.fetch_add(1, Relaxed);
        self.bytes.fetch_add(bytes, Relaxed);
        self.busy_ns.fetch_add(ns, Relaxed);
        ns
    }

    pub fn snap(&self) -> OpSnap {
        OpSnap {
            ops: self.ops.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            busy_ns: self.busy_ns.load(Relaxed),
            max_inflight: self.max_inflight.load(Relaxed),
        }
    }

    /// Restarts the peak-concurrency gauge from the current level.
    pub fn reset_peak(&self) {
        self.max_inflight
            .store(self.inflight.load(Relaxed), Relaxed);
    }
}

/// What a layer span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerOp {
    DevRead,
    DevWrite,
    DevFlush,
    Put,
    Get,
    Meta,
    Delete,
}

/// One call into a wrapped layer, on the [`Tracer`]'s clock.
#[derive(Debug, Clone, Copy)]
pub struct LayerSpan {
    pub op: LayerOp,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
}

/// The benchmark's span sink: off until enabled, in memory until the run
/// ends.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<LayerSpan>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    fn record(&self, op: LayerOp, t0: Instant, ns: u64, bytes: u64) {
        if !self.enabled() {
            return;
        }
        let start_ns = t0.duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .lock()
            .expect("span log poisoned")
            .push(LayerSpan {
                op,
                start_ns,
                end_ns: start_ns + ns,
                bytes,
            });
    }

    pub fn take(&self) -> Vec<LayerSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Where on the cache device an access lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    Superblock,
    Wlog,
    Rcache,
}

/// Cache-device counters, split by region.
#[derive(Default)]
pub struct DevStats {
    pub wlog_write: OpStat,
    pub rcache_write: OpStat,
    pub sb_write: OpStat,
    pub wlog_read: OpStat,
    pub rcache_read: OpStat,
    pub sb_read: OpStat,
    pub flush: OpStat,
}

/// `BlockDevice` wrapper with per-region accounting.
pub struct TimedDisk {
    inner: Arc<dyn BlockDevice>,
    /// Read-cache region `[start, end)` in bytes, set once the volume has
    /// laid out the device; until then everything past the superblock
    /// counts as write log.
    rc_start: AtomicU64,
    rc_end: AtomicU64,
    pub stats: DevStats,
    tracer: Arc<Tracer>,
}

impl TimedDisk {
    pub fn new(inner: Arc<dyn BlockDevice>, tracer: Arc<Tracer>) -> TimedDisk {
        TimedDisk {
            inner,
            rc_start: AtomicU64::new(u64::MAX),
            rc_end: AtomicU64::new(u64::MAX),
            stats: DevStats::default(),
            tracer,
        }
    }

    /// Sets the read-cache region from `Volume::read_cache_region()`
    /// (sector bounds).
    pub fn set_rcache_region(&self, (start, end): (u64, u64)) {
        self.rc_start.store(start * 512, Relaxed);
        self.rc_end.store(end * 512, Relaxed);
    }

    pub fn classify(&self, offset: u64) -> Region {
        if offset < CACHE_SB_BYTES {
            Region::Superblock
        } else if offset >= self.rc_start.load(Relaxed) && offset < self.rc_end.load(Relaxed) {
            Region::Rcache
        } else {
            Region::Wlog
        }
    }
}

impl BlockDevice for TimedDisk {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> blkdev::Result<()> {
        let stat = match self.classify(offset) {
            Region::Superblock => &self.stats.sb_read,
            Region::Wlog => &self.stats.wlog_read,
            Region::Rcache => &self.stats.rcache_read,
        };
        let t0 = stat.enter();
        let r = self.inner.read_at(offset, buf);
        let ns = stat.leave(t0, buf.len() as u64);
        self.tracer
            .record(LayerOp::DevRead, t0, ns, buf.len() as u64);
        r
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> blkdev::Result<()> {
        let stat = match self.classify(offset) {
            Region::Superblock => &self.stats.sb_write,
            Region::Wlog => &self.stats.wlog_write,
            Region::Rcache => &self.stats.rcache_write,
        };
        let t0 = stat.enter();
        let r = self.inner.write_at(offset, data);
        let ns = stat.leave(t0, data.len() as u64);
        self.tracer
            .record(LayerOp::DevWrite, t0, ns, data.len() as u64);
        r
    }

    fn flush(&self) -> blkdev::Result<()> {
        let t0 = self.stats.flush.enter();
        let r = self.inner.flush();
        let ns = self.stats.flush.leave(t0, 0);
        self.tracer.record(LayerOp::DevFlush, t0, ns, 0);
        r
    }
}

/// Object-store counters. Checkpoint PUTs (keys containing `.ckpt.`) are
/// kept apart from data and GC PUTs.
#[derive(Default)]
pub struct StoreStats {
    pub put: OpStat,
    pub put_ckpt: OpStat,
    pub get: OpStat,
    pub meta: OpStat,
    pub delete: OpStat,
    pub failed: AtomicU64,
}

/// Whether an object key names a map checkpoint.
pub fn is_checkpoint_key(name: &str) -> bool {
    name.contains(".ckpt.")
}

/// `ObjectStore` wrapper with per-operation accounting.
pub struct TimedStore {
    inner: Arc<dyn ObjectStore>,
    pub stats: StoreStats,
    tracer: Arc<Tracer>,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn ObjectStore>, tracer: Arc<Tracer>) -> TimedStore {
        TimedStore {
            inner,
            stats: StoreStats::default(),
            tracer,
        }
    }

    fn timed<T>(
        &self,
        stat: &OpStat,
        op: LayerOp,
        bytes: impl Fn(&T) -> u64,
        f: impl FnOnce() -> objstore::Result<T>,
    ) -> objstore::Result<T> {
        let t0 = stat.enter();
        let r = f();
        let n = r.as_ref().map_or(0, &bytes);
        let ns = stat.leave(t0, n);
        if r.is_err() {
            self.stats.failed.fetch_add(1, Relaxed);
        }
        self.tracer.record(op, t0, ns, n);
        r
    }
}

impl ObjectStore for TimedStore {
    fn put(&self, name: &str, data: Bytes) -> objstore::Result<()> {
        let stat = if is_checkpoint_key(name) {
            &self.stats.put_ckpt
        } else {
            &self.stats.put
        };
        let len = data.len() as u64;
        self.timed(stat, LayerOp::Put, |_| len, || self.inner.put(name, data))
    }

    fn get(&self, name: &str) -> objstore::Result<Bytes> {
        self.timed(
            &self.stats.get,
            LayerOp::Get,
            |b: &Bytes| b.len() as u64,
            || self.inner.get(name),
        )
    }

    fn get_range(&self, name: &str, offset: u64, len: u64) -> objstore::Result<Bytes> {
        self.timed(
            &self.stats.get,
            LayerOp::Get,
            |b: &Bytes| b.len() as u64,
            || self.inner.get_range(name, offset, len),
        )
    }

    fn head(&self, name: &str) -> objstore::Result<u64> {
        self.timed(
            &self.stats.meta,
            LayerOp::Meta,
            |_| 0,
            || self.inner.head(name),
        )
    }

    fn delete(&self, name: &str) -> objstore::Result<()> {
        self.timed(
            &self.stats.delete,
            LayerOp::Delete,
            |_| 0,
            || self.inner.delete(name),
        )
    }

    fn list(&self, prefix: &str) -> objstore::Result<Vec<String>> {
        self.timed(
            &self.stats.meta,
            LayerOp::Meta,
            |_| 0,
            || self.inner.list(prefix),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blkdev::RamDisk;
    use objstore::MemStore;

    fn tracer() -> Arc<Tracer> {
        Arc::new(Tracer::new(Instant::now()))
    }

    #[test]
    fn classifier_buckets_superblock_wlog_and_rcache() {
        let d = TimedDisk::new(Arc::new(RamDisk::new(1 << 20)), tracer());
        // Before the layout is known, everything past the superblock is
        // write log.
        assert_eq!(d.classify(0), Region::Superblock);
        assert_eq!(d.classify(CACHE_SB_BYTES), Region::Wlog);
        assert_eq!(d.classify(900 << 10), Region::Wlog);
        // Read cache at sectors [1024, 2048) = bytes [512 KiB, 1 MiB).
        d.set_rcache_region((1024, 2048));
        assert_eq!(d.classify(0), Region::Superblock);
        assert_eq!(d.classify(CACHE_SB_BYTES - 1), Region::Superblock);
        assert_eq!(d.classify(CACHE_SB_BYTES), Region::Wlog);
        assert_eq!(d.classify((512 << 10) - 512), Region::Wlog);
        assert_eq!(d.classify(512 << 10), Region::Rcache);
        assert_eq!(d.classify((1 << 20) - 512), Region::Rcache);

        d.write_at(0, &[1; 512]).unwrap();
        d.write_at(8192, &[1; 4096]).unwrap();
        d.write_at(512 << 10, &[1; 1024]).unwrap();
        let mut buf = [0u8; 512];
        d.read_at(600 << 10, &mut buf).unwrap();
        d.flush().unwrap();
        let s = &d.stats;
        assert_eq!(s.sb_write.snap().bytes, 512);
        assert_eq!(s.wlog_write.snap().bytes, 4096);
        assert_eq!(s.rcache_write.snap().bytes, 1024);
        assert_eq!(s.rcache_read.snap().ops, 1);
        assert_eq!(s.flush.snap().ops, 1);
    }

    #[test]
    fn checkpoint_puts_are_kept_apart() {
        let t = tracer();
        t.set_enabled(true);
        let s = TimedStore::new(Arc::new(MemStore::new()), t.clone());
        s.put("vol.00000001", Bytes::from(vec![0u8; 100])).unwrap();
        s.put("vol.ckpt.00000001", Bytes::from(vec![0u8; 40]))
            .unwrap();
        s.put("vol.super", Bytes::from(vec![0u8; 8])).unwrap();
        assert_eq!(s.get_range("vol.00000001", 10, 20).unwrap().len(), 20);
        assert!(s.get("missing").is_err());
        assert_eq!(s.stats.put.snap().ops, 2);
        assert_eq!(s.stats.put.snap().bytes, 108);
        assert_eq!(s.stats.put_ckpt.snap().ops, 1);
        assert_eq!(s.stats.put_ckpt.snap().bytes, 40);
        assert_eq!(s.stats.get.snap().ops, 2);
        assert_eq!(s.stats.get.snap().bytes, 20);
        assert_eq!(s.stats.failed.load(Relaxed), 1);
        assert_eq!(t.take().len(), 5);
        assert!(is_checkpoint_key("disk0.ckpt.00000040"));
        assert!(!is_checkpoint_key("disk0.00000040"));
    }
}
