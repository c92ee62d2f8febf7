//! The concurrent read plane: lock-split cache-hit reads, single-flight
//! miss fetch, and scan-resistant admission control.
//!
//! [`Volume`](crate::volume::Volume) is `&mut self` by design, and the
//! serving plane used to funnel every read through the same mutex as every
//! mutation — so "concurrent" NBD read workers all queued behind cache-log
//! appends and writeback bookkeeping. This module splits the state the
//! read path needs (write-back cache map, read cache, object map) out of
//! the volume into a [`ReadPlane`] behind a `RwLock`:
//!
//! - **cache-hit reads** take the *shared* lock and run genuinely in
//!   parallel — with each other and with everything the volume does that
//!   doesn't mutate maps (socket I/O, batch sealing, backend PUTs);
//!   [`ReadPlane::try_read_local`] is the same hit path for a caller
//!   that must never block (the NBD reactor): it declines, uncounted,
//!   when the lock is contended or any byte lives only in the backend;
//! - **mutations** (write placements, trims, writeback apply, GC) take the
//!   *exclusive* lock for the short map-update critical sections only,
//!   never across device or network I/O;
//! - **miss fetches** run with no lock held at all. Concurrent misses on
//!   the same backend object are *single-flighted*: the first reader
//!   issues the ranged GET, later readers park on the in-flight fetch and
//!   share its window (§3.2's temporal prefetch makes windows wide, so
//!   sharing pays). Cache insertion afterwards revalidates liveness
//!   against the current object map under the write lock — the same
//!   stale-insert discipline the serial path used;
//! - **sequential scans** are detected per-stream and bypass read-cache
//!   admission (ECI-Cache's pollution problem): a scan fetches and serves
//!   its data but does not evict the hot set.
//!
//! Lock-ordering rules (deadlock freedom): `state` is never held across a
//! backend call; `inflight`/`streams`/`hdr` are leaf mutexes never held
//! while acquiring `state`; a fetch leader publishes its slot *after*
//! releasing every lock.
//!
//! Why readers can hold the shared lock across device reads: the write
//! log only reuses released sectors after the corresponding map removal
//! (which needs the exclusive lock, so it drains readers first), and the
//! read cache only physically reuses evicted space from `insert` (also
//! exclusive). A resolved pLBA therefore stays valid for as long as the
//! shared guard is held — the same invariant the old single-threaded path
//! got for free, now enforced by the lock instead of by `&mut`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use blkdev::BlockDevice;
use bytes::Bytes;
use objstore::ObjectStore;
use parking_lot::{Condvar, Mutex, RwLock};
use telemetry::{LatencyRecorder, SpanRing, Stage};

use crate::config::VolumeConfig;
use crate::crc::{crc32c, crc32c_combine};
use crate::extent_map::{ExtentMap, Segment};
use crate::objfmt::Superblock;
use crate::objmap::{ObjLoc, ObjectMap};
use crate::rcache::ReadCache;
use crate::recovery::fetch_header;
use crate::types::{object_name, Lba, LsvdError, ObjSeq, Plba, Result, SECTOR};
use crate::writeback::WritebackPool;

/// Minimum bytes per scattered GET; below 2× this, one GET wins.
const SCATTER_CHUNK: u64 = 128 << 10;

/// How many independent sequential streams the scan detector tracks.
const STREAM_SLOTS: usize = 8;

/// Attempts per miss piece: the original resolution plus one re-resolve.
/// A fetch can lose a benign race with GC (the resolved object was
/// collected and deleted between resolve and GET); re-resolving under a
/// fresh guard finds the relocated data. A second failure is a real error.
const FETCH_ATTEMPTS: u32 = 2;

/// A cached backend object header: where the data area starts, the
/// extent list, and the per-extent payload CRCs recorded at seal time
/// (format v2).
pub(crate) struct HdrEntry {
    pub(crate) hdr_sectors: u64,
    pub(crate) extents: Vec<(Lba, u32)>,
    pub(crate) crcs: Vec<u32>,
}

impl HdrEntry {
    /// Length of the object's data area in sectors.
    fn data_sectors(&self) -> u64 {
        self.extents.iter().map(|&(_, l)| l as u64).sum()
    }
}

/// The map state served under the plane's `RwLock`.
pub(crate) struct ReadState {
    /// vLBA → cache-SSD pLBA for data still in the write-back log.
    pub(crate) wcache_map: ExtentMap<Plba>,
    /// The SSD read cache (§3.1).
    pub(crate) rcache: ReadCache,
    /// vLBA → backend object locations.
    pub(crate) objmap: ObjectMap,
}

/// LRU cache of backend object headers, keyed by sequence.
///
/// Replaces the old 512-entry FIFO: under mixed workloads FIFO evicted
/// the headers hot random reads re-consult on every miss while retaining
/// ones a scan touched once. Recency is a monotonic tick bumped per hit;
/// eviction scans for the minimum — O(capacity), but only on insert past
/// capacity, which is always adjacent to a header GET (milliseconds).
struct HdrCache {
    map: HashMap<ObjSeq, HdrSlot>,
    cap: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct HdrSlot {
    entry: Arc<HdrEntry>,
    last_used: u64,
}

impl HdrCache {
    fn new(cap: usize) -> Self {
        HdrCache {
            map: HashMap::new(),
            cap: cap.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, seq: ObjSeq) -> Option<Arc<HdrEntry>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&seq) {
            Some(slot) => {
                slot.last_used = tick;
                self.hits += 1;
                Some(slot.entry.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, seq: ObjSeq, entry: Arc<HdrEntry>) {
        if !self.map.contains_key(&seq) && self.map.len() >= self.cap {
            if let Some(&victim) = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(seq, _)| seq)
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.tick += 1;
        self.map.insert(
            seq,
            HdrSlot {
                entry,
                last_used: self.tick,
            },
        );
    }
}

/// One in-flight backend fetch other readers can park on.
struct FetchSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
    /// Span id of the leader's `fetch_lead` span, so waiters can record
    /// *which* fetch they joined. 0 when the leader's read is untraced
    /// or a waiter races the leader's store — a benign "unknown leader".
    leader_span: AtomicU64,
}

#[derive(Default)]
struct SlotState {
    done: bool,
    /// `(window start sector, window length in sectors, window bytes)` on
    /// success; `None` when the leader's fetch failed (waiters re-try on
    /// their own so each surfaces a precise error).
    window: Option<(u64, u64, Bytes)>,
}

impl FetchSlot {
    fn new() -> Self {
        FetchSlot {
            state: Mutex::new(SlotState::default()),
            cv: Condvar::new(),
            leader_span: AtomicU64::new(0),
        }
    }

    fn publish(&self, window: Option<(u64, u64, Bytes)>) {
        let mut st = self.state.lock();
        st.done = true;
        st.window = window;
        drop(st);
        self.cv.notify_all();
    }

    fn wait(&self) -> Option<(u64, u64, Bytes)> {
        let mut st = self.state.lock();
        while !st.done {
            self.cv.wait(&mut st);
        }
        st.window.clone()
    }
}

/// Per-stream sequential-run detector for scan-resistant admission.
///
/// A fixed table of `(next expected LBA, run length)` slots: a read that
/// continues a tracked stream extends its run; anything else claims the
/// least-recently-touched slot. Once a stream's run passes the configured
/// threshold its fetches stop being admitted to the read cache — the scan
/// still gets its data (and its prefetch window), it just cannot evict
/// the hot set to cache bytes it will never touch again (ECI-Cache).
struct StreamTable {
    slots: [StreamSlot; STREAM_SLOTS],
    tick: u64,
}

#[derive(Clone, Copy, Default)]
struct StreamSlot {
    next: Lba,
    run: u64,
    touched: u64,
}

impl StreamTable {
    fn new() -> Self {
        StreamTable {
            slots: [StreamSlot::default(); STREAM_SLOTS],
            tick: 0,
        }
    }

    /// Notes a read and returns the length (sectors) of the sequential
    /// run it belongs to, including itself.
    fn note(&mut self, lba: Lba, sectors: u64) -> u64 {
        self.tick += 1;
        let tick = self.tick;
        for slot in self.slots.iter_mut() {
            if slot.run > 0 && slot.next == lba {
                slot.run += sectors;
                slot.next = lba + sectors;
                slot.touched = tick;
                return slot.run;
            }
        }
        let victim = self
            .slots
            .iter_mut()
            .min_by_key(|s| s.touched)
            .expect("table is non-empty");
        *victim = StreamSlot {
            next: lba + sectors,
            run: sectors,
            touched: tick,
        };
        sectors
    }
}

/// Atomic observability counters for the plane. All relaxed: they are
/// monotone statistics, never synchronization.
#[derive(Default)]
pub(crate) struct PlaneCounters {
    pub reads: AtomicU64,
    pub read_bytes: AtomicU64,
    /// Reads served entirely from local state (caches, zeros).
    pub hit_reads: AtomicU64,
    /// Reads that needed at least one backend fetch.
    pub miss_reads: AtomicU64,
    pub backend_gets: AtomicU64,
    pub backend_get_bytes: AtomicU64,
    pub scatter_gets: AtomicU64,
    /// Sectors entered into the read cache by miss fetches.
    pub admitted_sectors: AtomicU64,
    /// Sectors a detected scan kept *out* of the read cache.
    pub bypassed_sectors: AtomicU64,
    /// Sectors the tenant byte quota kept out of the read cache.
    pub quota_bypassed_sectors: AtomicU64,
    /// Fetches that parked on another reader's in-flight GET.
    pub singleflight_waits: AtomicU64,
    /// Parked fetches fully served from the leader's window (GETs saved).
    pub singleflight_shared: AtomicU64,
    pub crc_combine_ops: AtomicU64,
    pub get_verified_bytes: AtomicU64,
    /// Reads currently inside the plane.
    pub concurrent_readers: AtomicU64,
    /// High-water mark of `concurrent_readers`.
    pub peak_concurrent_readers: AtomicU64,
    /// Shared-lock acquisitions (the hit path).
    pub shared_lock_acqs: AtomicU64,
    /// Exclusive-lock acquisitions (mutations + miss inserts).
    pub excl_lock_acqs: AtomicU64,
}

/// A snapshot of [`PlaneCounters`] plus the lock-wait recorders, consumed
/// by `Volume::telemetry`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadPlaneStats {
    pub reads: u64,
    pub read_bytes: u64,
    pub hit_reads: u64,
    pub miss_reads: u64,
    pub backend_gets: u64,
    pub backend_get_bytes: u64,
    pub scatter_gets: u64,
    pub admitted_sectors: u64,
    pub bypassed_sectors: u64,
    pub quota_bypassed_sectors: u64,
    pub singleflight_waits: u64,
    pub singleflight_shared: u64,
    pub crc_combine_ops: u64,
    pub get_verified_bytes: u64,
    pub concurrent_readers: u64,
    pub peak_concurrent_readers: u64,
    pub shared_lock_acqs: u64,
    pub excl_lock_acqs: u64,
    pub hdr_hits: u64,
    pub hdr_misses: u64,
    pub hdr_evictions: u64,
}

/// One unresolved piece of a read: `[start, start+len)` mapped to `loc`
/// in the backend at resolve time.
struct MissPiece {
    start: Lba,
    len: u64,
    loc: ObjLoc,
}

/// Where one piece `[start, start+len)` of a read is served from, as
/// resolved under a shared guard.
enum Piece {
    /// Write-back cache: log sectors on the cache device at `plba`.
    Wlog { start: Lba, len: u64, plba: Plba },
    /// Read cache at `plba`.
    Cached { start: Lba, len: u64, plba: Plba },
    /// Never written: zeros.
    Zero { start: Lba, len: u64 },
    /// Backend object: needs a fetch.
    Backend(MissPiece),
}

/// Decrements the read-concurrency gauge on scope exit.
struct GaugeGuard<'a>(&'a AtomicU64);

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The shared read plane of one volume. See the module docs.
pub struct ReadPlane {
    dev: Arc<dyn BlockDevice>,
    store: Arc<dyn ObjectStore>,
    /// Immutable volume identity (object naming, ancestry streams).
    sb: Superblock,
    size_sectors: u64,
    prefetch_bytes: u64,
    verify_get_crc: bool,
    /// Sequential-run threshold (sectors) past which fetches bypass
    /// read-cache admission; 0 disables admission control.
    scan_bypass_sectors: u64,
    /// Tenant byte quota for the read cache, in sectors; 0 = unlimited.
    /// On a fleet node every tenant's SSD cache competes for shared
    /// backend bandwidth, so admission stops (fetches still serve, they
    /// just bypass the cache) once this volume's resident footprint
    /// reaches its allocation — ECI-Cache-style partitioning. Adjustable
    /// at runtime by the fleet rebalancer.
    cache_quota_sectors: AtomicU64,
    /// Writeback pool handle for scatter-gather prefetch GETs; `None` in
    /// serial mode.
    pool: Option<Arc<WritebackPool>>,
    state: RwLock<ReadState>,
    hdr: Mutex<HdrCache>,
    inflight: Mutex<HashMap<ObjSeq, Arc<FetchSlot>>>,
    streams: Mutex<StreamTable>,
    counters: PlaneCounters,
    /// The volume's request-span ring, shared so traced reads record
    /// their `read` / `fetch_lead` / `fetch_join` hops.
    spans: Arc<SpanRing>,
    /// Client read latency (whole-op, including fetches).
    pub(crate) read_lat: LatencyRecorder,
    /// Time spent acquiring the shared lock.
    pub(crate) shared_lock_wait: LatencyRecorder,
    /// Time spent acquiring the exclusive lock.
    pub(crate) excl_lock_wait: LatencyRecorder,
}

impl ReadPlane {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        dev: Arc<dyn BlockDevice>,
        store: Arc<dyn ObjectStore>,
        sb: Superblock,
        cfg: &VolumeConfig,
        rcache: ReadCache,
        objmap: ObjectMap,
        pool: Option<Arc<WritebackPool>>,
        spans: Arc<SpanRing>,
    ) -> ReadPlane {
        ReadPlane {
            size_sectors: sb.size_bytes / SECTOR,
            dev,
            store,
            sb,
            prefetch_bytes: cfg.prefetch_bytes,
            verify_get_crc: cfg.verify_get_crc,
            scan_bypass_sectors: cfg.scan_bypass_bytes / SECTOR,
            cache_quota_sectors: AtomicU64::new(cfg.cache_quota_bytes / SECTOR),
            pool,
            state: RwLock::new(ReadState {
                wcache_map: ExtentMap::new(),
                rcache,
                objmap,
            }),
            hdr: Mutex::new(HdrCache::new(cfg.hdr_cache_entries)),
            inflight: Mutex::new(HashMap::new()),
            streams: Mutex::new(StreamTable::new()),
            counters: PlaneCounters::default(),
            spans,
            read_lat: LatencyRecorder::new(),
            shared_lock_wait: LatencyRecorder::new(),
            excl_lock_wait: LatencyRecorder::new(),
        }
    }

    // ------------------------------------------------------------------
    // Tenant cache quota (fleet partitioning)
    // ------------------------------------------------------------------

    /// Sets this volume's read-cache byte quota (rounded down to whole
    /// sectors; 0 = unlimited). Takes effect on the next admission.
    pub fn set_cache_quota_bytes(&self, bytes: u64) {
        self.cache_quota_sectors
            .store(bytes / SECTOR, Ordering::Relaxed);
    }

    /// The current read-cache byte quota (0 = unlimited).
    pub fn cache_quota_bytes(&self) -> u64 {
        self.cache_quota_sectors.load(Ordering::Relaxed) * SECTOR
    }

    /// Bytes currently resident in this volume's read cache.
    pub fn cache_resident_bytes(&self) -> u64 {
        let s = self.read_state().rcache.stats();
        s.inserted_sectors.saturating_sub(s.evicted_sectors) * SECTOR
    }

    /// Read-cache hit sectors so far (the fleet rebalancer's hit-density
    /// numerator).
    pub fn cache_hit_sectors(&self) -> u64 {
        self.read_state().rcache.stats().hit_sectors
    }

    // ------------------------------------------------------------------
    // Lock plumbing (used by Volume for every map mutation)
    // ------------------------------------------------------------------

    /// Acquires the shared state lock, recording the wait.
    pub(crate) fn read_state(&self) -> parking_lot::RwLockReadGuard<'_, ReadState> {
        let t0 = Instant::now();
        let g = self.state.read();
        self.shared_lock_wait.observe(t0.elapsed());
        self.counters
            .shared_lock_acqs
            .fetch_add(1, Ordering::Relaxed);
        g
    }

    /// Takes the shared state lock only if that cannot block.
    fn try_read_state(&self) -> Option<parking_lot::RwLockReadGuard<'_, ReadState>> {
        let t0 = Instant::now();
        let g = self.state.try_read()?;
        self.shared_lock_wait.observe(t0.elapsed());
        self.counters
            .shared_lock_acqs
            .fetch_add(1, Ordering::Relaxed);
        Some(g)
    }

    /// Acquires the exclusive state lock, recording the wait.
    pub(crate) fn write_state(&self) -> parking_lot::RwLockWriteGuard<'_, ReadState> {
        let t0 = Instant::now();
        let g = self.state.write();
        self.excl_lock_wait.observe(t0.elapsed());
        self.counters.excl_lock_acqs.fetch_add(1, Ordering::Relaxed);
        g
    }

    // ------------------------------------------------------------------
    // The read path
    // ------------------------------------------------------------------

    fn check_access(&self, offset: u64, len: usize) -> Result<(Lba, u64)> {
        let len = len as u64;
        if !offset.is_multiple_of(SECTOR) || !len.is_multiple_of(SECTOR) {
            return Err(LsvdError::InvalidAccess {
                offset,
                len,
                reason: "offset and length must be 512-byte aligned",
            });
        }
        if offset + len > self.size_sectors * SECTOR {
            return Err(LsvdError::InvalidAccess {
                offset,
                len,
                reason: "beyond end of volume",
            });
        }
        Ok((offset / SECTOR, len / SECTOR))
    }

    /// Reads into `buf` from byte `offset`: write-back cache, then read
    /// cache, then backend; unwritten ranges read as zeros (Figure 1).
    /// Hits run entirely under the shared lock; fetches run with no lock.
    pub fn read_into(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.read_into_traced(offset, buf, 0, 0)
    }

    /// [`ReadPlane::read_into`] on behalf of request `req` (0 = untraced):
    /// records a `read` span covering the whole operation, with any
    /// single-flight `fetch_lead`/`fetch_join` hops parented under it.
    pub fn read_into_traced(
        &self,
        offset: u64,
        buf: &mut [u8],
        req: u64,
        parent: u64,
    ) -> Result<()> {
        let span = if req != 0 {
            self.spans.begin(req, parent, Stage::Read)
        } else {
            None
        };
        let res = self.read_into_ctx(offset, buf, req, span.map_or(0, |s| s.id));
        if let Some(open) = span {
            self.spans.finish(open, offset / SECTOR, buf.len() as u64);
        }
        res
    }

    /// Counts a read entering the plane and notes it with the scan
    /// detector. Returns the concurrency gauge (held for the read's
    /// duration) and whether the read's stream bypasses admission.
    fn enter_read(&self, lba: Lba, sectors: u64) -> (GaugeGuard<'_>, bool) {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.counters
            .read_bytes
            .fetch_add(sectors * SECTOR, Ordering::Relaxed);
        let cur = self
            .counters
            .concurrent_readers
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        self.counters
            .peak_concurrent_readers
            .fetch_max(cur, Ordering::Relaxed);
        let gauge = GaugeGuard(&self.counters.concurrent_readers);
        let run = self.streams.lock().note(lba, sectors);
        let bypass = self.scan_bypass_sectors > 0 && run >= self.scan_bypass_sectors;
        (gauge, bypass)
    }

    /// Serves `len` bytes at `offset` only if that needs neither a wait
    /// nor the backend: the shared lock is taken with `try_read`, and
    /// every piece must resolve to the write-back cache, the read cache
    /// or a hole. Only then is `admit` asked (still under the guard)
    /// whether the read may run here; the read is served under the same
    /// guard, so what was resolved is what is served. `None` (lock
    /// contended, some piece maps to a backend object, or `admit`
    /// refused) leaves the read counters, the scan detector and the
    /// spans untouched — only the lock statistics see the attempt — so
    /// the caller can hand the read to the blocking path, which then
    /// counts it once. A `Some` read is accounted exactly like a hit
    /// through [`ReadPlane::read_into_traced`], including its `read` span
    /// under `parent`; an invalid range is `Some(Err)` once admitted.
    pub fn try_read_local(
        &self,
        offset: u64,
        len: usize,
        req: u64,
        parent: u64,
        admit: impl FnOnce() -> bool,
    ) -> Option<Result<Bytes>> {
        let (lba, sectors) = match self.check_access(offset, len) {
            Ok(r) => r,
            Err(e) => return admit().then_some(Err(e)),
        };
        if len == 0 {
            return admit().then(|| Ok(Bytes::new()));
        }
        let st = self.try_read_state()?;
        let pieces = Self::resolve(&st, lba, sectors);
        if pieces.iter().any(|p| matches!(p, Piece::Backend(_))) || !admit() {
            return None;
        }
        // The span shares the latency sample's two clock readings.
        let t0 = Instant::now();
        let span = if req != 0 {
            self.spans.begin_at(req, parent, Stage::Read, t0)
        } else {
            None
        };
        let (_gauge, _) = self.enter_read(lba, sectors);
        let mut buf = vec![0u8; len];
        let res = self.serve(&st, lba, pieces, &mut buf);
        drop(st);
        let t1 = Instant::now();
        if res.is_ok() {
            self.counters.hit_reads.fetch_add(1, Ordering::Relaxed);
            self.read_lat.observe(t1 - t0);
        }
        if let Some(open) = span {
            self.spans.finish_at(open, t1, lba, len as u64);
        }
        Some(res.map(|_| Bytes::from(buf)))
    }

    fn read_into_ctx(&self, offset: u64, buf: &mut [u8], req: u64, parent: u64) -> Result<()> {
        let (lba, sectors) = self.check_access(offset, buf.len())?;
        if buf.is_empty() {
            return Ok(());
        }
        let (_gauge, bypass) = self.enter_read(lba, sectors);

        let t0 = Instant::now();
        // Worklist of `(start, len, attempt)` subranges still to serve.
        // Every range is first resolved under a shared guard (hits served,
        // holes zeroed); residual backend pieces are fetched lock-free one
        // at a time, re-resolving the rest afterwards so one fetch's
        // prefetch window serves its neighbours from the cache.
        let mut fetched_any = false;
        let mut work: Vec<(Lba, u64, u32)> = vec![(lba, sectors, 1)];
        while let Some((s, l, attempt)) = work.pop() {
            let misses = {
                let st = self.read_state();
                let pieces = Self::resolve(&st, s, l);
                self.serve(&st, lba, pieces, buf)?
            };
            let Some((first, rest)) = misses.split_first() else {
                continue;
            };
            fetched_any = true;
            // Re-resolve the trailing pieces after this fetch lands.
            for m in rest.iter().rev() {
                work.push((m.start, m.len, 1));
            }
            match self.fetch_piece(first, bypass, req, parent) {
                Ok(data) => {
                    let b = ((first.start - lba) * SECTOR) as usize;
                    let e = b + (first.len * SECTOR) as usize;
                    buf[b..e].copy_from_slice(&data[..(first.len * SECTOR) as usize]);
                }
                Err(e) if attempt < FETCH_ATTEMPTS && self.piece_moved(first) => {
                    // Lost a race with GC relocation: the mapping we
                    // resolved points elsewhere now (or back into a cache).
                    // Re-resolve under a fresh guard; the relocated data
                    // serves the retry. A fault at an *unchanged* mapping
                    // propagates instead — the data path does not retry
                    // transient backend errors (layer a `RetryStore` for
                    // that).
                    let _ = e;
                    work.push((first.start, first.len, attempt + 1));
                }
                Err(e) => return Err(e),
            }
        }
        if fetched_any {
            self.counters.miss_reads.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.hit_reads.fetch_add(1, Ordering::Relaxed);
        }
        self.read_lat.observe(t0.elapsed());
        Ok(())
    }

    /// Reads `len` bytes at `offset` into a freshly allocated [`Bytes`].
    /// The serving plane hands this buffer straight to the socket writer:
    /// one allocation, no intermediate `copy_from_slice` into a caller
    /// buffer.
    pub fn read_bytes(&self, offset: u64, len: usize) -> Result<Bytes> {
        let mut buf = vec![0u8; len];
        self.read_into(offset, &mut buf)?;
        Ok(Bytes::from(buf))
    }

    /// [`ReadPlane::read_bytes`] on behalf of request `req` (0 =
    /// untraced).
    pub fn read_bytes_traced(
        &self,
        offset: u64,
        len: usize,
        req: u64,
        parent: u64,
    ) -> Result<Bytes> {
        let mut buf = vec![0u8; len];
        self.read_into_traced(offset, &mut buf, req, parent)?;
        Ok(Bytes::from(buf))
    }

    /// Resolves `[start, start+len)` against the caller's shared guard:
    /// write-back cache first, then read cache, then the object map.
    /// Pure — no counter moves — so a caller may resolve, look, and walk
    /// away.
    fn resolve(st: &ReadState, start: Lba, len: u64) -> Vec<Piece> {
        let mut pieces = Vec::new();
        for seg in st.wcache_map.resolve(start, len) {
            let (hs, hl) = match seg {
                Segment::Mapped { start, len, val } => {
                    pieces.push(Piece::Wlog {
                        start,
                        len,
                        plba: val,
                    });
                    continue;
                }
                Segment::Hole { start, len } => (start, len),
            };
            for seg in st.rcache.resolve(hs, hl) {
                let (rs, rl) = match seg {
                    Segment::Mapped { start, len, val } => {
                        pieces.push(Piece::Cached {
                            start,
                            len,
                            plba: val,
                        });
                        continue;
                    }
                    Segment::Hole { start, len } => (start, len),
                };
                for seg in st.objmap.resolve(rs, rl) {
                    pieces.push(match seg {
                        Segment::Hole { start, len } => Piece::Zero { start, len },
                        Segment::Mapped { start, len, val } => Piece::Backend(MissPiece {
                            start,
                            len,
                            loc: val,
                        }),
                    });
                }
            }
        }
        pieces
    }

    /// Serves the local `pieces` of the read based at `base` into `buf`
    /// under the same shared guard they were resolved with: cache hits
    /// read from the cache device, holes zeroed. Backend pieces count as
    /// read-cache misses and are returned for lock-free fetch.
    fn serve(
        &self,
        st: &ReadState,
        base: Lba,
        pieces: Vec<Piece>,
        buf: &mut [u8],
    ) -> Result<Vec<MissPiece>> {
        let range = |s: Lba, l: u64| {
            let b = ((s - base) * SECTOR) as usize;
            b..b + (l * SECTOR) as usize
        };
        let mut misses = Vec::new();
        for piece in pieces {
            match piece {
                Piece::Wlog { start, len, plba } => self
                    .dev
                    .read_at(plba * SECTOR, &mut buf[range(start, len)])?,
                Piece::Cached { start, len, plba } => {
                    st.rcache
                        .read_cached(plba, len, &mut buf[range(start, len)])?
                }
                Piece::Zero { start, len } => buf[range(start, len)].fill(0),
                Piece::Backend(m) => {
                    st.rcache.note_miss(m.len);
                    misses.push(m);
                }
            }
        }
        Ok(misses)
    }

    /// Whether `piece`'s resolution has changed since it was produced:
    /// some of its range now lives in the write-back or read cache, or the
    /// object map points it somewhere else. True means a failed fetch was
    /// (or may have been) a benign race with GC relocation and is worth
    /// re-resolving; false means the mapping is unchanged and the fetch
    /// error is real.
    fn piece_moved(&self, piece: &MissPiece) -> bool {
        let st = self.read_state();
        if st
            .wcache_map
            .resolve(piece.start, piece.len)
            .iter()
            .any(|s| matches!(s, Segment::Mapped { .. }))
            || st
                .rcache
                .resolve(piece.start, piece.len)
                .iter()
                .any(|s| matches!(s, Segment::Mapped { .. }))
        {
            return true;
        }
        st.objmap.resolve(piece.start, piece.len).iter().any(|s| {
            !matches!(
                s,
                Segment::Mapped { start, len, val }
                    if *start == piece.start && *len == piece.len
                        && val.seq == piece.loc.seq && val.off == piece.loc.off
            )
        })
    }

    // ------------------------------------------------------------------
    // Miss path: single-flight fetch + admission
    // ------------------------------------------------------------------

    fn resolve_name(&self, seq: ObjSeq) -> String {
        object_name(self.sb.stream_for(seq), seq)
    }

    /// Fetches one backend piece, single-flighted per object: concurrent
    /// misses on the same object share one ranged GET. Returns exactly the
    /// piece's bytes (a zero-copy slice of the fetched window).
    ///
    /// Traced reads (`req != 0`) record a `fetch_lead` span when they
    /// lead the GET and a `fetch_join` span (carrying the leader's span
    /// id) when they park on another reader's fetch.
    fn fetch_piece(&self, piece: &MissPiece, bypass: bool, req: u64, parent: u64) -> Result<Bytes> {
        loop {
            let slot = {
                let mut infl = self.inflight.lock();
                match infl.get(&piece.loc.seq) {
                    Some(slot) => Err(slot.clone()),
                    None => {
                        let slot = Arc::new(FetchSlot::new());
                        infl.insert(piece.loc.seq, slot.clone());
                        Ok(slot)
                    }
                }
            };
            match slot {
                Err(slot) => {
                    // Another reader is fetching this object: park on its
                    // GET and share the window if it covers us.
                    self.counters
                        .singleflight_waits
                        .fetch_add(1, Ordering::Relaxed);
                    let join = if req != 0 {
                        self.spans.begin(req, parent, Stage::FetchJoin)
                    } else {
                        None
                    };
                    let window = slot.wait();
                    if let Some(open) = join {
                        let leader = slot.leader_span.load(Ordering::Relaxed);
                        self.spans.finish(open, piece.loc.seq.into(), leader);
                    }
                    if let Some((win_lo, win_len, data)) = window {
                        let off = piece.loc.off as u64;
                        if off >= win_lo && off + piece.len <= win_lo + win_len {
                            self.counters
                                .singleflight_shared
                                .fetch_add(1, Ordering::Relaxed);
                            let b = ((off - win_lo) * SECTOR) as usize;
                            return Ok(data.slice(b..b + (piece.len * SECTOR) as usize));
                        }
                    }
                    // Not covered (or the leader failed): try again — the
                    // slot is gone, so this iteration likely leads.
                }
                Ok(slot) => {
                    let lead = if req != 0 {
                        self.spans.begin(req, parent, Stage::FetchLead)
                    } else {
                        None
                    };
                    if let Some(open) = &lead {
                        slot.leader_span.store(open.id, Ordering::Relaxed);
                    }
                    let result = self.fetch_window(piece, bypass);
                    self.inflight.lock().remove(&piece.loc.seq);
                    if let Some(open) = lead {
                        self.spans.finish(open, piece.loc.seq.into(), 0);
                    }
                    match result {
                        Ok((win_lo, data)) => {
                            let win_len = (data.len() as u64) / SECTOR;
                            slot.publish(Some((win_lo, win_len, data.clone())));
                            let off = piece.loc.off as u64;
                            let b = ((off - win_lo) * SECTOR) as usize;
                            return Ok(data.slice(b..b + (piece.len * SECTOR) as usize));
                        }
                        Err(e) => {
                            slot.publish(None);
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// The leader's fetch: temporal prefetch window, optional CRC verify,
    /// read-cache admission with liveness revalidation. No lock is held
    /// across the GET; the insert takes the exclusive lock briefly.
    fn fetch_window(&self, piece: &MissPiece, bypass: bool) -> Result<(u64, Bytes)> {
        let seq = piece.loc.seq;
        let off = piece.loc.off as u64;
        let name = self.resolve_name(seq);
        let entry = self.header_extents(seq, &name)?;
        let window = (self.prefetch_bytes / SECTOR).max(piece.len);
        let hi = (off + window)
            .min(entry.data_sectors())
            .max(off + piece.len);
        let (win_lo, data) = self.fetch_span(&name, &entry, off, hi)?;
        self.counters.backend_gets.fetch_add(1, Ordering::Relaxed);
        self.counters
            .backend_get_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        let win_hi = win_lo + data.len() as u64 / SECTOR;
        self.admit_window(&entry, seq, win_lo, win_hi, &data, bypass)?;
        Ok((win_lo, data))
    }

    /// Fetches object sectors `[lo, hi)` of `seq`'s data area with one
    /// ranged GET (scattered over the writeback pool when pipelined) and
    /// returns `(window start sector, bytes)`. With `verify_get_crc` the
    /// window is widened to whole extents and checked against the header
    /// CRCs, so the window may start before `lo`. Nothing is admitted to
    /// the read cache: this is the cleaner's read path, whose data is
    /// about to be rewritten elsewhere.
    pub(crate) fn fetch_object_range(&self, seq: ObjSeq, lo: u64, hi: u64) -> Result<(u64, Bytes)> {
        let name = self.resolve_name(seq);
        let entry = self.header_extents(seq, &name)?;
        self.fetch_span(&name, &entry, lo, hi)
    }

    /// The shared GET behind [`ReadPlane::fetch_window`] and
    /// [`ReadPlane::fetch_object_range`].
    fn fetch_span(&self, name: &str, entry: &HdrEntry, lo: u64, hi: u64) -> Result<(u64, Bytes)> {
        let mut win_lo = lo;
        let mut win_hi = hi;
        let mut expected: Option<u32> = None;
        if self.verify_get_crc {
            // Snap the window outward to whole header extents so the
            // expected checksum folds from the per-extent CRCs the object
            // was sealed with — O(1) combines, no re-reads.
            let mut obj_off = 0u64;
            for (i, &(_, elen)) in entry.extents.iter().enumerate() {
                let e_lo = obj_off;
                let e_hi = obj_off + elen as u64;
                obj_off = e_hi;
                if e_hi <= win_lo {
                    continue;
                }
                if e_lo >= win_hi {
                    break;
                }
                win_lo = win_lo.min(e_lo);
                win_hi = win_hi.max(e_hi);
                expected = Some(match expected {
                    None => entry.crcs[i],
                    Some(acc) => {
                        self.counters
                            .crc_combine_ops
                            .fetch_add(1, Ordering::Relaxed);
                        crc32c_combine(acc, entry.crcs[i], elen as u64 * SECTOR)
                    }
                });
            }
        }
        let byte_off = (entry.hdr_sectors + win_lo) * SECTOR;
        let (data, worker_crc) = self.fetch_ranged(name, byte_off, (win_hi - win_lo) * SECTOR)?;
        if let Some(exp) = expected {
            let got = worker_crc.unwrap_or_else(|| crc32c(&data));
            self.counters
                .get_verified_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
            if got != exp {
                return Err(LsvdError::Corrupt(format!(
                    "{name}: GET payload CRC mismatch over object sectors {win_lo}..{win_hi}"
                )));
            }
        }
        Ok((win_lo, data))
    }

    /// Enters the live pieces of a fetched window into the read cache —
    /// unless the triggering stream is a scan, which bypasses admission.
    ///
    /// Liveness is revalidated under the exclusive lock *now*, not at
    /// resolve time: a piece whose vLBA was remapped (overwrite, trim, GC)
    /// while the GET was in flight is stale and must not be cached.
    /// Pieces shadowed by the write-back cache are punched out
    /// (write-after-read hazard, §3.1).
    fn admit_window(
        &self,
        entry: &HdrEntry,
        seq: ObjSeq,
        win_lo: u64,
        win_hi: u64,
        data: &Bytes,
        bypass: bool,
    ) -> Result<()> {
        let window_sectors = || {
            let mut covered = 0u64;
            let mut obj_off = 0u64;
            for &(_, elen) in entry.extents.iter() {
                let e_lo = obj_off;
                let e_hi = obj_off + elen as u64;
                obj_off = e_hi;
                covered += e_hi.min(win_hi).saturating_sub(e_lo.max(win_lo));
            }
            covered
        };
        if bypass {
            self.counters
                .bypassed_sectors
                .fetch_add(window_sectors(), Ordering::Relaxed);
            return Ok(());
        }
        let mut st = self.write_state();
        // Tenant quota: once this volume's resident footprint reaches its
        // allocation, fetches still serve but stop admitting — the noisy
        // tenant cannot evict its neighbours' working sets. Checked under
        // the exclusive lock so the footprint reading is exact.
        let quota = self.cache_quota_sectors.load(Ordering::Relaxed);
        if quota > 0 {
            let s = st.rcache.stats();
            if s.inserted_sectors.saturating_sub(s.evicted_sectors) >= quota {
                drop(st);
                self.counters
                    .quota_bypassed_sectors
                    .fetch_add(window_sectors(), Ordering::Relaxed);
                return Ok(());
            }
        }
        let mut admitted = 0u64;
        let mut obj_off = 0u64;
        for &(elba, elen) in entry.extents.iter() {
            let e_lo = obj_off;
            let e_hi = obj_off + elen as u64;
            obj_off = e_hi;
            let lo = e_lo.max(win_lo);
            let hi = e_hi.min(win_hi);
            if lo >= hi {
                continue;
            }
            let piece_vlba = elba + (lo - e_lo);
            let piece_len = hi - lo;
            for (plo, plen, pval) in st.objmap.overlaps(piece_vlba, piece_len) {
                let expect_off = lo + (plo - piece_vlba);
                if pval.seq == seq && pval.off as u64 == expect_off {
                    let b = ((expect_off - win_lo) * SECTOR) as usize;
                    let e = b + (plen * SECTOR) as usize;
                    st.rcache.insert(plo, &data[b..e])?;
                    admitted += plen;
                    let shadowed = st.wcache_map.overlaps(plo, plen);
                    for (wlo, wlen, _) in shadowed {
                        st.rcache.invalidate(wlo, wlen);
                    }
                }
            }
        }
        self.counters
            .admitted_sectors
            .fetch_add(admitted, Ordering::Relaxed);
        Ok(())
    }

    /// One ranged GET: serial, or scatter-gathered over the writeback pool
    /// when the window is large enough to split usefully. Scattered parts
    /// arrive with worker-computed CRCs folded into one window checksum
    /// (`Some`); the serial path leaves checksumming to the caller.
    fn fetch_ranged(&self, name: &str, offset: u64, len: u64) -> Result<(Bytes, Option<u32>)> {
        let threads = self.pool.as_ref().map_or(0, |p| p.threads()) as u64;
        if threads < 2 || len < 2 * SCATTER_CHUNK {
            return Ok((self.store.get_range(name, offset, len)?, None));
        }
        let chunks = len.div_ceil(SCATTER_CHUNK).min(threads);
        let per = len.div_ceil(chunks);
        let mut ranges = Vec::with_capacity(chunks as usize);
        let mut off = 0;
        while off < len {
            let l = per.min(len - off);
            ranges.push((offset + off, l));
            off += l;
        }
        let pool = self.pool.as_ref().expect("pipelined");
        self.counters.scatter_gets.fetch_add(1, Ordering::Relaxed);
        let mut buf = Vec::with_capacity(len as usize);
        if self.verify_get_crc {
            let mut crc: Option<u32> = None;
            for p in pool.get_scatter_crc(name, &ranges) {
                let (part, part_crc) = p?;
                crc = Some(match crc {
                    None => part_crc,
                    Some(acc) => {
                        self.counters
                            .crc_combine_ops
                            .fetch_add(1, Ordering::Relaxed);
                        crc32c_combine(acc, part_crc, part.len() as u64)
                    }
                });
                buf.extend_from_slice(&part);
            }
            Ok((Bytes::from(buf), crc))
        } else {
            for p in pool.get_scatter(name, &ranges) {
                buf.extend_from_slice(&p?);
            }
            Ok((Bytes::from(buf), None))
        }
    }

    /// The object's cached header (extent list + per-extent CRCs), LRU
    /// eviction. The header GET runs without the cache lock held, so two
    /// concurrent misses may both fetch; the second insert harmlessly
    /// refreshes the first.
    pub(crate) fn header_extents(&self, seq: ObjSeq, name: &str) -> Result<Arc<HdrEntry>> {
        self.header(seq, name)?
            .ok_or_else(|| LsvdError::Corrupt(format!("{name}: mapped object missing")))
    }

    /// [`ReadPlane::header_extents`], but `None` when the object does not
    /// exist (nothing is cached for it then).
    pub(crate) fn header(&self, seq: ObjSeq, name: &str) -> Result<Option<Arc<HdrEntry>>> {
        if let Some(e) = self.hdr.lock().get(seq) {
            return Ok(Some(e));
        }
        let Some(h) = fetch_header(self.store.as_ref(), name)? else {
            return Ok(None);
        };
        let e = Arc::new(HdrEntry {
            hdr_sectors: h.data_offset as u64 / SECTOR,
            extents: h.extents,
            crcs: h.extent_crcs,
        });
        self.hdr.lock().insert(seq, e.clone());
        Ok(Some(e))
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Snapshot of every plane counter, including header-cache stats.
    pub(crate) fn stats(&self) -> ReadPlaneStats {
        let c = &self.counters;
        let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let hdr = self.hdr.lock();
        ReadPlaneStats {
            reads: r(&c.reads),
            read_bytes: r(&c.read_bytes),
            hit_reads: r(&c.hit_reads),
            miss_reads: r(&c.miss_reads),
            backend_gets: r(&c.backend_gets),
            backend_get_bytes: r(&c.backend_get_bytes),
            scatter_gets: r(&c.scatter_gets),
            admitted_sectors: r(&c.admitted_sectors),
            bypassed_sectors: r(&c.bypassed_sectors),
            quota_bypassed_sectors: r(&c.quota_bypassed_sectors),
            singleflight_waits: r(&c.singleflight_waits),
            singleflight_shared: r(&c.singleflight_shared),
            crc_combine_ops: r(&c.crc_combine_ops),
            get_verified_bytes: r(&c.get_verified_bytes),
            concurrent_readers: r(&c.concurrent_readers),
            peak_concurrent_readers: r(&c.peak_concurrent_readers),
            shared_lock_acqs: r(&c.shared_lock_acqs),
            excl_lock_acqs: r(&c.excl_lock_acqs),
            hdr_hits: hdr.hits,
            hdr_misses: hdr.misses,
            hdr_evictions: hdr.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_table_tracks_runs() {
        let mut t = StreamTable::new();
        assert_eq!(t.note(0, 8), 8);
        assert_eq!(t.note(8, 8), 16);
        assert_eq!(t.note(16, 8), 24, "contiguous reads extend the run");
        assert_eq!(t.note(1000, 8), 8, "a jump starts a new stream");
        assert_eq!(t.note(24, 8), 32, "the first stream survives interleaving");
    }

    #[test]
    fn stream_table_replaces_lru_slot() {
        let mut t = StreamTable::new();
        // Fill every slot with distinct streams.
        for i in 0..STREAM_SLOTS as u64 {
            assert_eq!(t.note(i * 10_000, 8), 8);
        }
        // One more evicts the least-recently-touched (the first).
        t.note(900_000, 8);
        assert_eq!(t.note(8, 8), 8, "first stream was evicted, run restarts");
    }

    #[test]
    fn hdr_cache_lru_evicts_coldest() {
        let mut h = HdrCache::new(2);
        let e = || {
            Arc::new(HdrEntry {
                hdr_sectors: 0,
                extents: vec![],
                crcs: vec![],
            })
        };
        h.insert(1, e());
        h.insert(2, e());
        assert!(h.get(1).is_some(), "1 is now most recent");
        h.insert(3, e()); // evicts 2, the LRU
        assert!(h.get(2).is_none());
        assert!(h.get(1).is_some());
        assert!(h.get(3).is_some());
        assert_eq!(h.evictions, 1);
        assert_eq!(h.hits, 3);
        assert_eq!(h.misses, 1);
    }

    #[test]
    fn hdr_cache_reinsert_does_not_evict() {
        let mut h = HdrCache::new(2);
        let e = || {
            Arc::new(HdrEntry {
                hdr_sectors: 0,
                extents: vec![],
                crcs: vec![],
            })
        };
        h.insert(1, e());
        h.insert(2, e());
        h.insert(2, e()); // refresh, not a new entry
        assert_eq!(h.evictions, 0);
        assert!(h.get(1).is_some() && h.get(2).is_some());
    }
}
