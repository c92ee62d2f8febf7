//! Thread-safe volume handle for serving planes.
//!
//! [`Volume`](crate::volume::Volume) is single-threaded by design
//! (`&mut self` everywhere): the paper's client runs one dispatch loop per
//! disk. A network serving plane (the `nbd` crate) has many connection
//! threads that all need the same disk, so [`SharedVolume`] wraps the
//! volume in a mutex and re-exposes the block operations with `&self`
//! receivers.
//!
//! **Reads do not take that mutex.** The volume's read state lives in a
//! [`ReadPlane`](crate::read_plane::ReadPlane) behind a `RwLock`:
//! [`SharedVolume::read`] and [`SharedVolume::read_bytes`] go straight to
//! the plane, so cache-hit reads run concurrently with each other and
//! with whatever a mutation under the big mutex is doing *outside* its
//! short map-update critical sections (socket I/O, cache-log appends,
//! batch seals, backend PUTs). Mutations (`write`/`flush`/`discard`) stay
//! serialized on the mutex, which preserves the write-ordering contract
//! (writes acknowledged in cache-log order, flush as a full barrier).
//!
//! Shutdown takes the volume *out* of the wrapper (`Option` inside the
//! mutex) and flips a fence flag so the lock-free read path observes the
//! shutdown too; late arrivals on any path get [`LsvdError::BadVolume`]
//! instead of racing the drain + final checkpoint.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use telemetry::{SpanRing, TelemetrySnapshot};

use crate::read_plane::ReadPlane;
use crate::types::{LsvdError, Result};
use crate::volume::Volume;

/// A cloneable, thread-safe handle to a [`Volume`].
#[derive(Clone)]
pub struct SharedVolume {
    inner: Arc<Mutex<Option<Volume>>>,
    /// The volume's read plane, shared so reads bypass the big mutex.
    plane: Arc<ReadPlane>,
    /// The volume's request-span ring, shared so direct callers can mint
    /// request ids (and exporters can drain spans) without the mutex.
    spans: Arc<SpanRing>,
    /// Set by `shutdown` before the volume is torn down; checked by the
    /// lock-free read path so late reads fence exactly like mutations.
    closed: Arc<AtomicBool>,
    /// Virtual size, cached so `size_bytes` never blocks on the mutex.
    size_bytes: u64,
}

impl SharedVolume {
    /// Wraps `vol` for shared use.
    pub fn new(vol: Volume) -> SharedVolume {
        let size_bytes = vol.size();
        let plane = vol.read_plane();
        let spans = vol.span_ring();
        SharedVolume {
            inner: Arc::new(Mutex::new(Some(vol))),
            plane,
            spans,
            closed: Arc::new(AtomicBool::new(false)),
            size_bytes,
        }
    }

    /// The volume's request-span ring: serving planes mint request ids
    /// from it, exporters snapshot/drain it — no volume lock either way.
    pub fn span_ring(&self) -> Arc<SpanRing> {
        self.spans.clone()
    }

    /// Virtual disk size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    fn with<R>(&self, f: impl FnOnce(&mut Volume) -> Result<R>) -> Result<R> {
        let mut guard = self.inner.lock();
        match guard.as_mut() {
            Some(vol) => f(vol),
            None => Err(LsvdError::BadVolume("volume is shut down".into())),
        }
    }

    fn check_open(&self) -> Result<()> {
        if self.closed.load(Ordering::Acquire) {
            return Err(LsvdError::BadVolume("volume is shut down".into()));
        }
        Ok(())
    }

    /// Concurrent read through the [`ReadPlane`]: cache hits run under its
    /// shared lock, in parallel with other readers and with everything a
    /// mutation does outside the plane's short exclusive sections. Does
    /// not touch the volume mutex.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        // Direct callers get their own request id (0 when tracing is off,
        // which the traced path treats as "don't record").
        self.read_traced(offset, buf, self.spans.mint_request(), 0)
    }

    /// [`SharedVolume::read`] under an existing request id: the serving
    /// plane minted `req` at command decode and passes its dispatch span
    /// as `parent`.
    pub fn read_traced(&self, offset: u64, buf: &mut [u8], req: u64, parent: u64) -> Result<()> {
        self.check_open()?;
        self.plane.read_into_traced(offset, buf, req, parent)
    }

    /// Like [`SharedVolume::read`], returning a freshly allocated
    /// [`Bytes`] the serving plane can hand straight to a socket writer —
    /// no copy from a volume buffer into a reply buffer.
    pub fn read_bytes(&self, offset: u64, len: usize) -> Result<Bytes> {
        self.read_bytes_traced(offset, len, self.spans.mint_request(), 0)
    }

    /// [`SharedVolume::read_bytes`] under an existing request id.
    pub fn read_bytes_traced(
        &self,
        offset: u64,
        len: usize,
        req: u64,
        parent: u64,
    ) -> Result<Bytes> {
        self.check_open()?;
        self.plane.read_bytes_traced(offset, len, req, parent)
    }

    /// Non-blocking [`SharedVolume::read_bytes_traced`] for callers that
    /// must not wait (the NBD reactor): serves the read only when every
    /// byte is local and `admit` agrees, see [`ReadPlane::try_read_local`].
    /// `None` — the plane's lock is contended, some byte needs a backend
    /// GET, `admit` refused, or the volume is shut down — is not counted
    /// as a read, so the caller can fall back to the blocking read.
    pub fn try_read_local(
        &self,
        offset: u64,
        len: usize,
        req: u64,
        parent: u64,
        admit: impl FnOnce() -> bool,
    ) -> Option<Result<Bytes>> {
        if self.closed.load(Ordering::Acquire) {
            return None;
        }
        self.plane.try_read_local(offset, len, req, parent, admit)
    }

    /// Serialized [`Volume::write`].
    pub fn write(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.write_traced(offset, data, self.spans.mint_request(), 0)
    }

    /// [`SharedVolume::write`] under an existing request id: sets the
    /// volume's ambient span context for the duration of the call, so the
    /// wlog-append hop records as a child of `parent`.
    pub fn write_traced(&self, offset: u64, data: &[u8], req: u64, parent: u64) -> Result<()> {
        self.with(|v| {
            v.set_span_ctx(req, parent);
            let res = v.write(offset, data);
            v.set_span_ctx(0, 0);
            res
        })
    }

    /// Serialized [`Volume::flush`].
    pub fn flush(&self) -> Result<()> {
        self.flush_traced(self.spans.mint_request(), 0)
    }

    /// [`SharedVolume::flush`] under an existing request id.
    pub fn flush_traced(&self, req: u64, parent: u64) -> Result<()> {
        self.with(|v| {
            v.set_span_ctx(req, parent);
            let res = v.flush();
            v.set_span_ctx(0, 0);
            res
        })
    }

    /// Serialized [`Volume::discard`].
    pub fn discard(&self, offset: u64, len: u64) -> Result<()> {
        self.discard_traced(offset, len, self.spans.mint_request(), 0)
    }

    /// [`SharedVolume::discard`] under an existing request id.
    pub fn discard_traced(&self, offset: u64, len: u64, req: u64, parent: u64) -> Result<()> {
        self.with(|v| {
            v.set_span_ctx(req, parent);
            let res = v.discard(offset, len);
            v.set_span_ctx(0, 0);
            res
        })
    }

    /// Serialized [`Volume::telemetry`].
    pub fn telemetry(&self) -> Result<TelemetrySnapshot> {
        self.with(|v| Ok(v.telemetry()))
    }

    /// Sets the volume's read-cache byte quota (0 = unlimited) without
    /// touching the volume mutex — the fleet rebalancer calls this while
    /// traffic is flowing.
    pub fn set_cache_quota_bytes(&self, bytes: u64) {
        self.plane.set_cache_quota_bytes(bytes);
    }

    /// The current read-cache byte quota (0 = unlimited).
    pub fn cache_quota_bytes(&self) -> u64 {
        self.plane.cache_quota_bytes()
    }

    /// Bytes currently resident in the volume's read cache.
    pub fn cache_resident_bytes(&self) -> u64 {
        self.plane.cache_resident_bytes()
    }

    /// Read-cache hit sectors so far (rebalancer input: hit density).
    pub fn cache_hit_sectors(&self) -> u64 {
        self.plane.cache_hit_sectors()
    }

    /// Runs `f` with exclusive access to the volume (for attach-time
    /// wiring such as [`Volume::attach_serving_telemetry`]).
    pub fn with_volume<R>(&self, f: impl FnOnce(&mut Volume) -> R) -> Result<R> {
        self.with(|v| Ok(f(v)))
    }

    /// Takes the volume out and shuts it down (drain, final checkpoint).
    /// Subsequent operations on any clone fail with
    /// [`LsvdError::BadVolume`]; a second `shutdown` is a no-op.
    pub fn shutdown(&self) -> Result<()> {
        // Fence the lock-free read path first, then take the volume. A
        // read that slipped past the flag before it was set still runs
        // safely: the plane (and the devices under it) outlive the volume
        // via this handle's `Arc`, and `Volume::shutdown` only adds data
        // to the backend/caches — it never invalidates resolved state.
        self.closed.store(true, Ordering::Release);
        let vol = self.inner.lock().take();
        match vol {
            Some(vol) => vol.shutdown(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VolumeConfig;
    use blkdev::RamDisk;
    use objstore::MemStore;

    fn shared() -> SharedVolume {
        let store = Arc::new(MemStore::new());
        let dev = Arc::new(RamDisk::new(16 << 20));
        let vol =
            Volume::create(store, dev, "vol", 32 << 20, VolumeConfig::small_for_tests()).unwrap();
        SharedVolume::new(vol)
    }

    #[test]
    fn concurrent_clones_read_their_own_writes() {
        let sv = shared();
        let mut joins = Vec::new();
        for t in 0..4u8 {
            let sv = sv.clone();
            joins.push(std::thread::spawn(move || {
                let off = u64::from(t) * 65536;
                sv.write(off, &[t + 1; 4096]).unwrap();
                sv.flush().unwrap();
                let mut buf = [0u8; 4096];
                sv.read(off, &mut buf).unwrap();
                assert_eq!(buf, [t + 1; 4096]);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(sv.size_bytes(), 32 << 20);
    }

    #[test]
    fn read_bytes_matches_read() {
        let sv = shared();
        sv.write(8192, &[0xAB; 4096]).unwrap();
        let b = sv.read_bytes(8192, 4096).unwrap();
        assert_eq!(&b[..], &[0xAB; 4096][..]);
        let zeros = sv.read_bytes(1 << 20, 4096).unwrap();
        assert!(zeros.iter().all(|&x| x == 0));
    }

    #[test]
    fn try_read_local_declines_backend_reads_without_counting_them() {
        let store = Arc::new(MemStore::new());
        let cfg = VolumeConfig::small_for_tests;
        let vol = Volume::create(
            store.clone(),
            Arc::new(RamDisk::new(16 << 20)),
            "vol",
            32 << 20,
            cfg(),
        )
        .unwrap();
        let sv = SharedVolume::new(vol);
        sv.write(0, &[5u8; 4096]).unwrap();
        sv.shutdown().unwrap();
        // A fresh cache device: block 0 now lives only in the backend.
        let vol = Volume::open(store, Arc::new(RamDisk::new(16 << 20)), "vol", cfg()).unwrap();
        let sv = SharedVolume::new(vol);
        let stats = |sv: &SharedVolume| sv.with_volume(|v| v.read_plane_stats()).unwrap();
        let yes = || true;

        let never = || -> bool { panic!("admission asked for a backend read") };
        assert!(
            sv.try_read_local(0, 4096, 0, 0, never).is_none(),
            "needs a GET"
        );
        let s = stats(&sv);
        assert_eq!((s.reads, s.hit_reads, s.miss_reads), (0, 0, 0));
        // The blocking fallback counts the read once, as a miss, and
        // admits the block to the read cache.
        assert_eq!(&sv.read_bytes(0, 4096).unwrap()[..], &[5u8; 4096][..]);
        let s = stats(&sv);
        assert_eq!((s.reads, s.hit_reads, s.miss_reads), (1, 0, 1));
        let hits = sv.cache_hit_sectors();

        assert!(
            sv.try_read_local(0, 4096, 0, 0, || false).is_none(),
            "refused admission declines"
        );
        let b = sv.try_read_local(0, 4096, 0, 0, yes).unwrap().unwrap();
        assert_eq!(&b[..], &[5u8; 4096][..]);
        let z = sv
            .try_read_local(1 << 20, 4096, 0, 0, yes)
            .unwrap()
            .unwrap();
        assert!(z.iter().all(|&x| x == 0), "holes are local");
        let s = stats(&sv);
        assert_eq!((s.reads, s.hit_reads, s.miss_reads), (3, 2, 1));
        assert_eq!(sv.cache_hit_sectors(), hits + 8);
        assert!(matches!(
            sv.try_read_local(100, 512, 0, 0, yes),
            Some(Err(LsvdError::InvalidAccess { .. }))
        ));
        sv.shutdown().unwrap();
        assert!(sv.try_read_local(0, 4096, 0, 0, yes).is_none(), "closed");
    }

    #[test]
    fn shutdown_fences_late_operations() {
        let sv = shared();
        sv.write(0, &[9u8; 4096]).unwrap();
        sv.shutdown().unwrap();
        sv.shutdown().unwrap(); // idempotent
        assert!(matches!(
            sv.read(0, &mut [0u8; 4096]),
            Err(LsvdError::BadVolume(_))
        ));
        assert!(matches!(
            sv.read_bytes(0, 4096),
            Err(LsvdError::BadVolume(_))
        ));
        assert!(sv.write(0, &[0u8; 512]).is_err());
        assert!(sv.discard(0, 512).is_err());
    }
}
