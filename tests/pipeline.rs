//! Integration: the pipelined writeback path (§3.1-style overlap).
//!
//! With `writeback_threads > 0`, sealed batches drain through a worker
//! pool with a bounded window of concurrent PUTs while the foreground
//! keeps accepting writes; with `0` the same engine runs each PUT inline.
//! These tests pin the contract:
//!
//! - overlap actually hides backend PUT latency (the ≥2× acceptance
//!   demo, against a store that really sleeps);
//! - completions may land out of order, but the object map only ever
//!   advances along the contiguous durable prefix;
//! - transient PUT failures requeue without reordering the stream and
//!   without losing acknowledged data;
//! - backpressure counts queued *and* in-flight batches;
//! - large prefetches scatter across the same pool.

use std::sync::Arc;
use std::time::{Duration, Instant};

use blkdev::RamDisk;
use lsvd::config::VolumeConfig;
use lsvd::volume::Volume;
use lsvd::LsvdError;
use objstore::{ChaosStore, LatencyStore, MemStore, ObjectStore};

const BATCH: u64 = 64 << 10;

/// Batch-sized config with checkpoints and GC out of the way, so wall
/// clock measures PUTs and nothing else.
fn pipeline_cfg(threads: usize, window: usize) -> VolumeConfig {
    VolumeConfig {
        batch_bytes: BATCH,
        checkpoint_interval: 100_000,
        gc_enabled: false,
        writeback_threads: threads,
        max_inflight_puts: window,
        ..VolumeConfig::default()
    }
}

/// Writes `batches` full batches and drains; returns the wall-clock time
/// of the write+drain phase (volume creation PUTs excluded).
fn timed_writeback(cfg: VolumeConfig, put_delay: Duration, batches: u64) -> Duration {
    let store: Arc<dyn ObjectStore> = Arc::new(LatencyStore::new(
        MemStore::new(),
        put_delay,
        Duration::ZERO,
    ));
    let cache = Arc::new(RamDisk::new(64 << 20));
    let mut vol = Volume::create(store, cache, "vol", 256 << 20, cfg).expect("create");
    let data = vec![0xA5u8; BATCH as usize];
    let t = Instant::now();
    for i in 0..batches {
        vol.write(i * BATCH, &data).expect("write");
    }
    vol.drain().expect("drain");
    let elapsed = t.elapsed();
    assert_eq!(
        vol.last_object_seq() as u64,
        batches,
        "one object per batch"
    );
    assert_eq!(vol.durable_frontier(), vol.last_object_seq());
    elapsed
}

/// The ISSUE acceptance bar: at 10 ms simulated PUT latency, a 4-deep
/// in-flight window must beat the serial path by at least 2x.
#[test]
fn four_inflight_puts_at_least_twice_as_fast_as_serial() {
    let put_delay = Duration::from_millis(10);
    let batches = 16;
    let serial = timed_writeback(pipeline_cfg(0, 4), put_delay, batches);
    let pipelined = timed_writeback(pipeline_cfg(4, 4), put_delay, batches);
    println!(
        "writeback of {batches} batches @10ms PUT: serial {:.1} ms, \
         4-wide pipeline {:.1} ms ({:.2}x)",
        serial.as_secs_f64() * 1e3,
        pipelined.as_secs_f64() * 1e3,
        serial.as_secs_f64() / pipelined.as_secs_f64(),
    );
    assert!(
        pipelined * 2 <= serial,
        "expected >=2x speedup, got serial {serial:?} vs pipelined {pipelined:?}"
    );
}

#[test]
fn durable_frontier_trails_inflight_puts_and_catches_up() {
    let store: Arc<dyn ObjectStore> = Arc::new(LatencyStore::new(
        MemStore::new(),
        Duration::from_millis(25),
        Duration::ZERO,
    ));
    let cache = Arc::new(RamDisk::new(64 << 20));
    let mut vol =
        Volume::create(store, cache, "vol", 256 << 20, pipeline_cfg(4, 4)).expect("create");
    let data = vec![7u8; BATCH as usize];
    for i in 0..4u64 {
        vol.write(i * BATCH, &data).expect("write");
    }
    // Four batches sealed; their PUTs are still sleeping in the pool, so
    // nothing has been applied yet and the backlog is visible.
    let st = vol.stats();
    assert!(
        st.inflight_puts > 0 || st.pending_batches > 0,
        "PUTs should still be in flight: {st:?}"
    );
    assert!(
        vol.durable_frontier() < 4,
        "frontier must not cover unacked PUTs"
    );
    // Reads are served from the cache log while the backend catches up.
    let mut buf = vec![0u8; BATCH as usize];
    vol.read(0, &mut buf).expect("read during writeback");
    assert_eq!(buf, data);

    vol.drain().expect("drain");
    assert_eq!(vol.durable_frontier(), 4);
    let st = vol.stats();
    assert_eq!(st.pending_batches, 0);
    assert_eq!(st.inflight_puts, 0);
    assert!(!st.degraded);
}

/// Both writeback lanes: the inline pool (zero workers, window one) and
/// a pool of `n` workers with an `n`-wide window. The contracts the tests
/// below pin do not depend on the lane.
fn lanes(n: usize) -> [(usize, usize); 2] {
    [(0, 1), (n, n)]
}

#[test]
fn transient_failure_requeues_without_reordering() {
    for (threads, window) in lanes(4) {
        let lane = format!("{threads} workers, window {window}");
        let cfg = pipeline_cfg(threads, window);
        let store = Arc::new(ChaosStore::new(MemStore::new()));
        let cache = Arc::new(RamDisk::new(64 << 20));
        let mut vol =
            Volume::create(store.clone(), cache, "vol", 256 << 20, cfg.clone()).expect("create");

        // One armed failure: exactly one PUT bounces and is requeued while
        // its successors may land first (out of order). The volume must
        // hold the later completions until the gap fills.
        store.fail_next_puts(1);
        let data: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i + 1; BATCH as usize]).collect();
        for (i, d) in data.iter().enumerate() {
            vol.write(i as u64 * BATCH, d).expect("write absorbed");
        }
        vol.drain().expect("drain retries the bounced batch");
        assert!(!vol.is_degraded(), "{lane}");
        assert!(
            vol.stats().put_transient_failures >= 1,
            "{lane}: the bounce was seen"
        );
        assert_eq!(vol.durable_frontier(), 6, "{lane}");

        // Cold recovery from the backend alone: every batch landed, in order.
        drop(vol);
        let mut vol =
            Volume::open(store, Arc::new(RamDisk::new(64 << 20)), "vol", cfg).expect("reopen");
        let mut buf = vec![0u8; BATCH as usize];
        for (i, d) in data.iter().enumerate() {
            vol.read(i as u64 * BATCH, &mut buf).expect("read");
            assert_eq!(&buf, d, "{lane}: batch {i} recovered from backend");
        }
    }
}

#[test]
fn backpressure_counts_queued_and_inflight() {
    for (threads, window) in lanes(2) {
        let lane = format!("{threads} workers, window {window}");
        let store = Arc::new(ChaosStore::new(MemStore::new()));
        let cache = Arc::new(RamDisk::new(64 << 20));
        let tight = VolumeConfig {
            max_pending_batches: 3,
            ..pipeline_cfg(threads, window)
        };
        let mut vol =
            Volume::create(store.clone(), cache, "vol", 256 << 20, tight).expect("create");

        // Backend down hard: every PUT bounces, so the window plus the
        // queue fill up and the watermark must reject further sealing
        // writes.
        store.fail_next_puts(1_000_000);
        let data = vec![3u8; BATCH as usize];
        let mut accepted = 0u64;
        let mut rejected = None;
        for i in 0..64u64 {
            match vol.write(i * BATCH, &data) {
                Ok(()) => accepted += 1,
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        match rejected.expect("watermark rejects eventually") {
            LsvdError::Backpressure { pending, limit } => {
                assert_eq!(limit, 3, "{lane}");
                assert!(
                    pending >= limit,
                    "{lane}: queued + in-flight at or past the watermark"
                );
            }
            e => panic!("{lane}: expected Backpressure, got {e}"),
        }
        assert!(accepted >= 3, "{lane}: writes flowed until the watermark");
        assert!(vol.is_degraded(), "{lane}: unresolved transient failure");
        assert!(vol.stats().backpressure_rejections >= 1, "{lane}");

        // Heal: the queue drains strictly in order and degraded mode clears.
        store.fail_next_puts(0);
        vol.drain().expect("drain after heal");
        assert!(!vol.is_degraded(), "{lane}");
        assert_eq!(vol.durable_frontier(), vol.last_object_seq(), "{lane}");
        let mut buf = vec![0u8; BATCH as usize];
        for i in 0..accepted {
            vol.read(i * BATCH, &mut buf).expect("read");
            assert_eq!(buf, data, "{lane}: accepted write {i} intact");
        }
    }
}

#[test]
fn large_prefetch_scatters_across_the_pool() {
    let cfg = VolumeConfig {
        batch_bytes: 1 << 20,
        prefetch_bytes: 512 << 10,
        checkpoint_interval: 100_000,
        gc_enabled: false,
        writeback_threads: 4,
        max_inflight_puts: 4,
        ..VolumeConfig::default()
    };
    let latency = Arc::new(LatencyStore::new(
        MemStore::new(),
        Duration::ZERO,
        Duration::from_millis(5),
    ));
    let store: Arc<dyn ObjectStore> = latency.clone();
    let cache = Arc::new(RamDisk::new(64 << 20));
    let mut vol =
        Volume::create(store.clone(), cache, "vol", 256 << 20, cfg.clone()).expect("create");
    let data: Vec<u8> = (0..(1u32 << 20)).map(|i| (i % 251) as u8).collect();
    vol.write(0, &data).expect("write");
    vol.shutdown().expect("shutdown");

    // Cold volume, empty caches: the first read misses and prefetches
    // 512 KiB of the extent, which splits into parallel ranged GETs.
    let mut vol = Volume::open(store, Arc::new(RamDisk::new(64 << 20)), "vol", cfg).expect("open");
    let gets_before = latency.get_count();
    let mut buf = vec![0u8; 4096];
    vol.read(0, &mut buf).expect("read miss");
    assert_eq!(buf, &data[..4096]);
    assert!(vol.stats().scatter_gets >= 1, "prefetch used the pool");
    assert!(
        latency.get_count() - gets_before >= 2,
        "the window was fetched in more than one ranged GET"
    );
    // And the prefetched bytes are correct past the miss itself.
    let mut tail = vec![0u8; 4096];
    vol.read(256 << 10, &mut tail).expect("read prefetched");
    assert_eq!(tail, &data[(256 << 10)..(256 << 10) + 4096]);
}
