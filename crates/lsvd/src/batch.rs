//! Write batching for the log-structured block store (§3.1, §3.2).
//!
//! Acknowledged writes accumulate in a [`BatchBuilder`] until the
//! configured batch size is reached, then the batch is sealed into one
//! immutable backend object. Because objects are written atomically,
//! writes *within* a batch may be coalesced — an overwrite of data still
//! in the batch simply drops the older bytes — without weakening the
//! prefix-consistency guarantee; coalescing across batches would break it
//! (§3.1, footnote 8). The paper's Table 5 "merge ratio" measures exactly
//! the bytes this eliminates.

use bytes::Bytes;

use crate::crc::{crc32c, crc32c_combine};
use crate::extent_map::ExtentMap;
use crate::objfmt;
use crate::types::{bytes_to_sectors, Lba, ObjSeq, SECTOR};

/// One appended write's position in `buf`, with its payload CRC. Chunks are
/// appended in order, so the list is sorted by `off` and covers `buf`
/// exactly.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    /// Sector offset in `buf`.
    off: u64,
    /// Length in sectors.
    sectors: u64,
    /// CRC32C of the chunk's payload.
    crc: u32,
}

/// Accumulates writes destined for one backend object.
///
/// # Examples
///
/// ```
/// use lsvd::batch::BatchBuilder;
/// use lsvd::objfmt::parse_data_header;
///
/// let mut batch = BatchBuilder::new();
/// batch.add(100, &[1u8; 4096], 1);
/// batch.add(100, &[2u8; 4096], 2);   // overwrite coalesces in the batch
/// assert_eq!(batch.merged_bytes(), 4096);
///
/// let sealed = batch.seal(0xCAFE, 7);
/// let header = parse_data_header(&sealed.object).unwrap();
/// assert_eq!(header.seq, 7);
/// assert_eq!(header.extents, vec![(100, 8)]);
/// ```
#[derive(Debug)]
pub struct BatchBuilder {
    /// Raw appended payload (may contain dead, overwritten bytes).
    buf: Vec<u8>,
    /// vLBA -> sector offset in `buf` for the *live* bytes.
    map: ExtentMap<u64>,
    /// Per-append payload CRCs, sorted by buffer offset, covering `buf`.
    chunks: Vec<Chunk>,
    /// Bytes accepted into the batch.
    accepted_bytes: u64,
    /// Bytes eliminated by intra-batch coalescing.
    merged_bytes: u64,
    /// Highest cache-log sequence whose data is in the batch.
    last_cache_seq: u64,
    /// Discarded ranges to advertise in the sealed object, in arrival
    /// order. A trim rides the batch stream so total cache loss still
    /// replays it from the backend (the object header lists it ahead of
    /// the data extents).
    trims: Vec<(Lba, u32)>,
}

impl Default for BatchBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchBuilder {
    /// Creates an empty batch.
    pub fn new() -> Self {
        BatchBuilder {
            buf: Vec::new(),
            map: ExtentMap::new(),
            chunks: Vec::new(),
            accepted_bytes: 0,
            merged_bytes: 0,
            last_cache_seq: 0,
            trims: Vec::new(),
        }
    }

    /// Adds one write. `cache_seq` is the write's cache-log sequence
    /// number; the sealed object advertises the highest one it contains.
    pub fn add(&mut self, lba: Lba, data: &[u8], cache_seq: u64) {
        self.add_with_crc(lba, data, cache_seq, crc32c(data));
    }

    /// Adds one write whose payload CRC32C the caller already computed —
    /// the hot path: the write log checksums each payload once at append
    /// and hands the CRC here, so the batch never re-reads the data.
    pub fn add_with_crc(&mut self, lba: Lba, data: &[u8], cache_seq: u64, crc: u32) {
        debug_assert!(!data.is_empty() && data.len().is_multiple_of(SECTOR as usize));
        debug_assert_eq!(crc, crc32c(data), "caller-supplied CRC must match");
        let sectors = bytes_to_sectors(data.len() as u64);
        // Coalesce: any previously batched bytes for this range die now.
        for (_, plen, _) in self.map.overlaps(lba, sectors) {
            self.merged_bytes += plen * SECTOR;
        }
        let off_sectors = bytes_to_sectors(self.buf.len() as u64);
        self.buf.extend_from_slice(data);
        self.map.insert(lba, sectors, off_sectors);
        self.chunks.push(Chunk {
            off: off_sectors,
            sectors,
            crc,
        });
        self.accepted_bytes += data.len() as u64;
        self.last_cache_seq = self.last_cache_seq.max(cache_seq);
    }

    /// Records a discard: any batched data for the range dies now, and the
    /// trim itself is advertised by the sealed object so recovery from the
    /// backend alone replays it. `cache_seq` is the trim's cache-log
    /// sequence — carrying it in `last_cache_seq` makes the object's
    /// durability release the trim record like any data record.
    pub fn discard(&mut self, lba: Lba, sectors: u64, cache_seq: u64) {
        for (_, plen, _) in self.map.overlaps(lba, sectors) {
            self.merged_bytes += plen * SECTOR;
        }
        self.map.remove(lba, sectors);
        self.trims.push((lba, sectors as u32));
        self.last_cache_seq = self.last_cache_seq.max(cache_seq);
    }

    /// Discarded ranges queued for the next sealed object.
    pub fn trim_count(&self) -> usize {
        self.trims.len()
    }

    /// Live payload bytes currently in the batch. Every accepted byte is
    /// live until an overwrite or a trim counts it as merged, so this is
    /// the map's mapped length without walking the map — the write path
    /// asks on every write.
    pub fn live_bytes(&self) -> u64 {
        let live = self.accepted_bytes - self.merged_bytes;
        debug_assert_eq!(live, self.map.mapped_len() * SECTOR);
        live
    }

    /// Total bytes accepted (before coalescing).
    pub fn accepted_bytes(&self) -> u64 {
        self.accepted_bytes
    }

    /// Bytes eliminated by coalescing so far.
    pub fn merged_bytes(&self) -> u64 {
        self.merged_bytes
    }

    /// Highest cache sequence contained.
    pub fn last_cache_seq(&self) -> u64 {
        self.last_cache_seq
    }

    /// Whether the batch holds nothing (no live data and no trims).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty() && self.trims.is_empty()
    }

    /// Number of live extents the sealed object would carry.
    pub fn extent_count(&self) -> usize {
        self.map.len()
    }

    /// CRC32C of the live range `[off, off + sectors)` of `buf`, resolved
    /// from per-append chunk CRCs: whole chunks reuse their stored CRC,
    /// partial chunks (overwrite flanks) recompute just the surviving
    /// slice, and pieces are folded with [`crc32c_combine`]. Updates the
    /// recompute/combine accounting in place.
    fn range_crc(&self, off: u64, sectors: u64, recomputed: &mut u64, combines: &mut u64) -> u32 {
        let end = off + sectors;
        let mut cur = off;
        let mut idx = self.chunks.partition_point(|c| c.off + c.sectors <= cur);
        let mut acc: Option<u32> = None;
        while cur < end {
            let c = self.chunks[idx];
            let piece_end = end.min(c.off + c.sectors);
            let crc = if cur == c.off && piece_end == c.off + c.sectors {
                c.crc
            } else {
                let b = (cur * SECTOR) as usize;
                let e = (piece_end * SECTOR) as usize;
                *recomputed += (e - b) as u64;
                crc32c(&self.buf[b..e])
            };
            acc = Some(match acc {
                None => crc,
                Some(a) => {
                    *combines += 1;
                    crc32c_combine(a, crc, (piece_end - cur) * SECTOR)
                }
            });
            cur = piece_end;
            idx += 1;
        }
        acc.unwrap_or(0)
    }

    /// Seals the batch into a data object for sequence `seq`, returning the
    /// object bytes and its extent list. The builder is left empty.
    ///
    /// Extents are laid out in vLBA order: within an atomic batch, ordering
    /// is free to restore spatial locality (§3.1), which both shrinks the
    /// extent list (adjacent writes merge) and helps later sequential reads.
    /// Payload bytes move exactly once here — from the batch buffer into
    /// the object allocation — and their CRCs are carried over from append
    /// time, not recomputed (overwrite flanks excepted; see the sealed
    /// batch's accounting fields).
    pub fn seal(&mut self, uuid: u64, seq: ObjSeq) -> SealedBatch {
        let mut extents: Vec<(Lba, u32)> = Vec::with_capacity(self.map.len());
        let mut extent_crcs: Vec<u32> = Vec::with_capacity(self.map.len());
        let mut recomputed = 0u64;
        let mut combines = 0u64;
        for (lba, len, off) in self.map.iter() {
            extents.push((lba, len as u32));
            extent_crcs.push(self.range_crc(off, len, &mut recomputed, &mut combines));
        }
        let data_bytes = self.live_bytes();
        let mut obj = objfmt::build_data_header_with_trims(
            uuid,
            seq,
            self.last_cache_seq,
            &self.trims,
            &extents,
            &extent_crcs,
            data_bytes as usize,
        );
        let hdr_sectors = (obj.len() as u64 / SECTOR) as u32;
        for (_, len, off) in self.map.iter() {
            let b = (off * SECTOR) as usize;
            let e = b + (len * SECTOR) as usize;
            obj.extend_from_slice(&self.buf[b..e]);
        }
        let out = SealedBatch {
            object: Bytes::from(obj),
            extents,
            extent_crcs,
            trims: std::mem::take(&mut self.trims),
            hdr_sectors,
            last_cache_seq: self.last_cache_seq,
            merged_bytes: self.merged_bytes,
            accepted_bytes: self.accepted_bytes,
            data_bytes,
            crc_recomputed_bytes: recomputed,
            crc_combine_ops: combines,
        };
        // Reset in place, keeping `buf`'s (and the bookkeeping vectors')
        // capacity: the next batch fills already-faulted pages instead of
        // re-growing an 8 MiB allocation through doubling reallocs.
        self.buf.clear();
        self.map.clear();
        self.chunks.clear();
        self.accepted_bytes = 0;
        self.merged_bytes = 0;
        self.last_cache_seq = 0;
        out
    }
}

/// A sealed batch ready for PUT.
#[derive(Debug)]
pub struct SealedBatch {
    /// The complete object bytes (header + data).
    pub object: Bytes,
    /// The object's extent list, vLBA-ordered.
    pub extents: Vec<(Lba, u32)>,
    /// CRC32C of each extent's payload, parallel to `extents`.
    pub extent_crcs: Vec<u32>,
    /// Discarded ranges advertised by the object, in arrival order.
    pub trims: Vec<(Lba, u32)>,
    /// Header size in sectors.
    pub hdr_sectors: u32,
    /// Highest cache sequence contained.
    pub last_cache_seq: u64,
    /// Bytes eliminated by coalescing in this batch.
    pub merged_bytes: u64,
    /// Bytes accepted into this batch before coalescing.
    pub accepted_bytes: u64,
    /// Live payload bytes copied into the object.
    pub data_bytes: u64,
    /// Payload bytes whose CRC had to be recomputed at seal (overwrite
    /// flanks — partial survivors of a coalesced chunk). Zero when no
    /// intra-batch partial overwrite occurred.
    pub crc_recomputed_bytes: u64,
    /// CRC combine operations performed while assembling extent CRCs.
    pub crc_combine_ops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objfmt::parse_data_header;

    fn sdata(tag: u8, sectors: usize) -> Vec<u8> {
        vec![tag; sectors * SECTOR as usize]
    }

    #[test]
    fn seal_produces_parseable_object() {
        let mut b = BatchBuilder::new();
        b.add(100, &sdata(1, 8), 5);
        b.add(500, &sdata(2, 4), 6);
        let sealed = b.seal(77, 3);
        let h = parse_data_header(&sealed.object).unwrap();
        assert_eq!(h.seq, 3);
        assert_eq!(h.uuid, 77);
        assert_eq!(h.last_cache_seq, 6);
        assert_eq!(h.extents, vec![(100, 8), (500, 4)]);
        // Data is laid out in extent order.
        let d = &sealed.object[h.data_offset as usize..];
        assert!(d[..8 * 512].iter().all(|&x| x == 1));
        assert!(d[8 * 512..].iter().all(|&x| x == 2));
    }

    #[test]
    fn intra_batch_overwrite_coalesces() {
        let mut b = BatchBuilder::new();
        b.add(0, &sdata(1, 8), 1);
        b.add(0, &sdata(2, 8), 2); // full overwrite
        assert_eq!(b.merged_bytes(), 8 * 512);
        assert_eq!(b.live_bytes(), 8 * 512);
        assert_eq!(b.accepted_bytes(), 16 * 512);
        let sealed = b.seal(1, 1);
        let h = parse_data_header(&sealed.object).unwrap();
        assert_eq!(h.extents, vec![(0, 8)]);
        let d = &sealed.object[h.data_offset as usize..];
        assert!(d.iter().all(|&x| x == 2), "newest data wins");
    }

    #[test]
    fn partial_overwrite_keeps_flanks() {
        let mut b = BatchBuilder::new();
        b.add(0, &sdata(1, 8), 1);
        b.add(2, &sdata(9, 4), 2);
        assert_eq!(b.merged_bytes(), 4 * 512);
        let sealed = b.seal(1, 1);
        let h = parse_data_header(&sealed.object).unwrap();
        assert_eq!(h.data_sectors(), 8);
        let d = &sealed.object[h.data_offset as usize..];
        assert!(d[..2 * 512].iter().all(|&x| x == 1));
        assert!(d[2 * 512..6 * 512].iter().all(|&x| x == 9));
        assert!(d[6 * 512..].iter().all(|&x| x == 1));
    }

    #[test]
    fn sequential_writes_merge_into_one_extent() {
        let mut b = BatchBuilder::new();
        for i in 0..16u64 {
            b.add(i * 8, &sdata(i as u8, 8), i);
        }
        assert_eq!(b.extent_count(), 1, "consecutive appends coalesce");
        let sealed = b.seal(1, 1);
        assert_eq!(sealed.extents, vec![(0, 128)]);
    }

    #[test]
    fn vlba_ordering_restored_on_seal() {
        let mut b = BatchBuilder::new();
        b.add(1000, &sdata(1, 4), 1);
        b.add(0, &sdata(2, 4), 2);
        b.add(500, &sdata(3, 4), 3);
        let sealed = b.seal(1, 1);
        let lbas: Vec<Lba> = sealed.extents.iter().map(|&(l, _)| l).collect();
        assert_eq!(lbas, vec![0, 500, 1000]);
        // Data order follows the extent list, not write order.
        let h = parse_data_header(&sealed.object).unwrap();
        let d = &sealed.object[h.data_offset as usize..];
        assert!(d[..4 * 512].iter().all(|&x| x == 2));
    }

    #[test]
    fn seal_carries_append_time_crcs() {
        let mut b = BatchBuilder::new();
        let d1 = sdata(1, 8);
        let d2 = sdata(2, 8);
        b.add_with_crc(0, &d1, 1, crc32c(&d1));
        b.add_with_crc(8, &d2, 2, crc32c(&d2));
        let sealed = b.seal(1, 1);
        assert_eq!(sealed.extents, vec![(0, 16)]);
        let mut whole = d1.clone();
        whole.extend_from_slice(&d2);
        assert_eq!(sealed.extent_crcs, vec![crc32c(&whole)]);
        assert_eq!(
            sealed.crc_recomputed_bytes, 0,
            "whole chunks reuse append-time CRCs"
        );
        assert_eq!(sealed.crc_combine_ops, 1, "two chunks fold into one extent");
        assert_eq!(sealed.data_bytes, 16 * 512);
        let h = parse_data_header(&sealed.object).unwrap();
        assert_eq!(h.extent_crcs, sealed.extent_crcs);
    }

    #[test]
    fn flank_recompute_is_bounded_and_correct() {
        let mut b = BatchBuilder::new();
        b.add(0, &sdata(1, 8), 1);
        b.add(2, &sdata(9, 4), 2); // punches the middle of the first chunk
        let sealed = b.seal(1, 1);
        // Only the two surviving flank slices ([0,2) and [6,8), 4 sectors)
        // needed a fresh CRC; the overwrite chunk reused its append CRC.
        assert_eq!(sealed.crc_recomputed_bytes, 4 * 512);
        let h = parse_data_header(&sealed.object).unwrap();
        let d = &sealed.object[h.data_offset as usize..];
        let mut off = 0usize;
        for (i, &(_, len)) in h.extents.iter().enumerate() {
            let n = len as usize * 512;
            assert_eq!(
                h.extent_crcs[i],
                crc32c(&d[off..off + n]),
                "extent {i} CRC matches its payload"
            );
            off += n;
        }
    }

    #[test]
    fn builder_resets_after_seal() {
        let mut b = BatchBuilder::new();
        b.add(0, &sdata(1, 8), 9);
        let _ = b.seal(1, 1);
        assert!(b.is_empty());
        assert_eq!(b.live_bytes(), 0);
        assert_eq!(b.merged_bytes(), 0);
        assert_eq!(b.last_cache_seq(), 0);
    }

    #[test]
    fn discard_drops_batched_data_and_rides_the_object() {
        let mut b = BatchBuilder::new();
        b.add(0, &sdata(1, 8), 1);
        b.add(100, &sdata(2, 4), 2);
        b.discard(0, 8, 3); // kills the first write entirely
        assert_eq!(b.merged_bytes(), 8 * 512);
        assert_eq!(b.live_bytes(), 4 * 512);
        assert_eq!(b.last_cache_seq(), 3);
        let sealed = b.seal(1, 1);
        assert_eq!(sealed.trims, vec![(0, 8)]);
        assert_eq!(sealed.extents, vec![(100, 4)]);
        let h = parse_data_header(&sealed.object).unwrap();
        assert_eq!(h.trims, vec![(0, 8)]);
        assert_eq!(h.extents, vec![(100, 4)]);
        assert_eq!(h.last_cache_seq, 3);
        assert_eq!(h.data_sectors(), 4);
    }

    #[test]
    fn trim_only_batch_is_not_empty_and_seals() {
        let mut b = BatchBuilder::new();
        b.discard(64, 16, 7);
        assert!(!b.is_empty());
        assert_eq!(b.trim_count(), 1);
        assert_eq!(b.live_bytes(), 0);
        let sealed = b.seal(9, 2);
        assert_eq!(sealed.trims, vec![(64, 16)]);
        assert!(sealed.extents.is_empty());
        assert_eq!(sealed.data_bytes, 0);
        let h = parse_data_header(&sealed.object).unwrap();
        assert_eq!(h.trims, vec![(64, 16)]);
        assert!(h.extents.is_empty());
        assert!(b.is_empty(), "seal clears queued trims");
    }
}
