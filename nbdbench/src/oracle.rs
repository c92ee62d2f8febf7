//! Self-verifying block contents and the oracle that judges reads.
//!
//! Every 4 KiB block the benchmark writes carries a 32-byte stamp — its
//! byte offset, a per-block version, the run seed and a checksum over the
//! whole block — followed by a body derived from those three values.
//! Prefill writes version 0 with a body derived from `(block, seed)`, so a
//! prefilled block verifies without any per-block memory.
//!
//! The oracle keeps, per block, the history of versions written in this
//! run with their submit and acknowledgement times (benchmark clock, ns).
//! A read may return version `v` when `v` was submitted before the reply
//! arrived and no write submitted after `v` was acknowledged had itself
//! been acknowledged before the read was sent: the register rule for a
//! disk whose writes from different connections may be served in either
//! order. Times are taken on the client side — submit before the send,
//! acknowledgement after the reply — which can only widen what is allowed,
//! never reject a correct read.

pub const BLOCK: usize = 4096;
const HDR: usize = 32;
const IN_FLIGHT: u64 = u64::MAX;
/// A version overwritten longer ago than this cannot be returned by any
/// read still outstanding, so its record is dropped.
const PRUNE_AFTER_NS: u64 = 10_000_000_000;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn word(b: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().expect("8-byte word"))
}

fn checksum(block: &[u8]) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3u64;
    for i in 0..BLOCK / 8 {
        // The checksum field itself (word 3) reads as zero.
        let w = if i == 3 { 0 } else { word(block, i) };
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    }
    mix(h)
}

/// Fills `out` (one block) with the stamp for `(offset, version, seed)`.
pub fn stamp(out: &mut [u8], offset: u64, version: u64, seed: u64) {
    debug_assert_eq!(out.len(), BLOCK);
    out[0..8].copy_from_slice(&offset.to_le_bytes());
    out[8..16].copy_from_slice(&version.to_le_bytes());
    out[16..24].copy_from_slice(&seed.to_le_bytes());
    out[24..32].copy_from_slice(&[0; 8]);
    let mut s = mix(offset ^ mix(version ^ mix(seed)));
    for chunk in out[HDR..].chunks_exact_mut(8) {
        s = mix(s);
        chunk.copy_from_slice(&s.to_le_bytes());
    }
    let sum = checksum(out);
    out[24..32].copy_from_slice(&sum.to_le_bytes());
}

/// What a block read back holds, once its stamp has been checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Content {
    /// Never written: all zeroes.
    Zero,
    /// A well-formed stamp of this version.
    Version(u64),
    /// Damaged, misplaced or from another run.
    Bad,
}

/// Parses and checks the stamp of a block read at `offset`.
pub fn parse(block: &[u8], offset: u64, seed: u64) -> Content {
    if block.iter().all(|&b| b == 0) {
        return Content::Zero;
    }
    let sum = word(block, 3);
    if word(block, 0) != offset || word(block, 2) != seed || checksum(block) != sum {
        return Content::Bad;
    }
    Content::Version(word(block, 1))
}

#[derive(Debug, Clone, Copy)]
struct Rec {
    version: u64,
    submit_ns: u64,
    ack_ns: u64,
}

/// Per-block write history for one run.
pub struct Oracle {
    /// Blocks below this index start as prefill stamps (version 0);
    /// blocks at or above it start as zeroes.
    prefilled: u64,
    /// History per block; an empty history means "initial content only".
    hist: Vec<Vec<Rec>>,
    next_version: Vec<u32>,
}

impl Oracle {
    pub fn new(blocks: u64, prefilled_blocks: u64) -> Oracle {
        Oracle {
            prefilled: prefilled_blocks,
            hist: vec![Vec::new(); blocks as usize],
            next_version: vec![0; blocks as usize],
        }
    }

    /// Claims the next version of `block` for a write about to be sent.
    pub fn submit(&mut self, block: u64, now_ns: u64) -> u64 {
        let b = block as usize;
        let h = &mut self.hist[b];
        if h.is_empty() {
            h.push(Rec {
                version: 0,
                submit_ns: 0,
                ack_ns: 0,
            });
        }
        self.next_version[b] += 1;
        let version = u64::from(self.next_version[b]);
        h.push(Rec {
            version,
            submit_ns: now_ns,
            ack_ns: IN_FLIGHT,
        });
        version
    }

    /// Records the acknowledgement of `version` of `block`.
    pub fn ack(&mut self, block: u64, version: u64, now_ns: u64) {
        let h = &mut self.hist[block as usize];
        if let Some(r) = h.iter_mut().find(|r| r.version == version) {
            r.ack_ns = now_ns;
        }
        prune(h, now_ns.saturating_sub(PRUNE_AFTER_NS));
    }

    /// Whether `block` has been written in this run or by prefill.
    pub fn ever_written(&self, block: u64) -> bool {
        block < self.prefilled || !self.hist[block as usize].is_empty()
    }

    /// Judges a read of `block` sent at `sent_ns` that returned `got`.
    pub fn read_ok(&self, block: u64, got: Content, sent_ns: u64) -> bool {
        let v = match got {
            Content::Bad => return false,
            Content::Zero if block < self.prefilled => return false,
            Content::Zero => 0,
            Content::Version(0) if block >= self.prefilled => return false,
            Content::Version(v) => v,
        };
        let h = &self.hist[block as usize];
        if h.is_empty() {
            return v == 0;
        }
        let Some(i) = h.iter().position(|r| r.version == v) else {
            return false;
        };
        let acked = h[i].ack_ns;
        if acked == IN_FLIGHT {
            return true;
        }
        !h[i + 1..]
            .iter()
            .any(|w| w.submit_ns > acked && w.ack_ns < sent_ns)
    }
}

/// Drops versions that were definitely overwritten before `cut`.
fn prune(h: &mut Vec<Rec>, cut: u64) {
    let Some(w) = h.iter().rposition(|r| r.ack_ns < cut) else {
        return;
    };
    let w_submit = h[w].submit_ns;
    let mut i = 0;
    h.retain(|r| {
        let keep = i >= w || r.ack_ns >= w_submit;
        i += 1;
        keep
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(offset: u64, version: u64, seed: u64) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK];
        stamp(&mut b, offset, version, seed);
        b
    }

    #[test]
    fn stamp_round_trips() {
        let b = block(8192, 7, 42);
        assert_eq!(parse(&b, 8192, 42), Content::Version(7));
        assert_eq!(parse(&vec![0u8; BLOCK], 8192, 42), Content::Zero);
    }

    #[test]
    fn flipped_byte_is_rejected() {
        for pos in [0usize, 9, 20, 27, 100, BLOCK - 1] {
            let mut b = block(4096, 3, 1);
            b[pos] ^= 0x10;
            assert_eq!(parse(&b, 4096, 1), Content::Bad, "flip at {pos}");
        }
    }

    #[test]
    fn misplaced_or_foreign_block_is_rejected() {
        let b = block(4096, 3, 1);
        assert_eq!(parse(&b, 8192, 1), Content::Bad);
        assert_eq!(parse(&b, 4096, 2), Content::Bad);
    }

    #[test]
    fn stale_version_is_rejected() {
        let mut o = Oracle::new(4, 4);
        let v1 = o.submit(1, 10);
        o.ack(1, v1, 20);
        let v2 = o.submit(1, 30);
        o.ack(1, v2, 40);
        // A read sent after v2's ack must not see v1 or the prefill.
        assert!(!o.read_ok(1, Content::Version(v1), 50));
        assert!(!o.read_ok(1, Content::Version(0), 50));
        assert!(o.read_ok(1, Content::Version(v2), 50));
        // A read sent before v2 was acked may see either.
        assert!(o.read_ok(1, Content::Version(v1), 35));
        assert!(o.read_ok(1, Content::Version(v2), 35));
        // A version that was never written is rejected.
        assert!(!o.read_ok(1, Content::Version(v2 + 1), 50));
    }

    #[test]
    fn concurrent_writes_allow_either_order() {
        let mut o = Oracle::new(1, 0);
        let a = o.submit(0, 10);
        let b = o.submit(0, 11);
        // Acks observed out of submission order on two connections.
        o.ack(0, b, 20);
        o.ack(0, a, 21);
        assert!(o.read_ok(0, Content::Version(a), 30));
        assert!(o.read_ok(0, Content::Version(b), 30));
        assert!(!o.read_ok(0, Content::Zero, 30));
    }

    #[test]
    fn initial_content_depends_on_prefill() {
        let o = Oracle::new(4, 2);
        assert!(o.read_ok(1, Content::Version(0), 5));
        assert!(!o.read_ok(1, Content::Zero, 5));
        assert!(o.read_ok(3, Content::Zero, 5));
        assert!(!o.read_ok(3, Content::Version(0), 5));
    }

    #[test]
    fn pruning_keeps_what_a_late_read_may_return() {
        let mut o = Oracle::new(1, 1);
        let s = PRUNE_AFTER_NS;
        let v1 = o.submit(0, 1);
        o.ack(0, v1, 2);
        let v2 = o.submit(0, 3);
        o.ack(0, v2, 4);
        let v3 = o.submit(0, s + 10);
        o.ack(0, v3, s + 20);
        // v1 and the prefill were overwritten by v2 more than the pruning
        // horizon ago; v2 is still the value a read sent before v3's ack
        // may return.
        assert!(o.read_ok(0, Content::Version(v2), s + 15));
        assert!(!o.read_ok(0, Content::Version(v1), s + 15));
        assert_eq!(o.hist[0].len(), 2);
    }
}
