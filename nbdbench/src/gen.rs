//! The three workloads: sizes, set-up shape and per-stream op generators.

use workloads::filebench::{FilebenchSpec, Personality};
use workloads::{IoOp, Workload as _};

use crate::oracle::BLOCK;

pub const MIB: u64 = 1 << 20;

/// One client op, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read { off: u64, len: u32 },
    Write { off: u64, len: u32 },
    Flush,
}

/// A closed-loop stream's op source.
pub trait Gen: Send {
    fn next(&mut self) -> Op;
}

/// splitmix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Derives an independent seed for `(seed, a, b)`.
pub fn derive(seed: u64, a: u64, b: u64) -> u64 {
    let mut r = Rng::new(seed ^ a.wrapping_mul(0x1000_0000_01b3) ^ b.rotate_left(32));
    r.next_u64()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Varmail,
    RandreadHot,
    MixedCold,
}

/// How set-up writes the initial image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prefill {
    /// `[0, bytes)` in 1 MiB sequential writes.
    Sequential { bytes: u64 },
    /// `[0, bytes)` one 4 KiB block at a time in a seeded random order, so
    /// no two neighbours share an extent (a ~250K-entry map for 1 GiB).
    Scattered { bytes: u64 },
}

impl Prefill {
    pub fn bytes(self) -> u64 {
        match self {
            Prefill::Sequential { bytes } | Prefill::Scattered { bytes } => bytes,
        }
    }
}

/// How set-up warms the node before the timed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Warmup {
    /// Run the workload for this many slices.
    Slices(usize),
    /// Run the workload in slices until the read hit ratio of a slice
    /// reaches `min` and moves less than `tol` from the slice before, or
    /// for at most `max_slices`.
    HitRatio {
        min: f64,
        tol: f64,
        max_slices: usize,
    },
}

pub const STREAMS: usize = 16;
pub const CONNS: usize = 2;
pub const STREAMS_PER_CONN: usize = STREAMS / CONNS;

/// Static shape of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub volume_bytes: u64,
    /// The span reads and writes land in.
    pub span_bytes: u64,
    pub hot_bytes: u64,
    pub prefill: Prefill,
    /// Bytes at the start of the span that set-up reads once, one 4 KiB
    /// read per prefetch window in a shuffled order, before warming with
    /// the workload itself. A read miss admits its whole window at the
    /// miss offset, so random misses admit overlapping windows and a FIFO
    /// cache never settles; touching each window once fills it exactly.
    pub window_pass_bytes: u64,
    pub warmup: Warmup,
}

pub const MIXED_READERS: usize = 12;
pub const MIXED_WRITE_BYTES: u32 = 64 << 10;
pub const MIXED_FLUSH_EVERY: u64 = MIB;
pub const MIXED_TAIL_BYTES: u64 = 256 * MIB;

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        Some(match name {
            "varmail" => Spec {
                kind: Kind::Varmail,
                name: "varmail",
                volume_bytes: 512 * MIB,
                span_bytes: 512 * MIB,
                hot_bytes: 0,
                prefill: Prefill::Sequential { bytes: 512 * MIB },
                window_pass_bytes: 0,
                warmup: Warmup::Slices(1),
            },
            "randread-hot" => Spec {
                kind: Kind::RandreadHot,
                name: "randread-hot",
                volume_bytes: 64 * MIB,
                span_bytes: 64 * MIB,
                hot_bytes: 64 * MIB,
                prefill: Prefill::Sequential { bytes: 64 * MIB },
                window_pass_bytes: 64 * MIB,
                warmup: Warmup::HitRatio {
                    min: 0.995,
                    tol: 0.002,
                    max_slices: 40,
                },
            },
            "mixed-cold" => Spec {
                kind: Kind::MixedCold,
                name: "mixed-cold",
                volume_bytes: 1024 * MIB + MIXED_TAIL_BYTES,
                span_bytes: 1024 * MIB,
                hot_bytes: 64 * MIB,
                prefill: Prefill::Scattered { bytes: 1024 * MIB },
                window_pass_bytes: 0,
                warmup: Warmup::HitRatio {
                    min: 0.0,
                    tol: 0.02,
                    max_slices: 4,
                },
            },
            _ => return None,
        })
    }

    pub fn blocks(&self) -> u64 {
        self.volume_bytes / BLOCK as u64
    }

    /// The generator for global stream `g` in run phase `phase`.
    pub fn stream(&self, seed: u64, phase: u64, g: usize) -> Box<dyn Gen> {
        let s = derive(seed, phase, g as u64);
        match self.kind {
            Kind::Varmail => Box::new(Varmail(
                FilebenchSpec {
                    personality: Personality::Varmail,
                    span_bytes: self.span_bytes,
                    seed: s,
                }
                .thread(g, STREAMS),
            )),
            Kind::RandreadHot => Box::new(ZonedReads {
                rng: Rng::new(s),
                hot_bytes: self.hot_bytes,
                span_bytes: self.span_bytes,
                hot_share: 1.0,
            }),
            Kind::MixedCold if g < MIXED_READERS => Box::new(ZonedReads {
                rng: Rng::new(s),
                hot_bytes: self.hot_bytes,
                span_bytes: self.span_bytes,
                hot_share: 0.8,
            }),
            Kind::MixedCold => {
                let w = (g - MIXED_READERS) as u64;
                let region = MIXED_TAIL_BYTES / (STREAMS - MIXED_READERS) as u64;
                let lo = self.span_bytes + w * region;
                let step = u64::from(MIXED_WRITE_BYTES);
                Box::new(SeqWriter {
                    lo,
                    hi: lo + region,
                    pos: lo + Rng::new(s).below(region / step) * step,
                    since_flush: 0,
                })
            }
        }
    }
}

/// The repository's Filebench varmail model, one thread per stream.
struct Varmail(workloads::filebench::FilebenchGen);

impl Gen for Varmail {
    fn next(&mut self) -> Op {
        loop {
            return match self.0.next_op() {
                IoOp::Read { lba, sectors } => Op::Read {
                    off: lba * 512,
                    len: sectors * 512,
                },
                IoOp::Write { lba, sectors } => Op::Write {
                    off: lba * 512,
                    len: sectors * 512,
                },
                IoOp::Flush => Op::Flush,
                IoOp::Sleep { .. } => continue,
            };
        }
    }
}

/// 4 KiB reads: a `hot_share` fraction uniform over `[0, hot_bytes)`, the
/// rest uniform over `[hot_bytes, span_bytes)`.
struct ZonedReads {
    rng: Rng,
    hot_bytes: u64,
    span_bytes: u64,
    hot_share: f64,
}

impl Gen for ZonedReads {
    fn next(&mut self) -> Op {
        let blk = BLOCK as u64;
        let hot = self.hot_share >= 1.0
            || (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= self.hot_share;
        let block = if hot {
            self.rng.below(self.hot_bytes / blk)
        } else {
            let cold = (self.span_bytes - self.hot_bytes) / blk;
            self.hot_bytes / blk + self.rng.below(cold)
        };
        Op::Read {
            off: block * blk,
            len: BLOCK as u32,
        }
    }
}

/// 64 KiB sequential writes over `[lo, hi)`, wrapping, with a FLUSH after
/// every [`MIXED_FLUSH_EVERY`] bytes.
struct SeqWriter {
    lo: u64,
    hi: u64,
    pos: u64,
    since_flush: u64,
}

impl Gen for SeqWriter {
    fn next(&mut self) -> Op {
        if self.since_flush >= MIXED_FLUSH_EVERY {
            self.since_flush = 0;
            return Op::Flush;
        }
        if self.pos >= self.hi {
            self.pos = self.lo;
        }
        let off = self.pos;
        self.pos += u64::from(MIXED_WRITE_BYTES);
        self.since_flush += u64::from(MIXED_WRITE_BYTES);
        Op::Write {
            off,
            len: MIXED_WRITE_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_stay_in_bounds() {
        for name in ["varmail", "randread-hot", "mixed-cold"] {
            let spec = Spec::by_name(name).unwrap();
            for g in 0..STREAMS {
                let mut a = spec.stream(7, 1, g);
                let mut b = spec.stream(7, 1, g);
                for _ in 0..2000 {
                    let op = a.next();
                    assert_eq!(op, b.next());
                    if let Op::Read { off, len } | Op::Write { off, len } = op {
                        assert_eq!(off % BLOCK as u64, 0, "{name}");
                        assert_eq!(len as usize % BLOCK, 0, "{name}");
                        assert!(off + u64::from(len) <= spec.volume_bytes, "{name}");
                    }
                }
            }
        }
    }

    #[test]
    fn mixed_cold_readers_and_writers_keep_apart() {
        let spec = Spec::by_name("mixed-cold").unwrap();
        let mut hot = 0;
        let mut r = spec.stream(3, 0, 0);
        for _ in 0..10_000 {
            match r.next() {
                Op::Read { off, .. } => {
                    assert!(off < spec.span_bytes);
                    hot += usize::from(off < spec.hot_bytes);
                }
                op => panic!("reader issued {op:?}"),
            }
        }
        assert!((7_500..8_500).contains(&hot), "hot share {hot}");
        let mut w = spec.stream(3, 0, STREAMS - 1);
        let ops: Vec<Op> = (0..17).map(|_| w.next()).collect();
        assert!(ops[..16]
            .iter()
            .all(|op| matches!(op, Op::Write { off, .. } if *off >= spec.span_bytes)));
        assert_eq!(ops[16], Op::Flush);
    }
}
