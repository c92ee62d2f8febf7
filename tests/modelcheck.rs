//! Crash-state model checking sweep (ISSUE 6 tentpole).
//!
//! Runs the seeded explorer: randomized op streams through a real volume
//! killed at trace-event edges, recovered, and differentially checked
//! against the oracle disk model. Quick mode (the default, CI-sized)
//! covers hundreds of distinct (schedule × crash-edge × cache-loss ×
//! fault-profile) states; `LSVD_MC_DEEP=1` scales to thousands,
//! multi-threaded.
//!
//! Environment knobs (shared with `tests/fault_sweep.rs`):
//!
//! - `LSVD_MC_DEEP=1` — deep sweep;
//! - `LSVD_SWEEP_SEED=<n>` — pin the sweep to one base seed;
//! - `LSVD_SWEEP_RUNS=<n>` — sweep base seeds `1..=n`;
//! - `LSVD_MC_REPRO="seed=… profile=… faults=… mode=… cache=… crash=…"`
//!   — skip the sweep and replay exactly one case (paste the coordinate
//!   part of a `MC-REPRO` failure line, or the whole line).

use modelcheck::{explore, run_case, ExploreConfig, Faults, McCase, Profile};

/// Replays `LSVD_MC_REPRO` if set; returns whether it handled the run.
fn maybe_replay_repro() -> bool {
    let Ok(line) = std::env::var("LSVD_MC_REPRO") else {
        return false;
    };
    let coords = line.strip_prefix("MC-REPRO ").unwrap_or(&line);
    let case = McCase::parse(coords).expect("LSVD_MC_REPRO must hold case coordinates");
    eprintln!("replaying: {case}");
    match run_case(&case) {
        Ok(report) => eprintln!(
            "PASS: {} events, crashed={}, cut={}",
            report.total_events, report.crashed, report.cut
        ),
        Err(f) => panic!("{f}"),
    }
    true
}

#[test]
fn crash_state_sweep() {
    if maybe_replay_repro() {
        return;
    }
    let cfg = ExploreConfig::from_env();
    let report = explore(&cfg);
    eprintln!("model check: {} states explored", report.states);
    assert!(
        report.states >= 500,
        "sweep must cover >= 500 distinct states, got {}",
        report.states
    );
    if !report.failures.is_empty() {
        for f in &report.failures {
            eprintln!("{f}");
        }
        panic!(
            "{} of {} crash states violated the recovery contract (reproducer lines above; \
             replay one with LSVD_MC_REPRO)",
            report.failures.len(),
            report.states
        );
    }
}

/// A serial-mode case is a pure function of its coordinates: the same
/// `McCase` must crash at the same edge and recover the same prefix, so
/// every reproducer line replays deterministically.
#[test]
fn serial_reproducer_lines_replay_deterministically() {
    let base = McCase::parse("seed=21 profile=gc-interleaved faults=outage mode=serial").unwrap();
    let profile = run_case(&base).unwrap_or_else(|f| panic!("{f}"));
    assert!(profile.total_events > 0);
    // Crash at a mid-stream edge, both with and without the cache.
    let edge = profile.events[profile.events.len() / 3].0;
    for lose_cache in [false, true] {
        let case = McCase {
            crash_event: Some(edge),
            lose_cache,
            ..base.clone()
        };
        let a = run_case(&case).unwrap_or_else(|f| panic!("{f}"));
        let b = run_case(&case).unwrap_or_else(|f| panic!("{f}"));
        assert!(a.crashed && b.crashed, "the controller must fire");
        assert_eq!(a.crash_edge, b.crash_edge, "same edge both runs");
        assert_eq!(a.cut, b.cut, "same recovered prefix both runs");
        assert_eq!(a.total_events, b.total_events);
    }
}

/// Golden digests of every serial profiling run (crash=none, cache kept)
/// over seeds 1–4 × every profile × every fault schedule:
/// `(coordinates, total_events, recovered cut, FNV-1a of the (id, kind)
/// trace)`. Serial writeback is the pipelined engine driven by a
/// zero-worker pool, and it must stay edge-for-edge what the dedicated
/// serial engine it replaced produced: one inline attempt per seal,
/// backpressure or drain point, each PUT applied in the call that issued
/// it. A mismatch prints the fresh rows; paste them here only when a
/// trace change is intended.
#[rustfmt::skip]
const SERIAL_TRACE_PINS: &[(&str, u64, u64, u64)] = &[
    ("seed=1 profile=overwrite-heavy faults=none", 176, 39, 0xBA743C55FFB1DBF1),
    ("seed=1 profile=overwrite-heavy faults=mild", 176, 39, 0xBA743C55FFB1DBF1),
    ("seed=1 profile=overwrite-heavy faults=outage", 167, 39, 0x478122913E40722B),
    ("seed=1 profile=overwrite-heavy faults=gc-get-outage", 171, 39, 0xC8A161AEADF11897),
    ("seed=1 profile=trim-heavy faults=none", 90, 39, 0xB2FA549F7199FBAC),
    ("seed=1 profile=trim-heavy faults=mild", 90, 39, 0xB2FA549F7199FBAC),
    ("seed=1 profile=trim-heavy faults=outage", 90, 39, 0xC6623B09CC060DF0),
    ("seed=1 profile=trim-heavy faults=gc-get-outage", 86, 39, 0x2C084229BF4D0B4C),
    ("seed=1 profile=flush-mixed faults=none", 83, 28, 0x3374B12BE745B1B6),
    ("seed=1 profile=flush-mixed faults=mild", 83, 28, 0x3374B12BE745B1B6),
    ("seed=1 profile=flush-mixed faults=outage", 87, 28, 0x1285B9A05394CF8E),
    ("seed=1 profile=flush-mixed faults=gc-get-outage", 83, 28, 0x02A418DF2ED45570),
    ("seed=1 profile=gc-interleaved faults=none", 127, 40, 0x771F6666FD4E9957),
    ("seed=1 profile=gc-interleaved faults=mild", 127, 40, 0x771F6666FD4E9957),
    ("seed=1 profile=gc-interleaved faults=outage", 127, 40, 0x6029E053626CA35B),
    ("seed=1 profile=gc-interleaved faults=gc-get-outage", 118, 40, 0x86DB89363C81DE7C),
    ("seed=1 profile=trim-race faults=none", 74, 34, 0xFD24A5F12D16A4E3),
    ("seed=1 profile=trim-race faults=mild", 74, 34, 0xFD24A5F12D16A4E3),
    ("seed=1 profile=trim-race faults=outage", 83, 34, 0xB770A162AFAB1292),
    ("seed=1 profile=trim-race faults=gc-get-outage", 74, 34, 0x1C7AD052AFAA0497),
    ("seed=2 profile=overwrite-heavy faults=none", 177, 42, 0x174FCF2CBFC5FB32),
    ("seed=2 profile=overwrite-heavy faults=mild", 177, 42, 0x174FCF2CBFC5FB32),
    ("seed=2 profile=overwrite-heavy faults=outage", 174, 42, 0x7B4FBCA45A48B9D0),
    ("seed=2 profile=overwrite-heavy faults=gc-get-outage", 168, 42, 0xE6ED5B1ACA681DBB),
    ("seed=2 profile=trim-heavy faults=none", 88, 36, 0xD37F92713B9406E3),
    ("seed=2 profile=trim-heavy faults=mild", 88, 36, 0xD37F92713B9406E3),
    ("seed=2 profile=trim-heavy faults=outage", 88, 36, 0xDB12B9BAAAF4CD43),
    ("seed=2 profile=trim-heavy faults=gc-get-outage", 83, 36, 0x173BB4E1F0685E93),
    ("seed=2 profile=flush-mixed faults=none", 59, 29, 0xC479C5BACE4FCE12),
    ("seed=2 profile=flush-mixed faults=mild", 59, 29, 0xC479C5BACE4FCE12),
    ("seed=2 profile=flush-mixed faults=outage", 69, 29, 0x0E3D19326CB267F7),
    ("seed=2 profile=flush-mixed faults=gc-get-outage", 59, 29, 0x2C75A9D2E5AB33AA),
    ("seed=2 profile=gc-interleaved faults=none", 136, 38, 0x67FA3B9309017484),
    ("seed=2 profile=gc-interleaved faults=mild", 136, 38, 0x67FA3B9309017484),
    ("seed=2 profile=gc-interleaved faults=outage", 142, 38, 0xC386DA12362DAE11),
    ("seed=2 profile=gc-interleaved faults=gc-get-outage", 135, 38, 0xB7D4AE2D396E137A),
    ("seed=2 profile=trim-race faults=none", 85, 35, 0xE80AFD3A8FBC5B1F),
    ("seed=2 profile=trim-race faults=mild", 85, 35, 0xE80AFD3A8FBC5B1F),
    ("seed=2 profile=trim-race faults=outage", 77, 35, 0x0D187BB247BADFA7),
    ("seed=2 profile=trim-race faults=gc-get-outage", 85, 35, 0x6E65E6B4B7D8C163),
    ("seed=3 profile=overwrite-heavy faults=none", 125, 36, 0xB414960A3797A820),
    ("seed=3 profile=overwrite-heavy faults=mild", 125, 36, 0xB414960A3797A820),
    ("seed=3 profile=overwrite-heavy faults=outage", 129, 36, 0xF403C01A03D7C67C),
    ("seed=3 profile=overwrite-heavy faults=gc-get-outage", 125, 36, 0xAC56D0D7E65A2504),
    ("seed=3 profile=trim-heavy faults=none", 83, 35, 0x5FD203582979BB45),
    ("seed=3 profile=trim-heavy faults=mild", 83, 35, 0x5FD203582979BB45),
    ("seed=3 profile=trim-heavy faults=outage", 83, 35, 0x98A0FE0901C3E0F1),
    ("seed=3 profile=trim-heavy faults=gc-get-outage", 83, 35, 0x3BC0A963AC86FD83),
    ("seed=3 profile=flush-mixed faults=none", 91, 35, 0x78DDF4E5F9C27A5E),
    ("seed=3 profile=flush-mixed faults=mild", 91, 35, 0x78DDF4E5F9C27A5E),
    ("seed=3 profile=flush-mixed faults=outage", 100, 35, 0x53D28620D0B0D3DA),
    ("seed=3 profile=flush-mixed faults=gc-get-outage", 91, 35, 0xE1B36ED78ABB4726),
    ("seed=3 profile=gc-interleaved faults=none", 150, 41, 0x27FC63CDDF659A56),
    ("seed=3 profile=gc-interleaved faults=mild", 150, 41, 0x27FC63CDDF659A56),
    ("seed=3 profile=gc-interleaved faults=outage", 133, 41, 0x85103AC8AE04CD7A),
    ("seed=3 profile=gc-interleaved faults=gc-get-outage", 125, 41, 0x37C98638143E26BA),
    ("seed=3 profile=trim-race faults=none", 76, 33, 0x287DA4B681A30706),
    ("seed=3 profile=trim-race faults=mild", 76, 33, 0x287DA4B681A30706),
    ("seed=3 profile=trim-race faults=outage", 67, 33, 0x5CC754A9CE8694BF),
    ("seed=3 profile=trim-race faults=gc-get-outage", 72, 33, 0x3F6245A51EAFBBAE),
    ("seed=4 profile=overwrite-heavy faults=none", 129, 37, 0x49662805AC4701FE),
    ("seed=4 profile=overwrite-heavy faults=mild", 129, 37, 0x49662805AC4701FE),
    ("seed=4 profile=overwrite-heavy faults=outage", 133, 37, 0xB2D26E50B8833352),
    ("seed=4 profile=overwrite-heavy faults=gc-get-outage", 132, 37, 0x3CD1743370D8435D),
    ("seed=4 profile=trim-heavy faults=none", 119, 33, 0xECC4025BF84A96C5),
    ("seed=4 profile=trim-heavy faults=mild", 119, 33, 0xECC4025BF84A96C5),
    ("seed=4 profile=trim-heavy faults=outage", 118, 33, 0x09378A4DCDDC38F6),
    ("seed=4 profile=trim-heavy faults=gc-get-outage", 115, 33, 0x8FCB17EEFC84A121),
    ("seed=4 profile=flush-mixed faults=none", 72, 25, 0x93D1A24510EAD430),
    ("seed=4 profile=flush-mixed faults=mild", 72, 25, 0x93D1A24510EAD430),
    ("seed=4 profile=flush-mixed faults=outage", 67, 25, 0x646215E4510B12EE),
    ("seed=4 profile=flush-mixed faults=gc-get-outage", 67, 25, 0x646215E4510B12EE),
    ("seed=4 profile=gc-interleaved faults=none", 127, 38, 0x0B25BA9CCDA88A6E),
    ("seed=4 profile=gc-interleaved faults=mild", 127, 38, 0x0B25BA9CCDA88A6E),
    ("seed=4 profile=gc-interleaved faults=outage", 127, 38, 0x0B25BA9CCDA88A6E),
    ("seed=4 profile=gc-interleaved faults=gc-get-outage", 122, 38, 0x2EB271B9CD2A664B),
    ("seed=4 profile=trim-race faults=none", 77, 34, 0x8DDAF105390FF66D),
    ("seed=4 profile=trim-race faults=mild", 77, 34, 0x8DDAF105390FF66D),
    ("seed=4 profile=trim-race faults=outage", 81, 34, 0x2EAA49859DC83B3B),
    ("seed=4 profile=trim-race faults=gc-get-outage", 73, 34, 0x1FA2FF651B7EF1B5),
];

/// FNV-1a over the ordered `(id, kind)` trace edges.
fn trace_digest(events: &[(u64, &'static str)]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    };
    for (id, kind) in events {
        eat(&id.to_le_bytes());
        eat(kind.as_bytes());
        eat(&[0xFF]);
    }
    h
}

#[test]
fn serial_traces_match_pinned_digests() {
    let mut fresh = Vec::new();
    for seed in 1..=4 {
        for profile in Profile::ALL {
            for faults in Faults::ALL {
                let case = McCase {
                    seed,
                    profile,
                    faults,
                    pipelined: false,
                    lose_cache: false,
                    crash_event: None,
                };
                let r = run_case(&case).unwrap_or_else(|f| panic!("{f}"));
                let coords = case
                    .to_string()
                    .replace(" mode=serial cache=kept crash=none", "");
                fresh.push((coords, r.total_events, r.cut, trace_digest(&r.events)));
            }
        }
    }
    let pinned = |i: usize, (k, n, cut, d): &(String, u64, u64, u64)| {
        SERIAL_TRACE_PINS.get(i) == Some(&(k.as_str(), *n, *cut, *d))
    };
    if fresh.len() != SERIAL_TRACE_PINS.len()
        || !fresh.iter().enumerate().all(|(i, r)| pinned(i, r))
    {
        for (i, row @ (k, n, cut, d)) in fresh.iter().enumerate() {
            let mark = if pinned(i, row) { ' ' } else { '!' };
            eprintln!("{mark}   ({k:?}, {n}, {cut}, 0x{d:016X}),");
        }
        panic!("serial writeback traces drifted from the pinned table (rows marked ! changed)");
    }
}
