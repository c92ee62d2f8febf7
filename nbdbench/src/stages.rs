//! Joins the program's request spans to the benchmark's client spans and
//! splits each request's latency into per-stage self times: the paper's
//! Table 6, measured on this code.
//!
//! The server mints request ids at decode, in each connection's send
//! order, and its `Dispatch` span names the connection (`arg_b`). So the
//! k-th request id seen on a connection is the k-th request the benchmark
//! sent on it; the `Decode` span's command and length confirm each pair.
//! Pipeline spans (`BatchSeal`, `Put`) carry no request id: with serial
//! writeback they run inline inside the one mutation the ordered lane is
//! executing, so each is attributed to the write or flush `Dispatch` that
//! contains it in time.

use std::collections::{BTreeMap, HashMap};

use nbd::proto::{CMD_FLUSH, CMD_READ, CMD_WRITE};
use telemetry::{Span, Stage};

use crate::load::{Cmd, OpRec};
use crate::stats::covered;

/// Stages whose self time the benchmark reports.
pub const REPORTED: [Stage; 8] = [
    Stage::Decode,
    Stage::Dispatch,
    Stage::Read,
    Stage::FetchLead,
    Stage::WlogAppend,
    Stage::Flush,
    Stage::BatchSeal,
    Stage::Put,
];

/// Per command: requests joined, summed latency, summed self time per
/// stage, and summed unexplained time (ns).
pub type CmdTotals = (u64, u64, BTreeMap<Stage, u64>, u64);

#[derive(Default)]
pub struct Breakdown {
    /// Self times (ns) per stage, over every joined request.
    pub self_ns: BTreeMap<Stage, Vec<u64>>,
    /// Client latency not covered by any program span (ns).
    pub unexplained_ns: Vec<u64>,
    /// Per command totals, for the mean breakdown.
    pub per_cmd: BTreeMap<&'static str, CmdTotals>,
    pub traced: usize,
    pub joined: usize,
}

fn cmd_code(c: Cmd) -> u64 {
    u64::from(match c {
        Cmd::Read => CMD_READ,
        Cmd::Write => CMD_WRITE,
        Cmd::Flush => CMD_FLUSH,
    })
}

fn cmd_name(c: Cmd) -> &'static str {
    match c {
        Cmd::Read => "read",
        Cmd::Write => "write",
        Cmd::Flush => "flush",
    }
}

/// `recs`: client ops of the traced phase, whose connections were opened
/// in index order on a server with no other clients. `spans`: everything
/// drained from the ring in that phase. `offset_ns`: benchmark clock minus
/// ring clock.
pub fn join(recs: &[OpRec], spans: &[Span], offset_ns: i64) -> Breakdown {
    let mut b = Breakdown {
        traced: recs.len(),
        ..Default::default()
    };
    let to_ns = |us: u64| (us as i64 * 1000 + offset_ns).max(0) as u64;

    let mut by_req: HashMap<u64, Vec<&Span>> = HashMap::new();
    let mut pipeline: Vec<&Span> = Vec::new();
    for s in spans {
        if s.req != 0 {
            by_req.entry(s.req).or_default().push(s);
        } else if matches!(s.stage, Stage::BatchSeal | Stage::Put) {
            pipeline.push(s);
        }
    }

    // Connection id -> that connection's request ids in send order.
    let mut per_conn: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.stage == Stage::Dispatch && s.req != 0)
    {
        per_conn.entry(s.arg_b).or_default().push(s.req);
    }
    let conn_reqs: Vec<Vec<u64>> = per_conn
        .into_values()
        .map(|mut v| {
            v.sort_unstable();
            v
        })
        .collect();

    let find = |req: u64, stage: Stage| {
        by_req
            .get(&req)
            .and_then(|v| v.iter().find(|s| s.stage == stage).copied())
    };

    // Pair client ops with request ids, confirming each by its decode.
    let mut joined: Vec<(&OpRec, u64)> = Vec::new();
    for r in recs {
        let Some(&req) = conn_reqs
            .get(r.conn)
            .and_then(|v| v.get(r.send_idx as usize))
        else {
            continue;
        };
        let ok = find(req, Stage::Decode)
            .is_some_and(|d| d.arg_a == cmd_code(r.cmd) && d.arg_b == r.bytes);
        if ok {
            joined.push((r, req));
        }
    }
    b.joined = joined.len();

    // Ordered-lane dispatches, for pipeline attribution.
    let mut ordered: Vec<&Span> = joined
        .iter()
        .filter(|(r, _)| r.cmd != Cmd::Read)
        .filter_map(|&(_, req)| find(req, Stage::Dispatch))
        .collect();
    ordered.sort_by_key(|s| s.t_start_us);
    let mut attributed: HashMap<u64, Vec<&Span>> = HashMap::new();
    for p in &pipeline {
        b.self_ns
            .entry(p.stage)
            .or_default()
            .push((p.t_end_us - p.t_start_us) * 1000);
        let i = ordered.partition_point(|d| d.t_start_us <= p.t_start_us);
        if let Some(d) = i.checked_sub(1).map(|i| ordered[i]) {
            if p.t_end_us <= d.t_end_us {
                attributed.entry(d.id).or_default().push(p);
            }
        }
    }

    for (r, req) in joined {
        let own = &by_req[&req];
        let ids: HashMap<u64, &Span> = own.iter().map(|s| (s.id, *s)).collect();
        // Parent of each span within this request's tree; 0 is the client.
        let parent_of = |s: &Span| {
            if s.stage == Stage::Dispatch || !ids.contains_key(&s.parent) {
                0
            } else {
                s.parent
            }
        };
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in own {
            children
                .entry(parent_of(s))
                .or_default()
                .push((to_ns(s.t_start_us), to_ns(s.t_end_us)));
        }
        let mut nodes: Vec<(Stage, u64, u64, u64)> = own
            .iter()
            .map(|s| (s.stage, s.id, to_ns(s.t_start_us), to_ns(s.t_end_us)))
            .collect();
        for d in own.iter().filter(|s| s.stage == Stage::Dispatch) {
            for p in attributed.get(&d.id).into_iter().flatten() {
                let iv = (to_ns(p.t_start_us), to_ns(p.t_end_us));
                children.entry(d.id).or_default().push(iv);
            }
        }
        let lat = r.done_ns - r.sent_ns;
        let entry = b
            .per_cmd
            .entry(cmd_name(r.cmd))
            .or_insert_with(|| (0, 0, BTreeMap::new(), 0));
        entry.0 += 1;
        entry.1 += lat;
        let root = children
            .get_mut(&0)
            .map_or(0, |iv| covered(iv, r.sent_ns, r.done_ns));
        let unexplained = lat - root.min(lat);
        b.unexplained_ns.push(unexplained);
        entry.3 += unexplained;
        for (stage, id, s, e) in nodes.drain(..) {
            let kids = children.get_mut(&id).map_or(0, |iv| covered(iv, s, e));
            let self_ns = (e - s).saturating_sub(kids);
            b.self_ns.entry(stage).or_default().push(self_ns);
            *entry.2.entry(stage).or_default() += self_ns;
        }
        // Attributed pipeline spans count toward the mutation they
        // stalled (their self time was recorded once above).
        for d in own.iter().filter(|s| s.stage == Stage::Dispatch) {
            for p in attributed.get(&d.id).into_iter().flatten() {
                *entry.2.entry(p.stage).or_default() += (p.t_end_us - p.t_start_us) * 1000;
            }
        }
    }
    for v in b.self_ns.values_mut() {
        v.sort_unstable();
    }
    b.unexplained_ns.sort_unstable();
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, req: u64, stage: Stage, t: (u64, u64), a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            req,
            stage,
            t_start_us: t.0,
            t_end_us: t.1,
            virt: 0,
            arg_a: a,
            arg_b: b,
        }
    }

    fn rec(cmd: Cmd, conn: usize, idx: u64, t: (u64, u64), bytes: u64) -> OpRec {
        OpRec {
            cmd,
            conn,
            send_idx: idx,
            sent_ns: t.0 * 1000,
            done_ns: t.1 * 1000,
            bytes,
            failed: false,
            mismatch: false,
        }
    }

    #[test]
    fn self_times_and_unexplained_sum_to_latency() {
        // One write on conn 7 (benchmark conn 0): decode 2us, dispatch
        // 40us holding a 5us wlog append and an inline 20us PUT.
        let spans = vec![
            span(1, 0, 5, Stage::Decode, (10, 12), u64::from(CMD_WRITE), 4096),
            span(2, 1, 5, Stage::Dispatch, (15, 55), 0, 7),
            span(3, 2, 5, Stage::WlogAppend, (16, 21), 1, 4096),
            span(4, 0, 0, Stage::Put, (25, 45), 9, 0),
            // A read on conn 8 (benchmark conn 1).
            span(5, 0, 6, Stage::Decode, (11, 11), u64::from(CMD_READ), 4096),
            span(6, 5, 6, Stage::Dispatch, (13, 30), 0, 8),
            span(7, 6, 6, Stage::Read, (14, 29), 0, 4096),
        ];
        let recs = vec![
            rec(Cmd::Write, 0, 0, (5, 60), 4096),
            rec(Cmd::Read, 1, 0, (9, 33), 4096),
        ];
        let b = join(&recs, &spans, 0);
        assert_eq!((b.traced, b.joined), (2, 2));
        let (n, lat, stages, unexplained) = &b.per_cmd["write"];
        assert_eq!((*n, *lat), (1, 55_000));
        assert_eq!(stages[&Stage::Decode], 2_000);
        assert_eq!(stages[&Stage::Dispatch], 40_000 - 5_000 - 20_000);
        assert_eq!(stages[&Stage::WlogAppend], 5_000);
        assert_eq!(stages[&Stage::Put], 20_000);
        assert_eq!(*unexplained, 55_000 - 2_000 - 40_000);
        let (_, _, rstages, runexplained) = &b.per_cmd["read"];
        assert_eq!(rstages[&Stage::Dispatch], 2_000);
        assert_eq!(rstages[&Stage::Read], 15_000);
        assert_eq!(*runexplained, 24_000 - 17_000);
    }

    #[test]
    fn mismatched_decode_is_not_joined() {
        let spans = vec![
            span(1, 0, 5, Stage::Decode, (10, 12), u64::from(CMD_READ), 4096),
            span(2, 1, 5, Stage::Dispatch, (15, 55), 0, 7),
        ];
        let recs = vec![rec(Cmd::Write, 0, 0, (5, 60), 4096)];
        assert_eq!(join(&recs, &spans, 0).joined, 0);
    }
}
