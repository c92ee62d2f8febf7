//! Fleet request scheduler: per-tenant two-lane queues, deficit
//! round-robin fairness, and QoS token buckets.
//!
//! Every export (tenant) owns two queues:
//!
//! - the **ordered lane** (WRITE / FLUSH / TRIM): at most one job per
//!   export is in service at a time (`ordered_active`), and jobs leave in
//!   arrival order — so per-export acknowledgement order equals cache-log
//!   order, the prefix-consistency contract, while two *different*
//!   tenants' mutations proceed in parallel on different volumes;
//! - the **read lane**: any number of jobs in service concurrently (the
//!   volume read plane is lock-split for exactly this).
//!
//! A shared worker pool pulls from all tenants through [`FleetScheduler::
//! pop`], which scans tenants round-robin under a deficit scheme: each
//! dispatch debits the tenant's byte deficit, and when every tenant with
//! runnable work is in debt, all deficits recharge by one quantum — so a
//! tenant blasting 64 KiB requests cannot starve one issuing 4 KiB
//! requests (byte-fair, not request-fair).
//!
//! QoS ceilings ride on top: each tenant has a token bucket refilled at
//! its [`QosLimits`](lsvd::fleet::QosLimits) rates. A job whose tenant
//! is out of tokens stays queued (counted once as a throttle wait in the
//! tenant's telemetry) and workers sleep until the earliest refill.
//! Fenced (detaching) exports and server drain bypass the buckets so
//! teardown is never throttled.
//!
//! Reads the reactor serves itself (read-cache hits, see `reactor.rs`)
//! never enter a queue, but they pay the same toll:
//! [`FleetScheduler::try_admit_inline`] debits the same bucket and deficit
//! `pick` would, and sends the read to the queue whenever `pick` would
//! have made it wait.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use lsvd::fleet::Export;
use std::sync::Arc;
use telemetry::{SpanRing, TraceEvent};

use crate::proto::{Request, CMD_READ};

/// Bytes of deficit granted per recharge round. One quantum admits one
/// maximal request (32 MiB requests debit across many rounds, which is
/// the point: they pay for their size).
const QUANTUM: i64 = 256 << 10;

/// One queued request, carrying everything a worker needs to service it
/// and everything the reactor needs to route the reply.
pub(crate) struct Job {
    /// Reactor connection id the reply routes back to.
    pub conn: u64,
    pub req: Request,
    /// WRITE payload (empty otherwise).
    pub data: Vec<u8>,
    pub export: Arc<Export>,
    /// The export's span ring (request ids were minted from it at decode).
    pub spans: Arc<SpanRing>,
    pub enqueued: Instant,
    /// Request id minted at command decode; 0 when tracing is off.
    pub req_id: u64,
    /// Span id of the decode span, parent of the dispatch span.
    pub parent_span: u64,
    /// A throttle wait has been counted for this job already.
    throttle_counted: bool,
    /// Internal connection-lifecycle trace event: the job only notes this
    /// on the volume (which may block on the volume mutex — exactly why it
    /// runs on a worker, never the reactor thread) and posts no reply. It
    /// rides the ordered lane so a connection's `ConnOpen` always lands
    /// before its requests and its `ConnClose`, and it bypasses QoS and
    /// fairness accounting — lifecycle noise must not spend a tenant's
    /// tokens or delay its real mutations behind a token refill.
    pub note: Option<TraceEvent>,
}

impl Job {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        conn: u64,
        req: Request,
        data: Vec<u8>,
        export: Arc<Export>,
        spans: Arc<SpanRing>,
        req_id: u64,
        parent_span: u64,
        enqueued: Instant,
    ) -> Job {
        Job {
            conn,
            req,
            data,
            export,
            spans,
            enqueued,
            req_id,
            parent_span,
            throttle_counted: false,
            note: None,
        }
    }

    /// An internal connection-lifecycle note (see [`Job::note`]).
    pub(crate) fn conn_event(
        conn: u64,
        export: Arc<Export>,
        spans: Arc<SpanRing>,
        event: TraceEvent,
    ) -> Job {
        Job {
            conn,
            req: Request {
                flags: 0,
                cmd: 0,
                cookie: 0,
                offset: 0,
                length: 0,
            },
            data: Vec::new(),
            export,
            spans,
            enqueued: Instant::now(),
            req_id: 0,
            parent_span: 0,
            throttle_counted: false,
            note: Some(event),
        }
    }

    pub(crate) fn is_internal(&self) -> bool {
        self.note.is_some()
    }

    fn is_mutation(&self) -> bool {
        self.is_internal() || self.req.cmd != CMD_READ
    }

    /// Byte cost charged to fairness and QoS accounting. Zero-length
    /// commands (FLUSH) still cost one sector so they cannot be free.
    pub(crate) fn cost(&self) -> u64 {
        u64::from(self.req.length).max(4096)
    }
}

/// A dispatched job plus its lane; the worker must call
/// [`FleetScheduler::ordered_done`] after an ordered job completes.
pub(crate) struct Picked {
    pub job: Job,
    pub ordered: bool,
}

/// Per-tenant QoS token bucket. Tokens refill continuously at the limit
/// rates and cap at one second's worth; a job is admitted when the
/// bucket is out of debt, then debits its cost (possibly into debt, so
/// a single oversized request is delayed, never wedged).
pub(crate) struct TokenBucket {
    iops: f64,
    bytes: f64,
    last: Instant,
}

impl TokenBucket {
    pub(crate) fn new(now: Instant) -> TokenBucket {
        TokenBucket {
            // Start full: the first refill caps these at the limit rate.
            iops: f64::INFINITY,
            bytes: f64::INFINITY,
            last: now,
        }
    }

    /// Tries to admit a job of `cost_bytes`. `Ok` debits the bucket;
    /// `Err` is the wait until admission would succeed.
    pub(crate) fn admit(
        &mut self,
        limits: lsvd::fleet::QosLimits,
        cost_bytes: u64,
        now: Instant,
    ) -> Result<(), Duration> {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        if limits.iops > 0 {
            self.iops = (self.iops + dt * limits.iops as f64).min(limits.iops as f64);
        }
        if limits.bytes_per_sec > 0 {
            self.bytes =
                (self.bytes + dt * limits.bytes_per_sec as f64).min(limits.bytes_per_sec as f64);
        }
        let mut wait = Duration::ZERO;
        if limits.iops > 0 && self.iops < 1.0 {
            wait = wait.max(Duration::from_secs_f64(
                (1.0 - self.iops) / limits.iops as f64,
            ));
        }
        if limits.bytes_per_sec > 0 && self.bytes < 0.0 {
            wait = wait.max(Duration::from_secs_f64(
                -self.bytes / limits.bytes_per_sec as f64,
            ));
        }
        if wait > Duration::ZERO {
            return Err(wait.max(Duration::from_millis(1)));
        }
        if limits.iops > 0 {
            self.iops -= 1.0;
        }
        if limits.bytes_per_sec > 0 {
            self.bytes -= cost_bytes as f64;
        }
        Ok(())
    }
}

struct Tenant {
    export: Arc<Export>,
    ordered: VecDeque<Job>,
    reads: VecDeque<Job>,
    /// An ordered-lane job is in service; the lane is frozen until
    /// [`FleetScheduler::ordered_done`].
    ordered_active: bool,
    /// Deficit round-robin credit, in bytes.
    deficit: i64,
    bucket: TokenBucket,
}

impl Tenant {
    fn queued(&self) -> usize {
        self.ordered.len() + self.reads.len()
    }

    /// Has a job `pick` could dispatch, QoS permitting.
    fn runnable(&self) -> bool {
        !self.reads.is_empty() || (!self.ordered_active && !self.ordered.is_empty())
    }
}

struct SchedState {
    tenants: Vec<Tenant>,
    /// Round-robin scan start.
    next: usize,
    stop: bool,
}

enum PickOutcome {
    Job(Box<Picked>),
    /// Runnable work exists but every candidate is out of QoS tokens;
    /// retry after this long.
    Throttled(Duration),
    /// Nothing runnable (queues empty, or only ordered lanes frozen
    /// behind in-service jobs).
    Idle,
}

/// The shared scheduler; see the module docs for the model.
pub(crate) struct FleetScheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl FleetScheduler {
    pub(crate) fn new() -> FleetScheduler {
        FleetScheduler {
            state: Mutex::new(SchedState {
                tenants: Vec::new(),
                next: 0,
                stop: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueues `job` on its export's lane.
    pub(crate) fn push(&self, job: Job) {
        let mut s = self.state.lock().unwrap();
        let idx = Self::tenant(&mut s, &job.export);
        if job.is_mutation() {
            s.tenants[idx].ordered.push_back(job);
        } else {
            s.tenants[idx].reads.push_back(job);
        }
        self.cv.notify_one();
    }

    /// Dequeues the next runnable job, blocking until one is available.
    /// Returns `None` once the scheduler is stopped *and* every queue has
    /// drained — workers use this as their exit condition, so a stop
    /// still services everything that was accepted.
    pub(crate) fn pop(&self) -> Option<Picked> {
        let mut s = self.state.lock().unwrap();
        loop {
            Self::prune(&mut s);
            match Self::pick(&mut s, Instant::now()) {
                PickOutcome::Job(p) => {
                    // Hand the rest to another worker — but only if there
                    // is a rest; a wakeup that finds nothing is wasted.
                    if s.tenants.iter().any(Tenant::runnable) {
                        self.cv.notify_one();
                    }
                    return Some(*p);
                }
                PickOutcome::Throttled(wait) => {
                    let (ns, _) = self
                        .cv
                        .wait_timeout(s, wait.min(Duration::from_millis(100)))
                        .unwrap();
                    s = ns;
                }
                PickOutcome::Idle => {
                    if s.stop && s.tenants.iter().all(|t| t.queued() == 0) {
                        return None;
                    }
                    // Parked: woken by push, ordered_done, or set_stop.
                    s = self.cv.wait(s).unwrap();
                }
            }
        }
    }

    /// Admission for a READ the reactor serves itself: debits `cost` from
    /// the tenant's token bucket and DRR deficit exactly as `pick` would
    /// for a queued read. Refuses (debiting nothing) when the read must
    /// take the queue instead: the tenant already has reads queued (no
    /// overtaking them), it is out of tokens (the queue counts and waits
    /// out the throttle), its deficit is spent while another tenant with
    /// runnable work still has credit, the export is fenced, or the
    /// scheduler is stopping. Callers ask only once they know the read
    /// can be served in place, so an admitted read is never handed back.
    pub(crate) fn try_admit_inline(&self, export: &Arc<Export>, cost: u64) -> bool {
        let mut s = self.state.lock().unwrap();
        if s.stop || export.is_fenced() {
            return false;
        }
        let i = Self::tenant(&mut s, export);
        if !s.tenants[i].reads.is_empty() {
            return false;
        }
        if s.tenants[i].deficit < 0 {
            // `pick` recharges once no tenant with runnable work has
            // credit left; until then the credited tenants go first.
            if s.tenants.iter().any(|t| t.deficit >= 0 && t.runnable()) {
                return false;
            }
            let debt = s.tenants[i].deficit;
            Self::recharge(&mut s, debt);
        }
        let t = &mut s.tenants[i];
        if t.bucket.admit(export.qos(), cost, Instant::now()).is_err() {
            return false;
        }
        t.deficit -= cost as i64;
        true
    }

    /// Unfreezes `export`'s ordered lane after an ordered job completes.
    pub(crate) fn ordered_done(&self, export: &str) {
        let mut s = self.state.lock().unwrap();
        if let Some(t) = s.tenants.iter_mut().find(|t| t.export.name() == export) {
            t.ordered_active = false;
        }
        drop(s);
        self.cv.notify_all();
    }

    /// Begins drain: no new pushes expected; `pop` returns `None` once
    /// dry. Queued jobs bypass QoS so the drain is prompt.
    pub(crate) fn set_stop(&self) {
        self.state.lock().unwrap().stop = true;
        self.cv.notify_all();
    }

    /// Total queued jobs (tests / drain monitoring).
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        self.state
            .lock()
            .unwrap()
            .tenants
            .iter()
            .map(Tenant::queued)
            .sum()
    }

    /// Index of `export`'s tenant, created on first use.
    fn tenant(s: &mut SchedState, export: &Arc<Export>) -> usize {
        let name = export.name();
        if let Some(i) = s.tenants.iter().position(|t| t.export.name() == name) {
            return i;
        }
        s.tenants.push(Tenant {
            export: export.clone(),
            ordered: VecDeque::new(),
            reads: VecDeque::new(),
            ordered_active: false,
            deficit: QUANTUM,
            bucket: TokenBucket::new(Instant::now()),
        });
        s.tenants.len() - 1
    }

    /// Runs as many DRR rounds as it takes to clear `debt` (at least
    /// one): every tenant's deficit grows by a quantum per round, capped
    /// at one quantum of credit. Clearing the debt at once matters after
    /// a request far above the quantum: one round per wakeup would leave
    /// its tenant's next jobs parked until unrelated work arrived.
    fn recharge(s: &mut SchedState, debt: i64) {
        let rounds = ((-debt).max(0) + QUANTUM - 1) / QUANTUM;
        let credit = rounds.max(1) * QUANTUM;
        for t in &mut s.tenants {
            t.deficit = (t.deficit + credit).min(QUANTUM);
        }
    }

    /// Drops tenants that detached and drained, so the round-robin scan
    /// doesn't grow without bound across attach/detach cycles.
    fn prune(s: &mut SchedState) {
        let before = s.tenants.len();
        s.tenants
            .retain(|t| t.queued() > 0 || t.ordered_active || !t.export.is_fenced());
        if s.tenants.len() != before {
            s.next = 0;
        }
    }

    fn pick(s: &mut SchedState, now: Instant) -> PickOutcome {
        let n = s.tenants.len();
        if n == 0 {
            return PickOutcome::Idle;
        }
        let stop = s.stop;
        let mut min_wait: Option<Duration> = None;
        // The smallest debt among tenants skipped for it.
        let mut least_debt: Option<i64> = None;
        for pass in 0..2 {
            for k in 0..n {
                let i = (s.next + k) % n;
                let t = &mut s.tenants[i];
                // Candidate lane: ordered first (mutation latency feeds
                // ack latency), reads otherwise.
                let from_ordered = !t.ordered_active && !t.ordered.is_empty();
                let job = if from_ordered {
                    t.ordered.front_mut()
                } else {
                    t.reads.front_mut()
                };
                let Some(job) = job else { continue };
                let internal = job.is_internal();
                if t.deficit < 0 && !internal {
                    // Spent this round; recharged between passes.
                    least_debt = Some(least_debt.map_or(t.deficit, |d| d.max(t.deficit)));
                    continue;
                }
                let cost = job.cost();
                // Fenced exports, server drain, and internal lifecycle
                // notes bypass QoS: teardown and tracing must not wait
                // for token refills.
                if !stop && !internal && !t.export.is_fenced() {
                    if let Err(wait) = t.bucket.admit(t.export.qos(), cost, now) {
                        if !job.throttle_counted {
                            job.throttle_counted = true;
                            t.export.recorders().count_throttle_wait();
                        }
                        min_wait = Some(min_wait.map_or(wait, |w| w.min(wait)));
                        continue;
                    }
                }
                if !internal {
                    t.deficit -= cost as i64;
                }
                let job = if from_ordered {
                    t.ordered_active = true;
                    t.ordered.pop_front().unwrap()
                } else {
                    t.reads.pop_front().unwrap()
                };
                s.next = (i + 1) % n;
                return PickOutcome::Job(Box::new(Picked {
                    job,
                    ordered: from_ordered,
                }));
            }
            if pass == 0 {
                Self::recharge(s, least_debt.unwrap_or(0));
            }
        }
        match min_wait {
            Some(w) => PickOutcome::Throttled(w),
            None => PickOutcome::Idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{CMD_FLUSH, CMD_WRITE};
    use blkdev::RamDisk;
    use lsvd::config::VolumeConfig;
    use lsvd::fleet::{ExportRegistry, QosLimits};
    use lsvd::shared::SharedVolume;
    use lsvd::volume::Volume;
    use objstore::MemStore;

    fn registry_with(names: &[&str]) -> (Arc<ExportRegistry>, Vec<Arc<Export>>) {
        let reg = Arc::new(ExportRegistry::new(None));
        let mut exports = Vec::new();
        for name in names {
            let store = Arc::new(MemStore::new());
            let dev = Arc::new(RamDisk::new(8 << 20));
            let vol = Volume::create(store, dev, name, 16 << 20, VolumeConfig::small_for_tests())
                .unwrap();
            exports.push(
                reg.attach(name, SharedVolume::new(vol), QosLimits::default())
                    .unwrap(),
            );
        }
        (reg, exports)
    }

    fn job(export: &Arc<Export>, cmd: u16, length: u32, cookie: u64) -> Job {
        let spans = export.volume().span_ring();
        Job::new(
            1,
            Request {
                flags: 0,
                cmd,
                cookie,
                offset: 0,
                length,
            },
            Vec::new(),
            export.clone(),
            spans,
            0,
            0,
            Instant::now(),
        )
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        let (_reg, exports) = registry_with(&["a", "b"]);
        let sched = FleetScheduler::new();
        // 3 reads per tenant, all the same size: dispatch must alternate.
        for i in 0..3 {
            sched.push(job(&exports[0], CMD_READ, 4096, i));
            sched.push(job(&exports[1], CMD_READ, 4096, 100 + i));
        }
        let mut order = Vec::new();
        for _ in 0..6 {
            let p = sched.pop().unwrap();
            order.push(p.job.export.name().to_string());
        }
        assert_eq!(order, ["a", "b", "a", "b", "a", "b"]);
        assert_eq!(sched.queued(), 0);
    }

    #[test]
    fn deficit_round_robin_is_byte_fair() {
        let (_reg, exports) = registry_with(&["big", "small"]);
        let sched = FleetScheduler::new();
        // "big" queues 256 KiB reads, "small" queues 4 KiB reads. Over a
        // window where big moves ~2 MiB, small must also move its jobs —
        // a request-fair scheduler would dispatch 1:1 and byte-starve
        // nobody, but a naive FIFO would let big's backlog monopolize.
        for i in 0..8 {
            sched.push(job(&exports[0], CMD_READ, 256 << 10, i));
        }
        for i in 0..8 {
            sched.push(job(&exports[1], CMD_READ, 4096, 100 + i));
        }
        // Pop 10 jobs; count small's share.
        let mut small = 0;
        for _ in 0..10 {
            let p = sched.pop().unwrap();
            if p.job.export.name() == "small" {
                small += 1;
            }
        }
        assert!(
            small >= 5,
            "small tenant got {small}/10 dispatches against a heavy neighbour"
        );
    }

    #[test]
    fn oversized_request_does_not_park_its_tenant() {
        let (_reg, exports) = registry_with(&["t"]);
        let sched = Arc::new(FleetScheduler::new());
        // A maximal read overdraws the deficit by ~128 quanta; the next
        // read must still dispatch without any other wakeup.
        sched.push(job(&exports[0], CMD_READ, 32 << 20, 1));
        assert_eq!(sched.pop().unwrap().job.req.cookie, 1);
        sched.push(job(&exports[0], CMD_READ, 4096, 2));
        let (tx, rx) = std::sync::mpsc::channel();
        let s2 = sched.clone();
        let worker = std::thread::spawn(move || tx.send(s2.pop().map(|p| p.job.req.cookie)));
        let got = rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(got, Ok(Some(2)), "the second read stayed parked");
        worker.join().unwrap().unwrap();
    }

    #[test]
    fn ordered_lane_serializes_per_tenant() {
        let (_reg, exports) = registry_with(&["t"]);
        let sched = FleetScheduler::new();
        sched.push(job(&exports[0], CMD_WRITE, 4096, 1));
        sched.push(job(&exports[0], CMD_WRITE, 4096, 2));
        sched.push(job(&exports[0], CMD_READ, 4096, 3));

        let first = sched.pop().unwrap();
        assert!(first.ordered);
        assert_eq!(first.job.req.cookie, 1);
        // Ordered lane frozen: the read dispatches, write #2 does not.
        let second = sched.pop().unwrap();
        assert!(!second.ordered);
        assert_eq!(second.job.req.cookie, 3);
        assert_eq!(sched.queued(), 1);
        // Completion unfreezes the lane.
        sched.ordered_done("t");
        let third = sched.pop().unwrap();
        assert!(third.ordered);
        assert_eq!(third.job.req.cookie, 2);
    }

    #[test]
    fn stop_drains_queues_then_returns_none() {
        let (_reg, exports) = registry_with(&["t"]);
        let sched = FleetScheduler::new();
        sched.push(job(&exports[0], CMD_FLUSH, 0, 1));
        sched.set_stop();
        let p = sched.pop().unwrap();
        assert_eq!(p.job.req.cookie, 1);
        sched.ordered_done("t");
        assert!(sched.pop().is_none());
    }

    #[test]
    fn token_bucket_enforces_iops_and_bytes() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(t0);
        let limits = QosLimits {
            iops: 10,
            bytes_per_sec: 1 << 20,
        };
        // Starts full: 10 IOPS tokens available immediately.
        for _ in 0..10 {
            assert!(b.admit(limits, 4096, t0).is_ok());
        }
        // 11th op at the same instant is throttled ~100ms.
        let wait = b.admit(limits, 4096, t0).unwrap_err();
        assert!(wait > Duration::from_millis(50), "{wait:?}");
        // 200ms later two tokens refilled.
        let t1 = t0 + Duration::from_millis(200);
        assert!(b.admit(limits, 4096, t1).is_ok());
        assert!(b.admit(limits, 4096, t1).is_ok());
        assert!(b.admit(limits, 4096, t1).is_err());

        // Byte ceiling: a 1 MiB burst drains the byte bucket; the next
        // job waits for a refill even though IOPS tokens exist.
        let mut b = TokenBucket::new(t0);
        let limits = QosLimits {
            iops: 0,
            bytes_per_sec: 1 << 20,
        };
        assert!(b.admit(limits, 1 << 20, t0).is_ok());
        assert!(b.admit(limits, 1 << 20, t0).is_ok()); // into debt once
        let wait = b.admit(limits, 4096, t0).unwrap_err();
        assert!(wait >= Duration::from_millis(900), "{wait:?}");
        // After a second the debt clears.
        let t1 = t0 + Duration::from_secs(2);
        assert!(b.admit(limits, 4096, t1).is_ok());

        // Unlimited admits anything.
        let mut b = TokenBucket::new(t0);
        assert!(b.admit(QosLimits::default(), u64::MAX / 2, t0).is_ok());
    }

    #[test]
    fn throttled_job_counts_one_throttle_wait() {
        let (_reg, exports) = registry_with(&["t"]);
        exports[0].set_qos(QosLimits {
            iops: 1,
            bytes_per_sec: 0,
        });
        let sched = FleetScheduler::new();
        sched.push(job(&exports[0], CMD_READ, 4096, 1));
        sched.push(job(&exports[0], CMD_READ, 4096, 2));
        // First admits (bucket starts full with 1 token), second throttles
        // and eventually admits after a refill.
        assert!(sched.pop().is_some());
        assert!(sched.pop().is_some());
        let snap = exports[0].recorders().snapshot();
        assert_eq!(snap.throttle_waits, 1, "counted exactly once");
    }

    #[test]
    fn inline_admission_pays_the_same_bucket() {
        let (_reg, exports) = registry_with(&["t"]);
        exports[0].set_qos(QosLimits {
            iops: 2,
            bytes_per_sec: 0,
        });
        let sched = FleetScheduler::new();
        assert!(sched.try_admit_inline(&exports[0], 4096));
        assert!(sched.try_admit_inline(&exports[0], 4096));
        assert!(
            !sched.try_admit_inline(&exports[0], 4096),
            "a one-second burst is all the bucket holds"
        );
        // The throttled read queues and waits out the refill there.
        sched.push(job(&exports[0], CMD_READ, 4096, 1));
        assert_eq!(sched.pop().unwrap().job.req.cookie, 1);
        assert_eq!(exports[0].recorders().snapshot().throttle_waits, 1);
    }

    #[test]
    fn inline_admission_keeps_queue_order_and_drr() {
        let (_reg, exports) = registry_with(&["a", "b"]);
        let sched = FleetScheduler::new();
        sched.push(job(&exports[0], CMD_READ, 4096, 1));
        assert!(
            !sched.try_admit_inline(&exports[0], 4096),
            "must not overtake a queued read"
        );
        assert_eq!(sched.pop().unwrap().job.req.cookie, 1);
        // "a" overdraws its quantum inline, then "b" queues with credit.
        assert!(sched.try_admit_inline(&exports[0], QUANTUM as u64));
        sched.push(job(&exports[1], CMD_READ, 4096, 2));
        assert!(!sched.try_admit_inline(&exports[0], 4096), "b goes first");
        assert_eq!(sched.pop().unwrap().job.export.name(), "b");
        // Nobody in credit is waiting: the round recharges, as in `pick`.
        assert!(sched.try_admit_inline(&exports[0], 4096));
        sched.set_stop();
        assert!(!sched.try_admit_inline(&exports[0], 4096), "draining");
    }

    #[test]
    fn fenced_exports_bypass_qos() {
        let (reg, exports) = registry_with(&["t"]);
        exports[0].set_qos(QosLimits {
            iops: 1,
            bytes_per_sec: 0,
        });
        let sched = FleetScheduler::new();
        sched.push(job(&exports[0], CMD_READ, 4096, 1));
        sched.push(job(&exports[0], CMD_READ, 4096, 2));
        assert!(sched.pop().is_some());
        // Fence via detach on another thread; the queued job must pop
        // immediately (QoS bypassed) so the drain is prompt.
        let t0 = Instant::now();
        let reg2 = reg.clone();
        let detacher = std::thread::spawn(move || {
            let _ = reg2.detach("t");
        });
        let p = sched.pop().unwrap();
        assert_eq!(p.job.req.cookie, 2);
        assert!(
            t0.elapsed() < Duration::from_millis(800),
            "drain waited out the token refill"
        );
        detacher.join().unwrap();
    }
}
