//! The aggregate telemetry snapshot and its exporters.
//!
//! [`TelemetrySnapshot`] is the single struct a volume (or bench harness)
//! hands out: every latency recorder's headline numbers, the writeback
//! pipeline gauges, cache/retry counters, and the derived paper-figure
//! observables (write amplification as in Figure 13, backend objects/s as
//! in Figure 10, GC dead-space ratio as in Figure 14). It serializes to
//! JSON ([`TelemetrySnapshot::to_json`] / [`TelemetrySnapshot::from_json`])
//! and Prometheus-style text ([`TelemetrySnapshot::to_prometheus`]) with
//! no external dependencies.
//!
//! Every metric is declared once, in a `section!` block: its field name
//! (which is also its JSON key), its doc comment (which is also its
//! Prometheus `# HELP` text), its kind (`Counter`, `Gauge`, `Flag` or
//! `Latency`), its fleet-aggregation rule (`Sum`, `Max`, or `Ratio` for
//! the few ratios `fix_ratios` recomputes; flags OR and latencies merge
//! through `lat_absorb`), its Prometheus family, and optionally an
//! `export(..)` family that [`TelemetrySnapshot::to_prometheus`] emits
//! once per tenant with an `export="..."` label. JSON, parsing, `absorb`,
//! Prometheus and `report` are generic walks over those declarations, so
//! adding a metric means adding one declaration.

use std::fmt::Write as _;

use crate::json::Json;
use crate::recorder::LatencySnapshot;

/// Schema identifier stamped into every JSON snapshot; bump on breaking
/// layout changes. CI validates emitted snapshots against this.
///
/// v2 adds the `spans` section (request-scoped span ring occupancy) next
/// to the v1 sections. v3 adds the `space` section (incremental-cleaner
/// space accounting: liveness, cleaning write amplification, pass
/// progress, deferred-delete backlog). v4 adds the fleet dimension: the
/// `tenants` array (one per-export serving/cache entry per registered
/// volume), per-tenant byte and throttle counters in `serving`, and the
/// read plane's `quota_bypassed_sectors`.
pub const SCHEMA: &str = "lsvd-telemetry-v4";

/// How a declared metric renders in Prometheus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Monotonic count: a `counter` whose name ends in `_total`.
    Counter,
    /// Level, occupancy or ratio: a `gauge`.
    Gauge,
    /// Boolean state: a 0/1 `gauge`.
    Flag,
    /// Latency sketch: `<family>_count` plus mean/p50/p99/max gauges in ns.
    Latency,
}

impl Kind {
    fn prom_type(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            _ => "gauge",
        }
    }
}

/// How a declared metric folds in [`TelemetrySnapshot::absorb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Agg {
    /// Add the two sides (counters and per-volume occupancies).
    Sum,
    /// Keep the larger side (sequence numbers, budgets, elapsed time).
    Max,
    /// Logical OR (flags).
    Or,
    /// Approximate sketch merge (latencies; see [`lat_absorb`]).
    Merge,
    /// A ratio left alone by the walk and recomputed by [`fix_ratios`].
    Ratio,
}

/// One metric declaration: everything the generic walks know of a field.
struct Metric {
    /// Field name and JSON key.
    key: &'static str,
    kind: Kind,
    agg: Agg,
    /// Prometheus family (the name prefix for latency families).
    family: &'static str,
    /// Doc comment of the field, reused as the Prometheus help text.
    help: &'static str,
    /// Per-tenant family and help, labeled `export="..."` (none, or one);
    /// latency fields export their p99 as a gauge.
    export: &'static [(&'static str, &'static str)],
}

/// A field value as the walks see it.
#[derive(Clone, Copy)]
enum View<'a> {
    Int(u64),
    Real(f64),
    Flag(bool),
    Lat(&'a LatencySnapshot),
}

impl View<'_> {
    fn json(self) -> Json {
        match self {
            View::Lat(l) => lat_json(l),
            View::Flag(b) => Json::Bool(b),
            v => Json::Num(v.num()),
        }
    }

    /// The single Prometheus sample of this value (a latency's is its p99).
    fn num(self) -> f64 {
        match self {
            View::Int(v) => v as f64,
            View::Real(v) => v,
            View::Flag(b) => f64::from(u8::from(b)),
            View::Lat(l) => l.p99_ns,
        }
    }

    fn show(self) -> String {
        match self {
            View::Int(v) => v.to_string(),
            View::Real(v) => format!("{v:.2}"),
            View::Flag(b) => b.to_string(),
            View::Lat(l) => l.to_string(),
        }
    }
}

/// A field type the walks can view, parse and fold.
trait Value: Sized {
    fn view(&self) -> View<'_>;
    fn parse(j: Option<&Json>) -> Self;
    fn fold(&mut self, o: &Self, agg: Agg);
}

/// Counters, gauges and ratios: `Sum` adds, `Max` keeps the larger side.
macro_rules! numeric {
    ($($ty:ty => $view:ident, $as:path;)*) => {$(
        impl Value for $ty {
            fn view(&self) -> View<'_> {
                View::$view(*self)
            }
            fn parse(j: Option<&Json>) -> Self {
                j.and_then($as).unwrap_or_default()
            }
            fn fold(&mut self, o: &Self, agg: Agg) {
                match agg {
                    Agg::Sum => *self += o,
                    Agg::Max => *self = (*self).max(*o),
                    _ => {}
                }
            }
        }
    )*};
}

numeric! {
    u64 => Int, Json::as_u64;
    f64 => Real, Json::as_f64;
}

impl Value for bool {
    fn view(&self) -> View<'_> {
        View::Flag(*self)
    }
    fn parse(j: Option<&Json>) -> Self {
        j.and_then(Json::as_bool).unwrap_or(false)
    }
    fn fold(&mut self, o: &Self, agg: Agg) {
        if agg == Agg::Or {
            *self |= *o;
        }
    }
}

impl Value for LatencySnapshot {
    fn view(&self) -> View<'_> {
        View::Lat(self)
    }
    fn parse(j: Option<&Json>) -> Self {
        let get = |key| j.and_then(|j| j.get(key));
        LatencySnapshot {
            count: u64::parse(get("count")),
            mean_ns: f64::parse(get("mean_ns")),
            p50_ns: f64::parse(get("p50_ns")),
            p99_ns: f64::parse(get("p99_ns")),
            max_ns: f64::parse(get("max_ns")),
        }
    }
    fn fold(&mut self, o: &Self, agg: Agg) {
        if agg == Agg::Merge {
            *self = lat_absorb(self, o);
        }
    }
}

fn lat_json(l: &LatencySnapshot) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::Num(l.count as f64)),
        ("mean_ns".into(), Json::Num(l.mean_ns)),
        ("p50_ns".into(), Json::Num(l.p50_ns)),
        ("p99_ns".into(), Json::Num(l.p99_ns)),
        ("max_ns".into(), Json::Num(l.max_ns)),
    ])
}

/// Approximate merge of two latency sketches for fleet aggregation: the
/// count-weighted mean is exact; p50/p99 are count-weighted means of the
/// inputs' percentiles (an approximation — true percentiles of a union
/// need the raw samples); max is the max of maxes.
fn lat_absorb(a: &LatencySnapshot, b: &LatencySnapshot) -> LatencySnapshot {
    let n = a.count + b.count;
    if n == 0 {
        return LatencySnapshot::default();
    }
    let (wa, wb) = (a.count as f64 / n as f64, b.count as f64 / n as f64);
    LatencySnapshot {
        count: n,
        mean_ns: a.mean_ns * wa + b.mean_ns * wb,
        p50_ns: a.p50_ns * wa + b.p50_ns * wb,
        p99_ns: a.p99_ns * wa + b.p99_ns * wb,
        max_ns: a.max_ns.max(b.max_ns),
    }
}

/// A snapshot section: a struct of declared metrics. Implemented by
/// `section!`; the provided methods are the generic renderings.
trait Section: Sized {
    /// The declarations, in field (and JSON) order.
    const FIELDS: &'static [Metric];
    /// Field values, aligned with [`Section::FIELDS`].
    fn views(&self) -> Vec<View<'_>>;
    fn parse(j: Option<&Json>) -> Self;
    fn absorb(&mut self, o: &Self);

    fn metrics(&self) -> impl Iterator<Item = (&'static Metric, View<'_>)> {
        Self::FIELDS.iter().zip(self.views())
    }

    fn json(&self) -> Json {
        Json::Obj(
            self.metrics()
                .map(|(m, v)| (m.key.into(), v.json()))
                .collect(),
        )
    }

    fn prom(&self, w: &mut Prom) {
        for (m, v) in self.metrics() {
            w.metric(m, v);
        }
    }

    /// `key=value` items for the scalar fields.
    fn scalars(&self) -> Vec<String> {
        self.metrics()
            .filter(|(m, _)| m.kind != Kind::Latency)
            .map(|(m, v)| format!("{}={}", m.key, v.show()))
            .collect()
    }

    /// One line per latency sketch, then the scalars under the section name.
    fn report(&self, name: &str, out: &mut String) {
        for (m, v) in self.metrics() {
            if m.kind == Kind::Latency {
                report_line(out, &format!("{name}.{}", m.key), &[v.show()]);
            }
        }
        report_line(out, name, &self.scalars());
    }
}

/// Writes `items` after a padded label, six to a line.
fn report_line(out: &mut String, label: &str, items: &[String]) {
    for (i, chunk) in items.chunks(6).enumerate() {
        let label = if i == 0 { label } else { "" };
        let _ = writeln!(out, "  {label:<27} {}", chunk.join(" "));
    }
}

/// Declares a snapshot section: the public struct (each field documented
/// by its help text) and its [`Section`] implementation. Each field reads
///
/// ```text
/// /// <help text>
/// <name>: <type> => <Kind>(<Agg>) "<family>" [export("<family>", "<help>")],
/// ```
macro_rules! section {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                #[doc = $help:literal]
                $field:ident: $ty:ty => $kind:ident($agg:ident) $family:literal
                    $(export($xfam:literal, $xhelp:literal))?,
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct $name {
            $(#[doc = $help] pub $field: $ty,)*
        }

        impl Section for $name {
            const FIELDS: &'static [Metric] = &[$(Metric {
                key: stringify!($field),
                kind: Kind::$kind,
                agg: Agg::$agg,
                family: $family,
                help: $help,
                export: &[$(($xfam, $xhelp))?],
            }),*];

            fn views(&self) -> Vec<View<'_>> {
                vec![$(self.$field.view()),*]
            }

            fn parse(j: Option<&Json>) -> Self {
                Self { $($field: Value::parse(j.and_then(|j| j.get(stringify!($field)))),)* }
            }

            fn absorb(&mut self, o: &Self) {
                $(self.$field.fold(&o.$field, Agg::$agg);)*
            }
        }
    };
}

section! {
    /// Client-facing op latencies (what the guest "sees").
    pub struct ClientOps {
        /// Client read latency
        read: LatencySnapshot => Latency(Merge) "lsvd_op_read",
        /// Client write latency
        write: LatencySnapshot => Latency(Merge) "lsvd_op_write",
        /// Client flush latency
        flush: LatencySnapshot => Latency(Merge) "lsvd_op_flush",
    }
}

section! {
    /// Object-store op latencies and byte counters, as measured by the
    /// `MetricsStore` middleware at the bottom of the store stack.
    pub struct BackendOps {
        /// Backend PUT latency
        put: LatencySnapshot => Latency(Merge) "lsvd_backend_put",
        /// Backend GET latency
        get: LatencySnapshot => Latency(Merge) "lsvd_backend_get",
        /// Backend HEAD latency
        head: LatencySnapshot => Latency(Merge) "lsvd_backend_head",
        /// Backend LIST latency
        list: LatencySnapshot => Latency(Merge) "lsvd_backend_list",
        /// Backend DELETE latency
        delete: LatencySnapshot => Latency(Merge) "lsvd_backend_delete",
        /// Bytes uploaded by backend PUTs.
        put_bytes: u64 => Counter(Sum) "lsvd_backend_put_bytes_total",
        /// Bytes downloaded by backend GETs.
        get_bytes: u64 => Counter(Sum) "lsvd_backend_get_bytes_total",
        /// Backend ops that returned an error.
        errors: u64 => Counter(Sum) "lsvd_backend_errors_total",
        /// Backend errors classified transient (retryable).
        transient_errors: u64 => Counter(Sum) "lsvd_backend_transient_errors_total",
    }
}

section! {
    /// Writeback-pipeline visibility: PUT timing split plus the continuously
    /// exported queue gauges (backpressure is observable as a gauge, not
    /// only as an error).
    pub struct WritebackTelemetry {
        /// Writeback PUT service time
        put_service: LatencySnapshot => Latency(Merge) "lsvd_wb_put_service",
        /// Writeback PUT queue wait
        put_queue_wait: LatencySnapshot => Latency(Merge) "lsvd_wb_put_queue_wait",
        /// Sealed batches waiting to enter the in-flight window.
        queued: u64 => Gauge(Sum) "lsvd_wb_queued",
        /// Backend PUTs currently in flight.
        inflight: u64 => Gauge(Sum) "lsvd_wb_inflight",
        /// Batches landed out of order, awaiting the durable frontier.
        landed_gapped: u64 => Gauge(Sum) "lsvd_wb_landed_gapped",
        /// Configured in-flight PUT window (0 = serial writeback).
        window: u64 => Gauge(Sum) "lsvd_wb_window",
        /// In-flight PUTs as a fraction of the window.
        occupancy: f64 => Gauge(Ratio) "lsvd_wb_occupancy",
        /// Highest object sequence sealed so far.
        sealed_seq: u64 => Gauge(Max) "lsvd_wb_sealed_seq",
        /// Durable frontier: all objects at or below this are durable.
        durable_frontier: u64 => Gauge(Max) "lsvd_wb_durable_frontier",
        /// Sealed batches not yet covered by the durable frontier.
        frontier_lag: u64 => Gauge(Sum) "lsvd_wb_frontier_lag",
        /// 1 while the volume is in degraded (backpressure) mode.
        degraded: bool => Flag(Or) "lsvd_wb_degraded",
        /// Transient PUT failures requeued by the pipeline.
        put_transient_failures: u64 => Counter(Sum) "lsvd_wb_put_transient_failures_total",
        /// Writes rejected with Backpressure while degraded.
        backpressure_rejections: u64 => Counter(Sum) "lsvd_wb_backpressure_rejections_total",
    }
}

section! {
    /// Cache-layer counters: backend header cache, read cache, write log.
    pub struct CacheTelemetry {
        /// Backend object-header cache hits.
        hdr_hits: u64 => Counter(Sum) "lsvd_cache_hdr_hits_total",
        /// Backend object-header cache misses.
        hdr_misses: u64 => Counter(Sum) "lsvd_cache_hdr_misses_total",
        /// Backend object-header cache evictions.
        hdr_evictions: u64 => Counter(Sum) "lsvd_cache_hdr_evictions_total",
        /// Read-cache sector hits.
        rcache_hit_sectors: u64 => Counter(Sum) "lsvd_rcache_hit_sectors_total",
        /// Read-cache sector misses.
        rcache_miss_sectors: u64 => Counter(Sum) "lsvd_rcache_miss_sectors_total",
        /// Sectors inserted into the read cache.
        rcache_inserted_sectors: u64 => Counter(Sum) "lsvd_rcache_inserted_sectors_total",
        /// Sectors evicted from the read cache.
        rcache_evicted_sectors: u64 => Counter(Sum) "lsvd_rcache_evicted_sectors_total",
        /// Read-cache sector hit ratio.
        rcache_hit_ratio: f64 => Gauge(Ratio) "lsvd_rcache_hit_ratio",
        /// Write-log sectors currently occupied.
        wlog_used_sectors: u64 => Gauge(Sum) "lsvd_wlog_used_sectors",
        /// Write-log capacity in sectors.
        wlog_capacity_sectors: u64 => Gauge(Sum) "lsvd_wlog_capacity_sectors",
    }
}

section! {
    /// Retry-layer counters (mirrors `objstore::RetryCounters`).
    pub struct RetryTelemetry {
        /// Backend op attempts (first tries plus retries).
        attempts: u64 => Counter(Sum) "lsvd_retry_attempts_total",
        /// Retries after a transient backend failure.
        retries: u64 => Counter(Sum) "lsvd_retry_retries_total",
        /// Ops abandoned after exhausting the retry budget.
        give_ups: u64 => Counter(Sum) "lsvd_retry_give_ups_total",
        /// Total retry backoff applied, nanoseconds.
        backoff_ns: u64 => Counter(Sum) "lsvd_retry_backoff_ns_total",
    }
}

section! {
    /// Derived paper-figure observables.
    pub struct DerivedTelemetry {
        /// Backend bytes written over client bytes written.
        write_amplification: f64 => Gauge(Ratio) "lsvd_write_amplification",
        /// Backend objects written (batches plus GC rewrites).
        backend_objects: u64 => Counter(Sum) "lsvd_backend_objects_total",
        /// Backend objects written per wall-clock second.
        backend_objects_per_sec: f64 => Gauge(Sum) "lsvd_backend_objects_per_sec",
        /// Dead bytes over total bytes across live backend objects.
        gc_dead_space_ratio: f64 => Gauge(Ratio) "lsvd_gc_dead_space_ratio",
        /// Checkpoints written.
        checkpoints: u64 => Counter(Sum) "lsvd_checkpoints_total",
    }
}

section! {
    /// Space accounting for the incremental cleaner: how much of the backend
    /// log is live versus dead, what cleaning costs (bytes relocated per byte
    /// freed), and where the active pass stands.
    pub struct SpaceTelemetry {
        /// Live bytes across backend data objects.
        live_bytes: u64 => Gauge(Sum) "lsvd_space_live_bytes",
        /// Dead bytes across backend data objects (unreclaimed).
        dead_bytes: u64 => Gauge(Sum) "lsvd_space_dead_bytes",
        /// GC bytes relocated per byte freed.
        cleaning_write_amp: f64 => Gauge(Ratio) "lsvd_space_cleaning_write_amp",
        /// Cleaning passes completed.
        gc_passes: u64 => Counter(Sum) "lsvd_gc_passes_total",
        /// 1 while an incremental cleaning pass is in progress.
        gc_pass_active: bool => Flag(Or) "lsvd_gc_pass_active",
        /// Per-step relocation budget (0 = unbudgeted).
        gc_step_budget_bytes: u64 => Gauge(Max) "lsvd_gc_step_budget_bytes",
        /// Victims and compaction runs the active pass has left.
        gc_victims_remaining: u64 => Gauge(Sum) "lsvd_gc_victims_remaining",
        /// Bytes relocated by GC carriers.
        gc_relocated_bytes: u64 => Counter(Sum) "lsvd_gc_relocated_bytes_total",
        /// Bytes freed by retiring GC victims.
        gc_freed_bytes: u64 => Counter(Sum) "lsvd_gc_freed_bytes_total",
        /// Retired objects awaiting a covering checkpoint to DELETE.
        deferred_deletes: u64 => Gauge(Sum) "lsvd_gc_deferred_deletes",
    }
}

section! {
    /// Data-plane byte accounting: how many times payload bytes were
    /// checksummed and copied end to end. The write path's contract is one
    /// CRC pass and two copies per payload byte; these counters make that
    /// auditable from the outside.
    pub struct DataPlaneTelemetry {
        /// Payload bytes checksummed on the hot write path.
        payload_crc_bytes: u64 => Counter(Sum) "lsvd_dp_payload_crc_bytes_total",
        /// Payload bytes re-checksummed at seal (partial flanks).
        crc_recomputed_bytes: u64 => Counter(Sum) "lsvd_dp_crc_recomputed_bytes_total",
        /// O(1) crc32c_combine folds that replaced full re-scans.
        crc_combine_ops: u64 => Counter(Sum) "lsvd_dp_crc_combine_ops_total",
        /// Payload bytes memcpy'd on the write path.
        copied_bytes: u64 => Counter(Sum) "lsvd_dp_copied_bytes_total",
        /// Backend GET payload bytes verified against extent CRCs.
        get_verified_bytes: u64 => Counter(Sum) "lsvd_dp_get_verified_bytes_total",
        /// 1 when the hardware (SSE4.2) CRC32C kernel is active.
        hw_crc: bool => Flag(Or) "lsvd_dp_hw_crc",
    }
}

section! {
    /// Concurrent read-plane observability: the lock-split serving path's
    /// hit/miss accounting, scan-resistant admission control, single-flight
    /// miss coalescing, and the shared-vs-exclusive lock wait split that
    /// shows whether read latency is work or queueing.
    pub struct ReadPlaneTelemetry {
        /// Reads served by the read plane.
        reads: u64 => Counter(Sum) "lsvd_rp_reads_total",
        /// Reads served entirely from local state.
        hit_reads: u64 => Counter(Sum) "lsvd_rp_hit_reads_total",
        /// Reads that needed at least one backend fetch.
        miss_reads: u64 => Counter(Sum) "lsvd_rp_miss_reads_total",
        /// Sectors admitted into the read cache by miss fetches.
        admitted_sectors: u64 => Counter(Sum) "lsvd_rp_admitted_sectors_total",
        /// Sectors a detected sequential scan kept out of the cache.
        bypassed_sectors: u64 => Counter(Sum) "lsvd_rp_bypassed_sectors_total",
        /// Sectors the tenant byte quota kept out of the read cache.
        quota_bypassed_sectors: u64 => Counter(Sum) "lsvd_rp_quota_bypassed_sectors_total",
        /// Fetches that parked on another reader's in-flight GET.
        singleflight_waits: u64 => Counter(Sum) "lsvd_rp_singleflight_waits_total",
        /// Parked fetches fully served from the leader's window.
        singleflight_shared: u64 => Counter(Sum) "lsvd_rp_singleflight_shared_total",
        /// Shared-lock acquisitions (concurrent hit path).
        shared_lock_acqs: u64 => Counter(Sum) "lsvd_rp_shared_lock_acqs_total",
        /// Exclusive-lock acquisitions (mutations and miss inserts).
        excl_lock_acqs: u64 => Counter(Sum) "lsvd_rp_excl_lock_acqs_total",
        /// Shared-lock wait
        shared_lock_wait: LatencySnapshot => Latency(Merge) "lsvd_rp_shared_lock_wait",
        /// Exclusive-lock wait
        excl_lock_wait: LatencySnapshot => Latency(Merge) "lsvd_rp_excl_lock_wait",
        /// Readers inside the read plane at snapshot time.
        concurrent_readers: u64 => Gauge(Sum) "lsvd_rp_concurrent_readers",
        /// High-water mark of concurrent readers.
        peak_concurrent_readers: u64 => Gauge(Sum) "lsvd_rp_peak_concurrent_readers",
    }
}

section! {
    /// Serving-plane (NBD) observability: per-request latency split into the
    /// three places time can go — blocked on the socket, queued behind the
    /// scheduler, or inside the volume — plus connection/op gauges. Fields
    /// marked `export(..)` are also exported per tenant.
    pub struct ServingTelemetry {
        /// NBD socket read/write time
        socket_wait: LatencySnapshot => Latency(Merge) "lsvd_serving_socket_wait",
        /// NBD scheduler queue wait
        queue_wait: LatencySnapshot => Latency(Merge) "lsvd_serving_queue_wait",
        /// NBD in-volume service time
        service: LatencySnapshot => Latency(Merge) "lsvd_serving_service"
            export("lsvd_tenant_service_p99_ns", "In-volume service p99 in nanoseconds, per export."),
        /// NBD connections currently open.
        conns_open: u64 => Gauge(Sum) "lsvd_serving_conns_open"
            export("lsvd_tenant_conns_open", "Connections currently open, per export."),
        /// NBD connections ever accepted.
        conns_total: u64 => Counter(Sum) "lsvd_serving_conns_total"
            export("lsvd_tenant_conns_total", "Connections ever accepted, per export."),
        /// NBD READ requests served.
        reads: u64 => Counter(Sum) "lsvd_serving_reads_total"
            export("lsvd_tenant_reads_total", "READ requests served, per export."),
        /// NBD WRITE requests served.
        writes: u64 => Counter(Sum) "lsvd_serving_writes_total"
            export("lsvd_tenant_writes_total", "WRITE requests served, per export."),
        /// NBD FLUSH requests served (including FUA).
        flushes: u64 => Counter(Sum) "lsvd_serving_flushes_total"
            export("lsvd_tenant_flushes_total", "FLUSH requests served, per export."),
        /// NBD TRIM requests served.
        trims: u64 => Counter(Sum) "lsvd_serving_trims_total"
            export("lsvd_tenant_trims_total", "TRIM requests served, per export."),
        /// NBD requests answered with an error code.
        errors: u64 => Counter(Sum) "lsvd_serving_errors_total"
            export("lsvd_tenant_errors_total", "Requests answered with an error code, per export."),
        /// Bytes served to NBD READ replies.
        bytes_read: u64 => Counter(Sum) "lsvd_serving_bytes_read_total"
            export("lsvd_tenant_bytes_read_total", "Bytes served to READ replies, per export."),
        /// Bytes accepted from NBD WRITE requests.
        bytes_written: u64 => Counter(Sum) "lsvd_serving_bytes_written_total"
            export("lsvd_tenant_bytes_written_total", "Bytes accepted from WRITE requests, per export."),
        /// Requests that stalled on a QoS token bucket.
        throttle_waits: u64 => Counter(Sum) "lsvd_serving_throttle_waits_total"
            export("lsvd_tenant_throttle_waits_total", "QoS token-bucket stalls, per export."),
    }
}

section! {
    /// Trace-ring occupancy counters.
    pub struct TraceTelemetry {
        /// Trace events ever pushed into the ring.
        events: u64 => Counter(Sum) "lsvd_trace_events_total",
        /// Trace events evicted from the ring on wrap.
        dropped: u64 => Counter(Sum) "lsvd_trace_dropped_total",
        /// Trace ring capacity.
        capacity: u64 => Gauge(Sum) "lsvd_trace_capacity",
    }
}

section! {
    /// Span-ring occupancy counters (the request-scoped tracing layer).
    pub struct SpanTelemetry {
        /// Request-scoped spans ever recorded.
        recorded: u64 => Counter(Sum) "lsvd_span_recorded_total",
        /// Spans evicted from the span ring on wrap.
        dropped: u64 => Counter(Sum) "lsvd_span_dropped_total",
        /// Span ring capacity across all shards.
        capacity: u64 => Gauge(Sum) "lsvd_span_capacity",
        /// Request ids minted (the tracing virtual clock).
        requests: u64 => Counter(Sum) "lsvd_span_requests_total",
        /// 1 while span recording is enabled.
        enabled: bool => Flag(Or) "lsvd_span_enabled",
    }
}

/// One tenant's slice of a fleet node: the per-export serving counters
/// plus its share of the partitioned read cache. Exported as the
/// `tenants` array in JSON and as `export="..."`-labeled series in
/// Prometheus, so noisy-neighbor effects are measurable per volume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantTelemetry {
    /// Export (registry) name of the tenant volume.
    pub export: String,
    /// Serving-plane counters and latency split for this export only.
    pub serving: ServingTelemetry,
    /// The tenant's read-cache byte quota (0 = unlimited).
    pub cache_quota_bytes: u64,
    /// Bytes currently resident in the tenant's read-cache partition.
    pub cache_resident_bytes: u64,
}

impl TenantTelemetry {
    fn json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        Json::Obj(vec![
            ("export".into(), Json::Str(self.export.clone())),
            ("serving".into(), self.serving.json()),
            ("cache_quota_bytes".into(), num(self.cache_quota_bytes)),
            (
                "cache_resident_bytes".into(),
                num(self.cache_resident_bytes),
            ),
        ])
    }

    fn parse(t: &Json) -> Self {
        TenantTelemetry {
            export: t.get("export").and_then(Json::as_str).unwrap_or("").into(),
            serving: ServingTelemetry::parse(t.get("serving")),
            cache_quota_bytes: u64::parse(t.get("cache_quota_bytes")),
            cache_resident_bytes: u64::parse(t.get("cache_resident_bytes")),
        }
    }

    /// The `export="..."` families: every `export(..)`-marked serving
    /// field, then the tenant's read-cache partition.
    fn prom(tenants: &[TenantTelemetry], w: &mut Prom) {
        if tenants.is_empty() {
            return;
        }
        let views: Vec<_> = tenants.iter().map(|t| t.serving.views()).collect();
        for (i, m) in ServingTelemetry::FIELDS.iter().enumerate() {
            if let Some(&family) = m.export.first() {
                w.labeled(family, m.kind.prom_type(), tenants, |t| views[t][i].num());
            }
        }
        let quota = (
            "lsvd_tenant_cache_quota_bytes",
            "Read-cache byte quota (0 = unlimited), per export.",
        );
        w.labeled(quota, "gauge", tenants, |t| {
            tenants[t].cache_quota_bytes as f64
        });
        let resident = (
            "lsvd_tenant_cache_resident_bytes",
            "Bytes resident in the read-cache partition, per export.",
        );
        w.labeled(resident, "gauge", tenants, |t| {
            tenants[t].cache_resident_bytes as f64
        });
    }

    fn report(&self, out: &mut String) {
        let (quota, resident) = (self.cache_quota_bytes, self.cache_resident_bytes);
        let mut items = self.serving.scalars();
        items.push(format!("cache_quota_bytes={quota}"));
        items.push(format!("cache_resident_bytes={resident}"));
        report_line(out, &format!("tenant {}", self.export), &items);
    }
}

/// Recomputes the `Ratio` declarations from the inputs the walk already
/// folded; `o` is the snapshot just absorbed into `s`.
fn fix_ratios(s: &mut TelemetrySnapshot, o: &TelemetrySnapshot) {
    let ratio = |n: u64, d: u64| if d > 0 { n as f64 / d as f64 } else { 0.0 };
    s.writeback.occupancy = ratio(s.writeback.inflight, s.writeback.window);
    let (hit, miss) = (s.cache.rcache_hit_sectors, s.cache.rcache_miss_sectors);
    s.cache.rcache_hit_ratio = ratio(hit, hit + miss);
    // Weight write amplification by each side's backend PUT bytes (the
    // numerator of the ratio) — exact when both sides report bytes.
    let wa_b = o.backend.put_bytes;
    let wa_a = s.backend.put_bytes - wa_b;
    if wa_a + wa_b > 0 {
        s.derived.write_amplification = (s.derived.write_amplification * wa_a as f64
            + o.derived.write_amplification * wa_b as f64)
            / (wa_a + wa_b) as f64;
    }
    let sp = &s.space;
    s.derived.gc_dead_space_ratio = ratio(sp.dead_bytes, sp.dead_bytes + sp.live_bytes);
    s.space.cleaning_write_amp = ratio(sp.gc_relocated_bytes, sp.gc_freed_bytes);
}

/// Declares [`TelemetrySnapshot`]: the top-level `elapsed_secs` metric, the
/// sections in JSON order, and the `tenants` breakdown; every public
/// exporter walks that list.
macro_rules! snapshot {
    (
        #[doc = $ehelp:literal]
        elapsed_secs: f64 => $ekind:ident($eagg:ident) $efam:literal;
        $(#[doc = $doc:literal] $s:ident: $ty:ty,)*
    ) => {
        /// The aggregate snapshot: everything observable about a running volume
        /// (or, on a fleet node, the node-wide aggregate plus the per-tenant
        /// `tenants` breakdown).
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct TelemetrySnapshot {
            #[doc = $ehelp]
            pub elapsed_secs: f64,
            $(#[doc = $doc] pub $s: $ty,)*
            /// Per-tenant breakdown on a fleet node (empty for a single volume).
            pub tenants: Vec<TenantTelemetry>,
        }

        impl TelemetrySnapshot {
            const ELAPSED: Metric = Metric {
                key: "elapsed_secs",
                kind: Kind::$ekind,
                agg: Agg::$eagg,
                family: $efam,
                help: $ehelp,
                export: &[],
            };

            /// Every declaration by section name, in JSON order (`""` holds
            /// the top-level `elapsed_secs`).
            #[cfg(test)]
            fn registry() -> Vec<(&'static str, &'static [Metric])> {
                vec![("", std::slice::from_ref(&Self::ELAPSED)), $((stringify!($s), <$ty as Section>::FIELDS)),*]
            }

            /// Builds the JSON tree (schema key first).
            pub fn to_json(&self) -> Json {
                Json::Obj(vec![
                    ("schema".into(), Json::Str(SCHEMA.into())),
                    (Self::ELAPSED.key.into(), self.elapsed_secs.view().json()),
                    $((stringify!($s).into(), self.$s.json()),)*
                    ("tenants".into(), Json::Arr(self.tenants.iter().map(TenantTelemetry::json).collect())),
                ])
            }

            /// Parses a snapshot from JSON text; rejects unknown schemas.
            /// Missing keys read as zero.
            pub fn from_json(text: &str) -> Result<TelemetrySnapshot, String> {
                let j = Json::parse(text)?;
                match j.get("schema").and_then(Json::as_str) {
                    Some(s) if s == SCHEMA => {}
                    other => return Err(format!("unknown snapshot schema {other:?}")),
                }
                let tenants = j.get("tenants").and_then(Json::as_array).unwrap_or_default();
                Ok(TelemetrySnapshot {
                    elapsed_secs: f64::parse(j.get(Self::ELAPSED.key)),
                    $($s: Section::parse(j.get(stringify!($s))),)*
                    tenants: tenants.iter().map(TenantTelemetry::parse).collect(),
                })
            }

            /// Folds `other` into `self` for fleet-level aggregation: each
            /// field by its declared rule (counters and per-volume gauges
            /// sum, sequence numbers and budgets take the max, flags OR,
            /// latency sketches merge approximately — see `lat_absorb`'s
            /// caveat), then the ratios are recomputed (`fix_ratios`).
            /// `tenants` lists concatenate. The result is a node-wide view;
            /// per-volume precision lives in `tenants`.
            pub fn absorb(&mut self, other: &TelemetrySnapshot) {
                self.elapsed_secs.fold(&other.elapsed_secs, Self::ELAPSED.agg);
                $(self.$s.absorb(&other.$s);)*
                self.tenants.extend(other.tenants.iter().cloned());
                fix_ratios(self, other);
            }

            /// Renders Prometheus text exposition. Every metric carries `# HELP`
            /// and `# TYPE` lines; counters are suffixed `_total` (except the
            /// `_count` series of latency families, which follow the
            /// histogram/summary `_count` convention) and gauges keep plain
            /// names.
            pub fn to_prometheus(&self) -> String {
                let mut w = Prom::default();
                w.metric(&Self::ELAPSED, self.elapsed_secs.view());
                $(self.$s.prom(&mut w);)*
                TenantTelemetry::prom(&self.tenants, &mut w);
                w.out
            }

            /// Renders a short human-readable report (CLI / bench end-of-run):
            /// one line per latency sketch, then each section's scalars.
            pub fn report(&self) -> String {
                let mut out = format!("telemetry ({:.1}s elapsed)\n", self.elapsed_secs);
                $(self.$s.report(stringify!($s), &mut out);)*
                for t in &self.tenants {
                    t.report(&mut out);
                }
                out
            }
        }
    };
}

snapshot! {
    /// Wall-clock seconds since the volume's telemetry started.
    elapsed_secs: f64 => Gauge(Max) "lsvd_elapsed_secs";
    /// Client-facing op latencies.
    ops: ClientOps,
    /// Object-store op latencies and byte counters.
    backend: BackendOps,
    /// Writeback-pipeline gauges and PUT timing split.
    writeback: WritebackTelemetry,
    /// Cache-layer counters.
    cache: CacheTelemetry,
    /// Retry-layer counters.
    retry: RetryTelemetry,
    /// Derived paper-figure observables.
    derived: DerivedTelemetry,
    /// Incremental-cleaner space accounting.
    space: SpaceTelemetry,
    /// Data-plane copy/CRC byte accounting.
    data_plane: DataPlaneTelemetry,
    /// Concurrent read-plane counters and lock-wait split.
    read_plane: ReadPlaneTelemetry,
    /// Serving-plane (NBD) latency split and connection gauges.
    serving: ServingTelemetry,
    /// Trace-ring occupancy.
    trace: TraceTelemetry,
    /// Span-ring occupancy (request-scoped tracing).
    spans: SpanTelemetry,
}

/// Prometheus text-exposition emitter: pairs every sample with its
/// `# HELP`/`# TYPE` preamble and keeps the counter naming convention
/// (`_total`, or `_count` for latency-family sample counters) honest.
#[derive(Default)]
struct Prom {
    out: String,
}

impl Prom {
    fn family(&mut self, name: &str, help: &str, ty: &str) {
        debug_assert!(
            ty != "counter" || name.ends_with("_total") || name.ends_with("_count"),
            "counter `{name}` must end in _total or _count"
        );
        let _ = writeln!(self.out, "# HELP {name} {}", help.trim());
        let _ = writeln!(self.out, "# TYPE {name} {ty}");
    }

    fn sample(&mut self, series: &str, v: f64) {
        if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
            let _ = writeln!(self.out, "{series} {}", v as i64);
        } else {
            let _ = writeln!(self.out, "{series} {v}");
        }
    }

    /// One declared metric. A latency family is `<family>_count` as a
    /// counter (summary convention) plus mean/p50/p99/max gauges in ns.
    fn metric(&mut self, m: &Metric, v: View<'_>) {
        let View::Lat(l) = v else {
            self.family(m.family, m.help, m.kind.prom_type());
            self.sample(m.family, v.num());
            return;
        };
        let help = m.help;
        let count = format!("{}_count", m.family);
        self.family(&count, &format!("{help}: samples recorded."), "counter");
        self.sample(&count, l.count as f64);
        for (stat, x) in [
            ("mean", l.mean_ns),
            ("p50", l.p50_ns),
            ("p99", l.p99_ns),
            ("max", l.max_ns),
        ] {
            let name = format!("{}_{stat}_ns", m.family);
            self.family(&name, &format!("{help}: {stat}, nanoseconds."), "gauge");
            self.sample(&name, x);
        }
    }

    /// A family with one `export="..."`-labeled sample per tenant; `get`
    /// maps a tenant's index to its value.
    fn labeled(
        &mut self,
        (name, help): (&str, &str),
        ty: &str,
        tenants: &[TenantTelemetry],
        get: impl Fn(usize) -> f64,
    ) {
        self.family(name, help, ty);
        for (i, t) in tenants.iter().enumerate() {
            // Escape the label value per the Prometheus text format.
            let esc = t
                .export
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            self.sample(&format!("{name}{{export=\"{esc}\"}}"), get(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn sample() -> TelemetrySnapshot {
        let lat = LatencySnapshot {
            count: 100,
            mean_ns: 1_500.5,
            p50_ns: 1_200.0,
            p99_ns: 9_001.25,
            max_ns: 12_000.0,
        };
        TelemetrySnapshot {
            elapsed_secs: 1.25,
            ops: ClientOps {
                read: lat,
                write: lat,
                flush: lat,
            },
            backend: BackendOps {
                put: lat,
                get: lat,
                head: lat,
                list: lat,
                delete: lat,
                put_bytes: 1 << 30,
                get_bytes: 12345,
                errors: 7,
                transient_errors: 5,
            },
            writeback: WritebackTelemetry {
                put_service: lat,
                put_queue_wait: lat,
                queued: 2,
                inflight: 3,
                landed_gapped: 1,
                window: 4,
                occupancy: 0.75,
                sealed_seq: 42,
                durable_frontier: 40,
                frontier_lag: 2,
                degraded: true,
                put_transient_failures: 5,
                backpressure_rejections: 9,
            },
            cache: CacheTelemetry {
                hdr_hits: 10,
                hdr_misses: 4,
                hdr_evictions: 2,
                rcache_hit_sectors: 100,
                rcache_miss_sectors: 50,
                rcache_inserted_sectors: 120,
                rcache_evicted_sectors: 20,
                rcache_hit_ratio: 0.66,
                wlog_used_sectors: 64,
                wlog_capacity_sectors: 256,
            },
            retry: RetryTelemetry {
                attempts: 20,
                retries: 6,
                give_ups: 1,
                backoff_ns: 5_000_000,
            },
            derived: DerivedTelemetry {
                write_amplification: 1.37,
                backend_objects: 55,
                backend_objects_per_sec: 44.0,
                gc_dead_space_ratio: 0.21,
                checkpoints: 3,
            },
            space: SpaceTelemetry {
                live_bytes: 3 << 20,
                dead_bytes: 1 << 20,
                cleaning_write_amp: 0.42,
                gc_passes: 6,
                gc_pass_active: true,
                gc_step_budget_bytes: 8 << 20,
                gc_victims_remaining: 5,
                gc_relocated_bytes: 2 << 20,
                gc_freed_bytes: 5 << 20,
                deferred_deletes: 4,
            },
            data_plane: DataPlaneTelemetry {
                payload_crc_bytes: 1 << 20,
                crc_recomputed_bytes: 2048,
                crc_combine_ops: 33,
                copied_bytes: 2 << 20,
                get_verified_bytes: 4096,
                hw_crc: true,
            },
            read_plane: ReadPlaneTelemetry {
                reads: 3_000,
                hit_reads: 2_800,
                miss_reads: 200,
                admitted_sectors: 1_024,
                bypassed_sectors: 4_096,
                quota_bypassed_sectors: 512,
                singleflight_waits: 17,
                singleflight_shared: 15,
                shared_lock_acqs: 3_100,
                excl_lock_acqs: 250,
                shared_lock_wait: lat,
                excl_lock_wait: lat,
                concurrent_readers: 2,
                peak_concurrent_readers: 8,
            },
            serving: ServingTelemetry {
                socket_wait: lat,
                queue_wait: lat,
                service: lat,
                conns_open: 4,
                conns_total: 6,
                reads: 2_000,
                writes: 1_500,
                flushes: 40,
                trims: 12,
                errors: 1,
                bytes_read: 8 << 20,
                bytes_written: 6 << 20,
                throttle_waits: 23,
            },
            trace: TraceTelemetry {
                events: 500,
                dropped: 12,
                capacity: 256,
            },
            spans: SpanTelemetry {
                recorded: 900,
                dropped: 3,
                capacity: 8192,
                requests: 450,
                enabled: true,
            },
            tenants: vec![
                TenantTelemetry {
                    export: "alpha".into(),
                    serving: ServingTelemetry {
                        socket_wait: lat,
                        queue_wait: lat,
                        service: lat,
                        conns_open: 3,
                        conns_total: 4,
                        reads: 1_200,
                        writes: 900,
                        flushes: 25,
                        trims: 8,
                        errors: 1,
                        bytes_read: 5 << 20,
                        bytes_written: 4 << 20,
                        throttle_waits: 20,
                    },
                    cache_quota_bytes: 16 << 20,
                    cache_resident_bytes: 9 << 20,
                },
                TenantTelemetry {
                    export: "beta\"2".into(),
                    serving: ServingTelemetry {
                        socket_wait: lat,
                        queue_wait: lat,
                        service: lat,
                        conns_open: 1,
                        conns_total: 2,
                        reads: 800,
                        writes: 600,
                        flushes: 15,
                        trims: 4,
                        errors: 0,
                        bytes_read: 3 << 20,
                        bytes_written: 2 << 20,
                        throttle_waits: 3,
                    },
                    cache_quota_bytes: 8 << 20,
                    cache_resident_bytes: 2 << 20,
                },
            ],
        }
    }

    /// Sorts object keys recursively so trees compare regardless of order.
    fn canon(j: Json) -> Json {
        match j {
            Json::Obj(mut kv) => {
                kv.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Obj(kv.into_iter().map(|(k, v)| (k, canon(v))).collect())
            }
            Json::Arr(items) => Json::Arr(items.into_iter().map(canon).collect()),
            other => other,
        }
    }

    type Family = (String, String, BTreeMap<String, String>);

    /// Family name -> (HELP text, TYPE, series -> rendered value).
    fn families(prom: &str) -> BTreeMap<String, Family> {
        let mut out = BTreeMap::<String, Family>::new();
        let mut cur = String::new();
        for line in prom.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').unwrap();
                cur = name.to_string();
                out.entry(cur.clone()).or_default().0 = help.to_string();
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, ty) = rest.split_once(' ').unwrap();
                assert_eq!(name, cur, "TYPE without HELP: {line}");
                out.get_mut(&cur).unwrap().1 = ty.to_string();
            } else {
                let (series, v) = line.rsplit_once(' ').unwrap();
                let fam = out.get_mut(&cur).unwrap();
                fam.2.insert(series.to_string(), v.to_string());
            }
        }
        out
    }

    /// The renderings are pinned to the output of the hand-written v4
    /// exporters (`testdata/`, captured from `sample()` before they were
    /// replaced by the declaration walks).
    #[test]
    fn renderings_match_pinned_v4_fixtures() {
        let json = include_str!("../testdata/sample.json");
        let prom = include_str!("../testdata/sample.prom");
        let absorbed = include_str!("../testdata/sample_absorbed.json");
        assert_eq!(TelemetrySnapshot::from_json(json).unwrap(), sample());
        let tree = |text: &str| canon(Json::parse(text).unwrap());
        assert_eq!(tree(&sample().to_json().render()), tree(json));
        let (new, old) = (families(&sample().to_prometheus()), families(prom));
        assert!(new.keys().eq(old.keys()), "the set of families changed");
        for (name, fam) in &old {
            assert_eq!(&new[name], fam, "family {name}");
        }
        let mut sum = sample();
        sum.absorb(&sample());
        assert_eq!(tree(&sum.to_json().render()), tree(absorbed));
    }

    /// Walks the registry: each declared field, set alone to a non-zero
    /// value, must reach JSON, its Prometheus family (and its per-export
    /// family when marked), survive a JSON round trip, and fold under
    /// `absorb` by its declared rule. A metric missing from any rendering
    /// fails here.
    #[test]
    fn every_declared_metric_reaches_every_rendering() {
        let l = sample().ops.read;
        let mut declared = 0;
        for (section, fields) in TelemetrySnapshot::registry() {
            for m in fields {
                let what = format!("{section}.{}", m.key);
                let get = |j: &Json| match section {
                    "" => j.get(m.key).cloned(),
                    _ => j.get(section)?.get(m.key).cloned(),
                };
                let (value, summed, sample) = match m.kind {
                    Kind::Latency => {
                        let twice = LatencySnapshot { count: 200, ..l };
                        (lat_json(&l), lat_json(&twice), "_p99_ns 9001.25")
                    }
                    Kind::Flag => (Json::Bool(true), Json::Bool(true), " 1"),
                    _ => (Json::Num(7.0), Json::Num(14.0), " 7"),
                };
                // Set the field on the node and on one tenant.
                let (key, v) = (m.key, value.render());
                let body = match section {
                    "" => format!("\"{key}\":{v}"),
                    _ => format!("\"{section}\":{{\"{key}\":{v}}}"),
                };
                let text = format!(
                    "{{\"schema\":\"{SCHEMA}\",{body},\"tenants\":[{{\"export\":\"t\",{body}}}]}}"
                );
                let snap = TelemetrySnapshot::from_json(&text).unwrap();

                let json = snap.to_json();
                assert_eq!(get(&json), Some(value.clone()), "{what}: to_json");
                let back = TelemetrySnapshot::from_json(&json.render()).unwrap();
                assert_eq!(back, snap, "{what}: from_json round trip");

                let prom = snap.to_prometheus();
                let mut lines = vec![format!("{}{sample}", m.family)];
                lines.push(match m.kind {
                    Kind::Latency => format!("# TYPE {}_count counter", m.family),
                    k => format!("# TYPE {} {}", m.family, k.prom_type()),
                });
                if let Some((family, _)) = m.export.first() {
                    let v = sample.rsplit(' ').next().unwrap();
                    lines.push(format!("{family}{{export=\"t\"}} {v}"));
                }
                for line in lines {
                    assert!(prom.lines().any(|l| l == line), "{what}: no `{line}`");
                }

                let mut sum = snap.clone();
                sum.absorb(&snap);
                let got = get(&sum.to_json());
                match m.agg {
                    Agg::Sum | Agg::Or | Agg::Merge => {
                        assert_eq!(got, Some(summed), "{what}: absorb {:?}", m.agg)
                    }
                    Agg::Max => assert_eq!(got, Some(value), "{what}: absorb Max"),
                    Agg::Ratio => assert_ne!(got, Some(summed), "{what}: ratio was summed"),
                }
                declared += 1;
            }
        }
        assert!(declared >= 96, "registry lists only {declared} fields");
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = sample();
        let text = snap.to_json().render();
        let back = TelemetrySnapshot::from_json(&text).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn schema_key_is_first_and_validated() {
        let text = sample().to_json().render();
        assert!(
            text.starts_with("{\"schema\":\"lsvd-telemetry-v4\""),
            "{text}"
        );
        let tampered = text.replace(SCHEMA, "lsvd-telemetry-v0");
        assert!(TelemetrySnapshot::from_json(&tampered).is_err());
    }

    #[test]
    fn default_round_trips_too() {
        let snap = TelemetrySnapshot::default();
        let text = snap.to_json().render();
        assert_eq!(TelemetrySnapshot::from_json(&text).unwrap(), snap);
    }

    #[test]
    fn prometheus_text_has_type_lines_and_values() {
        let prom = sample().to_prometheus();
        assert!(
            prom.contains("# TYPE lsvd_backend_put_p99_ns gauge"),
            "{prom}"
        );
        assert!(prom.contains("lsvd_wb_occupancy 0.75"), "{prom}");
        assert!(prom.contains("lsvd_wb_degraded 1"), "{prom}");
        assert!(prom.contains("lsvd_write_amplification 1.37"), "{prom}");
        assert!(prom.contains("lsvd_serving_conns_open 4"), "{prom}");
        assert!(prom.contains("lsvd_rcache_hit_ratio 0.66"), "{prom}");
        assert!(
            prom.contains("# TYPE lsvd_rp_singleflight_waits_total counter"),
            "{prom}"
        );
        assert!(
            prom.contains("lsvd_rp_singleflight_waits_total 17"),
            "{prom}"
        );
        assert!(
            prom.contains("# TYPE lsvd_serving_conns_total counter"),
            "{prom}"
        );
        assert!(prom.contains("lsvd_trace_dropped_total 12"), "{prom}");
        assert!(
            prom.contains("lsvd_space_cleaning_write_amp 0.42"),
            "{prom}"
        );
        assert!(prom.contains("lsvd_gc_pass_active 1"), "{prom}");
        assert!(
            prom.contains("# TYPE lsvd_gc_passes_total counter"),
            "{prom}"
        );
        assert!(prom.contains("lsvd_span_dropped_total 3"), "{prom}");
        assert!(
            prom.contains("# TYPE lsvd_rp_shared_lock_wait_p99_ns gauge"),
            "{prom}"
        );
        assert!(
            prom.contains("# TYPE lsvd_serving_queue_wait_p99_ns gauge"),
            "{prom}"
        );
        assert!(
            prom.contains("lsvd_serving_bytes_read_total 8388608"),
            "{prom}"
        );
        assert!(
            prom.contains("lsvd_rp_quota_bypassed_sectors_total 512"),
            "{prom}"
        );
        assert!(
            prom.contains("# TYPE lsvd_tenant_reads_total counter"),
            "{prom}"
        );
        assert!(
            prom.contains("lsvd_tenant_reads_total{export=\"alpha\"} 1200"),
            "{prom}"
        );
        assert!(
            prom.contains("lsvd_tenant_cache_quota_bytes{export=\"alpha\"} 16777216"),
            "{prom}"
        );
        assert!(
            prom.contains("lsvd_tenant_conns_open{export=\"beta\\\"2\"} 1"),
            "{prom}"
        );
        for line in prom.lines() {
            assert!(
                line.starts_with("# HELP lsvd_")
                    || line.starts_with("# TYPE lsvd_")
                    || line.starts_with("lsvd_"),
                "unexpected line: {line}"
            );
        }
    }

    /// Format lint for the whole exposition: every sample line parses as
    /// `name[{labels}] value`, sits under its own `# HELP` and `# TYPE`
    /// preamble (labeled families may emit several samples per preamble),
    /// declares a known type, follows the counter naming convention, and
    /// no family appears twice.
    #[test]
    fn prometheus_exposition_is_well_formed() {
        let prom = sample().to_prometheus();
        let lines: Vec<&str> = prom.lines().collect();
        assert!(!lines.is_empty());
        let mut seen = std::collections::HashSet::new();
        let mut seen_series = std::collections::HashSet::new();
        let mut samples = 0usize;
        let mut i = 0;
        while i < lines.len() {
            let help = lines[i];
            let rest = help
                .strip_prefix("# HELP ")
                .unwrap_or_else(|| panic!("line {i} is not a HELP line: {help}"));
            let name = rest.split_whitespace().next().unwrap();
            assert!(
                rest.len() > name.len() + 1,
                "metric {name} has an empty help string"
            );
            let type_line = lines
                .get(i + 1)
                .unwrap_or_else(|| panic!("missing TYPE after {help}"));
            let ty = type_line
                .strip_prefix(&format!("# TYPE {name} "))
                .unwrap_or_else(|| panic!("TYPE line does not match {name}: {type_line}"));
            assert!(
                ty == "counter" || ty == "gauge",
                "metric {name} has unknown type {ty}"
            );
            if ty == "counter" {
                assert!(
                    name.ends_with("_total") || name.ends_with("_count"),
                    "counter {name} is missing its _total/_count suffix"
                );
            }
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "illegal metric name {name}"
            );
            assert!(seen.insert(name.to_string()), "duplicate metric {name}");
            // One or more sample lines whose base name matches the family.
            let mut family_samples = 0usize;
            i += 2;
            while i < lines.len() && !lines[i].starts_with('#') {
                let sample_line = lines[i];
                let (series, value) = sample_line
                    .rsplit_once(' ')
                    .unwrap_or_else(|| panic!("malformed sample line: {sample_line}"));
                let base = series.split('{').next().unwrap();
                assert_eq!(base, name, "sample under the wrong preamble: {sample_line}");
                if let Some(rest) = series.strip_prefix(&format!("{name}{{")) {
                    let labels = rest
                        .strip_suffix('}')
                        .unwrap_or_else(|| panic!("unterminated label set: {series}"));
                    assert!(
                        labels.contains("=\""),
                        "labels missing key=\"value\" form: {series}"
                    );
                } else {
                    assert_eq!(series, name, "garbled series name: {series}");
                }
                assert!(
                    seen_series.insert(series.to_string()),
                    "duplicate series {series}"
                );
                let v: f64 = value
                    .parse()
                    .unwrap_or_else(|_| panic!("non-numeric sample for {series}: {value}"));
                assert!(v.is_finite(), "non-finite sample for {series}");
                if ty == "counter" {
                    assert!(v >= 0.0, "negative counter {series}");
                }
                family_samples += 1;
                samples += 1;
                i += 1;
            }
            assert!(family_samples >= 1, "family {name} emitted no samples");
        }
        assert!(samples > 100, "suspiciously few metrics: {samples}");
    }

    #[test]
    fn report_mentions_headline_sections() {
        let rep = sample().report();
        for needle in [
            "ops.write",
            "writeback",
            "derived",
            "write_amplification=1.37",
            "space",
            "cleaning_write_amp=0.42",
            "data_plane",
            "read_plane",
            "serving",
            "trace",
            "spans",
            "tenant alpha",
        ] {
            assert!(rep.contains(needle), "missing {needle}: {rep}");
        }
    }

    #[test]
    fn absorb_sums_counters_and_collects_tenants() {
        let a = sample();
        let mut sum = sample();
        sum.absorb(&a);
        assert_eq!(sum.serving.reads, 2 * a.serving.reads);
        assert_eq!(sum.backend.put_bytes, 2 * a.backend.put_bytes);
        assert_eq!(sum.cache.hdr_hits, 2 * a.cache.hdr_hits);
        assert_eq!(
            sum.read_plane.quota_bypassed_sectors,
            2 * a.read_plane.quota_bypassed_sectors
        );
        assert_eq!(sum.ops.read.count, 2 * a.ops.read.count);
        // Count-weighted latency merge of two identical sketches keeps
        // the mean and quantiles unchanged.
        assert!((sum.ops.read.mean_ns - a.ops.read.mean_ns).abs() < 1e-9);
        assert!((sum.ops.read.p99_ns - a.ops.read.p99_ns).abs() < 1e-9);
        assert_eq!(sum.writeback.degraded, a.writeback.degraded);
        assert_eq!(sum.tenants.len(), 2 * a.tenants.len());
        // Ratios stay ratios (not sums).
        assert!(sum.cache.rcache_hit_ratio <= 1.0);
        assert!((sum.derived.write_amplification - a.derived.write_amplification).abs() < 1e-6);
    }
}
