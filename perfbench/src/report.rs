//! Turns the measured phases into the end-to-end and per-layer metrics.

use crate::load::{Phase, Record};
use crate::stats::{ratio, Samples};
use crate::sut::OpKind;
use crate::trace::Trace;
use crate::workloads::Workload;
use mrq_service::ServiceStats;

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and other context for the human-readable line.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: String::new(),
    }
}

/// Latency samples (ms) of the successful ops of one kind.
fn latencies_ms(records: &[Record], kind: OpKind) -> Samples {
    let mut s = Samples::default();
    for r in records.iter().filter(|r| r.kind == kind && r.outcome.ok) {
        s.push(r.latency_ns as f64 / 1e6);
    }
    s
}

/// A percentile metric, noting its sample count and how many lie beyond.
fn percentile(name: &'static str, samples: &mut Samples, q: f64) -> Metric {
    let mut m = metric(name, samples.quantile(q), "ms");
    m.note = format!("n={}, {} beyond", samples.len(), samples.beyond(q));
    m
}

pub struct Measured<'a> {
    pub workload: &'static Workload,
    pub setup_s: &'a mut Samples,
    pub closed: &'a Phase,
    pub open: &'a Phase,
    pub peak_rss_mb: f64,
}

pub fn throughput(phase: &Phase) -> f64 {
    ratio(phase.ops() as f64, phase.elapsed_s)
}

/// Median of per-round values.
fn median(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    values.iter().for_each(|&v| s.push(v));
    s.quantile(0.5)
}

/// Wall-clock closed-loop throughput, the median of the rounds.  Not
/// bounded: stretches of tens of seconds in which the host leaves the
/// process idle (1.1–1.4 of 2 cores busy) cut it by 2–3× while the CPU time
/// per op stays within 10 %.
fn closed_throughput(closed: &Phase) -> Metric {
    let mut m = metric("throughput_ops_s", median(&closed.round_values), "ops/s");
    m.note = format!(
        "median of {} rounds {:.1?}",
        closed.round_values.len(),
        closed.round_values
    );
    m
}

pub fn end_to_end(m: &mut Measured) -> Vec<Metric> {
    let open = &m.open.records;
    let limit_ns = m.workload.latency_limit_ms * 1e6;
    let met = open
        .iter()
        .filter(|r| r.outcome.ok && (r.latency_ns as f64) <= limit_ns)
        .count();
    let mut cpu = metric("cpu_us_per_op", median(&m.closed.round_cpu_us), "us");
    cpu.note = format!(
        "median of {} rounds {:.2?}; wall throughput {:.1} ops/s ({} ops in {:.3} s)",
        m.closed.round_cpu_us.len(),
        m.closed.round_cpu_us,
        median(&m.closed.round_values),
        m.closed.ops(),
        m.closed.elapsed_s
    );
    let mut queries = latencies_ms(open, OpKind::Query);
    let mut slo = metric("slo_attainment", median(&m.open.round_slo), "ratio");
    slo.note = format!(
        "median of {} rounds {:.4?}; {met} of {} ops within {} ms; queries p50 {:.3} p90 {:.3} \
         p95 {:.3} p99 {:.3} ms (n={}, {} beyond p99)",
        m.open.round_slo.len(),
        m.open.round_slo,
        open.len(),
        m.workload.latency_limit_ms,
        queries.quantile(0.5),
        queries.quantile(0.9),
        queries.quantile(0.95),
        queries.quantile(0.99),
        queries.len(),
        queries.beyond(0.99)
    );
    let mut setup = metric("setup_s", m.setup_s.quantile(0.5), "s");
    setup.note = format!("median of {} set-ups", m.setup_s.len());
    vec![cpu, slo, setup, metric("peak_rss_mb", m.peak_rss_mb, "MB")]
}

/// Service counters accumulated over a phase (`ServiceStats` after minus
/// before), as `f64` for the ratios.
#[derive(Debug, Clone, Default)]
pub struct Diff {
    hits: f64,
    misses: f64,
    evictions: f64,
    stale: f64,
    coalesced: f64,
    timed_out: f64,
    book_executed: f64,
    cells: f64,
    lp: f64,
    witness: f64,
    io: f64,
    wal_appends: f64,
    wal_bytes: f64,
    checkpoints: f64,
    deltas: f64,
    unaffected: f64,
    shifts: f64,
    reevals: f64,
}

impl Diff {
    pub fn add(&mut self, o: &Diff) {
        let pairs = [
            (&mut self.hits, o.hits),
            (&mut self.misses, o.misses),
            (&mut self.evictions, o.evictions),
            (&mut self.stale, o.stale),
            (&mut self.coalesced, o.coalesced),
            (&mut self.timed_out, o.timed_out),
            (&mut self.book_executed, o.book_executed),
            (&mut self.cells, o.cells),
            (&mut self.lp, o.lp),
            (&mut self.witness, o.witness),
            (&mut self.io, o.io),
            (&mut self.wal_appends, o.wal_appends),
            (&mut self.wal_bytes, o.wal_bytes),
            (&mut self.checkpoints, o.checkpoints),
            (&mut self.deltas, o.deltas),
            (&mut self.unaffected, o.unaffected),
            (&mut self.shifts, o.shifts),
            (&mut self.reevals, o.reevals),
        ];
        for (mine, theirs) in pairs {
            *mine += theirs;
        }
    }
}

pub fn diff(before: &ServiceStats, after: &ServiceStats) -> Diff {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let book = |s: &ServiceStats| {
        s.per_dataset.iter().fold([0u64; 5], |acc, q| {
            [
                acc[0] + q.queries,
                acc[1] + q.cells_tested,
                acc[2] + q.lp_calls,
                acc[3] + q.witness_hits,
                acc[4] + q.io_reads,
            ]
        })
    };
    let (b, a) = (book(before), book(after));
    Diff {
        hits: d(after.cache.hits, before.cache.hits),
        misses: d(after.cache.misses, before.cache.misses),
        evictions: d(after.cache.evictions, before.cache.evictions),
        stale: d(after.cache.evictions_stale, before.cache.evictions_stale),
        coalesced: d(after.pool.coalesced, before.pool.coalesced),
        timed_out: d(
            after.pool.timed_out + after.pool.deadline_rejected,
            before.pool.timed_out + before.pool.deadline_rejected,
        ),
        book_executed: d(a[0], b[0]),
        cells: d(a[1], b[1]),
        lp: d(a[2], b[2]),
        witness: d(a[3], b[3]),
        io: d(a[4], b[4]),
        wal_appends: d(after.durability.wal_appends, before.durability.wal_appends),
        wal_bytes: d(
            after.durability.wal_appended_bytes,
            before.durability.wal_appended_bytes,
        ),
        checkpoints: d(after.durability.checkpoints, before.durability.checkpoints),
        deltas: d(
            after.subscriptions.deltas_triaged,
            before.subscriptions.deltas_triaged,
        ),
        unaffected: d(
            after.subscriptions.unaffected_skips,
            before.subscriptions.unaffected_skips,
        ),
        shifts: d(
            after.subscriptions.partial_repairs,
            before.subscriptions.partial_repairs,
        ),
        reevals: d(
            after.subscriptions.full_reevals,
            before.subscriptions.full_reevals,
        ),
    }
}

fn mean_ns(trace: &Trace, name: &str) -> f64 {
    let mut s = Samples::default();
    trace.durations_ns(name).for_each(|d| s.push(d as f64));
    s.mean()
}

/// Median duration (ns) of the spans called `name`: for round trips, whose
/// mean a few host stalls of tens of ms dominate.
fn median_ns(trace: &Trace, name: &str) -> f64 {
    let mut s = Samples::default();
    trace.durations_ns(name).for_each(|d| s.push(d as f64));
    s.quantile(0.5)
}

fn mean_count(trace: &Trace, name: &str) -> f64 {
    let mut s = Samples::default();
    trace.counts_of(name).for_each(|v| s.push(v as f64));
    s.mean()
}

pub struct Traced<'a> {
    /// The closed loop without spans, for the tracing overhead.
    pub closed_plain: &'a Phase,
    pub closed: &'a Phase,
    pub open: &'a Phase,
    pub setup_trace: &'a Trace,
}

pub fn per_layer(t: &Traced) -> Vec<Metric> {
    // Spans of both traced phases, for the per-call means.
    let mut trace = Trace::new(true, std::time::Instant::now());
    trace.absorb(t.closed.trace.clone());
    trace.absorb(t.open.trace.clone());

    let mut d = t.closed.counters.clone();
    d.add(&t.open.counters);
    // The in-process replays beside each TCP query are lookups of their own:
    // take them out of the cache and pool counters.
    let replay_hits: f64 = trace.counts_of("replay.cached").map(|v| v as f64).sum();
    let replays = trace.counts_of("replay.cached").count() as f64;
    d.hits -= replay_hits;
    d.misses -= replays - replay_hits;
    d.book_executed -= replays - replay_hits;

    let records: Vec<&Record> = t.closed.records.iter().chain(&t.open.records).collect();
    let updates = records.iter().filter(|r| r.kind == OpKind::Update).count() as f64;
    let mut eval_ms = Samples::default();
    let mut halfspaces = Samples::default();
    let mut leaves = Samples::default();
    let mut queue_wait_ms = Samples::default();
    for r in &records {
        if let Some(eval) = &r.outcome.eval {
            let cpu_ns = eval.cpu_ns as f64;
            eval_ms.push(cpu_ns / 1e6);
            if let Some((h, l)) = eval.quadtree {
                halfspaces.push(f64::from(h));
                leaves.push(f64::from(l));
            }
            if r.outcome.wait_ns > 0 {
                queue_wait_ms.push((r.outcome.wait_ns as f64 - cpu_ns).max(0.0) / 1e6);
            }
        }
    }
    let mut lag_ms = Samples::default();
    t.open
        .records
        .iter()
        .for_each(|r| lag_ms.push(r.lag_ns as f64 / 1e6));
    let open = &t.open.records;
    let mut query_ms = latencies_ms(open, OpKind::Query);
    let mut update_ms = latencies_ms(open, OpKind::Update);
    let mut subscribe_ms = latencies_ms(open, OpKind::Subscribe);

    let roundtrip_ns = median_ns(&trace, "client.query");
    let local_ns = median_ns(&trace, "service.query_local");
    let server_overhead_ns = if roundtrip_ns > 0.0 {
        roundtrip_ns - local_ns
    } else {
        0.0
    };
    let plain = throughput(t.closed_plain);
    let traced_tput = throughput(t.closed);

    let mut out = vec![
        metric(
            "protocol.parse_us",
            mean_ns(&trace, "protocol.parse") / 1e3,
            "us",
        ),
        metric(
            "protocol.encode_us",
            mean_ns(&trace, "protocol.encode") / 1e3,
            "us",
        ),
        metric(
            "protocol.reply_bytes",
            mean_count(&trace, "protocol.reply_bytes"),
            "bytes",
        ),
        metric("client.roundtrip_us", roundtrip_ns / 1e3, "us"),
        metric("server.overhead_us", server_overhead_ns / 1e3, "us"),
        metric(
            "service.enqueue_us",
            mean_ns(&trace, "service.enqueue") / 1e3,
            "us",
        ),
        metric("pool.wait_us", mean_ns(&trace, "pool.wait") / 1e3, "us"),
        metric("pool.queue_wait_ms", queue_wait_ms.mean(), "ms"),
        metric(
            "pool.coalesced_ratio",
            ratio(d.coalesced, d.hits + d.misses),
            "ratio",
        ),
        metric("pool.timed_out", d.timed_out, "count"),
        metric("cache.hit_ratio", ratio(d.hits, d.hits + d.misses), "ratio"),
        metric("cache.evictions", d.evictions, "count"),
        metric(
            "cache.stale_purged_per_update",
            ratio(d.stale, updates),
            "count",
        ),
        percentile("core.eval_ms_p50", &mut eval_ms, 0.5),
        percentile("core.eval_ms_p99", &mut eval_ms, 0.99),
        metric(
            "core.cells_tested",
            ratio(d.cells, d.book_executed),
            "count",
        ),
        // Feasibility decisions a cached witness answered, of all decisions
        // (witness or LP).  `witness_hits` also counts pair-condition
        // checks, so dividing by `cells_tested` alone can exceed 1.
        metric(
            "core.witness_hit_ratio",
            ratio(d.witness, d.witness + d.lp),
            "ratio",
        ),
        metric("geometry.lp_calls", ratio(d.lp, d.book_executed), "count"),
        metric("quadtree.halfspaces_inserted", halfspaces.mean(), "count"),
        metric("quadtree.leaves_processed", leaves.mean(), "count"),
        metric("index.io_reads", ratio(d.io, d.book_executed), "count"),
        metric(
            "service.update_ms",
            mean_ns(&trace, "service.update") / 1e6,
            "ms",
        ),
        metric(
            "registry.cow_clone_ms",
            mean_ns(&trace, "registry.cow_clone") / 1e6,
            "ms",
        ),
        metric(
            "storage.wal_bytes_per_update",
            ratio(d.wal_bytes, d.wal_appends),
            "bytes",
        ),
        metric("storage.checkpoints", d.checkpoints, "count"),
        metric(
            "service.subscribe_ms",
            mean_ns(&trace, "service.subscribe") / 1e6,
            "ms",
        ),
        metric(
            "subscriptions.active_mean",
            mean_count(&trace, "subscriptions.active"),
            "count",
        ),
        metric(
            "subscriptions.deltas_per_update",
            ratio(d.deltas, updates),
            "count",
        ),
        metric(
            "subscriptions.unaffected_ratio",
            ratio(d.unaffected, d.deltas),
            "ratio",
        ),
        metric(
            "subscriptions.shift_ratio",
            ratio(d.shifts, d.deltas),
            "ratio",
        ),
        metric(
            "subscriptions.reeval_ratio",
            ratio(d.reevals, d.deltas),
            "ratio",
        ),
        metric(
            "maintain.triage_us",
            mean_ns(&trace, "maintain.triage") / 1e3,
            "us",
        ),
        metric(
            "maintain.reeval_ms",
            mean_ns(&trace, "maintain.reeval") / 1e6,
            "ms",
        ),
        metric(
            "registry.register_ms",
            mean_ns(t.setup_trace, "registry.register") / 1e6,
            "ms",
        ),
        metric(
            "index.bulk_load_ms",
            mean_ns(t.setup_trace, "index.bulk_load") / 1e6,
            "ms",
        ),
        closed_throughput(t.closed_plain),
        percentile("query_p50_ms", &mut query_ms, 0.5),
        percentile("query_p99_ms", &mut query_ms, 0.99),
        percentile("update_p50_ms", &mut update_ms, 0.5),
        percentile("update_p90_ms", &mut update_ms, 0.9),
        percentile("subscribe_p50_ms", &mut subscribe_ms, 0.5),
        percentile("driver.lag_p99_ms", &mut lag_ms, 0.99),
        metric(
            "trace.overhead_ratio",
            1.0 - ratio(traced_tput, plain),
            "ratio",
        ),
    ];
    out.extend(split(t.closed));
    out
}

/// Mean closed-loop latency of queries and updates, split across the
/// layers the spans and the answers' own stats name; what no layer
/// accounts for is printed as `unattributed`.
fn split(closed: &Phase) -> Vec<Metric> {
    let trace = &closed.trace;
    let queries: Vec<&Record> = closed
        .records
        .iter()
        .filter(|r| r.kind == OpKind::Query && r.outcome.ok)
        .collect();
    let n = (queries.len() + closed.hits).max(1) as f64;
    let core_ns: f64 = queries
        .iter()
        .filter_map(|r| r.outcome.eval.as_ref())
        .map(|e| e.cpu_ns as f64)
        .sum::<f64>()
        / n;
    let wait_ns = mean_ns(trace, "pool.wait");
    let enqueue_ns = mean_ns(trace, "service.enqueue");
    let q_total = mean_ns(trace, "op.query");
    let pool_ns = (wait_ns - core_ns).max(0.0);
    let core_ns = core_ns.max(0.0);
    let u_total = mean_ns(trace, "op.update");
    let cow_ns = mean_ns(trace, "registry.cow_clone");
    let triage_ns = mean_ns(trace, "maintain.triage");
    let reeval_ns = mean_ns(trace, "maintain.reeval");
    let ms = |ns: f64| ns / 1e6;
    vec![
        metric("split.query.total_ms", ms(q_total), "ms"),
        metric("split.query.service_ms", ms(enqueue_ns), "ms"),
        metric("split.query.pool_ms", ms(pool_ns), "ms"),
        metric("split.query.core_ms", ms(core_ns), "ms"),
        metric(
            "split.query.unattributed_ms",
            ms(q_total - enqueue_ns - pool_ns - core_ns),
            "ms",
        ),
        metric("split.update.total_ms", ms(u_total), "ms"),
        metric("split.update.registry_ms", ms(cow_ns), "ms"),
        metric("split.update.maintain_ms", ms(triage_ns + reeval_ns), "ms"),
        metric(
            "split.update.unattributed_ms",
            ms(u_total - cow_ns - triage_ns - reeval_ns),
            "ms",
        ),
    ]
}
