//! The three workloads and every size, rate and limit they run with.
//!
//! Every dataset is `ind` with d = 3 (the paper's default) and n = 1000.
//! Sizes stay at n = 1000 on purpose: from n ≈ 2000 at d = 3 single
//! queries reach seconds (n = 5000 measured 3.6 s), and a benchmark whose
//! tail is one unlucky focal record does not repeat.

/// How focal records are drawn.
#[derive(Debug, Clone, Copy)]
pub enum Access {
    /// Uniform over every (dataset, record) key.
    Uniform,
    /// Zipf over record ids with the given skew θ.
    Zipf(f64),
}

/// How the benchmark reaches the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `MrqService` calls in the benchmark process.
    InProcess,
    /// Connections to a `Server` on loopback, in the same process, speaking
    /// the wire protocol's frames.
    Tcp,
}

/// One workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Number of `ind` datasets (each with its own generator seed).
    pub datasets: usize,
    /// Records per dataset.
    pub records: usize,
    pub dims: usize,
    pub access: Access,
    pub transport: Transport,
    /// Weights of query : update : subscribe.
    pub mix: [u32; 3],
    /// `Some(bytes)`: the dataset is registered durably and checkpoints
    /// once its WAL passes this size.
    pub checkpoint_wal_bytes: Option<u64>,
    /// Offered rate of the open-loop phase, ops/s: about 30 % of the
    /// closed-loop capacity measured when the benchmark was introduced
    /// (read_hot: a few per cent of it, see its entry).  At half of capacity
    /// a few per cent of CPU speed, which this class of shared 2-core
    /// machine varies by ±15 %, moved the query p50 by 50 % between
    /// identical runs.
    pub open_rate: f64,
    /// Latency limit of the open-loop phase: an op answered correctly
    /// within it counts towards `slo_attainment`.
    pub latency_limit_ms: f64,
}

/// Generator seed of the datasets (dataset `i` uses a stream derived from
/// it).  The datasets are the same in every run and `--seed` drives the
/// requests: focal draws, inserted rows and the op mix.  With datasets drawn
/// from `--seed` as well, the few hottest focal records (Zipf) were new
/// random records in every run, and their evaluation cost, which the
/// subscriptions and the per-update cache purge pay again and again, moved
/// `write_mix` throughput by 2× from one seed to the next.
pub const DATASET_SEED: u64 = 2015;

/// Result-cache capacity of the service (its default, `ServiceConfig`).
pub const CACHE_ENTRIES: usize = 1024;
/// Standing queries held at once on `write_mix`; a subscribe beyond it
/// first cancels the oldest.
pub const SUBSCRIPTION_CAP: usize = 2;
/// Inserted rows kept alive on `write_mix`; an update beyond it also
/// deletes the oldest inserted row, so the dataset size stays steady.
pub const UPDATE_BACKLOG_CAP: usize = 64;

pub const WORKLOADS: [Workload; 3] = [
    // Evaluation-bound: 4 × 1000 = 4000 keys against 1024 cache entries, so
    // about three queries in four are evaluated (AA, within-leaf search,
    // LP, quad-tree, R*-tree).
    Workload {
        name: "eval_cold",
        datasets: 4,
        records: 1000,
        dims: 3,
        access: Access::Uniform,
        transport: Transport::InProcess,
        mix: [1, 0, 0],
        checkpoint_wal_bytes: None,
        open_rate: 50.0,
        latency_limit_ms: 100.0,
    },
    // Serving-bound: 1000 keys fit in the 1024-entry cache, so after
    // warm-up nearly every query is a hit and the protocol, connection
    // threads, pool dispatch and cache lookup do the work.  The open loop
    // runs on one connection, whose requests the server answers one at a
    // time, each after a hand-off to a pool worker and back; at 4000/s and
    // 5 ms, stretches where the host was slow to wake threads pushed the
    // share within the limit from 0.99 down to 0.4.
    Workload {
        name: "read_hot",
        datasets: 1,
        records: 1000,
        dims: 3,
        access: Access::Zipf(0.99),
        transport: Transport::Tcp,
        mix: [1, 0, 0],
        checkpoint_wal_bytes: None,
        open_rate: 1000.0,
        latency_limit_ms: 10.0,
    },
    // Writes beside reads: copy-on-write apply, WAL append + fsync,
    // `purge_stale` and subscription triage on every update.
    Workload {
        name: "write_mix",
        datasets: 1,
        records: 1000,
        dims: 3,
        access: Access::Zipf(0.8),
        transport: Transport::InProcess,
        mix: [85, 10, 5],
        checkpoint_wal_bytes: Some(2048),
        open_rate: 25.0,
        latency_limit_ms: 250.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
