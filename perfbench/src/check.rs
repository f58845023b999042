//! Correctness checks run in the same command as the measurement.

use crate::sut::{summarize, Sample, Sut};
use mrq_core::{MaxRankConfig, MaxRankQuery};
use mrq_data::storage::DatasetStore;
use mrq_data::Dataset;
use mrq_service::DatasetEntry;
use std::path::Path;
use std::sync::Arc;

/// Re-evaluates each sampled answer on the snapshot it was computed from
/// and compares k*, region count and the region orders.
pub fn sampled_answers(samples: &[Sample]) -> Vec<String> {
    let config = MaxRankConfig::new();
    samples
        .iter()
        .filter_map(|s| {
            let fresh =
                MaxRankQuery::new(s.entry.data(), s.entry.tree()).evaluate(s.focal, &config);
            let want = summarize(&fresh);
            (want != s.got).then(|| {
                format!(
                    "dataset '{}' v{} focal {}: served (k*={}, regions={}) but a fresh \
                     evaluation gives (k*={}, regions={})",
                    s.entry.name(),
                    s.entry.version(),
                    s.focal,
                    s.got.0,
                    s.got.1,
                    want.0,
                    want.1
                )
            })
        })
        .collect()
}

/// Every live subscription must hold the result a fresh evaluation gives
/// at the final version.
pub fn subscriptions(sut: &Sut) -> Vec<String> {
    let writes = sut.writes.lock().expect("write state lock");
    let mut errors = Vec::new();
    for sub in &writes.subs {
        let Some(index) = sut.names.iter().position(|n| n == sub.dataset()) else {
            errors.push(format!("subscription {} on unknown dataset", sub.id()));
            continue;
        };
        let entry = sut.snapshot(index);
        let (result, version) = sub.snapshot();
        if version != entry.version() {
            errors.push(format!(
                "subscription {} is at version {version}, the dataset at {}",
                sub.id(),
                entry.version()
            ));
            continue;
        }
        let config = MaxRankConfig::new().with_algorithm(sub.algorithm());
        let fresh = MaxRankQuery::new(entry.data(), entry.tree()).evaluate(sub.focal(), &config);
        if summarize(&fresh) != summarize(&result) {
            errors.push(format!(
                "subscription {} (focal {}) holds k*={} with {} regions; a fresh evaluation \
                 gives k*={} with {}",
                sub.id(),
                sub.focal(),
                result.k_star,
                result.region_count(),
                fresh.k_star,
                fresh.region_count()
            ));
        }
    }
    errors
}

/// Reopens each durable store after the service that wrote it is gone: it
/// must recover the final version and exactly the live rows.
pub fn stores(root: &Path, finals: &[Arc<DatasetEntry>]) -> Vec<String> {
    let rows = |d: &Dataset| d.iter().map(|(id, r)| (id, r.to_vec())).collect::<Vec<_>>();
    let mut errors = Vec::new();
    for entry in finals {
        let name = entry.name();
        match DatasetStore::open(&root.join(name)) {
            Err(e) => errors.push(format!("reopening '{name}': {e}")),
            Ok((_store, data, _report)) => {
                if data.version() != entry.version() {
                    errors.push(format!(
                        "store '{name}' recovered version {}, the service ended at {}",
                        data.version(),
                        entry.version()
                    ));
                }
                if rows(&data) != rows(entry.data()) {
                    errors.push(format!(
                        "store '{name}' recovered {} live rows that differ from the service's {}",
                        data.live_len(),
                        entry.data().live_len()
                    ));
                }
            }
        }
    }
    errors
}
