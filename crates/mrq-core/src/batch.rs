//! Batch MaxRank evaluation and the "most promotable options" analysis.
//!
//! The paper's introduction motivates running MaxRank for *many* focal
//! records (one per candidate configuration in a what-if study, or one per
//! catalogue item when profiling a whole portfolio).  Individual MaxRank
//! evaluations are read-only and independent, so they parallelise trivially;
//! this module fans the work out over scoped threads (`std::thread::scope`)
//! and offers a
//! convenience ranking of the evaluated records by their best attainable
//! rank.

use crate::query::{MaxRankConfig, MaxRankQuery};
use crate::result::MaxRankResult;
use mrq_data::{Dataset, RecordId};
use mrq_index::RStarTree;

/// Runs `worker(shard)` on `threads` scoped threads and returns the per-shard
/// outputs in shard order.  `threads = 1` runs inline with no thread spawned.
///
/// This is the workspace's shared "scoped-thread splitter": `evaluate_batch`
/// fans focal records out with it, and the within-leaf cell enumeration
/// runs its workers on it (they pop leaves from one shared frontier rather
/// than a static partition, so uneven leaves balance out).
pub fn scatter<R, F>(threads: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(threads >= 1, "at least one shard is required");
    if threads == 1 {
        return vec![worker(0)];
    }
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (0..threads)
            .map(|shard| scope.spawn(move || worker(shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
}

/// Evaluates MaxRank for every given focal record, in parallel over at most
/// `threads` worker threads (`threads = 1` falls back to a sequential loop).
///
/// Results are returned in the same order as `focal_ids`.
pub fn evaluate_batch(
    data: &Dataset,
    tree: &RStarTree,
    focal_ids: &[RecordId],
    config: &MaxRankConfig,
    threads: usize,
) -> Vec<MaxRankResult> {
    assert!(threads >= 1, "at least one worker thread is required");
    if focal_ids.is_empty() {
        return Vec::new();
    }
    if threads == 1 || focal_ids.len() == 1 {
        let engine = MaxRankQuery::new(data, tree);
        return focal_ids
            .iter()
            .map(|&id| engine.evaluate(id, config))
            .collect();
    }

    // The tree is `Sync` (atomic I/O counter) and could be shared directly,
    // but the page-access counter is per-tree: concurrent queries on one tree
    // interleave their reads and garble the per-query `io_reads` statistic.
    // Each worker therefore clones the (in-memory) index once; the clone cost
    // is negligible next to the MaxRank evaluations themselves.  Each clone's
    // read delta is folded back into the shared tree's counter afterwards, so
    // tree-level aggregate accounting (e.g. the serving layer's stats) stays
    // truthful despite the cloning.
    let workers = threads.min(focal_ids.len());
    let chunk = focal_ids.len().div_ceil(workers);
    let chunks: Vec<&[RecordId]> = focal_ids.chunks(chunk).collect();
    let shard_results = scatter(chunks.len(), |shard| {
        let tree_clone = tree.clone();
        let io_base = tree_clone.io().reads();
        let engine = MaxRankQuery::new(data, &tree_clone);
        let results: Vec<MaxRankResult> = chunks[shard]
            .iter()
            .map(|&id| engine.evaluate(id, config))
            .collect();
        (results, tree_clone.io().reads().saturating_sub(io_base))
    });
    let mut results = Vec::with_capacity(focal_ids.len());
    for (shard, io_delta) in shard_results {
        tree.io().add(io_delta);
        results.extend(shard);
    }
    results
}

/// Ranks the given records by their best attainable rank (ascending `k*`),
/// returning `(record, k*, |T|)` triples for the `m` most promotable ones.
/// Ties are broken by the number of regions (more regions = more distinct
/// customer profiles reachable) and then by id for determinism.
pub fn most_promotable(
    data: &Dataset,
    tree: &RStarTree,
    focal_ids: &[RecordId],
    m: usize,
    config: &MaxRankConfig,
    threads: usize,
) -> Vec<(RecordId, usize, usize)> {
    let results = evaluate_batch(data, tree, focal_ids, config, threads);
    let mut scored: Vec<(RecordId, usize, usize)> = focal_ids
        .iter()
        .zip(&results)
        .map(|(&id, res)| (id, res.k_star, res.region_count()))
        .collect();
    scored.sort_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)).then(a.0.cmp(&b.0)));
    scored.truncate(m);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Algorithm;
    use mrq_data::{synthetic, Distribution};
    use rand::{rngs::StdRng, SeedableRng};

    fn workload() -> (Dataset, RStarTree) {
        let mut rng = StdRng::seed_from_u64(8);
        let data = synthetic::generate(Distribution::Independent, 400, 3, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        (data, tree)
    }

    #[test]
    fn parallel_matches_sequential() {
        let (data, tree) = workload();
        let ids: Vec<u32> = vec![1, 50, 100, 150, 200, 250, 300, 350];
        let config = MaxRankConfig::new();
        let seq = evaluate_batch(&data, &tree, &ids, &config, 1);
        let par = evaluate_batch(&data, &tree, &ids, &config, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.k_star, b.k_star);
            assert_eq!(a.region_count(), b.region_count());
        }
    }

    #[test]
    fn empty_batch() {
        let (data, tree) = workload();
        assert!(evaluate_batch(&data, &tree, &[], &MaxRankConfig::new(), 4).is_empty());
    }

    #[test]
    fn most_promotable_prefers_small_kstar() {
        let (data, tree) = workload();
        let ids: Vec<u32> = (0..40).collect();
        let config = MaxRankConfig::new().with_algorithm(Algorithm::AdvancedApproach);
        let top = most_promotable(&data, &tree, &ids, 5, &config, 4);
        assert_eq!(top.len(), 5);
        // Ascending k*.
        for w in top.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // The best one's k* really is the minimum over the batch.
        let all = evaluate_batch(&data, &tree, &ids, &config, 4);
        let min_k = all.iter().map(|r| r.k_star).min().unwrap();
        assert_eq!(top[0].1, min_k);
    }

    #[test]
    fn batch_with_more_threads_than_items() {
        let (data, tree) = workload();
        let ids = vec![7u32, 9];
        let res = evaluate_batch(&data, &tree, &ids, &MaxRankConfig::new(), 16);
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn scatter_collects_in_shard_order() {
        let outputs = scatter(4, |shard| shard * 10);
        assert_eq!(outputs, vec![0, 10, 20, 30]);
        // The single-shard path runs inline.
        assert_eq!(scatter(1, |shard| shard), vec![0]);
    }

    #[test]
    fn parallel_batch_merges_io_deltas_into_shared_tree() {
        // Workers evaluate on clones; the shared tree's counter must still
        // advance by the per-query deltas, matching a sequential run on a
        // fresh tree.
        let (data, tree) = workload();
        let ids: Vec<u32> = vec![1, 50, 100, 150];
        let config = MaxRankConfig::new();
        let sequential_total: u64 = {
            let (_, fresh_tree) = workload();
            let before = fresh_tree.io().reads();
            let _ = evaluate_batch(&data, &fresh_tree, &ids, &config, 1);
            fresh_tree.io().reads() - before
        };
        let before = tree.io().reads();
        let _ = evaluate_batch(&data, &tree, &ids, &config, 4);
        let parallel_total = tree.io().reads() - before;
        assert_eq!(parallel_total, sequential_total);
    }
}
