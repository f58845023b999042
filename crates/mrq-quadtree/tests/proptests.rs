//! Property-based tests for the augmented quad-tree: for random half-space
//! sets, every leaf's full-containment and partial-overlap sets must be
//! geometrically correct and jointly account for every inserted half-space,
//! and membership derived from the tree must agree with direct evaluation;
//! the best-first leaf frontier must hand out exactly the leaves within its
//! cap, in nondecreasing `|F_l|`; and a tree whose leaves split only when a
//! walk reaches them must agree with a tree split after every insert.

use mrq_geometry::{reduced_simplex_constraint, BoundingBox, BoxRelation, HalfSpace};
use mrq_quadtree::{HalfSpaceId, HalfSpaceQuadTree, LeafView, QuadTreeConfig};
use proptest::prelude::*;

/// Splits every leaf over the threshold, as splitting after every insert
/// would have: a walk with no cap reaches every leaf.
fn split_all(qt: &mut HalfSpaceQuadTree) {
    let mut frontier = qt.frontier();
    while frontier.next_within(usize::MAX).is_some() {}
}

/// A leaf's shape without its node index: corners, `F_l` as a set, `P_l`.
type Shape = (Vec<u64>, Vec<u64>, Vec<HalfSpaceId>, Vec<HalfSpaceId>);

fn shape(leaf: &LeafView) -> Shape {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    let mut full = leaf.full.clone();
    full.sort_unstable();
    (
        bits(&leaf.bounds.lo),
        bits(&leaf.bounds.hi),
        full,
        leaf.partial.clone(),
    )
}

fn sorted_shapes<'a>(leaves: impl IntoIterator<Item = &'a LeafView>) -> Vec<Shape> {
    let mut shapes: Vec<_> = leaves.into_iter().map(shape).collect();
    shapes.sort();
    shapes
}

/// The leaves of a fully split tree from the definition: a box splits when
/// more than `split_threshold` half-spaces cross it above the depth cap, and
/// quadrants outside the permissible simplex are dropped.
fn defined_leaves(
    halfspaces: &[HalfSpace],
    config: QuadTreeConfig,
    bounds: BoundingBox,
    depth: usize,
    out: &mut Vec<LeafView>,
) {
    let (mut full, mut partial) = (Vec::new(), Vec::new());
    for (id, h) in halfspaces.iter().enumerate() {
        match bounds.relation_to(h) {
            BoxRelation::Contained => full.push(id as HalfSpaceId),
            BoxRelation::Overlapping => partial.push(id as HalfSpaceId),
            BoxRelation::Disjoint => {}
        }
    }
    if partial.len() > config.split_threshold && depth < config.max_depth {
        let simplex = reduced_simplex_constraint(bounds.dim() + 1);
        for quadrant in bounds.quadrants() {
            if quadrant.relation_to(&simplex) != BoxRelation::Disjoint {
                defined_leaves(halfspaces, config, quadrant, depth + 1, out);
            }
        }
    } else {
        out.push(LeafView {
            node: 0,
            bounds,
            full,
            partial,
        });
    }
}

fn halfspaces_strategy(dr: usize) -> impl Strategy<Value = Vec<HalfSpace>> {
    prop::collection::vec(
        (prop::collection::vec(-1.0f64..1.0, dr), -0.8f64..0.8),
        1..40,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .filter(|(coeffs, _)| coeffs.iter().any(|c| c.abs() > 1e-6))
            .map(|(coeffs, rhs)| HalfSpace::new(coeffs, rhs))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Leaf set classification is geometrically exact for every half-space.
    #[test]
    fn leaf_sets_are_exact(
        dr in 1usize..4,
        seed in any::<u64>(),
        threshold in 2usize..10,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut qt = HalfSpaceQuadTree::with_config(
            dr,
            QuadTreeConfig { split_threshold: threshold, max_depth: 4 },
        );
        let count = rng.gen_range(1..30);
        for _ in 0..count {
            let coeffs: Vec<f64> = (0..dr).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            if coeffs.iter().all(|c| c.abs() < 1e-6) {
                continue;
            }
            let rhs = rng.gen::<f64>() - 0.5;
            qt.insert(HalfSpace::new(coeffs, rhs));
        }
        split_all(&mut qt);
        for leaf in qt.leaves() {
            for id in 0..qt.halfspace_count() as u32 {
                let rel = leaf.bounds.relation_to(qt.halfspace(id));
                let in_full = leaf.full.contains(&id);
                let in_partial = leaf.partial.contains(&id);
                match rel {
                    BoxRelation::Contained => prop_assert!(in_full && !in_partial),
                    BoxRelation::Overlapping => prop_assert!(in_partial && !in_full),
                    BoxRelation::Disjoint => prop_assert!(!in_full && !in_partial),
                }
            }
        }
    }

    /// For any point of the permissible simplex, |F_l| of its leaf is a lower
    /// bound on (and |F_l| + |P_l| an upper bound on) the number of inserted
    /// half-spaces containing the point.
    #[test]
    fn leaf_bounds_bracket_point_membership(halfspaces in halfspaces_strategy(2), px in 0.01f64..0.95, py in 0.01f64..0.95) {
        prop_assume!(px + py < 0.99);
        let mut qt = HalfSpaceQuadTree::with_config(2, QuadTreeConfig { split_threshold: 4, max_depth: 5 });
        for h in &halfspaces {
            qt.insert(h.clone());
        }
        split_all(&mut qt);
        let point = [px, py];
        let direct = qt.containing_halfspaces(&point).len();
        // Find the leaf containing the point.
        let leaf = qt
            .leaves()
            .into_iter()
            .find(|l| l.bounds.contains(&point))
            .expect("the leaves cover the unit box");
        prop_assert!(leaf.full.len() <= direct);
        prop_assert!(direct <= leaf.full.len() + leaf.partial.len());
        // And every full-containment half-space really contains the point.
        for id in &leaf.full {
            prop_assert!(qt.halfspace(*id).contains(&point) || qt.halfspace(*id).slack(&point) > -1e-9);
        }
    }

    /// On a split tree the frontier yields exactly the `leaves()` entries
    /// with `|F_l|` ≤ cap (same `F_l`/`P_l`), in (`|F_l|`, node) order, and a
    /// cap lowered below the next leaf mid-walk ends it for good.
    #[test]
    fn frontier_matches_sorted_leaves(
        dr in 1usize..4,
        seed in any::<u64>(),
        threshold in 2usize..10,
        cap in 0usize..12,
        stop_seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut qt = HalfSpaceQuadTree::with_config(
            dr,
            QuadTreeConfig { split_threshold: threshold, max_depth: 4 },
        );
        for _ in 0..rng.gen_range(1..40) {
            let coeffs: Vec<f64> = (0..dr).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            if coeffs.iter().all(|c| c.abs() < 1e-6) {
                continue;
            }
            qt.insert(HalfSpace::new(coeffs, rng.gen::<f64>() - 0.5));
        }
        split_all(&mut qt);
        let mut reference = qt.leaves();
        reference.sort_by_key(|l| (l.full.len(), l.node));
        let mut frontier = qt.frontier();
        let walked: Vec<_> = std::iter::from_fn(|| frontier.next_within(cap)).collect();
        let expected: Vec<_> = reference.iter().filter(|l| l.full.len() <= cap).cloned().collect();
        prop_assert_eq!(walked, expected);
        prop_assert_eq!(frontier.next_within(usize::MAX), None);

        let stop = (stop_seed % reference.len() as u64) as usize;
        let mut frontier = qt.frontier();
        for leaf in &reference[..stop] {
            prop_assert_eq!(frontier.next_within(usize::MAX).as_ref(), Some(leaf));
        }
        if let Some(lowered) = reference[stop].full.len().checked_sub(1) {
            prop_assert_eq!(frontier.next_within(lowered), None);
            prop_assert_eq!(frontier.next_within(usize::MAX), None);
        }
    }

    /// Random insert batches interleaved with frontier walks at random caps:
    /// every leaf a walk hands out is a leaf of the twin split after every
    /// insert (same bounds, `F_l` as a set, `P_l`), the walk hands out all
    /// of the twin's leaves within its cap unless lowered, and once
    /// materialised the two trees have the same leaves.
    #[test]
    fn lazy_splits_match_a_tree_split_after_every_insert(
        dr in 1usize..4,
        seed in any::<u64>(),
        threshold in 1usize..8,
        max_depth in 1usize..5,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let config = QuadTreeConfig { split_threshold: threshold, max_depth };
        let mut lazy = HalfSpaceQuadTree::with_config(dr, config);
        let mut eager = HalfSpaceQuadTree::with_config(dr, config);
        let mut inserted = Vec::new();
        for _ in 0..rng.gen_range(1..5) {
            for _ in 0..rng.gen_range(0..15) {
                let coeffs: Vec<f64> = (0..dr).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
                let h = HalfSpace::new(coeffs, rng.gen::<f64>() - 0.5);
                lazy.insert(h.clone());
                eager.insert(h.clone());
                split_all(&mut eager);
                inserted.push(h);
            }
            let reference = eager.leaves();
            let shapes = sorted_shapes(&reference);
            let cap = match rng.gen_range(0..4) {
                0 => usize::MAX,
                _ => rng.gen_range(0..8),
            };
            // Sometimes lower the cap part-way, as a caller finding cells does.
            let lower_after = rng.gen_range(0..2 * reference.len() + 1);
            let mut frontier = lazy.frontier();
            let mut walked = Vec::new();
            let mut within = cap;
            while let Some(leaf) = frontier.next_within(within) {
                prop_assert!(shapes.binary_search(&shape(&leaf)).is_ok(), "not an eager leaf: {:?}", leaf);
                prop_assert!(walked.last().is_none_or(|l: &LeafView| l.full.len() <= leaf.full.len()));
                walked.push(leaf);
                if walked.len() == lower_after {
                    within = within.min(walked.last().unwrap().full.len());
                }
            }
            if within == cap {
                let expected = reference.iter().filter(|l| l.full.len() <= cap);
                prop_assert_eq!(sorted_shapes(&walked), sorted_shapes(expected));
            }
        }
        split_all(&mut lazy);
        prop_assert_eq!(sorted_shapes(&lazy.leaves()), sorted_shapes(&eager.leaves()));
        let mut defined = Vec::new();
        defined_leaves(&inserted, config, BoundingBox::unit(dr), 0, &mut defined);
        prop_assert_eq!(sorted_shapes(&eager.leaves()), sorted_shapes(&defined));
    }
}
