//! Implementation of the augmented half-space quad-tree.

use mrq_geometry::{reduced_simplex_constraint, BoundingBox, BoxRelation, HalfSpace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Identifier of a half-space stored in the tree (insertion order).
pub type HalfSpaceId = u32;

/// Split/depth configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadTreeConfig {
    /// A leaf whose partial-overlap set grows beyond this size splits when
    /// a [`LeafFrontier`] walk reaches it.
    pub split_threshold: usize,
    /// Maximum tree depth (the root has depth 0).  Bounds memory: a split
    /// creates `2^(d−1)` children, so high-dimensional trees stay shallow.
    pub max_depth: usize,
}

impl QuadTreeConfig {
    /// A reasonable default for the given reduced dimensionality `d − 1`:
    /// the split threshold keeps within-leaf bit-string enumeration cheap,
    /// while the depth cap keeps the number of nodes bounded as the fan-out
    /// (`2^(d−1)`) grows.
    pub fn for_reduced_dims(dr: usize) -> Self {
        let max_depth = match dr {
            0 | 1 => 16,
            2 => 9,
            3 => 6,
            4 => 5,
            5 => 4,
            _ => 3,
        };
        Self {
            split_threshold: 12,
            max_depth,
        }
    }
}

/// A read-only view of one leaf, as consumed by the MaxRank algorithms.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafView {
    /// Index of the leaf node inside the tree (stable until the leaf splits).
    pub node: usize,
    /// The leaf's region.
    pub bounds: BoundingBox,
    /// `F_l`: ids of half-spaces fully containing the leaf (union over the
    /// root-to-leaf path).
    pub full: Vec<HalfSpaceId>,
    /// `P_l`: ids of half-spaces partially overlapping the leaf.
    pub partial: Vec<HalfSpaceId>,
}

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf {
        partial: Vec<HalfSpaceId>,
    },
    /// The children are created together by one split, so their indices
    /// are contiguous.
    Internal {
        children: Range<usize>,
    },
}

#[derive(Debug, Clone)]
struct QNode {
    bounds: BoundingBox,
    depth: usize,
    parent: Option<usize>,
    /// Half-spaces fully containing this node but not its parent.
    containment: Vec<HalfSpaceId>,
    kind: NodeKind,
}

/// The augmented quad-tree over the reduced query space `[0,1]^(d−1)`.
///
/// Leaves split on demand: [`HalfSpaceQuadTree::insert`] only files the
/// half-space, and a leaf whose partial-overlap set has outgrown the
/// threshold is split by the [`LeafFrontier`] when the walk reaches it.
#[derive(Debug, Clone)]
pub struct HalfSpaceQuadTree {
    dr: usize,
    config: QuadTreeConfig,
    simplex: HalfSpace,
    halfspaces: Vec<HalfSpace>,
    nodes: Vec<QNode>,
    root: usize,
}

impl HalfSpaceQuadTree {
    /// Creates an empty tree over the `dr`-dimensional reduced query space
    /// (for data dimensionality `d`, `dr = d − 1`).
    pub fn new(dr: usize) -> Self {
        Self::with_config(dr, QuadTreeConfig::for_reduced_dims(dr))
    }

    /// Creates an empty tree with an explicit configuration.
    pub fn with_config(dr: usize, config: QuadTreeConfig) -> Self {
        assert!(
            dr >= 1,
            "the reduced query space has at least one dimension"
        );
        let root = QNode {
            bounds: BoundingBox::unit(dr),
            depth: 0,
            parent: None,
            containment: Vec::new(),
            kind: NodeKind::Leaf {
                partial: Vec::new(),
            },
        };
        Self {
            dr,
            config,
            simplex: reduced_simplex_constraint(dr + 1),
            halfspaces: Vec::new(),
            nodes: vec![root],
            root: 0,
        }
    }

    /// Dimensionality of the reduced query space.
    pub fn reduced_dims(&self) -> usize {
        self.dr
    }

    /// Number of half-spaces inserted so far.
    pub fn halfspace_count(&self) -> usize {
        self.halfspaces.len()
    }

    /// Borrow a stored half-space by id.
    pub fn halfspace(&self, id: HalfSpaceId) -> &HalfSpace {
        &self.halfspaces[id as usize]
    }

    /// Number of nodes materialised so far (leaves split only when a
    /// [`LeafFrontier`] reaches them).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of materialised leaves (including leaves that are partially
    /// outside the permissible simplex; fully outside leaves are never
    /// created).
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Leaf { .. }))
            .count()
    }

    /// Inserts a half-space of the reduced query space, returning its id.
    ///
    /// The half-space is filed into the containment sets and the
    /// partial-overlap sets of the leaves it reaches; no leaf is split here.
    ///
    /// # Panics
    /// Panics if the half-space dimensionality does not match the tree's.
    pub fn insert(&mut self, h: HalfSpace) -> HalfSpaceId {
        assert_eq!(h.dim(), self.dr, "half-space dimensionality mismatch");
        let id = self.halfspaces.len() as HalfSpaceId;
        self.halfspaces.push(h);
        self.insert_into(self.root, id);
        id
    }

    fn insert_into(&mut self, node_idx: usize, id: HalfSpaceId) {
        let relation = {
            let node = &self.nodes[node_idx];
            node.bounds.relation_to(&self.halfspaces[id as usize])
        };
        match relation {
            BoxRelation::Disjoint => {}
            BoxRelation::Contained => self.nodes[node_idx].containment.push(id),
            BoxRelation::Overlapping => {
                let children = match &mut self.nodes[node_idx].kind {
                    NodeKind::Leaf { partial } => {
                        partial.push(id);
                        return;
                    }
                    // A `Range` clone copies two indices, not the child list.
                    NodeKind::Internal { children } => children.clone(),
                };
                for child in children {
                    self.insert_into(child, id);
                }
            }
        }
    }

    /// Whether `node_idx` is a leaf whose partial-overlap set has outgrown
    /// the threshold, at a depth below the cap.
    fn needs_split(&self, node_idx: usize) -> bool {
        let node = &self.nodes[node_idx];
        match &node.kind {
            NodeKind::Leaf { partial } => {
                partial.len() > self.config.split_threshold && node.depth < self.config.max_depth
            }
            NodeKind::Internal { .. } => false,
        }
    }

    /// Splits a leaf one level into its quadrants, redistributing its
    /// partial-overlap set, and returns the children.  Quadrants fully
    /// outside the permissible simplex are discarded.
    fn split_leaf(&mut self, node_idx: usize) -> Range<usize> {
        let node = &mut self.nodes[node_idx];
        let NodeKind::Leaf { partial } = &mut node.kind else {
            unreachable!("split_leaf on internal node")
        };
        let partial = std::mem::take(partial);
        let (quadrants, depth) = (node.bounds.quadrants(), node.depth);
        let first_child = self.nodes.len();
        for quadrant in quadrants {
            // Drop quadrants completely outside Σ q_i < 1.
            if quadrant.relation_to(&self.simplex) == BoxRelation::Disjoint {
                continue;
            }
            let mut containment = Vec::new();
            let mut child_partial = Vec::new();
            for &hid in &partial {
                match quadrant.relation_to(&self.halfspaces[hid as usize]) {
                    BoxRelation::Contained => containment.push(hid),
                    BoxRelation::Overlapping => child_partial.push(hid),
                    BoxRelation::Disjoint => {}
                }
            }
            self.nodes.push(QNode {
                bounds: quadrant,
                depth: depth + 1,
                parent: Some(node_idx),
                containment,
                kind: NodeKind::Leaf {
                    partial: child_partial,
                },
            });
        }
        let children = first_child..self.nodes.len();
        self.nodes[node_idx].kind = NodeKind::Internal {
            children: children.clone(),
        };
        children
    }

    /// A best-first walk over the leaves in nondecreasing `|F_l|`, splitting
    /// the leaves it reaches on demand; see [`LeafFrontier`].
    pub fn frontier(&mut self) -> LeafFrontier<'_> {
        let root = (self.nodes[self.root].containment.len(), self.root);
        LeafFrontier {
            tree: self,
            heap: BinaryHeap::from([Reverse(root)]),
        }
    }

    /// Collects the materialised leaves together with their `F_l` and `P_l`
    /// sets, in depth-first order.
    ///
    /// Leaves fully outside the permissible simplex never exist (discarded at
    /// split time); the root itself always straddles the simplex boundary and
    /// is therefore kept.  Leaves the frontier has not reached yet are
    /// reported unsplit, whatever the size of their `P_l`.  The algorithms
    /// walk [`HalfSpaceQuadTree::frontier`] instead; this copy of every leaf
    /// is the reference the frontier is tested against.
    pub fn leaves(&self) -> Vec<LeafView> {
        let mut out = Vec::new();
        let mut inherited = Vec::new();
        self.collect_leaves(self.root, &mut inherited, &mut out);
        out
    }

    fn collect_leaves(
        &self,
        node_idx: usize,
        inherited: &mut Vec<HalfSpaceId>,
        out: &mut Vec<LeafView>,
    ) {
        let node = &self.nodes[node_idx];
        let pushed = node.containment.len();
        inherited.extend_from_slice(&node.containment);
        match &node.kind {
            NodeKind::Leaf { partial } => {
                out.push(LeafView {
                    node: node_idx,
                    bounds: node.bounds.clone(),
                    full: inherited.clone(),
                    partial: partial.clone(),
                });
            }
            NodeKind::Internal { children } => {
                for child in children.clone() {
                    self.collect_leaves(child, inherited, out);
                }
            }
        }
        inherited.truncate(inherited.len() - pushed);
    }

    /// The view of leaf `node_idx`, with `F_l` assembled from the containment
    /// sets on its root path (root first, as [`HalfSpaceQuadTree::leaves`]
    /// orders it).
    fn leaf_view(&self, node_idx: usize, full_len: usize, partial: &[HalfSpaceId]) -> LeafView {
        let mut path = Vec::with_capacity(self.nodes[node_idx].depth + 1);
        let mut cur = Some(node_idx);
        while let Some(i) = cur {
            path.push(i);
            cur = self.nodes[i].parent;
        }
        let mut full = Vec::with_capacity(full_len);
        for &i in path.iter().rev() {
            full.extend_from_slice(&self.nodes[i].containment);
        }
        LeafView {
            node: node_idx,
            bounds: self.nodes[node_idx].bounds.clone(),
            full,
            partial: partial.to_vec(),
        }
    }

    /// For a single point of the reduced query space, the ids of all inserted
    /// half-spaces containing it (reference implementation used by tests and
    /// oracles; linear in the number of half-spaces).
    pub fn containing_halfspaces(&self, q: &[f64]) -> Vec<HalfSpaceId> {
        self.halfspaces
            .iter()
            .enumerate()
            .filter(|(_, h)| h.contains(q))
            .map(|(i, _)| i as HalfSpaceId)
            .collect()
    }
}

/// Best-first walk over the leaves of a [`HalfSpaceQuadTree`] in
/// nondecreasing `|F_l|` (ties in increasing node index), the order in which
/// BA and AA process leaves.
///
/// A min-heap holds unexpanded nodes keyed by the containment count they
/// inherit from their root path.  Internal nodes are expanded only when they
/// reach the top, and `F_l` is assembled only for the leaves handed out, so
/// subtrees whose inherited count already exceeds the caller's cap are never
/// visited.
///
/// A leaf that reaches the top with more than `split_threshold` partial
/// half-spaces (below `max_depth`) is split one level there and its
/// children go back on the heap.  A node's `P_l` is exactly the inserted
/// half-spaces crossing it, whenever it is split, so every leaf handed out
/// has the bounds, `F_l` and `P_l` of a leaf of the tree split eagerly
/// after every insert; subtrees beyond the cap are simply never split.
#[derive(Debug)]
pub struct LeafFrontier<'a> {
    tree: &'a mut HalfSpaceQuadTree,
    /// `(inherited containment count, node)` of the unexpanded nodes.
    heap: BinaryHeap<Reverse<(usize, usize)>>,
}

impl LeafFrontier<'_> {
    /// The next leaf, if its `|F_l|` is at most `cap`.
    ///
    /// Once the next leaf exceeds `cap` the walk is over for good: the
    /// frontier is cleared and every later call returns `None`, whatever its
    /// cap.  Callers lower the cap as better cells turn up, never raise it.
    pub fn next_within(&mut self, cap: usize) -> Option<LeafView> {
        while let Some(&Reverse((count, node_idx))) = self.heap.peek() {
            if count > cap {
                self.heap.clear();
                return None;
            }
            self.heap.pop();
            let children = if self.tree.needs_split(node_idx) {
                self.tree.split_leaf(node_idx)
            } else {
                match &self.tree.nodes[node_idx].kind {
                    NodeKind::Leaf { partial } => {
                        return Some(self.tree.leaf_view(node_idx, count, partial))
                    }
                    NodeKind::Internal { children } => children.clone(),
                }
            };
            for child in children {
                let inherited = count + self.tree.nodes[child].containment.len();
                self.heap.push(Reverse((inherited, child)));
            }
        }
        None
    }

    /// Borrow a stored half-space by id (the walk holds the tree mutably).
    pub fn halfspace(&self, id: HalfSpaceId) -> &HalfSpace {
        self.tree.halfspace(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hs(coeffs: &[f64], rhs: f64) -> HalfSpace {
        HalfSpace::new(coeffs.to_vec(), rhs)
    }

    /// Splits every leaf over the threshold, as splitting after every insert
    /// would have: a walk with no cap reaches every leaf.
    fn split_all(t: &mut HalfSpaceQuadTree) {
        let mut frontier = t.frontier();
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

    #[test]
    fn empty_tree_single_leaf() {
        let t = HalfSpaceQuadTree::new(2);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.leaf_count(), 1);
        let leaves = t.leaves();
        assert_eq!(leaves.len(), 1);
        assert!(leaves[0].full.is_empty());
        assert!(leaves[0].partial.is_empty());
        assert_eq!(t.reduced_dims(), 2);
    }

    #[test]
    fn containment_vs_partial_classification() {
        let mut t = HalfSpaceQuadTree::new(2);
        // Contains the whole unit box.
        let a = t.insert(hs(&[1.0, 1.0], -0.5));
        // Crosses the box.
        let b = t.insert(hs(&[1.0, 0.0], 0.5));
        // Disjoint from the box.
        let c = t.insert(hs(&[1.0, 1.0], 5.0));
        let leaves = t.leaves();
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].full, vec![a]);
        assert_eq!(leaves[0].partial, vec![b]);
        assert!(!leaves[0].full.contains(&c) && !leaves[0].partial.contains(&c));
        assert_eq!(t.halfspace_count(), 3);
    }

    #[test]
    fn split_redistributes_and_avoids_redundancy() {
        let mut t = HalfSpaceQuadTree::with_config(
            2,
            QuadTreeConfig {
                split_threshold: 2,
                max_depth: 4,
            },
        );
        // Three crossing half-spaces force a split.
        let ids: Vec<_> = [
            hs(&[1.0, 0.0], 0.3),
            hs(&[0.0, 1.0], 0.6),
            hs(&[1.0, 1.0], 0.9),
        ]
        .into_iter()
        .map(|h| t.insert(h))
        .collect();
        assert_eq!(t.leaf_count(), 1, "insert never splits");
        split_all(&mut t);
        assert!(t.leaf_count() > 1, "leaf must have split");
        for leaf in t.leaves() {
            // F_l and P_l are disjoint and never contain duplicates.
            let mut all: Vec<_> = leaf.full.iter().chain(&leaf.partial).collect();
            let before = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), before, "duplicate id in leaf sets");
            // Every id must be one of the inserted ones.
            for id in all {
                assert!(ids.contains(id));
            }
            // Classification must be geometrically correct.
            for &id in &leaf.full {
                assert_eq!(
                    leaf.bounds.relation_to(t.halfspace(id)),
                    BoxRelation::Contained
                );
            }
            for &id in &leaf.partial {
                assert_eq!(
                    leaf.bounds.relation_to(t.halfspace(id)),
                    BoxRelation::Overlapping
                );
            }
        }
    }

    #[test]
    fn leaf_sets_account_for_every_overlapping_halfspace() {
        // For any leaf and any inserted half-space: either the half-space is
        // in F_l, in P_l, disjoint from the leaf, or it contains the leaf via
        // an ancestor (and is then still reported in F_l by `leaves`).
        let mut t = HalfSpaceQuadTree::with_config(
            3,
            QuadTreeConfig {
                split_threshold: 3,
                max_depth: 3,
            },
        );
        let mut rng_state = 123456789u64;
        let mut next = || {
            // Simple xorshift for reproducibility without pulling rand here.
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state % 1000) as f64 / 1000.0
        };
        for _ in 0..40 {
            let coeffs = vec![next() - 0.5, next() - 0.5, next() - 0.5];
            let rhs = next() - 0.5;
            t.insert(HalfSpace::new(coeffs, rhs));
        }
        split_all(&mut t);
        for leaf in t.leaves() {
            for id in 0..t.halfspace_count() as HalfSpaceId {
                let h = t.halfspace(id);
                let rel = leaf.bounds.relation_to(h);
                let in_full = leaf.full.contains(&id);
                let in_partial = leaf.partial.contains(&id);
                match rel {
                    BoxRelation::Contained => assert!(in_full && !in_partial),
                    BoxRelation::Overlapping => assert!(in_partial && !in_full),
                    BoxRelation::Disjoint => assert!(!in_full && !in_partial),
                }
            }
        }
    }

    /// Drains the frontier at a fixed cap.
    fn walk(t: &mut HalfSpaceQuadTree, cap: usize) -> Vec<LeafView> {
        let mut frontier = t.frontier();
        std::iter::from_fn(|| frontier.next_within(cap)).collect()
    }

    #[test]
    fn frontier_yields_the_leaves_within_the_cap_best_first() {
        let mut t = HalfSpaceQuadTree::with_config(
            2,
            QuadTreeConfig {
                split_threshold: 3,
                max_depth: 4,
            },
        );
        let mut v = 0.29f64;
        for _ in 0..40 {
            v = (v * 997.0).fract();
            let a = v * 2.0 - 1.0;
            v = (v * 997.0).fract();
            let b = v * 2.0 - 1.0;
            v = (v * 997.0).fract();
            t.insert(hs(&[a, b], v * 0.8 - 0.2));
        }
        let lazy = t.clone();
        split_all(&mut t);
        let mut reference = t.leaves();
        reference.sort_by_key(|l| (l.full.len(), l.node));
        let deepest = reference.last().unwrap().full.len();
        assert!(
            deepest > 2 && t.leaf_count() > 10,
            "the walk must be non-trivial"
        );
        for cap in (0..=deepest + 1).chain([usize::MAX]) {
            let expected: Vec<_> = reference
                .iter()
                .filter(|l| l.full.len() <= cap)
                .cloned()
                .collect();
            assert_eq!(walk(&mut t, cap), expected, "cap {cap}");
            // On the unsplit tree the walk splits what it reaches and hands
            // out the same leaves, in nondecreasing |F_l|.
            let walked = walk(&mut lazy.clone(), cap);
            assert!(walked
                .windows(2)
                .all(|w| w[0].full.len() <= w[1].full.len()));
            assert_eq!(
                sorted_shapes(&walked),
                sorted_shapes(&expected),
                "cap {cap}"
            );
        }
        // Lowering the cap below the next leaf ends the walk for good.
        let stop = reference.iter().position(|l| !l.full.is_empty()).unwrap();
        let mut frontier = t.frontier();
        for leaf in &reference[..stop] {
            assert_eq!(frontier.next_within(usize::MAX).as_ref(), Some(leaf));
        }
        assert_eq!(frontier.next_within(reference[stop].full.len() - 1), None);
        assert_eq!(frontier.next_within(usize::MAX), None);
    }

    #[test]
    fn children_outside_simplex_are_discarded() {
        // In a 2-d reduced space the permissible region is the triangle below
        // q1 + q2 = 1; after one split the upper-right quadrant is entirely
        // outside and must be dropped.
        let mut t = HalfSpaceQuadTree::with_config(
            2,
            QuadTreeConfig {
                split_threshold: 1,
                max_depth: 2,
            },
        );
        t.insert(hs(&[1.0, -1.0], 0.0));
        t.insert(hs(&[-1.0, 1.0], 0.0));
        split_all(&mut t);
        assert!(t.leaf_count() > 1);
        for leaf in t.leaves() {
            let lo_sum: f64 = leaf.bounds.lo.iter().sum();
            assert!(
                lo_sum < 1.0 - 1e-9,
                "leaf entirely outside the simplex must not exist: {:?}",
                leaf.bounds
            );
        }
    }

    #[test]
    fn max_depth_caps_splitting() {
        let mut t = HalfSpaceQuadTree::with_config(
            2,
            QuadTreeConfig {
                split_threshold: 1,
                max_depth: 1,
            },
        );
        // Many half-spaces through the centre would split forever without the
        // depth cap.
        for i in 0..20 {
            let angle = i as f64 * 0.3;
            t.insert(hs(
                &[angle.cos(), angle.sin()],
                0.5 * (angle.cos() + angle.sin()),
            ));
        }
        split_all(&mut t);
        let max_depth_seen = t
            .leaves()
            .iter()
            .map(|l| {
                // Depth can be inferred from the side length (unit box halved
                // per level).
                let side = l.bounds.extent(0);
                (1.0 / side).log2().round() as usize
            })
            .max()
            .unwrap();
        assert!(max_depth_seen <= 1);
    }

    #[test]
    fn containing_halfspaces_reference() {
        let mut t = HalfSpaceQuadTree::new(2);
        let a = t.insert(hs(&[1.0, 0.0], 0.2));
        let b = t.insert(hs(&[0.0, 1.0], 0.7));
        let got = t.containing_halfspaces(&[0.5, 0.5]);
        assert!(got.contains(&a) && !got.contains(&b));
    }

    #[test]
    fn default_config_scales_with_dimension() {
        assert!(
            QuadTreeConfig::for_reduced_dims(1).max_depth
                > QuadTreeConfig::for_reduced_dims(7).max_depth
        );
    }
}
