//! The augmented quad-tree over the reduced query space (paper, Section 5.1).
//!
//! Both the basic approach (BA) and the advanced approach (AA) organise the
//! half-spaces induced by (a subset of) the incomparable records in a
//! space-partitioning index over the (d−1)-dimensional reduced query space.
//! The index is a quad-tree augmented with two sets per node:
//!
//! * the **full-containment set** — half-spaces that fully contain the node's
//!   region but do *not* contain its parent (recording those would be
//!   redundant, exactly as the paper notes);
//! * the **partial-overlap set** (leaves only) — half-spaces whose supporting
//!   hyperplane crosses the leaf.
//!
//! A leaf whose partial-overlap set exceeds a threshold splits into its
//! `2^(d−1)` quadrants; children that fall completely outside the permissible
//! simplex (`Σ q_i < 1`) are discarded.  Splits happen on demand: an insert
//! only files the half-space, and the leaf is split when a walk reaches it.
//!
//! For every leaf `l` the tree can report `F_l` (the union of the containment
//! sets on the root-to-leaf path) and `P_l`; `|F_l|` is the lower bound on the
//! order of every arrangement cell inside the leaf that drives BA's and AA's
//! leaf pruning.  [`HalfSpaceQuadTree::frontier`] hands the leaves out
//! best-first in that order, touching (and splitting) only the subtrees
//! within the caller's bound.

pub mod tree;

pub use tree::{HalfSpaceId, HalfSpaceQuadTree, LeafFrontier, LeafView, QuadTreeConfig};
