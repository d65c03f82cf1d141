//! A kd-tree over `Point<D>` supporting within-radius queries under any
//! [`Norm`].
//!
//! The reward evaluators in `mmph-core` repeatedly ask "which points lie
//! within interest radius `r` of candidate center `c`?" — an `O(n)` scan
//! per candidate, `O(n²)` per greedy round. For the paper's instance
//! sizes (n ≤ 160) scans are fine, but the library targets much larger
//! deployments, so we provide a kd-tree index (and benchmark the
//! crossover in `ablation_spatial_index`).
//!
//! The tree is built once over an immutable point slice (median split by
//! the widest dimension) and stores indices into the original slice, so
//! query results can be joined back to weights/residuals without any
//! extra mapping.

use crate::aabb::Aabb;
use crate::norm::Norm;
use crate::point::Point;

/// Node of the kd-tree, stored in a flat arena.
#[derive(Debug, Clone)]
struct Node<const D: usize> {
    /// Bounding box of all points in this subtree.
    bbox: Aabb<D>,
    /// Payload: either a leaf range into `order`, or an internal split.
    kind: NodeKind,
}

#[derive(Debug, Clone)]
enum NodeKind {
    /// Leaf: `order[start..end]` are the member point indices.
    Leaf { start: u32, end: u32 },
    /// Internal: the left child is always the next arena slot; the right
    /// child comes after the entire left subtree, so it is stored.
    Internal { left: u32, right: u32 },
}

/// Immutable kd-tree over a point set.
///
/// ```
/// use mmph_geom::{KdTree, Norm, Point};
///
/// let pts = vec![
///     Point::new([0.0, 0.0]),
///     Point::new([1.0, 0.0]),
///     Point::new([3.0, 3.0]),
/// ];
/// let tree = KdTree::build(&pts);
/// let hits = tree.within(&Point::new([0.0, 0.0]), 1.5, Norm::L2);
/// assert_eq!(hits.len(), 2); // the origin and (1, 0)
/// ```
#[derive(Debug, Clone)]
pub struct KdTree<const D: usize> {
    nodes: Vec<Node<D>>,
    /// Permutation of `0..n`: leaf ranges index into this.
    order: Vec<u32>,
    points: Vec<Point<D>>,
    leaf_size: usize,
}

impl<const D: usize> KdTree<D> {
    /// Default number of points per leaf. Small enough that leaf scans
    /// stay cheap, large enough to amortize traversal overhead.
    pub const DEFAULT_LEAF_SIZE: usize = 16;

    /// Builds a kd-tree over `points` (copied into the tree).
    pub fn build(points: &[Point<D>]) -> Self {
        Self::build_with_leaf_size(points, Self::DEFAULT_LEAF_SIZE)
    }

    /// Builds with an explicit leaf size (must be >= 1).
    pub fn build_with_leaf_size(points: &[Point<D>], leaf_size: usize) -> Self {
        let leaf_size = leaf_size.max(1);
        let n = points.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::with_capacity(if n == 0 { 0 } else { 2 * n / leaf_size + 2 });
        if n > 0 {
            build_node(points, &mut order, 0, n, leaf_size, &mut nodes);
        }
        KdTree {
            nodes,
            order,
            points: points.to_vec(),
            leaf_size,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the tree contains no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The leaf size the tree was built with.
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// The indexed points, in original order.
    pub fn points(&self) -> &[Point<D>] {
        &self.points
    }

    /// Calls `f(index, distance)` for every point within `radius` of
    /// `center` under `norm` (boundary inclusive, matching the reward
    /// function's `d <= r`).
    pub fn for_each_within(
        &self,
        center: &Point<D>,
        radius: f64,
        norm: Norm,
        mut f: impl FnMut(usize, f64),
    ) {
        if self.nodes.is_empty() || radius < 0.0 {
            return;
        }
        self.visit(0, center, radius, norm, &mut f);
    }

    /// Collects `(index, distance)` pairs within `radius` of `center`.
    pub fn within(&self, center: &Point<D>, radius: f64, norm: Norm) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, norm, |i, d| out.push((i, d)));
        out
    }

    fn visit(
        &self,
        node: usize,
        center: &Point<D>,
        radius: f64,
        norm: Norm,
        f: &mut impl FnMut(usize, f64),
    ) {
        let n = &self.nodes[node];
        if n.bbox.dist_to(center, norm) > radius {
            return;
        }
        match n.kind {
            NodeKind::Leaf { start, end } => {
                for &idx in &self.order[start as usize..end as usize] {
                    let p = &self.points[idx as usize];
                    let d = norm.dist(center, p);
                    if d <= radius {
                        f(idx as usize, d);
                    }
                }
            }
            NodeKind::Internal { left, right } => {
                self.visit(left as usize, center, radius, norm, f);
                self.visit(right as usize, center, radius, norm, f);
            }
        }
    }
}

/// Recursively builds the subtree over `order[start..end]`; returns the
/// arena index of the created node.
fn build_node<const D: usize>(
    points: &[Point<D>],
    order: &mut [u32],
    start: usize,
    end: usize,
    leaf_size: usize,
    nodes: &mut Vec<Node<D>>,
) -> usize {
    let slice = &order[start..end];
    let mut bbox = Aabb::point(points[slice[0] as usize]);
    for &i in &slice[1..] {
        bbox.expand(&points[i as usize]);
    }
    let me = nodes.len();
    nodes.push(Node {
        bbox,
        kind: NodeKind::Leaf {
            start: start as u32,
            end: end as u32,
        },
    });
    if end - start <= leaf_size {
        return me;
    }
    // Split on the widest dimension at the median.
    let mut axis = 0;
    for d in 1..D {
        if bbox.extent(d) > bbox.extent(axis) {
            axis = d;
        }
    }
    if bbox.extent(axis) == 0.0 {
        // All points identical: keep as leaf to avoid infinite recursion.
        return me;
    }
    let mid = (start + end) / 2;
    order[start..end].select_nth_unstable_by(mid - start, |&a, &b| {
        points[a as usize][axis].total_cmp(&points[b as usize][axis])
    });
    let left = build_node(points, order, start, mid, leaf_size, nodes);
    let right = build_node(points, order, mid, end, leaf_size, nodes);
    debug_assert_eq!(left, me + 1);
    nodes[me].kind = NodeKind::Internal {
        left: left as u32,
        right: right as u32,
    };
    me
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type P2 = Point<2>;

    fn random_points(n: usize, seed: u64) -> Vec<P2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)]))
            .collect()
    }

    fn linear_within(points: &[P2], c: &P2, r: f64, norm: Norm) -> Vec<(usize, f64)> {
        points
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                let d = norm.dist(c, p);
                (d <= r).then_some((i, d))
            })
            .collect()
    }

    fn sorted(mut v: Vec<(usize, f64)>) -> Vec<(usize, f64)> {
        v.sort_by_key(|&(i, _)| i);
        v
    }

    #[test]
    fn empty_tree() {
        let t = KdTree::<2>::build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.within(&Point::new([0.0, 0.0]), 10.0, Norm::L2).is_empty());
    }

    #[test]
    fn single_point() {
        let t = KdTree::build(&[Point::new([1.0, 1.0])]);
        assert_eq!(t.len(), 1);
        let hits = t.within(&Point::new([0.0, 0.0]), 2.0, Norm::L2);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 0);
        assert!((hits[0].1 - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn matches_linear_scan_l2() {
        let pts = random_points(300, 5);
        let t = KdTree::build(&pts);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let c = Point::new([rng.gen_range(-1.0..5.0), rng.gen_range(-1.0..5.0)]);
            let r = rng.gen_range(0.0..3.0);
            assert_eq!(
                sorted(t.within(&c, r, Norm::L2)),
                sorted(linear_within(&pts, &c, r, Norm::L2))
            );
        }
    }

    #[test]
    fn matches_linear_scan_l1_and_linf() {
        let pts = random_points(200, 7);
        let t = KdTree::build(&pts);
        let mut rng = StdRng::seed_from_u64(8);
        for norm in [Norm::L1, Norm::LInf, Norm::Lp(3.0)] {
            for _ in 0..25 {
                let c = Point::new([rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)]);
                let r = rng.gen_range(0.1..2.0);
                assert_eq!(
                    sorted(t.within(&c, r, norm)),
                    sorted(linear_within(&pts, &c, r, norm)),
                    "norm {norm}"
                );
            }
        }
    }

    #[test]
    fn boundary_inclusive() {
        let pts = vec![Point::new([1.0, 0.0])];
        let t = KdTree::build(&pts);
        let hits = t.within(&Point::new([0.0, 0.0]), 1.0, Norm::L2);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn duplicate_points_all_reported() {
        let pts = vec![Point::new([1.0, 1.0]); 40];
        let t = KdTree::build(&pts);
        let hits = t.within(&Point::new([1.0, 1.0]), 0.0, Norm::L2);
        assert_eq!(hits.len(), 40);
    }

    #[test]
    fn zero_radius_exact_hit_only() {
        let pts = vec![Point::new([1.0, 1.0]), Point::new([1.0, 1.0 + 1e-9])];
        let t = KdTree::build(&pts);
        let hits = t.within(&Point::new([1.0, 1.0]), 0.0, Norm::L2);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn negative_radius_returns_nothing() {
        let pts = random_points(10, 1);
        let t = KdTree::build(&pts);
        assert!(t.within(&pts[0], -1.0, Norm::L2).is_empty());
    }

    #[test]
    fn leaf_size_one_still_correct() {
        let pts = random_points(64, 9);
        let t = KdTree::build_with_leaf_size(&pts, 1);
        let c = Point::new([2.0, 2.0]);
        assert_eq!(
            sorted(t.within(&c, 1.5, Norm::L2)),
            sorted(linear_within(&pts, &c, 1.5, Norm::L2))
        );
    }

    #[test]
    fn three_dimensional_queries() {
        let mut rng = StdRng::seed_from_u64(12);
        let pts: Vec<Point<3>> = (0..200)
            .map(|_| {
                Point::new([
                    rng.gen_range(0.0..4.0),
                    rng.gen_range(0.0..4.0),
                    rng.gen_range(0.0..4.0),
                ])
            })
            .collect();
        let t = KdTree::build(&pts);
        for _ in 0..20 {
            let c = Point::new([
                rng.gen_range(0.0..4.0),
                rng.gen_range(0.0..4.0),
                rng.gen_range(0.0..4.0),
            ]);
            let r = rng.gen_range(0.1..2.0);
            let tree_hits: Vec<usize> = {
                let mut v: Vec<usize> = t
                    .within(&c, r, Norm::L1)
                    .into_iter()
                    .map(|(i, _)| i)
                    .collect();
                v.sort_unstable();
                v
            };
            let lin_hits: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| Norm::L1.dist(&c, p) <= r)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(tree_hits, lin_hits);
        }
    }

    #[test]
    fn for_each_within_distances_are_correct() {
        let pts = random_points(100, 31);
        let t = KdTree::build(&pts);
        let c = Point::new([2.0, 2.0]);
        t.for_each_within(&c, 2.0, Norm::L2, |i, d| {
            assert!((d - c.dist_l2(&pts[i])).abs() < 1e-12);
            assert!(d <= 2.0);
        });
    }
}
