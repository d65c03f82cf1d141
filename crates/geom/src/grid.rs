//! Uniform bucket-grid spatial index.
//!
//! Alternative to [`crate::KdTree`] for within-radius queries when points
//! are roughly uniformly distributed in a known bounding box — exactly
//! the paper's workloads (uniform placement in `[0,4]^m`). Cells are
//! cubes of side `cell`; a radius query scans the `O((r/cell + 2)^D)`
//! cells overlapping the query ball. Benchmarked against the kd-tree in
//! `ablation_spatial_index`.

use std::ops::Range;

use crate::aabb::Aabb;
use crate::norm::Norm;
use crate::point::Point;
use crate::{GeomError, Result};

/// An inclusive box of grid cells: coordinates `lo[d]..=hi[d]` along
/// each dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellBox<const D: usize> {
    /// Lowest cell coordinate per dimension.
    pub lo: [usize; D],
    /// Highest cell coordinate per dimension (inclusive).
    pub hi: [usize; D],
}

impl<const D: usize> CellBox<D> {
    /// The smallest box holding both `self` and `other`.
    pub fn union(&self, other: &Self) -> Self {
        CellBox {
            lo: std::array::from_fn(|d| self.lo[d].min(other.lo[d])),
            hi: std::array::from_fn(|d| self.hi[d].max(other.hi[d])),
        }
    }

    /// True iff the cell with coordinates `cell` lies in the box.
    #[inline]
    pub fn contains(&self, cell: &[usize; D]) -> bool {
        (0..D).all(|d| self.lo[d] <= cell[d] && cell[d] <= self.hi[d])
    }
}

/// Uniform grid over a bounding box, bucketing point indices.
///
/// Points are stored cell by cell: cells in row-major order (the last
/// dimension varies fastest), each cell's points in ascending index.
/// Position `s` in that order is a *slot*; cell `c` owns the slots
/// `cell_starts()[c]..cell_starts()[c + 1]`.
#[derive(Debug, Clone)]
pub struct GridIndex<const D: usize> {
    bbox: Aabb<D>,
    cell: f64,
    /// Number of cells along each dimension.
    dims: [usize; D],
    /// CSR-style storage: `cell_starts[c]..cell_starts[c+1]` are cell
    /// `c`'s slots.
    cell_starts: Vec<u32>,
    /// Point index at each slot.
    entries: Vec<u32>,
    /// Coordinates at each slot (`points[s]` is point `entries[s]`),
    /// so a cell's points are contiguous in memory.
    points: Vec<Point<D>>,
}

impl<const D: usize> GridIndex<D> {
    /// Builds a grid over `points` with the given cell side length.
    /// The bounding box is computed from the points themselves.
    pub fn build(points: &[Point<D>], cell: f64) -> Result<Self> {
        if points.is_empty() {
            return Err(GeomError::EmptyPointSet);
        }
        if !cell.is_finite() || cell <= 0.0 {
            return Err(GeomError::NonFinite {
                index: 0,
                value: cell,
            });
        }
        let bbox = Aabb::from_points(points)?;
        let mut dims = [1usize; D];
        let mut total = 1usize;
        for d in 0..D {
            dims[d] = ((bbox.extent(d) / cell).floor() as usize + 1).max(1);
            total = total.saturating_mul(dims[d]);
        }
        let mut grid = GridIndex {
            bbox,
            cell,
            dims,
            cell_starts: vec![0u32; total + 1],
            entries: vec![0u32; points.len()],
            points: Vec::new(),
        };
        // Counting sort of points into cells; the stable scatter keeps
        // each cell in ascending index.
        for p in points {
            let c = grid.linear(&grid.cell_of(p));
            grid.cell_starts[c + 1] += 1;
        }
        for i in 1..grid.cell_starts.len() {
            grid.cell_starts[i] += grid.cell_starts[i - 1];
        }
        let mut cursor = grid.cell_starts.clone();
        for (i, p) in points.iter().enumerate() {
            let c = grid.linear(&grid.cell_of(p));
            grid.entries[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        grid.points = grid.entries.iter().map(|&i| points[i as usize]).collect();
        Ok(grid)
    }

    /// Builds with a cell size heuristically matched to the query radius
    /// (cells of side `radius` keep the scanned neighborhood at 3^D cells).
    pub fn build_for_radius(points: &[Point<D>], radius: f64) -> Result<Self> {
        Self::build(points, radius.max(1e-9))
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points are indexed (unreachable via `build`, which
    /// rejects empty inputs, but part of the container contract).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Grid cell side length.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Slot boundaries of the cells (one more entry than there are
    /// cells): cell `c` owns slots `cell_starts()[c]..cell_starts()[c + 1]`.
    pub fn cell_starts(&self) -> &[u32] {
        &self.cell_starts
    }

    /// Point index at each slot: the points sorted by (cell
    /// coordinates, index).
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// Coordinates at each slot, parallel to [`Self::entries`].
    pub fn slot_points(&self) -> &[Point<D>] {
        &self.points
    }

    /// Coordinates of the cell that `build` put `p` in (clamped into
    /// the grid for points outside the bounding box).
    #[inline]
    pub fn cell_of(&self, p: &Point<D>) -> [usize; D] {
        std::array::from_fn(|d| {
            (((p[d] - self.bbox.lo[d]) / self.cell).floor() as usize).min(self.dims[d] - 1)
        })
    }

    #[inline]
    fn linear(&self, cell: &[usize; D]) -> usize {
        let mut idx = 0usize;
        for d in 0..D {
            idx = idx * self.dims[d] + cell[d];
        }
        idx
    }

    /// The cells a radius query scans: those overlapped by the L∞ box
    /// of radius `radius` around `center`, which encloses the ball of
    /// every norm. `None` when the box misses the grid or the radius
    /// is negative.
    #[inline]
    pub fn query_box(&self, center: &Point<D>, radius: f64) -> Option<CellBox<D>> {
        if radius < 0.0 {
            return None;
        }
        let mut cells = CellBox {
            lo: [0; D],
            hi: [0; D],
        };
        for d in 0..D {
            let a = ((center[d] - radius - self.bbox.lo[d]) / self.cell).floor();
            let b = ((center[d] + radius - self.bbox.lo[d]) / self.cell).floor();
            cells.lo[d] = (a.max(0.0)) as usize;
            cells.hi[d] = (b.max(0.0) as usize).min(self.dims[d] - 1);
            if cells.lo[d] > cells.hi[d] {
                return None; // query box entirely outside the grid
            }
        }
        Some(cells)
    }

    /// Calls `f` with the slot range of every cell in `cells`, in
    /// row-major order.
    pub fn for_each_cell_in(&self, cells: &CellBox<D>, mut f: impl FnMut(Range<usize>)) {
        let mut cur = cells.lo;
        loop {
            let c = self.linear(&cur);
            f(self.cell_starts[c] as usize..self.cell_starts[c + 1] as usize);
            // Odometer increment.
            let mut d = D;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                if cur[d] < cells.hi[d] {
                    cur[d] += 1;
                    cur[(d + 1)..D].copy_from_slice(&cells.lo[(d + 1)..D]);
                    break;
                }
            }
        }
    }

    /// Calls `f(index, distance)` for every point within `radius` of
    /// `center` under `norm` (boundary inclusive), scanning the cells
    /// of [`Self::query_box`].
    pub fn for_each_within(
        &self,
        center: &Point<D>,
        radius: f64,
        norm: Norm,
        mut f: impl FnMut(usize, f64),
    ) {
        let Some(cells) = self.query_box(center, radius) else {
            return;
        };
        self.for_each_cell_in(&cells, |slots| {
            for s in slots {
                let dist = norm.dist(center, &self.points[s]);
                if dist <= radius {
                    f(self.entries[s] as usize, dist);
                }
            }
        });
    }

    /// Collects `(index, distance)` pairs within `radius` of `center`.
    pub fn within(&self, center: &Point<D>, radius: f64, norm: Norm) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, norm, |i, d| out.push((i, d)));
        out
    }
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

    fn linear_within(points: &[P2], c: &P2, r: f64, norm: Norm) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| norm.dist(c, p) <= r)
            .map(|(i, _)| i)
            .collect()
    }

    fn hits(g: &GridIndex<2>, c: &P2, r: f64, norm: Norm) -> Vec<usize> {
        let mut v: Vec<usize> = g.within(c, r, norm).into_iter().map(|(i, _)| i).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn build_rejects_empty_and_bad_cell() {
        assert!(GridIndex::<2>::build(&[], 1.0).is_err());
        let pts = random_points(4, 0);
        assert!(GridIndex::build(&pts, 0.0).is_err());
        assert!(GridIndex::build(&pts, -1.0).is_err());
        assert!(GridIndex::build(&pts, f64::NAN).is_err());
    }

    #[test]
    fn matches_linear_scan_all_norms() {
        let pts = random_points(250, 21);
        let g = GridIndex::build(&pts, 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        for norm in [Norm::L1, Norm::L2, Norm::LInf] {
            for _ in 0..30 {
                let c = Point::new([rng.gen_range(-1.0..5.0), rng.gen_range(-1.0..5.0)]);
                let r = rng.gen_range(0.0..2.5);
                assert_eq!(
                    hits(&g, &c, r, norm),
                    linear_within(&pts, &c, r, norm),
                    "norm {norm}"
                );
            }
        }
    }

    #[test]
    fn query_far_outside_grid_is_empty() {
        let pts = random_points(50, 2);
        let g = GridIndex::build(&pts, 1.0).unwrap();
        assert!(hits(&g, &Point::new([100.0, 100.0]), 1.0, Norm::L2).is_empty());
        assert!(hits(&g, &Point::new([-100.0, -100.0]), 1.0, Norm::L2).is_empty());
    }

    #[test]
    fn radius_covering_everything_returns_all() {
        let pts = random_points(80, 3);
        let g = GridIndex::build(&pts, 0.5).unwrap();
        let all = hits(&g, &Point::new([2.0, 2.0]), 100.0, Norm::L2);
        assert_eq!(all, (0..80).collect::<Vec<_>>());
    }

    #[test]
    fn single_point_grid() {
        let g = GridIndex::build(&[Point::new([1.0, 1.0])], 1.0).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(hits(&g, &Point::new([1.0, 1.0]), 0.0, Norm::L2), vec![0]);
    }

    #[test]
    fn identical_points_bucket_together() {
        let pts = vec![Point::new([2.0, 2.0]); 17];
        let g = GridIndex::build(&pts, 1.0).unwrap();
        assert_eq!(hits(&g, &Point::new([2.0, 2.0]), 0.1, Norm::L2).len(), 17);
    }

    #[test]
    fn three_dimensional_grid_matches_scan() {
        let mut rng = StdRng::seed_from_u64(33);
        let pts: Vec<Point<3>> = (0..150)
            .map(|_| {
                Point::new([
                    rng.gen_range(0.0..4.0),
                    rng.gen_range(0.0..4.0),
                    rng.gen_range(0.0..4.0),
                ])
            })
            .collect();
        let g = GridIndex::build(&pts, 1.0).unwrap();
        for _ in 0..20 {
            let c = Point::new([
                rng.gen_range(0.0..4.0),
                rng.gen_range(0.0..4.0),
                rng.gen_range(0.0..4.0),
            ]);
            let r = rng.gen_range(0.1..2.0);
            let mut got: Vec<usize> = g
                .within(&c, r, Norm::L1)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            got.sort_unstable();
            let want: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| Norm::L1.dist(&c, p) <= r)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn slots_are_cell_major_and_ascending_within_a_cell() {
        let pts = random_points(300, 5);
        let g = GridIndex::build(&pts, 0.7).unwrap();
        let mut seen = g.entries().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..300).collect::<Vec<u32>>());
        for (s, &i) in g.entries().iter().enumerate() {
            assert_eq!(g.slot_points()[s], pts[i as usize]);
        }
        let key = |i: u32| (g.cell_of(&pts[i as usize]), i);
        assert!(g.entries().windows(2).all(|w| key(w[0]) < key(w[1])));
        // Each cell's slot range holds exactly the points of that cell.
        let all = CellBox {
            lo: [0, 0],
            hi: g.cell_of(&Point::new([4.0, 4.0])),
        };
        let mut cells = Vec::new();
        g.for_each_cell_in(&all, |slots| cells.push(slots));
        assert_eq!(cells.len(), g.cell_starts().len() - 1);
        for slots in cells {
            for s in slots.clone() {
                assert_eq!(key(g.entries()[s]).0, key(g.entries()[slots.start]).0);
            }
        }
    }

    #[test]
    fn build_for_radius_produces_working_index() {
        let pts = random_points(100, 44);
        let g = GridIndex::build_for_radius(&pts, 1.5).unwrap();
        assert_eq!(g.cell_size(), 1.5);
        let c = Point::new([2.0, 2.0]);
        assert_eq!(
            hits(&g, &c, 1.5, Norm::L2),
            linear_within(&pts, &c, 1.5, Norm::L2)
        );
    }
}
