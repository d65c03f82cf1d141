//! The harness's own greedy, the yardstick for answer quality. It is
//! written here from the objective's definition alone (each point's
//! weight, the kernel's coverage fraction and the norm), and shares no
//! code with the program's reward engines, oracle, warm resolve or
//! coreset path. A change to any of those therefore moves the served
//! answers but never the yardstick.
//!
//! The greedy is exact: every point is a candidate, each round picks the
//! largest marginal gain (smallest point index among equal gains), as
//! the paper's greedy does. A uniform grid of side at least `r` bounds
//! the work: a candidate's gain reads the 3×3 cells around it, and a
//! pick changes only the gains of candidates within two cells.

use std::ops::Range;

use mmph_core::{Instance, PreparedKernel};
use mmph_geom::{Norm, Point};

/// What the reference greedy picked.
#[derive(Debug, Clone, PartialEq)]
pub struct Greedy {
    /// Sum of the picks' marginal gains: the objective of `picks`.
    pub reward: f64,
    /// Picked point indices, in pick order.
    pub picks: Vec<usize>,
}

/// Points bucketed into square cells, stored in cell order.
struct Grid {
    norm: Norm,
    kernel: PreparedKernel,
    r: f64,
    origin: [f64; 2],
    side: f64,
    dims: [usize; 2],
    /// Slots of cell `c` are `start[c]..start[c + 1]`.
    start: Vec<usize>,
    /// Point index of each slot.
    index: Vec<usize>,
    points: Vec<Point<2>>,
    weights: Vec<f64>,
}

impl Grid {
    fn new(inst: &Instance<2>) -> Grid {
        let pts = inst.points();
        let (mut lo, mut hi) = ([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]);
        for p in pts {
            for a in 0..2 {
                lo[a] = lo[a].min(p[a]);
                hi[a] = hi[a].max(p[a]);
            }
        }
        // Cells of side r, or wider when that would give more than
        // about four cells per point: any side >= r keeps every point
        // within r of a candidate inside the 3×3 block around it.
        let area = (hi[0] - lo[0]).max(0.0) * (hi[1] - lo[1]).max(0.0);
        let side = inst.radius().max((area / (4 * pts.len()) as f64).sqrt());
        let dims = [0, 1].map(|a| ((hi[a] - lo[a]) / side) as usize + 1);
        let mut grid = Grid {
            norm: inst.norm(),
            kernel: inst.kernel().prepared(),
            r: inst.radius(),
            origin: lo,
            side,
            dims,
            start: vec![0; dims[0] * dims[1] + 1],
            index: vec![0; pts.len()],
            points: Vec::with_capacity(pts.len()),
            weights: Vec::with_capacity(pts.len()),
        };
        let cells: Vec<usize> = pts.iter().map(|p| grid.cell_of(p)).collect();
        for &c in &cells {
            grid.start[c + 1] += 1;
        }
        for c in 0..dims[0] * dims[1] {
            grid.start[c + 1] += grid.start[c];
        }
        let mut next = grid.start.clone();
        for (i, &c) in cells.iter().enumerate() {
            grid.index[next[c]] = i;
            next[c] += 1;
        }
        grid.points = grid.index.iter().map(|&i| pts[i]).collect();
        grid.weights = grid.index.iter().map(|&i| inst.weight(i)).collect();
        grid
    }

    fn cell_of(&self, p: &Point<2>) -> usize {
        let at = |a: usize| (((p[a] - self.origin[a]) / self.side) as usize).min(self.dims[a] - 1);
        at(1) * self.dims[0] + at(0)
    }

    /// Slot ranges of the cells within `reach` cells of `p`'s cell.
    fn near(&self, p: &Point<2>, reach: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let c = self.cell_of(p);
        let (cx, cy) = (c % self.dims[0], c / self.dims[0]);
        let span = move |v: usize, d: usize| v.saturating_sub(reach)..(v + reach + 1).min(d);
        span(cy, self.dims[1]).map(move |y| {
            let row = span(cx, self.dims[0]);
            self.start[y * self.dims[0] + row.start]..self.start[y * self.dims[0] + row.end]
        })
    }

    /// Marginal gain of the point in `slot` as a center, against the
    /// residual coverage `y` (one entry per slot).
    fn gain(&self, slot: usize, y: &[f64]) -> f64 {
        let c = &self.points[slot];
        let mut g = 0.0;
        for range in self.near(c, 1) {
            for j in range {
                if y[j] > 0.0 && self.norm.within(c, &self.points[j], self.r) {
                    let f = self.kernel.frac(self.norm.dist(c, &self.points[j]), self.r);
                    g += self.weights[j] * f.min(y[j]);
                }
            }
        }
        g
    }

    /// Spends the coverage the point in `slot` gives as a center.
    fn cover(&self, slot: usize, y: &mut [f64]) {
        let c = &self.points[slot];
        for range in self.near(c, 1) {
            for j in range {
                if self.norm.within(c, &self.points[j], self.r) {
                    let f = self.kernel.frac(self.norm.dist(c, &self.points[j]), self.r);
                    y[j] -= f.min(y[j]);
                }
            }
        }
    }
}

/// Runs the exact greedy for `inst.k()` rounds. The first pass over
/// every candidate is split across two threads.
pub fn greedy(inst: &Instance<2>) -> Greedy {
    let n = inst.n();
    if n == 0 {
        return Greedy {
            reward: 0.0,
            picks: Vec::new(),
        };
    }
    let grid = Grid::new(inst);
    let mut y = vec![1.0; n];
    let mut gains = vec![0.0; n];
    let half = n.div_ceil(2);
    std::thread::scope(|s| {
        let (a, b) = gains.split_at_mut(half);
        let (g, y) = (&grid, &y);
        s.spawn(move || {
            a.iter_mut()
                .enumerate()
                .for_each(|(i, v)| *v = g.gain(i, y))
        });
        b.iter_mut()
            .enumerate()
            .for_each(|(i, v)| *v = g.gain(half + i, y));
    });
    let mut out = Greedy {
        reward: 0.0,
        picks: Vec::with_capacity(inst.k()),
    };
    for _ in 0..inst.k() {
        let best = (0..n)
            .max_by(|&a, &b| {
                gains[a]
                    .total_cmp(&gains[b])
                    .then(grid.index[b].cmp(&grid.index[a]))
            })
            .expect("n > 0");
        out.reward += gains[best];
        out.picks.push(grid.index[best]);
        grid.cover(best, &mut y);
        let at = grid.points[best];
        for range in grid.near(&at, 2) {
            for slot in range {
                gains[slot] = grid.gain(slot, &y);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmph_core::{
        solve_rounds, streaming_objective, EngineKind, GainOracle, OracleStrategy, RewardEngine,
        SolveScratch,
    };
    use mmph_geom::Norm;
    use mmph_sim::{Scenario, WeightScheme};

    fn instance(n: usize, k: usize, r: f64, norm: Norm, seed: u64) -> Instance<2> {
        Scenario::paper_2d(n, k, r, norm, WeightScheme::PAPER_WEIGHTED, seed)
            .generate_2d()
            .unwrap()
    }

    #[test]
    fn matches_the_programs_greedy_and_prices_its_picks() {
        for (norm, seed) in [(Norm::L2, 1), (Norm::L1, 2), (Norm::LInf, 3)] {
            let inst = instance(2_000, 8, 0.9, norm, seed);
            let ours = greedy(&inst);
            let engine = RewardEngine::with_kind(&inst, EngineKind::Sparse);
            let oracle = GainOracle::from_engine(engine, OracleStrategy::Seq);
            let mut scratch = SolveScratch::new();
            let theirs = solve_rounds(&oracle, &mut scratch);
            assert_eq!(ours.picks, scratch.picks(), "{norm:?}");
            assert!((ours.reward - theirs).abs() <= 1e-9 * theirs, "{norm:?}");
            let centers: Vec<Point<2>> = ours.picks.iter().map(|&i| *inst.point(i)).collect();
            let priced = streaming_objective(&inst, &centers);
            assert!((ours.reward - priced).abs() <= 1e-9 * priced, "{norm:?}");
        }
    }

    #[test]
    fn small_and_degenerate_instances() {
        let one = instance(1, 3, 1.0, Norm::L2, 4);
        let g = greedy(&one);
        assert_eq!(g.picks.len(), 3, "a lone point may be picked again");
        assert!((g.reward - one.weight(0)).abs() < 1e-12);
        // A radius wider than the whole space: one cell.
        let wide = instance(50, 2, 1e6, Norm::L2, 5);
        assert!(greedy(&wide).reward > 0.0);
    }
}
