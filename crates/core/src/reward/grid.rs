//! The CSR-free grid backend ([`super::EngineKind::Grid`]).
//!
//! A lazy greedy needs every candidate's gain against fresh residuals
//! once, then a few re-evaluations and `k` commits. None of that needs
//! precomputed rows: the occupied-cell [`GridIndex`] the CSR build
//! sweeps already holds every candidate's neighbors, three cells per
//! dimension away. This backend keeps that index and the weights in its
//! slot order (O(n) memory, whatever the spread) and answers from it
//! directly:
//!
//! * the **root pass** is the CSR fill's cell sweep ([`CellFill`])
//!   with the row write replaced by `total += w · frac`, split across
//!   the pool by cell ranges. It scores [`ROOT_LANES`] members of a
//!   cell at once, one lane each ([`lane_sums`]); a member whose own
//!   box is narrower than the union sums its own box's candidates
//!   alone ([`for_each_in_box`]);
//! * a single gain or commit gathers the query box's slots and sorts
//!   them into ascending index.
//!
//! Either way every sum runs over a CSR row's candidates in a CSR row's
//! order — ascending index — and adds exact `+0.0` for the points in the
//! box that the row drops, so results are bit-identical to the sparse
//! engine and to the dense scan.

use std::ops::ControlFlow;

use mmph_geom::Point;

use super::{
    for_each_in_box, run_parts, slot_weights, split_by_lens, with_pair_frac, Cand, CellFill,
    PairPass, Residuals,
};
use crate::cells::GridIndex;
use crate::instance::Instance;
use crate::kernel::PreparedKernel;

/// The grid backend's state: the occupied-cell index and the weights in
/// its slot order.
#[derive(Debug)]
pub(crate) struct GridCells<const D: usize> {
    pub(super) grid: GridIndex<D>,
    weights: Vec<f64>,
}

impl<const D: usize> GridCells<D> {
    /// Wraps `grid`, built over `inst`'s points.
    pub(crate) fn new(inst: &Instance<D>, grid: GridIndex<D>) -> Self {
        let weights = slot_weights(inst, &grid);
        GridCells { grid, weights }
    }

    /// Candidate at each slot: the cell-major evaluation order.
    pub(crate) fn order(&self) -> &[u32] {
        self.grid.entries()
    }

    /// The root pass behind [`super::RewardEngine::root_gains_by_slot`],
    /// over `parts` cell ranges balanced by point count.
    pub(crate) fn root_gains<T: Send>(
        &self,
        inst: &Instance<D>,
        out: &mut [T],
        set: impl Fn(&mut T, f64) + Sync,
        stop: &(dyn Fn() -> bool + Sync),
        parts: usize,
    ) {
        let fill = CellFill::new(inst, &self.grid, &self.weights, parts);
        let out = split_by_lens(out, fill.parts.iter().map(|c| fill.slots(c).len()));
        with_pair_frac(
            inst,
            RootPass {
                fill: &fill,
                out,
                set: &set,
                stop,
            },
        );
    }

    /// Calls `visit(slot)` for every slot in the query box of `c`, in
    /// ascending point index.
    fn for_each_in_box(&self, c: &Point<D>, r: f64, mut visit: impl FnMut(usize)) {
        let Some(cells) = self.grid.query_box(c, r) else {
            return;
        };
        let entries = self.grid.entries();
        // (index, slot) keys: each cell is an ascending run, and one
        // integer sort merges them.
        let mut keys = Vec::new();
        self.grid.for_each_row_in(&cells, |slots| {
            keys.extend(slots.map(|s| (u64::from(entries[s]) << 32) | s as u64));
        });
        keys.sort_unstable();
        for key in keys {
            visit(key as u32 as usize);
        }
    }

    /// Coverage reward of `c` against residuals `y`: branch-free
    /// `w · min(frac, y)` over the query box in ascending index. A point
    /// the dense scan skips (`frac = 0` or `y = 0`) adds exact `+0.0`.
    pub(crate) fn gain(
        &self,
        inst: &Instance<D>,
        kernel: &PreparedKernel,
        c: &Point<D>,
        y: &[f64],
    ) -> f64 {
        let (r, norm) = (inst.radius(), inst.norm());
        let (entries, points) = (self.grid.entries(), self.grid.slot_points());
        let mut total = 0.0;
        self.for_each_in_box(c, r, |s| {
            let frac = kernel.frac(norm.dist(c, &points[s]), r);
            total += self.weights[s] * frac.min(y[entries[s] as usize]);
        });
        total
    }

    /// Commits `c` as a center: [`Residuals::apply`] restricted to the
    /// query box, which holds every point it can change.
    pub(crate) fn apply(
        &self,
        inst: &Instance<D>,
        kernel: &PreparedKernel,
        c: &Point<D>,
        residuals: &mut Residuals,
    ) -> f64 {
        residuals.version += 1;
        let version = residuals.version;
        let (r, norm) = (inst.radius(), inst.norm());
        let (entries, points) = (self.grid.entries(), self.grid.slot_points());
        let mut gain = 0.0;
        self.for_each_in_box(c, r, |s| {
            let j = entries[s] as usize;
            let y = residuals.y[j];
            if y <= 0.0 {
                return;
            }
            let z = kernel.frac(norm.dist(c, &points[s]), r).min(y);
            if z > 0.0 {
                gain += self.weights[s] * z;
                residuals.y[j] = y - z;
                residuals.touched[j] = version;
            }
        });
        gain
    }
}

/// Members of a cell scored together against its candidate list, one
/// lane each (see [`lane_sums`]).
pub(super) const ROOT_LANES: usize = 4;

/// The root pass: each part sweeps its cells and writes every member's
/// `Σ w · frac` into its slice of `out`.
struct RootPass<'f, 'a, const D: usize, T, F> {
    fill: &'f CellFill<'a, D>,
    out: Vec<&'f mut [T]>,
    set: &'f F,
    stop: &'f (dyn Fn() -> bool + Sync),
}

impl<const D: usize, T: Send, F: Fn(&mut T, f64) + Sync> PairPass<D> for RootPass<'_, '_, D, T, F> {
    type Output = ();
    // Every term is summed, zero or not, so positivity is not tested: a
    // squared-distance compaction ahead of the lanes measured slower.
    fn run(
        self,
        pair: impl Fn(&Point<D>, &Point<D>) -> f64 + Copy + Send + Sync,
        _positive: impl Fn(&Point<D>, &Point<D>) -> bool + Copy + Send + Sync,
    ) {
        let (fill, set, stop) = (self.fill, self.set, self.stop);
        let (grid, r) = (fill.grid, fill.inst.radius());
        let points = grid.slot_points();
        let tasks: Vec<_> = fill.parts.iter().cloned().zip(self.out).collect();
        run_parts(tasks, &|(cells, out)| {
            let base = fill.slots(&cells).start;
            let mut full = Vec::new();
            fill.sweep(cells, &mut |members, union, cands| {
                if stop() {
                    return ControlFlow::Break(());
                }
                full.clear();
                for slot in members {
                    let x = &points[slot];
                    if grid.query_box(x, r) == Some(*union) {
                        full.push(slot);
                        continue;
                    }
                    // A box narrower than the union: each candidate's
                    // cell is checked.
                    let mut total = 0.0;
                    for_each_in_box(grid, r, x, union, cands, |p| {
                        total += cands[p].weight * pair(x, &cands[p].point);
                    });
                    set(&mut out[slot - base], total);
                }
                for group in full.chunks(ROOT_LANES) {
                    let totals = lane_sums(points, group, cands, pair);
                    for (&slot, total) in group.iter().zip(totals) {
                        set(&mut out[slot - base], total);
                    }
                }
                ControlFlow::Continue(())
            });
        });
    }
}

/// `Σ w · pair(x, c)` over `cands` for the points at up to
/// [`ROOT_LANES`] slots whose query box is the cell's whole union, each
/// lane adding its terms in candidate order, as a lone member's sum
/// over [`for_each_in_box`] does. The lanes share every candidate load and carry
/// independent sums, so the compiler can interleave (and vectorize)
/// them, and no lane's bits change. A short group repeats its last
/// member; the repeated lanes' sums are not returned.
#[inline(always)]
fn lane_sums<const D: usize>(
    points: &[Point<D>],
    group: &[usize],
    cands: &[Cand<D>],
    pair: impl Fn(&Point<D>, &Point<D>) -> f64,
) -> impl Iterator<Item = f64> {
    let xs: [Point<D>; ROOT_LANES] = std::array::from_fn(|l| points[group[l.min(group.len() - 1)]]);
    // Fresh residuals: `min(frac, 1) = frac`. The row's dropped
    // zero-`frac` candidates add exact `+0.0`.
    let mut totals = [0.0; ROOT_LANES];
    for c in cands {
        for (total, x) in totals.iter_mut().zip(&xs) {
            *total += c.weight * pair(x, &c.point);
        }
    }
    totals.into_iter().take(group.len())
}
