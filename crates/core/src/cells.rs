//! The occupied-cell index behind every fixed-radius query.
//!
//! Every engine asks the point set one question: which points lie
//! within `r` of this one? [`GridIndex`] answers it from a grid of cell
//! side `r` that stores only the cells some point occupies, so its
//! memory and its query cost depend on the points, not on how far apart
//! they are. This is the grid-cell bucketing of Backurs & Har-Peled's
//! low-dimensional coreset argument, and the coreset buckets with the
//! same sort ([`sort_by_cell`]): one sort of `(cell key, point index)`
//! pairs, packed into one `u64` each where they fit ([`packed_layout`])
//! and then radix-sorted on their cell bits ([`radix_sort_cells`]), with
//! every pass split across the pool.

use std::ops::Range;

use mmph_geom::{Aabb, GeomError, Norm, Point};

use crate::reward::{map_parts, split_by_lens, sweep_parts};
use crate::Result;

/// An inclusive box of grid cells: keys `lo[d]..=hi[d]` along each
/// dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellBox<const D: usize> {
    /// Lowest cell key per dimension.
    pub(crate) lo: [u64; D],
    /// Highest cell key per dimension (inclusive).
    pub(crate) hi: [u64; D],
}

impl<const D: usize> CellBox<D> {
    /// The smallest box holding both `self` and `other`.
    pub(crate) fn union(&self, other: &Self) -> Self {
        CellBox {
            lo: std::array::from_fn(|d| self.lo[d].min(other.lo[d])),
            hi: std::array::from_fn(|d| self.hi[d].max(other.hi[d])),
        }
    }

    /// True iff the cell with keys `cell` lies in the box.
    #[inline]
    pub(crate) fn contains(&self, cell: &[u64; D]) -> bool {
        (0..D).all(|d| self.lo[d] <= cell[d] && cell[d] <= self.hi[d])
    }

    /// The row of the box after the row of `row` in key order: an
    /// odometer over every dimension but the last, which `row` keeps.
    /// `None` after the last row.
    fn next_row(&self, mut row: [u64; D]) -> Option<[u64; D]> {
        let last = D - 1;
        let d = (0..last).rev().find(|&d| row[d] < self.hi[d])?;
        row[d] += 1;
        row[d + 1..last].copy_from_slice(&self.lo[d + 1..last]);
        Some(row)
    }

    /// The first cell of the box at or after `cell` in key order (the
    /// last dimension varying fastest), if any.
    fn first_from(&self, mut cell: [u64; D]) -> Option<[u64; D]> {
        for d in 0..D {
            if cell[d] < self.lo[d] {
                cell[d..].copy_from_slice(&self.lo[d..]);
                return Some(cell);
            }
            if cell[d] > self.hi[d] {
                // No cell of the box shares `cell`'s keys up to `d`:
                // carry into the deepest earlier key that can grow.
                let up = (0..d).rev().find(|&e| cell[e] < self.hi[e])?;
                cell[up] += 1;
                cell[up + 1..].copy_from_slice(&self.lo[up + 1..]);
                return Some(cell);
            }
        }
        Some(cell)
    }
}

/// 2⁶⁴: a cell key must lie below it to be stored as a `u64`.
const KEY_LIMIT: f64 = 18_446_744_073_709_551_616.0;

/// A uniform grid over the points' bounding box that stores only its
/// occupied cells.
///
/// A point's key along dimension `d` is `⌊(x_d − lo_d) / cell⌋`, its
/// offset in cells from the bounding-box corner. Points are stored cell
/// by cell, cells in ascending key order (the last dimension varies
/// fastest), each cell's points in ascending index. Position `s` in that
/// order is a *slot*; the `c`-th occupied cell owns the slots
/// `cell_starts()[c]..cell_starts()[c + 1]`. Beside the slot ranges the
/// index keeps each occupied cell's key, packed into one `u64`, in the
/// same ascending order; a box query finds each row of cells it spans by
/// binary search over those keys.
#[derive(Debug, Clone)]
pub struct GridIndex<const D: usize> {
    /// The bounding-box corner, times `scale`.
    origin: [f64; D],
    /// 1, or ½ when the points span more than an `f64` holds, so that
    /// `x · scale − origin` stays finite. A power of two, so at 1 the
    /// keys are exactly `⌊(x − lo) / cell⌋`.
    scale: f64,
    /// The cell side, times `scale`.
    side: f64,
    /// The largest key along each dimension.
    span: [u64; D],
    /// Where each dimension's key sits in a packed cell key.
    shifts: [u32; D],
    /// The packed key of every occupied cell, ascending.
    keys: Vec<u64>,
    /// `cell_starts[c]..cell_starts[c + 1]` are occupied cell `c`'s slots.
    cell_starts: Vec<u32>,
    /// Point index at each slot.
    entries: Vec<u32>,
    /// Coordinates at each slot (`points[s]` is point `entries[s]`), so
    /// a cell's points are contiguous in memory.
    points: Vec<Point<D>>,
}

impl<const D: usize> GridIndex<D> {
    /// Indexes `points` in cells of side `cell`, or of the least
    /// power-of-two multiple of it whose packed cell keys fit 64 bits
    /// (only points spread over more than 2⁶⁴ cells need one). The
    /// build's passes split across the rayon pool from 10,000 points up.
    ///
    /// # Errors
    ///
    /// [`GeomError::EmptyPointSet`] for no points, and
    /// [`GeomError::NonFinite`] for a cell side that is not finite and
    /// positive or an infinite coordinate.
    pub fn build(points: &[Point<D>], cell: f64) -> Result<Self> {
        Self::build_in_parts(points, cell, sweep_parts(points.len()))
    }

    /// [`Self::build`] with its bounding-box, key, sort and directory
    /// passes split into `parts` pieces. The index is the same for any
    /// part count.
    pub(crate) fn build_in_parts(points: &[Point<D>], cell: f64, parts: usize) -> Result<Self> {
        if points.is_empty() {
            return Err(GeomError::EmptyPointSet.into());
        }
        if !cell.is_finite() || cell <= 0.0 {
            return Err(GeomError::NonFinite {
                index: 0,
                value: cell,
            }
            .into());
        }
        let n = points.len();
        u32::try_from(n).expect("grid index beyond u32 slots");
        let chunk = n.div_ceil(parts.max(1));
        let bbox = map_parts(points.chunks(chunk).collect(), |pts| {
            Aabb::from_points(pts).expect("chunks are non-empty")
        })
        .into_iter()
        .reduce(|mut a, b| {
            a.expand(&b.lo);
            a.expand(&b.hi);
            a
        })
        .expect("points are non-empty");
        if let Some(&value) = bbox.lo.0.iter().chain(&bbox.hi.0).find(|x| !x.is_finite()) {
            return Err(GeomError::NonFinite { index: 0, value }.into());
        }
        let (lo, hi) = (bbox.lo.0, bbox.hi.0);
        let scale = if (0..D).all(|d| (hi[d] - lo[d]).is_finite()) {
            1.0
        } else {
            0.5
        };
        let mut grid = GridIndex {
            origin: lo.map(|x| x * scale),
            scale,
            side: cell * scale,
            span: [0; D],
            shifts: [0; D],
            keys: Vec::new(),
            cell_starts: Vec::new(),
            entries: Vec::new(),
            points: Vec::new(),
        };
        // The keys of the upper corner are the largest; widen the cells
        // until every packed cell key fits 64 bits.
        loop {
            let top: [f64; D] = std::array::from_fn(|d| grid.key(d, hi[d]));
            if top.iter().all(|&k| k < KEY_LIMIT) {
                let span = top.map(|k| k as u64);
                if let Some((shifts, _)) = packed_layout(&span, 1) {
                    grid.span = span;
                    grid.shifts = shifts;
                    break;
                }
            }
            grid.side *= 2.0;
        }
        let order = sort_by_cell(points, &grid.span, |p| grid.cell_of(p), parts);
        let shifts = grid.shifts;
        match &order {
            CellOrder::Packed { keys, index_bits } => {
                let mask = (1u64 << index_bits) - 1;
                grid.fill(
                    points,
                    keys,
                    |&k| (k & mask) as u32,
                    |&k| k >> index_bits,
                    parts,
                );
            }
            CellOrder::Wide(pairs) => {
                grid.fill(points, pairs, |k| k.1, |k| pack(&k.0, &shifts), parts);
            }
        }
        Ok(grid)
    }

    /// Fills the slot arrays and the occupied-cell directory from the
    /// points sorted by (cell, index), where `index` reads a sorted
    /// item's point index and `cell` its packed cell key. The slots are
    /// cut into `parts` pieces; each counts the cells that begin in it,
    /// then writes its slots and cells into its own slices of the
    /// arrays.
    fn fill<K: Sync>(
        &mut self,
        points: &[Point<D>],
        sorted: &[K],
        index: impl Fn(&K) -> u32 + Sync,
        cell: impl Fn(&K) -> u64 + Sync,
        parts: usize,
    ) {
        let n = sorted.len();
        let chunk = n.div_ceil(parts.max(1));
        let pieces: Vec<Range<usize>> =
            (0..n).step_by(chunk).map(|s| s..n.min(s + chunk)).collect();
        let begins = |s: usize| s == 0 || cell(&sorted[s - 1]) != cell(&sorted[s]);
        let counts = map_parts(pieces.clone(), |slots| slots.filter(|&s| begins(s)).count());
        let cells: usize = counts.iter().sum();

        self.entries = vec![0; n];
        self.points = vec![Point([0.0; D]); n];
        self.keys = vec![0; cells];
        self.cell_starts = vec![0; cells + 1];
        self.cell_starts[cells] = n as u32;
        let tasks = pieces
            .into_iter()
            .zip(self.entries.chunks_mut(chunk))
            .zip(self.points.chunks_mut(chunk))
            .zip(split_by_lens(&mut self.keys, counts.iter().copied()))
            .zip(split_by_lens(
                &mut self.cell_starts[..cells],
                counts.iter().copied(),
            ));
        map_parts(
            tasks.collect(),
            |((((slots, entries), pts), keys), starts)| {
                let mut c = 0;
                for (k, s) in slots.enumerate() {
                    let i = index(&sorted[s]);
                    entries[k] = i;
                    pts[k] = points[i as usize];
                    if begins(s) {
                        keys[c] = cell(&sorted[s]);
                        starts[c] = s as u32;
                        c += 1;
                    }
                }
            },
        );
    }

    /// [`Self::build`] at cell side `radius` (at least 10⁻⁹), which
    /// keeps a radius query to about three cells per dimension.
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

    /// Grid cell side length: the side `build` was given, unless the
    /// points spread so wide that it widened.
    pub fn cell_size(&self) -> f64 {
        self.side / self.scale
    }

    /// Slot boundaries of the occupied cells (one more entry than there
    /// are occupied cells): cell `c` owns slots
    /// `cell_starts()[c]..cell_starts()[c + 1]`.
    pub(crate) fn cell_starts(&self) -> &[u32] {
        &self.cell_starts
    }

    /// Point index at each slot: the points sorted by (cell keys,
    /// index).
    pub(crate) fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// Coordinates at each slot, parallel to [`Self::entries`].
    pub(crate) fn slot_points(&self) -> &[Point<D>] {
        &self.points
    }

    /// The unclamped key, as a float, of coordinate `x` along `d`.
    #[inline]
    fn key(&self, d: usize, x: f64) -> f64 {
        ((x * self.scale - self.origin[d]) / self.side).floor()
    }

    /// Keys of the cell that `build` put `p` in (clamped into the grid
    /// for points outside the bounding box).
    #[inline]
    pub(crate) fn cell_of(&self, p: &Point<D>) -> [u64; D] {
        std::array::from_fn(|d| (self.key(d, p[d]) as u64).min(self.span[d]))
    }

    /// The cells a radius query scans: those overlapped by the L∞ box
    /// of radius `radius` around `center`, which encloses the ball of
    /// every norm. `None` when the box misses the grid or the radius
    /// is negative.
    #[inline]
    pub(crate) fn query_box(&self, center: &Point<D>, radius: f64) -> Option<CellBox<D>> {
        if radius < 0.0 {
            return None;
        }
        let mut cells = CellBox {
            lo: [0; D],
            hi: [0; D],
        };
        for d in 0..D {
            let a = self.key(d, center[d] - radius);
            let b = self.key(d, center[d] + radius);
            cells.lo[d] = a.max(0.0) as u64;
            cells.hi[d] = (b.max(0.0) as u64).min(self.span[d]);
            if cells.lo[d] > cells.hi[d] {
                return None; // query box entirely outside the grid
            }
        }
        Some(cells)
    }

    /// Calls `f` with the slot range of every row of occupied cells in
    /// `cells`, in key order. A row is the cells that share every key
    /// but the last; their packed keys are consecutive integers, so one
    /// search finds a row's first occupied cell and its slots run on to
    /// its last. From each row the walk goes straight to the row of the
    /// next occupied cell in the box, so it takes at most one step per
    /// occupied cell, however many empty rows the box spans.
    pub(crate) fn for_each_row_in(&self, cells: &CellBox<D>, f: impl FnMut(Range<usize>)) {
        self.walk_rows(cells, None, f);
    }

    /// [`Self::for_each_row_in`] for a walk over boxes near one another,
    /// such as a sweep's consecutive cells: `hints[j]` keeps where the
    /// last box's `j`-th row began, and this box's `j`-th row is searched
    /// outward from there, so nearby boxes find their rows in a few
    /// steps. Any hints give the same rows. So that every row keeps its
    /// hint, this walk visits each row of the box in turn; a sweep's
    /// boxes span a few rows.
    pub(crate) fn for_each_row_near(
        &self,
        cells: &CellBox<D>,
        hints: &mut Vec<usize>,
        f: impl FnMut(Range<usize>),
    ) {
        self.walk_rows(cells, Some(hints), f);
    }

    /// The row walk behind [`Self::for_each_row_in`] (no hints) and
    /// [`Self::for_each_row_near`].
    fn walk_rows(
        &self,
        cells: &CellBox<D>,
        mut hints: Option<&mut Vec<usize>>,
        mut f: impl FnMut(Range<usize>),
    ) {
        let last = D - 1;
        let mut cur = cells.lo;
        // Rows come in ascending key order: a row with no hint is
        // searched from where the previous row ended.
        let (mut row, mut from) = (0, 0);
        loop {
            cur[last] = cells.lo[last];
            let first = pack(&cur, &self.shifts);
            let end = first + (cells.hi[last] - cells.lo[last]);
            let start = match hints.as_deref_mut() {
                Some(hints) => {
                    if hints.len() == row {
                        hints.push(from);
                    }
                    hints[row] = search_from(&self.keys, hints[row], first);
                    hints[row]
                }
                None => search_from(&self.keys, from, first),
            };
            let mut c = start;
            while c < self.keys.len() && self.keys[c] <= end {
                c += 1;
            }
            if c > start {
                f(self.cell_starts[start] as usize..self.cell_starts[c] as usize);
            }
            (row, from) = (row + 1, c);
            // `keys[c]` is the first occupied cell past this row, so no
            // row before that cell's first one in the box holds any.
            let next = match hints {
                Some(_) => cells.next_row(cur),
                None => self
                    .keys
                    .get(c)
                    .and_then(|&key| cells.first_from(self.unpack(key))),
            };
            match next {
                Some(next) => cur = next,
                None => return,
            }
        }
    }

    /// The cell keys that the packed key `key` holds: [`pack`]'s inverse.
    fn unpack(&self, key: u64) -> [u64; D] {
        std::array::from_fn(|d| match bit_len(self.span[d]) {
            0 => 0,
            bits => (key >> self.shifts[d]) & (u64::MAX >> (u64::BITS - bits)),
        })
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
        self.for_each_row_in(&cells, |slots| {
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

/// The first position in the ascending `keys` whose key is at least
/// `target`, searched outward from `hint` in doubling steps and then by
/// bisection: O(log d) steps for an answer `d` positions away.
fn search_from(keys: &[u64], hint: usize, target: u64) -> usize {
    // The answer lies in `lo..=hi`; probes move one bound outward.
    let (mut lo, mut hi) = (0, keys.len());
    let mut step = 1;
    if hint < keys.len() && keys[hint] < target {
        lo = hint + 1;
        while lo + step - 1 < keys.len() {
            let probe = lo + step - 1;
            if keys[probe] >= target {
                hi = probe;
                break;
            }
            lo = probe + 1;
            step *= 2;
        }
    } else {
        hi = hint.min(keys.len());
        while step <= hi {
            let probe = hi - step;
            if keys[probe] < target {
                lo = probe + 1;
                break;
            }
            hi = probe;
            step *= 2;
        }
    }
    lo + keys[lo..hi].partition_point(|&k| k < target)
}

/// The packed key of the cell with keys `cell`, each at most its
/// dimension's span, under the cell-only layout `shifts`. A dimension of
/// zero bits has key 0, so its shift (possibly 64, taken mod 64) adds
/// nothing.
#[inline]
fn pack<const D: usize>(cell: &[u64; D], shifts: &[u32; D]) -> u64 {
    (0..D).fold(0, |key, d| key | cell[d].wrapping_shl(shifts[d]))
}

/// Points sorted by (cell, index): packed into one `u64` each when the
/// cell's offsets and the index fit it together (see [`packed_layout`]),
/// else as `(offsets, index)` pairs.
pub(crate) enum CellOrder<const D: usize> {
    /// Cell offsets and index packed by [`packed_layout`]; the index is
    /// the lowest `index_bits` bits.
    Packed { keys: Vec<u64>, index_bits: u32 },
    /// The unpacked pairs.
    Wide(Vec<([u64; D], u32)>),
}

/// Sorts `points` by (cell, index) in `parts` pieces, where `cell(p)` is
/// the offsets of `p`'s cell from the least cell, at most `span` along
/// each dimension. The key pass and the sort split across the pool; the
/// order is the same for any part count. Packed keys take the radix
/// sort; the rare pairs too wide to pack take a comparison sort.
pub(crate) fn sort_by_cell<const D: usize>(
    points: &[Point<D>],
    span: &[u64; D],
    cell: impl Fn(&Point<D>) -> [u64; D] + Sync,
    parts: usize,
) -> CellOrder<D> {
    let n = points.len();
    let chunk = n.div_ceil(parts.max(1));
    if let Some((shifts, index_bits)) = packed_layout(span, n) {
        let mut keys = vec![0u64; n];
        let tasks = keys.chunks_mut(chunk).zip(points.chunks(chunk)).enumerate();
        map_parts(tasks.collect(), |(c, (out, pts))| {
            for ((slot, p), i) in out.iter_mut().zip(pts).zip(c * chunk..) {
                let offsets = cell(p);
                // A dimension of zero bits has offset 0 at every point,
                // so its shift (possibly 64, taken mod 64) adds nothing.
                *slot = (0..D).fold(i as u64, |x, d| x | offsets[d].wrapping_shl(shifts[d]));
            }
        });
        let top = shifts[0] + bit_len(span[0]);
        radix_sort_cells(&mut keys, index_bits, top, parts);
        CellOrder::Packed { keys, index_bits }
    } else {
        let mut pairs = vec![([0u64; D], 0u32); n];
        let tasks = pairs
            .chunks_mut(chunk)
            .zip(points.chunks(chunk))
            .enumerate();
        map_parts(tasks.collect(), |(c, (out, pts))| {
            for ((slot, p), i) in out.iter_mut().zip(pts).zip(c * chunk..) {
                *slot = (cell(p), i as u32);
            }
        });
        sort_in_parts(&mut pairs, parts);
        CellOrder::Wide(pairs)
    }
}

/// Widest digit of a [`radix_sort_cells`] pass: 4,096 buckets.
const RADIX_BITS: u32 = 12;

/// Sorts packed (cell, index) keys, which start in ascending index, by
/// their cell bits `index_bits..top`: stable least-significant-digit
/// passes of at most [`RADIX_BITS`] bits each, O(n) per pass. Stability
/// keeps each cell's points in ascending index, so the result is the
/// keys' sorted order. Each pass cuts the keys into `parts` chunks (on
/// the pool when `parts > 1`): every chunk counts its digits, and then
/// writes each key into the slice of the output that its (digit, chunk)
/// owns, which keeps the pass stable for any part count.
fn radix_sort_cells(keys: &mut Vec<u64>, index_bits: u32, top: u32, parts: usize) {
    let bits = top - index_bits;
    let passes = bits.div_ceil(RADIX_BITS);
    if passes == 0 {
        return;
    }
    let width = bits.div_ceil(passes);
    let chunk = keys.len().div_ceil(parts.max(1));
    let mut from = std::mem::take(keys);
    let mut to = vec![0u64; from.len()];
    for pass in 0..passes {
        let shift = index_bits + pass * width;
        let mask = (1u64 << width.min(top - shift)) - 1;
        let digit = |k: u64| ((k >> shift) & mask) as usize;
        let counts = map_parts(from.chunks(chunk).collect(), |keys| {
            let mut count = vec![0usize; mask as usize + 1];
            for &k in keys {
                count[digit(k)] += 1;
            }
            count
        });
        // The output in (digit, chunk) order, dealt back out per chunk.
        let lens = (0..=mask as usize).flat_map(|d| counts.iter().map(move |c| c[d]));
        let mut outs: Vec<Vec<&mut [u64]>> = counts.iter().map(|_| Vec::new()).collect();
        for (i, out) in split_by_lens(&mut to, lens).into_iter().enumerate() {
            outs[i % counts.len()].push(out);
        }
        map_parts(
            from.chunks(chunk).zip(outs).collect(),
            |(keys, mut outs)| {
                let mut next = vec![0usize; outs.len()];
                for &k in keys {
                    let d = digit(k);
                    outs[d][next[d]] = k;
                    next[d] += 1;
                }
            },
        );
        std::mem::swap(&mut from, &mut to);
    }
    *keys = from;
}

/// The layout of a packed (cell offsets, point index) `u64` for `n`
/// points whose cell offsets reach `span` per dimension: each
/// dimension's offset shifted past the index and every later dimension,
/// and the index in the lowest `index_bits` bits, as
/// `(shifts, index_bits)`. `None` when the fields need more than 64 bits
/// together. At `n = 1` the index takes no bits and the layout packs the
/// cell alone.
fn packed_layout<const D: usize>(span: &[u64; D], n: usize) -> Option<([u32; D], u32)> {
    let index_bits = bit_len((n - 1) as u64);
    if span.iter().map(|&s| bit_len(s)).sum::<u32>() + index_bits > u64::BITS {
        return None;
    }
    let mut shifts = [index_bits; D];
    for d in (0..D.saturating_sub(1)).rev() {
        shifts[d] = shifts[d + 1] + bit_len(span[d + 1]);
    }
    Some((shifts, index_bits))
}

/// Bits needed to write `x`.
fn bit_len(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// Sorts `items`, whose elements are all distinct, in `parts` pieces:
/// each sorts a contiguous part (on the rayon pool when `parts > 1`),
/// then one stable sort merges the sorted parts, which it finds as
/// runs. With no equal elements there is nothing to arbitrate, so the
/// result is the one sorted order.
fn sort_in_parts<T: Ord + Send>(items: &mut [T], parts: usize) {
    if parts <= 1 {
        items.sort_unstable();
        return;
    }
    let chunks: Vec<&mut [T]> = items.chunks_mut(items.len().div_ceil(parts)).collect();
    map_parts(chunks, |c| c.sort_unstable());
    items.sort();
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

    fn linear_within<const D: usize>(
        points: &[Point<D>],
        c: &Point<D>,
        r: f64,
        norm: Norm,
    ) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| norm.dist(c, p) <= r)
            .map(|(i, _)| i)
            .collect()
    }

    fn hits<const D: usize>(g: &GridIndex<D>, c: &Point<D>, r: f64, norm: Norm) -> Vec<usize> {
        let mut v: Vec<usize> = g.within(c, r, norm).into_iter().map(|(i, _)| i).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn build_rejects_empty_bad_cell_and_infinite_points() {
        assert!(GridIndex::<2>::build(&[], 1.0).is_err());
        let pts = random_points(4, 0);
        assert!(GridIndex::build(&pts, 0.0).is_err());
        assert!(GridIndex::build(&pts, -1.0).is_err());
        assert!(GridIndex::build(&pts, f64::NAN).is_err());
        let inf = [Point::new([0.0, 0.0]), Point::new([f64::INFINITY, 1.0])];
        assert!(GridIndex::build(&inf, 1.0).is_err());
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
        assert_eq!(g.cell_starts(), &[0, 17]);
        assert_eq!(hits(&g, &Point::new([2.0, 2.0]), 0.1, Norm::L2).len(), 17);
    }

    #[test]
    fn three_dimensional_grid_matches_scan() {
        let mut rng = StdRng::seed_from_u64(33);
        let pts: Vec<Point<3>> = (0..150)
            .map(|_| Point::new(std::array::from_fn(|_| rng.gen_range(0.0..4.0))))
            .collect();
        let g = GridIndex::build(&pts, 1.0).unwrap();
        for _ in 0..20 {
            let c = Point::new(std::array::from_fn(|_| rng.gen_range(0.0..4.0)));
            let r = rng.gen_range(0.1..2.0);
            assert_eq!(
                hits(&g, &c, r, Norm::L1),
                linear_within(&pts, &c, r, Norm::L1)
            );
        }
    }

    /// Slots are in (cell keys, index) order, each occupied cell's range
    /// holds exactly its points, the directory's keys ascend, every key
    /// unpacks to its cell, and the whole grid's rows cover every slot
    /// once.
    fn check_layout<const D: usize>(g: &GridIndex<D>, pts: &[Point<D>]) {
        let mut seen = g.entries().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..pts.len() as u32).collect::<Vec<_>>());
        for (s, &i) in g.entries().iter().enumerate() {
            assert_eq!(g.slot_points()[s], pts[i as usize]);
        }
        let key = |i: u32| (g.cell_of(&pts[i as usize]), i);
        assert!(g.entries().windows(2).all(|w| key(w[0]) < key(w[1])));
        let starts = g.cell_starts();
        assert_eq!(starts.len(), g.keys.len() + 1);
        assert!(g.keys.windows(2).all(|w| w[0] < w[1]));
        for (c, w) in starts.windows(2).enumerate() {
            assert!(w[0] < w[1], "cell {c} is empty");
            let cell = key(g.entries()[w[0] as usize]).0;
            assert_eq!(pack(&cell, &g.shifts), g.keys[c]);
            assert_eq!(g.unpack(g.keys[c]), cell);
            for s in w[0]..w[1] {
                assert_eq!(key(g.entries()[s as usize]).0, cell);
            }
        }
        let all = CellBox {
            lo: [0; D],
            hi: g.span,
        };
        let mut slots = Vec::new();
        g.for_each_row_in(&all, |run| slots.extend(run));
        assert_eq!(slots, (0..pts.len()).collect::<Vec<_>>());
    }

    #[test]
    fn slots_are_cell_major_and_ascending_within_a_cell() {
        let pts = random_points(300, 5);
        check_layout(&GridIndex::build(&pts, 0.7).unwrap(), &pts);
    }

    /// Every part count builds the same index, packed or not: a large
    /// uniform input, one whose keys and index need more than 64 bits
    /// together, and one spread so wide that its cells widen.
    #[test]
    fn every_part_count_builds_the_same_index() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut wide: Vec<P2> = (0..300)
            .map(|_| Point::new([rng.gen_range(-5e5..5e5), rng.gen_range(-5e5..5e5)]))
            .collect();
        wide.extend(random_points(100, 10));
        let spread = vec![
            Point::new([-1e308, 0.0]),
            Point::new([1e308, 0.0]),
            Point::new([0.0, 0.0]),
            Point::new([0.5, 0.0]),
        ];
        for (pts, cell, at_cell) in [
            (random_points(20_000, 7), 0.05, true),
            (wide, 1e-3, true),
            (spread, 1.0, false),
        ] {
            let want = GridIndex::build_in_parts(&pts, cell, 1).unwrap();
            assert_eq!(want.cell_size() == cell, at_cell);
            check_layout(&want, &pts);
            for parts in [2, 3, 7] {
                let got = GridIndex::build_in_parts(&pts, cell, parts).unwrap();
                assert_eq!(got.entries, want.entries, "parts={parts}");
                assert_eq!(got.keys, want.keys, "parts={parts}");
                assert_eq!(got.cell_starts, want.cell_starts, "parts={parts}");
            }
            let mut rng = StdRng::seed_from_u64(11);
            for norm in [Norm::L1, Norm::L2, Norm::LInf] {
                for &i in [0, 1, pts.len() - 1].iter() {
                    let r = rng.gen_range(0.0..3.0) * cell;
                    assert_eq!(
                        hits(&want, &pts[i], r, norm),
                        linear_within(&pts, &pts[i], r, norm)
                    );
                }
            }
        }
    }

    /// A query box over ~10⁹ rows a dimension, nearly all empty: the
    /// whole-grid query returns the linear scan's hits (the walk skips
    /// from each row to the next occupied one), and so do boxes that
    /// start and end between occupied rows, in 2-D and 3-D.
    #[test]
    fn sparse_boxes_walk_only_occupied_rows() {
        let mut rng = StdRng::seed_from_u64(61);
        let pts: Vec<P2> = (0..400)
            .map(|_| Point::new([rng.gen_range(0.0..1e9), rng.gen_range(0.0..1e9)]))
            .collect();
        let g = GridIndex::build(&pts, 1.0).unwrap();
        assert_eq!(g.cell_size(), 1.0);
        assert!(g.span[0] > 900_000_000, "{:?}", g.span);
        check_layout(&g, &pts);
        let c = Point::new([5e8, 5e8]);
        for norm in [Norm::L1, Norm::L2, Norm::LInf] {
            let r = 2e9;
            assert_eq!(hits(&g, &c, r, norm), (0..400).collect::<Vec<_>>());
            for _ in 0..20 {
                let c = Point::new([rng.gen_range(-1e8..1.1e9), rng.gen_range(-1e8..1.1e9)]);
                let r = rng.gen_range(0.0..6e8);
                assert_eq!(hits(&g, &c, r, norm), linear_within(&pts, &c, r, norm));
            }
        }
        let pts: Vec<Point<3>> = (0..400)
            .map(|_| Point::new(std::array::from_fn(|_| rng.gen_range(0.0..1e6))))
            .collect();
        let g = GridIndex::build(&pts, 1.0).unwrap();
        assert_eq!(g.cell_size(), 1.0);
        check_layout(&g, &pts);
        for _ in 0..20 {
            let c = Point::new(std::array::from_fn(|_| rng.gen_range(-1e5..1.1e6)));
            let r = rng.gen_range(0.0..8e5);
            assert_eq!(
                hits(&g, &c, r, Norm::L2),
                linear_within(&pts, &c, r, Norm::L2)
            );
        }
    }

    /// The box's own order: `first_from` finds the first cell of a box
    /// at or after any cell, as a scan of the box's cells in key order
    /// does.
    #[test]
    fn first_from_matches_a_scan_of_the_box() {
        let bx = CellBox {
            lo: [2, 1, 3],
            hi: [4, 3, 5],
        };
        let mut inside = Vec::new();
        for a in 0..7u64 {
            for b in 0..6u64 {
                for c in 0..8u64 {
                    if bx.contains(&[a, b, c]) {
                        inside.push([a, b, c]);
                    }
                }
            }
        }
        for a in 0..7u64 {
            for b in 0..6u64 {
                for c in 0..8u64 {
                    let want = inside.iter().find(|&&cell| cell >= [a, b, c]).copied();
                    assert_eq!(bx.first_from([a, b, c]), want, "{:?}", [a, b, c]);
                }
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

    /// The outward search finds the binary search's position from any
    /// hint, for targets below, between, on and above the keys.
    #[test]
    fn search_from_any_hint_matches_binary_search() {
        let keys: Vec<u64> = (0..200u64).map(|i| i * 8 + i % 7).collect();
        for target in 0..1_700 {
            let want = keys.partition_point(|&k| k < target);
            for hint in 0..=keys.len() {
                assert_eq!(search_from(&keys, hint, target), want, "{target} {hint}");
            }
        }
        assert_eq!(search_from(&[], 0, 5), 0);
    }

    /// The radix passes give a comparison sort's order for any part
    /// count, cell width and digit split, from no cell bits to several
    /// passes' worth.
    #[test]
    fn radix_sort_matches_a_comparison_sort() {
        let mut rng = StdRng::seed_from_u64(12);
        for (n, cell_bits) in [(1, 0), (5_000, 0), (5_000, 7), (5_000, 30), (5_000, 44)] {
            let index_bits = bit_len(n as u64 - 1);
            let keys: Vec<u64> = (0..n as u64)
                .map(|i| (rng.gen_range(0..1u64 << cell_bits) << index_bits) | i)
                .collect();
            let mut want = keys.clone();
            want.sort_unstable();
            for parts in [1, 2, 3, 7] {
                let mut got = keys.clone();
                radix_sort_cells(&mut got, index_bits, index_bits + cell_bits, parts);
                assert_eq!(got, want, "n={n} cell_bits={cell_bits} parts={parts}");
            }
        }
    }

    /// The packed layout takes exactly the offsets and indices that fit
    /// 64 bits, high dimensions first, and nothing wider.
    #[test]
    fn packed_layout_fits_exactly_64_bits() {
        let n = 1 << 20; // indices 0..2²⁰ take 20 bits
        let span = (1u64 << 22) - 1; // 22 bits
        assert_eq!(packed_layout(&[span, span], n), Some(([42, 20], 20)));
        assert_eq!(packed_layout(&[span + 1, span], n), None);
        assert_eq!(packed_layout(&[u64::MAX], 1), Some(([0], 0)));
        assert_eq!(packed_layout(&[u64::MAX], 2), None);
        assert_eq!(packed_layout(&[0, 0, 0], 1), Some(([0, 0, 0], 0)));
    }
}
