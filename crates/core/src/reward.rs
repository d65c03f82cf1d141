//! The reward function and the residual-satisfaction state machine.
//!
//! Paper §IV-A, Equations (1)–(7):
//!
//! * `psi(c, x_i) = w_i (1 − d(c, x_i)/r)` when `d ≤ r`, else 0 — the
//!   partial reward a single broadcast gives user `i` (Eq. 1).
//! * `f(C) = Σ_i w_i min(Σ_j [1 − d(c_j, x_i)/r]_+, 1)` — the capped
//!   total (Eq. 7), computed by [`objective`].
//! * The round framework (Algorithms 1–4) maintains residuals
//!   `y_i^j ∈ [0, 1]`, selects a center maximizing the *coverage reward*
//!   `Σ_i w_i min([1 − d/r]_+, y_i)` and subtracts the assigned
//!   fractions. [`Residuals`] implements this state machine; because the
//!   per-point coverage fractions are non-negative, the per-round gains
//!   telescope exactly to `f(C)` (tested below), so every solver's
//!   reported total equals the closed-form objective.

use std::mem::MaybeUninit;
use std::ops::{ControlFlow, Range};
use std::sync::OnceLock;

use mmph_geom::{Norm, Point};

use crate::cells::{CellBox, GridIndex};
use crate::instance::Instance;
use crate::kernel::{FracPass, PreparedKernel, Support};

mod grid;

pub(crate) use grid::GridCells;

/// Coverage fraction `[1 − d(c, x)/r]_+` of a point at distance `d`
/// (Eq. 1 without the weight).
#[inline]
pub fn coverage_frac(d: f64, r: f64) -> f64 {
    let v = 1.0 - d / r;
    if v > 0.0 {
        v
    } else {
        0.0
    }
}

/// The single-broadcast reward `psi(c, x)` of Eq. (1): weight times
/// coverage fraction.
///
/// ```
/// use mmph_core::psi;
/// use mmph_geom::{Norm, Point};
///
/// let center = Point::new([0.0, 0.0]);
/// let user = Point::new([0.5, 0.0]);
/// // w (1 - d/r) = 2 * (1 - 0.5) = 1.0
/// assert_eq!(psi(2.0, &center, &user, 1.0, Norm::L2), 1.0);
/// ```
#[inline]
pub fn psi<const D: usize>(w: f64, c: &Point<D>, x: &Point<D>, r: f64, norm: Norm) -> f64 {
    w * coverage_frac(norm.dist(c, x), r)
}

/// The exact objective `f(C)` of Eq. (7) for an arbitrary center set.
///
/// ```
/// use mmph_core::{objective, InstanceBuilder};
/// use mmph_geom::Point;
///
/// let inst = InstanceBuilder::new()
///     .point([0.0, 0.0], 1.0)
///     .point([1.0, 0.0], 2.0)
///     .radius(1.0)
///     .k(1)
///     .build()
///     .unwrap();
/// // A center on the second point earns its full weight; the first
/// // point sits exactly on the rim (fraction 0).
/// assert_eq!(objective(&inst, &[Point::new([1.0, 0.0])]), 2.0);
/// ```
pub fn objective<const D: usize>(inst: &Instance<D>, centers: &[Point<D>]) -> f64 {
    let r = inst.radius();
    let norm = inst.norm();
    let kernel = inst.kernel().prepared();
    let mut total = 0.0;
    for (x, &w) in inst.points().iter().zip(inst.weights()) {
        let mut cov = 0.0;
        for c in centers {
            cov += kernel.frac(norm.dist(c, x), r);
            if cov >= 1.0 {
                cov = 1.0;
                break; // saturated; further centers cannot add reward
            }
        }
        total += w * cov;
    }
    total
}

/// Coverage reward of a candidate center against the current residuals:
/// `Σ_i w_i min([1 − d(c, x_i)/r]_+, y_i)` — the objective of the round
/// subproblems, Eqs. (10), (13), (14), (15).
pub fn coverage_reward<const D: usize>(
    inst: &Instance<D>,
    c: &Point<D>,
    residuals: &Residuals,
) -> f64 {
    coverage_reward_with(inst, c, residuals, &inst.kernel().prepared())
}

/// [`coverage_reward`] with a caller-cached [`PreparedKernel`] — the
/// engines prepare once per solve instead of once per evaluation.
fn coverage_reward_with<const D: usize>(
    inst: &Instance<D>,
    c: &Point<D>,
    residuals: &Residuals,
    kernel: &PreparedKernel,
) -> f64 {
    debug_assert_eq!(residuals.len(), inst.n());
    let r = inst.radius();
    let norm = inst.norm();
    let mut total = 0.0;
    for i in 0..inst.n() {
        let y = residuals.y(i);
        if y <= 0.0 {
            continue;
        }
        let frac = kernel.frac(norm.dist(c, inst.point(i)), r);
        if frac > 0.0 {
            total += inst.weight(i) * frac.min(y);
        }
    }
    total
}

/// Residual satisfactions `y_i` (paper's `y_i^j`), the shared state of
/// all round-based algorithms. `y_i` starts at 1 and decreases by the
/// assigned fraction `z_i^j = min([1 − d/r]_+, y_i^j)` each round.
///
/// ```
/// use mmph_core::{InstanceBuilder, Residuals};
/// use mmph_geom::Point;
///
/// let inst = InstanceBuilder::new()
///     .point([0.0, 0.0], 1.0)
///     .radius(2.0)
///     .k(2)
///     .build()
///     .unwrap();
/// let mut res = Residuals::new(inst.n());
/// let c = Point::new([1.0, 0.0]); // coverage fraction 0.5
/// assert_eq!(res.apply(&inst, &c), 0.5);
/// assert_eq!(res.y(0), 0.5);
/// assert_eq!(res.apply(&inst, &c), 0.5); // second pass claims the rest
/// assert!(res.all_satisfied(1e-12));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Residuals {
    y: Vec<f64>,
    version: u64,
    /// `touched[i]` is the version at which `y_i` last shrank (0 = never).
    /// Lets the sparse engine's dirty-region test decide whether a gain
    /// computed at an older version can still be exact.
    touched: Vec<u64>,
}

impl PartialEq for Residuals {
    fn eq(&self, other: &Self) -> bool {
        // The version is bookkeeping for lazy oracles, not state.
        self.y == other.y
    }
}

impl Residuals {
    /// Fresh residuals: `y_i = 1` for all `i` (line 1 of every
    /// algorithm in the paper).
    pub fn new(n: usize) -> Self {
        Residuals {
            y: vec![1.0; n],
            version: 0,
            touched: vec![0; n],
        }
    }

    /// Restores the fresh-solve state (`y_i = 1`, version 0) for an
    /// instance of `n` points, reusing the existing buffers. Allocates
    /// only when `n` exceeds the retained capacity, so a warm
    /// [`crate::scratch::SolveScratch`] resets for free.
    pub fn reset(&mut self, n: usize) {
        self.y.clear();
        self.y.resize(n, 1.0);
        self.touched.clear();
        self.touched.resize(n, 0);
        self.version = 0;
    }

    /// Monotone commit counter: incremented by every [`Self::apply`].
    /// Residuals only ever shrink, so a gain computed at version `v` is
    /// an upper bound on the gain at any later version — the invariant
    /// behind the CELF lazy oracle's staleness test.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the instance has no points (never via solvers; part of
    /// the container contract).
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Residual satisfaction of point `i`.
    #[inline]
    pub fn y(&self, i: usize) -> f64 {
        self.y[i]
    }

    /// The version at which `y_i` last changed (0 if never touched).
    /// Monotone per point; a gain over a neighbor set whose every member
    /// satisfies `touched(j) <= v` is unchanged since version `v`.
    #[inline]
    pub fn touched(&self, i: usize) -> u64 {
        self.touched[i]
    }

    /// All residuals.
    pub fn as_slice(&self) -> &[f64] {
        &self.y
    }

    /// True when every point is (numerically) fully satisfied, at which
    /// point no further broadcast can add reward.
    pub fn all_satisfied(&self, eps: f64) -> bool {
        self.y.iter().all(|&y| y <= eps)
    }

    /// The assignment vector `z_i = min([1 − d/r]_+, y_i)` a center
    /// would claim, written into `out` without mutating the residuals.
    /// The buffer is cleared and refilled, so repeated calls through a
    /// warm scratch arena never allocate once the capacity has grown to
    /// `n`.
    pub fn assignments_into<const D: usize>(
        &self,
        inst: &Instance<D>,
        c: &Point<D>,
        out: &mut Vec<f64>,
    ) {
        let r = inst.radius();
        let norm = inst.norm();
        let kernel = inst.kernel().prepared();
        out.clear();
        out.extend(
            (0..inst.n()).map(|i| kernel.frac(norm.dist(c, inst.point(i)), r).min(self.y[i])),
        );
    }

    /// Commits a selected center: subtracts its assignments from the
    /// residuals and returns the round gain `Σ w_i z_i` (line 4 of
    /// Algorithms 1–4).
    pub fn apply<const D: usize>(&mut self, inst: &Instance<D>, c: &Point<D>) -> f64 {
        debug_assert_eq!(self.len(), inst.n());
        self.version += 1;
        let r = inst.radius();
        let norm = inst.norm();
        let kernel = inst.kernel().prepared();
        let mut gain = 0.0;
        for i in 0..inst.n() {
            let y = self.y[i];
            if y <= 0.0 {
                continue;
            }
            let z = kernel.frac(norm.dist(c, inst.point(i)), r).min(y);
            if z > 0.0 {
                gain += inst.weight(i) * z;
                self.y[i] = y - z;
                self.touched[i] = self.version;
            }
        }
        gain
    }
}

/// Which evaluation backend a [`RewardEngine`] should use. Parsed from
/// the CLI's `--engine` flag and threaded through the solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Pick automatically: the sparse CSR engine when its estimated
    /// footprint fits [`DEFAULT_SPARSE_CAP_BYTES`], else the CSR-free
    /// [`EngineKind::Grid`] backend, on any spread of input.
    #[default]
    Auto,
    /// Dense linear scan over all points (the reference semantics).
    Scan,
    /// Precomputed CSR neighbor lists (forced, ignoring the memory cap).
    Sparse,
    /// CSR-free cell sweep over the occupied-cell index
    /// ([`GridIndex`]) at cell side `r`: O(n) memory, whatever the
    /// spread, and no precomputed rows. Every gain and commit sums its
    /// query box in ascending index, as a CSR row does, so it is
    /// bit-identical to [`EngineKind::Scan`] and [`EngineKind::Sparse`].
    /// What [`EngineKind::Auto`] runs past the cap.
    Grid,
}

impl EngineKind {
    /// All parseable names, for CLI help strings.
    pub const NAMES: &'static [&'static str] = &["auto", "scan", "sparse", "grid"];

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(EngineKind::Auto),
            "scan" => Ok(EngineKind::Scan),
            "sparse" => Ok(EngineKind::Sparse),
            "grid" => Ok(EngineKind::Grid),
            other => Err(format!(
                "unknown engine '{other}' (expected {})",
                Self::NAMES.join("|")
            )),
        }
    }

    /// CLI/report name.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Auto => "auto",
            EngineKind::Scan => "scan",
            EngineKind::Sparse => "sparse",
            EngineKind::Grid => "grid",
        }
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Self::parse(s)
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Default memory cap for the [`EngineKind::Auto`] sparse estimate:
/// beyond this the CSR build is skipped in favor of the CSR-free
/// [`EngineKind::Grid`] backend.
pub const DEFAULT_SPARSE_CAP_BYTES: usize = 512 << 20;

/// Build/footprint statistics of a sparse CSR adjacency, surfaced by
/// the reports and by perfbench's `reward.*` layer metrics.
#[derive(Debug, Clone, Copy)]
pub struct SparseStats {
    /// Bytes held by the CSR buffers, the recorded root gains (8 B a
    /// row) included. The coordinate permutation that a copied-point
    /// lookup sorts on demand (4 B a point) is not counted.
    pub bytes: usize,
    /// Total neighbor entries (sum of row degrees, after dropping
    /// zero-`frac` entries; excludes lane padding).
    pub entries: usize,
    /// Stored entries including the per-row padding up to the lane
    /// width [`SPARSE_LANES`].
    pub padded_entries: usize,
    /// Mean row degree.
    pub avg_degree: f64,
    /// Largest row degree.
    pub max_degree: usize,
}

/// Lane width of the blocked sparse kernel: every CSR row is padded to
/// a multiple of this many entries so the gain loop runs in branchless
/// fixed-width chunks the compiler can vectorize.
pub const SPARSE_LANES: usize = 8;

/// The coordinate bit pattern of a point — the lexicographic sort key
/// behind the copied-point candidate lookup ([`RewardEngine::gain`]).
/// Bitwise equality (not `==`) is the right relation: bit-equal points
/// produce bit-identical CSR rows, while `-0.0`/`0.0` or NaN lookups
/// simply miss and fall back to the dense reference scan.
#[inline]
pub(crate) fn point_bits<const D: usize>(p: &Point<D>) -> [u64; D] {
    std::array::from_fn(|d| p[d].to_bits())
}

/// Precomputed fixed-radius adjacency in blocked CSR form: row `i`
/// holds the ascending-index neighbors `j` in `x_i`'s query box with
/// `frac(d_ij, r) > 0` (so `d_ij ≤ r`), alongside the kernel fraction
/// and the weight `w_j`, in flat structure-of-arrays buffers. `frac` and `weight` are
/// kept separate (not premultiplied) because a gain term is
/// `w_j · min(frac, y_j)` — the min must see the raw fraction for
/// bit-identical scan semantics.
///
/// Two layout passes distinguish this from a plain CSR:
///
/// * **Lane padding** — every row is padded to a multiple of
///   [`SPARSE_LANES`] entries by repeating its last real neighbor with
///   `frac = weight = 0` (an exact `+0.0` gain term), so the kernel
///   walks fixed-width chunks with no tail loop and no per-entry
///   branches. `degrees` records the real (unpadded) length.
/// * **Row blocking** — rows are stored in the occupied-cell index's
///   slot order ([`GridIndex::entries`]), not index order: `order[slot]` is the
///   candidate stored at `slot`, `slot_of[i]` its inverse. Scanning
///   candidates in `order` reads the CSR streams strictly sequentially
///   and revisits hot residual cache lines.
///
/// The candidate set and the target set are the same points and the
/// relation `d ≤ r` is symmetric, so this structure is simultaneously
/// the forward adjacency (row `i` = what candidate `i` covers) and the
/// reverse index (row `i` = which candidates cover point `i`) the
/// dirty-region test needs.
#[derive(Debug)]
pub(crate) struct SparseCsr {
    /// Padded row *start* of each storage slot (not candidate index);
    /// every start is a multiple of [`SPARSE_LANES`]. A freshly built
    /// CSR is dense (each row ends where the next begins, and a final
    /// sentinel closes the last row); after incremental delta patching
    /// (`crate::incremental`) rows may be relocated to the tail, so a
    /// row's end is always derived from `degrees`, never from the next
    /// slot's start.
    pub(crate) offsets: Vec<u32>,
    /// Real (unpadded) entry count of each slot's row.
    pub(crate) degrees: Vec<u32>,
    /// Storage slot of candidate `i`.
    pub(crate) slot_of: Vec<u32>,
    /// Candidate stored at each slot — the cache-friendly eval order.
    pub(crate) order: Vec<u32>,
    /// Candidate indices sorted by coordinate bit pattern, for the
    /// copied-point lookup behind [`RewardEngine::gain`]. Sorted on the
    /// first such lookup ([`Self::sorted_coords`]): a greedy never makes
    /// one, so a build does not pay for the sort. The incremental layer
    /// drops it at every delta, so the next lookup sorts it afresh.
    pub(crate) by_coords: OnceLock<Vec<u32>>,
    pub(crate) neighbors: Vec<u32>,
    pub(crate) frac: Vec<f64>,
    pub(crate) weight: Vec<f64>,
    /// Each slot's root gain (its row's gain at fresh residuals, what
    /// [`Self::root_gain_at`] computes), summed by the build as it
    /// writes the row. Empty once the rows may have changed: the
    /// incremental layer empties it at every delta.
    pub(crate) root_sums: Vec<f64>,
    pub(crate) stats: SparseStats,
}

/// The occupied-cell index at cell side `r` over `inst`'s points: what
/// every CSR build and the grid engine sweep.
pub(crate) fn cell_index<const D: usize>(inst: &Instance<D>) -> GridIndex<D> {
    GridIndex::build_for_radius(inst.points(), inst.radius())
        .expect("instance points are non-empty and finite")
}

/// Reusable buffers for the sparse CSR adjacency: the flat CSR arrays,
/// including the lane-padded layout vectors, and the root gains. A
/// [`RewardEngine::sparse_with_scratch`] build *takes* the vectors (an
/// O(1) move), refills them in place, and [`RewardEngine::reclaim`]
/// puts them back after the solve — so a warm batch pipeline rebuilds
/// the CSR for each new instance without fresh heap allocations once
/// capacities have grown to the workload's steady state. A build frees
/// any buffer too small for it before it allocates, so a kept buffer
/// never sits beside its replacement.
#[derive(Debug, Default)]
pub struct CsrScratch {
    offsets: Vec<u32>,
    degrees: Vec<u32>,
    slot_of: Vec<u32>,
    order: Vec<u32>,
    neighbors: Vec<u32>,
    frac: Vec<f64>,
    weight: Vec<f64>,
    root_sums: Vec<f64>,
}

impl CsrScratch {
    /// Empty scratch; buffers grow on first use and are retained after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes currently retained across all buffers (diagnostics).
    pub fn retained_bytes(&self) -> usize {
        (self.offsets.capacity()
            + self.degrees.capacity()
            + self.slot_of.capacity()
            + self.order.capacity()
            + self.neighbors.capacity())
            * 4
            + (self.frac.capacity() + self.weight.capacity() + self.root_sums.capacity()) * 8
    }
}

/// Padded storage length of a row with `deg` real entries.
#[inline]
pub(crate) fn padded_len(deg: usize) -> usize {
    deg.div_ceil(SPARSE_LANES) * SPARSE_LANES
}

/// Empties `buf` and gives it room for `len` items. A buffer with less
/// room is freed before its replacement is allocated, so the two never
/// hold memory at once. The replacement has 1/64 to spare, so that an
/// instance of about the same size reuses it: the entry count of two
/// uniform instances with the same `n` and degree differs by far less.
/// Pages that nothing writes are never touched, so the slack costs
/// address space, not resident memory.
fn reserve_fresh<T>(buf: &mut Vec<T>, len: usize) {
    buf.clear();
    if buf.capacity() < len {
        *buf = Vec::new();
        buf.reserve_exact(len + len / 64);
    }
}

/// Slots a CSR root pass scores between two polls of its stop flag.
const ROOT_POLL_SLOTS: usize = 256;

impl SparseCsr {
    const BYTES_PER_ENTRY: usize = 4 + 2 * 8; // neighbor + frac + weight

    /// A zero-point CSR — the placeholder the incremental layer swaps
    /// in while its real CSR is transplanted into an engine.
    pub(crate) fn empty() -> Self {
        SparseCsr {
            offsets: Vec::new(),
            degrees: Vec::new(),
            slot_of: Vec::new(),
            order: Vec::new(),
            by_coords: OnceLock::new(),
            neighbors: Vec::new(),
            frac: Vec::new(),
            weight: Vec::new(),
            root_sums: Vec::new(),
            stats: SparseStats {
                bytes: 0,
                entries: 0,
                padded_entries: 0,
                avg_degree: 0.0,
                max_degree: 0,
            },
        }
    }

    /// Builds the CSR over `inst`'s points from their occupied-cell
    /// index `grid`, with fresh buffers.
    pub(crate) fn build<const D: usize>(inst: &Instance<D>, grid: &GridIndex<D>) -> Self {
        Self::build_with(inst, grid, &mut CsrScratch::default())
    }

    /// Builds the CSR into the buffers taken from `scratch` (leaving
    /// them empty; see [`RewardEngine::reclaim`]),
    /// cell by cell ([`Self::fill_cells`]), split across the rayon pool
    /// from [`PARALLEL_BUILD_MIN_POINTS`] points up.
    pub(crate) fn build_with<const D: usize>(
        inst: &Instance<D>,
        grid: &GridIndex<D>,
        scratch: &mut CsrScratch,
    ) -> Self {
        Self::build_in_parts(inst, grid, scratch, sweep_parts(inst.n()))
    }

    /// [`Self::build_with`] with an explicit part count for the cell
    /// split.
    fn build_in_parts<const D: usize>(
        inst: &Instance<D>,
        grid: &GridIndex<D>,
        scratch: &mut CsrScratch,
        parts: usize,
    ) -> Self {
        let mut csr = Self::from_scratch(scratch);
        let max_degree = csr.fill_cells(inst, grid, parts);
        csr.finish(inst, max_degree);
        csr
    }

    /// A CSR over the buffers taken from `scratch`, as they are: the
    /// fill empties each one ([`reserve_fresh`]) before it writes it.
    fn from_scratch(scratch: &mut CsrScratch) -> Self {
        SparseCsr {
            offsets: std::mem::take(&mut scratch.offsets),
            degrees: std::mem::take(&mut scratch.degrees),
            slot_of: std::mem::take(&mut scratch.slot_of),
            order: std::mem::take(&mut scratch.order),
            neighbors: std::mem::take(&mut scratch.neighbors),
            frac: std::mem::take(&mut scratch.frac),
            weight: std::mem::take(&mut scratch.weight),
            root_sums: std::mem::take(&mut scratch.root_sums),
            ..Self::empty()
        }
    }

    /// Derives `slot_of` from the filled rows and records the build
    /// statistics.
    fn finish<const D: usize>(&mut self, inst: &Instance<D>, max_degree: usize) {
        let n = inst.n();
        reserve_fresh(&mut self.slot_of, n);
        self.slot_of.resize(n, 0);
        for (slot, &i) in self.order.iter().enumerate() {
            self.slot_of[i as usize] = slot as u32;
        }
        let entries = self.degrees.iter().map(|&d| d as usize).sum::<usize>();
        let padded_entries = self.neighbors.len();
        self.stats = SparseStats {
            bytes: (self.offsets.len()
                + self.degrees.len()
                + self.slot_of.len()
                + self.order.len())
                * 4
                + padded_entries * Self::BYTES_PER_ENTRY
                + self.root_sums.len() * 8,
            entries,
            padded_entries,
            avg_degree: entries as f64 / n as f64,
            max_degree,
        };
    }

    /// The cell fill. Rows are stored in the grid's slot order, the
    /// points sorted by (cell, index). Whether a candidate is a row
    /// entry is decided by the pair pass's exact positivity test
    /// ([`with_pair_frac`]), which on the cut kernels compares the
    /// distance with a threshold and evaluates no kernel.
    ///
    /// Two passes over `parts` contiguous cell ranges balanced by point
    /// count (on the rayon pool when `parts > 1`). The first counts each
    /// row's degree over the union of its cell's query boxes, read in
    /// slot order ([`count_row`]). A prefix sum turns degrees into
    /// offsets. The second gathers each occupied cell's candidates once,
    /// in ascending index, compacts each member's row from that list
    /// ([`scan_row`]), so rows come out sorted with no per-row sort,
    /// evaluates the kernel for the entries alone (or, on a kernel
    /// tested by value, keeps the value it tested), and writes every row
    /// into its exact place through disjoint slices of the final
    /// buffers, summing its root gain as it goes. Returns the largest
    /// degree.
    fn fill_cells<const D: usize>(
        &mut self,
        inst: &Instance<D>,
        grid: &GridIndex<D>,
        parts: usize,
    ) -> usize {
        let n = inst.n();
        reserve_fresh(&mut self.order, n);
        self.order.extend_from_slice(grid.entries());
        let weights = slot_weights(inst, grid);
        let fill = CellFill::new(inst, grid, &weights, parts);

        reserve_fresh(&mut self.degrees, n);
        self.degrees.resize(n, 0);
        let degree_parts = split_by_lens(
            &mut self.degrees,
            fill.parts.iter().map(|c| fill.slots(c).len()),
        );
        with_pair_frac(
            inst,
            CountPass {
                fill: &fill,
                degrees: degree_parts,
            },
        );

        reserve_fresh(&mut self.offsets, n + 1);
        self.offsets.push(0);
        let mut total = 0usize;
        for &deg in &self.degrees {
            total += padded_len(deg as usize);
            assert!(
                total <= u32::MAX as usize,
                "sparse engine: neighbor entries overflow u32 offsets"
            );
            self.offsets.push(total as u32);
        }

        // Writing through `MaybeUninit` skips a serial zero-fill and
        // leaves the first touch of the pages to the parallel pass: at
        // n = 10⁶ on 2 vCPUs, zero-filling first cost 0.3 s of a 1.7 s
        // build.
        reserve_fresh(&mut self.neighbors, total);
        reserve_fresh(&mut self.frac, total);
        reserve_fresh(&mut self.weight, total);
        let lens = || {
            fill.parts.iter().map(|c| {
                let slots = fill.slots(c);
                (self.offsets[slots.end] - self.offsets[slots.start]) as usize
            })
        };
        reserve_fresh(&mut self.root_sums, n);
        self.root_sums.resize(n, 0.0);
        with_pair_frac(
            inst,
            WritePass {
                fill: &fill,
                offsets: &self.offsets,
                degrees: &self.degrees,
                neighbors: split_by_lens(&mut self.neighbors.spare_capacity_mut()[..total], lens()),
                frac: split_by_lens(&mut self.frac.spare_capacity_mut()[..total], lens()),
                weight: split_by_lens(&mut self.weight.spare_capacity_mut()[..total], lens()),
                root_sums: split_by_lens(
                    &mut self.root_sums,
                    fill.parts.iter().map(|c| fill.slots(c).len()),
                ),
            },
        );
        // SAFETY: the write pass initialized every entry below `total`.
        // The padded rows tile `0..offsets[n] = total` exactly, and the
        // pass asserts that each row's scan finds the degree the count
        // pass found before writing it and its padding, so a mismatch
        // panics before this point.
        unsafe {
            self.neighbors.set_len(total);
            self.frac.set_len(total);
            self.weight.set_len(total);
        }
        self.degrees.iter().max().map_or(0, |&d| d as usize)
    }

    /// Moves the flat buffers back into `scratch` for the next build.
    pub(crate) fn recycle(self, scratch: &mut CsrScratch) {
        scratch.offsets = self.offsets;
        scratch.degrees = self.degrees;
        scratch.slot_of = self.slot_of;
        scratch.order = self.order;
        scratch.neighbors = self.neighbors;
        scratch.frac = self.frac;
        scratch.weight = self.weight;
        scratch.root_sums = self.root_sums;
    }

    /// The half-open *padded* entry range of candidate `i`'s row — what
    /// the blocked kernel walks. The end is derived from the row's own
    /// degree (not the next slot's start) so rows relocated to the tail
    /// by delta patching stay addressable; on a fresh dense build the
    /// two are equal.
    #[inline]
    pub(crate) fn padded_row(&self, i: usize) -> std::ops::Range<usize> {
        let slot = self.slot_of[i] as usize;
        let start = self.offsets[slot] as usize;
        start..start + padded_len(self.degrees[slot] as usize)
    }

    /// The half-open *real* entry range of candidate `i`'s row (padding
    /// excluded) — what the scalar reference walk and the dirty-region
    /// test iterate.
    #[inline]
    pub(crate) fn real_row(&self, i: usize) -> std::ops::Range<usize> {
        let slot = self.slot_of[i] as usize;
        let start = self.offsets[slot] as usize;
        start..start + self.degrees[slot] as usize
    }

    /// Coverage reward of candidate `i` via the blocked lane kernel:
    /// fixed-width chunks of branchless `w · min(frac, y[neighbor])`
    /// terms, each chunk's terms computed independently (the compiler
    /// vectorizes this) and then added to the accumulator *in entry
    /// order* — the same association as the scalar reference walk.
    ///
    /// Bit-identity with the reference rests on three
    /// invariants: residuals are never negative (`y − min(frac, y) ≥ 0`
    /// exactly in IEEE arithmetic), so a `y = 0` entry contributes
    /// `w · 0.0 = +0.0`; padding and zero-weight terms are exact
    /// `+0.0`; and the accumulator starts at `+0.0` and only ever adds
    /// non-negative terms, so `x + 0.0` is always the identity on its
    /// bits.
    #[inline]
    fn gain_blocked(&self, i: usize, y: &[f64]) -> f64 {
        let range = self.padded_row(i);
        let nb = &self.neighbors[range.clone()];
        let fr = &self.frac[range.clone()];
        let wt = &self.weight[range];
        let mut total = 0.0f64;
        for ((nb8, fr8), wt8) in nb
            .chunks_exact(SPARSE_LANES)
            .zip(fr.chunks_exact(SPARSE_LANES))
            .zip(wt.chunks_exact(SPARSE_LANES))
        {
            let mut terms = [0.0f64; SPARSE_LANES];
            for l in 0..SPARSE_LANES {
                // SAFETY: every stored neighbor index is < n = y.len():
                // real entries come from the radius query over the
                // instance's own points, and padding repeats a real
                // entry of the same row.
                let yv = unsafe { *y.get_unchecked(nb8[l] as usize) };
                terms[l] = wt8[l] * fr8[l].min(yv);
            }
            for t in terms {
                total += t;
            }
        }
        total
    }

    /// Commits candidate `i`'s row against `residuals`: subtract each
    /// real entry's claimed assignment and return the round gain — the
    /// O(degree) sparse twin of [`Residuals::apply`]. The real row is
    /// exactly the dense loop's post-guard visit set (positive-`frac`
    /// points, ascending index), so the gain bits and the mutated
    /// residuals match the dense apply exactly.
    fn apply_row(&self, i: usize, residuals: &mut Residuals) -> f64 {
        residuals.version += 1;
        let version = residuals.version;
        let mut gain = 0.0;
        for idx in self.real_row(i) {
            let j = self.neighbors[idx] as usize;
            let y = residuals.y[j];
            if y <= 0.0 {
                continue;
            }
            let z = self.frac[idx].min(y);
            if z > 0.0 {
                gain += self.weight[idx] * z;
                residuals.y[j] = y - z;
                residuals.touched[j] = version;
            }
        }
        gain
    }

    /// The pre-blocking scalar reference: walk the real row with
    /// per-entry `y`/`frac` guards. Kept as the bit-identity witness
    /// for the blocked kernel (`kernel_layout`, `kernel_floor`).
    #[inline]
    fn gain_unblocked(&self, i: usize, y: &[f64]) -> f64 {
        let mut total = 0.0;
        for idx in self.real_row(i) {
            let yv = y[self.neighbors[idx] as usize];
            if yv <= 0.0 {
                continue;
            }
            let f = self.frac[idx];
            if f > 0.0 {
                total += self.weight[idx] * f.min(yv);
            }
        }
        total
    }

    /// Coverage reward of the row at `slot` against *fresh* residuals
    /// (`y = 1.0` everywhere): `Σ w · min(frac, 1.0)` over the padded
    /// row, accumulated in entry order. Bit-identical to
    /// [`Self::gain_blocked`] on reset residuals — the gather would
    /// return `1.0` for every neighbor and padding terms stay exact
    /// `+0.0` — but needs no neighbor gather at all, and slot-order
    /// callers stream `frac`/`weight` sequentially instead of chasing
    /// rows through `slot_of`. This is [`Self::root_pass`]'s hot loop.
    #[inline]
    fn root_gain_at(&self, slot: usize) -> f64 {
        let start = self.offsets[slot] as usize;
        let len = padded_len(self.degrees[slot] as usize);
        let fr = &self.frac[start..start + len];
        let wt = &self.weight[start..start + len];
        let mut total = 0.0f64;
        for (fr8, wt8) in fr
            .chunks_exact(SPARSE_LANES)
            .zip(wt.chunks_exact(SPARSE_LANES))
        {
            let mut terms = [0.0f64; SPARSE_LANES];
            for l in 0..SPARSE_LANES {
                terms[l] = wt8[l] * fr8[l].min(1.0);
            }
            for t in terms {
                total += t;
            }
        }
        total
    }

    /// The CSR root pass: calls `emit(slot, gain)` with the fresh-residual
    /// gain ([`Self::root_gain_at`]) of every slot in `slots` that `keep`
    /// admits, in slot order, so the `frac`/`weight` streams are read
    /// sequentially. Polls `stop` before every [`ROOT_POLL_SLOTS`] slots
    /// and returns early once it reads true. The CELF prime's bulk pass
    /// ([`Self::root_gains`]) and the warm re-solve's pool builder
    /// ([`RewardEngine::root_gains_into`]) both run on it.
    fn root_pass(
        &self,
        slots: Range<usize>,
        keep: impl Fn(usize) -> bool,
        stop: &dyn Fn() -> bool,
        mut emit: impl FnMut(usize, f64),
    ) {
        let mut start = slots.start;
        while start < slots.end {
            if stop() {
                return;
            }
            let end = slots.end.min(start + ROOT_POLL_SLOTS);
            for slot in start..end {
                if keep(slot) {
                    emit(slot, self.root_gain_at(slot));
                }
            }
            start = end;
        }
    }

    /// The bulk root pass behind [`RewardEngine::root_gains_by_slot`]
    /// on a CSR without [`Self::root_sums`]: [`Self::root_pass`] over
    /// every slot, writing slot `s`'s gain into `out[s]`, split into
    /// `parts` contiguous slot ranges (on the rayon pool when
    /// `parts > 1`). One part runs on the calling thread and allocates
    /// nothing.
    fn root_gains<T: Send>(
        &self,
        out: &mut [T],
        set: impl Fn(&mut T, f64) + Sync,
        stop: &(dyn Fn() -> bool + Sync),
        parts: usize,
    ) {
        let part = |base: usize, out: &mut [T]| {
            let slots = base..base + out.len();
            self.root_pass(
                slots,
                |_| true,
                stop,
                |s, gain| set(&mut out[s - base], gain),
            );
        };
        if parts <= 1 {
            part(0, out);
        } else {
            let chunk = out.len().div_ceil(parts);
            let tasks = out.chunks_mut(chunk).enumerate().collect();
            run_parts(tasks, &|(p, out)| part(p * chunk, out));
        }
    }

    /// Candidate indices sorted by coordinate bit pattern, the
    /// copied-point lookup's permutation: sorted on the first call.
    pub(crate) fn sorted_coords<const D: usize>(&self, inst: &Instance<D>) -> &[u32] {
        self.by_coords.get_or_init(|| {
            let mut by_coords: Vec<u32> = (0..inst.n() as u32).collect();
            by_coords.sort_unstable_by_key(|&j| point_bits(inst.point(j as usize)));
            by_coords
        })
    }

    /// Estimates the full CSR footprint by probing every `stride`-th
    /// row's degree — cheap relative to the build, accurate on the
    /// near-uniform inputs the grid targets. Includes the layout
    /// vectors and an average half-lane of padding per row.
    fn estimate_bytes<const D: usize>(inst: &Instance<D>, grid: &GridIndex<D>) -> usize {
        let n = inst.n();
        let stride = (n / 256).max(1);
        let mut sampled = 0usize;
        let mut entries = 0usize;
        let mut i = 0;
        while i < n {
            grid.for_each_within(inst.point(i), inst.radius(), inst.norm(), |_, _| {
                entries += 1;
            });
            sampled += 1;
            i += stride;
        }
        Self::footprint(n, entries as f64 / sampled as f64)
    }

    /// The footprint [`Self::estimate_bytes`] reports for `n` rows of
    /// mean degree `degree`.
    fn footprint(n: usize, degree: f64) -> usize {
        let est_entries = degree * n as f64 + (n * SPARSE_LANES / 2) as f64;
        (n + 1) * 4 + n * 4 * 4 + (est_entries * Self::BYTES_PER_ENTRY as f64) as usize
    }
}

/// The least [`RewardEngine::estimated_sparse_bytes`] can report for a
/// CSR over `n` points: every row holds at least its own point, so the
/// estimate is never below the degree-1 footprint, `120·n + 4` bytes.
/// Checking it first decides a cap that even it busts without building
/// the index the estimate samples.
pub(crate) fn min_sparse_bytes(n: usize) -> usize {
    SparseCsr::footprint(n, 1.0)
}

/// Whether a CSR estimated at `est_bytes` busts `cap_bytes`, or would
/// hold more entries than its `u32` offsets address. This one test
/// decides both where [`RewardEngine::auto_with_cap`] falls back to a
/// CSR-free backend and where [`crate::Pipeline::for_instance`]
/// escalates an `auto` solve to the coreset.
pub(crate) fn busts_cap(est_bytes: usize, cap_bytes: usize) -> bool {
    est_bytes > cap_bytes || est_bytes / SparseCsr::BYTES_PER_ENTRY >= u32::MAX as usize
}

/// Smallest instance whose occupied-cell index, CSR build, root passes
/// and coreset are split across the rayon pool. Smaller ones run as one
/// part on the calling thread, so small served solves spawn no threads.
/// On a 2-vCPU Xeon a 2-part CSR build of a degree-48 instance took
/// 2.5 ms against 3.3 ms serial at n = 2,000, and 13 ms against 22 ms
/// at n = 10,000: from here on the saving dwarfs the cost of spawning
/// the workers. `mmph serve` keeps a solo solve's arena for the next one
/// from the same size up.
pub const PARALLEL_BUILD_MIN_POINTS: usize = 10_000;

/// Parts a pass over `n` points splits into: one per pool thread from
/// [`PARALLEL_BUILD_MIN_POINTS`] up, else one.
pub(crate) fn sweep_parts(n: usize) -> usize {
    if n >= PARALLEL_BUILD_MIN_POINTS {
        rayon::current_num_threads()
    } else {
        1
    }
}

/// A CSR pass generic over the pair fraction: [`with_pair_frac`]
/// resolves the norm and the kernel once and runs the pass with
/// `pair(center, other)`, the kernel fraction of `other` seen from
/// `center`, and `positive(center, other)`, which is exactly
/// `pair(center, other) > 0.0`, so the pass's inner loop carries no
/// per-pair `match`.
trait PairPass<const D: usize>: Sized {
    type Output;
    fn run(
        self,
        pair: impl Fn(&Point<D>, &Point<D>) -> f64 + Copy + Send + Sync,
        positive: impl Fn(&Point<D>, &Point<D>) -> bool + Copy + Send + Sync,
    ) -> Self::Output;
    /// [`Self::run`] for a `pair` whose positivity only its value tells
    /// (`Exponential`, `Lp`), testing `pair > 0.0`. The write pass
    /// keeps the value it tested instead of evaluating it twice.
    fn run_by_value(
        self,
        pair: impl Fn(&Point<D>, &Point<D>) -> f64 + Copy + Send + Sync,
    ) -> Self::Output {
        self.run(pair, move |a, b| pair(a, b) > 0.0)
    }
}

/// Runs `pass` with `inst`'s pair fraction `frac(dist(center, other),
/// r)`, built from the same `Point::dist_*` calls as [`Norm::dist`] and
/// the same kernel formula as [`PreparedKernel::frac`], and with its
/// positivity test. On L1, L2 and L∞, a kernel with a [`Support`] is
/// tested by a comparison with the largest positive distance (on L2, of
/// the squared distance with [`max_dist_sq`] of it), with no square
/// root, division or kernel; `Exponential` and `Lp` test the fraction
/// ([`PairPass::run_by_value`]).
fn with_pair_frac<const D: usize, P: PairPass<D>>(inst: &Instance<D>, pass: P) -> P::Output {
    struct ByNorm<const D: usize, P> {
        norm: Norm,
        r: f64,
        pass: P,
    }
    impl<const D: usize, P: PairPass<D>> FracPass for ByNorm<D, P> {
        type Output = P::Output;
        fn run_cut(
            self,
            frac: impl Fn(f64, f64) -> f64 + Copy + Send + Sync,
            support: Support,
        ) -> P::Output {
            let (norm, r) = (self.norm, self.r);
            let t = support.max_dist(r);
            match norm {
                Norm::L1 => self.pass.run(
                    move |a, b| frac(a.dist_l1(b), r),
                    move |a, b| a.dist_l1(b) <= t,
                ),
                Norm::L2 => {
                    let t_sq = max_dist_sq(t);
                    self.pass.run(
                        move |a, b| frac(a.dist_l2(b), r),
                        move |a, b| a.dist_sq(b) <= t_sq,
                    )
                }
                Norm::LInf => self.pass.run(
                    move |a, b| frac(a.dist_linf(b), r),
                    move |a, b| a.dist_linf(b) <= t,
                ),
                Norm::Lp(_) => self.pass.run_by_value(move |a, b| frac(norm.dist(a, b), r)),
            }
        }
        fn run(self, frac: impl Fn(f64, f64) -> f64 + Copy + Send + Sync) -> P::Output {
            let (norm, r, pass) = (self.norm, self.r, self.pass);
            match norm {
                Norm::L1 => pass.run_by_value(move |a, b| frac(a.dist_l1(b), r)),
                Norm::L2 => pass.run_by_value(move |a, b| frac(a.dist_l2(b), r)),
                Norm::LInf => pass.run_by_value(move |a, b| frac(a.dist_linf(b), r)),
                Norm::Lp(_) => pass.run_by_value(move |a, b| frac(norm.dist(a, b), r)),
            }
        }
    }
    inst.kernel().prepared().dispatch(ByNorm {
        norm: inst.norm(),
        r: inst.radius(),
        pass,
    })
}

/// The largest `s ≥ 0` whose square root rounds to at most `d ≥ 0`, so
/// that `s.sqrt() ≤ d` exactly when `s ≤ max_dist_sq(d)`. IEEE `sqrt` is
/// correctly rounded, hence monotone in `s`, and non-negative doubles
/// are ordered as their bit patterns, so this bisects the patterns
/// between 0 (`sqrt` 0) and `∞` (`sqrt` `∞`): 63 steps, once per pass.
/// Computed, not `d · d`, which rounds either way of the edge, and
/// underflows or overflows where the radius is extreme.
fn max_dist_sq(d: f64) -> f64 {
    let (mut lo, mut hi) = (0u64, f64::INFINITY.to_bits());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if f64::from_bits(mid).sqrt() <= d {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    f64::from_bits(lo)
}

/// A candidate gathered for one cell block: index, coordinates, weight.
#[derive(Debug, Clone, Copy)]
struct Cand<const D: usize> {
    index: u32,
    point: Point<D>,
    weight: f64,
}

/// The per-cell callback of [`CellFill::for_each_cell`]; `Break` ends
/// the walk early.
type CellRows<'b, const D: usize> =
    dyn FnMut(Range<usize>, &CellBox<D>, &[Range<usize>]) -> ControlFlow<()> + 'b;

/// The per-cell callback of [`CellFill::sweep`]; `Break` ends the
/// sweep early.
type CellBlock<'b, const D: usize> =
    dyn FnMut(Range<usize>, &CellBox<D>, &[Cand<D>]) -> ControlFlow<()> + 'b;

/// `inst`'s weights in `grid`'s slot order.
fn slot_weights<const D: usize>(inst: &Instance<D>, grid: &GridIndex<D>) -> Vec<f64> {
    grid.entries()
        .iter()
        .map(|&i| inst.weight(i as usize))
        .collect()
}

/// A cell sweep's shared inputs: the instance, its grid, the weights
/// in slot order and the contiguous cell ranges, one per part,
/// balanced by point count. The CSR fill and the grid backend's root
/// pass both run on it.
struct CellFill<'a, const D: usize> {
    inst: &'a Instance<D>,
    grid: &'a GridIndex<D>,
    weights: &'a [f64],
    parts: Vec<Range<usize>>,
}

impl<'a, const D: usize> CellFill<'a, D> {
    fn new(
        inst: &'a Instance<D>,
        grid: &'a GridIndex<D>,
        weights: &'a [f64],
        parts: usize,
    ) -> Self {
        let starts = grid.cell_starts();
        let (n, cells, parts) = (grid.len(), starts.len() - 1, parts.max(1));
        // Part p starts at the first cell boundary with at least
        // p·n/parts points before it.
        let bound = |p: usize| {
            if p == parts {
                cells
            } else {
                starts.partition_point(|&s| (s as usize) < n * p / parts)
            }
        };
        CellFill {
            inst,
            grid,
            weights,
            parts: (0..parts).map(|p| bound(p)..bound(p + 1)).collect(),
        }
    }

    /// The slots (rows) of a range of cells.
    fn slots(&self, cells: &Range<usize>) -> Range<usize> {
        let starts = self.grid.cell_starts();
        starts[cells.start] as usize..starts[cells.end] as usize
    }

    /// Calls `block(members, union, rows)` for every occupied cell in
    /// `cells` with a member whose query box meets the grid: its member
    /// slots, the union of their query boxes and the slot range of every
    /// row of occupied cells in that union, in key order, until `block`
    /// breaks. `block` is a trait object so the walk is compiled once,
    /// not once per pass.
    fn for_each_cell(&self, cells: Range<usize>, block: &mut CellRows<'_, D>) {
        let (grid, r) = (self.grid, self.inst.radius());
        let points = grid.slot_points();
        let (mut rows, mut hints) = (Vec::new(), Vec::new());
        for c in cells {
            let members = self.slots(&(c..c + 1));
            let Some(union) = members
                .clone()
                .filter_map(|s| grid.query_box(&points[s], r))
                .reduce(|a, b| a.union(&b))
            else {
                continue;
            };
            rows.clear();
            grid.for_each_row_near(&union, &mut hints, |slots| rows.push(slots));
            if block(members, &union, &rows).is_break() {
                return;
            }
        }
    }

    /// Calls `block(members, union, candidates)` for every cell
    /// [`Self::for_each_cell`] visits, with every point in the union, in
    /// ascending index, until `block` breaks.
    fn sweep(&self, cells: Range<usize>, block: &mut CellBlock<'_, D>) {
        let (entries, points) = (self.grid.entries(), self.grid.slot_points());
        let (mut keys, mut cands) = (Vec::new(), Vec::new());
        self.for_each_cell(cells, &mut |members, union, rows| {
            // (index, slot) keys: one integer sort merges the cells'
            // ascending runs into ascending index.
            keys.clear();
            for slots in rows {
                keys.extend(
                    slots
                        .clone()
                        .map(|s| (u64::from(entries[s]) << 32) | s as u64),
                );
            }
            keys.sort_unstable();
            cands.clear();
            cands.extend(keys.iter().map(|&key| {
                let s = key as u32 as usize;
                Cand {
                    index: entries[s],
                    point: points[s],
                    weight: self.weights[s],
                }
            }));
            block(members, union, &cands)
        });
    }
}

/// Calls `visit(p)` for the position `p` of every candidate in `cands`
/// that lies in `x`'s own query box, in order. A row's entries are the
/// candidates in that box with a positive `frac` — exactly the pairs
/// [`GridIndex::for_each_within`] reports with a positive fraction,
/// since that implies `d ≤ r`. Float rounding at a cell edge can make a
/// member's box narrower than the block's `union`; only then does a
/// candidate's cell need checking.
#[inline(always)]
fn for_each_in_box<const D: usize>(
    grid: &GridIndex<D>,
    r: f64,
    x: &Point<D>,
    union: &CellBox<D>,
    cands: &[Cand<D>],
    mut visit: impl FnMut(usize),
) {
    match grid.query_box(x, r) {
        Some(own) if own == *union => (0..cands.len()).for_each(visit),
        Some(own) => {
            for (p, c) in cands.iter().enumerate() {
                if own.contains(&grid.cell_of(&c.point)) {
                    visit(p);
                }
            }
        }
        None => {}
    }
}

/// Compacts the row of `x` and returns its degree: every in-box
/// candidate `c` whose `test(x, c)` reads `(true, v)`, an entry, goes to
/// `kept` as `(position, v)`, in ascending index, with no
/// data-dependent branch (every in-box candidate is stored at the next
/// free place, and only entries advance it). A zero-`frac` pair (a
/// point exactly on the rim) adds an exact `+0.0` to every gain, so
/// dropping it is bit-transparent.
#[inline(always)]
fn scan_row<const D: usize, V>(
    grid: &GridIndex<D>,
    r: f64,
    x: &Point<D>,
    union: &CellBox<D>,
    cands: &[Cand<D>],
    test: impl Fn(&Point<D>, &Point<D>) -> (bool, V),
    kept: &mut [(u32, V)],
) -> usize {
    let mut m = 0;
    for_each_in_box(grid, r, x, union, cands, |p| {
        let (entry, v) = test(x, &cands[p].point);
        kept[m] = (p as u32, v);
        m += usize::from(entry);
    });
    m
}

/// The degree of the row of `x`: the points in `rows` (the slot ranges
/// of its cell's union) that lie in its own query box with
/// `positive(x, ·)` — the entries [`scan_row`] keeps from the sorted
/// candidates of the same union. A count does not depend on their
/// order, so this reads the points in slot order, with no gather and
/// no sort.
#[inline(always)]
fn count_row<const D: usize>(
    grid: &GridIndex<D>,
    r: f64,
    x: &Point<D>,
    union: &CellBox<D>,
    rows: &[Range<usize>],
    positive: impl Fn(&Point<D>, &Point<D>) -> bool,
) -> usize {
    let points = grid.slot_points();
    match grid.query_box(x, r) {
        Some(own) if own == *union => rows
            .iter()
            .map(|slots| {
                points[slots.clone()]
                    .iter()
                    .filter(|c| positive(x, c))
                    .count()
            })
            .sum(),
        Some(own) => rows
            .iter()
            .flat_map(|slots| &points[slots.clone()])
            .filter(|c| own.contains(&grid.cell_of(c)) && positive(x, c))
            .count(),
        None => 0,
    }
}

/// Splits `buf` into consecutive disjoint slices of the given lengths.
pub(crate) fn split_by_lens<T>(
    mut buf: &mut [T],
    lens: impl Iterator<Item = usize>,
) -> Vec<&mut [T]> {
    lens.map(|len| {
        let (head, tail) = std::mem::take(&mut buf).split_at_mut(len);
        buf = tail;
        head
    })
    .collect()
}

/// Runs `work` on each task and returns its results in task order:
/// across the rayon pool when there are several tasks, on the calling
/// thread when there is one.
pub(crate) fn map_parts<T: Send, R: Send>(
    tasks: Vec<T>,
    work: impl Fn(T) -> R + Sync + Send,
) -> Vec<R> {
    use rayon::prelude::*;
    if tasks.len() > 1 {
        tasks.into_par_iter().map(work).collect()
    } else {
        tasks.into_iter().map(work).collect()
    }
}

/// [`map_parts`] for passes that write their output in place. `work` is
/// a trait object so the pool code is compiled once per task type, not
/// once per (norm, kernel) pass.
fn run_parts<T: Send>(tasks: Vec<T>, work: &(dyn Fn(T) + Sync)) {
    map_parts(tasks, work);
}

/// Pass 1 of [`SparseCsr::fill_cells`]: every row's degree.
struct CountPass<'f, 'a, const D: usize> {
    fill: &'f CellFill<'a, D>,
    /// Each part's slice of the degree array.
    degrees: Vec<&'f mut [u32]>,
}

impl<const D: usize> PairPass<D> for CountPass<'_, '_, D> {
    type Output = ();
    fn run(
        self,
        _pair: impl Fn(&Point<D>, &Point<D>) -> f64 + Copy + Send + Sync,
        positive: impl Fn(&Point<D>, &Point<D>) -> bool + Copy + Send + Sync,
    ) {
        let fill = self.fill;
        let (grid, r) = (fill.grid, fill.inst.radius());
        let tasks: Vec<_> = fill.parts.iter().cloned().zip(self.degrees).collect();
        run_parts(tasks, &|(cells, degrees)| {
            let base = fill.slots(&cells).start;
            fill.for_each_cell(cells, &mut |members, union, rows| {
                for slot in members {
                    let x = &grid.slot_points()[slot];
                    let deg = count_row(grid, r, x, union, rows, positive);
                    degrees[slot - base] = deg as u32;
                }
                ControlFlow::Continue(())
            });
        });
    }
}

/// Pass 2 of [`SparseCsr::fill_cells`]: writes every row, padding
/// included, at its offset, into each part's slices of the
/// not-yet-initialized entry buffers, and each row's root gain into the
/// part's slice of the root sums.
struct WritePass<'f, 'a, const D: usize> {
    fill: &'f CellFill<'a, D>,
    offsets: &'f [u32],
    degrees: &'f [u32],
    neighbors: Vec<&'f mut [MaybeUninit<u32>]>,
    frac: Vec<&'f mut [MaybeUninit<f64>]>,
    weight: Vec<&'f mut [MaybeUninit<f64>]>,
    root_sums: Vec<&'f mut [f64]>,
}

impl<const D: usize> PairPass<D> for WritePass<'_, '_, D> {
    type Output = ();
    /// Compacts each row on `positive` and evaluates `pair` for its
    /// entries alone.
    fn run(
        self,
        pair: impl Fn(&Point<D>, &Point<D>) -> f64 + Copy + Send + Sync,
        positive: impl Fn(&Point<D>, &Point<D>) -> bool + Copy + Send + Sync,
    ) {
        self.write(move |x, c| (positive(x, c), ()), move |x, c, ()| pair(x, c));
    }

    /// Compacts each row on `pair > 0.0`, keeping every entry's value.
    fn run_by_value(self, pair: impl Fn(&Point<D>, &Point<D>) -> f64 + Copy + Send + Sync) {
        self.write(
            move |x, c| {
                let f = pair(x, c);
                (f > 0.0, f)
            },
            |_, _, f| f,
        );
    }
}

impl<const D: usize> WritePass<'_, '_, D> {
    /// Writes every row: the row of `x` holds the in-box candidates `c`
    /// whose `test(x, c)` reads `(true, v)` ([`scan_row`]), and
    /// `frac(x, c, v)` is the fraction of each.
    fn write<V: Copy + Default + Send>(
        self,
        test: impl Fn(&Point<D>, &Point<D>) -> (bool, V) + Sync,
        frac: impl Fn(&Point<D>, &Point<D>, V) -> f64 + Sync,
    ) {
        let (fill, offsets, degrees) = (self.fill, self.offsets, self.degrees);
        let (grid, r) = (fill.grid, fill.inst.radius());
        let tasks: Vec<_> = fill
            .parts
            .iter()
            .cloned()
            .zip(self.neighbors)
            .zip(self.frac)
            .zip(self.weight)
            .zip(self.root_sums)
            .collect();
        run_parts(tasks, &|((((cells, nb), fr), wt), sums)| {
            let first = fill.slots(&cells).start;
            let base = offsets[first] as usize;
            let mut kept = Vec::new();
            fill.sweep(cells, &mut |members, union, cands| {
                kept.resize(kept.len().max(cands.len()), (0, V::default()));
                for slot in members {
                    let x = &grid.slot_points()[slot];
                    let deg = scan_row(grid, r, x, union, cands, &test, &mut kept);
                    assert_eq!(
                        deg, degrees[slot] as usize,
                        "CSR write pass disagrees with its count"
                    );
                    let start = offsets[slot] as usize - base;
                    // The root gain adds `w · min(frac, 1)` in entry
                    // order, as `root_gain_at` does; its padding terms
                    // are exact `+0.0`.
                    let mut sum = 0.0;
                    for (k, &(p, v)) in (start..).zip(&kept[..deg]) {
                        let c = &cands[p as usize];
                        let f = frac(x, &c.point, v);
                        nb[k].write(c.index);
                        fr[k].write(f);
                        wt[k].write(c.weight);
                        sum += c.weight * f.min(1.0);
                    }
                    sums[slot - first] = sum;
                    if deg > 0 {
                        // Padding repeats the last real neighbor with
                        // zero frac and weight, so the kernel's
                        // unchecked residual gather stays in bounds and
                        // the dirty-region test sees no phantom points.
                        let pad = cands[kept[deg - 1].0 as usize].index;
                        for k in start + deg..start + padded_len(deg) {
                            nb[k].write(pad);
                            fr[k].write(0.0);
                            wt[k].write(0.0);
                        }
                    }
                }
                ControlFlow::Continue(())
            });
        });
    }
}

/// Reward evaluation engine: computes coverage rewards by dense linear
/// scan, precomputed sparse CSR adjacency or a CSR-free grid query, and
/// counts evaluations (used by the CELF ablation to demonstrate the
/// saved work).
#[derive(Debug)]
pub struct RewardEngine<'a, const D: usize> {
    inst: &'a Instance<D>,
    backend: Backend<D>,
    /// Kernel with per-solve constants hoisted ([`Kernel::prepared`]).
    kernel: PreparedKernel,
    // Atomic (not Cell) so the engine is Sync and the parallel oracle can
    // share it across worker threads; ordering is Relaxed because the
    // counter is a pure statistic, never used for synchronization.
    evals: std::sync::atomic::AtomicU64,
}

/// The evaluation backend of a [`RewardEngine`].
#[derive(Debug)]
pub(crate) enum Backend<const D: usize> {
    Scan,
    Sparse(SparseCsr),
    Grid(GridCells<D>),
}

impl<'a, const D: usize> RewardEngine<'a, D> {
    pub(crate) fn with_backend(inst: &'a Instance<D>, backend: Backend<D>) -> Self {
        RewardEngine {
            inst,
            backend,
            kernel: inst.kernel().prepared(),
            evals: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Engine wrapping an already-built CSR — the incremental layer
    /// transplants its delta-patched adjacency in without a rebuild
    /// ([`crate::incremental`]).
    pub(crate) fn from_csr(inst: &'a Instance<D>, csr: SparseCsr) -> Self {
        Self::with_backend(inst, Backend::Sparse(csr))
    }

    /// Takes the CSR back out of a sparse engine (the inverse of
    /// [`Self::from_csr`]); `None` for other backends.
    pub(crate) fn take_csr(self) -> Option<SparseCsr> {
        match self.backend {
            Backend::Sparse(csr) => Some(csr),
            _ => None,
        }
    }

    /// Engine that evaluates by linear scan over all points.
    pub fn scan(inst: &'a Instance<D>) -> Self {
        Self::with_backend(inst, Backend::Scan)
    }

    /// The CSR-free grid engine ([`EngineKind::Grid`]): the
    /// occupied-cell index at cell side `r` and the weights in its slot
    /// order, O(n) memory on input of any spread.
    pub fn grid(inst: &'a Instance<D>) -> Self {
        Self::with_backend(inst, Backend::Grid(GridCells::new(inst, cell_index(inst))))
    }

    /// Engine backed by a precomputed CSR neighbor adjacency: candidate
    /// gains become O(degree) sparse dot products, bit-identical to the
    /// dense scan. Forces the build regardless of footprint; use
    /// [`Self::auto`] for the memory-capped variant.
    pub fn sparse(inst: &'a Instance<D>) -> Self {
        Self::with_backend(
            inst,
            Backend::Sparse(SparseCsr::build(inst, &cell_index(inst))),
        )
    }

    /// Sparse engine whose CSR buffers are taken from (and on
    /// [`Self::reclaim`] returned to) a [`CsrScratch`] arena. The
    /// produced adjacency is byte-identical to [`Self::sparse`]; only
    /// the allocation behaviour differs.
    pub fn sparse_with_scratch(inst: &'a Instance<D>, scratch: &mut CsrScratch) -> Self {
        Self::with_backend(
            inst,
            Backend::Sparse(SparseCsr::build_with(inst, &cell_index(inst), scratch)),
        )
    }

    /// Returns the CSR buffers of a sparse engine to `scratch` so the
    /// next [`Self::sparse_with_scratch`] build reuses their capacity.
    /// A no-op for the other backends.
    pub fn reclaim(self, scratch: &mut CsrScratch) {
        if let Backend::Sparse(csr) = self.backend {
            csr.recycle(scratch);
        }
    }

    /// Raw CSR arrays `(offsets, degrees, neighbors, frac, weight)` of
    /// the sparse backend (offsets are padded and indexed by
    /// storage slot; see [`Self::eval_order`] for the slot → candidate
    /// map) — exposed so tests can compare builds byte for byte.
    #[doc(hidden)]
    #[allow(clippy::type_complexity)]
    pub fn csr_parts(&self) -> Option<(&[u32], &[u32], &[u32], &[f64], &[f64])> {
        match &self.backend {
            Backend::Sparse(csr) => Some((
                &csr.offsets,
                &csr.degrees,
                &csr.neighbors,
                &csr.frac,
                &csr.weight,
            )),
            _ => None,
        }
    }

    /// The cache-friendly candidate evaluation order of a sparse
    /// backend: `order[slot]` is the candidate whose CSR row is stored
    /// at `slot`, so scanning candidates in this order reads the CSR
    /// streams strictly sequentially and keeps spatially-adjacent
    /// residual lines hot. The grid backend's order is its slot order,
    /// the same cell-major permutation. `None` for the other backends.
    /// The order is a permutation of `0..n`; an argmax over it with the
    /// explicit max-gain/min-index tie-break selects exactly the
    /// candidate the index-order first-max scan does.
    pub fn eval_order(&self) -> Option<&[u32]> {
        match &self.backend {
            Backend::Sparse(csr) => Some(&csr.order),
            Backend::Grid(g) => Some(g.order()),
            _ => None,
        }
    }

    /// The bulk root pass of every backend with an [`Self::eval_order`]:
    /// for every `slot`, calls `set(&mut out[slot], gain)` with the
    /// fresh-residual gain (`y = 1` everywhere) of candidate
    /// [`Self::eval_order`]`[slot]`, bit-identical to
    /// [`Self::candidate_gain`] on reset residuals. A freshly built CSR
    /// copies the gains its build summed ([`SparseCsr::root_sums`]), on
    /// the calling thread. Otherwise the grid backend sweeps its cells
    /// ([`GridCells::root_gains`]), and the sparse backend sums each CSR
    /// row with no neighbor gather ([`SparseCsr::root_gains`]); either
    /// pass splits across the rayon pool from 10,000 points up, polls
    /// `stop` as it goes and returns early when it reads true, leaving
    /// the rest of `out` as it was. Charges no evaluations (the caller
    /// does). Touches nothing on the scan backend, which has no bulk
    /// pass.
    pub(crate) fn root_gains_by_slot<T: Send>(
        &self,
        out: &mut [T],
        set: impl Fn(&mut T, f64) + Sync,
        stop: &(dyn Fn() -> bool + Sync),
    ) {
        let parts = sweep_parts(self.inst.n());
        match &self.backend {
            Backend::Grid(g) => g.root_gains(self.inst, out, set, stop, parts),
            Backend::Sparse(csr) if !csr.root_sums.is_empty() => {
                for (o, &gain) in out.iter_mut().zip(&csr.root_sums) {
                    set(o, gain);
                }
            }
            Backend::Sparse(csr) => csr.root_gains(out, set, stop, parts),
            Backend::Scan => {}
        }
    }

    /// Sparse when the estimated CSR footprint fits under
    /// [`DEFAULT_SPARSE_CAP_BYTES`], else the CSR-free grid engine (see
    /// [`EngineKind::Auto`]).
    pub fn auto(inst: &'a Instance<D>) -> Self {
        Self::auto_with_cap(inst, DEFAULT_SPARSE_CAP_BYTES)
    }

    /// [`Self::auto`] with an explicit cap in bytes. Past the cap the
    /// engine is the grid backend over the index the estimate already
    /// built.
    pub fn auto_with_cap(inst: &'a Instance<D>, cap_bytes: usize) -> Self {
        let grid = cell_index(inst);
        let backend = if busts_cap(SparseCsr::estimate_bytes(inst, &grid), cap_bytes) {
            Backend::Grid(GridCells::new(inst, grid))
        } else {
            Backend::Sparse(SparseCsr::build(inst, &grid))
        };
        Self::with_backend(inst, backend)
    }

    /// [`Self::auto_with_cap`]; `kind` is ignored, since the CSR has one
    /// scalar type.
    pub fn auto_with_cap_kind(inst: &'a Instance<D>, cap_bytes: usize, _kind: EngineKind) -> Self {
        Self::auto_with_cap(inst, cap_bytes)
    }

    /// The estimated CSR footprint in bytes that [`Self::auto_with_cap`]
    /// compares against the cap (sampled row degrees × the per-entry
    /// bytes). `None` for kinds that build no CSR.
    pub fn estimated_sparse_bytes(inst: &Instance<D>, kind: EngineKind) -> Option<usize> {
        match kind {
            EngineKind::Sparse | EngineKind::Auto => {
                Some(SparseCsr::estimate_bytes(inst, &cell_index(inst)))
            }
            _ => None,
        }
    }

    /// Engine for an [`EngineKind`] selection.
    pub fn with_kind(inst: &'a Instance<D>, kind: EngineKind) -> Self {
        match kind {
            EngineKind::Auto => Self::auto(inst),
            EngineKind::Scan => Self::scan(inst),
            EngineKind::Sparse => Self::sparse(inst),
            EngineKind::Grid => Self::grid(inst),
        }
    }

    /// The backend actually in use (never [`EngineKind::Auto`]).
    pub fn kind(&self) -> EngineKind {
        match self.backend {
            Backend::Scan => EngineKind::Scan,
            Backend::Sparse(_) => EngineKind::Sparse,
            Backend::Grid(_) => EngineKind::Grid,
        }
    }

    /// CSR build statistics when the sparse backend is active.
    pub fn sparse_stats(&self) -> Option<SparseStats> {
        match &self.backend {
            Backend::Sparse(csr) => Some(csr.stats),
            _ => None,
        }
    }

    /// The instance this engine evaluates against.
    pub fn instance(&self) -> &Instance<D> {
        self.inst
    }

    /// Number of coverage-reward evaluations performed so far.
    pub fn evals(&self) -> u64 {
        self.evals.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Records one reward evaluation without computing anything — used
    /// by the oracle layer to charge whole-objective evaluations (swap
    /// moves, beam rescoring) to the same counter as candidate gains.
    pub(crate) fn note_eval(&self) {
        self.note_evals(1);
    }

    /// Records `count` evaluations at once (a bulk root pass).
    pub(crate) fn note_evals(&self, count: u64) {
        self.evals
            .fetch_add(count, std::sync::atomic::Ordering::Relaxed);
    }

    /// Resolves an arbitrary query point back to its candidate index
    /// when it *is* one of the instance's points. Two tiers: a pointer
    /// range check (catches `inst.point(i)` references for free), then
    /// a binary search over the coordinate-bits-sorted candidate
    /// permutation, which `by_coords` returns only when a lookup gets
    /// this far (catches *copied* points, e.g. the local-search polish
    /// loop's `*inst.point(cand)`). The permutation covers the current
    /// points: the incremental layer drops it at every delta. Bit-equal
    /// duplicates are interchangeable — identical coordinates produce
    /// identical CSR rows, hence identical gains.
    fn candidate_index<'s>(
        &'s self,
        c: &Point<D>,
        by_coords: impl FnOnce() -> &'s [u32],
    ) -> Option<usize> {
        let points = self.inst.points();
        let size = std::mem::size_of::<Point<D>>();
        if size > 0 {
            let base = points.as_ptr() as usize;
            let addr = c as *const Point<D> as usize;
            if addr >= base
                && addr < base + std::mem::size_of_val(points)
                && (addr - base).is_multiple_of(size)
            {
                return Some((addr - base) / size);
            }
        }
        let by_coords = by_coords();
        let key = point_bits(c);
        by_coords
            .binary_search_by(|&j| point_bits(&points[j as usize]).cmp(&key))
            .ok()
            .map(|pos| by_coords[pos] as usize)
    }

    /// Coverage reward of `c` against `residuals` (Eq. 13's inner
    /// objective), via the configured evaluation strategy. On the
    /// sparse backend a query point that is (bit-equal to) one of the
    /// instance's points routes through [`Self::candidate_gain`]'s
    /// O(degree) row walk — non-greedy callers like the local-search
    /// polish get the sparse path too. Genuinely arbitrary points have
    /// no CSR row and fall back to the dense reference scan. The grid
    /// backend gathers any point's query box in ascending index.
    pub fn gain(&self, c: &Point<D>, residuals: &Residuals) -> f64 {
        let index = match &self.backend {
            Backend::Sparse(csr) => self.candidate_index(c, || csr.sorted_coords(self.inst)),
            _ => None,
        };
        if let Some(i) = index {
            return self.candidate_gain(i, residuals);
        }
        self.note_eval();
        match &self.backend {
            Backend::Grid(g) => g.gain(self.inst, &self.kernel, c, residuals.as_slice()),
            _ => coverage_reward_with(self.inst, c, residuals, &self.kernel),
        }
    }

    /// Coverage reward of candidate point `i` — the hot path of every
    /// point-candidate greedy. On the sparse backend this is the
    /// blocked O(degree) lane kernel over the precomputed row, with the
    /// same accumulation order as the dense scan (hence bit-identical
    /// to it); other backends delegate to
    /// [`Self::gain`], which on the grid backend is the same sum over
    /// the candidate's query box. Charges one evaluation.
    pub fn candidate_gain(&self, i: usize, residuals: &Residuals) -> f64 {
        match &self.backend {
            Backend::Sparse(csr) => {
                self.note_eval();
                csr.gain_blocked(i, residuals.as_slice())
            }
            _ => self.gain(self.inst.point(i), residuals),
        }
    }

    /// Appends `(gain(b | ∅), b)` for every candidate `b` with
    /// `dirty[b]` to `out`: the CSR root pass (`SparseCsr::root_pass`)
    /// filtered by `dirty`, in **CSR slot order** so the `frac`/`weight`
    /// streams are read near-sequentially (index-order iteration would
    /// chase every row through `slot_of` — random access over the whole
    /// CSR). Each root gain is bit-identical to [`Self::candidate_gain`]
    /// against reset residuals, and each charges one evaluation.
    /// Returns `false` (appending nothing) on the other backends.
    ///
    /// This is how the warm re-solve prices its CELF swap-pool bounds:
    /// at 1% churn on n = 10⁶ the dirty set is ~half the instance, so
    /// the pool build dominates the warm resolve unless it streams.
    pub fn root_gains_into(&self, dirty: &[bool], out: &mut Vec<(f64, usize)>) -> bool {
        let Backend::Sparse(csr) = &self.backend else {
            return false;
        };
        let before = out.len();
        let candidate = |slot: usize| csr.order[slot] as usize;
        csr.root_pass(
            0..csr.order.len(),
            |slot| dirty.get(candidate(slot)).copied().unwrap_or(false),
            &|| false,
            |slot, gain| out.push((gain, candidate(slot))),
        );
        self.note_evals((out.len() - before) as u64);
        true
    }

    /// The scalar (unblocked) reference walk of candidate `i`'s CSR
    /// row: per-entry branches, padding excluded. `None` on the other
    /// backends. Exposed as the bit-identity witness for
    /// [`Self::candidate_gain`]'s blocked kernel: `kernel_layout`
    /// checks the two agree to the bit, and `kernel_floor` times them.
    /// Charges one evaluation so throughput comparisons stay symmetric.
    #[doc(hidden)]
    pub fn candidate_gain_unblocked(&self, i: usize, residuals: &Residuals) -> Option<f64> {
        match &self.backend {
            Backend::Sparse(csr) => {
                self.note_eval();
                Some(csr.gain_unblocked(i, residuals.as_slice()))
            }
            _ => None,
        }
    }

    /// Commits candidate `i` as a center by walking its *real* CSR row:
    /// the sparse counterpart of [`Residuals::apply`], O(degree)
    /// instead of O(n). The grid backend walks the candidate's query
    /// box in ascending index, the same visit set and order, so its
    /// commit is bit-identical to the dense apply too. `None` on the
    /// other backends.
    ///
    /// Bit-identity with the dense apply: the real row is exactly the
    /// set of points with positive kernel fraction, in ascending index
    /// order (the dense loop's visit order after its `z > 0` guard),
    /// each entry's `frac`/`weight` carry the same bits the dense path
    /// recomputes, and per-point updates are independent — so both the
    /// returned gain and the mutated residuals match the dense apply
    /// bit for bit.
    pub fn apply_candidate(&self, i: usize, residuals: &mut Residuals) -> Option<f64> {
        match &self.backend {
            Backend::Sparse(csr) => Some(csr.apply_row(i, residuals)),
            Backend::Grid(g) => {
                Some(g.apply(self.inst, &self.kernel, self.inst.point(i), residuals))
            }
            _ => None,
        }
    }

    /// Dirty-region test for the CELF lazy oracle: has candidate `i`'s
    /// gain provably not changed since residual version `version`? Only
    /// the sparse backend can answer (`None` otherwise). `Some(true)`
    /// means every point the candidate can touch last shrank at or
    /// before `version`, so a gain computed then is still exact — the
    /// oracle may reuse it without charging an evaluation. Free: an
    /// O(degree) integer compare against the real (unpadded) CSR row,
    /// no kernel math.
    pub fn unchanged_since(&self, i: usize, residuals: &Residuals, version: u64) -> Option<bool> {
        let Backend::Sparse(csr) = &self.backend else {
            return None;
        };
        Some(
            csr.neighbors[csr.real_row(i)]
                .iter()
                .all(|&j| residuals.touched(j as usize) <= version),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::kernel::Kernel;
    use mmph_geom::Point;

    fn line_instance(k: usize, r: f64) -> Instance<2> {
        InstanceBuilder::new()
            .point([0.0, 0.0], 1.0)
            .point([1.0, 0.0], 2.0)
            .point([2.0, 0.0], 3.0)
            .radius(r)
            .k(k)
            .build()
            .unwrap()
    }

    #[test]
    fn coverage_frac_cases() {
        assert_eq!(coverage_frac(0.0, 1.0), 1.0); // at the center
        assert_eq!(coverage_frac(1.0, 1.0), 0.0); // on the boundary
        assert_eq!(coverage_frac(0.5, 1.0), 0.5);
        assert_eq!(coverage_frac(2.0, 1.0), 0.0); // outside
        assert_eq!(coverage_frac(3.0, 2.0), 0.0);
    }

    #[test]
    fn psi_matches_equation_1() {
        let c = Point::new([0.0, 0.0]);
        let x = Point::new([0.6, 0.0]);
        // w (1 - d/r) = 2 * (1 - 0.6/1.0) = 0.8
        assert!((psi(2.0, &c, &x, 1.0, Norm::L2) - 0.8).abs() < 1e-12);
        // outside the radius: zero
        assert_eq!(psi(2.0, &c, &Point::new([1.5, 0.0]), 1.0, Norm::L2), 0.0);
    }

    #[test]
    fn objective_single_center() {
        let inst = line_instance(1, 1.0);
        // Center at point 1 (1,0): covers p0 at d=1 (frac 0), p1 at d=0
        // (frac 1), p2 at d=1 (frac 0). f = 2.
        let f = objective(&inst, &[Point::new([1.0, 0.0])]);
        assert!((f - 2.0).abs() < 1e-12);
    }

    #[test]
    fn objective_caps_overlapping_centers() {
        let inst = line_instance(2, 2.0);
        // Two identical centers at p1: each gives p1 frac 1; cap keeps
        // p1's contribution at w=2. p0/p2 at d=1, frac 0.5 each from both
        // centers -> cov = 1.0 (capped exactly), contributing w each.
        let c = Point::new([1.0, 0.0]);
        let f = objective(&inst, &[c, c]);
        assert!((f - (1.0 + 2.0 + 3.0)).abs() < 1e-12);
    }

    #[test]
    fn objective_empty_center_set_is_zero() {
        let inst = line_instance(1, 1.0);
        assert_eq!(objective(&inst, &[]), 0.0);
    }

    #[test]
    fn residuals_start_at_one_and_deplete() {
        let inst = line_instance(2, 2.0);
        let mut res = Residuals::new(inst.n());
        assert_eq!(res.as_slice(), &[1.0, 1.0, 1.0]);
        let c = Point::new([1.0, 0.0]);
        let g1 = res.apply(&inst, &c);
        // z = (0.5, 1.0, 0.5); gain = 1*0.5 + 2*1 + 3*0.5 = 4.0
        assert!((g1 - 4.0).abs() < 1e-12);
        assert!((res.y(0) - 0.5).abs() < 1e-12);
        assert_eq!(res.y(1), 0.0);
        assert!((res.y(2) - 0.5).abs() < 1e-12);
        // Re-applying the same center claims only the residual halves.
        let g2 = res.apply(&inst, &c);
        assert!((g2 - (1.0 * 0.5 + 3.0 * 0.5)).abs() < 1e-12);
        assert!(res.all_satisfied(1e-12));
    }

    #[test]
    fn round_gains_telescope_to_objective() {
        // The invariant that justifies Solution::total_reward.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..30 {
            let n = rng.gen_range(2..20);
            let pts: Vec<Point<2>> = (0..n)
                .map(|_| Point::new([rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)]))
                .collect();
            let ws: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..5.0)).collect();
            let inst = Instance::new(pts.clone(), ws, 1.5, 3, Norm::L2).unwrap();
            let centers: Vec<Point<2>> = (0..3)
                .map(|_| Point::new([rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)]))
                .collect();
            let mut res = Residuals::new(n);
            let total: f64 = centers.iter().map(|c| res.apply(&inst, c)).sum();
            let f = objective(&inst, &centers);
            assert!(
                (total - f).abs() < 1e-9,
                "telescoped {total} vs objective {f}"
            );
        }
    }

    #[test]
    fn coverage_reward_respects_residuals() {
        let inst = line_instance(1, 2.0);
        let mut res = Residuals::new(inst.n());
        let c = Point::new([1.0, 0.0]);
        let before = coverage_reward(&inst, &c, &res);
        assert!((before - 4.0).abs() < 1e-12);
        res.apply(&inst, &c);
        let after = coverage_reward(&inst, &c, &res);
        assert!((after - 2.0).abs() < 1e-12); // only the residual halves
    }

    #[test]
    fn assignments_do_not_mutate() {
        let inst = line_instance(1, 2.0);
        let res = Residuals::new(inst.n());
        let c = Point::new([1.0, 0.0]);
        let mut z = Vec::new();
        res.assignments_into(&inst, &c, &mut z);
        assert_eq!(z.len(), 3);
        assert!((z[0] - 0.5).abs() < 1e-12);
        assert!((z[1] - 1.0).abs() < 1e-12);
        assert_eq!(res.as_slice(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn engine_counts_evaluations() {
        let inst = line_instance(1, 1.0);
        let engine = RewardEngine::scan(&inst);
        let res = Residuals::new(inst.n());
        assert_eq!(engine.evals(), 0);
        engine.gain(&Point::new([0.0, 0.0]), &res);
        engine.gain(&Point::new([1.0, 0.0]), &res);
        assert_eq!(engine.evals(), 2);
    }

    #[test]
    fn reset_matches_fresh_residuals() {
        let inst = line_instance(2, 2.0);
        let mut res = Residuals::new(inst.n());
        res.apply(&inst, &Point::new([1.0, 0.0]));
        assert!(res.version() > 0);
        res.reset(inst.n());
        let fresh = Residuals::new(inst.n());
        assert_eq!(res, fresh);
        assert_eq!(res.version(), 0);
        assert_eq!(res.touched(0), 0);
        // Shrinking reset (smaller n) must also match a fresh build.
        res.reset(2);
        assert_eq!(res.as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn assignments_into_overwrites_a_dirty_buffer() {
        let inst = line_instance(1, 2.0);
        let mut res = Residuals::new(inst.n());
        res.apply(&inst, &Point::new([0.0, 0.0]));
        let c = Point::new([1.0, 0.0]);
        let mut fresh = Vec::new();
        res.assignments_into(&inst, &c, &mut fresh);
        let mut buf = vec![99.0; 7]; // dirty, over-sized buffer
        res.assignments_into(&inst, &c, &mut buf);
        assert_eq!(fresh, buf);
    }

    fn random_instance_for_csr(seed: u64, n: usize) -> Instance<2> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Point<2>> = (0..n)
            .map(|_| Point::new([rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)]))
            .collect();
        let ws: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..5.0)).collect();
        Instance::new(pts, ws, 0.7, 4, Norm::L2).unwrap()
    }

    /// Fills `order` with all point indices sorted by grid cell of side
    /// `cell`, measured from the bounding-box corner, and by index
    /// within a cell: the slot order the index's sort must reproduce.
    fn spatial_order<const D: usize>(points: &[Point<D>], cell: f64, order: &mut Vec<u32>) {
        order.clear();
        order.extend(0..points.len() as u32);
        let mut lo = [f64::INFINITY; D];
        for p in points {
            for d in 0..D {
                lo[d] = lo[d].min(p[d]);
            }
        }
        // The key ends with the index, so the order is total (no unstable
        // tie arbitration) and ascending-index within each cell.
        order.sort_unstable_by_key(|&i| {
            let p = &points[i as usize];
            let cells: [u64; D] = std::array::from_fn(|d| ((p[d] - lo[d]) / cell) as u64);
            (cells, i)
        });
    }

    impl SparseCsr {
        /// The per-row reference build over the index `grid`: rows in
        /// [`spatial_order`] at the index's cell side, each one
        /// enumerated through the index's radius query, sorted,
        /// appended and padded on its own, and the root gains from the
        /// root pass over the finished rows.
        fn build_rowwise<const D: usize>(inst: &Instance<D>, grid: &GridIndex<D>) -> Self {
            let mut csr = Self::from_scratch(&mut CsrScratch::default());
            let max_degree = csr.fill_rows(inst, grid);
            csr.root_sums = (0..inst.n()).map(|s| csr.root_gain_at(s)).collect();
            csr.finish(inst, max_degree);
            csr
        }

        /// The per-row fill: rows in [`spatial_order`], each one
        /// enumerated, sorted ascending, stripped of zero-`frac`
        /// entries, appended and padded. Returns the largest degree.
        fn fill_rows<const D: usize>(&mut self, inst: &Instance<D>, grid: &GridIndex<D>) -> usize {
            spatial_order(inst.points(), grid.cell_size(), &mut self.order);
            let (r, norm) = (inst.radius(), inst.norm());
            let kernel = inst.kernel().prepared();
            self.offsets.push(0);
            let mut row = Vec::new();
            for slot in 0..self.order.len() {
                row.clear();
                let x = inst.point(self.order[slot] as usize);
                grid.for_each_within(x, r, norm, |j, d| {
                    row.push((j as u32, d));
                });
                // The query emits in cell order; ascending neighbor index
                // is what makes the sparse accumulation bit-identical to
                // the dense scan.
                row.sort_unstable_by_key(|&(j, _)| j);
                let deg = Self::append_row(inst, &kernel, &row, self);
                self.degrees.push(deg as u32);
                self.offsets.push(self.neighbors.len() as u32);
            }
            self.degrees.iter().max().map_or(0, |&d| d as usize)
        }

        /// Appends one enumerated-and-sorted row: keeps the entries with
        /// positive kernel fraction (a zero-`frac` entry — a point
        /// exactly on the rim — contributes an exact `+0.0` to every
        /// gain, so dropping it is bit-transparent), then pads to a lane
        /// multiple by repeating the last real neighbor with
        /// `frac = weight = 0`. Returns the real degree.
        fn append_row<const D: usize>(
            inst: &Instance<D>,
            kernel: &PreparedKernel,
            row: &[(u32, f64)],
            csr: &mut Self,
        ) -> usize {
            let r = inst.radius();
            let before = csr.neighbors.len();
            for &(j, d) in row {
                let f = kernel.frac(d, r);
                if f > 0.0 {
                    csr.neighbors.push(j);
                    csr.frac.push(f);
                    csr.weight.push(inst.weight(j as usize));
                }
            }
            let deg = csr.neighbors.len() - before;
            if deg > 0 {
                let pad = *csr.neighbors.last().expect("deg > 0");
                while csr.neighbors.len() < before + padded_len(deg) {
                    csr.neighbors.push(pad);
                    csr.frac.push(0.0);
                    csr.weight.push(0.0);
                }
            }
            deg
        }

        /// Every stored array (floats as bits) and the entry statistics.
        /// The coordinate permutation is left out: a build does not sort
        /// it.
        fn arrays(&self) -> [Vec<u64>; 9] {
            let ints = |xs: &[u32]| xs.iter().map(|&x| u64::from(x)).collect();
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
            [
                ints(&self.offsets),
                ints(&self.degrees),
                ints(&self.slot_of),
                ints(&self.order),
                ints(&self.neighbors),
                bits(&self.frac),
                bits(&self.weight),
                bits(&self.root_sums),
                vec![
                    self.stats.entries as u64,
                    self.stats.padded_entries as u64,
                    self.stats.max_degree as u64,
                    self.stats.bytes as u64,
                ],
            ]
        }
    }

    /// Instances that stress the cell fill's exactness: rows at exact
    /// multiples of `r` from the bounding-box corner (cell edges, and
    /// `d = r` pairs that only `Step` keeps), duplicates, a bounding box
    /// far from the origin, a single cell, a spread of ~2×10⁶ cells per
    /// side, cells dense enough to fill several root-pass lane groups,
    /// cells of every member count around one and two groups, and
    /// points at ±10³⁰⁰ and ±10³⁰⁸, whose keys at side `r` do not fit 64
    /// bits, so that the index widens its cells. Returns
    /// `(label, instance, at_r)`, where `at_r` says the index keeps cell
    /// side `r`.
    fn fill_cases<const D: usize>(norm: Norm, kernel: Kernel) -> Vec<(String, Instance<D>, bool)> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(D as u64 * 31 + 7);
        let side: usize = if D == 2 { 9 } else { 5 };
        let mut lattice = |corner: f64, r: f64| {
            let mut pts = Vec::new();
            for i in 0..side.pow(D as u32) {
                let coords: [f64; D] = std::array::from_fn(|d| {
                    let step = (i / side.pow(d as u32)) % side;
                    corner + step as f64 * r
                });
                pts.push(Point::new(coords));
            }
            // Random fill-ins over the same box.
            for _ in 0..pts.len() / 2 {
                pts.push(Point::new(std::array::from_fn(|_| {
                    corner + rng.gen_range(0.0..(side - 1) as f64 * r)
                })));
            }
            pts
        };
        let random = |rng: &mut StdRng, n: usize, lo: f64, hi: f64| -> Vec<Point<D>> {
            (0..n)
                .map(|_| Point::new(std::array::from_fn(|_| rng.gen_range(lo..hi))))
                .collect()
        };
        let mut cases = vec![
            ("lattice-0.1".to_string(), lattice(-1.7, 0.1), 0.1, true),
            ("lattice-0.5".to_string(), lattice(0.0, 0.5), 0.5, true),
        ];
        let mut dup = random(&mut rng, 150, 0.0, 3.0);
        for i in 0..50 {
            dup.push(dup[i * 3]);
            dup.push(dup[i * 3]);
        }
        cases.push(("duplicates".into(), dup, 0.6, true));
        cases.push((
            "offset-bbox".into(),
            random(&mut rng, 300, 1000.0, 1003.0),
            0.45,
            true,
        ));
        cases.push((
            "single-cell".into(),
            random(&mut rng, 60, 5.0, 5.5),
            1.0,
            true,
        ));
        cases.push(("spread".into(), random(&mut rng, 40, 0.0, 1e6), 0.5, true));
        // Uniform at degree ~48 (L2): cells of side r hold 10–20 members.
        let per_cell: f64 = if D == 2 { 15.0 } else { 11.5 };
        let side = (300.0 / per_cell).powf(1.0 / D as f64);
        cases.push((
            "cell-dense".into(),
            random(&mut rng, 300, 0.0, side),
            1.0,
            true,
        ));
        // Cells along the first axis holding 1 to 2·ROOT_LANES + 1
        // members, away from the cell edges; the anchor at the origin
        // pins the grid's corner and is cell 0's one member.
        let mut counted = vec![Point::new([0.0; D])];
        for cell in 1..=2 * grid::ROOT_LANES {
            for _ in 0..=cell {
                counted.push(Point::new(std::array::from_fn(|d| {
                    let base = if d == 0 { cell as f64 } else { 0.0 };
                    base + rng.gen_range(0.1..0.9)
                })));
            }
        }
        cases.push(("lane-groups".into(), counted, 1.0, true));
        // A rounding edge on the x-axis at r = 0.2: `b - a` rounds to
        // exactly r although the real gap is wider, and `a`'s cell lies
        // outside `b`'s query box but inside that of `b2`, a member of
        // `b`'s cell. Only the per-candidate cell check keeps the
        // `d = r` pair (which `Step` would count) out of `b`'s row.
        let on_axis = |x: f64| Point::new(std::array::from_fn(|d| if d == 0 { x } else { 0.0 }));
        let edge = [
            -0.60019485078294,
            -0.0001948507829399666,
            0.19980514921706005,
            0.19980514921706,
        ];
        cases.push((
            "rounding-edge".into(),
            edge.map(on_axis).to_vec(),
            0.2,
            true,
        ));
        // Two far points and a cluster at the origin, which the widened
        // cells hold in one or two cells.
        for far in [1e300, 1e308] {
            let mut pts = vec![on_axis(-far), on_axis(far)];
            pts.extend(random(&mut rng, 30, 0.0, 2.0));
            cases.push((format!("far-{far:e}"), pts, 1.0, false));
        }
        cases
            .into_iter()
            .map(|(label, pts, r, grid)| {
                let n = pts.len();
                let ws = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.375).collect();
                let inst = Instance::new(pts, ws, r, 3, norm)
                    .and_then(|inst| inst.with_kernel(kernel))
                    .unwrap();
                (label, inst, grid)
            })
            .collect()
    }

    fn check_cell_fill<const D: usize>() {
        let kernels = [
            Kernel::Linear,
            Kernel::Step,
            Kernel::Quadratic,
            Kernel::Exponential { lambda: 2.5 },
        ];
        for norm in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
            for kernel in kernels {
                for (label, inst, at_r) in fill_cases::<D>(norm, kernel) {
                    let grid = cell_index(&inst);
                    assert_eq!(
                        grid.cell_size() == inst.radius(),
                        at_r,
                        "{label}: cell side"
                    );
                    let want = SparseCsr::build_rowwise(&inst, &grid).arrays();
                    let mut scratch = CsrScratch::new();
                    for parts in [1, 2, 3, 7] {
                        let got = SparseCsr::build_in_parts(&inst, &grid, &mut scratch, parts);
                        assert_eq!(
                            got.arrays(),
                            want,
                            "D={D} {norm} {} {label} parts={parts}: CSR differs from the \
                             row-by-row reference",
                            kernel.name()
                        );
                        got.recycle(&mut scratch);
                    }
                }
            }
        }
    }

    #[test]
    fn cell_fill_is_byte_identical_to_the_row_reference() {
        check_cell_fill::<2>();
        check_cell_fill::<3>();
    }

    /// Reads a pair pass's `pair` and `positive` on every pair.
    struct Probe<'p, const D: usize>(&'p [(Point<D>, Point<D>)]);

    impl<const D: usize> PairPass<D> for Probe<'_, D> {
        type Output = Vec<(f64, bool)>;
        fn run(
            self,
            pair: impl Fn(&Point<D>, &Point<D>) -> f64 + Copy + Send + Sync,
            positive: impl Fn(&Point<D>, &Point<D>) -> bool + Copy + Send + Sync,
        ) -> Self::Output {
            self.0
                .iter()
                .map(|(x, c)| (pair(x, c), positive(x, c)))
                .collect()
        }
    }

    /// `positive(x, c) == (pair(x, c) > 0.0)` under every norm and kernel
    /// at radius `r`, on pairs whose distance is `r` and a few ulps either
    /// side: from the origin along the first axis (where the computed
    /// distance is exactly that), from a random point along it and in a
    /// random direction (where it rounds a little either way), plus a
    /// pair at distance 0 and one far outside.
    fn check_positive<const D: usize>(r: f64, seed: u64) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let origin = Point::new([0.0; D]);
        let axis = |t: f64| Point::new(std::array::from_fn(|d| if d == 0 { t } else { 0.0 }));
        let mut pairs = vec![(origin, origin), (origin, axis(3.0 * r))];
        for _ in 0..8 {
            let x = Point::new(std::array::from_fn(|_| r * rng.gen_range(-3.0..3.0)));
            let dir: [f64; D] = std::array::from_fn(|_| rng.gen_range(-1.0..1.0));
            let len = dir.iter().map(|v| v * v).sum::<f64>().sqrt();
            let mut t = r;
            for _ in 0..4 {
                t = t.next_down();
            }
            for _ in 0..9 {
                pairs.push((origin, axis(t)));
                pairs.push((
                    x,
                    Point::new(std::array::from_fn(|d| x[d] + (d == 0) as u8 as f64 * t)),
                ));
                pairs.push((
                    x,
                    Point::new(std::array::from_fn(|d| x[d] + dir[d] / len * t)),
                ));
                t = t.next_up();
            }
        }
        let kernels = [
            Kernel::Linear,
            Kernel::Step,
            Kernel::Quadratic,
            Kernel::Exponential { lambda: 2.5 },
        ];
        for norm in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
            for kernel in kernels {
                let inst = Instance::new(vec![origin], vec![1.0], r, 1, norm)
                    .and_then(|inst| inst.with_kernel(kernel))
                    .unwrap();
                for ((x, c), (f, positive)) in
                    pairs.iter().zip(with_pair_frac(&inst, Probe(&pairs)))
                {
                    assert_eq!(
                        positive,
                        f > 0.0,
                        "D={D} {norm} {} r={r:e}: x={x} c={c}, frac {f:e}",
                        kernel.name()
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// Radii from 2⁻¹⁰²² to 2¹⁰²¹: squares that underflow (below
        /// about 10⁻¹⁵⁴) and overflow (above about 10¹⁵⁴) included.
        #[test]
        fn positive_is_exactly_a_positive_pair_fraction(
            exp in -1022i32..=1020,
            mantissa in 1.0..2.0f64,
            seed in 0..u64::MAX,
        ) {
            let r = mantissa * 2f64.powi(exp);
            check_positive::<2>(r, seed);
            check_positive::<3>(r, seed);
        }
    }

    /// The positivity test at hand-picked radii: powers of two (where
    /// `r.next_down()` is nearest `r`), the smallest normal and
    /// subnormal radii and the largest that keeps the pairs finite.
    #[test]
    fn positive_holds_at_extreme_radii() {
        for (seed, r) in [
            1.0,
            0.5,
            0.1,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(1 << 20),
            1e-160,
            1e160,
            f64::MAX / 8.0,
        ]
        .into_iter()
        .enumerate()
        {
            check_positive::<2>(r, seed as u64);
            check_positive::<3>(r, seed as u64);
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The grid engine's bulk root pass, on every fill case (the far
    /// ones on widened cells) in 1, 2, 3 and 7 parts, against its own
    /// per-candidate `candidate_gain` and the sparse engine's on fresh
    /// residuals, and against the dense scan away from the cell-edge
    /// rounding case (where the sparse rows drop a `d = r` pair the
    /// scan keeps).
    fn check_root_pass<const D: usize>() {
        let kernels = [
            Kernel::Linear,
            Kernel::Step,
            Kernel::Quadratic,
            Kernel::Exponential { lambda: 2.5 },
        ];
        for norm in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
            for kernel in kernels {
                for (label, inst, _) in fill_cases::<D>(norm, kernel) {
                    let what = format!("D={D} {norm} {} {label}", kernel.name());
                    let engine = RewardEngine::grid(&inst);
                    let Backend::Grid(cells) = &engine.backend else {
                        unreachable!("grid engine");
                    };
                    let fresh = Residuals::new(inst.n());
                    let order = engine.eval_order().unwrap();
                    let per_candidate = |e: &RewardEngine<'_, D>| {
                        let gains: Vec<f64> = order
                            .iter()
                            .map(|&i| e.candidate_gain(i as usize, &fresh))
                            .collect();
                        bits(&gains)
                    };
                    let want = per_candidate(&engine);
                    assert_eq!(per_candidate(&RewardEngine::sparse(&inst)), want, "{what}");
                    if label != "rounding-edge" {
                        assert_eq!(per_candidate(&RewardEngine::scan(&inst)), want, "{what}");
                    }
                    for parts in [1, 2, 3, 7] {
                        let mut got = vec![f64::NAN; inst.n()];
                        cells.root_gains(&inst, &mut got, |o, g| *o = g, &|| false, parts);
                        assert_eq!(bits(&got), want, "{what} parts={parts}: root pass");
                    }
                }
            }
        }
    }

    #[test]
    fn grid_root_pass_matches_per_candidate_gains() {
        check_root_pass::<2>();
        check_root_pass::<3>();
    }

    /// The root gains of `engine` (the sparse backend) against
    /// per-candidate `candidate_gain` on fresh residuals, bit for bit:
    /// the sums its build recorded (present exactly when `recorded`),
    /// the CSR root pass in 1, 2, 3 and 7 parts, the engine's bulk pass
    /// (which copies recorded sums) and the warm pool builder's
    /// filtered pass with every candidate dirty.
    fn check_csr_root_pass<const D: usize>(
        engine: &RewardEngine<'_, D>,
        recorded: bool,
        what: &str,
    ) {
        let n = engine.instance().n();
        let fresh = Residuals::new(n);
        let order = engine.eval_order().unwrap().to_vec();
        let gains: Vec<f64> = order
            .iter()
            .map(|&i| engine.candidate_gain(i as usize, &fresh))
            .collect();
        let want = bits(&gains);
        let Backend::Sparse(csr) = &engine.backend else {
            unreachable!("sparse engine");
        };
        let set = |o: &mut f64, g| *o = g;
        if recorded {
            assert_eq!(bits(&csr.root_sums), want, "{what}: recorded root sums");
        } else {
            assert!(csr.root_sums.is_empty(), "{what}: stale root sums kept");
        }
        for parts in [1, 2, 3, 7] {
            let mut got = vec![f64::NAN; n];
            csr.root_gains(&mut got, set, &|| false, parts);
            assert_eq!(bits(&got), want, "{what} parts={parts}: root pass");
        }
        let mut got = vec![f64::NAN; n];
        engine.root_gains_by_slot(&mut got, set, &|| false);
        assert_eq!(bits(&got), want, "{what}: bulk root pass");
        let mut pool = Vec::new();
        assert!(engine.root_gains_into(&vec![true; n], &mut pool));
        let (pool_gains, pool_order): (Vec<f64>, Vec<usize>) = pool.into_iter().unzip();
        assert_eq!(bits(&pool_gains), want, "{what}: pool gains");
        assert!(pool_order
            .iter()
            .zip(&order)
            .all(|(&a, &b)| a == b as usize));
    }

    /// Builds `inst`'s CSR in 1, 2, 3 and 7 parts and checks each
    /// one's root gains, recorded sums included.
    fn check_fresh_root_gains<const D: usize>(inst: &Instance<D>, what: &str) {
        let grid = cell_index(inst);
        let mut scratch = CsrScratch::new();
        for parts in [1, 2, 3, 7] {
            let csr = SparseCsr::build_in_parts(inst, &grid, &mut scratch, parts);
            let engine = RewardEngine::from_csr(inst, csr);
            check_csr_root_pass(&engine, true, &format!("{what} built in {parts}"));
            engine.reclaim(&mut scratch);
        }
    }

    /// The root gains behind the sparse engine's CELF prime: on every
    /// fill case under every norm and kernel, built in several parts;
    /// on a churn-patched CSR (no recorded sums, and rows relocated to
    /// the tail, so slot order no longer follows the offsets); and on
    /// its compaction rebuild, which records them again.
    #[test]
    fn csr_root_pass_matches_per_candidate_gains() {
        let kernels = [
            Kernel::Linear,
            Kernel::Step,
            Kernel::Quadratic,
            Kernel::Exponential { lambda: 2.5 },
        ];
        for norm in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
            for kernel in kernels {
                for (label, inst, _) in fill_cases::<2>(norm, kernel) {
                    check_fresh_root_gains(&inst, &format!("{norm} {} {label}", kernel.name()));
                }
            }
        }
        for (label, inst, _) in fill_cases::<3>(Norm::L2, Kernel::Linear) {
            check_fresh_root_gains(&inst, &format!("D=3 {label}"));
        }
        use crate::incremental::IncrementalInstance;
        use crate::instance::Delta;
        let inst = random_instance_for_csr(17, 300);
        let mut inc = IncrementalInstance::new(inst, EngineKind::Sparse).unwrap();
        let deltas: Vec<Delta<2>> = (0..40)
            .map(|i| match i % 3 {
                0 => Delta::Insert {
                    point: Point::new([0.1 * (i % 40) as f64, 0.05 * i as f64]),
                    weight: 1.5,
                },
                1 => Delta::Move {
                    index: 7 * i,
                    to: Point::new([3.9 - 0.08 * i as f64, 0.5]),
                },
                _ => Delta::Remove { index: 3 * i },
            })
            .collect();
        inc.with_engine(|engine| check_csr_root_pass(engine, true, "before churn"));
        inc.apply_churn(&deltas[..1]).unwrap();
        inc.with_engine(|engine| check_csr_root_pass(engine, false, "one delta"));
        inc.apply_churn(&deltas[1..]).unwrap();
        inc.verify_against_rebuild().unwrap();
        assert!(inc.dead_entries() > 0, "no row was relocated");
        inc.with_engine(|engine| check_csr_root_pass(engine, false, "churned"));
        inc.rebuild();
        inc.with_engine(|engine| check_csr_root_pass(engine, true, "rebuilt"));
    }

    /// A stop that reads true before the first cell leaves every output
    /// untouched.
    #[test]
    fn grid_root_pass_stops_when_told() {
        let inst = random_instance_for_csr(5, 200);
        let engine = RewardEngine::grid(&inst);
        let mut out = vec![-1.0; inst.n()];
        engine.root_gains_by_slot(&mut out, |o, g| *o = g, &|| true);
        assert!(out.iter().all(|&g| g == -1.0));
        engine.root_gains_by_slot(&mut out, |o, g| *o = g, &|| false);
        assert!(out.iter().all(|&g| g > 0.0));
    }

    /// Grid gains of candidates and of arbitrary points match the dense
    /// scan bit for bit at every mid-solve state, and each grid commit
    /// leaves exactly the gain, residuals, touched versions and version
    /// of the dense apply.
    #[test]
    fn grid_gains_and_commits_match_the_dense_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        for norm in [Norm::L1, Norm::L2, Norm::LInf] {
            for kernel in [Kernel::Linear, Kernel::Step, Kernel::Quadratic] {
                let inst = random_instance_for_csr(23, 300)
                    .with_norm(norm)
                    .and_then(|i| i.with_kernel(kernel))
                    .unwrap();
                let (scan, grid) = (RewardEngine::scan(&inst), RewardEngine::grid(&inst));
                let mut dense = Residuals::new(inst.n());
                let mut local = Residuals::new(inst.n());
                for round in 0..8 {
                    let what = format!("{norm} {} round {round}", kernel.name());
                    for i in 0..inst.n() {
                        let (a, b) = (
                            scan.candidate_gain(i, &dense),
                            grid.candidate_gain(i, &local),
                        );
                        assert_eq!(a.to_bits(), b.to_bits(), "{what}: candidate {i}");
                    }
                    for _ in 0..20 {
                        let c = Point::new([rng.gen_range(-1.0..5.0), rng.gen_range(-1.0..5.0)]);
                        let (a, b) = (scan.gain(&c, &dense), grid.gain(&c, &local));
                        assert_eq!(a.to_bits(), b.to_bits(), "{what}: point {c}");
                    }
                    let pick = rng.gen_range(0..inst.n());
                    let want = dense.apply(&inst, inst.point(pick));
                    let got = grid.apply_candidate(pick, &mut local).unwrap();
                    assert_eq!(got.to_bits(), want.to_bits(), "{what}: commit gain");
                    assert_eq!(bits(local.as_slice()), bits(dense.as_slice()), "{what}: y");
                    assert_eq!(local.version(), dense.version(), "{what}: version");
                    assert!(
                        (0..inst.n()).all(|i| local.touched(i) == dense.touched(i)),
                        "{what}: touched"
                    );
                }
            }
        }
    }

    /// Clustered input: 20 clusters of 100 points, 10⁴·r apart, under
    /// L1, L2 and L∞. Every engine runs at cell side `r`: the grid root
    /// pass and the grid, sparse and scan gains agree bit for bit, and so
    /// do the lazy picks and rewards of all three.
    #[test]
    fn clustered_input_runs_every_engine_at_cell_side_r() {
        use crate::batch::solve_rounds;
        use crate::oracle::{GainOracle, OracleStrategy};
        use crate::scratch::SolveScratch;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let mut points = Vec::new();
        for c in 0..20 {
            let (x0, y0) = (f64::from(c % 5) * 1e4, f64::from(c / 5) * 1e4);
            for _ in 0..100 {
                points.push(Point::new([
                    x0 + rng.gen_range(0.0..6.0),
                    y0 + rng.gen_range(0.0..6.0),
                ]));
            }
        }
        let weights = (0..points.len()).map(|i| 1.0 + (i % 3) as f64).collect();
        let inst = Instance::new(points, weights, 1.0, 12, Norm::L2).unwrap();
        for norm in [Norm::L1, Norm::L2, Norm::LInf] {
            let inst = inst.clone().with_norm(norm).unwrap();
            let grid = RewardEngine::grid(&inst);
            let Backend::Grid(cells) = &grid.backend else {
                unreachable!("grid engine");
            };
            assert_eq!(cells.grid.cell_size(), inst.radius(), "{norm}");
            let fresh = Residuals::new(inst.n());
            let gains = |e: &RewardEngine<'_, 2>| -> Vec<u64> {
                (0..inst.n())
                    .map(|i| e.candidate_gain(i, &fresh).to_bits())
                    .collect()
            };
            let want = gains(&RewardEngine::scan(&inst));
            assert_eq!(gains(&grid), want, "{norm}: grid gains");
            assert_eq!(
                gains(&RewardEngine::sparse(&inst)),
                want,
                "{norm}: sparse gains"
            );
            let mut by_slot = vec![f64::NAN; inst.n()];
            grid.root_gains_by_slot(&mut by_slot, |o, g| *o = g, &|| false);
            let order = grid.eval_order().unwrap();
            for (slot, &i) in order.iter().enumerate() {
                assert_eq!(
                    by_slot[slot].to_bits(),
                    want[i as usize],
                    "{norm}: root pass"
                );
            }
            let solve = |kind| {
                let oracle = GainOracle::with_engine(&inst, kind, OracleStrategy::Lazy);
                let mut scratch = SolveScratch::new();
                let total = solve_rounds(&oracle, &mut scratch);
                (scratch.picks().to_vec(), total.to_bits())
            };
            let picks = solve(EngineKind::Scan);
            assert_eq!(picks.0.len(), 12);
            assert_eq!(solve(EngineKind::Grid), picks, "{norm}: grid picks");
            assert_eq!(solve(EngineKind::Sparse), picks, "{norm}: sparse picks");
        }
    }

    #[test]
    fn scratch_build_reuses_buffers_and_reclaims() {
        let inst = random_instance_for_csr(9, 120);
        let mut scratch = CsrScratch::new();
        let engine = RewardEngine::sparse_with_scratch(&inst, &mut scratch);
        let entries = engine.sparse_stats().unwrap().entries;
        // The CSR vectors were moved into the engine.
        assert_eq!(scratch.retained_bytes(), 0);
        engine.reclaim(&mut scratch);
        assert!(scratch.retained_bytes() >= entries * SparseCsr::BYTES_PER_ENTRY);
        // A rebuild through the warm scratch matches a fresh build.
        let warm = RewardEngine::sparse_with_scratch(&inst, &mut scratch);
        let cold = RewardEngine::sparse(&inst);
        assert_eq!(warm.csr_parts().unwrap().0, cold.csr_parts().unwrap().0);
        assert_eq!(warm.csr_parts().unwrap().1, cold.csr_parts().unwrap().1);
        assert_eq!(warm.csr_parts().unwrap().2, cold.csr_parts().unwrap().2);
        warm.reclaim(&mut scratch);
    }

    #[test]
    fn l1_norm_reward() {
        let inst = InstanceBuilder::new()
            .point([0.0, 0.0], 1.0)
            .point([0.5, 0.5], 1.0)
            .radius(1.0)
            .k(1)
            .norm(Norm::L1)
            .build()
            .unwrap();
        // L1 distance from origin to (0.5, 0.5) is 1.0: boundary, frac 0.
        let f = objective(&inst, &[Point::new([0.0, 0.0])]);
        assert!((f - 1.0).abs() < 1e-12);
    }

    /// The auto cap compares the estimated CSR footprint (20 B an
    /// entry): a cap just under the estimate falls back to the grid
    /// engine, a generous one builds the CSR, and no estimate reads
    /// below the degree-1 floor.
    #[test]
    fn auto_cap_compares_the_csr_estimate() {
        let mut b = InstanceBuilder::new();
        for i in 0..64 {
            b = b.point([(i % 8) as f64, (i / 8) as f64], 1.0);
        }
        let inst = b.radius(1.5).k(4).build().unwrap();
        let est = RewardEngine::estimated_sparse_bytes(&inst, EngineKind::Sparse).unwrap();
        // index u32 + frac f64 + weight f64
        assert_eq!(SparseCsr::BYTES_PER_ENTRY, 20);
        let over = RewardEngine::auto_with_cap_kind(&inst, est - 1, EngineKind::Sparse);
        assert_eq!(
            over.kind(),
            EngineKind::Grid,
            "over the cap must fall to grid"
        );
        let under = RewardEngine::auto_with_cap(&inst, est + 1);
        assert_eq!(under.kind(), EngineKind::Sparse);
        assert!(min_sparse_bytes(inst.n()) <= est);
        assert_eq!(min_sparse_bytes(inst.n()), 120 * inst.n() + 4);
    }

    #[test]
    fn auto_with_a_zero_cap_runs_on_the_grid() {
        let inst = random_instance_for_csr(3, 150);
        assert_eq!(
            RewardEngine::auto_with_cap(&inst, 0).kind(),
            EngineKind::Grid
        );
    }

    #[test]
    fn grid_name_round_trips() {
        assert_eq!(EngineKind::parse("grid").unwrap(), EngineKind::Grid);
        assert_eq!(EngineKind::Grid.name(), "grid");
        assert!(EngineKind::NAMES.contains(&"grid"));
    }
}
