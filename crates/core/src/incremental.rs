//! Incremental instances: CSR delta patching and warm-start re-solve.
//!
//! Real populations drift — users arrive, leave, and move — but a cold
//! re-solve pays the full CSR rebuild plus a from-scratch greedy
//! (6.3 s dirty-CELF at n = 10⁶, BENCH_PR5). This module treats
//! *re-solve after small churn* as the hot path:
//!
//! - [`IncrementalInstance`] owns an [`Instance`] together with its
//!   blocked sparse CSR and patches the adjacency **in place** per
//!   delta instead of rebuilding. The fixed-radius relation `d ≤ r` is
//!   symmetric, so a changed point's own neighbor row is *exactly* the
//!   set of rows it perturbs — one grid enumeration per delta yields
//!   both the new row and the patch set.
//! - Rows whose lane-padded span must grow are relocated to the array
//!   tail; the old span becomes a dead hole. Row ends are derived from
//!   `degrees` (never from the next slot's offset), so holes are
//!   invisible to the gain kernels. When dead space exceeds half the
//!   physical arrays a full rebuild compacts everything (amortized
//!   O(1) per delta) and restores the pristine spatial order.
//! - **Invalidation rule**: every delta marks the changed point's row —
//!   by symmetry, precisely the candidates whose cached gains a lazy
//!   heap could no longer trust — in a per-point dirty set. The
//!   warm-start polish re-examines *only* that set; everything else
//!   keeps its standing from the previous solve.
//! - [`IncrementalInstance::resolve`] warm-starts from the previous
//!   selection (remapped through removals), refills missing slots
//!   greedily, then runs one swap-based local-search pass restricted
//!   to the dirty pool. It falls back to a cold CELF greedy when churn
//!   since the last resolve exceeds a threshold, when there is no seed
//!   selection, or when the polished total rounds below the seed's.
//! - No resolve, warm or cold, looks a candidate up by a copied point,
//!   so the CSR's coordinate permutation is not kept up: each delta
//!   drops it, and a lookup sorts it afresh, as on a fresh build.
//!
//! Correctness anchor: after any delta sequence the patched CSR is
//! **bitwise identical** to a cold rebuild of the mutated point set,
//! modulo the documented spatial permutation (patched slots append at
//! the tail instead of re-sorting; the permutation stays valid, and
//! the argmax tie-break makes selection order-independent). The
//! `proptest_churn` suite pins this across insert/remove/move
//! sequences and both norms;
//! [`IncrementalInstance::verify_against_rebuild`] is the checker
//! that suite and the `churn_floor` rounds share.

use std::collections::HashMap;

use mmph_geom::{Norm, Point};

use crate::batch::solve_rounds_within;
use crate::budget::{DegradeReason, SolveBudget};
use crate::cancel::CancelToken;
use crate::instance::{Delta, Instance};
use crate::kernel::PreparedKernel;
use crate::oracle::{GainOracle, OracleStrategy};
use crate::reward::{
    cell_index, padded_len, CsrScratch, EngineKind, RewardEngine, SparseCsr, SPARSE_LANES,
};
use crate::scratch::SolveScratch;
use crate::{CoreError, Result};

/// Minimum physical entry count before dead holes can trigger a
/// compaction rebuild — below this the rebuild is cheaper than the
/// bookkeeping anyway.
const REBUILD_MIN_ENTRIES: usize = 4096;

/// Incremental churn fraction above which [`IncrementalInstance::resolve`]
/// abandons the warm start for a cold greedy.
pub const DEFAULT_CHURN_THRESHOLD: f64 = 0.05;

/// A hash grid over the instance's points with cell side = the
/// interest radius, maintained incrementally under churn. Unlike
/// [`crate::cells::GridIndex`] (which sorts a snapshot of the point set
/// into its slots at build time), this index holds only point *indices*
/// per cell, so inserts/removes/moves are O(1) hash operations.
/// Radius enumeration visits the 3^D cell neighborhood and reports
/// `norm.dist` — the same distance bits the cold build's index query
/// produces, which is what keeps patched rows bit-identical to rebuilt
/// ones.
#[derive(Debug)]
struct ChurnGrid<const D: usize> {
    cell: f64,
    cells: HashMap<[i64; D], Vec<u32>>,
}

impl<const D: usize> ChurnGrid<D> {
    fn build(points: &[Point<D>], radius: f64) -> Self {
        let mut grid = ChurnGrid {
            cell: radius,
            cells: HashMap::new(),
        };
        for (i, p) in points.iter().enumerate() {
            grid.insert(i as u32, p);
        }
        grid
    }

    #[inline]
    fn key(&self, p: &Point<D>) -> [i64; D] {
        std::array::from_fn(|d| (p[d] / self.cell).floor() as i64)
    }

    fn insert(&mut self, idx: u32, p: &Point<D>) {
        self.cells.entry(self.key(p)).or_default().push(idx);
    }

    fn remove(&mut self, idx: u32, p: &Point<D>) {
        let key = self.key(p);
        if let Some(v) = self.cells.get_mut(&key) {
            if let Some(pos) = v.iter().position(|&j| j == idx) {
                v.swap_remove(pos);
            }
            if v.is_empty() {
                self.cells.remove(&key);
            }
        }
    }

    /// Relabels the index stored for the point at `p` (swap-remove
    /// renumbering: the former last index takes the removed one).
    fn relabel(&mut self, from: u32, to: u32, p: &Point<D>) {
        if let Some(v) = self.cells.get_mut(&self.key(p)) {
            if let Some(pos) = v.iter().position(|&j| j == from) {
                v[pos] = to;
            }
        }
    }

    /// Calls `f(index, dist)` for every point within `radius` of
    /// `center` (boundary inclusive, like the cold build's index query).
    fn for_each_within(
        &self,
        points: &[Point<D>],
        center: &Point<D>,
        radius: f64,
        norm: Norm,
        mut f: impl FnMut(u32, f64),
    ) {
        let lo: [i64; D] =
            std::array::from_fn(|d| ((center[d] - radius) / self.cell).floor() as i64);
        let hi: [i64; D] =
            std::array::from_fn(|d| ((center[d] + radius) / self.cell).floor() as i64);
        let mut key = lo;
        loop {
            if let Some(v) = self.cells.get(&key) {
                for &j in v {
                    let d = norm.dist(center, &points[j as usize]);
                    if d <= radius {
                        f(j, d);
                    }
                }
            }
            // Odometer increment over the D-dimensional cell box.
            let mut dim = 0;
            loop {
                if dim == D {
                    return;
                }
                key[dim] += 1;
                if key[dim] <= hi[dim] {
                    break;
                }
                key[dim] = lo[dim];
                dim += 1;
            }
        }
    }
}

/// Configuration of [`IncrementalInstance::resolve`]. The warm path
/// runs one swap-polish pass, and the cold path a dirty-CELF greedy.
#[derive(Debug, Clone)]
pub struct ResolveConfig {
    /// Warm start is abandoned for a cold greedy when
    /// `deltas since last resolve / n` exceeds this. Default
    /// [`DEFAULT_CHURN_THRESHOLD`].
    pub churn_threshold: f64,
    /// Skip the warm path entirely.
    pub force_cold: bool,
    /// Cooperative cancellation; a tripped token degrades the resolve
    /// (warm: seed selection kept, polish abandoned; cold: committed
    /// prefix) exactly like the serve layer's mid-solve cancellation.
    pub cancel: Option<CancelToken>,
}

impl Default for ResolveConfig {
    fn default() -> Self {
        ResolveConfig {
            churn_threshold: DEFAULT_CHURN_THRESHOLD,
            force_cold: false,
            cancel: None,
        }
    }
}

/// Outcome of one [`IncrementalInstance::resolve`].
#[derive(Debug, Clone)]
pub struct ResolveOutcome {
    /// Selected candidate indices.
    pub selection: Vec<usize>,
    /// Total coverage reward of the selection (telescoped round gains,
    /// recomputed over the final selection).
    pub reward: f64,
    /// True when the warm path produced the answer; false means cold
    /// greedy ran (first solve, churn over threshold, forced, polish
    /// regression, or warm-path cancellation fallback).
    pub warm: bool,
    /// Why the cold path ran, when it did.
    pub cold_reason: Option<&'static str>,
    /// Candidate evaluations charged to this resolve.
    pub evals: u64,
    /// True when a tripped [`CancelToken`] cut the resolve short.
    pub cancelled: bool,
    /// Monotone churn version at resolve time (one bump per applied
    /// delta).
    pub churn_version: u64,
    /// Swaps accepted by the polish (0 for cold resolves).
    pub swaps: usize,
}

/// An [`Instance`] paired with an incrementally patched blocked CSR, a
/// churn-maintained spatial hash, the per-point dirty set, and the
/// previous selection for warm-started re-solves. See the module docs
/// for the algorithm; see DESIGN.md §10 for the invariants.
#[derive(Debug)]
pub struct IncrementalInstance<const D: usize> {
    inst: Instance<D>,
    csr: SparseCsr,
    grid: ChurnGrid<D>,
    /// `dirty[i]` — point `i`'s coverage relation changed since the
    /// last resolve. By `d ≤ r` symmetry this is exactly the set of
    /// candidates whose cached gains the churn invalidated.
    dirty: Vec<bool>,
    /// Deltas applied since the last resolve.
    churned: usize,
    /// Monotone counter, one bump per applied delta.
    version: u64,
    /// Lane-padded entries stranded in holes by row relocation.
    dead_padded: usize,
    /// Full rebuilds performed to compact dead space.
    rebuilds: u64,
    /// Selection of the previous resolve, remapped through removals.
    prev_selection: Vec<usize>,
    /// Row enumeration buffers reused across deltas (steady-state
    /// churn allocates nothing once rows fit).
    row: Vec<(u32, f64)>,
    old_row: Vec<(u32, u64, u64)>,
    csr_scratch: CsrScratch,
}

impl<const D: usize> IncrementalInstance<D> {
    /// Builds the CSR for `inst` (forced sparse; the cap-checked
    /// `auto` path does not apply — patching only makes sense on a
    /// materialized adjacency) and the churn index. `kind` must be
    /// [`EngineKind::Sparse`] or [`EngineKind::Auto`], which means it
    /// here; any other kind is an error, reported before the CSR is
    /// built.
    pub fn new(inst: Instance<D>, kind: EngineKind) -> Result<Self> {
        if !matches!(kind, EngineKind::Sparse | EngineKind::Auto) {
            return Err(CoreError::InvalidConfig(format!(
                "incremental instances require a sparse engine (auto or sparse), got {kind}"
            )));
        }
        let mut csr_scratch = CsrScratch::new();
        let mut csr = SparseCsr::build_with(&inst, &cell_index(&inst), &mut csr_scratch);
        csr.offsets.pop(); // drop the sentinel: row ends derive from degrees
        let grid = ChurnGrid::build(inst.points(), inst.radius());
        let dirty = vec![false; inst.n()];
        Ok(IncrementalInstance {
            inst,
            csr,
            grid,
            dirty,
            churned: 0,
            version: 0,
            dead_padded: 0,
            rebuilds: 0,
            prev_selection: Vec::new(),
            row: Vec::new(),
            old_row: Vec::new(),
            csr_scratch,
        })
    }

    /// The current (mutated) instance.
    pub fn instance(&self) -> &Instance<D> {
        &self.inst
    }

    /// Monotone churn version (one bump per applied delta).
    pub fn churn_version(&self) -> u64 {
        self.version
    }

    /// Deltas applied since the last resolve.
    pub fn churned_since_resolve(&self) -> usize {
        self.churned
    }

    /// Lane-padded entries currently stranded in dead holes.
    pub fn dead_entries(&self) -> usize {
        self.dead_padded
    }

    /// Compaction rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The previous resolve's selection (remapped through removals),
    /// i.e. the next warm start's seed.
    pub fn selection(&self) -> &[usize] {
        &self.prev_selection
    }

    /// Inserts a point and patches the CSR: one grid enumeration
    /// yields the new row; by symmetry the same set of rows gains an
    /// entry for the new point. Returns the new index (always the
    /// current `n`).
    pub fn insert_point(&mut self, p: Point<D>, w: f64) -> Result<usize> {
        let i = self.inst.insert_point(p, w)?;
        self.grid.insert(i as u32, &p);
        let mut row = std::mem::take(&mut self.row);
        row.clear();
        self.grid.for_each_within(
            self.inst.points(),
            &p,
            self.inst.radius(),
            self.inst.norm(),
            |j, d| row.push((j, d)),
        );
        row.sort_unstable_by_key(|&(j, _)| j);
        self.dirty.push(false);
        for &(j, _) in &row {
            self.dirty[j as usize] = true;
        }
        let kernel = self.inst.kernel().prepared();
        patch_insert(
            &mut self.csr,
            &self.inst,
            &kernel,
            i,
            &row,
            &mut self.dead_padded,
        );
        self.row = row;
        self.note_delta();
        Ok(i)
    }

    /// Removes a point and patches the CSR. Mirrors the instance's
    /// swap-remove: the last index is renumbered to `i` (its CSR
    /// entries are repositioned in place — same degree, same bits).
    /// The previous selection is remapped (the removed center is
    /// dropped; the renumbered index follows).
    pub fn remove_point(&mut self, i: usize) -> Result<()> {
        let n = self.inst.n();
        if i >= n || n <= 1 {
            // Delegate the error construction to the instance.
            self.inst.remove_point(i)?;
            unreachable!("instance accepted a removal the wrapper rejected");
        }
        let last = n - 1;
        let p_rm = *self.inst.point(i);
        let p_last = *self.inst.point(last);
        self.inst.remove_point(i)?;
        self.grid.remove(i as u32, &p_rm);
        if last != i {
            self.grid.relabel(last as u32, i as u32, &p_last);
        }
        patch_remove(
            &mut self.csr,
            i,
            last,
            &mut self.dead_padded,
            &mut self.dirty,
        );
        // dirty follows the same swap-remove renumbering as the points.
        self.dirty.swap_remove(i);
        self.prev_selection.retain(|&s| s != i);
        for s in &mut self.prev_selection {
            if *s == last {
                *s = i;
            }
        }
        self.note_delta();
        Ok(())
    }

    /// Moves a point and patches the CSR by diffing its old row
    /// against the newly enumerated one: entries leaving coverage are
    /// removed from neighbor rows, entries entering are spliced in,
    /// entries in both get their `frac` updated in place.
    pub fn move_point(&mut self, i: usize, to: Point<D>) -> Result<()> {
        if i >= self.inst.n() {
            self.inst.move_point(i, to)?;
            unreachable!("instance accepted a move the wrapper rejected");
        }
        let from = *self.inst.point(i);
        self.inst.move_point(i, to)?;
        self.grid.remove(i as u32, &from);
        self.grid.insert(i as u32, &to);
        let mut row = std::mem::take(&mut self.row);
        row.clear();
        self.grid.for_each_within(
            self.inst.points(),
            &to,
            self.inst.radius(),
            self.inst.norm(),
            |j, d| row.push((j, d)),
        );
        row.sort_unstable_by_key(|&(j, _)| j);
        let mut old_row = std::mem::take(&mut self.old_row);
        let kernel = self.inst.kernel().prepared();
        patch_move(
            &mut self.csr,
            &self.inst,
            &kernel,
            i,
            &row,
            &mut old_row,
            &mut self.dead_padded,
            &mut self.dirty,
        );
        for &(j, _) in &row {
            self.dirty[j as usize] = true;
        }
        self.row = row;
        self.old_row = old_row;
        self.note_delta();
        Ok(())
    }

    /// Applies a batch of deltas in order, patching per delta. Stops
    /// at the first invalid delta (the instance and CSR stay
    /// consistent: everything before it is applied). Returns the
    /// number applied.
    pub fn apply_churn(&mut self, deltas: &[Delta<D>]) -> Result<usize> {
        for (applied, delta) in deltas.iter().enumerate() {
            let res = match *delta {
                Delta::Insert { point, weight } => self.insert_point(point, weight).map(|_| ()),
                Delta::Remove { index } => self.remove_point(index),
                Delta::Move { index, to } => self.move_point(index, to),
            };
            if let Err(e) = res {
                return Err(CoreError::InvalidInstance(format!(
                    "churn delta {applied}: {e}"
                )));
            }
        }
        Ok(deltas.len())
    }

    /// Bookkeeping after each applied delta: bumps the counters, drops
    /// the CSR's coordinate permutation (a copied-point lookup sorts it
    /// afresh) and its recorded root gains (a prime runs the root pass
    /// over the patched rows instead), and compacts when dead space
    /// calls for it.
    fn note_delta(&mut self) {
        self.churned += 1;
        self.version += 1;
        self.csr.by_coords.take();
        self.csr.root_sums.clear();
        self.maybe_rebuild();
    }

    /// Compacts via a full cold rebuild when more than half the
    /// physical entry arrays are dead holes. Restores the pristine
    /// spatial order.
    fn maybe_rebuild(&mut self) {
        let physical = self.csr.neighbors.len();
        if physical < REBUILD_MIN_ENTRIES || self.dead_padded * 2 <= physical {
            return;
        }
        self.rebuild();
    }

    /// Unconditional compaction rebuild (also the recovery path for
    /// tests).
    pub fn rebuild(&mut self) {
        let grid = cell_index(&self.inst);
        std::mem::replace(&mut self.csr, SparseCsr::empty()).recycle(&mut self.csr_scratch);
        self.csr = SparseCsr::build_with(&self.inst, &grid, &mut self.csr_scratch);
        self.csr.offsets.pop();
        self.dead_padded = 0;
        self.rebuilds += 1;
    }

    /// Re-solves after churn. Warm path: seed the residuals with the
    /// previous centers (O(degree) sparse applies), greedily refill
    /// any slots lost to removals, then swap-polish against the dirty
    /// candidate pool — each accepted swap strictly increases the
    /// objective (telescoping: `f(S − c + b) = f(S − c) + gain(b | S − c)`),
    /// so in exact arithmetic the polished objective can never regress
    /// below the seed. Cold fallback per [`ResolveConfig`]. The
    /// selection and per-round gains are left in `scratch` exactly like
    /// [`crate::batch::solve_rounds`].
    pub fn resolve(&mut self, scratch: &mut SolveScratch, cfg: &ResolveConfig) -> ResolveOutcome {
        let n = self.inst.n();
        let churn_frac = self.churned as f64 / n.max(1) as f64;
        let cold_reason = if cfg.force_cold {
            Some("forced")
        } else if self.prev_selection.is_empty() {
            Some("no seed selection")
        } else if churn_frac > cfg.churn_threshold {
            Some("churn over threshold")
        } else {
            None
        };
        // Transplant the patched CSR into an engine for the solve; it
        // is moved back before returning.
        let csr = std::mem::replace(&mut self.csr, SparseCsr::empty());
        let engine = RewardEngine::from_csr(&self.inst, csr);
        let evals0 = engine.evals();
        let mut outcome = ResolveOutcome {
            selection: Vec::new(),
            reward: 0.0,
            warm: cold_reason.is_none(),
            cold_reason,
            evals: 0,
            cancelled: false,
            churn_version: self.version,
            swaps: 0,
        };
        let mut oracle = GainOracle::from_engine(engine, OracleStrategy::Seq)
            .with_lazy_scratch(scratch.take_lazy());
        oracle.set_cancel(cfg.cancel.clone());
        if outcome.warm {
            let (reward, swaps, cancelled, regressed) =
                warm_solve(&oracle, &self.prev_selection, &self.dirty, cfg, scratch);
            outcome.swaps = swaps;
            outcome.cancelled = cancelled;
            if regressed {
                // The polish is monotone in exact arithmetic, but the
                // replayed total is a rounded sum in another order. A
                // total that rounds below the seed's recovers cold.
                outcome.warm = false;
                outcome.cold_reason = Some("polished objective regressed");
            } else {
                outcome.reward = reward;
            }
        }
        if !outcome.warm {
            let budget = match &cfg.cancel {
                Some(token) => SolveBudget::default().with_cancel(token.clone()),
                None => SolveBudget::default(),
            };
            let clock = budget.start();
            // The cold fallback runs dirty-CELF through the shared round
            // loop — bit-identical to a from-scratch CELF `LocalGreedy`.
            oracle.set_strategy(OracleStrategy::Lazy);
            let (total, reason) = solve_rounds_within(&oracle, scratch, &clock);
            outcome.reward = total;
            outcome.cancelled = matches!(reason, Some(DegradeReason::Cancelled));
        }
        outcome.selection = scratch.picks.clone();
        outcome.evals = {
            let engine_evals = oracle.evals();
            engine_evals - evals0
        };
        scratch.put_lazy(oracle.take_lazy_scratch());
        self.csr = oracle
            .into_engine()
            .take_csr()
            .expect("the transplanted engine is sparse");
        if !outcome.cancelled {
            self.prev_selection = outcome.selection.clone();
            self.dirty.iter_mut().for_each(|d| *d = false);
            self.churned = 0;
        }
        outcome
    }

    /// In-binary correctness anchor: checks the patched CSR against a
    /// cold rebuild of the current point set — per-candidate padded
    /// rows bitwise equal (neighbors, `frac`, `weight`, degree) and
    /// `order`/`slot_of` a consistent permutation. Used by the
    /// proptests and the `churn_floor` rounds.
    pub fn verify_against_rebuild(&self) -> std::result::Result<(), String> {
        verify_csr(&self.csr, &self.inst)
    }
}

#[cfg(test)]
impl<const D: usize> IncrementalInstance<D> {
    /// Runs `f` on an engine over the patched CSR, transplanted as
    /// [`Self::resolve`] does and moved back afterward.
    pub(crate) fn with_engine<R>(&mut self, f: impl FnOnce(&RewardEngine<'_, D>) -> R) -> R {
        let csr = std::mem::replace(&mut self.csr, SparseCsr::empty());
        let engine = RewardEngine::from_csr(&self.inst, csr);
        let out = f(&engine);
        self.csr = engine.take_csr().expect("sparse backend");
        out
    }
}

/// Best-effort cache warm-up for the rows a splice loop is about to
/// touch. Each patched delta edits ~degree scattered rows reached
/// through a three-deep pointer chase (`slot_of → offsets → row
/// arrays`), which makes the patch loops memory-latency bound on
/// instances whose CSR dwarfs the cache; issuing the chase for every
/// target row up front lets the line fills overlap the preceding
/// per-row work instead of serializing with it. Purely a hint — a
/// no-op off x86_64 — and never changes observable state.
#[inline]
fn prefetch_rows(csr: &SparseCsr, neighbors: impl Iterator<Item = u32>) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        for j in neighbors {
            let Some(&slot) = csr.slot_of.get(j as usize) else {
                continue;
            };
            let (Some(&start), Some(&deg)) = (
                csr.offsets.get(slot as usize),
                csr.degrees.get(slot as usize),
            ) else {
                continue;
            };
            let (start, len) = (start as usize, padded_len(deg as usize));
            if start + len > csr.neighbors.len() {
                continue;
            }
            // SAFETY: prefetch has no architectural effect; the
            // addresses are in-bounds offsets of live allocations.
            unsafe {
                let nb = csr.neighbors.as_ptr().add(start) as *const i8;
                for off in (0..len * 4).step_by(LINE) {
                    _mm_prefetch(nb.add(off), _MM_HINT_T0);
                }
                let span = len * std::mem::size_of::<f64>();
                let fr = csr.frac.as_ptr().add(start) as *const i8;
                let wt = csr.weight.as_ptr().add(start) as *const i8;
                for off in (0..span).step_by(LINE) {
                    _mm_prefetch(fr.add(off), _MM_HINT_T0);
                    _mm_prefetch(wt.add(off), _MM_HINT_T0);
                }
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (csr, neighbors);
    }
}

/// Appends `row` (sorted `(neighbor, dist)` pairs, self included) as
/// the new candidate `i`'s slot and splices an `i` entry into every
/// neighbor row. `i` is always the largest index, so neighbor-row
/// insertion lands after the last real entry.
fn patch_insert<const D: usize>(
    csr: &mut SparseCsr,
    inst: &Instance<D>,
    kernel: &PreparedKernel,
    i: usize,
    row: &[(u32, f64)],
    dead: &mut usize,
) {
    let r = inst.radius();
    let w_new = inst.weight(i);
    // Warm the neighbor rows while the new row is being appended (`i`
    // itself has no slot yet and is skipped by the bounds guard).
    prefetch_rows(csr, row.iter().map(|&(j, _)| j));
    let slot = csr.order.len();
    let start = csr.neighbors.len();
    // The new candidate's own row, zero-frac entries dropped.
    for &(j, d) in row {
        let f = kernel.frac(d, r);
        if f > 0.0 {
            csr.neighbors.push(j);
            csr.frac.push(f);
            csr.weight.push(inst.weight(j as usize));
        }
    }
    let deg = csr.neighbors.len() - start;
    debug_assert!(deg > 0, "a row always contains its own point at d = 0");
    pad_tail(csr, start);
    csr.offsets.push(start as u32);
    csr.degrees.push(deg as u32);
    csr.order.push(i as u32);
    csr.slot_of.push(slot as u32);
    csr.stats.entries += deg;
    // Splice the new point into each (other) neighbor's row.
    for &(j, d) in row {
        if j as usize == i {
            continue;
        }
        let f = kernel.frac(d, r);
        if f > 0.0 {
            insert_entry(csr, j as usize, i as u32, f, w_new, dead);
            csr.stats.entries += 1;
        }
    }
}

/// Removes candidate `rm`'s coverage and renumbers `last → rm`,
/// mirroring the instance's swap-remove. Phases: (A) drop `rm`'s
/// entry from every neighbor row and free `rm`'s own row; (A2)
/// reposition `last`'s entries under their new index (always the last
/// real entry of each containing row, since `last` is the max index);
/// (B) swap-remove the slot-axis metadata and fix `slot_of`.
fn patch_remove(csr: &mut SparseCsr, rm: usize, last: usize, dead: &mut usize, dirty: &mut [bool]) {
    // Phase A: rm's row is the exact set of rows containing rm.
    let rm_range = csr.real_row(rm);
    let rm_neighbors: Vec<u32> = csr.neighbors[rm_range].to_vec();
    prefetch_rows(csr, rm_neighbors.iter().copied());
    for &j in &rm_neighbors {
        dirty[j as usize] = true;
        if j as usize == rm {
            continue;
        }
        remove_entry(csr, j as usize, rm as u32, dead);
        csr.stats.entries -= 1;
    }
    let rm_slot = csr.slot_of[rm] as usize;
    let rm_deg = csr.degrees[rm_slot] as usize;
    *dead += padded_len(rm_deg);
    csr.stats.entries -= rm_deg;
    // Phase A2: renumber last → rm inside every row containing last.
    if last != rm {
        let last_range = csr.real_row(last);
        let last_neighbors: Vec<u32> = csr.neighbors[last_range].to_vec();
        prefetch_rows(csr, last_neighbors.iter().copied());
        for &j in &last_neighbors {
            rename_last_entry(csr, j as usize, last as u32, rm as u32);
        }
    }
    // Phase B: slot bookkeeping.
    let top_slot = csr.order.len() - 1;
    let moved = csr.order[top_slot] as usize;
    csr.order.swap_remove(rm_slot);
    csr.offsets.swap_remove(rm_slot);
    csr.degrees.swap_remove(rm_slot);
    if rm_slot != top_slot {
        csr.slot_of[moved] = rm_slot as u32;
    }
    if last != rm {
        let s = csr.slot_of[last];
        csr.order[s as usize] = rm as u32;
        csr.slot_of[rm] = s;
    }
    csr.slot_of.pop();
}

/// Re-rows candidate `m` after a coordinate change: diff the old CSR
/// row against the freshly enumerated `new_row` and patch neighbor
/// rows entry-wise; `m`'s own row is rewritten in place when the
/// padded span still fits, else relocated to the tail.
#[allow(clippy::too_many_arguments)]
fn patch_move<const D: usize>(
    csr: &mut SparseCsr,
    inst: &Instance<D>,
    kernel: &PreparedKernel,
    m: usize,
    new_row: &[(u32, f64)],
    old_row: &mut Vec<(u32, u64, u64)>,
    dead: &mut usize,
    dirty: &mut [bool],
) {
    let r = inst.radius();
    let w_m = inst.weight(m);
    // Snapshot m's old row (neighbor, frac bits, weight bits).
    old_row.clear();
    for idx in csr.real_row(m) {
        old_row.push((
            csr.neighbors[idx],
            csr.frac[idx].to_bits(),
            csr.weight[idx].to_bits(),
        ));
        dirty[csr.neighbors[idx] as usize] = true;
    }
    // Warm every row the diff below will splice (old ∪ new targets).
    prefetch_rows(
        csr,
        old_row
            .iter()
            .map(|&(j, _, _)| j)
            .chain(new_row.iter().map(|&(j, _)| j)),
    );
    // Two-pointer diff over the sorted old/new neighbor lists (new_row
    // is filtered to positive frac on the fly).
    let mut oi = 0;
    for &(j, d) in new_row {
        let f = kernel.frac(d, r);
        if f <= 0.0 {
            continue; // rim point: never stored (zero-frac drop path)
        }
        while oi < old_row.len() && old_row[oi].0 < j {
            let gone = old_row[oi].0;
            if gone as usize != m {
                remove_entry(csr, gone as usize, m as u32, dead);
                csr.stats.entries -= 1;
            }
            oi += 1;
        }
        if oi < old_row.len() && old_row[oi].0 == j {
            if j as usize != m {
                update_entry(csr, j as usize, m as u32, f);
            }
            oi += 1;
        } else if j as usize != m {
            insert_entry(csr, j as usize, m as u32, f, w_m, dead);
            csr.stats.entries += 1;
        }
    }
    while oi < old_row.len() {
        let gone = old_row[oi].0;
        if gone as usize != m {
            remove_entry(csr, gone as usize, m as u32, dead);
            csr.stats.entries -= 1;
        }
        oi += 1;
    }
    // Rewrite m's own row.
    let slot = csr.slot_of[m] as usize;
    let old_deg = csr.degrees[slot] as usize;
    let new_deg = new_row
        .iter()
        .filter(|&&(_, d)| kernel.frac(d, r) > 0.0)
        .count();
    debug_assert!(new_deg > 0, "a row always contains its own point at d = 0");
    let start = if padded_len(new_deg) <= padded_len(old_deg) {
        *dead += padded_len(old_deg) - padded_len(new_deg);
        csr.offsets[slot] as usize
    } else {
        *dead += padded_len(old_deg);
        let tail = csr.neighbors.len();
        csr.offsets[slot] = tail as u32;
        csr.neighbors.resize(tail + padded_len(new_deg), 0);
        csr.frac.resize(tail + padded_len(new_deg), 0.0);
        csr.weight.resize(tail + padded_len(new_deg), 0.0);
        tail
    };
    let mut at = start;
    for &(j, d) in new_row {
        let f = kernel.frac(d, r);
        if f > 0.0 {
            csr.neighbors[at] = j;
            csr.frac[at] = f;
            csr.weight[at] = inst.weight(j as usize);
            at += 1;
        }
    }
    csr.degrees[slot] = new_deg as u32;
    repad(csr, start, new_deg);
    csr.stats.entries = csr.stats.entries + new_deg - old_deg;
}

/// Pads a freshly appended tail row (starting at `start`, currently
/// ending at the array tail) out to the next lane boundary by
/// appending replicas of the last real neighbor with exact-zero
/// `frac`/`weight` (bit-transparent to the blocked kernel).
fn pad_tail(csr: &mut SparseCsr, start: usize) {
    let deg = csr.neighbors.len() - start;
    debug_assert!(deg > 0);
    let pad = csr.neighbors[csr.neighbors.len() - 1];
    let target = start + padded_len(deg);
    while csr.neighbors.len() < target {
        csr.neighbors.push(pad);
        csr.frac.push(0.0);
        csr.weight.push(0.0);
    }
}

/// Rewrites the padding of the row at `start` with `deg` real entries:
/// replicas of the (possibly changed) last real neighbor, zero
/// `frac`/`weight`.
fn repad(csr: &mut SparseCsr, start: usize, deg: usize) {
    debug_assert!(deg > 0);
    let pad = csr.neighbors[start + deg - 1];
    for t in start + deg..start + padded_len(deg) {
        csr.neighbors[t] = pad;
        csr.frac[t] = 0.0;
        csr.weight[t] = 0.0;
    }
}

/// Splices entry `(nb, frac, weight)` into row `j` at its sorted
/// position. Grows into the padding lane when one is free; otherwise
/// relocates the row to the tail (the old span becomes a dead hole).
fn insert_entry(csr: &mut SparseCsr, j: usize, nb: u32, frac: f64, weight: f64, dead: &mut usize) {
    let slot = csr.slot_of[j] as usize;
    let start = csr.offsets[slot] as usize;
    let deg = csr.degrees[slot] as usize;
    let pos = match csr.neighbors[start..start + deg].binary_search(&nb) {
        Ok(_) => {
            debug_assert!(false, "duplicate neighbor entry {nb} in row {j}");
            return;
        }
        Err(p) => p,
    };
    if padded_len(deg + 1) == padded_len(deg) {
        // Room in the current lane: shift the suffix right by one.
        csr.neighbors
            .copy_within(start + pos..start + deg, start + pos + 1);
        shift_right(&mut csr.frac, start + pos, deg - pos);
        shift_right(&mut csr.weight, start + pos, deg - pos);
        csr.neighbors[start + pos] = nb;
        csr.frac[start + pos] = frac;
        csr.weight[start + pos] = weight;
        csr.degrees[slot] = (deg + 1) as u32;
        repad(csr, start, deg + 1);
    } else {
        // Lane full: relocate the grown row to the tail.
        *dead += padded_len(deg);
        let tail = csr.neighbors.len();
        csr.neighbors.extend_from_within(start..start + pos);
        csr.frac.extend_from_within(start..start + pos);
        csr.weight.extend_from_within(start..start + pos);
        csr.neighbors.push(nb);
        csr.frac.push(frac);
        csr.weight.push(weight);
        csr.neighbors.extend_from_within(start + pos..start + deg);
        csr.frac.extend_from_within(start + pos..start + deg);
        csr.weight.extend_from_within(start + pos..start + deg);
        let new_deg = deg + 1;
        let target = tail + padded_len(new_deg);
        let pad = csr.neighbors[tail + new_deg - 1];
        while csr.neighbors.len() < target {
            csr.neighbors.push(pad);
            csr.frac.push(0.0);
            csr.weight.push(0.0);
        }
        csr.offsets[slot] = tail as u32;
        csr.degrees[slot] = new_deg as u32;
    }
}

/// Removes neighbor `nb` from row `j` (must exist): shift the suffix
/// left; a lane freed in place becomes dead space.
fn remove_entry(csr: &mut SparseCsr, j: usize, nb: u32, dead: &mut usize) {
    let slot = csr.slot_of[j] as usize;
    let start = csr.offsets[slot] as usize;
    let deg = csr.degrees[slot] as usize;
    let pos = csr.neighbors[start..start + deg]
        .binary_search(&nb)
        .expect("entry to remove is present (rows are symmetric)");
    csr.neighbors
        .copy_within(start + pos + 1..start + deg, start + pos);
    shift_left(&mut csr.frac, start + pos, deg - pos - 1);
    shift_left(&mut csr.weight, start + pos, deg - pos - 1);
    let new_deg = deg - 1;
    debug_assert!(new_deg > 0, "a row always retains its own point");
    csr.degrees[slot] = new_deg as u32;
    if padded_len(new_deg) < padded_len(deg) {
        *dead += SPARSE_LANES;
    }
    repad(csr, start, new_deg);
}

/// Updates the `frac` of the existing entry `nb` in row `j` (the
/// moved point stayed in coverage but its distance changed). The
/// stored weight is the covered point's and does not change.
fn update_entry(csr: &mut SparseCsr, j: usize, nb: u32, frac: f64) {
    let slot = csr.slot_of[j] as usize;
    let start = csr.offsets[slot] as usize;
    let deg = csr.degrees[slot] as usize;
    let pos = csr.neighbors[start..start + deg]
        .binary_search(&nb)
        .expect("entry to update is present");
    csr.frac[start + pos] = frac;
}

/// Renumbers the entry for `old_nb` (the instance's former last index
/// — necessarily the *last real entry* of any row containing it) to
/// `new_nb`, repositioning it to keep the row sorted. Degree and
/// stored bits are unchanged; padding replicas are rewritten since the
/// last real neighbor may have changed.
fn rename_last_entry(csr: &mut SparseCsr, j: usize, old_nb: u32, new_nb: u32) {
    let slot = csr.slot_of[j] as usize;
    let start = csr.offsets[slot] as usize;
    let deg = csr.degrees[slot] as usize;
    debug_assert_eq!(
        csr.neighbors[start + deg - 1],
        old_nb,
        "the max index is always a row's last real entry"
    );
    let f = csr.frac[start + deg - 1];
    let w = csr.weight[start + deg - 1];
    let pos = match csr.neighbors[start..start + deg - 1].binary_search(&new_nb) {
        Ok(_) => unreachable!("new index was removed from every row in phase A"),
        Err(p) => p,
    };
    csr.neighbors
        .copy_within(start + pos..start + deg - 1, start + pos + 1);
    shift_right(&mut csr.frac, start + pos, deg - 1 - pos);
    shift_right(&mut csr.weight, start + pos, deg - 1 - pos);
    csr.neighbors[start + pos] = new_nb;
    csr.frac[start + pos] = f;
    csr.weight[start + pos] = w;
    repad(csr, start, deg);
}

#[inline]
fn shift_right<S: Copy>(v: &mut [S], start: usize, len: usize) {
    v.copy_within(start..start + len, start + 1);
}

#[inline]
fn shift_left<S: Copy>(v: &mut [S], start: usize, len: usize) {
    v.copy_within(start + 1..start + 1 + len, start);
}

/// The warm solve: seed → refill → swap polish. Returns
/// `(reward, swaps, cancelled, regressed)`.
fn warm_solve<const D: usize>(
    oracle: &GainOracle<'_, D>,
    seed: &[usize],
    dirty: &[bool],
    cfg: &ResolveConfig,
    scratch: &mut SolveScratch,
) -> (f64, usize, bool, bool) {
    let engine = oracle.engine();
    let inst = oracle.instance();
    let (n, k) = (inst.n(), inst.k());
    let cancelled = || cfg.cancel.as_ref().is_some_and(|t| t.is_cancelled());
    scratch.picks.clear();
    scratch
        .picks
        .extend(seed.iter().copied().filter(|&s| s < n));
    // The polish pool: exactly the candidates whose rows intersect
    // the churned points (see the module docs' invalidation rule),
    // paired with CELF-style upper bounds. `gain(b | ∅)` only shrinks
    // as coverage grows (submodularity), so a scan in descending
    // root-gain order can stop at the first bound the swap in hand
    // already meets, instead of pricing every trial in the pool.
    // Bounds come from the engine's slot-ordered bulk root-gain pass
    // (sequential CSR streaming, no residual gather); the dense-engine
    // fallback prices them one `candidate_gain` at a time.
    let mut pool: Vec<(f64, usize)> = Vec::new();
    if !cancelled() && !engine.root_gains_into(dirty, &mut pool) {
        scratch.residuals.reset(n);
        pool.extend(
            dirty
                .iter()
                .enumerate()
                .filter_map(|(i, &d)| d.then_some(i))
                .map(|b| (engine.candidate_gain(b, &scratch.residuals), b)),
        );
    }
    fn by_bound(a: &(f64, usize), b: &(f64, usize)) -> std::cmp::Ordering {
        b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
    }
    // The pruned scan almost never looks past the first few dozen
    // bounds (the incumbent is a sitting center), so fully sorting a
    // pool that can span half the instance is wasted work: order just
    // a prefix now and sort the tail lazily iff a scan runs off the
    // end of the ordered region with its break condition still open.
    const SORT_PREFIX: usize = 4096;
    let mut sorted_upto = pool.len();
    if pool.len() > 2 * SORT_PREFIX {
        pool.select_nth_unstable_by(SORT_PREFIX - 1, by_bound);
        pool[..SORT_PREFIX].sort_unstable_by(by_bound);
        sorted_upto = SORT_PREFIX;
    } else {
        pool.sort_unstable_by(by_bound);
    }
    // Seed the residuals and objective.
    scratch.residuals.reset(n);
    let mut f_seed = 0.0;
    for &c in scratch.picks.iter() {
        f_seed += engine
            .apply_candidate(c, &mut scratch.residuals)
            .expect("incremental engines are sparse");
    }
    // Refill slots lost to removals with plain greedy rounds.
    while scratch.picks.len() < k && !cancelled() {
        let best = oracle.best_candidate(&scratch.residuals);
        if cancelled() {
            break;
        }
        let gain = engine
            .apply_candidate(best.index, &mut scratch.residuals)
            .expect("incremental engines are sparse");
        f_seed += gain;
        scratch.picks.push(best.index);
    }
    if cancelled() {
        finish_rounds(engine, scratch, n);
        return (round_total(scratch), 0, true, false);
    }
    let mut swaps = 0usize;
    let mut was_cancelled = false;
    if !pool.is_empty() {
        let mut selected = vec![false; n];
        for &c in scratch.picks.iter() {
            selected[c] = true;
        }
        // One polish pass: each center in turn is trialled against the
        // pool.
        'centers: for ci in 0..scratch.picks.len() {
            if cancelled() {
                was_cancelled = true;
                break;
            }
            let c = scratch.picks[ci];
            // Residual state of S − c.
            scratch.residuals.reset(n);
            for (cj, &other) in scratch.picks.iter().enumerate() {
                if cj != ci {
                    engine
                        .apply_candidate(other, &mut scratch.residuals)
                        .expect("incremental engines are sparse");
                }
            }
            // The swap in hand starts as "keep c"; a pool candidate
            // replaces it only on a strict improvement, so the pruned
            // scan stops once the sorted bounds cannot strictly beat
            // the best gain so far.
            let incumbent = engine.candidate_gain(c, &scratch.residuals);
            let mut best_gain = incumbent;
            let mut best_b = None;
            let mut trial = 0usize;
            while trial < pool.len() {
                if trial == sorted_upto {
                    // Ran off the sorted prefix with the break still
                    // open: order the tail (once) so the
                    // descending-bound early exit stays exact.
                    pool[sorted_upto..].sort_unstable_by(by_bound);
                    sorted_upto = pool.len();
                }
                let (ub, b) = pool[trial];
                trial += 1;
                if ub <= best_gain {
                    break;
                }
                if selected[b] {
                    continue;
                }
                if trial.is_multiple_of(256) && cancelled() {
                    // Discard the half-scanned trial.
                    was_cancelled = true;
                    break 'centers;
                }
                let gain = engine.candidate_gain(b, &scratch.residuals);
                if gain > best_gain {
                    best_gain = gain;
                    best_b = Some(b);
                }
            }
            if let Some(b) = best_b {
                selected[c] = false;
                selected[b] = true;
                scratch.picks[ci] = b;
                swaps += 1;
            }
        }
    }
    // Final committed state: replay the selection for the telescoped
    // reward and the per-round gains (also repairs residuals after the
    // polish trials).
    finish_rounds(engine, scratch, n);
    let f_final = round_total(scratch);
    let regressed = f_final < f_seed && swaps > 0;
    (f_final, swaps, was_cancelled, regressed)
}

/// Replays `scratch.picks` from fresh residuals, filling
/// `scratch.round_gains`.
fn finish_rounds<const D: usize>(
    engine: &RewardEngine<'_, D>,
    scratch: &mut SolveScratch,
    n: usize,
) {
    scratch.residuals.reset(n);
    scratch.round_gains.clear();
    for i in 0..scratch.picks.len() {
        let c = scratch.picks[i];
        let g = engine
            .apply_candidate(c, &mut scratch.residuals)
            .expect("incremental engines are sparse");
        scratch.round_gains.push(g);
    }
}

fn round_total(scratch: &SolveScratch) -> f64 {
    scratch.round_gains.iter().sum()
}

/// Bitwise comparison of a patched CSR against a cold rebuild (see
/// [`IncrementalInstance::verify_against_rebuild`]).
fn verify_csr<const D: usize>(
    patched: &SparseCsr,
    inst: &Instance<D>,
) -> std::result::Result<(), String> {
    let n = inst.n();
    if patched.order.len() != n || patched.slot_of.len() != n {
        return Err(format!(
            "slot arrays out of sync: order {} slot_of {} n {n}",
            patched.order.len(),
            patched.slot_of.len()
        ));
    }
    // order/slot_of must be mutually inverse permutations.
    for i in 0..n {
        let slot = patched.slot_of[i] as usize;
        if slot >= n || patched.order[slot] as usize != i {
            return Err(format!("slot_of/order mismatch at candidate {i}"));
        }
    }
    let cold = SparseCsr::build(inst, &cell_index(inst));
    for i in 0..n {
        let p_range = patched.padded_row(i);
        let c_range = cold.padded_row(i);
        let (p_deg, c_deg) = (
            patched.degrees[patched.slot_of[i] as usize],
            cold.degrees[cold.slot_of[i] as usize],
        );
        if p_deg != c_deg {
            return Err(format!("candidate {i}: degree {p_deg} != rebuilt {c_deg}"));
        }
        if p_range.len() != c_range.len() {
            return Err(format!(
                "candidate {i}: padded length {} != rebuilt {}",
                p_range.len(),
                c_range.len()
            ));
        }
        for (off, (pi, ci)) in p_range.zip(c_range).enumerate() {
            if patched.neighbors[pi] != cold.neighbors[ci] {
                return Err(format!(
                    "candidate {i} entry {off}: neighbor {} != rebuilt {}",
                    patched.neighbors[pi], cold.neighbors[ci]
                ));
            }
            if patched.frac[pi].to_bits() != cold.frac[ci].to_bits() {
                return Err(format!(
                    "candidate {i} entry {off}: frac bits {:#x} != rebuilt {:#x}",
                    patched.frac[pi].to_bits(),
                    cold.frac[ci].to_bits()
                ));
            }
            if patched.weight[pi].to_bits() != cold.weight[ci].to_bits() {
                return Err(format!(
                    "candidate {i} entry {off}: weight bits {:#x} != rebuilt {:#x}",
                    patched.weight[pi].to_bits(),
                    cold.weight[ci].to_bits()
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::reward::Residuals;
    use crate::solver::Solver;
    use crate::solvers::LocalGreedy;

    /// The from-scratch CELF reference the cold path must equal.
    fn celf() -> LocalGreedy {
        LocalGreedy::new().with_oracle(crate::oracle::OracleStrategy::Lazy)
    }

    fn grid_instance(side: usize, r: f64, k: usize) -> Instance<2> {
        let mut b = InstanceBuilder::new();
        for y in 0..side {
            for x in 0..side {
                b = b.point(
                    [x as f64 + 0.13 * y as f64, y as f64],
                    1.0 + (x * side + y) as f64 * 0.1,
                );
            }
        }
        b.radius(r).k(k).build().unwrap()
    }

    fn incr(side: usize, r: f64, k: usize, kind: EngineKind) -> IncrementalInstance<2> {
        IncrementalInstance::new(grid_instance(side, r, k), kind).unwrap()
    }

    #[test]
    fn fresh_build_matches_rebuild() {
        let inc = incr(6, 1.7, 3, EngineKind::Sparse);
        inc.verify_against_rebuild().unwrap();
    }

    #[test]
    fn insert_patches_to_rebuild_equality() {
        let mut inc = incr(6, 1.7, 3, EngineKind::Sparse);
        inc.insert_point(Point::new([2.5, 2.5]), 4.0).unwrap();
        inc.verify_against_rebuild().unwrap();
        inc.insert_point(Point::new([-3.0, -3.0]), 1.0).unwrap(); // isolated
        inc.verify_against_rebuild().unwrap();
    }

    #[test]
    fn remove_patches_to_rebuild_equality() {
        let mut inc = incr(6, 1.7, 3, EngineKind::Sparse);
        inc.remove_point(7).unwrap(); // interior: renumbers the last index
        inc.verify_against_rebuild().unwrap();
        let n = inc.instance().n();
        inc.remove_point(n - 1).unwrap(); // last index: no renumbering
        inc.verify_against_rebuild().unwrap();
    }

    #[test]
    fn move_patches_to_rebuild_equality() {
        let mut inc = incr(6, 1.7, 3, EngineKind::Sparse);
        // Small wiggle (row shape mostly unchanged).
        inc.move_point(14, Point::new([2.1, 2.3])).unwrap();
        inc.verify_against_rebuild().unwrap();
        // Large jump (row replaced wholesale).
        inc.move_point(0, Point::new([5.5, 5.5])).unwrap();
        inc.verify_against_rebuild().unwrap();
        // Jump out of everyone's range (degree collapses to 1).
        inc.move_point(3, Point::new([40.0, 40.0])).unwrap();
        inc.verify_against_rebuild().unwrap();
    }

    #[test]
    fn mixed_churn_sequence_stays_equal() {
        let mut inc = incr(5, 1.3, 3, EngineKind::Sparse);
        let deltas = vec![
            Delta::Insert {
                point: Point::new([1.5, 1.5]),
                weight: 2.0,
            },
            Delta::Remove { index: 2 },
            Delta::Move {
                index: 4,
                to: Point::new([0.2, 3.9]),
            },
            Delta::Insert {
                point: Point::new([1.5, 1.5]),
                weight: 1.0,
            }, // duplicate coordinate
            Delta::Remove { index: 0 },
        ];
        assert_eq!(inc.apply_churn(&deltas).unwrap(), deltas.len());
        inc.verify_against_rebuild().unwrap();
        assert_eq!(inc.churn_version(), deltas.len() as u64);
    }

    #[test]
    fn warm_resolve_matches_cold_reward_on_light_churn() {
        let mut inc = incr(8, 1.6, 4, EngineKind::Sparse);
        let mut scratch = SolveScratch::new();
        // First resolve: no seed, must go cold.
        let first = inc.resolve(&mut scratch, &ResolveConfig::default());
        assert!(!first.warm);
        assert_eq!(first.cold_reason, Some("no seed selection"));
        // Cold path equals the plain CELF solver bit for bit.
        let reference = celf().solve(inc.instance()).unwrap();
        assert_eq!(first.reward.to_bits(), reference.total_reward.to_bits());
        // Light churn, warm resolve: objective must not regress below
        // the cold greedy of the mutated instance.
        inc.move_point(11, Point::new([3.3, 1.9])).unwrap();
        let cfg = ResolveConfig {
            churn_threshold: 1.0,
            ..ResolveConfig::default()
        };
        let warm = inc.resolve(&mut scratch, &cfg);
        assert!(warm.warm);
        let cold_ref = celf().solve(inc.instance()).unwrap();
        assert!(
            warm.reward >= cold_ref.total_reward - 1e-9,
            "warm {} < cold {}",
            warm.reward,
            cold_ref.total_reward
        );
    }

    #[test]
    fn heavy_churn_falls_back_to_cold() {
        let mut inc = incr(5, 1.3, 3, EngineKind::Sparse);
        let mut scratch = SolveScratch::new();
        inc.resolve(&mut scratch, &ResolveConfig::default());
        for i in 0..5 {
            inc.move_point(i, Point::new([i as f64 * 0.3, 2.0]))
                .unwrap();
        }
        let out = inc.resolve(&mut scratch, &ResolveConfig::default());
        assert!(!out.warm);
        assert_eq!(out.cold_reason, Some("churn over threshold"));
        let reference = celf().solve(inc.instance()).unwrap();
        assert_eq!(out.reward.to_bits(), reference.total_reward.to_bits());
    }

    #[test]
    fn resolve_clears_dirty_and_reseeds() {
        let mut inc = incr(5, 1.3, 2, EngineKind::Sparse);
        let mut scratch = SolveScratch::new();
        inc.resolve(&mut scratch, &ResolveConfig::default());
        let seeded = inc.selection().to_vec();
        assert_eq!(seeded.len(), 2);
        inc.insert_point(Point::new([2.0, 2.0]), 3.0).unwrap();
        assert_eq!(inc.churned_since_resolve(), 1);
        let cfg = ResolveConfig {
            churn_threshold: 1.0,
            ..ResolveConfig::default()
        };
        let out = inc.resolve(&mut scratch, &cfg);
        assert!(out.warm);
        assert_eq!(inc.churned_since_resolve(), 0);
        assert_eq!(inc.selection(), &out.selection[..]);
    }

    #[test]
    fn removal_remaps_previous_selection() {
        let mut inc = incr(4, 1.2, 3, EngineKind::Sparse);
        let mut scratch = SolveScratch::new();
        inc.resolve(&mut scratch, &ResolveConfig::default());
        let before = inc.selection().to_vec();
        let last = inc.instance().n() - 1;
        // Remove a selected center: it must vanish from the seed.
        let victim = before[0];
        inc.remove_point(victim).unwrap();
        assert!(!inc.selection().contains(&victim) || victim == last || before.contains(&last));
        for &s in inc.selection() {
            assert!(s < inc.instance().n());
        }
        inc.verify_against_rebuild().unwrap();
    }

    #[test]
    fn cancelled_resolve_keeps_churn_pending() {
        let mut inc = incr(5, 1.3, 2, EngineKind::Sparse);
        let mut scratch = SolveScratch::new();
        inc.resolve(&mut scratch, &ResolveConfig::default());
        inc.insert_point(Point::new([1.0, 1.0]), 2.0).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let cfg = ResolveConfig {
            churn_threshold: 1.0,
            cancel: Some(token),
            ..ResolveConfig::default()
        };
        let out = inc.resolve(&mut scratch, &cfg);
        assert!(out.cancelled);
        // Dirty state survives a cancelled resolve...
        assert_eq!(inc.churned_since_resolve(), 1);
        // ...and a clean resolve afterwards completes normally.
        let cfg2 = ResolveConfig {
            churn_threshold: 1.0,
            ..ResolveConfig::default()
        };
        let out2 = inc.resolve(&mut scratch, &cfg2);
        assert!(!out2.cancelled);
        assert_eq!(inc.churned_since_resolve(), 0);
    }

    /// Copied-point lookups on a churned CSR: after inserts, removes
    /// and moves (a bit-equal duplicate among them) and the compaction
    /// rebuild that the stranded lanes force, and again after more
    /// churn, every live point's copy prices as its own row — the bits
    /// of its `candidate_gain` for one eval. Each delta drops the
    /// permutation; the lookup sorts it.
    #[test]
    fn copied_point_gains_match_rows_after_churn() {
        let check = |inc: &mut IncrementalInstance<2>| {
            assert!(inc.csr.by_coords.get().is_none(), "churn drops it");
            inc.with_engine(|engine| {
                let inst = engine.instance();
                let mut residuals = Residuals::new(inst.n());
                engine.apply_candidate(4, &mut residuals).unwrap();
                for i in 0..inst.n() {
                    let copy = *inst.point(i);
                    let before = engine.evals();
                    let got = engine.gain(&copy, &residuals);
                    assert_eq!(engine.evals(), before + 1, "point {i}: one eval");
                    let want = engine.candidate_gain(i, &residuals);
                    assert_eq!(got.to_bits(), want.to_bits(), "point {i}");
                }
            });
            assert!(inc.csr.by_coords.get().is_some(), "the lookup sorts it");
            inc.verify_against_rebuild().unwrap();
        };
        let mut inc = incr(6, 1.7, 3, EngineKind::Sparse);
        let churn = |at: f64| {
            vec![
                Delta::Insert {
                    point: Point::new([at, 0.55]),
                    weight: 2.0,
                },
                Delta::Move {
                    index: 3,
                    to: Point::new([2.2, at]),
                },
                Delta::Remove { index: 1 },
                Delta::Insert {
                    point: Point::new([at, 0.55]),
                    weight: 1.0,
                },
            ]
        };
        inc.apply_churn(&churn(0.55)).unwrap();
        // Hammer one point back and forth until the stranded lanes
        // force a compaction.
        for step in 0.. {
            assert!(step < 5000, "no compaction after {step} moves");
            let t = (step % 7) as f64;
            inc.move_point(10, Point::new([t, 0.5 * t])).unwrap();
            if inc.rebuilds() > 0 {
                break;
            }
        }
        check(&mut inc);
        inc.apply_churn(&churn(3.05)).unwrap();
        check(&mut inc);
    }

    #[test]
    fn non_sparse_kind_is_rejected() {
        let inst = grid_instance(3, 1.0, 1);
        let Err(CoreError::InvalidConfig(msg)) = IncrementalInstance::new(inst, EngineKind::Scan)
        else {
            panic!("scan must be refused");
        };
        assert!(msg.contains("(auto or sparse)"), "{msg}");
    }
}
