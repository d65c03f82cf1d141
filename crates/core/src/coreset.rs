//! Weighted coreset reduction for very large instances.
//!
//! The sparse engine tops out where one blocked CSR fits the auto-cap
//! (roughly n = 10⁶ at paper densities). Past that point the coverage
//! objective still has tiny *weighted coresets* (Backurs & Har-Peled,
//! "Submodular Clustering in Low Dimensions"): snap every point to a
//! grid of cell side `r / c`, keep one representative per occupied
//! cell — the weighted centroid, carrying the cell's summed weight —
//! and solve on the representatives. Weights are first-class in
//! [`Instance`], so the engines, oracle, and every solver are reused
//! unchanged on the reduced instance.
//!
//! At paper density the reduction is modest (10⁷ points to ~6.4M
//! representatives at 4 cells per radius), so the reduced CSR busts the
//! cap too. The reduced solve then runs on the CSR-free grid engine
//! ([`EngineKind::Grid`]): O(n) memory, one parallel cell sweep for the
//! root gains, and every gain and commit bit-identical to the dense
//! scan. Bucketing is one sort of `(cell key, point index)` and a
//! run-length pass, so each cell sums its points in input order.
//!
//! Why this is sound: moving a point by `disp ≤ cell·√D/2` changes its
//! kernel fraction against any center by at most `disp / r`, so for a
//! `k`-center selection the objective moves by at most
//! `Σᵢ wᵢ · min(1, k·dispᵢ/r)` — an additive bound that shrinks
//! linearly in the cell size. The weighted centroid does better than
//! the bound suggests: the kernel is linear in distance, so the
//! first-order displacement error *cancels within each cell* and only
//! the second-order spread survives. [`solve_coreset`] does not stop at
//! the a-priori bound: it re-scores the returned centers against the
//! full-resolution point set in a streaming pass and reports the
//! realized gap.

use std::time::Instant;

use mmph_geom::Point;
use rayon::prelude::*;

use crate::batch::{recycle, solve_rounds_within};
use crate::budget::{DegradeReason, SolveBudget};
use crate::instance::Instance;
use crate::oracle::{GainOracle, OracleStrategy};
use crate::reward::{min_sparse_bytes, EngineKind, RewardEngine, DEFAULT_SPARSE_CAP_BYTES};
use crate::scratch::SolveScratch;
use crate::{CoreError, Result};

/// Default grid resolution: cells per interest radius. Cell side
/// `r / 4` keeps the worst-case per-point displacement under
/// `r·√2/8 ≈ 0.18 r` in 2-D while shrinking paper-density instances
/// by the ratio of point spacing to `r / 4`.
pub const DEFAULT_CORESET_CELLS: f64 = 4.0;

/// Chunk width of the streaming full-resolution objective pass. The
/// pass reduces per-chunk partial sums in chunk order, so the result
/// is bit-identical for any thread count.
const OBJECTIVE_CHUNK: usize = 1 << 16;

/// Configuration for [`solve_coreset`].
#[derive(Debug, Clone)]
pub struct CoresetConfig {
    /// Grid resolution: number of cells per interest radius (cell side
    /// = `r / cells_per_radius`). Finer grids mean larger coresets and
    /// smaller gaps.
    pub cells_per_radius: f64,
    /// Engine kind for the coreset solve. `Auto` (default) picks the
    /// capped sparse engine, or the grid engine past the cap.
    pub engine: EngineKind,
    /// Oracle strategy for the coreset solve.
    pub strategy: OracleStrategy,
    /// Budget for the coreset solve (deadline / evals / cancellation).
    pub budget: SolveBudget,
    /// Sparse-CSR byte cap for the coreset engine's auto selection.
    pub cap_bytes: usize,
}

impl Default for CoresetConfig {
    fn default() -> Self {
        CoresetConfig {
            cells_per_radius: DEFAULT_CORESET_CELLS,
            engine: EngineKind::Auto,
            strategy: OracleStrategy::Lazy,
            budget: SolveBudget::unlimited(),
            cap_bytes: DEFAULT_SPARSE_CAP_BYTES,
        }
    }
}

/// A grid-cell coreset: the reduced instance plus its error accounting.
#[derive(Debug, Clone)]
pub struct Coreset<const D: usize> {
    /// The reduced instance: one weighted-centroid representative per
    /// occupied cell, weight = the cell's summed weight, same
    /// `r`/`k`/norm/kernel as the source.
    pub instance: Instance<D>,
    /// Grid cell side (`r / cells_per_radius`).
    pub cell: f64,
    /// `Σᵢ wᵢ · dist(xᵢ, rep(cell(xᵢ)))` — total weighted displacement.
    pub weighted_displacement: f64,
    /// A-priori additive error bound for any `k`-center selection:
    /// `Σᵢ wᵢ · min(1, k·dispᵢ/r)`.
    pub error_bound: f64,
}

/// Builds the grid-cell coreset of `inst` with cell side
/// `r / cells_per_radius`. Representatives are emitted in sorted cell
/// order, so the construction is deterministic.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] when `cells_per_radius` is not finite
/// and positive.
pub fn build_coreset<const D: usize>(
    inst: &Instance<D>,
    cells_per_radius: f64,
) -> Result<Coreset<D>> {
    if !cells_per_radius.is_finite() || cells_per_radius <= 0.0 {
        return Err(CoreError::InvalidConfig(format!(
            "coreset cells per radius must be finite and positive, got {cells_per_radius}"
        )));
    }
    let cell = inst.radius() / cells_per_radius;
    let points = inst.points();
    let weights = inst.weights();

    // Bucket with one sort of (cell key, point index): each occupied
    // cell becomes a run in ascending key order, its points in
    // ascending index, so every cell sums its points in input order.
    let mut keyed: Vec<([i64; D], u32)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let key = std::array::from_fn(|d| (p[d] / cell).floor() as i64);
            (
                key,
                u32::try_from(i).expect("coreset input beyond u32 indices"),
            )
        })
        .collect();
    sort_in_parts(&mut keyed);
    let mut reps = Vec::new();
    let mut rep_weights = Vec::new();
    let mut rep_of = vec![0u32; points.len()];
    for run in keyed.chunk_by(|a, b| a.0 == b.0) {
        let (mut weight, mut sum) = (0.0, [0.0; D]);
        for &(_, i) in run {
            let (p, w) = (&points[i as usize], weights[i as usize]);
            weight += w;
            for d in 0..D {
                sum[d] += w * p[d];
            }
            rep_of[i as usize] = reps.len() as u32;
        }
        reps.push(Point(std::array::from_fn(|d| sum[d] / weight)));
        rep_weights.push(weight);
    }
    drop(keyed);

    // Second pass: realized displacement of every point to its cell's
    // representative, which the a-priori gap bound is built from.
    let norm = inst.norm();
    let r = inst.radius();
    let kf = inst.k() as f64;
    let mut weighted_displacement = 0.0;
    let mut error_bound = 0.0;
    for ((p, &w), &rep) in points.iter().zip(weights).zip(&rep_of) {
        let disp = norm.dist(p, &reps[rep as usize]);
        weighted_displacement += w * disp;
        error_bound += w * (kf * disp / r).min(1.0);
    }

    let instance =
        Instance::new(reps, rep_weights, r, inst.k(), norm)?.with_kernel(inst.kernel())?;
    Ok(Coreset {
        instance,
        cell,
        weighted_displacement,
        error_bound,
    })
}

/// Report of one coreset-path solve: the reduced problem's size, the
/// selection, both objectives, and the realized gap.
#[derive(Debug, Clone)]
pub struct CoresetReport<const D: usize> {
    /// `n` of the source instance.
    pub full_n: usize,
    /// Number of coreset representatives actually solved on.
    pub coreset_n: usize,
    /// Grid cell side used.
    pub cell: f64,
    /// Grid resolution (cells per radius) used.
    pub cells_per_radius: f64,
    /// Selected representative indices (into the coreset instance).
    pub selection: Vec<usize>,
    /// Selected centers (representative coordinates).
    pub centers: Vec<Point<D>>,
    /// Objective of the selection on the coreset (`f_cs(C)`).
    pub coreset_objective: f64,
    /// Objective of the same centers on the full point set (`f(C)`),
    /// from the streaming full-resolution pass.
    pub full_objective: f64,
    /// Realized relative gap `|f_cs(C) − f(C)| / f_cs(C)`.
    pub gap: f64,
    /// A-priori additive error bound from the coreset construction.
    pub error_bound: f64,
    /// `Some` when the budget tripped mid-solve; the selection is the
    /// committed prefix.
    pub degraded: Option<DegradeReason>,
    /// Engine backend the coreset solve actually used (`Grid` when the
    /// reduction's CSR busts the cap).
    pub engine: EngineKind,
    /// Oracle evaluations spent by the coreset solve.
    pub evals: u64,
    /// Coreset construction time.
    pub build_ms: f64,
    /// Greedy solve time on the coreset.
    pub solve_ms: f64,
    /// Streaming full-resolution objective time.
    pub eval_ms: f64,
}

/// Solves `inst` through the coreset path: reduce, greedy-solve the
/// reduction (with `auto`, on the sparse engine while its CSR fits
/// `cfg.cap_bytes`, else on the CSR-free grid engine), then re-score
/// the chosen centers against the full point set and report the
/// realized gap.
pub fn solve_coreset<const D: usize>(
    inst: &Instance<D>,
    cfg: &CoresetConfig,
) -> Result<CoresetReport<D>> {
    let t0 = Instant::now();
    let coreset = build_coreset(inst, cfg.cells_per_radius)?;
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let engine = match cfg.engine {
        EngineKind::Auto => {
            RewardEngine::auto_with_cap_kind(&coreset.instance, cfg.cap_bytes, EngineKind::Sparse)
        }
        kind => RewardEngine::with_kind(&coreset.instance, kind),
    };
    let kind = engine.kind();
    let mut oracle = GainOracle::from_engine(engine, cfg.strategy);
    if let Some(token) = cfg.budget.cancel_token() {
        oracle.set_cancel(Some(token.clone()));
    }
    let mut scratch = SolveScratch::with_capacity(coreset.instance.n(), coreset.instance.k());
    let clock = cfg.budget.start();
    let (coreset_objective, degraded) = solve_rounds_within(&oracle, &mut scratch, &clock);
    let selection = scratch.picks().to_vec();
    let centers: Vec<Point<D>> = selection
        .iter()
        .map(|&i| *coreset.instance.point(i))
        .collect();
    let evals = oracle.evals();
    recycle(oracle, &mut scratch);
    let solve_ms = t1.elapsed().as_secs_f64() * 1e3;

    let t2 = Instant::now();
    let full_objective = streaming_objective(inst, &centers);
    let eval_ms = t2.elapsed().as_secs_f64() * 1e3;
    let gap = (coreset_objective - full_objective).abs() / coreset_objective.max(1e-12);

    Ok(CoresetReport {
        full_n: inst.n(),
        coreset_n: coreset.instance.n(),
        cell: coreset.cell,
        cells_per_radius: cfg.cells_per_radius,
        selection,
        centers,
        coreset_objective,
        full_objective,
        gap,
        error_bound: coreset.error_bound,
        degraded,
        engine: kind,
        evals,
        build_ms,
        solve_ms,
        eval_ms,
    })
}

/// Sorts `items`, whose elements are all distinct, on the rayon pool:
/// each thread sorts a contiguous part, then one stable sort merges the
/// sorted parts, which it finds as runs. With no equal elements there
/// is nothing to arbitrate, so the result is the one sorted order.
fn sort_in_parts<T: Ord + Send>(items: &mut [T]) {
    let parts = rayon::current_num_threads();
    // Below ~65k elements the split does not pay for its threads.
    if parts == 1 || items.len() < 1 << 16 {
        items.sort_unstable();
        return;
    }
    let chunks: Vec<&mut [T]> = items.chunks_mut(items.len().div_ceil(parts)).collect();
    chunks.into_par_iter().for_each(|c| c.sort_unstable());
    items.sort();
}

/// Full-resolution objective `f(C) = Σᵢ wᵢ·min(1, Σ_c frac(d(c, xᵢ)))`
/// of an arbitrary center set, evaluated in a streaming pass over the
/// point set without building any index. Work is split into fixed
/// chunks scored in parallel; the partial sums are reduced in chunk
/// order, so the result is deterministic for any thread count.
pub fn streaming_objective<const D: usize>(inst: &Instance<D>, centers: &[Point<D>]) -> f64 {
    if centers.is_empty() {
        return 0.0;
    }
    let n = inst.n();
    let points = inst.points();
    let weights = inst.weights();
    let norm = inst.norm();
    let r = inst.radius();
    let kernel = inst.kernel().prepared();
    let chunks = n.div_ceil(OBJECTIVE_CHUNK);
    let partials: Vec<f64> = (0..chunks)
        .into_par_iter()
        .map(|ci| {
            let lo = ci * OBJECTIVE_CHUNK;
            let hi = (lo + OBJECTIVE_CHUNK).min(n);
            let mut acc = 0.0;
            for i in lo..hi {
                let p = &points[i];
                let mut covered = 0.0;
                for c in centers {
                    covered += kernel.frac(norm.dist(p, c), r);
                    if covered >= 1.0 {
                        break;
                    }
                }
                acc += weights[i] * covered.min(1.0);
            }
            acc
        })
        .collect();
    partials.iter().sum()
}

/// How the pipeline should run a solve of this instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalePlan {
    /// The instance fits the engine cap: solve directly.
    Direct,
    /// The estimated CSR footprint busts the cap (or the `u32` entry
    /// budget): escalate to the coreset path, whose reduced solve runs
    /// on the CSR-free grid engine when its own CSR would bust the cap
    /// too, instead of solving all `n` points without a CSR.
    Coreset,
}

/// Decides whether an `Auto`-engine solve should escalate to the
/// coreset path. Mirrors [`RewardEngine::auto_with_cap_kind`]'s
/// fallback condition exactly: `Direct` means auto selection will use
/// the in-cap sparse engine, `Coreset` means it would have fallen back
/// to a CSR-free backend. Explicit engine kinds never escalate — the
/// caller asked for that backend by name.
pub fn plan_scale<const D: usize>(
    inst: &Instance<D>,
    kind: EngineKind,
    cap_bytes: usize,
) -> ScalePlan {
    if !matches!(kind, EngineKind::Auto) {
        return ScalePlan::Direct;
    }
    // 20 bytes per f64 CSR entry: u32 neighbor + f64 frac + f64 weight.
    const PER_ENTRY: usize = 4 + 2 * 8;
    let busts = |est: usize| est > cap_bytes || est / PER_ENTRY >= u32::MAX as usize;
    // No estimate reads below the degree-1 floor, so when even that
    // busts the cap the answer needs no grid build (1.1 s at n = 10⁷).
    if busts(min_sparse_bytes(inst.n())) {
        return ScalePlan::Coreset;
    }
    match RewardEngine::estimated_sparse_bytes(inst, EngineKind::Sparse) {
        Some(est) if busts(est) => ScalePlan::Coreset,
        _ => ScalePlan::Direct,
    }
}

/// The solve pipeline a request runs through. The CLI, `mmph batch`
/// and the service all pick it the same way: [`Pipeline::requested`]
/// checks the caller's knobs before any instance exists, then
/// [`Pipeline::for_instance`] applies the auto-escalation past the cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pipeline {
    /// One solve of the full instance.
    Direct,
    /// Weighted grid coreset at this many cells per radius
    /// ([`solve_coreset`]).
    Coreset(f64),
    /// Shard-then-merge over this many spatial shards
    /// ([`crate::solve_sharded`]).
    Shard(usize),
}

impl Pipeline {
    /// The pipeline the caller named: `coreset_cells` picks the coreset
    /// path, `shards` the shard path, neither the direct path. Naming
    /// both, a non-positive or non-finite cell count, or zero shards is
    /// an error.
    pub fn requested(coreset_cells: Option<f64>, shards: Option<usize>) -> Result<Self> {
        if let Some(c) = coreset_cells.filter(|c| !c.is_finite() || *c <= 0.0) {
            return Err(CoreError::InvalidConfig(format!(
                "coreset cells per radius must be finite and positive, got {c}"
            )));
        }
        if shards == Some(0) {
            return Err(CoreError::InvalidConfig(
                "a shard pipeline needs at least one shard".into(),
            ));
        }
        match (coreset_cells, shards) {
            (Some(_), Some(_)) => Err(CoreError::InvalidConfig(
                "a coreset and a shard pipeline are mutually exclusive; pick one pipeline".into(),
            )),
            (Some(cells), None) => Ok(Pipeline::Coreset(cells)),
            (None, Some(shards)) => Ok(Pipeline::Shard(shards)),
            (None, None) => Ok(Pipeline::Direct),
        }
    }

    /// The pipeline to run on `inst`. A named pipeline stands; a direct
    /// solve whose engine resolves through [`plan_scale`] to
    /// [`ScalePlan::Coreset`] escalates to the coreset path at
    /// [`DEFAULT_CORESET_CELLS`].
    pub fn for_instance<const D: usize>(
        self,
        inst: &Instance<D>,
        engine: EngineKind,
        cap_bytes: usize,
    ) -> Self {
        match self {
            Pipeline::Direct if plan_scale(inst, engine, cap_bytes) == ScalePlan::Coreset => {
                Pipeline::Coreset(DEFAULT_CORESET_CELLS)
            }
            named => named,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmph_geom::Norm;

    fn grid_instance(side: usize, r: f64, k: usize) -> Instance<2> {
        let mut points = Vec::new();
        let mut weights = Vec::new();
        for i in 0..side {
            for j in 0..side {
                points.push(Point([i as f64, j as f64]));
                weights.push(1.0 + ((i * side + j) % 5) as f64);
            }
        }
        Instance::new(points, weights, r, k, Norm::L2).unwrap()
    }

    #[test]
    fn fine_cells_keep_every_point() {
        let inst = grid_instance(6, 1.5, 3);
        // Cell side r/8 < 1 (the point spacing): every point is its own cell.
        let cs = build_coreset(&inst, 8.0).unwrap();
        assert_eq!(cs.instance.n(), inst.n());
        assert_eq!(cs.weighted_displacement, 0.0);
        assert_eq!(cs.error_bound, 0.0);
        assert_eq!(cs.instance.total_weight(), inst.total_weight());
    }

    #[test]
    fn coarse_cells_reduce_and_conserve_mass() {
        let inst = grid_instance(8, 4.0, 2);
        // Cell side r/2 = 2: 2x2 blocks of points collapse.
        let cs = build_coreset(&inst, 2.0).unwrap();
        assert!(cs.instance.n() < inst.n());
        assert!((cs.instance.total_weight() - inst.total_weight()).abs() < 1e-9);
        assert!(cs.weighted_displacement > 0.0);
        assert!(cs.error_bound > 0.0);
        assert!(cs.error_bound <= inst.total_weight());
    }

    #[test]
    fn fine_coreset_solve_matches_direct() {
        let inst = grid_instance(6, 1.5, 3);
        let report = solve_coreset(
            &inst,
            &CoresetConfig {
                cells_per_radius: 8.0,
                ..CoresetConfig::default()
            },
        )
        .unwrap();
        // One point per cell: the coreset IS the instance, up to
        // representative ordering, so the objectives agree exactly.
        assert_eq!(report.coreset_n, inst.n());
        assert!(report.gap < 1e-12, "gap {} too large", report.gap);
        let oracle = GainOracle::with_engine(&inst, EngineKind::Sparse, OracleStrategy::Lazy);
        let mut scratch = SolveScratch::with_capacity(inst.n(), inst.k());
        let direct = crate::batch::solve_rounds(&oracle, &mut scratch);
        assert!(
            (report.full_objective - direct).abs() < 1e-9,
            "coreset {} vs direct {}",
            report.full_objective,
            direct
        );
    }

    #[test]
    fn streaming_objective_matches_residual_apply() {
        let inst = grid_instance(7, 2.0, 3);
        let centers = vec![*inst.point(3), *inst.point(17), *inst.point(40)];
        let mut residuals = crate::reward::Residuals::new(inst.n());
        let mut total = 0.0;
        for c in &centers {
            total += residuals.apply(&inst, c);
        }
        let streamed = streaming_objective(&inst, &centers);
        assert!(
            (total - streamed).abs() < 1e-9,
            "apply {total} vs streamed {streamed}"
        );
    }

    #[test]
    fn budget_trip_degrades_with_prefix() {
        let inst = grid_instance(8, 2.0, 4);
        let report = solve_coreset(
            &inst,
            &CoresetConfig {
                budget: SolveBudget::unlimited().with_max_evals(1),
                ..CoresetConfig::default()
            },
        )
        .unwrap();
        assert!(report.degraded.is_some());
        assert!(report.selection.len() < inst.k());
    }

    #[test]
    fn plan_scale_escalates_past_cap() {
        let inst = grid_instance(10, 3.0, 2);
        assert_eq!(
            plan_scale(&inst, EngineKind::Auto, usize::MAX),
            ScalePlan::Direct
        );
        assert_eq!(plan_scale(&inst, EngineKind::Auto, 16), ScalePlan::Coreset);
        // Explicit kinds never escalate.
        assert_eq!(plan_scale(&inst, EngineKind::Kd, 16), ScalePlan::Direct);
        assert_eq!(plan_scale(&inst, EngineKind::Sparse, 16), ScalePlan::Direct);
    }

    #[test]
    fn pipeline_choice() {
        let inst = grid_instance(10, 3.0, 2);
        assert_eq!(Pipeline::requested(None, None).unwrap(), Pipeline::Direct);
        assert_eq!(
            Pipeline::requested(Some(3.0), None).unwrap(),
            Pipeline::Coreset(3.0)
        );
        assert_eq!(
            Pipeline::requested(None, Some(2)).unwrap(),
            Pipeline::Shard(2)
        );
        let err = Pipeline::requested(Some(3.0), Some(2)).unwrap_err();
        assert!(err.to_string().contains("pick one pipeline"), "{err}");
        for cells in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(Pipeline::requested(Some(cells), None).is_err(), "{cells}");
        }
        assert!(Pipeline::requested(None, Some(0)).is_err());
        // Only an unnamed pipeline on the auto engine escalates.
        let escalate = |p: Pipeline, kind| p.for_instance(&inst, kind, 16);
        assert_eq!(
            escalate(Pipeline::Direct, EngineKind::Auto),
            Pipeline::Coreset(DEFAULT_CORESET_CELLS)
        );
        assert_eq!(escalate(Pipeline::Direct, EngineKind::Kd), Pipeline::Direct);
        assert_eq!(
            escalate(Pipeline::Shard(2), EngineKind::Auto),
            Pipeline::Shard(2)
        );
        assert_eq!(
            Pipeline::Direct.for_instance(&inst, EngineKind::Auto, usize::MAX),
            Pipeline::Direct
        );
    }

    /// The construction before bucketing by sort: one `HashMap` entry
    /// per cell, summed in input order, representatives emitted in
    /// sorted key order. Returns every output as bits.
    fn hashmap_coreset<const D: usize>(inst: &Instance<D>, cells_per_radius: f64) -> Vec<Vec<u64>> {
        use std::collections::HashMap;
        let cell = inst.radius() / cells_per_radius;
        let key =
            |p: &Point<D>| -> [i64; D] { std::array::from_fn(|d| (p[d] / cell).floor() as i64) };
        let mut cells: HashMap<[i64; D], (f64, [f64; D], u32)> = HashMap::new();
        for (p, &w) in inst.points().iter().zip(inst.weights()) {
            let agg = cells.entry(key(p)).or_insert((0.0, [0.0; D], 0));
            agg.0 += w;
            for d in 0..D {
                agg.1[d] += w * p[d];
            }
        }
        let mut keys: Vec<[i64; D]> = cells.keys().copied().collect();
        keys.sort_unstable();
        let (mut reps, mut weights) = (Vec::new(), Vec::new());
        for (slot, k) in keys.iter().enumerate() {
            let agg = cells.get_mut(k).unwrap();
            agg.2 = slot as u32;
            reps.push(Point::<D>(std::array::from_fn(|d| agg.1[d] / agg.0)));
            weights.push(agg.0);
        }
        let (r, kf) = (inst.radius(), inst.k() as f64);
        let (mut displacement, mut bound) = (0.0, 0.0);
        for (p, &w) in inst.points().iter().zip(inst.weights()) {
            let disp = inst.norm().dist(p, &reps[cells[&key(p)].2 as usize]);
            displacement += w * disp;
            bound += w * (kf * disp / r).min(1.0);
        }
        vec![
            reps.iter().flat_map(|p| p.0.map(f64::to_bits)).collect(),
            weights.iter().map(|w| w.to_bits()).collect(),
            vec![displacement.to_bits(), bound.to_bits()],
        ]
    }

    fn outputs<const D: usize>(cs: &Coreset<D>) -> Vec<Vec<u64>> {
        vec![
            cs.instance
                .points()
                .iter()
                .flat_map(|p| p.0.map(f64::to_bits))
                .collect(),
            cs.instance.weights().iter().map(|w| w.to_bits()).collect(),
            vec![cs.weighted_displacement.to_bits(), cs.error_bound.to_bits()],
        ]
    }

    fn random_points<const D: usize>(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<Point<D>> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point(std::array::from_fn(|_| rng.gen_range(lo..hi))))
            .collect()
    }

    fn check_against_hashmap<const D: usize>(points: Vec<Point<D>>, r: f64, label: &str) {
        let weights = (0..points.len())
            .map(|i| 1.0 + (i % 5) as f64 * 0.75)
            .collect();
        let inst = Instance::new(points, weights, r, 3, Norm::L1).unwrap();
        for cells in [0.5, 1.0, 3.0, 4.0, 8.0] {
            let cs = build_coreset(&inst, cells).unwrap();
            assert_eq!(
                outputs(&cs),
                hashmap_coreset(&inst, cells),
                "{label} D={D} cells={cells}"
            );
        }
    }

    /// Bucketing by sort reproduces the `HashMap` build bit for bit:
    /// representatives, weights, emission order, displacement and
    /// bound. Negative coordinates, duplicates, 3-D, and an input large
    /// enough that the sort splits across the pool.
    #[test]
    fn sort_bucketing_matches_the_hashmap_build() {
        check_against_hashmap(random_points::<2>(1, 500, -5.0, 5.0), 0.9, "negative");
        let mut dup = random_points::<2>(2, 200, -1.0, 3.0);
        for i in 0..100 {
            dup.push(dup[i]);
        }
        check_against_hashmap(dup, 0.6, "duplicates");
        check_against_hashmap(random_points::<3>(3, 600, -2.0, 2.0), 0.8, "3-D");
        check_against_hashmap(
            random_points::<2>(4, 70_000, -50.0, 50.0),
            1.0,
            "split sort",
        );
    }

    #[test]
    fn invalid_cells_rejected() {
        let inst = grid_instance(4, 1.0, 1);
        assert!(build_coreset(&inst, 0.0).is_err());
        assert!(build_coreset(&inst, f64::NAN).is_err());
    }
}
