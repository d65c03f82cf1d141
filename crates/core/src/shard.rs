//! GreeDi-style shard-then-merge solving.
//!
//! The second large-n path: partition the point set spatially into `S`
//! shards, run the full greedy independently inside each shard (each
//! shard's CSR is ~`1/S` of the full footprint, so shards fit the
//! engine cap where the whole instance does not), then run one final
//! greedy over the union of the `S·k` shard candidates scored against
//! the *full-resolution* residuals. This is the two-round GreeDi
//! scheme: for the paper's coverage objective the merged selection
//! keeps a constant-factor guarantee, and in geometric instances the
//! shard optima are near-local so the realized quality tracks the
//! direct greedy closely.
//!
//! Determinism: shards are solved independently (their own engine,
//! oracle, and [`SolveScratch`] arena) and their results are collected
//! in shard order, so the merged selection is bit-identical whether
//! the shard sweep runs serially or under rayon with any thread count.
//! The per-shard budgets are equal slices of the caller's
//! [`SolveBudget`] sharing one [`CancelToken`] clone, so the overload
//! semantics (deadline propagation, cancellation mid-solve) survive
//! sharding unchanged.

use std::time::Instant;

use mmph_geom::Point;
use rayon::prelude::*;

use crate::budget::{DegradeReason, SolveBudget};
use crate::instance::Instance;
use crate::oracle::{GainOracle, OracleStrategy};
use crate::reward::{spatial_order, EngineKind, Residuals, RewardEngine, DEFAULT_SPARSE_CAP_BYTES};
use crate::scratch::SolveScratch;
use crate::{CoreError, Result};

/// Default shard count when the caller does not name one.
pub const DEFAULT_SHARDS: usize = 8;

/// Configuration for [`solve_sharded`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of spatial shards (clamped to `1..=n`).
    pub shards: usize,
    /// Engine kind for the per-shard solves. `Auto` (default) picks
    /// the capped sparse engine per shard.
    pub engine: EngineKind,
    /// Oracle strategy for the per-shard solves.
    pub strategy: OracleStrategy,
    /// Total budget; sliced evenly across the shards plus the merge,
    /// all sharing the caller's cancellation token.
    pub budget: SolveBudget,
    /// Sparse-CSR byte cap for the per-shard engine auto selection.
    pub cap_bytes: usize,
    /// Run the shard sweep under rayon (`true`) or serially (`false`).
    /// Both orders produce bit-identical selections.
    pub parallel: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: DEFAULT_SHARDS,
            engine: EngineKind::Auto,
            strategy: OracleStrategy::Lazy,
            budget: SolveBudget::unlimited(),
            cap_bytes: DEFAULT_SPARSE_CAP_BYTES,
            parallel: true,
        }
    }
}

/// Report of one shard-then-merge solve.
#[derive(Debug, Clone)]
pub struct ShardReport<const D: usize> {
    /// Shard count actually used (after clamping).
    pub shards: usize,
    /// Points per shard.
    pub shard_sizes: Vec<usize>,
    /// Size of the merged candidate union (≤ `S·k`).
    pub candidates: usize,
    /// Final selection as indices into the *full* instance.
    pub selection: Vec<usize>,
    /// Final selected centers.
    pub centers: Vec<Point<D>>,
    /// Full-resolution objective of the merged selection, telescoped
    /// through exact dense residual updates.
    pub objective: f64,
    /// First budget trip observed (shards in order, then the merge);
    /// the selection is the prefix committed before the trip.
    pub degraded: Option<DegradeReason>,
    /// Wall-clock of the shard sweep.
    pub shard_ms: f64,
    /// Wall-clock of the merge greedy.
    pub merge_ms: f64,
}

/// One slice of the total budget: `1/(shards+1)` of the deadline and
/// eval cap (the merge takes the extra slice), sharing the same token.
fn slice_budget(total: &SolveBudget, slices: u64) -> SolveBudget {
    let mut b = SolveBudget::unlimited();
    if let Some(d) = total.deadline() {
        b = b.with_deadline(d / slices as u32);
    }
    if let Some(m) = total.max_evals() {
        b = b.with_max_evals(m / slices);
    }
    if let Some(token) = total.cancel_token() {
        b = b.with_cancel(token.clone());
    }
    b
}

/// Greedy inside one shard; returns local picks plus any budget trip.
fn solve_shard<const D: usize>(
    sub: &Instance<D>,
    cfg: &ShardConfig,
    budget: &SolveBudget,
) -> (Vec<usize>, Option<DegradeReason>) {
    let engine = match cfg.engine {
        EngineKind::Auto => {
            RewardEngine::auto_with_cap_kind(sub, cfg.cap_bytes, EngineKind::Sparse)
        }
        kind => RewardEngine::with_kind(sub, kind),
    };
    let mut oracle = GainOracle::from_engine(engine, cfg.strategy);
    if let Some(token) = budget.cancel_token() {
        oracle.set_cancel(Some(token.clone()));
    }
    let mut scratch = SolveScratch::with_capacity(sub.n(), sub.k());
    let clock = budget.start();
    let (_, degraded) = crate::batch::solve_rounds_within(&oracle, &mut scratch, &clock);
    (scratch.picks().to_vec(), degraded)
}

/// Solves `inst` through the shard-then-merge path.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] when `shards == 0`.
pub fn solve_sharded<const D: usize>(
    inst: &Instance<D>,
    cfg: &ShardConfig,
) -> Result<ShardReport<D>> {
    if cfg.shards == 0 {
        return Err(CoreError::InvalidConfig("shard count must be >= 1".into()));
    }
    let n = inst.n();
    let shards = cfg.shards.min(n);
    let slices = shards as u64 + 1;
    let shard_budget = slice_budget(&cfg.budget, slices);
    let merge_budget = slice_budget(&cfg.budget, slices);

    // Spatial partition: grid-cell order (the CSR's storage order)
    // split into contiguous runs, so each shard is a compact region
    // and the partition is deterministic.
    let mut order = Vec::new();
    spatial_order(inst.points(), inst.radius(), &mut order);
    let per = n.div_ceil(shards);
    let mut subs: Vec<(Instance<D>, Vec<u32>)> = Vec::with_capacity(shards);
    for chunk in order.chunks(per) {
        let pts: Vec<Point<D>> = chunk.iter().map(|&i| *inst.point(i as usize)).collect();
        let ws: Vec<f64> = chunk.iter().map(|&i| inst.weight(i as usize)).collect();
        let k = inst.k().min(pts.len());
        let sub =
            Instance::new(pts, ws, inst.radius(), k, inst.norm())?.with_kernel(inst.kernel())?;
        subs.push((sub, chunk.to_vec()));
    }

    let t0 = Instant::now();
    let results: Vec<(Vec<usize>, Option<DegradeReason>)> = if cfg.parallel {
        subs.par_iter()
            .map(|(sub, _)| solve_shard(sub, cfg, &shard_budget))
            .collect()
    } else {
        subs.iter()
            .map(|(sub, _)| solve_shard(sub, cfg, &shard_budget))
            .collect()
    };
    let shard_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut degraded: Option<DegradeReason> = None;
    let mut candidates: Vec<usize> = Vec::with_capacity(shards * inst.k());
    for ((picks, trip), (_, ids)) in results.iter().zip(&subs) {
        if degraded.is_none() {
            degraded = trip.clone();
        }
        for &local in picks {
            candidates.push(ids[local] as usize);
        }
    }

    // Merge greedy: score the union candidates against full-resolution
    // residuals. `auto` merges on the CSR-free backend it falls back to
    // past the cap (a zero cap: the grid engine, bit-identical to scan,
    // or kd on high-spread input), so the merge never builds a CSR,
    // whatever n.
    let t1 = Instant::now();
    let engine = match cfg.engine {
        EngineKind::Auto => RewardEngine::auto_with_cap(inst, 0),
        kind => RewardEngine::with_kind(inst, kind),
    };
    let mut oracle = GainOracle::from_engine(engine, OracleStrategy::Seq);
    if let Some(token) = merge_budget.cancel_token() {
        oracle.set_cancel(Some(token.clone()));
    }
    let clock = merge_budget.start();
    let mut residuals = Residuals::new(n);
    let mut pool = candidates.clone();
    let mut selection = Vec::with_capacity(inst.k());
    let mut objective = 0.0;
    while selection.len() < inst.k() && !pool.is_empty() {
        let scored = oracle.best_among(&pool, &residuals);
        if let Some(reason) = clock.check(oracle.evals()) {
            // Discard the in-flight argmax, keep the committed prefix.
            if degraded.is_none() {
                degraded = Some(reason);
            }
            break;
        }
        if scored.gain <= 0.0 {
            break;
        }
        objective += residuals.apply(inst, inst.point(scored.index));
        selection.push(scored.index);
        pool.retain(|&c| c != scored.index);
    }
    let merge_ms = t1.elapsed().as_secs_f64() * 1e3;

    let centers = selection.iter().map(|&i| *inst.point(i)).collect();
    Ok(ShardReport {
        shards,
        shard_sizes: subs.iter().map(|(sub, _)| sub.n()).collect(),
        candidates: candidates.len(),
        selection,
        centers,
        objective,
        degraded,
        shard_ms,
        merge_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::solve_rounds;
    use mmph_geom::Norm;

    fn cluster_instance(clusters: usize, per: usize, k: usize) -> Instance<2> {
        let mut points = Vec::new();
        let mut weights = Vec::new();
        for c in 0..clusters {
            let cx = (c % 4) as f64 * 10.0;
            let cy = (c / 4) as f64 * 10.0;
            for i in 0..per {
                let dx = (i % 5) as f64 * 0.3;
                let dy = (i / 5) as f64 * 0.3;
                points.push(Point([cx + dx, cy + dy]));
                weights.push(1.0 + ((c + i) % 3) as f64);
            }
        }
        Instance::new(points, weights, 1.5, k, Norm::L2).unwrap()
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let inst = cluster_instance(6, 20, 4);
        for shards in [1, 2, 3, 5, 8] {
            let base = ShardConfig {
                shards,
                parallel: false,
                ..ShardConfig::default()
            };
            let serial = solve_sharded(&inst, &base).unwrap();
            let par = solve_sharded(
                &inst,
                &ShardConfig {
                    parallel: true,
                    ..base
                },
            )
            .unwrap();
            assert_eq!(serial.selection, par.selection, "shards={shards}");
            assert_eq!(
                serial.objective.to_bits(),
                par.objective.to_bits(),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn single_shard_matches_direct_greedy() {
        let inst = cluster_instance(4, 15, 3);
        let report = solve_sharded(
            &inst,
            &ShardConfig {
                shards: 1,
                ..ShardConfig::default()
            },
        )
        .unwrap();
        let oracle = GainOracle::with_engine(&inst, EngineKind::Sparse, OracleStrategy::Lazy);
        let mut scratch = SolveScratch::with_capacity(inst.n(), inst.k());
        let direct = solve_rounds(&oracle, &mut scratch);
        // One shard proposes the direct greedy's own picks; the merge
        // re-selects from them, so the objective matches.
        assert!(
            (report.objective - direct).abs() < 1e-9,
            "sharded {} vs direct {}",
            report.objective,
            direct
        );
        assert_eq!(report.selection.len(), inst.k());
    }

    #[test]
    fn sharded_quality_tracks_direct() {
        let inst = cluster_instance(8, 25, 6);
        let report = solve_sharded(&inst, &ShardConfig::default()).unwrap();
        let oracle = GainOracle::with_engine(&inst, EngineKind::Sparse, OracleStrategy::Lazy);
        let mut scratch = SolveScratch::with_capacity(inst.n(), inst.k());
        let direct = solve_rounds(&oracle, &mut scratch);
        assert!(
            report.objective >= 0.5 * direct,
            "sharded {} below half of direct {}",
            report.objective,
            direct
        );
    }

    #[test]
    fn cancellation_degrades_to_prefix() {
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let inst = cluster_instance(4, 15, 3);
        let report = solve_sharded(
            &inst,
            &ShardConfig {
                budget: SolveBudget::unlimited().with_cancel(token),
                ..ShardConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.degraded, Some(DegradeReason::Cancelled));
        assert!(report.selection.is_empty());
    }

    #[test]
    fn eval_slices_cap_total_work() {
        let inst = cluster_instance(4, 15, 3);
        let report = solve_sharded(
            &inst,
            &ShardConfig {
                shards: 2,
                budget: SolveBudget::unlimited().with_max_evals(3),
                ..ShardConfig::default()
            },
        )
        .unwrap();
        // 3 evals over 3 slices = 1 eval each: every stage trips.
        assert!(report.degraded.is_some());
    }

    #[test]
    fn zero_shards_rejected() {
        let inst = cluster_instance(2, 10, 2);
        assert!(solve_sharded(
            &inst,
            &ShardConfig {
                shards: 0,
                ..ShardConfig::default()
            }
        )
        .is_err());
    }
}
