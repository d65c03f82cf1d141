//! Interest drift: why the base station should re-solve every period.
//!
//! User interests are not static — tastes drift and audiences churn.
//! This example runs the time-slotted broadcast simulator twice over
//! the same drifting population:
//!
//! * **adaptive** — re-solve the content selection every period
//!   (what `mmph_sim::broadcast::simulate` does);
//! * **frozen** — solve once on the initial snapshot and rebroadcast
//!   the same `k` contents forever.
//!
//! The gap between the two quantifies the value of adaptation as a
//! function of drift intensity.
//!
//! Re-solving every period is only worth it if it is cheap, so the
//! second half prices it: the same drifting population is pushed
//! through [`IncrementalInstance`]'s delta API ([`ChurnPlan`] move
//! batches + warm re-solve) with the from-scratch rebuild-and-solve
//! timed beside it, so the adaptation advantage and its cost discount
//! appear in one run.
//!
//! ```text
//! cargo run --release --example interest_drift
//! ```

use std::time::Instant;

use mmph::core::SolveScratch;
use mmph::prelude::*;
use mmph::sim::broadcast::{simulate, BroadcastConfig, Population};
use mmph::sim::gen::{PointDistribution, SpaceSpec};
use mmph::sim::metrics::SatisfactionReport;
use mmph::sim::rng::SeedSeq;

/// Re-runs the drifting population but never re-solves: the period-0
/// centers are rebroadcast for the whole horizon.
fn simulate_frozen(
    population: &mut Population<2>,
    r: f64,
    k: usize,
    config: &BroadcastConfig,
) -> f64 {
    // Solve once on the initial snapshot.
    let initial = population.instance(r, k, Norm::L2).expect("valid instance");
    let frozen = LocalGreedy::new().solve(&initial).expect("solves");
    // Replay the same dynamics through the adaptive simulator by using
    // a "solver" that ignores the instance and returns the frozen
    // centers. A tiny adapter implementing Solver keeps the dynamics
    // code identical between the two arms.
    struct Frozen(Vec<Point<2>>);
    impl Solver<2> for Frozen {
        fn name(&self) -> &'static str {
            "frozen"
        }
        fn solve(&self, inst: &mmph::core::Instance<2>) -> mmph::core::Result<Solution<2>> {
            let report = SatisfactionReport::compute(inst, &self.0, 0.5);
            Ok(Solution {
                solver: "frozen".into(),
                centers: self.0.clone(),
                round_gains: vec![report.total_reward],
                total_reward: report.total_reward,
                evals: 0,
                assignments: None,
            })
        }
    }
    let run = simulate(&Frozen(frozen.centers), population, r, k, Norm::L2, config)
        .expect("simulation runs");
    run.total_reward
}

fn main() {
    println!("adaptive vs frozen content selection under interest drift\n");
    println!(
        "{:>12} {:>14} {:>14} {:>12}",
        "drift sigma", "adaptive", "frozen", "advantage"
    );
    for drift in [0.0, 0.01, 0.02, 0.05, 0.10] {
        let make_population = || {
            Population::<2>::generate(
                80,
                SpaceSpec::PAPER,
                PointDistribution::GaussianClusters {
                    clusters: 3,
                    rel_sigma: 0.06,
                },
                WeightScheme::UniformInt { lo: 1, hi: 5 },
                SeedSeq::new(1999),
            )
            .expect("valid generator config")
        };
        let config = BroadcastConfig {
            horizon_slots: 64,
            churn_rate: 0.0,
            drift_rel_sigma: drift,
            threshold: 0.5,
            seed: 55, // same dynamics seed for both arms
        };
        let mut pop_a = make_population();
        let adaptive = simulate(&LocalGreedy::new(), &mut pop_a, 1.0, 4, Norm::L2, &config)
            .expect("simulation runs")
            .total_reward;
        let mut pop_f = make_population();
        let frozen = simulate_frozen(&mut pop_f, 1.0, 4, &config);
        println!(
            "{:>12.2} {:>14.1} {:>14.1} {:>11.1}%",
            drift,
            adaptive,
            frozen,
            100.0 * (adaptive - frozen) / frozen.max(1e-9),
        );
    }
    println!(
        "\nreading: with no drift the two arms coincide. At tiny drift the\n\
         frozen centers can even edge ahead — individual points jitter\n\
         around stationary cluster cores, and chasing them adds noise.\n\
         Once drift disperses the clusters the frozen selection decays\n\
         and per-period re-solving wins by a widening margin."
    );

    delta_api_cost();
}

/// Prices the per-period re-solve: the same drifting-population story,
/// but through [`IncrementalInstance`]'s delta API. Each period a
/// seeded [`ChurnPlan`] batch (move-dominated, like interest drift)
/// patches the CSR in place and `resolve` warm-starts from the
/// previous centers; a from-scratch rebuild + lazy greedy on the
/// identical mutated instance is timed beside it.
fn delta_api_cost() {
    let n = 20_000;
    let k = 8;
    // Radius pinning the expected within-radius neighborhood to ~48
    // points, matching the persisted perf baselines.
    let r = SpaceSpec::PAPER.extent() * (48.0 / (std::f64::consts::PI * n as f64)).sqrt();
    let scenario = Scenario::paper_2d(
        n,
        k,
        r,
        Norm::L2,
        WeightScheme::UniformInt { lo: 1, hi: 5 },
        1999,
    );
    let inst = scenario.generate_2d().expect("valid scenario");

    println!("\nwhat a period of adaptation costs (n={n}, k={k}, 1% churn per period):\n");
    let t0 = Instant::now();
    let mut inc = IncrementalInstance::new(inst, mmph::core::EngineKind::Sparse)
        .expect("sparse engine builds");
    let mut scratch = SolveScratch::new();
    let cfg = ResolveConfig::default();
    let seed = inc.resolve(&mut scratch, &cfg);
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>9}   initial build + solve {:.1} ms, reward {:.1}",
        "period",
        "deltas",
        "warm ms",
        "cold ms",
        "speedup",
        t0.elapsed().as_secs_f64() * 1e3,
        seed.reward,
    );

    let plan = ChurnPlan::new(1999, 6, 0.01);
    for period in 0..6u64 {
        let deltas = plan
            .deltas(period, inc.instance())
            .expect("plan draws deltas");
        let count = deltas.len();

        let t0 = Instant::now();
        inc.apply_churn(&deltas).expect("deltas apply");
        let warm = inc.resolve(&mut scratch, &cfg);
        let warm_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let cold = LocalGreedy::new()
            .with_oracle(OracleStrategy::Lazy)
            .with_engine(mmph::core::EngineKind::Sparse)
            .solve(inc.instance())
            .expect("cold solve runs");
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;

        println!(
            "{:>8} {:>8} {:>10.2} {:>10.2} {:>8.1}×   warm reward {:.1} vs cold {:.1}{}",
            period,
            count,
            warm_ms,
            cold_ms,
            cold_ms / warm_ms.max(1e-9),
            warm.reward,
            cold.total_reward,
            if warm.warm { "" } else { "  [cold fallback]" },
        );
    }
    println!(
        "\nreading: the cold column rebuilds the sparse adjacency from\n\
         scratch every period; the warm column patches it in place and\n\
         polishes the previous selection, which is why per-period\n\
         re-solving is cheap enough to be the default."
    );
}
