//! Failure injection: every crate boundary must reject invalid input
//! with a typed, descriptive error — never a panic, never a silent
//! wrong answer.

use mmph::core::solvers::{KCenter, KMeans, StochasticGreedy};
use mmph::core::{CoreError, Kernel};
use mmph::prelude::*;
use mmph::sim::broadcast::{BroadcastConfig, FaultPlan, OutageWindow};
use mmph::sim::gen::{PointDistribution, SpaceSpec};
use mmph_geom::{GeomError, Point as GPoint};

/// Every solver in the registry, boxed for uniform sweeps.
fn all_solvers() -> Vec<(&'static str, Box<dyn Solver<2>>)> {
    vec![
        ("greedy1", Box::new(RoundBased::grid())),
        ("greedy1-sa", Box::new(RoundBased::annealing())),
        ("greedy2", Box::new(LocalGreedy::new())),
        ("greedy3", Box::new(SimpleGreedy::new())),
        ("greedy4", Box::new(ComplexGreedy::new())),
        (
            "lazy",
            Box::new(LocalGreedy::new().with_oracle(OracleStrategy::Lazy)),
        ),
        ("stochastic", Box::new(StochasticGreedy::new())),
        ("seeded", Box::new(SeededGreedy::new())),
        ("beam", Box::new(BeamSearch::new())),
        ("local-search", Box::new(LocalSearch::new())),
        ("kcenter", Box::new(KCenter::new())),
        ("kmeans", Box::new(KMeans::new())),
        ("exhaustive", Box::new(Exhaustive::new())),
        ("adaptive", Box::new(AdaptiveSolver::new())),
    ]
}

#[test]
fn instance_rejections_are_typed_and_descriptive() {
    // NaN coordinate.
    let e = Instance::<2>::new(
        vec![GPoint::new([f64::NAN, 0.0])],
        vec![1.0],
        1.0,
        1,
        Norm::L2,
    )
    .unwrap_err();
    assert!(matches!(e, CoreError::InvalidInstance(_)));
    assert!(e.to_string().contains("non-finite"));

    // Infinite radius.
    let e = Instance::<2>::new(
        vec![GPoint::new([0.0, 0.0])],
        vec![1.0],
        f64::INFINITY,
        1,
        Norm::L2,
    )
    .unwrap_err();
    assert!(e.to_string().contains("radius"));

    // Zero weight.
    let e =
        Instance::<2>::new(vec![GPoint::new([0.0, 0.0])], vec![0.0], 1.0, 1, Norm::L2).unwrap_err();
    assert!(e.to_string().contains("weight"));

    // Empty instance.
    let e = Instance::<2>::new(vec![], vec![], 1.0, 1, Norm::L2).unwrap_err();
    assert!(e.to_string().contains("no points"));
}

#[test]
fn geometry_rejections() {
    let e = GPoint::<2>::try_from_slice(&[1.0]).unwrap_err();
    assert!(matches!(
        e,
        GeomError::DimensionMismatch {
            expected: 2,
            got: 1
        }
    ));
    assert!(e.to_string().contains("expected 2"));

    let e = mmph_geom::Norm::lp(0.3).unwrap_err();
    assert!(matches!(e, GeomError::InvalidExponent(_)));

    let e = mmph_geom::Aabb::<2>::from_points(&[]).unwrap_err();
    assert_eq!(e, GeomError::EmptyPointSet);
}

#[test]
fn solver_configuration_rejections() {
    assert!(matches!(
        StochasticGreedy::new().with_epsilon(2.0),
        Err(CoreError::InvalidConfig(_))
    ));
    assert!(matches!(
        LocalSearch::new().with_max_passes(0),
        Err(CoreError::InvalidConfig(_))
    ));
    let inst = Scenario::paper_2d(5, 2, 1.0, Norm::L1, WeightScheme::Same, 0)
        .generate_2d()
        .unwrap();
    // kmeans demands L2.
    assert!(matches!(
        KMeans::new().solve(&inst),
        Err(CoreError::InvalidConfig(_))
    ));
    // exhaustive cap.
    let big = Scenario::paper_2d(60, 4, 1.0, Norm::L2, WeightScheme::Same, 0)
        .generate_2d()
        .unwrap();
    let e = Exhaustive::new()
        .with_max_combinations(100)
        .solve(&big)
        .unwrap_err();
    assert!(e.to_string().contains("exceeds the cap"));
}

#[test]
fn kernel_rejections() {
    let inst = Scenario::paper_2d(5, 1, 1.0, Norm::L2, WeightScheme::Same, 0)
        .generate_2d()
        .unwrap();
    for lambda in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let e = inst
            .with_kernel(Kernel::Exponential { lambda })
            .unwrap_err();
        assert!(
            matches!(e, CoreError::InvalidInstance(_)),
            "lambda={lambda}"
        );
    }
}

#[test]
fn sim_rejections() {
    assert!(SpaceSpec::new(2.0, 2.0).is_err());
    assert!(WeightScheme::UniformInt { lo: 5, hi: 2 }
        .validate()
        .is_err());
    assert!(PointDistribution::GaussianClusters {
        clusters: 0,
        rel_sigma: 0.1
    }
    .validate()
    .is_err());
    for cfg in [
        BroadcastConfig {
            horizon_slots: 0,
            ..Default::default()
        },
        BroadcastConfig {
            churn_rate: -0.1,
            ..Default::default()
        },
        BroadcastConfig {
            drift_rel_sigma: f64::NAN,
            ..Default::default()
        },
        BroadcastConfig {
            threshold: 7.0,
            ..Default::default()
        },
    ] {
        assert!(cfg.validate().is_err(), "{cfg:?} accepted");
    }
}

#[test]
fn plot_rejections() {
    use mmph::plot::{LineChart, PlotError, Series};
    let mut chart = LineChart::new("t", "x", "y");
    chart.push(Series::new("nan", vec![(0.0, f64::INFINITY)]));
    assert!(matches!(
        chart.render().unwrap_err(),
        PlotError::NonFinite { .. }
    ));
}

#[test]
fn scenario_deserialization_rejects_corrupt_configs() {
    // Radius <= 0 sneaks through Scenario (validated at generate time).
    let json = r#"{
        "label": "bad", "space": {"lo": 0.0, "hi": 4.0},
        "distribution": "Uniform", "weights": "Same",
        "n": 5, "k": 1, "r": -1.0, "norm": "L2", "seed": 0
    }"#;
    let sc: Scenario = serde_json::from_str(json).unwrap();
    assert!(sc.generate_2d().is_err());
}

#[test]
fn pathological_instances_reject_before_any_solver_runs() {
    // The instance boundary is the only gate: NaN / ±inf weights,
    // non-positive radii and empty point sets must produce a typed error
    // there, so no solver can ever observe them.
    let p = GPoint::new([0.0, 0.0]);
    for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0] {
        let e = Instance::<2>::new(vec![p], vec![w], 1.0, 1, Norm::L2).unwrap_err();
        assert!(matches!(e, CoreError::InvalidInstance(_)), "weight {w}");
    }
    for r in [0.0, -1.0, f64::NAN, f64::NEG_INFINITY] {
        let e = Instance::<2>::new(vec![p], vec![1.0], r, 1, Norm::L2).unwrap_err();
        assert!(matches!(e, CoreError::InvalidInstance(_)), "radius {r}");
    }
    let e = Instance::<2>::new(vec![], vec![], 1.0, 1, Norm::L2).unwrap_err();
    assert!(matches!(e, CoreError::InvalidInstance(_)));
}

#[test]
fn every_solver_handles_duplicate_points_cleanly() {
    // Six coincident heavy points plus two satellites: degenerate
    // geometry (zero-radius enclosing balls, zero-variance clusters)
    // that must never panic or return a non-finite reward.
    let dup = GPoint::new([1.0, 1.0]);
    let pts = vec![
        dup,
        dup,
        dup,
        dup,
        dup,
        dup,
        GPoint::new([3.0, 3.0]),
        GPoint::new([0.5, 2.5]),
    ];
    let ws = vec![5.0, 4.0, 3.0, 2.0, 1.0, 1.0, 2.0, 2.0];
    let inst = Instance::<2>::new(pts, ws, 1.0, 2, Norm::L2).unwrap();
    for (name, solver) in all_solvers() {
        let sol = solver
            .solve(&inst)
            .unwrap_or_else(|e| panic!("{name} failed on duplicates: {e}"));
        assert!(sol.total_reward.is_finite(), "{name}");
        assert!(
            sol.total_reward <= inst.total_weight() + 1e-9,
            "{name}: reward {} exceeds total weight",
            sol.total_reward
        );
        assert_eq!(sol.centers.len(), 2, "{name}");
    }
}

#[test]
fn every_solver_survives_an_exhausted_budget() {
    let inst = Scenario::paper_2d(12, 2, 1.0, Norm::L2, WeightScheme::Same, 3)
        .generate_2d()
        .unwrap();
    for (name, solver) in all_solvers() {
        let out = solver
            .solve_within(&inst, &SolveBudget::unlimited().with_max_evals(0))
            .unwrap_or_else(|e| panic!("{name} errored under zero budget: {e}"));
        assert!(!out.is_complete(), "{name} claimed completion");
        assert!(out.value().is_finite(), "{name}");
        let full = solver.solve(&inst).unwrap();
        assert!(
            out.value() <= full.total_reward + 1e-9,
            "{name}: degraded {} > unbudgeted {}",
            out.value(),
            full.total_reward
        );
    }
}

#[test]
fn fault_plan_rejections() {
    for loss in [-0.1, 1.1, f64::NAN] {
        let e = FaultPlan {
            loss,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert!(e.to_string().contains("loss"), "loss {loss}: {e}");
    }
    let e = FaultPlan {
        outages: vec![OutageWindow { start: 0, len: 0 }],
        ..Default::default()
    }
    .validate()
    .unwrap_err();
    assert!(e.to_string().contains("outage"));
}

#[test]
fn errors_are_send_sync_for_threaded_harnesses() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CoreError>();
    assert_send_sync::<GeomError>();
    assert_send_sync::<mmph::sim::SimError>();
    assert_send_sync::<mmph::plot::PlotError>();
}
