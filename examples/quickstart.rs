//! Quickstart: build a problem, run every solver, compare rewards.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mmph::prelude::*;

fn main() {
    // A base station serves 40 users whose interests live in the
    // paper's 4×4 2-D space; it may broadcast k = 4 contents with
    // interest radius r = 1 under the Euclidean norm. Weights 1..=5
    // encode how much each user values being served.
    let scenario = Scenario::paper_2d(
        40,
        4,
        1.0,
        Norm::L2,
        WeightScheme::UniformInt { lo: 1, hi: 5 },
        2011,
    );
    let instance = scenario.generate_2d().expect("valid scenario");
    println!(
        "instance: n = {}, k = {}, r = {}, norm = {}, total weight = {}",
        instance.n(),
        instance.k(),
        instance.radius(),
        instance.norm(),
        instance.total_weight()
    );

    // The paper's three local greedies, the round-based heuristic, our
    // CELF extension, and the exhaustive optimum over point candidates.
    let mut lazy = LocalGreedy::new()
        .with_oracle(OracleStrategy::Lazy)
        .solve(&instance)
        .expect("lazy greedy");
    lazy.solver = "greedy2-lazy".into();
    let solutions = vec![
        RoundBased::grid().solve(&instance).expect("greedy 1"),
        LocalGreedy::new().solve(&instance).expect("greedy 2"),
        SimpleGreedy::new().solve(&instance).expect("greedy 3"),
        ComplexGreedy::new().solve(&instance).expect("greedy 4"),
        lazy,
        Exhaustive::new().solve(&instance).expect("exhaustive"),
    ];

    let opt = solutions
        .iter()
        .find(|s| s.solver == "exhaustive")
        .expect("exhaustive ran")
        .total_reward;

    println!(
        "\n{:<18} {:>10} {:>8} {:>10}",
        "solver", "reward", "ratio", "evals"
    );
    for sol in &solutions {
        println!(
            "{:<18} {:>10.4} {:>7.2}% {:>10}",
            sol.solver,
            sol.total_reward,
            100.0 * sol.total_reward / opt,
            sol.evals
        );
        assert!(sol.verify_consistency(&instance), "telescoped == f(C)");
    }

    // Theorem 2's guarantee for the local greedy: reward >= bound × opt.
    let bound = approx_local(instance.n(), instance.k());
    let g2 = &solutions[1];
    println!(
        "\nTheorem 2 check: greedy 2 ratio {:.4} >= bound {:.4}  ✓ = {}",
        g2.total_reward / opt,
        bound,
        g2.total_reward / opt >= bound
    );
}
