//! Integration tests for the reward-kernel generalization (extension;
//! DESIGN.md §3): the round framework and every guarantee-relevant
//! structural property must survive swapping the paper's linear decay
//! for other non-increasing kernels.

use mmph::core::submodular;
use mmph::core::Kernel;
use mmph::prelude::*;

const KERNELS: [Kernel; 4] = [
    Kernel::Linear,
    Kernel::Step,
    Kernel::Quadratic,
    Kernel::Exponential { lambda: 3.0 },
];

fn instance_with(kernel: Kernel, seed: u64) -> Instance<2> {
    Scenario::paper_2d(20, 3, 1.0, Norm::L2, WeightScheme::PAPER_WEIGHTED, seed)
        .generate_2d()
        .unwrap()
        .with_kernel(kernel)
        .unwrap()
}

#[test]
fn objective_stays_monotone_submodular_under_every_kernel() {
    for (i, kernel) in KERNELS.into_iter().enumerate() {
        let inst = instance_with(kernel, i as u64);
        let report = submodular::audit(&inst, 400, 7);
        assert!(report.passed(), "{kernel:?}: {report:?}");
    }
}

#[test]
fn solvers_remain_consistent_under_every_kernel() {
    for (i, kernel) in KERNELS.into_iter().enumerate() {
        let inst = instance_with(kernel, 10 + i as u64);
        for sol in [
            LocalGreedy::new().solve(&inst).unwrap(),
            SimpleGreedy::new().solve(&inst).unwrap(),
            ComplexGreedy::new().solve(&inst).unwrap(),
            LocalGreedy::new()
                .with_oracle(OracleStrategy::Lazy)
                .solve(&inst)
                .unwrap(),
        ] {
            assert!(
                sol.verify_consistency(&inst),
                "{} under {kernel:?}",
                sol.solver
            );
        }
        // CELF equivalence is kernel-independent.
        let eager = LocalGreedy::new().solve(&inst).unwrap();
        let lazy = LocalGreedy::new()
            .with_oracle(OracleStrategy::Lazy)
            .solve(&inst)
            .unwrap();
        assert_eq!(eager.centers, lazy.centers, "{kernel:?}");
    }
}

#[test]
fn step_kernel_is_weighted_max_coverage() {
    // Under the step kernel a single covering center claims the full
    // weight of every point within r — the textbook weighted
    // max-coverage objective the paper cites as its ancestor.
    let inst = InstanceBuilder::<2>::new()
        .point([0.0, 0.0], 2.0)
        .point([0.5, 0.0], 3.0)
        .point([3.0, 3.0], 1.0)
        .radius(1.0)
        .k(1)
        .kernel(Kernel::Step)
        .build()
        .unwrap();
    let sol = LocalGreedy::new().solve(&inst).unwrap();
    // Centering anywhere on the close pair covers both fully: 5.0.
    assert!((sol.total_reward - 5.0).abs() < 1e-12);
}

#[test]
fn kernel_ordering_transfers_to_rewards() {
    // Pointwise step >= quadratic >= linear implies the greedy reward
    // under step dominates quadratic dominates linear on the SAME
    // center set; compare via the objective on fixed centers.
    let base = instance_with(Kernel::Linear, 42);
    let centers = LocalGreedy::new().solve(&base).unwrap().centers;
    let f_linear = mmph::core::objective(&base, &centers);
    let f_quad = mmph::core::objective(&base.with_kernel(Kernel::Quadratic).unwrap(), &centers);
    let f_step = mmph::core::objective(&base.with_kernel(Kernel::Step).unwrap(), &centers);
    assert!(f_step >= f_quad - 1e-9);
    assert!(f_quad >= f_linear - 1e-9);
}

#[test]
fn exhaustive_dominates_greedies_under_every_kernel() {
    for (i, kernel) in KERNELS.into_iter().enumerate() {
        let inst = Scenario::paper_2d(10, 2, 1.2, Norm::L1, WeightScheme::Same, 50 + i as u64)
            .generate_2d()
            .unwrap()
            .with_kernel(kernel)
            .unwrap();
        let opt = Exhaustive::new().solve(&inst).unwrap();
        let g2 = LocalGreedy::new().solve(&inst).unwrap();
        let g3 = SimpleGreedy::new().solve(&inst).unwrap();
        assert!(opt.total_reward >= g2.total_reward - 1e-9, "{kernel:?}");
        assert!(opt.total_reward >= g3.total_reward - 1e-9, "{kernel:?}");
    }
}

#[test]
fn legacy_json_without_kernel_field_still_loads() {
    // Instances serialized before the kernel extension must default to
    // the paper's linear kernel.
    let json =
        r#"{"points":[[0.0,0.0],[1.0,1.0]],"weights":[1.0,2.0],"radius":1.0,"k":1,"norm":"L2"}"#;
    let inst: Instance<2> = serde_json::from_str(json).unwrap();
    assert_eq!(inst.kernel(), Kernel::Linear);
}

#[test]
fn invalid_kernel_parameters_rejected() {
    let inst = instance_with(Kernel::Linear, 1);
    let e = inst.with_kernel(Kernel::Exponential { lambda: -2.0 });
    assert!(e.is_err());
}

#[test]
fn kernel_survives_serde_roundtrip_on_instance() {
    let inst = instance_with(Kernel::Quadratic, 2);
    let json = serde_json::to_string(&inst).unwrap();
    let back: Instance<2> = serde_json::from_str(&json).unwrap();
    assert_eq!(back.kernel(), Kernel::Quadratic);
    assert_eq!(inst, back);
}
