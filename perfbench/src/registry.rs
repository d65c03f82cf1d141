//! The benchmark's definition: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root mirrors these tables; `tests/benchmark_def.rs` holds
//! the two equal.

/// Seconds one run measures, unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 20;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, failures).
    Lower,
    /// Larger is better (throughput, reward).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit, direction and, for end-to-end metrics,
/// the share of the parent's median by which it may worsen before a
/// change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Unique name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// One workload and the reason the benchmark runs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: what this workload exercises that the others do not.
    pub why: &'static str,
}

/// The four workloads. Each stresses a different layer; see
/// `BENCHMARK.md` for the layer table.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "serve-mix",
        why: "TCP request mix of small solves, open loop at 200 req/s: dispatch rounds, envelope and transport do the work, so kernel changes should not move it",
    },
    WorkloadDef {
        name: "solve-1e6",
        why: "Cold n=10^6 sparse solves over stdio: the CSR build is ~90% of each solve and the 1 GiB CSR is 3x the LLC, the memory-bound build-and-kernel path",
    },
    WorkloadDef {
        name: "churn-1e6",
        why: "0.5% churn rounds of mutate+resolve at n=10^6: in-place CSR patching, warm resolve, large mutate lines and the amortized compaction rebuild",
    },
    WorkloadDef {
        name: "coreset-1e7",
        why: "One n=10^7 auto-engine solve that escalates to the coreset pipeline: grid bucketing plus a reduced solve that falls back to the kd engine",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload with tracing off. An
/// "op" is the workload's unit of user-visible work: a request
/// (serve-mix), a solve (solve-1e6, coreset-1e7) or a mutate+resolve
/// round (churn-1e6). `objective` is answer quality: the served reward
/// over the reward of the harness's own exact greedy on the same
/// instance (`reference.rs`), so it does not vary with the seed's
/// instance the way the raw reward does.
///
/// A bound holds for every workload, so it must cover the noisiest
/// one. See `BENCHMARK.md` for the spreads each bound was set from.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("objective", "ratio", Higher, 0.015),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Per-layer metrics, reported by every workload's traced run; a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("unattributed_frac", "fraction", Lower),
    layer("sim.gen_ms", "ms", Lower),
    layer("reward.build_ms", "ms", Lower),
    layer("reward.entries", "count", Lower),
    layer("reward.csr_bytes", "B", Lower),
    layer("reward.est_bytes", "B", Lower),
    layer("oracle.solve_ms", "ms", Lower),
    layer("oracle.evals", "count", Lower),
    layer("oracle.dirty_skips", "count", Higher),
    layer("oracle.picks_per_eval", "ratio", Higher),
    layer("kernel.evals_per_s", "1/s", Higher),
    layer("kernel.bytes_per_eval", "B", Lower),
    layer("incremental.init_ms", "ms", Lower),
    layer("incremental.patch_ms.p50", "ms", Lower),
    layer("incremental.patch_ms.p90", "ms", Lower),
    layer("incremental.resolve_ms.p50", "ms", Lower),
    layer("incremental.resolve_ms.p90", "ms", Lower),
    layer("incremental.rebuilds", "count", Lower),
    layer("incremental.rebuild_ms", "ms", Lower),
    layer("incremental.dead_entries.max", "count", Lower),
    layer("incremental.resolve_evals", "count", Lower),
    layer("incremental.swaps", "count", Lower),
    layer("incremental.warm_frac", "fraction", Higher),
    layer("coreset.build_ms", "ms", Lower),
    layer("coreset.reduction", "ratio", Higher),
    layer("coreset.solve_ms", "ms", Lower),
    layer("coreset.sparse_engine", "bool", Higher),
    layer("coreset.evals", "count", Lower),
    layer("coreset.full_pass_ms", "ms", Lower),
    layer("coreset.gap", "fraction", Lower),
    layer("coreset.bound_ratio", "ratio", Lower),
    layer("service.ms.hot", "ms", Lower),
    layer("service.ms.fresh", "ms", Lower),
    layer("service.ms.budgeted", "ms", Lower),
    layer("service.ms.ping", "ms", Lower),
    layer("serve.queue_ms.p50", "ms", Lower),
    layer("serve.queue_ms.p99", "ms", Lower),
    layer("serve.server_ms.p50", "ms", Lower),
    layer("serve.server_ms.p99", "ms", Lower),
    layer("serve.engine_reuse_frac", "fraction", Higher),
    layer("envelope.parse_us.mutate", "us", Lower),
    layer("envelope.parse_us.solve", "us", Lower),
    layer("envelope.encode_us.solve", "us", Lower),
    layer("envelope.bytes.mutate", "B", Lower),
    layer("transport.ms.p50", "ms", Lower),
    layer("transport.ms.p99", "ms", Lower),
    layer("loadgen.late_ms.max", "ms", Lower),
];

/// The definition of a metric by name, searching both tables.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The workload of that name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}
