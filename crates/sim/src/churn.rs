//! Seeded churn-plan generation for incremental instances.
//!
//! A [`ChurnPlan`] turns a single root seed into a reproducible
//! sequence of [`Delta`] batches — arrivals (inserts), departures
//! (removes) and interest drift (moves) — sized as a fraction of the
//! instance's *current* population. Every consumer of churn in the
//! workspace (`mmph solve --churn`, the `churn_floor` rounds, the
//! serve churn tests, perfbench's churn-1e6) derives its deltas here
//! so that a `(seed, step)` pair names the same workload everywhere.
//!
//! Determinism contract: each step draws from
//! `SeedSeq::new(seed).child(step).stream("churn")`, so step `s` is
//! bit-reproducible independently of how many other steps ran, and two
//! plans with different seeds decorrelate completely.
//!
//! Deltas inside a batch address the *evolving* instance — the same
//! semantics as [`mmph_core::Instance::apply_churn`]: a `Remove`
//! swap-renames the last index down, an `Insert` appends at index `n`.
//! The generator tracks the simulated population so every index it
//! emits is valid at its position in the batch, and it never emits a
//! `Remove` that would empty the instance.

use mmph_core::{Delta, Instance};
use mmph_geom::Point;
use rand::Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use crate::gen::SpaceSpec;
use crate::rng::SeedSeq;
use crate::{Result, SimError};

/// A reproducible churn workload: `steps` batches, each churning
/// `fraction` of the instance's current population, split between
/// inserts, removes and moves by the given rates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnPlan {
    /// Root seed; `(seed, step)` fully determines a batch.
    pub seed: u64,
    /// Number of churn steps in the plan.
    pub steps: usize,
    /// Fraction of the current `n` churned per step (> 0). A step
    /// always emits at least one delta.
    pub fraction: f64,
    /// Relative rate of point arrivals (uniform placement in `space`,
    /// uniform integer weight `1..=5` — the paper's weighted scheme).
    pub insert_rate: f64,
    /// Relative rate of departures (uniform index).
    pub remove_rate: f64,
    /// Relative rate of interest drift (uniform index, Gaussian step).
    pub move_rate: f64,
    /// Standard deviation of each drift component, in absolute space
    /// units. Drift targets are clamped back into `space`.
    pub move_sigma: f64,
    /// The interest space inserts are drawn from and moves are clamped
    /// to.
    pub space: SpaceSpec,
}

impl ChurnPlan {
    /// A plan with the workspace's default mix: half drift, a quarter
    /// arrivals, a quarter departures, drift σ of 5% of the space
    /// extent.
    pub fn new(seed: u64, steps: usize, fraction: f64) -> Self {
        let space = SpaceSpec::default();
        ChurnPlan {
            seed,
            steps,
            fraction,
            insert_rate: 0.25,
            remove_rate: 0.25,
            move_rate: 0.5,
            move_sigma: 0.05 * space.extent(),
            space,
        }
    }

    /// Validates the plan parameters.
    pub fn validate(&self) -> Result<()> {
        if self.steps == 0 {
            return Err(SimError::InvalidConfig(
                "churn plan needs at least one step".into(),
            ));
        }
        if !self.fraction.is_finite() || self.fraction <= 0.0 {
            return Err(SimError::InvalidConfig(format!(
                "churn fraction must be finite and > 0, got {}",
                self.fraction
            )));
        }
        let rates = [self.insert_rate, self.remove_rate, self.move_rate];
        if rates.iter().any(|r| !r.is_finite() || *r < 0.0) {
            return Err(SimError::InvalidConfig(format!(
                "churn rates must be finite and >= 0, got {rates:?}"
            )));
        }
        if rates.iter().sum::<f64>() <= 0.0 {
            return Err(SimError::InvalidConfig(
                "churn rates must not all be zero".into(),
            ));
        }
        if !self.move_sigma.is_finite() || self.move_sigma < 0.0 {
            return Err(SimError::InvalidConfig(format!(
                "move_sigma must be finite and >= 0, got {}",
                self.move_sigma
            )));
        }
        Ok(())
    }

    /// The delta batch for `step`, drawn against the instance's current
    /// state. Deterministic in `(self, step, inst.n())` — the points
    /// only seed drift *bases*, index draws depend only on the
    /// population count.
    pub fn deltas<const D: usize>(&self, step: u64, inst: &Instance<D>) -> Result<Vec<Delta<D>>> {
        self.validate()?;
        let mut rng = SeedSeq::new(self.seed).child(step).stream("churn").rng();
        let drift = Normal::new(0.0, self.move_sigma.max(1e-12))
            .map_err(|e| SimError::InvalidConfig(format!("drift distribution: {e}")))?;
        let total = self.insert_rate + self.remove_rate + self.move_rate;
        let n0 = inst.n();
        let count = ((self.fraction * n0 as f64).round() as usize).max(1);
        let mut deltas = Vec::with_capacity(count);
        let mut sim_n = n0;
        for _ in 0..count {
            let pick = rng.gen_range(0.0..total);
            let mut is_remove =
                pick >= self.insert_rate && pick < self.insert_rate + self.remove_rate;
            let mut is_insert = pick < self.insert_rate;
            // A departure that would empty the instance becomes an
            // arrival instead.
            if is_remove && sim_n == 1 {
                is_remove = false;
                is_insert = true;
            }
            if is_insert {
                let point = self.sample_point(&mut rng);
                let weight = rng.gen_range(1u32..=5) as f64;
                deltas.push(Delta::Insert { point, weight });
                sim_n += 1;
            } else if is_remove {
                let index = rng.gen_range(0..sim_n);
                deltas.push(Delta::Remove { index });
                sim_n -= 1;
            } else {
                let index = rng.gen_range(0..sim_n);
                // Drift from the pre-batch coordinate when the index
                // still names an original point; in-batch arrivals
                // drift from a fresh uniform base.
                let base = if index < n0 {
                    *inst.point(index)
                } else {
                    self.sample_point(&mut rng)
                };
                let mut to = base.0;
                for c in to.iter_mut() {
                    *c = (*c + drift.sample(&mut rng)).clamp(self.space.lo, self.space.hi);
                }
                deltas.push(Delta::Move {
                    index,
                    to: Point::new(to),
                });
            }
        }
        Ok(deltas)
    }

    fn sample_point<const D: usize, R: Rng>(&self, rng: &mut R) -> Point<D> {
        let mut c = [0.0; D];
        for x in c.iter_mut() {
            *x = rng.gen_range(self.space.lo..self.space.hi);
        }
        Point::new(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmph_core::{EngineKind, IncrementalInstance, InstanceBuilder};

    fn instance(n: usize) -> Instance<2> {
        let mut b = InstanceBuilder::new();
        for i in 0..n {
            b = b.point([(i % 5) as f64 * 0.8, (i / 5) as f64 * 0.8], 1.0);
        }
        b.radius(1.0).k(3.min(n)).build().unwrap()
    }

    #[test]
    fn deltas_are_reproducible_and_decorrelated() {
        let inst = instance(40);
        let plan = ChurnPlan::new(7, 4, 0.1);
        let a = plan.deltas(2, &inst).unwrap();
        let b = plan.deltas(2, &inst).unwrap();
        assert_eq!(a, b, "same (seed, step) must replay identically");
        let c = plan.deltas(3, &inst).unwrap();
        assert_ne!(a, c, "steps decorrelate");
        let other = ChurnPlan::new(8, 4, 0.1);
        assert_ne!(a, other.deltas(2, &inst).unwrap(), "seeds decorrelate");
        assert_eq!(a.len(), 4, "10% of 40");
    }

    #[test]
    fn batches_apply_cleanly_even_from_n_one() {
        // All-remove mix against a single point: every departure is
        // converted to an arrival, so the batch still applies.
        let inst = instance(1);
        let plan = ChurnPlan {
            insert_rate: 0.0,
            remove_rate: 1.0,
            move_rate: 0.0,
            ..ChurnPlan::new(11, 1, 3.0)
        };
        let deltas = plan.deltas(0, &inst).unwrap();
        assert_eq!(deltas.len(), 3);
        let mut inc = IncrementalInstance::new(inst, EngineKind::Sparse).unwrap();
        inc.apply_churn(&deltas).unwrap();
        assert!(inc.instance().n() >= 1);
        inc.verify_against_rebuild().unwrap();
    }

    #[test]
    fn long_mixed_plan_keeps_patched_csr_equal_to_rebuild() {
        let inst = instance(30);
        let plan = ChurnPlan::new(0x5EED, 8, 0.2);
        let mut inc = IncrementalInstance::new(inst, EngineKind::Sparse).unwrap();
        for step in 0..plan.steps as u64 {
            let deltas = plan.deltas(step, inc.instance()).unwrap();
            inc.apply_churn(&deltas).unwrap();
        }
        inc.verify_against_rebuild().unwrap();
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let inst = instance(4);
        assert!(ChurnPlan::new(0, 0, 0.1).deltas(0, &inst).is_err());
        assert!(ChurnPlan::new(0, 1, 0.0).deltas(0, &inst).is_err());
        let all_zero = ChurnPlan {
            insert_rate: 0.0,
            remove_rate: 0.0,
            move_rate: 0.0,
            ..ChurnPlan::new(0, 1, 0.1)
        };
        assert!(all_zero.deltas(0, &inst).is_err());
    }
}
