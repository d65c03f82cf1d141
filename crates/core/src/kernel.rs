//! Reward decay kernels — a generalization of the paper's Eq. (1).
//!
//! The paper's reward decays **linearly** with interest distance:
//! `psi = w (1 − d/r)` inside the radius. Nothing in the round
//! framework, the submodularity proof (Lemma 0a works for any
//! per-center contribution in `[0, 1]`), or the greedy machinery
//! depends on linearity — only on the per-center coverage fraction
//! being in `[0, 1]` and non-increasing in `d`. [`Kernel`] captures
//! exactly that family:
//!
//! * [`Kernel::Linear`] — the paper's kernel (the default).
//! * [`Kernel::Step`] — 1 inside the radius, 0 outside: the classic
//!   **weighted maximum coverage** objective the paper cites as its
//!   ancestor (§II-B); with this kernel `LocalGreedy` *is* the textbook
//!   weighted max-coverage greedy, giving the natural baseline.
//! * [`Kernel::Quadratic`] — `1 − (d/r)²`: flatter near the center,
//!   steeper at the rim (users tolerate small mismatches).
//! * [`Kernel::Exponential`] — `(e^{−λ d/r} − e^{−λ}) / (1 − e^{−λ})`,
//!   normalized to hit 1 at `d = 0` and 0 at `d = r`: sharply peaked
//!   interest matching.
//!
//! Every kernel is continuous on `[0, r]` except `Step`, maps `d = 0`
//! to 1 (full reward at a perfect match) and `d > r` to 0, and is
//! non-increasing — properties the tests pin down, because they are
//! what keeps the objective monotone submodular and every greedy bound
//! valid.

use serde::{Deserialize, Serialize};

/// A reward decay kernel: coverage fraction as a function of `d / r`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Kernel {
    /// The paper's linear decay `[1 − d/r]₊` (Eq. 1).
    #[default]
    Linear,
    /// Binary coverage `1{d ≤ r}` — classic weighted max coverage.
    Step,
    /// Quadratic decay `[1 − (d/r)²]₊`.
    Quadratic,
    /// Truncated, normalized exponential decay with rate `lambda > 0`.
    Exponential {
        /// Decay rate; larger is more sharply peaked.
        lambda: f64,
    },
}

impl Kernel {
    /// The coverage fraction contributed by one center at distance `d`
    /// with interest radius `r`. Always in `[0, 1]`, non-increasing in
    /// `d`, and 0 beyond the radius. Boundary `d = r` is covered (with
    /// fraction 0 for the continuous kernels, 1 for `Step`), matching
    /// the paper's `d ≤ r` condition.
    #[inline]
    pub fn frac(&self, d: f64, r: f64) -> f64 {
        self.prepared().frac(d, r)
    }

    /// Hoists the kernel's per-call constants (for `Exponential`, the
    /// `e^{-λ}` endpoint and the `1 − e^{-λ}` normalizer) into a
    /// [`PreparedKernel`]. Engines evaluating many distances against a
    /// fixed kernel prepare once and reuse, paying one `exp()` per
    /// distance instead of two. `PreparedKernel::frac` computes the
    /// identical expression, so results are bit-for-bit equal to the
    /// unprepared path.
    #[inline]
    pub fn prepared(&self) -> PreparedKernel {
        let (e_r, denom) = match *self {
            Kernel::Exponential { lambda } => {
                let e_r = (-lambda).exp();
                (e_r, 1.0 - e_r)
            }
            _ => (0.0, 1.0),
        };
        PreparedKernel {
            kernel: *self,
            e_r,
            denom,
        }
    }

    /// Validates kernel parameters.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Kernel::Exponential { lambda } if !lambda.is_finite() || lambda <= 0.0 => Err(format!(
                "Exponential kernel needs finite lambda > 0, got {lambda}"
            )),
            _ => Ok(()),
        }
    }

    /// Short name for tables ("linear", "step", ...).
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Linear => "linear",
            Kernel::Step => "step",
            Kernel::Quadratic => "quadratic",
            Kernel::Exponential { .. } => "exponential",
        }
    }
}

/// A [`Kernel`] with its evaluation constants precomputed — see
/// [`Kernel::prepared`]. Cheap to copy; engines cache one per solve.
#[derive(Debug, Clone, Copy)]
pub struct PreparedKernel {
    kernel: Kernel,
    /// `e^{-λ}` for `Exponential`; unused otherwise.
    e_r: f64,
    /// `1 − e^{-λ}` for `Exponential`; 1.0 otherwise.
    denom: f64,
}

/// A computation generic over one kernel's fraction formula:
/// [`PreparedKernel::dispatch`] matches the kernel variant once and runs
/// the pass with that variant's `frac(d, r)`, so a hot loop inside the
/// pass branches on the kernel once instead of once per distance.
pub(crate) trait FracPass {
    type Output;
    fn run(self, frac: impl Fn(f64, f64) -> f64 + Copy + Send + Sync) -> Self::Output;
}

/// The rim cut every kernel shares: 0 beyond the radius, else the
/// kernel's shape at `t = d / r`.
#[inline(always)]
fn cut(d: f64, r: f64, shape: impl Fn(f64) -> f64) -> f64 {
    debug_assert!(r > 0.0);
    if d > r {
        return 0.0;
    }
    shape(d / r)
}

// The kernel shapes at `t = d / r ∈ [0, 1]`, one source for both the
// per-call and the dispatched fraction.

#[inline(always)]
fn linear(t: f64) -> f64 {
    1.0 - t
}

#[inline(always)]
fn step(_t: f64) -> f64 {
    1.0
}

#[inline(always)]
fn quadratic(t: f64) -> f64 {
    1.0 - t * t
}

#[inline(always)]
fn exponential(t: f64, lambda: f64, e_r: f64, denom: f64) -> f64 {
    (((-lambda * t).exp()) - e_r) / denom
}

impl PreparedKernel {
    /// Coverage fraction at distance `d` with radius `r` — the same
    /// expression as [`Kernel::frac`], term for term (the division by
    /// the normalizer is kept a division so results stay bit-identical).
    #[inline]
    pub fn frac(&self, d: f64, r: f64) -> f64 {
        debug_assert!(r > 0.0);
        if d > r {
            return 0.0;
        }
        let t = d / r;
        match self.kernel {
            Kernel::Linear => linear(t),
            Kernel::Step => step(t),
            Kernel::Quadratic => quadratic(t),
            Kernel::Exponential { lambda } => exponential(t, lambda, self.e_r, self.denom),
        }
    }

    /// Runs `pass` with this kernel's fraction formula: [`Self::frac`]
    /// with the variant matched once, up front.
    #[inline]
    pub(crate) fn dispatch<P: FracPass>(&self, pass: P) -> P::Output {
        let (e_r, denom) = (self.e_r, self.denom);
        match self.kernel {
            Kernel::Linear => pass.run(|d, r| cut(d, r, linear)),
            Kernel::Step => pass.run(|d, r| cut(d, r, step)),
            Kernel::Quadratic => pass.run(|d, r| cut(d, r, quadratic)),
            Kernel::Exponential { lambda } => {
                pass.run(move |d, r| cut(d, r, |t| exponential(t, lambda, e_r, denom)))
            }
        }
    }

    /// The kernel this was prepared from.
    #[inline]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: [Kernel; 4] = [
        Kernel::Linear,
        Kernel::Step,
        Kernel::Quadratic,
        Kernel::Exponential { lambda: 3.0 },
    ];

    #[test]
    fn perfect_match_gives_full_fraction() {
        for k in KERNELS {
            assert!((k.frac(0.0, 1.0) - 1.0).abs() < 1e-12, "{k:?}");
            assert!((k.frac(0.0, 2.5) - 1.0).abs() < 1e-12, "{k:?}");
        }
    }

    #[test]
    fn outside_radius_gives_zero() {
        for k in KERNELS {
            assert_eq!(k.frac(1.0 + 1e-9, 1.0), 0.0, "{k:?}");
            assert_eq!(k.frac(100.0, 2.0), 0.0, "{k:?}");
        }
    }

    #[test]
    fn boundary_values() {
        // Continuous kernels vanish at the rim; step stays 1.
        assert!(Kernel::Linear.frac(1.0, 1.0).abs() < 1e-12);
        assert!(Kernel::Quadratic.frac(1.0, 1.0).abs() < 1e-12);
        assert!(Kernel::Exponential { lambda: 2.0 }.frac(1.0, 1.0).abs() < 1e-12);
        assert_eq!(Kernel::Step.frac(1.0, 1.0), 1.0);
    }

    #[test]
    fn fractions_in_unit_interval_and_nonincreasing() {
        for k in KERNELS {
            let mut prev = f64::INFINITY;
            for i in 0..=100 {
                let d = i as f64 / 100.0 * 1.5; // sweep past the radius
                let f = k.frac(d, 1.0);
                assert!((0.0..=1.0).contains(&f), "{k:?} at d={d}: {f}");
                assert!(f <= prev + 1e-12, "{k:?} not monotone at d={d}");
                prev = f;
            }
        }
    }

    #[test]
    fn kernel_ordering_inside_radius() {
        // step >= quadratic >= linear for all d in (0, r).
        for i in 1..10 {
            let d = i as f64 / 10.0;
            assert!(Kernel::Step.frac(d, 1.0) >= Kernel::Quadratic.frac(d, 1.0));
            assert!(Kernel::Quadratic.frac(d, 1.0) >= Kernel::Linear.frac(d, 1.0));
        }
    }

    #[test]
    fn linear_matches_paper_formula() {
        assert!((Kernel::Linear.frac(0.25, 1.0) - 0.75).abs() < 1e-12);
        assert!((Kernel::Linear.frac(1.0, 2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exponential_validation() {
        assert!(Kernel::Exponential { lambda: 1.0 }.validate().is_ok());
        assert!(Kernel::Exponential { lambda: 0.0 }.validate().is_err());
        assert!(Kernel::Exponential { lambda: -1.0 }.validate().is_err());
        assert!(Kernel::Exponential { lambda: f64::NAN }.validate().is_err());
        assert!(Kernel::Linear.validate().is_ok());
    }

    #[test]
    fn serde_roundtrip_and_default() {
        assert_eq!(Kernel::default(), Kernel::Linear);
        for k in KERNELS {
            let json = serde_json::to_string(&k).unwrap();
            let back: Kernel = serde_json::from_str(&json).unwrap();
            assert_eq!(k, back);
        }
    }

    #[test]
    fn prepared_is_bit_identical_to_direct() {
        // The prepared path must reproduce every kernel exactly,
        // including the historical two-exp exponential expression.
        let unhoisted = |k: Kernel, d: f64, r: f64| -> f64 {
            if d > r {
                return 0.0;
            }
            let t = d / r;
            match k {
                Kernel::Linear => 1.0 - t,
                Kernel::Step => 1.0,
                Kernel::Quadratic => 1.0 - t * t,
                Kernel::Exponential { lambda } => {
                    let e_r = (-lambda).exp();
                    (((-lambda * t).exp()) - e_r) / (1.0 - e_r)
                }
            }
        };
        for k in KERNELS
            .into_iter()
            .chain([Kernel::Exponential { lambda: 0.7 }])
        {
            let p = k.prepared();
            for i in 0..=300 {
                let d = i as f64 / 200.0; // sweeps past r for both radii
                for r in [1.0, 1.3] {
                    assert_eq!(
                        p.frac(d, r).to_bits(),
                        unhoisted(k, d, r).to_bits(),
                        "{k:?} d={d} r={r}"
                    );
                    assert_eq!(k.frac(d, r).to_bits(), p.frac(d, r).to_bits());
                }
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(Kernel::Linear.name(), "linear");
        assert_eq!(Kernel::Step.name(), "step");
        assert_eq!(Kernel::Quadratic.name(), "quadratic");
        assert_eq!(Kernel::Exponential { lambda: 1.0 }.name(), "exponential");
    }
}
