//! Synthetic workload generators.
//!
//! The paper's evaluation (§VI-A) places nodes uniformly at random in a
//! `4 × 4` 2-D space or a `4 × 4 × 4` 3-D space, with weights either all
//! 1 ("same weight") or uniform integers in `1..=5` ("different
//! weight"). [`PointDistribution::Uniform`] + [`WeightScheme`] reproduce
//! exactly that; the other distributions are extensions used by the
//! examples and the broadcast simulation (real interest spaces are
//! clustered, not uniform).

use mmph_geom::{Aabb, Point};
use rand::Rng;
use rand_distr::{Distribution, Normal, Zipf};
use serde::{Deserialize, Serialize};

use crate::rng::SeedSeq;
use crate::{Result, SimError};

/// The axis-aligned interest space points are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpaceSpec {
    /// Lower bound of every coordinate.
    pub lo: f64,
    /// Upper bound of every coordinate.
    pub hi: f64,
}

impl SpaceSpec {
    /// The paper's space: `[0, 4]` per dimension.
    pub const PAPER: SpaceSpec = SpaceSpec { lo: 0.0, hi: 4.0 };

    /// Creates a validated space.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(SimError::InvalidConfig(format!(
                "space bounds must be finite with lo < hi, got [{lo}, {hi}]"
            )));
        }
        Ok(SpaceSpec { lo, hi })
    }

    /// Side length.
    pub fn extent(&self) -> f64 {
        self.hi - self.lo
    }

    /// The space as a box in `R^D`.
    pub fn aabb<const D: usize>(&self) -> Aabb<D> {
        Aabb::cube(self.lo, self.hi)
    }
}

impl Default for SpaceSpec {
    fn default() -> Self {
        SpaceSpec::PAPER
    }
}

/// How node weights (maximum rewards) are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WeightScheme {
    /// Every node has weight 1 (the paper's "same weight" scheme).
    Same,
    /// Uniform random integer in `lo..=hi` (the paper's "different
    /// weight" scheme uses `1..=5`).
    UniformInt {
        /// Smallest weight (>= 1).
        lo: u32,
        /// Largest weight (>= lo).
        hi: u32,
    },
    /// Zipf-distributed integer ranks in `1..=n_ranks` with exponent
    /// `s` — a heavy-tailed popularity model (extension).
    Zipf {
        /// Number of distinct weight ranks.
        n_ranks: u32,
        /// Zipf exponent (> 0).
        s: f64,
    },
}

impl WeightScheme {
    /// The paper's "different weight" scheme: uniform integers 1..=5.
    pub const PAPER_WEIGHTED: WeightScheme = WeightScheme::UniformInt { lo: 1, hi: 5 };

    /// Validates the scheme parameters.
    pub fn validate(&self) -> Result<()> {
        match *self {
            WeightScheme::Same => Ok(()),
            WeightScheme::UniformInt { lo, hi } => {
                if lo == 0 || hi < lo {
                    Err(SimError::InvalidConfig(format!(
                        "UniformInt weights need 1 <= lo <= hi, got {lo}..={hi}"
                    )))
                } else {
                    Ok(())
                }
            }
            WeightScheme::Zipf { n_ranks, s } => {
                if n_ranks == 0 || !s.is_finite() || s <= 0.0 {
                    Err(SimError::InvalidConfig(format!(
                        "Zipf weights need n_ranks >= 1 and finite s > 0, got n_ranks={n_ranks} s={s}"
                    )))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Draws `n` weights.
    pub fn sample(&self, n: usize, seeds: SeedSeq) -> Result<Vec<f64>> {
        self.validate()?;
        let mut rng = seeds.stream("weights").rng();
        Ok(match *self {
            WeightScheme::Same => vec![1.0; n],
            WeightScheme::UniformInt { lo, hi } => {
                (0..n).map(|_| rng.gen_range(lo..=hi) as f64).collect()
            }
            WeightScheme::Zipf { n_ranks, s } => {
                let zipf = Zipf::new(u64::from(n_ranks), s).map_err(|e| {
                    SimError::InvalidConfig(format!("zipf parameters rejected: {e}"))
                })?;
                (0..n).map(|_| zipf.sample(&mut rng)).collect()
            }
        })
    }
}

/// How node positions are placed in the space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PointDistribution {
    /// Uniform over the space (the paper's placement).
    Uniform,
    /// Mixture of isotropic Gaussian clusters with the given relative
    /// standard deviation (fraction of the space extent); points are
    /// clamped into the space. Cluster centers are themselves uniform.
    GaussianClusters {
        /// Number of clusters (>= 1).
        clusters: usize,
        /// Cluster std-dev as a fraction of the space extent (> 0).
        rel_sigma: f64,
    },
    /// A jittered regular grid: the nearest `ceil(n^(1/D))`-per-side
    /// lattice with uniform jitter of the given relative magnitude.
    JitteredGrid {
        /// Jitter as a fraction of the cell size (>= 0).
        rel_jitter: f64,
    },
    /// A ring (2-D) / sphere shell (3-D) of relative radius, with
    /// Gaussian thickness. Models polarized interests.
    Ring {
        /// Ring radius as a fraction of the half-extent (in (0, 1]).
        rel_radius: f64,
        /// Shell thickness (std-dev) as a fraction of the extent.
        rel_sigma: f64,
    },
}

impl PointDistribution {
    /// Validates the distribution parameters.
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: String| Err(SimError::InvalidConfig(msg));
        match *self {
            PointDistribution::Uniform => Ok(()),
            PointDistribution::GaussianClusters {
                clusters,
                rel_sigma,
            } => {
                if clusters == 0 || !rel_sigma.is_finite() || rel_sigma <= 0.0 {
                    bad(format!(
                        "GaussianClusters needs clusters >= 1 and rel_sigma > 0, got {clusters}, {rel_sigma}"
                    ))
                } else {
                    Ok(())
                }
            }
            PointDistribution::JitteredGrid { rel_jitter } => {
                if !rel_jitter.is_finite() || rel_jitter < 0.0 {
                    bad(format!(
                        "JitteredGrid needs rel_jitter >= 0, got {rel_jitter}"
                    ))
                } else {
                    Ok(())
                }
            }
            PointDistribution::Ring {
                rel_radius,
                rel_sigma,
            } => {
                if !rel_radius.is_finite()
                    || rel_radius <= 0.0
                    || rel_radius > 1.0
                    || !rel_sigma.is_finite()
                    || rel_sigma < 0.0
                {
                    bad(format!(
                        "Ring needs 0 < rel_radius <= 1 and rel_sigma >= 0, got {rel_radius}, {rel_sigma}"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Draws `n` points in the space.
    pub fn sample<const D: usize>(
        &self,
        n: usize,
        space: SpaceSpec,
        seeds: SeedSeq,
    ) -> Result<Vec<Point<D>>> {
        self.validate()?;
        let mut rng = seeds.stream("points").rng();
        let bbox = space.aabb::<D>();
        let mut out = Vec::with_capacity(n);
        match *self {
            PointDistribution::Uniform => {
                for _ in 0..n {
                    let mut c = [0.0; D];
                    for x in c.iter_mut() {
                        *x = rng.gen_range(space.lo..space.hi);
                    }
                    out.push(Point::new(c));
                }
            }
            PointDistribution::GaussianClusters {
                clusters,
                rel_sigma,
            } => {
                let centers: Vec<Point<D>> = (0..clusters)
                    .map(|_| {
                        let mut c = [0.0; D];
                        for x in c.iter_mut() {
                            *x = rng.gen_range(space.lo..space.hi);
                        }
                        Point::new(c)
                    })
                    .collect();
                let sigma = rel_sigma * space.extent();
                let normal = Normal::new(0.0, sigma)
                    .map_err(|e| SimError::InvalidConfig(format!("normal: {e}")))?;
                for i in 0..n {
                    let center = centers[i % clusters];
                    let mut c = [0.0; D];
                    for (d, x) in c.iter_mut().enumerate() {
                        *x = center[d] + normal.sample(&mut rng);
                    }
                    out.push(bbox.clamp(&Point::new(c)));
                }
            }
            PointDistribution::JitteredGrid { rel_jitter } => {
                let per_side = (n as f64).powf(1.0 / D as f64).ceil() as usize;
                let per_side = per_side.max(1);
                let cell = space.extent() / per_side as f64;
                'outer: for cell_idx in 0..per_side.pow(D as u32) {
                    if out.len() == n {
                        break 'outer;
                    }
                    let mut rem = cell_idx;
                    let mut c = [0.0; D];
                    for x in c.iter_mut() {
                        let i = rem % per_side;
                        rem /= per_side;
                        let jitter = if rel_jitter > 0.0 {
                            rng.gen_range(-0.5..0.5) * rel_jitter * cell
                        } else {
                            0.0
                        };
                        *x = space.lo + (i as f64 + 0.5) * cell + jitter;
                    }
                    out.push(bbox.clamp(&Point::new(c)));
                }
                // If the lattice undershot (n not a perfect power),
                // fill the remainder uniformly.
                while out.len() < n {
                    let mut c = [0.0; D];
                    for x in c.iter_mut() {
                        *x = rng.gen_range(space.lo..space.hi);
                    }
                    out.push(Point::new(c));
                }
            }
            PointDistribution::Ring {
                rel_radius,
                rel_sigma,
            } => {
                let center = Point::<D>::splat((space.lo + space.hi) * 0.5);
                let radius = rel_radius * space.extent() * 0.5;
                let normal = Normal::new(0.0, (rel_sigma * space.extent()).max(1e-12))
                    .map_err(|e| SimError::InvalidConfig(format!("normal: {e}")))?;
                for _ in 0..n {
                    // Random direction: normalized Gaussian vector.
                    let mut dir = [0.0; D];
                    let gauss = Normal::new(0.0, 1.0).expect("unit normal");
                    let mut len_sq = 0.0f64;
                    for x in dir.iter_mut() {
                        *x = gauss.sample(&mut rng);
                        len_sq += *x * *x;
                    }
                    let len = len_sq.sqrt().max(1e-12);
                    let r = radius + normal.sample(&mut rng);
                    let mut c = [0.0; D];
                    for d in 0..D {
                        c[d] = center[d] + dir[d] / len * r;
                    }
                    out.push(bbox.clamp(&Point::new(c)));
                }
            }
        }
        Ok(out)
    }
}

/// Radius pinning the expected within-radius L2 neighbor count to
/// `degree` for `n` uniform points in a 2-D `space`: solves
/// `n · π r² / extent² = degree`. The large-n pipeline benches use
/// this to dial the CSR footprint (`≈ n · degree · 20` bytes)
/// precisely at any scale.
pub fn radius_for_degree_2d(n: usize, degree: f64, space: SpaceSpec) -> Result<f64> {
    if n == 0 {
        return Err(SimError::InvalidConfig(
            "degree-pinned radius needs n >= 1".into(),
        ));
    }
    if !(degree > 0.0 && degree.is_finite()) {
        return Err(SimError::InvalidConfig(format!(
            "expected degree must be positive and finite (got {degree})"
        )));
    }
    Ok(space.extent() * (degree / (std::f64::consts::PI * n as f64)).sqrt())
}

/// Degree-pinned uniform 2-D instance at any scale: `n` uniform
/// points in `space` with paper weights and the radius from
/// [`radius_for_degree_2d`], deterministically derived from `seed`.
/// This is the generator behind the degree-pinned sweeps, the
/// escalation test and the timing floors, where scenario documents
/// (which pin `r` literally) are too rigid to hold the degree constant
/// across sizes.
pub fn uniform_degree_instance_2d(
    n: usize,
    k: usize,
    degree: f64,
    space: SpaceSpec,
    seed: u64,
) -> Result<mmph_core::Instance<2>> {
    let r = radius_for_degree_2d(n, degree, space)?;
    let seeds = SeedSeq::new(seed).child(n as u64);
    let points = PointDistribution::Uniform.sample::<2>(n, space, seeds)?;
    let weights = WeightScheme::PAPER_WEIGHTED.sample(n, seeds)?;
    mmph_core::Instance::new(points, weights, r, k, mmph_geom::Norm::L2).map_err(SimError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds() -> SeedSeq {
        SeedSeq::new(42)
    }

    #[test]
    fn space_validation() {
        assert!(SpaceSpec::new(0.0, 4.0).is_ok());
        assert!(SpaceSpec::new(4.0, 0.0).is_err());
        assert!(SpaceSpec::new(1.0, 1.0).is_err());
        assert!(SpaceSpec::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn uniform_points_stay_in_space() {
        let pts: Vec<Point<2>> = PointDistribution::Uniform
            .sample(500, SpaceSpec::PAPER, seeds())
            .unwrap();
        assert_eq!(pts.len(), 500);
        for p in &pts {
            assert!(p[0] >= 0.0 && p[0] < 4.0);
            assert!(p[1] >= 0.0 && p[1] < 4.0);
        }
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let a: Vec<Point<2>> = PointDistribution::Uniform
            .sample(50, SpaceSpec::PAPER, seeds())
            .unwrap();
        let b: Vec<Point<2>> = PointDistribution::Uniform
            .sample(50, SpaceSpec::PAPER, seeds())
            .unwrap();
        assert_eq!(a, b);
        let c: Vec<Point<2>> = PointDistribution::Uniform
            .sample(50, SpaceSpec::PAPER, SeedSeq::new(43))
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_covers_the_space_roughly() {
        // Mean of 2000 uniform points in [0,4] should be close to 2.
        let pts: Vec<Point<2>> = PointDistribution::Uniform
            .sample(2000, SpaceSpec::PAPER, seeds())
            .unwrap();
        let mean = Point::centroid(&pts).unwrap();
        assert!((mean[0] - 2.0).abs() < 0.15, "mean {mean}");
        assert!((mean[1] - 2.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn same_weights_are_all_one() {
        let ws = WeightScheme::Same.sample(10, seeds()).unwrap();
        assert_eq!(ws, vec![1.0; 10]);
    }

    #[test]
    fn paper_weighted_in_range() {
        let ws = WeightScheme::PAPER_WEIGHTED.sample(1000, seeds()).unwrap();
        assert!(ws.iter().all(|&w| (1.0..=5.0).contains(&w)));
        assert!(ws.iter().all(|&w| w.fract() == 0.0), "integer weights");
        // All five values should appear in 1000 draws.
        for v in 1..=5 {
            assert!(ws.contains(&(v as f64)), "missing weight {v}");
        }
    }

    #[test]
    fn weight_scheme_validation() {
        assert!(WeightScheme::UniformInt { lo: 0, hi: 5 }
            .validate()
            .is_err());
        assert!(WeightScheme::UniformInt { lo: 3, hi: 2 }
            .validate()
            .is_err());
        assert!(WeightScheme::Zipf { n_ranks: 0, s: 1.0 }
            .validate()
            .is_err());
        assert!(WeightScheme::Zipf {
            n_ranks: 5,
            s: -1.0
        }
        .validate()
        .is_err());
        assert!(WeightScheme::Zipf { n_ranks: 5, s: 1.1 }.validate().is_ok());
    }

    #[test]
    fn zipf_weights_heavy_tailed() {
        let ws = WeightScheme::Zipf {
            n_ranks: 10,
            s: 1.2,
        }
        .sample(2000, seeds())
        .unwrap();
        assert!(ws.iter().all(|&w| (1.0..=10.0).contains(&w)));
        // Rank 1 must dominate.
        let ones = ws.iter().filter(|&&w| w == 1.0).count();
        assert!(ones > 600, "rank-1 count {ones}");
    }

    #[test]
    fn clusters_concentrate_points() {
        let pts: Vec<Point<2>> = PointDistribution::GaussianClusters {
            clusters: 2,
            rel_sigma: 0.02,
        }
        .sample(200, SpaceSpec::PAPER, seeds())
        .unwrap();
        // With tiny sigma, points split into two tight groups: the mean
        // pairwise distance within alternating halves is small.
        let d01 = pts[0].dist_l2(&pts[2]); // same cluster (i % 2)
        assert!(d01 < 0.5, "same-cluster distance {d01}");
        assert_eq!(pts.len(), 200);
        for p in &pts {
            assert!(p[0] >= 0.0 && p[0] <= 4.0);
        }
    }

    #[test]
    fn jittered_grid_counts_and_bounds() {
        for n in [1usize, 7, 16, 100] {
            let pts: Vec<Point<2>> = PointDistribution::JitteredGrid { rel_jitter: 0.3 }
                .sample(n, SpaceSpec::PAPER, seeds())
                .unwrap();
            assert_eq!(pts.len(), n);
            for p in &pts {
                assert!(p[0] >= 0.0 && p[0] <= 4.0);
            }
        }
    }

    #[test]
    fn zero_jitter_grid_is_regular() {
        let pts: Vec<Point<2>> = PointDistribution::JitteredGrid { rel_jitter: 0.0 }
            .sample(4, SpaceSpec::PAPER, seeds())
            .unwrap();
        // 2x2 lattice of cell centers: (1,1), (3,1), (1,3), (3,3).
        assert!(pts.contains(&Point::new([1.0, 1.0])));
        assert!(pts.contains(&Point::new([3.0, 3.0])));
    }

    #[test]
    fn ring_points_near_ring() {
        let pts: Vec<Point<2>> = PointDistribution::Ring {
            rel_radius: 0.5,
            rel_sigma: 0.01,
        }
        .sample(300, SpaceSpec::PAPER, seeds())
        .unwrap();
        let center = Point::new([2.0, 2.0]);
        for p in &pts {
            let d = center.dist_l2(p);
            assert!((d - 1.0).abs() < 0.3, "distance {d}");
        }
    }

    #[test]
    fn distribution_validation() {
        assert!(PointDistribution::GaussianClusters {
            clusters: 0,
            rel_sigma: 0.1
        }
        .validate()
        .is_err());
        assert!(PointDistribution::GaussianClusters {
            clusters: 2,
            rel_sigma: 0.0
        }
        .validate()
        .is_err());
        assert!(PointDistribution::JitteredGrid { rel_jitter: -0.1 }
            .validate()
            .is_err());
        assert!(PointDistribution::Ring {
            rel_radius: 1.5,
            rel_sigma: 0.1
        }
        .validate()
        .is_err());
    }

    #[test]
    fn three_dimensional_uniform() {
        let pts: Vec<Point<3>> = PointDistribution::Uniform
            .sample(100, SpaceSpec::PAPER, seeds())
            .unwrap();
        assert_eq!(pts.len(), 100);
        for p in &pts {
            for d in 0..3 {
                assert!(p[d] >= 0.0 && p[d] < 4.0);
            }
        }
    }

    #[test]
    fn degree_pinned_radius_hits_the_expected_neighbor_count() {
        // Analytic check: n·πr²/extent² must equal the requested degree.
        let n = 50_000;
        let degree = 48.0;
        let r = radius_for_degree_2d(n, degree, SpaceSpec::PAPER).unwrap();
        let realized = n as f64 * std::f64::consts::PI * r * r
            / (SpaceSpec::PAPER.extent() * SpaceSpec::PAPER.extent());
        assert!((realized - degree).abs() < 1e-9, "{realized}");
        assert!(radius_for_degree_2d(0, degree, SpaceSpec::PAPER).is_err());
        assert!(radius_for_degree_2d(n, 0.0, SpaceSpec::PAPER).is_err());
        assert!(radius_for_degree_2d(n, f64::NAN, SpaceSpec::PAPER).is_err());
    }

    #[test]
    fn degree_pinned_instance_is_deterministic() {
        let a = uniform_degree_instance_2d(500, 4, 32.0, SpaceSpec::PAPER, 7).unwrap();
        let b = uniform_degree_instance_2d(500, 4, 32.0, SpaceSpec::PAPER, 7).unwrap();
        assert_eq!(a.n(), 500);
        assert_eq!(a.radius(), b.radius());
        assert_eq!(a.point(17), b.point(17));
        assert_eq!(a.weight(17), b.weight(17));
        // Paper weights are integers in 1..=5.
        for i in 0..a.n() {
            let w = a.weight(i);
            assert!((1.0..=5.0).contains(&w) && w.fract() == 0.0);
        }
    }

    #[test]
    fn serde_roundtrip_specs() {
        let dist = PointDistribution::GaussianClusters {
            clusters: 3,
            rel_sigma: 0.1,
        };
        let json = serde_json::to_string(&dist).unwrap();
        let back: PointDistribution = serde_json::from_str(&json).unwrap();
        assert_eq!(dist, back);
        let ws = WeightScheme::PAPER_WEIGHTED;
        let json = serde_json::to_string(&ws).unwrap();
        assert_eq!(ws, serde_json::from_str::<WeightScheme>(&json).unwrap());
    }
}
