//! Problem instances: the tuple `(points, weights, r, k, norm)`.
//!
//! An [`Instance`] is validated at construction: all coordinates finite,
//! all weights strictly positive and finite, `r > 0`, `k >= 1`, and
//! `weights.len() == points.len()`. Solvers can therefore assume a
//! well-formed problem and stay branch-free in their hot loops.

use mmph_geom::{Aabb, Norm, Point};
use serde::{Deserialize, Serialize};

use crate::kernel::Kernel;
use crate::{CoreError, Result};

/// A content-distribution problem instance in `R^D`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "RawInstance<D>", into = "RawInstance<D>")]
pub struct Instance<const D: usize> {
    points: Vec<Point<D>>,
    weights: Vec<f64>,
    radius: f64,
    k: usize,
    norm: Norm,
    kernel: Kernel,
}

/// Unvalidated mirror of [`Instance`] used for serde round-trips.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RawInstance<const D: usize> {
    points: Vec<Point<D>>,
    weights: Vec<f64>,
    radius: f64,
    k: usize,
    norm: Norm,
    #[serde(default)]
    kernel: Kernel,
}

impl<const D: usize> TryFrom<RawInstance<D>> for Instance<D> {
    type Error = CoreError;
    fn try_from(raw: RawInstance<D>) -> Result<Self> {
        let inst = Instance::new(raw.points, raw.weights, raw.radius, raw.k, raw.norm)?;
        inst.with_kernel(raw.kernel)
    }
}

impl<const D: usize> From<Instance<D>> for RawInstance<D> {
    fn from(inst: Instance<D>) -> Self {
        RawInstance {
            points: inst.points,
            weights: inst.weights,
            radius: inst.radius,
            k: inst.k,
            norm: inst.norm,
            kernel: inst.kernel,
        }
    }
}

impl<const D: usize> Instance<D> {
    /// Creates a validated instance.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidInstance`] when: `points` is empty, lengths
    /// differ, any coordinate is non-finite, any weight is non-positive
    /// or non-finite, `r` is non-positive or non-finite, or `k == 0`.
    pub fn new(
        points: Vec<Point<D>>,
        weights: Vec<f64>,
        radius: f64,
        k: usize,
        norm: Norm,
    ) -> Result<Self> {
        if points.is_empty() {
            return Err(CoreError::InvalidInstance("no points".into()));
        }
        if weights.len() != points.len() {
            return Err(CoreError::InvalidInstance(format!(
                "{} points but {} weights",
                points.len(),
                weights.len()
            )));
        }
        for (i, p) in points.iter().enumerate() {
            if !p.is_finite() {
                return Err(CoreError::InvalidInstance(format!(
                    "point {i} has a non-finite coordinate: {p}"
                )));
            }
        }
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w <= 0.0 {
                return Err(CoreError::InvalidInstance(format!(
                    "weight {i} must be finite and positive, got {w}"
                )));
            }
        }
        if !radius.is_finite() || radius <= 0.0 {
            return Err(CoreError::InvalidInstance(format!(
                "radius must be finite and positive, got {radius}"
            )));
        }
        if k == 0 {
            return Err(CoreError::InvalidInstance(
                "k (number of broadcasts) must be >= 1".into(),
            ));
        }
        Ok(Instance {
            points,
            weights,
            radius,
            k,
            norm,
            kernel: Kernel::default(),
        })
    }

    /// Instance with every weight equal to 1 (the paper's "same weight"
    /// scheme).
    pub fn unweighted(points: Vec<Point<D>>, radius: f64, k: usize, norm: Norm) -> Result<Self> {
        let n = points.len();
        Self::new(points, vec![1.0; n], radius, k, norm)
    }

    /// Number of points `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.points.len()
    }

    /// Number of centers to select, `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Interest radius `r`.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The interest-distance norm.
    #[inline]
    pub fn norm(&self) -> Norm {
        self.norm
    }

    /// The reward decay kernel (the paper's linear Eq. (1) by default).
    #[inline]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The user interest points.
    #[inline]
    pub fn points(&self) -> &[Point<D>] {
        &self.points
    }

    /// The maximum rewards `w_i`.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Point `i`.
    #[inline]
    pub fn point(&self, i: usize) -> &Point<D> {
        &self.points[i]
    }

    /// Weight `w_i`.
    #[inline]
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Sum of all weights — a trivial upper bound on `f(C)` (paper:
    /// `f_opt <= Σ w_i`, used in the proof of Theorem 2).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Tight bounding box of the instance's points.
    pub fn bounding_box(&self) -> Aabb<D> {
        Aabb::from_points(&self.points).expect("instance is non-empty")
    }

    /// Returns a copy of this instance with a different `k`.
    pub fn with_k(&self, k: usize) -> Result<Self> {
        Self::new(
            self.points.clone(),
            self.weights.clone(),
            self.radius,
            k,
            self.norm,
        )
    }

    /// Returns a copy of this instance with a different radius.
    pub fn with_radius(&self, radius: f64) -> Result<Self> {
        Self::new(
            self.points.clone(),
            self.weights.clone(),
            radius,
            self.k,
            self.norm,
        )
    }

    /// Returns a copy of this instance with a different norm.
    pub fn with_norm(&self, norm: Norm) -> Result<Self> {
        let mut inst = Self::new(
            self.points.clone(),
            self.weights.clone(),
            self.radius,
            self.k,
            norm,
        )?;
        inst.kernel = self.kernel;
        Ok(inst)
    }

    /// Returns a copy of this instance with a different reward kernel.
    pub fn with_kernel(&self, kernel: Kernel) -> Result<Self> {
        self.clone().into_kernel(kernel)
    }

    /// [`Self::with_kernel`] without the copy.
    pub(crate) fn into_kernel(mut self, kernel: Kernel) -> Result<Self> {
        kernel.validate().map_err(CoreError::InvalidInstance)?;
        self.kernel = kernel;
        Ok(self)
    }

    /// Appends a new point with weight `w` and returns its index (`n`
    /// before the call). Validates like [`Self::new`]: finite
    /// coordinates, finite positive weight.
    pub fn insert_point(&mut self, p: Point<D>, w: f64) -> Result<usize> {
        if !p.is_finite() {
            return Err(CoreError::InvalidInstance(format!(
                "inserted point has a non-finite coordinate: {p}"
            )));
        }
        if !w.is_finite() || w <= 0.0 {
            return Err(CoreError::InvalidInstance(format!(
                "inserted weight must be finite and positive, got {w}"
            )));
        }
        self.points.push(p);
        self.weights.push(w);
        Ok(self.points.len() - 1)
    }

    /// Removes point `i` by **swap-remove**: the last point (index
    /// `n-1`) takes index `i`, so all other indices stay stable and the
    /// removal is O(1). Callers holding selections must renumber
    /// `n-1 → i` themselves (the incremental layer does this for you).
    /// Errors when `i` is out of range or when it would empty the
    /// instance — an [`Instance`] is never empty.
    pub fn remove_point(&mut self, i: usize) -> Result<()> {
        if i >= self.points.len() {
            return Err(CoreError::InvalidInstance(format!(
                "remove_point index {i} out of range (n = {})",
                self.points.len()
            )));
        }
        if self.points.len() == 1 {
            return Err(CoreError::InvalidInstance(
                "cannot remove the last remaining point".into(),
            ));
        }
        self.points.swap_remove(i);
        self.weights.swap_remove(i);
        Ok(())
    }

    /// Moves point `i` to new coordinates `to` (weight unchanged).
    pub fn move_point(&mut self, i: usize, to: Point<D>) -> Result<()> {
        if i >= self.points.len() {
            return Err(CoreError::InvalidInstance(format!(
                "move_point index {i} out of range (n = {})",
                self.points.len()
            )));
        }
        if !to.is_finite() {
            return Err(CoreError::InvalidInstance(format!(
                "moved point has a non-finite coordinate: {to}"
            )));
        }
        self.points[i] = to;
        Ok(())
    }

    /// Applies a batch of churn deltas **sequentially** (each delta sees
    /// the point set left by the previous one, including swap-remove
    /// renumbering). On error the instance is left with the prefix of
    /// deltas that validated applied. Returns the number applied.
    pub fn apply_churn(&mut self, deltas: &[Delta<D>]) -> Result<usize> {
        for (applied, delta) in deltas.iter().enumerate() {
            let r = match delta {
                Delta::Insert { point, weight } => self.insert_point(*point, *weight).map(|_| ()),
                Delta::Remove { index } => self.remove_point(*index),
                Delta::Move { index, to } => self.move_point(*index, *to),
            };
            if let Err(e) = r {
                return Err(CoreError::InvalidInstance(format!(
                    "churn delta {applied}: {e}"
                )));
            }
        }
        Ok(deltas.len())
    }
}

/// One point-churn mutation, the unit of [`Instance::apply_churn`] and
/// of the incremental CSR patching layer
/// ([`crate::incremental::IncrementalInstance`]). Deltas in a batch are
/// applied sequentially; `Remove` uses swap-remove semantics (the last
/// point is renumbered to the removed index).
///
/// On the wire (the serve `mutate` op) a delta is externally tagged by
/// its variant name: `{"Move":{"index":7,"to":[1.5,0.25]}}`,
/// `{"Insert":{"point":[2.0,2.0],"weight":3.0}}`,
/// `{"Remove":{"index":0}}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Delta<const D: usize> {
    /// Append a new point (its index becomes the current `n`).
    Insert {
        /// Coordinates of the new point.
        point: Point<D>,
        /// Its weight (finite, positive).
        weight: f64,
    },
    /// Swap-remove the point at `index`.
    Remove {
        /// Index to remove; the last point takes this index.
        index: usize,
    },
    /// Move the point at `index` to new coordinates.
    Move {
        /// Index to move.
        index: usize,
        /// New coordinates.
        to: Point<D>,
    },
}

/// Fluent builder for [`Instance`].
///
/// ```
/// use mmph_core::InstanceBuilder;
/// use mmph_geom::{Norm, Point};
///
/// let inst = InstanceBuilder::new()
///     .point([0.0, 0.0], 1.0)
///     .point([1.0, 0.0], 2.0)
///     .point([0.0, 1.0], 3.0)
///     .radius(1.5)
///     .k(2)
///     .norm(Norm::L2)
///     .build()
///     .unwrap();
/// assert_eq!(inst.n(), 3);
/// assert_eq!(inst.point(1), &Point::new([1.0, 0.0]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct InstanceBuilder<const D: usize> {
    points: Vec<Point<D>>,
    weights: Vec<f64>,
    radius: Option<f64>,
    k: Option<usize>,
    norm: Norm,
    kernel: Kernel,
}

impl<const D: usize> InstanceBuilder<D> {
    /// Creates an empty builder (norm defaults to L2).
    pub fn new() -> Self {
        InstanceBuilder {
            points: Vec::new(),
            weights: Vec::new(),
            radius: None,
            k: None,
            norm: Norm::default(),
            kernel: Kernel::default(),
        }
    }

    /// Adds a point with its maximum reward.
    pub fn point(mut self, coords: [f64; D], weight: f64) -> Self {
        self.points.push(Point::new(coords));
        self.weights.push(weight);
        self
    }

    /// Adds many points with a shared weight.
    pub fn points(mut self, coords: impl IntoIterator<Item = [f64; D]>, weight: f64) -> Self {
        for c in coords {
            self.points.push(Point::new(c));
            self.weights.push(weight);
        }
        self
    }

    /// Sets the interest radius `r`.
    pub fn radius(mut self, r: f64) -> Self {
        self.radius = Some(r);
        self
    }

    /// Sets the number of broadcasts `k`.
    pub fn k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Sets the interest-distance norm.
    pub fn norm(mut self, norm: Norm) -> Self {
        self.norm = norm;
        self
    }

    /// Sets the reward decay kernel.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Validates and builds the instance.
    pub fn build(self) -> Result<Instance<D>> {
        let radius = self
            .radius
            .ok_or_else(|| CoreError::InvalidInstance("radius not set".into()))?;
        let k = self
            .k
            .ok_or_else(|| CoreError::InvalidInstance("k not set".into()))?;
        Instance::new(self.points, self.weights, radius, k, self.norm)?.with_kernel(self.kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> Instance<2> {
        InstanceBuilder::new()
            .point([0.0, 0.0], 1.0)
            .point([1.0, 1.0], 2.0)
            .radius(1.0)
            .k(1)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_valid_instance() {
        let inst = valid();
        assert_eq!(inst.n(), 2);
        assert_eq!(inst.k(), 1);
        assert_eq!(inst.radius(), 1.0);
        assert_eq!(inst.norm(), Norm::L2);
        assert_eq!(inst.total_weight(), 3.0);
        assert_eq!(inst.weight(1), 2.0);
    }

    #[test]
    fn rejects_empty_points() {
        let e = Instance::<2>::new(vec![], vec![], 1.0, 1, Norm::L2).unwrap_err();
        assert!(matches!(e, CoreError::InvalidInstance(_)));
    }

    #[test]
    fn rejects_length_mismatch() {
        let e = Instance::new(
            vec![Point::new([0.0, 0.0])],
            vec![1.0, 2.0],
            1.0,
            1,
            Norm::L2,
        )
        .unwrap_err();
        assert!(e.to_string().contains("1 points but 2 weights"));
    }

    #[test]
    fn rejects_nan_coordinates() {
        let e = Instance::new(
            vec![Point::new([f64::NAN, 0.0])],
            vec![1.0],
            1.0,
            1,
            Norm::L2,
        )
        .unwrap_err();
        assert!(e.to_string().contains("non-finite"));
    }

    #[test]
    fn rejects_bad_weights() {
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let e =
                Instance::new(vec![Point::new([0.0, 0.0])], vec![w], 1.0, 1, Norm::L2).unwrap_err();
            assert!(matches!(e, CoreError::InvalidInstance(_)), "w={w}");
        }
    }

    #[test]
    fn rejects_bad_radius() {
        for r in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let e =
                Instance::new(vec![Point::new([0.0, 0.0])], vec![1.0], r, 1, Norm::L2).unwrap_err();
            assert!(matches!(e, CoreError::InvalidInstance(_)), "r={r}");
        }
    }

    #[test]
    fn rejects_zero_k() {
        let e =
            Instance::new(vec![Point::new([0.0, 0.0])], vec![1.0], 1.0, 0, Norm::L2).unwrap_err();
        assert!(e.to_string().contains("k"));
    }

    #[test]
    fn builder_requires_radius_and_k() {
        assert!(InstanceBuilder::<2>::new()
            .point([0.0, 0.0], 1.0)
            .k(1)
            .build()
            .is_err());
        assert!(InstanceBuilder::<2>::new()
            .point([0.0, 0.0], 1.0)
            .radius(1.0)
            .build()
            .is_err());
    }

    #[test]
    fn unweighted_sets_all_weights_to_one() {
        let inst = Instance::unweighted(
            vec![Point::new([0.0, 0.0]), Point::new([1.0, 0.0])],
            1.0,
            1,
            Norm::L1,
        )
        .unwrap();
        assert_eq!(inst.weights(), &[1.0, 1.0]);
    }

    #[test]
    fn with_k_radius_norm() {
        let inst = valid();
        assert_eq!(inst.with_k(5).unwrap().k(), 5);
        assert_eq!(inst.with_radius(2.5).unwrap().radius(), 2.5);
        assert_eq!(inst.with_norm(Norm::L1).unwrap().norm(), Norm::L1);
        assert!(inst.with_k(0).is_err());
        assert!(inst.with_radius(-1.0).is_err());
    }

    #[test]
    fn bounding_box_is_tight() {
        let inst = valid();
        let b = inst.bounding_box();
        assert_eq!(b.lo, Point::new([0.0, 0.0]));
        assert_eq!(b.hi, Point::new([1.0, 1.0]));
    }

    #[test]
    fn serde_roundtrip_preserves_instance() {
        let inst = valid();
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance<2> = serde_json::from_str(&json).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn serde_rejects_invalid_payload() {
        // k = 0 must fail validation on deserialize.
        let json = r#"{"points":[[0.0,0.0]],"weights":[1.0],"radius":1.0,"k":0,"norm":"L2"}"#;
        let r: std::result::Result<Instance<2>, _> = serde_json::from_str(json);
        assert!(r.is_err());
    }

    #[test]
    fn points_bulk_builder() {
        let inst = InstanceBuilder::new()
            .points([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], 2.0)
            .radius(1.0)
            .k(2)
            .build()
            .unwrap();
        assert_eq!(inst.n(), 3);
        assert_eq!(inst.weights(), &[2.0, 2.0, 2.0]);
    }
}
