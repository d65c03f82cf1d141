//! The paper's algorithms and our extensions.
//!
//! * [`LocalGreedy`] — Algorithm 2: every input point is a candidate
//!   center each round; pick the max coverage reward. Under
//!   [`crate::OracleStrategy::Lazy`] it is the CELF-accelerated variant
//!   (identical output, far fewer evaluations).
//! * [`SimpleGreedy`] — Algorithm 3: pick the point with the largest
//!   residual single-point reward `w_i y_i` as the center.
//! * [`ComplexGreedy`] — Algorithm 4: grow candidate centers off every
//!   point with the smallest-enclosing-ball "new-center" procedure;
//!   centers may lie anywhere in space.
//! * [`RoundBased`] — Algorithm 1 with a pluggable (approximate)
//!   continuous round oracle.
//! * [`Exhaustive`] — the evaluation's "exhaustive reward" baseline:
//!   exact maximum of `f` over all `C(n, k)` point-located center sets.
//! * [`StochasticGreedy`] — subsampled-candidate greedy.
//! * [`LocalSearch`] — greedy-seeded best-improvement swap polish.
//! * [`SeededGreedy`] — partial prefix enumeration + greedy completion.
//! * [`KCenter`] / [`KMeans`] — facility-location clustering baselines.
//! * [`BeamSearch`] — width-B beam over point candidates (greedy ⊂ beam
//!   ⊂ exhaustive).
//! * [`AdaptiveSolver`] — budget-aware degradation ladder
//!   (greedy4 → greedy2-lazy → greedy3) with panic isolation.

mod adaptive;
mod beam_search;
mod clustering;
mod complex_greedy;
mod exhaustive;
mod local_greedy;
mod local_search;
mod round_based;
mod seeded_greedy;
mod simple_greedy;
mod stochastic_greedy;

pub mod combinations;

pub use adaptive::AdaptiveSolver;
pub use beam_search::BeamSearch;
pub use clustering::{KCenter, KMeans};
pub use complex_greedy::{ComplexGreedy, RecenterRule};
pub use exhaustive::Exhaustive;
pub use local_greedy::LocalGreedy;
pub use local_search::LocalSearch;
pub use round_based::{
    AnnealingOracle, CandidateOracle, GridOracle, MultistartOracle, RoundBased, RoundOracle,
};
pub use seeded_greedy::SeededGreedy;
pub use simple_greedy::SimpleGreedy;
pub use stochastic_greedy::StochasticGreedy;
