//! Fermat–Weber solvers for the MOLQ reproduction.
//!
//! The paper's *Optimizer* (framework step 3) reduces every overlapped
//! Voronoi region to a weighted Fermat–Weber problem: find the point
//! minimising `Σ wᵢ · d(q, pᵢ)`. This crate implements
//!
//! * exact solutions for the cases the paper lists as solvable —
//!   one and two points, any collinear configuration (weighted 1-D median),
//!   and the three-point vertex-optimality test ([`exact`]),
//! * the iterative approach of Weiszfeld with the Vardi–Zhang modification
//!   that survives iterates landing exactly on data points ([`weiszfeld`]),
//! * the per-axis weighted-median **lower bound** of Eq. 10 used by the
//!   ε stopping rule ([`weiszfeld::lower_bound`]),
//! * the **cost-bound batch solver** of Algorithm 5, which shares a global
//!   upper bound across many Fermat–Weber problems and abandons iterations
//!   whose lower bound already exceeds it ([`batch`]).

pub mod batch;
pub mod exact;
pub mod newton;
pub mod types;
pub mod weiszfeld;

pub use batch::{
    prefilter_bound, solve_cost_bound, solve_cost_bound_with, solve_group_bounded,
    solve_group_bounded_with, solve_sequential, BatchStats, CostBoundConfig, GroupOutcome,
};
pub use newton::solve_hybrid;
pub use types::{cost, FwSolution, StoppingRule, WeightedPoint};
pub use weiszfeld::{lower_bound, solve, vardi_zhang_step};
