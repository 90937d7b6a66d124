//! Batched Fermat–Weber solving: the sequential baseline and the cost-bound
//! approach (Algorithm 5 of the paper).

use crate::exact;
use crate::types::{cost, FwSolution, StoppingRule, WeightedPoint};
use crate::weiszfeld::{lower_bound, vardi_zhang_step};
use molq_geom::Point;

/// Statistics from a batch solve, used by the Fig 10 experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Groups solved through the exact closed-form cases.
    pub exact_groups: usize,
    /// Groups skipped by the two-point prefilter (lines 9–12 of Algorithm 5).
    pub prefiltered_groups: usize,
    /// Groups whose iteration was abandoned by the lower-bound prune
    /// (line 16, `Lbound ≥ Cbound`).
    pub pruned_groups: usize,
    /// Total iterations performed across all groups.
    pub iterations: usize,
}

impl std::ops::AddAssign for BatchStats {
    fn add_assign(&mut self, other: BatchStats) {
        self.exact_groups += other.exact_groups;
        self.prefiltered_groups += other.prefiltered_groups;
        self.pruned_groups += other.pruned_groups;
        self.iterations += other.iterations;
    }
}

/// Result of a batch solve: the best location over all groups plus counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSolution {
    /// Best location found.
    pub location: Point,
    /// Its cost (within the group that produced it).
    pub cost: f64,
    /// Index of the winning group.
    pub group: usize,
    /// Work counters.
    pub stats: BatchStats,
}

/// The baseline ("Original" in Fig 10): solve every group to the stopping
/// rule independently and keep the best.
pub fn solve_sequential(
    groups: &[Vec<WeightedPoint>],
    rule: StoppingRule,
) -> Option<BatchSolution> {
    let mut best: Option<BatchSolution> = None;
    let mut stats = BatchStats::default();
    for (gi, g) in groups.iter().enumerate() {
        if g.is_empty() {
            continue;
        }
        let sol = crate::weiszfeld::solve(g, rule);
        stats.iterations += sol.iterations;
        if sol.exact {
            stats.exact_groups += 1;
        }
        if best.map(|b| sol.cost < b.cost).unwrap_or(true) {
            best = Some(BatchSolution {
                location: sol.location,
                cost: sol.cost,
                group: gi,
                stats,
            });
        }
    }
    best.map(|mut b| {
        b.stats = stats;
        b
    })
}

/// Outcome of [`solve_group_bounded`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupOutcome {
    /// Solved to the stopping rule; the cost includes the group's additive
    /// constant.
    Solved(FwSolution),
    /// Skipped before any work by the prefilter ([`prefilter_bound`]).
    Prefiltered,
    /// Iteration abandoned by the lower-bound prune (`Lbound ≥ Cbound`).
    Pruned,
}

/// Which parts of the cost-bound machinery are active — used by the
/// ablation benches to isolate the contribution of each filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostBoundConfig {
    /// Apply the exact pairwise prefilter ([`prefilter_bound`]) before any
    /// other work on a group (lines 9–12).
    pub prefilter: bool,
    /// Apply the per-iteration lower-bound prune (line 16).
    pub prune: bool,
}

impl Default for CostBoundConfig {
    fn default() -> Self {
        CostBoundConfig {
            prefilter: true,
            prune: true,
        }
    }
}

/// The prefilter's lower bound on a group's Fermat–Weber cost (lines 9–12
/// of Algorithm 5), without the group's additive constant.
///
/// Every cost term `wᵢ·d(q, pᵢ)` is non-negative, so dropping terms leaves a
/// lower bound, and the cost of any two points is at least their exact
/// [`exact::two_point`] optimum. For one or two points the bound is the
/// exact optimum; for three it is the largest of the three pairwise optima;
/// from four points on it is the paper's pair of the first two points.
pub fn prefilter_bound(g: &[WeightedPoint]) -> f64 {
    match g {
        [] | [_] => 0.0,
        [a, b] => exact::two_point(*a, *b).cost,
        [a, b, c] => exact::two_point(*a, *b)
            .cost
            .max(exact::two_point(*b, *c).cost)
            .max(exact::two_point(*a, *c).cost),
        [a, b, ..] => exact::two_point(*a, *b).cost,
    }
}

/// Solves one Fermat–Weber group against a shared global bound `cbound`
/// (lines 4–17 of Algorithm 5), updating `stats`.
///
/// `constant` is an additive cost offset (non-negative), arising from
/// additive object-weight functions; the prefilter, the prune, and the
/// returned costs all include it.
///
/// The prefilter runs first, on every group size, so the small exact cases
/// are bounded too: a group is skipped when `prefilter_bound + constant >
/// cbound`. One- and two-point and collinear groups are then solved exactly.
/// A three-point group takes the exact three-point solver, whose interior
/// loop is abandoned once its Eq. 10 bound exceeds `cbound`; larger groups
/// iterate with the Eq. 10 prune (`Lbound ≥ Cbound`). A group that is
/// solved gets the same bits whatever `cbound` is.
pub fn solve_group_bounded(
    g: &[WeightedPoint],
    constant: f64,
    rule: StoppingRule,
    cbound: f64,
    stats: &mut BatchStats,
) -> GroupOutcome {
    solve_group_bounded_with(g, constant, rule, cbound, stats, CostBoundConfig::default())
}

/// [`solve_group_bounded`] with explicit filter configuration. With both
/// filters off, every group is solved exactly as the unbounded solvers
/// would (the "Original" of Fig 10).
pub fn solve_group_bounded_with(
    g: &[WeightedPoint],
    constant: f64,
    rule: StoppingRule,
    cbound: f64,
    stats: &mut BatchStats,
    config: CostBoundConfig,
) -> GroupOutcome {
    debug_assert!(constant >= 0.0);
    if config.prefilter && prefilter_bound(g) + constant > cbound {
        stats.prefiltered_groups += 1;
        return GroupOutcome::Prefiltered;
    }
    let offset = |mut s: FwSolution| {
        s.cost += constant;
        s
    };
    if g.len() <= 2 {
        stats.exact_groups += 1;
        return GroupOutcome::Solved(offset(crate::weiszfeld::solve(g, rule)));
    }
    if exact::is_collinear(g) {
        stats.exact_groups += 1;
        return GroupOutcome::Solved(offset(exact::collinear(g)));
    }
    if g.len() == 3 {
        let limit = if config.prune { cbound } else { f64::INFINITY };
        return match exact::three_point_bounded(&[g[0], g[1], g[2]], constant, limit) {
            Ok(sol) => {
                stats.exact_groups += 1;
                GroupOutcome::Solved(offset(sol))
            }
            Err(iterations) => {
                stats.iterations += iterations;
                stats.pruned_groups += 1;
                GroupOutcome::Pruned
            }
        };
    }
    // Iterate with the lower-bound prune.
    let eps = rule.epsilon();
    let max_iters = rule.max_iterations();
    let mut q = exact::centroid(g);
    let mut iters = 0usize;
    while iters < max_iters {
        let next = vardi_zhang_step(q, g);
        iters += 1;
        let moved = next.dist(q);
        q = next;
        let lb = lower_bound(q, g) + constant;
        if config.prune && lb >= cbound {
            stats.iterations += iters;
            stats.pruned_groups += 1;
            return GroupOutcome::Pruned;
        }
        if let Some(eps) = eps {
            let c = cost(q, g) + constant;
            if lb > 0.0 && (c - lb) / lb <= eps {
                break;
            }
        }
        if moved <= 1e-15 * (1.0 + q.norm()) {
            break;
        }
    }
    stats.iterations += iters;
    GroupOutcome::Solved(FwSolution {
        location: q,
        cost: cost(q, g) + constant,
        iterations: iters,
        exact: false,
    })
}

/// Algorithm 5: the cost-bound approach.
///
/// Maintains a global upper bound `Cbound` (the best cost found so far).
/// Before any work on a group, exact pairwise optima ([`prefilter_bound`])
/// prefilter hopeless groups; during iteration, the Eq. 10 lower bound
/// abandons groups that provably cannot beat `Cbound`, even though the ε
/// stopping rule has not fired yet.
pub fn solve_cost_bound(
    groups: &[Vec<WeightedPoint>],
    rule: StoppingRule,
) -> Option<BatchSolution> {
    solve_cost_bound_with(groups, rule, CostBoundConfig::default())
}

/// [`solve_cost_bound`] with explicit filter configuration (for ablations).
pub fn solve_cost_bound_with(
    groups: &[Vec<WeightedPoint>],
    rule: StoppingRule,
    config: CostBoundConfig,
) -> Option<BatchSolution> {
    let mut cbound = f64::INFINITY;
    let mut best: Option<(Point, usize)> = None;
    let mut stats = BatchStats::default();

    for (gi, g) in groups.iter().enumerate() {
        if g.is_empty() {
            continue;
        }
        if let GroupOutcome::Solved(sol) =
            solve_group_bounded_with(g, 0.0, rule, cbound, &mut stats, config)
        {
            if sol.cost < cbound {
                cbound = sol.cost;
                best = Some((sol.location, gi));
            }
        }
    }

    best.map(|(location, group)| BatchSolution {
        location,
        cost: cbound,
        group,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wp(x: f64, y: f64, w: f64) -> WeightedPoint {
        WeightedPoint::new(Point::new(x, y), w)
    }

    fn pseudo_groups(count: usize, size: usize, seed: u64) -> Vec<Vec<WeightedPoint>> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as f64 / u32::MAX as f64
        };
        (0..count)
            .map(|_| {
                (0..size)
                    .map(|_| wp(next() * 100.0, next() * 100.0, next() * 10.0 + 0.1))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn empty_input() {
        let rule = StoppingRule::ErrorBound(1e-6);
        assert!(solve_sequential(&[], rule).is_none());
        assert!(solve_cost_bound(&[], rule).is_none());
        assert!(solve_cost_bound(&[vec![]], rule).is_none());
    }

    #[test]
    fn both_approaches_agree_on_best_group() {
        let groups = pseudo_groups(50, 5, 7);
        let rule = StoppingRule::ErrorBound(1e-9);
        let a = solve_sequential(&groups, rule).unwrap();
        let b = solve_cost_bound(&groups, rule).unwrap();
        assert_eq!(a.group, b.group);
        assert!(
            (a.cost - b.cost).abs() <= 1e-6 * a.cost,
            "{} vs {}",
            a.cost,
            b.cost
        );
    }

    #[test]
    fn cost_bound_does_less_work() {
        let groups = pseudo_groups(200, 5, 11);
        let rule = StoppingRule::ErrorBound(1e-9);
        let a = solve_sequential(&groups, rule).unwrap();
        let b = solve_cost_bound(&groups, rule).unwrap();
        assert!(
            b.stats.iterations < a.stats.iterations,
            "cost-bound {} vs sequential {}",
            b.stats.iterations,
            a.stats.iterations
        );
        assert!(b.stats.pruned_groups + b.stats.prefiltered_groups > 0);
    }

    #[test]
    fn exact_small_groups_are_dispatched() {
        // At an infinite bound nothing is skipped, and every small or
        // collinear group is solved exactly, with the unbounded solvers'
        // bits.
        let groups = [
            vec![wp(0.0, 0.0, 1.0)],
            vec![wp(0.0, 0.0, 1.0), wp(1.0, 0.0, 2.0)],
            vec![wp(0.0, 0.0, 1.0), wp(1.0, 1.0, 1.0), wp(2.0, 2.0, 1.0)], // collinear
            vec![wp(0.0, 0.0, 5.0), wp(9.0, 0.0, 1.0), wp(0.0, 9.0, 1.0)], // 3-point vertex
            vec![wp(0.0, 0.0, 1.0), wp(4.0, 0.0, 2.0), wp(1.0, 3.0, 1.5)], // 3-point interior
        ];
        let rule = StoppingRule::ErrorBound(1e-6);
        for (gi, g) in groups.iter().enumerate() {
            let mut stats = BatchStats::default();
            let outcome = solve_group_bounded(g, 0.25, rule, f64::INFINITY, &mut stats);
            let GroupOutcome::Solved(sol) = outcome else {
                panic!("group {gi} skipped at an infinite bound: {outcome:?}");
            };
            let want = crate::weiszfeld::solve(g, rule);
            assert!(sol.exact, "group {gi}");
            assert_eq!(sol.location, want.location, "group {gi}");
            assert_eq!(
                sol.cost.to_bits(),
                (want.cost + 0.25).to_bits(),
                "group {gi}"
            );
            assert_eq!(
                stats,
                BatchStats {
                    exact_groups: 1,
                    ..BatchStats::default()
                },
                "group {gi}"
            );
        }
    }

    #[test]
    fn three_point_group_is_prefiltered_by_its_pair_bound() {
        // Pairwise optima 1·10, 1·10 and 1·√200: the bound is the largest,
        // and the prefilter compares strictly.
        let g = [wp(0.0, 0.0, 1.0), wp(10.0, 0.0, 1.0), wp(0.0, 10.0, 1.0)];
        let bound = prefilter_bound(&g);
        assert_eq!(bound, 200f64.sqrt());
        let rule = StoppingRule::ErrorBound(1e-6);
        let mut stats = BatchStats::default();
        let outcome = solve_group_bounded(&g, 2.0, rule, bound + 1.5, &mut stats);
        assert_eq!(outcome, GroupOutcome::Prefiltered);
        assert_eq!(stats.prefiltered_groups, 1);
        assert_eq!(stats.exact_groups + stats.pruned_groups, 0);
        // At exactly the bound the group passes the prefilter (the
        // interior loop may still prune it: its optimum is higher).
        let mut stats = BatchStats::default();
        let kept = solve_group_bounded(&g, 2.0, rule, bound + 2.0, &mut stats);
        assert_ne!(kept, GroupOutcome::Prefiltered);
        assert_eq!(stats.prefiltered_groups, 0);
        // With the prefilter off the group reaches the solver.
        let mut stats = BatchStats::default();
        let cfg = CostBoundConfig {
            prefilter: false,
            prune: false,
        };
        let unfiltered = solve_group_bounded_with(&g, 2.0, rule, 0.0, &mut stats, cfg);
        assert!(matches!(unfiltered, GroupOutcome::Solved(_)));
    }

    #[test]
    fn three_point_interior_group_is_pruned_under_a_tight_bound() {
        // An interior optimum (every angle below 120°, equal weights): the
        // pair bound 3·√2 is well below the optimum, so a bound between the
        // two passes the prefilter and is crossed by the Eq. 10 bound inside
        // the Vardi–Zhang loop.
        let g = [wp(0.0, 0.0, 1.0), wp(4.0, 0.0, 1.0), wp(1.0, 3.0, 1.0)];
        let rule = StoppingRule::ErrorBound(1e-6);
        let opt = crate::exact::three_point(&g);
        assert!(opt.iterations > 0, "optimum must be interior");
        let cbound = 0.5 * (prefilter_bound(&g) + opt.cost);
        let mut stats = BatchStats::default();
        let outcome = solve_group_bounded(&g, 0.0, rule, cbound, &mut stats);
        assert_eq!(outcome, GroupOutcome::Pruned);
        assert_eq!(stats.pruned_groups, 1);
        assert_eq!(stats.prefiltered_groups + stats.exact_groups, 0);
        assert!(stats.iterations >= 1 && stats.iterations <= opt.iterations);
        // Prune off: the same bound solves the group to the unbounded bits.
        let mut stats = BatchStats::default();
        let cfg = CostBoundConfig {
            prefilter: true,
            prune: false,
        };
        let GroupOutcome::Solved(sol) =
            solve_group_bounded_with(&g, 0.0, rule, cbound, &mut stats, cfg)
        else {
            panic!("prune disabled, group must be solved");
        };
        assert_eq!(sol.location, opt.location);
        assert_eq!(sol.cost.to_bits(), opt.cost.to_bits());
    }

    #[test]
    fn winner_is_truly_the_minimum() {
        let groups = pseudo_groups(30, 6, 3);
        let rule = StoppingRule::ErrorBound(1e-10);
        let b = solve_cost_bound(&groups, rule).unwrap();
        // Re-solve every group independently; none may beat the winner by
        // more than the tolerance.
        for (gi, g) in groups.iter().enumerate() {
            let s = crate::weiszfeld::solve(g, rule);
            assert!(
                b.cost <= s.cost * (1.0 + 1e-6),
                "group {gi} beats winner: {} < {}",
                s.cost,
                b.cost
            );
        }
    }

    #[test]
    fn ablation_configs_agree_on_the_answer() {
        let groups = pseudo_groups(80, 5, 19);
        let rule = StoppingRule::ErrorBound(1e-9);
        let full = solve_cost_bound(&groups, rule).unwrap();
        for (prefilter, prune) in [(false, true), (true, false), (false, false)] {
            let cfg = CostBoundConfig { prefilter, prune };
            let ablated = solve_cost_bound_with(&groups, rule, cfg).unwrap();
            assert_eq!(full.group, ablated.group, "{cfg:?}");
            assert!(
                (full.cost - ablated.cost).abs() < 1e-6 * full.cost,
                "{cfg:?}"
            );
            // Each disabled filter can only increase the work done.
            assert!(
                ablated.stats.iterations >= full.stats.iterations,
                "{cfg:?}: {} < {}",
                ablated.stats.iterations,
                full.stats.iterations
            );
        }
    }

    #[test]
    fn disabled_filters_report_zero_counts() {
        let groups = pseudo_groups(50, 5, 23);
        let rule = StoppingRule::ErrorBound(1e-6);
        let cfg = CostBoundConfig {
            prefilter: false,
            prune: false,
        };
        let sol = solve_cost_bound_with(&groups, rule, cfg).unwrap();
        assert_eq!(sol.stats.prefiltered_groups, 0);
        assert_eq!(sol.stats.pruned_groups, 0);
    }

    #[test]
    fn prefilter_counts_with_tight_bound() {
        // First group is excellent (tiny spread), the rest are terrible and
        // get prefiltered by their two-point bound.
        let mut groups = vec![vec![
            wp(50.0, 50.0, 1.0),
            wp(50.1, 50.0, 1.0),
            wp(50.0, 50.1, 1.0),
            wp(50.1, 50.1, 1.0),
        ]];
        for i in 0..10 {
            let off = 1000.0 + i as f64;
            groups.push(vec![
                wp(0.0, 0.0, 5.0),
                wp(off, off, 5.0),
                wp(off, 0.0, 1.0),
                wp(0.0, off, 1.0),
            ]);
        }
        let sol = solve_cost_bound(&groups, StoppingRule::ErrorBound(1e-6)).unwrap();
        assert_eq!(sol.group, 0);
        assert_eq!(sol.stats.prefiltered_groups, 10);
    }
}
