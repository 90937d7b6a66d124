//! The Weiszfeld iteration, the Vardi–Zhang modification, and the Eq. 10
//! lower bound.

use crate::exact;
use crate::types::{cost, FwSolution, StoppingRule, WeightedPoint};
use molq_geom::Point;

/// One classic Weiszfeld step (Eq. 8/9 of the paper): the next iterate is the
/// weighted average of the points with weights `wᵢ / d(q, pᵢ)`. Returns `q`
/// unchanged when it coincides with a data point (the fixed-point convention
/// of Eq. 8).
pub fn weiszfeld_step(q: Point, pts: &[WeightedPoint]) -> Point {
    let mut num = Point::ORIGIN;
    let mut den = 0.0;
    for p in pts {
        let d = q.dist(p.loc);
        if d == 0.0 {
            return q;
        }
        let g = p.weight / d;
        num = num + p.loc * g;
        den += g;
    }
    num / den
}

/// One Vardi–Zhang step: behaves like Weiszfeld away from data points, and
/// at a data point `pₖ` moves along the residual direction damped by
/// `max(0, 1 − wₖ/r)`, where `r` is the residual norm. `pₖ` is optimal
/// exactly when `wₖ ≥ r`, in which case the step stays put.
pub fn vardi_zhang_step(q: Point, pts: &[WeightedPoint]) -> Point {
    // Split into the coincident weight (if any) and the rest.
    let mut coincident_w = 0.0;
    let mut num = Point::ORIGIN;
    let mut den = 0.0;
    let mut residual = Point::ORIGIN;
    for p in pts {
        let d = q.dist(p.loc);
        if d == 0.0 {
            coincident_w += p.weight;
            continue;
        }
        let g = p.weight / d;
        num = num + p.loc * g;
        den += g;
        residual = residual + (p.loc - q) * g;
    }
    if den == 0.0 {
        // All points coincide with q.
        return q;
    }
    let t = num / den; // T̃(q): Weiszfeld over the non-coincident points
    if coincident_w == 0.0 {
        return t;
    }
    let r = residual.norm();
    if r <= coincident_w {
        return q; // q (a data point) is optimal
    }
    let step = 1.0 - coincident_w / r;
    q + (t - q) * step
}

/// The Eq. 10 lower bound on the optimal cost, evaluated at iterate `l`.
///
/// For each axis `k`, `d(q, pᵢ) ≥ αᵢₖ·|q.xₖ − pᵢ.xₖ|` with
/// `αᵢₖ = |l.xₖ − pᵢ.xₖ| / d(l, pᵢ) ≤ 1`, and since the `αᵢ` rows are unit
/// vectors the two axis bounds can be *summed* (Cauchy–Schwarz). Each axis
/// term is a 1-D weighted-median problem solved exactly by sorting.
///
/// Points coincident with `l` contribute zero (their α is undefined); the
/// bound remains valid because their true distance term is non-negative.
pub fn lower_bound(l: Point, pts: &[WeightedPoint]) -> f64 {
    // (coordinate, alpha-weight) per axis, on the stack for the group sizes
    // the Optimizer sees (one point per query type) so the per-iteration
    // bound never allocates; larger instances fall back to the heap.
    let mut stack = [(0.0, 0.0); LOWER_BOUND_STACK];
    let mut heap = Vec::new();
    let axis: &mut [(f64, f64)] = if pts.len() <= LOWER_BOUND_STACK {
        &mut stack[..pts.len()]
    } else {
        heap.resize(pts.len(), (0.0, 0.0));
        &mut heap
    };
    let mut bound = 0.0;
    for k in 0..2 {
        let mut len = 0;
        for p in pts {
            let d = l.dist(p.loc);
            if d == 0.0 {
                continue;
            }
            let (pc, lc) = if k == 0 {
                (p.loc.x, l.x)
            } else {
                (p.loc.y, l.y)
            };
            let alpha = p.weight * (lc - pc).abs() / d;
            if alpha > 0.0 {
                axis[len] = (pc, alpha);
                len += 1;
            }
        }
        bound += weighted_median_min(&mut axis[..len]);
    }
    bound
}

/// Largest group [`lower_bound`] handles without a heap buffer. The slice
/// sort is stable and, at this length, an in-place insertion sort, so the
/// stack and heap paths order (and sum) the terms identically.
const LOWER_BOUND_STACK: usize = 16;

/// `min_x Σ αᵢ |x − cᵢ|`, solved at the weighted median.
fn weighted_median_min(items: &mut [(f64, f64)]) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    items.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = items.iter().map(|e| e.1).sum();
    let mut acc = 0.0;
    let mut median = items[items.len() - 1].0;
    for &(c, w) in items.iter() {
        acc += w;
        if acc >= total * 0.5 {
            median = c;
            break;
        }
    }
    items.iter().map(|&(c, w)| w * (median - c).abs()).sum()
}

/// Solves the Fermat–Weber problem, dispatching to exact cases when possible
/// and iterating otherwise (the paper's §2.3/§5.4 pipeline without the
/// global cost bound — see [`crate::batch`] for that).
pub fn solve(pts: &[WeightedPoint], rule: StoppingRule) -> FwSolution {
    assert!(!pts.is_empty(), "need at least one point");
    match pts.len() {
        1 => FwSolution {
            location: pts[0].loc,
            cost: 0.0,
            iterations: 0,
            exact: true,
        },
        2 => exact::two_point(pts[0], pts[1]),
        _ => {
            if exact::is_collinear(pts) {
                exact::collinear(pts)
            } else if pts.len() == 3 {
                exact::three_point(&[pts[0], pts[1], pts[2]])
            } else {
                solve_from(exact::centroid(pts), pts, rule)
            }
        }
    }
}

/// Iterates from an explicit starting location until the stopping rule (or
/// the cost-bound prune in [`crate::batch`]) fires.
pub fn solve_from(start: Point, pts: &[WeightedPoint], rule: StoppingRule) -> FwSolution {
    solve_from_bounded(start, pts, rule, 0.0, f64::INFINITY)
        .expect("an infinite bound never prunes")
}

/// [`solve_from`] under a global cost bound (line 16 of Algorithm 5): gives
/// up with `Err(iterations)` as soon as the Eq. 10 lower bound plus the
/// group's additive `constant` exceeds `cbound`. The bound is only checked
/// where the ε rule evaluates Eq. 10 anyway, so it costs nothing, and a run
/// that is not abandoned takes exactly the iterates of the unbounded run.
pub(crate) fn solve_from_bounded(
    start: Point,
    pts: &[WeightedPoint],
    rule: StoppingRule,
    constant: f64,
    cbound: f64,
) -> Result<FwSolution, usize> {
    let eps = rule.epsilon();
    let max_iters = rule.max_iterations();
    let mut q = start;
    let mut iterations = 0usize;
    while iterations < max_iters {
        let next = vardi_zhang_step(q, pts);
        iterations += 1;
        let moved = next.dist(q);
        q = next;
        if let Some(eps) = eps {
            let c = cost(q, pts);
            let lb = lower_bound(q, pts);
            if lb + constant > cbound {
                return Err(iterations);
            }
            if lb > 0.0 && (c - lb) / lb <= eps {
                break;
            }
            // Fallback for degenerate bounds (e.g. optimum at a data point
            // where lb collapses): a vanishing step means convergence.
            if moved <= 1e-15 * (1.0 + q.norm()) {
                break;
            }
        } else if moved <= 1e-15 * (1.0 + q.norm()) {
            break;
        }
    }
    Ok(FwSolution {
        location: q,
        cost: cost(q, pts),
        iterations,
        exact: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wp(x: f64, y: f64, w: f64) -> WeightedPoint {
        WeightedPoint::new(Point::new(x, y), w)
    }

    fn pseudo_instance(n: usize, seed: u64) -> Vec<WeightedPoint> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as f64 / u32::MAX as f64
        };
        (0..n)
            .map(|_| wp(next() * 100.0, next() * 100.0, next() * 10.0 + 0.1))
            .collect()
    }

    #[test]
    fn weiszfeld_step_moves_toward_mass() {
        let pts = [wp(0.0, 0.0, 1.0), wp(10.0, 0.0, 1.0)];
        let q = Point::new(5.0, 5.0);
        let next = weiszfeld_step(q, &pts);
        assert!(next.y < q.y); // pulled down toward the segment
    }

    #[test]
    fn weiszfeld_step_is_identity_on_data_point() {
        let pts = [wp(0.0, 0.0, 1.0), wp(10.0, 0.0, 1.0)];
        assert_eq!(
            weiszfeld_step(Point::new(0.0, 0.0), &pts),
            Point::new(0.0, 0.0)
        );
    }

    #[test]
    fn vardi_zhang_escapes_non_optimal_data_point() {
        // Optimum is clearly near the cluster at (10, 0); starting exactly on
        // the lone light point must not freeze the iteration.
        let pts = [
            wp(0.0, 0.0, 0.1),
            wp(10.0, 0.0, 5.0),
            wp(10.0, 1.0, 5.0),
            wp(10.0, -1.0, 5.0),
        ];
        let stuck = Point::new(0.0, 0.0);
        assert_eq!(weiszfeld_step(stuck, &pts), stuck, "classic step freezes");
        let next = vardi_zhang_step(stuck, &pts);
        assert!(next.x > 0.0, "VZ step must escape, got {next}");
    }

    #[test]
    fn vardi_zhang_stays_at_optimal_data_point() {
        // A dominant weight pins the optimum at the point itself.
        let pts = [wp(0.0, 0.0, 100.0), wp(10.0, 0.0, 1.0), wp(0.0, 10.0, 1.0)];
        let q = Point::new(0.0, 0.0);
        assert_eq!(vardi_zhang_step(q, &pts), q);
    }

    #[test]
    fn descent_is_monotone() {
        let pts = pseudo_instance(20, 5);
        let mut q = exact::centroid(&pts);
        let mut last = cost(q, &pts);
        for _ in 0..50 {
            q = vardi_zhang_step(q, &pts);
            let c = cost(q, &pts);
            assert!(c <= last + 1e-9 * last, "cost increased: {c} > {last}");
            last = c;
        }
    }

    #[test]
    fn lower_bound_is_valid() {
        // lb at any iterate must not exceed the (converged) optimal cost.
        for seed in [1u64, 2, 3, 4, 5] {
            let pts = pseudo_instance(8, seed);
            let opt = solve(&pts, StoppingRule::Either(1e-12, 50_000));
            let mut q = exact::centroid(&pts);
            for _ in 0..20 {
                let lb = lower_bound(q, &pts);
                assert!(
                    lb <= opt.cost * (1.0 + 1e-9),
                    "seed {seed}: lb {lb} > opt {}",
                    opt.cost
                );
                q = vardi_zhang_step(q, &pts);
            }
        }
    }

    #[test]
    fn lower_bound_tightens_near_optimum() {
        let pts = pseudo_instance(10, 9);
        let opt = solve(&pts, StoppingRule::Either(1e-12, 50_000));
        let lb = lower_bound(opt.location, &pts);
        assert!(lb > 0.9 * opt.cost, "lb {lb} vs cost {}", opt.cost);
    }

    #[test]
    fn solve_matches_grid_scan() {
        let pts = pseudo_instance(7, 42);
        let sol = solve(&pts, StoppingRule::ErrorBound(1e-9));
        let mut best = f64::INFINITY;
        for i in 0..=100 {
            for j in 0..=100 {
                let q = Point::new(i as f64, j as f64);
                best = best.min(cost(q, &pts));
            }
        }
        assert!(
            sol.cost <= best + 1e-6,
            "solver {} vs grid {}",
            sol.cost,
            best
        );
    }

    #[test]
    fn solve_dispatches_exact_cases() {
        assert!(solve(&[wp(1.0, 1.0, 2.0)], StoppingRule::ErrorBound(1e-3)).exact);
        assert!(
            solve(
                &[wp(0.0, 0.0, 1.0), wp(1.0, 0.0, 2.0)],
                StoppingRule::ErrorBound(1e-3)
            )
            .exact
        );
        let col: Vec<WeightedPoint> = (0..5).map(|i| wp(i as f64, i as f64, 1.0)).collect();
        assert!(solve(&col, StoppingRule::ErrorBound(1e-3)).exact);
    }

    #[test]
    fn error_bound_controls_accuracy() {
        let pts = pseudo_instance(9, 77);
        let rough = solve(&pts, StoppingRule::ErrorBound(0.1));
        let fine = solve(&pts, StoppingRule::ErrorBound(1e-10));
        assert!(fine.cost <= rough.cost + 1e-12);
        assert!(fine.iterations >= rough.iterations);
        // The guarantee: rough cost within 10% of optimal.
        assert!(rough.cost <= fine.cost * 1.1 + 1e-9);
    }

    #[test]
    fn lower_bound_heap_path_matches_stack_path() {
        // A group past the stack buffer must give the same bits as the same
        // computation with an explicitly allocated, stably sorted buffer.
        let reference = |l: Point, pts: &[WeightedPoint]| {
            let mut bound = 0.0;
            for k in 0..2 {
                let mut axis: Vec<(f64, f64)> = Vec::new();
                for p in pts {
                    let d = l.dist(p.loc);
                    if d == 0.0 {
                        continue;
                    }
                    let (pc, lc) = if k == 0 {
                        (p.loc.x, l.x)
                    } else {
                        (p.loc.y, l.y)
                    };
                    let alpha = p.weight * (lc - pc).abs() / d;
                    if alpha > 0.0 {
                        axis.push((pc, alpha));
                    }
                }
                bound += weighted_median_min(&mut axis);
            }
            bound
        };
        for n in [1, 3, LOWER_BOUND_STACK, LOWER_BOUND_STACK + 1, 40] {
            let pts = pseudo_instance(n, n as u64);
            let l = Point::new(37.5, 61.25);
            assert_eq!(
                lower_bound(l, &pts).to_bits(),
                reference(l, &pts).to_bits(),
                "n = {n}"
            );
            // An iterate on a data point drops that point's term.
            assert_eq!(
                lower_bound(pts[0].loc, &pts).to_bits(),
                reference(pts[0].loc, &pts).to_bits(),
                "n = {n} at a data point"
            );
        }
    }

    #[test]
    fn bounded_iteration_prunes_or_matches_unbounded() {
        let pts = pseudo_instance(6, 21);
        let rule = StoppingRule::Either(1e-12, 10_000);
        let start = exact::centroid(&pts);
        let free = solve_from(start, &pts, rule);
        // A bound above the optimum never prunes, and the bits are the
        // unbounded ones.
        let kept = solve_from_bounded(start, &pts, rule, 0.5, free.cost + 1.0).unwrap();
        assert_eq!(kept.location, free.location);
        assert_eq!(kept.cost.to_bits(), free.cost.to_bits());
        assert_eq!(kept.iterations, free.iterations);
        // A bound below the optimum is crossed by the Eq. 10 bound.
        let iters = solve_from_bounded(start, &pts, rule, 0.0, 0.5 * free.cost).unwrap_err();
        assert!(iters >= 1 && iters <= free.iterations);
    }

    #[test]
    fn max_iterations_is_respected() {
        let pts = pseudo_instance(15, 3);
        let sol = solve(&pts, StoppingRule::MaxIterations(3));
        assert!(sol.iterations <= 3);
    }
}
