//! Exact Fermat–Weber cases: one/two points, collinear sets, three points.

use crate::types::{cost, FwSolution, WeightedPoint};
use molq_geom::robust::orient2d;
use molq_geom::Point;

/// Exact optimum for two weighted points.
///
/// The cost `w₁·d(q,p₁) + w₂·d(q,p₂)` restricted to the segment is linear in
/// the position, so the optimum sits at the endpoint with the larger weight
/// (cost `min(w₁,w₂)·d(p₁,p₂)`); off-segment locations are never better by
/// the triangle inequality. Equal weights make the whole segment optimal; the
/// first point is returned.
pub fn two_point(a: WeightedPoint, b: WeightedPoint) -> FwSolution {
    let location = if a.weight >= b.weight { a.loc } else { b.loc };
    FwSolution {
        location,
        cost: a.weight.min(b.weight) * a.loc.dist(b.loc),
        iterations: 0,
        exact: true,
    }
}

/// `true` when all points are collinear (exact orientation test).
pub fn is_collinear(pts: &[WeightedPoint]) -> bool {
    if pts.len() < 3 {
        return true;
    }
    // Find two distinct anchor points, then test the rest.
    let a = pts[0].loc;
    let Some(b) = pts.iter().map(|p| p.loc).find(|&p| p != a) else {
        return true; // all identical
    };
    pts.iter().all(|p| orient2d(a, b, p.loc) == 0.0)
}

/// Exact optimum for collinear points: the weighted median along the line
/// (`O(n log n)`, per the paper's reference to the linear-time solvable
/// collinear case).
///
/// Panics if the points are not collinear (`debug_assert`).
pub fn collinear(pts: &[WeightedPoint]) -> FwSolution {
    debug_assert!(is_collinear(pts), "points must be collinear");
    assert!(!pts.is_empty());
    if pts.len() == 1 {
        return FwSolution {
            location: pts[0].loc,
            cost: 0.0,
            iterations: 0,
            exact: true,
        };
    }
    // Direction of the line.
    let a = pts[0].loc;
    let dir = pts
        .iter()
        .map(|p| p.loc)
        .find(|&p| p != a)
        .map(|b| (b - a).normalized().unwrap())
        .unwrap_or(Point::new(1.0, 0.0));

    // Project, sort, take the weighted median.
    let mut proj: Vec<(f64, f64, Point)> = pts
        .iter()
        .map(|p| ((p.loc - a).dot(dir), p.weight, p.loc))
        .collect();
    proj.sort_by(|x, y| x.0.total_cmp(&y.0));
    let total: f64 = proj.iter().map(|e| e.1).sum();
    let mut acc = 0.0;
    let mut loc = proj[proj.len() - 1].2;
    for &(_, w, p) in &proj {
        acc += w;
        if acc >= total * 0.5 {
            loc = p;
            break;
        }
    }
    FwSolution {
        location: loc,
        cost: cost(loc, pts),
        iterations: 0,
        exact: true,
    }
}

/// Whether vertex `i` of a three-point instance is optimal: the pull of the
/// other two points must not exceed the vertex's own weight,
/// `‖Σ_{j≠i} wⱼ·uⱼ‖ ≤ wᵢ` with `uⱼ` unit vectors toward the other points.
fn vertex_is_optimal(pts: &[WeightedPoint; 3], i: usize) -> bool {
    let p = pts[i];
    let mut pull = Point::ORIGIN;
    for (j, q) in pts.iter().enumerate() {
        if j == i {
            continue;
        }
        match (q.loc - p.loc).normalized() {
            Some(u) => pull = pull + u * q.weight,
            // Coincident point: its pull direction is arbitrary but its
            // magnitude adds fully; model as full opposing weight.
            None => return q.weight <= p.weight,
        }
    }
    pull.norm() <= p.weight
}

/// Three-point weighted Fermat–Weber.
///
/// Performs the exact vertex-optimality test (constant time, the case the
/// paper cites from Jalal & Krarup); interior optima are found by driving the
/// Vardi–Zhang iteration to machine precision, which matches the geometric
/// construction to ~1e-12 of the cost. Under Algorithm 5 the interior loop
/// takes the global cost bound (`three_point_bounded`, used by
/// [`crate::batch::solve_group_bounded`]) and stops once it is exceeded.
pub fn three_point(pts: &[WeightedPoint; 3]) -> FwSolution {
    three_point_bounded(pts, 0.0, f64::INFINITY).expect("an infinite bound never prunes")
}

/// [`three_point`] under a global cost bound: the interior Vardi–Zhang loop
/// gives up with `Err(iterations)` once its Eq. 10 lower bound plus the
/// group's additive `constant` exceeds `cbound` (see
/// `weiszfeld::solve_from_bounded`). The loop evaluates that bound
/// every iteration anyway, so the check is free, and a solve that is not
/// abandoned returns exactly the bits of [`three_point`]. Vertex optima are
/// exact and cost one test each, so they are returned whatever the bound.
pub(crate) fn three_point_bounded(
    pts: &[WeightedPoint; 3],
    constant: f64,
    cbound: f64,
) -> Result<FwSolution, usize> {
    for i in 0..3 {
        if vertex_is_optimal(pts, i) {
            return Ok(FwSolution {
                location: pts[i].loc,
                cost: cost(pts[i].loc, &pts[..]),
                iterations: 0,
                exact: true,
            });
        }
    }
    // Interior optimum: iterate to machine precision.
    let sol = crate::weiszfeld::solve_from_bounded(
        centroid(&pts[..]),
        &pts[..],
        crate::types::StoppingRule::Either(1e-14, 10_000),
        constant,
        cbound,
    )?;
    Ok(FwSolution { exact: true, ..sol })
}

/// Weighted centroid — the iteration's default starting location.
pub fn centroid(pts: &[WeightedPoint]) -> Point {
    let total: f64 = pts.iter().map(|p| p.weight).sum();
    let sum = pts
        .iter()
        .fold(Point::ORIGIN, |acc, p| acc + p.loc * p.weight);
    sum / total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wp(x: f64, y: f64, w: f64) -> WeightedPoint {
        WeightedPoint::new(Point::new(x, y), w)
    }

    #[test]
    fn two_point_goes_to_heavier() {
        let s = two_point(wp(0.0, 0.0, 3.0), wp(4.0, 0.0, 1.0));
        assert_eq!(s.location, Point::new(0.0, 0.0));
        assert!((s.cost - 4.0).abs() < 1e-12);
        let s = two_point(wp(0.0, 0.0, 1.0), wp(4.0, 0.0, 3.0));
        assert_eq!(s.location, Point::new(4.0, 0.0));
        assert!((s.cost - 4.0).abs() < 1e-12);
    }

    #[test]
    fn collinear_detection() {
        assert!(is_collinear(&[wp(0.0, 0.0, 1.0), wp(1.0, 1.0, 1.0)]));
        assert!(is_collinear(&[
            wp(0.0, 0.0, 1.0),
            wp(1.0, 1.0, 1.0),
            wp(5.0, 5.0, 2.0)
        ]));
        assert!(!is_collinear(&[
            wp(0.0, 0.0, 1.0),
            wp(1.0, 1.0, 1.0),
            wp(1.0, 0.0, 1.0)
        ]));
        // All identical points are collinear.
        assert!(is_collinear(&[
            wp(2.0, 2.0, 1.0),
            wp(2.0, 2.0, 1.0),
            wp(2.0, 2.0, 1.0)
        ]));
    }

    #[test]
    fn collinear_median_unweighted() {
        // Five equally weighted points on a line: the median (third) wins.
        let pts: Vec<WeightedPoint> = (0..5).map(|i| wp(i as f64, 0.0, 1.0)).collect();
        let s = collinear(&pts);
        assert_eq!(s.location, Point::new(2.0, 0.0));
        assert!((s.cost - (2.0 + 1.0 + 0.0 + 1.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn collinear_median_weighted() {
        // A heavy endpoint drags the optimum to itself.
        let pts = vec![wp(0.0, 0.0, 10.0), wp(1.0, 0.0, 1.0), wp(2.0, 0.0, 1.0)];
        let s = collinear(&pts);
        assert_eq!(s.location, Point::new(0.0, 0.0));
    }

    #[test]
    fn collinear_on_diagonal_line() {
        let pts = vec![wp(0.0, 0.0, 1.0), wp(1.0, 2.0, 1.0), wp(2.0, 4.0, 1.0)];
        let s = collinear(&pts);
        assert_eq!(s.location, Point::new(1.0, 2.0));
    }

    #[test]
    fn equilateral_unweighted_optimum_is_fermat_point() {
        // Equilateral triangle with unit weights: the Fermat point is the
        // centroid.
        let h = 3.0_f64.sqrt() / 2.0;
        let pts = [wp(0.0, 0.0, 1.0), wp(1.0, 0.0, 1.0), wp(0.5, h, 1.0)];
        let s = three_point(&pts);
        let c = Point::new(0.5, h / 3.0);
        assert!(s.location.dist(c) < 1e-7, "got {}", s.location);
    }

    #[test]
    fn dominant_weight_pins_vertex() {
        // w₀ ≥ w₁ + w₂ always pins the optimum at p₀.
        let pts = [wp(0.0, 0.0, 5.0), wp(10.0, 0.0, 2.0), wp(0.0, 10.0, 2.0)];
        let s = three_point(&pts);
        assert_eq!(s.location, Point::new(0.0, 0.0));
        assert!(s.exact);
        assert_eq!(s.iterations, 0);
    }

    #[test]
    fn obtuse_unweighted_vertex_case() {
        // An angle ≥ 120° pins the unweighted Fermat point at that vertex.
        let pts = [wp(0.0, 0.0, 1.0), wp(10.0, 0.1, 1.0), wp(-10.0, 0.1, 1.0)];
        let s = three_point(&pts);
        assert_eq!(s.location, Point::new(0.0, 0.0));
    }

    #[test]
    fn three_point_beats_grid_scan() {
        // The reported optimum must not be worse than any point of a dense
        // grid scan.
        let pts = [wp(0.0, 0.0, 1.0), wp(4.0, 0.0, 2.0), wp(1.0, 3.0, 1.5)];
        let s = three_point(&pts);
        let mut best = f64::INFINITY;
        for i in 0..=80 {
            for j in 0..=80 {
                let q = Point::new(i as f64 * 0.05, j as f64 * 0.05);
                best = best.min(cost(q, &pts[..]));
            }
        }
        assert!(s.cost <= best + 1e-6, "solver {} vs grid {}", s.cost, best);
    }

    #[test]
    fn centroid_is_weighted() {
        let c = centroid(&[wp(0.0, 0.0, 1.0), wp(4.0, 0.0, 3.0)]);
        assert_eq!(c, Point::new(3.0, 0.0));
    }
}
