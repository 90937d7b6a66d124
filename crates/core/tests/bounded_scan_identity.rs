//! Differential bit-identity of the bounded scans.
//!
//! The reference is frozen and unbounded: every OVR group is solved at
//! `cbound = ∞` with both filters off (the "Original" path), the `/solve`
//! winner is the minimum by `(cost, group index)`, and the top-k list is the
//! in-order replay of every contained candidate through the ranking rules.
//! The served scans — prefilter lanes, the seeded bound, the three-point
//! prune, the serial fallback — may only skip work: their location, cost
//! and top-k list must equal the reference bit for bit at every thread
//! count.

use molq_core::prelude::*;
use molq_fw::{solve_group_bounded_with, BatchStats, CostBoundConfig, GroupOutcome, StoppingRule};
use molq_geom::{Mbr, Point};

const THREADS: [usize; 3] = [1, 2, 8];
const TOPK: usize = 5;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as f64 / u32::MAX as f64
    }
}

fn bounds() -> Mbr {
    Mbr::new(0.0, 0.0, 100.0, 100.0)
}

/// A random query with `types` sets of `n` objects each. Type weights are
/// log-uniform over six decades; every other set uses additive object
/// weights (one per set, so the diagrams stay ordinary) to put a constant
/// into the group costs. Each set also places one object on the line
/// `y = 50` near the centre (collinear groups) and one object on a site
/// shared by every set (coincident points).
fn random_query(types: usize, n: usize, seed: u64, rule: StoppingRule) -> MolqQuery {
    let mut rng = Lcg(seed);
    let shared = Point::new(20.0 + 60.0 * rng.next(), 20.0 + 60.0 * rng.next());
    let sets = (0..types)
        .map(|t| {
            let w_t = 10f64.powf(6.0 * rng.next() - 3.0);
            let mut locs = vec![Point::new(40.0 + 5.0 * t as f64, 50.0), shared];
            while locs.len() < n {
                let p = Point::new(100.0 * rng.next(), 100.0 * rng.next());
                if !locs.contains(&p) {
                    locs.push(p);
                }
            }
            let name = format!("t{t}");
            if t % 2 == 1 {
                let w_o = 0.5 + 4.0 * rng.next();
                let objects = locs
                    .into_iter()
                    .map(|loc| SpatialObject { loc, w_t, w_o })
                    .collect();
                ObjectSet::weighted(&name, objects, WeightFunction::Additive)
            } else {
                ObjectSet::uniform(&name, w_t, locs)
            }
        })
        .collect();
    MolqQuery::new(sets, bounds()).with_rule(rule)
}

/// Every group of the diagram solved unbounded, as `(cost, location)`.
fn unbounded(query: &MolqQuery, arena: &MovdArena) -> Vec<(f64, Point)> {
    let off = CostBoundConfig {
        prefilter: false,
        prune: false,
    };
    (0..arena.len())
        .map(|i| {
            let (pts, constant) = query.fw_terms(arena.group(i));
            let mut stats = BatchStats::default();
            match solve_group_bounded_with(
                &pts,
                constant,
                query.rule,
                f64::INFINITY,
                &mut stats,
                off,
            ) {
                GroupOutcome::Solved(sol) => (sol.cost, sol.location),
                other => panic!("group {i} skipped with both filters off: {other:?}"),
            }
        })
        .collect()
}

/// The reference `/solve` answer: minimum by `(cost, group index)`.
fn reference_solve(solved: &[(f64, Point)]) -> (f64, Point) {
    let mut best = solved[0];
    for &(cost, location) in &solved[1..] {
        if cost < best.0 {
            best = (cost, location);
        }
    }
    best
}

/// The reference top-k list: every contained candidate replayed in group
/// order through the ranking rules (cost-ascending, a near-coincident
/// candidate replaces its twin only when strictly cheaper, truncated to k).
fn reference_topk(
    query: &MolqQuery,
    arena: &MovdArena,
    solved: &[(f64, Point)],
    k: usize,
) -> Vec<Candidate> {
    let b = query.bounds;
    let min_sep = 1e-6 * (b.width().powi(2) + b.height().powi(2)).sqrt();
    let mut best: Vec<Candidate> = Vec::new();
    for (i, &(cost, location)) in solved.iter().enumerate() {
        if !arena.contains(i, location) {
            continue;
        }
        if best.len() == k && cost >= best[k - 1].cost {
            continue;
        }
        if let Some(pos) = best
            .iter()
            .position(|c| c.location.dist(location) <= min_sep)
        {
            if cost >= best[pos].cost {
                continue;
            }
            best.remove(pos);
        }
        let at = best.partition_point(|c| c.cost <= cost);
        best.insert(
            at,
            Candidate {
                location,
                cost,
                group: arena.group(i).to_vec(),
            },
        );
        best.truncate(k);
    }
    best
}

fn bits(p: Point) -> (u64, u64) {
    (p.x.to_bits(), p.y.to_bits())
}

/// Groups that must pass the seeded bound before the Optimizer scan runs in
/// parallel (`MIN_PARALLEL_GROUPS` of the exec layer).
const MIN_PARALLEL_GROUPS: usize = 192;

/// Checks both boundary modes of `query`; returns how many of the two
/// diagrams had enough groups pass the seeded bound to run the `/solve`
/// scan on the parallel pool.
fn check_query(query: &MolqQuery, label: &str) -> usize {
    let mut parallel = 0;
    for mode in [Boundary::Rrb, Boundary::Mbrb] {
        let movd = Movd::overlap_all_with(&query.sets, query.bounds, mode, ExecConfig::serial())
            .unwrap_or_else(|e| panic!("{label} {mode:?}: build failed: {e}"));
        let arena = MovdArena::from_movd(&movd);
        let lanes = FwLanes::from_arena(query, &arena);
        let solved = unbounded(query, &arena);
        let (cost, location) = reference_solve(&solved);
        let topk = reference_topk(query, &arena, &solved, TOPK);
        let seeded = solved[lanes.seed().unwrap()].0;
        let open = lanes.bounds().iter().filter(|&&b| b <= seeded).count();
        parallel += usize::from(open >= MIN_PARALLEL_GROUPS);
        let never = CancelToken::never();
        for threads in THREADS {
            let exec = ExecConfig::new(threads);
            let ctx = format!("{label} {mode:?} threads={threads}");
            let ans = solve_arena_cancellable_with(query, &arena, &lanes, &never, exec).unwrap();
            assert_eq!(bits(ans.location), bits(location), "{ctx}: location");
            assert_eq!(ans.cost.to_bits(), cost.to_bits(), "{ctx}: cost");
            assert_eq!(ans.ovr_count, arena.len(), "{ctx}");
            assert_eq!(ans.movd_bytes, movd.footprint_bytes(), "{ctx}");

            let got = solve_topk_arena_cancellable_with(query, &arena, &lanes, TOPK, &never, exec)
                .unwrap();
            assert_eq!(got.candidates.len(), topk.len(), "{ctx}: top-k length");
            for (r, (g, w)) in got.candidates.iter().zip(&topk).enumerate() {
                assert_eq!(bits(g.location), bits(w.location), "{ctx}: top-k #{r}");
                assert_eq!(g.cost.to_bits(), w.cost.to_bits(), "{ctx}: top-k #{r}");
                assert_eq!(g.group, w.group, "{ctx}: top-k #{r}");
            }
        }
    }
    parallel
}

#[test]
fn bounded_scans_match_the_unbounded_reference() {
    let mut cases = 0;
    let mut parallel = 0;
    for seed in 0..10u64 {
        let types = 2 + (seed as usize % 4);
        let n = [60, 30, 16, 10][types - 2];
        for rule in [
            StoppingRule::Either(1e-3, 100_000),
            StoppingRule::Either(1e-9, 50_000),
        ] {
            let q = random_query(types, n, 1000 + seed, rule);
            parallel += check_query(&q, &format!("seed {seed}, {types} types, {rule:?}"));
            cases += 1;
        }
    }
    assert_eq!(cases, 20);
    // Both scan shapes are covered: the serial fallback (3 types, where the
    // seed leaves almost nothing open) and the parallel pool (weak 4- and
    // 5-point pair bounds under extreme weights).
    assert!(parallel > 0 && parallel < 2 * cases, "{parallel} parallel");
}

#[test]
fn three_point_groups_are_skipped_not_solved() {
    // The paper's default 3-type query: with the pairwise prefilter and the
    // interior prune in front of the exact solver, almost every group is
    // skipped, and the serial scan's counters account for every group.
    let q = random_query(3, 30, 77, StoppingRule::Either(1e-3, 100_000));
    let movd =
        Movd::overlap_all_with(&q.sets, q.bounds, Boundary::Rrb, ExecConfig::serial()).unwrap();
    let arena = MovdArena::from_movd(&movd);
    let lanes = FwLanes::from_arena(&q, &arena);
    let ans = solve_arena_cancellable_with(
        &q,
        &arena,
        &lanes,
        &CancelToken::never(),
        ExecConfig::serial(),
    )
    .unwrap();
    let s = ans.stats;
    assert_eq!(
        s.exact_groups + s.prefiltered_groups + s.pruned_groups,
        arena.len(),
        "{s:?}"
    );
    assert!(
        s.prefiltered_groups + s.pruned_groups >= arena.len() * 9 / 10,
        "{s:?} of {} groups",
        arena.len()
    );
}

#[test]
fn solvers_agree_on_three_types() {
    for seed in [5u64, 6, 7] {
        let q = random_query(3, 40, seed, StoppingRule::Either(1e-12, 100_000));
        let ssc = solve_ssc_with(&q, ExecConfig::serial()).unwrap();
        let mut costs = vec![("ssc", ssc.cost)];
        for mode in [Boundary::Rrb, Boundary::Mbrb] {
            for threads in THREADS {
                let ans = solve_movd_with(&q, mode, ExecConfig::new(threads)).unwrap();
                costs.push(("movd", ans.cost));
            }
            costs.push(("tiled", solve_tiled(&q, mode, 3).unwrap().cost));
            costs.push(("pruned", solve_pruned(&q, mode).unwrap().answer.cost));
        }
        for threads in [2, 8] {
            let par = solve_ssc_with(&q, ExecConfig::new(threads)).unwrap();
            assert_eq!(bits(par.location), bits(ssc.location), "seed {seed}");
            assert_eq!(par.cost.to_bits(), ssc.cost.to_bits(), "seed {seed}");
        }
        for (name, cost) in costs {
            assert!(
                (cost - ssc.cost).abs() <= 1e-9 * ssc.cost,
                "seed {seed}: {name} {cost} vs ssc {}",
                ssc.cost
            );
        }
    }
}
