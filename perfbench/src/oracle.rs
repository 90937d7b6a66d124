//! In-process oracle: the answers the server must give, computed by calling
//! the library directly on the same object sets.
//!
//! `/solve` and `/topk` must be bit-identical to
//! `solve_arena_cancellable_with` / `solve_topk_arena_cancellable_with`;
//! `/locate` must name the minimum-(cost, id) candidate at the snapped
//! point. For the write workload the oracle keeps its own `LiveMovd` and
//! applies every update through the same `apply_one` the server uses.

use crate::workload::{self, Op, Workload, TOPK_K};
use molq_core::prelude::*;
use molq_fw::StoppingRule;
use molq_geom::Point;
use molq_server::json::Json;

/// `--eps` default of `molq serve`: the Fermat–Weber stopping tolerance
/// every served query carries.
pub const SERVE_EPS: f64 = 1e-3;

/// Cache-lattice steps per side of the search space (the server's
/// quantization of `/locate` coordinates).
const QUANT_STEPS: f64 = (1u64 << 20) as f64;

enum Holder {
    Fixed(Box<MovdIndex>),
    Live(Box<LiveMovd>),
}

/// Expected answers for the diagram the server currently serves.
pub struct Oracle {
    holder: Holder,
    query: MolqQuery,
    meta: BuildMeta,
    exec: ExecConfig,
    lanes: Option<FwLanes>,
    solve: Option<MovdAnswer>,
    topk: Option<TopKAnswer>,
}

/// The server's query over `sets`.
pub fn served_query(sets: Vec<ObjectSet>) -> MolqQuery {
    MolqQuery::new(sets, workload::bounds()).with_rule(StoppingRule::Either(SERVE_EPS, 100_000))
}

/// Builds the served diagram of `sets` from scratch, exactly as
/// `molq serve` does.
pub fn build(
    w: &Workload,
    sets: &[ObjectSet],
    exec: ExecConfig,
) -> Result<(MovdIndex, BuildMeta), String> {
    let plan = BuildPlan::for_mode(workload::build_mode(w));
    let (movd, meta) = build_movd(sets, workload::bounds(), Boundary::Rrb, &plan, exec)
        .map_err(|e| e.to_string())?;
    Ok((MovdIndex::build(movd), meta))
}

impl Oracle {
    /// An oracle over a freshly built diagram of `sets`; `live` keeps a
    /// patchable copy for update workloads.
    pub fn new(
        w: &Workload,
        sets: Vec<ObjectSet>,
        live: bool,
        exec: ExecConfig,
    ) -> Result<Oracle, String> {
        let (index, meta) = build(w, &sets, exec)?;
        let holder = if live {
            Holder::Live(Box::new(
                LiveMovd::from_index(sets.clone(), index, Boundary::Rrb, exec)
                    .map_err(|e| e.to_string())?,
            ))
        } else {
            Holder::Fixed(Box::new(index))
        };
        Ok(Oracle {
            holder,
            query: served_query(sets),
            meta,
            exec,
            lanes: None,
            solve: None,
            topk: None,
        })
    }

    /// The current diagram.
    pub fn index(&self) -> &MovdIndex {
        match &self.holder {
            Holder::Fixed(index) => index,
            Holder::Live(live) => live.index(),
        }
    }

    /// The current query (object sets, bounds, stopping rule).
    pub fn query(&self) -> &MolqQuery {
        &self.query
    }

    /// Applies a scheduled update, returning its patch statistics and
    /// whether it took the full-rebuild path; `Ok(None)` for other ops.
    pub fn apply(&mut self, op: &Op) -> Result<Option<(PatchStats, bool)>, String> {
        let Some(update) = update_of(op) else {
            return Ok(None);
        };
        let Holder::Live(live) = &mut self.holder else {
            return Err("updates need a live oracle".into());
        };
        let done =
            molq_server::engine::apply_one(live, false, &update).map_err(|e| e.to_string())?;
        self.query = served_query(live.sets().to_vec());
        self.lanes = None;
        self.solve = None;
        self.topk = None;
        Ok(Some(done))
    }

    /// `true` when the current diagram's scan lanes are derived.
    pub fn has_lanes(&self) -> bool {
        self.lanes.is_some()
    }

    /// Derives the scan lanes of the current diagram unless they already
    /// are.
    pub fn derive_lanes(&mut self) {
        if self.lanes.is_none() {
            self.lanes = Some(FwLanes::from_arena(&self.query, self.index().arena()));
        }
    }

    /// Runs the solve scan on the current diagram (always, even when an
    /// answer is cached) and keeps it as the expected `/solve` answer.
    pub fn solve(&mut self) -> Result<MovdAnswer, String> {
        self.derive_lanes();
        let lanes = self.lanes.as_ref().expect("derived");
        let answer = solve_arena_cancellable_with(
            &self.query,
            self.index().arena(),
            lanes,
            &CancelToken::new(),
            self.exec,
        )
        .map_err(|e| e.to_string())?
        .with_certified_factor(self.meta.certified_factor());
        self.solve = Some(answer.clone());
        Ok(answer)
    }

    /// Runs the top-k scan on the current diagram and keeps it as the
    /// expected `/topk?k=TOPK_K` answer.
    pub fn topk(&mut self) -> Result<TopKAnswer, String> {
        self.derive_lanes();
        let lanes = self.lanes.as_ref().expect("derived");
        let answer = solve_topk_arena_cancellable_with(
            &self.query,
            self.index().arena(),
            lanes,
            TOPK_K,
            &CancelToken::new(),
            self.exec,
        )
        .map_err(|e| e.to_string())?
        .with_certified_factor(self.meta.certified_factor());
        self.topk = Some(answer.clone());
        Ok(answer)
    }

    /// Checks a `/solve` body.
    pub fn check_solve(&mut self, body: &Json) -> Result<(), String> {
        let want = match &self.solve {
            Some(answer) => answer.clone(),
            None => self.solve()?,
        };
        let loc = body.get("location").ok_or("solve: no location")?;
        bits("solve location.x", num(loc, "x")?, want.location.x)?;
        bits("solve location.y", num(loc, "y")?, want.location.y)?;
        bits("solve cost", num(body, "cost")?, want.cost)?;
        bits(
            "solve certified_factor",
            num(body, "certified_factor")?,
            want.certified_factor,
        )?;
        bits(
            "solve cost_lower_bound",
            num(body, "cost_lower_bound")?,
            want.cost_lower_bound(),
        )?;
        if num(body, "ovr_count")? != want.ovr_count as f64 {
            return Err(format!("solve ovr_count differs from {}", want.ovr_count));
        }
        self.check_certificate(body)
    }

    /// Checks a `/topk` body.
    pub fn check_topk(&mut self, body: &Json) -> Result<(), String> {
        let want = match &self.topk {
            Some(answer) => answer.clone(),
            None => self.topk()?,
        };
        let got = body
            .get("candidates")
            .and_then(Json::as_arr)
            .ok_or("topk: no candidates")?;
        if got.len() != want.candidates.len() {
            return Err(format!(
                "topk: {} candidates, expected {}",
                got.len(),
                want.candidates.len()
            ));
        }
        for (g, w) in got.iter().zip(&want.candidates) {
            bits("topk x", num(g, "x")?, w.location.x)?;
            bits("topk y", num(g, "y")?, w.location.y)?;
            bits("topk cost", num(g, "cost")?, w.cost)?;
        }
        bits(
            "topk certified_factor",
            num(body, "certified_factor")?,
            want.certified_factor,
        )?;
        self.check_certificate(body)
    }

    /// Approximate answers must carry the build's `(1+ε)` factor, and a
    /// solve's lower bound may not exceed its cost.
    fn check_certificate(&self, body: &Json) -> Result<(), String> {
        let factor = num(body, "certified_factor")?;
        if factor.to_bits() != (1.0 + self.meta.mode.epsilon()).to_bits() {
            return Err(format!("certified_factor {factor} is not 1 + ε"));
        }
        if let (Some(lb), Some(cost)) = (
            body.get("cost_lower_bound").and_then(Json::as_f64),
            body.get("cost").and_then(Json::as_f64),
        ) {
            if lb > cost {
                return Err(format!("cost_lower_bound {lb} > cost {cost}"));
            }
        }
        Ok(())
    }

    /// The lattice point the server evaluates a `/locate` probe at.
    pub fn snap(&self, p: Point) -> Point {
        let b = self.query.bounds;
        let q = b.width().max(b.height()) / QUANT_STEPS;
        Point::new(
            b.min_x + ((p.x - b.min_x) / q).round() * q,
            b.min_y + ((p.y - b.min_y) / q).round() * q,
        )
    }

    /// The minimum-(cost, id) candidate OVR at `l`, with its cost and the
    /// number of candidates considered.
    pub fn locate(&self, l: Point) -> Option<(usize, f64, usize)> {
        let index = self.index();
        let ids = index.locate_candidate_ids(l);
        let best = ids
            .iter()
            .map(|&id| (id, wgd(l, &self.query, index.group(id))))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))?;
        Some((best.0, best.1, ids.len()))
    }

    /// Checks a `/locate` body for probe `p`.
    pub fn check_locate(&self, p: Point, body: &Json) -> Result<(), String> {
        let l = self.snap(p);
        let at = body.get("evaluated_at").ok_or("locate: no evaluated_at")?;
        bits("locate evaluated_at.x", num(at, "x")?, l.x)?;
        bits("locate evaluated_at.y", num(at, "y")?, l.y)?;
        let (id, cost, _) = self.locate(l).ok_or("locate: no candidate OVR")?;
        if num(body, "ovr_id")? != id as f64 {
            return Err(format!("locate ovr_id differs from {id}"));
        }
        bits("locate cost", num(body, "cost")?, cost)
    }
}

/// The library update a scheduled op describes.
pub fn update_of(op: &Op) -> Option<Update> {
    match *op {
        Op::Insert { set, at } => Some(Update::Insert {
            set,
            object: SpatialObject {
                loc: at,
                w_t: 1.0,
                w_o: 1.0,
            },
        }),
        Op::Remove { set, index } => Some(Update::Remove { set, index }),
        _ => None,
    }
}

/// A numeric field of a JSON object.
pub fn num(body: &Json, key: &str) -> Result<f64, String> {
    body.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number {key:?} in {}", body.encode()))
}

fn bits(what: &str, got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: served {got:?}, expected {want:?}"))
    }
}

/// `true` when two arenas hold bit-identical lanes.
pub fn arena_bits_eq(a: &MovdArena, b: &MovdArena) -> bool {
    a.kinds() == b.kinds()
        && a.poly_off() == b.poly_off()
        && a.vert_off() == b.vert_off()
        && a.group_off() == b.group_off()
        && a.pois() == b.pois()
        && a.bounds() == b.bounds()
        && a.verts().len() == b.verts().len()
        && a.verts()
            .iter()
            .zip(b.verts())
            .all(|(p, q)| p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits())
}
