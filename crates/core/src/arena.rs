//! Contiguous arena layout for a built MOVD.
//!
//! A pointer-rich [`Movd`] scatters every OVR's polygon vertices, group
//! references, and per-region `Vec` headers across the heap: the per-group
//! scan pays a cache miss per hop and the snapshot store re-encodes the
//! structures one by one. [`MovdArena`] flattens the whole diagram into six
//! flat buffers in CSR style (the same layout discipline as
//! [`crate::locate_grid::LocateGrid`]):
//!
//! ```text
//! kinds      [n]          region kind per OVR (convex / rect / general)
//! poly_off   [n + 1]      OVR i owns polygons poly_off[i]..poly_off[i+1]
//! vert_off   [npolys + 1] polygon p owns verts vert_off[p]..vert_off[p+1]
//! verts      [nverts]     every polygon vertex, in OVR order
//! group_off  [n + 1]      OVR i owns pois group_off[i]..group_off[i+1]
//! pois       [npois]      every group member, in OVR order
//! ```
//!
//! A `Rect` region is stored as one two-vertex "polygon" (min corner, max
//! corner), so all three representations share the vertex buffer. The arena
//! is bit-exact: [`MovdArena::to_movd`] reconstructs a diagram whose every
//! IEEE-754 coordinate equals the original's, and the snapshot store
//! (`molq-store`) writes the buffers verbatim — save is a bulk copy, restore
//! is [`MovdArena::from_raw`] validation plus a bulk copy.
//!
//! [`FwLanes`] is the derived (never persisted) SoA cost block: per group
//! one contiguous run of Fermat–Weber weighted points plus an additive
//! constant and the group's prefilter bound, precomputed from a query so the
//! optimizer scan streams over flat `f64` lanes instead of chasing
//! `ObjectRef`s through the object sets, and skips hopeless groups without
//! touching their points.

use crate::movd::{Movd, Ovr};
use crate::object::{MolqQuery, ObjectRef};
use crate::region::Region;
use molq_fw::{
    solve_group_bounded_with, BatchStats, CostBoundConfig, GroupOutcome, StoppingRule,
    WeightedPoint,
};
use molq_geom::{convex_contains, ring_contains, ConvexPolygon, Mbr, Point, Polygon};
use std::ops::Range;

/// Region kind tag: exact convex region ([`Region::Convex`]).
pub const KIND_CONVEX: u8 = 0;
/// Region kind tag: bounding rectangle ([`Region::Rect`]).
pub const KIND_RECT: u8 = 1;
/// Region kind tag: general multi-polygon ([`Region::General`]).
pub const KIND_GENERAL: u8 = 2;

/// Size of a `Vec` header — kept in the byte accounting so the arena reports
/// the same `movd_bytes` the pointer layout did (see [`crate::footprint`]).
const VEC_HEADER: usize = 24;

/// A complete MOVD flattened into contiguous index-based buffers.
///
/// Invariants (validated by [`MovdArena::from_raw`]):
/// * `poly_off` and `group_off` have `len() + 1` entries, start at 0, are
///   non-decreasing, and end at the owned buffer's length;
/// * `vert_off` has `poly_off[n] + 1` entries with the same CSR shape over
///   `verts`;
/// * every kind is one of the three tags; convex and rect OVRs own exactly
///   one polygon, and a rect polygon has exactly two vertices.
///
/// Group (`pois`) ordering is *not* an invariant — diagrams in pre-canonical
/// sweep order are representable, exactly as they were with [`Movd`].
#[derive(Debug, Clone, PartialEq)]
pub struct MovdArena {
    bounds: Mbr,
    kinds: Vec<u8>,
    poly_off: Vec<u32>,
    vert_off: Vec<u32>,
    verts: Vec<Point>,
    group_off: Vec<u32>,
    pois: Vec<ObjectRef>,
    /// [`MovdArena::footprint_bytes`], computed once when the arena is
    /// assembled (a function of the buffers, so derived equality holds).
    footprint: usize,
}

/// Byte sizes of the arena's buffers (reported by `/stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaBufferBytes {
    /// `kinds` buffer bytes.
    pub kinds: usize,
    /// `poly_off` buffer bytes.
    pub poly_off: usize,
    /// `vert_off` buffer bytes.
    pub vert_off: usize,
    /// `verts` buffer bytes.
    pub verts: usize,
    /// `group_off` buffer bytes.
    pub group_off: usize,
    /// `pois` buffer bytes.
    pub pois: usize,
}

impl ArenaBufferBytes {
    /// Sum over all buffers.
    pub fn total(&self) -> usize {
        self.kinds + self.poly_off + self.vert_off + self.verts + self.group_off + self.pois
    }
}

/// One step of a live patch, in new-id order (see [`patch_steps`]).
enum PatchStep {
    /// Copy the old OVRs with these consecutive ids.
    Copy(Range<usize>),
    /// Derive the OVR with this new id.
    Derive(usize),
}

/// Walks a kept-from map (new id → the old id an OVR was copied from, or
/// `None` when it was re-derived) in new-id order, merging OVRs kept from
/// consecutive old ids into one copy.
fn patch_steps(kept_from: &[Option<u32>]) -> impl Iterator<Item = PatchStep> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        let from = *kept_from.get(i)?;
        i += 1;
        let Some(lo) = from else {
            return Some(PatchStep::Derive(i - 1));
        };
        let mut hi = lo as usize + 1;
        while kept_from.get(i) == Some(&Some(hi as u32)) {
            hi += 1;
            i += 1;
        }
        Some(PatchStep::Copy(lo as usize..hi))
    })
}

/// How one live update renumbers the sites of the set it changes: a
/// removal shifts every later site of `set` down by one; an insert appends
/// its site and renumbers nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteRemap {
    /// The updated set.
    pub set: usize,
    /// The removed site, or `None` for an insert.
    pub removed: Option<usize>,
}

impl SiteRemap {
    /// Old site `i` of the updated set → its new index (`None` for the
    /// removed site).
    #[inline]
    pub fn site(&self, i: usize) -> Option<usize> {
        match self.removed {
            Some(d) if i == d => None,
            Some(d) if i > d => Some(i - 1),
            _ => Some(i),
        }
    }
}

impl MovdArena {
    /// Flattens a pointer-based diagram. Lossless: every vertex coordinate
    /// keeps its exact bits and [`MovdArena::to_movd`] inverts it.
    pub fn from_movd(movd: &Movd) -> Self {
        let n = movd.ovrs.len();
        let mut a = MovdArena::with_capacity(movd.bounds, n);
        for ovr in &movd.ovrs {
            a.push_region(&ovr.region);
            a.push_group(&ovr.pois);
        }
        a.sealed()
    }

    fn with_capacity(bounds: Mbr, n: usize) -> Self {
        let mut a = MovdArena {
            bounds,
            kinds: Vec::with_capacity(n),
            poly_off: Vec::with_capacity(n + 1),
            vert_off: Vec::with_capacity(n + 1),
            verts: Vec::new(),
            group_off: Vec::with_capacity(n + 1),
            pois: Vec::new(),
            footprint: 0,
        };
        a.poly_off.push(0);
        a.vert_off.push(0);
        a.group_off.push(0);
        a
    }

    fn push_poly(&mut self, verts: &[Point]) {
        self.verts.extend_from_slice(verts);
        self.vert_off.push(self.verts.len() as u32);
    }

    fn push_region(&mut self, region: &Region) {
        match region {
            Region::Convex(p) => {
                self.kinds.push(KIND_CONVEX);
                self.push_poly(p.vertices());
            }
            Region::Rect(m) => {
                self.kinds.push(KIND_RECT);
                self.push_poly(&[Point::new(m.min_x, m.min_y), Point::new(m.max_x, m.max_y)]);
            }
            Region::General(ps) => {
                self.kinds.push(KIND_GENERAL);
                for p in ps {
                    self.push_poly(p.vertices());
                }
            }
        }
        self.poly_off.push(self.vert_off.len() as u32 - 1);
    }

    fn push_group(&mut self, pois: &[ObjectRef]) {
        self.pois.extend_from_slice(pois);
        self.group_off.push(self.pois.len() as u32);
    }

    /// Reassembles an arena from raw buffers (the snapshot-restore path),
    /// validating every CSR invariant so later indexing cannot go out of
    /// bounds. Group object references are *not* range-checked here — the
    /// store validates them against the object sets it decodes alongside.
    pub fn from_raw(
        bounds: Mbr,
        kinds: Vec<u8>,
        poly_off: Vec<u32>,
        vert_off: Vec<u32>,
        verts: Vec<Point>,
        group_off: Vec<u32>,
        pois: Vec<ObjectRef>,
    ) -> Result<Self, String> {
        let n = kinds.len();
        let check_csr = |off: &[u32], end: usize, name: &str| -> Result<(), String> {
            if off.len() != n + 1 {
                return Err(format!(
                    "arena {name} has {} entries for {n} OVRs (want {})",
                    off.len(),
                    n + 1
                ));
            }
            if off[0] != 0 || *off.last().expect("non-empty") as usize != end {
                return Err(format!("arena {name} must start at 0 and end at {end}"));
            }
            if off.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("arena {name} must be non-decreasing"));
            }
            Ok(())
        };
        check_csr(&poly_off, vert_off.len().saturating_sub(1), "poly_off")?;
        check_csr(&group_off, pois.len(), "group_off")?;
        let npolys = *poly_off.last().expect("validated") as usize;
        if vert_off.len() != npolys + 1 {
            return Err(format!(
                "arena vert_off has {} entries for {npolys} polygons (want {})",
                vert_off.len(),
                npolys + 1
            ));
        }
        if vert_off[0] != 0 || *vert_off.last().expect("non-empty") as usize != verts.len() {
            return Err(format!(
                "arena vert_off must start at 0 and end at {}",
                verts.len()
            ));
        }
        if vert_off.windows(2).any(|w| w[0] > w[1]) {
            return Err("arena vert_off must be non-decreasing".into());
        }
        for (i, &kind) in kinds.iter().enumerate() {
            let polys = (poly_off[i + 1] - poly_off[i]) as usize;
            match kind {
                KIND_CONVEX => {
                    if polys != 1 {
                        return Err(format!("convex OVR {i} has {polys} polygons (want 1)"));
                    }
                }
                KIND_RECT => {
                    if polys != 1 {
                        return Err(format!("rect OVR {i} has {polys} polygons (want 1)"));
                    }
                    let p = poly_off[i] as usize;
                    let nv = (vert_off[p + 1] - vert_off[p]) as usize;
                    if nv != 2 {
                        return Err(format!("rect OVR {i} has {nv} vertices (want 2)"));
                    }
                }
                KIND_GENERAL => {}
                other => return Err(format!("OVR {i} has unknown region kind {other}")),
            }
        }
        Ok(MovdArena {
            bounds,
            kinds,
            poly_off,
            vert_off,
            verts,
            group_off,
            pois,
            footprint: 0,
        }
        .sealed())
    }

    /// The assembled arena with its footprint filled in.
    fn sealed(mut self) -> Self {
        self.footprint = self.count_footprint();
        self
    }

    /// Reconstructs the pointer-based diagram, bit-identical to the one the
    /// arena was built from (same constructors the old snapshot decode used).
    pub fn to_movd(&self) -> Movd {
        let ovrs = (0..self.len())
            .map(|i| {
                let region = match self.kinds[i] {
                    KIND_CONVEX => {
                        Region::Convex(ConvexPolygon::from_ccw(self.poly(i, 0).to_vec()))
                    }
                    KIND_RECT => Region::Rect(self.rect(i)),
                    _ => Region::General(self.polys(i).map(|v| Polygon::new(v.to_vec())).collect()),
                };
                Ovr {
                    region,
                    pois: self.group(i).to_vec(),
                }
            })
            .collect();
        Movd {
            bounds: self.bounds,
            ovrs,
        }
    }

    /// Number of OVRs.
    #[inline]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` when the diagram holds no OVRs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The search space.
    #[inline]
    pub fn bounds(&self) -> Mbr {
        self.bounds
    }

    /// Region kind tag of OVR `i`.
    #[inline]
    pub fn kind(&self, i: usize) -> u8 {
        self.kinds[i]
    }

    /// The group of OVR `i` (one object per overlapped type).
    #[inline]
    pub fn group(&self, i: usize) -> &[ObjectRef] {
        &self.pois[self.group_off[i] as usize..self.group_off[i + 1] as usize]
    }

    /// Vertex slice of polygon `j` (0-based within OVR `i`).
    #[inline]
    fn poly(&self, i: usize, j: usize) -> &[Point] {
        let p = self.poly_off[i] as usize + j;
        &self.verts[self.vert_off[p] as usize..self.vert_off[p + 1] as usize]
    }

    /// All polygon vertex slices of OVR `i`.
    pub fn polys(&self, i: usize) -> impl Iterator<Item = &[Point]> {
        let lo = self.poly_off[i] as usize;
        let hi = self.poly_off[i + 1] as usize;
        (lo..hi).map(move |p| &self.verts[self.vert_off[p] as usize..self.vert_off[p + 1] as usize])
    }

    /// The rectangle of a [`KIND_RECT`] OVR, bit-exact (no re-derivation
    /// from vertex ordering, which would lose `-0.0` vs `0.0`).
    fn rect(&self, i: usize) -> Mbr {
        let v = self.poly(i, 0);
        Mbr {
            min_x: v[0].x,
            min_y: v[0].y,
            max_x: v[1].x,
            max_y: v[1].y,
        }
    }

    /// OVR `i`'s bounding rectangle — same bits as
    /// [`Region::mbr`] on the reconstructed region.
    pub fn ovr_mbr(&self, i: usize) -> Mbr {
        match self.kinds[i] {
            KIND_CONVEX => Mbr::of_points(self.poly(i, 0).iter().copied()),
            KIND_RECT => self.rect(i),
            _ => self.polys(i).fold(Mbr::EMPTY, |acc, v| {
                acc.union(&Mbr::of_points(v.iter().copied()))
            }),
        }
    }

    /// `true` when `p` lies in OVR `i`'s region — same decision as
    /// [`Region::contains`] on the reconstructed region (shared slice
    /// kernels).
    pub fn contains(&self, i: usize, p: Point) -> bool {
        match self.kinds[i] {
            KIND_CONVEX => convex_contains(self.poly(i, 0), p),
            KIND_RECT => self.rect(i).contains(p),
            _ => self.polys(i).any(|v| ring_contains(v, p)),
        }
    }

    /// Raw buffer accessors for the snapshot store (bulk write path).
    #[inline]
    pub fn kinds(&self) -> &[u8] {
        &self.kinds
    }
    /// See [`MovdArena::kinds`].
    #[inline]
    pub fn poly_off(&self) -> &[u32] {
        &self.poly_off
    }
    /// See [`MovdArena::kinds`].
    #[inline]
    pub fn vert_off(&self) -> &[u32] {
        &self.vert_off
    }
    /// See [`MovdArena::kinds`].
    #[inline]
    pub fn verts(&self) -> &[Point] {
        &self.verts
    }
    /// See [`MovdArena::kinds`].
    #[inline]
    pub fn group_off(&self) -> &[u32] {
        &self.group_off
    }
    /// See [`MovdArena::kinds`].
    #[inline]
    pub fn pois(&self) -> &[ObjectRef] {
        &self.pois
    }

    /// Byte sizes of the flat buffers, for `/stats`.
    pub fn buffer_bytes(&self) -> ArenaBufferBytes {
        ArenaBufferBytes {
            kinds: self.kinds.len(),
            poly_off: self.poly_off.len() * 4,
            vert_off: self.vert_off.len() * 4,
            verts: self.verts.len() * 16,
            group_off: self.group_off.len() * 4,
            pois: self.pois.len() * std::mem::size_of::<ObjectRef>(),
        }
    }

    /// Deep payload bytes of the *pointer-based* diagram this arena
    /// represents — the paper's memory-accounting number
    /// ([`crate::footprint::Footprint`]), so answers report the same
    /// `movd_bytes` they always did. Computed once per arena.
    #[inline]
    pub fn footprint_bytes(&self) -> usize {
        self.footprint
    }

    /// [`MovdArena::footprint_bytes`] from the buffer lengths and the kind
    /// counts. Per OVR the pointer layout holds a group `Vec` and a region:
    /// a rect is four inline `f64`s (its two stored corners), a convex
    /// polygon is one vertex `Vec`, and a general region is a `Vec` of
    /// vertex `Vec`s. Summed, the vertices cost 16 bytes each, every polygon
    /// but a rect's costs a `Vec` header, and every general region one more.
    fn count_footprint(&self) -> usize {
        let f64s = std::mem::size_of::<f64>();
        let (mut rects, mut generals) = (0usize, 0usize);
        for &kind in &self.kinds {
            rects += usize::from(kind == KIND_RECT);
            generals += usize::from(kind == KIND_GENERAL);
        }
        let polys = self.vert_off.len() - 1;
        VEC_HEADER
            + 4 * f64s // ovrs header + bounds
            + self.len() * VEC_HEADER
            + self.pois.len() * std::mem::size_of::<ObjectRef>()
            + self.verts.len() * 2 * f64s
            + (polys - rects + generals) * VEC_HEADER
    }

    /// Builds a patched arena by copy-on-write. `kept_from[i]` is the old
    /// id new OVR `i` is copied from, or `None` when it is the next OVR of
    /// `derived`. Each run of OVRs kept from consecutive old ids is copied
    /// out of `old` with one bulk copy per buffer (offsets rebased, groups
    /// renumbered through `remap`); derived OVRs encode their regions from
    /// scratch. Bit-identical to what a from-scratch rebuild would encode,
    /// because kept regions are exactly the regions whose bits did not
    /// move. Returns the arena and the number of old-arena segments copied
    /// (one per run).
    pub fn from_patch(
        old: &MovdArena,
        bounds: Mbr,
        kept_from: &[Option<u32>],
        derived: &[Ovr],
        remap: SiteRemap,
    ) -> (Self, usize) {
        // Kept OVRs never need more than the old buffers hold, so one
        // reservation per buffer covers the whole patch.
        let mut a = MovdArena::with_capacity(bounds, kept_from.len());
        a.verts.reserve(
            old.verts.len()
                + derived
                    .iter()
                    .map(|o| o.region.coord_count() / 2)
                    .sum::<usize>(),
        );
        a.pois
            .reserve(old.pois.len() + derived.iter().map(|o| o.pois.len()).sum::<usize>());
        let mut derived = derived.iter();
        let mut segments = 0usize;
        for step in patch_steps(kept_from) {
            match step {
                PatchStep::Copy(run) => {
                    a.copy_run(old, run, remap);
                    segments += 1;
                }
                PatchStep::Derive(_) => {
                    let ovr = derived.next().expect("one derived OVR per unkept id");
                    a.push_region(&ovr.region);
                    a.push_group(&ovr.pois);
                }
            }
        }
        (a.sealed(), segments)
    }

    /// Appends old OVRs `run` with one bulk copy per buffer, rebasing their
    /// offsets onto this arena's and renumbering their groups through
    /// `remap` (a kept group never holds the removed site).
    fn copy_run(&mut self, old: &MovdArena, run: Range<usize>, remap: SiteRemap) {
        let (p0, p1) = (old.poly_off[run.start], old.poly_off[run.end]);
        let (v0, v1) = (old.vert_off[p0 as usize], old.vert_off[p1 as usize]);
        let (g0, g1) = (old.group_off[run.start], old.group_off[run.end]);
        let (polys, verts, pois) = (self.vert_off.len() - 1, self.verts.len(), self.pois.len());
        self.kinds.extend_from_slice(&old.kinds[run.clone()]);
        self.poly_off
            .extend(rebased(&old.poly_off[run.start + 1..=run.end], p0, polys));
        self.vert_off.extend(rebased(
            &old.vert_off[p0 as usize + 1..=p1 as usize],
            v0,
            verts,
        ));
        self.verts
            .extend_from_slice(&old.verts[v0 as usize..v1 as usize]);
        self.group_off
            .extend(rebased(&old.group_off[run.start + 1..=run.end], g0, pois));
        self.pois
            .extend_from_slice(&old.pois[g0 as usize..g1 as usize]);
        if let Some(d) = remap.removed {
            for p in &mut self.pois[pois..] {
                if p.set == remap.set && p.index > d {
                    p.index -= 1;
                }
            }
        }
    }
}

/// CSR offsets `offs` moved from base `from` to base `to`.
fn rebased(offs: &[u32], from: u32, to: usize) -> impl Iterator<Item = u32> + '_ {
    let to = to as u32;
    offs.iter().map(move |&o| o - from + to)
}

/// The derived SoA cost block: per OVR group, a contiguous run of
/// Fermat–Weber weighted points, the additive constant of the group's
/// `WGD` under a fixed query (see [`MolqQuery::fw_terms`]), and the group's
/// prefilter bound. Query-dependent, cheap to build, never persisted — a
/// server pins one per (snapshot, query) so every solve/topk scan streams
/// flat lanes.
///
/// The bound lane holds [`molq_fw::prefilter_bound`] plus the constant, the
/// exact value `solve_group_bounded` compares against the global bound, so a
/// scan can skip a group from the lane alone. The lanes also record the
/// group with the smallest bound: the Optimizer solves it first to seed its
/// global bound.
#[derive(Debug, Clone)]
pub struct FwLanes {
    group_off: Vec<u32>,
    pts: Vec<WeightedPoint>,
    consts: Vec<f64>,
    bounds: Vec<f64>,
    seed: Option<usize>,
}

impl FwLanes {
    fn with_capacity(groups: usize, points: usize) -> Self {
        let mut group_off = Vec::with_capacity(groups + 1);
        group_off.push(0);
        FwLanes {
            group_off,
            pts: Vec::with_capacity(points),
            consts: Vec::with_capacity(groups),
            bounds: Vec::with_capacity(groups),
            seed: None,
        }
    }

    /// Lanes for `groups`, which hold `points` objects in all.
    fn build<'a>(
        query: &MolqQuery,
        groups: impl ExactSizeIterator<Item = &'a [ObjectRef]>,
        points: usize,
    ) -> Self {
        let mut lanes = FwLanes::with_capacity(groups.len(), points);
        for group in groups {
            lanes.push_group(query, group);
        }
        lanes.seed = seed_of(&lanes.bounds);
        lanes
    }

    /// Derives and appends one group's lanes.
    fn push_group(&mut self, query: &MolqQuery, group: &[ObjectRef]) {
        let (pts, constant) = query.fw_terms(group);
        self.bounds.push(molq_fw::prefilter_bound(&pts) + constant);
        self.pts.extend_from_slice(&pts);
        self.group_off.push(self.pts.len() as u32);
        self.consts.push(constant);
    }

    /// Appends `old`'s groups `run` with one bulk copy per lane.
    fn copy_run(&mut self, old: &FwLanes, run: Range<usize>) {
        let (lo, hi) = (old.group_off[run.start], old.group_off[run.end]);
        let base = self.pts.len();
        self.group_off
            .extend(rebased(&old.group_off[run.start + 1..=run.end], lo, base));
        self.pts
            .extend_from_slice(&old.pts[lo as usize..hi as usize]);
        self.consts.extend_from_slice(&old.consts[run.clone()]);
        self.bounds.extend_from_slice(&old.bounds[run]);
    }

    /// Lanes for `arena`, a live patch of the diagram `old` was derived
    /// from: `kept_from[i]` is the old id OVR `i` was copied from, or
    /// `None` when it was re-derived ([`crate::incr::LiveMovd::kept_from`]).
    ///
    /// A kept group holds the same objects as its old group, only
    /// renumbered by the site remap, so [`MolqQuery::fw_terms`] would give
    /// it the same bits: its points, constant and bound are copied from
    /// `old`, a run of consecutive old ids at a time. Re-derived groups are
    /// derived as in [`FwLanes::from_arena`], and the seed is picked by the
    /// same rule, so the result equals `FwLanes::from_arena(query, arena)`
    /// bit for bit — provided `old` was derived under the same weight
    /// functions from the object sets before the update.
    pub fn patched(
        old: &FwLanes,
        query: &MolqQuery,
        arena: &MovdArena,
        kept_from: &[Option<u32>],
    ) -> Self {
        assert_eq!(kept_from.len(), arena.len(), "one source per patched OVR");
        let mut lanes = FwLanes::with_capacity(arena.len(), arena.pois().len());
        for step in patch_steps(kept_from) {
            match step {
                PatchStep::Copy(run) => lanes.copy_run(old, run),
                PatchStep::Derive(i) => lanes.push_group(query, arena.group(i)),
            }
        }
        lanes.seed = seed_of(&lanes.bounds);
        lanes
    }

    /// Lanes for a pointer-based diagram.
    pub fn from_movd(query: &MolqQuery, movd: &Movd) -> Self {
        let points = movd.ovrs.iter().map(|o| o.pois.len()).sum();
        FwLanes::build(query, movd.ovrs.iter().map(|o| o.pois.as_slice()), points)
    }

    /// Lanes for an arena-backed diagram — identical values to
    /// [`FwLanes::from_movd`] on the reconstructed diagram (both funnel
    /// through [`MolqQuery::fw_terms`] per group).
    pub fn from_arena(query: &MolqQuery, arena: &MovdArena) -> Self {
        FwLanes::build(
            query,
            (0..arena.len()).map(|i| arena.group(i)),
            arena.pois().len(),
        )
    }

    /// Number of groups.
    #[inline]
    pub fn len(&self) -> usize {
        self.consts.len()
    }

    /// `true` when no groups are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.consts.is_empty()
    }

    /// Group `i`'s weighted points and additive constant.
    #[inline]
    pub fn group(&self, i: usize) -> (&[WeightedPoint], f64) {
        (
            &self.pts[self.group_off[i] as usize..self.group_off[i + 1] as usize],
            self.consts[i],
        )
    }

    /// Every group's prefilter bound, constant included: no location
    /// serves group `i` for less than `bounds()[i]`.
    #[inline]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// The group with the smallest prefilter bound (the first on ties);
    /// `None` when there are no groups.
    #[inline]
    pub fn seed(&self) -> Option<usize> {
        self.seed
    }

    /// Bitwise equality of every lane and of the seed (`f64` equality
    /// would conflate `-0.0` with `0.0`).
    pub fn bits_eq(&self, other: &FwLanes) -> bool {
        fn f64s_eq(a: &[f64], b: &[f64]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        self.seed == other.seed
            && self.group_off == other.group_off
            && f64s_eq(&self.consts, &other.consts)
            && f64s_eq(&self.bounds, &other.bounds)
            && self.pts.len() == other.pts.len()
            && self
                .pts
                .iter()
                .zip(&other.pts)
                .all(|(p, q)| f64s_eq(&[p.loc.x, p.loc.y, p.weight], &[q.loc.x, q.loc.y, q.weight]))
    }

    /// Group `i` under Algorithm 5 against the global bound `cbound`:
    /// prefiltered from the bound lane before its points are loaded,
    /// otherwise [`molq_fw::solve_group_bounded`] with the lane standing in
    /// for its prefilter (same decisions, same bits).
    pub fn solve_bounded(
        &self,
        i: usize,
        rule: StoppingRule,
        cbound: f64,
        stats: &mut BatchStats,
    ) -> GroupOutcome {
        if self.bounds[i] > cbound {
            stats.prefiltered_groups += 1;
            return GroupOutcome::Prefiltered;
        }
        let (pts, constant) = self.group(i);
        let lane_prefiltered = CostBoundConfig {
            prefilter: false,
            prune: true,
        };
        solve_group_bounded_with(pts, constant, rule, cbound, stats, lane_prefiltered)
    }
}

/// The group with the smallest bound, the first of equal ones (only a
/// strictly smaller bound replaces the running seed).
fn seed_of(bounds: &[f64]) -> Option<usize> {
    let mut seed: Option<usize> = None;
    for (i, &bound) in bounds.iter().enumerate() {
        if seed.map_or(true, |s| bound < bounds[s]) {
            seed = Some(i);
        }
    }
    seed
}

/// Read access to a diagram's groups and regions — the shape the solver
/// kernels need, implemented by both the pointer layout and the arena so
/// one optimizer serves both paths with identical decisions.
pub trait GroupSource: Sync {
    /// Number of OVRs.
    fn source_len(&self) -> usize;
    /// Group of OVR `i`.
    fn source_group(&self, i: usize) -> &[ObjectRef];
    /// `true` when `p` lies in OVR `i`'s region.
    fn source_contains(&self, i: usize, p: Point) -> bool;
}

impl GroupSource for Movd {
    fn source_len(&self) -> usize {
        self.ovrs.len()
    }
    fn source_group(&self, i: usize) -> &[ObjectRef] {
        &self.ovrs[i].pois
    }
    fn source_contains(&self, i: usize, p: Point) -> bool {
        self.ovrs[i].region.contains(p)
    }
}

impl GroupSource for MovdArena {
    fn source_len(&self) -> usize {
        self.len()
    }
    fn source_group(&self, i: usize) -> &[ObjectRef] {
        self.group(i)
    }
    fn source_contains(&self, i: usize, p: Point) -> bool {
        self.contains(i, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::Footprint;
    use crate::incr::movd_bits_eq;
    use crate::object::ObjectSet;
    use crate::region::Boundary;

    fn pseudo_set(name: &str, n: usize, seed: u64) -> ObjectSet {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as f64 / u32::MAX as f64
        };
        ObjectSet::uniform(
            name,
            1.0,
            (0..n)
                .map(|_| Point::new(next() * 100.0, next() * 100.0))
                .collect(),
        )
    }

    fn built(mode: Boundary) -> Movd {
        let bounds = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let sets = vec![pseudo_set("a", 10, 1), pseudo_set("b", 12, 2)];
        Movd::overlap_all(&sets, bounds, mode).unwrap()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        for mode in [Boundary::Rrb, Boundary::Mbrb] {
            let movd = built(mode);
            let arena = MovdArena::from_movd(&movd);
            assert!(movd_bits_eq(&arena.to_movd(), &movd));
        }
    }

    #[test]
    fn mixed_kinds_round_trip_including_special_floats() {
        let movd = Movd {
            bounds: Mbr::new(0.0, 0.0, 10.0, 10.0),
            ovrs: vec![
                Ovr {
                    region: Region::Convex(ConvexPolygon::from_ccw(vec![
                        Point::new(-0.0, 0.0),
                        Point::new(5e-324, 1.0),
                        Point::new(1e300, 2.0),
                    ])),
                    pois: vec![ObjectRef { set: 0, index: 3 }],
                },
                Ovr {
                    region: Region::Rect(Mbr::EMPTY),
                    pois: vec![ObjectRef { set: 1, index: 0 }],
                },
                Ovr {
                    region: Region::General(vec![
                        Polygon::new(vec![
                            Point::new(0.0, 0.0),
                            Point::new(1.0, -0.0),
                            Point::new(0.5, 1.0),
                        ]),
                        Polygon::new(Vec::new()),
                    ]),
                    pois: Vec::new(),
                },
            ],
        };
        let arena = MovdArena::from_movd(&movd);
        assert!(movd_bits_eq(&arena.to_movd(), &movd));
        // The empty rect survives with its exact ±inf bits.
        assert!(arena.ovr_mbr(1).is_empty());
        // The footprint counted once from the buffers matches a walk of the
        // pointer layout for every region kind, also after a raw restore.
        assert_eq!(arena.footprint_bytes(), movd.footprint_bytes());
        let restored = MovdArena::from_raw(
            arena.bounds(),
            arena.kinds().to_vec(),
            arena.poly_off().to_vec(),
            arena.vert_off().to_vec(),
            arena.verts().to_vec(),
            arena.group_off().to_vec(),
            arena.pois().to_vec(),
        )
        .unwrap();
        assert_eq!(restored, arena);
        assert_eq!(restored.footprint_bytes(), movd.footprint_bytes());
    }

    #[test]
    fn views_match_the_pointer_layout() {
        for mode in [Boundary::Rrb, Boundary::Mbrb] {
            let movd = built(mode);
            let arena = MovdArena::from_movd(&movd);
            assert_eq!(arena.len(), movd.len());
            assert_eq!(arena.footprint_bytes(), movd.footprint_bytes());
            for (i, ovr) in movd.ovrs.iter().enumerate() {
                assert_eq!(arena.group(i), ovr.pois.as_slice());
                let am = arena.ovr_mbr(i);
                let rm = ovr.region.mbr();
                assert_eq!(
                    [
                        am.min_x.to_bits(),
                        am.min_y.to_bits(),
                        am.max_x.to_bits(),
                        am.max_y.to_bits()
                    ],
                    [
                        rm.min_x.to_bits(),
                        rm.min_y.to_bits(),
                        rm.max_x.to_bits(),
                        rm.max_y.to_bits()
                    ],
                );
                for gi in 0..40 {
                    let p = Point::new(
                        (gi as f64 * 7.7 + 0.1) % 100.0,
                        (gi as f64 * 3.9 + 0.6) % 100.0,
                    );
                    assert_eq!(arena.contains(i, p), ovr.region.contains(p));
                }
            }
        }
    }

    #[test]
    fn lanes_agree_between_sources() {
        let bounds = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let sets = vec![pseudo_set("a", 8, 5), pseudo_set("b", 9, 6)];
        let query = MolqQuery::new(sets.clone(), bounds);
        let movd = Movd::overlap_all(&sets, bounds, Boundary::Rrb).unwrap();
        let arena = MovdArena::from_movd(&movd);
        let a = FwLanes::from_movd(&query, &movd);
        let b = FwLanes::from_arena(&query, &arena);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            let (pa, ca) = a.group(i);
            let (pb, cb) = b.group(i);
            assert_eq!(ca.to_bits(), cb.to_bits());
            assert_eq!(pa.len(), pb.len());
            for (x, y) in pa.iter().zip(pb) {
                assert_eq!(x.weight.to_bits(), y.weight.to_bits());
                assert_eq!(x.loc.x.to_bits(), y.loc.x.to_bits());
                assert_eq!(x.loc.y.to_bits(), y.loc.y.to_bits());
            }
            // And both match a direct fw_terms call.
            let (direct, c) = query.fw_terms(arena.group(i));
            assert_eq!(c.to_bits(), ca.to_bits());
            assert_eq!(direct.len(), pa.len());
            // The bound lane is the prefilter bound plus the constant.
            let want = molq_fw::prefilter_bound(&direct) + c;
            assert_eq!(a.bounds()[i].to_bits(), want.to_bits());
            assert_eq!(b.bounds()[i].to_bits(), want.to_bits());
        }
        // The seed is the first group with the smallest bound.
        let seed = a.seed().unwrap();
        assert_eq!(b.seed(), Some(seed));
        assert!(a.bounds().iter().all(|&x| x >= a.bounds()[seed]));
        assert!(a.bounds()[..seed].iter().all(|&x| x > a.bounds()[seed]));
    }

    #[test]
    fn lane_solve_matches_the_group_solver() {
        let bounds = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let sets = vec![
            pseudo_set("a", 8, 7),
            pseudo_set("b", 9, 8),
            pseudo_set("c", 7, 9),
        ];
        let query = MolqQuery::new(sets.clone(), bounds);
        let movd = Movd::overlap_all(&sets, bounds, Boundary::Rrb).unwrap();
        let lanes = FwLanes::from_movd(&query, &movd);
        let rule = StoppingRule::Either(1e-6, 10_000);
        let mut bounds_seen = lanes.bounds().to_vec();
        bounds_seen.sort_by(f64::total_cmp);
        let median = bounds_seen[bounds_seen.len() / 2];
        for cbound in [f64::INFINITY, median, 1.5 * median, 0.0] {
            for i in 0..lanes.len() {
                let (pts, constant) = lanes.group(i);
                let (mut a, mut b) = (BatchStats::default(), BatchStats::default());
                let want = molq_fw::solve_group_bounded(pts, constant, rule, cbound, &mut a);
                let got = lanes.solve_bounded(i, rule, cbound, &mut b);
                assert_eq!(got, want, "group {i} at {cbound}");
                assert_eq!(b, a, "group {i} at {cbound}");
            }
        }
    }

    #[test]
    fn from_raw_rejects_malformed_buffers() {
        let movd = built(Boundary::Rrb);
        let good = MovdArena::from_movd(&movd);
        let parts = |a: &MovdArena| {
            (
                a.bounds(),
                a.kinds().to_vec(),
                a.poly_off().to_vec(),
                a.vert_off().to_vec(),
                a.verts().to_vec(),
                a.group_off().to_vec(),
                a.pois().to_vec(),
            )
        };
        let (b, k, po, vo, v, go, p) = parts(&good);
        assert!(MovdArena::from_raw(
            b,
            k.clone(),
            po.clone(),
            vo.clone(),
            v.clone(),
            go.clone(),
            p.clone()
        )
        .is_ok());
        // Truncated poly offsets.
        assert!(MovdArena::from_raw(
            b,
            k.clone(),
            po[..po.len() - 1].to_vec(),
            vo.clone(),
            v.clone(),
            go.clone(),
            p.clone()
        )
        .is_err());
        // Unsorted group offsets.
        let mut bad_go = go.clone();
        if bad_go.len() > 2 {
            bad_go.swap(1, 2);
        }
        assert!(MovdArena::from_raw(
            b,
            k.clone(),
            po.clone(),
            vo.clone(),
            v.clone(),
            bad_go,
            p.clone()
        )
        .is_err());
        // Offsets pointing past the vertex buffer.
        let mut bad_vo = vo.clone();
        *bad_vo.last_mut().unwrap() += 7;
        assert!(MovdArena::from_raw(
            b,
            k.clone(),
            po.clone(),
            bad_vo,
            v.clone(),
            go.clone(),
            p.clone()
        )
        .is_err());
        // Unknown kind tag.
        let mut bad_k = k.clone();
        bad_k[0] = 9;
        assert!(MovdArena::from_raw(b, bad_k, po, vo, v, go, p).is_err());
    }

    #[test]
    fn patch_copies_kept_segments_bit_identically() {
        let movd = built(Boundary::Rrb);
        let old = MovdArena::from_movd(&movd);
        // Keep everything except OVR 2, insert one new OVR at the end.
        let mut kept_from: Vec<Option<u32>> = (0..old.len())
            .filter(|&i| i != 2)
            .map(|i| Some(i as u32))
            .collect();
        kept_from.push(None);
        let derived = [Ovr {
            region: Region::Rect(Mbr::new(1.0, 1.0, 2.0, 2.0)),
            pois: vec![ObjectRef { set: 0, index: 0 }],
        }];
        let insert = SiteRemap {
            set: 0,
            removed: None,
        };
        let (patched, segments) =
            MovdArena::from_patch(&old, old.bounds(), &kept_from, &derived, insert);
        // One gap at old id 2 splits the kept run into two segments.
        assert_eq!(segments, 2);
        assert_eq!(patched.len(), old.len());
        // Rebuild the same diagram from the pointer layout and compare bits.
        let mut want = movd.clone();
        want.ovrs.remove(2);
        want.ovrs.push(Ovr {
            region: Region::Rect(Mbr::new(1.0, 1.0, 2.0, 2.0)),
            pois: vec![ObjectRef { set: 0, index: 0 }],
        });
        assert!(movd_bits_eq(&patched.to_movd(), &want));
        assert_eq!(patched, MovdArena::from_movd(&want));
    }

    #[test]
    fn patch_renumbers_kept_groups_past_a_removed_site() {
        let movd = built(Boundary::Mbrb);
        let old = MovdArena::from_movd(&movd);
        // Remove site 4 of set 1: drop every OVR through it, keep the rest
        // in order, and renumber set 1's later sites on the copy.
        let remap = SiteRemap {
            set: 1,
            removed: Some(4),
        };
        let through = |i: usize| old.group(i).iter().any(|p| p.set == 1 && p.index == 4);
        let kept_from: Vec<Option<u32>> = (0..old.len())
            .filter(|&i| !through(i))
            .map(|i| Some(i as u32))
            .collect();
        let runs = (0..old.len())
            .filter(|&i| !through(i) && (i == 0 || through(i - 1)))
            .count();
        let (patched, segments) = MovdArena::from_patch(&old, old.bounds(), &kept_from, &[], remap);
        assert_eq!(segments, runs);
        let mut want = movd.clone();
        want.ovrs
            .retain(|o| !o.pois.iter().any(|p| p.set == 1 && p.index == 4));
        for o in &mut want.ovrs {
            for p in &mut o.pois {
                if p.set == 1 && p.index > 4 {
                    p.index -= 1;
                }
            }
        }
        assert!(want.len() < movd.len());
        assert!(movd_bits_eq(&patched.to_movd(), &want));
        assert_eq!(patched, MovdArena::from_movd(&want));
    }
}
