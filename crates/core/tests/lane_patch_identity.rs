//! Bit-identity of scan lanes carried across live updates.
//!
//! After every step of a seeded insert/remove stream, the lanes patched from
//! the previous step's lanes through [`LiveMovd::kept_from`] must equal the
//! lanes derived from scratch over the patched arena — every point, constant
//! and bound bit, and the seed. The streams cover 2–5 sets, uniform and
//! weighted sets (weighted layers take the from-scratch layer path), all
//! four type/object weight-function combinations, and removals from the
//! middle of a set, which renumber every later site.

use molq_core::prelude::*;
use molq_geom::{Mbr, Point};

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as f64 / u32::MAX as f64
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.next() * n as f64) as usize).min(n - 1)
    }

    fn point(&mut self) -> Point {
        Point::new(100.0 * self.next(), 100.0 * self.next())
    }
}

fn bounds() -> Mbr {
    Mbr::new(0.0, 0.0, 100.0, 100.0)
}

/// `types` sets of `n` objects. Set 1 has non-uniform object weights under
/// `object_fn`; the others are uniform (ordinary diagrams) and carry
/// `object_fn` too, so additive object weights put a constant into every
/// group's cost.
fn random_sets(types: usize, n: usize, object_fn: WeightFunction, rng: &mut Lcg) -> Vec<ObjectSet> {
    (0..types)
        .map(|t| {
            let w_t = 0.5 + 2.0 * rng.next();
            let weighted = t == 1;
            let w_o = 1.0 + rng.next();
            let objects = (0..n)
                .map(|_| SpatialObject {
                    loc: rng.point(),
                    w_t,
                    w_o: if weighted {
                        1.0 + 2.0 * rng.next()
                    } else {
                        w_o
                    },
                })
                .collect();
            ObjectSet::weighted(&format!("t{t}"), objects, object_fn)
        })
        .collect()
}

/// One update of the stream: an insert with the set's own weights (a
/// fresh object weight in the weighted set), or the removal of an object
/// from the middle of the set so later sites shift down.
fn random_update(sets: &[ObjectSet], rng: &mut Lcg) -> Update {
    let set = rng.below(sets.len());
    let objects = &sets[set].objects;
    if rng.next() < 0.5 || objects.len() < 4 {
        let like = objects[0];
        let w_o = if sets[set].has_uniform_object_weights() {
            like.w_o
        } else {
            1.0 + 2.0 * rng.next()
        };
        Update::Insert {
            set,
            object: SpatialObject {
                loc: rng.point(),
                w_t: like.w_t,
                w_o,
            },
        }
    } else {
        Update::Remove {
            set,
            index: 1 + rng.below(objects.len() - 2),
        }
    }
}

/// Runs one stream and checks the patched lanes after every step. Returns
/// the number of groups copied and re-derived over the whole stream.
fn check_stream(
    types: usize,
    type_fn: WeightFunction,
    object_fn: WeightFunction,
    mode: Boundary,
    seed: u64,
) -> (usize, usize) {
    let mut rng = Lcg(seed);
    let sets = random_sets(types, 9, object_fn, &mut rng);
    let mut live = LiveMovd::build(sets, bounds(), mode, ExecConfig::serial()).unwrap();
    let query_of = |live: &LiveMovd| {
        MolqQuery::new(live.sets().to_vec(), live.bounds()).with_type_weight_fn(type_fn)
    };
    let mut lanes = FwLanes::from_arena(&query_of(&live), live.index().arena());
    assert!(live.kept_from().is_none(), "a build has no patch map");
    let (mut copied, mut rederived) = (0, 0);
    for step in 0..14 {
        let update = random_update(live.sets(), &mut rng);
        let case = format!("{types} sets, {type_fn:?}/{object_fn:?}, {mode:?}, step {step}");
        live.apply(&update)
            .unwrap_or_else(|e| panic!("{case}: {update:?}: {e}"));
        let query = query_of(&live);
        let arena = live.index().arena();
        let kept_from = live.kept_from().expect("an applied patch keeps its map");
        assert_eq!(kept_from.len(), arena.len(), "{case}");
        copied += kept_from.iter().filter(|k| k.is_some()).count();
        rederived += kept_from.iter().filter(|k| k.is_none()).count();
        let patched = FwLanes::patched(&lanes, &query, arena, kept_from);
        let want = FwLanes::from_arena(&query, arena);
        assert!(
            patched.bits_eq(&want),
            "{case}: patched lanes differ from a fresh derivation ({update:?})"
        );
        assert_eq!(patched.seed(), want.seed(), "{case}");
        lanes = patched;
    }
    (copied, rederived)
}

#[test]
fn patched_lanes_equal_fresh_lanes_after_every_update() {
    let functions = [WeightFunction::Multiplicative, WeightFunction::Additive];
    let (mut copied, mut rederived) = (0, 0);
    let mut seed = 1u64;
    for types in 2..=5 {
        for type_fn in functions {
            for object_fn in functions {
                let mode = if seed % 2 == 0 {
                    Boundary::Rrb
                } else {
                    Boundary::Mbrb
                };
                let (c, r) = check_stream(types, type_fn, object_fn, mode, seed);
                copied += c;
                rederived += r;
                seed += 1;
            }
        }
    }
    // Both halves of the patch ran: most groups were copied, some derived.
    assert!(copied > rederived, "{copied} copied vs {rederived} derived");
    assert!(rederived > 0);
}
