//! The three workloads: their data, and the seeded operation schedule each
//! run replays.
//!
//! The schedule is fixed **by count**: `--seconds` sets how many rounds it
//! holds (through each workload's nominal round length), never the clock.
//! So the journal length at every timed restart, and the diagram every
//! solve sees, are the same in every run of a seed, however slow the host
//! is that day. See `perfbench/README.md` for why each workload exists.

use crate::rng::Rng;
use molq_core::prelude::*;
use molq_datagen::GeoLayer;
use molq_geom::{Mbr, Point};
use std::path::{Path, PathBuf};

/// Side of the square search space every workload generates into.
pub const SIDE: f64 = 1_000_000.0;

/// `k` of every `/topk` in the schedule.
pub const TOPK_K: usize = 5;

/// A benchmark workload: data shape plus traffic shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Object layers, one CSV each.
    pub layers: &'static [GeoLayer],
    /// Objects per layer.
    pub per_layer: usize,
    /// Zipf exponent of the object weights (`None`: uniform `w_o = 1`).
    pub zipf: Option<f64>,
    /// ε of the approximate build (`None`: exact).
    pub epsilon: Option<f64>,
    /// The traffic shape.
    pub traffic: Traffic,
    /// Nominal seconds per round on a 2-core host; `--seconds` divided by
    /// this is the round count.
    pub round_s: f64,
}

/// How a workload's rounds are composed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Read-only: each round sets up a fresh dataset of the seed
    /// ([`object_sets`] of the round), restarts it, and serves `blocks` ×
    /// (`/solve`, `/topk`, `locates` uniform `/locate` probes) from the
    /// restarted server.
    Read {
        /// Solve/topk/locate blocks per round.
        blocks: usize,
        /// Uniform probes per block.
        locates: usize,
    },
    /// `cycles` × (1 update, `/solve`, `/topk`, `locates` hot-spot probes)
    /// per round, then a timed restart over the `cycles`-record journal and
    /// a compaction.
    Write {
        /// Updates (= journal records at the restart) per round.
        cycles: usize,
        /// Hot-spot probes per cycle.
        locates: usize,
        /// Distinct hot spots.
        hot_spots: usize,
    },
}

const EXACT3: &[GeoLayer] = &[GeoLayer::Streams, GeoLayer::Churches, GeoLayer::Schools];
const EXACT4: &[GeoLayer] = &[
    GeoLayer::Streams,
    GeoLayer::Churches,
    GeoLayer::Schools,
    GeoLayer::PopulatedPlaces,
];

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "exact3-read",
        layers: EXACT3,
        per_layer: 1600,
        zipf: None,
        epsilon: None,
        traffic: Traffic::Read {
            blocks: 2,
            locates: 200,
        },
        round_s: 1.1,
    },
    Workload {
        name: "exact4-write",
        layers: EXACT4,
        per_layer: 1600,
        zipf: None,
        epsilon: None,
        traffic: Traffic::Write {
            cycles: 16,
            locates: 20,
            hot_spots: 8,
        },
        round_s: 2.0,
    },
    Workload {
        name: "approx3-zipf",
        layers: EXACT3,
        per_layer: 10_000,
        zipf: Some(1.1),
        epsilon: Some(0.5),
        traffic: Traffic::Read {
            blocks: 3,
            locates: 200,
        },
        round_s: 7.0,
    },
];

/// The workload named `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Spawn a server on an empty snapshot dir; time to its first correct
    /// answer.
    Setup,
    /// Spawn a server over a persisted snapshot (and journal); time to its
    /// first correct answer.
    Restart,
    /// `GET /locate` at a point.
    Locate(Point),
    /// `GET /solve`.
    Solve,
    /// `GET /topk?k=TOPK_K`.
    Topk,
    /// Insert an object into set `set` at `(x, y)` with unit weights.
    Insert {
        /// Target set index.
        set: usize,
        /// Location.
        at: Point,
    },
    /// Delete object `index` of set `set`.
    Remove {
        /// Target set index.
        set: usize,
        /// Object index within the set.
        index: usize,
    },
    /// Fold the journal into a new base snapshot (between write rounds).
    Compact,
}

/// Per-type operation counts of a schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Setup samples.
    pub setups: usize,
    /// Restart samples.
    pub restarts: usize,
    /// `/locate` probes.
    pub locates: usize,
    /// `/solve` calls.
    pub solves: usize,
    /// `/topk` calls.
    pub topks: usize,
    /// Updates (inserts + removes).
    pub updates: usize,
    /// Compactions.
    pub compactions: usize,
}

/// A workload's full operation sequence for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Rounds in the schedule.
    pub rounds: usize,
    /// The operations, in order; `round_starts[r]` indexes round `r`'s
    /// first one.
    pub ops: Vec<Op>,
    /// Start index of every round in `ops`.
    pub round_starts: Vec<usize>,
}

impl Schedule {
    /// The schedule of `w` for `seed`, sized for `seconds`.
    pub fn new(w: &Workload, seed: u64, seconds: u64) -> Schedule {
        let rounds = ((seconds as f64 / w.round_s).round() as usize).max(4);
        let mut rng = Rng::new(seed, 0x5C4E_D01E);
        let mut ops = Vec::new();
        let mut round_starts = Vec::with_capacity(rounds);
        let probe = |rng: &mut Rng| Point::new(rng.unit() * SIDE, rng.unit() * SIDE);
        let hot: Vec<Point> = match w.traffic {
            Traffic::Write { hot_spots, .. } => (0..hot_spots).map(|_| probe(&mut rng)).collect(),
            Traffic::Read { .. } => Vec::new(),
        };
        for _ in 0..rounds {
            round_starts.push(ops.len());
            ops.push(Op::Setup);
            match w.traffic {
                Traffic::Read { blocks, locates } => {
                    ops.push(Op::Restart);
                    for _ in 0..blocks {
                        ops.push(Op::Solve);
                        ops.push(Op::Topk);
                        ops.extend((0..locates).map(|_| Op::Locate(probe(&mut rng))));
                    }
                }
                Traffic::Write {
                    cycles, locates, ..
                } => {
                    let mut set = 0;
                    for c in 0..cycles {
                        // Inserts alternate with deletes from the same set,
                        // so every set keeps its object count.
                        if c % 2 == 0 {
                            set = rng.below(w.layers.len());
                        }
                        ops.push(if c % 2 == 0 {
                            Op::Insert {
                                set,
                                at: probe(&mut rng),
                            }
                        } else {
                            Op::Remove {
                                set,
                                index: rng.below(w.per_layer),
                            }
                        });
                        ops.push(Op::Solve);
                        ops.push(Op::Topk);
                        ops.extend((0..locates).map(|_| Op::Locate(hot[rng.below(hot.len())])));
                    }
                    ops.push(Op::Restart);
                    ops.push(Op::Compact);
                }
            }
        }
        Schedule {
            rounds,
            ops,
            round_starts,
        }
    }

    /// The operations of the first `rounds` rounds.
    pub fn prefix(&self, rounds: usize) -> &[Op] {
        match self.round_starts.get(rounds) {
            Some(&end) => &self.ops[..end],
            None => &self.ops,
        }
    }

    /// Per-type counts.
    pub fn counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        for op in &self.ops {
            match op {
                Op::Setup => c.setups += 1,
                Op::Restart => c.restarts += 1,
                Op::Locate(_) => c.locates += 1,
                Op::Solve => c.solves += 1,
                Op::Topk => c.topks += 1,
                Op::Insert { .. } | Op::Remove { .. } => c.updates += 1,
                Op::Compact => c.compactions += 1,
            }
        }
        c
    }

    /// Journal records at each restart: updates since the last compaction.
    pub fn journal_lengths(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut pending = 0;
        for op in &self.ops {
            match op {
                Op::Insert { .. } | Op::Remove { .. } => pending += 1,
                Op::Restart => out.push(pending),
                Op::Compact => pending = 0,
                _ => {}
            }
        }
        out
    }
}

/// The workload's search space.
pub fn bounds() -> Mbr {
    Mbr::new(0.0, 0.0, SIDE, SIDE)
}

/// `--bounds` for `molq serve`.
pub fn bounds_arg() -> String {
    format!("0,0,{SIDE},{SIDE}")
}

/// The workload's object sets for `seed` in round `round`. The write
/// workload serves round 0's sets for the whole run; a read workload
/// serves a fresh dataset every round, so one run averages the scan cost
/// over many datasets instead of depending on one.
pub fn object_sets(w: &Workload, seed: u64, round: usize) -> Vec<ObjectSet> {
    let mut rng = Rng::new(seed, 0xDA7A + round as u64);
    w.layers
        .iter()
        .map(|&layer| {
            let s = rng.next_u64();
            match w.zipf {
                None => {
                    molq_datagen::geonames::layer_object_set(layer, w.per_layer, 1.0, bounds(), s)
                }
                Some(z) => {
                    molq_datagen::layer_object_set_zipf(layer, w.per_layer, 1.0, bounds(), s, z)
                }
            }
        })
        .collect()
}

/// Writes one CSV per set into `dir` (the file stem is the set name) and
/// returns the paths in set order.
pub fn write_inputs(sets: &[ObjectSet], dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    sets.iter()
        .map(|set| {
            let path = dir.join(format!("{}.csv", set.name));
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
            molq_datagen::csv::write_csv(set, &mut f)?;
            std::io::Write::flush(&mut f)?;
            Ok(path)
        })
        .collect()
}

/// The build mode a workload serves with.
pub fn build_mode(w: &Workload) -> BuildMode {
    BuildMode::from_epsilon(w.epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_journal_lengths() {
        for w in WORKLOADS {
            let a = Schedule::new(&w, 7, 20);
            let b = Schedule::new(&w, 7, 20);
            assert_eq!(a, b, "{}", w.name);
            assert_eq!(a.journal_lengths(), b.journal_lengths());
            assert_ne!(a.ops, Schedule::new(&w, 8, 20).ops, "{}", w.name);
        }
    }

    #[test]
    fn counts_depend_on_seconds_not_seed() {
        for w in WORKLOADS {
            let a = Schedule::new(&w, 1, 20);
            let b = Schedule::new(&w, 99, 20);
            assert_eq!(a.counts(), b.counts(), "{}", w.name);
            assert_eq!(a.journal_lengths(), b.journal_lengths());
        }
    }

    #[test]
    fn every_write_restart_sees_the_same_journal_length() {
        let w = by_name("exact4-write").unwrap();
        let Traffic::Write { cycles, .. } = w.traffic else {
            unreachable!()
        };
        let s = Schedule::new(&w, 3, 20);
        let lengths = s.journal_lengths();
        assert_eq!(lengths.len(), s.rounds);
        assert!(lengths.iter().all(|&l| l == cycles), "{lengths:?}");
        // Read-only workloads restart over an empty journal.
        let r = Schedule::new(&by_name("exact3-read").unwrap(), 3, 20);
        assert!(r.journal_lengths().iter().all(|&l| l == 0));
    }

    #[test]
    fn inserts_and_removes_alternate_within_one_set() {
        let w = by_name("exact4-write").unwrap();
        let s = Schedule::new(&w, 11, 20);
        let updates: Vec<&Op> = s
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Insert { .. } | Op::Remove { .. }))
            .collect();
        for pair in updates.chunks(2) {
            match pair {
                [Op::Insert { set: a, .. }, Op::Remove { set: b, index }] => {
                    assert_eq!(a, b);
                    assert!(*index < w.per_layer);
                }
                other => panic!("unexpected update pair {other:?}"),
            }
        }
    }

    #[test]
    fn rounds_get_distinct_datasets_fixed_by_the_seed() {
        let mut w = by_name("exact3-read").unwrap();
        w.per_layer = 50;
        let objects = |seed, round| -> Vec<SpatialObject> {
            object_sets(&w, seed, round)
                .into_iter()
                .flat_map(|s| s.objects)
                .collect()
        };
        assert_eq!(objects(4, 2), objects(4, 2));
        assert_ne!(objects(4, 0), objects(4, 1));
        assert_ne!(objects(4, 1), objects(5, 1));
    }

    #[test]
    fn prefix_is_whole_rounds() {
        let w = by_name("exact3-read").unwrap();
        let s = Schedule::new(&w, 5, 20);
        assert_eq!(s.prefix(1).len(), s.round_starts[1]);
        assert_eq!(s.prefix(s.rounds).len(), s.ops.len());
        assert_eq!(s.prefix(1)[0], Op::Setup);
    }
}
