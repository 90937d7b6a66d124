//! The parallel, cancellable execution layer behind every per-OVR scan.
//!
//! The Optimizer (Algorithm 5), the top-k scan, SSC's odometer scan, and the
//! server's `locate` disambiguation are all the same shape of work: evaluate
//! one independent problem per group under a shared, monotonically tightening
//! cost bound, checking a [`CancelToken`] as they go. [`GroupScan`] owns that
//! shape once — chunked iteration over the group indices, per-worker
//! [`BatchStats`] accumulation with a deterministic merge, cooperative
//! cancellation with the same `completed/total` partial-progress semantics as
//! the old sequential loops, and a scoped-thread pool (std only, modeled on
//! `OrdinaryVoronoi::build_parallel`). [`SharedBound`] is the lock-free cost
//! bound the workers share: an `AtomicU64` holding `f64` bits, tightened with
//! a compare-and-swap loop.
//!
//! # Determinism contract
//!
//! A scan's *answer* must not depend on the thread count. Two properties of
//! the cost-bound machinery make that achievable:
//!
//! * a Solved outcome's `(cost, location)` bits are independent of the bound
//!   the group was solved under — the bound only decides whether a group is
//!   skipped (prefiltered/pruned), never what its solution is;
//! * the globally best group can never be skipped, because every lower bound
//!   used for skipping is ≤ its own optimum, which is ≤ any value the shared
//!   bound can take.
//!
//! So callers emit every candidate whose cost is within the bound they read,
//! and reduce **by total order on `(cost, group index)`** rather than arrival
//! order. `threads = 1` runs the exact old sequential loop (per-item
//! checkpoints, same counters); any other thread count produces bit-identical
//! answers for inputs in general position (distinct group optima — with
//! exactly tied `f64` costs, which group's identical-cost location is
//! reported may differ). Work *counters* ([`BatchStats`]) are exact in serial
//! mode and scheduling-dependent telemetry in parallel mode, because how many
//! groups the bound skips depends on the order groups complete.

use crate::cancel::CancelToken;
use crate::error::MolqError;
use molq_fw::BatchStats;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Environment variable overriding the default thread count everywhere a
/// caller does not configure one explicitly (`ExecConfig::default`). CI runs
/// the full test suite under both `MOLQ_THREADS=1` and `MOLQ_THREADS=4` so a
/// serial/parallel divergence fails the build.
pub const THREADS_ENV: &str = "MOLQ_THREADS";

/// Below this many groups a parallel scan cannot recoup the scoped-pool
/// spawn cost, so [`GroupScan::run`] stays sequential regardless of the
/// configured thread count (and the Optimizer does the same when fewer
/// groups than this can pass its seeded bound).
pub(crate) const MIN_PARALLEL_GROUPS: usize = 192;

/// Smallest chunk a worker claims: amortizes the shared-cursor fetch and the
/// per-chunk cancellation checkpoint.
const MIN_CHUNK: usize = 16;

/// Largest chunk a worker claims: bounds cancellation latency and keeps the
/// tail of a scan balanced.
const MAX_CHUNK: usize = 256;

/// Execution configuration for [`GroupScan`] (and the parallel MOVD
/// rebuild): how many worker threads a scan may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads (≥ 1). `1` is the exact sequential code path.
    pub threads: usize,
}

impl ExecConfig {
    /// Single-threaded execution — the exact old sequential code path.
    pub const fn serial() -> ExecConfig {
        ExecConfig { threads: 1 }
    }

    /// Explicit thread count (clamped to ≥ 1).
    pub fn new(threads: usize) -> ExecConfig {
        ExecConfig {
            threads: threads.max(1),
        }
    }

    /// One thread per available hardware core.
    pub fn auto() -> ExecConfig {
        ExecConfig::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The thread count requested via the [`THREADS_ENV`] environment
    /// variable, if set to a positive integer.
    pub fn from_env() -> Option<ExecConfig> {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .map(ExecConfig::new)
    }
}

/// [`THREADS_ENV`] when set, otherwise serial — library callers opt into
/// parallelism explicitly; the server defaults to [`ExecConfig::auto`].
impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig::from_env().unwrap_or(ExecConfig::serial())
    }
}

/// A lock-free shared cost bound: `f64` bits in an `AtomicU64`, tightened
/// with a compare-and-swap min loop. Proposals compare by numeric value, so
/// the bound is monotonically non-increasing; `NaN` proposals are rejected.
#[derive(Debug)]
pub struct SharedBound(AtomicU64);

impl SharedBound {
    /// A bound starting at `initial` (typically `f64::INFINITY`).
    pub fn new(initial: f64) -> SharedBound {
        SharedBound(AtomicU64::new(initial.to_bits()))
    }

    /// The current bound value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Tightens the bound to `value` if it improves on the current value.
    /// Returns `true` when the stored bound was lowered.
    pub fn propose(&self, value: f64) -> bool {
        if value.is_nan() {
            return false;
        }
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            if value >= f64::from_bits(current) {
                return false;
            }
            match self.0.compare_exchange_weak(
                current,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }
}

/// What a completed scan hands back: the emitted items and the merged work
/// counters.
#[derive(Debug)]
pub struct ScanOutput<T> {
    /// `(group index, emitted value)` pairs, ascending by group index.
    pub items: Vec<(usize, T)>,
    /// Work counters summed over all workers (exact in serial mode,
    /// scheduling-dependent in parallel mode — see the module docs).
    pub stats: BatchStats,
}

/// A cancellable scan over `0..total` group indices.
///
/// The visitor runs once per index and returns `Some(value)` to emit that
/// group's candidate or `None` to emit nothing. In serial mode
/// (`threads == 1`) the scan is the exact old per-site loop: one checkpoint
/// per group, failing with `Cancelled { completed: i, total }`. In parallel
/// mode, workers claim fixed-size chunks from a shared cursor, checkpoint
/// once per chunk, and keep the `completed` counter monotone and ≤ `total`.
#[derive(Debug)]
pub struct GroupScan<'a> {
    total: usize,
    config: ExecConfig,
    cancel: &'a CancelToken,
}

impl<'a> GroupScan<'a> {
    /// A scan over `0..total` under `config`, checking `cancel`
    /// cooperatively.
    pub fn new(total: usize, config: ExecConfig, cancel: &'a CancelToken) -> GroupScan<'a> {
        GroupScan {
            total,
            config,
            cancel,
        }
    }

    /// Runs the scan. Returns the emitted items (ascending by group index)
    /// and merged stats, or [`MolqError::Cancelled`] with partial-progress
    /// counters when the token fires first.
    pub fn run<T, F>(&self, visit: F) -> Result<ScanOutput<T>, MolqError>
    where
        T: Send,
        F: Fn(usize, &mut BatchStats) -> Option<T> + Sync,
    {
        // Spawning a scoped pool costs tens of microseconds; on tiny group
        // sets that overhead dominates the work itself (the BENCH_PR5
        // regression: 2–8 threads slower than 1). Below the work threshold
        // (and always at one effective worker — the configured thread count
        // capped at the host's cores, since the scan is CPU-bound and
        // oversubscription only adds overhead) run the exact sequential loop.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let workers = self.config.threads.min(cores);
        if workers <= 1 || self.total < MIN_PARALLEL_GROUPS.max(2 * workers) {
            return self.run_serial(visit);
        }
        self.run_parallel(visit)
    }

    fn run_serial<T, F>(&self, visit: F) -> Result<ScanOutput<T>, MolqError>
    where
        F: Fn(usize, &mut BatchStats) -> Option<T>,
    {
        let mut items = Vec::new();
        let mut stats = BatchStats::default();
        for i in 0..self.total {
            if self.cancel.checkpoint() {
                return Err(MolqError::Cancelled {
                    completed: i,
                    total: self.total,
                });
            }
            if let Some(value) = visit(i, &mut stats) {
                items.push((i, value));
            }
        }
        Ok(ScanOutput { items, stats })
    }

    fn run_parallel<T, F>(&self, visit: F) -> Result<ScanOutput<T>, MolqError>
    where
        T: Send,
        F: Fn(usize, &mut BatchStats) -> Option<T> + Sync,
    {
        let total = self.total;
        // Same cores cap as `run` (which guarantees workers >= 2 here):
        // threads beyond the core count only add scheduling overhead, and
        // results are identical at any worker count.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let workers = self.config.threads.min(cores).min(total).max(1);
        // Adaptive chunks: ~4 claims per worker keeps the pool balanced, the
        // floor amortizes the claim-cursor and checkpoint cost over enough
        // groups to matter, and the ceiling keeps cancellation latency low
        // on huge scans.
        let chunk = (total / (workers * 4)).clamp(MIN_CHUNK, MAX_CHUNK);
        let cursor = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let cancelled = AtomicBool::new(false);
        let visit = &visit;
        let cancel = self.cancel;

        let mut per_worker: Vec<(Vec<(usize, T)>, BatchStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut items: Vec<(usize, T)> = Vec::new();
                        let mut stats = BatchStats::default();
                        loop {
                            if cancelled.load(Ordering::Relaxed) {
                                break;
                            }
                            if cancel.checkpoint() {
                                cancelled.store(true, Ordering::Relaxed);
                                break;
                            }
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= total {
                                break;
                            }
                            let end = (start + chunk).min(total);
                            for i in start..end {
                                if let Some(value) = visit(i, &mut stats) {
                                    items.push((i, value));
                                }
                            }
                            completed.fetch_add(end - start, Ordering::Relaxed);
                        }
                        (items, stats)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scan worker panicked"))
                .collect()
        });

        if cancelled.load(Ordering::Relaxed) {
            return Err(MolqError::Cancelled {
                completed: completed.load(Ordering::Relaxed).min(total),
                total,
            });
        }
        let mut items = Vec::with_capacity(per_worker.iter().map(|(v, _)| v.len()).sum());
        let mut stats = BatchStats::default();
        for (worker_items, worker_stats) in per_worker.drain(..) {
            items.extend(worker_items);
            stats += worker_stats;
        }
        items.sort_unstable_by_key(|&(i, _)| i);
        Ok(ScanOutput { items, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configs() -> [ExecConfig; 3] {
        [ExecConfig::serial(), ExecConfig::new(2), ExecConfig::new(8)]
    }

    #[test]
    fn scan_emits_every_index_in_order() {
        for config in configs() {
            let never = CancelToken::never();
            let scan = GroupScan::new(100, config, &never);
            let out = scan.run(|i, _| Some(i * 3)).unwrap();
            assert_eq!(out.items.len(), 100, "{config:?}");
            for (expect, &(i, v)) in out.items.iter().enumerate() {
                assert_eq!((i, v), (expect, expect * 3));
            }
        }
    }

    #[test]
    fn scan_filters_and_counts_stats() {
        for config in configs() {
            let never = CancelToken::never();
            let scan = GroupScan::new(64, config, &never);
            let out = scan
                .run(|i, stats| {
                    stats.iterations += 1;
                    (i % 2 == 0).then_some(i)
                })
                .unwrap();
            assert_eq!(out.items.len(), 32, "{config:?}");
            assert!(out.items.iter().all(|&(i, v)| i == v && i % 2 == 0));
            assert_eq!(out.stats.iterations, 64, "{config:?}");
        }
    }

    #[test]
    fn empty_scan_returns_empty_output() {
        for config in configs() {
            let out = GroupScan::new(0, config, &CancelToken::never())
                .run(|i, _| Some(i))
                .unwrap();
            assert!(out.items.is_empty());
            assert_eq!(out.stats, BatchStats::default());
        }
    }

    #[test]
    fn precancelled_token_reports_zero_progress() {
        for config in configs() {
            let token = CancelToken::new();
            token.cancel();
            let scan = GroupScan::new(50, config, &token);
            match scan.run(|i, _| Some(i)) {
                Err(MolqError::Cancelled { completed, total }) => {
                    assert_eq!(completed, 0, "{config:?}");
                    assert_eq!(total, 50);
                }
                other => panic!("{config:?}: expected Cancelled, got {other:?}"),
            }
        }
    }

    #[test]
    fn midway_cancellation_keeps_counters_sane() {
        for config in configs() {
            let token = CancelToken::new();
            let fired = AtomicUsize::new(0);
            let scan = GroupScan::new(1000, config, &token);
            let result = scan.run(|i, _| {
                if fired.fetch_add(1, Ordering::Relaxed) == 100 {
                    token.cancel();
                }
                Some(i)
            });
            match result {
                Err(MolqError::Cancelled { completed, total }) => {
                    assert_eq!(total, 1000);
                    assert!(completed <= total, "{config:?}: {completed}/{total}");
                }
                other => panic!("{config:?}: expected Cancelled, got {other:?}"),
            }
        }
    }

    #[test]
    fn shared_bound_only_tightens() {
        let b = SharedBound::new(f64::INFINITY);
        assert_eq!(b.get(), f64::INFINITY);
        assert!(b.propose(10.0));
        assert!(!b.propose(11.0));
        assert_eq!(b.get(), 10.0);
        assert!(b.propose(2.5));
        assert_eq!(b.get(), 2.5);
        assert!(!b.propose(2.5));
        assert!(!b.propose(f64::NAN));
        assert_eq!(b.get(), 2.5);
    }

    #[test]
    fn shared_bound_converges_under_contention() {
        let b = SharedBound::new(f64::INFINITY);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let b = &b;
                scope.spawn(move || {
                    for i in 0..1000 {
                        b.propose(1.0 + ((t * 1000 + i) % 997) as f64);
                    }
                });
            }
        });
        assert_eq!(b.get(), 1.0);
    }

    #[test]
    fn env_config_parses_positive_integers() {
        // Don't touch the process environment (other tests run in parallel);
        // exercise the parse contract through new()/serial() instead.
        assert_eq!(ExecConfig::new(0).threads, 1);
        assert_eq!(ExecConfig::new(6).threads, 6);
        assert_eq!(ExecConfig::serial().threads, 1);
        assert!(ExecConfig::auto().threads >= 1);
    }
}
