//! The host-speed reference: a fixed scan, timed right before and right
//! after every `/solve` and `/topk` round trip.
//!
//! On a shared host the speed of the cores drifts by 20–30% over minutes
//! (README, "The host has slow phases"). A scan's time drifts with it, so a
//! raw scan latency measures the neighbours as much as the program.
//! Dividing each scan round trip by the reference time around it gives a
//! latency in units of "reference scans". It moves when the program gets
//! faster or slower, and much less when the host does.
//!
//! Plain arithmetic loops do not track the scan: on a shared 2-core host,
//! in 20-second windows of one process, the same in-process solve moved by
//! up to 40% while such a loop moved by 10%. So the reference is a frozen
//! copy of the scan's hot path, the exact three-point Fermat–Weber solve
//! (vertex test, then Vardi–Zhang steps, each followed by the cost and the
//! Eq. 10 lower bound, which allocates and sorts), run on the same number
//! of threads with the same shared-cursor chunking. It runs on a fixed set
//! of groups of its own, the same in every run and for every seed, and it
//! belongs to the benchmark: a change to the program never changes the
//! reference.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Groups in the reference scan (about 6 ms at 2 threads on a 2.0 GHz
/// host, a twentieth of an `exact3-read` solve).
const GROUPS: usize = 800;
/// Groups a worker claims from the shared cursor at a time.
const CHUNK: usize = 32;
/// The scan's stopping rule for interior optima: relative gap 1e-14, at
/// most 10,000 steps.
const EPS: f64 = 1e-14;
const MAX_STEPS: usize = 10_000;

#[derive(Debug, Clone, Copy)]
struct Wp {
    x: f64,
    y: f64,
    w: f64,
}

/// The reference scan and the thread count it runs at.
pub struct HostRef {
    groups: Vec<[Wp; 3]>,
    threads: usize,
}

impl HostRef {
    /// The reference for a server that scans on `threads` threads.
    pub fn new(threads: usize) -> HostRef {
        let mut rng = crate::rng::Rng::new(0x4E57_0F5E, 0x4EF);
        let groups = (0..GROUPS)
            .map(|_| {
                // Three nearby objects, like the three owners of one OVR.
                let (cx, cy) = (rng.unit() * 1e6, rng.unit() * 1e6);
                std::array::from_fn(|_| Wp {
                    x: cx + rng.unit() * 2e4,
                    y: cy + rng.unit() * 2e4,
                    w: 1.0,
                })
            })
            .collect();
        HostRef {
            groups,
            threads: threads.max(1),
        }
    }

    /// Wall time (ms) of one reference scan.
    pub fn time_ms(&self) -> f64 {
        let t0 = Instant::now();
        let cursor = AtomicUsize::new(0);
        let worker = || {
            let mut best = f64::INFINITY;
            loop {
                let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                if start >= self.groups.len() {
                    break;
                }
                let end = (start + CHUNK).min(self.groups.len());
                for g in &self.groups[start..end] {
                    best = best.min(three_point(g));
                }
            }
            black_box(best);
        };
        std::thread::scope(|s| {
            for _ in 1..self.threads {
                s.spawn(worker);
            }
            worker();
        });
        t0.elapsed().as_secs_f64() * 1e3
    }
}

fn dist(ax: f64, ay: f64, b: &Wp) -> f64 {
    ((ax - b.x) * (ax - b.x) + (ay - b.y) * (ay - b.y)).sqrt()
}

fn cost(x: f64, y: f64, g: &[Wp; 3]) -> f64 {
    g.iter().map(|p| p.w * dist(x, y, p)).sum()
}

/// The cost of the optimum of one three-point group.
fn three_point(g: &[Wp; 3]) -> f64 {
    for i in 0..3 {
        let p = g[i];
        let (mut px, mut py) = (0.0, 0.0);
        for (j, q) in g.iter().enumerate() {
            if j != i {
                let n = (q.x - p.x).hypot(q.y - p.y);
                px += (q.x - p.x) / n * q.w;
                py += (q.y - p.y) / n * q.w;
            }
        }
        if px.hypot(py) <= p.w {
            return cost(p.x, p.y, g);
        }
    }
    let (mut x, mut y) = (
        g.iter().map(|p| p.x).sum::<f64>() / 3.0,
        g.iter().map(|p| p.y).sum::<f64>() / 3.0,
    );
    for _ in 0..MAX_STEPS {
        let (nx, ny) = step(x, y, g);
        let moved = (nx - x).hypot(ny - y);
        (x, y) = (nx, ny);
        let (c, lb) = (cost(x, y, g), lower_bound(x, y, g));
        if (lb > 0.0 && (c - lb) / lb <= EPS) || moved <= 1e-15 * (1.0 + x.hypot(y)) {
            break;
        }
    }
    cost(x, y, g)
}

/// One Vardi–Zhang step away from the data points, where it is the
/// Weiszfeld step (an iterate on a data point stays put).
fn step(x: f64, y: f64, g: &[Wp; 3]) -> (f64, f64) {
    let (mut nx, mut ny, mut den) = (0.0, 0.0, 0.0);
    for p in g {
        let d = dist(x, y, p);
        if d == 0.0 {
            return (x, y);
        }
        let w = p.w / d;
        nx += p.x * w;
        ny += p.y * w;
        den += w;
    }
    (nx / den, ny / den)
}

/// The Eq. 10 lower bound at `(x, y)`: per axis, a weighted median over
/// a freshly allocated, sorted list, as the scan computes it.
fn lower_bound(x: f64, y: f64, g: &[Wp; 3]) -> f64 {
    let mut bound = 0.0;
    let mut axis: Vec<(f64, f64)> = Vec::with_capacity(g.len());
    for k in 0..2 {
        axis.clear();
        for p in g {
            let d = dist(x, y, p);
            if d == 0.0 {
                continue;
            }
            let (pc, lc) = if k == 0 { (p.x, x) } else { (p.y, y) };
            let alpha = p.w * (lc - pc).abs() / d;
            if alpha > 0.0 {
                axis.push((pc, alpha));
            }
        }
        axis.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: f64 = axis.iter().map(|e| e.1).sum();
        let mut acc = 0.0;
        let median = axis
            .iter()
            .find(|e| {
                acc += e.1;
                acc >= total * 0.5
            })
            .map_or(0.0, |e| e.0);
        bound += axis
            .iter()
            .map(|&(c, w)| w * (median - c).abs())
            .sum::<f64>();
    }
    black_box(bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equilateral_optimum_is_the_centre() {
        let h = 3f64.sqrt() / 2.0;
        let g = [
            Wp {
                x: 0.0,
                y: 0.0,
                w: 1.0,
            },
            Wp {
                x: 1.0,
                y: 0.0,
                w: 1.0,
            },
            Wp {
                x: 0.5,
                y: h,
                w: 1.0,
            },
        ];
        // Each vertex is 1/sqrt(3) from the centre.
        assert!((three_point(&g) - 3.0 / 3f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn obtuse_vertex_is_optimal() {
        let g = [
            Wp {
                x: 0.0,
                y: 0.0,
                w: 1.0,
            },
            Wp {
                x: 10.0,
                y: 0.0,
                w: 1.0,
            },
            Wp {
                x: 5.0,
                y: 0.1,
                w: 1.0,
            },
        ];
        assert_eq!(three_point(&g), cost(5.0, 0.1, &g));
    }

    #[test]
    fn reference_time_is_positive_at_any_thread_count() {
        for threads in [1, 2] {
            assert!(HostRef::new(threads).time_ms() > 0.0);
        }
    }
}
