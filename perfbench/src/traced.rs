//! The traced run: the same pipeline and schedule replayed in-process, with
//! a span around every call into a layer's public functions.
//!
//! Work counters come from calls at **one** thread, where they repeat
//! exactly from run to run (at two threads the prune order, and so the
//! counts, depend on scheduling). The in-process `Service` runs with the
//! server's default thread count, so `service.*` times compare with the
//! HTTP times. The stage-by-stage build is checked against the arena the
//! real server persisted, so the decomposition measures the real pipeline.

use crate::e2e::{locate_target, reported_config, update_request, Ctx};
use crate::oracle::{self, arena_bits_eq, num, Oracle, SERVE_EPS};
use crate::rng::Rng;
use crate::server::{Conn, Server};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{self, Op, TOPK_K};
use molq_core::prelude::*;
use molq_geom::Point;
use molq_server::engine::{apply_one, record_of, update_of, DatasetSpec, Engine};
use molq_server::json::Json;
use molq_server::service::{Request, Service, ServiceConfig};
use molq_store::{Journal, RealVfs, SourceFingerprint, StoredSnapshot};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Rounds of the schedule the traced run replays.
pub const TRACE_ROUNDS: usize = 3;
/// Stage-by-stage builds (each also saved and recovered).
pub const BUILD_REPS: usize = 3;
/// Fresh uniform probes for the transport and tracing-overhead pairs.
pub const PAIR_PROBES: usize = 600;

const BUILD_REQUEST: u64 = 1 << 40;

/// Work counters at one thread; they must repeat exactly across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// OVR groups scanned by the replayed solves.
    pub groups: u64,
    /// Groups solved by the closed-form small-group path.
    pub exact_groups: u64,
    /// Groups skipped by the two-point prefilter.
    pub prefiltered_groups: u64,
    /// Groups abandoned by the lower-bound prune.
    pub pruned_groups: u64,
    /// Fermat–Weber iterations.
    pub iterations: u64,
    /// Locate candidates over all replayed probes.
    pub candidates: u64,
    /// Replayed probes.
    pub locates: u64,
    /// Basic-diagram cells re-clipped by the replayed updates.
    pub cells_reclipped: u64,
    /// OVRs re-derived by the replayed updates.
    pub ovrs_rederived: u64,
    /// Arena segments bulk-copied by the replayed updates.
    pub segments_copied: u64,
    /// Updates that took the full-rebuild path.
    pub full_rebuilds: u64,
    /// Journal records replayed at the traced restarts.
    pub replayed: u64,
}

/// A named per-layer metric value.
pub type Metric = (&'static str, f64, &'static str);

/// What the traced run produced.
pub struct TracedRun {
    /// The spans.
    pub tracer: Tracer,
    /// Per-layer metrics for `BENCHMARK.json`'s `per_layer` list.
    pub metrics: Vec<Metric>,
    /// The 1-thread counters.
    pub counters: Counters,
    /// Checks attempted.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
}

impl TracedRun {
    fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// One stage-by-stage build: what it produced, for the identity checks.
struct Staged {
    index: MovdIndex,
    meta: BuildMeta,
    snapshot: PathBuf,
}

/// Parses the CSVs, builds the diagram layer by layer, indexes, encodes,
/// saves and recovers it, each inside its own span.
fn staged_build(ctx: &Ctx, t: &mut Tracer, rep: u64, dir: &Path) -> Result<Staged, String> {
    let exec = ExecConfig::new(1);
    let request = BUILD_REQUEST + rep;
    let bounds = workload::bounds();
    let paths = &ctx.spec.inputs;
    let sets = t.span("csv.parse", request, |_| {
        paths
            .iter()
            .map(|p| {
                let name = p
                    .file_stem()
                    .unwrap_or_default()
                    .to_string_lossy()
                    .to_string();
                let f = std::fs::File::open(p).map_err(|e| format!("{}: {e}", p.display()))?;
                molq_datagen::csv::read_csv(&name, f)
            })
            .collect::<Result<Vec<ObjectSet>, String>>()
    })?;
    let (movd, meta) = match workload::build_mode(&ctx.w) {
        BuildMode::Exact => {
            let mut acc = Movd::identity(bounds);
            for (i, set) in sets.iter().enumerate() {
                let basic = t
                    .span("voronoi.basic", request, |_| {
                        Movd::basic_with(set, i, bounds, exec)
                    })
                    .map_err(|e| e.to_string())?;
                acc = t.span("sweep.overlap", request, |_| {
                    acc.overlap_with(&basic, Boundary::Rrb, exec)
                });
            }
            t.span("sweep.overlap", request, |_| acc.canonicalize());
            (acc, BuildMeta::exact())
        }
        mode => t
            .span("voronoi.approx_build", request, |_| {
                build_movd(
                    &sets,
                    bounds,
                    Boundary::Rrb,
                    &BuildPlan::for_mode(mode),
                    exec,
                )
            })
            .map_err(|e| e.to_string())?,
    };
    let index = t.span("arena.index", request, |_| MovdIndex::build(movd));
    let stored = StoredSnapshot {
        name: "default".into(),
        boundary: Boundary::Rrb,
        eps: SERVE_EPS,
        explicit_bounds: Some(bounds),
        fingerprint: SourceFingerprint::of_paths(paths).map_err(|e| e.to_string())?,
        sets,
        movd: index.arena().clone(),
        grid: index.grid().clone(),
        update_epoch: 0,
        build: meta,
    };
    t.span("store.encode", request, |_| {
        std::hint::black_box(stored.encode())
    });
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let snapshot = dir.join("default.molq");
    t.span("store.save", request, |_| stored.save_file(&snapshot))
        .map_err(|e| e.to_string())?;
    Ok(Staged {
        index,
        meta,
        snapshot,
    })
}

/// Per-run state of the in-process replay.
struct Replay {
    svc: Service,
    /// A second engine, so `Engine::apply_update` is timed on its own.
    engine: Option<Engine>,
    /// A scratch journal, so `Journal::append` is timed on its own.
    journal: Option<Journal>,
    svc_dir: PathBuf,
    oracle: Oracle,
    /// Decode (copy, validate) ms of every recover, staged and replayed.
    decode: Vec<(f64, f64)>,
    journal_bytes: u64,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn dataset_spec(ctx: &Ctx, dir: &Path) -> DatasetSpec {
    DatasetSpec {
        name: "default".into(),
        paths: ctx.spec.inputs.clone(),
        boundary: Boundary::Rrb,
        bounds: Some(workload::bounds()),
        eps: SERVE_EPS,
        build: workload::build_mode(&ctx.w),
        snapshot_dir: Some(dir.to_path_buf()),
    }
}

fn engine_for(ctx: &Ctx, dir: &Path, threads: usize) -> Result<Engine, String> {
    let engine = Engine::new();
    engine.set_exec_config(ExecConfig::new(threads));
    engine.load(dataset_spec(ctx, dir))?;
    Ok(engine)
}

fn params(p: Point) -> Vec<(String, String)> {
    vec![("x".into(), p.x.to_string()), ("y".into(), p.y.to_string())]
}

fn get(path: &str, params: Vec<(String, String)>) -> Request {
    Request {
        method: "GET".into(),
        path: path.into(),
        params,
        body: Vec::new(),
    }
}

/// The in-process request for a scheduled update.
fn update_req(ctx: &Ctx, op: &Op) -> Request {
    let (method, target) = update_request(&ctx.sets, op).expect("an update");
    let (path, query) = target.split_once('?').expect("has a query");
    Request {
        method: method.into(),
        path: path.into(),
        params: query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        body: Vec::new(),
    }
}

fn status_ok(status: u16, what: &str) -> Result<(), String> {
    if status == 200 {
        Ok(())
    } else {
        Err(format!("{what}: status {status}"))
    }
}

/// Replays `ops` in-process, spanning every layer call, and accumulates the
/// 1-thread counters.
fn replay(
    ctx: &Ctx,
    ops: &[Op],
    r: &mut Replay,
    t: &mut Tracer,
    run: &mut TracedRun,
) -> Result<(), String> {
    let c = &mut run.counters;
    let mut checks: Vec<Result<(), String>> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let req = i as u64;
        match op {
            Op::Setup => {}
            Op::Locate(p) => t.span("op.locate", req, |t| {
                let resp = t.span("service.locate", req, |_| {
                    r.svc.handle(&get("/locate", params(*p)))
                });
                let l = r.oracle.snap(*p);
                let n = t.span("grid.locate", req, |_| {
                    r.oracle.index().locate_candidate_ids(l).len()
                });
                c.candidates += n as u64;
                c.locates += 1;
                checks.push(
                    status_ok(resp.status, "locate")
                        .and_then(|()| r.oracle.check_locate(*p, &resp.body)),
                );
            }),
            Op::Solve | Op::Topk => {
                let solve = *op == Op::Solve;
                let (op_name, svc_name, scan_name) = if solve {
                    ("op.solve", "service.solve", "scan.solve")
                } else {
                    ("op.topk", "service.topk", "scan.topk")
                };
                let outcome = t.span(op_name, req, |t| {
                    let resp = t.span(svc_name, req, |_| {
                        if solve {
                            r.svc.handle(&get("/solve", vec![]))
                        } else {
                            r.svc
                                .handle(&get("/topk", vec![("k".into(), TOPK_K.to_string())]))
                        }
                    });
                    if !r.oracle.has_lanes() {
                        t.span("lanes.derive", req, |_| r.oracle.derive_lanes());
                    }
                    let stats = t.span(scan_name, req, |_| {
                        if solve {
                            r.oracle.solve().map(|a| (a.ovr_count, a.stats))
                        } else {
                            r.oracle.topk().map(|a| (a.ovr_count, a.stats))
                        }
                    })?;
                    if solve {
                        c.groups += stats.0 as u64;
                        c.exact_groups += stats.1.exact_groups as u64;
                        c.prefiltered_groups += stats.1.prefiltered_groups as u64;
                        c.pruned_groups += stats.1.pruned_groups as u64;
                        c.iterations += stats.1.iterations as u64;
                    }
                    status_ok(resp.status, svc_name).and_then(|()| {
                        if solve {
                            r.oracle.check_solve(&resp.body)
                        } else {
                            r.oracle.check_topk(&resp.body)
                        }
                    })
                });
                checks.push(outcome);
            }
            Op::Insert { .. } | Op::Remove { .. } => {
                let update = oracle::update_of(op).expect("an update");
                let outcome = t.span("op.update", req, |t| {
                    let resp = t.span("service.update", req, |_| {
                        r.svc.handle(&update_req(ctx, op))
                    });
                    if let Some(engine) = &r.engine {
                        t.span("engine.apply_update", req, |_| {
                            engine.apply_update("default", &update)
                        })
                        .map_err(|e| format!("engine.apply_update: {e:?}"))?;
                    }
                    let (stats, full) = t
                        .span("incr.patch", req, |_| r.oracle.apply(op))?
                        .expect("an update");
                    c.cells_reclipped += stats.cells_reclipped as u64;
                    c.ovrs_rederived += stats.ovrs_rederived as u64;
                    c.segments_copied += stats.segments_copied as u64;
                    c.full_rebuilds += u64::from(full);
                    if let Some(j) = r.journal.as_mut() {
                        let before = file_len(j.path());
                        t.span("store.journal_append", req, |_| {
                            j.append(&record_of(&update))
                        })
                        .map_err(|e| e.to_string())?;
                        r.journal_bytes += file_len(j.path()) - before;
                    }
                    status_ok(resp.status, "update")
                });
                checks.push(outcome);
            }
            Op::Restart => {
                let dir = r.svc_dir.clone();
                let outcome = t.span("op.restart", req, |t| {
                    let rec = t
                        .span("store.recover", req, |_| {
                            molq_store::recover(&RealVfs, &dir, "default")
                        })
                        .map_err(|e| e.to_string())?;
                    r.decode.push((
                        rec.timings.copy.as_secs_f64() * 1e3,
                        rec.timings.validate.as_secs_f64() * 1e3,
                    ));
                    if !ctx.writes() {
                        return Ok(());
                    }
                    let mut live = t.span("incr.hydrate", req, |_| {
                        let index =
                            MovdIndex::from_arena(rec.base.movd.clone(), rec.base.grid.clone())?;
                        LiveMovd::from_index(
                            rec.base.sets.clone(),
                            index,
                            Boundary::Rrb,
                            ExecConfig::new(1),
                        )
                        .map_err(|e| e.to_string())
                    })?;
                    t.span("store.replay", req, |_| {
                        rec.records.iter().try_for_each(|rc| {
                            apply_one(&mut live, false, &update_of(rc)).map(|_| ())
                        })
                    })
                    .map_err(|e| e.to_string())?;
                    c.replayed += rec.records.len() as u64;
                    if arena_bits_eq(live.index().arena(), r.oracle.index().arena()) {
                        Ok(())
                    } else {
                        Err("restart: replayed diagram differs from the live one".into())
                    }
                });
                checks.push(outcome);
            }
            Op::Compact => {
                let outcome = t.span("op.compact", req, |_| {
                    let epoch = r.svc.engine().compact("default")?;
                    if let Some(engine) = &r.engine {
                        engine.compact("default")?;
                    }
                    if let Some(j) = r.journal.as_mut() {
                        j.reset(epoch).map_err(|e| e.to_string())?;
                    }
                    Ok(())
                });
                checks.push(outcome);
            }
        }
    }
    for outcome in checks {
        run.check(outcome);
    }
    Ok(())
}

/// Median of the per-request sums of span `name` (0 when never recorded).
fn layer_ms(t: &Tracer, name: &str) -> f64 {
    median(&t.per_request_ms(name)).unwrap_or(0.0)
}

/// Runs the traced pipeline for `ctx` without a real server: staged builds
/// and the in-process replay of the schedule's first rounds. Returns the
/// staged diagram for the identity check against the served one.
pub fn run_in_process(
    ctx: &Ctx,
    server_threads: usize,
) -> Result<(TracedRun, MovdIndex, Service), String> {
    let mut run = TracedRun {
        tracer: Tracer::default(),
        metrics: Vec::new(),
        counters: Counters::default(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut t = Tracer::default();
    let build_dir = ctx.work.join("trace-build");
    let mut first: Option<Staged> = None;
    let mut decode = Vec::new();
    for rep in 0..BUILD_REPS as u64 {
        let s = staged_build(ctx, &mut t, rep, &build_dir)?;
        let rec = t
            .span("store.recover", BUILD_REQUEST + rep, |_| {
                molq_store::recover(&RealVfs, &build_dir, "default")
            })
            .map_err(|e| e.to_string())?;
        decode.push((
            rec.timings.copy.as_secs_f64() * 1e3,
            rec.timings.validate.as_secs_f64() * 1e3,
        ));
        match &first {
            None => first = Some(s),
            Some(f) => run.check(if arena_bits_eq(s.index.arena(), f.index.arena()) {
                Ok(())
            } else {
                Err("staged builds differ between repetitions".into())
            }),
        }
    }
    let first = first.expect("BUILD_REPS > 0");
    let snapshot_bytes = std::fs::metadata(&first.snapshot)
        .map(|m| m.len())
        .unwrap_or(0);
    let ovrs = first.index.len();
    let footprint = first.index.arena().footprint_bytes();
    let meta = first.meta;

    let svc_dir = ctx.work.join("trace-svc");
    let svc = Service::with_config(
        engine_for(ctx, &svc_dir, server_threads)?,
        ServiceConfig {
            request_timeout: Duration::from_secs(60),
            threads: server_threads,
        },
    );
    let (engine, journal) = if ctx.writes() {
        let jdir = ctx.work.join("trace-journal");
        std::fs::create_dir_all(&jdir).map_err(|e| e.to_string())?;
        (
            Some(engine_for(
                ctx,
                &ctx.work.join("trace-engine"),
                server_threads,
            )?),
            Some(
                Journal::create(&molq_store::journal_path(&jdir, "default"), "default", 0)
                    .map_err(|e| e.to_string())?,
            ),
        )
    } else {
        (None, None)
    };
    let oracle = Oracle::new(&ctx.w, ctx.sets.clone(), ctx.writes(), ExecConfig::new(1))?;
    run.check(
        if arena_bits_eq(oracle.index().arena(), first.index.arena()) {
            Ok(())
        } else {
            Err("staged build differs from build_movd".into())
        },
    );
    let mut r = Replay {
        svc,
        engine,
        journal,
        svc_dir,
        oracle,
        decode,
        journal_bytes: 0,
    };
    replay(
        ctx,
        ctx.schedule.prefix(TRACE_ROUNDS),
        &mut r,
        &mut t,
        &mut run,
    )?;

    let stats = r.svc.handle(&get("/stats", vec![]));
    let cache = stats.body.get("cache").cloned().unwrap_or(Json::Null);
    let hits = num(&cache, "hits").unwrap_or(0.0);
    let misses = num(&cache, "misses").unwrap_or(0.0);
    let updates = ctx
        .schedule
        .prefix(TRACE_ROUNDS)
        .iter()
        .filter(|op| oracle::update_of(op).is_some())
        .count() as u64;

    let c = run.counters;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let copy: Vec<f64> = r.decode.iter().map(|d| d.0).collect();
    let validate: Vec<f64> = r.decode.iter().map(|d| d.1).collect();
    let ms = |name| layer_ms(&t, name);
    run.metrics = vec![
        ("csv.parse_ms", ms("csv.parse"), "ms"),
        ("voronoi.basic_ms", ms("voronoi.basic"), "ms"),
        ("voronoi.approx_build_ms", ms("voronoi.approx_build"), "ms"),
        ("voronoi.leaves", meta.leaves as f64, "count"),
        ("voronoi.cells_visited", meta.cells_visited as f64, "count"),
        ("voronoi.depth", f64::from(meta.refinement_depth), "count"),
        ("voronoi.forced_leaves", meta.forced_leaves as f64, "count"),
        ("sweep.overlap_ms", ms("sweep.overlap"), "ms"),
        (
            "sweep.ovrs",
            if meta.mode.is_approx() {
                0.0
            } else {
                ovrs as f64
            },
            "count",
        ),
        ("arena.index_ms", ms("arena.index"), "ms"),
        ("arena.bytes", footprint as f64, "bytes"),
        ("lanes.derive_ms", ms("lanes.derive"), "ms"),
        ("grid.locate_us", ms("grid.locate") * 1e3, "us"),
        ("grid.candidates", ratio(c.candidates, c.locates), "count"),
        ("scan.solve_ms", ms("scan.solve"), "ms"),
        ("scan.topk_ms", ms("scan.topk"), "ms"),
        ("scan.groups", c.groups as f64, "count"),
        ("scan.exact_groups", c.exact_groups as f64, "count"),
        (
            "scan.prefiltered_groups",
            c.prefiltered_groups as f64,
            "count",
        ),
        ("scan.pruned_groups", c.pruned_groups as f64, "count"),
        ("scan.iterations", c.iterations as f64, "count"),
        (
            "scan.skip_ratio",
            ratio(c.prefiltered_groups + c.pruned_groups, c.groups),
            "ratio",
        ),
        ("incr.patch_ms", ms("incr.patch"), "ms"),
        ("incr.cells_reclipped", c.cells_reclipped as f64, "count"),
        ("incr.ovrs_rederived", c.ovrs_rederived as f64, "count"),
        ("incr.segments_copied", c.segments_copied as f64, "count"),
        ("incr.full_rebuilds", c.full_rebuilds as f64, "count"),
        ("incr.hydrate_ms", ms("incr.hydrate"), "ms"),
        ("store.encode_ms", ms("store.encode"), "ms"),
        ("store.save_ms", ms("store.save"), "ms"),
        ("store.snapshot_bytes", snapshot_bytes as f64, "bytes"),
        ("store.recover_ms", ms("store.recover"), "ms"),
        ("store.decode_copy_ms", median(&copy).unwrap_or(0.0), "ms"),
        (
            "store.decode_validate_ms",
            median(&validate).unwrap_or(0.0),
            "ms",
        ),
        ("store.replay_ms", ms("store.replay"), "ms"),
        (
            "store.journal_append_us",
            ms("store.journal_append") * 1e3,
            "us",
        ),
        (
            "store.journal_bytes_per_update",
            ratio(r.journal_bytes, updates),
            "bytes",
        ),
        ("engine.apply_update_ms", ms("engine.apply_update"), "ms"),
        ("service.locate_us", ms("service.locate") * 1e3, "us"),
        ("service.solve_ms", ms("service.solve"), "ms"),
        ("service.update_ms", ms("service.update"), "ms"),
        (
            "cache.hit_ratio",
            ratio(hits as u64, (hits + misses) as u64),
            "ratio",
        ),
    ];
    run.tracer = t;
    Ok((run, first.index, r.svc))
}

/// The full traced run: in-process pipeline and replay, the identity check
/// against the real server's persisted arena, transport overhead and
/// tracing overhead.
pub fn run(ctx: &Ctx) -> Result<TracedRun, String> {
    // The in-process service gets the thread count the server defaults to
    // (all cores); the check below confirms the server agrees.
    let threads = ExecConfig::auto().threads;
    let (mut run, staged, svc) = run_in_process(ctx, threads)?;
    let served_dir = ctx.work.join("trace-served");
    let server = Server::spawn(&ctx.spec, &served_dir)?;
    let mut conn = Conn::connect(server.addr)?;
    let (stats, _) = conn.get("/stats")?;
    run.check(status_ok(stats.status, "stats"));
    let (served_threads, _) = reported_config(&stats.body);
    run.check(if served_threads == threads.to_string() {
        Ok(())
    } else {
        Err(format!(
            "server runs {served_threads} scan threads, not {threads}"
        ))
    });

    // The decomposition must have measured the real pipeline: the staged
    // arena equals the one the server built, persisted and serves.
    let served =
        StoredSnapshot::load_file(&served_dir.join("default.molq")).map_err(|e| e.to_string())?;
    run.check(
        if arena_bits_eq(&served.movd, staged.arena()) && &served.grid == staged.grid() {
            Ok(())
        } else {
            Err("staged arena differs from the served one".into())
        },
    );

    // Transport overhead: the same fresh probes over HTTP and through
    // `Service::handle` in-process, interleaved so both see the same host
    // phases. Tracing overhead: fresh probes through `Service::handle`,
    // alternately bare-timed and inside a span.
    let mut rng = Rng::new(ctx.seed, 0x0BE5);
    let mut probe = || Point::new(rng.unit() * workload::SIDE, rng.unit() * workload::SIDE);
    let (mut http, mut inproc, mut bare, mut spanned) = (vec![], vec![], vec![], vec![]);
    let mut t = Tracer::default();
    for i in 0..PAIR_PROBES {
        let p = probe();
        let (reply, rtt) = conn.get(&locate_target(p))?;
        run.check(status_ok(reply.status, "pair locate"));
        http.push(rtt.as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let resp = svc.handle(&get("/locate", params(p)));
        inproc.push(t0.elapsed().as_secs_f64() * 1e6);
        run.check(status_ok(resp.status, "pair handle"));

        let q = probe();
        let t0 = Instant::now();
        svc.handle(&get("/locate", params(q)));
        bare.push(t0.elapsed().as_secs_f64() * 1e6);
        let q = probe();
        let t0 = Instant::now();
        t.span("service.locate", i as u64, |_| {
            svc.handle(&get("/locate", params(q)))
        });
        spanned.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(conn);
    server.kill();
    let m = |v: &[f64]| median(v).unwrap_or(0.0);
    run.metrics
        .push(("transport.overhead_us", m(&http) - m(&inproc), "us"));
    run.metrics.push((
        "trace.overhead_pct",
        100.0 * (m(&spanned) - m(&bare)) / m(&bare).max(1e-9),
        "%",
    ));
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeSpec;
    use crate::workload::{by_name, object_sets, write_inputs, Schedule, Traffic};

    fn small_ctx(name: &str, tag: &str) -> Ctx {
        let mut w = by_name(name).unwrap();
        w.per_layer = 120;
        if let Traffic::Write { ref mut cycles, .. } = w.traffic {
            *cycles = 4;
        }
        let work = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench_work/test")
            .join(format!("{name}-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        let sets = object_sets(&w, 5, 0);
        let inputs = write_inputs(&sets, &work.join("data")).unwrap();
        Ctx {
            w,
            seed: 5,
            schedule: Schedule::new(&w, 5, 3),
            work,
            sets,
            spec: ServeSpec {
                molq: PathBuf::from("molq"),
                inputs,
                bounds: workload::bounds_arg(),
                epsilon: w.epsilon,
            },
        }
    }

    #[test]
    fn one_thread_counters_repeat_exactly() {
        for name in ["exact4-write", "exact3-read"] {
            let a = small_ctx(name, "a");
            let b = small_ctx(name, "b");
            let (ra, ..) = run_in_process(&a, 2).unwrap();
            let (rb, ..) = run_in_process(&b, 2).unwrap();
            assert_eq!(ra.failed, 0, "{:?}", ra.errors);
            assert_eq!(rb.failed, 0, "{:?}", rb.errors);
            assert_eq!(ra.counters, rb.counters, "{name}");
            assert!(ra.counters.groups > 0);
            if name == "exact4-write" {
                assert!(ra.counters.replayed > 0);
                assert!(ra.counters.ovrs_rederived > 0);
            }
            for ctx in [a, b] {
                let _ = std::fs::remove_dir_all(&ctx.work);
            }
        }
    }
}
