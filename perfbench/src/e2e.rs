//! The untraced run: the real `molq serve` binary driven over one
//! keep-alive connection in a closed loop, replaying the whole schedule and
//! checking every answer. Every end-to-end metric comes from here.

use crate::hostref::HostRef;
use crate::oracle::{self, num, Oracle};
use crate::server::{isolated, Conn, Reply, ServeSpec, Server};
use crate::workload::{self, Op, Schedule, Traffic, Workload, TOPK_K};
use molq_core::prelude::*;
use molq_geom::Point;
use molq_server::json::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Everything one untraced run measured.
#[derive(Debug, Default)]
pub struct E2e {
    /// Setup samples (s): spawn on an empty snapshot dir → first correct answer.
    pub setup_s: Vec<f64>,
    /// Restart samples (s): spawn over the persisted snapshot and journal →
    /// first correct answer.
    pub restart_s: Vec<f64>,
    /// Peak RSS samples (MiB) of the long-lived server.
    pub rss_mb: Vec<f64>,
    /// `.molq` size samples (MiB) after setup.
    pub snapshot_mb: Vec<f64>,
    /// `/locate` round trips (µs).
    pub locate_us: Vec<f64>,
    /// `/solve` round trips (ms).
    pub solve_ms: Vec<f64>,
    /// `/topk` round trips (ms).
    pub topk_ms: Vec<f64>,
    /// `/solve` round trips in reference-scan units (see [`HostRef`]).
    pub solve_rel: Vec<f64>,
    /// `/topk` round trips in reference-scan units.
    pub topk_rel: Vec<f64>,
    /// Reference-scan times (ms), one after every `/solve` and `/topk`.
    pub ref_ms: Vec<f64>,
    /// Update round trips to a durable acknowledgement (ms).
    pub update_ms: Vec<f64>,
    /// Operations attempted (every request, setup and restart).
    pub attempted: u64,
    /// Non-2xx responses, I/O errors and wrong answers.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Scan threads the server reported in `/stats`.
    pub threads: String,
    /// Transport the server reported in `/stats`.
    pub transport: String,
    /// Locate-cache hits and misses summed over the long-lived server's
    /// incarnations.
    pub cache: (u64, u64),
}

impl E2e {
    /// Before a long-lived server stops: adds its locate-cache counters
    /// and records its peak RSS.
    fn note_incarnation(&mut self, main: &mut Main) -> Result<(), String> {
        let (stats, _) = main.call("GET", "/stats")?;
        self.record(ok(&stats, "stats"));
        if let Some(cache) = stats.body.get("cache") {
            self.cache.0 += num(cache, "hits").unwrap_or(0.0) as u64;
            self.cache.1 += num(cache, "misses").unwrap_or(0.0) as u64;
        }
        (self.threads, self.transport) = reported_config(&stats.body);
        if let Some(mb) = main.server.peak_rss_mb() {
            self.rss_mb.push(mb);
        }
        Ok(())
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Records the outcome of one attempted operation.
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }
}

/// Inputs of a run shared by the untraced and the traced driver.
pub struct Ctx {
    /// The workload.
    pub w: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The schedule.
    pub schedule: Schedule,
    /// Scratch directory of this run.
    pub work: PathBuf,
    /// The generated object sets.
    pub sets: Vec<ObjectSet>,
    /// How to start the server.
    pub spec: ServeSpec,
}

impl Ctx {
    /// `true` for the update workload.
    pub fn writes(&self) -> bool {
        matches!(self.w.traffic, Traffic::Write { .. })
    }
}

/// The probe every freshly started server must answer correctly: its
/// first correct answer ends the setup or restart clock.
pub fn ready_probe() -> Point {
    Point::new(
        crate::workload::SIDE * 0.5 + 0.25,
        crate::workload::SIDE * 0.5 - 0.25,
    )
}

/// `GET /locate` target for a probe.
pub fn locate_target(p: Point) -> String {
    format!("/locate?x={}&y={}", p.x, p.y)
}

/// The update request (method, target) for a scheduled update.
pub fn update_request(sets: &[ObjectSet], op: &Op) -> Option<(&'static str, String)> {
    match *op {
        Op::Insert { set, at } => Some((
            "POST",
            format!(
                "/datasets/default/objects?set={}&x={}&y={}&w_t=1&w_o=1",
                sets[set].name, at.x, at.y
            ),
        )),
        Op::Remove { set, index } => Some((
            "DELETE",
            format!("/datasets/default/objects/{index}?set={}", sets[set].name),
        )),
        _ => None,
    }
}

/// The scan thread count and transport a `/stats` body reports.
pub fn reported_config(stats: &Json) -> (String, String) {
    let field = |section: &str, key: &str| {
        stats.get(section).and_then(|s| s.get(key)).map_or_else(
            || "?".to_string(),
            |v| v.encode().trim_matches('"').to_string(),
        )
    };
    (field("scan", "threads"), field("transport", "kind"))
}

fn ok(reply: &Reply, what: &str) -> Result<(), String> {
    if reply.status == 200 {
        Ok(())
    } else {
        Err(format!(
            "{what}: HTTP {} {}",
            reply.status,
            reply.body.encode()
        ))
    }
}

/// The expected answer to [`ready_probe`] on one diagram.
#[derive(Debug, Clone, Copy)]
pub struct Ready {
    at: Point,
    ovr_id: usize,
    cost: f64,
}

impl Ready {
    /// The oracle's answer to the ready probe on its current diagram.
    pub fn of(oracle: &Oracle) -> Result<Ready, String> {
        let at = oracle.snap(ready_probe());
        let (ovr_id, cost, _) = oracle.locate(at).ok_or("ready probe: no candidate OVR")?;
        Ok(Ready { at, ovr_id, cost })
    }

    fn check(&self, body: &Json) -> Result<(), String> {
        let at = body
            .get("evaluated_at")
            .ok_or("first answer: no evaluated_at")?;
        let same = num(at, "x")?.to_bits() == self.at.x.to_bits()
            && num(at, "y")?.to_bits() == self.at.y.to_bits()
            && num(body, "ovr_id")? == self.ovr_id as f64
            && num(body, "cost")?.to_bits() == self.cost.to_bits();
        if same {
            Ok(())
        } else {
            Err(format!("first answer {} is wrong", body.encode()))
        }
    }
}

/// Spawns a server over `dir` and waits for its first correct answer;
/// returns the server and the time from spawn to that answer.
fn start_checked(spec: &ServeSpec, dir: &Path, ready: &Ready) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(spec, dir)?;
    let mut conn = Conn::connect(server.addr)?;
    let (reply, _) = conn.get(&locate_target(ready_probe()))?;
    let elapsed = t0.elapsed().as_secs_f64();
    ok(&reply, "first answer")?;
    ready.check(&reply.body)?;
    Ok((server, elapsed))
}

/// A body with the per-incarnation `generation` removed, for comparing
/// answers across a restart.
fn without_generation(body: &Json) -> String {
    match body {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "generation")
                .cloned()
                .collect(),
        )
        .encode(),
        other => other.encode(),
    }
}

fn size_mb(path: &Path) -> Result<f64, String> {
    std::fs::metadata(path)
        .map(|m| m.len() as f64 / (1024.0 * 1024.0))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The long-lived server and its connection.
struct Main {
    server: Server,
    conn: Conn,
}

impl Main {
    fn start(spec: &ServeSpec, dir: &Path, oracle: &Oracle) -> Result<(Main, f64), String> {
        let (server, secs) = start_checked(spec, dir, &Ready::of(oracle)?)?;
        let conn = Conn::connect(server.addr)?;
        Ok((Main { server, conn }, secs))
    }

    fn call(&mut self, method: &str, target: &str) -> Result<(Reply, Duration), String> {
        self.conn.call(method, target)
    }
}

/// One dataset of a run: how to serve it, its oracle, and the expected
/// first answer of a server freshly set up on it.
struct Dataset {
    spec: ServeSpec,
    oracle: Oracle,
    initial: Ready,
    /// Scratch directory of the dataset's snapshots.
    dir: PathBuf,
}

impl Dataset {
    fn new(
        ctx: &Ctx,
        sets: Vec<ObjectSet>,
        spec: ServeSpec,
        dir: PathBuf,
    ) -> Result<Dataset, String> {
        let oracle = Oracle::new(&ctx.w, sets, ctx.writes(), ExecConfig::auto())?;
        let initial = Ready::of(&oracle)?;
        Ok(Dataset {
            spec,
            oracle,
            initial,
            dir,
        })
    }

    /// A read round's fresh dataset: the round's object sets, written as
    /// CSVs under the round's own directory.
    fn for_round(ctx: &Ctx, round: usize) -> Result<Dataset, String> {
        let dir = ctx.work.join(format!("round-{round}"));
        let _ = std::fs::remove_dir_all(&dir);
        let sets = workload::object_sets(&ctx.w, ctx.seed, round);
        let inputs = workload::write_inputs(&sets, &dir.join("data"))
            .map_err(|e| format!("writing round {round} inputs: {e}"))?;
        let spec = ServeSpec {
            inputs,
            ..ctx.spec.clone()
        };
        Dataset::new(ctx, sets, spec, dir)
    }
}

fn current<'a, T>(slot: &'a mut Option<T>, what: &str) -> Result<&'a mut T, String> {
    slot.as_mut()
        .ok_or_else(|| format!("schedule has no {what} yet"))
}

/// Runs the whole schedule against the real server.
///
/// The write workload serves one dataset from one long-lived server for
/// the whole run. A read workload serves a fresh dataset every round: its
/// `Setup` builds the round's dataset, and the server its `Restart` brings
/// up from the persisted snapshot serves the rest of the round.
pub fn run(ctx: &Ctx) -> Result<E2e, String> {
    let mut out = E2e::default();
    // The reference scans on as many threads as the server's default.
    let reference = HostRef::new(ExecConfig::auto().threads);
    let (mut data, mut main) = (None, None);
    if ctx.writes() {
        let d = Dataset::new(ctx, ctx.sets.clone(), ctx.spec.clone(), ctx.work.clone())?;
        let (mut m, _) = Main::start(&d.spec, &d.dir.join("main"), &d.oracle)?;
        // Warm-up, untimed: the first solve materializes the snapshot's
        // lazy scan lanes, which every later solve against this view reuses.
        for target in ["/solve".to_string(), format!("/topk?k={TOPK_K}")] {
            let (reply, _) = m.call("GET", &target)?;
            out.record(ok(&reply, &target));
        }
        (data, main) = (Some(d), Some(m));
    }

    let mut round = 0usize;
    // The reference-scan time measured right after the previous request,
    // when that request was a scan: it is also the time right before this
    // one.
    let mut last_ref: Option<f64> = None;
    for op in &ctx.schedule.ops {
        let ref_before = last_ref.take();
        match op {
            Op::Setup => {
                let dir = if ctx.writes() {
                    ctx.work.join(format!("setup-{round}"))
                } else {
                    if let Some(mut m) = main.take() {
                        out.note_incarnation(&mut m)?;
                        m.server.kill();
                    }
                    if let Some(d) = data.take() {
                        let _ = std::fs::remove_dir_all(&d.dir);
                    }
                    data.insert(Dataset::for_round(ctx, round)?)
                        .dir
                        .join("setup")
                };
                round += 1;
                let d = current(&mut data, "dataset")?;
                let _ = std::fs::remove_dir_all(&dir);
                let started = start_checked(&d.spec, &dir, &d.initial);
                out.attempted += 1;
                match started {
                    Ok((server, secs)) => {
                        out.setup_s.push(secs);
                        server.kill();
                        out.snapshot_mb.push(size_mb(&dir.join("default.molq"))?);
                    }
                    Err(e) => out.fail(format!("setup: {e}")),
                }
                if ctx.writes() {
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
            Op::Restart if !ctx.writes() => {
                // The round's serving server: restored from the snapshot
                // its setup persisted.
                let d = current(&mut data, "dataset")?;
                out.attempted += 1;
                let (server, secs) = start_checked(&d.spec, &d.dir.join("setup"), &d.initial)
                    .map_err(|e| format!("restart: {e}"))?;
                out.restart_s.push(secs);
                let conn = Conn::connect(server.addr)?;
                let m = main.insert(Main { server, conn });
                // Warm-up, untimed (see above).
                let (reply, _) = m.call("GET", "/solve")?;
                out.record(ok(&reply, "/solve").and_then(|()| d.oracle.check_solve(&reply.body)));
            }
            Op::Restart => {
                let d = current(&mut data, "dataset")?;
                let m = current(&mut main, "server")?;
                // Answers before the kill and after the restart must match.
                let mut before = Vec::new();
                for target in ["/solve".to_string(), format!("/topk?k={TOPK_K}")] {
                    let (reply, _) = m.call("GET", &target)?;
                    out.record(ok(&reply, &target));
                    before.push(without_generation(&reply.body));
                }
                out.note_incarnation(m)?;
                let old = main.take().expect("checked above");
                old.server.kill();
                out.attempted += 1;
                let (restarted, secs) = Main::start(&d.spec, &d.dir.join("main"), &d.oracle)?;
                let m = main.insert(restarted);
                out.restart_s.push(secs);
                for (target, want) in ["/solve".to_string(), format!("/topk?k={TOPK_K}")]
                    .iter()
                    .zip(&before)
                {
                    let (reply, _) = m.call("GET", target)?;
                    out.record(ok(&reply, target).and_then(|()| {
                        if &without_generation(&reply.body) == want {
                            Ok(())
                        } else {
                            Err(format!("{target} changed across the restart"))
                        }
                    }));
                }
            }
            Op::Compact => {
                let d = current(&mut data, "dataset")?;
                let m = current(&mut main, "server")?;
                out.note_incarnation(m)?;
                main.take().expect("checked above").server.kill();
                let main_dir = d.dir.join("main");
                let status = isolated(&ctx.spec.molq)
                    .args(["update", "compact", "--dir"])
                    .arg(&main_dir)
                    .args(["--name", "default"])
                    .stdout(std::process::Stdio::null())
                    .status()
                    .map_err(|e| format!("molq update compact: {e}"))?;
                out.record(if status.success() {
                    Ok(())
                } else {
                    Err(format!("molq update compact exited with {status}"))
                });
                main = Some(Main::start(&d.spec, &main_dir, &d.oracle)?.0);
            }
            Op::Locate(p) => {
                let d = current(&mut data, "dataset")?;
                let m = current(&mut main, "server")?;
                let (reply, t) = m.call("GET", &locate_target(*p))?;
                out.locate_us.push(t.as_secs_f64() * 1e6);
                out.record(
                    ok(&reply, "locate").and_then(|()| d.oracle.check_locate(*p, &reply.body)),
                );
            }
            Op::Solve | Op::Topk => {
                let d = current(&mut data, "dataset")?;
                let m = current(&mut main, "server")?;
                let solve = *op == Op::Solve;
                let target = if solve {
                    "/solve".to_string()
                } else {
                    format!("/topk?k={TOPK_K}")
                };
                let before = ref_before.unwrap_or_else(|| reference.time_ms());
                let (reply, t) = m.call("GET", &target)?;
                let after = reference.time_ms();
                last_ref = Some(after);
                out.ref_ms.push(after);
                let ms = t.as_secs_f64() * 1e3;
                let rel = ms / ((before + after) / 2.0);
                let checked = ok(&reply, &target).and_then(|()| {
                    if solve {
                        d.oracle.check_solve(&reply.body)
                    } else {
                        d.oracle.check_topk(&reply.body)
                    }
                });
                if solve {
                    out.solve_ms.push(ms);
                    out.solve_rel.push(rel);
                } else {
                    out.topk_ms.push(ms);
                    out.topk_rel.push(rel);
                }
                out.record(checked);
            }
            Op::Insert { .. } | Op::Remove { .. } => {
                let d = current(&mut data, "dataset")?;
                let m = current(&mut main, "server")?;
                let (method, target) = update_request(&ctx.sets, op).expect("an update");
                let (reply, t) = m.call(method, &target)?;
                out.update_ms.push(t.as_secs_f64() * 1e3);
                d.oracle.apply(op)?;
                let objects: usize = d.oracle.query().sets.iter().map(|s| s.len()).sum();
                out.record(ok(&reply, "update").and_then(|()| {
                    if num(&reply.body, "objects")? == objects as f64 {
                        Ok(())
                    } else {
                        Err(format!("update: object count differs from {objects}"))
                    }
                }));
            }
        }
    }

    let d = current(&mut data, "dataset")?;
    let mut m = main.take().ok_or("schedule started no server")?;
    out.note_incarnation(&mut m)?;
    if ctx.writes() {
        let (reply, _) = m.call("GET", "/solve")?;
        out.record(
            ok(&reply, "final solve").and_then(|()| final_check(ctx, &d.oracle, &reply.body)),
        );
    }
    m.server.kill();
    Ok(out)
}

/// After the write schedule: a from-scratch build over the final object
/// sets must equal the patched diagram, and the served answer must equal
/// the from-scratch answer.
fn final_check(ctx: &Ctx, oracle: &Oracle, served: &Json) -> Result<(), String> {
    let sets = oracle.query().sets.clone();
    let mut fresh = Oracle::new(&ctx.w, sets, false, ExecConfig::auto())?;
    if !oracle::arena_bits_eq(fresh.index().arena(), oracle.index().arena()) {
        return Err("patched diagram differs from a from-scratch build".into());
    }
    fresh.check_solve(served)
}
