//! `perfbench`: the repository benchmark for `molq serve`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --molq <path>
//! ```
//!
//! `--trace 0` drives the real server binary over HTTP and prints the
//! end-to-end metrics; `--trace 1` replays the same schedule in-process
//! with spans around every layer call and prints the per-layer metrics.
//! Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; any wrong answer makes
//! the exit code non-zero. Normally started through `perfbench/run.py`,
//! which builds the binaries first. See `perfbench/README.md`.

mod e2e;
mod hostref;
mod oracle;
mod rng;
mod server;
mod stats;
mod trace;
mod traced;
mod workload;

use crate::e2e::Ctx;
use crate::server::ServeSpec;
use crate::stats::{median, percentile, sorted};
use crate::workload::{Schedule, WORKLOADS};
use molq_server::json::Json;
use std::path::{Path, PathBuf};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    molq: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == key)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("{key} is required"))
    };
    let number =
        |key: &str| -> Result<u64, String> { get(key)?.parse().map_err(|e| format!("{key}: {e}")) };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds,
        trace,
        molq: PathBuf::from(get("--molq")?),
    })
}

/// The git revision of the checkout, when it is a git repository.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// FNV-1a over every Rust source and manifest under `crates/`, in path
/// order: identifies the measured code when there is no git revision.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = molq_store::Fnv64::new();
    for f in &files {
        h.update(f.to_string_lossy().as_bytes());
        h.update(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x} ({} files)", h.finish(), files.len())
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj().set("value", value).set("unit", unit)
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&str, f64, &str)>,
) -> String {
    let mut m = Json::obj();
    for (name, value, unit) in metrics {
        m = m.set(name, metric(value, unit));
    }
    Json::obj()
        .set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", m)
        .encode()
}

/// The `p`-th percentile of `samples`, when there are any.
fn pct(samples: &[f64], p: f64) -> Option<f64> {
    (!samples.is_empty()).then(|| percentile(&sorted(samples), p))
}

/// Prints one named metric with its unit and the samples behind it. A
/// tail percentile (above p50) is printed only when the tail rule allows
/// it.
fn report(name: &str, samples: &[f64], p: f64, unit: &str) {
    let n = samples.len();
    if n == 0 || (p > 50.0 && !stats::qualifies(n, p)) {
        println!("{name:<16} not reported: n={n} leaves fewer than 10 samples beyond p{p}");
        return;
    }
    let beyond = if p > 50.0 {
        format!(", {} beyond", stats::beyond(n, p))
    } else {
        String::new()
    };
    println!(
        "{name:<16} {:>12.4} {unit:<4} (p{p} of n={n}{beyond})",
        percentile(&sorted(samples), p)
    );
}

fn run_e2e(ctx: &Ctx) -> Result<i32, String> {
    let r = e2e::run(ctx)?;
    let need = |name: &str, v: Option<f64>| v.ok_or_else(|| format!("{name}: no samples"));
    // The gated metrics. `/solve` and `/topk` are gated in units of the
    // reference scan (`src/hostref.rs`): the host's speed drifts by 20–30%
    // over minutes, and the reference scan drifts with the scan. `/locate`
    // is gated at p10: the host's contention comes and goes, and the fast
    // tenth of the probes tracks the program while the median also tracks
    // the neighbours (README).
    let metrics = vec![
        ("setup_s", need("setup_s", median(&r.setup_s))?, "s"),
        ("restart_s", need("restart_s", median(&r.restart_s))?, "s"),
        (
            "server_rss_mb",
            need("server_rss_mb", median(&r.rss_mb))?,
            "MiB",
        ),
        (
            "snapshot_mb",
            need("snapshot_mb", median(&r.snapshot_mb))?,
            "MiB",
        ),
        (
            "locate_p10_us",
            need("locate", pct(&r.locate_us, 10.0))?,
            "us",
        ),
        ("solve_rel", need("solve", median(&r.solve_rel))?, "ratio"),
        ("topk_rel", need("topk", median(&r.topk_rel))?, "ratio"),
    ];
    println!(
        "server    : transport {}, {} scan threads",
        r.transport, r.threads
    );
    println!(
        "restarts  : journal records at each restart {:?}",
        ctx.schedule.journal_lengths()
    );
    report("solve_rel", &r.solve_rel, 50.0, "ratio");
    report("topk_rel", &r.topk_rel, 50.0, "ratio");
    report("ref_p50_ms", &r.ref_ms, 50.0, "ms");
    report("setup_s", &r.setup_s, 50.0, "s");
    report("restart_s", &r.restart_s, 50.0, "s");
    report("server_rss_mb", &r.rss_mb, 50.0, "MiB");
    report("snapshot_mb", &r.snapshot_mb, 50.0, "MiB");
    report("locate_p10_us", &r.locate_us, 10.0, "us");
    report("locate_p50_us", &r.locate_us, 50.0, "us");
    report("locate_p99_us", &r.locate_us, 99.0, "us");
    report("solve_p10_ms", &r.solve_ms, 10.0, "ms");
    report("solve_p50_ms", &r.solve_ms, 50.0, "ms");
    report("solve_p90_ms", &r.solve_ms, 90.0, "ms");
    report("topk_p10_ms", &r.topk_ms, 10.0, "ms");
    report("topk_p50_ms", &r.topk_ms, 50.0, "ms");
    if !r.update_ms.is_empty() {
        report("update_p50_ms", &r.update_ms, 50.0, "ms");
        report("update_p99_ms", &r.update_ms, 99.0, "ms");
        if let Some(p) = stats::tail(r.update_ms.len()) {
            report(&format!("update_p{p}_ms"), &r.update_ms, p, "ms");
        }
    }
    let (hits, misses) = r.cache;
    println!(
        "cache     : {hits} hits, {misses} misses (hit ratio {:.4})",
        hits as f64 / (hits + misses).max(1) as f64
    );
    println!(
        "failed    : {} of {} (failed_ratio {:.6})",
        r.failed,
        r.attempted,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    for e in &r.errors {
        println!("error     : {e}");
    }
    let correct = r.failed == 0;
    println!("{}", result_line(correct, r.attempted, r.failed, metrics));
    Ok(if correct { 0 } else { 1 })
}

fn run_traced(ctx: &Ctx, spans: &Path) -> Result<i32, String> {
    let r = traced::run(ctx)?;
    r.tracer
        .write_tsv(spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    println!(
        "spans     : {} written to {}",
        r.tracer.spans().len(),
        spans.display()
    );
    println!(
        "{:<28} {:>7} {:>12} {:>12}",
        "layer", "spans", "total_ms", "self_ms"
    );
    for (name, t) in r.tracer.layer_times() {
        println!(
            "{name:<28} {:>7} {:>12.3} {:>12.3}",
            t.count, t.total_ms, t.self_ms
        );
    }
    println!("counters  : {:?}", r.counters);
    println!("checks    : {} failed of {}", r.failed, r.attempted);
    for e in &r.errors {
        println!("error     : {e}");
    }
    let correct = r.failed == 0;
    println!(
        "{}",
        result_line(correct, r.attempted, r.failed, r.metrics.clone())
    );
    Ok(if correct { 0 } else { 1 })
}

fn real_main() -> Result<i32, String> {
    let args = parse_args()?;
    let w = workload::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {:?} (one of {names:?})", args.workload)
    })?;
    // Nothing of the caller's MOLQ_* settings may reach the in-process
    // layers either (the child servers get a cleaned environment).
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MOLQ_") {
            std::env::remove_var(&key);
        }
    }
    let root = PathBuf::from(".perfbench_work");
    let work = root.join(format!(
        "{}-{}-{}-{}",
        w.name,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    let sets = workload::object_sets(&w, args.seed, 0);
    let inputs = workload::write_inputs(&sets, &work.join("data"))
        .map_err(|e| format!("writing inputs: {e}"))?;
    let schedule = Schedule::new(&w, args.seed, args.seconds);
    let counts = schedule.counts();
    println!(
        "workload  : {} (seed {}, {} s nominal)",
        w.name, args.seed, args.seconds
    );
    println!("revision  : {}", git_revision());
    println!("sources   : {}", source_fingerprint());
    println!(
        "host      : {} cores",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("schedule  : {} rounds, {counts:?}", schedule.rounds);
    let ctx = Ctx {
        w,
        seed: args.seed,
        schedule,
        work: work.clone(),
        sets,
        spec: ServeSpec {
            molq: args.molq,
            inputs,
            bounds: workload::bounds_arg(),
            epsilon: w.epsilon,
        },
    };
    let outcome = if args.trace {
        let spans = root.join(format!("spans-{}-{}.tsv", w.name, args.seed));
        run_traced(&ctx, &spans)
    } else {
        run_e2e(&ctx)
    };
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn main() {
    match real_main() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
