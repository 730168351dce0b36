//! The repository's benchmark harness.
//!
//! `perfbench run --workload <matrix|replay-spill|serve-warm> --seed N
//! --seconds S --trace 0|1 --repro <repro binary> --reference <dir>
//! --work <dir>` measures one workload and prints, as its last stdout
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics untraced, per-layer metrics traced).
//! `perfbench child ...` is one untraced operation in a fresh process;
//! `perfbench reference --out <dir>` regenerates the stored references.
//! See `perfbench/README.md` for the workloads and the metric map.

mod host;
mod pipeline;
mod serve;
mod spans;
mod stats;

use host::{at_reference, Probe};
use oscache_core::supervise::{Journal, JournalHeader, RunPolicy};
use oscache_core::{Experiment, Repro, TraceCache};
use oscache_workloads::BuildOptions;
use pipeline::{ms_since, report_mismatches, OpResult, Setting, JOBS};
use serve::{Answer, Daemon};
use spans::{layers, Layer, Recorder};
use stats::{fnv1a64, median, mix_round, percentile, SplitMix64};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Untraced operations per run, at least, however short `--seconds` is.
const MIN_OPS: usize = 3;
/// No run starts a new operation after this long, whatever `--seconds` says.
const RUN_CAP: Duration = Duration::from_secs(120);
/// Daemons set up per serve-warm run, one after another; `setup_s` and
/// `peak_rss_mb` are medians over them.
const SERVE_SETUPS: usize = 5;
/// Closed-loop client threads (the box has two cores).
const CLIENTS: usize = 2;
/// Requests per serve-warm run, at least: with 200 samples, ten lie beyond
/// the 95th percentile.
const MIN_REQUESTS: usize = 200;
/// Request-mix rounds the traced serve-warm run sends.
const TRACED_ROUNDS: usize = 4;

type Metric = (&'static str, f64, &'static str);
/// One request of a round and how it was answered.
type Reply = (Experiment, Result<Answer, String>);

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

struct Env {
    repro: PathBuf,
    reference: PathBuf,
    work: PathBuf,
    seed: u64,
    seconds: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("child") => cmd_child(&args[1..]),
        Some("reference") => cmd_reference(&args[1..]),
        _ => {
            eprintln!("usage: perfbench run|child|reference [--option value]...");
            2
        }
    };
    std::process::exit(code);
}

fn parse_opts(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        out.insert(key.to_string(), v.clone());
    }
    Ok(out)
}

fn opt<'a>(o: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    o.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn parsed<T: std::str::FromStr>(o: &HashMap<String, String>, key: &str) -> Result<T, String> {
    opt(o, key)?.parse().map_err(|_| format!("bad --{key}"))
}

fn default_seed() -> u64 {
    BuildOptions::default().seed
}

/// The daemon's trace scale: `matrix`'s, so the same reference texts
/// check its replies.
fn serve_scale() -> f64 {
    Setting::matrix().scale
}

fn setting(workload: &str) -> Result<Setting, String> {
    match workload {
        "matrix" => Ok(Setting::matrix()),
        "replay-spill" => Ok(Setting::replay_spill()),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn cmd_run(args: &[String]) -> i32 {
    let prepared = parse_opts(args).and_then(|o| {
        let workload = opt(&o, "workload")?.to_string();
        let trace = match opt(&o, "trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".to_string()),
        };
        let work = Path::new(opt(&o, "work")?).join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
        let env = Env {
            repro: PathBuf::from(opt(&o, "repro")?),
            reference: PathBuf::from(opt(&o, "reference")?),
            work,
            seed: parsed(&o, "seed")?,
            seconds: parsed(&o, "seconds")?,
        };
        Ok((workload, trace, env))
    });
    let (workload, trace, env) = match prepared {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    // Spill stores and every child's temporary files stay in the run's
    // scratch directory, which is removed when the run ends.
    match env.work.canonicalize() {
        Ok(abs) => std::env::set_var("TMPDIR", abs),
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    }
    let result = match (workload.as_str(), trace) {
        ("serve-warm", false) => serve_untraced(&env),
        ("serve-warm", true) => serve_traced(&env),
        (w, false) => setting(w).and_then(|s| pipeline_untraced(w, &s, &env)),
        (w, true) => setting(w).and_then(|s| pipeline_traced(w, &s, &env)),
    };
    let _ = std::fs::remove_dir_all(&env.work);
    if let Some(root) = env.work.parent() {
        let _ = std::fs::remove_dir(root);
    }
    match result {
        Ok(out) => {
            println!("{}", result_json(&out));
            if out.correct {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// `perfbench child --workload W --seed N --report-dir D`: one untraced
/// operation; prints its [`OpResult`] lines.
fn cmd_child(args: &[String]) -> i32 {
    let run = parse_opts(args).and_then(|o| {
        let s = setting(opt(&o, "workload")?)?;
        let dir = PathBuf::from(opt(&o, "report-dir")?);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        pipeline::run_op(&s, parsed(&o, "seed")?, &dir)
    });
    match run {
        Ok(op) => {
            print!("{}", op.to_lines());
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// `perfbench reference --out DIR`: renders each pipeline workload at the
/// default seed into `DIR/<workload>/<experiment>.txt` plus `cells.tsv`
/// (one `key<TAB>OS read misses` line per cell).
fn cmd_reference(args: &[String]) -> i32 {
    let run = parse_opts(args).and_then(|o| {
        let out = PathBuf::from(opt(&o, "out")?);
        for name in ["matrix", "replay-spill"] {
            let dir = out.join(name);
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let op = pipeline::run_op(&setting(name)?, default_seed(), &dir)?;
            let cells: String = op
                .cells
                .iter()
                .map(|c| format!("{}\t{}\n", c.key, c.os_read_misses))
                .collect();
            std::fs::write(dir.join("cells.tsv"), cells)
                .map_err(|e| format!("write cells: {e}"))?;
        }
        Ok(())
    });
    match run {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// The stored reference of one workload at the default seed.
struct Reference {
    texts: BTreeMap<String, String>,
    digests: BTreeMap<String, u64>,
    cells: BTreeMap<String, u64>,
}

fn load_reference(dir: &Path, experiments: &[Experiment]) -> Result<Reference, String> {
    let read = |p: PathBuf| {
        std::fs::read_to_string(&p).map_err(|e| format!("reference {}: {e}", p.display()))
    };
    let mut texts = BTreeMap::new();
    for e in experiments {
        texts.insert(
            e.name().to_string(),
            read(dir.join(format!("{}.txt", e.name())))?,
        );
    }
    let digests = texts
        .iter()
        .map(|(k, t)| (k.clone(), fnv1a64(t.as_bytes())))
        .collect();
    let mut cells = BTreeMap::new();
    for line in read(dir.join("cells.tsv"))?.lines() {
        let (key, misses) = line.split_once('\t').ok_or("malformed cells.tsv")?;
        cells.insert(
            key.to_string(),
            misses.parse().map_err(|_| "malformed cells.tsv")?,
        );
    }
    Ok(Reference {
        texts,
        digests,
        cells,
    })
}

/// Cells of `op` that fail a check: wrong cell count or report bytes fail
/// every cell; otherwise each cell whose statistics differ from
/// `baseline` (same seed) or whose OS read misses differ from
/// `reference` (default seed only) fails.
fn failed_cells(
    op: &OpResult,
    baseline: Option<&OpResult>,
    reference: Option<&Reference>,
    n_cells: u64,
) -> u64 {
    if op.cells.len() as u64 != n_cells {
        eprintln!(
            "check: {} cells reported, {n_cells} planned",
            op.cells.len()
        );
        return n_cells;
    }
    let mut report_ok = true;
    let mut bad = vec![false; op.cells.len()];
    if let Some(b) = baseline {
        if op.experiments != b.experiments {
            eprintln!("check: rendered report differs between operations of one seed");
            report_ok = false;
        }
        for (i, (c, bc)) in op.cells.iter().zip(&b.cells).enumerate() {
            if (&c.key, c.os_read_misses, c.digest) != (&bc.key, bc.os_read_misses, bc.digest) {
                eprintln!(
                    "check: cell {} differs between operations of one seed",
                    c.key
                );
                bad[i] = true;
            }
        }
    }
    if let Some(r) = reference {
        let wrong = report_mismatches(&op.experiments, &r.digests);
        if !wrong.is_empty() {
            eprintln!(
                "check: report differs from the reference: {}",
                wrong.join(", ")
            );
            report_ok = false;
        }
        for (i, c) in op.cells.iter().enumerate() {
            if r.cells.get(&c.key) != Some(&c.os_read_misses) {
                eprintln!(
                    "check: cell {} has {} OS read misses, reference {:?}",
                    c.key,
                    c.os_read_misses,
                    r.cells.get(&c.key)
                );
                bad[i] = true;
            }
        }
    }
    if report_ok {
        bad.iter().filter(|&&b| b).count() as u64
    } else {
        n_cells
    }
}

/// Runs one untraced operation in a fresh child process.
fn spawn_child(workload: &str, env: &Env, index: usize) -> Result<OpResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .current_dir(&env.work)
        .args([
            "child",
            "--workload",
            workload,
            "--seed",
            &env.seed.to_string(),
        ])
        .args(["--report-dir", &format!("op-{index}")])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let _ = std::fs::remove_dir_all(env.work.join(format!("op-{index}")));
    OpResult::parse(&String::from_utf8_lossy(&out.stdout))
}

fn pipeline_reference(workload: &str, s: &Setting, env: &Env) -> Result<Option<Reference>, String> {
    if env.seed == default_seed() {
        load_reference(&env.reference.join(workload), &s.experiments).map(Some)
    } else {
        Ok(None)
    }
}

fn pipeline_untraced(workload: &str, s: &Setting, env: &Env) -> Result<Outcome, String> {
    let reference = pipeline_reference(workload, s, env)?;
    let n_cells = s.plan(env.seed).len() as u64;
    let start = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut ops: Vec<OpResult> = Vec::new();
    let mut runs = 0;
    // Each operation's times are scaled to the reference host speed by the
    // probe readings taken just before and just after it.
    let mut probe = Probe::new(JOBS);
    let mut probes = vec![probe.measure()];
    let mut raw_wall_ms = Vec::new();
    while runs < MIN_OPS
        || (start.elapsed().as_secs_f64() < env.seconds && start.elapsed() < RUN_CAP)
    {
        runs += 1;
        attempted += n_cells;
        let result = spawn_child(workload, env, runs);
        let before = probes[probes.len() - 1];
        let after = probe.measure();
        probes.push(after);
        match result {
            Ok(mut op) => {
                failed += failed_cells(&op, ops.first(), reference.as_ref(), n_cells);
                raw_wall_ms.push(op.wall_ms);
                op.scale_times(|ms| at_reference(ms, before, after));
                ops.push(op);
            }
            Err(e) => {
                eprintln!("operation {runs} failed: {e}");
                failed += n_cells;
            }
        }
    }
    if ops.is_empty() {
        return Err("no operation completed".to_string());
    }
    let col = |f: fn(&OpResult) -> f64| ops.iter().map(f).collect::<Vec<f64>>();
    let lat: Vec<f64> = ops
        .iter()
        .flat_map(|o| o.cells.iter().map(|c| c.ms))
        .collect();
    let runner_s: f64 = ops.iter().map(|o| o.runner_wall_ms).sum::<f64>() / 1e3;
    let p95 = percentile(&lat, 0.95).unwrap_or(0.0);
    println!(
        "{workload}: {} operations, {} cell latency samples ({} beyond p95), seed {}",
        ops.len(),
        lat.len(),
        lat.iter().filter(|&&l| l > p95).count(),
        env.seed
    );
    println!(
        "{workload}: as measured, median wall {:.1} ms and host probe {:.2} ms; \
         times reported at the reference probe of {} ms",
        median(&raw_wall_ms).unwrap_or(0.0),
        median(&probes).unwrap_or(0.0),
        host::REFERENCE_MS
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            (
                "setup_s",
                median(&col(|o| o.setup_ms)).unwrap_or(0.0) / 1e3,
                "s",
            ),
            (
                "wall_s",
                median(&col(|o| o.wall_ms)).unwrap_or(0.0) / 1e3,
                "s",
            ),
            (
                "peak_rss_mb",
                median(&col(|o| o.peak_rss_mb)).unwrap_or(0.0),
                "MB",
            ),
            ("lat_p50_ms", median(&lat).unwrap_or(0.0), "ms"),
            ("lat_p95_ms", p95, "ms"),
            ("ops_per_s", lat.len() as f64 / runner_s.max(1e-9), "1/s"),
        ],
    })
}

/// Numbers the traced run reports besides span totals.
#[derive(Default)]
struct Extras {
    spilled_mb: f64,
    decode_sync_ms: f64,
    prefetch_hits: u64,
    swap_ins: u64,
    runner_wall_ms: f64,
    runner_cells: u64,
    dedup_ratio: f64,
    overhead_frac: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, zero where the layer did no work.
fn layer_metrics(rec: &Recorder, x: &Extras) -> Vec<Metric> {
    let l = layers(rec.spans());
    let get = |name: &str| l.get(name).copied().unwrap_or_default();
    let mev_s = |layer: Layer| ratio(layer.events as f64, layer.self_ms * 1e3);
    let root = rec
        .spans()
        .first()
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .unwrap_or(0.0);
    let attributed: f64 = l
        .iter()
        .filter(|(n, _)| **n != "run")
        .map(|(_, v)| v.self_ms)
        .sum();
    let (gen, validate, analyze, profile) = (
        get("workloads.gen"),
        get("trace.validate"),
        get("core.analyze"),
        get("memsys.profile"),
    );
    let sim = get("memsys.sim");
    vec![
        ("workloads.gen_ms", gen.self_ms, "ms"),
        ("workloads.gen_mev_s", mev_s(gen), "Mev/s"),
        ("trace.validate_ms", validate.self_ms, "ms"),
        ("trace.validate_mev_s", mev_s(validate), "Mev/s"),
        ("trace.spilled_mb", x.spilled_mb, "MB"),
        ("core.analyze_ms", analyze.self_ms, "ms"),
        ("core.analyze_calls", analyze.calls as f64, "count"),
        ("memsys.profile_ms", profile.self_ms, "ms"),
        ("memsys.profile_mev_s", mev_s(profile), "Mev/s"),
        ("memsys.profile_calls", profile.calls as f64, "count"),
        ("core.rewrite_ms", get("core.rewrite").self_ms, "ms"),
        ("memsys.sim_ms", sim.self_ms, "ms"),
        ("memsys.sim_mev_s", mev_s(sim), "Mev/s"),
        ("memsys.sim_events", sim.events as f64, "count"),
        ("memsys.decode_sync_ms", x.decode_sync_ms, "ms"),
        (
            "memsys.prefetch_hit_ratio",
            ratio(x.prefetch_hits as f64, x.swap_ins as f64),
            "ratio",
        ),
        ("core.render_ms", get("core.render").self_ms, "ms"),
        (
            "core.render_deferred_ms",
            get("core.render_deferred").self_ms,
            "ms",
        ),
        ("core.runner_wall_ms", x.runner_wall_ms, "ms"),
        ("core.runner_cells", x.runner_cells as f64, "count"),
        (
            "core.service_accept_ms",
            get("core.service_accept").self_ms,
            "ms",
        ),
        (
            "core.service_reply_ms",
            get("core.service_reply").self_ms,
            "ms",
        ),
        ("core.service_dedup_ratio", x.dedup_ratio, "ratio"),
        ("unattributed_ms", (root - attributed).max(0.0), "ms"),
        ("trace_overhead_frac", x.overhead_frac, "ratio"),
    ]
}

/// The attribution check: every layer that must work on `workload` has a
/// nonzero span, and every layer that must not has none.
fn attribution_errors(workload: &str, metrics: &[Metric]) -> Vec<String> {
    let value = |name: &str| metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    let (busy, idle): (&[&str], &[&str]) = match workload {
        "matrix" => (
            &[
                "workloads.gen_ms",
                "trace.validate_ms",
                "core.analyze_ms",
                "memsys.profile_ms",
                "core.rewrite_ms",
                "memsys.sim_ms",
                "core.render_ms",
                "core.render_deferred_ms",
            ],
            &["trace.spilled_mb"],
        ),
        "replay-spill" => (
            &[
                "workloads.gen_ms",
                "trace.validate_ms",
                "memsys.sim_ms",
                "core.render_ms",
                "trace.spilled_mb",
            ],
            &["core.analyze_ms", "memsys.profile_ms", "core.rewrite_ms"],
        ),
        _ => (
            &[
                "workloads.gen_ms",
                "core.render_ms",
                "core.render_deferred_ms",
                "core.service_accept_ms",
                "core.service_reply_ms",
            ],
            &["memsys.sim_ms", "core.analyze_ms", "memsys.profile_ms"],
        ),
    };
    let mut errors: Vec<String> = busy
        .iter()
        .filter(|n| value(n) <= 0.0)
        .map(|n| format!("{n} is zero on {workload}"))
        .collect();
    errors.extend(
        idle.iter()
            .filter(|n| value(n) != 0.0)
            .map(|n| format!("{n} is nonzero on {workload}")),
    );
    if workload == "serve-warm" && value("core.service_dedup_ratio") != 1.0 {
        errors.push(format!(
            "core.service_dedup_ratio is {} after the fill",
            value("core.service_dedup_ratio")
        ));
    }
    errors
}

/// Finishes a traced outcome: per-layer metrics plus the attribution check.
fn traced_outcome(
    workload: &str,
    rec: &Recorder,
    x: &Extras,
    attempted: u64,
    failed: u64,
) -> Outcome {
    let metrics = layer_metrics(rec, x);
    let errors = attribution_errors(workload, &metrics);
    for e in &errors {
        eprintln!("error: attribution check failed: {e}");
    }
    for (name, v, unit) in &metrics {
        println!("{workload} traced: {name} = {v:.3} {unit}");
    }
    Outcome {
        correct: failed == 0 && errors.is_empty(),
        attempted,
        failed,
        metrics,
    }
}

fn pipeline_traced(workload: &str, s: &Setting, env: &Env) -> Result<Outcome, String> {
    let reference = pipeline_reference(workload, s, env)?;
    let n_cells = s.plan(env.seed).len() as u64;
    let untraced = spawn_child(workload, env, 0)?;
    let mut failed = failed_cells(&untraced, None, reference.as_ref(), n_cells);
    let traced = pipeline::run_traced(s, env.seed)?;
    let as_op = OpResult {
        experiments: traced.experiments.clone(),
        cells: traced.cells.clone(),
        ..OpResult::default()
    };
    // The traced cells must carry the untraced run's exact statistics.
    failed += failed_cells(&as_op, Some(&untraced), None, n_cells);
    let root = &traced.rec.spans()[0];
    let traced_ms = (root.end_ns - root.start_ns) as f64 / 1e6;
    let x = Extras {
        spilled_mb: traced.spilled_mb,
        decode_sync_ms: traced.decode_sync_ms,
        prefetch_hits: traced.prefetch_hits,
        swap_ins: traced.swap_ins,
        runner_wall_ms: untraced.runner_wall_ms,
        runner_cells: untraced.cells.len() as u64,
        dedup_ratio: 0.0,
        overhead_frac: ratio(traced_ms, untraced.wall_ms) - 1.0,
    };
    Ok(traced_outcome(
        workload,
        &traced.rec,
        &x,
        2 * n_cells,
        failed,
    ))
}

/// Checks one reply against the reference text of its experiment.
fn reply_ok(e: Experiment, answer: &Result<Answer, String>, reference: &Reference) -> bool {
    match answer {
        Ok(a) if a.complete && reference.texts.get(e.name()) == Some(&a.report) => true,
        Ok(a) => {
            eprintln!(
                "check: reply for {} is {} and differs from the reference",
                e.name(),
                if a.complete { "complete" } else { "partial" }
            );
            false
        }
        Err(err) => {
            eprintln!("check: request for {} failed: {err}", e.name());
            false
        }
    }
}

/// Spawns a daemon and fills its cache with one `all` request; returns it
/// with the set-up time, or `None` for the daemon if the fill failed.
fn fill_daemon(
    env: &Env,
    tag: &str,
    reference: &Reference,
) -> Result<(Option<Daemon>, f64), String> {
    let t0 = Instant::now();
    let mut d = Daemon::spawn(&env.repro, &env.work, serve_scale(), JOBS, tag)?;
    d.wait_ready(Duration::from_secs(60))?;
    let all = Experiment::all();
    let fill = d.request(&all, "fill");
    let setup_ms = ms_since(t0);
    let want: String = all
        .iter()
        .map(|e| reference.texts[e.name()].as_str())
        .collect();
    match fill {
        Ok(a) if a.complete && a.report == want => Ok((Some(d), setup_ms)),
        Ok(_) => {
            eprintln!("check: the `all` fill differs from the reference");
            Ok((None, setup_ms))
        }
        Err(e) => {
            eprintln!("check: the `all` fill failed: {e}");
            Ok((None, setup_ms))
        }
    }
}

/// Sends one round of the mix: the two clients drain a seeded shuffle of
/// every experiment, one connection per request. Returns the round's wall
/// milliseconds and every answer.
fn send_round(d: &Daemon, rng: &mut SplitMix64) -> (f64, Vec<Reply>) {
    let queue = Mutex::new(mix_round(rng).into_iter().collect::<VecDeque<_>>());
    let r0 = Instant::now();
    let answers = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let queue = &queue;
                s.spawn(move || {
                    let mut out = Vec::new();
                    while let Some(e) = queue.lock().expect("queue lock").pop_front() {
                        out.push((e, d.request(&[e], &format!("client{c}"))));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    (ms_since(r0), answers)
}

/// Five daemons in turn: each is spawned and filled (one set-up sample),
/// serves its share of `--seconds` of closed-loop rounds, reports its peak
/// RSS and is stopped. Spreading the set-ups over the run keeps them from
/// all landing in one slow stretch of the host.
fn serve_untraced(env: &Env) -> Result<Outcome, String> {
    let all = Experiment::all();
    let reference = load_reference(&env.reference.join("matrix"), &all)?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut drained = true;
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let mut rng = SplitMix64::new(env.seed);
    let mut first: HashMap<&'static str, String> = HashMap::new();
    let (mut rounds, mut latencies) = (Vec::new(), Vec::new());
    let run_start = Instant::now();
    for k in 0..SERVE_SETUPS {
        attempted += 1;
        let (d, ms) = fill_daemon(env, &format!("d{k}"), &reference)?;
        setups.push(ms);
        let Some(d) = d else {
            failed += 1;
            continue;
        };
        let start = Instant::now();
        let mut requests = 0usize;
        while requests < MIN_REQUESTS.div_ceil(SERVE_SETUPS)
            || (start.elapsed().as_secs_f64() < env.seconds / SERVE_SETUPS as f64
                && run_start.elapsed() < RUN_CAP)
        {
            let (round_ms, answers) = send_round(&d, &mut rng);
            rounds.push(round_ms);
            for (e, a) in answers {
                attempted += 1;
                requests += 1;
                let mut ok = reply_ok(e, &a, &reference);
                if let Ok(a) = &a {
                    let seen = first.entry(e.name()).or_insert_with(|| a.report.clone());
                    ok &= *seen == a.report;
                    if ok {
                        latencies.push(a.latency_ms());
                    }
                }
                failed += u64::from(!ok);
            }
        }
        rss.push(d.stats()?.peak_rss_mb);
        if let Err(e) = d.stop() {
            eprintln!("check: {e}");
            drained = false;
        }
    }
    if latencies.is_empty() {
        return Err("no request succeeded".to_string());
    }
    let p95 = percentile(&latencies, 0.95).unwrap_or(0.0);
    println!(
        "serve-warm: {} setups, {} rounds, {} requests ({} beyond p95), mix seed {}",
        setups.len(),
        rounds.len(),
        latencies.len(),
        latencies.iter().filter(|&&l| l > p95).count(),
        env.seed
    );
    Ok(Outcome {
        correct: failed == 0 && drained,
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&setups).unwrap_or(0.0) / 1e3, "s"),
            ("wall_s", median(&rounds).unwrap_or(0.0) / 1e3, "s"),
            ("peak_rss_mb", median(&rss).unwrap_or(0.0), "MB"),
            ("lat_p50_ms", median(&latencies).unwrap_or(0.0), "ms"),
            ("lat_p95_ms", p95, "ms"),
            (
                "ops_per_s",
                latencies.len() as f64 / (rounds.iter().sum::<f64>() / 1e3).max(1e-9),
                "1/s",
            ),
        ],
    })
}

fn serve_traced(env: &Env) -> Result<Outcome, String> {
    let all = Experiment::all();
    let reference = load_reference(&env.reference.join("matrix"), &all)?;
    let (d, _) = fill_daemon(env, "traced", &reference)?;
    let d = d.ok_or("the daemon's fill failed")?;
    let mut rng = SplitMix64::new(env.seed);
    let seq: Vec<Experiment> = (0..TRACED_ROUNDS)
        .flat_map(|_| mix_round(&mut rng))
        .collect();
    let mut failed = 0u64;

    // The same sequence untraced first: the base of the overhead ratio.
    let t0 = Instant::now();
    for &e in &seq {
        failed += u64::from(!reply_ok(e, &d.request(&[e], "untraced"), &reference));
    }
    let untraced_ms = ms_since(t0);
    let before = d.stats()?;

    let mut rec = Recorder::new();
    let root = rec.enter("run");
    // A replica of the daemon's state: its base traces, and its cells
    // replayed from a copy of its journal, so every request can also be
    // rendered here and its render time attributed.
    let cache = Arc::new(TraceCache::new());
    let mut r = Repro::with_cache(serve_scale(), 1, Arc::clone(&cache));
    let opts = r.build_options();
    let bases = pipeline::generate_traced(&mut rec, &cache, opts);
    let copy = env.work.join("replica.journal");
    std::fs::copy(d.journal(), &copy).map_err(|e| format!("copy journal: {e}"))?;
    let replay = rec.time(
        "core.journal_replay",
        || -> Result<_, String> {
            let j = Journal::resume(&copy, JournalHeader::new(&opts))
                .map_err(|e| format!("journal: {e}"))?;
            Ok(r.warm_supervised(&all, &RunPolicy::fail_fast(), Some(&j)))
        },
        |_| 0,
    )?;
    if !replay.failures.is_empty() || replay.journal_hits != replay.cells.len() {
        eprintln!("check: the replica simulated cells the journal should have served");
        failed += 1;
    }
    let loop_start = Instant::now();
    for &e in &seq {
        let a = d.request(&[e], "traced");
        let mut ok = reply_ok(e, &a, &reference);
        if let Ok(a) = &a {
            rec.push("core.service_accept", a.connect, a.accepted, 0);
            rec.push("core.service_reply", a.accepted, a.done, 0);
        }
        let text = pipeline::render_traced(&mut rec, &mut r, e, &bases);
        if let Ok(a) = &a {
            if a.report != text {
                eprintln!(
                    "check: the replica renders {} differently from the daemon",
                    e.name()
                );
                ok = false;
            }
        }
        failed += u64::from(!ok);
    }
    let loop_ms = ms_since(loop_start);
    rec.exit(root, 0);

    let after = d.stats()?;
    if let Err(e) = d.stop() {
        eprintln!("check: {e}");
        failed += 1;
    }
    let x = Extras {
        spilled_mb: after.spilled_mb,
        dedup_ratio: ratio(
            (after.journal_replays - before.journal_replays) as f64,
            (after.cells_completed - before.cells_completed) as f64,
        ),
        overhead_frac: ratio(loop_ms, untraced_ms) - 1.0,
        ..Extras::default()
    };
    Ok(traced_outcome(
        "serve-warm",
        &rec,
        &x,
        2 * seq.len() as u64,
        failed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_cells_counts_each_kind_of_mismatch() {
        let cell = |key: &str, misses: u64| pipeline::CellRecord {
            key: key.to_string(),
            ms: 1.0,
            os_read_misses: misses,
            digest: misses * 7,
        };
        let op = OpResult {
            experiments: vec![("table2".to_string(), 9)],
            cells: vec![cell("a", 1), cell("b", 2)],
            ..OpResult::default()
        };
        let reference = Reference {
            texts: BTreeMap::new(),
            digests: [("table2".to_string(), 9)].into_iter().collect(),
            cells: [("a".to_string(), 1), ("b".to_string(), 2)]
                .into_iter()
                .collect(),
        };
        assert_eq!(failed_cells(&op, Some(&op), Some(&reference), 2), 0);
        // One cell's statistics drift: that cell fails.
        let mut drift = op.clone();
        drift.cells[1] = cell("b", 3);
        assert_eq!(failed_cells(&drift, Some(&op), None, 2), 1);
        assert_eq!(failed_cells(&drift, None, Some(&reference), 2), 1);
        // Wrong report bytes or a missing cell fail every cell.
        let mut report = op.clone();
        report.experiments[0].1 = 10;
        assert_eq!(failed_cells(&report, None, Some(&reference), 2), 2);
        assert_eq!(failed_cells(&op, None, None, 3), 3);
    }

    #[test]
    fn result_json_has_the_required_keys() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("wall_s", 1.5, "s"), ("bad", f64::NAN, "ms")],
        };
        assert_eq!(
            result_json(&out),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"bad\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn attribution_check_flags_missing_and_unexpected_layers() {
        let mut m: Vec<Metric> = [
            "workloads.gen_ms",
            "trace.validate_ms",
            "memsys.sim_ms",
            "core.render_ms",
            "trace.spilled_mb",
        ]
        .iter()
        .map(|&n| (n, 1.0, "ms"))
        .collect();
        assert!(attribution_errors("replay-spill", &m).is_empty());
        m.push(("core.analyze_ms", 2.0, "ms"));
        m[1].1 = 0.0;
        assert_eq!(attribution_errors("replay-spill", &m).len(), 2);
    }
}
