//! The `matrix` and `replay-spill` workloads: one untraced operation (run
//! in a fresh child process, exactly the calls `repro all` makes) and the
//! traced recomposition of the same cells from each layer's entry points.

use crate::spans::Recorder;
use crate::stats::fnv1a64;
use oscache_core::analysis::find_hot_spots;
use oscache_core::runner::CellOutcome;
use oscache_core::transform::HotspotPlan;
use oscache_core::{
    analyze_cell_chunked, deferred, dispatch_order, render_experiment, AnalysisPrefix, Cell,
    Experiment, PrepPhases, Repro, RequestPlan, RunResult, SystemSpec, TraceCache, UpdatePolicy,
};
use oscache_memsys::{profile_os_misses_chunked, AuditLevel, Machine, PageSet, SimStats};
use oscache_trace::ChunkedTrace;
use oscache_workloads::{BuildOptions, Workload};
use std::collections::{BTreeMap, HashMap};
use std::fmt::{Debug, Write as _};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Worker threads for every untraced operation (the box has two cores).
pub const JOBS: usize = 2;

/// Experiments whose render re-runs `deferred::analyze_chunked` over every
/// base trace (`Repro::table4`, which the scorecard also calls).
const RENDERS_WITH_DEFERRED: [Experiment; 2] = [Experiment::Table4, Experiment::Scorecard];

/// What one workload asks of the pipeline.
#[derive(Clone, Debug)]
pub struct Setting {
    pub experiments: Vec<Experiment>,
    pub scale: f64,
    /// Memory budget for the spill governor (`--mem-budget-mb`).
    pub budget_mb: Option<u64>,
}

impl Setting {
    /// Every experiment, traces resident: the north-star `repro all`.
    pub fn matrix() -> Setting {
        Setting {
            experiments: Experiment::all().to_vec(),
            scale: 0.05,
            budget_mb: None,
        }
    }

    /// Table 2's four `Base` cells on traces several times larger than the
    /// budget, so sealed chunks spill to disk and replay reads them back.
    pub fn replay_spill() -> Setting {
        Setting {
            experiments: vec![Experiment::Table2],
            scale: 3.0,
            budget_mb: Some(64),
        }
    }

    fn repro(&self, seed: u64, jobs: usize, cache: Arc<TraceCache>) -> Repro {
        let mut r = Repro::with_cache(self.scale, jobs, cache);
        r.seed = seed;
        if let Some(mb) = self.budget_mb {
            r.set_mem_budget(mb, None);
        }
        r
    }

    /// Every cell the experiments need, in first-appearance order.
    pub fn plan(&self, seed: u64) -> RequestPlan {
        let opts = BuildOptions {
            scale: self.scale,
            seed,
            ..BuildOptions::default()
        };
        RequestPlan::for_experiments(&self.experiments, opts, |_| false)
    }
}

/// Digest of every simulated counter of one cell. `CpuStats` keeps three
/// `HashMap`s, whose iteration order differs between processes, so their
/// entries are hashed sorted.
pub fn stats_digest(stats: &SimStats) -> u64 {
    fn drain_sorted<K: Debug, V: Debug>(cpu: usize, m: &mut HashMap<K, V>) -> Vec<String> {
        let mut entries: Vec<String> = m
            .drain()
            .map(|(k, v)| format!("{cpu}:{k:?}={v:?}"))
            .collect();
        entries.sort_unstable();
        entries
    }
    let mut canon = stats.clone();
    let mut maps = Vec::new();
    for (cpu, c) in canon.cpus.iter_mut().enumerate() {
        maps.push(drain_sorted(cpu, &mut c.os_miss_by_class));
        maps.push(drain_sorted(cpu, &mut c.lock_wait_cycles));
        maps.push(drain_sorted(cpu, &mut c.conflict_pairs));
    }
    fnv1a64(format!("{canon:?}{maps:?}").as_bytes())
}

/// One simulated cell as an operation reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    pub key: String,
    /// Dispatch-to-result milliseconds in the runner (0 when traced).
    pub ms: f64,
    pub os_read_misses: u64,
    pub digest: u64,
}

/// What one untraced operation measured and produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpResult {
    pub setup_ms: f64,
    pub wall_ms: f64,
    pub runner_wall_ms: f64,
    pub peak_rss_mb: f64,
    pub spilled_mb: f64,
    /// `(experiment name, digest of its rendered bytes)`, in render order.
    pub experiments: Vec<(String, u64)>,
    pub cells: Vec<CellRecord>,
}

impl OpResult {
    /// The line format a child prints and the parent parses.
    pub fn to_lines(&self) -> String {
        let mut s = String::new();
        for (k, v) in [
            ("setup_ms", self.setup_ms),
            ("wall_ms", self.wall_ms),
            ("runner_wall_ms", self.runner_wall_ms),
            ("peak_rss_mb", self.peak_rss_mb),
            ("spilled_mb", self.spilled_mb),
        ] {
            let _ = writeln!(s, "{k}\t{v}");
        }
        for (name, d) in &self.experiments {
            let _ = writeln!(s, "exp\t{name}\t{d:016x}");
        }
        for c in &self.cells {
            let _ = writeln!(
                s,
                "cell\t{}\t{}\t{}\t{:016x}",
                c.key, c.ms, c.os_read_misses, c.digest
            );
        }
        s
    }

    /// Applies `f` to every time the operation measured.
    pub fn scale_times(&mut self, f: impl Fn(f64) -> f64) {
        self.setup_ms = f(self.setup_ms);
        self.wall_ms = f(self.wall_ms);
        self.runner_wall_ms = f(self.runner_wall_ms);
        for c in &mut self.cells {
            c.ms = f(c.ms);
        }
    }

    pub fn parse(text: &str) -> Result<OpResult, String> {
        let mut r = OpResult::default();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let f: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| -> Result<f64, String> {
                f.get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad child line {line:?}"))
            };
            let hex = |i: usize| -> Result<u64, String> {
                f.get(i)
                    .and_then(|v| u64::from_str_radix(v, 16).ok())
                    .ok_or_else(|| format!("bad child line {line:?}"))
            };
            match f[0] {
                "setup_ms" => r.setup_ms = num(1)?,
                "wall_ms" => r.wall_ms = num(1)?,
                "runner_wall_ms" => r.runner_wall_ms = num(1)?,
                "peak_rss_mb" => r.peak_rss_mb = num(1)?,
                "spilled_mb" => r.spilled_mb = num(1)?,
                "exp" if f.len() == 3 => r.experiments.push((f[1].to_string(), hex(2)?)),
                "cell" if f.len() == 5 => r.cells.push(CellRecord {
                    key: f[1].to_string(),
                    ms: num(2)?,
                    os_read_misses: f[3]
                        .parse()
                        .map_err(|_| format!("bad child line {line:?}"))?,
                    digest: hex(4)?,
                }),
                _ => return Err(format!("bad child line {line:?}")),
            }
        }
        if r.cells.is_empty() || r.experiments.is_empty() {
            return Err("child reported no cells".to_string());
        }
        Ok(r)
    }
}

/// One untraced operation, run in a fresh process so its peak RSS is its
/// own: generate the base traces (set-up), warm every cell through the
/// runner, and render every experiment into `<report_dir>/<name>.txt`.
pub fn run_op(setting: &Setting, seed: u64, report_dir: &Path) -> Result<OpResult, String> {
    let t0 = Instant::now();
    let mut r = setting.repro(seed, JOBS, Arc::new(TraceCache::new()));
    for w in Workload::all() {
        r.trace_chunked(w);
    }
    let setup_ms = ms_since(t0);
    let warm = r.warm(&setting.experiments);
    let mut experiments = Vec::new();
    for &e in &setting.experiments {
        let text = render_experiment(&mut r, e);
        experiments.push((e.name().to_string(), fnv1a64(text.as_bytes())));
        std::fs::write(report_dir.join(format!("{}.txt", e.name())), &text)
            .map_err(|err| format!("write report: {err}"))?;
    }
    let wall_ms = ms_since(t0);
    let ms_by_key: HashMap<&str, f64> = warm.cells.iter().map(|c| (c.key.as_str(), c.ms)).collect();
    let plan = setting.plan(seed);
    let cells = plan
        .cells
        .iter()
        .map(|pc| {
            let c = &pc.cell;
            let stats = &r.run_spec(c.workload, c.spec, c.geometry, &c.tag).stats;
            CellRecord {
                key: pc.key.clone(),
                ms: ms_by_key.get(pc.key.as_str()).copied().unwrap_or(0.0),
                os_read_misses: stats.total().os_read_misses(),
                digest: stats_digest(stats),
            }
        })
        .collect();
    Ok(OpResult {
        setup_ms,
        wall_ms,
        runner_wall_ms: warm.wall_ms,
        peak_rss_mb: oscache_core::service::peak_rss_mb().unwrap_or(0.0),
        spilled_mb: r.cache().spilled_mb(),
        experiments,
        cells,
    })
}

/// The outcome of the traced recomposition.
pub struct Traced {
    pub rec: Recorder,
    pub experiments: Vec<(String, u64)>,
    pub cells: Vec<CellRecord>,
    pub spilled_mb: f64,
    pub decode_sync_ms: f64,
    pub prefetch_hits: u64,
    pub swap_ins: u64,
}

/// The geometry-independent state one `(workload, AnalysisPrefix)` shares,
/// as `TraceCache` keeps it: the analysed working trace, its update pages
/// and (built on first use) the hot-spot insertion plan.
struct Analysis {
    trace: Option<Arc<ChunkedTrace>>,
    update_pages: PageSet,
    hot_plan: Option<HotspotPlan>,
}

/// Whether `analyze_cell_chunked` does any work for `spec` (it returns the
/// base trace untouched otherwise, as for every `Base` cell).
fn needs_analysis(spec: &SystemSpec) -> bool {
    spec.deferred_copy
        || spec.page_coloring
        || spec.privatize
        || spec.relocate
        || spec.update != UpdatePolicy::None
}

/// Recomposes every cell serially, in the runner's dispatch order, from
/// the public entry points of each layer, with a span around each call;
/// then renders every experiment from the results.
pub fn run_traced(setting: &Setting, seed: u64) -> Result<Traced, String> {
    let mut rec = Recorder::new();
    let root = rec.enter("run");
    let cache = Arc::new(TraceCache::new());
    let mut r = setting.repro(seed, 1, Arc::clone(&cache));
    let opts = r.build_options();

    let bases = generate_traced(&mut rec, &cache, opts);

    let plan = setting.plan(seed);
    let mut analyses: HashMap<(Workload, AnalysisPrefix), Analysis> = HashMap::new();
    let mut results: HashMap<oscache_core::CellFingerprint, RunResult> = HashMap::new();
    let mut outcomes: Vec<Option<CellOutcome>> = vec![None; plan.len()];
    let (mut decode_sync_ms, mut prefetch_hits, mut swap_ins) = (0.0, 0u64, 0u64);

    for i in dispatch_order(&plan.cells, setting.scale) {
        let pc = &plan.cells[i];
        let cell: &Cell = &pc.cell;
        if let Some(result) = results.get(&pc.fingerprint) {
            outcomes[i] = Some(outcome(cell, result.clone()));
            continue;
        }
        let base = &bases[&cell.workload];
        let n_cpus = base.n_cpus();
        let analysis = analyses
            .entry((cell.workload, AnalysisPrefix::of(cell.spec)))
            .or_insert_with(|| {
                if needs_analysis(&cell.spec) {
                    let a = rec.time(
                        "core.analyze",
                        || analyze_cell_chunked(base, cell.spec),
                        |_| base.total_events() as u64,
                    );
                    Analysis {
                        trace: a.trace.clone(),
                        update_pages: a.update_pages.clone(),
                        hot_plan: None,
                    }
                } else {
                    Analysis {
                        trace: None,
                        update_pages: PageSet::new(),
                        hot_plan: None,
                    }
                }
            });
        let update_pages = analysis.update_pages.clone();
        let analysed: &ChunkedTrace = analysis.trace.as_deref().unwrap_or(base);
        let machine_config = || {
            let mut cfg = cell.geometry.machine_config(&cell.spec);
            cfg.n_cpus = n_cpus;
            cfg.update_pages = update_pages.clone();
            cfg.audit = AuditLevel::Off;
            cfg
        };

        let rewritten: Option<ChunkedTrace> = if cell.spec.hotspot_prefetch {
            let hot = rec.time(
                "memsys.profile",
                || -> Result<Vec<u16>, String> {
                    let stats = profile_os_misses_chunked(machine_config(), analysed)
                        .map_err(|e| format!("{}: profile: {e}", pc.key))?;
                    Ok(find_hot_spots(&stats.total(), &analysed.meta.code))
                },
                |_| analysed.total_events() as u64,
            )?;
            let id = rec.enter("core.rewrite");
            let plan = analysis
                .hot_plan
                .get_or_insert_with(|| HotspotPlan::build_chunked(analysed));
            let t = plan.materialize_chunked(analysed, &hot);
            rec.exit(id, t.total_events() as u64);
            Some(t)
        } else {
            None
        };
        let working: &ChunkedTrace = rewritten.as_ref().unwrap_or(analysed);
        let events = working.total_events() as u64;

        rec.time(
            "trace.validate",
            || working.validate_for_cpus(n_cpus),
            |_| events,
        )
        .map_err(|e| format!("{}: validate: {e}", pc.key))?;

        let id = rec.enter("memsys.sim");
        let run = Machine::with_recording_prevalidated_chunked(machine_config(), working, true)
            .and_then(|mut m| Ok((m.run_mut()?, m.overlap_stats())));
        rec.exit(id, events);
        let (stats, overlap) = run.map_err(|e| format!("{}: simulate: {e}", pc.key))?;
        decode_sync_ms += overlap.decode_ms;
        prefetch_hits += overlap.prefetch_hits;
        swap_ins += overlap.prefetch_hits + overlap.sync_decodes;

        let result = RunResult {
            stats,
            spec: cell.spec,
            geometry: cell.geometry,
        };
        results.insert(pc.fingerprint, result.clone());
        outcomes[i] = Some(outcome(cell, result));
    }

    let cells = plan
        .cells
        .iter()
        .zip(&outcomes)
        .map(|(pc, o)| {
            let stats = &o.as_ref().expect("every planned cell ran").result.stats;
            CellRecord {
                key: pc.key.clone(),
                ms: 0.0,
                os_read_misses: stats.total().os_read_misses(),
                digest: stats_digest(stats),
            }
        })
        .collect();
    r.absorb_outcomes(outcomes.into_iter().flatten());

    let mut experiments = Vec::new();
    for &e in &setting.experiments {
        let text = render_traced(&mut rec, &mut r, e, &bases);
        experiments.push((e.name().to_string(), fnv1a64(text.as_bytes())));
    }
    rec.exit(root, 0);
    Ok(Traced {
        rec,
        experiments,
        cells,
        spilled_mb: cache.spilled_mb(),
        decode_sync_ms,
        prefetch_hits,
        swap_ins,
    })
}

/// Generates (or fetches) every workload's base trace in `cache`, one
/// `workloads.gen` span each.
pub fn generate_traced(
    rec: &mut Recorder,
    cache: &TraceCache,
    opts: BuildOptions,
) -> HashMap<Workload, Arc<ChunkedTrace>> {
    Workload::all()
        .into_iter()
        .map(|w| {
            let t = rec.time(
                "workloads.gen",
                || cache.base_chunked(w, opts),
                |t| t.total_events() as u64,
            );
            (w, t)
        })
        .collect()
}

/// Renders `e` in a `core.render` span. For the experiments whose render
/// re-runs the deferred-copy analysis, the same analysis over the same
/// traces is first timed on its own in a `core.render_deferred` span:
/// `render_experiment` has no hook to time it from outside.
pub fn render_traced(
    rec: &mut Recorder,
    r: &mut Repro,
    e: Experiment,
    bases: &HashMap<Workload, Arc<ChunkedTrace>>,
) -> String {
    if RENDERS_WITH_DEFERRED.contains(&e) {
        rec.time(
            "core.render_deferred",
            || {
                for w in Workload::all() {
                    std::hint::black_box(deferred::analyze_chunked(&bases[&w]));
                }
            },
            |_| 0,
        );
    }
    rec.time(
        "core.render",
        || render_experiment(r, e),
        |t| t.len() as u64,
    )
}

fn outcome(cell: &Cell, result: RunResult) -> CellOutcome {
    CellOutcome {
        cell: cell.clone(),
        result,
        ms: 0.0,
        build_ms: 0.0,
        prepare_ms: 0.0,
        sim_ms: 0.0,
        phases: PrepPhases::default(),
        decode_ms: 0.0,
        prefetch_hits: 0,
        spilled_mb: 0.0,
        spill_ms: 0.0,
        sched_order: 0,
        attempt: 0,
        journaled: false,
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Names of experiments whose digest differs from `want` (or is missing
/// from it), in `got` order.
pub fn report_mismatches(got: &[(String, u64)], want: &BTreeMap<String, u64>) -> Vec<String> {
    let mut bad: Vec<String> = got
        .iter()
        .filter(|(name, d)| want.get(name) != Some(d))
        .map(|(name, _)| name.clone())
        .collect();
    if got.len() != want.len() {
        bad.push(format!(
            "{} experiments rendered, {} expected",
            got.len(),
            want.len()
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_mismatch_names_changed_and_missing_experiments() {
        let want: BTreeMap<String, u64> = [("table1", 1), ("table2", 2)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let same = vec![("table1".to_string(), 1), ("table2".to_string(), 2)];
        assert!(report_mismatches(&same, &want).is_empty());
        let changed = vec![("table1".to_string(), 1), ("table2".to_string(), 3)];
        assert_eq!(
            report_mismatches(&changed, &want),
            vec!["table2".to_string()]
        );
        let short = vec![("table1".to_string(), 1)];
        assert_eq!(report_mismatches(&short, &want).len(), 1);
    }

    #[test]
    fn op_result_lines_round_trip() {
        let op = OpResult {
            setup_ms: 12.5,
            wall_ms: 3456.25,
            runner_wall_ms: 3000.0,
            peak_rss_mb: 81.9,
            spilled_mb: 0.0,
            experiments: vec![("table1".to_string(), 0xdead_beef)],
            cells: vec![CellRecord {
                key: "TRFD_4/Base/Geometry { l1d_size: 32768 }".to_string(),
                ms: 17.125,
                os_read_misses: 4242,
                digest: u64::MAX,
            }],
        };
        assert_eq!(OpResult::parse(&op.to_lines()), Ok(op));
        assert!(OpResult::parse("setup_ms\tx\n").is_err());
    }
}
