//! End-to-end equivalence oracle for the fused transform pipeline.
//!
//! Re-implements the pre-fusion cell preparation — one cloned rewrite per
//! software pass, using the verbatim old passes kept in `common/compat.rs`
//! — and checks that:
//!
//! * each production stage ([`TransformPipeline`], [`HotspotPlan`]) emits
//!   event-for-event what its pass-by-pass oracle emits, alone and fused;
//! * the production preparation produces an identical prepared trace and
//!   the same update-page set for every `System` in the ladder, plus the
//!   coloring variants the ladder itself never enables;
//! * the full ladder × workload × geometry matrix, replayed from the
//!   oracle-prepared trace on the generic machine loop, gives the same
//!   statistics as the production `try_run_spec_audited`.

mod common;

use common::{assert_traces_equal, compat, through_chunks, FlatTrace};
use oscache_core::transform::{
    false_sharing_plan_meta, full_update_pages_meta, update_page_plan_meta, HotspotPlan,
    RelocationMap, TransformPipeline,
};
use oscache_core::{
    analysis, analyze_cell_chunked, deferred, prepare_from_analysis, try_run_spec_audited,
    Geometry, System, SystemSpec, UpdatePolicy,
};
use oscache_memsys::{AuditLevel, Machine, PageSet};
use oscache_trace::ChunkedTrace;
use oscache_workloads::{build, BuildOptions, Workload};
use std::collections::HashSet;

/// The old pass-by-pass preparation: each enabled pass clones and rewrites
/// the whole trace. Deferred copy and the sharing profile are not
/// rewrites the fusion touched, so they run through the production
/// functions; every rewrite runs through the oracle.
fn prepare_compat(
    trace: &FlatTrace,
    spec: SystemSpec,
    geometry: Geometry,
) -> (Option<FlatTrace>, PageSet) {
    let mut update_pages = PageSet::new();
    let mut owned: Option<FlatTrace> = None;

    if spec.deferred_copy {
        owned = Some(through_chunks(
            owned.as_ref().unwrap_or(trace),
            deferred::apply_deferred_copy,
        ));
    }

    if spec.page_coloring {
        let l2_size = geometry.machine_config(&spec).l2.size;
        owned = Some(compat::color_pages(
            owned.as_ref().unwrap_or(trace),
            l2_size,
        ));
    }

    if spec.privatize || spec.relocate || spec.update != UpdatePolicy::None {
        let working = owned.as_ref().unwrap_or(trace);
        let profile = analysis::profile_sharing(&working.encode());
        let privatized = if spec.privatize {
            analysis::find_privatizable(&profile)
        } else {
            Vec::new()
        };
        let mut plan = RelocationMap::new();
        let mut placed: HashSet<u32> = HashSet::new();
        if spec.update == UpdatePolicy::Selective {
            let set = analysis::find_update_set(&profile, &privatized);
            let (upd_plan, pages) = update_page_plan_meta(&working.meta, &set);
            update_pages = pages.into_iter().collect();
            for w in set.all_words() {
                if let Some(v) = working.meta.var_at(w) {
                    placed.insert(v.addr.0);
                } else {
                    placed.insert(w.0);
                }
            }
            plan = upd_plan;
        }
        if spec.relocate {
            let fs = false_sharing_plan_meta(&working.meta, &placed);
            for v in &working.meta.vars {
                if v.false_shared_group.is_some()
                    && !placed.contains(&v.addr.0)
                    && plan.lookup(v.addr).is_none()
                {
                    if let Some(new) = fs.lookup(v.addr) {
                        plan.add(v.addr, v.size, new);
                    }
                }
            }
        }
        plan.finish();
        let mut t = working.clone();
        if spec.privatize && !privatized.is_empty() {
            t = compat::privatize_counters(&t, &privatized);
        }
        if !plan.is_empty() {
            t = compat::relocate(&t, &plan);
        }
        owned = Some(t);
    }

    if spec.update == UpdatePolicy::Full {
        let working = owned.as_ref().unwrap_or(trace);
        update_pages = full_update_pages_meta(&working.meta).into_iter().collect();
    }

    if spec.hotspot_prefetch {
        let mut cfg = geometry.machine_config(&spec);
        cfg.n_cpus = trace.n_cpus();
        cfg.update_pages = update_pages.clone();
        cfg.audit = AuditLevel::Off;
        let working = owned.as_ref().unwrap_or(trace);
        let profile_stats = Machine::new(cfg, &working.encode()).unwrap().run().unwrap();
        let hot = analysis::find_hot_spots(&profile_stats.total(), &working.meta.code);
        owned = Some(compat::insert_hotspot_prefetches(working, &hot));
    }

    (owned, update_pages)
}

fn workload_trace() -> ChunkedTrace {
    build(
        Workload::Trfd4,
        BuildOptions {
            scale: 0.05,
            seed: 7,
            ..Default::default()
        },
    )
}

/// Every hot-spot-eligible site of `t`.
fn all_sites(t: &ChunkedTrace) -> Vec<u16> {
    t.meta.code.sites().map(|(id, _)| id.0).collect()
}

#[test]
fn pipeline_matches_compat_single_passes() {
    let ct = workload_trace();
    let p = analysis::profile_sharing(&ct);
    let t = FlatTrace::decode(&ct);
    let privatized = analysis::find_privatizable(&p);
    assert!(!privatized.is_empty(), "need privatization targets");
    assert_traces_equal(
        &through_chunks(&t, |ct| {
            TransformPipeline::new().privatize(&privatized).run(ct)
        }),
        &compat::privatize_counters(&t, &privatized),
        "privatize",
    );
    let plan = false_sharing_plan_meta(&t.meta, &HashSet::new());
    assert!(!plan.is_empty(), "need relocation ranges");
    assert_traces_equal(
        &through_chunks(&t, |ct| TransformPipeline::new().relocate(&plan).run(ct)),
        &compat::relocate(&t, &plan),
        "relocate",
    );
    assert_traces_equal(
        &through_chunks(&t, |ct| TransformPipeline::new().escapes().run(ct)),
        &compat::instrument_escapes(&t),
        "escapes",
    );
    assert_traces_equal(
        &through_chunks(&t, |ct| {
            TransformPipeline::new().coloring(ct, 256 * 1024).run(ct)
        }),
        &compat::color_pages(&t, 256 * 1024),
        "coloring",
    );
}

#[test]
fn fused_pipeline_matches_compat_composition() {
    // The fused walk plus the hot-spot merge must equal the pass-by-pass
    // *composition* in the pipeline's stage order, every stage enabled.
    let ct = workload_trace();
    let p = analysis::profile_sharing(&ct);
    let privatized = analysis::find_privatizable(&p);
    let plan = false_sharing_plan_meta(&ct.meta, &HashSet::new());
    let sites = all_sites(&ct);
    let t = FlatTrace::decode(&ct);

    let fused = through_chunks(&t, |ct| {
        let rewritten = TransformPipeline::new()
            .coloring(ct, 256 * 1024)
            .privatize(&privatized)
            .relocate(&plan)
            .escapes()
            .run(ct);
        HotspotPlan::build_chunked(&rewritten).materialize_chunked(&rewritten, &sites)
    });

    let staged = compat::color_pages(&t, 256 * 1024);
    let staged = compat::privatize_counters(&staged, &privatized);
    let staged = compat::relocate(&staged, &plan);
    let staged = compat::instrument_escapes(&staged);
    let staged = compat::insert_hotspot_prefetches(&staged, &sites);
    assert_traces_equal(&fused, &staged, "fused C+P+R+E+H");
}

#[test]
fn hotspot_plan_matches_compat_insertion() {
    let ct = workload_trace();
    let t = FlatTrace::decode(&ct);
    let plan = HotspotPlan::build_chunked(&ct);
    // Every site (loop and sequence alike, exercising both insertion
    // shapes and hoisting), a subset, and the empty set (identity merge).
    let sites = all_sites(&ct);
    let some: Vec<u16> = sites.iter().copied().take(sites.len() / 2).collect();
    for (what, set) in [
        ("all sites", sites.clone()),
        ("subset", some),
        ("empty", vec![]),
    ] {
        assert_traces_equal(
            &FlatTrace::decode(&plan.materialize_chunked(&ct, &set)),
            &compat::insert_hotspot_prefetches(&t, &set),
            &format!("hotspot {what}"),
        );
    }
}

fn check_workload(workload: Workload, seed: u64) {
    let ct = build(
        workload,
        BuildOptions {
            scale: 0.05,
            seed,
            ..Default::default()
        },
    );
    let t = FlatTrace::decode(&ct);
    let geometry = Geometry::default();
    // Every ladder system, plus coloring alone and coloring stacked on the
    // full ladder top (exercises the C stage feeding P/R/H).
    let mut specs: Vec<(String, SystemSpec)> = System::all()
        .iter()
        .map(|s| (s.label().to_string(), s.spec()))
        .collect();
    let mut colored = System::Base.spec();
    colored.page_coloring = true;
    specs.push(("Base+color".into(), colored));
    let mut colored_top = System::BCPref.spec();
    colored_top.page_coloring = true;
    specs.push(("BCPref+color".into(), colored_top));

    for (label, spec) in specs {
        let analyzed = analyze_cell_chunked(&ct, spec);
        let (fused, _) =
            prepare_from_analysis(&ct, &analyzed, spec, geometry, AuditLevel::Off).unwrap();
        let (oracle, oracle_pages) = prepare_compat(&t, spec, geometry);
        let what = format!("{workload:?}/{label}");
        assert_eq!(
            fused.update_pages, oracle_pages,
            "{what}: update pages differ"
        );
        let fused = fused.trace.map(|p| FlatTrace::decode(&p));
        assert_traces_equal(
            fused.as_ref().unwrap_or(&t),
            oracle.as_ref().unwrap_or(&t),
            &what,
        );
    }
}

#[test]
fn fused_prepare_matches_pass_by_pass_oracle_trfd() {
    check_workload(Workload::Trfd4, 11);
}

#[test]
fn fused_prepare_matches_pass_by_pass_oracle_shell() {
    check_workload(Workload::Shell, 12);
}

#[test]
fn fused_prepare_matches_pass_by_pass_oracle_fsck() {
    check_workload(Workload::Arc2dFsck, 13);
}

/// The three geometries of the matrix: the paper's default, the wide
/// line from the figure-7 sweep, and a small L1D that forces heavy
/// conflict traffic through the replacement path.
fn geometries() -> [Geometry; 3] {
    [
        Geometry::default(),
        Geometry {
            l1_line: 64,
            l2_line: 64,
            ..Geometry::default()
        },
        Geometry {
            l1d_size: 8 * 1024,
            ..Geometry::default()
        },
    ]
}

/// The full ladder × workload × geometry matrix end to end: the
/// oracle-prepared trace, chunked and replayed on the generic machine
/// loop, must give bitwise the statistics the production pipeline
/// (analysis, fused rewrite, profiling replay, hot-spot merge, specialized
/// final run) gives for every cell.
#[test]
fn ladder_matrix_matches_compat_prepared_generic_replay() {
    let opts = BuildOptions {
        scale: 0.03,
        ..BuildOptions::default()
    };
    for w in Workload::all() {
        let ct = build(w, opts);
        let t = FlatTrace::decode(&ct);
        for sys in System::all() {
            let spec = sys.spec();
            for (gi, geometry) in geometries().into_iter().enumerate() {
                let what = format!("{}/{}/geom{}", w.name(), sys.label(), gi);
                let production = try_run_spec_audited(&ct, spec, geometry, AuditLevel::Off)
                    .unwrap_or_else(|e| panic!("{what} (production): {e}"));
                let (prepared, update_pages) = prepare_compat(&t, spec, geometry);
                let prepared = prepared
                    .as_ref()
                    .map_or_else(|| ct.clone(), FlatTrace::encode);
                let mut cfg = geometry.machine_config(&spec);
                cfg.n_cpus = t.n_cpus();
                cfg.update_pages = update_pages;
                let oracle = Machine::new(cfg, &prepared)
                    .and_then(Machine::run_generic)
                    .unwrap_or_else(|e| panic!("{what} (oracle): {e}"));
                assert_eq!(production.stats, oracle, "{what}: statistics diverge");
            }
        }
    }
}
