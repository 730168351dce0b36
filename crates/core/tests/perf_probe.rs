//! Ad-hoc timing probe (ignored by default): attributes prepare-phase time
//! to individual passes. Run with:
//! `cargo test --release -p oscache-core --test perf_probe -- --ignored --nocapture`

use oscache_core::{analysis, transform, Geometry, System};
use oscache_memsys::{AuditLevel, Machine};
use oscache_workloads::{build, BuildOptions, Workload};
use std::time::Instant;

#[test]
#[ignore]
fn attribute_prepare_time() {
    let scale = std::env::var("PROBE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let t0 = Instant::now();
    let t = build(
        Workload::Trfd4,
        BuildOptions {
            scale,
            seed: 1,
            ..Default::default()
        },
    );
    let events: usize = t.streams.iter().map(|s| s.len()).sum();
    println!("build: {:?} ({events} events)", t0.elapsed());

    let spec = System::BCPref.spec();
    let geometry = Geometry::default();

    let t0 = Instant::now();
    let profile = analysis::profile_sharing(&t);
    println!("profile_sharing: {:?}", t0.elapsed());

    let t0 = Instant::now();
    let privatized = analysis::find_privatizable(&profile);
    println!("find_privatizable: {:?}", t0.elapsed());

    let t0 = Instant::now();
    let set = analysis::find_update_set(&profile, &privatized);
    let (mut plan, _pages) = transform::update_page_plan_meta(&t.meta, &set);
    println!(
        "update_page_plan: {:?} ({} ranges)",
        t0.elapsed(),
        plan.len()
    );

    let t0 = Instant::now();
    let mut placed = std::collections::HashSet::new();
    for w in set.all_words() {
        if let Some(v) = t.meta.var_at(w) {
            placed.insert(v.addr.0);
        } else {
            placed.insert(w.0);
        }
    }
    let fs = transform::false_sharing_plan_meta(&t.meta, &placed);
    for v in &t.meta.vars {
        if v.false_shared_group.is_some()
            && !placed.contains(&v.addr.0)
            && plan.lookup(v.addr).is_none()
        {
            if let Some(new) = fs.lookup(v.addr) {
                plan.add(v.addr, v.size, new);
            }
        }
    }
    plan.finish();
    println!("merge plans: {:?} ({} ranges)", t0.elapsed(), plan.len());

    let t0 = Instant::now();
    let t2 = transform::TransformPipeline::new()
        .privatize(&privatized)
        .run(&t);
    println!("privatize_counters: {:?}", t0.elapsed());

    let t0 = Instant::now();
    let t3 = transform::TransformPipeline::new().relocate(&plan).run(&t2);
    println!("relocate: {:?}", t0.elapsed());

    let t0 = Instant::now();
    let mut cfg = geometry.machine_config(&spec);
    cfg.n_cpus = t.n_cpus();
    cfg.audit = AuditLevel::Off;
    let stats = Machine::new(cfg, &t3).unwrap().run().unwrap();
    println!("profiling sim: {:?}", t0.elapsed());

    let t0 = Instant::now();
    let hot = analysis::find_hot_spots(&stats.total(), &t3.meta.code);
    let t4 = transform::HotspotPlan::build_chunked(&t3).materialize_chunked(&t3, &hot);
    println!("hotspot insert: {:?}", t0.elapsed());

    let n: usize = t4.streams.iter().map(|s| s.len()).sum();
    println!("final events: {n}");
}
