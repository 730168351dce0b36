//! Validate-once guarantees of the streaming pipeline (DESIGN.md §12.2).
//!
//! Every immutable trace is walked by the validator once per process: an
//! analysis's working trace lazily on first use, each hot-spot rewrite at
//! materialization. These tests pin the three things that must survive
//! the memo:
//!
//! * a malformed base trace still fails *every* cell that replays it with
//!   the same typed error (exit 3 in the CLI), including cells prepared
//!   after the first failure, serially and from concurrent workers;
//! * a real experiment walks each distinct working trace exactly once,
//!   observed through [`TraceCache::validation_walks`];
//! * concurrent preparers that rank the same hot set both receive the
//!   single published rewrite, which was validated before publication.

use oscache_core::experiments::figure6_sweep;
use oscache_core::runner::{run_cells, TraceCache};
use oscache_core::{
    analyze_cell_chunked, prepare_from_analysis, run_prepared, try_run_spec_audited,
    AnalysisPrefix, Experiment, Geometry, System, SystemSpec,
};
use oscache_memsys::{AuditLevel, SimError};
use oscache_trace::{ChunkedStream, ChunkedTrace, Event, CHUNK_EVENTS};
use oscache_workloads::{build, BuildOptions, Workload};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

const SCALE: f64 = 0.02;

fn opts() -> BuildOptions {
    BuildOptions {
        scale: SCALE,
        ..Default::default()
    }
}

/// A TRFD_4 base trace with one unmatched `BlockOpEnd` appended to CPU 1.
fn corrupt_base() -> ChunkedTrace {
    let mut t = build(Workload::Trfd4, opts());
    let events = t.streams[1].iter().chain([Event::BlockOpEnd]);
    t.streams[1] = ChunkedStream::from_events(events, CHUNK_EVENTS);
    t
}

/// The cells replaying the corrupt base: two block-op systems plus a
/// hot-spot variant (whose profiling replay must also be refused), each
/// at every Figure 6 geometry. All share the all-false analysis prefix.
fn corrupt_cells() -> Vec<(SystemSpec, Geometry)> {
    let mut hot_dma = System::BlkDma.spec();
    hot_dma.hotspot_prefetch = true;
    let specs = [System::Base.spec(), System::BlkDma.spec(), hot_dma];
    figure6_sweep()
        .into_iter()
        .flat_map(|(_, g)| specs.iter().map(move |&s| (s, g)))
        .collect()
}

#[test]
fn corrupt_base_fails_every_cell_with_the_same_typed_error() {
    let base = corrupt_base();
    let expected = SimError::from(
        base.validate_for_cpus(base.n_cpus())
            .expect_err("the appended BlockOpEnd must be rejected"),
    );
    assert!(expected.is_trace_error());
    let cells = corrupt_cells();
    let prefix = AnalysisPrefix::of(cells[0].0);
    assert!(cells.iter().all(|(s, _)| AnalysisPrefix::of(*s) == prefix));

    for jobs in [1, 2] {
        let analyzed = analyze_cell_chunked(&base, cells[0].0);
        assert!(
            analyzed.trace.is_none(),
            "the all-false prefix rewrites nothing"
        );
        let next = AtomicUsize::new(0);
        let errors = Mutex::new(vec![None; cells.len()]);
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(spec, geometry)) = cells.get(i) else {
                        break;
                    };
                    let got =
                        prepare_from_analysis(&base, &analyzed, spec, geometry, AuditLevel::Off);
                    errors.lock().unwrap()[i] = Some(got.err());
                });
            }
        });
        for (i, got) in errors.into_inner().unwrap().into_iter().enumerate() {
            assert_eq!(
                got.flatten().as_ref(),
                Some(&expected),
                "jobs={jobs}: cell {i} ({:?}) did not fail with the base trace's error",
                cells[i]
            );
        }
        assert_eq!(
            analyzed.validation_walks(),
            1,
            "jobs={jobs}: the corrupt trace must be walked once and the error memoized"
        );
    }
}

#[test]
fn fig6_walks_each_distinct_working_trace_once() {
    let cells = Experiment::Fig6.cells();
    let cache = TraceCache::new();
    let report = run_cells(&cache, opts(), &cells, 1).expect("fig6 runs");

    // One walk per analysis working trace (the base trace for the shared
    // all-false prefix of Base and Blk_Dma), plus one per rewrite. At one
    // job each BCPref cell materializes its own rewrite: rewrites are held
    // weakly and die with the cell that used them.
    let analyses: HashSet<_> = cells
        .iter()
        .map(|c| (c.workload, AnalysisPrefix::of(c.spec)))
        .collect();
    let rewrites = cells.iter().filter(|c| c.spec.hotspot_prefetch).count();
    assert_eq!(cache.analyzed_len(), analyses.len());
    assert_eq!(
        cache.validation_walks(),
        (analyses.len() + rewrites) as u64,
        "{} cells over {} analyses and {rewrites} rewrites",
        cells.len(),
        analyses.len()
    );

    // Only the first preparer of each analysis pays for its walk (in
    // dispatch order; outcomes come back in cell order).
    let mut outcomes: Vec<_> = report.outcomes.iter().collect();
    outcomes.sort_by_key(|o| o.sched_order);
    let mut walked = HashSet::new();
    for o in outcomes.iter().filter(|o| !o.cell.spec.hotspot_prefetch) {
        let first = walked.insert((o.cell.workload, AnalysisPrefix::of(o.cell.spec)));
        assert_eq!(
            o.phases.validate_ms > 0.0,
            first,
            "{}: validate_ms {}",
            o.cell.key(),
            o.phases.validate_ms
        );
    }
}

#[test]
fn concurrent_preparers_share_one_validated_rewrite() {
    let base = build(Workload::Trfd4, opts());
    let spec = System::BCPref.spec();
    let geometry = Geometry::default();
    let analyzed = analyze_cell_chunked(&base, spec);
    let barrier = Barrier::new(2);
    let prepared: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    prepare_from_analysis(&base, &analyzed, spec, geometry, AuditLevel::Off)
                        .expect("prepare")
                        .0
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let (a, b) = (prepared[0].trace.as_ref(), prepared[1].trace.as_ref());
    let rewrite = a.expect("BCPref inserts prefetches");
    assert!(
        Arc::ptr_eq(rewrite, b.expect("BCPref inserts prefetches")),
        "first live writer wins: both preparers must hold the published rewrite"
    );
    assert_eq!(rewrite.validate_for_cpus(base.n_cpus()), Ok(()));
    // The working trace once, plus one rewrite walk per preparer that
    // materialized before seeing the other's publication.
    let walks = analyzed.validation_walks();
    assert!((2..=3).contains(&walks), "{walks} validation walks");

    let serial = try_run_spec_audited(&base, spec, geometry, AuditLevel::Off).expect("serial run");
    for p in &prepared {
        let run = run_prepared(&base, p, spec, geometry, AuditLevel::Off).expect("run");
        assert_eq!(run.stats, serial.stats);
    }
}

#[test]
fn audited_preparation_reuses_the_memo() {
    let base = build(Workload::Trfd4, opts());
    let spec = System::BCPref.spec();
    let analyzed = analyze_cell_chunked(&base, spec);
    let geometry = Geometry::default();
    let (off, _) =
        prepare_from_analysis(&base, &analyzed, spec, geometry, AuditLevel::Off).unwrap();
    let walks = analyzed.validation_walks();
    drop(off);
    let (strict, phases) =
        prepare_from_analysis(&base, &analyzed, spec, geometry, AuditLevel::Strict).unwrap();
    // The working trace is not walked again; only the re-materialized
    // rewrite (the first one died with `off`) is.
    assert_eq!(analyzed.validation_walks(), walks + 1);
    assert!(phases.validate_ms > 0.0);
    let audited =
        run_prepared(&base, &strict, spec, geometry, AuditLevel::Strict).expect("strict run");
    let plain = try_run_spec_audited(&base, spec, geometry, AuditLevel::Off).unwrap();
    assert_eq!(audited.stats, plain.stats);
}
