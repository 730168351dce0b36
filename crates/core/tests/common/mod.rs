//! Test support shared by the oracle harnesses.

#![allow(dead_code)] // each test crate uses its own subset

pub mod compat;

use oscache_trace::{ChunkedStream, ChunkedTrace, Event, TraceMeta, CHUNK_EVENTS};

/// A decoded trace: the metadata plus one event vector per CPU. The
/// pass-by-pass oracle in [`compat`] rewrites this flat form, one whole
/// trace per pass, which is exactly the cost the production pipeline
/// avoids.
#[derive(Clone, Debug)]
pub struct FlatTrace {
    /// Workload metadata, shared with the chunked trace it came from.
    pub meta: TraceMeta,
    /// Per-CPU event streams.
    pub streams: Vec<Vec<Event>>,
}

impl FlatTrace {
    /// Decodes every stream of `t`.
    pub fn decode(t: &ChunkedTrace) -> Self {
        FlatTrace {
            meta: t.meta.clone(),
            streams: t.streams.iter().map(|s| s.iter().collect()).collect(),
        }
    }

    /// Encodes back into chunks of the default capacity.
    pub fn encode(&self) -> ChunkedTrace {
        ChunkedTrace {
            streams: self
                .streams
                .iter()
                .map(|s| ChunkedStream::from_events(s.iter().copied(), CHUNK_EVENTS))
                .collect(),
            meta: self.meta.clone(),
        }
    }

    /// Number of processors.
    pub fn n_cpus(&self) -> usize {
        self.streams.len()
    }
}

/// Asserts two traces are event-for-event identical.
pub fn assert_traces_equal(a: &FlatTrace, b: &FlatTrace, what: &str) {
    assert_eq!(a.n_cpus(), b.n_cpus(), "{what}: cpu count differs");
    for (cpu, (sa, sb)) in a.streams.iter().zip(&b.streams).enumerate() {
        assert_eq!(
            sa.len(),
            sb.len(),
            "{what}: cpu {cpu} stream length {} vs {}",
            sa.len(),
            sb.len()
        );
        for (i, (ea, eb)) in sa.iter().zip(sb).enumerate() {
            assert_eq!(ea, eb, "{what}: cpu {cpu} event {i} differs");
        }
    }
}

/// Runs a streaming rewrite over `t` and decodes the result, so it can be
/// compared with the flat oracle.
pub fn through_chunks(
    t: &FlatTrace,
    rewrite: impl FnOnce(&ChunkedTrace) -> ChunkedTrace,
) -> FlatTrace {
    FlatTrace::decode(&rewrite(&t.encode()))
}
