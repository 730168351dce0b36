//! Test support shared by the oracle harnesses.

#![allow(dead_code)] // each test crate uses its own subset

pub mod compat;

use oscache_trace::{ChunkedTrace, Trace};

/// Asserts two traces are event-for-event identical.
pub fn assert_traces_equal(a: &Trace, b: &Trace, what: &str) {
    assert_eq!(a.n_cpus(), b.n_cpus(), "{what}: cpu count differs");
    for (cpu, (sa, sb)) in a.streams.iter().zip(&b.streams).enumerate() {
        assert_eq!(
            sa.len(),
            sb.len(),
            "{what}: cpu {cpu} stream length {} vs {}",
            sa.len(),
            sb.len()
        );
        for (i, (ea, eb)) in sa.events().iter().zip(sb.events()).enumerate() {
            assert_eq!(ea, eb, "{what}: cpu {cpu} event {i} differs");
        }
    }
}

/// Runs a streaming rewrite over `t` and decodes the result, so it can be
/// compared with the materialized oracle.
pub fn through_chunks(t: &Trace, rewrite: impl FnOnce(&ChunkedTrace) -> ChunkedTrace) -> Trace {
    rewrite(&ChunkedTrace::from_trace(t)).to_trace()
}
