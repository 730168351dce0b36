//! # oscache-trace
//!
//! Reference-trace substrate for the `oscache` workspace: the event
//! vocabulary emitted by the synthetic operating-system workload generators
//! and consumed by the memory-system simulator.
//!
//! The design mirrors the methodology of Xia & Torrellas (HPCA 1996). Their
//! hardware performance monitor captured, for each processor of a 4-CPU
//! Alliant FX/8, every data reference plus *escape* references that encode
//! which basic block is executing, letting them attribute each data access to
//! the kernel data structure it touches. This crate models the same
//! information content:
//!
//! * [`Event`] — one trace entry: an executed basic block, a tagged data
//!   read/write, a synchronization operation, a block-operation bracket, a
//!   mode switch, or idle time.
//! * [`DataClass`] — the data-structure attribution the paper recovered from
//!   its basic-block instrumentation (§2.2).
//! * [`CodeLayout`] — basic blocks with instruction addresses, so the
//!   simulator can replay instruction fetches against the L1 I-cache.
//! * [`ChunkedTrace`] — one [`ChunkedStream`] per CPU plus the metadata
//!   (code layout, kernel variable map, kernel data ranges) the software
//!   optimization passes need. Streams are stored as compact,
//!   independently decodable chunks, so every consumer works from a
//!   decode window of one chunk rather than the whole event sequence.
//!
//! # Example
//!
//! ```
//! use oscache_trace::{Addr, ChunkedTrace, DataClass, Mode, StreamBuilder, TraceMeta};
//!
//! let mut b = StreamBuilder::new();
//! b.set_mode(Mode::Os);
//! b.read(Addr(0x0100_0000), DataClass::RunQueue);
//! b.write(Addr(0x0100_0040), DataClass::InfreqCounter);
//! let mut trace = ChunkedTrace::new(4, TraceMeta::default());
//! trace.streams[0] = b.finish();
//! assert_eq!(trace.total_events(), 3); // mode switch + read + write
//! assert!(trace.streams[0].iter().nth(1).unwrap().is_read());
//! assert_eq!(trace.validate(), Ok(()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
pub mod chunk;
mod class;
mod code;
mod event;
pub mod io;
mod meta;
pub mod rng;
pub mod spill;
mod stream;
mod validate;

pub use addr::{Addr, CpuId, LineAddr, PAGE_SIZE, WORD_SIZE};
pub use chunk::{ChunkedStream, ChunkedStreamBuilder, ChunkedTrace, CHUNK_EVENTS};
pub use class::{CoherenceCategory, DataClass};
pub use code::{BasicBlock, BlockId, CodeLayout, SiteId, SiteInfo};
pub use event::{BarrierId, BlockKind, BlockOp, Event, LockId, Mode};
pub use io::{read_trace, write_trace, ReadTraceError, MAX_DUMP_CPUS};
pub use meta::{KernelVar, TraceMeta, VarRole};
pub use spill::{
    IoFaultClass, IoFaultPlan, MemBudget, SpillError, SpillErrorKind, SpillStore, SpillTarget,
    StoreIdentity,
};
pub use stream::StreamBuilder;
pub use validate::TraceError;
