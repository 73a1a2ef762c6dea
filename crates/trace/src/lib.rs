//! # brepl-trace — compact branch traces
//!
//! The paper's profiling tool writes each executed conditional branch as a
//! `(branch number, direction)` record and notes that "in compressed form a
//! trace of 5 million branches occupies about 1 MB". This crate provides the
//! equivalent: an in-memory [`Trace`] of branch events, a compact binary
//! serialization (zig-zag varint site deltas plus a packed direction
//! bitstream), and per-site summary statistics. Both are [`EventSink`]s:
//! a run can record its events or only count them per site.
//!
//! ```
//! use brepl_trace::{Trace, TraceEvent};
//! use brepl_ir::BranchId;
//!
//! let mut t = Trace::new();
//! for i in 0..100u32 {
//!     t.push(TraceEvent { site: BranchId(0), taken: i % 2 == 0 });
//! }
//! let bytes = t.to_bytes();
//! let back = Trace::from_bytes(&bytes).unwrap();
//! assert_eq!(t, back);
//! let stats = t.stats();
//! assert_eq!(stats.total_events(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod fold;
mod packed;
mod sink;
mod stats;
mod trace;
mod window;

pub use fold::{Segment, SegmentFold, SiteStream};
pub use packed::{packed_site_streams, PackedStream};
pub use sink::EventSink;
pub use stats::{SiteCounts, TraceStats};
pub use trace::{Trace, TraceError, TraceEvent};
pub use window::windowed_counts;
