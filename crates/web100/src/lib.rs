//! # rss-web100 — Web100-style per-connection instrumentation
//!
//! The paper reads its entire evaluation out of Web100, the kernel instrument
//! set that exposes internal TCP state as per-connection variables ("We use
//! web100 to get detailed statistics of the TCP state information", §4).
//! Figure 1 is literally a plot of one Web100 counter — the cumulative
//! send-stall signal count — over time.
//!
//! This crate reproduces that observability layer for the simulated stack:
//! an [`InstrumentBlock`] per connection with TCP-KIS-named counters
//! ([`Web100Vars`]) and the [`Timelines`] a flow report is built from:
//! when each congestion signal fired and whether it was a send-stall, and
//! the cwnd and acked-bytes series, all behind one pointer. The series take
//! a sample per ACK, so they are [`Series`]: each `(SimTime, u64)` sample
//! packed as two varint steps (about 5 bytes where an `(f64, f64)` pair took
//! 16), and a step that repeats the one before as one more in a run, read
//! back as the same `(t_s, value)` floats. Their JSON writes each run as one
//! `[t_s, v, n, dt_s, dv]` element beside `[t_s, v]` samples, so rendering
//! and parsing cost what the runs hold, not what the samples number. The
//! signal times are nanosecond steps too, read back as
//! [`rss_sim::SimTime`]s for the report to widen to seconds. The host's IFQ
//! depth is not recorded here; the world samples the one sending host the
//! report describes.
//!
//! The block is every fact about a flow that only its report reads, and
//! the sender feeds it one call per sender event:
//!
//! * [`InstrumentBlock::on_data_sent`] — a segment left the stack;
//! * [`InstrumentBlock::on_ack_in`] — an ACK arrived (new bytes, the
//!   advertised window; it also ends an open RTO episode);
//! * [`InstrumentBlock::on_rtt`] — an RTT sample and the estimator after it;
//! * [`InstrumentBlock::on_signal`] — the controller was called: the
//!   congestion signal it heard, if any, and its cwnd, ssthresh and phase;
//! * [`InstrumentBlock::on_rto`] — a retransmission timeout fired, with the
//!   backoff shift it reached;
//! * [`InstrumentBlock::on_snd_lim`] — what limits the sender after a pump;
//! * [`InstrumentBlock::finish`] — the run ended.
//!
//! It keeps its own copies of the gauges it reports, so the sender holds
//! only control state.

#![warn(missing_docs)]

pub mod instrument;
mod series;
pub mod vars;

pub use instrument::{InstrumentBlock, Timelines};
pub use series::{Samples, Series};
pub use vars::{CongestionKind, SndLimState, Web100Vars};
