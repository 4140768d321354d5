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
//! ([`Web100Vars`]) and the [`Timelines`] a flow report carries: when each
//! send-stall and congestion signal fired, and the cwnd and acked-bytes
//! series. The host's IFQ depth is not recorded here; the world samples
//! the one sending host the report describes.

#![warn(missing_docs)]

pub mod instrument;
mod series;
pub mod vars;

pub use instrument::{InstrumentBlock, Timelines};
pub use vars::{CongestionKind, SndLimState, Web100Vars};
