//! Shared primitives for the RisGraph reproduction.
//!
//! This crate contains the building blocks every other crate relies on:
//!
//! * [`ids`] — vertex / edge / version identifier types,
//! * [`error`] — the common error type,
//! * [`hash`] — a fast FxHash-style hasher (stand-in for the paper's
//!   MurmurHash3 + Google dense hashmap combination),
//! * [`sparse`] — sparse active-vertex sets and sparse change maps
//!   (§3.2 of the paper, Figure 5),
//! * [`bitmap`] — dense bitmaps used by pull-mode conversion and by the
//!   KickStarter-style baseline,
//! * [`stats`] — latency histograms (P50/P99/P999) and throughput meters
//!   used by the evaluation harness,
//! * [`crc`] — CRC32 used by the write-ahead log and the wire protocol,
//! * [`protocol`] — the CRC-framed binary wire protocol spoken by the
//!   TCP serving tier (`crates/net`),
//! * [`metrics`] — the unified observability layer: a lock-free
//!   registry of named counters/gauges/histograms and the
//!   epoch-pipeline tracer (per-phase span ring with slow-epoch
//!   flagging) behind the `METRICS` opcode and Prometheus exposition,
//! * [`stripe`] — per-thread cache-padded cells behind the registry's
//!   counters and histograms, so concurrent writers share no line.

pub mod bitmap;
pub mod crc;
pub mod error;
pub mod hash;
pub mod ids;
pub mod metrics;
pub mod protocol;
pub mod sparse;
pub mod stats;
pub mod stripe;

pub use error::{Error, Result};
pub use ids::{EdgeId, Timestamp, VersionId, VertexId, Weight};
