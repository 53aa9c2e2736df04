//! Support code of the `bench` runner.
//!
//! * [`inputs`] — seeded graph and update-stream generation;
//! * [`loadgen`] — the client shapes (closed, open, multiplexed,
//!   in-process, reader), counting outcomes instead of panicking;
//! * [`samples`] — exact per-slice sample buffers and the statistics;
//! * [`workloads`] — the seven workloads and the code that runs one;
//! * [`verify`] — final results against a full recompute;
//! * [`layers`], [`counters`], [`spans`] — the traced run: the layer
//!   harness, the program's own counters, the span buffer;
//! * [`report`] — output lines, result files, `compare`;
//! * [`json`] — the file format.

pub mod counters;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod loadgen;
pub mod report;
pub mod samples;
pub mod spans;
pub mod verify;
pub mod workloads;
