//! # risgraph-testkit — shared test support
//!
//! The integration suites under `tests/` and the bench harnesses in
//! `crates/bench` used to each carry their own copies of the same three
//! ingredients: a live-edge-multiset oracle, random update-stream
//! generators, and engine/server construction boilerplate. This crate
//! is the single home for all of them, plus the cross-shard
//! *differential harness* that proves the sharded epoch loop
//! (`ServerConfig::shards`) equivalent to a single serial coordinator.
//!
//! Layout:
//!
//! * [`oracle`] — live edge-multiset maintenance and comparison against
//!   the from-scratch reference recomputation;
//! * [`streams`] — deterministic random update streams: generic churn,
//!   per-session *disjoint-region* workloads (every session owns a
//!   vertex range, so results and classifications are deterministic
//!   regardless of cross-session interleaving — the property the
//!   sharded/serial differential rests on), and safe-only churn for
//!   safe-phase throughput measurement;
//! * [`builders`] — engine/server construction over any
//!   [`risgraph_storage::BackendKind`], loopback network servers,
//!   temp-path management;
//! * [`differential`] — drive identical per-session streams through two
//!   servers — in-process sessions ([`drive_sessions`]) or TCP clients
//!   ([`drive_net_sessions`]) — and assert equivalent replies, history,
//!   values and store contents;
//! * [`faults`] — a fault-injecting TCP proxy for the replication
//!   stream: deterministic drop/delay/duplicate/corrupt/truncate/kill
//!   schedules with a healing cap, so follower convergence under
//!   faults is a checkable property.

pub mod builders;
pub mod differential;
pub mod faults;
pub mod oracle;
pub mod streams;

pub use builders::{
    engine_on, loopback_net_server, loopback_net_server_with, ooc_mmap_backend, remove_ooc_files,
    remove_wal, server_config, temp_path,
};
pub use differential::{
    assert_servers_equivalent, drive_net_sessions, drive_sessions, drive_sessions_pipelined,
    raw_store_fingerprint, store_fingerprint, SessionTrace, StepTrace,
};
pub use faults::{FaultPlan, FaultyProxy, ProxyStats};
pub use oracle::{apply_update, assert_engine_matches, oracle_values, LiveEdge};
pub use streams::{
    disjoint_session_streams, hub_conflict_streams, partitioned_safe_inserts, random_stream,
    resolve_step, safe_churn, unsafe_chain_preload, unsafe_chain_streams,
    unsafe_chain_streams_with_build, HubConflictConfig, RegionStreamConfig, Step,
    UnsafeChainConfig,
};
