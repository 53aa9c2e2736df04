//! # risgraph-core — the RisGraph engine
//!
//! A from-scratch Rust reproduction of the RisGraph system (SIGMOD'21):
//! real-time per-update incremental analysis of monotonic algorithms on
//! evolving graphs, with **localized data access** (§3) and
//! **inter-update parallelism** (§4).
//!
//! Layering (bottom-up, mirroring Figure 1):
//!
//! * [`tree`] — the tree & value store: per-vertex results + parent
//!   pointers of the dependency forest;
//! * [`pool`] — a persistent fork-join worker pool;
//! * [`classifier`] + [`push`] — Hybrid Parallel Mode push propagation;
//! * [`engine`] — the localized execution engine: incremental
//!   insert/delete repair plus the safe/unsafe concurrency-control
//!   classification;
//! * [`history`] — versioned result snapshots with release-based GC;
//! * [`wal`] — optional durability via group-committed write-ahead logs;
//! * [`replication`] — leader→follower shipping of the merged,
//!   stamp-sorted epoch records: the leader-side feed and the
//!   follower-side replica apply path;
//! * [`scheduler`] — the tail-latency epoch-size controller;
//! * [`server`] — the interactive tier: sessions, the epoch loop schema,
//!   transactions, multi-algorithm maintenance.
//!
//! ## Quick start
//!
//! ```
//! use risgraph_core::engine::Engine;
//! use risgraph_algorithms::Bfs;
//! use risgraph_common::ids::{Edge, Update};
//!
//! let engine: Engine = Engine::with_algorithm(Bfs::new(0), 1024);
//! engine.load_edges(&[(0, 1, 0), (1, 2, 0)]);
//! assert_eq!(engine.value(0, 2), 2);
//!
//! // A per-update incremental insertion:
//! engine.apply(&Update::InsEdge(Edge::new(0, 2, 0))).unwrap();
//! assert_eq!(engine.value(0, 2), 1);
//! ```

pub mod affected;
pub mod classifier;
pub mod engine;
pub mod history;
mod injector;
pub mod pool;
pub mod push;
pub mod replication;
pub mod scheduler;
pub mod server;
pub mod tree;
pub mod wal;

pub use affected::{
    analyze as analyze_affected_area, footprint as affected_footprint, AffectedAreaReport,
};
pub use classifier::{LinearClassifier, PushMode};
pub use engine::{ChangeRecord, ChangeSet, DynAlgorithm, Engine, EngineConfig, SafeApply, Safety};
pub use history::HistoryStore;
pub use replication::{Replica, ReplicationFeed};
pub use scheduler::{Scheduler, SchedulerConfig};
pub use server::{Applied, Op, Reply, Server, ServerConfig, Session};
pub use tree::{TreeStore, Value, VertexState};
