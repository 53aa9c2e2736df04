//! [`ReplicaServer`]: a read replica fed by a leader's replication
//! stream.
//!
//! The follower half of the WAL-shipping design
//! (`risgraph_core::replication`): a background thread connects to the
//! leader, sends `SUBSCRIBE` at the replica's applied-record watermark,
//! and applies every [`FeedRecord`](risgraph_common::protocol::FeedRecord)
//! through [`Replica::apply_record`] — catching up from index 0 first,
//! then following the live tail, with heartbeats carrying the leader's
//! version as the lag reference.
//!
//! **Fault tolerance is reconnection.** Any stream disruption — EOF,
//! a torn or CRC-corrupt frame, a record gap after dropped frames, a
//! read stall — tears the connection down and the follower resubscribes
//! at its watermark after a short backoff; duplicated records are
//! skipped idempotently by index. The fault-injection suite
//! (`risgraph_testkit::faults` + `tests/replication_differential.rs`)
//! drives exactly these paths and proves the replica still converges to
//! the leader's store fingerprint and version-exact query surface.
//!
//! Optionally the replica itself listens ([`FollowerConfig::listen`])
//! and serves the **read-only** Table 1 surface over the same wire
//! protocol, on the same reactor as the leader ([`NetServer`]):
//! `get_value` / `get_parent` / `get_modified_vertices` /
//! `get_current_version`, answered at the applied watermark by the
//! leader's own query function, plus `METRICS` reporting replication
//! lag. Sessions multiplex exactly as on the leader; updates,
//! transactions, releases and subscriptions are refused without
//! closing the connection.

use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use risgraph_common::ids::Update;
use risgraph_common::metrics::{Counter, Gauge, Registry};
use risgraph_common::protocol::{read_frame, write_frame, Request, Response, MAX_RESPONSE_FRAME};
use risgraph_common::{Error, Result};
use risgraph_core::engine::DynAlgorithm;
use risgraph_core::replication::Replica;
use risgraph_core::server::ServerConfig;

use crate::NetServer;

/// Follower-side tuning.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// The leader's address (`host:port`).
    pub leader: String,
    /// Serve the read-only query surface on this address (`None`
    /// disables the listener; `"127.0.0.1:0"` picks an ephemeral port).
    pub listen: Option<String>,
    /// Pause between reconnection attempts.
    pub reconnect_backoff: Duration,
    /// Stream read stall escape: with heartbeats far more frequent
    /// than this, a timeout means the leader is gone and reconnecting
    /// is the right response.
    pub read_timeout: Duration,
    /// Maximum accepted stream frame (records scale with epoch size,
    /// so followers accept response-sized frames).
    pub max_frame: usize,
}

impl FollowerConfig {
    /// Defaults for following `leader`.
    pub fn to_leader(leader: impl Into<String>) -> Self {
        FollowerConfig {
            leader: leader.into(),
            listen: None,
            reconnect_backoff: Duration::from_millis(50),
            read_timeout: Duration::from_secs(2),
            max_frame: MAX_RESPONSE_FRAME,
        }
    }
}

/// Follower counters, updated by the streaming thread. Every field is
/// a handle into the replica's metrics [`Registry`] (under
/// `replica.*` names), so the same cells answer the `METRICS`
/// snapshot.
#[derive(Debug, Default)]
pub struct FollowerStats {
    /// Feed records applied.
    pub records_applied: Arc<Counter>,
    /// Records skipped as already-applied duplicates (replayed frames
    /// after a reconnect, or a duplicating fault).
    pub duplicates_skipped: Arc<Counter>,
    /// Heartbeats received.
    pub heartbeats: Arc<Counter>,
    /// Successful connections (first connect included).
    pub connects: Arc<Counter>,
    /// Reconnections after a lost or corrupted stream.
    pub reconnects: Arc<Counter>,
    /// Protocol violations observed on the stream (torn/corrupt
    /// frames, record gaps, unexpected response shapes) — each one
    /// triggers a reconnect.
    pub stream_errors: Arc<Counter>,
    /// Subscribe rejections from the leader (follower limit,
    /// replication disabled).
    pub rejections: Arc<Counter>,
    /// Snapshot bootstraps installed (a fresh subscribe that found the
    /// feed's genesis evicted past a leader checkpoint).
    pub snapshot_bootstraps: Arc<Counter>,
    /// Self-resets to fresh state after the leader reported the
    /// subscribe offset evicted below the feed's retention floor
    /// (`FeedTruncated`) — each one is followed by a fresh subscribe
    /// that takes the snapshot bootstrap path, so the follower
    /// reconverges without manual intervention.
    pub feed_resets: Arc<Counter>,
}

impl FollowerStats {
    fn registered(registry: &Registry) -> Self {
        FollowerStats {
            records_applied: registry.counter("replica.records_applied"),
            duplicates_skipped: registry.counter("replica.duplicates_skipped"),
            heartbeats: registry.counter("replica.heartbeats"),
            connects: registry.counter("replica.connects"),
            reconnects: registry.counter("replica.reconnects"),
            stream_errors: registry.counter("replica.stream_errors"),
            rejections: registry.counter("replica.rejections"),
            snapshot_bootstraps: registry.counter("replica.snapshot_bootstraps"),
            feed_resets: registry.counter("replica.feed_resets"),
        }
    }
}

/// The `replica.lag` / `replica.version` gauges, stored by the follower
/// thread wherever the watermark moves.
struct Watermarks {
    lag: Arc<Gauge>,
    version: Arc<Gauge>,
}

impl Watermarks {
    fn publish(&self, replica: &Replica) {
        self.lag.store(replica.lag(), Ordering::Relaxed);
        self.version
            .store(replica.current_version(), Ordering::Relaxed);
    }
}

/// A read replica: the follower thread plus an optional read-only
/// wire-protocol listener. See the module docs.
pub struct ReplicaServer {
    replica: Arc<Replica>,
    stats: Arc<FollowerStats>,
    /// Replica-local metrics registry (`replica.*` names), served over
    /// the read-only listener's `METRICS` opcode.
    metrics: Arc<Registry>,
    stop: Arc<AtomicBool>,
    /// The live leader connection, kept so shutdown can unblock the
    /// follower thread's read immediately.
    current: Arc<Mutex<Option<TcpStream>>>,
    follower: Option<JoinHandle<()>>,
    /// The reactor serving the read-only surface, when listening.
    net: Option<NetServer>,
}

impl ReplicaServer {
    /// Start a replica of the leader at `net.leader`, maintaining
    /// `algorithms` over `config.backend`/`config.engine`, with
    /// `config.max_capacity` bounding on-demand growth exactly as on
    /// the leader (the other [`ServerConfig`] fields are leader-side
    /// and ignored). The
    /// follower thread starts immediately; catch-up progress is
    /// observable through [`ReplicaServer::lag`] and
    /// [`ReplicaServer::stats`].
    pub fn start(
        algorithms: Vec<DynAlgorithm>,
        capacity: usize,
        config: ServerConfig,
        net: FollowerConfig,
    ) -> Result<ReplicaServer> {
        let replica = Arc::new(Replica::new(
            algorithms,
            capacity,
            &config.backend,
            config.engine,
            config.max_capacity,
        )?);
        let metrics = Arc::new(Registry::new());
        let stats = Arc::new(FollowerStats::registered(&metrics));
        let watermarks = Watermarks {
            lag: metrics.gauge("replica.lag"),
            version: metrics.gauge("replica.version"),
        };
        let stop = Arc::new(AtomicBool::new(false));
        let current = Arc::new(Mutex::new(None));
        let listener = net
            .listen
            .clone()
            .map(|listen| {
                NetServer::serve_replica(Arc::clone(&replica), Arc::clone(&metrics), listen)
            })
            .transpose()?;

        let f_replica = Arc::clone(&replica);
        let f_stats = Arc::clone(&stats);
        let f_stop = Arc::clone(&stop);
        let f_current = Arc::clone(&current);
        let follower = std::thread::Builder::new()
            .name("risgraph-replica-follower".into())
            .spawn(move || follower_loop(f_replica, f_stats, watermarks, f_stop, f_current, net))
            .expect("spawn follower thread");

        Ok(ReplicaServer {
            replica,
            stats,
            metrics,
            stop,
            current,
            follower: Some(follower),
            net: listener,
        })
    }

    /// The replica state (queries, fingerprinting).
    pub fn replica(&self) -> &Replica {
        &self.replica
    }

    /// Follower counters.
    pub fn stats(&self) -> &FollowerStats {
        &self.stats
    }

    /// The replica-local metrics registry: the cells behind
    /// [`FollowerStats`], the `replica.lag`/`replica.version` watermark
    /// gauges (stored whenever the watermark moves) and, when
    /// listening, the reactor's `net.*` metrics.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// The read-only listener's bound address, when enabled.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.net.as_ref().map(NetServer::local_addr)
    }

    /// Replication lag in result versions (applied watermark behind
    /// the last leader version heard of).
    pub fn lag(&self) -> u64 {
        self.replica.lag()
    }

    /// Read-only query connections the reactor currently owns (a
    /// closed connection leaves the count on its close event).
    pub fn live_query_connections(&self) -> usize {
        self.net.as_ref().map_or(0, NetServer::live_connections)
    }

    /// Stop following and serving, and join every thread.
    pub fn shutdown(mut self) {
        self.do_shutdown();
    }

    fn do_shutdown(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the follower's stream read immediately.
        if let Some(stream) = self.current.lock().unwrap().take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.follower.take() {
            let _ = h.join();
        }
        if let Some(net) = self.net.take() {
            net.shutdown();
        }
    }
}

impl Drop for ReplicaServer {
    fn drop(&mut self) {
        self.do_shutdown();
    }
}

/// One follower session: connect, subscribe at the watermark, apply the
/// stream until it breaks, reconnect. See the module docs for the
/// fault-handling contract.
fn follower_loop(
    replica: Arc<Replica>,
    stats: Arc<FollowerStats>,
    watermarks: Watermarks,
    stop: Arc<AtomicBool>,
    current: Arc<Mutex<Option<TcpStream>>>,
    net: FollowerConfig,
) {
    let mut connected_before = false;
    while !stop.load(Ordering::Acquire) {
        let stream = match TcpStream::connect(&net.leader) {
            Ok(s) => s,
            Err(_) => {
                std::thread::sleep(net.reconnect_backoff);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(net.read_timeout));
        stats.connects.fetch_add(1, Ordering::Relaxed);
        if connected_before {
            stats.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        connected_before = true;
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        *current.lock().unwrap() = Some(registered);

        // Subscribe at the applied watermark: after any fault this is
        // exactly the first record still needed.
        let sub = Request::Subscribe {
            from: replica.applied_records(),
        }
        .encode(1);
        let mut w = &stream;
        if write_frame(&mut w, &sub).is_err() {
            *current.lock().unwrap() = None;
            std::thread::sleep(net.reconnect_backoff);
            continue;
        }

        let mut r = BufReader::new(&stream);
        let mut rejected = false;
        // Snapshot bootstrap staging: chunks accumulate here and only
        // touch the replica when the Done frame lands, so a disconnect
        // mid-bootstrap leaves the replica fresh and the retry clean.
        let mut snap_buf: Vec<Update> = Vec::new();
        loop {
            if stop.load(Ordering::Acquire) {
                return;
            }
            match read_frame(&mut r, net.max_frame) {
                Ok(Some(payload)) => match Response::decode(&payload) {
                    Ok((_, Response::WalEpoch(rec))) => match replica.apply_record(&rec) {
                        Ok(true) => {
                            stats.records_applied.fetch_add(1, Ordering::Relaxed);
                            watermarks.publish(&replica);
                        }
                        Ok(false) => {
                            stats.duplicates_skipped.fetch_add(1, Ordering::Relaxed);
                        }
                        // A record gap (frames were dropped): the
                        // stream is unusable, resubscribe from the
                        // watermark.
                        Err(_) => {
                            stats.stream_errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    },
                    Ok((_, Response::Heartbeat { records, version })) => {
                        replica.note_leader_version(version);
                        watermarks.publish(&replica);
                        stats.heartbeats.fetch_add(1, Ordering::Relaxed);
                        // Frames are ordered: every record the leader
                        // streamed before this heartbeat has been
                        // processed, so having applied fewer means
                        // frames were lost — a drop at the stream tail
                        // that no later record would ever expose.
                        // Resubscribe at the watermark.
                        if records > replica.applied_records() {
                            stats.stream_errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                    Ok((_, Response::SnapshotChunk(mut updates))) => {
                        snap_buf.append(&mut updates);
                    }
                    Ok((
                        _,
                        Response::SnapshotDone {
                            resume_index,
                            resume_version,
                        },
                    )) => match replica.install_snapshot(&snap_buf, resume_index, resume_version) {
                        Ok(()) => {
                            snap_buf = Vec::new();
                            stats.snapshot_bootstraps.fetch_add(1, Ordering::Relaxed);
                            watermarks.publish(&replica);
                        }
                        // Installing on a non-fresh replica (or past
                        // the capacity ceiling) is a stream fault.
                        Err(_) => {
                            stats.stream_errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    },
                    Ok((_, Response::Failed { error, .. })) => {
                        stats.rejections.fetch_add(1, Ordering::Relaxed);
                        if let Error::FeedTruncated { .. } = error.to_error() {
                            // The feed's retention floor passed our
                            // watermark while we were disconnected:
                            // nothing below it will ever be streamed
                            // again, and re-subscribing at the same
                            // offset would be refused forever (the old
                            // wedge-until-restart bug). Reset to fresh
                            // and re-subscribe at 0 — the next connect
                            // takes the snapshot bootstrap path.
                            match replica.reset() {
                                Ok(()) => {
                                    stats.feed_resets.fetch_add(1, Ordering::Relaxed);
                                    watermarks.publish(&replica);
                                    // Not a policy refusal: retry on
                                    // the fast cadence, the fresh
                                    // subscribe will be served.
                                }
                                Err(_) => {
                                    // A partial reset is retried on
                                    // the next FeedTruncated refusal
                                    // (reset is restartable).
                                    stats.stream_errors.fetch_add(1, Ordering::Relaxed);
                                    rejected = true;
                                }
                            }
                        } else {
                            // The leader refused the subscription
                            // (slots full, replication disabled). Keep
                            // retrying on a long backoff — a slot may
                            // free up — but count it.
                            rejected = true;
                        }
                        break;
                    }
                    Ok(_) => {
                        stats.stream_errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Err(_) => {
                        stats.stream_errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                },
                // Clean EOF: leader closed (drain, restart) — reconnect.
                Ok(None) => break,
                Err(e) => {
                    // Torn/corrupt framing is a stream fault; a read
                    // timeout (surfacing as I/O, mapped to Error::Wal)
                    // is a stalled leader — both mean reconnect, only
                    // the former counts as a protocol error.
                    if matches!(e, Error::Protocol(_)) && !stop.load(Ordering::Acquire) {
                        stats.stream_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
            }
        }
        *current.lock().unwrap() = None;
        let _ = stream.shutdown(Shutdown::Both);
        if !stop.load(Ordering::Acquire) {
            // A refusal is policy, not a glitch: retry on a much
            // longer cadence so a slotless follower does not hammer
            // the leader with ~20 connection setups per second.
            std::thread::sleep(if rejected {
                net.reconnect_backoff * 20
            } else {
                net.reconnect_backoff
            });
        }
    }
}
