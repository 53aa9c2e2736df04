//! The gather stage's session table: one queue per session plus the two
//! lists that keep a pass proportional to what arrived, not to how many
//! sessions are open.
//!
//! The condition the fields keep among them: **a session whose queue is
//! not empty is on `examine` or on `carry`.** A pass drains every queue
//! it examines down to empty or to its first unsafe update, so after a
//! pass the only non-empty queues belong to sessions blocked behind that
//! unsafe update — put on `carry` when they blocked — or, after the safe
//! phase, to sessions a demotion stopped — put on `carry` by
//! [`Gather::requeue`]. `carry` becomes the next epoch's first `examine`.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use risgraph_common::hash::FxHashMap;

use super::{send_reply, Envelope, EpochBuf, Op, Reply, Shared};
use crate::engine::Safety;

#[derive(Default)]
struct SessionQueue {
    queue: VecDeque<Envelope>,
    /// The epoch in which this session's front was found unsafe:
    /// everything behind it is next-epoch (§4, Figure 9).
    blocked_in: u64,
}

#[derive(Default)]
pub(super) struct Gather {
    pending: FxHashMap<u64, SessionQueue>,
    /// Sessions to look at in this pass.
    examine: Vec<u64>,
    /// Sessions to look at in the next epoch's first pass.
    carry: Vec<u64>,
    /// Epochs begun; 0 (a fresh queue's `blocked_in`) is never current.
    epoch: u64,
}

impl Gather {
    /// Start an epoch: nobody is blocked any more, and its first pass
    /// examines everyone carried over.
    pub(super) fn begin_epoch(&mut self) {
        debug_assert!(self.examine.is_empty());
        self.epoch += 1;
        std::mem::swap(&mut self.examine, &mut self.carry);
    }

    /// Queue one arrival behind its session's earlier ones.
    pub(super) fn receive(&mut self, env: Envelope) {
        let sid = env.session;
        let session = self.pending.entry(sid).or_default();
        if session.queue.is_empty() {
            // Otherwise it is listed already (the condition above).
            self.examine.push(sid);
        }
        session.queue.push_back(env);
    }

    /// One pass: classify the queue prefix of every session on
    /// `examine` into `buf`, stopping a session at its first unsafe
    /// update.
    pub(super) fn classify(&mut self, shared: &Shared, buf: &mut EpochBuf) {
        if self.examine.is_empty() {
            return;
        }
        shared
            .stats
            .sessions_examined
            .fetch_add(self.examine.len() as u64, Ordering::Relaxed);
        let parts = buf.safe_parts.len() as u64;
        for sid in self.examine.drain(..) {
            // A carried session may have been forgotten on a GC tick
            // (its queue was empty) — then there is nothing to look at.
            let Some(session) = self.pending.get_mut(&sid) else {
                continue;
            };
            if session.blocked_in == self.epoch {
                continue;
            }
            while let Some(front) = session.queue.front() {
                // Reject instead of growing past the ceiling: a wire
                // client can name any vertex id, and unbounded growth is
                // a coordinator-killing allocation.
                if let Err(e) = shared.versioned.grow_for(front.op.updates()) {
                    let env = session.queue.pop_front().unwrap();
                    send_reply(
                        shared,
                        &env,
                        Reply {
                            version: shared.versioned.current_version(),
                            outcome: Err(e),
                        },
                    );
                    continue;
                }
                let engine = shared.versioned.engine();
                let safety = match &front.op {
                    Op::Single(u) => engine.classify(u),
                    Op::Txn(us) => engine.classify_txn(us),
                };
                let env = session.queue.pop_front().unwrap();
                match safety {
                    Safety::Safe => {
                        buf.safe_parts[(sid % parts) as usize].push(env);
                        buf.safe_count += 1;
                    }
                    Safety::Unsafe => {
                        buf.unsafe_queue.push_back(env);
                        session.blocked_in = self.epoch;
                        self.carry.push(sid);
                        break;
                    }
                }
            }
        }
    }

    /// Put what the safe phase handed back — demoted updates and what
    /// was gathered behind them, in submission order — at the front of
    /// their queues, and carry the `stopped` sessions they belong to.
    ///
    /// A stopped session may also have its first unsafe update on
    /// `unsafe_queue` (at most one: a pass stops a session there). It
    /// was submitted after the leftovers, so it is taken back off and
    /// queued behind them rather than run and answered in this epoch.
    pub(super) fn requeue(
        &mut self,
        leftovers: Vec<Envelope>,
        stopped: Vec<u64>,
        unsafe_queue: &mut VecDeque<Envelope>,
    ) {
        if stopped.is_empty() {
            return;
        }
        // One pass that keeps the rest of the queue in arrival order.
        for _ in 0..unsafe_queue.len() {
            let env = unsafe_queue.pop_front().expect("counted");
            if stopped.contains(&env.session) {
                self.pending
                    .entry(env.session)
                    .or_default()
                    .queue
                    .push_front(env);
            } else {
                unsafe_queue.push_back(env);
            }
        }
        for env in leftovers.into_iter().rev() {
            self.pending
                .entry(env.session)
                .or_default()
                .queue
                .push_front(env);
        }
        self.carry.extend(stopped);
    }

    /// Whether every queue is empty. Walks the table: for the shutdown
    /// path only.
    pub(super) fn is_drained(&self) -> bool {
        self.pending.values().all(|s| s.queue.is_empty())
    }

    /// Drop the queues with nothing in them; returns how many are left.
    pub(super) fn forget_drained(&mut self) -> usize {
        self.pending.retain(|_, s| !s.queue.is_empty());
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use crossbeam::channel::{unbounded, Receiver};
    use risgraph_algorithms::Bfs;
    use risgraph_common::ids::{Edge, Update};
    use std::time::Instant;

    fn envelope(session: u64, tag: u64, u: Update) -> (Envelope, Receiver<(u64, Reply)>) {
        let (reply, rx) = unbounded();
        let env = Envelope {
            session,
            tag,
            op: Op::Single(u),
            enqueued: Instant::now(),
            reply,
            waker: None,
        };
        (env, rx)
    }

    /// A BFS server over the chain 0 → 1 → 2 whose own coordinator idles:
    /// the tests drive a `Gather` of their own against its engine.
    fn chain_server() -> Server {
        let algorithms = vec![std::sync::Arc::new(Bfs::new(0)) as _];
        let server = Server::start(algorithms, 16, ServerConfig::default()).unwrap();
        server.load_edges(&[(0, 1, 0), (1, 2, 0)]);
        server
    }

    fn tags(buf: &EpochBuf) -> (Vec<u64>, Vec<u64>) {
        let safe = buf.safe_parts.iter().flatten().map(|e| e.tag).collect();
        (safe, buf.unsafe_queue.iter().map(|e| e.tag).collect())
    }

    /// A session whose front is unsafe and that receives more *later in
    /// the same epoch* is on no pass's arrival list when the next epoch
    /// starts — only `carry` brings it back — and a GC tick in between
    /// must not lose it, nor trip over a carried session it dropped.
    #[test]
    fn blocked_sessions_are_carried_into_the_next_epoch() {
        let server = chain_server();
        let shared = &*server.shared;
        let mut gather = Gather::default();
        let mut buf = EpochBuf {
            safe_parts: vec![Vec::new(), Vec::new()],
            safe_count: 0,
            unsafe_queue: VecDeque::new(),
        };
        // Deleting a tree edge is unsafe; inserting a non-improving
        // edge is safe.
        let tree_edge = |s, d| Update::DelEdge(Edge::new(s, d, 0));
        let chord = |s, d| Update::InsEdge(Edge::new(s, d, 0));
        let mut keep = Vec::new();
        let mut receive = |g: &mut Gather, sid, tag, u| {
            let (env, rx) = envelope(sid, tag, u);
            keep.push(rx);
            g.receive(env);
        };

        gather.begin_epoch();
        receive(&mut gather, 7, 1, tree_edge(1, 2)); // A blocks...
        receive(&mut gather, 8, 2, tree_edge(0, 1)); // ...and so does B
        gather.classify(shared, &mut buf);
        assert_eq!(tags(&buf), (vec![], vec![1, 2]));
        // Later in the same epoch A gets two more; its queue was empty,
        // so it is examined — and skipped, being blocked.
        receive(&mut gather, 7, 3, chord(2, 1));
        receive(&mut gather, 7, 4, chord(2, 0));
        gather.classify(shared, &mut buf);
        assert_eq!(tags(&buf), (vec![], vec![1, 2]));
        assert!(!gather.is_drained());

        // The tick keeps A (queued work) and forgets B (none).
        buf.unsafe_queue.clear();
        assert_eq!(gather.forget_drained(), 1);

        // Next epoch, nothing arrives: A's two come out, in order, on
        // A's part; B's stale carry entry is stepped over.
        gather.begin_epoch();
        gather.classify(shared, &mut buf);
        assert_eq!(tags(&buf), (vec![3, 4], vec![]));
        assert_eq!(buf.safe_parts[1].len(), 2, "session 7 lives on part 7 % 2");
        assert_eq!(buf.safe_count, 2);
        assert!(gather.is_drained());
        // Five visits in all: A and B, A again while blocked, and the
        // two carried entries.
        assert_eq!(shared.stats.sessions_examined.load(Ordering::Relaxed), 5);
    }

    /// Leftovers go back in front of what is queued, in submission
    /// order, and their sessions are examined next epoch without any
    /// arrival.
    #[test]
    fn requeued_leftovers_keep_their_order_and_are_carried() {
        let server = chain_server();
        let mut gather = Gather::default();
        let mut buf = EpochBuf {
            safe_parts: vec![Vec::new()],
            safe_count: 0,
            unsafe_queue: VecDeque::new(),
        };
        let chord = Update::InsEdge(Edge::new(2, 0, 0));
        let mut keep = Vec::new();
        let mut make = |sid, tag| {
            let (env, rx) = envelope(sid, tag, chord);
            keep.push(rx);
            env
        };
        gather.begin_epoch();
        // Handed back by the safe phase: A's 10 (demoted) and 11, B's 20.
        gather.requeue(
            vec![make(5, 10), make(6, 20), make(5, 11)],
            vec![5, 6],
            &mut buf.unsafe_queue,
        );
        gather.begin_epoch();
        gather.receive(make(5, 30));
        gather.classify(&server.shared, &mut buf);
        assert_eq!(tags(&buf).0, [10, 11, 30, 20]);
    }

    /// A demotion holds back its session's unsafe update too: gathered
    /// in the same epoch behind the demoted one, it leaves the unsafe
    /// queue and waits behind the leftovers, while another session's
    /// unsafe update stays and runs this epoch.
    #[test]
    fn requeue_holds_back_the_stopped_sessions_unsafe_update() {
        let server = chain_server();
        let mut gather = Gather::default();
        let mut buf = EpochBuf {
            safe_parts: vec![Vec::new()],
            safe_count: 0,
            unsafe_queue: VecDeque::new(),
        };
        let chord = Update::InsEdge(Edge::new(2, 0, 0));
        let tree_edge = Update::DelEdge(Edge::new(1, 2, 0));
        let mut keep = Vec::new();
        let mut make = |sid, tag, u| {
            let (env, rx) = envelope(sid, tag, u);
            keep.push(rx);
            env
        };
        gather.begin_epoch();
        // Gathered: A's 10, 11 (safe) and 12 (unsafe), B's 20 (unsafe).
        // The safe phase demoted A's 10 and stopped A.
        buf.unsafe_queue
            .extend([make(5, 12, tree_edge), make(6, 20, tree_edge)]);
        gather.requeue(
            vec![make(5, 10, chord), make(5, 11, chord)],
            vec![5],
            &mut buf.unsafe_queue,
        );
        assert_eq!(tags(&buf), (vec![], vec![20]));

        buf.unsafe_queue.clear();
        gather.begin_epoch();
        gather.classify(&server.shared, &mut buf);
        assert_eq!(tags(&buf), (vec![10, 11], vec![12]));
    }
}
