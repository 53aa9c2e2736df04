//! The submit side of the epoch loop: every session pushes its
//! envelopes here and the one coordinator takes them out.
//!
//! A many-producer, **single-consumer** hand-off whose consumer never
//! pops: [`Injector::take`] swaps the whole backlog for the caller's
//! (empty) buffer under one lock acquisition, so a gather pass pays one
//! lock however many envelopes arrived, and the two `Vec`s trade places
//! for ever — no allocation on the steady path. Producers take the same
//! lock once per push.
//!
//! Waking follows the channel shim's rule (PR 27): the consumer raises
//! `parked` under the mutex right before `Condvar::wait_timeout` (which
//! releases the mutex atomically), and a producer reads it under the
//! same mutex right after its push — so either the producer sees the
//! parked consumer and notifies it, or the consumer, locking later,
//! sees the pushed item and does not wait. `notify_one` is a `futex`
//! syscall whether or not anyone listens; it is issued only when the
//! consumer is asleep.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

struct State<T> {
    items: Vec<T>,
    /// The consumer is inside `wait_timeout` (or committed to entering
    /// it: raised with the mutex held).
    parked: bool,
    /// Set by [`Injector::close`]; every later push is refused.
    closed: bool,
}

pub(crate) struct Injector<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    /// `state.items.len()`, stored under the mutex after every push and
    /// take and read without it, so the empty case of [`Injector::take`]
    /// takes no lock. Nothing is published through it — the items
    /// change hands under the mutex — so a stale read costs the
    /// consumer one more pass and nothing else.
    len: AtomicUsize,
}

impl<T> Injector<T> {
    pub(crate) fn new() -> Self {
        Injector {
            state: Mutex::new(State {
                items: Vec::new(),
                parked: false,
                closed: false,
            }),
            ready: Condvar::new(),
            len: AtomicUsize::new(0),
        }
    }

    /// Every update of `State` is a single field store or a `Vec` push
    /// or swap, so the data is valid at every step and a poisoned lock
    /// is recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue `value`; hands it back once the injector is closed.
    pub(crate) fn push(&self, value: T) -> Result<(), T> {
        let mut s = self.lock();
        if s.closed {
            return Err(value);
        }
        s.items.push(value);
        self.len.store(s.items.len(), Ordering::Release);
        let wake = s.parked;
        drop(s);
        if wake {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Whether nothing is queued right now (lock-free).
    pub(crate) fn is_empty(&self) -> bool {
        self.len.load(Ordering::Acquire) == 0
    }

    /// Move the whole backlog, in arrival order, into `into` — which
    /// must be empty; its allocation becomes the injector's next buffer.
    /// Returns whether anything was taken.
    pub(crate) fn take(&self, into: &mut Vec<T>) -> bool {
        debug_assert!(into.is_empty());
        if self.is_empty() {
            return false;
        }
        self.swap_out(&mut self.lock(), into)
    }

    fn swap_out(&self, s: &mut State<T>, into: &mut Vec<T>) -> bool {
        std::mem::swap(&mut s.items, into);
        self.len.store(0, Ordering::Release);
        !into.is_empty()
    }

    /// The idle wait: sleep until something is pushed or `timeout`
    /// passes (or a spurious wake-up — the caller polls again either
    /// way). Returns at once if something is already queued.
    pub(crate) fn wait(&self, timeout: Duration) {
        let mut s = self.lock();
        if !s.items.is_empty() {
            return;
        }
        s.parked = true;
        #[cfg(test)]
        tests::before_wait();
        let (mut s, _) = self
            .ready
            .wait_timeout(s, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        s.parked = false;
    }

    /// Refuse every later push and take what is still queued: after
    /// this returns, nothing can be left behind unanswered.
    pub(crate) fn close(&self, into: &mut Vec<T>) {
        let mut s = self.lock();
        s.closed = true;
        self.swap_out(&mut s, into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn take_swaps_the_backlog_in_arrival_order() {
        let inj = Injector::new();
        let mut buf = Vec::new();
        assert!(inj.is_empty() && !inj.take(&mut buf));
        for i in 0..5 {
            inj.push(i).unwrap();
        }
        assert!(!inj.is_empty());
        assert!(inj.take(&mut buf));
        assert_eq!(buf, [0, 1, 2, 3, 4]);
        assert!(inj.is_empty());
        // The two allocations trade places: the drained buffer goes in
        // as the next backlog and comes back on the take after that.
        let cap = buf.capacity();
        for i in [9, 10] {
            buf.clear();
            inj.push(i).unwrap();
            assert!(inj.take(&mut buf));
            assert_eq!(buf, [i]);
        }
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn close_takes_the_rest_and_refuses_later_pushes() {
        let inj = Injector::new();
        inj.push(1).unwrap();
        let mut buf = Vec::new();
        inj.close(&mut buf);
        assert_eq!(buf, [1]);
        assert_eq!(inj.push(2), Err(2));
        assert!(inj.is_empty());
    }

    #[test]
    fn idle_wait_times_out_and_returns_at_once_on_a_backlog() {
        let inj = Injector::new();
        let t = Instant::now();
        inj.wait(Duration::from_millis(5));
        assert!(t.elapsed() >= Duration::from_millis(5));
        inj.push(1u32).unwrap();
        let t = Instant::now();
        inj.wait(Duration::from_secs(60));
        assert!(t.elapsed() < Duration::from_secs(10));
    }

    thread_local! {
        /// Runs once on this thread between the idle wait's "nothing
        /// queued" check (`parked` already raised, mutex held) and its
        /// `Condvar` wait, so a test can start another thread's push in
        /// that gap.
        static BEFORE_WAIT: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
            const { std::cell::RefCell::new(None) };
    }

    pub(super) fn before_wait() {
        if let Some(hook) = BEFORE_WAIT.with(|h| h.borrow_mut().take()) {
            hook();
        }
    }

    /// A push that reaches the mutex while the consumer sits between
    /// its empty check and its wait must end the wait — not be slept
    /// through until the timeout. Red with `parked` raised after the
    /// wait instead of before it.
    #[test]
    fn push_in_the_wait_window_ends_the_wait() {
        use std::sync::mpsc::channel;
        let inj = Arc::new(Injector::new());
        let (in_window_tx, in_window_rx) = channel();
        let (acting_tx, acting_rx) = channel::<()>();
        let (woke_tx, woke_rx) = channel();
        let consumer = {
            let inj = Arc::clone(&inj);
            std::thread::spawn(move || {
                BEFORE_WAIT.with(|h| {
                    *h.borrow_mut() = Some(Box::new(move || {
                        in_window_tx.send(()).unwrap();
                        acting_rx.recv().unwrap();
                        // Let the producer get as far as the mutex this
                        // thread is holding.
                        for _ in 0..64 {
                            std::thread::yield_now();
                        }
                    }));
                });
                inj.wait(Duration::from_secs(60));
                let mut got = Vec::new();
                inj.take(&mut got);
                woke_tx.send(got).unwrap();
            })
        };
        in_window_rx.recv().unwrap();
        let producer = {
            let inj = Arc::clone(&inj);
            std::thread::spawn(move || {
                acting_tx.send(()).unwrap();
                inj.push(7u32).unwrap();
            })
        };
        let got = woke_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("lost wake-up: the consumer slept through a push");
        assert_eq!(got, [7]);
        consumer.join().unwrap();
        producer.join().unwrap();
    }

    /// 4 producers × 50 k pushes against a consumer that alternates
    /// takes and idle waits: everything arrives once, in each
    /// producer's order.
    #[test]
    fn stress_loses_and_reorders_nothing() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 50_000;
        let inj = Arc::new(Injector::new());
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let inj = Arc::clone(&inj);
                std::thread::spawn(move || {
                    for seq in 0..PER_PRODUCER {
                        inj.push((p, seq)).unwrap();
                    }
                })
            })
            .collect();
        let mut next = [0u64; PRODUCERS as usize];
        let mut buf = Vec::new();
        let mut received = 0;
        while received < PRODUCERS * PER_PRODUCER {
            if !inj.take(&mut buf) {
                inj.wait(Duration::from_millis(1));
            }
            for (p, seq) in buf.drain(..) {
                assert_eq!(seq, next[p as usize], "producer {p} out of order");
                next[p as usize] += 1;
                received += 1;
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        assert!(inj.is_empty());
    }
}
