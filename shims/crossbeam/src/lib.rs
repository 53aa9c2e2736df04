//! Offline stand-in for the `crossbeam` crate (channel module only).
//!
//! Implements multi-producer multi-consumer channels with the subset of
//! the `crossbeam-channel` API this workspace uses: `unbounded`,
//! `bounded` (capacity is advisory — senders never block), `try_recv`,
//! `recv_timeout`, `is_empty`, and clonable senders/receivers with
//! disconnect detection.
//!
//! The queue is a `Mutex<VecDeque>` with a `Condvar`, and two things
//! keep the hand-off to a receiver that is *not asleep* free of
//! syscalls and of lock contention:
//!
//! * **Wake gating.** A receiver counts itself into `parked` under the
//!   queue mutex just before `Condvar::wait` (the wait releases the
//!   mutex atomically), and `send` reads that count under the same
//!   mutex right after its push. So either the sender sees the parked
//!   receiver and notifies it, or the receiver — which took the mutex
//!   later — sees the pushed value and never waits; `notify_one` (a
//!   futex syscall whether or not anyone listens) is issued only when
//!   somebody is listening. This is what upstream `crossbeam-channel`
//!   does with its waker registry.
//! * **Lock-free emptiness.** The queue length is mirrored in an atomic
//!   (written under the mutex), so `is_empty()` and the empty case of
//!   `try_recv()` take no lock: a caller may poll them in a spin loop
//!   without contending with the sender it is waiting for.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct Queue<T> {
        items: VecDeque<T>,
        /// Receivers inside `Condvar::wait` (or committed to entering
        /// it: the count is raised with the mutex held and the wait
        /// releases the mutex atomically).
        parked: usize,
    }

    struct Chan<T> {
        queue: Mutex<Queue<T>>,
        ready: Condvar,
        /// `queue.items.len()`, stored (`Release`) under the mutex after
        /// every push and pop, read (`Acquire`) without it by `is_empty`
        /// and `try_recv`. Nothing is published through it — the items
        /// change hands under the mutex — so a stale read costs a
        /// poller one more probe and nothing else.
        len: AtomicUsize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> MutexGuard<'_, Queue<T>> {
            self.queue.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Pop the front item, keeping the length mirror in step.
        fn pop(&self, q: &mut Queue<T>) -> Option<T> {
            let v = q.items.pop_front()?;
            self.len.store(q.items.len(), Ordering::Release);
            Some(v)
        }
    }

    /// The sending half of a channel.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// The receiving half of a channel.
    pub struct Receiver<T>(Arc<Chan<T>>);

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty
    /// and all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Empty and all senders dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with nothing queued.
        Timeout,
        /// Empty and all senders dropped.
        Disconnected,
    }

    /// Create a channel with unlimited buffering.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                parked: 0,
            }),
            ready: Condvar::new(),
            len: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    /// Create a channel with a capacity hint. The only workspace use is
    /// completion signalling, where senders must not block, so capacity
    /// is not enforced.
    pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
        unbounded()
    }

    impl<T> Sender<T> {
        /// Enqueue a message, failing if every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.0.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            let mut q = self.0.lock();
            q.items.push_back(value);
            self.0.len.store(q.items.len(), Ordering::Release);
            let wake = q.parked > 0;
            drop(q);
            if wake {
                self.0.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::AcqRel);
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Wake blocked receivers so they observe the disconnect.
                // Passing through the mutex orders this after any
                // receiver that read a non-zero sender count and is on
                // its way into `wait` (it holds the mutex until the
                // wait releases it), so the notification cannot fall
                // between its check and its sleep.
                drop(self.0.lock());
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocking receive.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.0.lock();
            loop {
                if let Some(v) = self.0.pop(&mut q) {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                q.parked += 1;
                #[cfg(test)]
                tests::before_wait();
                q = self.0.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
                q.parked -= 1;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            // Lock-free empty case. Only while a sender is alive: a
            // length read before the last sender's final push and a
            // sender count read after its drop would otherwise report
            // `Disconnected` over a queued value.
            if self.0.len.load(Ordering::Acquire) == 0
                && self.0.senders.load(Ordering::Acquire) != 0
            {
                return Err(TryRecvError::Empty);
            }
            let mut q = self.0.lock();
            if let Some(v) = self.0.pop(&mut q) {
                return Ok(v);
            }
            if self.0.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Receive with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.0.lock();
            loop {
                if let Some(v) = self.0.pop(&mut q) {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                q.parked += 1;
                #[cfg(test)]
                tests::before_wait();
                let (guard, _res) = self
                    .0
                    .ready
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
                q.parked -= 1;
            }
        }

        /// Whether nothing is currently queued. Takes no lock, so it is
        /// safe to poll in a spin loop.
        pub fn is_empty(&self) -> bool {
            self.0.len.load(Ordering::Acquire) == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_detection() {
            let (tx, rx) = unbounded::<u32>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert_eq!(tx.send(7), Err(SendError(7)));
        }

        #[test]
        fn timeout_fires() {
            let (tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(3).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(3));
        }

        #[test]
        fn cross_thread_wakeup() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || rx.recv().unwrap());
            std::thread::sleep(Duration::from_millis(5));
            tx.send(42u64).unwrap();
            assert_eq!(h.join().unwrap(), 42);
        }

        #[test]
        fn emptiness_tracks_pushes_and_pops() {
            let (tx, rx) = unbounded();
            assert!(rx.is_empty());
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert!(!rx.is_empty());
            assert_eq!(rx.try_recv(), Ok(1));
            assert!(!rx.is_empty());
            assert_eq!(rx.recv(), Ok(2));
            assert!(rx.is_empty());
            // A value queued by a sender that is gone must still come
            // out before the disconnect is reported.
            tx.send(3).unwrap();
            drop(tx);
            assert_eq!(rx.try_recv(), Ok(3));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        thread_local! {
            /// Runs once on this thread between a blocking receive's
            /// "queue empty" check (parked count already raised, mutex
            /// held) and its `Condvar` wait, so a test can start another
            /// thread's send or drop in that gap.
            static BEFORE_WAIT: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
                const { std::cell::RefCell::new(None) };
        }

        pub(super) fn before_wait() {
            if let Some(hook) = BEFORE_WAIT.with(|h| h.borrow_mut().take()) {
                hook();
            }
        }

        /// Run `receive` on a thread of its own and `act` on another,
        /// with `act` released while the receiver sits between its
        /// empty check and its wait. `act` reaches the queue mutex
        /// either while the receiver still holds it or after the wait
        /// released it; the wake gate must deliver in both orders.
        /// Returns what `receive` returned, or panics after 10 s — a
        /// lost wake-up must fail, not hang.
        fn race_into_wait_window<R: Send + 'static>(
            rx: Receiver<u32>,
            receive: fn(&Receiver<u32>) -> R,
            act: impl FnOnce() + Send + 'static,
        ) -> R {
            use std::sync::mpsc::channel;
            let (in_window_tx, in_window_rx) = channel();
            let (acting_tx, acting_rx) = channel::<()>();
            let (got_tx, got_rx) = channel();
            let receiver = std::thread::spawn(move || {
                BEFORE_WAIT.with(|h| {
                    *h.borrow_mut() = Some(Box::new(move || {
                        in_window_tx.send(()).unwrap();
                        acting_rx.recv().unwrap();
                        // Let the other thread get as far as the mutex
                        // this thread is holding.
                        for _ in 0..64 {
                            std::thread::yield_now();
                        }
                    }));
                });
                got_tx.send(receive(&rx)).unwrap();
            });
            in_window_rx.recv().unwrap();
            let actor = std::thread::spawn(move || {
                acting_tx.send(()).unwrap();
                act();
            });
            let got = got_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("lost wake-up: the receiver never returned");
            receiver.join().unwrap();
            actor.join().unwrap();
            got
        }

        #[test]
        fn send_in_the_wait_window_reaches_recv() {
            let (tx, rx) = unbounded();
            // A second sender outlives the receive: the acting thread's
            // drop of the last one would wake the receiver by itself.
            let _alive = tx.clone();
            let got = race_into_wait_window(rx, |rx| rx.recv(), move || tx.send(7).unwrap());
            assert_eq!(got, Ok(7));
        }

        #[test]
        fn send_in_the_wait_window_reaches_recv_timeout() {
            let (tx, rx) = unbounded();
            let _alive = tx.clone();
            let got = race_into_wait_window(
                rx,
                |rx| rx.recv_timeout(Duration::from_secs(60)),
                move || tx.send(7).unwrap(),
            );
            assert_eq!(got, Ok(7));
        }

        #[test]
        fn last_sender_dropped_in_the_wait_window_disconnects_recv() {
            let (tx, rx) = unbounded::<u32>();
            let got = race_into_wait_window(rx, |rx| rx.recv(), move || drop(tx));
            assert_eq!(got, Err(RecvError));
        }

        /// 4 producers × 100 k sends into one consumer that rotates
        /// through its three ways of receiving: every message arrives
        /// exactly once and in its producer's order.
        #[test]
        fn stress_mixed_receive_modes_lose_and_reorder_nothing() {
            const PRODUCERS: u64 = 4;
            const PER_PRODUCER: u64 = 100_000;
            let (tx, rx) = unbounded::<(u64, u64)>();
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for seq in 0..PER_PRODUCER {
                            tx.send((p, seq)).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);

            let mut next = [0u64; PRODUCERS as usize];
            let mut accept = |(p, seq): (u64, u64)| {
                assert_eq!(seq, next[p as usize], "producer {p} out of order");
                next[p as usize] += 1;
            };
            let mut received = 0u64;
            let mut mode = 0;
            while received < PRODUCERS * PER_PRODUCER {
                match mode % 3 {
                    // A burst of non-blocking receives.
                    0 => {
                        while let Ok(m) = rx.try_recv() {
                            accept(m);
                            received += 1;
                        }
                    }
                    // Spin on the lock-free emptiness probe, then take
                    // what showed up (bounded: the producers may be done).
                    1 => {
                        let mut probes = 0;
                        while rx.is_empty() && probes < 10_000 {
                            std::hint::spin_loop();
                            probes += 1;
                        }
                        if let Ok(m) = rx.try_recv() {
                            accept(m);
                            received += 1;
                        }
                    }
                    // Park.
                    _ => {
                        accept(rx.recv().expect("a message is still owed"));
                        received += 1;
                    }
                }
                mode += 1;
            }
            assert_eq!(next, [PER_PRODUCER; PRODUCERS as usize]);
            for p in producers {
                p.join().unwrap();
            }
            assert!(rx.is_empty());
            assert_eq!(rx.recv(), Err(RecvError), "all senders are gone");
        }
    }
}
