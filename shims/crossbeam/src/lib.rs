//! Minimal `crossbeam` stand-in backed by `std::sync`.
//!
//! The workspace must build with no network access, so the real crate cannot
//! be downloaded. This shim reproduces the API subset the workspace uses:
//!
//! * [`channel`] — MPMC channels (`unbounded`/`bounded`) whose **receivers
//!   clone**, which is what lets a worker run several executor slots off one
//!   shared inbox. A send or receive signals a condition variable only when
//!   a thread is counted as waiting on it, so a channel nobody blocks on
//!   costs no wake-up syscall per message.
//! * [`thread`] — `scope` with the builder-style named spawn.

#![forbid(unsafe_code)]

pub mod channel {
    //! MPMC channels with the crossbeam-channel surface used in-tree.

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked on `not_empty`, counted under the mutex: a
        /// sender that pushes while this is zero has nobody to wake.
        waiting_receivers: usize,
        /// Senders blocked on `not_full` (bounded channels only).
        waiting_senders: usize,
    }

    impl<T> Inner<T> {
        /// Pop the next message; says whether a blocked sender needs waking.
        fn pop(&mut self) -> Option<(T, bool)> {
            let value = self.queue.pop_front()?;
            Some((value, self.waiting_senders > 0))
        }
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Sending half; clonable (multi-producer).
    pub struct Sender<T>(Arc<Shared<T>>);

    /// Receiving half; clonable (multi-consumer).
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently empty.
        Empty,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Deadline elapsed with no message.
        Timeout,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
                waiting_receivers: 0,
                waiting_senders: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    /// Channel with unlimited buffering.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// Channel holding at most `cap` messages (`cap == 0` behaves as 1; the
    /// workspace never uses rendezvous channels).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap.max(1)))
    }

    impl<T> Sender<T> {
        /// Send a message, blocking while a bounded channel is full. Errors
        /// only when every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.0.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(value));
                }
                match inner.cap {
                    Some(cap) if inner.queue.len() >= cap => {
                        inner.waiting_senders += 1;
                        inner = self
                            .0
                            .not_full
                            .wait(inner)
                            .unwrap_or_else(|e| e.into_inner());
                        inner.waiting_senders -= 1;
                    }
                    _ => break,
                }
            }
            inner.queue.push_back(value);
            let wake = inner.waiting_receivers > 0;
            drop(inner);
            if wake {
                self.0.not_empty.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0
                .inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.0.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.senders -= 1;
            if inner.senders == 0 {
                drop(inner);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Hand a popped message out, waking one blocked sender if there is
        /// one (a slot just freed up).
        fn deliver(&self, inner: MutexGuard<'_, Inner<T>>, (value, wake): (T, bool)) -> T {
            drop(inner);
            if wake {
                self.0.not_full.notify_one();
            }
            value
        }

        /// Receive a message, blocking until one arrives. Errors only when
        /// the channel is empty and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.0.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(popped) = inner.pop() {
                    return Ok(self.deliver(inner, popped));
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner.waiting_receivers += 1;
                inner = self
                    .0
                    .not_empty
                    .wait(inner)
                    .unwrap_or_else(|e| e.into_inner());
                inner.waiting_receivers -= 1;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.0.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(popped) = inner.pop() {
                return Ok(self.deliver(inner, popped));
            }
            if inner.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Receive with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.0.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(popped) = inner.pop() {
                    return Ok(self.deliver(inner, popped));
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                    return Err(RecvTimeoutError::Timeout);
                };
                inner.waiting_receivers += 1;
                let (guard, res) = self
                    .0
                    .not_empty
                    .wait_timeout(inner, remaining)
                    .unwrap_or_else(|e| e.into_inner());
                inner = guard;
                inner.waiting_receivers -= 1;
                if res.timed_out() && inner.queue.is_empty() {
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Number of messages currently buffered.
        pub fn len(&self) -> usize {
            self.0
                .inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .queue
                .len()
        }

        /// True when no message is buffered.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0
                .inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.0.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.receivers -= 1;
            if inner.receivers == 0 {
                drop(inner);
                self.0.not_full.notify_all();
            }
        }
    }

    /// A blocked thread is woken by the operation it waits for. Each test
    /// waits for its thread to be counted as blocked, acts, and gives the
    /// thread a deadline to come back, so a lost wake-up fails the test
    /// instead of hanging it.
    #[cfg(test)]
    mod wake_tests {
        use super::*;
        use std::sync::mpsc;
        use std::thread;

        const DEADLINE: Duration = Duration::from_secs(10);

        /// Return once one receiver (or, with `senders`, one sender) is
        /// blocked on the channel.
        fn await_blocked<T>(shared: &Shared<T>, senders: bool) {
            let start = Instant::now();
            loop {
                let inner = shared.inner.lock().unwrap();
                let blocked = if senders {
                    inner.waiting_senders
                } else {
                    inner.waiting_receivers
                };
                if blocked == 1 {
                    return;
                }
                drop(inner);
                assert!(start.elapsed() < DEADLINE, "the thread never blocked");
                thread::sleep(Duration::from_millis(1));
            }
        }

        #[test]
        fn a_send_wakes_a_receiver_blocked_in_recv() {
            let (tx, rx) = unbounded();
            let shared = Arc::clone(&rx.0);
            let (done_tx, done) = mpsc::channel();
            thread::spawn(move || done_tx.send(rx.recv()).unwrap());
            await_blocked(&shared, false);
            tx.send(7).unwrap();
            assert_eq!(done.recv_timeout(DEADLINE), Ok(Ok(7)), "lost wake-up");
        }

        #[test]
        fn a_send_wakes_a_receiver_blocked_in_recv_timeout() {
            let (tx, rx) = unbounded();
            let shared = Arc::clone(&rx.0);
            let (done_tx, done) = mpsc::channel();
            thread::spawn(move || {
                done_tx
                    .send(rx.recv_timeout(Duration::from_secs(3600)))
                    .unwrap()
            });
            await_blocked(&shared, false);
            tx.send(7).unwrap();
            assert_eq!(done.recv_timeout(DEADLINE), Ok(Ok(7)), "lost wake-up");
        }

        #[test]
        fn a_receive_wakes_a_sender_blocked_on_a_full_channel() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let shared = Arc::clone(&tx.0);
            let (done_tx, done) = mpsc::channel();
            thread::spawn(move || done_tx.send(tx.send(2)).unwrap());
            await_blocked(&shared, true);
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(done.recv_timeout(DEADLINE), Ok(Ok(())), "lost wake-up");
            assert_eq!(rx.recv(), Ok(2));
        }
    }
}

pub mod thread {
    //! Scoped threads with crossbeam's builder-style spawn.
    //!
    //! Spawn closures take one (ignored) argument, matching crossbeam's
    //! `|scope| ...` signature at the call sites in this workspace.

    use std::io;
    use std::marker::PhantomData;

    /// Scope handle passed to the [`scope`] closure.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Handle to a spawned scoped thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Wait for the thread; `Err` carries the panic payload.
        pub fn join(self) -> std::thread::Result<T> {
            self.inner.join()
        }
    }

    /// Builder for a named scoped thread.
    pub struct ScopedThreadBuilder<'a, 'scope, 'env: 'scope> {
        scope: &'a Scope<'scope, 'env>,
        name: Option<String>,
        _marker: PhantomData<&'env ()>,
    }

    impl<'a, 'scope, 'env> ScopedThreadBuilder<'a, 'scope, 'env> {
        /// Name the thread.
        pub fn name(mut self, name: String) -> Self {
            self.name = Some(name);
            self
        }

        /// Spawn the thread; the closure's argument is ignored (crossbeam
        /// passes the scope there).
        pub fn spawn<F, T>(self, f: F) -> io::Result<ScopedJoinHandle<'scope, T>>
        where
            F: FnOnce(()) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let mut builder = std::thread::Builder::new();
            if let Some(name) = self.name {
                builder = builder.name(name);
            }
            builder
                .spawn_scoped(self.scope.inner, move || f(()))
                .map(|inner| ScopedJoinHandle { inner })
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Builder for a named thread in this scope.
        pub fn builder(&self) -> ScopedThreadBuilder<'_, 'scope, 'env> {
            ScopedThreadBuilder {
                scope: self,
                name: None,
                _marker: PhantomData,
            }
        }

        /// Spawn an unnamed thread in this scope.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(()) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            ScopedJoinHandle {
                inner: self.inner.spawn(move || f(())),
            }
        }
    }

    /// Run `f` with a thread scope; all spawned threads are joined before
    /// this returns. `Err` carries the payload if `f` itself panics.
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, RecvTimeoutError, TryRecvError};
    use std::time::Duration;

    #[test]
    fn unbounded_send_recv() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn recv_errors_when_senders_gone() {
        let (tx, rx) = unbounded::<u8>();
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(9));
        assert!(rx.recv().is_err());
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_errors_when_receivers_gone() {
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2).unwrap());
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        t.join().unwrap();
    }

    #[test]
    fn recv_timeout_fires() {
        let (_tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn cloned_receivers_share_the_queue() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let t = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx2.recv() {
                got.push(v);
            }
            got
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        let mut all = got;
        all.extend(t.join().unwrap());
        all.sort();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_threads_join() {
        let data = [1, 2, 3];
        let sum = super::thread::scope(|scope| {
            let h = scope
                .builder()
                .name("summer".into())
                .spawn(|_| data.iter().sum::<i32>())
                .unwrap();
            h.join().unwrap()
        })
        .unwrap();
        assert_eq!(sum, 6);
    }
}
