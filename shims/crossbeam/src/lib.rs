//! Offline drop-in subset of `crossbeam`.
//!
//! Only the `channel::bounded` surface is provided, with the semantics
//! the write-behind queues and the restore pipeline depend on: bounded
//! capacity, blocking `send` when full, receiver iteration that ends
//! when every sender is dropped, and — matching real crossbeam —
//! multi-consumer receivers (`Receiver` is `Clone + Send + Sync`), so a
//! worker pool shares one queue without an external mutex.

pub mod channel {
    use std::collections::VecDeque;
    pub use std::sync::mpsc::{RecvError, TryRecvError};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        cap: usize,
        state: Mutex<State<T>>,
        /// Signalled when a value is queued or the last sender leaves.
        not_empty: Condvar,
        /// Signalled when a value is taken or the last receiver leaves.
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            // A panic while holding the lock cannot leave the queue in a
            // broken state (push/pop are atomic under it), so poisoning
            // is safe to shrug off.
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    pub struct Sender<T>(Arc<Shared<T>>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.0.not_empty.notify_all();
            }
        }
    }

    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> Sender<T> {
        /// Blocks while the channel is full; errors once every receiver
        /// is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.0.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                if state.queue.len() < self.0.cap {
                    state.queue.push_back(value);
                    drop(state);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                state = self
                    .0
                    .not_full
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// A shared handle on the consuming end. Cloning yields another
    /// consumer of the *same* queue (each value is delivered to exactly
    /// one receiver); the channel disconnects for senders only when the
    /// last clone is dropped.
    pub struct Receiver<T>(Arc<Shared<T>>);

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives; errors once every sender is
        /// gone and the queue is drained.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.lock();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    drop(state);
                    self.0.not_full.notify_one();
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .0
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.0.lock();
            if let Some(value) = state.queue.pop_front() {
                drop(state);
                self.0.not_full.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        pub fn iter(&self) -> Iter<'_, T> {
            Iter(self)
        }
    }

    /// Iterator of received values; ends when the channel disconnects.
    pub struct Iter<'a, T>(&'a Receiver<T>);

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.recv().ok()
        }
    }

    /// Owning iterator of received values.
    pub struct IntoIter<T>(Receiver<T>);

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> Self::IntoIter {
            IntoIter(self)
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Self::IntoIter {
            self.iter()
        }
    }

    /// A bounded channel holding at most `cap` in-flight messages.
    /// Zero-capacity rendezvous channels are not supported; `cap` is
    /// clamped to at least 1.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            cap: cap.max(1),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }
}

#[cfg(test)]
mod tests {
    use super::channel::bounded;

    #[test]
    fn send_recv_in_order() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = rx.into_iter().collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn receiver_iteration_ends_when_senders_drop() {
        let (tx, rx) = bounded(2);
        let worker = std::thread::spawn(move || rx.into_iter().count());
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(worker.join().unwrap(), 10);
    }

    #[test]
    fn send_fails_after_receiver_drops() {
        let (tx, rx) = bounded::<u8>(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn send_fails_only_after_last_receiver_drops() {
        let (tx, rx) = bounded::<u8>(2);
        let rx2 = rx.clone();
        drop(rx);
        tx.send(7).unwrap();
        assert_eq!(rx2.recv().unwrap(), 7);
        drop(rx2);
        assert!(tx.send(8).is_err());
    }

    #[test]
    fn cloned_receivers_share_one_queue() {
        let (tx, rx) = bounded::<u32>(64);
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all: Vec<u32> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>(), "each value exactly once");
    }

    #[test]
    fn bounded_send_blocks_until_room() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(0).unwrap();
        let producer = std::thread::spawn(move || {
            tx.send(1).unwrap(); // blocks until the consumer takes 0
            "sent"
        });
        assert_eq!(rx.recv().unwrap(), 0);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(producer.join().unwrap(), "sent");
    }
}
