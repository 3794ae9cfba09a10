//! Tagged, typed point-to-point messaging between ranks.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::any::Any;
use std::collections::VecDeque;

/// Message tag, like MPI's `tag` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u64);

pub(crate) struct Envelope {
    pub src: usize,
    pub tag: Tag,
    pub payload: Box<dyn Any + Send>,
}

/// Error sending a message (receiver rank hung up).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendError {
    /// Destination rank.
    pub dest: usize,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "send to rank {} failed: rank exited", self.dest)
    }
}

impl std::error::Error for SendError {}

/// Error receiving a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// All senders exited while we waited.
    Disconnected,
    /// A message matched (source, tag) but carried a different payload type.
    TypeMismatch {
        /// The source of the offending message.
        src: usize,
        /// The tag of the offending message.
        tag: Tag,
    },
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Disconnected => write!(f, "recv failed: peers exited"),
            RecvError::TypeMismatch { src, tag } => {
                write!(
                    f,
                    "recv type mismatch for message from {} tag {:?}",
                    src, tag
                )
            }
        }
    }
}

impl std::error::Error for RecvError {}

/// A rank's endpoint in the world: knows its rank, the world size, and how to
/// reach every other rank.
pub struct Comm {
    rank: usize,
    senders: Vec<Sender<Envelope>>,
    receiver: Receiver<Envelope>,
    /// Unexpected-message queue: arrived but not yet matched by a recv.
    pending: std::cell::RefCell<VecDeque<Envelope>>,
}

impl Comm {
    /// Build the full mesh of endpoints for `n` ranks.
    pub(crate) fn mesh(n: usize) -> Vec<Comm> {
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| Comm {
                rank,
                senders: senders.clone(),
                receiver,
                pending: std::cell::RefCell::new(VecDeque::new()),
            })
            .collect()
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// Send `value` to `dest` with `tag`. Non-blocking (buffered channel).
    pub fn send<T: Send + 'static>(
        &self,
        dest: usize,
        tag: Tag,
        value: T,
    ) -> Result<(), SendError> {
        self.senders[dest]
            .send(Envelope {
                src: self.rank,
                tag,
                payload: Box::new(value),
            })
            .map_err(|_| SendError { dest })
    }

    fn matches(env: &Envelope, src: usize, tag: Tag) -> bool {
        env.src == src && env.tag == tag
    }

    fn downcast<T: 'static>(env: Envelope) -> Result<T, RecvError> {
        let src = env.src;
        let tag = env.tag;
        env.payload
            .downcast::<T>()
            .map(|b| *b)
            .map_err(|_| RecvError::TypeMismatch { src, tag })
    }

    /// Blocking receive of a `T` from `src` with `tag`. Messages that
    /// arrive first with another `(source, tag)` wait in the
    /// unexpected-message queue for the receive that matches them.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: Tag) -> Result<T, RecvError> {
        let mut pending = self.pending.borrow_mut();
        let queued = pending.iter().position(|e| Self::matches(e, src, tag));
        if let Some(env) = queued.and_then(|pos| pending.remove(pos)) {
            return Self::downcast(env);
        }
        loop {
            let env = self.receiver.recv().map_err(|_| RecvError::Disconnected)?;
            if Self::matches(&env, src, tag) {
                return Self::downcast(env);
            }
            pending.push_back(env);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn out_of_order_tags_are_buffered() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, Tag(1), "first".to_string()).unwrap();
                comm.send(1, Tag(2), "second".to_string()).unwrap();
                String::new()
            } else {
                // Receive tag 2 before tag 1; the tag-1 message must be buffered.
                let b: String = comm.recv(0, Tag(2)).unwrap();
                let a: String = comm.recv(0, Tag(1)).unwrap();
                format!("{a}-{b}")
            }
        })
        .unwrap();
        assert_eq!(results[1], "first-second");
    }

    #[test]
    fn type_mismatch_is_reported() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, Tag(0), 42u32).unwrap();
                true
            } else {
                matches!(
                    comm.recv::<String>(0, Tag(0)),
                    Err(RecvError::TypeMismatch { src: 0, .. })
                )
            }
        })
        .unwrap();
        assert!(results[1]);
    }
}
