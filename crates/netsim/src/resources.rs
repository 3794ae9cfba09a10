//! Queueing stations.

use crate::engine::SimTime;

/// A single-server FIFO queueing station: requests occupy the server
/// back-to-back. Models a NIC serializing messages, the centralized
/// scheduler's message loop, a worker executor, or the PFS's aggregate
/// bandwidth pipe.
#[derive(Debug, Clone, Default)]
pub struct FifoServer {
    free_at: SimTime,
}

impl FifoServer {
    /// Idle server.
    pub fn new() -> Self {
        FifoServer::default()
    }

    /// Enqueue a request arriving at `now` needing `service` ns. Returns
    /// `(start, finish)` — the request waits until the server frees up.
    pub fn enqueue(&mut self, now: SimTime, service: SimTime) -> (SimTime, SimTime) {
        let start = self.free_at.max(now);
        let finish = start + service;
        self.free_at = finish;
        (start, finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = FifoServer::new();
        let (start, finish) = s.enqueue(100, 50);
        assert_eq!((start, finish), (100, 150));
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut s = FifoServer::new();
        s.enqueue(0, 100);
        let (start, finish) = s.enqueue(10, 100);
        assert_eq!((start, finish), (100, 200));
        // Arriving after the server freed: no wait.
        let (start, _) = s.enqueue(500, 10);
        assert_eq!(start, 500);
    }
}
