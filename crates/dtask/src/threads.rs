//! Thread names. Linux keeps 15 bytes of a thread's name (`comm` under
//! `/proc/PID/task/TID`, `top -H`), so every name built here fits in 15
//! bytes while its role and ids do: workers and nodes below 1000, slots
//! below 100, clients below 100 000. Past that the kernel cuts the name and
//! nothing else changes.

use crate::msg::{ClientId, WorkerId};

/// What a thread of the runtime does, and for whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadRole {
    /// The scheduler loop.
    Scheduler,
    /// Executor slot `slot` of worker `worker`.
    Slot { worker: WorkerId, slot: usize },
    /// Worker `worker`'s heartbeat pinger.
    WorkerPing(WorkerId),
    /// Client `client`'s heartbeat pinger.
    ClientPing(ClientId),
    /// The telemetry exporter's HTTP server.
    Telemetry,
    /// The reader of the plane's link to node `node`.
    NetRead(u64),
    /// The writer of the plane's link to node `node`.
    NetWrite(u64),
    /// A hub's accept loop.
    NetAccept,
    /// A hub's handshake with one connecting node.
    NetConn,
}

impl ThreadRole {
    /// The thread's name.
    pub(crate) fn name(self) -> String {
        match self {
            ThreadRole::Scheduler => "dtask-scheduler".into(),
            ThreadRole::Slot { worker, slot } => format!("dtask-w{worker}-s{slot}"),
            ThreadRole::WorkerPing(worker) => format!("dtask-w{worker}-hb"),
            ThreadRole::ClientPing(client) => format!("dtask-c{client}-hb"),
            ThreadRole::Telemetry => "dtask-http".into(),
            ThreadRole::NetRead(node) => format!("dtask-net-r{node}"),
            ThreadRole::NetWrite(node) => format!("dtask-net-w{node}"),
            ThreadRole::NetAccept => "dtask-net-acc".into(),
            ThreadRole::NetConn => "dtask-net-conn".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_name_fits_in_fifteen_bytes_and_names_one_thread() {
        let ids = [0, 1, 9, 10, 99, 100, 999];
        let mut roles = vec![
            ThreadRole::Scheduler,
            ThreadRole::Telemetry,
            ThreadRole::NetAccept,
            ThreadRole::NetConn,
            ThreadRole::ClientPing(99_999),
        ];
        for &id in &ids {
            roles.push(ThreadRole::WorkerPing(id));
            roles.push(ThreadRole::ClientPing(id));
            roles.push(ThreadRole::NetRead(id as u64));
            roles.push(ThreadRole::NetWrite(id as u64));
            for slot in [0, 1, 9, 10, 99] {
                roles.push(ThreadRole::Slot { worker: id, slot });
            }
        }
        let mut seen = HashSet::new();
        for role in roles {
            let name = role.name();
            assert!(
                name.len() <= 15,
                "{role:?}: {name:?} is {} bytes",
                name.len()
            );
            assert!(
                seen.insert(name.clone()),
                "{role:?}: {name:?} names two threads"
            );
        }
    }
}
