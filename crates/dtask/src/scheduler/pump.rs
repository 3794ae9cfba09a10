//! The live driver of the scheduler core: one thread that blocks on the
//! scheduler inbox, drains a burst, reads the wall clock once and steps.
//! Everything the scheduler *decides* is in the core ([`super`]); this file
//! owns what only a running cluster has: the channel, the clock, the
//! transport endpoint and the telemetry hub, whose flight it samples.

use super::{Scheduler, Sink};
use crate::msg::{ClientId, ClientMsg, DataMsg, ExecMsg, SchedMsg, WorkerId};
use crate::telemetry::{SamplerCursor, TelemetryHub};
use crate::transport::Endpoint;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Instant;

/// Upper bound on messages absorbed per ingest burst. The cap keeps a steady
/// inbound stream from starving the placement pass that follows each burst;
/// 64 is the value the batched-ingest A/B was settled at (EXPERIMENTS.md,
/// "Settled A/Bs") and the only one any workload, test or bench ever ran.
const MAX_BURST: usize = 64;

/// The live sink: every outbound message goes straight onto the transport.
impl Sink for Endpoint {
    fn send_exec(&self, worker: WorkerId, msg: ExecMsg) {
        Endpoint::send_exec(self, worker, msg);
    }
    fn send_data(&self, worker: WorkerId, msg: DataMsg) {
        Endpoint::send_data(self, worker, msg);
    }
    fn send_client(&self, client: ClientId, msg: ClientMsg) {
        Endpoint::send_client(self, client, msg);
    }
}

impl Scheduler<Endpoint> {
    /// Pump `rx` into the core until `Shutdown` (or until every sender is
    /// gone). Each iteration blocks for one message (or until a deadline),
    /// drains up to `MAX_BURST - 1` more without blocking, and steps the
    /// core on the burst. `telemetry` gets the scheduler gauges after every step, and a
    /// flight sample whenever one is due (and a last one on the way out).
    pub fn run(mut self, rx: Receiver<SchedMsg>, telemetry: Arc<TelemetryHub>) {
        let mut burst: Vec<SchedMsg> = Vec::with_capacity(MAX_BURST);
        let mut flight = SamplerCursor::new();
        loop {
            // Block until a message arrives or the next flight sample is
            // due, or sooner for the next sweep/backoff deadline, so that
            // failures are detected even on an idle inbox.
            let due = self
                .wakeup_deadline()
                .map_or(flight.due(), |deadline| deadline.min(flight.due()));
            match rx.recv_timeout(due.saturating_duration_since(Instant::now())) {
                Ok(msg) => burst.push(msg),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if !burst.is_empty() {
                while burst.len() < MAX_BURST {
                    match rx.try_recv() {
                        Ok(msg) => burst.push(msg),
                        Err(_) => break,
                    }
                }
            }
            let now = Instant::now();
            let report = self.step(&mut burst, now);
            if report.placed {
                self.stats
                    .record_assign_pass(now.elapsed().as_nanos() as u64);
            }
            self.publish_gauges(&telemetry);
            if now >= flight.due() {
                telemetry.sample(&mut flight);
            }
            if report.shutdown {
                break;
            }
        }
        telemetry.sample(&mut flight);
    }
}
