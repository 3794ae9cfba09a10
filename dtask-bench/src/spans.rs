//! Benchmark-side spans: one record per call into a layer, taken from the
//! benchmark's own files (the program under test is not touched). Spans live
//! in memory and are written out when the run ends. A [`Probe`] without a
//! recorder is a no-op that never reads the clock.

use crate::measure::median;
use dtask::Json;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (the unit's root span).
    pub parent: Option<u32>,
    /// The unit this span belongs to; `None` for set-up spans.
    pub unit: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span log of one run.
pub struct Spans {
    epoch: Instant,
    log: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            log: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) -> u32 {
        let mut log = self.log.lock().expect("span log poisoned");
        log.push(span);
        (log.len() - 1) as u32
    }

    /// Durations (ns) of every span called `name`. Spans recorded inside
    /// units win; set-up spans answer only for a layer no unit exercised.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        let log = self.log.lock().expect("span log poisoned");
        let of = |in_unit: bool| -> Vec<f64> {
            log.iter()
                .filter(|s| s.name == name && s.unit.is_some() == in_unit && s.end_ns > 0)
                .map(|s| s.dur_ns() as f64)
                .collect()
        };
        let in_units = of(true);
        if in_units.is_empty() {
            of(false)
        } else {
            in_units
        }
    }

    /// Median duration of the spans called `name`, in nanoseconds.
    pub fn median_ns(&self, name: &str) -> f64 {
        median(&self.durations_ns(name))
    }

    pub fn len(&self) -> usize {
        self.log.lock().expect("span log poisoned").len()
    }

    pub fn to_json(&self) -> Json {
        let log = self.log.lock().expect("span log poisoned");
        let opt = |v: Option<u32>| v.map_or(Json::Null, |v| Json::from(u64::from(v)));
        Json::Arr(
            log.iter()
                .map(|s| {
                    Json::obj()
                        .set("name", s.name)
                        .set("start_ns", s.start_ns)
                        .set("end_ns", s.end_ns)
                        .set("parent", opt(s.parent))
                        .set("unit", opt(s.unit))
                })
                .collect(),
        )
    }
}

/// What a workload holds while it runs one unit: where spans go (if
/// anywhere), which unit they belong to, and the unit's root span.
#[derive(Clone, Copy)]
pub struct Probe<'a> {
    spans: Option<&'a Spans>,
    unit: Option<u32>,
    parent: Option<u32>,
}

impl<'a> Probe<'a> {
    /// A probe that records nothing.
    pub fn off() -> Self {
        Probe {
            spans: None,
            unit: None,
            parent: None,
        }
    }

    /// A probe for set-up work (no unit).
    pub fn setup(spans: Option<&'a Spans>) -> Self {
        Probe {
            spans,
            unit: None,
            parent: None,
        }
    }

    /// Open the root span of unit `unit`; the returned probe parents every
    /// span under it and the guard closes the root.
    pub fn unit(spans: Option<&'a Spans>, unit: u32) -> (Self, SpanGuard<'a>) {
        let root = Probe {
            spans,
            unit: Some(unit),
            parent: None,
        };
        let guard = root.span("unit");
        let probe = Probe {
            parent: guard.id,
            ..root
        };
        (probe, guard)
    }

    pub fn is_on(&self) -> bool {
        self.spans.is_some()
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'a> {
        let id = self.spans.map(|spans| {
            spans.push(Span {
                name,
                start_ns: spans.ns(Instant::now()),
                end_ns: 0,
                parent: self.parent,
                unit: self.unit,
            })
        });
        SpanGuard {
            spans: self.spans,
            id,
        }
    }

    /// Record a span whose ends were observed on different threads.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if let Some(spans) = self.spans {
            spans.push(Span {
                name,
                start_ns: spans.ns(start),
                end_ns: spans.ns(end).max(spans.ns(start) + 1),
                parent: self.parent,
                unit: self.unit,
            });
        }
    }
}

pub struct SpanGuard<'a> {
    spans: Option<&'a Spans>,
    id: Option<u32>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(spans), Some(id)) = (self.spans, self.id) {
            let end = spans.ns(Instant::now());
            if let Ok(mut log) = spans.log.lock() {
                let span = &mut log[id as usize];
                span.end_ns = end.max(span.start_ns + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_probe_records_nothing() {
        let probe = Probe::off();
        drop(probe.span("x"));
        probe.record("y", Instant::now(), Instant::now());
        assert!(!probe.is_on());
    }

    #[test]
    fn unit_spans_are_parented_and_preferred_over_setup_spans() {
        let spans = Spans::new();
        drop(Probe::setup(Some(&spans)).span("layer"));
        {
            let (probe, _root) = Probe::unit(Some(&spans), 3);
            drop(probe.span("layer"));
            drop(probe.span("layer"));
        }
        assert_eq!(spans.len(), 4);
        assert_eq!(spans.durations_ns("layer").len(), 2);
        assert_eq!(spans.durations_ns("unit").len(), 1);
        let doc = spans.to_json();
        let arr = doc.as_arr().unwrap();
        // setup span, unit root, two children of the root (index 1).
        assert_eq!(arr[2].get("parent").and_then(Json::as_f64), Some(1.0));
        assert_eq!(arr[2].get("unit").and_then(Json::as_f64), Some(3.0));
        assert!(arr[0].get("unit").unwrap().as_f64().is_none());
    }
}
