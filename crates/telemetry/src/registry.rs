//! The metric registry: a fixed-capacity, lock-free interning table from
//! metric name to typed metric cell.
//!
//! The hot path (`counter` / `record` / gauge updates) is mutex-free: a
//! name lookup is an FNV hash plus a linear probe over `OnceLock` slots
//! (each probe is one `Acquire` load), and the metric update itself is a
//! relaxed atomic op on the found cell. First use of a new name allocates
//! its node once; every later hit is allocation-free.
//!
//! Counters are striped across [`STRIPES`] cache-line-padded cells chosen
//! by a per-thread index, so eight threads hammering one counter touch
//! eight different cache lines; a snapshot sums the stripes.

use crate::events::EventRing;
use crate::hist::Hist;
use crate::report::{CounterStats, GaugeStats, MetricsReport, SpanStats};
use crate::trace::TraceSink;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Slots in the interning table. Power of two; at a fill ratio past ~75%
/// probes lengthen, but the workspace registers well under 200 names.
const TABLE_CAP: usize = 2048;

/// Stripes per counter / histogram sum (power of two).
pub(crate) const STRIPES: usize = 8;

/// A cache-line-padded atomic cell (avoids false sharing between stripes).
#[repr(align(64))]
#[derive(Default)]
pub(crate) struct PaddedU64(pub(crate) AtomicU64);

/// Monotonic source of per-thread stripe indices.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// This thread's stripe index, assigned round-robin on first use.
pub(crate) fn stripe_id() -> usize {
    STRIPE.with(|s| {
        let mut id = s.get();
        if id == usize::MAX {
            id = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
            s.set(id);
        }
        id
    })
}

/// FNV-1a over the metric name.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What kind of metric a name refers to. One name maps to exactly one
/// kind; reusing a name with a different kind drops the operation (and
/// counts it in [`Registry::dropped_ops`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Counter,
    Histogram,
    Gauge,
    Event,
}

/// A monotonic counter striped over padded cells.
pub(crate) struct Striped {
    cells: [PaddedU64; STRIPES],
}

impl Striped {
    fn new() -> Striped {
        Striped {
            cells: std::array::from_fn(|_| PaddedU64::default()),
        }
    }

    fn add(&self, delta: u64) {
        self.cells[stripe_id()]
            .0
            .fetch_add(delta, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    fn reset(&self) {
        for c in &self.cells {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

/// The typed payload of one interned name.
pub(crate) enum Metric {
    Counter(Box<Striped>),
    Histogram(Box<Hist>),
    Gauge(AtomicI64),
    /// Event names carry no aggregate; the ring buffer stores occurrences.
    Event,
}

impl Metric {
    fn new(kind: Kind) -> Metric {
        match kind {
            Kind::Counter => Metric::Counter(Box::new(Striped::new())),
            Kind::Histogram => Metric::Histogram(Box::new(Hist::new())),
            Kind::Gauge => Metric::Gauge(AtomicI64::new(0)),
            Kind::Event => Metric::Event,
        }
    }

    fn kind(&self) -> Kind {
        match self {
            Metric::Counter(_) => Kind::Counter,
            Metric::Histogram(_) => Kind::Histogram,
            Metric::Gauge(_) => Kind::Gauge,
            Metric::Event => Kind::Event,
        }
    }
}

/// One interned name plus its metric cell.
pub(crate) struct Node {
    pub(crate) name: String,
    pub(crate) metric: Metric,
}

/// An isolated metric registry. The process-wide default lives behind the
/// crate's free functions; tests and embedders can create their own with
/// [`Registry::new`] and install it per-thread via
/// [`RegistryHandle::attach`](crate::RegistryHandle::attach).
pub struct Registry {
    slots: Box<[OnceLock<Node>]>,
    /// Operations dropped because the table was full or a name was reused
    /// with a different metric kind.
    dropped: AtomicU64,
    enabled: AtomicBool,
    /// Creation instant; event timestamps are microseconds since this.
    pub(crate) epoch: Instant,
    pub(crate) traces: TraceSink,
    pub(crate) events: EventRing,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Creates an empty, enabled registry.
    pub fn new() -> Registry {
        Registry {
            slots: (0..TABLE_CAP).map(|_| OnceLock::new()).collect(),
            dropped: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            traces: TraceSink::new(),
            events: EventRing::new(),
        }
    }

    /// Whether recording is enabled for this registry.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables all recording into this registry.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Operations dropped by table exhaustion or kind conflicts.
    pub fn dropped_ops(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events lost to ring wrap-around (monotone; see the events module).
    pub fn events_overflow(&self) -> u64 {
        self.events.overflow()
    }

    /// Interns `name` as `kind` and returns its slot index. Lock-free on
    /// the hit path; first use of a name allocates its node (losing an
    /// insertion race allocates a node that is immediately discarded,
    /// which is harmless and rare).
    pub(crate) fn intern(&self, name: &str, kind: Kind) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = (fnv1a(name) as usize) & mask;
        for _ in 0..self.slots.len() {
            let slot = &self.slots[i];
            if slot.get().is_none() {
                let _ = slot.set(Node {
                    name: name.to_owned(),
                    metric: Metric::new(kind),
                });
            }
            let node = slot.get().expect("slot initialized above");
            if node.name == name {
                if node.metric.kind() == kind {
                    return Some(i);
                }
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            i = (i + 1) & mask;
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// The node at a slot index previously returned by [`intern`](Self::intern).
    pub(crate) fn node(&self, slot: usize) -> Option<&Node> {
        self.slots.get(slot).and_then(|s| s.get())
    }

    /// Adds `delta` to the named counter.
    pub(crate) fn counter(&self, name: &str, delta: u64) {
        if let Some(i) = self.intern(name, Kind::Counter) {
            if let Some(Node {
                metric: Metric::Counter(c),
                ..
            }) = self.node(i)
            {
                c.add(delta);
            }
        }
    }

    /// Records one histogram observation under `name`.
    pub(crate) fn record(&self, name: &str, value: f64) {
        if let Some(i) = self.intern(name, Kind::Histogram) {
            self.record_at(i, value);
        }
    }

    /// Interns an event name, returning its slot for the event ring.
    pub(crate) fn intern_event(&self, name: &str) -> Option<usize> {
        self.intern(name, Kind::Event)
    }

    /// Interns a histogram name, returning its slot for repeated
    /// hash-free recording (the span timers use this).
    pub(crate) fn hist_slot(&self, name: &str) -> Option<usize> {
        self.intern(name, Kind::Histogram)
    }

    /// Records into a histogram slot returned by [`hist_slot`](Self::hist_slot).
    pub(crate) fn record_at(&self, slot: usize, value: f64) {
        if let Some(Node {
            metric: Metric::Histogram(h),
            ..
        }) = self.node(slot)
        {
            h.record(value);
        }
    }

    /// Sets the named gauge to an absolute value.
    pub(crate) fn gauge_set(&self, name: &str, value: i64) {
        if let Some(i) = self.intern(name, Kind::Gauge) {
            if let Some(Node {
                metric: Metric::Gauge(g),
                ..
            }) = self.node(i)
            {
                g.store(value, Ordering::Relaxed);
            }
        }
    }

    /// Adds `delta` (may be negative) to the named gauge.
    pub(crate) fn gauge_add(&self, name: &str, delta: i64) {
        if let Some(i) = self.intern(name, Kind::Gauge) {
            if let Some(Node {
                metric: Metric::Gauge(g),
                ..
            }) = self.node(i)
            {
                g.fetch_add(delta, Ordering::Relaxed);
            }
        }
    }

    /// Takes a point-in-time copy of every metric. Each individual metric
    /// reads atomically; metrics recorded concurrently with the snapshot
    /// land on one side of it per metric (there is no cross-metric
    /// linearization point — and no lock that would provide one).
    pub fn snapshot(&self) -> MetricsReport {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut spans = Vec::new();
        for slot in self.slots.iter() {
            let Some(node) = slot.get() else { continue };
            // Zero-activity counters/histograms stay out of the report:
            // interning alone (e.g. a cancelled span) is not a metric.
            match &node.metric {
                Metric::Counter(c) => {
                    let value = c.sum();
                    if value == 0 {
                        continue;
                    }
                    counters.push(CounterStats {
                        name: node.name.clone(),
                        value,
                    });
                }
                Metric::Gauge(g) => gauges.push(GaugeStats {
                    name: node.name.clone(),
                    value: g.load(Ordering::Relaxed),
                }),
                Metric::Histogram(h) => {
                    let s = h.load();
                    if s.count == 0 {
                        continue;
                    }
                    spans.push(SpanStats {
                        name: node.name.clone(),
                        count: s.count,
                        total_ms: s.sum,
                        mean_ms: if s.count == 0 {
                            0.0
                        } else {
                            s.sum / s.count as f64
                        },
                        min_ms: s.min,
                        max_ms: s.max,
                        p50_ms: s.quantile(0.50),
                        p90_ms: s.quantile(0.90),
                        p95_ms: s.quantile(0.95),
                        p99_ms: s.quantile(0.99),
                    });
                }
                Metric::Event => {}
            }
        }
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        spans.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsReport {
            counters,
            gauges,
            spans,
        }
    }

    /// Clears counters and histograms (names stay interned), the event
    /// ring, and the trace sink. Gauges are *not* cleared: they mirror
    /// live state (queue depth, residency) that a metrics reset does not
    /// change. Race-safe: operations concurrent with a reset land on one
    /// side of it without tearing any metric, so no external lock is
    /// needed to call this while other threads record.
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            let Some(node) = slot.get() else { continue };
            match &node.metric {
                Metric::Counter(c) => c.reset(),
                Metric::Histogram(h) => h.reset(),
                Metric::Gauge(_) | Metric::Event => {}
            }
        }
        self.events.clear();
        self.traces.clear();
    }
}
