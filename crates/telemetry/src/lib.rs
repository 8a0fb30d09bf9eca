//! Workspace-wide observability: lock-free counters, log-linear latency
//! histograms, gauges, RAII span timers, and per-request traces.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Recording never touches any RNG and never feeds
//!    back into computation, so enabling or disabling telemetry cannot
//!    change a verdict, a loss, or a feature vector (there is a test for
//!    this in `soteria`). Sampling decisions are pure functions of
//!    `(key, seed, rate)` — see [`sample_decision`].
//! 2. **Mutex-free hot path.** [`counter`], [`record`] and the gauges
//!    touch only atomics (plus a one-time allocation when a name is first
//!    interned). The only mutex in the crate guards the
//!    finished-trace sink, which is written once per *sampled request*,
//!    never per stage.
//! 3. **Cheap when off.** With recording disabled every call reduces to
//!    a thread-local read plus one relaxed atomic load, and allocates
//!    nothing (`tests/alloc_free.rs` asserts this with a counting
//!    allocator).
//! 4. **No new dependencies.** Built on `std` atomics + `serde`, which
//!    the workspace already carries.
//!
//! # Usage
//!
//! ```
//! use soteria_telemetry as telemetry;
//!
//! telemetry::counter("samples.analyzed", 3);
//! {
//!     let _span = telemetry::span("pipeline.analyze");
//!     // ... timed work ...
//! } // duration recorded on drop, in milliseconds
//! let report = telemetry::snapshot();
//! assert_eq!(report.counter("samples.analyzed"), Some(3));
//! assert!(report.span("pipeline.analyze").is_some());
//! ```
//!
//! Span names are dot-separated paths (`features.extract.walks`); the
//! summary table and JSON export sort by name, so related spans group
//! together.
//!
//! # Registries and scoping
//!
//! All free functions act on the *active* registry: the top of a
//! thread-local stack, falling back to a process-wide default. Tests
//! create an isolated registry with [`scoped`] (so they run in parallel
//! without a lock), and hand it to worker threads via
//! [`ScopedRegistry::handle`] + [`RegistryHandle::attach`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod registry;
mod report;
mod trace;

pub use registry::Registry;
pub use report::{CounterStats, GaugeStats, MetricsReport, SpanStats};
pub use trace::{flame_view, sample_decision, Trace, TraceBuilder, TraceStage};

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

fn global() -> &'static Arc<Registry> {
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

thread_local! {
    /// Per-thread stack of scoped registries; the top is "active".
    static STACK: RefCell<Vec<Arc<Registry>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` against the active registry without cloning the `Arc`.
fn with_active<R>(f: impl FnOnce(&Registry) -> R) -> R {
    STACK.with(|s| {
        let stack = s.borrow();
        match stack.last() {
            Some(reg) => f(reg),
            None => f(global()),
        }
    })
}

/// Pushes a fresh, isolated [`Registry`] as this thread's active
/// registry until the returned guard drops. Scopes nest (LIFO). The
/// guard is not `Send`: it must drop on the thread that created it.
///
/// This is how tests isolate their metrics from each other and run in
/// parallel — nothing they record reaches the process-wide registry.
pub fn scoped() -> ScopedRegistry {
    let reg = Arc::new(Registry::new());
    STACK.with(|s| s.borrow_mut().push(reg.clone()));
    ScopedRegistry {
        reg,
        _not_send: PhantomData,
    }
}

/// Guard returned by [`scoped`]; the scope ends when it drops.
pub struct ScopedRegistry {
    reg: Arc<Registry>,
    _not_send: PhantomData<*const ()>,
}

impl ScopedRegistry {
    /// A handle to this scope's registry, for attaching worker threads.
    pub fn handle(&self) -> RegistryHandle {
        RegistryHandle(Some(self.reg.clone()))
    }
}

impl std::ops::Deref for ScopedRegistry {
    type Target = Registry;

    fn deref(&self) -> &Registry {
        &self.reg
    }
}

impl Drop for ScopedRegistry {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|r| Arc::ptr_eq(r, &self.reg)) {
                stack.remove(pos);
            }
        });
    }
}

/// A cloneable, sendable reference to a registry, used to carry the
/// caller's active registry into spawned threads: capture
/// [`RegistryHandle::current`] before spawning, then [`attach`] inside
/// the thread.
///
/// [`attach`]: RegistryHandle::attach
#[derive(Clone)]
pub struct RegistryHandle(Option<Arc<Registry>>);

impl RegistryHandle {
    /// The calling thread's active registry (`None` means the process
    /// default, which every thread already sees — attaching is then a
    /// no-op).
    pub fn current() -> RegistryHandle {
        RegistryHandle(STACK.with(|s| s.borrow().last().cloned()))
    }

    /// Makes this handle's registry the calling thread's active registry
    /// until the returned guard drops (not `Send`; drop it on the same
    /// thread).
    pub fn attach(&self) -> AttachGuard {
        let active = match &self.0 {
            Some(reg) => {
                STACK.with(|s| s.borrow_mut().push(reg.clone()));
                Some(reg.clone())
            }
            None => None,
        };
        AttachGuard {
            reg: active,
            _not_send: PhantomData,
        }
    }
}

/// Guard returned by [`RegistryHandle::attach`].
pub struct AttachGuard {
    reg: Option<Arc<Registry>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        if let Some(reg) = self.reg.take() {
            STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|r| Arc::ptr_eq(r, &reg)) {
                    stack.remove(pos);
                }
            });
        }
    }
}

/// Enables or disables all recording on the active registry.
pub fn set_enabled(enabled: bool) {
    with_active(|r| r.set_enabled(enabled));
}

/// Whether recording is currently enabled on the active registry.
pub fn enabled() -> bool {
    with_active(|r| r.enabled())
}

/// Adds `delta` to the named monotonic counter. Lock-free: an FNV probe
/// to the interned cell plus one relaxed striped `fetch_add`.
pub fn counter(name: &str, delta: u64) {
    with_active(|r| {
        if r.enabled() {
            r.counter(name, delta);
        }
    });
}

/// Records one raw histogram observation under `name` (same stream the
/// span timers write their millisecond durations to). Lock-free.
pub fn record(name: &str, value: f64) {
    with_active(|r| {
        if r.enabled() {
            r.record(name, value);
        }
    });
}

/// Sets the named gauge to an absolute value (instantaneous state such
/// as a thread-pool size). Lock-free.
pub fn gauge_set(name: &str, value: i64) {
    with_active(|r| {
        if r.enabled() {
            r.gauge_set(name, value);
        }
    });
}

/// Adds `delta` (possibly negative) to the named gauge — the increment/
/// decrement form used for queue depth and in-flight tracking. Lock-free.
pub fn gauge_add(name: &str, delta: i64) {
    with_active(|r| {
        if r.enabled() {
            r.gauge_add(name, delta);
        }
    });
}

/// Publishes a finished trace into the active registry's bounded sink
/// (dropped when recording is disabled).
pub fn publish_trace(trace: Trace) {
    with_active(|r| {
        if r.enabled() {
            r.traces.publish(trace);
        }
    });
}

/// Up to `n` most recent finished traces, oldest first.
pub fn recent_traces(n: usize) -> Vec<Trace> {
    with_active(|r| r.traces.recent(n))
}

/// Number of traces currently retained.
pub fn trace_count() -> usize {
    with_active(|r| r.traces.len())
}

/// Operations dropped by the active registry (name-table exhaustion or a
/// name reused with a different metric kind).
pub fn dropped_ops() -> u64 {
    with_active(|r| r.dropped_ops())
}

/// Starts an RAII span timer; the elapsed wall time in milliseconds is
/// recorded under `name` when the guard drops. The guard pins the
/// registry that was active at creation, so it can safely drop on
/// another thread. Disabled telemetry returns an inert guard without
/// allocating.
pub fn span(name: &str) -> Span {
    STACK.with(|s| {
        let stack = s.borrow();
        let reg = match stack.last() {
            Some(reg) => reg,
            None => global(),
        };
        if !reg.enabled() {
            return Span { active: None };
        }
        match reg.hist_slot(name) {
            Some(slot) => Span {
                active: Some(SpanTarget {
                    reg: reg.clone(),
                    slot,
                    start: Instant::now(),
                }),
            },
            None => Span { active: None },
        }
    })
}

struct SpanTarget {
    reg: Arc<Registry>,
    slot: usize,
    start: Instant,
}

/// Guard returned by [`span`]. Records on drop; [`Span::cancel`] discards
/// the measurement instead.
#[must_use = "a span records its duration when dropped; binding it to `_` drops immediately"]
pub struct Span {
    active: Option<SpanTarget>,
}

impl Span {
    /// Discards the measurement.
    pub fn cancel(mut self) {
        self.active = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t) = self.active.take() {
            t.reg
                .record_at(t.slot, t.start.elapsed().as_secs_f64() * 1e3);
        }
    }
}

/// Clears the active registry's counters, histograms, and traces
/// (gauges mirror live state and are left alone; the enabled flag is
/// unchanged). Race-safe: recording from other threads may land on
/// either side of the reset but is never torn.
pub fn reset() {
    with_active(|r| r.reset());
}

/// Takes a point-in-time copy of everything recorded so far. Each metric
/// is read atomically; there is no cross-metric linearization point.
pub fn snapshot() -> MetricsReport {
    with_active(|r| r.snapshot())
}

/// Prints the summary table to stderr when `SOTERIA_METRICS=summary` is
/// set. Binaries call this once before exiting.
pub fn print_summary_if_requested() {
    if std::env::var("SOTERIA_METRICS").as_deref() == Ok("summary") {
        eprintln!("--- telemetry summary ---");
        eprint!("{}", snapshot().summary_table());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test pins its own scoped registry, so they run in parallel
    // with no shared state and no lock.

    #[test]
    fn counters_accumulate_and_reset() {
        let _scope = scoped();
        counter("t.a", 2);
        counter("t.a", 3);
        counter("t.b", 1);
        let report = snapshot();
        assert_eq!(report.counter("t.a"), Some(5));
        assert_eq!(report.counter("t.b"), Some(1));
        assert_eq!(report.counter("t.missing"), None);
        reset();
        // Zeroed counters drop out of the report, as before the rewrite.
        assert_eq!(snapshot().counter("t.a"), None);
    }

    #[test]
    fn histogram_aggregates_are_exact_and_quantiles_tight() {
        let _scope = scoped();
        // 1..=100 in scrambled order.
        for i in 0..100u64 {
            record("t.h", ((i * 37 + 11) % 100 + 1) as f64);
        }
        let report = snapshot();
        let s = report.span("t.h").expect("histogram exists");
        assert_eq!(s.count, 100);
        assert_eq!(s.min_ms, 1.0);
        assert_eq!(s.max_ms, 100.0);
        assert_eq!(s.total_ms, 5050.0);
        assert_eq!(s.mean_ms, 50.5);
        // Nearest-rank targets 51 / 90 / 95 / 99; the log-linear buckets
        // answer within their ~1.6% resolution.
        for (got, want) in [
            (s.p50_ms, 51.0),
            (s.p90_ms, 90.0),
            (s.p95_ms, 95.0),
            (s.p99_ms, 99.0),
        ] {
            let rel = (got - want).abs() / want;
            assert!(rel < 0.02, "quantile {got} vs {want}: rel err {rel}");
        }
    }

    #[test]
    fn span_records_on_drop_and_cancel_discards() {
        let _scope = scoped();
        {
            let _s = span("t.span");
        }
        span("t.cancelled").cancel();
        let report = snapshot();
        assert_eq!(report.span("t.span").map(|s| s.count), Some(1));
        assert!(report.span("t.span").expect("exists").total_ms >= 0.0);
        assert!(report.span("t.cancelled").is_none());
    }

    #[test]
    fn disabled_recording_is_dropped() {
        let _scope = scoped();
        set_enabled(false);
        counter("t.off", 1);
        record("t.off.h", 1.0);
        gauge_set("t.off.g", 5);
        let s = span("t.off.span");
        drop(s);
        set_enabled(true);
        let report = snapshot();
        assert_eq!(report.counter("t.off"), None);
        assert!(report.span("t.off.h").is_none());
        assert_eq!(report.gauge("t.off.g"), None);
        assert!(report.span("t.off.span").is_none());
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        let scope = scoped();
        let handle = scope.handle();
        std::thread::scope(|s| {
            for t in 0..8 {
                let handle = handle.clone();
                s.spawn(move || {
                    let _attach = handle.attach();
                    for i in 0..1000u64 {
                        counter("t.conc", 1);
                        record("t.conc.h", (t * 1000 + i) as f64);
                    }
                });
            }
        });
        let report = snapshot();
        assert_eq!(report.counter("t.conc"), Some(8000));
        let h = report.span("t.conc.h").expect("histogram exists");
        assert_eq!(h.count, 8000);
        assert_eq!(h.min_ms, 0.0);
        assert_eq!(h.max_ms, 7999.0);
        // Small-integer sums are order-independent in f64, so the striped
        // sum is exact regardless of interleaving.
        assert_eq!(h.total_ms, (7999.0 * 8000.0) / 2.0);
    }

    #[test]
    fn scoped_registries_isolate_and_nest() {
        let outer = scoped();
        counter("t.scope", 1);
        {
            let _inner = scoped();
            counter("t.scope", 10);
            assert_eq!(snapshot().counter("t.scope"), Some(10));
        }
        assert_eq!(snapshot().counter("t.scope"), Some(1));
        drop(outer);
    }

    #[test]
    fn spans_survive_scope_teardown_on_other_threads() {
        // A span created under a scope pins that registry, so dropping it
        // after the scope ends must not panic or write elsewhere.
        let s = {
            let _scope = scoped();
            span("t.pin")
        };
        drop(s);
    }

    #[test]
    fn gauges_track_instantaneous_state() {
        let _scope = scoped();
        gauge_add("t.depth", 3);
        gauge_add("t.depth", -1);
        gauge_set("t.threads", 8);
        let report = snapshot();
        assert_eq!(report.gauge("t.depth"), Some(2));
        assert_eq!(report.gauge("t.threads"), Some(8));
        // Reset leaves gauges alone: they mirror live state.
        reset();
        assert_eq!(snapshot().gauge("t.threads"), Some(8));
    }

    #[test]
    fn traces_publish_and_expose() {
        let _scope = scoped();
        let mut b = TraceBuilder::new(7);
        let root = b.begin("request", None);
        b.end(root);
        publish_trace(b.finish());
        assert_eq!(trace_count(), 1);
        let traces = recent_traces(10);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].id, 7);
        reset();
        assert_eq!(trace_count(), 0);
    }

    #[test]
    fn kind_conflicts_are_counted_not_corrupting() {
        let _scope = scoped();
        counter("t.kind", 1);
        record("t.kind", 2.0); // same name, different kind → dropped
        let report = snapshot();
        assert_eq!(report.counter("t.kind"), Some(1));
        assert!(report.span("t.kind").is_none());
        assert!(dropped_ops() >= 1);
    }

    #[test]
    fn report_round_trips_through_json() {
        let _scope = scoped();
        counter("t.json", 7);
        gauge_set("t.json.g", -2);
        record("t.json.h", 1.25);
        record("t.json.h", 2.5);
        let report = snapshot();
        let json = report.to_json().expect("serializes");
        let back: MetricsReport = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn exposition_round_trips_from_live_snapshot() {
        let _scope = scoped();
        counter("t.expo", 3);
        gauge_add("t.expo.g", 4);
        record("t.expo.h", 0.125);
        record("t.expo.h", 7.5);
        let report = snapshot();
        let back = MetricsReport::parse_text(&report.render_text()).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn summary_table_lists_everything() {
        let _scope = scoped();
        counter("t.table.c", 4);
        gauge_set("t.table.g", 2);
        record("t.table.h", 3.0);
        let table = snapshot().summary_table();
        assert!(table.contains("t.table.c"));
        assert!(table.contains("t.table.g"));
        assert!(table.contains("t.table.h"));
        let empty = scoped();
        assert!(snapshot().summary_table().contains("no metrics"));
        drop(empty);
    }

    #[test]
    fn large_histograms_keep_aggregates_exact() {
        let _scope = scoped();
        let n = 100_000u64;
        for i in 0..n {
            record("t.cap", i as f64);
        }
        let report = snapshot();
        let h = report.span("t.cap").expect("histogram exists");
        assert_eq!(h.count, n);
        assert_eq!(h.max_ms, (n - 1) as f64);
        assert_eq!(h.total_ms, (n * (n - 1) / 2) as f64);
    }
}
