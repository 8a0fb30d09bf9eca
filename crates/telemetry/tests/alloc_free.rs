//! Asserts the telemetry hot path allocates nothing once names are
//! interned — and, with recording disabled, allocates nothing at all.
//!
//! A counting global allocator wraps the system allocator; the one test
//! in this binary (kept alone so no parallel test can allocate under the
//! counter) measures the allocation delta across bursts of telemetry
//! calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// The counter itself uses no allocation, so counting is exact.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn alloc_delta(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn hot_path_is_allocation_free() {
    let scope = soteria_telemetry::scoped();

    // Warm-up interns every name (the one allowed allocation per name).
    soteria_telemetry::counter("alloc.c", 1);
    soteria_telemetry::record("alloc.h", 1.0);
    soteria_telemetry::gauge_add("alloc.g", 1);
    drop(soteria_telemetry::span("alloc.s"));

    // Enabled steady state: interned counters, histograms, gauges, and
    // spans must not touch the allocator.
    let enabled = alloc_delta(|| {
        for i in 0..1000 {
            soteria_telemetry::counter("alloc.c", 1);
            soteria_telemetry::record("alloc.h", i as f64);
            soteria_telemetry::gauge_add("alloc.g", 1);
            drop(soteria_telemetry::span("alloc.s"));
        }
    });
    assert_eq!(enabled, 0, "enabled steady-state hot path allocated");

    // Disabled: every call (even for never-seen names) must allocate
    // nothing — this is the `Span::cancel`/disabled-path guarantee.
    soteria_telemetry::set_enabled(false);
    let disabled = alloc_delta(|| {
        for i in 0..1000 {
            soteria_telemetry::counter("alloc.off.c", 1);
            soteria_telemetry::record("alloc.off.h", i as f64);
            soteria_telemetry::gauge_add("alloc.off.g", 1);
            let s = soteria_telemetry::span("alloc.off.s");
            s.cancel();
        }
    });
    assert_eq!(disabled, 0, "disabled telemetry path allocated");
    soteria_telemetry::set_enabled(true);

    drop(scope);
}
