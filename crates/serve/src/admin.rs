//! Admin verbs for the serve line protocol: live metrics, trace, and
//! health exposition.
//!
//! Any front end (stdin or TCP) can interleave these with screening
//! requests:
//!
//! | verb           | response                                           |
//! |----------------|----------------------------------------------------|
//! | `METRICS`      | text exposition lines, terminated by `# EOF`       |
//! | `METRICS json` | the full [`MetricsReport`] as one JSON line        |
//! | `TRACES [n]`   | up to `n` recent traces as JSON lines + `# EOF`    |
//! | `HEALTH`       | one JSON line of liveness counters                 |
//! | `SWAP <path>`  | hot-swaps the served model from a v3 artifact      |
//!
//! Verbs are upper-case to stay disjoint from request lines (filesystem
//! paths and `hex:` payloads). Malformed arguments answer with the same
//! single-line `{"error":…}` shape the screening protocol uses — an
//! admin typo must never kill a connection.

use crate::service::{ScreeningService, ServiceStats};
use soteria_telemetry::MetricsReport;
use std::time::Duration;

/// Most traces one `TRACES` request will return (matches the sink's
/// retention bound).
pub const TRACES_MAX: usize = 512;

/// Traces returned when `TRACES` is given without a count.
pub const TRACES_DEFAULT: usize = 16;

/// Answers `line` if it is an admin verb, reading live state from the
/// service; `None` hands the line back to the screening protocol.
///
/// `SWAP <path>` is handled here (not in [`respond`]) because it mutates
/// the service: it loads a `SOTERIA-STATE v3` artifact and atomically
/// installs it as the serving model. A load failure answers with the
/// usual `{"error":…}` line and leaves the current model serving.
pub fn handle_admin(service: &ScreeningService, line: &str) -> Option<String> {
    let mut parts = line.split_whitespace();
    if parts.next() == Some("SWAP") {
        let response = match (parts.next(), parts.next()) {
            (Some(path), None) => match service.swap_from_path(std::path::Path::new(path)) {
                Ok(epoch) => format!("{{\"swapped\":true,\"epoch\":{epoch}}}"),
                Err(e) => error_line(&format!("swap failed: {e}")),
            },
            _ => error_line("SWAP wants exactly one artifact path"),
        };
        soteria_telemetry::counter("serve.admin.requests", 1);
        return Some(response);
    }
    respond(&service.stats(), service.uptime(), line)
}

/// The verb dispatcher behind [`handle_admin`], taking the service state
/// as plain values so tests can drive it without a trained model.
/// Telemetry is read from the caller's active registry.
pub fn respond(stats: &ServiceStats, uptime: Duration, line: &str) -> Option<String> {
    let mut parts = line.split_whitespace();
    let response = match parts.next()? {
        "METRICS" => match (parts.next(), parts.next()) {
            (None, _) => metrics_text(),
            (Some("json"), None) => metrics_json(),
            _ => error_line("METRICS takes no argument or the word json"),
        },
        "TRACES" => match (parts.next(), parts.next()) {
            (None, _) => traces_text(TRACES_DEFAULT),
            (Some(n), None) => match n.parse::<usize>() {
                Ok(n) => traces_text(n.min(TRACES_MAX)),
                Err(_) => error_line("TRACES wants a non-negative count"),
            },
            _ => error_line("TRACES takes at most one argument"),
        },
        "HEALTH" => {
            if parts.next().is_some() {
                error_line("HEALTH takes no arguments")
            } else {
                health_json(stats, uptime)
            }
        }
        _ => return None,
    };
    soteria_telemetry::counter("serve.admin.requests", 1);
    Some(response)
}

/// `{"error":"…"}` — the same malformed-input shape screening uses.
fn error_line(message: &str) -> String {
    format!(
        "{{\"error\":\"{}\"}}",
        crate::protocol::escape_json(message)
    )
}

/// The text exposition of the current snapshot, `# EOF`-terminated so
/// stream clients know the response is complete.
fn metrics_text() -> String {
    let mut out = soteria_telemetry::snapshot().render_text();
    out.push_str("# EOF");
    out
}

/// The current snapshot as one JSON line.
fn metrics_json() -> String {
    let report = soteria_telemetry::snapshot();
    serde_json::to_string(&report)
        .unwrap_or_else(|e| error_line(&format!("metrics serialization failed: {e}")))
}

/// Up to `n` recent traces, one JSON line each, `# EOF`-terminated.
fn traces_text(n: usize) -> String {
    let mut out = String::new();
    for trace in soteria_telemetry::recent_traces(n) {
        out.push_str(&trace.to_json_line());
        out.push('\n');
    }
    out.push_str("# EOF");
    out
}

/// One JSON line of liveness state (integers only, so the line is stable
/// to parse from any client). Besides service counters this surfaces the
/// telemetry registry's own saturation signal — `dropped_ops`
/// (name-table exhaustion / kind conflicts) — so a registry silently
/// losing data is visible from the same probe that watches the service.
fn health_json(stats: &ServiceStats, uptime: Duration) -> String {
    format!(
        "{{\"status\":\"ok\",\"uptime_ms\":{},\"submitted\":{},\"rejected\":{},\
         \"in_flight\":{},\"deadline_expired\":{},\"brownout\":{},\"breaker_trips\":{},\
         \"epoch\":{},\"swaps\":{},\
         \"cache_entries\":{},\"cache_hits\":{},\"cache_lookups\":{},\
         \"telemetry_dropped_ops\":{}}}",
        uptime.as_millis(),
        stats.submitted,
        stats.rejected,
        stats.in_flight,
        stats.deadline_expired,
        stats.brownout,
        stats.breaker_trips,
        stats.epoch,
        stats.swaps,
        stats.cache.entries,
        stats.cache.hits,
        stats.cache.lookups,
        soteria_telemetry::dropped_ops()
    )
}

/// Parses a `METRICS` text response back into a report (strips the
/// `# EOF` terminator first). What `soteria-cli metrics --connect` uses.
///
/// # Errors
///
/// Returns a message naming the malformed line.
pub fn parse_metrics_response(text: &str) -> Result<MetricsReport, String> {
    MetricsReport::parse_text(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;

    fn stats() -> ServiceStats {
        ServiceStats {
            submitted: 10,
            rejected: 1,
            in_flight: 2,
            deadline_expired: 3,
            brownout: 4,
            breaker_trips: 1,
            epoch: 2,
            swaps: 2,
            cache: CacheStats {
                lookups: 10,
                hits: 4,
                misses: 6,
                evictions: 0,
                inserts: 6,
                entries: 6,
            },
        }
    }

    #[test]
    fn non_admin_lines_fall_through() {
        let s = stats();
        for line in [
            "",
            "hex:00ff",
            "/some/path",
            "metrics",
            "Traces 5",
            "health",
        ] {
            assert_eq!(respond(&s, Duration::ZERO, line), None, "line {line:?}");
        }
    }

    #[test]
    fn health_is_one_json_line_of_integers() {
        let _scope = soteria_telemetry::scoped();
        let line = respond(&stats(), Duration::from_millis(1234), "HEALTH").expect("admin verb");
        assert!(!line.contains('\n'));
        assert!(line.contains("\"uptime_ms\":1234"));
        assert!(line.contains("\"in_flight\":2"));
        assert!(line.contains("\"cache_entries\":6"));
        assert!(line.contains("\"deadline_expired\":3"));
        assert!(line.contains("\"brownout\":4"));
        assert!(line.contains("\"breaker_trips\":1"));
        assert!(line.contains("\"epoch\":2"));
        assert!(line.contains("\"swaps\":2"));
        assert!(line.contains("\"telemetry_dropped_ops\":0"));
    }

    #[test]
    fn health_surfaces_registry_saturation() {
        let _scope = soteria_telemetry::scoped();
        // Force a kind conflict: one dropped op.
        soteria_telemetry::counter("admin.conflict", 1);
        soteria_telemetry::record("admin.conflict", 1.0);
        let line = respond(&stats(), Duration::ZERO, "HEALTH").expect("admin verb");
        assert!(
            line.contains("\"telemetry_dropped_ops\":1"),
            "dropped op invisible: {line}"
        );
    }

    #[test]
    fn metrics_text_round_trips_and_terminates() {
        let _scope = soteria_telemetry::scoped();
        soteria_telemetry::counter("admin.test.c", 5);
        soteria_telemetry::record("admin.test.h", 1.5);
        let text = respond(&stats(), Duration::ZERO, "METRICS").expect("admin verb");
        assert!(text.ends_with("# EOF"));
        let parsed = parse_metrics_response(&text).expect("parses");
        assert_eq!(parsed.counter("admin.test.c"), Some(5));
        assert_eq!(parsed.span("admin.test.h").map(|s| s.count), Some(1));
    }

    #[test]
    fn metrics_json_is_one_line() {
        let _scope = soteria_telemetry::scoped();
        soteria_telemetry::counter("admin.json.c", 1);
        let line = respond(&stats(), Duration::ZERO, "METRICS json").expect("admin verb");
        assert!(!line.contains('\n'));
        let report: MetricsReport = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(report.counter("admin.json.c"), Some(1));
    }

    #[test]
    fn traces_respects_bounds_and_rejects_garbage() {
        let _scope = soteria_telemetry::scoped();
        for i in 0..5u64 {
            let mut b = soteria_telemetry::TraceBuilder::new(i);
            let root = b.begin("request", None);
            b.end(root);
            soteria_telemetry::publish_trace(b.finish());
        }
        let s = stats();
        let two = respond(&s, Duration::ZERO, "TRACES 2").expect("admin verb");
        assert_eq!(two.lines().count(), 3, "2 traces + EOF: {two}");
        let zero = respond(&s, Duration::ZERO, "TRACES 0").expect("admin verb");
        assert_eq!(zero, "# EOF");
        let all = respond(&s, Duration::ZERO, "TRACES 99999").expect("admin verb");
        assert_eq!(all.lines().count(), 6, "clamped, 5 traces + EOF");
        for bad in [
            "TRACES -1",
            "TRACES x",
            "TRACES 1 2",
            "METRICS yaml",
            "HEALTH now",
        ] {
            let r = respond(&s, Duration::ZERO, bad).expect("recognized verb");
            assert!(r.starts_with("{\"error\":"), "{bad} -> {r}");
        }
    }

    #[test]
    fn metrics_under_concurrent_load_stays_parseable() {
        let scope = soteria_telemetry::scoped();
        let handle = scope.handle();
        let s = stats();
        std::thread::scope(|ts| {
            for t in 0..4 {
                let handle = handle.clone();
                ts.spawn(move || {
                    let _attach = handle.attach();
                    for i in 0..5000u64 {
                        soteria_telemetry::counter("admin.load.c", 1);
                        soteria_telemetry::record("admin.load.h", (t * 5000 + i) as f64);
                    }
                });
            }
            // Snapshot and parse while the writers are still hammering.
            for _ in 0..20 {
                let text = respond(&s, Duration::ZERO, "METRICS").expect("admin verb");
                let parsed = parse_metrics_response(&text).expect("parses mid-load");
                if let Some(h) = parsed.span("admin.load.h") {
                    assert!(h.count <= 20_000, "count overshoot: {}", h.count);
                    assert!(h.max_ms <= 19_999.0);
                }
            }
        });
        let final_text = respond(&s, Duration::ZERO, "METRICS").expect("admin verb");
        let parsed = parse_metrics_response(&final_text).expect("parses");
        assert_eq!(parsed.counter("admin.load.c"), Some(20_000));
        assert_eq!(parsed.span("admin.load.h").map(|h| h.count), Some(20_000));
    }
}
