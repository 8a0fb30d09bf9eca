//! Resilience primitives shared across the Soteria workspace.
//!
//! The pipeline's premise is surviving adversarial inputs, so merely
//! *malformed* ones must never take the process down. This crate holds the
//! pieces every layer shares:
//!
//! * [`FaultKind`] — the typed taxonomy of per-sample failures. A
//!   pathological input degrades into a structured verdict carrying one of
//!   these instead of aborting the batch.
//! * [`ResourceGuards`] — configurable admission limits (CFG size, walk
//!   budget, per-sample wall clock) checked before and during extraction.
//! * [`chaos_point`] — a deterministic fault-injection hook, armed by the
//!   `SOTERIA_CHAOS=<seed>` environment variable (or programmatically via
//!   [`set_chaos_seed`]), that injects panics and delays into pipeline
//!   stages so the isolation machinery is exercised end to end.
//! * [`crc32`] / [`atomic_write`] — crash-safe persistence building
//!   blocks: payload checksums and temp-file + fsync + rename writes.
//!
//! The crate is dependency-light (serde only) so every layer — `cfg`,
//! `corpus`, `features`, `core`, the binaries — can use it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod breaker;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};

use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::Write as _;
use std::panic::UnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Why a sample failed to produce a clean/adversarial verdict.
///
/// Every variant maps onto a telemetry counter `resilience.faults.<slug>`
/// (see [`FaultKind::slug`]) so fleet-wide fault rates are observable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultKind {
    /// A pipeline stage panicked while processing the sample; the panic
    /// was caught at the sample boundary.
    Panic {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The sample's CFG exceeds the configured node/edge admission limits.
    GraphTooLarge {
        /// Observed node count.
        nodes: usize,
        /// Observed edge count.
        edges: usize,
        /// Configured node limit (0 = the edge limit tripped).
        max_nodes: usize,
        /// Configured edge limit (0 = the node limit tripped).
        max_edges: usize,
    },
    /// The random-walk budget implied by the extractor configuration and
    /// graph size exceeds the configured cap.
    WalkBudgetExceeded {
        /// Estimated total walk steps for the sample.
        steps: usize,
        /// Configured cap.
        max_steps: usize,
    },
    /// Processing exceeded the per-sample wall-clock budget.
    Timeout {
        /// Observed elapsed milliseconds.
        elapsed_ms: u64,
        /// Configured budget in milliseconds.
        budget_ms: u64,
    },
    /// The input failed structural validation (container parse, lifting,
    /// or CFG construction).
    MalformedInput {
        /// The underlying typed error, rendered.
        message: String,
    },
    /// A fault injected by the `SOTERIA_CHAOS` hook (distinguished from
    /// organic panics so chaos runs can verify their own coverage).
    ChaosInjected {
        /// The stage the fault was injected into.
        stage: String,
    },
    /// The request's deadline expired before a verdict was computed. A
    /// load/timing outcome, not a content one — carriers of this fault
    /// must never enter content-keyed caches.
    DeadlineExceeded {
        /// Observed elapsed milliseconds when expiry was detected.
        elapsed_ms: u64,
        /// The deadline the request carried, in milliseconds.
        deadline_ms: u64,
    },
    /// The service answered in a degraded tier (e.g. an AE-only fast
    /// verdict) because it was shedding load. Also load-derived and
    /// therefore never cacheable.
    Overload {
        /// The degradation tier that answered (e.g. `"ae-only"`).
        tier: String,
    },
}

/// Prefix chaos-injected panics carry, letting the catch site classify
/// them as [`FaultKind::ChaosInjected`] rather than organic panics.
pub const CHAOS_PANIC_PREFIX: &str = "soteria-chaos: injected panic at ";

impl FaultKind {
    /// Builds the fault for a caught panic payload, classifying injected
    /// chaos panics separately from organic ones.
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        match message.strip_prefix(CHAOS_PANIC_PREFIX) {
            Some(stage) => FaultKind::ChaosInjected {
                stage: stage.to_string(),
            },
            None => FaultKind::Panic { message },
        }
    }

    /// Wraps a typed parse/lift error.
    pub fn malformed(err: impl fmt::Display) -> Self {
        FaultKind::MalformedInput {
            message: err.to_string(),
        }
    }

    /// A short stable identifier used as the telemetry counter suffix.
    pub fn slug(&self) -> &'static str {
        match self {
            FaultKind::Panic { .. } => "panic",
            FaultKind::GraphTooLarge { .. } => "graph_too_large",
            FaultKind::WalkBudgetExceeded { .. } => "walk_budget",
            FaultKind::Timeout { .. } => "timeout",
            FaultKind::MalformedInput { .. } => "malformed_input",
            FaultKind::ChaosInjected { .. } => "chaos",
            FaultKind::DeadlineExceeded { .. } => "deadline",
            FaultKind::Overload { .. } => "overload",
        }
    }

    /// Whether this fault is a pure function of the sample's content (and
    /// therefore safe to memoize in a content-keyed verdict cache). Load
    /// and timing faults return `false`: the same bytes may well succeed
    /// once the pressure passes.
    pub fn content_derived(&self) -> bool {
        !matches!(
            self,
            FaultKind::DeadlineExceeded { .. }
                | FaultKind::Overload { .. }
                | FaultKind::Timeout { .. }
        )
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panic { message } => write!(f, "stage panicked: {message}"),
            FaultKind::GraphTooLarge {
                nodes,
                edges,
                max_nodes,
                max_edges,
            } => write!(
                f,
                "graph too large: {nodes} nodes / {edges} edges \
                 (limits {max_nodes} / {max_edges})"
            ),
            FaultKind::WalkBudgetExceeded { steps, max_steps } => {
                write!(f, "walk budget exceeded: {steps} steps > {max_steps}")
            }
            FaultKind::Timeout {
                elapsed_ms,
                budget_ms,
            } => write!(
                f,
                "sample timed out: {elapsed_ms} ms > {budget_ms} ms budget"
            ),
            FaultKind::MalformedInput { message } => write!(f, "malformed input: {message}"),
            FaultKind::ChaosInjected { stage } => write!(f, "chaos fault injected at {stage}"),
            FaultKind::DeadlineExceeded {
                elapsed_ms,
                deadline_ms,
            } => write!(
                f,
                "deadline exceeded: {elapsed_ms} ms elapsed > {deadline_ms} ms deadline"
            ),
            FaultKind::Overload { tier } => {
                write!(f, "degraded under overload (tier {tier})")
            }
        }
    }
}

impl std::error::Error for FaultKind {}

/// Per-sample admission limits. `None` disables the corresponding check;
/// [`ResourceGuards::default`] enables generous limits that no legitimate
/// corpus sample approaches but a decompression-bomb-style input trips.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceGuards {
    /// Maximum CFG node count admitted to feature extraction.
    pub max_nodes: Option<usize>,
    /// Maximum CFG edge count admitted to feature extraction.
    pub max_edges: Option<usize>,
    /// Maximum estimated total random-walk steps per sample.
    pub max_walk_steps: Option<usize>,
    /// Per-sample wall-clock budget in milliseconds. Checked cooperatively
    /// (after extraction), so it flags rather than preempts a slow sample.
    pub sample_budget_ms: Option<u64>,
}

impl Default for ResourceGuards {
    fn default() -> Self {
        ResourceGuards {
            max_nodes: Some(1 << 20),
            max_edges: Some(1 << 22),
            max_walk_steps: Some(1 << 28),
            sample_budget_ms: None,
        }
    }
}

impl ResourceGuards {
    /// No limits at all — the pre-resilience behavior.
    pub fn unlimited() -> Self {
        ResourceGuards {
            max_nodes: None,
            max_edges: None,
            max_walk_steps: None,
            sample_budget_ms: None,
        }
    }

    /// Checks graph size against the node/edge limits.
    ///
    /// # Errors
    ///
    /// Returns [`FaultKind::GraphTooLarge`] when either limit is exceeded.
    pub fn admit_graph(&self, nodes: usize, edges: usize) -> Result<(), FaultKind> {
        let node_limit = self.max_nodes.unwrap_or(usize::MAX);
        let edge_limit = self.max_edges.unwrap_or(usize::MAX);
        if nodes > node_limit || edges > edge_limit {
            return Err(FaultKind::GraphTooLarge {
                nodes,
                edges,
                max_nodes: self.max_nodes.unwrap_or(0),
                max_edges: self.max_edges.unwrap_or(0),
            });
        }
        Ok(())
    }

    /// Checks an estimated walk-step total against the walk budget.
    ///
    /// # Errors
    ///
    /// Returns [`FaultKind::WalkBudgetExceeded`] when the budget is
    /// exceeded.
    pub fn admit_walk_steps(&self, steps: usize) -> Result<(), FaultKind> {
        match self.max_walk_steps {
            Some(max) if steps > max => Err(FaultKind::WalkBudgetExceeded {
                steps,
                max_steps: max,
            }),
            _ => Ok(()),
        }
    }

    /// Starts a wall-clock budget for one sample.
    pub fn start_budget(&self) -> SampleBudget {
        SampleBudget {
            started: Instant::now(),
            budget_ms: self.sample_budget_ms,
        }
    }
}

/// A running per-sample wall-clock budget (see
/// [`ResourceGuards::start_budget`]).
#[derive(Debug, Clone)]
pub struct SampleBudget {
    started: Instant,
    budget_ms: Option<u64>,
}

impl SampleBudget {
    /// Checks the elapsed time against the budget.
    ///
    /// # Errors
    ///
    /// Returns [`FaultKind::Timeout`] once the budget is exhausted.
    pub fn check(&self) -> Result<(), FaultKind> {
        if let Some(budget_ms) = self.budget_ms {
            let elapsed_ms = self.started.elapsed().as_millis() as u64;
            if elapsed_ms > budget_ms {
                return Err(FaultKind::Timeout {
                    elapsed_ms,
                    budget_ms,
                });
            }
        }
        Ok(())
    }
}

/// Runs `f` with panics confined to this sample: a panic (organic or
/// chaos-injected) becomes an `Err(FaultKind)` instead of unwinding into
/// the caller. The default panic hook still runs (callers that expect a
/// high panic volume, like the chaos harness, install a quiet hook).
pub fn isolate<R>(f: impl FnOnce() -> R + UnwindSafe) -> Result<R, FaultKind> {
    std::panic::catch_unwind(f).map_err(FaultKind::from_panic)
}

// ---------------------------------------------------------------------------
// Chaos injection

/// Sentinel meaning "chaos disabled" in the atomic seed cell.
const CHAOS_OFF: i64 = -1;

fn chaos_cell() -> &'static AtomicI64 {
    static CELL: OnceLock<AtomicI64> = OnceLock::new();
    CELL.get_or_init(|| {
        let from_env = std::env::var("SOTERIA_CHAOS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(|s| (s & (i64::MAX as u64)) as i64)
            .unwrap_or(CHAOS_OFF);
        AtomicI64::new(from_env)
    })
}

/// Arms (`Some(seed)`) or disarms (`None`) chaos injection for this
/// process, overriding the `SOTERIA_CHAOS` environment variable.
pub fn set_chaos_seed(seed: Option<u64>) {
    let v = match seed {
        Some(s) => (s & (i64::MAX as u64)) as i64,
        None => CHAOS_OFF,
    };
    chaos_cell().store(v, Ordering::SeqCst);
}

/// The armed chaos seed, if any.
pub fn chaos_seed() -> Option<u64> {
    match chaos_cell().load(Ordering::SeqCst) {
        CHAOS_OFF => None,
        s => Some(s as u64),
    }
}

/// SplitMix64-style mix used to make chaos decisions deterministic in
/// `(seed, stage, key)` regardless of thread scheduling.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn stage_hash(stage: &str) -> u64 {
    // FNV-1a, stable across runs (unlike `DefaultHasher`).
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in stage.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deterministic fault-injection point. When chaos is armed, roughly one
/// in eight `(stage, key)` pairs panics (with [`CHAOS_PANIC_PREFIX`]) and
/// one in eight sleeps a few milliseconds; the decision depends only on
/// the chaos seed, the stage name, and `key`, never on timing. When chaos
/// is disarmed this is a no-op costing one atomic load.
///
/// # Panics
///
/// Panics deliberately (message prefixed with [`CHAOS_PANIC_PREFIX`]) when
/// the armed chaos seed selects this `(stage, key)` pair. Call sites must
/// sit inside a per-sample [`isolate`] boundary.
pub fn chaos_point(stage: &str, key: u64) {
    let Some(seed) = chaos_seed() else { return };
    let roll = mix(seed ^ stage_hash(stage).wrapping_add(key.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    match roll % 8 {
        0 => panic!("{CHAOS_PANIC_PREFIX}{stage}"),
        1 => std::thread::sleep(Duration::from_millis(1 + roll % 3)),
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Crash-safe persistence primitives

/// The 8 lookup tables for slicing-by-8 CRC-32 (table `0` is the classic
/// byte-at-a-time table; table `t` advances a byte `t` positions further
/// through the polynomial division). Built once at first use.
static CRC32_TABLES: std::sync::OnceLock<Box<[[u32; 256]; 8]>> = std::sync::OnceLock::new();

fn crc32_tables() -> &'static [[u32; 256]; 8] {
    CRC32_TABLES.get_or_init(|| {
        let mut tables = Box::new([[0u32; 256]; 8]);
        for b in 0..256u32 {
            let mut crc = b;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
            tables[0][b as usize] = crc;
        }
        for t in 1..8 {
            for b in 0..256usize {
                let prev = tables[t - 1][b];
                tables[t][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            }
        }
        tables
    })
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes` —
/// the checksum embedded in training-checkpoint envelopes and the v3 binary
/// artifact's section table.
///
/// Implemented as slicing-by-8 (eight table lookups per 8-byte chunk)
/// because artifact loading checksums every weight tensor; the values are
/// identical to the bit-at-a-time definition for all inputs.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Writes `bytes` to `path` crash-safely: the payload goes to a sibling
/// temp file first, is fsynced, then atomically renamed over `path` (and
/// the directory is fsynced so the rename itself is durable). A crash at
/// any point leaves either the old file or the new file — never a torn
/// mixture, never a partial file under the final name.
///
/// # Errors
///
/// Propagates I/O failures; the temp file is removed on error.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);

    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = dir {
            // Persist the rename: fsync the containing directory. Opening a
            // directory read-only for fsync works on Linux; elsewhere a
            // failure here is non-fatal for the data itself.
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_slugs_are_stable_and_distinct() {
        let faults = [
            FaultKind::Panic {
                message: "x".into(),
            },
            FaultKind::GraphTooLarge {
                nodes: 1,
                edges: 1,
                max_nodes: 0,
                max_edges: 0,
            },
            FaultKind::WalkBudgetExceeded {
                steps: 2,
                max_steps: 1,
            },
            FaultKind::Timeout {
                elapsed_ms: 2,
                budget_ms: 1,
            },
            FaultKind::MalformedInput {
                message: "y".into(),
            },
            FaultKind::ChaosInjected { stage: "s".into() },
            FaultKind::DeadlineExceeded {
                elapsed_ms: 9,
                deadline_ms: 5,
            },
            FaultKind::Overload {
                tier: "ae-only".into(),
            },
        ];
        let slugs: std::collections::BTreeSet<&str> = faults.iter().map(|f| f.slug()).collect();
        assert_eq!(slugs.len(), faults.len());
        for f in &faults {
            assert!(!f.to_string().is_empty());
        }
    }

    #[test]
    fn load_derived_faults_are_not_cacheable() {
        assert!(FaultKind::MalformedInput {
            message: "m".into()
        }
        .content_derived());
        assert!(FaultKind::ChaosInjected { stage: "s".into() }.content_derived());
        assert!(FaultKind::Panic {
            message: "p".into()
        }
        .content_derived());
        assert!(!FaultKind::DeadlineExceeded {
            elapsed_ms: 2,
            deadline_ms: 1
        }
        .content_derived());
        assert!(!FaultKind::Overload {
            tier: "ae-only".into()
        }
        .content_derived());
        assert!(!FaultKind::Timeout {
            elapsed_ms: 2,
            budget_ms: 1
        }
        .content_derived());
    }

    #[test]
    fn panic_classification_separates_chaos_from_organic() {
        let chaos =
            FaultKind::from_panic(Box::new(format!("{CHAOS_PANIC_PREFIX}features.extract")));
        assert_eq!(
            chaos,
            FaultKind::ChaosInjected {
                stage: "features.extract".into()
            }
        );
        let organic = FaultKind::from_panic(Box::new("index out of bounds"));
        assert!(matches!(organic, FaultKind::Panic { .. }));
        let opaque = FaultKind::from_panic(Box::new(42u32));
        assert!(matches!(opaque, FaultKind::Panic { .. }));
    }

    #[test]
    fn guards_admit_within_limits_and_reject_beyond() {
        let g = ResourceGuards {
            max_nodes: Some(10),
            max_edges: Some(20),
            max_walk_steps: Some(100),
            sample_budget_ms: None,
        };
        assert!(g.admit_graph(10, 20).is_ok());
        assert!(matches!(
            g.admit_graph(11, 0),
            Err(FaultKind::GraphTooLarge { .. })
        ));
        assert!(matches!(
            g.admit_graph(0, 21),
            Err(FaultKind::GraphTooLarge { .. })
        ));
        assert!(g.admit_walk_steps(100).is_ok());
        assert!(matches!(
            g.admit_walk_steps(101),
            Err(FaultKind::WalkBudgetExceeded { .. })
        ));
        assert!(ResourceGuards::unlimited()
            .admit_graph(usize::MAX, usize::MAX)
            .is_ok());
    }

    #[test]
    fn exhausted_budget_reports_timeout() {
        let g = ResourceGuards {
            sample_budget_ms: Some(0),
            ..ResourceGuards::unlimited()
        };
        let budget = g.start_budget();
        std::thread::sleep(Duration::from_millis(3));
        assert!(matches!(budget.check(), Err(FaultKind::Timeout { .. })));
        assert!(ResourceGuards::unlimited().start_budget().check().is_ok());
    }

    #[test]
    fn isolate_converts_panics_and_passes_values() {
        assert_eq!(isolate(|| 7).unwrap(), 7);
        let fault = isolate(|| panic!("boom")).unwrap_err();
        assert_eq!(
            fault,
            FaultKind::Panic {
                message: "boom".into()
            }
        );
    }

    #[test]
    fn chaos_is_deterministic_and_togglable() {
        let prior = chaos_seed();
        set_chaos_seed(Some(42));
        // Find a key that panics and one that does not; both decisions
        // must be reproducible.
        let outcome = |key: u64| isolate(move || chaos_point("test.stage", key)).err();
        let outcomes: Vec<Option<FaultKind>> = (0..64).map(outcome).collect();
        assert!(outcomes.iter().any(|o| o.is_some()), "no chaos in 64 keys");
        assert!(outcomes.iter().any(|o| o.is_none()), "all 64 keys tripped");
        let again: Vec<Option<FaultKind>> = (0..64).map(outcome).collect();
        assert_eq!(outcomes, again);
        set_chaos_seed(None);
        assert!((0..64).all(|k| outcome(k).is_none()));
        set_chaos_seed(prior);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("soteria-aw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
