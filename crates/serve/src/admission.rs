//! Admission control and tiered load shedding for the screening service.
//!
//! Every submission that misses the verdict cache passes through the
//! [`AdmissionController`], which decides one of three tiers:
//!
//! 1. **Accept** — full pipeline (extract → batch → infer).
//! 2. **AE-only brownout** — under pressure, the request is admitted but
//!    screened by the detector alone. Detector-flagged samples get the
//!    *bit-identical* `Adversarial` verdict the full path would produce
//!    (both tiers run the same screen stage, and the brownout tier's
//!    detector-only flag stops it where a flagged sample stops anyway —
//!    see `Soteria::screen_features_batch_ae_only`); detector-passed
//!    samples degrade with `FaultKind::Overload` instead of queueing
//!    behind the heavy classifier.
//! 3. **Reject** — a typed [`RejectReason`] plus a `retry_after` hint, so
//!    callers can back off instead of hammering a saturated queue.
//!
//! The decision inputs are all live and lock-free on the accept path: the
//! mirrored queue depth (the same value the `serve.queue.depth` gauge
//! shows), an EWMA of extraction latency, a per-client token bucket, and
//! an optional [`CircuitBreaker`] fed by extraction-worker fault
//! outcomes.
//!
//! The [`AdmissionConfig::default`] disables every mechanism, so a
//! service configured without explicit admission tuning behaves exactly
//! as before this layer existed: the only rejection is a full queue.

use soteria_resilience::{BreakerConfig, BreakerState, CircuitBreaker, FaultKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Why a submission was turned away (the typed half of
/// `Submit::Rejected`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The bounded submit queue was full (classic backpressure).
    QueueFull,
    /// The client exceeded its token-bucket rate.
    RateLimited,
    /// The extraction circuit breaker is open after a panic burst.
    BreakerOpen,
    /// Queue pressure crossed the reject threshold.
    Overloaded,
    /// The request carried a deadline the current backlog cannot meet,
    /// so admitting it would only waste work.
    DeadlineUnmeetable,
}

impl RejectReason {
    /// Stable identifier: the `serve.shed.<slug>` counter suffix and the
    /// wire-protocol `reason` field.
    pub fn slug(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::RateLimited => "rate_limited",
            RejectReason::BreakerOpen => "breaker_open",
            RejectReason::Overloaded => "overloaded",
            RejectReason::DeadlineUnmeetable => "deadline_unmeetable",
        }
    }
}

/// Per-client token-bucket tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained requests per second per client.
    pub rate_per_sec: f64,
    /// Burst capacity (bucket size) in requests.
    pub burst: f64,
}

/// Tuning for the [`AdmissionController`]. The default disables every
/// mechanism — no deadlines, no rate limit, no shedding tiers, no
/// breaker — preserving pre-admission service behavior exactly.
#[derive(Debug, Clone, Default)]
pub struct AdmissionConfig {
    /// Deadline applied to submissions that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Per-client token bucket (`None` disables rate limiting).
    pub rate_limit: Option<RateLimit>,
    /// Queue pressure (depth / capacity, so in `[0, 1]`) at or above
    /// which admissions drop to the AE-only brownout tier. Values above
    /// `1.0` (including the default `0.0 → disabled` sentinel handling
    /// below) disable the tier.
    pub brownout_threshold: Option<f64>,
    /// Queue pressure at or above which admissions are rejected with
    /// [`RejectReason::Overloaded`]. `None` disables.
    pub reject_threshold: Option<f64>,
    /// Circuit breaker over extraction faults (`None` disables).
    pub breaker: Option<BreakerConfig>,
}

impl AdmissionConfig {
    /// Whether every mechanism is disabled (the default).
    pub fn is_disabled(&self) -> bool {
        self.default_deadline.is_none()
            && self.rate_limit.is_none()
            && self.brownout_threshold.is_none()
            && self.reject_threshold.is_none()
            && self.breaker.is_none()
    }
}

/// The controller's verdict on one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Admit to the full pipeline.
    Accept,
    /// Admit, but screen with the AE detector only (brownout tier).
    AeOnly,
    /// Turn the submission away.
    Reject {
        /// Why.
        reason: RejectReason,
        /// How long the caller should wait before retrying, when the
        /// controller can estimate it.
        retry_after: Option<Duration>,
    },
}

/// A classic token bucket; `tokens` refills lazily on each take.
#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(now: Instant, burst: f64) -> TokenBucket {
        TokenBucket {
            tokens: burst,
            last: now,
        }
    }

    /// Takes one token, or reports how long until one is available.
    fn take(&mut self, now: Instant, limit: &RateLimit) -> Result<(), Duration> {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * limit.rate_per_sec).min(limit.burst.max(1.0));
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else if limit.rate_per_sec > 0.0 {
            Err(Duration::from_secs_f64(
                (1.0 - self.tokens) / limit.rate_per_sec,
            ))
        } else {
            Err(Duration::from_secs(1))
        }
    }
}

/// A lock-free exponentially weighted moving average (value stored as
/// `f64` bits in an atomic; `u64::MAX` is the "no samples yet" sentinel,
/// which no finite latency encodes to).
#[derive(Debug)]
struct Ewma {
    bits: AtomicU64,
    alpha: f64,
}

const EWMA_EMPTY: u64 = u64::MAX;

impl Ewma {
    fn new(alpha: f64) -> Ewma {
        Ewma {
            bits: AtomicU64::new(EWMA_EMPTY),
            alpha,
        }
    }

    fn update(&self, sample: f64) {
        if !sample.is_finite() {
            return;
        }
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = if current == EWMA_EMPTY {
                sample
            } else {
                f64::from_bits(current) * (1.0 - self.alpha) + sample * self.alpha
            };
            match self.bits.compare_exchange_weak(
                current,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    fn get(&self) -> Option<f64> {
        match self.bits.load(Ordering::Relaxed) {
            EWMA_EMPTY => None,
            bits => Some(f64::from_bits(bits)),
        }
    }
}

/// Live admission state shared by submitters and pipeline threads. See
/// the [module docs](self).
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    queue_capacity: usize,
    workers: usize,
    /// Mirror of the `serve.queue.depth` gauge (the gauge itself lives in
    /// whatever registry is active, so decisions read this instead).
    depth: AtomicI64,
    /// EWMA of per-sample extraction latency in milliseconds.
    extract_ms: Ewma,
    /// Per-client token buckets; anonymous submissions (no client id)
    /// share bucket 0.
    buckets: Mutex<HashMap<u64, TokenBucket>>,
    breaker: Option<CircuitBreaker>,
    /// Breaker trips already mirrored into the telemetry counter.
    trips_mirrored: AtomicU64,
}

impl AdmissionController {
    /// Builds a controller for a service with the given queue capacity
    /// and worker count.
    pub fn new(config: AdmissionConfig, queue_capacity: usize, workers: usize) -> Self {
        let breaker = config.breaker.clone().map(CircuitBreaker::new);
        AdmissionController {
            config,
            queue_capacity: queue_capacity.max(1),
            workers: workers.max(1),
            depth: AtomicI64::new(0),
            extract_ms: Ewma::new(0.2),
            buckets: Mutex::new(HashMap::new()),
            breaker,
            trips_mirrored: AtomicU64::new(0),
        }
    }

    /// The configured default deadline for submissions without one.
    pub fn default_deadline(&self) -> Option<Duration> {
        self.config.default_deadline
    }

    /// Adjusts the mirrored queue depth (callers keep it in lockstep with
    /// the `serve.queue.depth` gauge).
    pub fn depth_add(&self, delta: i64) {
        self.depth.fetch_add(delta, Ordering::Relaxed);
    }

    /// The mirrored queue depth (never negative under the gauge-ordering
    /// discipline: increment before enqueue, roll back on rejection).
    pub fn depth(&self) -> i64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Feeds one extraction latency observation (milliseconds).
    pub fn observe_extract_ms(&self, ms: f64) {
        self.extract_ms.update(ms);
    }

    /// Records a request fault from the extraction/inference path into
    /// the breaker (panic-class faults only count — the breaker itself
    /// filters) and mirrors breaker telemetry.
    pub fn record_fault(&self, fault: &FaultKind, now: Instant) {
        if let Some(breaker) = &self.breaker {
            breaker.record_fault(fault, now);
            self.mirror_breaker(breaker);
        }
    }

    /// Records a successful request outcome (closes half-open probes).
    pub fn record_success(&self, now: Instant) {
        if let Some(breaker) = &self.breaker {
            breaker.record_success(now);
            self.mirror_breaker(breaker);
        }
    }

    /// The breaker's current state, if one is configured.
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.breaker.as_ref().map(CircuitBreaker::state)
    }

    /// Total breaker trips so far (0 when no breaker is configured).
    pub fn breaker_trips(&self) -> u64 {
        self.breaker.as_ref().map_or(0, CircuitBreaker::trips)
    }

    /// Pushes breaker state/trip telemetry (gauge + counter delta).
    fn mirror_breaker(&self, breaker: &CircuitBreaker) {
        soteria_telemetry::gauge_set("serve.breaker.state", breaker.state().gauge());
        let trips = breaker.trips();
        let seen = self.trips_mirrored.swap(trips, Ordering::Relaxed);
        if trips > seen {
            soteria_telemetry::counter("serve.breaker.trips", trips - seen);
        }
    }

    /// Estimated time for the current backlog to drain through the
    /// worker pool (`None` until extraction latency has been observed).
    fn estimated_wait(&self) -> Option<Duration> {
        let ewma = self.extract_ms.get()?;
        let depth = self.depth().max(0) as f64;
        Some(Duration::from_secs_f64(
            (depth * ewma / self.workers as f64 / 1e3).max(0.0),
        ))
    }

    /// Decides the tier for one submission at `now`. `deadline` is the
    /// request's remaining budget, when it carries one.
    pub fn decide(
        &self,
        now: Instant,
        client: Option<u64>,
        deadline: Option<Duration>,
    ) -> AdmissionDecision {
        if let Some(breaker) = &self.breaker {
            let admit = breaker.admit(now);
            self.mirror_breaker(breaker);
            if let Err(retry_after) = admit {
                return AdmissionDecision::Reject {
                    reason: RejectReason::BreakerOpen,
                    retry_after: Some(retry_after),
                };
            }
        }
        if let Some(limit) = &self.config.rate_limit {
            let key = client.unwrap_or(0);
            let mut buckets = self
                .buckets
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let bucket = buckets
                .entry(key)
                .or_insert_with(|| TokenBucket::new(now, limit.burst));
            if let Err(retry_after) = bucket.take(now, limit) {
                return AdmissionDecision::Reject {
                    reason: RejectReason::RateLimited,
                    retry_after: Some(retry_after),
                };
            }
        }
        let pressure = self.depth().max(0) as f64 / self.queue_capacity as f64;
        if let Some(threshold) = self.config.reject_threshold {
            if pressure >= threshold {
                return AdmissionDecision::Reject {
                    reason: RejectReason::Overloaded,
                    retry_after: self.estimated_wait(),
                };
            }
        }
        if let (Some(remaining), Some(wait)) = (deadline, self.estimated_wait()) {
            if wait > remaining {
                return AdmissionDecision::Reject {
                    reason: RejectReason::DeadlineUnmeetable,
                    retry_after: None,
                };
            }
        }
        if let Some(threshold) = self.config.brownout_threshold {
            if pressure >= threshold {
                return AdmissionDecision::AeOnly;
            }
        }
        AdmissionDecision::Accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_always_accepts() {
        let c = AdmissionController::new(AdmissionConfig::default(), 4, 1);
        assert!(AdmissionConfig::default().is_disabled());
        let now = Instant::now();
        c.depth_add(4); // fully saturated queue
        for i in 0..100 {
            assert_eq!(c.decide(now, Some(i), None), AdmissionDecision::Accept);
        }
    }

    #[test]
    fn token_bucket_enforces_rate_and_refills() {
        let limit = RateLimit {
            rate_per_sec: 10.0,
            burst: 2.0,
        };
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(t0, limit.burst);
        assert!(bucket.take(t0, &limit).is_ok());
        assert!(bucket.take(t0, &limit).is_ok());
        let wait = bucket.take(t0, &limit).unwrap_err();
        assert!(wait > Duration::ZERO && wait <= Duration::from_millis(100));
        // After the advertised wait a token is available again.
        assert!(bucket
            .take(t0 + wait + Duration::from_millis(1), &limit)
            .is_ok());
    }

    #[test]
    fn rate_limit_is_per_client() {
        let c = AdmissionController::new(
            AdmissionConfig {
                rate_limit: Some(RateLimit {
                    rate_per_sec: 1.0,
                    burst: 1.0,
                }),
                ..AdmissionConfig::default()
            },
            4,
            1,
        );
        let now = Instant::now();
        assert_eq!(c.decide(now, Some(1), None), AdmissionDecision::Accept);
        assert!(matches!(
            c.decide(now, Some(1), None),
            AdmissionDecision::Reject {
                reason: RejectReason::RateLimited,
                retry_after: Some(_)
            }
        ));
        // A different client has its own bucket.
        assert_eq!(c.decide(now, Some(2), None), AdmissionDecision::Accept);
    }

    #[test]
    fn pressure_tiers_brownout_then_reject() {
        let c = AdmissionController::new(
            AdmissionConfig {
                brownout_threshold: Some(0.5),
                reject_threshold: Some(0.75),
                ..AdmissionConfig::default()
            },
            8,
            1,
        );
        let now = Instant::now();
        assert_eq!(c.decide(now, None, None), AdmissionDecision::Accept);
        c.depth_add(4); // pressure 0.5
        assert_eq!(c.decide(now, None, None), AdmissionDecision::AeOnly);
        c.depth_add(2); // pressure 0.75
        assert!(matches!(
            c.decide(now, None, None),
            AdmissionDecision::Reject {
                reason: RejectReason::Overloaded,
                ..
            }
        ));
        c.depth_add(-6);
        assert_eq!(c.decide(now, None, None), AdmissionDecision::Accept);
    }

    #[test]
    fn unmeetable_deadlines_are_rejected_up_front() {
        let c = AdmissionController::new(
            AdmissionConfig {
                default_deadline: Some(Duration::from_millis(5)),
                ..AdmissionConfig::default()
            },
            8,
            1,
        );
        let now = Instant::now();
        c.depth_add(8);
        // No latency data yet: cannot estimate, so admit.
        assert_eq!(
            c.decide(now, None, Some(Duration::from_millis(5))),
            AdmissionDecision::Accept
        );
        c.observe_extract_ms(10.0); // backlog estimate: 8 * 10ms = 80ms
        assert!(matches!(
            c.decide(now, None, Some(Duration::from_millis(5))),
            AdmissionDecision::Reject {
                reason: RejectReason::DeadlineUnmeetable,
                retry_after: None
            }
        ));
        // A generous deadline still gets through.
        assert_eq!(
            c.decide(now, None, Some(Duration::from_secs(1))),
            AdmissionDecision::Accept
        );
    }

    #[test]
    fn breaker_trips_on_fault_burst_and_recovers() {
        let c = AdmissionController::new(
            AdmissionConfig {
                breaker: Some(BreakerConfig {
                    fault_threshold: 2,
                    window: Duration::from_millis(100),
                    base_backoff: Duration::from_millis(20),
                    max_backoff: Duration::from_millis(100),
                    half_open_probes: 1,
                    success_to_close: 1,
                    jitter_seed: 3,
                }),
                ..AdmissionConfig::default()
            },
            8,
            1,
        );
        let t0 = Instant::now();
        assert_eq!(c.decide(t0, None, None), AdmissionDecision::Accept);
        let fault = FaultKind::Panic {
            message: "boom".into(),
        };
        c.record_fault(&fault, t0);
        c.record_fault(&fault, t0 + Duration::from_millis(1));
        assert_eq!(c.breaker_state(), Some(BreakerState::Open));
        assert_eq!(c.breaker_trips(), 1);
        assert!(matches!(
            c.decide(t0 + Duration::from_millis(2), None, None),
            AdmissionDecision::Reject {
                reason: RejectReason::BreakerOpen,
                retry_after: Some(_)
            }
        ));
        // Past the backoff a probe is admitted; success closes.
        let later = t0 + Duration::from_millis(60);
        assert_eq!(c.decide(later, None, None), AdmissionDecision::Accept);
        c.record_success(later);
        assert_eq!(c.breaker_state(), Some(BreakerState::Closed));
    }

    #[test]
    fn ewma_converges_and_ignores_garbage() {
        let e = Ewma::new(0.5);
        assert_eq!(e.get(), None);
        e.update(f64::NAN);
        assert_eq!(e.get(), None);
        e.update(10.0);
        assert_eq!(e.get(), Some(10.0));
        e.update(20.0);
        assert_eq!(e.get(), Some(15.0));
    }

    #[test]
    fn reject_reason_slugs_are_distinct() {
        let reasons = [
            RejectReason::QueueFull,
            RejectReason::RateLimited,
            RejectReason::BreakerOpen,
            RejectReason::Overloaded,
            RejectReason::DeadlineUnmeetable,
        ];
        let slugs: std::collections::BTreeSet<&str> = reasons.iter().map(|r| r.slug()).collect();
        assert_eq!(slugs.len(), reasons.len());
    }
}
