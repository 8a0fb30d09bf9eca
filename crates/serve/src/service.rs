//! The concurrent screening service.
//!
//! # Architecture
//!
//! ```text
//!  submit(bytes) ──cache hit──────────────────────────────▶ Ticket(ready)
//!       │ miss
//!       ▼
//!  bounded queue ──▶ worker pool ──▶ batcher ──▶ verdict ──▶ Ticket(wait)
//!  (try_send:        parse + lift    collects       │
//!   Full ⇒           + extract,      a window,      └──▶ cache insert
//!   Rejected)        per-sample      one stacked
//!                    isolation       CNN pass
//! ```
//!
//! Workers do the embarrassingly parallel front half (container parsing,
//! lifting, feature extraction) with every fault confined to its sample.
//! The trained [`Soteria`] is shared as an `Arc`: inference takes `&self`,
//! so nothing owns the model exclusively. Each job carries the model that
//! extracted it to a single batcher thread, which screens queued samples
//! together — reconstruction errors from one stacked matrix, both CNNs one
//! forward pass each — so the threaded matmul in `soteria-nn` amortizes
//! across concurrent requests.
//!
//! # Determinism
//!
//! Each request's walk seed is [`request_seed`]`(service_seed, bytes)` — a
//! pure function of the submitted content. Combined with the
//! row-independence of every inference stage, this makes the service's
//! verdict for given bytes *bit-identical* regardless of worker count,
//! batch window, arrival order, or whether the answer came from the cache.
//!
//! # Overload behavior
//!
//! Submissions that miss the cache pass through the
//! [`AdmissionController`]:
//! per-client token buckets, pressure-tiered shedding (full pipeline /
//! AE-only brownout / typed reject with `retry_after`), and a circuit
//! breaker fed by extraction faults. Each admitted request carries a
//! [`Deadline`] checked cooperatively at every stage boundary; expired
//! requests resolve to `Degraded(DeadlineExceeded)` instead of burning
//! further work. Load-derived outcomes (deadline, overload) never enter
//! the verdict cache, so accepted verdicts stay a pure function of
//! content. The default [`AdmissionConfig`] disables all of it.
//!
//! # Observability
//!
//! Every request unconditionally feeds per-stage latency histograms
//! (`serve.stage.{queue_wait, extract, batch_wait, infer, total,
//! cache_hit}`) and live gauges (`serve.queue.depth`, `serve.inflight`) —
//! all lock-free atomics. Shedding feeds `serve.shed.<reason>` counters,
//! deadline expiries `serve.deadline.expired`, the brownout tier
//! `serve.brownout.ae_only`, and the breaker a `serve.breaker.state`
//! gauge plus a `serve.breaker.trips` counter. When
//! [`ServeConfig::trace_sampling`] admits a request (a pure function of
//! its content key and the service seed, see
//! [`soteria_telemetry::sample_decision`]), a [`TraceBuilder`] travels
//! with the job through the pipeline and publishes a parent/child stage
//! timeline at verdict time. None of it feeds back into computation:
//! tracing on or off, verdicts are bit-identical.
//!
//! # Hot model swap
//!
//! [`ScreeningService::swap`] replaces the served model without dropping
//! a single request. The service holds one `(epoch, Arc<Soteria>)` slot;
//! a swap bumps the epoch and replaces the `Arc` under the slot lock. A
//! worker snapshots the slot once per job, extracts with that model's
//! extractor and guards, and hands the job to the batcher together with
//! the model and its epoch. Batches never mix epochs, so every verdict
//! during a swap is bit-identical to either the old model's sequential
//! answer or the new model's — never a hybrid. A retired model is dropped
//! when its last in-flight job resolves. The swap also advances the
//! verdict cache's epoch before it returns: that drops every memoized
//! verdict, and the cache refuses an insert stamped with an older epoch,
//! so a stale verdict can never outlive the model that produced it.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionDecision, RejectReason};
use crate::cache::{fnv1a64, lock, CacheStats, VerdictCache};
use crate::deadline::Deadline;
use soteria::pipeline::extract_binary;
use soteria::{Soteria, SoteriaState, StateError, Verdict};
use soteria_features::SampleFeatures;
use soteria_resilience::FaultKind;
use soteria_telemetry::TraceBuilder;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The walk seed the service uses for submitted content: the content hash
/// folded with the service seed. Deriving the seed from the bytes (rather
/// than from arrival order) is what makes verdicts a pure function of
/// content — and therefore cacheable and reproducible under any
/// concurrency.
pub fn request_seed(service_seed: u64, bytes: &[u8]) -> u64 {
    fnv1a64(bytes) ^ service_seed
}

/// Tuning knobs for [`ScreeningService::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Extraction worker threads (minimum 1).
    pub workers: usize,
    /// Bounded submit-queue depth; a full queue rejects new work
    /// ([`Submit::Rejected`]) instead of buffering unboundedly.
    pub queue_capacity: usize,
    /// Total verdict-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Verdict-cache shard count.
    pub cache_shards: usize,
    /// How long the batcher waits for stragglers after the first queued
    /// sample of a batch. Zero means "batch only what is already queued" —
    /// still amortizing under load, never adding latency.
    pub batch_window: Duration,
    /// Most samples screened in one stacked pass.
    pub max_batch: usize,
    /// Service seed folded into every request seed.
    pub seed: u64,
    /// Fraction of requests that record a full stage-timeline trace
    /// (0.0 = never, 1.0 = every request). The decision is a pure
    /// function of the request's content key and the service seed, so
    /// the same corpus always samples the same requests. Stage
    /// *histograms* are recorded regardless of this rate.
    pub trace_sampling: f64,
    /// Admission control, deadlines, shedding, and breaker tuning. The
    /// default disables every mechanism (the only rejection is a full
    /// queue), so existing deployments see no behavior change.
    pub admission: AdmissionConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 1024,
            cache_shards: 8,
            batch_window: Duration::from_millis(2),
            max_batch: 32,
            seed: 0,
            trace_sampling: 0.0,
            admission: AdmissionConfig::default(),
        }
    }
}

/// Per-submission options for [`ScreeningService::submit_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// This request's deadline budget; overrides the service-wide
    /// [`AdmissionConfig::default_deadline`]. `None` inherits it.
    pub deadline: Option<Duration>,
    /// Rate-limiting identity. Anonymous submissions (`None`) share one
    /// token bucket.
    pub client: Option<u64>,
}

/// Outcome of [`ScreeningService::submit`].
#[derive(Debug)]
pub enum Submit {
    /// The sample was admitted; the ticket resolves to its verdict.
    Accepted(Ticket),
    /// The sample was turned away before entering the pipeline.
    Rejected {
        /// Why (queue backpressure, rate limit, breaker, shedding, …).
        reason: RejectReason,
        /// How long the caller should wait before retrying, when the
        /// service can estimate it.
        retry_after: Option<Duration>,
    },
}

impl Submit {
    /// Whether the sample was turned away.
    pub fn is_rejected(&self) -> bool {
        matches!(self, Submit::Rejected { .. })
    }

    /// The ticket, if the sample was admitted.
    pub fn into_ticket(self) -> Option<Ticket> {
        match self {
            Submit::Accepted(t) => Some(t),
            Submit::Rejected { .. } => None,
        }
    }
}

/// A claim on one submitted sample's verdict.
#[derive(Debug)]
pub struct Ticket {
    inner: TicketInner,
}

#[derive(Debug)]
enum TicketInner {
    /// Resolved at submit time from the verdict cache.
    Ready(Verdict),
    /// In flight; the pipeline replies on this channel.
    Pending(Receiver<Verdict>),
}

impl Ticket {
    /// Whether the verdict came from the cache (already resolved).
    pub fn is_cached(&self) -> bool {
        matches!(self.inner, TicketInner::Ready(_))
    }

    /// Blocks until the verdict is available. Every accepted submission
    /// resolves: if the service side dies before replying (it should not —
    /// all per-sample work is fault-isolated), the ticket degrades instead
    /// of hanging or panicking.
    pub fn wait(self) -> Verdict {
        match self.inner {
            TicketInner::Ready(verdict) => verdict,
            TicketInner::Pending(rx) => rx.recv().unwrap_or_else(|_| dropped_verdict()),
        }
    }

    /// Like [`wait`](Ticket::wait) but gives up after `timeout`,
    /// returning the still-pending ticket so the caller can keep waiting
    /// (or record a hang). A cached ticket always resolves immediately.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when the verdict did not arrive in time.
    pub fn wait_for(self, timeout: Duration) -> Result<Verdict, Ticket> {
        match self.inner {
            TicketInner::Ready(verdict) => Ok(verdict),
            TicketInner::Pending(rx) => match rx.recv_timeout(timeout) {
                Ok(verdict) => Ok(verdict),
                Err(RecvTimeoutError::Disconnected) => Ok(dropped_verdict()),
                Err(RecvTimeoutError::Timeout) => Err(Ticket {
                    inner: TicketInner::Pending(rx),
                }),
            },
        }
    }
}

/// The degraded verdict a ticket resolves to if the service side dies
/// before replying (it should not — all per-sample work is
/// fault-isolated).
fn dropped_verdict() -> Verdict {
    Verdict::Degraded {
        reason: FaultKind::Panic {
            message: "screening service dropped the request".to_owned(),
        },
    }
}

/// Point-in-time service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Total [`submit`](ScreeningService::submit) calls.
    pub submitted: u64,
    /// Submissions turned away by backpressure.
    pub rejected: u64,
    /// Requests admitted to the pipeline whose verdict has not resolved
    /// yet (cache hits resolve at submit time and never count).
    pub in_flight: u64,
    /// Requests whose deadline expired before a verdict was computed.
    pub deadline_expired: u64,
    /// Requests answered by the AE-only brownout tier.
    pub brownout: u64,
    /// Times the extraction circuit breaker has tripped open.
    pub breaker_trips: u64,
    /// Current model epoch (0 until the first hot swap).
    pub epoch: u64,
    /// Completed [`swap`](ScreeningService::swap) calls.
    pub swaps: u64,
    /// Verdict-cache counters.
    pub cache: CacheStats,
}

/// Which screening tier an admitted job runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobMode {
    /// Detector + classifier (the normal path).
    Full,
    /// Detector only (brownout): bit-identical `Adversarial` verdicts,
    /// `Degraded(Overload)` where the classifier would have run.
    AeOnly,
}

/// Counters shared between the submit side and the pipeline threads.
#[derive(Debug, Default)]
struct SharedCounters {
    deadline_expired: AtomicU64,
    brownout: AtomicU64,
}

/// One queued request.
struct Job {
    bytes: Vec<u8>,
    key: u64,
    seed: u64,
    reply: Sender<Verdict>,
    /// When the request entered the bounded queue (queue-wait start).
    enqueued: Instant,
    deadline: Deadline,
    mode: JobMode,
    /// Stage timeline for sampled requests; travels with the job, so
    /// appending stages never synchronizes.
    trace: Option<TraceBuilder>,
}

/// A request after the worker half: extracted (or faulted) and waiting for
/// the batcher.
struct InferJob {
    key: u64,
    seed: u64,
    reply: Sender<Verdict>,
    features: Result<SampleFeatures, FaultKind>,
    /// When the request entered the queue (for end-to-end latency).
    enqueued: Instant,
    /// When extraction finished (batch-wait start).
    extracted: Instant,
    deadline: Deadline,
    mode: JobMode,
    /// The model that extracted `features`, and its epoch: the batcher
    /// screens the job with this model, never another.
    model: Arc<Soteria>,
    epoch: u64,
    trace: Option<TraceBuilder>,
}

/// The shared (epoch, model) slot workers snapshot once per job. The mutex
/// is held only to copy the pair out (and, on the swap path, to replace
/// it), never while a model computes.
type ModelSlot = Arc<Mutex<(u64, Arc<Soteria>)>>;

/// A running screening service wrapping one trained [`Soteria`].
///
/// Submissions are admitted through a bounded queue, extracted by a worker
/// pool, screened in micro-batches by a single batcher thread, and
/// memoized in a content-addressed verdict cache. Dropping the service (or
/// calling [`shutdown`](ScreeningService::shutdown)) drains every admitted
/// sample before the threads exit.
#[derive(Debug)]
pub struct ScreeningService {
    submit_tx: Option<SyncSender<Job>>,
    /// The workers, then the batcher.
    threads: Vec<JoinHandle<()>>,
    cache: Arc<VerdictCache>,
    admission: Arc<AdmissionController>,
    shared: Arc<SharedCounters>,
    slot: ModelSlot,
    seed: u64,
    trace_sampling: f64,
    submitted: AtomicU64,
    rejected: AtomicU64,
    swaps: AtomicU64,
    in_flight: Arc<AtomicU64>,
    started: Instant,
}

/// Index of the root `request` stage in every service trace (it is
/// always the first stage the builder opens).
const TRACE_ROOT: u32 = 0;

impl ScreeningService {
    /// Starts the worker pool and batcher around a trained system.
    pub fn start(soteria: Soteria, config: &ServeConfig) -> Self {
        // Spin up the shared compute pool before the first request so the
        // batcher's forward passes never pay thread-spawn latency.
        let _ = soteria_nn::backend::warm();
        let cache = Arc::new(VerdictCache::new(
            config.cache_capacity,
            config.cache_shards.max(1),
        ));
        let (submit_tx, submit_rx) = mpsc::sync_channel::<Job>(config.queue_capacity.max(1));
        let submit_rx = Arc::new(Mutex::new(submit_rx));
        let (infer_tx, infer_rx) = mpsc::channel::<InferJob>();

        let slot: ModelSlot = Arc::new(Mutex::new((0, Arc::new(soteria))));
        // Worker and batcher threads inherit the registry that is active
        // on the *starting* thread, so a service started under a scoped
        // registry (tests, benches) records there, not globally.
        let telemetry = soteria_telemetry::RegistryHandle::current();
        let in_flight = Arc::new(AtomicU64::new(0));
        let admission = Arc::new(AdmissionController::new(
            config.admission.clone(),
            config.queue_capacity.max(1),
            config.workers.max(1),
        ));
        let shared = Arc::new(SharedCounters::default());
        let mut threads: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|i| {
                let submit_rx = Arc::clone(&submit_rx);
                let infer_tx = infer_tx.clone();
                let slot = Arc::clone(&slot);
                let telemetry = telemetry.clone();
                let admission = Arc::clone(&admission);
                let shared = Arc::clone(&shared);
                let in_flight = Arc::clone(&in_flight);
                std::thread::Builder::new()
                    .name(format!("soteria-serve-worker-{i}"))
                    .spawn(move || {
                        let _telemetry = telemetry.attach();
                        worker_loop(
                            &submit_rx, &infer_tx, &slot, &admission, &shared, &in_flight,
                        )
                    })
                    .expect("spawn screening worker")
            })
            .collect();
        // The workers hold the only senders, so the batcher's channel
        // closes (and the batcher drains and exits) once they have joined.
        drop(infer_tx);

        let batch_window = config.batch_window;
        let max_batch = config.max_batch.max(1);
        let batcher_cache = Arc::clone(&cache);
        let batcher_in_flight = Arc::clone(&in_flight);
        let batcher_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("soteria-serve-batcher".to_owned())
                .spawn(move || {
                    let _telemetry = telemetry.attach();
                    batcher_loop(
                        &infer_rx,
                        batch_window,
                        max_batch,
                        &batcher_cache,
                        &batcher_in_flight,
                        &batcher_shared,
                    )
                })
                .expect("spawn screening batcher"),
        );

        ScreeningService {
            submit_tx: Some(submit_tx),
            threads,
            cache,
            admission,
            shared,
            slot,
            seed: config.seed,
            trace_sampling: config.trace_sampling,
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            in_flight,
            started: Instant::now(),
        }
    }

    /// Atomically replaces the served model with `soteria` without
    /// dropping a request, returning the new model epoch.
    ///
    /// In-flight requests extracted under the old model are still
    /// screened by it (bit-identical to its sequential answers); requests
    /// dequeued after this call returns are extracted and screened by the
    /// new model, under the new model's guards. Before returning, the swap
    /// drops every memoized verdict and makes the cache refuse the old
    /// model's late inserts, so no lookup that starts afterwards sees an
    /// old-model verdict. The old model itself is dropped when its last
    /// in-flight job resolves.
    pub fn swap(&self, soteria: Soteria) -> u64 {
        let model = Arc::new(soteria);
        let mut slot = lock(&self.slot);
        let epoch = slot.0 + 1;
        let retired = std::mem::replace(&mut *slot, (epoch, model));
        drop(slot);
        self.cache.advance_epoch(epoch);
        // Frees the old model unless a job in flight still holds it.
        drop(retired);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        soteria_telemetry::counter("serve.swap.requested", 1);
        epoch
    }

    /// [`swap`](ScreeningService::swap) from a state file on disk — a v3
    /// binary artifact or a v2 JSON envelope, sniffed automatically.
    ///
    /// # Errors
    ///
    /// Returns the [`StateError`] diagnosing an unreadable or corrupt
    /// file; the served model is untouched on error.
    pub fn swap_from_path(&self, path: &Path) -> Result<u64, StateError> {
        let state = SoteriaState::load_from_path(path)?;
        Ok(self.swap(Soteria::from_state(state)))
    }

    /// Time elapsed since [`start`](ScreeningService::start) returned.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Submits a binary for screening with default [`SubmitOptions`].
    /// Identical content always produces an identical verdict, so the
    /// content-addressed cache is consulted first; on a miss the sample
    /// passes admission control and enters the bounded queue. A full
    /// queue (or any shedding tier) pushes back with [`Submit::Rejected`].
    pub fn submit(&self, bytes: Vec<u8>) -> Submit {
        self.submit_with(bytes, SubmitOptions::default())
    }

    /// [`submit`](ScreeningService::submit) with a per-request deadline
    /// and rate-limiting client identity.
    pub fn submit_with(&self, bytes: Vec<u8>, options: SubmitOptions) -> Submit {
        let submit_start = Instant::now();
        self.submitted.fetch_add(1, Ordering::Relaxed);
        soteria_telemetry::counter("serve.submitted", 1);
        let key = fnv1a64(&bytes);
        let sampled = soteria_telemetry::sample_decision(key, self.seed, self.trace_sampling);
        if let Some(verdict) = self.cache.get(key) {
            soteria_telemetry::record(
                "serve.stage.cache_hit",
                submit_start.elapsed().as_secs_f64() * 1e3,
            );
            if sampled {
                let mut trace = TraceBuilder::new(key);
                let root = trace.begin_at("request", None, submit_start);
                trace.stage("cache_hit", Some(root), submit_start, Instant::now());
                trace.end(root);
                soteria_telemetry::publish_trace(trace.finish());
            }
            return Submit::Accepted(Ticket {
                inner: TicketInner::Ready(verdict),
            });
        }
        let deadline = Deadline::from_budget(
            submit_start,
            options.deadline.or(self.admission.default_deadline()),
        );
        let mode = match self.admission.decide(
            submit_start,
            options.client,
            deadline.remaining(submit_start),
        ) {
            AdmissionDecision::Accept => JobMode::Full,
            AdmissionDecision::AeOnly => JobMode::AeOnly,
            AdmissionDecision::Reject {
                reason,
                retry_after,
            } => return self.reject(reason, retry_after),
        };
        let trace = sampled.then(|| {
            let mut trace = TraceBuilder::new(key);
            trace.begin_at("request", None, submit_start); // TRACE_ROOT
            trace.stage("enqueue", Some(TRACE_ROOT), submit_start, Instant::now());
            trace
        });
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = Job {
            seed: key ^ self.seed,
            bytes,
            key,
            reply: reply_tx,
            enqueued: Instant::now(),
            deadline,
            mode,
            trace,
        };
        let submit_tx = self
            .submit_tx
            .as_ref()
            .expect("submit on a running service");
        // Count the job in *before* the send: a worker may dequeue it the
        // instant `try_send` returns, and its decrements must never land
        // on gauges that have not seen the increment (the transiently
        // negative `serve.queue.depth` bug). A rejected send rolls all
        // four back; the job never entered the queue, so no worker can
        // have consumed the increments.
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        self.admission.depth_add(1);
        soteria_telemetry::gauge_add("serve.queue.depth", 1);
        soteria_telemetry::gauge_add("serve.inflight", 1);
        match submit_tx.try_send(job) {
            Ok(()) => Submit::Accepted(Ticket {
                inner: TicketInner::Pending(reply_rx),
            }),
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.in_flight.fetch_sub(1, Ordering::Relaxed);
                self.admission.depth_add(-1);
                soteria_telemetry::gauge_add("serve.queue.depth", -1);
                soteria_telemetry::gauge_add("serve.inflight", -1);
                self.reject(RejectReason::QueueFull, None)
            }
        }
    }

    /// Accounts one rejection and builds its [`Submit`] value.
    fn reject(&self, reason: RejectReason, retry_after: Option<Duration>) -> Submit {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        soteria_telemetry::counter("serve.submit.rejected", 1);
        soteria_telemetry::counter(&format!("serve.shed.{}", reason.slug()), 1);
        Submit::Rejected {
            reason,
            retry_after,
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            deadline_expired: self.shared.deadline_expired.load(Ordering::Relaxed),
            brownout: self.shared.brownout.load(Ordering::Relaxed),
            breaker_trips: self.admission.breaker_trips(),
            epoch: self.epoch(),
            swaps: self.swaps.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    /// The current model epoch: 0 at start, +1 per hot swap.
    pub fn epoch(&self) -> u64 {
        lock(&self.slot).0
    }

    /// The service seed (for deriving [`request_seed`] externally).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Drains every admitted sample, stops the threads, and hands the
    /// current model back (the newest epoch, if the service was hot
    /// swapped).
    ///
    /// # Panics
    ///
    /// Panics if a pipeline thread itself died (per-sample faults never
    /// kill one; this would indicate a bug in the serving scaffolding).
    pub fn shutdown(mut self) -> Soteria {
        assert!(self.stop(), "a screening pipeline thread panicked");
        let model = Arc::clone(&lock(&self.slot).1);
        // Dropping the service releases the slot's reference; every job
        // that held another has resolved.
        drop(self);
        Arc::into_inner(model).expect("no request outlives the joined pipeline threads")
    }

    /// Closes the queue and joins the threads: the workers drain the
    /// queue, then the batcher drains their hand-offs. Returns whether
    /// every thread exited without panicking.
    fn stop(&mut self) -> bool {
        drop(self.submit_tx.take());
        let mut clean = true;
        for handle in self.threads.drain(..) {
            clean &= handle.join().is_ok();
        }
        clean
    }
}

impl Drop for ScreeningService {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Worker half: pull a job, parse + lift + extract with per-sample fault
/// isolation, pass the result to the batcher. Expired jobs resolve
/// immediately (deadline degrade) without paying for extraction; fault
/// outcomes feed the admission breaker.
fn worker_loop(
    submit_rx: &Mutex<Receiver<Job>>,
    infer_tx: &Sender<InferJob>,
    slot: &ModelSlot,
    admission: &AdmissionController,
    shared: &SharedCounters,
    in_flight: &AtomicU64,
) {
    loop {
        // Hold the lock only for the dequeue, never while working.
        let job = lock(submit_rx).recv();
        let Ok(mut job) = job else { break };
        let dequeued = Instant::now();
        admission.depth_add(-1);
        soteria_telemetry::gauge_add("serve.queue.depth", -1);
        soteria_telemetry::record(
            "serve.stage.queue_wait",
            dequeued
                .saturating_duration_since(job.enqueued)
                .as_secs_f64()
                * 1e3,
        );
        if let Some(trace) = job.trace.as_mut() {
            trace.stage("queue_wait", Some(TRACE_ROOT), job.enqueued, dequeued);
        }
        if job.deadline.expired(dequeued) {
            resolve_expired(job, dequeued, shared, in_flight);
            continue;
        }
        // Snapshot the current (epoch, model) pair: the job is extracted
        // by this model, under its guards, and screened by it, even if a
        // swap lands while extraction runs.
        let (epoch, model) = {
            let slot = lock(slot);
            (slot.0, Arc::clone(&slot.1))
        };
        // Serving-path chaos gate: lets the overload harness inject worker
        // faults (and exercise the breaker) deterministically per content
        // seed. A no-op unless chaos is armed.
        let seed = job.seed;
        let features = soteria_resilience::isolate(move || {
            soteria_resilience::chaos_point("serve.extract", seed);
        })
        .and_then(|()| extract_binary(model.extractor(), &job.bytes, seed, &model.config().guards));
        match &features {
            Ok(_) => admission.record_success(dequeued),
            Err(fault) => admission.record_fault(fault, Instant::now()),
        }
        let extracted = Instant::now();
        admission
            .observe_extract_ms(extracted.saturating_duration_since(dequeued).as_secs_f64() * 1e3);
        soteria_telemetry::record(
            "serve.stage.extract",
            extracted.saturating_duration_since(dequeued).as_secs_f64() * 1e3,
        );
        if let Some(trace) = job.trace.as_mut() {
            trace.stage("extract", Some(TRACE_ROOT), dequeued, extracted);
        }
        let handoff = infer_tx.send(InferJob {
            key: job.key,
            seed: job.seed,
            reply: job.reply,
            features,
            enqueued: job.enqueued,
            extracted,
            deadline: job.deadline,
            mode: job.mode,
            model,
            epoch,
            trace: job.trace,
        });
        if handoff.is_err() {
            // Batcher gone; the job's reply sender just dropped, so its
            // ticket degrades rather than hangs.
            break;
        }
    }
}

/// Resolves a job whose deadline expired before extraction: one terminal
/// `Degraded(DeadlineExceeded)` outcome, full accounting, no cache entry
/// (the outcome is timing-derived, not content-derived).
fn resolve_expired(job: Job, now: Instant, shared: &SharedCounters, in_flight: &AtomicU64) {
    shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
    soteria_telemetry::counter("serve.deadline.expired", 1);
    soteria_telemetry::counter("serve.verdicts.degraded", 1);
    soteria_telemetry::record(
        "serve.stage.total",
        now.saturating_duration_since(job.enqueued).as_secs_f64() * 1e3,
    );
    if let Some(mut trace) = job.trace {
        trace.stage("deadline_expired", Some(TRACE_ROOT), job.enqueued, now);
        trace.end_at(TRACE_ROOT, now);
        soteria_telemetry::publish_trace(trace.finish());
    }
    in_flight.fetch_sub(1, Ordering::Relaxed);
    soteria_telemetry::gauge_add("serve.inflight", -1);
    let _ = job.reply.send(Verdict::Degraded {
        reason: job.deadline.fault(now),
    });
}

/// Batcher half: collect a latency-bounded window of extracted samples,
/// screen them per epoch in stacked passes, reply and memoize. Each
/// collected window is partitioned by model epoch — a batch never mixes
/// two models' samples. Returns once every worker has hung up and the
/// channel is drained.
fn batcher_loop(
    infer_rx: &Receiver<InferJob>,
    window: Duration,
    max_batch: usize,
    cache: &VerdictCache,
    in_flight: &AtomicU64,
    shared: &SharedCounters,
) {
    // Block for the batch's first sample.
    while let Ok(first) = infer_rx.recv() {
        let mut jobs = vec![first];
        // Whatever is already queued batches for free — amortization with
        // zero added latency, even with a zero window.
        while jobs.len() < max_batch {
            match infer_rx.try_recv() {
                Ok(job) => jobs.push(job),
                Err(_) => break,
            }
        }
        // Then wait out the remaining window for stragglers.
        let deadline = Instant::now() + window;
        while jobs.len() < max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match infer_rx.recv_timeout(deadline - now) {
                Ok(job) => jobs.push(job),
                Err(_) => break,
            }
        }
        // Partition by epoch so every stacked pass runs one model. The
        // BTreeMap keeps epoch order; arrival order within an epoch is
        // preserved (irrelevant to verdicts, kind to latency fairness).
        let mut by_epoch: BTreeMap<u64, Vec<InferJob>> = BTreeMap::new();
        for job in jobs {
            by_epoch.entry(job.epoch).or_default().push(job);
        }
        for (epoch, group) in by_epoch {
            let model = Arc::clone(&group[0].model);
            process_batch(&model, epoch, group, cache, in_flight, shared);
        }
    }
}

/// One batched request awaiting its verdict inside [`process_batch`].
struct PendingReply {
    key: u64,
    reply: Sender<Verdict>,
    verdict: Option<Verdict>,
    enqueued: Instant,
    trace: Option<TraceBuilder>,
    /// Whether the request went through inference (degraded ones skip it).
    inferred: bool,
}

/// Screens one collected batch (all one model `epoch`) and resolves its
/// tickets. Full-tier jobs run detector + classifier; brownout (AE-only)
/// jobs run the detector alone; jobs whose deadline expired in the queue
/// degrade uninferred. Cache inserts carry `epoch`, so a superseded
/// model's verdicts still answer their tickets but never enter the cache,
/// where they would outlive their model.
fn process_batch(
    soteria: &Soteria,
    epoch: u64,
    jobs: Vec<InferJob>,
    cache: &VerdictCache,
    in_flight: &AtomicU64,
    shared: &SharedCounters,
) {
    let batch_start = Instant::now();
    let _span = soteria_telemetry::span("serve.batch");
    soteria_telemetry::record("serve.batch.size", jobs.len() as f64);
    let mut pending: Vec<PendingReply> = Vec::with_capacity(jobs.len());
    let mut items: Vec<(SampleFeatures, u64)> = Vec::new();
    let mut item_slots: Vec<usize> = Vec::new();
    let mut ae_items: Vec<(SampleFeatures, u64)> = Vec::new();
    let mut ae_slots: Vec<usize> = Vec::new();
    for mut job in jobs {
        soteria_telemetry::record(
            "serve.stage.batch_wait",
            batch_start
                .saturating_duration_since(job.extracted)
                .as_secs_f64()
                * 1e3,
        );
        if let Some(trace) = job.trace.as_mut() {
            trace.stage("batch_wait", Some(TRACE_ROOT), job.extracted, batch_start);
        }
        let (verdict, inferred) = match job.features {
            Ok(_) if job.deadline.expired(batch_start) => {
                shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
                soteria_telemetry::counter("serve.deadline.expired", 1);
                soteria_telemetry::counter("serve.verdicts.degraded", 1);
                (
                    Some(Verdict::Degraded {
                        reason: job.deadline.fault(batch_start),
                    }),
                    false,
                )
            }
            Ok(features) => {
                match job.mode {
                    JobMode::Full => {
                        item_slots.push(pending.len());
                        items.push((features, job.seed));
                    }
                    JobMode::AeOnly => {
                        shared.brownout.fetch_add(1, Ordering::Relaxed);
                        soteria_telemetry::counter("serve.brownout.ae_only", 1);
                        ae_slots.push(pending.len());
                        ae_items.push((features, job.seed));
                    }
                }
                (None, true)
            }
            Err(fault) => {
                soteria_telemetry::counter("serve.verdicts.degraded", 1);
                (Some(Verdict::Degraded { reason: fault }), false)
            }
        };
        pending.push(PendingReply {
            key: job.key,
            reply: job.reply,
            verdict,
            enqueued: job.enqueued,
            trace: job.trace,
            inferred,
        });
    }
    let infer_start = Instant::now();
    let screened = soteria.screen_features_batch(&items);
    let ae_screened = soteria.screen_features_batch_ae_only(&ae_items);
    let infer_end = Instant::now();
    let infer_ms = infer_end
        .saturating_duration_since(infer_start)
        .as_secs_f64()
        * 1e3;
    for (slot, verdict) in item_slots.into_iter().zip(screened) {
        pending[slot].verdict = Some(verdict);
    }
    for (slot, verdict) in ae_slots.into_iter().zip(ae_screened) {
        pending[slot].verdict = Some(verdict);
    }
    for p in pending {
        let verdict = p.verdict.expect("every batched job resolved");
        if p.inferred {
            // Attribute the stacked pass to each request it served: the
            // whole batch waited on the same forward passes.
            soteria_telemetry::record("serve.stage.infer", infer_ms);
        }
        // Memoize only content-derived outcomes: a verdict (or fault)
        // that is a pure function of the bytes answers future identical
        // submissions. Load/timing degrades (deadline, overload) must
        // not — the same bytes may succeed once pressure passes.
        let cacheable = match &verdict {
            Verdict::Degraded { reason } => reason.content_derived(),
            _ => true,
        };
        if cacheable {
            cache.insert(epoch, p.key, verdict.clone());
        }
        let resolve_end = Instant::now();
        soteria_telemetry::record(
            "serve.stage.total",
            resolve_end
                .saturating_duration_since(p.enqueued)
                .as_secs_f64()
                * 1e3,
        );
        if let Some(mut trace) = p.trace {
            if p.inferred {
                trace.stage("infer", Some(TRACE_ROOT), infer_start, infer_end);
            }
            trace.stage("resolve", Some(TRACE_ROOT), infer_end, resolve_end);
            trace.end_at(TRACE_ROOT, resolve_end);
            soteria_telemetry::publish_trace(trace.finish());
        }
        // Decrement before replying so a submitter that wakes on the reply
        // never reads a stale in-flight count. Every batched job was
        // counted at submit time, so this never underflows.
        in_flight.fetch_sub(1, Ordering::Relaxed);
        soteria_telemetry::gauge_add("serve.inflight", -1);
        // A dropped receiver just means the submitter stopped waiting.
        let _ = p.reply.send(verdict);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soteria::SoteriaConfig;
    use soteria_corpus::{Corpus, CorpusConfig};

    fn trained() -> (Soteria, Vec<Vec<u8>>) {
        let corpus = Corpus::generate(&CorpusConfig {
            counts: [8, 8, 8, 8],
            seed: 77,
            av_noise: false,
            lineages: 3,
        });
        let split = corpus.split(0.75, 1);
        let soteria =
            Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 5).expect("train");
        let binaries = split
            .test
            .iter()
            .map(|&i| corpus.samples()[i].binary().to_bytes())
            .collect();
        (soteria, binaries)
    }

    fn config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 64,
            cache_shards: 4,
            batch_window: Duration::from_millis(1),
            max_batch: 8,
            seed: 9,
            trace_sampling: 1.0,
            admission: AdmissionConfig::default(),
        }
    }

    #[test]
    fn service_matches_sequential_screening_and_shuts_down_clean() {
        let (soteria, binaries) = trained();
        let service = ScreeningService::start(soteria, &config());
        let tickets: Vec<Ticket> = binaries
            .iter()
            .map(|b| {
                service
                    .submit(b.clone())
                    .into_ticket()
                    .expect("queue has room")
            })
            .collect();
        let served: Vec<Verdict> = tickets.into_iter().map(Ticket::wait).collect();
        let soteria = service.shutdown();
        let sequential: Vec<Verdict> = binaries
            .iter()
            .map(|b| soteria.screen_binary(b, request_seed(9, b)))
            .collect();
        assert_eq!(served, sequential);
    }

    #[test]
    fn hot_swap_switches_models_and_clears_the_cache() {
        let (old, binaries) = trained();
        let old_oracle: Vec<Verdict> = binaries
            .iter()
            .map(|b| old.screen_binary(b, request_seed(9, b)))
            .collect();
        let service = ScreeningService::start(old, &config());
        let before: Vec<Verdict> = binaries
            .iter()
            .map(|b| {
                service
                    .submit(b.clone())
                    .into_ticket()
                    .expect("accepted")
                    .wait()
            })
            .collect();
        assert_eq!(
            before, old_oracle,
            "pre-swap verdicts come from the old model"
        );
        assert!(
            service
                .submit(binaries[0].clone())
                .into_ticket()
                .expect("accepted")
                .is_cached(),
            "verdict memoized before the swap"
        );

        // A model trained from a different seed: same corpus, different
        // weights, so its verdicts are distinguishable from the old ones.
        let corpus = Corpus::generate(&CorpusConfig {
            counts: [8, 8, 8, 8],
            seed: 77,
            av_noise: false,
            lineages: 3,
        });
        let split = corpus.split(0.75, 1);
        let new = Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 11).expect("train");
        assert_eq!(service.epoch(), 0);
        let epoch = service.swap(new);
        assert_eq!(epoch, 1);
        assert_eq!(service.epoch(), 1);

        // The swap dropped every memoized verdict: identical content goes
        // back through the pipeline and is answered by the new model.
        let retry = service
            .submit(binaries[0].clone())
            .into_ticket()
            .expect("accepted");
        assert!(!retry.is_cached(), "swap must clear the cache");
        let after: Vec<Verdict> = std::iter::once(retry.wait())
            .chain(binaries[1..].iter().map(|b| {
                service
                    .submit(b.clone())
                    .into_ticket()
                    .expect("accepted")
                    .wait()
            }))
            .collect();
        let stats = service.stats();
        assert_eq!(stats.swaps, 1);
        assert_eq!(stats.epoch, 1);
        let newest = service.shutdown();
        let new_oracle: Vec<Verdict> = binaries
            .iter()
            .map(|b| newest.screen_binary(b, request_seed(9, b)))
            .collect();
        assert_eq!(
            after, new_oracle,
            "post-swap verdicts come from the new model"
        );
        assert_ne!(
            old_oracle, new_oracle,
            "differently seeded training must be observable, or this test proves nothing"
        );
    }

    #[test]
    fn a_swap_drops_the_retired_model_once_its_jobs_resolve() {
        let (soteria, binaries) = trained();
        let state = soteria.save_state().expect("state");
        let service = ScreeningService::start(soteria, &config());
        let retired = Arc::downgrade(&lock(&service.slot).1);
        let _ = service
            .submit(binaries[0].clone())
            .into_ticket()
            .expect("accepted")
            .wait();
        assert!(retired.upgrade().is_some(), "epoch 0 is still serving");
        assert_eq!(service.swap(Soteria::from_state(state)), 1);
        // One job through the pipeline after the swap: the batcher has
        // finished every batch that could still hold the old model.
        let _ = service
            .submit(binaries[1].clone())
            .into_ticket()
            .expect("accepted")
            .wait();
        assert!(
            retired.upgrade().is_none(),
            "the retired model outlived its last job"
        );
        drop(service);
    }

    #[test]
    fn swap_from_path_loads_artifact_and_json_states() {
        let (soteria, binaries) = trained();
        let state = soteria.save_state().expect("state");
        let dir = std::env::temp_dir().join(format!(
            "soteria-swap-test-{}-{:x}",
            std::process::id(),
            fnv1a64(&binaries[0])
        ));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let artifact = dir.join("model.soteria");
        let json = dir.join("model.json");
        state.save_artifact_to_path(&artifact).expect("artifact");
        state.save_to_path(&json).expect("json");

        let service = ScreeningService::start(Soteria::from_state(state), &config());
        let e1 = service.swap_from_path(&artifact).expect("artifact swap");
        assert_eq!(e1, 1);
        let e2 = service.swap_from_path(&json).expect("json swap");
        assert_eq!(e2, 2);
        let missing = service.swap_from_path(&dir.join("nope.soteria"));
        assert!(missing.is_err(), "missing file must not swap");
        assert_eq!(service.epoch(), 2, "failed swap leaves the epoch alone");
        // All three models are the same weights, so verdicts are stable
        // across every epoch that served them.
        let v = service
            .submit(binaries[0].clone())
            .into_ticket()
            .expect("accepted")
            .wait();
        let newest = service.shutdown();
        assert_eq!(
            v,
            newest.screen_binary(&binaries[0], request_seed(9, &binaries[0]))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resubmitting_identical_content_hits_the_cache() {
        let (soteria, binaries) = trained();
        let service = ScreeningService::start(soteria, &config());
        let cold = service
            .submit(binaries[0].clone())
            .into_ticket()
            .expect("accepted");
        assert!(!cold.is_cached());
        let cold_verdict = cold.wait();
        let warm = service
            .submit(binaries[0].clone())
            .into_ticket()
            .expect("accepted");
        assert!(warm.is_cached(), "verdict should be memoized");
        assert_eq!(warm.wait(), cold_verdict);
        let stats = service.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.hits + stats.cache.misses, stats.cache.lookups);
        drop(service);
    }

    #[test]
    fn garbage_degrades_without_killing_the_service() {
        let (soteria, binaries) = trained();
        let service = ScreeningService::start(soteria, &config());
        let garbage = service
            .submit(vec![0xA5u8; 64])
            .into_ticket()
            .expect("accepted")
            .wait();
        assert!(garbage.is_degraded(), "garbage must degrade: {garbage:?}");
        // The service keeps answering real requests afterwards.
        let real = service
            .submit(binaries[0].clone())
            .into_ticket()
            .expect("accepted")
            .wait();
        let soteria = service.shutdown();
        assert_eq!(
            real,
            soteria.screen_binary(&binaries[0], request_seed(9, &binaries[0]))
        );
    }

    #[test]
    fn traces_capture_the_stage_timeline_without_changing_verdicts() {
        let (soteria, binaries) = trained();
        // Everything records into a scoped registry: the service captures
        // it at start and attaches it in the worker/batcher threads.
        let scope = soteria_telemetry::scoped();
        let service = ScreeningService::start(soteria, &config());
        let traced: Vec<Verdict> = binaries
            .iter()
            .map(|b| {
                service
                    .submit(b.clone())
                    .into_ticket()
                    .expect("accepted")
                    .wait()
            })
            .collect();
        assert_eq!(service.stats().in_flight, 0, "all requests resolved");
        let traces = soteria_telemetry::recent_traces(usize::MAX);
        assert_eq!(
            traces.len(),
            binaries.len(),
            "sampling 1.0 traces every request"
        );
        for t in &traces {
            let names: Vec<&str> = t.stages.iter().map(|s| s.name).collect();
            for want in ["request", "enqueue", "queue_wait", "extract", "infer"] {
                assert!(names.contains(&want), "stage {want} missing in {names:?}");
            }
            // Children hang off the root request stage.
            assert!(t.stages[1..].iter().all(|s| s.parent == Some(TRACE_ROOT)));
        }
        let report = soteria_telemetry::snapshot();
        for stage in ["queue_wait", "extract", "batch_wait", "infer", "total"] {
            let name = format!("serve.stage.{stage}");
            let s = report
                .span(&name)
                .unwrap_or_else(|| panic!("{name} recorded"));
            assert_eq!(s.count, binaries.len() as u64, "{name} count");
        }
        let soteria = service.shutdown();
        drop(scope);

        // Identical run with tracing off: verdicts must be bit-identical.
        let scope = soteria_telemetry::scoped();
        let service = ScreeningService::start(
            soteria,
            &ServeConfig {
                trace_sampling: 0.0,
                ..config()
            },
        );
        let untraced: Vec<Verdict> = binaries
            .iter()
            .map(|b| {
                service
                    .submit(b.clone())
                    .into_ticket()
                    .expect("accepted")
                    .wait()
            })
            .collect();
        assert_eq!(traced, untraced, "tracing changed a verdict");
        assert!(
            soteria_telemetry::recent_traces(usize::MAX).is_empty(),
            "sampling 0.0 must trace nothing"
        );
        drop(service);
        drop(scope);
    }

    #[test]
    fn expired_deadlines_degrade_and_never_enter_the_cache() {
        let (soteria, binaries) = trained();
        let service = ScreeningService::start(
            soteria,
            &ServeConfig {
                admission: AdmissionConfig {
                    default_deadline: Some(Duration::ZERO),
                    ..AdmissionConfig::default()
                },
                ..config()
            },
        );
        let expired = service
            .submit(binaries[0].clone())
            .into_ticket()
            .expect("admitted")
            .wait();
        match &expired {
            Verdict::Degraded { reason } => {
                assert_eq!(reason.slug(), "deadline", "unexpected fault: {reason}")
            }
            other => panic!("zero deadline must expire: {other:?}"),
        }
        assert_eq!(service.stats().deadline_expired, 1);
        // The degrade was timing-derived: an identical resubmission with a
        // workable deadline must go through the pipeline, not the cache.
        let retry = service
            .submit_with(
                binaries[0].clone(),
                SubmitOptions {
                    deadline: Some(Duration::from_secs(30)),
                    client: None,
                },
            )
            .into_ticket()
            .expect("admitted");
        assert!(!retry.is_cached(), "deadline degrade leaked into the cache");
        let verdict = retry.wait();
        assert!(!verdict.is_degraded(), "retry must resolve: {verdict:?}");
        let soteria = service.shutdown();
        assert_eq!(
            verdict,
            soteria.screen_binary(&binaries[0], request_seed(9, &binaries[0]))
        );
    }

    #[test]
    fn brownout_tier_sheds_clean_samples_without_caching() {
        let (soteria, binaries) = trained();
        let service = ScreeningService::start(
            soteria,
            &ServeConfig {
                admission: AdmissionConfig {
                    // Pressure 0.0 >= 0.0: every admission is AE-only.
                    brownout_threshold: Some(0.0),
                    ..AdmissionConfig::default()
                },
                ..config()
            },
        );
        let first = service
            .submit(binaries[0].clone())
            .into_ticket()
            .expect("admitted")
            .wait();
        match &first {
            Verdict::Degraded { reason } => {
                assert_eq!(reason.slug(), "overload", "unexpected fault: {reason}")
            }
            Verdict::Adversarial { .. } => {} // detector answered; also fine
            Verdict::Clean { .. } => panic!("ae-only tier can never answer Clean"),
        }
        assert!(service.stats().brownout >= 1);
        if first.is_degraded() {
            // Overload degrades are load-derived and must not be memoized.
            let again = service
                .submit(binaries[0].clone())
                .into_ticket()
                .expect("admitted");
            assert!(!again.is_cached(), "overload degrade leaked into cache");
            let _ = again.wait();
        }
        drop(service);
    }

    #[test]
    fn overload_rejections_carry_a_reason_and_leak_no_gauges() {
        let (soteria, binaries) = trained();
        let scope = soteria_telemetry::scoped();
        let service = ScreeningService::start(
            soteria,
            &ServeConfig {
                admission: AdmissionConfig {
                    reject_threshold: Some(0.0), // reject everything
                    ..AdmissionConfig::default()
                },
                ..config()
            },
        );
        match service.submit(binaries[0].clone()) {
            Submit::Rejected { reason, .. } => {
                assert_eq!(reason, RejectReason::Overloaded);
            }
            Submit::Accepted(_) => panic!("reject threshold 0.0 must shed"),
        }
        let stats = service.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.in_flight, 0);
        let report = soteria_telemetry::snapshot();
        assert_eq!(report.counter("serve.shed.overloaded"), Some(1));
        assert_eq!(report.gauge("serve.queue.depth").unwrap_or(0), 0);
        assert_eq!(report.gauge("serve.inflight").unwrap_or(0), 0);
        drop(service);
        drop(scope);
    }

    #[test]
    fn gauges_never_go_negative_under_concurrent_reject_and_drain() {
        let (soteria, binaries) = trained();
        let scope = soteria_telemetry::scoped();
        let handle = scope.handle();
        // A tiny queue with garbage (fast-failing) samples maximizes the
        // submit/dequeue race that used to drive serve.queue.depth below
        // zero: the increment landed after try_send, so a worker's
        // decrement could come first.
        let service = ScreeningService::start(
            soteria,
            &ServeConfig {
                workers: 4,
                queue_capacity: 2,
                cache_capacity: 0, // every submit takes the queue path
                batch_window: Duration::ZERO,
                ..config()
            },
        );
        std::thread::scope(|ts| {
            for t in 0..4u8 {
                let service = &service;
                let handle = handle.clone();
                ts.spawn(move || {
                    let _attach = handle.attach();
                    for i in 0..200u32 {
                        let mut bytes = vec![0xA5u8; 32];
                        bytes[0] = t;
                        bytes[1] = i as u8;
                        bytes[2] = (i >> 8) as u8;
                        if let Submit::Accepted(ticket) = service.submit(bytes) {
                            let _ = ticket.wait();
                        }
                    }
                });
            }
            // Sample the gauges while the hammering runs: the invariant is
            // "never negative at any observable instant".
            for _ in 0..500 {
                let report = soteria_telemetry::snapshot();
                let depth = report.gauge("serve.queue.depth").unwrap_or(0);
                let inflight = report.gauge("serve.inflight").unwrap_or(0);
                assert!(depth >= 0, "queue depth went negative: {depth}");
                assert!(inflight >= 0, "inflight went negative: {inflight}");
            }
        });
        let _ = &binaries;
        let stats = service.stats();
        drop(service);
        let report = soteria_telemetry::snapshot();
        assert_eq!(report.gauge("serve.queue.depth"), Some(0));
        assert_eq!(report.gauge("serve.inflight"), Some(0));
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.submitted, 800);
        drop(scope);
    }

    #[test]
    fn wait_for_times_out_and_then_resolves() {
        let (soteria, binaries) = trained();
        let service = ScreeningService::start(soteria, &config());
        let ticket = service
            .submit(binaries[0].clone())
            .into_ticket()
            .expect("admitted");
        // An impossible timeout hands the ticket back; a generous retry
        // resolves it.
        let verdict = match ticket.wait_for(Duration::ZERO) {
            Ok(v) => v,
            Err(pending) => pending
                .wait_for(Duration::from_secs(30))
                .expect("verdict within 30s"),
        };
        assert!(!verdict.is_degraded(), "verdict: {verdict:?}");
        drop(service);
    }

    #[test]
    fn drop_without_shutdown_still_drains() {
        let (soteria, binaries) = trained();
        let service = ScreeningService::start(soteria, &config());
        let ticket = service
            .submit(binaries[0].clone())
            .into_ticket()
            .expect("accepted");
        drop(service);
        // The in-flight sample was drained before the threads exited, so
        // the ticket resolves to a real verdict (not a drop-degrade).
        let verdict = ticket.wait();
        assert!(!verdict.is_degraded(), "drained verdict: {verdict:?}");
    }
}
