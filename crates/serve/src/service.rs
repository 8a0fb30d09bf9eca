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
//! A single batcher thread owns the trained [`Soteria`] and screens queued
//! samples together — reconstruction errors from one stacked matrix, both
//! CNNs one forward pass each — so the threaded matmul in `soteria-nn`
//! amortizes across concurrent requests.
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
//! [`AdmissionController`](crate::admission::AdmissionController):
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
//! a single request. Each swap advances a monotonically increasing
//! *epoch*: workers stamp every job with the epoch of the extractor they
//! used, the swap command travels through the same channel as the jobs,
//! and the batcher keeps every epoch's model alive until shutdown so
//! stragglers extracted under an old epoch are still screened by *their*
//! model. Batches never mix epochs, so every verdict during a swap is
//! bit-identical to either the old model's sequential answer or the new
//! model's — never a hybrid. The verdict cache is cleared at the swap
//! point and inserts are epoch-guarded, so a stale verdict can never
//! outlive the model that produced it.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionDecision, RejectReason};
use crate::cache::{fnv1a64, CacheStats, VerdictCache};
use crate::deadline::Deadline;
use soteria::pipeline::extract_binary;
use soteria::{Soteria, SoteriaState, StateError, Verdict};
use soteria_features::{FeatureExtractor, SampleFeatures};
use soteria_resilience::{FaultKind, ResourceGuards};
use soteria_telemetry::TraceBuilder;
use std::collections::{BTreeMap, VecDeque};
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
    /// Model epoch of the extractor that produced `features`; the batcher
    /// screens the job with the model of the same epoch, never another.
    epoch: u64,
    trace: Option<TraceBuilder>,
}

/// What travels from the workers (and the swap path) to the batcher.
/// Routing swaps through the same channel as jobs gives them a
/// well-defined position in the stream without a second synchronization
/// primitive.
// The large variant is the hot one: every job is moved through the
// channel exactly once, so boxing it to shrink the rare Swap variant
// would add an allocation per request for nothing.
#[allow(clippy::large_enum_variant)]
enum BatchMsg {
    /// An extracted request awaiting inference.
    Job(InferJob),
    /// Install `model` as the serving model for `epoch` and newer jobs.
    /// Boxed: a trained model is orders of magnitude larger than a job.
    Swap { epoch: u64, model: Box<Soteria> },
}

/// The shared (epoch, extractor) slot workers read per job. The mutex is
/// held only for the copy-out (and, on the swap path, the epoch bump), so
/// it is never contended for longer than two pointer copies.
type ExtractorSlot = Arc<Mutex<(u64, Arc<FeatureExtractor>)>>;

/// A running screening service wrapping one trained [`Soteria`].
///
/// Submissions are admitted through a bounded queue, extracted by a worker
/// pool, screened in micro-batches by a single batcher thread that owns the
/// model, and memoized in a content-addressed verdict cache. Dropping the
/// service (or calling [`shutdown`](ScreeningService::shutdown)) drains
/// every admitted sample before the threads exit.
#[derive(Debug)]
pub struct ScreeningService {
    submit_tx: Option<SyncSender<Job>>,
    /// The service's own sender into the batcher channel, used for swap
    /// commands. Dropped after the workers join so the batcher drains.
    infer_tx: Option<Sender<BatchMsg>>,
    workers: Vec<JoinHandle<()>>,
    batcher: Option<JoinHandle<Soteria>>,
    cache: Arc<VerdictCache>,
    admission: Arc<AdmissionController>,
    shared: Arc<SharedCounters>,
    slot: ExtractorSlot,
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
        let (infer_tx, infer_rx) = mpsc::channel::<BatchMsg>();

        let slot: ExtractorSlot = Arc::new(Mutex::new((0, Arc::new(soteria.extractor().clone()))));
        let guards = soteria.config().guards.clone();
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
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let submit_rx = Arc::clone(&submit_rx);
                let infer_tx = infer_tx.clone();
                let slot = Arc::clone(&slot);
                let guards = guards.clone();
                let telemetry = telemetry.clone();
                let admission = Arc::clone(&admission);
                let shared = Arc::clone(&shared);
                let in_flight = Arc::clone(&in_flight);
                std::thread::Builder::new()
                    .name(format!("soteria-serve-worker-{i}"))
                    .spawn(move || {
                        let _telemetry = telemetry.attach();
                        worker_loop(
                            &submit_rx, &infer_tx, &slot, &guards, &admission, &shared, &in_flight,
                        )
                    })
                    .expect("spawn screening worker")
            })
            .collect();

        let batch_window = config.batch_window;
        let max_batch = config.max_batch.max(1);
        let batcher_cache = Arc::clone(&cache);
        let batcher_in_flight = Arc::clone(&in_flight);
        let batcher_telemetry = telemetry.clone();
        let batcher_shared = Arc::clone(&shared);
        let batcher = std::thread::Builder::new()
            .name("soteria-serve-batcher".to_owned())
            .spawn(move || {
                let _telemetry = batcher_telemetry.attach();
                batcher_loop(
                    soteria,
                    &infer_rx,
                    batch_window,
                    max_batch,
                    &batcher_cache,
                    &batcher_in_flight,
                    &batcher_shared,
                )
            })
            .expect("spawn screening batcher");

        ScreeningService {
            submit_tx: Some(submit_tx),
            infer_tx: Some(infer_tx),
            workers,
            batcher: Some(batcher),
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
    /// extracted after this call returns are screened by the new model.
    /// The verdict cache is cleared so no old-model verdict outlives the
    /// swap, and batches never mix the two models.
    pub fn swap(&self, soteria: Soteria) -> u64 {
        // The slot mutex serializes concurrent swaps: the epoch bump, the
        // extractor publish, and the command send happen as one unit, so
        // epochs observed by workers and the batcher are both monotone.
        let epoch = {
            let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
            let epoch = slot.0 + 1;
            *slot = (epoch, Arc::new(soteria.extractor().clone()));
            let send = self
                .infer_tx
                .as_ref()
                .expect("swap on a running service")
                .send(BatchMsg::Swap {
                    epoch,
                    model: Box::new(soteria),
                });
            debug_assert!(send.is_ok(), "batcher outlives the service handle");
            epoch
        };
        // Clear promptly so submit-side lookups stop answering with the
        // old model; the batcher clears again when it installs the new
        // model, catching any old-epoch insert that raced this clear.
        self.cache.clear();
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
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).0
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
    /// Panics if the batcher thread itself died (per-sample faults never
    /// kill it; this would indicate a bug in the batching scaffolding).
    pub fn shutdown(mut self) -> Soteria {
        self.stop_intake();
        let batcher = self.batcher.take().expect("batcher still attached");
        match batcher.join() {
            Ok(soteria) => soteria,
            Err(_) => panic!("screening batcher thread panicked"),
        }
    }

    /// Closes the queue and joins the workers (queued jobs drain first),
    /// then drops the service's own batcher sender so the batcher's
    /// channel closes once the workers' clones are gone too.
    fn stop_intake(&mut self) {
        drop(self.submit_tx.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        drop(self.infer_tx.take());
    }
}

impl Drop for ScreeningService {
    fn drop(&mut self) {
        self.stop_intake();
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
    }
}

/// Worker half: pull a job, parse + lift + extract with per-sample fault
/// isolation, pass the result to the batcher. Expired jobs resolve
/// immediately (deadline degrade) without paying for extraction; fault
/// outcomes feed the admission breaker.
fn worker_loop(
    submit_rx: &Arc<Mutex<Receiver<Job>>>,
    infer_tx: &Sender<BatchMsg>,
    slot: &ExtractorSlot,
    guards: &ResourceGuards,
    admission: &AdmissionController,
    shared: &SharedCounters,
    in_flight: &AtomicU64,
) {
    loop {
        // Hold the lock only for the dequeue, never while working.
        let job = {
            let rx = submit_rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
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
        // Snapshot the current (epoch, extractor) pair: the job is
        // extracted by this extractor and must be screened by this
        // epoch's model, even if a swap lands while extraction runs.
        let (epoch, extractor) = {
            let slot = slot.lock().unwrap_or_else(|e| e.into_inner());
            (slot.0, Arc::clone(&slot.1))
        };
        // Serving-path chaos gate: lets the overload harness inject worker
        // faults (and exercise the breaker) deterministically per content
        // seed. A no-op unless chaos is armed.
        let seed = job.seed;
        let features = soteria_resilience::isolate(move || {
            soteria_resilience::chaos_point("serve.extract", seed);
        })
        .and_then(|()| extract_binary(&extractor, &job.bytes, seed, guards));
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
        let handoff = infer_tx.send(BatchMsg::Job(InferJob {
            key: job.key,
            seed: job.seed,
            reply: job.reply,
            features,
            enqueued: job.enqueued,
            extracted,
            deadline: job.deadline,
            mode: job.mode,
            epoch,
            trace: job.trace,
        }));
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

/// The batcher's view of the model fleet: one live model per epoch seen
/// so far, plus jobs stamped with an epoch whose model has not arrived
/// yet (a worker published the new extractor before the swap command
/// reached this thread — the command is in flight and will mature them).
struct EpochModels {
    /// Every epoch's model, kept alive until shutdown so a straggler
    /// extracted under an old epoch is screened by *its* model. Bounded
    /// by the number of swaps, which are explicit operator actions.
    models: Vec<(u64, Soteria)>,
    /// Highest epoch with an installed model.
    latest: u64,
    /// Jobs waiting for their epoch's model to arrive.
    premature: Vec<InferJob>,
}

impl EpochModels {
    /// Routes one channel message: jobs with a live epoch go to `ready`
    /// for batching, future-epoch jobs wait, and a swap installs its
    /// model, clears the cache, and matures any waiting jobs.
    fn accept(&mut self, msg: BatchMsg, ready: &mut VecDeque<InferJob>, cache: &VerdictCache) {
        match msg {
            BatchMsg::Job(job) => {
                if job.epoch <= self.latest {
                    ready.push_back(job);
                } else {
                    self.premature.push(job);
                }
            }
            BatchMsg::Swap { epoch, model } => {
                self.models.push((epoch, *model));
                self.latest = self.latest.max(epoch);
                // Drop every memoized verdict: entries inserted by an
                // old-epoch batch that raced the submit-side clear die
                // here, and the epoch guard in `process_batch` keeps any
                // still-running old batch from re-inserting.
                cache.clear();
                soteria_telemetry::counter("serve.swap.applied", 1);
                let latest = self.latest;
                let (matured, waiting): (Vec<_>, Vec<_>) = std::mem::take(&mut self.premature)
                    .into_iter()
                    .partition(|j| j.epoch <= latest);
                self.premature = waiting;
                ready.extend(matured);
            }
        }
    }

    /// The model for `epoch`, which is guaranteed live for any job that
    /// reached the ready queue.
    fn model_mut(&mut self, epoch: u64) -> &mut Soteria {
        self.models
            .iter_mut()
            .find(|(e, _)| *e == epoch)
            .map(|(_, m)| m)
            .expect("ready jobs only carry live epochs")
    }

    /// Hands back the newest model at shutdown.
    fn into_latest(self) -> Soteria {
        self.models
            .into_iter()
            .max_by_key(|(e, _)| *e)
            .map(|(_, m)| m)
            .expect("at least the starting model")
    }
}

/// Batcher half: own the model fleet, collect a latency-bounded window of
/// extracted samples, screen them per epoch in stacked passes, reply and
/// memoize. Each collected window is partitioned by model epoch — a batch
/// never mixes two models' samples.
fn batcher_loop(
    soteria: Soteria,
    infer_rx: &Receiver<BatchMsg>,
    window: Duration,
    max_batch: usize,
    cache: &VerdictCache,
    in_flight: &AtomicU64,
    shared: &SharedCounters,
) -> Soteria {
    let mut fleet = EpochModels {
        models: vec![(0, soteria)],
        latest: 0,
        premature: Vec::new(),
    };
    let mut ready: VecDeque<InferJob> = VecDeque::new();
    let mut open = true;
    loop {
        // Block for the batch's first sample; queue closed and ready
        // queue empty means drained.
        while ready.is_empty() {
            if !open {
                break;
            }
            match infer_rx.recv() {
                Ok(msg) => fleet.accept(msg, &mut ready, cache),
                Err(_) => open = false,
            }
        }
        let Some(first) = ready.pop_front() else {
            break;
        };
        let mut jobs = vec![first];
        // Whatever is already queued batches for free — amortization with
        // zero added latency, even with a zero window.
        while jobs.len() < max_batch {
            if let Some(job) = ready.pop_front() {
                jobs.push(job);
                continue;
            }
            match infer_rx.try_recv() {
                Ok(msg) => fleet.accept(msg, &mut ready, cache),
                Err(_) => break,
            }
        }
        // Then wait out the remaining window for stragglers.
        if open && !window.is_zero() && jobs.len() < max_batch {
            let deadline = Instant::now() + window;
            loop {
                if jobs.len() >= max_batch {
                    break;
                }
                if let Some(job) = ready.pop_front() {
                    jobs.push(job);
                    continue;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                match infer_rx.recv_timeout(deadline - now) {
                    Ok(msg) => fleet.accept(msg, &mut ready, cache),
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
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
            let current = epoch == fleet.latest;
            process_batch(
                fleet.model_mut(epoch),
                group,
                cache,
                in_flight,
                shared,
                current,
            );
        }
    }
    // Defensive: a premature job whose swap command never arrived cannot
    // happen while the service holds its sender, but degrade rather than
    // hang if the invariant is ever broken.
    for job in fleet.premature.drain(..) {
        in_flight.fetch_sub(1, Ordering::Relaxed);
        soteria_telemetry::gauge_add("serve.inflight", -1);
        let _ = job.reply.send(dropped_verdict());
    }
    fleet.into_latest()
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

/// Screens one collected batch (all one model epoch) and resolves its
/// tickets. Full-tier jobs run detector + classifier; brownout (AE-only)
/// jobs run the detector alone; jobs whose deadline expired in the queue
/// degrade uninferred. `current` is whether this epoch is the newest one:
/// verdicts from superseded models still answer their tickets but must
/// not enter the cache, where they would outlive their model.
fn process_batch(
    soteria: &mut Soteria,
    jobs: Vec<InferJob>,
    cache: &VerdictCache,
    in_flight: &AtomicU64,
    shared: &SharedCounters,
    current: bool,
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
        // not — the same bytes may succeed once pressure passes. And
        // only the newest epoch inserts: a superseded model's verdict in
        // the cache would survive the swap that retired it.
        let cacheable = current
            && match &verdict {
                Verdict::Degraded { reason } => reason.content_derived(),
                _ => true,
            };
        if cacheable {
            cache.insert(p.key, verdict.clone());
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
        let mut soteria = service.shutdown();
        let sequential: Vec<Verdict> = binaries
            .iter()
            .map(|b| soteria.screen_binary(b, request_seed(9, b)))
            .collect();
        assert_eq!(served, sequential);
    }

    #[test]
    fn hot_swap_switches_models_and_clears_the_cache() {
        let (mut old, binaries) = trained();
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
        let mut newest = service.shutdown();
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
        let mut newest = service.shutdown();
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
        let mut soteria = service.shutdown();
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
        let mut soteria = service.shutdown();
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
