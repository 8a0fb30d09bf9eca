//! # soteria-serve — concurrent screening as a service
//!
//! Wraps a trained [`Soteria`](soteria::Soteria) behind a bounded work
//! queue, a worker pool, and a micro-batching inference thread, with a
//! sharded content-addressed verdict cache in front. Screening takes
//! `&self`, so the threads share one `Arc` of the model per epoch; a hot
//! swap replaces that `Arc`, and each in-flight job finishes on the model
//! that extracted it:
//!
//! - [`ScreeningService`] — the service itself: `start` → `submit` →
//!   [`Ticket::wait`] → `swap` → `shutdown`.
//! - [`VerdictCache`] — FNV-keyed, sharded, LRU-per-shard memoization of
//!   verdicts by exact binary content, with epoch-stamped inserts.
//! - [`protocol`] — the line protocol (path or hex in, JSON verdict out)
//!   used by `soteria-cli serve`.
//! - [`admin`] — in-band observability verbs (`METRICS`, `TRACES`,
//!   `HEALTH`) any front end can answer between screening requests.
//! - [`admission`] / [`deadline`] — overload hardening: per-request
//!   deadlines, per-client rate limits, pressure-tiered shedding with an
//!   AE-only brownout tier, and a circuit breaker over extraction
//!   faults. All disabled by default.
//!
//! ## Why caching and batching cannot change an answer
//!
//! The service seeds each sample's random walks from its *content*
//! ([`request_seed`]), and every inference stage is row-independent, so a
//! verdict is a pure function of `(model, bytes, service seed)`. Worker
//! count, batch window, arrival order, and cache hits are all invisible in
//! the output — the equivalence suite in the workspace `tests/` directory
//! asserts this bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod admission;
pub mod cache;
pub mod deadline;
pub mod protocol;
mod service;

pub use admin::handle_admin;
pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionDecision, RateLimit, RejectReason,
};
pub use cache::{fnv1a64, CacheStats, VerdictCache};
pub use deadline::Deadline;
pub use service::{
    request_seed, ScreeningService, ServeConfig, ServiceStats, Submit, SubmitOptions, Ticket,
};
pub use soteria_resilience::BreakerConfig;
