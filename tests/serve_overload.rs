//! Overload-hardening invariants, asserted end to end against a trained
//! service with the full admission stack on and deterministic chaos
//! armed:
//!
//! 1. **Exactly one terminal outcome** — every submission is either
//!    rejected at admission or resolves to exactly one verdict; nothing
//!    hangs past the budget, even at far-beyond-saturation arrival rates
//!    with panic and slow-worker injection.
//! 2. **Accepted verdicts stay bit-identical** — any accepted,
//!    non-degraded verdict equals a sequential chaos-free
//!    [`Soteria::screen_binary`] of the identical content; overload may
//!    shed or degrade a request, never silently change its answer.
//! 3. **Brownout answers what it can** — under the AE-only tier, an
//!    adversarial sample still gets its exact full-pipeline verdict
//!    (the detector short-circuits the classifier either way).
//! 4. **Shutdown past deadlines is clean** — draining a service whose
//!    in-flight requests have all expired returns the model, resolves
//!    every ticket, and leaks no threads into the shared compute pool.

use soteria::{Soteria, SoteriaConfig, Verdict};
use soteria_corpus::{Corpus, CorpusConfig, Family};
use soteria_gea::{gea_merge, SizeClass, TargetSelection};
use soteria_serve::{
    request_seed, AdmissionConfig, BreakerConfig, ScreeningService, ServeConfig, Submit,
    SubmitOptions,
};
use std::sync::Mutex;
use std::time::Duration;

/// Chaos seeding is process-global; tests that arm (or depend on
/// disarmed) chaos serialize through this lock.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn trained() -> (Soteria, Corpus, Vec<usize>) {
    let corpus = Corpus::generate(&CorpusConfig {
        counts: [10, 10, 10, 10],
        seed: 47,
        av_noise: false,
        lineages: 3,
    });
    let split = corpus.split(0.8, 2);
    let soteria = Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 5).expect("train");
    (soteria, corpus, split.test)
}

#[test]
fn chaos_overload_reaches_exactly_one_outcome_per_request() {
    let guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let (soteria, corpus, test) = trained();

    // Unique request contents (trailing salt defeats the cache) so every
    // accepted request pays the full pipeline under injected faults.
    let make_request = |i: usize| -> Vec<u8> {
        let mut bytes = corpus.samples()[test[i % test.len()]].binary().to_bytes();
        bytes.extend_from_slice(&(i as u64).to_le_bytes());
        bytes
    };

    let config = ServeConfig {
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 0,
        batch_window: Duration::ZERO,
        max_batch: 4,
        seed: 29,
        admission: AdmissionConfig {
            default_deadline: Some(Duration::from_millis(100)),
            brownout_threshold: Some(0.5),
            reject_threshold: Some(0.9),
            breaker: Some(BreakerConfig::default()),
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    };
    let service = ScreeningService::start(soteria, &config);

    // Arm deterministic chaos (extraction panics + slow workers) and
    // silence the hook — the injected panics are caught by the isolates.
    std::panic::set_hook(Box::new(|_| {}));
    soteria_resilience::set_chaos_seed(Some(31));

    // Four threads blasting submissions with no pacing is, by
    // construction, far beyond saturation for a 2-worker service.
    const THREADS: usize = 4;
    const PER_THREAD: usize = 40;
    let hang_budget = Duration::from_secs(30);
    // (request index, verdict) for accepted requests; rejected count.
    let (outcomes, rejected): (Vec<(usize, Verdict)>, usize) = std::thread::scope(|s| {
        let service = &service;
        let make_request = &make_request;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    let mut rejected = 0usize;
                    for i in 0..PER_THREAD {
                        let idx = t * PER_THREAD + i;
                        match service.submit_with(make_request(idx), SubmitOptions::default()) {
                            Submit::Accepted(ticket) => {
                                let verdict = ticket
                                    .wait_for(hang_budget)
                                    .unwrap_or_else(|_| panic!("request {idx} hung past budget"));
                                mine.push((idx, verdict));
                            }
                            Submit::Rejected { retry_after, .. } => {
                                // A retry hint, when present, is finite
                                // and non-zero.
                                if let Some(wait) = retry_after {
                                    assert!(wait > Duration::ZERO);
                                }
                                rejected += 1;
                            }
                        }
                    }
                    (mine, rejected)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .fold((Vec::new(), 0), |(mut all, r), (mine, rejected)| {
                all.extend(mine);
                (all, r + rejected)
            })
    });

    let stats = service.stats();
    let soteria = service.shutdown();
    let _ = std::panic::take_hook();
    soteria_resilience::set_chaos_seed(None);

    // Invariant 1: exactly one terminal outcome per submission.
    assert_eq!(
        outcomes.len() + rejected,
        THREADS * PER_THREAD,
        "every submission must reject or resolve exactly once"
    );
    assert_eq!(stats.submitted, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.rejected, rejected as u64);

    // Invariant 2: accepted non-degraded verdicts are bit-identical to a
    // sequential chaos-free replay of the same content.
    let mut verified = 0usize;
    for (idx, verdict) in &outcomes {
        if verdict.is_degraded() {
            continue;
        }
        let bytes = make_request(*idx);
        let expected = soteria.screen_binary(&bytes, request_seed(29, &bytes));
        assert_eq!(
            verdict, &expected,
            "request {idx}: overload changed an accepted verdict"
        );
        verified += 1;
    }
    assert!(
        verified > 0,
        "saturation shed every single request — the battery proved nothing"
    );
    drop(guard);
}

#[test]
fn brownout_preserves_adversarial_verdicts_bit_identically() {
    let guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    soteria_resilience::set_chaos_seed(None);
    let (soteria, corpus, test) = trained();

    // GEA-merged samples: the full pipeline flags these via the detector,
    // which is exactly the stage the brownout tier keeps.
    let selection = TargetSelection::select(&corpus);
    let target = selection.sample(
        &corpus,
        selection
            .target(Family::Benign, SizeClass::Large)
            .expect("benign target exists"),
    );
    let merged: Vec<Vec<u8>> = test
        .iter()
        .filter(|&&i| corpus.samples()[i].family() != Family::Benign)
        .take(6)
        .map(|&i| {
            gea_merge(&corpus.samples()[i], target)
                .expect("merge")
                .sample()
                .binary()
                .to_bytes()
        })
        .collect();
    // Keep only merges the *full* pipeline flags adversarial: a merge big
    // enough to trip the extraction guards degrades on both paths and
    // proves nothing about brownout. Dedupe by content — distinct malware
    // merged into the same target can collide byte-for-byte, and a repeat
    // submission is a cache hit that never reaches admission.
    let mut seen = std::collections::HashSet::new();
    let adversarial: Vec<(Vec<u8>, Verdict)> = merged
        .into_iter()
        .filter(|bytes| seen.insert(bytes.clone()))
        .filter_map(|bytes| {
            let expected = soteria.screen_binary(&bytes, request_seed(29, &bytes));
            expected.is_adversarial().then_some((bytes, expected))
        })
        .collect();
    assert!(
        !adversarial.is_empty(),
        "test premise: at least one GEA merge must flag adversarial"
    );

    let config = ServeConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 16,
        cache_shards: 2,
        batch_window: Duration::ZERO,
        max_batch: 4,
        seed: 29,
        admission: AdmissionConfig {
            // Pressure 0.0 >= 0.0: every admitted request is AE-only.
            brownout_threshold: Some(0.0),
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    };
    let service = ScreeningService::start(soteria, &config);
    let brownout_verdicts: Vec<Verdict> = adversarial
        .iter()
        .map(|(b, _)| {
            service
                .submit(b.clone())
                .into_ticket()
                .expect("admitted")
                .wait()
        })
        .collect();
    let stats = service.stats();
    drop(service);

    assert!(
        stats.brownout >= adversarial.len() as u64,
        "brownout {} < {} admitted AE-only requests; verdicts: {brownout_verdicts:?}",
        stats.brownout,
        adversarial.len()
    );
    for ((_, expected), verdict) in adversarial.iter().zip(&brownout_verdicts) {
        assert_eq!(
            verdict, expected,
            "brownout must not change an adversarial verdict"
        );
    }
    drop(guard);
}

#[test]
fn shutdown_with_expired_inflight_requests_drains_cleanly() {
    let guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    soteria_resilience::set_chaos_seed(None);
    let (soteria, corpus, test) = trained();
    let pool_before = soteria_nn::backend::pool_threads();

    let config = ServeConfig {
        workers: 2,
        queue_capacity: 32,
        cache_capacity: 0,
        batch_window: Duration::from_millis(5),
        max_batch: 4,
        seed: 29,
        admission: AdmissionConfig {
            // Everything in flight is past its deadline by construction.
            default_deadline: Some(Duration::ZERO),
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    };
    let service = ScreeningService::start(soteria, &config);
    let tickets: Vec<_> = (0..8)
        .map(|i| {
            let mut bytes = corpus.samples()[test[i % test.len()]].binary().to_bytes();
            bytes.extend_from_slice(&(i as u64).to_le_bytes());
            service.submit(bytes).into_ticket().expect("admitted")
        })
        .collect();

    // Shut down while those requests are still in flight: drain must
    // hand the model back (exactly once, by move semantics) and every
    // outstanding ticket must still resolve — no reply may be dropped.
    let _soteria: Soteria = service.shutdown();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let verdict = ticket
            .wait_for(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("ticket {i} unresolved after drain"));
        match verdict {
            Verdict::Degraded { reason } => assert_eq!(
                reason.slug(),
                "deadline",
                "zero-deadline request degraded for the wrong reason: {reason}"
            ),
            other => panic!("zero-deadline request must expire, got {other:?}"),
        }
    }

    // The service's own threads are joined by shutdown; the shared
    // compute pool must be exactly as big as before the service ran.
    assert_eq!(
        soteria_nn::backend::pool_threads(),
        pool_before,
        "service lifecycle leaked threads into the shared pool"
    );
    drop(guard);
}
