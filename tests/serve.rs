//! The screening service's core contract, asserted end to end:
//!
//! 1. **Equivalence** — for any worker count and batch window, the service
//!    produces verdicts bit-identical to a sequential
//!    [`Soteria::screen_binary`] replay with content-derived seeds, and a
//!    cache hit equals the cold-path verdict it memoized.
//! 2. **Stress + fault isolation** — many threads submitting a mix of
//!    clean, GEA-adversarial, and corrupted samples: no aborts, every
//!    submission resolves (verdict, `Degraded`, or `Rejected`), and the
//!    cache accounting stays consistent under the race.

use soteria::{Soteria, SoteriaConfig, Verdict};
use soteria_corpus::{Corpus, CorpusConfig, Family, FaultInjector};
use soteria_gea::{gea_merge, SizeClass, TargetSelection};
use soteria_serve::{request_seed, ScreeningService, ServeConfig, Submit};
use std::time::Duration;

fn trained() -> (Soteria, Corpus, Vec<usize>) {
    let corpus = Corpus::generate(&CorpusConfig {
        counts: [10, 10, 10, 10],
        seed: 33,
        av_noise: false,
        lineages: 3,
    });
    let split = corpus.split(0.8, 2);
    let soteria = Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 5).expect("train");
    (soteria, corpus, split.test)
}

fn serve_config(workers: usize, window: Duration) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: 64,
        cache_capacity: 64,
        cache_shards: 4,
        batch_window: window,
        max_batch: 4,
        seed: 17,
        trace_sampling: 1.0,
        ..ServeConfig::default()
    }
}

#[test]
fn any_worker_count_and_window_is_bit_identical_to_sequential() {
    let (mut soteria, corpus, test) = trained();
    let mut requests: Vec<Vec<u8>> = test
        .iter()
        .map(|&i| corpus.samples()[i].binary().to_bytes())
        .collect();
    // A malformed sample rides along and must degrade identically.
    requests.push(vec![0xA5u8; 64]);

    let expected: Vec<Verdict> = requests
        .iter()
        .map(|b| soteria.screen_binary(b, request_seed(17, b)))
        .collect();
    let degraded: Vec<usize> = (0..expected.len())
        .filter(|&i| expected[i].is_degraded())
        .collect();
    assert_eq!(degraded, [requests.len() - 1], "only the malformed sample");

    for workers in [1usize, 3] {
        for window_ms in [0u64, 5] {
            let config = serve_config(workers, Duration::from_millis(window_ms));
            let service = ScreeningService::start(soteria, &config);
            let tickets: Vec<_> = requests
                .iter()
                .map(|b| {
                    service
                        .submit(b.clone())
                        .into_ticket()
                        .expect("queue sized for the whole run")
                })
                .collect();
            let got: Vec<Verdict> = tickets.into_iter().map(|t| t.wait()).collect();
            assert_eq!(
                got, expected,
                "service diverged at workers={workers} window={window_ms}ms"
            );
            // Closed-loop replay: `workers` submitters each drive submit →
            // wait back to back over an interleaved share of three passes,
            // so repeats are cache hits racing fresh work.
            std::thread::scope(|s| {
                for t in 0..workers {
                    let (service, requests, expected) = (&service, &requests, &expected);
                    s.spawn(move || {
                        for i in (t..3 * requests.len()).step_by(workers) {
                            let k = i % requests.len();
                            let ticket = service.submit(requests[k].clone()).into_ticket();
                            let got = ticket.expect("closed loop never fills the queue").wait();
                            assert_eq!(
                                got, expected[k],
                                "closed-loop request {k} diverged at workers={workers} \
                                 window={window_ms}ms"
                            );
                        }
                    });
                }
            });
            soteria = service.shutdown();
        }
    }
}

#[test]
fn cache_hits_equal_the_cold_path_verdicts() {
    let (soteria, corpus, test) = trained();
    let requests: Vec<Vec<u8>> = test
        .iter()
        .take(5)
        .map(|&i| corpus.samples()[i].binary().to_bytes())
        .collect();
    let service = ScreeningService::start(soteria, &serve_config(2, Duration::ZERO));

    let cold: Vec<Verdict> = requests
        .iter()
        .map(|b| {
            let ticket = service.submit(b.clone()).into_ticket().expect("accepted");
            assert!(!ticket.is_cached(), "first sight of this content");
            ticket.wait()
        })
        .collect();
    let warm: Vec<Verdict> = requests
        .iter()
        .map(|b| {
            let ticket = service.submit(b.clone()).into_ticket().expect("accepted");
            assert!(ticket.is_cached(), "second submit of identical content");
            ticket.wait()
        })
        .collect();
    assert_eq!(warm, cold);

    let stats = service.stats();
    assert_eq!(stats.cache.hits, requests.len() as u64);
    assert_eq!(stats.cache.hits + stats.cache.misses, stats.cache.lookups);
    drop(service);
}

/// Hot swap under concurrent load: every verdict produced while the swap
/// is in flight is bit-identical to either the old model's sequential
/// oracle or the new model's — never a mixture — and once the swap
/// settles, only new-model verdicts remain.
#[test]
fn hot_swap_mid_load_serves_only_whole_model_verdicts() {
    let (old, corpus, test) = trained();
    let new = Soteria::train(
        &SoteriaConfig::tiny(),
        &corpus,
        &corpus.split(0.8, 2).train,
        11,
    )
    .expect("train");
    let requests: Vec<Vec<u8>> = test
        .iter()
        .take(6)
        .map(|&i| corpus.samples()[i].binary().to_bytes())
        .collect();
    let old_oracle: Vec<Verdict> = requests
        .iter()
        .map(|b| old.screen_binary(b, request_seed(17, b)))
        .collect();
    let new_oracle: Vec<Verdict> = requests
        .iter()
        .map(|b| new.screen_binary(b, request_seed(17, b)))
        .collect();
    assert_ne!(
        old_oracle, new_oracle,
        "differently seeded training must be observable, or this test proves nothing"
    );

    let config = ServeConfig {
        workers: 3,
        queue_capacity: 256,
        cache_capacity: 64,
        cache_shards: 4,
        batch_window: Duration::from_millis(1),
        max_batch: 4,
        seed: 17,
        ..ServeConfig::default()
    };
    let service = ScreeningService::start(old, &config);
    std::thread::scope(|s| {
        let service = &service;
        let requests = &requests;
        let old_oracle = &old_oracle;
        let new_oracle = &new_oracle;
        for t in 0..4usize {
            s.spawn(move || {
                for i in 0..30usize {
                    let idx = (t * 7 + i) % requests.len();
                    if let Submit::Accepted(ticket) = service.submit(requests[idx].clone()) {
                        let v = ticket.wait();
                        assert!(
                            v == old_oracle[idx] || v == new_oracle[idx],
                            "verdict matches neither model's oracle for request {idx}: {v:?}"
                        );
                    }
                }
            });
        }
        // Swap roughly mid-load; verdicts before and after must each be
        // whole-model answers.
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(service.swap(new), 1);
    });
    // A sentinel with never-seen content forces one post-swap job through
    // the pipeline: when it resolves, the batcher has installed the new
    // model and dropped every memoized old-model verdict.
    let mut sentinel = requests[0].clone();
    sentinel.push(0xEE);
    let _ = service
        .submit(sentinel)
        .into_ticket()
        .expect("accepted")
        .wait();
    for (idx, b) in requests.iter().enumerate() {
        let v = service
            .submit(b.clone())
            .into_ticket()
            .expect("accepted")
            .wait();
        assert_eq!(
            v, new_oracle[idx],
            "request {idx} still answered by the retired model after the swap settled"
        );
    }
    assert_eq!(service.stats().epoch, 1);
    let _ = service.shutdown();
}

/// After a hot swap, workers extract under the *new* model's resource
/// guards, so serve answers exactly as the new model's sequential oracle.
#[test]
fn swap_applies_the_new_models_guards() {
    let (soteria, corpus, test) = trained();
    let requests: Vec<Vec<u8>> = test
        .iter()
        .take(4)
        .map(|&i| corpus.samples()[i].binary().to_bytes())
        .collect();
    // The same weights under guards that admit no real CFG.
    let mut state = soteria.save_state().expect("state");
    state.config.guards.max_nodes = Some(2);
    let capped = Soteria::from_state(state);
    let oracle: Vec<Verdict> = requests
        .iter()
        .map(|b| capped.screen_binary(b, request_seed(17, b)))
        .collect();
    assert!(
        oracle.iter().all(Verdict::is_degraded),
        "a two-node cap must degrade every real sample: {oracle:?}"
    );

    let service = ScreeningService::start(soteria, &serve_config(2, Duration::ZERO));
    assert_eq!(service.swap(capped), 1);
    let served: Vec<Verdict> = requests
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
        served, oracle,
        "serve ignored the swapped-in model's guards"
    );
    let _ = service.shutdown();
}

/// Once `swap` returns, no lookup sees a retired model's verdict: every
/// memoized request, resubmitted at once, is answered by the new model —
/// no sentinel job needed to let the swap settle.
#[test]
fn swap_retires_every_cached_verdict_before_it_returns() {
    let (soteria, corpus, test) = trained();
    let new = Soteria::train(
        &SoteriaConfig::tiny(),
        &corpus,
        &corpus.split(0.8, 2).train,
        11,
    )
    .expect("train");
    let requests: Vec<Vec<u8>> = test
        .iter()
        .take(5)
        .map(|&i| corpus.samples()[i].binary().to_bytes())
        .collect();
    let new_oracle: Vec<Verdict> = requests
        .iter()
        .map(|b| new.screen_binary(b, request_seed(17, b)))
        .collect();

    let service = ScreeningService::start(soteria, &serve_config(2, Duration::ZERO));
    let old: Vec<Verdict> = requests
        .iter()
        .map(|b| {
            service
                .submit(b.clone())
                .into_ticket()
                .expect("accepted")
                .wait()
        })
        .collect();
    assert_ne!(old, new_oracle, "the swap must be observable");
    assert!(requests.iter().all(|b| service
        .submit(b.clone())
        .into_ticket()
        .is_some_and(|t| t.is_cached())));

    assert_eq!(service.swap(new), 1);
    for (idx, b) in requests.iter().enumerate() {
        let ticket = service.submit(b.clone()).into_ticket().expect("accepted");
        assert!(!ticket.is_cached(), "request {idx} hit a retired verdict");
        assert_eq!(ticket.wait(), new_oracle[idx], "request {idx}");
    }
    let _ = service.shutdown();
}

#[test]
fn concurrent_mixed_load_resolves_every_submission() {
    let (soteria, corpus, test) = trained();

    // Request pool: clean binaries, GEA adversarial examples, and
    // injector-corrupted mutants of the clean ones.
    let clean: Vec<Vec<u8>> = test
        .iter()
        .take(6)
        .map(|&i| corpus.samples()[i].binary().to_bytes())
        .collect();
    let selection = TargetSelection::select(&corpus);
    let target = selection.sample(
        &corpus,
        selection
            .target(Family::Benign, SizeClass::Large)
            .expect("benign target exists"),
    );
    let adversarial: Vec<Vec<u8>> = test
        .iter()
        .filter(|&&i| corpus.samples()[i].family() != Family::Benign)
        .take(3)
        .map(|&i| {
            gea_merge(&corpus.samples()[i], target)
                .expect("merge")
                .sample()
                .binary()
                .to_bytes()
        })
        .collect();
    let injector = FaultInjector::new(9);
    let corrupted: Vec<Vec<u8>> = (0..6u64)
        .map(|i| injector.corrupt(&clean[i as usize % clean.len()], i).0)
        .collect();
    let pool: Vec<Vec<u8>> = clean
        .into_iter()
        .chain(adversarial)
        .chain(corrupted)
        .collect();

    // Tiny queue so backpressure actually triggers under the race.
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 4,
        cache_capacity: 32,
        cache_shards: 4,
        batch_window: Duration::from_millis(1),
        max_batch: 4,
        seed: 23,
        trace_sampling: 0.25,
        ..ServeConfig::default()
    };
    let service = ScreeningService::start(soteria, &config);

    const THREADS: usize = 6;
    const PER_THREAD: usize = 25;
    let (resolved, rejected): (usize, usize) = std::thread::scope(|s| {
        let service = &service;
        let pool = &pool;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut resolved = 0usize;
                    let mut rejected = 0usize;
                    for i in 0..PER_THREAD {
                        let bytes = pool[(t * 7 + i) % pool.len()].clone();
                        match service.submit(bytes) {
                            Submit::Accepted(ticket) => {
                                // Any verdict counts — including Degraded.
                                // What must never happen is a hang, a panic
                                // escaping, or a dropped reply.
                                let _verdict = ticket.wait();
                                resolved += 1;
                            }
                            Submit::Rejected { .. } => rejected += 1,
                        }
                    }
                    (resolved, rejected)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread must not panic"))
            .fold((0, 0), |(a, b), (x, y)| (a + x, b + y))
    });

    assert_eq!(
        resolved + rejected,
        THREADS * PER_THREAD,
        "every submission must resolve or be rejected"
    );
    let stats = service.stats();
    assert_eq!(stats.submitted, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.rejected, rejected as u64);
    assert_eq!(
        stats.cache.hits + stats.cache.misses,
        stats.cache.lookups,
        "cache accounting must stay consistent under the race"
    );
    // Graceful drain: shutdown must not panic and hands the model back.
    let _soteria = service.shutdown();
}
