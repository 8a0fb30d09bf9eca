//! Proves the v3 artifact load path is zero-copy with a counting global
//! allocator: building a [`Soteria`] from a validated [`StateImage`] may
//! allocate scaffolding (layer specs, vocabulary indices), but it must
//! never copy or parse a weight tensor — so the bytes it allocates stay a
//! small fraction of the tensor payload it serves, while parsing the image
//! (the one copy of the file) allocates at least the full payload.
//!
//! The one test in this binary is kept alone so no parallel test can
//! allocate under the counter (the PR-6 `alloc_free` idiom).

use soteria::{Soteria, SoteriaConfig, StateImage};
use soteria_corpus::{Corpus, CorpusConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// The counter itself uses no allocation, so counting is exact.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count only growth; a shrink frees, it does not allocate.
        BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn alloc_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, BYTES.load(Ordering::Relaxed) - before)
}

#[test]
fn artifact_load_allocates_a_fraction_of_what_it_serves() {
    // Wide detector layers make the weight payload dominate every other
    // allocation by a wide margin, so the thresholds below are meaningful.
    let corpus = Corpus::generate(&CorpusConfig {
        counts: [6, 6, 6, 6],
        seed: 81,
        av_noise: false,
        lineages: 2,
    });
    let split = corpus.split(0.8, 1);
    let mut config = SoteriaConfig::tiny();
    config.detector.hidden = [128, 192, 128];
    config.detector.epochs = 1;
    let soteria = Soteria::train(&config, &corpus, &split.train, 21).expect("train");
    let artifact = soteria
        .save_state()
        .expect("save state")
        .to_artifact()
        .expect("v3 artifact");

    // Parsing the image copies the file bytes ONCE into one aligned
    // buffer and validates checksums; every tensor afterwards is a view.
    let (image, parse_alloc) = alloc_bytes(|| StateImage::parse(&artifact).expect("v3 parse"));
    let tensor_bytes: u64 = image
        .sections()
        .iter()
        .filter(|s| s.kind == soteria::artifact::KIND_TENSOR)
        .map(|s| s.len)
        .sum();
    assert!(
        tensor_bytes > 256 * 1024,
        "fixture too small to measure ({tensor_bytes} tensor bytes) — widen the layers"
    );

    // Warm-up load interns telemetry names and fills one-time lazies so
    // the measured pass sees the steady state.
    drop(Soteria::load_image(&image).expect("warm-up load"));

    let (loaded, image_alloc) = alloc_bytes(|| Soteria::load_image(&image).expect("image load"));
    drop(loaded);

    assert!(
        image_alloc < tensor_bytes / 4,
        "zero-copy regression: loading from the image allocated {image_alloc} bytes \
         against {tensor_bytes} bytes of tensor payload — a tensor is being copied"
    );
    assert!(
        parse_alloc > tensor_bytes,
        "sanity check on the measurement: parsing copies the whole file, so it \
         must allocate more than the tensor payload ({parse_alloc} vs {tensor_bytes})"
    );
}
