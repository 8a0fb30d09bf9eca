//! Offline shim for `rand_chacha`: [`ChaCha8Rng`], a real ChaCha stream
//! cipher with 8 double-rounds driving the `rand` shim's traits.
//!
//! The keystream follows RFC 8439's state layout (constants, 256-bit key,
//! 64-bit block counter, 64-bit stream id) with the round count dropped
//! from 20 to 8, matching the construction `rand_chacha` uses. Exact
//! bit-compatibility with upstream's output stream is not required by this
//! workspace (all randomness flows through these shims), but the generator
//! is a faithful ChaCha8 — high-quality, splittable, and deterministic per
//! seed.

use rand::{RngCore, SeedableRng};

const ROUNDS: usize = 8;
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Keystream blocks generated per refill. Batching lets the block function
/// run on `LANES` independent counters at once — each 32-bit state word
/// becomes a small lane vector the compiler turns into SIMD — without
/// changing a single byte of the keystream (block `c` is a pure function
/// of `(key, stream, c)` regardless of how many siblings are computed
/// alongside it).
const LANES: usize = 4;

/// A ChaCha generator with 8 rounds.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Key (8 words), set once from the seed.
    key: [u32; 8],
    /// 64-bit block counter: the next block to generate (blocks are
    /// generated `LANES` at a time, so after a refill this is the counter
    /// of the first block *beyond* the buffer).
    counter: u64,
    /// 64-bit stream id (zero unless `set_stream` is called).
    stream: u64,
    /// `LANES` consecutive 16-word output blocks, in counter order.
    buffer: [u32; 16 * LANES],
    /// Next unread word in `buffer` (`16 * LANES` = exhausted).
    index: usize,
}

/// One lane-parallel quarter round: word indices `a..d` of `LANES`
/// independent block states, each held as a `[u32; LANES]` lane vector.
#[inline(always)]
fn quarter_round(state: &mut [[u32; LANES]; 16], a: usize, b: usize, c: usize, d: usize) {
    for l in 0..LANES {
        state[a][l] = state[a][l].wrapping_add(state[b][l]);
        state[d][l] = (state[d][l] ^ state[a][l]).rotate_left(16);
        state[c][l] = state[c][l].wrapping_add(state[d][l]);
        state[b][l] = (state[b][l] ^ state[c][l]).rotate_left(12);
        state[a][l] = state[a][l].wrapping_add(state[b][l]);
        state[d][l] = (state[d][l] ^ state[a][l]).rotate_left(8);
        state[c][l] = state[c][l].wrapping_add(state[d][l]);
        state[b][l] = (state[b][l] ^ state[c][l]).rotate_left(7);
    }
}

/// A snapshot of a [`ChaCha8Rng`]'s position, sufficient to reconstruct
/// the generator exactly (checkpoint/resume). The output buffer is not
/// captured: it is a pure function of `(key, stream, counter - 1)` and is
/// regenerated on restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaChaState {
    /// Key words, set once from the seed.
    pub key: [u32; 8],
    /// Block counter *after* the last refill.
    pub counter: u64,
    /// Stream id.
    pub stream: u64,
    /// Next unread word within the current block (16 = exhausted).
    pub index: u8,
}

impl ChaCha8Rng {
    /// Captures the generator's exact position, expressed in the logical
    /// single-block form `ChaChaState` has always used: `counter` is the
    /// next block to generate, `index` the next unread word of block
    /// `counter - 1` (16 = that block is exhausted). Snapshots taken at the
    /// same consumed-word count are byte-identical regardless of `LANES`.
    pub fn state(&self) -> ChaChaState {
        let (counter, index) = if self.index >= 16 * LANES {
            // Fresh or fully drained: next refill starts at `self.counter`.
            (self.counter, 16u8)
        } else {
            let base = self.counter.wrapping_sub(LANES as u64);
            let block = (self.index / 16) as u64;
            let word = self.index % 16;
            if word == 0 && self.index > 0 {
                // On a block boundary the single-block generator would have
                // just exhausted block `base + block - 1`.
                (base.wrapping_add(block), 16u8)
            } else {
                (base.wrapping_add(block).wrapping_add(1), word as u8)
            }
        };
        ChaChaState {
            key: self.key,
            counter,
            stream: self.stream,
            index,
        }
    }

    /// Reconstructs a generator from a captured state. The next output is
    /// bit-identical to what the captured generator would have produced.
    pub fn from_state(state: ChaChaState) -> Self {
        let mut rng = ChaCha8Rng {
            key: state.key,
            counter: state.counter,
            stream: state.stream,
            buffer: [0; 16 * LANES],
            index: 16 * LANES,
        };
        if state.index < 16 {
            // The captured position is inside block `counter - 1`; refill
            // the batch starting there, then restore the read position.
            rng.counter = state.counter.wrapping_sub(1);
            rng.refill();
            rng.index = state.index as usize;
        }
        rng
    }

    /// Number of 32-bit keystream words consumed so far (the upstream
    /// `rand_chacha` "word position"). `set_word_pos(get_word_pos())` is an
    /// exact no-op on the output stream.
    pub fn get_word_pos(&self) -> u64 {
        if self.index >= 16 * LANES {
            // Fresh or fully drained: everything before `counter` is spent.
            self.counter.wrapping_mul(16)
        } else {
            self.counter
                .wrapping_sub(LANES as u64)
                .wrapping_mul(16)
                .wrapping_add(self.index as u64)
        }
    }

    /// Jumps the generator so the next `next_u32` returns keystream word
    /// `word_pos` (16 words per block). Because each block is a pure
    /// function of `(key, stream, counter)`, seeking is O(1) block work and
    /// the continuation is bit-identical to sequentially consuming
    /// `word_pos` words from a fresh generator — this is what makes
    /// per-walk RNG stream-splitting exact (see soteria-features).
    pub fn set_word_pos(&mut self, word_pos: u64) {
        self.counter = word_pos / 16;
        self.index = 16 * LANES;
        let within = (word_pos % 16) as usize;
        if within != 0 {
            self.refill();
            self.index = within;
        }
    }

    /// Selects an independent stream for the same key (handy for
    /// splitting; unused seed space otherwise).
    pub fn set_stream(&mut self, stream: u64) {
        self.stream = stream;
        self.counter = 0;
        self.index = 16 * LANES;
    }

    /// Generates the next `LANES` keystream blocks into `buffer`. Each
    /// block is the same pure function of `(key, stream, counter)` as in a
    /// one-block-at-a-time generator, so the concatenated stream is
    /// unchanged; only the batching differs.
    fn refill(&mut self) {
        let mut state = [[0u32; LANES]; 16];
        for (word, c) in state.iter_mut().zip(CONSTANTS.iter()) {
            *word = [*c; LANES];
        }
        for (word, k) in state[4..12].iter_mut().zip(self.key.iter()) {
            *word = [*k; LANES];
        }
        for l in 0..LANES {
            let counter = self.counter.wrapping_add(l as u64);
            state[12][l] = counter as u32;
            state[13][l] = (counter >> 32) as u32;
            state[14][l] = self.stream as u32;
            state[15][l] = (self.stream >> 32) as u32;
        }

        let input = state;
        for _ in 0..ROUNDS / 2 {
            // Column round.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, inp) in state.iter_mut().zip(input.iter()) {
            for l in 0..LANES {
                out[l] = out[l].wrapping_add(inp[l]);
            }
        }
        // Transpose lane-major round output into counter-ordered blocks.
        for l in 0..LANES {
            for (w, word) in state.iter().enumerate() {
                self.buffer[l * 16 + w] = word[l];
            }
        }
        self.counter = self.counter.wrapping_add(LANES as u64);
        self.index = 0;
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 * LANES {
            self.refill();
        }
        let w = self.buffer[self.index];
        self.index += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha8Rng {
            key,
            counter: 0,
            stream: 0,
            buffer: [0; 16 * LANES],
            index: 16 * LANES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let va: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn nearby_seeds_are_uncorrelated() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let va: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
        let shared = va.iter().filter(|x| vb.contains(x)).count();
        assert_eq!(shared, 0);
    }

    #[test]
    fn streams_are_independent() {
        let mut a = ChaCha8Rng::seed_from_u64(5);
        let mut b = a.clone();
        b.set_stream(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn output_looks_uniform() {
        // Crude byte-histogram sanity check on 64 KiB of keystream.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut buf = vec![0u8; 65536];
        rng.fill_bytes(&mut buf);
        let mut hist = [0usize; 256];
        for &b in &buf {
            hist[b as usize] += 1;
        }
        // Expectation 256 per bin; allow generous slack.
        assert!(hist.iter().all(|&c| (128..=384).contains(&c)));
    }

    /// One-block-at-a-time ChaCha8 block function: the reference the
    /// batched `refill` must reproduce word-for-word.
    fn scalar_block(key: &[u32; 8], counter: u64, stream: u64) -> [u32; 16] {
        fn qr(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(16);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(12);
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(8);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(7);
        }
        let mut s = [0u32; 16];
        s[..4].copy_from_slice(&CONSTANTS);
        s[4..12].copy_from_slice(key);
        s[12] = counter as u32;
        s[13] = (counter >> 32) as u32;
        s[14] = stream as u32;
        s[15] = (stream >> 32) as u32;
        let input = s;
        for _ in 0..ROUNDS / 2 {
            qr(&mut s, 0, 4, 8, 12);
            qr(&mut s, 1, 5, 9, 13);
            qr(&mut s, 2, 6, 10, 14);
            qr(&mut s, 3, 7, 11, 15);
            qr(&mut s, 0, 5, 10, 15);
            qr(&mut s, 1, 6, 11, 12);
            qr(&mut s, 2, 7, 8, 13);
            qr(&mut s, 3, 4, 9, 14);
        }
        for (out, inp) in s.iter_mut().zip(input.iter()) {
            *out = out.wrapping_add(*inp);
        }
        s
    }

    #[test]
    fn batched_refill_matches_scalar_blocks() {
        for (seed, stream) in [(0u64, 0u64), (42, 0), (7, 3), (u64::MAX, 9)] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.set_stream(stream);
            let key = rng.key;
            let got: Vec<u32> = (0..16 * LANES * 3).map(|_| rng.next_u32()).collect();
            let want: Vec<u32> = (0..LANES as u64 * 3)
                .flat_map(|c| scalar_block(&key, c, stream))
                .collect();
            assert_eq!(got, want, "keystream drift for seed {seed} stream {stream}");
        }
    }

    #[test]
    fn state_round_trip_is_exact() {
        for consumed in [0usize, 1, 7, 15, 16, 17, 31, 32, 48, 63, 64, 65, 100, 257] {
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            for _ in 0..consumed {
                let _ = rng.next_u32();
            }
            let mut restored = ChaCha8Rng::from_state(rng.state());
            let a: Vec<u64> = (0..48).map(|_| rng.next_u64()).collect();
            let b: Vec<u64> = (0..48).map(|_| restored.next_u64()).collect();
            assert_eq!(a, b, "divergence after {consumed} words consumed");
        }
    }

    #[test]
    fn state_preserves_stream_id() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        rng.set_stream(9);
        let _ = rng.next_u64();
        let mut restored = ChaCha8Rng::from_state(rng.state());
        assert_eq!(rng.next_u64(), restored.next_u64());
    }

    #[test]
    fn set_word_pos_matches_sequential_consumption() {
        for pos in [0u64, 1, 7, 15, 16, 17, 31, 32, 48, 63, 64, 65, 100, 257] {
            let mut seq = ChaCha8Rng::seed_from_u64(31);
            for _ in 0..pos {
                let _ = seq.next_u32();
            }
            let mut jumped = ChaCha8Rng::seed_from_u64(31);
            jumped.set_word_pos(pos);
            assert_eq!(jumped.get_word_pos(), pos);
            let a: Vec<u32> = (0..80).map(|_| seq.next_u32()).collect();
            let b: Vec<u32> = (0..80).map(|_| jumped.next_u32()).collect();
            assert_eq!(a, b, "divergence jumping to word {pos}");
        }
    }

    #[test]
    fn get_word_pos_counts_consumed_words() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for consumed in 0..200u64 {
            assert_eq!(rng.get_word_pos(), consumed);
            let _ = rng.next_u32();
        }
    }

    #[test]
    fn word_pos_round_trip_is_a_no_op() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        for _ in 0..37 {
            let _ = rng.next_u32();
        }
        let mut twin = rng.clone();
        let pos = twin.get_word_pos();
        twin.set_word_pos(pos);
        let a: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
        let b: Vec<u64> = (0..32).map(|_| twin.next_u64()).collect();
        assert_eq!(a, b);
    }

    /// `gen_range` computes its rejection threshold only when the low
    /// product word falls below the span; the draws and the keystream
    /// words they consume must equal the always-divide formula's.
    #[test]
    fn bounded_draws_match_the_always_divide_formula() {
        fn always_divide(rng: &mut ChaCha8Rng, span: u64) -> u64 {
            let threshold = span.wrapping_neg() % span;
            loop {
                let m = u128::from(rng.next_u64()) * u128::from(span);
                if (m as u64) >= threshold {
                    return (m >> 64) as u64;
                }
            }
        }
        for span in [1, 2, 3, 7, (1 << 32) + 1, (1 << 63) + 1, u64::MAX] {
            let mut rng = ChaCha8Rng::seed_from_u64(span);
            let mut twin = rng.clone();
            for i in 0..20_000 {
                let want = always_divide(&mut twin, span);
                assert_eq!(rng.gen_range(0..span), want, "span {span}, draw {i}");
            }
            assert_eq!(rng.get_word_pos(), twin.get_word_pos(), "span {span}");
        }
        // Half of all low words fall below 2^64 mod (2^63 + 1), so that
        // span exercises the rejection loop thousands of times above.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..1000 {
            let _ = rng.gen_range(0..(1u64 << 63) + 1);
        }
        assert!(rng.get_word_pos() > 2 * 1000 + 500);
    }

    #[test]
    fn works_through_the_rng_trait() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let x: f64 = rng.gen_range(0.0..1.0);
        assert!((0.0..1.0).contains(&x));
    }
}
