//! The compute backend: a persistent worker pool and deterministic GEMM
//! kernels shared by every hot path in the workspace (trainer, batched
//! pipeline inference, soteria-serve).
//!
//! # Determinism contract
//!
//! Every kernel in this module accumulates each output element along the
//! reduction axis in **ascending index order**, exactly like a naive
//! textbook loop. Work is only ever partitioned over *output* rows or
//! columns — never over the reduction axis — so each output element is
//! owned by exactly one task and its floating-point accumulation chain is
//! independent of the pool size, the job count, and the blocking factors.
//! Two consequences the rest of the workspace relies on:
//!
//! * results are bit-identical across 1..N worker threads, and
//! * results are bit-identical to the retained naive reference
//!   implementations (see `Conv1d::forward_reference` and friends).
//!
//! # The worker pool
//!
//! The pool lives in the shared `soteria-pool` crate (promoted out of this
//! module so `soteria-features` can use it without a dependency cycle) and
//! is re-exported here verbatim: lazily initialized, process-wide, growing
//! on demand up to `available_parallelism` (override with
//! `SOTERIA_NN_THREADS`). Callers submit borrowed closures through
//! [`run_scoped`]; the calling thread executes the first task itself and
//! then *helps* drain the shared queue while waiting, which makes nested
//! submissions (a pooled GEMM inside a pooled pipeline chunk)
//! deadlock-free by construction.

pub use soteria_pool::{
    chunk_rows, effective_threads, ensure_threads, map, pool_threads, run_scoped, warm, ScopedTask,
};

use crate::simd;

/// Work threshold (multiply-adds) below which pooled dispatch costs more
/// than it saves.
const PAR_THRESHOLD: usize = 1 << 22;

/// Work threshold (multiply-adds) below which the packed SIMD tier's
/// panel-packing overhead outweighs its throughput win and the scalar
/// reference kernels run instead. Both sides are bit-identical, so the
/// crossover is a pure tuning knob.
const PACK_THRESHOLD: usize = 1 << 13;

/// How many parallel jobs to split `items` independent output units into,
/// given `work` total multiply-adds: 1 (serial) below the dispatch
/// threshold or without pool threads, else caller + workers, capped at
/// `items`.
pub(crate) fn job_count(work: usize, items: usize) -> usize {
    let threads = pool_threads();
    if threads == 0 || items < 2 || work < PAR_THRESHOLD {
        1
    } else {
        (threads + 1).min(items)
    }
}

/// Column-tile width for the ikj microkernels: keeps the active slices of
/// four output rows plus one `b` row inside L1 for any `n`.
const NB: usize = 256;

/// `out[i·n+j] += Σ_p a[i·k+p] · b[p·n+j]`, `p` ascending, skipping
/// `a == 0.0` terms (sparse activations make this a large win and the
/// skipped terms are exact no-ops for the accumulation chain).
///
/// Accumulates *into* `out` — callers pass a zeroed (or bias-seeded)
/// buffer. Pooled over output-row chunks when the product is large.
pub(crate) fn gemm_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 1 {
        // The single-sample serving shape: a register-tiled row·matrix
        // kernel that keeps the reference's per-p zero-skip (bit-identical
        // chains either way).
        soteria_telemetry::counter("nn.gemm.gemv", 1);
        simd::gemv(a, b, n, out);
        return;
    }
    let work = m.saturating_mul(k).saturating_mul(n);
    let threads = pool_threads();
    if work >= PAR_THRESHOLD && m >= 2 && threads > 0 {
        soteria_telemetry::counter("nn.gemm.nn.pooled", 1);
        let rows_per = chunk_rows(m, threads + 1);
        let tasks: Vec<ScopedTask<'_>> = out
            .chunks_mut(rows_per * n)
            .enumerate()
            .map(|(ci, chunk)| {
                let a = &a[ci * rows_per * k..];
                Box::new(move || gemm_nn_serial(a, b, k, n, chunk)) as ScopedTask<'_>
            })
            .collect();
        run_scoped(tasks);
    } else {
        soteria_telemetry::counter("nn.gemm.nn.serial", 1);
        gemm_nn_serial(a, b, k, n, out);
    }
}

/// Serial `a·b` over `out.len() / n` rows: dispatches between the packed
/// SIMD tier ([`crate::simd`]) and the scalar reference by work size.
/// `a` starts at the first row of this chunk. Both paths are bit-identical
/// (see the module docs of [`crate::simd`] for the zero-skip lemma).
fn gemm_nn_serial(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    let rows = out.len().checked_div(n).unwrap_or(0);
    if rows.saturating_mul(k).saturating_mul(n) >= PACK_THRESHOLD {
        simd::packed_gemm_acc(simd::ASrc::Rows(a), simd::BSrc::Rows(b), k, n, out);
    } else {
        gemm_nn_reference(a, b, k, n, out);
    }
}

/// The retained scalar `a·b` kernel — the bit-identity oracle for the
/// packed SIMD tier and the fallback for small shapes: ikj loops, 4-row
/// blocks, `NB`-wide column tiles, `p`-ascending chains with the `a == 0`
/// zero-skip. Accumulates into `out` over `out.len() / n` rows; `a`
/// starts at the first row of this chunk.
pub fn gemm_nn_reference(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    let rows = out.len() / n;
    let mut i = 0;
    while i + 4 <= rows {
        let (r0, rest) = out[i * n..(i + 4) * n].split_at_mut(n);
        // Reborrow dance is not needed: split sequentially.
        let (r1, rest) = rest.split_at_mut(n);
        let (r2, r3) = rest.split_at_mut(n);
        let a0_row = &a[i * k..(i + 1) * k];
        let a1_row = &a[(i + 1) * k..(i + 2) * k];
        let a2_row = &a[(i + 2) * k..(i + 3) * k];
        let a3_row = &a[(i + 3) * k..(i + 4) * k];
        let mut jb = 0;
        while jb < n {
            let je = (jb + NB).min(n);
            for p in 0..k {
                let (a0, a1, a2, a3) = (a0_row[p], a1_row[p], a2_row[p], a3_row[p]);
                let b_tile = &b[p * n + jb..p * n + je];
                if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
                    let o0 = &mut r0[jb..je];
                    let o1 = &mut r1[jb..je];
                    let o2 = &mut r2[jb..je];
                    let o3 = &mut r3[jb..je];
                    for ((((&bv, o0), o1), o2), o3) in b_tile
                        .iter()
                        .zip(o0.iter_mut())
                        .zip(o1.iter_mut())
                        .zip(o2.iter_mut())
                        .zip(o3.iter_mut())
                    {
                        *o0 += a0 * bv;
                        *o1 += a1 * bv;
                        *o2 += a2 * bv;
                        *o3 += a3 * bv;
                    }
                } else {
                    axpy_nz(a0, b_tile, &mut r0[jb..je]);
                    axpy_nz(a1, b_tile, &mut r1[jb..je]);
                    axpy_nz(a2, b_tile, &mut r2[jb..je]);
                    axpy_nz(a3, b_tile, &mut r3[jb..je]);
                }
            }
            jb = je;
        }
        i += 4;
    }
    while i < rows {
        let o_row = &mut out[i * n..(i + 1) * n];
        let a_row = &a[i * k..(i + 1) * k];
        for (p, &av) in a_row.iter().enumerate() {
            axpy_nz(av, &b[p * n..(p + 1) * n], o_row);
        }
        i += 1;
    }
}

/// `o += a · b` elementwise, skipped entirely when `a == 0.0`.
#[inline]
fn axpy_nz(a: f32, b: &[f32], o: &mut [f32]) {
    if a == 0.0 {
        return;
    }
    for (o, &bv) in o.iter_mut().zip(b) {
        *o += a * bv;
    }
}

/// `out[i·n+j] += Σ_p a[p·m+i] · b[p·n+j]` (`aᵀ·b` without materializing
/// the transpose), `p` ascending, skipping `a == 0.0` terms.
pub(crate) fn gemm_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let work = m.saturating_mul(k).saturating_mul(n);
    let threads = pool_threads();
    if work >= PAR_THRESHOLD && m >= 2 && threads > 0 {
        soteria_telemetry::counter("nn.gemm.tn.pooled", 1);
        let rows_per = chunk_rows(m, threads + 1);
        let tasks: Vec<ScopedTask<'_>> = out
            .chunks_mut(rows_per * n)
            .enumerate()
            .map(|(ci, chunk)| {
                Box::new(move || gemm_tn_serial(a, b, m, k, n, ci * rows_per, chunk))
                    as ScopedTask<'_>
            })
            .collect();
        run_scoped(tasks);
    } else {
        soteria_telemetry::counter("nn.gemm.tn.serial", 1);
        gemm_tn_serial(a, b, m, k, n, 0, out);
    }
}

/// Serial `aᵀ·b` over the output rows `[row0, row0 + chunk_rows)`:
/// dispatches between the packed SIMD tier and the scalar reference by
/// work size (both bit-identical).
fn gemm_tn_serial(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    row0: usize,
    out: &mut [f32],
) {
    let rows = out.len().checked_div(n).unwrap_or(0);
    if rows.saturating_mul(k).saturating_mul(n) >= PACK_THRESHOLD {
        simd::packed_gemm_acc(
            simd::ASrc::Cols { a, m, row0 },
            simd::BSrc::Rows(b),
            k,
            n,
            out,
        );
    } else {
        gemm_tn_reference(a, b, m, k, n, row0, out);
    }
}

/// The retained scalar `aᵀ·b` kernel over the output rows
/// `[row0, row0 + chunk_rows)` — the bit-identity oracle for the packed
/// SIMD tier and the fallback for small shapes.
///
/// For short reductions (small `k`, the training-batch case) each output
/// row's `NB`-wide tile is carried in a stack accumulator across the whole
/// `p` loop — one load and one store of the output per tile instead of one
/// per `(p, tile)` — and the `a == 0` skip is dropped: a zero `a`
/// contributes `±0.0` terms, bitwise no-ops for `+0.0`-seeded accumulator
/// chains that can never reach `-0.0`, so the sweep runs branch-free
/// instead of mispredicting on data-dependent activation zeros. Every
/// `out[r][j]` chain is still `p`-ascending, so the result is bit-identical
/// to the streaming form, which is kept for long reductions (where
/// re-reading `b` per output row would thrash the cache).
pub fn gemm_tn_reference(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    row0: usize,
    out: &mut [f32],
) {
    let rows = out.len() / n;
    let mut jb = 0;
    if k <= 64 {
        let mut accs = [0.0f32; NB];
        while jb < n {
            let je = (jb + NB).min(n);
            let accs = &mut accs[..je - jb];
            for r in 0..rows {
                let o_row = &mut out[r * n + jb..r * n + je];
                accs.copy_from_slice(o_row);
                for p in 0..k {
                    let av = a[p * m + row0 + r];
                    for (acc, &bv) in accs.iter_mut().zip(&b[p * n + jb..p * n + je]) {
                        *acc += av * bv;
                    }
                }
                o_row.copy_from_slice(accs);
            }
            jb = je;
        }
        return;
    }
    while jb < n {
        let je = (jb + NB).min(n);
        for p in 0..k {
            let b_tile = &b[p * n + jb..p * n + je];
            let a_col = &a[p * m + row0..p * m + row0 + rows];
            for (r, &av) in a_col.iter().enumerate() {
                axpy_nz(av, b_tile, &mut out[r * n + jb..r * n + je]);
            }
        }
        jb = je;
    }
}

/// `out[i·n+j] = init[i] + Σ_p a[i·k+p] · b[j·k+p]` (`a·bᵀ` as dot
/// products), `p` ascending, **no** zero-skip — matching both the naive
/// conv forward (bias-seeded chain, padding terms are exact no-ops) and
/// the historical `Matrix::matmul_t` (zero-seeded chain).
///
/// Note this *assigns* `out`; it does not accumulate.
pub(crate) fn gemm_nt(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    init: Option<&[f32]>,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if let Some(init) = init {
        debug_assert_eq!(init.len(), m);
    }
    let work = m.saturating_mul(k).saturating_mul(n);
    let threads = pool_threads();
    if work >= PAR_THRESHOLD && m >= 2 && threads > 0 {
        soteria_telemetry::counter("nn.gemm.nt.pooled", 1);
        let rows_per = chunk_rows(m, threads + 1);
        let tasks: Vec<ScopedTask<'_>> = out
            .chunks_mut(rows_per * n)
            .enumerate()
            .map(|(ci, chunk)| {
                let row0 = ci * rows_per;
                let rows = chunk.len() / n;
                let a = &a[row0 * k..(row0 + rows) * k];
                let init = init.map(|i| &i[row0..row0 + rows]);
                Box::new(move || gemm_nt_serial(a, b, k, n, init, chunk)) as ScopedTask<'_>
            })
            .collect();
        run_scoped(tasks);
    } else {
        soteria_telemetry::counter("nn.gemm.nt.serial", 1);
        gemm_nt_serial(a, b, k, n, init, out);
    }
}

/// Serial `a·bᵀ` kernel: `out[i·n+j] = init[i] + Σ_p a[i·k+p]·b[j·k+p]`,
/// `p` ascending, no zero-skip. Dispatches between the packed SIMD tier
/// (seeding `out` from `init` first, then accumulating — the same chains)
/// and the scalar reference by work size. The conv layers call this
/// directly per sample (their parallelism is over samples, not within one
/// GEMM).
pub(crate) fn gemm_nt_serial(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    init: Option<&[f32]>,
    out: &mut [f32],
) {
    let rows = out.len().checked_div(n).unwrap_or(0);
    if rows.saturating_mul(k).saturating_mul(n) >= PACK_THRESHOLD {
        match init {
            Some(init) => {
                for (row, &seed) in out.chunks_mut(n).zip(init) {
                    row.fill(seed);
                }
            }
            None => out.fill(0.0),
        }
        simd::packed_gemm_acc(simd::ASrc::Rows(a), simd::BSrc::Cols(b, k), k, n, out);
    } else {
        gemm_nt_reference(a, b, k, n, init, out);
    }
}

/// The retained scalar `a·bᵀ` kernel — the bit-identity oracle for the
/// packed SIMD tier and the fallback for small shapes: 8-column (falling
/// back to 4-column) dot blocks share one streaming pass over the `a`
/// row; the independent per-column accumulator chains hide FP latency.
/// `out[i·n+j] = init[i] + Σ_p a[i·k+p]·b[j·k+p]`, `p` ascending, no
/// zero-skip.
pub fn gemm_nt_reference(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    init: Option<&[f32]>,
    out: &mut [f32],
) {
    let rows = out.len() / n.max(1);
    for i in 0..rows {
        let a_row = &a[i * k..(i + 1) * k];
        let seed = init.map_or(0.0, |v| v[i]);
        let o_row = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 8 <= n {
            let mut s = [seed; 8];
            for (p, &av) in a_row.iter().enumerate() {
                for (sj, sv) in s.iter_mut().enumerate() {
                    *sv += av * b[(j + sj) * k + p];
                }
            }
            o_row[j..j + 8].copy_from_slice(&s);
            j += 8;
        }
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (seed, seed, seed, seed);
            for (p, &av) in a_row.iter().enumerate() {
                s0 += av * b0[p];
                s1 += av * b1[p];
                s2 += av * b2[p];
                s3 += av * b3[p];
            }
            o_row[j] = s0;
            o_row[j + 1] = s1;
            o_row[j + 2] = s2;
            o_row[j + 3] = s3;
            j += 4;
        }
        while j < n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut s = seed;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                s += av * bv;
            }
            o_row[j] = s;
            j += 1;
        }
    }
}

/// Reference im2col for 1-D same-padded stride-1 convolution, kept as the
/// test oracle for `im2col_1d_fast`.
///
/// `x` is one channel-major sample row (`channels · length`); `col` is
/// filled as `length` rows of `channels · kernel` columns:
/// `col[t][(c, k)] = x[c·length + t + k - kernel/2]`, zero outside the
/// signal. Every element of `col` is written.
#[cfg(test)]
pub(crate) fn im2col_1d(x: &[f32], channels: usize, length: usize, kernel: usize, col: &mut [f32]) {
    let half = kernel / 2;
    debug_assert_eq!(x.len(), channels * length);
    debug_assert_eq!(col.len(), length * channels * kernel);
    let patch = channels * kernel;
    for t in 0..length {
        let row = &mut col[t * patch..(t + 1) * patch];
        for c in 0..channels {
            let sig = &x[c * length..(c + 1) * length];
            let dst = &mut row[c * kernel..(c + 1) * kernel];
            for (k, d) in dst.iter_mut().enumerate() {
                let ti = t + k;
                *d = if ti >= half && ti - half < length {
                    sig[ti - half]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Branch-free variant of the reference `im2col_1d`: per `(channel, tap)`
/// the valid
/// `t` range is computed once and the copy runs as a strided store loop
/// with no per-element bounds test. Fills exactly the same `col` contents.
pub(crate) fn im2col_1d_fast(
    x: &[f32],
    channels: usize,
    length: usize,
    kernel: usize,
    col: &mut [f32],
) {
    let half = kernel / 2;
    debug_assert_eq!(x.len(), channels * length);
    debug_assert_eq!(col.len(), length * channels * kernel);
    let patch = channels * kernel;
    col.fill(0.0);
    for c in 0..channels {
        let sig = &x[c * length..(c + 1) * length];
        for k in 0..kernel {
            // col[t][c·kernel + k] = sig[t + k - half] where in range.
            let shift = k as isize - half as isize;
            let t0 = (-shift).max(0) as usize;
            let t1 = ((length as isize - shift).min(length as isize)).max(0) as usize;
            let mut idx = t0 * patch + c * kernel + k;
            for &sv in &sig[(t0 as isize + shift) as usize..(t1 as isize + shift) as usize] {
                col[idx] = sv;
                idx += patch;
            }
        }
    }
}

/// im2col for 2-D same-padded stride-1 convolution with a square kernel.
///
/// `x` is one channel-major sample (`channels · height · width`); `col` is
/// filled as `height · width` rows (output pixels, row-major) of
/// `channels · kernel²` columns. Every element of `col` is written.
pub(crate) fn im2col_2d(
    x: &[f32],
    channels: usize,
    height: usize,
    width: usize,
    kernel: usize,
    col: &mut [f32],
) {
    let half = kernel / 2;
    let plane = height * width;
    debug_assert_eq!(x.len(), channels * plane);
    debug_assert_eq!(col.len(), plane * channels * kernel * kernel);
    let patch = channels * kernel * kernel;
    for row in 0..height {
        for cw in 0..width {
            let dst_row = &mut col[(row * width + cw) * patch..(row * width + cw + 1) * patch];
            for c in 0..channels {
                let img = &x[c * plane..(c + 1) * plane];
                for kr in 0..kernel {
                    let ri = row + kr;
                    let dst =
                        &mut dst_row[(c * kernel + kr) * kernel..(c * kernel + kr + 1) * kernel];
                    if ri < half || ri - half >= height {
                        dst.fill(0.0);
                        continue;
                    }
                    let src = &img[(ri - half) * width..(ri - half + 1) * width];
                    for (kc, d) in dst.iter_mut().enumerate() {
                        let ci = cw + kc;
                        *d = if ci >= half && ci - half < width {
                            src[ci - half]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }
}

/// Resizes `buf` to exactly `len` elements without caring about contents
/// (every kernel that consumes these arenas overwrites them fully).
pub(crate) fn ensure_len(buf: &mut Vec<f32>, len: usize) {
    buf.resize(len, 0.0);
    debug_assert_eq!(buf.len(), len);
}

/// Splits the first `n` elements off an optional buffer, leaving the rest
/// in place: how a pass hands each pool task its rows of an optional
/// training record.
#[inline]
pub(crate) fn split_front<'a, T>(rest: &mut Option<&'a mut [T]>, n: usize) -> Option<&'a mut [T]> {
    let (head, tail) = rest.take()?.split_at_mut(n);
    *rest = Some(tail);
    Some(head)
}

/// Applies ReLU to `y` in place and, when given, records its mask (1 where
/// the output is positive) for the training backward.
#[inline]
pub(crate) fn relu_in_place(y: &mut [f32], mask: Option<&mut [u8]>) {
    for v in y.iter_mut() {
        *v = v.max(0.0);
    }
    if let Some(mask) = mask {
        for (m, &v) in mask.iter_mut().zip(y.iter()) {
            *m = u8::from(v > 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j];
                }
            }
        }
        out
    }

    /// Forces the pooled row-partitioned path regardless of size.
    fn gemm_nn_forced_jobs(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        jobs: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        let rows_per = chunk_rows(m, jobs);
        let tasks: Vec<ScopedTask<'_>> = out
            .chunks_mut(rows_per * n)
            .enumerate()
            .map(|(ci, chunk)| {
                let a = &a[ci * rows_per * k..];
                Box::new(move || gemm_nn_serial(a, b, k, n, chunk)) as ScopedTask<'_>
            })
            .collect();
        run_scoped(tasks);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn blocked_kernel_is_bit_identical_to_naive_for_any_job_count(
            m in 1usize..12,
            k in 1usize..9,
            n in 1usize..20,
            jobs in 1usize..7,
            seed in 0u64..1000,
        ) {
            ensure_threads(3);
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                // Small mixed-sign values with exact zeros sprinkled in.
                if s % 5 == 0 { 0.0 } else { ((s % 2000) as f32 - 1000.0) / 256.0 }
            };
            let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
            let reference = naive_nn(&a, &b, m, k, n);
            let serial = {
                let mut out = vec![0.0f32; m * n];
                gemm_nn_serial(&a, &b, k, n, &mut out);
                out
            };
            let pooled = gemm_nn_forced_jobs(&a, &b, m, k, n, jobs);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&reference), bits(&serial));
            prop_assert_eq!(bits(&serial), bits(&pooled));
        }
    }

    #[test]
    fn im2col_1d_gathers_padded_patches() {
        // 2 channels, length 3, kernel 3.
        let x = [1.0, 2.0, 3.0, 10.0, 20.0, 30.0];
        let mut col = vec![f32::NAN; 3 * 2 * 3];
        im2col_1d(&x, 2, 3, 3, &mut col);
        #[rustfmt::skip]
        let expect = [
            0.0, 1.0, 2.0,  0.0, 10.0, 20.0, // t=0
            1.0, 2.0, 3.0, 10.0, 20.0, 30.0, // t=1
            2.0, 3.0, 0.0, 20.0, 30.0, 0.0,  // t=2
        ];
        assert_eq!(col, expect);
    }

    #[test]
    fn im2col_1d_fast_matches_reference() {
        for (channels, length, kernel) in [
            (1, 1, 1),
            (1, 5, 3),
            (2, 3, 3),
            (3, 8, 5),
            (4, 64, 3),
            (8, 32, 7),
        ] {
            let x: Vec<f32> = (0..channels * length).map(|i| i as f32 + 0.5).collect();
            let mut reference = vec![f32::NAN; length * channels * kernel];
            let mut fast = vec![f32::NAN; length * channels * kernel];
            im2col_1d(&x, channels, length, kernel, &mut reference);
            im2col_1d_fast(&x, channels, length, kernel, &mut fast);
            assert_eq!(reference, fast, "c={channels} l={length} k={kernel}");
        }
    }

    #[test]
    fn im2col_2d_gathers_padded_patches() {
        // 1 channel, 2x2 image, kernel 3.
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut col = vec![f32::NAN; 4 * 9];
        im2col_2d(&x, 1, 2, 2, 3, &mut col);
        // Output pixel (0,0): rows {-1,0,1} x cols {-1,0,1}.
        assert_eq!(&col[0..9], &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 4.0]);
        // Output pixel (1,1).
        assert_eq!(&col[27..36], &[1.0, 2.0, 0.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]);
    }
}
