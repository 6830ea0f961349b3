//! Packed, cache-blocked GEMM microkernel — the single inner loop every
//! matmul in the workspace (and through it every expert FFN and every
//! gating projection) runs on.
//!
//! # Structure
//!
//! The kernel follows the classic Goto/BLIS decomposition:
//!
//! * `B` is packed **once per GEMM** into `KC × NR` column tiles
//!   ([`pack_b`]) so the innermost loop streams it with unit stride and
//!   a tile (`KC·NR·4 B = 16 KiB`) stays resident in L1;
//! * each row band packs its slice of `A` per `KC` block into `KC × MR`
//!   row strips ([`gemm_band`]) so the microkernel broadcasts
//!   consecutive elements;
//! * the microkernel computes an `MR × NR` output tile: it loads the
//!   tile of `C` into registers, accumulates `kc` rank-1 updates in
//!   ascending `k` order, and stores the tile back.
//!
//! Both packed copies, like the output, are on loan from the per-thread
//! recycler ([`crate::buf`]): in steady state a GEMM allocates nothing.
//!
//! # Transposed operands
//!
//! Either operand may be handed over stored transposed ([`Operand`]):
//! the packing pass is the only code that reads the source layout, so
//! `A·Bᵀ` and `Aᵀ·B` — the two GEMMs of every backward pass — read the
//! forward tensors where they lie instead of materialising a transposed
//! copy first. The packed tiles hold exactly the values the pack of
//! such a copy would hold, so the microkernel runs the same fold on the
//! same numbers: `matmul_nt` / `matmul_tn` are bit-identical to
//! transpose-then-`matmul`.
//!
//! # SIMD strategy
//!
//! On `x86_64` with AVX2+FMA (detected once at runtime) the microkernel
//! is hand-written with `std::arch` intrinsics: `MR = 6` rows of two
//! 256-bit accumulators (12 register accumulators, 2 loaded `B` vectors
//! and 1 broadcast — 15 of 16 ymm registers). Everywhere else a scalar
//! microkernel with the same fixed-width `MR × NR` loop shape compiles
//! to whatever vector ISA the target has (the loop bounds are
//! compile-time constants, so LLVM autovectorizes it).
//!
//! # Bit-identity across thread counts
//!
//! For a fixed output element `c[i][j]`, the accumulation is a left fold
//! over ascending `k`: the microkernel loads `c[i][j]`, folds the `KC`
//! block's products in ascending `k`, stores, and the next `KC` block
//! continues the same fold. Neither the band split (threads partition
//! output *rows*; each row's arithmetic is independent of which strip or
//! band it lands in) nor the tile split (lanes are independent) changes
//! that order, so every thread count produces bit-identical results.
//! The AVX2 path uses fused multiply-add (one rounding per product) and
//! the scalar path separate multiply+add (two roundings) — the two may
//! differ *across hosts*, but the dispatch is a process-wide constant,
//! so within a process results are deterministic and thread-invariant.
//!
//! # NaN / Inf propagation
//!
//! The kernel has **no zero-skip**: every `a[i][k] · b[k][j]` product is
//! computed, so a NaN or Inf anywhere in either operand reaches every
//! output element it mathematically contributes to (`0.0 × NaN = NaN`,
//! `0.0 × Inf = NaN`). The previous banded kernel skipped `a[i][k] ==
//! 0.0` rows of `B` and silently swallowed them; the regression tests in
//! `tests/nan_propagation.rs` pin the fix.

use crate::buf;

/// Rows per microtile.
pub(crate) const MR: usize = 6;
/// Columns per microtile (two 256-bit vectors of `f32`).
pub(crate) const NR: usize = 16;
/// `k`-dimension block: one `KC × NR` packed `B` tile is 16 KiB.
pub(crate) const KC: usize = 256;

/// `B` packed into `KC × NR` unit-stride tiles, padded with zeros to a
/// multiple of `NR` columns.
///
/// Layout: for each `KC` block `kb` (offset `kb0 · j_tiles · NR`), the
/// `j_tiles` column tiles are contiguous, each `kc · NR` long, element
/// `[kk · NR + j]` holding `b[(kb0 + kk) · n + jt · NR + j]`.
pub(crate) struct PackedB {
    data: Vec<f32>,
    /// Inner (contraction) dimension.
    pub(crate) k: usize,
    /// Output column count (unpadded).
    pub(crate) n: usize,
    j_tiles: usize,
}

impl PackedB {
    /// The packed tile for `KC` block starting at `kb0` (length `kc`)
    /// and column tile `jt`.
    #[inline]
    fn tile(&self, kb0: usize, kc: usize, jt: usize) -> &[f32] {
        let off = kb0 * self.j_tiles * NR + jt * kc * NR;
        &self.data[off..off + kc * NR]
    }
}

impl Drop for PackedB {
    fn drop(&mut self) {
        buf::give(std::mem::take(&mut self.data));
    }
}

/// A GEMM operand as it lies in memory: a logical `(rows, cols)` matrix
/// whose row-major buffer holds either the matrix or its transpose.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a> {
    data: &'a [f32],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    /// `data` holds the transpose: logical `(r, c)` is
    /// `data[c · rows + r]` instead of `data[r · cols + c]`.
    transposed: bool,
}

impl<'a> Operand<'a> {
    /// The `(rows, cols)` matrix stored row-major in `data`.
    pub(crate) fn plain(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "operand buffer size");
        Operand {
            data,
            rows,
            cols,
            transposed: false,
        }
    }

    /// The `(rows, cols)` matrix whose transpose — `(cols, rows)` — is
    /// stored row-major in `data`.
    pub(crate) fn transposed(data: &'a [f32], rows: usize, cols: usize) -> Self {
        Operand {
            transposed: true,
            ..Operand::plain(data, rows, cols)
        }
    }
}

/// Packs the right-hand `(k, n)` operand for the microkernel.
pub(crate) fn pack_b(b: Operand<'_>) -> PackedB {
    let (k, n) = (b.rows, b.cols);
    let j_tiles = n.div_ceil(NR).max(1);
    // every element is written: whole tiles, or a zero fill first
    let mut data = buf::take(k * j_tiles * NR);
    let mut kb0 = 0;
    while kb0 < k {
        let kc = KC.min(k - kb0);
        let block = &mut data[kb0 * j_tiles * NR..(kb0 + kc) * j_tiles * NR];
        for jt in 0..j_tiles {
            let j0 = jt * NR;
            let jn = NR.min(n - j0);
            let tile = &mut block[jt * kc * NR..(jt + 1) * kc * NR];
            if jn < NR {
                tile.fill(0.0);
            }
            if b.transposed {
                // source rows are logical columns: walk each one
                // contiguously and scatter it down the tile
                for j in 0..jn {
                    let col = &b.data[(j0 + j) * k + kb0..][..kc];
                    for (kk, &v) in col.iter().enumerate() {
                        tile[kk * NR + j] = v;
                    }
                }
            } else {
                for kk in 0..kc {
                    let src = (kb0 + kk) * n + j0;
                    tile[kk * NR..kk * NR + jn].copy_from_slice(&b.data[src..src + jn]);
                }
            }
        }
        kb0 += kc;
    }
    PackedB {
        data,
        k,
        n,
        j_tiles,
    }
}

/// Whether the hand-written AVX2+FMA microkernel is usable on this host.
/// `std` caches the cpuid probe, so the check is a relaxed atomic load.
#[inline]
pub(crate) fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The AVX2+FMA microkernel: `C[MR × NR] += Apack[kc × MR] · Bpack[kc × NR]`
/// with `C` rows `ldc` apart.
///
/// # Safety
///
/// Caller must ensure AVX2 and FMA are available, `apack`/`bpack` hold
/// at least `kc·MR` / `kc·NR` elements, and `c` points at a tile whose
/// `MR` rows of `NR` elements (stride `ldc`) are all in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_avx2(kc: usize, apack: *const f32, bpack: *const f32, c: *mut f32, ldc: usize) {
    use std::arch::x86_64::{
        _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row[0] = _mm256_loadu_ps(c.add(r * ldc));
        row[1] = _mm256_loadu_ps(c.add(r * ldc + 8));
    }
    for kk in 0..kc {
        let b0 = _mm256_loadu_ps(bpack.add(kk * NR));
        let b1 = _mm256_loadu_ps(bpack.add(kk * NR + 8));
        for (r, row) in acc.iter_mut().enumerate() {
            let a = _mm256_broadcast_ss(&*apack.add(kk * MR + r));
            row[0] = _mm256_fmadd_ps(a, b0, row[0]);
            row[1] = _mm256_fmadd_ps(a, b1, row[1]);
        }
    }
    for (r, row) in acc.iter().enumerate() {
        _mm256_storeu_ps(c.add(r * ldc), row[0]);
        _mm256_storeu_ps(c.add(r * ldc + 8), row[1]);
    }
}

/// Portable microkernel with the same tile shape; the fixed `NR`-wide
/// inner loop autovectorizes on any target.
///
/// # Safety
///
/// Same bounds contract as [`micro_avx2`] (minus the ISA requirement).
unsafe fn micro_scalar(kc: usize, apack: *const f32, bpack: *const f32, c: *mut f32, ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        unsafe {
            std::ptr::copy_nonoverlapping(c.add(r * ldc), row.as_mut_ptr(), NR);
        }
    }
    for kk in 0..kc {
        let brow = unsafe { std::slice::from_raw_parts(bpack.add(kk * NR), NR) };
        for (r, row) in acc.iter_mut().enumerate() {
            let a = unsafe { *apack.add(kk * MR + r) };
            for (o, &bv) in row.iter_mut().zip(brow) {
                *o += a * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        unsafe {
            std::ptr::copy_nonoverlapping(row.as_ptr(), c.add(r * ldc), NR);
        }
    }
}

/// Packs `rows` rows of the left-hand `(m, k)` operand starting at
/// absolute row `a_row0`, restricted to columns `[kb0, kb0 + kc)`, into
/// `MR`-row strips (`apack[strip][kk · MR + r]`), zero-padding the
/// ragged final strip.
fn pack_a(a: Operand<'_>, a_row0: usize, rows: usize, kb0: usize, kc: usize, out: &mut [f32]) {
    let (m, k) = (a.rows, a.cols);
    let strips = rows.div_ceil(MR);
    debug_assert!(out.len() >= strips * kc * MR);
    for s in 0..strips {
        let strip = &mut out[s * kc * MR..(s + 1) * kc * MR];
        let row0 = a_row0 + s * MR;
        let live = MR.min(rows - s * MR);
        if live < MR {
            strip.fill(0.0);
        }
        if a.transposed {
            // a strip's `live` rows are adjacent in every source row
            for kk in 0..kc {
                let src = (kb0 + kk) * m + row0;
                strip[kk * MR..kk * MR + live].copy_from_slice(&a.data[src..src + live]);
            }
        } else {
            for r in 0..live {
                let arow = &a.data[(row0 + r) * k + kb0..][..kc];
                for (kk, &v) in arow.iter().enumerate() {
                    strip[kk * MR + r] = v;
                }
            }
        }
    }
}

/// Computes `band += a[a_row0..a_row0+band_rows, :] × B` for one
/// contiguous row band of the output, where `a` is the whole
/// `(m, bp.k)` left operand and `band` is `band_rows` rows of `bp.n`
/// contiguous elements.
///
/// Both the serial and the parallel matmul paths — and every group of
/// the grouped GEMM — run this exact routine, which is what makes
/// results bit-identical for every worker count (see the module docs).
pub(crate) fn gemm_band(
    a: Operand<'_>,
    a_row0: usize,
    bp: &PackedB,
    band: &mut [f32],
    band_rows: usize,
) {
    gemm_band_sized(a, a_row0, bp, band, band_rows, band_rows);
}

/// [`gemm_band`] with its packing buffer sized for `pack_rows ≥
/// band_rows` rows. The grouped GEMM cuts its bands at group boundaries,
/// which follow the data; passing the uncut band height keeps the
/// buffer's size class — and with it a warm thread's allocation count —
/// independent of where the cuts fall.
pub(crate) fn gemm_band_sized(
    a: Operand<'_>,
    a_row0: usize,
    bp: &PackedB,
    band: &mut [f32],
    band_rows: usize,
    pack_rows: usize,
) {
    let (k, n) = (bp.k, bp.n);
    debug_assert_eq!(band.len(), band_rows * n);
    assert!(
        a.cols == k && a_row0 + band_rows <= a.rows,
        "band outside A"
    );
    if band_rows == 0 || n == 0 || k == 0 {
        return;
    }
    let use_avx = simd_available();
    let strips = band_rows.div_ceil(MR);
    let mut apack = buf::take(pack_rows.max(band_rows).div_ceil(MR) * KC.min(k) * MR);
    let j_tiles = n.div_ceil(NR);
    let mut tile_buf = [0.0f32; MR * NR];
    let mut kb0 = 0;
    while kb0 < k {
        let kc = KC.min(k - kb0);
        pack_a(a, a_row0, band_rows, kb0, kc, &mut apack);
        for jt in 0..j_tiles {
            let j0 = jt * NR;
            let jn = NR.min(n - j0);
            let btile = bp.tile(kb0, kc, jt);
            for s in 0..strips {
                let r0 = s * MR;
                let live = MR.min(band_rows - r0);
                let astrip = &apack[s * kc * MR..(s + 1) * kc * MR];
                if live == MR && jn == NR {
                    // Full tile: accumulate straight into the output.
                    // SAFETY: rows r0..r0+MR and columns j0..j0+NR are in
                    // bounds of `band` (checked by live/jn), and the
                    // packed slices hold kc·MR / kc·NR elements.
                    unsafe {
                        let c = band.as_mut_ptr().add(r0 * n + j0);
                        if use_avx {
                            #[cfg(target_arch = "x86_64")]
                            micro_avx2(kc, astrip.as_ptr(), btile.as_ptr(), c, n);
                            #[cfg(not(target_arch = "x86_64"))]
                            micro_scalar(kc, astrip.as_ptr(), btile.as_ptr(), c, n);
                        } else {
                            micro_scalar(kc, astrip.as_ptr(), btile.as_ptr(), c, n);
                        }
                    }
                } else {
                    // Ragged tile: stage through a full-size scratch tile
                    // so the microkernel arithmetic per live element is
                    // identical to the full-tile path, then copy the live
                    // region back. Padded A rows / B lanes are zero, and
                    // their (possibly NaN) products land only in scratch
                    // lanes that are discarded here.
                    for (r, row) in tile_buf.chunks_mut(NR).enumerate() {
                        if r < live {
                            row[..jn].copy_from_slice(&band[(r0 + r) * n + j0..][..jn]);
                            row[jn..].fill(0.0);
                        } else {
                            row.fill(0.0);
                        }
                    }
                    // SAFETY: the scratch tile is exactly MR×NR with
                    // stride NR; packed slices as above.
                    unsafe {
                        let c = tile_buf.as_mut_ptr();
                        if use_avx {
                            #[cfg(target_arch = "x86_64")]
                            micro_avx2(kc, astrip.as_ptr(), btile.as_ptr(), c, NR);
                            #[cfg(not(target_arch = "x86_64"))]
                            micro_scalar(kc, astrip.as_ptr(), btile.as_ptr(), c, NR);
                        } else {
                            micro_scalar(kc, astrip.as_ptr(), btile.as_ptr(), c, NR);
                        }
                    }
                    for r in 0..live {
                        band[(r0 + r) * n + j0..][..jn].copy_from_slice(&tile_buf[r * NR..][..jn]);
                    }
                }
            }
        }
        kb0 += kc;
    }
    buf::give(apack);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive f64 reference for one element.
    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for kk in 0..k {
                    acc += f64::from(a[i * k + kk]) * f64::from(b[kk * n + j]);
                }
                out[i * n + j] = acc as f32;
            }
        }
        out
    }

    #[test]
    fn band_kernel_matches_naive_on_awkward_shapes() {
        for (m, k, n) in [
            (1, 1, 1),
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
            (2 * MR - 1, 7, 3),
            (13, 300, 37),
        ] {
            let a: Vec<f32> = (0..m * k).map(|v| ((v % 11) as f32 - 5.0) * 0.25).collect();
            let b: Vec<f32> = (0..k * n).map(|v| ((v % 7) as f32 - 3.0) * 0.5).collect();
            let bp = pack_b(Operand::plain(&b, k, n));
            let mut out = vec![0.0f32; m * n];
            gemm_band(Operand::plain(&a, m, k), 0, &bp, &mut out, m);
            let want = naive(&a, &b, m, k, n);
            for (got, want) in out.iter().zip(&want) {
                assert!(
                    (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                    "({m},{k},{n}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn band_split_is_bit_identical_to_whole() {
        let (m, k, n) = (2 * MR + 3, KC + 17, NR + 5);
        let a: Vec<f32> = (0..m * k)
            .map(|v| ((v * 37 % 101) as f32 - 50.0) / 17.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|v| ((v * 53 % 89) as f32 - 44.0) / 13.0)
            .collect();
        let bp = pack_b(Operand::plain(&b, k, n));
        let a = Operand::plain(&a, m, k);
        let mut whole = vec![0.0f32; m * n];
        gemm_band(a, 0, &bp, &mut whole, m);
        for split in 1..m {
            let mut parts = vec![0.0f32; m * n];
            let (top, bottom) = parts.split_at_mut(split * n);
            gemm_band(a, 0, &bp, top, split);
            gemm_band(a, split, &bp, bottom, m - split);
            assert_eq!(parts, whole, "split at {split}");
        }
    }
}
