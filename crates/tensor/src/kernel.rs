//! Packed, cache-blocked GEMM microkernel — the single inner loop every
//! matmul in the workspace (and through it every expert FFN and every
//! gating projection) runs on.
//!
//! # Structure
//!
//! The Goto/BLIS decomposition, with one rule on top: **an operand is
//! copied only when its reuse pays for the copy.**
//!
//! * `B` is packed **once per GEMM** into `NR`-wide column panels
//!   ([`pack_b`]), of which the innermost loop streams a `KC × NR` tile
//!   with unit stride. The pack walks its source in memory order: an
//!   expert weight is cold every time it is touched, and a sequential
//!   read is the cheapest way to fetch it;
//! * `A` is **read where it lies**: the microkernel takes `(pointer, row
//!   stride, k stride)`, so a full `MR`-row strip of a plain or a
//!   transposed operand is never copied (at `N = 32` that copy costs
//!   what the multiply does). Only a band's ragged last strip goes
//!   through [`pack_a`], zero-padded, into one strip-sized buffer;
//! * the microkernel loads an `MR × NR` tile of `C` into registers — or,
//!   in the first `KC` block of an output it overwrites, starts from
//!   zeros without reading `C` — accumulates `kc` rank-1 updates in
//!   ascending `k` order, and stores it back;
//! * `MR × NR` belongs to the microkernel, chosen once per process
//!   ([`Tile::host`]); packing and the band routine are written once
//!   over a [`Geometry`] and monomorphised per microkernel.
//!
//! The packed `B`, the strip buffer and the output are on loan from the
//! per-thread recycler ([`crate::buf`]): in steady state a GEMM
//! allocates nothing, and no buffer's size follows the routing.
//!
//! # Transposed operands
//!
//! Either operand may be handed over stored transposed ([`Operand`]):
//! `pack_b` transposes a transposed `B` panel by panel in 4×4 blocks,
//! and a transposed `A` is just another pair of strides, so `A·Bᵀ` and
//! `Aᵀ·B` — the two GEMMs of every backward pass — read the forward
//! tensors where they lie. The microkernel sees the values a transposing
//! copy would hold and runs the same fold on them: `matmul_nt` /
//! `matmul_tn` are bit-identical to transpose-then-`matmul`.
//!
//! # SIMD strategy
//!
//! On `x86_64` the microkernel is hand-written with `std::arch`
//! intrinsics, one macro body at two widths: with AVX-512F, 12 rows of
//! two 512-bit accumulators (a 12×32 tile in 27 of 32 zmm); with
//! AVX2+FMA, 6 rows of two 256-bit ones (6×16 in 15 of 16 ymm).
//! Everywhere else a scalar 6×16 loop nest with compile-time bounds
//! autovectorizes for whatever the target has. One thread of the
//! reference box (512-bit FMA peak 186 GFLOP/s) runs a 256³ GEMM,
//! packing included, at 123 / 87 / 28 GFLOP/s on the three.
//!
//! # Bit-identity across bands, callers — and FMA widths
//!
//! For a fixed output element `c[i][j]`, the accumulation is a left fold
//! over ascending `k`: the microkernel loads `c[i][j]`, folds the `KC`
//! block's products in ascending `k`, stores, and the next `KC` block
//! continues the same fold. Neither the band cut (the grouped GEMM runs
//! one band per group; each row's arithmetic is independent of which
//! strip or band it lands in) nor the tile split (lanes are independent)
//! changes that order. A GEMM runs on its calling thread, and what it
//! borrows — the packed `B`, the strip buffer — comes from that thread's
//! recycler, so concurrent callers share only the read-only code.
//! The two FMA microkernels run the same chain of fused multiply-adds
//! per element (one rounding per product) and agree **bit for bit**; the
//! scalar one multiplies and adds separately (two roundings) and may
//! differ from them in the last bits — *across hosts* only: the dispatch
//! is a process-wide constant, so within a process results are
//! deterministic.
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

/// `k`-dimension block: one packed `B` tile is `KC × NR` floats (32 KiB
/// at `NR = 32`).
pub(crate) const KC: usize = 256;
/// The largest `MR × NR` of any [`Geometry`]: the ragged-tile scratch.
const MAX_TILE: usize = 12 * 32;

/// The microkernel a GEMM runs on — and with it the register tile that
/// packing is sized by. Widest first: a host runs
/// [`Tile::host`] and every tile declared after it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd)]
pub(crate) enum Tile {
    /// 12×32: two 512-bit vectors per row.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// 6×16: two 256-bit vectors per row.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 6×16 in plain loops.
    Scalar,
}

/// Evaluates `$body` with `$G` naming the [`Geometry`] of `$tile`: the
/// one place a runtime tile becomes a monomorphised routine.
macro_rules! with_geometry {
    ($tile:expr, $G:ident => $body:expr) => {
        match $tile {
            #[cfg(target_arch = "x86_64")]
            Tile::Avx512 => {
                type $G = Avx512;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            Tile::Avx2 => {
                type $G = Avx2;
                $body
            }
            Tile::Scalar => {
                type $G = Scalar;
                $body
            }
        }
    };
}

impl Tile {
    /// The widest microkernel this host can run: a process-wide constant
    /// (`std` caches the cpuid probes).
    #[inline]
    pub(crate) fn host() -> Tile {
        #[cfg(target_arch = "x86_64")]
        if simd_available() {
            return if std::arch::is_x86_feature_detected!("avx512f") {
                Tile::Avx512
            } else {
                Tile::Avx2
            };
        }
        Tile::Scalar
    }

    /// Rows per microtile.
    #[cfg(test)]
    pub(crate) fn mr(self) -> usize {
        with_geometry!(self, G => G::MR)
    }
}

/// Whether AVX2+FMA code (the 256-bit microkernel, the vector
/// activations) is usable on this host.
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

/// Rows of `A` as they lie in memory: element `(r, kk)` is
/// `data[r · row_stride + kk · k_stride]` — strides `(k, 1)` for a plain
/// `A`, `(1, m)` for a transposed one, `(1, MR)` for a packed strip.
#[derive(Clone, Copy)]
struct Strip<'a> {
    data: &'a [f32],
    row_stride: usize,
    k_stride: usize,
}

/// One microkernel and the register tile it computes; everything else in
/// this module is written once over it.
trait Geometry {
    const MR: usize;
    const NR: usize;
    /// The runtime name of this geometry.
    const TILE: Tile;

    /// `C[MR × NR] += A[MR × kc] · Bpack[kc × NR]`: loads the tile of `C`
    /// (rows `ldc` apart) — or starts from `+0.0` without reading it when
    /// `load_c` is false — folds the `kc` rank-1 updates into it in
    /// ascending `k`, and stores it, reading `A` where it lies.
    ///
    /// # Safety
    ///
    /// The host must run `TILE`. All `MR` rows of `a` are read, up to and
    /// including element `(MR−1) · row_stride + (kc−1) · k_stride` of
    /// `a.data`, which must exist — a strip with fewer live rows is
    /// packed, never read in place. `bpack` must hold `kc · NR` elements,
    /// and the `MR` rows of `NR` elements at `c`, `ldc` apart, must all
    /// be in bounds.
    unsafe fn micro(
        kc: usize,
        a: Strip<'_>,
        bpack: *const f32,
        c: *mut f32,
        ldc: usize,
        load_c: bool,
    );
}

/// A hand-written FMA geometry: `$mr` rows of two `$lanes`-wide vector
/// accumulators. The instances differ in width only: each output element
/// is the same ascending-`k` chain of fused multiply-adds.
#[cfg(target_arch = "x86_64")]
macro_rules! fma_geometry {
    ($name:ident, $mr:literal, $lanes:literal, $features:literal,
     $zero:ident, $load:ident, $store:ident, $splat:ident, $fma:ident) => {
        struct $name;

        impl Geometry for $name {
            const MR: usize = $mr;
            const NR: usize = 2 * $lanes;
            const TILE: Tile = Tile::$name;

            /// # Safety
            ///
            /// The [`Geometry::micro`] contract.
            #[target_feature(enable = $features)]
            unsafe fn micro(
                kc: usize,
                a: Strip<'_>,
                mut bpack: *const f32,
                c: *mut f32,
                ldc: usize,
                load_c: bool,
            ) {
                use std::arch::x86_64::{
                    _mm_prefetch, $fma, $load, $splat, $store, $zero, _MM_HINT_T0,
                };
                let (mut a, row_stride, k_stride) = (a.data.as_ptr(), a.row_stride, a.k_stride);
                let mut acc = [[$zero(); 2]; $mr];
                if load_c {
                    for (r, row) in acc.iter_mut().enumerate() {
                        row[0] = $load(c.add(r * ldc));
                        row[1] = $load(c.add(r * ldc + $lanes));
                    }
                }
                for _ in 0..kc {
                    let b0 = $load(bpack);
                    let b1 = $load(bpack.add($lanes));
                    // A transposed strip is a line or two per `k` step,
                    // `m` floats apart: no hardware prefetcher follows
                    // it. (A hint cannot fault; it may pass the operand.)
                    let ahead = a.wrapping_add(16 * k_stride);
                    _mm_prefetch::<_MM_HINT_T0>(ahead.cast());
                    _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(($mr - 1) * row_stride).cast());
                    for (r, row) in acc.iter_mut().enumerate() {
                        let av = $splat(*a.add(r * row_stride));
                        row[0] = $fma(av, b0, row[0]);
                        row[1] = $fma(av, b1, row[1]);
                    }
                    a = a.add(k_stride);
                    bpack = bpack.add(2 * $lanes);
                }
                for (r, row) in acc.iter().enumerate() {
                    $store(c.add(r * ldc), row[0]);
                    $store(c.add(r * ldc + $lanes), row[1]);
                }
            }
        }
    };
}

// 27 of 32 zmm: 24 accumulators, 2 loaded `B` vectors, 1 broadcast.
#[cfg(target_arch = "x86_64")]
fma_geometry! {
    Avx512, 12, 16, "avx512f",
    _mm512_setzero_ps, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_set1_ps, _mm512_fmadd_ps
}
// 15 of 16 ymm.
#[cfg(target_arch = "x86_64")]
fma_geometry! {
    Avx2, 6, 8, "avx2,fma",
    _mm256_setzero_ps, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps, _mm256_fmadd_ps
}

/// The portable geometry: the fixed `NR`-wide inner loop autovectorizes
/// on any target, with separate multiply and add.
struct Scalar;

impl Geometry for Scalar {
    const MR: usize = 6;
    const NR: usize = 16;
    const TILE: Tile = Tile::Scalar;

    /// # Safety
    ///
    /// The [`Geometry::micro`] contract; any host will do.
    unsafe fn micro(
        kc: usize,
        a: Strip<'_>,
        bpack: *const f32,
        c: *mut f32,
        ldc: usize,
        load_c: bool,
    ) {
        let mut acc = [[0.0f32; Self::NR]; Self::MR];
        if load_c {
            for (r, row) in acc.iter_mut().enumerate() {
                std::ptr::copy_nonoverlapping(c.add(r * ldc), row.as_mut_ptr(), Self::NR);
            }
        }
        for kk in 0..kc {
            let brow = std::slice::from_raw_parts(bpack.add(kk * Self::NR), Self::NR);
            for (r, row) in acc.iter_mut().enumerate() {
                let av = *a.data.as_ptr().add(r * a.row_stride + kk * a.k_stride);
                for (o, &bv) in row.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            std::ptr::copy_nonoverlapping(row.as_ptr(), c.add(r * ldc), Self::NR);
        }
    }
}

/// `B` packed into unit-stride column panels, padded with zeros to a
/// multiple of `NR` columns.
///
/// Layout: panel `jt` (offset `jt · k · NR`) holds columns
/// `jt · NR ..` of every row, element `[kk · NR + j]` being
/// `b[kk · n + jt · NR + j]`; the `KC × NR` tile the microkernel streams
/// is rows `kb0 .. kb0 + kc` of a panel.
pub(crate) struct PackedB {
    data: Vec<f32>,
    /// Inner (contraction) dimension.
    pub(crate) k: usize,
    /// Output column count (unpadded).
    pub(crate) n: usize,
    /// The geometry the panels were cut for.
    tile: Tile,
}

impl PackedB {
    /// The packed tile for `KC` block starting at `kb0` (length `kc`)
    /// and column panel `jt`.
    #[inline]
    fn tile<G: Geometry>(&self, kb0: usize, kc: usize, jt: usize) -> &[f32] {
        let off = (jt * self.k + kb0) * G::NR;
        &self.data[off..off + kc * G::NR]
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

    /// The operand from logical `(row, col)` on, as it lies.
    fn at(&self, row: usize, col: usize) -> Strip<'a> {
        let (row_stride, k_stride) = if self.transposed {
            (1, self.rows)
        } else {
            (self.cols, 1)
        };
        Strip {
            data: &self.data[row * row_stride + col * k_stride..],
            row_stride,
            k_stride,
        }
    }
}

/// `dst[c · dst_stride + r] = src[r · src_stride + c]` for `r < rows`,
/// `c < cols`. On `x86_64` whole 4×4 blocks go through four 128-bit
/// registers (SSE is part of the baseline: no runtime probe): source
/// rows are read front to back, four at a time, and every store fills
/// four adjacent floats.
pub(crate) fn transpose_into(
    src: &[f32],
    src_stride: usize,
    dst: &mut [f32],
    dst_stride: usize,
    rows: usize,
    cols: usize,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(
        (rows - 1) * src_stride + cols <= src.len() && (cols - 1) * dst_stride + rows <= dst.len(),
        "transpose outside its buffers"
    );
    #[cfg(target_arch = "x86_64")]
    let (block_rows, block_cols) = (rows & !3, cols & !3);
    #[cfg(not(target_arch = "x86_64"))]
    let (block_rows, block_cols) = (0, 0);
    #[cfg(target_arch = "x86_64")]
    for r0 in (0..block_rows).step_by(4) {
        for c0 in (0..block_cols).step_by(4) {
            use std::arch::x86_64::{
                _mm_loadu_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_storeu_ps, _mm_unpackhi_ps,
                _mm_unpacklo_ps,
            };
            // SAFETY: the block's last source element, `(r0+3, c0+3)`,
            // and its last destination, `(c0+3, r0+3)`, lie inside the
            // `rows × cols` region whose last element was checked above.
            unsafe {
                let from = src.as_ptr().add(r0 * src_stride + c0);
                let to = dst.as_mut_ptr().add(c0 * dst_stride + r0);
                let [a, b, c, d] = [0, 1, 2, 3].map(|r| _mm_loadu_ps(from.add(r * src_stride)));
                let (lo_ab, hi_ab) = (_mm_unpacklo_ps(a, b), _mm_unpackhi_ps(a, b));
                let (lo_cd, hi_cd) = (_mm_unpacklo_ps(c, d), _mm_unpackhi_ps(c, d));
                _mm_storeu_ps(to, _mm_movelh_ps(lo_ab, lo_cd));
                _mm_storeu_ps(to.add(dst_stride), _mm_movehl_ps(lo_cd, lo_ab));
                _mm_storeu_ps(to.add(2 * dst_stride), _mm_movelh_ps(hi_ab, hi_cd));
                _mm_storeu_ps(to.add(3 * dst_stride), _mm_movehl_ps(hi_cd, hi_ab));
            }
        }
    }
    // what the blocks left: the ragged right and bottom edges
    for r in 0..rows {
        for c in if r < block_rows { block_cols } else { 0 }..cols {
            dst[c * dst_stride + r] = src[r * src_stride + c];
        }
    }
}

/// Packs the right-hand `(k, n)` operand for this host's microkernel.
pub(crate) fn pack_b(b: Operand<'_>) -> PackedB {
    with_geometry!(Tile::host(), G => pack_b_as::<G>(b))
}

/// [`pack_b`] for geometry `G`. Both layouts walk the source in memory
/// order: a plain `B` row is read once, front to back, and dropped in
/// whole `NR`-wide chunks into the panels it crosses; a transposed `B`
/// (source rows are logical columns) is transposed panel by panel.
fn pack_b_as<G: Geometry>(b: Operand<'_>) -> PackedB {
    let nr = G::NR;
    let (k, n) = (b.rows, b.cols);
    let panel = k * nr;
    // only the last panel can be ragged: `tail` live columns, then zeros
    let (full, tail) = (n / nr, n % nr);
    let panels = n.div_ceil(nr).max(1);
    // every element is written: live columns, or the padding's zeros
    let mut data = buf::take(panels * panel);
    if b.transposed {
        for (jt, out) in data.chunks_exact_mut(panel.max(1)).enumerate() {
            let jn = if jt < full { nr } else { tail };
            if jn < nr {
                out.fill(0.0);
            }
            if jn > 0 {
                transpose_into(&b.data[jt * nr * k..], k, out, nr, jn, k);
            }
        }
    } else {
        for kk in 0..k {
            let mut chunks = b.data[kk * n..][..n].chunks_exact(nr);
            for (jt, chunk) in chunks.by_ref().enumerate() {
                data[jt * panel + kk * nr..][..nr].copy_from_slice(chunk);
            }
            if full < panels {
                let last = &mut data[full * panel + kk * nr..][..nr];
                last[..tail].copy_from_slice(chunks.remainder());
                last[tail..].fill(0.0);
            }
        }
    }
    PackedB {
        data,
        k,
        n,
        tile: G::TILE,
    }
}

/// Packs the first `live < MR` rows and `kc` columns of `a` into one
/// zero-padded `MR`-row strip (`out[kk · MR + r]`): a band's ragged last
/// strip, the only one the microkernel does not read in place.
fn pack_a<G: Geometry>(a: Strip<'_>, live: usize, kc: usize, out: &mut [f32]) {
    for (kk, lanes) in out[..kc * G::MR].chunks_exact_mut(G::MR).enumerate() {
        lanes.fill(0.0);
        for (r, v) in lanes[..live].iter_mut().enumerate() {
            *v = a.data[r * a.row_stride + kk * a.k_stride];
        }
    }
}

/// Computes `band += a[a_row0..a_row0+band_rows, :] × B` for one
/// contiguous row band of the output — or, with `accumulate` false,
/// `band = …`, never reading what `band` held — where `a` is the whole
/// `(m, bp.k)` left operand and `band` is `band_rows` rows of `bp.n`
/// contiguous elements.
///
/// Every matmul — and every group of the grouped GEMM — runs this exact
/// routine, which is what makes a group's rows bit-identical to the same
/// rows multiplied alone (see the module docs). Overwriting is adding to
/// `+0.0`: the fold starts from the value a zeroed band would load.
pub(crate) fn gemm_band(
    a: Operand<'_>,
    a_row0: usize,
    bp: &PackedB,
    band: &mut [f32],
    band_rows: usize,
    accumulate: bool,
) {
    with_geometry!(bp.tile, G => gemm_band_as::<G>(a, a_row0, bp, band, band_rows, accumulate));
}

/// [`gemm_band`] on geometry `G` — the one loop nest, monomorphised per
/// microkernel.
fn gemm_band_as<G: Geometry>(
    a: Operand<'_>,
    a_row0: usize,
    bp: &PackedB,
    band: &mut [f32],
    band_rows: usize,
    accumulate: bool,
) {
    let (mr, nr) = (G::MR, G::NR);
    let (k, n) = (bp.k, bp.n);
    assert!(
        G::TILE >= Tile::host() && bp.tile == G::TILE,
        "{:?} microkernel on a host without it, or on panels cut for {:?}",
        G::TILE,
        bp.tile
    );
    debug_assert_eq!(band.len(), band_rows * n);
    assert!(
        a.cols == k && a_row0 + band_rows <= a.rows,
        "band outside A"
    );
    if band_rows == 0 || n == 0 || k == 0 {
        if !accumulate {
            band.fill(0.0);
        }
        return;
    }
    let (full, ragged) = (band_rows / mr, band_rows % mr);
    let mut last_strip = if ragged > 0 {
        buf::take(KC * mr)
    } else {
        Vec::new()
    };
    let mut tile_buf = [0.0f32; MAX_TILE];
    let tile_buf = &mut tile_buf[..mr * nr];
    for kb0 in (0..k).step_by(KC) {
        let kc = KC.min(k - kb0);
        let load_c = accumulate || kb0 > 0;
        if ragged > 0 {
            pack_a::<G>(a.at(a_row0 + full * mr, kb0), ragged, kc, &mut last_strip);
        }
        for jt in 0..n.div_ceil(nr) {
            let j0 = jt * nr;
            let jn = nr.min(n - j0);
            let btile = bp.tile::<G>(kb0, kc, jt);
            for s in 0..full + usize::from(ragged > 0) {
                let r0 = s * mr;
                let (strip, live) = if s < full {
                    (a.at(a_row0 + r0, kb0), mr)
                } else {
                    let packed = Strip {
                        data: &last_strip,
                        row_stride: 1,
                        k_stride: mr,
                    };
                    (packed, ragged)
                };
                // the highest element the microkernel reads
                let last_read = (mr - 1) * strip.row_stride + (kc - 1) * strip.k_stride;
                debug_assert!(last_read < strip.data.len(), "strip past its operand");
                // A full tile accumulates straight into the output. A
                // ragged one is staged through a full-size scratch tile,
                // so the arithmetic per live element is identical:
                // padded A rows / B lanes are zero, and their (possibly
                // NaN) products land only in lanes discarded below.
                let direct = live == mr && jn == nr;
                if !direct {
                    for (r, row) in tile_buf.chunks_exact_mut(nr).enumerate() {
                        row.fill(0.0);
                        if r < live && load_c {
                            row[..jn].copy_from_slice(&band[(r0 + r) * n + j0..][..jn]);
                        }
                    }
                }
                let (c, ldc) = if direct {
                    (band[r0 * n + j0..].as_mut_ptr(), n)
                } else {
                    (tile_buf.as_mut_ptr(), nr)
                };
                // SAFETY: the host runs `G` (asserted on entry). `strip`
                // is the packed strip, or starts at row `a_row0 + r0`,
                // column `kb0` of an operand with `MR` more rows (`s <
                // full`; the band lies inside `A`, asserted on entry)
                // and `kc` more columns, so `last_read` is in bounds.
                // `btile` holds kc·NR elements. `c` is the scratch tile —
                // MR×NR at stride NR — or rows r0..r0+MR, columns
                // j0..j0+NR of `band` (`direct`).
                unsafe { G::micro(kc, strip, btile.as_ptr(), c, ldc, load_c || !direct) };
                if !direct {
                    for r in 0..live {
                        band[(r0 + r) * n + j0..][..jn].copy_from_slice(&tile_buf[r * nr..][..jn]);
                    }
                }
            }
        }
    }
    buf::give(last_strip);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every geometry this host can run, widest first.
    fn host_tiles() -> Vec<Tile> {
        let all = [
            #[cfg(target_arch = "x86_64")]
            Tile::Avx512,
            #[cfg(target_arch = "x86_64")]
            Tile::Avx2,
            Tile::Scalar,
        ];
        all.into_iter()
            .filter(|&tile| tile >= Tile::host())
            .collect()
    }

    /// `A × B` through the band routine of `tile`, rows cut at `split`.
    fn gemm_on(tile: Tile, a: Operand<'_>, b: Operand<'_>, split: usize) -> Vec<f32> {
        let (m, n) = (a.rows, b.cols);
        // NaN where an overwriting band must not read
        let mut out = vec![f32::NAN; m * n];
        let (top, bottom) = out.split_at_mut(split * n);
        with_geometry!(tile, G => {
            let bp = pack_b_as::<G>(b);
            gemm_band_as::<G>(a, 0, &bp, top, split, false);
            gemm_band_as::<G>(a, split, &bp, bottom, m - split, false);
        });
        out
    }

    /// Naive f64 reference.
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

    fn transposed(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; src.len()];
        transpose_into(src, cols, &mut out, rows, rows, cols);
        out
    }

    /// Shapes one off either way from every geometry's `MR` (6, 12),
    /// `NR` (16, 32) and from `KC`.
    const AWKWARD: [(usize, usize, usize); 8] = [
        (1, 1, 1),
        (6, KC, 16),
        (12, KC, 32),
        (7, KC + 1, 17),
        (13, 300, 37),
        (11, 7, 3),
        (23, 2 * KC + 3, 33),
        (25, 40, 65),
    ];

    fn operands(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        let a = (0..m * k)
            .map(|v| ((v * 37 % 101) as f32 - 50.0) / 17.0)
            .collect();
        let b = (0..k * n)
            .map(|v| ((v * 53 % 89) as f32 - 44.0) / 13.0)
            .collect();
        (a, b)
    }

    #[test]
    fn band_kernel_matches_naive_on_awkward_shapes() {
        for tile in host_tiles() {
            for (m, k, n) in AWKWARD {
                let (a, b) = operands(m, k, n);
                let out = gemm_on(tile, Operand::plain(&a, m, k), Operand::plain(&b, k, n), m);
                let want = naive(&a, &b, m, k, n);
                for (got, want) in out.iter().zip(&want) {
                    assert!(
                        (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                        "{tile:?} ({m},{k},{n}): {got} vs {want}"
                    );
                }
            }
        }
    }

    /// The FMA geometries differ in width only, so they agree bit for
    /// bit — on every layout; the scalar one rounds each product and is
    /// merely close.
    #[test]
    fn every_host_geometry_computes_the_same_product() {
        let tiles = host_tiles();
        for (m, k, n) in AWKWARD {
            let (a, b) = operands(m, k, n);
            let (at, bt) = (transposed(&a, m, k), transposed(&b, k, n));
            let layouts = [
                (Operand::plain(&a, m, k), Operand::plain(&b, k, n)),
                (Operand::plain(&a, m, k), Operand::transposed(&bt, k, n)),
                (Operand::transposed(&at, m, k), Operand::plain(&b, k, n)),
            ];
            let reference = gemm_on(Tile::Scalar, layouts[0].0, layouts[0].1, m);
            for &tile in &tiles {
                let plain = gemm_on(tile, layouts[0].0, layouts[0].1, m);
                for (a, b) in &layouts[1..] {
                    assert_eq!(gemm_on(tile, *a, *b, m), plain, "{tile:?} ({m},{k},{n})");
                }
                if tile == Tile::Scalar {
                    continue;
                }
                assert_eq!(
                    plain,
                    gemm_on(tiles[0], layouts[0].0, layouts[0].1, m),
                    "{tile:?} vs {:?} ({m},{k},{n})",
                    tiles[0]
                );
                for (got, want) in plain.iter().zip(&reference) {
                    assert!(
                        (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                        "{tile:?} vs scalar ({m},{k},{n}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn band_split_is_bit_identical_to_whole() {
        for tile in host_tiles() {
            let (m, k, n) = (2 * tile.mr() + 3, KC + 17, 37);
            let (a, b) = operands(m, k, n);
            let (a, b) = (Operand::plain(&a, m, k), Operand::plain(&b, k, n));
            let whole = gemm_on(tile, a, b, m);
            for split in 1..m {
                assert_eq!(
                    gemm_on(tile, a, b, split),
                    whole,
                    "{tile:?} split at {split}"
                );
            }
        }
    }

    /// `A` is read in place for full strips only, and never past its
    /// last element: the operands here are exactly-sized allocations, a
    /// band ends on `A`'s last row, and (in debug builds) the kernel
    /// checks the highest element of every microkernel call against it.
    #[test]
    fn a_at_the_tail_of_its_allocation_is_never_overread() {
        for tile in host_tiles() {
            let mr = tile.mr();
            for m in [mr - 1, mr, mr + 1, 2 * mr - 1] {
                for (k, n) in [(5, 3), (KC + 9, 45)] {
                    let (a, b) = operands(m, k, n);
                    let at = transposed(&a, m, k).into_boxed_slice();
                    let a = a.into_boxed_slice();
                    let b = Operand::plain(&b, k, n);
                    let want = naive(&a, b.data, m, k, n);
                    for a in [Operand::plain(&a, m, k), Operand::transposed(&at, m, k)] {
                        // one band, and a cut that leaves a one-row band
                        // at the very end of `A`
                        for split in [m, m - 1] {
                            let got = gemm_on(tile, a, b, split);
                            for (got, want) in got.iter().zip(&want) {
                                assert!(
                                    (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                                    "{tile:?} ({m},{k},{n}): {got} vs {want}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_into_handles_strides_and_ragged_blocks() {
        for (rows, cols) in [(1, 1), (8, 8), (9, 17), (16, 3), (33, 20)] {
            // both buffers wider than the block that is moved
            let (ss, ds) = (cols + 3, rows + 2);
            let src: Vec<f32> = (0..rows * ss).map(|v| v as f32).collect();
            let mut dst = vec![-1.0f32; cols * ds];
            transpose_into(&src, ss, &mut dst, ds, rows, cols);
            for c in 0..cols {
                for r in 0..ds {
                    let want = if r < rows { src[r * ss + c] } else { -1.0 };
                    assert_eq!(dst[c * ds + r], want, "({rows},{cols}) at ({r},{c})");
                }
            }
        }
    }
}
