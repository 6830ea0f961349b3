use crate::kernel::{self, Operand};
use crate::{buf, Result, Tensor, TensorError};

fn check_matrix(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

fn shape_mismatch(op: &'static str, lhs: &Tensor, rhs: &Tensor) -> TensorError {
    TensorError::ShapeMismatch {
        op,
        lhs: lhs.dims().to_vec(),
        rhs: rhs.dims().to_vec(),
    }
}

/// `A × B` for operands in either layout, on the calling thread — the
/// one routine behind every ungrouped matmul.
fn gemm(a: Operand<'_>, b: Operand<'_>) -> Vec<f32> {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    debug_assert_eq!(k, b.rows);
    if m == 0 || n == 0 || k == 0 {
        return buf::take_zeroed(m * n);
    }
    let mut out = buf::take(m * n);
    kernel::gemm_band(a, 0, &kernel::pack_b(b), &mut out, m, false);
    out
}

/// Checks that `offsets` cuts the leading `offsets[groups]` of `rows`
/// rows into `groups` ascending ranges.
fn check_offsets(offsets: &[usize], groups: usize, rows: usize) -> Result<()> {
    if groups == 0 || offsets.len() != groups + 1 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_grouped",
            lhs: vec![groups],
            rhs: vec![offsets.len()],
        });
    }
    if offsets[0] != 0 || offsets[groups] > rows || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(TensorError::IndexOutOfBounds {
            index: offsets[groups],
            bound: rows,
        });
    }
    Ok(())
}

/// Where the rows of a grouped GEMM's groups lie in a buffer: group `g`
/// is a list of `(base, rows)` runs — `rows` consecutive rows from row
/// `base` — taken in order.
///
/// Contiguous groups ([`Segments::from_offsets`]) are one run each; the
/// MoE layer's wire buffer is one run per `(expert, source)` block, so
/// the experts read and write it where it lies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segments {
    runs: Vec<(usize, usize)>,
    /// Group `g` is `runs[starts[g]..starts[g + 1]]`.
    starts: Vec<usize>,
}

impl Default for Segments {
    fn default() -> Self {
        Segments::new()
    }
}

impl Segments {
    /// No groups yet.
    pub fn new() -> Self {
        Segments {
            runs: Vec::new(),
            starts: vec![0],
        }
    }

    /// Contiguous groups: group `g` is rows `offsets[g] .. offsets[g + 1]`.
    ///
    /// # Panics
    ///
    /// Panics when `offsets` descends.
    pub fn from_offsets(offsets: &[usize]) -> Self {
        let mut segments = Segments::new();
        for w in offsets.windows(2) {
            segments.push_group([(w[0], w[1] - w[0])]);
        }
        segments
    }

    /// Appends a group made of `runs`, in order (empty runs allowed).
    pub fn push_group(&mut self, runs: impl IntoIterator<Item = (usize, usize)>) {
        self.runs.extend(runs);
        self.starts.push(self.runs.len());
    }

    /// The same group sizes packed from row 0: each group one run, right
    /// after the one before it.
    pub fn packed(&self) -> Segments {
        let mut packed = Segments::new();
        let mut base = 0;
        for g in 0..self.groups() {
            let rows = self.group_rows(g);
            packed.push_group([(base, rows)]);
            base += rows;
        }
        packed
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.starts.len() - 1
    }

    /// The runs of group `g`, in order.
    pub fn group(&self, g: usize) -> &[(usize, usize)] {
        &self.runs[self.starts[g]..self.starts[g + 1]]
    }

    /// Rows of group `g`.
    pub fn group_rows(&self, g: usize) -> usize {
        self.group(g).iter().map(|&(_, rows)| rows).sum()
    }

    /// One past the last row any run covers.
    fn end(&self) -> usize {
        self.runs
            .iter()
            .map(|&(base, rows)| base + rows)
            .max()
            .unwrap_or(0)
    }

    /// Checks that there are `groups` groups, all inside `rows` rows.
    fn check(&self, op: &'static str, groups: usize, rows: usize) -> Result<()> {
        if groups == 0 || self.groups() != groups {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: vec![groups],
                rhs: vec![self.groups()],
            });
        }
        if self.end() > rows {
            return Err(TensorError::IndexOutOfBounds {
                index: self.end(),
                bound: rows,
            });
        }
        Ok(())
    }
}

/// Checks that `a` and `b` hold groups of the same sizes.
fn check_paired(op: &'static str, a: &Segments, b: &Segments) -> Result<()> {
    if let Some(g) = (0..a.groups()).find(|&g| a.group_rows(g) != b.group_rows(g)) {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: vec![g, a.group_rows(g)],
            rhs: vec![g, b.group_rows(g)],
        });
    }
    Ok(())
}

/// Walks one group's rows in two layouts at once, cut wherever a run of
/// either ends: `f(row in a, row in b, rows)` in order. Both sides hold
/// the same number of rows.
fn zip_runs(a: &[(usize, usize)], b: &[(usize, usize)], mut f: impl FnMut(usize, usize, usize)) {
    let mut a_runs = a.iter().copied().filter(|&(_, rows)| rows > 0);
    let mut b_runs = b.iter().copied().filter(|&(_, rows)| rows > 0);
    let (mut x, mut y) = (a_runs.next(), b_runs.next());
    while let (Some((a_row, a_len)), Some((b_row, b_len))) = (x, y) {
        let len = a_len.min(b_len);
        f(a_row, b_row, len);
        x = if a_len > len {
            Some((a_row + len, a_len - len))
        } else {
            a_runs.next()
        };
        y = if b_len > len {
            Some((b_row + len, b_len - len))
        } else {
            b_runs.next()
        };
    }
}

impl Tensor {
    /// Matrix multiplication of two rank-2 tensors: `(m,k) × (k,n) → (m,n)`.
    ///
    /// This is the GEMM every expert feed-forward and every gating
    /// projection in the MoE layer reduces to; the paper's performance
    /// model (§4.1) prices expert time as a multiple of GEMM time.
    ///
    /// Runs on the calling thread: parallelism comes from independent
    /// callers (one thread per rank), never from splitting one GEMM. Any
    /// number of threads may multiply at once and each gets the bits a
    /// lone call would.
    ///
    /// Every `a[i][k] · b[k][j]` product is computed — there is no
    /// zero-skip — so non-finite values in **either** operand propagate
    /// to the output (`0.0 × NaN = NaN`).
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank 2 with matching inner
    /// dimension.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        let (m, k) = check_matrix(self, "matmul")?;
        let (k2, n) = check_matrix(rhs, "matmul")?;
        if k != k2 {
            return Err(shape_mismatch("matmul", self, rhs));
        }
        let out = gemm(
            Operand::plain(self.data(), m, k),
            Operand::plain(rhs.data(), k, n),
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// [`Tensor::matmul`]; `threads` is ignored (kept for existing
    /// callers).
    ///
    /// # Errors
    ///
    /// As [`Tensor::matmul`].
    pub fn matmul_with_threads(&self, rhs: &Tensor, _threads: usize) -> Result<Tensor> {
        self.matmul(rhs)
    }

    /// `self × rhsᵀ`: `(m,k) × (n,k)ᵀ → (m,n)` — the input-gradient GEMM
    /// of a backward pass (`∂L/∂x = ∂L/∂y · wᵀ`) and the `Q·Kᵀ` of
    /// attention, reading `rhs` where it lies.
    ///
    /// Bit-identical to `self.matmul(&rhs.transpose()?)`: the packing
    /// pass reads the transposed layout, the arithmetic is the same fold.
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank 2 with the same
    /// column count.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Result<Tensor> {
        let (m, k) = check_matrix(self, "matmul_nt")?;
        let (n, k2) = check_matrix(rhs, "matmul_nt")?;
        if k != k2 {
            return Err(shape_mismatch("matmul_nt", self, rhs));
        }
        let out = gemm(
            Operand::plain(self.data(), m, k),
            Operand::transposed(rhs.data(), k, n),
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// `selfᵀ × rhs`: `(k,m)ᵀ × (k,n) → (m,n)` — the weight-gradient
    /// GEMM of a backward pass (`∂L/∂w = xᵀ · ∂L/∂y`), reading `self`
    /// where it lies.
    ///
    /// Bit-identical to `self.transpose()?.matmul(rhs)`.
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank 2 with the same
    /// row count.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Result<Tensor> {
        let (k, m) = check_matrix(self, "matmul_tn")?;
        let (k2, n) = check_matrix(rhs, "matmul_tn")?;
        if k != k2 {
            return Err(shape_mismatch("matmul_tn", self, rhs));
        }
        let out = gemm(
            Operand::transposed(self.data(), m, k),
            Operand::plain(rhs.data(), k, n),
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Grouped GEMM over contiguous row groups of `self`, one weight
    /// matrix per group: rows `offsets[g] .. offsets[g+1]` of the output
    /// are `self[offsets[g]..offsets[g+1], :] × weights[g]`. `threads`
    /// is ignored (kept for existing callers). The contiguous case of
    /// [`Tensor::matmul_segments`], in place on both sides.
    ///
    /// # Errors
    ///
    /// Returns an error unless `self` is rank 2, every weight is rank 2
    /// with the same `(k, n)` shape matching `self`'s inner dimension,
    /// and `offsets` is an ascending list of `weights.len() + 1` row
    /// offsets starting at 0 and ending at or before `self`'s row count.
    /// Rows past the last offset belong to no group — spare capacity of
    /// a buffer sized for the worst case — and are zero in the output.
    pub fn matmul_grouped(
        &self,
        weights: &[&Tensor],
        offsets: &[usize],
        _threads: usize,
    ) -> Result<Tensor> {
        let (m, _) = check_matrix(self, "matmul_grouped")?;
        check_offsets(offsets, weights.len(), m)?;
        let groups = Segments::from_offsets(offsets);
        self.grouped(weights, &groups, &groups, m, false)
    }

    /// Grouped GEMM over row segments, one weight matrix per group: the
    /// rows of group `g` of `self` (at `rows.group(g)`, in order) times
    /// `weights[g]` land, in the same order, at `out.group(g)` of a
    /// `(height, n)` result whose other rows are zero.
    ///
    /// This is the dropless expert-batch primitive: tokens routed to an
    /// expert form variable-size groups (empty groups allowed — no
    /// padding, no capacity drops) wherever they lie, and one call
    /// computes every expert's FFN projection, packing each live
    /// expert's weight once. Each row runs through the same microkernel
    /// as [`Tensor::matmul`], so it is bit-identical to that row
    /// multiplied alone, however the groups are cut into runs.
    ///
    /// # Errors
    ///
    /// Returns an error unless `self` is rank 2, every weight is rank 2
    /// with the same `(k, n)` shape matching `self`'s inner dimension,
    /// and `rows` and `out` hold `weights.len()` groups of equal sizes
    /// inside `self` and the result respectively.
    pub fn matmul_segments(
        &self,
        weights: &[&Tensor],
        rows: &Segments,
        out: &Segments,
        height: usize,
    ) -> Result<Tensor> {
        self.grouped(weights, rows, out, height, false)
    }

    /// [`Tensor::matmul_segments`] against transposed weights: group
    /// `g` is multiplied by `weights[g]ᵀ`, every weight `(n, k)` — the
    /// grouped input-gradient GEMM, reading the forward weights where
    /// they lie. Bit-identical to transposing each weight and calling
    /// `matmul_segments`.
    ///
    /// # Errors
    ///
    /// As [`Tensor::matmul_segments`], with `(n, k)` weights.
    pub fn matmul_segments_nt(
        &self,
        weights: &[&Tensor],
        rows: &Segments,
        out: &Segments,
        height: usize,
    ) -> Result<Tensor> {
        self.grouped(weights, rows, out, height, true)
    }

    fn grouped(
        &self,
        weights: &[&Tensor],
        rows: &Segments,
        out_rows: &Segments,
        height: usize,
        transposed: bool,
    ) -> Result<Tensor> {
        const OP: &str = "matmul_grouped";
        let (m, k) = check_matrix(self, OP)?;
        rows.check(OP, weights.len(), m)?;
        out_rows.check(OP, weights.len(), height)?;
        check_paired(OP, rows, out_rows)?;
        let (w_rows, w_cols) = check_matrix(weights[0], OP)?;
        if let Some(w) = weights.iter().find(|w| w.dims() != weights[0].dims()) {
            return Err(shape_mismatch(OP, weights[0], w));
        }
        let (wk, n) = if transposed {
            (w_cols, w_rows)
        } else {
            (w_rows, w_cols)
        };
        if k != wk {
            return Err(shape_mismatch(OP, self, weights[0]));
        }
        if n == 0 || k == 0 {
            return Tensor::from_vec(buf::take_zeroed(height * n), &[height, n]);
        }
        // rows no group writes are zeroed; the groups' rows overwritten
        let mut out = buf::take(height * n);
        let mut written = vec![false; height];
        for &(base, rows) in &out_rows.runs {
            written[base..base + rows].fill(true);
        }
        for (row, _) in written.iter().enumerate().filter(|(_, &w)| !w) {
            out[row * n..(row + 1) * n].fill(0.0);
        }
        let a = Operand::plain(self.data(), m, k);
        for (g, w) in weights.iter().enumerate() {
            // empty groups never touch their weight
            if rows.group_rows(g) == 0 {
                continue;
            }
            let bp = kernel::pack_b(if transposed {
                Operand::transposed(w.data(), k, n)
            } else {
                Operand::plain(w.data(), k, n)
            });
            zip_runs(rows.group(g), out_rows.group(g), |a_row, c_row, len| {
                let band = &mut out[c_row * n..(c_row + len) * n];
                kernel::gemm_band(a, a_row, &bp, band, len, false);
            });
        }
        Tensor::from_vec(out, &[height, n])
    }

    /// Per-group `self[rows.group(g)]ᵀ × rhs[rhs_rows.group(g)]`, the
    /// `k`-th row of one side paired with the `k`-th of the other: one
    /// `(m, n)` tensor per group of `self` `(·, m)` and `rhs` `(·, n)` —
    /// the grouped weight-gradient GEMM. Empty groups yield zeros.
    ///
    /// The contraction walks each group's rows in order, one band per
    /// piece where neither side's run breaks; the microkernel stores and
    /// reloads its accumulators between pieces, so every element is the
    /// same ascending-`k` fold — bit-identical to gathering both groups
    /// into contiguous rows and calling [`Tensor::matmul_tn`].
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank 2 and `rows` and
    /// `rhs_rows` hold the same number of groups, of equal sizes, inside
    /// `self` and `rhs` respectively.
    pub fn matmul_segments_tn(
        &self,
        rhs: &Tensor,
        rows: &Segments,
        rhs_rows: &Segments,
    ) -> Result<Vec<Tensor>> {
        const OP: &str = "matmul_grouped_tn";
        let (self_rows, m) = check_matrix(self, OP)?;
        let (rhs_height, n) = check_matrix(rhs, OP)?;
        rows.check(OP, rows.groups(), self_rows)?;
        rhs_rows.check(OP, rows.groups(), rhs_height)?;
        check_paired(OP, rows, rhs_rows)?;
        (0..rows.groups())
            .map(|g| {
                // the first piece overwrites, the rest fold on
                let mut out = buf::take(m * n);
                let mut accumulate = false;
                if m > 0 && n > 0 {
                    zip_runs(rows.group(g), rhs_rows.group(g), |a_row, b_row, len| {
                        let a = &self.data()[a_row * m..(a_row + len) * m];
                        let b = &rhs.data()[b_row * n..(b_row + len) * n];
                        let bp = kernel::pack_b(Operand::plain(b, len, n));
                        let a = Operand::transposed(a, m, len);
                        kernel::gemm_band(a, 0, &bp, &mut out, m, accumulate);
                        accumulate = true;
                    });
                }
                if !accumulate {
                    out.fill(0.0);
                }
                Tensor::from_vec(out, &[m, n])
            })
            .collect()
    }

    /// Transpose of a rank-2 tensor, copied in 4×4 register blocks so
    /// both the reads and the writes stay within a few cache lines.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transpose(&self) -> Result<Tensor> {
        let (m, n) = check_matrix(self, "transpose")?;
        let mut out = buf::take(m * n);
        kernel::transpose_into(self.data(), n, &mut out, m, m, n);
        Tensor::from_vec(out, &[n, m])
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "mul", |a, b| a * b)
    }

    /// Adds `rhs` into `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, rhs: &Tensor) -> Result<()> {
        if !self.shape().same_as(rhs.shape()) {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        for (a, b) in self.data_mut().iter_mut().zip(rhs.data()) {
            *a += b;
        }
        Ok(())
    }

    /// The SGD step `self -= g · lr`, in place.
    ///
    /// Rounds the product and then the difference, exactly like
    /// `self.sub(&g.scale(lr))`, so the two are bit-identical — without
    /// the two full-size temporaries.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub_scaled_assign(&mut self, g: &Tensor, lr: f32) -> Result<()> {
        if !self.shape().same_as(g.shape()) {
            return Err(shape_mismatch("sub_scaled_assign", self, g));
        }
        for (w, g) in self.data_mut().iter_mut().zip(g.data()) {
            *w -= g * lr;
        }
        Ok(())
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        let mut out = buf::take(self.num_elements());
        for (o, &v) in out.iter_mut().zip(self.data()) {
            *o = f(v);
        }
        Tensor::from_vec(out, self.dims()).expect("map preserves shape")
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.num_elements() == 0 {
            0.0
        } else {
            self.sum() / self.num_elements() as f32
        }
    }

    /// Sums a rank-2 tensor over its rows: `(m,n) → (n,)`.
    ///
    /// This is the reduction used when accumulating weight gradients over a
    /// token batch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn sum_rows(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "sum_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = buf::take_zeroed(n);
        for i in 0..m {
            let row = &self.data()[i * n..(i + 1) * n];
            for (acc, v) in out.iter_mut().zip(row) {
                *acc += v;
            }
        }
        Tensor::from_vec(out, &[n])
    }

    /// Extracts rows `[start, end)` of a rank-2 tensor.
    ///
    /// Used to shard a `(H, M)` weight row-wise across an
    /// expert-sharding-parallel group.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or an invalid range.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "slice_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        if start > end || end > m {
            return Err(TensorError::IndexOutOfBounds {
                index: end,
                bound: m,
            });
        }
        Tensor::from_vec(
            buf::copy_of(&self.data()[start * n..end * n]),
            &[end - start, n],
        )
    }

    /// Extracts columns `[start, end)` of a rank-2 tensor.
    ///
    /// Used to shard a `(M, H)` weight column-wise across an
    /// expert-sharding-parallel group.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or an invalid range.
    pub fn slice_cols(&self, start: usize, end: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "slice_cols",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        if start > end || end > n {
            return Err(TensorError::IndexOutOfBounds {
                index: end,
                bound: n,
            });
        }
        let width = end - start;
        let mut out = buf::take(m * width);
        for (i, row) in out.chunks_mut(width.max(1)).enumerate() {
            row.copy_from_slice(&self.data()[i * n + start..i * n + end]);
        }
        Tensor::from_vec(out, &[m, width])
    }

    pub(crate) fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        rhs: &Tensor,
        op: &'static str,
        f: F,
    ) -> Result<Tensor> {
        if !self.shape().same_as(rhs.shape()) {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        let mut out = buf::take(self.num_elements());
        for (o, (&a, &b)) in out.iter_mut().zip(self.data().iter().zip(rhs.data())) {
            *o = f(a, b);
        }
        Tensor::from_vec(out, self.dims())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(a.matmul(&Tensor::eye(2)).unwrap(), a);
        assert_eq!(Tensor::eye(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        assert!(Tensor::zeros(&[2]).matmul(&a).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.transpose().unwrap(), a);
        assert_eq!(t.at(&[2, 1]).unwrap(), a.at(&[1, 2]).unwrap());
    }

    #[test]
    fn tiled_transpose_handles_ragged_edges() {
        for (m, n) in [(0, 3), (1, 1), (7, 9), (8, 8), (9, 17), (16, 3), (33, 20)] {
            let a = Tensor::from_vec((0..m * n).map(|v| v as f32).collect(), &[m, n]).unwrap();
            let t = a.transpose().unwrap();
            assert_eq!(t.dims(), &[n, m]);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        t.data()[j * m + i],
                        a.data()[i * n + j],
                        "({m},{n}) at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn transposed_forms_check_their_shapes() {
        let a = Tensor::zeros(&[4, 3]);
        assert_eq!(
            a.matmul_nt(&Tensor::zeros(&[5, 3])).unwrap().dims(),
            &[4, 5]
        );
        assert_eq!(
            a.matmul_tn(&Tensor::zeros(&[4, 2])).unwrap().dims(),
            &[3, 2]
        );
        assert!(a.matmul_nt(&Tensor::zeros(&[3, 5])).is_err());
        assert!(a.matmul_tn(&Tensor::zeros(&[3, 2])).is_err());
        assert!(a.matmul_nt(&Tensor::zeros(&[3])).is_err());
        let w = Tensor::zeros(&[2, 3]);
        let seg = |offsets: &[usize]| Segments::from_offsets(offsets);
        let nt = |w: &Tensor, offsets: &[usize]| {
            a.matmul_segments_nt(&[w], &seg(offsets), &seg(offsets), 4)
        };
        assert!(nt(&w, &[0, 4]).is_ok());
        assert!(nt(&w, &[0, 5]).is_err());
        assert!(nt(&Tensor::zeros(&[3, 2]), &[0, 4]).is_err());
        // groups may stop short of the rows: the rest belongs to nobody
        let ones = Tensor::ones(&[4, 3]);
        let short =
            ones.matmul_segments_nt(&[&Tensor::ones(&[2, 3])], &seg(&[0, 3]), &seg(&[0, 3]), 4);
        assert_eq!(short.unwrap().data(), [3., 3., 3., 3., 3., 3., 0., 0.]);
        // both sides must hold as many rows per group
        assert!(a
            .matmul_segments_nt(&[&w], &seg(&[0, 4]), &seg(&[0, 3]), 4)
            .is_err());
        assert!(a
            .matmul_grouped(&[&Tensor::zeros(&[3, 2])], &[1, 4], 1)
            .is_err());
        let tn =
            |g: &Tensor, offsets: &[usize]| a.matmul_segments_tn(g, &seg(offsets), &seg(offsets));
        assert!(tn(&Tensor::zeros(&[4, 2]), &[0, 1, 4]).is_ok());
        assert!(tn(&Tensor::zeros(&[5, 2]), &[0, 4]).is_ok());
        assert!(tn(&Tensor::zeros(&[4, 2]), &[0, 5]).is_err());
        assert!(a
            .matmul_segments_tn(&Tensor::zeros(&[4, 2]), &seg(&[0, 4]), &seg(&[0, 1, 4]))
            .is_err());
    }

    #[test]
    fn segments_cut_groups_into_runs() {
        let mut s = Segments::from_offsets(&[0, 2, 2, 7]);
        s.push_group([(9, 1), (12, 0), (14, 3)]);
        assert_eq!(s.groups(), 4);
        assert_eq!(s.group(3), [(9, 1), (12, 0), (14, 3)]);
        assert_eq!(
            (0..4).map(|g| s.group_rows(g)).collect::<Vec<_>>(),
            [2, 0, 5, 4]
        );
        assert_eq!(s.end(), 17);
        assert_eq!(s.packed(), Segments::from_offsets(&[0, 2, 2, 7, 11]));
        let mut pieces = Vec::new();
        zip_runs(&[(0, 3), (10, 2)], &[(5, 1), (20, 4)], |a, b, len| {
            pieces.push((a, b, len));
        });
        assert_eq!(pieces, [(0, 5, 1), (1, 20, 2), (10, 22, 2)]);
    }

    #[test]
    fn sub_scaled_assign_matches_sub_of_scale_bit_for_bit() {
        let mut rng = crate::TensorRng::seed_from(3);
        let w = rng.normal(&[9, 7], 0.0, 1.0);
        let g = rng.normal(&[9, 7], 0.0, 3.0);
        for lr in [0.5f32, 0.02, 1e-7, 3.0] {
            let mut in_place = w.clone();
            in_place.sub_scaled_assign(&g, lr).unwrap();
            assert_eq!(in_place, w.sub(&g.scale(lr)).unwrap(), "lr={lr}");
        }
        assert!(w
            .clone()
            .sub_scaled_assign(&Tensor::zeros(&[7, 9]), 0.1)
            .is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        let mut c = a.clone();
        c.add_assign(&b).unwrap();
        assert_eq!(c.data(), &[4.0, 7.0]);
    }

    #[test]
    fn elementwise_shape_mismatch() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(a.add(&b).is_err());
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn slicing_rows_and_cols() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]).unwrap();
        let r = a.slice_rows(1, 3).unwrap();
        assert_eq!(r.dims(), &[2, 4]);
        assert_eq!(r.data()[0], 4.0);
        let c = a.slice_cols(1, 3).unwrap();
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 5.0, 6.0, 9.0, 10.0]);
        assert!(a.slice_rows(2, 5).is_err());
        assert!(a.slice_cols(3, 2).is_err());
        assert!(Tensor::zeros(&[3]).slice_cols(0, 1).is_err());
    }

    #[test]
    fn column_shards_reassemble_matmul() {
        // x·W == Σ_s parts where W is column-sharded and parts concatenated:
        // verify (x · W)[:, s-range] == x · W_s
        let x = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let w = Tensor::from_vec((0..12).map(|v| v as f32 * 0.5).collect(), &[3, 4]).unwrap();
        let full = x.matmul(&w).unwrap();
        let left = x.matmul(&w.slice_cols(0, 2).unwrap()).unwrap();
        let right = x.matmul(&w.slice_cols(2, 4).unwrap()).unwrap();
        assert_eq!(full.slice_cols(0, 2).unwrap(), left);
        assert_eq!(full.slice_cols(2, 4).unwrap(), right);
    }

    #[test]
    fn parallel_matmul_bit_identical_to_serial() {
        let mut rng = crate::TensorRng::seed_from(7);
        let b = rng.normal(&[96, 90], 0.0, 1.0);
        let a: Vec<Tensor> = (0..4).map(|_| rng.normal(&[130, 96], 0.0, 1.0)).collect();
        let lone: Vec<Tensor> = a.iter().map(|a| a.matmul(&b).unwrap()).collect();
        for callers in 2..=4 {
            let products = crate::support::at_once(callers, |i| a[i].matmul(&b).unwrap());
            assert_eq!(products, lone[..callers], "{callers} callers");
        }
    }

    #[test]
    fn blocked_kernel_handles_ragged_tile_edges() {
        // dims straddling the microkernel tile sizes by one either way
        for (m, k, n) in [
            (1, 65, 129),
            (3, 63, 127),
            (2, 128, 256),
            (5, 1, 1),
            (7, 257, 17),
        ] {
            let a = Tensor::from_vec((0..m * k).map(|v| (v % 7) as f32 - 3.0).collect(), &[m, k])
                .unwrap();
            let b = Tensor::from_vec((0..k * n).map(|v| (v % 5) as f32 * 0.25).collect(), &[k, n])
                .unwrap();
            let got = a.matmul(&b).unwrap();
            // reference: naive ijk accumulation
            let mut expect = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += a.data()[i * k + kk] * b.data()[kk * n + j];
                    }
                    expect[i * n + j] = acc;
                }
            }
            let expect = Tensor::from_vec(expect, &[m, n]).unwrap();
            assert!(got.allclose(&expect, 1e-4), "({m},{k},{n})");
        }
    }

    #[test]
    fn matmul_with_empty_dims() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 2]);
        assert_eq!(a.matmul(&b).unwrap().dims(), &[0, 2]);
        let c = Tensor::zeros(&[2, 0]);
        let d = Tensor::zeros(&[0, 4]);
        assert_eq!(c.matmul(&d).unwrap(), Tensor::zeros(&[2, 4]));
        let e = Tensor::zeros(&[2, 3]);
        let f = Tensor::zeros(&[3, 0]);
        assert_eq!(e.matmul(&f).unwrap().dims(), &[2, 0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.sum_rows().unwrap().data(), &[4.0, 6.0]);
    }
}
