//! Top-k selection, the core of every MoE routing function.

use crate::{Result, Tensor, TensorError};

/// Result of a row-wise top-k selection.
///
/// For each row of the input, `indices[row]` lists the positions of the `k`
/// largest values in descending value order, and `values[row]` the values
/// themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    /// Selected positions per row, `rows × k`, descending by value.
    pub indices: Vec<Vec<usize>>,
    /// Selected values per row, `rows × k`, descending.
    pub values: Vec<Vec<f32>>,
}

impl TopK {
    /// Number of rows selected over.
    pub fn rows(&self) -> usize {
        self.indices.len()
    }

    /// The `k` used for the selection (0 when there are no rows).
    pub fn k(&self) -> usize {
        self.indices.first().map_or(0, Vec::len)
    }
}

/// The selection order: whether position `a` of `row` ranks before
/// position `b`. Larger values first, ties to the lower index, NaN
/// after everything else.
fn rank_order(row: &[f32], a: usize, b: usize) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (row[a].is_nan(), row[b].is_nan()) {
        (true, true) => a.cmp(&b),
        (true, false) => Ordering::Greater, // NaN is smallest → last
        (false, true) => Ordering::Less,
        (false, false) => row[b]
            .partial_cmp(&row[a])
            .expect("both operands are non-NaN")
            .then(a.cmp(&b)),
    }
}

fn check_k(k: usize, axis_len: usize) -> Result<()> {
    if k == 0 || k > axis_len {
        return Err(TensorError::InvalidK { k, axis_len });
    }
    Ok(())
}

/// Positions of the `k` largest values of `row`, descending by value.
///
/// Ties are broken by preferring the lower index, which makes routing
/// deterministic across ranks — a property the dispatch tests rely on.
///
/// NaN sorts as smaller than every other value (including `-∞`), so NaN
/// positions are selected last and only when `k` leaves no alternative.
/// The previous comparator treated NaN as *equal* to its neighbour,
/// which made the selection depend on the NaN's position in the row.
///
/// # Errors
///
/// Returns [`TensorError::InvalidK`] when `k` is zero or exceeds
/// `row.len()`.
pub fn top_k_indices(row: &[f32], k: usize) -> Result<Vec<usize>> {
    check_k(k, row.len())?;
    let mut idx: Vec<usize> = (0..row.len()).collect();
    idx.sort_by(|&a, &b| rank_order(row, a, b));
    idx.truncate(k);
    Ok(idx)
}

/// [`top_k_indices`] into a caller-owned `selected` (cleared first), by
/// insertion instead of a full sort: one pass over `row`, no allocation
/// once `selected` has held `k` entries. Meant for the small `k` of a
/// token-choice gate — it costs `O(len · k)` in the worst case.
///
/// # Errors
///
/// As [`top_k_indices`].
pub fn top_k_into(row: &[f32], k: usize, selected: &mut Vec<usize>) -> Result<()> {
    check_k(k, row.len())?;
    selected.clear();
    for i in 0..row.len() {
        // `i` is the highest index so far, so it goes after its ties
        let mut at = selected.len();
        while at > 0 && rank_order(row, i, selected[at - 1]).is_lt() {
            at -= 1;
        }
        if at < k {
            selected.truncate(k - 1);
            selected.insert(at, i);
        }
    }
    Ok(())
}

impl Tensor {
    /// Row-wise top-k over the last axis of a rank-2 tensor.
    ///
    /// This implements the paper's `KeepTopK` selection: for the gating
    /// logits of shape `(tokens, experts)` it returns, per token, the `k`
    /// experts with the largest logits.
    ///
    /// # Errors
    ///
    /// Returns an error for non-rank-2 tensors or invalid `k`.
    pub fn top_k(&self, k: usize) -> Result<TopK> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "top_k",
                expected: 2,
                actual: self.rank(),
            });
        }
        let cols = self.dims()[1];
        let mut indices = Vec::with_capacity(self.dims()[0]);
        let mut values = Vec::with_capacity(self.dims()[0]);
        for row in self.data().chunks(cols) {
            let idx = top_k_indices(row, k)?;
            values.push(idx.iter().map(|&i| row[i]).collect());
            indices.push(idx);
        }
        Ok(TopK { indices, values })
    }

    /// The paper's `KeepTopK(v, k)`: keeps the top-k entries of each row,
    /// setting the rest to `-∞` (so a following softmax zeroes them).
    ///
    /// # Errors
    ///
    /// Returns an error for non-rank-2 tensors or invalid `k`, and
    /// [`TensorError::NonFiniteInput`] when any logit is NaN — a NaN
    /// would otherwise be kept as a "largest" value and poison the
    /// downstream softmax probabilities silently.
    pub fn keep_top_k(&self, k: usize) -> Result<Tensor> {
        let cols = self.dims().last().copied().unwrap_or(0);
        if let Some(bad) = self.data().iter().position(|v| v.is_nan()) {
            return Err(TensorError::NonFiniteInput {
                op: "keep_top_k",
                row: bad.checked_div(cols).unwrap_or(0),
            });
        }
        let topk = self.top_k(k)?;
        let cols = self.dims()[1];
        let mut out = Tensor::full(self.dims(), f32::NEG_INFINITY);
        for (r, idx) in topk.indices.iter().enumerate() {
            for &i in idx {
                out.data_mut()[r * cols + i] = self.data()[r * cols + i];
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_indices_descending() {
        let row = [0.1, 0.9, 0.5, 0.7];
        assert_eq!(top_k_indices(&row, 2).unwrap(), vec![1, 3]);
        assert_eq!(top_k_indices(&row, 4).unwrap(), vec![1, 3, 2, 0]);
    }

    #[test]
    fn top_k_tie_break_prefers_lower_index() {
        let row = [0.5, 0.5, 0.5];
        assert_eq!(top_k_indices(&row, 2).unwrap(), vec![0, 1]);
    }

    #[test]
    fn top_k_into_selects_what_the_full_sort_selects() {
        let rows: [&[f32]; 5] = [
            &[0.1, 0.9, 0.5, 0.7],
            &[0.5, 0.5, 0.5, 0.5],
            &[f32::NAN, 1.0, f32::NAN, f32::NEG_INFINITY, 1.0],
            &[-0.0, 0.0, f32::INFINITY, 0.0],
            &[3.0],
        ];
        let mut selected = vec![7; 9]; // stale contents are cleared
        for row in rows {
            for k in 1..=row.len() {
                top_k_into(row, k, &mut selected).unwrap();
                assert_eq!(selected, top_k_indices(row, k).unwrap(), "{row:?} k={k}");
            }
            assert!(top_k_into(row, 0, &mut selected).is_err());
            assert!(top_k_into(row, row.len() + 1, &mut selected).is_err());
        }
    }

    #[test]
    fn top_k_rejects_bad_k() {
        assert!(top_k_indices(&[1.0, 2.0], 0).is_err());
        assert!(top_k_indices(&[1.0, 2.0], 3).is_err());
    }

    #[test]
    fn tensor_top_k_rows() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 2.0, 9.0, 7.0, 8.0], &[2, 3]).unwrap();
        let k = t.top_k(2).unwrap();
        assert_eq!(k.rows(), 2);
        assert_eq!(k.k(), 2);
        assert_eq!(k.indices, vec![vec![1, 2], vec![0, 2]]);
        assert_eq!(k.values, vec![vec![3.0, 2.0], vec![9.0, 8.0]]);
    }

    #[test]
    fn keep_top_k_masks_rest() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 2.0], &[1, 3]).unwrap();
        let masked = t.keep_top_k(1).unwrap();
        assert_eq!(masked.data()[1], 3.0);
        assert_eq!(masked.data()[0], f32::NEG_INFINITY);
        assert_eq!(masked.data()[2], f32::NEG_INFINITY);
        // softmax after keep_top_k puts all mass on the kept expert
        let probs = masked.softmax().unwrap();
        assert_eq!(probs.data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn keep_top_k_requires_rank_2() {
        assert!(Tensor::zeros(&[3]).keep_top_k(1).is_err());
    }

    #[test]
    fn nan_sorts_smallest_and_last_regardless_of_position() {
        // the old comparator returned Equal for NaN pairs, so the
        // selection depended on where the NaN sat in the row
        let front = [f32::NAN, 0.9, 0.1, 0.5];
        let middle = [0.9, f32::NAN, 0.1, 0.5];
        let back = [0.9, 0.1, 0.5, f32::NAN];
        assert_eq!(top_k_indices(&front, 2).unwrap(), vec![1, 3]);
        assert_eq!(top_k_indices(&middle, 2).unwrap(), vec![0, 3]);
        assert_eq!(top_k_indices(&back, 2).unwrap(), vec![0, 2]);
        // NaN loses even to -inf
        assert_eq!(
            top_k_indices(&[f32::NAN, f32::NEG_INFINITY], 1).unwrap(),
            vec![1]
        );
        // NaN only selected when k forces it, lower index first
        assert_eq!(
            top_k_indices(&[f32::NAN, 1.0, f32::NAN], 3).unwrap(),
            vec![1, 0, 2]
        );
    }

    #[test]
    fn keep_top_k_rejects_nan_logits() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, f32::NAN, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(
            t.keep_top_k(1),
            Err(TensorError::NonFiniteInput {
                op: "keep_top_k",
                row: 1
            })
        );
        // infinities are ordered, so they stay legal
        let inf = Tensor::from_vec(vec![f32::INFINITY, 0.0, f32::NEG_INFINITY], &[1, 3]).unwrap();
        assert!(inf.keep_top_k(2).is_ok());
    }
}
