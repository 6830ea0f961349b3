use crate::{buf, Result, Shape, TensorError};

/// A dense, row-major, `f32` tensor.
///
/// This is the numerical workhorse of FSMoE-RS: gating logits, dispatched
/// token buffers, expert weights and activations are all `Tensor`s. The
/// representation is a shape plus a contiguous `Vec<f32>` that the
/// packed, vectorised kernels of this crate read and write in place.
/// The buffer is on loan from the per-thread recycler ([`crate::buf`]):
/// every constructor, `clone` and op output draws from it, dropping the
/// tensor returns it, and [`Tensor::into_vec`] takes it out — so a
/// training step in steady state runs in the previous step's memory
/// instead of allocating.
///
/// ```
/// use tensor::Tensor;
///
/// # fn main() -> Result<(), tensor::TensorError> {
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.data().len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: buf::copy_of(&self.data),
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        buf::give(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when `data.len()` does not
    /// equal the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.num_elements() != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape: dims.to_vec(),
                len: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// A tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor {
            shape,
            data: buf::take_zeroed(n),
        }
    }

    /// A tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        let mut data = buf::take(n);
        data.fill(value);
        Tensor { shape, data }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// A rank-0 tensor holding one value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Axis extents as a slice (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total element count.
    pub fn num_elements(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer (hand it back with
    /// [`buf::give`] or a later [`Tensor::from_vec`] to keep it in
    /// circulation).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index validation errors from [`Shape::offset`].
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index validation errors from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts
    /// differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        Tensor::from_vec(buf::copy_of(&self.data), dims)
    }

    /// In-place reshape (no copy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts
    /// differ.
    pub fn reshape_in_place(&mut self, dims: &[usize]) -> Result<()> {
        let shape = Shape::new(dims);
        if shape.num_elements() != self.data.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape: dims.to_vec(),
                len: self.data.len(),
            });
        }
        self.shape = shape;
        Ok(())
    }

    /// The single value of a rank-0 or single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() requires a single-element tensor, got {}",
            self.shape
        );
        self.data[0]
    }

    /// Extracts row `row` of a rank-2 tensor as a new rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank 2 or `row` is out of
    /// bounds.
    pub fn row(&self, row: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "row",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.dims()[0], self.dims()[1]);
        if row >= r {
            return Err(TensorError::IndexOutOfBounds {
                index: row,
                bound: r,
            });
        }
        Tensor::from_vec(buf::copy_of(&self.data[row * c..(row + 1) * c]), &[c])
    }

    /// Splits the leading axis into `parts` equal chunks.
    ///
    /// Used by the pipelining schedules to cut a batch of tokens into `r`
    /// micro-chunks (paper §4). Trailing chunks absorb the remainder, so
    /// any `parts <= dim0` is valid.
    ///
    /// # Errors
    ///
    /// Returns an error when the tensor is rank 0 or `parts` is 0 or larger
    /// than the leading axis.
    pub fn chunk(&self, parts: usize) -> Result<Vec<Tensor>> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                op: "chunk",
                expected: 1,
                actual: 0,
            });
        }
        let d0 = self.dims()[0];
        if parts == 0 || parts > d0 {
            return Err(TensorError::InvalidK {
                k: parts,
                axis_len: d0,
            });
        }
        let row = self.num_elements() / d0;
        let base = d0 / parts;
        let rem = d0 % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = 0usize;
        for p in 0..parts {
            let rows = base + usize::from(p < rem);
            let mut dims = self.dims().to_vec();
            dims[0] = rows;
            out.push(Tensor::from_vec(
                buf::copy_of(&self.data[start * row..(start + rows) * row]),
                &dims,
            )?);
            start += rows;
        }
        Ok(out)
    }

    /// Concatenates tensors along the leading axis (inverse of [`chunk`]).
    ///
    /// # Errors
    ///
    /// Returns an error when `parts` is empty or trailing dimensions
    /// disagree.
    ///
    /// [`chunk`]: Tensor::chunk
    pub fn cat(parts: &[Tensor]) -> Result<Tensor> {
        let first = parts.first().ok_or(TensorError::ShapeMismatch {
            op: "cat",
            lhs: vec![],
            rhs: vec![],
        })?;
        let tail = &first.dims()[1..];
        if let Some(p) = parts
            .iter()
            .find(|p| p.rank() != first.rank() || &p.dims()[1..] != tail)
        {
            return Err(TensorError::ShapeMismatch {
                op: "cat",
                lhs: first.dims().to_vec(),
                rhs: p.dims().to_vec(),
            });
        }
        let mut data = buf::take(parts.iter().map(Tensor::num_elements).sum());
        let mut filled = 0;
        for p in parts {
            data[filled..filled + p.num_elements()].copy_from_slice(p.data());
            filled += p.num_elements();
        }
        let mut dims = first.dims().to_vec();
        dims[0] = parts.iter().map(|p| p.dims()[0]).sum();
        Tensor::from_vec(data, &dims)
    }

    /// Maximum absolute difference between two tensors of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// `true` when every element differs by at most `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        matches!(self.max_abs_diff(other), Ok(d) if d <= tol)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} elements]", self.data.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_len() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn eye_diagonal() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert_eq!(t.at(&[i, j]).unwrap(), expect);
            }
        }
    }

    #[test]
    fn chunk_cat_round_trip() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[6, 4]).unwrap();
        for parts in 1..=6 {
            let chunks = t.chunk(parts).unwrap();
            assert_eq!(chunks.len(), parts);
            let total: usize = chunks.iter().map(|c| c.dims()[0]).sum();
            assert_eq!(total, 6);
            let back = Tensor::cat(&chunks).unwrap();
            assert_eq!(back, t);
        }
    }

    #[test]
    fn chunk_uneven_distributes_remainder() {
        let t = Tensor::zeros(&[7, 2]);
        let chunks = t.chunk(3).unwrap();
        let sizes: Vec<usize> = chunks.iter().map(|c| c.dims()[0]).collect();
        assert_eq!(sizes, vec![3, 2, 2]);
    }

    #[test]
    fn chunk_rejects_invalid() {
        let t = Tensor::zeros(&[4, 2]);
        assert!(t.chunk(0).is_err());
        assert!(t.chunk(5).is_err());
        assert!(Tensor::scalar(1.0).chunk(1).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn row_extraction() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.row(1).unwrap().data(), &[4.0, 5.0, 6.0]);
        assert!(t.row(2).is_err());
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0005, 2.0], &[2]).unwrap();
        assert!(a.allclose(&b, 1e-3));
        assert!(!a.allclose(&b, 1e-4));
    }

    #[test]
    fn display_compact() {
        let t = Tensor::zeros(&[100]);
        assert!(t.to_string().contains("100 elements"));
    }
}
