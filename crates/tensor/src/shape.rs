use crate::{Result, TensorError};

/// A tensor shape: the extent of each axis, row-major.
///
/// `Shape` is a thin, validated wrapper around `Vec<usize>` so the rest of
/// the crate can rely on consistent stride arithmetic.
///
/// ```
/// use tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.num_elements(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from axis extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// The scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Axis extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total element count (1 for a scalar).
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Extent of axis `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize> {
        self.0
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            })
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank differs from the shape rank or if
    /// any component is out of bounds.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                op: "offset",
                expected: self.rank(),
                actual: index.len(),
            });
        }
        let mut off = 0;
        for (axis, (&i, &d)) in index.iter().zip(&self.0).enumerate() {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds { index: i, bound: d });
            }
            off = off * d + i;
            let _ = axis;
        }
        Ok(off)
    }

    /// `true` when both shapes have identical extents.
    pub fn same_as(&self, other: &Shape) -> bool {
        self.0 == other.0
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::new(&[2, 3, 4]);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let off = s.offset(&[i, j, k]).unwrap();
                    assert!(off < 24);
                    assert!(seen.insert(off), "offsets must be unique");
                }
            }
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn offset_rejects_bad_index() {
        let s = Shape::new(&[2, 3]);
        assert!(s.offset(&[1]).is_err());
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0, 3]).is_err());
    }

    #[test]
    fn scalar_has_one_element() {
        assert_eq!(Shape::scalar().num_elements(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }

    #[test]
    fn dim_bounds() {
        let s = Shape::new(&[7, 9]);
        assert_eq!(s.dim(0).unwrap(), 7);
        assert_eq!(s.dim(1).unwrap(), 9);
        assert!(s.dim(2).is_err());
    }
}
