//! A small dense row-major matrix used for the pattern, doping, step and
//! variability matrices of the paper (all of them are `N × M` with `N` the
//! nanowires per half cave and `M` the doping regions per nanowire).
//!
//! The type is intentionally minimal — the decoder matrices are tiny (tens by
//! tens) so no linear-algebra dependency is warranted.

use serde::{Deserialize, Serialize};

use crate::error::{FabricationError, Result};

/// A dense row-major matrix.
///
/// # Examples
///
/// ```
/// use mspt_fabrication::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let m = Matrix::from_rows(vec![vec![1, 2], vec![3, 4]])?;
/// assert_eq!(m.rows(), 2);
/// assert_eq!(*m.get(1, 0)?, 3);
/// assert_eq!(m.column(1), vec![2, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Matrix<T> {
    rows: usize,
    columns: usize,
    data: Vec<T>,
}

impl<T> Matrix<T> {
    /// Creates a matrix from rows.
    ///
    /// # Errors
    ///
    /// Returns [`FabricationError::InvalidMatrixShape`] when there are no
    /// rows, a row is empty, or rows have different lengths.
    pub fn from_rows(rows: Vec<Vec<T>>) -> Result<Self> {
        let row_count = rows.len();
        if row_count == 0 {
            return Err(FabricationError::InvalidMatrixShape {
                reason: "matrix needs at least one row".to_string(),
            });
        }
        let columns = rows[0].len();
        if columns == 0 {
            return Err(FabricationError::InvalidMatrixShape {
                reason: "matrix needs at least one column".to_string(),
            });
        }
        let mut data = Vec::with_capacity(row_count * columns);
        for (index, row) in rows.into_iter().enumerate() {
            if row.len() != columns {
                return Err(FabricationError::InvalidMatrixShape {
                    reason: format!("row {index} has {} elements, expected {columns}", row.len()),
                });
            }
            data.extend(row);
        }
        Ok(Matrix {
            rows: row_count,
            columns,
            data,
        })
    }

    /// Wraps a row-major buffer of `rows × columns` elements, both non-zero:
    /// the crate's builders write their matrices in one buffer.
    pub(crate) fn from_row_major(rows: usize, columns: usize, data: Vec<T>) -> Self {
        debug_assert!(rows > 0 && columns > 0 && data.len() == rows * columns);
        Matrix {
            rows,
            columns,
            data,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Element at `(row, column)`.
    ///
    /// # Errors
    ///
    /// Returns [`FabricationError::IndexOutOfBounds`] when the position is
    /// outside the matrix.
    pub fn get(&self, row: usize, column: usize) -> Result<&T> {
        if row >= self.rows || column >= self.columns {
            return Err(FabricationError::IndexOutOfBounds {
                row,
                column,
                rows: self.rows,
                columns: self.columns,
            });
        }
        Ok(&self.data[row * self.columns + column])
    }

    /// The elements of a row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()`; use [`Matrix::get`] for checked access.
    #[must_use]
    pub fn row(&self, row: usize) -> &[T] {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        &self.data[row * self.columns..(row + 1) * self.columns]
    }

    /// Iterates over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> {
        (0..self.rows).map(move |r| self.row(r))
    }

    /// Iterates over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Applies a function to every element, producing a new matrix of the
    /// same shape.
    #[must_use]
    pub fn map<U, F: FnMut(&T) -> U>(&self, mut f: F) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            columns: self.columns,
            data: self.data.iter().map(&mut f).collect(),
        }
    }

    /// Applies a function to every element together with its position.
    #[must_use]
    pub fn map_indexed<U, F: FnMut(usize, usize, &T) -> U>(&self, mut f: F) -> Matrix<U> {
        let mut data = Vec::with_capacity(self.data.len());
        for r in 0..self.rows {
            for c in 0..self.columns {
                data.push(f(r, c, &self.data[r * self.columns + c]));
            }
        }
        Matrix {
            rows: self.rows,
            columns: self.columns,
            data,
        }
    }
}

impl<T: Clone> Matrix<T> {
    /// Creates a matrix filled with copies of `value`.
    ///
    /// # Errors
    ///
    /// Returns [`FabricationError::InvalidMatrixShape`] when either dimension
    /// is zero.
    pub fn filled(rows: usize, columns: usize, value: T) -> Result<Self> {
        if rows == 0 || columns == 0 {
            return Err(FabricationError::InvalidMatrixShape {
                reason: format!("dimensions {rows}x{columns} must both be positive"),
            });
        }
        Ok(Matrix {
            rows,
            columns,
            data: vec![value; rows * columns],
        })
    }

    /// The elements of a column, copied into a vector.
    #[must_use]
    pub fn column(&self, column: usize) -> Vec<T> {
        (0..self.rows)
            .map(|r| self.data[r * self.columns + column].clone())
            .collect()
    }

    /// Sets the element at `(row, column)`.
    ///
    /// # Errors
    ///
    /// Returns [`FabricationError::IndexOutOfBounds`] when the position is
    /// outside the matrix.
    pub fn set(&mut self, row: usize, column: usize, value: T) -> Result<()> {
        if row >= self.rows || column >= self.columns {
            return Err(FabricationError::IndexOutOfBounds {
                row,
                column,
                rows: self.rows,
                columns: self.columns,
            });
        }
        self.data[row * self.columns + column] = value;
        Ok(())
    }

    /// The rows of the matrix as owned vectors.
    #[must_use]
    pub fn to_rows(&self) -> Vec<Vec<T>> {
        self.iter_rows().map(<[T]>::to_vec).collect()
    }
}

impl Matrix<f64> {
    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Entry-wise 1-norm: the sum of absolute values (`‖·‖₁` in the paper's
    /// Proposition 3).
    #[must_use]
    pub fn entrywise_l1_norm(&self) -> f64 {
        self.data.iter().map(|v| v.abs()).sum()
    }

    /// Largest element.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Arithmetic mean of all elements.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }
}

impl Matrix<usize> {
    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> usize {
        self.data.iter().sum()
    }

    /// Largest element.
    #[must_use]
    pub fn max(&self) -> usize {
        self.data.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_shape() {
        assert!(Matrix::<i32>::from_rows(vec![]).is_err());
        assert!(Matrix::from_rows(vec![Vec::<i32>::new()]).is_err());
        assert!(Matrix::from_rows(vec![vec![1, 2], vec![3]]).is_err());
        assert!(Matrix::filled(0, 3, 1.0).is_err());
        assert!(Matrix::filled(3, 0, 1.0).is_err());
        let m = Matrix::from_rows(vec![vec![1, 2, 3], vec![4, 5, 6]]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.columns(), 3);
    }

    #[test]
    fn access_and_mutation() {
        let mut m = Matrix::filled(2, 2, 0i32).unwrap();
        m.set(0, 1, 7).unwrap();
        assert_eq!(*m.get(0, 1).unwrap(), 7);
        assert!(m.get(2, 0).is_err());
        assert!(m.set(0, 5, 1).is_err());
        assert_eq!(m.row(0), &[0, 7]);
        assert_eq!(m.column(1), vec![7, 0]);
        assert_eq!(m.to_rows(), vec![vec![0, 7], vec![0, 0]]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_access_panics_out_of_bounds() {
        let m = Matrix::filled(2, 2, 0i32).unwrap();
        let _ = m.row(5);
    }

    #[test]
    fn mapping_preserves_shape() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let doubled = m.map(|v| v * 2.0);
        assert_eq!(doubled.row(1), &[6.0, 8.0]);
        let indexed = m.map_indexed(|r, c, v| (r + c) as f64 + v);
        assert_eq!(*indexed.get(1, 1).unwrap(), 6.0);
    }

    #[test]
    fn numeric_reductions() {
        let m = Matrix::from_rows(vec![vec![1.0, -2.0], vec![3.0, -4.0]]).unwrap();
        assert_eq!(m.sum(), -2.0);
        assert_eq!(m.entrywise_l1_norm(), 10.0);
        assert_eq!(m.max(), 3.0);
        assert_eq!(m.mean(), -0.5);

        let u = Matrix::from_rows(vec![vec![1usize, 2], vec![3, 4]]).unwrap();
        assert_eq!(u.sum(), 10);
        assert_eq!(u.max(), 4);
    }

    #[test]
    fn iteration() {
        let m = Matrix::from_rows(vec![vec![1, 2], vec![3, 4]]).unwrap();
        assert_eq!(m.iter().count(), 4);
        assert_eq!(m.iter_rows().count(), 2);
    }
}
