//! Dense 2-D arrays.
//!
//! The traffic pass keeps its per-datacenter state — arrival and
//! forwarding traffic — as dense `rows × cols` matrices stored flat and
//! row-major, with the *partition* on the row axis: up to 10⁶ rows of
//! one cell per datacenter. Everything the pass knows about one
//! partition's datacenters is one contiguous row, and a sparse epoch
//! that visits a few percent of the partitions touches a few percent of
//! the memory. Per-replica state is not dense: it lives in
//! [`SlotRows`](crate::slots::SlotRows), one cell per replica slot.

/// A dense row-major 2-D array of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Grid {
    /// Zero-filled grid.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Grid { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Reshape to `rows × cols` and zero every cell, reusing the
    /// backing allocation when it is already large enough.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Bytes of heap the grid holds, by allocation capacity.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let g = Grid::zeros(3, 4);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.cols(), 4);
        assert!((0..3).all(|r| g.row(r) == [0.0; 4]));
    }

    #[test]
    fn reset_reshapes_and_zeroes() {
        let mut g = Grid::zeros(2, 2);
        g.row_mut(1)[1] = 9.0;
        g.reset(3, 4);
        assert_eq!((g.rows(), g.cols()), (3, 4));
        assert_eq!(g.row(1), &[0.0; 4], "the old (1, 1) cell is gone");
        g.row_mut(2)[3] = 1.0;
        g.reset(2, 2);
        assert_eq!((g.rows(), g.cols()), (2, 2));
        assert!((0..2).all(|r| g.row(r) == [0.0; 2]));
    }

    #[test]
    fn row_mut_writes_through() {
        let mut g = Grid::zeros(2, 3);
        g.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(g.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(g.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_row_panics() {
        let g = Grid::zeros(2, 2);
        let _ = g.row(2);
    }
}
