//! Dense 2-D arrays.
//!
//! The traffic pass is the simulator's hot loop; all its state is dense
//! `rows × cols` matrices stored flat and row-major. Every user in this
//! crate puts the *partition* on the row axis — up to 10⁶ rows of a few
//! dozen datacenter or server cells each — so everything the pass knows
//! about one partition is one contiguous row, and a sparse epoch that
//! visits a few percent of the partitions touches a few percent of the
//! memory.

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

    #[inline]
    fn idx(&self, r: usize, c: usize) -> usize {
        debug_assert!(
            r < self.rows && c < self.cols,
            "({r},{c}) out of {}×{}",
            self.rows,
            self.cols
        );
        r * self.cols + c
    }

    /// Read one cell.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[self.idx(r, c)]
    }

    /// Write one cell.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        let i = self.idx(r, c);
        self.data[i] = v;
    }

    /// Add to one cell.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        let i = self.idx(r, c);
        self.data[i] += v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Sum of one row.
    pub fn row_sum(&self, r: usize) -> f64 {
        self.row(r).iter().sum()
    }

    /// Reset every cell to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
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
    fn set_add_get() {
        let mut g = Grid::zeros(2, 2);
        g.set(0, 1, 5.0);
        g.add(0, 1, 2.5);
        g.add(1, 0, 1.0);
        assert_eq!(g.get(0, 1), 7.5);
        assert_eq!(g.get(1, 0), 1.0);
        assert_eq!(g.get(0, 0), 0.0);
    }

    #[test]
    fn rows_and_row_sums() {
        let mut g = Grid::zeros(2, 3);
        g.set(0, 0, 1.0);
        g.set(0, 2, 2.0);
        g.set(1, 2, 4.0);
        assert_eq!(g.row(0), &[1.0, 0.0, 2.0]);
        assert_eq!(g.row_sum(0), 3.0);
        assert_eq!(g.row_sum(1), 4.0);
    }

    #[test]
    fn clear_keeps_shape() {
        let mut g = Grid::zeros(2, 2);
        g.set(1, 1, 9.0);
        g.clear();
        assert_eq!(g.row(1), &[0.0, 0.0]);
        assert_eq!(g.rows(), 2);
    }

    #[test]
    fn reset_reshapes_and_zeroes() {
        let mut g = Grid::zeros(2, 2);
        g.set(1, 1, 9.0);
        g.reset(3, 4);
        assert_eq!((g.rows(), g.cols()), (3, 4));
        assert_eq!(g.row_sum(1), 0.0, "the old (1, 1) cell is gone");
        g.set(2, 3, 1.0);
        g.reset(2, 2);
        assert_eq!((g.rows(), g.cols()), (2, 2));
        assert_eq!(g.row_sum(0) + g.row_sum(1), 0.0);
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
    #[cfg(debug_assertions)]
    fn out_of_bounds_panics_in_debug() {
        let g = Grid::zeros(2, 2);
        let _ = g.get(2, 0);
    }
}
