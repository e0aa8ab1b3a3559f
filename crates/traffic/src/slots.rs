//! Replica-slot rows: per-partition state that is proportional to the
//! partition's replicas, not to the cluster's servers.
//!
//! A partition holds a handful of replicas while the cluster holds
//! dozens to thousands of servers, so a dense `[partition][server]` row
//! is almost all zeros. [`SlotRows`] keeps each row as a short list of
//! slots instead: `N` cells per row stored flat and row-major
//! ([`INLINE_SLOTS`] unless the owner picks another width), and a
//! sorted spill list for the rows that outgrow them. The inline width
//! is fixed — never the largest row — so one flash-crowd partition with
//! dozens of replicas spills alone instead of widening every row.
//!
//! A row's cells are always one contiguous slice, whichever side holds
//! them. A row that has spilled stays spilled until the next
//! [`reshape`](SlotRows::reshape), so a partition that re-renders every
//! epoch reuses its spill allocation.

/// Slots stored inline per row by default.
pub const INLINE_SLOTS: usize = 4;

/// `lens` marker of a row that lives in the spill list.
const SPILLED: u8 = u8::MAX;

/// Variable-length rows of `T` cells: up to `N` inline, spilled when
/// longer. Equality is row content, not layout.
#[derive(Debug, Clone)]
pub struct SlotRows<T, const N: usize = INLINE_SLOTS> {
    /// Per row: its length while inline (`0..=N`), or [`SPILLED`].
    lens: Vec<u8>,
    /// `N` cells per row.
    inline: Vec<T>,
    /// Spilled rows, ascending by row index.
    spill: Vec<(u32, Vec<T>)>,
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SlotRows<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.rows() == other.rows() && (0..self.rows()).all(|r| self.row(r) == other.row(r))
    }
}

impl<T: Copy + Default, const N: usize> Default for SlotRows<T, N> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<T: Copy + Default, const N: usize> SlotRows<T, N> {
    /// `rows` empty rows.
    pub fn new(rows: usize) -> Self {
        const { assert!(N < SPILLED as usize, "inline width collides with the spill marker") };
        let mut s = SlotRows { lens: Vec::new(), inline: Vec::new(), spill: Vec::new() };
        s.reshape(rows);
        s
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.lens.len()
    }

    /// Reshape to `rows` empty rows, reusing the inline allocations.
    pub fn reshape(&mut self, rows: usize) {
        self.lens.clear();
        self.lens.resize(rows, 0);
        self.inline.clear();
        self.inline.resize(rows * N, T::default());
        self.spill.clear();
    }

    /// Append empty rows until there are `rows`, keeping every
    /// existing row as it is.
    pub fn grow(&mut self, rows: usize) {
        if rows > self.lens.len() {
            self.lens.resize(rows, 0);
            self.inline.resize(rows * N, T::default());
        }
    }

    fn spill_index(spill: &[(u32, Vec<T>)], r: usize) -> usize {
        spill.binary_search_by_key(&(r as u32), |(row, _)| *row).expect("spilled row is listed")
    }

    /// Row `r`'s cells.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        match self.lens[r] {
            SPILLED => &self.spill[Self::spill_index(&self.spill, r)].1,
            n => &self.inline[r * N..r * N + n as usize],
        }
    }

    /// Row `r`'s cells, writable.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        match self.lens[r] {
            SPILLED => {
                let i = Self::spill_index(&self.spill, r);
                &mut self.spill[i].1
            }
            n => &mut self.inline[r * N..r * N + n as usize],
        }
    }

    /// Give row `r` exactly `n` cells, every one `T::default()`.
    pub fn reset_row(&mut self, r: usize, n: usize) {
        match self.lens[r] {
            SPILLED => {
                let i = Self::spill_index(&self.spill, r);
                let cells = &mut self.spill[i].1;
                cells.clear();
                cells.resize(n, T::default());
            }
            _ if n <= N => {
                self.lens[r] = n as u8;
                self.inline[r * N..(r + 1) * N].fill(T::default());
            }
            _ => self.spill_row(r, vec![T::default(); n]),
        }
    }

    /// Insert `value` at position `at` of row `r`.
    pub fn insert(&mut self, r: usize, at: usize, value: T) {
        match self.lens[r] {
            SPILLED => {
                let i = Self::spill_index(&self.spill, r);
                self.spill[i].1.insert(at, value);
            }
            n if (n as usize) < N => {
                let cells = &mut self.inline[r * N..(r + 1) * N];
                cells.copy_within(at..n as usize, at + 1);
                cells[at] = value;
                self.lens[r] = n + 1;
            }
            _ => {
                let mut cells = Vec::with_capacity(2 * N);
                cells.extend_from_slice(self.row(r));
                cells.insert(at, value);
                self.spill_row(r, cells);
            }
        }
    }

    /// Keep only the cells of row `r` for which `keep` holds, in order.
    pub fn retain(&mut self, r: usize, mut keep: impl FnMut(&T) -> bool) {
        match self.lens[r] {
            SPILLED => {
                let i = Self::spill_index(&self.spill, r);
                self.spill[i].1.retain(keep);
            }
            n => {
                let cells = &mut self.inline[r * N..r * N + n as usize];
                let mut kept = 0;
                for i in 0..cells.len() {
                    if keep(&cells[i]) {
                        cells[kept] = cells[i];
                        kept += 1;
                    }
                }
                self.lens[r] = kept as u8;
            }
        }
    }

    /// Move inline row `r` to the spill list, holding `cells`.
    fn spill_row(&mut self, r: usize, cells: Vec<T>) {
        let at = self.spill.partition_point(|(row, _)| (*row as usize) < r);
        self.spill.insert(at, (r as u32, cells));
        self.lens[r] = SPILLED;
    }

    /// Bytes of heap the rows hold, by allocation capacity.
    pub fn heap_bytes(&self) -> usize {
        let cell = std::mem::size_of::<T>();
        self.lens.capacity()
            + self.inline.capacity() * cell
            + self.spill.capacity() * std::mem::size_of::<(u32, Vec<T>)>()
            + self.spill.iter().map(|(_, cells)| cells.capacity() * cell).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_grow_inline_then_spill_and_keep_order() {
        let mut rows = SlotRows::<u32>::new(3);
        for v in [50, 10, 30, 20] {
            let at = rows.row(1).partition_point(|&x| x < v);
            rows.insert(1, at, v);
        }
        assert_eq!(rows.row(1), &[10, 20, 30, 50]);
        assert_eq!(rows.spill.len(), 0, "four cells still fit inline");
        rows.insert(1, 4, 60);
        rows.insert(1, 0, 5);
        assert_eq!(rows.row(1), &[5, 10, 20, 30, 50, 60]);
        assert_eq!(rows.spill.len(), 1);
        assert!(rows.row(0).is_empty() && rows.row(2).is_empty(), "neighbours untouched");

        // A spilled row stays spilled when it shrinks, and still reads
        // as one slice.
        rows.reset_row(1, 2);
        assert_eq!(rows.row(1), &[0, 0]);
        assert_eq!(rows.spill.len(), 1);
        rows.row_mut(1)[1] = 7;
        assert_eq!(rows.row(1), &[0, 7]);

        rows.reshape(2);
        assert_eq!(rows.rows(), 2);
        assert!(rows.row(1).is_empty() && rows.spill.is_empty());
    }

    #[test]
    fn narrow_rows_retain_and_grow_in_place() {
        let mut rows = SlotRows::<u32, 2>::new(2);
        rows.insert(0, 0, 1);
        rows.insert(0, 1, 2);
        assert_eq!(rows.spill.len(), 0, "two cells fit a width-2 row");
        rows.insert(0, 2, 3);
        assert_eq!((rows.row(0), rows.spill.len()), (&[1, 2, 3][..], 1));
        rows.retain(0, |&v| v != 2);
        assert_eq!(rows.row(0), &[1, 3], "a spilled row keeps order as it shrinks");
        rows.insert(1, 0, 7);
        rows.insert(1, 1, 8);
        rows.retain(1, |&v| v == 8);
        assert_eq!(rows.row(1), &[8], "an inline row compacts to its front");

        rows.grow(4);
        assert_eq!(rows.rows(), 4);
        assert_eq!((rows.row(0), rows.row(1)), (&[1, 3][..], &[8][..]), "growing keeps rows");
        assert!(rows.row(2).is_empty() && rows.row(3).is_empty());
        rows.grow(3);
        assert_eq!(rows.rows(), 4, "growing never shrinks");
        rows.insert(3, 0, 9);
        assert_eq!(rows.row(3), &[9]);
    }

    #[test]
    fn equality_ignores_layout() {
        let mut spilled = SlotRows::<u32>::new(2);
        for v in 0..6 {
            spilled.insert(0, v, v as u32);
        }
        spilled.reset_row(0, 1);
        let mut inline = SlotRows::<u32>::new(2);
        inline.reset_row(0, 1);
        assert_eq!(spilled, inline);
        inline.row_mut(0)[0] = 1;
        assert_ne!(spilled, inline);
    }
}
