//! Compressed sparse row matrices.

use crate::vecops;
use parallel::Parallelism;
use std::fmt;

/// Below this many rows the parallel kernels run serially: thread
/// hand-off costs more than the row loop saves.
pub const PAR_ROW_THRESHOLD: usize = 512;

/// Incremental row-by-row builder for [`CsrMatrix`].
///
/// ```
/// use sparsela::CsrBuilder;
/// let mut b = CsrBuilder::new(3);
/// b.push_row(&[(0, 1.0), (2, 2.0)]);
/// b.push_row(&[(1, 3.0)]);
/// let a = b.build();
/// assert_eq!(a.shape(), (2, 3));
/// assert_eq!(a.nnz(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    num_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrBuilder {
    /// Starts a builder for a matrix with `num_cols` columns.
    pub fn new(num_cols: usize) -> Self {
        Self {
            num_cols,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Appends one row given `(column, value)` pairs. Zero values are kept
    /// (callers control sparsification). Duplicate columns within a row are
    /// allowed and behave additively under matvec.
    ///
    /// # Panics
    ///
    /// Panics if any column index is out of range.
    pub fn push_row(&mut self, entries: &[(usize, f64)]) {
        for &(c, v) in entries {
            assert!(c < self.num_cols, "column {c} out of range");
            self.col_idx.push(c as u32);
            self.values.push(v);
        }
        self.row_ptr.push(self.col_idx.len());
    }

    /// Number of rows pushed so far.
    pub fn num_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Finalizes the matrix.
    pub fn build(self) -> CsrMatrix {
        CsrMatrix {
            num_cols: self.num_cols,
            row_ptr: self.row_ptr,
            col_idx: self.col_idx,
            values: self.values,
        }
    }
}

/// An immutable sparse matrix in compressed sparse row format.
#[derive(Clone, PartialEq)]
pub struct CsrMatrix {
    num_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// `(rows, cols)` shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.row_ptr.len() - 1, self.num_cols)
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(columns, values)` slices of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Sparse dot product of row `i` with dense `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_cols` or `i` is out of range.
    #[inline]
    pub fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_cols, "row_dot: dimension mismatch");
        let (cols, vals) = self.row(i);
        cols.iter()
            .zip(vals)
            .map(|(&c, &v)| v * x[c as usize])
            .sum()
    }

    /// Squared Euclidean norm of row `i`.
    #[inline]
    pub fn row_norm_sq(&self, i: usize) -> f64 {
        let (_, vals) = self.row(i);
        vecops::norm2_sq(vals)
    }

    /// All squared row norms (the randomized-Kaczmarz sampling weights of
    /// the paper's Eq. (11)).
    pub fn row_norms_sq(&self) -> Vec<f64> {
        (0..self.num_rows()).map(|i| self.row_norm_sq(i)).collect()
    }

    /// Dense matrix-vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        obs::counter_add("sparsela.matvec.calls", 1);
        obs::counter_add("sparsela.matvec.rows", self.num_rows() as u64);
        (0..self.num_rows()).map(|i| self.row_dot(i, x)).collect()
    }

    /// Accumulates `alpha · rowᵢᵀ` into dense `z` (scattered axpy — the
    /// inner operation of stochastic gradient steps).
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != num_cols`.
    #[inline]
    pub fn scatter_row(&self, i: usize, alpha: f64, z: &mut [f64]) {
        assert_eq!(z.len(), self.num_cols, "scatter_row: dimension mismatch");
        let (cols, vals) = self.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            z[c as usize] += alpha * v;
        }
    }

    /// Overwrites the stored values of row `i` in place. The sparsity
    /// pattern is fixed at construction: the caller supplies exactly one
    /// value per stored entry, in stored (column) order. This is the
    /// dirty-row fast path of incremental refits — coefficients move but
    /// the path→gate structure does not, so no rebuild is needed.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `values.len()` differs from the
    /// row's stored entry count.
    pub fn set_row_values(&mut self, i: usize, values: &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        assert_eq!(
            values.len(),
            hi - lo,
            "set_row_values: row {i} stores {} entries",
            hi - lo
        );
        self.values[lo..hi].copy_from_slice(values);
    }

    /// Patches a transpose (a matrix produced by [`Self::transpose`])
    /// after original row `row` changed values: each `(cols[k],
    /// values[k])` pair is the new content of that row, in stored order,
    /// and overwrites the mirrored entry inside transpose row `cols[k]`.
    ///
    /// Within a transpose row the entries are sorted by original row
    /// (the counting sort preserves ascending row order), so each mirror
    /// is found by binary search; duplicate columns within the original
    /// row map to consecutive mirrored entries in their original order.
    /// After patching, the transpose is bit-identical to re-transposing
    /// the patched original.
    ///
    /// # Panics
    ///
    /// Panics if `cols`/`values` disagree in length or any `(row, col)`
    /// entry is not stored in the transpose — i.e. the caller changed
    /// the sparsity pattern, which this fast path forbids.
    pub fn patch_transposed_row(&mut self, row: usize, cols: &[u32], values: &[f64]) {
        assert_eq!(
            cols.len(),
            values.len(),
            "patch_transposed_row: cols/values length mismatch"
        );
        let r = row as u32;
        for (k, (&c, &v)) in cols.iter().zip(values).enumerate() {
            // Duplicate columns in a row are legal (additive under
            // matvec); the k-th duplicate mirrors to the k-th stored
            // occurrence of `row` in transpose row `c`.
            let dup = cols[..k].iter().filter(|&&p| p == c).count();
            let lo = self.row_ptr[c as usize];
            let hi = self.row_ptr[c as usize + 1];
            let first = self.col_idx[lo..hi].partition_point(|&x| x < r);
            let idx = lo + first + dup;
            assert!(
                idx < hi && self.col_idx[idx] == r,
                "patch_transposed_row: entry ({row}, {c}) not stored"
            );
            self.values[idx] = v;
        }
    }

    /// Builds the submatrix of the given rows (in the given order),
    /// together with nothing else — column count is preserved.
    pub fn select_rows(&self, rows: &[usize]) -> CsrMatrix {
        let mut b = CsrBuilder::new(self.num_cols);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for &r in rows {
            let (cols, vals) = self.row(r);
            scratch.clear();
            scratch.extend(cols.iter().zip(vals).map(|(&c, &v)| (c as usize, v)));
            b.push_row(&scratch);
        }
        b.build()
    }

    /// Drops every column no row stores an entry in and renumbers the
    /// rest in ascending order, keeping each row's entries in stored
    /// order. Returns the compacted matrix together with the original
    /// index of each of its columns (ascending).
    pub fn compact_columns(mut self) -> (CsrMatrix, Vec<usize>) {
        const UNUSED: u32 = u32::MAX;
        let mut local = vec![UNUSED; self.num_cols];
        for &c in &self.col_idx {
            local[c as usize] = 0;
        }
        let mut original = Vec::new();
        for (j, l) in local.iter_mut().enumerate() {
            if *l != UNUSED {
                *l = original.len() as u32;
                original.push(j);
            }
        }
        for c in &mut self.col_idx {
            *c = local[*c as usize];
        }
        self.num_cols = original.len();
        (self, original)
    }

    /// Parallel `y = A·x` over row blocks. Row `i` of the result is the
    /// same fixed-order dot product regardless of which thread computes
    /// it, so the output is bit-identical to [`Self::matvec`] for every
    /// thread count. Falls back to the serial loop below
    /// [`PAR_ROW_THRESHOLD`] rows.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_cols`.
    pub fn matvec_par(&self, x: &[f64], par: Parallelism) -> Vec<f64> {
        assert_eq!(x.len(), self.num_cols, "matvec_par: dimension mismatch");
        let m = self.num_rows();
        if par.is_serial() || m < PAR_ROW_THRESHOLD {
            return self.matvec(x);
        }
        obs::counter_add("sparsela.matvec.calls", 1);
        obs::counter_add("sparsela.matvec.rows", m as u64);
        let mut y = vec![0.0; m];
        parallel::par_fill(par, &mut y, |i| self.row_dot(i, x));
        y
    }

    /// The transpose as a new CSR matrix (counting sort over columns,
    /// `O(nnz + cols)`). Within each transpose row, entries keep the
    /// original row order, making transpose-based products reproducible.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has more than `u32::MAX` rows (row indices
    /// become the transpose's column indices).
    pub fn transpose(&self) -> CsrMatrix {
        let (m, n) = self.shape();
        assert!(m <= u32::MAX as usize, "transpose: too many rows");
        let mut row_ptr = vec![0usize; n + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for j in 0..n {
            row_ptr[j + 1] += row_ptr[j];
        }
        let mut cursor = row_ptr[..n].to_vec();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for i in 0..m {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let dst = cursor[c as usize];
                cursor[c as usize] += 1;
                col_idx[dst] = i as u32;
                values[dst] = v;
            }
        }
        CsrMatrix {
            num_cols: m,
            row_ptr,
            col_idx,
            values,
        }
    }
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix({}×{}, nnz={})",
            self.num_rows(),
            self.num_cols,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> CsrMatrix {
        // [1 0 2]
        // [0 3 0]
        // [4 5 6]
        let mut b = CsrBuilder::new(3);
        b.push_row(&[(0, 1.0), (2, 2.0)]);
        b.push_row(&[(1, 3.0)]);
        b.push_row(&[(0, 4.0), (1, 5.0), (2, 6.0)]);
        b.build()
    }

    #[test]
    fn shape_and_rows() {
        let a = small();
        assert_eq!(a.shape(), (3, 3));
        assert_eq!(a.nnz(), 6);
        let (cols, vals) = a.row(2);
        assert_eq!(cols, &[0, 1, 2]);
        assert_eq!(vals, &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(a.matvec(&x), vec![7.0, 6.0, 32.0]);
    }

    #[test]
    fn row_norms() {
        let a = small();
        assert_eq!(a.row_norm_sq(0), 5.0);
        assert_eq!(a.row_norms_sq(), vec![5.0, 9.0, 77.0]);
    }

    #[test]
    fn scatter_row_accumulates() {
        let a = small();
        let mut z = vec![0.0; 3];
        a.scatter_row(2, 2.0, &mut z);
        assert_eq!(z, vec![8.0, 10.0, 12.0]);
        a.scatter_row(0, 1.0, &mut z);
        assert_eq!(z, vec![9.0, 10.0, 14.0]);
    }

    #[test]
    fn select_rows_preserves_content() {
        let a = small();
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.shape(), (2, 3));
        assert_eq!(s.row(0).1, a.row(2).1);
        assert_eq!(s.row(1).1, a.row(0).1);
    }

    #[test]
    fn compact_columns_keeps_touched_columns_in_order() {
        let mut b = CsrBuilder::new(6);
        b.push_row(&[(4, 1.0), (1, 2.0), (4, 3.0)]);
        b.push_row(&[(5, 4.0)]);
        b.push_row(&[]);
        let (c, original) = b.build().compact_columns();
        assert_eq!(original, vec![1, 4, 5]);
        assert_eq!(c.shape(), (3, 3));
        // Entries keep their stored order; only the indices change.
        assert_eq!(c.row(0), (&[1u32, 0, 1][..], &[1.0, 2.0, 3.0][..]));
        assert_eq!(c.row(1), (&[2u32][..], &[4.0][..]));
        assert_eq!(c.row(2).0.len(), 0);
        let (empty, none) = CsrBuilder::new(4).build().compact_columns();
        assert_eq!((empty.shape(), none.len()), ((0, 0), 0));
    }

    #[test]
    fn transpose_round_trips() {
        let a = small();
        let at = a.transpose();
        assert_eq!(at.shape(), (3, 3));
        // Column 0 of A held 1.0 (row 0) and 4.0 (row 2).
        assert_eq!(at.row(0), (&[0u32, 2][..], &[1.0, 4.0][..]));
        assert_eq!(at.transpose(), a);
    }

    #[test]
    fn transpose_handles_empty_columns_and_rows() {
        let mut b = CsrBuilder::new(4);
        b.push_row(&[]);
        b.push_row(&[(2, 7.0)]);
        let a = b.build();
        let at = a.transpose();
        assert_eq!(at.shape(), (4, 2));
        assert_eq!(at.row(0), (&[][..], &[][..]));
        assert_eq!(at.row(2), (&[1u32][..], &[7.0][..]));
        assert_eq!(at.transpose(), a);
    }

    /// A random-ish matrix big enough to cross `PAR_ROW_THRESHOLD`.
    fn large(m: usize, n: usize) -> CsrMatrix {
        let mut b = CsrBuilder::new(n);
        for i in 0..m {
            let c0 = i % n;
            let c1 = (i * 7 + 3) % n;
            let c2 = (i * 13 + 1) % n;
            b.push_row(&[
                (c0, (i % 17) as f64 * 0.37 - 2.0),
                (c1, (i % 5) as f64 + 0.25),
                (c2, 1.0 / (i + 1) as f64),
            ]);
        }
        b.build()
    }

    #[test]
    fn parallel_kernels_are_bit_identical_across_thread_counts() {
        use parallel::Parallelism;
        let a = large(3000, 200);
        let x: Vec<f64> = (0..200).map(|j| (j as f64 * 0.11).sin()).collect();
        let serial = Parallelism::serial();
        for threads in [2, 4] {
            let par = Parallelism::new(threads);
            assert_eq!(a.matvec_par(&x, serial), a.matvec_par(&x, par));
        }
        // The parallel row kernel reuses the per-row serial dots, so it
        // also matches the plain serial entry point exactly.
        assert_eq!(a.matvec_par(&x, Parallelism::new(4)), a.matvec(&x));
    }

    #[test]
    fn set_row_values_overwrites_in_place() {
        let mut a = small();
        a.set_row_values(2, &[7.0, 8.0, 9.0]);
        assert_eq!(a.row(2), (&[0u32, 1, 2][..], &[7.0, 8.0, 9.0][..]));
        // Other rows untouched.
        assert_eq!(a.row(0).1, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "set_row_values: row 1 stores 1 entries")]
    fn set_row_values_rejects_pattern_changes() {
        let mut a = small();
        a.set_row_values(1, &[1.0, 2.0]);
    }

    #[test]
    fn patched_transpose_is_bit_identical_to_fresh_transpose() {
        let a = large(600, 40);
        let mut patched = a.clone();
        let mut at = a.transpose();
        // Rewrite a scattered set of rows, patching the transpose after
        // each, exactly like an incremental refit does.
        for &r in &[0usize, 17, 17, 313, 599] {
            let new_vals: Vec<f64> = a
                .row(r)
                .1
                .iter()
                .enumerate()
                .map(|(k, v)| v * 1.5 + k as f64)
                .collect();
            patched.set_row_values(r, &new_vals);
            let cols = patched.row(r).0.to_vec();
            at.patch_transposed_row(r, &cols, &new_vals);
        }
        assert_eq!(at, patched.transpose());
    }

    #[test]
    fn patched_transpose_handles_duplicate_columns() {
        // Duplicate columns within a row mirror to consecutive transpose
        // entries; patching must keep their original order.
        let mut b = CsrBuilder::new(3);
        b.push_row(&[(1, 1.0), (1, 2.0), (0, 3.0)]);
        b.push_row(&[(1, 4.0)]);
        let mut a = b.build();
        let mut at = a.transpose();
        a.set_row_values(0, &[10.0, 20.0, 30.0]);
        at.patch_transposed_row(0, a.row(0).0, &[10.0, 20.0, 30.0]);
        assert_eq!(at, a.transpose());
        assert_eq!(at.row(1), (&[0u32, 0, 1][..], &[10.0, 20.0, 4.0][..]));
    }

    #[test]
    #[should_panic(expected = "not stored")]
    fn patch_transposed_row_rejects_new_entries() {
        let a = small();
        let mut at = a.transpose();
        // Row 1 of `small` has no column-0 entry.
        at.patch_transposed_row(1, &[0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "column 5 out of range")]
    fn out_of_range_column_panics() {
        let mut b = CsrBuilder::new(3);
        b.push_row(&[(5, 1.0)]);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", small()), "CsrMatrix(3×3, nnz=6)");
    }

    proptest! {
        /// matvec agrees with a dense reference on random sparse matrices.
        #[test]
        fn prop_matvec_matches_dense_reference(
            rows in prop::collection::vec(
                prop::collection::vec((0usize..8, -10.0f64..10.0), 0..6),
                1..10
            ),
            x in prop::collection::vec(-5.0f64..5.0, 8),
        ) {
            let mut b = CsrBuilder::new(8);
            let mut dense = vec![vec![0.0; 8]; rows.len()];
            for (i, row) in rows.iter().enumerate() {
                b.push_row(row);
                for &(c, v) in row {
                    dense[i][c] += v;
                }
            }
            let a = b.build();
            let y = a.matvec(&x);
            for (i, d) in dense.iter().enumerate() {
                let expect: f64 = d.iter().zip(&x).map(|(m, xv)| m * xv).sum();
                prop_assert!((y[i] - expect).abs() < 1e-9);
            }
        }

        /// Aᵀ(A x) computed through the transpose equals the dense
        /// normal-equation product.
        #[test]
        fn prop_transpose_consistent(
            rows in prop::collection::vec(
                prop::collection::vec((0usize..6, -3.0f64..3.0), 1..5),
                1..8
            ),
            x in prop::collection::vec(-2.0f64..2.0, 6),
        ) {
            let mut b = CsrBuilder::new(6);
            for row in &rows {
                b.push_row(row);
            }
            let a = b.build();
            let ax = a.matvec(&x);
            let atax = a.transpose().matvec(&ax);
            // Reference: accumulate dense AᵀA x.
            let mut dense = vec![vec![0.0; 6]; rows.len()];
            for (i, row) in rows.iter().enumerate() {
                for &(c, v) in row {
                    dense[i][c] += v;
                }
            }
            for j in 0..6 {
                let mut expect = 0.0;
                for d in &dense {
                    let r: f64 = d.iter().zip(&x).map(|(m, xv)| m * xv).sum();
                    expect += d[j] * r;
                }
                prop_assert!((atax[j] - expect).abs() < 1e-6);
            }
        }

        /// Row selection preserves per-row dot products.
        #[test]
        fn prop_select_rows_consistent(
            rows in prop::collection::vec(
                prop::collection::vec((0usize..5, -3.0f64..3.0), 0..4),
                2..8
            ),
            x in prop::collection::vec(-2.0f64..2.0, 5),
            pick in prop::collection::vec(0usize..100, 1..6),
        ) {
            let mut b = CsrBuilder::new(5);
            for row in &rows {
                b.push_row(row);
            }
            let a = b.build();
            let picks: Vec<usize> = pick.iter().map(|p| p % a.num_rows()).collect();
            let s = a.select_rows(&picks);
            for (si, &orig) in picks.iter().enumerate() {
                prop_assert!((s.row_dot(si, &x) - a.row_dot(orig, &x)).abs() < 1e-9);
            }
        }
    }
}
