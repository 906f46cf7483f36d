//! The mGBA fitting problem (Eq. (5)–(9) of the paper).
//!
//! # Formulation
//!
//! The paper attaches a weighting factor `x_j` to every gate and fits the
//! weighted GBA path slacks to the golden PBA slacks. Written as the
//! correction form (see DESIGN.md: the weights start at 0 and the optimal
//! solution is sparse around 0, so `x_j` corrects the derate as
//! `λ_j·(1 + x_j)`), the model slack of path `i` is
//!
//! ```text
//! s_i(x)  =  s_gba,i − (A·x)_i ,      a_ij = δ_ij · d_j · λ_j
//! ```
//!
//! and the fit is the constrained least squares of Eq. (5),
//!
//! ```text
//! min ‖s(x) − s_pba‖₂   s.t.  s_i(x) ≤ s_pba,i + ε·|s_pba,i| ,
//! ```
//!
//! which in terms of `r = A·x − b` with `b = s_gba − s_pba` reads
//! `min ‖r‖₂` subject to `(A·x)_i ≥ b_i − ε·|s_pba,i|` — the fitted slack
//! must stay on the pessimistic side of PBA (within tolerance). The
//! constraints are folded into the objective with the one-sided quadratic
//! penalty of Eq. (6).

use netlist::{CellId, CellRole};
use parallel::Parallelism;
use sparsela::{CsrBuilder, CsrMatrix};
use sta::{
    gba_path_timing_batch, gba_path_timing_rows, pba_timing_batch, pba_timing_rows, Path, Sta,
};
use std::sync::OnceLock;

/// The assembled least-squares-with-penalty problem.
#[derive(Debug, Clone)]
pub struct FitProblem {
    a: CsrMatrix,
    /// Lazily cached transpose `Aᵀ` — the deterministic full-gradient
    /// path is a column-parallel product with it.
    at: OnceLock<CsrMatrix>,
    /// Right-hand side `b_i = s_gba,i − s_pba,i` (≤ 0 up to noise: GBA is
    /// never less pessimistic than PBA).
    b: Vec<f64>,
    s_gba: Vec<f64>,
    s_pba: Vec<f64>,
    /// Per-row lower bound on `(A·x)_i` from the Eq. (5) constraint.
    lower: Vec<f64>,
    /// Column → netlist cell mapping.
    columns: Vec<CellId>,
    /// Constraint tolerance `ε` of Eq. (5); kept so dirty-row patching
    /// can recompute `lower` exactly as construction did.
    epsilon: f64,
    penalty: f64,
    /// Thread width of the full-matrix kernels (`objective`, `gradient`,
    /// `model_slacks`, …). Every kernel is bit-identical for every
    /// value, so this only affects wall time.
    par: Parallelism,
}

impl FitProblem {
    /// Builds the problem from an engine (with **zero weights** — the
    /// matrix encodes original-GBA derates) and a set of selected paths.
    ///
    /// # Panics
    ///
    /// Panics if any selected path's gate carries a non-zero weight (the
    /// problem must be assembled against original GBA).
    pub fn build(sta: &Sta, paths: &[Path], epsilon: f64, penalty: f64) -> Self {
        Self::build_par(sta, paths, epsilon, penalty, parallel::global())
    }

    /// [`Self::build`] with an explicit thread width.
    ///
    /// Column discovery stays serial — insertion order defines the
    /// column numbering. Row construction and the per-path GBA/PBA
    /// retimes fan out over `par`; every per-path result is an
    /// independent function of `(sta, path)` written to its own row, so
    /// the assembled problem is identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if any selected path's gate carries a non-zero weight (the
    /// problem must be assembled against original GBA).
    pub fn build_par(
        sta: &Sta,
        paths: &[Path],
        epsilon: f64,
        penalty: f64,
        par: Parallelism,
    ) -> Self {
        let _span = obs::span("build");
        let mut col_of = vec![u32::MAX; sta.netlist().num_cells()];
        let mut columns: Vec<CellId> = Vec::new();
        // First pass: discover the column space — combinational gates on
        // the selected paths plus launching flip-flops (their clock-to-Q
        // arc is a weighted delay unit too, which lets the fit absorb
        // launch-specific CRPR pessimism).
        for p in paths {
            for &c in weighted_cells(p, sta) {
                assert_eq!(
                    sta.gate_weight(c),
                    0.0,
                    "FitProblem must be built against original GBA (zero weights)"
                );
                if col_of[c.index()] == u32::MAX {
                    col_of[c.index()] = u32::try_from(columns.len()).expect("columns fit u32");
                    columns.push(c);
                }
            }
        }
        let pba_t = pba_timing_batch(sta, paths, par);
        let gba_t = gba_path_timing_batch(sta, paths, par);
        let rows = parallel::par_map(par, paths, |p| {
            weighted_cells(p, sta)
                .map(|&c| {
                    (
                        col_of[c.index()] as usize,
                        sta.gate_delay(c) * sta.gate_derate(c),
                    )
                })
                .collect::<Vec<(usize, f64)>>()
        });
        let _assemble_span = obs::span("assemble");
        let mut builder = CsrBuilder::new(columns.len());
        let mut b = Vec::with_capacity(paths.len());
        let mut s_gba = Vec::with_capacity(paths.len());
        let mut s_pba = Vec::with_capacity(paths.len());
        let mut lower = Vec::with_capacity(paths.len());
        for ((row, gba_timing), pba_timing) in rows.iter().zip(&gba_t).zip(&pba_t) {
            builder.push_row(row);
            let gba = gba_timing.slack;
            let pba = pba_timing.slack;
            b.push(gba - pba);
            lower.push((gba - pba) - epsilon * pba.abs());
            s_gba.push(gba);
            s_pba.push(pba);
        }
        let a = builder.build();
        obs::counter_add("mgba.fit.rows", a.num_rows() as u64);
        obs::counter_add("mgba.fit.nnz", a.nnz() as u64);
        Self {
            a,
            at: OnceLock::new(),
            b,
            s_gba,
            s_pba,
            lower,
            columns,
            epsilon,
            penalty,
            par,
        }
    }

    /// Builds a problem from raw parts (testing and synthetic workloads).
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths disagree with the matrix shape.
    pub fn from_parts(
        a: CsrMatrix,
        s_gba: Vec<f64>,
        s_pba: Vec<f64>,
        columns: Vec<CellId>,
        epsilon: f64,
        penalty: f64,
    ) -> Self {
        assert_eq!(a.num_rows(), s_gba.len());
        assert_eq!(a.num_rows(), s_pba.len());
        assert_eq!(a.num_cols(), columns.len());
        let b: Vec<f64> = s_gba.iter().zip(&s_pba).map(|(g, p)| g - p).collect();
        let lower: Vec<f64> = b
            .iter()
            .zip(&s_pba)
            .map(|(bi, pi)| bi - epsilon * pi.abs())
            .collect();
        Self {
            a,
            at: OnceLock::new(),
            b,
            s_gba,
            s_pba,
            lower,
            columns,
            epsilon,
            penalty,
            par: parallel::global(),
        }
    }

    /// Sets the thread width used by the full-matrix kernels (results
    /// are bit-identical for every width).
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// The thread width used by the full-matrix kernels.
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// The sparse path×gate matrix `A`.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.a
    }

    /// The transpose `Aᵀ`, built on first use and cached. Iterative
    /// full-matrix solvers use it for deterministic parallel `Aᵀ·y`
    /// products (each output entry is one fixed-order column dot).
    pub fn matrix_t(&self) -> &CsrMatrix {
        self.at.get_or_init(|| self.a.transpose())
    }

    /// Number of path rows (`m` in the paper).
    pub fn num_paths(&self) -> usize {
        self.a.num_rows()
    }

    /// Number of gate columns (`n` in the paper).
    pub fn num_gates(&self) -> usize {
        self.a.num_cols()
    }

    /// Column → cell mapping.
    pub fn columns(&self) -> &[CellId] {
        &self.columns
    }

    /// Golden PBA slacks of the selected paths.
    pub fn pba_slacks(&self) -> &[f64] {
        &self.s_pba
    }

    /// Original GBA slacks of the selected paths.
    pub fn gba_slacks(&self) -> &[f64] {
        &self.s_gba
    }

    /// Model slack of path `i` under weights `x`: `s_gba,i − (A·x)_i`.
    pub fn model_slack(&self, i: usize, x: &[f64]) -> f64 {
        self.s_gba[i] - self.a.row_dot(i, x)
    }

    /// All model slacks under `x` (row-parallel, order-exact).
    pub fn model_slacks(&self, x: &[f64]) -> Vec<f64> {
        let mut s = vec![0.0; self.num_paths()];
        parallel::par_fill(self.par, &mut s, |i| self.model_slack(i, x));
        s
    }

    /// Penalized objective value of Eq. (6).
    ///
    /// Summed over fixed-size row blocks folded in block order, so the
    /// value is bit-identical for every thread count.
    pub fn objective(&self, x: &[f64]) -> f64 {
        parallel::par_sum(self.par, self.num_paths(), |i| {
            let ax = self.a.row_dot(i, x);
            let r = ax - self.b[i];
            let v = ax - self.lower[i];
            r * r + if v < 0.0 { self.penalty * v * v } else { 0.0 }
        })
    }

    /// Full gradient of the penalized objective.
    pub fn gradient(&self, x: &[f64]) -> Vec<f64> {
        let mut coeffs = Vec::new();
        let mut g = Vec::new();
        self.gradient_into(x, &mut coeffs, &mut g);
        g
    }

    /// Full gradient into caller-owned buffers (no per-call allocation
    /// once the buffers have grown to size — the hot path of the
    /// full-matrix iterative solvers).
    ///
    /// Two deterministic passes: per-row residual coefficients
    /// `c_i = 2(aᵢ·x − b_i) + 2w·min(aᵢ·x − l_i, 0)` fan out over rows,
    /// then `g = Aᵀ·c` fans out over columns of the cached transpose —
    /// each output entry one fixed-order dot product, so the gradient is
    /// bit-identical for every thread count.
    pub fn gradient_into(&self, x: &[f64], coeffs: &mut Vec<f64>, g: &mut Vec<f64>) {
        coeffs.clear();
        coeffs.resize(self.num_paths(), 0.0);
        parallel::par_fill(self.par, coeffs, |i| {
            let ax = self.a.row_dot(i, x);
            let mut c = 2.0 * (ax - self.b[i]);
            let v = ax - self.lower[i];
            if v < 0.0 {
                c += 2.0 * self.penalty * v;
            }
            c
        });
        let at = self.matrix_t();
        g.clear();
        g.resize(self.num_gates(), 0.0);
        parallel::par_fill(self.par, g, |j| at.row_dot(j, coeffs));
    }

    /// Adds row `i`'s gradient contribution into `g` (the kernel of the
    /// stochastic solver).
    #[inline]
    pub fn accumulate_row_gradient(&self, i: usize, x: &[f64], g: &mut [f64]) {
        let ax = self.a.row_dot(i, x);
        let mut coeff = 2.0 * (ax - self.b[i]);
        let v = ax - self.lower[i];
        if v < 0.0 {
            coeff += 2.0 * self.penalty * v;
        }
        self.a.scatter_row(i, coeff, g);
    }

    /// Number of paths violating the Eq. (5) constraint under `x` (the
    /// model is more optimistic than PBA beyond the `ε` tolerance).
    pub fn violations(&self, x: &[f64]) -> usize {
        parallel::par_block_reduce(
            self.par,
            self.num_paths(),
            parallel::REDUCE_BLOCK,
            |range| {
                range
                    .filter(|&i| self.a.row_dot(i, x) < self.lower[i])
                    .count()
            },
            |a, b| a + b,
        )
    }

    /// Modelling squared error of Eq. (12):
    /// `‖s(x) − s_pba‖² / ‖s_pba‖²` (blocked sums, bit-identical for
    /// every thread count; same semantics as `metrics::mse`).
    pub fn mse(&self, x: &[f64]) -> f64 {
        let m = self.num_paths();
        let num = parallel::par_sum(self.par, m, |i| {
            let d = self.model_slack(i, x) - self.s_pba[i];
            d * d
        });
        let den = parallel::par_sum(self.par, m, |i| self.s_pba[i] * self.s_pba[i]);
        if den > 0.0 {
            num / den
        } else if num > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }

    /// Relative error φ of Eq. (10): `‖s(x) − s_pba‖ / ‖s_pba‖`.
    pub fn phi(&self, x: &[f64]) -> f64 {
        self.mse(x).sqrt()
    }

    /// The row-subset subproblem used by Algorithm 1, over only the
    /// columns its rows touch. Returns it with the parent column of each
    /// of its columns, in ascending order; each row keeps its entries in
    /// the parent's order, so a row dot product or scatter over the
    /// gathered iterate performs the parent's arithmetic exactly.
    pub fn subproblem(&self, rows: &[usize]) -> (FitProblem, Vec<usize>) {
        let (a, cols) = self.a.select_rows(rows).compact_columns();
        let sub = FitProblem {
            a,
            at: OnceLock::new(),
            b: rows.iter().map(|&r| self.b[r]).collect(),
            s_gba: rows.iter().map(|&r| self.s_gba[r]).collect(),
            s_pba: rows.iter().map(|&r| self.s_pba[r]).collect(),
            lower: rows.iter().map(|&r| self.lower[r]).collect(),
            columns: cols.iter().map(|&j| self.columns[j]).collect(),
            epsilon: self.epsilon,
            penalty: self.penalty,
            par: self.par,
        };
        (sub, cols)
    }

    /// The row subset over all of the parent's columns, for the dense
    /// reference loops the compacted rounds are checked against.
    #[cfg(test)]
    pub(crate) fn uncompacted_subproblem(&self, rows: &[usize]) -> FitProblem {
        FitProblem {
            a: self.a.select_rows(rows),
            columns: self.columns.clone(),
            ..self.subproblem(rows).0
        }
    }

    /// Row indices whose fit coefficients or slacks may have moved after
    /// an incremental STA update that changed `dirty_cells`
    /// ([`Sta::last_touched`], or its subset [`Sta::last_changed`]),
    /// ascending.
    ///
    /// Row `i` is dirty iff its invalidation set — `paths[i].cells` plus
    /// the launch and capture clock paths, as `index` records them —
    /// intersects `dirty_cells`. The rule is exact because path timing
    /// ([`pba_timing_batch`] / [`gba_path_timing_batch`]) reads only
    /// per-cell cached quantities of those cells: gate delays, slews, and
    /// clock arrivals of the path's own cells, plus clock-network gate
    /// delays through the CRPR credit. `index` must be built over the
    /// path set the problem was built from.
    ///
    /// # Panics
    ///
    /// Panics if `index` covers a different row count.
    pub(crate) fn dirty_rows(&self, index: &RowIndex, dirty_cells: &[CellId]) -> Vec<usize> {
        assert_eq!(
            index.num_rows,
            self.num_paths(),
            "dirty_rows: index must cover the built problem"
        );
        let mut hit = vec![false; index.num_rows];
        for &c in dirty_cells {
            // A cell added after the index was built lies on no row.
            if let Some(w) = index.starts.get(c.index()..c.index() + 2) {
                for &r in &index.rows[w[0] as usize..w[1] as usize] {
                    hit[r as usize] = true;
                }
            }
        }
        (0..hit.len()).filter(|&i| hit[i]).collect()
    }

    /// Rebuilds only the given rows in place after an incremental STA
    /// update, leaving every other row — and the cached transpose entries
    /// of every unchanged row — untouched. The dirty paths are retimed
    /// (GBA and PBA) and their coefficients recomputed with the same
    /// expressions as [`Self::build_par`], so a patched problem is
    /// bit-identical to rebuilding from scratch over the same paths.
    ///
    /// The sparsity pattern is structural (path → weighted cells) and a
    /// resize never alters it; the pattern is asserted unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `paths` differs from the built path set, if any patched
    /// row's weighted cell carries a non-zero weight (patching, like
    /// building, runs against original GBA), or if a row's sparsity
    /// pattern changed.
    pub(crate) fn patch_rows(&mut self, sta: &Sta, paths: &[Path], rows: &[usize]) {
        let _span = obs::span("patch");
        assert_eq!(
            paths.len(),
            self.num_paths(),
            "patch_rows: path set must match the built problem"
        );
        if rows.is_empty() {
            return;
        }
        let pba_t = pba_timing_rows(sta, paths, rows, self.par);
        let gba_t = gba_path_timing_rows(sta, paths, rows, self.par);
        let mut vals = Vec::new();
        for (k, &r) in rows.iter().enumerate() {
            // The row's stored columns name its cells: the pattern holds
            // iff they are the path's weighted cells, in order.
            let (cols, _) = self.a.row(r);
            let mut same = true;
            vals.clear();
            for (e, &c) in weighted_cells(&paths[r], sta).enumerate() {
                assert_eq!(
                    sta.gate_weight(c),
                    0.0,
                    "FitProblem must be patched against original GBA (zero weights)"
                );
                same &= cols.get(e).is_some_and(|&j| self.columns[j as usize] == c);
                vals.push(sta.gate_delay(c) * sta.gate_derate(c));
            }
            assert!(
                same && cols.len() == vals.len(),
                "patch_rows: sparsity pattern changed on row {r}"
            );
            if let Some(at) = self.at.get_mut() {
                at.patch_transposed_row(r, cols, &vals);
            }
            self.a.set_row_values(r, &vals);
            let gba = gba_t[k].slack;
            let pba = pba_t[k].slack;
            self.b[r] = gba - pba;
            self.lower[r] = (gba - pba) - self.epsilon * pba.abs();
            self.s_gba[r] = gba;
            self.s_pba[r] = pba;
        }
        obs::counter_add("mgba.fit.rows_patched", rows.len() as u64);
    }

    /// Expands a column-space solution into a per-cell weight vector of
    /// length `num_cells` (gates not in the column space keep weight 0),
    /// ready for [`Sta::set_weights`].
    pub fn to_cell_weights(&self, x: &[f64], num_cells: usize) -> Vec<f64> {
        assert_eq!(x.len(), self.num_gates(), "solution dimension mismatch");
        let mut w = vec![0.0; num_cells];
        for (j, &cell) in self.columns.iter().enumerate() {
            w[cell.index()] = x[j];
        }
        w
    }
}

fn middle(p: &Path) -> &[CellId] {
    &p.cells[1..p.cells.len().saturating_sub(1).max(1)]
}

/// The cells of a path that carry fit weights: its combinational gates
/// plus the launching flip-flop (if it launches from one).
fn weighted_cells<'a>(p: &'a Path, sta: &'a Sta) -> impl Iterator<Item = &'a CellId> {
    let launch_is_ff = sta.netlist().cell(p.startpoint()).role == CellRole::Sequential;
    p.cells
        .first()
        .into_iter()
        .filter(move |_| launch_is_ff)
        .chain(middle(p))
}

/// Which rows of a fit problem read each cell's timing: row `i` reads
/// the cells of `paths[i]` and of its launch and capture clock paths
/// (the CRPR credit reads clock-cell delays). Built once per selected
/// path set; [`FitProblem::dirty_rows`] answers from it.
#[derive(Debug, Clone)]
pub(crate) struct RowIndex {
    /// `rows[starts[c]..starts[c + 1]]` are the rows reading cell `c`,
    /// ascending.
    starts: Vec<u32>,
    rows: Vec<u32>,
    num_rows: usize,
}

impl RowIndex {
    /// Indexes `paths` (row `i` is `paths[i]`) against `sta`'s clock
    /// paths.
    ///
    /// # Panics
    ///
    /// Panics if there are `u32::MAX` paths or more.
    pub(crate) fn build(sta: &Sta, paths: &[Path]) -> Self {
        assert!(paths.len() < u32::MAX as usize, "row ids fit u32");
        let n = sta.netlist().num_cells();
        // Two passes, counting then filling; `seen` keeps a cell that
        // appears twice in one row (the shared clock prefix) to one entry.
        let mut seen = vec![u32::MAX; n];
        let mut starts = vec![0u32; n + 1];
        for (i, p) in paths.iter().enumerate() {
            for c in row_reads(sta, p) {
                if seen[c] != i as u32 {
                    seen[c] = i as u32;
                    starts[c + 1] += 1;
                }
            }
        }
        for c in 0..n {
            starts[c + 1] += starts[c];
        }
        let mut next = starts[..n].to_vec();
        let mut rows = vec![0u32; starts[n] as usize];
        seen.fill(u32::MAX);
        for (i, p) in paths.iter().enumerate() {
            for c in row_reads(sta, p) {
                if seen[c] != i as u32 {
                    seen[c] = i as u32;
                    rows[next[c] as usize] = i as u32;
                    next[c] += 1;
                }
            }
        }
        Self {
            starts,
            rows,
            num_rows: paths.len(),
        }
    }
}

/// The cell indices path `p`'s timing reads: its own cells, then its
/// launch and capture clock paths.
fn row_reads<'a>(sta: &'a Sta, p: &'a Path) -> impl Iterator<Item = usize> + 'a {
    let (launch, capture) = (sta.clock_path(p.startpoint()), sta.clock_path(p.endpoint));
    p.cells
        .iter()
        .chain(launch)
        .chain(capture)
        .map(|c| c.index())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GeneratorConfig;
    use sta::{select_critical_paths, DerateSet, Sdc};

    fn problem(seed: u64) -> (Sta, Vec<Path>, FitProblem) {
        let n = GeneratorConfig::small(seed).generate();
        let sta = Sta::new(n, Sdc::with_period(1200.0), DerateSet::standard()).unwrap();
        let paths = select_critical_paths(&sta, 5, 400, false);
        let p = FitProblem::build(&sta, &paths, 0.02, 4.0);
        (sta, paths, p)
    }

    #[test]
    fn zero_solution_reproduces_gba() {
        let (_, _, p) = problem(91);
        let x = vec![0.0; p.num_gates()];
        let slacks = p.model_slacks(&x);
        for (m, g) in slacks.iter().zip(p.gba_slacks()) {
            assert!((m - g).abs() < 1e-9, "x = 0 must reproduce GBA slacks");
        }
        // No constraint violations at x = 0 (GBA ≤ PBA slack by
        // construction).
        assert_eq!(p.violations(&x), 0);
    }

    #[test]
    fn rhs_is_nonpositive() {
        let (_, _, p) = problem(92);
        for (g, s) in p.gba_slacks().iter().zip(p.pba_slacks()) {
            assert!(g <= &(s + 1e-9), "GBA slack must not exceed PBA slack");
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (_, _, p) = problem(93);
        let n = p.num_gates();
        let x: Vec<f64> = (0..n).map(|j| -0.01 + 0.0003 * (j % 7) as f64).collect();
        let g = p.gradient(&x);
        let h = 1e-7;
        for j in (0..n).step_by(n.max(13) / 13) {
            let mut xp = x.clone();
            xp[j] += h;
            let mut xm = x.clone();
            xm[j] -= h;
            let fd = (p.objective(&xp) - p.objective(&xm)) / (2.0 * h);
            assert!(
                (g[j] - fd).abs() < 1e-3 * (1.0 + fd.abs()),
                "col {j}: analytic {} vs fd {}",
                g[j],
                fd
            );
        }
    }

    #[test]
    fn objective_decreases_along_negative_gradient() {
        let (_, _, p) = problem(94);
        let x = vec![0.0; p.num_gates()];
        let f0 = p.objective(&x);
        let g = p.gradient(&x);
        let gn: f64 = g.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(gn > 0.0, "x = 0 is not optimal (GBA has pessimism)");
        let step = 1e-6 / gn;
        let x1: Vec<f64> = x.iter().zip(&g).map(|(xi, gi)| xi - step * gi).collect();
        assert!(p.objective(&x1) < f0);
    }

    #[test]
    fn mse_zero_iff_perfect_fit() {
        let (_, _, p) = problem(95);
        let x0 = vec![0.0; p.num_gates()];
        let m0 = p.mse(&x0);
        assert!(m0 > 0.0, "GBA has nonzero error vs PBA");
        assert!((p.phi(&x0) - m0.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn subproblem_selects_rows() {
        let (_, _, p) = problem(96);
        let rows = vec![0, 2, 4];
        let (sub, cols) = p.subproblem(&rows);
        assert_eq!(sub.num_paths(), 3);
        // Only the columns the three rows touch, ascending.
        let mut touched: Vec<usize> = rows
            .iter()
            .flat_map(|&r| p.matrix().row(r).0.iter().map(|&c| c as usize))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        assert_eq!(cols, touched);
        assert_eq!(sub.num_gates(), cols.len());
        assert!(sub.num_gates() < p.num_gates());
        let cells: Vec<CellId> = cols.iter().map(|&j| p.columns()[j]).collect();
        assert_eq!(sub.columns(), &cells[..]);
        // Over the gathered iterate every row is the parent's row, bit
        // for bit.
        let x: Vec<f64> = (0..p.num_gates())
            .map(|j| 0.01 - 0.003 * (j % 7) as f64)
            .collect();
        let local: Vec<f64> = cols.iter().map(|&j| x[j]).collect();
        for (si, &orig) in rows.iter().enumerate() {
            assert_eq!(
                sub.model_slack(si, &local).to_bits(),
                p.model_slack(orig, &x).to_bits()
            );
        }
    }

    #[test]
    fn cell_weights_expand_to_netlist_space() {
        let (sta, _, p) = problem(97);
        let x: Vec<f64> = (0..p.num_gates()).map(|j| -(j as f64) * 1e-4).collect();
        let w = p.to_cell_weights(&x, sta.netlist().num_cells());
        assert_eq!(w.len(), sta.netlist().num_cells());
        for (j, &cell) in p.columns().iter().enumerate() {
            assert_eq!(w[cell.index()], x[j]);
        }
        // All other entries are zero.
        let nonzero = w.iter().filter(|v| **v != 0.0).count();
        assert!(nonzero <= p.num_gates());
    }

    #[test]
    fn violations_fire_when_too_optimistic() {
        let (_, _, p) = problem(98);
        // Hugely negative weights make the model far more optimistic than
        // PBA: constraints must fire.
        let x = vec![-0.9; p.num_gates()];
        assert!(p.violations(&x) > 0);
        // And the penalty makes that objective worse than a mild fit.
        let mild = vec![-0.005; p.num_gates()];
        assert!(p.objective(&x) > p.objective(&mild));
    }

    #[test]
    fn build_and_kernels_bit_identical_across_thread_counts() {
        let n = GeneratorConfig::small(90).generate();
        let sta = Sta::new(n, Sdc::with_period(1200.0), DerateSet::standard()).unwrap();
        let paths = select_critical_paths(&sta, 20, usize::MAX, false);
        assert!(paths.len() > 10);
        let serial = FitProblem::build_par(&sta, &paths, 0.02, 4.0, Parallelism::serial());
        let x: Vec<f64> = (0..serial.num_gates())
            .map(|j| -0.03 + 0.001 * (j % 11) as f64)
            .collect();
        for threads in [2, 4] {
            let par = FitProblem::build_par(&sta, &paths, 0.02, 4.0, Parallelism::new(threads));
            assert_eq!(par.matrix(), serial.matrix(), "threads={threads}");
            assert_eq!(par.gba_slacks(), serial.gba_slacks());
            assert_eq!(par.pba_slacks(), serial.pba_slacks());
            assert_eq!(par.columns(), serial.columns());
            // Full-matrix kernels: bit-identical, not just close.
            assert_eq!(par.objective(&x).to_bits(), serial.objective(&x).to_bits());
            assert_eq!(par.gradient(&x), serial.gradient(&x));
            assert_eq!(par.model_slacks(&x), serial.model_slacks(&x));
            assert_eq!(par.mse(&x).to_bits(), serial.mse(&x).to_bits());
            assert_eq!(par.violations(&x), serial.violations(&x));
        }
    }

    #[test]
    fn gradient_into_reuses_buffers_and_matches_gradient() {
        let (_, _, p) = problem(89);
        let x: Vec<f64> = (0..p.num_gates())
            .map(|j| -0.002 * (j % 5) as f64)
            .collect();
        let mut coeffs = Vec::new();
        let mut g = Vec::new();
        p.gradient_into(&x, &mut coeffs, &mut g);
        assert_eq!(g, p.gradient(&x));
        let cap_c = coeffs.capacity();
        let cap_g = g.capacity();
        p.gradient_into(&x, &mut coeffs, &mut g);
        assert_eq!(coeffs.capacity(), cap_c, "no reallocation on reuse");
        assert_eq!(g.capacity(), cap_g, "no reallocation on reuse");
    }

    #[test]
    fn transpose_cache_matches_fresh_transpose() {
        let (_, _, p) = problem(88);
        assert_eq!(*p.matrix_t(), p.matrix().transpose());
        // Subproblems carry their own (consistent) cache.
        let (sub, _) = p.subproblem(&[0, 1, 3]);
        assert_eq!(*sub.matrix_t(), sub.matrix().transpose());
    }

    /// First combinational gate on a selected path that the library can
    /// upsize, together with the upsized variant.
    fn resizable_on_path(sta: &Sta, paths: &[Path]) -> (CellId, netlist::LibCellId) {
        paths
            .iter()
            .flat_map(|p| p.cells.iter())
            .find_map(|&c| {
                let cell = sta.netlist().cell(c);
                if cell.role == CellRole::Combinational {
                    sta.netlist()
                        .library()
                        .upsized(cell.lib_cell)
                        .map(|up| (c, up))
                } else {
                    None
                }
            })
            .expect("a resizable path gate exists")
    }

    #[test]
    fn patched_rows_equal_fresh_rebuild_bit_for_bit() {
        let (mut sta, paths, mut p) = problem(85);
        // Materialize the transpose cache *before* patching so the patch
        // has to keep it valid entry-by-entry rather than rebuilding it.
        let _ = p.matrix_t();
        let (victim, up) = resizable_on_path(&sta, &paths);
        sta.resize_cell(victim, up).unwrap();
        let touched = sta.last_touched().to_vec();
        let dirty = p.dirty_rows(&RowIndex::build(&sta, &paths), &touched);
        assert!(
            !dirty.is_empty(),
            "resizing a path gate must dirty the rows through it"
        );
        assert!(
            dirty.len() < paths.len(),
            "a single resize must not invalidate every row"
        );
        p.patch_rows(&sta, &paths, &dirty);

        let fresh = FitProblem::build(&sta, &paths, 0.02, 4.0);
        assert_eq!(p.matrix(), fresh.matrix());
        assert_eq!(*p.matrix_t(), fresh.matrix().transpose());
        assert_eq!(p.gba_slacks(), fresh.gba_slacks());
        assert_eq!(p.pba_slacks(), fresh.pba_slacks());
        assert_eq!(p.columns(), fresh.columns());
        // b/lower agree too: the objective folds both, compare its bits
        // at a point with active constraint violations.
        let x: Vec<f64> = (0..p.num_gates())
            .map(|j| -0.2 + 0.01 * (j % 9) as f64)
            .collect();
        assert!(
            p.violations(&x) > 0,
            "probe point must exercise the penalty"
        );
        assert_eq!(p.objective(&x).to_bits(), fresh.objective(&x).to_bits());
        assert_eq!(p.gradient(&x), fresh.gradient(&x));
    }

    #[test]
    fn dirty_rows_empty_when_no_path_cell_is_touched() {
        let (sta, paths, p) = problem(86);
        let index = RowIndex::build(&sta, &paths);
        assert!(p.dirty_rows(&index, &[]).is_empty());
        let on_some_path = |c: CellId| {
            paths.iter().any(|pa| {
                pa.cells.contains(&c)
                    || sta.clock_path(pa.startpoint()).contains(&c)
                    || sta.clock_path(pa.endpoint).contains(&c)
            })
        };
        let off = sta
            .netlist()
            .cells()
            .map(|(id, _)| id)
            .find(|&id| !on_some_path(id))
            .expect("an off-path cell exists");
        assert!(p.dirty_rows(&index, &[off]).is_empty());
        // And patching nothing is a no-op.
        let mut q = p.clone();
        q.patch_rows(&sta, &paths, &[]);
        assert_eq!(q.matrix(), p.matrix());
    }

    /// The rule [`FitProblem::dirty_rows`] implements, by scanning every
    /// path: row `i` is dirty iff its cells or clock paths meet
    /// `dirty_cells`.
    fn dirty_rows_by_scan(sta: &Sta, paths: &[Path], dirty_cells: &[CellId]) -> Vec<usize> {
        let hit = |c: &CellId| dirty_cells.contains(c);
        (0..paths.len())
            .filter(|&i| {
                let p = &paths[i];
                p.cells.iter().any(hit)
                    || sta.clock_path(p.startpoint()).iter().any(hit)
                    || sta.clock_path(p.endpoint).iter().any(hit)
            })
            .collect()
    }

    #[test]
    fn indexed_dirty_rows_match_a_scan_of_every_path() {
        use rand::{Rng, SeedableRng};
        for seed in [81u64, 82, 83] {
            let (sta, paths, p) = problem(seed);
            let index = RowIndex::build(&sta, &paths);
            let n = sta.netlist().num_cells();
            for c in (0..n).map(CellId::new) {
                assert_eq!(
                    p.dirty_rows(&index, &[c]),
                    dirty_rows_by_scan(&sta, &paths, &[c]),
                    "seed {seed}: rows reading cell {c}"
                );
            }
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for k in 0..40 {
                let mut cells: Vec<CellId> = (0..1 + k % 9)
                    .map(|_| CellId::new(rng.random_range(0..n)))
                    .collect();
                cells.sort_unstable_by_key(|c| c.index());
                cells.dedup();
                assert_eq!(
                    p.dirty_rows(&index, &cells),
                    dirty_rows_by_scan(&sta, &paths, &cells),
                    "seed {seed}: cell set {k}"
                );
            }
        }
    }

    #[test]
    fn clock_path_cells_dirty_their_rows() {
        let (sta, paths, p) = problem(87);
        // A clock buffer never appears in `path.cells`, yet its gate
        // delay feeds the CRPR credit and the capture clock arrival: rows
        // whose launch or capture clock path runs through it are dirty.
        let buf = paths
            .iter()
            .find_map(|pa| {
                sta.clock_path(pa.startpoint())
                    .iter()
                    .copied()
                    .find(|&c| sta.netlist().cell(c).role == CellRole::ClockBuffer)
            })
            .expect("a clock buffer feeds some selected launch flip-flop");
        let dirty = p.dirty_rows(&RowIndex::build(&sta, &paths), &[buf]);
        assert!(!dirty.is_empty());
        for (i, pa) in paths.iter().enumerate() {
            let hit = pa.cells.contains(&buf)
                || sta.clock_path(pa.startpoint()).contains(&buf)
                || sta.clock_path(pa.endpoint).contains(&buf);
            assert_eq!(dirty.contains(&i), hit, "row {i}");
        }
    }

    #[test]
    fn coefficients_are_derated_delays() {
        let (sta, paths, p) = problem(99);
        // Row 0's coefficients must equal d_j·λ_j of its weighted cells
        // (combinational gates plus the launch flip-flop, if any).
        let path = &paths[0];
        let (cols, vals) = p.matrix().row(0);
        let launch_is_ff =
            sta.netlist().cell(path.startpoint()).role == netlist::CellRole::Sequential;
        assert_eq!(cols.len(), path.num_gates() + usize::from(launch_is_ff));
        for (&c, &v) in cols.iter().zip(vals) {
            let cell = p.columns()[c as usize];
            let expect = sta.gate_delay(cell) * sta.gate_derate(cell);
            assert!((v - expect).abs() < 1e-9);
        }
    }
}
