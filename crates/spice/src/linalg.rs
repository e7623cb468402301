//! Linear algebra for the MNA core: dense LU (reference oracle) and a
//! sparse engine with a reusable symbolic factorization.
//!
//! The sparse path follows the classic analyze / factor / solve split used
//! by production circuit solvers (KLU, SuperLU):
//!
//! * [`SparseMatrix`] — compressed-sparse-row storage built once from the
//!   netlist's stamp pattern; Newton iterations only rewrite `values`.
//! * [`Symbolic`] — a fill-reducing column ordering (greedy minimum degree
//!   on the pattern of `A + Aᵀ`) plus a permuted column view of the CSR
//!   pattern. Computed once per pattern by a process-wide memo
//!   ([`Symbolic::shared`]) and shared across Newton iterations, homotopy
//!   rungs, transient timesteps, Monte Carlo trials, and jobs.
//! * [`SparseLu`] — left-looking Gilbert–Peierls LU with partial pivoting.
//!   All factor/solve workspaces live in the struct and are reused, so a
//!   numeric refactorization performs no steady-state allocation.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::SpiceError;

/// Pivot magnitude below which a matrix is declared singular. Matches the
/// dense path so both solvers fail the same inputs.
const SINGULAR_EPS: f64 = 1e-300;

/// Relative threshold for preferring the diagonal entry as pivot. MNA
/// matrices are close to diagonally dominant; keeping pivots on the
/// diagonal preserves the fill predicted by the symmetric ordering.
const DIAG_PIVOT_TOL: f64 = 0.1;

/// Minimum acceptable ratio of an inherited pivot to its column maximum
/// during a numeric-only refactorization. Newton restamping changes values
/// gradually, so inherited pivots almost always stay acceptable; when one
/// degrades past this threshold the refactorization falls back to a full
/// factorization with fresh partial pivoting.
const REFACTOR_PIVOT_TOL: f64 = 1.0e-3;

/// A dense row-major square matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `n×n` zero matrix.
    pub fn zeros(n: usize) -> Matrix {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reads entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n, "index out of range");
        self.data[row * self.n + col]
    }

    /// Adds `value` to entry `(row, col)` — the MNA stamping primitive.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "index out of range");
        self.data[row * self.n + col] += value;
    }

    /// Resets all entries to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Solves `A·x = b` by LU with partial pivoting. The factorization is
    /// performed in place, destroying the matrix *contents* but keeping the
    /// allocation so callers can [`clear`](Matrix::clear) and restamp.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] when a pivot collapses.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n`.
    pub fn solve(&mut self, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let n = self.n;
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot.
            let mut piv = col;
            let mut best = self.data[col * n + col].abs();
            for row in col + 1..n {
                let v = self.data[row * n + col].abs();
                if v > best {
                    best = v;
                    piv = row;
                }
            }
            if best < SINGULAR_EPS {
                return Err(SpiceError::SingularMatrix);
            }
            if piv != col {
                for k in 0..n {
                    self.data.swap(col * n + k, piv * n + k);
                }
                x.swap(col, piv);
            }
            let diag = self.data[col * n + col];
            for row in col + 1..n {
                let factor = self.data[row * n + col] / diag;
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    let v = self.data[col * n + k];
                    self.data[row * n + k] -= factor * v;
                }
                x[row] -= factor * x[col];
            }
        }
        for col in (0..n).rev() {
            x[col] /= self.data[col * n + col];
            for row in 0..col {
                x[row] -= self.data[row * n + col] * x[col];
            }
        }
        Ok(x)
    }
}

/// A square sparse matrix in compressed-sparse-row form with a *fixed*
/// pattern: the set of nonzero positions is decided at construction and
/// iterations only rewrite values.
///
/// Within each row, column indices are sorted, so [`slot`](SparseMatrix::slot)
/// is a binary search — devices resolve their slots once at plan-build time
/// and afterwards index `values` directly.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds the matrix from a list of `(row, col)` positions. Duplicates
    /// collapse to a single slot; all values start at zero.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn from_entries(
        n: usize,
        entries: impl IntoIterator<Item = (usize, usize)>,
    ) -> SparseMatrix {
        let mut pairs: Vec<(usize, usize)> = entries.into_iter().collect();
        for &(r, c) in &pairs {
            assert!(r < n && c < n, "pattern index out of range");
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut row_ptr = vec![0usize; n + 1];
        for &(r, _) in &pairs {
            row_ptr[r + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let cols: Vec<usize> = pairs.iter().map(|&(_, c)| c).collect();
        let values = vec![0.0; cols.len()];
        SparseMatrix {
            n,
            row_ptr,
            cols,
            values,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Index into [`values`](SparseMatrix::values) for entry `(row, col)`,
    /// or `None` when the position is not part of the pattern. Binary
    /// search within the row — O(log row-degree), not an O(n) scan.
    #[inline]
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        self.cols[lo..hi]
            .binary_search(&col)
            .ok()
            .map(|off| lo + off)
    }

    /// Adds `value` to entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is not part of the pattern.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        let slot = self
            .slot(row, col)
            .expect("stamp outside the matrix pattern");
        self.values[slot] += value;
    }

    /// Reads entry `(row, col)`; positions outside the pattern read as zero.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.slot(row, col).map_or(0.0, |s| self.values[s])
    }

    /// Resets all values to zero, keeping the pattern.
    pub fn clear_values(&mut self) {
        self.values.fill(0.0);
    }

    /// The value array, indexable by [`slot`](SparseMatrix::slot) results.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the value array for in-place restamping.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// True when `other` has the identical sparsity pattern.
    pub fn same_pattern(&self, other: &SparseMatrix) -> bool {
        self.n == other.n && self.row_ptr == other.row_ptr && self.cols == other.cols
    }
}

/// The symbolic half of a sparse LU: a fill-reducing column ordering plus a
/// permuted-column view of a CSR pattern.
///
/// Analysis is the expensive part (minimum-degree is quadratic-ish), so a
/// `Symbolic` is computed once per pattern by [`shared`](Symbolic::shared)
/// and shared — wrapped in an [`Arc`] — across every numeric
/// refactorization of matrices with that pattern: all Newton iterations,
/// every transient timestep, every Monte Carlo trial, and every job of one
/// topology.
#[derive(Debug, PartialEq)]
pub struct Symbolic {
    n: usize,
    /// Pattern fingerprint for [`matches`](Symbolic::matches).
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    /// Column elimination order: step `k` eliminates original column `q[k]`.
    q: Vec<usize>,
    /// Permuted-column view: for step `k`, the entries of `A(:, q[k])` are
    /// `(crow[p], cslot[p])` for `p` in `cptr[k]..cptr[k + 1]`, where
    /// `cslot` indexes the CSR value array.
    cptr: Vec<usize>,
    crow: Vec<usize>,
    cslot: Vec<usize>,
}

impl Symbolic {
    /// Analyzes the pattern of `a`: computes a greedy minimum-degree
    /// ordering on `A + Aᵀ` and caches the permuted column view.
    pub fn analyze(a: &SparseMatrix) -> Symbolic {
        let n = a.n;
        let q = min_degree(n, &a.row_ptr, &a.cols);
        // Build the column view in elimination order.
        let mut col_count = vec![0usize; n];
        for &c in &a.cols {
            col_count[c] += 1;
        }
        let mut pos_of = vec![0usize; n]; // original column -> elimination step
        for (k, &c) in q.iter().enumerate() {
            pos_of[c] = k;
        }
        let mut cptr = vec![0usize; n + 1];
        for k in 0..n {
            cptr[k + 1] = cptr[k] + col_count[q[k]];
        }
        let mut next = cptr.clone();
        let nnz = a.cols.len();
        let mut crow = vec![0usize; nnz];
        let mut cslot = vec![0usize; nnz];
        for row in 0..n {
            for slot in a.row_ptr[row]..a.row_ptr[row + 1] {
                let k = pos_of[a.cols[slot]];
                let p = next[k];
                next[k] += 1;
                crow[p] = row;
                cslot[p] = slot;
            }
        }
        Symbolic {
            n,
            row_ptr: a.row_ptr.clone(),
            cols: a.cols.clone(),
            q,
            cptr,
            crow,
            cslot,
        }
    }

    /// Matrix dimension this symbolic was analyzed for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// True when `a` has exactly the pattern this symbolic was built from —
    /// the precondition for reusing it.
    pub fn matches(&self, a: &SparseMatrix) -> bool {
        self.n == a.n && self.row_ptr == a.row_ptr && self.cols == a.cols
    }

    /// The analysis of `a`'s pattern from a process-wide memo, the one
    /// place that decides when a pattern is analyzed: a retained analysis
    /// if the pattern was seen, else a new one, analyzed with no lock held
    /// and retained under a fixed budget with least-recently-used
    /// eviction. Books `spice.sparse.symbolic_new` / `symbolic_reuse` and
    /// emits the `sparse_symbolic` trace event (`new` / `reuse`).
    pub fn shared(a: &SparseMatrix) -> Arc<Symbolic> {
        let key = pattern_hash(a);
        let hit = lock_memo().get(key, a);
        if let Some(symbolic) = hit {
            fts_telemetry::counter("spice.sparse.symbolic_reuse", 1);
            fts_telemetry::trace::emit("sparse_symbolic", "reuse", 0.0, 0.0);
            return symbolic;
        }
        fts_telemetry::counter("spice.sparse.symbolic_new", 1);
        fts_telemetry::trace::emit("sparse_symbolic", "new", 0.0, 0.0);
        let symbolic = Arc::new(Symbolic::analyze(a));
        lock_memo().insert(key, a, symbolic, SYMBOLIC_MEMO_BUDGET)
    }

    /// What retaining this analysis charges against a memo budget: one
    /// unit per row and per nonzero (24 bytes of index arrays each), plus
    /// 16 for the entry's bookkeeping (under 384 bytes).
    fn charge(&self) -> usize {
        self.n + self.cols.len() + 16
    }
}

/// Budget of the [`Symbolic::shared`] memo in charge units of at most 24
/// bytes each: the memo retains at most 3 MiB.
const SYMBOLIC_MEMO_BUDGET: usize = 1 << 17;

static SYMBOLIC_MEMO: Mutex<SymbolicMemo> = Mutex::new(SymbolicMemo(Vec::new()));

/// Locks the memo. Every update moves, adds or removes a whole entry, so
/// a lock poisoned by a panicking holder is recovered, not propagated.
fn lock_memo() -> MutexGuard<'static, SymbolicMemo> {
    SYMBOLIC_MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

/// FNV-1a over the pattern's words: the memo's lookup key, confirmed by
/// [`Symbolic::matches`].
fn pattern_hash(a: &SparseMatrix) -> u64 {
    std::iter::once(a.n)
        .chain(a.row_ptr.iter().copied())
        .chain(a.cols.iter().copied())
        .fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w as u64).wrapping_mul(0x100_0000_01b3)
        })
}

/// Retained `(pattern hash, analysis)` pairs, least recently used first.
struct SymbolicMemo(Vec<(u64, Arc<Symbolic>)>);

impl SymbolicMemo {
    /// The retained analysis of `a`'s pattern, now most recently used.
    fn get(&mut self, key: u64, a: &SparseMatrix) -> Option<Arc<Symbolic>> {
        let i = self.0.iter().position(|(k, s)| *k == key && s.matches(a))?;
        self.0[i..].rotate_left(1);
        self.0.last().map(|(_, s)| Arc::clone(s))
    }

    /// Retains `symbolic` within `budget`, least recently used analyses
    /// making room, and returns the analysis callers share: one another
    /// thread retained meanwhile wins. One over `budget` is not retained.
    fn insert(
        &mut self,
        key: u64,
        a: &SparseMatrix,
        symbolic: Arc<Symbolic>,
        budget: usize,
    ) -> Arc<Symbolic> {
        if let Some(retained) = self.get(key, a) {
            return retained;
        }
        if symbolic.charge() <= budget {
            self.0.push((key, Arc::clone(&symbolic)));
            let mut retained: usize = self.0.iter().map(|(_, s)| s.charge()).sum();
            while retained > budget {
                retained -= self.0.remove(0).1.charge();
            }
        }
        symbolic
    }
}

/// Greedy minimum-degree ordering on the pattern of `A + Aᵀ`, deterministic
/// ties broken by lowest index. Quadratic in the worst case, which is fine
/// for MNA systems of a few thousand unknowns analyzed once per topology.
fn min_degree(n: usize, row_ptr: &[usize], cols: &[usize]) -> Vec<usize> {
    use std::collections::BTreeSet;
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for r in 0..n {
        for &c in &cols[row_ptr[r]..row_ptr[r + 1]] {
            if r != c {
                adj[r].insert(c);
                adj[c].insert(r);
            }
        }
    }
    let mut alive = vec![true; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n)
            .filter(|&i| alive[i])
            .min_by_key(|&i| (adj[i].len(), i))
            .expect("ordering exhausted live vertices early");
        order.push(v);
        alive[v] = false;
        let neigh: Vec<usize> = adj[v].iter().copied().collect();
        for &u in &neigh {
            adj[u].remove(&v);
        }
        // Eliminating v cliques its neighbourhood (models fill).
        for i in 0..neigh.len() {
            for j in i + 1..neigh.len() {
                let (a, b) = (neigh[i], neigh[j]);
                if adj[a].insert(b) {
                    adj[b].insert(a);
                }
            }
        }
        adj[v].clear();
    }
    order
}

/// Left-looking Gilbert–Peierls sparse LU with partial pivoting.
///
/// `L` and `U` are stored column-wise (in pivot order) in flat vectors that
/// are truncated — never freed — between factorizations, so repeated
/// [`factor`](SparseLu::factor) calls on the same pattern perform no
/// steady-state allocation.
#[derive(Debug)]
pub struct SparseLu {
    symbolic: Arc<Symbolic>,
    // L: unit lower triangular, diagonal entry stored explicitly (1.0).
    lp: Vec<usize>,
    li: Vec<usize>,
    lx: Vec<f64>,
    // U: upper triangular, diagonal stored last in each column.
    up: Vec<usize>,
    ui: Vec<usize>,
    ux: Vec<f64>,
    /// Row permutation: `pinv[original_row] = pivot_position`, -1 while
    /// unpivoted during factorization.
    pinv: Vec<isize>,
    // Workspaces.
    x: Vec<f64>,
    xi: Vec<usize>,
    dfs_stack: Vec<usize>,
    pstack: Vec<usize>,
    marked: Vec<bool>,
    work: Vec<f64>,
    factored: bool,
}

impl SparseLu {
    /// Creates a factorizer bound to a symbolic analysis.
    pub fn new(symbolic: Arc<Symbolic>) -> SparseLu {
        let n = symbolic.n;
        SparseLu {
            symbolic,
            lp: vec![0; n + 1],
            li: Vec::new(),
            lx: Vec::new(),
            up: vec![0; n + 1],
            ui: Vec::new(),
            ux: Vec::new(),
            pinv: vec![-1; n],
            x: vec![0.0; n],
            xi: vec![0; n],
            dfs_stack: vec![0; n],
            pstack: vec![0; n],
            marked: vec![false; n],
            work: vec![0.0; n],
            factored: false,
        }
    }

    /// The symbolic analysis this factorizer uses.
    pub fn symbolic(&self) -> &Arc<Symbolic> {
        &self.symbolic
    }

    /// Nonzeros in `L + U` after the last successful factorization —
    /// the fill-in measure reported by telemetry.
    pub fn factor_nnz(&self) -> usize {
        self.li.len() + self.ui.len()
    }

    /// Numerically factors `a`, whose pattern must match the symbolic.
    ///
    /// The first call runs the full Gilbert–Peierls factorization with
    /// partial pivoting; subsequent calls replay only the numeric updates
    /// against the stored `L`/`U` structure and pivot order (no reach
    /// computation, no pivot search), falling back to a full pivoting
    /// factorization when a reused pivot has degraded past
    /// `REFACTOR_PIVOT_TOL` of its column maximum.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] when no acceptable pivot
    /// exists for some column.
    ///
    /// # Panics
    ///
    /// Panics if `a`'s pattern differs from the symbolic analysis.
    pub fn factor(&mut self, a: &SparseMatrix) -> Result<(), SpiceError> {
        self.factor_values(a, &a.values)
    }

    /// [`factor`](SparseLu::factor) for a one-lane ensemble: its value
    /// array, slot-major at one lane, is factored in place.
    ///
    /// # Errors
    ///
    /// As for [`factor`](SparseLu::factor).
    ///
    /// # Panics
    ///
    /// Panics if `a` has more than one lane or its pattern differs from
    /// the symbolic analysis.
    pub fn factor_lane(&mut self, a: &SparseMatrixEnsemble) -> Result<(), SpiceError> {
        assert_eq!(a.lanes(), 1, "factor_lane takes a one-lane ensemble");
        self.factor_values(a.pattern(), a.values())
    }

    /// Factors the matrix with `pattern`'s structure and `values`, one
    /// value per structural nonzero.
    fn factor_values(&mut self, pattern: &SparseMatrix, values: &[f64]) -> Result<(), SpiceError> {
        assert!(
            self.symbolic.matches(pattern),
            "matrix pattern does not match symbolic analysis"
        );
        if self.factored && self.refactor(values) {
            fts_telemetry::counter("spice.sparse.factor", 1);
            fts_telemetry::counter("spice.sparse.refactor", 1);
            return Ok(());
        }
        self.factor_fresh(values)
    }

    /// Numeric-only refactorization: reuses the previous factorization's
    /// `L`/`U` pattern and row permutation, which are structurally exact
    /// for any matrix with the symbolic's pattern under the same pivot
    /// order. Returns `false` — with the scatter workspace cleaned — when
    /// a pivot degraded and full pivoting must rerun.
    fn refactor(&mut self, values: &[f64]) -> bool {
        let n = self.symbolic.n;
        let sym = Arc::clone(&self.symbolic);
        for k in 0..n {
            // Scatter A(:, q[k]) into pivot-row coordinates.
            for p in sym.cptr[k]..sym.cptr[k + 1] {
                self.x[self.pinv[sym.crow[p]] as usize] = values[sym.cslot[p]];
            }
            // x = L \ A(:, q[k]): the stored U rows of this column are
            // already in topological order, so replaying them in storage
            // order applies every update before its value is consumed.
            let dpos = self.up[k + 1] - 1; // diagonal is stored last
            for t in self.up[k]..dpos {
                let j = self.ui[t];
                let xj = self.x[j];
                self.ux[t] = xj;
                if xj != 0.0 {
                    for p in self.lp[j] + 1..self.lp[j + 1] {
                        self.x[self.li[p]] -= self.lx[p] * xj;
                    }
                }
            }
            let pivot = self.x[k];
            let mut amax = pivot.abs();
            for p in self.lp[k] + 1..self.lp[k + 1] {
                amax = amax.max(self.x[self.li[p]].abs());
            }
            if !(pivot.abs() >= REFACTOR_PIVOT_TOL * amax && amax >= SINGULAR_EPS) {
                // Inherited pivot no longer acceptable (or the column
                // vanished): clean the workspace and redo full pivoting.
                self.x.fill(0.0);
                return false;
            }
            self.ux[dpos] = pivot;
            self.x[k] = 0.0;
            for p in self.lp[k] + 1..self.lp[k + 1] {
                let i = self.li[p];
                self.lx[p] = self.x[i] / pivot;
                self.x[i] = 0.0;
            }
            for t in self.up[k]..dpos {
                self.x[self.ui[t]] = 0.0;
            }
        }
        true
    }

    /// Full Gilbert–Peierls factorization with partial pivoting; also
    /// (re)establishes the `L`/`U` structure [`refactor`](Self::refactor)
    /// replays.
    fn factor_fresh(&mut self, values: &[f64]) -> Result<(), SpiceError> {
        let n = self.symbolic.n;
        let first_factor = !self.factored && self.li.is_empty();
        self.factored = false;
        self.li.clear();
        self.lx.clear();
        self.ui.clear();
        self.ux.clear();
        self.pinv.fill(-1);
        self.x.fill(0.0);
        self.marked.fill(false);
        let sym = Arc::clone(&self.symbolic);
        for k in 0..n {
            self.lp[k] = self.li.len();
            self.up[k] = self.ui.len();
            // Symbolic step: reach of A(:, q[k]) over the graph of L.
            let col_entries = sym.cptr[k]..sym.cptr[k + 1];
            let mut top = n;
            for p in col_entries.clone() {
                let row = sym.crow[p];
                if !self.marked[row] {
                    top = self.dfs(row, top);
                }
            }
            // Numeric step: x = L \ A(:, q[k]), in topological order.
            for p in col_entries {
                self.x[sym.crow[p]] = values[sym.cslot[p]];
            }
            for t in top..n {
                let j = self.xi[t];
                let jnew = self.pinv[j];
                if jnew < 0 {
                    continue;
                }
                let xj = self.x[j];
                if xj != 0.0 {
                    let (start, end) = (self.lp[jnew as usize] + 1, self.lp[jnew as usize + 1]);
                    for p in start..end {
                        self.x[self.li[p]] -= self.lx[p] * xj;
                    }
                }
            }
            // Pivot: largest magnitude among unpivoted rows, preferring the
            // diagonal when it is within DIAG_PIVOT_TOL of the maximum.
            let mut ipiv = usize::MAX;
            let mut amax = -1.0f64;
            for t in top..n {
                let i = self.xi[t];
                if self.pinv[i] < 0 {
                    let v = self.x[i].abs();
                    if v > amax {
                        amax = v;
                        ipiv = i;
                    }
                } else {
                    self.ui.push(self.pinv[i] as usize);
                    self.ux.push(self.x[i]);
                }
            }
            if ipiv == usize::MAX || amax < SINGULAR_EPS {
                // Clean up scatter state before bailing.
                for t in top..n {
                    let i = self.xi[t];
                    self.marked[i] = false;
                    self.x[i] = 0.0;
                }
                return Err(SpiceError::SingularMatrix);
            }
            let orig_col = sym.q[k];
            if self.pinv[orig_col] < 0 && self.x[orig_col].abs() >= amax * DIAG_PIVOT_TOL {
                ipiv = orig_col;
            }
            let pivot = self.x[ipiv];
            self.ui.push(k);
            self.ux.push(pivot);
            self.pinv[ipiv] = k as isize;
            self.li.push(ipiv);
            self.lx.push(1.0);
            for t in top..n {
                let i = self.xi[t];
                if self.pinv[i] < 0 {
                    self.li.push(i);
                    self.lx.push(self.x[i] / pivot);
                }
                self.marked[i] = false;
                self.x[i] = 0.0;
            }
        }
        self.lp[n] = self.li.len();
        self.up[n] = self.ui.len();
        // Remap L's row indices from original to pivot order.
        for idx in self.li.iter_mut() {
            *idx = self.pinv[*idx] as usize;
        }
        self.factored = true;
        fts_telemetry::counter("spice.sparse.factor", 1);
        if first_factor {
            // Fill-in diagnostic, once per workspace: L+U nonzeros for the
            // pattern this LU was analyzed on.
            fts_telemetry::record("spice.sparse.factor_nnz", self.factor_nnz() as f64);
        }
        Ok(())
    }

    /// Depth-first search from `row` over the graph of already-computed `L`
    /// columns; emits the reach into `xi[top..]` in topological order.
    fn dfs(&mut self, row: usize, mut top: usize) -> usize {
        let mut head: usize = 0;
        self.dfs_stack[0] = row;
        loop {
            let j = self.dfs_stack[head];
            let jnew = self.pinv[j];
            if !self.marked[j] {
                self.marked[j] = true;
                self.pstack[head] = if jnew < 0 {
                    0
                } else {
                    // Skip L's unit diagonal entry.
                    self.lp[jnew as usize] + 1
                };
            }
            let mut done = true;
            if jnew >= 0 {
                let end = self.lp[jnew as usize + 1];
                let mut p = self.pstack[head];
                while p < end {
                    let i = self.li[p];
                    if !self.marked[i] {
                        self.pstack[head] = p + 1;
                        head += 1;
                        self.dfs_stack[head] = i;
                        done = false;
                        break;
                    }
                    p += 1;
                }
                if !done {
                    continue;
                }
            }
            if done {
                top -= 1;
                self.xi[top] = j;
                if head == 0 {
                    break;
                }
                head -= 1;
            }
        }
        top
    }

    /// Solves `A·x = b` in place using the last factorization.
    ///
    /// # Panics
    ///
    /// Panics when called before a successful [`factor`](SparseLu::factor)
    /// or with a mismatched length.
    pub fn solve_in_place(&mut self, b: &mut [f64]) {
        assert!(self.factored, "solve before successful factor");
        let n = self.symbolic.n;
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Apply row permutation: work = P·b.
        for (i, &bi) in b.iter().enumerate() {
            self.work[self.pinv[i] as usize] = bi;
        }
        // Forward substitution, L unit-diagonal.
        for k in 0..n {
            let xk = self.work[k];
            if xk != 0.0 {
                for p in self.lp[k] + 1..self.lp[k + 1] {
                    self.work[self.li[p]] -= self.lx[p] * xk;
                }
            }
        }
        // Backward substitution; U's diagonal is the last entry per column.
        for k in (0..n).rev() {
            let end = self.up[k + 1];
            let xk = self.work[k] / self.ux[end - 1];
            self.work[k] = xk;
            if xk != 0.0 {
                for p in self.up[k]..end - 1 {
                    self.work[self.ui[p]] -= self.ux[p] * xk;
                }
            }
        }
        // Undo column permutation: x[q[k]] = work[k].
        for k in 0..n {
            b[self.symbolic.q[k]] = self.work[k];
        }
        fts_telemetry::counter("spice.sparse.solve", 1);
    }

    /// Convenience: factor `a` and solve for `b`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] when factorization fails.
    pub fn factor_solve(&mut self, a: &SparseMatrix, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
        self.factor(a)?;
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        Ok(x)
    }
}

/// A structure-of-arrays ensemble of sparse matrices: one shared CSR
/// pattern and `lanes` independent value sets stored lane-minor, so the
/// `lanes` values of one structural nonzero are contiguous at
/// `values[slot * lanes ..][..lanes]`.
///
/// This is the container behind the ensemble Monte Carlo path: K trials of
/// the same lattice topology stamp K MNA matrices into one allocation and
/// [`EnsembleLu`] factors and solves all lanes in lockstep, amortizing the
/// pattern, ordering, and LU structure work that the scalar path repeats
/// per trial.
#[derive(Debug, Clone)]
pub struct SparseMatrixEnsemble {
    pattern: SparseMatrix,
    lanes: usize,
    values: Vec<f64>,
}

impl SparseMatrixEnsemble {
    /// Wraps a pattern with `lanes` zero-initialized value lanes. The
    /// pattern's own value array is ignored; only its structure is used.
    ///
    /// # Panics
    ///
    /// Panics when `lanes == 0`.
    pub fn new(pattern: SparseMatrix, lanes: usize) -> SparseMatrixEnsemble {
        assert!(lanes > 0, "an ensemble needs at least one lane");
        let values = vec![0.0; pattern.nnz() * lanes];
        SparseMatrixEnsemble {
            pattern,
            lanes,
            values,
        }
    }

    /// Matrix dimension (shared by every lane).
    pub fn n(&self) -> usize {
        self.pattern.n()
    }

    /// Structural nonzeros per lane.
    pub fn nnz(&self) -> usize {
        self.pattern.nnz()
    }

    /// Number of value lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The shared sparsity pattern.
    pub fn pattern(&self) -> &SparseMatrix {
        &self.pattern
    }

    /// Resizes the ensemble to `lanes` value lanes, zeroing all values.
    ///
    /// # Panics
    ///
    /// Panics when `lanes == 0`.
    pub fn set_lanes(&mut self, lanes: usize) {
        assert!(lanes > 0, "an ensemble needs at least one lane");
        self.lanes = lanes;
        self.values.clear();
        self.values.resize(self.pattern.nnz() * lanes, 0.0);
    }

    /// The lane-minor value array: slot `s` of lane `l` lives at
    /// `s * lanes + l`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable lane-minor value array for in-place restamping.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Resets all lanes to zero, keeping the pattern and lane count.
    pub fn clear_values(&mut self) {
        self.values.fill(0.0);
    }

    /// Copies one lane's values into `dst`, which must have `nnz` slots —
    /// the slot-major layout a scalar [`SparseLu`] consumes.
    ///
    /// # Panics
    ///
    /// Panics on a lane or length mismatch.
    pub fn gather_lane(&self, lane: usize, dst: &mut [f64]) {
        assert!(lane < self.lanes, "lane out of range");
        assert_eq!(dst.len(), self.pattern.nnz(), "lane length mismatch");
        for (slot, out) in dst.iter_mut().enumerate() {
            *out = self.values[slot * self.lanes + lane];
        }
    }
}

/// Lane-batched numeric LU over a [`SparseMatrixEnsemble`].
///
/// One *skeleton* lane is factored with the full pivoting machinery of
/// [`SparseLu`]; the resulting `L`/`U` structure and pivot order are
/// value-independent facts about the pattern, so every other lane replays
/// only the numeric updates against them — the same replay the scalar
/// refactorization performs, but over contiguous lane chunks the
/// autovectorizer turns into SIMD.
///
/// Lanes whose inherited pivot degrades past `REFACTOR_PIVOT_TOL` are
/// *retired* (their `alive` flag cleared) rather than failing the batch;
/// the caller re-runs retired lanes through the scalar path, which can
/// re-pivot for that lane's values.
#[derive(Debug)]
pub struct EnsembleLu {
    skeleton: SparseLu,
    scratch: Option<SparseMatrix>,
    lanes: usize,
    /// Lane-minor numeric `L`, parallel to the skeleton's `li`.
    lx_lanes: Vec<f64>,
    /// Lane-minor numeric `U`, parallel to the skeleton's `ui`.
    ux_lanes: Vec<f64>,
    /// Lane-minor scatter workspace, `n * lanes`.
    x: Vec<f64>,
    /// Lane-minor solve workspace, `n * lanes`.
    work: Vec<f64>,
    /// One-column lane buffer that breaks aliasing in the update loops.
    xj: Vec<f64>,
    /// Tentative live mask for the replay pass, committed only when no
    /// lane failed under a stale pivot order.
    alive_scratch: Vec<bool>,
    factored: bool,
}

impl EnsembleLu {
    /// Creates an ensemble factorizer bound to a symbolic analysis.
    pub fn new(symbolic: Arc<Symbolic>) -> EnsembleLu {
        EnsembleLu {
            skeleton: SparseLu::new(symbolic),
            scratch: None,
            lanes: 0,
            lx_lanes: Vec::new(),
            ux_lanes: Vec::new(),
            x: Vec::new(),
            work: Vec::new(),
            xj: Vec::new(),
            alive_scratch: Vec::new(),
            factored: false,
        }
    }

    /// The symbolic analysis this factorizer uses.
    pub fn symbolic(&self) -> &Arc<Symbolic> {
        &self.skeleton.symbolic
    }

    /// Factors every live lane of `a` in lockstep.
    ///
    /// The skeleton structure — `L`/`U` pattern and pivot order — is
    /// established once from the first live lane via [`SparseLu::factor`]
    /// (full pivot search) and then *reused across calls*: in steady
    /// state every call is a single lane-batched numeric replay, with a
    /// per-lane pivot-acceptance test policing degradation exactly as the
    /// scalar numeric refactorization does. Only when a live lane fails
    /// acceptance under the inherited pivot order does the skeleton
    /// re-pivot (from the first still-live lane) and replay once more; a
    /// lane that still fails is retired in place — `alive[lane]` is
    /// cleared and its factors hold unusable values — without disturbing
    /// the other lanes.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] when every live lane's
    /// skeleton factorization fails (all lanes are retired on return).
    ///
    /// # Panics
    ///
    /// Panics when `a`'s pattern differs from the symbolic analysis or
    /// `alive.len() != a.lanes()`.
    pub fn factor(
        &mut self,
        a: &SparseMatrixEnsemble,
        alive: &mut [bool],
    ) -> Result<(), SpiceError> {
        assert!(
            self.skeleton.symbolic.matches(a.pattern()),
            "ensemble pattern does not match symbolic analysis"
        );
        assert_eq!(alive.len(), a.lanes(), "alive mask length mismatch");
        self.factored = false;
        let l = a.lanes();
        self.lanes = l;
        let fresh = !self.skeleton.factored;
        if fresh {
            self.repivot(a, alive)?;
        }
        let mut tentative = std::mem::take(&mut self.alive_scratch);
        tentative.clear();
        tentative.extend_from_slice(alive);
        let clean = self.replay(a, &mut tentative);
        if clean || fresh {
            // No acceptance failures (or the pivot order is brand new, in
            // which case a failing lane is genuinely degenerate): commit.
            alive.copy_from_slice(&tentative);
        } else {
            // A lane failed under an inherited pivot order that may simply
            // be stale: re-pivot from the first still-live lane and replay
            // once more before retiring anyone.
            self.repivot(a, alive)?;
            self.replay(a, alive);
        }
        self.alive_scratch = tentative;
        self.factored = true;
        fts_telemetry::counter("spice.ensemble.factor", 1);
        Ok(())
    }

    /// (Re)establishes the skeleton structure — `L`/`U` pattern and pivot
    /// order — from the first live lane, retiring lanes whose scalar
    /// factorization is singular.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] when no live lane factors.
    fn repivot(&mut self, a: &SparseMatrixEnsemble, alive: &mut [bool]) -> Result<(), SpiceError> {
        let scratch = match &mut self.scratch {
            Some(s) if s.same_pattern(a.pattern()) => s,
            slot => slot.insert(a.pattern().clone()),
        };
        for (lane, live) in alive.iter_mut().enumerate().take(a.lanes()) {
            if !*live {
                continue;
            }
            a.gather_lane(lane, scratch.values_mut());
            match self.skeleton.factor(scratch) {
                Ok(()) => return Ok(()),
                Err(_) => *live = false,
            }
        }
        Err(SpiceError::SingularMatrix)
    }

    /// Lane-batched numeric replay of every live lane against the
    /// skeleton structure. Lanes failing the pivot-acceptance test are
    /// retired in `alive`. Returns `true` when no lane was retired.
    fn replay(&mut self, a: &SparseMatrixEnsemble, alive: &mut [bool]) -> bool {
        let l = a.lanes();
        let n = self.skeleton.symbolic.n;
        let sym = Arc::clone(&self.skeleton.symbolic);
        let (lp, li, up, ui, pinv) = (
            &self.skeleton.lp,
            &self.skeleton.li,
            &self.skeleton.up,
            &self.skeleton.ui,
            &self.skeleton.pinv,
        );
        // `lx`/`ux` are fully overwritten below and `x` is restored to
        // all-zeros by the per-column zero-clean, so none of them is
        // re-zeroed on reuse — resizing only when the shape changes keeps
        // the hot path free of O(nnz·lanes) memsets.
        if self.lx_lanes.len() != li.len() * l {
            self.lx_lanes.clear();
            self.lx_lanes.resize(li.len() * l, 0.0);
        }
        if self.ux_lanes.len() != ui.len() * l {
            self.ux_lanes.clear();
            self.ux_lanes.resize(ui.len() * l, 0.0);
        }
        if self.x.len() != n * l {
            self.x.clear();
            self.x.resize(n * l, 0.0);
        }
        if self.xj.len() != l {
            self.xj.clear();
            self.xj.resize(l, 0.0);
        }
        let (x, lx, ux, xj) = (
            &mut self.x,
            &mut self.lx_lanes,
            &mut self.ux_lanes,
            &mut self.xj,
        );

        let mut clean = true;
        for k in 0..n {
            // Scatter A(:, q[k]) of every lane into pivot-row coordinates.
            for p in sym.cptr[k]..sym.cptr[k + 1] {
                let dst = pinv[sym.crow[p]] as usize * l;
                let src = sym.cslot[p] * l;
                x[dst..dst + l].copy_from_slice(&a.values()[src..src + l]);
            }
            // x = L \ A(:, q[k]) per lane: the stored U rows are in
            // topological order, exactly as the scalar refactorization
            // replays them. No zero-skip — branchless lane chunks instead.
            let dpos = up[k + 1] - 1; // diagonal is stored last
            for t in up[k]..dpos {
                let j = ui[t];
                xj.copy_from_slice(&x[j * l..j * l + l]);
                ux[t * l..t * l + l].copy_from_slice(xj);
                for p in lp[j] + 1..lp[j + 1] {
                    let row = &mut x[li[p] * l..li[p] * l + l];
                    let lrow = &lx[p * l..p * l + l];
                    for lane in 0..l {
                        row[lane] -= lrow[lane] * xj[lane];
                    }
                }
            }
            // Per-lane pivot acceptance; a failed lane is retired but its
            // (garbage) arithmetic continues — NaN/Inf stay in the lane.
            for (lane, live) in alive.iter_mut().enumerate() {
                if !*live {
                    continue;
                }
                let pivot = x[k * l + lane];
                let mut amax = pivot.abs();
                for p in lp[k] + 1..lp[k + 1] {
                    amax = amax.max(x[li[p] * l + lane].abs());
                }
                if !(pivot.abs() >= REFACTOR_PIVOT_TOL * amax && amax >= SINGULAR_EPS) {
                    *live = false;
                    clean = false;
                }
            }
            let (drow, xrow) = (&mut ux[dpos * l..dpos * l + l], &x[k * l..k * l + l]);
            drow.copy_from_slice(xrow);
            for p in lp[k] + 1..lp[k + 1] {
                let base = li[p] * l;
                for lane in 0..l {
                    lx[p * l + lane] = x[base + lane] / drow[lane];
                }
            }
            // Zero-clean the scatter, column by column as the scalar does.
            x[k * l..k * l + l].fill(0.0);
            for p in lp[k] + 1..lp[k + 1] {
                x[li[p] * l..li[p] * l + l].fill(0.0);
            }
            for t in up[k]..dpos {
                x[ui[t] * l..ui[t] * l + l].fill(0.0);
            }
        }
        clean
    }

    /// Solves `A·x = b` in place for every lane at once. `b` is lane-minor
    /// (`n * lanes` values, unknown-major). Retired lanes produce garbage
    /// in their own chunk only; callers must ignore them.
    ///
    /// # Panics
    ///
    /// Panics when called before a successful [`factor`](EnsembleLu::factor)
    /// or with a mismatched length.
    pub fn solve_in_place(&mut self, b: &mut [f64]) {
        assert!(self.factored, "solve before successful factor");
        let n = self.skeleton.symbolic.n;
        let l = self.lanes;
        assert_eq!(b.len(), n * l, "rhs length mismatch");
        // Fully overwritten by the row permutation below — no re-zeroing.
        if self.work.len() != n * l {
            self.work.clear();
            self.work.resize(n * l, 0.0);
        }
        let (lp, li, up, ui, pinv) = (
            &self.skeleton.lp,
            &self.skeleton.li,
            &self.skeleton.up,
            &self.skeleton.ui,
            &self.skeleton.pinv,
        );
        let (work, lx, ux, xj) = (&mut self.work, &self.lx_lanes, &self.ux_lanes, &mut self.xj);
        // Apply row permutation: work = P·b, lane chunks at a time.
        for i in 0..n {
            let dst = pinv[i] as usize * l;
            work[dst..dst + l].copy_from_slice(&b[i * l..i * l + l]);
        }
        // Forward substitution, L unit-diagonal, branchless over lanes.
        for k in 0..n {
            xj.copy_from_slice(&work[k * l..k * l + l]);
            for p in lp[k] + 1..lp[k + 1] {
                let row = &mut work[li[p] * l..li[p] * l + l];
                let lrow = &lx[p * l..p * l + l];
                for lane in 0..l {
                    row[lane] -= lrow[lane] * xj[lane];
                }
            }
        }
        // Backward substitution; U's diagonal is the last entry per column.
        for k in (0..n).rev() {
            let end = self.skeleton.up[k + 1];
            {
                let drow = &ux[(end - 1) * l..end * l];
                let row = &mut work[k * l..k * l + l];
                for lane in 0..l {
                    row[lane] /= drow[lane];
                }
                xj.copy_from_slice(row);
            }
            for t in up[k]..end - 1 {
                let row = &mut work[ui[t] * l..ui[t] * l + l];
                let urow = &ux[t * l..t * l + l];
                for lane in 0..l {
                    row[lane] -= urow[lane] * xj[lane];
                }
            }
        }
        // Undo column permutation: x[q[k]] = work[k].
        for k in 0..n {
            let src = k * l;
            let dst = self.skeleton.symbolic.q[k] * l;
            b[dst..dst + l].copy_from_slice(&work[src..src + l]);
        }
        fts_telemetry::counter("spice.ensemble.solve", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let mut m = Matrix::zeros(3);
        for i in 0..3 {
            m.add(i, i, 1.0);
        }
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_with_pivoting() {
        // First pivot is zero — requires a row swap.
        let mut m = Matrix::zeros(2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 2.0);
        let x = m.solve(&[3.0, 4.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn random_roundtrip() {
        let n = 12;
        let mut m = Matrix::zeros(n);
        let mut state = 1u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut dense = vec![0.0; n * n];
        for r in 0..n {
            for c in 0..n {
                let v = next();
                dense[r * n + c] = v;
                m.add(r, c, v);
            }
            m.add(r, r, 3.0); // diagonally dominant
            dense[r * n + r] += 3.0;
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 4.0).collect();
        let b: Vec<f64> = (0..n)
            .map(|r| (0..n).map(|c| dense[r * n + c] * x_true[c]).sum())
            .collect();
        let x = m.solve(&b).unwrap();
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-9, "x[{i}]");
        }
    }

    #[test]
    fn detects_singularity() {
        let mut m = Matrix::zeros(2);
        m.add(0, 0, 1.0);
        m.add(0, 1, 2.0);
        m.add(1, 0, 2.0);
        m.add(1, 1, 4.0);
        assert_eq!(m.solve(&[1.0, 2.0]), Err(SpiceError::SingularMatrix));
    }

    #[test]
    fn dense_solve_allows_reuse_after_clear() {
        let mut m = Matrix::zeros(2);
        m.add(0, 0, 2.0);
        m.add(1, 1, 4.0);
        let x = m.solve(&[2.0, 4.0]).unwrap();
        assert_eq!(x, vec![1.0, 1.0]);
        // The same allocation is restamped and solved again.
        m.clear();
        m.add(0, 0, 1.0);
        m.add(1, 1, 1.0);
        let x = m.solve(&[5.0, 6.0]).unwrap();
        assert_eq!(x, vec![5.0, 6.0]);
    }

    #[test]
    fn sparse_pattern_slots() {
        let m = SparseMatrix::from_entries(3, vec![(0, 0), (0, 2), (1, 1), (2, 0), (2, 2), (0, 0)]);
        assert_eq!(m.nnz(), 5, "duplicate entries collapse");
        assert!(m.slot(0, 0).is_some());
        assert!(m.slot(0, 1).is_none());
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn sparse_add_get() {
        let mut m = SparseMatrix::from_entries(2, vec![(0, 0), (1, 1), (0, 1)]);
        m.add(0, 1, 2.5);
        m.add(0, 1, 0.5);
        assert_eq!(m.get(0, 1), 3.0);
        m.clear_values();
        assert_eq!(m.get(0, 1), 0.0);
    }

    fn dense_and_sparse_random(n: usize, seed: u64, density: f64) -> (Matrix, SparseMatrix) {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut entries = Vec::new();
        let mut vals = Vec::new();
        for r in 0..n {
            for c in 0..n {
                if r == c || next() < density {
                    let v = if r == c { 4.0 + next() } else { next() - 0.5 };
                    entries.push((r, c));
                    vals.push(v);
                }
            }
        }
        let mut dense = Matrix::zeros(n);
        let mut sparse = SparseMatrix::from_entries(n, entries.clone());
        for (&(r, c), &v) in entries.iter().zip(&vals) {
            dense.add(r, c, v);
            sparse.add(r, c, v);
        }
        (dense, sparse)
    }

    #[test]
    fn sparse_lu_matches_dense() {
        for seed in 1..6u64 {
            let n = 20;
            let (mut dense, sparse) = dense_and_sparse_random(n, seed, 0.15);
            let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let sym = Arc::new(Symbolic::analyze(&sparse));
            let mut lu = SparseLu::new(sym);
            let xs = lu.factor_solve(&sparse, &b).unwrap();
            let xd = dense.solve(&b).unwrap();
            for i in 0..n {
                assert!(
                    (xs[i] - xd[i]).abs() < 1e-9,
                    "seed {seed} x[{i}]: sparse {} dense {}",
                    xs[i],
                    xd[i]
                );
            }
        }
    }

    #[test]
    fn sparse_refactor_reuses_symbolic() {
        let n = 16;
        let (_, mut sparse) = dense_and_sparse_random(n, 7, 0.2);
        let sym = Arc::new(Symbolic::analyze(&sparse));
        let mut lu = SparseLu::new(Arc::clone(&sym));
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let x1 = lu.factor_solve(&sparse, &b).unwrap();
        // Rewrite values in place (scale by 2): solution halves exactly.
        for v in sparse.values_mut() {
            *v *= 2.0;
        }
        let x2 = lu.factor_solve(&sparse, &b).unwrap();
        for i in 0..n {
            assert!((x2[i] - x1[i] / 2.0).abs() < 1e-12);
        }
        assert!(sym.matches(&sparse));
    }

    #[test]
    fn refactor_matches_full_factorization() {
        // Same pattern, independently drawn values: the numeric-only
        // refactorization must reproduce a from-scratch factorization.
        let n = 20;
        let (_, first) = dense_and_sparse_random(n, 11, 0.2);
        let sym = Arc::new(Symbolic::analyze(&first));
        let mut reused = SparseLu::new(Arc::clone(&sym));
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        reused.factor_solve(&first, &b).unwrap();
        // New values on the identical pattern (seed only changes values
        // when the pattern is regenerated identically — perturb instead).
        let mut second = first.clone();
        for (k, v) in second.values_mut().iter_mut().enumerate() {
            *v += 0.01 * ((k % 13) as f64 - 6.0);
        }
        let x_refactor = reused.factor_solve(&second, &b).unwrap();
        let mut fresh = SparseLu::new(Arc::clone(&sym));
        let x_fresh = fresh.factor_solve(&second, &b).unwrap();
        for i in 0..n {
            assert!(
                (x_refactor[i] - x_fresh[i]).abs() < 1e-12,
                "x[{i}]: refactor {} fresh {}",
                x_refactor[i],
                x_fresh[i]
            );
        }
    }

    #[test]
    fn refactor_pivot_degradation_falls_back() {
        // First factorization pivots on a healthy diagonal; the second
        // matrix zeroes that pivot, so the inherited order is unusable and
        // factor() must transparently redo full pivoting.
        let entries = vec![(0, 0), (0, 1), (1, 0), (1, 1)];
        let mut m = SparseMatrix::from_entries(2, entries);
        m.add(0, 0, 4.0);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 4.0);
        let sym = Arc::new(Symbolic::analyze(&m));
        let mut lu = SparseLu::new(sym);
        lu.factor_solve(&m, &[1.0, 1.0]).unwrap();
        m.clear_values();
        m.add(0, 0, 1.0e-15);
        m.add(0, 1, 1.0);
        m.add(1, 0, 2.0);
        m.add(1, 1, 1.0e-15);
        // Near-antidiagonal system: x ≈ [b1/2, b0].
        let x = lu.factor_solve(&m, &[3.0, 4.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        // And the workspace stays healthy for further refactorizations.
        m.clear_values();
        m.add(0, 0, 4.0);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 4.0);
        let x = lu.factor_solve(&m, &[5.0, 5.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_zero_pivot_needs_permutation() {
        // [[0, 1], [2, 0]] — structurally fine, but the (0,0) pivot is zero
        // so factorization must permute rows.
        let mut m = SparseMatrix::from_entries(2, vec![(0, 1), (1, 0)]);
        m.add(0, 1, 1.0);
        m.add(1, 0, 2.0);
        let sym = Arc::new(Symbolic::analyze(&m));
        let mut lu = SparseLu::new(sym);
        let x = lu.factor_solve(&m, &[3.0, 4.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_detects_singularity() {
        // Duplicate rows.
        let mut m = SparseMatrix::from_entries(2, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        m.add(0, 0, 1.0);
        m.add(0, 1, 2.0);
        m.add(1, 0, 2.0);
        m.add(1, 1, 4.0);
        let sym = Arc::new(Symbolic::analyze(&m));
        let mut lu = SparseLu::new(sym);
        assert_eq!(lu.factor(&m), Err(SpiceError::SingularMatrix));
        // A matrix with an empty column is structurally singular.
        let empty_col = SparseMatrix::from_entries(2, vec![(0, 0), (1, 0)]);
        let sym = Arc::new(Symbolic::analyze(&empty_col));
        let mut lu = SparseLu::new(sym);
        assert_eq!(lu.factor(&empty_col), Err(SpiceError::SingularMatrix));
    }

    #[test]
    fn min_degree_avoids_arrow_matrix_fill() {
        // Arrow matrix: dense first row/column + diagonal. Eliminating the
        // hub (vertex 0) first fills the matrix completely; minimum degree
        // defers it until its degree collapses, so LU has zero fill-in.
        let n = 8;
        let mut entries = vec![];
        let mut m = SparseMatrix::from_entries(
            n,
            (0..n).flat_map(|i| {
                if i == 0 {
                    vec![(0, 0)]
                } else {
                    vec![(i, i), (0, i), (i, 0)]
                }
            }),
        );
        for i in 0..n {
            m.add(i, i, 4.0);
            if i > 0 {
                m.add(0, i, 1.0);
                m.add(i, 0, 1.0);
                entries.push(i);
            }
        }
        let sym = Symbolic::analyze(&m);
        assert!(sym.q.iter().position(|&v| v == 0).unwrap() >= n - 2);
        let mut lu = SparseLu::new(Arc::new(sym));
        lu.factor(&m).unwrap();
        assert_eq!(lu.factor_nnz(), m.nnz() + n, "no fill-in beyond L∪U");
    }

    /// Builds an ensemble from per-lane diagonally dominant value sets on
    /// one shared random pattern, returning the ensemble and the per-lane
    /// scalar matrices it was filled from.
    fn random_ensemble(
        n: usize,
        lanes: usize,
        seed: u64,
        density: f64,
    ) -> (SparseMatrixEnsemble, Vec<SparseMatrix>) {
        let (_, pattern) = dense_and_sparse_random(n, seed, density);
        let mut ens = SparseMatrixEnsemble::new(pattern.clone(), lanes);
        let mut scalars = Vec::new();
        let mut state = seed ^ 0xA5A5_A5A5;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for lane in 0..lanes {
            let mut m = pattern.clone();
            m.clear_values();
            for slot in 0..m.nnz() {
                // Keep the diagonal dominant so every lane's partial pivot
                // lands on the diagonal — the regime the ensemble targets.
                let row = (0..n).find(|&r| m.row_ptr[r + 1] > slot).unwrap();
                let v = if m.cols[slot] == row {
                    4.0 + next()
                } else {
                    next() - 0.5
                };
                m.values_mut()[slot] = v;
                ens.values_mut()[slot * lanes + lane] = v;
            }
            scalars.push(m);
        }
        (ens, scalars)
    }

    #[test]
    fn ensemble_lu_matches_per_lane_scalar() {
        for &lanes in &[1usize, 3, 4, 8] {
            let n = 20;
            let (ens, scalars) = random_ensemble(n, lanes, 42 + lanes as u64, 0.15);
            let sym = Arc::new(Symbolic::analyze(ens.pattern()));
            let mut elu = EnsembleLu::new(Arc::clone(&sym));
            let mut alive = vec![true; lanes];
            elu.factor(&ens, &mut alive).unwrap();
            assert!(alive.iter().all(|&a| a), "no lane should retire");
            // One RHS per lane, lane-minor.
            let mut b = vec![0.0; n * lanes];
            for i in 0..n {
                for lane in 0..lanes {
                    b[i * lanes + lane] = (i as f64 + 1.0) * 0.3 - lane as f64;
                }
            }
            let mut x = b.clone();
            elu.solve_in_place(&mut x);
            for (lane, scalar) in scalars.iter().enumerate() {
                let mut lu = SparseLu::new(Arc::clone(&sym));
                let bl: Vec<f64> = (0..n).map(|i| b[i * lanes + lane]).collect();
                let xs = lu.factor_solve(scalar, &bl).unwrap();
                for i in 0..n {
                    assert!(
                        (x[i * lanes + lane] - xs[i]).abs() < 1e-12,
                        "lanes {lanes} lane {lane} x[{i}]: ensemble {} scalar {}",
                        x[i * lanes + lane],
                        xs[i]
                    );
                }
            }
        }
    }

    #[test]
    fn ensemble_refactor_on_second_round_stays_pinned() {
        // Second factor of the same EnsembleLu goes through the skeleton's
        // numeric refactorization path; results must stay pinned to the
        // per-lane scalar solves.
        let (n, lanes) = (18, 4);
        let (mut ens, mut scalars) = random_ensemble(n, lanes, 7, 0.2);
        let sym = Arc::new(Symbolic::analyze(ens.pattern()));
        let mut elu = EnsembleLu::new(Arc::clone(&sym));
        let mut alive = vec![true; lanes];
        elu.factor(&ens, &mut alive).unwrap();
        // Perturb all lanes in place and factor again.
        for (k, v) in ens.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + 0.001 * ((k % 7) as f64);
        }
        for (lane, scalar) in scalars.iter_mut().enumerate() {
            for slot in 0..scalar.nnz() {
                let k = slot * lanes + lane;
                scalar.values_mut()[slot] *= 1.0 + 0.001 * ((k % 7) as f64);
            }
        }
        let mut alive = vec![true; lanes];
        elu.factor(&ens, &mut alive).unwrap();
        assert!(alive.iter().all(|&a| a));
        let b: Vec<f64> = (0..n * lanes).map(|i| (i as f64 * 0.17).sin()).collect();
        let mut x = b.clone();
        elu.solve_in_place(&mut x);
        for (lane, scalar) in scalars.iter().enumerate() {
            let mut lu = SparseLu::new(Arc::clone(&sym));
            let bl: Vec<f64> = (0..n).map(|i| b[i * lanes + lane]).collect();
            let xs = lu.factor_solve(scalar, &bl).unwrap();
            for i in 0..n {
                assert!((x[i * lanes + lane] - xs[i]).abs() < 1e-12, "lane {lane}");
            }
        }
    }

    #[test]
    fn ensemble_retires_degraded_lane_without_disturbing_others() {
        // Lane 0 healthy and diagonally dominant; lane 1 near-antidiagonal,
        // which the skeleton's inherited (diagonal) pivot order cannot
        // factor within the refactorization tolerance.
        let entries = vec![(0, 0), (0, 1), (1, 0), (1, 1)];
        let pattern = SparseMatrix::from_entries(2, entries);
        let mut ens = SparseMatrixEnsemble::new(pattern.clone(), 2);
        let lane_vals = [[4.0, 1.0, 1.0, 4.0], [1.0e-15, 1.0, 2.0, 1.0e-15]];
        for (lane, vals) in lane_vals.iter().enumerate() {
            for (slot, v) in vals.iter().enumerate() {
                ens.values_mut()[slot * 2 + lane] = *v;
            }
        }
        let sym = Arc::new(Symbolic::analyze(&pattern));
        let mut elu = EnsembleLu::new(Arc::clone(&sym));
        let mut alive = vec![true, true];
        elu.factor(&ens, &mut alive).unwrap();
        assert!(alive[0], "healthy lane stays live");
        assert!(!alive[1], "antidiagonal lane retires to the scalar path");
        let mut b = vec![1.0, 1.0, 1.0, 1.0];
        elu.solve_in_place(&mut b);
        // Lane 0 against its scalar twin.
        let mut scalar = pattern.clone();
        scalar.values_mut().copy_from_slice(&lane_vals[0]);
        let mut lu = SparseLu::new(sym);
        let xs = lu.factor_solve(&scalar, &[1.0, 1.0]).unwrap();
        for i in 0..2 {
            assert!((b[i * 2] - xs[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn ensemble_singular_skeleton_lane_advances_to_next() {
        // Lane 0 singular (duplicate rows); lane 1 healthy. The skeleton
        // search must retire lane 0 and factor from lane 1.
        let pattern = SparseMatrix::from_entries(2, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        let mut ens = SparseMatrixEnsemble::new(pattern.clone(), 2);
        let lane_vals = [[1.0, 2.0, 2.0, 4.0], [3.0, 1.0, 1.0, 3.0]];
        for (lane, vals) in lane_vals.iter().enumerate() {
            for (slot, v) in vals.iter().enumerate() {
                ens.values_mut()[slot * 2 + lane] = *v;
            }
        }
        let sym = Arc::new(Symbolic::analyze(&pattern));
        let mut elu = EnsembleLu::new(Arc::clone(&sym));
        let mut alive = vec![true, true];
        elu.factor(&ens, &mut alive).unwrap();
        assert!(!alive[0], "singular lane retires");
        assert!(alive[1]);
        // And an all-singular ensemble fails outright.
        let mut all_bad = SparseMatrixEnsemble::new(pattern.clone(), 1);
        for (slot, v) in [1.0, 2.0, 2.0, 4.0].iter().enumerate() {
            all_bad.values_mut()[slot] = *v;
        }
        let mut elu = EnsembleLu::new(Arc::new(Symbolic::analyze(&pattern)));
        let mut alive = vec![true];
        assert_eq!(
            elu.factor(&all_bad, &mut alive),
            Err(SpiceError::SingularMatrix)
        );
        assert!(!alive[0]);
    }

    #[test]
    fn sparse_error_leaves_state_reusable() {
        // After a singular failure, the same SparseLu must factor a good
        // matrix of the same pattern.
        let mut m = SparseMatrix::from_entries(2, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        m.add(0, 0, 1.0);
        m.add(0, 1, 2.0);
        m.add(1, 0, 2.0);
        m.add(1, 1, 4.0);
        let sym = Arc::new(Symbolic::analyze(&m));
        let mut lu = SparseLu::new(sym);
        assert!(lu.factor(&m).is_err());
        m.clear_values();
        m.add(0, 0, 1.0);
        m.add(1, 1, 1.0);
        let x = lu.factor_solve(&m, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    /// An `n`-row pattern with the diagonal and one off-diagonal entry per
    /// row, `shift` columns to the right: charge `3n + 16` for any `shift`
    /// in `1..n`, and a distinct pattern for each.
    fn ring(n: usize, shift: usize) -> SparseMatrix {
        SparseMatrix::from_entries(n, (0..n).flat_map(|i| [(i, i), (i, (i + shift) % n)]))
    }

    #[test]
    fn memo_shares_one_analysis_per_pattern() {
        let (a, b) = (ring(53, 5), ring(53, 6));
        let first = Symbolic::shared(&a);
        assert!(Arc::ptr_eq(&first, &Symbolic::shared(&a)));
        let other = Symbolic::shared(&b);
        assert!(!Arc::ptr_eq(&first, &other));
        assert!(first.matches(&a) && other.matches(&b));
        assert_eq!(*first, Symbolic::analyze(&a));
    }

    #[test]
    fn memo_evicts_least_recently_used_pattern() {
        let patterns: Vec<SparseMatrix> = (1..5).map(|shift| ring(10, shift)).collect();
        let mut memo = SymbolicMemo(Vec::new());
        let insert = |memo: &mut SymbolicMemo, p: &SparseMatrix| {
            memo.insert(pattern_hash(p), p, Arc::new(Symbolic::analyze(p)), 3 * 46)
        };
        for p in &patterns[..3] {
            insert(&mut memo, p);
        }
        // Touch the oldest; the fourth pattern then evicts the second.
        assert!(memo.get(pattern_hash(&patterns[0]), &patterns[0]).is_some());
        insert(&mut memo, &patterns[3]);
        let retained: Vec<bool> = patterns
            .iter()
            .map(|p| memo.get(pattern_hash(p), p).is_some())
            .collect();
        assert_eq!(retained, [true, false, true, true]);
    }

    #[test]
    fn memo_does_not_retain_a_pattern_over_budget() {
        let p = ring(10, 3);
        let mut memo = SymbolicMemo(Vec::new());
        let symbolic = memo.insert(pattern_hash(&p), &p, Arc::new(Symbolic::analyze(&p)), 45);
        assert!(symbolic.matches(&p));
        assert!(memo.0.is_empty());
        assert!(memo.get(pattern_hash(&p), &p).is_none());
    }

    #[test]
    fn concurrent_requests_for_a_new_pattern_agree() {
        let p = ring(61, 17);
        let barrier = std::sync::Barrier::new(4);
        let results: Vec<Arc<Symbolic>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        Symbolic::shared(&p)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("memo thread"))
                .collect()
        });
        let fresh = Symbolic::analyze(&p);
        for r in &results {
            assert_eq!(**r, fresh);
            assert!(Arc::ptr_eq(r, &results[0]));
        }
    }
}
