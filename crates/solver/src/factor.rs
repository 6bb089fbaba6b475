//! Sparse LU factorization of a simplex basis.
//!
//! The revised simplex engine ([`crate::revised`]) never forms `B⁻¹`:
//! it factorizes the basis matrix `B = L·U` once and answers every
//! `B·x = b` (FTRAN) and `Bᵀ·y = c` (BTRAN) query by two sparse
//! triangular solves. This module holds the factorization itself; the
//! per-pivot eta updates that keep it current between refactorizations
//! live in [`crate::ftran`].
//!
//! Pivot order is chosen by a bounded **Markowitz** search: among a few
//! candidate columns of minimum active count, pick the entry minimising
//! the fill bound `(r−1)·(c−1)` subject to threshold partial pivoting
//! (`|a| ≥ 0.1 · colmax`). Column counts are kept in a lazy min-heap —
//! stale counts are revalidated against the live row patterns when
//! popped — so the search is cheap even as elimination fills rows in.
//! All tie-breaks are by lowest index, so the factorization (and every
//! solve through it) is a deterministic function of the basis.
//!
//! Storage is in *elementary operation* form: step `k` eliminated
//! constraint row `pivot_row[k]` and basis slot `pivot_slot[k]`; `L`
//! holds the per-step multiplier lists, `U` the surviving pivot-row
//! entries keyed by basis slot (plus a transposed copy keyed by step,
//! built once per factorization, for the BTRAN forward solve).

use crate::simplex::DROP_EPS;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Within the chosen column, a pivot must be at least this fraction of
/// the column's largest magnitude (threshold partial pivoting: trades a
/// bounded growth factor for Markowitz's fill control).
const PIVOT_REL: f64 = 0.1;
/// Absolute floor below which an entry is never accepted as a pivot.
const PIVOT_ABS: f64 = 1e-11;
/// Candidate columns examined per Markowitz pivot choice.
const MARKOWITZ_CANDS: usize = 4;

/// The basis matrix was (numerically) singular: some column had no
/// acceptable pivot among the active rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SingularBasis;

/// A sparse LU factorization `B = L·U` in elementary-operation form.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuFactors {
    m: usize,
    /// Constraint row eliminated at step `k`.
    pivot_row: Vec<u32>,
    /// Basis slot (column of `B`) eliminated at step `k`.
    pivot_slot: Vec<u32>,
    /// `L` multipliers for step `k`: entries `l_starts[k]..l_starts[k+1]`
    /// of `(l_rows, l_vals)` — victim row `i` had `mult · (pivot row)`
    /// subtracted from it.
    l_starts: Vec<u32>,
    l_rows: Vec<u32>,
    l_vals: Vec<f64>,
    /// `U` row for step `k`: off-diagonal entries keyed by basis slot
    /// (always a slot eliminated at a *later* step), diagonal separate.
    u_starts: Vec<u32>,
    u_slots: Vec<u32>,
    u_vals: Vec<f64>,
    u_diag: Vec<f64>,
    /// `U` by columns — column of step `k` holds `(step l < k, u_{l,k})`
    /// — for the BTRAN forward substitution.
    ut_starts: Vec<u32>,
    ut_steps: Vec<u32>,
    ut_vals: Vec<f64>,
}

/// A validated Markowitz candidate column: its live entries are
/// `cand_entries[start..end]` of the [`Workspace`].
#[derive(Clone, Copy)]
struct Cand {
    slot: u32,
    start: usize,
    end: usize,
    best_row: u32,
    best_val: f64,
    cost: u64,
}

/// Working storage of one factorization. Each thread keeps one and the
/// next factorization on that thread reuses it: every buffer is cleared
/// on entry, never shrunk, so after the first few calls at a given size
/// a factorization allocates only the [`LuFactors`] it returns. A
/// thread holds on to the storage of the largest basis it factorized.
#[derive(Default)]
struct Workspace {
    /// `rows[i]` = `[(slot, value), ...]` over active slots, kept sorted
    /// by slot so candidate validation can binary-search a wide row
    /// instead of scanning it.
    rows: Vec<Vec<(u32, f64)>>,
    /// Rows that held an entry of each column when last looked at
    /// (stale until the column is validated).
    col_rows: Vec<Vec<u32>>,
    row_active: Vec<bool>,
    col_active: Vec<bool>,
    /// Lazy min-heap of (approximate count, slot); counts only ever
    /// grow stale downward (drops / eliminations), which revalidation
    /// on pop corrects.
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// Dense merge scratch, epoch-marked so it never needs clearing
    /// within a factorization.
    dense: Vec<f64>,
    mark: Vec<u32>,
    /// Row-seen scratch for deduplicating stale column patterns, same
    /// epoch-marking scheme.
    rseen: Vec<u32>,
    /// The current step's candidates and their live entries.
    cands: Vec<Cand>,
    cand_entries: Vec<(u32, f64)>,
    /// Fill-in slots of the current victim row, and the row rebuilt
    /// from its survivors plus the fill-in.
    added: Vec<u32>,
    merged: Vec<(u32, f64)>,
    /// Step that eliminated each slot, and the per-column write cursor
    /// of the `Uᵀ` counting sort.
    step_of_slot: Vec<u32>,
    cursor: Vec<u32>,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

impl Workspace {
    /// Clear every buffer for an `m × m` factorization.
    fn reset(&mut self, m: usize) {
        if self.rows.len() < m {
            self.rows.resize_with(m, Vec::new);
            self.col_rows.resize_with(m, Vec::new);
        }
        for row in &mut self.rows[..m] {
            row.clear();
        }
        for pattern in &mut self.col_rows[..m] {
            pattern.clear();
        }
        for buf in [&mut self.mark, &mut self.rseen] {
            buf.clear();
            buf.resize(m, 0);
        }
        for buf in [&mut self.row_active, &mut self.col_active] {
            buf.clear();
            buf.resize(m, true);
        }
        self.dense.clear();
        self.dense.resize(m, 0.0);
        self.heap.clear();
    }

    fn factorize<I>(
        &mut self,
        m: usize,
        col: impl Fn(usize) -> I,
    ) -> Result<LuFactors, SingularBasis>
    where
        I: IntoIterator<Item = (u32, f64)>,
    {
        self.reset(m);
        let Workspace {
            rows,
            col_rows,
            row_active,
            col_active,
            heap,
            dense,
            mark,
            rseen,
            cands,
            cand_entries,
            added,
            merged,
            step_of_slot,
            cursor,
        } = self;
        for (slot, pattern) in col_rows[..m].iter_mut().enumerate() {
            for (r, v) in col(slot) {
                if v != 0.0 {
                    rows[r as usize].push((slot as u32, v));
                    pattern.push(r);
                }
            }
        }
        for (slot, rows_of) in col_rows[..m].iter().enumerate() {
            heap.push(Reverse((rows_of.len() as u32, slot as u32)));
        }
        let mut epoch = 0u32;
        let mut rep = 0u32;

        let mut out = LuFactors {
            m,
            pivot_row: Vec::with_capacity(m),
            pivot_slot: Vec::with_capacity(m),
            l_starts: Vec::with_capacity(m + 1),
            l_rows: Vec::new(),
            l_vals: Vec::new(),
            u_starts: Vec::with_capacity(m + 1),
            u_slots: Vec::new(),
            u_vals: Vec::new(),
            u_diag: Vec::with_capacity(m),
            ut_starts: Vec::new(),
            ut_steps: Vec::new(),
            ut_vals: Vec::new(),
        };
        out.l_starts.push(0);
        out.u_starts.push(0);

        for _step in 0..m {
            // Pop up to MARKOWITZ_CANDS distinct valid columns.
            cands.clear();
            cand_entries.clear();
            while cands.len() < MARKOWITZ_CANDS {
                let Some(Reverse((_, slot))) = heap.pop() else {
                    break;
                };
                let s = slot as usize;
                if !col_active[s] || cands.iter().any(|c| c.slot == slot) {
                    continue;
                }
                // Validate the (possibly stale) pattern: keep rows that
                // are active and still hold an entry at this slot, and
                // compact the pattern down to them in place.
                rep = rep.wrapping_add(1);
                if rep == 0 {
                    rseen.fill(0);
                    rep = 1;
                }
                let start = cand_entries.len();
                let pattern = &mut col_rows[s];
                let mut kept = 0;
                for i in 0..pattern.len() {
                    let r = pattern[i];
                    let ru = r as usize;
                    if !row_active[ru] || rseen[ru] == rep {
                        continue;
                    }
                    rseen[ru] = rep;
                    if let Ok(k) = rows[ru].binary_search_by_key(&slot, |&(sl, _)| sl) {
                        cand_entries.push((r, rows[ru][k].1));
                        pattern[kept] = r;
                        kept += 1;
                    }
                }
                let entries = &cand_entries[start..];
                if entries.is_empty() {
                    // No live entry left in this column: structurally
                    // singular.
                    return Err(SingularBasis);
                }
                pattern.truncate(kept);
                let colmax = entries.iter().fold(0.0f64, |acc, &(_, v)| acc.max(v.abs()));
                let threshold = (PIVOT_REL * colmax).max(PIVOT_ABS);
                let mut best: Option<(u32, f64, usize)> = None; // (row, val, rcount)
                for &(r, v) in entries {
                    if v.abs() >= threshold {
                        let rc = rows[r as usize].len();
                        let better = match best {
                            None => true,
                            Some((br, _, brc)) => rc < brc || (rc == brc && r < br),
                        };
                        if better {
                            best = Some((r, v, rc));
                        }
                    }
                }
                let Some((best_row, best_val, best_rc)) = best else {
                    // All live entries below the absolute pivot floor.
                    return Err(SingularBasis);
                };
                let ccount = entries.len() as u64;
                let cost = (best_rc as u64 - 1) * (ccount - 1);
                cands.push(Cand {
                    slot,
                    start,
                    end: cand_entries.len(),
                    best_row,
                    best_val,
                    cost,
                });
            }
            if cands.is_empty() {
                return Err(SingularBasis);
            }
            // Minimum Markowitz cost, ties by lowest slot.
            let mut pick = 0;
            for (i, c) in cands.iter().enumerate().skip(1) {
                if c.cost < cands[pick].cost
                    || (c.cost == cands[pick].cost && c.slot < cands[pick].slot)
                {
                    pick = i;
                }
            }
            let chosen = cands.swap_remove(pick);
            for c in cands.iter() {
                heap.push(Reverse(((c.end - c.start) as u32, c.slot)));
            }
            let pslot = chosen.slot;
            let prow = chosen.best_row;
            let pval = chosen.best_val;
            debug_assert!(pval.abs() >= PIVOT_ABS);

            // Emit the U row: surviving pivot-row entries, keyed by slot.
            for &(s, v) in &rows[prow as usize] {
                if s != pslot {
                    out.u_slots.push(s);
                    out.u_vals.push(v);
                }
            }
            out.u_starts.push(out.u_slots.len() as u32);
            out.u_diag.push(pval);
            out.pivot_row.push(prow);
            out.pivot_slot.push(pslot);

            // Eliminate the pivot column from every other live row.
            let pivot_entries = std::mem::take(&mut rows[prow as usize]);
            for &(victim, vval) in &cand_entries[chosen.start..chosen.end] {
                if victim == prow {
                    continue;
                }
                let mult = vval / pval;
                out.l_rows.push(victim);
                out.l_vals.push(mult);
                // Sparse merge via the epoch-marked dense scratch:
                // victim -= mult · pivot_row.
                epoch = epoch.wrapping_add(1);
                if epoch == 0 {
                    mark.fill(0);
                    epoch = 1;
                }
                let vrow = &rows[victim as usize];
                for &(s, v) in vrow {
                    dense[s as usize] = v;
                    mark[s as usize] = epoch;
                }
                added.clear();
                for &(s, v) in &pivot_entries {
                    if s == pslot {
                        continue;
                    }
                    let su = s as usize;
                    if mark[su] == epoch {
                        dense[su] -= mult * v;
                    } else {
                        dense[su] = -mult * v;
                        mark[su] = epoch;
                        added.push(s);
                    }
                }
                // Merge survivors with the (sorted) fill-in so the row
                // stays sorted by slot.
                added.sort_unstable();
                merged.clear();
                let mut ai = 0;
                let dense = &*dense;
                let take_fill =
                    |s: u32,
                     merged: &mut Vec<(u32, f64)>,
                     col_rows: &mut [Vec<u32>],
                     heap: &mut BinaryHeap<Reverse<(u32, u32)>>| {
                        let v = dense[s as usize];
                        if v.abs() > DROP_EPS {
                            merged.push((s, v));
                            // Fill-in: record the new pattern entry and bump
                            // the column back up the heap.
                            col_rows[s as usize].push(victim);
                            heap.push(Reverse((col_rows[s as usize].len() as u32, s)));
                        }
                    };
                for &(s, _) in vrow {
                    if s == pslot {
                        continue; // eliminated: became the L multiplier
                    }
                    while ai < added.len() && added[ai] < s {
                        take_fill(added[ai], merged, col_rows, heap);
                        ai += 1;
                    }
                    let v = dense[s as usize];
                    if v.abs() > DROP_EPS {
                        merged.push((s, v));
                    }
                }
                for &s in &added[ai..] {
                    take_fill(s, merged, col_rows, heap);
                }
                // The victim row takes the merged entries; its old
                // buffer becomes the next merge's.
                std::mem::swap(&mut rows[victim as usize], merged);
            }
            // Hand the pivot row's buffer back, empty, for reuse.
            rows[prow as usize] = pivot_entries;
            rows[prow as usize].clear();
            out.l_starts.push(out.l_rows.len() as u32);
            row_active[prow as usize] = false;
            col_active[pslot as usize] = false;
        }

        // Build the transposed U (by column step) for BTRAN by a
        // counting sort: U row k's entry at slot s lands in column
        // step_of_slot[s], and rows are visited in step order, so each
        // column lists its steps ascending.
        step_of_slot.clear();
        step_of_slot.resize(m, 0);
        for (k, &s) in out.pivot_slot.iter().enumerate() {
            step_of_slot[s as usize] = k as u32;
        }
        let mut ut_starts = vec![0u32; m + 1];
        for &s in &out.u_slots {
            ut_starts[step_of_slot[s as usize] as usize + 1] += 1;
        }
        for l in 0..m {
            ut_starts[l + 1] += ut_starts[l];
        }
        cursor.clear();
        cursor.extend_from_slice(&ut_starts[..m]);
        let nnz = out.u_slots.len();
        let mut ut_steps = vec![0u32; nnz];
        let mut ut_vals = vec![0.0f64; nnz];
        for k in 0..m {
            let (a, b) = (out.u_starts[k] as usize, out.u_starts[k + 1] as usize);
            for e in a..b {
                let l = step_of_slot[out.u_slots[e] as usize] as usize;
                let at = cursor[l] as usize;
                ut_steps[at] = k as u32;
                ut_vals[at] = out.u_vals[e];
                cursor[l] += 1;
            }
        }
        out.ut_starts = ut_starts;
        out.ut_steps = ut_steps;
        out.ut_vals = ut_vals;
        Ok(out)
    }
}

impl LuFactors {
    /// Factorize the `m × m` basis whose column `slot` is `col(slot)`:
    /// `(constraint row, value)` entries, in any order, duplicates
    /// forbidden, zeros ignored. Runs on this thread's reusable
    /// [`Workspace`], so only the returned factors allocate.
    pub(crate) fn factorize<I>(
        m: usize,
        col: impl Fn(usize) -> I,
    ) -> Result<LuFactors, SingularBasis>
    where
        I: IntoIterator<Item = (u32, f64)>,
    {
        WORKSPACE.with(|ws| ws.borrow_mut().factorize(m, col))
    }

    /// Solve `B·x = b` in place: `x` arrives indexed by constraint row
    /// (the right-hand side) and leaves indexed by basis slot. `work`
    /// is caller-provided scratch of length `m`.
    pub(crate) fn ftran(&self, x: &mut [f64], work: &mut [f64]) {
        let m = self.m;
        debug_assert!(x.len() == m && work.len() == m);
        // Forward elimination: replay the L operations.
        for k in 0..m {
            let t = x[self.pivot_row[k] as usize];
            if t != 0.0 {
                let (a, b) = (self.l_starts[k] as usize, self.l_starts[k + 1] as usize);
                for e in a..b {
                    x[self.l_rows[e] as usize] -= self.l_vals[e] * t;
                }
            }
        }
        // Back substitution on U, writing slot-indexed results: step k's
        // off-diagonals reference slots of later (already solved) steps.
        for k in (0..m).rev() {
            let mut t = x[self.pivot_row[k] as usize];
            let (a, b) = (self.u_starts[k] as usize, self.u_starts[k + 1] as usize);
            for e in a..b {
                t -= self.u_vals[e] * work[self.u_slots[e] as usize];
            }
            work[self.pivot_slot[k] as usize] = t / self.u_diag[k];
        }
        x.copy_from_slice(work);
    }

    /// Solve `Bᵀ·y = c` in place: `x` arrives indexed by basis slot
    /// (costs of the basic variables) and leaves indexed by constraint
    /// row. `work` is caller-provided scratch of length `m`.
    pub(crate) fn btran(&self, x: &mut [f64], work: &mut [f64]) {
        let m = self.m;
        debug_assert!(x.len() == m && work.len() == m);
        // Forward substitution on Uᵀ into step-indexed scratch.
        for k in 0..m {
            let mut t = x[self.pivot_slot[k] as usize];
            let (a, b) = (self.ut_starts[k] as usize, self.ut_starts[k + 1] as usize);
            for e in a..b {
                t -= self.ut_vals[e] * work[self.ut_steps[e] as usize];
            }
            work[k] = t / self.u_diag[k];
        }
        // Scatter to constraint rows, then replay Lᵀ backwards.
        for k in 0..m {
            x[self.pivot_row[k] as usize] = work[k];
        }
        for k in (0..m).rev() {
            let (a, b) = (self.l_starts[k] as usize, self.l_starts[k + 1] as usize);
            let mut t = x[self.pivot_row[k] as usize];
            for e in a..b {
                t -= self.l_vals[e] * x[self.l_rows[e] as usize];
            }
            x[self.pivot_row[k] as usize] = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_cols(a: &[&[f64]]) -> Vec<Vec<(u32, f64)>> {
        let m = a.len();
        (0..m)
            .map(|j| {
                (0..m)
                    .filter(|&i| a[i][j] != 0.0)
                    .map(|i| (i as u32, a[i][j]))
                    .collect()
            })
            .collect()
    }

    fn mat_vec(a: &[&[f64]], x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(c, v)| c * v).sum())
            .collect()
    }

    fn mat_t_vec(a: &[&[f64]], y: &[f64]) -> Vec<f64> {
        let m = a.len();
        (0..m)
            .map(|j| (0..m).map(|i| a[i][j] * y[i]).sum())
            .collect()
    }

    fn check_solves(a: &[&[f64]]) {
        let m = a.len();
        let lu = factorize_cols(&dense_cols(a)).expect("nonsingular");
        let mut work = vec![0.0; m];
        // FTRAN: pick x, form b = A x, solve, compare.
        let x_true: Vec<f64> = (0..m).map(|i| (i as f64) - 1.5).collect();
        let mut b = mat_vec(a, &x_true);
        lu.ftran(&mut b, &mut work);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "ftran {got} vs {want}");
        }
        // BTRAN: pick y, form c = Aᵀ y, solve, compare.
        let y_true: Vec<f64> = (0..m).map(|i| 0.5 * (i as f64) + 0.25).collect();
        let mut c = mat_t_vec(a, &y_true);
        lu.btran(&mut c, &mut work);
        for (got, want) in c.iter().zip(&y_true) {
            assert!((got - want).abs() < 1e-9, "btran {got} vs {want}");
        }
    }

    #[test]
    fn identity_and_permutation() {
        check_solves(&[&[1.0, 0.0], &[0.0, 1.0]]);
        check_solves(&[&[0.0, 2.0, 0.0], &[0.0, 0.0, 3.0], &[4.0, 0.0, 0.0]]);
    }

    #[test]
    fn dense_and_fill_in() {
        check_solves(&[
            &[4.0, 1.0, 0.0, 0.0],
            &[1.0, 4.0, 1.0, 0.0],
            &[0.0, 1.0, 4.0, 1.0],
            &[2.0, 0.0, 1.0, 4.0],
        ]);
        check_solves(&[&[1e-3, 1.0, 0.0], &[1.0, 1.0, 1.0], &[0.0, 1.0, -1.0]]);
    }

    #[test]
    fn empty_basis() {
        let lu = factorize_cols(&[]).expect("empty is nonsingular");
        lu.ftran(&mut [], &mut []);
        lu.btran(&mut [], &mut []);
        assert!(lu.l_vals.is_empty() && lu.u_vals.is_empty());
    }

    #[test]
    fn singular_is_rejected() {
        // Duplicate columns.
        let a: &[&[f64]] = &[&[1.0, 1.0], &[2.0, 2.0]];
        assert!(
            factorize_cols(&dense_cols(a)).is_err(),
            "rank-1 matrix must not factorize"
        );
        // A structurally empty column.
        let cols = vec![vec![(0u32, 1.0)], vec![]];
        assert!(factorize_cols(&cols).is_err());
    }

    /// Factorize a basis given as explicit sparse columns.
    fn factorize_cols(cols: &[Vec<(u32, f64)>]) -> Result<LuFactors, SingularBasis> {
        LuFactors::factorize(cols.len(), |slot| cols[slot].iter().copied())
    }

    /// SplitMix64 stream.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// `±[lo, hi)` with a random sign.
        fn signed(&mut self, lo: f64, hi: f64) -> f64 {
            let v = lo + (hi - lo) * self.unit();
            if self.next() & 1 == 0 {
                v
            } else {
                -v
            }
        }
    }

    /// A seeded sparse `m × m` basis shaped like the simplex's: about a
    /// third of the slots are unit (slack) columns, the rest structural
    /// columns with one entry on a row drawn from a permutation (so the
    /// basis is structurally nonsingular) plus one to four random extra
    /// rows, in unsorted row order. Every fourth structural column's
    /// permutation entry is small next to its others, so threshold
    /// pivoting must reject it; the extra rows force fill-in.
    fn seeded_basis(m: usize, seed: u64) -> Vec<Vec<(u32, f64)>> {
        let mut rng = Mix(seed);
        let mut perm: Vec<u32> = (0..m as u32).collect();
        for i in (1..m).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        let mut structural = 0usize;
        (0..m)
            .map(|slot| {
                let home = perm[slot];
                if rng.unit() < 0.33 {
                    return vec![(home, if rng.next() & 1 == 0 { 1.0 } else { -1.0 })];
                }
                structural += 1;
                let home_val = if structural.is_multiple_of(4) {
                    rng.signed(1e-3, 2e-3)
                } else {
                    rng.signed(0.5, 2.0)
                };
                let mut col = vec![(home, home_val)];
                for _ in 0..1 + rng.below(4) {
                    let r = rng.below(m) as u32;
                    if col.iter().all(|&(cr, _)| cr != r) {
                        col.push((r, rng.signed(0.5, 3.0)));
                    }
                }
                // Unsorted row order: rotate by a random amount.
                let k = rng.below(col.len());
                col.rotate_left(k);
                col
            })
            .collect()
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    fn fnv(mut h: u64, word: u64) -> u64 {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    fn fnv_u32s(h: u64, xs: &[u32]) -> u64 {
        xs.iter()
            .fold(fnv(h, xs.len() as u64), |h, &x| fnv(h, x as u64))
    }

    fn fnv_f64s(h: u64, xs: &[f64]) -> u64 {
        xs.iter()
            .fold(fnv(h, xs.len() as u64), |h, &x| fnv(h, x.to_bits()))
    }

    /// Fold one factorization outcome into the digest: every array of
    /// the factors by bit pattern, then one FTRAN and one BTRAN through
    /// them; a rejected basis folds a marker instead.
    fn fold_factors(h: u64, cols: &[Vec<(u32, f64)>]) -> u64 {
        let m = cols.len();
        let lu = match factorize_cols(cols) {
            Ok(lu) => lu,
            Err(SingularBasis) => return fnv(h, u64::MAX),
        };
        let mut h = fnv(h, lu.m as u64);
        for xs in [
            &lu.pivot_row,
            &lu.pivot_slot,
            &lu.l_starts,
            &lu.l_rows,
            &lu.u_starts,
            &lu.u_slots,
            &lu.ut_starts,
            &lu.ut_steps,
        ] {
            h = fnv_u32s(h, xs);
        }
        for xs in [&lu.l_vals, &lu.u_vals, &lu.u_diag, &lu.ut_vals] {
            h = fnv_f64s(h, xs);
        }
        let mut work = vec![0.0; m];
        let mut x: Vec<f64> = (0..m).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        lu.ftran(&mut x, &mut work);
        h = fnv_f64s(h, &x);
        let mut y: Vec<f64> = (0..m).map(|i| (i % 5) as f64 - 2.0).collect();
        lu.btran(&mut y, &mut work);
        fnv_f64s(h, &y)
    }

    /// Bit patterns of every factorization array (and a solve each way)
    /// over seeded sparse bases at m = 12, 107 and 400, plus the three
    /// rejection paths: an emptied column, a column below the absolute
    /// pivot floor, and a duplicated column. Pinned before the
    /// factorization moved onto reusable working storage; any change
    /// to pivot choice, tie-breaks, elimination or drop order moves it.
    const LU_DIGEST: u64 = 0xe5ee_795a_9ada_2021;

    #[test]
    fn seeded_bases_match_the_golden_lu_digest() {
        let mut h = FNV_OFFSET;
        let mut factored = 0;
        for (m, seeds) in [(12usize, 0..8u64), (107, 100..104), (400, 200..202)] {
            for seed in seeds {
                let cols = seeded_basis(m, seed);
                assert!(factorize_cols(&cols).is_ok(), "m={m} seed={seed} singular");
                h = fold_factors(h, &cols);
                factored += 1;
            }
        }
        assert_eq!(factored, 14);
        // Rejections: emptied, sub-floor and duplicated columns.
        let mut empty = seeded_basis(12, 7);
        empty[5].clear();
        let mut tiny = seeded_basis(12, 7);
        tiny[5] = vec![(3, 1e-13), (8, -2e-12 / 7.0)];
        let mut dup = seeded_basis(107, 3);
        dup[40] = dup[17].clone();
        for cols in [empty, tiny, dup] {
            assert!(factorize_cols(&cols).is_err());
            h = fold_factors(h, &cols);
        }
        h = fold_factors(h, &[]);
        assert_eq!(h, LU_DIGEST, "LU digest moved: {h:#018x}");
    }
}
