//! FTRAN/BTRAN through an LU factorization plus a product-form eta file.
//!
//! After a basis change (column `q` replaces the basic variable of slot
//! `r`), the new basis is `B' = B·E` where `E` is the identity with its
//! `r`-th column replaced by the FTRAN'd entering column `d̂ = B⁻¹a_q`.
//! Rather than refactorize per pivot, [`BasisFactor`] appends `E` to an
//! **eta file** and composes it into every solve:
//!
//! * FTRAN `B'⁻¹b`: solve through the LU factors, then apply each eta
//!   in order — `x_r ← x_r / d̂_r`, `x_i ← x_i − d̂_i·x_r`.
//! * BTRAN `B'⁻ᵀc`: apply the transposed etas in *reverse* order —
//!   `y_r ← (y_r − Σ_{i≠r} d̂_i·y_i) / d̂_r` — then solve through the
//!   LU factors.
//!
//! The file is truncated by [`crate::revised`]'s refactorization policy
//! (update count or a stability trigger); each eta costs `O(nnz(d̂))`
//! per solve, so a bounded file keeps solves near the factors' cost.
//!
//! Branch and bound clones a [`BasisFactor`] for every child node and
//! dive step, so a clone must be cheap. The LU factors sit behind an
//! [`Arc`] that every clone off one factorization shares (a
//! refactorization installs a fresh one, so shared factors are never
//! mutated), and the eta file is five flat arrays rather than one heap
//! block pair per eta: a clone copies six `Vec`s whatever the eta
//! count, and a solve streams the etas from contiguous memory.

use crate::factor::LuFactors;
use crate::simplex::DROP_EPS;
use std::sync::Arc;

/// An LU factorization composed with the eta file accumulated since the
/// last refactorization. Owns the scratch the triangular solves need,
/// so solves are allocation-free.
///
/// Eta `k` repivoted basis slot `eta_r[k]` on the column `d̂` with pivot
/// `eta_pivot[k] = d̂_r`; entries `eta_starts[k]..eta_starts[k + 1]` of
/// `(eta_rows, eta_vals)` hold the off-pivot nonzeros of `d̂`. Cloning
/// shares the factors and copies the eta arrays, so updates pushed onto
/// a clone never reach the state it was cloned from.
#[derive(Debug, Clone)]
pub(crate) struct BasisFactor {
    lu: Arc<LuFactors>,
    eta_r: Vec<u32>,
    eta_pivot: Vec<f64>,
    eta_starts: Vec<u32>,
    eta_rows: Vec<u32>,
    eta_vals: Vec<f64>,
    work: Vec<f64>,
}

impl Default for BasisFactor {
    fn default() -> BasisFactor {
        BasisFactor::new(LuFactors::default(), 0)
    }
}

impl BasisFactor {
    /// Wrap a fresh factorization (empty eta file).
    pub(crate) fn new(lu: LuFactors, m: usize) -> BasisFactor {
        BasisFactor {
            lu: Arc::new(lu),
            eta_r: Vec::new(),
            eta_pivot: Vec::new(),
            eta_starts: vec![0],
            eta_rows: Vec::new(),
            eta_vals: Vec::new(),
            work: vec![0.0; m],
        }
    }

    /// Updates applied since the last refactorization.
    pub(crate) fn eta_count(&self) -> usize {
        self.eta_r.len()
    }

    /// Record the pivot `(slot r, entering column d̂ = B⁻¹a_q)`.
    pub(crate) fn push_eta(&mut self, r: usize, ecol: &[f64]) {
        for (i, &v) in ecol.iter().enumerate() {
            if i != r && v.abs() > DROP_EPS {
                self.eta_rows.push(i as u32);
                self.eta_vals.push(v);
            }
        }
        self.eta_r.push(r as u32);
        self.eta_pivot.push(ecol[r]);
        self.eta_starts.push(self.eta_rows.len() as u32);
    }

    /// Solve `B·x = b` in place (`x`: constraint-row indexed in, basis
    /// slot indexed out). Returns the result's nonzero count.
    pub(crate) fn ftran(&mut self, x: &mut [f64]) -> u64 {
        self.lu.ftran(x, &mut self.work);
        let etas = self
            .eta_r
            .iter()
            .zip(&self.eta_pivot)
            .zip(self.eta_starts.windows(2));
        for ((&r, &pivot), span) in etas {
            let r = r as usize;
            let t = x[r] / pivot;
            x[r] = t;
            if t != 0.0 {
                let (a, b) = (span[0] as usize, span[1] as usize);
                for (&i, &v) in self.eta_rows[a..b].iter().zip(&self.eta_vals[a..b]) {
                    x[i as usize] -= v * t;
                }
            }
        }
        nnz_of(x)
    }

    /// Solve `Bᵀ·y = c` in place (`x`: basis slot indexed in,
    /// constraint-row indexed out). Returns the result's nonzero count.
    pub(crate) fn btran(&mut self, x: &mut [f64]) -> u64 {
        let etas = self
            .eta_r
            .iter()
            .zip(&self.eta_pivot)
            .zip(self.eta_starts.windows(2));
        for ((&r, &pivot), span) in etas.rev() {
            let r = r as usize;
            let (a, b) = (span[0] as usize, span[1] as usize);
            let mut t = x[r];
            for (&i, &v) in self.eta_rows[a..b].iter().zip(&self.eta_vals[a..b]) {
                t -= v * x[i as usize];
            }
            x[r] = t / pivot;
        }
        self.lu.btran(x, &mut self.work);
        nnz_of(x)
    }
}

fn nnz_of(x: &[f64]) -> u64 {
    x.iter().filter(|v| v.abs() > DROP_EPS).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// B = I (2×2), then pivot slot 0 on a column d̂ = (2, 1)ᵀ: the new
    /// basis is B' = [[2, 0], [1, 1]].
    fn updated_basis() -> BasisFactor {
        let cols = [vec![(0u32, 1.0)], vec![(1u32, 1.0)]];
        let lu = LuFactors::factorize(2, |s| cols[s].iter().copied()).unwrap();
        let mut bf = BasisFactor::new(lu, 2);
        bf.push_eta(0, &[2.0, 1.0]);
        bf
    }

    #[test]
    fn eta_ftran_matches_direct_solve() {
        let mut bf = updated_basis();
        // Solve B'x = (4, 5)ᵀ → x = (2, 3)ᵀ.
        let mut x = [4.0, 5.0];
        let nnz = bf.ftran(&mut x);
        assert_eq!(nnz, 2);
        assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eta_btran_matches_direct_solve() {
        let mut bf = updated_basis();
        // Solve B'ᵀy = (7, 3)ᵀ; B'ᵀ = [[2, 1], [0, 1]] → y = (2, 3)ᵀ.
        let mut y = [7.0, 3.0];
        let nnz = bf.btran(&mut y);
        assert_eq!(nnz, 2);
        assert!((y[0] - 2.0).abs() < 1e-12 && (y[1] - 3.0).abs() < 1e-12);
    }

    /// SplitMix64 stream → uniform in [-1, 1).
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            2.0 * ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 - 1.0
        }

        fn vec(&mut self, m: usize) -> Vec<f64> {
            (0..m).map(|_| self.next()).collect()
        }
    }

    /// Solve the dense system `a·x = b` (`a[row][col]`) by Gaussian
    /// elimination with partial pivoting.
    fn dense_solve(a: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
        let m = b.len();
        let mut a: Vec<Vec<f64>> = a.to_vec();
        let mut x = b.to_vec();
        for k in 0..m {
            let p = (k..m)
                .max_by(|&i, &j| a[i][k].abs().total_cmp(&a[j][k].abs()))
                .unwrap();
            a.swap(k, p);
            x.swap(k, p);
            let (top, rest) = a.split_at_mut(k + 1);
            let pivot_row = &top[k];
            for (i, row) in rest.iter_mut().enumerate() {
                let f = row[k] / pivot_row[k];
                for (v, &p) in row[k..].iter_mut().zip(&pivot_row[k..]) {
                    *v -= f * p;
                }
                x[k + 1 + i] -= f * x[k];
            }
        }
        for k in (0..m).rev() {
            let t: f64 = (k + 1..m).map(|j| a[k][j] * x[j]).sum();
            x[k] = (x[k] - t) / a[k][k];
        }
        x
    }

    fn transpose(a: &[Vec<f64>]) -> Vec<Vec<f64>> {
        (0..a.len())
            .map(|j| a.iter().map(|row| row[j]).collect())
            .collect()
    }

    /// A diagonally dominant dense `m × m` basis (`b[row][slot]`), its
    /// factor, and the entropy stream that built it.
    fn random_basis(m: usize, seed: u64) -> (Vec<Vec<f64>>, BasisFactor, Mix) {
        let mut rng = Mix(seed);
        let mut b: Vec<Vec<f64>> = (0..m).map(|_| rng.vec(m)).collect();
        for (i, row) in b.iter_mut().enumerate() {
            row[i] += m as f64;
        }
        let cols: Vec<Vec<(u32, f64)>> = (0..m)
            .map(|j| (0..m).map(|i| (i as u32, b[i][j])).collect())
            .collect();
        let lu = LuFactors::factorize(m, |s| cols[s].iter().copied()).unwrap();
        (b, BasisFactor::new(lu, m), rng)
    }

    /// Replace a basis column by a random dense column, the way the
    /// simplex does: FTRAN it, pivot on its largest entry's slot, and
    /// push the eta. Mirrors the swap in the dense basis `b`.
    fn random_pivot(b: &mut [Vec<f64>], bf: &mut BasisFactor, rng: &mut Mix) {
        let m = b.len();
        let a = rng.vec(m);
        let mut d = a.clone();
        bf.ftran(&mut d);
        let r = (0..m)
            .max_by(|&i, &j| d[i].abs().total_cmp(&d[j].abs()))
            .unwrap();
        bf.push_eta(r, &d);
        for (row, &v) in b.iter_mut().zip(&a) {
            row[r] = v;
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn dozens_of_dense_etas_match_a_dense_solve_of_the_updated_basis() {
        const M: usize = 12;
        let (mut b, mut bf, mut rng) = random_basis(M, 7);
        for _ in 0..48 {
            random_pivot(&mut b, &mut bf, &mut rng);
        }
        assert_eq!(bf.eta_count(), 48);
        for _ in 0..4 {
            let rhs = rng.vec(M);
            let mut x = rhs.clone();
            bf.ftran(&mut x);
            let mut y = rhs.clone();
            bf.btran(&mut y);
            let want_x = dense_solve(&b, &rhs);
            let want_y = dense_solve(&transpose(&b), &rhs);
            for i in 0..M {
                assert!(
                    (x[i] - want_x[i]).abs() < 1e-8,
                    "ftran[{i}]: {} vs {}",
                    x[i],
                    want_x[i]
                );
                assert!(
                    (y[i] - want_y[i]).abs() < 1e-8,
                    "btran[{i}]: {} vs {}",
                    y[i],
                    want_y[i]
                );
            }
        }
    }

    #[test]
    fn a_clone_shares_the_parents_lu_factors() {
        let (mut b, mut parent, mut rng) = random_basis(6, 11);
        random_pivot(&mut b, &mut parent, &mut rng);
        let child = parent.clone();
        assert!(Arc::ptr_eq(&parent.lu, &child.lu));
        assert_eq!(child.eta_count(), parent.eta_count());
    }

    #[test]
    fn etas_pushed_onto_a_clone_leave_the_parent_bit_identical() {
        const M: usize = 9;
        let (mut b, mut parent, mut rng) = random_basis(M, 23);
        for _ in 0..5 {
            random_pivot(&mut b, &mut parent, &mut rng);
        }
        let rhs = rng.vec(M);
        let solve = |bf: &mut BasisFactor| {
            let (mut x, mut y) = (rhs.clone(), rhs.clone());
            bf.ftran(&mut x);
            bf.btran(&mut y);
            (bits(&x), bits(&y))
        };
        let before = solve(&mut parent);

        let mut child = parent.clone();
        let mut child_b = b.clone();
        for _ in 0..7 {
            random_pivot(&mut child_b, &mut child, &mut rng);
        }
        assert_eq!(child.eta_count(), parent.eta_count() + 7);
        assert_ne!(solve(&mut child), before, "the clone's etas took effect");
        assert_eq!(solve(&mut parent), before);
        assert!(Arc::ptr_eq(&parent.lu, &child.lu));
    }
}
