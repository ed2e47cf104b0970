//! Product-form (eta-file) basis representation for the revised simplex.
//!
//! The basis inverse is kept as an ordered product of *eta matrices*
//! `B⁻¹ = Eₖ⁻¹ ⋯ E₂⁻¹ E₁⁻¹`, where each `Eᵢ` is an identity matrix with one
//! column replaced by a (sparse) eta vector. A simplex pivot appends one eta;
//! a *refactorization* rebuilds the whole file from the basic columns,
//! bounding both floating-point drift and the cost of FTRAN/BTRAN sweeps.
//!
//! `EtaFile` stores every eta in one flat arena so a solve performs zero
//! per-pivot allocations beyond the arena growth itself. [`Basis`] is the
//! cloneable snapshot of a basis (basic column per row, the at-upper flags
//! of the nonbasic columns, and the factorization of the basic columns)
//! that the branch-and-bound driver hands from a parent node to its
//! children for warm starts.

/// Snapshot of a simplex basis, used to warm-start later solves of the
/// same problem (typically with tightened variable bounds, as in
/// branch-and-bound). [`solve_lp_from`](crate::simplex::solve_lp_from)
/// returns one and takes one back.
#[derive(Clone, Debug)]
pub struct Basis {
    /// Basic column per row (columns index structurals then slacks).
    pub(crate) basic: Vec<u32>,
    /// Per-column flag: nonbasic at its upper bound (`false` for basic
    /// columns and columns at their lower bound).
    pub(crate) at_upper: Vec<bool>,
    /// Number of structural variables of the problem this basis belongs to.
    pub(crate) n_struct: usize,
    /// The eta file of a refactorization of `basic` with no pivot since,
    /// when the snapshot was taken at an optimum, and the id of the column
    /// form it factorizes. A refactorization depends only on the set of
    /// basic columns, so a warm start on the same columns installs this
    /// file instead of rebuilding the same one.
    pub(crate) eta: Option<(u64, EtaFile)>,
}

/// One eta of the file: its pivot row and value, and its off-pivot
/// entries `entries[start..end]`.
#[derive(Clone, Copy, Debug)]
struct Eta {
    row: u32,
    pivot: f64,
    start: u32,
    end: u32,
}

/// Flat-arena eta file: the ordered sequence of eta vectors making up the
/// product-form basis inverse.
#[derive(Clone, Debug, Default)]
pub(crate) struct EtaFile {
    /// Off-pivot `(row, value)` entries of every eta, concatenated.
    entries: Vec<(u32, f64)>,
    etas: Vec<Eta>,
}

impl EtaFile {
    /// Drops every eta (used at refactorization).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.etas.clear();
    }

    /// Drops the spare capacity, so a snapshot holds only its etas.
    pub fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
        self.etas.shrink_to_fit();
    }

    /// Number of etas currently in the file.
    pub fn len(&self) -> usize {
        self.etas.len()
    }

    /// Total stored entries, pivots included (a proxy for FTRAN/BTRAN
    /// cost).
    pub fn nnz(&self) -> usize {
        self.entries.len() + self.etas.len()
    }

    /// Appends an eta with the given pivot row; `column` holds the dense
    /// transformed column. The pivot goes in the eta's header; of the other
    /// entries, only those above `drop_tol` in magnitude are stored.
    pub fn push(&mut self, pivot_row: usize, column: &[f64], drop_tol: f64) {
        let start = self.entries.len() as u32;
        for (i, &v) in column.iter().enumerate() {
            if i != pivot_row && v.abs() > drop_tol {
                self.entries.push((i as u32, v));
            }
        }
        self.etas.push(Eta {
            row: pivot_row as u32,
            pivot: column[pivot_row],
            start,
            end: self.entries.len() as u32,
        });
    }

    /// FTRAN: solves `B x = w` in place by applying every eta in order.
    ///
    /// For an eta `E` with pivot row `r` and column `v`, solving `E x = w`
    /// gives `x_r = w_r / v_r` and `x_i = w_i − v_i x_r` for `i ≠ r`.
    pub fn ftran(&self, w: &mut [f64]) {
        for eta in &self.etas {
            let r = eta.row as usize;
            let xr = w[r] / eta.pivot;
            if xr != 0.0 {
                for &(i, v) in &self.entries[eta.start as usize..eta.end as usize] {
                    w[i as usize] -= v * xr;
                }
            }
            w[r] = xr;
        }
    }

    /// BTRAN: solves `Bᵀ y = w` in place by applying every eta transposed in
    /// reverse order.
    ///
    /// For an eta `E` with pivot row `r` and column `v`, solving `Eᵀ y = w`
    /// leaves `y_i = w_i` for `i ≠ r` and sets
    /// `y_r = (w_r − Σ_{i≠r} v_i w_i) / v_r`.
    pub fn btran(&self, w: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut dot = 0.0;
            for &(i, v) in &self.entries[eta.start as usize..eta.end as usize] {
                dot += v * w[i as usize];
            }
            let r = eta.row as usize;
            w[r] = (w[r] - dot) / eta.pivot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense 3x3 sanity check: factorize B column by column as the
    /// refactorization loop does, then verify FTRAN/BTRAN against direct
    /// substitution.
    #[test]
    fn ftran_btran_invert_a_dense_basis() {
        // B = [[2,1,0],[0,1,1],[1,0,2]] (nonsingular).
        let b_cols: [[f64; 3]; 3] = [[2.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 2.0]];
        let mut eta = EtaFile::default();
        let mut assigned = [false; 3];
        for col in &b_cols {
            let mut w = *col;
            eta.ftran(&mut w);
            // Pivot on the largest unassigned entry.
            let r = (0..3)
                .filter(|&i| !assigned[i])
                .max_by(|&a, &b| w[a].abs().partial_cmp(&w[b].abs()).unwrap())
                .unwrap();
            assigned[r] = true;
            eta.push(r, &w, 1e-12);
        }

        // FTRAN: B x = rhs.
        let rhs = [1.0, 2.0, 3.0];
        let mut x = rhs;
        eta.ftran(&mut x);
        for i in 0..3 {
            let got: f64 = (0..3).map(|j| b_cols[j][i] * x[j]).sum();
            assert!((got - rhs[i]).abs() < 1e-9, "FTRAN row {i}: {got}");
        }

        // BTRAN: Bᵀ y = c.
        let c = [3.0, -1.0, 0.5];
        let mut y = c;
        eta.btran(&mut y);
        for (j, col) in b_cols.iter().enumerate() {
            let got: f64 = (0..3).map(|i| col[i] * y[i]).sum();
            assert!((got - c[j]).abs() < 1e-9, "BTRAN col {j}: {got}");
        }
    }

    #[test]
    fn clear_resets_the_file() {
        let mut eta = EtaFile::default();
        eta.push(0, &[2.0, 1.0], 1e-12);
        assert_eq!(eta.len(), 1);
        assert!(eta.nnz() >= 1);
        eta.clear();
        assert_eq!(eta.len(), 0);
        let mut w = [5.0, 7.0];
        eta.ftran(&mut w);
        assert_eq!(w, [5.0, 7.0], "empty file is the identity");
    }
}
