//! PE memory layout for the TPFA program (paper §5.1 and §5.3.1).
//!
//! "Each PE allocates memory space for its current residual, pressure, and
//! gravity coefficients, as well as 10 transmissibilities for the fluxes
//! between the cell and its neighbors. Each PE also allocates space to
//! receive the pressure and gravity coefficients from all eight neighboring
//! cells." (§5.1)
//!
//! The buffer-reuse optimization of §5.3.1 is reflected directly: the
//! kernel's temporaries are three shared columns reused across all ten
//! faces (instead of per-face scratch), which is what lets the largest
//! problems fit the 48 kB scratchpad. [`MemoryPlan::max_nz`] computes the
//! largest Z extent a PE can hold — with and without the optimization — so
//! the ablation is quantitative.

use fv_core::mesh::NEIGHBOR_COUNT;
use serde::{Deserialize, Serialize};

/// Number of in-plane neighbor streams received per PE.
pub const IN_PLANE_NEIGHBORS: usize = 8;

/// Quantities per neighbor stream (pressure + density column).
pub const QUANTITIES_PER_STREAM: usize = 2;

/// Temp columns with buffer reuse (§5.3.1): dp/potential, ρ-average, work.
pub const REUSED_TEMPS: usize = 3;

/// Word budget of a PE for a given Z extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryPlan {
    /// Z extent (cells per column).
    pub nz: usize,
    /// Own pressure column incl. 2 ghost cells.
    pub p_own: usize,
    /// Own density column incl. 2 ghost cells.
    pub rho_own: usize,
    /// Residual column.
    pub residual: usize,
    /// Ten per-face transmissibility columns.
    pub trans: usize,
    /// Receive buffers: 8 neighbors × (p, ρ).
    pub recv: usize,
    /// Reused kernel temporaries.
    pub temps: usize,
    /// The program's state words ([`wse_stencil::state_words`]): step
    /// counter, pending hooks, receive cursors and sent flags.
    pub state: usize,
}

impl MemoryPlan {
    /// The layout for a column of `nz` cells.
    pub fn for_nz(nz: usize) -> Self {
        assert!(nz >= 1);
        Self {
            nz,
            p_own: nz + 2,
            rho_own: nz + 2,
            residual: nz,
            trans: NEIGHBOR_COUNT * nz,
            recv: IN_PLANE_NEIGHBORS * QUANTITIES_PER_STREAM * nz,
            temps: REUSED_TEMPS * nz,
            state: wse_stencil::state_words(IN_PLANE_NEIGHBORS),
        }
    }

    /// Total words required with buffer reuse (§5.3.1 enabled).
    pub fn total_words(&self) -> usize {
        self.p_own + self.rho_own + self.residual + self.trans + self.recv + self.temps + self.state
    }

    /// Total words if every face kept its own scratch (reuse disabled):
    /// ten faces × three temporaries instead of three shared ones.
    pub fn total_words_without_reuse(&self) -> usize {
        self.total_words() - self.temps + NEIGHBOR_COUNT * REUSED_TEMPS * self.nz
    }

    /// True if the plan fits a memory of `capacity_words`.
    pub fn fits(&self, capacity_words: usize) -> bool {
        self.total_words() <= capacity_words
    }

    /// Largest `nz` whose plan fits `capacity_words` (with reuse). Returns
    /// 0 if not even one layer fits.
    pub fn max_nz(capacity_words: usize) -> usize {
        max_nz_fitting(capacity_words, |nz| Self::for_nz(nz).total_words())
    }

    /// Largest `nz` that fits *without* the §5.3.1 buffer-reuse
    /// optimization (the ablation baseline).
    pub fn max_nz_without_reuse(capacity_words: usize) -> usize {
        max_nz_fitting(capacity_words, |nz| {
            Self::for_nz(nz).total_words_without_reuse()
        })
    }
}

/// Largest `nz ≥ 1` whose footprint `words_per_pe(nz)` fits
/// `capacity_words`, or 0 if not even one layer fits. The footprint must
/// grow with `nz`.
pub(crate) fn max_nz_fitting(
    capacity_words: usize,
    words_per_pe: impl Fn(usize) -> usize,
) -> usize {
    let (mut lo, mut hi) = (0, capacity_words);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if words_per_pe(mid) <= capacity_words {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// The concrete word-level layout of a PE's column data, shared between the
/// PE program (which allocates in exactly this order) and the host driver
/// (which `memcpy`s transmissibilities/pressure in and residuals out).
///
/// Own pressure/density columns carry one ghost cell at each end so the Z
/// faces can be computed with full-length shifted DSD views; ghost
/// contributions are killed by zero boundary transmissibilities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnLayout {
    /// Z extent.
    pub nz: usize,
    /// Own pressure column, `nz + 2` words (ghosts at both ends).
    pub p_own: wse_sim::memory::MemRange,
    /// Own density column, `nz + 2` words.
    pub rho_own: wse_sim::memory::MemRange,
    /// Residual column, `nz` words.
    pub residual: wse_sim::memory::MemRange,
    /// Ten transmissibility columns in canonical face order, `nz` each.
    pub trans: [wse_sim::memory::MemRange; NEIGHBOR_COUNT],
    /// Neighbor pressure receive buffers (faces 0–7), `nz` each.
    pub recv_p: [wse_sim::memory::MemRange; IN_PLANE_NEIGHBORS],
    /// Neighbor density receive buffers (faces 0–7), `nz` each.
    pub recv_rho: [wse_sim::memory::MemRange; IN_PLANE_NEIGHBORS],
    /// The three reused temporaries, `nz` each.
    pub temps: [wse_sim::memory::MemRange; REUSED_TEMPS],
}

impl ColumnLayout {
    /// Computes the layout for a column of `nz` cells, starting at word 0
    /// (the PE program performs its allocations in exactly this order).
    pub fn new(nz: usize) -> Self {
        use wse_sim::memory::MemRange;
        let mut next = 0usize;
        let mut take = |len: usize| {
            let r = MemRange { offset: next, len };
            next += len;
            r
        };
        let p_own = take(nz + 2);
        let rho_own = take(nz + 2);
        let residual = take(nz);
        let trans = std::array::from_fn(|_| take(nz));
        let recv_p = std::array::from_fn(|_| take(nz));
        let recv_rho = std::array::from_fn(|_| take(nz));
        let temps = std::array::from_fn(|_| take(nz));
        Self {
            nz,
            p_own,
            rho_own,
            residual,
            trans,
            recv_p,
            recv_rho,
            temps,
        }
    }

    /// The kernel's words: [`MemoryPlan::total_words`] less the program's
    /// state words, which follow them.
    pub fn total_words(&self) -> usize {
        let last = self.temps[REUSED_TEMPS - 1];
        last.offset + last.len
    }

    /// Interior (non-ghost) view of the own pressure column.
    pub fn p_interior(&self) -> wse_sim::dsd::Dsd {
        wse_sim::dsd::Dsd::contiguous(self.p_own.offset + 1, self.nz)
    }

    /// Interior view of the own density column.
    pub fn rho_interior(&self) -> wse_sim::dsd::Dsd {
        wse_sim::dsd::Dsd::contiguous(self.rho_own.offset + 1, self.nz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wse_sim::memory::WSE2_PE_MEMORY_BYTES;

    const WSE2_WORDS: usize = WSE2_PE_MEMORY_BYTES / 4;

    #[test]
    fn plan_components_add_up() {
        let p = MemoryPlan::for_nz(10);
        assert_eq!(p.p_own, 12);
        assert_eq!(p.rho_own, 12);
        assert_eq!(p.residual, 10);
        assert_eq!(p.trans, 100);
        assert_eq!(p.recv, 160);
        assert_eq!(p.temps, 30);
        assert_eq!(p.state, 11);
        assert_eq!(p.total_words(), 12 + 12 + 10 + 100 + 160 + 30 + 11);
    }

    #[test]
    fn papers_nz_246_fits_wse2_scratchpad() {
        // The paper's production mesh has Nz = 246; it must fit a 48 kB PE.
        let p = MemoryPlan::for_nz(246);
        assert!(
            p.fits(WSE2_WORDS),
            "Nz=246 needs {} of {WSE2_WORDS} words",
            p.total_words()
        );
    }

    #[test]
    fn max_nz_is_tight() {
        let m = MemoryPlan::max_nz(WSE2_WORDS);
        assert!(MemoryPlan::for_nz(m).fits(WSE2_WORDS));
        assert!(!MemoryPlan::for_nz(m + 1).fits(WSE2_WORDS));
        assert!(m >= 246, "must at least fit the paper's mesh; got {m}");
    }

    #[test]
    fn buffer_reuse_enlarges_max_problem() {
        // §5.3.1: "by minimizing the amount of memory the implementation
        // requires, larger problems can be solved."
        let with = MemoryPlan::max_nz(WSE2_WORDS);
        let without = MemoryPlan::max_nz_without_reuse(WSE2_WORDS);
        assert!(
            with > without,
            "reuse must help: with={with}, without={without}"
        );
        // The paper's mesh would NOT fit without reuse at these budgets.
        assert!(MemoryPlan::for_nz(246).total_words_without_reuse() > WSE2_WORDS);
    }

    #[test]
    fn max_nz_of_tiny_memory_is_zero_or_small() {
        assert_eq!(MemoryPlan::max_nz(10), 0);
        let m = MemoryPlan::max_nz(200);
        assert!(m >= 1);
        assert!(MemoryPlan::for_nz(m).fits(200));
    }

    #[test]
    fn column_layout_matches_memory_plan() {
        for nz in [1, 7, 246] {
            let (l, plan) = (ColumnLayout::new(nz), MemoryPlan::for_nz(nz));
            assert_eq!(l.total_words() + plan.state, plan.total_words());
        }
    }

    #[test]
    fn column_layout_ranges_are_disjoint_and_ordered() {
        let l = ColumnLayout::new(5);
        let mut ranges = vec![l.p_own, l.rho_own, l.residual];
        ranges.extend(l.trans);
        ranges.extend(l.recv_p);
        ranges.extend(l.recv_rho);
        ranges.extend(l.temps);
        for w in ranges.windows(2) {
            assert_eq!(w[0].offset + w[0].len, w[1].offset, "contiguous order");
        }
        assert_eq!(ranges[0].offset, 0);
    }

    #[test]
    fn interior_views_skip_ghosts() {
        let l = ColumnLayout::new(4);
        assert_eq!(l.p_interior().base, l.p_own.offset + 1);
        assert_eq!(l.p_interior().len, 4);
        assert_eq!(l.rho_interior().base, l.rho_own.offset + 1);
        // shifting the interior view by ±1 stays inside the ghosted column
        let up = l.p_interior().shifted(1);
        assert_eq!(up.base + up.len - 1, l.p_own.offset + l.p_own.len - 1);
        let down = l.p_interior().shifted(-1);
        assert_eq!(down.base, l.p_own.offset);
    }
}
