//! 3D Cartesian mesh with the paper's memory layout and 10-face stencil.
//!
//! The paper (§5.1, §6) uses a Cartesian mesh of `Nx × Ny × Nz` cells with
//! the **X dimension innermost and the Z dimension outermost** in memory.
//! Each interior cell has flux connections to **10 neighbors**: the six
//! cardinal neighbors (±x, ±y, ±z) plus the four in-plane (X-Y) diagonal
//! neighbors, which the paper adds "to prepare the communication pattern for
//! either higher-accuracy schemes or more intricate meshes".

use serde::{Deserialize, Serialize};

/// Number of flux connections per interior cell (paper §5.1): four in-plane
/// cardinals, four in-plane diagonals, and top/bottom along Z.
pub const NEIGHBOR_COUNT: usize = 10;

/// Mesh extents in cells along each axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Extents {
    /// Number of cells along X (innermost in memory).
    pub nx: usize,
    /// Number of cells along Y.
    pub ny: usize,
    /// Number of cells along Z (outermost in memory; mapped to PE-local
    /// memory by the dataflow implementation).
    pub nz: usize,
}

impl Extents {
    /// Creates extents; every axis must be at least 1 cell.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx >= 1 && ny >= 1 && nz >= 1, "extents must be >= 1");
        Self { nx, ny, nz }
    }

    /// Total number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

/// Uniform grid spacing (cell dimensions) in meters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Spacing {
    /// Cell size along X \[m\].
    pub dx: f64,
    /// Cell size along Y \[m\].
    pub dy: f64,
    /// Cell size along Z \[m\].
    pub dz: f64,
}

impl Spacing {
    /// Equal spacing on all three axes.
    pub fn uniform(h: f64) -> Self {
        assert!(h > 0.0, "spacing must be positive");
        Self {
            dx: h,
            dy: h,
            dz: h,
        }
    }

    /// Per-axis spacing.
    pub fn new(dx: f64, dy: f64, dz: f64) -> Self {
        assert!(dx > 0.0 && dy > 0.0 && dz > 0.0, "spacing must be positive");
        Self { dx, dy, dz }
    }
}

/// Structured cell coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CellIdx {
    /// X coordinate (0-based).
    pub x: usize,
    /// Y coordinate (0-based).
    pub y: usize,
    /// Z coordinate (0-based).
    pub z: usize,
}

impl CellIdx {
    /// Creates a cell coordinate triple.
    pub fn new(x: usize, y: usize, z: usize) -> Self {
        Self { x, y, z }
    }
}

/// One of the ten flux connections of a cell (paper §5.1 / §5.2).
///
/// The `face_index` ordering is the canonical face ordering used throughout
/// the workspace: transmissibility slot `t[k]` of a cell always refers to
/// `Neighbor::from_face_index(k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Neighbor {
    /// (+1, 0, 0) — in-plane cardinal.
    East = 0,
    /// (−1, 0, 0) — in-plane cardinal.
    West = 1,
    /// (0, −1, 0) — in-plane cardinal (paper's fabric "north" is −y).
    North = 2,
    /// (0, +1, 0) — in-plane cardinal.
    South = 3,
    /// (+1, −1, 0) — in-plane diagonal.
    NorthEast = 4,
    /// (−1, −1, 0) — in-plane diagonal.
    NorthWest = 5,
    /// (+1, +1, 0) — in-plane diagonal.
    SouthEast = 6,
    /// (−1, +1, 0) — in-plane diagonal.
    SouthWest = 7,
    /// (0, 0, +1) — along Z, same PE in the dataflow mapping.
    Up = 8,
    /// (0, 0, −1) — along Z, same PE in the dataflow mapping.
    Down = 9,
}

/// All ten neighbors in canonical face order.
pub const ALL_NEIGHBORS: [Neighbor; NEIGHBOR_COUNT] = [
    Neighbor::East,
    Neighbor::West,
    Neighbor::North,
    Neighbor::South,
    Neighbor::NorthEast,
    Neighbor::NorthWest,
    Neighbor::SouthEast,
    Neighbor::SouthWest,
    Neighbor::Up,
    Neighbor::Down,
];

/// The four in-plane cardinal neighbors (paper §5.2.1).
pub const CARDINAL_XY: [Neighbor; 4] = [
    Neighbor::East,
    Neighbor::West,
    Neighbor::North,
    Neighbor::South,
];

/// The four in-plane diagonal neighbors (paper §5.2.2).
pub const DIAGONAL_XY: [Neighbor; 4] = [
    Neighbor::NorthEast,
    Neighbor::NorthWest,
    Neighbor::SouthEast,
    Neighbor::SouthWest,
];

impl Neighbor {
    /// Canonical face index in `0..NEIGHBOR_COUNT`.
    #[inline]
    pub fn face_index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Neighbor::face_index`].
    #[inline]
    pub fn from_face_index(k: usize) -> Self {
        ALL_NEIGHBORS[k]
    }

    /// Structured offset `(dx, dy, dz)` of this neighbor.
    #[inline]
    pub fn offset(self) -> (i64, i64, i64) {
        match self {
            Neighbor::East => (1, 0, 0),
            Neighbor::West => (-1, 0, 0),
            Neighbor::North => (0, -1, 0),
            Neighbor::South => (0, 1, 0),
            Neighbor::NorthEast => (1, -1, 0),
            Neighbor::NorthWest => (-1, -1, 0),
            Neighbor::SouthEast => (1, 1, 0),
            Neighbor::SouthWest => (-1, 1, 0),
            Neighbor::Up => (0, 0, 1),
            Neighbor::Down => (0, 0, -1),
        }
    }

    /// The neighbor in the opposite direction; `n.opposite().opposite() == n`.
    #[inline]
    pub fn opposite(self) -> Self {
        match self {
            Neighbor::East => Neighbor::West,
            Neighbor::West => Neighbor::East,
            Neighbor::North => Neighbor::South,
            Neighbor::South => Neighbor::North,
            Neighbor::NorthEast => Neighbor::SouthWest,
            Neighbor::NorthWest => Neighbor::SouthEast,
            Neighbor::SouthEast => Neighbor::NorthWest,
            Neighbor::SouthWest => Neighbor::NorthEast,
            Neighbor::Up => Neighbor::Down,
            Neighbor::Down => Neighbor::Up,
        }
    }

    /// True for the four in-plane diagonal connections.
    #[inline]
    pub fn is_diagonal(self) -> bool {
        matches!(
            self,
            Neighbor::NorthEast | Neighbor::NorthWest | Neighbor::SouthEast | Neighbor::SouthWest
        )
    }

    /// True for the two Z connections, which stay inside one PE's memory in
    /// the dataflow mapping (no fabric traffic, paper §7.3).
    #[inline]
    pub fn is_vertical(self) -> bool {
        matches!(self, Neighbor::Up | Neighbor::Down)
    }
}

/// A 3D Cartesian mesh: extents, spacing, and indexing helpers.
///
/// Linear cell index layout matches the paper's GPU reference implementation
/// (§6): X innermost, Z outermost, i.e. `idx = (z·Ny + y)·Nx + x`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CartesianMesh3 {
    extents: Extents,
    spacing: Spacing,
}

impl CartesianMesh3 {
    /// Creates a mesh from extents and spacing.
    pub fn new(extents: Extents, spacing: Spacing) -> Self {
        Self { extents, spacing }
    }

    /// Mesh extents.
    #[inline]
    pub fn extents(&self) -> Extents {
        self.extents
    }

    /// Grid spacing.
    #[inline]
    pub fn spacing(&self) -> Spacing {
        self.spacing
    }

    /// Number of cells along X.
    #[inline]
    pub fn nx(&self) -> usize {
        self.extents.nx
    }

    /// Number of cells along Y.
    #[inline]
    pub fn ny(&self) -> usize {
        self.extents.ny
    }

    /// Number of cells along Z.
    #[inline]
    pub fn nz(&self) -> usize {
        self.extents.nz
    }

    /// Total number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.extents.num_cells()
    }

    /// Cell volume `V_K = dx·dy·dz` \[m³\].
    #[inline]
    pub fn cell_volume(&self) -> f64 {
        self.spacing.dx * self.spacing.dy * self.spacing.dz
    }

    /// Linear index of cell `(x, y, z)` — X innermost, Z outermost.
    #[inline]
    pub fn linear(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.extents.nx && y < self.extents.ny && z < self.extents.nz);
        (z * self.extents.ny + y) * self.extents.nx + x
    }

    /// Linear index of a [`CellIdx`].
    #[inline]
    pub fn linear_idx(&self, c: CellIdx) -> usize {
        self.linear(c.x, c.y, c.z)
    }

    /// Structured coordinates of a linear index.
    #[inline]
    pub fn structured(&self, idx: usize) -> CellIdx {
        debug_assert!(idx < self.num_cells());
        let nx = self.extents.nx;
        let ny = self.extents.ny;
        let x = idx % nx;
        let y = (idx / nx) % ny;
        let z = idx / (nx * ny);
        CellIdx { x, y, z }
    }

    /// The neighbor cell of `(x, y, z)` in direction `n`, or `None` at the
    /// domain boundary (no-flow boundary condition, as in the paper).
    #[inline]
    pub fn neighbor(&self, c: CellIdx, n: Neighbor) -> Option<CellIdx> {
        let (dx, dy, dz) = n.offset();
        let x = c.x as i64 + dx;
        let y = c.y as i64 + dy;
        let z = c.z as i64 + dz;
        if x < 0
            || y < 0
            || z < 0
            || x >= self.extents.nx as i64
            || y >= self.extents.ny as i64
            || z >= self.extents.nz as i64
        {
            None
        } else {
            Some(CellIdx::new(x as usize, y as usize, z as usize))
        }
    }

    /// Elevation (center Z coordinate, increasing upward) of a cell with Z
    /// index `z` \[m\]; layer 0 is the deepest.
    ///
    /// The gravity term of Eq. (3b) uses `z_K − z_L`; with a uniform grid this
    /// is `±dz` for vertical faces and `0` in-plane.
    #[inline]
    pub fn elevation(&self, z: usize) -> f64 {
        (z as f64 + 0.5) * self.spacing.dz
    }

    /// Iterates over all cells in linear-index order (x fastest).
    pub fn cells(&self) -> impl Iterator<Item = (usize, CellIdx)> + '_ {
        (0..self.num_cells()).map(move |i| (i, self.structured(i)))
    }

    /// Number of *interior* faces of the given stencil — each connection
    /// counted once. Useful for face-based assembly and conservation checks.
    pub fn num_interior_faces(&self, include_diagonals: bool) -> usize {
        let Extents { nx, ny, nz } = self.extents;
        let mut n = 0;
        n += (nx.saturating_sub(1)) * ny * nz; // x faces
        n += nx * (ny.saturating_sub(1)) * nz; // y faces
        n += nx * ny * (nz.saturating_sub(1)); // z faces
        if include_diagonals {
            // two diagonal families per X-Y plane: (+1,+1) and (+1,-1)
            n += (nx.saturating_sub(1)) * (ny.saturating_sub(1)) * nz * 2;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh_4x3x2() -> CartesianMesh3 {
        CartesianMesh3::new(Extents::new(4, 3, 2), Spacing::new(1.0, 2.0, 3.0))
    }

    #[test]
    fn linear_layout_is_x_innermost_z_outermost() {
        let m = mesh_4x3x2();
        assert_eq!(m.linear(0, 0, 0), 0);
        assert_eq!(m.linear(1, 0, 0), 1); // x innermost
        assert_eq!(m.linear(0, 1, 0), 4); // y strides by nx
        assert_eq!(m.linear(0, 0, 1), 12); // z strides by nx*ny
        assert_eq!(m.linear(3, 2, 1), 23);
        assert_eq!(m.num_cells(), 24);
    }

    #[test]
    fn structured_inverts_linear() {
        let m = mesh_4x3x2();
        for idx in 0..m.num_cells() {
            let c = m.structured(idx);
            assert_eq!(m.linear_idx(c), idx);
        }
    }

    #[test]
    fn neighbor_offsets_roundtrip_via_opposite() {
        for n in ALL_NEIGHBORS {
            assert_eq!(n.opposite().opposite(), n);
            let (dx, dy, dz) = n.offset();
            let (ox, oy, oz) = n.opposite().offset();
            assert_eq!((dx + ox, dy + oy, dz + oz), (0, 0, 0));
        }
    }

    #[test]
    fn face_index_roundtrip() {
        for (k, n) in ALL_NEIGHBORS.iter().enumerate() {
            assert_eq!(n.face_index(), k);
            assert_eq!(Neighbor::from_face_index(k), *n);
        }
    }

    #[test]
    fn interior_cell_has_ten_neighbors() {
        let m = CartesianMesh3::new(Extents::new(3, 3, 3), Spacing::uniform(1.0));
        let c = CellIdx::new(1, 1, 1);
        let found: Vec<_> = ALL_NEIGHBORS
            .iter()
            .filter_map(|&n| m.neighbor(c, n))
            .collect();
        assert_eq!(found.len(), NEIGHBOR_COUNT);
    }

    #[test]
    fn corner_cell_clips_at_boundary() {
        let m = CartesianMesh3::new(Extents::new(3, 3, 3), Spacing::uniform(1.0));
        let c = CellIdx::new(0, 0, 0);
        // From the (0,0,0) corner only East, South, SouthEast, Up survive.
        let found: Vec<_> = ALL_NEIGHBORS
            .iter()
            .filter(|&&n| m.neighbor(c, n).is_some())
            .copied()
            .collect();
        assert_eq!(
            found,
            vec![
                Neighbor::East,
                Neighbor::South,
                Neighbor::SouthEast,
                Neighbor::Up
            ]
        );
    }

    #[test]
    fn diagonal_and_vertical_classification() {
        assert!(Neighbor::NorthEast.is_diagonal());
        assert!(!Neighbor::East.is_diagonal());
        assert!(Neighbor::Up.is_vertical());
        assert!(!Neighbor::North.is_vertical());
        assert_eq!(ALL_NEIGHBORS.iter().filter(|n| n.is_diagonal()).count(), 4);
        assert_eq!(ALL_NEIGHBORS.iter().filter(|n| n.is_vertical()).count(), 2);
    }

    #[test]
    fn neighbor_symmetry_across_shared_face() {
        // If L is K's neighbor in direction n, then K is L's neighbor in
        // direction n.opposite().
        let m = mesh_4x3x2();
        for (_, c) in m.cells() {
            for n in ALL_NEIGHBORS {
                if let Some(l) = m.neighbor(c, n) {
                    assert_eq!(m.neighbor(l, n.opposite()), Some(c));
                }
            }
        }
    }

    #[test]
    fn elevation_uses_cell_centers() {
        let m = mesh_4x3x2();
        assert_eq!(m.elevation(0), 1.5);
        assert_eq!(m.elevation(1), 4.5);
    }

    #[test]
    fn interior_face_count_matches_enumeration() {
        let m = mesh_4x3x2();
        // count via neighbor enumeration, each face once (positive dirs only)
        let count = |diag: bool| {
            let mut n = 0;
            for (_, c) in m.cells() {
                for nb in ALL_NEIGHBORS {
                    let (dx, dy, dz) = nb.offset();
                    // Count only one orientation of each connection family.
                    let positive = (dx, dy, dz) == (1, 0, 0)
                        || (dx, dy, dz) == (0, 1, 0)
                        || (dx, dy, dz) == (0, 0, 1)
                        || (diag && ((dx, dy, dz) == (1, 1, 0) || (dx, dy, dz) == (1, -1, 0)));
                    if positive && m.neighbor(c, nb).is_some() {
                        n += 1;
                    }
                }
            }
            n
        };
        assert_eq!(m.num_interior_faces(false), count(false));
        assert_eq!(m.num_interior_faces(true), count(true));
    }

    #[test]
    fn cell_volume() {
        assert_eq!(mesh_4x3x2().cell_volume(), 6.0);
    }

    #[test]
    #[should_panic]
    fn zero_extent_rejected() {
        let _ = Extents::new(0, 1, 1);
    }
}
