//! Compiled communication artifacts: color lanes and per-PE route
//! programs.
//!
//! A [`CommPattern`] is the pure-data output of [`crate::compile()`]: for
//! every in-plane stream of the spec it records either a *cardinal lane*
//! (one switchable color implementing the paper's Fig. 6 two-step
//! hand-over) or a *diagonal lane* (a family of `phases` static colors
//! implementing the Fig. 5 source → intermediary → receiver relay).
//! [`CommPattern::route_program`] renders the per-PE router
//! configuration — the artifact that is uploaded to each router at
//! `Fabric::load` time.

use std::collections::HashSet;
use wse_sim::geometry::{Direction, FabricDims, PeCoord};
use wse_sim::route::{ColorConfig, DirMask, RouterPosition};
use wse_sim::wavelet::Color;

/// One switchable cardinal exchange color.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CardinalLane {
    /// The color.
    pub color: Color,
    /// Data movement direction (send side).
    pub send_dir: Direction,
    /// Stream index (into the spec's offsets / the receive buffers).
    pub stream: usize,
    /// The delivered neighbor's offset `(dx, dy)`.
    pub offset: (i32, i32),
}

impl CardinalLane {
    /// Coordinate along the movement axis.
    fn axis_pos(&self, c: PeCoord) -> usize {
        match self.send_dir {
            Direction::East | Direction::West => c.col,
            _ => c.row,
        }
    }

    /// Axis extent on the fabric.
    fn axis_len(&self, dims: FabricDims) -> usize {
        match self.send_dir {
            Direction::East | Direction::West => dims.cols,
            _ => dims.rows,
        }
    }

    /// True if PE `c` sends in step 1 (the *Sending* initial position).
    ///
    /// The trailing-edge PE (the one with no upstream neighbor to hand it
    /// the channel) must always be a first-sender: for eastward movement
    /// that is column 0 (even parity); for westward movement it is column
    /// `cols − 1`, whose parity depends on the fabric width.
    pub fn is_first_sender(&self, dims: FabricDims, c: PeCoord) -> bool {
        let pos = self.axis_pos(c);
        let trailing: usize = match self.send_dir {
            Direction::East | Direction::South => 0,
            _ => self.axis_len(dims) - 1,
        };
        pos % 2 == trailing % 2
    }

    /// True if PE `c` will receive a column on this lane (the delivered
    /// neighbor exists on the fabric).
    pub fn has_sender(&self, dims: FabricDims, c: PeCoord) -> bool {
        in_bounds(dims, c, self.offset)
    }

    /// The router configuration at PE `c` (Fig. 6's two switch positions;
    /// first-senders start in Sending).
    ///
    /// The trailing-edge PE (no upstream neighbor on this lane) never
    /// receives on it, so its route is a *fixed* Sending position: control
    /// wavelets leave its switch state untouched, which is what makes the
    /// per-iteration toggle count even on every router and returns the
    /// whole fabric to its initial configuration after the two steps. (On
    /// the real CS-2 the reserved boundary-PE layer plays this role.)
    pub fn router_config(&self, dims: FabricDims, c: PeCoord) -> ColorConfig {
        let sending = RouterPosition::new(
            DirMask::single(Direction::Ramp),
            DirMask::single(self.send_dir),
        );
        let receiving = RouterPosition::new(
            DirMask::single(self.send_dir.arrival_side()),
            DirMask::single(Direction::Ramp),
        );
        if !self.has_sender(dims, c) {
            return ColorConfig::fixed(sending);
        }
        let initial = if self.is_first_sender(dims, c) { 0 } else { 1 };
        ColorConfig::switchable(sending, receiving, initial)
    }
}

/// One diagonal family: two legs and a rotating phase coloring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiagonalLane {
    /// First-leg output direction (at the source).
    pub leg1: Direction,
    /// Second-leg output direction (at the intermediary).
    pub leg2: Direction,
    /// Stream index (into the spec's offsets / the receive buffers).
    pub stream: usize,
    /// The delivered neighbor's offset `(dx, dy)`.
    pub offset: (i32, i32),
    /// Base color id (`phases` consecutive colors).
    pub base_color: u8,
    /// Number of phase colors in this family.
    pub phases: u8,
    /// Key uses `x + y` (true) or `x − y` (false).
    pub key_sum: bool,
    /// Key increment per hop along the path (+1 or −1).
    pub key_step: i64,
}

impl DiagonalLane {
    /// The phase key of a PE for this family.
    pub fn key(&self, c: PeCoord) -> i64 {
        if self.key_sum {
            c.col as i64 + c.row as i64
        } else {
            c.col as i64 - c.row as i64
        }
    }

    /// The source, intermediary and receive colors of PE `c`: the phases
    /// of `key`, `key − key_step` and `key − 2·key_step`. Only the first
    /// takes a division: `key_step` is ±1, so each next phase is the last
    /// one stepped and wrapped by at most one period.
    fn role_colors(&self, c: PeCoord) -> [Color; 3] {
        let phases = i64::from(self.phases);
        debug_assert!(self.key_step.abs() <= phases, "{self:?}");
        let mut phase = self.key(c).rem_euclid(phases);
        [(); 3].map(|()| {
            let color = Color::new(self.base_color + phase as u8);
            phase -= self.key_step;
            if phase < 0 {
                phase += phases;
            } else if phase >= phases {
                phase -= phases;
            }
            color
        })
    }

    /// The color a PE *sources* (sends its own column on) for this family.
    pub fn source_color(&self, c: PeCoord) -> Color {
        self.role_colors(c)[0]
    }

    /// The color on which a PE *receives* this family's stream (the data
    /// of its delivered neighbor): the stream sourced two hops upstream.
    pub fn receive_color(&self, c: PeCoord) -> Color {
        self.role_colors(c)[2]
    }

    /// The color this PE forwards as an intermediary.
    pub fn intermediary_color(&self, c: PeCoord) -> Color {
        self.role_colors(c)[1]
    }

    /// The three router configurations of this family's colors at PE `c`:
    /// `(color, config)` pairs for source, intermediary and receiver
    /// roles.
    pub fn router_configs(&self, c: PeCoord) -> [(Color, ColorConfig); 3] {
        let [source, inter, recv] = self.role_colors(c);
        let fixed = |rx, tx| ColorConfig::fixed(RouterPosition::new(rx, tx));
        [
            (
                source,
                fixed(DirMask::single(Direction::Ramp), DirMask::single(self.leg1)),
            ),
            (
                inter,
                fixed(
                    DirMask::single(self.leg1.arrival_side()),
                    DirMask::single(self.leg2),
                ),
            ),
            (
                recv,
                fixed(
                    DirMask::single(self.leg2.arrival_side()),
                    DirMask::single(Direction::Ramp),
                ),
            ),
        ]
    }

    /// True if PE `c` will actually receive this family's stream (the
    /// diagonal source exists on the fabric).
    pub fn has_sender(&self, dims: FabricDims, c: PeCoord) -> bool {
        in_bounds(dims, c, self.offset)
    }
}

fn in_bounds(dims: FabricDims, c: PeCoord, offset: (i32, i32)) -> bool {
    let col = c.col as i64 + offset.0 as i64;
    let row = c.row as i64 + offset.1 as i64;
    col >= 0 && row >= 0 && col < dims.cols as i64 && row < dims.rows as i64
}

/// The per-PE router program: the `(color, config)` pairs installed at
/// `Fabric::load`. `Eq`/`Hash` make programs the unit of SPMD equivalence
/// classes — two PEs with equal programs configure identical route tables,
/// which the fabric deduplicates into one shared `Arc` per class.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RouteProgram(pub Vec<(Color, ColorConfig)>);

/// The compiled communication pattern of one stencil.
#[derive(Debug, Clone, PartialEq)]
pub struct CommPattern {
    /// Host-launch / local activation color (never routed).
    pub start: Color,
    /// Same-length columns sent per stream per step.
    pub quantities: usize,
    /// Switchable cardinal lanes, in injection order.
    pub cardinals: Vec<CardinalLane>,
    /// Static diagonal families, in injection order.
    pub diagonals: Vec<DiagonalLane>,
    /// Number of receive streams (the spec's offset count; diagonal
    /// ablation keeps the original stream indexing).
    pub streams: usize,
    /// Colors reserved for host-side reduction trees, after `start`.
    pub reduction: Vec<Color>,
}

impl CommPattern {
    /// Total colors the pattern occupies (lanes + start + reduction).
    pub fn colors_used(&self) -> usize {
        self.cardinals.len()
            + self
                .diagonals
                .iter()
                .map(|d| d.phases as usize)
                .sum::<usize>()
            + 1
            + self.reduction.len()
    }

    /// The cardinal-only ablation of this pattern (the paper's §5.2.2
    /// baseline): diagonal lanes dropped, stream indexing preserved.
    pub fn without_diagonals(&self) -> Self {
        Self {
            start: self.start,
            quantities: self.quantities,
            cardinals: self.cardinals.clone(),
            diagonals: Vec::new(),
            streams: self.streams,
            reduction: self.reduction.clone(),
        }
    }

    /// The stream delivered on `color` at PE `c`, or `None` for colors
    /// that never deliver data there (sources, intermediaries, start).
    pub fn delivered_stream(&self, c: PeCoord, color: Color) -> Option<usize> {
        for lane in &self.cardinals {
            if lane.color == color {
                return Some(lane.stream);
            }
        }
        for lane in &self.diagonals {
            if lane.receive_color(c) == color {
                return Some(lane.stream);
            }
        }
        None
    }

    /// Renders the router program of PE `c`: every lane's configuration
    /// in canonical order (cardinals, then each diagonal family's
    /// source / intermediary / receiver roles).
    pub fn route_program(&self, dims: FabricDims, c: PeCoord) -> RouteProgram {
        let mut out = Vec::with_capacity(self.cardinals.len() + 3 * self.diagonals.len());
        for lane in &self.cardinals {
            out.push((lane.color, lane.router_config(dims, c)));
        }
        for lane in &self.diagonals {
            out.extend(lane.router_configs(c));
        }
        RouteProgram(out)
    }

    /// The number of distinct per-PE route programs this pattern renders
    /// on a `dims` fabric — the predicted SPMD *equivalence-class* count.
    /// Programs differ only where the fabric edge reshapes a lane (edge
    /// PEs, corners, and the diagonal families' boundary roles), so the
    /// count is O(1) in the grid size once both extents clear the
    /// pattern's reach — exactly what `Fabric::eq_classes()` reports after
    /// route deduplication at `load`.
    pub fn eq_classes(&self, dims: FabricDims) -> usize {
        let mut seen = HashSet::new();
        for c in dims.iter() {
            seen.insert(self.route_program(dims, c));
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::spec::StencilSpec;

    #[test]
    fn diagonal_roles_are_distinct_per_pe() {
        let pattern = compile(&StencilSpec::tpfa()).unwrap().pattern;
        let dims = FabricDims::new(7, 5);
        for c in dims.iter() {
            for lane in &pattern.diagonals {
                let s = lane.source_color(c);
                let i = lane.intermediary_color(c);
                let r = lane.receive_color(c);
                assert_ne!(s, i, "{c:?}");
                assert_ne!(s, r, "{c:?}");
                assert_ne!(i, r, "{c:?}");
            }
        }
    }

    #[test]
    fn diagonal_relay_chains_hop_by_hop() {
        // For every family: the PE one leg1-hop from the source forwards
        // the source's color, and the corner PE receives it.
        let pattern = compile(&StencilSpec::tpfa()).unwrap().pattern;
        let dims = FabricDims::new(12, 12);
        let src = PeCoord::new(5, 5);
        for lane in &pattern.diagonals {
            let color = lane.source_color(src);
            let inter = dims.neighbor(src, lane.leg1).unwrap();
            let recv = dims.neighbor(inter, lane.leg2).unwrap();
            assert_eq!(lane.intermediary_color(inter), color, "{lane:?}");
            assert_eq!(lane.receive_color(recv), color, "{lane:?}");
            // the receiver sees the source as its `offset` neighbor
            assert_eq!(
                (src.col as i64, src.row as i64),
                (
                    recv.col as i64 + lane.offset.0 as i64,
                    recv.row as i64 + lane.offset.1 as i64
                ),
                "{lane:?}"
            );
        }
    }

    #[test]
    fn cardinal_first_senders_alternate_and_cover_trailing_edges() {
        let pattern = compile(&StencilSpec::tpfa()).unwrap().pattern;
        for dims in [FabricDims::new(4, 5), FabricDims::new(5, 4)] {
            for lane in &pattern.cardinals {
                let trailing = match lane.send_dir {
                    Direction::East => PeCoord::new(0, 1),
                    Direction::West => PeCoord::new(dims.cols - 1, 1),
                    Direction::South => PeCoord::new(1, 0),
                    Direction::North => PeCoord::new(1, dims.rows - 1),
                    Direction::Ramp => unreachable!(),
                };
                assert!(lane.is_first_sender(dims, trailing), "{lane:?} {dims:?}");
                let a = lane.is_first_sender(dims, PeCoord::new(1, 1));
                let b = lane.is_first_sender(
                    dims,
                    match lane.send_dir {
                        Direction::East | Direction::West => PeCoord::new(2, 1),
                        _ => PeCoord::new(1, 2),
                    },
                );
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn route_program_covers_every_lane_color_once() {
        let pattern = compile(&StencilSpec::tpfa()).unwrap().pattern;
        let dims = FabricDims::new(6, 6);
        let prog = pattern.route_program(dims, PeCoord::new(3, 2));
        let mut colors: Vec<u8> = prog.0.iter().map(|(c, _)| c.id()).collect();
        colors.sort_unstable();
        colors.dedup();
        // 4 cardinal + 4 families × 3 roles, all distinct colors
        assert_eq!(colors.len(), 16);
        assert!(!colors.contains(&pattern.start.id()));
    }

    /// FNV-1a over every PE's route program in `dims.iter()` order: per
    /// `(color, config)` the color id, fixed/switchable, the initial
    /// position index, and both positions' rx/tx link sets.
    fn route_digest(pattern: &CommPattern, dims: FabricDims) -> u64 {
        fn bits(m: DirMask) -> u8 {
            use Direction::*;
            [North, East, South, West, Ramp]
                .iter()
                .enumerate()
                .fold(0, |b, (i, d)| b | ((m.contains(*d) as u8) << i))
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for c in dims.iter() {
            for (color, cfg) in pattern.route_program(dims, c).0 {
                let mut other = cfg;
                other.toggle();
                eat(color.id());
                eat(cfg.is_fixed() as u8);
                eat(cfg.current_index() as u8);
                for pos in [cfg.active(), other.active()] {
                    eat(bits(pos.rx));
                    eat(bits(pos.tx));
                }
            }
        }
        h
    }

    #[test]
    fn tpfa_route_programs_match_the_golden_digest() {
        // The fixed point that replaced the hand-written §5.2 colour and
        // route tables: these digests were recorded from those tables'
        // route programs (equal to the compiled ones) at the commit before
        // the tables were deleted. 9×9 shows all 64 equivalence classes;
        // on 3×2 every PE is on an edge. A change to either value is a
        // change to the routes every TPFA run loads.
        let pattern = compile(&StencilSpec::tpfa()).unwrap().pattern;
        for (dims, classes, digest) in [
            (FabricDims::new(9, 9), 64, 0x85b8_9021_197f_1761_u64),
            (FabricDims::new(3, 2), 6, 0x5d17_c460_7ae9_6e1d_u64),
        ] {
            assert_eq!(pattern.eq_classes(dims), classes, "{dims:?}");
            assert_eq!(route_digest(&pattern, dims), digest, "{dims:?}");
        }
    }

    #[test]
    fn ablation_drops_diagonals_but_keeps_streams() {
        let pattern = compile(&StencilSpec::tpfa()).unwrap().pattern;
        let ab = pattern.without_diagonals();
        assert_eq!(ab.streams, 8);
        assert!(ab.diagonals.is_empty());
        assert_eq!(ab.cardinals, pattern.cardinals);
    }

    #[test]
    fn eq_classes_are_constant_once_the_grid_clears_the_pattern_reach() {
        // The SPMD payoff: TPFA's class count saturates at a grid-size-
        // independent constant — interior / edge / corner variants only.
        let pattern = compile(&StencilSpec::tpfa()).unwrap().pattern;
        let at_8 = pattern.eq_classes(FabricDims::new(8, 8));
        for dims in [
            FabricDims::new(16, 16),
            FabricDims::new(32, 8),
            FabricDims::new(8, 32),
            FabricDims::new(64, 64),
        ] {
            assert_eq!(pattern.eq_classes(dims), at_8, "{dims:?}");
        }
        // Sanity: far fewer classes than PEs at scale (the diagonal
        // families' phase coloring and the cardinal sender parity make
        // programs *periodic*, so the class count saturates instead of
        // growing with the grid), and two period-aligned interior PEs
        // share one program while a corner does not.
        assert!(at_8 * 8 < 64 * 64, "expected O(1) classes, got {at_8}");
        let dims = FabricDims::new(16, 16);
        let interior = pattern.route_program(dims, PeCoord::new(7, 7));
        assert_eq!(pattern.route_program(dims, PeCoord::new(13, 13)), interior);
        assert_ne!(pattern.route_program(dims, PeCoord::new(0, 0)), interior);
    }
}
