//! Per-color router configuration with runtime-switchable positions.
//!
//! A WSE router routes a wavelet by its color: each color has a
//! configuration — a set of accepted input links (`rx`) and a set of output
//! links (`tx`). A wavelet arriving on an `rx` link is forwarded to **all**
//! `tx` links (local broadcast). Up to two *switch positions* can be defined
//! per color; a control wavelet flips the active position after being
//! forwarded, which is how the paper's Fig. 6 alternates a PE between
//! *Sending* (config 0: `ramp → fabric`) and *Receiving* (config 1:
//! `fabric → ramp`).

use crate::geometry::Direction;
use crate::wavelet::{Color, MAX_COLORS};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A set of router links, packed as a bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct DirMask(u8);

impl DirMask {
    /// The empty set.
    pub const EMPTY: DirMask = DirMask(0);

    /// A set from a list of directions.
    pub const fn of(dirs: &[Direction]) -> Self {
        let mut bits = 0u8;
        let mut i = 0;
        while i < dirs.len() {
            bits |= 1 << (dirs[i] as u8);
            i += 1;
        }
        DirMask(bits)
    }

    /// Single-direction set.
    pub const fn single(dir: Direction) -> Self {
        DirMask(1 << (dir as u8))
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, dir: Direction) -> bool {
        self.0 & (1 << (dir as u8)) != 0
    }

    /// Union.
    #[inline]
    pub fn with(self, dir: Direction) -> Self {
        DirMask(self.0 | (1 << (dir as u8)))
    }

    /// Number of members.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over member directions in N, E, S, W, Ramp order.
    pub fn iter(self) -> impl Iterator<Item = Direction> {
        use Direction::*;
        [North, East, South, West, Ramp]
            .into_iter()
            .filter(move |d| self.contains(*d))
    }
}

/// One switch position of a color's route: which links it accepts wavelets
/// from and which links it forwards them to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RouterPosition {
    /// Accepted input links.
    pub rx: DirMask,
    /// Output links (wavelets are forwarded to **all** of them).
    pub tx: DirMask,
}

impl RouterPosition {
    /// Builds a position.
    pub const fn new(rx: DirMask, tx: DirMask) -> Self {
        Self { rx, tx }
    }
}

/// A color's routing configuration: one or two switch positions plus the
/// currently active one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColorConfig {
    positions: [RouterPosition; 2],
    num_positions: u8,
    current: u8,
}

impl ColorConfig {
    /// A single-position (static) route.
    pub const fn fixed(pos: RouterPosition) -> Self {
        Self {
            positions: [pos, pos],
            num_positions: 1,
            current: 0,
        }
    }

    /// A two-position switchable route, starting in `initial` (0 or 1).
    pub fn switchable(pos0: RouterPosition, pos1: RouterPosition, initial: usize) -> Self {
        assert!(initial < 2);
        Self {
            positions: [pos0, pos1],
            num_positions: 2,
            current: initial as u8,
        }
    }

    /// The active position.
    #[inline]
    pub fn active(&self) -> RouterPosition {
        self.positions[self.current as usize]
    }

    /// The active position's index (0 or 1).
    #[inline]
    pub fn current_index(&self) -> usize {
        self.current as usize
    }

    /// Toggles between positions (no-op for a fixed route).
    #[inline]
    pub fn toggle(&mut self) {
        if self.num_positions == 2 {
            self.current ^= 1;
        }
    }

    /// True for single-position routes (built with [`ColorConfig::fixed`]).
    #[inline]
    pub fn is_fixed(&self) -> bool {
        self.num_positions == 1
    }
}

/// What a router does with one incoming wavelet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteOutcome {
    /// Links the wavelet is forwarded to (may include `Ramp`), as a mask —
    /// no allocation on the routing hot path.
    pub outputs: DirMask,
    /// Whether a switch toggle occurred (control wavelet).
    pub toggled: bool,
    /// The active switch-position index after any toggle.
    pub position: usize,
    /// Whether the color's route is single-position (can never switch).
    /// Fixed single-cardinal-output routes are the passive-forwarding hops
    /// the fabric's static-route fast-forwarding elides.
    pub fixed: bool,
}

impl RouteOutcome {
    /// The traffic this outcome implies, as `(fabric_hops,
    /// ramp_deliveries)` increments: a ramp output is a delivery, every
    /// other output link is a fabric hop. Routing itself is pure; the
    /// fabric applies these to its per-PE counter arena.
    #[inline]
    pub fn hop_counts(&self) -> (u64, u64) {
        if self.outputs.contains(Direction::Ramp) {
            ((self.outputs.len() - 1) as u64, 1)
        } else {
            (self.outputs.len() as u64, 0)
        }
    }
}

/// The *static* half of a router: the 24 per-color configurations as
/// installed by the program, with each color's `current` field holding its
/// initial switch position. SPMD programs install only a handful of
/// distinct tables across the whole fabric (interior / edge / corner /
/// parity variants), so the fabric interns equal tables into shared
/// `Arc<RouteTable>`s — O(classes) route storage instead of O(PEs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    configs: [Option<ColorConfig>; MAX_COLORS],
}

/// One word per color, hashed as one slice: interning a table at load then
/// costs the hasher one write instead of one per field. Equal tables pack
/// equally, as `Eq` requires; and since a link mask has 5 bits, distinct
/// tables pack differently too.
impl Hash for RouteTable {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let packed = self.configs.map(|c| {
            c.map_or(0, |c| {
                let [p0, p1] = c
                    .positions
                    .map(|p| u32::from(p.rx.0) | u32::from(p.tx.0) << 5);
                1 | p0 << 1
                    | p1 << 11
                    | u32::from(c.num_positions) << 21
                    | u32::from(c.current) << 23
            })
        });
        u32::hash_slice(&packed, state);
    }
}

impl RouteTable {
    /// A table with no colors configured.
    pub fn empty() -> Self {
        Self {
            configs: [None; MAX_COLORS],
        }
    }

    /// The installed configuration of a color (with `current` at its
    /// *initial* position — the live position is the router's dynamic
    /// state).
    #[inline]
    pub fn config(&self, color: Color) -> Option<&ColorConfig> {
        self.configs[color.index()].as_ref()
    }

    /// True if no color is configured.
    pub fn is_empty(&self) -> bool {
        self.configs.iter().all(|c| c.is_none())
    }
}

/// The one empty table every fresh router shares — building a paper-scale
/// fabric must not allocate 738k identical empty tables before `load`
/// interns the real ones.
fn empty_table() -> Arc<RouteTable> {
    static EMPTY: OnceLock<Arc<RouteTable>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(RouteTable::empty())).clone()
}

/// A per-PE router, split into an interned static [`RouteTable`] and one
/// word of dynamic state: the active switch position of each color (one
/// bit per color).
#[derive(Debug, Clone)]
pub struct Router {
    table: Arc<RouteTable>,
    /// Bit `c` = the active switch position of color `c`.
    current_bits: u32,
}

impl Default for Router {
    fn default() -> Self {
        Self::new()
    }
}

impl Router {
    /// A router with no colors configured.
    pub fn new() -> Self {
        Self {
            table: empty_table(),
            current_bits: 0,
        }
    }

    /// Installs a color configuration (program-load time on real hardware).
    /// Clones the static table if it is shared (copy-on-write), so a color
    /// added after load quietly un-interns the PE from its class.
    pub fn configure(&mut self, color: Color, config: ColorConfig) {
        Arc::make_mut(&mut self.table).configs[color.index()] = Some(config);
        self.set_current(color.index(), config.current_index() as u8);
    }

    #[inline]
    fn current(&self, idx: usize) -> usize {
        ((self.current_bits >> idx) & 1) as usize
    }

    #[inline]
    fn set_current(&mut self, idx: usize, pos: u8) {
        self.current_bits = (self.current_bits & !(1 << idx)) | ((pos as u32 & 1) << idx);
    }

    /// The static route table (shared across the PE's equivalence class).
    #[inline]
    pub fn table(&self) -> &Arc<RouteTable> {
        &self.table
    }

    /// Swaps the static table for a canonical shared copy with identical
    /// content — the fabric's interning hook. Dynamic state is untouched.
    pub fn intern_table(&mut self, canonical: &Arc<RouteTable>) {
        debug_assert_eq!(*self.table, **canonical, "interning must preserve routes");
        self.table = Arc::clone(canonical);
    }

    /// The configuration of a color, if installed, with `current` set to
    /// the *live* switch position.
    pub fn config(&self, color: Color) -> Option<ColorConfig> {
        self.table.configs[color.index()].map(|mut c| {
            c.current = self.current(color.index()) as u8;
            c
        })
    }

    /// The active switch-position index of a color (testing/diagnostics).
    pub fn position_index(&self, color: Color) -> Option<usize> {
        self.table.configs[color.index()].map(|_| self.current(color.index()))
    }

    /// Force-toggles a color's switch position outside the normal control
    /// protocol — the fault injector's model of a spurious configuration
    /// switch. Returns the new position index when the flip had an effect;
    /// `None` (benign) when the color is unconfigured or not switchable.
    pub fn force_toggle(&mut self, color: Color) -> Option<usize> {
        let idx = color.index();
        let cfg = self.table.configs[idx].as_ref()?;
        if cfg.num_positions != 2 {
            return None;
        }
        self.current_bits ^= 1 << idx;
        Some(self.current(idx))
    }

    /// Dynamic per-color switch positions as `(color id, active position)`
    /// pairs for every configured color, in color order — the part of the
    /// router a fabric checkpoint must capture. The configurations
    /// themselves are static program state, reinstalled by program `init`
    /// on the restore target.
    pub fn switch_positions(&self) -> Vec<(u8, u8)> {
        self.table
            .configs
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|_| (i as u8, self.current(i) as u8)))
            .collect()
    }

    /// Restores the dynamic state captured by [`Router::switch_positions`].
    /// Fails when a listed color is unconfigured on this router or its
    /// position index is out of range — the snapshot belongs to a
    /// differently-programmed fabric.
    pub fn restore_dynamic(&mut self, positions: &[(u8, u8)]) -> Result<(), String> {
        for &(id, current) in positions {
            let cfg = self
                .table
                .configs
                .get(id as usize)
                .and_then(|c| c.as_ref())
                .ok_or_else(|| format!("color {id} is not configured on this router"))?;
            if current >= cfg.num_positions {
                return Err(format!(
                    "color {id}: position {current} out of range ({} configured)",
                    cfg.num_positions
                ));
            }
            self.set_current(id as usize, current);
        }
        Ok(())
    }

    /// Routes one wavelet arriving on `input`. Returns the output links.
    /// Pure with respect to traffic accounting: the caller applies
    /// [`RouteOutcome::hop_counts`] to its counter arena.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error if the color is unconfigured or the
    /// active position does not accept the input link — both are program
    /// bugs that real hardware would surface as a hang.
    pub fn route(
        &mut self,
        color: Color,
        input: Direction,
        is_control: bool,
    ) -> Result<RouteOutcome, RouteError> {
        let idx = color.index();
        let cfg = self.table.configs[idx]
            .as_ref()
            .ok_or(RouteError::UnconfiguredColor(color))?;
        let pos = cfg.positions[self.current(idx)];
        if !pos.rx.contains(input) {
            return Err(RouteError::InputNotAccepted {
                color,
                input,
                position: self.current(idx),
            });
        }
        let outputs = pos.tx;
        let fixed = cfg.num_positions == 1;
        let toggled = if is_control {
            if !fixed {
                self.current_bits ^= 1 << idx;
            }
            true
        } else {
            false
        };
        Ok(RouteOutcome {
            outputs,
            toggled,
            position: self.current(idx),
            fixed,
        })
    }
}

/// Routing failure: a misconfigured program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// No configuration installed for this color on this router.
    UnconfiguredColor(Color),
    /// The active switch position does not accept this input link.
    InputNotAccepted {
        /// The wavelet's color.
        color: Color,
        /// The link it arrived on.
        input: Direction,
        /// The active switch position index.
        position: usize,
    },
    /// A task handler tried to re-configure a color that was already
    /// configured: routes are frozen once the fabric is loaded
    /// (`PeContext::configure_color`).
    Frozen(Color),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::UnconfiguredColor(c) => {
                write!(f, "color {} has no route on this router", c.id())
            }
            RouteError::InputNotAccepted {
                color,
                input,
                position,
            } => write!(
                f,
                "color {} (position {position}) does not accept input {input:?}",
                color.id()
            ),
            RouteError::Frozen(c) => write!(
                f,
                "color {} is already routed; loaded routes cannot be re-configured",
                c.id()
            ),
        }
    }
}

impl std::error::Error for RouteError {}

#[cfg(test)]
mod tests {
    use super::*;
    use Direction::*;

    #[test]
    fn dirmask_basics() {
        let m = DirMask::of(&[North, Ramp]);
        assert!(m.contains(North));
        assert!(m.contains(Ramp));
        assert!(!m.contains(East));
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert!(DirMask::EMPTY.is_empty());
        let n = m.with(East);
        assert_eq!(n.len(), 3);
        let members: Vec<_> = n.iter().collect();
        assert_eq!(members, vec![North, East, Ramp]);
    }

    #[test]
    fn fixed_route_forwards_to_all_outputs() {
        let mut r = Router::new();
        let c = Color::new(2);
        r.configure(
            c,
            ColorConfig::fixed(RouterPosition::new(
                DirMask::single(Ramp),
                DirMask::of(&[East, West]),
            )),
        );
        let out = r.route(c, Ramp, false).unwrap();
        assert_eq!(out.outputs, DirMask::of(&[East, West]));
        assert!(!out.toggled);
        assert!(out.fixed);
        assert_eq!(out.hop_counts(), (2, 0));
    }

    #[test]
    fn unconfigured_color_errors() {
        let mut r = Router::new();
        let err = r.route(Color::new(5), Ramp, false).unwrap_err();
        assert_eq!(err, RouteError::UnconfiguredColor(Color::new(5)));
        assert!(format!("{err}").contains("no route"));
    }

    #[test]
    fn wrong_input_errors() {
        let mut r = Router::new();
        let c = Color::new(1);
        r.configure(
            c,
            ColorConfig::fixed(RouterPosition::new(
                DirMask::single(Ramp),
                DirMask::single(East),
            )),
        );
        let err = r.route(c, West, false).unwrap_err();
        assert!(matches!(err, RouteError::InputNotAccepted { .. }));
        assert!(format!("{err}").contains("does not accept"));
    }

    #[test]
    fn control_wavelet_toggles_switch_position() {
        // Paper Fig. 6: config 0 = Sending (ramp → east), config 1 =
        // Receiving (west → ramp). A control wavelet flips them.
        let mut r = Router::new();
        let c = Color::new(0);
        let sending = RouterPosition::new(DirMask::single(Ramp), DirMask::single(East));
        let receiving = RouterPosition::new(DirMask::single(West), DirMask::single(Ramp));
        r.configure(c, ColorConfig::switchable(sending, receiving, 0));
        assert_eq!(r.position_index(c), Some(0));

        // data flows ramp → east while in position 0
        let out = r.route(c, Ramp, false).unwrap();
        assert_eq!(out.outputs, DirMask::single(East));
        assert!(!out.fixed);

        // control wavelet is forwarded AND toggles
        let out = r.route(c, Ramp, true).unwrap();
        assert!(out.toggled);
        assert_eq!(out.outputs, DirMask::single(East));
        assert_eq!(r.position_index(c), Some(1));

        // now the router receives from the west instead
        let out = r.route(c, West, false).unwrap();
        assert_eq!(out.outputs, DirMask::single(Ramp));
        assert_eq!(out.hop_counts(), (0, 1));

        // ramp sends are rejected in receive position
        assert!(r.route(c, Ramp, false).is_err());

        // a second control returns to the initial position (involution)
        let _ = r.route(c, West, true).unwrap();
        assert_eq!(r.position_index(c), Some(0));
    }

    #[test]
    fn toggle_is_noop_for_fixed_routes() {
        let mut cfg = ColorConfig::fixed(RouterPosition::new(
            DirMask::single(Ramp),
            DirMask::single(North),
        ));
        let before = cfg.active();
        cfg.toggle();
        assert_eq!(cfg.active(), before);
    }

    #[test]
    fn broadcast_to_four_directions_counts_hops() {
        // The cardinal-exchange send: one wavelet fans to N, E, S, W.
        let mut r = Router::new();
        let c = Color::new(9);
        r.configure(
            c,
            ColorConfig::fixed(RouterPosition::new(
                DirMask::single(Ramp),
                DirMask::of(&[North, East, South, West]),
            )),
        );
        let out = r.route(c, Ramp, false).unwrap();
        assert_eq!(out.outputs.len(), 4);
        assert_eq!(out.hop_counts(), (4, 0));
    }

    #[test]
    fn interning_shares_tables_without_touching_switch_positions() {
        let sending = RouterPosition::new(DirMask::single(Ramp), DirMask::single(East));
        let receiving = RouterPosition::new(DirMask::single(West), DirMask::single(Ramp));
        let mut a = Router::new();
        let mut b = Router::new();
        let c = Color::new(0);
        a.configure(c, ColorConfig::switchable(sending, receiving, 0));
        b.configure(c, ColorConfig::switchable(sending, receiving, 0));
        // equal content, separate allocations
        assert_eq!(**a.table(), **b.table());
        assert!(!Arc::ptr_eq(a.table(), b.table()));
        // intern b onto a's canonical table
        let canonical = Arc::clone(a.table());
        let _ = b.route(c, Ramp, true).unwrap(); // b toggles first
        b.intern_table(&canonical);
        assert!(Arc::ptr_eq(a.table(), b.table()));
        assert_eq!(b.position_index(c), Some(1), "switch position survives");
        assert_eq!(a.position_index(c), Some(0));
        // reconfiguring b un-shares via copy-on-write; a is unaffected
        b.configure(c, ColorConfig::fixed(sending));
        assert!(!Arc::ptr_eq(a.table(), b.table()));
        assert_eq!(a.position_index(c), Some(0));
        assert!(b.config(c).unwrap().is_fixed());
    }

    #[test]
    fn fresh_routers_share_the_empty_table() {
        let a = Router::new();
        let b = Router::new();
        assert!(Arc::ptr_eq(a.table(), b.table()));
        assert!(a.table().is_empty());
    }
}
