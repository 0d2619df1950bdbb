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
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::num::NonZeroU32;
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
/// currently active one, as one nonzero word — bit 0 set, each position's
/// `rx | tx << 5` at bits 1 and 11, the position count at bit 21 and the
/// active position at bit 23. A link mask has 5 bits, so distinct
/// configurations are distinct words, and a [`RouteTable`] compares and
/// hashes as 24 words.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColorConfig(NonZeroU32);

impl std::fmt::Debug for ColorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let positions = [self.position(0), self.position(1)];
        f.debug_struct("ColorConfig")
            .field("positions", &&positions[..self.num_positions()])
            .field("current", &self.current_index())
            .finish()
    }
}

impl ColorConfig {
    const fn new(positions: [RouterPosition; 2], num_positions: u32, current: u32) -> Self {
        let [p0, p1] = positions;
        let word = 1
            | (p0.rx.0 as u32 | (p0.tx.0 as u32) << 5) << 1
            | (p1.rx.0 as u32 | (p1.tx.0 as u32) << 5) << 11
            | num_positions << 21
            | current << 23;
        match NonZeroU32::new(word) {
            Some(word) => Self(word),
            None => unreachable!(),
        }
    }

    /// A single-position (static) route.
    pub const fn fixed(pos: RouterPosition) -> Self {
        Self::new([pos, pos], 1, 0)
    }

    /// A two-position switchable route, starting in `initial` (0 or 1).
    pub fn switchable(pos0: RouterPosition, pos1: RouterPosition, initial: usize) -> Self {
        assert!(initial < 2);
        Self::new([pos0, pos1], 2, initial as u32)
    }

    #[inline]
    fn position(self, index: usize) -> RouterPosition {
        let bits = self.0.get() >> (1 + 10 * index);
        RouterPosition {
            rx: DirMask((bits & 0x1f) as u8),
            tx: DirMask((bits >> 5 & 0x1f) as u8),
        }
    }

    #[inline]
    fn num_positions(self) -> usize {
        (self.0.get() >> 21 & 3) as usize
    }

    /// The configuration with position `index` active.
    #[inline]
    fn at(self, index: usize) -> Self {
        let word = self.0.get() & !(1 << 23) | ((index as u32 & 1) << 23);
        Self(NonZeroU32::new(word).expect("bit 0 stays set"))
    }

    /// The active position.
    #[inline]
    pub fn active(&self) -> RouterPosition {
        self.position(self.current_index())
    }

    /// The active position's index (0 or 1).
    #[inline]
    pub fn current_index(&self) -> usize {
        (self.0.get() >> 23 & 1) as usize
    }

    /// Toggles between positions (no-op for a fixed route).
    #[inline]
    pub fn toggle(&mut self) {
        if !self.is_fixed() {
            *self = self.at(self.current_index() ^ 1);
        }
    }

    /// True for single-position routes (built with [`ColorConfig::fixed`]).
    #[inline]
    pub fn is_fixed(&self) -> bool {
        self.num_positions() == 1
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
/// installed by the program, with each color's active position its
/// initial one. A configuration is one word, so a table is a plain 96-byte
/// value: [`crate::fabric::Fabric::load`] stages every PE's routes in one
/// and finds its equivalence class by those words. SPMD programs install
/// only a handful of distinct tables across the whole fabric (interior /
/// edge / corner / parity variants), and the PEs of a class share one
/// `Arc<RouteTable>` — O(classes) route storage instead of O(PEs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    configs: [Option<ColorConfig>; MAX_COLORS],
}

/// The table's words (0 for an unconfigured color) as one slice: a hasher
/// takes one write, not one per color.
impl Hash for RouteTable {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let words = self.configs.map(|c| c.map_or(0, |c| c.0.get()));
        u32::hash_slice(&words, state);
    }
}

impl RouteTable {
    /// A table with no colors configured.
    pub const fn empty() -> Self {
        Self {
            configs: [None; MAX_COLORS],
        }
    }

    /// The installed configuration of a color (with its *initial* position
    /// active — the live position is the router's dynamic state).
    #[inline]
    pub fn config(&self, color: Color) -> Option<ColorConfig> {
        self.configs[color.index()]
    }

    /// True if no color is configured.
    pub fn is_empty(&self) -> bool {
        self.configs.iter().all(|c| c.is_none())
    }

    /// Installs a color configuration in place.
    pub(crate) fn set(&mut self, color: Color, config: ColorConfig) {
        self.configs[color.index()] = Some(config);
    }

    /// Bit `c` = the initial switch position of color `c`.
    fn initial_positions(&self) -> u32 {
        let current = |c: &Option<ColorConfig>| c.map_or(0, |c| c.current_index() as u32);
        (self.configs.iter().enumerate()).fold(0, |bits, (c, cfg)| bits | current(cfg) << c)
    }
}

/// Route tables to their class numbers, hashed by [`WordHasher`].
pub(crate) type ClassMap = HashMap<RouteTable, usize, BuildHasherDefault<WordHasher>>;

/// A multiply-rotate hasher over 8-byte words, for [`ClassMap`]: a table's
/// 96 bytes are twelve rounds of one multiply each. Keys are a program's
/// own route tables, not adversarial input, so no keyed hash is needed.
/// (The content hash, [`crate::hash::ContentHasher`], would do too, but
/// costs a 256×256 load ≈ 1.5 ms more.)
#[derive(Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(23) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the low bits, which pick the bucket, the
        // weakest: fold the high half down.
        self.0 ^ self.0 >> 32
    }
}

/// The table of a router no program has configured: what
/// [`Router::table`] shows until a color is configured or the fabric loads.
fn empty_table() -> &'static Arc<RouteTable> {
    static EMPTY: OnceLock<Arc<RouteTable>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(RouteTable::empty()))
}

/// A per-PE router, split into a shared static [`RouteTable`] and one
/// word of dynamic state: the active switch position of each color (one
/// bit per color).
#[derive(Debug, Clone, Default)]
pub struct Router {
    /// `None` until a color is configured or a loaded table is installed,
    /// so building a fabric touches no reference count per PE.
    table: Option<Arc<RouteTable>>,
    /// Bit `c` = the active switch position of color `c`.
    current_bits: u32,
}

impl Router {
    /// A router with no colors configured.
    pub fn new() -> Self {
        Self::default()
    }

    /// A router over a shared table, every color in its initial switch
    /// position: the router [`crate::fabric::Fabric::load`] clones onto
    /// each PE of the table's class.
    pub(crate) fn with_table(table: Arc<RouteTable>) -> Self {
        Self {
            current_bits: table.initial_positions(),
            table: Some(table),
        }
    }

    /// Installs a color configuration (program-load time on real hardware).
    /// Clones the static table if it is shared (copy-on-write), so a color
    /// a handler adds after load takes the PE out of its class's shared
    /// table; at load the fabric stages routes in a plain table instead.
    pub fn configure(&mut self, color: Color, config: ColorConfig) {
        let table = (self.table).get_or_insert_with(|| Arc::new(RouteTable::empty()));
        Arc::make_mut(table).set(color, config);
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
        self.table.as_ref().unwrap_or_else(|| empty_table())
    }

    /// The configuration of a color, if installed, with `current` set to
    /// the *live* switch position.
    pub fn config(&self, color: Color) -> Option<ColorConfig> {
        (self.table().config(color)).map(|c| c.at(self.current(color.index())))
    }

    /// The active switch-position index of a color (testing/diagnostics).
    pub fn position_index(&self, color: Color) -> Option<usize> {
        self.table()
            .config(color)
            .map(|_| self.current(color.index()))
    }

    /// Force-toggles a color's switch position outside the normal control
    /// protocol — the fault injector's model of a spurious configuration
    /// switch. Returns the new position index when the flip had an effect;
    /// `None` (benign) when the color is unconfigured or not switchable.
    pub fn force_toggle(&mut self, color: Color) -> Option<usize> {
        let idx = color.index();
        if self.table().config(color)?.is_fixed() {
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
        (0..MAX_COLORS as u8)
            .filter_map(|c| Some((c, self.position_index(Color::new(c))? as u8)))
            .collect()
    }

    /// Restores the dynamic state captured by [`Router::switch_positions`].
    /// Fails when a listed color is unconfigured on this router or its
    /// position index is out of range — the snapshot belongs to a
    /// differently-programmed fabric.
    pub fn restore_dynamic(&mut self, positions: &[(u8, u8)]) -> Result<(), String> {
        for &(id, current) in positions {
            let cfg = (id < MAX_COLORS as u8)
                .then(|| self.table().config(Color::new(id)))
                .flatten()
                .ok_or_else(|| format!("color {id} is not configured on this router"))?;
            if usize::from(current) >= cfg.num_positions() {
                return Err(format!(
                    "color {id}: position {current} out of range ({} configured)",
                    cfg.num_positions()
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
        let cfg = self
            .table()
            .config(color)
            .ok_or(RouteError::UnconfiguredColor(color))?;
        let pos = cfg.position(self.current(idx));
        if !pos.rx.contains(input) {
            return Err(RouteError::InputNotAccepted {
                color,
                input,
                position: self.current(idx),
            });
        }
        let outputs = pos.tx;
        let fixed = cfg.is_fixed();
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
    fn packed_words_round_trip_every_configuration() {
        let masks = [
            DirMask::EMPTY,
            DirMask::single(Ramp),
            DirMask::of(&[North, East, South, West, Ramp]),
        ];
        let mut tables = Vec::new();
        for rx in masks {
            for tx in masks {
                let (a, b) = (RouterPosition::new(rx, tx), RouterPosition::new(tx, rx));
                for cfg in [
                    ColorConfig::fixed(a),
                    ColorConfig::switchable(a, b, 0),
                    ColorConfig::switchable(a, b, 1),
                ] {
                    let mut table = RouteTable::empty();
                    table.set(Color::new(7), cfg);
                    assert_eq!(table.config(Color::new(7)), Some(cfg));
                    assert_eq!(table.config(Color::new(6)), None);
                    tables.push(table);
                }
            }
        }
        // distinct configurations give distinct tables
        for (i, a) in tables.iter().enumerate() {
            assert!(tables[i + 1..].iter().all(|b| a != b), "{a:?}");
        }
    }

    #[test]
    fn a_loaded_router_starts_in_its_tables_initial_positions() {
        let sending = RouterPosition::new(DirMask::single(Ramp), DirMask::single(East));
        let receiving = RouterPosition::new(DirMask::single(West), DirMask::single(Ramp));
        let mut table = RouteTable::empty();
        table.set(
            Color::new(0),
            ColorConfig::switchable(sending, receiving, 1),
        );
        table.set(Color::new(3), ColorConfig::fixed(sending));
        let shared = Arc::new(table);
        let mut a = Router::with_table(Arc::clone(&shared));
        let b = Router::with_table(Arc::clone(&shared));
        assert_eq!(a.position_index(Color::new(0)), Some(1));
        assert_eq!(a.position_index(Color::new(3)), Some(0));
        assert_eq!(a.switch_positions(), vec![(0, 1), (3, 0)]);
        // a toggle is the router's own; a configure after load copies
        a.force_toggle(Color::new(0));
        assert_eq!(b.position_index(Color::new(0)), Some(1));
        a.configure(Color::new(5), ColorConfig::fixed(receiving));
        assert!(!Arc::ptr_eq(a.table(), b.table()));
        assert_eq!(a.position_index(Color::new(0)), Some(0));
        assert!(b.config(Color::new(5)).is_none());
    }

    #[test]
    fn fresh_routers_share_the_empty_table() {
        let a = Router::new();
        let b = Router::new();
        assert!(Arc::ptr_eq(a.table(), b.table()));
        assert!(a.table().is_empty());
    }
}
