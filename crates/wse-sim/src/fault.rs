//! Deterministic fault injection for the fabric simulator.
//!
//! A [`FaultPlan`] is a seeded, declarative schedule of faults to inject at
//! exact fabric times: link failure/flap on a specific `(pe, direction)`
//! edge, PE halt or slow-down, single-wavelet payload corruption, and
//! spurious router-configuration switches. Because the fabric processes
//! each PE's events in an engine-invariant order (see `fabric`), injecting
//! on `(event time, static per-PE schedule)` is automatically bit-identical
//! between `Execution::Sequential` and `Execution::Sharded`.
//!
//! Faults are *injected* by the fabric and *detected* by two mechanisms:
//! per-wavelet checksum verification at ramp delivery (see
//! [`crate::wavelet::Wavelet::checksum_ok`]) and a host-side progress
//! watchdog (driver crate). Every injection and detection is recorded as a
//! [`FaultEvent`]; non-benign events surface as the typed
//! `FabricError::Fault` with `Budget > Fault > Route/Memory > Deadlock`
//! precedence.

use serde::{Deserialize, Serialize};

use crate::geometry::{Direction, FabricDims, PeCoord, CARDINALS};
use crate::hash::ContentHasher;
use crate::wavelet::{Color, MAX_COLORS};

/// What kind of fault to inject at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The outgoing link in `dir` drops every wavelet routed onto it during
    /// `[at, until)` (a *flap* when `until` is finite and later traffic
    /// resumes; a hard failure when `until == u64::MAX`).
    LinkDown {
        /// The failed outgoing link direction (must be a cardinal).
        dir: Direction,
        /// First fabric time at which the link works again.
        until: u64,
    },
    /// The PE stops executing tasks: every delivery at time ≥ `at` is
    /// swallowed without running the program handler.
    PeHalt,
    /// Task costs on this PE are multiplied by `factor` for deliveries
    /// starting in `[at, until)`. This shifts the PE's send times and hence
    /// the arrival order at neighbors, so it is treated as a detected
    /// (non-benign) fault: the floating-point accumulation order — and the
    /// residual bits — can legitimately differ from the fault-free run.
    PeSlow {
        /// Cost multiplier (≥ 2 to have an effect).
        factor: u32,
        /// First fabric time at which costs return to normal.
        until: u64,
    },
    /// The first wavelet routed through this PE at time ≥ `at` has its
    /// payload XORed with `xor` *without* updating the wavelet checksum.
    /// Detected at the receiving ramp when checksum verification is on.
    CorruptPayload {
        /// Nonzero payload bit-flip mask.
        xor: u32,
    },
    /// The router's position for `color` is force-toggled at the first
    /// route event at time ≥ `at` — a spurious configuration switch. Benign
    /// (no observable effect) when the color is unconfigured or not
    /// switchable; non-benign otherwise.
    RouterFlip {
        /// The color whose router position is flipped.
        color: Color,
    },
}

impl FaultKind {
    /// The [`FaultClass`] this kind reports when *injected*.
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::LinkDown { .. } => FaultClass::LinkDown,
            FaultKind::PeHalt => FaultClass::PeHalt,
            FaultKind::PeSlow { .. } => FaultClass::PeSlow,
            FaultKind::CorruptPayload { .. } => FaultClass::CorruptInjected,
            FaultKind::RouterFlip { .. } => FaultClass::RouterFlip,
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fault {
    /// The PE at which the fault is injected.
    pub pe: PeCoord,
    /// Fabric time (cycles) at which the fault arms. Times are absolute
    /// fabric time, which keeps advancing across `apply` calls.
    pub at: u64,
    /// What happens.
    pub kind: FaultKind,
    /// Whether the fault survives a fabric rebuild (`Retry` recovery).
    /// Transient faults (`persistent == false`) only fire on attempt 0.
    pub persistent: bool,
}

/// Stable `u8` codes for fault classes, used in trace events (`a` field of
/// `TraceEventKind::Fault`) and in `FabricError::Fault`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(u8)]
pub enum FaultClass {
    /// A wavelet was dropped on a failed link.
    LinkDown = 0,
    /// A delivery was swallowed by a halted PE.
    PeHalt = 1,
    /// A task ran under a slow-down multiplier.
    PeSlow = 2,
    /// A payload was corrupted in flight (injection site; benign — the
    /// corresponding detection is `CorruptDetected`).
    CorruptInjected = 3,
    /// A stale checksum was caught at a receiving ramp.
    CorruptDetected = 4,
    /// A router position was spuriously toggled.
    RouterFlip = 5,
    /// The host progress watchdog found a PE that made no progress.
    WatchdogStall = 6,
}

impl FaultClass {
    /// The stable `u8` code.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`FaultClass::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Self::LinkDown,
            1 => Self::PeHalt,
            2 => Self::PeSlow,
            3 => Self::CorruptInjected,
            4 => Self::CorruptDetected,
            5 => Self::RouterFlip,
            6 => Self::WatchdogStall,
            _ => return None,
        })
    }

    /// Short lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::LinkDown => "link_down",
            Self::PeHalt => "pe_halt",
            Self::PeSlow => "pe_slow",
            Self::CorruptInjected => "corrupt_injected",
            Self::CorruptDetected => "corrupt_detected",
            Self::RouterFlip => "router_flip",
            Self::WatchdogStall => "watchdog_stall",
        }
    }
}

/// One injection or detection, recorded in fabric-deterministic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Fabric time of the injection/detection.
    pub time: u64,
    /// The PE at which it happened (for detections, the detecting PE).
    pub pe: PeCoord,
    /// What happened.
    pub class: FaultClass,
    /// Class-dependent detail: link code for `LinkDown`, XOR mask for
    /// corruption, new router position for `RouterFlip`, cost factor for
    /// `PeSlow`, observed progress for `WatchdogStall`.
    pub detail: u32,
    /// Benign events (ineffective flips, corruption injections whose
    /// detection fires downstream) never surface as `FabricError::Fault`.
    pub benign: bool,
}

/// A declarative, seeded schedule of faults.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults, in no particular order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults; checksum verification stays off).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds a fault and returns `self` (builder style).
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Feeds the plan into a content hash, field by field as `u64` words:
    /// the fault count, then per fault its PE column and row, `at`,
    /// `persistent`, and a fixed tag per [`FaultKind`] variant followed by
    /// the variant's fields (zero-padded to two).
    pub fn hash_into(&self, h: &mut ContentHasher) {
        h.write_u64(self.faults.len() as u64);
        for f in &self.faults {
            let kind = match f.kind {
                FaultKind::LinkDown { dir, until } => [0, dir.index() as u64, until],
                FaultKind::PeHalt => [1, 0, 0],
                FaultKind::PeSlow { factor, until } => [2, u64::from(factor), until],
                FaultKind::CorruptPayload { xor } => [3, u64::from(xor), 0],
                FaultKind::RouterFlip { color } => [4, u64::from(color.id()), 0],
            };
            let site = [
                f.pe.col as u64,
                f.pe.row as u64,
                f.at,
                u64::from(f.persistent),
            ];
            for word in site.into_iter().chain(kind) {
                h.write_u64(word);
            }
        }
    }

    /// The plan as seen by retry attempt `attempt`: attempt 0 sees every
    /// fault, later attempts only the persistent ones.
    pub fn for_attempt(&self, attempt: u32) -> Self {
        if attempt == 0 {
            return self.clone();
        }
        Self {
            faults: self
                .faults
                .iter()
                .copied()
                .filter(|f| f.persistent)
                .collect(),
        }
    }

    /// Validates the plan against a fabric: every site must be on-fabric,
    /// link faults must name a cardinal direction, and corruption masks
    /// must be nonzero. Returns a description of the first problem.
    pub fn validate(&self, dims: FabricDims) -> Result<(), String> {
        for (i, f) in self.faults.iter().enumerate() {
            if f.pe.col >= dims.cols || f.pe.row >= dims.rows {
                return Err(format!(
                    "fault {i}: pe ({}, {}) outside {}x{} fabric",
                    f.pe.col, f.pe.row, dims.cols, dims.rows
                ));
            }
            match f.kind {
                FaultKind::LinkDown { dir, until } => {
                    if dir == Direction::Ramp {
                        return Err(format!("fault {i}: LinkDown on the ramp is not a link"));
                    }
                    if until <= f.at {
                        return Err(format!("fault {i}: LinkDown until must be > at"));
                    }
                }
                FaultKind::PeSlow { factor, until } => {
                    if factor < 2 {
                        return Err(format!("fault {i}: PeSlow factor must be >= 2"));
                    }
                    if until <= f.at {
                        return Err(format!("fault {i}: PeSlow until must be > at"));
                    }
                }
                FaultKind::CorruptPayload { xor } => {
                    if xor == 0 {
                        return Err(format!("fault {i}: CorruptPayload xor must be nonzero"));
                    }
                }
                FaultKind::PeHalt | FaultKind::RouterFlip { .. } => {}
            }
        }
        Ok(())
    }

    /// A seeded random plan of `n` faults over `dims` with injection times
    /// in `[1, horizon]`. Same seed → identical plan, so chaos runs are
    /// reproducible. About half of the faults are transient.
    pub fn randomized(seed: u64, dims: FabricDims, horizon: u64, n: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let horizon = horizon.max(2);
        let mut faults = Vec::with_capacity(n);
        for _ in 0..n {
            let pe = PeCoord::new(
                rng.below(dims.cols as u64) as usize,
                rng.below(dims.rows as u64) as usize,
            );
            let at = 1 + rng.below(horizon);
            let kind = match rng.below(5) {
                0 => FaultKind::LinkDown {
                    dir: CARDINALS[rng.below(4) as usize],
                    until: at + 1 + rng.below(horizon),
                },
                1 => FaultKind::PeHalt,
                2 => FaultKind::PeSlow {
                    factor: 2 + rng.below(6) as u32,
                    until: at + 1 + rng.below(horizon),
                },
                3 => FaultKind::CorruptPayload {
                    xor: (rng.next() as u32) | 1,
                },
                _ => FaultKind::RouterFlip {
                    color: Color::new(rng.below(MAX_COLORS as u64) as u8),
                },
            };
            faults.push(Fault {
                pe,
                at,
                kind,
                persistent: rng.below(2) == 0,
            });
        }
        Self { faults }
    }
}

/// SplitMix64: tiny, dependency-free, high-quality 64-bit generator used to
/// derive reproducible fault schedules from a seed.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be ≥ 1.
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound >= 1);
        self.next() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fault_field_and_kind_moves_the_plan_hash() {
        let digest = |plan: &FaultPlan| {
            let mut h = ContentHasher::new();
            plan.hash_into(&mut h);
            h.finish()
        };
        let base = Fault {
            pe: PeCoord::new(2, 3),
            at: 40,
            kind: FaultKind::LinkDown {
                dir: Direction::East,
                until: 90,
            },
            persistent: false,
        };
        let kinds = [
            base.kind,
            FaultKind::LinkDown {
                dir: Direction::North,
                until: 90,
            },
            FaultKind::LinkDown {
                dir: Direction::East,
                until: 91,
            },
            FaultKind::PeHalt,
            FaultKind::PeSlow {
                factor: 2,
                until: 90,
            },
            FaultKind::PeSlow {
                factor: 3,
                until: 90,
            },
            FaultKind::PeSlow {
                factor: 2,
                until: 91,
            },
            FaultKind::CorruptPayload { xor: 1 },
            FaultKind::CorruptPayload { xor: 2 },
            FaultKind::RouterFlip {
                color: Color::new(1),
            },
            FaultKind::RouterFlip {
                color: Color::new(2),
            },
        ];
        let mut plans = vec![FaultPlan::new(), FaultPlan::new().with(base).with(base)];
        plans.extend(kinds.map(|kind| FaultPlan::new().with(Fault { kind, ..base })));
        for changed in [
            Fault {
                pe: PeCoord::new(3, 3),
                ..base
            },
            Fault {
                pe: PeCoord::new(2, 4),
                ..base
            },
            Fault { at: 41, ..base },
            Fault {
                persistent: true,
                ..base
            },
        ] {
            plans.push(FaultPlan::new().with(changed));
        }
        let mut digests: Vec<u64> = plans.iter().map(digest).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), plans.len(), "every change moves the digest");
    }

    #[test]
    fn class_codes_round_trip() {
        for code in 0..=6u8 {
            let c = FaultClass::from_code(code).expect("valid code");
            assert_eq!(c.code(), code);
            assert!(!c.name().is_empty());
        }
        assert_eq!(FaultClass::from_code(7), None);
    }

    #[test]
    fn randomized_is_deterministic_and_valid() {
        let dims = FabricDims::new(6, 5);
        let a = FaultPlan::randomized(42, dims, 5_000, 32);
        let b = FaultPlan::randomized(42, dims, 5_000, 32);
        assert_eq!(a, b, "same seed must give the same plan");
        assert_eq!(a.faults.len(), 32);
        a.validate(dims).expect("randomized plans validate");
        let c = FaultPlan::randomized(43, dims, 5_000, 32);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn for_attempt_filters_transient_faults() {
        let f = |persistent| Fault {
            pe: PeCoord::new(0, 0),
            at: 10,
            kind: FaultKind::PeHalt,
            persistent,
        };
        let plan = FaultPlan::new().with(f(true)).with(f(false));
        assert_eq!(plan.for_attempt(0).faults.len(), 2);
        assert_eq!(plan.for_attempt(1).faults.len(), 1);
        assert!(plan.for_attempt(1).faults[0].persistent);
    }

    #[test]
    fn validate_rejects_bad_sites() {
        let dims = FabricDims::new(3, 3);
        let base = Fault {
            pe: PeCoord::new(9, 0),
            at: 1,
            kind: FaultKind::PeHalt,
            persistent: true,
        };
        assert!(FaultPlan::new().with(base).validate(dims).is_err());
        let ramp = Fault {
            pe: PeCoord::new(0, 0),
            at: 1,
            kind: FaultKind::LinkDown {
                dir: Direction::Ramp,
                until: 9,
            },
            persistent: true,
        };
        assert!(FaultPlan::new().with(ramp).validate(dims).is_err());
        let zero_xor = Fault {
            pe: PeCoord::new(0, 0),
            at: 1,
            kind: FaultKind::CorruptPayload { xor: 0 },
            persistent: true,
        };
        assert!(FaultPlan::new().with(zero_xor).validate(dims).is_err());
    }
}
