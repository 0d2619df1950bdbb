//! Fixed-size trace records.
//!
//! Every observation the simulator makes is squeezed into one [`TraceEvent`]
//! of at most 32 bytes (asserted at compile time), so ring-buffer memory cost
//! is predictable: `capacity × size_of::<TraceEvent>()` per PE, no heap
//! allocation per event.

/// What happened. The discriminant is stable and part of the export format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceEventKind {
    /// A task handler started executing on a PE (`a` = color, `b` = 1 for a
    /// control wavelet / 0 for data, `payload` = raw wavelet bits; `time` is
    /// the cycle the PE became free to run it).
    TaskStart = 0,
    /// The matching task handler finished (`a` = color, `payload` = cost in
    /// cycles; `time` is start + cost).
    TaskEnd = 1,
    /// The router forwarded a wavelet onto a fabric link (`a` = color,
    /// `b` = link code | control flag, `payload` = raw wavelet bits).
    WaveletSend = 2,
    /// The router delivered a wavelet down the ramp to the CE (`a` = color,
    /// `b` = arrival-link code | control flag, `payload` = raw wavelet bits).
    WaveletRecv = 3,
    /// One DSD vector instruction was issued (`a` = [`TraceOp`] code,
    /// `payload` = vector length; `time` is the fabric-time estimate for the
    /// instruction's issue inside its surrounding task).
    DsdOp = 4,
    /// A control wavelet toggled a switchable router config (`a` = color,
    /// `b` = the switch position now active).
    RouterSwitch = 5,
    /// Flow control parked a wavelet because the PE's CE was busy
    /// (`a` = color, `b` = arrival-link code | control flag).
    FlowStall = 6,
    /// A wavelet was routed off the fabric edge and dropped (`a` = color,
    /// `b` = link code | control flag).
    EdgeDrop = 7,
    /// A fabric error was recorded (`a` = error class code, `payload` =
    /// detail; see `wse-sim` for the class table).
    Error = 8,
    /// The end of one fabric run, on any strip count (`b` = strips,
    /// `payload` = events of the run, `time` = the fabric time at its end).
    /// Meta stream only, so per-PE streams stay independent of the strips.
    Barrier = 9,
    /// Host-side phase marker emitted by the driver (`a` = phase code,
    /// `payload` = application index). Meta stream only.
    HostPhase = 10,
    /// A named profiling region opened inside the current task
    /// (`a` = [`TraceRegion`] code; `time` is the fabric-time estimate at the
    /// open, derived from the task base like a [`TraceEventKind::DsdOp`]).
    RegionStart = 11,
    /// The matching profiling region closed (`a` = [`TraceRegion`] code).
    RegionEnd = 12,
    /// A fault was injected or detected by the fault-injection subsystem
    /// (`a` = fault class code, `b` = link code | control flag where
    /// applicable, `payload` = class-dependent detail such as the raw
    /// wavelet bits; see `wse-sim::fault` for the class table).
    Fault = 13,
}

impl TraceEventKind {
    /// Stable numeric code (the enum discriminant).
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`TraceEventKind::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Self::TaskStart,
            1 => Self::TaskEnd,
            2 => Self::WaveletSend,
            3 => Self::WaveletRecv,
            4 => Self::DsdOp,
            5 => Self::RouterSwitch,
            6 => Self::FlowStall,
            7 => Self::EdgeDrop,
            8 => Self::Error,
            9 => Self::Barrier,
            10 => Self::HostPhase,
            11 => Self::RegionStart,
            12 => Self::RegionEnd,
            13 => Self::Fault,
            _ => return None,
        })
    }

    /// Short label used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            Self::TaskStart => "task_start",
            Self::TaskEnd => "task_end",
            Self::WaveletSend => "wavelet_send",
            Self::WaveletRecv => "wavelet_recv",
            Self::DsdOp => "dsd_op",
            Self::RouterSwitch => "router_switch",
            Self::FlowStall => "flow_stall",
            Self::EdgeDrop => "edge_drop",
            Self::Error => "error",
            Self::Barrier => "barrier",
            Self::HostPhase => "host_phase",
            Self::RegionStart => "region_start",
            Self::RegionEnd => "region_end",
            Self::Fault => "fault",
        }
    }
}

/// Named profiling region carried in a [`TraceEventKind::RegionStart`] /
/// [`TraceEventKind::RegionEnd`] event's `a` field. Region markers are
/// emitted by the kernel program (see `tpfa-dataflow`), so they live in the
/// per-PE streams and stay bit-identical across engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceRegion {
    /// Cardinal/diagonal pressure-halo exchange: fabric sends, receive
    /// stores, and router hand-over control traffic.
    HaloExchange = 0,
    /// TPFA face-flux evaluation (the 12-instruction kernel body plus the
    /// equation-of-state density pass).
    FluxCompute = 1,
    /// Residual accumulation (the kernel's final subtract into `r`).
    ResidualAccumulate = 2,
    /// Router reconfiguration. No markers are emitted for this region; the
    /// profiler synthesizes it from `RouterSwitch` / `FlowStall` events.
    RouterSwitch = 3,
}

/// Number of named regions (the profiler adds one extra "other" bucket for
/// cycles outside any marked region).
pub const NUM_REGIONS: usize = 4;

impl TraceRegion {
    /// Stable numeric code (the enum discriminant).
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`TraceRegion::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Self::HaloExchange,
            1 => Self::FluxCompute,
            2 => Self::ResidualAccumulate,
            3 => Self::RouterSwitch,
            _ => return None,
        })
    }

    /// Short label used by the exporters and the profiler.
    pub fn name(self) -> &'static str {
        match self {
            Self::HaloExchange => "halo-exchange",
            Self::FluxCompute => "flux-compute",
            Self::ResidualAccumulate => "residual-accumulate",
            Self::RouterSwitch => "router-switch",
        }
    }
}

/// DSD vector-instruction opcode carried in a [`TraceEventKind::DsdOp`]
/// event's `a` field. Mirrors the instruction set in `wse-sim::dsd`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceOp {
    /// Elementwise `@fmuls` multiply.
    Fmul = 0,
    /// Gated `@fmuls` (upwinding select); accounted identically to `Fmul`.
    FmulGate = 1,
    /// Elementwise `@fsubs` subtract.
    Fsub = 2,
    /// Elementwise `@fadds` add.
    Fadd = 3,
    /// Fused multiply-accumulate `@fmacs`.
    Fma = 4,
    /// Elementwise `@fnegs` negate.
    Fneg = 5,
    /// Equation-of-state density evaluation.
    Eos = 6,
    /// Fabric receive into memory (`@fmovs` with fabric-input DSD); one
    /// event per delivered element (`payload` = 1).
    FmovIn = 7,
    /// Memory-to-fabric send (`@fmovs` with fabric-output DSD);
    /// `payload` = vector length.
    FmovOut = 8,
}

impl TraceOp {
    /// Stable numeric code (the enum discriminant).
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`TraceOp::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Self::Fmul,
            1 => Self::FmulGate,
            2 => Self::Fsub,
            3 => Self::Fadd,
            4 => Self::Fma,
            5 => Self::Fneg,
            6 => Self::Eos,
            7 => Self::FmovIn,
            8 => Self::FmovOut,
            _ => return None,
        })
    }

    /// Assembly-flavoured mnemonic used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            Self::Fmul => "fmuls",
            Self::FmulGate => "fmuls.gate",
            Self::Fsub => "fsubs",
            Self::Fadd => "fadds",
            Self::Fma => "fmacs",
            Self::Fneg => "fnegs",
            Self::Eos => "eos",
            Self::FmovIn => "fmovs.in",
            Self::FmovOut => "fmovs.out",
        }
    }
}

/// Bit set in a send/recv/stall/drop event's `b` field when the wavelet was
/// a control wavelet (the low byte holds the link code).
pub const LINK_CONTROL_BIT: u16 = 1 << 8;

/// Human-readable name for a link code (the low byte of `b` on wavelet
/// events). Codes follow `wse-sim`'s `Direction`: 0=N, 1=E, 2=S, 3=W,
/// 4=ramp.
pub fn link_name(code: u8) -> &'static str {
    match code {
        0 => "north",
        1 => "east",
        2 => "south",
        3 => "west",
        4 => "ramp",
        _ => "?",
    }
}

/// One fixed-size trace record.
///
/// `time` is fabric time (cycles). `seq` is a per-PE sequence number assigned
/// by the ring at record time — it increments on *every* record attempt,
/// including ones dropped by a full ring, so capped traces stay comparable to
/// uncapped ones. `pe` is the linear PE index (row-major), or
/// [`crate::HOST_PE`] for host/engine meta events. The meaning of `payload`,
/// `a`, and `b` depends on `kind` (see [`TraceEventKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Fabric time in cycles.
    pub time: u64,
    /// Per-PE sequence number (monotonic per PE, gapless across drops).
    pub seq: u32,
    /// Linear PE index, or [`crate::HOST_PE`] for meta events.
    pub pe: u32,
    /// Kind-dependent 32-bit payload (wavelet bits, vector length, cost…).
    pub payload: u32,
    /// What happened.
    pub kind: TraceEventKind,
    /// Kind-dependent small operand (color, opcode, error class…).
    pub a: u8,
    /// Kind-dependent small operand (link code | control flag, position…).
    pub b: u16,
}

impl TraceEvent {
    /// Deterministic global sort key. Sorting every PE's stream by this key
    /// yields a total order that is bit-identical between the sequential and
    /// sharded engines (events of one PE keep their causal `seq` order; ties
    /// across PEs at equal time break on the PE index).
    #[inline]
    pub fn key(&self) -> (u64, u32, u32) {
        (self.time, self.pe, self.seq)
    }
}

/// Ring-buffer memory budgeting relies on this staying small.
const _: () = assert!(std::mem::size_of::<TraceEvent>() <= 32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_event_fits_in_32_bytes() {
        // The const assert above enforces this at compile time; keep a
        // runtime witness so the guarantee shows up in test output too.
        assert!(std::mem::size_of::<TraceEvent>() <= 32);
    }

    #[test]
    fn kind_and_op_codes_round_trip() {
        for code in 0..=13u8 {
            let kind = TraceEventKind::from_code(code).unwrap();
            assert_eq!(kind.code(), code);
        }
        assert_eq!(TraceEventKind::from_code(14), None);
        for code in 0..=8u8 {
            let op = TraceOp::from_code(code).unwrap();
            assert_eq!(op.code(), code);
        }
        assert_eq!(TraceOp::from_code(9), None);
    }

    #[test]
    fn region_codes_round_trip() {
        for code in 0..NUM_REGIONS as u8 {
            let region = TraceRegion::from_code(code).unwrap();
            assert_eq!(region.code(), code);
            assert!(!region.name().is_empty());
        }
        assert_eq!(TraceRegion::from_code(NUM_REGIONS as u8), None);
    }

    #[test]
    fn sort_key_orders_time_then_pe_then_seq() {
        let ev = |time, pe, seq| TraceEvent {
            time,
            seq,
            pe,
            payload: 0,
            kind: TraceEventKind::TaskStart,
            a: 0,
            b: 0,
        };
        let mut events = [ev(2, 0, 0), ev(1, 1, 4), ev(1, 1, 2), ev(1, 0, 9)];
        events.sort_unstable_by_key(TraceEvent::key);
        let keys: Vec<_> = events.iter().map(TraceEvent::key).collect();
        assert_eq!(keys, vec![(1, 0, 9), (1, 1, 2), (1, 1, 4), (2, 0, 0)]);
    }
}
