//! Versioned binary encoding of a [`DriverSnapshot`] with an integrity
//! header.
//!
//! # On-disk format (all little-endian)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `MDFVCKPT` |
//! | 8      | 4    | schema version ([`SCHEMA_VERSION`]) |
//! | 12     | 8    | problem spec hash ([`DataflowFluxSimulator::spec_hash`]) |
//! | 20     | 8    | payload length in bytes |
//! | 28     | 4    | payload checksum ([`payload_checksum`]) |
//! | 32     | —    | payload |
//!
//! Both header digests come from the program's one content hash
//! ([`wse_sim::hash`], a lane-parallel 64-bit hash): the spec hash field
//! holds the spec's digest, the checksum field the payload's digest folded
//! to 32 bits.
//!
//! The payload serializes the driver counters followed by the fabric
//! snapshot field by field (length-prefixed vectors, tagged options).
//! Pending events carry their source and target PE as `u32`, the width of
//! the engine's own event, with `u32::MAX` for the host. The wavelet
//! checksum word is persisted verbatim via
//! [`wse_sim::wavelet::Wavelet::raw_crc`]: a corrupted-in-flight wavelet
//! carries a deliberately stale checksum, and re-sealing it on restore
//! would un-detect the fault.
//!
//! Decoding validates the magic, version, payload length, and checksum
//! before touching the payload, and every variable-length count inside the
//! payload is bounds-checked before anything is reserved for it: the PE
//! count must be the fabric's `cols × rows`, and every count times its
//! record's minimum encoded size must fit in the remaining bytes — a
//! truncated, bit-flipped or hostile checkpoint is rejected with a typed
//! [`CheckpointError`], never a panic, an abort on allocation or a silently
//! wrong state. The checksum detects damage; it does not authenticate.

use std::path::Path;

use tpfa_dataflow::driver::{DriverSnapshot, StepTotals};
use tpfa_dataflow::DataflowFluxSimulator;
use wse_sim::fabric::RunReport;
use wse_sim::fault::{FaultClass, FaultEvent};
use wse_sim::geometry::{Direction, PeCoord};
use wse_sim::hash::{hash64, ContentHasher};
use wse_sim::snapshot::{EventRecord, FabricSnapshot, FaultRecord, PeRecord, TraceSeqRecord};
use wse_sim::stats::OpCounters;
use wse_sim::wavelet::{Color, Wavelet, WaveletKind, MAX_COLORS};

/// Magic bytes leading every checkpoint.
pub const MAGIC: [u8; 8] = *b"MDFVCKPT";

/// Current schema version; bumped on any header or payload layout change.
/// Version 2 dropped the per-PE router version and narrowed event PE ids to
/// `u32`; version 3 dropped the per-PE program state record, which now
/// lives in PE memory; version 4 replaced the murmur3 payload checksum and
/// the FNV-1a spec hash with the content hash; version 5 hashes the spec's
/// fault plan field by field instead of its `Debug` text, which moves every
/// spec hash. Older files are refused, not migrated.
pub const SCHEMA_VERSION: u32 = 5;

/// Header size in bytes (magic + version + spec hash + payload length +
/// payload checksum).
pub const HEADER_LEN: usize = 32;

/// Why a checkpoint was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The leading bytes are not [`MAGIC`].
    BadMagic,
    /// The schema version is not [`SCHEMA_VERSION`].
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The buffer ends before the declared payload does.
    Truncated {
        /// Bytes the header or payload declared.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// The checkpoint belongs to a different problem specification.
    SpecHashMismatch {
        /// Hash of the restore target's specification.
        expected: u64,
        /// Hash recorded in the checkpoint.
        found: u64,
    },
    /// The payload passed the checksum but contains an impossible value
    /// (out-of-range enum tag, implausible count, trailing bytes).
    Malformed(String),
    /// The decoded snapshot was refused by the simulator.
    Restore(String),
    /// Reading or writing the checkpoint file failed.
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::BadVersion { found } => {
                write!(f, "unsupported schema version {found} (expected {SCHEMA_VERSION})")
            }
            CheckpointError::Truncated { needed, have } => {
                write!(f, "truncated checkpoint: need {needed} bytes, have {have}")
            }
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "payload checksum mismatch: header says {stored:#010x}, payload hashes to {computed:#010x}"
            ),
            CheckpointError::SpecHashMismatch { expected, found } => write!(
                f,
                "checkpoint is for spec {found:#018x}, target is {expected:#018x}"
            ),
            CheckpointError::Malformed(m) => write!(f, "malformed payload: {m}"),
            CheckpointError::Restore(m) => write!(f, "snapshot refused: {m}"),
            CheckpointError::Io(m) => write!(f, "checkpoint I/O: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The header's payload checksum: the payload's content hash
/// ([`wse_sim::hash::hash64`]) folded to 32 bits, low word XOR high word.
pub fn payload_checksum(payload: &[u8]) -> u32 {
    fold(hash64(payload))
}

fn fold(digest: u64) -> u32 {
    (digest as u32) ^ ((digest >> 32) as u32)
}

/// The content hash of a payload as it is written: each section is fed
/// right after it is written, while its bytes are still in cache, instead
/// of the whole payload in a second pass. Any split gives the digest of the
/// whole.
struct Hashed {
    hasher: ContentHasher,
    /// Bytes of the output already fed.
    upto: usize,
}

impl Hashed {
    /// Feeds the bytes of `out` written since the last call.
    fn catch_up(&mut self, out: &[u8]) {
        self.hasher.write(&out[self.upto..]);
        self.upto = out.len();
    }
}

/// A complete, portable checkpoint: the driver snapshot plus the hash of
/// the problem specification it belongs to. Restoring into a simulator
/// with a different [`DataflowFluxSimulator::spec_hash`] is refused —
/// the spec hash deliberately excludes the engine choice, so checkpoints
/// move freely between `Sequential` and `Sharded` simulators.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Hash of the originating simulator's problem specification.
    pub spec_hash: u64,
    /// The captured driver + fabric state.
    pub driver: DriverSnapshot,
}

impl Checkpoint {
    /// Captures the given simulator's complete state.
    pub fn capture(sim: &DataflowFluxSimulator) -> Self {
        Self {
            spec_hash: sim.spec_hash(),
            driver: sim.snapshot(),
        }
    }

    /// Restores this checkpoint into `sim`, which must be freshly built
    /// from the same problem specification (engine may differ).
    pub fn restore_into(&self, sim: &mut DataflowFluxSimulator) -> Result<(), CheckpointError> {
        let expected = sim.spec_hash();
        if expected != self.spec_hash {
            return Err(CheckpointError::SpecHashMismatch {
                expected,
                found: self.spec_hash,
            });
        }
        sim.restore_snapshot(&self.driver)
            .map_err(|e| CheckpointError::Restore(e.to_string()))
    }

    /// Serializes to the versioned binary format, into one buffer sized
    /// from the snapshot: the payload is written behind the header and
    /// hashed as it is written, and the header's length and checksum
    /// fields are patched in last.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload_size_hint(&self.driver));
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        out.extend_from_slice(&self.spec_hash.to_le_bytes());
        out.resize(HEADER_LEN, 0);
        let mut hashed = Hashed {
            hasher: ContentHasher::new(),
            upto: HEADER_LEN,
        };
        encode_driver(&mut out, &self.driver, &mut hashed);
        hashed.catch_up(&out);
        let payload_len = (out.len() - HEADER_LEN) as u64;
        let checksum = fold(hashed.hasher.finish());
        out[20..28].copy_from_slice(&payload_len.to_le_bytes());
        out[28..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses and validates the binary format.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < HEADER_LEN {
            return Err(CheckpointError::Truncated {
                needed: HEADER_LEN,
                have: bytes.len(),
            });
        }
        if bytes[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != SCHEMA_VERSION {
            return Err(CheckpointError::BadVersion { found: version });
        }
        let spec_hash = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let payload_len = u64::from_le_bytes(bytes[20..28].try_into().unwrap()) as usize;
        let stored = u32::from_le_bytes(bytes[28..32].try_into().unwrap());
        let needed = match HEADER_LEN.checked_add(payload_len) {
            Some(n) if n <= bytes.len() => n,
            // Hostile lengths can overflow `usize`; saturate for the report.
            _ => {
                return Err(CheckpointError::Truncated {
                    needed: HEADER_LEN.saturating_add(payload_len),
                    have: bytes.len(),
                })
            }
        };
        let payload = &bytes[HEADER_LEN..needed];
        let computed = payload_checksum(payload);
        if computed != stored {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }
        let mut r = Reader::new(payload);
        let driver = decode_driver(&mut r)?;
        r.finish()?;
        Ok(Self { spec_hash, driver })
    }

    /// [`Checkpoint::encode`] with the wall-clock nanoseconds observed
    /// into `timing` — the hook the serving stack uses for its
    /// `serve_checkpoint_*` histograms. Pass a null handle (the default)
    /// and this is exactly `encode()`.
    pub fn encode_metered(&self, timing: &wse_metrics::Histogram) -> Vec<u8> {
        let t0 = std::time::Instant::now();
        let out = self.encode();
        timing.observe(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        out
    }

    /// [`Checkpoint::decode`] with the wall-clock nanoseconds observed
    /// into `timing` (also on the error path — a rejected checkpoint's
    /// validation cost is still a decode attempt).
    pub fn decode_metered(
        bytes: &[u8],
        timing: &wse_metrics::Histogram,
    ) -> Result<Self, CheckpointError> {
        let t0 = std::time::Instant::now();
        let out = Self::decode(bytes);
        timing.observe(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        out
    }

    /// Writes the encoded checkpoint to `path`.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        std::fs::write(path, self.encode()).map_err(|e| CheckpointError::Io(e.to_string()))
    }

    /// Reads and decodes a checkpoint from `path`.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Self::decode(&bytes)
    }
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// An event's PE index as `u32`; the host's `usize::MAX` becomes
/// `u32::MAX`.
fn put_pe_index(out: &mut Vec<u8>, i: usize) {
    put_u32(out, u32::try_from(i).unwrap_or(u32::MAX));
}

/// Bytes of one pending-event record: time, seq, source and target PE, the
/// route tag and a 10-byte wavelet.
const EVENT_BYTES: usize = 8 + 8 + 4 + 4 + 1 + 10;

fn put_report(out: &mut Vec<u8>, r: &RunReport) {
    put_u64(out, r.events);
    put_u64(out, r.final_time);
    put_u64(out, r.edge_drops);
    put_u64(out, r.faults);
}

fn put_wavelet(out: &mut Vec<u8>, w: &Wavelet) {
    out.push(w.color.id());
    out.push(matches!(w.kind, WaveletKind::Control) as u8);
    put_u32(out, w.payload);
    put_u32(out, w.raw_crc());
}

fn put_trace_seq(out: &mut Vec<u8>, t: &TraceSeqRecord) {
    put_u32(out, t.next_seq);
    put_u64(out, t.dropped);
    put_u64(out, t.base_time);
    put_u64(out, t.base_cycles);
}

fn put_fault_event(out: &mut Vec<u8>, e: &FaultEvent) {
    put_u64(out, e.time);
    put_u64(out, e.pe.col as u64);
    put_u64(out, e.pe.row as u64);
    out.push(e.class.code());
    put_u32(out, e.detail);
    out.push(e.benign as u8);
}

/// About the payload's length: exact for the parts that grow with the
/// problem (memory words, pending events, router positions, parked
/// wavelets), a per-PE allowance for the fixed-width fields and an
/// empty fault record. Only sizes the buffer; a longer payload reallocates.
fn payload_size_hint(d: &DriverSnapshot) -> usize {
    /// Counters, per-PE scalars, length prefixes, trace sequence, faults.
    const PE_FIXED: usize = 320;
    let pe = |p: &PeRecord| {
        PE_FIXED + 4 * p.memory_words.len() + 2 * p.router_positions.len() + 11 * p.parked.len()
    };
    let s = &d.fabric;
    256 + EVENT_BYTES * s.events.len() + s.pes.iter().map(pe).sum::<usize>()
}

fn encode_driver(out: &mut Vec<u8>, d: &DriverSnapshot, hashed: &mut Hashed) {
    put_u64(out, d.applications);
    put_u64(out, d.fabric_applications);
    match &d.in_flight {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            put_u64(out, t.events);
            put_u64(out, t.final_time);
            put_u64(out, t.edge_drops);
            put_u64(out, t.faults);
            out.push(t.complete as u8);
        }
    }
    match &d.last_run {
        None => out.push(0),
        Some(r) => {
            out.push(1);
            put_report(out, r);
        }
    }
    encode_fabric(out, &d.fabric, hashed);
}

fn encode_fabric(out: &mut Vec<u8>, s: &FabricSnapshot, hashed: &mut Hashed) {
    put_u64(out, s.cols as u64);
    put_u64(out, s.rows as u64);
    put_u64(out, s.time);
    put_u64(out, s.host_seq);
    put_trace_seq(out, &s.host_trace_seq);
    put_u64(out, s.events.len() as u64);
    for ev in &s.events {
        put_u64(out, ev.time);
        put_u64(out, ev.seq);
        put_pe_index(out, ev.src);
        put_pe_index(out, ev.pe);
        match ev.route_input {
            None => out.push(0),
            Some(d) => out.push(1 + d.index() as u8),
        }
        put_wavelet(out, &ev.wavelet);
    }
    hashed.catch_up(out);
    put_u64(out, s.pes.len() as u64);
    for pe in &s.pes {
        encode_pe(out, pe);
        hashed.catch_up(out);
    }
}

/// Bytes of the shortest encoded PE record (every vector empty): the
/// fixed-width fields plus nine 8-byte length prefixes. Bounds the PE count
/// on decode, so a small payload cannot claim a huge fabric.
const PE_RECORD_MIN_BYTES: usize = 296;

fn encode_pe(out: &mut Vec<u8>, pe: &PeRecord) {
    put_u64(out, pe.memory_words.len() as u64);
    out.extend(pe.memory_words.iter().flat_map(|w| w.to_le_bytes()));
    put_u64(out, pe.memory_allocated as u64);
    for v in counters_to_array(&pe.counters) {
        put_u64(out, v);
    }
    put_u64(out, pe.router_positions.len() as u64);
    for &(color, pos) in &pe.router_positions {
        out.push(color);
        out.push(pos);
    }
    put_u64(out, pe.fabric_hops);
    put_u64(out, pe.ramp_deliveries);
    put_u64(out, pe.busy_until);
    put_u64(out, pe.parked.len() as u64);
    for (dir, w) in &pe.parked {
        out.push(dir.index() as u8);
        put_wavelet(out, w);
    }
    put_u64(out, pe.seq);
    put_u64(out, pe.edge_drops);
    put_u64(out, pe.flow_stalls);
    put_u64(out, pe.queue_wait_cycles);
    put_u64(out, pe.fault_drops);
    put_u64(out, pe.checksum_drops);
    encode_faults(out, &pe.faults);
    put_trace_seq(out, &pe.trace_seq);
}

fn encode_faults(out: &mut Vec<u8>, f: &FaultRecord) {
    out.push(f.active as u8);
    out.push(f.verify_checksums as u8);
    put_u64(out, f.link_down.len() as u64);
    for &(dir, from, until) in &f.link_down {
        out.push(dir.index() as u8);
        put_u64(out, from);
        put_u64(out, until);
    }
    match f.halt_at {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            put_u64(out, t);
        }
    }
    put_u64(out, f.slow.len() as u64);
    for &(from, until, factor) in &f.slow {
        put_u64(out, from);
        put_u64(out, until);
        put_u32(out, factor);
    }
    put_u64(out, f.slow_logged.len() as u64);
    for &l in &f.slow_logged {
        out.push(l as u8);
    }
    put_u64(out, f.corrupt.len() as u64);
    for &(at, xor) in &f.corrupt {
        put_u64(out, at);
        put_u32(out, xor);
    }
    put_u64(out, f.flips.len() as u64);
    for &(at, color) in &f.flips {
        put_u64(out, at);
        out.push(color.id());
    }
    put_u64(out, f.log.len() as u64);
    for e in &f.log {
        put_fault_event(out, e);
    }
    out.push(f.tainted as u8);
}

/// [`OpCounters`] as a fixed-order array (field declaration order).
fn counters_to_array(c: &OpCounters) -> [u64; 14] {
    [
        c.fmul,
        c.fsub,
        c.fadd,
        c.fma,
        c.fneg,
        c.fmov_in,
        c.fmov_out,
        c.mem_loads,
        c.mem_stores,
        c.fabric_loads,
        c.fabric_stores,
        c.eos_evals,
        c.compute_cycles,
        c.comm_cycles,
    ]
}

fn counters_from_array(a: [u64; 14]) -> OpCounters {
    OpCounters {
        fmul: a[0],
        fsub: a[1],
        fadd: a[2],
        fma: a[3],
        fneg: a[4],
        fmov_in: a[5],
        fmov_out: a[6],
        mem_loads: a[7],
        mem_stores: a[8],
        fabric_loads: a[9],
        fabric_stores: a[10],
        eos_evals: a[11],
        compute_cycles: a[12],
        comm_cycles: a[13],
    }
}

// ---------------------------------------------------------------------------
// Payload decoding
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian payload reader.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(CheckpointError::Malformed(format!(
                "payload ends at byte {} but {} more bytes were declared",
                self.bytes.len(),
                n
            )));
        };
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CheckpointError::Malformed(format!("boolean tag {v}"))),
        }
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// An event's PE index; `u32::MAX` is the host's `usize::MAX`.
    fn pe_index(&mut self) -> Result<usize, CheckpointError> {
        Ok(match self.u32()? {
            u32::MAX => usize::MAX,
            i => i as usize,
        })
    }

    /// A vector length; rejected if that many elements of at least
    /// `elem_min_bytes` each could not fit in the remaining payload (so
    /// `Vec::with_capacity` reserves at most a small multiple of it).
    fn len(&mut self, elem_min_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.u64()? as usize;
        let remaining = self.bytes.len() - self.pos;
        if n.checked_mul(elem_min_bytes).is_none_or(|b| b > remaining) {
            return Err(CheckpointError::Malformed(format!(
                "count {n} needs at least {} bytes, {remaining} remain",
                n.saturating_mul(elem_min_bytes)
            )));
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), CheckpointError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(CheckpointError::Malformed(format!(
                "{} trailing bytes",
                self.bytes.len() - self.pos
            )))
        }
    }
}

fn read_report(r: &mut Reader) -> Result<RunReport, CheckpointError> {
    Ok(RunReport {
        events: r.u64()?,
        final_time: r.u64()?,
        edge_drops: r.u64()?,
        faults: r.u64()?,
    })
}

fn read_color(r: &mut Reader) -> Result<Color, CheckpointError> {
    let id = r.u8()?;
    if (id as usize) >= MAX_COLORS {
        return Err(CheckpointError::Malformed(format!("color id {id}")));
    }
    Ok(Color::new(id))
}

fn read_direction(r: &mut Reader) -> Result<Direction, CheckpointError> {
    direction_from_index(r.u8()?)
}

fn direction_from_index(i: u8) -> Result<Direction, CheckpointError> {
    Ok(match i {
        0 => Direction::North,
        1 => Direction::East,
        2 => Direction::South,
        3 => Direction::West,
        4 => Direction::Ramp,
        v => return Err(CheckpointError::Malformed(format!("direction {v}"))),
    })
}

fn fault_class_from_code(code: u8) -> Result<FaultClass, CheckpointError> {
    Ok(match code {
        0 => FaultClass::LinkDown,
        1 => FaultClass::PeHalt,
        2 => FaultClass::PeSlow,
        3 => FaultClass::CorruptInjected,
        4 => FaultClass::CorruptDetected,
        5 => FaultClass::RouterFlip,
        6 => FaultClass::WatchdogStall,
        v => return Err(CheckpointError::Malformed(format!("fault class {v}"))),
    })
}

fn read_wavelet(r: &mut Reader) -> Result<Wavelet, CheckpointError> {
    let color = read_color(r)?;
    let control = r.bool()?;
    let payload = r.u32()?;
    let crc = r.u32()?;
    let mut w = if control {
        Wavelet::control(color, payload)
    } else {
        Wavelet::data(color, payload)
    };
    w.set_raw_crc(crc);
    Ok(w)
}

fn read_trace_seq(r: &mut Reader) -> Result<TraceSeqRecord, CheckpointError> {
    Ok(TraceSeqRecord {
        next_seq: r.u32()?,
        dropped: r.u64()?,
        base_time: r.u64()?,
        base_cycles: r.u64()?,
    })
}

fn read_fault_event(r: &mut Reader) -> Result<FaultEvent, CheckpointError> {
    Ok(FaultEvent {
        time: r.u64()?,
        pe: PeCoord::new(r.u64()? as usize, r.u64()? as usize),
        class: fault_class_from_code(r.u8()?)?,
        detail: r.u32()?,
        benign: r.bool()?,
    })
}

fn decode_driver(r: &mut Reader) -> Result<DriverSnapshot, CheckpointError> {
    let applications = r.u64()?;
    let fabric_applications = r.u64()?;
    let in_flight = if r.bool()? {
        Some(StepTotals {
            events: r.u64()?,
            final_time: r.u64()?,
            edge_drops: r.u64()?,
            faults: r.u64()?,
            complete: r.bool()?,
        })
    } else {
        None
    };
    let last_run = if r.bool()? {
        Some(read_report(r)?)
    } else {
        None
    };
    let fabric = decode_fabric(r)?;
    Ok(DriverSnapshot {
        fabric,
        applications,
        fabric_applications,
        in_flight,
        last_run,
    })
}

fn decode_fabric(r: &mut Reader) -> Result<FabricSnapshot, CheckpointError> {
    let cols = r.u64()? as usize;
    let rows = r.u64()? as usize;
    let time = r.u64()?;
    let host_seq = r.u64()?;
    let host_trace_seq = read_trace_seq(r)?;
    let n_events = r.len(EVENT_BYTES)?;
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let time = r.u64()?;
        let seq = r.u64()?;
        let src = r.pe_index()?;
        let pe = r.pe_index()?;
        let route_input = match r.u8()? {
            0 => None,
            i => Some(direction_from_index(i - 1)?),
        };
        let wavelet = read_wavelet(r)?;
        events.push(EventRecord {
            time,
            seq,
            src,
            pe,
            route_input,
            wavelet,
        });
    }
    let n_pes = r.len(PE_RECORD_MIN_BYTES)?;
    if cols.checked_mul(rows) != Some(n_pes) {
        return Err(CheckpointError::Malformed(format!(
            "{n_pes} PE records for a {cols}×{rows} fabric"
        )));
    }
    let mut pes = Vec::with_capacity(n_pes);
    for _ in 0..n_pes {
        pes.push(decode_pe(r)?);
    }
    Ok(FabricSnapshot {
        cols,
        rows,
        time,
        host_seq,
        host_trace_seq,
        events,
        pes,
    })
}

fn decode_pe(r: &mut Reader) -> Result<PeRecord, CheckpointError> {
    let n_words = r.len(4)?;
    let memory_words = r
        .take(4 * n_words)?
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
        .collect();
    let memory_allocated = r.u64()? as usize;
    let mut counters = [0u64; 14];
    for c in &mut counters {
        *c = r.u64()?;
    }
    let n_positions = r.len(2)?;
    let mut router_positions = Vec::with_capacity(n_positions);
    for _ in 0..n_positions {
        let color = r.u8()?;
        let pos = r.u8()?;
        router_positions.push((color, pos));
    }
    let fabric_hops = r.u64()?;
    let ramp_deliveries = r.u64()?;
    let busy_until = r.u64()?;
    let n_parked = r.len(11)?;
    let mut parked = Vec::with_capacity(n_parked);
    for _ in 0..n_parked {
        let dir = read_direction(r)?;
        let w = read_wavelet(r)?;
        parked.push((dir, w));
    }
    let seq = r.u64()?;
    let edge_drops = r.u64()?;
    let flow_stalls = r.u64()?;
    let queue_wait_cycles = r.u64()?;
    let fault_drops = r.u64()?;
    let checksum_drops = r.u64()?;
    let faults = decode_faults(r)?;
    let trace_seq = read_trace_seq(r)?;
    Ok(PeRecord {
        memory_words,
        memory_allocated,
        counters: counters_from_array(counters),
        router_positions,
        fabric_hops,
        ramp_deliveries,
        busy_until,
        parked,
        seq,
        edge_drops,
        flow_stalls,
        queue_wait_cycles,
        fault_drops,
        checksum_drops,
        faults,
        trace_seq,
    })
}

fn decode_faults(r: &mut Reader) -> Result<FaultRecord, CheckpointError> {
    let active = r.bool()?;
    let verify_checksums = r.bool()?;
    let n_links = r.len(17)?;
    let mut link_down = Vec::with_capacity(n_links);
    for _ in 0..n_links {
        let dir = read_direction(r)?;
        let from = r.u64()?;
        let until = r.u64()?;
        link_down.push((dir, from, until));
    }
    let halt_at = if r.bool()? { Some(r.u64()?) } else { None };
    let n_slow = r.len(20)?;
    let mut slow = Vec::with_capacity(n_slow);
    for _ in 0..n_slow {
        slow.push((r.u64()?, r.u64()?, r.u32()?));
    }
    let n_logged = r.len(1)?;
    let mut slow_logged = Vec::with_capacity(n_logged);
    for _ in 0..n_logged {
        slow_logged.push(r.bool()?);
    }
    let n_corrupt = r.len(12)?;
    let mut corrupt = Vec::with_capacity(n_corrupt);
    for _ in 0..n_corrupt {
        corrupt.push((r.u64()?, r.u32()?));
    }
    let n_flips = r.len(9)?;
    let mut flips = Vec::with_capacity(n_flips);
    for _ in 0..n_flips {
        let at = r.u64()?;
        let color = read_color(r)?;
        flips.push((at, color));
    }
    let n_log = r.len(30)?;
    let mut log = Vec::with_capacity(n_log);
    for _ in 0..n_log {
        log.push(read_fault_event(r)?);
    }
    let tainted = r.bool()?;
    Ok(FaultRecord {
        active,
        verify_checksums,
        link_down,
        halt_at,
        slow,
        slow_logged,
        corrupt,
        flips,
        log,
        tainted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_checksum_folds_the_content_hash() {
        // XXH64("") = 0xef46_db37_51d8_e999, XXH64("abc") =
        // 0x44bc_2cf5_ad77_0999: the low and high words XORed.
        assert_eq!(payload_checksum(b""), 0xbe9e_32ae);
        assert_eq!(payload_checksum(b"abc"), 0xe9cb_256c);
    }

    #[test]
    fn pe_record_min_bytes_is_an_empty_record() {
        let mut out = Vec::new();
        encode_pe(&mut out, &PeRecord::default());
        assert_eq!(out.len(), PE_RECORD_MIN_BYTES);
    }

    /// Writes the payload checksum of `bytes` into its header.
    fn reseal(bytes: &mut [u8]) {
        let checksum = payload_checksum(&bytes[HEADER_LEN..]);
        bytes[28..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn header_too_short_is_truncated() {
        let err = Checkpoint::decode(&MAGIC[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = vec![0u8; HEADER_LEN];
        bytes[..8].copy_from_slice(b"NOTACKPT");
        assert_eq!(
            Checkpoint::decode(&bytes).unwrap_err(),
            CheckpointError::BadMagic
        );
    }

    /// A checkpoint of a freshly built 4×4×2 simulator.
    fn tiny_checkpoint() -> Checkpoint {
        use fv_core::mesh::{CartesianMesh3, Extents, Spacing};
        let mesh = CartesianMesh3::new(Extents::new(4, 4, 2), Spacing::new(10.0, 10.0, 4.0));
        let fluid = fv_core::eos::Fluid::water_like();
        let perm = fv_core::fields::PermeabilityField::uniform(&mesh, 1e-13);
        let trans = fv_core::trans::Transmissibilities::tpfa(
            &mesh,
            &perm,
            fv_core::trans::StencilKind::TenPoint,
        );
        let sim = DataflowFluxSimulator::builder(&mesh)
            .fluid(&fluid)
            .transmissibilities(&trans)
            .build()
            .expect("tiny problem builds");
        Checkpoint::capture(&sim)
    }

    #[test]
    fn encode_writes_one_buffer_sized_from_the_snapshot() {
        let ckpt = tiny_checkpoint();
        let bytes = ckpt.encode();
        let hint = HEADER_LEN + payload_size_hint(&ckpt.driver);
        assert!(
            (bytes.len()..bytes.len() + bytes.len() / 10).contains(&hint),
            "hint {hint} B for a {} B checkpoint",
            bytes.len()
        );
        // The patched header describes the payload it precedes.
        assert_eq!(Checkpoint::decode(&bytes).expect("roundtrip"), ckpt);
    }

    /// Each check on a pending-event record refuses a bad field with
    /// `Malformed` even when the payload checksum is valid.
    #[test]
    fn malformed_event_records_are_refused() {
        const TIME: u64 = 0x0123_4567_89ab_cdef;
        let mut ckpt = tiny_checkpoint();
        ckpt.driver.fabric.events.push(EventRecord {
            time: TIME,
            seq: 7,
            src: usize::MAX,
            pe: 3,
            route_input: Some(Direction::West),
            wavelet: Wavelet::data(Color::new(2), 0xdead_beef),
        });
        let bytes = ckpt.encode();
        assert_eq!(Checkpoint::decode(&bytes).expect("roundtrip"), ckpt);
        let at = bytes
            .windows(8)
            .position(|w| w == TIME.to_le_bytes())
            .expect("the record's time");
        // Route tag, color id and control byte, at their record offsets.
        for (offset, value, message) in [
            (24, 7, "direction 6"),
            (25, 255, "color id 255"),
            (26, 2, "boolean tag 2"),
        ] {
            let mut bad = bytes.clone();
            bad[at + offset] = value;
            reseal(&mut bad);
            assert_eq!(
                Checkpoint::decode(&bad),
                Err(CheckpointError::Malformed(message.into())),
                "byte {offset} of the record set to {value}"
            );
        }
    }

    /// A PE count that disagrees with the fabric's `cols × rows`, or whose
    /// records could not fit in the remaining payload, is refused with
    /// `Malformed` naming the count before anything is reserved for it.
    #[test]
    fn impossible_pe_counts_are_refused_before_reserving() {
        let bytes = tiny_checkpoint().encode();
        let put = |bytes: &mut Vec<u8>, at: usize, v: u64| {
            bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
        };
        let get = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        // The fabric section opens with cols = rows = 4; the event count
        // follows time, host sequence and the 28-byte trace record, and the
        // PE count follows the (here empty) events.
        let cols_at = HEADER_LEN
            + bytes[HEADER_LEN..]
                .windows(16)
                .position(|w| w[..8] == 4u64.to_le_bytes() && w[8..] == 4u64.to_le_bytes())
                .expect("the fabric's cols and rows");
        assert_eq!(get(cols_at + 60), 0, "no pending events");
        let pes_at = cols_at + 68;
        assert_eq!(get(pes_at), 16, "the PE count");
        let remaining = (bytes.len() - pes_at - 8) as u64;

        let refused = |patches: &[(usize, u64)], message: String| {
            let mut bad = bytes.clone();
            for &(at, v) in patches {
                put(&mut bad, at, v);
            }
            reseal(&mut bad);
            assert_eq!(
                Checkpoint::decode(&bad),
                Err(CheckpointError::Malformed(message)),
                "{patches:?}"
            );
        };
        // A million PEs in a few KB.
        refused(
            &[(pes_at, 1_000_000)],
            format!("count 1000000 needs at least 296000000 bytes, {remaining} remain"),
        );
        // As many PEs as 8-byte records would fit, on a fabric that size:
        // within the 8 bytes a PE count used to be checked against, far
        // beyond what real records need.
        let n = remaining / 8;
        refused(
            &[(cols_at, n), (cols_at + 8, 1), (pes_at, n)],
            format!(
                "count {n} needs at least {} bytes, {remaining} remain",
                296 * n
            ),
        );
        // A plausible count for another fabric, and a fabric whose size
        // overflows.
        refused(&[(pes_at, 15)], "15 PE records for a 4×4 fabric".into());
        refused(
            &[(cols_at, 1 << 32), (cols_at + 8, 1 << 32)],
            "16 PE records for a 4294967296×4294967296 fabric".into(),
        );
    }

    #[test]
    fn metered_codec_matches_plain_and_records_timings() {
        let ckpt = tiny_checkpoint();
        let hub = wse_metrics::MetricsHub::new_live();
        let timing = hub.histogram("serve_checkpoint_encode_ns", "test", &[]);
        let bytes = ckpt.encode_metered(&timing);
        assert_eq!(bytes, ckpt.encode(), "metering must not change the bytes");
        let back = Checkpoint::decode_metered(&bytes, &timing).expect("roundtrip");
        assert_eq!(back.spec_hash, ckpt.spec_hash);
        // One encode + one decode observed; the error path observes too.
        assert!(Checkpoint::decode_metered(&MAGIC[..], &timing).is_err());
        match &hub.snapshot()[0].value {
            wse_metrics::SampleValue::Histogram { count, .. } => assert_eq!(*count, 3),
            other => panic!("expected a histogram, got {other:?}"),
        }
        // A null handle is exactly encode()/decode().
        let null = wse_metrics::Histogram::default();
        assert_eq!(ckpt.encode_metered(&null), bytes);
    }
}
