//! PE-private local memory.
//!
//! Each PE owns a small scratchpad ("single-level memory"): 48 kB on WSE-2.
//! "The cells in the same vertical column share the private memory of a PE,
//! therefore reducing the memory consumption on each PE is crucial to fit
//! the largest possible problem" (paper §5.3). A PE's `init` lays its memory
//! out by bump allocation over 32-bit words with the hardware capacity
//! enforced (`PeContext::alloc`), so the buffer-reuse optimization of
//! §5.3.1 is a real, testable constraint.
//!
//! The layout is fixed before the program runs, as on the hardware: once
//! every PE's `init` has run, `Fabric::load` lays all PEs' allocated words
//! out, zero-filled and in PE order, in one array, and a handler sees its
//! PE's words through a [`PeMemory`] view of exactly its allocation. An
//! access outside the allocation is refused with a [`MemoryError`], never
//! served from a neighbour's words and never grown into.

use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// WSE-2 per-PE memory: 48 kB.
pub const WSE2_PE_MEMORY_BYTES: usize = 48 * 1024;

/// A contiguous allocation in PE memory, in 32-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRange {
    /// First word.
    pub offset: usize,
    /// Length in words.
    pub len: usize,
}

impl MemRange {
    /// The `i`-th word's absolute address.
    #[inline]
    pub fn at(&self, i: usize) -> usize {
        debug_assert!(i < self.len, "index {i} out of range {}", self.len);
        self.offset + i
    }

    /// The addresses of the range.
    #[inline]
    pub fn words(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// A PE memory access or allocation its fixed layout refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryError {
    /// A read at `addr`, outside the PE's `allocated` words.
    Read {
        /// The word address read.
        addr: usize,
        /// Words the PE allocated.
        allocated: usize,
    },
    /// A write at `addr`, outside the PE's `allocated` words.
    Write {
        /// The word address written.
        addr: usize,
        /// Words the PE allocated.
        allocated: usize,
    },
    /// `init` asked for more words than the PE's scratchpad has left.
    Exhausted {
        /// Words requested.
        requested: usize,
        /// Words still available.
        available: usize,
    },
    /// An allocation of `len` words at `addr` after load: the layout is
    /// frozen.
    Frozen {
        /// Where the allocation would have started (the end of the PE's
        /// allocation).
        addr: usize,
        /// Words requested.
        len: usize,
    },
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryError::Read { addr, allocated } => {
                write!(f, "read at word {addr} outside the {allocated} allocated")
            }
            MemoryError::Write { addr, allocated } => {
                write!(f, "write at word {addr} outside the {allocated} allocated")
            }
            MemoryError::Exhausted {
                requested,
                available,
            } => write!(
                f,
                "PE memory exhausted: requested {requested} words, {available} available"
            ),
            MemoryError::Frozen { addr, len } => write!(
                f,
                "allocation of {len} words at word {addr} after load (the layout is frozen)"
            ),
        }
    }
}

impl std::error::Error for MemoryError {}

/// A handler's view of its PE's memory: exactly the words the PE
/// allocated, word-addressed from 0. An access outside them reads 0 or is
/// dropped, and the first one is kept as the view's [`MemoryError`] for
/// the fabric to report.
#[derive(Debug)]
pub struct PeMemory<'a> {
    words: &'a mut [u32],
    fault: Cell<Option<MemoryError>>,
}

impl<'a> PeMemory<'a> {
    /// A view of `words`, a PE's whole allocation.
    pub fn new(words: &'a mut [u32]) -> Self {
        Self {
            words,
            fault: Cell::new(None),
        }
    }

    /// The allocated words.
    #[inline]
    pub fn words(&self) -> &[u32] {
        self.words
    }

    /// The first refused access or allocation through this view.
    pub fn fault(&self) -> Option<MemoryError> {
        self.fault.get()
    }

    /// Keeps `error` unless an earlier one is kept already.
    pub(crate) fn refuse(&self, error: MemoryError) {
        if self.fault.get().is_none() {
            self.fault.set(Some(error));
        }
    }

    #[cold]
    #[inline(never)]
    fn refuse_read(&self, addr: usize) -> u32 {
        let allocated = self.words.len();
        self.refuse(MemoryError::Read { addr, allocated });
        0
    }

    #[cold]
    #[inline(never)]
    fn refuse_write(&self, addr: usize) {
        let allocated = self.words.len();
        self.refuse(MemoryError::Write { addr, allocated });
    }

    /// Raw word read (host access / DSD engine — no traffic accounting
    /// here; the DSD layer counts). Outside the allocation: 0, refused.
    #[inline]
    pub fn read_u32(&self, addr: usize) -> u32 {
        match self.words.get(addr) {
            Some(&w) => w,
            None => self.refuse_read(addr),
        }
    }

    /// Raw word write. Outside the allocation: dropped, refused.
    #[inline]
    pub fn write_u32(&mut self, addr: usize, value: u32) {
        match self.words.get_mut(addr) {
            Some(w) => *w = value,
            None => self.refuse_write(addr),
        }
    }

    /// `f32` view of a word.
    #[inline]
    pub fn read_f32(&self, addr: usize) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// `f32` store.
    #[inline]
    pub fn write_f32(&mut self, addr: usize, value: f32) {
        self.write_u32(addr, value.to_bits());
    }
}

/// Host-side bulk copy into a PE's words (the SDK's `memcpy`
/// in-direction): `data` into the first words of `range`.
///
/// # Panics
///
/// If `data` is longer than `range` or `range` is outside `words`.
pub fn host_write_f32(words: &mut [u32], range: MemRange, data: &[f32]) {
    assert!(data.len() <= range.len, "host write exceeds range");
    for (w, v) in words[range.words()].iter_mut().zip(data) {
        *w = v.to_bits();
    }
}

/// The canonical word image of a PE's memory for a fabric checkpoint:
/// `words` with trailing zeros trimmed. Two memories with the same
/// content give bit-identical images.
pub fn trimmed(words: &[u32]) -> &[u32] {
    let end = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
    &words[..end]
}

/// Overwrites a PE's words from a checkpoint's image of an `allocated`-word
/// memory: the image into the first words, zeros after it. An image of
/// another layout — `allocated` not the PE's allocation, or longer than
/// it — is refused and changes nothing.
pub fn restore_image(words: &mut [u32], image: &[u32], allocated: usize) -> Result<(), String> {
    if allocated != words.len() {
        return Err(format!(
            "snapshot allocated {allocated} words, the loaded layout {}",
            words.len()
        ));
    }
    if image.len() > allocated {
        return Err(format!(
            "snapshot image has {} words, the allocation {allocated}",
            image.len()
        ));
    }
    let (head, tail) = words.split_at_mut(image.len());
    head.copy_from_slice(image);
    tail.fill(0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fabric::{Fabric, FabricConfig, FabricError};
    use crate::geometry::{FabricDims, PeCoord};
    use crate::pe::{PeContext, PeProgram};
    use crate::wavelet::Wavelet;
    use std::sync::{Arc, Mutex};

    /// Allocates `.0` in turn at `init`, keeping the ranges it got in `.1`.
    struct Allocs(&'static [usize], Arc<Mutex<Vec<MemRange>>>);

    impl PeProgram for Allocs {
        fn init(&mut self, ctx: &mut PeContext) {
            for &len in self.0 {
                let range = ctx.alloc(len);
                self.1.lock().unwrap().push(range);
            }
        }

        fn on_data(&mut self, _ctx: &mut PeContext, _w: Wavelet) {}
    }

    /// Loads a one-PE fabric of `bytes` capacity whose `init` allocates
    /// `lens`: the ranges it got, its memory's size and the load error.
    fn lay_out(
        bytes: usize,
        lens: &'static [usize],
    ) -> (Vec<MemRange>, usize, Option<FabricError>) {
        let ranges = Arc::new(Mutex::new(Vec::new()));
        let config = FabricConfig {
            pe_memory_bytes: bytes,
            ..FabricConfig::default()
        };
        let mut f = Fabric::new(FabricDims::new(1, 1), config, |_| {
            Box::new(Allocs(lens, ranges.clone()))
        });
        f.load();
        let allocated = f.memory(PeCoord::new(0, 0)).len();
        let got = ranges.lock().unwrap().clone();
        (got, allocated, f.load_error().cloned())
    }

    fn exhausted(requested: usize, available: usize) -> Option<FabricError> {
        Some(FabricError::Memory {
            pe: PeCoord::new(0, 0),
            error: MemoryError::Exhausted {
                requested,
                available,
            },
        })
    }

    #[test]
    fn wse2_capacity_is_48kb() {
        assert_eq!(
            FabricConfig::default().pe_memory_bytes,
            WSE2_PE_MEMORY_BYTES
        );
        assert_eq!(lay_out(WSE2_PE_MEMORY_BYTES, &[12_288]).2, None);
        assert_eq!(
            lay_out(WSE2_PE_MEMORY_BYTES, &[12_289]).2,
            exhausted(12_289, 12_288)
        );
    }

    #[test]
    fn alloc_bumps_and_is_word_exact() {
        let (ranges, allocated, error) = lay_out(64, &[4, 8, 4]);
        assert_eq!(
            ranges.iter().map(|r| r.offset).collect::<Vec<_>>(),
            [0, 4, 12]
        );
        assert_eq!((allocated, error), (16, None));
        // now full
        let error = lay_out(64, &[4, 8, 4, 1]).2;
        assert_eq!(error, exhausted(1, 0));
        assert!(format!("{}", error.unwrap()).contains("exhausted"));
    }

    #[test]
    fn overallocation_reports_availability() {
        let (ranges, allocated, error) = lay_out(40, &[6, 5]); // 10 words
        assert_eq!(error, exhausted(5, 4));
        assert_eq!(allocated, 6, "a refused allocation takes nothing");
        // the refused range lies past the allocation
        assert_eq!(ranges[1], MemRange { offset: 6, len: 5 });
    }

    #[test]
    fn f32_storage_is_bit_exact() {
        let mut words = [0; 4];
        let mut m = PeMemory::new(&mut words);
        m.write_f32(0, -1.5);
        m.write_f32(1, f32::from_bits(0x7FC0_0001));
        assert_eq!(m.read_f32(0), -1.5);
        assert_eq!(m.read_f32(1).to_bits(), 0x7FC0_0001);
        m.write_u32(2, 0xDEAD_BEEF);
        assert_eq!(m.read_u32(2), 0xDEAD_BEEF);
        assert_eq!(m.fault(), None);
    }

    #[test]
    fn accesses_outside_the_allocation_are_refused_and_change_nothing() {
        let mut words = [1, 2, 3];
        let mut m = PeMemory::new(&mut words);
        assert_eq!(m.read_u32(3), 0);
        m.write_u32(7, 9);
        m.write_u32(usize::MAX, 9);
        // the first refusal is the one kept
        let read = MemoryError::Read {
            addr: 3,
            allocated: 3,
        };
        assert_eq!(m.fault(), Some(read));
        assert!(format!("{read}").contains("read at word 3"));
        assert_eq!(words, [1, 2, 3]);
        let mut words = [0; 2];
        let mut m = PeMemory::new(&mut words);
        m.write_f32(2, 1.0);
        let write = MemoryError::Write {
            addr: 2,
            allocated: 2,
        };
        assert_eq!(m.fault(), Some(write));
        let mut empty = PeMemory::new(&mut []);
        empty.write_u32(0, 1);
        assert_eq!(empty.read_u32(0), 0);
        assert!(matches!(
            empty.fault(),
            Some(MemoryError::Write { addr: 0, .. })
        ));
    }

    #[test]
    fn host_memcpy_roundtrip() {
        let mut words = [0; 10];
        let r = MemRange { offset: 2, len: 8 };
        let data: Vec<f32> = (0..8).map(|i| i as f32 * 0.25).collect();
        host_write_f32(&mut words, r, &data);
        assert_eq!(words[..2], [0, 0]);
        let back: Vec<f32> = words[r.words()]
            .iter()
            .map(|&w| f32::from_bits(w))
            .collect();
        assert_eq!(back, data);
    }

    #[test]
    fn range_split() {
        let r = MemRange { offset: 10, len: 6 };
        assert_eq!(r.at(1), 11);
        assert_eq!(r.words(), 10..16);
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn unaligned_capacity_rejected() {
        let _ = lay_out(42, &[]);
    }

    #[test]
    fn snapshot_words_are_canonical_across_growth_histories() {
        // same logical content, different write histories
        let mut a = [0; 16];
        let mut b = [0; 16];
        let mut ma = PeMemory::new(&mut a);
        ma.write_u32(2, 9);
        ma.write_u32(12, 5);
        ma.write_u32(12, 0); // written, then logically zeroed
        PeMemory::new(&mut b).write_u32(2, 9);
        assert_eq!(trimmed(&a), trimmed(&b));
        assert_eq!(trimmed(&a), [0, 0, 9]);
        assert_eq!(trimmed(&[0; 4]), [0; 0]);
    }

    #[test]
    fn restore_accepts_short_and_capacity_sized_images() {
        let mut m = [7; 8];
        restore_image(&mut m, &[1, 2, 3], 8).unwrap();
        assert_eq!(m, [1, 2, 3, 0, 0, 0, 0, 0]);
        // an untrimmed, allocation-sized image restores identically
        let mut m2 = [7; 8];
        restore_image(&mut m2, &m.clone(), 8).unwrap();
        assert_eq!(m, m2);
        // images of another layout are refused and change nothing
        assert!(restore_image(&mut m2, &[1; 9], 8).is_err());
        assert!(restore_image(&mut m2, &[1], 9).is_err());
        assert!(restore_image(&mut m2, &[1], 7).is_err());
        assert_eq!(m, m2);
    }

    #[test]
    fn host_read_into_matches_alloc_read() {
        // a short host write fills the head of its range and nothing else,
        // and the PE's view reads what the host wrote
        let mut words = [9; 8];
        let r = MemRange { offset: 1, len: 6 };
        host_write_f32(&mut words, r, &[1.0, 2.0, 3.0]);
        assert_eq!(words[0], 9);
        assert_eq!(words[4..], [9; 4]);
        let m = PeMemory::new(&mut words);
        assert_eq!(m.read_f32(r.at(2)), 3.0);
    }
}
