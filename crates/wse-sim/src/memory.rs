//! PE-private local memory.
//!
//! Each PE owns a small scratchpad ("single-level memory"): 48 kB on WSE-2.
//! "The cells in the same vertical column share the private memory of a PE,
//! therefore reducing the memory consumption on each PE is crucial to fit
//! the largest possible problem" (paper §5.3). The allocator here is a bump
//! allocator over 32-bit words with the hardware capacity enforced, so the
//! buffer-reuse optimization of §5.3.1 is a real, testable constraint.

use serde::{Deserialize, Serialize};

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

    /// Splits off the first `n` words.
    pub fn split_at(&self, n: usize) -> (MemRange, MemRange) {
        assert!(n <= self.len);
        (
            MemRange {
                offset: self.offset,
                len: n,
            },
            MemRange {
                offset: self.offset + n,
                len: self.len - n,
            },
        )
    }
}

/// A PE's private memory: a word-addressed scratchpad with a bump allocator
/// and a capacity limit.
///
/// The backing store covers the *allocated* words, not the capacity:
/// construction allocates nothing, and `Fabric::load` reserves room for
/// every word the PE's `init` allocated, right after that `init` and in PE
/// order, without filling it. The word vector's length stays the written
/// prefix: it grows (zero-filled) only as high addresses are written, which
/// inside the reservation never reallocates. Reads beyond the written
/// prefix but within capacity return 0, exactly as if the full arena had
/// been zero-initialized eagerly. This is what lets a paper-scale fabric
/// (~738k PEs × 48 kB capacity) fit in host memory — resident bytes track
/// words allocated, not capacity — and it keeps neighbouring PEs' memories
/// neighbours on the host heap.
#[derive(Debug, Clone)]
pub struct PeMemory {
    words: Vec<u32>,
    next_free: usize,
    capacity_words: usize,
}

/// Allocation failure: the program exceeds the PE's scratchpad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Words requested.
    pub requested: usize,
    /// Words still available.
    pub available: usize,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PE memory exhausted: requested {} words, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

impl PeMemory {
    /// Memory with the WSE-2 capacity (48 kB = 12288 words).
    pub fn wse2() -> Self {
        Self::with_capacity_bytes(WSE2_PE_MEMORY_BYTES)
    }

    /// Memory with an explicit byte capacity (must be a multiple of 4).
    /// No backing store is allocated until the first write.
    pub fn with_capacity_bytes(bytes: usize) -> Self {
        assert!(bytes.is_multiple_of(4), "capacity must be word-aligned");
        let capacity_words = bytes / 4;
        Self {
            words: Vec::new(),
            next_free: 0,
            capacity_words,
        }
    }

    /// Allocates `len` words, zero-initialized.
    pub fn alloc(&mut self, len: usize) -> Result<MemRange, OutOfMemory> {
        if self.next_free + len > self.capacity_words {
            return Err(OutOfMemory {
                requested: len,
                available: self.capacity_words - self.next_free,
            });
        }
        let r = MemRange {
            offset: self.next_free,
            len,
        };
        self.next_free += len;
        Ok(r)
    }

    /// Reserves backing for every word allocated so far, exactly — no
    /// zero fill, so the written prefix, the reads past it and
    /// [`PeMemory::snapshot_words`] are unchanged. Writes inside the
    /// allocation then never reallocate; a write past it still grows the
    /// store.
    pub(crate) fn reserve_allocated(&mut self) {
        let missing = self.next_free.saturating_sub(self.words.len());
        self.words.reserve_exact(missing);
    }

    /// Words currently allocated (the high-water mark — bump allocators
    /// never free).
    #[inline]
    pub fn allocated_words(&self) -> usize {
        self.next_free
    }

    /// Bytes currently allocated.
    #[inline]
    pub fn allocated_bytes(&self) -> usize {
        self.next_free * 4
    }

    /// Total capacity in words.
    #[inline]
    pub fn capacity_words(&self) -> usize {
        self.capacity_words
    }

    /// The canonical word image for a fabric checkpoint: the written
    /// prefix with trailing zeros trimmed. Two memories with the same
    /// logical content produce bit-identical images regardless of how
    /// their lazy backing stores grew — which makes checkpoints
    /// representation-portable by construction.
    pub fn snapshot_words(&self) -> Vec<u32> {
        let end = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        self.words[..end].to_vec()
    }

    /// Overwrites the word store and allocation cursor from a checkpoint.
    /// `words` may be any length up to this arena's capacity (canonical
    /// images are trailing-zero-trimmed; older capacity-sized images
    /// restore identically) — words beyond its length read as zero.
    /// `allocated` must not exceed capacity: a violation means the
    /// snapshot was taken on a fabric with a larger memory configuration.
    pub fn restore_words(&mut self, words: &[u32], allocated: usize) -> Result<(), String> {
        if words.len() > self.capacity_words {
            return Err(format!(
                "memory capacity mismatch: snapshot has {} words, arena holds {}",
                words.len(),
                self.capacity_words
            ));
        }
        if allocated > self.capacity_words {
            return Err(format!(
                "allocation cursor {allocated} exceeds capacity {}",
                self.capacity_words
            ));
        }
        self.words.clear();
        self.words.extend_from_slice(words);
        self.next_free = allocated;
        Ok(())
    }

    /// Raw word read (host access / DSD engine — no traffic accounting
    /// here; the DSD layer counts). Reads past the lazily-grown prefix
    /// return 0, like the zero-initialized arena they stand in for.
    #[inline]
    pub fn read_u32(&self, addr: usize) -> u32 {
        if addr < self.words.len() {
            self.words[addr]
        } else {
            assert!(
                addr < self.capacity_words,
                "read at {addr} beyond capacity {}",
                self.capacity_words
            );
            0
        }
    }

    /// Raw word write, growing the written prefix as needed — in place
    /// inside the reservation `Fabric::load` made.
    #[inline]
    pub fn write_u32(&mut self, addr: usize, value: u32) {
        if addr >= self.words.len() {
            assert!(
                addr < self.capacity_words,
                "write at {addr} beyond capacity {}",
                self.capacity_words
            );
            self.words.resize(addr + 1, 0);
        }
        self.words[addr] = value;
    }

    /// The backing store's address and capacity, to check that a run did
    /// not reallocate it.
    #[cfg(test)]
    pub(crate) fn backing(&self) -> (*const u32, usize) {
        (self.words.as_ptr(), self.words.capacity())
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

    /// Host-side bulk copy into PE memory (the SDK's `memcpy` in-direction).
    pub fn host_write_f32(&mut self, range: MemRange, data: &[f32]) {
        assert!(data.len() <= range.len, "host write exceeds range");
        for (i, &v) in data.iter().enumerate() {
            self.write_f32(range.at(i), v);
        }
    }

    /// Host-side bulk copy out of PE memory (the SDK's `memcpy`
    /// out-direction).
    pub fn host_read_f32(&self, range: MemRange) -> Vec<f32> {
        (0..range.len).map(|i| self.read_f32(range.at(i))).collect()
    }

    /// Allocation-free variant of [`PeMemory::host_read_f32`]: reads the
    /// range into a caller-owned buffer. The bulk-collect path over a
    /// paper-scale fabric calls this once per PE; per-PE `Vec` churn there
    /// is measurable.
    pub fn host_read_f32_into(&self, range: MemRange, out: &mut [f32]) {
        assert!(out.len() >= range.len, "host read exceeds buffer");
        for (i, slot) in out.iter_mut().take(range.len).enumerate() {
            *slot = self.read_f32(range.at(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wse2_capacity_is_48kb() {
        let m = PeMemory::wse2();
        assert_eq!(m.capacity_words(), 12_288);
        assert_eq!(m.allocated_words(), 0);
    }

    #[test]
    fn alloc_bumps_and_is_word_exact() {
        let mut m = PeMemory::with_capacity_bytes(64);
        let a = m.alloc(4).unwrap();
        let b = m.alloc(8).unwrap();
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 4);
        assert_eq!(m.allocated_words(), 12);
        assert_eq!(m.allocated_bytes(), 48);
        let c = m.alloc(4).unwrap();
        assert_eq!(c.offset, 12);
        // now full
        let err = m.alloc(1).unwrap_err();
        assert_eq!(err.available, 0);
        assert!(format!("{err}").contains("exhausted"));
    }

    #[test]
    fn overallocation_reports_availability() {
        let mut m = PeMemory::with_capacity_bytes(40); // 10 words
        let _ = m.alloc(6).unwrap();
        let err = m.alloc(5).unwrap_err();
        assert_eq!(err.requested, 5);
        assert_eq!(err.available, 4);
    }

    #[test]
    fn f32_storage_is_bit_exact() {
        let mut m = PeMemory::with_capacity_bytes(16);
        let r = m.alloc(4).unwrap();
        m.write_f32(r.at(0), -1.5);
        m.write_f32(r.at(1), f32::from_bits(0x7FC0_0001));
        assert_eq!(m.read_f32(r.at(0)), -1.5);
        assert_eq!(m.read_f32(r.at(1)).to_bits(), 0x7FC0_0001);
        m.write_u32(r.at(2), 0xDEAD_BEEF);
        assert_eq!(m.read_u32(r.at(2)), 0xDEAD_BEEF);
    }

    #[test]
    fn host_memcpy_roundtrip() {
        let mut m = PeMemory::with_capacity_bytes(64);
        let r = m.alloc(8).unwrap();
        let data: Vec<f32> = (0..8).map(|i| i as f32 * 0.25).collect();
        m.host_write_f32(r, &data);
        assert_eq!(m.host_read_f32(r), data);
    }

    #[test]
    fn range_split() {
        let r = MemRange { offset: 10, len: 6 };
        let (a, b) = r.split_at(2);
        assert_eq!((a.offset, a.len), (10, 2));
        assert_eq!((b.offset, b.len), (12, 4));
        assert_eq!(b.at(1), 13);
    }

    #[test]
    #[should_panic]
    fn unaligned_capacity_rejected() {
        let _ = PeMemory::with_capacity_bytes(42);
    }

    #[test]
    fn lazy_store_reads_zero_and_grows_on_write() {
        let mut m = PeMemory::with_capacity_bytes(64);
        // untouched words read as zero without materializing anything
        assert_eq!(m.read_u32(15), 0);
        assert_eq!(m.read_f32(3), 0.0);
        m.write_u32(10, 7);
        assert_eq!(m.read_u32(10), 7);
        assert_eq!(m.read_u32(11), 0); // still past the written prefix
    }

    #[test]
    #[should_panic]
    fn lazy_store_still_rejects_out_of_capacity_reads() {
        let m = PeMemory::with_capacity_bytes(64); // 16 words
        let _ = m.read_u32(16);
    }

    #[test]
    fn snapshot_words_are_canonical_across_growth_histories() {
        // same logical content, different growth history
        let mut a = PeMemory::with_capacity_bytes(64);
        let mut b = PeMemory::with_capacity_bytes(64);
        a.write_u32(2, 9);
        a.write_u32(12, 5);
        a.write_u32(12, 0); // grown to 13 words, then logically zeroed
        b.write_u32(2, 9);
        assert_eq!(a.snapshot_words(), b.snapshot_words());
        assert_eq!(a.snapshot_words(), vec![0, 0, 9]);
    }

    #[test]
    fn reservation_changes_no_content_and_keeps_writes_in_place() {
        let mut m = PeMemory::with_capacity_bytes(64); // 16 words
        let r = m.alloc(8).unwrap();
        m.write_u32(r.at(1), 4);
        let image = m.snapshot_words();
        m.reserve_allocated();
        let backing = m.backing();
        assert!(backing.1 >= 8);
        // nothing was filled: reads past the written prefix are still 0
        assert_eq!(m.snapshot_words(), image);
        assert_eq!((m.read_u32(r.at(1)), m.read_u32(r.at(7))), (4, 0));
        assert_eq!(m.read_u32(12), 0);
        // writes inside the allocation land in the reserved store
        m.write_u32(r.at(7), 9);
        assert_eq!(m.backing(), backing);
        assert_eq!(m.snapshot_words(), vec![0, 4, 0, 0, 0, 0, 0, 9]);
        // a write past the allocation, within capacity, still succeeds
        m.write_u32(15, 3);
        assert_eq!(m.read_u32(15), 3);
        assert_eq!(m.snapshot_words().len(), 16);
    }

    #[test]
    fn restore_accepts_short_and_capacity_sized_images() {
        let mut m = PeMemory::with_capacity_bytes(64); // 16 words
        m.restore_words(&[1, 2, 3], 8).unwrap();
        assert_eq!(m.read_u32(1), 2);
        assert_eq!(m.read_u32(9), 0);
        assert_eq!(m.allocated_words(), 8);
        // a capacity-sized (old-style) image restores identically
        let mut full = vec![0u32; 16];
        full[..3].copy_from_slice(&[1, 2, 3]);
        let mut m2 = PeMemory::with_capacity_bytes(64);
        m2.restore_words(&full, 8).unwrap();
        assert_eq!(m.snapshot_words(), m2.snapshot_words());
        // over-capacity images are rejected
        assert!(m2.restore_words(&[0u32; 17], 0).is_err());
        assert!(m2.restore_words(&[1], 17).is_err());
    }

    #[test]
    fn host_read_into_matches_alloc_read() {
        let mut m = PeMemory::with_capacity_bytes(64);
        let r = m.alloc(6).unwrap();
        m.host_write_f32(r, &[1.0, 2.0, 3.0]);
        let mut out = vec![0.0_f32; 6];
        m.host_read_f32_into(r, &mut out);
        assert_eq!(out, m.host_read_f32(r));
    }
}
