//! The content hash: one streaming, lane-parallel 64-bit hash for every
//! digest the program compares (the checkpoint payload checksum, the
//! problem-spec hash, the job server's problem-cache key).
//!
//! The algorithm is XXH64 with seed 0. Four independent `u64` lanes each
//! take one multiply-rotate round per 32-byte stripe (four little-endian
//! words), so the rounds of a stripe do not wait on each other; at the end
//! the lanes fold together, the total length is mixed in, the last
//! partial stripe is absorbed and the result is avalanched. A byte-serial
//! hash is one chain of dependent steps per byte; this is one chain per
//! lane per 32 bytes.
//!
//! [`ContentHasher`] is streaming: any split of the same bytes into
//! [`ContentHasher::write`] and [`ContentHasher::write_f32s`] calls gives
//! the same digest as [`hash64`] over them at once, and every input,
//! whatever its length or the offset it starts at, goes through the
//! stripe path.
//!
//! The per-wavelet checksum ([`crate::wavelet::Wavelet::seal`]) is not
//! this hash: it belongs to the fault model, and its values are pinned.

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// Bytes per stripe: one `u64` word per lane.
const STRIPE: usize = 32;

/// `f32`s staged on the stack per [`ContentHasher::write_f32s`] block.
const F32_BLOCK: usize = 64;

fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

/// Streaming XXH64 (seed 0); see the module docs.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    lanes: [u64; 4],
    /// Bytes of a stripe not yet complete: `buf[..buffered]`.
    buf: [u8; STRIPE],
    buffered: usize,
    total: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// A hasher that has seen no bytes.
    pub fn new() -> Self {
        Self {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            buf: [0; STRIPE],
            buffered: 0,
            total: 0,
        }
    }

    /// Runs every whole stripe of `bytes` through the lanes, which stay in
    /// locals for the loop; returns the bytes past the last whole stripe.
    fn stripes<'a>(&mut self, bytes: &'a [u8]) -> &'a [u8] {
        let [mut v1, mut v2, mut v3, mut v4] = self.lanes;
        let mut stripes = bytes.chunks_exact(STRIPE);
        for s in &mut stripes {
            v1 = round(v1, word(&s[0..8]));
            v2 = round(v2, word(&s[8..16]));
            v3 = round(v3, word(&s[16..24]));
            v4 = round(v4, word(&s[24..32]));
        }
        self.lanes = [v1, v2, v3, v4];
        stripes.remainder()
    }

    /// Feeds `bytes`.
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.buffered > 0 {
            let take = (STRIPE - self.buffered).min(bytes.len());
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < STRIPE {
                return;
            }
            let buf = self.buf;
            self.stripes(&buf);
            self.buffered = 0;
        }
        let tail = self.stripes(bytes);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Feeds each value's bits as 4 little-endian bytes, exactly as
    /// [`ContentHasher::write`] over those bytes would, a stack block at a
    /// time (no heap copy of `values`).
    pub fn write_f32s(&mut self, values: &[f32]) {
        let mut block = [0u8; 4 * F32_BLOCK];
        for chunk in values.chunks(F32_BLOCK) {
            for (b, v) in block.chunks_exact_mut(4).zip(chunk) {
                b.copy_from_slice(&v.to_bits().to_le_bytes());
            }
            self.write(&block[..4 * chunk.len()]);
        }
    }

    /// Feeds `v` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest of everything fed so far (the hasher is not consumed).
    pub fn finish(&self) -> u64 {
        let [v1, v2, v3, v4] = self.lanes;
        let mut h = if self.total >= STRIPE as u64 {
            let h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            self.lanes.iter().fold(h, |h, &lane| merge(h, lane))
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.buf[..self.buffered];
        while tail.len() >= 8 {
            h = (h ^ round(0, word(&tail[..8])))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let k = u32::from_le_bytes(tail[..4].try_into().expect("a 4-byte word")) as u64;
            h = (h ^ k.wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            tail = &tail[4..];
        }
        for &b in tail {
            h = (h ^ (b as u64).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// The digest of `bytes` in one call.
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h = ContentHasher::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `len` bytes of a fixed pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ (i >> 8) as u8)
            .collect()
    }

    #[test]
    fn reference_vectors() {
        // Published XXH64 digests (seed 0).
        assert_eq!(hash64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(hash64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(hash64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            hash64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
        // Every branch of the stripe / tail split over a fixed pattern: no
        // stripe, a short tail, exactly one stripe, one stripe and a byte,
        // two stripes, and 1 MiB.
        for (len, digest) in [
            (1, 0xe934_a84a_db05_2768),
            (31, 0xf9c8_15c5_99cb_b32d),
            (32, 0xba7b_afd4_7342_62dd),
            (33, 0x791c_be85_7e7f_a007),
            (64, 0xd14b_f011_9fd2_50a1),
            (1 << 20, 0xca28_0633_7679_f9b0),
        ] {
            assert_eq!(hash64(&pattern(len)), digest, "{len} bytes");
        }
    }

    #[test]
    fn a_misaligned_prefix_then_bulk_floats_hashes_as_the_bytes() {
        let values: Vec<f32> = (0..1000).map(|i| i as f32 * 0.37 - 11.0).collect();
        let bytes: Vec<u8> = values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        for prefix in 0..STRIPE + 3 {
            let head = pattern(prefix);
            let mut h = ContentHasher::new();
            h.write(&head);
            h.write_f32s(&values);
            let mut whole = head;
            whole.extend_from_slice(&bytes);
            assert_eq!(h.finish(), hash64(&whole), "{prefix}-byte prefix");
        }
    }

    proptest! {
        /// Any split of an input into `write` / `write_f32s` calls gives
        /// the one-shot digest.
        #[test]
        fn any_split_gives_the_one_shot_digest(
            bits in collection::vec(0u32..u32::MAX, 0..200),
            cuts in collection::vec((0usize..800, 0u8..2), 0..8),
        ) {
            let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
            let mut cuts: Vec<(usize, bool)> = cuts
                .into_iter()
                .map(|(at, floats)| (at.min(bytes.len()), floats == 1))
                .collect();
            cuts.sort_unstable();
            let mut h = ContentHasher::new();
            let mut from = 0;
            for &(to, floats) in cuts.iter().chain([&(bytes.len(), false)]) {
                // A piece that starts and ends on a value boundary may go
                // in as floats; any other piece goes in as bytes.
                if floats && from % 4 == 0 && to % 4 == 0 {
                    h.write_f32s(&values[from / 4..to / 4]);
                } else {
                    h.write(&bytes[from..to]);
                }
                from = to;
            }
            prop_assert_eq!(h.finish(), hash64(&bytes));
        }
    }
}
