//! SHA-256 (FIPS 180-4).
//!
//! The streaming [`Sha256`] hasher supports incremental `update` calls so the
//! Merkle crates can hash node encodings without intermediate buffers. The
//! one-shot [`sha256`] helper covers the common case.
//!
//! Two compression functions sit under the hasher and give identical
//! digests. On x86-64 CPUs with the SHA extensions (`sha_ni`), a kernel on
//! the `sha256rnds2` / `sha256msg1` / `sha256msg2` instructions runs; it is
//! picked at runtime, and each `update` hands it all its whole blocks in
//! one call. Everywhere else the portable from-scratch rounds run.

/// First 32 bits of the fractional parts of the square roots of the first 8
/// primes (the FIPS initial hash value).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// First 32 bits of the fractional parts of the cube roots of the first 64
/// primes (the FIPS round constants).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A compression function: folds whole 64-byte blocks into the state.
/// `blocks.len()` is always a multiple of 64.
pub(crate) type Compress = fn(&mut [u32; 8], &[u8]);

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buffer: [0; 64], buffered: 0, length_bytes: 0 }
    }

    /// Absorb more input.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.absorb(data, compress)
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finish(compress)
    }

    /// [`Sha256::update`] through an explicit compression function.
    pub(crate) fn absorb(&mut self, mut data: &[u8], compress: Compress) -> &mut Self {
        self.length_bytes += data.len() as u64;
        // Top up a partial block first.
        if self.buffered > 0 {
            let take = data.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                compress(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        // Every whole block straight from the input, in one call.
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            compress(&mut self.state, &data[..whole]);
        }
        // Stash the tail.
        let tail = &data[whole..];
        if !tail.is_empty() {
            self.buffer[..tail.len()].copy_from_slice(tail);
            self.buffered = tail.len();
        }
        self
    }

    /// [`Sha256::finalize`] through an explicit compression function.
    pub(crate) fn finish(mut self, compress: Compress) -> [u8; 32] {
        // 0x80 marker followed by enough zeros to land on 56 mod 64, in a
        // single `update` from a static block (the old byte-at-a-time loop
        // re-entered `update` up to 64 times per digest — measurable, since
        // every trie node write finalizes a hash).
        const PAD: [u8; 64] = {
            let mut p = [0u8; 64];
            p[0] = 0x80;
            p
        };
        let bit_len = self.length_bytes.wrapping_mul(8);
        // Pad length: one marker byte plus zeros so that buffered ≡ 56 (mod 64).
        let pad_len = 1 + (119 - self.buffered) % 64;
        self.absorb(&PAD[..pad_len], compress);
        debug_assert_eq!(self.buffered, 56);
        self.absorb(&bit_len.to_be_bytes(), compress);
        debug_assert_eq!(self.buffered, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The compression function every hasher uses: the SHA-extensions kernel
/// when the CPU has it, the portable rounds otherwise.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if compress_sha_ni(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// Portable compression: the FIPS 180-4 rounds in plain Rust, one block at
/// a time.
pub(crate) fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// Hardware compression with the x86-64 SHA extensions (`sha_ni`). Folds
/// every block in one call and returns `true`; returns `false` without
/// touching `state` when the CPU lacks the extensions. The features are
/// detected at runtime (the answer is cached by std), so one binary runs
/// everywhere.
#[cfg(target_arch = "x86_64")]
pub(crate) fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    use std::arch::x86_64::*;

    /// The SHA instructions keep the eight working variables in two
    /// registers, ABEF and CDGH; each `sha256rnds2` runs two rounds and
    /// each message-schedule step (`msg1`, `alignr`, `msg2`) yields four
    /// new words.
    ///
    /// # Safety
    ///
    /// The CPU must support every feature the function enables.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn kernel(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let sp = state.as_mut_ptr() as *mut __m128i;
        // Register names list lanes high to low.
        let cdab = _mm_shuffle_epi32(_mm_loadu_si128(sp), 0xb1);
        let efgh = _mm_shuffle_epi32(_mm_loadu_si128(sp.add(1)), 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let bp = block.as_ptr() as *const __m128i;
            // Ring of the last sixteen schedule words, four per register.
            let mut w = [
                _mm_shuffle_epi8(_mm_loadu_si128(bp), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(bp.add(1)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(bp.add(2)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(bp.add(3)), bswap),
            ];
            for i in 0..16 {
                if i >= 4 {
                    let t = _mm_add_epi32(
                        _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]),
                        _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4),
                    );
                    w[i % 4] = _mm_sha256msg2_epu32(t, w[(i + 3) % 4]);
                }
                let k = _mm_loadu_si128(K.as_ptr().add(4 * i) as *const __m128i);
                let wk = _mm_add_epi32(w[i % 4], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        _mm_storeu_si128(sp, _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(sp.add(1), _mm_alignr_epi8(dchg, feba, 8));
    }

    if !(is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1"))
    {
        return false;
    }
    // SAFETY: every feature `kernel` enables was detected on this CPU just
    // above. Its memory accesses are unaligned 16-byte loads and stores:
    // two each into the 32-byte `state`, four loads into each 64-byte
    // chunk from `chunks_exact(64)`, and one load per group of four round
    // constants inside the 64-entry `K` — all in bounds.
    unsafe { kernel(state, blocks) };
    true
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-4 / NIST CAVP test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn exactly_one_block_of_input() {
        // 64 bytes forces the padding into a second block.
        let data = [0x61u8; 64];
        assert_eq!(
            hex(&sha256(&data)),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
    }

    #[test]
    fn fifty_five_and_fifty_six_bytes() {
        // 55 bytes is the largest message padded within one block; 56 spills.
        let d55 = [b'x'; 55];
        let d56 = [b'x'; 56];
        assert_ne!(sha256(&d55), sha256(&d56));
        assert_eq!(sha256(&d55), sha256(&d55));
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 100] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"block 1"), sha256(b"block 2"));
    }
}

/// Differential tests: the hardware kernel against the portable rounds,
/// each driven explicitly whatever the default dispatch picks. On a CPU
/// without the SHA extensions the hardware half is skipped.
#[cfg(test)]
mod kernel_tests {
    use super::tests::hex;
    use super::*;
    use bb_sim::SimRng;

    /// Digest `pieces`, fed as separate updates, through one compression
    /// function.
    fn digest_via(compress: Compress, pieces: &[&[u8]]) -> [u8; 32] {
        let mut h = Sha256::new();
        for piece in pieces {
            h.absorb(piece, compress);
        }
        h.finish(compress)
    }

    /// The hardware kernel as a [`Compress`], or `None` on a CPU without
    /// the SHA extensions.
    #[cfg(target_arch = "x86_64")]
    fn hardware() -> Option<Compress> {
        fn sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
            assert!(compress_sha_ni(state, blocks), "SHA extensions detected, then missing");
        }
        // With no blocks to fold, the kernel only reports availability.
        compress_sha_ni(&mut [0; 8], &[]).then_some(sha_ni as Compress)
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn hardware() -> Option<Compress> {
        None
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut data = vec![0u8; len];
        SimRng::seed_from_u64(seed).fill_bytes(&mut data);
        data
    }

    #[test]
    fn fips_vectors_on_both_paths() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 5] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (&[0x61; 64], "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"),
            (&million_a, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
        ];
        let paths = [Some(compress_portable as Compress), hardware()];
        for compress in paths.into_iter().flatten() {
            for (input, want) in vectors {
                assert_eq!(
                    hex(&digest_via(compress, &[input])),
                    want,
                    "{}-byte input",
                    input.len()
                );
            }
        }
    }

    #[test]
    fn hardware_matches_portable_for_every_length() {
        let Some(hw) = hardware() else { return };
        let data = seeded_bytes(0x5EED_0004, 2048);
        for len in 0..=data.len() {
            let input = &data[..len];
            assert_eq!(
                digest_via(hw, &[input]),
                digest_via(compress_portable, &[input]),
                "length {len}"
            );
        }
    }

    #[test]
    fn hardware_matches_portable_at_random_splits() {
        let Some(hw) = hardware() else { return };
        let mut rng = SimRng::seed_from_u64(0x5EED_0005);
        for _ in 0..500 {
            let data = seeded_bytes(rng.next_u64(), rng.below(2049) as usize);
            let mut cuts: Vec<usize> =
                (0..rng.below(6)).map(|_| rng.below(data.len() as u64 + 1) as usize).collect();
            cuts.sort_unstable();
            let mut pieces = Vec::new();
            let mut start = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                pieces.push(&data[start..cut]);
                start = cut;
            }
            let want = digest_via(compress_portable, &[&data]);
            assert_eq!(digest_via(hw, &pieces), want, "hardware, cuts of {} bytes", data.len());
            assert_eq!(
                digest_via(compress_portable, &pieces),
                want,
                "portable, cuts of {} bytes",
                data.len()
            );
        }
    }
}

#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Splitting the input at any point must not change the digest.
        #[test]
        fn split_invariance(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), sha256(&data));
        }

        /// Appending one byte always changes the digest (no trivial length
        /// extension collision on our inputs).
        #[test]
        fn extension_changes_digest(data in proptest::collection::vec(any::<u8>(), 0..256), b in any::<u8>()) {
            let mut ext = data.clone();
            ext.push(b);
            prop_assert_ne!(sha256(&data), sha256(&ext));
        }
    }
}

/// Plain seeded re-expressions of the highest-value properties above, so the
/// coverage survives the default (offline, `proptest`-feature-off) test run.
#[cfg(test)]
mod seeded_props {
    use super::*;
    use bb_sim::SimRng;

    #[test]
    fn split_invariance_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0001);
        for _ in 0..200 {
            let len = rng.below(512) as usize;
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let split = rng.below(len as u64 + 1) as usize;
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data));
        }
    }

    #[test]
    fn extension_changes_digest_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0002);
        for _ in 0..200 {
            let len = rng.below(256) as usize;
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let mut ext = data.clone();
            ext.push(rng.below(256) as u8);
            assert_ne!(sha256(&data), sha256(&ext));
        }
    }
}
