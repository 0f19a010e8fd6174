//! IDEA block cipher reference implementation.
//!
//! The paper's "complex cryptographic algorithm": the International Data
//! Encryption Algorithm — 64-bit blocks, a 128-bit key, 8 rounds of
//! multiply-mod-65537 / add-mod-65536 / xor mixing plus a final output
//! transform. Implemented from the specification (the classic PGP-era
//! structure), with the decryption schedule derived by inverting the
//! encryption subkeys.
//!
//! Every arithmetic routine takes an [`OpCounter`] so the very same code
//! serves as the instrumented ARM software baseline and as the functional
//! model inside the hardware core.
//!
//! ## Lanes
//!
//! The rounds are written once, over `N` blocks held side by side in
//! structure-of-arrays form: word `w` of block `l` is `x[w][l]`. Every
//! operation of a round then runs across the lanes in a loop with no
//! dependency between iterations, which the compiler turns into vector
//! code; the multiply mod 2¹⁶ + 1 is a branch-free select for the same
//! reason. [`crypt_buffer`] encrypts 16 blocks at a time and the
//! remaining blocks one at a time; [`crypt_block`] is the one-lane case.
//!
//! An IDEA round performs the same operations whatever the data, so the
//! op tally of a round is a constant. Each group of operations is
//! therefore charged once, `N` times over, which gives exactly the
//! per-category counts of `N` blocks charged one at a time.

use crate::counter::OpCounter;

/// Number of 16-bit subkeys in an expanded IDEA key.
pub const SUBKEYS: usize = 52;
/// Number of mixing rounds.
pub const ROUNDS: usize = 8;
/// Block size in bytes.
pub const BLOCK_BYTES: usize = 8;

/// Blocks [`crypt_buffer`] encrypts side by side.
const LANES: usize = 16;

/// IDEA multiplication: a ⊙ b in GF(2^16 + 1) with 0 representing 2^16.
pub fn mul<C: OpCounter>(a: u16, b: u16, ops: &mut C) -> u16 {
    charge_mul(1, ops);
    mul_mod(a, b)
}

/// Charges `n` multiplies mod 2^16 + 1 as the naive modular multiply of
/// the software reference performs them.
fn charge_mul<C: OpCounter>(n: u64, ops: &mut C) {
    ops.mul(n);
    ops.branch(2 * n);
    ops.alu(3 * n);
    ops.div(n);
}

/// The value of [`mul`], uncharged and branch-free.
fn mul_mod(a: u16, b: u16) -> u16 {
    // Division-free reduction: 2^16 ≡ −1 (mod 2^16 + 1), so the product's
    // halves reduce as `lo − hi`, plus one when that borrows.
    let p = u32::from(a) * u32::from(b);
    let (lo, hi) = (p as u16, (p >> 16) as u16);
    if p == 0 {
        // 65537 is prime, so p == 0 means a or b is 0, the encoding of
        // 2^16. With y the other operand, 2^16 · y ≡ −y (mod 2^16 + 1),
        // which is 1 − y mod 2^16, i.e. 1 − a − b.
        1u16.wrapping_sub(a).wrapping_sub(b)
    } else {
        lo.wrapping_sub(hi).wrapping_add(u16::from(lo < hi))
    }
}

/// Addition mod 2^16.
pub fn add<C: OpCounter>(a: u16, b: u16, ops: &mut C) -> u16 {
    ops.alu(1);
    a.wrapping_add(b)
}

/// Additive inverse mod 2^16.
pub fn add_inv(a: u16) -> u16 {
    a.wrapping_neg()
}

/// Multiplicative inverse in GF(2^16 + 1) (0 and 1 are self-inverse
/// under the 0 ↔ 2^16 convention), by the extended Euclidean algorithm.
pub fn mul_inv(x: u16) -> u16 {
    if x <= 1 {
        return x;
    }
    let x = u32::from(x);
    let mut t1: u32 = 0x1_0001 / x;
    let mut y: u32 = 0x1_0001 % x;
    if y == 1 {
        return (1u32.wrapping_sub(t1) & 0xFFFF) as u16;
    }
    let mut t0: u32 = 1;
    let mut x = x;
    loop {
        let q = x / y;
        x %= y;
        t0 = t0.wrapping_add(q.wrapping_mul(t1));
        if x == 1 {
            return t0 as u16;
        }
        let q = y / x;
        y %= x;
        t1 = t1.wrapping_add(q.wrapping_mul(t0));
        if y == 1 {
            return (1u32.wrapping_sub(t1) & 0xFFFF) as u16;
        }
    }
}

/// A 128-bit IDEA key as eight big-endian 16-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdeaKey(pub [u16; 8]);

impl IdeaKey {
    /// Parses a key from 16 big-endian bytes.
    pub fn from_bytes(bytes: &[u8; 16]) -> Self {
        let mut words = [0u16; 8];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u16::from_be_bytes([bytes[2 * i], bytes[2 * i + 1]]);
        }
        IdeaKey(words)
    }
}

/// Expands a key into the 52 encryption subkeys: the key is read as
/// eight words, then repeatedly rotated left by 25 bits and re-read.
pub fn expand_key(key: IdeaKey) -> [u16; SUBKEYS] {
    let mut subkeys = [0u16; SUBKEYS];
    let mut v: u128 = 0;
    for &w in &key.0 {
        v = (v << 16) | u128::from(w);
    }
    let mut idx = 0;
    'outer: loop {
        for i in 0..8 {
            subkeys[idx] = (v >> (112 - 16 * i)) as u16;
            idx += 1;
            if idx == SUBKEYS {
                break 'outer;
            }
        }
        v = v.rotate_left(25);
    }
    subkeys
}

/// Derives the decryption subkeys from the encryption subkeys.
pub fn invert_subkeys(ek: &[u16; SUBKEYS]) -> [u16; SUBKEYS] {
    let mut dk = [0u16; SUBKEYS];
    // Output transform keys of decryption come from the input transform
    // of encryption round 1, and vice versa; middle additive keys swap
    // for interior rounds.
    let mut z = ek.iter();
    let mut p = SUBKEYS;

    let t1 = mul_inv(*z.next().expect("52 subkeys"));
    let t2 = add_inv(*z.next().expect("52 subkeys"));
    let t3 = add_inv(*z.next().expect("52 subkeys"));
    p -= 1;
    dk[p] = mul_inv(*z.next().expect("52 subkeys"));
    p -= 1;
    dk[p] = t3;
    p -= 1;
    dk[p] = t2;
    p -= 1;
    dk[p] = t1;

    for round in 1..=ROUNDS - 1 {
        let _ = round;
        let t1 = *z.next().expect("52 subkeys");
        p -= 1;
        dk[p] = *z.next().expect("52 subkeys");
        p -= 1;
        dk[p] = t1;
        let t1 = mul_inv(*z.next().expect("52 subkeys"));
        let t2 = add_inv(*z.next().expect("52 subkeys"));
        let t3 = add_inv(*z.next().expect("52 subkeys"));
        p -= 1;
        dk[p] = mul_inv(*z.next().expect("52 subkeys"));
        p -= 1;
        dk[p] = t2; // swapped
        p -= 1;
        dk[p] = t3;
        p -= 1;
        dk[p] = t1;
    }

    let t1 = *z.next().expect("52 subkeys");
    p -= 1;
    dk[p] = *z.next().expect("52 subkeys");
    p -= 1;
    dk[p] = t1;
    let t1 = mul_inv(*z.next().expect("52 subkeys"));
    let t2 = add_inv(*z.next().expect("52 subkeys"));
    let t3 = add_inv(*z.next().expect("52 subkeys"));
    p -= 1;
    dk[p] = mul_inv(*z.next().expect("52 subkeys"));
    p -= 1;
    dk[p] = t3;
    p -= 1;
    dk[p] = t2;
    p -= 1;
    dk[p] = t1;
    debug_assert_eq!(p, 0);
    dk
}

/// Encrypts (or, with decryption subkeys, decrypts) one 64-bit block
/// given as four big-endian words.
pub fn crypt_block<C: OpCounter>(x: [u16; 4], keys: &[u16; SUBKEYS], ops: &mut C) -> [u16; 4] {
    crypt_lanes(x.map(|w| [w]), keys, ops).map(|[w]| w)
}

/// Encrypts `N` blocks side by side: word `w` of block `l` is `x[w][l]`.
/// Charges exactly what `N` calls of [`crypt_block`] would.
fn crypt_lanes<const N: usize, C: OpCounter>(
    x: [[u16; N]; 4],
    keys: &[u16; SUBKEYS],
    ops: &mut C,
) -> [[u16; N]; 4] {
    let n = N as u64;
    ops.call(n);
    let [mut x1, mut x2, mut x3, mut x4] = x;
    let (round_keys, out_keys) = keys.split_at(6 * ROUNDS);
    for k in round_keys.chunks_exact(6) {
        ops.branch(n);
        ops.load(6 * n); // subkeys
        charge_mul(4 * n, ops);
        ops.alu(4 * n); // adds
        ops.alu(6 * n); // xors
        for l in 0..N {
            let a = mul_mod(x1[l], k[0]);
            let b = x2[l].wrapping_add(k[1]);
            let c = x3[l].wrapping_add(k[2]);
            let d = mul_mod(x4[l], k[3]);
            let t2 = mul_mod(a ^ c, k[4]);
            let t1 = mul_mod(t2.wrapping_add(b ^ d), k[5]);
            let t2 = t1.wrapping_add(t2);
            x1[l] = a ^ t1;
            x2[l] = c ^ t1;
            x3[l] = b ^ t2;
            x4[l] = d ^ t2;
        }
    }
    ops.load(4 * n); // subkeys
    charge_mul(2 * n, ops);
    ops.alu(2 * n); // adds
    ops.store(4 * n);
    // The last round's x2/x3 swap is undone.
    [
        x1.map(|w| mul_mod(w, out_keys[0])),
        x3.map(|w| w.wrapping_add(out_keys[1])),
        x2.map(|w| w.wrapping_add(out_keys[2])),
        x4.map(|w| mul_mod(w, out_keys[3])),
    ]
}

/// Encrypts the `N` blocks of `src` into `dst`, charging the four word
/// loads of each block as well as its encryption.
fn crypt_chunk<const N: usize, C: OpCounter>(
    src: &[u8],
    dst: &mut [u8],
    keys: &[u16; SUBKEYS],
    ops: &mut C,
) {
    ops.load(4 * N as u64);
    let mut x = [[0u16; N]; 4];
    for (l, block) in src.chunks_exact(BLOCK_BYTES).enumerate() {
        for (lane, word) in x.iter_mut().zip(block.chunks_exact(2)) {
            lane[l] = u16::from_be_bytes([word[0], word[1]]);
        }
    }
    let y = crypt_lanes(x, keys, ops);
    for (l, block) in dst.chunks_exact_mut(BLOCK_BYTES).enumerate() {
        for (lane, word) in y.iter().zip(block.chunks_exact_mut(2)) {
            word.copy_from_slice(&lane[l].to_be_bytes());
        }
    }
}

/// Encrypts `data` in ECB mode with the expanded `keys`.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of [`BLOCK_BYTES`].
pub fn crypt_buffer<C: OpCounter>(data: &[u8], keys: &[u16; SUBKEYS], ops: &mut C) -> Vec<u8> {
    assert!(
        data.len().is_multiple_of(BLOCK_BYTES),
        "IDEA operates on whole 8-byte blocks"
    );
    let mut out = vec![0u8; data.len()];
    let mut src = data.chunks_exact(LANES * BLOCK_BYTES);
    let mut dst = out.chunks_exact_mut(LANES * BLOCK_BYTES);
    for (s, d) in (&mut src).zip(&mut dst) {
        crypt_chunk::<LANES, C>(s, d, keys, ops);
    }
    let rest = src.remainder().chunks_exact(BLOCK_BYTES);
    for (s, d) in rest.zip(dst.into_remainder().chunks_exact_mut(BLOCK_BYTES)) {
        crypt_chunk::<1, C>(s, d, keys, ops);
    }
    out
}

/// Packs a big-endian IDEA byte stream into the coprocessor's element
/// buffer: 16-bit words stored little-endian, as the dual-port RAM's
/// halfword port presents them (the application-side half of the
/// software/hardware designer agreement).
pub fn pack_words(data: &[u8]) -> Vec<u8> {
    assert!(
        data.len().is_multiple_of(2),
        "IDEA data is a whole number of 16-bit words"
    );
    data.chunks_exact(2)
        .flat_map(|c| u16::from_be_bytes([c[0], c[1]]).to_le_bytes())
        .collect()
}

/// Inverse of [`pack_words`]: recovers the big-endian byte stream from a
/// coprocessor element buffer.
pub fn unpack_words(buf: &[u8]) -> Vec<u8> {
    assert!(
        buf.len().is_multiple_of(2),
        "element buffer is a whole number of 16-bit words"
    );
    buf.chunks_exact(2)
        .flat_map(|c| u16::from_le_bytes([c[0], c[1]]).to_be_bytes())
        .collect()
}

/// Deterministic pseudo-random plaintext generator for benchmarks.
pub fn synthetic_plaintext(len: usize) -> Vec<u8> {
    assert!(
        len.is_multiple_of(BLOCK_BYTES),
        "length must be whole blocks"
    );
    let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 48) as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::OpTally;
    use proptest::prelude::*;

    const KEY: IdeaKey = IdeaKey([1, 2, 3, 4, 5, 6, 7, 8]);

    /// [`mul`] as a branch on the zero encoding, before the lanes.
    fn mul_branchy<C: OpCounter>(a: u16, b: u16, ops: &mut C) -> u16 {
        ops.mul(1);
        ops.branch(2);
        ops.alu(3);
        ops.div(1);
        let p = u32::from(a) * u32::from(b);
        if p != 0 {
            let lo = p & 0xFFFF;
            let hi = p >> 16;
            (lo.wrapping_sub(hi).wrapping_add(u32::from(lo < hi)) & 0xFFFF) as u16
        } else {
            (0x1_0001u32
                .wrapping_sub(u32::from(a))
                .wrapping_sub(u32::from(b))
                & 0xFFFF) as u16
        }
    }

    /// One block at a time, each operation charged where it happens: the
    /// reference [`crypt_buffer`] must match in output and in every
    /// charged operation.
    fn crypt_buffer_per_block<C: OpCounter>(
        data: &[u8],
        keys: &[u16; SUBKEYS],
        ops: &mut C,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        for chunk in data.chunks_exact(BLOCK_BYTES) {
            ops.load(4);
            ops.call(1);
            let w = |i: usize| u16::from_be_bytes([chunk[2 * i], chunk[2 * i + 1]]);
            let [mut x1, mut x2, mut x3, mut x4] = [w(0), w(1), w(2), w(3)];
            let mut z = keys.iter();
            let mut next = |ops: &mut C| -> u16 {
                ops.load(1);
                *z.next().expect("52 subkeys")
            };
            for _ in 0..ROUNDS {
                ops.branch(1);
                x1 = mul_branchy(x1, next(ops), ops);
                x2 = add(x2, next(ops), ops);
                x3 = add(x3, next(ops), ops);
                x4 = mul_branchy(x4, next(ops), ops);
                let mut t2 = x1 ^ x3;
                ops.alu(1);
                t2 = mul_branchy(t2, next(ops), ops);
                let mut t1 = add(t2, x2 ^ x4, ops);
                ops.alu(1);
                t1 = mul_branchy(t1, next(ops), ops);
                t2 = add(t1, t2, ops);
                x1 ^= t1;
                x4 ^= t2;
                t2 ^= x2;
                x2 = x3 ^ t1;
                x3 = t2;
                ops.alu(4);
            }
            let y1 = mul_branchy(x1, next(ops), ops);
            let y2 = add(x3, next(ops), ops);
            let y3 = add(x2, next(ops), ops);
            let y4 = mul_branchy(x4, next(ops), ops);
            ops.store(4);
            for y in [y1, y2, y3, y4] {
                out.extend_from_slice(&y.to_be_bytes());
            }
        }
        out
    }

    /// Asserts `crypt_buffer` equals the per-block reference on `data`.
    fn assert_matches_per_block(data: &[u8], keys: &[u16; SUBKEYS]) {
        let (mut ops, mut ref_ops) = (OpTally::default(), OpTally::default());
        let out = crypt_buffer(data, keys, &mut ops);
        assert_eq!(out, crypt_buffer_per_block(data, keys, &mut ref_ops));
        assert_eq!(ops, ref_ops, "{} blocks", data.len() / BLOCK_BYTES);
    }

    #[test]
    fn crypt_buffer_matches_per_block_reference_at_every_remainder() {
        let ek = expand_key(KEY);
        let data = synthetic_plaintext(33 * BLOCK_BYTES);
        for blocks in 0..=33 {
            assert_matches_per_block(&data[..blocks * BLOCK_BYTES], &ek);
        }
    }

    proptest! {
        #[test]
        fn crypt_buffer_matches_per_block_reference(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            key in any::<[u16; 8]>(),
            key_kind in 0u8..3,
        ) {
            // All-zero and all-0xFFFF keys put the zero encoding of 2^16
            // (and its neighbour) into every multiply.
            let key = match key_kind {
                0 => [0; 8],
                1 => [0xFFFF; 8],
                _ => key,
            };
            let data = &data[..data.len() / BLOCK_BYTES * BLOCK_BYTES];
            let ek = expand_key(IdeaKey(key));
            let (mut ops, mut ref_ops) = (OpTally::default(), OpTally::default());
            let out = crypt_buffer(data, &ek, &mut ops);
            prop_assert_eq!(out, crypt_buffer_per_block(data, &ek, &mut ref_ops));
            prop_assert_eq!(ops, ref_ops);
        }
    }

    #[test]
    fn classic_test_vector() {
        // Lai/Massey reference vector: key 0001..0008,
        // plaintext 0000 0001 0002 0003 → ciphertext 11FB ED2B 0198 6DE5.
        let ek = expand_key(KEY);
        let ct = crypt_block([0, 1, 2, 3], &ek, &mut ());
        assert_eq!(ct, [0x11FB, 0xED2B, 0x0198, 0x6DE5]);
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let ek = expand_key(KEY);
        let dk = invert_subkeys(&ek);
        let pt = [0x1234, 0x5678, 0x9ABC, 0xDEF0];
        let ct = crypt_block(pt, &ek, &mut ());
        assert_ne!(ct, pt);
        assert_eq!(crypt_block(ct, &dk, &mut ()), pt);
    }

    #[test]
    fn subkey_expansion_first_and_rotated_words() {
        let ek = expand_key(KEY);
        assert_eq!(&ek[0..8], &[1, 2, 3, 4, 5, 6, 7, 8]);
        // After a 25-bit left rotation of 0x00010002000300040005000600070008:
        // the first following subkey is 0x0400.
        assert_eq!(ek[8], 0x0400);
        assert_eq!(ek[9], 0x0600);
    }

    #[test]
    fn mul_conventions() {
        assert_eq!(mul(0, 0, &mut ()), 1); // 2^16 · 2^16 ≡ 1
        assert_eq!(mul(1, 1, &mut ()), 1);
        assert_eq!(mul(0, 1, &mut ()), 0); // 2^16 · 1 ≡ 2^16 ≡ "0"
        assert_eq!(mul(2, 3, &mut ()), 6);
        assert_eq!(mul(65535, 65535, &mut ()), 4); // (−2)² = 4 mod 65537
    }

    #[test]
    fn mul_inv_is_inverse_everywhere_interesting() {
        for a in [0u16, 1, 2, 3, 255, 256, 32767, 32768, 65534, 65535] {
            let inv = mul_inv(a);
            assert_eq!(mul(a, inv, &mut ()), 1, "a={a}, inv={inv}");
        }
    }

    #[test]
    fn add_inv_is_inverse() {
        for a in [0u16, 1, 17, 32768, 65535] {
            assert_eq!(add(a, add_inv(a), &mut ()), 0);
        }
    }

    #[test]
    fn buffer_roundtrip() {
        let ek = expand_key(KEY);
        let dk = invert_subkeys(&ek);
        let pt = synthetic_plaintext(4096);
        let ct = crypt_buffer(&pt, &ek, &mut ());
        assert_ne!(ct, pt);
        assert_eq!(crypt_buffer(&ct, &dk, &mut ()), pt);
    }

    #[test]
    #[should_panic(expected = "whole 8-byte blocks")]
    fn partial_block_rejected() {
        let ek = expand_key(KEY);
        let _ = crypt_buffer(&[0u8; 7], &ek, &mut ());
    }

    #[test]
    fn key_from_bytes_is_big_endian() {
        let mut bytes = [0u8; 16];
        bytes[0] = 0x12;
        bytes[1] = 0x34;
        bytes[15] = 0x56;
        let k = IdeaKey::from_bytes(&bytes);
        assert_eq!(k.0[0], 0x1234);
        assert_eq!(k.0[7], 0x0056);
    }

    #[test]
    fn instrumentation_charges_per_block() {
        use vcop_sim::cpu::{CostTable, CycleCounter};
        let ek = expand_key(KEY);
        let mut one = CycleCounter::new(CostTable::arm922());
        crypt_buffer(&[0u8; 8], &ek, &mut one);
        let mut ten = CycleCounter::new(CostTable::arm922());
        crypt_buffer(&[0u8; 80], &ek, &mut ten);
        assert_eq!(ten.cycles(), one.cycles() * 10);
        assert!(one.cycles() > 300, "a block costs hundreds of cycles");
    }

    #[test]
    fn ciphertext_differs_per_block_content() {
        let ek = expand_key(KEY);
        let a = crypt_block([0, 0, 0, 0], &ek, &mut ());
        let b = crypt_block([0, 0, 0, 1], &ek, &mut ());
        assert_ne!(a, b);
    }
}
