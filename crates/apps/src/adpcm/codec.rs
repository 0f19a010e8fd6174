//! IMA-ADPCM reference codec.
//!
//! The paper's multimedia kernel is `adpcmdecode` from the MediaBench
//! suite — the IMA/DVI ADPCM decoder: 4-bit codes expand to 16-bit PCM
//! samples, so the decoder "produces 4 times the input data size"
//! (one input byte holds two codes, each yielding a two-byte sample).
//! The encoder is implemented too, both to generate realistic inputs and
//! to property-test the decoder against a round trip.
//!
//! ## The fused step-index table
//!
//! Each sample ends by moving the step index by `INDEX_TABLE[code]` and
//! clamping it to `0..=88`. That add-and-clamp sits on the
//! sample-to-sample dependency chain, so both kernels instead read the
//! next index from `NEXT_INDEX`, built at compile time from the same
//! two rules. `INDEX_TABLE` ignores the sign bit, so the table is indexed
//! by the code's magnitude (`code & 7`). The kernels still charge the
//! add, compare and clamp of the reference C (`ops.alu(3)` in the
//! decoder, inside `ops.alu(5)` in the encoder): the charges model the
//! ARM baseline, not the host code.

use crate::counter::OpCounter;

/// Index adjustment per 4-bit code (IMA standard).
pub const INDEX_TABLE: [i8; 16] = [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8];

/// Quantiser step sizes (IMA standard, 89 entries).
pub const STEP_TABLE: [i32; 89] = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37, 41, 45, 50, 55, 60, 66,
    73, 80, 88, 97, 107, 118, 130, 143, 157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449,
    494, 544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066, 2272,
    2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493,
    10442, 11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
];

/// Predictor state carried across samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdpcmState {
    /// Current predicted sample value.
    pub predictor: i32,
    /// Current index into [`STEP_TABLE`].
    pub index: i32,
}

impl AdpcmState {
    /// Fresh state (predictor 0, index 0).
    pub fn new() -> Self {
        AdpcmState::default()
    }
}

/// `NEXT_INDEX[index][code & 7]` is `index + INDEX_TABLE[code]` clamped
/// to `0..=88`, the step index after decoding or encoding `code`.
const NEXT_INDEX: [[u8; 8]; 89] = {
    let mut table = [[0u8; 8]; 89];
    let mut index = 0;
    while index < 89 {
        let mut magnitude = 0;
        while magnitude < 8 {
            let next = index as i32 + INDEX_TABLE[magnitude] as i32;
            table[index][magnitude] = if next < 0 {
                0
            } else if next > 88 {
                88
            } else {
                next as u8
            };
            magnitude += 1;
        }
        index += 1;
    }
    table
};

/// The step index that follows `index` after `code`.
fn next_index(index: i32, code: u8) -> i32 {
    i32::from(NEXT_INDEX[index as usize][usize::from(code & 7)])
}

fn clamp_sample(s: i32) -> i32 {
    s.clamp(-32768, 32767)
}

/// Decodes one 4-bit `code`, updating `state` and charging `ops`.
///
/// Bits of `code` above the low nibble are ignored, as [`decode`] does
/// when it splits a byte into two codes.
///
/// This is the exact IMA reference computation; the hardware FSM in
/// [`crate::adpcm::hw`] calls the same function so software and
/// coprocessor outputs are bit-identical.
// Without the hint, `decode` calls it once per nibble, out of line.
#[inline]
pub fn decode_nibble<C: OpCounter>(state: &mut AdpcmState, code: u8, ops: &mut C) -> i16 {
    let code = code & 0x0F;
    let step = STEP_TABLE[state.index as usize];
    ops.load(2); // step table + index table
                 // diff = step/8 + step/4·b0 + step/2·b1 + step·b2 (shift-add form).
    let mut diff = step >> 3;
    ops.alu(1);
    if code & 1 != 0 {
        diff += step >> 2;
        ops.alu(2);
    }
    if code & 2 != 0 {
        diff += step >> 1;
        ops.alu(2);
    }
    if code & 4 != 0 {
        diff += step;
        ops.alu(1);
    }
    ops.branch(3);
    if code & 8 != 0 {
        state.predictor -= diff;
    } else {
        state.predictor += diff;
    }
    ops.alu(1);
    ops.branch(1);
    state.predictor = clamp_sample(state.predictor);
    ops.alu(2);
    state.index = next_index(state.index, code);
    ops.alu(3);
    ops.store(1); // output sample
    state.predictor as i16
}

/// Encodes one 16-bit `sample`, updating `state` and charging `ops`.
pub fn encode_sample<C: OpCounter>(state: &mut AdpcmState, sample: i16, ops: &mut C) -> u8 {
    let step = STEP_TABLE[state.index as usize];
    ops.load(2);
    let mut diff = i32::from(sample) - state.predictor;
    ops.alu(1);
    let mut code: u8 = 0;
    if diff < 0 {
        code = 8;
        diff = -diff;
        ops.alu(1);
    }
    ops.branch(1);
    // Successive approximation against step, step/2, step/4.
    let mut tempstep = step;
    let mut vpdiff = step >> 3;
    ops.alu(1);
    for bit in [4u8, 2, 1] {
        if diff >= tempstep {
            code |= bit;
            diff -= tempstep;
            vpdiff += tempstep;
            ops.alu(3);
        }
        tempstep >>= 1;
        ops.alu(1);
        ops.branch(1);
    }
    if code & 8 != 0 {
        state.predictor -= vpdiff;
    } else {
        state.predictor += vpdiff;
    }
    ops.alu(1);
    ops.branch(1);
    state.predictor = clamp_sample(state.predictor);
    state.index = next_index(state.index, code);
    ops.alu(5);
    ops.store(1);
    code
}

/// Decodes a buffer of packed codes (low nibble first, IMA file order)
/// into PCM samples. Output length is exactly `2 × input.len()` samples
/// (= 4× the bytes, as the paper states).
pub fn decode<C: OpCounter>(input: &[u8], ops: &mut C) -> Vec<i16> {
    let mut state = AdpcmState::new();
    let mut out = vec![0; input.len() * 2];
    ops.call(1);
    for (&byte, pair) in input.iter().zip(out.chunks_exact_mut(2)) {
        ops.load(1);
        ops.branch(1);
        pair[0] = decode_nibble(&mut state, byte & 0x0F, ops);
        pair[1] = decode_nibble(&mut state, byte >> 4, ops);
    }
    out
}

/// Encodes PCM samples into packed codes (pads the final nibble with a
/// zero code if the sample count is odd).
pub fn encode<C: OpCounter>(samples: &[i16], ops: &mut C) -> Vec<u8> {
    let mut state = AdpcmState::new();
    let mut out = Vec::with_capacity(samples.len().div_ceil(2));
    ops.call(1);
    let mut chunks = samples.chunks_exact(2);
    for pair in &mut chunks {
        let lo = encode_sample(&mut state, pair[0], ops);
        let hi = encode_sample(&mut state, pair[1], ops);
        out.push(lo | (hi << 4));
        ops.alu(2);
        ops.store(1);
        ops.branch(1);
    }
    if let [last] = chunks.remainder() {
        let lo = encode_sample(&mut state, *last, ops);
        out.push(lo);
    }
    out
}

/// Converts PCM samples to the coprocessor's 16-bit little-endian
/// element buffer layout.
pub fn samples_to_bytes(samples: &[i16]) -> Vec<u8> {
    samples.iter().flat_map(|s| s.to_le_bytes()).collect()
}

/// Recovers PCM samples from a coprocessor element buffer.
pub fn samples_from_bytes(buf: &[u8]) -> Vec<i16> {
    assert!(
        buf.len().is_multiple_of(2),
        "sample buffer is a whole number of 16-bit words"
    );
    buf.chunks_exact(2)
        .map(|c| i16::from_le_bytes([c[0], c[1]]))
        .collect()
}

/// Generates a deterministic synthetic PCM waveform (sum of two
/// integer-frequency tones plus a little pseudo-noise) of `n` samples —
/// the stand-in for MediaBench's audio clips.
pub fn synthetic_pcm(n: usize) -> Vec<i16> {
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 56) as i8 as i32 * 8;
            let t = i as f64;
            let tone = (8000.0 * (t * 0.05).sin() + 4000.0 * (t * 0.013).sin()) as i32;
            clamp_sample(tone + noise) as i16
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::OpTally;
    use proptest::prelude::*;

    /// The decoder before the fused index table: the add and clamp of the
    /// reference C. [`decode_nibble`] must match it in output, state and
    /// every charged operation.
    fn decode_nibble_clamped<C: OpCounter>(state: &mut AdpcmState, code: u8, ops: &mut C) -> i16 {
        let step = STEP_TABLE[state.index as usize];
        ops.load(2);
        let mut diff = step >> 3;
        ops.alu(1);
        if code & 1 != 0 {
            diff += step >> 2;
            ops.alu(2);
        }
        if code & 2 != 0 {
            diff += step >> 1;
            ops.alu(2);
        }
        if code & 4 != 0 {
            diff += step;
            ops.alu(1);
        }
        ops.branch(3);
        if code & 8 != 0 {
            state.predictor -= diff;
        } else {
            state.predictor += diff;
        }
        ops.alu(1);
        ops.branch(1);
        state.predictor = clamp_sample(state.predictor);
        ops.alu(2);
        state.index = (state.index + i32::from(INDEX_TABLE[code as usize])).clamp(0, 88);
        ops.alu(3);
        ops.store(1);
        state.predictor as i16
    }

    /// The encoder before the fused index table (see
    /// [`decode_nibble_clamped`]).
    fn encode_sample_clamped<C: OpCounter>(state: &mut AdpcmState, sample: i16, ops: &mut C) -> u8 {
        let step = STEP_TABLE[state.index as usize];
        ops.load(2);
        let mut diff = i32::from(sample) - state.predictor;
        ops.alu(1);
        let mut code: u8 = 0;
        if diff < 0 {
            code = 8;
            diff = -diff;
            ops.alu(1);
        }
        ops.branch(1);
        let mut tempstep = step;
        let mut vpdiff = step >> 3;
        ops.alu(1);
        for bit in [4u8, 2, 1] {
            if diff >= tempstep {
                code |= bit;
                diff -= tempstep;
                vpdiff += tempstep;
                ops.alu(3);
            }
            tempstep >>= 1;
            ops.alu(1);
            ops.branch(1);
        }
        if code & 8 != 0 {
            state.predictor -= vpdiff;
        } else {
            state.predictor += vpdiff;
        }
        ops.alu(1);
        ops.branch(1);
        state.predictor = clamp_sample(state.predictor);
        state.index = (state.index + i32::from(INDEX_TABLE[code as usize])).clamp(0, 88);
        ops.alu(5);
        ops.store(1);
        code
    }

    /// Predictors at both rails, around zero and a few interior values.
    const PREDICTORS: [i32; 8] = [-32768, -20000, -1, 0, 1, 777, 20000, 32767];

    fn states() -> impl Iterator<Item = AdpcmState> {
        (0..89).flat_map(|index| {
            PREDICTORS
                .iter()
                .map(move |&predictor| AdpcmState { predictor, index })
        })
    }

    #[test]
    fn decode_nibble_matches_clamped_reference_everywhere() {
        for start in states() {
            for code in 0..16u8 {
                let (mut fused, mut clamped) = (start, start);
                let (mut ops, mut ref_ops) = (OpTally::default(), OpTally::default());
                let out = decode_nibble(&mut fused, code, &mut ops);
                let expect = decode_nibble_clamped(&mut clamped, code, &mut ref_ops);
                assert_eq!(
                    (out, fused, ops),
                    (expect, clamped, ref_ops),
                    "{start:?} code {code}"
                );
            }
        }
    }

    #[test]
    fn encode_sample_matches_clamped_reference_everywhere() {
        for start in states() {
            let step = STEP_TABLE[start.index as usize];
            // Samples on and either side of each decision threshold of
            // the successive approximation, in both signs.
            let samples = (-9..=9).flat_map(|k| {
                let centre = start.predictor + k * step / 4;
                [centre - 1, centre, centre + 1]
            });
            for sample in samples.chain([-32768, 32767]) {
                let sample = clamp_sample(sample) as i16;
                let (mut fused, mut clamped) = (start, start);
                let (mut ops, mut ref_ops) = (OpTally::default(), OpTally::default());
                let code = encode_sample(&mut fused, sample, &mut ops);
                let expect = encode_sample_clamped(&mut clamped, sample, &mut ref_ops);
                assert_eq!(
                    (code, fused, ops),
                    (expect, clamped, ref_ops),
                    "{start:?} sample {sample}"
                );
            }
        }
    }

    #[test]
    fn decode_nibble_ignores_bits_above_the_nibble() {
        for start in states() {
            for code in 0..16u8 {
                for high in [0x10, 0x80, 0xF0] {
                    let (mut a, mut b) = (start, start);
                    let out = decode_nibble(&mut a, code | high, &mut ());
                    assert_eq!(
                        out,
                        decode_nibble(&mut b, code, &mut ()),
                        "{start:?} {code}"
                    );
                    assert_eq!(a, b);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn buffers_match_clamped_reference(
            pcm in proptest::collection::vec(any::<i16>(), 0..4096),
            coded in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
            // `encode` and `decode` around the reference nibble kernels,
            // with the same per-buffer and per-byte charges.
            let mut ref_ops = OpTally::default();
            ref_ops.call(1);
            let mut state = AdpcmState::new();
            let mut expect_coded = Vec::new();
            for pair in pcm.chunks(2) {
                let lo = encode_sample_clamped(&mut state, pair[0], &mut ref_ops);
                let hi = match pair.get(1) {
                    Some(&s) => {
                        ref_ops.alu(2);
                        ref_ops.store(1);
                        ref_ops.branch(1);
                        encode_sample_clamped(&mut state, s, &mut ref_ops)
                    }
                    None => 0,
                };
                expect_coded.push(lo | (hi << 4));
            }
            let mut ops = OpTally::default();
            prop_assert_eq!(encode(&pcm, &mut ops), expect_coded);
            prop_assert_eq!(ops, ref_ops);

            let mut ref_ops = OpTally::default();
            ref_ops.call(1);
            let mut state = AdpcmState::new();
            let mut expect_pcm = Vec::new();
            for &byte in &coded {
                ref_ops.load(1);
                ref_ops.branch(1);
                expect_pcm.push(decode_nibble_clamped(&mut state, byte & 0x0F, &mut ref_ops));
                expect_pcm.push(decode_nibble_clamped(&mut state, byte >> 4, &mut ref_ops));
            }
            let mut ops = OpTally::default();
            prop_assert_eq!(decode(&coded, &mut ops), expect_pcm);
            prop_assert_eq!(ops, ref_ops);
        }
    }

    #[test]
    fn output_is_four_times_input_bytes() {
        let input = vec![0u8; 2048];
        let out = decode(&input, &mut ());
        assert_eq!(out.len() * 2, 2048 * 4); // samples × 2 bytes = 4× bytes
    }

    #[test]
    fn zero_codes_decay_to_silence() {
        // Code 0 adds step>>3 each sample with shrinking index: output
        // stays near zero for zero input.
        let out = decode(&[0u8; 64], &mut ());
        assert!(
            out.iter().all(|&s| s.abs() < 64),
            "max {:?}",
            out.iter().max()
        );
    }

    #[test]
    fn known_single_steps() {
        // From predictor 0, index 0 (step 7): code 7 gives
        // diff = 7/8 + 7/4 + 7/2 + 7 = 0+1+3+7 = 11.
        let mut st = AdpcmState::new();
        let s = decode_nibble(&mut st, 7, &mut ());
        assert_eq!(s, 11);
        assert_eq!(st.index, 8);
        // Code 15 from there subtracts with the new step (16):
        // diff = 2+4+8+16 = 30 → 11 − 30 = −19, index 8+8 = 16.
        let s = decode_nibble(&mut st, 15, &mut ());
        assert_eq!(s, -19);
        assert_eq!(st.index, 16);
    }

    #[test]
    fn encode_decode_roundtrip_tracks_waveform() {
        let pcm = synthetic_pcm(4096);
        let coded = encode(&pcm, &mut ());
        assert_eq!(coded.len(), 2048);
        let decoded = decode(&coded, &mut ());
        assert_eq!(decoded.len(), 4096);
        // ADPCM is lossy: require bounded mean error relative to signal.
        let err: f64 = pcm
            .iter()
            .zip(&decoded)
            .map(|(&a, &b)| f64::from((i32::from(a) - i32::from(b)).abs()))
            .sum::<f64>()
            / pcm.len() as f64;
        assert!(err < 2000.0, "mean error {err}");
    }

    #[test]
    fn state_clamps_hold() {
        let mut st = AdpcmState::new();
        // Drive hard positive then negative.
        for _ in 0..200 {
            decode_nibble(&mut st, 7, &mut ());
        }
        assert!(st.predictor <= 32767 && st.index <= 88);
        for _ in 0..400 {
            decode_nibble(&mut st, 15, &mut ());
        }
        assert!(st.predictor >= -32768 && st.index >= 0);
    }

    #[test]
    fn odd_sample_count_pads() {
        let coded = encode(&[100, -100, 50], &mut ());
        assert_eq!(coded.len(), 2);
    }

    #[test]
    fn instrumentation_counts_grow_with_input() {
        use vcop_sim::cpu::{CostTable, CycleCounter};
        let mut small = CycleCounter::new(CostTable::unit());
        decode(&[0x55; 16], &mut small);
        let mut large = CycleCounter::new(CostTable::unit());
        decode(&[0x55; 160], &mut large);
        assert!(large.cycles() > small.cycles() * 9);
    }

    #[test]
    fn synthetic_pcm_is_deterministic_and_bounded() {
        let a = synthetic_pcm(256);
        let b = synthetic_pcm(256);
        assert_eq!(a, b);
        assert!(a.iter().any(|&s| s != 0));
    }
}
