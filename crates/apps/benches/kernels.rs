//! Set-up kernels against the versions they replaced.
//!
//! Four kernels are timed: the uninstrumented adpcm encoder (it
//! generates every adpcm input), the counted adpcm decoder behind
//! `timing::adpcm_sw` (the Fig. 8 baseline) and the counted IDEA cipher
//! behind `timing::idea_sw` (the Fig. 9 baseline), each on the 32 KB
//! input of its figure, and the synthetic bitstream payload every
//! `FPGA_LOAD` of the figures and the serving workloads takes, at the
//! 96 KB of the IDEA core. The old kernels — adpcm one code at a time
//! with branches, IDEA one block at a time with a branching multiply, a
//! serial xorshift64* payload — are reimplemented here, not kept in the
//! crates, so each crate has exactly one implementation of each. Both
//! sides of each reference kernel charge identical operations; the
//! crate's tests check that category by category.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vcop_apps::adpcm::codec::{self as adpcm, AdpcmState, INDEX_TABLE, STEP_TABLE};
use vcop_apps::idea::cipher::{self as idea, IdeaKey, BLOCK_BYTES, ROUNDS, SUBKEYS};
use vcop_apps::timing::{self, ADPCM_SW_SCALE_1024, ARM_FREQ, IDEA_SW_SCALE_1024};
use vcop_apps::OpCounter;
use vcop_fabric::bitstream::Bitstream;
use vcop_sim::cpu::{ArmCpu, CycleCounter};
use vcop_sim::time::SimTime;

const BYTES: usize = 32 * 1024;
const PAYLOAD_BYTES: usize = 96 * 1024;

// ---- the old adpcm kernels: one code at a time, with branches ----

/// The step index after `code` from `index`, by magnitude (`code & 7`).
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

fn next_index(index: i32, code: u8) -> i32 {
    i32::from(NEXT_INDEX[index as usize][usize::from(code & 7)])
}

fn old_encode(samples: &[i16]) -> Vec<u8> {
    // Uncounted: the `()` counter's charges compile to nothing, so the
    // encoder's charges are left out here.
    let mut state = AdpcmState::new();
    let mut encode_sample = |sample: i16| -> u8 {
        let step = STEP_TABLE[state.index as usize];
        let mut diff = i32::from(sample) - state.predictor;
        let mut code = 0u8;
        if diff < 0 {
            code = 8;
            diff = -diff;
        }
        let mut tempstep = step;
        let mut vpdiff = step >> 3;
        for bit in [4u8, 2, 1] {
            if diff >= tempstep {
                code |= bit;
                diff -= tempstep;
                vpdiff += tempstep;
            }
            tempstep >>= 1;
        }
        if code & 8 != 0 {
            state.predictor -= vpdiff;
        } else {
            state.predictor += vpdiff;
        }
        state.predictor = state.predictor.clamp(-32768, 32767);
        state.index = next_index(state.index, code);
        code
    };
    samples
        .chunks(2)
        .map(|pair| {
            let lo = encode_sample(pair[0]);
            lo | pair.get(1).map_or(0, |&s| encode_sample(s) << 4)
        })
        .collect()
}

// Inlined into the per-byte loop, as the old crate compiled it.
#[inline]
fn old_decode_nibble<C: OpCounter>(state: &mut AdpcmState, code: u8, ops: &mut C) -> i16 {
    let code = code & 0x0F;
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
    state.predictor = state.predictor.clamp(-32768, 32767);
    ops.alu(2);
    state.index = next_index(state.index, code);
    ops.alu(3);
    ops.store(1);
    state.predictor as i16
}

/// `timing::adpcm_sw` over the old decoder.
fn old_adpcm_sw(input: &[u8]) -> (Vec<i16>, SimTime) {
    let cpu = ArmCpu::new(ARM_FREQ);
    let mut cc = cpu.counter().with_scale_1024(ADPCM_SW_SCALE_1024);
    let mut state = AdpcmState::new();
    let mut out = vec![0; input.len() * 2];
    OpCounter::call(&mut cc, 1);
    for (&byte, pair) in input.iter().zip(out.chunks_exact_mut(2)) {
        OpCounter::load(&mut cc, 1);
        OpCounter::branch(&mut cc, 1);
        pair[0] = old_decode_nibble(&mut state, byte & 0x0F, &mut cc);
        pair[1] = old_decode_nibble(&mut state, byte >> 4, &mut cc);
    }
    (out, cpu.cycles_to_time(cc.cycles()))
}

// ---- the old IDEA kernel: one block at a time, branching multiply ----

fn old_mul(a: u16, b: u16, ops: &mut CycleCounter) -> u16 {
    ops.mul(1);
    ops.branch(2);
    ops.alu(3);
    ops.div(1);
    let p = u32::from(a) * u32::from(b);
    if p != 0 {
        let (lo, hi) = (p & 0xFFFF, p >> 16);
        (lo.wrapping_sub(hi).wrapping_add(u32::from(lo < hi)) & 0xFFFF) as u16
    } else {
        (0x1_0001u32
            .wrapping_sub(u32::from(a))
            .wrapping_sub(u32::from(b))
            & 0xFFFF) as u16
    }
}

fn old_add(a: u16, b: u16, ops: &mut CycleCounter) -> u16 {
    ops.alu(1);
    a.wrapping_add(b)
}

fn old_crypt_block(x: [u16; 4], keys: &[u16; SUBKEYS], ops: &mut CycleCounter) -> [u16; 4] {
    ops.call(1);
    let [mut x1, mut x2, mut x3, mut x4] = x;
    let mut z = keys.iter();
    let mut next = |ops: &mut CycleCounter| -> u16 {
        ops.load(1);
        *z.next().expect("52 subkeys")
    };
    for _ in 0..ROUNDS {
        ops.branch(1);
        x1 = old_mul(x1, next(ops), ops);
        x2 = old_add(x2, next(ops), ops);
        x3 = old_add(x3, next(ops), ops);
        x4 = old_mul(x4, next(ops), ops);
        let mut t2 = x1 ^ x3;
        ops.alu(1);
        t2 = old_mul(t2, next(ops), ops);
        let mut t1 = old_add(t2, x2 ^ x4, ops);
        ops.alu(1);
        t1 = old_mul(t1, next(ops), ops);
        t2 = old_add(t1, t2, ops);
        x1 ^= t1;
        x4 ^= t2;
        t2 ^= x2;
        x2 = x3 ^ t1;
        x3 = t2;
        ops.alu(4);
    }
    let y1 = old_mul(x1, next(ops), ops);
    let y2 = old_add(x3, next(ops), ops);
    let y3 = old_add(x2, next(ops), ops);
    let y4 = old_mul(x4, next(ops), ops);
    ops.store(4);
    [y1, y2, y3, y4]
}

/// `timing::idea_sw` over the old per-block loop.
fn old_idea_sw(data: &[u8], key: IdeaKey) -> (Vec<u8>, SimTime) {
    let cpu = ArmCpu::new(ARM_FREQ);
    let mut cc = cpu.counter().with_scale_1024(IDEA_SW_SCALE_1024);
    cc.alu(40 * SUBKEYS as u64);
    let ek = idea::expand_key(key);
    let mut out = Vec::with_capacity(data.len());
    for b in data.chunks_exact(BLOCK_BYTES) {
        cc.load(4);
        let w = |i: usize| u16::from_be_bytes([b[2 * i], b[2 * i + 1]]);
        let y = old_crypt_block([w(0), w(1), w(2), w(3)], &ek, &mut cc);
        for word in y {
            out.extend_from_slice(&word.to_be_bytes());
        }
    }
    (out, cpu.cycles_to_time(cc.cycles()))
}

// ---- the old synthetic payload: one xorshift64* step per byte ----

fn old_synthetic_payload(len: usize) -> Vec<u8> {
    let mut state = 0x2545_F491_4F6C_DD1Du64 ^ len as u64;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

fn synthetic_payload(len: usize) -> Bitstream {
    Bitstream::builder("payload").synthetic_payload(len).build()
}

// ---- inputs and timing ----

struct Inputs {
    pcm: Vec<i16>,
    coded: Vec<u8>,
    plaintext: Vec<u8>,
    key: IdeaKey,
}

/// The Fig. 8 / Fig. 9 32 KB inputs; checks that old and new kernels
/// agree on them, charged time included, before anything is timed.
fn inputs() -> Inputs {
    let pcm = adpcm::synthetic_pcm(2 * BYTES);
    let coded = adpcm::encode(&pcm, &mut ());
    let plaintext = idea::synthetic_plaintext(BYTES);
    let key = IdeaKey([1, 2, 3, 4, 5, 6, 7, 8]);
    assert_eq!(old_encode(&pcm), coded);
    assert_eq!(
        synthetic_payload(PAYLOAD_BYTES).payload().len(),
        PAYLOAD_BYTES
    );
    assert_eq!(old_adpcm_sw(&coded), timing::adpcm_sw(&coded));
    assert_eq!(
        old_idea_sw(&plaintext, key),
        timing::idea_sw(&plaintext, key)
    );
    Inputs {
        pcm,
        coded,
        plaintext,
        key,
    }
}

fn bench_kernels(c: &mut Criterion) {
    let x = inputs();
    let mut group = c.benchmark_group("kernels");
    group.sample_size(50);
    group.throughput(Throughput::Elements(x.pcm.len() as u64));
    group.bench_function(BenchmarkId::new("encode", "branch_free"), |b| {
        b.iter(|| adpcm::encode(black_box(&x.pcm), &mut ()))
    });
    group.bench_function(BenchmarkId::new("encode", "branching"), |b| {
        b.iter(|| old_encode(black_box(&x.pcm)))
    });
    group.bench_function(BenchmarkId::new("adpcm_sw", "per_byte"), |b| {
        b.iter(|| timing::adpcm_sw(black_box(&x.coded)))
    });
    group.bench_function(BenchmarkId::new("adpcm_sw", "per_nibble"), |b| {
        b.iter(|| old_adpcm_sw(black_box(&x.coded)))
    });
    group.throughput(Throughput::Elements((BYTES / BLOCK_BYTES) as u64));
    group.bench_function(BenchmarkId::new("idea_sw", "lanes"), |b| {
        b.iter(|| timing::idea_sw(black_box(&x.plaintext), x.key))
    });
    group.bench_function(BenchmarkId::new("idea_sw", "per_block"), |b| {
        b.iter(|| old_idea_sw(black_box(&x.plaintext), x.key))
    });
    group.throughput(Throughput::Bytes(PAYLOAD_BYTES as u64));
    group.bench_function(BenchmarkId::new("synthetic_payload", "counter"), |b| {
        b.iter(|| synthetic_payload(black_box(PAYLOAD_BYTES)))
    });
    group.bench_function(BenchmarkId::new("synthetic_payload", "xorshift"), |b| {
        b.iter(|| old_synthetic_payload(black_box(PAYLOAD_BYTES)))
    });
    group.finish();
}

/// Best-of-`ROUNDS` time of `new` and of `old` per element, in
/// nanoseconds, alternating the two so drift in the machine's speed
/// hits both alike.
fn interleaved_ns<A, B>(
    elements: usize,
    mut new: impl FnMut() -> A,
    mut old: impl FnMut() -> B,
) -> (f64, f64) {
    const ROUNDS: usize = 15;
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64() * 1e9 / elements as f64
    };
    let (mut best_new, mut best_old) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        best_new = best_new.min(time(&mut || drop(black_box(new()))));
        best_old = best_old.min(time(&mut || drop(black_box(old()))));
    }
    (best_new, best_old)
}

/// Asserts no kernel got slower than the one it replaced. The margin
/// absorbs timer noise on a shared machine; the expected gains are far
/// larger (see EXPERIMENTS.md, "Host set-up: reference kernels" and
/// "Host set-up: payload and per-byte ADPCM").
fn assert_kernels_not_slower(_c: &mut Criterion) {
    let x = inputs();
    let samples = x.pcm.len();
    let blocks = BYTES / BLOCK_BYTES;
    let rows = [
        (
            "encode",
            "sample",
            interleaved_ns(
                samples,
                || adpcm::encode(black_box(&x.pcm), &mut ()),
                || old_encode(black_box(&x.pcm)),
            ),
        ),
        (
            "adpcm_sw",
            "sample",
            interleaved_ns(
                samples,
                || timing::adpcm_sw(black_box(&x.coded)),
                || old_adpcm_sw(black_box(&x.coded)),
            ),
        ),
        (
            "idea_sw",
            "block",
            interleaved_ns(
                blocks,
                || timing::idea_sw(black_box(&x.plaintext), x.key),
                || old_idea_sw(black_box(&x.plaintext), x.key),
            ),
        ),
        (
            "synthetic_payload",
            "byte",
            interleaved_ns(
                PAYLOAD_BYTES,
                || synthetic_payload(black_box(PAYLOAD_BYTES)),
                || old_synthetic_payload(black_box(PAYLOAD_BYTES)),
            ),
        ),
    ];
    for (kernel, unit, (new_ns, old_ns)) in rows {
        println!("{kernel}: {new_ns:.2} ns/{unit} (was {old_ns:.2} ns/{unit})");
        assert!(
            new_ns <= old_ns * 1.15,
            "{kernel} got slower: {new_ns:.2} ns/{unit} vs {old_ns:.2} ns/{unit}"
        );
    }
}

criterion_group!(benches, bench_kernels, assert_kernels_not_slower);
criterion_main!(benches);
