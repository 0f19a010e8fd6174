//! Golden-vector tests: the hardware cores must be bit-identical to
//! their software references on fixed seeded inputs, through the full
//! platform (fabric + IMU + VIM), in both synchronous and overlapped
//! paging modes. The seeded generators (`synthetic_pcm`,
//! `synthetic_plaintext`) are deterministic, so these are golden vectors
//! without checked-in blobs.

use vcop::{Direction, ElemSize, MapHints, SystemBuilder};
use vcop_apps::adpcm::codec as adpcm_codec;
use vcop_apps::adpcm::hw::{AdpcmCoprocessor, OBJ_INPUT as DEC_IN, OBJ_OUTPUT as DEC_OUT};
use vcop_apps::adpcm::hw_enc::{AdpcmEncCoprocessor, OBJ_INPUT as ENC_IN, OBJ_OUTPUT as ENC_OUT};
use vcop_apps::idea::cipher as idea;
use vcop_apps::idea::hw::{IdeaCoprocessor, OBJ_INPUT as IDEA_IN, OBJ_OUTPUT as IDEA_OUT};
use vcop_apps::timing;
use vcop_fabric::bitstream::Bitstream;
use vcop_fabric::resources::Resources;

fn seq() -> MapHints {
    MapHints {
        sequential: true,
        ..Default::default()
    }
}

fn adpcm_system(overlap: bool) -> vcop::System {
    SystemBuilder::epxa1()
        .clocks(timing::ADPCM_CORE_FREQ, timing::ADPCM_IMU_FREQ)
        .overlap(overlap)
        .build()
}

fn idea_system(overlap: bool) -> vcop::System {
    SystemBuilder::epxa1()
        .clocks(timing::IDEA_CORE_FREQ, timing::IDEA_IMU_FREQ)
        .overlap(overlap)
        .build()
}

/// Runs the hardware decoder on `coded` and returns the PCM samples.
fn hw_decode(coded: &[u8], overlap: bool) -> Vec<i16> {
    let mut system = adpcm_system(overlap);
    let bs = Bitstream::builder("adpcmdecode")
        .resources(Resources::new(1_100, 6_144))
        .core_clock(timing::ADPCM_CORE_FREQ)
        .synthetic_payload(48 * 1024)
        .build();
    system
        .fpga_load(&bs.to_bytes(), Box::new(AdpcmCoprocessor::new()))
        .expect("load decoder");
    system
        .fpga_map_object(DEC_IN, coded.to_vec(), ElemSize::U8, Direction::In, seq())
        .expect("map input");
    system
        .fpga_map_object(
            DEC_OUT,
            vec![0u8; coded.len() * 4],
            ElemSize::U16,
            Direction::Out,
            seq(),
        )
        .expect("map output");
    system
        .fpga_execute(&[coded.len() as u32])
        .expect("execute decode");
    adpcm_codec::samples_from_bytes(&system.take_object(DEC_OUT).expect("mapped"))
}

/// Runs the hardware encoder on `pcm` and returns the packed codes.
fn hw_encode(pcm: &[i16], overlap: bool) -> Vec<u8> {
    let mut system = adpcm_system(overlap);
    let bs = Bitstream::builder("adpcmencode")
        .resources(Resources::new(1_300, 6_144))
        .core_clock(timing::ADPCM_CORE_FREQ)
        .synthetic_payload(48 * 1024)
        .build();
    system
        .fpga_load(&bs.to_bytes(), Box::new(AdpcmEncCoprocessor::new()))
        .expect("load encoder");
    system
        .fpga_map_object(
            ENC_IN,
            adpcm_codec::samples_to_bytes(pcm),
            ElemSize::U16,
            Direction::In,
            seq(),
        )
        .expect("map input");
    system
        .fpga_map_object(
            ENC_OUT,
            vec![0u8; pcm.len() / 2],
            ElemSize::U8,
            Direction::Out,
            seq(),
        )
        .expect("map output");
    system
        .fpga_execute(&[pcm.len() as u32])
        .expect("execute encode");
    system.take_object(ENC_OUT).expect("mapped")
}

/// Runs the IDEA core over `data` with the given subkey schedule
/// (encryption or inverted-for-decryption) and returns the output bytes.
fn hw_idea(data: &[u8], keys: &[u16; idea::SUBKEYS], overlap: bool) -> Vec<u8> {
    let mut system = idea_system(overlap);
    let bs = Bitstream::builder("idea")
        .resources(Resources::new(3_600, 24_576))
        .core_clock(timing::IDEA_CORE_FREQ)
        .synthetic_payload(96 * 1024)
        .build();
    system
        .fpga_load(&bs.to_bytes(), Box::new(IdeaCoprocessor::new()))
        .expect("load idea");
    system
        .fpga_map_object(
            IDEA_IN,
            idea::pack_words(data),
            ElemSize::U16,
            Direction::In,
            seq(),
        )
        .expect("map input");
    system
        .fpga_map_object(
            IDEA_OUT,
            vec![0u8; data.len()],
            ElemSize::U16,
            Direction::Out,
            seq(),
        )
        .expect("map output");
    let mut params = Vec::with_capacity(1 + idea::SUBKEYS);
    params.push((data.len() / idea::BLOCK_BYTES) as u32);
    params.extend(keys.iter().map(|&k| u32::from(k)));
    system.fpga_execute(&params).expect("execute idea");
    idea::unpack_words(&system.take_object(IDEA_OUT).expect("mapped"))
}

#[test]
fn adpcm_decoder_matches_codec_bit_exactly() {
    // 8 KB of codes — 4x the dual-port RAM, so the VIM pages heavily.
    let pcm = adpcm_codec::synthetic_pcm(16 * 1024);
    let coded = adpcm_codec::encode(&pcm, &mut ());
    let sw = adpcm_codec::decode(&coded, &mut ());
    for overlap in [false, true] {
        assert_eq!(hw_decode(&coded, overlap), sw, "overlap={overlap}");
    }
}

#[test]
fn adpcm_encoder_matches_codec_bit_exactly() {
    let pcm = adpcm_codec::synthetic_pcm(16 * 1024);
    let sw = adpcm_codec::encode(&pcm, &mut ());
    for overlap in [false, true] {
        assert_eq!(hw_encode(&pcm, overlap), sw, "overlap={overlap}");
    }
}

#[test]
fn adpcm_hw_compress_decompress_pipeline_is_self_consistent() {
    // hw encode → hw decode equals sw encode → sw decode exactly
    // (ADPCM is lossy vs the original, but the pipelines must agree).
    let pcm = adpcm_codec::synthetic_pcm(8 * 1024);
    let coded = hw_encode(&pcm, true);
    let rebuilt = hw_decode(&coded, true);
    let sw = adpcm_codec::decode(&adpcm_codec::encode(&pcm, &mut ()), &mut ());
    assert_eq!(rebuilt, sw);
}

#[test]
fn idea_encrypt_matches_cipher_bit_exactly() {
    let pt = idea::synthetic_plaintext(16 * 1024);
    let ek = idea::expand_key(idea::IdeaKey([9, 8, 7, 6, 5, 4, 3, 2]));
    let sw_ct = idea::crypt_buffer(&pt, &ek, &mut ());
    for overlap in [false, true] {
        assert_eq!(hw_idea(&pt, &ek, overlap), sw_ct, "overlap={overlap}");
    }
}

#[test]
fn idea_hw_encrypt_decrypt_round_trips() {
    // Hardware both ways: encrypt with the expanded key, decrypt with
    // the inverted schedule, recover the seeded plaintext bit-exactly.
    let pt = idea::synthetic_plaintext(16 * 1024);
    let ek = idea::expand_key(idea::IdeaKey([1, 2, 3, 4, 5, 6, 7, 8]));
    let dk = idea::invert_subkeys(&ek);
    for overlap in [false, true] {
        let ct = hw_idea(&pt, &ek, overlap);
        assert_ne!(ct, pt, "ciphertext must differ from plaintext");
        let back = hw_idea(&ct, &dk, overlap);
        assert_eq!(back, pt, "overlap={overlap}");
    }
}

/// `FPGA_LOAD` charges configuration cycles for the container's size.
/// The serving bitstreams' load times are pinned to the picosecond, so
/// any change to how that size is found must leave modeled time alone.
/// EPXA1 and EPXA4 share the configuration interface (8 bits at 33 MHz).
#[test]
fn configuration_load_time_is_pinned() {
    use vcop_bench::serving::AppKind;
    use vcop_fabric::loader::ConfigController;
    use vcop_fabric::DeviceProfile;

    for device in [DeviceProfile::epxa1(), DeviceProfile::epxa4()] {
        for (kind, ps) in [
            (AppKind::Idea, 2_979_997_020),
            (AppKind::Adpcm, 1_490_756_085),
        ] {
            let loaded = ConfigController::new(device)
                .load(&kind.bitstream(&device))
                .unwrap();
            assert_eq!(
                loaded.load_time.as_ps(),
                ps,
                "{:?} {}",
                device.kind,
                kind.name()
            );
        }
    }
}

/// The software kernels pinned to values taken from an earlier,
/// independently written version of them. The tests above compare each
/// hardware FSM with the software codec, but both sides call the same
/// kernel, so a bug the two share would pass them; it would not pass
/// these pins. Outputs are pinned by CRC-32, charged time to the
/// picosecond.
#[test]
fn reference_kernels_are_pinned() {
    use vcop_fabric::bitstream::crc32;

    let fig9_key = idea::IdeaKey([1, 2, 3, 4, 5, 6, 7, 8]);
    let coded = adpcm_codec::encode(&adpcm_codec::synthetic_pcm(16 * 1024), &mut ());
    let decoded = adpcm_codec::samples_to_bytes(&adpcm_codec::decode(&coded, &mut ()));
    let ct = idea::crypt_buffer(
        &idea::synthetic_plaintext(32 * 1024),
        &idea::expand_key(fig9_key),
        &mut (),
    );
    assert_eq!(crc32(&coded), 0x2e7c_04c8, "adpcm encode");
    assert_eq!(crc32(&decoded), 0xa7e6_39d2, "adpcm decode");
    assert_eq!(crc32(&ct), 0xfc7d_3166, "IDEA encrypt");

    assert_eq!(timing::adpcm_raw_cycles_per_byte(), 70);
    assert_eq!(timing::idea_raw_cycles_per_block(), 1412);

    // The software baselines of the Fig. 8 and Fig. 9 32 KB points.
    let fig8_input = adpcm_codec::encode(&adpcm_codec::synthetic_pcm(64 * 1024), &mut ());
    let fig9_input = idea::synthetic_plaintext(32 * 1024);
    assert_eq!(timing::adpcm_sw(&fig8_input).1.as_ps(), 68_875_487_898);
    assert_eq!(
        timing::idea_sw(&fig9_input, fig9_key).1.as_ps(),
        208_136_980_254
    );
}
