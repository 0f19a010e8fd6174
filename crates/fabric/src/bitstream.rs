//! Synthetic configuration bitstreams.
//!
//! `FPGA_LOAD` takes "a pointer to the configuration bit-stream"
//! (Section 3.1). Real Excalibur bitstreams are opaque vendor blobs; the
//! model defines an equivalent container that carries exactly what the
//! loader needs to check — target device, resource requirements, core
//! clock — plus an integrity CRC, and round-trips through a compact
//! binary encoding so the load path (including corruption detection) is
//! exercised for real.
//!
//! Layout (little-endian):
//!
//! ```text
//! offset size  field
//! 0      4     magic "VCBS"
//! 4      2     format version (1)
//! 6      1     device kind (0/1/2 = EPXA1/4/10)
//! 7      1     name length N
//! 8      N     core name (UTF-8, cut to ≤ 255 bytes at a char boundary)
//! 8+N    4     required logic elements
//! 12+N   4     required memory bits
//! 16+N   8     core clock in Hz
//! 24+N   4     payload length P
//! 28+N   P     payload (configuration frames; content opaque)
//! 28+N+P 4     CRC-32 (IEEE) over everything before this field
//! ```

use core::fmt;

use vcop_sim::time::Frequency;

use crate::device::DeviceKind;
use crate::resources::Resources;

/// Magic bytes at the start of every bitstream.
pub const MAGIC: [u8; 4] = *b"VCBS";
/// Current encoding version.
pub const VERSION: u16 = 1;

/// Errors from bitstream decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseBitstreamError {
    /// Input shorter than the fixed header or declared sizes.
    Truncated,
    /// Magic bytes missing.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Unknown device kind byte.
    BadDevice(u8),
    /// Core name was not valid UTF-8.
    BadName,
    /// Stored CRC-32 does not match the content.
    CrcMismatch {
        /// CRC stored in the container.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// Declared core clock was zero.
    BadClock,
}

impl fmt::Display for ParseBitstreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBitstreamError::Truncated => write!(f, "bitstream truncated"),
            ParseBitstreamError::BadMagic => write!(f, "bitstream magic mismatch"),
            ParseBitstreamError::BadVersion(v) => write!(f, "unsupported bitstream version {v}"),
            ParseBitstreamError::BadDevice(d) => write!(f, "unknown device kind {d}"),
            ParseBitstreamError::BadName => write!(f, "core name is not valid utf-8"),
            ParseBitstreamError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            ParseBitstreamError::BadClock => write!(f, "core clock must be nonzero"),
        }
    }
}

impl std::error::Error for ParseBitstreamError {}

/// Lookup tables for slicing-by-8 CRC-32: `CRC_TABLES[0][b]` is the CRC
/// register update for byte `b`, and `CRC_TABLES[k][b]` is that update
/// followed by `k` zero bytes, so eight tables fold eight input bytes in
/// one step. Built at compile time.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected, init `0xFFFF_FFFF`, final xor).
///
/// Table-driven, slicing-by-8: every `FPGA_LOAD` checks the whole
/// container, so the CRC runs over every byte of every bitstream a
/// system loads.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// A decoded (or freshly built) configuration bitstream.
///
/// # Examples
///
/// ```
/// use vcop_fabric::bitstream::Bitstream;
/// use vcop_fabric::device::DeviceKind;
/// use vcop_fabric::resources::Resources;
/// use vcop_sim::time::Frequency;
///
/// # fn main() -> Result<(), vcop_fabric::bitstream::ParseBitstreamError> {
/// let bs = Bitstream::builder("idea")
///     .device(DeviceKind::Epxa1)
///     .resources(Resources::new(3000, 16_384))
///     .core_clock(Frequency::from_mhz(6))
///     .payload(vec![0u8; 1024])
///     .build();
/// let bytes = bs.to_bytes();
/// let back = Bitstream::from_bytes(&bytes)?;
/// assert_eq!(back, bs);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    name: String,
    device: DeviceKind,
    resources: Resources,
    core_clock: Frequency,
    payload: Vec<u8>,
}

impl Bitstream {
    /// Starts building a bitstream for a core called `name`.
    pub fn builder(name: impl Into<String>) -> BitstreamBuilder {
        BitstreamBuilder {
            name: name.into(),
            device: DeviceKind::Epxa1,
            resources: Resources::ZERO,
            core_clock: Frequency::from_mhz(40),
            payload: Vec::new(),
        }
    }

    /// Core name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Target device.
    pub fn device(&self) -> DeviceKind {
        self.device
    }

    /// PLD resources the core requires.
    pub fn resources(&self) -> Resources {
        self.resources
    }

    /// Clock the core is synthesised for.
    pub fn core_clock(&self) -> Frequency {
        self.core_clock
    }

    /// Configuration payload (opaque frames).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Total encoded size in bits (drives configuration-load timing).
    pub fn size_bits(&self) -> u64 {
        self.encoded_len() as u64 * 8
    }

    /// The name as stored: at most 255 bytes, cut at a character
    /// boundary so the stored bytes stay valid UTF-8.
    fn encoded_name(&self) -> &[u8] {
        let mut end = self.name.len().min(255);
        while !self.name.is_char_boundary(end) {
            end -= 1;
        }
        &self.name.as_bytes()[..end]
    }

    /// Length of [`Bitstream::to_bytes`]: header, name, resources,
    /// clock, payload length, payload and CRC.
    fn encoded_len(&self) -> usize {
        8 + self.encoded_name().len() + 20 + self.payload.len() + 4
    }

    /// Serialises to the binary container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let name = self.encoded_name();
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(match self.device {
            DeviceKind::Epxa1 => 0,
            DeviceKind::Epxa4 => 1,
            DeviceKind::Epxa10 => 2,
        });
        out.push(u8::try_from(name.len()).expect("encoded name is at most 255 bytes"));
        out.extend_from_slice(name);
        out.extend_from_slice(&self.resources.logic_elements.to_le_bytes());
        out.extend_from_slice(&self.resources.memory_bits.to_le_bytes());
        out.extend_from_slice(&self.core_clock.hz().to_le_bytes());
        out.extend_from_slice(
            &u32::try_from(self.payload.len())
                .expect("payload < 4 GiB")
                .to_le_bytes(),
        );
        out.extend_from_slice(&self.payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(out.len(), self.encoded_len());
        out
    }

    /// Decodes and integrity-checks a binary container.
    ///
    /// # Errors
    ///
    /// Any structural or integrity violation yields the corresponding
    /// [`ParseBitstreamError`] variant.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ParseBitstreamError> {
        use ParseBitstreamError as E;
        if bytes.len() < 8 {
            return Err(E::Truncated);
        }
        if bytes[0..4] != MAGIC {
            return Err(E::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(E::BadVersion(version));
        }
        let device = match bytes[6] {
            0 => DeviceKind::Epxa1,
            1 => DeviceKind::Epxa4,
            2 => DeviceKind::Epxa10,
            d => return Err(E::BadDevice(d)),
        };
        let name_len = bytes[7] as usize;
        let fixed_after_name = 4 + 4 + 8 + 4; // resources + clock + payload len
        if bytes.len() < 8 + name_len + fixed_after_name + 4 {
            return Err(E::Truncated);
        }
        let name = core::str::from_utf8(&bytes[8..8 + name_len])
            .map_err(|_| E::BadName)?
            .to_owned();
        let mut at = 8 + name_len;
        let rd_u32 =
            |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().expect("len"));
        let logic_elements = rd_u32(bytes, at);
        at += 4;
        let memory_bits = rd_u32(bytes, at);
        at += 4;
        let hz = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("len"));
        at += 8;
        if hz == 0 {
            return Err(E::BadClock);
        }
        let payload_len = rd_u32(bytes, at) as usize;
        at += 4;
        if bytes.len() != at + payload_len + 4 {
            return Err(E::Truncated);
        }
        let payload = bytes[at..at + payload_len].to_vec();
        at += payload_len;
        let stored = rd_u32(bytes, at);
        let computed = crc32(&bytes[..at]);
        if stored != computed {
            return Err(E::CrcMismatch { stored, computed });
        }
        Ok(Bitstream {
            name,
            device,
            resources: Resources::new(logic_elements, memory_bits),
            core_clock: Frequency::new(hz),
            payload,
        })
    }
}

/// Word `i` of the synthetic payload of `len` bytes (see
/// [`BitstreamBuilder::synthetic_payload`]).
fn synthetic_word(len: usize, i: usize) -> u64 {
    let seed = 0x2545_F491_4F6C_DD1D ^ len as u64;
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builder for [`Bitstream`].
#[derive(Debug, Clone)]
pub struct BitstreamBuilder {
    name: String,
    device: DeviceKind,
    resources: Resources,
    core_clock: Frequency,
    payload: Vec<u8>,
}

impl BitstreamBuilder {
    /// Sets the target device (default EPXA1).
    pub fn device(mut self, device: DeviceKind) -> Self {
        self.device = device;
        self
    }

    /// Sets the resource requirement (default zero).
    pub fn resources(mut self, resources: Resources) -> Self {
        self.resources = resources;
        self
    }

    /// Sets the synthesised core clock (default 40 MHz).
    pub fn core_clock(mut self, clock: Frequency) -> Self {
        self.core_clock = clock;
        self
    }

    /// Sets the configuration payload (default empty).
    pub fn payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = payload;
        self
    }

    /// Generates a deterministic pseudo-random payload of `len` bytes,
    /// convenient for sizing the load-time model in benchmarks.
    ///
    /// Byte `k` is byte `k % 8` (little-endian) of word `k / 8`, and
    /// word `i` is the SplitMix64 finaliser of the `i + 1`-th step of a
    /// Weyl sequence seeded by `len`. No word depends on another, so the
    /// payload is generated at the speed of memory, not of a serial
    /// generator chain.
    pub fn synthetic_payload(mut self, len: usize) -> Self {
        let mut payload = vec![0; len];
        let mut words = payload.chunks_exact_mut(8);
        for (i, word) in (&mut words).enumerate() {
            word.copy_from_slice(&synthetic_word(len, i).to_le_bytes());
        }
        let tail = words.into_remainder();
        let n = tail.len();
        tail.copy_from_slice(&synthetic_word(len, len / 8).to_le_bytes()[..n]);
        self.payload = payload;
        self
    }

    /// Finalises the bitstream.
    pub fn build(self) -> Bitstream {
        Bitstream {
            name: self.name,
            device: self.device,
            resources: self.resources,
            core_clock: self.core_clock,
            payload: self.payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Bitstream {
        Bitstream::builder("adpcm")
            .device(DeviceKind::Epxa1)
            .resources(Resources::new(1200, 4096))
            .core_clock(Frequency::from_mhz(40))
            .synthetic_payload(2048)
            .build()
    }

    /// Bit-at-a-time CRC-32, the definition [`crc32`] must reproduce.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_matches_bitwise_at_every_chunk_remainder() {
        let data = Bitstream::builder("x")
            .synthetic_payload(64)
            .build()
            .payload;
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
    }

    proptest! {
        #[test]
        fn crc32_matches_bitwise(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
        }
    }

    #[test]
    fn roundtrip() {
        let bs = sample();
        let back = Bitstream::from_bytes(&bs.to_bytes()).unwrap();
        assert_eq!(back, bs);
        assert_eq!(back.name(), "adpcm");
        assert_eq!(back.resources().logic_elements, 1200);
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            Bitstream::from_bytes(&bytes),
            Err(ParseBitstreamError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().to_bytes();
        for cut in [0, 4, 7, bytes.len() - 1] {
            assert!(
                matches!(
                    Bitstream::from_bytes(&bytes[..cut]),
                    Err(ParseBitstreamError::Truncated) | Err(ParseBitstreamError::BadMagic)
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            Bitstream::from_bytes(&bytes),
            Err(ParseBitstreamError::BadMagic)
        );
        let mut bytes = sample().to_bytes();
        bytes[4] = 9;
        assert!(matches!(
            Bitstream::from_bytes(&bytes),
            Err(ParseBitstreamError::BadVersion(9))
        ));
    }

    #[test]
    fn bad_device_detected() {
        let mut bytes = sample().to_bytes();
        bytes[6] = 7;
        assert!(matches!(
            Bitstream::from_bytes(&bytes),
            Err(ParseBitstreamError::BadDevice(7))
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(Bitstream::from_bytes(&bytes).is_err());
    }

    #[test]
    fn synthetic_payload_deterministic() {
        // Every length up to two words and a tail, and one long payload:
        // byte `k` is byte `k % 8` of word `k / 8`, a partial last word
        // included.
        for len in (0..=17).chain([64]) {
            let a = Bitstream::builder("x").synthetic_payload(len).build();
            let b = Bitstream::builder("x").synthetic_payload(len).build();
            assert_eq!(a.payload(), b.payload(), "len {len}");
            assert_eq!(a.payload().len(), len);
            for (k, &byte) in a.payload().iter().enumerate() {
                let word = synthetic_word(len, k / 8).to_le_bytes();
                assert_eq!(byte, word[k % 8], "len {len} byte {k}");
            }
        }
        // The seed depends on the length.
        let short = Bitstream::builder("x").synthetic_payload(16).build();
        let long = Bitstream::builder("x").synthetic_payload(17).build();
        assert_ne!(short.payload(), &long.payload()[..16]);
    }

    #[test]
    fn size_bits_counts_container() {
        let bs = Bitstream::builder("x").synthetic_payload(10).build();
        assert_eq!(bs.size_bits(), bs.to_bytes().len() as u64 * 8);
    }

    #[test]
    fn long_non_ascii_name_cut_at_char_boundary() {
        // 2-, 3- and 4-byte characters behind 0-3 ASCII bytes put the
        // 255-byte limit at every offset inside a character.
        for ch in ["é", "€", "𝄞"] {
            for lead in 0..4 {
                let name = "a".repeat(lead) + &ch.repeat(200);
                let bs = Bitstream::builder(name.clone())
                    .synthetic_payload(10)
                    .build();
                let bytes = bs.to_bytes();
                let back = Bitstream::from_bytes(&bytes).unwrap();
                assert!(name.starts_with(back.name()));
                assert!(back.name().len() > 255 - ch.len(), "{lead} + {ch}");
                assert_eq!(bs.size_bits(), bytes.len() as u64 * 8);
                assert_eq!(back.to_bytes(), bytes);
            }
        }
    }

    #[test]
    fn error_display() {
        let e = ParseBitstreamError::CrcMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("crc mismatch"));
    }
}
