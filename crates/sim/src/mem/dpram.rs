//! Dual-port RAM model.
//!
//! The EPXA1 prototype interfaces the coprocessor to the system through an
//! on-chip dual-port memory: 16 KB, logically organised by the VIM into
//! eight 2 KB pages, accessible by the PLD directly (port A) and by the
//! ARM processor over the AHB (port B). The paper notes that the two
//! masters never access it simultaneously, but the model still tracks
//! per-port traffic so that bus-contention experiments remain possible.

use core::fmt;

use crate::error::SimError;

/// Which physical port performed an access (A = PLD/IMU, B = processor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// PLD-side port, used by the IMU on behalf of the coprocessor.
    Pld,
    /// Processor-side port, reached through the AHB.
    Cpu,
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Port::Pld => write!(f, "PLD"),
            Port::Cpu => write!(f, "CPU"),
        }
    }
}

/// Index of a 2 KB (by default) physical page within the dual-port RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageIndex(pub usize);

impl fmt::Display for PageIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Byte-addressable dual-port memory with page bookkeeping and per-port
/// access statistics.
///
/// # Examples
///
/// ```
/// use vcop_sim::mem::{DualPortRam, Port};
///
/// # fn main() -> Result<(), vcop_sim::SimError> {
/// let mut ram = DualPortRam::new(16 * 1024, 2 * 1024)?;
/// ram.write_word(Port::Cpu, 0x100, 0xDEAD_BEEF)?;
/// assert_eq!(ram.read_word(Port::Pld, 0x100)?, 0xDEAD_BEEF);
/// assert_eq!(ram.page_count(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DualPortRam {
    bytes: Vec<u8>,
    page_size: usize,
    reads: [u64; 2],
    writes: [u64; 2],
}

impl DualPortRam {
    /// Creates a zero-initialised memory of `size` bytes organised in
    /// pages of `page_size` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if `size` is zero, not a multiple of
    /// `page_size`, or `page_size` is not a multiple of 4 (word size).
    pub fn new(size: usize, page_size: usize) -> Result<Self, SimError> {
        if size == 0 || page_size == 0 {
            return Err(SimError::Config(
                "dual-port RAM size must be nonzero".into(),
            ));
        }
        if !size.is_multiple_of(page_size) {
            return Err(SimError::Config(format!(
                "dual-port RAM size {size} is not a multiple of page size {page_size}"
            )));
        }
        if !page_size.is_multiple_of(4) {
            return Err(SimError::Config(format!(
                "page size {page_size} is not word aligned"
            )));
        }
        Ok(DualPortRam {
            bytes: vec![0; size],
            page_size,
            reads: [0; 2],
            writes: [0; 2],
        })
    }

    /// Creates the EPXA1 configuration from the paper: 16 KB in eight
    /// 2 KB pages.
    pub fn epxa1() -> Self {
        DualPortRam::new(16 * 1024, 2 * 1024).expect("constants are valid")
    }

    /// Total capacity in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of physical pages.
    pub fn page_count(&self) -> usize {
        self.bytes.len() / self.page_size
    }

    fn check(&self, addr: usize, len: usize) -> Result<(), SimError> {
        if addr
            .checked_add(len)
            .is_none_or(|end| end > self.bytes.len())
        {
            return Err(SimError::AddressOutOfRange {
                addr: addr as u64,
                size: self.bytes.len() as u64,
            });
        }
        Ok(())
    }

    fn port_idx(port: Port) -> usize {
        match port {
            Port::Pld => 0,
            Port::Cpu => 1,
        }
    }

    /// Reads a little-endian 32-bit word at byte address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AddressOutOfRange`] if the word does not fit,
    /// and [`SimError::Misaligned`] if `addr` is not 4-byte aligned.
    pub fn read_word(&mut self, port: Port, addr: usize) -> Result<u32, SimError> {
        if !addr.is_multiple_of(4) {
            return Err(SimError::Misaligned { addr: addr as u64 });
        }
        self.check(addr, 4)?;
        self.reads[Self::port_idx(port)] += 1;
        Ok(u32::from_le_bytes(
            self.bytes[addr..addr + 4]
                .try_into()
                .expect("length checked"),
        ))
    }

    /// Writes a little-endian 32-bit word at byte address `addr`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DualPortRam::read_word`].
    pub fn write_word(&mut self, port: Port, addr: usize, value: u32) -> Result<(), SimError> {
        if !addr.is_multiple_of(4) {
            return Err(SimError::Misaligned { addr: addr as u64 });
        }
        self.check(addr, 4)?;
        self.writes[Self::port_idx(port)] += 1;
        self.bytes[addr..addr + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads a 16-bit little-endian halfword.
    ///
    /// # Errors
    ///
    /// Out-of-range or 2-byte misaligned addresses fail as in
    /// [`DualPortRam::read_word`].
    pub fn read_half(&mut self, port: Port, addr: usize) -> Result<u16, SimError> {
        if !addr.is_multiple_of(2) {
            return Err(SimError::Misaligned { addr: addr as u64 });
        }
        self.check(addr, 2)?;
        self.reads[Self::port_idx(port)] += 1;
        Ok(u16::from_le_bytes(
            self.bytes[addr..addr + 2]
                .try_into()
                .expect("length checked"),
        ))
    }

    /// Writes a 16-bit little-endian halfword.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DualPortRam::read_half`].
    pub fn write_half(&mut self, port: Port, addr: usize, value: u16) -> Result<(), SimError> {
        if !addr.is_multiple_of(2) {
            return Err(SimError::Misaligned { addr: addr as u64 });
        }
        self.check(addr, 2)?;
        self.writes[Self::port_idx(port)] += 1;
        self.bytes[addr..addr + 2].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads a single byte.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AddressOutOfRange`] if `addr` is out of range.
    pub fn read_byte(&mut self, port: Port, addr: usize) -> Result<u8, SimError> {
        self.check(addr, 1)?;
        self.reads[Self::port_idx(port)] += 1;
        Ok(self.bytes[addr])
    }

    /// Writes a single byte.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AddressOutOfRange`] if `addr` is out of range.
    pub fn write_byte(&mut self, port: Port, addr: usize, value: u8) -> Result<(), SimError> {
        self.check(addr, 1)?;
        self.writes[Self::port_idx(port)] += 1;
        self.bytes[addr] = value;
        Ok(())
    }

    /// Copies `src` into the memory starting at `addr` (used by the VIM
    /// when loading a page; counted as one write access per word on the
    /// CPU port).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AddressOutOfRange`] if the slice does not fit.
    pub fn write_slice(&mut self, port: Port, addr: usize, src: &[u8]) -> Result<(), SimError> {
        self.check(addr, src.len())?;
        self.writes[Self::port_idx(port)] += (src.len() as u64).div_ceil(4);
        self.bytes[addr..addr + src.len()].copy_from_slice(src);
        Ok(())
    }

    /// Copies memory content starting at `addr` into `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AddressOutOfRange`] if the slice does not fit.
    pub fn read_slice(&mut self, port: Port, addr: usize, dst: &mut [u8]) -> Result<(), SimError> {
        self.check(addr, dst.len())?;
        self.reads[Self::port_idx(port)] += (dst.len() as u64).div_ceil(4);
        dst.copy_from_slice(&self.bytes[addr..addr + dst.len()]);
        Ok(())
    }

    /// The bytes at `range` (which must be in bounds), read without
    /// counting port traffic: an inspection view for invariant checks.
    pub fn peek(&self, range: core::ops::Range<usize>) -> &[u8] {
        &self.bytes[range]
    }

    /// Total reads performed through `port`.
    pub fn reads(&self, port: Port) -> u64 {
        self.reads[Self::port_idx(port)]
    }

    /// Total writes performed through `port`.
    pub fn writes(&self, port: Port) -> u64 {
        self.writes[Self::port_idx(port)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epxa1_geometry() {
        let ram = DualPortRam::epxa1();
        assert_eq!(ram.size(), 16 * 1024);
        assert_eq!(ram.page_size(), 2 * 1024);
        assert_eq!(ram.page_count(), 8);
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(DualPortRam::new(0, 2048).is_err());
        assert!(DualPortRam::new(16 * 1024, 0).is_err());
        assert!(DualPortRam::new(10_000, 2048).is_err());
        assert!(DualPortRam::new(16 * 1024, 1022).is_err());
    }

    #[test]
    fn word_roundtrip_across_ports() {
        let mut ram = DualPortRam::epxa1();
        ram.write_word(Port::Cpu, 0x40, 0x1234_5678).unwrap();
        assert_eq!(ram.read_word(Port::Pld, 0x40).unwrap(), 0x1234_5678);
        assert_eq!(ram.writes(Port::Cpu), 1);
        assert_eq!(ram.reads(Port::Pld), 1);
        assert_eq!(ram.reads(Port::Cpu), 0);
    }

    #[test]
    fn half_and_byte_access() {
        let mut ram = DualPortRam::epxa1();
        ram.write_half(Port::Pld, 0x10, 0xBEEF).unwrap();
        assert_eq!(ram.read_byte(Port::Cpu, 0x10).unwrap(), 0xEF);
        assert_eq!(ram.read_byte(Port::Cpu, 0x11).unwrap(), 0xBE);
        ram.write_byte(Port::Cpu, 0x12, 0x7F).unwrap();
        assert_eq!(ram.read_half(Port::Pld, 0x12).unwrap(), 0x007F);
    }

    #[test]
    fn misaligned_access_rejected() {
        let mut ram = DualPortRam::epxa1();
        assert!(matches!(
            ram.read_word(Port::Pld, 0x41),
            Err(SimError::Misaligned { .. })
        ));
        assert!(matches!(
            ram.write_half(Port::Pld, 0x41, 0),
            Err(SimError::Misaligned { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut ram = DualPortRam::epxa1();
        let size = ram.size();
        assert!(matches!(
            ram.read_word(Port::Pld, size),
            Err(SimError::AddressOutOfRange { .. })
        ));
        assert!(ram.write_word(Port::Pld, size - 4, 1).is_ok());
        assert!(ram.write_word(Port::Pld, size - 3, 1).is_err());
        // Overflow-proof bounds check.
        assert!(ram.read_byte(Port::Pld, usize::MAX).is_err());
    }

    #[test]
    fn slice_copy_roundtrip() {
        let mut ram = DualPortRam::epxa1();
        let data: Vec<u8> = (0..=255).collect();
        ram.write_slice(Port::Cpu, 2048, &data).unwrap();
        let mut back = vec![0u8; 256];
        ram.read_slice(Port::Pld, 2048, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(ram.writes(Port::Cpu), 64); // 256 bytes = 64 words
        assert_eq!(ram.reads(Port::Pld), 64);
    }

    #[test]
    fn display_impls() {
        assert_eq!(Port::Pld.to_string(), "PLD");
        assert_eq!(PageIndex(5).to_string(), "p5");
    }
}
