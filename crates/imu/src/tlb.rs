//! The IMU's translation lookaside buffer.
//!
//! "The key part of the IMU is actually the TLB that performs address
//! translation for coprocessor accesses. [...] an upper part (most
//! significant bits) of the coprocessor address is matched to the
//! patterns in the translation table. If a match is found, the physical
//! address is formed out of the translation information and the lower
//! part [...] The TLB also contains invalidity and dirtiness
//! information." (Section 3.2.)
//!
//! On the prototype the TLB is a content-addressable memory in the PLD's
//! embedded memory blocks. Because the translated memory is the small
//! dual-port RAM, the natural organisation — used here — is one entry per
//! physical page frame, so the TLB *is* the inverse page table of the
//! interface memory.

use core::cell::Cell;
use core::fmt;

use vcop_fabric::port::ObjectId;
use vcop_sim::mem::PageIndex;

/// Address-space identifier tagging TLB entries and DP-RAM frames with
/// the process they belong to, so translations from different processes
/// sharing the interface never alias. Single-tenant systems leave
/// everything at [`Asid::SINGLE`], which reproduces the paper's
/// untagged prototype bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asid(pub u16);

impl Asid {
    /// The implicit address space of a single-tenant system.
    pub const SINGLE: Asid = Asid(0);
}

impl fmt::Display for Asid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asid{}", self.0)
    }
}

/// A virtual interface page: object id plus page number *within* that
/// object's element space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtualPage {
    /// The mapped object.
    pub obj: ObjectId,
    /// Page number within the object (byte offset / page size).
    pub page: u32,
}

impl fmt::Display for VirtualPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:vp{}", self.obj, self.page)
    }
}

/// One CAM entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Entry participates in matching.
    pub valid: bool,
    /// The frame content has been written by the coprocessor since load.
    pub dirty: bool,
    /// Address space the entry belongs to; part of the CAM match key.
    pub asid: Asid,
    /// Matched virtual page.
    pub vpage: VirtualPage,
    /// Frame this entry translates to.
    pub frame: PageIndex,
}

impl TlbEntry {
    /// An invalid (empty) entry.
    pub fn invalid() -> Self {
        TlbEntry {
            valid: false,
            dirty: false,
            asid: Asid::SINGLE,
            vpage: VirtualPage {
                obj: ObjectId(0),
                page: 0,
            },
            frame: PageIndex(0),
        }
    }
}

/// Result of a successful lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbHit {
    /// Index of the matching entry.
    pub entry: usize,
    /// Translated frame.
    pub frame: PageIndex,
}

/// Hardware usage metadata kept per entry (the analogue of an MMU's
/// reference bits): how often and how recently the entry translated an
/// access. Replacement policies in the VIM read these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EntryUsage {
    /// Accesses translated through this entry since it was installed.
    pub accesses: u64,
    /// IMU edge stamp of the most recent access (0 = never).
    pub last_access: u64,
}

/// The CAM-organised TLB.
///
/// # Examples
///
/// ```
/// use vcop_fabric::port::ObjectId;
/// use vcop_imu::tlb::{Asid, Tlb, TlbEntry, VirtualPage};
/// use vcop_sim::mem::PageIndex;
///
/// let mut tlb = Tlb::new(8);
/// let vp = VirtualPage { obj: ObjectId(0), page: 3 };
/// tlb.set_entry(2, TlbEntry {
///     valid: true,
///     dirty: false,
///     asid: Asid::SINGLE,
///     vpage: vp,
///     frame: PageIndex(5),
/// });
/// assert_eq!(tlb.probe(Asid::SINGLE, vp).expect("mapped").frame, PageIndex(5));
/// assert!(tlb.probe(Asid(7), vp).is_none(), "other address spaces never alias");
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<TlbEntry>,
    usage: Vec<EntryUsage>,
    /// Entry that matched most recently, checked before the full scan.
    /// A CAM matches all entries in parallel, so the probe order is
    /// unobservable; this only short-circuits the software model on the
    /// streaming access patterns that dominate simulation time.
    mru: Cell<usize>,
}

impl Tlb {
    /// Creates a TLB with `entries` invalid entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "TLB must have at least one entry");
        Tlb {
            entries: vec![TlbEntry::invalid(); entries],
            usage: vec![EntryUsage::default(); entries],
            mru: Cell::new(0),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB has no entries (never true; see [`Tlb::new`]).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, in index order.
    pub fn entries(&self) -> &[TlbEntry] {
        &self.entries
    }

    /// The entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn entry(&self, index: usize) -> &TlbEntry {
        &self.entries[index]
    }

    /// CAM match of `(asid, vpage)` against all valid entries. The ASID
    /// tag is part of the match, so entries of other address spaces are
    /// invisible. The IMU counts datapath hits and misses in
    /// [`ImuStats`](crate::imu::ImuStats); a probe counts nothing.
    ///
    /// The model asserts the CAM invariant — at most one valid entry per
    /// `(asid, vpage)` pair — which [`Tlb::set_entry`] maintains.
    pub fn probe(&self, asid: Asid, vpage: VirtualPage) -> Option<TlbHit> {
        let mru = self.mru.get();
        if let Some(e) = self.entries.get(mru) {
            if e.valid && e.asid == asid && e.vpage == vpage {
                return Some(TlbHit {
                    entry: mru,
                    frame: e.frame,
                });
            }
        }
        let hit = self
            .entries
            .iter()
            .enumerate()
            .find(|(_, e)| e.valid && e.asid == asid && e.vpage == vpage)
            .map(|(i, e)| TlbHit {
                entry: i,
                frame: e.frame,
            });
        if let Some(h) = &hit {
            self.mru.set(h.entry);
        }
        hit
    }

    /// Writes entry `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, or if installing a valid entry
    /// would duplicate an `(asid, virtual page)` pair already valid in
    /// another entry (CAMs must never multi-match).
    pub fn set_entry(&mut self, index: usize, entry: TlbEntry) {
        if entry.valid {
            if let Some(dup) = self.probe(entry.asid, entry.vpage) {
                assert!(
                    dup.entry == index,
                    "virtual page {} of {} already valid in entry {}",
                    entry.vpage,
                    entry.asid,
                    dup.entry
                );
            }
        }
        self.entries[index] = entry;
        self.usage[index] = EntryUsage::default();
    }

    /// Invalidates entry `index` (keeps its other fields for debugging).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn invalidate(&mut self, index: usize) {
        self.entries[index].valid = false;
        self.entries[index].dirty = false;
        self.usage[index] = EntryUsage::default();
    }

    /// Invalidates every entry tagged with `asid`, leaving other address
    /// spaces' translations (and their dirty bits) in place. A tenant's
    /// datapath reset must not wipe the mappings of tenants parked on
    /// the same fabric.
    pub fn invalidate_asid(&mut self, asid: Asid) {
        for (i, e) in self.entries.iter_mut().enumerate() {
            if e.asid == asid {
                e.valid = false;
                e.dirty = false;
                self.usage[i] = EntryUsage::default();
            }
        }
    }

    /// Invalidates every entry.
    pub fn invalidate_all(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
            e.dirty = false;
        }
        self.usage.fill(EntryUsage::default());
    }

    /// Sets the dirty bit of entry `index` (hardware does this on a
    /// translated write).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn mark_dirty(&mut self, index: usize) {
        self.entries[index].dirty = true;
    }

    /// Records a translated access through entry `index` at IMU edge
    /// `stamp` (hardware reference-bit update).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn record_access(&mut self, index: usize, stamp: u64) {
        let u = &mut self.usage[index];
        u.accesses += 1;
        u.last_access = stamp;
    }

    /// Usage metadata of entry `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn usage(&self, index: usize) -> EntryUsage {
        self.usage[index]
    }

    /// Indices of valid entries, in index order.
    pub fn valid_indices(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.valid)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of valid *and dirty* entries (write-back candidates).
    pub fn dirty_indices(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.valid && e.dirty)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vp(obj: u8, page: u32) -> VirtualPage {
        VirtualPage {
            obj: ObjectId(obj),
            page,
        }
    }

    fn valid(obj: u8, page: u32, frame: usize) -> TlbEntry {
        TlbEntry {
            valid: true,
            dirty: false,
            asid: Asid::SINGLE,
            vpage: vp(obj, page),
            frame: PageIndex(frame),
        }
    }

    fn valid_as(asid: u16, obj: u8, page: u32, frame: usize) -> TlbEntry {
        TlbEntry {
            asid: Asid(asid),
            ..valid(obj, page, frame)
        }
    }

    #[test]
    fn invalid_entries_never_match() {
        let mut tlb = Tlb::new(2);
        let mut e = valid(0, 0, 0);
        e.valid = false;
        tlb.set_entry(0, e);
        assert!(tlb.probe(Asid::SINGLE, vp(0, 0)).is_none());
    }

    #[test]
    fn asid_isolates_identical_vpages() {
        // Two processes map the same object id and page; each probe must
        // resolve to its own frame and never to the other tenant's.
        let mut tlb = Tlb::new(4);
        tlb.set_entry(0, valid_as(1, 0, 0, 0));
        tlb.set_entry(1, valid_as(2, 0, 0, 1));
        assert_eq!(tlb.probe(Asid(1), vp(0, 0)).unwrap().frame, PageIndex(0));
        assert_eq!(tlb.probe(Asid(2), vp(0, 0)).unwrap().frame, PageIndex(1));
        assert!(tlb.probe(Asid(3), vp(0, 0)).is_none());
    }

    #[test]
    fn asid_mru_shortcut_does_not_leak() {
        // Warm the MRU slot with asid 1, then probe the same vpage under
        // asid 2: the shortcut must not return the stale entry.
        let mut tlb = Tlb::new(4);
        tlb.set_entry(2, valid_as(1, 5, 3, 2));
        tlb.set_entry(3, valid_as(2, 5, 3, 3));
        assert_eq!(tlb.probe(Asid(1), vp(5, 3)).unwrap().entry, 2);
        assert_eq!(tlb.probe(Asid(2), vp(5, 3)).unwrap().entry, 3);
        assert_eq!(tlb.probe(Asid(1), vp(5, 3)).unwrap().entry, 2);
    }

    #[test]
    fn duplicate_vpage_allowed_across_asids() {
        let mut tlb = Tlb::new(2);
        tlb.set_entry(0, valid_as(1, 0, 5, 0));
        tlb.set_entry(1, valid_as(2, 0, 5, 1)); // same vpage, other asid
        assert_eq!(tlb.probe(Asid(1), vp(0, 5)).unwrap().frame, PageIndex(0));
    }

    #[test]
    #[should_panic(expected = "already valid")]
    fn duplicate_vpage_rejected() {
        let mut tlb = Tlb::new(2);
        tlb.set_entry(0, valid(0, 5, 0));
        tlb.set_entry(1, valid(0, 5, 1));
    }

    #[test]
    fn rewriting_same_entry_is_allowed() {
        let mut tlb = Tlb::new(2);
        tlb.set_entry(0, valid(0, 5, 0));
        tlb.set_entry(0, valid(0, 5, 1)); // same slot, new frame
        assert_eq!(
            tlb.probe(Asid::SINGLE, vp(0, 5)).unwrap().frame,
            PageIndex(1)
        );
    }

    #[test]
    fn rewriting_same_entry_new_asid_is_allowed() {
        let mut tlb = Tlb::new(2);
        tlb.set_entry(0, valid_as(1, 0, 5, 0));
        tlb.set_entry(0, valid_as(2, 0, 5, 0)); // same slot, new owner
        assert!(tlb.probe(Asid(1), vp(0, 5)).is_none());
        assert_eq!(tlb.probe(Asid(2), vp(0, 5)).unwrap().frame, PageIndex(0));
    }

    #[test]
    fn invalidate_clears_dirty() {
        let mut tlb = Tlb::new(2);
        tlb.set_entry(0, valid(0, 0, 0));
        tlb.mark_dirty(0);
        assert_eq!(tlb.dirty_indices(), vec![0]);
        tlb.invalidate(0);
        assert!(tlb.dirty_indices().is_empty());
        assert!(tlb.valid_indices().is_empty());
    }

    #[test]
    fn invalidate_all() {
        let mut tlb = Tlb::new(4);
        tlb.set_entry(0, valid(0, 0, 0));
        tlb.set_entry(1, valid(0, 1, 1));
        tlb.mark_dirty(1);
        tlb.invalidate_all();
        assert!(tlb.valid_indices().is_empty());
        assert!(tlb.dirty_indices().is_empty());
    }

    #[test]
    fn dirty_requires_valid() {
        let mut tlb = Tlb::new(2);
        tlb.set_entry(0, valid(0, 0, 0));
        tlb.mark_dirty(0);
        tlb.entries();
        tlb.invalidate(0);
        // A dirty bit on an invalid entry must not surface.
        assert!(tlb.dirty_indices().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        let _ = Tlb::new(0);
    }

    #[test]
    fn display_virtual_page() {
        assert_eq!(vp(2, 7).to_string(), "obj[2]:vp7");
    }

    #[test]
    fn usage_tracks_and_resets() {
        let mut tlb = Tlb::new(2);
        tlb.set_entry(0, valid(0, 0, 0));
        tlb.record_access(0, 10);
        tlb.record_access(0, 14);
        assert_eq!(tlb.usage(0).accesses, 2);
        assert_eq!(tlb.usage(0).last_access, 14);
        // Reinstalling or invalidating clears usage.
        tlb.set_entry(0, valid(0, 1, 0));
        assert_eq!(tlb.usage(0), EntryUsage::default());
        tlb.record_access(0, 3);
        tlb.invalidate(0);
        assert_eq!(tlb.usage(0), EntryUsage::default());
    }
}
