//! The frame table: OS bookkeeping of the physical interface pages.
//!
//! "The memory is logically organised in pages, as in typical memory
//! systems. Datasets accessed by the coprocessor are mapped to these
//! pages. The OS keeps track of the pages each dataset currently
//! occupies." (Section 3.3.)

use vcop_fabric::port::ObjectId;
use vcop_imu::tlb::Asid;
use vcop_sim::mem::PageIndex;

/// What currently occupies a physical frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resident {
    /// Address space the page belongs to. Object ids are per-process, so
    /// occupancy is only meaningful together with the owner.
    pub asid: Asid,
    /// Object whose page resides here.
    pub obj: ObjectId,
    /// Virtual page number within the object.
    pub vpage: u32,
    /// Monotonic load sequence number (FIFO age).
    pub loaded_seq: u64,
}

/// Per-frame occupancy state.
///
/// With overlapped paging a frame moves through a four-state machine:
/// `Free → Loading → Resident → Evicting → Free`, where `Loading` and
/// `Evicting` pin the frame for the duration of an asynchronous DMA
/// transfer — the IMU cannot map it (its TLB entry stays invalid) and
/// the replacement policy cannot steal it (pinned frames are excluded
/// from [`FrameTable::residents`]). A dirty victim coalesces with its
/// successor by retargeting `Evicting → Loading` on write-back
/// completion, double-buffering the frame between outgoing and incoming
/// pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameState {
    /// Nothing resident.
    #[default]
    Free,
    /// Reserved for parameter passing by the given address space (not
    /// allocatable until that tenant's coprocessor invalidates it).
    Params(Asid),
    /// Holds a page of a mapped object.
    Resident(Resident),
    /// An inbound page transfer is in flight; the frame is pinned and
    /// the page is not yet mapped.
    Loading(Resident),
    /// An outbound write-back is in flight; the frame is pinned and the
    /// departing page is already unmapped.
    Evicting(Resident),
}

/// The OS's view of the dual-port RAM frames.
///
/// # Examples
///
/// ```
/// use vcop_fabric::port::ObjectId;
/// use vcop_imu::tlb::Asid;
/// use vcop_sim::mem::PageIndex;
/// use vcop_vim::frames::FrameTable;
///
/// let mut ft = FrameTable::new(8);
/// let frame = ft.find_free_in(0..8).expect("all free initially");
/// ft.install(frame, Asid::SINGLE, ObjectId(0), 0);
/// assert_eq!(ft.frame_of(Asid::SINGLE, ObjectId(0), 0), Some(frame));
/// ```
#[derive(Debug, Clone)]
pub struct FrameTable {
    frames: Vec<FrameState>,
    next_seq: u64,
    /// The first transition the state machine does not allow, if one
    /// was ever made (see [`FrameTable::illegal_transition`]).
    illegal: Option<(PageIndex, FrameState, FrameState)>,
}

/// Whether the frame state machine allows `from → to`.
fn legal(from: FrameState, to: FrameState) -> bool {
    use FrameState::*;
    matches!(
        (from, to),
        (Free, Params(_) | Resident(_) | Loading(_))
            | (Params(_) | Resident(_) | Loading(_) | Evicting(_), Free)
            | (Resident(_), Evicting(_))
            | (Loading(_), Resident(_))
            | (Evicting(_), Loading(_))
    )
}

impl FrameTable {
    /// Creates a table of `count` free frames.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(count: usize) -> Self {
        assert!(count > 0, "frame table needs at least one frame");
        FrameTable {
            frames: vec![FrameState::Free; count],
            next_seq: 0,
            illegal: None,
        }
    }

    /// Moves `frame` to `to`, recording the first move the state machine
    /// does not allow.
    fn set(&mut self, frame: PageIndex, to: FrameState) {
        let from = self.frames[frame.0];
        if from != to && !legal(from, to) && self.illegal.is_none() {
            self.illegal = Some((frame, from, to));
        }
        self.frames[frame.0] = to;
    }

    /// The first transition outside `Free → {Params, Resident, Loading}`,
    /// `Resident → Evicting`, `Loading → Resident`, `Evicting → Loading`
    /// and `* → Free` ever made, as `(frame, from, to)`.
    pub fn illegal_transition(&self) -> Option<(PageIndex, FrameState, FrameState)> {
        self.illegal
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the table has no frames (never true; see [`FrameTable::new`]).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// State of `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn state(&self, frame: PageIndex) -> FrameState {
        self.frames[frame.0]
    }

    /// Lowest-numbered free frame within `range` (a tenant's partition
    /// under partitioned frame ownership), if any.
    pub fn find_free_in(&self, range: core::ops::Range<usize>) -> Option<PageIndex> {
        let end = range.end.min(self.frames.len());
        (range.start..end)
            .find(|&i| self.frames[i] == FrameState::Free)
            .map(PageIndex)
    }

    /// Marks `frame` as holding page `vpage` of `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range or not free.
    pub fn install(&mut self, frame: PageIndex, asid: Asid, obj: ObjectId, vpage: u32) -> Resident {
        assert_eq!(
            self.frames[frame.0],
            FrameState::Free,
            "installing into non-free frame {frame}"
        );
        let r = Resident {
            asid,
            obj,
            vpage,
            loaded_seq: self.next_seq,
        };
        self.next_seq += 1;
        self.set(frame, FrameState::Resident(r));
        r
    }

    /// Frees `frame` (after eviction or final write-back), returning what
    /// was resident.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn evict(&mut self, frame: PageIndex) -> Option<Resident> {
        match self.frames[frame.0] {
            FrameState::Resident(r) => {
                self.set(frame, FrameState::Free);
                Some(r)
            }
            // Parameter reservations are released only through
            // `release_params`; pinned (in-flight) frames only through
            // their transfer-completion transitions; an already-free
            // frame stays free.
            FrameState::Params(_)
            | FrameState::Free
            | FrameState::Loading(_)
            | FrameState::Evicting(_) => None,
        }
    }

    /// Reserves `frame` for parameter passing by `asid`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range or not free.
    pub fn reserve_params(&mut self, frame: PageIndex, asid: Asid) {
        assert_eq!(
            self.frames[frame.0],
            FrameState::Free,
            "parameter frame {frame} must be free"
        );
        self.set(frame, FrameState::Params(asid));
    }

    /// Releases a parameter reservation (the coprocessor invalidated the
    /// page). Returns whether a reservation existed.
    pub fn release_params(&mut self, frame: PageIndex) -> bool {
        if matches!(self.frames[frame.0], FrameState::Params(_)) {
            self.set(frame, FrameState::Free);
            true
        } else {
            false
        }
    }

    /// Begins an asynchronous load: `Free → Loading`. The frame is
    /// pinned until [`FrameTable::finish_load`] (or
    /// [`FrameTable::cancel_load`]).
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range or not free.
    pub fn begin_load(
        &mut self,
        frame: PageIndex,
        asid: Asid,
        obj: ObjectId,
        vpage: u32,
    ) -> Resident {
        assert_eq!(
            self.frames[frame.0],
            FrameState::Free,
            "loading into non-free frame {frame}"
        );
        let r = Resident {
            asid,
            obj,
            vpage,
            loaded_seq: self.next_seq,
        };
        self.next_seq += 1;
        self.set(frame, FrameState::Loading(r));
        r
    }

    /// Completes an asynchronous load: `Loading → Resident`. Returns the
    /// now-resident page, or `None` if the frame was not loading.
    pub fn finish_load(&mut self, frame: PageIndex) -> Option<Resident> {
        match self.frames[frame.0] {
            FrameState::Loading(r) => {
                self.set(frame, FrameState::Resident(r));
                Some(r)
            }
            _ => None,
        }
    }

    /// Aborts an asynchronous load (coprocessor teardown):
    /// `Loading → Free`. Returns the page that was inbound.
    pub fn cancel_load(&mut self, frame: PageIndex) -> Option<Resident> {
        match self.frames[frame.0] {
            FrameState::Loading(r) => {
                self.set(frame, FrameState::Free);
                Some(r)
            }
            _ => None,
        }
    }

    /// Begins an asynchronous write-back of a dirty victim:
    /// `Resident → Evicting`. The departing page must already be
    /// unmapped from the TLB. Returns the victim, or `None` if the frame
    /// held no resident page.
    pub fn begin_evict(&mut self, frame: PageIndex) -> Option<Resident> {
        match self.frames[frame.0] {
            FrameState::Resident(r) => {
                self.set(frame, FrameState::Evicting(r));
                Some(r)
            }
            _ => None,
        }
    }

    /// Completes (or aborts) an asynchronous write-back:
    /// `Evicting → Free`. Returns the departed page.
    pub fn finish_evict(&mut self, frame: PageIndex) -> Option<Resident> {
        match self.frames[frame.0] {
            FrameState::Evicting(r) => {
                self.set(frame, FrameState::Free);
                Some(r)
            }
            _ => None,
        }
    }

    /// Coalesced write-back + load: `Evicting → Loading`, retargeting the
    /// frame at the incoming page without ever exposing it as free. This
    /// is the double-buffering transient of overlapped paging. Returns
    /// the new inbound page, or `None` if the frame was not evicting.
    pub fn retarget_load(
        &mut self,
        frame: PageIndex,
        asid: Asid,
        obj: ObjectId,
        vpage: u32,
    ) -> Option<Resident> {
        match self.frames[frame.0] {
            FrameState::Evicting(_) => {
                let r = Resident {
                    asid,
                    obj,
                    vpage,
                    loaded_seq: self.next_seq,
                };
                self.next_seq += 1;
                self.set(frame, FrameState::Loading(r));
                Some(r)
            }
            _ => None,
        }
    }

    /// Number of frames pinned by in-flight transfers
    /// (`Loading` + `Evicting`).
    pub fn pinned_count(&self) -> usize {
        self.frames
            .iter()
            .filter(|s| matches!(s, FrameState::Loading(_) | FrameState::Evicting(_)))
            .count()
    }

    /// The frame currently holding page `vpage` of `obj` in address
    /// space `asid`, if resident.
    pub fn frame_of(&self, asid: Asid, obj: ObjectId, vpage: u32) -> Option<PageIndex> {
        self.frames
            .iter()
            .position(|s| match s {
                FrameState::Resident(r) => r.asid == asid && r.obj == obj && r.vpage == vpage,
                _ => false,
            })
            .map(PageIndex)
    }

    /// All `(frame, resident)` pairs, in frame order.
    pub fn residents(&self) -> Vec<(PageIndex, Resident)> {
        self.frames
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                FrameState::Resident(r) => Some((PageIndex(i), *r)),
                _ => None,
            })
            .collect()
    }

    /// Frees every frame (end of execution).
    pub fn clear(&mut self) {
        for i in 0..self.frames.len() {
            self.set(PageIndex(i), FrameState::Free);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of free frames.
    fn free_count(ft: &FrameTable) -> usize {
        ft.frames.iter().filter(|s| **s == FrameState::Free).count()
    }

    #[test]
    fn only_the_state_machine_edges_are_legal() {
        let r = Resident {
            asid: Asid::SINGLE,
            obj: ObjectId(0),
            vpage: 0,
            loaded_seq: 0,
        };
        let (free, params) = (FrameState::Free, FrameState::Params(Asid::SINGLE));
        let (res, load, evict) = (
            FrameState::Resident(r),
            FrameState::Loading(r),
            FrameState::Evicting(r),
        );
        let states = [free, params, res, load, evict];
        let allowed = [
            (free, params),
            (free, res),
            (free, load),
            (params, free),
            (res, free),
            (res, evict),
            (load, res),
            (load, free),
            (evict, free),
            (evict, load),
        ];
        for from in states {
            for to in states {
                if from != to {
                    assert_eq!(
                        legal(from, to),
                        allowed.contains(&(from, to)),
                        "{from:?} -> {to:?}"
                    );
                }
            }
        }
        // The table's own transitions never trip the record.
        let mut ft = FrameTable::new(2);
        ft.begin_load(PageIndex(0), Asid::SINGLE, ObjectId(0), 0);
        ft.finish_load(PageIndex(0));
        ft.begin_evict(PageIndex(0));
        ft.retarget_load(PageIndex(0), Asid::SINGLE, ObjectId(0), 1);
        ft.cancel_load(PageIndex(0));
        ft.reserve_params(PageIndex(1), Asid::SINGLE);
        ft.clear();
        assert_eq!(ft.illegal_transition(), None);
    }

    #[test]
    fn fresh_table_is_all_free() {
        let ft = FrameTable::new(8);
        assert_eq!(ft.len(), 8);
        assert_eq!(free_count(&ft), 8);
        assert_eq!(ft.find_free_in(0..8), Some(PageIndex(0)));
    }

    #[test]
    fn install_and_lookup() {
        let mut ft = FrameTable::new(4);
        let f = ft.find_free_in(0..4).unwrap();
        let r = ft.install(f, Asid::SINGLE, ObjectId(2), 7);
        assert_eq!(r.loaded_seq, 0);
        assert_eq!(ft.frame_of(Asid::SINGLE, ObjectId(2), 7), Some(f));
        assert_eq!(ft.frame_of(Asid::SINGLE, ObjectId(2), 8), None);
        assert_eq!(free_count(&ft), 3);
        assert_eq!(ft.residents().len(), 1);
    }

    #[test]
    fn sequence_increases_per_install() {
        let mut ft = FrameTable::new(4);
        let a = ft.install(PageIndex(0), Asid::SINGLE, ObjectId(0), 0);
        let b = ft.install(PageIndex(1), Asid::SINGLE, ObjectId(0), 1);
        assert!(b.loaded_seq > a.loaded_seq);
    }

    #[test]
    fn evict_frees() {
        let mut ft = FrameTable::new(2);
        ft.install(PageIndex(1), Asid::SINGLE, ObjectId(0), 3);
        let r = ft.evict(PageIndex(1)).unwrap();
        assert_eq!(r.vpage, 3);
        assert_eq!(free_count(&ft), 2);
        assert_eq!(ft.evict(PageIndex(1)), None);
    }

    #[test]
    #[should_panic(expected = "non-free frame")]
    fn double_install_panics() {
        let mut ft = FrameTable::new(2);
        ft.install(PageIndex(0), Asid::SINGLE, ObjectId(0), 0);
        ft.install(PageIndex(0), Asid::SINGLE, ObjectId(1), 0);
    }

    #[test]
    fn params_reservation_lifecycle() {
        let mut ft = FrameTable::new(2);
        ft.reserve_params(PageIndex(0), Asid::SINGLE);
        assert_eq!(ft.state(PageIndex(0)), FrameState::Params(Asid::SINGLE));
        assert_eq!(ft.find_free_in(0..2), Some(PageIndex(1)));
        // Params frames are not evictable.
        assert_eq!(ft.evict(PageIndex(0)), None);
        assert_eq!(ft.state(PageIndex(0)), FrameState::Params(Asid::SINGLE));
        assert!(ft.release_params(PageIndex(0)));
        assert!(!ft.release_params(PageIndex(0)));
        assert_eq!(free_count(&ft), 2);
    }

    #[test]
    fn clear_resets() {
        let mut ft = FrameTable::new(3);
        ft.install(PageIndex(0), Asid::SINGLE, ObjectId(0), 0);
        ft.reserve_params(PageIndex(1), Asid::SINGLE);
        ft.clear();
        assert_eq!(free_count(&ft), 3);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_rejected() {
        let _ = FrameTable::new(0);
    }

    #[test]
    fn load_lifecycle_pins_frame() {
        let mut ft = FrameTable::new(2);
        let r = ft.begin_load(PageIndex(0), Asid::SINGLE, ObjectId(1), 4);
        assert_eq!(r.vpage, 4);
        assert_eq!(ft.pinned_count(), 1);
        // Pinned frames are invisible to allocation, lookup and eviction.
        assert_eq!(ft.find_free_in(0..2), Some(PageIndex(1)));
        assert_eq!(ft.frame_of(Asid::SINGLE, ObjectId(1), 4), None);
        assert!(ft.residents().is_empty());
        assert_eq!(ft.evict(PageIndex(0)), None);
        let done = ft.finish_load(PageIndex(0)).unwrap();
        assert_eq!(done, r);
        assert_eq!(ft.pinned_count(), 0);
        assert_eq!(
            ft.frame_of(Asid::SINGLE, ObjectId(1), 4),
            Some(PageIndex(0))
        );
    }

    #[test]
    fn cancel_load_frees_without_mapping() {
        let mut ft = FrameTable::new(1);
        ft.begin_load(PageIndex(0), Asid::SINGLE, ObjectId(0), 0);
        assert!(ft.cancel_load(PageIndex(0)).is_some());
        assert_eq!(free_count(&ft), 1);
        assert_eq!(ft.finish_load(PageIndex(0)), None);
    }

    #[test]
    fn evict_lifecycle_and_coalesced_retarget() {
        let mut ft = FrameTable::new(2);
        ft.install(PageIndex(0), Asid::SINGLE, ObjectId(0), 7);
        let victim = ft.begin_evict(PageIndex(0)).unwrap();
        assert_eq!(victim.vpage, 7);
        assert_eq!(ft.pinned_count(), 1);
        assert_eq!(ft.frame_of(Asid::SINGLE, ObjectId(0), 7), None);
        // Coalesce: the write-back completes straight into a new load
        // without the frame ever appearing free.
        let incoming = ft
            .retarget_load(PageIndex(0), Asid::SINGLE, ObjectId(2), 1)
            .unwrap();
        assert!(incoming.loaded_seq > victim.loaded_seq);
        assert_eq!(ft.state(PageIndex(0)), FrameState::Loading(incoming));
        assert_eq!(free_count(&ft), 1);
        ft.finish_load(PageIndex(0)).unwrap();
        assert_eq!(
            ft.frame_of(Asid::SINGLE, ObjectId(2), 1),
            Some(PageIndex(0))
        );
    }

    #[test]
    fn finish_evict_releases_frame() {
        let mut ft = FrameTable::new(1);
        ft.install(PageIndex(0), Asid::SINGLE, ObjectId(0), 0);
        ft.begin_evict(PageIndex(0)).unwrap();
        let gone = ft.finish_evict(PageIndex(0)).unwrap();
        assert_eq!(gone.obj, ObjectId(0));
        assert_eq!(free_count(&ft), 1);
        assert_eq!(ft.finish_evict(PageIndex(0)), None);
    }

    #[test]
    #[should_panic(expected = "non-free frame")]
    fn begin_load_into_occupied_frame_panics() {
        let mut ft = FrameTable::new(1);
        ft.install(PageIndex(0), Asid::SINGLE, ObjectId(0), 0);
        ft.begin_load(PageIndex(0), Asid::SINGLE, ObjectId(1), 0);
    }
}
