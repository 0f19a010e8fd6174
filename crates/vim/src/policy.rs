//! Page replacement policies.
//!
//! "When no page is available for allocation, several replacement
//! policies are possible (e.g., first-in first-out, least recently used,
//! random)." (Section 3.3.) The VIM delegates victim selection to a
//! [`ReplacementPolicy`]; the candidates carry both OS bookkeeping (load
//! sequence) and the IMU's hardware usage metadata (access counts and
//! recency stamps — the reference bits of this MMU analogue), so FIFO,
//! LRU, Clock and Random all make their decisions from information a real
//! implementation would have.

use core::fmt;
use std::collections::VecDeque;

use vcop_fabric::port::ObjectId;

/// What a policy knows about each eviction candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView {
    /// Physical frame number.
    pub frame: usize,
    /// Monotonic sequence number of when the page was loaded.
    pub loaded_seq: u64,
    /// Hardware access count since the page was installed.
    pub accesses: u64,
    /// IMU edge stamp of the most recent access (0 = never referenced).
    pub last_access: u64,
    /// A demand page that arrived on the DMA engine and has not been
    /// accessed since: its tenant is parked or about to resume on it.
    pub awaited: bool,
    /// The page belongs to an object mapped with the `sticky` hint.
    pub sticky: bool,
}

/// A victim-selection strategy.
///
/// Implementations must be deterministic functions of their internal
/// state and the candidate list ([`Random`] carries its own seeded
/// generator), so simulations are reproducible.
pub trait ReplacementPolicy: fmt::Debug + Send {
    /// Short name for reports (`"fifo"`, `"lru"`, …).
    fn name(&self) -> &'static str;

    /// Chooses the frame to evict from a non-empty candidate list.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `candidates` is empty; the VIM never
    /// calls with an empty list.
    fn choose_victim(&mut self, candidates: &[FrameView]) -> usize;

    /// Notifies the policy that `frame` received a fresh page.
    fn on_load(&mut self, frame: usize) {
        let _ = frame;
    }

    /// Notifies the policy of a translation fault on `(obj, vpage)`
    /// (before the victim is chosen).
    fn on_fault(&mut self, obj: ObjectId, vpage: u32) {
        let _ = (obj, vpage);
    }

    /// Notifies the policy that the page `(obj, vpage)` was evicted.
    fn on_evict(&mut self, obj: ObjectId, vpage: u32) {
        let _ = (obj, vpage);
    }
}

/// Evicts the page loaded longest ago.
#[derive(Debug, Clone, Default)]
pub struct Fifo;

impl ReplacementPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn choose_victim(&mut self, candidates: &[FrameView]) -> usize {
        preferring_unsticky(candidates)
            .min_by_key(|c| c.loaded_seq)
            .expect("nonempty candidates")
            .frame
    }
}

/// Evicts the page with the oldest hardware access stamp (true LRU using
/// the IMU's reference metadata; unreferenced pages are oldest of all).
#[derive(Debug, Clone, Default)]
pub struct Lru;

impl ReplacementPolicy for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn choose_victim(&mut self, candidates: &[FrameView]) -> usize {
        preferring_unsticky(candidates)
            .min_by_key(|c| (c.awaited, c.last_access, c.loaded_seq))
            .expect("nonempty candidates")
            .frame
    }
}

/// Uniform random eviction with a deterministic xorshift generator.
#[derive(Debug, Clone)]
pub struct Random {
    state: u64,
}

impl Random {
    /// Creates a generator from a nonzero seed (zero is mapped to a
    /// fixed constant).
    pub fn new(seed: u64) -> Self {
        Random {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl Default for Random {
    fn default() -> Self {
        Random::new(1)
    }
}

impl ReplacementPolicy for Random {
    fn name(&self) -> &'static str {
        "random"
    }

    fn choose_victim(&mut self, candidates: &[FrameView]) -> usize {
        let pool: Vec<&FrameView> = preferring_unsticky(candidates).collect();
        let idx = (self.next() % pool.len() as u64) as usize;
        pool[idx].frame
    }
}

/// Second-chance ("clock") replacement: sweeps a hand over the frames,
/// skipping pages referenced since the last sweep.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    hand: usize,
    /// Access counts seen at the previous sweep, indexed by frame.
    seen: Vec<u64>,
}

impl ReplacementPolicy for Clock {
    fn name(&self) -> &'static str {
        "clock"
    }

    fn choose_victim(&mut self, candidates: &[FrameView]) -> usize {
        let max_frame = candidates.iter().map(|c| c.frame).max().expect("nonempty") + 1;
        if self.seen.len() < max_frame {
            self.seen.resize(max_frame, 0);
        }
        let pool: Vec<&FrameView> = preferring_unsticky(candidates).collect();
        // Order candidates by frame starting at the hand.
        let mut ordered: Vec<&&FrameView> = pool.iter().collect();
        ordered.sort_by_key(|c| (c.frame + max_frame - self.hand % max_frame) % max_frame);
        // Up to two sweeps: first pass clears reference marks.
        for sweep in 0..2 {
            for c in &ordered {
                let referenced = c.accesses > self.seen[c.frame];
                if referenced && sweep == 0 {
                    self.seen[c.frame] = c.accesses; // give a second chance
                } else {
                    self.hand = (c.frame + 1) % max_frame;
                    return c.frame;
                }
            }
        }
        ordered[0].frame
    }
}

/// Thrash-adaptive replacement: behaves like FIFO while the working set
/// fits, and switches to random eviction when a ghost list of recently
/// evicted pages shows the workload is cyclically refaulting on what
/// FIFO just threw out (the classic FIFO/LRU failure on loops larger
/// than memory, which the strided matrix-multiply ablation exhibits).
#[derive(Debug, Clone)]
pub struct Adaptive {
    fifo: Fifo,
    random: Random,
    /// Recently evicted pages (bounded ghost list).
    ghost: VecDeque<(ObjectId, u32)>,
    /// Sliding outcome window: `true` = refault (fault on a ghost).
    window: VecDeque<bool>,
    ghost_capacity: usize,
    window_capacity: usize,
}

impl Adaptive {
    /// Creates the policy with a ghost list of `ghost_capacity` pages
    /// and a decision window of `window_capacity` faults.
    pub fn new(ghost_capacity: usize, window_capacity: usize) -> Self {
        Adaptive {
            fifo: Fifo,
            random: Random::default(),
            ghost: VecDeque::new(),
            window: VecDeque::new(),
            ghost_capacity: ghost_capacity.max(1),
            window_capacity: window_capacity.max(1),
        }
    }

    /// Fraction of recent faults that were refaults on freshly evicted
    /// pages.
    pub fn refault_rate(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        self.window.iter().filter(|&&r| r).count() as f64 / self.window.len() as f64
    }

    /// Whether the policy currently evicts randomly.
    pub fn is_thrashing(&self) -> bool {
        self.window.len() >= self.window_capacity / 2 && self.refault_rate() > 0.5
    }
}

impl Default for Adaptive {
    fn default() -> Self {
        Adaptive::new(32, 16)
    }
}

impl ReplacementPolicy for Adaptive {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn choose_victim(&mut self, candidates: &[FrameView]) -> usize {
        if self.is_thrashing() {
            self.random.choose_victim(candidates)
        } else {
            self.fifo.choose_victim(candidates)
        }
    }

    fn on_fault(&mut self, obj: ObjectId, vpage: u32) {
        let refault = self.ghost.iter().any(|&(o, vp)| o == obj && vp == vpage);
        self.window.push_back(refault);
        while self.window.len() > self.window_capacity {
            self.window.pop_front();
        }
    }

    fn on_evict(&mut self, obj: ObjectId, vpage: u32) {
        self.ghost.push_back((obj, vpage));
        while self.ghost.len() > self.ghost_capacity {
            self.ghost.pop_front();
        }
    }
}

fn preferring_unsticky(candidates: &[FrameView]) -> impl Iterator<Item = &FrameView> {
    let any_unsticky = candidates.iter().any(|c| !c.sticky);
    candidates
        .iter()
        .filter(move |c| !any_unsticky || !c.sticky)
}

/// Convenience constructor used by builders and CLI parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// [`Fifo`] (the prototype's behaviour).
    #[default]
    Fifo,
    /// [`Lru`].
    Lru,
    /// [`Random`].
    Random,
    /// [`Clock`].
    Clock,
    /// [`Adaptive`] (FIFO that falls back to random under thrash).
    Adaptive,
}

impl PolicyKind {
    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Fifo => Box::new(Fifo),
            PolicyKind::Lru => Box::new(Lru),
            PolicyKind::Random => Box::new(Random::default()),
            PolicyKind::Clock => Box::new(Clock::default()),
            PolicyKind::Adaptive => Box::new(Adaptive::default()),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::Fifo => write!(f, "fifo"),
            PolicyKind::Lru => write!(f, "lru"),
            PolicyKind::Random => write!(f, "random"),
            PolicyKind::Clock => write!(f, "clock"),
            PolicyKind::Adaptive => write!(f, "adaptive"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(frame: usize, loaded: u64, accesses: u64, last: u64) -> FrameView {
        FrameView {
            frame,
            loaded_seq: loaded,
            accesses,
            last_access: last,
            awaited: false,
            sticky: false,
        }
    }

    #[test]
    fn fifo_picks_oldest_load() {
        let mut p = Fifo;
        let v = p.choose_victim(&[fv(0, 5, 9, 9), fv(1, 2, 0, 0), fv(2, 7, 1, 1)]);
        assert_eq!(v, 1);
        assert_eq!(p.name(), "fifo");
    }

    #[test]
    fn lru_picks_stalest_access() {
        let mut p = Lru;
        let v = p.choose_victim(&[fv(0, 1, 10, 500), fv(1, 2, 10, 100), fv(2, 3, 10, 900)]);
        assert_eq!(v, 1);
    }

    #[test]
    fn lru_prefers_never_referenced() {
        let mut p = Lru;
        let v = p.choose_victim(&[fv(0, 9, 10, 500), fv(1, 4, 0, 0)]);
        assert_eq!(v, 1);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let frames = [fv(0, 1, 0, 0), fv(1, 2, 0, 0), fv(2, 3, 0, 0)];
        let a: Vec<usize> = {
            let mut p = Random::new(42);
            (0..8).map(|_| p.choose_victim(&frames)).collect()
        };
        let b: Vec<usize> = {
            let mut p = Random::new(42);
            (0..8).map(|_| p.choose_victim(&frames)).collect()
        };
        assert_eq!(a, b);
        // Over a few draws it must not always pick the same frame.
        assert!(a.iter().any(|&v| v != a[0]));
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut p = Clock::default();
        // First eviction: both referenced, both get a second chance on
        // sweep 0; sweep 1 evicts the first in hand order (frame 0).
        let v = p.choose_victim(&[fv(0, 1, 5, 10), fv(1, 2, 5, 12)]);
        assert_eq!(v, 0);
        // Now frame 1's count is remembered; if frame 1 is re-referenced
        // it survives and an unreferenced frame 2 goes first.
        let v = p.choose_victim(&[fv(1, 2, 9, 20), fv(2, 3, 0, 0)]);
        assert_eq!(v, 2);
    }

    #[test]
    fn sticky_pages_survive_while_alternatives_exist() {
        let mut sticky0 = fv(0, 1, 0, 0);
        sticky0.sticky = true;
        let mut p = Fifo;
        assert_eq!(p.choose_victim(&[sticky0, fv(1, 9, 0, 0)]), 1);
        // If everything is sticky the hint is void.
        let mut sticky1 = fv(1, 9, 0, 0);
        sticky1.sticky = true;
        assert_eq!(p.choose_victim(&[sticky0, sticky1]), 0);
    }

    #[test]
    fn adaptive_switches_under_thrash() {
        let mut p = Adaptive::new(8, 8);
        assert!(!p.is_thrashing());
        // Cyclic refaults: every faulting page was just evicted.
        for i in 0..8u32 {
            p.on_evict(ObjectId(0), i);
            p.on_fault(ObjectId(0), i);
        }
        assert!(p.refault_rate() > 0.9);
        assert!(p.is_thrashing());
        // Under thrash the choice is random, i.e. it varies across calls.
        let frames: Vec<FrameView> = (0..6).map(|f| fv(f, f as u64, 0, 0)).collect();
        let picks: Vec<usize> = (0..12).map(|_| p.choose_victim(&frames)).collect();
        assert!(picks.iter().any(|&v| v != picks[0]), "random picks vary");
        // Fresh faults on never-evicted pages calm it back down.
        for i in 100..120u32 {
            p.on_fault(ObjectId(1), i);
        }
        assert!(!p.is_thrashing());
        assert_eq!(p.choose_victim(&frames), 0, "FIFO again");
        assert_eq!(p.name(), "adaptive");
    }

    #[test]
    fn adaptive_ghost_list_is_bounded() {
        let mut p = Adaptive::new(4, 4);
        for i in 0..100u32 {
            p.on_evict(ObjectId(0), i);
        }
        // Only the last 4 evictions are remembered.
        p.on_fault(ObjectId(0), 0);
        assert!((p.refault_rate() - 0.0).abs() < 1e-12);
        p.on_fault(ObjectId(0), 99);
        assert!(p.refault_rate() > 0.0);
    }

    #[test]
    fn kinds_build_and_display() {
        for kind in [
            PolicyKind::Fifo,
            PolicyKind::Lru,
            PolicyKind::Random,
            PolicyKind::Clock,
            PolicyKind::Adaptive,
        ] {
            let p = kind.build();
            assert_eq!(p.name(), kind.to_string());
        }
        assert_eq!(PolicyKind::default(), PolicyKind::Fifo);
    }
}
