//! A hierarchical timing wheel — the serving engine's production event queue.
//!
//! A binary heap such as [`BaselineEventQueue`](crate::BaselineEventQueue)
//! costs `O(log n)` comparisons per operation. The simulator's schedule
//! pattern is far more regular than a heap assumes: almost every event
//! fires within a few hundred microseconds of `now` (kernel completions,
//! launch overheads, quantum expiries), and virtual time only moves
//! forward. A timing wheel
//! turns that pattern into `O(1)` schedule and amortized-`O(1)` pop.
//!
//! # Layout
//!
//! Virtual time is quantized into *ticks* of `2^TICK_BITS` ns (4.096 µs).
//! Three wheel levels of 256 slots each cover, per level:
//!
//! | level | slot width | horizon from the cursor |
//! |-------|------------|-------------------------|
//! | 0     | 1 tick (≈4 µs)      | ≈1 ms    |
//! | 1     | 256 ticks (≈1 ms)   | ≈268 ms  |
//! | 2     | 64Ki ticks (≈268 ms)| ≈69 s    |
//!
//! Events beyond the 69-second horizon (deadline watchdogs, lifecycle
//! epochs) land in a sorted overflow list and are pulled into the wheels as
//! the cursor approaches them. Each event cascades at most twice on its way
//! down, so total work per event is constant.
//!
//! # Storage
//!
//! Slots do not own `Vec`s of events — 768 separately-heap-allocated
//! buffers would turn every schedule and pop into a cold-line chase, and at
//! the engine's typical queue depth (tens of events) the constant factor is
//! the whole game. Instead all pending events live in one slab
//! ([`TimingWheel::nodes`], recycled through a free list), and each slot
//! keeps three things: the head of an intrusive singly-linked list threaded
//! through the slab, an occupancy bit, and the smallest key in its list.
//! The slab stays small and hot; per level, the head arrays take 1 KiB and
//! the minima 4 KiB (boxed, so the wheel stays cheap to move). List order
//! within a slot is arbitrary (push-front), which is fine: a slot drained
//! into the front buffer is sorted by the unique packed key, and choosing
//! which level's slot comes next reads only the stored minima.
//!
//! A slot fills only through `place` and empties all at once when it is
//! detached, so its stored minimum is always exact and costs one compare
//! per schedule. An open-loop fleet that schedules its arrivals up front
//! puts thousands of events into each upper-level slot; no cursor advance
//! walks them.
//!
//! # Ordering contract
//!
//! Identical to [`BaselineEventQueue`](crate::BaselineEventQueue): pops
//! come in non-decreasing time order and FIFO among same-instant ties.
//! Internally every event carries a packed `(time << 64) | seq` key; the
//! events of the tick under the cursor sit in a small sorted *front*
//! buffer, so within-tick ordering is exact — the wheel never
//! approximates. Because keys are unique, the wheel's pop sequence is
//! byte-identical to the baseline heap's, which the property suite
//! enforces.

use crate::SimTime;
use std::mem;

/// Tick width: `2^12` ns ≈ 4 µs — wide enough that a front-buffer refill
/// amortizes the cursor advance over several events (kernel completions
/// arrive a few µs apart), narrow enough that refills stay small.
const TICK_BITS: u32 = 12;
/// Slots per level (`2^SLOT_BITS`).
const SLOT_BITS: u32 = 8;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
const WORDS: usize = SLOTS / 64;
/// Wheel levels; beyond `SLOT_BITS * LEVELS` ticks of horizon events
/// overflow into the sorted far-future list.
const LEVELS: usize = 3;
/// Cursor-relative tick horizon covered by the wheels.
const HORIZON_TICKS: u64 = 1 << (SLOT_BITS * LEVELS as u32);
/// Null link for the intrusive slot lists and the free list.
const NIL: u32 = u32::MAX;

fn pack(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

fn unpack_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

fn key_tick(key: u128) -> u64 {
    ((key >> 64) as u64) >> TICK_BITS
}

/// One slab cell: either a pending event threaded into a slot list, or a
/// vacant cell threaded into the free list.
#[derive(Debug)]
enum Node<E> {
    Vacant(u32),
    Full { key: u128, next: u32, event: E },
}

/// The hierarchical timing-wheel event queue.
///
/// Same ordering contract and deterministic pop sequence as
/// [`BaselineEventQueue`](crate::BaselineEventQueue).
///
/// ```
/// use simtime::{SimTime, TimingWheel};
///
/// let mut q = TimingWheel::new();
/// q.schedule(SimTime::from_nanos(7), 'b');
/// q.schedule(SimTime::from_nanos(7), 'c');
/// q.schedule(SimTime::from_nanos(3), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct TimingWheel<E> {
    /// Events of the tick under the cursor, sorted by key *descending* so
    /// the next event pops from the back.
    front: Vec<(u128, E)>,
    /// Slab of pending events; vacant cells form a free list.
    nodes: Vec<Node<E>>,
    /// Free-list head into `nodes`, or [`NIL`].
    free: u32,
    /// Per-level slot list heads into `nodes`, or [`NIL`].
    heads: [[u32; SLOTS]; LEVELS],
    /// Per-level slot occupancy bitmaps (bit set ⇔ head is not [`NIL`]).
    occupied: [[u64; WORDS]; LEVELS],
    /// Per-level smallest key of each occupied slot's list; meaningless
    /// while the slot is empty. Boxed: inline, its 12 KiB would be copied
    /// every time the wheel, or an engine holding it, is moved.
    mins: Box<[[u128; SLOTS]; LEVELS]>,
    /// Pending events per level, so empty levels cost one branch to skip.
    counts: [usize; LEVELS],
    /// Far-future events (beyond [`HORIZON_TICKS`]), sorted by key
    /// descending; drained into the wheels as the cursor approaches.
    overflow: Vec<(u128, E)>,
    /// Every wheel/overflow event has `tick > cur_tick`; the front buffer
    /// holds `tick <= cur_tick`. Only ever advances.
    cur_tick: u64,
    seq: u64,
    len: usize,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        TimingWheel {
            front: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
            heads: [[NIL; SLOTS]; LEVELS],
            occupied: [[0; WORDS]; LEVELS],
            mins: Box::new([[u128::MAX; SLOTS]; LEVELS]),
            counts: [0; LEVELS],
            overflow: Vec::new(),
            cur_tick: 0,
            seq: 0,
            len: 0,
        }
    }

    /// Creates an empty wheel with room for `cap` events. Slab and front
    /// storage are retained across pops, so steady state allocates nothing
    /// either way.
    pub fn with_capacity(cap: usize) -> Self {
        let mut w = Self::new();
        w.front.reserve(cap.min(1024));
        w.nodes.reserve(cap.min(1024));
        w
    }

    /// Reserves room for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.front.reserve(additional);
        self.nodes.reserve(additional);
    }

    /// Schedules `event` to fire at instant `at`.
    ///
    /// Scheduling into the past (before the last popped instant) is
    /// tolerated and behaves like scheduling for that instant's tick: the
    /// event joins the front buffer in key order.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let key = pack(at, self.seq);
        self.seq += 1;
        self.len += 1;
        let tick = at.as_nanos() >> TICK_BITS;
        if tick <= self.cur_tick {
            // Same tick as the cursor (or earlier): insert into the sorted
            // front buffer. The new key's seq is the largest ever issued,
            // so among equal times it lands closest to the buffer's start.
            let pos = self.front.partition_point(|&(k, _)| k > key);
            self.front.insert(pos, (key, event));
        } else {
            self.place(tick, key, event);
        }
    }

    /// Files a future event into the wheel level matching its distance from
    /// the cursor, or into the overflow list past the horizon.
    #[inline]
    fn place(&mut self, tick: u64, key: u128, event: E) {
        let delta = tick - self.cur_tick;
        let (lvl, slot) = if delta < SLOTS as u64 {
            (0, (tick & SLOT_MASK) as usize)
        } else if delta < 1 << (2 * SLOT_BITS) {
            (1, ((tick >> SLOT_BITS) & SLOT_MASK) as usize)
        } else if delta < HORIZON_TICKS {
            (2, ((tick >> (2 * SLOT_BITS)) & SLOT_MASK) as usize)
        } else {
            let pos = self.overflow.partition_point(|&(k, _)| k > key);
            self.overflow.insert(pos, (key, event));
            return;
        };
        let next = self.heads[lvl][slot];
        // A slot fills only here and empties only all at once in `detach`,
        // so its first key sets the minimum and later ones can only lower it.
        let min = &mut self.mins[lvl][slot];
        *min = if next == NIL { key } else { key.min(*min) };
        let i = if self.free != NIL {
            let i = self.free;
            match mem::replace(&mut self.nodes[i as usize], Node::Full { key, next, event }) {
                Node::Vacant(nf) => self.free = nf,
                Node::Full { .. } => unreachable!("free list points at a full node"),
            }
            i
        } else {
            self.nodes.push(Node::Full { key, next, event });
            (self.nodes.len() - 1) as u32
        };
        self.heads[lvl][slot] = i;
        self.occupied[lvl][slot / 64] |= 1 << (slot % 64);
        self.counts[lvl] += 1;
    }

    /// Vacates slab cell `i`, pushing it onto the free list, and returns its
    /// contents: `(key, next-in-slot-list, event)`.
    #[inline]
    fn take_node(&mut self, i: u32) -> (u128, u32, E) {
        match mem::replace(&mut self.nodes[i as usize], Node::Vacant(self.free)) {
            Node::Full { key, next, event } => {
                self.free = i;
                (key, next, event)
            }
            Node::Vacant(_) => unreachable!("slot list points at a vacant node"),
        }
    }

    /// Unhooks `slot`'s list from level `lvl` and returns its head.
    #[inline]
    fn detach(&mut self, lvl: usize, slot: usize) -> u32 {
        self.occupied[lvl][slot / 64] &= !(1 << (slot % 64));
        mem::replace(&mut self.heads[lvl][slot], NIL)
    }

    /// First occupied slot of level `lvl` at circular distance ≥ 1 from
    /// `start`, together with that distance, or `None` when the level is
    /// empty. Scans the occupancy bitmap a word at a time: the word holding
    /// `start + 1` with its lower bits masked, the other words in circular
    /// order, then the first word's masked-off low bits (which circularly
    /// are the farthest, `start` itself included at distance [`SLOTS`]).
    fn next_occupied(&self, lvl: usize, start: usize) -> Option<(usize, usize)> {
        let hit = |slot: usize| {
            let dist = ((slot + SLOTS - start - 1) & (SLOTS - 1)) + 1;
            Some((slot, dist))
        };
        let begin = (start + 1) & (SLOTS - 1);
        let (bw, bb) = (begin / 64, begin % 64);
        let high = self.occupied[lvl][bw] & (!0u64 << bb);
        if high != 0 {
            return hit(bw * 64 + high.trailing_zeros() as usize);
        }
        for i in 1..WORDS {
            let wi = (bw + i) % WORDS;
            let w = self.occupied[lvl][wi];
            if w != 0 {
                return hit(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        let low = self.occupied[lvl][bw] & !(!0u64 << bb);
        if low != 0 {
            return hit(bw * 64 + low.trailing_zeros() as usize);
        }
        None
    }

    /// Smallest key in the occupied `slot` of level `lvl`, kept up to date
    /// by [`place`](Self::place).
    #[inline]
    fn slot_min(&self, lvl: usize, slot: usize) -> u128 {
        debug_assert!(self.heads[lvl][slot] != NIL, "slot is occupied");
        self.mins[lvl][slot]
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.front.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
        let (key, event) = self.front.pop().expect("advance filled the front");
        self.len -= 1;
        Some((unpack_time(key), event))
    }

    /// Routes an event relative to the *current* cursor: into the front
    /// buffer when its tick is due, into a wheel level or overflow
    /// otherwise. Assumes the front buffer is currently sorted.
    fn file(&mut self, key: u128, event: E) {
        let tick = key_tick(key);
        if tick <= self.cur_tick {
            let pos = self.front.partition_point(|&(k, _)| k > key);
            self.front.insert(pos, (key, event));
        } else {
            self.place(tick, key, event);
        }
    }

    /// Detaches `slot` of level `lvl` and re-files every event against the
    /// current cursor.
    fn cascade(&mut self, lvl: usize, slot: usize) {
        let mut h = self.detach(lvl, slot);
        while h != NIL {
            let (k, next, e) = self.take_node(h);
            self.counts[lvl] -= 1;
            h = next;
            self.file(k, e);
        }
    }

    /// Advances the cursor and eagerly cascades, at every upper level, the
    /// slot whose group window the cursor just entered.
    ///
    /// This maintains the invariant the slot scans rely on: each occupied
    /// slot of level `k` holds exactly one `tick >> (8k)` group, and the
    /// slot at the cursor's own position holds only the full-revolution
    /// group (circularly the farthest). Without the eager cascade, a group
    /// whose window the cursor entered could linger at circular distance
    /// 256 and be ordered after later groups.
    fn move_cursor(&mut self, new_tick: u64) {
        let old = self.cur_tick;
        if new_tick <= old {
            return;
        }
        self.cur_tick = new_tick;
        for lvl in 1..LEVELS {
            let shift = SLOT_BITS * lvl as u32;
            if new_tick >> shift == old >> shift || self.counts[lvl] == 0 {
                // Same group as before, or nothing filed at this level:
                // nothing can have come due here (and coarser levels only
                // move when this one does, so stop once the group matches).
                if new_tick >> shift == old >> shift {
                    break;
                }
                continue;
            }
            // Only the entered group's slot can hold newly-due events: any
            // other crossed group would have contained events earlier than
            // the jump target, contradicting the target being the minimum.
            let slot = ((new_tick >> shift) & SLOT_MASK) as usize;
            if self.occupied[lvl][slot / 64] & (1 << (slot % 64)) != 0 {
                self.cascade(lvl, slot);
            }
        }
    }

    /// Moves the cursor to the next pending tick and fills the front buffer
    /// with that tick's events, cascading upper-level slots on the way.
    /// Precondition: the front is empty and `len > 0`.
    fn advance(&mut self) {
        loop {
            // Pull overflow events that fit under the horizon. Every wheel
            // event was filed with `delta < HORIZON_TICKS` against an older
            // (smaller) cursor, so wheel keys are always below
            // `cur_tick + HORIZON_TICKS` — after this drain the remaining
            // overflow cannot precede anything in the wheels.
            while let Some(&(k, _)) = self.overflow.last() {
                if key_tick(k) >= self.cur_tick.saturating_add(HORIZON_TICKS) {
                    break;
                }
                let (k, e) = self.overflow.pop().expect("checked non-empty");
                self.place(key_tick(k), k, e);
            }

            // Fast path for the engine's steady state: everything pending
            // sits in level 0 (the just-drained overflow remainder is
            // beyond the horizon, so it cannot precede level 0). The slot
            // holds exactly one tick group, so any member's tick is the
            // cursor target, no cross-level min compare is needed, and no
            // upper-level cascade can fire.
            if self.counts[1] == 0 && self.counts[2] == 0 {
                if self.counts[0] == 0 {
                    let &(k, _) = self.overflow.last().expect("len > 0");
                    self.cur_tick = self.cur_tick.max(key_tick(k) - 1);
                    continue;
                }
                let start = (self.cur_tick & SLOT_MASK) as usize;
                let (slot, _) = self.next_occupied(0, start).expect("counts[0] > 0");
                let mut h = self.detach(0, slot);
                let mut first = true;
                while h != NIL {
                    let (k, next, e) = self.take_node(h);
                    if first {
                        self.cur_tick = self.cur_tick.max(key_tick(k));
                        first = false;
                    }
                    self.counts[0] -= 1;
                    h = next;
                    self.front.push((k, e));
                }
                self.front.sort_unstable_by_key(|&(k, _)| std::cmp::Reverse(k));
                return;
            }

            // The earliest pending event lives in the circularly-nearest
            // occupied slot of one of the levels; compare their minima
            // (upper levels can hold events already due for cascade).
            // Empty levels — the common case above level 0 — cost one
            // branch.
            let mut best: Option<(usize, usize, u128)> = None;
            for lvl in 0..LEVELS {
                if self.counts[lvl] == 0 {
                    continue;
                }
                let start = ((self.cur_tick >> (SLOT_BITS * lvl as u32)) & SLOT_MASK) as usize;
                if let Some((slot, _)) = self.next_occupied(lvl, start) {
                    let min = self.slot_min(lvl, slot);
                    if best.is_none_or(|(_, _, b)| min < b) {
                        best = Some((lvl, slot, min));
                    }
                }
            }

            match best {
                Some((0, slot, min)) => {
                    // Level-0 slots hold exactly one tick. Move the whole
                    // slot into the front buffer, earliest key last. The
                    // eager cascade may route same-tick stragglers from
                    // upper levels into the front first; the sort below
                    // covers both.
                    self.move_cursor(key_tick(min));
                    let mut h = self.detach(0, slot);
                    while h != NIL {
                        let (k, next, e) = self.take_node(h);
                        self.counts[0] -= 1;
                        h = next;
                        self.front.push((k, e));
                    }
                    self.front.sort_unstable_by_key(|&(k, _)| std::cmp::Reverse(k));
                    if !self.front.is_empty() {
                        return;
                    }
                }
                Some((lvl, slot, min)) => {
                    // Cascade: advance the cursor to just before the slot's
                    // earliest tick and re-file its events one level down.
                    self.move_cursor(key_tick(min) - 1);
                    self.cascade(lvl, slot);
                    if !self.front.is_empty() {
                        return;
                    }
                }
                None => {
                    // Wheels empty: jump the cursor to the overflow minimum
                    // and re-drain.
                    let &(k, _) = self.overflow.last().expect("len > 0");
                    self.move_cursor(key_tick(k) - 1);
                }
            }
        }
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(&(k, _)) = self.front.last() {
            return Some(unpack_time(k));
        }
        let mut best: Option<u128> = None;
        for lvl in 0..LEVELS {
            if self.counts[lvl] == 0 {
                continue;
            }
            let start = ((self.cur_tick >> (SLOT_BITS * lvl as u32)) & SLOT_MASK) as usize;
            if let Some((slot, _)) = self.next_occupied(lvl, start) {
                let min = self.slot_min(lvl, slot);
                if best.is_none_or(|b| min < b) {
                    best = Some(min);
                }
            }
        }
        // Unlike `advance` (which drains first), peek must compare the
        // overflow minimum directly: a wheel event filed against a newer
        // cursor can sit beyond an old overflow entry.
        if let Some(&(k, _)) = self.overflow.last() {
            if best.is_none_or(|b| k < b) {
                best = Some(k);
            }
        }
        best.map(unpack_time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events, keeping allocated slab capacity.
    pub fn clear(&mut self) {
        self.front.clear();
        self.nodes.clear();
        self.free = NIL;
        self.heads = [[NIL; SLOTS]; LEVELS];
        self.occupied = [[0; WORDS]; LEVELS];
        self.counts = [0; LEVELS];
        self.overflow.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaselineEventQueue, DetRng, SimDuration};

    #[test]
    fn pops_in_time_order() {
        let mut q = TimingWheel::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = TimingWheel::new();
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn schedule_at_current_tick_keeps_order() {
        let mut q = TimingWheel::new();
        q.schedule(SimTime::from_nanos(100), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        // Same tick as the popped event, later seq: still pops, after any
        // earlier same-time entries.
        q.schedule(SimTime::from_nanos(100), "b");
        q.schedule(SimTime::from_nanos(100), "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = TimingWheel::new();
        let far = SimTime::ZERO + SimDuration::from_secs(120);
        let farther = SimTime::ZERO + SimDuration::from_secs(240);
        q.schedule(far, "far");
        q.schedule(SimTime::from_nanos(50), "near");
        q.schedule(farther, "farther");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(50)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap(), (far, "far"));
        assert_eq!(q.pop().unwrap(), (farther, "farther"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cascade_preserves_order_across_level_boundaries() {
        // Straddle the level-0 horizon (256 ticks) and the level-1 horizon
        // (64Ki ticks) with events 1 tick apart on each side.
        let tick = 1u64 << TICK_BITS;
        let mut q = TimingWheel::new();
        let mut ats: Vec<u64> = Vec::new();
        for base in [255 * tick, 256 * tick, 65_535 * tick, 65_536 * tick] {
            for d in 0..4u64 {
                ats.push(base + d * (tick / 2));
            }
        }
        // Schedule in reverse so every pop must reorder.
        for &at in ats.iter().rev() {
            q.schedule(SimTime::from_nanos(at), at);
        }
        let mut popped = Vec::new();
        while let Some((_, v)) = q.pop() {
            popped.push(v);
        }
        let mut want = ats.clone();
        want.sort_unstable();
        assert_eq!(popped, want);
    }

    #[test]
    fn matches_baseline_on_random_interleavings() {
        for case in 0..32u64 {
            let mut rng = DetRng::new(0xA11E ^ case);
            let mut wheel: TimingWheel<u64> = TimingWheel::new();
            let mut slow: BaselineEventQueue<u64> = BaselineEventQueue::new();
            let mut now = 0u64;
            for step in 0..600u64 {
                if rng.next_f64() < 0.6 || wheel.is_empty() {
                    // Mix of same-instant ties, short horizons, cascade
                    // boundaries and far-future outliers.
                    let at = now
                        + match rng.range_u64(0, 10) {
                            0..=3 => rng.range_u64(0, 20),
                            4..=6 => rng.range_u64(0, 1 << 14),
                            7..=8 => rng.range_u64(0, 1 << 22),
                            _ => rng.range_u64(0, 1 << 40),
                        };
                    wheel.schedule(SimTime::from_nanos(at), step);
                    slow.schedule(SimTime::from_nanos(at), step);
                } else {
                    let got = wheel.pop();
                    assert_eq!(got, slow.pop(), "case {case} step {step}");
                    now = got.expect("non-empty").0.as_nanos();
                }
                assert_eq!(wheel.peek_time(), slow.peek_time(), "case {case} step {step}");
                assert_eq!(wheel.len(), slow.len());
            }
            while !wheel.is_empty() {
                assert_eq!(wheel.pop(), slow.pop(), "case {case} drain");
            }
            assert!(slow.is_empty());
        }
    }

    /// A wheel and the baseline heap driven in lockstep. Every operation
    /// checks the pop against the oracle, then `peek_time` and `len`.
    struct Lockstep {
        wheel: TimingWheel<(u64, u8)>,
        slow: BaselineEventQueue<(u64, u8)>,
        next_id: u64,
    }

    impl Lockstep {
        fn new() -> Self {
            Lockstep {
                wheel: TimingWheel::new(),
                slow: BaselineEventQueue::new(),
                next_id: 0,
            }
        }

        fn schedule(&mut self, at_ns: u64, kind: u8) {
            let e = (self.next_id, kind);
            self.next_id += 1;
            self.wheel.schedule(SimTime::from_nanos(at_ns), e);
            self.slow.schedule(SimTime::from_nanos(at_ns), e);
            self.check();
        }

        /// Pops the earliest event as `(time ns, kind)`.
        fn pop(&mut self) -> Option<(u64, u8)> {
            let got = self.wheel.pop();
            assert_eq!(got, self.slow.pop());
            self.check();
            got.map(|(at, (_, kind))| (at.as_nanos(), kind))
        }

        fn clear(&mut self) {
            self.wheel.clear();
            self.slow = BaselineEventQueue::new();
            self.check();
        }

        fn check(&self) {
            assert_eq!(
                self.wheel.peek_time(),
                self.slow.peek_time(),
                "after id {}",
                self.next_id
            );
            assert_eq!(self.wheel.len(), self.slow.len());
        }
    }

    /// Nanoseconds per tick.
    const TICK: u64 = 1 << TICK_BITS;
    /// Ticks per level-1 slot.
    const L1: u64 = 1 << SLOT_BITS;
    /// Ticks per level-2 slot.
    const L2: u64 = 1 << (2 * SLOT_BITS);

    #[test]
    fn fleet_pattern_matches_baseline() {
        // An open-loop fleet: 12,000 arrivals 100 µs apart, all scheduled up
        // front, so each level-2 slot holds ≈2,700 of them. Every arrival
        // starts a run with a 500 ms deadline (levels 1–2) and a chain of
        // short-horizon kernel completions.
        const ARRIVAL: u8 = 0;
        const KERNEL: u8 = 1;
        const DEADLINE: u8 = 2;
        let mut rng = DetRng::new(0xF1EE7);
        let mut q = Lockstep::new();
        for i in 0..12_000u64 {
            q.schedule(i * 100_000, ARRIVAL);
        }
        let mut popped = [0u64; 3];
        while let Some((now, kind)) = q.pop() {
            popped[kind as usize] += 1;
            match kind {
                ARRIVAL => {
                    q.schedule(now + 500_000_000, DEADLINE);
                    for _ in 0..rng.range_u64(1, 3) {
                        q.schedule(now + rng.range_u64(0, 1_000_000), KERNEL);
                    }
                }
                KERNEL if rng.next_f64() < 0.5 => {
                    q.schedule(now + rng.range_u64(2_000, 300_000), KERNEL);
                }
                _ => {}
            }
        }
        assert_eq!(popped[ARRIVAL as usize], 12_000);
        assert_eq!(popped[DEADLINE as usize], 12_000);
        assert!(popped[KERNEL as usize] > 20_000, "{popped:?}");
    }

    #[test]
    fn lower_key_into_occupied_upper_slot_becomes_its_minimum() {
        let mut q = Lockstep::new();
        // Level-1 slot 5: a late tick first, then an earlier one, then a tie
        // with the new minimum (same time, later seq: pops after it).
        q.schedule((5 * L1 + 200) * TICK, 1);
        q.schedule((5 * L1 + 10) * TICK + 7, 1);
        q.schedule((5 * L1 + 10) * TICK + 7, 1);
        assert_eq!(
            q.wheel.peek_time(),
            Some(SimTime::from_nanos((5 * L1 + 10) * TICK + 7))
        );
        // Level-2 slot 3 likewise, twice lowered.
        q.schedule((3 * L2 + 40_000) * TICK, 2);
        q.schedule((3 * L2 + 900) * TICK, 2);
        q.schedule((3 * L2 + 5) * TICK + 1, 2);
        // A level-0 event still comes first; then both upper slots drain in
        // key order through their cascades.
        q.schedule(3 * TICK, 0);
        let order: Vec<u8> = std::iter::from_fn(|| q.pop().map(|(_, k)| k)).collect();
        assert_eq!(order, vec![0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn refilled_slot_and_cleared_wheel_keep_no_stale_minimum() {
        let occupied = |q: &Lockstep, lvl: usize, slot: usize| q.wheel.heads[lvl][slot] != NIL;
        let mut q = Lockstep::new();
        // Level-1 slot 5 and level-2 slot 2 hold small keys; a level-2 slot
        // 3 event moves the cursor past both once popped.
        q.schedule((5 * L1 + 3) * TICK, 1);
        q.schedule((2 * L2 + 7) * TICK, 2);
        q.schedule((3 * L2 + 1) * TICK, 3);
        assert!(occupied(&q, 1, 5) && occupied(&q, 2, 2));
        // Each slot is emptied by a cascade as the cursor reaches it.
        assert_eq!(q.pop(), Some(((5 * L1 + 3) * TICK, 1)));
        assert_eq!(q.pop(), Some(((2 * L2 + 7) * TICK, 2)));
        assert_eq!(q.pop(), Some(((3 * L2 + 1) * TICK, 3)));
        assert!(!occupied(&q, 1, 5) && !occupied(&q, 2, 2));
        // Refill both with larger keys (level-1 group 3·256 + 5, level-2
        // group 256 + 2); a stale minimum would report the drained ones.
        q.schedule((3 * L2 + 5 * L1 + 50) * TICK, 4);
        q.schedule((258 * L2 + 11) * TICK, 5);
        assert!(occupied(&q, 1, 5) && occupied(&q, 2, 2));
        assert_eq!(q.pop(), Some(((3 * L2 + 5 * L1 + 50) * TICK, 4)));
        assert_eq!(q.pop(), Some(((258 * L2 + 11) * TICK, 5)));

        // The cursor sits in level-1 group 258·256 and level-2 group 258.
        // Fill level-1 slot 5 and level-2 slot 4 with small keys, clear,
        // then refill the same slots with larger ones.
        let l1 = 258 * L1 * L1 + 5 * L1;
        let l2 = 260 * L2;
        q.schedule((l1 + 3) * TICK, 6);
        q.schedule((l2 + 7) * TICK, 7);
        assert!(occupied(&q, 1, 5) && occupied(&q, 2, 4));
        q.clear();
        q.schedule((l1 + 200) * TICK, 8);
        q.schedule((l2 + 60_000) * TICK, 9);
        assert!(occupied(&q, 1, 5) && occupied(&q, 2, 4));
        assert_eq!(q.pop(), Some(((l1 + 200) * TICK, 8)));
        assert_eq!(q.pop(), Some(((l2 + 60_000) * TICK, 9)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clear_empties_and_reuses() {
        let mut q = TimingWheel::new();
        q.schedule(SimTime::from_nanos(1), 1);
        q.schedule(SimTime::ZERO + SimDuration::from_secs(100), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_nanos(9), 3);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(9), 3)));
    }
}
