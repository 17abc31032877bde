//! Per-cycle resource capacity tracking for the timestamp-based core.
//!
//! The timing model assigns each instruction timestamps (fetch, dispatch,
//! issue, complete, commit) subject to structural limits: fetch width,
//! dispatch width, functional units, cache ports, commit width. Both
//! trackers here answer "what is the first cycle at or after `t` with a
//! free slot?" and book it. [`SlotTracker`] serves requests in any order
//! (issue to the ALUs and cache ports); [`InOrderSlots`] serves the
//! in-order stages (fetch, dispatch, commit), whose requests never go
//! backwards, in O(1) with no window at all.

/// One cycle of a [`SlotTracker`] window.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Bookings in this cycle.
    used: u32,
    /// `0` while the cycle has room. Once it is full, a forward distance
    /// to a later cycle no further than the first one with room; every
    /// cycle it jumps over is full.
    skip: u32,
}

/// Books up to `width` events per cycle.
///
/// Bookings live in a dense window that starts at the frontier: entry
/// `i` is cycle `frontier + i`, and cycles past the end of the window
/// are empty. Full cycles carry path-compressed skip pointers towards
/// the next cycle with room, so a request that lands on a run of full
/// cycles jumps over it in amortised O(1) instead of probing each one.
/// Memory is proportional to the span between the frontier and the
/// highest booking, which the core keeps short by retiring regularly.
///
/// # Examples
///
/// ```
/// use cap_uarch::capacity::SlotTracker;
/// let mut ports = SlotTracker::new(2);
/// assert_eq!(ports.alloc(10), 10);
/// assert_eq!(ports.alloc(10), 10);
/// assert_eq!(ports.alloc(10), 11, "third access spills to the next cycle");
/// ```
#[derive(Debug, Clone)]
pub struct SlotTracker {
    width: u32,
    /// Cycles below this bound can no longer be requested (program order
    /// guarantees monotone dispatch); requests below it are floored to it.
    frontier: u64,
    /// `window[i]` holds the bookings of cycle `frontier + i`.
    window: Vec<Slot>,
}

impl SlotTracker {
    /// Creates a tracker with `width` slots per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!(width > 0, "width must be positive");
        Self {
            width,
            frontier: 0,
            window: Vec::new(),
        }
    }

    /// Books one slot at the first cycle `>= max(at, frontier)` with spare
    /// capacity and returns that cycle.
    ///
    /// # Panics
    ///
    /// Panics if the cycle lies beyond the host's address space above the
    /// frontier.
    pub fn alloc(&mut self, at: u64) -> u64 {
        let start = usize::try_from(at.saturating_sub(self.frontier))
            .expect("slot booking offset exceeds the address space");
        let i = self.first_with_room(start);
        if i >= self.window.len() {
            self.window.resize(i + 1, Slot::default());
        }
        let slot = &mut self.window[i];
        slot.used += 1;
        if slot.used == self.width {
            slot.skip = 1;
        }
        self.frontier + i as u64
    }

    /// Index of the first cycle at or after window index `start` with
    /// room, compressing the skip path walked to get there.
    fn first_with_room(&mut self, start: usize) -> usize {
        let mut free = start;
        while let Some(slot) = self.window.get(free).filter(|s| s.skip != 0) {
            free += slot.skip as usize;
        }
        let mut i = start;
        while i < free {
            let slot = &mut self.window[i];
            let next = i + slot.skip as usize;
            // A shorter jump is still sound: it lands on a full cycle.
            slot.skip = u32::try_from(free - i).unwrap_or(u32::MAX);
            i = next;
        }
        free
    }

    /// Declares that no future request will target a cycle below `bound`,
    /// discarding the bookings there.
    pub fn retire_below(&mut self, bound: u64) {
        if bound > self.frontier {
            let stale = usize::try_from(bound - self.frontier)
                .map_or(self.window.len(), |n| n.min(self.window.len()));
            self.window.drain(..stale);
            self.frontier = bound;
        }
    }

    /// The tracker's per-cycle width.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }
}

/// Books up to `width` events per cycle for a stream whose requests,
/// once floored to the frontier, never decrease.
///
/// First-fit on such a stream leaves every cycle between the latest
/// request and the latest booking full, so the only booking that can
/// still take an event is the latest one: the state is that cycle and
/// its use count. Every call returns exactly what a [`SlotTracker`] fed
/// the same stream would, in O(1). Debug builds assert that requests do
/// not go backwards.
///
/// # Examples
///
/// ```
/// use cap_uarch::capacity::InOrderSlots;
/// let mut commit = InOrderSlots::new(2);
/// assert_eq!(commit.alloc(10), 10);
/// assert_eq!(commit.alloc(10), 10);
/// assert_eq!(commit.alloc(10), 11, "third commit spills to the next cycle");
/// assert_eq!(commit.alloc(20), 20);
/// ```
#[derive(Debug, Clone)]
pub struct InOrderSlots {
    width: u32,
    /// Requests below this bound are floored to it.
    frontier: u64,
    /// The latest booked cycle; meaningless while `used == 0`.
    last: u64,
    /// Bookings in `last`; `0` once nothing at or above the frontier is
    /// booked.
    used: u32,
    /// The latest floored request, to catch out-of-order use.
    #[cfg(debug_assertions)]
    request: u64,
}

impl InOrderSlots {
    /// Creates a tracker with `width` slots per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!(width > 0, "width must be positive");
        Self::with_booking(width, 0, 0, 0)
    }

    fn with_booking(width: u32, frontier: u64, last: u64, used: u32) -> Self {
        Self {
            width,
            frontier,
            last,
            used,
            #[cfg(debug_assertions)]
            request: frontier,
        }
    }

    /// Books one slot at the first cycle `>= max(at, frontier)` with spare
    /// capacity and returns that cycle.
    pub fn alloc(&mut self, at: u64) -> u64 {
        let at = at.max(self.frontier);
        #[cfg(debug_assertions)]
        {
            assert!(
                at >= self.request,
                "in-order request {at} below the previous request {}",
                self.request
            );
            self.request = at;
        }
        if self.used == 0 || at > self.last {
            self.last = at;
            self.used = 1;
        } else if self.used < self.width {
            self.used += 1;
        } else {
            self.last += 1;
            self.used = 1;
        }
        self.last
    }

    /// Declares that no future request will target a cycle below `bound`,
    /// discarding the bookings there.
    pub fn retire_below(&mut self, bound: u64) {
        if bound > self.frontier {
            self.frontier = bound;
            if bound > self.last {
                self.used = 0;
            }
        }
    }
}

use cap_snapshot::{Restorable, SectionReader, SectionWriter, Snapshot, SnapshotError};

/// A restored booking may sit at most this many cycles above the
/// frontier; anything further is a corrupt payload, not a window to
/// allocate.
const MAX_SPAN: u64 = 1 << 24;

/// Both trackers share one section layout: `width, frontier, count`, then
/// `count` ascending `(cycle, used)` bookings.
fn write_bookings(
    w: &mut SectionWriter,
    width: u32,
    frontier: u64,
    bookings: impl Iterator<Item = (u64, u32)> + Clone,
) {
    w.put_u32(width);
    w.put_u64(frontier);
    w.put_len(bookings.clone().count());
    for (cycle, used) in bookings {
        w.put_u64(cycle);
        w.put_u32(used);
    }
}

/// The shared layout, decoded and validated.
struct Decoded {
    width: u32,
    frontier: u64,
    /// Bookings at or above the frontier, ascending, as `(offset from
    /// frontier, used)`.
    bookings: Vec<(usize, u32)>,
}

fn read_bookings(r: &mut SectionReader<'_>) -> Result<Decoded, SnapshotError> {
    let width = r.take_u32("slot tracker width")?;
    if width == 0 {
        return Err(r.bad_value("slot tracker width is zero".to_string()));
    }
    let frontier = r.take_u64("slot tracker frontier")?;
    let len = r.take_len(12, "slot tracker booking count")?;
    let mut bookings = Vec::with_capacity(len);
    let mut previous = None;
    for _ in 0..len {
        let cycle = r.take_u64("slot tracker cycle")?;
        let used = r.take_u32("slot tracker booking")?;
        if previous.is_some_and(|p| cycle <= p) {
            return Err(r.bad_value(format!(
                "slot tracker cycle {cycle} not above the previous booking"
            )));
        }
        previous = Some(cycle);
        if used == 0 || used > width {
            return Err(r.bad_value(format!(
                "slot tracker books {used} slots in a {width}-wide cycle"
            )));
        }
        // Older encodings kept bookings below the frontier until a
        // prune; no request can reach them, so they are dropped.
        let Some(offset) = cycle.checked_sub(frontier) else {
            continue;
        };
        if offset >= MAX_SPAN {
            return Err(SnapshotError::WidthOverflow {
                section: r.section().to_string(),
                what: "slot tracker booking span",
                value: offset,
                limit: MAX_SPAN,
            });
        }
        bookings.push((offset as usize, used));
    }
    Ok(Decoded {
        width,
        frontier,
        bookings,
    })
}

impl Snapshot for SlotTracker {
    fn write_state(&self, w: &mut SectionWriter) {
        let booked = (self.frontier..)
            .zip(&self.window)
            .filter(|(_, slot)| slot.used > 0)
            .map(|(cycle, slot)| (cycle, slot.used));
        write_bookings(w, self.width, self.frontier, booked);
    }
}

impl Restorable for SlotTracker {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let Decoded {
            width,
            frontier,
            bookings,
        } = read_bookings(r)?;
        let mut window = Vec::new();
        for (offset, used) in bookings {
            // Ascending cycles: this one lies at or past the window's end.
            window.resize(offset, Slot::default());
            window.push(Slot {
                used,
                skip: u32::from(used == width),
            });
        }
        Ok(Self {
            width,
            frontier,
            window,
        })
    }
}

impl Snapshot for InOrderSlots {
    fn write_state(&self, w: &mut SectionWriter) {
        let booked = (self.used > 0).then_some((self.last, self.used));
        write_bookings(w, self.width, self.frontier, booked.into_iter());
    }
}

impl Restorable for InOrderSlots {
    /// Also accepts a [`SlotTracker`] payload with several bookings (the
    /// encoding these stages had before they became cursors): of a
    /// monotone stream's bookings only the highest can still take an
    /// event, so it alone is kept.
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let d = read_bookings(r)?;
        let (offset, used) = d.bookings.last().copied().unwrap_or((0, 0));
        let last = d.frontier + offset as u64;
        Ok(Self::with_booking(d.width, d.frontier, last, used))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialises_beyond_width() {
        let mut t = SlotTracker::new(3);
        let cycles: Vec<u64> = (0..7).map(|_| t.alloc(5)).collect();
        assert_eq!(cycles, vec![5, 5, 5, 6, 6, 6, 7]);
    }

    #[test]
    fn later_requests_unaffected_by_earlier_bookings() {
        let mut t = SlotTracker::new(1);
        assert_eq!(t.alloc(3), 3);
        assert_eq!(t.alloc(10), 10);
        assert_eq!(t.alloc(3), 4);
    }

    #[test]
    fn frontier_floors_requests() {
        let mut t = SlotTracker::new(1);
        t.retire_below(100);
        assert_eq!(t.alloc(5), 100);
    }

    #[test]
    fn pruning_preserves_behaviour_above_frontier() {
        let mut t = SlotTracker::new(1);
        for i in 0..70_000 {
            t.alloc(i);
        }
        t.alloc(2_000_000);
        t.retire_below(1_000_000);
        assert_eq!(t.alloc(2_000_000), 2_000_001, "booking above frontier kept");
    }

    #[test]
    fn retiring_past_every_booking_empties_the_window() {
        let mut t = SlotTracker::new(2);
        t.alloc(7);
        t.retire_below(u64::MAX);
        assert!(t.window.is_empty());
        assert_eq!(t.alloc(0), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let _ = SlotTracker::new(0);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn in_order_zero_width_rejected() {
        let _ = InOrderSlots::new(0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below the previous request")]
    fn in_order_slots_reject_a_request_going_backwards() {
        let mut t = InOrderSlots::new(2);
        t.alloc(10);
        t.alloc(9);
    }
}
