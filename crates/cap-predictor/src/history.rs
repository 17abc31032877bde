//! Per-load address-history recording and the shift(m)-xor compression
//! scheme (paper §3.2).
//!
//! The paper's Load Buffer keeps, per static load, a history of the last
//! *N* (base) addresses. The history is compressed into a Link-Table index
//! by the **shift(m)-xor** scheme: fold each address in turn by shifting
//! the accumulator left `m` bits and xoring in the address's low bits
//! (excluding the last two, which only matter on unaligned accesses), then
//! truncate. The scheme "naturally ages past addresses": after enough
//! pushes an old address's bits are entirely shifted out.
//!
//! One ring implementation serves every history here: a [`History`] /
//! [`HistoryMut`] view pairs the ring's bookkeeping (oldest slot, count,
//! folded register) with the slots it lives in. A Load Buffer keeps every
//! way's slots in one flat arena (`length` per history), so filling,
//! evicting or dropping an entry never touches the heap; the standalone
//! [`HistoryBuffer`] is the same ring over its own storage.
//!
//! The folded value is one register that every push updates in O(1), as
//! hardware would: shift, xor in the newest address, xor out the address
//! that leaves the window. The ring also keeps the last `N` raw
//! addresses, which makes *history length* an exact, sweepable parameter
//! (Figure 9), lets variable-length predictors fold shorter suffixes
//! ([`History::fold_last`]), and is what snapshots and fault injection
//! see. Edits that bypass `push` (a corrupted bit, a restored snapshot)
//! mark the register stale; folds then recompute from the raw addresses
//! until the next push rebuilds it.

use cap_snapshot::{Restorable, SectionReader, SectionWriter, Snapshot, SnapshotError};

/// Parameters of the history compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistorySpec {
    /// Number of past addresses recorded (the paper sweeps 1–12; default 4).
    pub length: usize,
    /// Shift amount `m` of the shift(m)-xor scheme.
    pub shift: u32,
    /// Bits of the folded history used to index the Link Table.
    pub index_bits: u32,
    /// Extra folded-history bits stored as a Link-Table tag (§3.4); `0`
    /// disables tagging.
    pub tag_bits: u32,
}

impl HistorySpec {
    /// The paper's default configuration: history length 4, shift 3,
    /// 12 index bits (4K-entry LT), 8 tag bits.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            length: 4,
            shift: 3,
            index_bits: 12,
            tag_bits: 8,
        }
    }

    /// Total folded width (index + tag).
    #[must_use]
    pub fn width(&self) -> u32 {
        self.index_bits + self.tag_bits
    }

    /// Splits a folded accumulator of [`HistorySpec::width`] bits into
    /// Link-Table index and tag.
    #[must_use]
    pub fn split(&self, h: u64) -> FoldedHistory {
        FoldedHistory {
            index: h & ((1u64 << self.index_bits) - 1),
            tag: if self.tag_bits == 0 {
                0
            } else {
                (h >> self.index_bits) & ((1u64 << self.tag_bits) - 1)
            },
        }
    }

    fn mask(&self) -> u64 {
        (1u64 << self.width()) - 1
    }

    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero length, shift outside
    /// 1..=63, zero width, or width > 63).
    pub fn validate(&self) {
        assert!(self.length > 0, "history length must be positive");
        assert!(self.shift > 0, "shift amount must be positive");
        assert!(self.shift < 64, "shift amount must be below 64");
        assert!(self.width() > 0, "folded width must be positive");
        assert!(self.width() <= 63, "folded width must fit in u64");
    }
}

/// The folded history split into Link-Table index and tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FoldedHistory {
    /// Link-Table index bits.
    pub index: u64,
    /// Link-Table tag bits (0 when tagging is disabled).
    pub tag: u64,
}

/// Register value marking the fold as stale. Folded values are at most
/// 63 bits wide (see [`HistorySpec::validate`]), so it never collides.
const STALE: u64 = u64::MAX;

/// A ring's bookkeeping; its addresses live in a separate slot slice
/// whose length is the ring's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RingState {
    /// Slot of the oldest recorded address.
    head: u32,
    /// Recorded addresses (≤ capacity).
    len: u32,
    /// Fold of the recorded addresses under the push spec, or [`STALE`].
    folded: u64,
}

impl RingState {
    /// The state of `len` addresses written to slots `0..len` by a
    /// restore: the register is stale until the next push.
    pub(crate) fn restored(len: usize) -> Self {
        Self {
            head: 0,
            len: len as u32,
            folded: STALE,
        }
    }
}

/// A read-only view of one address history: its bookkeeping plus the
/// slots it lives in.
#[derive(Debug, Clone, Copy)]
pub struct History<'a> {
    state: &'a RingState,
    slots: &'a [u64],
}

/// A mutable view of one address history. The ring's capacity is its
/// slot count; every push keeps at most `spec.length` addresses, which
/// must not exceed it.
#[derive(Debug)]
pub struct HistoryMut<'a> {
    state: &'a mut RingState,
    slots: &'a mut [u64],
}

impl<'a> History<'a> {
    pub(crate) fn new(state: &'a RingState, slots: &'a [u64]) -> Self {
        debug_assert!(state.len as usize <= slots.len());
        Self { state, slots }
    }

    /// Number of recorded addresses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.len as usize
    }

    /// True when no addresses have been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.state.len == 0
    }

    /// True once the history holds `spec.length` addresses — predictions
    /// before that point would index the LT with a partial context.
    #[must_use]
    pub fn is_warm(&self, spec: &HistorySpec) -> bool {
        self.len() >= spec.length
    }

    /// True once at least `length` addresses are recorded.
    #[must_use]
    pub fn has_at_least(&self, length: usize) -> bool {
        self.len() >= length
    }

    /// The recorded addresses, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + 'a {
        let (state, slots) = (self.state, self.slots);
        (0..state.len as usize).map(move |i| slots[slot(state, slots.len(), i)])
    }

    /// The recorded addresses folded with the shift(m)-xor scheme, split
    /// into LT index and tag. O(1): reads the register, or refolds when
    /// it is stale. Always equal to `fold_last(spec, spec.length)`.
    #[must_use]
    pub fn fold(&self, spec: &HistorySpec) -> FoldedHistory {
        if self.state.folded == STALE {
            return self.fold_last(spec, spec.length);
        }
        spec.split(self.state.folded)
    }

    /// Folds only the most recent `length` recorded addresses — used by
    /// variable-history-length predictors that serve several context
    /// lengths from one buffer (retain at the longest, fold at each).
    ///
    /// Oldest address first, so the newest address's bits occupy the least
    /// shifted (freshest) position, as in the register `push` maintains.
    #[must_use]
    pub fn fold_last(&self, spec: &HistorySpec, length: usize) -> FoldedHistory {
        spec.split(self.fold_raw(spec, length))
    }

    fn fold_raw(&self, spec: &HistorySpec, length: usize) -> u64 {
        let mask = spec.mask();
        let mut h: u64 = 0;
        for a in self.iter().skip(self.len().saturating_sub(length)) {
            // All LSBs except the last two (alignment bits), per §3.2.
            h = ((h << spec.shift) ^ (a >> 2)) & mask;
        }
        h
    }

    /// Writes the snapshot encoding: the count, then the addresses oldest
    /// first.
    pub(crate) fn write_state(&self, w: &mut SectionWriter) {
        w.put_len(self.len());
        for a in self.iter() {
            w.put_u64(a);
        }
    }
}

/// Physical slot of the `i`-th oldest address.
fn slot(state: &RingState, cap: usize, i: usize) -> usize {
    let s = state.head as usize + i;
    if s >= cap { s - cap } else { s }
}

impl<'a> HistoryMut<'a> {
    pub(crate) fn new(state: &'a mut RingState, slots: &'a mut [u64]) -> Self {
        debug_assert!(state.len as usize <= slots.len());
        Self { state, slots }
    }

    fn view(&self) -> History<'_> {
        History::new(self.state, self.slots)
    }

    /// Records `addr` as the most recent address, keeping at most
    /// `spec.length` entries, and rolls the folded register forward.
    pub fn push(&mut self, addr: u64, spec: &HistorySpec) {
        let cap = self.slots.len();
        let len = self.state.len as usize;
        debug_assert!(spec.length <= cap, "history ring smaller than the spec");
        let tail = slot(self.state, cap, len);
        if self.state.folded == STALE {
            // A restored history may be longer than the spec: append
            // (over the oldest when the ring is full), trim, rebuild.
            if len == cap {
                self.slots[self.state.head as usize] = addr;
                self.advance_head();
            } else {
                self.slots[tail] = addr;
                self.state.len += 1;
            }
            while self.state.len as usize > spec.length {
                self.advance_head();
                self.state.len -= 1;
            }
            self.state.folded = self.view().fold_raw(spec, spec.length);
            return;
        }
        let mut h = (self.state.folded << spec.shift) ^ (addr >> 2);
        if len >= spec.length {
            // The oldest address leaves. It was pushed `length` pushes
            // ago, so its bits now sit at `shift * length` (or past bit
            // 63: gone). At full capacity `tail` is its slot.
            let old = self.slots[self.state.head as usize];
            let age = u32::try_from(spec.length)
                .ok()
                .and_then(|l| l.checked_mul(spec.shift));
            h ^= age.and_then(|s| (old >> 2).checked_shl(s)).unwrap_or(0);
            self.slots[tail] = addr;
            self.advance_head();
        } else {
            self.slots[tail] = addr;
            self.state.len += 1;
        }
        self.state.folded = h & spec.mask();
    }

    fn advance_head(&mut self) {
        let next = self.state.head as usize + 1;
        self.state.head = if next == self.slots.len() { 0 } else { next as u32 };
    }

    /// Flips one bit of a recorded address, modelling an upset in the
    /// history register (fault injection). `index` (counted from the
    /// oldest address) and `bit` are wrapped into range; returns `false`
    /// (and does nothing) when the history is empty. Every `u64` is a
    /// structurally valid address, so the history's only invariant —
    /// length ≤ `spec.length` — is untouched.
    pub fn corrupt_bit(&mut self, index: usize, bit: u32) -> bool {
        let len = self.state.len as usize;
        if len == 0 {
            return false;
        }
        let s = slot(self.state, self.slots.len(), index % len);
        self.slots[s] ^= 1u64 << (bit % 64);
        self.state.folded = STALE;
        true
    }

    /// Clears the history (used when repairing speculative state).
    pub fn clear(&mut self) {
        *self.state = RingState::default();
    }

    /// Copies another history's contents into this one (state repair): a
    /// slice copy when both rings have the same capacity, else the window
    /// is laid out oldest-first from slot 0.
    ///
    /// # Panics
    ///
    /// Panics if `other` holds more addresses than this ring has slots.
    pub fn copy_from(&mut self, other: History<'_>) {
        if self.slots.len() == other.slots.len() {
            self.slots.copy_from_slice(other.slots);
            *self.state = *other.state;
            return;
        }
        assert!(other.len() <= self.slots.len(), "history does not fit the ring");
        for (dst, a) in self.slots.iter_mut().zip(other.iter()) {
            *dst = a;
        }
        *self.state = RingState {
            head: 0,
            ..*other.state
        };
    }
}

/// A standalone address history: the ring over its own storage, grown to
/// the spec's length on the first push. Used where a history lives
/// outside a Load Buffer (tests, [`crate::cap::CapPredictor::predict_ahead`]'s
/// scratch walk).
///
/// The register follows the spec passed to [`HistoryBuffer::push`]; a
/// buffer is pushed and folded with one spec throughout (every predictor
/// here holds one spec per buffer).
#[derive(Debug, Clone, Default)]
pub struct HistoryBuffer {
    slots: Vec<u64>,
    state: RingState,
}

/// Equality is over the recorded addresses; the layout and register are
/// derived.
impl PartialEq for HistoryBuffer {
    fn eq(&self, other: &Self) -> bool {
        self.view().iter().eq(other.view().iter())
    }
}

impl Eq for HistoryBuffer {}

impl From<History<'_>> for HistoryBuffer {
    fn from(h: History<'_>) -> Self {
        Self {
            slots: h.slots.to_vec(),
            state: *h.state,
        }
    }
}

impl HistoryBuffer {
    /// Creates an empty history.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A read-only view of the ring.
    #[must_use]
    pub fn view(&self) -> History<'_> {
        History::new(&self.state, &self.slots)
    }

    fn view_mut(&mut self) -> HistoryMut<'_> {
        HistoryMut::new(&mut self.state, &mut self.slots)
    }

    /// Records `addr` as the most recent address, keeping at most
    /// `spec.length` entries, and rolls the folded register forward.
    pub fn push(&mut self, addr: u64, spec: &HistorySpec) {
        if self.slots.len() < spec.length {
            // Re-lay the window oldest-first into `spec.length` slots.
            let mut slots: Vec<u64> = self.view().iter().collect();
            slots.resize(spec.length, 0);
            self.slots = slots;
            self.state.head = 0;
        }
        self.view_mut().push(addr, spec);
    }

    /// Number of recorded addresses (≤ `spec.length`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// True when no addresses have been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.view().is_empty()
    }

    /// See [`History::is_warm`].
    #[must_use]
    pub fn is_warm(&self, spec: &HistorySpec) -> bool {
        self.view().is_warm(spec)
    }

    /// See [`History::fold`].
    #[must_use]
    pub fn fold(&self, spec: &HistorySpec) -> FoldedHistory {
        self.view().fold(spec)
    }

    /// See [`History::fold_last`].
    #[must_use]
    pub fn fold_last(&self, spec: &HistorySpec, length: usize) -> FoldedHistory {
        self.view().fold_last(spec, length)
    }

    /// See [`History::has_at_least`].
    #[must_use]
    pub fn has_at_least(&self, length: usize) -> bool {
        self.view().has_at_least(length)
    }

    /// See [`HistoryMut::corrupt_bit`].
    pub fn corrupt_bit(&mut self, slot: usize, bit: u32) -> bool {
        self.view_mut().corrupt_bit(slot, bit)
    }

    /// Clears the history.
    pub fn clear(&mut self) {
        self.view_mut().clear();
    }

    /// Copies another history's contents into this one: a slice copy of
    /// its storage.
    pub fn copy_from(&mut self, other: &HistoryBuffer) {
        self.slots.clone_from(&other.slots);
        self.state = other.state;
    }
}

impl Snapshot for HistorySpec {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_len(self.length);
        w.put_u32(self.shift);
        w.put_u32(self.index_bits);
        w.put_u32(self.tag_bits);
    }
}

impl Restorable for HistorySpec {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let length = r.take_u64("history length")?;
        let shift = r.take_u32("history shift")?;
        let index_bits = r.take_u32("history index bits")?;
        let tag_bits = r.take_u32("history tag bits")?;
        // Mirror HistorySpec::validate without its panics, plus a sanity
        // ceiling on length so hostile specs can't demand huge buffers.
        if length == 0 || length > 1 << 16 {
            return Err(r.bad_value(format!("history length {length} outside 1..=65536")));
        }
        if shift == 0 || shift > 63 {
            return Err(r.bad_value(format!("history shift {shift} outside 1..=63")));
        }
        let width = index_bits.checked_add(tag_bits);
        if !matches!(width, Some(1..=63)) {
            return Err(r.bad_value(format!(
                "folded width index {index_bits} + tag {tag_bits} outside 1..=63"
            )));
        }
        Ok(Self {
            length: length as usize,
            shift,
            index_bits,
            tag_bits,
        })
    }
}

impl Snapshot for HistoryBuffer {
    fn write_state(&self, w: &mut SectionWriter) {
        self.view().write_state(w);
    }
}

impl Restorable for HistoryBuffer {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_len(8, "history address count")?;
        let mut slots = Vec::with_capacity(len);
        for _ in 0..len {
            slots.push(r.take_u64("history address")?);
        }
        // The spec is not part of the payload; the next push refolds.
        Ok(Self {
            slots,
            state: RingState::restored(len),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(length: usize) -> HistorySpec {
        HistorySpec {
            length,
            shift: 3,
            index_bits: 12,
            tag_bits: 8,
        }
    }

    #[test]
    fn paper_default_is_valid() {
        HistorySpec::paper_default().validate();
        assert_eq!(HistorySpec::paper_default().width(), 20);
    }

    #[test]
    fn push_keeps_at_most_length() {
        let s = spec(3);
        let mut h = HistoryBuffer::new();
        for a in 0..10u64 {
            h.push(a << 4, &s);
        }
        assert_eq!(h.len(), 3);
        assert!(h.is_warm(&s));
    }

    #[test]
    fn fold_depends_on_every_recorded_address() {
        let s = spec(3);
        let mut h1 = HistoryBuffer::new();
        let mut h2 = HistoryBuffer::new();
        for a in [0x100u64, 0x200, 0x300] {
            h1.push(a, &s);
        }
        for a in [0x104u64, 0x200, 0x300] {
            h2.push(a, &s);
        }
        assert_ne!(h1.fold(&s), h2.fold(&s), "oldest address must still matter");
    }

    #[test]
    fn fold_ignores_alignment_bits() {
        let s = spec(2);
        let mut h1 = HistoryBuffer::new();
        let mut h2 = HistoryBuffer::new();
        h1.push(0x100, &s);
        h1.push(0x200, &s);
        // Differ only in the low 2 bits.
        h2.push(0x101, &s);
        h2.push(0x202, &s);
        assert_eq!(h1.fold(&s), h2.fold(&s));
    }

    #[test]
    fn different_order_folds_differently() {
        let s = spec(2);
        let mut h1 = HistoryBuffer::new();
        let mut h2 = HistoryBuffer::new();
        h1.push(0x100, &s);
        h1.push(0x200, &s);
        h2.push(0x200, &s);
        h2.push(0x100, &s);
        assert_ne!(h1.fold(&s), h2.fold(&s), "shift-xor must be order-sensitive");
    }

    #[test]
    fn old_addresses_age_out_of_window() {
        let s = spec(2);
        let mut h1 = HistoryBuffer::new();
        let mut h2 = HistoryBuffer::new();
        // Same last 2 addresses, different older prefix.
        for a in [0xAAAA0u64, 0x100, 0x200] {
            h1.push(a, &s);
        }
        for a in [0xBBBB0u64, 0x100, 0x200] {
            h2.push(a, &s);
        }
        assert_eq!(h1.fold(&s), h2.fold(&s), "length-2 history keeps only 2");
    }

    #[test]
    fn index_and_tag_partition_folded_value() {
        let s = spec(4);
        let mut h = HistoryBuffer::new();
        for a in [0x1234u64, 0x5678, 0x9ABC, 0xDEF0] {
            h.push(a, &s);
        }
        let f = h.fold(&s);
        assert!(f.index < (1 << 12));
        assert!(f.tag < (1 << 8));
    }

    #[test]
    fn zero_tag_bits_yields_zero_tag() {
        let s = HistorySpec {
            tag_bits: 0,
            ..spec(4)
        };
        let mut h = HistoryBuffer::new();
        h.push(0xFFFF_FFFF, &s);
        assert_eq!(h.fold(&s).tag, 0);
    }

    #[test]
    fn copy_from_replicates_state() {
        let s = spec(3);
        let mut a = HistoryBuffer::new();
        for x in [1u64 << 4, 2 << 4, 3 << 4] {
            a.push(x, &s);
        }
        let mut b = HistoryBuffer::new();
        b.push(0xDEAD0, &s);
        b.copy_from(&a);
        assert_eq!(a, b);
        assert_eq!(a.fold(&s), b.fold(&s));
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_length_rejected() {
        HistorySpec {
            length: 0,
            ..spec(1)
        }
        .validate();
    }
}
