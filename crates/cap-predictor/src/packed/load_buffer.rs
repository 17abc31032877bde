//! Bit-packed Load Buffer: one flat allocation, fields at the paper's
//! widths, and **incrementally maintained** folded history registers.
//!
//! Behaviour is bit-identical to [`crate::load_buffer::LoadBuffer`] as
//! driven by the CAP/stride/hybrid components — the differential suite in
//! `tests/packed_differential.rs` enforces this across every generator
//! family. Two representation differences are invisible at that boundary:
//!
//! * Histories store only bits `2..2+width` of each address — the only
//!   bits the shift(m)-xor fold can ever observe (§3.2 drops the two
//!   alignment bits; the fold masks to `index_bits + tag_bits`). The
//!   fold itself lives in a packed register updated on push (shift, xor
//!   in the newest slot, xor out the evicted slot's aged contribution),
//!   as in the legacy `HistoryBuffer`.
//! * Saturating counters pack only their *value*; threshold, max and
//!   hysteresis are table-level constants (the prototype counters), as
//!   in hardware.

use crate::confidence::{ControlFlowIndication, SaturatingCounter};
use crate::history::{FoldedHistory, HistorySpec};
use crate::load_buffer::{IntervalCounter, LbEntryProto, LoadBufferConfig, StrideState};
use crate::packed::bits::{bits_for, BitTable, Field};

/// Which history register of an entry an operation addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistHalf {
    /// The architectural history (pushed at update time).
    Arch,
    /// The speculative history (rolled forward at predict time).
    Spec,
}

/// Packed layout of one history register: occupancy count, ring head,
/// the incrementally folded register, and `length` raw slots of
/// `width` bits each.
#[derive(Debug, Clone, Copy)]
struct HistLayout {
    count: Field,
    head: Field,
    fold: Field,
    /// Offset of slot 0; slots are `fold.w` bits wide, `length` of them.
    slot0: u32,
}

impl HistLayout {
    fn take(cursor: &mut u32, spec: &HistorySpec) -> Self {
        let count = Field::take(cursor, bits_for(spec.length as u64));
        let head = Field::take(cursor, bits_for(spec.length.saturating_sub(1) as u64));
        let fold = Field::take(cursor, spec.width());
        let slot0 = *cursor;
        *cursor += spec.width() * spec.length as u32;
        Self {
            count,
            head,
            fold,
            slot0,
        }
    }

    fn slot(&self, k: usize) -> Field {
        Field {
            off: self.slot0 + self.fold.w * k as u32,
            w: self.fold.w,
        }
    }
}

/// Field offsets of one packed LB entry (computed once per table from the
/// history spec, offset width, and counter ceilings).
#[derive(Debug, Clone, Copy)]
struct LbLayout {
    present: Field,
    tag: Field,
    offset_lsb: Field,
    cap_conf: Field,
    stride_conf: Field,
    // CFI state is packed at full width: fault injection stores raw
    // 64-bit patterns/path bits and `allows` masks on read, so narrowing
    // here would diverge from the legacy structs under chaos testing.
    cap_cfi_has: Field,
    cap_cfi_pat: Field,
    cap_cfi_path: Field,
    cap_cfi_init: Field,
    stride_cfi_has: Field,
    stride_cfi_pat: Field,
    stride_cfi_path: Field,
    stride_cfi_init: Field,
    stride_seen: Field,
    last_addr: Field,
    stride: Field,
    stride_state: Field,
    int_learned: Field,
    int_run: Field,
    selector: Field,
    lru: Field,
    hist: HistLayout,
    spec_hist: HistLayout,
    bits: u32,
}

impl LbLayout {
    fn new(spec: &HistorySpec, offset_bits: u32, proto: &LbEntryProto) -> Self {
        let mut c = 0u32;
        let present = Field::take(&mut c, 1);
        let tag = Field::take(&mut c, 64);
        let offset_lsb = Field::take(&mut c, offset_bits);
        let cap_conf = Field::take(&mut c, bits_for(u64::from(proto.cap_conf.max())));
        let stride_conf = Field::take(&mut c, bits_for(u64::from(proto.stride_conf.max())));
        let cap_cfi_has = Field::take(&mut c, 1);
        let cap_cfi_pat = Field::take(&mut c, 64);
        let cap_cfi_path = Field::take(&mut c, 64);
        let cap_cfi_init = Field::take(&mut c, 1);
        let stride_cfi_has = Field::take(&mut c, 1);
        let stride_cfi_pat = Field::take(&mut c, 64);
        let stride_cfi_path = Field::take(&mut c, 64);
        let stride_cfi_init = Field::take(&mut c, 1);
        let stride_seen = Field::take(&mut c, 1);
        let last_addr = Field::take(&mut c, 64);
        let stride = Field::take(&mut c, 64);
        let stride_state = Field::take(&mut c, 2);
        let int_learned = Field::take(&mut c, 32);
        let int_run = Field::take(&mut c, 32);
        let selector = Field::take(&mut c, 2);
        let lru = Field::take(&mut c, 64);
        let hist = HistLayout::take(&mut c, spec);
        let spec_hist = HistLayout::take(&mut c, spec);
        Self {
            present,
            tag,
            offset_lsb,
            cap_conf,
            stride_conf,
            cap_cfi_has,
            cap_cfi_pat,
            cap_cfi_path,
            cap_cfi_init,
            stride_cfi_has,
            stride_cfi_pat,
            stride_cfi_path,
            stride_cfi_init,
            stride_seen,
            last_addr,
            stride,
            stride_state,
            int_learned,
            int_run,
            selector,
            lru,
            hist,
            spec_hist,
            bits: c,
        }
    }
}

/// The bit-packed Load Buffer.
#[derive(Debug, Clone)]
pub struct PackedLoadBuffer {
    config: LoadBufferConfig,
    proto: LbEntryProto,
    spec: HistorySpec,
    offset_bits: u32,
    layout: LbLayout,
    table: BitTable,
    tick: u64,
}

impl PackedLoadBuffer {
    /// Creates an empty packed Load Buffer.
    ///
    /// # Panics
    ///
    /// Panics if the geometry or history spec is invalid (same rules as
    /// the legacy structures).
    #[must_use]
    pub fn new(
        config: LoadBufferConfig,
        proto: LbEntryProto,
        spec: HistorySpec,
        offset_bits: u32,
    ) -> Self {
        spec.validate();
        assert!(offset_bits <= 31, "offset LSB width must fit a u32 shift");
        let layout = LbLayout::new(&spec, offset_bits, &proto);
        // LoadBufferConfig::validate is private; LoadBuffer::new performs
        // it. Constructing a throwaway legacy buffer would allocate, so
        // mirror the checks here.
        assert!(config.entries.is_power_of_two(), "LB entries must be a power of two");
        assert!(config.assoc >= 1, "associativity must be at least 1");
        assert!(
            config.entries.is_multiple_of(config.assoc) && config.sets().is_power_of_two(),
            "LB sets must be a power of two"
        );
        Self {
            table: BitTable::new(config.entries, layout.bits),
            config,
            proto,
            spec,
            offset_bits,
            layout,
            tick: 0,
        }
    }

    /// The buffer's geometry.
    #[must_use]
    pub fn config(&self) -> &LoadBufferConfig {
        &self.config
    }

    /// The prototype counters cloned into fresh entries.
    #[must_use]
    pub fn proto(&self) -> &LbEntryProto {
        &self.proto
    }

    /// The history spec the packed registers are sized for.
    #[must_use]
    pub fn history_spec(&self) -> &HistorySpec {
        &self.spec
    }

    /// The packed offset-LSB field width.
    #[must_use]
    pub fn offset_bits(&self) -> u32 {
        self.offset_bits
    }

    /// Bits one packed entry occupies (diagnostics / DESIGN.md budgets).
    #[must_use]
    pub fn entry_bits(&self) -> u32 {
        self.layout.bits
    }

    /// Current LRU tick (snapshot support).
    #[must_use]
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Overwrites the LRU tick (snapshot restore).
    pub fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    #[inline(always)]
    fn set_index(&self, ip: u64) -> usize {
        ((ip >> 2) as usize) & (self.config.sets() - 1)
    }

    /// Entry index of `ip` on a hit, bumping tick + LRU exactly like
    /// [`crate::load_buffer::LoadBuffer::lookup`] (hit-only tick).
    #[inline]
    pub fn find(&mut self, ip: u64) -> Option<usize> {
        let base = self.set_index(ip) * self.config.assoc;
        for way in 0..self.config.assoc {
            let idx = base + way;
            if self.present(idx) && self.tag(idx) == ip {
                self.tick += 1;
                self.table.set(idx, self.layout.lru, self.tick);
                return Some(idx);
            }
        }
        None
    }

    /// Pure lookup: no tick, no LRU refresh.
    #[must_use]
    pub fn peek(&self, ip: u64) -> Option<usize> {
        let base = self.set_index(ip) * self.config.assoc;
        (0..self.config.assoc)
            .map(|way| base + way)
            .find(|&idx| self.present(idx) && self.tag(idx) == ip)
    }

    /// Entry index of `ip`, allocating (evicting LRU) on miss; mirrors
    /// [`crate::load_buffer::LoadBuffer::lookup_or_insert`] exactly,
    /// including the unconditional tick advance.
    pub fn find_or_insert(&mut self, ip: u64) -> (usize, bool) {
        self.tick += 1;
        let tick = self.tick;
        let base = self.set_index(ip) * self.config.assoc;
        let mut hit = None;
        for way in 0..self.config.assoc {
            let idx = base + way;
            if self.present(idx) && self.tag(idx) == ip {
                hit = Some(idx);
                break;
            }
        }
        let (idx, fresh) = match hit {
            Some(idx) => (idx, false),
            None => {
                let mut victim = None;
                for way in 0..self.config.assoc {
                    let idx = base + way;
                    if !self.present(idx) {
                        victim = Some(idx);
                        break;
                    }
                }
                let idx = victim.unwrap_or_else(|| {
                    let mut best = (base, u64::MAX);
                    for way in 0..self.config.assoc {
                        let idx = base + way;
                        let lru = self.table.get(idx, self.layout.lru);
                        if lru < best.1 {
                            best = (idx, lru);
                        }
                    }
                    best.0
                });
                self.init_entry(idx, ip, tick);
                (idx, true)
            }
        };
        self.table.set(idx, self.layout.lru, tick);
        (idx, fresh)
    }

    /// Resets entry `idx` to a fresh entry for `ip` — the packed analogue
    /// of `LbEntry::new`.
    fn init_entry(&mut self, idx: usize, ip: u64, lru: u64) {
        self.table.clear_entry(idx);
        let l = self.layout;
        self.table.set(idx, l.present, 1);
        self.table.set(idx, l.tag, ip);
        self.table
            .set(idx, l.cap_conf, u64::from(self.proto.cap_conf.value()));
        self.table
            .set(idx, l.stride_conf, u64::from(self.proto.stride_conf.value()));
        // ControlFlowIndication::new(): no bad pattern, all paths allowed.
        self.set_cap_cfi(idx, ControlFlowIndication::new());
        self.set_stride_cfi(idx, ControlFlowIndication::new());
        self.table.set(idx, l.selector, 2);
        self.table.set(idx, l.lru, lru);
    }

    // ---- per-field accessors -------------------------------------------

    /// Whether entry `idx` is live.
    #[inline(always)]
    #[must_use]
    pub fn present(&self, idx: usize) -> bool {
        self.table.get(idx, self.layout.present) != 0
    }

    /// IP tag of entry `idx`.
    #[inline(always)]
    #[must_use]
    pub fn tag(&self, idx: usize) -> u64 {
        self.table.get(idx, self.layout.tag)
    }

    /// Recorded offset LSBs.
    #[inline(always)]
    #[must_use]
    pub fn offset_lsb(&self, idx: usize) -> u32 {
        self.table.get(idx, self.layout.offset_lsb) as u32
    }

    /// Overwrites the offset LSBs (must fit the configured width).
    #[inline(always)]
    pub fn set_offset_lsb(&mut self, idx: usize, v: u32) {
        self.table.set(idx, self.layout.offset_lsb, u64::from(v));
    }

    /// CAP confidence counter value.
    #[inline(always)]
    #[must_use]
    pub fn cap_conf_value(&self, idx: usize) -> u8 {
        self.table.get(idx, self.layout.cap_conf) as u8
    }

    /// Stride confidence counter value.
    #[inline(always)]
    #[must_use]
    pub fn stride_conf_value(&self, idx: usize) -> u8 {
        self.table.get(idx, self.layout.stride_conf) as u8
    }

    /// Reconstructs the CAP confidence counter (proto parameters + packed
    /// value) for operating on the stack.
    #[inline(always)]
    #[must_use]
    pub fn cap_conf(&self, idx: usize) -> SaturatingCounter {
        let mut c = self.proto.cap_conf;
        c.corrupt_value(self.cap_conf_value(idx));
        c
    }

    /// Reconstructs the stride confidence counter.
    #[inline(always)]
    #[must_use]
    pub fn stride_conf(&self, idx: usize) -> SaturatingCounter {
        let mut c = self.proto.stride_conf;
        c.corrupt_value(self.stride_conf_value(idx));
        c
    }

    /// Stores a CAP confidence value back (value ≤ proto max by
    /// construction of every mutation path).
    #[inline(always)]
    pub fn set_cap_conf_value(&mut self, idx: usize, v: u8) {
        self.table.set(idx, self.layout.cap_conf, u64::from(v));
    }

    /// Stores a stride confidence value back.
    #[inline(always)]
    pub fn set_stride_conf_value(&mut self, idx: usize, v: u8) {
        self.table.set(idx, self.layout.stride_conf, u64::from(v));
    }

    fn cfi_get(&self, idx: usize, has: Field, pat: Field, path: Field, init: Field) -> ControlFlowIndication {
        let bad_pattern = if self.table.get(idx, has) != 0 {
            Some(self.table.get(idx, pat))
        } else {
            None
        };
        ControlFlowIndication::from_parts(
            bad_pattern,
            self.table.get(idx, path),
            self.table.get(idx, init) != 0,
        )
    }

    fn cfi_set(&mut self, idx: usize, has: Field, pat: Field, path: Field, init: Field, v: ControlFlowIndication) {
        match v.bad_pattern() {
            Some(p) => {
                self.table.set(idx, has, 1);
                self.table.set(idx, pat, p);
            }
            None => {
                self.table.set(idx, has, 0);
                self.table.set(idx, pat, 0);
            }
        }
        self.table.set(idx, path, v.path_bits());
        self.table.set(idx, init, u64::from(v.initialised()));
    }

    /// Reconstructs the CAP control-flow indication.
    #[inline(always)]
    #[must_use]
    pub fn cap_cfi(&self, idx: usize) -> ControlFlowIndication {
        let l = self.layout;
        self.cfi_get(idx, l.cap_cfi_has, l.cap_cfi_pat, l.cap_cfi_path, l.cap_cfi_init)
    }

    /// Stores the CAP control-flow indication.
    pub fn set_cap_cfi(&mut self, idx: usize, v: ControlFlowIndication) {
        let l = self.layout;
        self.cfi_set(idx, l.cap_cfi_has, l.cap_cfi_pat, l.cap_cfi_path, l.cap_cfi_init, v);
    }

    /// Reconstructs the stride control-flow indication.
    #[inline(always)]
    #[must_use]
    pub fn stride_cfi(&self, idx: usize) -> ControlFlowIndication {
        let l = self.layout;
        self.cfi_get(idx, l.stride_cfi_has, l.stride_cfi_pat, l.stride_cfi_path, l.stride_cfi_init)
    }

    /// Stores the stride control-flow indication.
    pub fn set_stride_cfi(&mut self, idx: usize, v: ControlFlowIndication) {
        let l = self.layout;
        self.cfi_set(idx, l.stride_cfi_has, l.stride_cfi_pat, l.stride_cfi_path, l.stride_cfi_init, v);
    }

    /// Whether at least one address has resolved for this entry.
    #[inline(always)]
    #[must_use]
    pub fn stride_seen(&self, idx: usize) -> bool {
        self.table.get(idx, self.layout.stride_seen) != 0
    }

    /// Marks the entry as having seen an address.
    #[inline(always)]
    pub fn set_stride_seen(&mut self, idx: usize, v: bool) {
        self.table.set(idx, self.layout.stride_seen, u64::from(v));
    }

    /// Last resolved address.
    #[inline(always)]
    #[must_use]
    pub fn last_addr(&self, idx: usize) -> u64 {
        self.table.get(idx, self.layout.last_addr)
    }

    /// Overwrites the last resolved address.
    #[inline(always)]
    pub fn set_last_addr(&mut self, idx: usize, v: u64) {
        self.table.set(idx, self.layout.last_addr, v);
    }

    /// Current stride delta.
    #[inline(always)]
    #[must_use]
    pub fn stride(&self, idx: usize) -> i64 {
        self.table.get(idx, self.layout.stride) as i64
    }

    /// Overwrites the stride delta.
    #[inline(always)]
    pub fn set_stride(&mut self, idx: usize, v: i64) {
        self.table.set(idx, self.layout.stride, v as u64);
    }

    /// Stride state machine state.
    #[inline(always)]
    #[must_use]
    pub fn stride_state(&self, idx: usize) -> StrideState {
        match self.table.get(idx, self.layout.stride_state) {
            0 => StrideState::Init,
            1 => StrideState::Transient,
            _ => StrideState::Steady,
        }
    }

    /// Overwrites the stride state.
    #[inline(always)]
    pub fn set_stride_state(&mut self, idx: usize, v: StrideState) {
        let raw = match v {
            StrideState::Init => 0,
            StrideState::Transient => 1,
            StrideState::Steady => 2,
        };
        self.table.set(idx, self.layout.stride_state, raw);
    }

    /// Reconstructs the interval counter.
    #[inline(always)]
    #[must_use]
    pub fn interval(&self, idx: usize) -> IntervalCounter {
        IntervalCounter {
            learned: self.table.get(idx, self.layout.int_learned) as u32,
            run: self.table.get(idx, self.layout.int_run) as u32,
        }
    }

    /// Stores the interval counter.
    #[inline(always)]
    pub fn set_interval(&mut self, idx: usize, v: IntervalCounter) {
        self.table.set(idx, self.layout.int_learned, u64::from(v.learned));
        self.table.set(idx, self.layout.int_run, u64::from(v.run));
    }

    /// Hybrid selector state (0–3).
    #[inline(always)]
    #[must_use]
    pub fn selector(&self, idx: usize) -> u8 {
        self.table.get(idx, self.layout.selector) as u8
    }

    /// Overwrites the selector (must be 0–3).
    #[inline(always)]
    pub fn set_selector(&mut self, idx: usize, v: u8) {
        self.table.set(idx, self.layout.selector, u64::from(v));
    }

    /// LRU timestamp of entry `idx`.
    #[inline(always)]
    #[must_use]
    pub fn lru(&self, idx: usize) -> u64 {
        self.table.get(idx, self.layout.lru)
    }

    /// Overwrites the LRU timestamp (snapshot restore).
    pub fn set_lru(&mut self, idx: usize, v: u64) {
        self.table.set(idx, self.layout.lru, v);
    }

    // ---- history registers ---------------------------------------------

    fn hist_layout(&self, half: HistHalf) -> HistLayout {
        match half {
            HistHalf::Arch => self.layout.hist,
            HistHalf::Spec => self.layout.spec_hist,
        }
    }

    /// Number of recorded addresses in the register.
    #[inline(always)]
    #[must_use]
    pub fn hist_len(&self, idx: usize, half: HistHalf) -> usize {
        self.table.get(idx, self.hist_layout(half).count) as usize
    }

    /// True once the register holds `spec.length` addresses.
    #[inline(always)]
    #[must_use]
    pub fn hist_is_warm(&self, idx: usize, half: HistHalf) -> bool {
        self.hist_len(idx, half) >= self.spec.length
    }

    /// The folded register, split into LT index and tag. Only meaningful
    /// when warm — exactly the points where the legacy code folds.
    #[inline(always)]
    #[must_use]
    pub fn hist_fold(&self, idx: usize, half: HistHalf) -> FoldedHistory {
        self.spec.split(self.table.get(idx, self.hist_layout(half).fold))
    }

    /// Raw slot value (bits `2..2+width` of the recorded address) at
    /// *logical* position `k` (0 = oldest). Test/snapshot surface.
    #[must_use]
    pub fn hist_slot(&self, idx: usize, half: HistHalf, k: usize) -> u64 {
        let h = self.hist_layout(half);
        let count = self.table.get(idx, h.count) as usize;
        let phys = self.phys_slot(idx, half, k, count);
        self.table.get(idx, h.slot(phys))
    }

    #[inline(always)]
    fn phys_slot(&self, idx: usize, half: HistHalf, k: usize, count: usize) -> usize {
        if count >= self.spec.length {
            let head = self.table.get(idx, self.hist_layout(half).head) as usize;
            (head + k) % self.spec.length
        } else {
            k
        }
    }

    /// Pushes `addr` into the register: stores the masked slot, advances
    /// the ring, and rolls the folded register incrementally.
    pub fn hist_push(&mut self, idx: usize, half: HistHalf, addr: u64) {
        let h = self.hist_layout(half);
        let n = self.spec.length;
        let m = self.spec.shift;
        let width = self.spec.width();
        let mask = (1u64 << width) - 1;
        let s_new = (addr >> 2) & mask;
        let count = self.table.get(idx, h.count) as usize;
        let mut f = self.table.get(idx, h.fold);
        if count < n {
            self.table.set(idx, h.slot(count), s_new);
            self.table.set(idx, h.count, count as u64 + 1);
            f = ((f << m) ^ s_new) & mask;
        } else {
            let head = self.table.get(idx, h.head) as usize;
            let s_old = self.table.get(idx, h.slot(head));
            // The oldest slot's contribution has aged `m·(N−1)` shifts;
            // xor it back out before shifting the window forward.
            let aged = u64::from(m) * (n as u64 - 1);
            let old_contrib = if aged >= 64 { 0 } else { (s_old << aged) & mask };
            f = (((f ^ old_contrib) << m) ^ s_new) & mask;
            self.table.set(idx, h.slot(head), s_new);
            self.table
                .set(idx, h.head, ((head + 1) % n) as u64);
        }
        self.table.set(idx, h.fold, f);
    }

    /// Recomputes the folded register from the slots (restore and
    /// fault-repair path; self-healing by construction).
    pub fn hist_refold(&mut self, idx: usize, half: HistHalf) {
        let h = self.hist_layout(half);
        let n = self.spec.length;
        let m = self.spec.shift;
        let mask = (1u64 << self.spec.width()) - 1;
        let count = self.table.get(idx, h.count) as usize;
        let head = self.table.get(idx, h.head) as usize;
        let mut f = 0u64;
        for k in 0..count {
            let phys = if count >= n { (head + k) % n } else { k };
            f = ((f << m) ^ self.table.get(idx, h.slot(phys))) & mask;
        }
        self.table.set(idx, h.fold, f);
    }

    /// Copies the architectural history into the speculative register —
    /// the packed analogue of `spec_history.copy_from(&history)`.
    pub fn spec_copy_from_arch(&mut self, idx: usize) {
        let a = self.layout.hist;
        let s = self.layout.spec_hist;
        self.table.set(idx, s.count, self.table.get(idx, a.count));
        self.table.set(idx, s.head, self.table.get(idx, a.head));
        self.table.set(idx, s.fold, self.table.get(idx, a.fold));
        for k in 0..self.spec.length {
            let v = self.table.get(idx, a.slot(k));
            self.table.set(idx, s.slot(k), v);
        }
    }

    /// Clears a history register (restore path).
    pub fn hist_clear(&mut self, idx: usize, half: HistHalf) {
        let h = self.hist_layout(half);
        self.table.set(idx, h.count, 0);
        self.table.set(idx, h.head, 0);
        self.table.set(idx, h.fold, 0);
        for k in 0..self.spec.length {
            self.table.set(idx, h.slot(k), 0);
        }
    }

    /// Appends a raw slot during restore (logical order, head pinned at
    /// 0). The caller refolds afterwards.
    pub fn hist_restore_slot(&mut self, idx: usize, half: HistHalf, slot: u64) {
        let h = self.hist_layout(half);
        let count = self.table.get(idx, h.count) as usize;
        debug_assert!(count < self.spec.length);
        self.table.set(idx, h.slot(count), slot);
        self.table.set(idx, h.count, count as u64 + 1);
    }

    /// Flips one bit of a recorded address, mirroring
    /// [`crate::history::HistoryBuffer::corrupt_bit`]: `slot`/`bit` wrap
    /// into range, empty registers report `false`. Flips of bits the
    /// fold never observes (outside `2..2+width`) are accepted but
    /// change nothing — exactly the legacy behaviour at the prediction
    /// boundary, where such bits are masked out of every fold.
    pub fn hist_corrupt_bit(&mut self, idx: usize, half: HistHalf, slot: usize, bit: u32) -> bool {
        let count = self.hist_len(idx, half);
        if count == 0 {
            return false;
        }
        let slot = slot % count;
        let bit = bit % 64;
        let width = self.spec.width();
        if bit >= 2 && bit < 2 + width {
            let h = self.hist_layout(half);
            let phys = self.phys_slot(idx, half, slot, count);
            let v = self.table.get(idx, h.slot(phys)) ^ (1u64 << (bit - 2));
            self.table.set(idx, h.slot(phys), v);
            self.hist_refold(idx, half);
        }
        true
    }

    // ---- iteration / fault surface -------------------------------------

    /// Number of live entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        (0..self.config.entries).filter(|&i| self.present(i)).count()
    }

    /// Entry index of the `n`-th live entry in table order (sets-major,
    /// then ways) — the same order the legacy `entries_mut()` iterator
    /// walks, which fault-injection draw parity depends on.
    #[must_use]
    pub fn nth_live(&self, n: usize) -> Option<usize> {
        (0..self.config.entries).filter(|&i| self.present(i)).nth(n)
    }

    /// Indices of live entries, in table order.
    pub fn live_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.config.entries).filter(|&i| self.present(i))
    }

    /// Marks entry `idx` live with tag `ip` (restore path; fields are
    /// filled by the caller through the setters).
    pub fn restore_entry(&mut self, idx: usize, ip: u64) {
        self.table.clear_entry(idx);
        self.table.set(idx, self.layout.present, 1);
        self.table.set(idx, self.layout.tag, ip);
    }
}
