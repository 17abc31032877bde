//! The Load Buffer (LB) — first level of every predictor in this crate
//! (§3.1, §3.7).
//!
//! A set-associative, LRU-replaced table indexed by the static load IP.
//! In the hybrid predictor the LB is *shared*: one entry carries the CAP
//! fields (offset LSBs, address history, CAP confidence), the enhanced
//! stride fields (last address, stride, state, interval), and the hybrid
//! selector counter, exactly as Figure 4 draws it.
//!
//! Entries are plain `Copy` values. Their address histories live in one
//! flat arena owned by the LB — a block of [`HistoryLayout::length`]
//! slots per history for each way — so filling, evicting and dropping
//! entries never touches the heap. Lookups hand out an [`LbWay`] (or a
//! read-only [`LbWayRef`]): the entry plus its history slots.

use crate::confidence::{ControlFlowIndication, SaturatingCounter};
use crate::history::{History, HistoryBuffer, HistoryMut, RingState};
use std::ops::{Deref, DerefMut};

/// Stride-component state machine (the "state bits" of §3.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrideState {
    /// Only one address seen; no stride yet.
    #[default]
    Init,
    /// A candidate stride observed once.
    Transient,
    /// The same stride observed twice or more.
    Steady,
}

/// Interval tracking for the enhanced stride predictor (§5.2): learn the
/// array length (number of consecutive correct predictions before the
/// wrap) and stop speculating once the current run reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntervalCounter {
    /// Learned interval (0 = nothing learned yet).
    pub learned: u32,
    /// Correct predictions in the current run.
    pub run: u32,
}

impl IntervalCounter {
    /// Minimum run length considered a real array traversal; shorter runs
    /// don't overwrite the learned interval.
    const MIN_INTERVAL: u32 = 4;

    /// Records a correct stride prediction.
    pub fn on_correct(&mut self) {
        self.run = self.run.saturating_add(1);
    }

    /// Records a stride misprediction, learning the run length as the
    /// interval when it looks like an array wrap.
    pub fn on_incorrect(&mut self) {
        if self.run >= Self::MIN_INTERVAL {
            self.learned = self.run;
        }
        self.run = 0;
    }

    /// True when speculation should be withheld because the current run
    /// (plus any in-flight predictions) has reached the learned interval.
    #[must_use]
    pub fn exhausted(&self, pending: u32) -> bool {
        self.learned > 0 && self.run.saturating_add(pending) >= self.learned
    }
}

/// One Load Buffer entry (Figure 4's field layout). Its two address
/// histories keep their bookkeeping here and their addresses in the LB's
/// arena; reach them through [`LbWay::history`] and friends.
#[derive(Debug, Clone, Copy)]
pub struct LbEntry {
    /// IP tag.
    pub tag: u64,
    // --- CAP fields ---
    /// Architectural history of recent (base) addresses.
    arch_ring: RingState,
    /// Speculative history rolled forward at predict time (pipelined mode).
    spec_ring: RingState,
    /// The recorded LSBs of the load's immediate offset (§3.3).
    pub offset_lsb: u32,
    /// CAP confidence counter.
    pub cap_conf: SaturatingCounter,
    /// CAP control-flow indication state.
    pub cap_cfi: ControlFlowIndication,
    // --- stride fields ---
    /// True once at least one address has been observed (so `last_addr` is
    /// meaningful).
    pub stride_seen: bool,
    /// Last resolved address.
    pub last_addr: u64,
    /// Current stride delta.
    pub stride: i64,
    /// Stride state machine.
    pub stride_state: StrideState,
    /// Stride confidence counter.
    pub stride_conf: SaturatingCounter,
    /// Stride control-flow indication state.
    pub stride_cfi: ControlFlowIndication,
    /// Interval (array-length) tracking.
    pub interval: IntervalCounter,
    // --- hybrid fields ---
    /// 2-bit selector: 0–1 choose stride, 2–3 choose CAP. Initialised to 2
    /// ("weak CAP"), per §4.2.
    pub selector: u8,
    /// LRU timestamp.
    pub lru: u64,
    /// Offset of the way's block in the LB's history arena. A way keeps
    /// its block across evictions.
    slots: u32,
}

impl LbEntry {
    fn new(tag: u64, proto: &LbEntryProto, lru: u64, slots: u32) -> Self {
        Self {
            tag,
            arch_ring: RingState::default(),
            spec_ring: RingState::default(),
            offset_lsb: 0,
            cap_conf: proto.cap_conf,
            cap_cfi: ControlFlowIndication::new(),
            stride_seen: false,
            last_addr: 0,
            stride: 0,
            stride_state: StrideState::Init,
            stride_conf: proto.stride_conf,
            stride_cfi: ControlFlowIndication::new(),
            interval: IntervalCounter::default(),
            selector: 2,
            lru,
            slots,
        }
    }
}

/// One live Load Buffer way: the entry (its fields through `Deref`) plus
/// its history slots in the arena.
#[derive(Debug)]
pub struct LbWay<'a> {
    entry: &'a mut LbEntry,
    arch: &'a mut [u64],
    spec: &'a mut [u64],
}

impl<'a> LbWay<'a> {
    /// Splits a way's arena chunk into its architectural `length` slots
    /// and the speculative rest.
    fn new(entry: &'a mut LbEntry, chunk: &'a mut [u64], length: usize) -> Self {
        let (arch, spec) = chunk.split_at_mut(length);
        Self { entry, arch, spec }
    }

    /// The architectural history.
    #[must_use]
    pub fn history(&self) -> History<'_> {
        History::new(&self.entry.arch_ring, self.arch)
    }

    /// The architectural history, mutably.
    pub fn history_mut(&mut self) -> HistoryMut<'_> {
        HistoryMut::new(&mut self.entry.arch_ring, self.arch)
    }

    /// The speculative history (always empty unless the owner's layout
    /// keeps one).
    #[must_use]
    pub fn spec_history(&self) -> History<'_> {
        History::new(&self.entry.spec_ring, self.spec)
    }

    /// The speculative history, mutably.
    pub fn spec_history_mut(&mut self) -> HistoryMut<'_> {
        HistoryMut::new(&mut self.entry.spec_ring, self.spec)
    }

    /// Restarts the speculative history from the architectural one (a
    /// slice copy within the way's arena chunk).
    pub fn repair_spec_history(&mut self) {
        HistoryMut::new(&mut self.entry.spec_ring, self.spec)
            .copy_from(History::new(&self.entry.arch_ring, self.arch));
    }
}

impl Deref for LbWay<'_> {
    type Target = LbEntry;

    fn deref(&self) -> &LbEntry {
        self.entry
    }
}

impl DerefMut for LbWay<'_> {
    fn deref_mut(&mut self) -> &mut LbEntry {
        self.entry
    }
}

/// A read-only view of one live Load Buffer way.
#[derive(Debug, Clone, Copy)]
pub struct LbWayRef<'a> {
    entry: &'a LbEntry,
    arch: &'a [u64],
    spec: &'a [u64],
}

impl<'a> LbWayRef<'a> {
    fn new(entry: &'a LbEntry, chunk: &'a [u64], length: usize) -> Self {
        let (arch, spec) = chunk.split_at(length);
        Self { entry, arch, spec }
    }

    /// The architectural history.
    #[must_use]
    pub fn history(&self) -> History<'a> {
        History::new(&self.entry.arch_ring, self.arch)
    }

    /// The speculative history.
    #[must_use]
    pub fn spec_history(&self) -> History<'a> {
        History::new(&self.entry.spec_ring, self.spec)
    }
}

impl Deref for LbWayRef<'_> {
    type Target = LbEntry;

    fn deref(&self) -> &LbEntry {
        self.entry
    }
}

/// Prototype counters cloned into fresh entries.
#[derive(Debug, Clone, Copy)]
pub struct LbEntryProto {
    /// Initial CAP confidence counter (cold).
    pub cap_conf: SaturatingCounter,
    /// Initial stride confidence counter (cold).
    pub stride_conf: SaturatingCounter,
}

/// How many history slots each way keeps in the Load Buffer's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryLayout {
    /// Addresses per history: the owning predictor's history length, or 0
    /// when it keeps none.
    pub length: usize,
    /// Whether each way also keeps a speculative history of `length`
    /// slots.
    pub speculative: bool,
}

impl HistoryLayout {
    /// No history slots (stride and last-address predictors).
    pub const NONE: Self = Self {
        length: 0,
        speculative: false,
    };

    /// An architectural history of `length` addresses and no speculative
    /// one.
    #[must_use]
    pub fn architectural(length: usize) -> Self {
        Self {
            length,
            speculative: false,
        }
    }

    /// Arena slots per way.
    fn stride(&self) -> usize {
        self.length.saturating_mul(1 + usize::from(self.speculative))
    }
}

/// Ceiling on a restored arena (512 MiB of slots), so a hostile snapshot
/// cannot demand an unbounded allocation through its geometry.
const MAX_RESTORED_ARENA_SLOTS: usize = 1 << 26;

/// Configuration of a [`LoadBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadBufferConfig {
    /// Total entries (power of two).
    pub entries: usize,
    /// Associativity.
    pub assoc: usize,
}

impl LoadBufferConfig {
    /// The paper's baseline: 4K entries, 2-way set associative.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            entries: 4096,
            assoc: 2,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.entries / self.assoc
    }

    fn validate(&self) {
        assert!(self.entries.is_power_of_two(), "LB entries must be a power of two");
        assert!(self.assoc >= 1, "associativity must be at least 1");
        assert!(
            self.entries.is_multiple_of(self.assoc) && (self.entries / self.assoc).is_power_of_two(),
            "LB sets must be a power of two"
        );
    }
}

/// The Load Buffer.
#[derive(Debug)]
pub struct LoadBuffer {
    config: LoadBufferConfig,
    /// `config.sets() - 1`, kept so indexing never divides.
    set_mask: usize,
    proto: LbEntryProto,
    /// Set-major ways: set `s` is `ways[s * assoc..(s + 1) * assoc]`.
    ways: Vec<Option<LbEntry>>,
    /// History arena: one block of `stride` slots (the architectural
    /// history's first) per way that has ever held an entry, appended in
    /// first-fill order. Capacity for every way is reserved up front, so
    /// it never reallocates, and only filled ways' blocks are ever
    /// written: the resident part stays dense.
    arena: Vec<u64>,
    history: HistoryLayout,
    /// `history.stride()`, kept so lookups never multiply.
    stride: usize,
    tick: u64,
}

impl LoadBuffer {
    /// Creates an empty Load Buffer whose ways keep histories laid out as
    /// `history`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(config: LoadBufferConfig, proto: LbEntryProto, history: HistoryLayout) -> Self {
        config.validate();
        assert!(
            u32::try_from(config.entries.saturating_mul(history.stride())).is_ok(),
            "LB history arena must stay below 2^32 slots"
        );
        Self::empty(config, proto, history)
    }

    fn empty(config: LoadBufferConfig, proto: LbEntryProto, history: HistoryLayout) -> Self {
        Self {
            ways: vec![None; config.entries],
            arena: Vec::with_capacity(config.entries * history.stride()),
            set_mask: config.sets() - 1,
            config,
            proto,
            history,
            stride: history.stride(),
            tick: 0,
        }
    }

    /// The buffer's configuration.
    #[must_use]
    pub fn config(&self) -> &LoadBufferConfig {
        &self.config
    }

    /// The ways of `ip`'s set.
    #[inline]
    fn set_range(&self, ip: u64) -> std::ops::Range<usize> {
        // Drop the 2 alignment bits of the IP before indexing.
        let set = ((ip >> 2) as usize) & self.set_mask;
        let start = set * self.config.assoc;
        start..start + self.config.assoc
    }

    /// The way holding `ip`, if any.
    #[inline]
    fn find(&self, ip: u64) -> Option<usize> {
        let range = self.set_range(ip);
        let start = range.start;
        self.ways[range]
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.tag == ip))
            .map(|i| start + i)
    }

    /// Way `w` and its history slots, when live.
    #[inline]
    fn way_mut(&mut self, w: usize) -> Option<LbWay<'_>> {
        let entry = self.ways[w].as_mut()?;
        let at = entry.slots as usize;
        let chunk = &mut self.arena[at..at + self.stride];
        Some(LbWay::new(entry, chunk, self.history.length))
    }

    /// Way `w` and its history slots, read-only, when live.
    #[inline]
    fn way(&self, w: usize) -> Option<LbWayRef<'_>> {
        let entry = self.ways[w].as_ref()?;
        let at = entry.slots as usize;
        let chunk = &self.arena[at..at + self.stride];
        Some(LbWayRef::new(entry, chunk, self.history.length))
    }

    /// Appends a zeroed block for a way filled for the first time. The
    /// capacity was reserved at construction, so this never reallocates.
    fn append_block(&mut self) -> u32 {
        let at = self.arena.len();
        self.arena.resize(at + self.stride, 0);
        u32::try_from(at).expect("arena offsets fit in u32 (checked at construction)")
    }

    /// Looks up the entry for `ip` without allocating; refreshes LRU on hit.
    ///
    /// The tick advances on *hits only*: a miss observes the table without
    /// touching it, so diagnostic probes of absent IPs (or a storm of them)
    /// cannot age unrelated entries and perturb eviction order.
    #[inline]
    pub fn lookup(&mut self, ip: u64) -> Option<LbWay<'_>> {
        let range = self.set_range(ip);
        let entry = self.ways[range].iter_mut().flatten().find(|e| e.tag == ip)?;
        self.tick += 1;
        entry.lru = self.tick;
        let at = entry.slots as usize;
        let chunk = &mut self.arena[at..at + self.stride];
        Some(LbWay::new(entry, chunk, self.history.length))
    }

    /// Looks up the entry for `ip` without touching LRU or tick state —
    /// a pure read for diagnostics and lookahead walks
    /// (e.g. [`crate::cap::CapPredictor::predict_ahead`]).
    #[must_use]
    #[inline]
    pub fn peek(&self, ip: u64) -> Option<LbWayRef<'_>> {
        self.way(self.find(ip)?)
    }

    /// Looks up the entry for `ip`, allocating (and possibly evicting LRU)
    /// on miss. Returns the entry and whether it was freshly allocated.
    #[inline]
    pub fn lookup_or_insert(&mut self, ip: u64) -> (LbWay<'_>, bool) {
        self.tick += 1;
        let tick = self.tick;
        let (w, fresh) = match self.find(ip) {
            Some(w) => (w, false),
            None => (self.fill(ip, tick), true),
        };
        let mut way = self.way_mut(w).expect("the way was just found or filled");
        way.lru = tick;
        (way, fresh)
    }

    /// Allocates a fresh entry for `ip` in an empty way of its set, else
    /// in the LRU one, and returns the way.
    fn fill(&mut self, ip: u64, tick: u64) -> usize {
        // `fold` defaults to way 0, so a (config-impossible) empty set
        // cannot make this panic.
        let range = self.set_range(ip);
        let start = range.start;
        let set = &self.ways[range];
        let w = start
            + set.iter().position(Option::is_none).unwrap_or_else(|| {
                set.iter()
                    .enumerate()
                    .fold((0usize, u64::MAX), |best, (i, e)| {
                        let lru = e.as_ref().map_or(0, |e| e.lru);
                        if lru < best.1 { (i, lru) } else { best }
                    })
                    .0
            });
        // An evicted entry leaves its block to the newcomer, whose empty
        // rings make the old addresses dead until pushed over.
        let slots = match &self.ways[w] {
            Some(victim) => victim.slots,
            None => self.append_block(),
        };
        self.ways[w] = Some(LbEntry::new(ip, &self.proto, tick, slots));
        w
    }

    /// Number of live entries (diagnostics).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.ways.iter().flatten().count()
    }

    /// Iterates over live ways (diagnostics, invariant checking).
    pub fn entries(&self) -> impl Iterator<Item = LbWayRef<'_>> {
        (0..self.ways.len()).filter_map(|w| self.way(w))
    }

    /// Mutably iterates over live ways, in way order. This is the
    /// fault-injection surface: a chaos harness may corrupt any entry
    /// field or history through it. The LB itself stays structurally sound
    /// under arbitrary field edits — set geometry is untouched and lookups
    /// tolerate stale tags (a corrupted tag simply behaves like an
    /// evicted/aliased entry).
    pub fn entries_mut(&mut self) -> impl Iterator<Item = LbWay<'_>> {
        let (stride, length) = (self.stride, self.history.length);
        // Blocks sit in first-fill order, not way order: split the arena
        // into its disjoint blocks once and hand each way its own.
        let mut blocks: Vec<Option<&mut [u64]>> = if stride == 0 {
            Vec::new()
        } else {
            self.arena.chunks_exact_mut(stride).map(Some).collect()
        };
        self.ways.iter_mut().filter_map(move |way| {
            let entry = way.as_mut()?;
            let chunk = match (entry.slots as usize).checked_div(stride) {
                Some(block) => blocks[block].take().expect("each block belongs to one way"),
                // A layout without history slots.
                None => <&mut [u64]>::default(),
            };
            Some(LbWay::new(entry, chunk, length))
        })
    }

    /// Re-lays the history arena as `history`, keeping every entry and
    /// its recorded addresses. A restored LB sizes its slots to the
    /// longest history in the payload; its owning predictor fits it to
    /// its own layout with this.
    ///
    /// # Errors
    ///
    /// Returns a description when a live history does not fit `history`,
    /// or the arena would exceed the restore ceiling.
    pub fn fit_history(self, history: HistoryLayout) -> Result<Self, String> {
        if history == self.history {
            return Ok(self);
        }
        let mut out = Self::restored_empty(self.config, self.proto, history)?;
        out.tick = self.tick;
        for (w, way) in self.ways.iter().enumerate() {
            let Some(entry) = way else { continue };
            let old = self.way(w).expect("live way");
            let spec_cap = if history.speculative { history.length } else { 0 };
            for (name, h, cap) in [
                ("architectural", old.history(), history.length),
                ("speculative", old.spec_history(), spec_cap),
            ] {
                if h.len() > cap {
                    return Err(format!(
                        "lb {name} history of {} addresses at ip {:#x} exceeds its {cap} slots",
                        h.len(),
                        entry.tag
                    ));
                }
            }
            let slots = out.append_block();
            out.ways[w] = Some(LbEntry { slots, ..*entry });
            let mut new = out.way_mut(w).expect("live way");
            new.history_mut().copy_from(old.history());
            new.spec_history_mut().copy_from(old.spec_history());
        }
        Ok(out)
    }

    /// An empty LB for a restore, refusing arenas past the ceiling (which
    /// also keeps every offset within `u32`).
    fn restored_empty(
        config: LoadBufferConfig,
        proto: LbEntryProto,
        history: HistoryLayout,
    ) -> Result<Self, String> {
        match config.entries.checked_mul(history.stride()) {
            Some(slots) if slots <= MAX_RESTORED_ARENA_SLOTS => Ok(Self::empty(config, proto, history)),
            _ => Err(format!(
                "lb history arena of {} entries x {} slots exceeds {MAX_RESTORED_ARENA_SLOTS} slots",
                config.entries,
                history.stride()
            )),
        }
    }
}

/// A clone reserves the same arena capacity, so its fills never allocate
/// either.
impl Clone for LoadBuffer {
    fn clone(&self) -> Self {
        let mut arena = Vec::with_capacity(self.arena.capacity());
        arena.extend_from_slice(&self.arena);
        Self {
            config: self.config,
            set_mask: self.set_mask,
            proto: self.proto,
            ways: self.ways.clone(),
            arena,
            history: self.history,
            stride: self.stride,
            tick: self.tick,
        }
    }
}

use cap_snapshot::{Restorable, SectionReader, SectionWriter, Snapshot, SnapshotError};

impl Snapshot for StrideState {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_u8(match self {
            StrideState::Init => 0,
            StrideState::Transient => 1,
            StrideState::Steady => 2,
        });
    }
}

impl Restorable for StrideState {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8("stride state tag")? {
            0 => Ok(StrideState::Init),
            1 => Ok(StrideState::Transient),
            2 => Ok(StrideState::Steady),
            tag => Err(r.bad_value(format!("unknown stride state tag {tag}"))),
        }
    }
}

impl Snapshot for IntervalCounter {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_u32(self.learned);
        w.put_u32(self.run);
    }
}

impl Restorable for IntervalCounter {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            learned: r.take_u32("interval learned")?,
            run: r.take_u32("interval run")?,
        })
    }
}

/// Writes one live way: the entry's fields in Figure 4 order, with its
/// two histories (count, then addresses oldest first) after the tag.
fn write_way(way: &LbWayRef<'_>, w: &mut SectionWriter) {
    w.put_u64(way.tag);
    way.history().write_state(w);
    way.spec_history().write_state(w);
    w.put_u32(way.offset_lsb);
    way.cap_conf.write_state(w);
    way.cap_cfi.write_state(w);
    w.put_bool(way.stride_seen);
    w.put_u64(way.last_addr);
    w.put_i64(way.stride);
    way.stride_state.write_state(w);
    way.stride_conf.write_state(w);
    way.stride_cfi.write_state(w);
    way.interval.write_state(w);
    w.put_u8(way.selector);
    w.put_u64(way.lru);
}

/// Reads one live way written by [`write_way`]: the entry, with its
/// architectural and speculative histories beside it.
fn read_way(r: &mut SectionReader<'_>) -> Result<(LbEntry, HistoryBuffer, HistoryBuffer), SnapshotError> {
    let tag = r.take_u64("lb entry tag")?;
    let arch = HistoryBuffer::read_state(r)?;
    let spec = HistoryBuffer::read_state(r)?;
    let entry = LbEntry {
        tag,
        arch_ring: RingState::default(),
        spec_ring: RingState::default(),
        offset_lsb: r.take_u32("lb offset lsb")?,
        cap_conf: SaturatingCounter::read_state(r)?,
        cap_cfi: ControlFlowIndication::read_state(r)?,
        stride_seen: r.take_bool("lb stride seen")?,
        last_addr: r.take_u64("lb last addr")?,
        stride: r.take_i64("lb stride")?,
        stride_state: StrideState::read_state(r)?,
        stride_conf: SaturatingCounter::read_state(r)?,
        stride_cfi: ControlFlowIndication::read_state(r)?,
        interval: IntervalCounter::read_state(r)?,
        selector: r.take_u8("lb selector")?,
        lru: r.take_u64("lb lru")?,
        // Assigned when the restored LB lays out its arena.
        slots: 0,
    };
    if entry.selector > 3 {
        return Err(r.bad_value(format!("lb selector {} above 3 (2-bit counter)", entry.selector)));
    }
    Ok((entry, arch, spec))
}

impl Snapshot for LoadBufferConfig {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_len(self.entries);
        w.put_len(self.assoc);
    }
}

impl Restorable for LoadBufferConfig {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let entries = r.take_u64("lb entries")?;
        let assoc = r.take_u64("lb associativity")?;
        // Mirror LoadBufferConfig::validate without its panics, with a
        // ceiling so hostile configs can't demand unbounded allocation.
        if !entries.is_power_of_two() || entries > 1 << 24 {
            return Err(r.bad_value(format!("lb entries {entries} not a power of two <= 2^24")));
        }
        if assoc == 0 || assoc > entries || entries % assoc != 0 || !(entries / assoc).is_power_of_two() {
            return Err(r.bad_value(format!("lb associativity {assoc} incompatible with {entries} entries")));
        }
        Ok(Self {
            entries: entries as usize,
            assoc: assoc as usize,
        })
    }
}

impl Snapshot for LoadBuffer {
    fn write_state(&self, w: &mut SectionWriter) {
        self.config.write_state(w);
        self.proto.cap_conf.write_state(w);
        self.proto.stride_conf.write_state(w);
        w.put_u64(self.tick);
        for way in 0..self.ways.len() {
            match self.way(way) {
                Some(way) => {
                    w.put_bool(true);
                    write_way(&way, w);
                }
                None => w.put_bool(false),
            }
        }
    }
}

/// The history layout is not part of the payload: a restored LB sizes
/// its slots to the longest history recorded (see
/// [`LoadBuffer::fit_history`]). Every restored history is stale, so the
/// next push refolds it.
impl Restorable for LoadBuffer {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let config = LoadBufferConfig::read_state(r)?;
        let proto = LbEntryProto {
            cap_conf: SaturatingCounter::read_state(r)?,
            stride_conf: SaturatingCounter::read_state(r)?,
        };
        let tick = r.take_u64("lb tick")?;
        // Every way takes at least its presence byte, so a hostile entry
        // count cannot reserve more than the payload could fill.
        let mut ways = Vec::with_capacity(config.entries.min(r.remaining()));
        for _ in 0..config.entries {
            ways.push(if r.take_bool("lb way presence")? {
                Some(read_way(r)?)
            } else {
                None
            });
        }
        let live = || ways.iter().flatten();
        let history = HistoryLayout {
            length: live()
                .map(|(_, arch, spec)| arch.len().max(spec.len()))
                .max()
                .unwrap_or(0),
            speculative: live().any(|(_, _, spec)| !spec.is_empty()),
        };
        let mut lb = Self::restored_empty(config, proto, history).map_err(|m| r.bad_value(m))?;
        lb.tick = tick;
        for (w, way) in ways.into_iter().enumerate() {
            let Some((entry, arch, spec)) = way else { continue };
            let slots = lb.append_block();
            lb.ways[w] = Some(LbEntry { slots, ..entry });
            let mut way = lb.way_mut(w).expect("live way");
            way.history_mut().copy_from(arch.view());
            way.spec_history_mut().copy_from(spec.view());
        }
        Ok(lb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistorySpec;

    fn proto() -> LbEntryProto {
        LbEntryProto {
            cap_conf: SaturatingCounter::new(2, 3, false),
            stride_conf: SaturatingCounter::new(2, 3, false),
        }
    }

    fn lb(entries: usize, assoc: usize) -> LoadBuffer {
        LoadBuffer::new(LoadBufferConfig { entries, assoc }, proto(), HistoryLayout::architectural(2))
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut b = lb(16, 2);
        assert!(b.lookup(0x100).is_none());
        let (_, fresh) = b.lookup_or_insert(0x100);
        assert!(fresh);
        assert!(b.lookup(0x100).is_some());
        let (_, fresh2) = b.lookup_or_insert(0x100);
        assert!(!fresh2);
    }

    #[test]
    fn new_entries_start_cold_and_weak_cap() {
        let mut b = lb(16, 2);
        let (e, _) = b.lookup_or_insert(0x40);
        assert_eq!(e.selector, 2, "selector initialised to weak CAP (§4.2)");
        assert!(!e.cap_conf.is_confident());
        assert!(!e.stride_conf.is_confident());
        assert_eq!(e.stride_state, StrideState::Init);
        assert!(e.history().is_empty());
        assert!(e.spec_history().is_empty());
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let mut b = lb(2, 2); // 1 set, 2 ways
        b.lookup_or_insert(0x100);
        b.lookup_or_insert(0x200);
        // Touch 0x100 so 0x200 becomes LRU.
        b.lookup(0x100);
        b.lookup_or_insert(0x300);
        assert!(b.lookup(0x100).is_some());
        assert!(b.lookup(0x200).is_none(), "LRU way evicted");
        assert!(b.lookup(0x300).is_some());
    }

    #[test]
    fn miss_probe_storm_leaves_eviction_order_unchanged() {
        // Regression: `lookup` used to bump the tick on misses, so a storm
        // of probes for absent IPs aged resident entries and could flip
        // which way a later insert evicted.
        let mut b = lb(2, 2); // 1 set, 2 ways
        b.lookup_or_insert(0x100);
        b.lookup_or_insert(0x200);
        // 0x100 is now LRU. Probe a storm of IPs that are not resident
        // (same set — (ip >> 2) & 0 == 0 for every ip — so the probes
        // actually walk this set's ways).
        for i in 0..10_000u64 {
            assert!(b.lookup(0x1000 + i * 4).is_none());
        }
        // The insert must still evict 0x100, exactly as if the storm
        // never happened.
        b.lookup_or_insert(0x300);
        assert!(b.lookup(0x100).is_none(), "oldest entry still the victim");
        assert!(b.lookup(0x200).is_some());
        assert!(b.lookup(0x300).is_some());
    }

    #[test]
    fn miss_probes_do_not_advance_tick() {
        let mut b = lb(16, 2);
        b.lookup_or_insert(0x100);
        let tick_before = b.tick;
        for i in 0..1000u64 {
            let _ = b.lookup(0x9000 + i * 4);
        }
        assert_eq!(b.tick, tick_before, "misses must not age the table");
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut b = lb(16, 1);
        // ips differ in set index bits (ip >> 2).
        b.lookup_or_insert(0 << 2);
        b.lookup_or_insert(1 << 2);
        assert!(b.lookup(0).is_some());
        assert!(b.lookup(4).is_some());
        assert_eq!(b.occupancy(), 2);
    }

    #[test]
    fn same_set_direct_mapped_conflicts() {
        let mut b = lb(16, 1); // 16 sets
        let a = 0u64;
        let conflicting = 16 << 2; // same (ip>>2) & 15
        b.lookup_or_insert(a);
        b.lookup_or_insert(conflicting);
        assert!(b.lookup(a).is_none(), "direct-mapped conflict evicts");
        assert!(b.lookup(conflicting).is_some());
    }

    #[test]
    fn interval_learns_array_length() {
        let mut iv = IntervalCounter::default();
        for _ in 0..10 {
            iv.on_correct();
        }
        iv.on_incorrect();
        assert_eq!(iv.learned, 10);
        assert_eq!(iv.run, 0);
        // After 9 correct in the new run, one more would be the wrap.
        for _ in 0..9 {
            iv.on_correct();
        }
        assert!(!iv.exhausted(0));
        iv.on_correct();
        assert!(iv.exhausted(0), "run reached learned interval");
    }

    #[test]
    fn interval_accounts_for_pending_predictions() {
        let mut iv = IntervalCounter::default();
        for _ in 0..8 {
            iv.on_correct();
        }
        iv.on_incorrect();
        for _ in 0..5 {
            iv.on_correct();
        }
        assert!(!iv.exhausted(2));
        assert!(iv.exhausted(3), "5 done + 3 pending = 8 = interval");
    }

    #[test]
    fn short_runs_do_not_learn_interval() {
        let mut iv = IntervalCounter::default();
        iv.on_correct();
        iv.on_correct();
        iv.on_incorrect();
        assert_eq!(iv.learned, 0, "runs below MIN_INTERVAL are noise");
    }

    #[test]
    fn evicted_way_hands_its_successor_an_empty_history() {
        let spec = HistorySpec {
            length: 2,
            ..HistorySpec::paper_default()
        };
        let mut b = lb(1, 1);
        let (mut e, _) = b.lookup_or_insert(0x100);
        e.history_mut().push(0x1000, &spec);
        e.history_mut().push(0x2000, &spec);
        assert!(e.history().is_warm(&spec));
        let (e, fresh) = b.lookup_or_insert(0x200);
        assert!(fresh);
        assert!(e.history().is_empty(), "the arena slots are dead, not inherited");
    }

    #[test]
    fn filled_ways_take_dense_blocks_and_the_arena_never_reallocates() {
        let mut b = lb(16, 2);
        let capacity = b.arena.capacity();
        assert_eq!(capacity, 16 * 2, "every way's block reserved up front");
        assert!(b.arena.is_empty(), "nothing written before a fill");
        // 3 ways of set 0, then 40 more IPs across the table.
        for ip in (0..3u64).map(|i| i * 32).chain((0..40).map(|i| i * 4)) {
            b.lookup_or_insert(ip);
        }
        assert_eq!(b.arena.len(), b.occupancy() * 2, "one block per way ever filled");
        assert_eq!(b.arena.capacity(), capacity);
        assert_eq!(b.clone().arena.capacity(), capacity, "clones keep the reservation");
    }

    #[test]
    fn histories_live_in_the_arena_per_way() {
        let spec = HistorySpec {
            length: 2,
            ..HistorySpec::paper_default()
        };
        let mut b = LoadBuffer::new(
            LoadBufferConfig { entries: 4, assoc: 2 },
            proto(),
            HistoryLayout {
                length: 2,
                speculative: true,
            },
        );
        for (ip, base) in [(0x0u64, 0x100u64), (0x4, 0x200), (0x8, 0x300)] {
            let (mut e, _) = b.lookup_or_insert(ip);
            for i in 0..3 {
                e.history_mut().push(base + i * 0x10, &spec);
            }
            e.repair_spec_history();
            e.spec_history_mut().push(base + 0x80, &spec);
        }
        for (ip, base) in [(0x0u64, 0x100u64), (0x4, 0x200), (0x8, 0x300)] {
            let e = b.peek(ip).expect("resident");
            assert_eq!(e.history().iter().collect::<Vec<_>>(), [base + 0x10, base + 0x20]);
            assert_eq!(e.spec_history().iter().collect::<Vec<_>>(), [base + 0x20, base + 0x80]);
        }
    }

    #[test]
    fn fit_history_relays_and_rejects_histories_that_do_not_fit() {
        let spec = HistorySpec {
            length: 2,
            ..HistorySpec::paper_default()
        };
        let mut b = lb(4, 2);
        let (mut e, _) = b.lookup_or_insert(0x10);
        e.history_mut().push(0x1000, &spec);
        e.history_mut().push(0x2000, &spec);
        let wider = b
            .clone()
            .fit_history(HistoryLayout {
                length: 4,
                speculative: true,
            })
            .expect("two addresses fit four slots");
        let e = wider.peek(0x10).expect("kept");
        assert_eq!(e.history().iter().collect::<Vec<_>>(), [0x1000, 0x2000]);
        assert_eq!(e.history().fold(&spec), b.peek(0x10).expect("kept").history().fold(&spec));
        let err = b
            .fit_history(HistoryLayout::architectural(1))
            .expect_err("two addresses cannot fit one slot");
        assert!(err.contains("exceeds its 1 slots"), "got: {err}");
    }

    #[test]
    fn restored_arena_past_the_ceiling_is_refused() {
        let small = LoadBufferConfig {
            entries: 16,
            assoc: 1,
        };
        assert!(LoadBuffer::restored_empty(small, proto(), HistoryLayout::architectural(4)).is_ok());
        // Refused before anything is allocated.
        let huge = LoadBufferConfig {
            entries: 1 << 24,
            assoc: 1,
        };
        let err = LoadBuffer::restored_empty(huge, proto(), HistoryLayout::architectural(8))
            .expect_err("2^27 slots is past the ceiling");
        assert!(err.contains("exceeds"), "got: {err}");
        let overflow = LoadBuffer::restored_empty(huge, proto(), HistoryLayout::architectural(usize::MAX));
        assert!(overflow.is_err(), "a stride that overflows is refused too");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_config_rejected() {
        let _ = lb(24, 2);
    }
}
