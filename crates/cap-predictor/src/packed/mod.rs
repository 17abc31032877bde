//! Bit-packed flat-table implementations of the predictor structures.
//!
//! The legacy structures (`load_buffer`, `link_table`) model the paper
//! with idiomatic Rust containers — `Vec<Option<Entry>>` sets,
//! `VecDeque` histories beside a folded register. That layout is ideal
//! for sweepable experiments, but each entry still holds its histories
//! in separate heap allocations.
//!
//! This module repacks both tables the way the hardware in the paper
//! would hold them:
//!
//! * one contiguous cache-line-aligned allocation per table
//!   ([`bits::BitTable`]), entries at fixed word strides;
//! * fields at the paper's widths — 8-bit offset LSBs, 4-bit PF bits,
//!   2-bit selector, counters at `bits_for(max)` bits;
//! * the folded history kept **incrementally** in a packed register
//!   (shift, xor in the newest slot, xor out the evicted slot's aged
//!   contribution), next to raw slots of only the bits a fold can see;
//! * zero heap allocation and zero hashing anywhere on the predict path,
//!   plus a [`crate::types::AddressPredictor::predict_batch`] override
//!   that amortises dispatch across a whole queue drain.
//!
//! [`hybrid::PackedHybridPredictor`] is behaviourally identical to
//! [`crate::hybrid::HybridPredictor`] — bit-identical predictions across
//! every generator family, under fault injection, and through snapshot
//! round-trips (see `tests/packed_differential.rs` and the chaos twin
//! suite in `cap-faults`).

pub mod bits;
pub mod hybrid;
pub mod link_table;
pub mod load_buffer;

pub use hybrid::PackedHybridPredictor;
pub use link_table::PackedLinkTable;
pub use load_buffer::{HistHalf, PackedLoadBuffer};
