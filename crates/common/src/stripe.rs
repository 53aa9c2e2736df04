//! Per-thread stripes: one logical value kept as a few cells, each on
//! its own cache lines, with every thread writing the cell its slot
//! picks.
//!
//! A counter that every thread bumps is a cache line every thread
//! writes: each bump pulls it out of the other cores' caches, so a
//! second writer makes the first one slower. Striped, two threads with
//! different slots never write a line in common, and a reader folds the
//! cells together instead ([`Counter::load`] sums them,
//! [`AtomicHistogram::snapshot`] merges them). Slots are handed out
//! round-robin as threads first touch any striped value, so up to
//! `STRIPES` threads write disjoint cells; more share cells, which
//! stays correct (the cells are atomics or locks) and only costs
//! contention again.
//!
//! [`Counter::load`]: crate::metrics::Counter::load
//! [`AtomicHistogram::snapshot`]: crate::stats::AtomicHistogram::snapshot

use std::sync::atomic::{AtomicUsize, Ordering};

/// Cells per striped value.
const STRIPES: usize = 8;

/// `T` alone in a 128-byte-aligned region: two 64-byte lines, because
/// the adjacent-line prefetcher moves lines in pairs.
#[repr(align(128))]
#[derive(Debug, Default)]
struct Padded<T>(T);

/// One value as `STRIPES` cache-padded cells (see the module docs).
#[derive(Debug)]
pub struct Striped<T> {
    cells: [Padded<T>; STRIPES],
}

impl<T: Default> Default for Striped<T> {
    fn default() -> Self {
        Striped::new(T::default)
    }
}

impl<T> Striped<T> {
    /// Every cell built by `cell`.
    pub fn new(mut cell: impl FnMut() -> T) -> Self {
        Striped {
            cells: std::array::from_fn(|_| Padded(cell())),
        }
    }

    /// The calling thread's cell.
    #[inline]
    pub fn local(&self) -> &T {
        &self.cells[slot()].0
    }

    /// Every cell, for a reader to fold together.
    pub fn cells(&self) -> impl Iterator<Item = &T> {
        self.cells.iter().map(|c| &c.0)
    }
}

/// The calling thread's cell index, fixed at its first use.
#[inline]
fn slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    SLOT.with(|s| *s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn cells_sit_on_their_own_lines() {
        let s: Striped<AtomicU64> = Striped::default();
        let addrs: Vec<usize> = s.cells().map(|c| c as *const _ as usize).collect();
        assert_eq!(addrs.len(), STRIPES);
        for pair in addrs.windows(2) {
            assert_eq!(pair[1] - pair[0], 128);
        }
        assert_eq!(addrs[0] % 128, 0);
    }

    #[test]
    fn a_thread_keeps_its_cell() {
        let s: Striped<AtomicU64> = Striped::default();
        let first = s.local() as *const AtomicU64;
        assert_eq!(s.local() as *const AtomicU64, first);
        assert!(s.cells().any(|c| std::ptr::eq(c, first)));
    }
}
