//! The addressable max-heap behind the K-L selection queue.
//!
//! [`KeyHeap`] holds at most one `(key, node)` slot per node and a
//! `pos` map from node to slot, so re-keying a node sifts its own slot
//! in place and removing a committed node takes it out for good:
//! nothing in the heap is ever stale. Selection never pops: a
//! best-first [`HeapWalk`] reads slots in heap order from a small
//! frontier of subtree roots, and the caller prunes by simply stopping.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Slot index of a node outside a [`KeyHeap`].
const ABSENT: u32 = u32::MAX;

/// The order of heap slots as an integer pair: the key under
/// [`f64::total_cmp`], then the **lower** node id first, mirroring the
/// literal scan's tie-break.
fn rank((key, node): (f64, u32)) -> (i64, Reverse<u32>) {
    let bits = key.to_bits() as i64;
    (bits ^ (((bits >> 63) as u64) >> 1) as i64, Reverse(node))
}

/// Subtree roots of a best-first walk, ranked as in [`rank`], with
/// their slot index. Pooled by the caller so a walk allocates nothing.
pub(crate) type Frontier = BinaryHeap<((i64, Reverse<u32>), u32)>;

/// An addressable binary max-heap over node ids: at most one
/// `(key, node)` slot per node, ordered key-descending with ties to the
/// lowest node id, plus the `pos` map from node to slot.
#[derive(Debug, Default)]
pub(crate) struct KeyHeap {
    slots: Vec<(f64, u32)>,
    pos: Vec<u32>,
}

impl KeyHeap {
    /// Empties the heap for a block of `n` nodes.
    pub(crate) fn reset(&mut self, n: usize) {
        self.slots.clear();
        self.pos.clear();
        self.pos.resize(n, ABSENT);
    }

    /// Number of nodes in the heap.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The key of `node`, or `None` when it is not in the heap.
    pub(crate) fn key(&self, node: u32) -> Option<f64> {
        let p = self.pos[node as usize];
        (p != ABSENT).then(|| self.slots[p as usize].0)
    }

    /// Inserts `node` with `key`, or re-keys it in place.
    pub(crate) fn set(&mut self, node: u32, key: f64) {
        let p = self.pos[node as usize];
        let i = if p == ABSENT {
            self.slots.push((key, node));
            self.slots.len() - 1
        } else {
            self.slots[p as usize].0 = key;
            p as usize
        };
        self.sift(i);
    }

    /// Removes `node` if present.
    pub(crate) fn remove(&mut self, node: u32) {
        let p = std::mem::replace(&mut self.pos[node as usize], ABSENT);
        if p == ABSENT {
            return;
        }
        if let Some(last) = self.slots.pop() {
            if (p as usize) < self.slots.len() {
                self.slots[p as usize] = last;
                self.sift(p as usize);
            }
        }
    }

    /// Moves slot `i` up or down until the heap property holds again,
    /// updating `pos` for every slot it passes.
    fn sift(&mut self, mut i: usize) {
        let entry = self.slots[i];
        let r = rank(entry);
        while i > 0 && rank(self.slots[(i - 1) / 2]) < r {
            self.place(i, self.slots[(i - 1) / 2]);
            i = (i - 1) / 2;
        }
        loop {
            let mut c = 2 * i + 1;
            if c + 1 < self.slots.len() && rank(self.slots[c + 1]) > rank(self.slots[c]) {
                c += 1;
            }
            if c >= self.slots.len() || rank(self.slots[c]) < r {
                break;
            }
            self.place(i, self.slots[c]);
            i = c;
        }
        self.place(i, entry);
    }

    fn place(&mut self, i: usize, entry: (f64, u32)) {
        self.slots[i] = entry;
        self.pos[entry.1 as usize] = i as u32;
    }

    /// Starts a best-first walk: slots come out key-descending, ties to
    /// the lowest id, and a caller that stops reading prunes every
    /// subtree still in the frontier. The heap itself is not modified.
    pub(crate) fn walk<'h>(&'h self, frontier: &'h mut Frontier) -> HeapWalk<'h> {
        frontier.clear();
        if let Some(&root) = self.slots.first() {
            frontier.push((rank(root), 0));
        }
        HeapWalk {
            heap: self,
            frontier,
        }
    }

    /// Heap-property and `pos` violations, one line each; empty when
    /// the heap is sound.
    pub(crate) fn audit(&self, name: &str) -> Vec<String> {
        let mut out = Vec::new();
        for (i, &entry) in self.slots.iter().enumerate() {
            if i > 0 && rank(self.slots[(i - 1) / 2]) < rank(entry) {
                out.push(format!(
                    "{name} heap: slot {i} (n{}) outranks its parent",
                    entry.1
                ));
            }
            if self.pos.get(entry.1 as usize) != Some(&(i as u32)) {
                out.push(format!("{name} heap: pos of n{} is not slot {i}", entry.1));
            }
        }
        let placed = self.pos.iter().filter(|&&p| p != ABSENT).count();
        if placed != self.slots.len() {
            out.push(format!(
                "{name} heap: {placed} nodes placed but {} slots",
                self.slots.len()
            ));
        }
        out
    }
}

/// A best-first walk in progress over a [`KeyHeap`] (see
/// [`KeyHeap::walk`]).
pub(crate) struct HeapWalk<'h> {
    heap: &'h KeyHeap,
    frontier: &'h mut Frontier,
}

impl HeapWalk<'_> {
    /// The best slot not yet visited, as `(key, node)`.
    pub(crate) fn peek(&self) -> Option<(f64, u32)> {
        let &(_, i) = self.frontier.peek()?;
        Some(self.heap.slots[i as usize])
    }

    /// Visits the best slot: returns it and opens its children.
    pub(crate) fn next(&mut self) -> Option<(f64, u32)> {
        let (_, i) = self.frontier.pop()?;
        for c in [2 * i + 1, 2 * i + 2] {
            if let Some(&child) = self.heap.slots.get(c as usize) {
                self.frontier.push((rank(child), c));
            }
        }
        Some(self.heap.slots[i as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const IDS: usize = 12;

    fn heap_of(keys: &[f64]) -> KeyHeap {
        let mut heap = KeyHeap::default();
        heap.reset(keys.len());
        for (node, &key) in keys.iter().enumerate() {
            heap.set(node as u32, key);
        }
        heap
    }

    /// Visits, in order, every slot whose key is at least `threshold`.
    fn walk_above(heap: &KeyHeap, threshold: f64) -> Vec<(f64, u32)> {
        let mut frontier = Frontier::new();
        let mut walk = heap.walk(&mut frontier);
        let mut seen = Vec::new();
        while walk.peek().is_some_and(|(key, _)| key >= threshold) {
            seen.extend(walk.next());
        }
        seen
    }

    proptest! {
        /// Random `set`/`remove` sequences over a few ids and fewer
        /// distinct keys (so ties abound) against a naive model.
        #[test]
        fn key_heap_matches_a_naive_model(
            ops in proptest::collection::vec((0usize..3, 0usize..IDS, 0usize..5), 1..96),
            threshold in 0usize..6,
        ) {
            let threshold = threshold as f64 - 2.0;
            let mut heap = KeyHeap::default();
            heap.reset(IDS);
            let mut model: Vec<Option<f64>> = vec![None; IDS];
            for (op, id, key) in ops {
                if op == 2 {
                    heap.remove(id as u32);
                    model[id] = None;
                } else {
                    heap.set(id as u32, key as f64 - 2.0);
                    model[id] = Some(key as f64 - 2.0);
                }
                // Model order: key descending, then lowest id.
                let mut want: Vec<(f64, u32)> = (0..IDS)
                    .filter_map(|i| model[i].map(|k| (k, i as u32)))
                    .collect();
                want.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                let mut frontier = Frontier::new();
                prop_assert_eq!(heap.walk(&mut frontier).peek(), want.first().copied());
                for (i, &k) in model.iter().enumerate() {
                    prop_assert_eq!(heap.key(i as u32), k);
                }
                prop_assert_eq!(heap.len(), want.len());
                prop_assert_eq!(heap.audit("model"), Vec::<String>::new());
                want.retain(|&(k, _)| k >= threshold);
                prop_assert_eq!(walk_above(&heap, threshold), want);
            }
        }
    }

    #[test]
    fn audit_flags_one_corrupted_slot() {
        let mut heap = heap_of(&[5.0, 4.0, 3.0, 2.0, 1.0, 0.0]);
        assert!(heap.audit("t").is_empty());
        // A leaf re-keyed above the root without a sift.
        let leaf = heap.slots.len() - 1;
        heap.slots[leaf].0 = 9.0;
        let found = heap.audit("t");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("outranks its parent"), "{found:?}");

        // A slot whose node disagrees with `pos`.
        let mut heap = heap_of(&[5.0, 4.0, 3.0]);
        heap.slots[2].1 = 1;
        assert!(!heap.audit("t").is_empty());
    }
}
