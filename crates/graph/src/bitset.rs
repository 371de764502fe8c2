use crate::NodeId;
use std::fmt;

const WORD_BITS: usize = 64;

/// Words per chunk of the word-algebra kernels. Four `u64`s is one
/// 256-bit vector register; the fixed-trip inner loops below compile to
/// straight-line vector code on AVX2-class targets (and two 128-bit ops
/// on NEON) without any explicit SIMD, keeping the crate dependency-free.
const LANES: usize = 4;

/// Applies `op` word-wise (`dst[i] ← op(dst[i], src[i])`) and returns the
/// total popcount of the result — the shared kernel of the in-place set
/// algebra. Fusing the recount into the same pass halves the memory
/// traffic of the old `zip-then-recount` shape.
#[inline]
fn zip_apply_count(dst: &mut [u64], src: &[u64], op: impl Fn(u64, u64) -> u64 + Copy) -> usize {
    debug_assert_eq!(dst.len(), src.len());
    let mut ones = 0usize;
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (dc, sc) in d.by_ref().zip(s.by_ref()) {
        for l in 0..LANES {
            let w = op(dc[l], sc[l]);
            dc[l] = w;
            ones += w.count_ones() as usize;
        }
    }
    for (dw, &sw) in d.into_remainder().iter_mut().zip(s.remainder()) {
        let w = op(*dw, sw);
        *dw = w;
        ones += w.count_ones() as usize;
    }
    ones
}

/// Folds `op` word-wise over two sets and reduces with `|`, short-circuit
/// checking `!= 0` once per chunk — the kernel behind
/// [`NodeSet::is_disjoint`] / [`NodeSet::is_subset`]. The chunk-level
/// early exit keeps the common "hit in the first cache line" cost of the
/// old per-word loop while letting the chunk body vectorize.
#[inline]
fn zip_any_nonzero(a: &[u64], b: &[u64], op: impl Fn(u64, u64) -> u64 + Copy) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (aw, bw) in ac.by_ref().zip(bc.by_ref()) {
        let mut hit = 0u64;
        for l in 0..LANES {
            hit |= op(aw[l], bw[l]);
        }
        if hit != 0 {
            return true;
        }
    }
    ac.remainder()
        .iter()
        .zip(bc.remainder())
        .any(|(&x, &y)| op(x, y) != 0)
}

/// Word-wise popcount reduction of `op` over two sets — the kernel of
/// [`NodeSet::intersection_len`].
#[inline]
fn zip_count(a: &[u64], b: &[u64], op: impl Fn(u64, u64) -> u64 + Copy) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut ones = 0usize;
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (aw, bw) in ac.by_ref().zip(bc.by_ref()) {
        for l in 0..LANES {
            ones += op(aw[l], bw[l]).count_ones() as usize;
        }
    }
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        ones += op(x, y).count_ones() as usize;
    }
    ones
}

/// A dense bitset over the node ids of one graph.
///
/// `NodeSet` is the workhorse of the ISE algorithms: cuts, marks, barrier
/// masks and reachability rows are all `NodeSet`s, so set algebra
/// (union/intersection/difference) runs word-parallel. The capacity is fixed
/// at construction to the node count of the graph the set indexes into.
///
/// ```
/// use isegen_graph::{NodeSet, NodeId};
///
/// let mut set = NodeSet::new(100);
/// set.insert(NodeId::from_index(3));
/// set.insert(NodeId::from_index(64));
/// assert_eq!(set.len(), 2);
/// assert!(set.contains(NodeId::from_index(3)));
/// let ids: Vec<usize> = set.iter().map(|n| n.index()).collect();
/// assert_eq!(ids, vec![3, 64]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct NodeSet {
    words: Vec<u64>,
    capacity: usize,
    len: usize,
}

impl Default for NodeSet {
    /// An empty set of capacity 0 — the placeholder state of pooled
    /// arena buffers before [`NodeSet::reset`] sizes them to a block.
    fn default() -> Self {
        NodeSet::new(0)
    }
}

impl NodeSet {
    /// Creates an empty set able to hold node indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        NodeSet {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
            len: 0,
        }
    }

    /// Creates a set containing every node index in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut set = NodeSet::new(capacity);
        for w in set.words.iter_mut() {
            *w = u64::MAX;
        }
        set.mask_tail();
        set.len = capacity;
        set
    }

    /// Builds a set of the given capacity from an iterator of node ids.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of bounds for `capacity`.
    pub fn from_ids<I: IntoIterator<Item = NodeId>>(capacity: usize, ids: I) -> Self {
        let mut set = NodeSet::new(capacity);
        for id in ids {
            set.insert(id);
        }
        set
    }

    /// Number of node indices this set can hold (`0..capacity`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of nodes currently in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the set contains no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn check(&self, id: NodeId) {
        assert!(
            id.index() < self.capacity,
            "node {id} out of bounds for NodeSet of capacity {}",
            self.capacity
        );
    }

    /// Inserts a node; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds for this set's capacity.
    #[inline]
    pub fn insert(&mut self, id: NodeId) -> bool {
        self.check(id);
        let (w, b) = (id.index() / WORD_BITS, id.index() % WORD_BITS);
        let mask = 1u64 << b;
        let was_absent = self.words[w] & mask == 0;
        self.words[w] |= mask;
        self.len += was_absent as usize;
        was_absent
    }

    /// Removes a node; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds for this set's capacity.
    #[inline]
    pub fn remove(&mut self, id: NodeId) -> bool {
        self.check(id);
        let (w, b) = (id.index() / WORD_BITS, id.index() % WORD_BITS);
        let mask = 1u64 << b;
        let was_present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        self.len -= was_present as usize;
        was_present
    }

    /// Toggles membership of a node; returns `true` if it is now present.
    #[inline]
    pub fn toggle(&mut self, id: NodeId) -> bool {
        if self.contains(id) {
            self.remove(id);
            false
        } else {
            self.insert(id);
            true
        }
    }

    /// Tests membership.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        let idx = id.index();
        if idx >= self.capacity {
            return false;
        }
        self.words[idx / WORD_BITS] & (1u64 << (idx % WORD_BITS)) != 0
    }

    /// Removes every node from the set.
    pub fn clear(&mut self) {
        for w in self.words.iter_mut() {
            *w = 0;
        }
        self.len = 0;
    }

    /// Re-initialises the set as empty with a (possibly different)
    /// capacity, reusing the word buffer — the arena path: resetting to a
    /// capacity the buffer has already held never allocates.
    pub fn reset(&mut self, capacity: usize) {
        self.words.clear();
        self.words.resize(capacity.div_ceil(WORD_BITS), 0);
        self.capacity = capacity;
        self.len = 0;
    }

    /// Makes `self` an exact copy of `other` (capacity included),
    /// reusing the word buffer where possible.
    pub fn copy_from(&mut self, other: &NodeSet) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.capacity = other.capacity;
        self.len = other.len;
    }

    /// Inserts every node index in `0..capacity` — the in-place
    /// counterpart of [`NodeSet::full`].
    pub fn insert_all(&mut self) {
        for w in self.words.iter_mut() {
            *w = u64::MAX;
        }
        self.mask_tail();
        self.len = self.capacity;
    }

    /// In-place union: `self ← self ∪ other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &NodeSet) {
        self.check_same(other);
        self.len = zip_apply_count(&mut self.words, &other.words, |a, b| a | b);
    }

    /// In-place intersection: `self ← self ∩ other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        self.check_same(other);
        self.len = zip_apply_count(&mut self.words, &other.words, |a, b| a & b);
    }

    /// In-place difference: `self ← self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn subtract(&mut self, other: &NodeSet) {
        self.check_same(other);
        self.len = zip_apply_count(&mut self.words, &other.words, |a, b| a & !b);
    }

    /// Returns `true` when the two sets share no node.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn is_disjoint(&self, other: &NodeSet) -> bool {
        self.check_same(other);
        !zip_any_nonzero(&self.words, &other.words, |a, b| a & b)
    }

    /// Returns `true` when the two sets share at least one node.
    ///
    /// Word-parallel with early exit — the fast path for "does this
    /// candidate's hull touch the cut" style queries, which would
    /// otherwise materialise an intersection or count every word.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[inline]
    pub fn intersects(&self, other: &NodeSet) -> bool {
        !self.is_disjoint(other)
    }

    /// The smallest node in both sets, if any: [`NodeSet::intersects`]
    /// that also names a witness of the overlap, with the same
    /// chunked early exit.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn first_common(&self, other: &NodeSet) -> Option<NodeId> {
        self.check_same(other);
        let mut ac = self.words.chunks_exact(LANES);
        let mut bc = other.words.chunks_exact(LANES);
        let mut base = 0usize;
        for (aw, bw) in ac.by_ref().zip(bc.by_ref()) {
            let mut hit = 0u64;
            for l in 0..LANES {
                hit |= aw[l] & bw[l];
            }
            if hit != 0 {
                break;
            }
            base += LANES;
        }
        (base..self.words.len()).find_map(|wi| {
            let w = self.words[wi] & other.words[wi];
            (w != 0).then(|| NodeId::from_index(wi * WORD_BITS + w.trailing_zeros() as usize))
        })
    }

    /// Returns `true` when every node of `self` is also in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        self.check_same(other);
        !zip_any_nonzero(&self.words, &other.words, |a, b| a & !b)
    }

    /// Number of nodes in `self ∩ other` without materialising the result.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersection_len(&self, other: &NodeSet) -> usize {
        self.check_same(other);
        zip_count(&self.words, &other.words, |a, b| a & b)
    }

    /// The smallest node id in the set, if any.
    pub fn first(&self) -> Option<NodeId> {
        self.first_set().map(NodeId::from_index)
    }

    /// The smallest set *index* in the set, if any: the word-level
    /// primitive behind [`NodeSet::first`].
    pub fn first_set(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The smallest set index at or after `from`, if any. Paired with
    /// [`NodeSet::prev_set`] it walks a set as an ordered worklist whose
    /// cursor only moves one way while bits are added ahead of it.
    pub fn next_set(&self, from: usize) -> Option<usize> {
        let mut wi = from / WORD_BITS;
        let mut w = *self.words.get(wi)? & (!0u64 << (from % WORD_BITS));
        loop {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
            wi += 1;
            w = *self.words.get(wi)?;
        }
    }

    /// The largest set index strictly before `before`, if any: the
    /// descending mirror of [`NodeSet::next_set`].
    pub fn prev_set(&self, before: usize) -> Option<usize> {
        let last = before.min(self.capacity).checked_sub(1)?;
        let mut wi = last / WORD_BITS;
        let mut w = self.words[wi] & (!0u64 >> (WORD_BITS - 1 - last % WORD_BITS));
        loop {
            if w != 0 {
                return Some(wi * WORD_BITS + WORD_BITS - 1 - w.leading_zeros() as usize);
            }
            wi = wi.checked_sub(1)?;
            w = self.words[wi];
        }
    }

    /// The `i`-th 64-bit word of the backing storage (bit `b` of word `i`
    /// is node index `64·i + b`). Low-level companion of
    /// [`NodeSet::for_each_word`] for zipping two sets word by word.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words[i]
    }

    /// Unions `bits` into the `i`-th backing word — the write-side
    /// companion of [`NodeSet::word`] for callers that assemble a mask
    /// from several sets' words (`a.word(i) & !b.word(i)`) and fold it
    /// in without materialising a scratch set. `bits` must not address
    /// indices beyond this set's capacity.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn union_word(&mut self, i: usize, bits: u64) {
        debug_assert!(
            i + 1 < self.words.len()
                || self.capacity.is_multiple_of(WORD_BITS)
                || bits & !((1u64 << (self.capacity % WORD_BITS)) - 1) == 0,
            "union_word bits past capacity {}",
            self.capacity
        );
        let w = &mut self.words[i];
        self.len += (bits & !*w).count_ones() as usize;
        *w |= bits;
    }

    /// Number of 64-bit words in the backing storage.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Calls `f(word_index, word)` for every **non-zero** word of the set,
    /// in increasing word order. This is the allocation-free way to walk a
    /// set (or an intersection, by masking with [`NodeSet::word`] of a
    /// second set) without paying per-bit iterator overhead on sparse
    /// sets.
    #[inline]
    pub fn for_each_word(&self, mut f: impl FnMut(usize, u64)) {
        // One OR per chunk decides whether any of its four words need the
        // per-word callback, so sparse sets skip 256 bits per branch.
        let mut chunks = self.words.chunks_exact(LANES);
        let mut wi = 0usize;
        for c in chunks.by_ref() {
            if (c[0] | c[1] | c[2] | c[3]) != 0 {
                for (l, &w) in c.iter().enumerate() {
                    if w != 0 {
                        f(wi + l, w);
                    }
                }
            }
            wi += LANES;
        }
        for (l, &w) in chunks.remainder().iter().enumerate() {
            if w != 0 {
                f(wi + l, w);
            }
        }
    }

    /// Iterates the node ids in the set in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    fn check_same(&self, other: &NodeSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "NodeSet capacity mismatch: {} vs {}",
            self.capacity, other.capacity
        );
    }

    fn mask_tail(&mut self) {
        let tail = self.capacity % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<T: IntoIterator<Item = NodeId>>(&mut self, iter: T) {
        for id in iter {
            self.insert(id);
        }
    }
}

/// Iterator over the node ids of a [`NodeSet`], produced by
/// [`NodeSet::iter`].
pub struct Iter<'a> {
    set: &'a NodeSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(NodeId::from_index(self.word_idx * WORD_BITS + bit));
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new(130);
        assert!(s.insert(id(0)));
        assert!(!s.insert(id(0)));
        assert!(s.insert(id(129)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(id(0)));
        assert!(s.contains(id(129)));
        assert!(!s.contains(id(64)));
        assert!(s.remove(id(0)));
        assert!(!s.remove(id(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn toggle_flips_membership() {
        let mut s = NodeSet::new(8);
        assert!(s.toggle(id(3)));
        assert!(s.contains(id(3)));
        assert!(!s.toggle(id(3)));
        assert!(!s.contains(id(3)));
    }

    #[test]
    fn full_masks_tail_bits() {
        let s = NodeSet::full(70);
        assert_eq!(s.len(), 70);
        assert_eq!(s.iter().count(), 70);
        assert!(s.contains(id(69)));
        assert!(!s.contains(id(70)));
    }

    #[test]
    fn set_algebra() {
        let a = NodeSet::from_ids(10, [id(1), id(2), id(3)]);
        let b = NodeSet::from_ids(10, [id(3), id(4)]);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, NodeSet::from_ids(10, [id(1), id(2), id(3), id(4)]));

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i, NodeSet::from_ids(10, [id(3)]));

        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d, NodeSet::from_ids(10, [id(1), id(2)]));

        assert_eq!(a.intersection_len(&b), 1);
        assert!(!a.is_disjoint(&b));
        assert!(i.is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn first_common_names_the_smallest_shared_node() {
        // Shared bits past the first chunk of four words, and in the
        // tail words after the last whole chunk.
        let a = NodeSet::from_ids(330, [id(5), id(300), id(320)]);
        let b = NodeSet::from_ids(330, [id(6), id(300), id(320)]);
        assert_eq!(a.first_common(&b), Some(id(300)));
        let c = NodeSet::from_ids(330, [id(320)]);
        assert_eq!(a.first_common(&c), Some(id(320)));
        let d = NodeSet::from_ids(330, [id(4), id(70)]);
        assert_eq!(a.first_common(&d), None);
        let e = NodeSet::from_ids(330, [id(5), id(70)]);
        assert_eq!(a.first_common(&e), Some(id(5)));
        assert_eq!(NodeSet::new(0).first_common(&NodeSet::new(0)), None);
    }

    #[test]
    fn disjoint_sets() {
        let a = NodeSet::from_ids(200, [id(0), id(100)]);
        let b = NodeSet::from_ids(200, [id(1), id(199)]);
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn iter_in_order_across_words() {
        let ids = [id(0), id(63), id(64), id(65), id(127), id(128)];
        let s = NodeSet::from_ids(200, ids);
        let collected: Vec<NodeId> = s.iter().collect();
        assert_eq!(collected, ids);
    }

    #[test]
    fn first_and_empty() {
        let mut s = NodeSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
        s.insert(id(77));
        s.insert(id(80));
        assert_eq!(s.first(), Some(id(77)));
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = NodeSet::new(4);
        assert!(!s.contains(id(10)));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn insert_out_of_range_panics() {
        let mut s = NodeSet::new(4);
        s.insert(id(4));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn algebra_capacity_mismatch_panics() {
        let mut a = NodeSet::new(4);
        let b = NodeSet::new(5);
        a.union_with(&b);
    }

    #[test]
    fn extend_collects() {
        let mut s = NodeSet::new(10);
        s.extend([id(1), id(2)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn intersects_agrees_with_is_disjoint() {
        let a = NodeSet::from_ids(200, [id(0), id(100)]);
        let b = NodeSet::from_ids(200, [id(1), id(199)]);
        let c = NodeSet::from_ids(200, [id(100), id(150)]);
        assert!(!a.intersects(&b));
        assert!(a.intersects(&c));
        assert!(c.intersects(&a));
        let empty = NodeSet::new(200);
        assert!(!a.intersects(&empty));
        assert!(!empty.intersects(&empty));
        // exhaustive agreement on a few random-ish patterns
        for shift in 0..8usize {
            let x = NodeSet::from_ids(130, (0..130).step_by(3 + shift).map(id));
            let y = NodeSet::from_ids(130, (1..130).step_by(5).map(id));
            assert_eq!(x.intersects(&y), !x.is_disjoint(&y));
        }
    }

    #[test]
    fn first_set_matches_first() {
        let mut s = NodeSet::new(200);
        assert_eq!(s.first_set(), None);
        s.insert(id(150));
        assert_eq!(s.first_set(), Some(150));
        s.insert(id(64));
        assert_eq!(s.first_set(), Some(64));
        assert_eq!(s.first(), Some(id(64)));
        s.insert(id(0));
        assert_eq!(s.first_set(), Some(0));
    }

    #[test]
    fn next_and_prev_set_match_a_naive_scan() {
        for cap in [1usize, 63, 64, 65, 66, 128, 130] {
            let marks = [0usize, 63, 64, 65, cap - 1];
            let s = NodeSet::from_ids(cap, marks.iter().filter(|&&i| i < cap).map(|&i| id(i)));
            for i in 0..=cap + 1 {
                let next = (i..cap).find(|&j| s.contains(id(j)));
                let prev = (0..i.min(cap)).rev().find(|&j| s.contains(id(j)));
                assert_eq!(s.next_set(i), next, "next_set({i}) at capacity {cap}");
                assert_eq!(s.prev_set(i), prev, "prev_set({i}) at capacity {cap}");
            }
        }
        let empty = NodeSet::new(0);
        assert_eq!(empty.next_set(0), None);
        assert_eq!(empty.prev_set(5), None);
    }

    #[test]
    fn for_each_word_walks_nonzero_words_in_order() {
        let s = NodeSet::from_ids(260, [id(3), id(65), id(66), id(256)]);
        let mut seen = Vec::new();
        s.for_each_word(|wi, w| seen.push((wi, w)));
        assert_eq!(seen, vec![(0, 1u64 << 3), (1, (1 << 1) | (1 << 2)), (4, 1)]);
        // rebuilding the set from the word walk round-trips
        let mut rebuilt = NodeSet::new(260);
        s.for_each_word(|wi, mut w| {
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                rebuilt.insert(id(wi * 64 + b));
            }
        });
        assert_eq!(rebuilt, s);
    }

    #[test]
    fn word_accessors() {
        let s = NodeSet::from_ids(130, [id(0), id(64), id(129)]);
        assert_eq!(s.word_count(), 3);
        assert_eq!(s.word(0), 1);
        assert_eq!(s.word(1), 1);
        assert_eq!(s.word(2), 2);
    }

    #[test]
    fn reset_recapacities_and_empties() {
        let mut s = NodeSet::from_ids(200, [id(3), id(130)]);
        s.reset(64);
        assert_eq!(s.capacity(), 64);
        assert!(s.is_empty());
        s.insert(id(63));
        assert!(s.contains(id(63)));
        // growing again behaves like a fresh set of the larger capacity
        s.reset(300);
        assert_eq!(s.capacity(), 300);
        assert!(s.is_empty());
        s.insert(id(299));
        assert_eq!(s.len(), 1);
        assert_eq!(NodeSet::default().capacity(), 0);
    }

    #[test]
    fn copy_from_matches_assignment() {
        let src = NodeSet::from_ids(150, [id(0), id(64), id(149)]);
        let mut dst = NodeSet::from_ids(17, [id(2)]);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.capacity(), 150);
        assert_eq!(dst.len(), 3);
    }
}
