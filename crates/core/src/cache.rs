//! Gain/probe cache with dirty-set invalidation — the piece that turns
//! the K-L inner loop from "re-probe every free node after every commit"
//! into "re-probe only the nodes whose probe inputs actually changed".
//!
//! A [`crate::ToggleEngine::probe`] result mixes *local* terms (ΔI/ΔO,
//! neighbours in the cut, the longest path through the candidate, the
//! cone-local convexity condition) with *global* terms (the cut's
//! current operand counts, software latency, critical path, component
//! table, the violator gate, the cut's own convexity). The cache stores
//! the local terms per node and recombines them with the engine's
//! current global terms in O(1), so no commit ever flushes the cache.
//!
//! A committed toggle sorts what it may have changed into two classes
//! (`ToggleEngine::toggle_and_mark`):
//!
//! * the **full** class — the toggled node's neighbours, the consumers
//!   of its producers whose I/O terms crossed a threshold, longest-path
//!   moves, the cut members in its cones (and, for the rare leaving
//!   commit, its whole cones). These become dirty and are re-probed for
//!   real on next access;
//! * the **hull-only** class — nodes whose only term that can have
//!   moved is the entering hull bit. Hull growth can only clear it,
//!   and does so with no probe; hull shrink can only set it, and is
//!   settled by re-testing that one term — and only for entries whose
//!   cached witness (the ext node that failed them) has entered the
//!   cut, since a witness still outside keeps failing them. Either way
//!   the entry stays clean.
//!
//! `tests/gain_cache_prop.rs` proves the recombined probes identical to
//! fresh ones after arbitrary toggle sequences.

use crate::engine::{HullMarks, Probe, ToggleEngine};
use crate::{GainWeights, IoConstraints};
use isegen_graph::{NodeId, NodeSet};

/// Per-node cached probe pieces. Only terms that are invariant under
/// *other* nodes' toggles (outside the dirty set) are stored; everything
/// global — operand counts, latencies, the violator gate, the cut's own
/// convexity and size — is re-read from the engine at materialisation
/// time, which is what lets a commit invalidate nothing but cones.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Would the node enter the cut (it is currently software)?
    entering: bool,
    /// ΔI: input count after the toggle minus the current input count.
    di: i32,
    /// ΔO: likewise for outputs.
    dout: i32,
    /// Distinct neighbours currently in the cut (`N(v, C)`).
    neighbors_in_cut: u32,
    /// The *cone-local* half of the convexity test:
    /// [`ToggleEngine::entering_hull_ok`] for entering candidates,
    /// [`ToggleEngine::leaving_local_ok`] for leaving ones. Combined
    /// with the engine's O(1) global gate at materialisation time.
    local_convex: bool,
    /// Entering only: longest hardware path through the candidate
    /// (`max up(preds∩C) + delay + max down(succs∩C)`).
    through: f64,
    /// Entering entries that fail the hull test: the ext node that
    /// failed it ([`ToggleEngine::entering_hull_witness`]), or `None`
    /// when not known. While the witness stays outside the cut the
    /// entry still fails, so hull shrink need not re-test it.
    hull_witness: Option<NodeId>,
}

impl Entry {
    fn entering_terms(&self) -> EnteringTerms {
        EnteringTerms {
            di: self.di,
            dout: self.dout,
            neighbors_in_cut: self.neighbors_in_cut,
            local_convex: self.local_convex,
            through: self.through,
        }
    }
}

const CLEAN_SLATE: Entry = Entry {
    entering: true,
    di: 0,
    dout: 0,
    neighbors_in_cut: 0,
    local_convex: false,
    through: 0.0,
    hull_witness: None,
};

/// Probe-count statistics of a [`GainCache`] (and, summed, of a whole
/// K-L search): how many probes hit the cache vs. ran fresh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered by recombining cached local terms (O(1)).
    pub cached_probes: u64,
    /// Probes that ran the full O(deg + n/64) engine evaluation.
    pub fresh_probes: u64,
    /// Committed toggles routed through the cache.
    pub commits: u64,
    /// K-L portfolio trajectories merged into this result.
    pub trajectories: u64,
    /// Trajectory setups served from a warm [`crate::SearchScratch`]
    /// arena: engine and cache buffers were reused, not allocated.
    pub arena_reuses: u64,
    /// Trajectory setups that had to build their arena buffers fresh
    /// (at most one per portfolio worker per process in steady state).
    pub arena_allocs: u64,
    /// Heap slots visited by the selection walk. Every visited slot but
    /// a skipped sole violator costs one exact cached-gain evaluation,
    /// so the queue's win condition is this staying ≪
    /// candidates-per-commit.
    pub queue_pops: u64,
    /// Re-keys after commits: one per unmarked entering candidate in a
    /// commit's `touched` set ([`GainCache::commit_tracked`]) — its
    /// full-class delta plus the nodes whose cached hull bit flipped.
    pub queue_reinsertions: u64,
    /// Hull-only re-tests after commits: one per hull-witness search in
    /// [`GainCache::commit_tracked`]'s hull-shrink loop — the clean
    /// entries whose cached witness entered the cut. They are neither
    /// fresh nor cached probes.
    pub hull_retests: u64,
    /// Invariant audits executed (zero unless audit mode is on —
    /// `tests/audit_mode.rs` pins this to prove the disabled path does
    /// no audit work).
    pub audit_checks: u64,
}

/// The cached per-node gain terms of an entering candidate, as returned
/// by [`GainCache::entering_terms`] — the raw material of the
/// selection queue's frame-free heap keys.
#[derive(Debug, Clone, Copy)]
pub struct EnteringTerms {
    /// ΔI: input count after the toggle minus the current input count.
    pub di: i32,
    /// ΔO: likewise for outputs.
    pub dout: i32,
    /// Distinct neighbours currently in the cut (`N(v, C)`).
    pub neighbors_in_cut: u32,
    /// Cone-local half of the entering-convexity test.
    pub local_convex: bool,
    /// Longest hardware path through the candidate.
    pub through: f64,
}

impl CacheStats {
    /// Fraction of probes avoided (answered from cache), in `[0, 1]`.
    pub fn avoided_fraction(&self) -> f64 {
        let total = self.cached_probes + self.fresh_probes;
        if total == 0 {
            0.0
        } else {
            self.cached_probes as f64 / total as f64
        }
    }

    /// Accumulates another stats block into this one.
    pub fn absorb(&mut self, other: CacheStats) {
        self.cached_probes += other.cached_probes;
        self.fresh_probes += other.fresh_probes;
        self.commits += other.commits;
        self.trajectories += other.trajectories;
        self.arena_reuses += other.arena_reuses;
        self.arena_allocs += other.arena_allocs;
        self.queue_pops += other.queue_pops;
        self.queue_reinsertions += other.queue_reinsertions;
        self.hull_retests += other.hull_retests;
        self.audit_checks += other.audit_checks;
    }
}

/// The dirty-set gain cache. One instance serves one [`ToggleEngine`]
/// trajectory; route every committed toggle through
/// [`GainCache::commit_tracked`] so invalidation stays in sync.
#[derive(Debug)]
pub struct GainCache {
    entries: Vec<Entry>,
    dirty: NodeSet,
    /// The clean entering entries whose `local_convex` is set — the
    /// word-level mirror the hull-only class is settled against.
    hull_ok: NodeSet,
    /// Hull-only marks of the latest commit, kept so a commit
    /// allocates nothing.
    hull: HullMarks,
    stats: CacheStats,
}

impl Default for GainCache {
    /// An empty cache for a zero-node block — the placeholder state of a
    /// pooled arena before [`GainCache::reset`] sizes it to a block.
    fn default() -> Self {
        GainCache::new(0)
    }
}

impl GainCache {
    /// Creates a cache for blocks of `n` nodes, with every node dirty.
    pub fn new(n: usize) -> Self {
        GainCache {
            entries: vec![CLEAN_SLATE; n],
            dirty: NodeSet::full(n),
            hull_ok: NodeSet::new(n),
            hull: HullMarks::default(),
            stats: CacheStats::default(),
        }
    }

    /// Re-initialises the cache for a block of `n` nodes, reusing the
    /// entry and dirty-set allocations — the arena path of
    /// [`crate::SearchScratch`]. Clears the statistics; absorb
    /// [`GainCache::stats`] first if they matter.
    pub fn reset(&mut self, n: usize) {
        self.entries.clear();
        self.entries.resize(n, CLEAN_SLATE);
        self.dirty.reset(n);
        self.dirty.insert_all();
        self.hull_ok.reset(n);
        self.stats = CacheStats::default();
    }

    /// Commits a toggle through the engine and brings the cache up to
    /// date with it, never flushing the whole cache: the full class of
    /// the commit becomes dirty (re-probed on next access), and the
    /// hull-only class is settled in place — hull growth clears the
    /// hull bit of the clean entries it reaches with no probe, hull
    /// shrink re-tests just the hull term of the clean entries whose
    /// bit was clear and whose witness has entered the cut.
    ///
    /// `touched` (reset to the cache's capacity first) receives the
    /// full-class delta plus the nodes whose cached hull bit actually
    /// flipped — exactly the nodes whose cached terms may differ, so
    /// the selection queue re-keys those and no others. Returns `true`
    /// when the node entered the cut.
    pub fn commit_tracked(
        &mut self,
        engine: &mut ToggleEngine<'_, '_>,
        v: NodeId,
        touched: &mut NodeSet,
    ) -> bool {
        self.stats.commits += 1;
        let n = self.entries.len();
        touched.reset(n);
        self.hull.reset(n);
        engine.toggle_and_mark(v, touched, &mut self.hull);
        self.dirty.union_with(touched);
        self.hull_ok.subtract(touched);

        // Hull growth: `hull_ok` holds only clean entering entries, so
        // its overlap with the growth cones is exactly the set of bits
        // that flip to false.
        let (entries, hull_ok) = (&mut self.entries, &mut self.hull_ok);
        self.hull.lost.for_each_word(|wi, w| {
            let flips = w & hull_ok.word(wi);
            for_each_bit(wi, flips, |u| {
                entries[u].local_convex = false;
                hull_ok.remove(NodeId::from_index(u));
            });
            touched.union_word(wi, flips);
        });

        // Hull shrink: clean entering entries (outside the cut) whose
        // bit is clear may have regained it — unless their witness is
        // still outside the cut, and so still fails them.
        let (cut, dirty) = (engine.cut(), &self.dirty);
        let retests = &mut self.stats.hull_retests;
        self.hull.regained.for_each_word(|wi, w| {
            let candidates = w & !hull_ok.word(wi) & !dirty.word(wi) & !cut.word(wi);
            let mut flips = 0u64;
            for_each_bit(wi, candidates, |u| {
                let e = &mut entries[u];
                if e.hull_witness.is_some_and(|w| !cut.contains(w)) {
                    return;
                }
                *retests += 1;
                e.hull_witness = engine.entering_hull_witness(NodeId::from_index(u));
                if e.hull_witness.is_none() {
                    e.local_convex = true;
                    flips |= 1 << (u % 64);
                }
            });
            hull_ok.union_word(wi, flips);
            touched.union_word(wi, flips);
        });
        engine.cut().contains(v)
    }

    /// The probe of `v` against the engine's current cut: recombined
    /// from cached local terms when clean, freshly evaluated (and
    /// re-cached) when dirty. Always equal to `engine.probe(v)`.
    pub fn probe(&mut self, engine: &ToggleEngine<'_, '_>, v: NodeId) -> Probe {
        let vi = v.index();
        if self.dirty.remove(v) {
            let e = fresh_entry(engine, v);
            self.entries[vi] = e;
            if e.entering && e.local_convex {
                self.hull_ok.insert(v);
            }
            self.stats.fresh_probes += 1;
        } else {
            self.stats.cached_probes += 1;
        }
        let e = self.entries[vi];
        let ctx = engine.ctx();
        let inputs = engine.input_count() as i32 + e.di;
        let outputs = engine.output_count() as i32 + e.dout;
        debug_assert!(inputs >= 0 && outputs >= 0, "cached io went negative");
        let sw = ctx.sw_cycles(v) as u64;
        let (convex, merit, other_components_hw) = if e.entering {
            // Global violator gate fresh, cone-local hull term cached —
            // together exactly `ToggleEngine::convex_after(v, entering)`.
            let convex = engine.entering_gate(v) && e.local_convex;
            let merit = if convex {
                let sw2 = engine.software_latency() + sw;
                let hw2 = engine.hardware_latency().max(e.through);
                sw2 as f64 - hw2
            } else {
                0.0
            };
            (convex, merit, 0.0)
        } else {
            let convex = engine.is_convex() && (engine.cut().len() <= 1 || e.local_convex);
            let merit = if convex {
                let sw2 = engine.software_latency() - sw;
                sw2 as f64 - engine.hardware_latency()
            } else {
                0.0
            };
            (convex, merit, engine.other_components_hw(v))
        };
        Probe {
            entering: e.entering,
            inputs: inputs as u32,
            outputs: outputs as u32,
            convex,
            merit,
            neighbors_in_cut: e.neighbors_in_cut,
            other_components_hw,
        }
    }

    /// The gain of toggling `v`, from the cached-or-fresh probe.
    pub fn gain(
        &mut self,
        engine: &ToggleEngine<'_, '_>,
        weights: &GainWeights,
        io: IoConstraints,
        v: NodeId,
    ) -> f64 {
        let probe = self.probe(engine, v);
        weights.combine(engine.ctx(), io, v, &probe)
    }

    /// The cached per-node terms of an **entering** node's gain —
    /// everything in the recombination that is *not* a global engine
    /// count or latency — refreshed from a live probe first if `v` is
    /// dirty. The selection queue builds its frame-free heap keys
    /// from these: together with the per-step global offsets they bound
    /// the exact [`GainCache::gain`] from above.
    pub fn entering_terms(&mut self, engine: &ToggleEngine<'_, '_>, v: NodeId) -> EnteringTerms {
        if self.dirty.contains(v) {
            let _ = self.probe(engine, v);
        } else {
            self.stats.cached_probes += 1;
        }
        let e = self.entries[v.index()];
        debug_assert!(e.entering, "key terms are entering-only");
        e.entering_terms()
    }

    /// The cached [`EnteringTerms`] of `v` without probing or counting:
    /// `None` when `v` is dirty or cached as a leaving candidate. Audit
    /// mode checks the selection queue's keys against these.
    pub(crate) fn cached_entering_terms(&self, v: NodeId) -> Option<EnteringTerms> {
        let e = &self.entries[v.index()];
        (e.entering && !self.dirty.contains(v)).then(|| e.entering_terms())
    }

    /// Probe-count statistics accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Audit-mode cross-check: re-derives every *clean* entry's local
    /// terms from a fresh engine probe and reports each field that
    /// diverges from what the cache would recombine with.
    ///
    /// An empty result means every cached probe the search could read
    /// right now is identical to a from-scratch evaluation. Dirty nodes
    /// are skipped — they are re-probed on next access by construction.
    pub fn audit_divergences(&self, engine: &ToggleEngine<'_, '_>) -> Vec<String> {
        let mut out = Vec::new();
        for (vi, e) in self.entries.iter().enumerate() {
            let v = NodeId::from_index(vi);
            if self.dirty.contains(v) {
                continue;
            }
            let fresh = fresh_entry(engine, v);
            if e.entering != fresh.entering {
                out.push(format!(
                    "cache n{vi}: entering {} != fresh {}",
                    e.entering, fresh.entering
                ));
            }
            if e.di != fresh.di {
                out.push(format!("cache n{vi}: di {} != fresh {}", e.di, fresh.di));
            }
            if e.dout != fresh.dout {
                out.push(format!(
                    "cache n{vi}: dout {} != fresh {}",
                    e.dout, fresh.dout
                ));
            }
            if e.neighbors_in_cut != fresh.neighbors_in_cut {
                out.push(format!(
                    "cache n{vi}: neighbors_in_cut {} != fresh {}",
                    e.neighbors_in_cut, fresh.neighbors_in_cut
                ));
            }
            if e.local_convex != fresh.local_convex {
                out.push(format!(
                    "cache n{vi}: local_convex {} != fresh {}",
                    e.local_convex, fresh.local_convex
                ));
            }
            if (e.through - fresh.through).abs() > 1e-9 {
                out.push(format!(
                    "cache n{vi}: through {} != fresh {}",
                    e.through, fresh.through
                ));
            }
            if let Some(w) = e.hull_witness {
                if !engine.cut().contains(w) && !engine.hull_witness_holds(v, w) {
                    out.push(format!(
                        "cache n{vi}: hull witness n{} outside the cut no longer fails it",
                        w.index()
                    ));
                }
            }
            if self.hull_ok.contains(v) != (e.entering && e.local_convex) {
                out.push(format!(
                    "cache n{vi}: hull_ok bit {} disagrees with its entry",
                    self.hull_ok.contains(v)
                ));
            }
        }
        out
    }

    /// Counts one executed audit in the statistics.
    pub(crate) fn note_audit(&mut self) {
        self.stats.audit_checks += 1;
    }

    /// Deliberately perturbs the cached `di` of a *clean* entry, so
    /// tests can prove [`GainCache::audit_divergences`] actually
    /// detects corruption. Returns `false` (and does nothing) when the
    /// node is out of range or dirty. Test scaffolding, not API.
    #[doc(hidden)]
    pub fn corrupt_entry_for_test(&mut self, v: NodeId) -> bool {
        if v.index() >= self.entries.len() || self.dirty.contains(v) {
            return false;
        }
        self.entries[v.index()].di += 1;
        true
    }
}

/// The local probe terms of `v` against the engine's current cut,
/// each cone term evaluated exactly once.
fn fresh_entry(engine: &ToggleEngine<'_, '_>, v: NodeId) -> Entry {
    let entering = !engine.cut().contains(v);
    let (inputs, outputs) = engine.io_after(v, entering);
    let hull_witness = if entering {
        engine.entering_hull_witness(v)
    } else {
        None
    };
    Entry {
        entering,
        di: inputs as i32 - engine.input_count() as i32,
        dout: outputs as i32 - engine.output_count() as i32,
        neighbors_in_cut: engine.distinct_neighbors_in_cut(v),
        local_convex: if entering {
            hull_witness.is_none()
        } else {
            engine.leaving_local_ok(v)
        },
        through: if entering {
            engine.entering_through(v)
        } else {
            0.0
        },
        hull_witness,
    }
}

/// Calls `f` with the node index of every set bit of `bits`, the
/// `wi`-th word of a node set, in ascending order.
fn for_each_bit(wi: usize, mut bits: u64, mut f: impl FnMut(usize)) {
    while bits != 0 {
        f(wi * 64 + bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{local_terms, shrink_block, wide_block};
    use crate::BlockContext;
    use isegen_ir::{BasicBlock, BlockBuilder, LatencyModel, Opcode};

    #[test]
    fn cached_probes_match_fresh_on_dotprod() {
        let mut b = BlockBuilder::new("dot");
        let (a, b_, c, d) = (b.input("a"), b.input("b"), b.input("c"), b.input("d"));
        let m1 = b.op(Opcode::Mul, &[a, b_]).unwrap();
        let m2 = b.op(Opcode::Mul, &[c, d]).unwrap();
        let add = b.op(Opcode::Add, &[m1, m2]).unwrap();
        let block = b.build().unwrap();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let n = ctx.node_count();
        let nodes: Vec<_> = block.dag().node_ids().collect();

        let mut engine = ToggleEngine::new(&ctx);
        let mut cache = GainCache::new(n);
        let mut touched = NodeSet::new(n);
        for &v in &[m1, add, m2, m1, m2] {
            // Warm the cache, commit, then require cached ≡ fresh.
            for &u in &nodes {
                let _ = cache.probe(&engine, u);
            }
            cache.commit_tracked(&mut engine, v, &mut touched);
            for &u in &nodes {
                let cached = cache.probe(&engine, u);
                let fresh = engine.probe(u);
                assert_eq!(cached, fresh, "probe mismatch at {u} after toggling {v}");
            }
        }
        let stats = cache.stats();
        assert!(stats.cached_probes > 0, "cache never hit: {stats:?}");
        assert_eq!(stats.commits, 5);
    }

    /// `touched` is exactly the full class of the commit plus the nodes
    /// whose hull bit flipped — every hull-only mark that reaches the
    /// selection queue is a real change, and every change reaches it.
    /// A twin engine replays the toggles through
    /// `ToggleEngine::toggle_and_mark` to expose the full class.
    /// Returns the cache's `hull_retests` count over the toggles.
    fn check_touched_is_full_plus_hull_flips(block: &BasicBlock, toggles: &[NodeId]) -> u64 {
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(block, &model);
        let n = ctx.node_count();
        let nodes: Vec<_> = block.dag().node_ids().collect();
        let mut engine = ToggleEngine::new(&ctx);
        let mut twin = ToggleEngine::new(&ctx);
        let mut cache = GainCache::new(n);
        let mut touched = NodeSet::new(n);
        let mut full = NodeSet::new(n);
        let mut hull = HullMarks::default();
        for &v in toggles {
            for &u in &nodes {
                let _ = cache.probe(&engine, u);
            }
            let before: Vec<_> = nodes.iter().map(|&u| local_terms(&engine, u).0).collect();
            cache.commit_tracked(&mut engine, v, &mut touched);
            full.reset(n);
            hull.reset(n);
            twin.toggle_and_mark(v, &mut full, &mut hull);
            for (&u, hull_before) in nodes.iter().zip(&before) {
                let flipped = !full.contains(u) && local_terms(&engine, u).0 != *hull_before;
                assert_eq!(
                    touched.contains(u),
                    full.contains(u) || flipped,
                    "touched disagrees at {u} after toggling {v} (full: {}, hull flip: {flipped})",
                    full.contains(u)
                );
            }
            assert_eq!(cache.audit_divergences(&engine), Vec::<String>::new());
            for &u in &nodes {
                assert_eq!(cache.probe(&engine, u), engine.probe(u), "probe of {u}");
            }
        }
        cache.stats().hull_retests
    }

    #[test]
    fn touched_is_the_full_class_plus_hull_flips() {
        let mut b = BlockBuilder::new("dot");
        let (a, b_, c, d) = (b.input("a"), b.input("b"), b.input("c"), b.input("d"));
        let m1 = b.op(Opcode::Mul, &[a, b_]).unwrap();
        let m2 = b.op(Opcode::Mul, &[c, d]).unwrap();
        let add = b.op(Opcode::Add, &[m1, m2]).unwrap();
        let block = b.build().unwrap();
        check_touched_is_full_plus_hull_flips(&block, &[m1, add, m2, m1, m2, add]);

        let (block, toggles) = shrink_block();
        assert!(
            check_touched_is_full_plus_hull_flips(&block, &toggles) > 0,
            "only a witness re-test can regain the shrink block's hull bit"
        );

        let block = wide_block();
        let model = LatencyModel::paper_default();
        let ops: Vec<NodeId> = BlockContext::new(&block, &model)
            .eligible()
            .iter()
            .collect();
        let toggles: Vec<NodeId> = (0..80).map(|i| ops[(i * 37 + i / 7) % ops.len()]).collect();
        check_touched_is_full_plus_hull_flips(&block, &toggles);
    }

    #[test]
    fn stats_absorb_and_fraction() {
        let mut a = CacheStats {
            cached_probes: 3,
            fresh_probes: 1,
            commits: 2,
            trajectories: 1,
            arena_reuses: 0,
            arena_allocs: 1,
            queue_pops: 4,
            queue_reinsertions: 2,
            hull_retests: 7,
            audit_checks: 1,
        };
        let b = CacheStats {
            cached_probes: 1,
            fresh_probes: 3,
            commits: 1,
            trajectories: 2,
            arena_reuses: 2,
            arena_allocs: 0,
            queue_pops: 6,
            queue_reinsertions: 3,
            hull_retests: 5,
            audit_checks: 1,
        };
        a.absorb(b);
        assert_eq!(a.cached_probes, 4);
        assert_eq!(a.fresh_probes, 4);
        assert_eq!(a.commits, 3);
        assert_eq!(a.trajectories, 3);
        assert_eq!(a.arena_reuses, 2);
        assert_eq!(a.arena_allocs, 1);
        assert_eq!(a.queue_pops, 10);
        assert_eq!(a.queue_reinsertions, 5);
        assert_eq!(a.hull_retests, 12);
        assert_eq!(a.audit_checks, 2);
        assert!((a.avoided_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().avoided_fraction(), 0.0);
    }

    #[test]
    fn reset_behaves_like_a_fresh_cache() {
        let mut b = BlockBuilder::new("pair");
        let (x, y) = (b.input("x"), b.input("y"));
        let m = b.op(Opcode::Mul, &[x, y]).unwrap();
        let a = b.op(Opcode::Add, &[m, m]).unwrap();
        let block = b.build().unwrap();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let n = ctx.node_count();
        let nodes: Vec<_> = block.dag().node_ids().collect();

        let mut engine = ToggleEngine::new(&ctx);
        let mut cache = GainCache::new(n);
        let mut touched = NodeSet::new(n);
        for &u in &nodes {
            let _ = cache.probe(&engine, u);
        }
        cache.commit_tracked(&mut engine, m, &mut touched);
        cache.commit_tracked(&mut engine, a, &mut touched);
        assert!(cache.stats().commits == 2);

        // Reset onto a fresh engine: stats cleared, every probe fresh
        // again, and cached ≡ fresh still holds afterwards.
        let mut engine = ToggleEngine::new(&ctx);
        cache.reset(n);
        assert_eq!(cache.stats(), CacheStats::default());
        for &u in &nodes {
            let _ = cache.probe(&engine, u);
        }
        assert_eq!(cache.stats().fresh_probes, nodes.len() as u64);
        assert_eq!(cache.stats().cached_probes, 0);
        cache.commit_tracked(&mut engine, a, &mut touched);
        for &u in &nodes {
            assert_eq!(cache.probe(&engine, u), engine.probe(u));
        }
    }
}
