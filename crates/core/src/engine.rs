use crate::{BlockContext, Cut, IoConstraints};
use isegen_graph::components::OUTSIDE;
use isegen_graph::{NodeId, NodeSet};

/// Incremental hardware/software partition state — the paper's §4.3
/// toggle-impact machinery.
///
/// The paper maintains per-node input/output *addendums* (ΔI, ΔO, Fig. 3)
/// so that toggling a node between software (S) and hardware (H) updates
/// the cut's operand counts in O(deg) instead of a full recount. This
/// implementation expresses the same bookkeeping with an equivalent
/// counter scheme:
///
/// * `fanout_to_cut[p]` — number of edges from `p` into cut nodes. The
///   cut's **input count** is the number of nodes outside the cut with
///   `fanout_to_cut > 0` (distinct producers feeding the cut).
/// * A cut node is an **output** when it has at least one consumer outside
///   the cut or is live-out of the block.
///
/// Equivalence with a from-scratch recount is enforced by property tests
/// (`tests/engine_prop.rs`), substituting for the rule-table proofs the
/// paper defers to its technical report.
///
/// Commits refresh the heavier derived state *incrementally*: both
/// directions recompute longest-path values only for the cut nodes whose
/// value actually moves, and record what changed in the hull masks; an
/// entering toggle extends those masks by one word-level union and
/// merges component labels, a leaving toggle rebuilds the masks and
/// components from the cut in O(|C|·(deg + n/64)). Neither path walks the
/// whole graph or allocates. Per-*candidate* probes cost O(deg + n/64)
/// with no scratch-set writes.
#[derive(Debug)]
pub struct ToggleEngine<'c, 'a> {
    ctx: &'c BlockContext<'a>,
    cut: NodeSet,
    fanout_to_cut: Vec<u32>,
    /// Number of edges from in-cut producers into each node — the
    /// consumer-side mirror of `fanout_to_cut`.
    indeg_from_cut: Vec<u32>,
    /// `{p : fanout_to_cut[p] > 0}` as a word-parallel set.
    feeds_cut: NodeSet,
    /// `{u : indeg_from_cut[u] > 0}` as a word-parallel set.
    fed_by_cut: NodeSet,
    input_count: u32,
    output_count: u32,
    sw_sum: u64,
    up: Vec<f64>,
    down: Vec<f64>,
    critical: f64,
    /// Union of `descendants(w)` over cut nodes `w`.
    below: NodeSet,
    /// Union of `ancestors(w)` over cut nodes `w`.
    above: NodeSet,
    /// `below \ cut` — hull floor outside the cut; entering-convexity
    /// probes test membership against it word-parallel.
    below_ext: NodeSet,
    /// `above \ cut` — hull ceiling outside the cut.
    above_ext: NodeSet,
    /// `below ∩ above \ cut` — the convexity violators of the *current*
    /// cut (empty iff the cut is convex).
    violators: NodeSet,
    convex_now: bool,
    comp_label: Vec<u32>,
    comp_count: usize,
    comp_cp: Vec<f64>,
    comp_cp_total: f64,
    // Reusable buffers: committed toggles never allocate.
    order_scratch: Vec<NodeId>,
    order_scratch_b: Vec<NodeId>,
    queue_scratch: Vec<NodeId>,
    // Commit-delta capture for precision cache invalidation
    // (`toggle_and_mark`): populated by every refresh. The hull deltas
    // hold the bits an entering commit added to `below`/`above`, or the
    // bits a leaving commit removed from `below_ext`/`above_ext`.
    hull_delta_below: Vec<(usize, u64)>,
    hull_delta_above: Vec<(usize, u64)>,
    changed_up: Vec<NodeId>,
    changed_down: Vec<NodeId>,
    /// Worklist of the longest-path propagation
    /// ([`ToggleEngine::refresh_entering`]): the set bits on the far side
    /// of its cursor.
    bfs_visited: NodeSet,
}

/// The owned buffers of a [`ToggleEngine`], detached from any block —
/// the engine half of a reusable search arena.
///
/// A K-L trajectory needs ~a dozen node-sized buffers; allocating them
/// per trajectory dominated setup cost on large blocks. Instead, workers
/// keep an `EngineArena` alive across trajectories *and blocks*:
/// [`ToggleEngine::from_cut_in`] moves the buffers into an engine and
/// resizes them to the block (allocation-free once the arena has seen a
/// block at least as large), and [`ToggleEngine::into_arena`] moves them
/// back out when the trajectory ends.
#[derive(Debug, Default)]
pub(crate) struct EngineArena {
    cut: NodeSet,
    fanout_to_cut: Vec<u32>,
    indeg_from_cut: Vec<u32>,
    feeds_cut: NodeSet,
    fed_by_cut: NodeSet,
    up: Vec<f64>,
    down: Vec<f64>,
    below: NodeSet,
    above: NodeSet,
    below_ext: NodeSet,
    above_ext: NodeSet,
    violators: NodeSet,
    comp_label: Vec<u32>,
    comp_cp: Vec<f64>,
    order_scratch: Vec<NodeId>,
    order_scratch_b: Vec<NodeId>,
    queue_scratch: Vec<NodeId>,
    hull_delta_below: Vec<(usize, u64)>,
    hull_delta_above: Vec<(usize, u64)>,
    changed_up: Vec<NodeId>,
    changed_down: Vec<NodeId>,
    bfs_visited: NodeSet,
}

/// The hull-only marks of one commit, entering or leaving
/// ([`ToggleEngine::toggle_and_mark`]): nodes whose only cone-local
/// probe term that can have moved is the entering hull bit
/// ([`ToggleEngine::entering_hull_ok`]), by the one direction each rule
/// can move it in.
#[derive(Debug, Default)]
pub(crate) struct HullMarks {
    /// Hull growth on the floor side: nodes outside the cut that joined
    /// `below_ext`. Each fails `entering_hull_ok` for every non-cut
    /// descendant, and is its witness — settled with no probe.
    pub(crate) lost_below: Vec<NodeId>,
    /// Hull growth on the ceiling side: nodes outside the cut that
    /// joined `above_ext`, failing every non-cut ancestor.
    pub(crate) lost_above: Vec<NodeId>,
    /// Hull shrink: nodes whose failing `entering_hull_ok` may have
    /// turned true — settled by re-testing just that term, and only
    /// where the cached witness of the failure no longer holds
    /// ([`ToggleEngine::hull_witness_holds`]).
    pub(crate) regained: NodeSet,
}

impl HullMarks {
    /// Empties the marks for a block of `n` nodes.
    pub(crate) fn reset(&mut self, n: usize) {
        self.lost_below.clear();
        self.lost_above.clear();
        self.regained.reset(n);
    }
}

/// Number of edges from `p` in the operand list `preds`.
fn mult(preds: &[NodeId], p: NodeId) -> usize {
    preds.iter().filter(|&&q| q == p).count()
}

/// Records in `delta` the bits of `a` that are not in `b`, word by
/// word, as `(word index, bits)`.
fn capture_difference(a: &NodeSet, b: &NodeSet, delta: &mut Vec<(usize, u64)>) {
    delta.clear();
    a.for_each_word(|wi, w| {
        let only_a = w & !b.word(wi);
        if only_a != 0 {
            delta.push((wi, only_a));
        }
    });
}

/// The predicted effect of toggling one node, produced by
/// [`ToggleEngine::probe`]. Feed it to the gain function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// `true` when the node would move S → H (join the cut).
    pub entering: bool,
    /// Input operand count of the cut after the toggle.
    pub inputs: u32,
    /// Output operand count of the cut after the toggle.
    pub outputs: u32,
    /// Convexity of the cut after the toggle. Exact for entering moves
    /// and for leaving moves out of a convex cut; pessimistically `false`
    /// for leaving moves out of a non-convex cut (the merit component is
    /// zero for non-convex cuts anyway, per §4.2).
    pub convex: bool,
    /// Estimated merit `λ_sw − λ_hw` of the cut after the toggle; `0.0`
    /// when `convex` is false (paper §4.2). The hardware critical path is
    /// exact for entering moves and conservative (an upper bound) for
    /// leaving moves.
    pub merit: f64,
    /// Number of distinct neighbours of the node currently in the cut
    /// (the paper's `N(v, C)` affinity input).
    pub neighbors_in_cut: u32,
    /// For a leaving move: the summed hardware critical paths of the
    /// *other* connected components of the cut (the paper's
    /// independent-cuts input). `0.0` for entering moves.
    pub other_components_hw: f64,
}

impl<'c, 'a> ToggleEngine<'c, 'a> {
    /// Starts from the all-software configuration (empty cut).
    pub fn new(ctx: &'c BlockContext<'a>) -> Self {
        Self::from_cut(ctx, NodeSet::new(ctx.node_count()))
    }

    /// Starts from an existing cut (e.g. the best cut of the previous
    /// K-L pass).
    ///
    /// # Panics
    ///
    /// Panics if `cut`'s capacity does not match the block.
    pub fn from_cut(ctx: &'c BlockContext<'a>, cut: NodeSet) -> Self {
        Self::from_cut_in(ctx, &cut, EngineArena::default())
    }

    /// [`ToggleEngine::from_cut`] reusing the buffers of `arena` instead
    /// of allocating fresh ones — the arena path of the K-L portfolio.
    /// Pair with [`ToggleEngine::into_arena`] to recover the buffers.
    ///
    /// # Panics
    ///
    /// Panics if `cut`'s capacity does not match the block.
    pub(crate) fn from_cut_in(
        ctx: &'c BlockContext<'a>,
        cut: &NodeSet,
        arena: EngineArena,
    ) -> Self {
        let mut engine = ToggleEngine {
            ctx,
            cut: arena.cut,
            fanout_to_cut: arena.fanout_to_cut,
            indeg_from_cut: arena.indeg_from_cut,
            feeds_cut: arena.feeds_cut,
            fed_by_cut: arena.fed_by_cut,
            input_count: 0,
            output_count: 0,
            sw_sum: 0,
            up: arena.up,
            down: arena.down,
            critical: 0.0,
            below: arena.below,
            above: arena.above,
            below_ext: arena.below_ext,
            above_ext: arena.above_ext,
            violators: arena.violators,
            convex_now: true,
            comp_label: arena.comp_label,
            comp_count: 0,
            comp_cp: arena.comp_cp,
            comp_cp_total: 0.0,
            order_scratch: arena.order_scratch,
            order_scratch_b: arena.order_scratch_b,
            queue_scratch: arena.queue_scratch,
            hull_delta_below: arena.hull_delta_below,
            hull_delta_above: arena.hull_delta_above,
            changed_up: arena.changed_up,
            changed_down: arena.changed_down,
            bfs_visited: arena.bfs_visited,
        };
        engine.reset_from_cut(cut);
        engine
    }

    /// Initialises this engine's pooled buffers from `cut` — the tail
    /// of [`ToggleEngine::from_cut_in`].
    ///
    /// # Panics
    ///
    /// Panics if `cut`'s capacity does not match the block.
    pub(crate) fn reset_from_cut(&mut self, cut: &NodeSet) {
        let n = self.ctx.node_count();
        assert_eq!(cut.capacity(), n, "cut capacity does not match block");
        self.cut.copy_from(cut);
        self.fanout_to_cut.clear();
        self.fanout_to_cut.resize(n, 0);
        self.indeg_from_cut.clear();
        self.indeg_from_cut.resize(n, 0);
        self.feeds_cut.reset(n);
        self.fed_by_cut.reset(n);
        let dag = self.ctx.block().dag();
        for v in self.cut.iter() {
            for &p in dag.preds(v) {
                self.fanout_to_cut[p.index()] += 1;
                self.feeds_cut.insert(p);
            }
            for &s in dag.succs(v) {
                self.indeg_from_cut[s.index()] += 1;
                self.fed_by_cut.insert(s);
            }
        }
        self.up.clear();
        self.up.resize(n, 0.0);
        self.down.clear();
        self.down.resize(n, 0.0);
        self.below.reset(n);
        self.above.reset(n);
        self.below_ext.reset(n);
        self.above_ext.reset(n);
        self.violators.reset(n);
        self.convex_now = true;
        self.comp_label.clear();
        self.comp_label.resize(n, OUTSIDE);
        self.comp_count = 0;
        self.comp_cp.clear();
        self.comp_cp_total = 0.0;
        self.critical = 0.0;
        self.order_scratch.clear();
        self.order_scratch_b.clear();
        self.queue_scratch.clear();
        self.hull_delta_below.clear();
        self.hull_delta_above.clear();
        self.changed_up.clear();
        self.changed_down.clear();
        self.bfs_visited.reset(n);
        self.recount_io();
        self.refresh_full();
    }

    /// Dismantles the engine, returning its buffers for reuse by a later
    /// [`ToggleEngine::from_cut_in`].
    pub(crate) fn into_arena(self) -> EngineArena {
        EngineArena {
            cut: self.cut,
            fanout_to_cut: self.fanout_to_cut,
            indeg_from_cut: self.indeg_from_cut,
            feeds_cut: self.feeds_cut,
            fed_by_cut: self.fed_by_cut,
            up: self.up,
            down: self.down,
            below: self.below,
            above: self.above,
            below_ext: self.below_ext,
            above_ext: self.above_ext,
            violators: self.violators,
            comp_label: self.comp_label,
            comp_cp: self.comp_cp,
            order_scratch: self.order_scratch,
            order_scratch_b: self.order_scratch_b,
            queue_scratch: self.queue_scratch,
            hull_delta_below: self.hull_delta_below,
            hull_delta_above: self.hull_delta_above,
            changed_up: self.changed_up,
            changed_down: self.changed_down,
            bfs_visited: self.bfs_visited,
        }
    }

    /// The block context this engine searches.
    #[inline]
    pub fn ctx(&self) -> &'c BlockContext<'a> {
        self.ctx
    }

    /// The current cut.
    #[inline]
    pub fn cut(&self) -> &NodeSet {
        &self.cut
    }

    /// Current input operand count.
    #[inline]
    pub fn input_count(&self) -> u32 {
        self.input_count
    }

    /// Current output operand count.
    #[inline]
    pub fn output_count(&self) -> u32 {
        self.output_count
    }

    /// Whether the current cut is convex (exact).
    #[inline]
    pub fn is_convex(&self) -> bool {
        self.convex_now
    }

    /// Software latency of the current cut, in cycles.
    #[inline]
    pub fn software_latency(&self) -> u64 {
        self.sw_sum
    }

    /// Hardware critical path of the current cut, in MAC units (exact).
    #[inline]
    pub fn hardware_latency(&self) -> f64 {
        self.critical
    }

    /// Exact merit `λ_sw − λ_hw` of the current cut.
    #[inline]
    pub fn merit(&self) -> f64 {
        self.sw_sum as f64 - self.critical
    }

    /// Whether the current cut is a *legal* ISE: non-empty, convex and
    /// within the port budget.
    pub fn is_legal(&self, io: IoConstraints) -> bool {
        !self.cut.is_empty() && self.convex_now && io.admits(self.input_count, self.output_count)
    }

    /// Takes an exact [`Cut`] snapshot of the current state.
    pub fn snapshot(&self) -> Cut {
        Cut::from_parts(
            self.cut.clone(),
            self.input_count,
            self.output_count,
            self.sw_sum,
            self.critical,
        )
    }

    /// Predicts the effect of toggling `v` without committing it.
    ///
    /// O(deg(v) + n/64), allocation-free and read-only.
    pub fn probe(&self, v: NodeId) -> Probe {
        let entering = !self.cut.contains(v);
        let (inputs, outputs) = self.io_after(v, entering);
        let convex = self.convex_after(v, entering);
        let merit = if convex {
            let sw2 = if entering {
                self.sw_sum + self.ctx.sw_cycles(v) as u64
            } else {
                self.sw_sum - self.ctx.sw_cycles(v) as u64
            };
            let hw2 = self.critical_after(v, entering);
            sw2 as f64 - hw2
        } else {
            0.0
        };
        let neighbors_in_cut = self.distinct_neighbors_in_cut(v);
        let other_components_hw = if entering {
            0.0
        } else {
            self.other_components_hw(v)
        };
        Probe {
            entering,
            inputs,
            outputs,
            convex,
            merit,
            neighbors_in_cut,
            other_components_hw,
        }
    }

    /// Toggles `v` between software and hardware, updating all state.
    ///
    /// Returns `true` when `v` entered the cut.
    pub fn toggle(&mut self, v: NodeId) -> bool {
        let entering = !self.cut.contains(v);
        let (inputs, outputs) = self.io_after(v, entering);
        let dag = self.ctx.block().dag();
        if entering {
            self.cut.insert(v);
            for &p in dag.preds(v) {
                self.fanout_to_cut[p.index()] += 1;
                self.feeds_cut.insert(p);
            }
            for &s in dag.succs(v) {
                self.indeg_from_cut[s.index()] += 1;
                self.fed_by_cut.insert(s);
            }
            self.sw_sum += self.ctx.sw_cycles(v) as u64;
        } else {
            self.cut.remove(v);
            for &p in dag.preds(v) {
                let pi = p.index();
                self.fanout_to_cut[pi] -= 1;
                if self.fanout_to_cut[pi] == 0 {
                    self.feeds_cut.remove(p);
                }
            }
            for &s in dag.succs(v) {
                let si = s.index();
                self.indeg_from_cut[si] -= 1;
                if self.indeg_from_cut[si] == 0 {
                    self.fed_by_cut.remove(s);
                }
            }
            self.sw_sum -= self.ctx.sw_cycles(v) as u64;
        }
        self.input_count = inputs;
        self.output_count = outputs;
        if entering {
            self.refresh_entering(v);
        } else {
            self.refresh_leaving(v);
        }
        entering
    }

    /// Toggles `v` and accumulates the invalidation marks of the K-L
    /// gain cache ([`crate::GainCache`]) for this commit, split by which
    /// cached cone-local probe term can have moved:
    ///
    /// * `full` — nodes any of whose terms may differ from before the
    ///   commit; the cache re-probes them in full;
    /// * `hull` — nodes whose *only* term that can have moved is the
    ///   entering hull bit ([`ToggleEngine::entering_hull_ok`]), by the
    ///   direction it can move in ([`HullMarks`]). The cache settles
    ///   them without a probe.
    ///
    /// Every *global* probe input — operand counts, latencies, component
    /// tables, the violator gate ([`ToggleEngine::entering_gate`]), the
    /// cut's own convexity and size — is O(1)-readable from the engine
    /// and re-read at recombination time, so no commit ever needs a mass
    /// invalidation, and the marks only have to cover the cached
    /// cone-local terms. For entering and leaving commits alike they are
    /// assembled *exactly* from the state the refresh just touched,
    /// instead of the full `anc(v) ∪ desc(v)` cones (which cover most of
    /// a deep block like AES). Into `full`:
    ///
    /// * adjacency — `{v}` and `v`'s neighbours (ΔI/ΔO and `N(v,C)`
    ///   terms), plus the consumers `u` of each producer `p` of `v`
    ///   whose ΔI/ΔO reads `p`'s cut-directed edge count across a
    ///   threshold the commit crossed
    ///   ([`ToggleEngine::mark_shared_producer`]);
    /// * longest paths — neighbours of cut nodes whose `up`/`down`
    ///   values actually moved (`entering_through` reads them);
    /// * leave terms — cut members inside `v`'s cones
    ///   (`leaving_local_ok` reads `cut ∩ anc/desc(u)`, which gained or
    ///   lost `v`).
    ///
    /// Into `hull` — the hull term reads `anc(u) ∩ below_ext` and
    /// `desc(u) ∩ above_ext`, so it can only be lost where an ext mask
    /// gained a bit, and only regained where one lost a bit:
    ///
    /// * entering, hull growth (`hull.lost_below`/`lost_above`) — each
    ///   node the commit *actually added* to a hull mask (captured
    ///   word-level during the union), outside the cut: a new
    ///   floor/ceiling member `x` makes every non-cut
    ///   descendant/ancestor of `x` fail `entering_hull_ok` outright,
    ///   with `x` as the witness;
    /// * entering, hull shrink (`hull.regained`) — `v` itself left
    ///   `below_ext`/`above_ext`; that can turn `entering_hull_ok(u)`
    ///   true only where the intersection was exactly `{v}`, which
    ///   forces every `v → u` path interior into the cut — so `u` is a
    ///   non-cut descendant/ancestor of `v` with an in-cut neighbour, a
    ///   superset three word-ops per word wide (`desc(v) ∩ fed_by_cut \
    ///   cut`, resp. `anc ∩ feeds_cut \ cut`);
    /// * leaving, hull shrink (`hull.regained`) — the cones of the bits
    ///   that left `below_ext`/`above_ext` (captured word-level by the
    ///   rebuild): descendants of a lost floor bit, ancestors of a lost
    ///   ceiling bit;
    /// * leaving, hull growth (`hull.lost_below`/`lost_above`) — `v`
    ///   itself joined `below_ext` (resp. `above_ext`), so its non-cut
    ///   descendants (resp. ancestors) fail outright, with `v` as the
    ///   witness.
    ///
    /// `tests/gain_cache_prop.rs` and the exhaustive sweeps below hold
    /// all of this to account: a node outside `full` has unchanged
    /// non-hull terms, a node outside `full ∪ hull` an unchanged hull
    /// term.
    pub(crate) fn toggle_and_mark(&mut self, v: NodeId, full: &mut NodeSet, hull: &mut HullMarks) {
        let was_below_ext = self.below_ext.contains(v);
        let was_above_ext = self.above_ext.contains(v);
        let entering = self.toggle(v);

        let reach = self.ctx.reach();
        let dag = self.ctx.block().dag();
        // Adjacency: v and its neighbours.
        full.insert(v);
        for &s in dag.succs(v) {
            full.insert(s);
        }
        let preds = dag.preds(v);
        for &p in preds {
            full.insert(p);
        }

        // Shared producers: consumers of each distinct producer whose
        // I/O terms read it across a threshold this commit crossed.
        for (i, &p) in preds.iter().enumerate() {
            if !preds[..i].contains(&p) {
                self.mark_shared_producer(p, mult(preds, p), entering, full);
            }
        }

        if entering {
            // Hull growth: the apexes of the new `below`/`above` bits
            // outside the cut (cut members never sit in the ext masks).
            self.for_each_delta_apex(v, true, |x| hull.lost_below.push(x));
            self.for_each_delta_apex(v, false, |x| hull.lost_above.push(x));

            // Hull shrink: v left the ext masks. The affected nodes sit
            // at the non-cut frontier of cut-interior paths from v —
            // every one is a descendant (resp. ancestor) of v, outside
            // the cut, with an in-cut producer (resp. consumer). That
            // superset is three word-ops per word, with no per-commit
            // walk of the cut.
            if was_below_ext {
                let fed = &self.fed_by_cut;
                let cut = &self.cut;
                reach.descendants(v).for_each_word(|wi, w| {
                    let m = w & fed.word(wi) & !cut.word(wi);
                    if m != 0 {
                        hull.regained.union_word(wi, m);
                    }
                });
            }
            if was_above_ext {
                let feeds = &self.feeds_cut;
                let cut = &self.cut;
                reach.ancestors(v).for_each_word(|wi, w| {
                    let m = w & feeds.word(wi) & !cut.word(wi);
                    if m != 0 {
                        hull.regained.union_word(wi, m);
                    }
                });
            }
        } else {
            // Hull shrink: the cones of the bits that left an ext mask,
            // one per apex.
            self.for_each_delta_apex(v, true, |x| hull.regained.union_with(reach.descendants(x)));
            self.for_each_delta_apex(v, false, |x| hull.regained.union_with(reach.ancestors(x)));
            // Hull growth: v rejoined the ext masks it now sits in.
            if self.below_ext.contains(v) {
                hull.lost_below.push(v);
            }
            if self.above_ext.contains(v) {
                hull.lost_above.push(v);
            }
        }

        // Longest-path moves: `entering_through(u)` reads the up/down
        // values of u's in-cut neighbours.
        for &w in &self.changed_up {
            for &s in dag.succs(w) {
                full.insert(s);
            }
        }
        for &w in &self.changed_down {
            for &p in dag.preds(w) {
                full.insert(p);
            }
        }

        // Leave terms: cut members in v's cones see `cut ∩ anc/desc`
        // gain or lose v.
        {
            let cut = &self.cut;
            reach.descendants(v).for_each_word(|wi, w| {
                let m = w & cut.word(wi);
                if m != 0 {
                    full.union_word(wi, m);
                }
            });
            reach.ancestors(v).for_each_word(|wi, w| {
                let m = w & cut.word(wi);
                if m != 0 {
                    full.union_word(wi, m);
                }
            });
        }
    }

    /// Calls `f` with each apex of the latest commit's hull delta outside
    /// the cut, `D`, on the `below` side (else the `above` side): the
    /// nodes of `D` with no predecessor (successor) in `D`. Every other
    /// node of `D` is a descendant (ancestor) of an apex, so the apexes'
    /// cones cover the cones of all of `D`.
    ///
    /// `D` lies in `v`'s cone on that side, and a neighbour `p` on the
    /// path back to `v` of a node `x ∈ D` is in `D` iff it is in that
    /// cone and outside the cut: an entering commit adds `x` to `below`
    /// only if `p` was not there already, and a leaving one removes `x`
    /// only if no remaining cut member reaches `p`. So the apex test is
    /// O(deg) bit tests, with no set of `D` built.
    fn for_each_delta_apex(&self, v: NodeId, below: bool, mut f: impl FnMut(NodeId)) {
        let reach = self.ctx.reach();
        let dag = self.ctx.block().dag();
        let (delta, cone) = if below {
            (&self.hull_delta_below, reach.descendants(v))
        } else {
            (&self.hull_delta_above, reach.ancestors(v))
        };
        let in_delta = |p: &NodeId| cone.contains(*p) && !self.cut.contains(*p);
        for &(wi, mut bits) in delta {
            bits &= !self.cut.word(wi);
            while bits != 0 {
                let x = NodeId::from_index(wi * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
                let back = if below { dag.preds(x) } else { dag.succs(x) };
                if !back.iter().any(in_delta) {
                    f(x);
                }
            }
        }
    }

    /// Marks the consumers `u` of producer `p` whose ΔI/ΔO terms read
    /// `p` differently after a commit that moved `mult_v` edges from `p`
    /// across the cut boundary (see [`ToggleEngine::io_after`]). With
    /// `f` the count of `p`'s cut-directed edges while `v` is *outside*
    /// the cut, and `o` the count of `p`'s edges to non-cut nodes while
    /// `v` is *inside* it:
    ///
    /// * `p ∉ C` — an entering `u` counts `p` as a new supplier iff
    ///   `fanout_to_cut[p] == 0`, which flips iff `f == 0`; an in-cut
    ///   `u ≠ v` drops `p` as a supplier iff `fanout_to_cut[p] ==
    ///   mult(p,u)`, which holds on the `v`-outside side only, and
    ///   flips iff `f == mult(p,u)`.
    /// * `p ∈ C`, not live-out — an entering `u ≠ v` retires `p` as an
    ///   output iff `p`'s escaping edge count equals `mult(p,u)`, which
    ///   holds on the `v`-inside side only, and flips iff `o ==
    ///   mult(p,u)`; an in-cut `u` revives it iff that count is 0, which
    ///   flips iff `o == 0`.
    ///
    /// `v` itself is in the adjacency marks either way.
    fn mark_shared_producer(&self, p: NodeId, mult_v: usize, entering: bool, full: &mut NodeSet) {
        let dag = self.ctx.block().dag();
        let fanout = self.fanout_to_cut[p.index()] as usize;
        let (outside_v, inside_v) = if entering {
            (fanout - mult_v, fanout)
        } else {
            (fanout, fanout + mult_v)
        };
        if !self.cut.contains(p) {
            for &u in dag.succs(p) {
                if outside_v == 0 || (self.cut.contains(u) && mult(dag.preds(u), p) == outside_v) {
                    full.insert(u);
                }
            }
        } else if !self.ctx.block().is_live_out(p) {
            let escaping = dag.out_degree(p) - inside_v;
            for &u in dag.succs(p) {
                let hit = if self.cut.contains(u) {
                    escaping == 0
                } else {
                    mult(dag.preds(u), p) == escaping
                };
                if hit {
                    full.insert(u);
                }
            }
        }
    }

    // ----- incremental pieces ------------------------------------------

    /// Input/output counts after toggling `v`, derived in O(deg(v)) from
    /// the maintained counters — the ΔI/ΔO addendum scheme of Fig. 3.
    pub(crate) fn io_after(&self, v: NodeId, entering: bool) -> (u32, u32) {
        let dag = self.ctx.block().dag();
        let block = self.ctx.block();
        let vi = v.index();
        let mut inp = self.input_count as i64;
        let mut out = self.output_count as i64;
        let outside_v = dag.out_degree(v) as u32 - self.fanout_to_cut[vi];
        let v_escapes = outside_v > 0 || block.is_live_out(v);
        if entering {
            // v stops being an outside supplier of the cut.
            if self.fanout_to_cut[vi] > 0 {
                inp -= 1;
            }
            // v becomes an output if its value escapes the cut.
            if v_escapes {
                out += 1;
            }
        } else {
            // v resumes being an outside supplier if it feeds cut nodes.
            if self.fanout_to_cut[vi] > 0 {
                inp += 1;
            }
            // v stops being an output.
            if v_escapes {
                out -= 1;
            }
        }
        let preds = dag.preds(v);
        for (i, &p) in preds.iter().enumerate() {
            if preds[..i].contains(&p) {
                continue; // count each distinct producer once
            }
            let mult = mult(preds, p) as u32;
            let pi = p.index();
            if self.cut.contains(p) {
                let outside_p = dag.out_degree(p) as u32 - self.fanout_to_cut[pi];
                if entering {
                    // p's edges to v become internal; if v was p's only
                    // escape and p is not live-out, p stops being an output.
                    if outside_p == mult && !block.is_live_out(p) {
                        out -= 1;
                    }
                } else {
                    // p's edges to v become external; if p had no escape
                    // before and is not live-out, it becomes an output.
                    if outside_p == 0 && !block.is_live_out(p) {
                        out += 1;
                    }
                }
            } else if entering {
                // p becomes a supplier if it was not one already.
                if self.fanout_to_cut[pi] == 0 {
                    inp += 1;
                }
            } else {
                // p stops being a supplier if v consumed all of p's
                // cut-directed edges.
                if self.fanout_to_cut[pi] == mult {
                    inp -= 1;
                }
            }
        }
        debug_assert!(inp >= 0 && out >= 0, "io counters went negative");
        (inp as u32, out as u32)
    }

    /// Convexity after toggling `v`. Exact for entering moves (the union
    /// masks extend monotonically); exact for leaving a convex cut (the
    /// only possible new violation passes through `v`); pessimistic
    /// `false` when leaving a non-convex cut.
    ///
    /// Split into a *global gate* (O(1) reads of the violator set /
    /// cut convexity / cut size, re-evaluated fresh by the gain cache at
    /// every recombination) and a *cone-local* condition (cached, only
    /// invalidated by toggles within `v`'s cones) — the decomposition
    /// that lets [`ToggleEngine::toggle_and_mark`] avoid mass
    /// invalidation entirely.
    fn convex_after(&self, v: NodeId, entering: bool) -> bool {
        if entering {
            self.entering_gate(v) && self.entering_hull_ok(v)
        } else if self.convex_now {
            self.cut.len() <= 1 || self.leaving_local_ok(v)
        } else {
            false
        }
    }

    /// The global half of the entering-convexity test: the violators of
    /// the *current* cut (`below ∩ above \ cut`) must already be `⊆ {v}`.
    /// O(1).
    #[inline]
    pub(crate) fn entering_gate(&self, v: NodeId) -> bool {
        match self.violators.len() {
            0 => true,
            1 => self.violators.contains(v),
            _ => false,
        }
    }

    /// The cone-local half of the entering-convexity test: `v`'s cones
    /// must not touch the hull outside the cut. This is the fused
    /// word-level form of `((below ∪ desc(v)) ∩ (above ∪ anc(v))) \ cut
    /// \ {v} = ∅`: distributing the intersection and dropping the empty
    /// `desc(v) ∩ anc(v)` term leaves exactly the two maintained-set
    /// conditions below — no scratch sets are materialised.
    pub(crate) fn entering_hull_ok(&self, v: NodeId) -> bool {
        self.entering_hull_witness(v).is_none()
    }

    /// The node that fails [`ToggleEngine::entering_hull_ok`] for `v`:
    /// the smallest of `anc(v) ∩ below_ext`, else of `desc(v) ∩
    /// above_ext`; `None` when `v` passes. The gain cache keeps it as a
    /// hint: while [`ToggleEngine::hull_witness_holds`] it keeps failing
    /// `v`, so hull shrink re-tests a failing entry only once its
    /// witness has left the ext masks — by entering the cut, or by a
    /// leaving commit shrinking the hull.
    pub(crate) fn entering_hull_witness(&self, v: NodeId) -> Option<NodeId> {
        let reach = self.ctx.reach();
        reach
            .ancestors(v)
            .first_common(&self.below_ext)
            .or_else(|| reach.descendants(v).first_common(&self.above_ext))
    }

    /// Whether `w`, an ancestor or descendant of `v`, still fails the
    /// entering hull test of `v`: it sits in `anc(v) ∩ below_ext` or in
    /// `desc(v) ∩ above_ext`. Every witness is such a relative, and node
    /// ids are a topological order, so the side is `w < v` and the test
    /// is one bit, with no read of the reachability rows.
    pub(crate) fn hull_witness_holds(&self, v: NodeId, w: NodeId) -> bool {
        let reach = self.ctx.reach();
        debug_assert!(
            reach.ancestors(v).contains(w) || reach.descendants(v).contains(w),
            "witness {w} is no relative of {v}"
        );
        if w.index() < v.index() {
            self.below_ext.contains(w)
        } else {
            self.above_ext.contains(w)
        }
    }

    /// The cone-local half of the leaving-convexity test: out of a
    /// convex cut of ≥ 2 nodes, removing `v` opens a hole iff `v` has
    /// both an in-cut ancestor and an in-cut descendant.
    pub(crate) fn leaving_local_ok(&self, v: NodeId) -> bool {
        let reach = self.ctx.reach();
        !(reach.ancestors(v).intersects(&self.cut) && reach.descendants(v).intersects(&self.cut))
    }

    /// Longest hardware path that would pass *through* `v` if it entered
    /// the cut: `max(up over cut preds) + delay(v) + max(down over cut
    /// succs)`. The gain cache stores this per candidate; it only changes
    /// when a neighbouring cut node's longest-path value moves.
    pub(crate) fn entering_through(&self, v: NodeId) -> f64 {
        let dag = self.ctx.block().dag();
        let mut up_in = 0.0f64;
        for &p in dag.preds(v) {
            if self.cut.contains(p) && self.up[p.index()] > up_in {
                up_in = self.up[p.index()];
            }
        }
        let mut down_in = 0.0f64;
        for &s in dag.succs(v) {
            if self.cut.contains(s) && self.down[s.index()] > down_in {
                down_in = self.down[s.index()];
            }
        }
        up_in + self.ctx.hw_delay(v) + down_in
    }

    /// Hardware critical path after toggling `v`. Exact for entering
    /// moves (any new longest path must pass through `v`, and `up`/`down`
    /// are exact within the current cut); for leaving moves it returns
    /// the current critical path (an upper bound when `v` lies on it,
    /// exact otherwise).
    fn critical_after(&self, v: NodeId, entering: bool) -> f64 {
        if entering {
            self.critical.max(self.entering_through(v))
        } else {
            self.critical
        }
    }

    /// Summed critical paths of the components of the cut *other* than
    /// the one containing cut member `v`. O(1).
    pub(crate) fn other_components_hw(&self, v: NodeId) -> f64 {
        let label = self.comp_label[v.index()];
        debug_assert_ne!(label, OUTSIDE, "leaving node must be labelled");
        self.comp_cp_total - self.comp_cp[label as usize]
    }

    pub(crate) fn distinct_neighbors_in_cut(&self, v: NodeId) -> u32 {
        let dag = self.ctx.block().dag();
        let preds = dag.preds(v);
        let succs = dag.succs(v);
        let mut count = 0u32;
        for (i, &p) in preds.iter().enumerate() {
            if self.cut.contains(p) && !preds[..i].contains(&p) {
                count += 1;
            }
        }
        for (i, &s) in succs.iter().enumerate() {
            if self.cut.contains(s) && !succs[..i].contains(&s) && !preds.contains(&s) {
                count += 1;
            }
        }
        count
    }

    /// Full recount of I/O from the cut alone — initialisation and the
    /// reference the property tests compare the incremental path against.
    fn recount_io(&mut self) {
        let dag = self.ctx.block().dag();
        let block = self.ctx.block();
        let mut inputs = 0u32;
        let mut outputs = 0u32;
        let mut sw = 0u64;
        for v in dag.node_ids() {
            let vi = v.index();
            if self.cut.contains(v) {
                sw += self.ctx.sw_cycles(v) as u64;
                let outside = dag.out_degree(v) as u32 - self.fanout_to_cut[vi];
                if outside > 0 || block.is_live_out(v) {
                    outputs += 1;
                }
            } else if self.fanout_to_cut[vi] > 0 {
                inputs += 1;
            }
        }
        self.input_count = inputs;
        self.output_count = outputs;
        self.sw_sum = sw;
    }

    // ----- committed-toggle refresh ------------------------------------

    /// Refresh after `v` *entered* the cut. The reachability masks grow
    /// by one word-level union each; longest-path values are recomputed
    /// only for cut nodes in `desc(v)` / `anc(v)`; components merge by
    /// label. No full-graph walk, no allocation (buffers are reused).
    fn refresh_entering(&mut self, v: NodeId) {
        let ctx = self.ctx;
        let reach = ctx.reach();
        // Word-zip capture of the bits `v`'s cones are about to add
        // to the hull masks — the *exact* growth of `below`/`above`,
        // from which `toggle_and_mark` derives its invalidation set.
        capture_difference(
            reach.descendants(v),
            &self.below,
            &mut self.hull_delta_below,
        );
        capture_difference(reach.ancestors(v), &self.above, &mut self.hull_delta_above);
        self.below.union_with(reach.descendants(v));
        self.above.union_with(reach.ancestors(v));

        // Longest paths: only cut nodes downstream/upstream of v whose
        // value actually moves are recomputed.
        self.recompute_up(v);
        self.propagate_up(v);
        self.recompute_down(v);
        self.propagate_down(v);

        // Components: v attaches to the components of its cut neighbours.
        let dag = ctx.block().dag();
        let mut first_label = OUTSIDE;
        let mut merges = false;
        for &w in dag.preds(v).iter().chain(dag.succs(v)) {
            let l = self.comp_label[w.index()];
            if l == OUTSIDE {
                continue;
            }
            if first_label == OUTSIDE {
                first_label = l;
            } else if l != first_label {
                merges = true;
                break;
            }
        }
        if merges {
            // Label renumbering invalidates the per-component maxima.
            self.rebuild_components();
            self.rebuild_comp_cp();
        } else {
            if first_label == OUTSIDE {
                self.comp_label[v.index()] = self.comp_count as u32;
                self.comp_count += 1;
                self.comp_cp.push(0.0);
            } else {
                self.comp_label[v.index()] = first_label;
            }
            // Entering only lengthens paths, so the per-component
            // critical paths are maxima that can only grow — and only
            // at v or at a node whose `up`/`down` moved. Fold exactly
            // those in; the totals are then re-reduced over the (small)
            // per-component table, reproducing `rebuild_comp_cp`'s
            // results bit for bit without the full cut walk.
            for i in 0..=self.changed_up.len() + self.changed_down.len() {
                let w = if i == 0 {
                    v
                } else if i <= self.changed_up.len() {
                    self.changed_up[i - 1]
                } else {
                    self.changed_down[i - 1 - self.changed_up.len()]
                };
                let wi = w.index();
                let through = self.up[wi] + self.down[wi] - self.ctx.hw_delay(w);
                let slot = &mut self.comp_cp[self.comp_label[wi] as usize];
                if through > *slot {
                    *slot = through;
                }
            }
            self.comp_cp_total = self.comp_cp.iter().sum();
            self.critical = self.comp_cp.iter().fold(0.0f64, |a, &b| a.max(b));
        }
        self.refresh_derived_masks();
    }

    /// Refresh after `v` *left* the cut: cut-local rebuild of the hull
    /// masks and components (removal can shrink hulls and split
    /// components), with the bits that leave `below_ext`/`above_ext`
    /// captured word-level for `toggle_and_mark`, and the longest-path
    /// propagation of the entering refresh. O(|C|·(deg+n/64)),
    /// allocation-free.
    fn refresh_leaving(&mut self, v: NodeId) {
        let ctx = self.ctx;
        let vi = v.index();
        self.up[vi] = 0.0;
        self.down[vi] = 0.0;
        self.comp_label[vi] = OUTSIDE;

        let reach = ctx.reach();
        self.below.clear();
        self.above.clear();
        for w in self.cut.iter() {
            self.below.union_with(reach.descendants(w));
            self.above.union_with(reach.ancestors(w));
        }
        // The ext masks still hold the old cut's hull; v was in that
        // cut, so a bit leaves an ext mask exactly when it leaves the
        // rebuilt hull mask.
        capture_difference(&self.below_ext, &self.below, &mut self.hull_delta_below);
        capture_difference(&self.above_ext, &self.above, &mut self.hull_delta_above);

        self.propagate_up(v);
        self.propagate_down(v);

        self.rebuild_components();
        self.rebuild_comp_cp();
        self.refresh_derived_masks();
    }

    /// Re-derives `up` for the cut nodes downstream of `v`, the node
    /// just toggled (its own value already set), recording every node
    /// whose value moved in `changed_up`. Starting from v's in-cut
    /// successors, a node's in-cut successors are queued only when its
    /// value moved. Node ids are a topological order and every push
    /// lands on the far side of the cursor, so walking the queued bits
    /// in ascending order recomputes a node only after all of its moved
    /// predecessors settled — each affected node exactly once, with
    /// values identical to the full sweep.
    fn propagate_up(&mut self, v: NodeId) {
        let dag = self.ctx.block().dag();
        self.changed_up.clear();
        self.bfs_visited.reset(self.ctx.node_count());
        for &s in dag.succs(v) {
            if self.cut.contains(s) {
                self.bfs_visited.insert(s);
            }
        }
        let mut cursor = v.index();
        while let Some(wi) = self.bfs_visited.next_set(cursor + 1) {
            cursor = wi;
            let w = NodeId::from_index(wi);
            let old = self.up[wi];
            self.recompute_up(w);
            if self.up[wi] != old {
                self.changed_up.push(w);
                for &s in dag.succs(w) {
                    if self.cut.contains(s) {
                        self.bfs_visited.insert(s);
                    }
                }
            }
        }
    }

    /// The upstream mirror of [`ToggleEngine::propagate_up`]: `down`
    /// values, walked in descending id order, into `changed_down`.
    fn propagate_down(&mut self, v: NodeId) {
        let dag = self.ctx.block().dag();
        self.changed_down.clear();
        self.bfs_visited.reset(self.ctx.node_count());
        for &p in dag.preds(v) {
            if self.cut.contains(p) {
                self.bfs_visited.insert(p);
            }
        }
        let mut cursor = v.index();
        while let Some(wi) = self.bfs_visited.prev_set(cursor) {
            cursor = wi;
            let w = NodeId::from_index(wi);
            let old = self.down[wi];
            self.recompute_down(w);
            if self.down[wi] != old {
                self.changed_down.push(w);
                for &p in dag.preds(w) {
                    if self.cut.contains(p) {
                        self.bfs_visited.insert(p);
                    }
                }
            }
        }
    }

    /// Relabels the cut's components in the canonical order of a fresh
    /// build and recomputes their critical paths and sum. The labels an
    /// incremental merge leaves behind can differ from that order, and
    /// the summed critical path is a float sum in label order, so a
    /// rollback ends here to leave every gain bit-identical to an engine
    /// built from the same cut. O(|C|·deg).
    pub(crate) fn relabel_components(&mut self) {
        self.rebuild_components();
        self.rebuild_comp_cp();
    }

    /// Full derived-state rebuild, used at construction time only (the
    /// commit paths above maintain everything incrementally).
    fn refresh_full(&mut self) {
        let reach = self.ctx.reach();
        self.below.clear();
        self.above.clear();
        for v in self.cut.iter() {
            self.below.union_with(reach.descendants(v));
            self.above.union_with(reach.ancestors(v));
        }
        self.order_scratch.clear();
        self.order_scratch.extend(self.cut.iter());
        let members = std::mem::take(&mut self.order_scratch);
        for &w in &members {
            self.recompute_up(w);
        }
        for &w in members.iter().rev() {
            self.recompute_down(w);
        }
        self.order_scratch = members;
        self.rebuild_components();
        self.rebuild_comp_cp();
        self.refresh_derived_masks();
    }

    /// Recomputes `up[w]` from `w`'s in-cut predecessors (which must
    /// already be current).
    fn recompute_up(&mut self, w: NodeId) {
        let dag = self.ctx.block().dag();
        let mut best = 0.0f64;
        for &p in dag.preds(w) {
            if self.cut.contains(p) && self.up[p.index()] > best {
                best = self.up[p.index()];
            }
        }
        self.up[w.index()] = best + self.ctx.hw_delay(w);
    }

    /// Recomputes `down[w]` from `w`'s in-cut successors (which must
    /// already be current).
    fn recompute_down(&mut self, w: NodeId) {
        let dag = self.ctx.block().dag();
        let mut best = 0.0f64;
        for &s in dag.succs(w) {
            if self.cut.contains(s) && self.down[s.index()] > best {
                best = self.down[s.index()];
            }
        }
        self.down[w.index()] = best + self.ctx.hw_delay(w);
    }

    /// Relabels the connected components of the cut by BFS over cut
    /// members only (undirected, as in the paper's "independently
    /// connected subgraphs"). O(|C|·deg), reusing the queue buffer.
    fn rebuild_components(&mut self) {
        let dag = self.ctx.block().dag();
        // Reset labels of cut members; non-members hold OUTSIDE already.
        self.order_scratch_b.clear();
        self.order_scratch_b.extend(self.cut.iter());
        let members = std::mem::take(&mut self.order_scratch_b);
        for &w in &members {
            self.comp_label[w.index()] = OUTSIDE;
        }
        let mut count = 0usize;
        for &start in &members {
            if self.comp_label[start.index()] != OUTSIDE {
                continue;
            }
            let comp = count as u32;
            count += 1;
            self.comp_label[start.index()] = comp;
            self.queue_scratch.clear();
            self.queue_scratch.push(start);
            while let Some(v) = self.queue_scratch.pop() {
                for &w in dag.preds(v).iter().chain(dag.succs(v)) {
                    if self.cut.contains(w) && self.comp_label[w.index()] == OUTSIDE {
                        self.comp_label[w.index()] = comp;
                        self.queue_scratch.push(w);
                    }
                }
            }
        }
        self.order_scratch_b = members;
        self.comp_count = count;
    }

    /// Recomputes per-component critical paths, their sum, and the cut's
    /// overall critical path from the (current) `up`/`down` arrays and
    /// component labels. O(|C|).
    fn rebuild_comp_cp(&mut self) {
        self.comp_cp.clear();
        self.comp_cp.resize(self.comp_count, 0.0);
        for v in self.cut.iter() {
            let vi = v.index();
            let through = self.up[vi] + self.down[vi] - self.ctx.hw_delay(v);
            let slot = &mut self.comp_cp[self.comp_label[vi] as usize];
            if through > *slot {
                *slot = through;
            }
        }
        self.comp_cp_total = self.comp_cp.iter().sum();
        self.critical = self.comp_cp.iter().fold(0.0f64, |a, &b| a.max(b));
    }

    /// Recomputes `below_ext`, `above_ext` and the violator set from the
    /// hull masks and the cut. O(n/64).
    fn refresh_derived_masks(&mut self) {
        self.below_ext.clone_from(&self.below);
        self.below_ext.subtract(&self.cut);
        self.above_ext.clone_from(&self.above);
        self.above_ext.subtract(&self.cut);
        self.violators.clone_from(&self.below_ext);
        self.violators.intersect_with(&self.above_ext);
        self.convex_now = self.violators.is_empty();
    }

    /// Number of connected components of the current cut.
    pub fn component_count(&self) -> usize {
        self.comp_count
    }

    /// Audit-mode cross-check: rebuilds a *fresh* engine from the
    /// current cut (the exact from-scratch path of
    /// [`ToggleEngine::from_cut`]) and reports every incremental field
    /// that diverges from it — incidence counters, the `feeds_cut` /
    /// `fed_by_cut` sets, I/O counts, latencies, hull and violator
    /// masks, and the component partition (compared up to label
    /// renaming, which the incremental merge is allowed to differ in).
    ///
    /// An empty result means the incremental state machine agrees with
    /// ground truth bit for bit (floats to 1e-9). O(cut · deg + n);
    /// meant for the opt-in audit cadence, not the hot path.
    pub fn audit_divergences(&self) -> Vec<String> {
        let fresh = ToggleEngine::from_cut(self.ctx, self.cut.clone());
        let n = self.ctx.node_count();
        let mut out = Vec::new();

        let diff_set = |name: &str, live: &NodeSet, truth: &NodeSet, out: &mut Vec<String>| {
            for i in 0..n {
                let v = NodeId::from_index(i);
                let (a, b) = (live.contains(v), truth.contains(v));
                if a != b {
                    out.push(format!("engine {name}: n{i} live={a} fresh={b}"));
                }
            }
        };
        let diff_counts = |name: &str, live: &[u32], truth: &[u32], out: &mut Vec<String>| {
            for i in 0..n.min(live.len()).min(truth.len()) {
                if live[i] != truth[i] {
                    out.push(format!(
                        "engine {name}: n{i} live={} fresh={}",
                        live[i], truth[i]
                    ));
                }
            }
        };
        let diff_floats = |name: &str, live: &[f64], truth: &[f64], out: &mut Vec<String>| {
            for i in 0..n.min(live.len()).min(truth.len()) {
                if (live[i] - truth[i]).abs() > 1e-9 {
                    out.push(format!(
                        "engine {name}: n{i} live={} fresh={}",
                        live[i], truth[i]
                    ));
                }
            }
        };

        diff_counts(
            "fanout_to_cut",
            &self.fanout_to_cut,
            &fresh.fanout_to_cut,
            &mut out,
        );
        diff_counts(
            "indeg_from_cut",
            &self.indeg_from_cut,
            &fresh.indeg_from_cut,
            &mut out,
        );
        diff_set("feeds_cut", &self.feeds_cut, &fresh.feeds_cut, &mut out);
        diff_set("fed_by_cut", &self.fed_by_cut, &fresh.fed_by_cut, &mut out);
        if self.input_count != fresh.input_count {
            out.push(format!(
                "engine input_count: live={} fresh={}",
                self.input_count, fresh.input_count
            ));
        }
        if self.output_count != fresh.output_count {
            out.push(format!(
                "engine output_count: live={} fresh={}",
                self.output_count, fresh.output_count
            ));
        }
        if self.sw_sum != fresh.sw_sum {
            out.push(format!(
                "engine sw_sum: live={} fresh={}",
                self.sw_sum, fresh.sw_sum
            ));
        }
        diff_floats("up", &self.up, &fresh.up, &mut out);
        diff_floats("down", &self.down, &fresh.down, &mut out);
        if (self.critical - fresh.critical).abs() > 1e-9 {
            out.push(format!(
                "engine critical: live={} fresh={}",
                self.critical, fresh.critical
            ));
        }
        diff_set("below", &self.below, &fresh.below, &mut out);
        diff_set("above", &self.above, &fresh.above, &mut out);
        diff_set("below_ext", &self.below_ext, &fresh.below_ext, &mut out);
        diff_set("above_ext", &self.above_ext, &fresh.above_ext, &mut out);
        diff_set("violators", &self.violators, &fresh.violators, &mut out);
        if self.convex_now != fresh.convex_now {
            out.push(format!(
                "engine convex_now: live={} fresh={}",
                self.convex_now, fresh.convex_now
            ));
        }
        if self.comp_count != fresh.comp_count {
            out.push(format!(
                "engine comp_count: live={} fresh={}",
                self.comp_count, fresh.comp_count
            ));
        }
        if (self.comp_cp_total - fresh.comp_cp_total).abs() > 1e-9 {
            out.push(format!(
                "engine comp_cp_total: live={} fresh={}",
                self.comp_cp_total, fresh.comp_cp_total
            ));
        }
        // Component labels compare up to renaming: map each side's label
        // to its first-seen index in node order, and check the per-
        // component critical paths through the same mapping.
        let mut canon_live: Vec<Option<u32>> = Vec::new();
        let mut canon_fresh: Vec<Option<u32>> = Vec::new();
        let canonical = |labels: &[u32],
                         seen: &mut std::collections::HashMap<u32, u32>,
                         i: usize|
         -> Option<u32> {
            let l = *labels.get(i)?;
            if l == OUTSIDE {
                return None;
            }
            let next = seen.len() as u32;
            Some(*seen.entry(l).or_insert(next))
        };
        let mut seen_live = std::collections::HashMap::new();
        let mut seen_fresh = std::collections::HashMap::new();
        for v in self.cut.iter() {
            let i = v.index();
            canon_live.push(canonical(&self.comp_label, &mut seen_live, i));
            canon_fresh.push(canonical(&fresh.comp_label, &mut seen_fresh, i));
            if canon_live.last() != canon_fresh.last() {
                out.push(format!(
                    "engine comp_label: n{i} live={:?} fresh={:?} (canonical)",
                    canon_live.last(),
                    canon_fresh.last()
                ));
            }
            let cp_live = self
                .comp_label
                .get(i)
                .and_then(|&l| self.comp_cp.get(l as usize));
            let cp_fresh = fresh
                .comp_label
                .get(i)
                .and_then(|&l| fresh.comp_cp.get(l as usize));
            match (cp_live, cp_fresh) {
                (Some(a), Some(b)) if (a - b).abs() > 1e-9 => {
                    out.push(format!("engine comp_cp: n{i} live={a} fresh={b}"));
                }
                (Some(_), Some(_)) => {}
                (a, b) => out.push(format!(
                    "engine comp_cp: n{i} live={a:?} fresh={b:?} (missing entry)"
                )),
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use isegen_ir::{BasicBlock, BlockBuilder, LatencyModel, Opcode};

    fn dotprod() -> BasicBlock {
        let mut b = BlockBuilder::new("dot");
        let (a, b_, c, d) = (b.input("a"), b.input("b"), b.input("c"), b.input("d"));
        let m1 = b.op(Opcode::Mul, &[a, b_]).unwrap();
        let m2 = b.op(Opcode::Mul, &[c, d]).unwrap();
        b.op(Opcode::Add, &[m1, m2]).unwrap();
        b.build().unwrap()
    }

    fn check_against_scratch(engine: &ToggleEngine<'_, '_>, ctx: &BlockContext<'_>) {
        let reference = Cut::evaluate(ctx, engine.cut().clone());
        assert_eq!(engine.input_count(), reference.input_count(), "inputs");
        assert_eq!(engine.output_count(), reference.output_count(), "outputs");
        assert_eq!(
            engine.software_latency(),
            reference.software_latency(),
            "sw"
        );
        assert!(
            (engine.hardware_latency() - reference.hardware_latency()).abs() < 1e-9,
            "hw: {} vs {}",
            engine.hardware_latency(),
            reference.hardware_latency()
        );
        assert_eq!(engine.is_convex(), ctx.is_convex(engine.cut()), "convexity");
    }

    #[test]
    fn toggle_sequence_tracks_scratch_evaluation() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let mut engine = ToggleEngine::new(&ctx);
        let ids: Vec<NodeId> = block.dag().node_ids().collect();
        // toggle operations in and out in various orders
        for seq in &[
            vec![4, 5, 6],
            vec![6, 4, 5],
            vec![4, 4, 5, 6, 5],
            vec![6, 6],
        ] {
            let mut engine2 = ToggleEngine::new(&ctx);
            for &i in seq {
                engine2.toggle(ids[i]);
                check_against_scratch(&engine2, &ctx);
            }
        }
        // also from a seeded cut
        engine.toggle(ids[4]);
        engine.toggle(ids[6]);
        check_against_scratch(&engine, &ctx);
        let reseeded = ToggleEngine::from_cut(&ctx, engine.cut().clone());
        assert_eq!(reseeded.input_count(), engine.input_count());
        assert_eq!(reseeded.output_count(), engine.output_count());
    }

    #[test]
    fn probe_matches_commit_for_entering() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let mut engine = ToggleEngine::new(&ctx);
        let ids: Vec<NodeId> = block.dag().node_ids().collect();
        for &i in &[4usize, 6, 5] {
            let p = engine.probe(ids[i]);
            assert!(p.entering);
            engine.toggle(ids[i]);
            assert_eq!(p.inputs, engine.input_count(), "probe inputs for {i}");
            assert_eq!(p.outputs, engine.output_count(), "probe outputs for {i}");
            assert_eq!(p.convex, engine.is_convex(), "probe convexity for {i}");
            if p.convex {
                assert!(
                    (p.merit - engine.merit()).abs() < 1e-9,
                    "probe merit {} vs {}",
                    p.merit,
                    engine.merit()
                );
            }
        }
    }

    #[test]
    fn probe_leaving_reports_components() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let mut engine = ToggleEngine::new(&ctx);
        let ids: Vec<NodeId> = block.dag().node_ids().collect();
        // two independent muls: two components
        engine.toggle(ids[4]);
        engine.toggle(ids[5]);
        assert_eq!(engine.component_count(), 2);
        let p = engine.probe(ids[4]);
        assert!(!p.entering);
        // the other component is the other mul: cp = 0.85
        assert!((p.other_components_hw - 0.85).abs() < 1e-9);
    }

    #[test]
    fn legality() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let mut engine = ToggleEngine::new(&ctx);
        let ids: Vec<NodeId> = block.dag().node_ids().collect();
        assert!(
            !engine.is_legal(IoConstraints::new(4, 2)),
            "empty cut is not legal"
        );
        engine.toggle(ids[4]);
        engine.toggle(ids[5]);
        engine.toggle(ids[6]);
        assert!(engine.is_legal(IoConstraints::new(4, 2)));
        assert!(!engine.is_legal(IoConstraints::new(3, 1)));
        // {m1, add} with m2 outside is convex; {m1, m2} alone is too.
        engine.toggle(ids[5]);
        assert!(engine.is_convex());
    }

    #[test]
    fn snapshot_equals_scratch_cut() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let mut engine = ToggleEngine::new(&ctx);
        let ids: Vec<NodeId> = block.dag().node_ids().collect();
        engine.toggle(ids[4]);
        engine.toggle(ids[6]);
        let snap = engine.snapshot();
        let reference = Cut::evaluate(&ctx, engine.cut().clone());
        assert_eq!(snap, reference);
    }

    #[test]
    fn non_convex_intermediate_detected() {
        // chain: in -> a -> b -> c. Cut {a, c} is not convex.
        let mut bb = BlockBuilder::new("chain");
        let x = bb.input("x");
        let a = bb.op(Opcode::Add, &[x, x]).unwrap();
        let b = bb.op(Opcode::Mul, &[a, a]).unwrap();
        let c = bb.op(Opcode::Not, &[b]).unwrap();
        let block = bb.build().unwrap();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let mut engine = ToggleEngine::new(&ctx);
        engine.toggle(a);
        assert!(engine.is_convex());
        engine.toggle(c);
        assert!(!engine.is_convex());
        // filling the hole restores convexity
        engine.toggle(b);
        assert!(engine.is_convex());
    }

    #[test]
    fn reset_from_cut_equals_fresh_engine() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let ids: Vec<NodeId> = block.dag().node_ids().collect();
        // Dirty the engine with an arbitrary walk, then reset it onto a
        // different cut: every observable must match a fresh build.
        let mut engine = ToggleEngine::new(&ctx);
        for &i in &[4usize, 5, 6, 5, 4] {
            engine.toggle(ids[i]);
        }
        let target = NodeSet::from_ids(ctx.node_count(), [ids[4], ids[6]]);
        engine.reset_from_cut(&target);
        let fresh = ToggleEngine::from_cut(&ctx, target.clone());
        assert_eq!(engine.cut(), fresh.cut());
        assert_eq!(engine.input_count(), fresh.input_count());
        assert_eq!(engine.output_count(), fresh.output_count());
        assert_eq!(engine.software_latency(), fresh.software_latency());
        assert_eq!(engine.hardware_latency(), fresh.hardware_latency());
        assert_eq!(engine.is_convex(), fresh.is_convex());
        assert_eq!(engine.component_count(), fresh.component_count());
        for &v in &ids {
            assert_eq!(engine.probe(v), fresh.probe(v), "probe mismatch at {v}");
        }
        check_against_scratch(&engine, &ctx);
    }

    #[test]
    fn arena_round_trip_across_blocks() {
        // One arena serving blocks of different sizes back to back —
        // the per-worker pooling pattern of the portfolio search.
        let model = LatencyModel::paper_default();
        let big = dotprod();
        let mut bb = BlockBuilder::new("small");
        let x = bb.input("x");
        bb.op(Opcode::Not, &[x]).unwrap();
        let small = bb.build().unwrap();

        let mut arena = EngineArena::default();
        for block in [&big, &small, &big] {
            let ctx = BlockContext::new(block, &model);
            let empty = NodeSet::new(ctx.node_count());
            let mut engine = ToggleEngine::from_cut_in(&ctx, &empty, arena);
            let reference = ToggleEngine::new(&ctx);
            for v in block.dag().node_ids() {
                assert_eq!(engine.probe(v), reference.probe(v));
            }
            // commit something so the arena returns non-trivial state
            let any = ctx.eligible().first().expect("eligible node");
            engine.toggle(any);
            check_against_scratch(&engine, &ctx);
            arena = engine.into_arena();
        }
    }

    /// A seeded random block of 96 ops over 4 inputs — 100 nodes, so
    /// every cone and hull mask spans two words.
    pub(crate) fn wide_block() -> BasicBlock {
        let mut b = BlockBuilder::new("wide");
        let mut values: Vec<NodeId> = ["a", "b", "c", "d"].map(|n| b.input(n)).to_vec();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for i in 0..96 {
            // Mostly recent operands (deep cones), sometimes far ones
            // (cross-word edges), sometimes a repeated operand.
            let near = |r: usize, len: usize| len - 1 - r % len.min(8);
            let x = values[near(next(64), values.len())];
            let y = if next(5) == 0 {
                x
            } else {
                values[next(values.len())]
            };
            let op = [Opcode::Add, Opcode::Mul, Opcode::Xor, Opcode::Sub][i % 4];
            values.push(b.op(op, &[x, y]).unwrap());
        }
        b.build().unwrap()
    }

    /// A block where only the hull-shrink rule reaches a node: with
    /// `{a, b1, b2, b3, x}` in the cut, `v` is the sole hull-floor node
    /// above `u`, so `v` entering turns `entering_hull_ok(u)` true — and
    /// since the chain `b1 → b2 → b3` keeps `up[x]` where it was, no
    /// other rule marks `u`. Returns the block and the toggle order.
    pub(crate) fn shrink_block() -> (BasicBlock, Vec<NodeId>) {
        let mut b = BlockBuilder::new("shrink");
        let i = b.input("i");
        let a = b.op(Opcode::Add, &[i, i]).unwrap();
        let b1 = b.op(Opcode::Add, &[i, i]).unwrap();
        let b2 = b.op(Opcode::Add, &[b1, b1]).unwrap();
        let b3 = b.op(Opcode::Add, &[b2, b2]).unwrap();
        let v = b.op(Opcode::Add, &[a, a]).unwrap();
        let x = b.op(Opcode::Add, &[v, b3]).unwrap();
        b.op(Opcode::Add, &[x, x]).unwrap();
        (b.build().unwrap(), vec![a, b1, b2, b3, x, v])
    }

    /// Every cached term but the entering hull bit: entering, ΔI, ΔO,
    /// `N(u,C)`, the leaving-convexity bit and the through-path.
    type NonHull = (bool, i32, i32, u32, Option<bool>, f64);

    /// The cone-local probe terms of node `u` — exactly what a
    /// [`crate::GainCache`] entry stores — split into the hull bit
    /// (`Some(entering_hull_ok)` for an entering node) and the rest.
    /// Global terms (operand counts, latencies, the violator gate, the
    /// cut's convexity/size) are re-read fresh at recombination time,
    /// so they may move for clean nodes; these must not.
    fn local_terms(engine: &ToggleEngine<'_, '_>, u: NodeId) -> (Option<bool>, NonHull) {
        let p = engine.probe(u);
        let di = p.inputs as i32 - engine.input_count() as i32;
        let dout = p.outputs as i32 - engine.output_count() as i32;
        let (hull, leave, through) = if p.entering {
            (
                Some(engine.entering_hull_ok(u)),
                None,
                engine.entering_through(u),
            )
        } else {
            (None, Some(engine.leaving_local_ok(u)), 0.0)
        };
        (
            hull,
            (p.entering, di, dout, p.neighbors_in_cut, leave, through),
        )
    }

    /// What [`check_marks`] saw of the leaving commits: how many there
    /// were, how many full classes were strictly smaller than `anc(v) ∪
    /// desc(v)`, and the two sizes summed.
    #[derive(Debug, Default)]
    struct LeavingMarks {
        commits: usize,
        narrower: usize,
        full: usize,
        cones: usize,
    }

    /// Drives `toggles` through `toggle_and_mark` and checks the two
    /// mark classes after every commit: a node whose non-hull terms
    /// changed is in `full`; a node whose hull bit was cleared is in
    /// `full ∪ lost` (the cones of the lost-hull witnesses), one whose
    /// bit was set in `full ∪ hull.regained`; and every lost-hull
    /// witness really fails every non-cut node of its cone. There is no
    /// full-invalidation escape hatch, so the marks alone must cover
    /// every change.
    fn check_marks(ctx: &BlockContext<'_>, toggles: &[NodeId]) -> LeavingMarks {
        let ids: Vec<NodeId> = ctx.block().dag().node_ids().collect();
        let n = ctx.node_count();
        let mut engine = ToggleEngine::new(ctx);
        let mut full = NodeSet::new(n);
        let mut hull = HullMarks::default();
        let mut leaving = LeavingMarks::default();
        for &v in toggles {
            let before: Vec<_> = ids.iter().map(|&u| local_terms(&engine, u)).collect();
            full.reset(n);
            hull.reset(n);
            engine.toggle_and_mark(v, &mut full, &mut hull);
            if !engine.cut().contains(v) {
                let mut cones = ctx.reach().ancestors(v).clone();
                cones.union_with(ctx.reach().descendants(v));
                leaving.commits += 1;
                leaving.narrower += usize::from(full.len() < cones.len());
                leaving.full += full.len();
                leaving.cones += cones.len();
            }
            let mut lost = NodeSet::new(n);
            let cones = hull
                .lost_below
                .iter()
                .map(|&x| (x, ctx.reach().descendants(x)));
            for (x, cone) in cones.chain(
                hull.lost_above
                    .iter()
                    .map(|&x| (x, ctx.reach().ancestors(x))),
            ) {
                lost.union_with(cone);
                for u in cone.iter().filter(|&u| !engine.cut().contains(u)) {
                    assert!(
                        engine.hull_witness_holds(u, x),
                        "lost-hull witness {x} does not fail {u} after {v}"
                    );
                }
            }
            for (&u, (hull_before, rest_before)) in ids.iter().zip(&before) {
                let (hull_after, rest_after) = local_terms(&engine, u);
                if full.contains(u) {
                    continue;
                }
                assert_eq!(
                    rest_after, *rest_before,
                    "non-hull terms changed for {u} outside the full class after toggling {v}"
                );
                match (hull_before, hull_after) {
                    (Some(true), Some(false)) => assert!(
                        lost.contains(u),
                        "hull bit of {u} cleared outside full ∪ lost after toggling {v}"
                    ),
                    (Some(false), Some(true)) => assert!(
                        hull.regained.contains(u),
                        "hull bit of {u} set outside full ∪ regained after toggling {v}"
                    ),
                    _ => {}
                }
            }
        }
        leaving
    }

    #[test]
    fn toggle_and_mark_covers_probe_changes() {
        // Exhaustive on the dot-product block …
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let ids: Vec<NodeId> = block.dag().node_ids().collect();
        for seq in &[vec![4, 5, 6, 5], vec![6, 5, 4], vec![4, 6, 4, 6, 5]] {
            let toggles: Vec<NodeId> = seq.iter().map(|&i| ids[i]).collect();
            check_marks(&ctx, &toggles);
        }
        // … on the one configuration only hull shrink reaches …
        let (block, toggles) = shrink_block();
        check_marks(&BlockContext::new(&block, &model), &toggles);
        // … and on a two-word block, where the word-level masks and
        // cones cross word boundaries: long entering runs (deep hulls,
        // growth and shrink) broken by leaving commits.
        let block = wide_block();
        let ctx = BlockContext::new(&block, &model);
        let ops: Vec<NodeId> = ctx.eligible().iter().collect();
        assert!(ctx.node_count() > 64 && ops.len() > 64);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let toggles: Vec<NodeId> = (0..120)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ops[(state % ops.len() as u64) as usize]
            })
            .collect();
        check_marks(&ctx, &toggles);

        // Leaving-heavy: runs of 40 ops toggled in, then out in a
        // different order — every leaving commit shrinks the hulls,
        // moves longest paths and splits components. The full class of
        // a leaving commit must stay narrower than the cones it
        // replaced.
        let mut toggles = Vec::new();
        for round in 0..4 {
            let run: Vec<NodeId> = (0..40)
                .map(|i| ops[(round * 17 + i * 7) % ops.len()])
                .collect();
            toggles.extend(&run);
            toggles.extend((0..run.len()).map(|i| run[(i * 13 + round) % run.len()]));
        }
        let leaving = check_marks(&ctx, &toggles);
        assert!(leaving.commits >= 100, "{leaving:?}");
        assert!(
            leaving.narrower * 4 >= leaving.commits * 3 && leaving.full * 2 < leaving.cones,
            "leaving commits fell back to the cone cover: {leaving:?}"
        );
    }
}
