use crate::cache::{CacheStats, EnteringTerms, GainCache};
use crate::coarsen::{multilevel_search, MultilevelConfig, MultilevelReport};
use crate::driver::CutFinder;
use crate::engine::EngineArena;
use crate::gain::gain_of;
use crate::keyheap::{Frontier, KeyHeap};
use crate::{BlockContext, Cut, GainWeights, IoConstraints, IoFloor, ToggleEngine};
use isegen_graph::{NodeId, NodeSet};

/// Knobs of the modified Kernighan–Lin search (paper Fig. 2).
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`SearchConfig::default`] and the `with_*` setters, so future knobs
/// never break callers.
///
/// ```
/// use isegen_core::SearchConfig;
/// let config = SearchConfig::default().with_max_passes(3).with_restarts(1);
/// assert_eq!(config.max_passes, 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SearchConfig {
    /// Maximum number of improvement passes. The paper found
    /// experimentally that 5 passes suffice; the loop also exits early
    /// when a pass fails to improve the best cut.
    pub max_passes: usize,
    /// Gain-function weights (paper §4.2), valid by construction
    /// ([`GainWeights::new`]).
    pub weights: GainWeights,
    /// Number of diversified restarts. A K-L pass follows one greedy
    /// toggle trajectory; on blocks with several distant high-merit
    /// regions a single trajectory can settle in the wrong basin. Each
    /// restart forces the first toggle onto the best-gain node of a
    /// *different* region (seeds are kept ≥ 3 edges apart), and the best
    /// cut across restarts wins. Deterministic. `1` reproduces the
    /// paper's single-trajectory algorithm exactly.
    pub restarts: usize,
    /// Invariant-audit cadence: every `audit_cadence`-th committed
    /// toggle, re-derive the engine, gain-cache and queue state from
    /// scratch and panic with a structured [`crate::AuditReport`] on any
    /// divergence. `0` (the default) disables auditing; the
    /// `IsegenAudit` environment variable supplies a process-wide
    /// fallback cadence when this field is `0`.
    pub audit_cadence: usize,
    /// Multilevel coarsen→search→uncoarsen pipeline for huge blocks:
    /// when set, a block whose free (searchable) node count exceeds
    /// [`MultilevelConfig::min_coarse_ops`] is coarsened into a
    /// hierarchy of supernode quotients, searched at the coarsest
    /// level, and refined level by level from the projected cut within
    /// a fixed boundary band. `None` (the default) always runs the
    /// single-level search; blocks at or below the threshold run the
    /// single-level search bit for bit even when this is set.
    pub multilevel: Option<MultilevelConfig>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_passes: 5,
            weights: GainWeights::default(),
            restarts: 3,
            audit_cadence: 0,
            multilevel: None,
        }
    }
}

impl SearchConfig {
    /// Sets the maximum number of improvement passes.
    pub fn with_max_passes(mut self, max_passes: usize) -> Self {
        self.max_passes = max_passes;
        self
    }

    /// Sets the gain-function weights.
    pub fn with_weights(mut self, weights: GainWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Sets the number of diversified restarts.
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts;
        self
    }

    /// Sets the invariant-audit cadence (`0` disables; see
    /// [`SearchConfig::audit_cadence`]).
    pub fn with_audit_cadence(mut self, audit_cadence: usize) -> Self {
        self.audit_cadence = audit_cadence;
        self
    }

    /// Enables the multilevel coarsen→search→uncoarsen pipeline for
    /// blocks above [`MultilevelConfig::min_coarse_ops`] free nodes
    /// (see [`SearchConfig::multilevel`]).
    pub fn with_multilevel(mut self, multilevel: MultilevelConfig) -> Self {
        self.multilevel = Some(multilevel);
        self
    }
}

/// A reusable per-worker search arena: every buffer a K-L trajectory
/// needs — the [`ToggleEngine`] node sets, the [`GainCache`] entry
/// table, the mark set, the selection heaps and the pass-best snapshot
/// buffer — pooled so that trajectory setup is a reset, not an
/// allocation.
///
/// One scratch serves one worker thread; it is reset between
/// trajectories and between *blocks* (buffers resize to each block,
/// allocation-free once the scratch has seen a block at least as
/// large). [`IsegenFinder`] keeps a pool of these across `find_cut`
/// calls, so a long-lived service searches with warm arenas.
#[derive(Debug, Default)]
pub struct SearchScratch {
    arena: EngineArena,
    cache: GainCache,
    marked: NodeSet,
    best_nodes: NodeSet,
    /// Max-gain queue over the unmarked entering candidates of the
    /// pass, keyed by the frame-free *base* key (I/O-linearised
    /// violation + affinity + growth; no merit) — the exact gain
    /// ordering whenever the convexity gate is closed.
    heap_base: KeyHeap,
    /// The cone-locally-convex candidates again, keyed base +
    /// `w_merit · sw(v)` — consulted alongside `heap_base` whenever the
    /// gate is open, with the latency frame applied as a per-step
    /// offset.
    heap_merit: KeyHeap,
    /// Frontiers of the two best-first selection walks, kept only so
    /// that a step allocates nothing.
    frontier_base: Frontier,
    frontier_merit: Frontier,
    /// The nodes whose cached terms the latest commit may have changed
    /// ([`GainCache::commit_tracked`]): its full-class delta plus the
    /// hull-bit flips.
    touched: NodeSet,
    /// The cut at pass start; unmarked candidates never change side
    /// within a pass, so this splits them into entering vs. leaving.
    start_cut: NodeSet,
    /// Free leaving candidates of the pass (pass-start cut ∩ free).
    leave_list: Vec<NodeId>,
    /// The pass's permanent I/O floor; the pass ends once it exceeds
    /// the budget.
    floor: IoFloor,
    warm: bool,
}

impl SearchScratch {
    /// A cold scratch; the first trajectory builds its buffers.
    pub fn new() -> Self {
        SearchScratch::default()
    }
}

/// The keys of entering candidate `v` in the two selection heaps. A
/// key is *frame-free*: it folds only `v`'s cached [`EnteringTerms`],
/// never a global count or latency — those enter as exact per-step
/// offsets at selection time ([`StepFrame`]).
///
/// * `base` — `−w_io·(ΔI+ΔO) + w_a·N(v,C) + w_g·growth(v)`: the gain
///   with the violation hinges *linearised* and every global count
///   stripped into the step offset. Since `(x)⁺ ≥ x`, the linearised
///   violation never exceeds the true one, so `base + offset` bounds
///   the true gate-closed gain from above — and equals it exactly once
///   the cut is at least [`HingeSlack`] ports into violation.
/// * `merit` — `base + w_m·sw(v)`, for cone-locally-convex candidates
///   only: the gate-open gain with `max(HW, through(v))` relaxed to
///   `HW`, again an upper bound whose slack [`HingeSlack`] closes.
///
/// Requires `w_io ≥ 0` and `w_m ≥ 0`, which [`GainWeights::new`]
/// guarantees; the per-node-signed terms fold into the key.
fn entering_keys(
    ctx: &BlockContext<'_>,
    weights: &GainWeights,
    v: NodeId,
    t: &EnteringTerms,
) -> (f64, Option<f64>) {
    let base = -(weights.io_penalty() * (t.di + t.dout) as f64)
        + weights.affinity() * t.neighbors_in_cut as f64
        + weights.growth() * ctx.growth_score(v);
    let merit = t
        .local_convex
        .then(|| base + weights.merit() * f64::from(ctx.sw_cycles(v)));
    (base, merit)
}

/// Inserts or re-keys entering candidate `v` in both heaps, taking it
/// out of the merit heap when its cached terms are no longer cone-locally convex.
fn rekey_entering(
    heap_base: &mut KeyHeap,
    heap_merit: &mut KeyHeap,
    ctx: &BlockContext<'_>,
    weights: &GainWeights,
    v: NodeId,
    t: &EnteringTerms,
) {
    let node = v.index() as u32;
    let (base, merit) = entering_keys(ctx, weights, v, t);
    heap_base.set(node, base);
    match merit {
        Some(key) => heap_merit.set(node, key),
        None => heap_merit.remove(node),
    }
}

/// Audit-mode check of the selection queue: both heaps are sound
/// ([`KeyHeap::audit`]), the base heap holds exactly the unmarked
/// entering candidates and the merit heap exactly those whose cached
/// terms are cone-locally convex, each at the key its cached terms give.
fn audit_queue(
    ctx: &BlockContext<'_>,
    weights: &GainWeights,
    cache: &GainCache,
    [base, merit]: [&KeyHeap; 2],
    free_nodes: &[NodeId],
    start_cut: &NodeSet,
    marked: &NodeSet,
) -> Vec<String> {
    let mut out = base.audit("base");
    out.extend(merit.audit("merit"));
    let mut members = [0, 0];
    for &u in free_nodes {
        if start_cut.contains(u) || marked.contains(u) {
            continue;
        }
        let node = u.index() as u32;
        let Some(t) = cache.cached_entering_terms(u) else {
            out.push(format!(
                "queue: entering candidate n{node} has no clean cached terms"
            ));
            continue;
        };
        let (key_base, key_merit) = entering_keys(ctx, weights, u, &t);
        for (i, name, heap, want) in [
            (0, "base", base, Some(key_base)),
            (1, "merit", merit, key_merit),
        ] {
            members[i] += usize::from(want.is_some());
            let got = heap.key(node);
            if got.map(f64::to_bits) != want.map(f64::to_bits) {
                out.push(format!(
                    "{name} heap: n{node} keyed {got:?}, cached terms give {want:?}"
                ));
            }
        }
    }
    for (heap, name, want) in [(base, "base", members[0]), (merit, "merit", members[1])] {
        if heap.len() != want {
            out.push(format!(
                "{name} heap: {} slots for {want} members",
                heap.len()
            ));
        }
    }
    out
}

/// The per-step global frame: exact offsets that turn a frame-free key
/// into an upper bound on the candidate's true gain, recomputed from
/// live engine globals at every selection (so keys never drift).
///
/// For a key `κ` the bound is `κ + off + slack`: `off` restores the
/// linearised global contribution and `slack` covers the hinge
/// nonlinearities ([`HingeSlack`]) plus a rounding margin scaled to the
/// magnitudes involved (the true gain is recombined in a different
/// association order, so bit-equality cannot be assumed — but the
/// relative error is ulps, far below the `1e-13` margin).
#[derive(Debug, Clone, Copy)]
struct StepFrame {
    /// `−w_io·((I−N_in) + (O−N_out))` — the linearised violation frame.
    off_base: f64,
    /// `off_base + w_m·(SW − HW)` — the merit heap's frame.
    off_merit: f64,
    /// Hinge slack of the base keys: `w_io·((N_in−I+D)⁺ + (N_out−O+A)⁺)`.
    slack_base: f64,
    /// `slack_base + w_m·(T−HW)⁺` — adds the merit hinge slack.
    slack_merit: f64,
}

impl StepFrame {
    fn new(
        engine: &ToggleEngine<'_, '_>,
        weights: &GainWeights,
        io: IoConstraints,
        hinges: &HingeSlack,
    ) -> StepFrame {
        let i = f64::from(engine.input_count());
        let o = f64::from(engine.output_count());
        let nin = f64::from(io.max_inputs());
        let nout = f64::from(io.max_outputs());
        let off_base = -(weights.io_penalty() * ((i - nin) + (o - nout)));
        let slack_base = weights.io_penalty()
            * ((nin - i + hinges.din).max(0.0) + (nout - o + hinges.dout).max(0.0));
        let sw = engine.software_latency() as f64;
        let hw = engine.hardware_latency();
        let off_merit = off_base + weights.merit() * (sw - hw);
        let slack_merit = slack_base + weights.merit() * (hinges.through - hw).max(0.0);
        StepFrame {
            off_base,
            off_merit,
            slack_base,
            slack_merit,
        }
    }

    /// Upper bound on the true gain of a key from the given heap.
    fn bound(&self, key: f64, merit_heap: bool) -> f64 {
        let (off, slack) = if merit_heap {
            (self.off_merit, self.slack_merit)
        } else {
            (self.off_base, self.slack_base)
        };
        let b = key + off + slack;
        b + (1.0 + key.abs() + off.abs()) * 1e-13
    }
}

/// Running maxima over every candidate keyed so far, closing the
/// one-sided gaps between the linearised keys and the true hinged
/// terms: `din = max(−ΔI)⁺`, `dout = max(−ΔO)⁺` (how far below the
/// global count a candidate's post-toggle I/O can sit) and `through`
/// (the tallest cached through-path). Maxima only grow, so they stay
/// conservative for every live entry.
#[derive(Debug, Clone, Copy)]
struct HingeSlack {
    din: f64,
    dout: f64,
    through: f64,
}

impl HingeSlack {
    fn new() -> HingeSlack {
        HingeSlack {
            din: 0.0,
            dout: 0.0,
            through: 0.0,
        }
    }

    fn absorb(&mut self, t: &EnteringTerms) {
        self.din = self.din.max(f64::from(-t.di));
        self.dout = self.dout.max(f64::from(-t.dout));
        self.through = self.through.max(t.through);
    }
}

/// Whether gain `g` of node `v` beats the incumbent: strictly higher,
/// or tied with a lower node id.
fn beats(g: f64, v: NodeId, best: Option<(f64, NodeId)>) -> bool {
    best.is_none_or(|(bg, bid)| g > bg || (g == bg && v.index() < bid.index()))
}

/// One entry of the search portfolio: a gain flavour plus an optional
/// forced first toggle and an optional starting cut (multilevel
/// refinement seeds the trajectory from a projected coarse cut instead
/// of the all-software configuration). The spec list is built in the
/// exact order the historical sequential scan visited, so the merge is
/// reproducible.
struct TrajectorySpec<'s> {
    config: &'s SearchConfig,
    flavour: &'static str,
    seed: Option<NodeId>,
    start: Option<&'s NodeSet>,
}

/// Everything one [`Search`] run produced: the best cut, the merged
/// probe/queue statistics of the whole portfolio, and the V-cycle
/// evidence when the multilevel pipeline ran.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SearchOutcome {
    /// The best legal cut found; empty when no legal cut with positive
    /// merit exists (e.g. everything is forbidden).
    pub cut: Cut,
    /// Gain-cache probe and queue statistics merged over every
    /// trajectory (all weight flavours and restarts).
    pub stats: CacheStats,
    /// Per-level V-cycle evidence when the multilevel pipeline actually
    /// ran (the block exceeded [`MultilevelConfig::min_coarse_ops`] free
    /// nodes under a [`SearchConfig::with_multilevel`] config); `None`
    /// for single-level searches.
    pub multilevel: Option<MultilevelReport>,
}

/// One ISEGEN bi-partition of a basic block (paper Fig. 2), builder
/// style: finds the best legal cut reachable by iterative improvement
/// from the all-software configuration.
///
/// ```no_run
/// # use isegen_core::{BlockContext, IoConstraints, Search, SearchConfig};
/// # fn demo(ctx: &BlockContext<'_>) {
/// let outcome = Search::new(SearchConfig::default())
///     .threads(4)
///     .run(ctx, IoConstraints::new(4, 2));
/// println!("merit {}", outcome.cut.merit());
/// # }
/// ```
///
/// The algorithm, following the paper:
///
/// 1. `BC` ← all-software (empty cut).
/// 2. Up to [`SearchConfig::max_passes`] times: starting from `BC`,
///    repeatedly evaluate the gain function for every unmarked node,
///    toggle the best node S↔H and mark it — intermediate cuts may
///    violate constraints ("we allow a cut to be illegal giving it an
///    opportunity to eventually grow into a valid cut") — while tracking
///    the best *legal* cut seen in the pass.
/// 3. If the pass improved on `BC`, commit and iterate; otherwise stop.
///
/// With `threads > 1` the weight-flavour × restart portfolio fans out
/// over scoped threads; the output is **byte-identical** to the
/// sequential search at every thread count (trajectories are
/// independent, and the merge scans them in the fixed portfolio order
/// with the sequential strict-improvement tie-break —
/// `tests/portfolio_parity.rs`).
#[derive(Debug, Clone, Default)]
pub struct Search {
    config: SearchConfig,
    threads: usize,
    forbidden: Option<NodeSet>,
}

impl Search {
    /// A sequential search with the given configuration.
    pub fn new(config: SearchConfig) -> Self {
        Search {
            config,
            threads: 1,
            forbidden: None,
        }
    }

    /// Fans the trajectory portfolio out over up to `threads` scoped
    /// threads (`0` is treated as `1`).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Forbids a set of nodes from entering the cut (e.g. nodes already
    /// claimed by earlier ISEs). The set is cloned into the builder.
    pub fn forbidden(mut self, forbidden: &NodeSet) -> Self {
        self.forbidden = Some(forbidden.clone());
        self
    }

    /// The search configuration this builder runs with.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Runs the search with a throwaway scratch pool.
    pub fn run(&self, ctx: &BlockContext<'_>, io: IoConstraints) -> SearchOutcome {
        let mut pool = Vec::new();
        self.run_pooled(ctx, io, &mut pool)
    }

    /// Runs the search drawing per-worker [`SearchScratch`] arenas from
    /// `pool` (grown to the worker count on demand); pass the same pool
    /// again to search with warm arenas.
    pub fn run_pooled(
        &self,
        ctx: &BlockContext<'_>,
        io: IoConstraints,
        pool: &mut Vec<SearchScratch>,
    ) -> SearchOutcome {
        let (cut, stats, multilevel) = search_impl(
            ctx,
            io,
            &self.config,
            self.forbidden.as_ref(),
            self.threads.max(1),
            pool,
        );
        SearchOutcome {
            cut,
            stats,
            multilevel,
        }
    }
}

/// The engine under [`Search`] and [`IsegenFinder`]: computes the free
/// set, dispatches oversized blocks to the multilevel pipeline when one
/// is configured, and otherwise runs the single-level portfolio. Blocks
/// at or below the multilevel threshold take the exact single-level
/// code path, so enabling multilevel is a no-op for them.
fn search_impl(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    config: &SearchConfig,
    forbidden: Option<&NodeSet>,
    threads: usize,
    pool: &mut Vec<SearchScratch>,
) -> (Cut, CacheStats, Option<MultilevelReport>) {
    let n = ctx.node_count();
    // Nodes the search may toggle: eligible and not forbidden.
    let mut free = ctx.eligible().clone();
    if let Some(f) = forbidden {
        free.subtract(f);
    }
    if free.is_empty() {
        return (Cut::empty(n), CacheStats::default(), None);
    }
    if let Some(ml) = &config.multilevel {
        if free.len() > ml.min_coarse_ops {
            return multilevel_search(ctx, io, config, ml, &free, threads, pool);
        }
    }
    let (cut, stats) = portfolio_search(ctx, io, config, &free, threads, pool, None);
    (cut, stats, None)
}

/// One single-level portfolio run over an explicit free set: the weight
/// flavours (± restart seeds) fan out, and the results merge in spec
/// order. With `start` set (multilevel refinement), every trajectory is
/// seeded from that cut and restart diversification is skipped — the
/// projected cut already places the trajectory in the right basin.
pub(crate) fn portfolio_search(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    config: &SearchConfig,
    free: &NodeSet,
    threads: usize,
    pool: &mut Vec<SearchScratch>,
    start: Option<&NodeSet>,
) -> (Cut, CacheStats) {
    let n = ctx.node_count();
    let mut stats = CacheStats::default();
    if free.is_empty() {
        return (Cut::empty(n), stats);
    }
    let free_nodes: Vec<NodeId> = free.iter().collect();

    // Two gain flavours per trajectory: the configured weights, and a
    // cohesion-boosted variant (double affinity). Low affinity finds the
    // best *independent-subgraph* cuts (fbital-style min/max pairs);
    // high affinity tracks deep *connected* clusters (Viterbi ACS
    // butterflies). The paper tunes one weight set per evaluation; the
    // small portfolio makes the defaults robust across both regimes.
    let cohesive = SearchConfig {
        weights: config.weights.cohesive(),
        ..config.clone()
    };
    let mut specs: Vec<TrajectorySpec<'_>> = Vec::new();
    for (cfg, flavour) in [(config, "base"), (&cohesive, "cohesive")] {
        specs.push(TrajectorySpec {
            config: cfg,
            flavour,
            seed: None,
            start,
        });
        if start.is_none() {
            for seed in restart_seeds(ctx, io, cfg, &free_nodes) {
                specs.push(TrajectorySpec {
                    config: cfg,
                    flavour,
                    seed: Some(seed),
                    start: None,
                });
            }
        }
    }

    let results = run_trajectories(ctx, io, free, &free_nodes, &specs, threads, pool);

    // Deterministic merge: visit the results in spec order and keep the
    // first strict improvement — exactly the comparison sequence of the
    // sequential scan, whatever the thread count.
    let mut best_cut = Cut::empty(n);
    for (cut, traj_stats) in results {
        stats.absorb(traj_stats);
        if cut.merit() > best_cut.merit() {
            best_cut = cut;
        }
    }
    (best_cut, stats)
}

/// Executes every spec, inline on one scratch when `threads <= 1`, else
/// on scoped worker threads dealing specs from an atomic cursor
/// ([`deal_indexed`]). Results come back in spec order, so scheduling
/// cannot leak into the merge.
fn run_trajectories(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    free: &NodeSet,
    free_nodes: &[NodeId],
    specs: &[TrajectorySpec<'_>],
    threads: usize,
    pool: &mut Vec<SearchScratch>,
) -> Vec<(Cut, CacheStats)> {
    let workers = threads.max(1).min(specs.len());
    if pool.len() < workers {
        pool.resize_with(workers, SearchScratch::default);
    }
    deal_indexed(specs, &mut pool[..workers], |spec, scratch| {
        run_trajectory(ctx, io, free, free_nodes, spec, scratch, None)
    })
}

/// Deals `items` to one scoped worker thread per element of `states`
/// via an atomic cursor, applying `f` to each item with the worker's
/// mutable state, and returns the results **in item order**. With a
/// single state (or a single item) it runs inline on `states[0]`.
/// Which worker processes which item is scheduling-dependent; the
/// output order is not, so callers stay deterministic as long as `f`
/// itself is.
fn deal_indexed<I, S, T>(
    items: &[I],
    states: &mut [S],
    f: impl Fn(&I, &mut S) -> T + Send + Sync,
) -> Vec<T>
where
    I: Sync,
    S: Send,
    T: Send,
{
    assert!(!states.is_empty(), "deal_indexed needs at least one state");
    if states.len() == 1 || items.len() <= 1 {
        let state = &mut states[0];
        return items.iter().map(|item| f(item, state)).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for state in states.iter_mut() {
            let next = &next;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(item, state);
                slots.lock().expect("pool worker panicked").push((i, out));
            });
        }
    });
    let mut out = slots.into_inner().expect("pool worker panicked");
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Runs the Fig. 2 pass loop for one portfolio trajectory, optionally
/// forcing the very first toggle onto the spec's seed (restart
/// diversification). All working state lives in `scratch`; the only
/// allocations are the returned [`Cut`] snapshots.
///
/// A pass ends early once its permanent I/O floor ([`IoFloor`]) exceeds
/// `io`: the committed entering nodes stay in the cut for the rest of
/// the pass, so no later state of the pass can be legal and the pass
/// best is already final. On 2k-op blocks almost every pass crosses
/// the floor within a few dozen commits, so this skips nearly all of
/// the paper's toggle-every-free-node sweep without changing any cut,
/// merit or later pass ([`CacheStats::floor_stops`] counts the passes
/// it ended).
///
/// The sweep is served by a [`GainCache`]: after each committed toggle
/// only the commit's full class is re-probed, and its hull-only class
/// is settled in place; every other gain is recombined from cached
/// local terms in O(1). The cached gains
/// are bit-identical to fresh probes (`tests/gain_cache_prop.rs`).
///
/// The per-commit argmax is served by a pair of addressable max-heaps
/// ([`KeyHeap`]) instead of the paper's literal scan over every
/// unmarked candidate.
/// [`GainWeights::new`] guarantees finite weights with non-negative
/// violation and merit weights, so every gain is finite and every heap
/// bound is sound. Exactness rests on three invariants:
///
/// * **Fixed sides.** A node changes side only when toggled, and every
///   toggled node is marked, so an unmarked candidate keeps its
///   pass-start side. The heaps hold only *entering* candidates; the
///   few free *leaving* candidates (pass-start cut ∩ free) are scanned
///   exactly each step.
/// * **Frame-free keys.** Heap keys fold only per-node cached terms
///   ([`entering_keys`]); the global counts and latencies enter as an
///   exact per-step offset ([`StepFrame`]) recomputed from the live
///   engine at every selection. A key therefore changes only when its
///   node's cache entry does, and the commit that dirties a node sifts
///   its slots in place, so each heap holds at most one slot per
///   unmarked candidate, always at its current key, and no amount of
///   global movement ever invalidates it. `key + offset + slack` bounds the true gain from
///   above, where the slack covers the two hinge nonlinearities
///   ([`HingeSlack`]): it is exactly zero once the cut is deep enough
///   in violation and the hardware path has passed the tallest
///   candidate. Selection walks the heap trees best-first, evaluates
///   each visited slot's exact cached gain, and stops once no frontier
///   root's bound can beat the incumbent: a child's key never exceeds
///   its parent's and the bound rises with the key, so that prunes
///   exactly the subtrees that cannot win. Nothing is popped; the heaps
///   change only on re-keys and commits.
/// * **Gate-split heaps.** The entering convexity gate depends only on
///   (#violators clamped to 2, the sole violator's id), and it affects
///   a gain in exactly one way: the merit term is zeroed when the gate
///   is closed. The base heap keys every candidate without merit — the
///   exact ordering whenever the gate is closed; the merit heap keys
///   the cone-locally-convex candidates with it. Each step reads the
///   live signature: no violators → consult both heaps, ≥ 2 violators
///   → base heap only, and a sole violator → base heap plus one exact
///   evaluation of the violator itself outside the heaps. A
///   violator-set flip switches regimes; it never rebuilds anything.
///
/// Each pass is toggle-for-toggle a prefix of the literal scan's pass,
/// ties to the lowest node id included, with the same best cut and
/// merit — `tests/queue_parity.rs` checks every commit against an
/// independent scan oracle that runs every pass to the end. A commit
/// costs O(dirty · log n) for the in-place re-keys plus O(visited · log
/// visited) for the walk, instead of O(free) probes.
fn run_trajectory(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    free: &NodeSet,
    free_nodes: &[NodeId],
    spec: &TrajectorySpec<'_>,
    scratch: &mut SearchScratch,
    mut trace: Option<&mut Vec<Vec<NodeId>>>,
) -> (Cut, CacheStats) {
    let n = ctx.node_count();
    let config = spec.config;
    let weights = &config.weights;
    let mut stats = CacheStats {
        trajectories: 1,
        ..CacheStats::default()
    };
    if std::mem::replace(&mut scratch.warm, true) {
        stats.arena_reuses = 1;
    } else {
        stats.arena_allocs = 1;
    }

    // Seeded refinement (multilevel uncoarsening): the trajectory starts
    // from the projected coarse cut instead of the all-software
    // configuration. The seed becomes the incumbent only when it is
    // already a legal positive-merit cut at *this* level — a coarse cut
    // may under-count fine I/O, and an illegal start is exactly the
    // "allow a cut to be illegal" regime of the paper's pass loop: the
    // toggles get the chance to legalize it, and only legal states are
    // ever recorded.
    let mut best_cut = Cut::empty(n);
    let mut best_merit = 0.0f64;
    if let Some(seed) = spec.start {
        if !seed.is_empty() {
            let c = Cut::evaluate(ctx, seed.clone());
            if c.satisfies_io(io) && c.merit() > 0.0 && ctx.is_convex(c.nodes()) {
                best_merit = c.merit();
                best_cut = c;
            }
        }
    }
    let start_nodes = spec.start.unwrap_or_else(|| best_cut.nodes());
    let mut engine =
        ToggleEngine::from_cut_in(ctx, start_nodes, std::mem::take(&mut scratch.arena));
    let cache = &mut scratch.cache;
    let marked = &mut scratch.marked;
    let best_nodes = &mut scratch.best_nodes;
    let heap_base = &mut scratch.heap_base;
    let heap_merit = &mut scratch.heap_merit;
    let frontier_base = &mut scratch.frontier_base;
    let frontier_merit = &mut scratch.frontier_merit;
    let touched = &mut scratch.touched;
    let start_cut = &mut scratch.start_cut;
    let leave_list = &mut scratch.leave_list;
    let floor = &mut scratch.floor;

    // Invariant-audit cadence; the disabled path is one integer compare
    // per commit.
    let audit_every = crate::audit::effective_cadence(config.audit_cadence) as u64;
    let mut commits_done: u64 = 0;

    for pass in 0..config.max_passes {
        if pass > 0 {
            engine.reset_from_cut(best_cut.nodes());
        }
        cache.reset(n);
        marked.reset(n);
        floor.reset(n);
        if let Some(t) = trace.as_deref_mut() {
            t.push(Vec::new());
        }
        // Scalars of the pass-best snapshot; the nodes live in
        // `best_nodes` (copied, not allocated, on each improvement).
        let mut pass_best: Option<(u32, u32, u64, f64)> = None;
        let mut pass_best_merit = best_merit;
        let mut forced = if pass == 0 { spec.seed } else { None };

        // Queue state of the pass: the pass-start side split, the two
        // entering-candidate heaps keyed by frame-free terms, and the
        // hinge-slack maxima their bounds lean on.
        let mut hinges = HingeSlack::new();
        start_cut.copy_from(engine.cut());
        leave_list.clear();
        for v in start_cut.iter() {
            if free.contains(v) {
                leave_list.push(v);
            }
        }
        heap_base.reset(n);
        heap_merit.reset(n);
        for &v in free_nodes {
            if start_cut.contains(v) {
                continue;
            }
            let t = cache.entering_terms(&engine, v);
            hinges.absorb(&t);
            rekey_entering(heap_base, heap_merit, ctx, weights, v, &t);
        }

        for _ in 0..free_nodes.len() {
            // Pick the max-gain unmarked node; ties break to the lowest
            // node id (determinism).
            let mut chosen = forced.take();
            if chosen.is_none() {
                // Exact scan over the few leaving candidates first …
                let mut best: Option<(f64, NodeId)> = None;
                for &v in leave_list.iter() {
                    if marked.contains(v) {
                        continue;
                    }
                    let g = cache.gain(&engine, weights, io, v);
                    if beats(g, v, best) {
                        best = Some((g, v));
                    }
                }
                // … then the live gate signature picks the heaps to
                // consult: no violators → both (the merit heap bounds
                // the cone-locally-convex candidates, the base heap
                // the rest), ≥ 2 violators → base heap only (merit is
                // gate-closed for everyone). A sole violator is the
                // one node whose merit survives a closed gate: if it
                // is an entering candidate, evaluate it exactly here
                // and skip its base-heap slot below.
                let sig = engine.gate_signature();
                let mut special: Option<u32> = None;
                if sig.0 == 1 {
                    let x = NodeId::from_index(sig.1 as usize);
                    if free.contains(x) && !marked.contains(x) && !start_cut.contains(x) {
                        special = Some(x.index() as u32);
                        let g = cache.gain(&engine, weights, io, x);
                        if beats(g, x, best) {
                            best = Some((g, x));
                        }
                    }
                }
                let frame = StepFrame::new(&engine, weights, io, &hinges);
                let use_merit = sig.0 == 0;
                // Walk the consulted heaps best-first, always visiting
                // the frontier slot with the higher bound (base wins
                // ties), until no bound left can beat the incumbent.
                let mut walk_base = heap_base.walk(frontier_base);
                let mut walk_merit = heap_merit.walk(frontier_merit);
                loop {
                    if walk_base.peek().is_some_and(|(_, u)| Some(u) == special) {
                        // Already judged exactly above; its subtree
                        // still has to be walked.
                        walk_base.next();
                        stats.queue_pops += 1;
                    }
                    let b_base = walk_base.peek().map(|(k, _)| frame.bound(k, false));
                    let b_merit = walk_merit
                        .peek()
                        .filter(|_| use_merit)
                        .map(|(k, _)| frame.bound(k, true));
                    let (bound, walk) = match (b_base, b_merit) {
                        (None, None) => break,
                        (Some(b), Some(m)) if m > b => (m, &mut walk_merit),
                        (Some(b), _) => (b, &mut walk_base),
                        (None, Some(m)) => (m, &mut walk_merit),
                    };
                    // A child's key never exceeds its parent's and the
                    // bound rises with the key, so `bound` dominates
                    // every slot left in a consulted heap; each
                    // unmarked entering candidate has a slot there
                    // whose bound dominates its true gain — nothing
                    // left can win or tie.
                    if best.is_some_and(|(bg, _)| bound < bg) {
                        break;
                    }
                    let Some((_, u)) = walk.next() else { break };
                    stats.queue_pops += 1;
                    let node = NodeId::from_index(u as usize);
                    let g = cache.gain(&engine, weights, io, node);
                    if beats(g, node, best) {
                        best = Some((g, node));
                    }
                }
                chosen = best.map(|(_, v)| v);
            }
            let Some(v) = chosen else { break };
            if let Some(pass_trace) = trace.as_deref_mut().and_then(|t| t.last_mut()) {
                pass_trace.push(v);
            }
            cache.commit_tracked(&mut engine, v, touched);
            marked.insert(v);
            heap_base.remove(v.index() as u32);
            heap_merit.remove(v.index() as u32);
            // Targeted re-key: exactly the nodes the commit touched are
            // refreshed and sifted in place; every other slot's key is
            // still current because keys fold no global state (a
            // hull-bit flip moves only merit-heap membership).
            // Word-level pre-mask: the touched set is dominated by
            // already-committed cut members (leave-term coverage),
            // which the re-key must skip — filter them out 64 at a
            // time instead of testing three sets per bit.
            touched.for_each_word(|wi, w| {
                let mut m = w & free.word(wi) & !start_cut.word(wi) & !marked.word(wi);
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let u = NodeId::from_index(wi * 64 + b);
                    let t = cache.entering_terms(&engine, u);
                    hinges.absorb(&t);
                    rekey_entering(heap_base, heap_merit, ctx, weights, u, &t);
                    stats.queue_reinsertions += 1;
                }
            });
            floor.commit(ctx, free, start_cut, v);
            commits_done += 1;
            if audit_every != 0 && commits_done.is_multiple_of(audit_every) {
                let mut divergences = engine.audit_divergences();
                if floor.inputs() > engine.input_count() || floor.outputs() > engine.output_count()
                {
                    divergences.push(format!(
                        "I/O floor ({}, {}) exceeds the cut's I/O ({}, {})",
                        floor.inputs(),
                        floor.outputs(),
                        engine.input_count(),
                        engine.output_count()
                    ));
                }
                divergences.extend(cache.audit_divergences(&engine));
                divergences.extend(audit_queue(
                    ctx,
                    weights,
                    cache,
                    [&*heap_base, &*heap_merit],
                    free_nodes,
                    start_cut,
                    marked,
                ));
                cache.note_audit();
                if !divergences.is_empty() {
                    panic!(
                        "{}",
                        crate::AuditReport {
                            flavour: spec.flavour.to_string(),
                            commits: commits_done,
                            divergences,
                        }
                    );
                }
            }
            if engine.is_legal(io) {
                let m = engine.merit();
                if m > pass_best_merit {
                    pass_best_merit = m;
                    best_nodes.copy_from(engine.cut());
                    pass_best = Some((
                        engine.input_count(),
                        engine.output_count(),
                        engine.software_latency(),
                        engine.hardware_latency(),
                    ));
                }
            }
            // No later state of this pass can be legal: the pass best
            // is final.
            if floor.exceeds(io) {
                stats.floor_stops += 1;
                break;
            }
        }

        stats.absorb(cache.stats());
        match pass_best {
            Some((inputs, outputs, sw, hw)) => {
                best_merit = pass_best_merit;
                best_cut = Cut::from_parts(best_nodes.clone(), inputs, outputs, sw, hw);
            }
            None => break, // no improvement this pass
        }
    }
    scratch.arena = engine.into_arena();
    (best_cut, stats)
}

/// Runs a single trajectory with the given flavour weights and no
/// restart seed, returning the exact sequence of committed toggles of
/// each pass and the trajectory's best cut — the observables
/// `tests/queue_parity.rs` checks against an independent scan oracle.
/// Hidden: test scaffolding, not API.
#[doc(hidden)]
pub fn trajectory_commit_trace(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    config: &SearchConfig,
    forbidden: Option<&NodeSet>,
) -> (Vec<Vec<NodeId>>, Cut) {
    let mut trace = Vec::new();
    let mut free = ctx.eligible().clone();
    if let Some(f) = forbidden {
        free.subtract(f);
    }
    let free_nodes: Vec<NodeId> = free.iter().collect();
    let spec = TrajectorySpec {
        config,
        flavour: "base",
        seed: None,
        start: None,
    };
    let mut scratch = SearchScratch::new();
    let (cut, _) = run_trajectory(
        ctx,
        io,
        &free,
        &free_nodes,
        &spec,
        &mut scratch,
        Some(&mut trace),
    );
    (trace, cut)
}

/// Picks up to `restarts − 1` forced first moves, spread across the
/// block: the highest-gain unmarked nodes with pairwise undirected
/// distance ≥ 3, so each restart explores a different region.
fn restart_seeds(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    config: &SearchConfig,
    free_nodes: &[NodeId],
) -> Vec<NodeId> {
    if config.restarts <= 1 {
        return Vec::new();
    }
    let n = ctx.node_count();
    let engine = ToggleEngine::new(ctx);
    let mut scored: Vec<(f64, NodeId)> = free_nodes
        .iter()
        .map(|&v| (gain_of(&engine, ctx, &config.weights, io, v), v))
        .collect();
    // Descending gain (total order, so −0.0 sorts below +0.0), ties to
    // the lowest node id.
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

    let dag = ctx.block().dag();
    let mut banned = NodeSet::new(n);
    let mut seeds = Vec::new();
    for (_, v) in scored {
        if seeds.len() + 1 >= config.restarts {
            break;
        }
        if banned.contains(v) {
            continue;
        }
        seeds.push(v);
        // Ban the undirected 2-neighbourhood of the seed.
        let mut frontier = vec![v];
        banned.insert(v);
        for _ in 0..2 {
            let mut next = Vec::new();
            for &u in &frontier {
                for &w in dag.preds(u).iter().chain(dag.succs(u)) {
                    if banned.insert(w) {
                        next.push(w);
                    }
                }
            }
            frontier = next;
        }
    }
    seeds
}

/// [`CutFinder`] adapter for the ISEGEN bi-partition, so the generic
/// application driver ([`crate::Generator`]) can run ISEGEN alongside
/// the baseline algorithms.
///
/// The finder owns a pool of [`SearchScratch`] arenas that stays warm
/// across `find_cut` calls (and therefore across blocks), and sums the
/// [`CacheStats`] of every search it ran, readable via
/// [`IsegenFinder::accumulated_stats`].
#[derive(Debug)]
pub struct IsegenFinder {
    config: SearchConfig,
    pool: Vec<SearchScratch>,
    stats: CacheStats,
}

impl Default for IsegenFinder {
    fn default() -> Self {
        IsegenFinder::new(SearchConfig::default())
    }
}

impl IsegenFinder {
    /// Creates a finder with the given search configuration.
    pub fn new(config: SearchConfig) -> Self {
        IsegenFinder {
            config,
            pool: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// The search configuration in use.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The probe/arena statistics accumulated by every search this
    /// finder ran since construction.
    pub fn accumulated_stats(&self) -> CacheStats {
        self.stats
    }
}

impl CutFinder for IsegenFinder {
    fn find_cut(
        &mut self,
        ctx: &BlockContext<'_>,
        io: IoConstraints,
        forbidden: Option<&NodeSet>,
    ) -> Cut {
        self.find_cut_budget(ctx, io, forbidden, 1)
    }

    fn find_cut_budget(
        &mut self,
        ctx: &BlockContext<'_>,
        io: IoConstraints,
        forbidden: Option<&NodeSet>,
        threads: usize,
    ) -> Cut {
        let (cut, stats, _) =
            search_impl(ctx, io, &self.config, forbidden, threads, &mut self.pool);
        self.stats.absorb(stats);
        cut
    }

    fn name(&self) -> &str {
        "isegen"
    }
}

#[cfg(test)]
mod tests {
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

    fn search(
        ctx: &BlockContext<'_>,
        io: IoConstraints,
        config: &SearchConfig,
        forbidden: Option<&NodeSet>,
    ) -> Cut {
        let mut s = Search::new(config.clone());
        if let Some(f) = forbidden {
            s = s.forbidden(f);
        }
        s.run(ctx, io).cut
    }

    #[test]
    fn finds_the_whole_cluster() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let cut = search(
            &ctx,
            IoConstraints::new(4, 2),
            &SearchConfig::default(),
            None,
        );
        assert_eq!(cut.nodes().len(), 3);
        assert_eq!(cut.input_count(), 4);
        assert_eq!(cut.output_count(), 1);
        assert!(ctx.is_convex(cut.nodes()));
        assert!(cut.merit() > 0.0);
    }

    #[test]
    fn respects_io_constraints() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        for (i, o) in [(2u32, 1u32), (3, 1), (4, 1), (4, 2)] {
            let io = IoConstraints::new(i, o);
            let cut = search(&ctx, io, &SearchConfig::default(), None);
            assert!(
                cut.is_empty() || cut.satisfies_io(io),
                "cut {:?} violates {io}",
                cut
            );
            if !cut.is_empty() {
                assert!(ctx.is_convex(cut.nodes()), "cut must be convex under {io}");
            }
        }
    }

    #[test]
    fn respects_forbidden_nodes() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let ids: Vec<NodeId> = block.dag().node_ids().collect();
        let forbidden = NodeSet::from_ids(7, [ids[6]]); // the add
        let cut = search(
            &ctx,
            IoConstraints::new(4, 2),
            &SearchConfig::default(),
            Some(&forbidden),
        );
        assert!(!cut.nodes().contains(ids[6]));
        assert!(!cut.is_empty(), "the muls alone still form a cut");
    }

    #[test]
    fn all_forbidden_yields_empty() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let cut = search(
            &ctx,
            IoConstraints::new(4, 2),
            &SearchConfig::default(),
            Some(ctx.eligible()),
        );
        assert!(cut.is_empty());
    }

    #[test]
    fn deterministic() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let a = search(
            &ctx,
            IoConstraints::new(4, 2),
            &SearchConfig::default(),
            None,
        );
        let b = search(
            &ctx,
            IoConstraints::new(4, 2),
            &SearchConfig::default(),
            None,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn single_pass_config() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let config = SearchConfig {
            max_passes: 1,
            ..SearchConfig::default()
        };
        let cut = search(&ctx, IoConstraints::new(4, 2), &config, None);
        assert!(!cut.is_empty());
    }
}
