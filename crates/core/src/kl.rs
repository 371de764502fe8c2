use crate::cache::{CacheStats, GainCache};
use crate::coarsen::{multilevel_search, MultilevelConfig, MultilevelReport};
use crate::driver::CutFinder;
use crate::engine::EngineArena;
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
    /// toggle, re-derive the engine, gain-cache and I/O-floor state from
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
/// table, the pass's candidate and commit lists and the pass-best
/// snapshot buffer — pooled so that trajectory setup is a copy or a
/// reset, not an allocation.
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
    /// The portfolio's start table ([`GainCache::fill`]); only the
    /// pool's first scratch keeps one, filled before each fan-out.
    table: GainCache,
    best_nodes: NodeSet,
    /// The cut at pass start; the permanent I/O floor counts only the
    /// committed nodes outside it.
    start_cut: NodeSet,
    /// The unmarked free nodes of the pass: a committed node is swapped
    /// out, so the selection scan reads no mark set.
    unmarked: Vec<NodeId>,
    /// The pass's commits in order, undone back to the pass best before
    /// the next pass.
    pass_commits: Vec<NodeId>,
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

/// What every trajectory of one portfolio shares: the free set, as a
/// set and as an ascending list, and the start table — every free
/// node's cache entry against the common start cut.
struct Portfolio<'s> {
    free: &'s NodeSet,
    free_nodes: &'s [NodeId],
    table: &'s GainCache,
}

/// Everything one [`Search`] run produced: the best cut, the merged
/// probe/scan statistics of the whole portfolio, and the V-cycle
/// evidence when the multilevel pipeline ran.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SearchOutcome {
    /// The best legal cut found; empty when no legal cut with positive
    /// merit exists (e.g. everything is forbidden).
    pub cut: Cut,
    /// Gain-cache probe and scan statistics merged over every
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
///
/// Every trajectory starts from the same cut (empty, or `start`), so
/// the free nodes' cache entries against it are evaluated once, before
/// the fan-out, into a start table that each trajectory copies; the
/// restart seeds are scored from the same table.
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
    if pool.is_empty() {
        pool.push(SearchScratch::default());
    }
    let empty = NodeSet::new(n);
    let mut table = std::mem::take(&mut pool[0].table);
    let arena = std::mem::take(&mut pool[0].arena);
    let engine = ToggleEngine::from_cut_in(ctx, start.unwrap_or(&empty), arena);
    table.fill(&engine, &free_nodes);
    stats.absorb(table.stats());
    let seeds = match start {
        None => restart_seeds(&engine, &table, io, config, &free_nodes),
        Some(_) => Vec::new(),
    };
    pool[0].arena = engine.into_arena();

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
        for &seed in &seeds {
            specs.push(TrajectorySpec {
                config: cfg,
                flavour,
                seed: Some(seed),
                start: None,
            });
        }
    }

    let shared = Portfolio {
        free,
        free_nodes: &free_nodes,
        table: &table,
    };
    let results = run_trajectories(ctx, io, &shared, &specs, threads, pool);
    pool[0].table = table;

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
    shared: &Portfolio<'_>,
    specs: &[TrajectorySpec<'_>],
    threads: usize,
    pool: &mut Vec<SearchScratch>,
) -> Vec<(Cut, CacheStats)> {
    let workers = threads.max(1).min(specs.len());
    if pool.len() < workers {
        pool.resize_with(workers, SearchScratch::default);
    }
    deal_indexed(specs, &mut pool[..workers], |spec, scratch| {
        run_trajectory(ctx, io, shared, spec, scratch, None)
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
/// Each step evaluates the gain of every unmarked free node, exactly as
/// the paper's pass does, and commits the best under [`beats`]: higher
/// gain, ties to the lowest node id. That is a total order, so the
/// order of the scan does not matter. The gains are served by a
/// [`GainCache`]: after each committed toggle only the commit's full
/// class is re-probed, and its hull-only class is settled in place;
/// every other gain is recombined from cached local terms in O(1). The
/// cached gains are bit-identical to fresh probes
/// (`tests/gain_cache_prop.rs`), so a commit costs one O(1)
/// recombination per unmarked candidate plus the fresh probes of the
/// candidates the previous commit dirtied.
///
/// The cache never starts cold. Pass 0 starts from a copy of the
/// portfolio's start table, filled against the same start cut, and a
/// forced seed then commits through it like any other toggle. Each
/// later pass starts from the previous pass best, which the trajectory
/// left only a few commits earlier: those commits are undone, newest
/// first ([`GainCache::roll_back`]), leaving the engine equal to one
/// built from that cut and the cache exact and warm
/// (`tests/rollback.rs`).
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
/// Each pass is toggle-for-toggle a prefix of the literal uncached
/// scan's pass, with the same best cut and merit —
/// `tests/queue_parity.rs` checks every commit against an independent
/// scan oracle that runs every pass to the end.
fn run_trajectory(
    ctx: &BlockContext<'_>,
    io: IoConstraints,
    shared: &Portfolio<'_>,
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
    cache.copy_from(shared.table);
    let best_nodes = &mut scratch.best_nodes;
    let start_cut = &mut scratch.start_cut;
    let unmarked = &mut scratch.unmarked;
    let pass_commits = &mut scratch.pass_commits;
    let floor = &mut scratch.floor;

    // Invariant-audit cadence; the disabled path is one integer compare
    // per commit.
    let audit_every = crate::audit::effective_cadence(config.audit_cadence) as u64;
    let mut commits_done: u64 = 0;
    // Length of the pass's commit list at its best cut.
    let mut best_len = 0;

    for pass in 0..config.max_passes {
        if pass > 0 {
            cache.roll_back(&mut engine, &pass_commits[best_len..]);
            debug_assert_eq!(
                engine.cut(),
                best_cut.nodes(),
                "rollback missed the pass best"
            );
            if audit_every != 0 {
                audit(&engine, cache, Vec::new(), spec.flavour, commits_done);
            }
        }
        floor.reset(n);
        start_cut.copy_from(engine.cut());
        unmarked.clear();
        unmarked.extend_from_slice(shared.free_nodes);
        pass_commits.clear();
        if let Some(t) = trace.as_deref_mut() {
            t.push(Vec::new());
        }
        // Scalars of the pass-best snapshot; the nodes live in
        // `best_nodes` (copied, not allocated, on each improvement).
        let mut pass_best: Option<(u32, u32, u64, f64)> = None;
        let mut pass_best_merit = best_merit;
        let mut forced = if pass == 0 { spec.seed } else { None };

        loop {
            // Pick the max-gain unmarked node: the forced seed, else one
            // exact scan of the cached gains.
            let slot = match forced.take() {
                Some(seed) => unmarked.iter().position(|&u| u == seed),
                None => {
                    let mut best: Option<(f64, NodeId)> = None;
                    let mut slot = None;
                    for (i, &v) in unmarked.iter().enumerate() {
                        let g = cache.gain(&engine, weights, io, v);
                        if beats(g, v, best) {
                            best = Some((g, v));
                            slot = Some(i);
                        }
                    }
                    stats.queue_pops += unmarked.len() as u64;
                    slot
                }
            };
            let Some(slot) = slot else { break };
            let v = unmarked.swap_remove(slot);
            if let Some(pass_trace) = trace.as_deref_mut().and_then(|t| t.last_mut()) {
                pass_trace.push(v);
            }
            cache.commit_tracked(&mut engine, v);
            pass_commits.push(v);
            floor.commit(ctx, shared.free, start_cut, v);
            commits_done += 1;
            if audit_every != 0 && commits_done.is_multiple_of(audit_every) {
                let mut divergences = Vec::new();
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
                audit(&engine, cache, divergences, spec.flavour, commits_done);
                cache.note_audit();
            }
            if engine.is_legal(io) {
                let m = engine.merit();
                if m > pass_best_merit {
                    pass_best_merit = m;
                    best_nodes.copy_from(engine.cut());
                    best_len = pass_commits.len();
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

        match pass_best {
            Some((inputs, outputs, sw, hw)) => {
                best_merit = pass_best_merit;
                best_cut = Cut::from_parts(best_nodes.clone(), inputs, outputs, sw, hw);
            }
            None => break, // no improvement this pass
        }
    }
    stats.absorb(cache.stats());
    scratch.arena = engine.into_arena();
    (best_cut, stats)
}

/// One invariant audit: `divergences` found by the caller, plus every
/// engine field and clean cache entry that diverges from a rebuild from
/// scratch. Panics with a structured [`crate::AuditReport`] when any
/// diverges.
fn audit(
    engine: &ToggleEngine<'_, '_>,
    cache: &GainCache,
    mut divergences: Vec<String>,
    flavour: &str,
    commits: u64,
) {
    divergences.extend(engine.audit_divergences());
    divergences.extend(cache.audit_divergences(engine));
    if !divergences.is_empty() {
        panic!(
            "{}",
            crate::AuditReport {
                flavour: flavour.to_string(),
                commits,
                divergences,
            }
        );
    }
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
    let mut table = GainCache::default();
    table.fill(&ToggleEngine::new(ctx), &free_nodes);
    let shared = Portfolio {
        free: &free,
        free_nodes: &free_nodes,
        table: &table,
    };
    let mut scratch = SearchScratch::new();
    let (cut, _) = run_trajectory(ctx, io, &shared, &spec, &mut scratch, Some(&mut trace));
    (trace, cut)
}

/// Picks up to `restarts − 1` forced first moves, spread across the
/// block: the highest-gain free nodes with pairwise undirected distance
/// ≥ 3, so each restart explores a different region. The gains are
/// read from the start table against the empty cut (`engine`), where
/// `N(v, C) = 0`: the cohesive flavour's doubled affinity weighs a zero
/// term, so its gains, and its seeds, are exactly these.
fn restart_seeds(
    engine: &ToggleEngine<'_, '_>,
    table: &GainCache,
    io: IoConstraints,
    config: &SearchConfig,
    free_nodes: &[NodeId],
) -> Vec<NodeId> {
    if config.restarts <= 1 {
        return Vec::new();
    }
    let ctx = engine.ctx();
    let n = ctx.node_count();
    let mut scored: Vec<(f64, NodeId)> = free_nodes
        .iter()
        .map(|&v| {
            let probe = table.recombine(engine, v);
            (config.weights.combine(ctx, io, v, &probe), v)
        })
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
