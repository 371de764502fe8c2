//! The compile pipeline through the library's public entry points, one
//! application at a time, with every layer call timed:
//!
//! text parse (`ir`) → block contexts (`context`) → generation (`driver`
//! around a wrapping [`CutFinder`] that runs `Search::run_pooled`:
//! `search`, `coarsen`) → AFU netlists and Verilog (`rtl`) → three-way
//! verification (`verify`) → IR lint (`lint`).
//!
//! After each run the generation is replayed from the recorded cuts, so
//! no search runs: that is the cost of a selection whose searches are
//! already known (the batch analogue of an `ised` memo hit), and its
//! result must equal the searched selection.

use crate::report::{fnv1a, ms, FNV_BASIS};
use isegen_analysis::LintOptions;
use isegen_core::{
    BlockContext, Cut, CutFinder, Generator, IoConstraints, IseConfig, IseSelection, Search,
    SearchConfig, SearchScratch,
};
use isegen_graph::NodeSet;
use isegen_ir::{text, LatencyModel};
use isegen_rtl::{verify_selection, AfuLibrary, VerifyConfig};
use isegen_workloads::WorkloadSpec;
use std::collections::VecDeque;
use std::time::Instant;

/// Stimulus of every verification: 64 vectors per ISE.
pub const VERIFY: VerifyConfig = VerifyConfig {
    vectors: 64,
    seed: 0x5eed,
};

/// Replays of each generation, for more samples of the cheap path.
pub const REPLAYS: usize = 5;

/// One application as the pipeline receives it: canonical text IR.
#[derive(Debug, Clone)]
pub struct AppInput {
    /// Registry name.
    pub name: &'static str,
    /// Canonical text IR.
    pub ir: String,
    /// IR operations over all blocks.
    pub ops: usize,
}

impl AppInput {
    /// Builds the registry application and writes its text IR.
    pub fn from_spec(spec: &WorkloadSpec) -> AppInput {
        let app = spec.application();
        AppInput {
            name: spec.name,
            ops: app.blocks().iter().map(|b| b.operation_count()).sum(),
            ir: text::write_application(&app),
        }
    }
}

/// Deterministic work counts of pipeline runs: two runs of the same
/// inputs at one thread give equal counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// `Search::run_pooled` calls (one per driver cut request).
    pub searches: u64,
    /// K-L commits.
    pub commits: u64,
    /// Lazy-queue pops.
    pub queue_pops: u64,
    /// Gain probes computed from scratch.
    pub fresh_probes: u64,
    /// Gain probes served from the gain cache.
    pub cached_probes: u64,
    /// K-L trajectories (weight flavours × restarts, all levels).
    pub trajectories: u64,
    /// Multilevel searches whose V-cycle ran.
    pub vcycles: u64,
    /// Hierarchy levels over all V-cycles.
    pub coarsen_levels: u64,
    /// Boundary-band operations refined on the way back down.
    pub band_ops: u64,
    /// Queue pops of the refinement passes.
    pub refine_pops: u64,
    /// V-cycles that fell back to the plain portfolio.
    pub fell_back: u64,
    /// Deployed ISE instances (reuse matching included).
    pub instances: u64,
    /// Bytes of emitted Verilog.
    pub verilog_bytes: u64,
    /// Stimulus vectors driven through the oracle (vectors × ISEs).
    pub vectors: u64,
    /// Lint diagnostics.
    pub diagnostics: u64,
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, o: Counters) {
        self.searches += o.searches;
        self.commits += o.commits;
        self.queue_pops += o.queue_pops;
        self.fresh_probes += o.fresh_probes;
        self.cached_probes += o.cached_probes;
        self.trajectories += o.trajectories;
        self.vcycles += o.vcycles;
        self.coarsen_levels += o.coarsen_levels;
        self.band_ops += o.band_ops;
        self.refine_pops += o.refine_pops;
        self.fell_back += o.fell_back;
        self.instances += o.instances;
        self.verilog_bytes += o.verilog_bytes;
        self.vectors += o.vectors;
        self.diagnostics += o.diagnostics;
    }
}

/// Wall time of each layer call, ms.
#[derive(Debug, Default, Clone, Copy)]
pub struct Times {
    /// `text::parse_application`.
    pub parse: f64,
    /// `BlockContext::new` over every block.
    pub context: f64,
    /// `Generator::run_in_contexts`, searches included.
    pub generate: f64,
    /// Inside the finder: `Search::run_pooled`, coarsening included
    /// (0 when the finder is untimed).
    pub search: f64,
    /// Hierarchy construction reported by multilevel searches.
    pub coarsen: f64,
    /// `AfuLibrary::from_selection` + `emit_verilog`.
    pub rtl: f64,
    /// `verify_selection`.
    pub verify: f64,
    /// `isegen_analysis::analyze_with`.
    pub lint: f64,
}

impl Times {
    /// The request: every pipeline layer.
    pub fn request(&self) -> f64 {
        self.parse + self.context + self.generate + self.rtl + self.verify + self.lint
    }

    /// The driver's own time: generation minus the searches.
    pub fn driver_self(&self) -> f64 {
        (self.generate - self.search).max(0.0)
    }
}

impl std::ops::AddAssign for Times {
    fn add_assign(&mut self, o: Times) {
        self.parse += o.parse;
        self.context += o.context;
        self.generate += o.generate;
        self.search += o.search;
        self.coarsen += o.coarsen;
        self.rtl += o.rtl;
        self.verify += o.verify;
        self.lint += o.lint;
    }
}

/// The cut finder the benchmark wraps around the K-L search: it calls
/// `Search::run_pooled` with a warm arena pool, reads the counters every
/// outcome reports, times each call when asked to, and records the cuts
/// for the replay.
#[derive(Debug)]
struct TimedFinder {
    config: SearchConfig,
    timed: bool,
    pool: Vec<SearchScratch>,
    cuts: Vec<Cut>,
    counters: Counters,
    search_ms: f64,
    coarsen_ms: f64,
}

impl Clone for TimedFinder {
    /// The driver clones finders only for threaded generation; a clone
    /// starts with a cold pool of its own.
    fn clone(&self) -> Self {
        TimedFinder {
            config: self.config.clone(),
            timed: self.timed,
            pool: Vec::new(),
            cuts: self.cuts.clone(),
            counters: self.counters,
            search_ms: self.search_ms,
            coarsen_ms: self.coarsen_ms,
        }
    }
}

impl CutFinder for TimedFinder {
    fn find_cut(
        &mut self,
        ctx: &BlockContext<'_>,
        io: IoConstraints,
        forbidden: Option<&NodeSet>,
    ) -> Cut {
        let mut search = Search::new(self.config.clone());
        if let Some(forbidden) = forbidden {
            search = search.forbidden(forbidden);
        }
        let start = self.timed.then(Instant::now);
        let outcome = search.run_pooled(ctx, io, &mut self.pool);
        if let Some(start) = start {
            self.search_ms += ms(start.elapsed());
        }
        let c = &mut self.counters;
        c.searches += 1;
        c.commits += outcome.stats.commits;
        c.queue_pops += outcome.stats.queue_pops;
        c.fresh_probes += outcome.stats.fresh_probes;
        c.cached_probes += outcome.stats.cached_probes;
        c.trajectories += outcome.stats.trajectories;
        if let Some(ml) = &outcome.multilevel {
            c.vcycles += 1;
            c.coarsen_levels += ml.levels.len() as u64;
            c.band_ops += ml.levels.iter().map(|l| l.band_ops as u64).sum::<u64>();
            c.refine_pops += ml.levels.iter().map(|l| l.refine_pops).sum::<u64>();
            c.fell_back += u64::from(ml.fell_back);
            if self.timed {
                self.coarsen_ms += ml.coarsen_wall_ms;
            }
        }
        self.cuts.push(outcome.cut.clone());
        outcome.cut
    }

    fn name(&self) -> &str {
        "isegen-timed"
    }
}

/// Hands back recorded cuts in order: generation without search.
#[derive(Debug, Clone)]
struct ReplayFinder {
    cuts: VecDeque<Cut>,
    exhausted: bool,
}

impl CutFinder for ReplayFinder {
    fn find_cut(
        &mut self,
        ctx: &BlockContext<'_>,
        _io: IoConstraints,
        _forbidden: Option<&NodeSet>,
    ) -> Cut {
        self.cuts.pop_front().unwrap_or_else(|| {
            self.exhausted = true;
            Cut::empty(ctx.node_count())
        })
    }
}

/// What one application's pipeline run produced.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// The selection.
    pub selection: IseSelection,
    /// The emitted Verilog of the AFU library.
    pub verilog: String,
    /// Lint diagnostics.
    pub diagnostics: usize,
    /// Digest of the selection ([`digest`]).
    pub digest: u64,
    /// Work counts.
    pub counters: Counters,
    /// Layer times.
    pub times: Times,
    /// Wall time of each replayed generation ([`REPLAYS`] of them), ms.
    pub replays_ms: Vec<f64>,
}

/// Fingerprint of a selection: every ISE's block, cut node set, merit
/// bit pattern, saving and instance node sets, plus the totals.
pub fn digest(selection: &IseSelection) -> u64 {
    let mut h = FNV_BASIS;
    let word = |h: &mut u64, v: u64| fnv1a(h, &v.to_le_bytes());
    word(&mut h, selection.total_sw_cycles);
    word(&mut h, selection.saved_cycles);
    for ise in &selection.ises {
        word(&mut h, ise.block_index as u64);
        word(&mut h, ise.cut.merit().to_bits());
        word(&mut h, ise.saved_per_execution);
        for v in ise.cut.nodes().iter() {
            word(&mut h, v.index() as u64);
        }
        word(&mut h, ise.instances.len() as u64);
        for inst in &ise.instances {
            word(&mut h, inst.block_index as u64);
            for v in inst.nodes.iter() {
                word(&mut h, v.index() as u64);
            }
        }
    }
    h
}

/// Runs `input` through the whole pipeline at one thread, then replays
/// the generation from the recorded cuts. `timed` switches the timers
/// inside the finder (the traced layer split) on.
///
/// # Errors
///
/// A description of the first failure: a parse, RTL or verification
/// error, a verification mismatch, or a replay that differs from the
/// searched selection.
pub fn run_app(
    input: &AppInput,
    model: &LatencyModel,
    ise: IseConfig,
    search: &SearchConfig,
    timed: bool,
) -> Result<AppRun, String> {
    let name = input.name;
    let mut times = Times::default();

    let t = Instant::now();
    let app = text::parse_application(&input.ir).map_err(|e| format!("{name}: parse: {e}"))?;
    times.parse = ms(t.elapsed());

    let t = Instant::now();
    let contexts: Vec<BlockContext<'_>> = app
        .blocks()
        .iter()
        .map(|b| BlockContext::new(b, model))
        .collect();
    times.context = ms(t.elapsed());

    let finder = TimedFinder {
        config: search.clone(),
        timed,
        pool: Vec::new(),
        cuts: Vec::new(),
        counters: Counters::default(),
        search_ms: 0.0,
        coarsen_ms: 0.0,
    };
    let t = Instant::now();
    let mut generator = Generator::new(ise).finder(finder).threads(1);
    let selection = generator.run_in_contexts(&contexts);
    times.generate = ms(t.elapsed());
    let finder = generator.into_finder();
    times.search = finder.search_ms;
    times.coarsen = finder.coarsen_ms;
    let mut counters = finder.counters;

    let t = Instant::now();
    let library = AfuLibrary::from_selection(&app, model, &selection)
        .map_err(|e| format!("{name}: rtl: {e}"))?;
    let verilog = library.emit_verilog();
    times.rtl = ms(t.elapsed());

    let t = Instant::now();
    let reports =
        verify_selection(&app, &selection, &VERIFY).map_err(|e| format!("{name}: verify: {e}"))?;
    times.verify = ms(t.elapsed());

    let t = Instant::now();
    let lint = LintOptions {
        io: ise.io,
        ..LintOptions::default()
    };
    let diagnostics = isegen_analysis::analyze_with(&app, &lint).len();
    times.lint = ms(t.elapsed());

    let mismatches: usize = reports.iter().map(|r| r.mismatches).sum();
    if mismatches > 0 || reports.len() != selection.ises.len() {
        return Err(format!(
            "{name}: verification found {mismatches} mismatch(es) over {} of {} ISEs",
            reports.len(),
            selection.ises.len()
        ));
    }

    let mut replays_ms = Vec::with_capacity(REPLAYS);
    for _ in 0..REPLAYS {
        let replay = ReplayFinder {
            cuts: finder.cuts.iter().cloned().collect(),
            exhausted: false,
        };
        let t = Instant::now();
        let mut generator = Generator::new(ise).finder(replay).threads(1);
        let replayed = generator.run_in_contexts(&contexts);
        replays_ms.push(ms(t.elapsed()));
        let replay = generator.into_finder();
        if replayed != selection || replay.exhausted || !replay.cuts.is_empty() {
            return Err(format!(
                "{name}: replayed generation differs from the search"
            ));
        }
    }

    counters.instances = selection.instance_count() as u64;
    counters.verilog_bytes = verilog.len() as u64;
    counters.vectors = (VERIFY.vectors * reports.len()) as u64;
    counters.diagnostics = diagnostics as u64;
    Ok(AppRun {
        digest: digest(&selection),
        selection,
        verilog,
        diagnostics,
        counters,
        times,
        replays_ms,
    })
}
