//! Static analysis for ISEGEN IR: a lint framework that diagnoses
//! degenerate or hostile dataflow blocks *before* the K-L search sees
//! them.
//!
//! The paper's flow (Biswas et al., DATE 2005) trusts its input blocks:
//! the search assumes an acyclic, rank-ordered DFG with sane latencies
//! and at least one ISE-eligible operation. With external front-ends on
//! the roadmap (BLIF, text IR over the `ised` wire), that trust has to
//! be earned — this crate turns the implicit preconditions into named,
//! testable diagnostics.
//!
//! # Architecture
//!
//! Lints run over a [`BlockView`] — a *raw*, unvalidated mirror of a
//! basic block (opcodes, operand indices, live-out flags, frequency).
//! Unlike [`isegen_ir::BlockBuilder`] and the text parser, a view can
//! encode anything: cycles, forward references, out-of-range operands,
//! dead nodes. That is the point — the validated `Application` path can
//! never exhibit half of the defects below, but future front-ends (and
//! the firing tests in `tests/analysis_lint.rs`) can, so the passes are
//! written against the hostile representation and [`analyze`] merely
//! projects a well-formed [`Application`] into it.
//!
//! Every pass is bounds-checked end to end: [`analyze`] and
//! [`analyze_view`] never panic, whatever the input.
//!
//! # Diagnostic registry
//!
//! | Code | Severity | Meaning |
//! |------|----------|---------|
//! | A001 | warning  | dead node: no live-out or store is reachable |
//! | A002 | warning  | unused input: no consumer and not live-out |
//! | A003 | warning  | duplicate structurally-identical operation |
//! | A004 | warning  | algebraically foldable operation (`x^x`, `not(not(x))`, …) |
//! | A005 | error    | combinational cycle |
//! | A006 | error    | rank inconsistency: out-of-range/forward operand or arity mismatch |
//! | A007 | warning  | I/O infeasibility: no nonempty cut fits the port budget |
//! | A008 | error    | invalid latency: NaN/infinite/negative hardware delay |
//! | A009 | warning  | unprofitable latency: hardware delay ≥ software cycles |
//! | A010 | warning  | suspicious frequency: zero or above `MAX_FREQUENCY` |
//! | A011 | warning  | duplicate input label |
//!
//! Line numbers refer to the *canonical* text-IR serialization
//! ([`isegen_ir::write_application`]), which is deterministic, so spans
//! are computed arithmetically from the block shapes without
//! re-serializing.
//!
//! # Quickstart
//!
//! ```
//! use isegen_analysis::{analyze, Severity};
//! use isegen_ir::{BlockBuilder, Application, Opcode};
//!
//! # fn main() -> Result<(), isegen_ir::BuildError> {
//! let mut b = BlockBuilder::new("bb");
//! let x = b.input("x");
//! let unused = b.input("y"); // never consumed -> A002
//! let _ = unused;
//! b.op(Opcode::Xor, &[x, x])?; // x^x is always zero -> A004
//! let mut app = Application::new("demo");
//! app.push_block(b.build()?);
//!
//! let diags = analyze(&app);
//! assert!(diags.iter().any(|d| d.code == "A002"));
//! assert!(diags.iter().any(|d| d.code == "A004"));
//! assert!(diags.iter().all(|d| d.severity == Severity::Warning));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod passes;
mod view;

pub use passes::{registry, Pass};
pub use view::BlockView;

use isegen_core::IoConstraints;
use isegen_ir::{Application, LatencyModel};
use std::fmt;

/// How bad a finding is.
///
/// `Error` findings mean the block violates a structural precondition
/// of the search, and no registry workload may raise one
/// (`tests/analysis_lint.rs`); `Warning` findings are
/// legal-but-suspicious constructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Legal input, but almost certainly not what the author meant.
    Warning,
    /// Violates a structural precondition of the toolchain.
    Error,
}

impl Severity {
    /// Lowercase name, as emitted on the wire and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (`A001`..): the contract clients key on.
    pub code: &'static str,
    /// Severity of this finding.
    pub severity: Severity,
    /// Name of the block the finding is in.
    pub block: String,
    /// Node index within the block, if the finding is node-anchored.
    pub node: Option<usize>,
    /// 1-based line in the canonical text-IR serialization, when known.
    pub line: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} [block {:?}", self.code, self.severity, self.block)?;
        if let Some(n) = self.node {
            write!(f, " n{n}")?;
        }
        if let Some(l) = self.line {
            write!(f, " line {l}")?;
        }
        write!(f, "]: {}", self.message)
    }
}

/// Configuration the environment-dependent passes (A007..A009) lint
/// against.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Register-file port budget the search will run under.
    pub io: IoConstraints,
    /// Latency model the search will score with.
    pub model: LatencyModel,
}

impl Default for LintOptions {
    /// The paper's configuration: a `(4, 2)` port budget and the
    /// default latency table.
    fn default() -> Self {
        LintOptions {
            io: IoConstraints::new(4, 2),
            model: LatencyModel::paper_default(),
        }
    }
}

/// Runs the full registry over every block of `app` with
/// [`LintOptions::default`].
///
/// Never panics, whatever `app` contains.
pub fn analyze(app: &Application) -> Vec<Diagnostic> {
    analyze_with(app, &LintOptions::default())
}

/// Runs the full registry over every block of `app` with explicit
/// options.
pub fn analyze_with(app: &Application, opts: &LintOptions) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for view in view::app_views(app) {
        run_registry(&view, opts, &mut out);
    }
    sort_diagnostics(&mut out);
    out
}

/// Runs the full registry over one raw [`BlockView`].
///
/// This is the hostile-input entry point: the view may contain cycles,
/// forward references and out-of-range operands, and the passes must
/// (and do) survive all of it.
pub fn analyze_view(view: &BlockView, opts: &LintOptions) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    run_registry(view, opts, &mut out);
    sort_diagnostics(&mut out);
    out
}

fn run_registry(view: &BlockView, opts: &LintOptions, out: &mut Vec<Diagnostic>) {
    for pass in registry() {
        pass.run(view, opts, out);
    }
}

fn sort_diagnostics(out: &mut [Diagnostic]) {
    out.sort_by(|a, b| {
        (a.line.unwrap_or(usize::MAX), a.node, a.code, &a.block).cmp(&(
            b.line.unwrap_or(usize::MAX),
            b.node,
            b.code,
            &b.block,
        ))
    });
}
