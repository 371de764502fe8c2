//! Static analysis for ISEGEN IR: a lint framework that diagnoses
//! degenerate or suspicious dataflow blocks *before* the K-L search
//! sees them.
//!
//! The paper's flow (Biswas et al., DATE 2005) assumes an acyclic,
//! rank-ordered DFG with sane latencies and at least one ISE-eligible
//! operation. The IR types enforce the first two at construction
//! ([`isegen_graph::Dag::add_edge`] only accepts forward edges,
//! [`LatencyModel::with_hw_delay`] only finite non-negative delays), so
//! the passes read a validated [`isegen_ir::BasicBlock`] directly and
//! diagnose what a valid block can still get wrong: dead or redundant
//! work, port budgets no cut can meet, unprofitable latencies, odd
//! frequencies, and — for blocks assembled with
//! [`isegen_ir::BasicBlock::from_dag`], which skips the builder's
//! checks — operand counts that break the opcode's arity.
//!
//! # Diagnostic registry
//!
//! | Code | Severity | Meaning |
//! |------|----------|---------|
//! | A001 | warning  | dead node: no live-out or store is reachable |
//! | A002 | warning  | unused input: no consumer and not live-out |
//! | A003 | warning  | duplicate structurally-identical operation |
//! | A004 | warning  | algebraically foldable operation (`x^x`, `not(not(x))`, …) |
//! | A006 | error    | arity mismatch: operand count differs from the opcode's arity |
//! | A007 | warning  | I/O infeasibility: no nonempty cut fits the port budget |
//! | A009 | warning  | unprofitable latency: hardware delay ≥ software cycles |
//! | A010 | warning  | suspicious frequency: zero or above `MAX_FREQUENCY` |
//! | A011 | warning  | duplicate input label |
//!
//! Codes are stable: A005 (combinational cycle) and A008 (invalid
//! latency) are retired, because no block or model the IR can build
//! triggers them, and their numbers stay unused.
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

pub use passes::{registry, Pass};

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

/// Configuration the environment-dependent passes (A007, A009) lint
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
    // Canonical-text line of each block header: line 1 is `app "name"`,
    // and a block spans its header, one line per node, one `live` line
    // per live-out, and `end`.
    let mut header = 2;
    for block in app.blocks() {
        passes::run_registry(block, header, opts, &mut out);
        header += 1 + block.node_count() + block.live_outs().len() + 1;
    }
    out.sort_by(|a, b| {
        (a.line.unwrap_or(usize::MAX), a.node, a.code, &a.block).cmp(&(
            b.line.unwrap_or(usize::MAX),
            b.node,
            b.code,
            &b.block,
        ))
    });
    out
}
