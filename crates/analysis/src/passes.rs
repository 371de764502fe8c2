//! The lint pass registry.
//!
//! Every pass reads a validated [`BasicBlock`]: operand ids are in
//! range and precede their consumer ([`isegen_graph::Dag::add_edge`]),
//! and latencies are finite and non-negative, so no pass bounds-checks
//! an operand or guards against a cycle or a NaN delay.

use crate::{Diagnostic, LintOptions, Severity};
use isegen_graph::NodeId;
use isegen_ir::text::MAX_FREQUENCY;
use isegen_ir::{BasicBlock, Opcode};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// One finding of a pass: the node it is anchored to, if any, and its
/// message. The driver stamps code, severity, block and line onto it.
pub(crate) type Finding = (Option<usize>, String);

/// A single lint rule.
#[derive(Debug)]
pub struct Pass {
    /// Stable diagnostic code (`A001`..).
    pub code: &'static str,
    /// Severity of this rule's findings.
    pub severity: Severity,
    /// One-line description for docs and reports.
    pub summary: &'static str,
    /// Runs the rule over one block.
    pub(crate) run: fn(&BasicBlock, &LintOptions, &mut Vec<Finding>),
}

const REGISTRY: &[Pass] = &[
    Pass {
        code: "A001",
        severity: Severity::Warning,
        summary: "dead node: no live-out or store is reachable",
        run: dead_node,
    },
    Pass {
        code: "A002",
        severity: Severity::Warning,
        summary: "unused input: no consumer and not live-out",
        run: unused_input,
    },
    Pass {
        code: "A003",
        severity: Severity::Warning,
        summary: "duplicate structurally-identical operation",
        run: duplicate_op,
    },
    Pass {
        code: "A004",
        severity: Severity::Warning,
        summary: "algebraically foldable operation",
        run: foldable_op,
    },
    Pass {
        code: "A006",
        severity: Severity::Error,
        summary: "arity mismatch: operand count differs from the opcode's arity",
        run: arity_mismatch,
    },
    Pass {
        code: "A007",
        severity: Severity::Warning,
        summary: "I/O infeasibility: no nonempty cut fits the port budget",
        run: io_infeasible,
    },
    Pass {
        code: "A009",
        severity: Severity::Warning,
        summary: "unprofitable latency: hardware delay >= software cycles",
        run: unprofitable_latency,
    },
    Pass {
        code: "A010",
        severity: Severity::Warning,
        summary: "suspicious frequency: zero or above MAX_FREQUENCY",
        run: suspicious_frequency,
    },
    Pass {
        code: "A011",
        severity: Severity::Warning,
        summary: "duplicate input label",
        run: duplicate_input_label,
    },
];

/// The full pass registry, in code order.
pub fn registry() -> &'static [Pass] {
    REGISTRY
}

/// Runs every pass over `block`, whose `block` header sits on
/// canonical-text line `header`: node `n` is defined on line
/// `header + 1 + n`, and block-level findings point at the header.
pub(crate) fn run_registry(
    block: &BasicBlock,
    header: usize,
    opts: &LintOptions,
    out: &mut Vec<Diagnostic>,
) {
    let mut found = Vec::new();
    for pass in registry() {
        (pass.run)(block, opts, &mut found);
        out.extend(found.drain(..).map(|(node, message)| Diagnostic {
            code: pass.code,
            severity: pass.severity,
            block: block.name().to_string(),
            node,
            line: Some(node.map_or(header, |n| header + 1 + n)),
            message,
        }));
    }
}

/// Opcodes whose first two operands commute (used to normalize operand
/// lists before structural comparison).
fn is_commutative(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Add
            | Opcode::Mul
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Eq
            | Opcode::Min
            | Opcode::Max
    )
}

/// A001: a non-input node from which no live-out value or store is
/// reachable — the search would happily include it, but its result can
/// never be observed. Only [`BasicBlock::from_dag`] can build one: the
/// builder and the text parser make every sink live-out.
fn dead_node(block: &BasicBlock, _opts: &LintOptions, out: &mut Vec<Finding>) {
    let dag = block.dag();
    // useful = live-out or side-effecting, closed backwards over operand
    // edges. Operands precede their consumers, so one descending sweep
    // settles each node before any of its operands is visited.
    let mut useful = vec![false; dag.node_count()];
    for v in dag.node_ids().rev() {
        if useful[v.index()] || block.is_live_out(v) || block.opcode(v) == Opcode::Store {
            useful[v.index()] = true;
            for &p in dag.preds(v) {
                useful[p.index()] = true;
            }
        }
    }
    for (v, op) in dag.nodes() {
        let i = v.index();
        if !useful[i] && !op.opcode().is_input() {
            out.push((
                Some(i),
                format!(
                    "dead node: no live-out or store is reachable from n{i} ({})",
                    op.opcode().mnemonic()
                ),
            ));
        }
    }
}

/// A002: an input that no operation consumes and that is not live-out.
fn unused_input(block: &BasicBlock, _opts: &LintOptions, out: &mut Vec<Finding>) {
    let dag = block.dag();
    for (v, op) in dag.nodes() {
        if op.opcode() == Opcode::Input && dag.succs(v).is_empty() && !block.is_live_out(v) {
            let i = v.index();
            let label = op.label().map_or(String::new(), |l| format!(" ({l:?})"));
            out.push((
                Some(i),
                format!("unused input: n{i}{label} has no consumer and is not live-out"),
            ));
        }
    }
}

/// A003: two operations with the same opcode, label and (commutatively
/// normalized) operand list — one of them is redundant work the AFU
/// would duplicate in silicon.
fn duplicate_op(block: &BasicBlock, _opts: &LintOptions, out: &mut Vec<Finding>) {
    let dag = block.dag();
    let mut seen: HashMap<(Opcode, Vec<NodeId>, Option<&str>), usize> = HashMap::new();
    for (v, op) in dag.nodes() {
        let opcode = op.opcode();
        if opcode.is_input() {
            continue; // duplicate inputs are A011's business
        }
        let mut preds = dag.preds(v).to_vec();
        if is_commutative(opcode) {
            preds.sort_unstable();
        }
        let i = v.index();
        match seen.entry((opcode, preds, op.label())) {
            Entry::Occupied(first) => out.push((
                Some(i),
                format!(
                    "duplicate operation: n{i} ({}) is structurally identical to n{}",
                    opcode.mnemonic(),
                    first.get()
                ),
            )),
            Entry::Vacant(slot) => {
                slot.insert(i);
            }
        }
    }
}

/// A004: an operation whose result is a constant or a copy of its
/// operand (`x^x`, `x-x`, `x&x`, `min(x,x)`, `not(not(x))`, …) — a
/// constant-foldable subgraph the front-end should have simplified.
fn foldable_op(block: &BasicBlock, _opts: &LintOptions, out: &mut Vec<Finding>) {
    let dag = block.dag();
    for (v, op) in dag.nodes() {
        let op = op.opcode();
        let preds = dag.preds(v);
        let same_binary = preds.len() == 2 && preds[0] == preds[1];
        let unary_of_self = preds.len() == 1 && block.opcode(preds[0]) == op;
        let reason = match op {
            Opcode::Sub | Opcode::Xor if same_binary => {
                format!("{}(x, x) is always zero", op.mnemonic())
            }
            Opcode::And | Opcode::Or | Opcode::Min | Opcode::Max if same_binary => {
                format!("{}(x, x) is just x", op.mnemonic())
            }
            Opcode::Eq if same_binary => "eq(x, x) is always true".to_string(),
            Opcode::Not | Opcode::Neg if unary_of_self => {
                format!("{0}({0}(x)) cancels out", op.mnemonic())
            }
            Opcode::Abs if unary_of_self => "abs(abs(x)) is abs(x)".to_string(),
            _ => continue,
        };
        out.push((Some(v.index()), format!("foldable operation: {reason}")));
    }
}

/// A006: an operand count that does not match the opcode's arity. The
/// builder and the text parser reject such nodes; only
/// [`BasicBlock::from_dag`] can build one.
fn arity_mismatch(block: &BasicBlock, _opts: &LintOptions, out: &mut Vec<Finding>) {
    let dag = block.dag();
    for (v, op) in dag.nodes() {
        let op = op.opcode();
        let i = v.index();
        let operands = dag.preds(v).len();
        if operands != op.arity() {
            out.push((
                Some(i),
                format!(
                    "arity mismatch: {} takes {} operand(s), n{i} has {operands}",
                    op.mnemonic(),
                    op.arity()
                ),
            ));
        }
    }
}

/// A007: no nonempty cut can satisfy the port budget, so the search is
/// guaranteed to return the empty cut.
///
/// Soundness: any nonempty cut of a DAG has a rank-minimal member `u`,
/// and every operand of `u` is outside the cut, so the cut's input
/// count is at least `u`'s distinct-operand count. If every eligible
/// node has more than `N_in` distinct operands, every cut overflows.
/// (Output feasibility never binds: a single-node cut has one output
/// and `N_out >= 1` by construction.)
fn io_infeasible(block: &BasicBlock, opts: &LintOptions, out: &mut Vec<Finding>) {
    let dag = block.dag();
    let mut min_inputs: Option<(usize, usize)> = None; // (count, node)
    for (v, op) in dag.nodes() {
        if !op.opcode().is_ise_eligible() {
            continue;
        }
        let mut distinct = dag.preds(v).to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let count = distinct.len();
        if min_inputs.is_none_or(|(best, _)| count < best) {
            min_inputs = Some((count, v.index()));
        }
    }
    let max_in = opts.io.max_inputs() as usize;
    match min_inputs {
        None if dag.node_count() > 0 => out.push((
            None,
            "no ISE-eligible operation: every cut is empty".to_string(),
        )),
        Some((count, node)) if count > max_in => out.push((
            Some(node),
            format!(
                "I/O infeasible: every eligible operation needs at least {count} inputs, \
                 but the budget allows {max_in} — no nonempty cut can exist"
            ),
        )),
        _ => {}
    }
}

/// A009: an eligible opcode whose hardware delay is at least its
/// software cycle count (or whose software cost is zero) — including it
/// in a cut can never reduce latency, which usually means a
/// miscalibrated model.
fn unprofitable_latency(block: &BasicBlock, opts: &LintOptions, out: &mut Vec<Finding>) {
    let mut reported = [false; Opcode::ALL.len()];
    for (v, op) in block.dag().nodes() {
        let op = op.opcode();
        if !op.is_ise_eligible() || reported[op.as_index()] {
            continue;
        }
        let sw = opts.model.sw_cycles(op);
        let hw = opts.model.hw_delay(op);
        let message = if sw == 0 {
            format!(
                "unprofitable latency: {} costs zero software cycles",
                op.mnemonic()
            )
        } else if hw >= sw as f64 {
            format!(
                "unprofitable latency: {} hardware delay {hw} >= {sw} software cycle(s)",
                op.mnemonic()
            )
        } else {
            continue;
        };
        reported[op.as_index()] = true;
        out.push((Some(v.index()), message));
    }
}

/// A010: a block frequency of zero (the block never runs, so every
/// merit is zero) or above the text-IR `MAX_FREQUENCY` bound.
fn suspicious_frequency(block: &BasicBlock, _opts: &LintOptions, out: &mut Vec<Finding>) {
    let freq = block.frequency();
    if freq == 0 {
        out.push((
            None,
            "suspicious frequency: block never executes (frequency 0)".to_string(),
        ));
    } else if freq > MAX_FREQUENCY {
        out.push((
            None,
            format!("suspicious frequency: {freq} exceeds MAX_FREQUENCY ({MAX_FREQUENCY})"),
        ));
    }
}

/// A011: two inputs carry the same label — almost certainly the same
/// logical value declared twice, which inflates the block's apparent
/// input pressure.
fn duplicate_input_label(block: &BasicBlock, _opts: &LintOptions, out: &mut Vec<Finding>) {
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for (v, op) in block.dag().nodes() {
        let (Opcode::Input, Some(label)) = (op.opcode(), op.label()) else {
            continue;
        };
        let i = v.index();
        match seen.entry(label) {
            Entry::Occupied(first) => out.push((
                Some(i),
                format!(
                    "duplicate input label: n{i} ({label:?}) repeats n{}",
                    first.get()
                ),
            )),
            Entry::Vacant(slot) => {
                slot.insert(i);
            }
        }
    }
}
