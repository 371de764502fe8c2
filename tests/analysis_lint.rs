//! The lint framework under fire: every diagnostic code must *fire* on
//! a seeded-bad block and stay *silent* on the registry corpus (modulo
//! an explicit waiver list), and [`analyze`] must never panic on
//! mutated text-IR programs.

use isegen::analysis::{analyze, analyze_with, registry, Diagnostic, LintOptions, Severity};
use isegen::core::IoConstraints;
use isegen::graph::{Dag, NodeId, NodeSet};
use isegen::ir::text::MAX_FREQUENCY;
use isegen::ir::{text, Application, BasicBlock, BlockBuilder, LatencyModel, Opcode, Operation};
use isegen::workloads::{all_workloads, workload_by_name};
use proptest::prelude::*;

/// Corpus findings that are understood and tolerated: the workload
/// generators really do emit redundant xors (A003), spare inputs
/// (A002) and foldable subexpressions (A004). Everything else —
/// including every error-severity code — must be absent.
const CORPUS_WAIVERS: &[&str] = &["A002", "A003", "A004"];

fn lint_with(block: BasicBlock, opts: &LintOptions) -> Vec<Diagnostic> {
    let mut app = Application::new("demo");
    app.push_block(block);
    analyze_with(&app, opts)
}

fn lint(block: BasicBlock) -> Vec<Diagnostic> {
    lint_with(block, &LintOptions::default())
}

/// A block assembled with [`BasicBlock::from_dag`]: `nodes` are
/// `(opcode, operands)` in id order, and only `live` is live-out. The
/// builder's arity check and sink live-outs are both bypassed.
fn raw_block(nodes: &[(Opcode, &[usize])], live: &[usize]) -> BasicBlock {
    let mut dag = Dag::new();
    for &(opcode, operands) in nodes {
        let v = dag.add_node(Operation::new(opcode));
        for &p in operands {
            dag.add_edge(NodeId::from_index(p), v).unwrap();
        }
    }
    let mut live_outs = NodeSet::new(nodes.len());
    for &v in live {
        live_outs.insert(NodeId::from_index(v));
    }
    BasicBlock::from_dag("bb", dag, 100, live_outs)
}

fn has(diags: &[Diagnostic], code: &str) -> bool {
    diags.iter().any(|d| d.code == code)
}

// ---- registry shape -----------------------------------------------------

#[test]
fn registry_codes_are_stable_and_ordered() {
    let passes = registry();
    let actual: Vec<&str> = passes.iter().map(|p| p.code).collect();
    assert_eq!(
        actual,
        ["A001", "A002", "A003", "A004", "A006", "A007", "A009", "A010", "A011"],
        "codes are stable (A005 and A008 are retired) and in order"
    );
    for pass in passes {
        assert!(!pass.summary.is_empty(), "{} needs a summary", pass.code);
    }
    let errors: Vec<&str> = passes
        .iter()
        .filter(|p| p.severity == Severity::Error)
        .map(|p| p.code)
        .collect();
    assert_eq!(
        errors,
        ["A006"],
        "error severity is part of the gate contract"
    );
}

// ---- firing tests, one per code ----------------------------------------

#[test]
fn a001_fires_on_dead_node() {
    // n1 is dead; n2 and n3 are live only through the live-out n4.
    let block = raw_block(
        &[
            (Opcode::Input, &[]),
            (Opcode::Add, &[0, 0]),
            (Opcode::Not, &[0]),
            (Opcode::Not, &[2]),
            (Opcode::Not, &[3]),
        ],
        &[4],
    );
    let dead: Vec<Option<usize>> = lint(block)
        .iter()
        .filter(|d| d.code == "A001")
        .map(|d| d.node)
        .collect();
    assert_eq!(dead, [Some(1)], "only the add is dead");
}

#[test]
fn a002_fires_on_unused_input() {
    let mut b = BlockBuilder::new("bb");
    let x = b.input("x");
    let y = b.input("y"); // never consumed
    b.op(Opcode::Not, &[x]).unwrap();
    let mut app = Application::new("demo");
    app.push_block(b.build().unwrap());
    let diags = analyze(&app);
    assert!(
        diags
            .iter()
            .any(|d| d.code == "A002" && d.node == Some(y.index())),
        "unused input must be reported: {diags:?}"
    );
}

#[test]
fn a003_fires_on_commuted_duplicate() {
    let mut b = BlockBuilder::new("bb");
    let x = b.input("x");
    let y = b.input("y");
    b.op(Opcode::Add, &[x, y]).unwrap();
    b.op(Opcode::Add, &[y, x]).unwrap(); // commutes to the same op
    let mut app = Application::new("demo");
    app.push_block(b.build().unwrap());
    assert!(has(&analyze(&app), "A003"));
}

#[test]
fn a003_respects_non_commutative_operand_order() {
    let mut b = BlockBuilder::new("bb");
    let x = b.input("x");
    let y = b.input("y");
    b.op(Opcode::Sub, &[x, y]).unwrap();
    b.op(Opcode::Sub, &[y, x]).unwrap(); // a different value
    let mut app = Application::new("demo");
    app.push_block(b.build().unwrap());
    assert!(!has(&analyze(&app), "A003"));
}

#[test]
fn a004_fires_on_foldable_ops() {
    let mut b = BlockBuilder::new("bb");
    let x = b.input("x");
    b.op(Opcode::Xor, &[x, x]).unwrap(); // always zero
    let n = b.op(Opcode::Not, &[x]).unwrap();
    b.op(Opcode::Not, &[n]).unwrap(); // cancels out
    let mut app = Application::new("demo");
    app.push_block(b.build().unwrap());
    let diags = analyze(&app);
    assert_eq!(
        diags.iter().filter(|d| d.code == "A004").count(),
        2,
        "{diags:?}"
    );
}

#[test]
fn a006_fires_on_rank_and_arity_violations() {
    // Rank violations never reach the lint: the DAG rejects forward,
    // self and out-of-range operand edges when the block is built.
    let mut dag = Dag::new();
    let a = dag.add_node(Operation::new(Opcode::Input));
    let b = dag.add_node(Operation::new(Opcode::Not));
    assert!(dag.add_edge(b, a).is_err(), "forward reference");
    assert!(dag.add_edge(b, b).is_err(), "self-reference");
    assert!(
        dag.add_edge(NodeId::from_index(99), b).is_err(),
        "out of range"
    );

    // Arity is checked by the builder only, so a `from_dag` block can
    // break it: add takes 2 operands; n1 has 1.
    let block = raw_block(
        &[
            (Opcode::Input, &[]),
            (Opcode::Add, &[0]),
            (Opcode::Not, &[1]),
        ],
        &[2],
    );
    let diags: Vec<Diagnostic> = lint(block)
        .into_iter()
        .filter(|d| d.code == "A006")
        .collect();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].node, Some(1));
    assert_eq!(diags[0].severity, Severity::Error);
    assert!(diags[0].message.contains("arity mismatch"), "{diags:?}");
}

#[test]
fn a007_fires_when_no_cut_fits_the_port_budget() {
    let mut b = BlockBuilder::new("bb");
    let x = b.input("x");
    let y = b.input("y");
    b.op(Opcode::Add, &[x, y]).unwrap();
    let block = b.build().unwrap();
    // The only eligible op needs 2 distinct inputs: under a 1-input
    // budget no nonempty cut can exist.
    let narrow = LintOptions {
        io: IoConstraints::new(1, 1),
        ..LintOptions::default()
    };
    assert!(has(&lint_with(block.clone(), &narrow), "A007"));

    // A wider budget admits it.
    let roomy = LintOptions {
        io: IoConstraints::new(2, 1),
        ..LintOptions::default()
    };
    assert!(!has(&lint_with(block, &roomy), "A007"));
}

#[test]
fn a007_fires_when_nothing_is_eligible() {
    let mut b = BlockBuilder::new("bb");
    let x = b.input("x");
    b.op(Opcode::Load, &[x]).unwrap(); // memory ops are ineligible
    let diags = lint(b.build().unwrap());
    assert!(
        diags
            .iter()
            .any(|d| d.code == "A007" && d.message.contains("no ISE-eligible")),
        "{diags:?}"
    );
}

#[test]
fn a009_fires_on_unprofitable_latency() {
    let mut b = BlockBuilder::new("bb");
    let x = b.input("x");
    b.op(Opcode::Add, &[x, x]).unwrap();
    let mut app = Application::new("demo");
    app.push_block(b.build().unwrap());

    let zero_sw = LintOptions {
        model: LatencyModel::paper_default().with_sw_cycles(Opcode::Add, 0),
        ..LintOptions::default()
    };
    let diags = analyze_with(&app, &zero_sw);
    assert!(
        diags
            .iter()
            .any(|d| d.code == "A009" && d.message.contains("zero software cycles")),
        "{diags:?}"
    );

    let slow_hw = LintOptions {
        model: LatencyModel::paper_default().with_hw_delay(Opcode::Add, 1.0),
        ..LintOptions::default()
    };
    let diags = analyze_with(&app, &slow_hw);
    assert!(
        diags
            .iter()
            .any(|d| d.code == "A009" && d.message.contains(">=")),
        "{diags:?}"
    );
}

#[test]
fn a010_fires_on_suspicious_frequency() {
    for freq in [0, MAX_FREQUENCY + 1] {
        let mut b = BlockBuilder::new("bb").frequency(freq);
        let x = b.input("x");
        b.op(Opcode::Not, &[x]).unwrap();
        assert!(has(&lint(b.build().unwrap()), "A010"), "frequency {freq}");
    }
}

#[test]
fn a011_fires_on_duplicate_input_label() {
    let mut b = BlockBuilder::new("bb");
    let x0 = b.input("x");
    let x1 = b.input("x");
    b.op(Opcode::Add, &[x0, x1]).unwrap();
    assert!(has(&lint(b.build().unwrap()), "A011"));
}

// ---- silence tests ------------------------------------------------------

/// A well-formed minimal block is completely clean.
#[test]
fn clean_block_produces_no_diagnostics() {
    let mut b = BlockBuilder::new("bb");
    let x = b.input("x");
    let y = b.input("y");
    b.op(Opcode::Add, &[x, y]).unwrap();
    let mut app = Application::new("demo");
    app.push_block(b.build().unwrap());
    let diags = analyze(&app);
    assert!(diags.is_empty(), "{diags:?}");
}

/// The whole registry corpus: zero error-severity findings, and every
/// warning is one of the explicitly waived codes. This is the per-code
/// silence proof for everything outside the waiver list.
#[test]
fn corpus_is_clean_modulo_waivers() {
    let mut seen_waived: Vec<&'static str> = Vec::new();
    for spec in all_workloads() {
        let diags = analyze(&spec.application());
        for d in &diags {
            assert_ne!(
                d.severity,
                Severity::Error,
                "{}: corpus workload has an error finding: {d}",
                spec.name
            );
            assert!(
                CORPUS_WAIVERS.contains(&d.code),
                "{}: unwaived corpus finding: {d}",
                spec.name
            );
            if !seen_waived.contains(&d.code) {
                seen_waived.push(d.code);
            }
        }
    }
    // The waiver list must stay minimal: a code nobody hits any more
    // should be removed, not carried.
    for code in CORPUS_WAIVERS {
        assert!(
            seen_waived.contains(code),
            "waiver {code} is stale: the corpus no longer produces it"
        );
    }
}

/// Positioned diagnostics must actually point at the right line of the
/// canonical serialization: the line a node-anchored finding names
/// must be that node's definition.
#[test]
fn diagnostic_lines_point_at_the_named_node() {
    let mut checked = 0usize;
    for spec in all_workloads() {
        let app = spec.application();
        let diags = analyze(&app);
        if diags.is_empty() {
            continue;
        }
        let canonical = text::write_application(&app);
        let lines: Vec<&str> = canonical.lines().collect();
        for d in &diags {
            let (Some(node), Some(line)) = (d.node, d.line) else {
                continue;
            };
            let content = lines
                .get(line - 1)
                .unwrap_or_else(|| panic!("{}: line {line} out of range", spec.name));
            assert!(
                content.trim_start().starts_with(&format!("n{node} ")),
                "{}: {d} points at {content:?}",
                spec.name
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "corpus produced no positioned diagnostics");
}

// ---- never-panic fuzzing ------------------------------------------------

/// Tiny deterministic generator (same idiom as `serve_roundtrip`): no
/// shrinking needed, the property is "does not panic".
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

fn mutate(text: &str, rng: &mut XorShift) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..=rng.below(8) {
        if bytes.is_empty() {
            break;
        }
        match rng.below(5) {
            0 => bytes.truncate(rng.below(bytes.len() + 1)),
            1 => {
                let i = rng.below(bytes.len());
                bytes.remove(i);
            }
            2 => {
                let i = rng.below(bytes.len());
                bytes[i] = *b"\"\\\n =#x0\xff".get(rng.below(9)).expect("in range");
            }
            3 => {
                let i = rng.below(bytes.len() + 1);
                bytes.insert(i, (rng.next() % 96 + 32) as u8);
            }
            _ => {
                let a = rng.below(bytes.len());
                let b = (a + rng.below(64)).min(bytes.len());
                let slice = bytes[a..b].to_vec();
                bytes.extend_from_slice(&slice);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    /// Mutated real programs: whatever the parser accepts, the analyzer
    /// must survive.
    #[test]
    fn analyze_survives_mutated_programs(seed in any::<u64>()) {
        let base = text::write_application(&workload_by_name("fir00").unwrap().application());
        let mut rng = XorShift(seed);
        let mutant = mutate(&base, &mut rng);
        if let Ok(app) = text::parse_application(&mutant) {
            let _ = analyze(&app);
        }
    }
}
