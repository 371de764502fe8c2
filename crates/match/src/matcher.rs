use crate::Pattern;
use isegen_graph::{NodeId, NodeSet};
use isegen_ir::{BasicBlock, Opcode};

/// Backtracking budget of one embedding search, in candidate-assignment
/// attempts; when it runs out the search returns the embeddings found so
/// far. Generous for every workload in this repository (AES included)
/// while bounding pathological inputs.
const MAX_STEPS: usize = 2_000_000;

struct Matcher<'a> {
    block: &'a BasicBlock,
    pattern: &'a Pattern,
    /// Nodes the embedding must avoid (previous ISEs + disjointness).
    avoid: NodeSet,
    /// φ: pattern index → block node.
    phi: Vec<Option<NodeId>>,
    /// Block nodes currently in the partial instance.
    in_instance: Vec<bool>,
    steps_left: usize,
    /// Per-opcode buckets of block node ids (anchor candidates).
    buckets: Vec<Vec<NodeId>>,
}

impl<'a> Matcher<'a> {
    fn new(block: &'a BasicBlock, pattern: &'a Pattern, excluded: Option<&NodeSet>) -> Self {
        let n = block.dag().node_count();
        let avoid = match excluded {
            Some(e) => e.clone(),
            None => NodeSet::new(n),
        };
        let mut buckets = vec![Vec::new(); Opcode::ALL.len()];
        for (id, op) in block.dag().nodes() {
            buckets[op.opcode().as_index()].push(id);
        }
        Matcher {
            block,
            pattern,
            avoid,
            phi: vec![None; pattern.node_count()],
            in_instance: vec![false; n],
            steps_left: MAX_STEPS,
            buckets,
        }
    }

    /// Attempts to find one embedding. On success `phi` holds it.
    fn search(&mut self) -> bool {
        self.descend(0)
    }

    fn descend(&mut self, depth: usize) -> bool {
        if depth == self.pattern.order().len() {
            return self.verify();
        }
        let pi = self.pattern.order()[depth] as usize;
        // Candidate generation: through a matched producer, a matched
        // consumer, or (for anchors) the whole opcode bucket.
        if let Some((j, p)) = self.matched_producer(pi) {
            let producer = self.phi[j].expect("producer is matched");
            let succs: Vec<NodeId> = self.block.dag().succs(producer).to_vec();
            let mut tried: Vec<NodeId> = Vec::new();
            for u in succs {
                if tried.contains(&u) {
                    continue;
                }
                tried.push(u);
                if self.block.dag().preds(u).get(p) != Some(&producer) {
                    continue;
                }
                if self.try_assign(pi, u, depth) {
                    return true;
                }
            }
            false
        } else if let Some(u) = self.matched_consumer_operand(pi) {
            self.try_assign(pi, u, depth)
        } else {
            // Anchor of a (new) component: scan the opcode bucket.
            let bucket = self.buckets[self.pattern.opcode(pi).as_index()].clone();
            for u in bucket {
                if self.try_assign(pi, u, depth) {
                    return true;
                }
            }
            false
        }
    }

    /// Finds `(j, p)` such that pattern node `pi`'s operand `p` is the
    /// already-matched pattern node `j`.
    fn matched_producer(&self, pi: usize) -> Option<(usize, usize)> {
        for (p, op) in self.pattern.operands(pi).iter().enumerate() {
            if let Some(j) = op {
                if self.phi[*j as usize].is_some() {
                    return Some((*j as usize, p));
                }
            }
        }
        None
    }

    /// Finds the forced candidate when some matched pattern node consumes
    /// `pi`: operand `p` of that consumer's image.
    fn matched_consumer_operand(&self, pi: usize) -> Option<NodeId> {
        for j in 0..self.pattern.node_count() {
            let Some(image) = self.phi[j] else { continue };
            for (p, op) in self.pattern.operands(j).iter().enumerate() {
                if *op == Some(pi as u32) {
                    return self.block.dag().preds(image).get(p).copied();
                }
            }
        }
        None
    }

    fn try_assign(&mut self, pi: usize, u: NodeId, depth: usize) -> bool {
        if self.steps_left == 0 {
            return false;
        }
        self.steps_left -= 1;
        if !self.admissible(pi, u) {
            return false;
        }
        self.phi[pi] = Some(u);
        self.in_instance[u.index()] = true;
        if self.descend(depth + 1) {
            return true;
        }
        self.phi[pi] = None;
        self.in_instance[u.index()] = false;
        false
    }

    fn admissible(&self, pi: usize, u: NodeId) -> bool {
        if self.in_instance[u.index()] || self.avoid.contains(u) {
            return false;
        }
        let dag = self.block.dag();
        if self.block.opcode(u) != self.pattern.opcode(pi) {
            return false;
        }
        let ops = self.pattern.operands(pi);
        let preds = dag.preds(u);
        if preds.len() != ops.len() {
            return false;
        }
        for (p, op) in ops.iter().enumerate() {
            match op {
                Some(j) => {
                    if let Some(image) = self.phi[*j as usize] {
                        if preds[p] != image {
                            return false;
                        }
                    }
                }
                None => {
                    // External operand: its producer must not already be
                    // part of the instance.
                    if self.in_instance[preds[p].index()] {
                        return false;
                    }
                }
            }
        }
        // Consistency with matched consumers of pi.
        for j in 0..self.pattern.node_count() {
            let Some(image) = self.phi[j] else { continue };
            for (p, op) in self.pattern.operands(j).iter().enumerate() {
                if *op == Some(pi as u32) && dag.preds(image).get(p) != Some(&u) {
                    return false;
                }
            }
        }
        true
    }

    /// Full induced-subgraph verification of a complete assignment.
    fn verify(&self) -> bool {
        let dag = self.block.dag();
        for i in 0..self.pattern.node_count() {
            let u = self.phi[i].expect("complete assignment");
            let preds = dag.preds(u);
            for (p, op) in self.pattern.operands(i).iter().enumerate() {
                match op {
                    Some(j) => {
                        if preds[p] != self.phi[*j as usize].expect("complete") {
                            return false;
                        }
                    }
                    None => {
                        if self.in_instance[preds[p].index()] {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    fn instance_set(&self) -> NodeSet {
        NodeSet::from_ids(
            self.block.dag().node_count(),
            self.phi.iter().map(|m| m.expect("complete assignment")),
        )
    }

    fn reset(&mut self) {
        for m in self.phi.iter_mut() {
            *m = None;
        }
        for b in self.in_instance.iter_mut() {
            *b = false;
        }
    }
}

/// Finds a maximal set of node-disjoint embeddings of `pattern` in
/// `block`, greedily, skipping nodes in `excluded`.
///
/// The result is a *maximal* (not necessarily maximum) disjoint set: each
/// found embedding's nodes are locked before searching for the next. This
/// mirrors how an AFU claims DFG nodes: once an instance is bound to the
/// ISE, its operations no longer execute in software.
pub fn find_disjoint_instances(
    block: &BasicBlock,
    pattern: &Pattern,
    excluded: Option<&NodeSet>,
) -> Vec<NodeSet> {
    let mut matcher = Matcher::new(block, pattern, excluded);
    let mut out = Vec::new();
    loop {
        matcher.steps_left = MAX_STEPS;
        if !matcher.search() {
            break;
        }
        let inst = matcher.instance_set();
        matcher.avoid.union_with(&inst);
        matcher.reset();
        out.push(inst);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use isegen_ir::{BlockBuilder, Opcode};

    /// k identical (mul >> add) clusters.
    fn clusters(k: usize) -> (BasicBlock, Vec<(NodeId, NodeId)>) {
        let mut b = BlockBuilder::new("t");
        let mut out = Vec::new();
        for i in 0..k {
            let x = b.input(format!("x{i}"));
            let y = b.input(format!("y{i}"));
            let m = b.op(Opcode::Mul, &[x, y]).unwrap();
            let s = b.op(Opcode::Add, &[m, x]).unwrap();
            out.push((m, s));
        }
        (b.build().unwrap(), out)
    }

    #[test]
    fn finds_every_disjoint_instance() {
        let (block, nodes) = clusters(5);
        let n = block.dag().node_count();
        let cut = NodeSet::from_ids(n, [nodes[0].0, nodes[0].1]);
        let pattern = Pattern::extract(&block, &cut);
        let found = find_disjoint_instances(&block, &pattern, None);
        assert_eq!(found.len(), 5);
        // pairwise disjoint
        for i in 0..found.len() {
            for j in (i + 1)..found.len() {
                assert!(found[i].is_disjoint(&found[j]));
            }
        }
        // the original cut is among them
        assert!(found.contains(&cut));
    }

    #[test]
    fn excluded_nodes_block_instances() {
        let (block, nodes) = clusters(3);
        let n = block.dag().node_count();
        let cut = NodeSet::from_ids(n, [nodes[0].0, nodes[0].1]);
        let pattern = Pattern::extract(&block, &cut);
        // exclude the second cluster's mul
        let excluded = NodeSet::from_ids(n, [nodes[1].0]);
        let found = find_disjoint_instances(&block, &pattern, Some(&excluded));
        assert_eq!(found.len(), 2);
        for f in &found {
            assert!(!f.contains(nodes[1].0));
        }
    }

    #[test]
    fn operand_positions_matter() {
        // sub(a, b) is not an instance of sub(b, a)-shaped pattern.
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let m = b.op(Opcode::Mul, &[x, y]).unwrap();
        let s1 = b.op(Opcode::Sub, &[m, x]).unwrap(); // internal first
        let m2 = b.op(Opcode::Mul, &[x, y]).unwrap();
        let _s2 = b.op(Opcode::Sub, &[y, m2]).unwrap(); // internal second
        let block = b.build().unwrap();
        let n = block.dag().node_count();
        let cut = NodeSet::from_ids(n, [m, s1]);
        let pattern = Pattern::extract(&block, &cut);
        let found = find_disjoint_instances(&block, &pattern, None);
        assert_eq!(found.len(), 1, "mirrored operand order must not match");
    }

    #[test]
    fn disconnected_pattern_matches() {
        let (block, nodes) = clusters(4);
        let n = block.dag().node_count();
        // pattern: two muls from different clusters (disconnected)
        let cut = NodeSet::from_ids(n, [nodes[0].0, nodes[1].0]);
        let pattern = Pattern::extract(&block, &cut);
        assert_eq!(pattern.component_count(), 2);
        let found = find_disjoint_instances(&block, &pattern, None);
        // 4 muls pair into 2 disjoint instances
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn single_node_pattern() {
        let (block, nodes) = clusters(3);
        let n = block.dag().node_count();
        let cut = NodeSet::from_ids(n, [nodes[2].0]);
        let pattern = Pattern::extract(&block, &cut);
        let found = find_disjoint_instances(&block, &pattern, None);
        assert_eq!(found.len(), 3, "every mul is an instance");
    }

    #[test]
    fn no_match_in_foreign_block() {
        let (block, nodes) = clusters(1);
        let n = block.dag().node_count();
        let cut = NodeSet::from_ids(n, [nodes[0].0, nodes[0].1]);
        let pattern = Pattern::extract(&block, &cut);

        let mut b2 = BlockBuilder::new("other");
        let x = b2.input("x");
        b2.op(Opcode::Xor, &[x, x]).unwrap();
        let other = b2.build().unwrap();
        assert!(find_disjoint_instances(&other, &pattern, None).is_empty());
    }
}
