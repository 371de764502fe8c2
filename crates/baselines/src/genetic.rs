use isegen_core::{
    BlockContext, Cut, CutFinder, Generator, IoConstraints, IseConfig, IseSelection,
};
use isegen_graph::{convex, NodeId, NodeSet};
use isegen_ir::{Application, LatencyModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the genetic ISE identification baseline (after Biswas et
/// al., DAC 2004).
///
/// The chromosome is one inclusion bit per searchable node; fitness is
/// the cut merit minus penalties for I/O and convexity violations; the
/// engine is a conventional generational GA with tournament selection,
/// uniform crossover, per-bit mutation and elitism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneticConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Probability of recombining two parents (else clone the fitter).
    pub crossover_rate: f64,
    /// Expected number of flipped bits per chromosome per generation.
    pub mutation_bits: f64,
    /// Number of elites copied unchanged.
    pub elitism: usize,
    /// Expected number of set bits in an initial random chromosome. The
    /// per-bit probability adapts to the block size (`init_bits / len`,
    /// capped at 0.5) so the GA starts near the legal region even on
    /// 696-node blocks.
    pub init_bits: f64,
    /// Fitness penalty per violated I/O port.
    pub io_penalty: f64,
    /// Fitness penalty per convexity-violating witness node.
    pub convexity_penalty: f64,
    /// RNG seed (the GA is stochastic; the paper notes multiple runs may
    /// yield different solutions — fix the seed for reproducibility).
    pub seed: u64,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        GeneticConfig {
            population: 64,
            generations: 200,
            tournament: 3,
            crossover_rate: 0.9,
            mutation_bits: 1.5,
            elitism: 2,
            init_bits: 6.0,
            io_penalty: 25.0,
            convexity_penalty: 10.0,
            seed: 0xC0FFEE,
        }
    }
}

/// [`CutFinder`] running the genetic baseline on one block at a time.
#[derive(Debug, Clone)]
pub struct GeneticFinder {
    cfg: GeneticConfig,
    rng: StdRng,
}

impl GeneticFinder {
    /// Creates a finder; the RNG is seeded from
    /// [`GeneticConfig::seed`] and persists across [`CutFinder::find_cut`]
    /// calls.
    pub fn new(cfg: GeneticConfig) -> Self {
        GeneticFinder {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GeneticConfig {
        &self.cfg
    }
}

impl Default for GeneticFinder {
    fn default() -> Self {
        GeneticFinder::new(GeneticConfig::default())
    }
}

struct Individual {
    genes: Vec<bool>,
    fitness: f64,
    legal_merit: Option<f64>,
}

impl CutFinder for GeneticFinder {
    fn find_cut(
        &mut self,
        ctx: &BlockContext<'_>,
        io: IoConstraints,
        forbidden: Option<&NodeSet>,
    ) -> Cut {
        let mut free = ctx.eligible().clone();
        if let Some(f) = forbidden {
            free.subtract(f);
        }
        let free_nodes: Vec<NodeId> = free.iter().collect();
        let len = free_nodes.len();
        if len == 0 {
            return Cut::empty(ctx.node_count());
        }
        let cfg = self.cfg;
        let n = ctx.node_count();

        let evaluate = |genes: &[bool]| -> (f64, Option<f64>, NodeSet) {
            let nodes = NodeSet::from_ids(
                n,
                genes
                    .iter()
                    .zip(&free_nodes)
                    .filter(|(g, _)| **g)
                    .map(|(_, &v)| v),
            );
            if nodes.is_empty() {
                return (0.0, None, nodes);
            }
            let cut = Cut::evaluate(ctx, nodes.clone());
            let io_viol = io.violation(cut.input_count(), cut.output_count());
            let cvx_viol = convex::violators(ctx.reach(), &nodes).len() as u32;
            let fitness = cut.merit()
                - cfg.io_penalty * io_viol as f64
                - cfg.convexity_penalty * cvx_viol as f64;
            let legal = if io_viol == 0 && cvx_viol == 0 && cut.merit() > 0.0 {
                Some(cut.merit())
            } else {
                None
            };
            (fitness, legal, nodes)
        };

        let mut best_legal: Option<(f64, NodeSet)> = None;
        let consider = |legal: Option<f64>, nodes: &NodeSet, best: &mut Option<(f64, NodeSet)>| {
            if let Some(m) = legal {
                let better = best.as_ref().is_none_or(|(bm, _)| m > *bm);
                if better {
                    *best = Some((m, nodes.clone()));
                }
            }
        };

        // Initial population.
        let density = (cfg.init_bits / len as f64).min(0.5);
        let mut pop: Vec<Individual> = (0..cfg.population)
            .map(|_| {
                let genes: Vec<bool> = (0..len).map(|_| self.rng.gen_bool(density)).collect();
                let (fitness, legal, nodes) = evaluate(&genes);
                consider(legal, &nodes, &mut best_legal);
                Individual {
                    genes,
                    fitness,
                    legal_merit: legal,
                }
            })
            .collect();

        for _gen in 0..cfg.generations {
            // total_cmp: fitness can be NaN under adversarial gain
            // weights, and partial_cmp().unwrap() would panic there.
            pop.sort_by(|a, b| b.fitness.total_cmp(&a.fitness));
            let mut next: Vec<Individual> = Vec::with_capacity(cfg.population);
            for elite in pop.iter().take(cfg.elitism) {
                next.push(Individual {
                    genes: elite.genes.clone(),
                    fitness: elite.fitness,
                    legal_merit: elite.legal_merit,
                });
            }
            while next.len() < cfg.population {
                let pa = self.tournament(&pop);
                let pb = self.tournament(&pop);
                let mut child: Vec<bool> = if self.rng.gen_bool(cfg.crossover_rate) {
                    (0..len)
                        .map(|i| {
                            if self.rng.gen_bool(0.5) {
                                pop[pa].genes[i]
                            } else {
                                pop[pb].genes[i]
                            }
                        })
                        .collect()
                } else {
                    let fitter = if pop[pa].fitness >= pop[pb].fitness {
                        pa
                    } else {
                        pb
                    };
                    pop[fitter].genes.clone()
                };
                let p_flip = (cfg.mutation_bits / len as f64).min(1.0);
                for g in child.iter_mut() {
                    if self.rng.gen_bool(p_flip) {
                        *g = !*g;
                    }
                }
                let (fitness, legal, nodes) = evaluate(&child);
                consider(legal, &nodes, &mut best_legal);
                next.push(Individual {
                    genes: child,
                    fitness,
                    legal_merit: legal,
                });
            }
            pop = next;
        }

        match best_legal {
            Some((_, nodes)) => Cut::evaluate(ctx, nodes),
            None => Cut::empty(n),
        }
    }

    fn name(&self) -> &str {
        "genetic"
    }
}

impl GeneticFinder {
    fn tournament(&mut self, pop: &[Individual]) -> usize {
        let mut best = self.rng.gen_range(0..pop.len());
        for _ in 1..self.cfg.tournament {
            let other = self.rng.gen_range(0..pop.len());
            if pop[other].fitness > pop[best].fitness {
                best = other;
            }
        }
        best
    }
}

/// Runs the genetic baseline on a whole application under the standard
/// Problem-2 driver.
///
/// [`IseConfig::reuse_matching`] selects the *deployment* model (one AFU
/// per instance vs. one AFU covering every isomorphic instance) and is
/// honoured as given, so ISEGEN-vs-Genetic comparisons isolate cut
/// *quality*: the GA's stochastic, unaligned cuts recur less often than
/// ISEGEN's directionally-grown ones, which is the paper's AES story.
pub fn run_genetic(
    app: &Application,
    model: &LatencyModel,
    config: &IseConfig,
    genetic: &GeneticConfig,
) -> IseSelection {
    Generator::new(*config)
        .finder(GeneticFinder::new(*genetic))
        .run(app, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isegen_ir::{BasicBlock, BlockBuilder, Opcode};

    fn dotprod() -> BasicBlock {
        let mut b = BlockBuilder::new("dot").frequency(10);
        let (a, b_, c, d) = (b.input("a"), b.input("b"), b.input("c"), b.input("d"));
        let m1 = b.op(Opcode::Mul, &[a, b_]).unwrap();
        let m2 = b.op(Opcode::Mul, &[c, d]).unwrap();
        b.op(Opcode::Add, &[m1, m2]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn finds_the_optimum_on_a_small_block() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let mut finder = GeneticFinder::default();
        let cut = finder.find_cut(&ctx, IoConstraints::new(4, 2), None);
        // optimum is the whole 3-op cluster, merit 7 - 1.15
        assert_eq!(cut.nodes().len(), 3);
        assert!((cut.merit() - (7.0 - 1.15)).abs() < 1e-9);
    }

    #[test]
    fn results_are_always_legal() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        for (i, o) in [(2u32, 1u32), (3, 1), (4, 2)] {
            let io = IoConstraints::new(i, o);
            let mut finder = GeneticFinder::default();
            let cut = finder.find_cut(&ctx, io, None);
            if !cut.is_empty() {
                assert!(cut.satisfies_io(io), "{io}");
                assert!(ctx.is_convex(cut.nodes()), "{io}");
            }
        }
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let block = dotprod();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let io = IoConstraints::new(4, 2);
        let a = GeneticFinder::default().find_cut(&ctx, io, None);
        let b = GeneticFinder::default().find_cut(&ctx, io, None);
        assert_eq!(a, b);
    }

    #[test]
    fn application_driver_integration() {
        let mut app = Application::new("a");
        app.push_block(dotprod());
        let model = LatencyModel::paper_default();
        let config = IseConfig {
            io: IoConstraints::new(4, 2),
            max_ises: 2,
            reuse_matching: false,
        };
        let sel = run_genetic(&app, &model, &config, &GeneticConfig::default());
        assert!(!sel.ises.is_empty());
        assert!(sel.speedup() > 1.0);
    }
}
