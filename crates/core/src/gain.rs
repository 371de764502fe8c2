use crate::engine::Probe;
use crate::{BlockContext, IoConstraints};
use isegen_graph::NodeId;

/// Weights of the five gain-function components (paper §4.2).
///
/// The gain for toggling node `v` with respect to the current cut `C` is
///
/// ```text
/// Gain(v) = w_merit · F1  + w_io_penalty · F2 + w_affinity · F3
///         + w_growth · F4 + w_independence · F5
/// ```
///
/// with
///
/// * `F1` — merit `M(C′)` of the cut after the toggle (0 if non-convex),
/// * `F2` — `−(input violations + output violations)` of `C′`,
/// * `F3` — `+N(v,C)` when entering, `−N(v,C)` when leaving (`N` =
///   neighbours already in the cut): joining neighbours is favoured,
///   removing embedded nodes is resisted,
/// * `F4` — `±` the node's static barrier-proximity growth score
///   (directional growth; near-barrier nodes are consistently favoured,
///   which aligns cuts with the DFG's regular regions and favours reuse),
/// * `F5` — for leaving moves, the summed hardware critical paths of the
///   *other* connected components (lets hardware nodes retreat so
///   independent subgraphs can grow).
///
/// The paper determined its weights experimentally and does not publish
/// them; the defaults here were tuned on the bundled workloads (see the
/// `ablation` experiment) so that the I/O penalty dominates per-node merit
/// differences and the structural terms act as directional tie-breakers.
///
/// Weights are validated once, at construction ([`GainWeights::new`]),
/// so every gain the search computes is a finite number and the
/// max-gain selection is a total order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GainWeights {
    merit: f64,
    io_penalty: f64,
    affinity: f64,
    growth: f64,
    independence: f64,
}

impl Default for GainWeights {
    fn default() -> Self {
        GainWeights {
            merit: 1.0,
            io_penalty: 50.0,
            affinity: 1.0,
            growth: 1.0,
            independence: 0.5,
        }
    }
}

/// Why [`GainWeights::new`] rejected a weight set. Each variant names
/// the offending component (`"merit"`, `"io_penalty"`, …) and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightsError {
    /// The weight is NaN or ±∞.
    NonFinite {
        /// The component's name.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `merit` or `io_penalty` is negative.
    Negative {
        /// The component's name.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The weight's magnitude exceeds [`GainWeights::MAX_MAGNITUDE`].
    TooLarge {
        /// The component's name.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for WeightsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WeightsError::NonFinite { field, value } => {
                write!(f, "{field} must be finite, got {value}")
            }
            WeightsError::Negative { field, value } => {
                write!(f, "{field} must be >= 0, got {value}")
            }
            WeightsError::TooLarge { field, value } => write!(
                f,
                "{field} must have magnitude <= {:e}, got {value:e}",
                GainWeights::MAX_MAGNITUDE
            ),
        }
    }
}

impl std::error::Error for WeightsError {}

impl GainWeights {
    /// Largest weight magnitude [`GainWeights::new`] accepts.
    ///
    /// Every gain factor is bounded by a block-sized quantity: cycle and
    /// latency sums, port and neighbour counts below `2^32`, growth
    /// scores ≤ 1. At `|w| ≤ 1e12` — `2e12` for the cohesive flavour's
    /// doubled affinity — each weighted term stays below about `1e32`,
    /// so no gain can overflow to ±∞ or turn into NaN.
    pub const MAX_MAGNITUDE: f64 = 1e12;

    /// Validates a weight set. Rejects non-finite values, a negative
    /// `merit` or `io_penalty`, and any magnitude above
    /// [`GainWeights::MAX_MAGNITUDE`]. A negative `io_penalty` would
    /// reward I/O violation and a negative `merit` would invert the
    /// objective the search maximises (paper §4.2). `affinity`,
    /// `growth` and `independence` are directional tie-breakers and may
    /// be zero or negative.
    ///
    /// ```
    /// use isegen_core::GainWeights;
    /// let w = GainWeights::new(1.0, 50.0, -1.0, 0.0, 0.5).unwrap();
    /// assert_eq!(w.affinity(), -1.0);
    /// assert!(GainWeights::new(f64::NAN, 50.0, 1.0, 1.0, 0.5).is_err());
    /// assert!(GainWeights::new(1.0, -50.0, 1.0, 1.0, 0.5).is_err());
    /// ```
    pub fn new(
        merit: f64,
        io_penalty: f64,
        affinity: f64,
        growth: f64,
        independence: f64,
    ) -> Result<GainWeights, WeightsError> {
        let fields = [
            ("merit", merit, true),
            ("io_penalty", io_penalty, true),
            ("affinity", affinity, false),
            ("growth", growth, false),
            ("independence", independence, false),
        ];
        for (field, value, non_negative) in fields {
            if !value.is_finite() {
                return Err(WeightsError::NonFinite { field, value });
            }
            if non_negative && value < 0.0 {
                return Err(WeightsError::Negative { field, value });
            }
            if value.abs() > Self::MAX_MAGNITUDE {
                return Err(WeightsError::TooLarge { field, value });
            }
        }
        Ok(GainWeights {
            merit,
            io_penalty,
            affinity,
            growth,
            independence,
        })
    }

    /// Weight of the merit component `F1`.
    #[inline]
    pub fn merit(&self) -> f64 {
        self.merit
    }

    /// Weight of the I/O violation penalty `F2` ("a large factor").
    #[inline]
    pub fn io_penalty(&self) -> f64 {
        self.io_penalty
    }

    /// Weight of the convexity-affinity component `F3`.
    #[inline]
    pub fn affinity(&self) -> f64 {
        self.affinity
    }

    /// Weight of the directional-growth component `F4`.
    #[inline]
    pub fn growth(&self) -> f64 {
        self.growth
    }

    /// Weight of the independent-cuts component `F5`.
    #[inline]
    pub fn independence(&self) -> f64 {
        self.independence
    }

    /// The search portfolio's cohesion-boosted flavour: the same weights
    /// with affinity doubled ([`GainWeights::MAX_MAGNITUDE`] leaves room
    /// for the doubling).
    pub(crate) fn cohesive(&self) -> GainWeights {
        GainWeights {
            affinity: self.affinity * 2.0,
            ..*self
        }
    }

    /// Combines a [`Probe`] into the scalar gain.
    pub fn combine(
        &self,
        ctx: &BlockContext<'_>,
        io: IoConstraints,
        v: NodeId,
        probe: &Probe,
    ) -> f64 {
        let f1 = probe.merit;
        let f2 = -(io.violation(probe.inputs, probe.outputs) as f64);
        let n = probe.neighbors_in_cut as f64;
        let f3 = if probe.entering { n } else { -n };
        let g = ctx.growth_score(v);
        let f4 = if probe.entering { g } else { -g };
        let f5 = if probe.entering {
            0.0
        } else {
            probe.other_components_hw
        };
        self.merit * f1
            + self.io_penalty * f2
            + self.affinity * f3
            + self.growth * f4
            + self.independence * f5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ToggleEngine;
    use isegen_ir::{BlockBuilder, LatencyModel, Opcode};

    /// The gain of toggling `v` against the engine's current cut.
    fn gain_of(
        engine: &ToggleEngine<'_, '_>,
        ctx: &BlockContext<'_>,
        weights: &GainWeights,
        io: IoConstraints,
        v: NodeId,
    ) -> f64 {
        let probe = engine.probe(v);
        weights.combine(ctx, io, v, &probe)
    }

    #[test]
    fn io_violations_are_penalised() {
        // A 2-input add under (2,1) is fine; a 4-input tree root is not
        // until its operands join.
        let mut b = BlockBuilder::new("t");
        let (p, q, r, s) = (b.input("p"), b.input("q"), b.input("r"), b.input("s"));
        let a1 = b.op(Opcode::Add, &[p, q]).unwrap();
        let a2 = b.op(Opcode::Add, &[r, s]).unwrap();
        let root = b.op(Opcode::Add, &[a1, a2]).unwrap();
        let block = b.build().unwrap();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let io = IoConstraints::new(2, 1);
        let weights = GainWeights::default();
        let mut engine = ToggleEngine::new(&ctx);
        engine.toggle(a1);
        engine.toggle(a2);
        // cut {a1, a2} has 4 inputs, 2 outputs: violations. Adding the root
        // keeps 4 inputs but drops outputs to 1; gain should exceed that of
        // re-removing a1 ... all the structural terms should favour root.
        let g_root = gain_of(&engine, &ctx, &weights, io, root);
        let probe_root = engine.probe(root);
        assert!(probe_root.entering);
        assert_eq!(probe_root.inputs, 4);
        assert_eq!(probe_root.outputs, 1);
        // the penalty term is negative (2 input violations)
        assert!(g_root < probe_root.merit, "penalty must reduce the gain");
    }

    #[test]
    fn affinity_prefers_nodes_with_cut_neighbors() {
        let mut b = BlockBuilder::new("t");
        let x = b.input("x");
        let a = b.op(Opcode::Add, &[x, x]).unwrap();
        let c = b.op(Opcode::Xor, &[a, a]).unwrap();
        let lone = b.op(Opcode::Xor, &[x, x]).unwrap();
        let block = b.build().unwrap();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let mut engine = ToggleEngine::new(&ctx);
        engine.toggle(a);
        let pc = engine.probe(c);
        let pl = engine.probe(lone);
        assert_eq!(pc.neighbors_in_cut, 1);
        assert_eq!(pl.neighbors_in_cut, 0);
        // both xors have identical latency profiles, so affinity decides
        let weights = GainWeights::default();
        let io = IoConstraints::new(4, 2);
        let gc = weights.combine(&ctx, io, c, &pc);
        let gl = weights.combine(&ctx, io, lone, &pl);
        assert!(
            gc > gl,
            "neighbour of the cut should score higher: {gc} vs {gl}"
        );
    }

    fn components(w: &GainWeights) -> [f64; 5] {
        [
            w.merit(),
            w.io_penalty(),
            w.affinity(),
            w.growth(),
            w.independence(),
        ]
    }

    /// Validates the default weights with component `k` (constructor
    /// order) set to `x`, naming the outcome.
    fn verdict(k: usize, x: f64) -> &'static str {
        let mut c = components(&GainWeights::default());
        c[k] = x;
        match GainWeights::new(c[0], c[1], c[2], c[3], c[4]) {
            Ok(w) => {
                assert_eq!(components(&w)[k].to_bits(), x.to_bits());
                "ok"
            }
            Err(WeightsError::NonFinite { .. }) => "non-finite",
            Err(WeightsError::Negative { .. }) => "negative",
            Err(WeightsError::TooLarge { .. }) => "too large",
        }
    }

    #[test]
    fn defaults_are_positive_and_valid() {
        let w = GainWeights::default();
        let c = components(&w);
        assert!(c.iter().all(|&x| x > 0.0));
        assert_eq!(GainWeights::new(c[0], c[1], c[2], c[3], c[4]), Ok(w));
    }

    #[test]
    fn validation_rejects_hostile_and_accepts_boundary_weights() {
        let cap = GainWeights::MAX_MAGNITUDE;
        for k in 0..5 {
            for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert_eq!(verdict(k, x), "non-finite", "component {k} = {x}");
            }
            for x in [cap * 1.5, f64::MAX, -f64::MAX] {
                let expected = if k < 2 && x < 0.0 {
                    "negative"
                } else {
                    "too large"
                };
                assert_eq!(verdict(k, x), expected, "component {k} = {x}");
            }
            for x in [0.0, -0.0, cap] {
                assert_eq!(verdict(k, x), "ok", "component {k} = {x}");
            }
            // Negative merit and io_penalty are rejected; negative
            // affinity, growth and independence are valid.
            for x in [-1.0, -f64::MIN_POSITIVE, -cap] {
                let expected = if k < 2 { "negative" } else { "ok" };
                assert_eq!(verdict(k, x), expected, "component {k} = {x}");
            }
        }
        let e = GainWeights::new(1.0, -1.0, 1.0, 1.0, 0.5).unwrap_err();
        assert_eq!(
            e,
            WeightsError::Negative {
                field: "io_penalty",
                value: -1.0
            }
        );
        assert_eq!(e.to_string(), "io_penalty must be >= 0, got -1");
    }

    #[test]
    fn weights_at_the_cap_keep_every_gain_finite() {
        // The cap's promise, at its corners and for the cohesive
        // flavour's doubled affinity: every candidate's gain is finite.
        let mut b = BlockBuilder::new("t");
        let (p, q) = (b.input("p"), b.input("q"));
        let m = b.op(Opcode::Mul, &[p, q]).unwrap();
        let a = b.op(Opcode::Add, &[m, p]).unwrap();
        b.op(Opcode::Xor, &[a, m]).unwrap();
        let block = b.build().unwrap();
        let model = LatencyModel::paper_default();
        let ctx = BlockContext::new(&block, &model);
        let io = IoConstraints::new(1, 1);
        let cap = GainWeights::MAX_MAGNITUDE;
        let mut engine = ToggleEngine::new(&ctx);
        engine.toggle(m);
        for sign in [1.0, -1.0] {
            let w = GainWeights::new(cap, cap, sign * cap, sign * cap, sign * cap).unwrap();
            for flavour in [w, w.cohesive()] {
                for v in ctx.eligible().iter() {
                    let g = gain_of(&engine, &ctx, &flavour, io, v);
                    assert!(g.is_finite(), "gain of {v} is {g}");
                }
            }
        }
    }
}
