use crate::Opcode;

/// Software and hardware latency model.
///
/// * **Software latency** is the cycle count of the operation on the
///   baseline single-issue RISC core.
/// * **Hardware delay** is the propagation delay of the operator when
///   synthesised into an AFU datapath, normalised to the delay of one
///   32-bit multiply-accumulate (MAC) — the unit used by the paper, which
///   synthesised operators on a 130 nm CMOS library and normalised the
///   results. We cannot rerun that synthesis offline, so
///   [`LatencyModel::paper_default`] ships a table with the standard
///   relative magnitudes (logic ≪ add ≪ compare < mul < MAC); the shapes
///   of the paper's results depend only on these relative values.
///
/// ```
/// use isegen_ir::{LatencyModel, Opcode};
///
/// let m = LatencyModel::paper_default();
/// assert!(m.hw_delay(Opcode::Xor) < m.hw_delay(Opcode::Add));
/// assert_eq!(m.hw_delay(Opcode::Mac), 1.0);
/// assert!(m.sw_cycles(Opcode::Mul) > m.sw_cycles(Opcode::Add));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    sw: [u32; Opcode::ALL.len()],
    hw: [f64; Opcode::ALL.len()],
}

impl LatencyModel {
    /// The default model calibrated to reproduce the paper's regime.
    ///
    /// Hardware delays are fractions of one MAC delay; software latencies
    /// are single-issue RISC cycle counts.
    pub fn paper_default() -> Self {
        use Opcode::*;
        let mut sw = [1u32; Opcode::ALL.len()];
        let mut hw = [0.0f64; Opcode::ALL.len()];
        let table: &[(Opcode, u32, f64)] = &[
            (Input, 0, 0.0),
            (Add, 1, 0.30),
            (Sub, 1, 0.30),
            (Mul, 3, 0.85),
            (Mac, 4, 1.00),
            (And, 1, 0.05),
            (Or, 1, 0.05),
            (Xor, 1, 0.05),
            (Not, 1, 0.03),
            (Shl, 1, 0.10),
            (Shr, 1, 0.10),
            (Sar, 1, 0.10),
            (RotL, 1, 0.10),
            (Eq, 1, 0.18),
            (Lt, 1, 0.25),
            (Min, 2, 0.32),
            (Max, 2, 0.32),
            (Abs, 2, 0.30),
            (Neg, 1, 0.15),
            (Select, 1, 0.10),
            (SBox, 2, 0.40),
            (Xtime, 2, 0.08),
            (GfMul, 4, 0.50),
            (Load, 2, 0.0),
            (Store, 1, 0.0),
        ];
        for &(op, s, h) in table {
            sw[op.as_index()] = s;
            hw[op.as_index()] = h;
        }
        LatencyModel { sw, hw }
    }

    /// Software cycle count of `op` on the baseline core.
    #[inline]
    pub fn sw_cycles(&self, op: Opcode) -> u32 {
        self.sw[op.as_index()]
    }

    /// Hardware propagation delay of `op`, in MAC units.
    #[inline]
    pub fn hw_delay(&self, op: Opcode) -> f64 {
        self.hw[op.as_index()]
    }

    /// Returns a copy with the software latency of `op` overridden.
    ///
    /// Useful for sensitivity studies.
    pub fn with_sw_cycles(mut self, op: Opcode, cycles: u32) -> Self {
        self.sw[op.as_index()] = cycles;
        self
    }

    /// Returns a copy with the hardware delay of `op` overridden.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or not finite.
    pub fn with_hw_delay(mut self, op: Opcode, delay: f64) -> Self {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "invalid hw delay {delay}"
        );
        self.hw[op.as_index()] = delay;
        self
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_is_the_unit() {
        let m = LatencyModel::paper_default();
        assert_eq!(m.hw_delay(Opcode::Mac), 1.0);
        for op in Opcode::ALL {
            assert!(m.hw_delay(op) <= 1.0, "{op} slower than a MAC");
            assert!(m.hw_delay(op) >= 0.0);
        }
    }

    #[test]
    fn hardware_beats_software_for_eligible_ops() {
        // The premise of ISE generation: a hardware operator is faster than
        // the software instruction(s) it replaces.
        let m = LatencyModel::paper_default();
        for op in Opcode::ALL {
            if op.is_ise_eligible() {
                assert!(
                    m.hw_delay(op) < m.sw_cycles(op) as f64,
                    "{op}: hw {} !< sw {}",
                    m.hw_delay(op),
                    m.sw_cycles(op)
                );
            }
        }
    }

    #[test]
    fn overrides() {
        let m = LatencyModel::paper_default()
            .with_sw_cycles(Opcode::Mul, 5)
            .with_hw_delay(Opcode::Mul, 0.9);
        assert_eq!(m.sw_cycles(Opcode::Mul), 5);
        assert_eq!(m.hw_delay(Opcode::Mul), 0.9);
    }

    #[test]
    #[should_panic(expected = "invalid hw delay")]
    fn negative_delay_rejected() {
        let _ = LatencyModel::paper_default().with_hw_delay(Opcode::Add, -1.0);
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(LatencyModel::default(), LatencyModel::paper_default());
    }
}
