//! Opt-in invariant auditing of the incremental search state.
//!
//! The K-L inner loop lives or dies by its incremental bookkeeping: the
//! [`crate::ToggleEngine`]'s incidence sets and hull masks, the
//! [`crate::GainCache`]'s recombined probes, and the pass's permanent
//! I/O floor ([`crate::IoFloor`], never above the cut's own counts).
//! Audit mode re-derives all of it from scratch at a configurable
//! commit cadence and fails loudly — with a structured [`AuditReport`]
//! naming every diverging field — the moment the incremental state
//! disagrees with ground truth.
//!
//! Enable it with [`crate::SearchConfig::with_audit_cadence`] or the
//! `IsegenAudit` environment variable (a positive integer: audit every
//! N-th committed toggle; a value that is not an integer panics; the
//! config knob wins when both are set). The
//! disabled path costs one integer compare per commit and performs no
//! audit work — `CacheStats::audit_checks` stays `0`, which
//! `tests/audit_mode.rs` pins.

use std::env::VarError;
use std::fmt;
use std::sync::OnceLock;

/// A failed invariant audit: which trajectory, after how many commits,
/// and every field-level divergence between the incremental state and
/// the from-scratch recomputation.
///
/// The search turns a non-empty report into a panic — a diverged
/// incremental state would otherwise silently corrupt every later gain
/// in the trajectory.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Weight flavour of the trajectory being audited.
    pub flavour: String,
    /// Committed toggles at the time of the audit.
    pub commits: u64,
    /// One line per diverging field, `live` vs `fresh`.
    pub divergences: Vec<String>,
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "invariant audit failed: trajectory {:?}, commit {}, {} divergence(s)",
            self.flavour,
            self.commits,
            self.divergences.len()
        )?;
        for d in &self.divergences {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// The `IsegenAudit` cadence, read once per process; unset means 0.
fn env_cadence() -> usize {
    static CADENCE: OnceLock<usize> = OnceLock::new();
    *CADENCE.get_or_init(|| match std::env::var("IsegenAudit") {
        Ok(value) => parse_cadence(&value),
        Err(VarError::NotPresent) => 0,
        Err(VarError::NotUnicode(value)) => {
            panic!("IsegenAudit={value:?} is not a non-negative integer")
        }
    })
}

/// Parses an `IsegenAudit` value. A typo must not silently run the
/// search unaudited, so anything but a non-negative integer panics.
fn parse_cadence(value: &str) -> usize {
    value
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("IsegenAudit={value:?} is not a non-negative integer"))
}

/// Resolves the effective audit cadence: the explicit
/// [`crate::SearchConfig::audit_cadence`] when non-zero, the
/// `IsegenAudit` environment variable otherwise. Zero disables
/// auditing.
pub(crate) fn effective_cadence(config_cadence: usize) -> usize {
    if config_cadence != 0 {
        config_cadence
    } else {
        env_cadence()
    }
}

#[cfg(test)]
mod tests {
    use super::parse_cadence;

    #[test]
    fn cadence_parses_integers() {
        assert_eq!(parse_cadence("8"), 8);
        assert_eq!(parse_cadence(" 0 "), 0);
    }

    #[test]
    #[should_panic(expected = "IsegenAudit=\"8x\"")]
    fn cadence_rejects_a_typo() {
        parse_cadence("8x");
    }
}
