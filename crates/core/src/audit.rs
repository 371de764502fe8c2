//! Opt-in invariant auditing of the incremental search state.
//!
//! The K-L inner loop lives or dies by its incremental bookkeeping: the
//! [`crate::ToggleEngine`]'s incidence sets and hull masks, the
//! [`crate::GainCache`]'s recombined probes, and the lazy selection
//! queue's stamp discipline. Audit mode re-derives all of it from
//! scratch at a configurable commit cadence and fails loudly — with a
//! structured [`AuditReport`] naming every diverging field — the moment
//! the incremental state disagrees with ground truth.
//!
//! Enable it with [`crate::SearchConfig::with_audit_cadence`] or the
//! `IsegenAudit` environment variable (a positive integer: audit every
//! N-th committed toggle; the config knob wins when both are set). The
//! disabled path costs one integer compare per commit and performs no
//! audit work — `CacheStats::audit_checks` stays `0`, which
//! `tests/audit_mode.rs` pins.

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

/// The `IsegenAudit` cadence, read once per process.
fn env_cadence() -> usize {
    static CADENCE: OnceLock<usize> = OnceLock::new();
    *CADENCE.get_or_init(|| {
        std::env::var("IsegenAudit")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(0)
    })
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
