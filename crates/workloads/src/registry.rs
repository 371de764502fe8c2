//! The workload registry: every benchmark in the corpus with size,
//! category and provenance metadata, plus the filters drivers use to
//! enumerate by tier instead of hardcoding lists.

use crate::{
    adpcm_coder, adpcm_decoder, aes, aes128, aes256, autcor00, conven00, fbital00, fft00, fir00,
    gsm_ltp, idctrn01, jpeg_fdct, sha256, synth_deep, synth_io, synth_tiny, synth_wide, synth_xl,
    viterb00,
};
use isegen_ir::Application;

/// Benchmark suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// EEMBC telecom/auto/consumer kernels.
    Eembc,
    /// MediaBench audio/video kernels.
    MediaBench,
    /// Cryptographic kernels (AES family, SHA-256).
    Crypto,
    /// Parameterised layered synthetic DFGs.
    Synthetic,
}

impl Category {
    /// Every category, in display order.
    pub const ALL: [Category; 4] = [
        Category::Eembc,
        Category::MediaBench,
        Category::Crypto,
        Category::Synthetic,
    ];

    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            Category::Eembc => "eembc",
            Category::MediaBench => "mediabench",
            Category::Crypto => "crypto",
            Category::Synthetic => "synthetic",
        }
    }
}

/// Size band of a workload's critical block, the unit the tests use to
/// bound what they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SizeTier {
    /// Fewer than 100 operations — instant even in debug builds.
    Small,
    /// 100–799 operations — the paper's evaluation regime.
    Medium,
    /// 800–1999 operations — full-round crypto scale.
    Large,
    /// 2000+ operations — the stress regime for the incremental engine.
    Huge,
}

impl SizeTier {
    /// Every tier, ascending.
    pub const ALL: [SizeTier; 4] = [
        SizeTier::Small,
        SizeTier::Medium,
        SizeTier::Large,
        SizeTier::Huge,
    ];

    /// The tier a critical block of `ops` operations falls into.
    pub fn of(ops: usize) -> Self {
        match ops {
            0..=99 => SizeTier::Small,
            100..=799 => SizeTier::Medium,
            800..=1999 => SizeTier::Large,
            _ => SizeTier::Huge,
        }
    }

    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            SizeTier::Small => "small",
            SizeTier::Medium => "medium",
            SizeTier::Large => "large",
            SizeTier::Huge => "huge",
        }
    }

    /// Parses a lower-case tier name.
    pub fn parse(s: &str) -> Option<Self> {
        SizeTier::ALL.into_iter().find(|t| t.name() == s)
    }
}

/// A named benchmark with its critical-block size and provenance.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Benchmark name, as in the paper's figures where applicable.
    pub name: &'static str,
    /// Operation count of the critical basic block. For the paper's
    /// workloads this is the parenthesised number in Fig. 4 / Fig. 6;
    /// for the expansion corpus it is asserted by the registry tests.
    pub kernel_ops: usize,
    /// Which suite the workload belongs to.
    pub category: Category,
    /// Where the kernel comes from (one line, for the README table).
    pub provenance: &'static str,
    /// Whether the workload is part of the paper's own evaluation
    /// (Fig. 4 suite + AES) rather than the expansion corpus.
    pub in_paper: bool,
    /// Builder.
    pub build: fn() -> Application,
}

impl WorkloadSpec {
    /// Builds the application.
    pub fn application(&self) -> Application {
        (self.build)()
    }

    /// The size tier of the critical block.
    pub fn tier(&self) -> SizeTier {
        SizeTier::of(self.kernel_ops)
    }
}

macro_rules! spec {
    ($name:literal, $ops:expr, $cat:ident, $prov:literal, $paper:literal, $build:path) => {
        WorkloadSpec {
            name: $name,
            kernel_ops: $ops,
            category: Category::$cat,
            provenance: $prov,
            in_paper: $paper,
            build: $build,
        }
    };
}

/// The whole corpus, in ascending critical-block size (ties broken by
/// name): the paper's eight workloads plus the expansion kernels and
/// the synthetic family.
pub fn all_workloads() -> Vec<WorkloadSpec> {
    let mut v = vec![
        spec!(
            "conven00",
            6,
            Eembc,
            "EEMBC telecom: convolutional encoder",
            true,
            conven00
        ),
        spec!(
            "fbital00",
            20,
            Eembc,
            "EEMBC telecom: DSL bit allocation",
            true,
            fbital00
        ),
        spec!(
            "viterb00",
            23,
            Eembc,
            "EEMBC telecom: Viterbi ACS butterflies",
            true,
            viterb00
        ),
        spec!(
            "autcor00",
            25,
            Eembc,
            "EEMBC auto: fixed-point autocorrelation",
            true,
            autcor00
        ),
        spec!(
            "fir00",
            36,
            Eembc,
            "EEMBC telecom: 16-tap saturated FIR",
            false,
            fir00
        ),
        spec!(
            "synth_tiny",
            64,
            Synthetic,
            "layered 8x8, fan-in 2",
            false,
            synth_tiny
        ),
        spec!(
            "adpcm_decoder",
            82,
            MediaBench,
            "MediaBench: IMA-ADPCM decode step",
            true,
            adpcm_decoder
        ),
        spec!(
            "idctrn01",
            88,
            Eembc,
            "EEMBC consumer: 8-point IDCT rows",
            false,
            idctrn01
        ),
        spec!(
            "adpcm_coder",
            96,
            MediaBench,
            "MediaBench: IMA-ADPCM quantiser search",
            true,
            adpcm_coder
        ),
        spec!(
            "gsm_ltp",
            102,
            MediaBench,
            "MediaBench: GSM 06.10 long-term predictor",
            false,
            gsm_ltp
        ),
        spec!(
            "fft00",
            104,
            Eembc,
            "EEMBC auto: radix-2 FFT butterflies",
            true,
            fft00
        ),
        spec!(
            "jpeg_fdct",
            112,
            MediaBench,
            "MediaBench: cjpeg forward DCT + quantise",
            false,
            jpeg_fdct
        ),
        spec!(
            "synth_io",
            256,
            Synthetic,
            "layered 16x16, fan-in 3, heavy I/O",
            false,
            synth_io
        ),
        spec!(
            "synth_deep",
            480,
            Synthetic,
            "layered 6x80, serial chains",
            false,
            synth_deep
        ),
        spec!(
            "synth_wide",
            512,
            Synthetic,
            "layered 64x8, extreme ILP",
            false,
            synth_wide
        ),
        spec!(
            "aes",
            696,
            Crypto,
            "paper section 5: reduced-round AES",
            true,
            aes
        ),
        spec!(
            "aes128",
            1020,
            Crypto,
            "FIPS-197: full 10-round AES-128",
            false,
            aes128
        ),
        spec!(
            "aes256",
            1452,
            Crypto,
            "FIPS-197: full 14-round AES-256",
            false,
            aes256
        ),
        spec!(
            "synth_xl",
            2048,
            Synthetic,
            "layered 32x64, stress regime",
            false,
            synth_xl
        ),
        spec!(
            "sha256",
            2296,
            Crypto,
            "FIPS-180-4: 64-round compression",
            false,
            sha256
        ),
    ];
    v.sort_by(|a, b| a.kernel_ops.cmp(&b.kernel_ops).then(a.name.cmp(b.name)));
    v
}

/// The seven MediaBench/EEMBC benchmarks of the paper's Fig. 4, in the
/// paper's (ascending-size) order — enumerated from the registry.
pub fn mediabench_eembc_suite() -> Vec<WorkloadSpec> {
    all_workloads()
        .into_iter()
        .filter(|w| w.in_paper && w.category != Category::Crypto)
        .collect()
}

/// The paper's own evaluation set: the Fig. 4 suite plus AES.
pub fn paper_suite() -> Vec<WorkloadSpec> {
    all_workloads().into_iter().filter(|w| w.in_paper).collect()
}

/// Workloads of one category, ascending size.
pub fn workloads_in(category: Category) -> Vec<WorkloadSpec> {
    all_workloads()
        .into_iter()
        .filter(|w| w.category == category)
        .collect()
}

/// Workloads whose critical block falls in any of `tiers`, ascending
/// size.
pub fn workloads_in_tiers(tiers: &[SizeTier]) -> Vec<WorkloadSpec> {
    all_workloads()
        .into_iter()
        .filter(|w| tiers.contains(&w.tier()))
        .collect()
}

/// Workloads with at most `max_ops` critical-block operations.
pub fn workloads_up_to(max_ops: usize) -> Vec<WorkloadSpec> {
    all_workloads()
        .into_iter()
        .filter(|w| w.kernel_ops <= max_ops)
        .collect()
}

/// Looks a workload up by name.
pub fn workload_by_name(name: &str) -> Option<WorkloadSpec> {
    all_workloads().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_matches_its_registered_size() {
        for spec in all_workloads() {
            let app = spec.application();
            let kernel = app.critical_block().expect("has blocks");
            assert_eq!(
                kernel.operation_count(),
                spec.kernel_ops,
                "{}: critical block size mismatch",
                spec.name
            );
        }
    }

    #[test]
    fn suite_is_in_ascending_size_order() {
        let suite = mediabench_eembc_suite();
        assert_eq!(suite.len(), 7);
        for w in suite.windows(2) {
            assert!(w[0].kernel_ops < w[1].kernel_ops);
        }
        assert!(suite.iter().all(|w| w.in_paper));
    }

    #[test]
    fn paper_suite_is_fig4_plus_aes() {
        let suite = paper_suite();
        assert_eq!(suite.len(), 8);
        assert_eq!(suite.last().unwrap().name, "aes");
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(workload_by_name("aes").unwrap().kernel_ops, 696);
        assert!(workload_by_name("nonesuch").is_none());
    }

    #[test]
    fn tier_boundaries() {
        assert_eq!(SizeTier::of(0), SizeTier::Small);
        assert_eq!(SizeTier::of(99), SizeTier::Small);
        assert_eq!(SizeTier::of(100), SizeTier::Medium);
        assert_eq!(SizeTier::of(799), SizeTier::Medium);
        assert_eq!(SizeTier::of(800), SizeTier::Large);
        assert_eq!(SizeTier::of(1999), SizeTier::Large);
        assert_eq!(SizeTier::of(2000), SizeTier::Huge);
        assert_eq!(SizeTier::parse("medium"), Some(SizeTier::Medium));
        assert_eq!(SizeTier::parse("colossal"), None);
    }

    #[test]
    fn filters_agree_with_the_full_enumeration() {
        let all = all_workloads();
        let by_category: usize = Category::ALL.iter().map(|&c| workloads_in(c).len()).sum();
        assert_eq!(by_category, all.len());
        let by_tier = workloads_in_tiers(&SizeTier::ALL);
        assert_eq!(by_tier.len(), all.len());
        assert!(workloads_up_to(100).iter().all(|w| w.kernel_ops <= 100));
        assert!(workloads_in_tiers(&[SizeTier::Huge])
            .iter()
            .all(|w| w.kernel_ops >= 2000));
    }
}
