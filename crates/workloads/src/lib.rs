//! Benchmark DFG builders matching the ISEGEN paper's evaluation suite.
//!
//! The paper evaluates on EEMBC (`conven00`, `fbital00`, `viterb00`,
//! `autcor00`, `fft00`), MediaBench (`adpcm_coder`, `adpcm_decoder`) and
//! AES, reporting for each the operation count of its *critical basic
//! block* (in parentheses in Fig. 4): 6, 20, 23, 25, 82, 96, 104 and 696.
//!
//! MachSUIF and the original C sources are not available offline, so each
//! workload here is a hand-constructed, structurally faithful data-flow
//! graph of the same kernel computation with **exactly** the paper's
//! operation count (asserted by tests):
//!
//! * [`conven00`] — convolutional-encoder tap XOR network.
//! * [`fbital00`] — bit-allocation water-filling steps (4 regular carrier
//!   clusters).
//! * [`viterb00`] — Viterbi add-compare-select butterflies.
//! * [`autcor00`] — two parallel multiply-accumulate chains.
//! * [`adpcm_decoder`] / [`adpcm_coder`] — IMA-ADPCM predictor/quantiser
//!   logic with genuine memory barriers (step-table loads).
//! * [`fft00`] — ten radix-2 complex butterflies.
//! * [`aes`] — a full byte-sliced AES encryption data-flow (initial
//!   AddRoundKey, six full rounds with SubBytes/ShiftRows/MixColumns/
//!   AddRoundKey, final SubBytes + AddRoundKey): 696 operations with the
//!   regular, symmetric structure the paper's reusability study exploits.
//!
//! Beyond the paper's evaluation set, the **expansion corpus** pushes
//! block sizes into the thousands of operations:
//!
//! * [`aes128`] / [`aes256`] — the full ten-round (1020 ops) and
//!   fourteen-round (1452 ops) FIPS-197 encryption data-flows, each
//!   carrying its byte-sliced key-schedule block.
//! * [`sha256`] — the fully unrolled 64-round SHA-256 compression
//!   function with its message schedule (2296 ops).
//! * [`fir00`], [`idctrn01`] (EEMBC) and [`jpeg_fdct`], [`gsm_ltp`]
//!   (MediaBench) — four more real kernels built from the shared
//!   dataflow-builder helpers in `util`.
//! * [`synthetic_application`] — a parameterised layered-DFG family
//!   sweeping width/depth/fan-in/I/O pressure, with named members
//!   [`synth_tiny`] … [`synth_xl`] (64–2048 ops).
//!
//! Every workload is an [`isegen_ir::Application`] with the hot kernel block plus a
//! memory-bound "rest of program" block, with frequencies chosen so the
//! kernel's share of total cycles is realistic for the benchmark (this
//! only scales the absolute speedup numbers, not who wins).
//!
//! The registry ([`all_workloads`], [`workloads_in_tiers`],
//! [`workloads_in`], [`paper_suite`]) carries size/category/provenance
//! metadata for every entry so drivers enumerate the corpus by tier
//! instead of hardcoding lists.
//!
//! [`figure1`] builds the paper's motivating example (large reusable ISE
//! vs. largest ISE), and [`random_application`] generates stress-test
//! inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crypto;
mod eembc;
mod figure1;
mod mediabench;
mod random;
mod registry;
mod util;

pub use crypto::{aes, aes128, aes256, sha256};
pub use eembc::{autcor00, conven00, fbital00, fft00, fir00, idctrn01, viterb00};
pub use figure1::{figure1, figure1_annotated, Figure1Layout};
pub use mediabench::{adpcm_coder, adpcm_decoder, gsm_ltp, jpeg_fdct};
pub use random::{
    random_application, synth_deep, synth_io, synth_tiny, synth_wide, synth_xl,
    synthetic_application, RandomWorkloadConfig, SyntheticConfig,
};
pub use registry::{
    all_workloads, mediabench_eembc_suite, paper_suite, workload_by_name, workloads_in,
    workloads_in_tiers, workloads_up_to, Category, SizeTier, WorkloadSpec,
};
