//! The counters the benchmark reports as exact counts, and the selection
//! digests, repeat exactly between two runs at one thread — single-level
//! and multilevel.

use isegen_core::{IseConfig, MultilevelConfig, SearchConfig};
use isegen_ir::LatencyModel;
use isegen_perfbench::pipeline::{run_app, AppInput, Counters};
use isegen_workloads::{paper_suite, workload_by_name};

fn run_twice(inputs: &[AppInput], search: &SearchConfig) -> Counters {
    let model = LatencyModel::paper_default();
    let ise = IseConfig::paper_default();
    let mut total = Counters::default();
    for input in inputs {
        let a = run_app(input, &model, ise, search, true).expect("first run succeeds");
        let b = run_app(input, &model, ise, search, false).expect("second run succeeds");
        assert_eq!(a.counters, b.counters, "{}: counters differ", input.name);
        assert_eq!(
            a.digest, b.digest,
            "{}: selection digest differs",
            input.name
        );
        assert_eq!(a.verilog, b.verilog, "{}: Verilog differs", input.name);
        total += a.counters;
    }
    total
}

#[test]
fn paper_suite_counts_repeat() {
    let inputs: Vec<AppInput> = paper_suite().iter().map(AppInput::from_spec).collect();
    let c = run_twice(&inputs, &SearchConfig::default());
    assert!(c.searches > 0 && c.commits > 0 && c.queue_pops > 0);
    assert_eq!(c.vcycles, 0, "single-level search never coarsens");
}

#[test]
fn multilevel_counts_repeat() {
    // The paper's AES block (696 ops) is above the V-cycle threshold.
    let aes = workload_by_name("aes").expect("aes is registered");
    let search = SearchConfig::default().with_multilevel(MultilevelConfig::default());
    let c = run_twice(&[AppInput::from_spec(&aes)], &search);
    assert!(c.vcycles > 0 && c.coarsen_levels > 0 && c.band_ops > 0);
}
