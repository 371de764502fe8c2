//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--ised PATH]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). Exits 1
//! when any output was wrong, 2 on bad arguments.

use isegen_perfbench::{run_workload, Run};

const USAGE: &str =
    "usage: perfbench --workload paper_suite|huge_single|huge_multilevel|ised_mixed \
--seed N --seconds S --trace 0|1 [--ised PATH]";

fn usage_error(message: &str) -> ! {
    eprintln!("perfbench: {message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut run = Run {
        seed: 1,
        seconds: 10.0,
        trace: false,
        ised: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                run.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed needs a non-negative integer"))
            }
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => run.seconds = s,
                _ => usage_error("--seconds needs a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => run.trace = false,
                "1" => run.trace = true,
                _ => usage_error("--trace needs 0 or 1"),
            },
            "--ised" => run.ised = Some(value.into()),
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    let name = workload.unwrap_or_else(|| usage_error("--workload is required"));
    let Some(outcome) = run_workload(&name, &run) else {
        usage_error(&format!("unknown workload {name:?}"));
    };
    let correct = outcome.correct && outcome.metrics.all_finite();
    println!(
        "{}",
        outcome
            .metrics
            .result_line(correct, outcome.attempted, outcome.failed)
    );
    if !correct {
        std::process::exit(1);
    }
}
