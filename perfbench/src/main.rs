//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload from the repository root and prints a report, then
//! one JSON result object as the last line of standard output. Exits
//! non-zero when any correctness check fails.

use perfbench::workload::{Options, CYCLES_BASELINE};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = perfbench::parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
        std::process::exit(2);
    });
    let baseline = Path::new(CYCLES_BASELINE);
    if !baseline.is_file() {
        eprintln!("error: {CYCLES_BASELINE} not found; run from the repository root");
        std::process::exit(2);
    }
    let opts = Options {
        seed: args.seed,
        smoke: false,
        scratch: Path::new(".bench_build/perfbench-scratch").join(format!(
            "{}-{}",
            args.workload.name(),
            std::process::id()
        )),
        baseline: baseline.to_path_buf(),
    };
    let result = perfbench::run(args.workload, opts, args.seconds, args.trace);
    for line in &result.lines {
        println!("{line}");
    }
    println!("{}", result.to_json());
    if !result.correct() {
        std::process::exit(1);
    }
}
