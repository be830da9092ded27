//! Regenerates the paper's evaluation: Table 1, Figure 9, Tables 2–3,
//! the §6 shape ablation and the energy and sensitivity extensions.
//!
//! ```text
//! cargo run --release -p subword-bench --bin paper                  # every view
//! cargo run --release -p subword-bench --bin paper -- figure9 table3
//! ```
//!
//! The views are the functions of [`subword_bench::report`]. Named views
//! print in the canonical order of [`report::VIEWS`]; an unknown name
//! exits 2. Every view but `table1` reads one paper-family sweep over
//! shapes A–D, run once; Table 2's penalty sweep and the sensitivity
//! sweeps share its compile cache, so each (kernel, shape) is analysed
//! once per process.

use std::cell::OnceCell;
use subword_bench::report::{self, VIEWS};
use subword_bench::sweep::{run_sweep_with_store, CompileCache, SweepConfig, SweepReport};
use subword_spu::crossbar::CANONICAL_SHAPES;

fn sweep(cfg: &SweepConfig, cache: &CompileCache) -> SweepReport {
    run_sweep_with_store(cfg, cache, None)
        .unwrap_or_else(|e| {
            eprintln!("paper: sweep failed: {e}");
            std::process::exit(1);
        })
        .report
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args.iter().find(|a| !VIEWS.contains(&a.as_str())) {
        eprintln!("paper: unknown view `{bad}`");
        eprintln!("usage: paper [VIEW...]   (views: {})", VIEWS.join(" "));
        std::process::exit(2);
    }
    let views: Vec<&str> =
        VIEWS.into_iter().filter(|v| args.is_empty() || args.iter().any(|a| a == v)).collect();

    let cache = CompileCache::new();
    let paper_report = OnceCell::new();
    let paper =
        || paper_report.get_or_init(|| sweep(&SweepConfig::paper(&CANONICAL_SHAPES), &cache));
    for view in &views {
        if views.len() > 1 {
            println!("\n==================== {view} ====================\n");
        }
        let text = match *view {
            "table1" => report::table1(),
            "figure9" => report::figure9(paper()),
            "table2" => {
                let penalty5 = sweep(&report::penalty_config(paper()), &cache);
                report::table2(paper(), &penalty5)
            }
            "table3" => report::table3(paper()),
            "ablation" => report::ablation(paper()),
            "energy" => report::energy(paper()),
            "sensitivity" => report::sensitivity(&cache).unwrap_or_else(|e| {
                eprintln!("paper: sensitivity sweep failed: {e}");
                std::process::exit(1);
            }),
            _ => unreachable!("views are checked against VIEWS"),
        };
        print!("{text}");
    }
}
