//! The repository's benchmark: four closed-loop workloads, each run from
//! one process with one client (the benchmark itself, which starts an
//! iteration when the previous one ends).
//!
//! * An **untraced** run (`--trace 0`) times the real entry points and
//!   reports the end-to-end metrics.
//! * A **traced** run (`--trace 1`) times an untraced phase, then
//!   rebuilds each iteration from the public calls the entry points make
//!   ([`traced`]) with a span around every call into a layer
//!   ([`trace`]), and reports per-layer metrics named after the crates
//!   (`sim`, `compile`, `kernels`, `bench`, `fuzz`).
//!
//! Every iteration is checked ([`workload`]); a failed check fails the
//! run. See `README.md` beside this crate for the workloads and metrics.

pub mod host;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;

use stats::{median, quartiles, tail};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workload::{sweep_threads, timed, Bench, Options, Outcome, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Fewest timed iterations per phase, however short `--seconds` is.
pub const MIN_ITERATIONS: usize = 2;

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Fuzz base seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

/// Parse `--workload NAME --seed N --seconds S --trace 0|1`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&names.join(" | "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// A finished run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Items (sweep iterations, fuzz cases) attempted, set-up included.
    pub attempted: u64,
    /// Items that failed a check.
    pub failed: u64,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// The machine-read metrics: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl RunResult {
    fn account(&mut self, out: Outcome) {
        self.attempted += out.attempted;
        self.failed += (out.failures.len() as u64).min(out.attempted.max(1));
        self.failures.extend(out.failures);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The result object, printed as the last line of standard output.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value.to_string() } else { "null".into() };
                format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, note: String) {
        self.lines.push(format!("  {name:<34} {value:>14.6} {unit:<6} {note}"));
        self.metrics.push(Metric { name, unit, value });
    }

    fn note(&mut self, line: String) {
        self.lines.push(line);
    }
}

fn spread(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!("median {q2:.6} q1 {q1:.6} q3 {q3:.6} n={}", values.len()),
        None => "no samples".into(),
    }
}

/// Run one workload for `seconds`, untraced or traced.
pub fn run(workload: Workload, opts: Options, seconds: f64, traced: bool) -> RunResult {
    let host = host::Host::probe();
    let workers = if workload.is_sweep() { sweep_threads() } else { 1 };
    let mut result = RunResult::default();
    result.note(format!(
        "perfbench {} seed={} seconds={seconds} trace={} (closed loop, one client)",
        workload.name(),
        opts.seed,
        traced as u8
    ));
    result.note(format!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\" commit={} workers={workers}",
        host.nproc, host.cpu, host.rustc, host.commit
    ));
    if traced {
        run_traced(workload, opts, seconds, workers, &mut result);
    } else {
        run_untraced(workload, opts, seconds, &mut result);
    }
    let failed_ratio = result.failed as f64 / result.attempted.max(1) as f64;
    result.note(format!(
        "  {:<34} {failed_ratio:>14.6} {:<6} ({} failed of {} attempted)",
        "failed_ratio", "ratio", result.failed, result.attempted
    ));
    for f in result.failures.iter().take(20) {
        result.lines.push(format!("FAILED: {f}"));
    }
    result
}

/// Time `iterate` in a closed loop until `done()` (at least `min`
/// times), tidying up between iterations untimed.
fn closed_loop<T>(
    bench: &mut Bench,
    min: usize,
    iterate: impl Fn(&mut Bench) -> T,
    done: impl Fn() -> bool,
) -> Vec<(T, f64)> {
    let mut samples = Vec::new();
    while samples.len() < min || !done() {
        samples.push(timed(|| iterate(bench)));
        bench.between_iterations();
    }
    samples
}

/// [`closed_loop`] for `seconds`, at least [`MIN_ITERATIONS`] times.
fn closed_loop_for<T>(
    seconds: f64,
    bench: &mut Bench,
    iterate: impl Fn(&mut Bench) -> T,
) -> Vec<(T, f64)> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    closed_loop(bench, MIN_ITERATIONS, iterate, || start.elapsed() >= budget)
}

fn set_up(workload: Workload, opts: &Options, result: &mut RunResult) -> Option<(Bench, f64)> {
    let (setup, secs) = timed(|| Bench::setup(workload, opts.clone()));
    match setup {
        Ok((bench, warmup)) => {
            result.account(warmup);
            Some((bench, secs))
        }
        Err(e) => {
            result.attempted += 1;
            result.failed += 1;
            result.failures.push(format!("set-up: {e}"));
            None
        }
    }
}

fn run_untraced(workload: Workload, opts: Options, seconds: f64, result: &mut RunResult) {
    // One set-up starts each of SETUP_REPS equal segments of the run, so
    // their median samples the host over the same window the iterations
    // do, not only its first seconds. Set-ups count against the run's
    // time.
    let start = Instant::now();
    let segment = seconds / SETUP_REPS as f64;
    let mut setups = Vec::new();
    let mut times = Vec::new();
    let mut items = 0;
    let mut bench: Option<Bench> = None;
    let mut first_references = None;
    for k in 1..=SETUP_REPS {
        // Drop the previous set-up first: it owns the scratch directory.
        drop(bench.take());
        let Some((mut b, secs)) = set_up(workload, &opts, result) else { return };
        setups.push(secs);
        let references = b.references();
        match &first_references {
            None => first_references = Some(references),
            Some(first) if *first != references => {
                result.failed += 1;
                result.failures.push(format!("set-up {k} disagrees with set-up 1"));
            }
            Some(_) => {}
        }
        let deadline = Duration::from_secs_f64(segment * k as f64);
        let samples = closed_loop(&mut b, 1, Bench::iterate, || start.elapsed() >= deadline);
        for (out, secs) in samples {
            times.push(secs);
            items = out.work.items;
            result.account(out);
        }
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");
    let iter_s = median(&times).expect("timed iterations");
    let tail = tail(&times).expect("timed iterations");
    result.note("end-to-end:".into());
    result.metric(
        "setup_s",
        "s",
        median(&setups).expect("set-ups"),
        format!("set-up incl. one warm-up iteration; {}", spread(&setups)),
    );
    result.metric("iter_s", "s", iter_s, spread(&times));
    result.metric(
        "iter_tail_s",
        "s",
        tail.value,
        format!("p{} of n={} iterations, {} beyond", tail.percentile, tail.samples, tail.beyond),
    );
    let what = if workload.is_sweep() { "cells" } else { "cases" };
    result.metric(
        "items_per_s",
        "1/s",
        items as f64 / iter_s,
        format!("{items} {what} per iteration, at the median"),
    );
    result.metric(
        "peak_rss_mb",
        "MB",
        host::peak_rss_mb(),
        "peak resident set of the process".into(),
    );
    if matches!(workload, Workload::SweepCold | Workload::SweepOoo) {
        if let Some(n) = bench.report_instructions() {
            result.note(format!(
                "  {:<34} {:>14.6} {:<6} {n} simulated instructions per iteration / iter_s",
                "sim_mips",
                n as f64 / iter_s / 1e6,
                "MIPS"
            ));
        }
    }
    if let Some((spu, sched)) = bench.simulated_speedups() {
        result.note(format!(
            "  {:<34} {spu:>14.6} {:<6} simulated; shape-A cells, baseline / SPU cycles",
            "spu_speedup_geomean", "x"
        ));
        result.note(format!(
            "  {:<34} {sched:>14.6} {:<6} simulated; every cell and variant, unscheduled / scheduled",
            "sched_speedup_geomean", "x"
        ));
    }
    if let Some(w) = bench.reference_work() {
        result.note(format!("work per iteration (deterministic): {w}"));
    }
}

/// The traced run's per-layer metrics and their units, in report order.
/// Times are self seconds per iteration; counts are per iteration.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("sim.machine_new_s", "s"),
    ("sim.machine_new_calls", "count"),
    ("sim.machine_zeroed_bytes", "bytes"),
    ("sim.init_s", "s"),
    ("sim.run_inorder_s", "s"),
    ("sim.run_reference_s", "s"),
    ("sim.run_decoded_s", "s"),
    ("sim.run_threaded_s", "s"),
    ("sim.instructions", "count"),
    ("sim.cycles", "count"),
    ("sim.mips_inorder", "MIPS"),
    ("sim.translate.translations", "count"),
    ("sim.translate.aborts", "count"),
    ("sim.translate.replay_slot_ratio", "ratio"),
    ("sim.run_ooo_s", "s"),
    ("sim.mips_ooo", "MIPS"),
    ("sim.ooo.rob_stall_cycles", "count"),
    ("sim.ooo.rs_stall_cycles", "count"),
    ("sim.ooo.sb_stall_cycles", "count"),
    ("compile.analyze_s", "s"),
    ("compile.analyses", "count"),
    ("compile.apply_s", "s"),
    ("compile.replays", "count"),
    ("compile.schedule_s", "s"),
    ("compile.lift_s", "s"),
    ("compile.lift_ratio", "ratio"),
    ("kernels.build_s", "s"),
    ("kernels.check_s", "s"),
    ("bench.json_encode_s", "s"),
    ("bench.json_decode_s", "s"),
    ("bench.json_bytes", "bytes"),
    ("bench.baseline_check_s", "s"),
    ("bench.cell_key_s", "s"),
    ("bench.store_load_s", "s"),
    ("bench.store_save_s", "s"),
    ("bench.store_hits", "count"),
    ("bench.store_misses", "count"),
    ("fuzz.generate_s", "s"),
    ("fuzz.build_program_s", "s"),
    ("fuzz.variants", "count"),
    ("trace.iter_s", "s"),
    ("trace.self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.idle_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer values from the traced iterations (mean self time per
/// iteration; counters of one iteration, which all iterations repeat).
fn per_layer(
    summaries: &[trace::Summary],
    json_bytes: u64,
    untraced_iter_s: f64,
) -> BTreeMap<&'static str, f64> {
    let n = summaries.len() as f64;
    let secs = |name: &str| {
        summaries.iter().map(|s| s.self_ns.get(name).copied().unwrap_or(0)).sum::<u64>() as f64
            / 1e9
            / n
    };
    let first = &summaries[0];
    let c = |name: &str| first.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mean =
        |f: fn(&trace::Summary) -> u64| summaries.iter().map(f).sum::<u64>() as f64 / 1e9 / n;
    let walls: Vec<f64> = summaries.iter().map(|s| s.wall_ns as f64 / 1e9).collect();
    let traced_iter_s = median(&walls).expect("traced iterations");

    let run_inorder =
        secs("sim.run_reference") + secs("sim.run_decoded") + secs("sim.run_threaded");
    let ooo_instructions = c("sim.ooo_instructions");
    let inorder_instructions = c("sim.instructions") - ooo_instructions;
    let replayed = c("sim.translate.replayed_slots");
    let mut m = BTreeMap::new();
    let mut put = |name: &'static str, v: f64| {
        m.insert(name, v);
    };
    put("sim.machine_new_s", secs("sim.machine_new"));
    put("sim.machine_new_calls", c("sim.machine_new_calls"));
    put("sim.machine_zeroed_bytes", c("sim.machine_zeroed_bytes"));
    put("sim.init_s", secs("sim.init"));
    put("sim.run_inorder_s", run_inorder);
    put("sim.run_reference_s", secs("sim.run_reference"));
    put("sim.run_decoded_s", secs("sim.run_decoded"));
    put("sim.run_threaded_s", secs("sim.run_threaded"));
    put("sim.instructions", c("sim.instructions"));
    put("sim.cycles", c("sim.cycles"));
    put("sim.mips_inorder", ratio(inorder_instructions, run_inorder) / 1e6);
    put("sim.translate.translations", c("sim.translate.translations"));
    put("sim.translate.aborts", c("sim.translate.aborts"));
    put(
        "sim.translate.replay_slot_ratio",
        ratio(replayed, replayed + c("sim.translate.fallback_slots")),
    );
    put("sim.run_ooo_s", secs("sim.run_ooo"));
    put("sim.mips_ooo", ratio(ooo_instructions, secs("sim.run_ooo")) / 1e6);
    put("sim.ooo.rob_stall_cycles", c("sim.ooo.rob_stall_cycles"));
    put("sim.ooo.rs_stall_cycles", c("sim.ooo.rs_stall_cycles"));
    put("sim.ooo.sb_stall_cycles", c("sim.ooo.sb_stall_cycles"));
    put("compile.analyze_s", secs("compile.analyze"));
    put("compile.analyses", c("compile.analyses"));
    put("compile.apply_s", secs("compile.apply"));
    put("compile.replays", c("compile.replays"));
    put("compile.schedule_s", secs("compile.schedule"));
    put("compile.lift_s", secs("compile.lift"));
    put("compile.lift_ratio", ratio(c("compile.lift_transformed"), c("compile.lift_candidates")));
    put("kernels.build_s", secs("kernels.build"));
    put("kernels.check_s", secs("kernels.check"));
    put("bench.json_encode_s", secs("bench.json_encode"));
    put("bench.json_decode_s", secs("bench.json_decode"));
    put("bench.json_bytes", json_bytes as f64);
    put("bench.baseline_check_s", secs("bench.baseline_check"));
    put("bench.cell_key_s", secs("bench.cell_key"));
    put("bench.store_load_s", secs("bench.store_load"));
    put("bench.store_save_s", secs("bench.store_save"));
    put("bench.store_hits", c("bench.store_hits"));
    put("bench.store_misses", c("bench.store_misses"));
    put("fuzz.generate_s", secs("fuzz.generate"));
    put("fuzz.build_program_s", secs("fuzz.build_program"));
    put("fuzz.variants", c("fuzz.variants"));
    put("trace.iter_s", traced_iter_s);
    put("trace.self_s", mean(trace::Summary::self_total_ns));
    put("trace.unattributed_s", mean(|s| s.unattributed_ns));
    put("trace.idle_s", mean(|s| s.idle_ns));
    put("trace.overhead_ratio", traced_iter_s / untraced_iter_s);
    m
}

fn run_traced(
    workload: Workload,
    opts: Options,
    seconds: f64,
    workers: usize,
    result: &mut RunResult,
) {
    let Some((mut bench, setup_secs)) = set_up(workload, &opts, result) else { return };
    result.note(format!("set-up {setup_secs:.6} s (one set-up; setup_s is reported untraced)"));
    let untraced = closed_loop_for(seconds / 2.0, &mut bench, Bench::iterate);
    let untraced_times: Vec<f64> = untraced.iter().map(|(_, s)| *s).collect();
    let mut json_bytes = 0;
    for (out, _) in untraced {
        json_bytes = out.work.json_bytes;
        result.account(out);
    }
    let traced = closed_loop_for(seconds / 2.0, &mut bench, Bench::iterate_traced);
    let mut summaries = Vec::new();
    for ((out, summary), _) in traced {
        result.account(out);
        match summary {
            Ok(s) => summaries.push(s),
            Err(e) => result.failures.push(format!("trace accounting: {e}")),
        }
    }
    if let Some(first) = summaries.first() {
        if let Some(k) = summaries.iter().position(|s| s.counters != first.counters) {
            result.failures.push(format!("traced counters changed on iteration {k}"));
        }
    }
    if summaries.is_empty() || !result.failures.is_empty() {
        result.failed = result.failed.max(1);
        return;
    }
    let untraced_iter_s = median(&untraced_times).expect("untraced iterations");
    let values = per_layer(&summaries, json_bytes, untraced_iter_s);
    let capacity = summaries[0].wall_ns as f64 / 1e9 * workers as f64;
    result.note(format!(
        "per-layer (traced: {} iterations, untraced iter_s {untraced_iter_s:.6} over {} \
         iterations; shares of traced wall x {workers} workers):",
        summaries.len(),
        untraced_times.len()
    ));
    let calls = |span: &str| summaries[0].calls.get(span).copied().unwrap_or(0);
    for (name, unit) in PER_LAYER {
        let value = values[name];
        let note = match name.strip_suffix("_s") {
            Some(span) if unit == "s" && !name.starts_with("trace.") => {
                let n = match span {
                    "sim.run_inorder" => ["reference", "decoded", "threaded"]
                        .iter()
                        .map(|e| calls(&format!("sim.run_{e}")))
                        .sum(),
                    _ => calls(span),
                };
                format!("{:5.1}% in {n} calls", 100.0 * value / capacity)
            }
            _ => String::new(),
        };
        result.metric(name, unit, value, note);
    }
    let mean_wall =
        summaries.iter().map(|s| s.wall_ns).sum::<u64>() as f64 / 1e9 / summaries.len() as f64;
    let (self_s, rest) = (values["trace.self_s"], values["trace.unattributed_s"]);
    result.note(format!(
        "accounting per iteration: self {self_s:.6} s + unattributed {rest:.6} s = {:.6} s = \
         mean traced wall {mean_wall:.6} s x {workers} workers",
        self_s + rest
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        assert_eq!(
            args("--workload fuzz --seed 42 --seconds 20 --trace 1"),
            Ok(Args { workload: Workload::Fuzz, seed: 42, seconds: 20.0, trace: true })
        );
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload fuzz --trace 2",
            "--workload fuzz --seconds 0",
            "--workload fuzz --seconds",
            "--workload fuzz --extra 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
