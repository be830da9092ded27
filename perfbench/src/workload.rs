//! The four workloads: set-up, one untraced iteration through the real
//! entry points, one traced iteration through [`crate::traced`], and the
//! correctness checks every iteration must pass.

use crate::stats::geomean;
use crate::trace;
use crate::traced;
use std::path::{Path, PathBuf};
use std::time::Instant;
use subword_bench::baseline::CyclesBaseline;
use subword_bench::store::MeasurementStore;
use subword_bench::sweep::{run_sweep_with_store, CompileCache, SweepConfig, SweepRun};
use subword_bench::SweepReport;
use subword_fuzz::gen::generate;
use subword_fuzz::oracle::{run_case, CaseReport};
use subword_sim::{MachineConfig, PipelineKind};

/// The committed cycles baseline the in-order sweeps gate against
/// (read only), relative to the repository root.
pub const CYCLES_BASELINE: &str = "BENCH_cycles.json";

/// Fuzz cases per iteration.
pub const FUZZ_BATCH: u64 = 400;

/// Fuzz cases per iteration of a smoke run.
const SMOKE_FUZZ_BATCH: u64 = 8;

/// Machines one measured sweep cell builds: baseline, SPU and their
/// scheduled forms, each at two block counts.
const MACHINES_PER_CELL: u64 = 8;

/// Machines one fuzz variant builds: three in-order engines plus the
/// out-of-order model.
const MACHINES_PER_VARIANT: u64 = 4;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold in-order sweep into an empty store, JSON round trip, gate.
    SweepCold,
    /// The same sweep served from a filled store, JSON round trip, gate.
    SweepWarm,
    /// The sweep on the out-of-order model, encoded to JSON.
    SweepOoo,
    /// A batch of differential fuzz cases.
    Fuzz,
}

impl Workload {
    /// Every workload the command runs.
    pub const ALL: [Workload; 4] =
        [Workload::SweepCold, Workload::SweepWarm, Workload::SweepOoo, Workload::Fuzz];

    /// The workloads `BENCHMARK.json` declares, in its order. On a shared
    /// two-core host the run-to-run spread of `sweep_ooo` and `sweep_warm`
    /// is too wide to gate (see `README.md`); both still run on request.
    pub const DECLARED: [Workload; 2] = [Workload::SweepCold, Workload::Fuzz];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::SweepWarm => "sweep_warm",
            Workload::SweepOoo => "sweep_ooo",
            Workload::Fuzz => "fuzz",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the sweep matrix.
    pub fn is_sweep(self) -> bool {
        self != Workload::Fuzz
    }

    /// Whether its sweeps are gated by the cycles baseline.
    fn gated(self) -> bool {
        matches!(self, Workload::SweepCold | Workload::SweepWarm)
    }
}

/// How big a run is.
#[derive(Clone, Debug)]
pub struct Options {
    /// Base seed of the fuzz batch (the sweeps' inputs are fixed).
    pub seed: u64,
    /// A reduced matrix (two kernels by two shapes) and fuzz batch, for
    /// the benchmark's own tests.
    pub smoke: bool,
    /// Directory for measurement stores; removed when the workload is
    /// dropped.
    pub scratch: PathBuf,
    /// The committed cycles baseline ([`CYCLES_BASELINE`]).
    pub baseline: PathBuf,
}

/// Deterministic work one iteration did. It must be identical on every
/// iteration of a run and between the traced and untraced copies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Sweep cells or fuzz cases.
    pub items: u64,
    /// Instructions simulated (sweeps; the fuzz oracle reports none).
    pub sim_instructions: u64,
    /// Machines built.
    pub machines: u64,
    /// Bytes of simulated memory those machines zeroed.
    pub zeroed_bytes: u64,
    /// Lift requests that ran the full analysis.
    pub analyses: u64,
    /// Lift requests served by replaying a cached artifact.
    pub replays: u64,
    /// Sweep cells served from the measurement store.
    pub store_hits: u64,
    /// Sweep cells the store did not have.
    pub store_misses: u64,
    /// Bytes of sweep JSON encoded (and decoded, where decoded), less
    /// the digits of its host wall-clock fields, which vary by run.
    pub json_bytes: u64,
    /// Fuzz cases whose loop was lifted.
    pub lifted: u64,
    /// Fuzz cases whose lift needed register compaction.
    pub compacted: u64,
    /// Fuzz program variants diffed.
    pub variants: u64,
}

impl std::fmt::Display for Work {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "items={} sim_instructions={} machines={} zeroed_bytes={} analyses={} replays={} \
             store_hits={} store_misses={} json_bytes={} lifted={} compacted={} variants={}",
            self.items,
            self.sim_instructions,
            self.machines,
            self.zeroed_bytes,
            self.analyses,
            self.replays,
            self.store_hits,
            self.store_misses,
            self.json_bytes,
            self.lifted,
            self.compacted,
            self.variants
        )
    }
}

/// What one iteration produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The work it did.
    pub work: Work,
    /// Items attempted (sweep iterations count as one, fuzz batches as
    /// their cases).
    pub attempted: u64,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
}

/// A set-up workload, ready to iterate.
pub struct Bench {
    workload: Workload,
    opts: Options,
    sweep: Option<SweepConfig>,
    baseline: Option<CyclesBaseline>,
    warm_store: Option<PathBuf>,
    /// The report every sweep iteration must reproduce: the store fill
    /// for `sweep_warm`, the first iteration otherwise.
    reference: Option<SweepReport>,
    /// The work every iteration must repeat (set by the first one).
    reference_work: Option<Work>,
    dirs: u64,
}

impl Drop for Bench {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.opts.scratch);
    }
}

/// Worker threads a sweep uses: `min(nproc, 2)`.
pub fn sweep_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

fn sweep_config(workload: Workload, smoke: bool) -> SweepConfig {
    let mut cfg = SweepConfig::full_matrix();
    if smoke {
        cfg.entries.truncate(2);
        cfg.shapes.truncate(2);
    }
    if workload == Workload::SweepOoo {
        cfg.base.pipeline = PipelineKind::OutOfOrder;
    }
    cfg.threads = Some(sweep_threads());
    cfg
}

fn load_baseline(path: &Path, cfg: &SweepConfig) -> Result<CyclesBaseline, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut baseline = CyclesBaseline::from_json(&text)?;
    // The smoke matrix is a corner of the full one: gate only its cells.
    baseline.cells.retain(|c| {
        cfg.entries.iter().any(|e| e.kernel.name() == c.kernel)
            && cfg.shapes.iter().any(|s| s.name == c.shape)
    });
    Ok(baseline)
}

impl Bench {
    /// One set-up: load inputs, fill the store (`sweep_warm`), and run
    /// one untimed warm-up iteration so lazy initialisation is done
    /// before timing. Failed checks of the warm-up are returned.
    pub fn setup(workload: Workload, opts: Options) -> Result<(Bench, Outcome), String> {
        std::fs::create_dir_all(&opts.scratch)
            .map_err(|e| format!("create {}: {e}", opts.scratch.display()))?;
        let sweep = workload.is_sweep().then(|| sweep_config(workload, opts.smoke));
        let baseline = match &sweep {
            Some(cfg) if workload.gated() => Some(load_baseline(&opts.baseline, cfg)?),
            _ => None,
        };
        let mut bench = Bench {
            workload,
            opts,
            sweep,
            baseline,
            warm_store: None,
            reference: None,
            reference_work: None,
            dirs: 0,
        };
        let mut fill = Outcome::default();
        if workload == Workload::SweepWarm {
            let dir = bench.fresh_dir();
            let store = MeasurementStore::open(&dir)?;
            let cfg = bench.sweep.as_ref().expect("sweep workload");
            let run = run_sweep_with_store(cfg, &CompileCache::new(), Some(&store))?;
            bench.gate(&run.report, &mut fill.failures);
            if run.store.misses != run.report.cells.len() as u64 {
                fill.failures.push(format!("store fill: {:?}, expected all misses", run.store));
            }
            bench.reference = Some(run.report);
            bench.warm_store = Some(dir);
        }
        let mut warmup = bench.iterate();
        warmup.failures.extend(fill.failures);
        Ok((bench, warmup))
    }

    fn fresh_dir(&mut self) -> PathBuf {
        self.dirs += 1;
        let dir = self.opts.scratch.join(format!("store-{}", self.dirs));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Fuzz case seeds of one batch.
    fn fuzz_seeds(&self) -> impl Iterator<Item = u64> {
        let n = if self.opts.smoke { SMOKE_FUZZ_BATCH } else { FUZZ_BATCH };
        let base = self.opts.seed;
        (0..n).map(move |k| base.wrapping_add(k))
    }

    /// The store an iteration runs against: fresh and empty for
    /// `sweep_cold`, the filled one for `sweep_warm`, none for
    /// `sweep_ooo`.
    fn iteration_store(&mut self) -> Result<Option<MeasurementStore>, String> {
        match self.workload {
            Workload::SweepCold => MeasurementStore::open(self.fresh_dir()).map(Some),
            Workload::SweepWarm => {
                MeasurementStore::open(self.warm_store.as_ref().expect("filled in set-up"))
                    .map(Some)
            }
            _ => Ok(None),
        }
    }

    /// Remove the previous cold iteration's store, outside the timing.
    pub fn between_iterations(&mut self) {
        if self.workload == Workload::SweepCold {
            let _ = std::fs::remove_dir_all(self.opts.scratch.join(format!("store-{}", self.dirs)));
        }
    }

    /// One untimed-by-itself iteration through the real entry points.
    pub fn iterate(&mut self) -> Outcome {
        if self.workload == Workload::Fuzz {
            return self.fuzz_iteration();
        }
        let mut out = Outcome { attempted: 1, ..Outcome::default() };
        let store = match self.iteration_store() {
            Ok(s) => s,
            Err(e) => {
                out.failures.push(e);
                return out;
            }
        };
        let cfg = self.sweep.as_ref().expect("sweep workload");
        let run = match run_sweep_with_store(cfg, &CompileCache::new(), store.as_ref()) {
            Ok(run) => run,
            Err(e) => {
                out.failures.push(format!("sweep: {e}"));
                return out;
            }
        };
        out.work = sweep_work(&run, &cfg.base, cfg.measure_scheduled);
        let report = self.finish_sweep(run.report, &mut out, false);
        self.check_repeat(report, &mut out);
        out
    }

    /// Encode, and for the gated sweeps decode and gate, as CI does
    /// (with spans when `traced`). Returns the report the iteration's
    /// checks compare.
    fn finish_sweep(&self, report: SweepReport, out: &mut Outcome, traced: bool) -> SweepReport {
        let json = maybe_span(traced, "bench.json_encode", || report.to_json());
        out.work.json_bytes = json_bytes(&report, &json);
        if !self.workload.gated() {
            return report;
        }
        match maybe_span(traced, "bench.json_decode", || SweepReport::from_json(&json)) {
            Ok(back) => {
                if back != report {
                    out.failures.push("from_json(to_json(report)) != report".into());
                }
                maybe_span(traced, "bench.baseline_check", || self.gate(&back, &mut out.failures));
                back
            }
            Err(e) => {
                out.failures.push(format!("decode: {e}"));
                report
            }
        }
    }

    fn gate(&self, report: &SweepReport, failures: &mut Vec<String>) {
        let Some(baseline) = &self.baseline else { return };
        match baseline.check(report) {
            Ok(summary) if summary.cells == report.cells.len() => {}
            Ok(summary) => failures.push(format!(
                "{CYCLES_BASELINE} gated {} of {} cells",
                summary.cells,
                report.cells.len()
            )),
            Err(failure) => failures.push(format!("{CYCLES_BASELINE}: {failure}")),
        }
    }

    /// Every iteration must reproduce the reference report and work.
    fn check_repeat(&mut self, report: SweepReport, out: &mut Outcome) {
        match &self.reference {
            Some(r) if *r != report => out.failures.push(format!(
                "{}: report differs from the reference report",
                self.workload.name()
            )),
            Some(_) => {}
            None => self.reference = Some(report),
        }
        match &self.reference_work {
            Some(w) if *w != out.work => {
                out.failures.push(format!("work counters changed: {w} -> {}", out.work))
            }
            Some(_) => {}
            None => self.reference_work = Some(out.work.clone()),
        }
        if self.workload == Workload::SweepWarm && out.work.store_misses != 0 {
            out.failures.push(format!("warm store missed {} cells", out.work.store_misses));
        }
        if self.workload == Workload::SweepCold && out.work.store_hits != 0 {
            out.failures.push(format!("empty store hit {} cells", out.work.store_hits));
        }
    }

    fn fuzz_iteration(&mut self) -> Outcome {
        let mut out = Outcome::default();
        for seed in self.fuzz_seeds() {
            let case = generate(seed);
            out.attempted += 1;
            match run_case(&case) {
                Ok(report) => add_case(&mut out.work, &report),
                Err(failure) => out.failures.push(failure.to_string()),
            }
        }
        self.check_fuzz_repeat(&mut out);
        out
    }

    fn check_fuzz_repeat(&mut self, out: &mut Outcome) {
        match &self.reference_work {
            Some(w) if *w != out.work => {
                out.failures.push(format!("work counters changed: {w} -> {}", out.work))
            }
            Some(_) => {}
            None => self.reference_work = Some(out.work.clone()),
        }
    }

    /// One traced iteration: the same work through [`crate::traced`],
    /// with spans. It must reproduce the reference report and work.
    pub fn iterate_traced(&mut self) -> (Outcome, Result<trace::Summary, String>) {
        let _ = trace::take_lane(None);
        let start = trace::now_ns();
        let (mut out, mut lanes, workers) = if self.workload == Workload::Fuzz {
            (self.fuzz_iteration_traced(), Vec::new(), 1)
        } else {
            self.sweep_iteration_traced()
        };
        let end = trace::now_ns();
        lanes.push(trace::take_lane(None));
        let summary = trace::summarize(lanes, start, end, workers);
        if let Ok(s) = &summary {
            let c = |name| s.counters.get(name).copied().unwrap_or(0);
            out.work.machines = c("sim.machine_new_calls");
            out.work.zeroed_bytes = c("sim.machine_zeroed_bytes");
            if self.workload.is_sweep() {
                out.work.sim_instructions = c("sim.instructions");
                out.work.analyses = c("compile.analyses");
                out.work.replays = c("compile.replays");
                out.work.store_hits = c("bench.store_hits");
                out.work.store_misses = c("bench.store_misses");
            }
        }
        if let Some(w) = &self.reference_work {
            if *w != out.work {
                out.failures.push(format!("traced work differs: {w} vs traced {}", out.work));
            }
        }
        (out, summary)
    }

    fn sweep_iteration_traced(&mut self) -> (Outcome, Vec<trace::Lane>, usize) {
        let mut out = Outcome { attempted: 1, ..Outcome::default() };
        let workers = self.sweep.as_ref().and_then(|c| c.threads).unwrap_or(1);
        let store = match self.iteration_store() {
            Ok(s) => s,
            Err(e) => {
                out.failures.push(e);
                return (out, Vec::new(), workers);
            }
        };
        let cfg = self.sweep.as_ref().expect("sweep workload");
        let (report, lanes) = match traced::sweep(cfg, store.as_ref()) {
            Ok(r) => r,
            Err(e) => {
                out.failures.push(format!("traced sweep: {e}"));
                return (out, Vec::new(), workers);
            }
        };
        out.work.items = report.cells.len() as u64;
        let checked = self.finish_sweep(report, &mut out, true);
        if self.reference.as_ref().is_some_and(|r| *r != checked) {
            out.failures.push("traced report differs from the untraced report".into());
        }
        (out, lanes, workers)
    }

    fn fuzz_iteration_traced(&mut self) -> Outcome {
        let mut out = Outcome::default();
        for seed in self.fuzz_seeds() {
            let case = trace::span("fuzz.generate", || generate(seed));
            out.attempted += 1;
            match traced::fuzz_case(&case) {
                Ok(report) => add_case(&mut out.work, &report),
                Err(e) => out.failures.push(format!("traced: {e}")),
            }
        }
        out
    }

    /// The simulated metrics of the reference report: the SPU speedup
    /// geomean over shape-A cells and the scheduling speedup geomean
    /// over every cell and both variants (`None` for `fuzz`).
    pub fn simulated_speedups(&self) -> Option<(f64, f64)> {
        let r = self.reference.as_ref()?;
        let spu = geomean(r.for_shape("A").iter().map(|c| c.record.speedup()))?;
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        let sched = geomean(r.cells.iter().flat_map(|c| {
            let r = &c.record;
            [
                ratio(r.baseline_per_block.cycles, r.sched_baseline_per_block.cycles),
                ratio(r.spu_per_block.cycles, r.sched_spu_per_block.cycles),
            ]
        }))?;
        Some((spu, sched))
    }

    /// The reference report and work, which every set-up of a workload
    /// must reproduce.
    pub fn references(&self) -> (Option<SweepReport>, Option<Work>) {
        (self.reference.clone(), self.reference_work.clone())
    }

    /// The work every iteration repeats, once an iteration has run.
    pub fn reference_work(&self) -> Option<&Work> {
        self.reference_work.as_ref()
    }

    /// Simulated instructions in the reference report (sweeps).
    pub fn report_instructions(&self) -> Option<u64> {
        self.reference.as_ref().map(SweepReport::total_sim_instructions)
    }
}

/// `f()`, as a span named `name` when `traced`.
fn maybe_span<T>(traced: bool, name: &'static str, f: impl FnOnce() -> T) -> T {
    if traced {
        trace::span(name, f)
    } else {
        f()
    }
}

/// Length of `json`, the encoding of `report`, without the digits of its
/// `wall_nanos` fields.
fn json_bytes(report: &SweepReport, json: &str) -> u64 {
    let digits = |n: u64| n.checked_ilog10().map_or(1, |d| d + 1) as u64;
    let timing = digits(report.wall_nanos.0)
        + report.cells.iter().map(|c| digits(c.record.wall_nanos.0)).sum::<u64>();
    json.len() as u64 - timing
}

fn add_case(work: &mut Work, report: &CaseReport) {
    work.items += 1;
    work.lifted += report.lifted as u64;
    work.compacted += report.compacted as u64;
    work.variants += report.variants as u64;
    work.machines += report.variants as u64 * MACHINES_PER_VARIANT;
    work.zeroed_bytes +=
        report.variants as u64 * MACHINES_PER_VARIANT * MachineConfig::default().memory_size as u64;
}

/// The work counters an untraced sweep reports about itself.
fn sweep_work(run: &SweepRun, base: &MachineConfig, scheduled: bool) -> Work {
    let per_cell = if scheduled { MACHINES_PER_CELL } else { MACHINES_PER_CELL / 2 };
    let fresh = run.measurements.len() as u64;
    Work {
        items: run.report.cells.len() as u64,
        sim_instructions: run.measurements.iter().map(|m| m.measurement.sim_instructions).sum(),
        machines: fresh * per_cell,
        zeroed_bytes: fresh * per_cell * base.memory_size as u64,
        analyses: run.report.cache.misses,
        replays: run.report.cache.hits,
        store_hits: run.store.hits,
        store_misses: run.store.misses + run.store.invalidated,
        ..Work::default()
    }
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
