//! The traced copies of the workloads.
//!
//! Each function rebuilds one real entry point — `run_sweep_with_store`
//! with `measure_with_config_opts` under it, and the fuzz oracle's
//! `run_case` — from the public calls those entry points make, with a
//! span around every call into a layer. Nothing inside the crates is
//! instrumented. The copies must reproduce the real results exactly;
//! the caller checks that against an untraced iteration.

use crate::trace::{self, count, span};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use subword_bench::store::{cell_key, MeasurementStore};
use subword_bench::sweep::{CacheStats, CompileCache, ShapeInfo, SweepCell, SweepConfig};
use subword_bench::SweepReport;
use subword_compile::{lift_permutes, schedule_program, LoopStatus, TransformResult};
use subword_fuzz::gen::{build_program, FuzzCase, MEM_BASE, MEM_LEN};
use subword_fuzz::oracle::{CaseReport, ENGINES};
use subword_isa::program::Program;
use subword_isa::reg::{GpReg, MmReg};
use subword_kernels::framework::{HostNanos, Kernel, KernelBuild, Measurement, VariantStats};
use subword_sim::{ExecEngine, Machine, MachineConfig, PipelineKind, SimStats};
use subword_spu::crossbar::CrossbarShape;

/// The span a `Machine::run` call is booked to.
fn run_span(cfg: &MachineConfig) -> &'static str {
    match (cfg.pipeline, cfg.engine) {
        (PipelineKind::OutOfOrder, _) => "sim.run_ooo",
        (PipelineKind::InOrder, ExecEngine::Reference) => "sim.run_reference",
        (PipelineKind::InOrder, ExecEngine::Decoded) => "sim.run_decoded",
        (PipelineKind::InOrder, ExecEngine::Threaded) => "sim.run_threaded",
    }
}

/// Build a machine, initialise it and run `program`: the three `sim`
/// calls every simulated run makes. Returns the machine (for checking),
/// its statistics and the nanoseconds spent in `Machine::run`.
fn run_machine(
    cfg: MachineConfig,
    init: impl FnOnce(&mut Machine) -> Result<(), String>,
    program: &Program,
) -> Result<(Machine, SimStats, u64), String> {
    count("sim.machine_new_calls", 1);
    count("sim.machine_zeroed_bytes", cfg.memory_size as u64);
    let run = run_span(&cfg);
    let mut m = span("sim.machine_new", || Machine::new(cfg));
    span("sim.init", || init(&mut m))?;
    let start = trace::begin();
    let result = m.run(program);
    let nanos = trace::end(start, run);
    let stats = result.map_err(|e| e.to_string())?;
    count("sim.instructions", stats.instructions);
    count("sim.cycles", stats.cycles);
    if run == "sim.run_ooo" {
        count("sim.ooo_instructions", stats.instructions);
    }
    let t = &m.translation;
    count("sim.translate.translations", t.translations);
    count("sim.translate.aborts", t.aborts);
    count("sim.translate.replayed_slots", t.replayed_slots);
    count("sim.translate.fallback_slots", t.fallback_slots);
    count("sim.ooo.rob_stall_cycles", m.ooo.rob_stall_cycles);
    count("sim.ooo.rs_stall_cycles", m.ooo.rs_stall_cycles);
    count("sim.ooo.sb_stall_cycles", m.ooo.sb_stall_cycles);
    Ok((m, stats, nanos))
}

/// `run_checked` of the kernel framework: one variant at one block
/// count, golden outputs checked.
fn run_checked(
    build: &KernelBuild,
    cfg: MachineConfig,
    label: &str,
) -> Result<(SimStats, u64), String> {
    let init = |m: &mut Machine| {
        for (addr, bytes) in &build.setup.mem_init {
            m.mem.write_bytes(*addr, bytes).map_err(|_| format!("{label}: init oob"))?;
        }
        for (r, v) in &build.setup.reg_init {
            m.regs.write_gp(*r, *v);
        }
        for (r, v) in &build.setup.mm_init {
            m.regs.write_mm(*r, *v);
        }
        Ok(())
    };
    let (m, stats, nanos) =
        run_machine(cfg, init, &build.program).map_err(|e| format!("{label}: {e}"))?;
    span("kernels.check", || build.check(&m, label))?;
    Ok((stats, nanos))
}

/// `CompileCache::lift`, booked as an analysis or a replay by the
/// cache's own miss counter.
fn lift(
    cache: &CompileCache,
    key: &str,
    program: &Program,
    shape: &CrossbarShape,
) -> Result<TransformResult, String> {
    let misses = cache.stats().misses;
    let start = trace::begin();
    let result = cache.lift(key, program, shape);
    let analysed = cache.stats().misses > misses;
    trace::end(start, if analysed { "compile.analyze" } else { "compile.apply" });
    count(if analysed { "compile.analyses" } else { "compile.replays" }, 1);
    result
}

/// Per-block steady-state window: `(large - small) / blocks`.
fn per_block(large: SimStats, small: SimStats, nblocks: u64) -> SimStats {
    let mut d = large - small;
    for field in [
        &mut d.cycles,
        &mut d.instructions,
        &mut d.mmx_instructions,
        &mut d.scalar_instructions,
        &mut d.mmx_realignments,
        &mut d.mmx_multiplies,
        &mut d.scalar_multiplies,
        &mut d.branches,
        &mut d.mispredicts,
        &mut d.mispredict_cycles,
        &mut d.stall_cycles,
        &mut d.imul_block_cycles,
        &mut d.pairs,
        &mut d.singles,
        &mut d.mmx_pairs,
        &mut d.mmx_active_cycles,
        &mut d.loads,
        &mut d.stores,
        &mut d.spu_routed,
        &mut d.spu_steps,
        &mut d.spu_activations,
        &mut d.mmio_accesses,
    ] {
        *field /= nblocks;
    }
    d
}

/// `measure_with_config_opts` of the kernel framework, lifting through
/// `cache`.
#[allow(clippy::too_many_arguments)]
fn measure(
    kernel: &dyn Kernel,
    blocks_small: u64,
    blocks_large: u64,
    shape: &CrossbarShape,
    base: &MachineConfig,
    cache: &CompileCache,
    measure_scheduled: bool,
) -> Result<Measurement, String> {
    let key = kernel.name();
    let mmx_cfg = MachineConfig { spu_fitted: false, ..base.clone() };
    let spu_cfg = MachineConfig { spu_fitted: true, crossbar: *shape, ..base.clone() };
    let b_small = span("kernels.build", || kernel.build(blocks_small));
    let b_large = span("kernels.build", || kernel.build(blocks_large));

    let (base_small, t_bs) = run_checked(&b_small, mmx_cfg.clone(), "baseline/small")?;
    let (base_large, t_bl) = run_checked(&b_large, mmx_cfg.clone(), "baseline/large")?;

    let rebuilt = |program: Program, of: &KernelBuild| KernelBuild {
        program,
        setup: of.setup.clone(),
        expected: of.expected.clone(),
    };
    let ((sched_base_small, t_sbs), (sched_base_large, t_sbl), sched_base_moved) =
        if measure_scheduled {
            let (sb_small, _) = span("compile.schedule", || schedule_program(&b_small.program));
            let (sb_large, sb_report) =
                span("compile.schedule", || schedule_program(&b_large.program));
            (
                run_checked(&rebuilt(sb_small, &b_small), mmx_cfg.clone(), "sched-base/s")?,
                run_checked(&rebuilt(sb_large, &b_large), mmx_cfg, "sched-base/l")?,
                sb_report.moved as u64,
            )
        } else {
            ((base_small, 0), (base_large, 0), 0)
        };

    let lifted_small = lift(cache, key, &b_small.program, shape)?;
    let lifted_large = lift(cache, key, &b_large.program, shape)?;
    let spu_build_small = rebuilt(lifted_small.program, &b_small);
    let spu_build_large = rebuilt(lifted_large.program, &b_large);
    let (spu_small, t_ss) = run_checked(&spu_build_small, spu_cfg.clone(), "spu/small")?;
    let (spu_large, t_sl) = run_checked(&spu_build_large, spu_cfg.clone(), "spu/large")?;

    let ((sched_spu_small, t_xs), (sched_spu_large, t_xl), sched_moved) = if measure_scheduled {
        let small = rebuilt(lifted_small.scheduled.program, &b_small);
        let large = rebuilt(lifted_large.scheduled.program, &b_large);
        (
            run_checked(&small, spu_cfg.clone(), "sched-spu/small")?,
            run_checked(&large, spu_cfg, "sched-spu/large")?,
            (sched_base_moved, lifted_large.scheduled.moved as u64),
        )
    } else {
        ((spu_small, 0), (spu_large, 0), (0, 0))
    };

    let report = lifted_large.report;
    count(
        "compile.lift_transformed",
        report.loops.iter().filter(|l| l.status == LoopStatus::Transformed).count() as u64,
    );
    count("compile.lift_candidates", report.candidates() as u64);

    let nblocks = blocks_large - blocks_small;
    let variant =
        |small, large| VariantStats { per_block: per_block(large, small, nblocks), total: large };
    let mut sim_instructions =
        [base_small, base_large, spu_small, spu_large].iter().map(|s| s.instructions).sum::<u64>();
    if measure_scheduled {
        sim_instructions += [sched_base_small, sched_base_large, sched_spu_small, sched_spu_large]
            .iter()
            .map(|s| s.instructions)
            .sum::<u64>();
    }
    Ok(Measurement {
        name: kernel.name(),
        family: kernel.family(),
        baseline: variant(base_small, base_large),
        spu: variant(spu_small, spu_large),
        sched_baseline: variant(sched_base_small, sched_base_large),
        sched_spu: variant(sched_spu_small, sched_spu_large),
        sched_moved,
        report,
        blocks: (blocks_small, blocks_large),
        wall_nanos: HostNanos(t_bs + t_bl + t_sbs + t_sbl + t_ss + t_sl + t_xs + t_xl),
        sim_instructions,
    })
}

/// One cell of the job matrix, as a worker of `run_sweep_with_store`
/// computes it.
fn sweep_cell(
    cfg: &SweepConfig,
    store: Option<&MeasurementStore>,
    (e, s, c): (usize, usize, usize),
) -> Result<(SweepCell, CacheStats), String> {
    let entry = &cfg.entries[e];
    let shape = cfg.shapes[s];
    let scale = cfg.block_scales[c];
    let key = entry.kernel.name();
    let pipeline = cfg.base.pipeline.name();
    let (small, large) = (entry.blocks_small * scale, entry.blocks_large * scale);
    catch_unwind(AssertUnwindSafe(|| -> Result<(SweepCell, CacheStats), String> {
        let content_key = store.map(|_| {
            span("bench.cell_key", || {
                cell_key(
                    entry.kernel,
                    small,
                    large,
                    &shape,
                    &cfg.base,
                    scale,
                    cfg.measure_scheduled,
                )
            })
        });
        if let (Some(st), Some(k)) = (store, content_key) {
            let hit = span("bench.store_load", || st.load(k, key, shape.name, scale, pipeline));
            count(if hit.is_some() { "bench.store_hits" } else { "bench.store_misses" }, 1);
            if let Some(cell) = hit {
                return Ok((cell, CacheStats::default()));
            }
        }
        // Each (kernel, shape) key belongs to exactly one job of the
        // matrix, so a job-local cache sees the same hits and misses as
        // the shared one while its counters stay free of other workers'
        // lifts.
        let cache = CompileCache::new();
        let m =
            measure(entry.kernel, small, large, &shape, &cfg.base, &cache, cfg.measure_scheduled)?;
        let cell = SweepCell {
            shape: shape.name.to_string(),
            scale,
            pipeline: pipeline.to_string(),
            record: m.record(),
        };
        if let (Some(st), Some(k)) = (store, content_key) {
            span("bench.store_save", || st.save(k, &cell));
        }
        Ok((cell, cache.stats()))
    }))
    .unwrap_or_else(|_| Err("panicked".into()))
    .map_err(|err| format!("{key}/shape {}: {err}", shape.name))
}

/// One job's result: its cell and the job-local compile-cache counters.
type Slot = Mutex<Option<Result<(SweepCell, CacheStats), String>>>;

/// `run_sweep_with_store`, traced. The calling thread works as one of
/// the `cfg.threads` workers and keeps its own lane; the lanes of the
/// other workers are returned.
pub fn sweep(
    cfg: &SweepConfig,
    store: Option<&MeasurementStore>,
) -> Result<(SweepReport, Vec<trace::Lane>), String> {
    let mut jobs = Vec::new();
    for e in 0..cfg.entries.len() {
        for s in 0..cfg.shapes.len() {
            for c in 0..cfg.block_scales.len() {
                jobs.push((e, s, c));
            }
        }
    }
    let workers = cfg.threads.unwrap_or(1).clamp(1, jobs.len().max(1));
    let next = AtomicUsize::new(0);
    let results: Vec<Slot> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&job) = jobs.get(i) else { break };
        let outcome = sweep_cell(cfg, store, job);
        *results[i].lock().expect("result slot poisoned") = Some(outcome);
    };
    let lanes = std::thread::scope(|scope| {
        let others: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(|| {
                    let born = trace::now_ns();
                    work();
                    trace::take_lane(Some(born))
                })
            })
            .collect();
        work();
        others.into_iter().map(|h| h.join().expect("sweep worker panicked")).collect()
    });
    let mut cells = Vec::with_capacity(jobs.len());
    let mut cache = CacheStats::default();
    for slot in results {
        let (cell, stats) = slot.into_inner().expect("result slot poisoned").expect("job ran")?;
        cells.push(cell);
        cache.hits += stats.hits;
        cache.misses += stats.misses;
        cache.stale_fallbacks += stats.stale_fallbacks;
    }
    let report = SweepReport {
        shapes: cfg.shapes.iter().map(ShapeInfo::from).collect(),
        scales: cfg.block_scales.clone(),
        cells,
        cache,
        wall_nanos: HostNanos(0),
    };
    Ok((report, lanes))
}

/// Architectural state after a fuzz run.
#[derive(Clone, Debug, PartialEq, Eq)]
struct EngineState {
    stats: SimStats,
    mm: [u64; 8],
    gp: [u32; 16],
    mem: Vec<u8>,
}

/// The oracle's `run_program`: one program, one engine and model, the
/// case's initial state.
fn fuzz_run(
    program: &Program,
    case: &FuzzCase,
    engine: ExecEngine,
    pipeline: PipelineKind,
) -> Result<EngineState, String> {
    let cfg = MachineConfig { engine, pipeline, ..MachineConfig::with_spu(case.crossbar()) };
    let init = |m: &mut Machine| {
        for (i, v) in case.mm_init.iter().enumerate() {
            m.regs.write_mm(MmReg::from_index(i).expect("mm file has 8 registers"), *v);
        }
        m.mem
            .write_bytes(MEM_BASE, &case.initial_memory())
            .map_err(|e| format!("memory init: {e:?}"))
    };
    let (m, stats, _) = run_machine(cfg, init, program)?;
    Ok(EngineState {
        stats,
        mm: std::array::from_fn(|i| m.regs.read_mm(MmReg::from_index(i).expect("8 mm registers"))),
        gp: std::array::from_fn(|i| m.regs.read_gp(GpReg::from_index(i).expect("16 gp registers"))),
        mem: m
            .mem
            .read_bytes(MEM_BASE, MEM_LEN)
            .map(<[u8]>::to_vec)
            .map_err(|e| format!("memory readback: {e:?}"))?,
    })
}

/// Whether two states agree on the subset the oracle compares.
fn agree(a: &EngineState, b: &EngineState, stats: bool, mm: bool) -> bool {
    (!stats || a.stats == b.stats) && (!mm || a.mm == b.mm) && a.gp == b.gp && a.mem == b.mem
}

/// The oracle's `run_case`, traced: build, compile four variants, run
/// each on three engines and the out-of-order model, compare.
pub fn fuzz_case(case: &FuzzCase) -> Result<CaseReport, String> {
    catch_unwind(AssertUnwindSafe(|| fuzz_case_inner(case)))
        .unwrap_or_else(|_| Err("panicked".into()))
        .map_err(|e| format!("seed {:#018x}: {e}", case.seed))
}

fn fuzz_case_inner(case: &FuzzCase) -> Result<CaseReport, String> {
    let program = span("fuzz.build_program", || build_program(case))?;
    let scheduled = span("compile.schedule", || schedule_program(&program).0);
    let shape = case.crossbar();
    let lift =
        span("compile.lift", || lift_permutes(&program, &shape)).map_err(|e| e.to_string())?;
    let transformed =
        lift.report.loops.iter().filter(|l| l.status == LoopStatus::Transformed).count();
    count("compile.lift_transformed", transformed as u64);
    count("compile.lift_candidates", lift.report.candidates() as u64);
    let lifted_any = transformed > 0;
    let compacted = lift.report.loops.iter().any(|l| l.renamed_ranges > 0);

    let mut variants: Vec<(&str, &Program)> =
        vec![("baseline", &program), ("scheduled", &scheduled)];
    if lifted_any {
        variants.push(("lifted", &lift.program));
        variants.push(("scheduled-lifted", &lift.scheduled.program));
    }
    count("fuzz.variants", variants.len() as u64);

    let mut reference: Vec<(&str, EngineState)> = Vec::new();
    for (name, prog) in &variants {
        let mut states = Vec::new();
        for engine in ENGINES {
            let state = fuzz_run(prog, case, engine, PipelineKind::InOrder)?;
            if state.stats.cycles > case.static_cycle_bound() {
                return Err(format!("{name}/{engine:?}: cycles exceed the static bound"));
            }
            states.push(state);
        }
        if let Some(i) = (1..states.len()).find(|&i| !agree(&states[0], &states[i], true, true)) {
            return Err(format!("{name}: Reference vs {:?} diverge", ENGINES[i]));
        }
        let ooo = fuzz_run(prog, case, ExecEngine::default(), PipelineKind::OutOfOrder)?;
        if !agree(&states[0], &ooo, false, true)
            || states[0].stats.count_divergence(&ooo.stats).is_some()
        {
            return Err(format!("{name}: in-order vs ooo diverge"));
        }
        reference.push((name, states.swap_remove(0)));
    }

    let state_of = |name: &str| &reference.iter().find(|(n, _)| *n == name).expect("ran").1;
    let base = state_of("baseline");
    let mut pairs = vec![("scheduled", base, true)];
    if lifted_any {
        pairs.push(("lifted", base, false));
        pairs.push(("scheduled-lifted", state_of("lifted"), true));
    }
    for (name, against, mm) in pairs {
        if !agree(against, state_of(name), false, mm) {
            return Err(format!("{name} diverges"));
        }
    }
    Ok(CaseReport { lifted: lifted_any, compacted, variants: variants.len() })
}
