//! Kernel framework: building, measuring and checking benchmark kernels.
//!
//! The paper's methodology (§5.2.1): run each IPP routine on the MMX,
//! extract statistics, re-code it to use implicit SPU routings instead of
//! permutation instructions, and re-run. Here the "re-coding" is the
//! `subword-compile` lifting pass, and the statistics come from the
//! simulator. Steady-state per-block numbers are extracted by running two
//! different block counts and differencing, which cancels programming
//! prologues and cold-predictor effects.

use crate::paper::PaperRow;
use crate::suite::Family;
use subword_compile::{lift_permutes, schedule_program, CompileReport, TestSetup, TransformResult};
use subword_isa::program::Program;
use subword_sim::{Machine, MachineConfig, SimStats};
use subword_spu::crossbar::CrossbarShape;

/// Hook producing the MMX+SPU variant of a program for [`measure`]:
/// given the MMX-only program and the target crossbar shape, return the
/// lifted result. Without one ([`MeasureOpts::lift`] = `None`) each
/// measurement runs a fresh [`lift_permutes`]; the sweep harness plugs
/// in a compiled-program cache that replays a
/// [`subword_compile::CompiledKernel`] instead.
pub type LiftFn<'a> =
    &'a (dyn Fn(&Program, &CrossbarShape) -> Result<TransformResult, String> + Sync);

/// How [`measure`] runs a kernel. The default is the paper-faithful
/// one-off probe: the default machine, a fresh lifting pass, and the
/// four unscheduled simulations.
#[derive(Default)]
pub struct MeasureOpts<'a> {
    /// Micro-architectural parameters (multiplier latencies, BTB,
    /// mispredict penalty, pipeline model, …) for *both* variants; the
    /// SPU flag and crossbar are overridden per variant.
    pub base: MachineConfig,
    /// Lifting hook (`None` = a fresh [`lift_permutes`] per block count).
    pub lift: Option<LiftFn<'a>>,
    /// Also simulate the list-scheduled form of both variants (eight
    /// runs instead of four). Unset, the `sched_*` fields mirror the
    /// unscheduled ones (zero deltas, zero moved instructions). Keep it
    /// unset for non-default `base` parameters: the scheduler's
    /// acceptance cost model replays the *default* latencies, so its
    /// never-slower contract is only asserted on default-config
    /// measurements (DESIGN.md §7).
    pub scheduled: bool,
}

/// A fully materialised kernel instance.
pub struct KernelBuild {
    /// The MMX-only program, parameterised by block count.
    pub program: Program,
    /// Memory/register initialisation and output ranges.
    pub setup: TestSetup,
    /// Golden outputs `(address, bytes)` computed by the scalar
    /// reference.
    pub expected: Vec<(u32, Vec<u8>)>,
}

impl KernelBuild {
    /// Check a machine's memory against the golden outputs.
    pub fn check(&self, m: &Machine, label: &str) -> Result<(), String> {
        for (addr, bytes) in &self.expected {
            let got = m
                .mem
                .read_bytes(*addr, bytes.len())
                .map_err(|_| format!("{label}: expected range {addr:#x} out of bounds"))?;
            if got != bytes.as_slice() {
                let off = got.iter().zip(bytes).position(|(a, b)| a != b).unwrap();
                return Err(format!(
                    "{label}: mismatch at {:#x}+{off}: got {:#04x}, expected {:#04x}",
                    addr, got[off], bytes[off]
                ));
            }
        }
        Ok(())
    }
}

/// A benchmark kernel.
pub trait Kernel: Sync {
    /// Name matching the paper's tables.
    fn name(&self) -> &'static str;

    /// Build the MMX-only program running `blocks` block invocations.
    fn build(&self, blocks: u64) -> KernelBuild;

    /// The kernel family this benchmark belongs to (reported as its own
    /// sweep column so consumers can slice by workload class). Required
    /// — a new kernel must declare its family, or family-driven suite
    /// selection and the family report column silently misclassify it.
    /// Note the column tags *provenance*: the Figure 5 dot-product
    /// example reports `paper` although it sits outside the Figure 9
    /// headline list that [`crate::suite::family_suite`] returns.
    fn family(&self) -> Family;

    /// The published row, if this kernel appears in the paper's tables.
    fn paper(&self) -> Option<&'static PaperRow> {
        crate::paper::paper_row(self.name())
    }
}

/// Steady-state per-block statistics for one variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VariantStats {
    /// Per-block steady-state counters.
    pub per_block: SimStats,
    /// Whole-run counters at the larger block count.
    pub total: SimStats,
}

/// Host-side wall-clock nanoseconds attached to a measurement.
///
/// Deliberately **compares equal to any other value**: host timing is
/// nondeterministic, and equality of measurements/records means "the same
/// simulated quantities" (the sweep layer asserts cached ≡ uncached
/// measurements and lossless JSON round trips; neither property can hold
/// for wall time). The value itself still serializes, prints and feeds
/// the derived throughput metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostNanos(pub u64);

impl PartialEq for HostNanos {
    fn eq(&self, _: &HostNanos) -> bool {
        true
    }
}

impl Eq for HostNanos {}

/// Provenance marker on a [`MeasurementRecord`]: whether the record was
/// loaded from a cross-run measurement store rather than simulated by
/// this process.
///
/// Like [`HostNanos`] it is **equality-exempt**: record equality means
/// "the same simulated quantities", and a warm-cache sweep must produce
/// a report equal to a cold run's — which only its provenance flags
/// could ever distinguish. The flag still serializes (the sweep JSON's
/// schema-v5 `cached` column), so report consumers can tell replayed
/// cells from freshly simulated ones.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cached(pub bool);

impl PartialEq for Cached {
    fn eq(&self, _: &Cached) -> bool {
        true
    }
}

impl Eq for Cached {}

impl HostNanos {
    /// Simulated work per host second: `n` units over this wall time
    /// (`f64::INFINITY` for a zero reading, which only a sub-nanosecond
    /// clock would produce).
    pub fn per_second(&self, n: u64) -> f64 {
        if self.0 == 0 {
            return f64::INFINITY;
        }
        n as f64 / (self.0 as f64 / 1e9)
    }
}

/// A complete paper-methodology measurement of one kernel.
///
/// Under the sweep layer (scheduled measurement on, the default there)
/// every variant is measured twice: as built (the paper-faithful
/// unscheduled numbers in [`Measurement::baseline`]/[`Measurement::spu`])
/// and after the pairing-aware list scheduler reordered it
/// ([`Measurement::sched_baseline`]/[`Measurement::sched_spu`]) — the
/// scheduled-vs-unscheduled delta is the orchestration signal the sweep
/// reports per kernel. One-off probes ([`MeasureOpts::default`]) skip
/// the scheduled runs; their `sched_*` fields mirror the unscheduled
/// ones.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Kernel name.
    pub name: &'static str,
    /// Kernel family.
    pub family: Family,
    /// MMX-only variant.
    pub baseline: VariantStats,
    /// MMX+SPU variant.
    pub spu: VariantStats,
    /// MMX-only variant, list-scheduled for dual-issue.
    pub sched_baseline: VariantStats,
    /// MMX+SPU variant, list-scheduled (loop bodies reordered with their
    /// SPU routes permuted in lockstep).
    pub sched_spu: VariantStats,
    /// Static instructions the scheduler moved (baseline, SPU variant),
    /// at the large block count.
    pub sched_moved: (u64, u64),
    /// The lifting pass's report.
    pub report: CompileReport,
    /// Block counts used (small, large).
    pub blocks: (u64, u64),
    /// Host wall-clock spent inside the measurement's simulator runs —
    /// eight (baseline, SPU, and their scheduled forms, at both block
    /// counts), or four when scheduled measurement is disabled
    /// ([`MeasureOpts::scheduled`]) — the interpreter-throughput signal.
    pub wall_nanos: HostNanos,
    /// Dynamic instructions those runs retired (deterministic, so it
    /// participates in equality).
    pub sim_instructions: u64,
}

/// The derived-metric formulas, defined once over the two per-block
/// counter sets; [`Measurement`] and [`MeasurementRecord`] both delegate
/// here.
mod metrics {
    use super::SimStats;

    pub fn speedup(base: &SimStats, spu: &SimStats) -> f64 {
        base.cycles as f64 / spu.cycles.max(1) as f64
    }

    pub fn pct_cycles_saved(base: &SimStats, spu: &SimStats) -> f64 {
        100.0 * (1.0 - spu.cycles as f64 / base.cycles.max(1) as f64)
    }

    pub fn offloaded_per_block(base: &SimStats, spu: &SimStats) -> u64 {
        base.mmx_realignments - spu.mmx_realignments
    }

    pub fn pct_mmx_instr(base: &SimStats, spu: &SimStats) -> f64 {
        100.0 * offloaded_per_block(base, spu) as f64 / base.mmx_instructions.max(1) as f64
    }

    pub fn pct_total_instr(base: &SimStats, spu: &SimStats) -> f64 {
        100.0 * offloaded_per_block(base, spu) as f64 / base.instructions.max(1) as f64
    }
}

impl Measurement {
    /// Per-block cycle speedup from the SPU.
    pub fn speedup(&self) -> f64 {
        metrics::speedup(&self.baseline.per_block, &self.spu.per_block)
    }

    /// Percentage of cycles saved (how Figure 9 is usually read).
    pub fn pct_cycles_saved(&self) -> f64 {
        metrics::pct_cycles_saved(&self.baseline.per_block, &self.spu.per_block)
    }

    /// Off-loaded permutations per block (dynamic).
    pub fn offloaded_per_block(&self) -> u64 {
        metrics::offloaded_per_block(&self.baseline.per_block, &self.spu.per_block)
    }

    /// Off-loaded permutations as % of baseline MMX instructions —
    /// Table 3's "% MMX Instr".
    pub fn pct_mmx_instr(&self) -> f64 {
        metrics::pct_mmx_instr(&self.baseline.per_block, &self.spu.per_block)
    }

    /// Off-loaded permutations as % of total instructions — Table 3's
    /// "Total Instr".
    pub fn pct_total_instr(&self) -> f64 {
        metrics::pct_total_instr(&self.baseline.per_block, &self.spu.per_block)
    }

    /// Host-side simulator throughput: simulated instructions retired per
    /// wall-clock second across this measurement's four runs.
    pub fn sim_ips(&self) -> f64 {
        self.wall_nanos.per_second(self.sim_instructions)
    }

    /// Flatten into the serializable [`MeasurementRecord`] schema.
    pub fn record(&self) -> MeasurementRecord {
        MeasurementRecord {
            kernel: self.name.to_string(),
            family: self.family,
            blocks: self.blocks,
            wall_nanos: self.wall_nanos,
            sim_instructions: self.sim_instructions,
            baseline_per_block: self.baseline.per_block,
            baseline_total: self.baseline.total,
            spu_per_block: self.spu.per_block,
            spu_total: self.spu.total,
            sched_baseline_per_block: self.sched_baseline.per_block,
            sched_baseline_total: self.sched_baseline.total,
            sched_spu_per_block: self.sched_spu.per_block,
            sched_spu_total: self.sched_spu.total,
            sched_moved_baseline: self.sched_moved.0,
            sched_moved_spu: self.sched_moved.1,
            removed_static: self.report.removed_static as u64,
            setup_instructions: self.report.setup_instructions as u64,
            candidates: self.report.candidates() as u64,
            transformed_loops: self
                .report
                .loops
                .iter()
                .filter(|l| l.status == subword_compile::LoopStatus::Transformed)
                .count() as u64,
            cached: Cached(false),
        }
    }
}

/// The plain-data measurement schema: everything a report consumer needs,
/// flattened to named numbers so harnesses can serialize it without
/// carrying live compiler state. Produced by [`Measurement::record`];
/// consumed (and JSON round-tripped) by the `subword-bench` sweep layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeasurementRecord {
    /// Kernel name matching the paper's tables.
    pub kernel: String,
    /// Kernel family the benchmark belongs to.
    pub family: Family,
    /// Block counts used (small, large).
    pub blocks: (u64, u64),
    /// Host wall-clock spent inside the measurement's four simulator
    /// runs (exempt from equality — see [`HostNanos`]).
    pub wall_nanos: HostNanos,
    /// Dynamic instructions those runs retired.
    pub sim_instructions: u64,
    /// MMX-only steady-state per-block counters.
    pub baseline_per_block: SimStats,
    /// MMX-only whole-run counters at the larger block count.
    pub baseline_total: SimStats,
    /// MMX+SPU steady-state per-block counters.
    pub spu_per_block: SimStats,
    /// MMX+SPU whole-run counters at the larger block count.
    pub spu_total: SimStats,
    /// List-scheduled MMX-only steady-state per-block counters.
    pub sched_baseline_per_block: SimStats,
    /// List-scheduled MMX-only whole-run counters.
    pub sched_baseline_total: SimStats,
    /// List-scheduled MMX+SPU steady-state per-block counters.
    pub sched_spu_per_block: SimStats,
    /// List-scheduled MMX+SPU whole-run counters.
    pub sched_spu_total: SimStats,
    /// Static instructions the scheduler moved in the MMX-only variant.
    pub sched_moved_baseline: u64,
    /// Static instructions the scheduler moved in the MMX+SPU variant.
    pub sched_moved_spu: u64,
    /// Static realignment instructions the pass removed.
    pub removed_static: u64,
    /// Instructions the pass added (MMIO prologue + GO stores).
    pub setup_instructions: u64,
    /// Liftable candidates the pass saw.
    pub candidates: u64,
    /// Loops actually transformed.
    pub transformed_loops: u64,
    /// Whether this record was replayed from a cross-run measurement
    /// store (equality-exempt provenance — see [`Cached`]).
    pub cached: Cached,
}

impl MeasurementRecord {
    /// Per-block cycle speedup from the SPU.
    pub fn speedup(&self) -> f64 {
        metrics::speedup(&self.baseline_per_block, &self.spu_per_block)
    }

    /// Percentage of cycles saved (how Figure 9 is usually read).
    pub fn pct_cycles_saved(&self) -> f64 {
        metrics::pct_cycles_saved(&self.baseline_per_block, &self.spu_per_block)
    }

    /// Off-loaded permutations per block (dynamic).
    pub fn offloaded_per_block(&self) -> u64 {
        metrics::offloaded_per_block(&self.baseline_per_block, &self.spu_per_block)
    }

    /// Off-loaded permutations as % of baseline MMX instructions.
    pub fn pct_mmx_instr(&self) -> f64 {
        metrics::pct_mmx_instr(&self.baseline_per_block, &self.spu_per_block)
    }

    /// Off-loaded permutations as % of total instructions.
    pub fn pct_total_instr(&self) -> f64 {
        metrics::pct_total_instr(&self.baseline_per_block, &self.spu_per_block)
    }

    /// Scale factor to print per-block numbers at the paper's magnitude
    /// (the paper ran ~10^10 clocks per benchmark).
    pub fn paper_scale(&self, paper: &PaperRow) -> f64 {
        paper.clocks / self.baseline_per_block.cycles.max(1) as f64
    }

    /// Host-side simulator throughput: simulated instructions retired per
    /// wall-clock second across this measurement's runs.
    pub fn sim_ips(&self) -> f64 {
        self.wall_nanos.per_second(self.sim_instructions)
    }

    /// Per-block cycles the list scheduler saved on the MMX-only
    /// variant (positive = scheduled is faster).
    pub fn sched_baseline_cycles_saved(&self) -> i64 {
        self.baseline_per_block.cycles as i64 - self.sched_baseline_per_block.cycles as i64
    }

    /// Per-block cycles the list scheduler saved on the MMX+SPU variant.
    pub fn sched_spu_cycles_saved(&self) -> i64 {
        self.spu_per_block.cycles as i64 - self.sched_spu_per_block.cycles as i64
    }

    /// Issued-pair-rate gain from scheduling the MMX-only variant
    /// (fraction of issue slots that dual-issue, scheduled − unscheduled).
    pub fn sched_baseline_pair_rate_gain(&self) -> f64 {
        self.sched_baseline_per_block.pair_rate() - self.baseline_per_block.pair_rate()
    }

    /// Issued-pair-rate gain from scheduling the MMX+SPU variant.
    pub fn sched_spu_pair_rate_gain(&self) -> f64 {
        self.sched_spu_per_block.pair_rate() - self.spu_per_block.pair_rate()
    }
}

/// Run `program` at one block count of `build` (its initial state and
/// golden outputs), checking outputs. The returned nanoseconds cover
/// only [`Machine::run`] — not machine construction, state
/// initialisation or the golden check — so they are a pure
/// interpreter-throughput signal.
fn run_checked(
    program: &Program,
    build: &KernelBuild,
    cfg: &MachineConfig,
    label: &str,
) -> Result<(SimStats, u64), String> {
    let mut m = Machine::new(cfg.clone());
    build.setup.apply(&mut m).map_err(|_| format!("{label}: init oob"))?;
    let t = std::time::Instant::now();
    let stats = m.run(program).map_err(|e| format!("{label}: {e}"))?;
    let nanos = t.elapsed().as_nanos() as u64;
    build.check(&m, label)?;
    Ok((stats, nanos))
}

/// Per-block steady state: every counter of a two-run difference
/// divided by the block-count difference.
fn per_block(d: SimStats, nblocks: u64) -> SimStats {
    let mut d = d;
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

/// Measure a kernel with the paper's methodology: baseline and SPU
/// variants at two block counts; steady-state = difference. `opts`
/// picks the machine, the lifting hook and whether the list-scheduled
/// forms are simulated too; every run's golden outputs are checked.
pub fn measure(
    kernel: &dyn Kernel,
    blocks_small: u64,
    blocks_large: u64,
    shape: &CrossbarShape,
    opts: &MeasureOpts<'_>,
) -> Result<Measurement, String> {
    assert!(blocks_small < blocks_large);
    let fresh = |program: &Program, shape: &CrossbarShape| {
        lift_permutes(program, shape).map_err(|e| e.to_string())
    };
    let lift: LiftFn<'_> = opts.lift.unwrap_or(&fresh);
    let mmx_cfg = MachineConfig { spu_fitted: false, ..opts.base.clone() };
    let spu_cfg = MachineConfig { spu_fitted: true, crossbar: *shape, ..opts.base.clone() };
    let b_small = kernel.build(blocks_small);
    let b_large = kernel.build(blocks_large);

    // One variant: its programs at both block counts, differenced.
    let mut wall_nanos = 0;
    let mut sim_instructions = 0;
    let mut variant = |small: &Program, large: &Program, cfg: &MachineConfig, label: &str| {
        let (s, t_s) = run_checked(small, &b_small, cfg, &format!("{label}/small"))?;
        let (l, t_l) = run_checked(large, &b_large, cfg, &format!("{label}/large"))?;
        wall_nanos += t_s + t_l;
        sim_instructions += s.instructions + l.instructions;
        let per_block = per_block(l - s, blocks_large - blocks_small);
        Ok::<_, String>(VariantStats { per_block, total: l })
    };

    let baseline = variant(&b_small.program, &b_large.program, &mmx_cfg, "baseline")?;
    let lifted_small = lift(&b_small.program, shape)?;
    let lifted_large = lift(&b_large.program, shape)?;
    let spu = variant(&lifted_small.program, &lifted_large.program, &spu_cfg, "spu")?;

    // The list-scheduled forms: the baseline with its regions reordered
    // for dual-issue, and the scheduled SPU variant the lifting pass
    // carries alongside the plain one (loop bodies reordered, SPU routes
    // permuted to match).
    let (sched_baseline, sched_spu, sched_moved) = if opts.scheduled {
        let (sb_small, _) = schedule_program(&b_small.program);
        let (sb_large, sb_report) = schedule_program(&b_large.program);
        let (ss_small, ss_large) = (&lifted_small.scheduled, &lifted_large.scheduled);
        (
            variant(&sb_small, &sb_large, &mmx_cfg, "sched-base")?,
            variant(&ss_small.program, &ss_large.program, &spu_cfg, "sched-spu")?,
            (sb_report.moved as u64, ss_large.moved as u64),
        )
    } else {
        (baseline, spu, (0, 0))
    };

    Ok(Measurement {
        name: kernel.name(),
        family: kernel.family(),
        baseline,
        spu,
        sched_baseline,
        sched_spu,
        sched_moved,
        report: lifted_large.report,
        blocks: (blocks_small, blocks_large),
        wall_nanos: HostNanos(wall_nanos),
        sim_instructions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use subword_sim::SimStats;

    fn meas(base: SimStats, spu: SimStats) -> Measurement {
        Measurement {
            name: "synthetic",
            family: Family::Paper,
            baseline: VariantStats { per_block: base, total: base },
            spu: VariantStats { per_block: spu, total: spu },
            sched_baseline: VariantStats { per_block: base, total: base },
            sched_spu: VariantStats { per_block: spu, total: spu },
            sched_moved: (0, 0),
            report: CompileReport {
                name: "synthetic".into(),
                loops: vec![],
                removed_static: 0,
                setup_instructions: 0,
            },
            blocks: (1, 2),
            wall_nanos: HostNanos(0),
            sim_instructions: 0,
        }
    }

    #[test]
    fn host_nanos_is_equality_exempt_but_still_measures() {
        assert_eq!(HostNanos(1), HostNanos(2));
        assert_eq!(HostNanos(500_000_000).per_second(1_000_000), 2_000_000.0);
        assert_eq!(HostNanos(0).per_second(5), f64::INFINITY);
    }

    #[test]
    fn measurement_ratios() {
        let base = SimStats {
            cycles: 1000,
            instructions: 1600,
            mmx_instructions: 800,
            mmx_realignments: 200,
            ..Default::default()
        };
        let spu = SimStats {
            cycles: 850,
            instructions: 1450,
            mmx_instructions: 650,
            mmx_realignments: 50,
            ..Default::default()
        };
        let m = meas(base, spu);
        assert_eq!(m.offloaded_per_block(), 150);
        assert!((m.speedup() - 1000.0 / 850.0).abs() < 1e-12);
        assert!((m.pct_cycles_saved() - 15.0).abs() < 1e-9);
        // Table 3 shares use the *baseline* populations.
        assert!((m.pct_mmx_instr() - 100.0 * 150.0 / 800.0).abs() < 1e-9);
        assert!((m.pct_total_instr() - 100.0 * 150.0 / 1600.0).abs() < 1e-9);
        // Paper scaling produces the published clock magnitude.
        let row = crate::paper::paper_row("DCT").unwrap();
        let scale = m.record().paper_scale(row);
        assert!((1000.0 * scale - row.clocks).abs() / row.clocks < 1e-12);
    }

    #[test]
    fn measurement_handles_zero_denominators() {
        let m = meas(SimStats::default(), SimStats::default());
        assert_eq!(m.offloaded_per_block(), 0);
        assert_eq!(m.pct_mmx_instr(), 0.0);
        assert_eq!(m.pct_total_instr(), 0.0);
    }

    #[test]
    fn sched_deltas_read_scheduled_minus_unscheduled() {
        let mut m = meas(
            SimStats { cycles: 1000, pairs: 100, singles: 300, ..Default::default() },
            SimStats { cycles: 800, pairs: 100, singles: 200, ..Default::default() },
        );
        m.sched_baseline.per_block =
            SimStats { cycles: 900, pairs: 150, singles: 200, ..Default::default() };
        m.sched_spu.per_block =
            SimStats { cycles: 750, pairs: 130, singles: 140, ..Default::default() };
        let r = m.record();
        assert_eq!(r.sched_baseline_cycles_saved(), 100);
        assert_eq!(r.sched_spu_cycles_saved(), 50);
        // Pair rate: 150/350 vs 100/400.
        assert!((r.sched_baseline_pair_rate_gain() - (150.0 / 350.0 - 0.25)).abs() < 1e-12);
        assert!(r.sched_spu_pair_rate_gain() > 0.0);
    }
}
