//! Differential verification: run the baseline and the transformed
//! program on fresh machines and compare the declared outputs.

use subword_isa::program::Program;
use subword_isa::reg::{GpReg, MmReg};
use subword_sim::{Machine, MachineConfig, SimStats};
use subword_spu::crossbar::CrossbarShape;

/// Initial state and observable outputs for a differential run.
#[derive(Clone, Debug, Default)]
pub struct TestSetup {
    /// `(address, bytes)` memory images.
    pub mem_init: Vec<(u32, Vec<u8>)>,
    /// Initial scalar registers.
    pub reg_init: Vec<(GpReg, u32)>,
    /// Initial MMX registers.
    pub mm_init: Vec<(MmReg, u64)>,
    /// `(address, length)` ranges compared after the runs.
    pub outputs: Vec<(u32, usize)>,
}

impl TestSetup {
    /// Load the initial memory images and registers into `m`. Fails on
    /// a memory image that does not fit the machine's memory.
    pub fn apply(&self, m: &mut Machine) -> Result<(), String> {
        for (addr, bytes) in &self.mem_init {
            m.mem
                .write_bytes(*addr, bytes)
                .map_err(|_| format!("mem_init at {addr:#x} out of range"))?;
        }
        for (r, v) in &self.reg_init {
            m.regs.write_gp(*r, *v);
        }
        for (r, v) in &self.mm_init {
            m.regs.write_mm(*r, *v);
        }
        Ok(())
    }
}

/// Outcome of a differential run: both runs' statistics.
#[derive(Clone, Copy, Debug)]
pub struct DiffStats {
    /// Baseline (MMX-only machine).
    pub baseline: SimStats,
    /// Transformed (SPU-fitted machine).
    pub transformed: SimStats,
}

impl DiffStats {
    /// Cycle speedup of the transformed variant (baseline / transformed).
    pub fn speedup(&self) -> f64 {
        self.baseline.cycles as f64 / self.transformed.cycles as f64
    }

    /// Dynamic realignment instructions off-loaded (the Table 3
    /// "cycles overlapped" quantity).
    pub fn realignments_removed(&self) -> u64 {
        self.baseline.mmx_realignments.saturating_sub(self.transformed.mmx_realignments)
    }
}

/// Run `baseline` on an MMX-only machine and `transformed` on an
/// SPU-fitted machine (shape `shape`); compare every output range
/// byte for byte.
///
/// The transformed program must be self-contained (MMIO setup prologue +
/// GO stores), which is what [`crate::lift_permutes`] emits.
pub fn differential(
    baseline: &Program,
    transformed: &Program,
    shape: &CrossbarShape,
    setup: &TestSetup,
) -> Result<DiffStats, String> {
    let mut m0 = Machine::new(MachineConfig::mmx_only());
    setup.apply(&mut m0)?;
    let s0 = m0.run(baseline).map_err(|e| format!("baseline fault: {e}"))?;

    let mut m1 = Machine::new(MachineConfig::with_spu(*shape));
    setup.apply(&mut m1)?;
    let s1 = m1.run(transformed).map_err(|e| format!("transformed fault: {e}"))?;

    for (addr, len) in &setup.outputs {
        let a = m0.mem.read_bytes(*addr, *len).map_err(|_| "output range oob".to_string())?;
        let b = m1.mem.read_bytes(*addr, *len).map_err(|_| "output range oob".to_string())?;
        if a != b {
            let off = a.iter().zip(b).position(|(x, y)| x != y).unwrap();
            return Err(format!(
                "output mismatch at {:#x}+{off}: baseline {:#04x} vs transformed {:#04x}",
                addr, a[off], b[off]
            ));
        }
    }
    Ok(DiffStats { baseline: s0, transformed: s1 })
}
