//! Micro-benchmarks of the substrates: packed-arithmetic evaluation,
//! crossbar routing, controller stepping, simulator issue rate, and the
//! lifting pass itself.
//!
//! ```text
//! cargo bench -p subword-bench --bench micro
//! ```
//!
//! Each benchmark repeats its body in batches of at least ~1 ms and
//! prints the median per-iteration time of [`SAMPLES`] batches (plus a
//! rate where the body has a natural element count).

use std::hint::black_box;
use std::time::{Duration, Instant};
use subword_compile::lift_permutes;
use subword_isa::asm::assemble;
use subword_isa::op::MmxOp;
use subword_isa::semantics;
use subword_kernels::suite::paper_suite;
use subword_sim::{Machine, MachineConfig};
use subword_spu::controller::SpuController;
use subword_spu::{ByteRoute, SpuProgram, SHAPE_A, SHAPE_D};

const SAMPLES: usize = 10;

/// Time `f` and print its median per-iteration cost; `elements` is the
/// work one call does, for a throughput column.
fn bench<O>(name: &str, elements: Option<u64>, mut f: impl FnMut() -> O) {
    let batch = |iters: u64, f: &mut dyn FnMut() -> O| {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        t.elapsed()
    };
    let mut iters = 1u64;
    while batch(iters, &mut f) < Duration::from_millis(1) && iters < 1 << 20 {
        iters *= 2;
    }
    let mut samples: Vec<Duration> = (0..SAMPLES).map(|_| batch(iters, &mut f)).collect();
    samples.sort();
    let per_iter = samples[SAMPLES / 2] / iters as u32;
    let rate = match elements {
        Some(n) if per_iter > Duration::ZERO => {
            format!("  ({:.1} Melem/s)", n as f64 / per_iter.as_secs_f64() / 1e6)
        }
        _ => String::new(),
    };
    println!("{name:<40} time: [{per_iter:?}]{rate}");
}

fn main() {
    bench("semantics/eval-all-ops", Some(MmxOp::ALL.len() as u64), || {
        let mut acc = 0u64;
        for op in MmxOp::ALL {
            acc ^= semantics::eval(op, 0x0123_4567_89ab_cdef, 0x0f0f_0f0f_0f0f_0f0f);
        }
        acc
    });

    let file: [u8; 64] = std::array::from_fn(|i| i as u8);
    let route = ByteRoute([63, 0, 17, 42, 5, 33, 8, 1]);
    bench("crossbar/apply", None, || route.apply(black_box(&file)));

    let route = ByteRoute::identity(subword_isa::reg::MmReg::MM0);
    let prog = SpuProgram::single_loop(
        "bench",
        &[(Some(route), None), (None, None), (None, None)],
        1_000_000,
    );
    let mut ctl = SpuController::new(SHAPE_D);
    ctl.load_program(0, &prog).unwrap();
    ctl.activate();
    bench("controller/step", None, || {
        if !ctl.is_active() {
            ctl.activate();
        }
        ctl.on_issue()
    });

    let p = assemble(
        "issue",
        "mov r0, 1000\nl:\n paddw mm0, mm1\n psubw mm2, mm3\n pxor mm4, mm5\n sub r0, 1\n jnz l\n halt\n",
    )
    .unwrap();
    bench("simulator/issue-rate", Some(5_000), || {
        let mut m = Machine::new(MachineConfig::mmx_only());
        m.run(&p).unwrap().instructions
    });

    let build = paper_suite()[7].kernel.build(1); // transpose
    bench("compile/lift-transpose", None, || {
        lift_permutes(&build.program, &SHAPE_A).unwrap().report.removed_static
    });
}
