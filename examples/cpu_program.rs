//! Program-correctness proof on a tiny CPU with embedded instruction and
//! data memories — the paper's "software programs" workload family.
//!
//! A loader writes a summation program into the instruction memory, the
//! CPU executes it, and BMC-3 with EMM proves that the accumulator at HALT
//! always equals the value the reference emulator predicts. The
//! any-program variant then proves halt-stickiness over *every possible
//! program* (the instruction memory is arbitrary-initialized symbolic
//! state, kept consistent across fetches by the paper's eq. (6)).
//!
//! Run with: `cargo run --release --example cpu_program`

use emm_verif::bmc::{BmcEngine, BmcVerdict, VerifyOptions};
use emm_verif::designs::cpu::{emulate, CpuConfig, Instr, Op, TinyCpu};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = CpuConfig {
        imem_addr_width: 3,
        dmem_addr_width: 2,
        data_width: 4,
    };
    // acc = 5; dmem[1] = acc; acc += dmem[1]  (acc = 10 = 0xA); halt.
    let program = vec![
        Instr {
            op: Op::Ldi,
            arg: 5,
        },
        Instr {
            op: Op::Store,
            arg: 1,
        },
        Instr {
            op: Op::Add,
            arg: 1,
        },
        Instr {
            op: Op::Halt,
            arg: 0,
        },
    ];
    let expected = emulate(&config, &program, &[], 100);
    println!(
        "emulator: acc = {} after {} cycles (halted: {})",
        expected.acc, expected.cycles, expected.halted
    );

    let cpu = TinyCpu::with_program(config, &program, expected.acc);
    println!("cpu design: {}", cpu.design.stats());

    // Prove the result property: whenever the CPU halts, acc == expected.
    let prop = cpu.result_correct.expect("concrete program").0 as usize;
    let bound = cpu.load_cycles + expected.cycles + 24;
    let mut engine = BmcEngine::new(&cpu.design, VerifyOptions::default().proofs(true));
    match engine.check(prop, bound)?.verdict {
        BmcVerdict::Proof { kind, depth } => {
            println!("result_correct proved by {kind:?} at depth {depth}");
        }
        other => panic!("unexpected verdict: {other:?}"),
    }

    // Any-program mode: halt is sticky for every program.
    let any = TinyCpu::any_program(config);
    let mut engine = BmcEngine::new(&any.design, VerifyOptions::default().proofs(true));
    match engine.check(any.halt_sticky.0 as usize, 32)?.verdict {
        BmcVerdict::Proof { kind, depth } => {
            println!("halt_sticky proved over ALL programs by {kind:?} at depth {depth}");
        }
        other => panic!("unexpected verdict: {other:?}"),
    }
    Ok(())
}
