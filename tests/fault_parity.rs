//! Fault parity of the block loop: `Machine::run` and
//! `Machine::run_recorded` check the step budget once per block run and
//! execute lowered ops, yet every run that stops early must stop exactly
//! where the per-step oracle loop (`InstrSet::execute`, budget checked
//! before every fetch) stops — the same error, on the same step, with the
//! same registers, flags and memory.
//!
//! Covered for both instruction sets: `MaxSteps` at budgets one short of,
//! at, and one past a block entry and a block end, plus seeded random
//! budgets; and programs that fault with `BadAddress`, `Misaligned`,
//! `BadPc` and `UnknownSwi`, under the default budget and under budgets
//! around the faulting step.

#![allow(clippy::unwrap_used)]

use fits_rng::StdRng;
use powerfits::core::{FitsFlow, FitsProgram, FitsSet};
use powerfits::isa::{Cond, DpOp, Instr, MemOp, Operand2, Program, Reg, DATA_BASE, STACK_TOP};
use powerfits::kernels::kernels::{Kernel, Scale};
use powerfits::sim::{
    fold_emitted, Ar32Set, CompiledProgram, CpuState, ExecCtx, InstrSet, Machine, Memory,
    RunOutput, SimError, MAX_STEPS_DEFAULT,
};

/// Where a run stopped: its result and the architectural state.
struct Stop {
    result: Result<RunOutput, SimError>,
    cpu: CpuState,
    mem: Memory,
}

/// The per-step oracle loop: budget check, fetch, execute, retire.
/// Returns where it stopped and how many steps retired.
fn oracle<S: InstrSet>(set: &S, limit: u64) -> (Stop, u64) {
    let mut cpu = CpuState::new();
    let mut mem = Memory::with_data(set.initial_data());
    let mut pc = set.entry_pc();
    let mut emitted = Vec::new();
    let mut steps = 0;
    let result = loop {
        if steps >= limit {
            break Err(SimError::MaxSteps { limit });
        }
        let op = match set.op_at(pc) {
            Ok(op) => op,
            Err(e) => break Err(e),
        };
        let mut ctx = ExecCtx {
            cpu: &mut cpu,
            mem: &mut mem,
            pc,
        };
        let out = match set.execute(op, &mut ctx) {
            Ok(out) => out,
            Err(e) => break Err(e),
        };
        steps += 1;
        emitted.extend(out.emit);
        if let Some(code) = out.exit {
            break Ok(RunOutput {
                exit_code: code,
                emitted: fold_emitted(&emitted),
                steps,
            });
        }
        pc = out.next_pc;
    };
    (Stop { result, cpu, mem }, steps)
}

fn assert_same_stop(label: &str, want: &Stop, got: &Stop) {
    assert_eq!(want.result, got.result, "{label}: result");
    assert_eq!(want.cpu.regs, got.cpu.regs, "{label}: registers");
    assert_eq!(want.cpu.flags, got.cpu.flags, "{label}: flags");
    let whole = STACK_TOP as usize;
    assert!(
        want.mem.read_slice(0, whole).unwrap() == got.mem.read_slice(0, whole).unwrap(),
        "{label}: memory"
    );
}

/// Runs `set` under `limit` through the oracle, `Machine::run` and
/// `Machine::run_recorded`, and asserts all three stop alike.
fn check_limit<S: InstrSet + Clone>(set: &S, compiled: &CompiledProgram, limit: u64, label: &str) {
    let (want, _) = oracle(set, limit);
    let mut machine = Machine::new(set.clone());
    machine.set_step_limit(limit);
    let result = machine.run();
    let run = Stop {
        result,
        cpu: machine.cpu().clone(),
        mem: machine.memory().clone(),
    };
    assert_same_stop(&format!("{label}, limit {limit}, run"), &want, &run);
    let mut machine = Machine::new(set.clone());
    machine.set_step_limit(limit);
    let result = machine.run_recorded(compiled).map(|trace| trace.output);
    let recorded = Stop {
        result,
        cpu: machine.cpu().clone(),
        mem: machine.memory().clone(),
    };
    assert_same_stop(
        &format!("{label}, limit {limit}, run_recorded"),
        &want,
        &recorded,
    );
}

/// Budgets around the block runs of a full recording: one short of, at
/// and one past the first step of a run and its last, for a spread of
/// runs, plus seeded random budgets.
fn check_budgets<S: InstrSet + Clone>(set: &S, label: &str, seed: u64) {
    let compiled = CompiledProgram::compile(set).unwrap();
    let trace = Machine::new(set.clone()).run_recorded(&compiled).unwrap();
    let total = trace.output.steps;
    let entries = trace.entries();
    assert!(entries.len() > 8, "{label}: a looping program");
    let mut limits = Vec::new();
    let mut entry_step = 0u64;
    let picks = [
        0,
        1,
        2,
        3,
        entries.len() / 3,
        entries.len() / 2,
        entries.len() - 1,
    ];
    for (i, entry) in entries.iter().enumerate() {
        let len = u64::from(entry.len);
        if picks.contains(&i) {
            for at in [entry_step, entry_step + len] {
                limits.extend([at.saturating_sub(1), at, at + 1]);
            }
        }
        entry_step += len;
    }
    let mut r = StdRng::seed_from_u64(seed);
    limits.extend((0..8).map(|_| r.gen_range(0..total)));
    limits.push(total + 1);
    for limit in limits {
        check_limit(set, &compiled, limit, label);
    }
}

/// The FITS binary the verified flow produces for `program`.
fn fits_binary(program: &Program) -> FitsProgram {
    let flow = FitsFlow {
        min_static_rate: 0.0, // hand-written programs may map poorly
        ..FitsFlow::new()
    };
    flow.run(program).unwrap().fits
}

#[test]
fn max_steps_fires_on_the_oracle_step_around_block_boundaries() {
    for (i, kernel) in [Kernel::Crc32, Kernel::Qsort].into_iter().enumerate() {
        let program = kernel.compile(Scale::test()).unwrap();
        let seed = 0xb10c + i as u64;
        check_budgets(&Ar32Set::load(&program), &format!("{kernel} (AR32)"), seed);
        let fits = FitsSet::load(&fits_binary(&program)).unwrap();
        check_budgets(&fits, &format!("{kernel} (FITS)"), seed);
    }
}

fn imm(value: u32) -> Operand2 {
    Operand2::imm(value).unwrap()
}

fn swi(imm: u32) -> Instr {
    Instr::Swi {
        cond: Cond::Al,
        imm,
    }
}

/// A program that loops over a few stores, then runs `fault` — but only
/// when the data word at `DATA_BASE` is non-zero; with it zero the
/// program exits cleanly. The clean variant lets the FITS flow profile
/// and translate the program; the faulting path is then switched on by
/// patching the data image, which both binaries share.
fn guarded(fault: &[Instr]) -> Program {
    let mut text = vec![
        Instr::mov(Reg::R3, imm(DATA_BASE)),
        Instr::mov(Reg::R1, imm(10)),
        Instr::mov(Reg::R2, imm(0)),
        // loop: r2 += r1; [r3 + 8] = r2; r1 -= 1; bne loop
        Instr::dp(DpOp::Add, Reg::R2, Reg::R2, Operand2::reg(Reg::R1)),
        Instr::mem(MemOp::Str, Reg::R2, Reg::R3, 8),
        Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Sub,
            set_flags: true,
            rd: Reg::R1,
            rn: Reg::R1,
            op2: imm(1),
        },
        Instr::b(-5).with_cond(Cond::Ne),
        Instr::mem(MemOp::Ldr, Reg::R0, Reg::R3, 0),
        Instr::cmp(Reg::R0, imm(0)),
    ];
    // beq over the fault to the exit.
    text.push(Instr::b(fault.len() as i32 - 1).with_cond(Cond::Eq));
    text.extend_from_slice(fault);
    text.extend([Instr::mov(Reg::R0, Operand2::reg(Reg::R2)), swi(0)]);
    Program {
        text,
        data: vec![0; 16],
        ..Program::default()
    }
}

#[test]
fn faults_stop_where_the_oracle_stops() {
    let faults: [(&str, Vec<Instr>); 4] = [
        (
            "BadAddress",
            vec![
                Instr::mov(Reg::R4, Operand2::imm(0).unwrap()),
                Instr::dp(DpOp::Sub, Reg::R4, Reg::R4, imm(4)),
                Instr::mem(MemOp::Ldr, Reg::R5, Reg::R4, 0),
            ],
        ),
        (
            "Misaligned",
            vec![
                Instr::dp(DpOp::Add, Reg::R4, Reg::R3, imm(2)),
                Instr::mem(MemOp::Ldr, Reg::R5, Reg::R4, 0),
            ],
        ),
        (
            "BadPc",
            vec![
                Instr::mov(Reg::R4, imm(4)),
                Instr::mov(Reg::PC, Operand2::reg(Reg::R4)),
            ],
        ),
        ("UnknownSwi", vec![swi(7)]),
    ];
    for (kind, fault) in faults {
        let mut program = guarded(&fault);
        // The flow runs the clean variant and checks its FITS binary
        // against it before the fault is switched on in both.
        let mut binary = fits_binary(&program);
        program.data[0] = 1;
        binary.data[0] = 1;
        check_fault(&Ar32Set::load(&program), kind, &format!("{kind} (AR32)"));
        let fits = FitsSet::load(&binary).unwrap();
        check_fault(&fits, kind, &format!("{kind} (FITS)"));
    }
}

/// The oracle faults with `kind`; the machine must stop alike under the
/// default budget and under budgets around the faulting step.
fn check_fault<S: InstrSet + Clone>(set: &S, kind: &str, label: &str) {
    let compiled = CompiledProgram::compile(set).unwrap();
    let (want, at) = oracle(set, MAX_STEPS_DEFAULT);
    let err = want.result.as_ref().unwrap_err();
    assert!(
        format!("{err:?}").starts_with(kind),
        "{label}: oracle {err:?}"
    );
    for limit in [MAX_STEPS_DEFAULT, at - 1, at, at + 1] {
        check_limit(set, &compiled, limit, label);
    }
}
