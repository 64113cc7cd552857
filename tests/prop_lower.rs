//! Per-form differential of the lowered executor: seeded random ops over
//! every form — all conditions, every operand2 and shift form (register
//! shifts included), pre/post/writeback addressing, signed byte/halfword
//! loads, `mla`, `swi`, and the FITS extras (wide immediates, wide
//! displacements, `jalr`) — each executed once by the per-step oracle
//! (`execute_instr` / `FitsSet::execute`) and once by its lowered form
//! (`LoweredOp::step`) from the same random register, flag and memory
//! state. Base registers sometimes point outside the memory image or
//! misaligned into the data segment, so faults are covered too.
//!
//! Both must agree on registers, flags, memory, the next PC, the trace
//! byte and memory record the recorder would store, and the error. The
//! IR-compiler programs of `tests/common` reach only the forms the
//! compiler emits, so they cannot cover these.

#![allow(clippy::unwrap_used)]

use fits_rng::StdRng;
use powerfits::core::{DecoderConfig, Dictionaries, FitsOp, FitsProgram, FitsSet, RegMap};
use powerfits::isa::{
    AddrOffset, Cond, DpOp, Index, Instr, MemOp, Operand2, Reg, RotImm, Shift, ShiftKind,
    DATA_BASE, STACK_TOP, TEXT_BASE,
};
use powerfits::sim::{
    execute_instr, CpuState, ExecCtx, InstrSet, LoweredOp, LoweredStep, Memory, SimError,
    StepOutcome,
};

const CASES: usize = 3_000;

/// Bytes of initialized data: the interesting part of memory.
const DATA_BYTES: usize = 64;

fn arb_reg(r: &mut StdRng) -> Reg {
    Reg::new(r.gen_range(0..16u8))
}

fn arb_cond(r: &mut StdRng) -> Cond {
    // Half the draws unconditional, so executed forms dominate.
    if r.gen() {
        Cond::Al
    } else {
        Cond::from_bits(r.gen_range(0..16u8))
    }
}

fn arb_shift_kind(r: &mut StdRng) -> ShiftKind {
    ShiftKind::from_bits(r.gen_range(0..4u8))
}

fn arb_shift(r: &mut StdRng) -> Shift {
    match r.gen_range(0..6u8) {
        0 => Shift::NONE,
        1 => Shift::Imm(ShiftKind::Lsl, r.gen_range(1..32u8)),
        2 => Shift::Imm(ShiftKind::Lsr, r.gen_range(1..=32u8)),
        3 => Shift::Imm(ShiftKind::Asr, r.gen_range(1..=32u8)),
        4 => Shift::Imm(ShiftKind::Ror, r.gen_range(1..32u8)),
        _ => Shift::Reg(arb_shift_kind(r), arb_reg(r)),
    }
}

fn arb_op2(r: &mut StdRng) -> Operand2 {
    if r.gen() {
        Operand2::Imm(RotImm::from_fields(r.gen(), r.gen_range(0..16u8)))
    } else {
        Operand2::Reg(arb_reg(r), arb_shift(r))
    }
}

const MEM_OPS: [MemOp; 8] = [
    MemOp::Ldr,
    MemOp::Str,
    MemOp::Ldrb,
    MemOp::Strb,
    MemOp::Ldrh,
    MemOp::Strh,
    MemOp::Ldrsb,
    MemOp::Ldrsh,
];

fn arb_mem_op(r: &mut StdRng) -> MemOp {
    MEM_OPS[r.gen_range(0..MEM_OPS.len())]
}

fn arb_mem(r: &mut StdRng) -> Instr {
    let op = arb_mem_op(r);
    let index = match r.gen_range(0..3u8) {
        0 => Index::PreNoWb,
        1 => Index::PreWb,
        _ => Index::Post,
    };
    let offset = match r.gen_range(0..4u8) {
        0 => AddrOffset::Imm(r.gen_range(-16..=16)),
        1 => AddrOffset::Imm(r.gen_range(-4095..=4095)),
        2 => AddrOffset::Reg {
            rm: arb_reg(r),
            shift: Shift::NONE,
            subtract: r.gen(),
        },
        // Any shift, register shifts included: the executors reject
        // those with a typed error.
        _ => AddrOffset::Reg {
            rm: arb_reg(r),
            shift: arb_shift(r),
            subtract: r.gen(),
        },
    };
    Instr::Mem {
        cond: arb_cond(r),
        op,
        rd: arb_reg(r),
        rn: arb_reg(r),
        offset,
        index,
    }
}

fn arb_instr(r: &mut StdRng) -> Instr {
    match r.gen_range(0..8u8) {
        0..=2 => {
            let op = DpOp::from_bits(r.gen_range(0..16u8));
            Instr::Dp {
                cond: arb_cond(r),
                op,
                set_flags: r.gen(),
                rd: arb_reg(r),
                rn: arb_reg(r),
                op2: arb_op2(r),
            }
        }
        3 | 4 => arb_mem(r),
        5 => Instr::Mul {
            cond: arb_cond(r),
            set_flags: r.gen(),
            rd: arb_reg(r),
            rm: arb_reg(r),
            rs: arb_reg(r),
            acc: r.gen::<bool>().then(|| arb_reg(r)),
        },
        6 => Instr::Branch {
            cond: arb_cond(r),
            link: r.gen(),
            offset: r.gen_range(-64..64),
        },
        // Exit, emit and unknown trap numbers.
        _ => Instr::Swi {
            cond: arb_cond(r),
            imm: r.gen_range(0..4u32),
        },
    }
}

fn arb_fits_op(r: &mut StdRng) -> FitsOp {
    match r.gen_range(0..4u8) {
        0 => FitsOp::Plain(arb_instr(r)),
        1 => FitsOp::WideImm {
            op: DpOp::from_bits(r.gen_range(0..16u8)),
            set_flags: r.gen(),
            rd: arb_reg(r),
            rn: arb_reg(r),
            imm: r.gen(),
        },
        2 => FitsOp::WideMem {
            op: arb_mem_op(r),
            rd: arb_reg(r),
            rb: arb_reg(r),
            disp: if r.gen() {
                r.gen_range(-16..=16)
            } else {
                r.gen()
            },
        },
        _ => FitsOp::Jalr(arb_reg(r)),
    }
}

/// A register value: often an address in, near or outside the data
/// segment (aligned or not), a text address, or a shift amount around the
/// barrel shifter's edges (0, 32 and past it), else anything.
fn arb_value(r: &mut StdRng) -> u32 {
    match r.gen_range(0..7u8) {
        0 => DATA_BASE + r.gen_range(0..DATA_BYTES as u32),
        1 => DATA_BASE + 4 * r.gen_range(0..(DATA_BYTES / 4) as u32),
        2 => STACK_TOP - r.gen_range(0..8u32),
        3 => TEXT_BASE + 2 * r.gen_range(0..64u32),
        4 => r.gen_range(0..8u32),
        5 => r.gen_range(0..40u32) | r.gen::<u32>() << 8,
        _ => r.gen(),
    }
}

/// A random register file, flags and data image.
fn arb_state(r: &mut StdRng) -> (CpuState, Vec<u8>) {
    let mut cpu = CpuState::new();
    for reg in &mut cpu.regs[..15] {
        *reg = arb_value(r);
    }
    cpu.flags.n = r.gen();
    cpu.flags.z = r.gen();
    cpu.flags.c = r.gen();
    cpu.flags.v = r.gen();
    let data = (0..DATA_BYTES).map(|_| r.gen::<u8>()).collect();
    (cpu, data)
}

/// One oracle step and one lowered step from the same state, compared on
/// everything either can observe.
fn check_step(
    label: &str,
    pc: u32,
    op_size: u32,
    (cpu, data): &(CpuState, Vec<u8>),
    oracle: impl FnOnce(&mut ExecCtx<'_>) -> Result<StepOutcome, SimError>,
    lowered: impl FnOnce(&mut ExecCtx<'_>) -> Result<LoweredStep, SimError>,
) {
    let (mut cpu_o, mut mem_o) = (cpu.clone(), Memory::with_data(data));
    let (mut cpu_l, mut mem_l) = (cpu.clone(), Memory::with_data(data));
    let want = oracle(&mut ExecCtx {
        cpu: &mut cpu_o,
        mem: &mut mem_o,
        pc,
    });
    let got = lowered(&mut ExecCtx {
        cpu: &mut cpu_l,
        mem: &mut mem_l,
        pc,
    });
    match (want, got) {
        (Ok(want), Ok(got)) => {
            let next_pc = got.jump.unwrap_or(pc.wrapping_add(op_size));
            assert_eq!(want.next_pc, next_pc, "{label}: next pc");
            assert_eq!(want.trace_flags(), got.trace_flags, "{label}: trace byte");
            let mem = want.mem.map(|m| (m.addr, m.data));
            assert_eq!(mem, got.mem, "{label}: memory record");
            assert_eq!(want.exit, got.exit, "{label}: exit");
            assert_eq!(want.emit, got.emit, "{label}: emit");
        }
        (Err(want), Err(got)) => assert_eq!(want, got, "{label}: error"),
        (want, got) => panic!("{label}: oracle {want:?}, lowered {got:?}"),
    }
    assert_eq!(cpu_o.regs, cpu_l.regs, "{label}: registers");
    assert_eq!(cpu_o.flags, cpu_l.flags, "{label}: flags");
    let whole = STACK_TOP as usize;
    assert!(
        mem_o.read_slice(0, whole).unwrap() == mem_l.read_slice(0, whole).unwrap(),
        "{label}: memory"
    );
}

/// Every AR32 form, at both op sizes it executes at: 4 bytes natively,
/// 2 bytes as a FITS plain micro-op.
#[test]
fn lowered_ar32_forms_match_the_oracle() {
    let mut r = StdRng::seed_from_u64(0x10_3e4);
    for case in 0..CASES {
        let instr = arb_instr(&mut r);
        let op_size = if r.gen() { 4 } else { 2 };
        let pc = TEXT_BASE + op_size * r.gen_range(0..256u32);
        let state = arb_state(&mut r);
        check_step(
            &format!("case {case}: {instr:?} at {pc:#x}/{op_size}"),
            pc,
            op_size,
            &state,
            |ctx| execute_instr(&instr, ctx, op_size),
            |ctx| LoweredOp::from_instr(&instr, pc, op_size).step(ctx),
        );
    }
}

/// Every FITS op form, plain micro-ops and extras alike, through the FITS
/// instruction set's own `execute` and `lower`.
#[test]
fn lowered_fits_forms_match_the_oracle() {
    // The executor reads nothing from the loaded binary, so an empty one
    // serves.
    let set = FitsSet::load(&FitsProgram {
        instrs: Vec::new(),
        data: Vec::new(),
        entry: 0,
        config: DecoderConfig {
            ops: Vec::new(),
            regs: RegMap::full(),
            dicts: Dictionaries::default(),
        },
    })
    .unwrap();
    let mut r = StdRng::seed_from_u64(0xf1_75);
    for case in 0..CASES {
        let op = arb_fits_op(&mut r);
        let pc = TEXT_BASE + 2 * r.gen_range(0..256u32);
        let state = arb_state(&mut r);
        check_step(
            &format!("case {case}: {op:?} at {pc:#x}"),
            pc,
            2,
            &state,
            |ctx| set.execute(&op, ctx),
            |ctx| set.lower(pc, &op).step(ctx),
        );
    }
}
