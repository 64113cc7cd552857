use fits_isa::alu::Flags;
use fits_isa::{Reg, STACK_TOP};

use crate::{Memory, SimError};

/// The architectural register state shared by all executors: sixteen GPRs
/// and the NZCV flags. The PC is tracked by the machine, not stored in
/// `regs[15]`; reading `r15` through [`ExecCtx::read_reg`] yields the
/// ARM-visible `PC + 8`.
#[derive(Clone, Debug)]
pub struct CpuState {
    /// General-purpose registers `r0`–`r14` (`r15`'s slot is unused).
    pub regs: [u32; 16],
    /// Condition flags.
    pub flags: Flags,
}

impl CpuState {
    /// Fresh state: all registers zero except `sp`, which starts at the top
    /// of the stack.
    #[must_use]
    pub fn new() -> CpuState {
        let mut regs = [0u32; 16];
        regs[Reg::SP.index() as usize] = STACK_TOP;
        CpuState {
            regs,
            flags: Flags::default(),
        }
    }
}

impl Default for CpuState {
    fn default() -> Self {
        CpuState::new()
    }
}

/// A single data-memory access performed by an instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective address.
    pub addr: u32,
    /// Width in bytes (1, 2 or 4).
    pub size: u32,
    /// Whether the access reads memory.
    pub is_load: bool,
    /// The data moved (used for toggle accounting).
    pub data: u32,
}

/// What executing one instruction did, as reported by an executor to the
/// machine loop.
#[derive(Clone, Copy, Debug)]
pub struct StepOutcome {
    /// Whether the condition passed and the instruction had effect.
    pub executed: bool,
    /// The next PC (sequential or redirected).
    pub next_pc: u32,
    /// Data access, if any.
    pub mem: Option<MemAccess>,
    /// Set when the instruction was an exit trap: the exit code.
    pub exit: Option<u32>,
    /// Set when the instruction was an emit trap: the emitted word, mixed
    /// into the run's output checksum by the machine.
    pub emit: Option<u32>,
    /// For branches: whether the branch was taken and whether it points
    /// backwards (for static-prediction accounting).
    pub branch: Option<BranchOutcome>,
    /// Whether a multiply unit was used.
    pub is_mul: bool,
}

impl StepOutcome {
    /// The trace byte [`crate::Machine::run_recorded`] stores for a step
    /// with this outcome: executed, memory, load, branch, taken and
    /// backward bits. The differential tests compare it against the
    /// lowered executor's [`crate::LoweredStep::trace_flags`].
    #[must_use]
    pub fn trace_flags(&self) -> u8 {
        use crate::lower::{F_BACKWARD, F_BRANCH, F_EXECUTED, F_MEM, F_MEM_LOAD, F_TAKEN};
        let mut f = 0u8;
        if self.executed {
            f |= F_EXECUTED;
        }
        if let Some(mem) = &self.mem {
            f |= F_MEM;
            if mem.is_load {
                f |= F_MEM_LOAD;
            }
        }
        if let Some(branch) = &self.branch {
            f |= F_BRANCH;
            if branch.taken {
                f |= F_TAKEN;
            }
            if branch.backward {
                f |= F_BACKWARD;
            }
        }
        f
    }
}

/// Branch resolution details.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchOutcome {
    /// Whether the branch redirected the PC.
    pub taken: bool,
    /// Whether the (static) target lies at a lower address than the branch.
    pub backward: bool,
}

/// Execution context handed to an [`crate::InstrSet`]'s `execute`: the
/// register file, data memory and the current PC.
pub struct ExecCtx<'a> {
    /// Register and flag state.
    pub cpu: &'a mut CpuState,
    /// Data memory.
    pub mem: &'a mut Memory,
    /// Address of the executing instruction.
    pub pc: u32,
}

impl ExecCtx<'_> {
    /// Reads a register with ARM PC semantics: `r15` reads as `PC + 8`.
    #[must_use]
    pub fn read_reg(&self, r: Reg) -> u32 {
        if r.is_pc() {
            self.pc.wrapping_add(8)
        } else {
            self.cpu.regs[r.index() as usize]
        }
    }

    /// Writes a register. Writing the PC is handled by the executor (it
    /// redirects control); this helper only stores to `r0`–`r14`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is the PC — executors must intercept PC writes.
    pub fn write_reg(&mut self, r: Reg, value: u32) {
        assert!(!r.is_pc(), "PC writes must be handled as control flow");
        self.cpu.regs[r.index() as usize] = value;
    }

    /// Performs a data-memory load of `size` bytes (sign-extending when
    /// `signed` is set), returning the value.
    ///
    /// # Errors
    ///
    /// Propagates alignment/range errors from [`Memory`].
    pub fn load(&mut self, addr: u32, size: u32, signed: bool) -> Result<u32, SimError> {
        let raw = match size {
            4 => self.mem.load_w(addr)?,
            2 => self.mem.load_h(addr)?,
            1 => self.mem.load_b(addr)?,
            _ => unreachable!("load size {size}"),
        };
        Ok(match (size, signed) {
            (2, true) => raw as u16 as i16 as i32 as u32,
            (1, true) => raw as u8 as i8 as i32 as u32,
            _ => raw,
        })
    }

    /// Performs a data-memory store of `size` bytes.
    ///
    /// # Errors
    ///
    /// Propagates alignment/range errors from [`Memory`].
    pub fn store(&mut self, addr: u32, size: u32, value: u32) -> Result<(), SimError> {
        match size {
            4 => self.mem.store_w(addr, value),
            2 => self.mem.store_h(addr, value),
            1 => self.mem.store_b(addr, value),
            _ => unreachable!("store size {size}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_has_stack_pointer() {
        let cpu = CpuState::new();
        assert_eq!(cpu.regs[13], STACK_TOP);
        assert_eq!(cpu.regs[0], 0);
        assert!(!cpu.flags.z);
    }

    #[test]
    fn pc_reads_as_plus_eight() {
        let mut cpu = CpuState::new();
        let mut mem = Memory::with_data(&[]);
        let ctx = ExecCtx {
            cpu: &mut cpu,
            mem: &mut mem,
            pc: 0x8000,
        };
        assert_eq!(ctx.read_reg(Reg::PC), 0x8008);
        assert_eq!(ctx.read_reg(Reg::R0), 0);
    }

    #[test]
    fn signed_loads_extend() {
        let mut cpu = CpuState::new();
        let mut mem = Memory::with_data(&[0xff, 0x7f, 0x80, 0xff]);
        let mut ctx = ExecCtx {
            cpu: &mut cpu,
            mem: &mut mem,
            pc: 0,
        };
        let base = fits_isa::DATA_BASE;
        assert_eq!(ctx.load(base, 1, true).unwrap(), u32::MAX);
        assert_eq!(ctx.load(base + 1, 1, true).unwrap(), 0x7f);
        assert_eq!(ctx.load(base, 2, true).unwrap(), 0x7fff);
        assert_eq!(ctx.load(base + 2, 2, true).unwrap(), 0xffff_ff80);
        assert_eq!(ctx.load(base + 2, 2, false).unwrap(), 0xff80);
    }
}
