//! The SotVM instruction set: a minimal fixed-semantics bytecode whose only
//! job is to carry control-flow structure through a realistic
//! assemble/disassemble round trip.
//!
//! Encoding is little-endian and instruction-length is determined by the
//! opcode:
//!
//! | opcode | mnemonic | length | layout |
//! |---|---|---|---|
//! | 0x00 | `nop` | 4 | `op, pad×3` |
//! | 0x01 | `alu` | 4 | `op, fn, regs(u16)` |
//! | 0x02 | `load` | 4 | `op, reg, off(u16)` |
//! | 0x03 | `store` | 4 | `op, reg, off(u16)` |
//! | 0x04 | `syscall` | 4 | `op, num, pad(u16)` |
//! | 0x05 | `call` | 4 | `op, pad, fnidx(u16)` |
//! | 0x10 | `jmp` | 8 | `op, pad×3, target(u32)` |
//! | 0x11 | `br` | 12 | `op, cond, pad(u16), taken(u32), nottaken(u32)` |
//! | 0x12 | `switch` | 4+4k | `op, k, pad(u16), target(u32)×k` |
//! | 0x20 | `ret` | 4 | `op, pad×3` |
//! | 0x21 | `halt` | 4 | `op, pad×3` |
//!
//! `br` carries both targets explicitly (like an LLVM `br`), so a basic
//! block is always a run of non-control instructions closed by exactly one
//! terminator — there is no fallthrough anywhere in the ISA, which keeps
//! block recovery exact.

use serde::{Deserialize, Serialize};

/// A decoded SotVM instruction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instruction {
    /// No operation.
    Nop,
    /// Register arithmetic; `func` selects the operation, `regs` packs the
    /// operand registers.
    Alu {
        /// ALU function selector.
        func: u8,
        /// Packed operand registers.
        regs: u16,
    },
    /// Memory load into `reg` from frame offset `offset`.
    Load {
        /// Destination register.
        reg: u8,
        /// Frame offset.
        offset: u16,
    },
    /// Memory store from `reg` to frame offset `offset`.
    Store {
        /// Source register.
        reg: u8,
        /// Frame offset.
        offset: u16,
    },
    /// System call `num` (the IoT flavor: socket/connect/exec/...).
    Syscall {
        /// System call number.
        num: u8,
    },
    /// Call into function-table entry `func_index`; returns to the next
    /// instruction, so it does not end a basic block.
    Call {
        /// Function table index.
        func_index: u16,
    },
    /// Unconditional jump to byte offset `target`.
    Jmp {
        /// Destination byte offset within the code section.
        target: u32,
    },
    /// Two-way conditional branch: to `taken` if condition `cond` holds,
    /// else to `not_taken`.
    Br {
        /// Condition selector.
        cond: u8,
        /// Destination if the condition holds.
        taken: u32,
        /// Destination otherwise.
        not_taken: u32,
    },
    /// Multi-way dispatch to one of `targets` (an indirect-jump table with
    /// the table inlined, as a dispatcher loop would produce).
    Switch {
        /// Destination byte offsets.
        targets: Vec<u32>,
    },
    /// Return from the program's single procedure.
    Ret,
    /// Stop the machine.
    Halt,
}

/// Error from [`Instruction::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte at the decode position is not a known opcode.
    BadOpcode(u8),
    /// The instruction extends past the end of the code section.
    Truncated,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::Truncated => write!(f, "instruction truncated at end of code"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl std::fmt::Display for Instruction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Instruction::Nop => write!(f, "nop"),
            Instruction::Alu { func, regs } => {
                write!(f, "alu.{func} r{}, r{}", regs & 0x7, (regs >> 3) & 0x7)
            }
            Instruction::Load { reg, offset } => write!(f, "load r{reg}, [{offset}]"),
            Instruction::Store { reg, offset } => write!(f, "store [{offset}], r{reg}"),
            Instruction::Syscall { num } => write!(f, "syscall {num}"),
            Instruction::Call { func_index } => write!(f, "call fn{func_index}"),
            Instruction::Jmp { target } => write!(f, "jmp {target:#x}"),
            Instruction::Br {
                cond,
                taken,
                not_taken,
            } => write!(f, "br r{}, {taken:#x}, {not_taken:#x}", cond % 8),
            Instruction::Switch { targets } => {
                write!(f, "switch [")?;
                for (i, t) in targets.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t:#x}")?;
                }
                write!(f, "]")
            }
            Instruction::Ret => write!(f, "ret"),
            Instruction::Halt => write!(f, "halt"),
        }
    }
}

impl Instruction {
    /// Encoded length in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Instruction::Jmp { .. } => 8,
            Instruction::Br { .. } => 12,
            Instruction::Switch { targets } => 4 + 4 * targets.len(),
            _ => 4,
        }
    }

    /// Whether this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instruction::Jmp { .. }
                | Instruction::Br { .. }
                | Instruction::Switch { .. }
                | Instruction::Ret
                | Instruction::Halt
        )
    }

    /// Control-flow successors (byte offsets) of a terminator; empty for
    /// `ret`/`halt` and for non-terminators.
    pub fn targets(&self) -> Vec<u32> {
        match self {
            Instruction::Jmp { target } => vec![*target],
            Instruction::Br {
                taken, not_taken, ..
            } => vec![*taken, *not_taken],
            Instruction::Switch { targets } => targets.clone(),
            _ => Vec::new(),
        }
    }

    /// Appends the encoding of `self` to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Instruction::Nop => out.extend_from_slice(&[0x00, 0, 0, 0]),
            Instruction::Alu { func, regs } => {
                out.push(0x01);
                out.push(*func);
                out.extend_from_slice(&regs.to_le_bytes());
            }
            Instruction::Load { reg, offset } => {
                out.push(0x02);
                out.push(*reg);
                out.extend_from_slice(&offset.to_le_bytes());
            }
            Instruction::Store { reg, offset } => {
                out.push(0x03);
                out.push(*reg);
                out.extend_from_slice(&offset.to_le_bytes());
            }
            Instruction::Syscall { num } => {
                out.extend_from_slice(&[0x04, *num, 0, 0]);
            }
            Instruction::Call { func_index } => {
                out.push(0x05);
                out.push(0);
                out.extend_from_slice(&func_index.to_le_bytes());
            }
            Instruction::Jmp { target } => {
                out.extend_from_slice(&[0x10, 0, 0, 0]);
                out.extend_from_slice(&target.to_le_bytes());
            }
            Instruction::Br {
                cond,
                taken,
                not_taken,
            } => {
                out.push(0x11);
                out.push(*cond);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&taken.to_le_bytes());
                out.extend_from_slice(&not_taken.to_le_bytes());
            }
            Instruction::Switch { targets } => {
                assert!(targets.len() <= u8::MAX as usize, "switch table too large");
                out.push(0x12);
                out.push(targets.len() as u8);
                out.extend_from_slice(&[0, 0]);
                for t in targets {
                    out.extend_from_slice(&t.to_le_bytes());
                }
            }
            Instruction::Ret => out.extend_from_slice(&[0x20, 0, 0, 0]),
            Instruction::Halt => out.extend_from_slice(&[0x21, 0, 0, 0]),
        }
    }

    /// Decodes one instruction at `offset` in `code`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadOpcode`] for an unknown opcode byte,
    /// [`DecodeError::Truncated`] if `code` ends mid-instruction.
    pub fn decode(code: &[u8], offset: usize) -> Result<Instruction, DecodeError> {
        let enc = Encoded::scan(code, offset)?;
        let [op, a, lo, hi] = enc.header;
        let b = u16::from_le_bytes([lo, hi]);
        Ok(match op {
            0x00 => Instruction::Nop,
            0x01 => Instruction::Alu { func: a, regs: b },
            0x02 => Instruction::Load { reg: a, offset: b },
            0x03 => Instruction::Store { reg: a, offset: b },
            0x04 => Instruction::Syscall { num: a },
            0x05 => Instruction::Call { func_index: b },
            0x10 => Instruction::Jmp {
                target: enc.target(0),
            },
            0x11 => Instruction::Br {
                cond: a,
                taken: enc.target(0),
                not_taken: enc.target(1),
            },
            0x12 => Instruction::Switch {
                targets: enc.targets().collect(),
            },
            0x20 => Instruction::Ret,
            0x21 => Instruction::Halt,
            other => unreachable!("opcode {other:#04x} passed scan but is not in the table"),
        })
    }
}

/// Longest possible encoding: a `switch` with 255 targets.
pub(crate) const MAX_ENCODED_LEN: usize = 4 + 4 * u8::MAX as usize;

/// The opcode table: for each known opcode, the number of 4-byte target
/// words after the 4-byte header (`None`: header byte 1 holds the count,
/// as for `switch`) and whether the opcode ends a basic block. Both
/// [`Instruction::decode`] and the lifter read encodings through
/// [`Encoded::scan`], so this is the only place an opcode's shape lives.
fn shape(op: u8) -> Option<(Option<u8>, bool)> {
    match op {
        0x00..=0x05 => Some((Some(0), false)),
        0x10 => Some((Some(1), true)),
        0x11 => Some((Some(2), true)),
        0x12 => Some((None, true)),
        0x20 | 0x21 => Some((Some(0), true)),
        _ => None,
    }
}

/// One instruction's encoding, read in place: its length, terminator flag
/// and branch targets, without building an [`Instruction`] or allocating
/// a target list.
#[derive(Debug)]
pub(crate) struct Encoded<'a> {
    header: [u8; 4],
    /// The little-endian target words after the header.
    words: &'a [u8],
    terminator: bool,
}

impl<'a> Encoded<'a> {
    /// Reads the encoding at `offset`, failing exactly as
    /// [`Instruction::decode`] does.
    pub(crate) fn scan(code: &'a [u8], offset: usize) -> Result<Self, DecodeError> {
        let Some(&[op, a, lo, hi]) = code.get(offset..offset + 4) else {
            return Err(DecodeError::Truncated);
        };
        let (count, terminator) = shape(op).ok_or(DecodeError::BadOpcode(op))?;
        let end = offset + 4 + 4 * usize::from(count.unwrap_or(a));
        let words = code.get(offset + 4..end).ok_or(DecodeError::Truncated)?;
        Ok(Encoded {
            header: [op, a, lo, hi],
            words,
            terminator,
        })
    }

    /// Encoded length in bytes.
    pub(crate) fn len(&self) -> usize {
        4 + self.words.len()
    }

    /// Whether this instruction ends a basic block.
    pub(crate) fn is_terminator(&self) -> bool {
        self.terminator
    }

    /// Control-flow successors (byte offsets), in encoding order.
    pub(crate) fn targets(&self) -> impl Iterator<Item = u32> + 'a {
        self.words
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
    }

    fn target(&self, i: usize) -> u32 {
        let w = &self.words[4 * i..4 * i + 4];
        u32::from_le_bytes([w[0], w[1], w[2], w[3]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<Instruction> {
        vec![
            Instruction::Nop,
            Instruction::Alu {
                func: 3,
                regs: 0x0102,
            },
            Instruction::Load { reg: 1, offset: 16 },
            Instruction::Store { reg: 2, offset: 32 },
            Instruction::Syscall { num: 42 },
            Instruction::Call { func_index: 7 },
            Instruction::Jmp { target: 0x100 },
            Instruction::Br {
                cond: 1,
                taken: 0x20,
                not_taken: 0x40,
            },
            Instruction::Switch {
                targets: vec![0x10, 0x20, 0x30],
            },
            Instruction::Ret,
            Instruction::Halt,
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for insn in all_variants() {
            let mut buf = Vec::new();
            insn.encode(&mut buf);
            assert_eq!(buf.len(), insn.encoded_len(), "{insn:?}");
            let back = Instruction::decode(&buf, 0).expect("decodes");
            assert_eq!(back, insn);
        }
    }

    #[test]
    fn round_trip_at_nonzero_offset() {
        let mut buf = vec![0xEE; 5]; // garbage prefix, decode at offset 5
        let insn = Instruction::Br {
            cond: 0,
            taken: 12,
            not_taken: 24,
        };
        insn.encode(&mut buf);
        assert_eq!(Instruction::decode(&buf, 5), Ok(insn));
    }

    #[test]
    fn terminators_are_exactly_the_control_flow_ops() {
        for insn in all_variants() {
            let expect = matches!(
                insn,
                Instruction::Jmp { .. }
                    | Instruction::Br { .. }
                    | Instruction::Switch { .. }
                    | Instruction::Ret
                    | Instruction::Halt
            );
            assert_eq!(insn.is_terminator(), expect, "{insn:?}");
        }
    }

    #[test]
    fn targets_enumerate_all_successors() {
        assert_eq!(Instruction::Jmp { target: 9 }.targets(), vec![9]);
        assert_eq!(
            Instruction::Br {
                cond: 0,
                taken: 1,
                not_taken: 2
            }
            .targets(),
            vec![1, 2]
        );
        assert_eq!(
            Instruction::Switch {
                targets: vec![4, 5, 6]
            }
            .targets(),
            vec![4, 5, 6]
        );
        assert!(Instruction::Ret.targets().is_empty());
        assert!(Instruction::Nop.targets().is_empty());
    }

    #[test]
    fn bad_opcode_is_reported() {
        assert_eq!(
            Instruction::decode(&[0xFF, 0, 0, 0], 0),
            Err(DecodeError::BadOpcode(0xFF))
        );
    }

    #[test]
    fn truncated_instruction_is_reported() {
        // A jmp header with only 2 of its 4 target bytes present.
        assert_eq!(
            Instruction::decode(&[0x10, 0, 0, 0, 1, 0], 0),
            Err(DecodeError::Truncated)
        );
        // A header cut short.
        assert_eq!(Instruction::decode(&[0x00], 0), Err(DecodeError::Truncated));
    }

    #[test]
    fn display_is_assembly_like() {
        assert_eq!(Instruction::Nop.to_string(), "nop");
        assert_eq!(Instruction::Syscall { num: 9 }.to_string(), "syscall 9");
        assert_eq!(Instruction::Jmp { target: 16 }.to_string(), "jmp 0x10");
        assert_eq!(
            Instruction::Br {
                cond: 1,
                taken: 4,
                not_taken: 8
            }
            .to_string(),
            "br r1, 0x4, 0x8"
        );
        assert_eq!(
            Instruction::Switch {
                targets: vec![4, 8]
            }
            .to_string(),
            "switch [0x4, 0x8]"
        );
        assert_eq!(
            Instruction::Load { reg: 2, offset: 16 }.to_string(),
            "load r2, [16]"
        );
    }

    #[test]
    fn empty_switch_is_representable() {
        let insn = Instruction::Switch { targets: vec![] };
        let mut buf = Vec::new();
        insn.encode(&mut buf);
        assert_eq!(buf.len(), 4);
        assert_eq!(Instruction::decode(&buf, 0), Ok(insn));
    }
}
