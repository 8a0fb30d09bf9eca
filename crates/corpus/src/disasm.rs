//! Lifting a SotVM [`Binary`] back to a [`Cfg`] — the reproduction's
//! stand-in for radare2.
//!
//! Lifting proceeds in three phases:
//!
//! 1. **Recursive descent** from the entry point: decode instruction runs,
//!    queueing every branch target as a *leader*.
//! 2. **Dead-code sweep**: a walk from offset 0 steps over decoded
//!    instructions and data ranges and stops at the first *gap*; the same
//!    descent runs from there, recovering unreachable code (injected
//!    sections, orphaned functions), and a gap that does not decode becomes
//!    4 bytes of data. The walk then continues — not from the gap, because
//!    a descent can decode code behind it, but from the earliest visited
//!    position whose step changed (DESIGN.md §5, "Determinism contract
//!    (lift)"). Trailing bytes after the declared code section are never
//!    lifted.
//! 3. **Block formation**: blocks start at leaders and end at the first
//!    terminator or the next leader (jumping into the middle of a block
//!    splits it, with an implicit continuation edge).
//!
//! All bookkeeping lives in tables indexed by code offset, so lifting does
//! no per-instruction allocation and no tree lookups.
//!
//! The resulting [`Cfg`] contains *all* recovered blocks. Soteria's feature
//! extraction then takes [`Cfg::reachable_subgraph`], which is exactly the
//! paper's "the features ignore non-executable parts of samples" property.

use crate::binary::Binary;
use crate::error::CorpusError;
use crate::isa::{Encoded, MAX_ENCODED_LEN};
use soteria_cfg::{BlockId, Cfg, CfgBuilder};
use std::collections::VecDeque;

#[cfg(test)]
mod reference;

/// A lifted binary: the full CFG (including dead code) plus bookkeeping
/// about what was recovered.
#[derive(Debug, Clone)]
pub struct Lifted {
    /// The recovered graph; includes unreachable blocks.
    pub cfg: Cfg,
    /// Number of blocks not reachable from the entry.
    pub dead_block_count: usize,
    /// Byte ranges of the code section that did not decode (treated as
    /// data).
    pub data_ranges: Vec<(u32, u32)>,
}

impl Lifted {
    /// The graph restricted to blocks reachable from the entry — the view
    /// Soteria extracts features from.
    pub fn reachable_cfg(&self) -> Cfg {
        self.cfg.reachable_subgraph().0
    }
}

/// Lifts `binary` to a CFG.
///
/// # Errors
///
/// Fails with [`CorpusError::Decode`] or [`CorpusError::BadBranchTarget`]
/// if *reachable* code is malformed. Undecodable *unreachable* bytes are
/// tolerated and reported as data ranges.
///
/// # Example
///
/// ```
/// use soteria_corpus::{disasm, Binary};
///
/// # fn main() -> Result<(), soteria_corpus::CorpusError> {
/// // jmp 8; ret  — two blocks.
/// let code = vec![0x10, 0, 0, 0, 8, 0, 0, 0, 0x20, 0, 0, 0];
/// let lifted = disasm::lift(&Binary::new(0, code))?;
/// assert_eq!(lifted.cfg.node_count(), 2);
/// assert_eq!(lifted.cfg.edge_count(), 1);
/// # Ok(())
/// # }
/// ```
pub fn lift(binary: &Binary) -> Result<Lifted, CorpusError> {
    let code = binary.code();
    soteria_resilience::chaos_point("corpus.lift", code.len() as u64);
    if code.is_empty() {
        return Err(CorpusError::BadImage("empty code section"));
    }
    let mut t = Tables::new(code);
    let entry = binary.entry();
    if (entry as usize) < code.len() {
        t.leaders.set(entry as usize);
    }
    // Phase 1: reachable code (strict).
    t.descend(&mut VecDeque::from([entry]), true)?;
    // Phase 2: dead-code sweep over gaps (lenient).
    t.sweep()?;
    // Phase 3: block formation.
    t.into_lifted(entry)
}

/// Set in a [`Tables::meta`] entry for an instruction that ends a block.
const TERMINATOR: u16 = 0x8000;

/// The lifter's state, every table indexed by code offset.
struct Tables<'a> {
    code: &'a [u8],
    /// Per byte: the encoded length of the instruction decoded there, with
    /// [`TERMINATOR`] set for block-ending opcodes; 0 if none was.
    meta: Vec<u16>,
    /// Offsets where an instruction was decoded.
    decoded: Bits,
    /// In-range branch targets, the entry and decoded gap starts.
    /// Out-of-range targets never enter the set: they are queued, and
    /// strict mode fails on them when they are popped.
    leaders: Bits,
    /// Decoded offsets in decode order.
    log: Vec<u32>,
    data_ranges: Vec<(u32, u32)>,
    /// Per byte: 1 + the index of the first data range covering it, 0 for
    /// none. Empty until the first range appears.
    data_index: Vec<u32>,
}

impl<'a> Tables<'a> {
    fn new(code: &'a [u8]) -> Self {
        Tables {
            code,
            meta: vec![0; code.len()],
            decoded: Bits::new(code.len()),
            leaders: Bits::new(code.len()),
            log: Vec::new(),
            data_ranges: Vec::new(),
            data_index: Vec::new(),
        }
    }

    /// Decodes instruction runs starting from every offset in `worklist`
    /// (FIFO), queueing newly found branch targets. Stops a run at a
    /// terminator or at an already-decoded offset. A malformed run or an
    /// out-of-range target aborts the lift when `strict` (reachable code)
    /// and is dropped otherwise, as real disassemblers do for dead code.
    fn descend(&mut self, worklist: &mut VecDeque<u32>, strict: bool) -> Result<(), CorpusError> {
        let code = self.code;
        while let Some(start) = worklist.pop_front() {
            if start as usize >= code.len() {
                if strict {
                    return Err(CorpusError::BadBranchTarget { target: start });
                }
                continue;
            }
            let mut off = start as usize;
            // `off` can reach `code.len()` after a final non-terminator;
            // decoding there reports the truncation.
            while self.meta.get(off).copied().unwrap_or(0) == 0 {
                let insn = match Encoded::scan(code, off) {
                    Ok(insn) => insn,
                    Err(source) if strict => {
                        return Err(CorpusError::Decode {
                            offset: off,
                            source,
                        })
                    }
                    Err(_) => break,
                };
                for t in insn.targets() {
                    if t as usize >= code.len() {
                        worklist.push_back(t);
                    } else if !self.leaders.get(t as usize) {
                        self.leaders.set(t as usize);
                        worklist.push_back(t);
                    }
                }
                let flag = if insn.is_terminator() { TERMINATOR } else { 0 };
                self.meta[off] = insn.len() as u16 | flag;
                self.decoded.set(off);
                self.log.push(off as u32);
                if insn.is_terminator() {
                    break;
                }
                off += insn.len();
            }
        }
        Ok(())
    }

    /// Length of the instruction decoded at `off` (0 if none).
    fn len_at(&self, off: usize) -> usize {
        usize::from(self.meta[off] & !TERMINATOR)
    }

    /// Where the sweep's walk goes from `off`: past the instruction decoded
    /// there, else to the end of the first data range covering it, else
    /// past the nearest decoded instruction starting below it if that one
    /// overlaps `off`. `None` means `off` is a gap. Only the *nearest*
    /// earlier start counts, so a short instruction decoded inside a long
    /// one uncovers the rest of the long one.
    fn step(&self, off: u32) -> Option<u32> {
        let i = off as usize;
        if self.meta[i] != 0 {
            return Some(off + self.len_at(i) as u32);
        }
        if let Some(&r) = self.data_index.get(i).filter(|&&r| r != 0) {
            return Some(self.data_ranges[r as usize - 1].1);
        }
        // A start further back than one maximal encoding cannot reach `off`.
        let at = self
            .decoded
            .last_in(i.saturating_sub(MAX_ENCODED_LEN - 1), i)?;
        let end = at + self.len_at(at);
        (end > i).then_some(end as u32)
    }

    /// Phase 2. Walks from offset 0 to the next gap, descends from it, and
    /// repeats until the walk leaves the code section. The reference
    /// re-walks from offset 0 after every gap; this walk keeps its visited
    /// positions (`path`, ascending) and resumes from the earliest one
    /// whose step the descent changed, which is where a re-walk would first
    /// diverge. A descent changes steps only within [`MAX_ENCODED_LEN`]
    /// bytes at or after an offset it decoded (that offset's own step, or
    /// the nearest-start rule of [`step`]), so only those positions are
    /// re-checked. A gap that becomes data changes no step that matters: a
    /// position whose range grew over the gap now steps exactly where the
    /// gap does (DESIGN.md §5, "Determinism contract (lift)").
    ///
    /// [`step`]: Tables::step
    fn sweep(&mut self) -> Result<(), CorpusError> {
        let len = self.code.len() as u32;
        let mut path: Vec<u32> = Vec::new();
        let mut worklist = VecDeque::new();
        let mut off = 0u32;
        loop {
            while off < len {
                path.push(off);
                match self.step(off) {
                    Some(next) => off = next,
                    None => break,
                }
            }
            if off >= len {
                return Ok(());
            }
            let (gap, k) = (off, path.len() - 1);
            let logged = self.log.len();
            self.leaders.set(gap as usize);
            worklist.push_back(gap);
            self.descend(&mut worklist, false)?;

            let mut resume = k;
            if self.meta[gap as usize] == 0 {
                // Nothing decoded: mark 4 bytes (one minimal instruction
                // slot) as data and move on.
                self.leaders.clear(gap as usize);
                self.mark_data(gap);
            } else {
                for &d in self.log[logged..].iter().filter(|&&d| d < gap) {
                    let reach = d.saturating_add(MAX_ENCODED_LEN as u32);
                    let mut i = path.partition_point(|&p| p < d);
                    while i < resume && path[i] < reach {
                        if self.step(path[i]) != Some(path[i + 1]) {
                            resume = i;
                        }
                        i += 1;
                    }
                }
            }
            off = path[resume];
            path.truncate(resume);
        }
    }

    /// Marks `[gap, gap + 4)` as data, merging with the last range when it
    /// ends at `gap`.
    fn mark_data(&mut self, gap: u32) {
        let end = gap.saturating_add(4).min(self.code.len() as u32);
        match self.data_ranges.last_mut() {
            Some((_, e)) if *e == gap => *e = end,
            _ => self.data_ranges.push((gap, end)),
        }
        if self.data_index.is_empty() {
            self.data_index = vec![0; self.code.len()];
        }
        let id = self.data_ranges.len() as u32;
        for slot in &mut self.data_index[gap as usize..end as usize] {
            if *slot == 0 {
                *slot = id;
            }
        }
    }

    /// Phase 3: one block per decoded leader, in address order.
    fn into_lifted(self, entry: u32) -> Result<Lifted, CorpusError> {
        let starts = self.leaders.and(&self.decoded);
        let block_of = |off: usize| starts.binary_search(&(off as u32)).ok().map(BlockId::new);
        let mut builder = CfgBuilder::with_capacity(starts.len());
        let mut edges: Vec<(BlockId, BlockId)> = Vec::new();
        for (id, &start) in starts.iter().enumerate() {
            let from = BlockId::new(id);
            let first = edges.len();
            let mut off = start as usize;
            let mut count = 0u32;
            loop {
                count += 1;
                if self.meta[off] & TERMINATOR != 0 {
                    let insn = Encoded::scan(self.code, off).expect("a decoded offset re-scans");
                    edges.extend(
                        insn.targets()
                            .filter_map(|t| block_of(t as usize))
                            .map(|to| (from, to)),
                    );
                    break;
                }
                off += self.len_at(off);
                if !self.decoded.get(off) {
                    // Dead-code run that fizzled out mid-stream: no
                    // successors.
                    break;
                }
                if self.leaders.get(off) {
                    // Split point: implicit continuation into the next block.
                    edges.extend(block_of(off).map(|to| (from, to)));
                    break;
                }
            }
            edges[first..].sort_unstable();
            builder.add_block(u64::from(start), count);
        }
        // Duplicates (a `br` with equal arms) sit next to each other.
        edges.dedup();
        for (from, to) in edges {
            builder.add_edge(from, to)?;
        }

        let entry_id =
            block_of(entry as usize).ok_or(CorpusError::BadImage("entry did not decode"))?;
        let cfg = builder.build(entry_id)?;
        let dead_block_count = cfg.reachable().iter().filter(|&&r| !r).count();
        Ok(Lifted {
            cfg,
            dead_block_count,
            data_ranges: self.data_ranges,
        })
    }
}

/// A fixed-size bitset over code offsets; reads past the end are `false`.
struct Bits(Vec<u64>);

impl Bits {
    fn new(len: usize) -> Self {
        Bits(vec![0; len.div_ceil(64)])
    }

    fn get(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 != 0)
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    /// The greatest set index in `lo..hi`, if any.
    fn last_in(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let (first, mut w) = (lo / 64, (hi - 1) / 64);
        let mut word = self.0[w] & (u64::MAX >> (63 - (hi - 1) % 64));
        loop {
            if w == first {
                word &= u64::MAX << (lo % 64);
            }
            if word != 0 {
                return Some(w * 64 + 63 - word.leading_zeros() as usize);
            }
            if w == first {
                return None;
            }
            w -= 1;
            word = self.0[w];
        }
    }

    /// The indices set in both `self` and `other`, ascending.
    fn and(&self, other: &Bits) -> Vec<u32> {
        let mut out = Vec::new();
        for (w, (&a, &b)) in self.0.iter().zip(&other.0).enumerate() {
            let mut x = a & b;
            while x != 0 {
                out.push((w * 64) as u32 + x.trailing_zeros());
                x &= x - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::reference::lift_checked as lift;
    use super::*;
    use crate::asm;
    use crate::isa::Instruction;

    fn roundtrip(cfg: &Cfg) -> Lifted {
        let lowered = asm::assemble(cfg);
        let lifted = lift(&lowered.binary).expect("lift");
        assert_eq!(lifted.cfg, lowered.laid_out, "round trip mismatch");
        lifted
    }

    #[test]
    fn round_trip_diamond() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 3);
        let l = b.add_block(0, 2);
        let r = b.add_block(0, 4);
        let x = b.add_block(0, 1);
        b.add_edge(e, l).unwrap();
        b.add_edge(e, r).unwrap();
        b.add_edge(l, x).unwrap();
        b.add_edge(r, x).unwrap();
        roundtrip(&b.build(e).unwrap());
    }

    #[test]
    fn round_trip_loops_and_switch() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 2);
        let d = b.add_block(0, 1); // dispatcher
        let c1 = b.add_block(0, 3);
        let c2 = b.add_block(0, 3);
        let c3 = b.add_block(0, 3);
        let x = b.add_block(0, 1);
        b.add_edge(e, d).unwrap();
        for c in [c1, c2, c3] {
            b.add_edge(d, c).unwrap();
            b.add_edge(c, d).unwrap(); // loop back
        }
        b.add_edge(d, x).unwrap();
        b.add_edge(x, x).unwrap(); // self-loop
        roundtrip(&b.build(e).unwrap());
    }

    #[test]
    fn lift_detects_dead_code() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 2);
        let g = b.build(e).unwrap();
        let mut lowered = asm::assemble(&g);
        let base = lowered.binary.code().len() as u32;
        let frag = asm::dead_fragment(base, 3);
        lowered.binary.append_dead_code(&frag);

        let lifted = lift(&lowered.binary).unwrap();
        assert_eq!(lifted.cfg.node_count(), 1 + 3);
        assert_eq!(lifted.dead_block_count, 3);
        // Reachable view is unchanged.
        assert_eq!(lifted.reachable_cfg().node_count(), 1);
    }

    #[test]
    fn trailing_bytes_are_never_lifted() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 2);
        let g = b.build(e).unwrap();
        let mut lowered = asm::assemble(&g);
        lowered
            .binary
            .append_trailing(&[0x20, 0, 0, 0, 0x20, 0, 0, 0]);
        let lifted = lift(&lowered.binary).unwrap();
        assert_eq!(lifted.cfg.node_count(), 1);
        assert_eq!(lifted.dead_block_count, 0);
    }

    #[test]
    fn undecodable_dead_bytes_become_data() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 1);
        let g = b.build(e).unwrap();
        let mut lowered = asm::assemble(&g);
        lowered.binary.append_dead_code(&[0xFF; 8]); // garbage
        let lifted = lift(&lowered.binary).unwrap();
        assert_eq!(lifted.cfg.node_count(), 1);
        assert!(!lifted.data_ranges.is_empty());
        let covered: u32 = lifted.data_ranges.iter().map(|(s, e)| e - s).sum();
        assert_eq!(covered, 8);
    }

    #[test]
    fn malformed_reachable_code_is_an_error() {
        // Entry points at garbage.
        let bin = Binary::new(0, vec![0xFF, 0, 0, 0]);
        assert!(matches!(
            lift(&bin),
            Err(CorpusError::Decode { offset: 0, .. })
        ));
    }

    #[test]
    fn reachable_branch_out_of_bounds_is_an_error() {
        // jmp 0x1000 with a 8-byte code section.
        let mut code = Vec::new();
        Instruction::Jmp { target: 0x1000 }.encode(&mut code);
        let bin = Binary::new(0, code);
        assert!(matches!(
            lift(&bin),
            Err(CorpusError::BadBranchTarget { target: 0x1000 })
        ));
    }

    #[test]
    fn jump_into_block_middle_splits_it() {
        // Block A: nop; nop; ret. Block B (dead) jumps to A's second nop.
        let mut code = Vec::new();
        Instruction::Nop.encode(&mut code); // 0
        Instruction::Nop.encode(&mut code); // 4
        Instruction::Ret.encode(&mut code); // 8
        Instruction::Jmp { target: 4 }.encode(&mut code); // 12, dead
        let lifted = lift(&Binary::new(0, code)).unwrap();
        // Blocks: [0..4) split head, [4..12) tail, [12..) dead jmp.
        assert_eq!(lifted.cfg.node_count(), 3);
        // Head has a continuation edge into the tail.
        let head = lifted
            .cfg
            .block_ids()
            .find(|&b| lifted.cfg.block(b).address() == 0)
            .unwrap();
        let tail = lifted
            .cfg
            .block_ids()
            .find(|&b| lifted.cfg.block(b).address() == 4)
            .unwrap();
        assert!(lifted.cfg.has_edge(head, tail));
        assert_eq!(lifted.cfg.block(head).instruction_count(), 1);
        assert_eq!(lifted.cfg.block(tail).instruction_count(), 2);
        assert_eq!(lifted.dead_block_count, 1);
    }

    #[test]
    fn br_with_equal_arms_dedupes_edge() {
        let mut code = Vec::new();
        Instruction::Br {
            cond: 0,
            taken: 12,
            not_taken: 12,
        }
        .encode(&mut code); // 0..12
        Instruction::Ret.encode(&mut code); // 12
        let lifted = lift(&Binary::new(0, code)).unwrap();
        assert_eq!(lifted.cfg.node_count(), 2);
        assert_eq!(lifted.cfg.edge_count(), 1);
    }

    #[test]
    fn empty_code_is_rejected() {
        // Construct via parse to bypass Binary::new's assertion.
        let bytes = {
            let mut v = Vec::new();
            v.extend_from_slice(b"SOTB");
            v.extend_from_slice(&1u16.to_le_bytes());
            v.extend_from_slice(&[0, 0]);
            v.extend_from_slice(&0u32.to_le_bytes());
            v.extend_from_slice(&0u32.to_le_bytes());
            v
        };
        let bin = Binary::parse(&bytes).unwrap();
        assert!(matches!(lift(&bin), Err(CorpusError::BadImage(_))));
    }
}
