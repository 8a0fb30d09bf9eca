//! Today's-semantics reference lifter and the oracle tests that hold
//! [`super::lift`] to it.
//!
//! The functions below are the pre-table lifter, moved here unchanged:
//! `BTreeMap`/`BTreeSet` bookkeeping and a dead-code sweep that re-walks
//! the code section from offset 0 after every gap (`next_gap`). They are
//! the spec: the table-driven lifter must return the same `cfg` (entry
//! included), `dead_block_count` and `data_ranges` (same order), or the
//! same [`CorpusError`], on every input. The re-walk is what makes gap
//! order subtle — a descent from one gap can decode code *behind* the
//! walk, so gaps come out of address order — and what makes the reference
//! cubic in the number of gaps, so the scaling tests at the bottom run the
//! new lifter alone on inputs the reference cannot finish.

use super::{Binary, CorpusError, Lifted};
use crate::isa::Instruction;
use soteria_cfg::{BlockId, Cfg, CfgBuilder};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Decodes instruction runs starting from every offset in `worklist`,
/// inserting decoded instructions into `insns` and newly found branch
/// targets into `leaders` + the worklist. Stops a run at a terminator or at
/// an already-decoded offset. Invalid targets (out of bounds / mid-
/// instruction garbage) abort the lift of reachable code but are tolerated
/// (dropped) when `strict` is false, as real disassemblers do for dead code.
fn descend(
    code: &[u8],
    worklist: &mut VecDeque<u32>,
    insns: &mut BTreeMap<u32, Instruction>,
    leaders: &mut BTreeSet<u32>,
    strict: bool,
) -> Result<(), CorpusError> {
    while let Some(start) = worklist.pop_front() {
        if start as usize >= code.len() {
            if strict {
                return Err(CorpusError::BadBranchTarget { target: start });
            }
            leaders.remove(&start);
            continue;
        }
        let mut off = start;
        loop {
            if insns.contains_key(&off) {
                break; // already decoded from here onward
            }
            let insn = match Instruction::decode(code, off as usize) {
                Ok(i) => i,
                Err(source) => {
                    if strict {
                        return Err(CorpusError::Decode {
                            offset: off as usize,
                            source,
                        });
                    }
                    // Dead-code sweep: give up on this run.
                    break;
                }
            };
            let len = insn.encoded_len() as u32;
            let terminator = insn.is_terminator();
            for t in insn.targets() {
                if !leaders.contains(&t) {
                    leaders.insert(t);
                    worklist.push_back(t);
                }
            }
            insns.insert(off, insn);
            if terminator {
                break;
            }
            off += len;
        }
    }
    Ok(())
}

/// Lifts `binary` to a CFG.
///
/// # Errors
///
/// Fails with [`CorpusError::Decode`] or [`CorpusError::BadBranchTarget`]
/// if *reachable* code is malformed. Undecodable *unreachable* bytes are
/// tolerated and reported as data ranges.
pub(super) fn lift(binary: &Binary) -> Result<Lifted, CorpusError> {
    let code = binary.code();
    soteria_resilience::chaos_point("corpus.lift", code.len() as u64);
    if code.is_empty() {
        return Err(CorpusError::BadImage("empty code section"));
    }

    let mut insns: BTreeMap<u32, Instruction> = BTreeMap::new();
    let mut leaders: BTreeSet<u32> = BTreeSet::new();
    let entry = binary.entry();
    leaders.insert(entry);

    // Phase 1: reachable code (strict).
    let mut worklist = VecDeque::from([entry]);
    descend(code, &mut worklist, &mut insns, &mut leaders, true)?;

    // Phase 2: dead-code sweep over gaps (lenient).
    let mut data_ranges = Vec::new();
    loop {
        let gap = next_gap(code.len() as u32, &insns, &data_ranges);
        let Some(gap_start) = gap else { break };
        let before = insns.len();
        let mut wl = VecDeque::from([gap_start]);
        leaders.insert(gap_start);
        descend(code, &mut wl, &mut insns, &mut leaders, false)?;
        if insns.len() == before {
            // Nothing decoded: mark 4 bytes (one minimal instruction slot)
            // as data and move on.
            leaders.remove(&gap_start);
            let end = (gap_start + 4).min(code.len() as u32);
            match data_ranges.last_mut() {
                Some((_, e)) if *e == gap_start => *e = end,
                _ => data_ranges.push((gap_start, end)),
            }
        }
    }

    // Phase 3: block formation.
    build_cfg(entry, &insns, &leaders, data_ranges)
}

/// First offset in the code section that is neither covered by a decoded
/// instruction nor marked as data, if any.
fn next_gap(code_len: u32, insns: &BTreeMap<u32, Instruction>, data: &[(u32, u32)]) -> Option<u32> {
    let mut off = 0u32;
    while off < code_len {
        if let Some(insn) = insns.get(&off) {
            off += insn.encoded_len() as u32;
            continue;
        }
        if let Some(&(_, end)) = data.iter().find(|&&(s, e)| s <= off && off < e) {
            off = end;
            continue;
        }
        // `off` may sit inside an instruction that started earlier (an
        // overlapping decode from a mid-instruction jump target).
        if let Some((&at, insn)) = insns.range(..=off).next_back() {
            let end = at + insn.encoded_len() as u32;
            if end > off {
                off = end;
                continue;
            }
        }
        return Some(off);
    }
    None
}

fn build_cfg(
    entry: u32,
    insns: &BTreeMap<u32, Instruction>,
    leaders: &BTreeSet<u32>,
    data_ranges: Vec<(u32, u32)>,
) -> Result<Lifted, CorpusError> {
    // A block starts at each leader that actually decoded.
    let starts: Vec<u32> = leaders
        .iter()
        .copied()
        .filter(|l| insns.contains_key(l))
        .collect();
    let index_of: BTreeMap<u32, BlockId> = starts
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, BlockId::new(i)))
        .collect();

    let mut builder = CfgBuilder::with_capacity(starts.len());
    #[derive(Debug)]
    struct Pending {
        from: BlockId,
        to: u32,
    }
    let mut pending: Vec<Pending> = Vec::new();

    for &start in &starts {
        let mut count = 0u32;
        let mut off = start;
        let mut succ_offsets: Vec<u32> = Vec::new();
        loop {
            let insn = insns.get(&off).expect("leader run stays decoded");
            count += 1;
            if insn.is_terminator() {
                succ_offsets = insn.targets();
                break;
            }
            off += insn.encoded_len() as u32;
            if leaders.contains(&off) {
                // Split point: implicit continuation into the next block.
                succ_offsets = vec![off];
                break;
            }
            if !insns.contains_key(&off) {
                // Dead-code run that fizzled out mid-stream: no successors.
                break;
            }
        }
        let id = builder.add_block(u64::from(start), count);
        debug_assert_eq!(id, index_of[&start]);
        for t in succ_offsets {
            pending.push(Pending { from: id, to: t });
        }
    }

    let mut dropped = 0usize;
    for p in pending {
        match index_of.get(&p.to) {
            Some(&to) => {
                builder.add_edge_idempotent(p.from, to)?;
            }
            None => dropped += 1, // dangling dead-code target
        }
    }
    let _ = dropped;

    let entry_id = *index_of
        .get(&entry)
        .ok_or(CorpusError::BadImage("entry did not decode"))?;
    let cfg = builder.build(entry_id)?;
    let dead_block_count = cfg.reachable().iter().filter(|&&r| !r).count();
    Ok(Lifted {
        cfg,
        dead_block_count,
        data_ranges,
    })
}

// ---------------------------------------------------------------------------
// Oracle tests.

use crate::{asm, families::Family, motifs, FaultInjector};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

type Outcome = Result<(Cfg, usize, Vec<(u32, u32)>), CorpusError>;

fn outcome(lifted: Result<Lifted, CorpusError>) -> Outcome {
    lifted.map(|l| (l.cfg, l.dead_block_count, l.data_ranges))
}

/// Lifts `binary` with both lifters; panics unless the graphs (entry
/// included), dead-block counts and data ranges (in order) — or the
/// errors — are identical. Returns the table lifter's result.
pub(super) fn lift_checked(binary: &Binary) -> Result<Lifted, CorpusError> {
    let new = super::lift(binary);
    let old = lift(binary);
    assert_eq!(
        outcome(new.clone()),
        outcome(old),
        "lift diverges from the reference on {binary:?}"
    );
    new
}

/// A random instruction soup: instructions mixed with junk runs of 1–8
/// bytes, branch targets at instruction starts, at arbitrary (mostly
/// mid-instruction) offsets and past the end, and empty switches. Dead
/// soups (entry on a `ret`) are common, so most of the work falls to the
/// gap sweep.
fn soup(rng: &mut ChaCha8Rng) -> Binary {
    const JUNK: [u8; 6] = [0xFF, 0x20, 0x00, 0x10, 0x11, 0x12];
    let mut code = Vec::new();
    let mut starts = Vec::new();
    let mut slots = Vec::new();
    for _ in 0..rng.gen_range(1..=48) {
        let insn = match rng.gen_range(0..12) {
            0..=2 => {
                for _ in 0..rng.gen_range(1..=8) {
                    code.push(if rng.gen_bool(0.5) {
                        JUNK[rng.gen_range(0..JUNK.len())]
                    } else {
                        rng.gen()
                    });
                }
                continue;
            }
            3 => Instruction::Jmp { target: 0 },
            4 => Instruction::Br {
                cond: 0,
                taken: 0,
                not_taken: 0,
            },
            5 => Instruction::Switch {
                targets: vec![0; rng.gen_range(0..=4)],
            },
            6 | 7 => Instruction::Ret,
            8 => Instruction::Halt,
            _ => Instruction::Nop,
        };
        let at = code.len();
        starts.push(at as u32);
        slots.extend((0..insn.targets().len()).map(|i| at + 4 + 4 * i));
        insn.encode(&mut code);
    }
    let len = code.len() as u32;
    for slot in slots {
        let target = match rng.gen_range(0..10) {
            0..=4 => starts[rng.gen_range(0..starts.len())],
            5..=8 => rng.gen_range(0..len),
            _ => len + rng.gen_range(0..8u32),
        };
        code[slot..slot + 4].copy_from_slice(&target.to_le_bytes());
    }
    let entry = if starts.is_empty() {
        0
    } else {
        starts[rng.gen_range(0..starts.len())]
    };
    Binary::new(entry, code)
}

#[test]
fn lift_matches_reference_on_instruction_soups() {
    // The sweep's resume rule is only wrong on rare gap orders: a mutant
    // that resumes at the gap survives the first ~1000 soups of a seed,
    // so the loop runs far past proptest's default case count.
    for seed in [1u64, 2] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (mut lifted, mut with_data) = (0, 0);
        for n in 0..20_000 {
            let binary = soup(&mut rng);
            let new = outcome(super::lift(&binary));
            assert_eq!(
                new,
                outcome(lift(&binary)),
                "seed {seed}, soup {n}: {binary:?}"
            );
            if let Ok((_, _, data_ranges)) = new {
                lifted += 1;
                with_data += usize::from(!data_ranges.is_empty());
            }
        }
        // The generator must keep reaching the sweep.
        assert!(lifted > 8_000 && with_data > 3_000, "{lifted} {with_data}");
    }
}

#[test]
fn lift_matches_reference_on_motif_graphs_and_their_corruptions() {
    let faults = FaultInjector::new(17);
    let mut index = 0u64;
    for (i, family) in Family::ALL.into_iter().enumerate() {
        for (j, size) in [3usize, 40, 250, 700].into_iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64((i * 8 + j) as u64);
            let cfg = motifs::grow(&mut rng, &family.profile(), size);
            let mut binary = asm::assemble_salted(&cfg, rng.gen()).binary;
            let lifted = lift_checked(&binary).expect("assembled graphs lift");
            assert_eq!(lifted.dead_block_count, 0);
            let base = binary.code().len() as u32;
            binary.append_dead_code(&asm::dead_fragment(base, 3));
            binary.append_dead_code(&[0xFF; 7]);
            let image = binary.to_bytes();
            for _ in 0..40 {
                let (bytes, _) = faults.corrupt(&image, index);
                index += 1;
                if let Ok(corrupted) = Binary::parse(&bytes) {
                    let _ = lift_checked(&corrupted);
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn lift_matches_reference_on_arbitrary_bytes(
        code in proptest::collection::vec(any::<u8>(), 1..256),
        entry in 0usize..256,
    ) {
        let _ = lift_checked(&Binary::new((entry % code.len()) as u32, code));
    }
}

/// One `ret`, then `k` × (`ret`, 4 undecodable bytes): every other slot is
/// a gap that fails, so the reference re-walks from offset 0 `2k` times
/// and scans every data range at every step.
fn ret_data_pattern(k: usize) -> Binary {
    let mut code = vec![0x20, 0, 0, 0];
    for _ in 0..k {
        code.extend_from_slice(&[0x20, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF]);
    }
    Binary::new(0, code)
}

/// A `jmp` over a run of `0x20` bytes (a `ret` at every offset) to a final
/// `ret`, then `k` × (4 undecodable bytes, `jmp` to the next unaligned
/// offset inside the run). Each jump decodes a `ret` behind the walk, far
/// below the gap: resuming below the lowest new decode would re-walk the
/// whole run every time.
fn back_jump_pattern(k: usize) -> Binary {
    let run = 4 * k.div_ceil(3);
    let end = (8 + run + 12 * k) as u32;
    let mut code = Vec::new();
    Instruction::Jmp { target: end }.encode(&mut code);
    code.resize(8 + run, 0x20);
    for i in 0..k {
        code.extend_from_slice(&[0xFF; 4]);
        let target = (8 + 4 * (i / 3) + 1 + i % 3) as u32;
        Instruction::Jmp { target }.encode(&mut code);
    }
    Instruction::Ret.encode(&mut code);
    Binary::new(0, code)
}

/// Best of three lifts, so one descheduled run cannot fail the bound.
fn best_lift_time(binary: &Binary) -> (Lifted, Duration) {
    let mut best = Duration::MAX;
    let mut lifted = None;
    for _ in 0..3 {
        let t = Instant::now();
        lifted = Some(super::lift(binary).expect("pattern lifts"));
        best = best.min(t.elapsed());
    }
    (lifted.expect("three runs"), best)
}

#[test]
fn gap_patterns_match_the_reference_at_small_sizes() {
    for k in [1, 2, 7, 64] {
        lift_checked(&ret_data_pattern(k)).expect("lifts");
    }
    for k in [1, 2, 3, 4, 300] {
        lift_checked(&back_jump_pattern(k)).expect("lifts");
    }
}

#[test]
fn ret_data_pattern_lifts_in_linear_time() {
    let binary = ret_data_pattern(8000);
    assert_eq!(binary.code().len(), 64_004);
    let (lifted, took) = best_lift_time(&binary);
    assert_eq!(lifted.cfg.node_count(), 8001);
    assert_eq!(lifted.data_ranges.len(), 8000);
    assert!(took < Duration::from_millis(50), "took {took:?}");
}

#[test]
fn back_jump_pattern_lifts_in_linear_time() {
    let binary = back_jump_pattern(4800);
    assert_eq!(binary.code().len(), 64_012);
    let (lifted, took) = best_lift_time(&binary);
    // The jmp, 1600 aligned and 4800 unaligned rets in the run, the 4800
    // jmps and the final ret.
    assert_eq!(lifted.cfg.node_count(), 1 + 1600 + 4800 + 4800 + 1);
    assert_eq!(lifted.data_ranges.len(), 4800);
    assert!(took < Duration::from_millis(50), "took {took:?}");
}
