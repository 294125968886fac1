//! Compiled functional execution tier (no timing model).
//!
//! The cycle-level engine interprets one instruction at a time and
//! streams it through the out-of-order timing model. This module is the
//! *second driver* of the same instruction semantics: it lifts each
//! basic block of the recovered CFG ([`quetzal_isa::cfg`]) into **flat
//! step tables** — contiguous arrays of `(pc, Instruction)` records,
//! each executed by the interpreter's `step` with the no-op effects
//! sink `()`, and no per-step heap allocation — and chains blocks
//! connected by unconditional control flow into **superblocks**
//! dispatched with a single lookup. Compiled programs are cached by id
//! *and by instruction-stream content* alongside the predecode tables
//! (see [`CompiledCache`]), and a program is predecoded only when it is
//! compiled: a driver that stages a fresh `Program` per sequence pair
//! compiles identical code once for as long as its content stays in
//! the bounded index.
//!
//! The tier is architecturally exact: it produces bit-identical
//! register, memory and QBUFFER state to the interpreter, enforces the
//! same instruction budget with the same error-ordering semantics
//! ([`SimError::InstLimit`] before [`SimError::DecodeError`] when the
//! budget expires exactly at an out-of-program target), and surfaces
//! the identical typed [`SimError`] taxonomy — everything except the
//! clock, which it does not model ([`SimError::CycleLimit`] cannot
//! occur here).
//!
//! Because both engines run one `step`, the differential suites
//! (`tests/functional_equiv.rs`, the fault-injection sweep, the module
//! tests below) pin what this tier owns on its own: step lowering,
//! superblock chaining, dispatch, budget accounting and fault ordering.
//! Independent checks of the semantics themselves come from host-side
//! oracles: the interpreter's scalar and vector oracle tests, the
//! exhaustive algorithmic oracle in `tests/properties.rs`, and the
//! pinned timing and `run_all` outputs.

use std::collections::HashMap;
use std::sync::Arc;

use crate::interp::{step, SimError};
use crate::predecode::Predecode;
use crate::state::ArchState;
use quetzal_isa::cfg::Cfg;
use quetzal_isa::{BranchCond, InstClass, Instruction, Program, XReg};

/// Which execution engine [`Core::run`](crate::Core::run) drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The cycle-level out-of-order engine (timing ground truth).
    #[default]
    Cycle,
    /// The compiled functional tier: identical architectural results,
    /// no clock — `RunStats` carries only the instruction count.
    Functional,
}

/// One compiled instruction: the decoded [`Instruction`] plus the pc it
/// sits at, captured for fault attribution. Steps are `Copy` and stored
/// flat, so compiling a superblock costs one `Vec` allocation total —
/// not one boxed closure per instruction, which on a slow allocator
/// costs more than actually *running* the kernel (compilation went from
/// hundreds of microseconds to single digits per program when the
/// closure representation was replaced by this table).
#[derive(Debug, Clone, Copy)]
struct Step {
    pc: u32,
    inst: Instruction,
}

/// Where control goes after a superblock.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// Another superblock (index into [`CompiledProgram::blocks`]).
    Block(usize),
    /// An out-of-program pc — a typed decode fault at dispatch time.
    Out(usize),
}

/// How a superblock ends. `Halt` and `Branch` are *counted*
/// instructions (the interpreter executes them); `Goto` is free — the
/// jump or fallthrough that produced it was already compiled as a step.
enum Terminator {
    /// The program halts.
    Halt,
    /// A conditional branch: evaluate and pick an edge.
    Branch {
        cond: BranchCond,
        rn: XReg,
        rm: XReg,
        taken: Target,
        fall: Target,
    },
    /// Unconditional transfer (jump or fallthrough out of the chain).
    Goto(Target),
}

/// A chain of basic blocks entered only at the top and executed
/// straight through: every inner block transfers unconditionally to the
/// next ([`Cfg::chain_from`]), so one dispatch covers the whole chain.
struct Superblock {
    steps: Vec<Step>,
    term: Terminator,
    /// Dynamic instructions one full pass consumes (steps plus a
    /// counted terminator). Always ≥ 1, so dispatch cannot livelock.
    insts: u64,
}

/// A program compiled to superblocks, indexed like the CFG's blocks
/// (superblock `i` starts at basic block `i`; tail duplication means a
/// block's steps may also appear inside earlier chains).
pub(crate) struct CompiledProgram {
    blocks: Vec<Superblock>,
}

impl std::fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("superblocks", &self.blocks.len())
            .finish()
    }
}

/// Longest block chain folded into one superblock. Bounds tail
/// duplication (a block may be re-compiled into many chains) while
/// still covering the unrolled straight-line bodies the kernel
/// builders emit.
const MAX_CHAIN: usize = 16;

/// Compiles `program` into superblocks. `pre` must be the program's
/// predecode table: terminators are classified from its [`MicroOp`]
/// records rather than re-inspecting raw instructions.
///
/// [`MicroOp`]: crate::predecode::MicroOp
pub(crate) fn compile(program: &Program, pre: &Predecode) -> CompiledProgram {
    debug_assert_eq!(pre.len(), program.len(), "predecode table mismatch");
    let insts = program.instructions();
    let len = insts.len();
    let cfg = Cfg::of(insts);
    let target = |pc: usize| {
        if pc < len {
            Target::Block(cfg.block_of(pc))
        } else {
            Target::Out(pc)
        }
    };

    let mut blocks = Vec::with_capacity(cfg.blocks().len());
    for b in 0..cfg.blocks().len() {
        let chain = cfg.chain_from(b, insts, MAX_CHAIN);
        let chain_insts: usize = chain.iter().map(|&cb| cfg.blocks()[cb].pcs().len()).sum();
        let mut steps = Vec::with_capacity(chain_insts);
        let mut n_insts = 0u64;
        // Always overwritten: every chain ends with a terminal
        // instruction (blocks are non-empty by construction).
        let mut term = Terminator::Halt;
        for (ci, &cb) in chain.iter().enumerate() {
            let block = &cfg.blocks()[cb];
            let last_in_chain = ci + 1 == chain.len();
            for pc in block.pcs() {
                let inst = insts[pc];
                n_insts += 1;
                if !(last_in_chain && pc + 1 == block.end) {
                    // Interior of the chain: straight-line step. A
                    // chained jump executes (it is counted) but
                    // transfers nowhere — the chain already continues
                    // at its target.
                    steps.push(Step {
                        pc: pc as u32,
                        inst,
                    });
                    continue;
                }
                let uop = pre.op(pc);
                term = match inst {
                    _ if uop.class == InstClass::Halt => Terminator::Halt,
                    Instruction::Branch {
                        cond,
                        rn,
                        rm,
                        target: t,
                    } => {
                        debug_assert!(uop.is_cond_branch);
                        Terminator::Branch {
                            cond,
                            rn,
                            rm,
                            taken: target(t),
                            fall: target(pc + 1),
                        }
                    }
                    Instruction::Jump { target: t } => {
                        debug_assert!(uop.class == InstClass::Branch && !uop.is_cond_branch);
                        steps.push(Step {
                            pc: pc as u32,
                            inst,
                        });
                        Terminator::Goto(target(t))
                    }
                    _ => {
                        steps.push(Step {
                            pc: pc as u32,
                            inst,
                        });
                        Terminator::Goto(target(pc + 1))
                    }
                };
            }
        }
        let counted_term = matches!(term, Terminator::Halt | Terminator::Branch { .. }) as u64;
        debug_assert_eq!(n_insts, steps.len() as u64 + counted_term);
        blocks.push(Superblock {
            steps,
            term,
            insts: n_insts,
        });
    }
    CompiledProgram { blocks }
}

/// Dispatches a superblock edge: in-program targets continue at their
/// block; out-of-program targets fault with the interpreter's exact
/// ordering (budget exhaustion wins over the decode fault).
fn dispatch(t: Target, remaining: u64, budget: u64) -> Result<usize, SimError> {
    match t {
        Target::Block(b) => Ok(b),
        Target::Out(pc) => {
            if remaining == 0 {
                Err(SimError::InstLimit { budget })
            } else {
                Err(SimError::DecodeError { pc })
            }
        }
    }
}

/// Runs a compiled program against `state` under the same instruction
/// budget the interpreter enforces. Returns the executed instruction
/// count (halt included), exactly as [`crate::interp::execute`] does.
///
/// Budget accounting is superblock-granular on the fast path: when the
/// whole chain fits in the remaining budget it is debited up front —
/// observationally identical, because no guest-visible effect reads the
/// count mid-chain. Only when the budget could expire inside the chain
/// does dispatch fall back to per-instruction checks.
pub(crate) fn run_compiled(
    cp: &CompiledProgram,
    state: &mut ArchState,
    budget: u64,
) -> Result<u64, SimError> {
    if cp.blocks.is_empty() {
        // Empty image: pc 0 is already outside the program, but the
        // interpreter checks the budget first.
        return if budget == 0 {
            Err(SimError::InstLimit { budget })
        } else {
            Err(SimError::DecodeError { pc: 0 })
        };
    }
    let mut remaining = budget;
    let mut block = 0usize;
    loop {
        let sb = &cp.blocks[block];
        block = if remaining >= sb.insts {
            remaining -= sb.insts;
            for s in &sb.steps {
                step(s.pc as usize, s.inst, state, &mut ())?;
            }
            match sb.term {
                Terminator::Halt => return Ok(budget - remaining),
                Terminator::Goto(t) => dispatch(t, remaining, budget)?,
                Terminator::Branch {
                    cond,
                    rn,
                    rm,
                    taken,
                    fall,
                } => {
                    let t = if cond.eval(state.x(rn) as i64, state.x(rm) as i64) {
                        taken
                    } else {
                        fall
                    };
                    dispatch(t, remaining, budget)?
                }
            }
        } else {
            // The budget expires somewhere in this chain: mirror the
            // interpreter's check-fetch-execute order per instruction.
            for s in &sb.steps {
                if remaining == 0 {
                    return Err(SimError::InstLimit { budget });
                }
                remaining -= 1;
                step(s.pc as usize, s.inst, state, &mut ())?;
            }
            match sb.term {
                Terminator::Goto(t) => dispatch(t, remaining, budget)?,
                Terminator::Halt => {
                    if remaining == 0 {
                        return Err(SimError::InstLimit { budget });
                    }
                    remaining -= 1;
                    return Ok(budget - remaining);
                }
                Terminator::Branch {
                    cond,
                    rn,
                    rm,
                    taken,
                    fall,
                } => {
                    if remaining == 0 {
                        return Err(SimError::InstLimit { budget });
                    }
                    remaining -= 1;
                    let t = if cond.eval(state.x(rn) as i64, state.x(rm) as i64) {
                        taken
                    } else {
                        fall
                    };
                    dispatch(t, remaining, budget)?
                }
            }
        };
    }
}

/// One content-index entry: the instruction stream (collision guard)
/// and its compiled form.
type ContentEntry = (Arc<[Instruction]>, Arc<CompiledProgram>);

/// Per-core cache of compiled programs — the functional analogue of
/// [`crate::predecode::DecodeCache`], with the same wholesale-flush
/// bound.
///
/// Two-level keying: a fast path by [`Program::id`], and behind it a
/// **content index** keyed by the hash of the instruction stream. The
/// staged alignment drivers build a fresh `Program` (fresh id) per
/// sequence pair, but pairs with equal lengths and edit distance stage
/// byte-identical code — the content index lets every such program
/// share one compiled superblock table across pairs *and across
/// kernels*, so a program compiles again only after its content was
/// flushed. Each index is bounded by [`CAPACITY`](Self::CAPACITY) and
/// flushed wholesale when it fills. Fresh ids fill the id index every
/// `CAPACITY` programs, and that flush keeps the compiled content; a
/// flush of the content index takes the id index with it.
/// Hash collisions are guarded by full instruction-stream equality, so
/// a collision costs a compare, never a wrong program.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompiledCache {
    by_id: HashMap<u64, Arc<CompiledProgram>>,
    by_content: HashMap<u64, Vec<ContentEntry>>,
}

impl CompiledCache {
    /// The bound of each index, matching `DecodeCache::CAPACITY`.
    const CAPACITY: usize = 64;

    /// The compiled form of `program`, compiling on first sight of its
    /// *content* (identical code under a different id hits the cache).
    /// `pre` yields the program's predecode table and is called only
    /// when the program is actually compiled.
    pub(crate) fn get<'a>(
        &mut self,
        program: &Program,
        pre: impl FnOnce() -> &'a Predecode,
    ) -> Arc<CompiledProgram> {
        if let Some(cp) = self.by_id.get(&program.id()) {
            return Arc::clone(cp);
        }
        if self.by_id.len() >= Self::CAPACITY {
            self.by_id.clear();
        }
        let insts = program.instructions();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::hash::Hash::hash(insts, &mut h);
        let key = std::hash::Hasher::finish(&h);
        if self.by_content.len() >= Self::CAPACITY && !self.by_content.contains_key(&key) {
            // The id index goes too: every table it holds is then also
            // in the content index, so at most CAPACITY stay alive.
            self.by_content.clear();
            self.by_id.clear();
        }
        let bucket = self.by_content.entry(key).or_default();
        let cp = match bucket.iter().find(|(code, _)| code[..] == *insts) {
            Some((_, cp)) => Arc::clone(cp),
            None => {
                let cp = Arc::new(compile(program, pre()));
                bucket.push((insts.into(), Arc::clone(&cp)));
                cp
            }
        };
        self.by_id.insert(program.id(), Arc::clone(&cp));
        cp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::execute;
    use crate::ooo::NullSink;
    use quetzal_accel::QzConfig;
    use quetzal_isa::*;

    fn compile_program(p: &Program) -> CompiledProgram {
        compile(p, &Predecode::of(p))
    }

    /// Runs `p` through both engines from identical cold states and
    /// asserts the full results — executed counts or errors, plus an
    /// architectural digest — are bit-equal.
    fn assert_engines_agree(p: &Program, budget: u64) {
        let mut si = ArchState::new(QzConfig::QZ_8P);
        let mut sc = ArchState::new(QzConfig::QZ_8P);
        let ri = execute(&mut si, p, &mut NullSink, budget);
        let rc = run_compiled(&compile_program(p), &mut sc, budget);
        assert_eq!(ri, rc, "engines disagree at budget {budget}");
        for i in 0..32 {
            assert_eq!(
                si.x(XReg::new(i)),
                sc.x(XReg::new(i)),
                "x{i} diverged at budget {budget}"
            );
            assert_eq!(
                si.v_lanes64(VReg::new(i)),
                sc.v_lanes64(VReg::new(i)),
                "v{i} diverged at budget {budget}"
            );
        }
        for i in 0..8 {
            assert_eq!(si.p(PReg::new(i)), sc.p(PReg::new(i)), "p{i} diverged");
        }
        assert_eq!(si.mem.resident_pages(), sc.mem.resident_pages());
        assert_eq!(si.qz.buf(0).words(), sc.qz.buf(0).words());
    }

    fn loop_program() -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.mov_imm(X0, 0);
        b.mov_imm(X1, 0);
        b.mov_imm(X2, 10);
        b.bind(top);
        b.alu_rr(SAluOp::Add, X1, X1, X0);
        b.alu_ri(SAluOp::Add, X0, X0, 1);
        b.branch(BranchCond::Lt, X0, X2, top);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn compiled_loop_matches_interpreter_at_every_budget() {
        // Sweeping the budget over the whole run length pins the exact
        // InstLimit boundary semantics, including the halt edge case.
        let p = loop_program();
        let mut s = ArchState::new(QzConfig::QZ_8P);
        let total = run_compiled(&compile_program(&p), &mut s, u64::MAX).unwrap();
        for budget in 0..=total + 1 {
            assert_engines_agree(&p, budget);
        }
    }

    #[test]
    fn compiled_vector_kernel_matches_interpreter() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 0x2000);
        b.mov_imm(X1, 7);
        b.ptrue(P0, ElemSize::B64);
        b.index(V0, X0, 3, ElemSize::B64);
        b.dup(V1, X1, ElemSize::B64);
        b.valu_vv(VAluOp::Add, V2, V0, V1, P0, ElemSize::B64);
        b.vstore(V2, X0, P0, ElemSize::B64);
        b.vload(V3, X0, P0, ElemSize::B64);
        b.vreduce(RedOp::Add, X2, V3, P0, ElemSize::B64);
        b.halt();
        let p = b.build().unwrap();
        assert_engines_agree(&p, u64::MAX);
    }

    #[test]
    fn out_of_program_targets_fault_identically() {
        // Falling off the end.
        let trunc = Program::from_raw(vec![Instruction::MovImm { rd: X0, imm: 1 }], "trunc");
        for budget in 0..4 {
            assert_engines_agree(&trunc, budget);
        }
        // A wild jump target.
        let wild = Program::from_raw(
            vec![Instruction::Jump { target: 99 }, Instruction::Halt],
            "wild",
        );
        for budget in 0..4 {
            assert_engines_agree(&wild, budget);
        }
        // A wild branch target, taken and not taken.
        for imm in [0, 1] {
            let p = Program::from_raw(
                vec![
                    Instruction::MovImm { rd: X0, imm },
                    Instruction::MovImm { rd: X1, imm: 1 },
                    Instruction::Branch {
                        cond: BranchCond::Eq,
                        rn: X0,
                        rm: X1,
                        target: 77,
                    },
                    Instruction::Halt,
                ],
                "wild-branch",
            );
            for budget in 0..6 {
                assert_engines_agree(&p, budget);
            }
        }
    }

    #[test]
    fn empty_program_faults_identically() {
        let p = Program::from_raw(Vec::new(), "empty");
        assert_engines_agree(&p, 0);
        assert_engines_agree(&p, 5);
    }

    #[test]
    fn static_lane_fault_matches_interpreter() {
        let p = Program::from_raw(
            vec![
                Instruction::VExtract {
                    rd: X0,
                    vn: V0,
                    lane: 63,
                    esize: ElemSize::B64,
                },
                Instruction::Halt,
            ],
            "bad-lane",
        );
        assert_engines_agree(&p, u64::MAX);
    }

    #[test]
    fn page_budget_fault_matches_interpreter() {
        // A store loop that touches a new page per iteration.
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.mov_imm(X0, 0x10_0000);
        b.mov_imm(X1, 0x10_0000 + 4096 * 64);
        b.bind(top);
        b.store(X0, X0, 0, MemSize::B8);
        b.alu_ri(SAluOp::Add, X0, X0, 4096);
        b.branch(BranchCond::Lt, X0, X1, top);
        b.halt();
        let p = b.build().unwrap();

        let mut si = ArchState::new(QzConfig::QZ_8P);
        let mut sc = ArchState::new(QzConfig::QZ_8P);
        si.mem.set_page_budget(8);
        sc.mem.set_page_budget(8);
        let ri = execute(&mut si, &p, &mut NullSink, u64::MAX);
        let rc = run_compiled(&compile_program(&p), &mut sc, u64::MAX);
        assert!(matches!(ri, Err(SimError::MemoryFault { .. })));
        assert_eq!(ri, rc);
    }

    #[test]
    fn qbuffer_kernel_matches_interpreter() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X4, 128);
        b.mov_imm(X5, 2);
        b.qzconf(X4, X4, X5);
        b.ptrue(P0, ElemSize::B64);
        b.index(V0, X6, 1, ElemSize::B64);
        b.dup_imm(V1, 9, ElemSize::B64);
        b.qzstore(V1, V0, QBufSel::Q0, P0);
        b.qzupdate(QzOp::Add, V1, V0, QBufSel::Q0, P0);
        b.qzload(V2, V0, QBufSel::Q0, P0);
        b.qzmhm(QzOp::Count, V3, V0, V0, P0);
        b.halt();
        let p = b.build().unwrap();
        assert_engines_agree(&p, u64::MAX);
    }

    #[test]
    fn invalid_qzconf_faults_identically() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X4, 128);
        b.mov_imm(X5, 777);
        b.qzconf(X4, X4, X5);
        b.halt();
        let p = b.build().unwrap();
        assert_engines_agree(&p, u64::MAX);
    }

    #[test]
    fn superblocks_chain_across_unconditional_edges() {
        // mov / jump / mov / jump / ... — one entry superblock should
        // swallow the whole chain.
        let p = Program::from_raw(
            vec![
                Instruction::MovImm { rd: X0, imm: 1 },
                Instruction::Jump { target: 2 },
                Instruction::MovImm { rd: X1, imm: 2 },
                Instruction::Jump { target: 4 },
                Instruction::Halt,
            ],
            "chain",
        );
        let cp = compile_program(&p);
        assert_eq!(cp.blocks[0].insts, 5, "entry superblock covers the chain");
        assert!(matches!(cp.blocks[0].term, Terminator::Halt));
        for budget in 0..7 {
            assert_engines_agree(&p, budget);
        }
    }

    #[test]
    fn compiled_cache_reuses_and_bounds_entries() {
        let p = loop_program();
        let mut cache = CompiledCache::default();
        let pre = Predecode::of(&p);
        let a = cache.get(&p, || &pre);
        let b = cache.get(&p, || unreachable!("an id hit decodes nothing"));
        assert!(Arc::ptr_eq(&a, &b), "same program id must hit the cache");

        for i in 0..(CompiledCache::CAPACITY * 2) {
            let mut pb = ProgramBuilder::new();
            pb.mov_imm(X0, i as i64);
            pb.halt();
            let q = pb.build().unwrap();
            let pre = Predecode::of(&q);
            cache.get(&q, || &pre);
        }
        assert!(cache.by_id.len() <= CompiledCache::CAPACITY);
        assert!(cache.by_content.len() <= CompiledCache::CAPACITY);
    }

    #[test]
    fn compiled_cache_shares_identical_content_across_program_ids() {
        // Two programs staged separately (distinct ids) with identical
        // instruction streams — the per-pair driver pattern — must
        // share one compiled table.
        let p = loop_program();
        let q = loop_program();
        assert_ne!(p.id(), q.id(), "staged programs get fresh ids");
        assert_eq!(p.instructions(), q.instructions());
        let mut cache = CompiledCache::default();
        let pre = Predecode::of(&p);
        let a = cache.get(&p, || &pre);
        let b = cache.get(&q, || unreachable!("a content hit compiles nothing"));
        assert!(
            Arc::ptr_eq(&a, &b),
            "identical content must share a compiled program across ids"
        );

        // Different content must not alias.
        let mut pb = ProgramBuilder::new();
        pb.mov_imm(X0, 7);
        pb.halt();
        let r = pb.build().unwrap();
        let pre = Predecode::of(&r);
        let c = cache.get(&r, || &pre);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn fresh_ids_over_a_small_content_set_compile_each_content_once() {
        // The staged-driver pattern: every run is a fresh `Program` (so
        // the id index fills and flushes again and again), but the code
        // cycles over at most CAPACITY distinct images. Each image must
        // compile exactly once; a flush of the id index keeps them.
        let images: Vec<Vec<Instruction>> = (0..CompiledCache::CAPACITY as i64)
            .map(|i| vec![Instruction::MovImm { rd: X0, imm: i }, Instruction::Halt])
            .collect();
        let mut cache = CompiledCache::default();
        let mut compiles = 0;
        let mut first = Vec::new();
        for round in 0..5 {
            for (i, code) in images.iter().enumerate() {
                let p = Program::from_raw(code.clone(), "staged");
                let pre = Predecode::of(&p);
                let cp = cache.get(&p, || {
                    compiles += 1;
                    &pre
                });
                if round == 0 {
                    first.push(cp);
                } else {
                    assert!(Arc::ptr_eq(&first[i], &cp), "image {i} recompiled");
                }
            }
            assert!(cache.by_id.len() <= CompiledCache::CAPACITY);
        }
        assert_eq!(compiles, images.len());
    }
}
