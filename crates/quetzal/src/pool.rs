//! Machine lifecycle management: pooling, quarantine, and the
//! retry-on-fresh-machine fault boundary.
//!
//! This module is the **single owner** of `Machine` lifecycle semantics.
//! Both consumers drive it:
//!
//! * the one-shot [`BatchRunner`](crate::BatchRunner) entry points build
//!   a pool per call (or accept a caller-owned one);
//! * the `qzserved` alignment daemon (`quetzal-served`) keeps one
//!   long-lived pool per tenant across jobs.
//!
//! The rules, in one place:
//!
//! * **checkout** hands out a machine [`Machine::reset`] to cold-boot
//!   state, or builds a fresh one — reset ≡ fresh is pinned by
//!   `tests/parallel.rs`, so the two are indistinguishable;
//! * **return** happens on drop of the [`PooledMachine`] guard, back to
//!   the free list — unless the thread is unwinding, in which case the
//!   machine is **quarantined**: a panic mid-run leaves state `reset`
//!   is not pinned against;
//! * a machine live during any per-item failure is quarantined via
//!   [`PooledMachine::replace_with_fresh`] and the item retried **once**
//!   on a brand-new (never pooled) machine — the
//!   [`retry_item`] boundary used by every fault-tolerant entry point;
//! * quarantined machines are never handed out again: the pool drops
//!   them on the spot and only counts them ([`MachinePool::stats`]) —
//!   a service surfaces the tally instead of trying to prove a poisoned
//!   machine clean, and a long-lived pool's memory does not grow with
//!   the failures it has seen.
//!
//! # Budget ownership
//!
//! [`Machine::reset`] restores the **default** instruction, cycle and
//! page watchdogs — it deliberately does *not* preserve caller
//! overrides (a recycled machine must be indistinguishable from a
//! fresh one, and a stale tight budget from a previous tenant would be
//! state leaking across checkouts). The pool is therefore the owner of
//! budget configuration: pre-sized [`Budgets`] installed with
//! [`MachinePool::set_budgets`] are re-applied after every
//! reset-on-checkout *and* to every fault-replacement machine, so a
//! sizing decision survives recycling. Code that calls
//! [`Machine::reset`] directly (outside the pool) must re-apply any
//! budget it cares about afterwards — the footgun this rule exists to
//! close.

use crate::{ExecMode, Machine, MachineConfig, PredecodeRegistry, Probe, SimError};
use quetzal_uarch::state::DEFAULT_PAGE_BUDGET;
use quetzal_verify::{Report as VerifyReport, ResourceBound};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Best-effort panic payload extraction.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Locks the free list, ignoring lock poisoning: the list is only ever
/// pushed to / popped from, and a panic cannot unwind mid-`Vec`
/// operation in a way that leaves the list structurally broken.
pub(crate) fn lock(list: &Mutex<Vec<Machine>>) -> std::sync::MutexGuard<'_, Vec<Machine>> {
    list.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pre-sized per-run machine budgets, typically derived from a
/// statically proven [`ResourceBound`] via [`Budgets::from_bound`].
///
/// Each component is an *override* of the corresponding global
/// watchdog; `None` keeps the default (the `Core::DEFAULT_BUDGET`
/// instruction watchdog, cycle watchdog off, page cap
/// [`DEFAULT_PAGE_BUDGET`]). Because proven
/// bounds are ceilings on every dynamic execution of the verified
/// program, applying them never changes the behaviour of a conforming
/// run — they only turn a hypothetical runaway (a soundness bug, or a
/// caller running a *different* program than the one verified) from a
/// two-billion-instruction watchdog trip into a prompt, tight fault.
///
/// The instruction and cycle budgets are per-run; the page component
/// is a *delta* on the cumulative resident-page cap, added to the
/// pages already resident when [`apply`](Budgets::apply) is called
/// (simulated memory persists across runs on one machine, so an
/// absolute cap sized for one program would trip on the next item of
/// the shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budgets {
    /// Per-run retired-instruction budget.
    pub instructions: Option<u64>,
    /// Per-run cycle watchdog (timed runs only; the functional tier
    /// has no clock).
    pub cycles: Option<u64>,
    /// Additional resident guest pages the run may allocate beyond
    /// those already resident at apply time.
    pub pages: Option<u64>,
}

impl Budgets {
    /// Derives budgets from a proven resource bound.
    ///
    /// Only *unconditional* finite components tighten anything:
    /// components that are unbounded (`None`) or no tighter than the
    /// global watchdog stay at the default, and a
    /// [premised](ResourceBound::premised) bound is ignored entirely —
    /// its ceilings are conditional on staged-data ranges this layer
    /// cannot check, and a budget that can trip on legitimate data
    /// would change behaviour instead of merely bounding it.
    pub fn from_bound(bound: &ResourceBound) -> Budgets {
        if bound.premised {
            return Budgets::default();
        }
        Budgets {
            instructions: bound
                .instructions
                .filter(|&p| p < crate::Core::<crate::NullProbe>::DEFAULT_BUDGET),
            cycles: bound.cycles.filter(|&p| p < u64::MAX),
            pages: bound.pages.filter(|&p| p < DEFAULT_PAGE_BUDGET as u64),
        }
    }

    /// `true` if no component overrides its global watchdog.
    pub fn is_default(&self) -> bool {
        *self == Budgets::default()
    }

    /// Applies the overrides to a machine. Components left `None` are
    /// not touched — after a reset they already sit at their defaults.
    pub fn apply<P: Probe>(&self, machine: &mut Machine<P>) {
        if let Some(insts) = self.instructions {
            machine.core_mut().set_budget(insts);
        }
        if let Some(cycles) = self.cycles {
            machine.core_mut().set_cycle_budget(cycles);
        }
        if let Some(pages) = self.pages {
            let resident = machine.core().state().mem.resident_pages() as u64;
            let cap = resident
                .saturating_add(pages)
                .min(DEFAULT_PAGE_BUDGET as u64);
            machine
                .core_mut()
                .state_mut()
                .mem
                .set_page_budget(cap as usize);
        }
    }
}

/// Why a single batch item failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The work closure returned a typed simulation error.
    Sim(SimError),
    /// The work closure panicked; the payload, if it was a string.
    Panic(String),
    /// The `*_verified` entry points rejected the item's program before
    /// any simulation ran: `quetzal-verify` proved it would fault. The
    /// full static report says where and why.
    Rejected(VerifyReport),
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Sim(e) => write!(f, "simulation error: {e}"),
            FailureCause::Panic(msg) => write!(f, "panic: {msg}"),
            FailureCause::Rejected(report) => write!(
                f,
                "statically rejected: program '{}' has {} diagnostic(s)",
                report.name(),
                report.diagnostics().len()
            ),
        }
    }
}

/// One failed item of a [`RunReport`](crate::RunReport). The recorded
/// cause is the *first* attempt's failure; `recovered` says whether the
/// retry on a fresh context produced a result after all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemFailure {
    /// Index of the failing item in the input slice.
    pub item: usize,
    /// What the first attempt died of.
    pub cause: FailureCause,
    /// `true` if the one retry on a brand-new context succeeded (the
    /// item's result is present despite the failure entry).
    pub recovered: bool,
}

impl std::fmt::Display for ItemFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "item {}: {}{}",
            self.item,
            self.cause,
            if self.recovered {
                " (recovered on retry)"
            } else {
                ""
            }
        )
    }
}

/// Occupancy counters of a [`MachinePool`] — what a service reports per
/// tenant: how many machines were ever built, how many sit idle, and
/// how many were quarantined by failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Machines ever constructed by this pool (fresh + fault
    /// replacements).
    pub built: u64,
    /// Machines currently idle in the free list.
    pub free: usize,
    /// Machines quarantined by panics or per-item failures.
    pub quarantined: usize,
}

/// A pool of reusable [`Machine`]s over one configuration.
///
/// Machines are recycled through `free` (reset-on-checkout), except
/// machines that were live during a panic or a failed item: those are
/// quarantined — dropped and counted in `quarantined`, never handed out
/// again. A machine that unwound mid-run may violate the invariants
/// [`Machine::reset`] assumes, and a machine involved in a fault is
/// cheaper to replace than to prove clean.
///
/// The machine-pooled [`BatchRunner`](crate::BatchRunner) entry points
/// build a pool per call; callers that run many batches over the same
/// configuration — repeated timing samples of one kernel, or a
/// long-lived service's per-tenant pools — build one pool up front and
/// pass it to the `*_pooled` entry points, amortising machine
/// construction (multi-megabyte cache tag arrays) across batches.
/// Checkout resets every recycled machine to cold-boot state (reset ≡
/// fresh is pinned by `tests/parallel.rs`), so results are bit-identical
/// to per-call pools.
pub struct MachinePool {
    config: MachineConfig,
    registry: PredecodeRegistry,
    /// Engine every pooled machine runs on. Applied after construction
    /// *and* after every reset ([`Machine::reset`] restores the
    /// cold-boot default, [`ExecMode::Cycle`]).
    exec_mode: ExecMode,
    /// Pre-sized budgets applied to every machine the pool hands out —
    /// after construction, after every reset-on-checkout, and to every
    /// fault-replacement machine (see the module-level budget-ownership
    /// rule). Interior-mutable so a service can re-size a long-lived
    /// tenant pool when its staged kernel changes.
    budgets: Mutex<Budgets>,
    built: AtomicU64,
    free: Mutex<Vec<Machine>>,
    /// Machines quarantined so far. The machines themselves are
    /// dropped: nothing reads them, and each holds megabytes.
    quarantined: AtomicU64,
}

impl MachinePool {
    /// Creates an empty pool over `config` (cloned — the pool owns its
    /// configuration, so it can outlive the caller's borrow; a
    /// long-lived daemon keeps pools for the process lifetime). Every
    /// machine it hands out runs on `exec_mode` (applied after
    /// construction and after every reset-on-checkout).
    pub fn new(config: &MachineConfig, exec_mode: ExecMode) -> MachinePool {
        MachinePool {
            config: config.clone(),
            registry: PredecodeRegistry::new(),
            exec_mode,
            budgets: Mutex::new(Budgets::default()),
            built: AtomicU64::new(0),
            free: Mutex::new(Vec::new()),
            quarantined: AtomicU64::new(0),
        }
    }

    /// The configuration every pooled machine is built from.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The execution engine applied to every checkout.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Installs pre-sized budgets (typically
    /// [`Budgets::from_bound`] of the tenant's staged kernel's proven
    /// [`ResourceBound`]) that every subsequent checkout and fault
    /// replacement re-applies. [`Machine::reset`] restores the global
    /// watchdog defaults, so without this the sizing would silently
    /// vanish on the first recycle — the budget-ownership rule in the
    /// module docs.
    pub fn set_budgets(&self, budgets: Budgets) {
        *self.budgets.lock().unwrap_or_else(|e| e.into_inner()) = budgets;
    }

    /// The pre-sized budgets applied to every checkout.
    pub fn budgets(&self) -> Budgets {
        *self.budgets.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current occupancy counters (built / free / quarantined).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            built: self.built.load(Ordering::Relaxed),
            free: lock(&self.free).len(),
            quarantined: self.quarantined.load(Ordering::Relaxed) as usize,
        }
    }

    /// Quarantines a machine: counts it and drops it.
    fn quarantine(&self, machine: Machine) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        drop(machine);
    }

    /// A brand-new machine (never pooled) sharing the run's predecode
    /// registry, execution mode and pre-sized budgets.
    fn fresh(&self) -> Machine {
        self.built.fetch_add(1, Ordering::Relaxed);
        let mut machine = Machine::new(self.config.clone());
        machine.set_predecode_registry(self.registry.clone());
        machine.set_exec_mode(self.exec_mode);
        self.budgets().apply(&mut machine);
        machine
    }

    /// Checks a machine out of the free list (reset to cold-boot
    /// state), or builds a fresh one if the list is empty. Either way
    /// the pool's execution mode and pre-sized budgets are re-applied
    /// — [`Machine::reset`] restores the cold-boot defaults of both.
    pub fn checkout(&self) -> PooledMachine<'_> {
        let machine = match lock(&self.free).pop() {
            Some(mut machine) => {
                machine.reset();
                machine.set_exec_mode(self.exec_mode);
                self.budgets().apply(&mut machine);
                machine
            }
            None => self.fresh(),
        };
        PooledMachine {
            machine: Some(machine),
            pool: self,
        }
    }

    #[cfg(test)]
    pub(crate) fn free_list(&self) -> &Mutex<Vec<Machine>> {
        &self.free
    }
}

impl std::fmt::Debug for MachinePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("MachinePool")
            .field("exec_mode", &self.exec_mode)
            .field("built", &stats.built)
            .field("free", &stats.free)
            .field("quarantined", &stats.quarantined)
            .finish_non_exhaustive()
    }
}

/// A machine checked out of a [`MachinePool`]. On drop it returns to
/// the free list — unless the thread is unwinding, in which case it is
/// quarantined, i.e. counted and dropped (a panic mid-[`Machine::run`]
/// leaves state `reset` is not pinned against).
pub struct PooledMachine<'a> {
    machine: Option<Machine>,
    pool: &'a MachinePool,
}

impl PooledMachine<'_> {
    /// The checked-out machine.
    pub fn machine(&mut self) -> &mut Machine {
        self.machine.as_mut().expect("checked-out machine")
    }

    /// Quarantines the current machine and installs a brand-new one —
    /// the fault-recovery path: never re-pool a machine that was live
    /// during a failure.
    pub fn replace_with_fresh(&mut self) {
        if let Some(old) = self.machine.take() {
            self.pool.quarantine(old);
        }
        self.machine = Some(self.pool.fresh());
    }
}

impl Drop for PooledMachine<'_> {
    fn drop(&mut self) {
        let Some(machine) = self.machine.take() else {
            return;
        };
        if std::thread::panicking() {
            self.pool.quarantine(machine);
        } else {
            lock(&self.pool.free).push(machine);
        }
    }
}

/// Runs one attempt of a fallible work closure on the checked-out
/// machine inside a panic boundary, folding both failure modes into a
/// [`FailureCause`].
fn attempt<R>(
    machine: &mut Machine,
    work: impl FnOnce(&mut Machine) -> Result<R, SimError>,
) -> Result<R, FailureCause> {
    match catch_unwind(AssertUnwindSafe(|| work(machine))) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(FailureCause::Sim(e)),
        Err(payload) => Err(FailureCause::Panic(panic_message(payload))),
    }
}

/// The per-item fault boundary shared by every fault-tolerant batch
/// entry point: try the item, and on failure quarantine the machine,
/// check out a brand-new one ([`PooledMachine::replace_with_fresh`])
/// and retry **once**. After a failed retry the machine is replaced
/// again, so later items of the shard never run on a machine a failure
/// touched. Returns the item's result slot plus its failure-log entry.
pub(crate) fn retry_item<T, R>(
    pooled: &mut PooledMachine<'_>,
    i: usize,
    item: &T,
    work: impl Fn(&mut Machine, usize, &T) -> Result<R, SimError>,
) -> (Option<R>, Option<ItemFailure>) {
    match attempt(pooled.machine(), |m| work(m, i, item)) {
        Ok(r) => (Some(r), None),
        Err(cause) => {
            pooled.replace_with_fresh();
            let failure = |recovered| ItemFailure {
                item: i,
                cause: cause.clone(),
                recovered,
            };
            match attempt(pooled.machine(), |m| work(m, i, item)) {
                Ok(r) => (Some(r), Some(failure(true))),
                Err(_) => {
                    pooled.replace_with_fresh();
                    (None, Some(failure(false)))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal_isa::{BranchCond, MemSize, ProgramBuilder, SAluOp, X0, X1, X2};

    #[test]
    fn from_bound_keeps_only_unconditional_tightening_components() {
        let tight = ResourceBound {
            instructions: Some(100),
            pages: Some(5),
            cycles: Some(1_000),
            premised: false,
        };
        assert_eq!(
            Budgets::from_bound(&tight),
            Budgets {
                instructions: Some(100),
                cycles: Some(1_000),
                pages: Some(5),
            }
        );
        // Unbounded / looser-than-watchdog components stay default.
        let loose = ResourceBound {
            instructions: Some(crate::Core::<crate::NullProbe>::DEFAULT_BUDGET + 1),
            pages: None,
            cycles: Some(u64::MAX),
            premised: false,
        };
        assert!(Budgets::from_bound(&loose).is_default());
        // A premised bound is conditional on staged data: never adopt.
        let premised = ResourceBound {
            premised: true,
            ..tight
        };
        assert!(Budgets::from_bound(&premised).is_default());
        assert!(Budgets::from_bound(&ResourceBound::unbounded()).is_default());
    }

    /// A program that spins forever — any run of it must die of the
    /// instruction budget, exposing the budget value in the error.
    fn spin() -> quetzal_isa::Program {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.jump(top);
        b.halt(); // unreachable, satisfies the builder's halt check
        b.build().expect("spin program")
    }

    #[test]
    fn pool_budgets_survive_reset_on_checkout_and_fault_replacement() {
        // Regression for the budget-ownership footgun: Machine::reset
        // restores the default instruction budget, so a pool that did
        // not re-apply its pre-sized budgets would silently hand the
        // second checkout a 2e9-instruction watchdog.
        let config = MachineConfig::default();
        let pool = MachinePool::new(&config, ExecMode::default());
        pool.set_budgets(Budgets {
            instructions: Some(100),
            ..Budgets::default()
        });
        let run = |pooled: &mut PooledMachine<'_>| pool_run_err(pooled.machine(), &spin());
        {
            let mut first = pool.checkout();
            assert_eq!(run(&mut first), SimError::InstLimit { budget: 100 });
        }
        {
            // Recycled checkout: reset happened, budgets must be back.
            let mut second = pool.checkout();
            assert_eq!(pool.stats().built, 1, "second checkout recycled");
            assert_eq!(run(&mut second), SimError::InstLimit { budget: 100 });
            // Fault replacement: brand-new machine, budgets included.
            second.replace_with_fresh();
            assert_eq!(run(&mut second), SimError::InstLimit { budget: 100 });
        }
    }

    #[test]
    fn page_budget_is_a_delta_over_resident_pages() {
        // A page budget sized for one program must not trip on the
        // next item of the shard: memory persists across runs, so
        // `apply` adds the allowance to the pages already resident.
        let mut machine = Machine::default();
        let store_pages = |n: i64| {
            // Touch n distinct pages, one 8-byte store each.
            let mut b = ProgramBuilder::new();
            let top = b.label();
            b.mov_imm(X0, 0);
            b.mov_imm(X1, 0x4000_0000);
            b.mov_imm(X2, n);
            b.bind(top);
            b.store(X0, X1, 0, MemSize::B8);
            b.alu_ri(SAluOp::Add, X1, X1, 4096);
            b.alu_ri(SAluOp::Add, X0, X0, 1);
            b.branch(BranchCond::Lt, X0, X2, top);
            b.halt();
            b.build().expect("store-pages program")
        };
        let budgets = Budgets {
            pages: Some(3),
            ..Budgets::default()
        };
        budgets.apply(&mut machine);
        machine.run(&store_pages(3)).expect("within the allowance");
        // Re-applied on the now-warmer machine, the same allowance
        // admits three *more* pages...
        budgets.apply(&mut machine);
        machine
            .run(&store_pages(6))
            .expect("3 resident + 3 more within the re-applied allowance");
        // ...but a fourth fresh page beyond it trips the cap.
        budgets.apply(&mut machine);
        assert!(matches!(
            pool_run_err(&mut machine, &store_pages(10)),
            SimError::MemoryFault { .. }
        ));
    }

    fn pool_run_err(machine: &mut Machine, program: &quetzal_isa::Program) -> SimError {
        machine
            .run(program)
            .expect_err("program must exhaust a budget")
    }

    #[test]
    fn pool_counts_built_free_and_quarantined() {
        let config = MachineConfig::default();
        let pool = MachinePool::new(&config, ExecMode::default());
        assert_eq!(pool.stats(), PoolStats::default());
        {
            let mut a = pool.checkout();
            let _ = a.machine();
            let mut b = pool.checkout();
            let _ = b.machine();
            assert_eq!(pool.stats().built, 2);
            b.replace_with_fresh();
            assert_eq!(pool.stats().built, 3);
            assert_eq!(pool.stats().quarantined, 1);
        }
        let stats = pool.stats();
        assert_eq!(stats.free, 2, "both guards returned their machines");
        assert_eq!(stats.quarantined, 1, "the tally outlives the guard");
        // Two checkouts take the two free machines; the quarantined
        // one is gone, so nothing new is built.
        drop((pool.checkout(), pool.checkout()));
        assert_eq!(pool.stats().built, 3);
        assert_eq!(pool.stats().free, 2);
    }

    #[test]
    fn checkout_prefers_recycled_machines() {
        let config = MachineConfig::default();
        let pool = MachinePool::new(&config, ExecMode::default());
        drop(pool.checkout());
        assert_eq!(pool.stats().built, 1);
        drop(pool.checkout());
        assert_eq!(pool.stats().built, 1, "second checkout reused the first");
    }

    #[test]
    fn retry_item_replaces_context_on_both_failures() {
        // First attempt and retry both fail: the machine must be
        // replaced twice, and the failure must be unrecovered.
        let pool = MachinePool::new(&MachineConfig::default(), ExecMode::default());
        let mut pooled = pool.checkout();
        let (result, failure) = retry_item(&mut pooled, 4, &(), |_m, _i, _item| {
            Err::<u64, _>(SimError::InstLimit { budget: 1 })
        });
        assert!(result.is_none());
        assert_eq!(pool.stats().quarantined, 2, "both failed machines");
        assert_eq!(pool.stats().built, 3, "two fresh replacements");
        let failure = failure.expect("failure entry");
        assert_eq!(failure.item, 4);
        assert!(!failure.recovered);
        assert_eq!(
            failure.cause,
            FailureCause::Sim(SimError::InstLimit { budget: 1 })
        );
    }
}
