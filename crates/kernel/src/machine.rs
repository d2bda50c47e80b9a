//! The machine abstraction: one handle over a chip's protection hardware.
//!
//! The paper evaluates on an ARM board and, for RISC-V, under QEMU (§6.1).
//! `Machine` is the kernel's view of whichever protection unit the chip
//! has, so the same kernel code boots on all four [`ChipProfile`]s.
//!
//! Since PR 2 the machine also owns the **MPU commit cache** (the
//! production optimisation from the Tock retrospective): a
//! `(last_configured_pid, generation)` pair that lets `setup_mpu` skip
//! the hardware commit entirely when the process whose configuration is
//! live in the register file is switched back in unchanged. See
//! `DESIGN.md` §8 for the protocol and its soundness obligation.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use tt_hw::cortexm::CortexMpu;
use tt_hw::mem::{AccessDecision, AccessType, Privilege, ProtectionUnit};
use tt_hw::platform::{Arch, ChipProfile};
use tt_hw::riscv::RiscvPmp;

/// The protection unit variant behind a [`Machine`].
#[derive(Debug, Clone)]
pub enum MachineKind {
    /// ARMv7-M MPU.
    CortexM(Rc<RefCell<CortexMpu>>),
    /// RISC-V PMP.
    Pmp(Rc<RefCell<RiscvPmp>>),
}

/// The MPU commit cache: which process configuration is live in the
/// register file, keyed by `(pid, allocator generation)`.
///
/// One cache exists per [`Machine`] (per protection unit) and is shared
/// by every process backend created on it. The cache answers exactly one
/// question — "is the hardware already configured for this pid at this
/// generation?" — and is invalidated by anything that writes the
/// register file outside generation tracking (legacy commits, process
/// creation, restart).
#[derive(Debug, Default)]
pub struct CommitCache {
    state: Cell<Option<(u32, u64)>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl CommitCache {
    /// Returns `true` (a hit) when caching is enabled and the live
    /// configuration is `(pid, generation)`. Counts the lookup either way.
    pub fn lookup(&self, pid: u32, generation: u64) -> bool {
        if !tt_hw::commit_cache::enabled() {
            // Disabled: behave exactly like the pre-cache kernel, and drop
            // any stale state so re-enabling starts cold.
            self.state.set(None);
            self.misses.set(self.misses.get() + 1);
            return false;
        }
        if self.state.get() == Some((pid, generation)) {
            self.hits.set(self.hits.get() + 1);
            true
        } else {
            self.misses.set(self.misses.get() + 1);
            false
        }
    }

    /// Records that `(pid, generation)` was just fully committed to the
    /// register file.
    pub fn note_committed(&self, pid: u32, generation: u64) {
        if tt_hw::commit_cache::enabled() {
            self.state.set(Some((pid, generation)));
        }
    }

    /// Forgets the cached configuration. Called whenever the register file
    /// is written outside generation tracking.
    pub fn invalidate(&self) {
        self.state.set(None);
    }

    /// Number of cache hits since construction (or [`Self::reset_stats`]).
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Number of cache misses since construction (or [`Self::reset_stats`]).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Resets the hit/miss counters (the cached state is kept).
    ///
    /// Note this is a *stats* reset, not a run reset: the cached
    /// `(pid, generation)` survives, and so do any counts accumulated
    /// before the call site decided to reset. Campaign runs that reuse a
    /// machine must instead round-trip the full cache through
    /// [`Self::snapshot`]/[`Self::restore`] — the PR 6 drift audit found
    /// both the kept state and the accumulating counters leaking across
    /// restored runs when only `reset_stats` was used.
    pub fn reset_stats(&self) {
        self.hits.set(0);
        self.misses.set(0);
    }

    /// Captures the complete cache state — cached `(pid, generation)`
    /// *and* the hit/miss counters — for a machine snapshot.
    pub fn snapshot(&self) -> CommitCacheSnapshot {
        CommitCacheSnapshot {
            state: self.state.get(),
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }

    /// Restores a previously captured cache state wholesale.
    pub fn restore(&self, snap: CommitCacheSnapshot) {
        self.state.set(snap.state);
        self.hits.set(snap.hits);
        self.misses.set(snap.misses);
    }
}

/// The full state of a [`CommitCache`] at capture time (cached key and
/// counters), as stored in a `tt_kernel::snapshot::Checkpoint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitCacheSnapshot {
    state: Option<(u32, u64)>,
    hits: u64,
    misses: u64,
}

impl CommitCacheSnapshot {
    /// Whether this cache state answers every future lookup as `other`
    /// does, the counters aside (they only count): both keys empty, or
    /// both naming the same pid and agreeing on whether they name that
    /// process's current layout (`current` and `other_current` answer for
    /// each side's process table). Generation numbers themselves need not
    /// match: each layout change draws a fresh one, so a key naming no
    /// current layout can never hit again, on either side.
    pub(crate) fn acts_like(
        &self,
        other: &CommitCacheSnapshot,
        current: impl Fn(u32, u64) -> bool,
        other_current: impl Fn(u32, u64) -> bool,
    ) -> bool {
        match (self.state, other.state) {
            (None, None) => true,
            (Some((pid, generation)), Some((other_pid, other_generation))) => {
                pid == other_pid && current(pid, generation) == other_current(pid, other_generation)
            }
            _ => false,
        }
    }

    /// The hit and miss counters.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// A shared handle to the chip's protection hardware plus its commit
/// cache.
#[derive(Debug, Clone)]
pub struct Machine {
    kind: MachineKind,
    cache: Rc<CommitCache>,
}

impl Machine {
    /// Creates the reset-state machine for a chip profile.
    pub fn for_chip(profile: &ChipProfile) -> Self {
        let kind = match profile.arch {
            Arch::CortexM => MachineKind::CortexM(Rc::new(RefCell::new(CortexMpu::new()))),
            Arch::Riscv32(chip) => MachineKind::Pmp(Rc::new(RefCell::new(RiscvPmp::new(chip)))),
        };
        Self {
            kind,
            cache: Rc::new(CommitCache::default()),
        }
    }

    /// The protection unit variant.
    pub fn kind(&self) -> &MachineKind {
        &self.kind
    }

    /// The commit cache shared by every backend on this machine.
    pub fn cache(&self) -> &Rc<CommitCache> {
        &self.cache
    }

    /// Checks an access against the live hardware state.
    pub fn check(
        &self,
        addr: usize,
        size: usize,
        access: AccessType,
        priv_: Privilege,
    ) -> AccessDecision {
        match &self.kind {
            MachineKind::CortexM(mpu) => mpu.borrow().check(addr, size, access, priv_),
            MachineKind::Pmp(pmp) => pmp.borrow().check(addr, size, access, priv_),
        }
    }

    /// Disables user-facing protection while the kernel runs (§2.1).
    ///
    /// On ARM this clears MPU_CTRL.ENABLE; on RISC-V it is a no-op — the
    /// kernel runs in M-mode, which unlocked PMP entries never constrain.
    ///
    /// The commit cache survives this on purpose: only the control
    /// register changes, never a region register, and the cache-hit path
    /// re-asserts MPU_CTRL before the process runs again.
    pub fn disable_user_protection(&self) {
        if let MachineKind::CortexM(mpu) = &self.kind {
            mpu.borrow_mut().write_ctrl(false, true);
        }
    }

    /// The ARM MPU handle, if this machine is a Cortex-M.
    pub fn cortexm(&self) -> Option<Rc<RefCell<CortexMpu>>> {
        match &self.kind {
            MachineKind::CortexM(mpu) => Some(Rc::clone(mpu)),
            MachineKind::Pmp(_) => None,
        }
    }

    /// The PMP handle, if this machine is RISC-V.
    pub fn pmp(&self) -> Option<Rc<RefCell<RiscvPmp>>> {
        match &self.kind {
            MachineKind::Pmp(pmp) => Some(Rc::clone(pmp)),
            MachineKind::CortexM(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_hw::platform::{ALL_CHIPS, EARLGREY, NRF52840DK};

    #[test]
    fn machine_matches_chip_arch() {
        for chip in ALL_CHIPS {
            let m = Machine::for_chip(&chip);
            match chip.arch {
                Arch::CortexM => assert!(m.cortexm().is_some() && m.pmp().is_none()),
                Arch::Riscv32(_) => assert!(m.pmp().is_some() && m.cortexm().is_none()),
            }
        }
    }

    #[test]
    fn reset_machines_deny_unprivileged_ram() {
        // ARM resets with the MPU disabled (allows), RISC-V PMP denies by
        // default — both are the architecture's true reset behaviour.
        let arm = Machine::for_chip(&NRF52840DK);
        assert!(arm
            .check(
                NRF52840DK.map.ram.start,
                4,
                AccessType::Read,
                Privilege::Unprivileged
            )
            .allowed());
        let rv = Machine::for_chip(&EARLGREY);
        assert!(!rv
            .check(
                EARLGREY.map.ram.start,
                4,
                AccessType::Read,
                Privilege::Unprivileged
            )
            .allowed());
    }

    #[test]
    fn disable_user_protection_is_safe_on_both() {
        for chip in ALL_CHIPS {
            let m = Machine::for_chip(&chip);
            m.disable_user_protection();
            // Privileged access always works afterwards.
            assert!(m
                .check(
                    chip.map.ram.start,
                    4,
                    AccessType::Write,
                    Privilege::Privileged
                )
                .allowed());
        }
    }

    #[test]
    fn commit_cache_hits_only_on_exact_pid_generation() {
        let cache = CommitCache::default();
        assert!(!cache.lookup(0, 7));
        cache.note_committed(0, 7);
        assert!(cache.lookup(0, 7));
        assert!(!cache.lookup(1, 7), "different pid must miss");
        assert!(!cache.lookup(0, 8), "different generation must miss");
        cache.invalidate();
        assert!(!cache.lookup(0, 7));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 4);
        cache.reset_stats();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn commit_cache_snapshot_round_trips_state_and_counters() {
        let cache = CommitCache::default();
        cache.note_committed(2, 5);
        assert!(cache.lookup(2, 5));
        let snap = cache.snapshot();
        // Drift the cache the way a campaign run does: new commits, new
        // lookups, a stats reset that keeps the state.
        cache.note_committed(9, 1);
        assert!(!cache.lookup(2, 5));
        cache.reset_stats();
        assert_ne!(cache.snapshot(), snap);
        cache.restore(snap);
        assert_eq!(cache.snapshot(), snap);
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
        assert!(cache.lookup(2, 5), "restored key must hit again");
    }

    #[test]
    fn commit_cache_is_inert_when_disabled() {
        let cache = CommitCache::default();
        cache.note_committed(3, 9);
        assert!(cache.lookup(3, 9));
        tt_hw::commit_cache::with_disabled(|| {
            assert!(!cache.lookup(3, 9), "disabled cache never hits");
            cache.note_committed(3, 9);
        });
        // The disabled lookup dropped the state; re-enabling starts cold.
        assert!(!cache.lookup(3, 9));
    }
}
