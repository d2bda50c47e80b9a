//! The process abstraction, generic over kernel flavour *and* chip.
//!
//! To reproduce the paper's evaluation, every process operation exists in
//! two flavours behind one interface — the **legacy** backend drives
//! Tock's monolithic MPU abstraction (with its recomputation patterns),
//! the **granular** backend drives TickTock's allocator — each written
//! once and generic over the chip's protection unit (Cortex-M MPU, RISC-V
//! PMP), mirroring the paper's ARM board + QEMU RISC-V setup. Both keep
//! the kernel's one logical view of a process, an [`AppBreaks`], which
//! [`Process::breaks`] exposes. Figure 11's six instrumented methods
//! (`create`, `brk`, `allocate_grant`, `build_readonly_buffer`,
//! `build_readwrite_buffer`, `setup_mpu`) are the methods of this module,
//! cycle-charged through `tt_hw::cycles`.

use crate::loader::AppImage;
use crate::machine::{CommitCache, Machine, MachineKind};
use std::fmt;
use std::rc::Rc;
use ticktock::allocator::{AppMemoryAllocator, UpdateError};
use ticktock::cortexm::GranularCortexM;
use ticktock::mpu::Mpu;
use ticktock::riscv::GranularPmp;
use ticktock::AppBreaks;
use tt_hw::cycles::{charge_n, Cost};
use tt_hw::{Permissions, PtrU8};
use tt_legacy::mpu_trait::LegacyMpu;
use tt_legacy::process::recompute_breaks;
use tt_legacy::riscv::{PmpConfig, RAM_ENTRY_BASE};
use tt_legacy::{BugVariant, CortexMConfig, LegacyCortexM, LegacyRiscv};

/// Which kernel flavour a process (and its kernel) runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Tock's original monolithic kernel, with the chosen bug variant.
    Legacy(BugVariant),
    /// TickTock's granular kernel.
    Granular,
}

impl Flavor {
    /// Display name used in differential-test reports.
    pub fn name(&self) -> &'static str {
        match self {
            Flavor::Legacy(BugVariant::Buggy) => "tock(buggy)",
            Flavor::Legacy(BugVariant::Fixed) => "tock",
            Flavor::Granular => "ticktock",
        }
    }
}

/// Run state of a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessState {
    /// Ready to run.
    Ready,
    /// Yielded, waiting for an upcall.
    Yielded,
    /// Exited normally.
    Exited,
    /// Faulted (MPU violation or kernel-detected error).
    Faulted(String),
    /// Permanently killed by the fault policy (restart cap exhausted or
    /// [`crate::kernel::FaultPolicy::Kill`]). Never scheduled again.
    Killed,
}

/// Errors from process operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessError {
    /// Out of memory (pool, block or grant space).
    NoMemory,
    /// Invalid syscall parameters.
    Invalid,
}

/// The flavour/architecture-specific memory backend of a process.
///
/// Object-safe so [`Process`] can hold either generic backend, at any
/// chip's protection unit, behind one `Box`.
trait MemoryOps: fmt::Debug + std::any::Any + BackendCopy {
    /// The process's memory layout: block, breaks and flash.
    fn breaks(&self) -> &AppBreaks;
    /// Move the app break.
    fn brk(&mut self, new_break: PtrU8) -> Result<(), ProcessError>;
    /// Allocate grant memory (moves the kernel break down).
    fn allocate_grant(&mut self, size: usize) -> Result<PtrU8, ProcessError>;
    /// Validate a process buffer against the accessible RAM.
    fn buffer_in_ram(&self, addr: PtrU8, len: usize) -> bool;
    /// Write the staged configuration into the hardware.
    fn setup_mpu(&self);
    /// The commit-cache hit verdict *without* acting on it: `true` when
    /// the live register file already holds this backend's configuration
    /// at the current allocator generation, i.e. a commit could be
    /// elided right now. Never stamps or invalidates the cache. Backends
    /// without a cached commit path (legacy) always answer `false`.
    fn mpu_ready(&self) -> bool {
        false
    }
    /// Re-arms protection only (one `MPU_CTRL` write on ARM, nothing on
    /// PMP) *without* committing the staged configuration — the second
    /// half of a hit-elided commit, split out from [`Self::setup_mpu`].
    /// Only sound when [`Self::mpu_ready`] holds at the moment of the
    /// call; the deliberately planted commit-window bug
    /// (`Kernel::commit_window_bug`) consists of acting on a *stale*
    /// verdict across an interrupt window. Backends without an elided
    /// path fall back to a full commit.
    fn rearm_mpu(&self) {
        self.setup_mpu();
    }
    /// Scrub fault-recovery: reclaim grant memory and re-derive the
    /// staged protection state from the surviving break pointers.
    fn recover(&mut self) -> bool;
    /// Whether the live register file still matches the staged
    /// configuration (always `true` for backends without a staged view).
    fn mpu_consistent(&self) -> bool {
        true
    }
    /// The allocator generation the commit cache keys this backend's
    /// configuration by; `None` for backends without a cached commit.
    fn generation(&self) -> Option<u64> {
        None
    }
    /// Whether `other` stages the same configuration — breaks and staged
    /// regions — with the generation left out ([`Process::same_state`]).
    /// Backends without a comparable view answer `false`.
    fn same_state(&self, _other: &dyn MemoryOps) -> bool {
        false
    }
}

/// The copies a checkpoint makes of a backend, the same for every
/// `Clone` backend. A copy shares the original's machine handles
/// (hardware `Rc`, commit cache) so a copy restored by
/// `tt_kernel::snapshot` drives the same simulated hardware; everything
/// else — staged config, breaks, allocator (generation included) — is
/// an independent copy.
trait BackendCopy {
    /// Deep-copies the backend behind the trait object.
    fn clone_box(&self) -> Box<dyn MemoryOps>;
    /// Overwrites this backend with `source` in place when both are the
    /// same backend type, allocating nothing; returns `false`, leaving
    /// `self` as it was, otherwise.
    fn restore_from(&mut self, source: &dyn MemoryOps) -> bool;
}

impl<T: MemoryOps + Clone> BackendCopy for T {
    fn clone_box(&self) -> Box<dyn MemoryOps> {
        Box::new(self.clone())
    }

    fn restore_from(&mut self, source: &dyn MemoryOps) -> bool {
        let source: &dyn std::any::Any = source;
        match source.downcast_ref::<T>() {
            Some(source) => {
                self.clone_from(source);
                true
            }
            None => false,
        }
    }
}

// ---------------------------------------------------------------------
// Legacy backend, generic over Tock's monolithic MPU abstraction (Fig. 4a).
// ---------------------------------------------------------------------

/// The one per-chip step of the legacy buffer check: re-derive the
/// accessible RAM `lo..hi` from the staged configuration, charging what
/// the legacy kernel pays for it — work the granular kernel replaces with
/// two compares against `AppBreaks`. `None` when no RAM region is staged.
trait LegacyRam: LegacyMpu {
    fn accessible_ram(config: &Self::MpuConfig) -> Option<(usize, usize)>;
}

impl LegacyRam for LegacyCortexM {
    fn accessible_ram(config: &CortexMConfig) -> Option<(usize, usize)> {
        // Re-derive the block geometry from the raw MPU registers, then
        // walk the subregion masks in a loop to find the accessible end.
        let (start, region_size) = config.ram_region_geometry()?;
        let mut accessible_end = start;
        for i in 0..16usize {
            charge_n(Cost::Branch, 1);
            let region = &config.regions[if i < 8 { 0 } else { 1 }];
            if !region.set && i >= 8 {
                break;
            }
            let srd = (region.rasr >> 8) & 0xFF;
            if srd & (1 << (i % 8)) == 0 {
                accessible_end = start + (i + 1) * (region_size / 8);
            }
        }
        charge_n(Cost::Alu, 3);
        charge_n(Cost::Branch, 2);
        Some((start, accessible_end))
    }
}

impl LegacyRam for LegacyRiscv {
    fn accessible_ram(config: &PmpConfig) -> Option<(usize, usize)> {
        // Re-derive the accessible bound from the staged TOR entries.
        charge_n(Cost::Load, 4);
        charge_n(Cost::Alu, 6);
        let lo = (config.entries[RAM_ENTRY_BASE].1 as usize) << 2;
        let hi = (config.entries[RAM_ENTRY_BASE + 1].1 as usize) << 2;
        charge_n(Cost::Branch, 2);
        Some((lo, hi))
    }
}

#[derive(Clone)]
struct Legacy<M: LegacyMpu> {
    mpu: M,
    config: M::MpuConfig,
    /// The loader's recomputed view (`recompute_breaks`), with the kernel
    /// break at the block top, kept by `brk` and `allocate_grant`. Built
    /// field by field, so `AppBreaks`' invariants are never checked here,
    /// and under `Legacy(Buggy)` they need not hold: the buggy Cortex-M
    /// MPU code accepts a break below the block start (§2.2), and the
    /// buggy PMP code one past the kernel break (tock#2173).
    breaks: AppBreaks,
    /// The machine's commit cache. Legacy commits carry no generation, so
    /// every hardware write-out invalidates it — the legacy flavor stays
    /// the byte-for-byte differential baseline, never a cache user.
    cache: Rc<CommitCache>,
}

impl<M: LegacyMpu> fmt::Debug for Legacy<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Legacy")
            .field("breaks", &self.breaks)
            .finish_non_exhaustive()
    }
}

impl<M: LegacyRam + Clone + 'static> MemoryOps for Legacy<M> {
    fn breaks(&self) -> &AppBreaks {
        &self.breaks
    }

    fn brk(&mut self, new_break: PtrU8) -> Result<(), ProcessError> {
        self.mpu
            .update_app_mem_region(
                new_break,
                self.breaks.kernel_break,
                Permissions::ReadWriteOnly,
                &mut self.config,
            )
            .map_err(|_| ProcessError::Invalid)?;
        self.breaks.app_break = new_break;
        // Tock's brk path includes "an unnecessary call to setup_mpu"
        // (§6.2) — reproduce it.
        self.setup_mpu();
        Ok(())
    }

    fn allocate_grant(&mut self, size: usize) -> Result<PtrU8, ProcessError> {
        // The legacy kernel re-derives the geometry and recomputes the
        // whole MPU configuration to move the kernel break (§3.2's
        // redundant work, the 2× of Fig. 11).
        charge_n(Cost::Alu, 4);
        let new_kb = (self
            .breaks
            .kernel_break
            .as_usize()
            .checked_sub(size)
            .ok_or(ProcessError::NoMemory)?)
            & !7;
        if new_kb <= self.breaks.app_break.as_usize() {
            return Err(ProcessError::NoMemory);
        }
        self.mpu
            .update_app_mem_region(
                self.breaks.app_break,
                PtrU8::new(new_kb),
                Permissions::ReadWriteOnly,
                &mut self.config,
            )
            .map_err(|_| ProcessError::NoMemory)?;
        self.setup_mpu();
        self.breaks.kernel_break = PtrU8::new(new_kb);
        Ok(PtrU8::new(new_kb))
    }

    fn buffer_in_ram(&self, addr: PtrU8, len: usize) -> bool {
        M::accessible_ram(&self.config).is_some_and(|(lo, hi)| {
            within(
                addr.as_usize(),
                len,
                lo,
                hi.min(self.breaks.app_break.as_usize()),
            )
        })
    }

    fn setup_mpu(&self) {
        self.cache.invalidate();
        self.mpu.configure_mpu(&self.config);
    }

    fn recover(&mut self) -> bool {
        // Legacy recovery is coarse: pull the kernel break back to the
        // block top (grants reclaimed); the monolithic config is rebuilt
        // wholesale on the restart that follows.
        self.breaks.kernel_break = PtrU8::new(self.breaks.memory_end());
        true
    }
}

/// Builds a legacy backend the way Tock's loader does: allocate the
/// block, place the flash region, recompute the layout the MPU code
/// discarded (§3.2), and redundantly reconfigure the MPU.
fn legacy<M: LegacyRam + Clone + 'static>(
    mpu: M,
    at: Loading<'_>,
) -> Result<Box<dyn MemoryOps>, ProcessError> {
    let image = at.image;
    let mut config = M::MpuConfig::default();
    let (start, size) = mpu
        .allocate_app_mem_region(
            at.unalloc_start,
            at.unalloc_size,
            image.min_ram_size,
            image.min_ram_size,
            image.kernel_reserved,
            Permissions::ReadWriteOnly,
            &mut config,
        )
        .ok_or(ProcessError::NoMemory)?;
    mpu.allocate_flash_region(
        image.flash_start,
        image.flash_size,
        Permissions::ReadExecuteOnly,
        &mut config,
    )
    .ok_or(ProcessError::NoMemory)?;
    let recomputed = recompute_breaks(
        start.as_usize(),
        size,
        image.min_ram_size,
        image.kernel_reserved,
    );
    mpu.configure_mpu(&config);
    let breaks = AppBreaks {
        memory_start: PtrU8::new(recomputed.memory_start),
        memory_size: recomputed.memory_size,
        app_break: PtrU8::new(recomputed.app_break),
        // Grant allocations grow down from the block top; the
        // `kernel_reserved` bytes are a sizing budget, not a pre-carved
        // region.
        kernel_break: PtrU8::new(start.as_usize() + size),
        flash_start: image.flash_start,
        flash_size: image.flash_size,
    };
    Ok(Box::new(Legacy {
        mpu,
        config,
        breaks,
        cache: Rc::clone(at.machine.cache()),
    }))
}

// ---------------------------------------------------------------------
// Granular backend, generic over the paper's MPU abstraction.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct Granular<M: Mpu + Clone> {
    mpu: M,
    alloc: AppMemoryAllocator<M>,
    /// This process's pid — the first half of the commit-cache key.
    pid: u32,
    /// The machine's commit cache, shared with every backend on the same
    /// protection unit.
    cache: Rc<CommitCache>,
}

impl<M: Mpu + Clone> fmt::Debug for Granular<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Granular")
            .field("breaks", &self.alloc.breaks)
            .finish_non_exhaustive()
    }
}

impl<M: Mpu + Clone + 'static> MemoryOps for Granular<M>
where
    M::Region: PartialEq,
{
    fn breaks(&self) -> &AppBreaks {
        &self.alloc.breaks
    }

    fn brk(&mut self, new_break: PtrU8) -> Result<(), ProcessError> {
        match self.alloc.update_app_memory(new_break) {
            Ok(()) => Ok(()),
            Err(UpdateError::InvalidBreak) => Err(ProcessError::Invalid),
            Err(_) => Err(ProcessError::NoMemory),
        }
    }

    fn allocate_grant(&mut self, size: usize) -> Result<PtrU8, ProcessError> {
        self.alloc
            .allocate_grant(size)
            .map_err(|_| ProcessError::NoMemory)
    }

    fn buffer_in_ram(&self, addr: PtrU8, len: usize) -> bool {
        self.alloc.buffer_in_app_memory(addr, len)
    }

    fn setup_mpu(&self) {
        // The commit-cache hit path: the register file still holds this
        // process's configuration at this generation, so skip the commit
        // and only re-arm protection (one MPU_CTRL write on ARM, nothing
        // on PMP). Since PR 4 the hit path *verifies* rather than
        // assumes: the live registers must equal the staged logical view
        // (`hardware_matches` charges no cycles), so a register file
        // corrupted behind the cache's back — an injected bit flip — can
        // never be re-armed off a stale hit; it is recommitted instead.
        if self.cache.lookup(self.pid, self.alloc.generation()) {
            if self.mpu.hardware_matches(self.alloc.regions.as_slice()) {
                tt_contracts::invariant!(
                    "Process::setup_mpu cache hit: hardware == staged regions",
                    self.mpu.hardware_matches(self.alloc.regions.as_slice())
                );
                self.mpu.reenable_mpu();
                return;
            }
            self.cache.invalidate();
        }
        self.alloc.configure_mpu(&self.mpu);
        self.cache.note_committed(self.pid, self.alloc.generation());
    }

    fn mpu_ready(&self) -> bool {
        self.cache.lookup(self.pid, self.alloc.generation())
            && self.mpu.hardware_matches(self.alloc.regions.as_slice())
    }

    fn rearm_mpu(&self) {
        self.mpu.reenable_mpu();
    }

    fn recover(&mut self) -> bool {
        self.alloc.reclaim_grants().is_ok() && self.alloc.rederive_regions().is_ok()
    }

    fn mpu_consistent(&self) -> bool {
        self.mpu.hardware_matches(self.alloc.regions.as_slice())
    }

    fn generation(&self) -> Option<u64> {
        Some(self.alloc.generation())
    }

    fn same_state(&self, other: &dyn MemoryOps) -> bool {
        let other: &dyn std::any::Any = other;
        other.downcast_ref::<Self>().is_some_and(|o| {
            self.pid == o.pid
                && self.alloc.breaks == o.alloc.breaks
                && self.alloc.regions == o.alloc.regions
        })
    }
}

/// Builds a granular backend: the allocator lays out the block and
/// stages its regions, and the backend commits them once.
fn granular<M: Mpu + Clone + 'static>(
    mpu: M,
    at: Loading<'_>,
) -> Result<Box<dyn MemoryOps>, ProcessError>
where
    M::Region: PartialEq,
{
    let image = at.image;
    let alloc = AppMemoryAllocator::<M>::allocate_app_memory(
        at.unalloc_start,
        at.unalloc_size,
        image.min_ram_size,
        image.min_ram_size,
        image.kernel_reserved,
        image.flash_start,
        image.flash_size,
    )
    .map_err(|_| ProcessError::NoMemory)?;
    alloc.configure_mpu(&mpu);
    Ok(Box::new(Granular {
        mpu,
        alloc,
        pid: at.pid as u32,
        cache: Rc::clone(at.machine.cache()),
    }))
}

// ---------------------------------------------------------------------
// Process.
// ---------------------------------------------------------------------

/// A loaded process.
#[derive(Debug)]
pub struct Process {
    /// Process identifier.
    pub pid: usize,
    /// The app image this process was loaded from.
    pub image: AppImage,
    /// Run state.
    pub state: ProcessState,
    /// Console output accumulated via the console capsule.
    pub console: String,
    /// Read-only allowed buffer (addr, len), if any.
    pub allow_ro: Option<(PtrU8, usize)>,
    /// Read-write allowed buffer (addr, len), if any.
    pub allow_rw: Option<(PtrU8, usize)>,
    /// Grant allocations: (grant id, address, size).
    pub grants: Vec<(usize, PtrU8, usize)>,
    backend: Box<dyn MemoryOps>,
}

impl Clone for Process {
    /// Deep-copies the process for a machine snapshot. The clone's
    /// backend shares the snapshotted machine's hardware and commit-cache
    /// `Rc` handles (see `BackendCopy`), so a restored process
    /// table keeps driving the machine the kernel already owns — restore
    /// never creates a second protection unit.
    fn clone(&self) -> Self {
        Self {
            pid: self.pid,
            image: self.image.clone(),
            state: self.state.clone(),
            console: self.console.clone(),
            allow_ro: self.allow_ro,
            allow_rw: self.allow_rw,
            grants: self.grants.clone(),
            backend: self.backend.clone_box(),
        }
    }

    /// The restore path (`Checkpoint::restore` clones a rung's table into
    /// the live one element-wise): the same copy as [`Process::clone`],
    /// written into the live process's own buffers — image name,
    /// console, grants, a faulted state's reason and, when the backend
    /// types match, the backend box — so restoring a process of the live
    /// shape allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.pid = source.pid;
        self.image.clone_from(&source.image);
        match (&mut self.state, &source.state) {
            (ProcessState::Faulted(live), ProcessState::Faulted(saved)) => live.clone_from(saved),
            (live, saved) => *live = saved.clone(),
        }
        self.console.clone_from(&source.console);
        self.allow_ro = source.allow_ro;
        self.allow_rw = source.allow_rw;
        self.grants.clone_from(&source.grants);
        if !self.backend.restore_from(&*source.backend) {
            self.backend = source.backend.clone_box();
        }
    }
}

/// What a process's backend is built from: its pid, the machine it runs
/// on, its image, and the free RAM it is loaded into.
#[derive(Clone, Copy)]
struct Loading<'a> {
    pid: usize,
    machine: &'a Machine,
    image: &'a AppImage,
    unalloc_start: PtrU8,
    unalloc_size: usize,
}

fn create_backend(flavor: Flavor, at: Loading<'_>) -> Result<Box<dyn MemoryOps>, ProcessError> {
    // Every arm below commits a fresh configuration to the register file,
    // so whatever the cache thought was live is stale from here on. This
    // is what makes restart (and fault-policy respawn) invalidate: a
    // restarted process gets a new backend through this path.
    at.machine.cache().invalidate();
    match (flavor, at.machine.kind()) {
        (Flavor::Legacy(variant), MachineKind::CortexM(hw)) => {
            legacy(LegacyCortexM::new(variant, Rc::clone(hw)), at)
        }
        (Flavor::Legacy(variant), MachineKind::Pmp(hw)) => {
            legacy(LegacyRiscv::new(variant, Rc::clone(hw)), at)
        }
        (Flavor::Granular, MachineKind::CortexM(hw)) => {
            granular(GranularCortexM::new(Rc::clone(hw)), at)
        }
        // The PMP granularity is a chip constant; both supported values
        // instantiate the same generic backend.
        (Flavor::Granular, MachineKind::Pmp(hw)) if hw.borrow().chip().granularity() == 4 => {
            granular(GranularPmp::<4>::new(Rc::clone(hw)), at)
        }
        (Flavor::Granular, MachineKind::Pmp(hw)) => {
            granular(GranularPmp::<8>::new(Rc::clone(hw)), at)
        }
    }
}

impl Process {
    /// Loads a process: allocates its memory block from the RAM pool and
    /// stages the MPU configuration (the Fig. 11 `create` method).
    pub fn create(
        pid: usize,
        flavor: Flavor,
        machine: &Machine,
        image: &AppImage,
        unalloc_start: PtrU8,
        unalloc_size: usize,
    ) -> Result<Self, ProcessError> {
        let backend = tt_hw::cycles::instrument("create", || {
            let at = Loading {
                pid,
                machine,
                image,
                unalloc_start,
                unalloc_size,
            };
            let backend = create_backend(flavor, at)?;
            // Loading dominates create: copy + zero the app's requested
            // RAM (flavour-independent; the paper's ~634k cycles).
            charge_n(Cost::Store, (image.min_ram_size / 2) as u64);
            Ok(backend)
        })?;
        Ok(Self {
            pid,
            image: image.clone(),
            state: ProcessState::Ready,
            console: String::new(),
            allow_ro: None,
            allow_rw: None,
            grants: Vec::new(),
            backend,
        })
    }

    /// The kernel's one view of this process's memory layout: the block,
    /// the app and kernel breaks, and the flash placement.
    pub fn breaks(&self) -> &AppBreaks {
        self.backend.breaks()
    }

    /// Start of the process memory block.
    pub fn memory_start(&self) -> usize {
        self.breaks().memory_start.as_usize()
    }

    /// Total block size (process RAM + grant region).
    pub fn memory_size(&self) -> usize {
        self.breaks().memory_size
    }

    /// Current app break.
    pub fn app_break(&self) -> usize {
        self.breaks().app_break.as_usize()
    }

    /// Current kernel break (grant-region bottom).
    pub fn kernel_break(&self) -> usize {
        self.breaks().kernel_break.as_usize()
    }

    /// The `brk` syscall: set the app break (Fig. 11 `brk`). A break
    /// below the end of a live allow in RAM is refused, in both kernels:
    /// the kernel would keep a handle into memory the process gave up,
    /// and a grant could later be carved out of it.
    pub fn brk(&mut self, new_break: PtrU8) -> Result<(), ProcessError> {
        let ram = self.memory_start()..self.breaks().memory_end();
        let allow_end = [self.allow_ro, self.allow_rw]
            .into_iter()
            .flatten()
            .filter(|(addr, _)| ram.contains(&addr.as_usize()))
            .map(|(addr, len)| addr.as_usize().saturating_add(len))
            .max();
        let backend = &mut self.backend;
        tt_hw::cycles::instrument("brk", || {
            charge_n(Cost::Alu, 1); // The allow high-water compare.
            if allow_end.is_some_and(|end| new_break.as_usize() < end) {
                return Err(ProcessError::Invalid);
            }
            backend.brk(new_break)
        })
    }

    /// The `sbrk` syscall: grow or shrink by a signed delta.
    pub fn sbrk(&mut self, delta: isize) -> Result<PtrU8, ProcessError> {
        charge_n(Cost::Alu, 2);
        let current = self.app_break();
        let target = if delta >= 0 {
            current.checked_add(delta as usize)
        } else {
            current.checked_sub(delta.unsigned_abs())
        }
        .ok_or(ProcessError::Invalid)?;
        self.brk(PtrU8::new(target))?;
        Ok(PtrU8::new(target))
    }

    /// Allocates `size` bytes of grant memory (Fig. 11 `allocate_grant`).
    pub fn allocate_grant(&mut self, grant_id: usize, size: usize) -> Result<PtrU8, ProcessError> {
        let backend = &mut self.backend;
        let ptr = tt_hw::cycles::instrument("allocate_grant", || backend.allocate_grant(size))?;
        self.grants.push((grant_id, ptr, size));
        Ok(ptr)
    }

    /// Returns the grant allocation for `grant_id`, if any.
    pub fn grant(&self, grant_id: usize) -> Option<(PtrU8, usize)> {
        self.grants
            .iter()
            .find(|(id, _, _)| *id == grant_id)
            .map(|(_, p, s)| (*p, *s))
    }

    /// Validates and builds a read-write buffer handle from an `allow_rw`
    /// syscall (Fig. 11 `build_readwrite_buffer`).
    pub fn build_readwrite_buffer(&mut self, addr: PtrU8, len: usize) -> Result<(), ProcessError> {
        let backend = &self.backend;
        let ok = tt_hw::cycles::instrument("build_readwrite_buffer", || {
            // Building the ReadWriteProcessBuffer value itself (stores,
            // lifetime bookkeeping) costs the same in both kernels.
            charge_n(Cost::Store, 18);
            charge_n(Cost::Alu, 36);
            backend.buffer_in_ram(addr, len)
        });
        if !ok {
            return Err(ProcessError::Invalid);
        }
        self.allow_rw = Some((addr, len));
        Ok(())
    }

    /// Validates and builds a read-only buffer handle from an `allow_ro`
    /// syscall (Fig. 11 `build_readonly_buffer`). Read-only buffers may
    /// also live in the process's flash.
    pub fn build_readonly_buffer(&mut self, addr: PtrU8, len: usize) -> Result<(), ProcessError> {
        let backend = &self.backend;
        let ok = tt_hw::cycles::instrument("build_readonly_buffer", || {
            // Read-only buffers may point into flash, so the wrapper type
            // carries extra provenance checks in both kernels.
            charge_n(Cost::Store, 18);
            charge_n(Cost::Alu, 36);
            charge_n(Cost::Alu, 32);
            if backend.buffer_in_ram(addr, len) {
                return true;
            }
            charge_n(Cost::Branch, 2);
            charge_n(Cost::Alu, 1);
            let b = backend.breaks();
            let flash = b.flash_start.as_usize();
            within(addr.as_usize(), len, flash, flash + b.flash_size)
        });
        if !ok {
            return Err(ProcessError::Invalid);
        }
        self.allow_ro = Some((addr, len));
        Ok(())
    }

    /// Writes this process's MPU configuration into the hardware, run at
    /// every context switch into the process (Fig. 11 `setup_mpu`).
    pub fn setup_mpu(&self) {
        tt_hw::trace::record(tt_hw::trace::TraceEvent::MpuCommit {
            pid: self.pid as u32,
        });
        let backend = &self.backend;
        tt_hw::cycles::instrument("setup_mpu", || backend.setup_mpu())
    }

    /// Whether a [`Self::setup_mpu`] right now would take the elided
    /// (cache-hit) path: the register file already holds this process's
    /// configuration at the current generation. Pure query — no cache
    /// stamp, no hardware write, no trace event.
    pub fn mpu_ready(&self) -> bool {
        self.backend.mpu_ready()
    }

    /// The elided half of a commit: re-arm protection without rewriting
    /// the staged configuration. Records the same [`MpuCommit`] event as
    /// [`Self::setup_mpu`] — logically it *is* the commit point — so a
    /// kernel that splits verdict from action stays trace-identical to
    /// one that uses `setup_mpu` whenever the split verdict is fresh.
    /// Only sound when [`Self::mpu_ready`] holds at the moment of the
    /// call.
    ///
    /// [`MpuCommit`]: tt_hw::trace::TraceEvent::MpuCommit
    pub fn rearm_mpu(&self) {
        tt_hw::trace::record(tt_hw::trace::TraceEvent::MpuCommit {
            pid: self.pid as u32,
        });
        let backend = &self.backend;
        tt_hw::cycles::instrument("setup_mpu", || backend.rearm_mpu())
    }

    /// Re-commits this process's configuration after the simulated
    /// interrupt service routine perturbed the register file (a
    /// front-run restart committed another process's configuration) —
    /// the exception-return epilogue of `Kernel::interrupt_now`. Unlike
    /// [`Self::setup_mpu`] this records no `MpuCommit` trace event: it
    /// is interrupt plumbing, not a scheduling commit point, and the
    /// explorer's oracle compares scheduled runs against references that
    /// never take an interrupt.
    pub fn restore_mpu_after_irq(&self) {
        let backend = &self.backend;
        tt_hw::cycles::instrument("setup_mpu", || backend.setup_mpu())
    }

    /// Marks the process faulted with a reason (MPU violation, bad
    /// syscall, …).
    pub fn fault(&mut self, reason: impl Into<String>) {
        self.state = ProcessState::Faulted(reason.into());
    }

    /// Fault recovery: drops every kernel handle into this process's
    /// memory (grants, allowed buffers), reclaims the grant region, and
    /// re-derives the staged protection state from the surviving break
    /// pointers. Returns `false` if re-derivation failed (the process
    /// can then only be killed).
    pub fn recover(&mut self) -> bool {
        self.grants.clear();
        self.allow_ro = None;
        self.allow_rw = None;
        self.backend.recover()
    }

    /// Whether `other` is this process in the same state, up to the
    /// allocator generation: two runs that reach the same layout hold
    /// different generations (each layout change draws a fresh one from
    /// a thread-global counter), and all a generation decides is whether
    /// the commit cache's key names the current layout — which the
    /// caller compares through [`Self::generation`].
    pub(crate) fn same_state(&self, other: &Process) -> bool {
        self.pid == other.pid
            && self.state == other.state
            && self.allow_ro == other.allow_ro
            && self.allow_rw == other.allow_rw
            && self.grants == other.grants
            && self.console == other.console
            && self.image == other.image
            && self.backend.same_state(&*other.backend)
    }

    /// The allocator generation the commit cache keys this process's
    /// configuration by (`None` for legacy backends).
    pub(crate) fn generation(&self) -> Option<u64> {
        self.backend.generation()
    }

    /// Whether the live protection hardware still matches this process's
    /// staged configuration. Used by the kernel's switch-out scrub to
    /// detect silent register corruption; trivially `true` for legacy
    /// backends, which keep no staged logical view.
    pub fn mpu_consistent(&self) -> bool {
        self.backend.mpu_consistent()
    }

    /// A memory-layout report, printed by fault handling and by the
    /// `stack_growth` release test — the output the paper *expects* to
    /// differ between Tock and TickTock (§6.1).
    ///
    /// Text as [`Self::write_layout_report`] appends it.
    pub fn layout_report(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write_layout_report(&mut out);
        out
    }

    /// Appends the layout report to `out`, the form the kernel's fault
    /// path writes straight into its fault-log line.
    ///
    /// Built by hand rather than with `format!`: every injected fleet run
    /// faults the victim at least once, and the formatting machinery was
    /// a visible slice of the fault path in the campaign profile. Output
    /// is byte-identical to the original
    /// `mem {:#010x}..{:#010x} app_break {:#010x} kernel_break {:#010x}
    /// flash {:#010x}+{:#x}` format string.
    pub fn write_layout_report(&self, out: &mut String) {
        out.push_str("mem ");
        push_hex(out, self.memory_start(), 8);
        out.push_str("..");
        push_hex(out, self.memory_start() + self.memory_size(), 8);
        out.push_str(" app_break ");
        push_hex(out, self.app_break(), 8);
        out.push_str(" kernel_break ");
        push_hex(out, self.kernel_break(), 8);
        out.push_str(" flash ");
        push_hex(out, self.image.flash_start.as_usize(), 8);
        out.push('+');
        push_hex(out, self.image.flash_size, 1);
    }
}

/// Whether `addr..addr + len` lies in `lo..hi`. Checked: a hostile `len`
/// that wraps the end address lies nowhere.
pub(crate) fn within(addr: usize, len: usize, lo: usize, hi: usize) -> bool {
    addr >= lo && addr.checked_add(len).is_some_and(|end| end <= hi)
}

/// Appends `v` as `0x`-prefixed lowercase hex, zero-padded to at least
/// `min_digits` — `{:#0N$x}` without the `core::fmt` dispatch.
fn push_hex(out: &mut String, v: usize, min_digits: u32) {
    out.push_str("0x");
    let natural = (usize::BITS - v.leading_zeros()).div_ceil(4).max(1);
    for i in (0..natural.max(min_digits)).rev() {
        let d = (v >> (i * 4)) & 0xF;
        out.push(char::from_digit(d as u32, 16).expect("nibble"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::flash_app;
    use tt_hw::platform::{ChipProfile, ALL_CHIPS, NRF52840DK};

    fn image_for(chip: &ChipProfile) -> AppImage {
        let mut mem = chip.memory();
        flash_app(
            &mut mem,
            chip.map.flash.start + 0x4_0000,
            "t",
            0x1000,
            3000,
            1024,
        )
        .unwrap()
    }

    fn both_flavors() -> [Flavor; 2] {
        [Flavor::Legacy(BugVariant::Fixed), Flavor::Granular]
    }

    fn all_flavors() -> [Flavor; 3] {
        [
            Flavor::Legacy(BugVariant::Buggy),
            Flavor::Legacy(BugVariant::Fixed),
            Flavor::Granular,
        ]
    }

    fn mk_on(chip: &ChipProfile, flavor: Flavor) -> Process {
        let img = image_for(chip);
        let machine = Machine::for_chip(chip);
        Process::create(
            0,
            flavor,
            &machine,
            &img,
            PtrU8::new(chip.map.ram.start),
            chip.map.ram.len(),
        )
        .unwrap()
    }

    fn mk(flavor: Flavor) -> Process {
        mk_on(&NRF52840DK, flavor)
    }

    #[test]
    fn create_produces_consistent_layout_on_every_chip_and_flavor() {
        for chip in &ALL_CHIPS {
            for flavor in both_flavors() {
                let p = mk_on(chip, flavor);
                assert!(
                    p.memory_start() >= chip.map.ram.start,
                    "{} {flavor:?}",
                    chip.name
                );
                assert!(p.app_break() > p.memory_start());
                assert!(p.kernel_break() > p.app_break());
                assert!(p.kernel_break() <= p.memory_start() + p.memory_size());
                assert_eq!(p.state, ProcessState::Ready);
            }
        }
    }

    #[test]
    fn brk_moves_break_in_both_flavors() {
        for flavor in both_flavors() {
            let mut p = mk(flavor);
            let target = p.memory_start() + 1024;
            p.brk(PtrU8::new(target)).unwrap();
            assert_eq!(p.app_break(), target, "{flavor:?}");
            // Past the kernel break: rejected.
            assert!(p.brk(PtrU8::new(p.kernel_break() + 64)).is_err());
        }
    }

    #[test]
    fn sbrk_deltas() {
        for flavor in both_flavors() {
            let mut p = mk(flavor);
            let before = p.app_break();
            p.sbrk(-256).unwrap();
            assert_eq!(p.app_break(), before - 256);
            p.sbrk(128).unwrap();
            assert_eq!(p.app_break(), before - 128);
        }
    }

    #[test]
    fn grant_allocation_descends_from_block_top() {
        for chip in &ALL_CHIPS {
            for flavor in both_flavors() {
                let mut p = mk_on(chip, flavor);
                let kb0 = p.kernel_break();
                let g1 = p.allocate_grant(1, 128).unwrap();
                let g2 = p.allocate_grant(2, 128).unwrap();
                assert!(g1.as_usize() < kb0);
                assert!(g2 < g1);
                assert_eq!(p.grant(1), Some((g1, 128)));
                assert_eq!(p.grant(2), Some((g2, 128)));
                assert_eq!(p.grant(3), None);
            }
        }
    }

    #[test]
    fn grant_exhaustion_errors_in_both_flavors() {
        for flavor in both_flavors() {
            let mut p = mk(flavor);
            let mut n = 0;
            while p.allocate_grant(n, 256).is_ok() {
                n += 1;
                assert!(n < 64, "runaway grant allocation under {flavor:?}");
            }
            assert!(n >= 2, "expected a few grants to fit under {flavor:?}");
        }
    }

    #[test]
    fn buffer_validation_accepts_ram_and_flash_ro() {
        for chip in &ALL_CHIPS {
            for flavor in all_flavors() {
                let mut p = mk_on(chip, flavor);
                let ms = p.memory_start();
                p.build_readwrite_buffer(PtrU8::new(ms + 64), 128).unwrap();
                assert_eq!(p.allow_rw, Some((PtrU8::new(ms + 64), 128)));
                // RW in flash: rejected.
                assert!(p.build_readwrite_buffer(p.image.flash_start, 64).is_err());
                // RO in flash: accepted.
                p.build_readonly_buffer(p.image.flash_start, 64).unwrap();
                // Grant region: rejected both ways.
                assert!(p
                    .build_readwrite_buffer(PtrU8::new(p.kernel_break()), 32)
                    .is_err());
                assert!(p
                    .build_readonly_buffer(PtrU8::new(p.kernel_break()), 32)
                    .is_err());

                // The boundary table: (addr, len, read-write verdict,
                // read-only verdict).
                let (ab, kb) = (p.app_break(), p.kernel_break());
                let fs = p.image.flash_start.as_usize();
                let fe = fs + p.image.flash_size;
                let rows = [
                    (ms - 4, 8, false, false),
                    (ms, 8, true, true),
                    (ab - 8, 8, true, true),
                    (ab - 8, 16, false, false),
                    (kb, 8, false, false),
                    (ms, usize::MAX, false, false),
                    (fs, 8, false, true),
                    (fe - 8, 16, false, false),
                ];
                for (addr, len, rw, ro) in rows {
                    let at = format!("{} {flavor:?} {addr:#x}+{len:#x}", chip.name);
                    let rw_ok = p.build_readwrite_buffer(PtrU8::new(addr), len).is_ok();
                    let ro_ok = p.build_readonly_buffer(PtrU8::new(addr), len).is_ok();
                    assert_eq!((rw_ok, ro_ok), (rw, ro), "{at}");
                    if rw_ok {
                        assert!(within(addr, len, ms, ab), "{at}: RW outside RAM");
                    }
                    if ro_ok && !within(addr, len, ms, ab) {
                        assert!(within(addr, len, fs, fe), "{at}: RO outside flash");
                    }
                    if addr.checked_add(len).is_none() {
                        assert!(!rw_ok && !ro_ok, "{at}: wrapping length accepted");
                    }
                }
            }
        }
    }

    #[test]
    fn restore_reuses_the_backend_of_every_type() {
        for chip in &ALL_CHIPS {
            for flavor in all_flavors() {
                let img = image_for(chip);
                let machine = Machine::for_chip(chip);
                let ram = chip.map.ram;
                let mut live =
                    Process::create(0, flavor, &machine, &img, PtrU8::new(ram.start), ram.len())
                        .unwrap();
                let next = live.memory_start() + live.memory_size();
                let mut source =
                    Process::create(1, flavor, &machine, &img, PtrU8::new(next), ram.end - next)
                        .unwrap();
                source.sbrk(-256).unwrap();
                source.allocate_grant(7, 128).unwrap();
                let ms = source.memory_start();
                source.build_readwrite_buffer(PtrU8::new(ms), 64).unwrap();
                source.build_readonly_buffer(img.flash_start, 32).unwrap();
                let at = format!("{} {flavor:?}", chip.name);
                assert_ne!(live.breaks(), source.breaks(), "{at}");

                let box_of = |p: &Process| &*p.backend as *const dyn MemoryOps as *const ();
                let before = box_of(&live);
                live.clone_from(&source);
                assert_eq!(live.breaks(), source.breaks(), "{at}");
                assert_eq!(live.grants, source.grants, "{at}");
                assert_eq!(
                    (live.allow_ro, live.allow_rw),
                    (source.allow_ro, source.allow_rw),
                    "{at}"
                );
                assert_eq!(box_of(&live), before, "{at}: backend box reallocated");
            }
        }
    }

    #[test]
    fn setup_mpu_configures_hardware_for_isolation_on_every_chip() {
        use tt_hw::mem::{AccessType, Privilege};
        for chip in &ALL_CHIPS {
            for flavor in both_flavors() {
                let img = image_for(chip);
                let machine = Machine::for_chip(chip);
                let p = Process::create(
                    0,
                    flavor,
                    &machine,
                    &img,
                    PtrU8::new(chip.map.ram.start),
                    chip.map.ram.len(),
                )
                .unwrap();
                p.setup_mpu();
                let user = |addr, acc| {
                    machine
                        .check(addr, 4, acc, Privilege::Unprivileged)
                        .allowed()
                };
                assert!(
                    user(p.memory_start(), AccessType::Write),
                    "{} {flavor:?}: own RAM",
                    chip.name
                );
                assert!(
                    !user(p.kernel_break(), AccessType::Write),
                    "{} {flavor:?}: grant protected",
                    chip.name
                );
                assert!(
                    user(img.flash_start.as_usize(), AccessType::Execute),
                    "{} {flavor:?}: flash executable",
                    chip.name
                );
                assert!(
                    !user(img.flash_start.as_usize(), AccessType::Write),
                    "{} {flavor:?}: flash not writable",
                    chip.name
                );
            }
        }
    }

    #[test]
    fn granular_grant_is_cheaper_than_legacy() {
        // The Fig. 11 allocate_grant shape: granular ≈ half the cycles.
        let mut legacy = mk(Flavor::Legacy(BugVariant::Fixed));
        let mut granular = mk(Flavor::Granular);
        tt_hw::cycles::reset();
        let ((), legacy_cycles) = tt_hw::cycles::measure(|| {
            legacy.allocate_grant(0, 128).unwrap();
        });
        let ((), granular_cycles) = tt_hw::cycles::measure(|| {
            granular.allocate_grant(0, 128).unwrap();
        });
        assert!(
            (granular_cycles as f64) < legacy_cycles as f64 * 0.7,
            "granular {granular_cycles} vs legacy {legacy_cycles}"
        );
    }

    #[test]
    fn layout_report_mentions_all_pointers() {
        let p = mk(Flavor::Granular);
        let r = p.layout_report();
        assert!(r.contains("app_break"));
        assert!(r.contains("kernel_break"));
        assert!(r.contains("flash"));
    }
}
