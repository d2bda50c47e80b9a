//! The kernel proper: syscall surface, capsule dispatch, and the
//! round-robin scheduler.
//!
//! One `Kernel` instance boots either flavour ([`Flavor::Legacy`] or
//! [`Flavor::Granular`]) over the same simulated chip, loads processes
//! from flash images, and runs application programs against the real
//! (modelled) MPU: **every user-mode memory access is checked by the
//! protection hardware**, so a misconfigured kernel lets an app read grant
//! memory and a correct one faults it — isolation is observable, not
//! assumed.
//!
//! The process boundary has one path per job: `Kernel::svc` for every SVC
//! but `sys_print`, `Kernel::user_access` for every user-mode access, and
//! `Kernel::allowed`, checked at access time, for every allowed buffer.

use crate::capsules::{driver, Capsules};
use crate::loader::AppImage;
use crate::machine::Machine;
use crate::process::{within, Flavor, Process, ProcessError, ProcessState};
use tt_hw::cycles::{charge, Cost};
use tt_hw::mem::{AccessType, BusFault, FaultKind, PhysicalMemory, Privilege, UnmappedAccess};
use tt_hw::platform::ChipProfile;
use tt_hw::sched::ArrivalPoint;
use tt_hw::trace::{self, RecoveryStep, SwitchDir, SyscallKind, TraceEvent};
use tt_hw::PtrU8;

/// Result of one application step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Keep running within the quantum.
    Continue,
    /// Yield until an upcall arrives.
    Yield,
    /// Exit the process.
    Exit,
}

/// An application program: the simulator's stand-in for a user binary.
///
/// Apps interact with the kernel *only* through the syscall surface and
/// user-mode memory accessors, which are MPU-checked.
pub trait App: std::any::Any {
    /// The app's name (matches its flash image).
    fn name(&self) -> &'static str;
    /// Runs one step of the program.
    fn step(&mut self, kernel: &mut Kernel, pid: usize) -> Step;
    /// Deep-copies the program state mid-run, for machine checkpoints:
    /// a fleet runner that freezes the kernel at a tick boundary must
    /// also freeze where each program was, so every restored run resumes
    /// from an identical program counter. Returning `None` (the default)
    /// marks the app non-resumable; the runner then captures no
    /// checkpoint past boot and every run starts from there.
    fn clone_app(&self) -> Option<Box<dyn App>> {
        None
    }
    /// The program state as one word, for comparing two instances of
    /// this program at the same pid (both built by that pid's factory,
    /// so fields the factory fixes need not be encoded): equal words must
    /// mean equal state. A fleet runner compares it when testing whether
    /// a scheduled run has rejoined its baseline. `None` (the default)
    /// marks the state incomparable, and such runs are simulated to their
    /// end.
    fn state_word(&self) -> Option<u64> {
        None
    }
    /// Writes this program's state into `live`, the program at the same
    /// pid, when a checkpoint holding this copy is restored. The default
    /// replaces `live` with a [`App::clone_app`] copy; the crate's `Clone`
    /// programs override it with `restore_cloned`, which reuses `live`'s
    /// box.
    fn restore_into(&self, live: &mut Box<dyn App>) {
        *live = self
            .clone_app()
            .expect("a checkpointed program is resumable");
    }
}

/// [`App::restore_into`] for a `Clone` program: `saved` is cloned into
/// `live` in place when `live` is the same program type, so restoring
/// it allocates nothing, and boxed afresh otherwise.
pub(crate) fn restore_cloned<A: App + Clone>(saved: &A, live: &mut Box<dyn App>) {
    let any: &mut dyn std::any::Any = &mut **live;
    match any.downcast_mut::<A>() {
        Some(live) => live.clone_from(saved),
        None => *live = Box::new(saved.clone()),
    }
}

/// Syscall error codes (a subset of Tock's `ErrorCode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Generic failure.
    Fail,
    /// Invalid parameters.
    Invalid,
    /// Out of memory.
    NoMem,
    /// No such driver.
    NoDevice,
}

/// A kernel access to memory the chip does not map fails the call.
impl From<UnmappedAccess> for ErrorCode {
    fn from(_: UnmappedAccess) -> Self {
        ErrorCode::Fail
    }
}

impl From<ProcessError> for ErrorCode {
    fn from(e: ProcessError) -> Self {
        match e {
            ProcessError::NoMemory => ErrorCode::NoMem,
            ProcessError::Invalid => ErrorCode::Invalid,
        }
    }
}

/// Scheduler quantum: app steps per slice before preemption.
pub const QUANTUM: u32 = 4;

/// A factory producing a fresh program instance (used on process restart).
pub type AppFactory = fn() -> Box<dyn App>;

/// A delivered upcall: which driver fired and its payload (Tock delivers
/// upcalls only to processes that `subscribe`d to the driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Upcall {
    /// Driver that scheduled the upcall.
    pub driver_num: usize,
    /// Payload value.
    pub value: u32,
}

/// What the kernel does when a process faults (Tock's `FaultPolicy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Leave the process in the faulted state (Tock's `StopFaultPolicy`).
    Stop,
    /// Restart the process, up to `max_restarts` times, then stop
    /// (Tock's `RestartFaultPolicy` + threshold).
    Restart {
        /// Maximum restarts before giving up.
        max_restarts: u32,
    },
    /// Reclaim the process's kernel-held resources and kill it
    /// permanently on the first fault.
    Kill,
    /// Full recovery: reclaim grants, scrub and re-derive the staged
    /// protection state, then restart after an exponentially growing
    /// delay; after `max_restarts` restarts the process is killed for
    /// good (so recovery always converges — no restart livelock).
    RestartWithBackoff {
        /// Restarts allowed before the process is permanently killed.
        max_restarts: u32,
        /// Backoff before the first restart, in ticks (must be ≥ 1).
        base_delay: u64,
        /// Upper bound the doubling backoff saturates at.
        max_delay: u64,
    },
}

/// What a scheduled run's interrupts that changed nothing added up to,
/// for a run that may take its rest from its baseline at an interrupt's
/// return. The fleet run body arms it per run; campaign runs never do.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InertIrqs {
    /// The thread's cycle-read count at which the baseline reads the
    /// counter no more.
    pub(crate) samples: u64,
    /// Trace events the ring holds beyond the baseline's whole trace.
    pub(crate) room: usize,
    /// Trace events the interrupts recorded.
    pub(crate) events: usize,
    /// Cycles the interrupts charged.
    pub(crate) cycles: u64,
}

/// The kernel.
pub struct Kernel {
    /// Which kernel flavour this instance runs.
    pub flavor: Flavor,
    /// The chip profile this kernel was booted on.
    pub chip: ChipProfile,
    /// The chip's physical memory.
    pub mem: PhysicalMemory,
    /// The chip's protection hardware.
    pub machine: Machine,
    /// Loaded processes, indexed by pid.
    pub processes: Vec<Process>,
    /// Capsules (drivers).
    pub capsules: Capsules,
    /// Kernel tick counter (SysTick analogue).
    pub ticks: u64,
    /// Fault log: (pid, report). Fault reports include the memory layout,
    /// as Tock's process fault printer does.
    pub fault_log: Vec<(usize, String)>,
    /// Registered IPC service pids.
    pub ipc_services: Vec<usize>,
    /// Fault policy applied by the scheduler.
    pub fault_policy: FaultPolicy,
    /// Restart counts per pid.
    pub restarts: Vec<u32>,
    /// Number of fault recoveries performed per pid.
    pub recoveries: Vec<u32>,
    /// Cycles spent in fault recovery (scrub + re-derive + restart) per
    /// pid — the campaign's recovery-latency metric.
    pub recovery_cycles: Vec<u64>,
    /// When `true`, the scheduler verifies at every switch-out that the
    /// register file still matches the outgoing process's staged
    /// configuration, faulting the process on divergence. This turns
    /// silent permission-widening register corruption into an ordinary
    /// recoverable fault. Off by default (the check never fires without
    /// fault injection, but the knob keeps the baseline scheduler loop
    /// byte-identical to PR 3).
    pub mpu_scrub: bool,
    /// PLANTED BUG knob for the schedule explorer's regression tests
    /// (default `false`, never set outside them). When on, the
    /// commit-boundary path (`Kernel::commit_mpu`) computes its
    /// elide-the-commit verdict *before* the interrupt arrival window and
    /// acts on it *after* — a classic TOCTOU. With no interrupt in the
    /// window the verdict is still fresh and the kernel behaves
    /// correctly (which is why seed-only campaigns cannot see this); an
    /// interrupt that rewrites the register file inside the window (a
    /// front-run restart) makes the stale verdict re-arm another
    /// process's configuration without recommitting.
    pub commit_window_bug: bool,
    /// Tick at which a faulted process's backoff restart is due, per pid.
    /// `pub(crate)` (like the fields below) so [`crate::snapshot`] can
    /// capture and restore it without widening the public API.
    pub(crate) restart_due: Vec<Option<u64>>,
    /// Set when the interrupt service routine front-ran a backoff restart
    /// (`Kernel::interrupt_now`): the kernel side is done but the fresh
    /// program instance cannot be installed from inside a syscall (the
    /// `apps` slice lives with the scheduler). The scheduler consumes the
    /// flag before next stepping the pid.
    pub(crate) pending_respawn: Vec<bool>,
    /// Pending upcall per pid.
    pub(crate) upcalls: Vec<Option<Upcall>>,
    /// Driver subscriptions per pid.
    pub(crate) subscriptions: Vec<Vec<usize>>,
    /// Next unallocated RAM address for process loading.
    pub(crate) ram_cursor: usize,
    pub(crate) ram_end: usize,
    /// Armed by a scheduled run that may rejoin its baseline; disarmed
    /// by an interrupt that changed something (`Kernel::interrupt_now`).
    pub(crate) inert_irqs: Option<InertIrqs>,
    /// Set by an interrupt, on an armed run, once the run may stop: the
    /// run loop returns at the end of the current app step.
    pub(crate) stop_at_step: bool,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("flavor", &self.flavor)
            .field("processes", &self.processes.len())
            .field("ticks", &self.ticks)
            .finish_non_exhaustive()
    }
}

impl Kernel {
    /// Boots a kernel of the given flavour on a chip profile.
    pub fn boot(flavor: Flavor, chip: &ChipProfile) -> Self {
        Self {
            flavor,
            chip: *chip,
            mem: chip.memory(),
            machine: Machine::for_chip(chip),
            processes: Vec::new(),
            capsules: Capsules::new(),
            ticks: 0,
            fault_log: Vec::new(),
            ipc_services: Vec::new(),
            fault_policy: FaultPolicy::Stop,
            restarts: Vec::new(),
            recoveries: Vec::new(),
            recovery_cycles: Vec::new(),
            mpu_scrub: false,
            commit_window_bug: false,
            restart_due: Vec::new(),
            pending_respawn: Vec::new(),
            upcalls: Vec::new(),
            subscriptions: Vec::new(),
            ram_cursor: chip.map.ram.start,
            ram_end: chip.map.ram.end,
            inert_irqs: None,
            stop_at_step: false,
        }
    }

    /// Loads a process from an app image, carving its block from the
    /// remaining RAM pool. Returns the new pid.
    pub fn load_process(&mut self, image: &AppImage) -> Result<usize, ProcessError> {
        let pid = self.processes.len();
        let process = Process::create(
            pid,
            self.flavor,
            &self.machine,
            image,
            PtrU8::new(self.ram_cursor),
            self.ram_end - self.ram_cursor,
        )?;
        self.ram_cursor = process.memory_start() + process.memory_size();
        self.processes.push(process);
        self.upcalls.push(None);
        self.subscriptions.push(Vec::new());
        self.restarts.push(0);
        self.recoveries.push(0);
        self.recovery_cycles.push(0);
        self.restart_due.push(None);
        self.pending_respawn.push(false);
        trace::record(TraceEvent::ProcessLoad { pid: pid as u32 });
        Ok(pid)
    }

    /// Restarts a faulted process: re-creates its memory block in place
    /// (same pool slot), clearing grants, buffers and breaks, as Tock's
    /// restart policy does.
    pub fn restart_process(&mut self, pid: usize) -> Result<(), ProcessError> {
        let image = self.processes[pid].image.clone();
        let start = self.processes[pid].memory_start();
        let size = self.processes[pid].memory_size();
        let fresh = Process::create(
            pid,
            self.flavor,
            &self.machine,
            &image,
            PtrU8::new(start),
            size,
        )?;
        // Preserve the console transcript across the restart so test
        // output shows the full history.
        let console = std::mem::take(&mut self.processes[pid].console);
        self.processes[pid] = fresh;
        self.processes[pid].console = console;
        self.upcalls[pid] = None;
        self.subscriptions[pid].clear();
        self.restarts[pid] += 1;
        self.restart_due[pid] = None;
        trace::record(TraceEvent::ProcessRestart { pid: pid as u32 });
        Ok(())
    }

    /// A due backoff restart: [`Self::restart_process`], its cycles
    /// charged to `pid`'s recovery; a restart that fails kills the process
    /// for good. Returns whether it restarted.
    fn restart_or_kill(&mut self, pid: usize) -> bool {
        let (restarted, cycles) = tt_hw::cycles::measure(|| self.restart_process(pid));
        self.recovery_cycles[pid] += cycles;
        if restarted.is_err() {
            trace::record(TraceEvent::Recovery {
                pid: pid as u32,
                step: RecoveryStep::RestartExhausted,
            });
            self.kill_process(pid);
        }
        restarted.is_ok()
    }

    // ---- Interrupt arrival points (schedule explorer) -----------------

    /// One arrival-point hook. With no schedule armed this is a single
    /// thread-local flag load ([`tt_hw::sched::arrival`]'s fast path);
    /// with a schedule armed it counts the occurrence and, when the
    /// schedule names this one, services the interrupt right here —
    /// *inside* whatever kernel boundary the caller placed the hook at.
    ///
    /// `pid` is the process context the interrupt lands in (the one
    /// whose slice or syscall is being cut).
    fn maybe_interrupt(&mut self, pid: usize, point: ArrivalPoint) {
        if tt_hw::sched::arrival(point) {
            self.interrupt_now(pid, point);
        }
    }

    /// The simulated timer interrupt service routine: models the SysTick
    /// for tick `t+1` firing *early*, at an adversarial boundary inside
    /// tick `t`. It front-runs exactly the timer work the scheduler
    /// would otherwise do at the top of the next tick — due alarms and
    /// due backoff restarts — so in a correct kernel a scheduled run
    /// reorders work across the boundary without inventing or losing
    /// any.
    ///
    /// A front-run restart rewrites the register file to the restarted
    /// process's configuration. On exception return the ISR therefore
    /// re-commits the *interrupted* process's configuration — except at
    /// [`MpuCommit`](ArrivalPoint::MpuCommit) arrivals,
    /// where the definition of the point is that an unconditional commit
    /// follows immediately (see `Kernel::commit_mpu`); skipping the
    /// epilogue there is precisely what makes the commit boundary the
    /// window the planted bug falls into.
    ///
    /// On a run armed with [`InertIrqs`], an interrupt that fired no
    /// alarm and ran no restart changed nothing but the trace and the
    /// cycle counter: it adds its events and cycles to the count. Once
    /// the schedule is spent, and if the baseline reads the counter
    /// nowhere past here, it sets `stop_at_step`. Any other interrupt, or
    /// a baseline still reading the counter, disarms the run.
    pub(crate) fn interrupt_now(&mut self, pid: usize, point: ArrivalPoint) {
        let ring = || trace::with_events(|events| (events.len(), events.dropped));
        let before = self.inert_irqs.map(|_| (ring().0, tt_hw::cycles::now()));
        trace::record(TraceEvent::IrqEnter {
            pid: pid as u32,
            point,
        });
        charge(Cost::Exception); // Interrupt entry.
        let horizon = self.ticks + 1;
        let alarms = self.capsules.fire_due_alarms(horizon);
        let alarmed = !alarms.is_empty();
        for (p, value) in alarms {
            self.deliver_upcall(p, driver::ALARM, value);
        }
        let mut perturbed = false;
        for v in 0..self.processes.len() {
            if self.restart_due[v].is_some_and(|due| horizon >= due) {
                self.restart_due[v] = None;
                // The program respawn needs the scheduler's `apps` slice;
                // defer it (consumed before `v` next steps).
                self.pending_respawn[v] = self.restart_or_kill(v);
                perturbed = true;
            }
        }
        if perturbed && point != ArrivalPoint::MpuCommit {
            // Exception-return epilogue: the restart committed another
            // process's configuration; re-program the interrupted
            // process's before resuming it. Quiet (no `MpuCommit` event):
            // this is interrupt plumbing, not a scheduling commit point,
            // and the oracle compares scheduled runs against references
            // that never take an interrupt.
            self.processes[pid].restore_mpu_after_irq();
        }
        charge(Cost::Exception); // Interrupt return.
        trace::record(TraceEvent::IrqExit { pid: pid as u32 });
        if let Some((len, cycles)) = before {
            let (end, dropped) = ring();
            self.inert_irqs = self.inert_irqs.and_then(|mut inert| {
                inert.events += end - len;
                inert.cycles += tt_hw::cycles::now().wrapping_sub(cycles);
                let inert_here = !alarmed
                    && !perturbed
                    && dropped == 0
                    && inert.events <= inert.room
                    && tt_hw::cycles::samples() == inert.samples;
                inert_here.then_some(inert)
            });
            self.stop_at_step = self.inert_irqs.is_some() && tt_hw::sched::exhausted();
        }
    }

    /// Commits `pid`'s protection configuration at a scheduling boundary
    /// — the stage→commit window the schedule explorer probes, hooked as
    /// an [`MpuCommit`](ArrivalPoint::MpuCommit) arrival
    /// point *before* the commit.
    ///
    /// Correct kernel: whatever an interrupt inside the window did to
    /// the register file, `setup_mpu` below re-establishes this
    /// process's configuration — its elide verdict and the elide action
    /// are atomic with respect to the window. With
    /// [`Kernel::commit_window_bug`] set, verdict and action straddle
    /// the window instead: a stale "hardware already matches" verdict
    /// re-arms whatever the interrupt left in the register file.
    fn commit_mpu(&mut self, pid: usize) {
        let elide = self.commit_window_bug && self.processes[pid].mpu_ready();
        self.maybe_interrupt(pid, ArrivalPoint::MpuCommit);
        if elide {
            self.processes[pid].rearm_mpu();
        } else {
            self.processes[pid].setup_mpu();
        }
    }

    // ---- User-mode memory access (MPU-checked) ------------------------

    fn user_check(&self, addr: usize, size: usize, access: AccessType) -> Result<(), BusFault> {
        // An armed UserAccess injection forces a denial the hardware
        // would not have produced (a glitched bus transaction).
        if tt_hw::injection::force_user_fault() {
            return Err(BusFault {
                addr,
                access,
                kind: FaultKind::PermissionDenied,
            });
        }
        match self
            .machine
            .check(addr, size, access, Privilege::Unprivileged)
        {
            tt_hw::mem::AccessDecision::Allowed => Ok(()),
            tt_hw::mem::AccessDecision::Fault(kind) => Err(BusFault { addr, access, kind }),
        }
    }

    /// The one user-access path: the MPU/PMP check, whose denial
    /// records a `BusFault` event, then the access itself, which misses
    /// on memory the chip does not map. Either failure faults the
    /// process, at every access width.
    fn user_access<T>(
        &mut self,
        pid: usize,
        addr: usize,
        size: usize,
        access: AccessType,
        op: impl FnOnce(&mut PhysicalMemory) -> Result<T, UnmappedAccess>,
    ) -> Result<T, BusFault> {
        let write = access == AccessType::Write;
        charge(if write { Cost::Store } else { Cost::Load });
        let result = match self.user_check(addr, size, access) {
            Ok(()) => op(&mut self.mem).map_err(|_| BusFault {
                addr,
                access,
                kind: FaultKind::Unmapped,
            }),
            Err(f) => {
                trace::record(TraceEvent::BusFault {
                    pid: pid as u32,
                    addr: addr as u32,
                    write,
                });
                Err(f)
            }
        };
        if let Err(f) = result {
            self.fault_with(pid, |out| f.write_reason(out));
        }
        result
    }

    /// A user-mode word read by process `pid` (checked by the MPU exactly
    /// as the AHB would).
    pub fn user_read_u32(&mut self, pid: usize, addr: usize) -> Result<u32, BusFault> {
        self.user_access(pid, addr, 4, AccessType::Read, |mem| mem.read_u32(addr))
    }

    /// A user-mode word write.
    pub fn user_write_u32(&mut self, pid: usize, addr: usize, value: u32) -> Result<(), BusFault> {
        self.user_access(pid, addr, 4, AccessType::Write, |mem| {
            mem.write_u32(addr, value)
        })
    }

    /// A user-mode byte write.
    pub fn user_write_u8(&mut self, pid: usize, addr: usize, value: u8) -> Result<(), BusFault> {
        self.user_access(pid, addr, 1, AccessType::Write, |mem| {
            mem.write_u8(addr, value)
        })
    }

    /// A user-mode probe that does NOT fault the process on denial —
    /// used by the MPU-walking tests.
    pub fn user_probe(&self, addr: usize, access: AccessType) -> bool {
        self.user_check(addr, 1, access).is_ok()
    }

    // ---- Syscalls ------------------------------------------------------

    /// The one SVC path: every syscall but `sys_print` enters and leaves
    /// the kernel here, and the `sys_*` methods pass it their handler
    /// body. In order: the entry charge; the `SyscallArg` corruption of
    /// `arg0` for `brk`, `sbrk` and the two allows; `SyscallEnter` and
    /// its arrival point; the handler, on the possibly corrupted `arg0`;
    /// after a break move, the commit of the staged configuration (the
    /// context switch back into the process); the `SyscallExit` arrival
    /// point and event, whose `value` is the `Ok` word or 0; the return
    /// charge.
    fn svc(
        &mut self,
        pid: usize,
        call: SyscallKind,
        [arg0, arg1, arg2]: [u32; 3],
        handler: impl FnOnce(&mut Self, u32) -> Result<usize, ErrorCode>,
    ) -> Result<usize, ErrorCode> {
        use SyscallKind::{AllowRo, AllowRw, Brk, Sbrk};
        charge(Cost::Exception); // SVC entry.
        let arg0 = match call {
            // An armed SyscallArg injection corrupts the argument register
            // at SVC entry; the handler must validate its way out of it.
            Brk | Sbrk | AllowRo | AllowRw => tt_hw::injection::corrupt_syscall_arg(arg0),
            _ => arg0,
        };
        let pid32 = pid as u32;
        trace::record(TraceEvent::SyscallEnter {
            pid: pid32,
            call,
            arg0,
            arg1,
            arg2,
        });
        self.maybe_interrupt(pid, ArrivalPoint::SyscallEnter);
        let result = handler(self, arg0);
        if matches!(call, Brk | Sbrk) {
            self.commit_mpu(pid);
        }
        self.maybe_interrupt(pid, ArrivalPoint::SyscallExit);
        trace::record(TraceEvent::SyscallExit {
            pid: pid32,
            call,
            ok: result.is_ok(),
            value: result.map_or(0, |v| v as u32),
        });
        charge(Cost::Exception); // SVC return.
        result
    }

    /// `brk`: set the app break.
    ///
    /// The syscall *handler* only updates the staged configuration (in
    /// TickTock, without touching hardware — the Fig. 11 win); the MPU is
    /// (re)configured on the context switch back into the process, which
    /// both kernels pay equally.
    pub fn sys_brk(&mut self, pid: usize, new_break: usize) -> Result<(), ErrorCode> {
        let args = [new_break as u32, 0, 0];
        self.svc(pid, SyscallKind::Brk, args, |k, new_break| {
            k.processes[pid].brk(PtrU8::new(new_break as usize))?;
            Ok(0)
        })
        .map(drop)
    }

    /// `sbrk`: adjust the app break by a delta; returns the new break.
    pub fn sys_sbrk(&mut self, pid: usize, delta: isize) -> Result<usize, ErrorCode> {
        let args = [delta as i32 as u32, 0, 0];
        self.svc(pid, SyscallKind::Sbrk, args, |k, delta| {
            let p = &mut k.processes[pid];
            match delta as i32 as isize {
                0 => Ok(p.app_break()),
                delta => Ok(p.sbrk(delta)?.as_usize()),
            }
        })
    }

    /// `memop`: introspection operations (Tock's memop syscall).
    pub fn sys_memop(&mut self, pid: usize, op: u32) -> Result<usize, ErrorCode> {
        self.svc(pid, SyscallKind::Memop, [op, 0, 0], |k, _| {
            let p = &k.processes[pid];
            match op {
                1 => Ok(p.app_break()),
                2 => Ok(p.memory_start()),
                3 => Ok(p.memory_start() + p.memory_size()),
                4 => Ok(p.image.flash_start.as_usize()),
                5 => Ok(p.image.flash_start.as_usize() + p.image.flash_size),
                _ => Err(ErrorCode::Invalid),
            }
        })
    }

    /// `subscribe`: register interest in a driver's upcalls. Without a
    /// subscription, the driver's events are dropped (Tock semantics).
    /// A driver number no capsule answers to fails with
    /// [`ErrorCode::NoDevice`], so a process cannot grow its subscription
    /// list past the drivers that exist.
    pub fn sys_subscribe(&mut self, pid: usize, driver_num: usize) -> Result<(), ErrorCode> {
        let args = [driver_num as u32, 0, 0];
        self.svc(pid, SyscallKind::Subscribe, args, |k, _| {
            if driver_num > driver::IPC {
                return Err(ErrorCode::NoDevice);
            }
            if !k.subscriptions[pid].contains(&driver_num) {
                k.subscriptions[pid].push(driver_num);
            }
            Ok(0)
        })
        .map(drop)
    }

    /// Schedules an upcall for `pid` if (and only if) it subscribed to the
    /// driver; wakes the process if it yielded. Returns whether delivered.
    pub fn deliver_upcall(&mut self, pid: usize, driver_num: usize, value: u32) -> bool {
        if !self.subscriptions[pid].contains(&driver_num) {
            return false; // Dropped: no subscription.
        }
        self.upcalls[pid] = Some(Upcall { driver_num, value });
        if self.processes[pid].state == ProcessState::Yielded {
            self.processes[pid].state = ProcessState::Ready;
        }
        trace::record(TraceEvent::UpcallDeliver {
            pid: pid as u32,
            driver: driver_num as u32,
            value,
        });
        true
    }

    /// `allow_readonly`: share a read-only buffer with a driver.
    pub fn sys_allow_ro(&mut self, pid: usize, addr: usize, len: usize) -> Result<(), ErrorCode> {
        let args = [addr as u32, len as u32, 0];
        self.svc(pid, SyscallKind::AllowRo, args, |k, addr| {
            k.processes[pid].build_readonly_buffer(PtrU8::new(addr as usize), len)?;
            Ok(0)
        })
        .map(drop)
    }

    /// `allow_readwrite`: share a writable buffer with a driver.
    pub fn sys_allow_rw(&mut self, pid: usize, addr: usize, len: usize) -> Result<(), ErrorCode> {
        let args = [addr as u32, len as u32, 0];
        self.svc(pid, SyscallKind::AllowRw, args, |k, addr| {
            k.processes[pid].build_readwrite_buffer(PtrU8::new(addr as usize), len)?;
            Ok(0)
        })
        .map(drop)
    }

    /// `command`: invoke a driver operation.
    pub fn sys_command(
        &mut self,
        pid: usize,
        driver_num: usize,
        cmd: u32,
        arg: u32,
    ) -> Result<u32, ErrorCode> {
        let args = [driver_num as u32, cmd, arg];
        self.svc(pid, SyscallKind::Command, args, |k, _| {
            Ok(k.dispatch_command(pid, driver_num, cmd, arg)? as usize)
        })
        .map(|v| v as u32)
    }

    /// The one buffer path: `pid`'s live read-write (`writable`) or
    /// read-only allow as `(addr, len)`, checked at the moment of access.
    /// The range must lie in the process's accessible RAM
    /// (`memory_start..app_break`), or in its flash for a read-only
    /// buffer: the check `allow` made when the buffer was built may no
    /// longer hold. No allow is [`ErrorCode::Invalid`]; a range that
    /// misses is [`ErrorCode::Fail`], and the kernel never touches it.
    /// Host-side only: it charges no simulated cycles.
    fn allowed(&self, pid: usize, writable: bool) -> Result<(usize, usize), ErrorCode> {
        let p = &self.processes[pid];
        let allow = if writable { p.allow_rw } else { p.allow_ro };
        let (addr, len) = allow.ok_or(ErrorCode::Invalid)?;
        let start = addr.as_usize();
        let b = p.breaks();
        let (ram, flash) = (b.memory_start.as_usize(), b.flash_start.as_usize());
        if within(start, len, ram, b.app_break.as_usize())
            || !writable && within(start, len, flash, flash + b.flash_size)
        {
            Ok((start, len))
        } else {
            Err(ErrorCode::Fail)
        }
    }

    fn dispatch_command(
        &mut self,
        pid: usize,
        driver_num: usize,
        cmd: u32,
        arg: u32,
    ) -> Result<u32, ErrorCode> {
        match driver_num {
            driver::CONSOLE => match cmd {
                // Write: copy the allowed read-only buffer to the console.
                1 => {
                    let (addr, len) = self.allowed(pid, false)?;
                    // Console writes are short (a few bytes per step in the
                    // campaign workloads); a stack buffer keeps the per-print
                    // heap allocation off the fleet hot path.
                    let mut small = [0u8; 64];
                    let mut large;
                    let bytes: &mut [u8] = if len <= small.len() {
                        &mut small[..len]
                    } else {
                        large = vec![0u8; len];
                        &mut large
                    };
                    self.mem.read_bytes(addr, bytes)?;
                    self.processes[pid]
                        .console
                        .push_str(&String::from_utf8_lossy(bytes));
                    Ok(len as u32)
                }
                // Read: deliver queued input into the allowed RW buffer.
                2 => {
                    let (addr, len) = self.allowed(pid, true)?;
                    let input = self
                        .capsules
                        .take_console_input(pid)
                        .ok_or(ErrorCode::Fail)?;
                    let n = input.len().min(len);
                    self.mem.write_bytes(addr, &input[..n])?;
                    Ok(n as u32)
                }
                _ => Err(ErrorCode::Invalid),
            },
            driver::LED => match cmd {
                0 => Ok(self.capsules.leds.toggle(arg as usize) as u32),
                1 => Ok(self.capsules.leds.get(arg as usize) as u32),
                2 => Ok(self.capsules.leds.toggles),
                _ => Err(ErrorCode::Invalid),
            },
            driver::ALARM => match cmd {
                // Set an alarm `arg` ticks out; per-process alarm state
                // lives in a grant (allocated on first use).
                1 => {
                    if self.processes[pid].grant(driver::ALARM).is_none() {
                        let ptr = self.processes[pid]
                            .allocate_grant(driver::ALARM, 16)
                            .map_err(|_| ErrorCode::NoMem)?;
                        // Initialize the grant contents (kernel-privileged).
                        self.mem.write_u32(ptr.as_usize(), 0)?;
                    }
                    let (ptr, _) = self.processes[pid].grant(driver::ALARM).unwrap();
                    let count = self.mem.read_u32(ptr.as_usize())?;
                    self.mem.write_u32(ptr.as_usize(), count + 1)?;
                    self.capsules.set_alarm(pid, self.ticks, arg, count + 1);
                    Ok(count + 1)
                }
                // Read the alarm-set count from the grant.
                2 => {
                    let (ptr, _) = self.processes[pid]
                        .grant(driver::ALARM)
                        .ok_or(ErrorCode::Fail)?;
                    Ok(self.mem.read_u32(ptr.as_usize())?)
                }
                _ => Err(ErrorCode::Invalid),
            },
            driver::SENSOR => Ok(self.capsules.sensor_read()),
            driver::ADC => Ok(self.capsules.adc_sample(arg)),
            driver::TEMPERATURE => Ok(self.capsules.temperature_read()),
            driver::IPC => match cmd {
                // 1: register this process as an IPC service; returns pid.
                1 => {
                    if !self.ipc_services.contains(&pid) {
                        self.ipc_services.push(pid);
                    }
                    Ok(pid as u32)
                }
                // 2: call service `arg`: copy the caller's allowed RO
                // buffer into the service's allowed RW buffer, wake the
                // service with the caller's pid as the upcall value.
                2 => {
                    let service = arg as usize;
                    if service >= self.processes.len() || !self.ipc_services.contains(&service) {
                        return Err(ErrorCode::NoDevice);
                    }
                    self.ipc_copy(pid, service)?;
                    self.deliver_upcall(service, driver::IPC, pid as u32);
                    Ok(0)
                }
                // 3: reply to client `arg`: copy this process's RO buffer
                // into the client's RW buffer and wake it.
                3 => {
                    let client = arg as usize;
                    if client >= self.processes.len() {
                        return Err(ErrorCode::Invalid);
                    }
                    self.ipc_copy(pid, client)?;
                    self.deliver_upcall(client, driver::IPC, pid as u32);
                    Ok(0)
                }
                _ => Err(ErrorCode::Invalid),
            },
            driver::DMA => match cmd {
                // Transfer `arg` pattern bytes into the allowed RW buffer.
                1 => {
                    let (addr, len) = self.allowed(pid, true)?;
                    let data: Vec<u8> = (0..len)
                        .map(|i| (i as u8).wrapping_add(arg as u8))
                        .collect();
                    self.capsules
                        .dma_transfer(&mut self.mem, addr, &data)
                        .map(|n| n as u32)
                        .map_err(|_| ErrorCode::Fail)
                }
                _ => Err(ErrorCode::Invalid),
            },
            _ => Err(ErrorCode::NoDevice),
        }
    }

    /// Convenience print path used by apps: stage the bytes in app RAM
    /// (user-mode writes), `allow_ro` the buffer, and invoke the console —
    /// the full syscall path, not a shortcut.
    pub fn sys_print(&mut self, pid: usize, text: &str) -> Result<(), ErrorCode> {
        trace::record(TraceEvent::SyscallEnter {
            pid: pid as u32,
            call: SyscallKind::Print,
            arg0: text.len() as u32,
            arg1: 0,
            arg2: 0,
        });
        self.maybe_interrupt(pid, ArrivalPoint::SyscallEnter);
        let base = self.processes[pid].memory_start() + 64;
        let bytes = text.as_bytes();
        let mut inner = || -> Result<(), ErrorCode> {
            for (i, b) in bytes.iter().enumerate() {
                self.user_write_u8(pid, base + i, *b)
                    .map_err(|_| ErrorCode::Fail)?;
            }
            self.sys_allow_ro(pid, base, bytes.len())?;
            self.sys_command(pid, driver::CONSOLE, 1, 0)?;
            Ok(())
        };
        let r = inner();
        self.maybe_interrupt(pid, ArrivalPoint::SyscallExit);
        trace::record(TraceEvent::SyscallExit {
            pid: pid as u32,
            call: SyscallKind::Print,
            ok: r.is_ok(),
            value: 0,
        });
        r
    }

    /// Copies `src`'s allowed read-only buffer into `dst`'s allowed
    /// read-write buffer (the kernel-mediated IPC data path). Both buffers
    /// are checked against each process's own memory as the copy runs,
    /// so it cannot touch any third party's memory.
    fn ipc_copy(&mut self, src: usize, dst: usize) -> Result<u32, ErrorCode> {
        let (src_addr, src_len) = self.allowed(src, false)?;
        let (dst_addr, dst_len) = self.allowed(dst, true)?;
        let n = src_len.min(dst_len);
        let mut buf = vec![0u8; n];
        self.mem.read_bytes(src_addr, &mut buf)?;
        self.mem.write_bytes(dst_addr, &buf)?;
        Ok(n as u32)
    }

    /// Takes the pending upcall for a process, if delivered.
    pub fn take_upcall(&mut self, pid: usize) -> Option<u32> {
        self.upcalls[pid].take().map(|u| u.value)
    }

    /// Takes the pending upcall with its driver identity.
    pub fn take_upcall_typed(&mut self, pid: usize) -> Option<Upcall> {
        self.upcalls[pid].take()
    }

    /// Marks a process faulted and records the fault report (which, as in
    /// Tock, includes the memory layout).
    pub fn fault_process(&mut self, pid: usize, reason: &str) {
        self.fault_with(pid, |out| out.push_str(reason));
    }

    /// [`Self::fault_process`] with the reason `reason` appends, built in
    /// the fault-log line's one buffer; the process keeps a copy of it.
    fn fault_with(&mut self, pid: usize, reason: impl FnOnce(&mut String)) {
        let mut report = String::with_capacity(192);
        reason(&mut report);
        let reason_len = report.len();
        report.push_str("; ");
        self.processes[pid].write_layout_report(&mut report);
        self.processes[pid].fault(&report[..reason_len]);
        self.fault_log.push((pid, report));
        // A fault makes whatever the commit cache believes is live in the
        // register file untrustworthy (the fault may stem from corrupted
        // hardware state), so every transition into `Faulted` drops it: a
        // stale hit after a fault is impossible by construction.
        self.machine.cache().invalidate();
        trace::record(TraceEvent::ProcessFault { pid: pid as u32 });
    }

    /// Permanently kills a process: no further scheduling, no restart.
    /// Drops every kernel-held handle and the commit-cache entry.
    pub fn kill_process(&mut self, pid: usize) {
        self.processes[pid].state = ProcessState::Killed;
        self.upcalls[pid] = None;
        self.subscriptions[pid].clear();
        self.restart_due[pid] = None;
        self.pending_respawn[pid] = false;
        self.machine.cache().invalidate();
        trace::record(TraceEvent::ProcessKill { pid: pid as u32 });
    }

    /// Fault recovery for a faulted process: reclaims its grant region,
    /// drops every kernel-held handle into its memory (grants, allowed
    /// buffers, pending upcalls, subscriptions), re-derives the staged
    /// protection state from the surviving break pointers, and
    /// invalidates the commit cache. Returns `false` if re-derivation
    /// failed, in which case the caller must kill the process.
    pub fn recover_process(&mut self, pid: usize) -> bool {
        let (ok, cycles) = tt_hw::cycles::measure(|| {
            let ok = self.processes[pid].recover();
            self.upcalls[pid] = None;
            self.subscriptions[pid].clear();
            self.machine.cache().invalidate();
            ok
        });
        self.recoveries[pid] += 1;
        self.recovery_cycles[pid] += cycles;
        trace::record(TraceEvent::Recovery {
            pid: pid as u32,
            step: RecoveryStep::GrantsReclaimed,
        });
        if ok {
            trace::record(TraceEvent::Recovery {
                pid: pid as u32,
                step: RecoveryStep::StateRederived,
            });
        }
        ok
    }

    /// Applies the configured fault policy to a process that is in the
    /// `Faulted` state at the end of its scheduling slot.
    fn apply_fault_policy(
        &mut self,
        pid: usize,
        apps: &mut [Box<dyn App>],
        factories: Option<&[AppFactory]>,
    ) {
        match self.fault_policy {
            FaultPolicy::Stop => {}
            FaultPolicy::Restart { max_restarts } => {
                // The pre-PR 4 policy: immediate in-place respawn (needs
                // a factory to rebuild the program alongside the memory).
                if let Some(mk) = factories.and_then(|f| f.get(pid)) {
                    if self.restarts[pid] < max_restarts && self.restart_process(pid).is_ok() {
                        apps[pid] = mk();
                    }
                }
            }
            FaultPolicy::Kill => {
                self.recover_process(pid);
                self.kill_process(pid);
            }
            FaultPolicy::RestartWithBackoff {
                max_restarts,
                base_delay,
                max_delay,
            } => {
                let recovered = self.recover_process(pid);
                if !recovered || self.restarts[pid] >= max_restarts {
                    trace::record(TraceEvent::Recovery {
                        pid: pid as u32,
                        step: RecoveryStep::RestartExhausted,
                    });
                    self.kill_process(pid);
                } else {
                    let delay =
                        crate::recovery::backoff_delay(base_delay, max_delay, self.restarts[pid]);
                    self.restart_due[pid] = Some(self.ticks + delay);
                    trace::record(TraceEvent::Recovery {
                        pid: pid as u32,
                        step: RecoveryStep::BackoffScheduled { delay },
                    });
                }
            }
        }
    }

    // ---- Scheduler ------------------------------------------------------

    /// Runs the loaded apps round-robin until all exit/fault or
    /// `max_ticks` elapses. `apps[i]` drives `processes[i]`.
    pub fn run(&mut self, apps: &mut [Box<dyn App>], max_ticks: u64) {
        self.run_with_factories(apps, None, max_ticks);
    }

    /// Like [`Kernel::run`], but with per-process app factories so the
    /// restart fault policy can respawn a fresh program instance.
    ///
    /// Returns whether the loop ended on its own — everyone done, or the
    /// idle exit — rather than at `max_ticks`, or stopped at the end of
    /// an app step because an interrupt set `stop_at_step`. A caller
    /// running ticks in chunks must stop at the first `true`: calling
    /// again would run a tick the uninterrupted loop never runs.
    pub fn run_with_factories(
        &mut self,
        apps: &mut [Box<dyn App>],
        factories: Option<&[AppFactory]>,
        max_ticks: u64,
    ) -> bool {
        assert_eq!(apps.len(), self.processes.len());
        while self.ticks < max_ticks {
            self.ticks += 1;
            // SysTick: fire due alarms; delivery requires a subscription.
            for (pid, value) in self.capsules.fire_due_alarms(self.ticks) {
                self.deliver_upcall(pid, driver::ALARM, value);
            }
            // Execute backoff restarts whose delay has elapsed.
            #[allow(clippy::needless_range_loop)] // pid indexes kernel state and `apps`.
            for pid in 0..self.processes.len() {
                if self.restart_due[pid].is_some_and(|due| self.ticks >= due) {
                    self.restart_due[pid] = None;
                    let Some(mk) = factories.and_then(|f| f.get(pid)) else {
                        // No factory to respawn the program: the recovered
                        // memory block has nothing to run.
                        self.kill_process(pid);
                        continue;
                    };
                    if self.restart_or_kill(pid) {
                        apps[pid] = mk();
                    }
                }
            }
            let mut any_ready = false;
            #[allow(clippy::needless_range_loop)] // pid indexes two slices.
            for pid in 0..self.processes.len() {
                // A front-run restart (interrupt service routine) left
                // the program respawn to us: install the fresh instance
                // before the process can be stepped again.
                if self.pending_respawn[pid] {
                    self.pending_respawn[pid] = false;
                    if let Some(mk) = factories.and_then(|f| f.get(pid)) {
                        apps[pid] = mk();
                    } else {
                        // No factory to respawn the program — mirror the
                        // tick-top restart path's decision.
                        self.kill_process(pid);
                    }
                }
                if self.processes[pid].state != ProcessState::Ready {
                    continue;
                }
                any_ready = true;
                // Context switch in: configure the MPU for this process
                // and pay the exception-entry cost.
                charge(Cost::Exception);
                trace::set_current_pid(pid as u32);
                trace::record(TraceEvent::ContextSwitch {
                    pid: pid as u32,
                    dir: SwitchDir::In,
                });
                self.commit_mpu(pid);
                self.maybe_interrupt(pid, ArrivalPoint::SchedulerDecision);
                // An armed Stack injection nudges the process's stack
                // pointer below its block: the modelled push lands one
                // word under `memory_start` and the MPU faults it.
                if tt_hw::injection::stack_nudge() {
                    let below = self.processes[pid].memory_start() - 4;
                    let _ = self.user_write_u32(pid, below, 0xDEAD_BEEF);
                }
                for _ in 0..QUANTUM {
                    if self.processes[pid].state != ProcessState::Ready {
                        break;
                    }
                    match apps[pid].step(self, pid) {
                        Step::Continue => {}
                        Step::Yield => {
                            if self.processes[pid].state == ProcessState::Ready {
                                self.processes[pid].state = ProcessState::Yielded;
                            }
                        }
                        Step::Exit => {
                            self.processes[pid].state = ProcessState::Exited;
                        }
                    }
                    if self.stop_at_step {
                        return true;
                    }
                }
                // Switch-out scrub (opt-in): the register file must still
                // hold what the outgoing process staged; silent register
                // corruption becomes an ordinary recoverable fault here.
                if self.mpu_scrub
                    && matches!(
                        self.processes[pid].state,
                        ProcessState::Ready | ProcessState::Yielded
                    )
                    && !self.processes[pid].mpu_consistent()
                {
                    self.fault_process(pid, "mpu scrub: register file diverged from staged state");
                }
                // Context switch out: kernel disables user protection (§2.1).
                trace::record(TraceEvent::ContextSwitch {
                    pid: pid as u32,
                    dir: SwitchDir::Out,
                });
                self.machine.disable_user_protection();
                trace::set_current_pid(tt_hw::trace::NO_PID);
                charge(Cost::Exception);
                // Apply the fault policy (restart needs a factory to
                // respawn the program alongside the process memory).
                if matches!(self.processes[pid].state, ProcessState::Faulted(_)) {
                    self.apply_fault_policy(pid, apps, factories);
                }
            }
            let all_done = (0..self.processes.len()).all(|pid| {
                match self.processes[pid].state {
                    ProcessState::Exited | ProcessState::Killed => true,
                    // A faulted process still counts as live while a
                    // backoff restart is pending for it.
                    ProcessState::Faulted(_) => self.restart_due[pid].is_none(),
                    ProcessState::Ready | ProcessState::Yielded => false,
                }
            });
            if all_done {
                return true;
            }
            if !any_ready
                && self.capsules.alarms.is_empty()
                && self.restart_due.iter().all(|due| due.is_none())
            {
                // Deadlock: everyone yielded with nothing pending. Mark
                // it so the oracle can tell a wedged run from a clean
                // everyone-exited completion instead of inferring it
                // from trace truncation.
                trace::record(TraceEvent::IdleExit);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::flash_app;
    use tt_hw::platform::NRF52840DK;
    use tt_legacy::BugVariant;

    fn boot_with_app(flavor: Flavor) -> (Kernel, usize) {
        let mut k = Kernel::boot(flavor, &NRF52840DK);
        let img = flash_app(&mut k.mem, 0x0004_0000, "t", 0x1000, 3000, 1024).unwrap();
        let pid = k.load_process(&img).unwrap();
        (k, pid)
    }

    fn flavors() -> [Flavor; 2] {
        [Flavor::Legacy(BugVariant::Fixed), Flavor::Granular]
    }

    #[test]
    fn boot_and_load_carves_ram() {
        for flavor in flavors() {
            let (k, pid) = boot_with_app(flavor);
            let p = &k.processes[pid];
            assert!(p.memory_start() >= NRF52840DK.map.ram.start);
            assert!(k.ram_cursor > p.memory_start());
        }
    }

    #[test]
    fn user_access_respects_mpu() {
        for flavor in flavors() {
            let (mut k, pid) = boot_with_app(flavor);
            k.processes[pid].setup_mpu();
            let ms = k.processes[pid].memory_start();
            // Inside app memory: fine.
            k.user_write_u32(pid, ms + 128, 0xABCD).unwrap();
            assert_eq!(k.user_read_u32(pid, ms + 128).unwrap(), 0xABCD);
            // Grant region: faults and kills the process.
            let kb = k.processes[pid].kernel_break();
            let top = k.processes[pid].memory_start() + k.processes[pid].memory_size();
            let probe = ((kb + top) / 2) & !3;
            assert!(k.user_write_u32(pid, probe, 1).is_err());
            assert!(matches!(k.processes[pid].state, ProcessState::Faulted(_)));
            assert_eq!(k.fault_log.len(), 1);
            assert!(k.fault_log[0].1.contains("app_break"));
        }
    }

    #[test]
    fn a_stale_allow_is_refused_at_access() {
        for flavor in flavors() {
            let (mut k, pid) = boot_with_app(flavor);
            let (ms, top) = (
                k.processes[pid].memory_start(),
                k.processes[pid].app_break(),
            );
            k.sys_allow_rw(pid, top - 64, 64).unwrap();
            assert_eq!(k.sys_command(pid, driver::DMA, 1, 7), Ok(64));
            // `brk` refuses to move below a live allow; the stale allow a
            // kernel without that rule would keep is planted by hand.
            k.processes[pid].allow_rw = None;
            k.sys_brk(pid, ms + 512).unwrap();
            k.processes[pid].allow_rw = Some((PtrU8::new(top - 64), 64));
            let before = (0..16).map(|i| k.mem.read_u32(top - 64 + 4 * i).unwrap());
            let before: Vec<u32> = before.collect();
            assert_eq!(k.sys_command(pid, driver::DMA, 1, 9), Err(ErrorCode::Fail));
            assert_eq!(
                k.sys_command(pid, driver::CONSOLE, 2, 0),
                Err(ErrorCode::Fail)
            );
            let after: Vec<u32> = (0..16)
                .map(|i| k.mem.read_u32(top - 64 + 4 * i).unwrap())
                .collect();
            assert_eq!(before, after, "{flavor:?}: the kernel left the range alone");
        }
    }

    /// Grants unprivileged read-write over `[UNMAPPED, UNMAPPED + 256)`,
    /// an address the chip's `PhysicalMemory` does not map, in a free
    /// MPU region or PMP entry.
    const UNMAPPED: usize = 0x6000_0000;

    fn grant_unmapped(k: &Kernel) {
        if let Some(mpu) = k.machine.cortexm() {
            let mut mpu = mpu.borrow_mut();
            mpu.write_rnr(7);
            mpu.write_rbar(UNMAPPED as u32);
            // ENABLE, SIZE 256 (field 7), AP full access, XN.
            mpu.write_rasr(1 | 7 << 1 | 0b011 << 24 | 1 << 28);
        } else if let Some(pmp) = k.machine.pmp() {
            use tt_hw::riscv::pmp::{napot_addr, PMP_R, PMP_W};
            let mut pmp = pmp.borrow_mut();
            let last = pmp.chip().entries() - 1;
            pmp.write_addr(last, napot_addr(UNMAPPED, 256));
            pmp.write_cfg(last, PMP_R | PMP_W | 3 << 3); // A = NAPOT.
        }
    }

    #[test]
    fn unmapped_user_accesses_fault_at_every_width() {
        type Access = fn(&mut Kernel, usize) -> Result<(), BusFault>;
        let accesses: [(&str, Access); 3] = [
            ("read_u32", |k, p| k.user_read_u32(p, UNMAPPED).map(drop)),
            ("write_u32", |k, p| k.user_write_u32(p, UNMAPPED, 1)),
            ("write_u8", |k, p| k.user_write_u8(p, UNMAPPED, 1)),
        ];
        for chip in [NRF52840DK, tt_hw::platform::HIFIVE1] {
            for (name, access) in accesses {
                let mut k = Kernel::boot(Flavor::Granular, &chip);
                let base = chip.map.flash.start + 0x4_0000;
                let img = flash_app(&mut k.mem, base, "t", 0x1000, 3000, 1024).unwrap();
                let pid = k.load_process(&img).unwrap();
                k.processes[pid].setup_mpu();
                grant_unmapped(&k);
                assert!(k.user_probe(UNMAPPED, AccessType::Write), "{}", chip.name);
                trace::enable(64);
                let fault = access(&mut k, pid).unwrap_err();
                let events = trace::take().events;
                trace::disable();
                let at = format!("{} {name}", chip.name);
                assert_eq!(fault.kind, FaultKind::Unmapped, "{at}");
                assert!(
                    matches!(k.processes[pid].state, ProcessState::Faulted(_)),
                    "{at}"
                );
                let pid32 = pid as u32;
                assert!(
                    events.contains(&TraceEvent::ProcessFault { pid: pid32 }),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn print_path_goes_through_allow_and_console() {
        for flavor in flavors() {
            let (mut k, pid) = boot_with_app(flavor);
            k.processes[pid].setup_mpu();
            k.sys_print(pid, "hello world").unwrap();
            assert_eq!(k.processes[pid].console, "hello world");
        }
    }

    #[test]
    fn memop_reports_layout() {
        for flavor in flavors() {
            let (mut k, pid) = boot_with_app(flavor);
            let ms = k.sys_memop(pid, 2).unwrap();
            let me = k.sys_memop(pid, 3).unwrap();
            let brk = k.sys_memop(pid, 1).unwrap();
            assert!(ms < brk && brk < me);
            assert_eq!(k.sys_memop(pid, 4).unwrap(), 0x0004_0000);
            assert!(k.sys_memop(pid, 99).is_err());
        }
    }

    /// One SVC of the bracket table: the call, the argument words it
    /// records, and the typed front door it goes through.
    type SvcRow = (
        SyscallKind,
        [u32; 3],
        fn(&mut Kernel, usize) -> Result<usize, ErrorCode>,
    );

    /// Success and error rows for all seven SVCs of a process whose
    /// memory starts at `ms` and whose break is `top`.
    fn svc_rows(ms: usize, top: usize) -> Vec<(SvcRow, bool)> {
        let ms32 = ms as u32;
        vec![
            (
                (SyscallKind::Brk, [top as u32, 0, 0], |k, p| {
                    let top = k.processes[p].app_break();
                    k.sys_brk(p, top).map(|()| 0)
                }),
                true,
            ),
            (
                (SyscallKind::Brk, [0, 0, 0], |k, p| {
                    k.sys_brk(p, 0).map(|()| 0)
                }),
                false,
            ),
            (
                (SyscallKind::Sbrk, [16, 0, 0], |k, p| k.sys_sbrk(p, 16)),
                true,
            ),
            (
                (SyscallKind::Sbrk, [0xF000_0000, 0, 0], |k, p| {
                    k.sys_sbrk(p, -0x1000_0000)
                }),
                false,
            ),
            (
                (SyscallKind::Memop, [2, 0, 0], |k, p| k.sys_memop(p, 2)),
                true,
            ),
            (
                (SyscallKind::Memop, [99, 0, 0], |k, p| k.sys_memop(p, 99)),
                false,
            ),
            (
                (SyscallKind::Subscribe, [2, 0, 0], |k, p| {
                    k.sys_subscribe(p, 2).map(|()| 0)
                }),
                true,
            ),
            (
                (SyscallKind::Subscribe, [99, 0, 0], |k, p| {
                    k.sys_subscribe(p, 99).map(|()| 0)
                }),
                false,
            ),
            (
                (SyscallKind::AllowRo, [ms32 + 64, 16, 0], |k, p| {
                    let ms = k.processes[p].memory_start();
                    k.sys_allow_ro(p, ms + 64, 16).map(|()| 0)
                }),
                true,
            ),
            (
                (SyscallKind::AllowRo, [0, 16, 0], |k, p| {
                    k.sys_allow_ro(p, 0, 16).map(|()| 0)
                }),
                false,
            ),
            (
                (SyscallKind::AllowRw, [ms32 + 64, 16, 0], |k, p| {
                    let ms = k.processes[p].memory_start();
                    k.sys_allow_rw(p, ms + 64, 16).map(|()| 0)
                }),
                true,
            ),
            (
                (SyscallKind::AllowRw, [0, 16, 0], |k, p| {
                    k.sys_allow_rw(p, 0, 16).map(|()| 0)
                }),
                false,
            ),
            (
                (SyscallKind::Command, [driver::LED as u32, 2, 0], |k, p| {
                    k.sys_command(p, driver::LED, 2, 0).map(|v| v as usize)
                }),
                true,
            ),
            (
                (SyscallKind::Command, [99, 0, 0], |k, p| {
                    k.sys_command(p, 99, 0, 0).map(|v| v as usize)
                }),
                false,
            ),
        ]
    }

    #[test]
    fn every_svc_takes_the_one_bracket() {
        let exception = Cost::Exception.cycles();
        for flavor in flavors() {
            for ((call, args, invoke), succeeds) in {
                let (k, pid) = boot_with_app(flavor);
                svc_rows(
                    k.processes[pid].memory_start(),
                    k.processes[pid].app_break(),
                )
            } {
                let (mut k, pid) = boot_with_app(flavor);
                trace::enable(64);
                let (result, cycles) = tt_hw::cycles::measure(|| invoke(&mut k, pid));
                let events = trace::take().events;
                trace::disable();
                let row = format!("{flavor:?} {call:?} {args:x?}");
                assert_eq!(result.is_ok(), succeeds, "{row}: {result:?}");
                let [arg0, arg1, arg2] = args;
                let pid32 = pid as u32;
                assert_eq!(
                    events.first(),
                    Some(&TraceEvent::SyscallEnter {
                        pid: pid32,
                        call,
                        arg0,
                        arg1,
                        arg2
                    }),
                    "{row}"
                );
                let exit = TraceEvent::SyscallExit {
                    pid: pid32,
                    call,
                    ok: result.is_ok(),
                    value: result.unwrap_or(0) as u32,
                };
                assert_eq!(events.last(), Some(&exit), "{row}");
                // Entry and return charges on both paths; these handlers
                // charge nothing of their own, so they are the whole cost.
                assert!(cycles >= 2 * exception, "{row}: {cycles} cycles");
                if matches!(call, SyscallKind::Memop | SyscallKind::Subscribe)
                    || call == SyscallKind::Command && !succeeds
                {
                    assert_eq!(cycles, 2 * exception, "{row}");
                }
            }
        }
    }

    #[test]
    fn a_syscall_arg_injection_corrupts_arg0_of_four_svcs_only() {
        use tt_hw::injection::{self, Injection, InjectionKind, InjectionPlan, InjectionPoint};
        const XOR: u32 = 0x4;
        for flavor in flavors() {
            let (k0, pid) = boot_with_app(flavor);
            let rows = svc_rows(
                k0.processes[pid].memory_start(),
                k0.processes[pid].app_break(),
            );
            for ((call, [arg0, ..], invoke), _) in rows.into_iter().filter(|(_, ok)| *ok) {
                let (mut k, pid) = boot_with_app(flavor);
                injection::arm(&InjectionPlan {
                    seed: 0,
                    target_pid: pid as u32,
                    injections: vec![Injection {
                        point: InjectionPoint::SyscallArg,
                        at: 0,
                        kind: InjectionKind::CorruptArg { xor: XOR },
                    }],
                });
                trace::set_current_pid(pid as u32);
                trace::enable(64);
                let result = invoke(&mut k, pid);
                let events = trace::take().events;
                trace::disable();
                trace::set_current_pid(trace::NO_PID);
                let fired = injection::fired_count();
                injection::disarm();
                let corrupts = matches!(
                    call,
                    SyscallKind::Brk
                        | SyscallKind::Sbrk
                        | SyscallKind::AllowRo
                        | SyscallKind::AllowRw
                );
                let row = format!("{flavor:?} {call:?}");
                assert_eq!(fired, corrupts as u64, "{row}");
                let recorded = events.iter().find_map(|e| match *e {
                    TraceEvent::SyscallEnter { arg0, .. } => Some(arg0),
                    _ => None,
                });
                let expected = if corrupts { arg0 ^ XOR } else { arg0 };
                assert_eq!(recorded, Some(expected), "{row}");
                let Some(&TraceEvent::SyscallExit { ok, .. }) = events.last() else {
                    panic!("{row}: the trace does not end at SyscallExit");
                };
                assert_eq!(ok, result.is_ok(), "{row}");
            }
        }
    }

    #[test]
    fn alarm_grant_and_upcall_flow() {
        for flavor in flavors() {
            let (mut k, pid) = boot_with_app(flavor);
            k.processes[pid].setup_mpu();
            let n = k.sys_command(pid, driver::ALARM, 1, 3).unwrap();
            assert_eq!(n, 1);
            // Grant allocated and counted.
            assert_eq!(k.sys_command(pid, driver::ALARM, 2, 0).unwrap(), 1);
            assert!(k.processes[pid].grant(driver::ALARM).is_some());
            // Not fired yet.
            assert!(k.take_upcall(pid).is_none());
            k.ticks = 10;
            let fired = k.capsules.fire_due_alarms(k.ticks);
            assert_eq!(fired, vec![(pid, 1)]);
        }
    }

    #[test]
    fn dma_command_fills_allowed_buffer() {
        for flavor in flavors() {
            let (mut k, pid) = boot_with_app(flavor);
            k.processes[pid].setup_mpu();
            let ms = k.processes[pid].memory_start();
            k.sys_allow_rw(pid, ms + 256, 8).unwrap();
            let n = k.sys_command(pid, driver::DMA, 1, 5).unwrap();
            assert_eq!(n, 8);
            assert_eq!(k.user_read_u32(pid, ms + 256).unwrap(), 0x0807_0605);
        }
    }

    #[test]
    fn console_read_delivers_queued_input() {
        for flavor in flavors() {
            let (mut k, pid) = boot_with_app(flavor);
            k.processes[pid].setup_mpu();
            let ms = k.processes[pid].memory_start();
            k.sys_allow_rw(pid, ms + 512, 16).unwrap();
            k.capsules.queue_console_input(pid, b"ping");
            let n = k.sys_command(pid, driver::CONSOLE, 2, 0).unwrap();
            assert_eq!(n, 4);
            assert_eq!(
                k.user_read_u32(pid, ms + 512).unwrap(),
                u32::from_le_bytes(*b"ping")
            );
        }
    }

    #[test]
    fn upcalls_require_subscription() {
        for flavor in flavors() {
            let (mut k, pid) = boot_with_app(flavor);
            // Not subscribed: the alarm event is dropped.
            assert!(!k.deliver_upcall(pid, driver::ALARM, 7));
            assert!(k.take_upcall(pid).is_none());
            // Subscribed: delivered, with the driver identity attached.
            k.sys_subscribe(pid, driver::ALARM).unwrap();
            assert!(k.deliver_upcall(pid, driver::ALARM, 7));
            let upcall = k.take_upcall_typed(pid).unwrap();
            assert_eq!(upcall.driver_num, driver::ALARM);
            assert_eq!(upcall.value, 7);
            // A subscription to one driver does not leak to another.
            assert!(!k.deliver_upcall(pid, driver::IPC, 9));
        }
    }

    #[test]
    fn delivery_wakes_yielded_process() {
        let (mut k, pid) = boot_with_app(Flavor::Granular);
        k.sys_subscribe(pid, driver::ALARM).unwrap();
        k.processes[pid].state = ProcessState::Yielded;
        assert!(k.deliver_upcall(pid, driver::ALARM, 1));
        assert_eq!(k.processes[pid].state, ProcessState::Ready);
    }

    #[test]
    fn subscribing_to_a_missing_driver_fails_and_records_nothing() {
        let (mut k, pid) = boot_with_app(Flavor::Granular);
        trace::enable(64);
        let charged = |k: &mut Kernel, driver_num| {
            tt_hw::cycles::measure(|| k.sys_subscribe(pid, driver_num))
        };
        let (ok, known) = charged(&mut k, driver::IPC);
        assert_eq!(ok, Ok(()));
        for missing in [driver::IPC + 1, usize::MAX] {
            let (err, cycles) = charged(&mut k, missing);
            assert_eq!(err, Err(ErrorCode::NoDevice));
            assert_eq!(
                cycles, known,
                "a failed subscribe charges what one that succeeds does"
            );
        }
        assert_eq!(k.subscriptions[pid], [driver::IPC]);
        let exits: Vec<bool> = trace::take()
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::SyscallExit {
                    call: SyscallKind::Subscribe,
                    ok,
                    ..
                } => Some(ok),
                _ => None,
            })
            .collect();
        trace::disable();
        assert_eq!(exits, [true, false, false]);
        assert!(!k.deliver_upcall(pid, driver::IPC + 1, 1));
    }

    #[test]
    fn restart_clears_subscriptions() {
        let (mut k, pid) = boot_with_app(Flavor::Granular);
        k.sys_subscribe(pid, driver::ALARM).unwrap();
        k.fault_process(pid, "x");
        k.restart_process(pid).unwrap();
        assert!(!k.deliver_upcall(pid, driver::ALARM, 1));
    }

    #[test]
    fn ipc_call_and_reply_roundtrip() {
        for flavor in flavors() {
            let mut k = Kernel::boot(flavor, &NRF52840DK);
            let img1 = flash_app(&mut k.mem, 0x0004_0000, "client", 0x1000, 2048, 512).unwrap();
            let img2 = flash_app(&mut k.mem, 0x0004_1000, "service", 0x1000, 2048, 512).unwrap();
            let client = k.load_process(&img1).unwrap();
            let service = k.load_process(&img2).unwrap();

            // Service registers, subscribes, and posts an inbox.
            k.processes[service].setup_mpu();
            k.sys_subscribe(service, driver::IPC).unwrap();
            assert_eq!(
                k.sys_command(service, driver::IPC, 1, 0).unwrap(),
                service as u32
            );
            let svc_ms = k.processes[service].memory_start();
            k.sys_allow_rw(service, svc_ms + 256, 8).unwrap();

            // Client subscribes, stages "Hello" bytes, calls the service.
            k.sys_subscribe(client, driver::IPC).unwrap();
            k.processes[client].setup_mpu();
            let cl_ms = k.processes[client].memory_start();
            for (i, b) in b"Hello".iter().enumerate() {
                k.user_write_u8(client, cl_ms + 128 + i, *b).unwrap();
            }
            k.sys_allow_ro(client, cl_ms + 128, 5).unwrap();
            k.sys_command(client, driver::IPC, 2, service as u32)
                .unwrap();

            // The service received the bytes in its own memory and an
            // upcall naming the caller.
            assert_eq!(k.take_upcall(service), Some(client as u32));
            k.processes[service].setup_mpu();
            let word = k.user_read_u32(service, svc_ms + 256).unwrap();
            assert_eq!(&word.to_le_bytes()[..4], b"Hell");

            // Service rot13s in place and replies.
            for i in 0..5usize {
                let addr = svc_ms + 256 + i;
                let w = k.user_read_u32(service, addr & !3).unwrap();
                let b = (w >> (8 * (addr % 4))) as u8;
                let rot = match b {
                    b'a'..=b'z' => (b - b'a' + 13) % 26 + b'a',
                    b'A'..=b'Z' => (b - b'A' + 13) % 26 + b'A',
                    other => other,
                };
                k.user_write_u8(service, addr, rot).unwrap();
            }
            k.sys_allow_ro(service, svc_ms + 256, 5).unwrap();
            k.sys_allow_rw(client, cl_ms + 192, 8).unwrap();
            k.sys_command(service, driver::IPC, 3, client as u32)
                .unwrap();
            assert_eq!(k.take_upcall(client), Some(service as u32));
            // Context switch back to the client before it reads the reply.
            k.processes[client].setup_mpu();
            let reply = k.user_read_u32(client, cl_ms + 192).unwrap();
            assert_eq!(&reply.to_le_bytes(), b"Uryy", "{flavor:?}");
        }
    }

    #[test]
    fn ipc_rejects_unregistered_services_and_bad_pids() {
        let (mut k, pid) = boot_with_app(Flavor::Granular);
        k.processes[pid].setup_mpu();
        let ms = k.processes[pid].memory_start();
        k.sys_allow_ro(pid, ms + 64, 4).unwrap();
        // Calling an unregistered pid fails.
        assert_eq!(
            k.sys_command(pid, driver::IPC, 2, pid as u32),
            Err(ErrorCode::NoDevice)
        );
        // Calling a nonexistent pid fails.
        assert_eq!(
            k.sys_command(pid, driver::IPC, 2, 99),
            Err(ErrorCode::NoDevice)
        );
        // Replying to a nonexistent pid fails.
        assert_eq!(
            k.sys_command(pid, driver::IPC, 3, 99),
            Err(ErrorCode::Invalid)
        );
    }

    #[test]
    fn ipc_copy_requires_both_allows() {
        let mut k = Kernel::boot(Flavor::Granular, &NRF52840DK);
        let img1 = flash_app(&mut k.mem, 0x0004_0000, "c", 0x1000, 2048, 512).unwrap();
        let img2 = flash_app(&mut k.mem, 0x0004_1000, "s", 0x1000, 2048, 512).unwrap();
        let client = k.load_process(&img1).unwrap();
        let service = k.load_process(&img2).unwrap();
        k.sys_command(service, driver::IPC, 1, 0).unwrap();
        // No RO buffer on the client yet: Invalid.
        assert_eq!(
            k.sys_command(client, driver::IPC, 2, service as u32),
            Err(ErrorCode::Invalid)
        );
        // RO present but the service posted no inbox: still Invalid.
        k.processes[client].setup_mpu();
        let cl_ms = k.processes[client].memory_start();
        k.sys_allow_ro(client, cl_ms + 64, 4).unwrap();
        assert_eq!(
            k.sys_command(client, driver::IPC, 2, service as u32),
            Err(ErrorCode::Invalid)
        );
    }

    /// A trivial app for scheduler tests.
    struct Counter {
        left: u32,
    }
    impl App for Counter {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn step(&mut self, kernel: &mut Kernel, pid: usize) -> Step {
            if self.left == 0 {
                return Step::Exit;
            }
            self.left -= 1;
            let _ = kernel.sys_command(pid, driver::LED, 0, 0);
            Step::Continue
        }
    }

    #[test]
    fn scheduler_runs_apps_to_completion() {
        for flavor in flavors() {
            let mut k = Kernel::boot(flavor, &NRF52840DK);
            let img1 = flash_app(&mut k.mem, 0x0004_0000, "a", 0x1000, 2048, 512).unwrap();
            let img2 = flash_app(&mut k.mem, 0x0004_1000, "b", 0x1000, 2048, 512).unwrap();
            k.load_process(&img1).unwrap();
            k.load_process(&img2).unwrap();
            let mut apps: Vec<Box<dyn App>> = vec![
                Box::new(Counter { left: 10 }),
                Box::new(Counter { left: 6 }),
            ];
            k.run(&mut apps, 100);
            assert!(k.processes.iter().all(|p| p.state == ProcessState::Exited));
            assert_eq!(k.capsules.leds.toggles, 16);
            assert!(k.ticks < 100, "should finish early");
        }
    }

    /// An app that crashes immediately, for fault-policy tests.
    struct Crasher;
    impl App for Crasher {
        fn name(&self) -> &'static str {
            "crasher"
        }
        fn step(&mut self, kernel: &mut Kernel, pid: usize) -> Step {
            let _ = kernel.sys_print(pid, "boot\r\n");
            let _ = kernel.user_read_u32(pid, 0xE000_0000);
            Step::Continue
        }
    }

    fn mk_crasher() -> Box<dyn App> {
        Box::new(Crasher)
    }

    #[test]
    fn stop_policy_leaves_process_faulted() {
        for flavor in flavors() {
            let (mut k, pid) = boot_with_app(flavor);
            let mut apps: Vec<Box<dyn App>> = vec![mk_crasher()];
            k.run(&mut apps, 50);
            assert!(matches!(k.processes[pid].state, ProcessState::Faulted(_)));
            assert_eq!(k.restarts[pid], 0);
        }
    }

    #[test]
    fn restart_policy_respawns_up_to_threshold() {
        for flavor in flavors() {
            let (mut k, pid) = boot_with_app(flavor);
            k.fault_policy = FaultPolicy::Restart { max_restarts: 2 };
            let mut apps: Vec<Box<dyn App>> = vec![mk_crasher()];
            let factories: [fn() -> Box<dyn App>; 1] = [mk_crasher];
            k.run_with_factories(&mut apps, Some(&factories), 100);
            assert_eq!(k.restarts[pid], 2, "{flavor:?}");
            assert!(matches!(k.processes[pid].state, ProcessState::Faulted(_)));
            // The process ran three times in total (boot printed thrice).
            assert_eq!(k.processes[pid].console.matches("boot").count(), 3);
            // Three fault reports were logged.
            assert_eq!(k.fault_log.iter().filter(|(p, _)| *p == pid).count(), 3);
        }
    }

    #[test]
    fn restart_reuses_the_same_memory_block() {
        for flavor in flavors() {
            let (mut k, pid) = boot_with_app(flavor);
            let (ms, sz) = (
                k.processes[pid].memory_start(),
                k.processes[pid].memory_size(),
            );
            k.processes[pid].allocate_grant(1, 64).unwrap();
            k.fault_process(pid, "test fault");
            k.restart_process(pid).unwrap();
            assert_eq!(k.processes[pid].memory_start(), ms, "{flavor:?}");
            assert_eq!(k.processes[pid].memory_size(), sz);
            assert_eq!(k.processes[pid].state, ProcessState::Ready);
            assert!(k.processes[pid].grants.is_empty(), "grants cleared");
            assert_eq!(k.restarts[pid], 1);
        }
    }

    #[test]
    fn two_processes_are_isolated_from_each_other() {
        for flavor in flavors() {
            let mut k = Kernel::boot(flavor, &NRF52840DK);
            let img1 = flash_app(&mut k.mem, 0x0004_0000, "a", 0x1000, 2048, 512).unwrap();
            let img2 = flash_app(&mut k.mem, 0x0004_1000, "b", 0x1000, 2048, 512).unwrap();
            let p1 = k.load_process(&img1).unwrap();
            let p2 = k.load_process(&img2).unwrap();
            // With process 1's MPU configuration loaded, process 2's
            // memory is unreachable.
            k.processes[p1].setup_mpu();
            let other = k.processes[p2].memory_start() + 64;
            assert!(!k.user_probe(other, AccessType::Read), "{flavor:?}");
            assert!(!k.user_probe(other, AccessType::Write));
            // And vice versa.
            k.processes[p2].setup_mpu();
            let own = k.processes[p2].memory_start() + 64;
            assert!(k.user_probe(own, AccessType::Read));
            let first = k.processes[p1].memory_start() + 64;
            assert!(!k.user_probe(first, AccessType::Read));
        }
    }
}
