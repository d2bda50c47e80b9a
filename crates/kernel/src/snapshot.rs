//! Machine checkpoints: boot once, resume a run from any tick boundary
//! in microseconds.
//!
//! The fault campaign's scale was bounded by `Kernel::boot`: every run
//! paid a fresh memory allocation, process loading and MPU staging. A
//! [`Checkpoint`] freezes a kernel between scheduler ticks — staged and
//! live protection registers, commit cache, process table, scheduler
//! state, program state — together with the thread-local run context a
//! run accumulates (cycle counter, injection and arrival-point progress,
//! contract violations, trace length), and `Checkpoint::restore`
//! rewinds the same kernel to that point for the next run.
//!
//! Memory is held once: the runner takes one [`MemSnapshot`] after boot
//! (the *base*: RAM and the programmed part of flash), and each
//! checkpoint stores only the RAM pages in which it may differ from the
//! base ([`PageDelta`]). `tt_hw::mem` tracks dirty pages from then on,
//! so a restore copies back what the run wrote plus the pages of the two
//! checkpoints it moves between (see `DESIGN.md` §12).
//!
//! Restore also rewinds every piece of *thread-local* run state the
//! drift audit found leaking between runs: the cycle counter (rewound to
//! its capture value, so cycle-derived sensor readings replay), the
//! trace ring (re-armed with the checkpoint's trace prefix, shared
//! with the ladder's trace rather than copied, so a restored run's trace
//! is byte-identical to a fresh boot's), contract violations, stale §6.2 method records, the
//! recording/current-pid flags, and any injection plan or interrupt
//! schedule left armed by a previous run.
//!
//! Restore writes into the live machine rather than rebuilding it. The
//! process table is cloned element-wise into the live one
//! (`Process::clone_from` reuses the image name, console and grants,
//! and each backend's box when its type matches), the register file,
//! capsules and scheduler tables through `clone_from`, and the programs
//! into the live programs (`App::restore_into`). A restore to a
//! checkpoint whose process table has the live shape allocates nothing.
//! Before, restore rebuilt the table and the programs: a fleet run made
//! 32.17 allocations and an explorer representative 27.14; with the
//! engines armed in their own storage too, they make 9.33 and 6.27.
//! `crates/kernel/tests/allocations.rs` gates all three figures.
//!
//! ## Restore invariants
//!
//! * The kernel passed to `Checkpoint::restore` must be the one the
//!   checkpoint was captured on: hardware state is written back through
//!   the kernel's existing `Rc` machine handles (the process backends
//!   share them), and the dirty-page tracking armed by the base snapshot
//!   lives in that kernel's memory. Checkpoints are therefore per-thread
//!   values — `Rc` keeps them `!Send` by construction.
//! * The caller names the checkpoint the live state was last restored to
//!   (its delta is part of what may differ), and passes the trace prefix
//!   the checkpoint was captured after.
//! * Capture happens between ticks, with no DMA transfer in flight
//!   (asserted): the DMA cell and engine are rebuilt at boot state on
//!   restore.
//! * PMP locked entries are restored wholesale, bypassing the lock
//!   semantics `write_cfg` enforces — exactly what a power cycle does on
//!   real silicon, which is the event a restore models.

use std::rc::Rc;

use crate::capsules::PendingAlarm;
use crate::kernel::{App, FaultPolicy, Kernel, Upcall};
use crate::machine::{CommitCacheSnapshot, MachineKind};
use crate::process::Process;
use tt_hw::cortexm::CortexMpu;
use tt_hw::injection::{InjectionPlan, Progress};
use tt_hw::mem::{MemSnapshot, PageDelta};
use tt_hw::riscv::RiscvPmp;
use tt_hw::sched::ALL_ARRIVAL_POINTS;
use tt_hw::trace::{self, TraceEvent};

/// The protection-register half of a checkpoint, matching the machine's
/// architecture.
#[derive(Debug, Clone)]
enum HwSnapshot {
    /// Full ARMv7-M MPU register file (CTRL, RNR, per-region RBAR/RASR).
    CortexM(CortexMpu),
    /// Full PMP CSR file, locked entries included.
    Pmp(RiscvPmp),
}

/// A frozen machine between two scheduler ticks: everything
/// `Checkpoint::restore` needs to rewind a [`Kernel`] (and the
/// thread-local simulator state around it) to the capture point, as if
/// the run up to it had executed live.
pub struct Checkpoint {
    /// RAM pages that may differ from the base snapshot.
    pub(crate) mem: PageDelta,
    hw: HwSnapshot,
    pub(crate) cache: CommitCacheSnapshot,
    processes: Vec<Process>,
    // Capsule state (the DMA cell/engine are rebuilt fresh; capture
    // asserts no transfer is in flight).
    leds: crate::capsules::Leds,
    alarms: Vec<PendingAlarm>,
    console_input: Vec<(usize, Vec<u8>)>,
    // Kernel scheduler and accounting state.
    /// Scheduler ticks completed at capture (0 = the post-boot base).
    pub(crate) ticks: u64,
    fault_log: Vec<(usize, String)>,
    ipc_services: Vec<usize>,
    fault_policy: FaultPolicy,
    restarts: Vec<u32>,
    recoveries: Vec<u32>,
    recovery_cycles: Vec<u64>,
    mpu_scrub: bool,
    commit_window_bug: bool,
    restart_due: Vec<Option<u64>>,
    pending_respawn: Vec<bool>,
    upcalls: Vec<Option<Upcall>>,
    subscriptions: Vec<Vec<usize>>,
    ram_cursor: usize,
    ram_end: usize,
    // Run context at capture.
    /// Program state, written into the live programs per restore; `None`
    /// = fresh programs (a post-boot base whose programs are not
    /// resumable: the runner starts them from its factories).
    apps: Option<Vec<Box<dyn App>>>,
    /// Injection-engine progress under the plan the checkpoint was
    /// captured with (the empty counting plan for clean checkpoints).
    pub(crate) injection: Progress,
    /// Arrival-point occurrence counts, captured with a trace-neutral
    /// empty schedule armed.
    pub(crate) sched_seen: [u32; ALL_ARRIVAL_POINTS.len()],
    /// Contract violations since boot, boot included.
    pub(crate) violations: Vec<String>,
    /// The cycle counter at capture.
    pub(crate) cycles: u64,
    /// Cycle-counter reads since boot ([`tt_hw::cycles::sample`]):
    /// compared with a later count along the same run, it says whether
    /// the run read the counter in between.
    pub(crate) samples: u64,
    /// Trace events recorded before the capture point (boot included).
    pub(crate) trace_len: usize,
}

impl Checkpoint {
    /// Captures the live machine between two ticks. `from` is the delta
    /// of the checkpoint the live state was last restored to (the empty
    /// delta right after the base snapshot), `apps` the program state
    /// (`None` before any program stepped), `violations` the run's
    /// contract violations so far, `trace_len` its trace length and
    /// `samples` its cycle-counter reads. Engine progress and the cycle
    /// counter are read from this thread.
    ///
    /// Returns `None` when a program is not resumable
    /// ([`App::clone_app`]): such runs always start from boot.
    pub(crate) fn capture(
        kernel: &Kernel,
        from: &PageDelta,
        apps: Option<&[Box<dyn App>]>,
        violations: Vec<String>,
        trace_len: usize,
        samples: u64,
    ) -> Option<Self> {
        assert!(
            !kernel.capsules.dma_cell.busy(),
            "cannot checkpoint with a DMA transfer in flight"
        );
        let apps = match apps {
            Some(apps) => Some(apps.iter().map(|a| a.clone_app()).collect::<Option<_>>()?),
            None => None,
        };
        let hw = match kernel.machine.kind() {
            MachineKind::CortexM(mpu) => HwSnapshot::CortexM(mpu.borrow().clone()),
            MachineKind::Pmp(pmp) => HwSnapshot::Pmp(pmp.borrow().clone()),
        };
        Some(Self {
            mem: kernel.mem.capture_delta(from),
            hw,
            cache: kernel.machine.cache().snapshot(),
            processes: kernel.processes.clone(),
            leds: kernel.capsules.leds.clone(),
            alarms: kernel.capsules.alarms.clone(),
            console_input: kernel.capsules.console_input.clone(),
            ticks: kernel.ticks,
            fault_log: kernel.fault_log.clone(),
            ipc_services: kernel.ipc_services.clone(),
            fault_policy: kernel.fault_policy,
            restarts: kernel.restarts.clone(),
            recoveries: kernel.recoveries.clone(),
            recovery_cycles: kernel.recovery_cycles.clone(),
            mpu_scrub: kernel.mpu_scrub,
            commit_window_bug: kernel.commit_window_bug,
            restart_due: kernel.restart_due.clone(),
            pending_respawn: kernel.pending_respawn.clone(),
            upcalls: kernel.upcalls.clone(),
            subscriptions: kernel.subscriptions.clone(),
            ram_cursor: kernel.ram_cursor,
            ram_end: kernel.ram_end,
            apps,
            injection: tt_hw::injection::progress().unwrap_or_default(),
            sched_seen: tt_hw::sched::seen_counts().unwrap_or_default(),
            violations,
            cycles: tt_hw::cycles::now(),
            samples,
            trace_len,
        })
    }

    /// Whether the live machine equals this checkpoint in everything a
    /// run's continuation depends on, the cycle counter aside: from here
    /// the live run would replay the run this checkpoint was captured
    /// along, as long as neither reads the counter. `from` is the delta
    /// of the checkpoint the live state was last restored to, `apps` the
    /// live program state, and `plan` the injection plan armed, if any,
    /// whose progress must match as `InjectionPlan::same_future` says.
    ///
    /// Cheap fields first — a run that has not rejoined usually differs
    /// in its process table and never reaches the register file or RAM.
    /// Allocator generations are compared by what they decide, whether
    /// the commit cache's key names the current layout
    /// ([`Process::same_state`], `CommitCacheSnapshot::acts_like`). The
    /// commit cache's hit and miss counters only count and are left out,
    /// so a run that took an extra commit on the way (an interrupt's
    /// re-commit) still matches; the caller carries them over as deltas.
    pub(crate) fn matches(
        &self,
        kernel: &Kernel,
        base: &MemSnapshot,
        from: &PageDelta,
        apps: &[Box<dyn App>],
        plan: Option<&InjectionPlan>,
    ) -> bool {
        let Some(saved_apps) = &self.apps else {
            return false;
        };
        fn current(processes: &[Process]) -> impl Fn(u32, u64) -> bool + '_ {
            |pid, generation| {
                processes.get(pid as usize).and_then(Process::generation) == Some(generation)
            }
        }
        let hw = || match (&self.hw, kernel.machine.kind()) {
            (HwSnapshot::CortexM(saved), MachineKind::CortexM(mpu)) => *mpu.borrow() == *saved,
            (HwSnapshot::Pmp(saved), MachineKind::Pmp(pmp)) => *pmp.borrow() == *saved,
            _ => false,
        };
        kernel.ticks == self.ticks
            && kernel.processes.len() == self.processes.len()
            && kernel
                .processes
                .iter()
                .zip(&self.processes)
                .all(|(a, b)| a.same_state(b))
            && apps.len() == saved_apps.len()
            && apps
                .iter()
                .zip(saved_apps)
                .all(|(a, b)| a.state_word().is_some_and(|w| b.state_word() == Some(w)))
            && kernel.restart_due == self.restart_due
            && kernel.pending_respawn == self.pending_respawn
            && kernel.capsules.alarms == self.alarms
            && kernel.subscriptions == self.subscriptions
            && kernel.upcalls == self.upcalls
            && kernel.restarts == self.restarts
            && kernel.recoveries == self.recoveries
            && kernel.recovery_cycles == self.recovery_cycles
            && kernel.capsules.leds == self.leds
            && kernel.capsules.console_input == self.console_input
            && !kernel.capsules.dma_cell.busy()
            && kernel.ipc_services == self.ipc_services
            && (kernel.ram_cursor, kernel.ram_end) == (self.ram_cursor, self.ram_end)
            && kernel.fault_policy == self.fault_policy
            && (kernel.mpu_scrub, kernel.commit_window_bug)
                == (self.mpu_scrub, self.commit_window_bug)
            && kernel.machine.cache().snapshot().acts_like(
                &self.cache,
                current(&kernel.processes),
                current(&self.processes),
            )
            && plan.is_none_or(|plan| {
                let live = tt_hw::injection::progress().unwrap_or_default();
                plan.same_future(&live, &self.injection)
            })
            && hw()
            && kernel.fault_log == self.fault_log
            && kernel.mem.matches(base, from, &self.mem)
    }

    /// Rewinds `kernel` — and this thread's simulator context — to the
    /// capture point, from a live state last restored to the checkpoint
    /// whose delta is `from`; `base` is the post-boot memory snapshot and
    /// `trace` a trace the checkpoint was captured along, whose first
    /// `trace_len` events the ring, of `trace_capacity` events, shares as
    /// its prefix. Writes the program state to
    /// resume with into `apps`, the live programs, and returns `false`
    /// when the checkpoint holds none (fresh programs: the caller starts
    /// them). Both engines are left disarmed. See the module docs for the
    /// restore invariants.
    ///
    /// Everything is written back into the live machine's own buffers
    /// (`clone_from`, element-wise for the process table and the
    /// programs), so a restore to a checkpoint whose process table has
    /// the live shape allocates nothing.
    pub(crate) fn restore(
        &self,
        kernel: &mut Kernel,
        base: &MemSnapshot,
        from: &PageDelta,
        trace: &Rc<[TraceEvent]>,
        trace_capacity: usize,
        apps: &mut Vec<Box<dyn App>>,
    ) -> bool {
        debug_assert!(trace.len() >= self.trace_len);
        kernel.mem.restore_to(base, from, &self.mem);
        // Protection hardware, written back through the existing shared
        // handles so every process backend sees the restored registers.
        match (&self.hw, kernel.machine.kind()) {
            (HwSnapshot::CortexM(saved), MachineKind::CortexM(mpu)) => {
                mpu.borrow_mut().clone_from(saved);
            }
            (HwSnapshot::Pmp(saved), MachineKind::Pmp(pmp)) => {
                pmp.borrow_mut().clone_from(saved);
            }
            _ => unreachable!("checkpoint architecture does not match the kernel's machine"),
        }
        // Commit cache: key AND counters (drift audit: `reset_stats`
        // keeps the key and the counters accumulate across runs).
        kernel.machine.cache().restore(self.cache);
        // Process table: element-wise into the live processes, whose
        // backends share the restored machine (`Process::clone_from`).
        kernel.processes.clone_from(&self.processes);
        // Capsules: captured state, DMA rebuilt fresh.
        kernel
            .capsules
            .restore(&self.leds, &self.alarms, &self.console_input);
        // Scheduler and accounting state.
        kernel.ticks = self.ticks;
        kernel.fault_log.clone_from(&self.fault_log);
        kernel.ipc_services.clone_from(&self.ipc_services);
        kernel.fault_policy = self.fault_policy;
        kernel.restarts.clone_from(&self.restarts);
        kernel.recoveries.clone_from(&self.recoveries);
        kernel.recovery_cycles.clone_from(&self.recovery_cycles);
        kernel.mpu_scrub = self.mpu_scrub;
        kernel.commit_window_bug = self.commit_window_bug;
        kernel.restart_due.clone_from(&self.restart_due);
        kernel.pending_respawn.clone_from(&self.pending_respawn);
        kernel.upcalls.clone_from(&self.upcalls);
        kernel.subscriptions.clone_from(&self.subscriptions);
        kernel.ram_cursor = self.ram_cursor;
        kernel.ram_end = self.ram_end;
        // Thread-local run context: drop anything a previous run (on
        // this pool worker) may have leaked, then rewind the clock and
        // re-arm tracing with the prefix, shared with `trace`, not copied.
        if tt_hw::injection::is_armed() {
            let _ = tt_hw::injection::disarm();
        }
        if tt_hw::sched::is_armed() {
            let _ = tt_hw::sched::disarm();
        }
        let _ = tt_contracts::take_violations();
        let _ = tt_hw::cycles::take_method_records();
        tt_contracts::simctx::reset_run_state();
        tt_hw::cycles::set_now(self.cycles);
        trace::enable(trace_capacity);
        trace::share_prefix(trace, self.trace_len);
        let Some(saved) = &self.apps else {
            return false;
        };
        apps.truncate(saved.len());
        for (live, saved) in apps.iter_mut().zip(saved) {
            saved.restore_into(live);
        }
        let resumed = saved[apps.len()..]
            .iter()
            .map(|a| a.clone_app().expect("captured apps are resumable"));
        apps.extend(resumed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::flash_app;
    use crate::process::{Flavor, ProcessState};
    use tt_hw::platform::{ChipProfile, EARLGREY, NRF52840DK};

    /// Trace ring capacity restores re-arm.
    const CAP: usize = 65_536;

    fn boot_two(chip: &ChipProfile) -> Kernel {
        let mut k = Kernel::boot(Flavor::Granular, chip);
        k.fault_policy = FaultPolicy::RestartWithBackoff {
            max_restarts: 3,
            base_delay: 2,
            max_delay: 8,
        };
        let base = chip.map.flash.start + 0x4_0000;
        for (slot, name) in [(0usize, "a"), (1, "b")] {
            let img = flash_app(&mut k.mem, base + slot * 0x1000, name, 0x1000, 3000, 1024)
                .expect("flash image");
            k.load_process(&img).expect("load process");
        }
        k
    }

    /// [`Checkpoint::restore`] into no live programs: the programs to
    /// resume with, `None` for fresh ones.
    fn restore(
        checkpoint: &Checkpoint,
        k: &mut Kernel,
        base: &MemSnapshot,
        from: &PageDelta,
        prefix: &[TraceEvent],
    ) -> Option<Vec<Box<dyn App>>> {
        let mut apps = Vec::new();
        checkpoint
            .restore(k, base, from, &prefix.into(), CAP, &mut apps)
            .then_some(apps)
    }

    /// The post-boot base and checkpoint of a booted kernel, with the
    /// boot trace drained into the returned prefix.
    fn capture_boot(k: &mut Kernel) -> (MemSnapshot, Checkpoint, Vec<TraceEvent>) {
        let prefix = if trace::is_enabled() {
            trace::take().events
        } else {
            Vec::new()
        };
        let base = k.mem.snapshot();
        let boot = Checkpoint::capture(k, &PageDelta::default(), None, Vec::new(), prefix.len(), 0)
            .expect("fresh programs are always resumable");
        (base, boot, prefix)
    }

    /// Drives the kernel through state a run would dirty: syscalls, RAM
    /// writes, grants, an upcall subscription, a fault + recovery.
    fn dirty_the_kernel(k: &mut Kernel) {
        let ms = k.processes[0].memory_start();
        let _ = k.sys_sbrk(0, 128);
        let _ = k.user_write_u32(0, ms + 64, 0xDEAD);
        let _ = k.sys_command(0, crate::capsules::driver::LED, 0, 1);
        let _ = k.sys_print(1, "hello\r\n");
        k.processes[0].fault("test fault");
        k.ticks += 10;
    }

    #[test]
    fn restore_rewinds_kernel_state_on_both_architectures() {
        for chip in [NRF52840DK, EARLGREY] {
            tt_hw::cycles::reset();
            let mut k = boot_two(&chip);
            let (base, boot, prefix) = capture_boot(&mut k);
            let boot_states: Vec<ProcessState> =
                k.processes.iter().map(|p| p.state.clone()).collect();
            let boot_break = k.processes[0].app_break();
            let boot_word = k.mem.read_u32(k.processes[0].memory_start() + 64);
            dirty_the_kernel(&mut k);
            assert_ne!(k.processes[0].state, boot_states[0]);
            assert!(restore(&boot, &mut k, &base, &boot.mem, &prefix).is_none());
            let got: Vec<ProcessState> = k.processes.iter().map(|p| p.state.clone()).collect();
            assert_eq!(got, boot_states, "{}", chip.name);
            assert_eq!(k.processes[0].app_break(), boot_break);
            assert_eq!(
                k.mem.read_u32(k.processes[0].memory_start() + 64),
                boot_word
            );
            assert_eq!(k.ticks, 0);
            assert!(k.fault_log.is_empty());
            assert_eq!(k.processes[1].console, "");
            assert_eq!(k.capsules.leds.toggles, 0);
            // The restored kernel runs again: same syscalls succeed.
            dirty_the_kernel(&mut k);
            restore(&boot, &mut k, &base, &boot.mem, &prefix);
            assert_eq!(k.ticks, 0);
            trace::disable();
        }
    }

    #[test]
    fn restore_rewinds_thread_local_run_context() {
        tt_hw::cycles::reset();
        trace::enable(1024);
        let mut k = boot_two(&NRF52840DK);
        let (base, boot, prefix) = capture_boot(&mut k);
        assert!(!prefix.is_empty(), "boot must have recorded events");
        // Pollute everything restore claims to rewind.
        tt_hw::cycles::charge_n(tt_hw::cycles::Cost::Alu, 999);
        tt_hw::cycles::set_recording(true);
        tt_hw::cycles::record_method("stale", 1);
        trace::set_current_pid(7);
        tt_hw::injection::arm(&tt_hw::injection::InjectionPlan::from_seed(1, 0));
        tt_hw::sched::arm(&tt_hw::sched::InterruptSchedule::empty());
        restore(&boot, &mut k, &base, &boot.mem, &prefix);
        assert!(!tt_hw::injection::is_armed());
        assert!(!tt_hw::sched::is_armed());
        assert_eq!(tt_hw::cycles::now(), boot.cycles);
        assert!(tt_hw::cycles::take_method_records().is_empty());
        assert_eq!(trace::current_pid(), tt_hw::trace::NO_PID);
        // The ring holds exactly the boot prefix again.
        let t = trace::take();
        assert_eq!(t.events, prefix);
        trace::disable();
        tt_hw::cycles::set_recording(false);
    }

    /// A minimal app driving enough syscalls to move the commit cache.
    #[derive(Clone)]
    struct Chatty {
        n: u32,
    }
    impl App for Chatty {
        fn name(&self) -> &'static str {
            "chatty"
        }
        fn clone_app(&self) -> Option<Box<dyn App>> {
            Some(Box::new(self.clone()))
        }
        fn state_word(&self) -> Option<u64> {
            Some(u64::from(self.n))
        }
        fn restore_into(&self, live: &mut Box<dyn App>) {
            crate::kernel::restore_cloned(self, live);
        }
        fn step(&mut self, k: &mut Kernel, pid: usize) -> crate::kernel::Step {
            self.n += 1;
            let _ = k.sys_print(pid, "x\r\n");
            if self.n >= 10 {
                crate::kernel::Step::Exit
            } else {
                crate::kernel::Step::Continue
            }
        }
    }

    fn chatty() -> Vec<Box<dyn App>> {
        vec![Box::new(Chatty { n: 0 }), Box::new(Chatty { n: 0 })]
    }

    #[test]
    fn commit_cache_and_counters_round_trip_through_restore() {
        tt_hw::cycles::reset();
        let mut k = boot_two(&NRF52840DK);
        let (base, boot, prefix) = capture_boot(&mut k);
        let boot_cache = k.machine.cache().snapshot();
        // Run real work that moves the cache and the recovery counters.
        k.run_with_factories(&mut chatty(), None, 50);
        assert_ne!(k.machine.cache().snapshot(), boot_cache);
        restore(&boot, &mut k, &base, &boot.mem, &prefix);
        assert_eq!(k.machine.cache().snapshot(), boot_cache);
        assert!(k.restarts.iter().all(|&r| r == 0));
        assert!(k.recoveries.iter().all(|&r| r == 0));
        assert!(k.recovery_cycles.iter().all(|&c| c == 0));
        trace::disable();
    }

    #[test]
    fn reset_stats_between_runs_cannot_survive_a_restore() {
        // `reset_stats` zeroes the hit/miss counters without touching the
        // cached key; a restore must overwrite *both* with the capture
        // values, whichever order a caller interleaves them in.
        tt_hw::cycles::reset();
        let mut k = boot_two(&NRF52840DK);
        let (base, boot, prefix) = capture_boot(&mut k);
        let at_capture = (k.machine.cache().hits(), k.machine.cache().misses());
        k.run_with_factories(&mut chatty(), None, 50);
        k.machine.cache().reset_stats();
        assert_eq!(
            (k.machine.cache().hits(), k.machine.cache().misses()),
            (0, 0)
        );
        restore(&boot, &mut k, &base, &boot.mem, &prefix);
        assert_eq!(
            (k.machine.cache().hits(), k.machine.cache().misses()),
            at_capture,
            "restore must rewind counters past an interleaved reset_stats"
        );
        // And the other order: restore, then a stray reset, then another
        // restore still converges on the capture counters.
        k.machine.cache().reset_stats();
        restore(&boot, &mut k, &base, &boot.mem, &prefix);
        assert_eq!(
            (k.machine.cache().hits(), k.machine.cache().misses()),
            at_capture
        );
        trace::disable();
    }

    #[test]
    fn a_mid_run_checkpoint_resumes_its_programs_and_memory() {
        // Checkpoint after tick 1, then switch tick 1 -> tick 1 -> boot
        // around live runs: each restore lands on its capture point's
        // programs, memory and tick count, and a resumed run replays the
        // live run's remainder byte for byte.
        tt_hw::cycles::reset();
        trace::enable(1024);
        let mut k = boot_two(&NRF52840DK);
        let (base, boot, prefix) = capture_boot(&mut k);
        let mut apps = restore(&boot, &mut k, &base, &boot.mem, &prefix).unwrap_or_else(chatty);
        assert!(
            !k.run_with_factories(&mut apps, None, 1),
            "tick 1 does not end the run"
        );
        let len = trace::with_events(|events| events.len());
        let tick1 = Checkpoint::capture(&k, &boot.mem, Some(&apps), Vec::new(), len, 0)
            .expect("chatty apps are resumable");
        let ms = k.processes[1].memory_start();
        let word = k.mem.read_u32(ms + 64);
        let finish = |k: &mut Kernel, mut apps: Vec<Box<dyn App>>| {
            let _ = k.user_write_u32(1, ms + 64, 0x5555);
            assert!(
                k.run_with_factories(&mut apps, None, 50),
                "the run ends on its own"
            );
            trace::take().events
        };
        let live = finish(&mut k, apps);
        let events = &live[..len];
        let apps = restore(&tick1, &mut k, &base, &boot.mem, events);
        assert_eq!((k.ticks, k.mem.read_u32(ms + 64)), (1, word));
        assert_eq!(finish(&mut k, apps.expect("programs")), live);
        let apps = restore(&tick1, &mut k, &base, &tick1.mem, events);
        assert_eq!(k.mem.read_u32(ms + 64), word);
        assert_eq!(finish(&mut k, apps.expect("programs")), live);
        assert!(restore(&boot, &mut k, &base, &tick1.mem, &prefix).is_none());
        assert_eq!(k.ticks, 0);
        assert_eq!(finish(&mut k, chatty()), live);
        trace::disable();
    }

    #[test]
    fn restore_writes_programs_and_processes_into_the_live_ones() {
        tt_hw::cycles::reset();
        trace::enable(1024);
        let mut k = boot_two(&NRF52840DK);
        let (base, boot, _) = capture_boot(&mut k);
        let mut apps = chatty();
        assert!(!k.run_with_factories(&mut apps, None, 1));
        let len = trace::with_events(|events| events.len());
        let tick1 = Checkpoint::capture(&k, &boot.mem, Some(&apps), Vec::new(), len, 0)
            .expect("chatty apps are resumable");
        let events: Rc<[TraceEvent]> = trace::take().events.into();
        let image_name = k.processes[0].image.name.as_ptr();
        k.run_with_factories(&mut apps, None, 50);
        let boxes: Vec<*const dyn App> = apps.iter().map(|a| &**a as *const dyn App).collect();
        assert!(tick1.restore(&mut k, &base, &boot.mem, &events, CAP, &mut apps));
        // The same boxes and buffers, now holding the tick-1 state.
        let after: Vec<*const dyn App> = apps.iter().map(|a| &**a as *const dyn App).collect();
        assert!(boxes
            .iter()
            .zip(&after)
            .all(|(a, b)| std::ptr::addr_eq(*a, *b)));
        assert_eq!(k.processes[0].image.name.as_ptr(), image_name);
        let words: Vec<_> = apps.iter().map(|a| a.state_word()).collect();
        let saved = tick1.apps.as_ref().expect("programs");
        assert_eq!(
            words,
            saved.iter().map(|a| a.state_word()).collect::<Vec<_>>()
        );
        // Fewer live programs than the checkpoint holds: the rest are cloned.
        apps.truncate(1);
        assert!(tick1.restore(&mut k, &base, &tick1.mem, &events, CAP, &mut apps));
        assert_eq!(apps.len(), 2);
        assert_eq!(k.ticks, 1);
        trace::disable();
    }
}
