//! Deterministic, seeded fault injection ("isolation under fire").
//!
//! The differential oracle (PR 1) and the commit cache (PR 2) establish
//! that the two kernels agree *in fair weather*. This module makes the
//! weather: single-event upsets in the MPU/PMP register file (bit flips
//! applied to the value as it reaches the hardware), forced memory-access
//! faults, stack-overflow nudges, and corrupted syscall arguments.
//!
//! Everything is driven by an [`InjectionPlan`] derived from a 64-bit
//! seed, and every hook is consulted at a *trace-visible* point: when an
//! injection fires, a [`TraceEvent::FaultInjected`] event lands in the
//! ring **before** the corrupted value does, so a campaign run replays
//! exactly from `(seed, chip)` and any downstream divergence can be
//! attributed to the injection that precedes it.
//!
//! The engine is thread-local, like [`crate::cycles`] and
//! [`crate::trace`]: parallel campaign workers never interfere. An
//! injection only fires when the kernel-maintained process context
//! ([`crate::trace::current_pid`]) equals the plan's `target_pid` — the
//! blast radius of a plan is exactly one victim process, which is what
//! lets the campaign demand byte-identical observable traces from every
//! *other* process.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tt_contracts::simctx;

use crate::trace::{self, TraceEvent};

/// Where an [`Injection`] fires. Each point corresponds to one hook the
/// hardware model or the kernel consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InjectionPoint {
    /// A Cortex-M `MPU_RBAR` write: the value is bit-flipped on its way
    /// into the register file.
    ArmRbar,
    /// A Cortex-M `MPU_RASR` write, likewise.
    ArmRasr,
    /// A RISC-V `pmpcfg` byte write, likewise (flip confined to bits 0–7).
    PmpCfg,
    /// A checked user-mode memory access: the check is forced to deny,
    /// modelling a spurious MemManage/PMP access fault.
    UserAccess,
    /// A system-call argument register, XOR-corrupted between the app and
    /// the handler.
    SyscallArg,
    /// A context-switch-in: the kernel is told to model a stack push
    /// below the process's memory block (stack-overflow nudge).
    Stack,
}

/// All injection points, for plan generation and exhaustive tests.
pub const ALL_POINTS: [InjectionPoint; 6] = [
    InjectionPoint::ArmRbar,
    InjectionPoint::ArmRasr,
    InjectionPoint::PmpCfg,
    InjectionPoint::UserAccess,
    InjectionPoint::SyscallArg,
    InjectionPoint::Stack,
];

/// What an [`Injection`] does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectionKind {
    /// XOR the written register value with `1 << bit` (register points).
    BitFlip {
        /// Bit to flip (0–31 for RBAR/RASR, 0–7 for pmpcfg).
        bit: u8,
    },
    /// Deny one checked user access ([`InjectionPoint::UserAccess`]).
    ForceFault,
    /// XOR one syscall argument with `xor` ([`InjectionPoint::SyscallArg`]).
    CorruptArg {
        /// Non-zero corruption mask.
        xor: u32,
    },
    /// Model one stack push below the memory block ([`InjectionPoint::Stack`]).
    StackNudge,
}

/// One scheduled fault: fire `kind` at the `at`-th time the target
/// process reaches `point` (0-based, counted per point since [`arm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Which hook.
    pub point: InjectionPoint,
    /// Which occurrence of the hook (0 = the first one the target hits).
    pub at: u32,
    /// What to do there.
    pub kind: InjectionKind,
}

/// A complete, replayable fault schedule for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionPlan {
    /// Seed the plan was derived from (kept for reporting).
    pub seed: u64,
    /// The victim process: injections fire only in its context.
    pub target_pid: u32,
    /// The scheduled faults (each fires at most once).
    pub injections: Vec<Injection>,
}

impl InjectionPlan {
    /// Returns `true` if any scheduled injection would fire during a
    /// run prefix whose per-point occurrence counts (in target context,
    /// [`ALL_POINTS`] order) are `seen` — i.e. some injection's `at`
    /// falls *before* the counters a checkpoint would resume from. Such
    /// plans cannot use a checkpoint captured without them: the fault
    /// belongs in the skipped prefix, so the runner must resume from an
    /// earlier one.
    pub fn fires_within(&self, seen: &[u32; ALL_POINTS.len()]) -> bool {
        self.injections
            .iter()
            .any(|inj| inj.at < seen[point_index(inj.point)])
    }

    /// Returns `true` when a run standing at `progress` has nothing left
    /// to fire under this plan: every injection fired or had its
    /// occurrence pass (the counters only grow). From then on the
    /// occurrence counters no longer decide anything.
    pub fn spent_by(&self, progress: &Progress) -> bool {
        self.injections.iter().enumerate().all(|(i, inj)| {
            progress.fired.get(i) == Some(&true) || inj.at < progress.seen[point_index(inj.point)]
        })
    }

    /// Whether two runs under this plan, standing at `a` and `b`, fire
    /// the same injections from here on and have fired as many so far:
    /// the same fired flags and occurrence counters, or — once neither
    /// has anything left to fire ([`Self::spent_by`]) — the same count
    /// alone. Progress captured under the empty counting plan holds no
    /// flags, which reads as nothing fired.
    pub fn same_future(&self, a: &Progress, b: &Progress) -> bool {
        let fired = |p: &Progress, i: usize| p.fired.get(i) == Some(&true);
        a.fired_count == b.fired_count
            && (a.seen == b.seen && (0..self.injections.len()).all(|i| fired(a, i) == fired(b, i))
                || self.spent_by(a) && self.spent_by(b))
    }

    /// Derives a plan deterministically from `seed`: one to three
    /// injections with bounded occurrence indices. The same `(seed,
    /// target_pid)` always yields the same plan, which is what makes
    /// campaign runs replayable.
    pub fn from_seed(seed: u64, target_pid: u32) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.gen_range(1..=3usize);
        let mut injections = Vec::with_capacity(count);
        for _ in 0..count {
            let point = ALL_POINTS[rng.gen_range(0..ALL_POINTS.len())];
            // Occurrence indices are kept small so most injections land
            // within a run's horizon; plans whose faults never trigger
            // still participate as pure determinism checks.
            let at = rng.gen_range(0..24u32);
            let kind = match point {
                InjectionPoint::ArmRbar | InjectionPoint::ArmRasr => InjectionKind::BitFlip {
                    bit: rng.gen_range(0..32u8),
                },
                InjectionPoint::PmpCfg => InjectionKind::BitFlip {
                    bit: rng.gen_range(0..8u8),
                },
                InjectionPoint::UserAccess => InjectionKind::ForceFault,
                InjectionPoint::SyscallArg => InjectionKind::CorruptArg {
                    xor: (rng.gen::<u32>() | 1).rotate_left(rng.gen_range(0..32u32)),
                },
                InjectionPoint::Stack => InjectionKind::StackNudge,
            };
            injections.push(Injection { point, at, kind });
        }
        Self {
            seed,
            target_pid,
            injections,
        }
    }
}

/// Where an armed engine stands mid-run: what [`progress`] reads at a
/// checkpoint and [`resume`] arms from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Progress {
    /// Occurrences of each point seen in target context, indexed in
    /// [`ALL_POINTS`] order.
    pub seen: [u32; ALL_POINTS.len()],
    /// One-shot flags, parallel to the plan's injections.
    pub fired: Vec<bool>,
    /// Injections fired so far.
    pub fired_count: u64,
}

/// The armed plan and its progress, held in the engine's own storage:
/// arming writes a plan into it (`clone_from` for the injections and
/// the flags), so a steady stream of runs arms without allocating.
struct Engine {
    plan: InjectionPlan,
    progress: Progress,
}

/// An engine with no storage.
const EMPTY_ENGINE: Engine = Engine {
    plan: InjectionPlan {
        seed: 0,
        target_pid: 0,
        injections: Vec::new(),
    },
    progress: Progress {
        seen: [0; ALL_POINTS.len()],
        fired: Vec::new(),
        fired_count: 0,
    },
};

thread_local! {
    // `ManuallyDrop` for the same reason as the trace ring: the engine's
    // `Vec`s would otherwise give the thread-local `Drop` glue, forcing
    // every `fire` hook — one per modelled MPU write, user access and
    // syscall argument — through the TLS registration state machine.
    // Its storage outlives every arm and disarm; a thread frees it with
    // [`release_thread_buffers`]. Whether it is armed is the
    // `SimContext::injection_target` mirror.
    static ENGINE: RefCell<std::mem::ManuallyDrop<Engine>> = const {
        RefCell::new(std::mem::ManuallyDrop::new(EMPTY_ENGINE))
    };
}

/// Disarms the engine and frees its storage. Long-lived threads that
/// armed a plan should call this before exiting; the `tt_kernel::pool`
/// workers do.
pub fn release_thread_buffers() {
    let _ = disarm();
    ENGINE.with(|e| **e.borrow_mut() = EMPTY_ENGINE);
}

fn point_index(point: InjectionPoint) -> usize {
    ALL_POINTS
        .iter()
        .position(|p| *p == point)
        .expect("known point")
}

/// Arms the engine with a plan. Occurrence counters and one-shot flags
/// start fresh; any previously armed plan is discarded.
pub fn arm(plan: &InjectionPlan) {
    resume(plan, &Progress::default());
}

/// Arms the engine with a plan from `progress` instead of from zero —
/// the checkpoint form of [`arm`]. A run resumed from a checkpoint taken
/// under the same plan, with the progress [`progress`] read there,
/// behaves exactly like the full run. One-shot flags missing from
/// `progress` start unfired: a checkpoint captured under the empty
/// counting plan resumes any plan that schedules no injection inside
/// the skipped prefix (callers must check [`InjectionPlan::fires_within`]
/// first). Both are copied into the engine's own storage, which
/// allocates only while its buffers grow.
pub fn resume(plan: &InjectionPlan, progress: &Progress) {
    debug_assert!(
        progress.fired.len() == plan.injections.len() || !plan.fires_within(&progress.seen),
        "plan schedules an injection inside the skipped prefix"
    );
    debug_assert_ne!(plan.target_pid, simctx::NO_TARGET, "reserved sentinel");
    ENGINE.with(|e| {
        let mut eng = e.borrow_mut();
        let eng = &mut **eng;
        eng.plan.seed = plan.seed;
        eng.plan.target_pid = plan.target_pid;
        eng.plan.injections.clone_from(&plan.injections);
        let live = &mut eng.progress;
        live.seen = progress.seen;
        live.fired.clone_from(&progress.fired);
        live.fired.resize(plan.injections.len(), false);
        live.fired_count = progress.fired_count;
    });
    simctx::with(|c| c.injection_target.set(plan.target_pid));
}

/// The armed engine's progress since [`arm`], or `None` when disarmed.
/// A checkpointing runner reads it at capture time and replays it into
/// [`resume`] on every restore.
pub fn progress() -> Option<Progress> {
    is_armed().then(|| ENGINE.with(|e| e.borrow().progress.clone()))
}

/// Disarms the engine, returning how many injections fired since [`arm`].
pub fn disarm() -> u64 {
    let was = is_armed();
    simctx::with(|c| c.injection_target.set(simctx::NO_TARGET));
    match was {
        true => ENGINE.with(|e| e.borrow().progress.fired_count),
        false => 0,
    }
}

/// Returns `true` if a plan is armed on this thread: the `SimContext`
/// target mirror names one.
pub fn is_armed() -> bool {
    simctx::with(|c| c.injection_target.get() != simctx::NO_TARGET)
}

/// Number of injections fired since the last [`arm`] (0 when disarmed).
pub fn fired_count() -> u64 {
    match is_armed() {
        true => ENGINE.with(|e| e.borrow().progress.fired_count),
        false => 0,
    }
}

/// Core hook: bumps the occurrence counter for `point` (in target
/// context only) and returns the kind of the injection that fires there,
/// if any. Records the [`TraceEvent::FaultInjected`] event.
#[inline]
fn fire(point: InjectionPoint) -> Option<InjectionKind> {
    // Fast path: one scalar TLS access (the same cell line that holds
    // `current_pid`) rejects every hook outside the armed plan's target
    // context — and every hook while disarmed, since the mirror is then
    // [`simctx::NO_TARGET`], which no context matches. The engine's work
    // stays out of line, so this check compiles inline at each hook.
    if simctx::with(|c| c.current_pid.get() != c.injection_target.get()) {
        return None;
    }
    fire_in_target(point)
}

/// [`fire`] in the armed plan's target context.
#[inline(never)]
fn fire_in_target(point: InjectionPoint) -> Option<InjectionKind> {
    ENGINE.with(|e| {
        let mut slot = e.borrow_mut();
        let eng = &mut **slot;
        debug_assert_eq!(trace::current_pid(), eng.plan.target_pid);
        let idx = point_index(point);
        let p = &mut eng.progress;
        let occurrence = p.seen[idx];
        p.seen[idx] = occurrence.wrapping_add(1);
        let hit = eng
            .plan
            .injections
            .iter()
            .enumerate()
            .find(|(i, inj)| !p.fired[*i] && inj.point == point && inj.at == occurrence)
            .map(|(i, inj)| (i, *inj));
        let (i, inj) = hit?;
        p.fired[i] = true;
        p.fired_count += 1;
        let info = match inj.kind {
            InjectionKind::BitFlip { bit } => bit as u32,
            InjectionKind::CorruptArg { xor } => xor,
            InjectionKind::ForceFault | InjectionKind::StackNudge => 0,
        };
        trace::record(TraceEvent::FaultInjected {
            pid: eng.plan.target_pid,
            point,
            info,
        });
        Some(inj.kind)
    })
}

/// Register-write hook: called by the Cortex-M MPU (`RBAR`/`RASR`) and
/// RISC-V PMP (`pmpcfg`) register files with the value about to be
/// stored. Returns the (possibly bit-flipped) value that actually lands
/// in hardware — the `RegWrite` trace event and all readback paths see
/// the corrupted value, exactly like a real single-event upset.
#[inline]
pub fn mutate_reg_write(point: InjectionPoint, value: u32) -> u32 {
    match fire(point) {
        Some(InjectionKind::BitFlip { bit }) => value ^ (1u32 << (bit & 31)),
        _ => value,
    }
}

/// User-access hook: returns `true` when a checked user-mode access must
/// be forced to fault (spurious MemManage/PMP access fault).
#[inline]
pub fn force_user_fault() -> bool {
    matches!(
        fire(InjectionPoint::UserAccess),
        Some(InjectionKind::ForceFault)
    )
}

/// Syscall-argument hook: returns the (possibly corrupted) argument.
#[inline]
pub fn corrupt_syscall_arg(value: u32) -> u32 {
    match fire(InjectionPoint::SyscallArg) {
        Some(InjectionKind::CorruptArg { xor }) => value ^ xor,
        _ => value,
    }
}

/// Context-switch hook: returns `true` when the kernel should model a
/// stack push below the process's memory block this switch-in.
#[inline]
pub fn stack_nudge() -> bool {
    matches!(fire(InjectionPoint::Stack), Some(InjectionKind::StackNudge))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{self, NO_PID};

    fn plan(target: u32, injections: Vec<Injection>) -> InjectionPlan {
        InjectionPlan {
            seed: 0,
            target_pid: target,
            injections,
        }
    }

    #[test]
    fn disarmed_hooks_are_identity() {
        assert!(!is_armed());
        assert_eq!(mutate_reg_write(InjectionPoint::ArmRbar, 0x1234), 0x1234);
        assert!(!force_user_fault());
        assert_eq!(corrupt_syscall_arg(7), 7);
        assert!(!stack_nudge());
        assert_eq!(fired_count(), 0);
    }

    #[test]
    fn bit_flip_fires_once_at_the_scheduled_occurrence() {
        trace::set_current_pid(3);
        arm(&plan(
            3,
            vec![Injection {
                point: InjectionPoint::ArmRasr,
                at: 2,
                kind: InjectionKind::BitFlip { bit: 4 },
            }],
        ));
        assert_eq!(mutate_reg_write(InjectionPoint::ArmRasr, 0), 0); // occurrence 0
        assert_eq!(mutate_reg_write(InjectionPoint::ArmRasr, 0), 0); // occurrence 1
        assert_eq!(mutate_reg_write(InjectionPoint::ArmRasr, 0), 1 << 4); // fires
        assert_eq!(mutate_reg_write(InjectionPoint::ArmRasr, 0), 0); // one-shot
        assert_eq!(disarm(), 1);
        trace::set_current_pid(NO_PID);
    }

    #[test]
    fn progress_past_the_last_injection_compares_by_its_fired_count() {
        let p = plan(
            0,
            vec![Injection {
                point: InjectionPoint::ArmRasr,
                at: 2,
                kind: InjectionKind::BitFlip { bit: 4 },
            }],
        );
        let at = |rasr: u32, fired: bool| Progress {
            seen: [0, rasr, 0, 0, 0, 0],
            fired: vec![fired],
            fired_count: u64::from(fired),
        };
        // Pending: the counters decide where it fires, so they must match.
        assert!(!p.spent_by(&at(2, false)));
        assert!(p.same_future(&at(2, false), &at(2, false)));
        assert!(!p.same_future(&at(1, false), &at(2, false)));
        // Counting-plan progress holds no flags: nothing fired.
        let counted = Progress {
            fired: Vec::new(),
            ..at(2, false)
        };
        assert!(p.same_future(&counted, &at(2, false)));
        // Fired on both sides: the counters no longer matter.
        assert!(p.spent_by(&at(5, true)));
        assert!(p.same_future(&at(5, true), &at(9, true)));
        // Passed unfired on one side, fired on the other: different runs.
        assert!(p.spent_by(&at(3, false)));
        assert!(!p.same_future(&at(3, false), &at(3, true)));
    }

    #[test]
    fn non_target_context_never_fires_and_does_not_consume_occurrences() {
        trace::set_current_pid(1);
        arm(&plan(
            2,
            vec![Injection {
                point: InjectionPoint::UserAccess,
                at: 0,
                kind: InjectionKind::ForceFault,
            }],
        ));
        assert!(!force_user_fault()); // pid 1: not the target
        trace::set_current_pid(2);
        assert!(force_user_fault()); // occurrence 0 in target context
        assert_eq!(disarm(), 1);
        trace::set_current_pid(NO_PID);
    }

    #[test]
    fn fired_injection_records_a_trace_event() {
        trace::enable(16);
        trace::set_current_pid(5);
        arm(&plan(
            5,
            vec![Injection {
                point: InjectionPoint::SyscallArg,
                at: 0,
                kind: InjectionKind::CorruptArg { xor: 0xFF },
            }],
        ));
        assert_eq!(corrupt_syscall_arg(0x0F), 0xF0);
        let t = trace::take();
        assert_eq!(
            t.events,
            vec![TraceEvent::FaultInjected {
                pid: 5,
                point: InjectionPoint::SyscallArg,
                info: 0xFF,
            }]
        );
        disarm();
        trace::set_current_pid(NO_PID);
        trace::disable();
    }

    #[test]
    fn plans_replay_exactly_and_vary_across_seeds() {
        for seed in 0..64u64 {
            let a = InjectionPlan::from_seed(seed, 0);
            let b = InjectionPlan::from_seed(seed, 0);
            assert_eq!(a, b, "seed {seed} must replay");
            assert!((1..=3).contains(&a.injections.len()));
            for inj in &a.injections {
                assert!(inj.at < 24);
                match (inj.point, inj.kind) {
                    (InjectionPoint::ArmRbar | InjectionPoint::ArmRasr, k) => {
                        assert!(matches!(k, InjectionKind::BitFlip { bit } if bit < 32));
                    }
                    (InjectionPoint::PmpCfg, k) => {
                        assert!(matches!(k, InjectionKind::BitFlip { bit } if bit < 8));
                    }
                    (InjectionPoint::UserAccess, k) => {
                        assert_eq!(k, InjectionKind::ForceFault);
                    }
                    (InjectionPoint::SyscallArg, k) => {
                        assert!(matches!(k, InjectionKind::CorruptArg { xor } if xor != 0));
                    }
                    (InjectionPoint::Stack, k) => {
                        assert_eq!(k, InjectionKind::StackNudge);
                    }
                }
            }
        }
        assert_ne!(
            InjectionPlan::from_seed(1, 0).injections,
            InjectionPlan::from_seed(2, 0).injections,
        );
    }

    #[test]
    fn release_disarms_and_a_later_arm_starts_afresh() {
        trace::set_current_pid(0);
        let flip = Injection {
            point: InjectionPoint::ArmRasr,
            at: 0,
            kind: InjectionKind::BitFlip { bit: 0 },
        };
        arm(&plan(0, vec![flip]));
        release_thread_buffers();
        assert!(!is_armed());
        assert_eq!(mutate_reg_write(InjectionPoint::ArmRasr, 0), 0);
        arm(&plan(0, vec![flip]));
        assert_eq!(mutate_reg_write(InjectionPoint::ArmRasr, 0), 1);
        assert_eq!(disarm(), 1);
        trace::set_current_pid(NO_PID);
    }

    #[test]
    fn resume_continues_counting_and_one_shot_state_mid_stream() {
        trace::set_current_pid(0);
        let flip = |at| Injection {
            point: InjectionPoint::ArmRasr,
            at,
            kind: InjectionKind::BitFlip { bit: 0 },
        };
        let p = plan(0, vec![flip(1), flip(3)]);
        // Full run: occurrences 0,1 form the "prefix" (1 fires), 2,3 the
        // rest.
        arm(&p);
        assert_eq!(mutate_reg_write(InjectionPoint::ArmRasr, 0), 0);
        assert_eq!(mutate_reg_write(InjectionPoint::ArmRasr, 0), 1);
        let at_prefix = progress().expect("armed");
        assert_eq!(at_prefix.seen[1], 2); // ArmRasr is ALL_POINTS[1].
        assert_eq!(
            (at_prefix.fired.clone(), at_prefix.fired_count),
            (vec![true, false], 1)
        );
        disarm();
        // Resumed under the same plan: counting, flags and the fired
        // count continue from the recorded prefix.
        resume(&p, &at_prefix);
        assert_eq!(mutate_reg_write(InjectionPoint::ArmRasr, 0), 0); // occurrence 2
        assert_eq!(mutate_reg_write(InjectionPoint::ArmRasr, 0), 1); // occurrence 3: fires
        assert_eq!(disarm(), 2);
        // Progress captured under the empty counting plan resumes any
        // plan clear of the prefix, its flags unfired.
        let later = plan(0, vec![flip(3)]);
        assert!(!later.fires_within(&at_prefix.seen));
        let counted = Progress {
            seen: at_prefix.seen,
            ..Progress::default()
        };
        resume(&later, &counted);
        assert_eq!(mutate_reg_write(InjectionPoint::ArmRasr, 0), 0);
        assert_eq!(mutate_reg_write(InjectionPoint::ArmRasr, 0), 1);
        assert_eq!(disarm(), 1);
        trace::set_current_pid(NO_PID);
    }

    #[test]
    fn fires_within_flags_prefix_scheduled_injections() {
        let p = plan(
            0,
            vec![Injection {
                point: InjectionPoint::Stack,
                at: 1,
                kind: InjectionKind::StackNudge,
            }],
        );
        let mut seen = [0u32; ALL_POINTS.len()];
        assert!(!p.fires_within(&seen));
        seen[5] = 1; // Stack is ALL_POINTS[5]; at=1 not yet reached.
        assert!(!p.fires_within(&seen));
        seen[5] = 2; // Occurrence 1 happened inside the prefix.
        assert!(p.fires_within(&seen));
        // An empty plan never fires anywhere.
        assert!(!plan(0, vec![]).fires_within(&seen));
    }

    #[test]
    fn stack_nudge_point_is_independent_of_register_points() {
        trace::set_current_pid(0);
        arm(&plan(
            0,
            vec![Injection {
                point: InjectionPoint::Stack,
                at: 1,
                kind: InjectionKind::StackNudge,
            }],
        ));
        // Register occurrences must not advance the Stack counter.
        assert_eq!(mutate_reg_write(InjectionPoint::ArmRbar, 9), 9);
        assert!(!stack_nudge()); // Stack occurrence 0
        assert!(stack_nudge()); // Stack occurrence 1: fires
        assert_eq!(disarm(), 1);
        trace::set_current_pid(NO_PID);
    }
}
