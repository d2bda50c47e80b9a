//! Property test pinning the injection engine's fast lane against a
//! naive model.
//!
//! The engine counts occurrences inline and enters its out-of-line part
//! only at an occurrence where an injection is due. The model below is
//! the plain algorithm that fast lane replaces: count every hook in the
//! target's context, and on each one scan the plan in order for the
//! first unfired injection scheduled at that point and occurrence. For
//! random plans (duplicate `(point, at)` pairs included), random resume
//! progress and random hook sequences over pids and points, both must
//! make the same fire decisions, record the same `FaultInjected` events
//! and report the same progress.

use proptest::prelude::*;
use tt_hw::injection::{
    self, Injection, InjectionKind, InjectionPlan, InjectionPoint, Progress, ALL_POINTS,
};
use tt_hw::trace::{self, TraceEvent, NO_PID};

/// The naive engine: a list scan on every counted hook.
struct Model {
    plan: InjectionPlan,
    progress: Progress,
    events: Vec<TraceEvent>,
}

impl Model {
    fn resume(plan: &InjectionPlan, progress: &Progress) -> Self {
        let mut progress = progress.clone();
        progress.fired.resize(plan.injections.len(), false);
        Model {
            plan: plan.clone(),
            progress,
            events: Vec::new(),
        }
    }

    fn hook(&mut self, pid: u32, point: InjectionPoint) -> Option<InjectionKind> {
        if pid != self.plan.target_pid {
            return None;
        }
        let idx = ALL_POINTS
            .iter()
            .position(|p| *p == point)
            .expect("a point");
        let p = &mut self.progress;
        let occurrence = p.seen[idx];
        p.seen[idx] = occurrence.wrapping_add(1);
        let i = self
            .plan
            .injections
            .iter()
            .enumerate()
            .position(|(i, inj)| !p.fired[i] && inj.point == point && inj.at == occurrence)?;
        p.fired[i] = true;
        p.fired_count += 1;
        let inj = self.plan.injections[i];
        let info = match inj.kind {
            InjectionKind::BitFlip { bit } => u32::from(bit),
            InjectionKind::CorruptArg { xor } => xor,
            InjectionKind::ForceFault | InjectionKind::StackNudge => 0,
        };
        self.events.push(TraceEvent::FaultInjected {
            pid: self.plan.target_pid,
            point,
            info,
        });
        Some(inj.kind)
    }
}

/// What the hook at `point` returns for a hook input of 0 when `kind`
/// fires there (`None`: nothing fires).
fn hook_output(point: InjectionPoint, kind: Option<InjectionKind>) -> u32 {
    match (point, kind) {
        (_, Some(InjectionKind::BitFlip { bit })) if point <= InjectionPoint::PmpCfg => {
            1 << (bit & 31)
        }
        (InjectionPoint::UserAccess, Some(InjectionKind::ForceFault)) => 1,
        (InjectionPoint::SyscallArg, Some(InjectionKind::CorruptArg { xor })) => xor,
        (InjectionPoint::Stack, Some(InjectionKind::StackNudge)) => 1,
        _ => 0,
    }
}

/// The real hook at `point`, with input 0.
fn real_hook(point: InjectionPoint) -> u32 {
    match point {
        InjectionPoint::ArmRbar | InjectionPoint::ArmRasr | InjectionPoint::PmpCfg => {
            injection::mutate_reg_write(point, 0)
        }
        InjectionPoint::UserAccess => u32::from(injection::force_user_fault()),
        InjectionPoint::SyscallArg => injection::corrupt_syscall_arg(0),
        InjectionPoint::Stack => u32::from(injection::stack_nudge()),
    }
}

/// A plan from random words: each word picks a point, an occurrence
/// below 12 and the kind's parameter. With `dup`, the first injection's
/// `(point, at)` is scheduled once more with another parameter.
fn plan_of(target: u32, words: &[u32], dup: bool) -> InjectionPlan {
    let injection = |point: InjectionPoint, at: u32, param: u32| {
        let kind = match point {
            InjectionPoint::ArmRbar | InjectionPoint::ArmRasr => InjectionKind::BitFlip {
                bit: (param % 32) as u8,
            },
            InjectionPoint::PmpCfg => InjectionKind::BitFlip {
                bit: (param % 8) as u8,
            },
            InjectionPoint::UserAccess => InjectionKind::ForceFault,
            InjectionPoint::SyscallArg => InjectionKind::CorruptArg { xor: param | 1 },
            InjectionPoint::Stack => InjectionKind::StackNudge,
        };
        Injection { point, at, kind }
    };
    let mut injections: Vec<Injection> = words
        .iter()
        .map(|&w| injection(ALL_POINTS[w as usize % 6], (w >> 3) % 12, w >> 8))
        .collect();
    if dup {
        let first = injections[0];
        injections.push(injection(first.point, first.at, (words[0] >> 8) + 1));
    }
    InjectionPlan {
        seed: 0,
        target_pid: target,
        injections,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The fast-lane engine and the naive model agree hook by hook, on
    /// the events they record and on the progress they report, across a
    /// checkpoint round trip in the middle of the sequence.
    #[test]
    fn fast_lane_matches_the_naive_scan(
        target in 0u32..3,
        words in prop::collection::vec(any::<u32>(), 1..6),
        dup in any::<bool>(),
        seen in prop::collection::vec(0u32..14, 6..7),
        fired_mask in any::<u32>(),
        fired_count in 0u64..4,
        counting in any::<bool>(),
        hooks in prop::collection::vec(0u32..18, 0..160),
        split in 0usize..160,
    ) {
        let plan = plan_of(target, &words, dup);
        let seen: [u32; 6] = std::array::from_fn(|i| seen[i]);
        // Progress captured under the empty counting plan carries no
        // flags; it resumes only plans clear of its prefix.
        let start = match counting && !plan.fires_within(&seen) {
            true => Progress { seen, fired: Vec::new(), fired_count },
            false => Progress {
                seen,
                fired: (0..plan.injections.len()).map(|i| fired_mask >> i & 1 == 1).collect(),
                fired_count,
            },
        };
        let mut model = Model::resume(&plan, &start);
        trace::enable(1024);
        injection::resume(&plan, &start);
        for (n, &h) in hooks.iter().enumerate() {
            if n == split {
                // A checkpoint: read the progress and resume from it.
                let at = injection::progress().expect("armed");
                prop_assert_eq!(&at, &model.progress);
                injection::disarm();
                injection::resume(&plan, &at);
            }
            let (pid, point) = (h / 6, ALL_POINTS[(h % 6) as usize]);
            trace::set_current_pid(pid);
            let want = hook_output(point, model.hook(pid, point));
            prop_assert_eq!(real_hook(point), want, "hook {} ({:?} in pid {})", n, point, pid);
        }
        let progress = injection::progress().expect("armed");
        let fired = injection::disarm();
        trace::set_current_pid(NO_PID);
        let events = trace::take().events;
        trace::disable();
        prop_assert_eq!(progress, model.progress.clone());
        prop_assert_eq!(fired, model.progress.fired_count);
        prop_assert_eq!(events, model.events);
    }
}

#[test]
fn discriminants_index_all_points() {
    for (i, point) in ALL_POINTS.into_iter().enumerate() {
        assert_eq!(point as usize, i);
    }
}

#[test]
fn a_second_injection_at_the_same_occurrence_never_fires() {
    let flip = |bit| Injection {
        point: InjectionPoint::ArmRbar,
        at: 1,
        kind: InjectionKind::BitFlip { bit },
    };
    let plan = InjectionPlan {
        seed: 0,
        target_pid: 0,
        injections: vec![flip(0), flip(1)],
    };
    trace::set_current_pid(0);
    injection::arm(&plan);
    let outputs: Vec<u32> = (0..4)
        .map(|_| injection::mutate_reg_write(InjectionPoint::ArmRbar, 0))
        .collect();
    assert_eq!(outputs, [0, 1, 0, 0]);
    let progress = injection::progress().expect("armed");
    assert_eq!(progress.fired, [true, false]);
    assert_eq!(injection::disarm(), 1);
    trace::set_current_pid(NO_PID);
}

#[test]
fn only_due_occurrences_enter_the_engine() {
    let plan = InjectionPlan {
        seed: 0,
        target_pid: 2,
        injections: vec![Injection {
            point: InjectionPoint::Stack,
            at: 3,
            kind: InjectionKind::StackNudge,
        }],
    };
    let before = injection::engine_entries();
    injection::arm(&plan);
    for pid in [1, 2, 2, 1, 2, 2, 2, 2] {
        trace::set_current_pid(pid);
        injection::mutate_reg_write(InjectionPoint::ArmRasr, 0);
        injection::stack_nudge();
    }
    assert_eq!(injection::disarm(), 1);
    trace::set_current_pid(NO_PID);
    assert_eq!(injection::engine_entries() - before, 1);
}
