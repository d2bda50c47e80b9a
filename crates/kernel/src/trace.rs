//! Trace normalization and the trace-equivalence oracle.
//!
//! The raw event stream from [`tt_hw::trace`] is *too* faithful for
//! cross-flavor comparison: the legacy and granular kernels legitimately
//! differ in region geometry (that is the paper's point — §3.2's
//! disagreement problem means the monolithic interface rounds region
//! extents differently than the granular one), so raw register values and
//! absolute process addresses cannot be expected to match. This module
//! defines two comparison scopes:
//!
//! * [`TraceScope::Full`] — keep every event, but canonicalize
//!   flavor-*irrelevant* detail: the order of register writes within one
//!   commit (a driver may program slots in any order; the hardware state
//!   after the commit is what matters). Use this to compare two runs of
//!   the *same* backend, e.g. `Legacy(Buggy)` vs `Legacy(Fixed)`, where
//!   a register-value divergence is precisely the bug.
//! * [`TraceScope::Observable`] — keep only what user code can observe:
//!   syscall sequencing and success/failure, context switches, upcall
//!   deliveries, bus faults, process lifecycle. Register values, commit
//!   internals, and geometry-dependent numbers (break addresses, memop
//!   results, buffer addresses) are erased, because they differ between
//!   flavors *by design* without being observable by a correct app. Use
//!   this to compare legacy vs granular runs of the same program.
//!
//! [`diff_traces`] compares two normalized streams and reports the first
//! divergent event with surrounding context — the debugging payload the
//! final-outcome differential oracle lacks.

pub use tt_hw::trace::{
    disable, enable, is_enabled, record, take, Events, RecoveryStep, RegName, SwitchDir,
    SyscallKind, Trace, TraceEvent, NO_PID,
};

/// How aggressively [`normalize`] canonicalizes a trace before
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceScope {
    /// Same-backend comparison: keep register values, canonicalize only
    /// write order within one commit group.
    Full,
    /// Cross-flavor comparison: keep only app-observable behaviour.
    Observable,
}

/// Number of preceding (matching) events [`diff_traces`] attaches to a
/// divergence for context.
pub const DIVERGENCE_CONTEXT: usize = 6;

/// The first point where two normalized traces disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDivergence {
    /// Index into the normalized streams where they first differ.
    pub index: usize,
    /// Up to [`DIVERGENCE_CONTEXT`] matching events leading up to the
    /// divergence.
    pub context: Vec<TraceEvent>,
    /// The left stream's event at `index` (`None` if it ended).
    pub left: Option<TraceEvent>,
    /// The right stream's event at `index` (`None` if it ended).
    pub right: Option<TraceEvent>,
}

fn reg_write_key(ev: &TraceEvent) -> (u8, &'static str, u8, u32) {
    match ev {
        TraceEvent::RegWrite { reg, index, value } => {
            let (d, name) = match reg {
                RegName::Ctrl => (0, ""),
                RegName::Rnr => (1, ""),
                RegName::Rbar => (2, ""),
                RegName::Rasr => (3, ""),
                RegName::PmpCfg => (4, ""),
                RegName::PmpAddr => (5, ""),
                RegName::Staged(n) => (6, *n),
            };
            (d, name, *index, *value)
        }
        _ => unreachable!("reg_write_key on non-RegWrite"),
    }
}

/// Canonicalizes one trace for comparison under `scope`.
///
/// `Full`: runs of consecutive [`TraceEvent::RegWrite`]s (one commit's
/// writes) are sorted by (register, index, value) so that two backends
/// programming the same hardware state in different slot order compare
/// equal — final hardware state, not write order, is what isolation
/// depends on. `RNR` writes are dropped entirely: they select a slot
/// (the subsequent data write carries the slot index) and some drivers
/// use the RBAR `VALID` shortcut instead.
///
/// `Observable`: register-level and allocator-internal events are
/// dropped, and geometry-dependent payloads are masked (see module
/// docs).
pub fn normalize(events: &[TraceEvent], scope: TraceScope) -> Vec<TraceEvent> {
    match scope {
        TraceScope::Full => {
            let mut out: Vec<TraceEvent> = Vec::with_capacity(events.len());
            let mut run_start: Option<usize> = None;
            for ev in events {
                match ev {
                    TraceEvent::RegWrite {
                        reg: RegName::Rnr, ..
                    } => {}
                    TraceEvent::RegWrite { .. } => {
                        if run_start.is_none() {
                            run_start = Some(out.len());
                        }
                        out.push(*ev);
                    }
                    _ => {
                        if let Some(s) = run_start.take() {
                            out[s..].sort_by(|a, b| reg_write_key(a).cmp(&reg_write_key(b)));
                        }
                        out.push(*ev);
                    }
                }
            }
            if let Some(s) = run_start.take() {
                out[s..].sort_by(|a, b| reg_write_key(a).cmp(&reg_write_key(b)));
            }
            out
        }
        TraceScope::Observable => events.iter().filter_map(observable_event).collect(),
    }
}

/// The `Observable`-scope normalization of a single event: `None` when
/// the event is dropped from the observable stream, otherwise the event
/// with geometry-dependent payloads masked.
///
/// `normalize(events, Observable)` is exactly
/// `events.iter().filter_map(observable_event)` — the per-event function
/// is public so callers that only need an equality verdict (the fleet
/// oracle's fast path) can stream one event at a time against a
/// reference instead of materializing the normalized vector.
pub fn observable_event(ev: &TraceEvent) -> Option<TraceEvent> {
    match *ev {
        TraceEvent::RegWrite { .. } | TraceEvent::AllocatorCommit { .. } => None,
        // The injection event marks where the *hardware model*
        // introduced a fault — it is not app-observable, and the
        // campaign compares injected runs against uninjected
        // references, so it must not diverge the stream by itself.
        // (Kernel-level recovery events — `ProcessKill`,
        // `Recovery` — stay: both flavors emit them identically.)
        TraceEvent::FaultInjected { .. } => None,
        // Interrupt entry/exit marks where the *schedule explorer* forced
        // a timer interrupt to arrive early — pure timing, invisible to
        // app code. The explorer's oracle compares scheduled runs against
        // an unscheduled reference, so the markers must not diverge the
        // observable stream by themselves; what the ISR *does* (restarts,
        // faults, upcalls) still shows through its own events.
        TraceEvent::IrqEnter { .. } | TraceEvent::IrqExit { .. } => None,
        TraceEvent::SyscallEnter {
            pid,
            call,
            arg0,
            arg1,
            arg2,
        } => {
            // Mask geometry-dependent arguments: break targets and
            // buffer addresses depend on where the flavor's
            // allocator placed and rounded the process block.
            let (arg0, arg1, arg2) = match call {
                SyscallKind::Brk | SyscallKind::Sbrk => (0, 0, 0),
                SyscallKind::AllowRo | SyscallKind::AllowRw => (0, arg1, arg2),
                _ => (arg0, arg1, arg2),
            };
            Some(TraceEvent::SyscallEnter {
                pid,
                call,
                arg0,
                arg1,
                arg2,
            })
        }
        TraceEvent::SyscallExit {
            pid,
            call,
            ok,
            value,
        } => {
            // Mask geometry-dependent results (addresses, sizes).
            let value = match call {
                SyscallKind::Brk | SyscallKind::Sbrk | SyscallKind::Memop => 0,
                _ => value,
            };
            Some(TraceEvent::SyscallExit {
                pid,
                call,
                ok,
                value,
            })
        }
        // Fault addresses are where the *hardware* stopped the
        // access; for in-block probes the stop point is the
        // flavor's accessible extent. Keep the event, mask the
        // address.
        TraceEvent::BusFault { pid, write, .. } => Some(TraceEvent::BusFault {
            pid,
            addr: 0,
            write,
        }),
        other => Some(other),
    }
}

/// Normalizes both traces under `scope` and returns the first index where
/// they disagree, or `None` if the normalized streams are identical.
pub fn diff_traces(left: &Trace, right: &Trace, scope: TraceScope) -> Option<TraceDivergence> {
    let l = normalize(&left.events, scope);
    let r = normalize(&right.events, scope);
    let n = l.len().min(r.len());
    let index = (0..n).find(|&i| l[i] != r[i]).unwrap_or(n);
    if index == n && l.len() == r.len() {
        return None;
    }
    let ctx_start = index.saturating_sub(DIVERGENCE_CONTEXT);
    Some(TraceDivergence {
        index,
        context: l[ctx_start..index].to_vec(),
        left: l.get(index).copied(),
        right: r.get(index).copied(),
    })
}

/// One-line rendering of an event for reports and dumps.
pub fn render_event(ev: &TraceEvent) -> String {
    match *ev {
        TraceEvent::SyscallEnter {
            pid,
            call,
            arg0,
            arg1,
            arg2,
        } => format!("pid{pid} enter {call:?}({arg0:#x}, {arg1:#x}, {arg2:#x})"),
        TraceEvent::SyscallExit {
            pid,
            call,
            ok,
            value,
        } => format!(
            "pid{pid} exit  {call:?} -> {} ({value:#x})",
            if ok { "ok" } else { "err" }
        ),
        TraceEvent::ContextSwitch { pid, dir } => format!("pid{pid} switch {dir:?}"),
        TraceEvent::MpuCommit { pid } => format!("pid{pid} mpu commit"),
        TraceEvent::AllocatorCommit { regions } => {
            format!("allocator commit ({regions} regions)")
        }
        TraceEvent::RegWrite { reg, index, value } => match reg {
            RegName::Staged(name) => format!("reg write {name}[{index}] = {value:#010x}"),
            _ => format!("reg write {reg:?}[{index}] = {value:#010x}"),
        },
        TraceEvent::BusFault { pid, addr, write } => format!(
            "pid{pid} BUS FAULT {} {addr:#010x}",
            if write { "write" } else { "read" }
        ),
        TraceEvent::UpcallDeliver { pid, driver, value } => {
            format!("pid{pid} upcall driver={driver} value={value:#x}")
        }
        TraceEvent::ProcessLoad { pid } => format!("pid{pid} loaded"),
        TraceEvent::ProcessRestart { pid } => format!("pid{pid} restarted"),
        TraceEvent::ProcessFault { pid } => format!("pid{pid} FAULTED"),
        TraceEvent::ProcessKill { pid } => format!("pid{pid} KILLED"),
        TraceEvent::Recovery { pid, step } => match step {
            RecoveryStep::BackoffScheduled { delay } => {
                format!("pid{pid} recovery: restart in {delay} ticks (backoff)")
            }
            RecoveryStep::GrantsReclaimed => format!("pid{pid} recovery: grants reclaimed"),
            RecoveryStep::StateRederived => format!("pid{pid} recovery: state re-derived"),
            RecoveryStep::RestartExhausted => format!("pid{pid} recovery: restart cap exhausted"),
        },
        TraceEvent::FaultInjected { pid, point, info } => {
            format!("pid{pid} FAULT INJECTED at {point:?} (info={info:#x})")
        }
        TraceEvent::IrqEnter { pid, point } => format!("pid{pid} IRQ enter at {point:?}"),
        TraceEvent::IrqExit { pid } => format!("pid{pid} IRQ exit"),
        TraceEvent::IdleExit => "scheduler idle exit (all yielded, nothing pending)".to_string(),
    }
}

/// The process a trace event is attributed to, if it carries one.
/// Register-level and allocator-internal events carry none.
pub fn event_pid(ev: &TraceEvent) -> Option<u32> {
    match *ev {
        TraceEvent::SyscallEnter { pid, .. }
        | TraceEvent::SyscallExit { pid, .. }
        | TraceEvent::ContextSwitch { pid, .. }
        | TraceEvent::MpuCommit { pid }
        | TraceEvent::BusFault { pid, .. }
        | TraceEvent::UpcallDeliver { pid, .. }
        | TraceEvent::ProcessLoad { pid }
        | TraceEvent::ProcessRestart { pid }
        | TraceEvent::ProcessFault { pid }
        | TraceEvent::ProcessKill { pid }
        | TraceEvent::Recovery { pid, .. }
        | TraceEvent::FaultInjected { pid, .. }
        | TraceEvent::IrqEnter { pid, .. }
        | TraceEvent::IrqExit { pid } => Some(pid),
        // `IdleExit` is a kernel-global marker, deliberately unattributed
        // so the per-pid bystander streams are unaffected by it.
        TraceEvent::RegWrite { .. } | TraceEvent::AllocatorCommit { .. } | TraceEvent::IdleExit => {
            None
        }
    }
}

/// Normalizes a trace under `scope` and keeps only the events attributed
/// to `pid`. This is the fault campaign's bystander oracle: a process the
/// injection plan does not target must produce exactly the same
/// per-process observable stream as in an uninjected reference run.
pub fn normalize_for_pid(events: &[TraceEvent], scope: TraceScope, pid: u32) -> Vec<TraceEvent> {
    normalize(events, scope)
        .into_iter()
        .filter(|ev| event_pid(ev) == Some(pid))
        .collect()
}

/// Renders a divergence: the shared context, then the two sides' first
/// differing events, labelled.
pub fn render_divergence(d: &TraceDivergence, left_name: &str, right_name: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("first divergent event at index {}:\n", d.index));
    for (i, ev) in d.context.iter().enumerate() {
        let idx = d.index - d.context.len() + i;
        out.push_str(&format!("    [{idx}] {}\n", render_event(ev)));
    }
    match &d.left {
        Some(ev) => out.push_str(&format!("  {left_name:>9}: {}\n", render_event(ev))),
        None => out.push_str(&format!("  {left_name:>9}: <end of trace>\n")),
    }
    match &d.right {
        Some(ev) => out.push_str(&format!("  {right_name:>9}: {}\n", render_event(ev))),
        None => out.push_str(&format!("  {right_name:>9}: <end of trace>\n")),
    }
    out
}

/// Renders a full trace dump, one event per line, with indices.
pub fn render_trace(trace: &Trace) -> String {
    let mut out = String::new();
    if trace.dropped > 0 {
        out.push_str(&format!(
            "... {} earlier events dropped by ring wraparound ...\n",
            trace.dropped
        ));
    }
    for (i, ev) in trace.events.iter().enumerate() {
        out.push_str(&format!("[{i:5}] {}\n", render_event(ev)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rw(reg: RegName, index: u8, value: u32) -> TraceEvent {
        TraceEvent::RegWrite { reg, index, value }
    }

    fn commit(pid: u32) -> TraceEvent {
        TraceEvent::MpuCommit { pid }
    }

    #[test]
    fn full_scope_sorts_register_writes_within_one_commit() {
        // Same hardware state, different programming order.
        let a = vec![
            commit(0),
            rw(RegName::Rbar, 0, 0x2000_0000),
            rw(RegName::Rasr, 0, 0x11),
            rw(RegName::Rbar, 2, 0x0004_0000),
            rw(RegName::Rasr, 2, 0x22),
            commit(1),
        ];
        let b = vec![
            commit(0),
            rw(RegName::Rbar, 2, 0x0004_0000),
            rw(RegName::Rasr, 2, 0x22),
            rw(RegName::Rbar, 0, 0x2000_0000),
            rw(RegName::Rasr, 0, 0x11),
            commit(1),
        ];
        assert_eq!(
            normalize(&a, TraceScope::Full),
            normalize(&b, TraceScope::Full)
        );
    }

    #[test]
    fn full_scope_drops_rnr_selector_writes() {
        let a = vec![
            rw(RegName::Rnr, 1, 1),
            rw(RegName::Rasr, 1, 0x11),
            commit(0),
        ];
        let b = vec![rw(RegName::Rasr, 1, 0x11), commit(0)];
        assert_eq!(
            normalize(&a, TraceScope::Full),
            normalize(&b, TraceScope::Full)
        );
    }

    #[test]
    fn full_scope_does_not_sort_across_commit_boundaries() {
        // Different values in different commits must stay different.
        let a = vec![rw(RegName::Rasr, 0, 1), commit(0), rw(RegName::Rasr, 0, 2)];
        let b = vec![rw(RegName::Rasr, 0, 2), commit(0), rw(RegName::Rasr, 0, 1)];
        assert_ne!(
            normalize(&a, TraceScope::Full),
            normalize(&b, TraceScope::Full)
        );
    }

    #[test]
    fn full_scope_detects_differing_register_values() {
        let a = vec![commit(0), rw(RegName::Rasr, 0, 0x11)];
        let b = vec![commit(0), rw(RegName::Rasr, 0, 0xFF)];
        let ta = Trace {
            events: a,
            dropped: 0,
        };
        let tb = Trace {
            events: b,
            dropped: 0,
        };
        let d = diff_traces(&ta, &tb, TraceScope::Full).expect("divergence");
        assert_eq!(d.index, 1);
        assert!(matches!(
            d.left,
            Some(TraceEvent::RegWrite {
                reg: RegName::Rasr,
                ..
            })
        ));
    }

    #[test]
    fn observable_scope_drops_register_and_allocator_events() {
        let a = vec![
            commit(0),
            TraceEvent::AllocatorCommit { regions: 3 },
            rw(RegName::PmpAddr, 0, 0x1234),
            rw(RegName::PmpCfg, 0, 0x0F),
        ];
        let b = vec![
            commit(0),
            rw(RegName::Rbar, 0, 0x2000_0000),
            rw(RegName::Rasr, 0, 0x11),
        ];
        let ta = Trace {
            events: a,
            dropped: 0,
        };
        let tb = Trace {
            events: b,
            dropped: 0,
        };
        assert_eq!(diff_traces(&ta, &tb, TraceScope::Observable), None);
    }

    #[test]
    fn observable_scope_masks_break_addresses_but_keeps_outcomes() {
        let enter = |arg0| TraceEvent::SyscallEnter {
            pid: 0,
            call: SyscallKind::Brk,
            arg0,
            arg1: 0,
            arg2: 0,
        };
        let a = vec![enter(0x2000_1000)];
        let b = vec![enter(0x2000_2000)];
        assert_eq!(
            normalize(&a, TraceScope::Observable),
            normalize(&b, TraceScope::Observable)
        );
        // …but a success/failure difference still diverges.
        let exit = |ok| TraceEvent::SyscallExit {
            pid: 0,
            call: SyscallKind::Brk,
            ok,
            value: 0,
        };
        let ta = Trace {
            events: vec![exit(true)],
            dropped: 0,
        };
        let tb = Trace {
            events: vec![exit(false)],
            dropped: 0,
        };
        assert!(diff_traces(&ta, &tb, TraceScope::Observable).is_some());
    }

    #[test]
    fn diff_reports_tail_divergence_when_one_trace_is_longer() {
        let shared = vec![commit(0), commit(1)];
        let mut longer = shared.clone();
        longer.push(TraceEvent::ProcessFault { pid: 0 });
        let ta = Trace {
            events: shared,
            dropped: 0,
        };
        let tb = Trace {
            events: longer,
            dropped: 0,
        };
        let d = diff_traces(&ta, &tb, TraceScope::Full).expect("divergence");
        assert_eq!(d.index, 2);
        assert_eq!(d.left, None);
        assert_eq!(d.right, Some(TraceEvent::ProcessFault { pid: 0 }));
        assert_eq!(d.context.len(), 2);
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let events = vec![commit(0), rw(RegName::Rasr, 0, 1)];
        let t = Trace { events, dropped: 0 };
        assert_eq!(diff_traces(&t, &t.clone(), TraceScope::Full), None);
        assert_eq!(diff_traces(&t, &t.clone(), TraceScope::Observable), None);
    }

    #[test]
    fn observable_scope_drops_injection_events_but_keeps_recovery() {
        let injected = vec![
            commit(0),
            TraceEvent::FaultInjected {
                pid: 0,
                point: tt_hw::injection::InjectionPoint::ArmRasr,
                info: 4,
            },
            TraceEvent::ProcessFault { pid: 0 },
            TraceEvent::Recovery {
                pid: 0,
                step: RecoveryStep::GrantsReclaimed,
            },
        ];
        let reference = vec![
            commit(0),
            TraceEvent::ProcessFault { pid: 0 },
            TraceEvent::Recovery {
                pid: 0,
                step: RecoveryStep::GrantsReclaimed,
            },
        ];
        assert_eq!(
            normalize(&injected, TraceScope::Observable),
            normalize(&reference, TraceScope::Observable)
        );
        // A missing recovery step still diverges.
        let missing = vec![commit(0), TraceEvent::ProcessFault { pid: 0 }];
        assert_ne!(
            normalize(&injected, TraceScope::Observable),
            normalize(&missing, TraceScope::Observable)
        );
    }

    #[test]
    fn per_pid_filter_keeps_only_the_named_process() {
        let events = vec![
            commit(0),
            commit(1),
            TraceEvent::ProcessKill { pid: 1 },
            rw(RegName::Rasr, 0, 1),
            TraceEvent::ProcessFault { pid: 0 },
        ];
        assert_eq!(
            normalize_for_pid(&events, TraceScope::Observable, 1),
            vec![commit(1), TraceEvent::ProcessKill { pid: 1 }]
        );
        assert_eq!(
            normalize_for_pid(&events, TraceScope::Observable, 0),
            vec![commit(0), TraceEvent::ProcessFault { pid: 0 }]
        );
    }

    #[test]
    fn new_event_kinds_render() {
        let evs = [
            (TraceEvent::ProcessKill { pid: 2 }, "KILLED"),
            (
                TraceEvent::Recovery {
                    pid: 2,
                    step: RecoveryStep::BackoffScheduled { delay: 8 },
                },
                "restart in 8 ticks",
            ),
            (
                TraceEvent::Recovery {
                    pid: 2,
                    step: RecoveryStep::RestartExhausted,
                },
                "cap exhausted",
            ),
            (
                TraceEvent::FaultInjected {
                    pid: 2,
                    point: tt_hw::injection::InjectionPoint::PmpCfg,
                    info: 3,
                },
                "FAULT INJECTED at PmpCfg",
            ),
        ];
        for (ev, needle) in evs {
            let line = render_event(&ev);
            assert!(line.contains(needle), "{line:?} missing {needle:?}");
            assert!(line.contains("pid2"));
        }
    }

    #[test]
    fn observable_scope_drops_irq_markers_but_keeps_idle_exit() {
        let scheduled = vec![
            commit(0),
            TraceEvent::IrqEnter {
                pid: 0,
                point: tt_hw::sched::ArrivalPoint::MpuCommit,
            },
            TraceEvent::IrqExit { pid: 0 },
            TraceEvent::IdleExit,
        ];
        let reference = vec![commit(0), TraceEvent::IdleExit];
        assert_eq!(
            normalize(&scheduled, TraceScope::Observable),
            normalize(&reference, TraceScope::Observable)
        );
        // A run that completed cleanly (no IdleExit) must diverge from a
        // wedged one — that is the marker's whole point.
        let clean = vec![commit(0)];
        assert_ne!(
            normalize(&scheduled, TraceScope::Observable),
            normalize(&clean, TraceScope::Observable)
        );
    }

    #[test]
    fn irq_markers_are_pid_attributed_and_idle_exit_is_not() {
        assert_eq!(
            event_pid(&TraceEvent::IrqEnter {
                pid: 3,
                point: tt_hw::sched::ArrivalPoint::SyscallEnter,
            }),
            Some(3)
        );
        assert_eq!(event_pid(&TraceEvent::IrqExit { pid: 3 }), Some(3));
        assert_eq!(event_pid(&TraceEvent::IdleExit), None);
        // Rendering smoke test for the new kinds.
        let line = render_event(&TraceEvent::IrqEnter {
            pid: 3,
            point: tt_hw::sched::ArrivalPoint::SyscallExit,
        });
        assert!(line.contains("IRQ enter") && line.contains("pid3"));
        assert!(render_event(&TraceEvent::IdleExit).contains("idle exit"));
    }

    #[test]
    fn render_divergence_names_both_sides() {
        let d = TraceDivergence {
            index: 1,
            context: vec![commit(0)],
            left: Some(rw(RegName::Rasr, 0, 0x11)),
            right: Some(rw(RegName::Rasr, 0, 0xFF)),
        };
        let s = render_divergence(&d, "tock", "ticktock");
        assert!(s.contains("tock"));
        assert!(s.contains("ticktock"));
        assert!(s.contains("Rasr"));
        assert!(s.contains("index 1"));
    }
}
