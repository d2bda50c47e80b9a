//! The oracle: a clean run reduced to its observable streams
//! ([`Reference`]), the streaming walk that finds each stream's first
//! divergence from it ([`StreamVerdict`]), and [`check_run`], which
//! renders every failure line. Each fleet runner checks its runs against
//! its own clean run, in place over the trace ring, skipping only what
//! provably matches; every verdict equals a walk from event 0.

use std::rc::Rc;

use crate::campaign::{RunRecord, BYSTANDERS, MAX_RESTARTS, VICTIM};
use crate::process::ProcessState;
use crate::trace::{
    event_pid, normalize, observable_event, render_event, Events, TraceDivergence, TraceEvent,
    TraceScope,
};
use tt_hw::platform::ChipProfile;

/// An uninjected, uninterrupted reference run reduced to what the oracle
/// compares against. Each [`FleetRunner`](crate::campaign::FleetRunner)
/// reduces its own clean run, once, and checks every run it makes
/// against it; a cold runner's is a cold clean run, whose observable
/// streams equal a warm one's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// The raw (unprojected) trace. Raw equality implies observable
    /// equality — the projection is a pure per-event function — so an
    /// unperturbed run that matches this outright needs no projection
    /// walk at all. Shared with the runner's clean ladder.
    raw: Rc<[TraceEvent]>,
    /// The whole observable stream.
    full: Vec<TraceEvent>,
    /// Each bystander's observable stream, in pid order.
    by_pid: [Vec<TraceEvent>; BYSTANDERS],
}

/// What the oracle's streaming walk found: the first divergence of each
/// observable stream a run is held to (all `None` = the trace checks
/// pass). In each [`TraceDivergence`], `index` is the position in the
/// observable stream, `left` the reference's event there and `right`
/// the run's (`None` = that stream ended); the context is left empty,
/// so a clean walk allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamVerdict {
    /// Raw events the walk covered: the length the drained trace would
    /// have had.
    pub events: usize,
    /// First divergence of each bystander's stream, in pid order. For
    /// unperturbed runs these are walked only once the full stream has
    /// diverged.
    pub bystanders: [Option<TraceDivergence>; BYSTANDERS],
    /// First divergence of the whole observable stream, walked for
    /// unperturbed runs only.
    pub full: Option<TraceDivergence>,
    /// The run's first `FaultInjected` event, looked up only when a
    /// bystander stream diverged.
    pub first_injected: Option<TraceEvent>,
}

/// Reference-stream cursor offsets contributed by an installed
/// checkpoint prefix: how many raw events the prefix holds and how far
/// into the full and per-bystander observable streams those events
/// reach. Computed once per rung from the rung's own prefix, and used
/// only where the reference's observable streams start with the
/// prefix's (`Ladder::skip`); a run whose prefix differs is walked
/// from the start, so every verdict stays exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PrefixSkip {
    /// Raw events in the installed prefix.
    pub(crate) raw: usize,
    /// Observable events among them (full-stream cursor offset).
    pub(crate) full: usize,
    /// Observable bystander events among them (per-bystander offsets).
    pub(crate) by: [usize; BYSTANDERS],
}

impl PrefixSkip {
    /// The offsets after the prefix grows by `events`.
    pub(crate) fn advance(self, events: &[TraceEvent]) -> PrefixSkip {
        let mut next = PrefixSkip {
            raw: self.raw + events.len(),
            ..self
        };
        for ev in events {
            if observable_event(ev).is_none() {
                continue;
            }
            next.full += 1;
            if let Some(b) = event_pid(ev).and_then(bystander) {
                next.by[b] += 1;
            }
        }
        next
    }
}

/// The bystander index of `pid`, if it is one.
fn bystander(pid: u32) -> Option<usize> {
    (pid as usize)
        .checked_sub(VICTIM + 1)
        .filter(|&b| b < BYSTANDERS)
}

/// Check 4's rule: a run in which neither an injection nor a scheduled
/// arrival fired must replay the reference's observable stream exactly —
/// both engines are observable-trace-neutral until they fire.
pub(crate) fn unperturbed(fired: u64, irq_fired: u64) -> bool {
    fired == 0 && irq_fired == 0
}

/// Cursor walk over the whole observable stream, starting `start` events
/// into the reference (the verified prefix's contribution): the cursor
/// past the events of `parts`, in order, if every observable one matched
/// the reference there. Each part is walked as a plain slice.
fn full_stream_cursor<'a>(
    parts: impl Iterator<Item = &'a [TraceEvent]>,
    reference: &[TraceEvent],
    start: usize,
) -> Option<usize> {
    let mut cursor = start;
    for part in parts {
        for ev in part {
            let Some(obs) = observable_event(ev) else {
                continue;
            };
            if reference.get(cursor) != Some(&obs) {
                return None;
            }
            cursor += 1;
        }
    }
    Some(cursor)
}

/// Cursor walk over the per-bystander observable streams, likewise. The
/// victim's events are the bulk of a fired trace: filter on the raw
/// event's pid (the observable projection masks values, never pids)
/// before paying for the projection itself.
fn bystander_cursors<'a>(
    parts: impl Iterator<Item = &'a [TraceEvent]>,
    reference: &[Vec<TraceEvent>; BYSTANDERS],
    start: [usize; BYSTANDERS],
) -> Option<[usize; BYSTANDERS]> {
    let mut cursor = start;
    for part in parts {
        for ev in part {
            let Some(b) = event_pid(ev).and_then(bystander) else {
                continue;
            };
            let Some(obs) = observable_event(ev) else {
                continue;
            };
            if reference[b].get(cursor[b]) != Some(&obs) {
                return None;
            }
            cursor[b] += 1;
        }
    }
    Some(cursor)
}

/// Where a rejoined run stopped being simulated: the live ring's length
/// before the baseline's suffix was appended to it, the baseline's
/// cursor offsets at the rung the run rejoined, and where the
/// baseline's streams agree with the reference to the end.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cut {
    pub(crate) live: usize,
    pub(crate) at: PrefixSkip,
    pub(crate) suffix: Suffix,
}

impl Cut {
    /// Whether the baseline's streams a run is held to (the whole one if
    /// `unperturbed`, else the bystanders') agree with the reference's
    /// from the rung to the end. A run whose cursors stand where the
    /// baseline's stood at the rung then continues each stream with the
    /// reference's own events, to its end: the appended suffix is clean.
    fn suffix_clean(&self, unperturbed: bool) -> bool {
        let agrees = |from: Option<usize>, at: usize| from.is_some_and(|k| k <= at);
        match unperturbed {
            true => agrees(self.suffix.full, self.at.full),
            false => (0..BYSTANDERS).all(|b| agrees(self.suffix.by[b], self.at.by[b])),
        }
    }
}

/// The first divergence of one observable stream from its reference —
/// the failure path's walk, run only after a clean-path walk failed.
fn first_divergence<'a>(
    events: impl Iterator<Item = &'a TraceEvent>,
    reference: &[TraceEvent],
    start: usize,
) -> Option<TraceDivergence> {
    let mut cursor = start;
    let mut events = events.filter_map(observable_event);
    loop {
        let got = events.next();
        if got.is_none() && cursor == reference.len() {
            return None;
        }
        if got.as_ref() != reference.get(cursor) {
            return Some(TraceDivergence {
                index: cursor,
                context: Vec::new(),
                left: reference.get(cursor).copied(),
                right: got,
            });
        }
        cursor += 1;
    }
}

/// A raw trace's whole observable stream and each bystander's, in pid
/// order.
fn observable_streams(raw: &[TraceEvent]) -> (Vec<TraceEvent>, [Vec<TraceEvent>; BYSTANDERS]) {
    let full = normalize(raw, TraceScope::Observable);
    let by_pid = std::array::from_fn(|b| {
        full.iter()
            .filter(|e| event_pid(e).and_then(bystander) == Some(b))
            .copied()
            .collect()
    });
    (full, by_pid)
}

impl Reference {
    /// Reduces a reference run's raw trace to the oracle's streams.
    pub(crate) fn new(raw: Rc<[TraceEvent]>) -> Self {
        let (full, by_pid) = observable_streams(&raw);
        Self { raw, full, by_pid }
    }

    /// The oracle's streaming walk over a trace lent in place
    /// ([`Events`]: the ring's live region, and the parts of the ladder's
    /// trace it shares — a drained trace is one part). Each event's
    /// observable form is compared cursor-wise against the reference
    /// streams. Exact by construction: `Observable` scope is a pure
    /// per-event `filter_map` (no reordering), so the first cursor
    /// mismatch is the first index at which `normalize[_for_pid]` of the
    /// run and of the reference differ. Every walk reads the parts where
    /// they are, each as a plain slice: nothing is copied.
    ///
    /// The clean path walks with plain pass/fail cursor loops; only a run
    /// that fails them is walked again for each stream's first
    /// divergence (carrying a divergence through the hot loop measured
    /// 10–20% slower). Fast paths, all exact:
    /// - An unperturbed run whose **raw** trace equals the reference's
    ///   is clean: one slice compare per part instead of a projection
    ///   walk, and none for a part that is the reference's own memory at
    ///   the same offset (a prefix shared with the ladder). Inequality
    ///   implies nothing and falls through.
    /// - A run resumed from a rung the reference shares (`Ladder::skip`;
    ///   a perturbed run needs only its bystander streams shared) starts
    ///   its walk after the installed prefix, with the cursors
    ///   pre-advanced by the prefix's precomputed contribution.
    /// - An unperturbed run walks the whole observable stream only. The
    ///   bystander streams are pid-filters of it, so its equality
    ///   subsumes theirs; they are walked only after it diverged.
    /// - A run that rejoined its baseline carries its `cut`. Its walk
    ///   stops at the end of the simulated part if the baseline's streams
    ///   the run is held to agree with the reference from the rejoined
    ///   rung to the end ([`Cut::suffix_clean`]), and the walk's cursors
    ///   there equal the baseline's at that rung: the appended suffix
    ///   then continues every stream with the reference's own events, so
    ///   walking it could only match. A cut refused either way is walked
    ///   whole. Drained records pass no cut.
    ///
    /// A ring that dropped events lost its prefix: it is walked whole,
    /// with no skip and no cut.
    ///
    /// Returns the verdict and the count of raw events the pass/fail
    /// walk visited ([`RunPhases::walked`](crate::campaign::RunPhases::walked); a slice compare counts every
    /// event).
    pub(crate) fn walk(
        &self,
        events: Events<'_>,
        unperturbed: bool,
        skip: PrefixSkip,
        cut: Option<Cut>,
    ) -> (StreamVerdict, usize) {
        let n = events.len();
        let mut verdict = StreamVerdict {
            events: n,
            ..StreamVerdict::default()
        };
        let whole = events.dropped == 0;
        let skip = match whole && skip.raw <= n {
            true => skip,
            false => PrefixSkip::default(),
        };
        let mut walked = 0;
        let cut = cut.filter(|c| whole && (skip.raw..=n).contains(&c.live));
        if let Some(cut) = cut.filter(|c| c.suffix_clean(unperturbed)) {
            let live = events.range(skip.raw, cut.live);
            walked += cut.live - skip.raw;
            let at_rung = match unperturbed {
                true => full_stream_cursor(live, &self.full, skip.full) == Some(cut.at.full),
                false => bystander_cursors(live, &self.by_pid, skip.by) == Some(cut.at.by),
            };
            if at_rung {
                return (verdict, walked);
            }
        }
        if unperturbed && n == self.raw.len() {
            walked += n;
            let mut raw = &self.raw[..];
            let same = events.parts.iter().all(|part| {
                let (here, rest) = raw.split_at(part.len());
                raw = rest;
                std::ptr::eq(*part, here) || *part == here
            });
            if same {
                return (verdict, walked);
            }
        }
        let rest = || events.range(skip.raw, n);
        walked += n - skip.raw;
        let end = self.full.len();
        let ends = std::array::from_fn(|b| self.by_pid[b].len());
        let clean = match unperturbed {
            true => full_stream_cursor(rest(), &self.full, skip.full) == Some(end),
            false => bystander_cursors(rest(), &self.by_pid, skip.by) == Some(ends),
        };
        if clean {
            return (verdict, walked);
        }
        let events_after = || rest().flatten();
        if unperturbed {
            verdict.full = first_divergence(events_after(), &self.full, skip.full);
        }
        verdict.bystanders = std::array::from_fn(|b| {
            let own = events_after().filter(|e| event_pid(e).and_then(bystander) == Some(b));
            first_divergence(own, &self.by_pid[b], skip.by[b])
        });
        if verdict.bystanders.iter().any(Option::is_some) {
            verdict.first_injected = events
                .iter()
                .find(|e| matches!(e, TraceEvent::FaultInjected { .. }))
                .copied();
        }
        (verdict, walked)
    }

    /// [`Reference::walk`] over a drained record's trace.
    pub(crate) fn walk_record(&self, run: &RunRecord) -> StreamVerdict {
        let unperturbed = unperturbed(run.fired, run.irq_fired);
        let skip = PrefixSkip::default();
        self.walk(Events::of(&run.trace.events), unperturbed, skip, None)
            .0
    }
}

/// Which unit a failure line is about.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Label {
    /// A campaign seed.
    Seed(u64),
    /// An explorer schedule ID.
    Schedule(u64),
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Label::Seed(seed) => write!(f, "seed {seed}"),
            Label::Schedule(id) => write!(f, "schedule {id:#x}"),
        }
    }
}

/// The oracle. Renders every failure line of one run from its record
/// and the streaming walk's verdict (empty = the run passed); the
/// campaign, the shrinker, the explorer and every replay report through
/// it:
///
/// 1. every contract site held, at every step of recovery;
/// 2. each bystander's observable stream equals the reference's;
/// 3. recovery converged: the bystanders exited, and the victim exited
///    or was killed within the restart cap;
/// 4. a run in which neither an injection nor a scheduled arrival fired
///    replays the reference's observable stream exactly.
pub(crate) fn check_run(
    chip: &ChipProfile,
    label: Label,
    run: &RunRecord,
    streams: &StreamVerdict,
) -> Vec<String> {
    let mut failures = Vec::new();
    let tag = |what: &str| format!("{} {label}: {what}", chip.name);
    let render =
        |ev: &Option<TraceEvent>, none: &str| ev.as_ref().map_or(none.into(), render_event);
    for v in &run.violations {
        failures.push(tag(&format!("contract violation: {v}")));
    }
    for (b, d) in streams.bystanders.iter().enumerate() {
        let Some(d) = d else {
            continue;
        };
        failures.push(tag(&format!(
            "bystander pid{} trace diverged at event #{}: reference `{}` vs injected `{}`; \
             first injected fault: {}",
            VICTIM + 1 + b,
            d.index,
            render(&d.left, "<end of trace>"),
            render(&d.right, "<end of trace>"),
            render(&streams.first_injected, "<no injection fired>"),
        )));
    }
    for b in 0..BYSTANDERS {
        let pid = VICTIM + 1 + b;
        if run.states[pid] != ProcessState::Exited {
            failures.push(tag(&format!(
                "bystander pid{pid} did not exit: {:?}",
                run.states[pid]
            )));
        }
    }
    if !matches!(
        run.states[VICTIM],
        ProcessState::Exited | ProcessState::Killed
    ) {
        failures.push(tag(&format!(
            "victim did not converge: {:?} after {} restarts",
            run.states[VICTIM], run.restarts
        )));
    }
    if run.restarts > MAX_RESTARTS {
        failures.push(tag(&format!("restart cap exceeded: {}", run.restarts)));
    }
    if streams.full.is_some() {
        failures.push(tag("zero-fired run diverged from the reference"));
    }
    failures
}

/// How far a ladder's trace agrees with the reference from the start,
/// in leading raw events.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shared {
    /// Leading raw events whose observable projection is a prefix of the
    /// reference's whole observable stream.
    pub(crate) full: usize,
    /// Leading raw events whose projection onto each bystander is a
    /// prefix of that bystander's reference stream (at least `full`).
    pub(crate) bystanders: usize,
}

impl Shared {
    /// A trace's agreement with the reference reduced from it: all of it.
    pub(crate) const OWN: Shared = Shared {
        full: usize::MAX,
        bystanders: usize::MAX,
    };

    /// How far `trace` agrees with `reference` from the start, by
    /// observable equality: one walk.
    pub(crate) fn of(trace: &[TraceEvent], reference: &Reference) -> Shared {
        let mut full = reference.full.iter();
        let mut cursor = [0; BYSTANDERS];
        Shared {
            full: trace
                .iter()
                .take_while(|ev| observable_event(ev).is_none_or(|o| full.next() == Some(&o)))
                .count(),
            bystanders: trace
                .iter()
                .take_while(|ev| {
                    let Some(b) = event_pid(ev).and_then(bystander) else {
                        return true;
                    };
                    observable_event(ev).is_none_or(|o| {
                        let hit = reference.by_pid[b].get(cursor[b]) == Some(&o);
                        cursor[b] += 1;
                        hit
                    })
                })
                .count(),
        }
    }
}

/// Where a ladder's observable streams start to agree with one
/// reference's to the end: per stream, the least cursor `k` at which
/// the baseline's stream from `k` on equals the reference's from `k` on
/// ([`agrees_from`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Suffix {
    /// The whole observable stream's.
    full: Option<usize>,
    /// Each bystander stream's, in pid order.
    by: [Option<usize>; BYSTANDERS],
}

impl Suffix {
    /// A trace's agreement with the reference reduced from it: from 0.
    pub(crate) const OWN: Suffix = Suffix {
        full: Some(0),
        by: [Some(0); BYSTANDERS],
    };

    /// The agreement points of `trace`'s observable streams with
    /// `reference`'s: one backward compare per stream.
    pub(crate) fn of(trace: &[TraceEvent], reference: &Reference) -> Suffix {
        let (full, by_pid) = observable_streams(trace);
        Suffix {
            full: agrees_from(&full, &reference.full),
            by: std::array::from_fn(|b| agrees_from(&by_pid[b], &reference.by_pid[b])),
        }
    }
}

/// The least `k` with `own[k..] == reference[k..]`, or `None` when the
/// streams differ in length (no cursor then reaches both ends at once).
fn agrees_from(own: &[TraceEvent], reference: &[TraceEvent]) -> Option<usize> {
    let equal_tail = own
        .iter()
        .rev()
        .zip(reference.iter().rev())
        .take_while(|(a, b)| a == b)
        .count();
    (own.len() == reference.len()).then(|| own.len() - equal_tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_one, FleetRunner};
    use tt_hw::injection;
    use tt_hw::platform::NRF52840DK;

    /// The campaign oracle's rendered failure lines for `run`, checked
    /// against the clean run of a runner on `chip`, commit cache disabled
    /// if `cold`.
    fn oracle_lines(chip: &ChipProfile, run: &RunRecord, cold: bool) -> Vec<String> {
        let lines = || {
            let reference = FleetRunner::new(chip).reference().clone();
            let label = Label::Seed(run.seed.unwrap_or(0));
            check_run(chip, label, run, &reference.walk_record(run))
        };
        match cold {
            true => tt_hw::commit_cache::with_disabled(lines),
            false => lines(),
        }
    }

    #[test]
    fn oracle_failure_lines_are_pinned() {
        let reference = run_one(&NRF52840DK, None);
        // Raw index of the `n`-th observable event attributed to `pid`.
        let nth = |pid: u32, n: usize| {
            reference
                .trace
                .events
                .iter()
                .enumerate()
                .filter(|(_, e)| observable_event(e).is_some() && event_pid(e) == Some(pid))
                .nth(n)
                .map(|(i, _)| i)
                .expect("event exists")
        };
        let last = |pid: u32| {
            reference
                .trace
                .events
                .iter()
                .rposition(|e| observable_event(e).is_some() && event_pid(e) == Some(pid))
                .expect("event exists")
        };
        let seeded = |seed: u64| {
            let mut run = reference.clone();
            run.seed = Some(seed);
            run.fired = 1;
            run
        };
        // A mutated bystander event, after a fault injected into the victim.
        let mut mutated = seeded(1);
        let at = nth(1, 5);
        mutated.trace.events[at] = TraceEvent::ProcessFault { pid: 1 };
        mutated.trace.events.insert(
            nth(0, 2),
            TraceEvent::FaultInjected {
                pid: 0,
                point: injection::InjectionPoint::SyscallArg,
                info: 0x40,
            },
        );
        // A truncated bystander stream.
        let mut truncated = seeded(2);
        truncated.trace.events.remove(last(2));
        // An extra bystander event past the end of its stream.
        let mut extra = seeded(3);
        extra
            .trace
            .events
            .push(TraceEvent::ProcessRestart { pid: 2 });
        // An unfired run that diverges only in the victim's stream.
        let mut victim_only = reference.clone();
        victim_only.seed = Some(4);
        let at = nth(0, 3);
        victim_only.trace.events[at] = TraceEvent::ProcessFault { pid: 0 };
        let pinned = [
            (
                &mutated,
                "nrf52840dk seed 1: bystander pid1 trace diverged at event #5: reference \
              `pid1 exit  AllowRo -> ok (0x0)` vs injected `pid1 FAULTED`; first injected \
              fault: pid0 FAULT INJECTED at SyscallArg (info=0x40)",
            ),
            (
                &truncated,
                "nrf52840dk seed 2: bystander pid2 trace diverged at event #88: reference \
              `pid2 switch Out` vs injected `<end of trace>`; first injected fault: \
              <no injection fired>",
            ),
            (
                &extra,
                "nrf52840dk seed 3: bystander pid2 trace diverged at event #89: reference \
              `<end of trace>` vs injected `pid2 restarted`; first injected fault: \
              <no injection fired>",
            ),
            (
                &victim_only,
                "nrf52840dk seed 4: zero-fired run diverged from the reference",
            ),
        ];
        // A cold runner checks against its own cold clean run, whose raw
        // trace differs from the warm one's: its lines are the same bytes.
        for (run, line) in pinned {
            let warm = oracle_lines(&NRF52840DK, run, false);
            assert_eq!(warm, [line]);
            assert_eq!(oracle_lines(&NRF52840DK, run, true), warm, "cold");
        }
    }

    /// Four observable events of bystander pid1, in reference order, and
    /// one it never emits.
    const PID1: [TraceEvent; 4] = [
        TraceEvent::MpuCommit { pid: 1 },
        TraceEvent::ProcessRestart { pid: 1 },
        TraceEvent::ProcessFault { pid: 1 },
        TraceEvent::ProcessKill { pid: 1 },
    ];
    const STRAY: TraceEvent = TraceEvent::ProcessLoad { pid: 1 };

    /// A synthetic rejoined run checked both ways: the walk with the cut
    /// a baseline with `rung` prefix events would give it at `live`, and
    /// the walk from event 0. Both verdicts must agree; returns the
    /// verdict and the cut walk's event count.
    fn cut_walk(
        reference: &Reference,
        baseline: &[TraceEvent],
        rung: usize,
        run: &[TraceEvent],
        live: usize,
        unperturbed: bool,
    ) -> (StreamVerdict, usize) {
        let cut = Cut {
            live,
            at: PrefixSkip::default().advance(&baseline[..rung]),
            suffix: Suffix::of(baseline, reference),
        };
        let skip = PrefixSkip::default();
        let (verdict, walked) = reference.walk(Events::of(run), unperturbed, skip, Some(cut));
        assert_eq!(
            verdict,
            reference.walk(Events::of(run), unperturbed, skip, None).0,
            "unperturbed {unperturbed}: the cut changed the verdict"
        );
        // The same run lent as a resumed, rejoined run's ring lends it: a
        // shared prefix, the live events, then the shared suffix.
        let (simulated, suffix) = run.split_at(live);
        let (prefix, simulated) = simulated.split_at(live.min(1));
        let split = Events {
            parts: [prefix, simulated, &[], suffix],
            dropped: 0,
        };
        for cut in [Some(cut), None] {
            assert_eq!(
                reference.walk(split, unperturbed, skip, cut),
                reference.walk(Events::of(run), unperturbed, skip, cut),
                "unperturbed {unperturbed}: the parts changed the walk"
            );
        }
        (verdict, walked)
    }

    #[test]
    fn a_cut_takes_a_clean_suffix_without_walking_it() {
        let reference = Reference::new(PID1.as_slice().into());
        for unperturbed in [true, false] {
            let (verdict, walked) = cut_walk(&reference, &PID1, 2, &PID1, 2, unperturbed);
            assert_eq!(
                verdict,
                StreamVerdict {
                    events: 4,
                    ..StreamVerdict::default()
                }
            );
            assert_eq!(walked, 2, "unperturbed {unperturbed}");
        }
    }

    #[test]
    fn a_cut_whose_cursor_differs_from_the_rungs_falls_back() {
        // The run dropped pid1's second event before rejoining after two
        // baseline events: its cursor stands at 1, the rung's at 2, and
        // the suffix it took lands one event early in the reference.
        let reference = Reference::new(PID1.as_slice().into());
        let run = [PID1[0], PID1[2], PID1[3]];
        for unperturbed in [true, false] {
            let (verdict, walked) = cut_walk(&reference, &PID1, 2, &run, 1, unperturbed);
            let diverged = match unperturbed {
                true => verdict.full.as_ref(),
                false => verdict.bystanders[0].as_ref(),
            };
            let diverged = diverged.expect("the suffix is misplaced");
            assert_eq!(diverged.index, 1);
            assert_eq!(
                (diverged.left, diverged.right),
                (Some(PID1[1]), Some(PID1[2]))
            );
            assert!(
                walked > 1,
                "unperturbed {unperturbed}: the suffix went unwalked"
            );
        }
    }

    #[test]
    fn a_cut_whose_baseline_suffix_differs_from_the_reference_falls_back() {
        // The run stands where the baseline stood at its rung, but the
        // baseline itself left the reference past the rung: the suffix it
        // hands the run is not the reference's, so equal cursors alone do
        // not make it clean.
        let reference = Reference::new(PID1.as_slice().into());
        let baseline = [PID1[0], PID1[1], STRAY, PID1[3]];
        for unperturbed in [true, false] {
            let (verdict, _) = cut_walk(&reference, &baseline, 2, &baseline, 2, unperturbed);
            let diverged = match unperturbed {
                true => verdict.full.as_ref(),
                false => verdict.bystanders[0].as_ref(),
            };
            let diverged = diverged.expect("the suffix strays");
            assert_eq!(diverged.index, 2);
            assert_eq!(
                (diverged.left, diverged.right),
                (Some(PID1[2]), Some(STRAY))
            );
        }
        // A baseline stream longer than the reference's agrees nowhere.
        let longer = [PID1.as_slice(), &[STRAY]].concat();
        assert_eq!(Suffix::of(&longer, &reference).by[0], None);
        assert_eq!(Suffix::of(&baseline, &reference).by[0], Some(3));
    }

    #[test]
    fn a_part_shared_with_the_reference_walks_like_an_equal_copy() {
        let raw: Rc<[TraceEvent]> = PID1.as_slice().into();
        let reference = Reference::new(Rc::clone(&raw));
        let copy = PID1.to_vec();
        let strayed = [PID1[0], PID1[1], STRAY, PID1[3]];
        let skip = PrefixSkip::default();
        // A prefix lent from the reference's own trace, then the live
        // events; and the same events copied.
        for tail in [&copy[2..], &strayed[2..]] {
            let shared = Events {
                parts: [&raw[..2], tail, &[], &[]],
                dropped: 0,
            };
            let copied = Events {
                parts: [&copy[..2], tail, &[], &[]],
                dropped: 0,
            };
            for unperturbed in [true, false] {
                let walk = reference.walk(shared, unperturbed, skip, None);
                assert_eq!(walk, reference.walk(copied, unperturbed, skip, None));
                let clean = tail == &copy[2..];
                assert_eq!(
                    walk.0
                        == StreamVerdict {
                            events: 4,
                            ..StreamVerdict::default()
                        },
                    clean
                );
            }
        }
        // The raw compare counts every event it covers, shared or not.
        let whole = Events {
            parts: [&raw[..], &[], &[], &[]],
            dropped: 0,
        };
        assert_eq!(reference.walk(whole, true, skip, None).1, 4);
    }
}
