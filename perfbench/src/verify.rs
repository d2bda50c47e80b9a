//! `verify`: the developer's edit loop.
//!
//! An op is one in-memory edit of one registered function's source text
//! — a comment appended to a seed-picked line of the function — followed
//! by what the incremental tools do about it: `scan_text` on the edited
//! file, `SourceIndex::from_files`, `Verifier::verify_incremental`
//! against a fresh copy of the post-cold verdict cache, and the four
//! audit passes. No repository file is written. The op list spreads 100
//! edits evenly over the obligation functions the source index anchors,
//! the same functions for every seed; the seed picks the edited span and
//! line and the op order. All the time goes to `tt_contracts`
//! (span, vcache, verifier and the obligation bodies) and `tt_analysis`;
//! the kernel runtime does no work here.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use tt_analysis::source::workspace_sources;
use tt_analysis::{coverage, crosscheck, run_passes, staleness, tcb, AuditConfig, Pass};
use tt_bench::fig12::{build_registry, Effort};
use tt_bench::incremental::config_hash;
use tt_contracts::obligation::Registry;
use tt_contracts::span::{scan_text, ScannedFile, SourceIndex};
use tt_contracts::vcache::VerdictCache;
use tt_contracts::verifier::{VerificationReport, Verifier};

use rand::Rng;

use crate::harness::{self, median, shuffle, Op, Plan};
use crate::spans::{Spans, Tracer};
use crate::{mean, Config, WorkloadResult};

const ALL_PASSES: [Pass; 4] = [Pass::Tcb, Pass::Coverage, Pass::Crosscheck, Pass::Staleness];

/// Ops per pass: ten beyond the p90.
const OPS: usize = 100;

/// Edits that re-discharge more cold cases than this are left out: the
/// `allocate_app_mem_region` functions re-discharge the monolithic
/// allocator spec (~10^8 cases, ~3 s), which would be half of every pass
/// and set `ops_per_s` on its own. That cost stays measured in `setup_s`
/// and `verifier.cold_s.ticktock_monolithic`.
const MAX_EDIT_CASES: u64 = 1_000_000;

/// Indices into an op's exact counts.
const REDISCHARGED: usize = 0;
const CASES: usize = 2;
const HITS: usize = 4;
const MISSES: usize = 5;
const CYCLES: usize = 6;

/// The post-set-up state every op starts from.
struct State {
    texts: Vec<String>,
    files: Vec<ScannedFile>,
    registry: Registry,
    cache: VerdictCache,
    config: AuditConfig,
    /// Cases each function's cold discharge explored.
    cold_cases: BTreeMap<String, u64>,
}

/// One op's input: append a comment to `line` (0-based) of `file`, inside
/// a span of the function obligation `function` anchors to.
struct Edit {
    function: String,
    file: usize,
    line: usize,
}

/// The verifier's three anchor candidates for an obligation name, in the
/// order `SourceIndex::anchor_hash` tries them.
fn anchor_candidates(function: &str) -> [&str; 3] {
    let stripped = function.split('(').next().unwrap_or(function);
    let method = stripped.split("::").last().unwrap_or(stripped);
    [function, stripped, method]
}

/// Slug of a Fig. 12 component name: `TickTock (Monolithic)` becomes
/// `ticktock_monolithic`.
fn slug(component: &str) -> String {
    let lower: String = component
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                ' '
            }
        })
        .collect();
    lower.split_whitespace().collect::<Vec<_>>().join("_")
}

fn load(root: &Path, effort: Effort) -> Result<(State, VerificationReport), String> {
    let paths = workspace_sources(root);
    if paths.is_empty() {
        return Err(format!(
            "no sources under {}; run from the repository root",
            root.join("crates").display()
        ));
    }
    let mut texts = Vec::with_capacity(paths.len());
    let mut files = Vec::with_capacity(paths.len());
    for p in &paths {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(scan_text(&rel, &text));
        texts.push(text);
    }
    let index = SourceIndex::from_files(&files);
    let registry = build_registry(effort);
    let mut cache = VerdictCache::new(config_hash(effort));
    let cold = Verifier::new().verify_incremental(&registry, &mut cache, &index);
    let config_path = root.join(tt_analysis::DEFAULT_CONFIG);
    let config =
        AuditConfig::load(&config_path).map_err(|e| format!("{}: {e}", config_path.display()))?;
    let findings = run_passes(&files, &config, &ALL_PASSES);
    if let Some(f) = findings.first() {
        return Err(format!("cold audit is not clean: {f}"));
    }
    let cold_cases = cold
        .functions
        .iter()
        .map(|f| (f.function.clone(), f.cases))
        .collect();
    Ok((
        State {
            texts,
            files,
            registry,
            cache,
            config,
            cold_cases,
        },
        cold,
    ))
}

/// The op list: `ops` edits, the j-th of editable function ⌊j·n/ops⌋ in
/// registration order, so the edits spread evenly over every component
/// and every seed times the same set. An edit re-discharges every
/// function anchored to the same `fn` name; a function is editable when
/// that set's cold discharge stayed within [`MAX_EDIT_CASES`]. The seed
/// picks the same-named span, the edited line and the op order. Returns
/// the edits and the editable, too-costly and unanchored function counts.
fn plan_edits(
    state: &State,
    index: &SourceIndex,
    seed: u64,
    ops: usize,
) -> (Vec<Edit>, usize, usize, usize) {
    let anchor = |f: &'_ str| {
        anchor_candidates(f)
            .into_iter()
            .find(|c| index.fn_hash(c).is_some())
            .map(str::to_string)
    };
    let mut seen = BTreeSet::new();
    let mut anchored: Vec<(String, String)> = Vec::new();
    let mut anchor_cases: BTreeMap<String, u64> = BTreeMap::new();
    let mut unanchored = 0;
    for o in state.registry.obligations() {
        if !seen.insert(o.function.as_str()) {
            continue;
        }
        match anchor(&o.function) {
            Some(name) => {
                let cases = state.cold_cases.get(&o.function).copied().unwrap_or(0);
                *anchor_cases.entry(name.clone()).or_default() += cases;
                anchored.push((o.function.clone(), name));
            }
            None => unanchored += 1,
        }
    }
    let functions: Vec<&(String, String)> = anchored
        .iter()
        .filter(|(_, name)| anchor_cases[name] <= MAX_EDIT_CASES)
        .collect();
    let n = functions.len();
    let mut rng = harness::rng(seed, 0x7e21f7);
    let mut out = Vec::with_capacity(ops);
    for (function, name) in (0..ops).filter(|_| n > 0).map(|j| functions[j * n / ops]) {
        let spans: Vec<(usize, usize, usize)> = state
            .files
            .iter()
            .enumerate()
            .flat_map(|(i, f)| {
                f.fns
                    .iter()
                    .filter(|s| s.name == *name)
                    .map(move |s| (i, s.start, s.end))
            })
            .collect();
        let (file, start, end) = spans[rng.gen_range(0..spans.len())];
        let line = start - 1 + rng.gen_range(0..end - start + 1);
        out.push(Edit {
            function: function.clone(),
            file,
            line,
        });
    }
    shuffle(&mut rng, &mut out);
    (out, n, anchored.len() - n, unanchored)
}

fn edited_text(text: &str, line: usize, op: usize) -> String {
    let mut out = String::with_capacity(text.len() + 32);
    for (i, l) in text.lines().enumerate() {
        out.push_str(l);
        if i == line {
            out.push_str(&format!(" // edit {op}"));
        }
        out.push('\n');
    }
    out
}

/// One op, timed in three parts (scan and index, discharge, audit) that
/// each take their own minimum over the passes: an op of ~40 ms is long
/// enough for one slow stretch to cover all of it in every pass.
/// Untraced, the audit is the one `run_passes` call; traced, its four
/// passes run one by one (in `run_passes`' order) inside spans.
fn op(state: &mut State, edit: &Edit, i: usize, spans: Option<&mut Spans>) -> Op {
    let text = edited_text(&state.texts[edit.file], edit.line, i);
    let rel = state.files[edit.file].rel_path.clone();
    let mut cache = state.cache.clone();
    tt_hw::cycles::reset();
    let traced = spans.is_some();
    let mut tr = Tracer(spans);
    let mark = tr.0.as_ref().map_or(0, |s| s.mark());
    if let Some(s) = tr.0.as_mut() {
        s.set_op(i);
    }
    let t0 = Instant::now();
    let root = tr.enter("verify.op");
    let id = tr.enter("span.scan");
    let scanned = scan_text(&rel, &text);
    tr.exit(id);
    let original = std::mem::replace(&mut state.files[edit.file], scanned);
    let id = tr.enter("span.index");
    let index = SourceIndex::from_files(&state.files);
    tr.exit(id);
    let t1 = Instant::now();
    let id = tr.enter("verifier.discharge");
    let report = Verifier::new().verify_incremental(&state.registry, &mut cache, &index);
    tr.exit(id);
    let t2 = Instant::now();
    let findings = if traced {
        let files = &state.files;
        let config = &state.config;
        let mut all = Vec::new();
        for (name, pass) in [
            (
                "audit.tcb",
                tcb::audit as fn(&[ScannedFile], &AuditConfig) -> _,
            ),
            ("audit.coverage", coverage::audit),
            ("audit.crosscheck", crosscheck::audit),
            ("audit.staleness", staleness::audit),
        ] {
            let id = tr.enter(name);
            all.extend(pass(files, config));
            tr.exit(id);
        }
        all
    } else {
        run_passes(&state.files, &state.config, &ALL_PASSES)
    };
    tr.exit(root);
    let t3 = Instant::now();
    let parts = vec![
        (t1 - t0).as_nanos() as u64,
        (t2 - t1).as_nanos() as u64,
        (t3 - t2).as_nanos() as u64,
    ];
    let cycles = tt_hw::cycles::now();
    state.files[edit.file] = original;

    let layers = tr.0.as_ref().map_or(Vec::new(), |s| s.self_times(mark));
    let fresh: Vec<_> = report.functions.iter().filter(|f| !f.cached).collect();
    let edited_rechecked = fresh.iter().any(|f| f.function == edit.function);
    let refuted = report.refuted().len() as u64;
    Op {
        counts: vec![
            fresh.len() as u64,
            refuted,
            fresh.iter().map(|f| f.cases).sum(),
            findings.len() as u64,
            // The copy carries the cold run's tallies; count this op's.
            cache.hits() - state.cache.hits(),
            cache.misses() - state.cache.misses(),
            cycles,
            u64::from(edited_rechecked),
        ],
        layers,
        ns: parts.iter().sum(),
        parts,
        failed: refuted > 0 || !findings.is_empty() || !edited_rechecked,
    }
}

/// Runs the workload.
pub fn run(cfg: &Config, spans: &mut Spans) -> Result<WorkloadResult, String> {
    let (effort, ops, plan) = if cfg.smoke {
        (
            Effort::QUICK,
            4,
            Plan {
                passes: 2,
                setups: 1,
                seconds: 0.0,
                trace: cfg.trace,
            },
        )
    } else {
        let plan = Plan {
            passes: 6,
            setups: 3,
            seconds: cfg.seconds,
            trace: cfg.trace,
        };
        (Effort::FULL, OPS, plan)
    };
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let mut cold_s: Vec<Vec<(String, f64)>> = Vec::new();
    let mut problems = Vec::new();
    let setup = || {
        let (state, cold) = load(&root, effort)?;
        if !cold.all_verified() && problems.is_empty() {
            problems.push(format!(
                "cold discharge refuted {:?}",
                cold.refuted()
                    .iter()
                    .map(|f| &f.function)
                    .collect::<Vec<_>>()
            ));
        }
        cold_s.push(
            cold.by_component()
                .iter()
                .map(|(c, s)| (slug(c), s.total.as_secs_f64()))
                .collect(),
        );
        Ok(state)
    };
    let mut edit_list: Option<(Vec<Edit>, usize, usize, usize)> = None;
    let (measured, _) = harness::measure(&plan, spans, setup, |state, mut sp| {
        let (edits, ..) = edit_list.get_or_insert_with(|| {
            let index = SourceIndex::from_files(&state.files);
            plan_edits(state, &index, cfg.seed, ops)
        });
        Ok(edits
            .iter()
            .enumerate()
            .map(|(i, e)| op(state, e, i, sp.as_deref_mut()))
            .collect())
    })?;
    let (_, editable, costly, unanchored) = edit_list.expect("at least one pass");

    let t = &measured.untraced;
    let layers = measured.traced.as_ref();
    let layer = |name: &str| layers.map_or(0.0, |l| l.layer_mean_us(name));
    let hit_ratio = mean(
        t.counts
            .iter()
            .map(|c| c[HITS] as f64 / (c[HITS] + c[MISSES]).max(1) as f64),
    );
    let mut per_layer = vec![
        ("span.scan_us", layer("span.scan")),
        ("span.index_us", layer("span.index")),
        ("verifier.discharge_us", layer("verifier.discharge")),
        ("audit.tcb_us", layer("audit.tcb")),
        ("audit.coverage_us", layer("audit.coverage")),
        ("audit.crosscheck_us", layer("audit.crosscheck")),
        ("audit.staleness_us", layer("audit.staleness")),
        ("verifier.redischarged_per_op", t.count_mean(REDISCHARGED)),
        ("verifier.unanchored_obligations", unanchored as f64),
        ("vcache.hit_ratio", hit_ratio),
        ("verifier.cases_per_op", t.count_mean(CASES)),
    ];
    let mut notes = vec![format!(
        "verify: {} ops over {editable} editable obligation functions ({costly} left out as too \
         costly), K = {} passes; {unanchored} unanchored ones re-discharge on every edit",
        t.ops(),
        t.passes
    )];
    let components: Vec<String> = cold_s
        .first()
        .map_or(Vec::new(), |c| c.iter().map(|(n, _)| n.clone()).collect());
    for component in components {
        let name = format!("verifier.cold_s.{component}");
        let values: Vec<f64> = cold_s
            .iter()
            .filter_map(|rep| rep.iter().find(|(c, _)| *c == component).map(|&(_, s)| s))
            .collect();
        match crate::PER_LAYER.iter().find(|(n, _)| *n == name) {
            Some(&(declared, _)) => per_layer.push((declared, median(&values))),
            None => notes.push(format!("{name} is not a declared metric; not reported")),
        }
    }
    Ok(WorkloadResult {
        sim_kcycles_per_op: t.count_mean(CYCLES) / 1e3,
        measured,
        per_layer,
        problems,
        notes,
    })
}
