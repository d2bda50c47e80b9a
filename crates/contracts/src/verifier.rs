//! The verification driver: discharges obligations and reports statistics.
//!
//! Mirrors how the paper runs `flux` over TickTock: modular, per-function
//! checking with wall-clock timing, summarized per component as in Figure 12
//! (`Fns`, `Total`, `Max`, `Mean`, `StdDev`).

use crate::obligation::{CheckResult, Obligation, Registry};
use crate::span::{Fnv, SourceIndex};
use crate::vcache::{verdict_key, Verdict, VerdictCache};
use crate::{with_mode, Mode};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Verdict-key tag for whole-function verification verdicts (audit passes
/// use their own tags so the namespaces never collide in one cache file).
pub const TAG_VERIFY: u8 = 0;

/// The result of verifying one function (all its obligations).
#[derive(Debug, Clone)]
pub struct FunctionResult {
    /// Component the function belongs to.
    pub component: &'static str,
    /// Fully qualified function name.
    pub function: String,
    /// Wall-clock time spent discharging the function's obligations.
    pub duration: Duration,
    /// Total concrete cases explored across obligations.
    pub cases: u64,
    /// Counterexamples found, if any (empty means verified).
    pub refutations: Vec<String>,
    /// Whether any obligation was trusted (assumed).
    pub trusted: bool,
    /// Whether this result was served from the incremental cache.
    pub cached: bool,
    /// What the source half of the function's verdict key hashes.
    pub anchor: Anchor,
}

/// What the source half of a verdict key ([`source_key`]) hashes besides
/// the registering files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchor {
    /// The `fn` spans the function's name resolves to.
    Fn,
    /// The name resolves to no `fn`: the files of the dependency closure
    /// of the crates that registered its obligations.
    Closure,
    /// Neither: some obligation was registered outside every workspace
    /// crate's sources, so the key hashes the whole workspace.
    Workspace,
}

impl FunctionResult {
    /// Returns `true` if the function verified (no refutations).
    pub fn verified(&self) -> bool {
        self.refutations.is_empty()
    }
}

/// Per-component timing summary: one row of Figure 12.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentStats {
    /// Number of functions checked.
    pub fns: usize,
    /// Total verification time.
    pub total: Duration,
    /// Maximum single-function verification time.
    pub max: Duration,
    /// Mean per-function verification time.
    pub mean: Duration,
    /// Standard deviation of per-function verification time.
    pub stddev: Duration,
    /// Functions with at least one refuted obligation.
    pub refuted_fns: usize,
    /// Functions whose result was served from the incremental cache.
    /// Their (near-zero) durations still enter the timing summary, so a
    /// warm run shows the incremental speedup directly in `total`.
    pub cached_fns: usize,
}

/// A full verification run over a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct VerificationReport {
    /// Per-function results, in registration order.
    pub functions: Vec<FunctionResult>,
}

impl VerificationReport {
    /// Returns `true` if every function verified.
    pub fn all_verified(&self) -> bool {
        self.functions.iter().all(FunctionResult::verified)
    }

    /// Returns the functions that failed verification.
    pub fn refuted(&self) -> Vec<&FunctionResult> {
        self.functions.iter().filter(|f| !f.verified()).collect()
    }

    /// Summarizes one component; `component = ""` summarizes everything.
    pub fn component_stats(&self, component: &str) -> ComponentStats {
        let durations: Vec<Duration> = self
            .functions
            .iter()
            .filter(|f| component.is_empty() || f.component == component)
            .map(|f| f.duration)
            .collect();
        let refuted_fns = self
            .functions
            .iter()
            .filter(|f| (component.is_empty() || f.component == component) && !f.verified())
            .count();
        let cached_fns = self
            .functions
            .iter()
            .filter(|f| (component.is_empty() || f.component == component) && f.cached)
            .count();
        let fns = durations.len();
        let total: Duration = durations.iter().sum();
        let max = durations.iter().max().copied().unwrap_or_default();
        let mean = if fns == 0 {
            Duration::ZERO
        } else {
            total / fns as u32
        };
        let mean_s = mean.as_secs_f64();
        let var = if fns == 0 {
            0.0
        } else {
            durations
                .iter()
                .map(|d| {
                    let diff = d.as_secs_f64() - mean_s;
                    diff * diff
                })
                .sum::<f64>()
                / fns as f64
        };
        ComponentStats {
            fns,
            total,
            max,
            mean,
            stddev: Duration::from_secs_f64(var.sqrt()),
            refuted_fns,
            cached_fns,
        }
    }

    /// The number of functions whose verdict key was anchored as `anchor`.
    pub fn anchored(&self, anchor: Anchor) -> usize {
        self.functions.iter().filter(|f| f.anchor == anchor).count()
    }

    /// Fraction of functions served from the incremental cache (0.0 when
    /// the report is empty). The `fig12` report's `cache_hit_rate` is the
    /// cache's own lookup rate, which equals this on a run whose every
    /// function is looked up once.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.functions.is_empty() {
            return 0.0;
        }
        let cached = self.functions.iter().filter(|f| f.cached).count();
        cached as f64 / self.functions.len() as f64
    }

    /// Groups results per component, sorted by component name.
    pub fn by_component(&self) -> BTreeMap<&'static str, ComponentStats> {
        let mut components: Vec<&'static str> =
            self.functions.iter().map(|f| f.component).collect();
        components.sort_unstable();
        components.dedup();
        components
            .into_iter()
            .map(|c| (c, self.component_stats(c)))
            .collect()
    }

    /// Renders the Figure 12 table.
    pub fn render_fig12(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>6} {:>10} {:>10} {:>10} {:>10}\n",
            "Component", "Fns.", "Total", "Max", "Mean", "StdDev."
        ));
        for (component, stats) in self.by_component() {
            out.push_str(&format!(
                "{:<24} {:>6} {:>10} {:>10} {:>10} {:>10}\n",
                component,
                stats.fns,
                fmt_duration(stats.total),
                fmt_duration(stats.max),
                fmt_duration(stats.mean),
                fmt_duration(stats.stddev),
            ));
        }
        out
    }
}

/// Formats a duration like the paper: `5m19s`, `36s`, `0.05s`.
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 60.0 {
        let m = (secs / 60.0).floor() as u64;
        let s = (secs - m as f64 * 60.0).round() as u64;
        format!("{m}m{s}s")
    } else if secs >= 1.0 {
        format!("{secs:.1}s")
    } else {
        format!("{secs:.3}s")
    }
}

/// The verification driver.
#[derive(Debug, Default)]
pub struct Verifier {
    /// When `true`, stop a function's remaining obligations at the first
    /// refutation (Flux reports all errors; we keep them all by default).
    pub fail_fast: bool,
}

impl Verifier {
    /// Creates a verifier with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discharges every obligation in `registry`, grouped per function:
    /// [`Verifier::verify_incremental`] over an empty cache and an empty
    /// source index, so every function is checked.
    ///
    /// Obligations run in [`Mode::Observe`] so that contract failures inside
    /// checked code surface as refutations rather than panics — matching
    /// Flux, which reports errors instead of crashing the build.
    pub fn verify(&self, registry: &Registry) -> VerificationReport {
        self.verify_incremental(registry, &mut VerdictCache::new(0), &SourceIndex::default())
    }

    /// Persistent incremental verification: functions whose source key
    /// ([`source_key`]) *and* obligation-domain hash both match a verdict
    /// in `cache` are skipped; everything else is discharged and (if
    /// verified) stored.
    ///
    /// This is the workflow §6.3 highlights: "Flux is a modular verifier
    /// that checks each function in isolation … allow\[ing\] for incremental
    /// and interactive verification during code development".
    ///
    /// Staleness gates, in the cache key itself:
    /// * a changed function body, or a changed file that registers one of
    ///   its obligations → different [`source_key`];
    /// * for a function that resolves to no `fn`, a changed file anywhere
    ///   in the dependency closure of a registering crate → different
    ///   [`source_key`];
    /// * a changed spec (obligation added/removed/re-kinded/re-trusted) →
    ///   different obligation signature (the `domain_hash`);
    /// * a toolchain/config change → the caller loads the cache under a
    ///   different config hash, which discards every verdict.
    ///
    /// Refuted functions are never stored, so a failure is always
    /// re-discharged.
    pub fn verify_incremental(
        &self,
        registry: &Registry,
        cache: &mut VerdictCache,
        index: &SourceIndex,
    ) -> VerificationReport {
        let mut report = VerificationReport::default();
        for (component, function, obligations) in group_by_function(registry) {
            let domain_hash = obligation_signature(&obligations);
            let (fn_hash, anchor) = source_key(index, function, &obligations);
            let key_hash = verdict_key(TAG_VERIFY, component, function);
            let lookup_start = Instant::now();
            if let Some(v) = cache.lookup(key_hash, fn_hash, domain_hash) {
                report.functions.push(FunctionResult {
                    component,
                    function: function.to_string(),
                    // The honest warm cost: the lookup itself, not the
                    // original discharge — so Figure 12 totals show the
                    // incremental speedup directly.
                    duration: lookup_start.elapsed(),
                    cases: v.cases,
                    refutations: Vec::new(),
                    trusted: v.trusted,
                    cached: true,
                    anchor,
                });
                continue;
            }
            let d = self.discharge(&obligations);
            if d.refutations.is_empty() {
                cache.store(Verdict {
                    key_hash,
                    fn_hash,
                    domain_hash,
                    cases: d.cases,
                    duration_ns: d.duration.as_nanos().min(u64::MAX as u128) as u64,
                    trusted: d.trusted,
                    kind: d.kind,
                });
            }
            report.functions.push(FunctionResult {
                component,
                function: function.to_string(),
                duration: d.duration,
                cases: d.cases,
                refutations: d.refutations,
                trusted: d.trusted,
                cached: false,
                anchor,
            });
        }
        report
    }

    /// Discharges one function's obligations in registration order, in
    /// Observe mode: contract failures raised by the code under check
    /// become refutations too.
    fn discharge(&self, obligations: &[&Obligation]) -> Discharge {
        let mut d = Discharge {
            cases: 0,
            refutations: Vec::new(),
            trusted: false,
            kind: 0,
            duration: Duration::ZERO,
        };
        let start = Instant::now();
        for o in obligations {
            d.kind = o.kind as u8;
            let result = with_mode(Mode::Observe, || (o.check)());
            for v in crate::take_violations() {
                d.refutations.push(v.to_string());
            }
            match result {
                CheckResult::Verified { cases } => d.cases += cases,
                CheckResult::Refuted { counterexample } => {
                    d.refutations.push(counterexample);
                    if self.fail_fast {
                        break;
                    }
                }
                CheckResult::Trusted => d.trusted = true,
            }
        }
        d.duration = start.elapsed();
        d
    }
}

/// What discharging one function's obligations found.
struct Discharge {
    cases: u64,
    refutations: Vec<String>,
    trusted: bool,
    /// The kind tag of the last obligation checked.
    kind: u8,
    duration: Duration,
}

/// The registry's obligations grouped by `(component, function)` in one
/// pass: groups in order of first registration, each group's
/// obligations in registration order.
fn group_by_function(registry: &Registry) -> Vec<(&'static str, &str, Vec<&Obligation>)> {
    let mut index: HashMap<(&str, &str), usize> = HashMap::new();
    let mut groups: Vec<(&'static str, &str, Vec<&Obligation>)> = Vec::new();
    for o in registry.obligations() {
        let i = *index
            .entry((o.component, o.function.as_str()))
            .or_insert_with(|| {
                groups.push((o.component, &o.function, Vec::new()));
                groups.len() - 1
            });
        groups[i].2.push(o);
    }
    groups
}

/// The source half of `function`'s verdict key (the cache's `fn_hash`)
/// and what it anchors on, given the function's obligations.
///
/// A discharge runs its check closures. A closure compiled in crate X can
/// only run code of X and of X's transitive workspace dependencies, so
/// for a name that resolves to no `fn`, the hash of those crates' files
/// ([`SourceIndex::closure_hash`] of each registering file) covers every
/// line the discharge can execute; a registering file outside every
/// workspace crate falls back to the whole-workspace hash. A name that
/// resolves keys on its `fn` spans ([`SourceIndex::fn_anchor`]). Either
/// way the key then folds the hash of every indexed file that registers
/// one of the obligations, so an edited check goes stale; a registering
/// file outside the index (a test) adds nothing.
pub fn source_key(
    index: &SourceIndex,
    function: &str,
    obligations: &[&Obligation],
) -> (u64, Anchor) {
    let mut sites: Vec<&str> = Vec::with_capacity(1);
    for o in obligations {
        if !sites.contains(&o.site) {
            sites.push(o.site);
        }
    }
    let (mut key, anchor) = match index.fn_anchor(function) {
        Some(h) => (h, Anchor::Fn),
        None => {
            let mut h = Fnv::new();
            let closures = sites.iter().try_for_each(|site| {
                h.mix_u64(index.closure_hash(site)?);
                Some(())
            });
            match closures {
                Some(()) => (h.finish(), Anchor::Closure),
                None => (index.workspace_hash(), Anchor::Workspace),
            }
        }
    };
    for site in sites {
        if let Some(file) = index.file_hash(site) {
            let mut h = Fnv::new();
            h.mix_u64(key);
            h.mix_str(site);
            h.mix_u64(file);
            key = h.finish();
        }
    }
    (key, anchor)
}

/// [`source_key`] of every function in `registry`, grouped as the
/// verifier groups them: `(component, function, key, anchor)` in order of
/// first registration.
pub fn source_keys<'r>(
    registry: &'r Registry,
    index: &SourceIndex,
) -> Vec<(&'static str, &'r str, u64, Anchor)> {
    group_by_function(registry)
        .into_iter()
        .map(|(component, function, obligations)| {
            let (key, anchor) = source_key(index, function, &obligations);
            (component, function, key, anchor)
        })
        .collect()
}

/// The obligation-domain signature of one function: a fingerprint of its
/// registered contract set (kind, trust, name per obligation). A changed
/// spec — an obligation added, removed, re-kinded or re-trusted — changes
/// the signature, the analogue of Flux re-checking a function whose
/// refinement annotations changed. This is the `domain_hash` half of every
/// persistent verdict key.
fn obligation_signature(obligations: &[&Obligation]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        hash ^= v;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    };
    for o in obligations {
        mix(o.kind as u64 + 1);
        mix(o.trusted as u64 + 11);
        for b in o.function.bytes() {
            mix(b as u64);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obligation::Registry;
    use crate::ContractKind;

    fn registry_with(pass: bool) -> Registry {
        let mut r = Registry::new();
        r.add_fn("c1", "f", ContractKind::Post, move || {
            if pass {
                CheckResult::Verified { cases: 3 }
            } else {
                CheckResult::Refuted {
                    counterexample: "x = 7".into(),
                }
            }
        });
        r
    }

    #[test]
    fn verified_registry_reports_all_verified() {
        let report = Verifier::new().verify(&registry_with(true));
        assert!(report.all_verified());
        assert_eq!(report.functions.len(), 1);
        assert_eq!(report.functions[0].cases, 3);
    }

    #[test]
    fn refuted_registry_reports_counterexample() {
        let report = Verifier::new().verify(&registry_with(false));
        assert!(!report.all_verified());
        let refuted = report.refuted();
        assert_eq!(refuted.len(), 1);
        assert_eq!(refuted[0].refutations, vec!["x = 7".to_string()]);
    }

    #[test]
    fn obligations_grouped_per_function() {
        let mut r = Registry::new();
        r.add_fn("c", "f", ContractKind::Pre, || CheckResult::Verified {
            cases: 1,
        });
        r.add_fn("c", "f", ContractKind::Post, || CheckResult::Verified {
            cases: 2,
        });
        r.add_fn("c", "g", ContractKind::Post, || CheckResult::Verified {
            cases: 4,
        });
        let report = Verifier::new().verify(&r);
        assert_eq!(report.functions.len(), 2);
        assert_eq!(report.functions[0].cases, 3);
        assert_eq!(report.functions[1].cases, 4);
    }

    #[test]
    fn one_pass_grouping_matches_the_quadratic_order_and_signatures() {
        // Interleaved registrations, a name shared across components, and
        // re-kinded/trusted entries.
        let mut r = Registry::new();
        let ok = || CheckResult::Verified { cases: 1 };
        r.add_fn("c", "f", ContractKind::Pre, ok);
        r.add_fn("d", "f", ContractKind::Post, ok);
        r.add_fn("c", "g", ContractKind::Post, ok);
        r.add_fn("c", "f", ContractKind::Invariant, ok);
        r.add_trusted("d", "f", ContractKind::Post);
        r.add_fn("c", "g", ContractKind::Pre, ok);
        // The order the verifier used before grouping in one pass: first
        // registration of each pair, found by a linear `contains`.
        let mut order: Vec<(&str, &str)> = Vec::new();
        for o in r.obligations() {
            if !order.contains(&(o.component, o.function.as_str())) {
                order.push((o.component, &o.function));
            }
        }
        let groups = group_by_function(&r);
        let grouped: Vec<(&str, &str)> = groups.iter().map(|&(c, f, _)| (c, f)).collect();
        assert_eq!(grouped, order);
        // Each group's signature equals the one over a filter of the
        // whole registry, as it was computed before.
        for (component, function, obligations) in &groups {
            let filtered: Vec<&Obligation> = r
                .obligations()
                .iter()
                .filter(|o| o.component == *component && o.function == *function)
                .collect();
            assert_eq!(
                obligation_signature(obligations),
                obligation_signature(&filtered)
            );
        }
        assert_eq!(groups[0].2.len(), 2);
        assert_eq!(groups[1].2.len(), 2);
    }

    #[test]
    fn in_code_contract_violations_become_refutations() {
        let mut r = Registry::new();
        r.add_fn("c", "violates", ContractKind::Invariant, || {
            // Code under check trips a contract while running in Observe mode.
            crate::invariant!("inner", 1 == 2);
            CheckResult::Verified { cases: 1 }
        });
        let report = Verifier::new().verify(&r);
        assert!(!report.all_verified());
        assert!(report.functions[0].refutations[0].contains("inner"));
    }

    #[test]
    fn component_stats_computes_totals() {
        let mut r = Registry::new();
        for name in ["a", "b", "c"] {
            r.add_fn("k", name, ContractKind::Post, || CheckResult::Verified {
                cases: 1,
            });
        }
        let report = Verifier::new().verify(&r);
        let stats = report.component_stats("k");
        assert_eq!(stats.fns, 3);
        assert!(stats.total >= stats.max);
        assert_eq!(stats.refuted_fns, 0);
        let all = report.component_stats("");
        assert_eq!(all.fns, 3);
    }

    #[test]
    fn single_function_component_has_zero_stddev() {
        let report = Verifier::new().verify(&registry_with(true));
        let stats = report.component_stats("c1");
        assert_eq!(stats.fns, 1);
        assert_eq!(stats.stddev, Duration::ZERO);
        assert_eq!(stats.total, stats.max);
        assert_eq!(stats.total, stats.mean);
    }

    #[test]
    fn empty_component_stats_are_all_zero() {
        let report = Verifier::new().verify(&registry_with(true));
        let stats = report.component_stats("no-such-component");
        assert_eq!(stats.fns, 0);
        assert_eq!(stats.total, Duration::ZERO);
        assert_eq!(stats.max, Duration::ZERO);
        assert_eq!(stats.mean, Duration::ZERO);
        assert_eq!(stats.stddev, Duration::ZERO);
        assert_eq!(stats.refuted_fns, 0);
        assert_eq!(stats.cached_fns, 0);
    }

    #[test]
    fn all_trusted_component_verifies_with_zero_cases() {
        let mut r = Registry::new();
        r.add_trusted("k", "axiom_a", ContractKind::Lemma);
        r.add_trusted("k", "axiom_b", ContractKind::Post);
        let report = Verifier::new().verify(&r);
        assert!(report.all_verified());
        assert!(report.functions.iter().all(|f| f.trusted));
        assert!(report.functions.iter().all(|f| f.cases == 0));
        let stats = report.component_stats("k");
        assert_eq!(stats.fns, 2);
        assert_eq!(stats.refuted_fns, 0);
    }

    #[test]
    fn cached_results_are_counted_in_component_stats() {
        let mut r = Registry::new();
        r.add_fn("k", "f", ContractKind::Post, || CheckResult::Verified {
            cases: 1,
        });
        r.add_fn("k", "g", ContractKind::Post, || CheckResult::Verified {
            cases: 1,
        });
        let verifier = Verifier::new();
        let (mut cache, idx) = (VerdictCache::new(1), SourceIndex::default());
        let cold = verifier.verify_incremental(&r, &mut cache, &idx);
        assert_eq!(cold.component_stats("k").cached_fns, 0);
        // Add a third function: the warm run re-checks only it.
        r.add_fn("k", "h", ContractKind::Post, || CheckResult::Verified {
            cases: 1,
        });
        let warm = verifier.verify_incremental(&r, &mut cache, &idx);
        let stats = warm.component_stats("k");
        assert_eq!(stats.fns, 3);
        assert_eq!(stats.cached_fns, 2);
        assert_eq!(warm.component_stats("").cached_fns, 2);
    }

    #[test]
    fn trusted_obligations_are_marked() {
        let mut r = Registry::new();
        r.add_trusted("k", "lemma", ContractKind::Lemma);
        let report = Verifier::new().verify(&r);
        assert!(report.functions[0].trusted);
        assert!(report.all_verified());
    }

    #[test]
    fn fig12_rendering_contains_components() {
        let report = Verifier::new().verify(&registry_with(true));
        let table = report.render_fig12();
        assert!(table.contains("Component"));
        assert!(table.contains("c1"));
    }

    #[test]
    fn duration_formatting_matches_paper_style() {
        assert_eq!(fmt_duration(Duration::from_secs(319)), "5m19s");
        assert_eq!(fmt_duration(Duration::from_secs(36)), "36.0s");
        assert_eq!(fmt_duration(Duration::from_millis(50)), "0.050s");
    }

    fn index_of(src: &str) -> SourceIndex {
        SourceIndex::from_files(&[crate::span::scan_text("crates/x/src/lib.rs", src)])
    }

    #[test]
    fn incremental_hits_on_unchanged_fn_and_spec() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let runs = Arc::new(AtomicUsize::new(0));
        let runs2 = Arc::clone(&runs);
        let mut r = Registry::new();
        r.add_fn("c", "anchored_fn", ContractKind::Post, move || {
            runs2.fetch_add(1, Ordering::SeqCst);
            CheckResult::Verified { cases: 5 }
        });
        let idx = index_of("pub fn anchored_fn() {\n    body();\n}\n");
        let verifier = Verifier::new();
        let mut cache = VerdictCache::new(1);
        let cold = verifier.verify_incremental(&r, &mut cache, &idx);
        assert!(cold.all_verified());
        assert!(!cold.functions[0].cached);
        assert_eq!(cold.cache_hit_rate(), 0.0);
        let warm = verifier.verify_incremental(&r, &mut cache, &idx);
        assert!(warm.functions[0].cached);
        assert_eq!(warm.functions[0].cases, 5);
        assert_eq!(warm.cache_hit_rate(), 1.0);
        assert_eq!(runs.load(Ordering::SeqCst), 1, "discharged only once");
    }

    #[test]
    fn incremental_rechecks_on_changed_fn_body() {
        let mut r = Registry::new();
        r.add_fn("c", "anchored_fn", ContractKind::Post, || {
            CheckResult::Verified { cases: 1 }
        });
        let verifier = Verifier::new();
        let mut cache = VerdictCache::new(1);
        let idx = index_of("pub fn anchored_fn() {\n    body();\n}\n");
        verifier.verify_incremental(&r, &mut cache, &idx);
        let edited = index_of("pub fn anchored_fn() {\n    EDITED();\n}\n");
        let warm = verifier.verify_incremental(&r, &mut cache, &edited);
        assert!(!warm.functions[0].cached, "edited fn must re-discharge");
    }

    #[test]
    fn incremental_rechecks_on_changed_spec() {
        let mut r = Registry::new();
        r.add_fn("c", "anchored_fn", ContractKind::Post, || {
            CheckResult::Verified { cases: 1 }
        });
        let idx = index_of("pub fn anchored_fn() {\n    body();\n}\n");
        let verifier = Verifier::new();
        let mut cache = VerdictCache::new(1);
        verifier.verify_incremental(&r, &mut cache, &idx);
        // Same source, one more obligation: the spec changed.
        r.add_fn("c", "anchored_fn", ContractKind::Pre, || {
            CheckResult::Verified { cases: 1 }
        });
        let warm = verifier.verify_incremental(&r, &mut cache, &idx);
        assert!(!warm.functions[0].cached, "changed spec must re-discharge");
        assert_eq!(warm.functions[0].cases, 2);
    }

    #[test]
    fn incremental_never_caches_refutations() {
        let mut r = Registry::new();
        r.add_fn("c", "bad_fn", ContractKind::Post, || CheckResult::Refuted {
            counterexample: "x".into(),
        });
        let idx = index_of("pub fn bad_fn() {\n    body();\n}\n");
        let verifier = Verifier::new();
        let mut cache = VerdictCache::new(1);
        verifier.verify_incremental(&r, &mut cache, &idx);
        assert!(cache.is_empty());
        let again = verifier.verify_incremental(&r, &mut cache, &idx);
        assert!(!again.functions[0].cached);
        assert!(!again.all_verified());
    }

    /// One verified obligation on `function`, registered from `site`.
    fn registered_at(site: &'static str, function: &str) -> Registry {
        let mut r = Registry::new();
        r.add(Obligation {
            component: "c",
            function: function.into(),
            kind: ContractKind::Post,
            trusted: false,
            check: Box::new(|| CheckResult::Verified { cases: 1 }),
            site,
            check_crate: "tt_contracts",
        });
        r
    }

    /// A three-crate tree: `hw`, `fluxarm` (which depends on `hw`) and
    /// `kernel`, with one line of `crate_dir` set to `edit`.
    fn crate_tree(crate_dir: &str, edit: &str) -> SourceIndex {
        let files: Vec<_> = ["hw", "fluxarm", "kernel"]
            .iter()
            .map(|dir| {
                let body = if *dir == crate_dir { edit } else { "a()" };
                crate::span::scan_text(
                    &format!("crates/{dir}/src/lib.rs"),
                    &format!("pub fn in_{dir}() {{\n    {body};\n}}\n"),
                )
            })
            .collect();
        SourceIndex::from_files(&files)
    }

    /// Whether `registry`'s one function is still warm after a cold run on
    /// `before` and a re-run on `after`.
    fn stays_warm(registry: &Registry, before: &SourceIndex, after: &SourceIndex) -> bool {
        let verifier = Verifier::new();
        let mut cache = VerdictCache::new(1);
        let cold = verifier.verify_incremental(registry, &mut cache, before);
        assert!(!cold.functions[0].cached);
        let warm = verifier.verify_incremental(registry, &mut cache, before);
        assert!(warm.functions[0].cached, "an unchanged tree stays warm");
        verifier
            .verify_incremental(registry, &mut cache, after)
            .functions[0]
            .cached
    }

    #[test]
    fn unanchored_obligations_go_stale_on_an_edit_inside_their_closure() {
        // Registered in fluxarm, whose closure is contracts, hw, fluxarm.
        let r = registered_at("crates/fluxarm/src/contracts.rs", "Arm7::not_in_source");
        let base = crate_tree("", "");
        assert!(!stays_warm(&r, &base, &crate_tree("hw", "b()")));
        assert!(!stays_warm(&r, &base, &crate_tree("fluxarm", "b()")));
        let report = Verifier::new().verify_incremental(&r, &mut VerdictCache::new(1), &base);
        assert_eq!(report.functions[0].anchor, Anchor::Closure);
    }

    #[test]
    fn unanchored_obligations_stay_warm_on_an_edit_outside_their_closure() {
        let r = registered_at("crates/fluxarm/src/contracts.rs", "Arm7::not_in_source");
        assert!(stays_warm(
            &r,
            &crate_tree("", ""),
            &crate_tree("kernel", "b()")
        ));
    }

    #[test]
    fn a_site_outside_the_crate_table_keeps_the_workspace_anchor() {
        // Crate `x` is no workspace crate: ANY file change (even an
        // unrelated fn in another crate) invalidates the verdict.
        let r = registered_at("crates/x/src/obligations.rs", "not_in_source");
        assert!(!stays_warm(
            &r,
            &crate_tree("", ""),
            &crate_tree("kernel", "b()")
        ));
        let report = Verifier::new().verify(&r);
        assert_eq!(report.functions[0].anchor, Anchor::Workspace);
    }

    #[test]
    fn an_edited_registering_file_rekeys_anchored_functions_too() {
        let site = "crates/hw/src/lib.rs";
        let r = registered_at(site, "in_fluxarm");
        let base = crate_tree("", "");
        // Editing the fn it names, or the file that registers it, goes
        // stale; editing a third file does not.
        assert!(!stays_warm(&r, &base, &crate_tree("fluxarm", "b()")));
        assert!(!stays_warm(&r, &base, &crate_tree("hw", "b()")));
        assert!(stays_warm(&r, &base, &crate_tree("kernel", "b()")));
        // A registering file outside the index adds nothing to the key.
        let r = registered_at("crates/bench/tests/probe.rs", "in_fluxarm");
        let keys = source_keys(&r, &base);
        assert_eq!(keys[0].2, base.fn_hash("in_fluxarm").unwrap());
        assert_eq!(keys[0].3, Anchor::Fn);
    }

    #[test]
    fn incremental_round_trips_through_the_file_format() {
        let mut r = Registry::new();
        r.add_fn("c", "anchored_fn", ContractKind::Invariant, || {
            CheckResult::Verified { cases: 9 }
        });
        r.add_trusted("c", "axiom", ContractKind::Lemma);
        let idx = index_of("pub fn anchored_fn() {\n    body();\n}\n");
        let verifier = Verifier::new();
        let mut cache = VerdictCache::new(7);
        verifier.verify_incremental(&r, &mut cache, &idx);
        let reloaded = VerdictCache::decode(&cache.encode()).unwrap();
        let mut reloaded = reloaded;
        let warm = verifier.verify_incremental(&r, &mut reloaded, &idx);
        assert!(warm.functions.iter().all(|f| f.cached));
        assert!(warm.functions.iter().any(|f| f.trusted));
        assert_eq!(warm.functions[0].cases, 9);
    }

    #[test]
    fn plain_verify_checks_every_function_every_time() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let runs = Arc::new(AtomicUsize::new(0));
        let runs2 = Arc::clone(&runs);
        let mut r = Registry::new();
        r.add_fn("c", "f", ContractKind::Post, move || {
            runs2.fetch_add(1, Ordering::SeqCst);
            CheckResult::Verified { cases: 1 }
        });
        let verifier = Verifier::new();
        verifier.verify(&r);
        let second = verifier.verify(&r);
        assert!(!second.functions[0].cached);
        assert_eq!(runs.load(Ordering::SeqCst), 2, "no cache between runs");
    }
}
