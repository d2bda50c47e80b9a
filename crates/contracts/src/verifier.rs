//! The verification driver: discharges obligations and reports statistics.
//!
//! Mirrors how the paper runs `flux` over TickTock: modular, per-function
//! checking with wall-clock timing, summarized per component as in Figure 12
//! (`Fns`, `Total`, `Max`, `Mean`, `StdDev`).

use crate::obligation::{CheckResult, Registry};
use crate::span::SourceIndex;
use crate::vcache::{verdict_key, Verdict, VerdictCache};
use crate::{with_mode, Mode};
use std::collections::BTreeMap;
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

    /// Discharges every obligation in `registry`, grouped per function.
    ///
    /// Obligations run in [`Mode::Observe`] so that contract failures inside
    /// checked code surface as refutations rather than panics — matching
    /// Flux, which reports errors instead of crashing the build.
    pub fn verify(&self, registry: &Registry) -> VerificationReport {
        self.verify_with_cache(registry, &mut VerificationCache::disabled())
    }

    /// Incremental verification: functions whose obligation signature is
    /// unchanged since the last verified run are served from `cache`
    /// instead of re-checked.
    ///
    /// This is the workflow §6.3 highlights: "Flux is a modular verifier
    /// that checks each function in isolation … allow\[ing\] for incremental
    /// and interactive verification during code development". Refuted
    /// functions are never cached, so fixes are always re-checked.
    pub fn verify_with_cache(
        &self,
        registry: &Registry,
        cache: &mut VerificationCache,
    ) -> VerificationReport {
        let mut order: Vec<(&'static str, String)> = Vec::new();
        for o in registry.obligations() {
            let key = (o.component, o.function.clone());
            if !order.contains(&key) {
                order.push(key);
            }
        }

        let mut report = VerificationReport::default();
        for (component, function) in order {
            let signature = cache.signature(registry, component, &function);
            if let Some(hit) = cache.lookup(component, &function, signature) {
                let mut cached = hit.clone();
                cached.cached = true;
                report.functions.push(cached);
                continue;
            }
            let mut cases = 0u64;
            let mut refutations = Vec::new();
            let mut trusted = false;
            let start = Instant::now();
            for o in registry
                .obligations()
                .iter()
                .filter(|o| o.component == component && o.function == function)
            {
                let result = with_mode(Mode::Observe, || (o.check)());
                // Contract failures raised by the code under check while in
                // Observe mode become refutations too.
                let in_code_violations = crate::take_violations();
                for v in in_code_violations {
                    refutations.push(v.to_string());
                }
                match result {
                    CheckResult::Verified { cases: c } => cases += c,
                    CheckResult::Refuted { counterexample } => {
                        refutations.push(counterexample);
                        if self.fail_fast {
                            break;
                        }
                    }
                    CheckResult::Trusted => trusted = true,
                }
            }
            let result = FunctionResult {
                component,
                function,
                duration: start.elapsed(),
                cases,
                refutations,
                trusted,
                cached: false,
            };
            cache.store(signature, &result);
            report.functions.push(result);
        }
        report
    }

    /// Persistent incremental verification: functions whose source content
    /// hash *and* obligation-domain hash both match a verdict in `cache`
    /// are skipped; everything else is discharged and (if verified) stored.
    ///
    /// Staleness gates, in the cache key itself:
    /// * a changed function body → different [`SourceIndex::anchor_hash`];
    /// * a changed spec (obligation added/removed/re-kinded/re-trusted) →
    ///   different [`obligation_signature`];
    /// * a toolchain/config change → the caller loads the cache under a
    ///   different config hash, which discards every verdict.
    ///
    /// Refuted functions are never stored, so a failure is always
    /// re-discharged. Obligations whose name cannot be anchored to a
    /// scanned `fn` span fall back to the whole-workspace hash: they stay
    /// cacheable on an unchanged tree but go stale on *any* source edit.
    pub fn verify_incremental(
        &self,
        registry: &Registry,
        cache: &mut VerdictCache,
        index: &SourceIndex,
    ) -> VerificationReport {
        let mut order: Vec<(&'static str, String)> = Vec::new();
        for o in registry.obligations() {
            let key = (o.component, o.function.clone());
            if !order.contains(&key) {
                order.push(key);
            }
        }

        let mut report = VerificationReport::default();
        for (component, function) in order {
            let domain_hash = obligation_signature(registry, component, &function);
            let fn_hash = index.anchor_hash(&function);
            let key_hash = verdict_key(TAG_VERIFY, component, &function);
            let lookup_start = Instant::now();
            if let Some(v) = cache.lookup(key_hash, fn_hash, domain_hash) {
                report.functions.push(FunctionResult {
                    component,
                    function,
                    // The honest warm cost: the lookup itself, not the
                    // original discharge — so Figure 12 totals show the
                    // incremental speedup directly.
                    duration: lookup_start.elapsed(),
                    cases: v.cases,
                    refutations: Vec::new(),
                    trusted: v.trusted,
                    cached: true,
                });
                continue;
            }
            let mut cases = 0u64;
            let mut refutations = Vec::new();
            let mut trusted = false;
            let mut kind_tag = 0u8;
            let start = Instant::now();
            for o in registry
                .obligations()
                .iter()
                .filter(|o| o.component == component && o.function == function)
            {
                kind_tag = o.kind as u8;
                let result = with_mode(Mode::Observe, || (o.check)());
                for v in crate::take_violations() {
                    refutations.push(v.to_string());
                }
                match result {
                    CheckResult::Verified { cases: c } => cases += c,
                    CheckResult::Refuted { counterexample } => {
                        refutations.push(counterexample);
                        if self.fail_fast {
                            break;
                        }
                    }
                    CheckResult::Trusted => trusted = true,
                }
            }
            let duration = start.elapsed();
            if refutations.is_empty() {
                cache.store(Verdict {
                    key_hash,
                    fn_hash,
                    domain_hash,
                    cases,
                    duration_ns: duration.as_nanos().min(u64::MAX as u128) as u64,
                    trusted,
                    kind: kind_tag,
                });
            }
            report.functions.push(FunctionResult {
                component,
                function,
                duration,
                cases,
                refutations,
                trusted,
                cached: false,
            });
        }
        report
    }
}

/// The obligation-domain signature of one function: a fingerprint of its
/// registered contract set (kind, trust, name per obligation). A changed
/// spec — an obligation added, removed, re-kinded or re-trusted — changes
/// the signature, the analogue of Flux re-checking a function whose
/// refinement annotations changed. This is the `domain_hash` half of every
/// persistent verdict key.
pub fn obligation_signature(registry: &Registry, component: &str, function: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        hash ^= v;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    };
    for o in registry
        .obligations()
        .iter()
        .filter(|o| o.component == component && o.function == function)
    {
        mix(o.kind as u64 + 1);
        mix(o.trusted as u64 + 11);
        for b in o.function.bytes() {
            mix(b as u64);
        }
    }
    hash
}

/// A cache of per-function verification results for incremental runs.
#[derive(Debug, Default)]
pub struct VerificationCache {
    enabled: bool,
    entries: BTreeMap<(String, String), (u64, FunctionResult)>,
}

impl VerificationCache {
    /// Creates an enabled cache.
    pub fn new() -> Self {
        Self {
            enabled: true,
            entries: BTreeMap::new(),
        }
    }

    /// Creates a disabled cache (every function re-checked).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Number of verified functions currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Computes the obligation signature of a function: the fingerprint of
    /// its registered contract set. A changed contract (added, removed, or
    /// different kind/trust) invalidates the cache entry — the analogue of
    /// Flux re-checking a function whose spec changed.
    fn signature(&self, registry: &Registry, component: &str, function: &str) -> u64 {
        obligation_signature(registry, component, function)
    }

    fn lookup(&self, component: &str, function: &str, signature: u64) -> Option<&FunctionResult> {
        if !self.enabled {
            return None;
        }
        let (sig, result) = self
            .entries
            .get(&(component.to_string(), function.to_string()))?;
        (*sig == signature).then_some(result)
    }

    fn store(&mut self, signature: u64, result: &FunctionResult) {
        // Verified functions are cacheable; trusted ones too (there is
        // nothing to re-discharge while their signature is unchanged).
        if self.enabled && result.verified() {
            self.entries.insert(
                (result.component.to_string(), result.function.clone()),
                (signature, result.clone()),
            );
        }
    }
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
        let mut cache = VerificationCache::new();
        let cold = verifier.verify_with_cache(&r, &mut cache);
        assert_eq!(cold.component_stats("k").cached_fns, 0);
        // Add a third function: the warm run re-checks only it.
        r.add_fn("k", "h", ContractKind::Post, || CheckResult::Verified {
            cases: 1,
        });
        let warm = verifier.verify_with_cache(&r, &mut cache);
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

    #[test]
    fn incremental_cache_skips_verified_functions() {
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
        let mut cache = VerificationCache::new();
        let first = verifier.verify_with_cache(&r, &mut cache);
        assert!(!first.functions[0].cached);
        assert_eq!(cache.len(), 1);
        let second = verifier.verify_with_cache(&r, &mut cache);
        assert!(second.functions[0].cached);
        assert_eq!(runs.load(Ordering::SeqCst), 1, "checked only once");
        assert!(second.all_verified());
    }

    #[test]
    fn refuted_functions_are_never_cached() {
        let mut r = Registry::new();
        r.add_fn("c", "bad", ContractKind::Post, || CheckResult::Refuted {
            counterexample: "x".into(),
        });
        let verifier = Verifier::new();
        let mut cache = VerificationCache::new();
        verifier.verify_with_cache(&r, &mut cache);
        assert!(cache.is_empty());
        let again = verifier.verify_with_cache(&r, &mut cache);
        assert!(!again.functions[0].cached);
    }

    #[test]
    fn changed_contract_signature_invalidates_cache() {
        let mut r = Registry::new();
        r.add_fn("c", "f", ContractKind::Post, || CheckResult::Verified {
            cases: 1,
        });
        let verifier = Verifier::new();
        let mut cache = VerificationCache::new();
        verifier.verify_with_cache(&r, &mut cache);
        // Same function, an ADDITIONAL precondition registered: the spec
        // changed, so the cached result must not be reused.
        r.add_fn("c", "f", ContractKind::Pre, || CheckResult::Verified {
            cases: 1,
        });
        let second = verifier.verify_with_cache(&r, &mut cache);
        assert!(!second.functions[0].cached);
        assert_eq!(second.functions[0].cases, 2);
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

    #[test]
    fn unanchored_obligations_go_stale_on_any_source_change() {
        let mut r = Registry::new();
        r.add_fn("c", "not_in_source", ContractKind::Post, || {
            CheckResult::Verified { cases: 1 }
        });
        let verifier = Verifier::new();
        let mut cache = VerdictCache::new(1);
        let idx = index_of("pub fn unrelated() {\n    a();\n}\n");
        verifier.verify_incremental(&r, &mut cache, &idx);
        // Unchanged tree: still a hit via the workspace-hash anchor.
        let warm = verifier.verify_incremental(&r, &mut cache, &idx);
        assert!(warm.functions[0].cached);
        // ANY file change (even an unrelated fn) invalidates it.
        let edited = index_of("pub fn unrelated() {\n    b();\n}\n");
        let stale = verifier.verify_incremental(&r, &mut cache, &edited);
        assert!(!stale.functions[0].cached);
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
    fn disabled_cache_never_hits() {
        let mut r = Registry::new();
        r.add_fn("c", "f", ContractKind::Post, || CheckResult::Verified {
            cases: 1,
        });
        let verifier = Verifier::new();
        let mut cache = VerificationCache::disabled();
        verifier.verify_with_cache(&r, &mut cache);
        let second = verifier.verify_with_cache(&r, &mut cache);
        assert!(!second.functions[0].cached);
        assert!(cache.is_empty());
    }
}
