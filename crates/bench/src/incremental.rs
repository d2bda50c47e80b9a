//! Incremental verification wiring for `verify_all` / Fig. 12.
//!
//! Reproduces the verification economics §6.3 leans on: Flux "checks each
//! function in isolation", so after one cold run only *changed* functions
//! are re-solved. Here the cold run discharges every obligation and
//! persists one verdict per function in `ci/verify_cache.bin`
//! ([`tt_contracts::vcache`]); a warm run re-scans the workspace sources
//! ([`tt_contracts::span::SourceIndex`]), and every function whose content
//! hash and obligation-domain hash are unchanged is served from the cache.
//! The CI gate (`--check`) requires the warm run on an unchanged tree to
//! be sub-second, ≥10x faster than the recorded cold wall, with ≥95% hit
//! rate — the bounds live only in `ci/bench_baseline.json`, and a cold
//! run emits none of the warm metrics, so it cannot pass.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::fig12::Effort;
use tt_analysis::metrics::{Kind, Report, WALL};
use tt_contracts::span::{Fnv, SourceIndex};
use tt_contracts::vcache::{LoadOutcome, VerdictCache};
use tt_contracts::verifier::{Anchor, VerificationReport};

/// Default on-disk location of the verdict cache (workspace-relative,
/// gitignored — the cache is a build product, not a source of truth).
pub const DEFAULT_CACHE: &str = "ci/verify_cache.bin";

/// The cache schema generation for `verify_all`; bump to force a cold run
/// when the meaning of a verdict changes.
const SCHEMA: u64 = 1;

/// The toolchain/config hash: compiler + crate version, build profile,
/// cache schema, and the effort densities. Any of these changing makes
/// every cached verdict unreachable (a full cold run) — the "toolchain
/// hash" leg of the staleness model.
pub fn config_hash(effort: Effort) -> u64 {
    let mut h = Fnv::new();
    h.mix_u64(SCHEMA);
    h.mix_u64(tt_contracts::vcache::VERSION as u64);
    h.mix_str(env!("CARGO_PKG_VERSION"));
    h.mix_str(option_env!("CARGO_PKG_RUST_VERSION").unwrap_or(""));
    h.mix_u64(cfg!(debug_assertions) as u64);
    h.mix_u64(effort.monolithic_density as u64);
    h.mix_u64(effort.granular_density as u64);
    h.mix_u64(effort.interrupt_depth as u64);
    h.finish()
}

/// Scans the audited workspace sources into a content-hash index.
pub fn source_index(root: &Path) -> SourceIndex {
    let files: Vec<_> = tt_analysis::source::workspace_sources(root)
        .iter()
        .filter_map(|p| tt_analysis::source::scan_file(root, p))
        .collect();
    SourceIndex::from_files(&files)
}

/// Resolves the cache path: absolute stays as given, relative is anchored
/// at the workspace root (so `verify_all` works from any cwd).
pub fn cache_path(arg: Option<&str>) -> PathBuf {
    tt_analysis::audit::in_workspace(arg.unwrap_or(DEFAULT_CACHE))
}

/// One incremental `verify_all` run: everything the JSON artifact and the
/// CI gate need.
pub struct IncrementalRun {
    /// The verification report (per-function results, cached flags set).
    pub report: VerificationReport,
    /// How the cache load resolved ([`LoadOutcome::Warm`] only when the
    /// file was valid and config-matched).
    pub outcome: LoadOutcome,
    /// Wall-clock of source indexing + verification for *this* run.
    pub wall: Duration,
    /// The cold-run wall recorded in the cache header (this run's own wall
    /// if this run was cold).
    pub cold_wall: Duration,
    /// Cache lookup hit rate for this run.
    pub hit_rate: f64,
}

impl IncrementalRun {
    /// Warm-over-cold speedup (1.0 for the cold run itself).
    pub fn speedup(&self) -> f64 {
        let warm = self.wall.as_secs_f64();
        if warm <= 0.0 {
            return f64::INFINITY;
        }
        self.cold_wall.as_secs_f64() / warm
    }
}

/// Runs the verifier incrementally against the cache at `path`.
///
/// `force_cold` discards any existing cache first (the `--cold` leg of the
/// CI job). A missing, corrupt, or config-mismatched cache degrades to
/// exactly the same cold run — corruption is reported in the outcome so
/// the caller can warn, and never causes partial reuse. The (updated)
/// cache is saved back unless the run had refutations that should stay
/// un-cached anyway (refuted verdicts are never stored either way).
pub fn run(effort: Effort, path: &Path, force_cold: bool) -> IncrementalRun {
    let cfg = config_hash(effort);
    let (mut cache, outcome) = if force_cold {
        let _ = std::fs::remove_file(path);
        (VerdictCache::new(cfg), LoadOutcome::NoFile)
    } else {
        VerdictCache::load_or_cold(path, cfg)
    };

    let start = Instant::now();
    let index = source_index(&tt_analysis::audit::workspace_root());
    let registry = crate::fig12::build_registry(effort);
    let report =
        tt_contracts::verifier::Verifier::new().verify_incremental(&registry, &mut cache, &index);
    let wall = start.elapsed();

    let hit_rate = cache.hit_rate();
    if !outcome.is_warm() {
        // This run *was* the cold baseline: record its wall for warm gates.
        cache.set_cold_wall_ns(wall.as_nanos().min(u64::MAX as u128) as u64);
    }
    let cold_wall = Duration::from_nanos(cache.cold_wall_ns());
    if let Err(e) = cache.save(path) {
        eprintln!(
            "warning: could not save verdict cache {}: {e}",
            path.display()
        );
    }
    IncrementalRun {
        report,
        outcome,
        wall,
        cold_wall,
        hit_rate,
    }
}

/// The `fig12` report: which effort (`quick`) and cache mode (`warm`)
/// produced it, the cache hit rate, function counts overall and per
/// component, how many verdict keys anchor on `fn` spans, on a crate
/// closure, and on the whole workspace (`workspace_anchored`, gated),
/// the per-component verification times, and — on a warm run
/// only — the three gated warm figures (`warm_hit_rate`,
/// `warm_verify_ms`, `incremental_speedup`). Every refuted function is a
/// failure.
pub fn metrics(run: &IncrementalRun, quick: bool) -> Report {
    let ms = |d: Duration| d.as_secs_f64() * 1000.0;
    let mut r = Report::new("fig12");
    let mode = [("quick", f64::from(u8::from(quick)))];
    r.infos("", "verifier", "flag", &mode);
    let cache = [("warm", f64::from(u8::from(run.outcome.is_warm())))];
    r.infos("", "vcache", "flag", &cache);
    r.info("cache_hit_rate", "vcache", "share", run.hit_rate);
    let overall = [("", run.report.component_stats(""))];
    for (component, stats) in overall.into_iter().chain(run.report.by_component()) {
        let fns = [
            ("fns", stats.fns as f64),
            ("refuted_fns", stats.refuted_fns as f64),
        ];
        r.infos(component, "verifier", "count", &fns);
        r.infos(
            component,
            "vcache",
            "count",
            &[("cached_fns", stats.cached_fns as f64)],
        );
        if !component.is_empty() {
            let times = [
                ("total_ms", ms(stats.total)),
                ("max_ms", ms(stats.max)),
                ("mean_ms", ms(stats.mean)),
                ("stddev_ms", ms(stats.stddev)),
            ];
            r.infos(component, WALL, "ms", &times);
        }
    }
    let anchors = [
        ("fn_anchored", run.report.anchored(Anchor::Fn) as f64),
        (
            "closure_anchored",
            run.report.anchored(Anchor::Closure) as f64,
        ),
    ];
    r.infos("", "verifier", "count", &anchors);
    let workspace = run.report.anchored(Anchor::Workspace) as f64;
    r.add(
        Kind::Ceiling,
        "workspace_anchored",
        "verifier",
        "count",
        workspace,
    );
    r.info("cold_verify_ms", WALL, "ms", ms(run.cold_wall));
    if run.outcome.is_warm() {
        let (hits, wall) = (run.hit_rate, ms(run.wall));
        r.add(Kind::Floor, "warm_hit_rate", "vcache", "share", hits);
        r.add(Kind::Ceiling, "warm_verify_ms", WALL, "ms", wall);
        r.add(Kind::Floor, "incremental_speedup", WALL, "x", run.speedup());
    }
    let refuted = run.report.refuted();
    let lines = refuted
        .iter()
        .map(|f| format!("refuted: {} :: {}", f.component, f.function));
    r.failures.extend(lines);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate_text;

    fn temp_cache(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ttvc-inc-{tag}-{}.bin", std::process::id()))
    }

    #[test]
    fn cold_then_warm_hits_everything_on_an_unchanged_tree() {
        let path = temp_cache("warm");
        let cold = run(Effort::QUICK, &path, true);
        assert!(cold.report.all_verified());
        assert!(!cold.outcome.is_warm());
        assert_eq!(cold.hit_rate, 0.0);
        assert!(cold.cold_wall == cold.wall);

        let warm = run(Effort::QUICK, &path, false);
        assert!(warm.report.all_verified());
        assert!(warm.outcome.is_warm(), "{:?}", warm.outcome);
        assert!(
            warm.hit_rate >= 0.95,
            "hit rate {:.4} on an unchanged tree",
            warm.hit_rate
        );
        assert_eq!(
            warm.report.component_stats("").cached_fns,
            warm.report.component_stats("").fns
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn different_effort_means_different_config_hash() {
        assert_ne!(config_hash(Effort::QUICK), config_hash(Effort::FULL));
    }

    #[test]
    fn cold_metrics_have_no_warm_figures() {
        let path = temp_cache("json");
        let cold = run(Effort::QUICK, &path, true);
        let r = metrics(&cold, true);
        for name in [
            "quick",
            "warm",
            "cache_hit_rate",
            "fns",
            "cached_fns",
            "cold_verify_ms",
            "TickTock (Monolithic).fns",
        ] {
            assert!(r.get(name).is_some(), "missing {name} in {r:?}");
        }
        assert_eq!(r.get("cached_fns").unwrap().value, 0.0);
        assert_eq!(r.get("quick").unwrap().value, 1.0);
        assert_eq!(r.get("warm").unwrap().value, 0.0);
        assert_eq!(r.get("cache_hit_rate").unwrap().value, 0.0);
        assert!(r.get("warm_hit_rate").is_none());
        assert!(r.failures.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn check_fails_a_cold_run_and_passes_a_warm_one() {
        let path = temp_cache("check");
        let baseline = r#"[
  {"metric": "fig12.warm_hit_rate", "kind": "floor", "bound": 0.95, "why": "hits"},
  {"metric": "fig12.warm_verify_ms", "kind": "ceiling", "bound": 60000.0, "why": "wall"},
  {"metric": "fig12.incremental_speedup", "kind": "floor", "bound": 0.0, "why": "speedup"},
  {"metric": "fig12.workspace_anchored", "kind": "ceiling", "bound": 0, "why": "anchors"}
]"#;
        let cold = run(Effort::QUICK, &path, true);
        let v = gate_text(&metrics(&cold, true), "incr-cold", baseline);
        assert_eq!(
            v.violations.len(),
            3,
            "cold run must not pass the warm gate: {v:?}"
        );
        let warm = run(Effort::QUICK, &path, false);
        let mut thin = metrics(&warm, true);
        assert_eq!(thin.get("warm").unwrap().value, 1.0);
        let v = gate_text(&thin, "incr-warm", baseline);
        assert!(v.passed(), "{v:?}");
        // A warm run under the hit-rate floor fails it.
        thin.metrics
            .iter_mut()
            .find(|m| m.name == "warm_hit_rate")
            .unwrap()
            .value = 0.5;
        let v = gate_text(&thin, "incr-thin", baseline);
        assert_eq!(
            v.violations,
            vec!["fig12 warm_hit_rate [vcache]: 0.50 vs floor 0.95 (-0.45)"]
        );
        let _ = std::fs::remove_file(&path);
    }
}
