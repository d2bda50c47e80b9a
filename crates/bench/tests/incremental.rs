//! Staleness gates for the incremental verification engine.
//!
//! The cache must *never* reuse a verdict across a change: a changed
//! function body, a changed spec (obligation set), or a changed allowlist
//! entry each have to force a re-discharge. These tests drive the full
//! on-disk path — a seeded source tree, a persisted `ci/verify_cache.bin`
//! format file, an edit, a re-run — plus a property test perturbing
//! arbitrary function spans, and the corrupt-cache degradation path on
//! the real workspace.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use tt_bench::fig12::Effort;
use tt_bench::incremental;
use tt_contracts::obligation::{CheckResult, Obligation, Registry};
use tt_contracts::span::{scan_text, SourceIndex};
use tt_contracts::vcache::{LoadOutcome, VerdictCache};
use tt_contracts::verifier::Verifier;
use tt_contracts::ContractKind;

/// A unique scratch directory per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tt-stale-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Seeds a one-crate source tree whose `beta` body is parameterized.
fn seed_tree(root: &Path, beta_body: &str) {
    let src = root.join("crates/k/src");
    fs::create_dir_all(&src).expect("mkdir");
    let lib = format!(
        "pub fn alpha(x: u32) -> u32 {{\n    x + 1\n}}\n\n\
         pub fn beta(x: u32) -> u32 {{\n    {beta_body}\n}}\n\n\
         pub fn gamma(x: u32) -> u32 {{\n    x * 3\n}}\n"
    );
    fs::write(src.join("lib.rs"), lib).expect("write lib.rs");
}

/// Scans the seeded tree into a content-hash index.
fn index_of(root: &Path) -> SourceIndex {
    let files: Vec<_> = tt_analysis::source::workspace_sources(root)
        .iter()
        .filter_map(|p| tt_analysis::source::scan_file(root, p))
        .collect();
    SourceIndex::from_files(&files)
}

/// Registers one verified obligation per seeded function.
fn seeded_registry() -> Registry {
    let mut r = Registry::new();
    for name in ["alpha", "beta", "gamma"] {
        r.add_fn("k", name, ContractKind::Post, || CheckResult::Verified {
            cases: 4,
        });
    }
    r
}

/// Returns the set of function names served from cache in a report.
fn cached_fns(report: &tt_contracts::verifier::VerificationReport) -> Vec<&str> {
    report
        .functions
        .iter()
        .filter(|f| f.cached)
        .map(|f| f.function.as_str())
        .collect()
}

#[test]
fn editing_a_registered_fn_on_disk_rediscarges_only_that_fn() {
    // Satellite (c): seed a tree, cold-run, edit one registered fn body on
    // disk, re-run incrementally — the stale verdict must be re-discharged
    // while untouched fns hit the cache.
    let root = scratch("edit");
    let cache_file = root.join("verify_cache.bin");
    seed_tree(&root, "x + 2");

    let registry = seeded_registry();
    let mut cache = VerdictCache::new(42);
    let cold = Verifier::new().verify_incremental(&registry, &mut cache, &index_of(&root));
    assert!(cold.all_verified());
    assert!(cached_fns(&cold).is_empty(), "cold run has no hits");
    cache.save(&cache_file).expect("save cache");

    // Edit beta's body on disk; alpha and gamma are untouched.
    seed_tree(&root, "x + 99");

    let (mut cache, outcome) = VerdictCache::load_or_cold(&cache_file, 42);
    assert!(outcome.is_warm(), "{outcome:?}");
    let warm = Verifier::new().verify_incremental(&registry, &mut cache, &index_of(&root));
    assert!(warm.all_verified());
    assert_eq!(
        cached_fns(&warm),
        vec!["alpha", "gamma"],
        "the edited fn must be re-discharged, the others served from cache"
    );

    // A further unchanged re-run hits everything.
    cache.save(&cache_file).expect("save cache");
    let (mut cache, _) = VerdictCache::load_or_cold(&cache_file, 42);
    let warm2 = Verifier::new().verify_incremental(&registry, &mut cache, &index_of(&root));
    assert_eq!(cached_fns(&warm2), vec!["alpha", "beta", "gamma"]);

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn changing_the_spec_rediscarges_the_fn_with_an_unchanged_body() {
    // The spec leg of the staleness model: same sources, same fn bodies,
    // but `beta` gains an obligation — its domain hash changes and the
    // cached verdict must not be reused.
    let root = scratch("spec");
    seed_tree(&root, "x + 2");
    let index = index_of(&root);

    let registry = seeded_registry();
    let mut cache = VerdictCache::new(42);
    let _ = Verifier::new().verify_incremental(&registry, &mut cache, &index);

    let mut widened = seeded_registry();
    widened.add_fn("k", "beta", ContractKind::Invariant, || {
        CheckResult::Verified { cases: 2 }
    });
    let rerun = Verifier::new().verify_incremental(&widened, &mut cache, &index);
    assert!(rerun.all_verified());
    assert_eq!(
        cached_fns(&rerun),
        vec!["alpha", "gamma"],
        "a changed obligation set must force a re-discharge"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn config_hash_mismatch_discards_the_whole_cache() {
    // The toolchain leg: same tree, same specs, different config hash —
    // the cache load degrades to cold and nothing is reused.
    let root = scratch("cfg");
    let cache_file = root.join("verify_cache.bin");
    seed_tree(&root, "x + 2");
    let registry = seeded_registry();
    let mut cache = VerdictCache::new(42);
    let _ = Verifier::new().verify_incremental(&registry, &mut cache, &index_of(&root));
    cache.save(&cache_file).expect("save");

    let (mut cache, outcome) = VerdictCache::load_or_cold(&cache_file, 43);
    assert!(matches!(outcome, LoadOutcome::ConfigChanged), "{outcome:?}");
    let rerun = Verifier::new().verify_incremental(&registry, &mut cache, &index_of(&root));
    assert!(
        cached_fns(&rerun).is_empty(),
        "no reuse across config changes"
    );
    let _ = fs::remove_dir_all(&root);
}

/// Seeds a granular-allocator crate: `new_regions` in `lib.rs`, and its
/// obligation's registration in `obligations.rs` with `check` as the
/// property it asserts.
fn seed_obligation_tree(root: &Path, check: &str) {
    let src = root.join("crates/core/src");
    fs::create_dir_all(&src).expect("mkdir");
    let lib = "pub fn new_regions(start: u32, size: u32) -> (u32, u32) {\n    (start, size)\n}\n";
    fs::write(src.join("lib.rs"), lib).expect("write lib.rs");
    let obligations = format!(
        "pub fn register_obligations(registry: &mut Registry) {{\n    \
         registry.add_fn(COMPONENT, \"GranularCortexM::new_regions\", Post, || {check});\n}}\n"
    );
    fs::write(src.join("obligations.rs"), obligations).expect("write obligations.rs");
}

/// The seeded obligation as `obligations.rs` registers it: the check
/// refutes every case once the registration says so.
fn seeded_obligation(root: &Path) -> Registry {
    let text = fs::read_to_string(root.join("crates/core/src/obligations.rs")).expect("read");
    let refutes = text.contains("refute_every_case");
    let mut r = Registry::new();
    r.add(Obligation {
        component: "TickTock (Granular)",
        function: "GranularCortexM::new_regions".into(),
        kind: ContractKind::Post,
        trusted: false,
        check: Box::new(move || {
            if refutes {
                CheckResult::Refuted {
                    counterexample: "every case".into(),
                }
            } else {
                CheckResult::Verified { cases: 8 }
            }
        }),
        site: "crates/core/src/obligations.rs",
        check_crate: "ticktock",
    });
    r
}

#[test]
fn editing_an_obligation_on_disk_rediscarges_the_fn_it_names() {
    // The obligation-edit probe: the registration of an anchored fn's
    // obligation changes, the fn itself does not. The warm run must
    // re-discharge it and report the refutation, not a cached VERIFIED.
    let root = scratch("obligation-edit");
    let cache_file = root.join("verify_cache.bin");
    seed_obligation_tree(&root, "verify_new_regions()");
    let mut cache = VerdictCache::new(42);
    let cold =
        Verifier::new().verify_incremental(&seeded_obligation(&root), &mut cache, &index_of(&root));
    assert!(cold.all_verified());
    cache.save(&cache_file).expect("save cache");

    seed_obligation_tree(&root, "refute_every_case()");
    let (mut cache, outcome) = VerdictCache::load_or_cold(&cache_file, 42);
    assert!(outcome.is_warm(), "{outcome:?}");
    let index = index_of(&root);
    assert!(index.is_anchored("GranularCortexM::new_regions"));
    let warm = Verifier::new().verify_incremental(&seeded_obligation(&root), &mut cache, &index);
    assert!(
        cached_fns(&warm).is_empty(),
        "the edited obligation was served from cache"
    );
    assert!(!warm.all_verified(), "the edited obligation refutes");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn bit_flipped_cache_degrades_to_a_full_cold_run() {
    // Satellite (f) on the real workspace: corrupt the persisted cache and
    // the next `verify_all`-style run must detect it, warn (outcome), and
    // re-discharge everything — never partial reuse.
    let path = std::env::temp_dir().join(format!("tt-stale-flip-{}.bin", std::process::id()));
    let _ = fs::remove_file(&path);
    let cold = incremental::run(Effort::QUICK, &path, true);
    assert!(cold.report.all_verified());

    let mut bytes = fs::read(&path).expect("cache written");
    assert!(bytes.len() > 48, "cache unexpectedly small");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    fs::write(&path, &bytes).expect("rewrite");

    let run = incremental::run(Effort::QUICK, &path, false);
    assert!(
        matches!(run.outcome, LoadOutcome::Corrupt(_)),
        "{:?}",
        run.outcome
    );
    assert_eq!(run.hit_rate, 0.0, "no partial reuse from a corrupt cache");
    assert!(run.report.all_verified());
    // The run rewrote a valid cache: the next one is warm again.
    let warm = incremental::run(Effort::QUICK, &path, false);
    assert!(warm.outcome.is_warm(), "{:?}", warm.outcome);
    assert!(warm.hit_rate >= 0.95);
    let _ = fs::remove_file(&path);
}

/// Builds one function's source with a body derived from `salt`.
fn fn_src(i: usize, salt: u32) -> String {
    format!("pub fn span_fn_{i}(x: u32) -> u32 {{\n    x + {salt}\n}}\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Perturbing an arbitrary function span changes that function's
    /// content hash — and only that function's — so a cached verdict keyed
    /// on the old hash can never be served for the perturbed span.
    #[test]
    fn perturbing_any_span_invalidates_exactly_that_fn(
        target in 0usize..6,
        salt in 1u32..10_000,
    ) {
        let base: String = (0..6).map(|i| fn_src(i, 0)).collect::<Vec<_>>().join("\n");
        let perturbed: String = (0..6)
            .map(|i| fn_src(i, if i == target { salt } else { 0 }))
            .collect::<Vec<_>>()
            .join("\n");
        let i0 = SourceIndex::from_files(&[scan_text("crates/k/src/lib.rs", &base)]);
        let i1 = SourceIndex::from_files(&[scan_text("crates/k/src/lib.rs", &perturbed)]);
        for i in 0..6 {
            let name = format!("span_fn_{i}");
            prop_assert!(i0.is_anchored(&name));
            if i == target {
                prop_assert_ne!(
                    i0.anchor_hash(&name), i1.anchor_hash(&name),
                    "perturbed span kept its hash"
                );
            } else {
                prop_assert_eq!(
                    i0.anchor_hash(&name), i1.anchor_hash(&name),
                    "untouched span changed hash"
                );
            }
        }
        // The cache-level consequence: verdicts stored against the old
        // index hit only for untouched spans.
        let mut cache = VerdictCache::new(7);
        let mut registry = Registry::new();
        for i in 0..6 {
            registry.add_fn("k", format!("span_fn_{i}"), ContractKind::Post, || {
                CheckResult::Verified { cases: 1 }
            });
        }
        let _ = Verifier::new().verify_incremental(&registry, &mut cache, &i0);
        let rerun = Verifier::new().verify_incremental(&registry, &mut cache, &i1);
        let hit: Vec<&str> = cached_fns(&rerun);
        prop_assert_eq!(hit.len(), 5);
        let target_name = format!("span_fn_{target}");
        let target_hit = hit.contains(&target_name.as_str());
        prop_assert!(!target_hit, "perturbed fn {} served from cache", target_name);
    }
}
