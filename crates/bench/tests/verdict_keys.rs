//! What a verdict key covers, checked against the real tree.
//!
//! A function whose obligation name resolves to no `fn` keys its verdict
//! on the files of its registering crate's dependency closure, taken from
//! `tt_contracts::span::WORKSPACE_CRATES`. These tests hold that table to
//! the `crates/*/Cargo.toml` files, hold every Fig. 12 check closure to
//! the closure of the crate that registers it, and check on random
//! single-line edits of the real tree that exactly the functions whose
//! closure holds the edited file are re-keyed.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::OnceLock;

use proptest::prelude::*;
use tt_analysis::audit::{read_workspace, workspace_root};
use tt_bench::fig12::{build_registry, Effort};
use tt_contracts::obligation::Registry;
use tt_contracts::span::{crate_closures, crate_of, scan_text, ScannedFile, SourceIndex};
use tt_contracts::span::{WorkspaceCrate, WORKSPACE_CRATES};
use tt_contracts::verifier::{source_keys, Anchor};

/// One manifest's `[section]` entries as `(key, value)` lines, comments
/// and blank lines dropped.
fn section<'a>(manifest: &'a str, name: &str) -> Vec<(&'a str, &'a str)> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(|l| l.split('#').next()?.split_once('='))
        .map(|(k, v)| (k.trim(), v.trim()))
        .collect()
}

/// A workspace crate as its `Cargo.toml` declares it: lib name, dir, and
/// the dirs of the workspace crates its `[dependencies]` name.
struct Manifest {
    lib: String,
    dir: String,
    deps: BTreeSet<String>,
    renames: Vec<String>,
}

/// Reads every `crates/*/Cargo.toml`, resolving dependency names to crate
/// dirs through the root manifest's `[workspace.dependencies]` paths.
fn manifests(root: &Path) -> Vec<Manifest> {
    let workspace = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let mut renames: Vec<String> = Vec::new();
    let mut dir_of: BTreeMap<String, String> = BTreeMap::new();
    for (key, value) in section(&workspace, "workspace.dependencies") {
        if value.contains("package") {
            renames.push(format!("workspace: {key}"));
        }
        let path = value.split("path").nth(1).and_then(|p| p.split('"').nth(1));
        if let Some(dir) = path.and_then(|p| p.strip_prefix("crates/")) {
            dir_of.insert(key.to_string(), dir.to_string());
        }
    }
    let mut dirs: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    let mut out: Vec<Manifest> = dirs
        .iter()
        .map(|path| {
            let dir = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(path.join("Cargo.toml")).expect("manifest");
            let unquote = |v: &str| v.trim_matches('"').to_string();
            let package = section(&text, "package")
                .into_iter()
                .find(|(k, _)| *k == "name")
                .map(|(_, v)| unquote(v))
                .expect("package name");
            let lib = section(&text, "lib")
                .into_iter()
                .find(|(k, _)| *k == "name")
                .map_or(package.replace('-', "_"), |(_, v)| unquote(v));
            let mut renames = Vec::new();
            for kind in ["dependencies", "dev-dependencies", "build-dependencies"] {
                for (key, value) in section(&text, kind) {
                    if value.contains("package") {
                        renames.push(format!("{dir} [{kind}] {key}"));
                    }
                }
            }
            let deps = section(&text, "dependencies")
                .into_iter()
                .filter_map(|(key, _)| dir_of.get(key.split('.').next().unwrap_or(key)))
                .cloned()
                .collect();
            Manifest {
                lib,
                dir,
                deps,
                renames,
            }
        })
        .collect();
    if let Some(first) = out.first_mut() {
        first.renames.extend(renames);
    }
    out
}

/// Each manifest's transitive dependency closure, itself included, as dirs.
fn manifest_closures(manifests: &[Manifest]) -> BTreeMap<String, BTreeSet<String>> {
    let mut closures: BTreeMap<String, BTreeSet<String>> = manifests
        .iter()
        .map(|m| (m.dir.clone(), BTreeSet::from([m.dir.clone()])))
        .collect();
    for _ in 0..manifests.len() {
        for m in manifests {
            let reached: BTreeSet<String> = m
                .deps
                .iter()
                .flat_map(|d| closures.get(d).cloned().unwrap_or_default())
                .collect();
            closures.get_mut(&m.dir).unwrap().extend(reached);
        }
    }
    closures
}

#[test]
fn the_crate_table_matches_the_manifests() {
    let manifests = manifests(&workspace_root());
    let from_manifests: Vec<(String, String, BTreeSet<String>)> = manifests
        .iter()
        .map(|m| (m.lib.clone(), m.dir.clone(), m.deps.clone()))
        .collect();
    let mut from_table: Vec<(String, String, BTreeSet<String>)> = WORKSPACE_CRATES
        .iter()
        .map(|c: &WorkspaceCrate| {
            let deps = c.deps.iter().map(|d| d.to_string()).collect();
            (c.lib.to_string(), c.dir.to_string(), deps)
        })
        .collect();
    from_table.sort_by(|a, b| a.1.cmp(&b.1));
    assert_eq!(from_table, from_manifests);
    let renames: Vec<&String> = manifests.iter().flat_map(|m| &m.renames).collect();
    assert!(
        renames.is_empty(),
        "a renamed dependency hides its crate's lib name from the check-crate test: {renames:?}"
    );
}

#[test]
fn every_check_closure_lies_in_its_registering_crates_closure() {
    let closures = crate_closures();
    let registry = build_registry(Effort::FULL);
    let mut outside = Vec::new();
    for o in registry.obligations() {
        let site = crate_of(o.site);
        let check = WORKSPACE_CRATES.iter().position(|c| c.lib == o.check_crate);
        let inside = matches!((site, check), (Some(s), Some(c)) if closures[s] & (1 << c) != 0);
        if !inside {
            outside.push(format!(
                "{} (site {}, check in {})",
                o.function, o.site, o.check_crate
            ));
        }
    }
    assert!(outside.is_empty(), "{outside:#?}");
    // Every Fig. 12 obligation is registered inside a workspace crate, so
    // no verdict key falls back to the whole-workspace hash.
    assert!(registry
        .obligations()
        .iter()
        .all(|o| crate_of(o.site).is_some()));
}

/// Each indexed file's `(path, text)` and its scan, in workspace order.
type Tree = (Vec<(String, String)>, Vec<ScannedFile>);

/// The real tree, scanned once.
fn tree() -> &'static Tree {
    static TREE: OnceLock<Tree> = OnceLock::new();
    TREE.get_or_init(|| {
        let sources = read_workspace(&workspace_root());
        let files = sources
            .iter()
            .map(|(rel, text)| scan_text(rel, text))
            .collect();
        (sources, files)
    })
}

/// The real tree's index with `line` of file `file` given a trailing
/// comment.
fn edited_index(file: usize, line: usize) -> SourceIndex {
    let (sources, files) = tree();
    let (rel, text) = &sources[file];
    let edited: String = text
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == line {
                format!("{l} // edited\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let mut files = files.clone();
    files[file] = scan_text(rel, &edited);
    SourceIndex::from_files(&files)
}

/// The registering sites of each `(component, function)`.
fn sites(registry: &Registry) -> BTreeMap<(&'static str, &str), BTreeSet<&'static str>> {
    let mut out: BTreeMap<(&'static str, &str), BTreeSet<&'static str>> = BTreeMap::new();
    for o in registry.obligations() {
        out.entry((o.component, &o.function))
            .or_default()
            .insert(o.site);
    }
    out
}

#[test]
fn editing_an_obligation_rekeys_its_anchored_function() {
    // The obligation-edit probe on the real tree: a change to the
    // registration of `GranularCortexM::new_regions` in
    // crates/core/src/obligations.rs, not to the fn it names.
    let (sources, files) = tree();
    let file = sources
        .iter()
        .position(|(rel, _)| rel == "crates/core/src/obligations.rs")
        .expect("the granular obligations file");
    let line = sources[file]
        .1
        .lines()
        .position(|l| l.contains("\"GranularCortexM::new_regions\""))
        .expect("the new_regions registration");
    let registry = build_registry(Effort::QUICK);
    let key = |index: &SourceIndex| {
        let keys = source_keys(&registry, index);
        let k = keys
            .iter()
            .find(|k| k.1 == "GranularCortexM::new_regions")
            .expect("registered");
        (k.2, k.3)
    };
    let (before, anchor) = key(&SourceIndex::from_files(files));
    assert_eq!(anchor, Anchor::Fn);
    assert_ne!(key(&edited_index(file, line)).0, before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A single-line edit of any indexed file re-keys exactly the
    /// unanchored functions whose registering crate's closure, taken from
    /// Cargo.toml, holds that file.
    #[test]
    fn an_edit_rekeys_exactly_the_closures_that_hold_it(
        pick in any::<u64>(),
        at in any::<u64>(),
    ) {
        let (sources, files) = tree();
        let file = (pick % files.len() as u64) as usize;
        let lines = files[file].raw().len();
        if lines == 0 {
            return Ok(());
        }
        let line = (at % lines as u64) as usize;
        let registry = build_registry(Effort::QUICK);
        let base = source_keys(&registry, &SourceIndex::from_files(files));
        let edited = source_keys(&registry, &edited_index(file, line));
        let closures = manifest_closures(&manifests(&workspace_root()));
        let edited_dir = crate_of(&sources[file].0).map(|c| WORKSPACE_CRATES[c].dir);
        let sites = sites(&registry);
        let mut rekeyed = BTreeSet::new();
        let mut expected = BTreeSet::new();
        for (b, e) in base.iter().zip(&edited) {
            prop_assert_eq!((b.0, b.1, b.3), (e.0, e.1, e.3));
            if b.3 == Anchor::Fn {
                continue;
            }
            prop_assert_eq!(b.3, Anchor::Closure, "{} fell back to the workspace", b.1);
            if b.2 != e.2 {
                rekeyed.insert(b.1);
            }
            let holds = sites[&(b.0, b.1)].iter().any(|site| {
                let dir = crate_of(site).map(|c| WORKSPACE_CRATES[c].dir);
                matches!((dir, edited_dir), (Some(d), Some(x)) if closures[d].contains(x))
            });
            if holds {
                expected.insert(b.1);
            }
        }
        prop_assert_eq!(rekeyed, expected, "edit of {}:{}", sources[file].0, line + 1);
    }
}
