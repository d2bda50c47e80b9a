//! The docs cite only what exists: every `--bin`/`--example`/`--test`/
//! `--bench` target that README, DESIGN and EXPERIMENTS name is a cargo
//! target here, and every `*.rs` path they cite under `crates/`,
//! `tests/`, `examples/` or `src/` is a file. Only `.rs` paths are
//! checked, so runtime artifacts such as `ci/verify_cache.bin` may be
//! cited without existing.

use std::path::Path;

/// Cargo's target flags and the directory each infers targets from.
const KINDS: [(&str, &str); 4] = [
    ("--bin", "src/bin"),
    ("--example", "examples"),
    ("--test", "tests"),
    ("--bench", "benches"),
];
const SOURCE_ROOTS: [&str; 4] = ["crates/", "tests/", "examples/", "src/"];

/// Whether the root package or a `crates/*` package has a target `name`
/// of this kind: an inferred `<dir>/<name>.rs`, or a `name = "<name>"`
/// line in one of its `[[bin]]`/`[[example]]`/... tables.
fn is_target(root: &Path, (flag, dir): (&str, &str), name: &str) -> bool {
    let table = format!("[{}]]", &flag[2..]);
    let crates = std::fs::read_dir(root.join("crates")).unwrap();
    let mut packages = std::iter::once(root.to_path_buf()).chain(crates.map(|e| e.unwrap().path()));
    packages.any(|package| {
        let manifest = std::fs::read_to_string(package.join("Cargo.toml")).unwrap();
        let mut tables = manifest.split("\n[").filter(|t| t.starts_with(&table));
        tables.any(|t| t.contains(&format!("name = \"{name}\"")))
            || package.join(dir).join(format!("{name}.rs")).is_file()
    })
}

fn is_name(word: &str) -> bool {
    let name_char = |c: char| c.is_ascii_alphanumeric() || "_-".contains(c);
    !word.is_empty() && word.chars().all(name_char)
}

#[test]
fn every_cited_target_and_source_file_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut checked, mut missing) = (0, Vec::new());
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        // A target is the word after its flag, on the same line or the
        // next; `a|b` cites both, and a word with any other character is
        // a placeholder such as `<bin>`.
        let words: Vec<&str> = text
            .split_whitespace()
            .map(|w| w.trim_matches(|c: char| "`()[],;:.".contains(c)))
            .collect();
        for pair in words.windows(2) {
            let Some(&kind) = KINDS.iter().find(|k| k.0 == pair[0]) else {
                continue;
            };
            let names: Vec<&str> = pair[1].split('|').collect();
            if !names.iter().all(|n| is_name(n)) {
                continue;
            }
            for name in names {
                checked += 1;
                if !is_target(root, kind, name) {
                    missing.push(format!("{doc}: {} {name}", kind.0));
                }
            }
        }
        let path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
        for path in text
            .split(|c| !path_char(c))
            .map(|w| w.trim_end_matches('.'))
        {
            if path.ends_with(".rs") && SOURCE_ROOTS.iter().any(|r| path.starts_with(r)) {
                checked += 1;
                if !root.join(path).is_file() {
                    missing.push(format!("{doc}: {path}"));
                }
            }
        }
    }
    // The docs cite 81 at the time of writing; a scan that finds almost
    // none would pass vacuously.
    assert!(checked >= 40, "only {checked} citations found");
    let missing = missing.join("\n");
    assert!(missing.is_empty(), "cited but missing:\n{missing}");
}
