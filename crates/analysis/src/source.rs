//! Lexical Rust source scanning: the substrate every audit pass runs on.
//!
//! The scanner itself (comment/string stripping, `fn` span recovery,
//! content hashing, the identifier token walk and each file's
//! identifier-occurrence table) lives in [`tt_contracts::span`] so that the incremental
//! verifier and the audit passes share one span/hash layer — a cached
//! verdict and an audit finding must agree on what "this function's text"
//! means. This module re-exports those types and adds the filesystem side:
//! loading files and walking the audited workspace source set.

use std::fs;
use std::path::{Path, PathBuf};

pub use tt_contracts::span::{
    find_token, is_ident_byte, scan_text, strip_comments_and_strings, tokens, FnSpan, ScannedFile,
    SourceIndex, Span,
};

/// Reads one file as `(workspace-relative path, text)`, returning `None`
/// on read failure.
pub fn read_file(root: &Path, path: &Path) -> Option<(String, String)> {
    let text = fs::read_to_string(path).ok()?;
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    Some((rel, text))
}

/// Loads and scans one file, returning `None` on read failure.
pub fn scan_file(root: &Path, path: &Path) -> Option<ScannedFile> {
    let (rel, text) = read_file(root, path)?;
    Some(scan_text(&rel, &text))
}

/// Walks the audited source set: `crates/*/src/**/*.rs` plus the top-level
/// `src/`. Vendored shims, `tests/`, `examples/` and build output are
/// outside the audit (they are not kernel code).
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            collect_rs(&d.join("src"), &mut out);
        }
    }
    collect_rs(&root.join("src"), &mut out);
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_walk_finds_kernel_sources_sorted() {
        let root = crate::audit::workspace_root();
        let paths = workspace_sources(&root);
        assert!(paths.iter().any(|p| p.ends_with("src/machine.rs")));
        assert!(paths
            .iter()
            .all(|p| p.extension().is_some_and(|e| e == "rs")));
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);
        // Vendored shims are outside the audit.
        assert!(paths
            .iter()
            .all(|p| !p.to_string_lossy().contains("shims/")));
    }

    #[test]
    fn stored_hashes_equal_fnv_over_the_raw_lines_of_the_real_tree() {
        // The verifier's verdict cache keys on these hashes: computing
        // them at scan time must not change a single one.
        let over = |lines: &[&str]| {
            let mut h = tt_contracts::span::Fnv::new();
            for line in lines {
                h.mix_str(line);
            }
            h.finish()
        };
        let sources = crate::audit::read_workspace(&crate::audit::workspace_root());
        assert!(sources.len() > 20);
        for (rel, text) in &sources {
            let f = scan_text(rel, text);
            let raw: Vec<&str> = text.lines().take(f.raw().len()).collect();
            assert_eq!(f.content_hash(), over(&raw), "{rel}");
            for span in &f.fns {
                let expected = over(&raw[span.start - 1..span.end]);
                assert_eq!(f.fn_content_hash(span), expected, "{rel}::{}", span.name);
            }
        }
    }

    #[test]
    fn the_source_index_equals_hashing_the_raw_lines_of_the_real_tree() {
        // The index as it was built before scans stored their hashes:
        // every hash recomputed from the raw lines, folded through
        // name-keyed maps.
        use std::collections::BTreeMap;
        use tt_contracts::span::Fnv;
        let over = |lines: &mut dyn Iterator<Item = &str>| {
            let mut h = Fnv::new();
            lines.for_each(|line| h.mix_str(line));
            h.finish()
        };
        let files = crate::audit::load_workspace(&crate::audit::workspace_root());
        let mut fns: BTreeMap<&str, Fnv> = BTreeMap::new();
        let mut file_hashes: BTreeMap<&str, u64> = BTreeMap::new();
        for file in &files {
            file_hashes.insert(&file.rel_path, over(&mut file.raw().iter()));
            for f in &file.fns {
                let entry = fns.entry(&f.name).or_default();
                entry.mix_str(&file.rel_path);
                entry.mix_u64(over(&mut file.raw().range(f.start - 1..f.end)));
            }
        }
        let mut ws = Fnv::new();
        for (path, hash) in &file_hashes {
            ws.mix_str(path);
            ws.mix_u64(*hash);
        }
        let index = SourceIndex::from_files(&files);
        assert_eq!(index.workspace_hash(), ws.finish());
        for (path, hash) in file_hashes {
            assert_eq!(index.file_hash(path), Some(hash), "{path}");
        }
        for (name, hash) in fns {
            assert_eq!(index.fn_hash(name), Some(hash.finish()), "{name}");
        }
        assert_eq!(index.fn_hash("no_such_fn_anywhere"), None);
    }

    #[test]
    fn scan_file_produces_workspace_relative_paths() {
        let root = crate::audit::workspace_root();
        let path = root.join("crates/contracts/src/lib.rs");
        let f = scan_file(&root, &path).expect("readable");
        assert_eq!(f.rel_path, "crates/contracts/src/lib.rs");
        assert!(!f.fns.is_empty());
    }
}
