//! Lexical Rust source scanning: the substrate every audit pass runs on.
//!
//! The scanner itself (comment/string stripping, `fn` span recovery,
//! content hashing) lives in [`tt_contracts::span`] so that the incremental
//! verifier and the audit passes share one span/hash layer — a cached
//! verdict and an audit finding must agree on what "this function's text"
//! means. This module re-exports those types and adds the filesystem side:
//! loading files and walking the audited workspace source set.

use std::fs;
use std::path::{Path, PathBuf};

pub use tt_contracts::span::{
    find_token, is_ident_byte, scan_text, strip_comments_and_strings, FnSpan, ScannedFile,
    SourceIndex, Span,
};

/// The identifier tokens of one code line with their byte offsets: its
/// maximal runs of [`is_ident_byte`] bytes (`[A-Za-z0-9_]`), left to
/// right. A token starts exactly where [`find_token`] accepts a match, so
/// one walk answers every token question a pass asks about the line.
pub fn tokens(line: &str) -> impl Iterator<Item = (usize, &str)> {
    let b = line.as_bytes();
    let mut at = 0;
    std::iter::from_fn(move || {
        let start = at + b[at..].iter().position(|&c| is_ident_byte(c))?;
        let len = b[start..].iter().position(|&c| !is_ident_byte(c));
        at = len.map_or(b.len(), |n| start + n);
        Some((start, &line[start..at]))
    })
}

/// Loads and scans one file, returning `None` on read failure.
pub fn scan_file(root: &Path, path: &Path) -> Option<ScannedFile> {
    let text = fs::read_to_string(path).ok()?;
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    Some(scan_text(&rel, &text))
}

/// Walks the audited source set: `crates/*/src/**/*.rs` plus the top-level
/// `src/`. Vendored shims, `tests/`, `benches/`, `examples/` and build
/// output are outside the audit (they are not kernel code).
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
    use crate::crosscheck::{SITE_CALLS, SITE_MACROS};
    use crate::tcb::{constructs, Construct, RAW_POINTER_OPS, REGISTER_STORES};
    use proptest::prelude::*;

    /// Code-line fragments, joined without separators so that tokens
    /// merge and split at every boundary.
    const FRAGMENTS: &[&str] = &[
        "a",
        "x1",
        "Foo",
        "unsafe",
        "write_rbar",
        "write_rasr",
        "write_rnr",
        "write_ctrl",
        "write_region",
        "write_cfg",
        "write_addr",
        "transmute",
        "read_volatile",
        "write_volatile",
        "requires!",
        "ensures!",
        "invariant!",
        "checked_add",
        "checked_sub",
        "checked_mul",
        "fn",
        "mut",
        "const",
        "0",
        "42",
        "_",
        ".",
        "!",
        "(",
        "*mut ",
        "*const ",
        " ",
    ];

    fn first_walk_offset(line: &str, token: &str) -> Option<usize> {
        tokens(line).find(|&(_, t)| t == token).map(|(at, _)| at)
    }

    proptest! {
        #[test]
        fn the_walk_finds_every_audited_token_where_find_token_does(
            parts in prop::collection::vec(prop::sample::select(FRAGMENTS.to_vec()), 0..16),
        ) {
            let line = parts.concat();
            let audited = ["unsafe", "fn"]
                .iter()
                .chain(REGISTER_STORES)
                .chain(RAW_POINTER_OPS)
                .chain(SITE_MACROS)
                .chain(SITE_CALLS);
            for t in audited {
                prop_assert_eq!(first_walk_offset(&line, t), find_token(&line, t), "{:?} in {:?}", t, line);
            }
            let pointer = constructs(&line).any(|(_, c)| c == Construct::PointerType);
            prop_assert_eq!(pointer, line.contains("*mut ") || line.contains("*const "), "{:?}", line);
        }
    }

    #[test]
    fn a_non_ascii_byte_ends_a_token_on_its_left() {
        // The auditor's one identifier rule is ASCII: `é` is not an
        // identifier byte, so the `unsafe` after it is a token.
        assert_eq!(first_walk_offset("éunsafe {", "unsafe"), Some(2));
        assert_eq!(find_token("éunsafe {", "unsafe"), Some(2));
    }

    #[test]
    fn a_non_ascii_byte_ends_a_token_on_its_right() {
        assert_eq!(first_walk_offset("let x = unsafeé;", "unsafe"), Some(8));
        assert_eq!(find_token("let x = unsafeé;", "unsafe"), Some(8));
        let words: Vec<&str> = tokens("Typeé::new()").map(|(_, t)| t).collect();
        assert_eq!(words, vec!["Type", "new"]);
    }

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
    fn scan_file_produces_workspace_relative_paths() {
        let root = crate::audit::workspace_root();
        let path = root.join("crates/contracts/src/lib.rs");
        let f = scan_file(&root, &path).expect("readable");
        assert_eq!(f.rel_path, "crates/contracts/src/lib.rs");
        assert!(!f.fns.is_empty());
    }
}
