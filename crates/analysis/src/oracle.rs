//! Test oracles: the per-line walks the TCB, staleness and cross-check
//! passes made before they became lookups in each file's
//! identifier-occurrence table, kept only to prove the lookups equal
//! them on generated files.

use proptest::prelude::*;

use crate::config::AuditConfig;
use crate::crosscheck::{extract_sites, first_string_literal, SITE_CALLS, SITE_MACROS};
use crate::findings::Finding;
use crate::source::{find_token, scan_text, tokens, ScannedFile};
use crate::tcb::{
    self, has_construct, is_pointer_type, Construct, RAW_POINTER_OPS, REGISTER_STORES,
};

/// The TCB constructs on one code line, by one walk over its tokens.
fn constructs(code: &str) -> impl Iterator<Item = (usize, Construct)> + '_ {
    tokens(code).filter_map(move |(at, tok)| {
        let construct = match tok {
            "unsafe" => Construct::Unsafe,
            "mut" | "const" => is_pointer_type(code, at, tok).then_some(Construct::PointerType)?,
            _ => match REGISTER_STORES.iter().position(|s| *s == tok) {
                Some(i) => Construct::Store(i),
                None => Construct::RawOp(RAW_POINTER_OPS.iter().position(|s| *s == tok)?),
            },
        };
        Some((at, construct))
    })
}

/// The TCB audit as a walk over every code line: a finding's line and
/// message, in report order.
fn tcb_by_walk(file: &ScannedFile, config: &AuditConfig) -> Vec<(usize, String)> {
    let mut findings = Vec::new();
    if config.is_trusted_file(&file.rel_path) {
        return findings;
    }
    let mut report = |line: usize, message: String| {
        let enclosing = file
            .fns
            .iter()
            .find(|f| f.start <= line && line <= f.end)
            .map(|f| f.name.as_str());
        if !config.is_trusted(&file.rel_path, enclosing) {
            findings.push((line, message));
        }
    };
    for (idx, code) in file.code().iter().enumerate() {
        let mut is_unsafe = false;
        let mut stores = [None; REGISTER_STORES.len()];
        let mut ops = [false; RAW_POINTER_OPS.len()];
        let mut pointer_type = false;
        for (at, construct) in constructs(code) {
            match construct {
                Construct::Unsafe => is_unsafe = true,
                Construct::Store(i) => {
                    stores[i].get_or_insert(at);
                }
                Construct::RawOp(i) => ops[i] = true,
                Construct::PointerType => pointer_type = true,
            }
        }
        let line = idx + 1;
        if is_unsafe {
            report(
                line,
                "`unsafe` outside the allowlisted TCB (declare it in ci/tcb_allowlist.toml or remove it)".into(),
            );
        }
        for (store, at) in REGISTER_STORES.iter().zip(stores) {
            let Some(at) = at else { continue };
            let is_call = code[at + store.len()..].trim_start().starts_with('(')
                && at > 0
                && code[..at].trim_end().ends_with('.');
            if is_call {
                report(
                    line,
                    format!("raw protection-register store `{store}` outside the allowlisted TCB"),
                );
            }
        }
        for (op, _) in RAW_POINTER_OPS.iter().zip(ops).filter(|(_, seen)| *seen) {
            report(
                line,
                format!("raw pointer operation `{op}` outside the allowlisted TCB"),
            );
        }
        if pointer_type {
            report(
                line,
                "raw pointer type (`*mut`/`*const`) outside the allowlisted TCB".into(),
            );
        }
    }
    findings
}

/// The staleness pass's construct test as a walk over `lines`.
fn any_construct_by_walk<'a>(mut lines: impl Iterator<Item = &'a str>) -> bool {
    lines.any(|l| constructs(l).next().is_some())
}

/// Site extraction's marker search as a walk over every code line:
/// `(line index, marker end)` in source order.
fn site_markers_by_walk(file: &ScannedFile) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (idx, code) in file.code().iter().enumerate() {
        let mut marker_ends = Vec::new();
        let mut defines_fn = false;
        for (at, tok) in tokens(code) {
            let mut end = at + tok.len();
            if SITE_MACROS.contains(&tok) && code.as_bytes().get(end) == Some(&b'!') {
                end += 1;
            } else if !SITE_CALLS.contains(&tok) {
                defines_fn |= tok == "fn";
                continue;
            }
            if code[end..].trim_start().starts_with('(') {
                marker_ends.push(end);
            }
        }
        if !defines_fn {
            out.extend(marker_ends.into_iter().map(|end| (idx, end)));
        }
    }
    out
}

/// `(line index, offset)` of every occurrence of `tok`, by walking
/// every code line.
fn occurrences_by_walk(file: &ScannedFile, tok: &str) -> Vec<(usize, usize)> {
    file.code()
        .iter()
        .enumerate()
        .flat_map(|(line, code)| {
            tokens(code)
                .filter(move |&(_, t)| t == tok)
                .map(move |(at, _)| (line, at))
        })
        .collect()
}

fn rendered(findings: Vec<Finding>) -> Vec<(usize, String)> {
    findings
        .into_iter()
        .map(|f| (f.span.map_or(0, |s| s.line), f.message))
        .collect()
}

/// Code fragments, joined without separators so that tokens merge and
/// split at every boundary.
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
    "requires",
    "requires!",
    "ensures!",
    "invariant!",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "fn",
    "fn ",
    "mut",
    "const",
    "0",
    "42",
    "_",
    ".",
    "!",
    "(",
    ")",
    "{",
    "}",
    ";",
    "*",
    "*mut ",
    "*const ",
    " ",
    "\"site\"",
    "\"Type::method tail\"",
    "\"esc\\\"aped\"",
    "// note",
    "é",
];

/// Tokens whose lookups are compared with the walk.
const LOOKED_UP: &[&str] = &[
    "a", "x1", "Foo", "fn", "mut", "const", "requires", "unsafe", "é", "",
];

fn file_of(lines: &[Vec<&str>]) -> ScannedFile {
    let text: Vec<String> = lines.iter().map(|parts| parts.concat()).collect();
    scan_text("crates/k/src/lib.rs", &text.join("\n"))
}

fn line_strategy() -> impl Strategy<Value = Vec<&'static str>> {
    prop::collection::vec(prop::sample::select(FRAGMENTS.to_vec()), 0..14)
}

proptest! {
    #[test]
    fn the_walk_finds_every_audited_token_where_find_token_does(parts in line_strategy()) {
        let line = parts.concat();
        let audited = ["unsafe", "fn"]
            .iter()
            .chain(REGISTER_STORES)
            .chain(RAW_POINTER_OPS)
            .chain(SITE_MACROS)
            .chain(SITE_CALLS);
        for t in audited {
            let walked = tokens(&line).find(|&(_, w)| w == *t).map(|(at, _)| at);
            prop_assert_eq!(walked, find_token(&line, t), "{:?} in {:?}", t, line);
        }
        let pointer = constructs(&line).any(|(_, c)| c == Construct::PointerType);
        prop_assert_eq!(pointer, line.contains("*mut ") || line.contains("*const "), "{:?}", line);
    }

    #[test]
    fn lookups_equal_the_deleted_walks(
        lines in prop::collection::vec(line_strategy(), 0..12),
    ) {
        let file = file_of(&lines);
        let audited = LOOKED_UP
            .iter()
            .chain(REGISTER_STORES)
            .chain(RAW_POINTER_OPS)
            .chain(SITE_MACROS)
            .chain(SITE_CALLS);
        for t in audited {
            let looked_up: Vec<(usize, usize)> = file.occurrences(t).collect();
            prop_assert_eq!(looked_up, occurrences_by_walk(&file, t), "{:?}", t);
        }

        // TCB: no allowlist, and each recovered fn allowlisted in turn.
        let mut configs = vec![AuditConfig::default()];
        configs.extend(file.fns.iter().map(|f| AuditConfig {
            trusted: vec![format!("{}::{}", file.rel_path, f.name)],
            ..Default::default()
        }));
        for config in &configs {
            prop_assert_eq!(
                rendered(tcb::audit_file(&file, config)),
                tcb_by_walk(&file, config),
                "{:?}",
                config.trusted
            );
        }

        // Staleness: the whole file and every recovered fn span.
        let code = file.code();
        prop_assert_eq!(has_construct(&file, 0..code.len()), any_construct_by_walk(code.iter()));
        for f in &file.fns {
            prop_assert_eq!(
                has_construct(&file, f.start - 1..f.end),
                any_construct_by_walk(code.range(f.start - 1..f.end)),
                "{}",
                f.name
            );
        }

        // Cross-check: the markers, and the sites read from them.
        let walked = site_markers_by_walk(&file);
        let sites: Vec<(usize, String)> = extract_sites(&file)
            .into_iter()
            .map(|s| (s.span.line - 1, s.name))
            .collect();
        let walked_sites: Vec<(usize, String)> = walked
            .iter()
            .filter_map(|&(line, end)| Some((line, first_string_literal(&file, line, end)?)))
            .collect();
        prop_assert_eq!(sites, walked_sites);
    }
}

#[test]
fn a_non_ascii_byte_ends_a_token_on_either_side() {
    // The auditor's one identifier rule is ASCII: `é` is not an
    // identifier byte, so the `unsafe` after it is a token.
    let file = scan_text(
        "crates/k/src/lib.rs",
        "éunsafe {\nlet x = unsafeé;\nTypeé::new()\n",
    );
    // Offsets are into the code view.
    let code = file.code();
    let at = |line: usize| (line, find_token(&code[line], "unsafe").unwrap());
    assert_eq!(
        file.occurrences("unsafe").collect::<Vec<_>>(),
        vec![at(0), at(1)]
    );
    assert_eq!(find_token("éunsafe {", "unsafe"), Some(2));
    assert_eq!(find_token("let x = unsafeé;", "unsafe"), Some(8));
    let words: Vec<&str> = tokens("Typeé::new()").map(|(_, t)| t).collect();
    assert_eq!(words, vec!["Type", "new"]);
}
