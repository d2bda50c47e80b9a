//! Pass 3: the obligation cross-check.
//!
//! The runtime contract engine (`tt-contracts`) has two halves that can
//! silently drift apart: the *sites* in kernel code (`requires!` /
//! `ensures!` / `invariant!` macros and `checked_*` arithmetic) and the
//! *obligations* registered for the Fig. 10/12 verifier. A site with no
//! obligation is a contract the verifier never discharges; an obligation
//! with no live code is a dead spec inflating the proof-effort numbers.
//! This pass diffs the two:
//!
//! * every contract site found in source must match a registered
//!   obligation (by full name, type, or method), or be allowlisted under
//!   `[crosscheck] allow_unregistered`;
//! * every registered, non-`#[trusted]` obligation must anchor to live
//!   code (its method named by a `fn`, or its type appearing as an
//!   identifier), or be allowlisted under `[crosscheck] allow_dead`.

use std::collections::BTreeSet;

use crate::config::AuditConfig;
use crate::findings::{Finding, Pass};
use crate::source::{tokens, ScannedFile, Span};
use tt_contracts::obligation::Registry;
use tt_legacy::BugVariant;

/// Macros that open a contract site (`requires!(`) whose first string
/// argument names it.
pub(crate) const SITE_MACROS: &[&str] = &["requires", "ensures", "invariant"];

/// Checked-arithmetic calls that open a contract site (`checked_add(`)
/// whose first string argument names it.
pub(crate) const SITE_CALLS: &[&str] = &["checked_add", "checked_sub", "checked_mul"];

/// Crates whose sources are outside the cross-check: the contract engine
/// itself (its docs and tests exercise the macros with synthetic sites)
/// and this tool.
const EXEMPT_PREFIXES: &[&str] = &["crates/contracts/", "crates/analysis/"];

/// One contract site recovered from source.
#[derive(Debug, Clone)]
pub struct Site {
    /// The site name: the macro's (or `checked_*` call's) first string
    /// argument, e.g. `"AppBreaks"` or `"Process::setup_mpu cache hit"`.
    pub name: String,
    /// Where the marker appears.
    pub span: Span,
}

/// Builds the whole-workspace obligation registry the runtime verifier
/// uses — every crate's registrations at minimal density (the cross-check
/// only needs the *names*, not the discharge work).
pub fn workspace_registry() -> Registry {
    let mut registry = Registry::new();
    tt_legacy::obligations::register_obligations(&mut registry, BugVariant::Fixed, 1);
    ticktock::obligations::register_obligations(&mut registry, 1);
    tt_fluxarm::contracts::register_obligations(&mut registry, 1);
    tt_kernel::obligations::register_obligations(&mut registry, 1);
    tt_kernel::recovery::register_obligations(&mut registry, 1);
    tt_kernel::explore::register_obligations(&mut registry, 1);
    tt_hw::obligations::register_obligations(&mut registry, 1);
    registry
}

/// Reads the first string literal at or after code column `col` of line
/// `idx`, looking a few lines ahead (macro arguments often wrap). The
/// k-th `""` on a code line is the k-th literal the scanner recorded on
/// it, so the literal is read from the raw text at its own opening quote.
fn first_string_literal(file: &ScannedFile, idx: usize, col: usize) -> Option<String> {
    for (n, code) in file.code.iter().enumerate().skip(idx).take(6) {
        let from = if n == idx { col } else { 0 };
        let Some(quote) = code[from..].find('"') else {
            continue;
        };
        let k = code[..from + quote].matches('"').count() / 2;
        let first = file.literals.partition_point(|&(line, _)| line < n);
        let &(line, at) = file.literals.get(first + k)?;
        if line != n {
            return None;
        }
        let mut out = String::new();
        let mut chars = file.raw[n][at + 1..].chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' => out.extend(chars.next()),
                '"' => return Some(out),
                c => out.push(c),
            }
        }
        return None; // Unterminated on this line: give up.
    }
    None
}

/// Extracts the contract sites from one scanned file, left to right.
pub fn extract_sites(file: &ScannedFile) -> Vec<Site> {
    let mut sites = Vec::new();
    if EXEMPT_PREFIXES.iter().any(|p| file.rel_path.starts_with(p)) {
        return sites;
    }
    let mut marker_ends = Vec::new();
    for (idx, code) in file.code.iter().enumerate() {
        marker_ends.clear();
        let mut defines_fn = false;
        for (at, tok) in tokens(code) {
            let mut end = at + tok.len();
            if SITE_MACROS.contains(&tok) && code.as_bytes().get(end) == Some(&b'!') {
                end += 1;
            } else if !SITE_CALLS.contains(&tok) {
                defines_fn |= tok == "fn";
                continue;
            }
            // A call `(` on the right.
            if code[end..].trim_start().starts_with('(') {
                marker_ends.push(end);
            }
        }
        // Not the marker's own definition (`fn checked_add(`).
        if defines_fn {
            continue;
        }
        for &end in &marker_ends {
            if let Some(name) = first_string_literal(file, idx, end) {
                sites.push(Site {
                    name,
                    span: Span {
                        file: file.rel_path.clone(),
                        line: idx + 1,
                    },
                });
            }
        }
    }
    sites
}

/// The comparable forms of a site name: the full first token, plus its
/// `Type` / `method` halves when path-qualified. (Site names may carry a
/// human-readable tail — `"Process::setup_mpu cache hit: ..."` — which the
/// first-token split discards.)
pub(crate) fn site_candidates(name: &str) -> Vec<&str> {
    let first = name.split_whitespace().next().unwrap_or(name);
    let mut out = vec![first];
    if let Some((ty, method)) = first.split_once("::") {
        out.push(ty);
        out.push(method);
    }
    out
}

/// The comparable forms of a registered obligation's function name:
/// full, parenthesis-stripped (`encode_permissions(arm)` →
/// `encode_permissions`), and the `Type` / `method` halves.
pub(crate) fn obligation_keys(function: &str) -> Vec<&str> {
    let stripped = function.split('(').next().unwrap_or(function);
    let mut out = vec![function, stripped];
    if let Some((ty, method)) = stripped.split_once("::") {
        out.push(ty);
        out.push(method);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Runs the cross-check: sources vs. the given registry.
pub fn audit_against(
    files: &[ScannedFile],
    registry: &Registry,
    config: &AuditConfig,
) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Key index over the registry.
    let mut keys: BTreeSet<&str> = BTreeSet::new();
    for o in registry.obligations() {
        keys.extend(obligation_keys(&o.function));
    }

    // Direction 1: every site must be registered. While walking, remember
    // every site candidate — an obligation matched by a live site is, by
    // the same token, alive for direction 2.
    let sites: Vec<Site> = files.iter().flat_map(extract_sites).collect();
    let mut site_cands: BTreeSet<&str> = BTreeSet::new();
    for site in &sites {
        let cands = site_candidates(&site.name);
        site_cands.extend(&cands);
        if cands.iter().any(|c| keys.contains(c)) {
            continue;
        }
        if config
            .allow_unregistered
            .iter()
            .any(|a| cands.contains(&a.as_str()) || a == &site.name)
        {
            continue;
        }
        findings.push(Finding {
            pass: Pass::Crosscheck,
            span: Some(site.span.clone()),
            message: format!(
                "contract site `{}` has no registered obligation \
                 (register it in the component's obligations module or \
                 allowlist it under [crosscheck] allow_unregistered)",
                site.name
            ),
        });
    }

    // Direction 2: every non-trusted obligation must anchor to live code —
    // a `fn` of its method's name, a live site naming it, or its type as
    // an identifier. The first two need no walk over the code; only the
    // type names they leave undecided are looked up there.
    let fn_names: BTreeSet<&str> = files
        .iter()
        .flat_map(|f| &f.fns)
        .map(|f| f.name.as_str())
        .collect();
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    let mut undecided = Vec::new();
    for o in registry.obligations() {
        if o.trusted || !reported.insert(&o.function) {
            continue;
        }
        let stripped = o.function.split('(').next().unwrap_or(&o.function);
        let (ty, method) = match stripped.split_once("::") {
            Some((t, m)) => (Some(t), m),
            None => (None, stripped),
        };
        let alive = fn_names.contains(method)
            || fn_names.contains(stripped)
            // Named by a live contract site (e.g. the `legacy::alloc`
            // checked-arithmetic obligations, whose names are site names).
            || obligation_keys(&o.function)
                .iter()
                .any(|k| site_cands.contains(*k));
        if !alive {
            undecided.push((o, stripped, ty));
        }
    }
    let mut unseen: BTreeSet<&str> = undecided.iter().filter_map(|u| u.2).collect();
    for code in files.iter().flat_map(|f| &f.code) {
        if unseen.is_empty() {
            break;
        }
        for (_, tok) in tokens(code) {
            unseen.remove(tok);
        }
    }
    for (o, stripped, ty) in undecided {
        if ty.is_some_and(|t| !unseen.contains(t)) {
            continue;
        }
        if config
            .allow_dead
            .iter()
            .any(|a| a == &o.function || a == stripped)
        {
            continue;
        }
        findings.push(Finding {
            pass: Pass::Crosscheck,
            span: None,
            message: format!(
                "registered obligation `{}` (component `{}`) matches no live \
                 code — dead spec (remove it or allowlist it under \
                 [crosscheck] allow_dead)",
                o.function, o.component
            ),
        });
    }

    findings
}

/// Runs the cross-check against the full workspace registry.
pub fn audit(files: &[ScannedFile], config: &AuditConfig) -> Vec<Finding> {
    audit_against(files, &workspace_registry(), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan_text;
    use tt_contracts::obligation::CheckResult;
    use tt_contracts::ContractKind;

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.add_fn("k", "AppBreaks::invariant", ContractKind::Invariant, || {
            CheckResult::Verified { cases: 1 }
        });
        r.add_fn("k", "Arm7::adds_reg", ContractKind::Post, || {
            CheckResult::Verified { cases: 1 }
        });
        r.add_builtin_safety("k", &["encode_permissions(arm)"]);
        r
    }

    const SRC: &str = "\
pub struct AppBreaks;\n\
impl AppBreaks {\n\
    fn check(&self) {\n\
        tt_contracts::invariant!(\"AppBreaks\", self.ok());\n\
    }\n\
}\n\
pub fn adds_reg(a: u32) {\n\
    tt_contracts::requires!(\n\
        \"adds_reg\",\n\
        a < 16,\n\
    );\n\
}\n\
pub fn encode_permissions(x: u8) -> u8 {\n\
    tt_contracts::checked_add(\"encode_permissions\", x, 1)\n\
}\n";

    #[test]
    fn sites_are_extracted_across_wrapped_lines() {
        let f = scan_text("crates/k/src/lib.rs", SRC);
        let names: Vec<String> = extract_sites(&f).into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["AppBreaks", "adds_reg", "encode_permissions"]);
    }

    #[test]
    fn registered_sites_pass_via_full_type_or_method_match() {
        let f = scan_text("crates/k/src/lib.rs", SRC);
        let findings = audit_against(&[f], &registry(), &AuditConfig::default());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unregistered_site_is_flagged_with_span() {
        let f = scan_text(
            "crates/k/src/lib.rs",
            "pub fn ghost() {\n    tt_contracts::ensures!(\"ghost_site\", true);\n}\n",
        );
        let findings = audit_against(&[f], &registry(), &AuditConfig::default());
        // The registry's own obligations are dead in this one-fn tree;
        // the site finding is the one with a span.
        let sited: Vec<&Finding> = findings.iter().filter(|x| x.span.is_some()).collect();
        assert_eq!(sited.len(), 1, "{findings:?}");
        assert!(sited[0].message.contains("ghost_site"));
        assert_eq!(sited[0].span.as_ref().unwrap().line, 2);
    }

    #[test]
    fn allow_unregistered_suppresses_the_site() {
        let f = scan_text(
            "crates/k/src/lib.rs",
            "pub fn buggy() {\n    tt_contracts::ensures!(\"sys_tick_isr_buggy\", true);\n}\n",
        );
        let cfg = AuditConfig {
            allow_unregistered: vec!["sys_tick_isr_buggy".into()],
            ..Default::default()
        };
        let findings = audit_against(&[f], &registry(), &cfg);
        assert!(
            findings.iter().all(|x| x.span.is_none()),
            "site still flagged: {findings:?}"
        );
    }

    #[test]
    fn dead_obligation_is_flagged_and_allowlist_works() {
        let f = scan_text("crates/k/src/lib.rs", "pub fn unrelated() {}\n");
        let findings = audit_against(
            std::slice::from_ref(&f),
            &registry(),
            &AuditConfig::default(),
        );
        // All three registered functions are dead in this tiny tree.
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().all(|x| x.span.is_none()));
        let cfg = AuditConfig {
            allow_dead: vec![
                "AppBreaks::invariant".into(),
                "Arm7::adds_reg".into(),
                "encode_permissions".into(),
            ],
            ..Default::default()
        };
        assert!(audit_against(&[f], &registry(), &cfg).is_empty());
    }

    #[test]
    fn trusted_obligations_are_exempt_from_the_dead_check() {
        let mut r = Registry::new();
        r.add_trusted("k", "Memory::refined_get", ContractKind::Post);
        let f = scan_text("crates/k/src/lib.rs", "pub fn unrelated() {}\n");
        assert!(audit_against(&[f], &r, &AuditConfig::default()).is_empty());
    }

    #[test]
    fn two_sites_on_one_line_read_their_own_names() {
        let f = scan_text(
            "crates/k/src/lib.rs",
            "pub fn f(a: u32) -> u32 {\n    tt_contracts::checked_add(\"reg\", a, 1) + tt_contracts::checked_add(\"ghost\", a, 2)\n}\n",
        );
        let names: Vec<String> = extract_sites(&f).into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["reg", "ghost"]);
        let mut r = Registry::new();
        r.add_fn("k", "reg", ContractKind::Post, || CheckResult::Verified {
            cases: 1,
        });
        let findings = audit_against(&[f], &r, &AuditConfig::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`ghost`"), "{findings:?}");
    }

    #[test]
    fn a_marker_inside_an_earlier_literal_does_not_name_the_site() {
        let f = scan_text(
            "crates/k/src/lib.rs",
            "pub fn f(a: u32) {\n    log(\"requires!(x\"); tt_contracts::requires!(\"real\", a > 0);\n}\n",
        );
        let names: Vec<String> = extract_sites(&f).into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["real"]);
        let findings = audit_against(&[f], &Registry::new(), &AuditConfig::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`real`"), "{findings:?}");
    }

    #[test]
    fn contracts_crate_sources_are_exempt_from_site_extraction() {
        let f = scan_text(
            "crates/contracts/src/lib.rs",
            "pub fn demo() {\n    invariant!(\"synthetic\", true);\n}\n",
        );
        assert!(extract_sites(&f).is_empty());
    }
}
