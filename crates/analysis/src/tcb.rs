//! Pass 1: the TCB audit.
//!
//! Everything that can widen the trusted computing base must be *declared*
//! trusted in `ci/tcb_allowlist.toml`, or the audit fails:
//!
//! * `unsafe` blocks and functions — the classic Rust escape hatch. This
//!   workspace is a simulator and has none today; the rule keeps it that
//!   way unless a future PR consciously allowlists one.
//! * Raw MPU/PMP register stores (`write_rbar`/`write_rasr`/`write_rnr`/
//!   `write_ctrl`/`write_region` on ARM, `write_cfg`/`write_addr` on
//!   RISC-V) — the commit paths whose correctness the §4.3 invariant
//!   assumes. Only the simulated register files and the declared driver
//!   commit functions may touch them.
//! * Raw pointer (DMA-shaped) operations: `*mut`/`*const` types,
//!   `transmute`, volatile/`ptr::` reads and writes. The paper's DMA story
//!   (§4.4) wraps these behind checked abstractions; a bare one is TCB.

use std::ops::Range;

use crate::config::AuditConfig;
use crate::findings::{Finding, Pass};
use crate::source::{ScannedFile, Span};

/// Raw register-store methods: calling one commits protection state.
pub(crate) const REGISTER_STORES: &[&str] = &[
    "write_rbar",
    "write_rasr",
    "write_rnr",
    "write_ctrl",
    "write_region",
    "write_cfg",
    "write_addr",
];

/// Raw pointer / DMA operation tokens.
pub(crate) const RAW_POINTER_OPS: &[&str] = &["transmute", "read_volatile", "write_volatile"];

/// One TCB construct on a code line. The variant order is the order in
/// which one line's findings are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Construct {
    /// The `unsafe` keyword.
    Unsafe,
    /// `REGISTER_STORES[i]`, called or defined.
    Store(usize),
    /// `RAW_POINTER_OPS[i]`.
    RawOp(usize),
    /// A `*mut ` / `*const ` raw pointer type.
    PointerType,
}

/// Whether the token `tok` at byte `at` of `code` is the `mut`/`const` of
/// a raw pointer type: a `*` right before it and a space right after.
pub(crate) fn is_pointer_type(code: &str, at: usize, tok: &str) -> bool {
    at > 0 && code.as_bytes()[at - 1] == b'*' && code.as_bytes().get(at + tok.len()) == Some(&b' ')
}

/// The TCB constructs on the line indices in `lines` of `file`, as `(line
/// index, byte offset, construct)`, looked up in the file's
/// identifier-occurrence table: one run of hits per construct token, not
/// in line order.
pub(crate) fn constructs_in(
    file: &ScannedFile,
    lines: Range<usize>,
) -> impl Iterator<Item = (usize, usize, Construct)> + '_ {
    let indexed = |list: &'static [&'static str], construct: fn(usize) -> Construct| {
        list.iter()
            .enumerate()
            .map(move |(i, tok)| (*tok, construct(i)))
    };
    std::iter::once(("unsafe", Construct::Unsafe))
        .chain(indexed(REGISTER_STORES, Construct::Store))
        .chain(indexed(RAW_POINTER_OPS, Construct::RawOp))
        .chain([
            ("mut", Construct::PointerType),
            ("const", Construct::PointerType),
        ])
        .flat_map(move |(tok, construct)| {
            file.occurrences_in(tok, lines.clone())
                .filter(move |&(line, at)| {
                    construct != Construct::PointerType
                        || is_pointer_type(&file.code()[line], at, tok)
                })
                .map(move |(line, at)| (line, at, construct))
        })
}

/// Whether `file` has a TCB construct on a line index in `lines`.
pub(crate) fn has_construct(file: &ScannedFile, lines: Range<usize>) -> bool {
    constructs_in(file, lines).next().is_some()
}

/// Scans one file for TCB surface outside the allowlist.
pub fn audit_file(file: &ScannedFile, config: &AuditConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    if config.is_trusted_file(&file.rel_path) {
        return findings; // The whole file is declared TCB.
    }
    let mut report = |line: usize, message: String| {
        // A hit inside an allowlisted function is declared trust.
        let enclosing = file
            .fns
            .iter()
            .find(|f| f.start <= line && line <= f.end)
            .map(|f| f.name.as_str());
        if !config.is_trusted(&file.rel_path, enclosing) {
            findings.push(Finding {
                pass: Pass::Tcb,
                span: Some(Span {
                    file: file.rel_path.clone(),
                    line,
                }),
                message,
            });
        }
    };
    // One finding per (line, construct), at the construct's first
    // occurrence on the line, lines in order and each line's findings in
    // `Construct` order.
    let mut hits: Vec<(usize, usize, Construct)> =
        constructs_in(file, 0..file.code().len()).collect();
    hits.sort_unstable_by_key(|&(line, at, construct)| (line, construct, at));
    hits.dedup_by_key(|&mut (line, _, construct)| (line, construct));
    for (idx, at, construct) in hits {
        let line = idx + 1;
        match construct {
            Construct::Unsafe => report(
                line,
                "`unsafe` outside the allowlisted TCB (declare it in ci/tcb_allowlist.toml or remove it)".into(),
            ),
            Construct::Store(i) => {
                // A *call* (`.write_rbar(` / `hw.write_region(`) at the
                // store's first occurrence is a raw commit; the defining
                // `fn write_rbar` lives in the (fully trusted) register-file
                // modules.
                let (code, store) = (&file.code()[idx], REGISTER_STORES[i]);
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
            Construct::RawOp(i) => report(
                line,
                format!(
                    "raw pointer operation `{}` outside the allowlisted TCB",
                    RAW_POINTER_OPS[i]
                ),
            ),
            Construct::PointerType => report(
                line,
                "raw pointer type (`*mut`/`*const`) outside the allowlisted TCB".into(),
            ),
        }
    }
    findings
}

/// Runs the TCB audit over a set of scanned files.
pub fn audit(files: &[ScannedFile], config: &AuditConfig) -> Vec<Finding> {
    files.iter().flat_map(|f| audit_file(f, config)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan_text;

    fn cfg(trusted: &[&str]) -> AuditConfig {
        AuditConfig {
            trusted: trusted.iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn stray_unsafe_is_flagged_with_span() {
        let f = scan_text(
            "crates/x/src/lib.rs",
            "pub fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}\n",
        );
        let findings = audit_file(&f, &cfg(&[]));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].span.as_ref().unwrap().line, 2);
        assert!(findings[0].message.contains("unsafe"));
    }

    #[test]
    fn unsafe_in_doc_or_string_is_not_flagged() {
        let f = scan_text(
            "crates/x/src/lib.rs",
            "/// This fn is not unsafe.\npub fn f() {\n    let _ = \"unsafe\";\n}\n",
        );
        assert!(audit_file(&f, &cfg(&[])).is_empty());
    }

    #[test]
    fn register_store_calls_are_flagged_but_definitions_are_not() {
        let f = scan_text(
            "crates/x/src/lib.rs",
            "pub fn write_rbar(v: u32) {}\npub fn g(hw: &mut Hw) {\n    hw.write_rbar(0);\n}\n",
        );
        let findings = audit_file(&f, &cfg(&[]));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].span.as_ref().unwrap().line, 3);
    }

    #[test]
    fn allowlisted_file_and_fn_suppress_findings() {
        let src = "pub fn commit(hw: &mut Hw) {\n    hw.write_region(0, 1, 2);\n}\npub fn other(hw: &mut Hw) {\n    hw.write_cfg(0, 1);\n}\n";
        let f = scan_text("crates/x/src/lib.rs", src);
        assert!(audit_file(&f, &cfg(&["crates/x/src/lib.rs"])).is_empty());
        let fn_level = audit_file(&f, &cfg(&["crates/x/src/lib.rs::commit"]));
        assert_eq!(fn_level.len(), 1);
        assert_eq!(fn_level[0].span.as_ref().unwrap().line, 5);
    }

    #[test]
    fn raw_pointer_ops_are_flagged() {
        let f = scan_text(
            "crates/x/src/lib.rs",
            "pub fn dma(p: *mut u8) {\n    let _ = p;\n}\n",
        );
        let findings = audit_file(&f, &cfg(&[]));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("raw pointer type"));
    }
}
