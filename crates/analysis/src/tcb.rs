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

use crate::config::AuditConfig;
use crate::findings::{Finding, Pass};
use crate::source::{tokens, ScannedFile, Span};

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

/// One TCB construct on a code line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The TCB constructs on one code line with their byte offsets, found by
/// one walk over its identifier tokens. `*mut ` and `*const ` are the
/// tokens `mut` and `const` between a `*` and a space.
pub(crate) fn constructs(code: &str) -> impl Iterator<Item = (usize, Construct)> + '_ {
    let b = code.as_bytes();
    tokens(code).filter_map(move |(at, tok)| {
        let construct = match tok {
            "unsafe" => Construct::Unsafe,
            "mut" | "const" => {
                let pointer = at > 0 && b[at - 1] == b'*' && b.get(at + tok.len()) == Some(&b' ');
                pointer.then_some(Construct::PointerType)?
            }
            _ => match REGISTER_STORES.iter().position(|s| *s == tok) {
                Some(i) => Construct::Store(i),
                None => Construct::RawOp(RAW_POINTER_OPS.iter().position(|s| *s == tok)?),
            },
        };
        Some((at, construct))
    })
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
    for (idx, code) in file.code.iter().enumerate() {
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
            // A *call* (`.write_rbar(` / `hw.write_region(`) at the
            // store's first occurrence is a raw commit; the defining
            // `fn write_rbar` lives in the (fully trusted) register-file
            // modules.
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
