//! Pass 4: the allowlist staleness lint.
//!
//! The allowlist (`ci/tcb_allowlist.toml`) is the declared TCB — but the
//! declaration itself can rot. A file whose last `unsafe` block was
//! refactored away, a `path::fn` entry whose function was renamed, a
//! crosscheck exemption for a site that no longer exists: each is an
//! allowlist entry silently granting trust that nothing claims. That's the
//! inverse failure of the TCB audit (which catches *undeclared* trust),
//! and exactly the staleness the incremental cache must also never mask —
//! so this pass re-derives entry liveness from the scanned sources on
//! every run and is never served from the verdict cache.
//!
//! Rules:
//!
//! * `[tcb] trusted` file/dir entries must match at least one audited
//!   source file, and the matched scope must still contain a TCB
//!   construct (`unsafe`, a raw register-store token, a raw-pointer op,
//!   or a `*mut`/`*const` type).
//! * `[tcb] trusted` `path::fn` entries must resolve to an existing
//!   function whose body still contains such a construct.
//! * `[crosscheck] allow_unregistered` entries must match a contract site
//!   extracted from the tree.
//! * `[crosscheck] allow_dead` entries must match a registered obligation.
//!
//! Stale entries are reported as findings *and* collected as
//! [`StaleEntry`] records so `tt-audit` can print a `--fix`-style removal
//! listing.

use crate::config::AuditConfig;
use crate::crosscheck;
use crate::findings::{Finding, Pass};
use crate::source::ScannedFile;
use crate::tcb::has_construct;
use tt_contracts::obligation::Registry;

/// One stale allowlist entry: enough to print a removal instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleEntry {
    /// The allowlist key the entry lives under (`"[tcb] trusted"`,
    /// `"[crosscheck] allow_unregistered"`, `"[crosscheck] allow_dead"`).
    pub section: &'static str,
    /// The entry string, verbatim as it appears in the TOML array.
    pub entry: String,
    /// Why the entry is stale.
    pub reason: String,
}

impl StaleEntry {
    /// Renders the entry as an audit finding.
    pub fn to_finding(&self) -> Finding {
        Finding {
            pass: Pass::Staleness,
            span: None,
            message: format!(
                "stale allowlist entry `\"{}\"` under {}: {} — remove it from \
                 ci/tcb_allowlist.toml (or restore the construct it declares)",
                self.entry, self.section, self.reason
            ),
        }
    }
}

/// Audits the `[tcb] trusted` entries against the scanned tree.
fn stale_trusted(files: &[ScannedFile], config: &AuditConfig) -> Vec<StaleEntry> {
    let mut out = Vec::new();
    for entry in &config.trusted {
        let stale = |reason: String| StaleEntry {
            section: "[tcb] trusted",
            entry: entry.clone(),
            reason,
        };
        if let Some((path, func)) = entry.split_once("::") {
            let Some(file) = files.iter().find(|f| f.rel_path == path) else {
                out.push(stale(format!("file `{path}` is not in the audited tree")));
                continue;
            };
            let Some(span) = file.fns.iter().find(|f| f.name == func) else {
                out.push(stale(format!("no function `{func}` in `{path}`")));
                continue;
            };
            // The defining occurrences count too: a trusted register
            // file *defines* `write_rbar`, and that definition is what
            // the entry exists to cover.
            if !has_construct(file, span.start - 1..span.end) {
                out.push(stale(format!(
                    "`{func}` no longer contains an unsafe/raw-store construct"
                )));
            }
        } else {
            let prefix = format!("{}/", entry.trim_end_matches('/'));
            let matched: Vec<&ScannedFile> = files
                .iter()
                .filter(|f| f.rel_path == *entry || f.rel_path.starts_with(&prefix))
                .collect();
            if matched.is_empty() {
                out.push(stale("matches no audited source file".into()));
            } else if !matched.iter().any(|f| has_construct(f, 0..f.code().len())) {
                out.push(stale(
                    "no unsafe/raw-store construct remains in the trusted scope".into(),
                ));
            }
        }
    }
    out
}

/// Audits the `[crosscheck]` exemption lists against sites and registry.
fn stale_crosscheck(
    files: &[ScannedFile],
    registry: &Registry,
    config: &AuditConfig,
) -> Vec<StaleEntry> {
    let mut out = Vec::new();
    let sites: Vec<crosscheck::Site> = files.iter().flat_map(crosscheck::extract_sites).collect();
    for entry in &config.allow_unregistered {
        let live = sites.iter().any(|s| {
            s.name == *entry || crosscheck::site_candidates(&s.name).contains(&entry.as_str())
        });
        if !live {
            out.push(StaleEntry {
                section: "[crosscheck] allow_unregistered",
                entry: entry.clone(),
                reason: "matches no contract site in the tree".into(),
            });
        }
    }
    for entry in &config.allow_dead {
        let live = registry.obligations().iter().any(|o| {
            o.function == *entry
                || crosscheck::obligation_keys(&o.function).contains(&entry.as_str())
        });
        if !live {
            out.push(StaleEntry {
                section: "[crosscheck] allow_dead",
                entry: entry.clone(),
                reason: "matches no registered obligation".into(),
            });
        }
    }
    out
}

/// Collects every stale allowlist entry, checking the crosscheck
/// exemptions against the given registry.
pub fn stale_entries_against(
    files: &[ScannedFile],
    registry: &Registry,
    config: &AuditConfig,
) -> Vec<StaleEntry> {
    let mut out = stale_trusted(files, config);
    out.extend(stale_crosscheck(files, registry, config));
    out
}

/// Collects every stale allowlist entry against the workspace registry.
pub fn stale_entries(files: &[ScannedFile], config: &AuditConfig) -> Vec<StaleEntry> {
    stale_entries_against(files, &crosscheck::workspace_registry(), config)
}

/// Runs the staleness pass, rendering stale entries as findings.
pub fn audit(files: &[ScannedFile], config: &AuditConfig) -> Vec<Finding> {
    stale_entries(files, config)
        .iter()
        .map(StaleEntry::to_finding)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan_text;
    use tt_contracts::obligation::CheckResult;
    use tt_contracts::ContractKind;

    const TRUSTED_SRC: &str = "pub fn commit(hw: &mut Hw) {\n    hw.write_rbar(0);\n}\n\
                               pub fn helper() {\n    let x = 1;\n}\n";

    fn cfg(trusted: &[&str]) -> AuditConfig {
        AuditConfig {
            trusted: trusted.iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn live_file_and_fn_entries_pass() {
        let f = scan_text("crates/x/src/lib.rs", TRUSTED_SRC);
        let r = Registry::new();
        assert!(stale_entries_against(
            std::slice::from_ref(&f),
            &r,
            &cfg(&["crates/x/src/lib.rs", "crates/x/src/lib.rs::commit"])
        )
        .is_empty());
    }

    #[test]
    fn missing_file_entry_is_stale() {
        let f = scan_text("crates/x/src/lib.rs", TRUSTED_SRC);
        let got = stale_entries_against(&[f], &Registry::new(), &cfg(&["crates/gone/src/old.rs"]));
        assert_eq!(got.len(), 1);
        assert!(
            got[0].reason.contains("matches no audited source file"),
            "{got:?}"
        );
        // A `path::fn` entry on a missing file names the file.
        let f2 = scan_text("crates/x/src/lib.rs", TRUSTED_SRC);
        let got = stale_entries_against(
            &[f2],
            &Registry::new(),
            &cfg(&["crates/gone/src/old.rs::commit"]),
        );
        assert_eq!(got.len(), 1);
        assert!(got[0].reason.contains("not in the audited tree"), "{got:?}");
    }

    #[test]
    fn renamed_fn_entry_is_stale() {
        let f = scan_text("crates/x/src/lib.rs", TRUSTED_SRC);
        let got = stale_entries_against(
            &[f],
            &Registry::new(),
            &cfg(&["crates/x/src/lib.rs::old_commit"]),
        );
        assert_eq!(got.len(), 1);
        assert!(
            got[0].reason.contains("no function `old_commit`"),
            "{got:?}"
        );
    }

    #[test]
    fn constructless_scope_is_a_dead_entry() {
        let f = scan_text("crates/x/src/lib.rs", TRUSTED_SRC);
        // `helper` contains no unsafe/raw-store construct: declared trust
        // with nothing to trust.
        let got = stale_entries_against(
            std::slice::from_ref(&f),
            &Registry::new(),
            &cfg(&["crates/x/src/lib.rs::helper"]),
        );
        assert_eq!(got.len(), 1);
        assert!(got[0].reason.contains("no longer contains"), "{got:?}");
        // Same for a whole file with no construct anywhere.
        let clean = scan_text("crates/y/src/lib.rs", "pub fn pure() -> u32 { 1 }\n");
        let got = stale_entries_against(&[clean], &Registry::new(), &cfg(&["crates/y/src/lib.rs"]));
        assert_eq!(got.len(), 1);
        assert!(got[0].reason.contains("no unsafe/raw-store construct"));
    }

    #[test]
    fn defining_a_register_store_keeps_a_file_entry_live() {
        // The register files *define* write_rbar — that is the construct
        // the whole-file entry exists for.
        let f = scan_text(
            "crates/hw/src/mpu.rs",
            "pub fn write_rbar(&mut self, v: u32) {\n    self.rbar = v;\n}\n",
        );
        assert!(
            stale_entries_against(&[f], &Registry::new(), &cfg(&["crates/hw/src/mpu.rs"]))
                .is_empty()
        );
    }

    #[test]
    fn crosscheck_exemptions_go_stale_with_their_targets() {
        let f = scan_text(
            "crates/k/src/lib.rs",
            "pub fn buggy() {\n    tt_contracts::ensures!(\"sys_tick_isr_buggy\", true);\n}\n",
        );
        let mut r = Registry::new();
        r.add_fn("k", "Live::fn", ContractKind::Post, || {
            CheckResult::Verified { cases: 1 }
        });
        let config = AuditConfig {
            allow_unregistered: vec!["sys_tick_isr_buggy".into(), "ghost_site".into()],
            allow_dead: vec!["Live::fn".into(), "Gone::fn".into()],
            ..Default::default()
        };
        let got = stale_entries_against(&[f], &r, &config);
        let entries: Vec<&str> = got.iter().map(|e| e.entry.as_str()).collect();
        assert_eq!(entries, vec!["ghost_site", "Gone::fn"], "{got:?}");
    }

    #[test]
    fn findings_name_the_entry_and_the_fix() {
        let got = stale_entries_against(&[], &Registry::new(), &cfg(&["crates/gone/src/old.rs"]));
        let f = got[0].to_finding();
        assert_eq!(f.pass, Pass::Staleness);
        assert!(f.message.contains("crates/gone/src/old.rs"));
        assert!(f.message.contains("remove it from ci/tcb_allowlist.toml"));
    }
}
