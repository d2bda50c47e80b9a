//! `tt-analysis`: source-level static isolation auditing for the TickTock
//! reproduction (the `tt-audit` binary).
//!
//! The paper's isolation argument rests on a *small, declared* trusted
//! computing base: Flux checks everything outside it, and the trusted
//! remainder is listed so reviewers can audit it (§5, Fig. 10). In this
//! reproduction the checking is done by the runtime contract engine — so
//! nothing, until this crate, enforced that the trusted surface stays
//! declared. `tt-audit` closes the loop with three passes over the
//! workspace sources:
//!
//! 1. **TCB audit** ([`tcb`]) — `unsafe`, raw MPU/PMP register stores and
//!    raw-pointer (DMA) operations must fall inside the allowlist in
//!    `ci/tcb_allowlist.toml`; anything else is an error with a
//!    `file:line` span.
//! 2. **Invariant-coverage lint** ([`coverage`]) — every public mutator of
//!    the invariant-bearing structures (`AppBreaks`,
//!    `AppMemoryAllocator`, `RArray`) must discharge `check_invariants()`
//!    on all success paths, or carry a `// TRUSTED:` annotation.
//! 3. **Obligation cross-check** ([`crosscheck`]) — the contract sites in
//!    source and the obligations registered in the `tt-contracts`
//!    [`Registry`](tt_contracts::obligation::Registry) must agree:
//!    unregistered sites and dead obligations both fail the audit.
//! 4. **Allowlist staleness lint** ([`staleness`]) — allowlist entries
//!    whose target no longer exists or no longer contains the declared
//!    construct are flagged, with a `--fix`-style removal listing.
//!
//! The first three passes run incrementally through the shared verdict
//! cache ([`tt_contracts::vcache`], `ci/audit_cache.bin`): unchanged
//! files are skipped on warm runs ([`audit::run_cached`]). The staleness
//! pass is never cached.
//!
//! The audit also *generates* the Fig. 10 proof-effort table (now with a
//! trusted-LOC column) as the `fig10` metrics report ([`report`]), which
//! `tt-bench` consumes instead of maintaining its own counts. `tt-audit
//! --check` is a tier-1 CI gate.
//!
//! [`metrics`] is the workspace's one report schema, JSON writer and
//! baseline gate: every experiment bin and `tt-audit` report through it.

#![warn(missing_docs)]

pub mod audit;
pub mod config;
pub mod coverage;
pub mod crosscheck;
pub mod findings;
pub mod metrics;
#[cfg(test)]
mod oracle;
pub mod report;
pub mod source;
pub mod staleness;
pub mod tcb;

pub use audit::{
    load_workspace, run, run_cached, run_passes, workspace_root, DEFAULT_AUDIT_CACHE,
    DEFAULT_CONFIG,
};
pub use config::AuditConfig;
pub use findings::{Finding, Pass};
pub use report::{AuditReport, CacheStats, ComponentRow};
pub use staleness::StaleEntry;
