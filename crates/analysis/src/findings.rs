//! Audit findings: one diagnostic per violated rule, with a `file:line`
//! span wherever the rule anchors to source.

use crate::source::Span;

/// Which audit pass produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// TCB audit: unsafe code / raw register stores / raw pointer (DMA)
    /// operations outside the allowlisted trusted modules.
    Tcb,
    /// Invariant-coverage lint: public mutators returning without
    /// discharging `check_invariants()`.
    Coverage,
    /// Obligation cross-check: contract sites without a registered
    /// obligation, and registered obligations with no live code.
    Crosscheck,
    /// Allowlist staleness lint: `ci/tcb_allowlist.toml` entries whose
    /// target no longer contains the declared construct — silent TCB rot.
    Staleness,
}

impl Pass {
    /// Every pass, in the order `run_passes` runs them.
    pub const ALL: [Pass; 4] = [Pass::Tcb, Pass::Coverage, Pass::Crosscheck, Pass::Staleness];

    /// The pass's CLI name (`--pass` value and diagnostic tag).
    pub fn name(self) -> &'static str {
        match self {
            Pass::Tcb => "tcb",
            Pass::Coverage => "coverage",
            Pass::Crosscheck => "crosscheck",
            Pass::Staleness => "staleness",
        }
    }
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The pass that raised it.
    pub pass: Pass,
    /// Source anchor (`None` for registry-side findings with no span).
    pub span: Option<Span>,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.span {
            Some(span) => write!(f, "{span}: [{}] {}", self.pass.name(), self.message),
            None => write!(f, "registry: [{}] {}", self.pass.name(), self.message),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_render_as_file_line_diagnostics() {
        let f = Finding {
            pass: Pass::Tcb,
            span: Some(Span {
                file: "crates/x/src/lib.rs".into(),
                line: 7,
            }),
            message: "`unsafe` outside the trusted computing base".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/x/src/lib.rs:7: [tcb] `unsafe` outside the trusted computing base"
        );
        let g = Finding {
            pass: Pass::Crosscheck,
            span: None,
            message: "dead obligation".into(),
        };
        assert!(g.to_string().starts_with("registry: [crosscheck]"));
    }
}
