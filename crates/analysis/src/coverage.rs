//! Pass 2: the invariant-coverage lint.
//!
//! The §4.3 isolation argument only holds if every mutation of the
//! invariant-bearing structures (`AppBreaks`, `AppMemoryAllocator`,
//! `RArray`) re-establishes the invariant before control returns. Flux
//! enforces this by type; the runtime engine enforces it dynamically —
//! but nothing stopped a new public mutator from *forgetting* the
//! `check_invariants()` call. This pass closes that hole statically.
//!
//! Rule, per public `&mut self` function in the configured files: walking
//! the body top to bottom, a *mutation* (field assignment or mutating call
//! on a field) arms the lint; a *discharge* (`check_invariants()` /
//! `self.check()`) clears it; reaching a *success exit* (a `return` that
//! is not `Err`, an `Ok(..)` tail, or the end of the body) while armed is
//! a violation. Early `Err` returns are validation, not mutation escapes.
//! A `// TRUSTED:` marker on the function opts it out explicitly — the
//! same annotation Fig. 10 counts as trusted surface.

use crate::config::AuditConfig;
use crate::findings::{Finding, Pass};
use crate::source::{find_token, FnSpan, ScannedFile, Span};

/// Whether a code line mutates `self` state: `self.field = ...` (also
/// through an index), or a mutating method call on a field
/// (`self.field.set*(/push(/insert(/remove(/clear(`).
fn is_mutation(code: &str) -> bool {
    let Some(at) = find_token(code, "self") else {
        return false;
    };
    let rest = &code[at + 4..];
    let Some(rest) = rest.strip_prefix('.') else {
        return false;
    };
    // Walk the access path: identifiers, indexing, and one trailing call.
    let mut path = String::new();
    for c in rest.chars() {
        if c.is_alphanumeric() || c == '_' || c == '.' || c == '[' || c == ']' {
            path.push(c);
        } else {
            break;
        }
    }
    let after = &rest[path.len()..];
    let assigned = {
        let t = after.trim_start();
        t.starts_with('=') && !t.starts_with("==")
    };
    if assigned {
        return true;
    }
    // Mutating method call somewhere on the path: `.set`, `.push(`, ...
    let segments: Vec<&str> = path.split('.').collect();
    segments.iter().any(|s| {
        let s = s.trim_end_matches(['[', ']']);
        s.starts_with("set") || matches!(s, "push" | "insert" | "remove" | "clear")
    })
}

/// Whether a code line discharges the invariant.
fn is_discharge(code: &str) -> bool {
    code.contains("check_invariants()") || code.contains("self.check()")
}

/// Whether a code line is a success exit (the lint fires if mutations are
/// pending here). `return Err(..)` / `Err(..)` tails are failure exits.
fn is_success_exit(code: &str) -> bool {
    let t = code.trim();
    if let Some(rest) = t.strip_prefix("return") {
        return !rest.trim_start().starts_with("Err");
    }
    // An `Ok(..)` tail expression (possibly `Ok(())`).
    t.starts_with("Ok(")
}

/// Lints one public mutator's body.
fn lint_fn(file: &ScannedFile, f: &FnSpan) -> Option<Finding> {
    // Body: lines after the signature's opening brace to the closing one.
    let mut armed = false;
    let mut armed_line = 0;
    for idx in f.start - 1..f.end {
        let code = &file.code()[idx];
        if is_mutation(code) {
            armed = true;
            armed_line = idx + 1;
        }
        if is_discharge(code) {
            armed = false;
        }
        if is_success_exit(code) && armed {
            return Some(violation(file, f, idx + 1, armed_line));
        }
    }
    // End of body is the implicit success exit.
    if armed {
        return Some(violation(file, f, f.end, armed_line));
    }
    None
}

fn violation(file: &ScannedFile, f: &FnSpan, exit_line: usize, armed_line: usize) -> Finding {
    Finding {
        pass: Pass::Coverage,
        span: Some(Span {
            file: file.rel_path.clone(),
            line: exit_line,
        }),
        message: format!(
            "public mutator `{}` can return without discharging check_invariants() \
             (state mutated at line {armed_line}; add the discharge on every success \
             path or mark the fn `// TRUSTED:`)",
            f.name
        ),
    }
}

/// Lints one file (no findings unless it is a configured coverage file).
pub fn audit_file(file: &ScannedFile, config: &AuditConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !config.coverage_files.iter().any(|c| c == &file.rel_path) {
        return findings;
    }
    for f in &file.fns {
        if !f.is_pub || !f.takes_mut_self || f.trusted {
            continue;
        }
        findings.extend(lint_fn(file, f));
    }
    findings
}

/// Runs the coverage lint over the configured files.
pub fn audit(files: &[ScannedFile], config: &AuditConfig) -> Vec<Finding> {
    files.iter().flat_map(|f| audit_file(f, config)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan_text;

    fn cfg() -> AuditConfig {
        AuditConfig {
            coverage_files: vec!["crates/core/src/breaks.rs".into()],
            ..Default::default()
        }
    }

    fn run(src: &str) -> Vec<Finding> {
        let f = scan_text("crates/core/src/breaks.rs", src);
        audit(&[f], &cfg())
    }

    const GOOD: &str = "impl AppBreaks {\n\
        pub fn set_app_break(&mut self, b: usize) -> Result<(), E> {\n\
            if b == 0 {\n\
                return Err(E::Bad);\n\
            }\n\
            self.app_break = b;\n\
            self.check();\n\
            Ok(())\n\
        }\n\
    }\n";

    const BAD: &str = "impl AppBreaks {\n\
        pub fn set_app_break(&mut self, b: usize) -> Result<(), E> {\n\
            self.app_break = b;\n\
            Ok(())\n\
        }\n\
    }\n";

    #[test]
    fn discharged_mutator_passes() {
        assert!(run(GOOD).is_empty());
    }

    #[test]
    fn undischarged_mutator_is_flagged() {
        let findings = run(BAD);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("set_app_break"));
        assert_eq!(findings[0].span.as_ref().unwrap().line, 4);
    }

    #[test]
    fn early_err_return_before_mutation_is_fine() {
        // The validation-then-mutate shape of the real set_app_break.
        assert!(run(GOOD).is_empty());
    }

    #[test]
    fn success_return_after_mutation_without_discharge_is_flagged() {
        let src = "impl A {\n\
            pub fn m(&mut self) -> Result<(), E> {\n\
                self.x = 1;\n\
                if cond() {\n\
                    return Ok(());\n\
                }\n\
                self.check();\n\
                Ok(())\n\
            }\n\
        }\n";
        let findings = run(src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].span.as_ref().unwrap().line, 5);
    }

    #[test]
    fn mutating_method_calls_arm_the_lint() {
        let src = "impl A {\n\
            pub fn m(&mut self) {\n\
                self.regions.set(1, r);\n\
            }\n\
        }\n";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn trusted_marker_opts_out() {
        let src = "impl A {\n\
            // TRUSTED: formatting only.\n\
            pub fn m(&mut self) {\n\
                self.x = 1;\n\
            }\n\
        }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn non_pub_and_non_mut_fns_are_skipped() {
        let src = "impl A {\n\
            fn private(&mut self) { self.x = 1; }\n\
            pub fn read(&self) -> usize { self.x }\n\
        }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn indexed_assignment_counts_as_mutation() {
        assert!(is_mutation("        self.regions[i] = region;"));
        assert!(is_mutation("self.generation = next_generation();"));
        assert!(is_mutation("self.breaks.set_app_break(b).map_err(|_| E)?;"));
        assert!(!is_mutation("if self.x == 1 {"));
        assert!(!is_mutation("let y = self.x;"));
    }
}
