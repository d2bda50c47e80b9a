//! Proof-effort accounting: regenerates the paper's Figure 10.
//!
//! Figure 10 reports, per component, the Rust source LOC, the number of
//! functions (and how many are trusted), and the LOC of Flux specifications
//! (and how many specify trusted functions). This module scans this
//! repository's own sources and produces the same table for the
//! reproduction, so the spec-to-code ratio claim ("about 3.5 KLOC of
//! annotations for 22 KLOC of source") can be checked against what we built.

use std::path::{Path, PathBuf};

/// A component row of Figure 10 mapped onto this repository's directories.
#[derive(Debug, Clone)]
pub struct ComponentSpec {
    /// Display name, e.g. `"Kernel"`.
    pub name: &'static str,
    /// Directories or files whose `.rs` sources belong to the component.
    pub paths: Vec<PathBuf>,
}

/// Counters extracted from one component's sources.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffortCounts {
    /// Non-blank, non-comment source lines (test modules excluded).
    pub source_loc: usize,
    /// Number of `fn` items.
    pub fns: usize,
    /// Functions explicitly marked trusted (`// TRUSTED:` marker).
    pub trusted_fns: usize,
    /// Lines carrying contract annotations (`requires!`, `ensures!`,
    /// `invariant!`, lemma invocations, checked arithmetic obligations).
    pub spec_loc: usize,
    /// Spec lines attached to trusted functions.
    pub trusted_spec_loc: usize,
}

impl EffortCounts {
    /// Adds `other`'s counters to these, field by field.
    pub fn add(&mut self, other: EffortCounts) {
        self.source_loc += other.source_loc;
        self.fns += other.fns;
        self.trusted_fns += other.trusted_fns;
        self.spec_loc += other.spec_loc;
        self.trusted_spec_loc += other.trusted_spec_loc;
    }
}

/// Returns the default component → directory mapping for this workspace,
/// rooted at `workspace_root` (the directory containing `crates/`).
pub fn default_components(workspace_root: &Path) -> Vec<ComponentSpec> {
    let c = |s: &str| workspace_root.join(s);
    vec![
        ComponentSpec {
            name: "Kernel",
            paths: vec![
                c("crates/kernel/src"),
                c("crates/core/src/region.rs"),
                c("crates/core/src/mpu.rs"),
                c("crates/core/src/breaks.rs"),
                c("crates/core/src/allocator.rs"),
                c("crates/core/src/dma.rs"),
                c("crates/core/src/lib.rs"),
            ],
        },
        ComponentSpec {
            name: "ARM MPU",
            paths: vec![
                c("crates/hw/src/cortexm"),
                c("crates/core/src/cortexm.rs"),
                c("crates/legacy/src/cortexm.rs"),
            ],
        },
        ComponentSpec {
            name: "Risc-V MPU",
            paths: vec![
                c("crates/hw/src/riscv"),
                c("crates/core/src/riscv.rs"),
                c("crates/legacy/src/riscv.rs"),
            ],
        },
        ComponentSpec {
            name: "Flux-Std",
            paths: vec![c("crates/contracts/src")],
        },
        ComponentSpec {
            name: "FluxArm",
            paths: vec![c("crates/fluxarm/src")],
        },
    ]
}

/// Scans a single Rust source string.
///
/// Heuristics: comment-only and blank lines are not source; everything from
/// a `#[cfg(test)]` onwards is excluded (test modules sit at the end of each
/// file in this codebase); a line is a *spec line* if it carries one of the
/// contract markers.
pub fn scan_source(text: &str) -> EffortCounts {
    let mut counts = EffortCounts::default();
    // `pending_trusted` is set by a `// TRUSTED:` marker and consumed by the
    // next `fn` item; `current_fn_trusted` covers that function's body.
    let mut pending_trusted = false;
    let mut current_fn_trusted = false;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if trimmed.is_empty()
            || trimmed.starts_with("//")
            || trimmed.starts_with("/*")
            || trimmed.starts_with('*')
        {
            if trimmed.contains("TRUSTED:") {
                pending_trusted = true;
            }
            continue;
        }
        counts.source_loc += 1;
        let is_fn =
            trimmed.contains("fn ") && !trimmed.contains("fn(") && !trimmed.starts_with("//");
        if is_fn {
            counts.fns += 1;
            current_fn_trusted = pending_trusted;
            if pending_trusted {
                counts.trusted_fns += 1;
            }
            pending_trusted = false;
        }
        let is_spec = [
            "requires!(",
            "ensures!(",
            "invariant!(",
            "lemma_",
            "checked_add(",
            "checked_sub(",
            "checked_mul(",
            "add_fn(",
            "add_trusted(",
            "add_builtin_safety(",
        ]
        .iter()
        .any(|marker| trimmed.contains(marker));
        if is_spec {
            counts.spec_loc += 1;
            if current_fn_trusted || trimmed.contains("add_trusted(") {
                counts.trusted_spec_loc += 1;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
//! Module docs.

/// A documented function.
pub fn alloc(a: usize, b: usize) -> usize {
    requires!("alloc", a > 0);
    let c = checked_add("alloc", a, b);
    ensures!("alloc", c >= a);
    c
}

// TRUSTED: formatting only, out of scope.
pub fn fmt_fault() {
    lemma_pow2_octet(32);
}

#[cfg(test)]
mod tests {
    fn not_counted() {}
}
"#;

    #[test]
    fn scan_counts_fns_and_specs() {
        let c = scan_source(SAMPLE);
        assert_eq!(c.fns, 2);
        assert_eq!(c.trusted_fns, 1);
        // requires!, checked_add, ensures!, lemma_ = 4 spec lines.
        assert_eq!(c.spec_loc, 4);
        assert_eq!(c.trusted_spec_loc, 1);
    }

    #[test]
    fn test_modules_excluded_from_loc() {
        let with_tests = scan_source(SAMPLE);
        let without = scan_source(SAMPLE.split("#[cfg(test)]").next().unwrap());
        assert_eq!(with_tests.source_loc, without.source_loc);
    }

    #[test]
    fn blank_and_comment_lines_not_source() {
        let c = scan_source("// comment\n\n/// doc\n//! mod doc\n");
        assert_eq!(c.source_loc, 0);
    }

    #[test]
    fn scanning_this_crate_finds_substance() {
        let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut c = EffortCounts::default();
        for entry in std::fs::read_dir(&src_dir).expect("src dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                c.add(scan_source(
                    &std::fs::read_to_string(&path).expect("readable"),
                ));
            }
        }
        assert!(c.source_loc > 300, "got {}", c.source_loc);
        assert!(c.fns > 20);
        assert!(c.spec_loc > 10);
    }
}
