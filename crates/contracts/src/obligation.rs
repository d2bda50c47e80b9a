//! Verification obligations: the unit of work the verifier discharges.
//!
//! In Flux, every function with a contract generates verification conditions
//! that the SMT solver must discharge. Here, each crate registers one
//! [`Obligation`] per contract into a [`Registry`]; the [`crate::verifier`]
//! then discharges them modularly, per function, with timing — reproducing
//! the methodology behind the paper's Figure 12.

use crate::ContractKind;
use std::fmt;

/// The outcome of discharging a single obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckResult {
    /// The contract held on every explored case.
    Verified {
        /// Number of concrete cases explored (exhaustive or sampled).
        cases: u64,
    },
    /// The contract failed; verification rejects the function.
    Refuted {
        /// A human-readable counterexample, like a Flux error message.
        counterexample: String,
    },
    /// The obligation is `#[trusted]`: assumed, not checked (§5).
    Trusted,
}

impl CheckResult {
    /// Returns `true` unless the obligation was refuted.
    pub fn passed(&self) -> bool {
        !matches!(self, CheckResult::Refuted { .. })
    }
}

/// A single verification obligation attached to a function or type.
pub struct Obligation {
    /// Component the obligation belongs to (groups rows of Fig. 10/12),
    /// e.g. `"kernel"`, `"arm-mpu"`, `"fluxarm"`.
    pub component: &'static str,
    /// Fully qualified name of the function or type under check.
    pub function: String,
    /// Which contract kind this obligation discharges.
    pub kind: ContractKind,
    /// Whether the obligation is `#[trusted]` (counted separately in Fig. 10).
    pub trusted: bool,
    /// The discharge procedure: our stand-in for the SMT query.
    pub check: Box<dyn Fn() -> CheckResult + Send>,
    /// The file whose code registered the obligation, `/`-separated: the
    /// `crates/<dir>/src/…` tail of the caller's path when it has one (a
    /// workspace build passes relative paths, a build of the crates as
    /// path dependencies absolute ones), else the path as the compiler
    /// gave it. The verifier folds this file's hash into the verdict key
    /// and anchors a function that resolves to no `fn` on its crate's
    /// dependency closure ([`crate::span::SourceIndex::closure_hash`]).
    pub site: &'static str,
    /// The crate that defines the check closure: the leading path
    /// segment of its type name (`ticktock` for a closure written in
    /// `ticktock::obligations`). A check can only run code of this crate
    /// and its dependencies, so it must lie in the closure of the crate
    /// of [`site`](Self::site).
    pub check_crate: &'static str,
}

impl fmt::Debug for Obligation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obligation")
            .field("component", &self.component)
            .field("function", &self.function)
            .field("kind", &self.kind)
            .field("trusted", &self.trusted)
            .field("site", &self.site)
            .field("check_crate", &self.check_crate)
            .finish_non_exhaustive()
    }
}

/// A collection of obligations registered by the workspace crates.
#[derive(Debug, Default)]
pub struct Registry {
    obligations: Vec<Obligation>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a fully specified obligation.
    pub fn add(&mut self, obligation: Obligation) {
        self.obligations.push(obligation);
    }

    /// Registers an obligation from its parts, recording the calling
    /// file as its [`site`](Obligation::site).
    #[track_caller]
    pub fn add_fn(
        &mut self,
        component: &'static str,
        function: impl Into<String>,
        kind: ContractKind,
        check: impl Fn() -> CheckResult + Send + 'static,
    ) {
        self.push(component, function.into(), kind, false, check);
    }

    /// Registers a `#[trusted]` obligation: counted, never executed.
    #[track_caller]
    pub fn add_trusted(
        &mut self,
        component: &'static str,
        function: impl Into<String>,
        kind: ContractKind,
    ) {
        self.push(component, function.into(), kind, true, || {
            CheckResult::Trusted
        });
    }

    /// Registers the implicit, cheap obligations for a batch of functions
    /// whose only verification conditions are Flux's built-in safety checks
    /// (overflow/bounds). These are the "0.05s mean" bulk of Figure 12.
    #[track_caller]
    pub fn add_builtin_safety(&mut self, component: &'static str, functions: &[&str]) {
        for f in functions {
            let name = (*f).to_string();
            self.add_fn(component, name, ContractKind::Overflow, || {
                // A token domain walk standing in for the trivial VC solve.
                let mut acc: u64 = 0;
                for i in 0..64u64 {
                    acc = acc.wrapping_mul(31).wrapping_add(i);
                }
                std::hint::black_box(acc);
                CheckResult::Verified { cases: 64 }
            });
        }
    }

    #[track_caller]
    fn push(
        &mut self,
        component: &'static str,
        function: String,
        kind: ContractKind,
        trusted: bool,
        check: impl Fn() -> CheckResult + Send + 'static,
    ) {
        let check_type = std::any::type_name_of_val(&check);
        self.add(Obligation {
            component,
            function,
            kind,
            trusted,
            check: Box::new(check),
            site: site_of(std::panic::Location::caller().file()),
            check_crate: check_type.split("::").next().unwrap_or(check_type),
        });
    }

    /// Returns the registered obligations.
    pub fn obligations(&self) -> &[Obligation] {
        &self.obligations
    }

    /// Returns the number of distinct functions with obligations in
    /// `component` (an empty string matches all components).
    pub fn function_count(&self, component: &str) -> usize {
        let mut names: Vec<&str> = self
            .obligations
            .iter()
            .filter(|o| component.is_empty() || o.component == component)
            .map(|o| o.function.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }

    /// Returns the number of trusted functions in `component` (functions all
    /// of whose obligations are trusted), mirroring Fig. 10's `Fns(Trusted)`.
    pub fn trusted_function_count(&self, component: &str) -> usize {
        let mut names: Vec<&str> = self
            .obligations
            .iter()
            .filter(|o| (component.is_empty() || o.component == component) && o.trusted)
            .map(|o| o.function.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .filter(|name| {
                self.obligations
                    .iter()
                    .filter(|o| o.function == *name)
                    .all(|o| o.trusted)
            })
            .count()
    }

    /// Lists the component names present in the registry, sorted.
    pub fn components(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = self.obligations.iter().map(|o| o.component).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The `crates/<dir>/src/…` tail of a source path (the last one, if the
/// path nests several), or the path itself when it has none.
fn site_of(file: &str) -> &str {
    let mut site = file;
    let mut rest = file;
    while let Some(at) = rest.find("crates/") {
        let tail = &rest[at..];
        let is_crate_src = tail["crates/".len()..]
            .split_once('/')
            .is_some_and(|(dir, after)| !dir.is_empty() && after.starts_with("src/"));
        if is_crate_src && (at == 0 || rest.as_bytes()[at - 1] == b'/') {
            site = tail;
        }
        rest = &tail["crates/".len()..];
    }
    site
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        r.add_fn("kernel", "alloc", ContractKind::Post, || {
            CheckResult::Verified { cases: 10 }
        });
        r.add_fn("kernel", "alloc", ContractKind::Invariant, || {
            CheckResult::Verified { cases: 5 }
        });
        r.add_fn("kernel", "brk", ContractKind::Pre, || {
            CheckResult::Refuted {
                counterexample: "new_break = usize::MAX".into(),
            }
        });
        r.add_trusted("arm-mpu", "fmt_fault", ContractKind::Post);
        r
    }

    #[test]
    fn function_count_dedups_per_function() {
        let r = sample_registry();
        assert_eq!(r.function_count("kernel"), 2);
        assert_eq!(r.function_count("arm-mpu"), 1);
        assert_eq!(r.function_count(""), 3);
    }

    #[test]
    fn trusted_count_requires_all_obligations_trusted() {
        let r = sample_registry();
        assert_eq!(r.trusted_function_count("arm-mpu"), 1);
        assert_eq!(r.trusted_function_count("kernel"), 0);
    }

    #[test]
    fn components_listed_sorted() {
        let r = sample_registry();
        assert_eq!(r.components(), vec!["arm-mpu", "kernel"]);
    }

    #[test]
    fn builtin_safety_obligations_verify_quickly() {
        let mut r = Registry::new();
        r.add_builtin_safety("kernel", &["f1", "f2", "f3"]);
        assert_eq!(r.function_count("kernel"), 3);
        for o in r.obligations() {
            assert!(matches!((o.check)(), CheckResult::Verified { cases: 64 }));
        }
    }

    #[test]
    fn registrations_record_their_site_and_check_crate() {
        let mut r = sample_registry();
        r.add_builtin_safety("kernel", &["f1"]);
        for o in r.obligations() {
            assert_eq!(o.site, "crates/contracts/src/obligation.rs", "{o:?}");
            assert_eq!(o.check_crate, "tt_contracts", "{o:?}");
        }
    }

    #[test]
    fn sites_normalise_on_the_crate_source_tail() {
        for (file, site) in [
            (
                "crates/core/src/obligations.rs",
                "crates/core/src/obligations.rs",
            ),
            (
                "/build/ticktock/crates/core/src/obligations.rs",
                "crates/core/src/obligations.rs",
            ),
            (
                "/w/crates/repo/crates/hw/src/a/b.rs",
                "crates/hw/src/a/b.rs",
            ),
            (
                "crates/bench/tests/incremental.rs",
                "crates/bench/tests/incremental.rs",
            ),
            ("tests/fig12.rs", "tests/fig12.rs"),
            ("/w/mycrates/core/src/a.rs", "/w/mycrates/core/src/a.rs"),
        ] {
            assert_eq!(site_of(file), site, "{file}");
        }
    }

    #[test]
    fn check_result_passed() {
        assert!(CheckResult::Verified { cases: 1 }.passed());
        assert!(CheckResult::Trusted.passed());
        assert!(!CheckResult::Refuted {
            counterexample: "x".into()
        }
        .passed());
    }
}
