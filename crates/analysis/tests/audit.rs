//! End-to-end tests of the `tt-audit` binary: the shipped tree gates
//! green, and a seeded violation in each pass gates red with a
//! `file:line` diagnostic.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tt_audit() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tt-audit"))
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A throwaway workspace with one crate and a minimal allowlist.
struct TempTree {
    root: PathBuf,
}

impl TempTree {
    fn new(tag: &str) -> TempTree {
        let root = std::env::temp_dir().join(format!("tt-audit-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/app/src")).unwrap();
        fs::create_dir_all(root.join("ci")).unwrap();
        TempTree { root }
    }

    fn write(&self, rel: &str, text: &str) -> &Self {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, text).unwrap();
        self
    }

    fn run(&self, extra: &[&str]) -> Output {
        tt_audit()
            .arg("--check")
            .arg("--root")
            .arg(&self.root)
            .args(extra)
            .output()
            .expect("tt-audit runs")
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const EMPTY_CONFIG: &str = "[tcb]\ntrusted = []\n\n[coverage]\nfiles = []\n";

#[test]
fn shipped_tree_gates_green() {
    let out = tt_audit()
        .arg("--check")
        .current_dir(workspace_root())
        .output()
        .expect("tt-audit runs");
    assert!(
        out.status.success(),
        "audit failed on the shipped tree:\n{}",
        stderr_of(&out)
    );
    let stdout = stdout_of(&out);
    assert!(stdout.contains("audit: 0 finding(s)"), "{stdout}");
    assert!(stdout.contains("Total"), "{stdout}");
}

#[test]
fn json_artifact_is_written_and_well_formed() {
    let path = std::env::temp_dir().join(format!("tt-audit-{}-fig10.json", std::process::id()));
    let _ = fs::remove_file(&path);
    let out = tt_audit()
        .arg("--check")
        .arg("--json")
        .arg(&path)
        .output()
        .expect("tt-audit runs");
    assert!(out.status.success(), "{}", stderr_of(&out));
    let doc = fs::read_to_string(&path).expect("json written");
    let _ = fs::remove_file(&path);
    for needle in [
        "\"experiment\": \"fig10\"",
        "\"metrics\"",
        "\"name\": \"Kernel.source_loc\"",
        "\"name\": \"Total.trusted_loc\"",
        "\"failures\": []",
    ] {
        assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
    }
}

#[test]
fn fig10_counts_a_seeded_tree_exactly() {
    let tree = TempTree::new("fig10");
    tree.write("ci/tcb_allowlist.toml", EMPTY_CONFIG)
        .write(
            "crates/kernel/src/lib.rs",
            concat!(
                "//! Kernel.\n",
                "\n",
                "/// Boots.\n",
                "pub fn boot(n: usize) -> usize {\n",
                "    requires!(\"boot\", n > 0);\n",
                "    n + 1\n",
                "}\n",
                "\n",
                "// TRUSTED: the commit path.\n",
                "pub fn commit() {\n",
                "    ensures!(\"commit\", true);\n",
                "}\n",
                "\n",
                "#[cfg(test)]\n",
                "mod tests {\n",
                "    #[test]\n",
                "    fn not_counted() {\n",
                "        requires!(\"not_counted\", true);\n",
                "    }\n",
                "}\n",
            ),
        )
        .write(
            "crates/core/src/region.rs",
            concat!(
                "pub struct Region {\n",
                "    start: usize,\n",
                "}\n",
                "\n",
                "impl Region {\n",
                "    pub fn start(&self) -> usize {\n",
                "        self.start\n",
                "    }\n",
                "}\n",
            ),
        )
        // In no component: counted by no row.
        .write(
            "crates/app/src/lib.rs",
            "pub fn outside() {\n    requires!(\"outside\", true);\n}\n",
        );
    let json = tree.root.join("fig10.json");
    let out = tree.run(&["--pass", "tcb", "--json", json.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let doc = fs::read_to_string(&json).expect("json written");
    assert!(doc.contains("\"experiment\": \"fig10\""), "{doc}");
    let value = |name: &str| -> f64 {
        let line = doc
            .lines()
            .find(|l| l.contains(&format!("\"name\": \"{name}\",")))
            .unwrap_or_else(|| panic!("no {name} in:\n{doc}"));
        let v = line.split("\"value\": ").nth(1).expect("a value");
        v.trim_end_matches([',', '}']).parse().expect("a number")
    };
    // lib.rs: 7 code lines, 2 fns (commit trusted), 2 spec lines, the
    // test module left out; region.rs: 8 code lines, 1 fn.
    assert_eq!(value("Kernel.source_loc"), 15.0);
    assert_eq!(value("Kernel.fns"), 3.0);
    assert_eq!(value("Kernel.trusted_fns"), 1.0);
    assert_eq!(value("Kernel.spec_loc"), 2.0);
    assert_eq!(value("Kernel.trusted_spec_loc"), 1.0);
    assert_eq!(value("Kernel.trusted_loc"), 3.0);
    assert_eq!(value("ARM MPU.source_loc"), 0.0);
    assert_eq!(value("Total.source_loc"), 15.0);
    assert_eq!(value("Total.spec_loc"), 2.0);
    // The audit writes nothing into the tree it reads.
    fs::remove_file(&json).unwrap();
    let ci: Vec<_> = fs::read_dir(tree.root.join("ci"))
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(ci, ["tcb_allowlist.toml"]);
    assert!(stdout_of(&out).contains("Figure 10: Proof Effort"));
}

#[test]
fn a_comment_that_mentions_the_marker_marks_nothing() {
    // Only a line that starts with `// TRUSTED:` marks the next fn
    // trusted; a doc or explanatory comment that merely mentions the
    // marker is an ordinary comment, for Fig. 10 and for the audit.
    let tree = TempTree::new("marker");
    tree.write(
        "ci/tcb_allowlist.toml",
        "[tcb]\ntrusted = []\n\n[coverage]\nfiles = [\"crates/kernel/src/lib.rs\"]\n",
    )
    .write(
        "crates/kernel/src/lib.rs",
        concat!(
            "pub struct Table { len: usize }\n",
            "impl Table {\n",
            "    /// Grows the table; unlike a `// TRUSTED:` fn, it is checked.\n",
            "    pub fn grow(&mut self, n: usize) {\n",
            "        self.len = n;\n",
            "    }\n",
            "    // Mentions TRUSTED: in passing.\n",
            "    pub fn len(&self) -> usize {\n",
            "        self.len\n",
            "    }\n",
            "    // TRUSTED: the register write-out.\n",
            "    pub fn write_out(&mut self) {\n",
            "        self.len = 0;\n",
            "    }\n",
            "}\n",
        ),
    );
    let json = tree.root.join("fig10.json");
    let out = tree.run(&["--pass", "tcb", "--json", json.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let doc = fs::read_to_string(&json).expect("json written");
    assert!(doc.contains("\"name\": \"Kernel.fns\", \"layer\""), "{doc}");
    let trusted = doc
        .lines()
        .find(|l| l.contains("\"name\": \"Kernel.trusted_fns\","))
        .expect("trusted_fns emitted");
    assert!(trusted.contains("\"value\": 1}"), "{trusted}");
    // The coverage pass holds `grow` to its invariant check and lets the
    // marked `write_out` go.
    let out = tree.run(&["--pass", "coverage"]);
    assert!(!out.status.success(), "the doc comment made grow trusted");
    let stderr = stderr_of(&out);
    assert!(stderr.contains("grow"), "{stderr}");
    assert!(!stderr.contains("write_out"), "{stderr}");
}

#[test]
fn cache_flags_are_unknown_arguments() {
    for args in [&["--no-cache"][..], &["--cache", "x.bin"]] {
        let out = tt_audit().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains("unknown argument"), "{args:?}");
    }
}

#[test]
fn seeded_unsafe_block_fails_the_tcb_pass() {
    let tree = TempTree::new("tcb");
    tree.write("ci/tcb_allowlist.toml", EMPTY_CONFIG).write(
        "crates/app/src/lib.rs",
        "pub fn poke(addr: usize) -> u32 {\n    unsafe { core::ptr::read_volatile(addr as *const u32) }\n}\n",
    );
    let out = tree.run(&["--pass", "tcb"]);
    assert!(!out.status.success(), "seeded unsafe gated green");
    let stderr = stderr_of(&out);
    assert!(
        stderr.contains("crates/app/src/lib.rs:2"),
        "no file:line span in:\n{stderr}"
    );
    assert!(stderr.contains("[tcb]"), "{stderr}");
    assert!(stderr.contains("unsafe"), "{stderr}");
}

#[test]
fn allowlisted_unsafe_gates_green() {
    let tree = TempTree::new("tcb-allowed");
    tree.write(
        "ci/tcb_allowlist.toml",
        "[tcb]\ntrusted = [\"crates/app/src/lib.rs\"]\n\n[coverage]\nfiles = []\n",
    )
    .write(
        "crates/app/src/lib.rs",
        "pub fn poke(addr: usize) -> u32 {\n    unsafe { core::ptr::read_volatile(addr as *const u32) }\n}\n",
    );
    let out = tree.run(&["--pass", "tcb"]);
    assert!(
        out.status.success(),
        "allowlisted unsafe still flagged:\n{}",
        stderr_of(&out)
    );
}

#[test]
fn seeded_unchecked_mutator_fails_the_coverage_pass() {
    let tree = TempTree::new("coverage");
    tree.write(
        "ci/tcb_allowlist.toml",
        "[tcb]\ntrusted = []\n\n[coverage]\nfiles = [\"crates/app/src/table.rs\"]\n",
    )
    .write(
        "crates/app/src/table.rs",
        concat!(
            "pub struct Table { len: usize }\n",
            "impl Table {\n",
            "    pub fn grow(&mut self, n: usize) {\n",
            "        self.len = n;\n",
            "    }\n",
            "    pub fn shrink(&mut self, n: usize) {\n",
            "        self.len = n;\n",
            "        self.check_invariants();\n",
            "    }\n",
            "    pub fn check_invariants(&self) {}\n",
            "}\n",
        ),
    );
    let out = tree.run(&["--pass", "coverage"]);
    assert!(!out.status.success(), "unchecked mutator gated green");
    let stderr = stderr_of(&out);
    assert!(stderr.contains("[coverage]"), "{stderr}");
    assert!(stderr.contains("grow"), "{stderr}");
    // The span anchors at the undischarged exit (the closing brace).
    assert!(
        stderr.contains("crates/app/src/table.rs:5"),
        "no file:line span in:\n{stderr}"
    );
    // The discharging mutator next door is not flagged.
    assert!(!stderr.contains("shrink"), "{stderr}");
}

#[test]
fn seeded_unregistered_contract_site_fails_the_crosscheck_pass() {
    let tree = TempTree::new("crosscheck");
    tree.write("ci/tcb_allowlist.toml", EMPTY_CONFIG).write(
        "crates/app/src/lib.rs",
        concat!(
            "pub fn commit(&mut self) {\n",
            "    tt_contracts::invariant!(\"Phantom::commit\", true);\n",
            "}\n",
        ),
    );
    let out = tree.run(&["--pass", "crosscheck"]);
    assert!(!out.status.success(), "unregistered site gated green");
    let stderr = stderr_of(&out);
    assert!(stderr.contains("[crosscheck]"), "{stderr}");
    assert!(stderr.contains("Phantom::commit"), "{stderr}");
    assert!(
        stderr.contains("crates/app/src/lib.rs:2"),
        "no file:line span in:\n{stderr}"
    );
}

#[test]
fn unknown_pass_and_missing_config_exit_2() {
    let out = tt_audit().args(["--pass", "nonsense"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("unknown pass"));

    let missing = Path::new("/nonexistent/allowlist.toml");
    let out = tt_audit()
        .args(["--config", missing.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
}
