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
