//! The one failure corpus, end to end through both gates: `e_fleet` and
//! `e_explore` read the same `failures.bin`, replay every record through
//! the campaign's one replay, print the same summary line, and share
//! one writer rule — still-failing records first, then new failures,
//! each identity once; a clean run leaves the file alone; a corrupt
//! file fails the bin.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use tt_hw::sched::{ArrivalPoint, InterruptSchedule};
use tt_kernel::corpus::{encode_corpus, read_corpus, write_corpus, CorpusRecord};

/// A fresh corpus directory for one bin run.
fn corpus_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tt-corpus-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs one gate bin, small, on the corpus under `dir`.
fn run(bin: &str, dir: &Path) -> Output {
    let (exe, size): (&str, &[&str]) = match bin {
        "e_fleet" => (env!("CARGO_BIN_EXE_e_fleet"), &["--runs", "14"]),
        _ => (
            env!("CARGO_BIN_EXE_e_explore"),
            &["--seeds", "0", "--planted-seeds", "0", "--cap", "4"],
        ),
    };
    Command::new(exe)
        .args(size)
        .arg("--corpus")
        .arg(dir)
        .output()
        .unwrap()
}

/// A hand-written corpus: one v1 seed record, one v2 schedule record.
fn passing() -> [CorpusRecord; 2] {
    let schedule = InterruptSchedule::single(ArrivalPoint::SyscallEnter, 1).id();
    [
        CorpusRecord {
            chip: 1,
            cold: true,
            seed: 5,
            failures: 1,
            ..CorpusRecord::default()
        },
        CorpusRecord {
            chip: 4,
            clean: true,
            schedule,
            failures: 1,
            ..CorpusRecord::default()
        },
    ]
}

#[test]
fn both_gates_replay_the_corpus_and_leave_a_passing_one_alone() {
    for bin in ["e_fleet", "e_explore"] {
        let dir = corpus_dir(&format!("pass-{bin}"));
        let path = dir.join("failures.bin");
        write_corpus(&path, &passing()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let out = run(bin, &dir);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{bin}: {out:?}");
        assert!(
            stdout.contains("corpus: 2 replayed, 0 still failing"),
            "{bin}: {stdout}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "{bin} rewrote it");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn both_gates_keep_only_what_still_fails() {
    // A chip index no campaign has fails its replay with one line; the
    // passing records drop out of the rewritten file.
    let stale = CorpusRecord {
        chip: 200,
        seed: 1,
        ..CorpusRecord::default()
    };
    let [a, b] = passing();
    for bin in ["e_fleet", "e_explore"] {
        let dir = corpus_dir(&format!("keep-{bin}"));
        let path = dir.join("failures.bin");
        write_corpus(&path, &[a, stale, b, stale]).unwrap();
        let out = run(bin, &dir);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("corpus: 4 replayed, 2 still failing"),
            "{bin}: {stdout}"
        );
        assert_eq!(read_corpus(&path).unwrap(), [stale], "{bin}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_corrupt_corpus_fails_both_gates() {
    let mut bytes = encode_corpus(&passing());
    bytes.pop();
    for bin in ["e_fleet", "e_explore"] {
        let dir = corpus_dir(&format!("corrupt-{bin}"));
        std::fs::write(dir.join("failures.bin"), &bytes).unwrap();
        let out = run(bin, &dir);
        assert!(!out.status.success(), "{bin}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("corrupt corpus"), "{bin}: {stderr}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
