//! The audit configuration: `ci/tcb_allowlist.toml`.
//!
//! The allowlist is the machine-readable trusted-computing-base
//! declaration — the paper's §5 `#[trusted]` boundary as a reviewable
//! artifact. The parser covers the TOML subset the file uses (sections,
//! string values, possibly-multiline string arrays, `#` comments); the
//! build is dependency-frozen, so no external TOML crate.
//!
//! Format:
//!
//! ```toml
//! [tcb]
//! # Whole files (the simulated register files) or single functions
//! # ("path::fn_name", the driver commit paths).
//! trusted = [
//!     "crates/hw/src/cortexm/mpu.rs",
//!     "crates/core/src/cortexm.rs::configure_mpu",
//! ]
//!
//! [coverage]
//! files = ["crates/core/src/breaks.rs"]
//!
//! [crosscheck]
//! allow_unregistered = ["svc_handler_to_process_buggy"]
//! allow_dead = []
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Parsed audit configuration.
#[derive(Debug, Clone, Default)]
pub struct AuditConfig {
    /// `[tcb] trusted`: file paths, directory prefixes, or `path::fn`
    /// entries inside which unsafe code and raw register stores may live.
    pub trusted: Vec<String>,
    /// `[coverage] files`: the invariant-bearing modules whose public
    /// mutators must discharge `check_invariants()`.
    pub coverage_files: Vec<String>,
    /// `[crosscheck] allow_unregistered`: contract sites exempt from the
    /// registry cross-check (deliberately-buggy reproductions checked by
    /// the differential rig instead of the verifier).
    pub allow_unregistered: Vec<String>,
    /// `[crosscheck] allow_dead`: registered obligations exempt from the
    /// dead-obligation check.
    pub allow_dead: Vec<String>,
}

/// A parse failure with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the offending construct.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "allowlist line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// The error at `line`.
fn error(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// A section or key name: a non-empty run of `[A-Za-z0-9_.-]`.
fn bare_name(name: &str, line: usize) -> Result<String, ConfigError> {
    let bare = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.');
    if name.is_empty() || !name.bytes().all(bare) {
        return Err(error(line, format!("bad name `{name}`")));
    }
    Ok(name.to_string())
}

/// Parses the TOML subset into section → key → string-list form.
///
/// The subset: `[section]` headers, `key = "entry"` and `key = [...]`
/// arrays of quoted entries (one line or several, trailing `,` allowed),
/// blank lines and `#` comments. Entries have no escapes, so an entry
/// holds no `"`, `\`, `,` or control character; a `,` inside quotes is
/// refused rather than read as a separator or as part of a path. Every
/// error names the line it was found on.
fn parse_sections(
    text: &str,
) -> Result<BTreeMap<String, BTreeMap<String, Vec<String>>>, ConfigError> {
    let mut sections: BTreeMap<String, BTreeMap<String, Vec<String>>> = BTreeMap::new();
    let mut current = String::new();
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(idx, line)| (idx + 1, strip_toml_comment(line)));
    while let Some((line, content)) = lines.next() {
        let trimmed = content.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(header) = trimmed.strip_prefix('[') {
            let name = header
                .strip_suffix(']')
                .ok_or_else(|| error(line, format!("unterminated section header `{trimmed}`")))?;
            current = bare_name(name.trim(), line)?;
            sections.entry(current.clone()).or_default();
            continue;
        }
        let Some((key, value)) = trimmed.split_once('=') else {
            return Err(error(
                line,
                format!("expected `key = value` or `[section]`, got `{trimmed}`"),
            ));
        };
        let key = bare_name(key.trim(), line)?;
        let value = value.trim();
        let items = match value.strip_prefix('[') {
            Some(rest) => parse_array(rest, line, &mut lines)?,
            None => {
                let (entry, rest) = parse_entry(value, line)?;
                if !rest.trim().is_empty() {
                    return Err(error(line, format!("unexpected `{}`", rest.trim())));
                }
                vec![entry]
            }
        };
        if sections
            .entry(current.clone())
            .or_default()
            .insert(key.clone(), items)
            .is_some()
        {
            return Err(error(line, format!("duplicate key `{key}`")));
        }
    }
    Ok(sections)
}

/// Reads an array's entries from `rest` (the text after its `[` on line
/// `line`) and, until the closing `]`, from the following lines.
fn parse_array(
    rest: &str,
    line: usize,
    lines: &mut impl Iterator<Item = (usize, String)>,
) -> Result<Vec<String>, ConfigError> {
    let mut items = Vec::new();
    let mut want_entry = true; // after `[` or `,`
    let (mut at, mut rest) = (line, rest.to_string());
    loop {
        let s = rest.trim_start();
        if s.is_empty() {
            (at, rest) = lines
                .next()
                .ok_or_else(|| error(line, "unterminated array"))?;
            continue;
        }
        let next = if let Some(after) = s.strip_prefix(']') {
            if !after.trim().is_empty() {
                return Err(error(
                    at,
                    format!("unexpected `{}` after `]`", after.trim()),
                ));
            }
            return Ok(items);
        } else if want_entry {
            let (entry, after) = parse_entry(s, at)?;
            items.push(entry);
            after
        } else {
            s.strip_prefix(',')
                .ok_or_else(|| error(at, format!("expected `,` or `]`, got `{s}`")))?
        };
        want_entry = !want_entry;
        rest = next.to_string();
    }
}

/// Reads one quoted entry at the start of `s`: the entry and the text
/// after its closing quote.
fn parse_entry(s: &str, line: usize) -> Result<(String, &str), ConfigError> {
    let body = s
        .strip_prefix('"')
        .ok_or_else(|| error(line, format!("expected a quoted string, got `{s}`")))?;
    let end = body
        .find('"')
        .ok_or_else(|| error(line, format!("unterminated string `{s}`")))?;
    let entry = &body[..end];
    if let Some(c) = entry
        .chars()
        .find(|&c| c == ',' || c == '\\' || c.is_control())
    {
        return Err(error(
            line,
            format!("entry `{entry}` contains {c:?}: entries are paths and names without `,`, `\\` or control characters"),
        ));
    }
    Ok((entry.to_string(), &body[end + 1..]))
}

fn strip_toml_comment(line: &str) -> String {
    // `#` starts a comment unless inside a quoted string.
    let mut out = String::new();
    let mut in_str = false;
    for c in line.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                out.push(c);
            }
            '#' if !in_str => break,
            _ => out.push(c),
        }
    }
    out
}

impl AuditConfig {
    /// Parses a configuration from TOML text.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let sections = parse_sections(text)?;
        let get = |section: &str, key: &str| -> Vec<String> {
            sections
                .get(section)
                .and_then(|s| s.get(key))
                .cloned()
                .unwrap_or_default()
        };
        Ok(Self {
            trusted: get("tcb", "trusted"),
            coverage_files: get("coverage", "files"),
            allow_unregistered: get("crosscheck", "allow_unregistered"),
            allow_dead: get("crosscheck", "allow_dead"),
        })
    }

    /// Loads and parses the configuration file.
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        let text = fs::read_to_string(path).map_err(|e| ConfigError {
            line: 0,
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        Self::parse(&text)
    }

    /// Whether `rel_path` (optionally narrowed to the function `fn_name`)
    /// falls inside the declared trusted computing base.
    pub fn is_trusted(&self, rel_path: &str, fn_name: Option<&str>) -> bool {
        self.trusted.iter().any(|entry| {
            if let Some((path, func)) = entry.split_once("::") {
                path == rel_path && fn_name == Some(func)
            } else {
                rel_path == entry
                    || rel_path.starts_with(&format!("{}/", entry.trim_end_matches('/')))
            }
        })
    }

    /// Whether the whole file is trusted (no function qualifier needed).
    pub fn is_trusted_file(&self, rel_path: &str) -> bool {
        self.trusted.iter().any(|entry| {
            !entry.contains("::")
                && (rel_path == entry
                    || rel_path.starts_with(&format!("{}/", entry.trim_end_matches('/'))))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SAMPLE: &str = r##"
# The TCB declaration.
[tcb]
trusted = [
    "crates/hw/src/cortexm/mpu.rs",          # register file
    "crates/core/src/cortexm.rs::configure_mpu",
    "crates/hw/src/riscv",
]

[coverage]
files = ["crates/core/src/breaks.rs", "crates/core/src/allocator.rs"]

[crosscheck]
allow_unregistered = ["sys_tick_isr_buggy"]
allow_dead = []
"##;

    #[test]
    fn parses_multiline_arrays_with_comments() {
        let c = AuditConfig::parse(SAMPLE).unwrap();
        assert_eq!(c.trusted.len(), 3);
        assert_eq!(c.coverage_files.len(), 2);
        assert_eq!(c.allow_unregistered, vec!["sys_tick_isr_buggy"]);
        assert!(c.allow_dead.is_empty());
    }

    #[test]
    fn trusted_matches_files_functions_and_dir_prefixes() {
        let c = AuditConfig::parse(SAMPLE).unwrap();
        assert!(c.is_trusted("crates/hw/src/cortexm/mpu.rs", None));
        assert!(c.is_trusted("crates/hw/src/cortexm/mpu.rs", Some("anything")));
        assert!(c.is_trusted("crates/core/src/cortexm.rs", Some("configure_mpu")));
        assert!(!c.is_trusted("crates/core/src/cortexm.rs", Some("choose_geometry")));
        assert!(!c.is_trusted("crates/core/src/cortexm.rs", None));
        assert!(c.is_trusted("crates/hw/src/riscv/pmp.rs", None));
        assert!(!c.is_trusted("crates/hw/src/riscv2/pmp.rs", None));
    }

    #[test]
    fn file_level_trust_is_distinct_from_fn_level() {
        let c = AuditConfig::parse(SAMPLE).unwrap();
        assert!(c.is_trusted_file("crates/hw/src/cortexm/mpu.rs"));
        assert!(!c.is_trusted_file("crates/core/src/cortexm.rs"));
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = AuditConfig::parse("[tcb]\nnonsense without equals\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = AuditConfig::parse("[tcb]\ntrusted = [\"a\"").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn missing_sections_default_to_empty() {
        let c = AuditConfig::parse("").unwrap();
        assert!(c.trusted.is_empty() && c.coverage_files.is_empty());
    }

    #[test]
    fn malformed_input_is_a_typed_error_on_its_line() {
        let cases: &[(&str, usize, &str)] = &[
            // A comma inside quotes is not a separator and not a path.
            ("[tcb]\ntrusted = [\n  \"a,b\",\n]\n", 3, "contains ','"),
            ("[tcb]\ntrusted = [\"a\"] x\n", 2, "after `]`"),
            ("[tcb]\ntrusted = [\"a\" \"b\"]\n", 2, "expected `,` or `]`"),
            (
                "[tcb]\ntrusted = [\n  \"a\",\n[coverage]\n",
                4,
                "expected a quoted string",
            ),
            ("[tcb]\ntrusted = [\"a\n", 2, "unterminated string"),
            ("[tcb]\ntrusted = [\n  \"a\",\n", 2, "unterminated array"),
            ("[tcb\n", 1, "unterminated section header"),
            ("[]\n", 1, "bad name"),
            ("[tcb]\nnot a key = []\n", 2, "bad name"),
            ("[tcb]\ntrusted = \"a\" \"b\"\n", 2, "unexpected"),
            ("[tcb]\ntrusted = []\ntrusted = []\n", 3, "duplicate key"),
            ("[tcb]\ntrusted = [\"a\\\\b\"]\n", 2, "contains '\\\\'"),
        ];
        for &(text, line, message) in cases {
            let err = AuditConfig::parse(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            assert!(err.message.contains(message), "{text:?}: {err}");
        }
    }

    /// Renders entry lists in the format the parser reads.
    fn render(c: &AuditConfig) -> String {
        let list = |v: &[String]| -> String {
            v.iter().map(|e| format!("\n    \"{e}\", # note")).collect()
        };
        let line: Vec<String> = c
            .coverage_files
            .iter()
            .map(|e| format!("\"{e}\""))
            .collect();
        format!(
            "# rendered\n[tcb]\ntrusted = [{}\n]\n\n[coverage]\nfiles = [{}]\n\n\
             [crosscheck]\nallow_unregistered = [{}\n]\nallow_dead = [{}\n]\n",
            list(&c.trusted),
            line.join(", "),
            list(&c.allow_unregistered),
            list(&c.allow_dead),
        )
    }

    /// Entry characters: path and name bytes plus the TOML punctuation an
    /// entry may hold inside its quotes.
    fn entry() -> impl Strategy<Value = String> {
        let chars = "abz09_/.:-()[]=# ".chars().collect::<Vec<_>>();
        prop::collection::vec(prop::sample::select(chars), 0..12)
            .prop_map(|cs| cs.into_iter().collect())
    }

    fn entries() -> impl Strategy<Value = Vec<String>> {
        prop::collection::vec(entry(), 0..5)
    }

    /// Fragments of allowlist-shaped text, joined without separators.
    const FRAGMENTS: &[&str] = &[
        "[",
        "]",
        "\"",
        ",",
        "=",
        "#",
        "\n",
        "\r\n",
        " ",
        "\\",
        "\t",
        "tcb",
        "trusted",
        "crosscheck",
        "allow_dead",
        "a/b.rs",
        "::f",
        "é",
        "\u{0}",
        "[tcb]\n",
        "trusted = [",
    ];

    proptest! {
        #[test]
        fn parse_never_panics_and_errors_name_a_line(
            parts in prop::collection::vec(prop::sample::select(FRAGMENTS.to_vec()), 0..40),
        ) {
            let text: String = parts.concat();
            if let Err(e) = AuditConfig::parse(&text) {
                prop_assert!(e.line >= 1 && e.line <= text.lines().count().max(1), "{e}");
            }
        }

        #[test]
        fn rendered_entry_lists_round_trip(
            trusted in entries(),
            files in entries(),
            unregistered in entries(),
            dead in entries(),
        ) {
            let c = AuditConfig {
                trusted,
                coverage_files: files,
                allow_unregistered: unregistered,
                allow_dead: dead,
            };
            let back = AuditConfig::parse(&render(&c)).unwrap();
            prop_assert_eq!(back.trusted, c.trusted);
            prop_assert_eq!(back.coverage_files, c.coverage_files);
            prop_assert_eq!(back.allow_unregistered, c.allow_unregistered);
            prop_assert_eq!(back.allow_dead, c.allow_dead);
        }
    }
}
