//! The shared span/hash layer: lexical Rust source scanning and content
//! hashing, used by both the static auditor (`tt-analysis`) and the
//! incremental verifier ([`crate::vcache`]).
//!
//! The build environment is dependency-frozen (no `syn`), so the scanner is
//! a small line-oriented lexer: it strips comments and string literals with
//! a cross-line state machine, truncates each file at its top-level
//! `#[cfg(test)]` module (test modules sit at the end of every file in this
//! codebase, the same convention `tt_contracts::effort` relies on), and
//! recovers `fn` item spans by brace counting. That is deliberately *not* a
//! full parser: every consumer tolerates over-approximation (a flagged line
//! a human can inspect, a spuriously invalidated cache entry) but never
//! under-approximates — unmatched constructs stay visible rather than
//! vanishing, and a changed function never keeps its old hash.
//!
//! Content hashing is FNV-1a over the *raw* span text (comments included):
//! the incremental verdict cache (`ci/verify_cache.bin`) keys on these
//! hashes, so any textual change to a function — body, signature, contract
//! site, or a `// TRUSTED:` marker — changes its hash and forces
//! re-discharge. Edits past the `#[cfg(test)]` cut do not: test-only churn
//! stays warm.

use std::collections::BTreeMap;

/// A source location in workspace-relative form, printable as `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// One `fn` item recovered by the scanner.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name (the identifier after `fn`).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub start: usize,
    /// 1-based line of the closing brace (inclusive).
    pub end: usize,
    /// Whether the item is `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// Whether the signature takes `&mut self` (a mutator candidate).
    pub takes_mut_self: bool,
    /// Whether a `// TRUSTED:` marker comment precedes the item.
    pub trusted: bool,
    /// Non-blank code lines inside the span.
    pub loc: usize,
}

/// A scanned file: raw lines plus a code-only view (comments and string
/// contents removed) and the recovered `fn` spans.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Original lines, test module excluded.
    pub raw: Vec<String>,
    /// Code-only lines (same indices as `raw`): comments stripped, string
    /// literals replaced by `""`.
    pub code: Vec<String>,
    /// Where each string literal collapsed to `""` opens, in source order:
    /// `(line index, byte offset of its opening quote in raw[line])`. The
    /// k-th `""` on `code[line]` is the k-th entry on that line.
    pub literals: Vec<(usize, usize)>,
    /// Recovered function spans, in order of appearance.
    pub fns: Vec<FnSpan>,
}

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// An incremental FNV-1a hasher for mixing heterogeneous inputs. Each
/// `mix_*` call folds a length/tag first, so `("ab","c")` and `("a","bc")`
/// hash differently.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// Starts a hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    /// Folds one u64 into the state.
    pub fn mix_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a length-prefixed byte string into the state.
    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        self.mix_u64(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a length-prefixed string into the state.
    pub fn mix_str(&mut self, s: &str) {
        self.mix_bytes(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl ScannedFile {
    /// Content hash of one recovered function span: FNV-1a over the raw
    /// lines `start..=end` (newline-joined). Any textual change inside the
    /// span — code, contract site, comment, `// TRUSTED:` marker — changes
    /// the hash.
    pub fn fn_content_hash(&self, f: &FnSpan) -> u64 {
        let mut h = Fnv::new();
        for line in &self.raw[f.start - 1..f.end] {
            h.mix_str(line);
        }
        h.finish()
    }

    /// Content hash of the whole audited view of the file (the raw lines
    /// before the `#[cfg(test)]` cut). Test-module edits do not change it.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for line in &self.raw {
            h.mix_str(line);
        }
        h.finish()
    }
}

/// A content-hash index over a set of scanned files: the source half of
/// every incremental verdict-cache key.
///
/// Obligation names (`"CortexM::allocate_app_mem_region"`,
/// `"encode_permissions(arm)"`) resolve to scanner-recovered `fn` names by
/// their method component; same-named functions across the workspace fold
/// into one combined hash, so a change to *any* of them invalidates (the
/// safe over-approximation). Obligations whose name matches no recovered
/// `fn` anchor to the whole-workspace hash instead: they go stale on any
/// source change, never silently fresh.
#[derive(Debug, Clone, Default)]
pub struct SourceIndex {
    fns: BTreeMap<String, u64>,
    files: BTreeMap<String, u64>,
    workspace_hash: u64,
}

impl SourceIndex {
    /// Builds the index from scanned files.
    pub fn from_files(files: &[ScannedFile]) -> Self {
        let mut fns: BTreeMap<String, Fnv> = BTreeMap::new();
        let mut file_hashes: BTreeMap<String, u64> = BTreeMap::new();
        // Files arrive in workspace-walk order (sorted); iterate
        // deterministically anyway so the combined hashes are stable.
        let mut sorted: Vec<&ScannedFile> = files.iter().collect();
        sorted.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        for file in sorted {
            file_hashes.insert(file.rel_path.clone(), file.content_hash());
            for f in &file.fns {
                let entry = fns.entry(f.name.clone()).or_default();
                entry.mix_str(&file.rel_path);
                entry.mix_u64(file.fn_content_hash(f));
            }
        }
        let mut ws = Fnv::new();
        for (path, hash) in &file_hashes {
            ws.mix_str(path);
            ws.mix_u64(*hash);
        }
        Self {
            fns: fns.into_iter().map(|(k, v)| (k, v.finish())).collect(),
            files: file_hashes,
            workspace_hash: ws.finish(),
        }
    }

    /// Combined content hash of every `fn` with this bare name, if any.
    pub fn fn_hash(&self, name: &str) -> Option<u64> {
        self.fns.get(name).copied()
    }

    /// Content hash of one file's audited view.
    pub fn file_hash(&self, rel_path: &str) -> Option<u64> {
        self.files.get(rel_path).copied()
    }

    /// Hash of the whole indexed source set (paths and contents): changes
    /// when any file changes, appears, or disappears.
    pub fn workspace_hash(&self) -> u64 {
        self.workspace_hash
    }

    /// Resolves an obligation's function name to its source anchor hash.
    ///
    /// Candidates, in order: the full name, the parenthesis-stripped form
    /// (`encode_permissions(arm)` → `encode_permissions`), and the method
    /// half of a `Type::method` path. Unresolvable names anchor to the
    /// workspace hash — stale on any change, never silently fresh.
    pub fn anchor_hash(&self, function: &str) -> u64 {
        let stripped = function.split('(').next().unwrap_or(function);
        let method = stripped.split("::").last().unwrap_or(stripped);
        for cand in [function, stripped, method] {
            if let Some(h) = self.fn_hash(cand) {
                return h;
            }
        }
        self.workspace_hash
    }

    /// Whether `function` resolved to a recovered `fn` span (as opposed to
    /// the whole-workspace fallback anchor).
    pub fn is_anchored(&self, function: &str) -> bool {
        let stripped = function.split('(').next().unwrap_or(function);
        let method = stripped.split("::").last().unwrap_or(stripped);
        [function, stripped, method]
            .iter()
            .any(|c| self.fns.contains_key(*c))
    }
}

/// If a raw-string literal starts at byte `i` of `b` (`r"`, `r#"`,
/// `br#"`, `cr"`, …), returns `(hash_count, content_start)`.
fn raw_string_start(b: &[u8], i: usize) -> Option<(usize, usize)> {
    let boundary = |at: usize| at == 0 || !is_ident_byte(b[at - 1]);
    let mut j = i;
    if (b[j] == b'b' || b[j] == b'c') && j + 1 < b.len() && b[j + 1] == b'r' {
        if !boundary(j) {
            return None;
        }
        j += 1;
    } else if b[j] != b'r' || !boundary(j) {
        return None;
    }
    // `j` is the `r`; count hashes, require an opening quote.
    let mut k = j + 1;
    let mut hashes = 0;
    while k < b.len() && b[k] == b'#' {
        hashes += 1;
        k += 1;
    }
    (k < b.len() && b[k] == b'"').then_some((hashes, k + 1))
}

/// Strips comments and string literals from `text`, preserving line
/// structure. String literals collapse to `""` so that tokens inside them
/// (an `unsafe` in a diagnostic message, a register name in a doc string)
/// never reach the pattern matchers. Handles line and (nested) block
/// comments, plain/byte/C strings, raw strings with any `#` depth and any
/// `b`/`c` prefix (all may span lines), and char literals.
pub fn strip_comments_and_strings(text: &str) -> Vec<String> {
    strip(text).0
}

/// [`strip_comments_and_strings`] plus the literal positions of
/// [`ScannedFile::literals`].
fn strip(text: &str) -> (Vec<String>, Vec<(usize, usize)>) {
    #[derive(PartialEq)]
    enum St {
        Code,
        Block(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let mut state = St::Code;
    let mut out = Vec::new();
    let mut literals = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let b = line.as_bytes();
        let mut kept = String::with_capacity(line.len());
        let mut i = 0;
        while i < b.len() {
            match state {
                St::Code => {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
                        break; // Line comment: rest of line gone.
                    }
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        state = St::Block(1);
                        i += 2;
                        continue;
                    }
                    if let Some((hashes, start)) = raw_string_start(b, i) {
                        literals.push((idx, start - 1));
                        kept.push_str("\"\"");
                        state = St::RawStr(hashes);
                        i = start;
                        continue;
                    }
                    if b[i] == b'"' {
                        literals.push((idx, i));
                        kept.push_str("\"\"");
                        state = St::Str;
                        i += 1;
                        continue;
                    }
                    if b[i] == b'\'' {
                        // Char literal or lifetime. Lifetimes ('a) have an
                        // identifier char right after and no closing quote
                        // within two chars; treat `'x'` and escapes as chars.
                        let is_char = (i + 2 < b.len() && b[i + 2] == b'\'')
                            || (i + 1 < b.len() && b[i + 1] == b'\\');
                        if is_char {
                            kept.push_str("' '");
                            state = St::Char;
                            i += 1;
                            continue;
                        }
                    }
                    kept.push(b[i] as char);
                    i += 1;
                }
                St::Block(depth) => {
                    if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        state = if depth == 1 {
                            St::Code
                        } else {
                            St::Block(depth - 1)
                        };
                        i += 2;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        state = St::Block(depth + 1);
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                St::Str => {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == b'"' {
                        state = St::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                St::RawStr(hashes) => {
                    if b[i] == b'"' {
                        let mut j = i + 1;
                        let mut h = 0;
                        while j < b.len() && b[j] == b'#' && h < hashes {
                            h += 1;
                            j += 1;
                        }
                        if h == hashes {
                            state = St::Code;
                            i = j;
                            continue;
                        }
                    }
                    i += 1;
                }
                St::Char => {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == b'\'' {
                        state = St::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        out.push(kept);
        // A string/char cannot span lines (raw strings and block comments
        // can); reset the simple states at end of line.
        if state == St::Str || state == St::Char {
            state = St::Code;
        }
    }
    (out, literals)
}

/// Finds the test-module cut: the first *top-level* `#[cfg(test)]` item
/// (brace depth 0 in the code view), the repository's end-of-file
/// test-module convention. A `#[cfg(test)]` on a statement *inside* a
/// function body no longer truncates the file (it used to miscount braces
/// for everything after it).
fn test_module_cut(code: &[String]) -> usize {
    let mut depth: i64 = 0;
    for (idx, cl) in code.iter().enumerate() {
        if depth == 0 && cl.trim_start().starts_with("#[cfg(test)]") {
            return idx;
        }
        for ch in cl.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
    }
    code.len()
}

/// Extracts the identifier after `fn ` on a code line, if any.
fn fn_name(code_line: &str) -> Option<String> {
    let at = find_token(code_line, "fn")?;
    let rest = &code_line[at + 2..];
    let rest = rest.trim_start();
    let end = rest
        .bytes()
        .position(|c| !is_ident_byte(c))
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    Some(rest[..end].to_string())
}

/// The scanner's one identifier rule: an identifier is a maximal run of
/// `[A-Za-z0-9_]` bytes. Every other byte, non-ASCII ones included, ends
/// a run.
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds `token` in `line` at identifier boundaries (so `fn` does not match
/// inside `fn_name` or `dyn_fn`).
pub fn find_token(line: &str, token: &str) -> Option<usize> {
    let b = line.as_bytes();
    let mut from = 0;
    while let Some(rel) = line[from..].find(token) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_byte(b[at - 1]);
        let after = at + token.len();
        let after_ok = after >= b.len() || !is_ident_byte(b[after]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Scans one source text into a [`ScannedFile`].
pub fn scan_text(rel_path: &str, text: &str) -> ScannedFile {
    let all_raw: Vec<String> = text.lines().map(str::to_string).collect();
    let (mut all_code, mut literals) = strip(text);
    all_code.resize(all_raw.len(), String::new());
    // The cut is computed on the *stripped* view, so a `#[cfg(test)]`
    // inside a comment or string does not truncate, and only a top-level
    // one (depth 0) does.
    let cut = test_module_cut(&all_code);
    let raw: Vec<String> = all_raw[..cut].to_vec();
    let code: Vec<String> = all_code[..cut].to_vec();
    literals.retain(|&(line, _)| line < cut);

    // Recover fn spans by brace counting from each `fn` keyword.
    let mut fns = Vec::new();
    let mut depth: i64 = 0;
    let mut open: Vec<(String, usize, bool, bool, bool, i64)> = Vec::new();
    let mut pending_trusted = false;
    for (idx, cl) in code.iter().enumerate() {
        let raw_line = raw[idx].trim();
        if (raw_line.starts_with("//") || raw_line.starts_with("/*") || raw_line.starts_with('*'))
            && raw_line.contains("TRUSTED:")
        {
            pending_trusted = true;
        }
        if let Some(name) = fn_name(cl) {
            // The signature may span lines up to the opening brace; a
            // semicolon first means a trait method declaration (no body).
            let mut sig = String::new();
            for s in code.iter().skip(idx) {
                sig.push_str(s);
                sig.push(' ');
                if s.contains('{') || s.contains(';') {
                    break;
                }
            }
            if !sig[..sig.find('{').unwrap_or(sig.len())].contains(';') {
                let is_pub = cl.trim_start().starts_with("pub");
                let mut_self = sig[..sig.find('{').unwrap_or(sig.len())].contains("&mut self");
                open.push((name, idx + 1, is_pub, mut_self, pending_trusted, depth));
            }
            pending_trusted = false;
        }
        for ch in cl.chars() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    // Any fn whose body opened above this depth closes here.
                    while let Some(&(_, _, _, _, _, d)) = open.last() {
                        if depth <= d {
                            let (name, start, is_pub, takes_mut_self, trusted, _) =
                                open.pop().unwrap();
                            let loc = raw[start - 1..=idx]
                                .iter()
                                .filter(|l| !l.trim().is_empty())
                                .count();
                            fns.push(FnSpan {
                                name,
                                start,
                                end: idx + 1,
                                is_pub,
                                takes_mut_self,
                                trusted,
                                loc,
                            });
                        } else {
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    fns.sort_by_key(|f| f.start);
    ScannedFile {
        rel_path: rel_path.to_string(),
        raw,
        code,
        literals,
        fns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
//! Docs mentioning unsafe and write_rbar( in prose.

/// More docs.
pub fn outer(a: usize) -> usize {
    let s = "unsafe in a string";
    let _ = s;
    inner(a)
}

// TRUSTED: hardware commit path.
pub(crate) fn trusted_commit(&mut self) {
    self.x = 1;
}

fn inner(a: usize) -> usize {
    a + 1
}

#[cfg(test)]
mod tests {
    fn invisible() {}
}
"#;

    #[test]
    fn strings_and_comments_are_stripped() {
        let f = scan_text("s.rs", SAMPLE);
        let joined = f.code.join("\n");
        assert!(!joined.contains("unsafe"), "string content must be gone");
        assert!(!joined.contains("write_rbar"), "doc content must be gone");
        assert!(joined.contains("let s = \"\""));
    }

    #[test]
    fn fn_spans_are_recovered_with_attributes() {
        let f = scan_text("s.rs", SAMPLE);
        let names: Vec<&str> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "trusted_commit", "inner"]);
        let outer = &f.fns[0];
        assert!(outer.is_pub && !outer.takes_mut_self && !outer.trusted);
        let trusted = &f.fns[1];
        assert!(trusted.is_pub && trusted.takes_mut_self && trusted.trusted);
        assert!(!f.fns[2].is_pub);
        assert!(outer.end > outer.start);
    }

    #[test]
    fn test_modules_are_excluded() {
        let f = scan_text("s.rs", SAMPLE);
        assert!(f.fns.iter().all(|f| f.name != "invisible"));
        assert!(!f.raw.join("\n").contains("invisible"));
    }

    #[test]
    fn literal_positions_line_up_with_the_code_view() {
        let f = scan_text(
            "s.rs",
            "let a = \"x\"; let b = r#\"y\"#;\nlet c = 'q'; log(\"z\");\n\
             #[cfg(test)]\nmod t { const S: &str = \"gone\"; }\n",
        );
        assert_eq!(f.literals, vec![(0, 8), (0, 23), (1, 17)]);
        for &(line, at) in &f.literals {
            assert_eq!(f.raw[line].as_bytes()[at], b'"');
        }
        assert_eq!(f.code[0].matches("\"\"").count(), 2);
    }

    #[test]
    fn block_comments_span_lines() {
        let f = scan_text("s.rs", "/* a\nunsafe\n*/ fn ok() {}\n");
        assert!(!f.code.join("\n").contains("unsafe"));
        assert_eq!(f.fns.len(), 1);
    }

    #[test]
    fn raw_strings_are_stripped() {
        let code = strip_comments_and_strings("let x = r#\"unsafe \"# ; fn f() {}");
        assert!(!code[0].contains("unsafe"));
        assert!(code[0].contains("fn f()"));
    }

    #[test]
    fn find_token_respects_identifier_boundaries() {
        assert!(find_token("pub fn alloc()", "fn").is_some());
        assert!(find_token("fn_name()", "fn").is_none());
        assert!(find_token("dyn_fn()", "fn").is_none());
        assert_eq!(find_token("unsafe {", "unsafe"), Some(0));
    }

    #[test]
    fn trait_method_declarations_have_no_span() {
        let f = scan_text("s.rs", "trait T {\n    fn decl(&self) -> usize;\n}\n");
        assert!(f.fns.is_empty(), "{:?}", f.fns);
    }

    #[test]
    fn char_literals_do_not_open_strings() {
        let code = strip_comments_and_strings("let c = '\"'; let d = unsafe_marker;");
        assert!(code[0].contains("unsafe_marker"));
    }

    // --- Scanner robustness regressions (incremental-verification PR) ---

    #[test]
    fn multiline_raw_strings_with_braces_do_not_miscount() {
        // The raw string spans three lines and contains unbalanced braces
        // and an `unsafe`; the fn after it must still be recovered.
        let src = "pub fn doc() -> &'static str {\n    r#\"{ { unsafe\n}} } \"inner\"\n\"#\n}\n\nfn after() {}\n";
        let f = scan_text("s.rs", src);
        let names: Vec<&str> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["doc", "after"], "{:?}", f.fns);
        assert!(!f.code.join("\n").contains("unsafe"));
    }

    #[test]
    fn byte_and_c_raw_strings_are_recognized() {
        // `br#"..."#` used to miss the raw-string fast path (the `b`
        // prefix made the `r` look like part of an identifier), letting
        // the inner quote open a plain string and leak `{ unsafe` as code.
        let code = strip_comments_and_strings("let x = br#\"say \"hi\" { unsafe\"#; fn f() {}");
        assert_eq!(code[0], "let x = \"\"; fn f() {}", "{code:?}");
        let code = strip_comments_and_strings("let y = b\"{\"; let z = cr\"}\"; fn g() {}");
        // The `b` prefix of a plain byte string stays as code (harmless);
        // what matters is the literal content (the braces) is gone.
        assert_eq!(
            code[0], "let y = b\"\"; let z = \"\"; fn g() {}",
            "{code:?}"
        );
        // A raw *identifier* (`r#fn`) is not a string start.
        let code = strip_comments_and_strings("let r#fn = 1; other(r#fn);");
        assert!(code[0].contains("other"));
    }

    #[test]
    fn nested_block_comments_with_braces_do_not_miscount() {
        let src = "/* outer { /* inner } unsafe */ still out { */\npub fn live() {}\n";
        let f = scan_text("s.rs", src);
        assert_eq!(f.fns.len(), 1, "{:?}", f.fns);
        assert_eq!(f.fns[0].name, "live");
        // The whole first line is comment: no brace or token survives it.
        assert_eq!(f.code[0].trim(), "");
    }

    #[test]
    fn cfg_test_inside_a_body_does_not_truncate() {
        // A `#[cfg(test)]`-gated *statement* used to cut the file mid-fn,
        // losing the enclosing brace and every fn after it.
        let src = "pub fn gated() {\n    #[cfg(test)]\n    let probe = 1;\n    work();\n}\n\npub fn after() {}\n\n#[cfg(test)]\nmod tests {\n    fn invisible() {}\n}\n";
        let f = scan_text("s.rs", src);
        let names: Vec<&str> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["gated", "after"], "{:?}", f.fns);
        assert_eq!(f.fns[0].end, 5);
    }

    #[test]
    fn cfg_attr_gated_fns_are_recovered() {
        let src = "#[cfg_attr(feature = \"x{y\", inline)]\npub fn attributed() {\n    work();\n}\n\n#[cfg_attr(test, allow(dead_code))]\nfn also_live() {}\n";
        let f = scan_text("s.rs", src);
        let names: Vec<&str> = f.fns.iter().map(|f| f.name.as_str()).collect();
        // `#[cfg_attr(test, ...)]` is not `#[cfg(test)]`: nothing truncates,
        // and the `{` inside the attribute's string literal does not count.
        assert_eq!(names, vec!["attributed", "also_live"], "{:?}", f.fns);
        assert_eq!(f.fns[0].start, 2);
        assert_eq!(f.fns[0].end, 4);
    }

    #[test]
    fn cfg_test_in_comment_or_string_does_not_truncate() {
        let src = "// #[cfg(test)] in a comment\npub fn a() {\n    let s = \"#[cfg(test)]\";\n    let _ = s;\n}\n";
        let f = scan_text("s.rs", src);
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].end, 5);
    }

    // --- Hashing and the source index ---

    #[test]
    fn fn_hashes_change_with_content_and_only_then() {
        let a = scan_text(
            "s.rs",
            "fn f() {\n    one();\n}\n\nfn g() {\n    two();\n}\n",
        );
        let b = scan_text(
            "s.rs",
            "fn f() {\n    one();\n}\n\nfn g() {\n    CHANGED();\n}\n",
        );
        assert_eq!(a.fn_content_hash(&a.fns[0]), b.fn_content_hash(&b.fns[0]));
        assert_ne!(a.fn_content_hash(&a.fns[1]), b.fn_content_hash(&b.fns[1]));
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn test_module_edits_do_not_change_the_content_hash() {
        let a = scan_text(
            "s.rs",
            "fn f() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n",
        );
        let b = scan_text(
            "s.rs",
            "fn f() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() { changed(); }\n}\n",
        );
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn source_index_resolves_obligation_name_forms() {
        let f = scan_text(
            "crates/x/src/lib.rs",
            "pub fn encode_permissions(x: u8) -> u8 { x }\nimpl T {\n    pub fn method_name(&self) {}\n}\n",
        );
        let idx = SourceIndex::from_files(&[f]);
        assert!(idx.is_anchored("encode_permissions(arm)"));
        assert!(idx.is_anchored("Type::method_name"));
        assert!(!idx.is_anchored("no_such_fn_anywhere"));
        assert_eq!(
            idx.anchor_hash("encode_permissions(arm)"),
            idx.fn_hash("encode_permissions").unwrap()
        );
        // Unresolvable names anchor to the workspace hash.
        assert_eq!(idx.anchor_hash("no_such_fn_anywhere"), idx.workspace_hash());
    }

    #[test]
    fn same_named_fns_fold_into_one_combined_hash() {
        let a = scan_text("crates/a/src/lib.rs", "pub fn new() -> A {\n    A\n}\n");
        let b = scan_text("crates/b/src/lib.rs", "pub fn new() -> B {\n    B\n}\n");
        let idx = SourceIndex::from_files(&[a.clone(), b.clone()]);
        let b2 = scan_text("crates/b/src/lib.rs", "pub fn new() -> B {\n    B2\n}\n");
        let idx2 = SourceIndex::from_files(&[a, b2]);
        // Changing either definition changes the combined hash.
        assert_ne!(idx.fn_hash("new"), idx2.fn_hash("new"));
        assert_ne!(idx.workspace_hash(), idx2.workspace_hash());
    }

    #[test]
    fn fnv_mixing_is_length_prefixed() {
        let mut a = Fnv::new();
        a.mix_str("ab");
        a.mix_str("c");
        let mut b = Fnv::new();
        b.mix_str("a");
        b.mix_str("bc");
        assert_ne!(a.finish(), b.finish());
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
    }
}
