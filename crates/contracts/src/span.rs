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
//!
//! Every fact derived from a file's text is derived once, by
//! [`scan_text`]: the file and `fn` content hashes and an
//! identifier-occurrence table over the code view. A [`ScannedFile`] is
//! immutable afterwards (its text fields are read through accessors), so
//! the stored facts always describe the stored text; a changed file is
//! rescanned, never patched. Workspace-wide consumers fold the stored
//! hashes ([`SourceIndex::from_files`]) and look tokens up
//! ([`ScannedFile::occurrences`]) instead of re-walking every line.

use std::collections::BTreeMap;

use crate::effort::is_trusted_marker;

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
    /// FNV content hash of the raw lines `start..=end`, computed by
    /// [`scan_text`]; read it through [`ScannedFile::fn_content_hash`].
    content_hash: u64,
    name_key: u64,
}

impl FnSpan {
    /// FNV-1a of [`name`](Self::name), computed by [`scan_text`]: a set
    /// of names can be built and probed by key, reading a name's text
    /// only to confirm a key match.
    pub fn name_key(&self) -> u64 {
        self.name_key
    }
}

/// A scanned file: raw lines plus a code-only view (comments and string
/// contents removed), the recovered `fn` spans, and the facts derived from
/// them at scan time (content hashes, identifier occurrences). Built only
/// by [`scan_text`] and immutable afterwards.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Recovered function spans, in order of appearance.
    pub fns: Vec<FnSpan>,
    raw: Lines,
    code: Lines,
    literals: Vec<(usize, usize)>,
    content_hash: u64,
    idents: Idents,
}

/// The lines of one view of a file, held in one buffer rather than one
/// allocation per line. Index it like a slice of lines: `lines[i]` is
/// line `i` without its line terminator.
#[derive(Debug, Clone, Default)]
pub struct Lines {
    text: String,
    /// Each line's byte range in `text`.
    ranges: Vec<(usize, usize)>,
}

impl Lines {
    /// The number of lines.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether there are no lines.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The lines, in order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &str> + ExactSizeIterator + '_ {
        self.range(0..self.len())
    }

    /// The lines with indices in `lines`, in order.
    pub fn range(
        &self,
        lines: std::ops::Range<usize>,
    ) -> impl DoubleEndedIterator<Item = &str> + ExactSizeIterator + '_ {
        self.ranges[lines]
            .iter()
            .map(|&(from, to)| &self.text[from..to])
    }

    /// Ends the line that started at byte `from` of the buffer.
    fn end_line(&mut self, from: usize) {
        self.ranges.push((from, self.text.len()));
    }

    /// Keeps the first `n` lines.
    fn truncate(&mut self, n: usize) {
        if n < self.len() {
            self.text.truncate(self.ranges[n].0);
            self.ranges.truncate(n);
        }
    }
}

impl std::ops::Index<usize> for Lines {
    type Output = str;

    fn index(&self, line: usize) -> &str {
        let (from, to) = self.ranges[line];
        &self.text[from..to]
    }
}

/// "No occurrence" in an [`Idents`] link.
const NONE: u32 = u32::MAX;

/// One file's identifier-occurrence table: every identifier token of the
/// code view in source order, each linked to the next occurrence of the
/// same FNV-1a key, and an open-addressing hash table from each key to
/// its first and last occurrence. Two flat vectors, no allocation per
/// identifier; a key is only a candidate, confirmed against the code line.
/// An inline Bloom filter answers most lookups of an absent token without
/// touching either vector.
#[derive(Debug, Clone)]
struct Idents {
    /// Two bits per key ([`filter_bits`]) of 1024.
    filter: [u64; 16],
    /// `(key, first occurrence, last occurrence)`, `NONE` first when
    /// empty; a power of two long, at most half full.
    slots: Vec<(u64, u32, u32)>,
    /// log2 of `slots.len()`.
    bits: u32,
    /// `(line index, byte offset, next occurrence of the same key)`.
    occ: Vec<(u32, u32, u32)>,
}

impl Idents {
    fn build(code: &Lines) -> Self {
        let mut table = Idents {
            filter: [0; 16],
            slots: vec![(0, NONE, NONE); 64],
            bits: 6,
            occ: Vec::new(),
        };
        let mut used = 0;
        for (line, cl) in code.iter().enumerate() {
            for (at, tok) in tokens(cl) {
                let key = fnv1a(tok.as_bytes());
                let this = narrow(table.occ.len());
                table.occ.push((narrow(line), narrow(at), NONE));
                let slot = table.slot(key);
                let (_, first, last) = table.slots[slot];
                if first == NONE {
                    for bit in filter_bits(key) {
                        table.filter[bit / 64] |= 1 << (bit % 64);
                    }
                    table.slots[slot] = (key, this, this);
                    used += 1;
                    if 2 * used > table.slots.len() {
                        table.grow();
                    }
                } else {
                    table.occ[last as usize].2 = this;
                    table.slots[slot].2 = this;
                }
            }
        }
        table
    }

    /// The slot holding `key`, or the empty slot where it would go.
    fn slot(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - self.bits)) as usize;
        while self.slots[i].1 != NONE && self.slots[i].0 != key {
            i = (i + 1) & mask;
        }
        i
    }

    fn grow(&mut self) {
        self.bits += 1;
        let old = std::mem::replace(&mut self.slots, vec![(0, NONE, NONE); 1 << self.bits]);
        for entry in old.into_iter().filter(|e| e.1 != NONE) {
            let slot = self.slot(entry.0);
            self.slots[slot] = entry;
        }
    }

    /// Every occurrence keyed `key`, as `(line, offset)` in source order.
    fn chain(&self, key: u64) -> impl Iterator<Item = (usize, usize)> + '_ {
        let present = filter_bits(key)
            .iter()
            .all(|&bit| self.filter[bit / 64] & (1 << (bit % 64)) != 0);
        let mut next = if present {
            self.slots[self.slot(key)].1
        } else {
            NONE
        };
        std::iter::from_fn(move || {
            let (line, at, after) = *self.occ.get(next as usize)?;
            next = after;
            Some((line as usize, at as usize))
        })
    }
}

/// A line index, byte offset or occurrence index as an [`Idents`] entry.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("a scanned source file is under 4 GiB")
}

/// The two [`Idents`] filter bits of `key`.
fn filter_bits(key: u64) -> [usize; 2] {
    let mixed = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    [(mixed >> 54) as usize, ((mixed >> 44) & 1023) as usize]
}

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fold(FNV_OFFSET, bytes)
}

/// Folds `bytes` into the FNV-1a state `hash`.
fn fold(mut hash: u64, bytes: &[u8]) -> u64 {
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
        self.0 = fold(self.0, &v.to_le_bytes());
    }

    /// Folds a length-prefixed byte string into the state.
    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        self.mix_u64(bytes.len() as u64);
        self.0 = fold(self.0, bytes);
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

/// FNV-1a as a [`std::hash::Hasher`], for hash sets of short strings:
/// `HashSet<&str, BuildHasherDefault<Fnv>>`.
impl std::hash::Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fold(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV content hash of a run of raw lines: each line length-prefixed.
fn hash_lines<'a>(lines: impl Iterator<Item = &'a str>) -> u64 {
    let mut h = Fnv::new();
    for line in lines {
        h.mix_str(line);
    }
    h.finish()
}

impl ScannedFile {
    /// Original lines, test module excluded.
    pub fn raw(&self) -> &Lines {
        &self.raw
    }

    /// Code-only lines (same indices as [`raw`](Self::raw)): comments
    /// stripped, string literals replaced by `""`.
    pub fn code(&self) -> &Lines {
        &self.code
    }

    /// Where each string literal collapsed to `""` opens, in source order:
    /// `(line index, byte offset of its opening quote in raw[line])`. The
    /// k-th `""` on `code[line]` is the k-th entry on that line.
    pub fn literals(&self) -> &[(usize, usize)] {
        &self.literals
    }

    /// Content hash of one recovered function span: FNV over the raw
    /// lines `start..=end`. Any textual change inside the span — code,
    /// contract site, comment, `// TRUSTED:` marker — changes the hash.
    pub fn fn_content_hash(&self, f: &FnSpan) -> u64 {
        f.content_hash
    }

    /// Content hash of the whole audited view of the file (the raw lines
    /// before the `#[cfg(test)]` cut). Test-module edits do not change it.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Where the identifier `tok` occurs in the code view, as `(line
    /// index, byte offset)` in line order: exactly the positions at which
    /// [`tokens`] yields `tok`.
    pub fn occurrences<'a>(&'a self, tok: &'a str) -> impl Iterator<Item = (usize, usize)> + 'a {
        self.occurrences_in(tok, 0..self.code.len())
    }

    /// [`occurrences`](Self::occurrences) restricted to the line indices
    /// in `lines`.
    pub fn occurrences_in<'a>(
        &'a self,
        tok: &'a str,
        lines: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let (start, end) = (lines.start, lines.end);
        self.idents
            .chain(fnv1a(tok.as_bytes()))
            .skip_while(move |&(line, _)| line < start)
            .take_while(move |&(line, _)| line < end)
            // A key is only a candidate: the token starting at the
            // recorded offset must be `tok` itself.
            .filter(move |&(line, at)| token_at(&self.code[line], at) == tok)
    }

    /// Whether the identifier `tok` occurs anywhere in the code view.
    pub fn has_token(&self, tok: &str) -> bool {
        self.occurrences(tok).next().is_some()
    }
}

/// The identifier token starting at byte `at` of `line`.
fn token_at(line: &str, at: usize) -> &str {
    let rest = &line.as_bytes()[at..];
    let len = rest
        .iter()
        .position(|&c| !is_ident_byte(c))
        .unwrap_or(rest.len());
    &line[at..at + len]
}

/// One workspace crate under `crates/`, as its `Cargo.toml` declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkspaceCrate {
    /// The library name (`ticktock`, `tt_fluxarm`): the leading segment of
    /// the type names of the items it defines.
    pub lib: &'static str,
    /// Its directory under `crates/`; its sources are
    /// `crates/<dir>/src/**/*.rs`.
    pub dir: &'static str,
    /// The `dir`s of the workspace crates its `[dependencies]` name.
    pub deps: &'static [&'static str],
}

/// The workspace crates and their dependency edges, which
/// [`SourceIndex::from_files`] closes transitively. Code compiled in a
/// crate can only call into that crate and its transitive dependencies
/// (std and the vendored shims are outside the index; the verdict cache's
/// config hash covers the toolchain). A test checks this table against
/// every `crates/*/Cargo.toml`.
pub const WORKSPACE_CRATES: &[WorkspaceCrate] = &[
    WorkspaceCrate {
        lib: "tt_contracts",
        dir: "contracts",
        deps: &[],
    },
    WorkspaceCrate {
        lib: "tt_hw",
        dir: "hw",
        deps: &["contracts"],
    },
    WorkspaceCrate {
        lib: "tt_fluxarm",
        dir: "fluxarm",
        deps: &["contracts", "hw"],
    },
    WorkspaceCrate {
        lib: "tt_legacy",
        dir: "legacy",
        deps: &["contracts", "hw"],
    },
    WorkspaceCrate {
        lib: "ticktock",
        dir: "core",
        deps: &["contracts", "hw"],
    },
    WorkspaceCrate {
        lib: "tt_kernel",
        dir: "kernel",
        deps: &["contracts", "hw", "fluxarm", "legacy", "core"],
    },
    WorkspaceCrate {
        lib: "tt_analysis",
        dir: "analysis",
        deps: &["contracts", "hw", "fluxarm", "legacy", "core", "kernel"],
    },
    WorkspaceCrate {
        lib: "tt_bench",
        dir: "bench",
        deps: &[
            "contracts",
            "hw",
            "fluxarm",
            "legacy",
            "core",
            "kernel",
            "analysis",
        ],
    },
];

/// The position in [`WORKSPACE_CRATES`] of the crate whose sources hold
/// `path` (`crates/<dir>/src/…`), if any.
pub fn crate_of(path: &str) -> Option<usize> {
    let (dir, rest) = path.strip_prefix("crates/")?.split_once('/')?;
    if !rest.starts_with("src/") {
        return None;
    }
    WORKSPACE_CRATES.iter().position(|c| c.dir == dir)
}

/// Each crate's transitive dependency closure, itself included, as a bit
/// set over [`WORKSPACE_CRATES`] positions.
pub fn crate_closures() -> Vec<u64> {
    let position = |dir: &str| WORKSPACE_CRATES.iter().position(|c| c.dir == dir);
    let mut closures: Vec<u64> = (0..WORKSPACE_CRATES.len()).map(|i| 1 << i).collect();
    // Each round adds one more edge of every path; a path has fewer edges
    // than there are crates.
    for _ in 0..WORKSPACE_CRATES.len() {
        for (i, c) in WORKSPACE_CRATES.iter().enumerate() {
            for dep in c.deps.iter().filter_map(|d| position(d)) {
                closures[i] |= closures[dep];
            }
        }
    }
    closures
}

/// A content-hash index over a set of scanned files: the source half of
/// every incremental verdict-cache key.
///
/// Obligation names (`"CortexM::allocate_app_mem_region"`,
/// `"encode_permissions(arm)"`) resolve to scanner-recovered `fn` names by
/// their method component; same-named functions across the workspace fold
/// into one combined hash, so a change to *any* of them invalidates (the
/// safe over-approximation). For obligations whose name matches no
/// recovered `fn`, the index holds one hash per workspace crate over the
/// files of its dependency closure ([`closure_hash`](Self::closure_hash))
/// and the whole-workspace hash ([`workspace_hash`](Self::workspace_hash)).
#[derive(Debug, Clone, Default)]
pub struct SourceIndex {
    /// One entry per distinct `fn` name: its FNV-1a key, its byte range
    /// in `names`, and the combined hash of every `fn` so named; sorted
    /// by key.
    fns: Vec<(u64, usize, usize, u64)>,
    names: String,
    files: BTreeMap<String, u64>,
    workspace_hash: u64,
    /// Per [`WORKSPACE_CRATES`] entry, the hash of the indexed files of
    /// its dependency closure; empty for the empty index.
    closures: Vec<u64>,
}

impl SourceIndex {
    /// Builds the index from scanned files by folding the content hashes
    /// [`scan_text`] stored in them: same-named functions fold in path
    /// order, grouped by their names' scan-time keys.
    pub fn from_files(files: &[ScannedFile]) -> Self {
        // Files arrive in workspace-walk order (sorted); iterate
        // deterministically anyway so the combined hashes are stable.
        let mut sorted: Vec<&ScannedFile> = files.iter().collect();
        sorted.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        let mut all: Vec<(u64, &str, &str, u64)> = sorted
            .iter()
            .flat_map(|file| {
                file.fns.iter().map(|f| {
                    (
                        f.name_key,
                        f.name.as_str(),
                        file.rel_path.as_str(),
                        f.content_hash,
                    )
                })
            })
            .collect();
        // Stable: each name's functions stay in path order.
        all.sort_by_key(|&(key, ..)| key);
        let mut index = Self::default();
        let mut folded = Vec::new();
        for group in all.chunk_by(|a, b| a.0 == b.0) {
            // Names sharing a key (a hash collision) fold separately.
            folded.clear();
            folded.resize(group.len(), false);
            for first in 0..group.len() {
                if folded[first] {
                    continue;
                }
                let (key, name, ..) = group[first];
                let mut h = Fnv::new();
                for (done, &(_, other, path, hash)) in folded.iter_mut().zip(group).skip(first) {
                    if !*done && other == name {
                        *done = true;
                        h.mix_str(path);
                        h.mix_u64(hash);
                    }
                }
                let from = index.names.len();
                index.names.push_str(name);
                index.fns.push((key, from, index.names.len(), h.finish()));
            }
        }
        let mut ws = Fnv::new();
        for file in sorted {
            index.files.insert(file.rel_path.clone(), file.content_hash);
        }
        let mut crates = vec![Fnv::new(); WORKSPACE_CRATES.len()];
        for (path, hash) in &index.files {
            ws.mix_str(path);
            ws.mix_u64(*hash);
            if let Some(c) = crate_of(path) {
                crates[c].mix_str(path);
                crates[c].mix_u64(*hash);
            }
        }
        index.workspace_hash = ws.finish();
        index.closures = crate_closures()
            .into_iter()
            .map(|members| {
                let mut h = Fnv::new();
                for (c, crate_hash) in crates.iter().enumerate() {
                    if members & (1 << c) != 0 {
                        h.mix_u64(crate_hash.finish());
                    }
                }
                h.finish()
            })
            .collect();
        index
    }

    /// Combined content hash of every `fn` with this bare name, if any.
    pub fn fn_hash(&self, name: &str) -> Option<u64> {
        let key = fnv1a(name.as_bytes());
        let from = self.fns.partition_point(|e| e.0 < key);
        self.fns[from..]
            .iter()
            .take_while(|e| e.0 == key)
            .find(|e| &self.names[e.1..e.2] == name)
            .map(|e| e.3)
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

    /// Hash of the indexed files of the dependency closure of the crate
    /// whose sources hold `site` (`crates/<dir>/src/…`): changes when any
    /// file of those crates changes, appears or disappears, and only
    /// then. `None` when `site` lies in no [`WORKSPACE_CRATES`] entry.
    pub fn closure_hash(&self, site: &str) -> Option<u64> {
        self.closures.get(crate_of(site)?).copied()
    }

    /// Resolves an obligation's function name to the combined hash of the
    /// `fn` spans it names, if it names any.
    ///
    /// Candidates, in order: the full name, the parenthesis-stripped form
    /// (`encode_permissions(arm)` → `encode_permissions`), and the method
    /// half of a `Type::method` path.
    pub fn fn_anchor(&self, function: &str) -> Option<u64> {
        let stripped = function.split('(').next().unwrap_or(function);
        let method = stripped.split("::").last().unwrap_or(stripped);
        [function, stripped, method]
            .into_iter()
            .find_map(|cand| self.fn_hash(cand))
    }

    /// [`fn_anchor`](Self::fn_anchor), falling back to the workspace hash
    /// for a name that resolves to no `fn`.
    pub fn anchor_hash(&self, function: &str) -> u64 {
        self.fn_anchor(function).unwrap_or(self.workspace_hash)
    }

    /// Whether `function` resolved to a recovered `fn` span.
    pub fn is_anchored(&self, function: &str) -> bool {
        self.fn_anchor(function).is_some()
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
    strip(text).0.iter().map(str::to_string).collect()
}

/// [`strip_comments_and_strings`] plus the literal positions of
/// [`ScannedFile::literals`].
fn strip(text: &str) -> (Lines, Vec<(usize, usize)>) {
    #[derive(PartialEq)]
    enum St {
        Code,
        Block(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let mut state = St::Code;
    let mut out = Lines {
        text: String::with_capacity(text.len()),
        ranges: Vec::new(),
    };
    let mut literals = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let b = line.as_bytes();
        let from = out.text.len();
        let kept = &mut out.text;
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
        out.end_line(from);
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
fn test_module_cut(code: &Lines) -> usize {
    let mut depth: i64 = 0;
    for (idx, cl) in code.iter().enumerate() {
        if depth == 0 && cl.trim_start().starts_with("#[cfg(test)]") {
            return idx;
        }
        for &c in cl.as_bytes() {
            match c {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
        }
    }
    code.len()
}

/// The identifier after the `fn` token at byte `at` of a code line, if
/// any.
fn fn_name(code_line: &str, at: usize) -> Option<String> {
    let rest = code_line[at + 2..].trim_start();
    let end = rest
        .bytes()
        .position(|c| !is_ident_byte(c))
        .unwrap_or(rest.len());
    (end > 0).then(|| rest[..end].to_string())
}

/// The first `count` lines of `text`, as [`str::lines`] splits them.
fn raw_lines(text: &str, count: usize) -> Lines {
    let base = text.as_ptr() as usize;
    let ranges: Vec<(usize, usize)> = text
        .lines()
        .take(count)
        .map(|line| {
            let from = line.as_ptr() as usize - base;
            (from, from + line.len())
        })
        .collect();
    let end = ranges.last().map_or(0, |&(_, to)| to);
    Lines {
        text: text[..end].to_string(),
        ranges,
    }
}

/// The scanner's one identifier rule: an identifier is a maximal run of
/// `[A-Za-z0-9_]` bytes. Every other byte, non-ASCII ones included, ends
/// a run.
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The identifier tokens of one code line with their byte offsets: its
/// maximal runs of [`is_ident_byte`] bytes (`[A-Za-z0-9_]`), left to
/// right. A token starts exactly where [`find_token`] accepts a match.
/// [`ScannedFile::occurrences`] answers from a table of these.
pub fn tokens(line: &str) -> impl Iterator<Item = (usize, &str)> {
    let b = line.as_bytes();
    let mut at = 0;
    std::iter::from_fn(move || {
        let start = at + b[at..].iter().position(|&c| is_ident_byte(c))?;
        let len = b[start..].iter().position(|&c| !is_ident_byte(c));
        at = len.map_or(b.len(), |n| start + n);
        Some((start, &line[start..at]))
    })
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

/// Scans one source text into a [`ScannedFile`], deriving its content
/// hashes and identifier-occurrence table.
pub fn scan_text(rel_path: &str, text: &str) -> ScannedFile {
    let (mut code, mut literals) = strip(text);
    // The cut is computed on the *stripped* view, so a `#[cfg(test)]`
    // inside a comment or string does not truncate, and only a top-level
    // one (depth 0) does.
    let cut = test_module_cut(&code);
    code.truncate(cut);
    literals.truncate(literals.partition_point(|&(line, _)| line < cut));
    let raw = raw_lines(text, cut);
    let idents = Idents::build(&code);

    // Recover fn spans by brace counting from each `fn` keyword: the
    // first `fn` token of a line, in line order.
    let mut fn_tokens = idents
        .chain(fnv1a(b"fn"))
        .filter(|&(line, at)| token_at(&code[line], at) == "fn")
        .peekable();
    let mut fns = Vec::new();
    let mut depth: i64 = 0;
    let mut open: Vec<(String, usize, bool, bool, bool, i64)> = Vec::new();
    let mut pending_trusted = false;
    for (idx, cl) in code.iter().enumerate() {
        pending_trusted |= is_trusted_marker(&raw[idx]);
        let mut fn_at = None;
        while let Some(&(line, at)) = fn_tokens.peek().filter(|&&(line, _)| line <= idx) {
            fn_at = fn_at.or((line == idx).then_some(at));
            fn_tokens.next();
        }
        if let Some(name) = fn_at.and_then(|at| fn_name(cl, at)) {
            // The signature may span lines up to the opening brace; a
            // semicolon first means a trait method declaration (no body).
            let mut sig = String::new();
            for s in code.range(idx..code.len()) {
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
        for &c in cl.as_bytes() {
            match c {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    // Any fn whose body opened above this depth closes here.
                    while let Some(&(_, _, _, _, _, d)) = open.last() {
                        if depth <= d {
                            let (name, start, is_pub, takes_mut_self, trusted, _) =
                                open.pop().unwrap();
                            let span = start - 1..idx + 1;
                            fns.push(FnSpan {
                                name_key: fnv1a(name.as_bytes()),
                                name,
                                start,
                                end: idx + 1,
                                is_pub,
                                takes_mut_self,
                                trusted,
                                loc: raw
                                    .range(span.clone())
                                    .filter(|l| !l.trim().is_empty())
                                    .count(),
                                content_hash: hash_lines(raw.range(span)),
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
    drop(fn_tokens);
    fns.sort_by_key(|f| f.start);
    ScannedFile {
        rel_path: rel_path.to_string(),
        fns,
        content_hash: hash_lines(raw.iter()),
        raw,
        code,
        literals,
        idents,
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

    fn joined(lines: &Lines) -> String {
        lines.iter().collect::<Vec<_>>().join("\n")
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let f = scan_text("s.rs", SAMPLE);
        let joined = joined(&f.code);
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
        assert!(!joined(&f.raw).contains("invisible"));
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
        assert!(!joined(&f.code).contains("unsafe"));
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
        assert!(!joined(&f.code).contains("unsafe"));
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
    fn closure_hashes_change_with_the_files_of_their_closure_only() {
        let tree = |hw: &str, kernel: &str| {
            SourceIndex::from_files(&[
                scan_text("crates/hw/src/lib.rs", hw),
                scan_text("crates/kernel/src/lib.rs", kernel),
                scan_text("src/lib.rs", "pub fn root() {}\n"),
            ])
        };
        let base = tree("fn a() {}\n", "fn b() {}\n");
        let hw_edit = tree("fn a() { 1; }\n", "fn b() {}\n");
        let kernel_edit = tree("fn a() {}\n", "fn b() { 1; }\n");
        let fluxarm = "crates/fluxarm/src/contracts.rs";
        // fluxarm's closure holds hw but not kernel; kernel's holds both.
        assert_ne!(base.closure_hash(fluxarm), hw_edit.closure_hash(fluxarm));
        assert_eq!(
            base.closure_hash(fluxarm),
            kernel_edit.closure_hash(fluxarm)
        );
        let kernel = "crates/kernel/src/explore.rs";
        assert_ne!(base.closure_hash(kernel), hw_edit.closure_hash(kernel));
        assert_ne!(base.closure_hash(kernel), kernel_edit.closure_hash(kernel));
        // A site in no table crate has no closure hash.
        for site in ["src/lib.rs", "crates/x/src/lib.rs", "crates/hw/tests/t.rs"] {
            assert_eq!(base.closure_hash(site), None, "{site}");
        }
        assert_eq!(SourceIndex::default().closure_hash(fluxarm), None);
    }

    #[test]
    fn crate_closures_are_transitive() {
        let dirs = |i: usize| -> Vec<&str> {
            let closure = crate_closures()[i];
            WORKSPACE_CRATES
                .iter()
                .enumerate()
                .filter(|&(c, _)| closure & (1 << c) != 0)
                .map(|(_, c)| c.dir)
                .collect()
        };
        let at = |dir: &str| WORKSPACE_CRATES.iter().position(|c| c.dir == dir).unwrap();
        assert_eq!(dirs(at("fluxarm")), ["contracts", "hw", "fluxarm"]);
        assert_eq!(dirs(at("contracts")), ["contracts"]);
        assert_eq!(dirs(at("bench")).len(), WORKSPACE_CRATES.len());
    }

    // --- The identifier-occurrence table ---

    /// Code fragments, ASCII and not, joined without separators so that
    /// tokens merge and split at every boundary.
    const FRAGMENTS: &[&str] = &[
        "a", "ab", "x1", "fn", "mut", "_", "0", " ", ".", "*", "(", "é", "日本", "ß_", "\"s\"",
        "// c", "{", "}", "\n",
    ];

    fn walked(f: &ScannedFile, tok: &str) -> Vec<(usize, usize)> {
        f.code
            .iter()
            .enumerate()
            .flat_map(|(line, code)| {
                tokens(code)
                    .filter(move |&(_, t)| t == tok)
                    .map(move |(at, _)| (line, at))
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn occurrences_equal_the_token_walk(
            parts in proptest::collection::vec(proptest::sample::select(FRAGMENTS.to_vec()), 0..48),
            from in 0usize..6,
            len in 0usize..6,
        ) {
            let f = scan_text("s.rs", &parts.concat());
            for tok in ["a", "ab", "x1", "fn", "mut", "_", "0", "ß_", "é", "", "ab c", "s"] {
                let all = walked(&f, tok);
                proptest::prop_assert_eq!(f.occurrences(tok).collect::<Vec<_>>(), all.clone(), "{:?}", tok);
                let range = from..from + len;
                let inside: Vec<(usize, usize)> =
                    all.into_iter().filter(|(line, _)| range.contains(line)).collect();
                proptest::prop_assert_eq!(f.occurrences_in(tok, range).collect::<Vec<_>>(), inside);
            }
            for (line, code) in f.code.iter().enumerate() {
                for (at, tok) in tokens(code) {
                    proptest::prop_assert!(f.occurrences(tok).any(|o| o == (line, at)), "{:?}", tok);
                }
            }
        }
    }

    #[test]
    fn the_table_grows_past_its_first_size() {
        let text: String = (0..2000)
            .map(|i| format!("let v{} = w{};\n", i % 700, i))
            .collect();
        let f = scan_text("s.rs", &text);
        assert_eq!(f.occurrences("v5").count(), 3);
        assert_eq!(
            f.occurrences("w1999").collect::<Vec<_>>(),
            vec![(1999, 4 + 4 + 3)]
        );
        assert_eq!(f.occurrences("let").count(), 2000);
        assert!(!f.has_token("v700") && f.has_token("v699"));
    }

    #[test]
    fn stored_hashes_are_fnv_over_the_raw_lines() {
        let f = scan_text("s.rs", SAMPLE);
        let lines = |from: usize, to: usize| {
            let mut h = Fnv::new();
            for line in f.raw.range(from..to) {
                h.mix_str(line);
            }
            h.finish()
        };
        assert_eq!(f.content_hash(), lines(0, f.raw.len()));
        for span in &f.fns {
            assert_eq!(f.fn_content_hash(span), lines(span.start - 1, span.end));
        }
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
