//! One metrics record, one writer, one gate (DESIGN §17).
//!
//! Every experiment bin and `tt-audit` reduce their results to one
//! [`Report`]: a flat list of [`Metric`] records plus the correctness
//! failures the run found and the baseline metrics it could not measure
//! on this host ([`Skip`]). [`Report::to_json`] writes it as
//! `BENCH_<experiment>.json`; [`gate`] checks it against the committed
//! baseline (`ci/bench_baseline.json`, a list of [`Bound`]s); [`Cli`] is
//! the shared `--json [path]` / `--check [baseline]` handling.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::audit::in_workspace;

/// The layer holding everything that depends on the host: wall-clock
/// times, the rates and speedups derived from them, and the worker and
/// core counts they were measured with. Determinism checks drop it
/// ([`Report::without_wall`]) and compare the rest byte for byte.
pub const WALL: &str = "wall";

/// The committed baseline, relative to the workspace root.
pub const DEFAULT_BASELINE: &str = "ci/bench_baseline.json";

/// How a metric may be gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Pinned: must equal the bound, within the tolerance.
    Exact,
    /// Higher is better: must not fall below the bound.
    Floor,
    /// Lower is better: must not rise above the bound.
    Ceiling,
    /// Reported only; never gated.
    Info,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Exact => "exact",
            Kind::Floor => "floor",
            Kind::Ceiling => "ceiling",
            Kind::Info => "info",
        }
    }

    fn parse(s: &str) -> Option<Kind> {
        [Kind::Exact, Kind::Floor, Kind::Ceiling, Kind::Info]
            .into_iter()
            .find(|k| k.name() == s)
    }
}

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, unique within its experiment (per-chip metrics are
    /// `<chip>.<name>`).
    pub name: String,
    /// What the number measures: a subsystem (`campaign`, `dpor`,
    /// `cycles`, ...) or [`WALL`].
    pub layer: &'static str,
    /// Unit (`count`, `cycles`, `ms`, `x`, ...).
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// How it may be gated. Every non-[`Kind::Info`] metric must have a
    /// baseline bound of the same kind.
    pub kind: Kind,
}

/// A baseline metric the run could not measure meaningfully on this
/// host, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Skip {
    /// Metric name within the experiment.
    pub metric: String,
    /// One line, printed by the gate.
    pub reason: String,
}

/// Everything one experiment run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Experiment name: `BENCH_<experiment>.json`, and the prefix of its
    /// baseline entries (`<experiment>.<metric>`).
    pub experiment: &'static str,
    /// Measurements, in emission order.
    pub metrics: Vec<Metric>,
    /// Correctness failures, verbatim (oracle lines, restore
    /// equivalence, rung byte-identity, detector power, audit findings,
    /// unexpected §6.1 verdicts). Any entry fails the gate.
    pub failures: Vec<String>,
    /// Baseline metrics this run does not bound.
    pub skipped: Vec<Skip>,
}

impl Report {
    /// An empty report for `experiment`.
    pub fn new(experiment: &'static str) -> Report {
        Report {
            experiment,
            metrics: Vec::new(),
            failures: Vec::new(),
            skipped: Vec::new(),
        }
    }

    /// Appends a metric. Names are unique within a report.
    pub fn add(
        &mut self,
        kind: Kind,
        name: impl Into<String>,
        layer: &'static str,
        unit: &'static str,
        value: f64,
    ) {
        let name = name.into();
        debug_assert!(self.get(&name).is_none(), "duplicate metric {name}");
        self.metrics.push(Metric {
            name,
            layer,
            unit,
            value,
            kind,
        });
    }

    /// Appends an ungated ([`Kind::Info`]) metric.
    pub fn info(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        unit: &'static str,
        value: f64,
    ) {
        self.add(Kind::Info, name, layer, unit, value);
    }

    /// Appends ungated metrics sharing a layer and unit, each named
    /// `<prefix>.<name>`, or `<name>` when `prefix` is empty.
    pub fn infos(
        &mut self,
        prefix: &str,
        layer: &'static str,
        unit: &'static str,
        items: &[(&str, f64)],
    ) {
        for &(name, value) in items {
            let name = match prefix {
                "" => name.to_string(),
                _ => format!("{prefix}.{name}"),
            };
            self.info(name, layer, unit, value);
        }
    }

    /// Marks a baseline metric as not bounded by this run.
    pub fn skip(&mut self, metric: impl Into<String>, reason: impl Into<String>) {
        self.skipped.push(Skip {
            metric: metric.into(),
            reason: reason.into(),
        });
    }

    /// The metric called `name`, if emitted.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The report without its [`WALL`] layer: what must be identical
    /// across thread counts and repeated runs.
    pub fn without_wall(mut self) -> Report {
        self.metrics.retain(|m| m.layer != WALL);
        self
    }

    /// Renders `BENCH_<experiment>.json`.
    pub fn to_json(&self) -> String {
        self.render(&Layout::PRETTY) + "\n"
    }

    /// The same record on one line, for append-only logs such as
    /// `ci/perf_history.jsonl`.
    pub fn to_json_line(&self) -> String {
        self.render(&Layout::LINE)
    }

    /// The one writer, in either [`Layout`].
    fn render(&self, l: &Layout) -> String {
        let q = |s: &str| format!("\"{}\"", escape(s));
        let list = |items: Vec<String>| {
            if items.is_empty() {
                return "[]".to_string();
            }
            format!("[{}{}{}]", l.open, items.join(l.sep), l.close)
        };
        let metrics = self.metrics.iter().map(|m| {
            let (name, layer, unit, kind) = (q(&m.name), q(m.layer), q(m.unit), q(m.kind.name()));
            let value = num(m.value);
            format!("{{\"name\": {name}, \"layer\": {layer}, \"unit\": {unit}, \"kind\": {kind}, \"value\": {value}}}")
        });
        let skipped = self.skipped.iter().map(|s| {
            let (metric, reason) = (q(&s.metric), q(&s.reason));
            format!("{{\"metric\": {metric}, \"reason\": {reason}}}")
        });
        let (first, next) = (l.first, l.next);
        format!(
            "{{{first}\"experiment\": {}{next}\"metrics\": {}{next}\"failures\": {}{next}\"skipped\": {}{}}}",
            q(self.experiment),
            list(metrics.collect()),
            list(self.failures.iter().map(|f| q(f)).collect()),
            list(skipped.collect()),
            l.end,
        )
    }
}

/// Where [`Report::render`] breaks lines.
struct Layout {
    /// Before the first field.
    first: &'static str,
    /// Between fields.
    next: &'static str,
    /// After a non-empty list's `[`.
    open: &'static str,
    /// Between list items.
    sep: &'static str,
    /// Before a non-empty list's `]`.
    close: &'static str,
    /// Before the closing `}`.
    end: &'static str,
}

impl Layout {
    const PRETTY: Layout = Layout {
        first: "\n  ",
        next: ",\n  ",
        open: "\n    ",
        sep: ",\n    ",
        close: "\n  ",
        end: "\n",
    };
    const LINE: Layout = Layout {
        first: "",
        next: ", ",
        open: "",
        sep: ", ",
        close: "",
        end: "",
    };
}

/// Escapes a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON number that round-trips the `f64` (JSON has no NaN or
/// infinity; both become `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// One baseline entry: `{metric, kind, bound, tolerance?, why}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// `<experiment>.<metric name>`.
    pub metric: String,
    /// Must match the emitted metric's kind.
    pub kind: Kind,
    /// The bound.
    pub bound: f64,
    /// Relative slack: a floor admits `bound × (1 − t)`, a ceiling
    /// `bound × (1 + t)`, an exact pin `bound ± |bound| × t`.
    pub tolerance: Option<f64>,
    /// One line: what the bound protects and where its number came from.
    pub why: String,
}

impl Bound {
    fn holds(&self, value: f64) -> bool {
        let t = self.tolerance.unwrap_or(0.0);
        match self.kind {
            Kind::Exact => (value - self.bound).abs() <= self.bound.abs() * t,
            Kind::Floor => value >= self.bound * (1.0 - t),
            Kind::Ceiling => value <= self.bound * (1.0 + t),
            Kind::Info => true,
        }
    }

    fn describe(&self) -> String {
        let sign = match self.kind {
            Kind::Floor => "-",
            Kind::Ceiling => "+",
            Kind::Exact | Kind::Info => "±",
        };
        match self.tolerance {
            Some(t) => format!(
                "{} {:.2} {sign}{:.0}%",
                self.kind.name(),
                self.bound,
                t * 100.0
            ),
            None => format!("{} {:.2}", self.kind.name(), self.bound),
        }
    }
}

/// Reads and parses a baseline file ([`parse_baseline`]); an unreadable
/// file or a rejected text is an error naming the file.
pub fn read_baseline(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_baseline(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses a baseline: a JSON list of [`Bound`] objects. Total over any
/// text: every rejection is a [`ParseError`] naming its byte offset.
pub fn parse_baseline(text: &str) -> Result<Vec<Bound>, ParseError> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let entries = p.seq(b'[', b']', Parser::entry)?;
    match p.lookahead() {
        None => Ok(entries),
        Some(_) => Err(p.error("trailing bytes")),
    }
}

/// A rejection by the metrics JSON reader: where it stopped and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the text.
    pub at: usize,
    /// What the reader expected or found there.
    pub what: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

/// One metric record read back from a rendered report.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// [`Metric::name`].
    pub name: String,
    /// [`Metric::layer`].
    pub layer: String,
    /// [`Metric::unit`].
    pub unit: String,
    /// [`Metric::kind`].
    pub kind: Kind,
    /// [`Metric::value`] (NaN where the writer wrote `null`).
    pub value: f64,
}

/// Reads back what [`Report::to_json`] or [`Report::to_json_line`]
/// wrote: the experiment name and its metric records. The report's
/// failures and skips must be empty — a record with either is a failed
/// run, not a measurement.
pub fn read_report(text: &str) -> Result<(String, Vec<Record>), ParseError> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let (mut experiment, mut metrics) = (None, None);
    p.seq(b'{', b'}', |p| {
        let key = p.string()?;
        p.eat(b':')?;
        match key.as_str() {
            "experiment" => experiment = Some(p.string()?),
            "metrics" => metrics = Some(p.seq(b'[', b']', Parser::record)?),
            "failures" | "skipped" => {
                p.eat(b'[')?;
                p.eat(b']')
                    .map_err(|_| p.error(&format!("`{key}` is not empty")))?;
            }
            _ => return Err(p.error(&format!("unknown field `{key}`"))),
        }
        Ok(())
    })?;
    if p.lookahead().is_some() {
        return Err(p.error("trailing bytes"));
    }
    match (experiment, metrics) {
        (Some(e), Some(m)) => Ok((e, m)),
        _ => Err(p.error("report without `experiment` or `metrics`")),
    }
}

/// A recursive-descent reader for the JSON subset the metrics writer
/// and the baseline use: lists of flat objects whose values are strings
/// or numbers.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> ParseError {
        ParseError {
            at: self.i,
            what: what.into(),
        }
    }

    /// The next non-blank byte, not consumed.
    fn lookahead(&mut self) -> Option<u8> {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.lookahead() != Some(c) {
            return Err(self.error(&format!("expected `{}`", c as char)));
        }
        self.i += 1;
        Ok(())
    }

    /// `open item (, item)* close`, possibly empty.
    fn seq<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.eat(open)?;
        let mut out = Vec::new();
        if self.lookahead() != Some(close) {
            out.push(item(self)?);
            while self.lookahead() == Some(b',') {
                self.i += 1;
                out.push(item(self)?);
            }
        }
        self.eat(close)?;
        Ok(out)
    }

    /// A string; of the escapes, only `\"` and `\\` are accepted.
    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match (self.s.get(self.i), self.s.get(self.i + 1)) {
                (Some(b'"'), _) => break,
                (Some(b'\\'), Some(&c @ (b'"' | b'\\'))) => {
                    out.push(c);
                    self.i += 2;
                }
                (Some(b'\\'), _) | (None, _) => return Err(self.error("bad string")),
                (Some(&c), _) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
        self.i += 1;
        String::from_utf8(out).map_err(|_| self.error("invalid UTF-8"))
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        self.lookahead();
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| b"0123456789+-.eE".contains(c))
        {
            self.i += 1;
        }
        let text = String::from_utf8_lossy(&self.s[start..self.i]);
        text.parse().map_err(|_| self.error("expected a number"))
    }

    /// One `{name, layer, unit, kind, value}` metric object.
    fn record(&mut self) -> Result<Record, ParseError> {
        let mut r = Record {
            name: String::new(),
            layer: String::new(),
            unit: String::new(),
            kind: Kind::Info,
            value: f64::NAN,
        };
        let seen = self.seq(b'{', b'}', |p| {
            let key = p.string()?;
            p.eat(b':')?;
            match key.as_str() {
                "name" => r.name = p.string()?,
                "layer" => r.layer = p.string()?,
                "unit" => r.unit = p.string()?,
                "kind" => {
                    let kind = Kind::parse(&p.string()?);
                    r.kind = kind.ok_or_else(|| p.error("unknown kind"))?;
                }
                "value" if p.lookahead() == Some(b'n') => {
                    p.i += 4 * usize::from(p.s[p.i..].starts_with(b"null"));
                }
                "value" => r.value = p.number()?,
                _ => return Err(p.error(&format!("unknown field `{key}`"))),
            }
            Ok(key)
        })?;
        if seen.len() != 5 {
            return Err(self.error("metric without all of name, layer, unit, kind, value"));
        }
        Ok(r)
    }

    fn entry(&mut self) -> Result<Bound, ParseError> {
        let mut b = Bound {
            metric: String::new(),
            kind: Kind::Info,
            bound: 0.0,
            tolerance: None,
            why: String::new(),
        };
        let seen = self.seq(b'{', b'}', |p| {
            let key = p.string()?;
            p.eat(b':')?;
            match key.as_str() {
                "metric" => b.metric = p.string()?,
                "kind" => {
                    let kind = Kind::parse(&p.string()?).filter(|k| *k != Kind::Info);
                    b.kind = kind.ok_or_else(|| p.error("kind must be exact, floor or ceiling"))?;
                }
                "bound" => b.bound = p.number()?,
                "tolerance" => b.tolerance = Some(p.number()?),
                "why" => b.why = p.string()?,
                _ => return Err(p.error(&format!("unknown field `{key}`"))),
            }
            Ok(key)
        })?;
        match ["metric", "kind", "bound", "why"]
            .iter()
            .find(|f| !seen.iter().any(|k| k == *f))
        {
            Some(f) => Err(self.error(&format!("entry without `{f}`"))),
            None => Ok(b),
        }
    }
}

/// What the gate found: one line per checked entry or skip, and one per
/// violation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Bounds that held and skips, with their reasons.
    pub notes: Vec<String>,
    /// Everything that fails the gate.
    pub violations: Vec<String>,
}

impl Verdict {
    /// Whether the gate passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The baseline entries for `report`'s experiment, keyed by the local
/// metric name.
fn bounds_for<'b>(report: &Report, baseline: &'b [Bound]) -> Vec<(&'b str, &'b Bound)> {
    let prefix = format!("{}.", report.experiment);
    baseline
        .iter()
        .filter_map(|b| Some((b.metric.strip_prefix(&prefix)?, b)))
        .collect()
}

/// The structural half of the gate: whether `report` and `baseline`
/// agree on which metrics are gated, whatever the values. Every entry
/// for the experiment must be emitted with the entry's kind or skipped,
/// and every gated (non-[`Kind::Info`]) metric must have an entry.
/// Returns one line per disagreement.
pub fn coverage(report: &Report, baseline: &[Bound]) -> Vec<String> {
    let exp = report.experiment;
    let bounds = bounds_for(report, baseline);
    let mut out = Vec::new();
    for &(name, b) in &bounds {
        if report.skipped.iter().any(|s| s.metric == name) {
            continue;
        }
        match report.get(name) {
            None => out.push(format!(
                "{exp} {name}: in the baseline but neither emitted nor skipped"
            )),
            Some(m) if m.kind != b.kind => out.push(format!(
                "{exp} {name}: emitted as {} but bounded as {}",
                m.kind.name(),
                b.kind.name()
            )),
            Some(_) => {}
        }
    }
    for m in &report.metrics {
        if m.kind != Kind::Info && !bounds.iter().any(|&(name, _)| name == m.name) {
            out.push(format!(
                "{exp} {} [{}]: {} metric has no baseline bound",
                m.name,
                m.layer,
                m.kind.name()
            ));
        }
    }
    out
}

/// The one gate: checks `report` against the baseline file at `path`,
/// anchored at the workspace root when relative.
///
/// Fails on an unreadable baseline; on every [`coverage`] disagreement
/// (an entry the report neither emits nor skips, a gated metric with no
/// entry, a kind mismatch); on any report failure; and on every bound
/// violation, each printed as
/// `experiment metric [layer]: value vs bound (delta)`.
pub fn gate(report: &Report, path: &Path) -> Verdict {
    let baseline = match read_baseline(&in_workspace(path)) {
        Ok(b) => b,
        Err(e) => {
            return Verdict {
                violations: vec![format!("unreadable baseline {e}")],
                ..Verdict::default()
            }
        }
    };
    let exp = report.experiment;
    let mut v = Verdict {
        violations: coverage(report, &baseline),
        ..Verdict::default()
    };
    for (name, b) in bounds_for(report, &baseline) {
        if let Some(s) = report.skipped.iter().find(|s| s.metric == name) {
            v.notes.push(format!("{exp} {name}: skipped: {}", s.reason));
            continue;
        }
        let Some(m) = report.get(name).filter(|m| m.kind == b.kind) else {
            continue; // a coverage violation
        };
        let line = format!(
            "{exp} {name} [{}]: {:.2} vs {} ({:+.2})",
            m.layer,
            m.value,
            b.describe(),
            m.value - b.bound
        );
        if b.holds(m.value) {
            v.notes.push(line);
        } else {
            v.violations.push(line);
        }
    }
    v.violations
        .extend(report.failures.iter().map(|f| format!("{exp}: {f}")));
    v
}

/// The shared `--json [path]` / `--check [baseline]` flags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cli {
    /// Where to write the report (`BENCH_<experiment>.json` by default).
    pub json: Option<PathBuf>,
    /// The baseline to gate against ([`DEFAULT_BASELINE`] by default;
    /// [`gate`] anchors a relative path at the workspace root).
    pub check: Option<PathBuf>,
}

impl Cli {
    /// Removes `--json [path]` and `--check [baseline]` from `args`,
    /// leaving the bin's own flags. A value is taken only when the next
    /// argument is not itself a flag.
    pub fn take(experiment: &str, args: &mut Vec<String>) -> Cli {
        let mut flag = |name: &str| {
            let i = args.iter().position(|a| a == name)?;
            args.remove(i);
            Some((i < args.len() && !args[i].starts_with("--")).then(|| args.remove(i)))
        };
        Cli {
            json: flag("--json")
                .map(|p| PathBuf::from(p.unwrap_or_else(|| format!("BENCH_{experiment}.json")))),
            check: flag("--check").map(|p| PathBuf::from(p.as_deref().unwrap_or(DEFAULT_BASELINE))),
        }
    }

    /// Whether either flag was given.
    pub fn wanted(&self) -> bool {
        self.json.is_some() || self.check.is_some()
    }

    /// For a bin whose `--check` was a plain switch before the flags were
    /// shared: refuses a baseline value, so the bin gains no option. The
    /// bare `--check` gates the report against [`DEFAULT_BASELINE`].
    pub fn bare_check(&self) -> Result<(), String> {
        match &self.check {
            Some(path) if path != Path::new(DEFAULT_BASELINE) => Err(format!(
                "--check takes no baseline (got {})",
                path.display()
            )),
            _ => Ok(()),
        }
    }

    /// Writes the report and/or gates it, printing every gate line.
    /// Returns `false` if the write failed or the gate did not pass.
    pub fn finish(&self, report: &Report) -> bool {
        let mut ok = true;
        if let Some(path) = &self.json {
            match std::fs::write(path, report.to_json()) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("failed to write {}: {e}", path.display());
                    ok = false;
                }
            }
        }
        if let Some(path) = &self.check {
            let verdict = gate(report, path);
            for n in &verdict.notes {
                println!("gate: {n}");
            }
            for f in &verdict.violations {
                eprintln!("GATE FAILED: {f}");
            }
            if verdict.passed() {
                println!("gate: {} passed", report.experiment);
            }
            ok &= verdict.passed();
        }
        ok
    }
}

/// A bin's exit status: success exactly when `ok`.
pub fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Writes `text` to a per-test temp file and gates `report` on it.
    fn gate_text(report: &Report, tag: &str, text: &str) -> Verdict {
        let path =
            std::env::temp_dir().join(format!("tt-baseline-{tag}-{}.json", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let verdict = gate(report, &path);
        let _ = std::fs::remove_file(&path);
        verdict
    }

    fn sample() -> Report {
        let mut r = Report::new("demo");
        r.add(Kind::Floor, "ratio", "dpor", "x", 2.5);
        r.info("runs", "campaign", "count", 14.0);
        r.info("wall_ms", WALL, "ms", 12.25);
        r
    }

    const RATIO_FLOOR: &str =
        r#"[{"metric": "demo.ratio", "kind": "floor", "bound": 2.0, "why": "pruning"}]"#;

    #[test]
    fn writer_escapes_and_maps_non_finite_to_null() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(num(4.0), "4");
        assert_eq!(num(0.25), "0.25");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        let mut r = sample();
        r.failures.push("chip \"x\" diverged".into());
        r.skip("other", "1 core");
        let doc = r.to_json();
        assert!(doc.contains("\"experiment\": \"demo\""), "{doc}");
        assert!(
            doc.contains(
                "{\"name\": \"ratio\", \"layer\": \"dpor\", \"unit\": \"x\", \"kind\": \"floor\", \"value\": 2.5}"
            ),
            "{doc}"
        );
        assert!(doc.contains("\"chip \\\"x\\\" diverged\""), "{doc}");
        assert!(
            doc.contains("{\"metric\": \"other\", \"reason\": \"1 core\"}"),
            "{doc}"
        );
        assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
        assert!(Report::new("e").to_json().contains("\"failures\": []"));
    }

    #[test]
    fn both_layouts_read_back_to_the_same_records() {
        let mut r = sample();
        r.info("lost", "campaign", "count", f64::NAN);
        let line = r.to_json_line();
        assert!(!line.contains('\n'), "{line}");
        assert!(
            line.starts_with("{\"experiment\": \"demo\", \"metrics\": [{"),
            "{line}"
        );
        let (experiment, records) = read_report(&line).expect("line parses");
        // NaN != NaN: compare the two readings' renderings.
        let pretty = read_report(&r.to_json()).expect("pretty parses");
        assert_eq!(
            format!("{pretty:?}"),
            format!("{:?}", (&experiment, &records))
        );
        assert_eq!(experiment, "demo");
        assert_eq!(records.len(), r.metrics.len());
        for (got, want) in records.iter().zip(&r.metrics) {
            assert_eq!(
                (got.name.as_str(), got.layer.as_str()),
                (want.name.as_str(), want.layer)
            );
            assert_eq!((got.unit.as_str(), got.kind), (want.unit, want.kind));
            assert!(got.value == want.value || got.value.is_nan() && want.value.is_nan());
        }
        // A run that failed or skipped is not a measurement.
        let mut failed = sample();
        failed.failures.push("boom".into());
        assert!(read_report(&failed.to_json_line()).is_err());
        for bad in ["", "{}", "{\"experiment\": \"x\"}", &(line.clone() + "x")] {
            assert!(read_report(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn without_wall_drops_only_the_wall_layer() {
        let r = sample().without_wall();
        assert!(r.get("wall_ms").is_none());
        assert!(r.get("ratio").is_some() && r.get("runs").is_some());
    }

    #[test]
    fn baseline_reader_parses_entries_and_rejects_malformed_files() {
        let path =
            std::env::temp_dir().join(format!("tt-baseline-parse-{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"[
  {"metric": "fig11.arm_hit", "kind": "ceiling", "bound": 4, "tolerance": 0.1, "why": "a \"quoted\" why"},
  {"metric": "fleet.runs_per_sec", "kind": "floor", "bound": 2.4813e4, "why": "18380 x 1.35"}
]"#,
        )
        .unwrap();
        let b = read_baseline(&path).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].kind, Kind::Ceiling);
        assert_eq!(b[0].tolerance, Some(0.1));
        assert_eq!(b[0].why, "a \"quoted\" why");
        assert_eq!(b[1].bound, 24813.0);
        assert_eq!(b[1].tolerance, None);
        for bad in [
            "",
            "{}",
            "[{\"metric\": \"x.y\"}]",
            "[{\"metric\": \"x.y\", \"kind\": \"most\", \"bound\": 1, \"why\": \"\"}]",
            "[{\"metric\": \"x.y\", \"kind\": \"info\", \"bound\": 1, \"why\": \"\"}]",
            "[{\"metric\": \"x.y\", \"kind\": \"floor\", \"bound\": 1, \"why\": \"\", \"extra\": 2}]",
            "[] trailing",
        ] {
            std::fs::write(&path, bad).unwrap();
            assert!(read_baseline(&path).is_err(), "accepted {bad:?}");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Renders bounds the way `ci/bench_baseline.json` writes them.
    fn render_baseline(bounds: &[Bound]) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let entries: Vec<String> = bounds
            .iter()
            .map(|b| {
                let tolerance = b.tolerance.map_or(String::new(), |t| {
                    format!(", \"tolerance\": {t}")
                });
                format!(
                    "  {{\"metric\": \"{}\", \"kind\": \"{}\", \"bound\": {}{tolerance}, \"why\": \"{}\"}}",
                    esc(&b.metric),
                    b.kind.name(),
                    b.bound,
                    esc(&b.why)
                )
            })
            .collect();
        format!("[\n{}\n]\n", entries.join(",\n"))
    }

    /// The parser's verdict on `text`: `Ok` or a rejection that names a
    /// byte inside the text.
    fn check_parse(text: &str) -> Result<(), proptest::TestCaseError> {
        if let Err(e) = parse_baseline(text) {
            prop_assert!(e.at <= text.len(), "{e} past {} bytes", text.len());
            let prefix = format!("byte {}: ", e.at);
            prop_assert!(e.to_string().starts_with(&prefix), "{e}");
        }
        Ok(())
    }

    /// Baseline-shaped fragments, so arbitrary sequences reach deep into
    /// the parser.
    const TOKENS: [&str; 24] = [
        "[",
        "]",
        "{",
        "}",
        ",",
        ":",
        " ",
        "\"",
        "\\",
        "\"metric\"",
        "\"kind\"",
        "\"bound\"",
        "\"tolerance\"",
        "\"why\"",
        "\"floor\"",
        "\"info\"",
        "\"x.y\"",
        "1",
        "-2.5e3",
        "1e999",
        ".",
        "null",
        "\u{e9}",
        "\n",
    ];

    proptest! {
        #[test]
        fn baseline_parser_never_panics_on_arbitrary_text(
            bytes in proptest::collection::vec(any::<u8>(), 0..120),
            tokens in proptest::collection::vec(0usize..TOKENS.len(), 0..60),
        ) {
            check_parse(&String::from_utf8_lossy(&bytes))?;
            let text: String = tokens.iter().map(|&t| TOKENS[t]).collect();
            check_parse(&text)?;
        }

        #[test]
        fn the_committed_baseline_cut_or_flipped_parses_or_names_a_byte(
            cut in any::<u64>(),
            flip in any::<u64>(),
        ) {
            let text = std::fs::read(in_workspace(DEFAULT_BASELINE)).unwrap();
            let cut = &text[..(cut % text.len() as u64) as usize];
            check_parse(&String::from_utf8_lossy(cut))?;
            let mut flipped = text.clone();
            let bit = (flip % (8 * text.len() as u64)) as usize;
            flipped[bit / 8] ^= 1 << (bit % 8);
            check_parse(&String::from_utf8_lossy(&flipped))?;
        }

        #[test]
        fn rendered_bounds_parse_back_to_themselves(
            words in proptest::collection::vec(any::<u64>(), 0..6),
            text in proptest::collection::vec(0x20u8..0x7f, 0..12),
        ) {
            let text = String::from_utf8(text).unwrap();
            let bounds: Vec<Bound> = words
                .iter()
                .map(|&w| Bound {
                    metric: format!("x.{text}{w}"),
                    kind: [Kind::Exact, Kind::Floor, Kind::Ceiling][(w % 3) as usize],
                    bound: Some(f64::from_bits(w)).filter(|v| v.is_finite()).unwrap_or(0.5),
                    tolerance: (w % 5 == 0).then_some((w % 100) as f64 / 100.0),
                    why: text.clone(),
                })
                .collect();
            prop_assert_eq!(parse_baseline(&render_baseline(&bounds)).unwrap(), bounds);
        }
    }

    #[test]
    fn the_committed_baseline_round_trips() {
        let text = std::fs::read_to_string(in_workspace(DEFAULT_BASELINE)).unwrap();
        let bounds = parse_baseline(&text).unwrap();
        assert!(bounds.len() > 10, "{}", bounds.len());
        assert_eq!(parse_baseline(&render_baseline(&bounds)).unwrap(), bounds);
        assert_eq!(
            read_baseline(&in_workspace(DEFAULT_BASELINE)).unwrap(),
            bounds
        );
    }

    #[test]
    fn missing_baseline_fails_the_gate() {
        let v = gate(&sample(), Path::new("/nonexistent/bench_baseline.json"));
        assert!(!v.passed());
        assert!(v.violations[0].contains("unreadable baseline"), "{v:?}");
    }

    #[test]
    fn baseline_entry_the_report_does_not_emit_fails_unless_skipped() {
        let mut r = Report::new("demo");
        let v = gate_text(&r, "unemitted", RATIO_FLOOR);
        assert_eq!(
            v.violations,
            vec!["demo ratio: in the baseline but neither emitted nor skipped"]
        );
        r.skip("ratio", "only 1 core");
        let v = gate_text(&r, "skipped", RATIO_FLOOR);
        assert!(v.passed(), "{v:?}");
        assert_eq!(v.notes, vec!["demo ratio: skipped: only 1 core"]);
    }

    #[test]
    fn gated_metric_without_a_bound_fails() {
        let v = gate_text(&sample(), "unbounded", "[]");
        assert_eq!(
            v.violations,
            vec!["demo ratio [dpor]: floor metric has no baseline bound"]
        );
        // Other experiments' entries do not bound this one.
        let v = gate_text(
            &sample(),
            "foreign",
            r#"[{"metric": "other.ratio", "kind": "floor", "bound": 2.0, "why": "x"}]"#,
        );
        assert!(!v.passed());
    }

    #[test]
    fn every_violation_is_reported_with_layer_value_bound_and_delta() {
        let mut r = sample();
        r.metrics[0].value = 1.5;
        r.add(Kind::Exact, "cycles", "cycles", "cycles", 140.0);
        r.failures
            .push("seed 3: bystander pid1 trace diverged".into());
        let v = gate_text(
            &r,
            "violations",
            r#"[
  {"metric": "demo.ratio", "kind": "floor", "bound": 2.0, "why": "pruning"},
  {"metric": "demo.cycles", "kind": "exact", "bound": 117, "tolerance": 0.1, "why": "pinned"}
]"#,
        );
        assert_eq!(
            v.violations,
            vec![
                "demo ratio [dpor]: 1.50 vs floor 2.00 (-0.50)",
                "demo cycles [cycles]: 140.00 vs exact 117.00 ±10% (+23.00)",
                "demo: seed 3: bystander pid1 trace diverged",
            ]
        );
    }

    #[test]
    fn bounds_hold_at_their_edges_and_kinds_must_agree() {
        let bound = |kind, b, t| Bound {
            metric: "demo.x".into(),
            kind,
            bound: b,
            tolerance: t,
            why: String::new(),
        };
        assert!(bound(Kind::Floor, 2.0, None).holds(2.0));
        assert!(!bound(Kind::Floor, 2.0, None).holds(1.99));
        assert!(!bound(Kind::Floor, 2.0, None).holds(f64::NAN));
        assert!(bound(Kind::Ceiling, 4.0, Some(0.1)).holds(4.4));
        assert!(!bound(Kind::Ceiling, 4.0, Some(0.1)).holds(4.5));
        // A zero ceiling admits no regression at all.
        assert!(bound(Kind::Ceiling, 0.0, Some(0.1)).holds(0.0));
        assert!(!bound(Kind::Ceiling, 0.0, Some(0.1)).holds(1.0));
        assert!(bound(Kind::Exact, 72.0, Some(0.1)).holds(65.0));
        assert!(!bound(Kind::Exact, 72.0, Some(0.1)).holds(80.0));
        let v = gate_text(
            &sample(),
            "kind",
            r#"[{"metric": "demo.ratio", "kind": "ceiling", "bound": 3.0, "why": "x"}]"#,
        );
        assert_eq!(
            v.violations,
            vec!["demo ratio: emitted as floor but bounded as ceiling"]
        );
    }

    #[test]
    fn cli_takes_its_flags_and_leaves_the_rest() {
        let mut args: Vec<String> = [
            "--seeds", "2", "--check", "--json", "out.json", "--cap", "6",
        ]
        .map(String::from)
        .to_vec();
        let cli = Cli::take("explore", &mut args);
        assert_eq!(args, ["--seeds", "2", "--cap", "6"]);
        assert_eq!(cli.json, Some(PathBuf::from("out.json")));
        assert_eq!(cli.check, Some(PathBuf::from(DEFAULT_BASELINE)));
        let mut args: Vec<String> = ["--json", "--check", "/tmp/b.json"]
            .map(String::from)
            .to_vec();
        let cli = Cli::take("fleet", &mut args);
        assert!(args.is_empty());
        assert_eq!(cli.json, Some(PathBuf::from("BENCH_fleet.json")));
        assert_eq!(cli.check, Some(PathBuf::from("/tmp/b.json")));
        assert!(!Cli::take("x", &mut Vec::new()).wanted());
    }

    #[test]
    fn bare_check_refuses_a_baseline_value() {
        let take =
            |args: &[&str]| Cli::take("fault", &mut args.iter().map(|a| a.to_string()).collect());
        assert!(take(&["--json"]).bare_check().is_ok());
        assert!(take(&["--check"]).bare_check().is_ok());
        let err = take(&["--check", "other.json"]).bare_check();
        assert_eq!(
            err,
            Err("--check takes no baseline (got other.json)".into())
        );
    }

    #[test]
    fn finish_fails_on_a_missing_baseline() {
        let cli = Cli {
            json: None,
            check: Some(PathBuf::from("/nonexistent/bench_baseline.json")),
        };
        assert!(!cli.finish(&sample()));
        assert!(Cli::default().finish(&sample()));
    }
}
