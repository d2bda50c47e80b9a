//! The repository benchmark: three deterministic workloads, a min-of-K
//! timing estimator, and per-layer spans. See `README.md` beside this
//! crate for the metrics, the workloads and the estimator's limits.

pub mod explore;
pub mod fleet;
pub mod harness;
pub mod host;
pub mod spans;
pub mod verify;

use harness::{median, Measured};
use spans::Spans;

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["fleet", "explore", "verify"];

/// End-to-end metrics every workload reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_us_p50", "us"),
    ("op_us_p90", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_kcycles_per_op", "kcycles"),
];

/// Per-layer metrics, with units. A workload that never enters a layer
/// reports it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.alu_ms", "ms"),
    ("host.memchase_ms", "ms"),
    ("tracing.traced_op_us_p50", "us"),
    ("tracing.untraced_op_us_p50", "us"),
    // fleet
    ("snapshot.restore_us", "us"),
    ("kernel.run_us", "us"),
    ("campaign.collect_us", "us"),
    ("campaign.validate_us", "us"),
    ("snapshot.midrun_share", "share"),
    ("trace.events_per_run", "count"),
    ("kernel.syscalls_per_run", "count"),
    ("kernel.switches_per_run", "count"),
    ("kernel.mpu_commits_per_run", "count"),
    ("hw.reg_writes_per_run", "count"),
    ("hw.bus_faults_per_run", "count"),
    ("commit_cache.hit_ratio", "share"),
    ("setup.reference_ms", "ms"),
    ("setup.capture_ms", "ms"),
    ("injection.fired_per_run", "count"),
    ("recovery.restarts_per_run", "count"),
    // explore
    ("explore.baseline_us", "us"),
    ("explore.enumerate_us", "us"),
    ("explore.classes_us", "us"),
    ("explore.sched_run_us", "us"),
    ("explore.oracle_us", "us"),
    ("explore.candidates_per_unit", "count"),
    ("explore.executed_per_unit", "count"),
    ("explore.prune_ratio", "ratio"),
    // verify
    ("span.scan_us", "us"),
    ("span.index_us", "us"),
    ("verifier.discharge_us", "us"),
    ("audit.tcb_us", "us"),
    ("audit.coverage_us", "us"),
    ("audit.crosscheck_us", "us"),
    ("audit.staleness_us", "us"),
    ("verifier.redischarged_per_op", "count"),
    ("verifier.unanchored_obligations", "count"),
    ("vcache.hit_ratio", "share"),
    ("verifier.cases_per_op", "count"),
    ("verifier.cold_s.ticktock_monolithic", "s"),
    ("verifier.cold_s.ticktock_granular", "s"),
    ("verifier.cold_s.interrupts", "s"),
    ("verifier.cold_s.kernel_commit_cache", "s"),
    ("verifier.cold_s.kernel_fault_recovery", "s"),
    ("verifier.cold_s.kernel_schedule_explorer", "s"),
    ("verifier.cold_s.hardware_model", "s"),
];

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed passes spread across.
    pub seconds: f64,
    /// Whether to make the traced passes and report per-layer metrics.
    pub trace: bool,
    /// Tiny sizes (K = 2, a handful of ops) for the smoke test.
    pub smoke: bool,
}

/// What a workload hands back to [`run`].
pub struct WorkloadResult {
    /// The set-ups and passes.
    pub measured: Measured,
    /// Simulated kilocycles per op (exact).
    pub sim_kcycles_per_op: f64,
    /// This workload's per-layer metrics.
    pub per_layer: Vec<(&'static str, f64)>,
    /// Output checks that failed (empty = the program's outputs are right).
    pub problems: Vec<String>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

/// The finished run.
pub struct Outcome {
    /// Ops attempted in one pass.
    pub attempted: u64,
    /// Ops that failed their oracle.
    pub failed: u64,
    /// Whether every output check passed and no op failed.
    pub correct: bool,
    /// End-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics, in [`PER_LAYER`] order.
    pub per_layer: Vec<(&'static str, f64)>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

/// Runs one workload end to end, witness loops included.
pub fn run(cfg: &Config, spans: &mut Spans) -> Result<Outcome, String> {
    let before = host::witness();
    let result = match cfg.workload.as_str() {
        "fleet" => fleet::run(cfg, spans)?,
        "explore" => explore::run(cfg, spans)?,
        "verify" => verify::run(cfg, spans)?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {WORKLOADS:?})"
            ))
        }
    };
    let peak_rss_mb = host::peak_rss_mb()?;
    let after = host::witness();

    let m = &result.measured;
    let t = &m.untraced;
    let end_to_end = vec![
        ("ops_per_s", t.ops_per_s()),
        ("op_us_p50", t.percentile_us(0.5)),
        ("op_us_p90", t.percentile_us(0.9)),
        ("setup_s", median(&m.setup_s)),
        ("peak_rss_mb", peak_rss_mb),
        ("sim_kcycles_per_op", result.sim_kcycles_per_op),
    ];
    let mut layer_values = result.per_layer.clone();
    layer_values.push(("host.alu_ms", before.alu_ms.max(after.alu_ms)));
    layer_values.push((
        "host.memchase_ms",
        before.memchase_ms.max(after.memchase_ms),
    ));
    let mut notes = result.notes;
    notes.push(format!(
        "host witness: alu {:.1} -> {:.1} ms, memchase {:.1} -> {:.1} ms (start -> end)",
        before.alu_ms, after.alu_ms, before.memchase_ms, after.memchase_ms
    ));
    let passes: Vec<String> = t.pass_ms.iter().map(|ms| format!("{ms:.1}")).collect();
    notes.push(format!(
        "pass totals (ms): {} -> summed minima {:.1}",
        passes.join(" "),
        t.min_ns.iter().sum::<u64>() as f64 / 1e6
    ));
    if let Some(traced) = &m.traced {
        let (on, off) = (traced.percentile_us(0.5), t.percentile_us(0.5));
        layer_values.push(("tracing.traced_op_us_p50", on));
        layer_values.push(("tracing.untraced_op_us_p50", off));
        notes.push(format!(
            "tracing overhead: op_us_p50 {on:.2} traced vs {off:.2} untraced ({:+.1}%)",
            (on / off - 1.0) * 100.0
        ));
    }
    let per_layer = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let v = layer_values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, v)
        })
        .collect();
    if let Some((n, _)) = layer_values
        .iter()
        .find(|(n, _)| !PER_LAYER.iter().any(|(p, _)| p == n))
    {
        return Err(format!("per-layer metric `{n}` is not declared"));
    }
    let failed = t.failed_ops();
    notes.extend(result.problems.iter().map(|p| format!("check failed: {p}")));
    Ok(Outcome {
        attempted: t.ops() as u64,
        failed,
        correct: failed == 0 && result.problems.is_empty(),
        end_to_end,
        per_layer,
        notes,
    })
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The result line: end-to-end metrics without tracing, per-layer
/// metrics with it.
pub fn render_json(out: &Outcome, trace: bool) -> String {
    let (metrics, table) = if trace {
        (&out.per_layer, PER_LAYER)
    } else {
        (&out.end_to_end, END_TO_END)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                unit_of(table, name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

/// Mean of a list of values (0 when empty).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}
