//! Profile-JSON report files written next to the benchmark text tables.
//!
//! Each figure binary that runs with tracing enabled collects one report
//! object per configuration (the [`hpc_sim::ProfileSnapshot::to_json`]
//! output, per-rank rows included) and writes them all to a single
//! `<binary>.profile.json` file so the phase breakdowns can be inspected
//! without re-running the benchmark.

use std::path::PathBuf;
use std::sync::Once;

use hpc_sim::trace::Json;

/// Destination for report file `name`: `$PNETCDF_REPORT_DIR` if set, else
/// the current directory.
pub fn report_path(name: &str) -> PathBuf {
    match std::env::var_os("PNETCDF_REPORT_DIR") {
        Some(dir) => PathBuf::from(dir).join(name),
        None => PathBuf::from(name),
    }
}

/// Log the resolved report destination once per process, so every run
/// states where its `.profile.json` / `.trace.json` artifacts land.
fn announce_report_dir() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let dir = match std::env::var_os("PNETCDF_REPORT_DIR") {
            Some(d) => PathBuf::from(d),
            None => PathBuf::from("."),
        };
        eprintln!("  report dir: {} (PNETCDF_REPORT_DIR)", dir.display());
    });
}

/// Write `report` to [`report_path`]`(name)` as pretty JSON and announce
/// where it went on stderr (stdout carries the text tables).
pub fn write_report(name: &str, report: &Json) -> PathBuf {
    announce_report_dir();
    let path = report_path(name);
    std::fs::write(&path, report.pretty())
        .unwrap_or_else(|e| panic!("writing report {}: {e}", path.display()));
    eprintln!("  profile report: {}", path.display());
    path
}

/// Write a Chrome `trace_event` export (the [`hpc_sim::TraceSnapshot::to_chrome`]
/// object) to [`report_path`]`(name)`; view it in Perfetto
/// (<https://ui.perfetto.dev>) or `chrome://tracing`.
pub fn write_trace(name: &str, trace: &Json) -> PathBuf {
    announce_report_dir();
    let path = report_path(name);
    std::fs::write(&path, trace.pretty())
        .unwrap_or_else(|e| panic!("writing trace {}: {e}", path.display()));
    eprintln!("  chrome trace: {}", path.display());
    path
}

/// The critical rank's attributed phase time over the reported makespan.
/// Every simulated clock advance is charged to exactly one phase, so real
/// coverage is 1.0; a miss means an attribution hole in some layer.
fn coverage(report: &Json) -> f64 {
    report
        .get("coverage")
        .and_then(Json::as_f64)
        .expect("report has a coverage field")
}

/// Whether the phase breakdown explains the makespan to within `tol`
/// (0.05 = 5%).
pub fn coverage_within(report: &Json, tol: f64) -> bool {
    (coverage(report) - 1.0).abs() <= tol
}

/// Assert [`coverage_within`].
pub fn check_coverage(report: &Json, tol: f64) {
    assert!(
        coverage_within(report, tol),
        "phase attribution covers {:.2}% of the makespan (tolerance {:.0}%)",
        coverage(report) * 100.0,
        tol * 100.0
    );
}

/// A smoke binary's named pass/fail checks as the report's `"gates"`
/// object: one boolean per check, each the outcome of a real comparison.
pub fn gates_json(gates: &[(&str, bool)]) -> Json {
    let mut out = Json::obj();
    for &(name, ok) in gates {
        out.set(name, ok);
    }
    out
}

/// Exit non-zero, naming every false gate. Call after the report is
/// written, so a failing run still leaves its evidence behind.
pub fn enforce_gates(bin: &str, gates: &[(&str, bool)]) {
    let failed: Vec<&str> = gates.iter().filter(|g| !g.1).map(|g| g.0).collect();
    if !failed.is_empty() {
        eprintln!("FAIL: {bin} gates {failed:?}");
        std::process::exit(1);
    }
}
