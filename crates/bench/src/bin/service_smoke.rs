//! Service-cluster smoke: a small fleet for CI.
//!
//! 16 concurrent sessions (8 checkpoint writers, 8 strided readers over 4
//! shared datasets) on a shared 4-server cluster. Gates:
//!
//! - nonzero cross-file contention on the shared servers;
//! - aggregate throughput at least the best single session's (the cluster
//!   serves the fleet faster than any one contended client runs);
//! - a deliberately misspelled `pnc_*` hint shows up in `hints_rejected`;
//! - byte counts and per-session sim clocks identical across a rerun.
//!
//! Each gate is a named boolean in the report's `"gates"` object; the
//! report is written before the binary fails on a false gate.
//!
//! Usage: `cargo run --release -p pnetcdf-bench --bin service_smoke`

use hpc_sim::trace::Json;
use hpc_sim::SimConfig;
use pnetcdf::{Dataset, Info};
use pnetcdf_bench::report::{enforce_gates, gates_json, write_report};
use pnetcdf_bench::service::{mixed_specs, prepare_shared_datasets, run_sessions, ServiceRun};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{PfsCluster, StorageMode};

const NSESSIONS: usize = 16;
const NSHARED: usize = 4;
const STEPS: usize = 4;
const VALUES_PER_STEP: usize = 4096; // 32 KiB records
const NSERVERS: usize = 4;

fn platform() -> SimConfig {
    let mut cfg = SimConfig::sdsc_blue_horizon();
    cfg.io_servers = NSERVERS;
    cfg
}

fn one_run(cfg: &SimConfig) -> (ServiceRun, PfsCluster) {
    let cluster = PfsCluster::new(cfg.clone(), StorageMode::Full);
    let (specs, shared) = mixed_specs(NSESSIONS, NSHARED, STEPS, VALUES_PER_STEP);
    prepare_shared_datasets(&cluster, &shared, STEPS, VALUES_PER_STEP);
    cluster.reset_timing();
    cfg.profile.reset();
    let run = run_sessions(&cluster, &specs);
    (run, cluster)
}

fn main() {
    println!(
        "# Service smoke: {NSESSIONS} sessions, {NSERVERS} servers, {NSHARED} shared datasets"
    );

    let cfg = platform();
    cfg.profile.set_enabled(true);
    let (run, cluster) = one_run(&cfg);

    // A malformed hint must be rejected loudly (counter + stderr line)
    // without changing behavior.
    {
        let pfs = cluster.mount();
        run_world(1, cfg.clone(), move |comm| {
            let info = Info::new().with("pnc_cache_sise", "65536"); // sic
            let ds = Dataset::open(comm, &pfs, "shared_0.nc", true, &info).expect("audited open");
            ds.close().expect("close");
        });
    }
    let rejected = cfg.profile.hints_rejected();
    let profile = cfg.profile.snapshot();
    let cross_total: u64 = profile
        .servers
        .iter()
        .map(|s| s.cross_file_stall_nanos)
        .sum();
    let aggregate = run.aggregate_mb_s();
    let best = run.max_session_mb_s();

    let cfg2 = platform();
    let (run2, _) = one_run(&cfg2);
    let deterministic = run.aggregate_bytes == run2.aggregate_bytes
        && run.sessions.len() == run2.sessions.len()
        && run
            .sessions
            .iter()
            .zip(&run2.sessions)
            .all(|(a, b)| (a.id, a.bytes, a.end) == (b.id, b.bytes, b.end));

    println!(
        "  aggregate {:.1} MB/s vs best session {:.1} MB/s; cross-file stall {:.3} s; \
         {rejected} hint(s) rejected",
        aggregate,
        best,
        cross_total as f64 / 1e9
    );

    // Every gate is a real comparison; CI fails on any false or missing one.
    let gates = [
        ("hint_rejected", rejected > 0),
        ("cross_file_contention", cross_total > 0),
        ("aggregate_ge_max_session", aggregate >= best),
        ("deterministic", deterministic),
    ];
    write_report(
        "service_smoke.profile.json",
        &Json::obj()
            .with("benchmark", "service_smoke")
            .with("sessions", NSESSIONS as u64)
            .with("servers", NSERVERS as u64)
            .with("datasets", cluster.meta().len() as u64)
            .with("aggregate_mb_s", aggregate)
            .with("max_session_mb_s", best)
            .with("cross_file_stall_total_nanos", cross_total)
            .with("hints_rejected", rejected)
            .with("gates", gates_json(&gates))
            .with("profile", profile.to_json(run.makespan.as_nanos())),
    );
    enforce_gates("service_smoke", &gates);
    println!("service smoke OK");
}
