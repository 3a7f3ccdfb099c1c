//! Failover smoke: the FLASH checkpoint surviving a mid-job server crash.
//!
//! The robustness counterpart to `fault_smoke`'s scenario 3: there, a
//! permanent crash with no redundancy ends the job with one agreed
//! `Exhausted` error on every rank. Here the declustered-parity layer is on
//! (`pnc_parity=enable`), so the same crash escalates to an agreed
//! `ServerLost`, every rank marks the server down at the same operation,
//! and the collective retries in degraded mode:
//!
//! 1. **Baseline** — parity on, fault-free; byte-identical to a parity-off
//!    run (the overlay never touches data placement) and no failover
//!    counters move.
//! 2. **Crash mid-write** — one server dies halfway through the clean
//!    makespan and stays down for 30 virtual seconds. The checkpoint
//!    *completes*: writes bound for the dead server are redirected and
//!    covered by parity on the survivors.
//! 3. **Degraded read-back** — while the server is still down, the whole
//!    file reads back byte-identical, every dead-server chunk XOR-
//!    reconstructed from surviving data + parity.
//! 4. **Online rebuild** — the first access past the restart replays the
//!    degraded-write log onto the returning server and refreshes its
//!    parity rows; the file is byte-identical to the fault-free run.
//!
//! Each check is a named boolean in the report's `"gates"` object; the
//! report is written before the binary fails on a false gate.
//!
//! Usage: `cargo run --release -p pnetcdf-bench --bin failover_smoke`

use flash_io::{writers, BlockMesh, OutputKind};
use hpc_sim::trace::Json;
use hpc_sim::{CrashSpec, FaultPlan, SimConfig, Time};
use pnetcdf::Info;
use pnetcdf_bench::report::{enforce_gates, gates_json, write_report};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

const NPROCS: usize = 64;
const NXB: u64 = 8;
const BLOCKS_PER_PROC: u64 = 4;

fn mesh() -> BlockMesh {
    BlockMesh {
        nxb: NXB,
        blocks_per_proc: BLOCKS_PER_PROC,
        nprocs: NPROCS,
    }
}

/// Run the checkpoint with the given info hints; returns (pfs, makespan).
fn checkpoint(sim: &SimConfig, info: Info) -> (Pfs, Time) {
    let pfs = Pfs::new(sim.clone(), StorageMode::Full);
    let pfs2 = pfs.clone();
    let m = mesh();
    let run = run_world(NPROCS, sim.clone(), move |comm| {
        writers::pnetcdf::write_collective(
            comm,
            &pfs2,
            &m,
            OutputKind::Checkpoint,
            "flash_out",
            &info,
        )
        .expect("checkpoint write failed")
    });
    (pfs, run.makespan)
}

fn file_bytes(pfs: &Pfs) -> Vec<u8> {
    pfs.open("flash_out")
        .expect("checkpoint written")
        .to_bytes()
}

fn main() {
    println!("# Failover smoke: FLASH checkpoint, {NPROCS} procs, parity + server crash");
    // Every gate is a real comparison; CI fails on any false or missing one.
    let mut gates: Vec<(&str, bool)> = Vec::new();

    // 1. Fault-free baseline, parity on — and a parity-off twin to prove
    //    the overlay leaves the data bytes alone.
    let base_sim = SimConfig::asci_frost();
    base_sim.profile.set_enabled(true);
    let (base_pfs, base_makespan) = checkpoint(&base_sim, Info::new().with("pnc_parity", "enable"));
    let clean_bytes = file_bytes(&base_pfs);
    let plain_sim = SimConfig::asci_frost();
    plain_sim.profile.set_enabled(true);
    let (plain_pfs, _) = checkpoint(&plain_sim, Info::new());
    let fo = base_sim.profile.failover_counters();
    let pfo = plain_sim.profile.failover_counters();
    gates.extend([
        (
            "parity_overlay_byte_identical",
            clean_bytes == file_bytes(&plain_pfs),
        ),
        ("baseline_parity_maintained", fo.parity_updates > 0),
        ("baseline_no_epoch", fo.epochs == 0),
        ("baseline_no_degraded_reads", fo.degraded_reads == 0),
        ("parity_off_pays_no_parity", pfo.parity_updates == 0),
    ]);
    println!(
        "  baseline:  {} file bytes in {:.3}s virtual, parity-off twin compared",
        clean_bytes.len(),
        base_makespan.as_secs_f64()
    );

    // 2. Crash one server mid-write; restart 30 virtual seconds later —
    //    far past the retry ladder, so the ranks must escalate to failover
    //    rather than backoff through the outage.
    let crash_at = Time::from_nanos(base_makespan.as_nanos() / 2);
    let restart = crash_at + Time::from_secs_f64(30.0);
    let plan = FaultPlan {
        crashes: vec![CrashSpec {
            server: 0,
            at: crash_at,
            restart: Some(restart),
        }],
        ..FaultPlan::default()
    };
    let crash_sim = SimConfig::asci_frost().builder().faults(plan).build();
    crash_sim.profile.set_enabled(true);
    let (pfs, makespan) = checkpoint(&crash_sim, Info::new().with("pnc_parity", "enable"));
    let fo = crash_sim.profile.failover_counters();
    let fc = crash_sim.profile.fault_counters();
    gates.extend([
        ("degraded_write_before_restart", makespan < restart),
        ("server_failed_over", pfs.down_server() == Some(0)),
        ("one_epoch", fo.epochs == 1),
        (
            "writes_redirected",
            fo.redirected_writes > 0 && fo.redirected_bytes > 0,
        ),
        ("ladder_exhausted", fc.exhausted > 0),
        ("failure_agreed", fc.agreed_errors > 0),
    ]);
    println!(
        "  crash:     checkpoint completed degraded in {:.3}s virtual ({} writes redirected)",
        makespan.as_secs_f64(),
        fo.redirected_writes
    );

    // 3. Degraded read-back while the server is still down: every chunk of
    //    the dead server reconstructs from surviving data + parity.
    let f = pfs.open("flash_out").expect("checkpoint written");
    let t_read = makespan + Time::from_millis(1);
    let mut degraded = vec![0u8; f.size() as usize];
    let read_ok = t_read < restart && f.try_read_at(t_read, 0, &mut degraded).is_ok();
    let fo = crash_sim.profile.failover_counters();
    gates.extend([
        (
            "degraded_read_byte_identical",
            read_ok && degraded == clean_bytes,
        ),
        ("degraded_reads", fo.degraded_reads > 0),
        ("bytes_reconstructed", fo.reconstructed_bytes > 0),
    ]);
    println!(
        "  degraded:  read-back compared ({} bytes reconstructed from parity)",
        fo.reconstructed_bytes
    );

    // 4. First access past the restart triggers the online rebuild; the
    //    server rejoins and the file is byte-identical.
    let mut probe = [0u8; 1];
    let probe_ok = f
        .try_read_at(restart + Time::from_secs_f64(1.0), 0, &mut probe)
        .is_ok();
    let fo = crash_sim.profile.failover_counters();
    gates.extend([
        (
            "rebuild_cleared_mark",
            probe_ok && pfs.down_server().is_none(),
        ),
        ("one_rebuild", fo.rebuilds == 1),
        ("rebuilt_bytes_moved", fo.rebuilt_bytes > 0),
        ("rebuilt_byte_identical", file_bytes(&pfs) == clean_bytes),
    ]);
    println!(
        "  rebuild:   {} bytes replayed in {:.3}s virtual; file compared",
        fo.rebuilt_bytes,
        Time::from_nanos(fo.rebuild_nanos).as_secs_f64()
    );

    let profile = crash_sim.profile.snapshot().to_json(makespan.as_nanos());
    write_report(
        "failover_smoke.profile.json",
        &Json::obj()
            .with("benchmark", "failover_smoke")
            .with("nprocs", NPROCS as u64)
            .with("blocks_per_proc", BLOCKS_PER_PROC)
            .with("degraded_reads", fo.degraded_reads)
            .with("reconstructed_bytes", fo.reconstructed_bytes)
            .with("redirected_writes", fo.redirected_writes)
            .with("rebuilds", fo.rebuilds)
            .with("rebuilt_bytes", fo.rebuilt_bytes)
            .with("gates", gates_json(&gates))
            .with("profile", profile),
    );
    enforce_gates("failover_smoke", &gates);
    println!("failover smoke OK");
}
