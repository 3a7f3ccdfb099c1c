//! Two-phase pipelining smoke: serial vs pipelined collective engines.
//!
//! Three runs of the Figure 7 checkpoint workload (64 processors, 8³
//! blocks, Frost-like platform) with full byte storage:
//!
//! 1. **Default collective** — the stock hint set (reference bytes).
//! 2. **Serial** — `pnc_cb_pipeline=disable` with a 512 KiB collective
//!    buffer, so the engine runs many rounds strictly after one monolithic
//!    exchange. Must be byte-identical to the reference.
//! 3. **Pipelined** — same buffer with pipelining on: round `j+1`'s
//!    exchange overlaps round `j`'s disk access. Must be byte-identical
//!    again, no slower than serial in simulated time, with nonzero
//!    `overlap_saved_ns` and a phase breakdown that still explains the
//!    whole makespan.
//!
//! Each of these checks is a named boolean in the report's `"gates"`
//! object; the report is written before the binary fails on a false gate,
//! so a failing run still leaves its numbers behind.
//!
//! Usage: `cargo run --release -p pnetcdf-bench --bin twophase_smoke`

use flash_io::{run_flash_io_mode, FlashConfig, IoLibrary, OutputKind, WriteMode};
use hpc_sim::trace::Json;
use hpc_sim::SimConfig;
use pnetcdf_bench::report::{coverage_within, enforce_gates, gates_json, write_report};
use pnetcdf_pfs::{Pfs, StorageMode};

const NPROCS: usize = 64;
const NXB: u64 = 8;
const BLOCKS_PER_PROC: u64 = 8;
/// Small enough that each aggregator's file domain spans many rounds.
const CB_BUFFER: usize = 512 * 1024;

fn checkpoint_bytes(sim: SimConfig, mode: WriteMode) -> (Vec<u8>, flash_io::FlashResult) {
    let config = FlashConfig {
        nxb: NXB,
        nprocs: NPROCS,
        kind: OutputKind::Checkpoint,
        lib: IoLibrary::Pnetcdf,
        blocks_per_proc: BLOCKS_PER_PROC,
        attributes: false,
    };
    let pfs = Pfs::new(sim.clone(), StorageMode::Full);
    let res = run_flash_io_mode(config, sim, &pfs, mode);
    let bytes = pfs
        .open("flash_out")
        .expect("checkpoint written")
        .to_bytes();
    (bytes, res)
}

fn main() {
    println!("# Two-phase pipelining smoke: FLASH checkpoint, {NPROCS} procs, Frost platform");

    let (reference, default) = checkpoint_bytes(SimConfig::asci_frost(), WriteMode::Collective);
    println!(
        "  default:   {:.1} MB/s, {} file bytes",
        default.bandwidth_mb_s,
        reference.len()
    );

    let (serial_bytes, serial) = checkpoint_bytes(
        SimConfig::asci_frost(),
        WriteMode::collective_hints(CB_BUFFER, false),
    );
    println!(
        "  serial:    {:.1} MB/s ({} KiB buffer)",
        serial.bandwidth_mb_s,
        CB_BUFFER / 1024
    );

    let sim = SimConfig::asci_frost();
    sim.profile.set_enabled(true);
    let (pipelined_bytes, pipelined) =
        checkpoint_bytes(sim.clone(), WriteMode::collective_hints(CB_BUFFER, true));
    let snap = sim.profile.snapshot();
    let tp = snap.twophase;
    let profile = snap.to_json(pipelined.time.as_nanos());
    println!(
        "  pipelined: {:.1} MB/s; {} rounds, {:.3} s overlap hidden",
        pipelined.bandwidth_mb_s,
        tp.pipelined_rounds,
        tp.overlap_saved_nanos as f64 / 1e9
    );

    // Every gate is a real comparison; CI fails on any false or missing one.
    let gates = [
        ("serial_byte_identical", serial_bytes == reference),
        ("pipelined_byte_identical", pipelined_bytes == reference),
        ("multi_round", tp.pipelined_rounds >= 2),
        ("overlap_saved_nonzero", tp.overlap_saved_nanos > 0),
        ("pipelined_not_slower", pipelined.time <= serial.time),
        ("phase_coverage_exact", coverage_within(&profile, 0.05)),
        ("cb_nodes_recorded", tp.cb_nodes >= 1),
        (
            "server_pipeline_engaged",
            !snap.servers.is_empty()
                && snap.servers.iter().all(|s| {
                    s.nic_busy_nanos > 0
                        && s.disk_busy_nanos > 0
                        && s.overlap_nanos > 0
                        && s.max_queue_depth >= 1
                }),
        ),
    ];
    write_report(
        "twophase_smoke.profile.json",
        &Json::obj()
            .with("benchmark", "twophase_smoke")
            .with("nprocs", NPROCS as u64)
            .with("blocks_per_proc", BLOCKS_PER_PROC)
            .with("cb_buffer_size", CB_BUFFER as u64)
            .with("default_mb_s", default.bandwidth_mb_s)
            .with("serial_mb_s", serial.bandwidth_mb_s)
            .with("pipelined_mb_s", pipelined.bandwidth_mb_s)
            .with("rounds", tp.pipelined_rounds)
            .with("overlap_saved_ns", tp.overlap_saved_nanos)
            .with("gates", gates_json(&gates))
            .with("profile", profile),
    );
    enforce_gates("twophase_smoke", &gates);
    println!("twophase smoke OK");
}
