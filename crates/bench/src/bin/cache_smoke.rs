//! Client-cache smoke: the FLASH checkpoint through the page cache.
//!
//! Three runs of the Figure 7 checkpoint workload (64 processors, 8³
//! blocks, Frost-like platform), written through the independent per-block
//! path FLASH emits natively:
//!
//! 1. **Collective** — the paper's aggregated port (reference bytes).
//! 2. **Independent, uncached** — per-block `put_vara`s straight to the
//!    PFS; must be byte-identical to the collective file.
//! 3. **Independent, cached** — same accesses with `pnc_cache=enable` and
//!    a deliberately small budget (one stripe-sized page) so eviction,
//!    write-behind and coalescing all fire. Must be byte-identical again,
//!    faster than uncached, with nonzero hit and write-behind counters and
//!    a phase breakdown that still explains the whole makespan.
//!
//! Usage: `cargo run --release -p pnetcdf-bench --bin cache_smoke`

use flash_io::{run_flash_io_mode, FlashConfig, IoLibrary, OutputKind, WriteMode};
use hpc_sim::trace::Json;
use hpc_sim::SimConfig;
use pnetcdf_bench::report::{coverage_within, enforce_gates, gates_json, write_report};
use pnetcdf_pfs::{Pfs, StorageMode};

const NPROCS: usize = 64;
const NXB: u64 = 8;
const BLOCKS_PER_PROC: u64 = 4;

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
    println!("# Client-cache smoke: FLASH checkpoint, {NPROCS} procs, Frost platform");

    let (reference, coll) = checkpoint_bytes(SimConfig::asci_frost(), WriteMode::Collective);
    println!(
        "  collective: {:.1} MB/s, {} file bytes",
        coll.bandwidth_mb_s,
        reference.len()
    );

    let (uncached_bytes, uncached) =
        checkpoint_bytes(SimConfig::asci_frost(), WriteMode::uncached());
    println!("  uncached:   {:.1} MB/s", uncached.bandwidth_mb_s);

    // One 256 KiB page of budget: every variable's flush evicts the last.
    let sim = SimConfig::asci_frost();
    sim.profile.set_enabled(true);
    let (cached_bytes, cached) = checkpoint_bytes(sim.clone(), WriteMode::cached(256 * 1024));
    let cc = sim.profile.cache_counters();
    let profile = sim.profile.snapshot().to_json(cached.time.as_nanos());
    println!(
        "  cached:     {:.1} MB/s; {} hits, {} evictions, {} flushed",
        cached.bandwidth_mb_s,
        cc.hits,
        cc.evictions,
        pnetcdf_bench::table::fmt_bytes(cc.write_behind_bytes)
    );

    // Every gate is a real comparison; CI fails on any false or missing one.
    let gates = [
        ("uncached_byte_identical", uncached_bytes == reference),
        ("cached_byte_identical", cached_bytes == reference),
        ("cache_hits", cc.hits > 0),
        (
            "write_behind",
            cc.write_behind_flushes > 0 && cc.write_behind_bytes > 0,
        ),
        ("evictions", cc.evictions > 0),
        (
            "cache_faster",
            cached.bandwidth_mb_s > uncached.bandwidth_mb_s,
        ),
        ("phase_coverage_exact", coverage_within(&profile, 0.05)),
    ];
    write_report(
        "cache_smoke.profile.json",
        &Json::obj()
            .with("benchmark", "cache_smoke")
            .with("nprocs", NPROCS as u64)
            .with("blocks_per_proc", BLOCKS_PER_PROC)
            .with("collective_mb_s", coll.bandwidth_mb_s)
            .with("uncached_mb_s", uncached.bandwidth_mb_s)
            .with("cached_mb_s", cached.bandwidth_mb_s)
            .with("gates", gates_json(&gates))
            .with("profile", profile),
    );
    enforce_gates("cache_smoke", &gates);
    println!("cache smoke OK");
}
