//! Property-based identity of the two collective schedules: for arbitrary
//! run lists, the pipelined rounds (`pnc_cb_pipeline=enable`) must leave
//! exactly the same bytes in the file — and return exactly the same bytes
//! to readers — as the serial exchange-then-access schedule, at the MPI-IO
//! layer and through PnetCDF's nonblocking `wait_all` path. Also exercises
//! the request-parcel codec round-trip both share, and pins the exact
//! virtual clock of every schedule (`golden_virtual_clock`).

use proptest::collection::vec;
use proptest::prelude::*;

use hpc_sim::SimConfig;
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_mpio::twophase::{decode_req, encode_read_req, encode_write_req};
use pnetcdf_mpio::{MpiFile, OpenMode, Run};
use pnetcdf_pfs::{Pfs, StorageMode};

/// Sorted, disjoint, nonempty run lists within a small region.
fn arb_runs() -> impl Strategy<Value = Vec<Run>> {
    vec((0u64..700, 1u64..50), 1..10).prop_map(|mut raw| {
        raw.sort();
        let mut out: Vec<Run> = Vec::new();
        let mut next_free = 0u64;
        for (off, len) in raw {
            let off = off.max(next_free) + 1; // strictly disjoint with gaps
            out.push((off, len));
            next_free = off + len;
        }
        out
    })
}

fn data_for(runs: &[Run], seed: u8) -> Vec<u8> {
    let total: u64 = runs.iter().map(|r| r.1).sum();
    (0..total)
        .map(|i| (i as u8).wrapping_mul(41).wrapping_add(seed))
        .collect()
}

/// Give each rank a private region so concurrent writes stay defined;
/// regions still interleave across aggregator file domains.
fn rebase(per_rank: &[Vec<Run>]) -> Vec<Vec<Run>> {
    per_rank
        .iter()
        .enumerate()
        .map(|(r, runs)| {
            let base = r as u64 * 2048;
            let mut next_free = base;
            runs.iter()
                .map(|&(off, len)| {
                    let o = (base + off).max(next_free);
                    next_free = o + len;
                    (o, len)
                })
                .collect()
        })
        .collect()
}

fn hints(cb_buffer: usize, pipeline: bool) -> Info {
    let info = Info::new().with("cb_buffer_size", &cb_buffer.to_string());
    if pipeline {
        info.with("pnc_cb_pipeline", "enable")
    } else {
        info.with("pnc_cb_pipeline", "disable")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parcel_codec_roundtrips(runs in arb_runs(), seed in any::<u8>(), trace_id in any::<u64>()) {
        let data = data_for(&runs, seed);
        let write_parcel = encode_write_req(&runs, &data, trace_id);
        let (r2, d2, id2) = decode_req(&write_parcel).unwrap();
        prop_assert_eq!(&r2, &runs);
        prop_assert_eq!(d2, &data[..]);
        prop_assert_eq!(id2, trace_id);
        let read_parcel = encode_read_req(&runs, trace_id);
        let (r3, d3, id3) = decode_req(&read_parcel).unwrap();
        prop_assert_eq!(&r3, &runs);
        prop_assert!(d3.is_empty());
        prop_assert_eq!(id3, trace_id);
    }

    #[test]
    fn pipelined_write_bytes_equal_serial(
        per_rank in vec(arb_runs(), 3..5),
        cb_buffer in 16usize..384,
    ) {
        let cfg = SimConfig::test_small();
        let n = per_rank.len();
        let rank_runs = rebase(&per_rank);

        let write = |pipeline: bool| {
            let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
            let pfs_in = pfs.clone();
            let rank_runs = rank_runs.clone();
            let info = hints(cb_buffer, pipeline);
            run_world(n, cfg.clone(), move |c| {
                let f = MpiFile::open(c, &pfs_in, "t", OpenMode::Create, &info).unwrap();
                let runs = &rank_runs[c.rank()];
                let data = data_for(runs, c.rank() as u8);
                f.write_runs_at_all(runs, &data).unwrap();
            });
            pfs.open("t").unwrap().to_bytes()
        };
        prop_assert_eq!(write(true), write(false));
    }

    #[test]
    fn pipelined_read_bytes_equal_serial(
        per_rank in vec(arb_runs(), 3..5),
        cb_buffer in 16usize..384,
    ) {
        let cfg = SimConfig::test_small();
        let n = per_rank.len();
        let rank_runs = rebase(&per_rank);
        let max_end = rank_runs.iter().flatten().map(|&(o, l)| o + l).max().unwrap();
        let content: Vec<u8> = (0..max_end).map(|i| (i % 249) as u8).collect();

        let read = |pipeline: bool| {
            let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
            pfs.create("t").import_bytes(&content);
            let rank_runs = rank_runs.clone();
            let info = hints(cb_buffer, pipeline);
            let run = run_world(n, cfg.clone(), move |c| {
                let f = MpiFile::open(c, &pfs, "t", OpenMode::ReadOnly, &info).unwrap();
                f.read_runs_at_all(&rank_runs[c.rank()]).unwrap()
            });
            run.results
        };
        let pipelined = read(true);
        let serial = read(false);
        prop_assert_eq!(&pipelined, &serial);
        // Both must also be the seeded pattern.
        for (rank, runs) in rank_runs.iter().enumerate() {
            let mut want = Vec::new();
            for &(off, len) in runs {
                want.extend_from_slice(&content[off as usize..(off + len) as usize]);
            }
            prop_assert_eq!(&pipelined[rank], &want);
        }
    }
}

/// The engines must also agree end to end through PnetCDF: aggregated
/// nonblocking puts flushed by one `wait_all`, then read back — same file
/// bytes, same values, under both hint settings.
#[test]
fn wait_all_results_identical_across_engines() {
    const NPROCS: usize = 4;
    const PER_RANK: u64 = 300; // not stripe-aligned: ragged domains
    const CHUNKS: u64 = 3;
    let cfg = SimConfig::test_small();

    let run = |pipeline: bool| {
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let pfs_in = pfs.clone();
        let info = hints(512, pipeline);
        let run = run_world(NPROCS, cfg.clone(), move |comm| {
            let mut ds = Dataset::create(comm, &pfs_in, "id.nc", Version::Cdf1, &info).unwrap();
            let d = ds.def_dim("x", NPROCS as u64 * PER_RANK).unwrap();
            let v = ds.def_var("v", NcType::Float, &[d]).unwrap();
            ds.enddef().unwrap();
            let r = comm.rank() as u64;
            // Several queued puts per rank, merged by one wait_all.
            let chunk = PER_RANK / CHUNKS;
            for i in 0..CHUNKS {
                let start = r * PER_RANK + i * chunk;
                let count = if i == CHUNKS - 1 {
                    PER_RANK - i * chunk
                } else {
                    chunk
                };
                let vals: Vec<f32> = (0..count).map(|j| (start + j) as f32).collect();
                ds.iput_vara(v, &[start], &[count], &vals).unwrap();
            }
            ds.wait_all().unwrap();
            // Read the neighbour's slice back collectively.
            let peer = ((r + 1) % NPROCS as u64) * PER_RANK;
            let req = ds.iget_vara(v, &[peer], &[PER_RANK]).unwrap();
            ds.wait_all().unwrap();
            let got: Vec<f32> = ds.take_result(req).unwrap();
            ds.close().unwrap();
            got
        });
        (pfs.open("id.nc").unwrap().to_bytes(), run.results)
    };

    let (bytes_p, vals_p) = run(true);
    let (bytes_s, vals_s) = run(false);
    assert_eq!(bytes_p, bytes_s, "engines wrote different file bytes");
    assert_eq!(vals_p, vals_s, "engines returned different get results");
    for (rank, got) in vals_p.iter().enumerate() {
        let peer = ((rank as u64 + 1) % NPROCS as u64) * PER_RANK;
        let want: Vec<f32> = (0..PER_RANK).map(|j| (peer + j) as f32).collect();
        assert_eq!(got, &want, "rank {rank} read wrong values");
    }
}

/// One golden-clock case: which direction, which engine settings, and the
/// exact virtual completion time plus two-phase counters it must produce.
struct Golden {
    name: &'static str,
    write: bool,
    cb_buffer: usize,
    pipeline: bool,
    affinity: bool,
    /// Completion time of the collective on every rank, in nanoseconds.
    nanos: u64,
    windows: u64,
    rmw_windows: u64,
    exchange_wire_bytes: u64,
    pipelined_rounds: u64,
    overlap_saved_nanos: u64,
}

/// Rank `r`'s access: 14 short runs with holes between them (so windows
/// read-modify-write) over the first seven 1 KiB stripes; rank 3 also
/// covers the eighth stripe whole, which gives one fully covered window.
fn golden_runs(r: u64) -> Vec<Run> {
    let mut runs: Vec<Run> = (0..14).map(|k| (k * 512 + r * 100, 64)).collect();
    if r == 3 {
        runs.push((7168, 1024));
    }
    runs
}

/// Run one golden case on a fresh 4-rank `test_small` world and return
/// `(completion nanos, twophase counters)`.
fn golden_run(g: &Golden) -> (u64, hpc_sim::trace::TwophaseCounters) {
    let cfg = SimConfig::test_small();
    cfg.profile.set_enabled(true);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let content: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
    pfs.create("g").import_bytes(&content);
    let mut info = hints(g.cb_buffer, g.pipeline).with("cb_nodes", "4");
    if !g.affinity {
        info = info.with("pnc_cb_affinity", "disable");
    }
    let write = g.write;
    let run = run_world(4, cfg.clone(), move |c| {
        let f = MpiFile::open(c, &pfs, "g", OpenMode::ReadWrite, &info).unwrap();
        c.barrier().unwrap();
        if c.rank() == 0 {
            c.config().profile.reset();
        }
        c.barrier().unwrap();
        let t = c.now();
        let runs = golden_runs(c.rank() as u64);
        if write {
            let data = data_for(&runs, c.rank() as u8);
            f.write_runs_at_all(&runs, &data).unwrap();
        } else {
            let got = f.read_runs_at_all(&runs).unwrap();
            let mut want = Vec::new();
            for &(off, len) in &runs {
                want.extend_from_slice(&content[off as usize..(off + len) as usize]);
            }
            assert_eq!(got, want, "rank {} read wrong bytes", c.rank());
        }
        (c.now() - t).as_nanos()
    });
    let nanos = run.results[0];
    assert!(
        run.results.iter().all(|&t| t == nanos),
        "{}: ranks disagree on completion time: {:?}",
        g.name,
        run.results
    );
    (nanos, cfg.profile.snapshot().twophase)
}

/// Golden virtual clock: the exact completion time and counters of every
/// engine configuration, recorded before the engines were folded into one
/// round scheduler. Any change here is a change to the simulated testbed
/// and must be re-baselined deliberately.
#[test]
fn golden_virtual_clock() {
    #[rustfmt::skip]
    let cases = [
        // name, write, cb_buffer, pipeline, affinity, nanos, windows, rmw, wire, rounds, saved
        ("write serial affine", true, 1024, false, true, 4541872, 8, 7, 2688, 0, 0),
        ("write serial contiguous", true, 1024, false, false, 6792322, 8, 7, 2688, 0, 0),
        ("write pipelined affine", true, 1024, true, true, 4551626, 8, 7, 2688, 2, 1129884),
        ("write pipelined contiguous", true, 1024, true, false, 5702678, 8, 7, 2688, 2, 1129884),
        ("write one-round affine", true, 4096, true, true, 3421873, 4, 4, 2688, 0, 0),
        ("write one-round contiguous", true, 4096, true, false, 4538103, 4, 4, 2688, 0, 0),
        ("read serial affine", false, 1024, false, true, 3399945, 8, 0, 2688, 0, 0),
        ("read serial contiguous", false, 1024, false, false, 3399945, 8, 0, 2688, 0, 0),
        ("read pipelined affine", false, 1024, true, true, 3399561, 8, 0, 2688, 2, 20384),
        ("read pipelined contiguous", false, 1024, true, false, 3399561, 8, 0, 2688, 2, 20384),
        ("read one-round affine", false, 4096, true, true, 2273375, 4, 0, 2688, 0, 0),
        ("read one-round contiguous", false, 4096, true, false, 2273375, 4, 0, 2688, 0, 0),
    ];
    let mut bad = Vec::new();
    for (name, write, cb_buffer, pipeline, affinity, nanos, windows, rmw, wire, rounds, saved) in
        cases
    {
        let g = Golden {
            name,
            write,
            cb_buffer,
            pipeline,
            affinity,
            nanos,
            windows,
            rmw_windows: rmw,
            exchange_wire_bytes: wire,
            pipelined_rounds: rounds,
            overlap_saved_nanos: saved,
        };
        let (got, t) = golden_run(&g);
        let got_row = (
            got,
            t.windows,
            t.rmw_windows,
            t.exchange_wire_bytes,
            t.pipelined_rounds,
            t.overlap_saved_nanos,
        );
        let want_row = (
            g.nanos,
            g.windows,
            g.rmw_windows,
            g.exchange_wire_bytes,
            g.pipelined_rounds,
            g.overlap_saved_nanos,
        );
        if got_row != want_row {
            bad.push(format!("{name}: got {got_row:?}, want {want_row:?}"));
        }
    }
    assert!(bad.is_empty(), "golden clock moved:\n{}", bad.join("\n"));
}
