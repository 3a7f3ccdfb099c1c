//! The nonblocking `iput_*`/`iget_*` + `wait_all` pipeline: roundtrips
//! across the seven partitioning strategies of the paper's Figure 6,
//! record variables, cross-request aggregation semantics, and — the key
//! contract — byte-for-byte identity with the blocking path.

use hpc_sim::SimConfig;
use pnetcdf::{Dataset, Datatype, Info, NcType, NcmpiError, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

fn cfg() -> SimConfig {
    SimConfig::test_small()
}

/// Which axes a partition splits.
#[derive(Clone, Copy, Debug)]
struct Split {
    z: bool,
    y: bool,
    x: bool,
}

const PARTITIONS: [(&str, Split); 7] = [
    (
        "Z",
        Split {
            z: true,
            y: false,
            x: false,
        },
    ),
    (
        "Y",
        Split {
            z: false,
            y: true,
            x: false,
        },
    ),
    (
        "X",
        Split {
            z: false,
            y: false,
            x: true,
        },
    ),
    (
        "ZY",
        Split {
            z: true,
            y: true,
            x: false,
        },
    ),
    (
        "ZX",
        Split {
            z: true,
            y: false,
            x: true,
        },
    ),
    (
        "YX",
        Split {
            z: false,
            y: true,
            x: true,
        },
    ),
    (
        "ZYX",
        Split {
            z: true,
            y: true,
            x: true,
        },
    ),
];

/// Factor `nprocs` across the split axes, returning per-axis process counts.
fn factors(nprocs: usize, split: Split) -> (u64, u64, u64) {
    let naxes = [split.z, split.y, split.x].iter().filter(|&&b| b).count();
    let mut remaining = nprocs as u64;
    let mut out = [1u64, 1, 1];
    let mut axes: Vec<usize> = Vec::new();
    if split.z {
        axes.push(0);
    }
    if split.y {
        axes.push(1);
    }
    if split.x {
        axes.push(2);
    }
    for (i, &a) in axes.iter().enumerate() {
        let left = naxes - i;
        let mut f = (remaining as f64).powf(1.0 / left as f64).round() as u64;
        while f > 1 && remaining % f != 0 {
            f -= 1;
        }
        out[a] = f.max(1);
        remaining /= out[a];
    }
    out[*axes.last().unwrap()] *= remaining;
    (out[0], out[1], out[2])
}

/// This rank's (start, count) block of a (Z,Y,X) array.
fn block(
    rank: usize,
    (pz, py, px): (u64, u64, u64),
    (nz, ny, nx): (u64, u64, u64),
) -> ([u64; 3], [u64; 3]) {
    let r = rank as u64;
    let iz = r / (py * px);
    let iy = (r / px) % py;
    let ix = r % px;
    (
        [iz * (nz / pz), iy * (ny / py), ix * (nx / px)],
        [nz / pz, ny / py, nx / px],
    )
}

fn value(z: u64, y: u64, x: u64) -> f32 {
    (z * 10000 + y * 100 + x) as f32
}

fn block_values(start: [u64; 3], count: [u64; 3]) -> Vec<f32> {
    let mut vals = Vec::new();
    for dz in 0..count[0] {
        for dy in 0..count[1] {
            for dx in 0..count[2] {
                vals.push(value(start[0] + dz, start[1] + dy, start[2] + dx));
            }
        }
    }
    vals
}

/// Every Figure 6 partition, written with one queued iput per rank and one
/// `wait_all`, read back with queued igets — then the whole file verified
/// element-by-element through the serial reader.
#[test]
fn all_seven_partitions_nonblocking_roundtrip() {
    let (nz, ny, nx) = (4u64, 4, 8);
    let nprocs = 4usize;
    for (name, split) in PARTITIONS {
        let p = factors(nprocs, split);
        let pfs = Pfs::new(cfg(), StorageMode::Full);
        let pfs2 = pfs.clone();
        run_world(nprocs, cfg(), move |c| {
            let mut ds = Dataset::create(c, &pfs2, "p.nc", Version::Cdf1, &Info::new()).unwrap();
            let z = ds.def_dim("z", nz).unwrap();
            let y = ds.def_dim("y", ny).unwrap();
            let x = ds.def_dim("x", nx).unwrap();
            let v = ds.def_var("tt", NcType::Float, &[z, y, x]).unwrap();
            ds.enddef().unwrap();

            let (start, count) = block(c.rank(), p, (nz, ny, nx));
            let vals = block_values(start, count);
            let req = ds.iput_vara(v, &start, &count, &vals).unwrap();
            assert!(!req.is_null());
            assert_eq!(ds.num_pending(), 1);
            ds.wait_all().unwrap();
            assert_eq!(ds.num_pending(), 0);

            // Read back one z plane per rank through the nonblocking path.
            let zplane = c.rank() as u64 % nz;
            let rget = ds.iget_vara(v, &[zplane, 0, 0], &[1, ny, nx]).unwrap();
            ds.wait_all().unwrap();
            let plane: Vec<f32> = ds.take_result(rget).unwrap();
            for (i, &got) in plane.iter().enumerate() {
                let yy = i as u64 / nx;
                let xx = i as u64 % nx;
                assert_eq!(got, value(zplane, yy, xx), "partition {name}");
            }
            // A result can only be taken once.
            assert!(ds.take_result::<f32>(rget).is_err());
            ds.close().unwrap();
        });

        let bytes = pfs.open("p.nc").unwrap().to_bytes();
        let mut f =
            netcdf_serial::NcFile::open(netcdf_serial::MemStore::from_bytes(bytes)).unwrap();
        let v = f.var_id("tt").unwrap();
        let all: Vec<f32> = f.get_var(v).unwrap();
        let mut i = 0;
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    assert_eq!(all[i], value(z, y, x), "partition {name} at ({z},{y},{x})");
                    i += 1;
                }
            }
        }
    }
}

/// The nonblocking path must produce the exact same file bytes as the
/// blocking path, for every partition and for a multi-variable file.
#[test]
fn nonblocking_file_is_byte_identical_to_blocking() {
    let (nz, ny, nx) = (4u64, 4, 8);
    let nprocs = 4usize;
    for (name, split) in PARTITIONS {
        let p = factors(nprocs, split);
        let mut images: Vec<Vec<u8>> = Vec::new();
        for nonblocking in [false, true] {
            let pfs = Pfs::new(cfg(), StorageMode::Full);
            let pfs2 = pfs.clone();
            run_world(nprocs, cfg(), move |c| {
                let mut ds =
                    Dataset::create(c, &pfs2, "b.nc", Version::Cdf1, &Info::new()).unwrap();
                let z = ds.def_dim("z", nz).unwrap();
                let y = ds.def_dim("y", ny).unwrap();
                let x = ds.def_dim("x", nx).unwrap();
                let vf = ds.def_var("tt", NcType::Float, &[z, y, x]).unwrap();
                let vd = ds.def_var("uu", NcType::Double, &[z, y, x]).unwrap();
                let vi = ds.def_var("marker", NcType::Int, &[z]).unwrap();
                ds.enddef().unwrap();

                let (start, count) = block(c.rank(), p, (nz, ny, nx));
                let vals = block_values(start, count);
                let dvals: Vec<f64> = vals.iter().map(|&v| v as f64 + 0.5).collect();
                if nonblocking {
                    // Queue all three variables, flush with ONE wait_all.
                    ds.iput_vara(vf, &start, &count, &vals).unwrap();
                    ds.iput_vara(vd, &start, &count, &dvals).unwrap();
                    ds.iput_var1(vi, &[c.rank() as u64 % nz], 7 + c.rank() as i32)
                        .unwrap();
                    ds.wait_all().unwrap();
                } else {
                    ds.put_vara_all(vf, &start, &count, &vals).unwrap();
                    ds.put_vara_all(vd, &start, &count, &dvals).unwrap();
                    ds.put_var1_all(vi, &[c.rank() as u64 % nz], 7 + c.rank() as i32)
                        .unwrap();
                }
                ds.close().unwrap();
            });
            images.push(pfs.open("b.nc").unwrap().to_bytes());
        }
        assert_eq!(
            images[0], images[1],
            "partition {name}: nonblocking file differs from blocking file"
        );
    }
}

/// Record variables through the nonblocking path: queued record puts grow
/// `numrecs`, one `wait_all` reconciles it across ranks, and gaps fill as
/// zeros exactly as on the blocking path.
#[test]
fn record_variables_nonblocking_roundtrip() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(4, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "r.nc", Version::Cdf1, &Info::new()).unwrap();
        let t = ds.def_dim("time", 0).unwrap();
        let x = ds.def_dim("x", 4).unwrap();
        let a = ds.def_var("a", NcType::Double, &[t, x]).unwrap();
        let b = ds.def_var("b", NcType::Int, &[t, x]).unwrap();
        ds.enddef().unwrap();

        // Each rank queues two records of `a` and one of `b`; a single
        // wait_all writes all of them and reconciles numrecs.
        let r = c.rank() as u64;
        ds.iput_vara(a, &[r, 0], &[1, 4], &[r as f64; 4]).unwrap();
        ds.iput_vara(a, &[r + 4, 0], &[1, 4], &[(r + 4) as f64; 4])
            .unwrap();
        ds.iput_vara(b, &[r, 0], &[1, 4], &[r as i32; 4]).unwrap();
        assert_eq!(ds.num_pending(), 3);
        ds.wait_all().unwrap();
        assert_eq!(ds.numrecs(), 8);

        // Read everything back with queued gets drained by one wait_all.
        let ra = ds.iget_vara(a, &[0, 0], &[8, 4]).unwrap();
        let rb = ds.iget_vara(b, &[0, 0], &[4, 4]).unwrap();
        ds.wait_all().unwrap();
        let va: Vec<f64> = ds.take_result(ra).unwrap();
        for rec in 0..8u64 {
            assert_eq!(&va[rec as usize * 4..][..4], &[rec as f64; 4]);
        }
        let vb: Vec<i32> = ds.take_result(rb).unwrap();
        for rec in 0..4u64 {
            assert_eq!(&vb[rec as usize * 4..][..4], &[rec as i32; 4]);
        }
        ds.close().unwrap();
    });
}

/// Overlapping queued puts resolve in request order (last request wins),
/// and a get queued behind a put of the same region observes the new data.
#[test]
fn aggregation_orders_overlaps_and_write_before_read() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(1, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "o.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 8).unwrap();
        let v = ds.def_var("v", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();

        // Base write, then an overlapping later write punching the middle,
        // then a get of the whole row — all in one batch.
        ds.iput_vara(v, &[0], &[8], &[1i32; 8]).unwrap();
        ds.iput_vara(v, &[2], &[4], &[9i32; 4]).unwrap();
        let rg = ds.iget_vara(v, &[0], &[8]).unwrap();
        ds.wait_all().unwrap();
        let got: Vec<i32> = ds.take_result(rg).unwrap();
        assert_eq!(got, vec![1, 1, 9, 9, 9, 9, 1, 1]);
        ds.close().unwrap();
    });
}

/// Strided, single-element, whole-variable and flexible variants queue and
/// complete; independent mode drains with `wait`.
#[test]
fn variant_coverage_and_independent_wait() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(2, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "v.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 8).unwrap();
        let v = ds.def_var("v", NcType::Int, &[x]).unwrap();
        let w = ds.def_var("w", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();

        // Strided: rank r writes elements r, r+2, r+4, r+6.
        let r = c.rank() as u64;
        ds.iput_vars(v, &[r], &[4], &[2], &[10 + r as i32; 4])
            .unwrap();
        // Flexible put of the whole of `w` from rank 0; rank 1 queues nothing
        // for it — wait_all still completes collectively.
        if c.rank() == 0 {
            let vals: Vec<i32> = (0..8).collect();
            let bytes: Vec<u8> = vals.iter().flat_map(|i| i.to_ne_bytes()).collect();
            let mem = Datatype::contiguous(8, Datatype::int());
            ds.iput_vara_flexible(w, &[0], &[8], &bytes, 1, &mem)
                .unwrap();
        }
        ds.wait_all().unwrap();

        let rv = ds.iget_vars(v, &[r], &[4], &[2]).unwrap();
        let rw = ds
            .iget_vara_flexible(w, &[0], &[8], 1, &Datatype::contiguous(8, Datatype::int()))
            .unwrap();
        let r1 = ds.iget_var1(v, &[r]).unwrap();
        ds.wait_all().unwrap();
        assert_eq!(ds.take_result::<i32>(rv).unwrap(), vec![10 + r as i32; 4]);
        let mut wbuf = [0u8; 32];
        ds.take_result_flexible(rw, &mut wbuf, 1, &Datatype::contiguous(8, Datatype::int()))
            .unwrap();
        let wvals: Vec<i32> = wbuf
            .chunks(4)
            .map(|c| i32::from_ne_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(wvals, (0..8).collect::<Vec<i32>>());
        assert_eq!(ds.take_result::<i32>(r1).unwrap(), vec![10 + r as i32]);

        // Independent mode: queue a put and a whole-variable get, drain
        // with wait() — no collective round required.
        ds.begin_indep_data().unwrap();
        if c.rank() == 0 {
            ds.iput_var1(v, &[0], 99i32).unwrap();
            let rall = ds.iget_var(v).unwrap();
            ds.wait().unwrap();
            let all: Vec<i32> = ds.take_result(rall).unwrap();
            assert_eq!(all[0], 99);
        }
        ds.end_indep_data().unwrap();
        ds.close().unwrap();
    });
}

/// Mode transitions and header operations refuse while requests are
/// pending, and `close` flushes the queue instead of dropping it.
#[test]
fn pending_requests_guard_mode_changes_and_flush_on_close() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let pfs2 = pfs.clone();
    run_world(2, cfg(), move |c| {
        let mut ds = Dataset::create(c, &pfs2, "g.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 4).unwrap();
        let v = ds.def_var("v", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();

        let r = c.rank() as u64;
        ds.iput_vara(v, &[r * 2], &[2], &[r as i32 + 1; 2]).unwrap();
        // With a request pending, redef/sync/begin_indep_data all refuse.
        assert!(matches!(ds.redef(), Err(NcmpiError::InvalidArgument(_))));
        assert!(matches!(ds.sync(), Err(NcmpiError::InvalidArgument(_))));
        assert!(matches!(
            ds.begin_indep_data(),
            Err(NcmpiError::InvalidArgument(_))
        ));
        // Queueing in define mode is refused too (after draining).
        // close() flushes the still-pending put collectively.
        ds.close().unwrap();
    });
    let bytes = pfs.open("g.nc").unwrap().to_bytes();
    let mut f = netcdf_serial::NcFile::open(netcdf_serial::MemStore::from_bytes(bytes)).unwrap();
    let v = f.var_id("v").unwrap();
    let all: Vec<i32> = f.get_var(v).unwrap();
    assert_eq!(all, vec![1, 1, 2, 2], "close() must flush pending puts");
}

/// `iput_var` on a fixed variable whose length doesn't divide into whole
/// records reports `InvalidArgument` instead of silently truncating.
#[test]
fn whole_variable_length_mismatch_errors() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(1, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "w.nc", Version::Cdf1, &Info::new()).unwrap();
        let t = ds.def_dim("time", 0).unwrap();
        let x = ds.def_dim("x", 4).unwrap();
        let v = ds.def_var("v", NcType::Int, &[t, x]).unwrap();
        ds.enddef().unwrap();
        // 6 values is one and a half records.
        let err = ds.iput_var(v, &[0i32; 6]).unwrap_err();
        assert!(matches!(err, NcmpiError::InvalidArgument(_)));
        ds.close().unwrap();
    });
}

/// Per-rank virtual nanoseconds one access path takes on a 4-rank
/// `test_small` world: an 8×64 `int` array (two rows per rank, written
/// before the clock starts) plus a record variable. Independent calls take
/// turns between barriers so the shared servers see them in rank order.
fn path_clock(path: &'static str) -> Vec<u64> {
    let cfg = SimConfig::test_small();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let run = run_world(4, cfg, move |c| {
        let mut ds = Dataset::create(c, &pfs, "g.nc", Version::Cdf1, &Info::new()).unwrap();
        let t = ds.def_dim("t", 0).unwrap();
        let y = ds.def_dim("y", 8).unwrap();
        let x = ds.def_dim("x", 64).unwrap();
        let v = ds.def_var("v", NcType::Int, &[y, x]).unwrap();
        let r = ds.def_var("r", NcType::Float, &[t, x]).unwrap();
        ds.enddef().unwrap();
        let rank = c.rank() as u64;
        let (row, peer) = (rank * 2, (rank + 1) % 4 * 2);
        let vals =
            |row: u64, n: u64| -> Vec<i32> { (0..n).map(|i| (row * 64 + i) as i32).collect() };
        ds.put_vara_all(v, &[row, 0], &[2, 64], &vals(row, 128))
            .unwrap();
        let mem = Datatype::contiguous(128, Datatype::int());
        let indep = matches!(path, "put_vara" | "get_vars" | "wait");
        if indep {
            ds.begin_indep_data().unwrap();
        }
        c.barrier().unwrap();
        let access = |ds: &mut Dataset| match path {
            "put_vara_all" => ds
                .put_vara_all(v, &[row, 0], &[2, 64], &vals(row, 128))
                .unwrap(),
            "get_vara_all" => {
                let got: Vec<i32> = ds.get_vara_all(v, &[peer, 0], &[2, 64]).unwrap();
                assert_eq!(got, vals(peer, 128));
            }
            "put_vara" => ds.put_vara(v, &[row, 8], &[2, 16], &[7i32; 32]).unwrap(),
            "get_vars" => {
                let got: Vec<i32> = ds.get_vars(v, &[peer, 0], &[2, 16], &[1, 4]).unwrap();
                assert_eq!(got[1], (peer * 64 + 4) as i32);
            }
            "put_vara_all record" => ds
                .put_vara_all(r, &[rank, 0], &[1, 64], &[1.5f32; 64])
                .unwrap(),
            "put_vara_all_flexible" => {
                let bytes: Vec<u8> = vals(row, 128)
                    .iter()
                    .flat_map(|v| v.to_ne_bytes())
                    .collect();
                ds.put_vara_all_flexible(v, &[row, 0], &[2, 64], &bytes, 1, &mem)
                    .unwrap();
            }
            "get_vara_all_flexible" => {
                let mut buf = vec![0u8; 512];
                ds.get_vara_all_flexible(v, &[peer, 0], &[2, 64], &mut buf, 1, &mem)
                    .unwrap();
                assert_eq!(buf[..4], (peer as i32 * 64).to_ne_bytes());
            }
            "wait_all" => {
                ds.iput_vara(v, &[row, 0], &[1, 64], &vals(row, 64))
                    .unwrap();
                ds.iput_vara(v, &[row + 1, 0], &[1, 64], &vals(row + 1, 64))
                    .unwrap();
                ds.iput_vara(r, &[rank, 0], &[1, 64], &[2.5f32; 64])
                    .unwrap();
                let get = ds.iget_vara(v, &[peer, 0], &[2, 64]).unwrap();
                ds.wait_all().unwrap();
                assert_eq!(ds.take_result::<i32>(get).unwrap(), vals(peer, 128));
            }
            "wait_all one put" => {
                ds.iput_vara(v, &[row, 0], &[2, 64], &vals(row, 128))
                    .unwrap();
                ds.wait_all().unwrap();
            }
            "wait" => {
                ds.iput_vara(v, &[row, 8], &[2, 16], &[7i32; 32]).unwrap();
                let get = ds.iget_vara(v, &[peer, 0], &[1, 64]).unwrap();
                ds.wait().unwrap();
                assert_eq!(ds.take_result::<i32>(get).unwrap().len(), 64);
            }
            _ => unreachable!("unknown access path {path}"),
        };
        let mut took = 0;
        for turn in 0..4 {
            if !indep || turn == c.rank() {
                let t0 = c.now();
                access(&mut ds);
                took = (c.now() - t0).as_nanos();
            }
            if !indep {
                break;
            }
            c.barrier().unwrap();
        }
        if indep {
            ds.end_indep_data().unwrap();
        }
        ds.close().unwrap();
        took
    });
    run.results
}

/// Golden virtual clock of the core access paths, recorded before the
/// blocking and nonblocking calls were folded into one completion path
/// (two kinds of row re-recorded since, as marked). Any change here is a
/// change to the simulated testbed and must be re-baselined deliberately.
#[test]
fn golden_core_clock() {
    #[rustfmt::skip]
    let cases = [
        ("put_vara_all", [1195928; 4]),
        ("get_vara_all", [1209566; 4]),
        ("put_vara", [2250746; 4]),
        ("get_vars", [1122756, 1123776, 1122756, 1123776]),
        ("put_vara_all record", [1209830; 4]),
        // Re-recorded (were 1155928 and 1169566): flexible collectives now
        // agree on their lowering and their outcome like the typed calls.
        ("put_vara_all_flexible", [1195928; 4]),
        ("get_vara_all_flexible", [1209566; 4]),
        ("wait_all", [2387845; 4]),
        // Re-recorded (were 1196078 and 3372743): a queue of one coalesced
        // put is written from its own buffer, so no merge copy is charged.
        ("wait_all one put", [1195976; 4]),
        ("wait", [3372717; 4]),
    ];
    let mut bad = Vec::new();
    for (path, want) in cases {
        let got = path_clock(path);
        if got != want {
            bad.push(format!("{path}: got {got:?}, want {want:?}"));
        }
    }
    assert!(bad.is_empty(), "golden clock moved:\n{}", bad.join("\n"));
}
