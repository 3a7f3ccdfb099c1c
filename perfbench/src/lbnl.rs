//! `lbnl_rw`: the paper's Figure 6 LBNL test.
//!
//! `tt(Z,Y,X)` of `f32` at 512³ (512 MB), ZYX-partitioned over 8 ranks on
//! the SDSC Blue Horizon platform (12 servers) with `StorageMode::Full`:
//! one blocking `put_vara_all`, then `get_vara_all` in the same open
//! dataset, as the Figure 6 harness does, then a check of the read-back.
//! The same collective layers as `flash_ckpt`, but blocking and in both
//! directions, with the PFS storing every byte.

use std::time::Instant;

use hpc_sim::{SimConfig, Time};
use netcdf_serial::NcFile;
use pnetcdf::{Dataset, Info, NcType, NcmpiResult, Version};
use pnetcdf_bench::{block_of, grid_for, Partition};
use pnetcdf_format::layout::access_runs;
use pnetcdf_mpi::Comm;
use pnetcdf_pfs::{Pfs, PosixSim, StorageMode};

use crate::ladder::{self, Unit, Units};
use crate::probe::{self, median_of, per_iter_max, SpanLog};
use crate::report::{sim_mb_s, Outcome};
use crate::world::{run_worlds, Ctl, Iter, IterRec, Plan, Stage};
use crate::{Opts, Scale};

const PATH: &str = "tt.nc";

#[derive(Clone, Copy, Debug)]
struct Params {
    nprocs: usize,
    /// (Z, Y, X).
    dims: [u64; 3],
}

impl Params {
    fn of(scale: Scale) -> Params {
        match scale {
            Scale::Full => Params {
                nprocs: 8,
                dims: [512, 512, 512],
            },
            Scale::Small => Params {
                nprocs: 2,
                dims: [16, 16, 16],
            },
        }
    }

    fn payload(&self) -> u64 {
        self.dims.iter().product::<u64>() * 4
    }

    /// This rank's block of the ZYX partition, cut as the Figure 6
    /// harness cuts it.
    fn block(&self, rank: usize) -> ([u64; 3], [u64; 3]) {
        let [z, y, x] = self.dims;
        block_of(rank, grid_for(Partition::ZYX, self.nprocs), (z, y, x))
    }
}

/// The value of `tt` at a global element index.
fn value(seed: u64, i: u64) -> f32 {
    probe::value_f32(seed, i)
}

/// This rank's block of `tt`, generated from the seed.
fn generate(seed: u64, p: &Params, rank: usize) -> Vec<f32> {
    let (s, c) = p.block(rank);
    let [_, ny, nx] = p.dims;
    let mut out = Vec::with_capacity((c[0] * c[1] * c[2]) as usize);
    for z in s[0]..s[0] + c[0] {
        for y in s[1]..s[1] + c[1] {
            let row = (z * ny + y) * nx;
            out.extend((s[2]..s[2] + c[2]).map(|x| value(seed, row + x)));
        }
    }
    out
}

/// Create `path` holding `tt(level, latitude, longitude)` of `f32`, as the
/// LBNL test defines it, and leave define mode.
pub(crate) fn define_tt(
    comm: &Comm,
    pfs: &Pfs,
    path: &str,
    dims: [u64; 3],
) -> NcmpiResult<(Dataset, usize)> {
    let mut ds = Dataset::create(comm, pfs, path, Version::Cdf2, &Info::new())?;
    let z = ds.def_dim("level", dims[0])?;
    let y = ds.def_dim("latitude", dims[1])?;
    let x = ds.def_dim("longitude", dims[2])?;
    let tt = ds.def_var("tt", NcType::Float, &[z, y, x])?;
    ds.enddef()?;
    Ok((ds, tt))
}

/// One write + read of `tt`.
#[allow(clippy::too_many_arguments)]
fn iteration(
    comm: &Comm,
    ctl: &Ctl,
    pfs: &Pfs,
    stage: Stage,
    it: usize,
    block: &[f32],
    log: &mut SpanLog,
    p: &Params,
    units: &Units,
) -> IterRec {
    let rank = comm.rank();
    let probe = stage == Stage::Probe;
    let mut rec = IterRec::new(stage);
    let root = log.open("lbnl_rw.iteration", it, None);
    let pid = root.id;
    let (start, count) = p.block(rank);

    let w0 = log.now_ns();
    let Ok((mut ds, tt)) = log.call("core.define", it, pid, || {
        define_tt(comm, pfs, PATH, p.dims)
    }) else {
        rec.check(false);
        log.close(root);
        return rec;
    };
    if probe {
        ctl.mem_begin(comm);
    }
    let v0 = comm.now();
    let r = log.call("core.put_vara_all", it, pid, || {
        ds.put_vara_all(tt, &start, &count, block)
    });
    rec.call(r);
    rec.sim_write = (comm.now() - v0).as_nanos();
    rec.write = (w0, log.now_ns());
    if probe {
        ctl.mem_end(comm, "core.put_vara_all");
    }
    if stage == Stage::Spanned && !units.is_published(rank) {
        let h = ds.header();
        let runs = access_runs(h, ds.layout().recsize, tt, &start, &count, None);
        units.publish(
            rank,
            Unit {
                write_calls: vec![runs.clone()],
                write_bytes: probe::f32_bytes(block),
                read_calls: vec![runs],
                width: 4,
                row_bytes: count[2] * 4,
                collective: true,
                header: h.clone(),
            },
        );
    }

    // The read phase starts when every rank has left the write: without
    // this host barrier, one rank's reads overlap another's close and the
    // two windows share its time.
    ctl.sync();
    let r0 = log.now_ns();
    if probe {
        ctl.mem_begin(comm);
    }
    let v1 = comm.now();
    let got = log.call("core.get_vara_all", it, pid, || {
        ds.get_vara_all::<f32>(tt, &start, &count)
    });
    rec.sim_read = (comm.now() - v1).as_nanos();
    if probe {
        ctl.mem_end(comm, "core.get_vara_all");
    }
    if let Some(back) = rec.call(got) {
        rec.check(back == block);
    }
    let closed = log.call("core.close", it, pid, || ds.close());
    rec.check(closed.is_ok());
    rec.read = (r0, log.now_ns());
    log.close(root);
    rec
}

/// Serial netCDF on one process over one client link, the first column
/// of Figure 6, on the same array: (write, read) virtual seconds.
fn serial_reference(seed: u64, p: &Params) -> Result<(Time, Time), String> {
    let cfg = SimConfig::sdsc_blue_horizon();
    let pfs = Pfs::new(cfg, StorageMode::CostOnly);
    let posix = PosixSim::new(pfs.create(PATH));
    let watch = posix.clone();
    let mut f = NcFile::create(posix, Version::Cdf2);
    let e = |e: netcdf_serial::NcError| e.to_string();
    let z = f.def_dim("level", p.dims[0]).map_err(e)?;
    let y = f.def_dim("latitude", p.dims[1]).map_err(e)?;
    let x = f.def_dim("longitude", p.dims[2]).map_err(e)?;
    let tt = f.def_var("tt", NcType::Float, &[z, y, x]).map_err(e)?;
    f.enddef().map_err(e)?;
    let n = p.dims.iter().product::<u64>();
    let vals: Vec<f32> = (0..n).map(|i| value(seed, i)).collect();
    let t0 = watch.now();
    f.put_vara(tt, &[0, 0, 0], &p.dims, &vals).map_err(e)?;
    let t_write = watch.now() - t0;
    drop(vals);
    let t1 = watch.now();
    let back: Vec<f32> = f.get_vara(tt, &[0, 0, 0], &p.dims).map_err(e)?;
    let t_read = watch.now() - t1;
    drop(back);
    Ok((t_write, t_read))
}

pub fn run(opts: Opts) -> Outcome {
    let p = Params::of(opts.scale);
    let epoch = Instant::now();
    let units = Units::new(p.nprocs);
    let (plan, setups) = Plan::of(&opts, 3, 5);
    let mut world = run_worlds(
        p.nprocs,
        SimConfig::sdsc_blue_horizon,
        StorageMode::Full,
        plan,
        setups,
        epoch,
        |comm| generate(opts.seed, &p, comm.rank()),
        |comm, ctl, pfs, stage, it, block, log| {
            iteration(comm, ctl, pfs, stage, it, block, log, &p, &units)
        },
        |comm, ctl, _| {
            opts.trace
                .then(|| ladder::run(comm, ctl, &units, 2))
                .flatten()
        },
    );
    drop(units);

    let bytes = p.payload();
    let mut out = Outcome::of_run(&world, opts.trace, bytes, bytes);
    let all: Vec<Iter> = world.warmups.iter().chain(&world.iters).copied().collect();
    out.check_identity(&all, None);
    out.spans = std::mem::take(&mut world.spans);
    if !opts.trace {
        return out;
    }

    let med = |name: &str| median_of(per_iter_max(&out.spans, name));
    let (put, get) = (med("core.put_vara_all"), med("core.get_vara_all"));
    let (define, close) = (med("core.define"), med("core.close"));
    out.set("core.define_s", define);
    out.set("core.put_vara_all_s", put);
    out.set("core.get_vara_all_s", get);
    out.set("core.close_s", close);
    if let Some(Some(l)) = world.extras.first() {
        out.ladder(l, put, get);
    }
    out.observability(&world.iters, |i| bytes as f64 / i.host_write_s);
    drop(world);

    match serial_reference(opts.seed, &p) {
        Ok((w, r)) => {
            out.tally(2, 0);
            out.set("serial.sim_write_mb_s", sim_mb_s(bytes, w.as_nanos()));
            out.set("serial.sim_read_mb_s", sim_mb_s(bytes, r.as_nanos()));
        }
        Err(e) => {
            out.tally(2, 2);
            out.notes.push(format!("serial reference failed: {e}"));
        }
    }
    out
}
