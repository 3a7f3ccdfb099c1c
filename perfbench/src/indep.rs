//! `indep_rows`: the per-call independent path.
//!
//! 2 ranks in independent data mode, each owning a z-band of a 4 MB `f32`
//! `tt(64,128,128)` on the SDSC Blue Horizon platform with
//! `StorageMode::Full`. A pass writes the band one 512 B y-row per
//! `put_vara`, then reads it back one plane per strided `get_vars` (stride
//! 2 along x, so read-side data sieving) and checks every value. Payloads
//! are tiny and the working set fits in cache: this is core → mpio
//! independent and sieve → pfs request → `ServiceEngine`, with no
//! two-phase, no MPI exchange and no nonblocking queue.
//!
//! Virtual time of independent I/O depends on the host order in which the
//! ranks reach the shared server queues; the `sim_*` figures here are
//! medians over passes whose phases start together.
//!
//! Reads are per plane, not per row: two ranks issuing strided per-row
//! gets at once fall, in most runs, into a lock-convoy regime about three
//! times slower, which would make every host figure bimodal. The traced
//! run measures that per-row pattern on its own (`core.get_vars_row_us`).

use std::time::Instant;

use hpc_sim::SimConfig;
use pnetcdf::NcmpiResult;
use pnetcdf_format::layout::access_runs;
use pnetcdf_mpi::{run_world, Comm};
use pnetcdf_pfs::{Pfs, StorageMode};

use crate::ladder::{self, Unit, Units};
use crate::lbnl::define_tt;
use crate::probe::{self, median_of, per_call_median, per_iter_max, SpanLog};
use crate::report::{sim_mb_s, Outcome};
use crate::world::{run_worlds, Ctl, Iter, IterRec, Plan, Stage};
use crate::{Opts, Scale};

const PATH: &str = "tt_rows.nc";

#[derive(Clone, Copy, Debug)]
struct Params {
    nprocs: usize,
    /// (Z, Y, X); Z divides evenly over the ranks.
    dims: [u64; 3],
}

impl Params {
    fn of(scale: Scale) -> Params {
        match scale {
            Scale::Full => Params {
                nprocs: 2,
                dims: [64, 128, 128],
            },
            Scale::Small => Params {
                nprocs: 2,
                dims: [4, 8, 16],
            },
        }
    }

    fn payload(&self) -> u64 {
        self.dims.iter().product::<u64>() * 4
    }

    /// First plane and plane count of `rank`'s band.
    fn band(&self, rank: usize) -> (u64, u64) {
        let per = self.dims[0] / self.nprocs as u64;
        (rank as u64 * per, per)
    }
}

/// This rank's band, row-major, generated from the seed.
fn generate(seed: u64, p: &Params, rank: usize) -> Vec<f32> {
    let (z0, nz) = p.band(rank);
    let plane = p.dims[1] * p.dims[2];
    (z0 * plane..(z0 + nz) * plane)
        .map(|i| probe::value_f32(seed, i))
        .collect()
}

/// One pass: row puts, then strided gets of the same band.
#[allow(clippy::too_many_arguments)]
fn pass(
    comm: &Comm,
    ctl: &Ctl,
    pfs: &Pfs,
    stage: Stage,
    it: usize,
    band: &[f32],
    log: &mut SpanLog,
    p: &Params,
    units: &Units,
) -> IterRec {
    let rank = comm.rank();
    let probe = stage == Stage::Probe;
    let mut rec = IterRec::new(stage);
    let root = log.open("indep_rows.pass", it, None);
    let pid = root.id;
    let (z0, nz) = p.band(rank);
    let [_, ny, nx] = p.dims;
    let row = nx as usize;

    let Ok((mut ds, tt)) = log.call("core.define", it, pid, || {
        define_tt(comm, pfs, PATH, p.dims)
    }) else {
        rec.check(false);
        log.close(root);
        return rec;
    };
    rec.check(ds.begin_indep_data().is_ok());
    if probe {
        ctl.mem_begin(comm);
    }
    // Host barriers (they move no virtual clock) start both ranks' phases
    // together, so the ranks interleave alike in every pass.
    ctl.sync();
    let w0 = log.now_ns();
    let v0 = comm.now();
    for (i, vals) in band.chunks_exact(row).enumerate() {
        let (z, y) = (z0 + i as u64 / ny, i as u64 % ny);
        let r = log.call("core.put_vara", it, pid, || {
            ds.put_vara(tt, &[z, y, 0], &[1, 1, nx], vals)
        });
        rec.call(r);
    }
    rec.sim_write = (comm.now() - v0).as_nanos();
    rec.write = (w0, log.now_ns());
    if probe {
        ctl.mem_end(comm, "core.put_vara");
    }

    ctl.sync();
    let r0 = log.now_ns();
    let v1 = comm.now();
    for (i, vals) in band.chunks_exact(row * ny as usize).enumerate() {
        let z = z0 + i as u64;
        let got = log.call("core.get_vars", it, pid, || {
            ds.get_vars::<f32>(tt, &[z, 0, 0], &[1, ny, nx / 2], &[1, 1, 2])
        });
        if let Some(back) = rec.call(got) {
            rec.check(back.iter().zip(vals.iter().step_by(2)).all(|(a, b)| a == b));
        }
    }
    rec.sim_read = (comm.now() - v1).as_nanos();
    rec.read = (r0, log.now_ns());

    if stage == Stage::Spanned && !units.is_published(rank) {
        let h = ds.header();
        let recsize = ds.layout().recsize;
        let rows = (0..nz * ny).map(|i| [z0 + i / ny, i % ny, 0]);
        units.publish(
            rank,
            Unit {
                write_calls: rows
                    .clone()
                    .map(|s| access_runs(h, recsize, tt, &s, &[1, 1, nx], None))
                    .collect(),
                write_bytes: probe::f32_bytes(band),
                read_calls: (z0..z0 + nz)
                    .map(|z| {
                        access_runs(
                            h,
                            recsize,
                            tt,
                            &[z, 0, 0],
                            &[1, ny, nx / 2],
                            Some(&[1, 1, 2]),
                        )
                    })
                    .collect(),
                width: 4,
                row_bytes: nx * 4,
                collective: false,
                header: h.clone(),
            },
        );
    }
    rec.check(ds.end_indep_data().is_ok());
    let closed = log.call("core.close", it, pid, || ds.close());
    rec.check(closed.is_ok());
    log.close(root);
    rec
}

/// Both ranks read their band back one strided row per `get_vars` at the
/// same time; returns rank 0's mean host µs per call and the rows whose
/// values were wrong (the per-row pattern the passes avoid).
fn row_reads(comm: &Comm, ctl: &Ctl, band: &[f32], p: &Params) -> (f64, u64, u64) {
    let pfs = ctl.fresh_pfs();
    let (z0, nz) = p.band(comm.rank());
    let [_, ny, nx] = p.dims;
    let Ok((mut ds, tt)) = define_tt(comm, &pfs, PATH, p.dims) else {
        return (0.0, 1, 1);
    };
    let mut bad = u64::from(ds.begin_indep_data().is_err());
    bad += u64::from(ds.put_vara(tt, &[z0, 0, 0], &[nz, ny, nx], band).is_err());
    ctl.sync();
    let t = Instant::now();
    let mut rows = 0;
    for (i, vals) in band.chunks_exact(nx as usize).enumerate() {
        let (z, y) = (z0 + i as u64 / ny, i as u64 % ny);
        let got = ds.get_vars::<f32>(tt, &[z, y, 0], &[1, 1, nx / 2], &[1, 1, 2]);
        let ok = got.is_ok_and(|g| g.iter().zip(vals.iter().step_by(2)).all(|(a, b)| a == b));
        bad += u64::from(!ok);
        rows += 1;
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / rows.max(1) as f64;
    bad += u64::from(ds.end_indep_data().is_err());
    bad += u64::from(ds.close().is_err());
    (us, rows + 4, bad)
}

/// Interleaved-sieve canary: two ranks write the two x-halves of every
/// plane with independent `put_vara`, so each write is a sieved
/// read-modify-write of the whole plane extent; then each checks its
/// half. Returns the values lost to concurrent read-modify-writes.
fn lost_update_canary(seed: u64, p: &Params) -> Result<u64, String> {
    let cfg = SimConfig::sdsc_blue_horizon();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let [nz, ny, nx] = p.dims;
    let half = nx / 2;
    let run = run_world(2, cfg, |comm| -> NcmpiResult<u64> {
        let (mut ds, tt) = define_tt(comm, &pfs, PATH, p.dims)?;
        let x0 = comm.rank() as u64 * half;
        let vals = |z: u64| -> Vec<f32> {
            (0..ny * half)
                .map(|i| probe::value_f32(seed, (z * ny + i / half) * nx + x0 + i % half))
                .collect()
        };
        ds.begin_indep_data()?;
        for z in 0..nz {
            ds.put_vara(tt, &[z, 0, x0], &[1, ny, half], &vals(z))?;
        }
        ds.end_indep_data()?;
        ds.begin_indep_data()?;
        let mut lost = 0;
        for z in 0..nz {
            let back: Vec<f32> = ds.get_vara(tt, &[z, 0, x0], &[1, ny, half])?;
            lost += back.iter().zip(vals(z)).filter(|(a, b)| *a != b).count() as u64;
        }
        ds.end_indep_data()?;
        ds.close()?;
        Ok(lost)
    });
    run.results
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .sum()
}

pub fn run(opts: Opts) -> Outcome {
    let p = Params::of(opts.scale);
    let epoch = Instant::now();
    let units = Units::new(p.nprocs);
    let (plan, setups) = Plan::of(&opts, 6, 15);
    let mut world = run_worlds(
        p.nprocs,
        SimConfig::sdsc_blue_horizon,
        StorageMode::Full,
        plan,
        setups,
        epoch,
        |comm| generate(opts.seed, &p, comm.rank()),
        |comm, ctl, pfs, stage, it, band, log| {
            pass(comm, ctl, pfs, stage, it, band, log, &p, &units)
        },
        |comm, ctl, band| {
            opts.trace.then(|| {
                (
                    ladder::run(comm, ctl, &units, 2),
                    row_reads(comm, ctl, band, &p),
                )
            })
        },
    );

    let bytes_w = p.payload();
    let bytes_r = bytes_w / 2;
    let mut out = Outcome::of_run(&world, opts.trace, bytes_w, bytes_r);
    out.spans = std::mem::take(&mut world.spans);
    if !opts.trace {
        return out;
    }

    let spans = &out.spans;
    let med = |name: &str| median_of(per_iter_max(spans, name));
    let (define, close) = (med("core.define"), med("core.close"));
    let (put, get) = (med("core.put_vara"), med("core.get_vars"));
    let put_us = per_call_median(spans, "core.put_vara") * 1e6;
    let get_us = per_call_median(spans, "core.get_vars") * 1e6;
    out.set("core.define_s", define);
    out.set("core.close_s", close);
    out.set("core.put_vara_us", put_us);
    out.set("core.get_vars_us", get_us);
    let sim = |f: fn(&Iter) -> u64, bytes| {
        median_of(world.iters.iter().map(|i| sim_mb_s(bytes, f(i))).collect())
    };
    out.set(
        "mpio.indep_sim_write_mb_s",
        sim(|i| i.sim_write_ns, bytes_w),
    );
    out.set("mpio.indep_sim_read_mb_s", sim(|i| i.sim_read_ns, bytes_r));
    if let Some(Some((Some(l), _))) = world.extras.first() {
        out.ladder(l, put, get);
    }
    for (rank, extra) in world.extras.iter().enumerate() {
        if let Some((_, (us, checks, bad))) = *extra {
            out.tally(checks, bad);
            if rank == 0 {
                out.set("core.get_vars_row_us", us);
            }
        }
    }
    out.observability(&world.iters, |i| {
        i.calls as f64 / (i.host_write_s + i.host_read_s)
    });
    drop(world);

    match lost_update_canary(opts.seed, &p) {
        Ok(lost) => out.set("mpio.sieve_lost_update_values", lost as f64),
        Err(e) => {
            // The canary is not gated: report the error, count nothing.
            out.notes.push(format!("sieve canary failed: {e}"));
        }
    }
    out
}
