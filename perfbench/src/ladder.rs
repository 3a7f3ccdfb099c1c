//! The layer ladder: replay the bytes one write and one read of a
//! workload move through the public entry points of each lower layer —
//! `format` byteswap and header codec, `mpi` alltoallv, `mpio` run-list
//! I/O, `pfs` file requests — and time each on the host clock. The
//! difference between one layer's time and the next layer's on the same
//! bytes is that layer's self time.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use hpc_sim::Time;
use pnetcdf_format::swap::swap_copy;
use pnetcdf_format::Header;
use pnetcdf_mpi::{Comm, Datatype, Info};
use pnetcdf_mpio::{MpiFile, OpenMode, Run};

use crate::probe::median_of;
use crate::report::mb_s;
use crate::world::Ctl;

/// Independent calls sampled for the per-call (`*_us`) metrics.
const PER_CALL_SAMPLES: usize = 2000;

/// One rank's share of a workload write and read, as the core layer hands
/// it to MPI-IO.
pub struct Unit {
    /// File runs of each write call, in call order.
    pub write_calls: Vec<Vec<Run>>,
    /// The write payload: every call's run bytes, concatenated.
    pub write_bytes: Vec<u8>,
    /// File runs of each read call.
    pub read_calls: Vec<Vec<Run>>,
    /// Element width for the byteswap replay.
    pub width: usize,
    /// Bytes of one contiguous row, the unit of the per-call replays.
    pub row_bytes: u64,
    /// Whether the workload issues its data calls collectively.
    pub collective: bool,
    pub header: Header,
}

impl Unit {
    fn all_write_runs(&self) -> Vec<Run> {
        self.write_calls.iter().flatten().copied().collect()
    }

    fn all_read_runs(&self) -> Vec<Run> {
        let mut runs: Vec<Run> = self.read_calls.iter().flatten().copied().collect();
        runs.sort_unstable();
        runs
    }

    fn read_bytes(&self) -> u64 {
        self.read_calls.iter().flatten().map(|r| r.1).sum()
    }

    /// Up to `n` single-row runs cut from the write runs, with their
    /// offsets into `write_bytes`.
    fn rows(&self, n: usize) -> Vec<(Run, usize)> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        for &(off, len) in self.write_calls.iter().flatten() {
            let mut o = 0;
            while o + self.row_bytes <= len && out.len() < n {
                out.push(((off + o, self.row_bytes), pos + o as usize));
                o += self.row_bytes;
            }
            pos += len as usize;
        }
        out
    }
}

/// Units of every rank, published by each rank for rank 0 to replay.
#[derive(Default)]
pub struct Units(Mutex<Vec<Option<Arc<Unit>>>>);

impl Units {
    pub fn new(nprocs: usize) -> Units {
        Units(Mutex::new(vec![None; nprocs]))
    }

    pub fn publish(&self, rank: usize, unit: Unit) {
        self.0.lock().expect("units lock")[rank] = Some(Arc::new(unit));
    }

    pub fn is_published(&self, rank: usize) -> bool {
        self.0.lock().expect("units lock")[rank].is_some()
    }

    fn all(&self) -> Vec<Arc<Unit>> {
        self.0
            .lock()
            .expect("units lock")
            .iter()
            .map(|u| u.clone().expect("every rank published its unit"))
            .collect()
    }
}

/// Host-clock figures of the ladder (rank 0's view).
#[derive(Clone, Copy, Debug, Default)]
pub struct Out {
    pub swap_mb_s: f64,
    pub header_us: f64,
    pub alltoallv_mb_s: f64,
    pub mpio_write_runs_all_mb_s: f64,
    pub mpio_read_runs_all_mb_s: f64,
    pub mpio_write_at_us: f64,
    /// MPI-IO time of the workload's write/read through the path the
    /// core uses (collective run list, or independent per-call), s.
    pub mpio_write_s: f64,
    pub mpio_read_s: f64,
    pub pfs_write_mb_s: f64,
    pub pfs_read_mb_s: f64,
    pub pfs_write_us: f64,
    pub pfs_write_s: f64,
    pub pfs_read_s: f64,
    /// Calls the ladder made and how many returned an error.
    pub calls: u64,
    pub errors: u64,
}

/// Run the ladder on every rank of the world; rank 0 returns the figures.
/// Every rank must have published its [`Unit`].
pub fn run(comm: &Comm, ctl: &Ctl, units: &Units, reps: usize) -> Option<Out> {
    ctl.sync();
    let all = units.all();
    let me = all[comm.rank()].clone();
    let rank0 = comm.rank() == 0;
    let mut out = Out::default();

    // format: byteswap of this rank's payload, header encode + decode.
    if rank0 {
        let len = me.write_bytes.len() / me.width * me.width;
        let mut dst = vec![0u8; len];
        out.swap_mb_s = median_of(
            (0..reps.max(3))
                .map(|_| {
                    let t = Instant::now();
                    swap_copy(&me.write_bytes[..len], &mut dst, me.width);
                    std::hint::black_box(&dst);
                    mb_s(len as u64, t.elapsed().as_secs_f64())
                })
                .collect(),
        );
        const BATCH: usize = 200;
        out.header_us = median_of(
            (0..5)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..BATCH {
                        let bytes = me.header.encode();
                        let decoded = Header::decode(std::hint::black_box(&bytes));
                        std::hint::black_box(decoded.is_ok());
                    }
                    t.elapsed().as_secs_f64() * 1e6 / BATCH as f64
                })
                .collect(),
        );
    }

    // mpi: alltoallv of every rank's payload, split evenly over the ranks.
    let n = comm.size();
    let total_w: u64 = all.iter().map(|u| u.write_bytes.len() as u64).sum();
    let mut a2a = Vec::new();
    for _ in 0..reps {
        let chunk = me.write_bytes.len().div_ceil(n).max(1);
        let mut parts: Vec<Vec<u8>> = me.write_bytes.chunks(chunk).map(<[u8]>::to_vec).collect();
        parts.resize(n, Vec::new());
        let (r, dt) = ctl.timed(comm, || comm.alltoallv_bytes(parts));
        out.calls += 1;
        out.errors += u64::from(r.is_err());
        drop(r);
        a2a.push(mb_s(total_w, dt));
    }
    out.alltoallv_mb_s = median_of(a2a);

    // mpio: the run list collectively, then the core's own path.
    let pfs = ctl.fresh_pfs();
    let file = match MpiFile::open(comm, &pfs, "ladder.nc", OpenMode::Create, &Info::new()) {
        Ok(f) => f,
        Err(_) => {
            out.errors += 1;
            return rank0.then_some(out);
        }
    };
    let runs_w = me.all_write_runs();
    let runs_r = me.all_read_runs();
    let total_r: u64 = all.iter().map(|u| u.read_bytes()).sum();
    let (mut tw, mut tr) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let (r, dt) = ctl.timed(comm, || file.write_runs_at_all(&runs_w, &me.write_bytes));
        out.errors += u64::from(r.is_err());
        tw.push(dt);
        // A collective workload reads call by call, as the core does; the
        // independent one's reads are replayed as one collective list.
        let (errs, dt) = ctl.timed(comm, || {
            if me.collective {
                me.read_calls
                    .iter()
                    .filter(|runs| file.read_runs_at_all(runs).is_err())
                    .count()
            } else {
                usize::from(file.read_runs_at_all(&runs_r).is_err())
            }
        });
        out.errors += errs as u64;
        tr.push(dt);
        out.calls += 2;
    }
    let (tw, tr) = (median_of(tw), median_of(tr));
    out.mpio_write_runs_all_mb_s = mb_s(total_w, tw);
    out.mpio_read_runs_all_mb_s = mb_s(total_r, tr);
    if me.collective {
        out.mpio_write_s = tw;
        out.mpio_read_s = tr;
    }
    ctl.sync();
    if rank0 {
        let rows = me.rows(PER_CALL_SAMPLES);
        let t = Instant::now();
        for &((off, len), pos) in &rows {
            let mem = Datatype::contiguous(len as usize, Datatype::byte());
            let r = file.write_at(off, &me.write_bytes[pos..pos + len as usize], 1, &mem);
            out.errors += u64::from(r.is_err());
        }
        out.calls += rows.len() as u64;
        out.mpio_write_at_us = t.elapsed().as_secs_f64() * 1e6 / rows.len().max(1) as f64;
        if !me.collective {
            // The independent path of the core: one run list per call.
            let t = Instant::now();
            let mut pos = 0usize;
            for runs in &me.write_calls {
                let len: u64 = runs.iter().map(|r| r.1).sum();
                let r = file.write_runs_at(runs, &me.write_bytes[pos..pos + len as usize]);
                out.errors += u64::from(r.is_err());
                pos += len as usize;
            }
            out.mpio_write_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            for runs in &me.read_calls {
                let r = file.read_runs_at(runs);
                out.errors += u64::from(r.is_err());
            }
            out.mpio_read_s = t.elapsed().as_secs_f64();
            out.calls += (me.write_calls.len() + me.read_calls.len()) as u64;
        }
    }
    drop(file);
    drop(pfs);
    ctl.sync();

    // pfs: the same bytes as file requests from one thread — every rank's
    // share for a collective workload, rank 0's calls for an independent one.
    if rank0 {
        let pfs = ctl.fresh_pfs();
        let f = pfs.create("ladder.pfs");
        let scope: Vec<Arc<Unit>> = if me.collective {
            all.clone()
        } else {
            vec![me.clone()]
        };
        let (mut bytes_w, mut bytes_r) = (0u64, 0u64);
        let t = Instant::now();
        for u in &scope {
            let mut pos = 0usize;
            for runs in &u.write_calls {
                let len: u64 = runs.iter().map(|r| r.1).sum();
                let r = f.try_write_runs(Time::ZERO, runs, &u.write_bytes[pos..pos + len as usize]);
                out.errors += u64::from(r.is_err());
                out.calls += 1;
                pos += len as usize;
                bytes_w += len;
            }
        }
        out.pfs_write_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut buf = Vec::new();
        for u in &scope {
            for runs in &u.read_calls {
                // An independent read reaches the PFS as the sieve's one
                // covering extent; a collective one as its runs.
                let reqs = match (u.collective, runs.first(), runs.last()) {
                    (false, Some(&(lo, _)), Some(&(off, len))) => vec![(lo, off + len - lo)],
                    _ => runs.clone(),
                };
                for (off, len) in reqs {
                    buf.resize(len as usize, 0u8);
                    f.read_at(Time::ZERO, off, &mut buf);
                    out.calls += 1;
                }
                bytes_r += runs.iter().map(|r| r.1).sum::<u64>();
            }
        }
        out.pfs_read_s = t.elapsed().as_secs_f64();
        out.pfs_write_mb_s = mb_s(bytes_w, out.pfs_write_s);
        out.pfs_read_mb_s = mb_s(bytes_r, out.pfs_read_s);
        let rows = me.rows(PER_CALL_SAMPLES);
        let t = Instant::now();
        for &(run, pos) in &rows {
            let r = f.try_write_runs(
                Time::ZERO,
                &[run],
                &me.write_bytes[pos..pos + run.1 as usize],
            );
            out.errors += u64::from(r.is_err());
        }
        out.calls += rows.len() as u64;
        out.pfs_write_us = t.elapsed().as_secs_f64() * 1e6 / rows.len().max(1) as f64;
    }
    ctl.sync();
    rank0.then_some(out)
}
