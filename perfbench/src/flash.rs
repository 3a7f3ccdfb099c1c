//! `flash_ckpt`: the paper's Figure 7 FLASH I/O checkpoint.
//!
//! 8 ranks × 80 blocks × 16³ cells × 24 `f64` unknowns plus the five
//! block-metadata variables, on the ASCI Frost platform with
//! `StorageMode::MetadataOnly`. Each checkpoint is 29 `iput_vara` calls and
//! one `wait_all` into one file, then re-opens that check the header and
//! read the block metadata back. It is the heaviest client-side byte
//! path (nonblocking queue, staging convert, merge, two-phase exchange),
//! while the discarded bulk bytes leave the PFS storage layer idle.

use std::time::Instant;

use flash_io::mesh::{NUNK, UNK_NAMES};
use flash_io::{FlashConfig, IoLibrary, OutputKind};
use hpc_sim::SimConfig;
use pnetcdf::{Dataset, Info, NcType, NcmpiResult, Version};
use pnetcdf_format::layout::access_runs;
use pnetcdf_format::Header;
use pnetcdf_mpi::Comm;
use pnetcdf_pfs::{Pfs, StorageMode};

use crate::ladder::{self, Unit, Units};
use crate::probe::{self, median_of, per_iter_max, SpanLog};
use crate::report::Outcome;
use crate::world::{run_worlds, Ctl, Iter, IterRec, Plan, Stage};
use crate::{Opts, Scale};

const PATH: &str = "flash_ckpt.nc";

/// Metadata read-backs per checkpoint. One is about 1.5 ms of thread
/// rendezvous, and host stalls of tens of milliseconds land on a few of
/// them; the median of 32 is a steady figure.
const META_READS: u64 = 32;

/// Names, types and dimension names of the five block-metadata variables,
/// in definition order (the order the FLASH writer uses).
const META: [(&str, NcType, &[&str]); 5] = [
    ("lrefine", NcType::Int, &["blocks"]),
    ("nodetype", NcType::Int, &["blocks"]),
    ("coordinates", NcType::Double, &["blocks", "mdim"]),
    ("blocksize", NcType::Double, &["blocks", "mdim"]),
    ("bndbox", NcType::Double, &["blocks", "mdim", "two"]),
];

#[derive(Clone, Copy, Debug)]
struct Params {
    nprocs: usize,
    blocks: u64,
    nxb: u64,
}

impl Params {
    fn of(scale: Scale) -> Params {
        match scale {
            Scale::Full => Params {
                nprocs: 8,
                blocks: 80,
                nxb: 16,
            },
            Scale::Small => Params {
                nprocs: 2,
                blocks: 4,
                nxb: 8,
            },
        }
    }

    fn cells(&self) -> u64 {
        self.nxb * self.nxb * self.nxb
    }

    fn total_blocks(&self) -> u64 {
        self.blocks * self.nprocs as u64
    }

    /// Block-metadata bytes of one checkpoint (all ranks).
    fn meta_bytes(&self) -> u64 {
        self.total_blocks() * (4 + 4 + 24 + 24 + 48)
    }

    /// Bytes one checkpoint writes (all ranks), as the FLASH writer counts.
    fn payload(&self) -> u64 {
        self.meta_bytes() + self.total_blocks() * self.cells() * NUNK as u64 * 8
    }

    /// Elements per block of each metadata variable.
    fn meta_per_block(v: usize) -> u64 {
        [1, 1, 3, 3, 6][v]
    }
}

/// One rank's checkpoint data, generated from the seed.
struct Input {
    lrefine: Vec<i32>,
    nodetype: Vec<i32>,
    /// coordinates, blocksize, bndbox.
    reals: [Vec<f64>; 3],
    unk: Vec<Vec<f64>>,
}

impl Input {
    fn generate(seed: u64, p: &Params, rank: usize) -> Input {
        let first = p.blocks * rank as u64;
        let ints = |v: u64, modulus: u64| -> Vec<i32> {
            (first..first + p.blocks)
                .map(|b| 1 + (probe::mix(seed, (v << 40) | b) % modulus) as i32)
                .collect()
        };
        let reals = |v: usize| -> Vec<f64> {
            let per = Params::meta_per_block(v);
            (first * per..(first + p.blocks) * per)
                .map(|e| probe::value_f64(seed, ((v as u64) << 40) | e))
                .collect()
        };
        let cells = p.cells();
        let unk = (0..NUNK)
            .map(|u| {
                let v = (8 + u as u64) << 40;
                (first * cells..(first + p.blocks) * cells)
                    .map(|e| probe::value_f64(seed, v | e))
                    .collect()
            })
            .collect();
        Input {
            lrefine: ints(0, 6),
            nodetype: ints(1, 2),
            reals: [reals(2), reals(3), reals(4)],
            unk,
        }
    }

    /// Native bytes of the whole checkpoint share, in variable order.
    fn bytes(&self) -> Vec<u8> {
        let mut out = probe::i32_bytes(&self.lrefine);
        out.extend(probe::i32_bytes(&self.nodetype));
        for v in self.reals.iter().chain(&self.unk) {
            out.extend(probe::f64_bytes(v));
        }
        out
    }
}

/// Create the checkpoint and define it exactly as the FLASH writer does.
fn define(comm: &Comm, pfs: &Pfs, p: &Params) -> NcmpiResult<(Dataset, Vec<usize>)> {
    let mut ds = Dataset::create(comm, pfs, PATH, Version::Cdf2, &Info::new())?;
    let blocks = ds.def_dim("blocks", p.total_blocks())?;
    let z = ds.def_dim("z", p.nxb)?;
    let y = ds.def_dim("y", p.nxb)?;
    let x = ds.def_dim("x", p.nxb)?;
    let mdim = ds.def_dim("mdim", 3)?;
    let two = ds.def_dim("two", 2)?;
    let mut vars = Vec::with_capacity(5 + NUNK);
    for (name, ty, dims) in META {
        let ids: Vec<usize> = dims
            .iter()
            .map(|d| match *d {
                "blocks" => blocks,
                "mdim" => mdim,
                _ => two,
            })
            .collect();
        vars.push(ds.def_var(name, ty, &ids)?);
    }
    for name in UNK_NAMES.iter().take(NUNK) {
        vars.push(ds.def_var(name, NcType::Double, &[blocks, z, y, x])?);
    }
    ds.enddef()?;
    Ok((ds, vars))
}

/// Start and count of this rank's slab of variable `v`.
fn slab(p: &Params, rank: usize, v: usize) -> (Vec<u64>, Vec<u64>) {
    let first = p.blocks * rank as u64;
    match v {
        0 | 1 => (vec![first], vec![p.blocks]),
        2 | 3 => (vec![first, 0], vec![p.blocks, 3]),
        4 => (vec![first, 0, 0], vec![p.blocks, 3, 2]),
        _ => (vec![first, 0, 0, 0], vec![p.blocks, p.nxb, p.nxb, p.nxb]),
    }
}

/// Whether the re-opened header describes the checkpoint that was written.
fn header_ok(ds: &Dataset, p: &Params) -> bool {
    let info = ds.inq();
    if info.ndims != 6 || info.nvars != 5 + NUNK {
        return false;
    }
    (0..info.nvars).all(|v| {
        let (name, ty) = if v < 5 {
            (META[v].0, META[v].1)
        } else {
            (UNK_NAMES[v - 5], NcType::Double)
        };
        let shape: Vec<u64> = slab(p, 0, v).1;
        let mut want = shape;
        want[0] = p.total_blocks();
        ds.inq_var(v)
            .is_ok_and(|i| i.name == name && i.nctype == ty)
            && ds.inq_var_shape(v).is_ok_and(|s| s == want)
    })
}

/// One checkpoint: create, define, 29 `iput_vara`, `wait_all`, close;
/// then [`META_READS`] re-opens that check the header and read the block
/// metadata back.
#[allow(clippy::too_many_arguments)]
fn checkpoint(
    comm: &Comm,
    ctl: &Ctl,
    pfs: &Pfs,
    stage: Stage,
    it: usize,
    inp: &Input,
    log: &mut SpanLog,
    p: &Params,
    units: &Units,
) -> IterRec {
    let rank = comm.rank();
    let probe = stage == Stage::Probe;
    let mut rec = IterRec::new(stage);
    let root = log.open("flash_ckpt.checkpoint", it, None);
    let pid = root.id;

    let w0 = log.now_ns();
    let defined = log.call("core.define", it, pid, || define(comm, pfs, p));
    let Ok((mut ds, vars)) = defined else {
        rec.check(false);
        log.close(root);
        return rec;
    };
    if probe {
        ctl.mem_begin(comm);
    }
    for (v, &vid) in vars.iter().enumerate() {
        let (s, c) = slab(p, rank, v);
        let r = log.call("core.iput", it, pid, || match v {
            0 => ds.iput_vara(vid, &s, &c, &inp.lrefine),
            1 => ds.iput_vara(vid, &s, &c, &inp.nodetype),
            2..=4 => ds.iput_vara(vid, &s, &c, &inp.reals[v - 2]),
            _ => ds.iput_vara(vid, &s, &c, &inp.unk[v - 5]),
        });
        rec.call(r);
    }
    if probe {
        ctl.mem_end(comm, "core.iput");
        ctl.mem_begin(comm);
    }
    let r = log.call("core.wait_all", it, pid, || ds.wait_all());
    rec.call(r);
    if probe {
        ctl.mem_end(comm, "core.wait_all");
    }
    // The ladder replays this checkpoint; its runs are cut from the
    // header, and the unit is built once the write window has closed.
    let layout = (stage == Stage::Spanned && !units.is_published(rank))
        .then(|| (ds.header().clone(), ds.layout().recsize));
    let closed = log.call("core.close", it, pid, || ds.close());
    rec.check(closed.is_ok());
    rec.write = (w0, log.now_ns());
    rec.sim_write = comm.now().as_nanos();
    if let Some((header, recsize)) = layout {
        units.publish(rank, unit(header, recsize, &vars, inp, p, rank));
    }

    // Each re-open runs between host barriers, so no read overlaps
    // another rank's close, and the read time is the median re-open times
    // their number.
    let r0 = log.now_ns();
    let v0 = comm.now();
    let mut each = Vec::with_capacity(META_READS as usize);
    for _ in 0..META_READS {
        let ((), dt) = ctl.timed(comm, || {
            read_metadata(comm, pfs, stage, it, inp, log, pid, p, &mut rec)
        });
        each.push(dt);
    }
    rec.read = (r0, log.now_ns());
    if rank == 0 {
        rec.read_s = Some(median_of(each) * META_READS as f64);
    }
    rec.sim_read = (comm.now() - v0).as_nanos();
    if stage == Stage::Verify {
        verify_unknowns(comm, pfs, inp, p, &mut rec);
    }
    log.close(root);
    rec
}

/// Re-open the checkpoint, check its header and read the block metadata
/// back. `MetadataOnly` keeps the header but drops the metadata values
/// with the bulk (two-phase merges them into large requests), so values
/// are compared only on the `Verify` iteration's PFS.
#[allow(clippy::too_many_arguments)]
fn read_metadata(
    comm: &Comm,
    pfs: &Pfs,
    stage: Stage,
    it: usize,
    inp: &Input,
    log: &mut SpanLog,
    pid: u64,
    p: &Params,
    rec: &mut IterRec,
) {
    let rank = comm.rank();
    let Ok(mut ds) = Dataset::open(comm, pfs, PATH, true, &Info::new()) else {
        rec.check(false);
        return;
    };
    rec.check(header_ok(&ds, p));
    let verify = stage == Stage::Verify;
    for (v, (name, _, _)) in META.iter().enumerate() {
        let (s, c) = slab(p, rank, v);
        let Ok(vid) = ds.inq_varid(name) else {
            rec.check(false);
            continue;
        };
        let ok = if v < 2 {
            let got = log.call("core.get_vara_all", it, pid, || {
                ds.get_vara_all::<i32>(vid, &s, &c)
            });
            let want = if v == 0 { &inp.lrefine } else { &inp.nodetype };
            rec.call(got).map(|g| g == *want)
        } else {
            let got = log.call("core.get_vara_all", it, pid, || {
                ds.get_vara_all::<f64>(vid, &s, &c)
            });
            rec.call(got).map(|g| g == inp.reals[v - 2])
        };
        if let Some(ok) = ok.filter(|_| verify) {
            rec.check(ok);
        }
    }
    rec.check(ds.close().is_ok());
}

/// Read every unknown back and compare it with what was written.
fn verify_unknowns(comm: &Comm, pfs: &Pfs, inp: &Input, p: &Params, rec: &mut IterRec) {
    let Ok(mut ds) = Dataset::open(comm, pfs, PATH, true, &Info::new()) else {
        rec.check(false);
        return;
    };
    for (u, want) in inp.unk.iter().enumerate() {
        let (s, c) = slab(p, comm.rank(), 5 + u);
        let got = ds
            .inq_varid(UNK_NAMES[u])
            .and_then(|vid| ds.get_vara_all::<f64>(vid, &s, &c));
        rec.check(got.is_ok_and(|g| g == *want));
    }
    rec.check(ds.close().is_ok());
}

/// This rank's checkpoint as MPI-IO sees it: `wait_all` merges the 29
/// requests into one collective run list; the re-opens read the five
/// metadata variables [`META_READS`] times.
fn unit(
    header: Header,
    recsize: u64,
    vars: &[usize],
    inp: &Input,
    p: &Params,
    rank: usize,
) -> Unit {
    let runs_of = |v: usize| {
        let (s, c) = slab(p, rank, v);
        access_runs(&header, recsize, vars[v], &s, &c, None)
    };
    Unit {
        write_calls: vec![(0..vars.len()).flat_map(runs_of).collect()],
        write_bytes: inp.bytes(),
        read_calls: (0..META_READS).flat_map(|_| (0..5).map(runs_of)).collect(),
        width: 8,
        row_bytes: p.nxb * 8,
        collective: true,
        header,
    }
}

/// The repository's own FLASH harness on the same configuration.
fn reference(p: &Params, lib: IoLibrary) -> flash_io::FlashResult {
    let mut config = FlashConfig::paper(p.nxb, p.nprocs, OutputKind::Checkpoint, lib);
    config.blocks_per_proc = p.blocks;
    flash_io::run_flash_io(config, SimConfig::asci_frost(), StorageMode::MetadataOnly)
}

pub fn run(opts: Opts) -> Outcome {
    let p = Params::of(opts.scale);
    let epoch = Instant::now();
    let units = Units::new(p.nprocs);
    let (plan, setups) = Plan::of(&opts, 3, 5);
    let plan = Plan {
        verify: true,
        ..plan
    };
    let mut world = run_worlds(
        p.nprocs,
        SimConfig::asci_frost,
        StorageMode::MetadataOnly,
        plan,
        setups,
        epoch,
        |comm| Input::generate(opts.seed, &p, comm.rank()),
        |comm, ctl, pfs, stage, it, inp, log| {
            checkpoint(comm, ctl, pfs, stage, it, inp, log, &p, &units)
        },
        |comm, ctl, _| {
            opts.trace
                .then(|| ladder::run(comm, ctl, &units, 2))
                .flatten()
        },
    );

    let (bytes_w, bytes_r) = (p.payload(), META_READS * p.meta_bytes());
    let mut out = Outcome::of_run(&world, opts.trace, bytes_w, bytes_r);
    let all: Vec<Iter> = world.warmups.iter().chain(&world.iters).copied().collect();
    let spans = std::mem::take(&mut world.spans);
    if !opts.trace {
        out.check_identity(&all, None);
        out.spans = spans;
        return out;
    }

    // The repository's own harness must give the same virtual makespan.
    drop(units);
    let own = reference(&p, IoLibrary::Pnetcdf);
    let read_ns = all.first().map_or(0, |i| i.sim_read_ns);
    out.check_identity(&all, Some((own.time.as_nanos(), read_ns)));
    out.set(
        "hdf5sim.sim_write_mb_s",
        reference(&p, IoLibrary::Hdf5).bandwidth_mb_s,
    );

    let med = |name: &str| median_of(per_iter_max(&spans, name));
    out.set("core.define_s", med("core.define"));
    out.set("core.iput_s", med("core.iput"));
    out.set("core.wait_all_s", med("core.wait_all"));
    out.set("core.get_vara_all_s", med("core.get_vara_all"));
    out.set("core.close_s", med("core.close"));
    if let Some(Some(l)) = world.extras.first() {
        out.ladder(
            l,
            med("core.iput") + med("core.wait_all"),
            med("core.get_vara_all"),
        );
    }
    out.observability(&world.iters, |i| bytes_w as f64 / i.host_write_s);
    out.spans = spans;
    out
}
