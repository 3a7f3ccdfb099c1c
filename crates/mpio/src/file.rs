//! `MPI_File`: open/close, views, independent and collective data access.

use std::sync::Arc;

use hpc_sim::trace::events::layer;
use hpc_sim::{CollKind, Phase, PhaseScope, Span, Time, TraceCtx};
use parking_lot::Mutex;
use pnetcdf_mpi::{pack, CollEnv, Comm, Datatype, Info};
use pnetcdf_pfs::{Pfs, PfsFile};

use crate::cache::{CacheConfig, CacheLedger, PageCache};
use crate::error::{MpioError, MpioResult};
use crate::hints::{Hints, Toggle};
use crate::sieve;
use crate::twophase::{self, TwoPhaseParams};
use crate::view::{runs_total, FileView, FlattenCache, Run};

/// How to open the file (`MPI_MODE_*` combinations we support).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenMode {
    /// Create or truncate, read-write (`CREATE | RDWR`).
    Create,
    /// Create, failing if the file exists (`CREATE | EXCL | RDWR`).
    CreateExcl,
    /// Open existing, read-write (`RDWR`).
    ReadWrite,
    /// Open existing, read-only (`RDONLY`).
    ReadOnly,
}

/// An open MPI-IO file handle (per rank).
pub struct MpiFile {
    comm: Comm,
    file: PfsFile,
    view: FileView,
    hints: Hints,
    readonly: bool,
    /// Client-side page cache (`pnc_cache=enable`); per rank, so no lock
    /// contention — the mutex only provides interior mutability behind the
    /// `&self` data-access methods.
    cache: Option<Mutex<PageCache>>,
    /// Memoized view-flattening results; keyed by view signature, so
    /// `set_view` needs no invalidation.
    flatten: Mutex<FlattenCache>,
}

impl MpiFile {
    /// Collectively open `name` on `pfs` (`MPI_File_open`). The namespace
    /// operation happens exactly once (at the last arriver); every rank
    /// receives the same handle or the same error.
    pub fn open(
        comm: &Comm,
        pfs: &Pfs,
        name: &str,
        mode: OpenMode,
        info: &Info,
    ) -> MpioResult<MpiFile> {
        let (hints, rejected) = Hints::from_info_audited(info);
        // Unknown `pnc_*` keys and malformed values never change behavior
        // (the parser falls back to defaults), but they are almost always a
        // misspelling the user would want to know about: count them in the
        // profile and leave a debug line. Rank 0 only, so a 64-rank open
        // with one bad hint counts it once.
        if comm.rank() == 0 {
            for r in &rejected {
                comm.config().profile.record_hint_rejected();
                eprintln!("pnetcdf: rejected hint {r} for {name}");
            }
        }
        if hints.trace_events.resolve(false) {
            // `pnc_trace_events`: turn on the shared span recorder. The
            // log rides in the SimConfig, so (like the queue-depth hint)
            // enabling it is global to the simulated platform.
            comm.config().events.set_enabled(true);
        }
        if let Some(depth) = hints.server_queue_depth {
            // `pnc_server_queue_depth`: resize every server's bounded
            // admission queue. The servers are shared, so the hint is
            // global — exactly like striping parameters on a real PFS.
            pfs.set_queue_depth(depth);
        }
        if hints.parity != Toggle::Auto {
            // `pnc_parity`: toggle the declustered-parity failover layer.
            // Like the queue depth, the redundancy scheme is a property of
            // the shared storage array, so the hint is global.
            pfs.set_parity(hints.parity.resolve(false));
        }
        let env = comm.coll_env();
        let pfs = pfs.clone();
        let name_owned = name.to_string();
        let res: Arc<Result<PfsFile, String>> = comm.collective(Vec::new(), move |_| {
            let cost = env.config.network.barrier(env.size()) + env.config.cpu.metadata_op;
            env.sync_collective(CollKind::Barrier, 0, cost);
            match mode {
                OpenMode::Create => Ok(pfs.create(&name_owned)),
                OpenMode::CreateExcl => {
                    if pfs.exists(&name_owned) {
                        Err(format!("file '{name_owned}' already exists"))
                    } else {
                        Ok(pfs.create(&name_owned))
                    }
                }
                OpenMode::ReadWrite | OpenMode::ReadOnly => pfs
                    .open(&name_owned)
                    .ok_or_else(|| format!("file '{name_owned}' does not exist")),
            }
        })?;
        match &*res {
            Ok(f) => {
                let cfg = comm.config();
                let cache = hints.cache.resolve(false).then(|| {
                    let page_size = if hints.cache_page_size > 0 {
                        hints.cache_page_size
                    } else {
                        cfg.stripe_size
                    };
                    Mutex::new(PageCache::new(
                        CacheConfig {
                            page_size,
                            capacity_bytes: hints.cache_size,
                            readahead_pages: hints.cache_readahead,
                        },
                        cfg.cpu,
                        f,
                    ))
                });
                Ok(MpiFile {
                    comm: comm.clone(),
                    file: f.clone(),
                    view: FileView::contiguous(),
                    hints,
                    readonly: mode == OpenMode::ReadOnly,
                    cache,
                    flatten: Mutex::new(FlattenCache::new()),
                })
            }
            Err(e) => Err(MpioError::Access(e.clone())),
        }
    }

    /// The communicator the file was opened on.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// The underlying PFS file (for export/diagnostics).
    pub fn raw(&self) -> &PfsFile {
        &self.file
    }

    /// Resolved hints.
    pub fn hints(&self) -> &Hints {
        &self.hints
    }

    /// Current file size (`MPI_File_get_size`).
    pub fn size(&self) -> u64 {
        self.file.size()
    }

    /// Collectively extend the file (`MPI_File_set_size`, grow only).
    pub fn set_size(&self, size: u64) -> MpioResult<()> {
        let env = self.comm.coll_env();
        let file = self.file.clone();
        self.comm
            .collective(Vec::new(), move |_| {
                file.grow_to(size);
                let cost = env.config.network.barrier(env.size()) + env.config.cpu.metadata_op;
                env.sync_collective(CollKind::Barrier, 0, cost);
            })
            .map(|_| ())
            .map_err(MpioError::from)
    }

    /// `MPI_File_sync`: flush + synchronize. The simulated PFS has no
    /// volatile cache, so this is a barrier plus a metadata operation.
    pub fn sync(&self) -> MpioResult<()> {
        // Publish cached dirty pages before the rendezvous so every rank's
        // bytes are on the PFS once the barrier completes.
        self.cache_pre()?;
        let env = self.comm.coll_env();
        self.comm
            .collective(Vec::new(), move |_| {
                let cost = env.config.network.barrier(env.size()) + env.config.cpu.metadata_op;
                env.sync_collective(CollKind::Barrier, 0, cost);
            })
            .map(|_| ())
            .map_err(MpioError::from)?;
        self.cache_post();
        Ok(())
    }

    /// Collectively set the file view (`MPI_File_set_view`).
    pub fn set_view(&mut self, disp: u64, etype: &Datatype, filetype: &Datatype) -> MpioResult<()> {
        let view = FileView::new(disp, etype, filetype)?;
        self.comm.barrier()?;
        self.view = view;
        Ok(())
    }

    /// Set the view without synchronization. Real PnetCDF achieves
    /// independent data mode by keeping a second handle opened on
    /// `MPI_COMM_SELF`; changing the view on that handle involves no other
    /// rank. This method models that path.
    pub fn set_view_local(
        &mut self,
        disp: u64,
        etype: &Datatype,
        filetype: &Datatype,
    ) -> MpioResult<()> {
        self.view = FileView::new(disp, etype, filetype)?;
        Ok(())
    }

    /// The current view.
    pub fn view(&self) -> &FileView {
        &self.view
    }

    /// Is the client-side page cache active on this handle
    /// (`pnc_cache=enable`)?
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Charge a cache operation's virtual time to the trace: memcpy work to
    /// [`Phase::Cache`], miss fills and write-behind to the disk phases.
    /// Three scoped advances keep the coverage invariant exact.
    fn apply_ledger(&self, led: &CacheLedger) {
        if led.cache_nanos > 0 {
            let _s = PhaseScope::enter(Phase::Cache);
            self.comm.advance(Time::from_nanos(led.cache_nanos));
        }
        if led.read_nanos > 0 {
            let _s = PhaseScope::enter(Phase::DiskRead);
            self.comm.advance(Time::from_nanos(led.read_nanos));
        }
        if led.write_nanos > 0 {
            let _s = PhaseScope::enter(Phase::DiskWrite);
            self.comm.advance(Time::from_nanos(led.write_nanos));
        }
    }

    /// Pre-synchronization cache work: publish dirty pages (write-behind)
    /// and advance the file's coherence epoch if anything was published.
    /// Must run *before* the collective rendezvous.
    fn cache_pre(&self) -> MpioResult<()> {
        if let Some(cache) = &self.cache {
            let mut led = CacheLedger::new(self.comm.now());
            let res = cache.lock().sync_prepare(&self.file, &mut led);
            self.apply_ledger(&led);
            res?;
        }
        Ok(())
    }

    /// Post-synchronization cache work: drop clean cached bytes if any rank
    /// advanced the epoch. Must run *after* the collective rendezvous, so
    /// every rank's [`Self::cache_pre`] happens-before this check.
    fn cache_post(&self) {
        if let Some(cache) = &self.cache {
            cache.lock().sync_complete(&self.file);
        }
    }

    /// A coherence boundary without other I/O semantics: flush, rendezvous,
    /// revalidate. PnetCDF calls this where netCDF semantics promise
    /// visibility (e.g. entering define mode). No-op when the cache is
    /// disabled, so uncached runs keep their exact timings.
    pub fn cache_boundary(&self) -> MpioResult<()> {
        if self.cache.is_none() {
            return Ok(());
        }
        self.cache_pre()?;
        self.comm.barrier()?;
        self.cache_post();
        Ok(())
    }

    /// Ambient trace context for this rank's independent I/O: keeps the
    /// caller's request id (core installs one around its blocking and
    /// flush paths) while pinning the world rank, so pfs / cache / retry
    /// spans recorded below land on this rank's timeline.
    fn trace_ctx(&self) -> Option<TraceCtx> {
        self.comm
            .config()
            .events
            .is_enabled()
            .then(|| TraceCtx::enter(self.comm.world_rank(), TraceCtx::current_id()))
    }

    fn check_writable(&self) -> MpioResult<()> {
        if self.readonly {
            return Err(MpioError::Access("file is opened read-only".into()));
        }
        Ok(())
    }

    /// Pack the memory buffer described by `(buf, count, memtype)` into
    /// contiguous staging bytes, charging pack CPU time for noncontiguous
    /// layouts. Contiguous memory is borrowed as-is — no staging copy.
    fn stage<'a>(
        &self,
        buf: &'a [u8],
        count: usize,
        memtype: &Datatype,
    ) -> MpioResult<std::borrow::Cow<'a, [u8]>> {
        let bytes = memtype.size() as usize * count;
        if memtype.is_contiguous() && memtype.lb() == 0 {
            if buf.len() < bytes {
                return Err(MpioError::InvalidArgument(format!(
                    "memory buffer has {} bytes, datatype needs {bytes}",
                    buf.len()
                )));
            }
            self.comm.config().profile.record_bytepath(|b| {
                b.copies_elided += 1;
                b.borrowed_bytes += bytes as u64;
            });
            return Ok(std::borrow::Cow::Borrowed(&buf[..bytes]));
        }
        let data = pack::pack(buf, count, memtype)?;
        self.comm
            .advance(self.comm.config().cpu.pack(data.len(), 1.0));
        Ok(std::borrow::Cow::Owned(data))
    }

    /// The inverse of [`Self::stage`]: deliver read bytes into the memory
    /// buffer described by `(buf, count, memtype)` — a plain copy for
    /// contiguous memory, an unpack charged as CPU time otherwise.
    fn unstage(
        &self,
        data: &[u8],
        buf: &mut [u8],
        count: usize,
        memtype: &Datatype,
    ) -> MpioResult<()> {
        if memtype.is_contiguous() && memtype.lb() == 0 {
            if buf.len() < data.len() {
                return Err(MpioError::InvalidArgument(format!(
                    "memory buffer has {} bytes, read produced {}",
                    buf.len(),
                    data.len()
                )));
            }
            buf[..data.len()].copy_from_slice(data);
        } else {
            pack::unpack(data, buf, count, memtype)?;
            self.comm
                .advance(self.comm.config().cpu.pack(data.len(), 1.0));
        }
        Ok(())
    }

    fn params(&self) -> TwoPhaseParams {
        let cfg = self.comm.config();
        TwoPhaseParams {
            cb_buffer_size: self.hints.cb_buffer_size,
            cb_nodes: self.hints.cb_nodes,
            io_servers: cfg.io_servers,
            stripe: cfg.stripe_size as u64,
            pipeline: self.hints.cb_pipeline.resolve(true),
            affinity: self.hints.cb_affinity.resolve(true),
        }
    }

    /// Map a view-relative access to absolute file runs through the
    /// memoizing flatten cache.
    fn mapped(&self, offset_etypes: u64, len: u64) -> MpioResult<Arc<Vec<Run>>> {
        let mut cache = self.flatten.lock();
        let before = cache.stats();
        let runs = cache.map(&self.view, offset_etypes, len);
        let profile = &self.comm.config().profile;
        if profile.is_enabled() {
            let after = cache.stats();
            profile.record_bytepath(|b| {
                b.flatten_hits += after.0 - before.0;
                b.flatten_misses += after.1 - before.1;
            });
        }
        runs
    }

    /// `(hits, misses)` of the view-flattening memoization cache.
    pub fn flatten_stats(&self) -> (u64, u64) {
        self.flatten.lock().stats()
    }

    /// Validate a caller-supplied run list: sorted, non-overlapping, and
    /// totalling `data_len` bytes.
    fn check_runs(runs: &[Run], data_len: usize) -> MpioResult<()> {
        let mut prev_end = 0u64;
        for &(off, len) in runs {
            if off < prev_end {
                return Err(MpioError::InvalidArgument(
                    "run list must be sorted and non-overlapping".into(),
                ));
            }
            prev_end = off + len;
        }
        let total = runs_total(runs);
        if total != data_len as u64 {
            return Err(MpioError::InvalidArgument(format!(
                "run list covers {total} bytes but the buffer has {data_len}"
            )));
        }
        Ok(())
    }

    // ---- independent data access ------------------------------------------

    /// Independent write of pre-resolved absolute file runs: the data-sieving
    /// path without view mapping. `runs` must be sorted and non-overlapping;
    /// `data` holds the run bytes concatenated in run order.
    pub fn write_runs_at(&self, runs: &[Run], data: &[u8]) -> MpioResult<usize> {
        self.check_writable()?;
        Self::check_runs(runs, data.len())?;
        let _tc = self.trace_ctx();
        if let Some(cache) = &self.cache {
            // Write-allocate into the page cache; bytes reach the PFS at
            // the next flush point (eviction, sync, collective entry).
            let mut led = CacheLedger::new(self.comm.now());
            let res = cache.lock().write_runs(&self.file, &mut led, runs, data);
            self.apply_ledger(&led);
            res?;
            return Ok(data.len());
        }
        let ds = self.hints.ds_write.resolve(true);
        let _attr = PhaseScope::enter(Phase::DiskWrite);
        let t = sieve::write(
            &self.file,
            self.hints.ind_wr_buffer_size,
            ds,
            self.comm.now(),
            runs,
            data,
        )?;
        self.comm.advance_to(t);
        Ok(data.len())
    }

    /// Independent read of pre-resolved absolute file runs; returns the run
    /// bytes concatenated in run order.
    pub fn read_runs_at(&self, runs: &[Run]) -> MpioResult<Vec<u8>> {
        Self::check_runs(runs, runs_total(runs) as usize)?;
        let _tc = self.trace_ctx();
        if let Some(cache) = &self.cache {
            let mut led = CacheLedger::new(self.comm.now());
            let res = cache.lock().read_runs(&self.file, &mut led, runs);
            self.apply_ledger(&led);
            return res;
        }
        let ds = self.hints.ds_read.resolve(true);
        let _attr = PhaseScope::enter(Phase::DiskRead);
        let (data, t) = sieve::read(
            &self.file,
            self.hints.ind_rd_buffer_size,
            ds,
            self.comm.now(),
            runs,
        )?;
        self.comm.advance_to(t);
        Ok(data)
    }

    /// Independent write at `offset` (in etypes of the current view)
    /// (`MPI_File_write_at`). Returns bytes written.
    pub fn write_at(
        &self,
        offset: u64,
        buf: &[u8],
        count: usize,
        memtype: &Datatype,
    ) -> MpioResult<usize> {
        self.check_writable()?;
        let data = self.stage(buf, count, memtype)?;
        let runs = self.mapped(offset, data.len() as u64)?;
        self.write_runs_at(&runs, &data)
    }

    /// Independent read at `offset` (`MPI_File_read_at`). Returns bytes read.
    pub fn read_at(
        &self,
        offset: u64,
        buf: &mut [u8],
        count: usize,
        memtype: &Datatype,
    ) -> MpioResult<usize> {
        let want = memtype.size() as usize * count;
        let runs = self.mapped(offset, want as u64)?;
        let data = self.read_runs_at(&runs)?;
        self.unstage(&data, buf, count, memtype)?;
        Ok(want)
    }

    // ---- collective data access ----------------------------------------------

    /// Collective write (`MPI_File_write_at_all`): two-phase I/O unless
    /// disabled by `romio_cb_write`. Returns bytes written.
    pub fn write_at_all(
        &self,
        offset: u64,
        buf: &[u8],
        count: usize,
        memtype: &Datatype,
    ) -> MpioResult<usize> {
        let data = self.stage(buf, count, memtype)?;
        let runs = self.mapped(offset, data.len() as u64)?;
        self.write_runs_at_all(&runs, &data)
    }

    /// Collective write of pre-resolved absolute file runs: the two-phase
    /// path without view mapping, for callers (such as PnetCDF's
    /// `wait_all`) that have already merged many requests into one sorted
    /// run list. Ranks may contribute empty lists but must all participate.
    pub fn write_runs_at_all(&self, runs: &[Run], data: &[u8]) -> MpioResult<usize> {
        self.check_writable()?;
        Self::check_runs(runs, data.len())?;
        // Collective entry is a coherence boundary: publish cached dirty
        // bytes first so the two-phase engine reads/writes a settled file.
        self.cache_pre()?;
        let nbytes = data.len();
        // The sender's ambient trace id rides the parcel: the finish
        // closure runs on one thread for all ranks, so thread-local
        // context cannot carry per-rank ids across the rendezvous.
        let parcel = twophase::encode_write_req(runs, data, TraceCtx::current_id());

        let env = self.comm.coll_env();
        let file = self.file.clone();
        let p = self.params();
        let cb = self.hints.cb_write.resolve(true);
        let (wr_buf, ds) = (
            self.hints.ind_wr_buffer_size,
            self.hints.ds_write.resolve(true),
        );
        let res: Arc<MpioResult<()>> =
            self.comm
                .collective(vec![parcel], move |mut deps| -> MpioResult<()> {
                    let parcels: Vec<Vec<u8>> =
                        deps.iter_mut().map(|d| std::mem::take(&mut d[0])).collect();
                    let mut reqs: Vec<(Vec<Run>, &[u8])> = Vec::with_capacity(parcels.len());
                    let mut ids: Vec<u64> = Vec::with_capacity(parcels.len());
                    for pc in &parcels {
                        let (r, d, id) = twophase::decode_req(pc)?;
                        reqs.push((r, d));
                        ids.push(id);
                    }
                    if cb {
                        twophase::write_all(&env, &file, &p, &reqs, &ids)?;
                    } else {
                        // Collective buffering disabled: every rank writes its
                        // own pieces independently (the ablation baseline).
                        each_rank_alone(&env, &ids, Phase::DiskWrite, "ind_write", |i, t| {
                            let (runs, data) = &reqs[i];
                            Ok(((), sieve::write(&file, wr_buf, ds, t, runs, data)?))
                        })?;
                    }
                    // The file changed under every client cache: advance the
                    // epoch once (the closure runs at the last arriver).
                    if reqs.iter().any(|(_, d)| !d.is_empty()) {
                        file.bump_coherence_epoch();
                    }
                    Ok(())
                })?;
        (*res).clone()?;
        self.cache_post();
        Ok(nbytes)
    }

    /// Collective read (`MPI_File_read_at_all`). Returns bytes read.
    pub fn read_at_all(
        &self,
        offset: u64,
        buf: &mut [u8],
        count: usize,
        memtype: &Datatype,
    ) -> MpioResult<usize> {
        let want = memtype.size() as usize * count;
        let runs = self.mapped(offset, want as u64)?;
        let data = self.read_runs_at_all(&runs)?;
        self.unstage(&data, buf, count, memtype)?;
        Ok(want)
    }

    /// Collective read of pre-resolved absolute file runs; returns the run
    /// bytes concatenated in run order. Ranks may contribute empty lists
    /// but must all participate.
    pub fn read_runs_at_all(&self, runs: &[Run]) -> MpioResult<Vec<u8>> {
        Self::check_runs(runs, runs_total(runs) as usize)?;
        // Publish this rank's cached dirty bytes before the rendezvous so
        // the collective read observes them (and every peer's).
        self.cache_pre()?;
        let parcel = twophase::encode_read_req(runs, TraceCtx::current_id());

        let env = self.comm.coll_env();
        let file = self.file.clone();
        let p = self.params();
        let cb = self.hints.cb_read.resolve(true);
        let (rd_buf, ds) = (
            self.hints.ind_rd_buffer_size,
            self.hints.ds_read.resolve(true),
        );
        let me = self.comm.rank();
        // One slot per rank, each taken once by its owner: the shared
        // result hands every rank its own bytes without a copy.
        let res: Arc<MpioResult<Vec<Mutex<Vec<u8>>>>> =
            self.comm
                .collective(vec![parcel], move |mut deps| -> MpioResult<_> {
                    let mut reqs: Vec<Vec<Run>> = Vec::with_capacity(deps.len());
                    let mut ids: Vec<u64> = Vec::with_capacity(deps.len());
                    for d in deps.iter_mut() {
                        let parcel = std::mem::take(&mut d[0]);
                        let (r, _, id) = twophase::decode_req(&parcel)?;
                        reqs.push(r);
                        ids.push(id);
                    }
                    let outs = if cb {
                        twophase::read_all(&env, &file, &p, &reqs, &ids)?.0
                    } else {
                        each_rank_alone(&env, &ids, Phase::DiskRead, "ind_read", |i, t| {
                            sieve::read(&file, rd_buf, ds, t, &reqs[i])
                        })?
                    };
                    Ok(outs.into_iter().map(Mutex::new).collect())
                })?;
        let data = match &*res {
            Ok(all) => std::mem::take(&mut *all[me].lock()),
            Err(e) => return Err(e.clone()),
        };
        self.cache_post();
        debug_assert_eq!(data.len() as u64, runs_total(runs));
        Ok(data)
    }
}

/// The `romio_cb_*=disable` fallback of a collective: each rank, in turn,
/// accesses its own runs independently with data sieving. `access(i, t)`
/// runs group member `i`'s access starting at its clock `t` and returns its
/// output and completion time; the time is charged to that rank as `phase`
/// and traced as a `span` under its request's trace id.
fn each_rank_alone<T>(
    env: &CollEnv,
    ids: &[u64],
    phase: Phase,
    span: &'static str,
    mut access: impl FnMut(usize, Time) -> MpioResult<(T, Time)>,
) -> MpioResult<Vec<T>> {
    let (profile, events) = (&env.config.profile, &env.config.events);
    let mut outs = Vec::with_capacity(ids.len());
    for (i, &id) in ids.iter().enumerate() {
        let w = env.group[i];
        let _ctx = events.is_enabled().then(|| TraceCtx::enter(w, id));
        let before = env.clocks.now(w);
        let (out, t) = access(i, before)?;
        profile.record_phase(w, phase, t.saturating_sub(before).as_nanos());
        if events.is_enabled() && t > before {
            events.record(
                Span::new(w, layer::MPIO, span, before.as_nanos(), t.as_nanos()).with_parent(id),
            );
        }
        env.clocks.advance_to(w, t);
        outs.push(out);
    }
    Ok(outs)
}
