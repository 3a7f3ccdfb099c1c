//! The unified access-request pipeline and the nonblocking API.
//!
//! Every data access — typed or flexible, blocking or nonblocking,
//! collective or independent — is lowered into one [`AccessReq`]: the
//! validated access frozen as absolute file byte runs plus (for puts) the
//! staged external bytes — and completed by one function, `complete`:
//! flush, agree (when collective), fail over once on an agreed lost
//! server. The blocking calls in [`super::highlevel`] and
//! [`super::flexible`] hand it a queue of one; the nonblocking
//! `iput_*`/`iget_*` calls queue requests on the dataset and return
//! [`Request`] tickets that `wait_all`/`wait` complete.
//!
//! `wait_all` is where the paper's aggregation idea pays off (the
//! optimization production PnetCDF later shipped as `ncmpi_iput/ncmpi_wait_all`):
//! all pending puts are merged into **one** sorted, overlap-resolved run
//! list with a packed staging buffer and issued as a single collective
//! write; all pending gets union into one run list issued as a single
//! collective read. N queued variable accesses cost one or two collective
//! rounds instead of N.

use std::borrow::Cow;

use hpc_sim::trace::events::layer;
use hpc_sim::{Span, Time, TraceCtx};
use pnetcdf_format::layout;
use pnetcdf_format::types::{from_external, to_external};
use pnetcdf_format::{NcType, NcValue};
use pnetcdf_mpi::{Datatype, ReduceOp, Request};
use pnetcdf_mpio::view::runs_total;
use pnetcdf_mpio::{MpiFile, MpioError, Run};

use crate::dataset::{DataMode, Dataset};
use crate::error::{NcmpiError, NcmpiResult};

/// Direction of an access request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AccessKind {
    Put,
    Get,
}

/// One lowered access request. The access is fully validated and resolved
/// to file byte runs when the request is built, so executing it later (or
/// merged with others) needs no further header state.
pub(crate) struct AccessReq {
    /// The nonblocking ticket; `Request::NULL` for a blocking call's request.
    pub id: Request,
    pub varid: usize,
    pub kind: AccessKind,
    /// Absolute file byte runs of the selection: sorted, non-overlapping and
    /// non-adjacent, as `layout::access_runs` emits them.
    pub runs: Vec<Run>,
    /// Put: external (big-endian) bytes in run order. Get: empty.
    pub buffer: Vec<u8>,
    /// The variable's external type, kept for get-result conversion.
    pub nctype: NcType,
    /// Event-trace id issued at enqueue time (0 when tracing is off or the
    /// request is a blocking call's, which only its flush span covers).
    pub trace_id: u64,
    /// Virtual time the request was queued (span begin for `iput`/`iget`).
    pub queued: Time,
}

// ---- request merging --------------------------------------------------------

/// One overlap-resolved slice of a request's staged buffer: `len` bytes at
/// file offset `off`, found at byte `pos` of source buffer `src`. Pieces
/// carry no bytes — overlap resolution is pure arithmetic on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Piece {
    off: u64,
    len: u64,
    src: usize,
    pos: u64,
}

impl Piece {
    fn end(&self) -> u64 {
        self.off + self.len
    }
}

/// Sorted, non-overlapping references into the requests' staged buffers.
/// Inserting later requests overwrites earlier ones where they overlap
/// (last request wins — the same deterministic rule two-phase I/O applies
/// across ranks). Unlike the old owned-segment design, resolving overlaps
/// never copies a byte: the only copy happens in [`RunStage::into_merged_with`],
/// one gather pass from the source buffers into the final staging buffer.
#[derive(Default)]
pub(crate) struct RunStage {
    pieces: Vec<Piece>,
}

impl RunStage {
    /// Overlay `len` bytes at file offset `off`, sourced from byte `pos` of
    /// source buffer `src`.
    pub(crate) fn insert(&mut self, off: u64, len: u64, src: usize, pos: u64) {
        if len == 0 {
            return;
        }
        let end = off + len;
        let mut i = self.pieces.partition_point(|p| p.end() <= off);
        if i < self.pieces.len() && self.pieces[i].off < off {
            // The piece straddles `off`: split it, keeping the head.
            let head = &mut self.pieces[i];
            let keep = off - head.off;
            let tail = Piece {
                off,
                len: head.len - keep,
                src: head.src,
                pos: head.pos + keep,
            };
            head.len = keep;
            self.pieces.insert(i + 1, tail);
            i += 1;
        }
        while i < self.pieces.len() && self.pieces[i].off < end {
            if self.pieces[i].end() <= end {
                self.pieces.remove(i);
            } else {
                // Trim the overwritten head of the trailing piece.
                let p = &mut self.pieces[i];
                let cut = end - p.off;
                p.off = end;
                p.pos += cut;
                p.len -= cut;
                break;
            }
        }
        self.pieces.insert(i, Piece { off, len, src, pos });
    }

    /// Final merged form: coalesced runs plus the staging buffer, gathered
    /// in a single pass from the source buffers the pieces reference.
    pub(crate) fn into_merged_with(self, sources: &[&[u8]]) -> (Vec<Run>, Vec<u8>) {
        let total: u64 = self.pieces.iter().map(|p| p.len).sum();
        let mut runs: Vec<Run> = Vec::with_capacity(self.pieces.len());
        let mut staging = Vec::with_capacity(total as usize);
        for p in &self.pieces {
            match runs.last_mut() {
                Some(last) if last.0 + last.1 == p.off => last.1 += p.len,
                _ => runs.push((p.off, p.len)),
            }
            staging.extend_from_slice(&sources[p.src][p.pos as usize..(p.pos + p.len) as usize]);
        }
        (runs, staging)
    }
}

/// True when the runs are sorted, non-overlapping, and non-adjacent — i.e.
/// already in the exact shape `into_merged_with` would produce.
fn runs_coalesced(runs: &[Run]) -> bool {
    runs.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0)
}

/// The one request of `kind` in the queue, if there is exactly one. Its
/// runs are already coalesced, so a merge would leave it untouched: it is
/// borrowed as-is.
fn sole(reqs: &[AccessReq], kind: AccessKind) -> Option<&AccessReq> {
    let mut of_kind = reqs.iter().filter(|r| r.kind == kind);
    match (of_kind.next(), of_kind.next()) {
        (Some(only), None) => {
            debug_assert!(runs_coalesced(&only.runs));
            Some(only)
        }
        _ => None,
    }
}

/// Merge the put requests into one sorted run list + staging buffer, later
/// requests winning overlaps. A single put needs no merge at all:
/// its runs and staged buffer are borrowed as-is (zero copies).
fn merge_puts(reqs: &[AccessReq]) -> (Cow<'_, [Run]>, Cow<'_, [u8]>) {
    if let Some(only) = sole(reqs, AccessKind::Put) {
        return (Cow::Borrowed(&only.runs), Cow::Borrowed(&only.buffer));
    }
    let puts = || reqs.iter().filter(|r| r.kind == AccessKind::Put);
    let mut stage = RunStage::default();
    let sources: Vec<&[u8]> = puts().map(|r| r.buffer.as_slice()).collect();
    for (src, req) in puts().enumerate() {
        let mut pos = 0u64;
        for &(off, len) in &req.runs {
            stage.insert(off, len, src, pos);
            pos += len;
        }
    }
    let (runs, staging) = stage.into_merged_with(&sources);
    (Cow::Owned(runs), Cow::Owned(staging))
}

/// Union of all get requests' runs: sorted, coalesced coverage. A single
/// get is its own coverage (borrowed).
fn merge_gets(reqs: &[AccessReq]) -> Cow<'_, [Run]> {
    if let Some(only) = sole(reqs, AccessKind::Get) {
        return Cow::Borrowed(&only.runs);
    }
    let mut all: Vec<Run> = reqs
        .iter()
        .filter(|r| r.kind == AccessKind::Get)
        .flat_map(|r| r.runs.iter().copied())
        .collect();
    all.sort_unstable();
    let mut out: Vec<Run> = Vec::with_capacity(all.len());
    for (off, len) in all {
        if let Some(last) = out.last_mut() {
            let last_end = last.0 + last.1;
            if off <= last_end {
                last.1 = (off + len).max(last_end) - last.0;
                continue;
            }
        }
        out.push((off, len));
    }
    Cow::Owned(out)
}

/// Byte position of each coverage run inside the packed coverage buffer.
fn coverage_positions(cov: &[Run]) -> Vec<u64> {
    let mut pos = Vec::with_capacity(cov.len());
    let mut acc = 0u64;
    for &(_, len) in cov {
        pos.push(acc);
        acc += len;
    }
    pos
}

/// Extract one request's bytes (in its own run order) from the packed
/// coverage buffer. Every request run lies inside exactly one coverage run
/// because the coverage is the coalesced union of all request runs.
pub(crate) fn extract_runs(cov: &[Run], pos: &[u64], data: &[u8], runs: &[Run]) -> Vec<u8> {
    let mut out = Vec::with_capacity(runs_total(runs) as usize);
    for &(off, len) in runs {
        let i = cov.partition_point(|&(o, _)| o <= off) - 1;
        let p = (pos[i] + (off - cov[i].0)) as usize;
        out.extend_from_slice(&data[p..p + len as usize]);
    }
    out
}

/// One get's external bytes in its own run order, or the error that ended it.
type GetResult = NcmpiResult<Vec<u8>>;

// ---- the engine ------------------------------------------------------------

impl Dataset {
    /// Collectively agree on the outcome of a local step (see
    /// [`crate::agree`]): every rank contributes its local result, the
    /// maximum-severity error wins (ties → lowest rank), and *all* ranks —
    /// including those whose local step succeeded — return the same
    /// reconstructed error. Called after local validation/lowering and
    /// before the data collective, so a rank that failed validation never
    /// leaves the others hanging in the collective.
    pub(crate) fn agree<T>(&mut self, local: NcmpiResult<T>) -> NcmpiResult<T> {
        let payload = match &local {
            Ok(_) => Vec::new(),
            Err(e) => crate::agree::encode(e),
        };
        let all = self.comm.allgather_bytes(payload)?;
        match crate::agree::pick(&all) {
            None => local,
            Some(err) => {
                // One agreement event per world, not per rank: the profile
                // is shared by every rank thread.
                if self.comm.rank() == 0 {
                    self.comm
                        .config()
                        .profile
                        .record_fault(|f| f.agreed_errors += 1);
                }
                Err(err)
            }
        }
    }

    /// The variable's external type, or `NotFound`.
    pub(crate) fn var_nctype(&self, varid: usize) -> NcmpiResult<NcType> {
        self.header
            .vars
            .get(varid)
            .map(|v| v.nctype)
            .ok_or_else(|| NcmpiError::NotFound(format!("variable id {varid}")))
    }

    /// Data mode (collective or independent) is required to queue requests.
    fn require_data_mode(&self) -> NcmpiResult<()> {
        if self.mode == DataMode::Define {
            return Err(NcmpiError::InDefineMode);
        }
        Ok(())
    }

    /// Typed put staging, blocking and nonblocking alike: check that the
    /// dataset is writable and the value count, and convert native values
    /// to external bytes. The conversion is real CPU work and is charged
    /// as such.
    pub(crate) fn stage_typed<T: NcValue>(
        &self,
        varid: usize,
        count: &[u64],
        vals: &[T],
    ) -> NcmpiResult<Vec<u8>> {
        self.require_writable()?;
        let n: u64 = count.iter().product();
        if n as usize != vals.len() {
            return Err(NcmpiError::InvalidArgument(format!(
                "value buffer has {} elements, access selects {n}",
                vals.len()
            )));
        }
        let ext = to_external(vals, self.var_nctype(varid)?)?;
        self.comm
            .advance(self.comm.config().cpu.pack(ext.len(), 1.0));
        Ok(ext)
    }

    /// Lower an access: validate it, resolve it to file runs and freeze it
    /// as a request — a put when `staged` carries its external bytes, a get
    /// otherwise. A read is validated against the current record count; a
    /// write grows the local record count and invalidates the variable's
    /// prefetch cache, so later accesses in the same batch see the
    /// post-write state.
    pub(crate) fn lower(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        staged: Option<Vec<u8>>,
    ) -> NcmpiResult<AccessReq> {
        let nctype = self.var_nctype(varid)?;
        let h = &self.header;
        let limit = staged.is_none().then_some(h.numrecs);
        layout::check_access(h, varid, start, count, stride, limit)?;
        let runs = layout::access_runs(h, self.layout.recsize, varid, start, count, stride);
        let total = runs_total(&runs);
        let kind = match &staged {
            Some(ext) if total as usize != ext.len() => {
                return Err(NcmpiError::InvalidArgument(format!(
                    "access selects {total} bytes but the staged buffer holds {}",
                    ext.len()
                )));
            }
            Some(_) => {
                self.grow_numrecs(varid, start, count, stride);
                self.invalidate_cache(varid);
                AccessKind::Put
            }
            None => AccessKind::Get,
        };
        Ok(AccessReq {
            id: Request::NULL,
            varid,
            kind,
            runs,
            buffer: staged.unwrap_or_default(),
            nctype,
            trace_id: 0,
            queued: Time::ZERO,
        })
    }

    /// Complete one blocking access as a queue of one. A collective call
    /// first agrees on the lowering, so a rank that failed validation never
    /// leaves the others alone in the data collective. Returns a get's
    /// external type and bytes (no bytes for a put).
    pub(crate) fn complete_one(
        &mut self,
        lowered: NcmpiResult<AccessReq>,
        collective: bool,
    ) -> NcmpiResult<(NcType, Vec<u8>)> {
        let req = if collective {
            self.agree(lowered)?
        } else {
            lowered?
        };
        let put = req.kind == AccessKind::Put;
        let (done, got) = self.complete(std::slice::from_ref(&req), put, !put, collective);
        done?;
        if put && collective && self.header.is_record_var(req.varid) {
            self.reconcile_numrecs()?;
        }
        let ext = got.into_iter().next().transpose()?.unwrap_or_default();
        Ok((req.nctype, ext))
    }

    /// The typed get tail: charge the external→native conversion and
    /// convert.
    pub(crate) fn ext_to_values<T: NcValue>(
        &self,
        (nctype, ext): (NcType, Vec<u8>),
    ) -> NcmpiResult<Vec<T>> {
        self.comm
            .advance(self.comm.config().cpu.pack(ext.len(), 1.0));
        Ok(from_external(&ext, nctype)?)
    }

    pub(crate) fn enqueue(&mut self, mut req: AccessReq) -> Request {
        let id = self.req_table.issue();
        req.id = id;
        let events = &self.comm.config().events;
        if events.is_enabled() {
            req.trace_id = events.next_id();
            req.queued = self.comm.now();
        }
        self.pending.push(req);
        id
    }

    fn enqueue_put_typed<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        vals: &[T],
    ) -> NcmpiResult<Request> {
        self.require_data_mode()?;
        let ext = self.stage_typed(varid, count, vals)?;
        let req = self.lower(varid, start, count, stride, Some(ext))?;
        Ok(self.enqueue(req))
    }

    fn enqueue_get(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
    ) -> NcmpiResult<Request> {
        self.require_data_mode()?;
        let req = self.lower(varid, start, count, stride, None)?;
        Ok(self.enqueue(req))
    }

    // ---- the nonblocking API ------------------------------------------------

    /// Queue a subarray write (`ncmpi_iput_vara_<type>`); complete it with
    /// [`Dataset::wait_all`] (collective mode) or [`Dataset::wait`]
    /// (independent mode).
    pub fn iput_vara<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        vals: &[T],
    ) -> NcmpiResult<Request> {
        self.enqueue_put_typed(varid, start, count, None, vals)
    }

    /// Queue a strided subarray write (`ncmpi_iput_vars_<type>`).
    pub fn iput_vars<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
        vals: &[T],
    ) -> NcmpiResult<Request> {
        self.enqueue_put_typed(varid, start, count, Some(stride), vals)
    }

    /// Queue a single-element write (`ncmpi_iput_var1_<type>`).
    pub fn iput_var1<T: NcValue>(
        &mut self,
        varid: usize,
        index: &[u64],
        val: T,
    ) -> NcmpiResult<Request> {
        let count = vec![1u64; index.len()];
        self.enqueue_put_typed(varid, index, &count, None, &[val])
    }

    /// Queue a whole-variable write (`ncmpi_iput_var_<type>`).
    pub fn iput_var<T: NcValue>(&mut self, varid: usize, vals: &[T]) -> NcmpiResult<Request> {
        let (start, count) = self.whole(varid, Some(vals.len()))?;
        self.enqueue_put_typed(varid, &start, &count, None, vals)
    }

    /// Queue a flexible subarray write (`ncmpi_iput_vara`): memory described
    /// by an MPI datatype.
    pub fn iput_vara_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        buf: &[u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<Request> {
        self.require_data_mode()?;
        let ext = self.stage_flexible(varid, count, buf, bufcount, memtype)?;
        let req = self.lower(varid, start, count, None, Some(ext))?;
        Ok(self.enqueue(req))
    }

    /// Queue a flexible subarray read (`ncmpi_iget_vara`): the memory
    /// description is validated now; retrieve the bytes with
    /// [`Dataset::take_result_flexible`] after the wait call completes it.
    pub fn iget_vara_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<Request> {
        self.require_data_mode()?;
        self.check_flexible(varid, count, bufcount, memtype)?;
        let req = self.lower(varid, start, count, None, None)?;
        Ok(self.enqueue(req))
    }

    /// Queue a subarray read (`ncmpi_iget_vara_<type>`); retrieve the values
    /// with [`Dataset::take_result`] after the wait call completes it.
    pub fn iget_vara(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
    ) -> NcmpiResult<Request> {
        self.enqueue_get(varid, start, count, None)
    }

    /// Queue a strided subarray read (`ncmpi_iget_vars_<type>`).
    pub fn iget_vars(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
    ) -> NcmpiResult<Request> {
        self.enqueue_get(varid, start, count, Some(stride))
    }

    /// Queue a single-element read (`ncmpi_iget_var1_<type>`).
    pub fn iget_var1(&mut self, varid: usize, index: &[u64]) -> NcmpiResult<Request> {
        let count = vec![1u64; index.len()];
        self.enqueue_get(varid, index, &count, None)
    }

    /// Queue a whole-variable read (`ncmpi_iget_var_<type>`).
    pub fn iget_var(&mut self, varid: usize) -> NcmpiResult<Request> {
        let (start, count) = self.whole(varid, None)?;
        self.enqueue_get(varid, &start, &count, None)
    }

    /// Number of queued, un-waited requests.
    pub fn num_pending(&self) -> usize {
        self.pending.len()
    }

    /// Consume a completed get's stored result.
    fn take_completed(&mut self, req: Request) -> NcmpiResult<(NcType, Vec<u8>)> {
        self.results
            .remove(&req.id())
            .ok_or_else(|| NcmpiError::NotFound(format!("completed request {req:?}")))?
    }

    /// Retrieve (and consume) a completed get's values. A get whose flush
    /// failed yields the per-request error recorded at flush time.
    pub fn take_result<T: NcValue>(&mut self, req: Request) -> NcmpiResult<Vec<T>> {
        let got = self.take_completed(req)?;
        self.ext_to_values(got)
    }

    /// Retrieve (and consume) a completed get's bytes into a flexible-API
    /// memory description.
    pub fn take_result_flexible(
        &mut self,
        req: Request,
        buf: &mut [u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        let got = self.take_completed(req)?;
        self.ext_to_memory(got, buf, bufcount, memtype)
    }

    // ---- waiting ------------------------------------------------------------

    /// Collectively complete every pending request (`ncmpi_wait_all`).
    ///
    /// All ranks must call this together (ranks with nothing pending still
    /// participate). Pending puts merge into a single collective write;
    /// pending gets merge into a single collective read — regardless of how
    /// many requests were queued.
    pub fn wait_all(&mut self) -> NcmpiResult<()> {
        self.require_collective()?;
        let reqs = std::mem::take(&mut self.pending);
        // Agree on which phases run: ranks may have queued different mixes.
        let local = [
            reqs.iter().any(|r| r.kind == AccessKind::Put) as u64,
            reqs.iter().any(|r| r.kind == AccessKind::Get) as u64,
            reqs.iter()
                .any(|r| r.kind == AccessKind::Put && self.header.is_record_var(r.varid))
                as u64,
        ];
        let global = self.comm.allreduce(ReduceOp::Max, &local)?;
        let done = self.complete_queue(reqs, global[0] != 0, global[1] != 0, true);
        if done.is_ok() && global[2] != 0 {
            self.reconcile_numrecs()?;
        }
        done
    }

    /// Independently complete every pending request (`ncmpi_wait`).
    pub fn wait(&mut self) -> NcmpiResult<()> {
        self.require_independent()?;
        let reqs = std::mem::take(&mut self.pending);
        let do_puts = reqs.iter().any(|r| r.kind == AccessKind::Put);
        let do_gets = reqs.iter().any(|r| r.kind == AccessKind::Get);
        self.complete_queue(reqs, do_puts, do_gets, false)
    }

    /// Complete a drained queue and store every get's result for
    /// `take_result` — errors included, so a failed flush leaves no stale
    /// requests behind.
    fn complete_queue(
        &mut self,
        reqs: Vec<AccessReq>,
        do_puts: bool,
        do_gets: bool,
        collective: bool,
    ) -> NcmpiResult<()> {
        let (done, got) = self.complete(&reqs, do_puts, do_gets, collective);
        let gets = reqs.iter().filter(|r| r.kind == AccessKind::Get);
        for (req, res) in gets.zip(got) {
            self.results
                .insert(req.id.id(), res.map(|ext| (req.nctype, ext)));
        }
        done
    }

    /// The one completion path every data access takes, blocking calls as
    /// a queue of one: flush the queue, agree on the outcome when
    /// collective, and on a lost-but-coverable server fail over once.
    /// Returns the outcome and one result per queued get, in queue order.
    fn complete(
        &mut self,
        reqs: &[AccessReq],
        do_puts: bool,
        do_gets: bool,
        collective: bool,
    ) -> (NcmpiResult<()>, Vec<GetResult>) {
        let (mut done, mut got) = self.flush_merged(reqs, do_puts, do_gets, collective);
        if collective {
            done = self.agree(done);
        }
        // Server failover. Collectively, every rank is driven by the same
        // agreed error, so all mark the server down (idempotently) at the
        // same operation; independently there is no agreement round and
        // whichever rank escalates first flips the shared mark. The queue
        // then runs once more in degraded mode: puts re-issue the same
        // bytes (idempotent), gets replace their error results.
        if let Err(NcmpiError::Mpio(MpioError::ServerLost { server, .. })) = done {
            self.file.raw().mark_server_down(server);
            (done, got) = self.flush_merged(reqs, do_puts, do_gets, collective);
            if collective {
                done = self.agree(done);
            }
        }
        (done, got)
    }

    /// Merge and issue the queue: at most one write and one read. Writes
    /// flush first, so a get queued after a put of the same region observes
    /// the new data.
    fn flush_merged(
        &mut self,
        reqs: &[AccessReq],
        do_puts: bool,
        do_gets: bool,
        collective: bool,
    ) -> (NcmpiResult<()>, Vec<GetResult>) {
        let of_kind = |kind| reqs.iter().filter(move |r: &&AccessReq| r.kind == kind);
        // A failed write or read completes every queued get with its error.
        let fail = |e: MpioError| {
            let e = NcmpiError::from(e);
            let got = of_kind(AccessKind::Get).map(|_| Err(e.clone())).collect();
            (Err(e), got)
        };
        if do_puts {
            let (runs, staging) = merge_puts(reqs);
            match staging {
                Cow::Borrowed(_) => self.comm.config().profile.record_bytepath(|b| {
                    b.copies_elided += 1;
                    b.borrowed_bytes += staging.len() as u64;
                }),
                // Merging N staged buffers into one is memcpy work.
                Cow::Owned(_) => {
                    self.comm
                        .advance(self.comm.config().cpu.pack(staging.len(), 1.0));
                }
            }
            let wrote = self.issue(AccessKind::Put, reqs, &runs, |f| {
                if collective {
                    f.write_runs_at_all(&runs, &staging)
                } else {
                    f.write_runs_at(&runs, &staging)
                }
            });
            if let Err(e) = wrote {
                return fail(e);
            }
            // Attribute per queued request (pre-merge sizes), so the same
            // workload reports the same put_size via either access mode.
            for req in of_kind(AccessKind::Put) {
                let nonblocking = req.id != Request::NULL;
                self.profile
                    .record(req.varid, true, nonblocking, req.buffer.len() as u64);
            }
        }
        if !do_gets {
            return (Ok(()), Vec::new());
        }
        let cov = merge_gets(reqs);
        let read = self.issue(AccessKind::Get, reqs, &cov, |f| {
            if collective {
                f.read_runs_at_all(&cov)
            } else {
                f.read_runs_at(&cov)
            }
        });
        let data = match read {
            Ok(data) => data,
            Err(e) => return fail(e),
        };
        let got: Vec<GetResult> = match cov {
            // A single get is its own coverage: it takes the read buffer
            // whole instead of a copy of it.
            Cow::Borrowed(_) => vec![Ok(data)],
            Cow::Owned(cov) => {
                let pos = coverage_positions(&cov);
                of_kind(AccessKind::Get)
                    .map(|req| Ok(extract_runs(&cov, &pos, &data, &req.runs)))
                    .collect()
            }
        };
        for (req, bytes) in of_kind(AccessKind::Get).zip(&got) {
            let nonblocking = req.id != Request::NULL;
            let len = bytes.as_ref().map_or(0, Vec::len) as u64;
            self.profile.record(req.varid, false, nonblocking, len);
        }
        (Ok(()), got)
    }

    /// Run one merged flush of `runs` under a fresh trace id, recording its
    /// `flush_put`/`flush_get` span and, linked to it, one `iput`/`iget`
    /// span per queued request from its queue time (blocking requests
    /// carry no trace id and get none).
    fn issue<R>(
        &self,
        kind: AccessKind,
        reqs: &[AccessReq],
        runs: &[Run],
        io: impl FnOnce(&MpiFile) -> R,
    ) -> R {
        let events = &self.comm.config().events;
        if !events.is_enabled() {
            return io(&self.file);
        }
        let rank = self.comm.world_rank();
        let rid = events.next_id();
        let t0 = self.comm.now().as_nanos();
        let out = {
            let _ctx = TraceCtx::enter(rank, rid);
            io(&self.file)
        };
        let t1 = self.comm.now().as_nanos();
        let (flush, each) = match kind {
            AccessKind::Put => ("flush_put", "iput"),
            AccessKind::Get => ("flush_get", "iget"),
        };
        let carried = || reqs.iter().filter(|r| r.kind == kind);
        events.record(
            Span::new(rank, layer::CORE, flush, t0, t1)
                .with_id(rid)
                .with_arg("reqs", carried().count() as u64)
                .with_arg("bytes", runs_total(runs)),
        );
        for req in carried().filter(|r| r.trace_id != 0) {
            events.record(
                Span::new(rank, layer::CORE, each, req.queued.as_nanos(), t1)
                    .with_id(req.trace_id)
                    .with_parent(rid)
                    .with_arg("bytes", runs_total(&req.runs)),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stage each source buffer in order (whole buffer at one offset) and
    /// gather the merged result.
    fn merged(inserts: &[(u64, &[u8])]) -> (Vec<Run>, Vec<u8>) {
        let mut s = RunStage::default();
        for (src, &(off, bytes)) in inserts.iter().enumerate() {
            s.insert(off, bytes.len() as u64, src, 0);
        }
        let sources: Vec<&[u8]> = inserts.iter().map(|&(_, b)| b).collect();
        s.into_merged_with(&sources)
    }

    #[test]
    fn run_stage_disjoint_inserts_coalesce() {
        let (runs, data) = merged(&[(8, &[3, 4]), (0, &[1, 2]), (2, &[9, 9])]);
        assert_eq!(runs, vec![(0, 4), (8, 2)]);
        assert_eq!(data, vec![1, 2, 9, 9, 3, 4]);
    }

    #[test]
    fn run_stage_later_insert_wins_overlap() {
        // Second insert punches the middle of the first.
        let (runs, data) = merged(&[(0, &[1; 8]), (2, &[2; 4])]);
        assert_eq!(runs, vec![(0, 8)]);
        assert_eq!(data, vec![1, 1, 2, 2, 2, 2, 1, 1]);
    }

    #[test]
    fn run_stage_overlap_spanning_segments() {
        // Third insert covers the tail of the first, head of the second.
        let (runs, data) = merged(&[(0, &[1; 4]), (6, &[2; 4]), (2, &[3; 6])]);
        assert_eq!(runs, vec![(0, 10)]);
        assert_eq!(data, vec![1, 1, 3, 3, 3, 3, 3, 3, 2, 2]);
    }

    #[test]
    fn run_stage_full_cover_replaces() {
        let (runs, data) = merged(&[(4, &[1; 2]), (0, &[2; 10])]);
        assert_eq!(runs, vec![(0, 10)]);
        assert_eq!(data, vec![2; 10]);
    }

    #[test]
    fn run_stage_split_keeps_source_positions() {
        // One multi-run source overlaid in its middle: the surviving head
        // and tail pieces must still index the right bytes of the source.
        let src0: Vec<u8> = (10..20).collect();
        let src1 = vec![99u8; 4];
        let mut s = RunStage::default();
        s.insert(0, 10, 0, 0);
        s.insert(3, 4, 1, 0);
        let (runs, data) = s.into_merged_with(&[&src0, &src1]);
        assert_eq!(runs, vec![(0, 10)]);
        assert_eq!(data, vec![10, 11, 12, 99, 99, 99, 99, 17, 18, 19]);
    }

    fn req(kind: AccessKind, runs: Vec<Run>, buffer: Vec<u8>) -> AccessReq {
        AccessReq {
            id: Request::NULL,
            varid: 0,
            kind,
            runs,
            buffer,
            nctype: NcType::Byte,
            trace_id: 0,
            queued: Time::ZERO,
        }
    }

    fn put_req(runs: Vec<Run>, buffer: Vec<u8>) -> AccessReq {
        req(AccessKind::Put, runs, buffer)
    }

    #[test]
    fn single_put_borrows_staging() {
        let reqs = vec![put_req(vec![(0, 2), (8, 2)], vec![1, 2, 3, 4])];
        let (runs, staging) = merge_puts(&reqs);
        assert_eq!(runs, vec![(0, 2), (8, 2)]);
        assert!(
            matches!(staging, std::borrow::Cow::Borrowed(_)),
            "single coalesced put must not copy its staging buffer"
        );
        assert_eq!(&*staging, &[1, 2, 3, 4]);
    }

    #[test]
    fn multi_put_merges_last_wins() {
        let reqs = vec![
            put_req(vec![(0, 4)], vec![1; 4]),
            put_req(vec![(2, 4)], vec![2; 4]),
        ];
        let (runs, staging) = merge_puts(&reqs);
        assert_eq!(runs, vec![(0, 6)]);
        assert_eq!(&*staging, &[1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn get_coverage_merges_and_extracts() {
        let a = req(AccessKind::Get, vec![(0, 4), (10, 2)], Vec::new());
        let b = req(AccessKind::Get, vec![(2, 4)], Vec::new());
        let reqs = [a, b];
        let cov = merge_gets(&reqs);
        assert_eq!(cov, vec![(0, 6), (10, 2)]);
        let pos = coverage_positions(&cov);
        // Coverage bytes: offsets 0..6 then 10..12.
        let data: Vec<u8> = vec![0, 1, 2, 3, 4, 5, 10, 11];
        assert_eq!(
            extract_runs(&cov, &pos, &data, &[(0, 4), (10, 2)]),
            vec![0, 1, 2, 3, 10, 11]
        );
        assert_eq!(extract_runs(&cov, &pos, &data, &[(2, 4)]), vec![2, 3, 4, 5]);
    }
}
