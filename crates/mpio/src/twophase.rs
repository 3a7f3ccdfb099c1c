//! Two-phase collective I/O (Rosario/Bordawekar/Choudhary; Thakur's extended
//! two-phase method — the ROMIO algorithm the paper builds on).
//!
//! Phase 1 — *exchange*: the aggregate byte range requested by all ranks is
//! partitioned into contiguous **file domains**, one per aggregator rank;
//! every rank ships the parts of its request that fall in each domain to
//! that domain's aggregator.
//!
//! Phase 2 — *access*: each aggregator walks its domain in collective-buffer
//! sized windows. In a window, the pieces contributed by all ranks are
//! merged; if they cover one contiguous interval the aggregator issues a
//! single large request, otherwise it performs read-modify-write of the
//! covered extent (writes) or one spanning read (reads). Either way, the
//! many small noncontiguous per-rank requests become a few large ordered
//! ones — this is the optimization responsible for PnetCDF's scaling in
//! Figures 6 and 7.
//!
//! The whole algorithm runs inside the last-arriver closure of a collective
//! rendezvous ([`pnetcdf_mpi::comm::Comm::collective`]), which makes the
//! virtual-time accounting deterministic: aggregator timelines all start at
//! the synchronized time `t0` and advance through the shared server queues
//! in rank order.

use std::ops::Range;

use hpc_sim::trace::events::{layer, stage};
use hpc_sim::{Phase, Profile, Span, Time, TraceCtx};
use pnetcdf_mpi::CollEnv;
use pnetcdf_pfs::{PfsFile, WriteCompletion};

use crate::error::{MpioError, MpioResult};
use crate::recover::{self, RetryPolicy};
use crate::view::{runs_total, Run};

/// Parameters resolved from hints at the call site.
#[derive(Clone, Copy, Debug)]
pub struct TwoPhaseParams {
    /// Collective buffer (window) size per aggregator.
    pub cb_buffer_size: usize,
    /// `cb_nodes` hint; `None` picks the aggregator count per collective
    /// from the server count and request volume ([`dynamic_cb_nodes`]).
    pub cb_nodes: Option<usize>,
    /// Number of PFS I/O servers (aggregator default and affine mapping).
    pub io_servers: usize,
    /// File system stripe size (domain boundaries align to it).
    pub stripe: u64,
    /// Pipeline the rounds (`pnc_cb_pipeline`): each aggregator holds two
    /// collective buffers, so round `j`'s data exchange overlaps round
    /// `j-1`'s disk access. Off reproduces the serial exchange-then-access
    /// timing exactly.
    pub pipeline: bool,
    /// Server-affine write domains (`pnc_cb_affinity`): each aggregator
    /// owns the stripes of a distinct subset of servers, so every server
    /// sees one aggregator stream and its NIC+disk pipeline stays full.
    pub affinity: bool,
}

impl TwoPhaseParams {
    /// Aggregator count for this collective: the `cb_nodes` hint if given,
    /// otherwise the dynamic default.
    pub fn naggs(&self, nprocs: usize, total_bytes: u64) -> usize {
        match self.cb_nodes {
            Some(k) => k.min(nprocs).max(1),
            None => dynamic_cb_nodes(nprocs, self.io_servers, total_bytes, self.cb_buffer_size),
        }
    }
}

/// Default aggregator count when `cb_nodes` is unset: one aggregator
/// stream per I/O server keeps every dual-resource server pipeline full
/// without queueing extra streams behind one disk, and a collective too
/// small to fill that many collective buffers uses fewer still.
pub fn dynamic_cb_nodes(
    nprocs: usize,
    io_servers: usize,
    total_bytes: u64,
    cb_buffer: usize,
) -> usize {
    let volume_cap = total_bytes.div_ceil(cb_buffer.max(1) as u64).max(1);
    io_servers
        .min(nprocs)
        .min(volume_cap.min(usize::MAX as u64) as usize)
        .max(1)
}

// ---- request parcels ------------------------------------------------------

/// Encode a write request (runs + packed data) into a deposit parcel.
///
/// `trace_id` is the sender's ambient trace id (0 while tracing is off).
/// It rides the parcel because the collective's finish closure runs on ONE
/// thread for all ranks — thread-local [`TraceCtx`] cannot carry a rank's
/// id across the rendezvous, so the wire format does.
pub fn encode_write_req(runs: &[Run], data: &[u8], trace_id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + runs.len() * 16 + data.len());
    out.extend_from_slice(&trace_id.to_ne_bytes());
    out.extend_from_slice(&(runs.len() as u64).to_ne_bytes());
    for &(off, len) in runs {
        out.extend_from_slice(&off.to_ne_bytes());
        out.extend_from_slice(&len.to_ne_bytes());
    }
    out.extend_from_slice(data);
    out
}

/// Encode a read request (runs only).
pub fn encode_read_req(runs: &[Run], trace_id: u64) -> Vec<u8> {
    encode_write_req(runs, &[], trace_id)
}

/// Decode a parcel into `(runs, data, trace_id)`; `data` borrows the
/// parcel.
///
/// A parcel arrives from another rank's deposit, so its length is
/// validated before any slice is taken: a truncated or corrupt exchange
/// parcel yields [`MpioError::InvalidArgument`] rather than a panic.
pub fn decode_req(parcel: &[u8]) -> MpioResult<(Vec<Run>, &[u8], u64)> {
    let trace_id = read_u64(parcel, 0)?;
    let n = read_u64(parcel, 8)? as usize;
    let runs_end = n
        .checked_mul(16)
        .and_then(|b| b.checked_add(16))
        .filter(|&need| need <= parcel.len())
        .ok_or_else(|| {
            MpioError::InvalidArgument(format!(
                "exchange parcel declares {n} runs but holds only {} bytes",
                parcel.len()
            ))
        })?;
    let mut runs = Vec::with_capacity(n);
    let mut total = 0u64;
    let mut pos = 16;
    while pos < runs_end {
        let off = read_u64(parcel, pos)?;
        let len = read_u64(parcel, pos + 8)?;
        total = total.checked_add(len).ok_or_else(|| {
            MpioError::InvalidArgument("exchange parcel run lengths overflow u64".to_string())
        })?;
        runs.push((off, len));
        pos += 16;
    }
    let data = &parcel[runs_end..];
    // A write parcel carries exactly the runs' payload; a read parcel
    // carries none. Anything else is a truncated or oversized exchange.
    if !data.is_empty() && data.len() as u64 != total {
        return Err(MpioError::InvalidArgument(format!(
            "exchange parcel payload is {} bytes but its runs cover {total}",
            data.len()
        )));
    }
    Ok((runs, data, trace_id))
}

/// Checked little-slice read used by [`decode_req`]: a parcel crossing the
/// rank boundary is untrusted input, so every fixed-width field goes
/// through a bounds check instead of a panicking `try_into().unwrap()`.
fn read_u64(parcel: &[u8], pos: usize) -> MpioResult<u64> {
    parcel
        .get(pos..pos + 8)
        .map(|b| u64::from_ne_bytes(b.try_into().expect("slice is 8 bytes")))
        .ok_or_else(|| {
            MpioError::InvalidArgument(format!(
                "exchange parcel truncated: field at byte {pos} needs 8 bytes, parcel holds {}",
                parcel.len()
            ))
        })
}

// ---- file domains -----------------------------------------------------------

/// Partition `[gmin, gmax)` into at most `naggs` contiguous domains whose
/// interior boundaries are *absolute* multiples of `stripe`.
///
/// Absolute alignment matters: GPFS-style file systems read-modify-write
/// partial blocks, so domain (and window) boundaries must coincide with
/// file-system block boundaries, not with the (arbitrary) start of the
/// aggregate request. Only the outermost edges at `gmin`/`gmax` can be
/// unaligned.
pub fn file_domains(gmin: u64, gmax: u64, naggs: usize, stripe: u64) -> Vec<(u64, u64)> {
    assert!(gmax >= gmin);
    let span = gmax - gmin;
    if span == 0 {
        return Vec::new();
    }
    let raw = span.div_ceil(naggs as u64);
    let dsz = raw.div_ceil(stripe).max(1) * stripe;
    // First interior boundary: the first absolute stripe multiple > gmin.
    let first_boundary = (gmin / stripe + 1) * stripe;
    let mut out = Vec::new();
    let mut lo = gmin;
    let mut boundary = first_boundary + (dsz - stripe);
    while lo < gmax {
        let hi = boundary.min(gmax);
        if hi > lo {
            out.push((lo, hi));
        }
        lo = hi;
        boundary += dsz;
    }
    out
}

/// Exchange wire traffic of one batch of rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Wire {
    /// Busiest non-aggregator endpoint: bytes one rank moves.
    max_send: u64,
    /// Busiest aggregator endpoint: bytes arriving from other ranks.
    max_recv: u64,
    /// Total bytes crossing the network.
    total: u64,
}

/// Wire traffic of the rounds in `batch`: round `j` ships exactly the bytes
/// that land in (writes) or come out of (reads) the round-`j` windows.
/// Aggregator `a` *is* rank `a` (ROMIO's default aggregator ranklist), so a
/// piece owned by its window's aggregator moves by memcpy, not over the
/// network. This is why Z-ish partitions — whose blocks align with the file
/// domains — exchange less than X-ish partitions (the paper's "different
/// access contiguity").
fn batch_wire(windows: &[Vec<Vec<Piece>>], nranks: usize, batch: Range<usize>) -> Wire {
    let mut send = vec![0u64; nranks];
    let mut w = Wire::default();
    for (a, agg_windows) in windows.iter().enumerate() {
        let mut recv = 0u64;
        for pieces in agg_windows.iter().take(batch.end).skip(batch.start) {
            for pc in pieces.iter().filter(|pc| pc.rank != a) {
                send[pc.rank] += pc.len;
                recv += pc.len;
            }
        }
        w.max_recv = w.max_recv.max(recv);
        w.total += recv;
    }
    w.max_send = send.into_iter().max().unwrap_or(0);
    w
}

// ---- window piece gathering -------------------------------------------------

/// A contiguous piece of one rank's request inside the current window.
#[derive(Clone, Copy, Debug)]
struct Piece {
    off: u64,
    len: u64,
    rank: usize,
    /// Position of this piece's bytes in the rank's packed buffer.
    src_pos: u64,
}

/// Per-rank scan cursor over its sorted run list.
#[derive(Clone, Copy, Default)]
struct Cursor {
    idx: usize,
    consumed: u64,
    src_pos: u64,
}

/// Advance `cur` over `runs`, emitting pieces up to file offset `whi`.
fn take_pieces(runs: &[Run], cur: &mut Cursor, whi: u64, rank: usize, out: &mut Vec<Piece>) {
    while cur.idx < runs.len() {
        let (off, len) = runs[cur.idx];
        let start = off + cur.consumed;
        if start >= whi {
            return;
        }
        let end = (off + len).min(whi);
        out.push(Piece {
            off: start,
            len: end - start,
            rank,
            src_pos: cur.src_pos + cur.consumed,
        });
        if end == off + len {
            cur.src_pos += len;
            cur.consumed = 0;
            cur.idx += 1;
        } else {
            cur.consumed = end - off;
            return;
        }
    }
}

/// Merge sorted-by-offset intervals into maximal contiguous runs.
fn merge_coverage(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (off, len) in intervals {
        if let Some(last) = out.last_mut() {
            let last_end = last.0 + last.1;
            if off <= last_end {
                let end = (off + len).max(last_end);
                last.1 = end - last.0;
                continue;
            }
        }
        out.push((off, len));
    }
    out
}

// ---- window planning ----------------------------------------------------------

/// Sorted `(offset, len)` stripe ranges an affine window owns.
type StripeRanges = Vec<(u64, u64)>;

/// Window plan of one collective: `windows[a][j]` holds round `j`'s pieces
/// for aggregator `a` (windows no piece touches are dropped). With
/// server-affine domains, `extents[a][j]` holds the sorted owned stripe
/// ranges those pieces may touch.
struct Plan {
    windows: Vec<Vec<Vec<Piece>>>,
    extents: Option<Vec<Vec<StripeRanges>>>,
    /// File domains the aggregators own.
    domains: usize,
}

impl Plan {
    /// Plan `[gmin, gmax)`: server-affine windows when `affinity` is on and
    /// the span is small enough to walk stripe by stripe, contiguous
    /// domains otherwise.
    fn new(
        runs: &[&[Run]],
        gmin: u64,
        gmax: u64,
        naggs: usize,
        p: &TwoPhaseParams,
        affinity: bool,
    ) -> Plan {
        let span_stripes = (gmax - 1) / p.stripe - gmin / p.stripe + 1;
        if affinity && span_stripes <= AFFINE_SPAN_LIMIT {
            return gather_affine_windows(runs, gmin, gmax, naggs, p);
        }
        let domains = file_domains(gmin, gmax, naggs, p.stripe);
        Plan {
            windows: gather_windows(runs, &domains, p.cb_buffer_size),
            extents: None,
            domains: domains.len(),
        }
    }

    /// Rounds of the busiest aggregator.
    fn rounds(&self) -> usize {
        self.windows.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Owned stripe ranges of window `(a, j)` (affine plans only).
    fn extents(&self, a: usize, j: usize) -> Option<&[(u64, u64)]> {
        self.extents.as_ref().map(|e| e[a][j].as_slice())
    }
}

/// Pre-gather every aggregator's windows' piece lists: one offset-ordered
/// pass with per-rank cursors. `result[a][j]` holds the pieces of window
/// `j` within domain `a` (empty windows are dropped).
fn gather_windows(
    runs: &[&[Run]],
    domains: &[(u64, u64)],
    cb_buffer_size: usize,
) -> Vec<Vec<Vec<Piece>>> {
    let mut cursors = vec![Cursor::default(); runs.len()];
    let mut out = Vec::with_capacity(domains.len());
    let cb = cb_buffer_size as u64;
    for &(dlo, dhi) in domains {
        let mut agg_windows = Vec::new();
        let mut wlo = dlo;
        while wlo < dhi {
            // Window boundaries at absolute multiples of the buffer size,
            // which (for the default hints) are file-system block aligned.
            let whi = ((wlo / cb + 1) * cb).min(dhi);
            let mut pieces: Vec<Piece> = Vec::new();
            for (r, rank_runs) in runs.iter().enumerate() {
                take_pieces(rank_runs, &mut cursors[r], whi, r, &mut pieces);
            }
            wlo = whi;
            if !pieces.is_empty() {
                agg_windows.push(pieces);
            }
        }
        out.push(agg_windows);
    }
    out
}

/// Affine planning walks every stripe of the aggregate span once; beyond
/// this many stripes (4 Mi ≈ a multi-TiB span at default stripes) fall
/// back to contiguous domains rather than build giant per-stripe tables.
const AFFINE_SPAN_LIMIT: u64 = 1 << 22;

/// Build the server-affine plan for `[gmin, gmax)`. Stripe `s` lives on
/// server `s % nservers` and is owned by aggregator
/// `(s % nservers) % naggs_eff`, so aggregator `a` owns exactly the stripes
/// of a distinct subset of servers and its disk traffic never contends
/// with another aggregator's. Each aggregator groups its consecutive owned
/// stripes into windows of about `cb_buffer_size` bytes. Pieces are split
/// at stripe boundaries so each lies in exactly one window (and one
/// extent).
fn gather_affine_windows(
    runs: &[&[Run]],
    gmin: u64,
    gmax: u64,
    naggs: usize,
    p: &TwoPhaseParams,
) -> Plan {
    debug_assert!(gmax > gmin);
    let stripe = p.stripe;
    let nservers = p.io_servers.max(1) as u64;
    let naggs_eff = naggs.min(p.io_servers).max(1);
    let s0 = gmin / stripe;
    let s1 = (gmax - 1) / stripe;
    let cb = p.cb_buffer_size.max(1) as u64;
    // Pass 1: per-stripe owner and window index, plus per-window extents.
    let mut wmap: Vec<u32> = Vec::with_capacity((s1 - s0 + 1) as usize);
    let mut wbytes = vec![0u64; naggs_eff];
    let mut extents: Vec<Vec<StripeRanges>> = vec![Vec::new(); naggs_eff];
    for s in s0..=s1 {
        let a = ((s % nservers) as usize) % naggs_eff;
        let elo = (s * stripe).max(gmin);
        let ehi = ((s + 1) * stripe).min(gmax);
        let len = ehi - elo;
        if extents[a].is_empty() || wbytes[a] + len > cb {
            extents[a].push(Vec::new());
            wbytes[a] = 0;
        }
        wbytes[a] += len;
        let win = extents[a].last_mut().unwrap();
        match win.last_mut() {
            Some(last) if last.0 + last.1 == elo => last.1 += len,
            _ => win.push((elo, len)),
        }
        wmap.push((extents[a].len() - 1) as u32);
    }

    // Pass 2: split every run at stripe boundaries and route each piece to
    // its stripe's window. Ranks are walked in order, so within a window
    // pieces stay in rank order and overlapping writes resolve exactly as
    // in the contiguous gather (highest rank wins).
    let mut windows: Vec<Vec<Vec<Piece>>> = extents
        .iter()
        .map(|aw| vec![Vec::new(); aw.len()])
        .collect();
    for (r, rank_runs) in runs.iter().enumerate() {
        let mut src = 0u64;
        for &(off, len) in rank_runs.iter() {
            let end = off + len;
            let mut lo = off;
            while lo < end {
                let s = lo / stripe;
                let hi = ((s + 1) * stripe).min(end);
                let a = ((s % nservers) as usize) % naggs_eff;
                windows[a][wmap[(s - s0) as usize] as usize].push(Piece {
                    off: lo,
                    len: hi - lo,
                    rank: r,
                    src_pos: src + (lo - off),
                });
                lo = hi;
            }
            src += len;
        }
    }

    // Drop windows no run touched (their stripes hold only other data).
    for a in 0..naggs_eff {
        let mut kept_w = Vec::new();
        let mut kept_e = Vec::new();
        for (w, e) in windows[a].drain(..).zip(extents[a].drain(..)) {
            if !w.is_empty() {
                kept_w.push(w);
                kept_e.push(e);
            }
        }
        windows[a] = kept_w;
        extents[a] = kept_e;
    }
    Plan {
        windows,
        extents: Some(extents),
        domains: naggs_eff,
    }
}

// ---- windows and tracing ----------------------------------------------------

/// One collective-buffer window in the access phase: its aggregator, its
/// pieces and its tracing identity — the pre-allocated window span id
/// `wid` (0 while tracing is off) and the owning aggregator's collective
/// span `parent`.
struct Window<'p> {
    a: usize,
    /// World rank the window's spans land on. Domains past the group size
    /// are *virtual* aggregators (see [`AccessSplit::attribute`]); their
    /// spans land on the last real rank's timeline rather than a phantom
    /// one.
    w: usize,
    round: usize,
    pieces: &'p [Piece],
    /// Payload bytes of all pieces.
    bytes: u64,
    extents: Option<&'p [(u64, u64)]>,
    wid: u64,
    parent: u64,
}

impl<'p> Window<'p> {
    /// Window `(a, round)` of `plan`; `coll_ids` is empty while tracing is
    /// off.
    fn new(env: &CollEnv, plan: &'p Plan, coll_ids: &[u64], a: usize, round: usize) -> Window<'p> {
        let pieces = plan.windows[a][round].as_slice();
        Window {
            a,
            w: env.group.get(a).or(env.group.last()).copied().unwrap_or(0),
            round,
            pieces,
            bytes: pieces.iter().map(|pc| pc.len).sum(),
            extents: plan.extents(a, round),
            wid: if coll_ids.is_empty() {
                0
            } else {
                env.config.events.next_id()
            },
            parent: coll_ids.get(a).copied().unwrap_or(0),
        }
    }

    /// A span on this window's timeline, tagged with its round.
    fn span(&self, name: &'static str, begin: Time, end: Time) -> Span {
        Span::new(self.w, layer::MPIO, name, begin.as_nanos(), end.as_nanos())
            .with_arg("round", self.round as u64)
    }

    /// Charge the memcpy that assembles (writes) or scatters (reads) the
    /// collective buffer, starting at `t`; returns when it is done.
    fn pack(&self, env: &CollEnv, split: &mut AccessSplit, t: Time) -> Time {
        let pack = env.config.cpu.pack(self.bytes as usize, 1.0);
        split.pack[self.a] += pack.as_nanos();
        if self.wid != 0 && pack > Time::ZERO {
            env.config.events.record(
                self.span("pack", t, t + pack)
                    .with_parent(self.wid)
                    .with_stage(stage::PACK),
            );
        }
        t + pack
    }

    /// Close the window, busy from `start` (its data ready) to `done`
    /// (durable on disk, or scattered to the ranks).
    fn finish(&self, env: &CollEnv, split: &mut AccessSplit, start: Time, done: Time) {
        split.windows += 1;
        split.serial_busy[self.a] += (done - start).as_nanos();
        if self.wid != 0 {
            env.config.events.record(
                self.span("window", start, done)
                    .with_id(self.wid)
                    .with_parent(self.parent)
                    .with_arg("agg", self.a as u64)
                    .with_arg("bytes", self.bytes),
            );
        }
    }
}

/// Emit each rank's whole-collective span `[t0, t_end]` — the region
/// `set_all` jumps every clock across, which the per-advance phase tiling
/// cannot see. Span `coll_ids[r]` parents rank `r`'s windows; its own
/// parent is the request trace id that rode in rank `r`'s parcel, which
/// closes the core → mpio link of the id chain.
fn record_coll_spans(
    env: &CollEnv,
    name: &'static str,
    t0: Time,
    t_end: Time,
    ids: &[u64],
    coll_ids: &[u64],
) {
    if coll_ids.is_empty() {
        return;
    }
    for (r, &w) in env.group.iter().enumerate() {
        env.config.events.record(
            Span::new(w, layer::MPIO, name, t0.as_nanos(), t_end.as_nanos())
                .with_id(coll_ids.get(r).copied().unwrap_or(0))
                .with_parent(ids.get(r).copied().unwrap_or(0)),
        );
    }
}

// ---- the round scheduler ------------------------------------------------------

/// Collective write: the finish-closure body. `reqs[r]` is rank `r`'s
/// `(runs, packed data)`, `ids[r]` the trace id that rode rank `r`'s
/// parcel (empty while tracing is off). Returns the synchronized
/// completion time.
///
/// Aggregator-side storage faults are recovered by [`crate::recover`];
/// when the budget runs out the error is returned *after* every rank's
/// clock has been synchronized (`set_all`), so the collective never leaves
/// a rank stranded in the past — the caller then agrees on the error.
pub fn write_all(
    env: &CollEnv,
    file: &PfsFile,
    p: &TwoPhaseParams,
    reqs: &[(Vec<Run>, &[u8])],
    ids: &[u64],
) -> MpioResult<Time> {
    let runs: Vec<&[Run]> = reqs.iter().map(|(r, _)| r.as_slice()).collect();
    schedule(env, file, p, &runs, ids, Access::Write(reqs))
}

/// Collective read: the finish-closure body. `reqs[r]` is rank `r`'s run
/// list. Returns each rank's data (packed in run order) and the completion
/// time. Faults are handled as in [`write_all`].
pub fn read_all(
    env: &CollEnv,
    file: &PfsFile,
    p: &TwoPhaseParams,
    reqs: &[Vec<Run>],
    ids: &[u64],
) -> MpioResult<(Vec<Vec<u8>>, Time)> {
    let mut outs: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| vec![0u8; runs_total(r) as usize])
        .collect();
    let runs: Vec<&[Run]> = reqs.iter().map(Vec::as_slice).collect();
    let t = schedule(env, file, p, &runs, ids, Access::Read(&mut outs))?;
    Ok((outs, t))
}

/// The access phase of one collective, with the buffers it works on.
enum Access<'a, 'd> {
    /// Assemble each window from the ranks' packed data (`reqs[r]` is
    /// rank `r`'s `(runs, data)`) and write it.
    Write(&'a [(Vec<Run>, &'d [u8])]),
    /// Read each window and scatter it into the ranks' packed outputs.
    Read(&'a mut [Vec<u8>]),
}

/// The one round scheduler behind both directions — ROMIO's loop of
/// exchange and access rounds. Aggregators walk their windows round by
/// round, round-robin across aggregators, so concurrent requests reach the
/// shared server queues interleaved in time order. That order is the same
/// whatever the pipeline hint, which keeps the file bytes independent of it.
///
/// The pipeline choice (`pnc_cb_pipeline` with at least two rounds) sets
/// exactly two things:
///
/// * **Exchange batches.** Pipelined, each round is its own batch and every
///   aggregator holds two collective buffers: batch `b` may ship once batch
///   `b-1` has drained the wire and the buffer batch `b-2` used is free.
///   Serial, one batch holds every round — a single alltoallv. A write
///   ships a batch before its windows, a read after them.
/// * **When an aggregator advances.** Pipelined, at NIC handoff: the
///   bounded server queue is the backpressure, not the platter. Serial,
///   once the window is durable on disk.
///
/// Offset lists are exchanged up front by reads (they are the requests)
/// and by pipelined writes (which need them to plan the rounds); a serial
/// write's offset lists ride along with its one data batch.
fn schedule(
    env: &CollEnv,
    file: &PfsFile,
    p: &TwoPhaseParams,
    runs: &[&[Run]],
    ids: &[u64],
    mut access: Access,
) -> MpioResult<Time> {
    let n = env.size();
    let write = matches!(access, Access::Write(_));
    let policy = RetryPolicy::default();
    let profile = &env.config.profile;
    let events = &env.config.events;
    let tracing = events.is_enabled();
    let coll_ids: Vec<u64> = if tracing {
        env.group.iter().map(|_| events.next_id()).collect()
    } else {
        Vec::new()
    };
    let total: u64 = runs.iter().map(|r| runs_total(r)).sum();
    if total == 0 {
        return Ok(env.sync_phase(Phase::Metadata, env.config.network.barrier(n)));
    }
    let nonempty = "a nonzero total has a run";
    let gmin = runs.iter().filter_map(|r| r.first()).map(|&(o, _)| o);
    let gmax = runs.iter().filter_map(|r| r.last()).map(|&(o, l)| o + l);
    let naggs = p.naggs(n, total);
    // Reads keep contiguous domains: the affine layout exists to give each
    // server a single *write* stream; a read window's spanning read is
    // already one large request per domain.
    let plan = Plan::new(
        runs,
        gmin.min().expect(nonempty),
        gmax.max().expect(nonempty),
        naggs,
        p,
        write && p.affinity,
    );
    let windows = &plan.windows;
    let rounds = plan.rounds();
    // With fewer than two rounds there is nothing to overlap.
    let per_round = p.pipeline && rounds >= 2;
    let batches = if per_round { rounds } else { 1 };
    let batch = |b: usize| if per_round { b..b + 1 } else { 0..rounds };
    let wires: Vec<Wire> = (0..batches)
        .map(|b| batch_wire(windows, n, batch(b)))
        .collect();
    profile.record_twophase(|t| {
        if write {
            t.collective_writes += 1;
        } else {
            t.collective_reads += 1;
        }
        t.cb_nodes = naggs as u64;
        t.file_domains += plan.domains as u64;
        t.exchange_wire_bytes += wires.iter().map(|w| w.total).sum::<u64>();
        if per_round {
            t.pipelined_rounds += rounds as u64;
        }
    });

    let offsets = if write && !per_round {
        Time::ZERO
    } else {
        let meta = runs.iter().map(|r| r.len() * 16).max().unwrap_or(0);
        env.config.network.alltoallv(meta, meta, n)
    };
    let t0 = env.sync_phase(Phase::OffsetExchange, offsets);

    let mut t_agg = vec![t0; windows.len()];
    let mut x_done = vec![t0; batches]; // per-batch exchange completion
    let mut d_done = vec![t0; batches]; // per-batch advance of the last aggregator
    let mut durable = t0; // slowest disk among all windows
    let mut costs: Vec<Time> = Vec::with_capacity(batches);
    let mut ship = |b: usize| {
        let w = wires[b];
        let cost = env.alltoallv_cost(w.max_send as usize, w.max_recv as usize, w.total);
        costs.push(cost);
        cost
    };
    let mut split = AccessSplit::new(windows.len());
    let result = (|| -> MpioResult<()> {
        for b in 0..batches {
            let back = |v: &[Time], k: usize| if b >= k { v[b - k] } else { t0 };
            // Double buffering: batch b refills the collective buffer batch
            // b-2 used. A write batch ships once batch b-1 has drained the
            // wire and batch b-2's windows are handed off, and its windows
            // wait for it; a read's windows wait for batch b-2 to ship back.
            let gate = if write {
                x_done[b] = back(&x_done, 1).max(back(&d_done, 2)) + ship(b);
                x_done[b]
            } else {
                back(&x_done, 2)
            };
            let mut dmax = t0;
            for j in batch(b) {
                for a in 0..windows.len() {
                    if j >= windows[a].len() {
                        continue;
                    }
                    let win = Window::new(env, &plan, &coll_ids, a, j);
                    // Ambient context: the pfs ServiceEngine stages and any
                    // retry backoffs taken on this window's behalf parent
                    // themselves to the window span.
                    let _ctx = (win.wid != 0).then(|| TraceCtx::enter(win.w, win.wid));
                    // Time spent waiting on the wire is the exchange cost
                    // that survives on this aggregator's critical path.
                    let ready = t_agg[a].max(gate);
                    split.exchange[a] += (ready - t_agg[a]).as_nanos();
                    if win.wid != 0 && ready > t_agg[a] {
                        events.record(
                            win.span("exchange_wait", t_agg[a], ready)
                                .with_parent(win.wid)
                                .with_stage(stage::EXCHANGE),
                        );
                    }
                    let (advance, done) = match &mut access {
                        Access::Write(reqs) => write_window(
                            env, file, &policy, ready, &win, reqs, &mut split, !per_round,
                        )?,
                        Access::Read(outs) => {
                            let t = read_window(env, file, &policy, ready, &win, outs, &mut split)?;
                            (t, t)
                        }
                    };
                    win.finish(env, &mut split, ready, done);
                    t_agg[a] = advance;
                    durable = durable.max(done);
                    dmax = dmax.max(advance);
                }
            }
            d_done[b] = dmax;
            if !write {
                // A read batch ships once every aggregator has read its
                // windows and the previous batch has drained the wire.
                x_done[b] = dmax.max(back(&x_done, 1)) + ship(b);
            }
        }
        Ok(())
    })();
    // The collective completes when the last batch has shipped, the last
    // window is handed off, AND every server's disk has the bytes:
    // write_all promises durability at return, pipelining only moves the
    // disk wait off each window's critical path.
    let t_end = t_agg
        .iter()
        .copied()
        .fold(x_done[batches - 1].max(durable), Time::max);
    let name = if write { "coll_write" } else { "coll_read" };
    record_coll_spans(env, name, t0, t_end, ids, &coll_ids);
    if result.is_ok() {
        split.record_overlap(profile, &costs, t0, t_end, &t_agg);
        // A write's tail is idle behind the slowest aggregator; a read's
        // is spent shipping the last batches back.
        let tail = if write {
            Phase::Wait
        } else {
            Phase::DataExchange
        };
        split.attribute(profile, env, t_end, &t_agg, tail);
    }
    // Synchronize the clocks even on failure: no rank may be left behind
    // a collective, successful or not.
    env.set_all(t_end);
    result.map(|()| t_end)
}

/// Time one write window starting at `t_start`: collective-buffer
/// assembly (memcpy), any read-modify-write reads, then the window's
/// write(s). Returns `(advance, durable)`: `advance` is the time the
/// aggregator may move on — the server hand-off when `wait_durable` is
/// false (pipelined), the disk completion when true (serial) — and
/// `durable` is always the disk completion.
///
/// With `extents` (server-affine windows) the window may touch several
/// disjoint owned stripe ranges: fully covered spans are written as-is,
/// partially covered spans are read-modify-written per extent, untouched
/// extents are skipped, and all resulting runs go to the PFS as ONE
/// vectored request per server.
#[allow(clippy::too_many_arguments)]
fn write_window(
    env: &CollEnv,
    file: &PfsFile,
    policy: &RetryPolicy,
    t_start: Time,
    win: &Window,
    reqs: &[(Vec<Run>, &[u8])],
    split: &mut AccessSplit,
    wait_durable: bool,
) -> MpioResult<(Time, Time)> {
    let (a, pieces) = (win.a, win.pieces);
    let mut t_a = win.pack(env, split, t_start);
    let coverage = merge_coverage(pieces.iter().map(|pc| (pc.off, pc.len)).collect());
    let completion: WriteCompletion = match win.extents {
        None if coverage.len() == 1 => {
            // Fully contiguous: assemble and write once.
            let (clo, clen) = coverage[0];
            let mut buf = vec![0u8; clen as usize];
            overlay(&mut buf, clo, pieces, reqs);
            recover::write_at_detailed(file, policy, t_a, clo, &buf)?
        }
        None => {
            // Holes in a contiguous domain: read-modify-write the covered
            // extent.
            split.rmw += 1;
            let clo = coverage[0].0;
            let cend = coverage.last().map(|&(o, l)| o + l).unwrap();
            let mut buf = vec![0u8; (cend - clo) as usize];
            let before = t_a;
            t_a = recover::read_at(file, policy, t_a, clo, &mut buf)?;
            split.read[a] += (t_a - before).as_nanos();
            overlay(&mut buf, clo, pieces, reqs);
            recover::write_at_detailed(file, policy, t_a, clo, &buf)?
        }
        Some(extents) => {
            // Affine window: per owned extent, find the covered bounding
            // span. A single covered run writes directly; holes inside the
            // span read-modify-write it; untouched extents are skipped.
            // Coverage runs never bridge extents (pieces lie in owned
            // stripes only), so one linear merge suffices.
            let mut runs: Vec<(u64, u64)> = Vec::new();
            let mut data: Vec<u8> = Vec::new();
            let mut ci = 0usize;
            let mut did_rmw = false;
            for &(elo, elen) in extents {
                let ehi = elo + elen;
                let first = ci;
                while ci < coverage.len() && coverage[ci].0 + coverage[ci].1 <= ehi {
                    debug_assert!(coverage[ci].0 >= elo, "coverage escapes its extent");
                    ci += 1;
                }
                if ci == first {
                    continue;
                }
                let blo = coverage[first].0;
                let bhi = coverage[ci - 1].0 + coverage[ci - 1].1;
                let mut buf = vec![0u8; (bhi - blo) as usize];
                if ci - first > 1 {
                    // Holes within the span: fetch what is there first.
                    did_rmw = true;
                    let before = t_a;
                    t_a = recover::read_at(file, policy, t_a, blo, &mut buf)?;
                    split.read[a] += (t_a - before).as_nanos();
                }
                overlay(&mut buf, blo, pieces, reqs);
                runs.push((blo, bhi - blo));
                data.extend_from_slice(&buf);
            }
            if did_rmw {
                split.rmw += 1;
            }
            recover::write_runs(file, policy, t_a, &runs, &data)?
        }
    };
    let advance = if wait_durable {
        completion.durable
    } else {
        completion.handoff
    };
    split.write[a] += (advance - t_a).as_nanos();
    Ok((advance, completion.durable))
}

/// Copy the pieces lying inside `[base, base + buf.len())` from their
/// ranks' packed data into `buf`. Pieces are applied in rank order, so
/// overlapping writes resolve deterministically (highest rank wins). An
/// affine window calls this once per covered span; each piece sits wholly
/// inside exactly one span, so a containment filter is enough.
fn overlay(buf: &mut [u8], base: u64, pieces: &[Piece], reqs: &[(Vec<Run>, &[u8])]) {
    let hi = base + buf.len() as u64;
    for pc in pieces {
        if pc.off < base || pc.off + pc.len > hi {
            continue;
        }
        let src = &reqs[pc.rank].1[pc.src_pos as usize..(pc.src_pos + pc.len) as usize];
        let lo = (pc.off - base) as usize;
        buf[lo..lo + pc.len as usize].copy_from_slice(src);
    }
}

/// Time one read window starting at `t_start`: one spanning read covers
/// every piece in the window (data sieving at the aggregator), then the
/// pieces are scattered into the requesting ranks' output buffers
/// (memcpy). Returns the aggregator's completion time.
fn read_window(
    env: &CollEnv,
    file: &PfsFile,
    policy: &RetryPolicy,
    t_start: Time,
    win: &Window,
    outs: &mut [Vec<u8>],
    split: &mut AccessSplit,
) -> MpioResult<Time> {
    let nonempty = "planned windows hold at least one piece";
    let clo = win.pieces.iter().map(|pc| pc.off).min().expect(nonempty);
    let cend = win
        .pieces
        .iter()
        .map(|pc| pc.off + pc.len)
        .max()
        .expect(nonempty);
    let mut buf = vec![0u8; (cend - clo) as usize];
    let t_read = recover::read_at(file, policy, t_start, clo, &mut buf)?;
    split.read[win.a] += (t_read - t_start).as_nanos();
    for pc in win.pieces {
        let lo = (pc.off - clo) as usize;
        outs[pc.rank][pc.src_pos as usize..(pc.src_pos + pc.len) as usize]
            .copy_from_slice(&buf[lo..lo + pc.len as usize]);
    }
    Ok(win.pack(env, split, t_read))
}

/// Per-aggregator breakdown of the access phase, accumulated along each
/// aggregator's own timeline, plus window counters.
struct AccessSplit {
    pack: Vec<u64>,
    write: Vec<u64>,
    read: Vec<u64>,
    /// Time an aggregator spent *waiting on the wire* — for its batch's
    /// data (writes) or for a collective buffer to drain (reads): the
    /// exchange cost that was not hidden behind disk.
    exchange: Vec<u64>,
    /// What each window would cost run serially (to durability, from the
    /// moment its data was ready): the baseline [`Self::record_overlap`]
    /// compares the overlapped makespan against. Kept apart from the
    /// attribution splits above, which charge only hand-off deltas when
    /// pipelined.
    serial_busy: Vec<u64>,
    windows: u64,
    rmw: u64,
}

impl AccessSplit {
    fn new(naggs: usize) -> AccessSplit {
        AccessSplit {
            pack: vec![0; naggs],
            write: vec![0; naggs],
            read: vec![0; naggs],
            exchange: vec![0; naggs],
            serial_busy: vec![0; naggs],
            windows: 0,
            rmw: 0,
        }
    }

    /// Record how much the pipelined batches saved: the difference between
    /// running this collective's exchange batches and the critical
    /// aggregator's windows back to back (the serial schedule of the same
    /// rounds, each window waiting for durability) and the overlapped
    /// makespan actually achieved. One batch saves nothing by construction.
    fn record_overlap(
        &self,
        profile: &Profile,
        costs: &[Time],
        entry: Time,
        t_end: Time,
        t_agg: &[Time],
    ) {
        let Some(crit) = (0..t_agg.len()).max_by_key(|&a| t_agg[a]) else {
            return;
        };
        // serial_busy already folds in pack and RMW-read time (it is the
        // whole window, ready → durable).
        let serialized = costs.iter().map(|c| c.as_nanos()).sum::<u64>() + self.serial_busy[crit];
        let saved = serialized.saturating_sub((t_end - entry).as_nanos());
        profile.record_twophase(|t| t.overlap_saved_nanos += saved);
    }

    /// Charge the access phase (`t0 → t_end`, applied to every rank by
    /// `set_all`) to profile phases so per-rank sums stay exact:
    ///
    /// * aggregator `a` gets its own pack/write/read split, its unhidden
    ///   exchange waits as [`Phase::DataExchange`], and `trailing` for
    ///   `t_end - t_agg[a]` — idle behind the slowest aggregator
    ///   ([`Phase::Wait`], writes) or shipping the last batches back
    ///   ([`Phase::DataExchange`], reads);
    /// * a non-aggregator rank spends the same wall of virtual time blocked
    ///   on the aggregators, so it is credited with the *critical*
    ///   aggregator's split — the one that actually determines `t_end` —
    ///   which keeps the makespan rank's breakdown meaningful instead of
    ///   reading as one opaque wait. With overlap this is exactly the
    ///   "charged along the critical path only" rule: exchange time hidden
    ///   behind disk appears in no rank's breakdown.
    fn attribute(
        &self,
        profile: &Profile,
        env: &CollEnv,
        t_end: Time,
        t_agg: &[Time],
        trailing: Phase,
    ) {
        profile.record_twophase(|t| {
            t.windows += self.windows;
            t.rmw_windows += self.rmw;
        });
        if !profile.is_enabled() || t_agg.is_empty() {
            return;
        }
        // Stripe-aligned boundaries can yield one more domain than there
        // are ranks; domains past the group size are *virtual* aggregators
        // whose concurrent timelines belong to no rank — charging their
        // split to a rank that already owns a domain would double-count
        // that rank's clock advance.
        for (a, &t_a) in t_agg.iter().enumerate().take(env.group.len()) {
            let w = env.group[a];
            profile.record_phase(w, Phase::CollBufPack, self.pack[a]);
            profile.record_phase(w, Phase::DiskWrite, self.write[a]);
            profile.record_phase(w, Phase::DiskRead, self.read[a]);
            profile.record_phase(w, Phase::DataExchange, self.exchange[a]);
            profile.record_phase(w, trailing, (t_end - t_a).as_nanos());
        }
        let crit = (0..t_agg.len()).max_by_key(|&a| t_agg[a]).unwrap();
        for &w in env.group.iter().skip(t_agg.len()) {
            profile.record_phase(w, Phase::CollBufPack, self.pack[crit]);
            profile.record_phase(w, Phase::DiskWrite, self.write[crit]);
            profile.record_phase(w, Phase::DiskRead, self.read[crit]);
            profile.record_phase(w, Phase::DataExchange, self.exchange[crit]);
            profile.record_phase(w, trailing, (t_end - t_agg[crit]).as_nanos());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parcel_roundtrip() {
        let runs: Vec<Run> = vec![(5, 10), (100, 3)];
        let data = vec![1u8; 13];
        let parcel = encode_write_req(&runs, &data, 42);
        let (r2, d2, id2) = decode_req(&parcel).unwrap();
        assert_eq!(r2, runs);
        assert_eq!(d2, &data[..]);
        assert_eq!(id2, 42, "trace id survives the wire");

        let parcel = encode_read_req(&runs, 0);
        let (r3, d3, id3) = decode_req(&parcel).unwrap();
        assert_eq!(r3, runs);
        assert!(d3.is_empty());
        assert_eq!(id3, 0);
    }

    #[test]
    fn short_parcel_is_an_error_not_a_panic() {
        assert!(decode_req(&[]).is_err());
        assert!(decode_req(&[0u8; 7]).is_err());
        assert!(decode_req(&[0u8; 15]).is_err());
    }

    #[test]
    fn truncated_run_list_is_an_error() {
        let parcel = encode_write_req(&[(5, 10), (100, 3)], &[1u8; 13], 1);
        // Cut into the middle of the run table.
        assert!(decode_req(&parcel[..28]).is_err());
    }

    #[test]
    fn absurd_run_count_is_an_error() {
        // Header claims u64::MAX runs: length math must not overflow.
        let mut parcel = 0u64.to_ne_bytes().to_vec();
        parcel.extend_from_slice(&u64::MAX.to_ne_bytes());
        parcel.extend_from_slice(&[0u8; 64]);
        assert!(decode_req(&parcel).is_err());
    }

    #[test]
    fn zero_runs_with_trailing_data_decodes() {
        let parcel = encode_write_req(&[], &[], 0);
        let (runs, data, _) = decode_req(&parcel).unwrap();
        assert!(runs.is_empty());
        assert!(data.is_empty());
    }

    #[test]
    fn domains_cover_exactly_and_align() {
        let d = file_domains(100, 10_100, 4, 1000);
        assert_eq!(d.first().unwrap().0, 100);
        assert_eq!(d.last().unwrap().1, 10_100);
        for w in d.windows(2) {
            assert_eq!(w[0].1, w[1].0);
            // Interior boundaries are *absolute* stripe multiples.
            assert_eq!(w[0].1 % 1000, 0);
        }
        // Alignment of the ragged first domain may cost one extra domain.
        assert!(d.len() <= 5, "{d:?}");
    }

    /// Every domain must be non-empty (`hi > lo`) and together they must
    /// tile `[gmin, gmax)` exactly, with interior boundaries on absolute
    /// stripe multiples.
    fn check_domains(gmin: u64, gmax: u64, naggs: usize, stripe: u64) -> Vec<(u64, u64)> {
        let d = file_domains(gmin, gmax, naggs, stripe);
        if gmax == gmin {
            assert!(d.is_empty());
            return d;
        }
        assert_eq!(d.first().unwrap().0, gmin, "{d:?}");
        assert_eq!(d.last().unwrap().1, gmax, "{d:?}");
        for &(lo, hi) in &d {
            assert!(hi > lo, "empty domain in {d:?}");
        }
        for w in d.windows(2) {
            assert_eq!(w[0].1, w[1].0, "gap/overlap in {d:?}");
            assert_eq!(w[0].1 % stripe, 0, "unaligned boundary in {d:?}");
        }
        d
    }

    #[test]
    fn domains_more_aggregators_than_stripes() {
        // Span of 3 stripes split over 8 aggregators: some aggregators get
        // nothing, but no domain may be empty.
        let d = check_domains(0, 3000, 8, 1000);
        assert!(d.len() <= 3, "{d:?}");
        // Span smaller than one stripe.
        let d = check_domains(10, 250, 8, 1000);
        assert_eq!(d, vec![(10, 250)]);
    }

    #[test]
    fn domains_single_byte_span() {
        let d = check_domains(999, 1000, 4, 1000);
        assert_eq!(d, vec![(999, 1000)]);
        // A single byte exactly at a stripe boundary.
        let d = check_domains(1000, 1001, 4, 1000);
        assert_eq!(d, vec![(1000, 1001)]);
    }

    #[test]
    fn domains_aligned_edges() {
        // gmin and gmax both exactly on stripe boundaries.
        let d = check_domains(2000, 10_000, 4, 1000);
        assert_eq!(d.len(), 4, "{d:?}");
        for &(lo, hi) in &d {
            assert_eq!(lo % 1000, 0);
            assert_eq!(hi % 1000, 0);
        }
    }

    #[test]
    fn domains_empty_span_and_stripe_one() {
        assert!(check_domains(42, 42, 4, 1000).is_empty());
        // stripe=1 degenerates to an even split with no alignment slack.
        let d = check_domains(0, 10, 4, 1);
        assert_eq!(d.len(), 4, "{d:?}");
        // Ragged: span not divisible by naggs, still exact.
        check_domains(3, 10, 4, 1);
        check_domains(0, 1, 64, 1);
    }

    #[test]
    fn aligned_request_gets_aligned_domains() {
        let d = file_domains(0, 8000, 4, 1000);
        assert_eq!(d, vec![(0, 2000), (2000, 4000), (4000, 6000), (6000, 8000)]);
    }

    #[test]
    fn empty_span_has_no_domains() {
        assert!(file_domains(5, 5, 4, 64).is_empty());
    }

    #[test]
    fn single_aggregator_gets_everything() {
        let d = file_domains(0, 1000, 1, 64);
        assert_eq!(d, vec![(0, 1000)]);
    }

    #[test]
    fn batch_wire_counts_only_remote_pieces() {
        // Two aggregators (= ranks 0 and 1), two rounds each: a piece that
        // belongs to its window's aggregator moves by memcpy.
        let pc = |off, len, rank| Piece {
            off,
            len,
            rank,
            src_pos: 0,
        };
        let windows = vec![
            vec![vec![pc(0, 10, 0), pc(10, 5, 1)], vec![pc(20, 7, 2)]],
            vec![vec![pc(100, 4, 0)], vec![pc(120, 3, 1), pc(123, 2, 2)]],
        ];
        let wire = |max_send, max_recv, total| Wire {
            max_send,
            max_recv,
            total,
        };
        assert_eq!(batch_wire(&windows, 3, 0..1), wire(5, 5, 9));
        assert_eq!(batch_wire(&windows, 3, 1..2), wire(9, 7, 9));
        // One batch of both rounds: totals add, endpoints peak per batch.
        assert_eq!(batch_wire(&windows, 3, 0..2), wire(9, 12, 18));
        // Rounds past every aggregator's last window ship nothing.
        assert_eq!(batch_wire(&windows, 3, 2..3), Wire::default());
    }

    #[test]
    fn aggregator_selection() {
        let p = |cb_nodes| TwoPhaseParams {
            cb_buffer_size: 1 << 20,
            cb_nodes,
            io_servers: 12,
            stripe: 1 << 16,
            pipeline: true,
            affinity: true,
        };
        // A cb_nodes hint is clamped to the communicator, never below one,
        // and wins even over a collective too small to fill it.
        assert_eq!(p(Some(2)).naggs(32, 1 << 30), 2);
        assert_eq!(p(Some(64)).naggs(32, 1 << 30), 32);
        assert_eq!(p(Some(2)).naggs(1, 1 << 30), 1);
        assert_eq!(p(Some(8)).naggs(32, 1), 8);
        // Unhinted: one aggregator stream per I/O server, capped by the
        // ranks and by how many collective buffers the volume fills.
        assert_eq!(p(None).naggs(32, 1 << 30), 12);
        assert_eq!(p(None).naggs(4, 1 << 30), 4);
        assert_eq!(p(None).naggs(32, 3 << 20), 3);
        assert_eq!(p(None).naggs(32, (3 << 20) + 1), 4);
        assert_eq!(p(None).naggs(32, 1), 1);
        // Fewer servers than ranks: no per-node floor.
        let two = TwoPhaseParams {
            io_servers: 2,
            ..p(None)
        };
        assert_eq!(two.naggs(32, 1 << 30), 2);
        assert_eq!(two.naggs(4, 1 << 30), 2);
    }

    #[test]
    fn merge_coverage_detects_holes() {
        assert_eq!(merge_coverage(vec![(0, 4), (4, 4)]), vec![(0, 8)]);
        assert_eq!(merge_coverage(vec![(10, 2), (0, 4)]), vec![(0, 4), (10, 2)]);
        // Overlaps merge too.
        assert_eq!(merge_coverage(vec![(0, 6), (4, 4)]), vec![(0, 8)]);
    }

    #[test]
    fn take_pieces_tracks_source_positions() {
        let runs: Vec<Run> = vec![(0, 10), (20, 10)];
        let mut cur = Cursor::default();
        let mut pieces = Vec::new();
        take_pieces(&runs, &mut cur, 5, 0, &mut pieces);
        assert_eq!(pieces.len(), 1);
        assert_eq!((pieces[0].off, pieces[0].len, pieces[0].src_pos), (0, 5, 0));
        pieces.clear();
        take_pieces(&runs, &mut cur, 25, 0, &mut pieces);
        // Remainder of run 0 (src 5..10) and start of run 1 (src 10..15).
        assert_eq!(pieces.len(), 2);
        assert_eq!((pieces[0].off, pieces[0].len, pieces[0].src_pos), (5, 5, 5));
        assert_eq!(
            (pieces[1].off, pieces[1].len, pieces[1].src_pos),
            (20, 5, 10)
        );
        pieces.clear();
        take_pieces(&runs, &mut cur, u64::MAX, 0, &mut pieces);
        assert_eq!(
            (pieces[0].off, pieces[0].len, pieces[0].src_pos),
            (25, 5, 15)
        );
    }
}
