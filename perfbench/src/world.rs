//! Iteration control shared by the workloads.
//!
//! One simulated world (one thread per rank) lives for the whole run.
//! Between iterations every rank meets at a host barrier; at that
//! quiescent point rank 0 decides what the next iteration is for, rewinds
//! the virtual clocks to zero and mounts a fresh PFS, so each iteration
//! starts from the same simulated state a fresh `run_world` would. That is
//! what lets the virtual-time metrics repeat bit for bit across iterations
//! and runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hpc_sim::stats::StatsSnapshot;
use hpc_sim::trace::ProfileSnapshot;
use hpc_sim::SimConfig;
use pnetcdf_mpi::Comm;
use pnetcdf_pfs::{Pfs, StorageMode};

use crate::probe::{self, Span, SpanLog};
use crate::Opts;

/// What one iteration is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// The untimed last step of every set-up (first touch of buffers).
    Warmup,
    /// End-to-end measurement: profile, events and per-call spans off.
    Timed,
    /// Traced run: per-call memory probes around host barriers.
    Probe,
    /// Traced run: per-call spans on, profile and events off.
    Spanned,
    /// Traced run: spans, profile and events off; the baseline of the
    /// observability ratios.
    Plain,
    /// Traced run: the virtual-time profile on.
    Profiled,
    /// Traced run: the event recorder (`pnc_trace_events`) on.
    Evented,
    /// After the timed iterations: one iteration on a PFS that keeps every
    /// byte, so a workload whose platform discards bulk data can still
    /// check all of its output.
    Verify,
}

/// The iteration schedule of one run.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Fixed iterations, in order, after the warm-up.
    pub fixed: Vec<Stage>,
    /// Then `Timed` iterations until this much host time has passed since
    /// the first of them, and at least `min_timed` of them.
    pub timed: Option<Duration>,
    pub min_timed: usize,
    /// Then one `Verify` iteration.
    pub verify: bool,
}

impl Plan {
    /// The plan of a run with `opts`, and how many set-ups it makes: an
    /// end-to-end run makes `setups` (`setup_s` is their median), a traced
    /// run sets up once and makes `rounds` traced rounds.
    pub fn of(opts: &Opts, rounds: usize, setups: usize) -> (Plan, usize) {
        if opts.trace {
            (Plan::traced(rounds), 1)
        } else {
            (Plan::end_to_end(opts.seconds, 3), setups)
        }
    }

    /// End-to-end run: timed iterations for `seconds`.
    fn end_to_end(seconds: f64, min_timed: usize) -> Plan {
        Plan {
            fixed: Vec::new(),
            timed: Some(Duration::from_secs_f64(seconds)),
            min_timed,
            verify: false,
        }
    }

    /// Traced run: one probe iteration, then `k` rounds of a spanned, a
    /// plain, a profiled and an evented iteration (interleaved, so host
    /// drift over the run does not bias the ratios to plain).
    fn traced(k: usize) -> Plan {
        let mut fixed = vec![Stage::Probe];
        for _ in 0..k {
            fixed.extend([
                Stage::Spanned,
                Stage::Plain,
                Stage::Profiled,
                Stage::Evented,
            ]);
        }
        Plan {
            fixed,
            timed: None,
            min_timed: 0,
            verify: false,
        }
    }
}

/// Virtual-time counters of the first profiled iteration.
#[derive(Clone)]
pub struct Counters {
    pub profile: ProfileSnapshot,
    /// The world's counters (messages, collectives) of that iteration.
    pub world: StatsSnapshot,
    /// The PFS's counters (requests, seeks) of that iteration.
    pub pfs: StatsSnapshot,
}

/// Memory seen around one bracketed call, MB.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemDelta {
    pub rss_before: f64,
    pub rss_after: f64,
    /// Peak RSS inside the bracket (`VmHWM` after a reset), or the RSS
    /// after the call where the peak cannot be reset.
    pub peak: f64,
}

impl MemDelta {
    pub fn growth(&self) -> f64 {
        self.rss_after - self.rss_before
    }

    pub fn peak_extra(&self) -> f64 {
        self.peak - self.rss_before
    }
}

#[derive(Default)]
struct State {
    iter: usize,
    stage: Option<Stage>,
    pfs: Option<Pfs>,
    timed_start: Option<Instant>,
    timed_done: usize,
    timed_over: bool,
    verified: bool,
    /// `VmHWM` when the timed iterations ended.
    peak_rss_mb: f64,
    counters: Option<Counters>,
    mem_base: f64,
    mem: Vec<(&'static str, MemDelta)>,
}

/// Host-side coordinator of one world.
pub struct Ctl {
    cfg: SimConfig,
    storage: StorageMode,
    plan: Plan,
    barrier: Barrier,
    state: Mutex<State>,
    /// Whether `VmHWM` could be reset (else memory probes compare RSS).
    pub hwm_resettable: AtomicBool,
}

impl Ctl {
    pub fn new(nprocs: usize, cfg: SimConfig, storage: StorageMode, plan: Plan) -> Ctl {
        Ctl {
            cfg,
            storage,
            plan,
            barrier: Barrier::new(nprocs),
            state: Mutex::new(State::default()),
            hwm_resettable: AtomicBool::new(true),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a rank panicked holding the coordinator state")
    }

    /// Host barrier across all ranks (no virtual clock moves).
    pub fn sync(&self) {
        self.barrier.wait();
    }

    /// A fresh PFS on this world's platform and storage mode.
    pub fn fresh_pfs(&self) -> Pfs {
        Pfs::new(self.cfg.clone(), self.storage)
    }

    /// Rank 0's choice of the stage for iteration `iter`, or `None` to stop.
    fn choose(&self, st: &mut State) -> Option<Stage> {
        let iter = st.iter;
        if iter == 0 {
            return Some(Stage::Warmup);
        }
        if let Some(&s) = self.plan.fixed.get(iter - 1) {
            return Some(s);
        }
        if let Some(budget) = self.plan.timed.filter(|_| !st.timed_over) {
            let start = *st.timed_start.get_or_insert_with(Instant::now);
            if st.timed_done < self.plan.min_timed || start.elapsed() < budget {
                st.timed_done += 1;
                return Some(Stage::Timed);
            }
            st.timed_over = true;
            st.peak_rss_mb = probe::peak_rss_mb();
        }
        if self.plan.verify && !st.verified {
            st.verified = true;
            return Some(Stage::Verify);
        }
        None
    }

    /// The quiescent point between iterations: returns the next
    /// iteration's stage and PFS, or `None` when the plan is done.
    pub fn next(&self, comm: &Comm) -> Option<(Stage, Pfs)> {
        self.sync();
        if comm.rank() == 0 {
            let mut st = self.state();
            if st.stage == Some(Stage::Profiled) && st.counters.is_none() {
                st.counters = Some(Counters {
                    profile: self.cfg.profile.snapshot(),
                    world: comm.stats().snapshot(),
                    pfs: st
                        .pfs
                        .as_ref()
                        .map(|p| p.stats().snapshot())
                        .unwrap_or_default(),
                });
            }
            let stage = self.choose(&mut st);
            st.iter += 1;
            let profiled = stage == Some(Stage::Profiled);
            if profiled && st.counters.is_none() {
                self.cfg.profile.reset();
                comm.stats().reset();
            }
            self.cfg.profile.set_enabled(profiled);
            let evented = stage == Some(Stage::Evented);
            if !evented {
                self.cfg.events.reset();
            }
            self.cfg.events.set_enabled(evented);
            comm.clocks().reset();
            // Drop the last iteration's file system before mounting the
            // next, so two never coexist in memory.
            st.pfs = None;
            st.pfs = stage.map(|s| {
                let storage = if s == Stage::Verify {
                    StorageMode::Full
                } else {
                    self.storage
                };
                Pfs::new(self.cfg.clone(), storage)
            });
            st.stage = stage;
        }
        self.sync();
        let st = self.state();
        Some((st.stage?, st.pfs.clone()?))
    }

    /// Run `f` on every rank between two host barriers; rank 0 returns the
    /// host seconds from the first barrier's release to the second's.
    pub fn timed<R>(&self, comm: &Comm, f: impl FnOnce() -> R) -> (R, f64) {
        self.sync();
        let t0 = Instant::now();
        let r = f();
        self.sync();
        let dt = t0.elapsed().as_secs_f64();
        (r, if comm.rank() == 0 { dt } else { 0.0 })
    }

    /// Open a memory bracket: host barrier, rank 0 notes RSS and resets
    /// the peak, host barrier.
    pub fn mem_begin(&self, comm: &Comm) {
        self.sync();
        if comm.rank() == 0 {
            let ok = probe::reset_peak_rss();
            if !ok {
                self.hwm_resettable.store(false, Ordering::Relaxed);
            }
            self.state().mem_base = probe::rss_mb();
        }
        self.sync();
    }

    /// Close the bracket opened by [`Ctl::mem_begin`] and record it under
    /// `name`.
    pub fn mem_end(&self, comm: &Comm, name: &'static str) {
        self.sync();
        if comm.rank() == 0 {
            let rss_after = probe::rss_mb();
            let peak = if self.hwm_resettable.load(Ordering::Relaxed) {
                probe::peak_rss_mb()
            } else {
                rss_after
            };
            let mut st = self.state();
            let d = MemDelta {
                rss_before: st.mem_base,
                rss_after,
                peak: peak.max(rss_after),
            };
            st.mem.push((name, d));
        }
        self.sync();
    }

    /// Memory brackets recorded so far.
    pub fn mem(&self) -> Vec<(&'static str, MemDelta)> {
        self.state().mem.clone()
    }

    /// `VmHWM` when the timed iterations ended (before any `Verify`).
    pub fn timed_peak_rss_mb(&self) -> f64 {
        self.state().peak_rss_mb
    }

    /// Counters of the first profiled iteration.
    pub fn counters(&self) -> Option<Counters> {
        self.state().counters.clone()
    }
}

/// What one rank saw in one iteration.
#[derive(Clone, Copy, Debug)]
pub struct IterRec {
    pub stage: Stage,
    /// Host window of the write (ns since the run's epoch).
    pub write: (u64, u64),
    /// Host window of the read.
    pub read: (u64, u64),
    /// Host seconds of the read, where the workload times it call by call
    /// (rank 0's figure) instead of by the merged window.
    pub read_s: Option<f64>,
    /// This rank's virtual duration of the write and of the read, ns.
    pub sim_write: u64,
    pub sim_read: u64,
    /// Data calls this rank issued.
    pub calls: u64,
    /// Other checked operations (define, open, close, output checks).
    pub checks: u64,
    pub failed: u64,
}

impl IterRec {
    pub fn new(stage: Stage) -> IterRec {
        IterRec {
            stage,
            write: (0, 0),
            read: (0, 0),
            read_s: None,
            sim_write: 0,
            sim_read: 0,
            calls: 0,
            checks: 0,
            failed: 0,
        }
    }

    /// Count one checked operation; `ok` false marks it failed.
    pub fn check(&mut self, ok: bool) {
        self.checks += 1;
        self.failed += u64::from(!ok);
    }

    /// Count one data call and return its value, if it succeeded.
    pub fn call<T, E>(&mut self, r: Result<T, E>) -> Option<T> {
        self.calls += 1;
        self.failed += u64::from(r.is_err());
        r.ok()
    }
}

/// One iteration across all ranks.
#[derive(Clone, Copy, Debug)]
pub struct Iter {
    pub stage: Stage,
    pub host_write_s: f64,
    pub host_read_s: f64,
    pub sim_write_ns: u64,
    pub sim_read_ns: u64,
    pub calls: u64,
    pub checks: u64,
    pub failed: u64,
}

/// Merge per-rank records (`per_rank[rank][iter]`) into iterations: host
/// windows span the earliest start to the latest end, virtual durations
/// take the slowest rank.
fn merge(per_rank: &[Vec<IterRec>]) -> Vec<Iter> {
    let n = per_rank.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            let recs: Vec<&IterRec> = per_rank.iter().map(|r| &r[i]).collect();
            let window = |f: fn(&IterRec) -> (u64, u64)| {
                let s = recs.iter().map(|r| f(r).0).min().unwrap_or(0);
                let e = recs.iter().map(|r| f(r).1).max().unwrap_or(0);
                e.saturating_sub(s) as f64 / 1e9
            };
            Iter {
                stage: recs[0].stage,
                host_write_s: window(|r| r.write),
                host_read_s: recs
                    .iter()
                    .find_map(|r| r.read_s)
                    .unwrap_or_else(|| window(|r| r.read)),
                sim_write_ns: recs.iter().map(|r| r.sim_write).max().unwrap_or(0),
                sim_read_ns: recs.iter().map(|r| r.sim_read).max().unwrap_or(0),
                calls: recs.iter().map(|r| r.calls).sum(),
                checks: recs.iter().map(|r| r.checks).sum(),
                failed: recs.iter().map(|r| r.failed).sum(),
            }
        })
        .collect()
}

/// What one rank returns from a world.
struct RankOut<X> {
    recs: Vec<IterRec>,
    spans: Vec<Span>,
    extra: Option<X>,
}

/// What a run returns.
pub struct WorldOut<X> {
    /// Iterations of the measured world, merged across ranks.
    pub iters: Vec<Iter>,
    /// Warm-up iterations of the set-ups that only set up.
    pub warmups: Vec<Iter>,
    /// Host spans of every rank of the measured world, by start time.
    pub spans: Vec<Span>,
    /// Each rank's result of the after-loop step, by rank.
    pub extras: Vec<X>,
    /// Time of every set-up, s.
    pub setups: Vec<f64>,
    /// The measured world's coordinator.
    pub ctl: Ctl,
}

/// Set up `setups` worlds one after another and measure in the last.
///
/// A set-up is: the platform and a fresh PFS, the world's rank threads,
/// each rank's seeded inputs (`input`) and one warm-up iteration; its time
/// runs from before the platform exists to the end of the warm-up. The
/// last world then runs `plan` through `body`, then `after` once on every
/// rank (the traced run's extra measurements).
#[allow(clippy::too_many_arguments)]
pub fn run_worlds<I, X: Send>(
    nprocs: usize,
    platform: fn() -> SimConfig,
    storage: StorageMode,
    plan: Plan,
    setups: usize,
    epoch: Instant,
    input: impl Fn(&Comm) -> I + Sync,
    body: impl Fn(&Comm, &Ctl, &Pfs, Stage, usize, &I, &mut SpanLog) -> IterRec + Sync,
    after: impl Fn(&Comm, &Ctl, &I) -> X + Sync,
) -> WorldOut<X> {
    // One world; `last` selects whether it measures after its set-up.
    let world = |last: bool| {
        let t0 = Instant::now();
        let cfg = platform();
        let ctl = Ctl::new(nprocs, cfg.clone(), storage, plan.clone());
        let setup_s = Mutex::new(0.0);
        let run = pnetcdf_mpi::run_world(nprocs, cfg, |comm| {
            let mut log = SpanLog::new(epoch, comm.rank());
            let inp = input(comm);
            let mut recs = Vec::new();
            let mut it = 0;
            while let Some((stage, pfs)) = ctl.next(comm) {
                log.calls = stage == Stage::Spanned;
                recs.push(body(comm, &ctl, &pfs, stage, it, &inp, &mut log));
                drop(pfs);
                it += 1;
                if stage == Stage::Warmup {
                    ctl.sync();
                    if comm.rank() == 0 {
                        *setup_s.lock().expect("setup time lock") = t0.elapsed().as_secs_f64();
                    }
                    if !last {
                        break;
                    }
                }
            }
            RankOut {
                recs,
                spans: std::mem::take(&mut log.spans),
                extra: last.then(|| after(comm, &ctl, &inp)),
            }
        });
        let setup_s = setup_s.into_inner().expect("setup time lock");
        (run.results, setup_s, ctl)
    };
    let mut times = Vec::new();
    let mut warmups = Vec::new();
    for _ in 1..setups {
        let (ranks, t, _) = world(false);
        times.push(t);
        let recs: Vec<Vec<IterRec>> = ranks.into_iter().map(|r| r.recs).collect();
        warmups.extend(merge(&recs));
    }
    let (ranks, t, ctl) = world(true);
    times.push(t);
    let recs: Vec<Vec<IterRec>> = ranks.iter().map(|r| r.recs.clone()).collect();
    let mut spans: Vec<Span> = ranks.iter().flat_map(|r| r.spans.clone()).collect();
    spans.sort_by_key(|s| (s.start_ns, s.rank));
    WorldOut {
        iters: merge(&recs),
        warmups,
        spans,
        extras: ranks.into_iter().filter_map(|r| r.extra).collect(),
        setups: times,
        ctl,
    }
}
