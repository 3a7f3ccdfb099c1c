//! Metric catalog, the result line, and the metric arithmetic the
//! workloads share.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hpc_sim::trace::Phase;

use std::sync::atomic::Ordering;

use crate::ladder;
use crate::probe::{median_of, Span};
use crate::world::{Counters, Ctl, Iter, MemDelta, Stage, WorldOut};

/// End-to-end metrics (printed with `--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("host_write_mb_s", "MB/s"),
    ("host_read_mb_s", "MB/s"),
    ("host_ops_s", "1/s"),
    ("sim_write_mb_s", "MB/s"),
    ("sim_read_mb_s", "MB/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (printed with `--trace 1`), with units. A workload
/// that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("core.define_s", "s"),
    ("core.iput_s", "s"),
    ("core.wait_all_s", "s"),
    ("core.put_vara_all_s", "s"),
    ("core.get_vara_all_s", "s"),
    ("core.put_vara_us", "us"),
    ("core.get_vars_us", "us"),
    ("core.get_vars_row_us", "us"),
    ("core.close_s", "s"),
    ("format.swap_mb_s", "MB/s"),
    ("format.header_us", "us"),
    ("mpi.alltoallv_mb_s", "MB/s"),
    ("mpio.write_runs_all_mb_s", "MB/s"),
    ("mpio.read_runs_all_mb_s", "MB/s"),
    ("mpio.write_at_us", "us"),
    ("pfs.write_mb_s", "MB/s"),
    ("pfs.read_mb_s", "MB/s"),
    ("pfs.write_us", "us"),
    ("core.self_write_s", "s"),
    ("core.self_read_s", "s"),
    ("mpio.self_write_s", "s"),
    ("mpio.self_read_s", "s"),
    ("pfs.self_write_s", "s"),
    ("pfs.self_read_s", "s"),
    ("core.iput.rss_growth_mb", "MB"),
    ("core.wait_all.peak_extra_mb", "MB"),
    ("core.put_vara_all.peak_extra_mb", "MB"),
    ("core.get_vara_all.peak_extra_mb", "MB"),
    ("core.transient_bytes_per_payload_byte", "B/B"),
    ("core.sim_metadata_s", "s"),
    ("mpi.sim_exchange_s", "s"),
    ("mpi.sim_wait_s", "s"),
    ("mpio.sim_pack_s", "s"),
    ("pfs.sim_disk_write_s", "s"),
    ("pfs.sim_disk_read_s", "s"),
    ("mpio.twophase_rounds", "count"),
    ("mpio.overlap_saved_s", "s"),
    ("mpio.cb_nodes", "count"),
    ("pfs.nic_busy_s", "s"),
    ("pfs.disk_busy_s", "s"),
    ("pfs.queue_stall_s", "s"),
    ("pfs.max_queue_depth", "count"),
    ("pfs.io_requests", "count"),
    ("pfs.seeks", "count"),
    ("mpi.messages", "count"),
    ("mpi.message_bytes", "B"),
    ("mpi.collectives", "count"),
    ("mpio.flatten_hit_rate", "ratio"),
    ("core.fused_pack_bytes", "B"),
    ("core.copies_elided", "count"),
    ("core.borrowed_bytes", "B"),
    ("mpio.sieve_useful_ratio", "ratio"),
    ("mpio.indep_sim_write_mb_s", "MB/s"),
    ("mpio.indep_sim_read_mb_s", "MB/s"),
    ("trace.profile_host_ratio", "ratio"),
    ("trace.events_host_ratio", "ratio"),
    ("serial.sim_write_mb_s", "MB/s"),
    ("serial.sim_read_mb_s", "MB/s"),
    ("hdf5sim.sim_write_mb_s", "MB/s"),
    ("mpio.sieve_lost_update_values", "count"),
    ("failed_op_ratio", "ratio"),
];

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Data calls and output checks attempted, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Lines printed before the result (caveats of this run).
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// What every workload derives alike from a run: the failure tally,
    /// then the end-to-end metrics, or for a traced run the memory probes
    /// and the virtual-time counters.
    pub fn of_run<X>(world: &WorldOut<X>, trace: bool, bytes_w: u64, bytes_r: u64) -> Outcome {
        let mut out = Outcome::default();
        out.tally_iters(&world.warmups);
        out.tally_iters(&world.iters);
        let ctl = &world.ctl;
        if trace {
            out.memory(ctl, bytes_w);
            if let Some(c) = ctl.counters() {
                out.virtual_counters(&c);
            }
        } else {
            out.end_to_end(
                &world.iters,
                world.setups.clone(),
                bytes_w,
                bytes_r,
                ctl.timed_peak_rss_mb(),
            );
        }
        out
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Count `n` attempted operations of which `bad` failed.
    pub fn tally(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The result line: every metric of the chosen catalog, by name with
    /// its unit. A missing or non-finite end-to-end metric marks the run
    /// incorrect; a per-layer metric the workload did not produce reads 0.
    pub fn result_line(&mut self, trace: bool) -> String {
        if trace {
            let ratio = self.failed as f64 / self.attempted.max(1) as f64;
            self.set("failed_op_ratio", ratio);
        }
        let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut body = String::new();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let v = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    correct = false;
                    0.0
                }
                None => {
                    correct &= trace;
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }

    /// End-to-end metrics from the timed iterations; `peak_rss_mb` is the
    /// `VmHWM` when they ended.
    fn end_to_end(
        &mut self,
        iters: &[Iter],
        setups: Vec<f64>,
        bytes_w: u64,
        bytes_r: u64,
        peak_rss_mb: f64,
    ) {
        let timed: Vec<&Iter> = iters.iter().filter(|i| i.stage == Stage::Timed).collect();
        let med = |f: &dyn Fn(&Iter) -> f64| median_of(timed.iter().map(|i| f(i)).collect());
        self.set("setup_s", median_of(setups));
        self.set("host_write_mb_s", med(&|i| mb_s(bytes_w, i.host_write_s)));
        self.set("host_read_mb_s", med(&|i| mb_s(bytes_r, i.host_read_s)));
        self.set(
            "host_ops_s",
            med(&|i| i.calls as f64 / (i.host_write_s + i.host_read_s)),
        );
        self.set(
            "sim_write_mb_s",
            med(&|i| sim_mb_s(bytes_w, i.sim_write_ns)),
        );
        self.set("sim_read_mb_s", med(&|i| sim_mb_s(bytes_r, i.sim_read_ns)));
        self.set("peak_rss_mb", peak_rss_mb);
    }

    /// Data calls and checks of every iteration, and the failures among
    /// them.
    fn tally_iters(&mut self, iters: &[Iter]) {
        for i in iters {
            self.tally(i.calls + i.checks, i.failed);
        }
    }

    /// Virtual-clock identity: every iteration must read the same virtual
    /// write and read durations whatever observes it from outside (host
    /// spans, memory probes, the event recorder). Each iteration is one
    /// check. Profiled iterations are reported, not checked: with the
    /// profile on, `close` adds its roll-up allreduce to virtual time.
    pub fn check_identity(&mut self, iters: &[Iter], expect: Option<(u64, u64)>) {
        let Some(first) = iters.first() else { return };
        let want = expect.unwrap_or((first.sim_write_ns, first.sim_read_ns));
        let (profiled, checked): (Vec<&Iter>, Vec<&Iter>) =
            iters.iter().partition(|i| i.stage == Stage::Profiled);
        if let Some(p) = profiled
            .first()
            .filter(|p| (p.sim_write_ns, p.sim_read_ns) != want)
        {
            self.notes.push(format!(
                "profile on moves virtual time: write {:+} ns, read {:+} ns",
                p.sim_write_ns as i64 - want.0 as i64,
                p.sim_read_ns as i64 - want.1 as i64
            ));
        }
        let iters = checked;
        let bad = iters
            .iter()
            .filter(|i| (i.sim_write_ns, i.sim_read_ns) != want)
            .count() as u64;
        if bad > 0 {
            self.notes.push(format!(
                "virtual-clock identity: {bad} of {} iterations differ from write {} ns / read {} ns",
                iters.len(),
                want.0,
                want.1
            ));
        }
        self.tally(iters.len() as u64, bad);
    }

    /// Virtual-time and count metrics from the first profiled iteration.
    fn virtual_counters(&mut self, c: &Counters) {
        let p = &c.profile;
        let crit = p
            .phase_nanos
            .get(p.critical_rank())
            .copied()
            .unwrap_or_default();
        let ph = |phase: Phase| crit[phase.index()] as f64 / 1e9;
        self.set("core.sim_metadata_s", ph(Phase::Metadata));
        self.set(
            "mpi.sim_exchange_s",
            ph(Phase::OffsetExchange) + ph(Phase::DataExchange),
        );
        self.set("mpi.sim_wait_s", ph(Phase::Wait));
        self.set("mpio.sim_pack_s", ph(Phase::CollBufPack));
        self.set("pfs.sim_disk_write_s", ph(Phase::DiskWrite));
        self.set("pfs.sim_disk_read_s", ph(Phase::DiskRead));
        let tp = &p.twophase;
        self.set("mpio.twophase_rounds", tp.pipelined_rounds as f64);
        self.set("mpio.overlap_saved_s", tp.overlap_saved_nanos as f64 / 1e9);
        self.set("mpio.cb_nodes", tp.cb_nodes as f64);
        let servers = &p.servers;
        let sum = |f: fn(&hpc_sim::trace::ServerCounters) -> u64| {
            servers.iter().map(f).sum::<u64>() as f64 / 1e9
        };
        self.set("pfs.nic_busy_s", sum(|s| s.nic_busy_nanos));
        self.set("pfs.disk_busy_s", sum(|s| s.disk_busy_nanos));
        self.set("pfs.queue_stall_s", sum(|s| s.queue_stall_nanos));
        self.set(
            "pfs.max_queue_depth",
            servers.iter().map(|s| s.max_queue_depth).max().unwrap_or(0) as f64,
        );
        self.set("pfs.io_requests", c.pfs.io_requests as f64);
        self.set("pfs.seeks", c.pfs.seeks as f64);
        self.set("mpi.messages", c.world.messages as f64);
        self.set("mpi.message_bytes", c.world.message_bytes as f64);
        self.set("mpi.collectives", c.world.collectives as f64);
        let bp = &p.bytepath;
        let lookups = bp.flatten_hits + bp.flatten_misses;
        self.set(
            "mpio.flatten_hit_rate",
            if lookups == 0 {
                0.0
            } else {
                bp.flatten_hits as f64 / lookups as f64
            },
        );
        self.set("core.fused_pack_bytes", bp.fused_pack_bytes as f64);
        self.set("core.copies_elided", bp.copies_elided as f64);
        self.set("core.borrowed_bytes", bp.borrowed_bytes as f64);
        let moved = p.sieve_read.transferred + p.sieve_write.transferred;
        let useful = p.sieve_read.useful + p.sieve_write.useful;
        self.set(
            "mpio.sieve_useful_ratio",
            if moved == 0 {
                0.0
            } else {
                useful as f64 / moved as f64
            },
        );
    }

    /// Host-clock ladder metrics and the self time of each layer, given
    /// the core layer's time for the same write and read.
    pub fn ladder(&mut self, l: &ladder::Out, core_write_s: f64, core_read_s: f64) {
        self.tally(l.calls, l.errors);
        self.set("format.swap_mb_s", l.swap_mb_s);
        self.set("format.header_us", l.header_us);
        self.set("mpi.alltoallv_mb_s", l.alltoallv_mb_s);
        self.set("mpio.write_runs_all_mb_s", l.mpio_write_runs_all_mb_s);
        self.set("mpio.read_runs_all_mb_s", l.mpio_read_runs_all_mb_s);
        self.set("mpio.write_at_us", l.mpio_write_at_us);
        self.set("pfs.write_mb_s", l.pfs_write_mb_s);
        self.set("pfs.read_mb_s", l.pfs_read_mb_s);
        self.set("pfs.write_us", l.pfs_write_us);
        self.set("core.self_write_s", core_write_s - l.mpio_write_s);
        self.set("core.self_read_s", core_read_s - l.mpio_read_s);
        self.set("mpio.self_write_s", l.mpio_write_s - l.pfs_write_s);
        self.set("mpio.self_read_s", l.mpio_read_s - l.pfs_read_s);
        self.set("pfs.self_write_s", l.pfs_write_s);
        self.set("pfs.self_read_s", l.pfs_read_s);
    }

    /// What observing costs on the host: throughput with the profile, and
    /// with the event recorder, over throughput with neither.
    pub fn observability(&mut self, iters: &[Iter], throughput: impl Fn(&Iter) -> f64) {
        let med = |s: Stage| {
            median_of(
                iters
                    .iter()
                    .filter(|i| i.stage == s)
                    .map(&throughput)
                    .collect(),
            )
        };
        let plain = med(Stage::Plain);
        self.set("trace.profile_host_ratio", med(Stage::Profiled) / plain);
        self.set("trace.events_host_ratio", med(Stage::Evented) / plain);
    }

    /// Record the memory probes of `ctl`, and the transient memory per
    /// payload byte of the write (`bytes_w`); says so when the peak could
    /// not be reset.
    fn memory(&mut self, ctl: &Ctl, bytes_w: u64) {
        if !ctl.hwm_resettable.load(Ordering::Relaxed) {
            self.notes.push(
                "memory probe: /proc/self/clear_refs is not writable; peaks are RSS after each call"
                    .into(),
            );
        }
        let mem = ctl.mem();
        let mut write = Vec::new();
        for (name, d) in &mem {
            match *name {
                "core.iput" => self.set("core.iput.rss_growth_mb", d.growth()),
                "core.wait_all" => self.set("core.wait_all.peak_extra_mb", d.peak_extra()),
                "core.put_vara_all" => self.set("core.put_vara_all.peak_extra_mb", d.peak_extra()),
                "core.get_vara_all" => self.set("core.get_vara_all.peak_extra_mb", d.peak_extra()),
                _ => {}
            }
            if *name != "core.get_vara_all" {
                write.push(*d);
            }
        }
        self.set(
            "core.transient_bytes_per_payload_byte",
            transient_per_byte(&write, bytes_w),
        );
    }
}

pub fn mb_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / secs / 1e6
}

pub fn sim_mb_s(bytes: u64, nanos: u64) -> f64 {
    bytes as f64 / (nanos as f64 / 1e9) / 1e6
}

/// Peak memory above the RSS before the first of `brackets`, per payload
/// byte: the transient memory the library needs to move one byte.
fn transient_per_byte(brackets: &[MemDelta], payload: u64) -> f64 {
    let Some(first) = brackets.first() else {
        return 0.0;
    };
    let peak = brackets.iter().map(|d| d.peak).fold(first.peak, f64::max);
    (peak - first.rss_before) * 1e6 / payload as f64
}
