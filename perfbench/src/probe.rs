//! Host-side measurement: process memory from `/proc/self`, wall-clock
//! spans around public calls, medians, and seeded input values.
//!
//! Nothing here touches a virtual clock: spans read `Instant`, memory
//! probes read `/proc`, and every rank rendezvous the benchmark needs goes
//! through a host `std::sync::Barrier`, never an MPI collective.

use std::fmt::Write as _;
use std::time::Instant;

/// One field of `/proc/self/status` (`VmHWM`, `VmRSS`) in MB.
fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            let rest = l.strip_prefix(key)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Process-wide peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set (`VmRSS`), MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// Reset `VmHWM` to the current RSS by writing `5` to
/// `/proc/self/clear_refs`. Returns `false` where the kernel refuses it;
/// callers then fall back to RSS before and after the call.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Median of `v` (0 for an empty list).
pub fn median_of(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// SplitMix64 of `(seed, i)`: the one source of every generated input
/// value, so the same seed always yields the same bytes.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded `f32` that round-trips exactly through the file format.
pub fn value_f32(seed: u64, i: u64) -> f32 {
    (mix(seed, i) >> 40) as f32 / 1024.0
}

/// A seeded `f64` that round-trips exactly through the file format.
pub fn value_f64(seed: u64, i: u64) -> f64 {
    (mix(seed, i) >> 11) as f64 / 1024.0
}

/// Native-endian bytes of a value slice (the layer ladder replays them).
pub fn f64_bytes(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_ne_bytes()).collect()
}

/// Native-endian bytes of a value slice.
pub fn f32_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_ne_bytes()).collect()
}

/// Native-endian bytes of a value slice.
pub fn i32_bytes(v: &[i32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_ne_bytes()).collect()
}

/// One timed public call: name, host start/end (ns since the run's
/// epoch), the span that caused it, the rank that made it and a
/// per-request id.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub rank: usize,
    pub iter: usize,
    pub id: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// One rank's span recorder. Spans stay in memory; the run writes
/// them out when the run ends.
pub struct SpanLog {
    epoch: Instant,
    rank: usize,
    /// Whether per-call spans are kept (iteration-level spans always are).
    pub calls: bool,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, rank: usize) -> SpanLog {
        SpanLog {
            epoch,
            rank,
            calls: false,
            // Ids are unique across ranks: rank in the high bits.
            next_id: (rank as u64) << 40,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, iter: usize, parent: Option<u64>) -> Span {
        self.next_id += 1;
        Span {
            name,
            rank: self.rank,
            iter,
            id: self.next_id,
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
        }
    }

    /// Close `span` now and keep it.
    pub fn close(&mut self, mut span: Span) {
        span.end_ns = self.now_ns();
        self.spans.push(span);
    }

    /// Time `f` as a per-call span under `parent` (kept only when
    /// per-call spans are on).
    pub fn call<R>(
        &mut self,
        name: &'static str,
        iter: usize,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.calls {
            return f();
        }
        let s = self.open(name, iter, Some(parent));
        let r = f();
        self.close(s);
        r
    }
}

/// Sum of the durations of `name` spans per `(iter, rank)`, then the
/// largest rank per iteration: the time the slowest rank spent in that
/// call during each iteration.
pub fn per_iter_max(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by: std::collections::BTreeMap<(usize, usize), f64> = Default::default();
    for s in spans.iter().filter(|s| s.name == name) {
        *by.entry((s.iter, s.rank)).or_default() += s.secs();
    }
    let mut iters: std::collections::BTreeMap<usize, f64> = Default::default();
    for ((it, _), v) in by {
        let e = iters.entry(it).or_default();
        *e = e.max(v);
    }
    iters.into_values().collect()
}

/// Median duration of one `name` call, in seconds.
pub fn per_call_median(spans: &[Span], name: &str) -> f64 {
    median_of(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect(),
    )
}

/// Write `spans` as JSON, with each span's self time: its duration minus
/// the part its child spans cover.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut child_ns: std::collections::HashMap<u64, u64> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let self_ns = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"rank\":{},\"iter\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}{}",
            s.name,
            s.rank,
            s.iter,
            s.id,
            parent,
            s.start_ns,
            s.end_ns,
            self_ns,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push(']');
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median_of(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_of(Vec::new()), 0.0);
    }

    #[test]
    fn seeded_values_repeat_and_differ_by_seed() {
        assert_eq!(value_f32(7, 11), value_f32(7, 11));
        assert_ne!(mix(7, 11), mix(8, 11));
    }

    #[test]
    fn per_iter_max_takes_slowest_rank_sum() {
        let mk = |rank, iter, start_ns, end_ns| Span {
            name: "x",
            rank,
            iter,
            id: 0,
            parent: None,
            start_ns,
            end_ns,
        };
        let spans = vec![
            mk(0, 0, 0, 1_000_000_000),
            mk(0, 0, 0, 1_000_000_000),
            mk(1, 0, 0, 3_000_000_000),
            mk(1, 1, 0, 1_000_000_000),
        ];
        assert_eq!(per_iter_max(&spans, "x"), vec![3.0, 1.0]);
    }
}
