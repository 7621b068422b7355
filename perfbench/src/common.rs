//! Shared pieces of every workload: the seeded generator, sample
//! statistics, device-counter snapshots, the metric sink and the span
//! recorder of the traced run.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gpupoly::device::{Backend, Device};

/// SplitMix64: a small, fully specified generator, so one `--seed` gives
/// the same inputs on every host and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x005e_ed0f_9e37_79b9)
    }

    /// A generator for one named stream of this seed, independent of how
    /// many values other streams drew.
    pub fn stream(seed: u64, name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        Self::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random image with values in `[0, 1)`.
    pub fn image(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.unit() as f32).collect()
    }
}

/// Nearest-rank percentile of an unsorted sample (`p` in `[0, 1]`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Kernel-label groups the per-layer table reports. A group sums every
/// device label equal to it or extending it with `_` (so `gbc` covers
/// `gbc_lo` and `gbc_hi`, `gemm_itv_f` covers `gemm_itv_f_acc`).
pub const LABEL_GROUPS: [&str; 8] = [
    "gemm_itv_f",
    "gbc",
    "concretize",
    "bias_fold",
    "relu_step",
    "residual_merge",
    "gather_rows",
    "comms",
];

fn group_of(label: &str) -> Option<usize> {
    LABEL_GROUPS
        .iter()
        .position(|g| label == *g || label.strip_prefix(g).is_some_and(|r| r.starts_with('_')))
}

/// A copy of the public device counters at one instant; differences of two
/// snapshots give the work of the interval between them.
#[derive(Clone, Debug, Default)]
pub struct DevSnap {
    pub launches: u64,
    pub flops: u64,
    pub bytes: u64,
    pub alloc_bytes: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    /// `(launches, flops, bytes)` per [`LABEL_GROUPS`] entry.
    pub groups: [(u64, u64, u64); 8],
}

impl DevSnap {
    pub fn take<B: Backend>(device: &Device<B>) -> Self {
        let s = device.stats();
        let mut snap = Self {
            launches: s.launches(),
            flops: s.flops(),
            bytes: s.bytes_moved(),
            alloc_bytes: s.bytes_allocated(),
            pool_hits: s.pool_hits(),
            pool_misses: s.pool_misses(),
            groups: Default::default(),
        };
        for (label, work) in s.kernel_work_all() {
            if let Some(g) = group_of(label) {
                let e = &mut snap.groups[g];
                e.0 += work.launches;
                e.1 += work.flops;
                e.2 += work.bytes_moved;
            }
        }
        snap
    }

    /// Sum over several devices (a sharded pool).
    pub fn take_all<B: Backend>(devices: &[Device<B>]) -> Self {
        devices
            .iter()
            .map(Self::take)
            .fold(Self::default(), |acc, s| acc.plus(&s))
    }

    fn zip(&self, o: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        let mut groups = [(0, 0, 0); 8];
        for (g, (a, b)) in groups.iter_mut().zip(self.groups.iter().zip(&o.groups)) {
            *g = (f(a.0, b.0), f(a.1, b.1), f(a.2, b.2));
        }
        Self {
            launches: f(self.launches, o.launches),
            flops: f(self.flops, o.flops),
            bytes: f(self.bytes, o.bytes),
            alloc_bytes: f(self.alloc_bytes, o.alloc_bytes),
            pool_hits: f(self.pool_hits, o.pool_hits),
            pool_misses: f(self.pool_misses, o.pool_misses),
            groups,
        }
    }

    pub fn plus(&self, o: &Self) -> Self {
        self.zip(o, u64::wrapping_add)
    }

    pub fn minus(&self, earlier: &Self) -> Self {
        self.zip(earlier, u64::saturating_sub)
    }

    /// Writes the `device.*` per-query metrics of this interval.
    pub fn report(&self, per: f64, m: &mut Metrics) {
        m.set(
            "device.launches_per_query",
            self.launches as f64 / per,
            "count",
        );
        m.set("device.flops_per_query", self.flops as f64 / per, "flop");
        m.set("device.bytes_per_query", self.bytes as f64 / per, "B");
        m.set(
            "device.alloc_bytes_per_query",
            self.alloc_bytes as f64 / per,
            "B",
        );
        let lookups = self.pool_hits + self.pool_misses;
        m.set(
            "device.pool_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                self.pool_hits as f64 / lookups as f64
            },
            "ratio",
        );
        for (g, &(launches, flops, bytes)) in LABEL_GROUPS.iter().zip(&self.groups) {
            m.set(
                &format!("device.{g}.launches_per_query"),
                launches as f64 / per,
                "count",
            );
            m.set(
                &format!("device.{g}.flops_per_query"),
                flops as f64 / per,
                "flop",
            );
            m.set(
                &format!("device.{g}.bytes_per_query"),
                bytes as f64 / per,
                "B",
            );
        }
    }
}

/// Named metrics with units, in name order.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }
}

/// One recorded span of the traced run.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: Option<u64>,
    pub start: Duration,
    pub end: Duration,
}

/// In-memory span recorder. Spans are recorded only around the
/// benchmark's own calls into each layer, kept in memory, and written out
/// when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next: std::sync::atomic::AtomicU64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next: std::sync::atomic::AtomicU64::new(1),
        }
    }

    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Records a finished span that ran from `start` to `end`.
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            request,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        };
        self.spans.lock().expect("span lock poisoned").push(span);
    }

    /// Runs `f` inside a span and returns its result with the span's id.
    pub fn span<R>(
        &self,
        parent: Option<u64>,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.id();
        let start = Instant::now();
        let r = f(id);
        self.record(id, parent, name, request, start, Instant::now());
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }
}

/// Self time per span name, in ms: each span's duration minus the union
/// of its children's intervals (clipped to the span), so children that
/// overlap, like the concurrent requests of `serve_mixed`, are not
/// subtracted twice. Spans of one name that overlap each other add up:
/// for concurrent requests the figure is busy time in request-ms, not
/// wall time.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(Duration, Duration)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let mut covered = Duration::ZERO;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort();
            let mut open: Option<(Duration, Duration)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(s.start, s.end), b.clamp(s.start, s.end));
                match &mut open {
                    Some((_, end)) if a <= *end => *end = (*end).max(b),
                    _ => {
                        if let Some((x, y)) = open.replace((a, b)) {
                            covered += y - x;
                        }
                    }
                }
            }
            if let Some((x, y)) = open {
                covered += y - x;
            }
        }
        let own = s.end.saturating_sub(s.start).saturating_sub(covered);
        *out.entry(s.name).or_default() += ms(own);
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_us\":{},\"end_us\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.request.map_or("null".to_string(), |r| r.to_string()),
            s.start.as_micros(),
            s.end.as_micros()
        )?;
    }
    out.flush()
}
