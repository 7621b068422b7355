//! The three in-process engine workloads: `resnet_single` (one caller,
//! one query at a time on a residual conv net), `mlp_batch` (offline
//! batches through `Engine::verify_batch`) and `mlp_hybrid2` (the same
//! batches through a 2-device hybrid `ShardedEngine`). One driver,
//! [`drive`], runs the set-ups, the timed window, the correctness gate, the
//! complete-mode probe and the per-layer report; each workload supplies
//! only its network, its engine and its timed loop ([`Workload`]).

use std::time::{Duration, Instant};

use gpupoly::core::{
    CompleteVerdict, Engine, EngineOptions, EngineStats, LinearSpec, Query, RefineBudget,
    RobustnessVerdict, ShardedEngine, VerifyConfig, VerifyError,
};
use gpupoly::device::{CpuSimBackend, Device, DeviceConfig};
use gpupoly::interval::Itv;
use gpupoly::nn::{Network, Shape};

use crate::common::{median, ms, percentile, DevSnap, Metrics, Rng, Tracer, LABEL_GROUPS};
use crate::gate::{margins_of, sample, Gate, Margins};
use crate::nets;
use crate::{replay, Ctx, Outcome};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;
/// Verdicts per run the correctness gate re-derives with the oracle.
pub const GATE_SAMPLE: usize = 32;
/// Split budget of a complete-mode query (no deadline), unless a
/// workload sets its own ([`Workload::PROBE_SPLITS`]).
pub const COMPLETE_SPLITS: u32 = 4;
/// Complete-mode queries use this multiple of the workload's ε, so the
/// base pass rarely decides them and the split budget is exercised.
pub const COMPLETE_EPS_FACTOR: f32 = 2.0;

const RESNET_INPUT: Shape = Shape { h: 8, w: 8, c: 3 };
const RESNET_STAGES: [usize; 4] = [2, 4, 8, 16];
const RESNET_HEAD: [usize; 2] = [16, 8];
const RESNET_EPS: f32 = 0.0025;
/// `resnet_single` runs on one device worker: launches then run on the
/// caller's thread. With the default of one worker per host core, every
/// one of its ~700 launches per query spawns worker threads; on a 2-core
/// host that doubled the latency (77 against 40 ms per query) and made it
/// follow outside load on the host (IQR 0.43 of the median p50 over five
/// seeds in a busy hour). Thread-spawning dispatch is still measured, on
/// `mlp_batch`.
const RESNET_WORKERS: usize = 1;
/// Device memory of `resnet_single`. Uncapped, the complete-mode probe
/// peaked at 673 MB of fresh allocations per run, and its time followed
/// the host's memory traffic (IQR 0.33 of the median over ten seeds); the
/// cap makes the walk chunk and reuse pooled buffers instead.
const RESNET_DEVICE_BYTES: usize = 256 << 20;

const MLP_INPUTS: usize = 64;
const MLP_WIDTH: usize = 64;
const MLP_HIDDEN: usize = 6;
const MLP_EPS: f32 = 0.007;
const BATCH: usize = 32;
/// Device memory of each hybrid device: its weight shard, the gather
/// cache and a chunked walk over its row block.
const HYBRID_DEVICE_BYTES: usize = 3 << 20;
/// Gather-cache capacity of each hybrid device: above the double-buffer
/// floor (two 64×64 layers) and below the ~50 KB of layers each device
/// does not own, so gathers and evictions recur on every batch. (A memory
/// cap low enough to shrink the auto-sized cache that far leaves the walk
/// no room and fails with out-of-memory.)
const HYBRID_GATHER_CACHE_BYTES: usize = 40_000;

pub fn resnet_net() -> Network<f32> {
    nets::resnet_tiny(nets::NET_SEED, RESNET_INPUT, RESNET_STAGES, RESNET_HEAD)
}

pub fn mlp_net() -> Network<f32> {
    nets::mlp(nets::NET_SEED, "mlp", MLP_INPUTS, MLP_WIDTH, MLP_HIDDEN)
}

/// Runs `f` inside a span when the run is traced.
pub fn traced<R>(
    ctx: &Ctx,
    parent: Option<u64>,
    name: &'static str,
    req: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    match &ctx.trace {
        Some(t) => t.span(parent, name, req, |_| f()),
        None => f(),
    }
}

/// The root span of a traced run; closed by [`Root::close`].
pub struct Root {
    id: Option<u64>,
    start: Instant,
}

impl Root {
    pub fn open(ctx: &Ctx) -> Self {
        Self {
            id: ctx.trace.as_ref().map(Tracer::id),
            start: Instant::now(),
        }
    }

    pub fn id(&self) -> Option<u64> {
        self.id
    }

    pub fn close(self, ctx: &Ctx) {
        if let (Some(t), Some(id)) = (&ctx.trace, self.id) {
            t.record(id, None, "bench", None, self.start, Instant::now());
        }
    }
}

/// `(nn_ms, engine_ms, total_s)` of one full set-up.
pub type SetupTimes = (f64, f64, f64);

/// Writes the medians of the set-up components over the run's set-ups.
pub fn setup_metrics(times: &[SetupTimes], m: &mut Metrics) {
    let col = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    m.set("nn.build_ms", col(|t| t.0), "ms");
    m.set("engine.new_ms", col(|t| t.1), "ms");
    m.set("setup_s", col(|t| t.2), "s");
}

/// The warm-up query of every set-up. Like the networks, it is part of
/// the workload's definition: drawn from `--seed`, its cost moved
/// `setup_s` with the query a seed drew.
pub fn warm_up_query(net: &Network<f32>, eps: f32) -> Query<f32> {
    nets::queries(net, &mut Rng::stream(nets::NET_SEED, "warmup"), 1, eps).remove(0)
}

/// The clamped L∞ input box of a robustness query.
fn query_box(q: &Query<f32>) -> Vec<Itv<f32>> {
    q.image
        .iter()
        .map(|&x| Itv::new(x - q.eps, x + q.eps).clamp_to(0.0, 1.0))
        .collect()
}

/// Per-query work counters carried in every verdict.
#[derive(Default)]
pub struct AnalysisTotals {
    rows_refined: usize,
    rows_skipped_stable: usize,
    rows_stopped_early: usize,
    chunks: usize,
    chunk_shrinks: usize,
}

impl AnalysisTotals {
    pub fn add(&mut self, s: &gpupoly::core::AnalysisStats) {
        self.rows_refined += s.rows_refined;
        self.rows_skipped_stable += s.rows_skipped_stable;
        self.rows_stopped_early += s.rows_stopped_early;
        self.chunks += s.chunks;
        self.chunk_shrinks += s.chunk_shrinks;
    }

    pub fn report(&self, n: f64, m: &mut Metrics) {
        m.set(
            "analysis.rows_refined_per_query",
            self.rows_refined as f64 / n,
            "count",
        );
        m.set(
            "analysis.rows_skipped_stable_per_query",
            self.rows_skipped_stable as f64 / n,
            "count",
        );
        m.set("analysis.chunks_per_query", self.chunks as f64 / n, "count");
        m.set("analysis.chunk_shrinks", self.chunk_shrinks as f64, "count");
        m.set(
            "walk.rows_stopped_early_per_query",
            self.rows_stopped_early as f64 / n,
            "count",
        );
    }
}

/// The daemon's layers, which no engine workload runs: no request is sent,
/// admitted, batched or answered, so every count and time reads 0. (A
/// traced run prints every per-layer metric of `BENCHMARK.json`.)
fn serve_layers_not_run(m: &mut Metrics) {
    for (name, unit) in [
        ("registry.mean_batch", "count"),
        ("registry.fused_batch_frac", "ratio"),
        ("registry.queue_depth_p99", "count"),
        ("registry.rejected_overload", "count"),
        ("registry.expired_dropped", "count"),
        ("registry.pool_load_residue", "count"),
        ("registry.submit_ms_p50", "ms"),
        ("wire.overhead_ms_p50", "ms"),
        ("loadgen.late_ms_p99", "ms"),
        ("loadgen.sent", "count"),
        ("loadgen.completed", "count"),
        ("loadgen.failed", "count"),
    ] {
        m.set(name, 0.0, unit);
    }
}

/// The `sharded.*` metrics of an interval: gather counters (`gathers` =
/// hits, misses, evictions, summed over the engines) per batch call, the
/// `comms` bytes of `delta` per query, and the busiest device's share of
/// the flops `dev_flops` the devices metered. An unsharded engine reads 0
/// gathers and 0 bytes, and its one device does all the flops.
pub fn sharded_metrics(
    gathers: [u64; 3],
    delta: &DevSnap,
    dev_flops: &[u64],
    calls: f64,
    n: f64,
    m: &mut Metrics,
) {
    let names = ["hits", "misses", "evictions"];
    for (what, count) in names.iter().zip(gathers) {
        let name = format!("sharded.gather_{what}_per_batch");
        m.set(&name, count as f64 / calls.max(1.0), "count");
    }
    let comms = LABEL_GROUPS
        .iter()
        .position(|g| *g == "comms")
        .expect("comms group");
    m.set(
        "sharded.comms_bytes_per_query",
        delta.groups[comms].2 as f64 / n,
        "B",
    );
    let total: u64 = dev_flops.iter().sum();
    let busiest = dev_flops.iter().copied().max().unwrap_or(0);
    m.set(
        "sharded.busiest_device_flops_share",
        busiest as f64 / total.max(1) as f64,
        "ratio",
    );
}

/// Queries per block of the closed loop; `qps` is the median over blocks.
const BLOCK: usize = 16;

/// Throughput as the median over consecutive blocks of `per` samples of
/// `per / (summed latency of the block)`: a burst of outside load on the
/// host moves one block, not the reported rate. Partial blocks are
/// dropped unless there is no full one.
fn block_qps(lat_ms: &[f64], per: usize) -> f64 {
    let rates: Vec<f64> = lat_ms
        .chunks(per)
        .filter(|c| c.len() == per || lat_ms.len() < per)
        .map(|c| c.len() as f64 / (c.iter().sum::<f64>() / 1e3))
        .collect();
    median(&rates)
}

/// Latency percentiles of the unit a caller waits on, with the sample
/// counts behind them: a percentile is supported when at least ten samples
/// lie beyond it.
pub fn latency_metrics(lat_ms: &[f64], out: &mut Outcome) {
    let m = &mut out.metrics;
    m.set("latency_p50_ms", percentile(lat_ms, 0.50), "ms");
    m.set("latency_p90_ms", percentile(lat_ms, 0.90), "ms");
    m.set("latency_p99_ms", percentile(lat_ms, 0.99), "ms");
    let n = lat_ms.len();
    out.samples.insert("latency", n);
    out.samples.insert("latency_beyond_p90", n / 10);
    out.samples.insert("latency_beyond_p99", n / 100);
}

/// The tracing overhead: p50 latency of the traced half of a traced run
/// against the untraced half, in ms.
pub fn trace_overhead(untraced: &[f64], traced: &[f64], m: &mut Metrics) {
    let (u, t) = (median(untraced), median(traced));
    m.set("trace.untraced_p50_ms", u, "ms");
    m.set("trace.traced_p50_ms", t, "ms");
    m.set("trace.overhead_ms", t - u, "ms");
}

/// Gates one complete-mode verdict: a counterexample must lie in the box
/// and provably lose in f64 inference; a base proof must pass the
/// concrete-point check.
pub fn check_complete(gate: &mut Gate<'_>, q: &Query<f32>, v: &CompleteVerdict<f64>) {
    match v {
        CompleteVerdict::Falsified {
            counterexample,
            adversary,
            ..
        } => {
            let inside = counterexample.iter().zip(&q.image).all(|(&c, &x)| {
                let (x, e) = (f64::from(x), f64::from(q.eps));
                c >= (x - e).max(0.0) - 1e-7 && c <= (x + e).min(1.0) + 1e-7
            });
            let y = gate.infer(counterexample);
            if !inside || y[*adversary] < y[q.label] {
                gate.fail(format!(
                    "complete: counterexample for label {} (adversary {adversary}) is \
                     outside the box or not misclassified",
                    q.label
                ));
            }
        }
        CompleteVerdict::Proven { base: Some(b), .. } => {
            let margins: Margins = b
                .margins
                .iter()
                .map(|m| (m.adversary, m.lower as f32, m.proven))
                .collect();
            gate.check_points("complete", q, &margins);
        }
        _ => {}
    }
}

/// Gates a seeded sample of `(query, reported margins)` pairs; the
/// self-test hook perturbs the first sampled margin before the check.
fn gate_sample(ctx: &Ctx, what: &str, gate: &mut Gate<'_>, results: &mut [(Query<f32>, Margins)]) {
    let mut rng = Rng::stream(ctx.seed, "gate_sample");
    for (k, i) in sample(results.len(), GATE_SAMPLE, &mut rng)
        .into_iter()
        .enumerate()
    {
        let (q, got) = &mut results[i];
        if ctx.perturb && k == 0 {
            if let Some(m) = got.first_mut() {
                m.1 = f32::from_bits(m.1.to_bits() ^ 1);
            }
        }
        gate.check(what, q, got);
    }
}

/// Times `Engine::analyze` and `Engine::check_spec_with` separately on
/// fresh queries (traced runs, after the window, where the timed loop
/// does not call them one by one).
pub fn layer_probe(
    ctx: &Ctx,
    net: &Network<f32>,
    engine: &Engine<'_, f32, CpuSimBackend>,
    eps: f32,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut rng = Rng::stream(ctx.seed, "layer_probe");
    let probes = nets::queries(net, &mut rng, 16, eps);
    let (mut a_ms, mut w_ms) = (Vec::new(), Vec::new());
    for (i, q) in probes.iter().enumerate() {
        let req = Some(i as u64);
        let (analysis, took) = analyze_traced(ctx, None, engine, q, req)?;
        a_ms.push(took);
        let (_, took) = walk_traced(ctx, None, engine, &analysis, q, net.output_len(), req)?;
        w_ms.push(took);
    }
    m.set("analysis.ms_per_query", median(&a_ms), "ms");
    m.set("walk.spec_ms_per_query", median(&w_ms), "ms");
    Ok(())
}

type AnalysisOf = std::sync::Arc<gpupoly::core::Analysis<f32>>;

/// `Engine::analyze` on the query's box inside an `analysis` span, with
/// its time in ms.
fn analyze_traced(
    ctx: &Ctx,
    root: Option<u64>,
    engine: &Engine<'_, f32, CpuSimBackend>,
    q: &Query<f32>,
    req: Option<u64>,
) -> Result<(AnalysisOf, f64), String> {
    let t = Instant::now();
    let a = traced(ctx, root, "analysis", req, || engine.analyze(&query_box(q)));
    Ok((a.map_err(|e| e.to_string())?, ms(t.elapsed())))
}

/// `Engine::check_spec_with` of the robustness spec inside a `walk` span:
/// the margins, whether all are proven, the walk's counters and its time.
fn walk_traced(
    ctx: &Ctx,
    root: Option<u64>,
    engine: &Engine<'_, f32, CpuSimBackend>,
    analysis: &AnalysisOf,
    q: &Query<f32>,
    out_len: usize,
    req: Option<u64>,
) -> Result<((Margins, bool, gpupoly::core::AnalysisStats), f64), String> {
    let spec = LinearSpec::robustness(q.label, out_len);
    let t = Instant::now();
    let sv = traced(ctx, root, "walk", req, || {
        engine.check_spec_with(analysis, &spec)
    })
    .map_err(|e| e.to_string())?;
    let took = ms(t.elapsed());
    let margins = (0..out_len)
        .filter(|&o| o != q.label)
        .zip(sv.lower_bounds.iter().zip(&sv.proven))
        .map(|(adv, (&lower, &p))| (adv, lower, p))
        .collect::<Margins>();
    let all = sv.all_proven();
    Ok(((margins, all, sv.stats), took))
}

/// What a workload's timed loop measured.
#[derive(Default)]
pub struct TimedRun {
    results: Vec<(Query<f32>, Margins)>,
    /// Per-query latency in ms (in a batch, each query's is its call's).
    lat: Vec<f64>,
    qps: f64,
    proven: usize,
    /// Calls into the engine (batch calls, or queries of a closed loop).
    calls: usize,
    totals: AnalysisTotals,
    /// Call latencies of the untraced and the traced calls of a traced
    /// run: their medians give the tracing overhead.
    untraced: Vec<f64>,
    traced: Vec<f64>,
    /// `analyze` and `check_spec_with` times, when the loop itself made
    /// those calls one by one.
    layer_ms: Option<(Vec<f64>, Vec<f64>)>,
}

impl TimedRun {
    fn push_call(&mut self, traced_call: bool, took: f64) {
        if traced_call {
            self.traced.push(took);
        } else {
            self.untraced.push(took);
        }
    }
}

/// The engine calls the shared driver makes.
pub trait Subject<'n> {
    fn devices(&self) -> &[Device<CpuSimBackend>];
    fn per_device_stats(&self) -> Vec<EngineStats>;
    fn verify_complete(
        &self,
        q: &Query<f32>,
        splits: u32,
    ) -> Result<CompleteVerdict<f32>, VerifyError>;
    /// The engine `analyze` and `check_spec_with` are probed on.
    fn engine(&self) -> &Engine<'n, f32, CpuSimBackend>;
}

impl<'n> Subject<'n> for Engine<'n, f32, CpuSimBackend> {
    fn devices(&self) -> &[Device<CpuSimBackend>] {
        std::slice::from_ref(self.device())
    }

    fn per_device_stats(&self) -> Vec<EngineStats> {
        vec![self.stats()]
    }

    fn verify_complete(
        &self,
        q: &Query<f32>,
        splits: u32,
    ) -> Result<CompleteVerdict<f32>, VerifyError> {
        Engine::verify_complete(self, q, &RefineBudget::with_max_splits(splits))
    }

    fn engine(&self) -> &Engine<'n, f32, CpuSimBackend> {
        self
    }
}

impl<'n> Subject<'n> for ShardedEngine<'n, f32, CpuSimBackend> {
    fn devices(&self) -> &[Device<CpuSimBackend>] {
        ShardedEngine::devices(self)
    }

    fn per_device_stats(&self) -> Vec<EngineStats> {
        ShardedEngine::per_device_stats(self)
    }

    fn verify_complete(
        &self,
        q: &Query<f32>,
        splits: u32,
    ) -> Result<CompleteVerdict<f32>, VerifyError> {
        let budget = RefineBudget::with_max_splits(splits);
        self.verify_complete_batch(std::slice::from_ref(q), &budget)
            .pop()
            .expect("one verdict")
    }

    fn engine(&self) -> &Engine<'n, f32, CpuSimBackend> {
        &self.engines()[0]
    }
}

/// What differs between the engine workloads.
pub trait Workload {
    type Subject<'n>: Subject<'n>;
    /// Workload name, as the correctness gate reports it.
    const NAME: &'static str;
    /// Span name of the calls into the engine.
    const LAYER: &'static str;
    const EPS: f32;
    /// Queries of the complete-mode probe, spread through the timed window.
    const COMPLETE_PROBES: usize = 7;
    /// Split budget of each probe query.
    const PROBE_SPLITS: u32 = COMPLETE_SPLITS;
    fn net() -> Network<f32>;
    fn build(net: &Network<f32>) -> Result<Self::Subject<'_>, VerifyError>;
    /// The engine of the complete-mode probe; by default built like the
    /// timed one.
    fn build_probe(net: &Network<f32>) -> Result<Self::Subject<'_>, VerifyError> {
        Self::build(net)
    }
    /// One query through the workload's timed path.
    fn warm(s: &Self::Subject<'_>, q: &Query<f32>) -> Result<(), String>;
    /// The timed window. `between` is called after every call with the
    /// busy time so far; it runs the complete-mode probes that are due.
    fn timed(
        ctx: &Ctx,
        net: &Network<f32>,
        s: &Self::Subject<'_>,
        root: Option<u64>,
        between: &mut dyn FnMut(Duration) -> Result<(), String>,
    ) -> Result<TimedRun, String>;
}

/// Runs one engine workload: [`SETUP_REPEATS`] timed set-ups (network,
/// engine, warm-up query), the timed window on a last set-up with the
/// complete-mode probes spread through it, the correctness gate and every
/// metric.
pub fn drive<W: Workload>(ctx: &Ctx) -> Result<Outcome, String> {
    let root = Root::open(ctx);
    let mut out = Outcome::default();
    let mut times = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let net = traced(ctx, root.id(), "nn", None, W::net);
        let t_nn = ms(t.elapsed());
        let t_e = Instant::now();
        let subject =
            traced(ctx, root.id(), W::LAYER, None, || W::build(&net)).map_err(|e| e.to_string())?;
        let t_eng = ms(t_e.elapsed());
        let q = warm_up_query(&net, W::EPS);
        traced(ctx, root.id(), W::LAYER, None, || W::warm(&subject, &q))?;
        times.push((t_nn, t_eng, t.elapsed().as_secs_f64()));
    }
    setup_metrics(&times, &mut out.metrics);

    let net = W::net();
    let subject = W::build(&net).map_err(|e| e.to_string())?;
    W::warm(&subject, &warm_up_query(&net, W::EPS))?;
    let devices = subject.devices().to_vec();
    out.devices = devices.len();
    out.workers_per_device = devices[0].workers();
    let flops = || -> Vec<u64> { devices.iter().map(|d| d.stats().flops()).collect() };
    let (before, flops_before) = (DevSnap::take_all(&devices), flops());
    let stats_before = subject.per_device_stats();
    // The complete-mode probe runs on an engine of its own, so its
    // searches leave the timed engine's pool, cache and counters as they
    // were: on the timed engine they left pooled buffers that made
    // `resnet_single`'s later analyses chunk more (3.6 times the launches
    // per query, 25% more latency).
    let probe_subject = W::build_probe(&net).map_err(|e| e.to_string())?;
    W::warm(&probe_subject, &warm_up_query(&net, W::EPS))?;
    let mut probe = CompleteProbe::new(ctx, &net, W::EPS, W::COMPLETE_PROBES, W::PROBE_SPLITS);
    let mut between =
        |busy: Duration| probe.run_due(ctx, root.id(), W::LAYER, &probe_subject, busy);
    let mut run = W::timed(ctx, &net, &subject, root.id(), &mut between)?;
    // Probes a short window did not reach run after it.
    probe.run_due(ctx, root.id(), W::LAYER, &probe_subject, Duration::MAX)?;
    let delta = DevSnap::take_all(&devices).minus(&before);
    let dev_flops: Vec<u64> = flops()
        .iter()
        .zip(&flops_before)
        .map(|(a, b)| a - b)
        .collect();
    let stats_after = subject.per_device_stats();
    let n = run.results.len();

    let m = &mut out.metrics;
    m.set("qps", run.qps, "queries/s");
    m.set("proven_frac", run.proven as f64 / n as f64, "ratio");
    out.attempted = n as u64;
    latency_metrics(&run.lat, &mut out);

    let mut gate = Gate::new(&net, ctx.seed);
    gate_sample(ctx, W::NAME, &mut gate, &mut run.results);
    probe.finish(&mut gate, &probe_subject, &mut out);

    let m = &mut out.metrics;
    let all_devices = devices.iter().chain(probe_subject.devices());
    let peak = all_devices.map(Device::peak_memory).max().unwrap_or(0);
    m.set("peak_device_mb", peak as f64 / (1 << 20) as f64, "MB");
    let resident = stats_after.iter().map(|s| s.resident_bytes).max();
    m.set(
        "engine.resident_kb",
        resident.unwrap_or(0) as f64 / 1024.0,
        "KiB",
    );
    let grew = |f: fn(&EngineStats) -> u64| -> u64 {
        let sum = |v: &[EngineStats]| v.iter().map(f).sum::<u64>();
        sum(&stats_after) - sum(&stats_before)
    };
    let (hits, misses) = (grew(|s| s.cache_hits), grew(|s| s.cache_misses));
    m.set(
        "engine.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    delta.report(n as f64, m);
    run.totals.report(n as f64, m);
    let gathers = [
        grew(|s| s.gather_hits),
        grew(|s| s.gather_misses),
        grew(|s| s.gather_evictions),
    ];
    sharded_metrics(gathers, &delta, &dev_flops, run.calls as f64, n as f64, m);
    // A failed query fails the run, so a run that reports has none.
    m.set("error_frac", 0.0, "ratio");
    serve_layers_not_run(m);
    if let Some(tracer) = &ctx.trace {
        trace_overhead(&run.untraced, &run.traced, m);
        match &run.layer_ms {
            Some((a, w)) => {
                m.set("analysis.ms_per_query", median(a), "ms");
                m.set("walk.spec_ms_per_query", median(w), "ms");
            }
            None => layer_probe(ctx, &net, subject.engine(), W::EPS, m)?,
        }
        replay::run(&net, out.workers_per_device, ctx.seed, tracer, m);
    }
    out.checked = gate.checked;
    out.violations = std::mem::take(&mut gate.violations);
    root.close(ctx);
    Ok(out)
}

/// The complete-mode probe: a fixed set of queries at
/// [`COMPLETE_EPS_FACTOR`]·ε with the workload's split budget, one at a
/// time, through an engine built like the workload's, spread evenly over
/// the timed window (probe `j` of `n` runs once the window's calls have
/// been busy for `j/n` of it). Run back to back after the window, one
/// episode of outside load on the host moved every probe
/// (`complete_p50_ms` doubled in two of ten runs of `mlp_batch`). Like the
/// networks, the probe queries are part of the workload's definition:
/// drawn from `--seed`, the median of the searches moved with which
/// queries a seed drew (IQR 0.29 of the median over five seeds of
/// `mlp_batch`, against 0.01 between runs of one seed).
struct CompleteProbe {
    queries: Vec<Query<f32>>,
    splits: u32,
    window: Duration,
    lat: Vec<f64>,
    verdicts: Vec<CompleteVerdict<f32>>,
}

impl CompleteProbe {
    fn new(ctx: &Ctx, net: &Network<f32>, eps: f32, count: usize, splits: u32) -> Self {
        let mut rng = Rng::stream(nets::NET_SEED, "complete_probe");
        Self {
            queries: nets::queries(net, &mut rng, count, eps * COMPLETE_EPS_FACTOR),
            splits,
            window: Duration::from_secs_f64(ctx.seconds),
            lat: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    /// Runs every probe that is due after `busy` of the window.
    fn run_due<'n>(
        &mut self,
        ctx: &Ctx,
        root: Option<u64>,
        layer: &'static str,
        subject: &impl Subject<'n>,
        busy: Duration,
    ) -> Result<(), String> {
        let n = self.queries.len() as u32;
        while self.verdicts.len() < self.queries.len()
            && busy >= self.window * self.verdicts.len() as u32 / n
        {
            let q = &self.queries[self.verdicts.len()];
            let t = Instant::now();
            let v = traced(ctx, root, layer, None, || {
                subject.verify_complete(q, self.splits)
            })
            .map_err(|e| e.to_string())?;
            self.lat.push(ms(t.elapsed()));
            self.verdicts.push(v);
        }
        Ok(())
    }

    /// Gates every counterexample and proof, and writes `complete_p50_ms`
    /// and the `bnb.*` metrics.
    fn finish<'n>(&self, gate: &mut Gate<'_>, subject: &impl Subject<'n>, out: &mut Outcome) {
        let (mut splits, mut by_split, mut cex, mut proven) = (0u64, 0usize, 0usize, 0usize);
        for (q, v) in self.queries.iter().zip(&self.verdicts) {
            splits += v.splits();
            check_complete(gate, q, &v.widen());
            match v {
                CompleteVerdict::Proven { splits: s, .. } => {
                    proven += 1;
                    by_split += usize::from(*s > 0);
                }
                CompleteVerdict::Falsified { .. } => cex += 1,
                CompleteVerdict::Unknown { .. } => {}
            }
        }
        let n = self.verdicts.len() as f64;
        let frontier_peak = subject
            .per_device_stats()
            .iter()
            .map(|s| s.frontier_peak)
            .max();
        let m = &mut out.metrics;
        m.set("complete_p50_ms", median(&self.lat), "ms");
        m.set("bnb.splits_per_complete", splits as f64 / n, "count");
        m.set(
            "bnb.frontier_peak",
            frontier_peak.unwrap_or(0) as f64,
            "count",
        );
        m.set("bnb.proven_by_split_frac", by_split as f64 / n, "ratio");
        m.set("bnb.cex_found", cex as f64, "count");
        out.samples.insert("complete", self.verdicts.len());
        out.samples.insert("complete_proven", proven);
    }
}

/// `resnet_single`: a closed loop with one caller, one query at a time
/// through `Engine::verify_robustness`, every image distinct.
pub struct ResnetSingle;

impl Workload for ResnetSingle {
    type Subject<'n> = Engine<'n, f32, CpuSimBackend>;
    const NAME: &'static str = "resnet_single";
    const LAYER: &'static str = "engine";
    const EPS: f32 = RESNET_EPS;
    /// Many short searches rather than a few long ones. With seven
    /// 4-split searches (about 470 ms each, 40 to 600 ms by query) the
    /// median was the time of whichever query sat in the middle, and one
    /// query's time moved by 10-20% between runs: `complete_p50_ms` spread
    /// 0.22-0.29 of its median over ten seeds on a shared 2-core host. 32
    /// single-split searches (about 180 ms each, most within 130-250 ms)
    /// take 6 s of a run instead of 3.4 s and spread 0.073 over ten
    /// seeds, as little as `latency_p50_ms` (0.080) in the same runs.
    const COMPLETE_PROBES: usize = 32;
    const PROBE_SPLITS: u32 = 1;

    fn net() -> Network<f32> {
        resnet_net()
    }

    fn build(net: &Network<f32>) -> Result<Self::Subject<'_>, VerifyError> {
        let device = Device::new(
            DeviceConfig::new()
                .workers(RESNET_WORKERS)
                .memory_capacity(RESNET_DEVICE_BYTES)
                .name("dev0"),
        );
        Engine::new(device, net, VerifyConfig::default())
    }

    fn warm(engine: &Self::Subject<'_>, q: &Query<f32>) -> Result<(), String> {
        engine
            .verify_robustness(&q.image, q.label, q.eps)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    /// A traced run alternates blocks of plain calls (the untraced
    /// reference of the tracing overhead) with blocks of traced `analyze` +
    /// `check_spec_with` calls, which do the same work with the default
    /// options. Inputs are generated in blocks outside the timed calls.
    fn timed(
        ctx: &Ctx,
        net: &Network<f32>,
        engine: &Self::Subject<'_>,
        root: Option<u64>,
        between: &mut dyn FnMut(Duration) -> Result<(), String>,
    ) -> Result<TimedRun, String> {
        let mut rng = Rng::stream(ctx.seed, "resnet_queries");
        let mut run = TimedRun::default();
        let (mut pool, mut busy) = (Vec::new(), Duration::ZERO);
        let (mut analysis_ms, mut walk_ms) = (Vec::new(), Vec::new());
        let window = Duration::from_secs_f64(ctx.seconds);
        // A traced run needs at least one block of each kind.
        let min_queries = if ctx.trace.is_some() { 2 * BLOCK } else { 1 };
        while busy < window || run.results.len() < min_queries {
            let i = run.results.len();
            if i == pool.len() {
                pool.extend(nets::queries(net, &mut rng, 64, RESNET_EPS));
            }
            let q: &Query<f32> = &pool[i];
            let traced_call = ctx.trace.is_some() && (i / BLOCK) % 2 == 1;
            let t = Instant::now();
            let (margins, verified, stats) = if traced_call {
                let req = Some(i as u64);
                let (analysis, a) = analyze_traced(ctx, root, engine, q, req)?;
                let (verdict, w) =
                    walk_traced(ctx, root, engine, &analysis, q, net.output_len(), req)?;
                analysis_ms.push(a);
                walk_ms.push(w);
                verdict
            } else {
                let v = engine
                    .verify_robustness(&q.image, q.label, q.eps)
                    .map_err(|e| e.to_string())?;
                (margins_of(&v), v.verified, v.stats)
            };
            let took = t.elapsed();
            busy += took;
            run.lat.push(ms(took));
            if ctx.trace.is_some() {
                run.push_call(traced_call, ms(took));
            }
            run.proven += usize::from(verified);
            run.totals.add(&stats);
            run.results.push((q.clone(), margins));
            between(busy)?;
        }
        run.calls = run.results.len();
        run.qps = block_qps(&run.lat, BLOCK);
        run.layer_ms = ctx.trace.is_some().then_some((analysis_ms, walk_ms));
        Ok(run)
    }
}

/// Offline batches of [`BATCH`] distinct queries in a closed loop. A
/// traced run traces every other batch call, so the untraced ones give
/// the tracing overhead. `qps` is the median over calls.
fn batch_loop(
    ctx: &Ctx,
    net: &Network<f32>,
    root: Option<u64>,
    layer: &'static str,
    verify: impl Fn(&[Query<f32>]) -> Vec<Result<RobustnessVerdict<f32>, VerifyError>>,
    between: &mut dyn FnMut(Duration) -> Result<(), String>,
) -> Result<TimedRun, String> {
    let mut rng = Rng::stream(ctx.seed, "mlp_queries");
    let mut run = TimedRun::default();
    let (mut rates, mut busy) = (Vec::new(), Duration::ZERO);
    let window = Duration::from_secs_f64(ctx.seconds);
    // A traced run needs at least one traced and one untraced call.
    let min_calls = if ctx.trace.is_some() { 2 } else { 1 };
    while busy < window || run.calls < min_calls {
        let batch = nets::queries(net, &mut rng, BATCH, MLP_EPS);
        let traced_call = ctx.trace.is_some() && run.calls % 2 == 1;
        let t = Instant::now();
        let verdicts = if traced_call {
            traced(ctx, root, layer, Some(run.calls as u64), || verify(&batch))
        } else {
            verify(&batch)
        };
        let took = t.elapsed();
        busy += took;
        run.calls += 1;
        if ctx.trace.is_some() {
            run.push_call(traced_call, ms(took));
        }
        rates.push(BATCH as f64 / took.as_secs_f64());
        // Every query of an offline batch gets its verdict when the call
        // returns, so each query's latency is the batch's.
        run.lat.extend(std::iter::repeat_n(ms(took), BATCH));
        for (q, v) in batch.into_iter().zip(verdicts) {
            let v = v.map_err(|e| format!("batch query failed: {e}"))?;
            run.proven += usize::from(v.verified);
            run.totals.add(&v.stats);
            run.results.push((q, margins_of(&v)));
        }
        between(busy)?;
    }
    run.qps = median(&rates);
    Ok(run)
}

/// `mlp_batch`: offline batches through `Engine::verify_batch` on a device
/// with the default worker count.
pub struct MlpBatch;

impl Workload for MlpBatch {
    type Subject<'n> = Engine<'n, f32, CpuSimBackend>;
    const NAME: &'static str = "mlp_batch";
    const LAYER: &'static str = "engine";
    const EPS: f32 = MLP_EPS;

    fn net() -> Network<f32> {
        mlp_net()
    }

    fn build(net: &Network<f32>) -> Result<Self::Subject<'_>, VerifyError> {
        let device = Device::new(DeviceConfig::new().name("dev0"));
        Engine::new(device, net, VerifyConfig::default())
    }

    /// The probe's device has one worker: with one per host core, its
    /// searches followed outside load on the host (`complete_p50_ms` from
    /// 685 to 930 ms over ten seeds, IQR 0.22 of the median). The timed
    /// window measures the thread-spawning dispatch.
    fn build_probe(net: &Network<f32>) -> Result<Self::Subject<'_>, VerifyError> {
        let device = Device::new(DeviceConfig::new().workers(1).name("probe"));
        Engine::new(device, net, VerifyConfig::default())
    }

    fn warm(engine: &Self::Subject<'_>, q: &Query<f32>) -> Result<(), String> {
        let v = engine.verify_batch(std::slice::from_ref(q)).pop();
        v.expect("one verdict").map(drop).map_err(|e| e.to_string())
    }

    fn timed(
        ctx: &Ctx,
        net: &Network<f32>,
        engine: &Self::Subject<'_>,
        root: Option<u64>,
        between: &mut dyn FnMut(Duration) -> Result<(), String>,
    ) -> Result<TimedRun, String> {
        batch_loop(
            ctx,
            net,
            root,
            Self::LAYER,
            |b| engine.verify_batch(b),
            between,
        )
    }
}

/// `mlp_hybrid2`: the same batches through `ShardedEngine::new_hybrid` on
/// two single-worker devices with capped memory and a gather cache too
/// small for every remote layer.
pub struct MlpHybrid2;

impl Workload for MlpHybrid2 {
    type Subject<'n> = ShardedEngine<'n, f32, CpuSimBackend>;
    const NAME: &'static str = "mlp_hybrid2";
    const LAYER: &'static str = "sharded";
    const EPS: f32 = MLP_EPS;

    fn net() -> Network<f32> {
        mlp_net()
    }

    fn build(net: &Network<f32>) -> Result<Self::Subject<'_>, VerifyError> {
        let devices = (0..2)
            .map(|i| {
                Device::new(
                    DeviceConfig::new()
                        .workers(1)
                        .memory_capacity(HYBRID_DEVICE_BYTES)
                        .name(format!("dev{i}")),
                )
            })
            .collect();
        let options = EngineOptions {
            gather_cache_bytes: Some(HYBRID_GATHER_CACHE_BYTES),
            ..EngineOptions::default()
        };
        ShardedEngine::new_hybrid(devices, net, VerifyConfig::default(), options)
    }

    fn warm(engine: &Self::Subject<'_>, q: &Query<f32>) -> Result<(), String> {
        let v = engine.verify_batch_sharded(std::slice::from_ref(q)).pop();
        v.expect("one verdict").map(drop).map_err(|e| e.to_string())
    }

    fn timed(
        ctx: &Ctx,
        net: &Network<f32>,
        engine: &Self::Subject<'_>,
        root: Option<u64>,
        between: &mut dyn FnMut(Duration) -> Result<(), String>,
    ) -> Result<TimedRun, String> {
        let verify = |b: &[Query<f32>]| engine.verify_batch_sharded(b);
        batch_loop(ctx, net, root, Self::LAYER, verify, between)
    }
}
