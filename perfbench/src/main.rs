//! `perfbench`: the repository's benchmark. One command runs one seeded
//! workload through the public API and prints every end-to-end metric with
//! its unit (`--trace 0`), or the per-layer metrics of a traced run
//! (`--trace 1`), after a correctness gate. See `README.md` next to this
//! crate for the workloads, the metric map and how to run it.

mod common;
mod engine_workloads;
mod gate;
mod nets;
mod replay;
mod serve_mixed;

use std::collections::BTreeMap;
use std::process::ExitCode;

use common::{Metrics, Tracer};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("qps", "queries/s"),
    ("latency_p50_ms", "ms"),
    ("proven_frac", "ratio"),
    ("peak_device_mb", "MB"),
];

/// End-to-end figures that carry no bound: untraced runs print them on
/// their `unbounded` line, traced runs with the per-layer metrics. A bound
/// holds for every workload alike, and on `serve_mixed` these follow how
/// busy the shared host is, amplified, on a 2-core host:
/// - `latency_p99_ms`: a 20-s run has about 11 requests beyond it, so
///   200 ms of host CPU steal moves it (IQR 0.3-0.5 of its median over
///   five seeds).
/// - `latency_p90_ms`: when outside load slowed `latency_p50_ms` by 15%,
///   p90 rose by 50% (queueing), and it spread 0.14-0.29 of its median
///   over sets of five and ten seeds. On `resnet_single` it moves with the
///   bounded `latency_p50_ms`.
/// - `complete_p50_ms`: a search of about 20 ms in a process that is
///   otherwise mostly idle spread 0.42 of its median over ten seeds in a
///   busy hour (0.13-0.15 in quiet ones); with no plain traffic beside it
///   the searches were slower still (31 against 20 ms) and spread 0.32.
pub const UNBOUNDED: [&str; 3] = ["latency_p90_ms", "latency_p99_ms", "complete_p50_ms"];

/// Per-layer metrics, printed by every traced run; the first three are the
/// [`UNBOUNDED`] end-to-end figures.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("latency_p90_ms", "ms"),
        ("latency_p99_ms", "ms"),
        ("complete_p50_ms", "ms"),
        ("nn.build_ms", "ms"),
        ("engine.new_ms", "ms"),
        ("engine.resident_kb", "KiB"),
        ("engine.cache_hit_ratio", "ratio"),
        ("analysis.ms_per_query", "ms"),
        ("analysis.rows_refined_per_query", "count"),
        ("analysis.rows_skipped_stable_per_query", "count"),
        ("analysis.chunks_per_query", "count"),
        ("analysis.chunk_shrinks", "count"),
        ("walk.spec_ms_per_query", "ms"),
        ("walk.rows_stopped_early_per_query", "count"),
        ("device.launches_per_query", "count"),
        ("device.flops_per_query", "flop"),
        ("device.bytes_per_query", "B"),
        ("device.pool_hit_ratio", "ratio"),
        ("device.alloc_bytes_per_query", "B"),
        ("device.gemm_itv_f.gflops", "GFLOP/s"),
        ("device.gbc.gflops", "GFLOP/s"),
        ("sharded.gather_hits_per_batch", "count"),
        ("sharded.gather_misses_per_batch", "count"),
        ("sharded.gather_evictions_per_batch", "count"),
        ("sharded.comms_bytes_per_query", "B"),
        ("sharded.busiest_device_flops_share", "ratio"),
        ("bnb.splits_per_complete", "count"),
        ("bnb.frontier_peak", "count"),
        ("bnb.proven_by_split_frac", "ratio"),
        ("bnb.cex_found", "count"),
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
        ("error_frac", "ratio"),
        ("trace.untraced_p50_ms", "ms"),
        ("trace.traced_p50_ms", "ms"),
        ("trace.overhead_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for g in common::LABEL_GROUPS {
        v.push((format!("device.{g}.launches_per_query"), "count"));
        v.push((format!("device.{g}.flops_per_query"), "flop"));
        v.push((format!("device.{g}.bytes_per_query"), "B"));
    }
    for layer in SELF_TIME_LAYERS {
        v.push((format!("self_ms.{layer}"), "ms"));
    }
    v
}

/// Span names whose self time the traced run reports (ms per run).
pub const SELF_TIME_LAYERS: [&str; 9] = [
    "bench", "nn", "engine", "analysis", "walk", "sharded", "registry", "wire", "replay",
];

pub const WORKLOADS: [&str; 4] = ["resnet_single", "mlp_batch", "mlp_hybrid2", "serve_mixed"];

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<Tracer>,
    /// Self-test hook: flip the lowest bit of one reported margin before
    /// the correctness gate sees it. The gate must then fail the run.
    pub perturb: bool,
    /// Open-loop arrival rate of `serve_mixed`, requests/s.
    pub serve_rate: f64,
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub checked: usize,
    pub samples: BTreeMap<&'static str, usize>,
    pub workers_per_device: usize,
    pub devices: usize,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    host_nproc: Option<usize>,
    serve_rate: f64,
    perturb: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        host_nproc: None,
        serve_rate: 60.0,
        perturb: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |s: String| s.parse::<f64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = num(val()?)?,
            "--trace" => a.trace = val()? == "1",
            "--host-nproc" => a.host_nproc = Some(num(val()?)? as usize),
            "--serve-rate" => a.serve_rate = num(val()?)?,
            "--perturb-margin" => a.perturb = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if !positive(a.seconds) || !positive(a.serve_rate) {
        return Err("--seconds and --serve-rate must be positive".to_string());
    }
    Ok(a)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace.then(Tracer::new),
        perturb: args.perturb,
        serve_rate: args.serve_rate,
    };
    let result = match args.workload.as_str() {
        "resnet_single" => engine_workloads::drive::<engine_workloads::ResnetSingle>(&ctx),
        "mlp_batch" => engine_workloads::drive::<engine_workloads::MlpBatch>(&ctx),
        "mlp_hybrid2" => engine_workloads::drive::<engine_workloads::MlpHybrid2>(&ctx),
        _ => serve_mixed::run(&ctx),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if !out.violations.is_empty() {
        eprintln!(
            "perfbench: correctness gate failed on {} ({} verdicts checked):",
            args.workload, out.checked
        );
        for v in &out.violations {
            eprintln!("  {v}");
        }
        return ExitCode::from(1);
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host {{\"nproc\":{nproc},\"recorded_nproc\":{},\"comparable\":{},\"backend\":\"cpusim\",\
         \"workers_per_device\":{},\"devices\":{},\"seed\":{},\"git_rev\":\"{}\",\"rustc\":\"{}\"}}",
        args.host_nproc.map_or("null".to_string(), |n| n.to_string()),
        args.host_nproc == Some(nproc),
        out.workers_per_device,
        out.devices,
        args.seed,
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"]),
    );
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!(
        "samples {{{},\"gate_checked\":{}}}",
        samples.join(","),
        out.checked
    );

    if ctx.trace.is_none() {
        let unbounded: Vec<String> = UNBOUNDED
            .iter()
            .filter_map(|name| {
                let (v, unit) = out.metrics.0.get(*name)?;
                Some(format!(
                    "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
                ))
            })
            .collect();
        println!("unbounded {{{}}}", unbounded.join(","));
    }
    let wanted: Vec<(String, &str)> = if let Some(tracer) = &ctx.trace {
        let spans = tracer.spans();
        let selfs = common::self_times(&spans);
        for layer in SELF_TIME_LAYERS {
            out.metrics.set(
                &format!("self_ms.{layer}"),
                selfs.get(layer).copied().unwrap_or(0.0),
                "ms",
            );
        }
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.jsonl",
            args.workload, args.seed
        ));
        match common::write_spans(&path, &spans) {
            Ok(()) => println!("spans {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };

    let mut fields = Vec::with_capacity(wanted.len());
    for (name, unit) in &wanted {
        match out.metrics.0.get(name) {
            Some(&(v, u)) if v.is_finite() && u == *unit => fields.push(format!(
                "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
            )),
            other => {
                eprintln!("perfbench: metric {name} ({unit}) was not measured as such: {other:?}");
                return ExitCode::from(1);
            }
        }
    }
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(",")
    );
    ExitCode::SUCCESS
}
