//! `serve_mixed`: an in-process daemon on loopback serving two small
//! models to open-loop Poisson traffic over two multiplexed connections.
//! Mostly fresh `verify`, about a fifth exact repeats of an earlier
//! request (the only analysis-cache hits), a few percent `verify_complete`
//! with a fixed split budget (the daemon's only branch-and-bound use).
//! Requests arrive in short bursts, so the batcher coalesces them.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gpupoly::core::{CompleteVerdict, Engine, Query, RefineBudget, VerifyConfig};
use gpupoly::device::{CpuSimBackend, Device, DeviceConfig};
use gpupoly::nn::{store, Network, Shape};
use gpupoly::serve::protocol::{frame_with_id, reply_id, CompleteStatus, Reply, Request};
use gpupoly::serve::{Server, ServerConfig, ServerHandle, WorkError, WorkOutput, WorkReply};

use serde::Deserialize;

use crate::common::{median, ms, percentile, DevSnap, Rng};
use crate::engine_workloads::{
    check_complete, latency_metrics, layer_probe, setup_metrics, sharded_metrics, trace_overhead,
    traced, warm_up_query, AnalysisTotals, Root, SetupTimes, COMPLETE_EPS_FACTOR, COMPLETE_SPLITS,
    GATE_SAMPLE, SETUP_REPEATS,
};
use crate::gate::{sample, Gate, Margins};
use crate::{nets, Ctx, Outcome};

/// The served models. `mlp_complete` is the MLP again under its own name:
/// complete-mode requests go there, so a branch-and-bound search has its
/// own batcher worker and plain requests never queue behind one. (Sharing
/// the MLP's worker, the verify tail was set by where the few searches
/// happened to land: p90 and p99 spread 0.2-0.5 of their median over ten
/// seeds.)
const MODELS: [&str; 3] = ["mlp_small", "conv_small", "mlp_complete"];
const COMPLETE_MODEL: usize = 2;
/// Share of plain requests addressed to the MLP; the conv net gets the
/// rest.
const MLP_SHARE: f64 = 0.8;
const REPEAT_SHARE: f64 = 0.2;
const COMPLETE_SHARE: f64 = 0.06;
/// Requests per arrival: each connection's Poisson arrivals each carry
/// this many consecutive requests, sent back to back, so the MLP's batcher
/// often sees two queries inside its batching window (`registry.mean_batch`
/// about 1.5, 60% of batches fused, against 1.1 with single arrivals).
/// Requests of one burst share their fate, so larger bursts leave fewer
/// independent samples in the latency tail: with 4, `latency_p90_ms`
/// spread up to 0.22 of its median over ten seeds, against 0.07 with 2.
const BURST: usize = 2;
/// A repeat copies one of the last this-many fresh requests of its
/// connection, so the analysis cache (64 entries) still holds it.
const REPEAT_WINDOW: usize = 16;
const EPS: [f32; 3] = [0.05, 0.03, 0.05];
const CONNECTIONS: usize = 2;
/// Device workers of the daemon's one device. With one worker a launch
/// runs on the calling model worker's thread; with two, every launch of
/// either model spawns threads that contend for the same two cores, and
/// `latency_p50_ms` spread 0.49 (IQR over median) across four seeds on a
/// 2-core host, against 0.001 with one.
const SERVE_WORKERS: usize = 1;
/// In a traced run every `DIRECT_EVERY`-th plain request goes straight to
/// `Registry::submit` instead of over the wire.
const DIRECT_EVERY: usize = 4;
/// How long to wait for the last replies once the schedule is sent.
const DRAIN: Duration = Duration::from_secs(30);

fn serve_nets() -> [Network<f32>; 3] {
    let seed = nets::NET_SEED;
    let mlp = || nets::mlp(seed, "serve_mlp", 12, 32, 2);
    [
        mlp(),
        nets::small_conv(seed, Shape::new(6, 6, 1), 4, 8),
        mlp(),
    ]
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Fresh,
    Repeat,
    Complete,
}

#[derive(Clone, Debug)]
struct Planned {
    id: u64,
    conn: usize,
    due: Duration,
    model: usize,
    kind: Kind,
    query: Query<f32>,
    direct: bool,
}

/// The seeded schedule of one run. Each connection carries a Poisson
/// stream of `rate / (CONNECTIONS·BURST)` arrivals conditioned on its
/// count (sorted uniform times in `[0, T)`), and each arrival carries
/// `BURST` requests: `rate·T / CONNECTIONS` requests per connection. The
/// mix is exact per connection and shuffled: `COMPLETE_SHARE` complete
/// requests (all on `mlp_complete`), `REPEAT_SHARE` repeats, `MLP_SHARE`
/// of the plain requests on the MLP.
fn schedule(ctx: &Ctx, nets: &[Network<f32>; 3]) -> Vec<Planned> {
    let per_conn = (ctx.serve_rate * ctx.seconds / CONNECTIONS as f64)
        .round()
        .max(1.0) as usize;
    let share = |f: f64| (f * per_conn as f64).round() as usize;
    let mut plan = Vec::new();
    for conn in 0..CONNECTIONS {
        let mut rng = Rng::stream(ctx.seed, &format!("serve_conn{conn}"));
        let mut arrivals: Vec<f64> = (0..per_conn.div_ceil(BURST))
            .map(|_| rng.unit() * ctx.seconds)
            .collect();
        arrivals.sort_by(f64::total_cmp);
        let times = (0..per_conn).map(|k| arrivals[k / BURST]);
        let n_complete = share(COMPLETE_SHARE);
        let n_repeat = share(REPEAT_SHARE);
        let n_plain = per_conn - n_complete;
        let n_conv = ((1.0 - MLP_SHARE) * n_plain as f64).round() as usize;
        // (kind, model) slots with exact counts, then shuffled.
        let mut slots: Vec<(Kind, usize)> = Vec::with_capacity(per_conn);
        slots.extend(std::iter::repeat_n(
            (Kind::Complete, COMPLETE_MODEL),
            n_complete,
        ));
        for i in 0..n_plain {
            let kind = if i < n_repeat {
                Kind::Repeat
            } else {
                Kind::Fresh
            };
            slots.push((kind, 0));
        }
        shuffle(&mut slots, &mut rng);
        // Models of the plain slots, shuffled independently of their kind.
        let mut models: Vec<usize> = (0..n_plain).map(|i| usize::from(i < n_conv)).collect();
        shuffle(&mut models, &mut rng);
        let mut models = models.into_iter();
        for s in slots.iter_mut().filter(|s| s.0 != Kind::Complete) {
            s.1 = models.next().expect("one model per plain slot");
        }
        let mut history: [Vec<Query<f32>>; 2] = [Vec::new(), Vec::new()];
        let mut plain = 0usize;
        for (k, (t, (mut kind, model))) in times.zip(slots).enumerate() {
            if kind == Kind::Repeat && history[model].is_empty() {
                kind = Kind::Fresh;
            }
            let query = match kind {
                Kind::Complete => {
                    let mut q = nets::queries(&nets[model], &mut rng, 1, EPS[model]).remove(0);
                    q.eps *= COMPLETE_EPS_FACTOR;
                    q
                }
                Kind::Repeat => {
                    let hist = &history[model];
                    let from = hist.len().saturating_sub(REPEAT_WINDOW);
                    hist[from + rng.below(hist.len() - from)].clone()
                }
                Kind::Fresh => {
                    let q = nets::queries(&nets[model], &mut rng, 1, EPS[model]).remove(0);
                    history[model].push(q.clone());
                    q
                }
            };
            let direct = ctx.trace.is_some() && kind != Kind::Complete && {
                plain += 1;
                plain.is_multiple_of(DIRECT_EVERY)
            };
            plan.push(Planned {
                id: (conn as u64) << 32 | k as u64,
                conn,
                due: Duration::from_secs_f64(t),
                model,
                kind,
                query,
                direct,
            });
        }
    }
    plan
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// What came back for one request.
#[derive(Clone, Debug)]
enum Answer {
    Plain(Margins, bool, Option<gpupoly::core::AnalysisStats>),
    Complete(CompleteVerdict<f64>),
    Failed(String),
}

#[derive(Clone, Debug)]
struct Got {
    sent: Duration,
    replied: Duration,
    answer: Answer,
}

fn request_of(p: &Planned) -> Request {
    let q = &p.query;
    let model = MODELS[p.model].to_string();
    match p.kind {
        Kind::Complete => Request::VerifyComplete {
            model,
            image: q.image.clone(),
            label: q.label,
            eps: q.eps,
            max_splits: Some(COMPLETE_SPLITS),
            deadline_ms: None,
        },
        _ => Request::Verify {
            model,
            image: q.image.clone(),
            label: q.label,
            eps: q.eps,
        },
    }
}

fn answer_of_reply(reply: Reply) -> Answer {
    match reply {
        Reply::Verdict {
            verified, margins, ..
        } => Answer::Plain(
            margins
                .iter()
                .map(|m| (m.adversary, m.lower, m.proven))
                .collect(),
            verified,
            None,
        ),
        Reply::Complete {
            status,
            splits,
            frontier_remaining,
            counterexample,
            adversary,
            ..
        } => Answer::Complete(match status {
            CompleteStatus::Proven => CompleteVerdict::Proven { base: None, splits },
            CompleteStatus::Falsified => CompleteVerdict::Falsified {
                counterexample: counterexample.unwrap_or_default(),
                adversary: adversary.unwrap_or(0),
                splits,
            },
            CompleteStatus::Unknown => CompleteVerdict::Unknown {
                base: gpupoly::core::RobustnessVerdict {
                    verified: false,
                    margins: Vec::new(),
                    stats: Default::default(),
                },
                splits_exhausted: splits,
                frontier_remaining: frontier_remaining as usize,
            },
        }),
        Reply::Error { code, message } => Answer::Failed(format!("{}: {message}", code.as_str())),
        other => Answer::Failed(format!("unexpected reply {other:?}")),
    }
}

fn answer_of_work(reply: Result<WorkReply, mpsc::RecvError>) -> Answer {
    match reply {
        Ok(Ok(WorkOutput::Plain(v))) => Answer::Plain(
            v.margins
                .iter()
                .map(|m| (m.adversary, m.lower, m.proven))
                .collect(),
            v.verified,
            Some(v.stats),
        ),
        Ok(Ok(WorkOutput::Complete(v))) => Answer::Complete(v),
        Ok(Err(WorkError::Verify(e))) => Answer::Failed(e.to_string()),
        Ok(Err(e)) => Answer::Failed(format!("{e:?}")),
        Err(_) => Answer::Failed("reply channel closed".to_string()),
    }
}

/// One set-up: model files, daemon, two connections, one warm-up query per
/// model (which loads it). Returns the daemon, the connections and the
/// set-up times.
fn set_up(
    ctx: &Ctx,
    root: Option<u64>,
    dir: &Path,
) -> Result<(ServerHandle<CpuSimBackend>, Vec<TcpStream>, SetupTimes), String> {
    let t = Instant::now();
    traced(ctx, root, "nn", None, || -> Result<(), String> {
        for (name, net) in MODELS.iter().zip(serve_nets()) {
            store::save(dir, name, &net).map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;
    let t_nn = ms(t.elapsed());
    let t_e = Instant::now();
    let handle = traced(ctx, root, "registry", None, || {
        let cfg = ServerConfig {
            workers: Some(SERVE_WORKERS),
            ..ServerConfig::new(dir)
        };
        Server::<CpuSimBackend>::bind("127.0.0.1:0", cfg).map(Server::spawn)
    })
    .map_err(|e| format!("bind: {e}"))?;
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        let s = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).ok();
        s.set_read_timeout(Some(DRAIN)).ok();
        conns.push(s);
    }
    let nets = serve_nets();
    let mut reader = BufReader::new(conns[0].try_clone().map_err(|e| e.to_string())?);
    for (m, net) in nets.iter().enumerate() {
        let q = warm_up_query(net, EPS[m]);
        let req = Request::Verify {
            model: MODELS[m].to_string(),
            image: q.image,
            label: q.label,
            eps: q.eps,
        };
        traced(ctx, root, "wire", None, || -> Result<(), String> {
            let line = serde_json::to_string(&req).map_err(|e| e.to_string())?;
            writeln!(&conns[0], "{line}").map_err(|e| e.to_string())?;
            let mut reply = String::new();
            reader.read_line(&mut reply).map_err(|e| e.to_string())?;
            match Reply::from_value(&serde_json::from_str(&reply).map_err(|e| e.to_string())?) {
                Ok(Reply::Verdict { .. }) => Ok(()),
                other => Err(format!("warm-up failed: {other:?}")),
            }
        })?;
    }
    let t_eng = ms(t_e.elapsed());
    Ok((handle, conns, (t_nn, t_eng, t.elapsed().as_secs_f64())))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let root = Root::open(ctx);
    let work = PathBuf::from(format!("perfbench/out/work-{}", std::process::id()));
    let result = run_in(ctx, &root, &work);
    let _ = std::fs::remove_dir_all(&work);
    root.close(ctx);
    result
}

fn run_in(ctx: &Ctx, root: &Root, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome {
        devices: 1,
        ..Outcome::default()
    };
    let mut times = Vec::new();
    let mut kept = None;
    for k in 0..SETUP_REPEATS {
        let dir = work.join(format!("models{k}"));
        let (handle, conns, t) = set_up(ctx, root.id(), &dir)?;
        times.push(t);
        if let Some((old, old_conns)) = kept.replace((handle, conns)) {
            drop(old_conns);
            ServerHandle::shutdown(old);
        }
    }
    setup_metrics(&times, &mut out.metrics);
    let (handle, conns) = kept.expect("at least one set-up");
    let registry = handle.registry().clone();
    let device = registry.device().clone();
    out.workers_per_device = device.workers();
    let nets = serve_nets();
    let plan = schedule(ctx, &nets);

    let stats_before = registry.model_stats();
    let dev_before = DevSnap::take(&device);
    let replies: Arc<Mutex<BTreeMap<u64, Vec<Got>>>> = Arc::default();
    let depth_samples: Arc<Mutex<Vec<f64>>> = Arc::default();
    let sending_done = Arc::new(AtomicBool::new(false));
    let epoch = Instant::now();

    std::thread::scope(|scope| -> Result<(), String> {
        // Queue-depth sampler (traced runs only): in-process snapshots.
        if ctx.trace.is_some() {
            let (registry, depth, done) = (&registry, depth_samples.clone(), sending_done.clone());
            scope.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let d: u64 = registry.model_stats().iter().map(|s| s.queue_depth).sum();
                    depth.lock().expect("sampler lock").push(d as f64);
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        // Direct submissions are answered on per-request channels; one
        // collector receives them in submission order.
        let (direct_tx, direct_rx) = mpsc::channel::<(u64, Duration, Receiver<WorkReply>)>();
        {
            let replies = replies.clone();
            scope.spawn(move || {
                for (id, sent, rx) in direct_rx {
                    let answer = answer_of_work(rx.recv());
                    let got = Got {
                        sent,
                        replied: epoch.elapsed(),
                        answer,
                    };
                    replies
                        .lock()
                        .expect("reply lock")
                        .entry(id)
                        .or_default()
                        .push(got);
                }
            });
        }
        let mut senders = Vec::new();
        for (c, stream) in conns.iter().enumerate() {
            let mine: Vec<&Planned> = plan.iter().filter(|p| p.conn == c).collect();
            let expected = mine.iter().filter(|p| !p.direct).count();
            let due: BTreeMap<u64, Duration> = mine.iter().map(|p| (p.id, p.due)).collect();
            let reader = stream.try_clone().map_err(|e| e.to_string())?;
            let replies = replies.clone();
            let (tracer, root_id) = (ctx.trace.as_ref(), root.id());
            scope.spawn(move || {
                let mut reader = BufReader::new(reader);
                let mut line = String::new();
                for _ in 0..expected {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(n) if n > 0 => {}
                        _ => break,
                    }
                    let Ok(value) = serde_json::from_str::<serde::Value>(&line) else {
                        continue;
                    };
                    let Some(id) = reply_id(&value) else { continue };
                    // A traced run records a wire span, live, for the odd
                    // ids only, and stamps their reply after the recording:
                    // the odd half carries the tracing cost, the even half
                    // is the untraced reference.
                    if let (Some(t), 1, Some(&due)) = (tracer, id % 2, due.get(&id)) {
                        t.record(
                            t.id(),
                            root_id,
                            "wire",
                            Some(id),
                            epoch + due,
                            Instant::now(),
                        );
                    }
                    let replied = epoch.elapsed();
                    let answer = match Reply::from_value(&value) {
                        Ok(r) => answer_of_reply(r),
                        Err(e) => Answer::Failed(e.to_string()),
                    };
                    let mut map = replies.lock().expect("reply lock");
                    let got = Got {
                        sent: Duration::ZERO,
                        replied,
                        answer,
                    };
                    map.entry(id).or_default().push(got);
                }
            });
            let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
            let (registry, direct_tx) = (&registry, direct_tx.clone());
            senders.push(scope.spawn(move || -> Vec<(u64, Duration)> {
                let mut sent = Vec::with_capacity(mine.len());
                for p in mine {
                    if let Some(wait) = p.due.checked_sub(epoch.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let at = epoch.elapsed();
                    sent.push((p.id, at));
                    if p.direct {
                        let q = &p.query;
                        match registry.submit(MODELS[p.model], q.image.clone(), q.label, q.eps) {
                            Ok(rx) => {
                                let _ = direct_tx.send((p.id, at, rx));
                            }
                            Err(e) => {
                                let (tx, rx) = mpsc::channel();
                                let _ = tx.send(Err(WorkError::Verify(
                                    gpupoly::core::VerifyError::Internal(format!("{e:?}")),
                                )));
                                let _ = direct_tx.send((p.id, at, rx));
                            }
                        }
                    } else {
                        let frame = frame_with_id(&request_of(p), Some(p.id));
                        let line = serde_json::to_string(&frame).expect("frames serialize");
                        if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
                            break;
                        }
                    }
                }
                sent
            }));
        }
        drop(direct_tx);
        let mut sent_at = BTreeMap::new();
        for s in senders {
            for (id, at) in s.join().expect("sender thread") {
                sent_at.insert(id, at);
            }
        }
        sending_done.store(true, Ordering::Release);
        // Readers end after their expected count or at the read timeout.
        let mut map = replies.lock().expect("reply lock");
        for (id, gots) in map.iter_mut() {
            for g in gots.iter_mut() {
                if g.sent == Duration::ZERO {
                    g.sent = sent_at.get(id).copied().unwrap_or_default();
                }
            }
        }
        Ok(())
    })?;
    let dev_after = DevSnap::take(&device);
    let replies = Arc::try_unwrap(replies)
        .map_err(|_| "reply map still shared".to_string())?
        .into_inner()
        .map_err(|_| "reply lock poisoned".to_string())?;

    // Quiescence: every admission gauge must come back to zero once every
    // reply is out. Eviction pins are not in any public snapshot; they are
    // taken before the enqueue and released on the same reply path as
    // `in_flight` and `pending_cost_us`. The device pool's load gauge is
    // reported, not gated: the registry charges it only after a successful
    // enqueue, so a worker that answers first leaves a residue.
    let mut gates: Vec<Gate<'_>> = nets.iter().map(|n| Gate::new(n, ctx.seed)).collect();
    let settle = Instant::now();
    let busy = |s: &[gpupoly::serve::protocol::ModelStatsWire]| {
        s.iter()
            .any(|m| m.in_flight + m.queue_depth + m.pending_cost_us > 0)
    };
    while busy(&registry.model_stats()) && settle.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats_after = registry.model_stats();
    if busy(&stats_after) {
        gates[0].fail(format!("daemon did not return to idle: {stats_after:?}"));
    }

    // Every request id gets exactly one reply.
    let mut plain_lat = Vec::new();
    let (mut wire_rt, mut direct_rt) = (Vec::new(), Vec::new());
    let (mut untraced_lat, mut traced_lat) = (Vec::new(), Vec::new());
    let mut complete_lat = Vec::new();
    let mut late = Vec::new();
    let (mut proven, mut failed, mut completed) = (0usize, 0usize, 0usize);
    let mut last_reply = Duration::ZERO;
    let mut checked_plain: Vec<Vec<(Query<f32>, Margins)>> = vec![Vec::new(); MODELS.len()];
    let mut analysis = AnalysisTotals::default();
    let mut direct_n = 0usize;
    let mut complete_splits = 0u64;
    for p in &plan {
        let gots = replies.get(&p.id).map(Vec::as_slice).unwrap_or(&[]);
        if gots.len() != 1 {
            gates[0].fail(format!("request {} got {} replies", p.id, gots.len()));
            failed += 1;
            continue;
        }
        let g = &gots[0];
        late.push(ms(g.sent.saturating_sub(p.due)));
        last_reply = last_reply.max(g.replied);
        let lat = ms(g.replied.saturating_sub(p.due));
        match &g.answer {
            Answer::Failed(why) => {
                if failed == 0 {
                    eprintln!("perfbench: request {} failed: {why}", p.id);
                }
                failed += 1;
            }
            Answer::Plain(margins, verified, stats) => {
                completed += 1;
                proven += usize::from(*verified);
                if p.direct {
                    direct_rt.push(ms(g.replied.saturating_sub(g.sent)));
                    direct_n += 1;
                    if let Some(s) = stats {
                        analysis.add(s);
                    }
                } else {
                    plain_lat.push(lat);
                    wire_rt.push(ms(g.replied.saturating_sub(g.sent)));
                    // Odd ids are the traced half of a traced run.
                    if p.id % 2 == 1 {
                        &mut traced_lat
                    } else {
                        &mut untraced_lat
                    }
                    .push(lat);
                }
                if p.direct {
                    if let Some(t) = &ctx.trace {
                        t.record(
                            t.id(),
                            root.id(),
                            "registry",
                            Some(p.id),
                            epoch + g.sent,
                            epoch + g.replied,
                        );
                    }
                }
                checked_plain[p.model].push((p.query.clone(), margins.clone()));
            }
            Answer::Complete(v) => {
                completed += 1;
                proven += usize::from(v.is_proven());
                complete_lat.push(lat);
                complete_splits += v.splits();
                check_complete(&mut gates[p.model], &p.query, v);
                if complete_lat.len() > GATE_SAMPLE / 2 {
                    continue;
                }
                let budget = RefineBudget::with_max_splits(COMPLETE_SPLITS);
                match gates[p.model]
                    .oracle_engine()
                    .verify_complete(&p.query, &budget)
                {
                    Ok(want) => {
                        let want = want.widen();
                        let same = want.is_proven() == v.is_proven()
                            && want.is_falsified() == v.is_falsified()
                            && want.splits() == v.splits();
                        if !same {
                            gates[p.model].fail(format!(
                                "complete request {}: daemon says {v:?}, sequential oracle {want:?}",
                                p.id
                            ));
                        }
                    }
                    Err(e) => gates[p.model].fail(format!("complete oracle failed: {e}")),
                }
            }
        }
    }
    let attempted = plan.len();

    // Bit-identity and concrete-point checks on a sample of each model's
    // verdicts (the self-test hook perturbs the first sampled margin).
    let mut rng = Rng::stream(ctx.seed, "gate_sample");
    for (m, results) in checked_plain.iter_mut().enumerate() {
        for (k, i) in sample(results.len(), GATE_SAMPLE, &mut rng)
            .into_iter()
            .enumerate()
        {
            let (q, got) = &mut results[i];
            if ctx.perturb && m == 0 && k == 0 {
                if let Some(x) = got.first_mut() {
                    x.1 = f32::from_bits(x.1.to_bits() ^ 1);
                }
            }
            gates[m].check("serve_mixed", q, got);
        }
    }

    latency_metrics(&plain_lat, &mut out);
    let m = &mut out.metrics;
    m.set(
        "qps",
        completed as f64 / last_reply.as_secs_f64().max(1e-9),
        "queries/s",
    );
    m.set("complete_p50_ms", median(&complete_lat), "ms");
    m.set("proven_frac", proven as f64 / attempted as f64, "ratio");
    m.set("error_frac", failed as f64 / attempted as f64, "ratio");
    m.set(
        "peak_device_mb",
        device.peak_memory() as f64 / (1 << 20) as f64,
        "MB",
    );
    out.samples.insert("complete", complete_lat.len());
    out.samples.insert("direct", direct_n);
    out.attempted = attempted as u64;
    out.failed = failed as u64;

    // Per-layer counters from the registry's snapshots (deltas over the
    // window, summed over both models).
    let sum = |f: fn(&gpupoly::serve::protocol::ModelStatsWire) -> u64| -> f64 {
        let a: u64 = stats_after.iter().map(f).sum();
        let b: u64 = stats_before.iter().map(f).sum();
        a.saturating_sub(b) as f64
    };
    let batches = sum(|s| s.batches).max(1.0);
    m.set(
        "registry.mean_batch",
        sum(|s| s.batch_items) / batches,
        "count",
    );
    m.set(
        "registry.fused_batch_frac",
        sum(|s| s.fused_batches) / batches,
        "ratio",
    );
    m.set(
        "registry.rejected_overload",
        sum(|s| s.rejected_overload),
        "count",
    );
    m.set(
        "registry.expired_dropped",
        sum(|s| s.expired_dropped),
        "count",
    );
    let depth = depth_samples.lock().expect("sampler lock").clone();
    m.set(
        "registry.queue_depth_p99",
        if depth.is_empty() {
            0.0
        } else {
            percentile(&depth, 0.99)
        },
        "count",
    );
    let hits = sum(|s| s.cache_hits);
    let lookups = hits + sum(|s| s.cache_misses);
    m.set("engine.cache_hit_ratio", hits / lookups.max(1.0), "ratio");
    let resident: u64 = stats_after.iter().map(|s| s.resident_bytes).sum();
    m.set("engine.resident_kb", resident as f64 / 1024.0, "KiB");
    let n_complete = complete_lat.len().max(1) as f64;
    m.set(
        "bnb.splits_per_complete",
        complete_splits as f64 / n_complete,
        "count",
    );
    m.set(
        "bnb.frontier_peak",
        stats_after
            .iter()
            .map(|s| s.frontier_peak)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    m.set(
        "bnb.proven_by_split_frac",
        sum(|s| s.proven_by_split) / n_complete,
        "ratio",
    );
    m.set("bnb.cex_found", sum(|s| s.cex_found), "count");
    let delta = dev_after.minus(&dev_before);
    delta.report(completed.max(1) as f64, m);
    // The daemon serves from one unsharded device: no gathers.
    sharded_metrics(
        [0; 3],
        &delta,
        &[delta.flops],
        batches,
        completed.max(1) as f64,
        m,
    );
    analysis.report(direct_n.max(1) as f64, m);
    let submit_p50 = if direct_rt.is_empty() {
        0.0
    } else {
        median(&direct_rt)
    };
    m.set("registry.submit_ms_p50", submit_p50, "ms");
    m.set(
        "wire.overhead_ms_p50",
        if direct_rt.is_empty() {
            0.0
        } else {
            median(&wire_rt) - submit_p50
        },
        "ms",
    );
    let residue: u64 = (0..registry.pool().len())
        .map(|i| registry.pool().load(i))
        .sum();
    m.set("registry.pool_load_residue", residue as f64, "count");
    m.set("loadgen.late_ms_p99", percentile(&late, 0.99), "ms");
    m.set("loadgen.sent", attempted as f64, "count");
    m.set("loadgen.completed", completed as f64, "count");
    m.set("loadgen.failed", failed as f64, "count");
    if ctx.trace.is_some() {
        trace_overhead(&untraced_lat, &traced_lat, m);
    }

    drop(conns);
    handle.shutdown();

    if let Some(tracer) = &ctx.trace {
        // The daemon's engines are private to their workers: probe the
        // MLP on an engine of its own.
        let probe = Engine::new(
            Device::new(DeviceConfig::new().workers(SERVE_WORKERS)),
            &nets[0],
            VerifyConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        layer_probe(ctx, &nets[0], &probe, EPS[0], m)?;
        crate::replay::run(&nets[1], out.workers_per_device, ctx.seed, tracer, m);
    }
    out.checked = gates.iter().map(|g| g.checked).sum();
    out.violations = gates
        .iter_mut()
        .flat_map(|g| std::mem::take(&mut g.violations))
        .collect();
    Ok(out)
}
