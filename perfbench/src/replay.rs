//! Kernel replay of the traced run: times `gemm::gemm_itv_f` and
//! `kernels::gbc` on a workload's own layer shapes and reports GFLOP/s
//! from the library's analytic flop counts. Measured on the CPU simulator
//! backend; the numbers say nothing about a GPU.

use std::time::{Duration, Instant};

use gpupoly::device::{gemm, kernels, Device, DeviceConfig, ExprGeom, GbcShape};
use gpupoly::interval::Itv;
use gpupoly::nn::{Network, Op};

use crate::common::{median, Metrics, Rng, Tracer};

/// Backsubstitution rows each replayed launch carries.
const ROWS: usize = 64;
/// Wall time each kernel family is replayed for.
const BUDGET: Duration = Duration::from_millis(400);

/// One transpose-convolution launch: the conv geometry plus its padding
/// and output extent (rows are every output neuron, 1×1 windows — the
/// first backsubstitution step through the layer).
struct ConvCase {
    shape: GbcShape,
    pad: (usize, usize),
    out: (usize, usize),
}

/// GEMM shapes `(m, k, n)` of the dense layers and GBC geometries of the
/// conv layers of `net`. A network without convolutions replays its dense
/// layers as 1×1 convolutions over a 1×1 image, which is the same
/// contraction in GBC form.
fn shapes(net: &Network<f32>) -> (Vec<(usize, usize, usize)>, Vec<ConvCase>) {
    let graph = net.graph();
    let mut gemms = Vec::new();
    let mut convs = Vec::new();
    for node in &graph.nodes {
        match node.op {
            Op::Dense(d) => gemms.push((ROWS, d.out_len, d.in_len)),
            Op::Conv(c) => convs.push(ConvCase {
                shape: GbcShape {
                    kh: c.kh,
                    kw: c.kw,
                    sh: c.sh,
                    sw: c.sw,
                    cout: c.out_shape.c,
                    cin: c.in_shape.c,
                    in_h: c.in_shape.h,
                    in_w: c.in_shape.w,
                },
                pad: (c.ph, c.pw),
                out: (c.out_shape.h, c.out_shape.w),
            }),
            _ => {}
        }
    }
    if convs.is_empty() {
        convs = gemms
            .iter()
            .map(|&(_, out, inp)| ConvCase {
                shape: GbcShape {
                    kh: 1,
                    kw: 1,
                    sh: 1,
                    sw: 1,
                    cout: out,
                    cin: inp,
                    in_h: 1,
                    in_w: 1,
                },
                pad: (0, 0),
                out: (1, 1),
            })
            .collect();
    }
    (gemms, convs)
}

fn itvs(rng: &mut Rng, n: usize) -> Vec<Itv<f32>> {
    (0..n)
        .map(|_| {
            let a = rng.range(-1.0, 1.0) as f32;
            Itv::new(a, a + 0.01 + rng.unit() as f32 * 0.1)
        })
        .collect()
}

/// Repeats `pass` (which returns the flops it ran) until the budget is
/// spent and returns the median GFLOP/s over passes.
fn gflops(mut pass: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 3 || started.elapsed() < BUDGET {
        let t = Instant::now();
        let flops = pass();
        rates.push(flops as f64 / t.elapsed().as_secs_f64().max(1e-9) / 1e9);
    }
    median(&rates)
}

/// Replays both kernel families for `net` on a device with `workers`
/// workers and writes `device.gemm_itv_f.gflops` / `device.gbc.gflops`.
pub fn run(net: &Network<f32>, workers: usize, seed: u64, tracer: &Tracer, m: &mut Metrics) {
    let device = Device::new(DeviceConfig::new().workers(workers).name("replay"));
    let mut rng = Rng::stream(seed, "replay");
    let (gemms, convs) = shapes(net);

    let mut gemm_data: Vec<_> = gemms
        .iter()
        .map(|&(mm, k, n)| {
            let a = itvs(&mut rng, mm * k);
            let b: Vec<f32> = (0..k * n).map(|_| rng.range(-0.5, 0.5) as f32).collect();
            (mm, k, n, a, b, vec![Itv::point(0.0f32); mm * n])
        })
        .collect();
    let g = tracer.span(None, "replay", None, |_| {
        gflops(|| {
            let mut flops = 0;
            for (mm, k, n, a, b, c) in gemm_data.iter_mut() {
                gemm::gemm_itv_f(&device, a, b, c, *mm, *k, *n);
                std::hint::black_box(&c);
                flops += gemm::flops_itv_f(*mm, *k, *n);
            }
            flops
        })
    });
    m.set("device.gemm_itv_f.gflops", g, "GFLOP/s");

    let mut conv_data: Vec<_> = convs
        .iter()
        .map(|case| {
            let s = &case.shape;
            let (oh, ow) = case.out;
            let rows = oh * ow * s.cout;
            let origins: Vec<(i32, i32)> = (0..rows)
                .map(|r| {
                    let p = r / s.cout;
                    ((p / ow) as i32, (p % ow) as i32)
                })
                .collect();
            let dst_origins: Vec<(i32, i32)> = origins
                .iter()
                .map(|&(h, w)| {
                    (
                        h * s.sh as i32 - case.pad.0 as i32,
                        w * s.sw as i32 - case.pad.1 as i32,
                    )
                })
                .collect();
            let src = itvs(&mut rng, rows * s.cout);
            let weight: Vec<f32> = (0..s.kh * s.kw * s.cout * s.cin)
                .map(|_| rng.range(-0.5, 0.5) as f32)
                .collect();
            let dst_cols = s.kh * s.kw * s.cin;
            let dst = vec![Itv::point(0.0f32); rows * dst_cols];
            (
                case,
                origins,
                dst_origins,
                vec![0u32; rows],
                src,
                weight,
                dst,
            )
        })
        .collect();
    let g = tracer.span(None, "replay", None, |_| {
        gflops(|| {
            let mut flops = 0;
            for (case, origins, dst_origins, seg, src, weight, dst) in conv_data.iter_mut() {
                let s = &case.shape;
                let geom = ExprGeom {
                    win_h: 1,
                    win_w: 1,
                    shape_h: case.out.0,
                    shape_w: case.out.1,
                    chans: s.cout,
                    origins,
                    seg,
                };
                kernels::gbc(
                    &device,
                    "gbc_lo",
                    src,
                    &geom,
                    weight,
                    s,
                    dst,
                    dst_origins,
                    s.kh * s.kw * s.cin,
                    s.kw,
                );
                std::hint::black_box(&dst);
                flops += kernels::flops_gbc(origins.len(), (1, 1), s);
            }
            flops
        })
    });
    m.set("device.gbc.gflops", g, "GFLOP/s");
}
