//! The correctness gate. Every workload checks a sample of its verdicts
//! against a sequential `Engine::verify_robustness` oracle, bit for bit,
//! and checks every proven margin against concrete inference inside the
//! query box. Any violation fails the run, which then reports no numbers.

use gpupoly::core::{Engine, EngineOptions, Query, RobustnessVerdict, VerifyConfig};
use gpupoly::device::{Device, DeviceConfig};
use gpupoly::nn::Network;

use crate::common::Rng;

/// Concrete points checked per proven query besides the box centre.
const POINTS_PER_QUERY: usize = 4;

/// A verdict reduced to what every path reports: `(adversary, lower,
/// proven)` per margin.
pub type Margins = Vec<(usize, f32, bool)>;

pub fn margins_of(v: &RobustnessVerdict<f32>) -> Margins {
    v.margins
        .iter()
        .map(|m| (m.adversary, m.lower, m.proven))
        .collect()
}

/// Bitwise equality of two margin lists (`-0.0` differs from `0.0`).
pub fn same_bits(a: &Margins, b: &Margins) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits() && x.2 == y.2)
}

/// Collects violations; the run fails if any are found.
pub struct Gate<'n> {
    wide: Network<f64>,
    oracle: Engine<'n, f32, gpupoly::device::CpuSimBackend>,
    rng: Rng,
    pub checked: usize,
    pub violations: Vec<String>,
}

impl<'n> Gate<'n> {
    /// A gate for `net`, with its own single-worker device so the oracle
    /// shares no state (cache, pool, counters) with the engine under test.
    pub fn new(net: &'n Network<f32>, seed: u64) -> Self {
        let oracle = Engine::with_options(
            Device::new(DeviceConfig::new().workers(1).name("oracle")),
            net,
            VerifyConfig::default(),
            EngineOptions {
                analysis_cache: 0,
                ..EngineOptions::default()
            },
        )
        .expect("oracle engine builds");
        Self {
            wide: net.widen(),
            oracle,
            rng: Rng::stream(seed, "gate"),
            checked: 0,
            violations: Vec::new(),
        }
    }

    /// The sequential oracle's margins for `q`.
    pub fn oracle(&self, q: &Query<f32>) -> Result<Margins, String> {
        self.oracle
            .verify_robustness(&q.image, q.label, q.eps)
            .map(|v| margins_of(&v))
            .map_err(|e| format!("oracle failed: {e}"))
    }

    pub fn fail(&mut self, msg: String) {
        if self.violations.len() < 20 {
            self.violations.push(msg);
        } else {
            self.violations.truncate(20);
            self.violations
                .push("further violations omitted".to_string());
        }
    }

    /// Checks one reported verdict: bit identity with the oracle, then
    /// every proven margin at the box centre and at seeded points.
    pub fn check(&mut self, what: &str, q: &Query<f32>, got: &Margins) {
        self.checked += 1;
        match self.oracle(q) {
            Ok(want) if same_bits(&want, got) => {}
            Ok(want) => self.fail(format!(
                "{what}: margins {got:?} differ from oracle {want:?}"
            )),
            Err(e) => self.fail(format!("{what}: {e}")),
        }
        self.check_points(what, q, got);
    }

    /// Every proven margin must hold, in f64 inference, at the centre of
    /// the clamped box and at a few seeded points inside it.
    pub fn check_points(&mut self, what: &str, q: &Query<f32>, got: &Margins) {
        if !got.iter().any(|m| m.2) {
            return;
        }
        let bounds: Vec<(f64, f64)> = q
            .image
            .iter()
            .map(|&x| {
                let (x, e) = (f64::from(x), f64::from(q.eps));
                ((x - e).max(0.0), (x + e).min(1.0))
            })
            .collect();
        for k in 0..=POINTS_PER_QUERY {
            let point: Vec<f64> = bounds
                .iter()
                .map(|&(lo, hi)| {
                    if k == 0 {
                        0.5 * (lo + hi)
                    } else {
                        self.rng.range(lo, hi)
                    }
                })
                .collect();
            let y = self.wide.infer(&point);
            let scale = 1.0 + y.iter().fold(0.0f64, |a, v| a.max(v.abs()));
            for &(adv, lower, proven) in got {
                let diff = y[q.label] - y[adv];
                if proven && diff < f64::from(lower) - 1e-9 * scale {
                    self.fail(format!(
                        "{what}: proven margin vs class {adv} is {lower} but the network \
                         gives {diff} at a point in the box"
                    ));
                }
            }
        }
    }

    /// f64 inference of the gated network at `point`.
    pub fn infer(&self, point: &[f64]) -> Vec<f64> {
        self.wide.infer(point)
    }

    pub fn oracle_engine(&self) -> &Engine<'n, f32, gpupoly::device::CpuSimBackend> {
        &self.oracle
    }
}

/// Indices of a seeded sample of `k` out of `n` items (all when `n <= k`).
pub fn sample(n: usize, k: usize, rng: &mut Rng) -> Vec<usize> {
    if n <= k {
        return (0..n).collect();
    }
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.below(n - i);
        idx.swap(i, j);
    }
    let mut out = idx[..k].to_vec();
    out.sort_unstable();
    out
}
