//! Seeded networks and queries: the program under test only ever sees
//! what these functions generate.

use gpupoly::core::Query;
use gpupoly::nn::builder::{BranchBuilder, NetworkBuilder};
use gpupoly::nn::{Network, Shape};

use crate::common::Rng;

/// Seed of every workload network. The networks are part of each
/// workload's definition, like the entries of a model zoo; `--seed` varies
/// the queries and the arrival schedule. (Drawing the networks from
/// `--seed` too made `proven_frac` and peak memory depend mostly on which
/// random network a seed happened to produce.)
pub const NET_SEED: u64 = 2;

/// He-uniform weights, as the model zoo initializes them.
fn he(rng: &mut Rng, n: usize, fan_in: usize) -> Vec<f32> {
    let a = (6.0 / fan_in.max(1) as f64).sqrt();
    (0..n).map(|_| rng.range(-a, a) as f32).collect()
}

fn bias(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.range(-0.01, 0.01) as f32).collect()
}

/// The zoo's ResNetTiny layout on a small input: a 3×3 conv stem, one
/// residual block per stage (two 3×3 convs, 1×1 conv skip, stride 2 on
/// every stage after the first), a dense head and a 10-way classifier.
/// `stages` and `head` are the scaled widths.
pub fn resnet_tiny(seed: u64, input: Shape, stages: [usize; 4], head: [usize; 2]) -> Network<f32> {
    let mut rng = Rng::stream(seed, "resnet_tiny");
    let mut b = NetworkBuilder::new(input);
    let c0 = stages[0];
    let w = he(&mut rng, 9 * c0 * input.c, 9 * input.c);
    b = b
        .conv(c0, (3, 3), (1, 1), (1, 1), w, bias(&mut rng, c0))
        .relu();
    for (si, &ch) in stages.iter().enumerate() {
        let s = if si == 0 { 1 } else { 2 };
        let cin = b.current_shape().c;
        let (w1, b1) = (he(&mut rng, 9 * ch * cin, 9 * cin), bias(&mut rng, ch));
        let (w2, b2) = (he(&mut rng, 9 * ch * ch, 9 * ch), bias(&mut rng, ch));
        let (ws, bs) = (he(&mut rng, ch * cin, cin), bias(&mut rng, ch));
        b = b
            .residual(
                move |br: BranchBuilder<f32>| {
                    br.conv(ch, (3, 3), (s, s), (1, 1), w1, b1).relu().conv(
                        ch,
                        (3, 3),
                        (1, 1),
                        (1, 1),
                        w2,
                        b2,
                    )
                },
                move |br: BranchBuilder<f32>| br.conv(ch, (1, 1), (s, s), (0, 0), ws, bs),
            )
            .relu();
    }
    for d in head {
        let n = b.current_shape().len();
        b = b
            .dense_flat(d, he(&mut rng, d * n, n), bias(&mut rng, d))
            .relu();
    }
    let n = b.current_shape().len();
    b.dense_flat(10, he(&mut rng, 10 * n, n), bias(&mut rng, 10))
        .build()
        .expect("resnet layout is valid")
}

/// A dense ReLU MLP: `hidden` layers of `width`, then a 10-way classifier.
pub fn mlp(seed: u64, stream: &str, inputs: usize, width: usize, hidden: usize) -> Network<f32> {
    let mut rng = Rng::stream(seed, stream);
    let mut b = NetworkBuilder::new_flat(inputs);
    let mut n = inputs;
    for _ in 0..hidden {
        b = b
            .dense_flat(width, he(&mut rng, width * n, n), bias(&mut rng, width))
            .relu();
        n = width;
    }
    b.dense_flat(10, he(&mut rng, 10 * n, n), bias(&mut rng, 10))
        .build()
        .expect("mlp layout is valid")
}

/// A small conv net: two 3×3 convs (the second strided) and a classifier.
pub fn small_conv(seed: u64, input: Shape, c1: usize, c2: usize) -> Network<f32> {
    let mut rng = Rng::stream(seed, "small_conv");
    let ci = input.c;
    let w1 = he(&mut rng, 9 * c1 * ci, 9 * ci);
    let w2 = he(&mut rng, 9 * c2 * c1, 9 * c1);
    let b = NetworkBuilder::new(input)
        .conv(c1, (3, 3), (1, 1), (1, 1), w1, bias(&mut rng, c1))
        .relu()
        .conv(c2, (3, 3), (2, 2), (1, 1), w2, bias(&mut rng, c2))
        .relu();
    let n = b.current_shape().len();
    b.dense_flat(10, he(&mut rng, 10 * n, n), bias(&mut rng, 10))
        .build()
        .expect("conv layout is valid")
}

/// `n` distinct seeded queries: uniform random images, each labelled with
/// the class the network predicts for it (so every query is provable in
/// principle, and `eps` decides how many are).
pub fn queries(net: &Network<f32>, rng: &mut Rng, n: usize, eps: f32) -> Vec<Query<f32>> {
    let len = net.input_shape().len();
    (0..n)
        .map(|_| {
            let image = rng.image(len);
            let label = net.classify(&image);
            Query::new(image, label, eps)
        })
        .collect()
}
