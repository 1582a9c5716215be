//! Component micro-benchmarks: the building blocks whose throughput
//! determines end-to-end experiment cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use glova_circuits::{Circuit, DramCoreSense, FloatingInverterAmp, StrongArmLatch};
use glova_nn::{Activation, Adam, Gradients, Mlp, MlpConfig, Workspace};
use glova_rl::EnsembleCritic;
use glova_stats::rng::seeded;
use glova_stats::StandardNormal;
use glova_turbo::GaussianProcess;
use glova_variation::corner::PvtCorner;
use glova_variation::sampler::{MismatchSampler, MismatchVector, VarianceLayers};

fn bench_circuit_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_eval");
    let corner = PvtCorner::typical();
    let sal = StrongArmLatch::new();
    let x_sal = sal.reference_design();
    let h_sal = MismatchVector::nominal(sal.mismatch_domain(&x_sal).dim());
    group.bench_function("sal", |b| {
        b.iter(|| black_box(sal.evaluate(black_box(&x_sal), &corner, &h_sal)))
    });
    let fia = FloatingInverterAmp::new();
    let x_fia = fia.reference_design();
    let h_fia = MismatchVector::nominal(fia.mismatch_domain(&x_fia).dim());
    group.bench_function("fia", |b| {
        b.iter(|| black_box(fia.evaluate(black_box(&x_fia), &corner, &h_fia)))
    });
    let dram = DramCoreSense::new();
    let x_dram = dram.reference_design();
    let h_dram = MismatchVector::nominal(dram.mismatch_domain(&x_dram).dim());
    group.bench_function("dram", |b| {
        b.iter(|| black_box(dram.evaluate(black_box(&x_dram), &corner, &h_dram)))
    });
    group.finish();
}

fn bench_mismatch_sampling(c: &mut Criterion) {
    let sal = StrongArmLatch::new();
    let x = sal.reference_design();
    let sampler = MismatchSampler::new(sal.mismatch_domain(&x), VarianceLayers::GLOBAL_LOCAL);
    let mut rng = seeded(1);
    c.bench_function("sample_set_n3", |b| b.iter(|| black_box(sampler.sample_set(&mut rng, 3))));
    c.bench_function("sample_independent_n100", |b| {
        b.iter(|| black_box(sampler.sample_independent(&mut rng, 100)))
    });
}

fn bench_nn(c: &mut Criterion) {
    let mut rng = seeded(2);
    let net = Mlp::new(&MlpConfig::new(14, &[64, 64, 64], 14, Activation::Relu), &mut rng);
    let x = vec![0.5; 14];
    c.bench_function("mlp_forward_64x3", |b| b.iter(|| black_box(net.forward(&x))));
    let mut trainable = net.clone();
    let mut adam = Adam::new(1e-3);
    let batch = vec![0.5; 14 * 10];
    let mut ws = Workspace::new(&trainable, 10);
    let mut grads = Gradients::zeros_like(&trainable);
    c.bench_function("mlp_train_step_64x3_batch10", |b| {
        b.iter(|| {
            let grad: Vec<f64> =
                trainable.forward_batch(&batch, &mut ws).iter().map(|o| 2.0 * o).collect();
            grads.set_zero();
            trainable.backward_batch(&batch, &mut ws, &grad, &mut grads);
            adam.step(&mut trainable, &grads);
        })
    });
}

fn bench_critic(c: &mut Criterion) {
    let mut rng = seeded(3);
    let critic = EnsembleCritic::new(14, 5, &[64, 64, 64], -3.0, 1e-3, 0.0, &mut rng);
    let x = vec![0.5; 14];
    c.bench_function("ensemble_critic_predict", |b| b.iter(|| black_box(critic.predict(&x))));
    c.bench_function("ensemble_critic_input_grad", |b| {
        b.iter(|| black_box(critic.input_gradient(&x)))
    });
}

fn bench_gp(c: &mut Criterion) {
    let mut rng = seeded(4);
    let xs: Vec<Vec<f64>> =
        (0..60).map(|i| vec![(i as f64 / 59.0), ((i * 7 % 60) as f64 / 59.0)]).collect();
    let ys: Vec<f64> = xs.iter().map(|x| (x[0] - 0.3).powi(2) + x[1]).collect();
    c.bench_function("gp_fit_auto_60pts", |b| {
        b.iter(|| black_box(GaussianProcess::fit_auto(&xs, &ys, &mut rng)))
    });
    let gp = GaussianProcess::fit_auto(&xs, &ys, &mut rng);
    c.bench_function("gp_predict", |b| b.iter(|| black_box(gp.predict(&[0.4, 0.6]))));

    // One TuRBO ask's candidate scoring at the SAL size: 1400 candidates
    // against an 84-point, 14-dimensional surrogate.
    let dim = 14;
    let spread = |i: usize| (i * 37 % 97) as f64 / 96.0;
    let xs: Vec<Vec<f64>> =
        (0..84).map(|i| (0..dim).map(|d| spread(i * dim + d)).collect()).collect();
    let ys: Vec<f64> = xs.iter().map(|x| x.iter().map(|v| (3.0 * v).sin()).sum()).collect();
    let gp = GaussianProcess::fit_auto(&xs, &ys, &mut rng);
    let queries: Vec<f64> = (0..1400 * dim).map(|i| spread(i + 5)).collect();
    let normal = StandardNormal::new();
    let z: Vec<f64> = (0..1400).map(|_| normal.sample(&mut rng)).collect();
    c.bench_function("gp_thompson_1400x84", |b| {
        b.iter(|| black_box(gp.thompson_values(&queries, &z)))
    });
}

criterion_group!(
    benches,
    bench_circuit_eval,
    bench_mismatch_sampling,
    bench_nn,
    bench_critic,
    bench_gp
);
criterion_main!(benches);
