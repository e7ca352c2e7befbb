//! Criterion microbenchmarks of the numerical kernels: the per-unit
//! costs that calibrate the virtual-time model's `sec_per_unit`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mdp_core::math::linalg::{Cholesky, Matrix};
use mdp_core::math::rng::{NormalInverse, NormalPolar, NormalSampler, Rng64, Xoshiro256StarStar};
use mdp_core::math::sobol::SobolSequence;
use mdp_core::math::special::{inv_norm_cdf, norm_cdf};
use std::hint::black_box;

fn bench_rngs(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng_u64");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1024));
    g.bench_function("xoshiro256**", |b| {
        let mut r = Xoshiro256StarStar::seed_from(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1024 {
                acc ^= r.next_u64();
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_normals(c: &mut Criterion) {
    let mut g = c.benchmark_group("normal_sampling");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1024));
    g.bench_function("polar", |b| {
        let mut r = Xoshiro256StarStar::seed_from(2);
        let mut s = NormalPolar::new();
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1024 {
                acc += s.sample(&mut r);
            }
            black_box(acc)
        })
    });
    g.bench_function("inverse_cdf", |b| {
        let mut r = Xoshiro256StarStar::seed_from(2);
        let mut s = NormalInverse::new();
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1024 {
                acc += s.sample(&mut r);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_special(c: &mut Criterion) {
    let mut g = c.benchmark_group("special_functions");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1000));
    g.bench_function("norm_cdf", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..1000 {
                acc += norm_cdf(-4.0 + i as f64 * 0.008);
            }
            black_box(acc)
        })
    });
    g.bench_function("inv_norm_cdf", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 1..1000 {
                acc += inv_norm_cdf(i as f64 / 1000.0);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_sobol(c: &mut Criterion) {
    let mut g = c.benchmark_group("sobol");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1024));
    for dim in [5usize, 20] {
        g.bench_function(format!("dim{dim}"), |b| {
            let mut s = SobolSequence::new(dim).unwrap();
            let mut buf = vec![0.0; dim];
            b.iter(|| {
                for _ in 0..1024 {
                    s.next_point(&mut buf);
                }
                black_box(buf[0])
            })
        });
    }
    g.finish();
}

fn bench_cholesky(c: &mut Criterion) {
    let mut g = c.benchmark_group("cholesky_correlate");
    g.sample_size(20);
    for d in [2usize, 5, 10] {
        let mut corr = Matrix::identity(d);
        for i in 0..d {
            for j in 0..d {
                if i != j {
                    corr[(i, j)] = 0.3;
                }
            }
        }
        let ch = Cholesky::factor(&corr).unwrap();
        let z: Vec<f64> = (0..d).map(|i| i as f64 * 0.1 - 0.2).collect();
        let mut out = vec![0.0; d];
        g.throughput(Throughput::Elements(1024));
        g.bench_function(format!("d{d}"), |b| {
            b.iter(|| {
                for _ in 0..1024 {
                    ch.correlate(&z, &mut out);
                }
                black_box(out[0])
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_rngs,
    bench_normals,
    bench_special,
    bench_sobol,
    bench_cholesky
);
criterion_main!(benches);
