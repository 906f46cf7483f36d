//! Criterion microbenchmarks of the sparse kernels under the mGBA
//! workload shape: tall sparse matrices (paths × gates) with tens of
//! entries per row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsela::sampling::{NormSampler, UniformSampler};
use sparsela::{CsrBuilder, CsrMatrix};
use std::hint::black_box;

fn path_shaped(m: usize, n: usize, nnz: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CsrBuilder::new(n);
    let mut row = Vec::with_capacity(nnz);
    for _ in 0..m {
        row.clear();
        for _ in 0..nnz {
            row.push((rng.random_range(0..n), rng.random_range(50.0..150.0)));
        }
        b.push_row(&row);
    }
    b.build()
}

fn bench_matvec(c: &mut Criterion) {
    let mut group = c.benchmark_group("csr/matvec");
    for &(m, n) in &[(1_000usize, 500usize), (10_000, 3_000)] {
        let a = path_shaped(m, n, 25, 1);
        let x = vec![0.01; n];
        group.bench_function(BenchmarkId::from_parameter(format!("{m}x{n}")), |b| {
            b.iter(|| black_box(a.matvec(&x)))
        });
    }
    group.finish();
}

fn bench_row_ops(c: &mut Criterion) {
    let a = path_shaped(10_000, 3_000, 25, 2);
    let x = vec![0.01; 3_000];
    let mut group = c.benchmark_group("csr/row");
    group.bench_function("row_dot", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % a.num_rows();
            black_box(a.row_dot(i, &x))
        })
    });
    group.bench_function("row_norms_sq", |b| b.iter(|| black_box(a.row_norms_sq())));
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let a = path_shaped(10_000, 3_000, 25, 3);
    let norms = a.row_norms_sq();
    let sampler = NormSampler::new(&norms).expect("non-zero matrix");
    let mut group = c.benchmark_group("sampling");
    group.bench_function("norm_draw_200", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| black_box(sampler.draw_many(&mut rng, 200)))
    });
    group.bench_function("uniform_200_of_10k", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        let u = UniformSampler::new();
        b.iter(|| black_box(u.sample(&mut rng, 10_000, 200)))
    });
    group.bench_function("select_rows_200", |b| {
        let rows: Vec<usize> = (0..200).map(|i| i * 50).collect();
        b.iter(|| black_box(a.select_rows(&rows)))
    });
    group.finish();
}

criterion_group!(benches, bench_matvec, bench_row_ops, bench_sampling);
criterion_main!(benches);
