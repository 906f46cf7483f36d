//! Criterion microbenchmarks of the solver ablations called out in
//! DESIGN.md §6, each on the same D1 problem (the solver comparison
//! itself is `table4_solvers`):
//!
//! - `ablation/step_decay` — the dynamic step-size schedule on vs off;
//! - `ablation/row_fraction` — sensitivity to the k'' sampling fraction;
//! - `ablation/initial_ratio` — Algorithm 1's starting ratio r₀.

use bench::build_engine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mgba::{FitProblem, MgbaConfig, SelectionScheme, Solver};
use std::hint::black_box;

fn problem() -> FitProblem {
    let config = MgbaConfig::default();
    let mut sta = build_engine(netlist::DesignSpec::D1);
    sta.clear_weights();
    let selection = mgba::select_paths(
        &sta,
        SelectionScheme::PerEndpoint {
            k: config.paths_per_endpoint,
            max_total: config.max_paths,
        },
        true,
    );
    FitProblem::build(&sta, &selection.paths, config.epsilon, config.penalty)
}

fn bench_step_decay_ablation(c: &mut Criterion) {
    let p = problem();
    let mut group = c.benchmark_group("ablation/step_decay");
    group.sample_size(10);
    for (name, decay) in [
        ("dynamic", MgbaConfig::default().step_decay),
        ("fixed", 0.0),
    ] {
        let config = MgbaConfig {
            step_decay: decay,
            ..MgbaConfig::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| black_box(Solver::Scg.solve(&p, &config)))
        });
    }
    group.finish();
}

fn bench_row_fraction_ablation(c: &mut Criterion) {
    let p = problem();
    let mut group = c.benchmark_group("ablation/row_fraction");
    group.sample_size(10);
    for frac in [0.005, 0.02, 0.08] {
        let config = MgbaConfig {
            row_fraction: frac,
            ..MgbaConfig::default()
        };
        group.bench_function(BenchmarkId::from_parameter(frac), |b| {
            b.iter(|| black_box(Solver::Scg.solve(&p, &config)))
        });
    }
    group.finish();
}

fn bench_initial_ratio_ablation(c: &mut Criterion) {
    let p = problem();
    let mut group = c.benchmark_group("ablation/initial_ratio");
    group.sample_size(10);
    for r0 in [1e-3, 1e-2, 1e-1] {
        let config = MgbaConfig {
            initial_row_ratio: r0,
            ..MgbaConfig::default()
        };
        group.bench_function(BenchmarkId::from_parameter(r0), |b| {
            b.iter(|| black_box(Solver::ScgRs.solve(&p, &config)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_step_decay_ablation,
    bench_row_fraction_ablation,
    bench_initial_ratio_ablation
);
criterion_main!(benches);
