//! Criterion microbenchmarks of the STA substrate: full vs incremental
//! timing update (the flow's inner loop), installing fitted mGBA weights,
//! path enumeration, and PBA re-timing — the costs whose ratio motivates
//! the whole mGBA approach (GBA updates are cheap, PBA is per-path
//! expensive).

use bench::build_engine;
use criterion::{criterion_group, criterion_main, Criterion};
use mgba::{MgbaConfig, Solver};
use netlist::{CellId, CellRole, DesignSpec};
use sta::paths::{select_critical_paths, worst_paths_to_endpoint};
use sta::pba_timing;
use std::hint::black_box;

fn bench_timing_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("sta/update");
    group.sample_size(20);
    let sta0 = build_engine(DesignSpec::D3);

    group.bench_function("full", |b| {
        let mut sta = build_engine(DesignSpec::D3);
        b.iter(|| {
            sta.full_update();
            black_box(sta.wns())
        })
    });

    // Incremental: toggle one mid-design gate between two sizes.
    let victim = sta0
        .netlist()
        .cells()
        .find(|(_, cell)| {
            cell.role == CellRole::Combinational
                && sta0.netlist().library().upsized(cell.lib_cell).is_some()
        })
        .map(|(id, _)| id)
        .expect("design has resizable gates");
    group.bench_function("incremental_resize", |b| {
        let mut sta = build_engine(DesignSpec::D3);
        let lo = sta.netlist().cell(victim).lib_cell;
        let hi = sta.netlist().library().upsized(lo).unwrap();
        let mut up = true;
        b.iter(|| {
            sta.resize_cell(victim, if up { hi } else { lo }).unwrap();
            up = !up;
            black_box(sta.wns())
        })
    });

    // Weight install: fold a fitted D10 weight vector into the engine,
    // then clear it, as every cold fit does around its solve. The period
    // is the derived one of `mgba-sta calibrate D10`.
    group.bench_function("weights_install", |b| {
        let netlist = DesignSpec::D10.generate();
        let mut sta = mgba::build_engine_auto(netlist).expect("D10 has violating paths");
        mgba::run_mgba(&mut sta, &MgbaConfig::default(), Solver::ScgRs);
        let weights: Vec<f64> = (0..sta.netlist().num_cells())
            .map(|i| sta.gate_weight(CellId::new(i)))
            .collect();
        b.iter(|| {
            sta.set_weights(black_box(&weights));
            sta.clear_weights();
            black_box(sta.stats.cells_propagated)
        })
    });
    group.finish();
}

fn bench_path_enumeration(c: &mut Criterion) {
    let sta = build_engine(DesignSpec::D3);
    let endpoint = sta
        .violating_endpoints()
        .first()
        .copied()
        .expect("benchmark design violates");
    let mut group = c.benchmark_group("sta/paths");
    group.sample_size(20);
    group.bench_function("worst_1", |b| {
        b.iter(|| black_box(worst_paths_to_endpoint(&sta, endpoint, 1)))
    });
    group.bench_function("worst_20", |b| {
        b.iter(|| black_box(worst_paths_to_endpoint(&sta, endpoint, 20)))
    });
    group.bench_function("select_all_endpoints_k20", |b| {
        b.iter(|| black_box(select_critical_paths(&sta, 20, usize::MAX, true)))
    });
    group.finish();
}

fn bench_pba(c: &mut Criterion) {
    let sta = build_engine(DesignSpec::D3);
    let paths = select_critical_paths(&sta, 20, 2000, true);
    let mut group = c.benchmark_group("sta/pba");
    group.sample_size(20);
    group.bench_function("retime_2000_paths", |b| {
        b.iter(|| {
            let total: f64 = paths.iter().map(|p| pba_timing(&sta, p).slack).sum();
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_timing_updates,
    bench_path_enumeration,
    bench_pba
);
criterion_main!(benches);
