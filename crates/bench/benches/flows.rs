//! Criterion benchmarks of the end-to-end flows at a reduced iteration
//! budget — the relative ordering (ours fastest, unified slowest) matches
//! Table I's Time columns; the table itself is regenerated by the
//! `table1` binary at the full budget.

use criterion::{criterion_group, Criterion};
use ldmo_core::baselines::{two_stage_bfs, two_stage_suald, unified_flow, UnifiedConfig};
use ldmo_core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
use ldmo_ilt::IltConfig;
use ldmo_layout::cells;
use std::process::ExitCode;

fn short_ilt() -> IltConfig {
    IltConfig {
        max_iterations: 6,
        abort_warmup: 3,
        ..IltConfig::default()
    }
}

fn bench_flows(c: &mut Criterion) {
    let layout = cells::cell("NAND2_X1").expect("known cell");
    let mut group = c.benchmark_group("flows_short_budget");
    group.sample_size(10);
    group.bench_function("two_stage_suald", |b| {
        b.iter(|| two_stage_suald(&layout, &short_ilt()))
    });
    group.bench_function("two_stage_bfs", |b| {
        b.iter(|| two_stage_bfs(&layout, &short_ilt()))
    });
    group.bench_function("unified_greedy_pruning", |b| {
        let cfg = UnifiedConfig {
            ilt: short_ilt(),
            ..UnifiedConfig::default()
        };
        b.iter(|| unified_flow(&layout, &cfg))
    });
    group.bench_function("ours_litho_proxy", |b| {
        b.iter(|| {
            let cfg = FlowConfig {
                ilt: short_ilt(),
                ..FlowConfig::default()
            };
            LdmoFlow::new(cfg, SelectionStrategy::LithoProxy).run(&layout)
        })
    });
    group.bench_function("ours_untrained_cnn", |b| {
        b.iter(|| {
            let cfg = FlowConfig {
                ilt: short_ilt(),
                ..FlowConfig::default()
            };
            let predictor = ldmo_core::predictor::PrintabilityPredictor::lite(1);
            LdmoFlow::new(cfg, SelectionStrategy::Cnn(Box::new(predictor))).run(&layout)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_flows);

fn main() -> ExitCode {
    ldmo_bench::bench_main("flows", benches)
}
