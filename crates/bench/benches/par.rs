//! Thread-pool scaling benchmarks: dataset labeling and candidate
//! ranking at explicit pool sizes, and one ILT step with its masks on
//! the pool's lanes. Results are bit-identical across the sizes (see
//! `tests/determinism_golden.rs`); these benches measure the wall-clock
//! side of that guarantee.

use criterion::{criterion_group, Criterion};
use ldmo_core::dataset::{build_dataset_pooled, DatasetConfig, SamplerKind};
use ldmo_core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
use ldmo_core::lanes::PoolLanes;
use ldmo_core::sampling::SamplingConfig;
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_ilt::{IltConfig, IltContext};
use ldmo_layout::cells;
use ldmo_par::ThreadPool;
use std::process::ExitCode;
use std::sync::Arc;

const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

fn short_ilt() -> IltConfig {
    IltConfig {
        max_iterations: 6,
        abort_warmup: 3,
        ..IltConfig::default()
    }
}

fn bench_label_scaling(c: &mut Criterion) {
    let layouts: Vec<_> = ["NAND2_X1", "NOR2_X1", "AOI211_X1"]
        .iter()
        .map(|n| cells::cell(n).expect("known cell"))
        .collect();
    let scfg = SamplingConfig {
        clusters: 2,
        per_cluster: 1,
        max_per_layout: 3,
        ..SamplingConfig::default()
    };
    let dcfg = DatasetConfig {
        ilt: short_ilt(),
        ..DatasetConfig::default()
    };
    let mut group = c.benchmark_group("par");
    group.sample_size(10);
    for threads in POOL_SIZES {
        let pool = ThreadPool::new(threads);
        group.bench_function(format!("label_scaling/{threads}"), |b| {
            b.iter(|| build_dataset_pooled(&layouts, &SamplerKind::Engineered, &scfg, &dcfg, &pool))
        });
    }
    group.finish();
}

fn bench_rank_scaling(c: &mut Criterion) {
    let layout = cells::cell("AOI211_X1").expect("known cell");
    let candidates = generate_candidates(&layout, &DecompConfig::default());
    let cfg = FlowConfig {
        ilt: short_ilt(),
        ..FlowConfig::default()
    };
    let ctx = IltContext::new(&cfg.ilt);
    let mut group = c.benchmark_group("par");
    group.sample_size(10);
    for threads in POOL_SIZES {
        let pool = ThreadPool::new(threads);
        group.bench_function(format!("rank_scaling/{threads}"), |b| {
            let mut flow =
                LdmoFlow::new(cfg.clone(), SelectionStrategy::LithoProxy).with_pool(pool.clone());
            b.iter(|| flow.rank_candidates(&layout, &candidates, &ctx))
        });
    }
    group.finish();
}

fn bench_step_lanes(c: &mut Criterion) {
    // the BUF_X1 session of `ilt/step_workspace`, one lane per mask
    let layout = cells::cell("BUF_X1").expect("known cell");
    let ctx = IltContext::new(&IltConfig::default());
    let mut group = c.benchmark_group("par");
    group.sample_size(10);
    for threads in [1, 2] {
        let lanes = PoolLanes(ThreadPool::new(threads));
        let lane_ctx = ctx.clone().with_lanes(Arc::new(lanes));
        let mut session = lane_ctx.session(&layout, &[0, 1, 1, 0]);
        group.bench_function(format!("step_lanes/{threads}"), |b| {
            b.iter(|| session.step_one())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_label_scaling,
    bench_rank_scaling,
    bench_step_lanes
);

fn main() -> ExitCode {
    ldmo_bench::bench_main("par", benches)
}
