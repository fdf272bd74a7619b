//! Thread-pool scaling benchmarks: dataset labeling and candidate
//! ranking at explicit pool sizes. Results are bit-identical across the
//! sizes (see `tests/determinism_golden.rs`); these benches measure the
//! wall-clock side of that guarantee.

use criterion::{criterion_group, Criterion};
use ldmo_core::dataset::{build_dataset_pooled, DatasetConfig, SamplerKind};
use ldmo_core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
use ldmo_core::sampling::SamplingConfig;
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_ilt::{IltConfig, IltContext};
use ldmo_layout::cells;
use ldmo_par::ThreadPool;
use std::process::ExitCode;

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

criterion_group!(benches, bench_label_scaling, bench_rank_scaling);

fn main() -> ExitCode {
    ldmo_bench::bench_main("par", benches)
}
