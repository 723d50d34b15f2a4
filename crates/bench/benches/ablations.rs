//! Criterion benches for the ablation kernels: estimator variants and
//! codec families on delta streams.

use canopus_compress::{Codec, Fpc, SzLike, ZfpLike};
use canopus_data::xgc1_dataset_sized;
use canopus_mesh::FieldStats;
use canopus_refactor::decimate::decimate;
use canopus_refactor::mapping::build_mapping;
use canopus_refactor::{compute_delta, Estimator};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_ablations(c: &mut Criterion) {
    let ds = xgc1_dataset_sized(32, 160, 42);
    let dec = decimate(&ds.mesh, &ds.data, 2.0);
    let mapping = build_mapping(&ds.mesh, &dec.mesh);

    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    for estimator in [Estimator::Mean, Estimator::Barycentric] {
        group.bench_function(format!("delta_{estimator:?}"), |b| {
            b.iter(|| {
                compute_delta(
                    std::hint::black_box(&ds.mesh),
                    &ds.data,
                    &dec.mesh,
                    &dec.data,
                    &mapping,
                    estimator,
                )
            })
        });
    }

    let delta = compute_delta(
        &ds.mesh,
        &ds.data,
        &dec.mesh,
        &dec.data,
        &mapping,
        Estimator::Mean,
    );
    let tol = 1e-4 * FieldStats::of(&ds.data).range();
    let codecs: Vec<(&str, Box<dyn Codec>)> = vec![
        ("zfp", Box::new(ZfpLike::with_tolerance(tol))),
        ("sz", Box::new(SzLike::with_error_bound(tol))),
        ("fpc", Box::new(Fpc::new())),
    ];
    for (name, codec) in &codecs {
        group.bench_function(format!("compress_delta_{name}"), |b| {
            b.iter(|| codec.compress(std::hint::black_box(&delta)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
