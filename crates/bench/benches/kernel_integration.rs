//! Design ablation: the closed-form double integral of Appendix F.1
//! versus numeric quadrature. The analytic form is what makes covariance
//! assembly independent of domain size (Lemma 2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use verdict_core::kernel::{double_integral_exp, double_integral_quadrature};

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("double_integral");
    let (a, b1, c1, d, l) = (0.0, 7.0, 3.0, 12.0, 2.5);
    group.bench_function("analytic_closed_form", |bch| {
        bch.iter(|| double_integral_exp(a, b1, c1, d, l))
    });
    for steps in [32usize, 128, 512] {
        group.bench_with_input(
            BenchmarkId::new("quadrature", steps),
            &steps,
            |bch, &steps| bch.iter(|| double_integral_quadrature(a, b1, c1, d, l, steps)),
        );
    }
    group.finish();
}

/// Covariance assembly through `RegionIndex`, on both sides of what it
/// exploits: 100 regions whose `a` intervals are all distinct (every pair
/// integrated, as an all-pairs loop would), and 100 regions drawn from 12
/// intervals (144 ordered pairs integrated, the rest gathered). `b` and
/// `c` are unconstrained in both: one constraint each, one integral each.
fn bench_covariance_matrix(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use verdict_core::covariance::{AggMode, RegionIndex};
    use verdict_core::{DimensionSpec, KernelParams, Region, SchemaInfo};
    use verdict_storage::Predicate;

    let schema = SchemaInfo::new(vec![
        DimensionSpec::numeric("a", 0.0, 100.0),
        DimensionSpec::numeric("b", 0.0, 100.0),
        DimensionSpec::categorical("c", 50),
    ])
    .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let distinct: Vec<Region> = (0..100)
        .map(|_| {
            let lo = rng.gen::<f64>() * 80.0;
            Region::from_predicate(&schema, &Predicate::between("a", lo, lo + 15.0)).unwrap()
        })
        .collect();
    let repeated: Vec<Region> = (0..100).map(|i| distinct[i % 12].clone()).collect();
    let params = KernelParams::constant(3, 20.0, 1.0);
    for (name, regions) in [("all_distinct", &distinct), ("12_distinct", &repeated)] {
        let index = RegionIndex::new(regions);
        assert_eq!(index.distinct_per_dim()[1..], [1, 1]);
        c.bench_function(format!("covariance_matrix_100x100_3dims/{name}"), |bch| {
            bch.iter(|| {
                index
                    .pairs(&schema, AggMode::Avg)
                    .covariance_packed(&params)
            })
        });
        // A likelihood search keeps its tables: only a lengthscale that
        // moved is integrated again.
        let mut pairs = index.pairs(&schema, AggMode::Avg);
        c.bench_function(
            format!("covariance_matrix_100x100_3dims/{name}/tables_kept"),
            |bch| bch.iter(|| pairs.covariance_packed(&params)),
        );
    }
}

criterion_group!(benches, bench_kernel, bench_covariance_matrix);
criterion_main!(benches);
