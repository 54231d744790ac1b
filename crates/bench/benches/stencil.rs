//! Microbenchmarks of the grid-BP stencil scatter kernels in isolation:
//! the two classified forms (dense / separable) on the engine's default
//! 30×30 grid with a radius-9 kernel — the same shape the pinned
//! `BENCH_grid.json` scenario runs. The scatter kernels are
//! `#[inline(never)]`, so these numbers time exactly the code the engine
//! dispatches to.
//!
//! Dense uses a radially symmetric ring table (not rank-1); separable
//! uses a rank-1 Gaussian of the same radius (the two-pass form does
//! fundamentally less work, which is the point being measured).

use std::hint::black_box;
use std::time::Duration;
use wsnloc_bayes::KernelStencil;
use wsnloc_bench::harness::Criterion;
use wsnloc_bench::{criterion_group, criterion_main};
use wsnloc_geom::rng::Xoshiro256pp;

const NX: usize = 30;
const NY: usize = 30;
const R: usize = 9;

/// A radially symmetric ring kernel (Gaussian around distance 5 cells):
/// not rank-1, so it classifies dense.
fn ring_table() -> Vec<f64> {
    let w = 2 * R + 1;
    (0..w * w)
        .map(|i| {
            let oy = (i / w) as f64 - R as f64;
            let ox = (i % w) as f64 - R as f64;
            let d = ox.hypot(oy);
            (-0.5 * ((d - 5.0) / 2.0).powi(2)).exp()
        })
        .collect()
}

/// Rank-1 Gaussian factors of the same radius for the separable form.
fn gaussian_factors() -> (Vec<f64>, Vec<f64>) {
    let axis: Vec<f64> = (0..2 * R + 1)
        .map(|i| (-0.5 * ((i as f64 - R as f64) / 3.0).powi(2)).exp())
        .collect();
    (axis.clone(), axis)
}

/// A normalized random source plane with sub-floor cells sprinkled in,
/// matching what a mid-run belief looks like to the scatter loop.
fn source_plane() -> Vec<f64> {
    let mut rng = Xoshiro256pp::seed_from(17);
    let mut src: Vec<f64> = (0..NX * NY).map(|_| rng.range(0.0, 1.0)).collect();
    for i in (0..src.len()).step_by(7) {
        src[i] = 1e-9;
    }
    let total: f64 = src.iter().sum();
    for m in &mut src {
        *m /= total;
    }
    src
}

fn bench_form(
    c: &mut wsnloc_bench::harness::BenchmarkGroup<'_, wsnloc_bench::harness::measurement::WallTime>,
    name: &str,
    st: &KernelStencil,
) {
    let src = source_plane();
    let floor = 1e-4 / (NX * NY) as f64;
    let mut out = vec![0.0; NX * NY];
    let mut temp: Vec<f64> = Vec::new();
    c.bench_function(name, |b| {
        b.iter(|| {
            out.fill(0.0);
            st.scatter(black_box(&src), NX, floor, &mut out, &mut temp);
            black_box(out[0])
        });
    });
}

fn benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("stencil");
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_millis(500));

    let dense = KernelStencil::classify(R, R, ring_table());
    assert_eq!(dense.kind_name(), "dense");
    let (row, col) = gaussian_factors();
    let separable = KernelStencil::separable(R, R, row, col);

    bench_form(&mut g, "scatter_dense_f64_30x30_r9", &dense);
    bench_form(&mut g, "scatter_separable_f64_30x30_r9", &separable);

    g.finish();
}

criterion_group!(stencil_benches, benches);
criterion_main!(stencil_benches);
